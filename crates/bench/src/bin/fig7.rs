//! Figure 7: IOR interleaved read/write bandwidth vs aggregator memory
//! at 120 processes (10 testbed nodes × 12), 32 MiB of I/O data per MPI
//! process.
//!
//! Paper reference points: write improvements from +40.3 % to +121.7 %
//! (best at 16 MiB), read from +64.6 % to +97.4 % (89.1 % at 8 MiB);
//! averages ≈ +81.2 % (write) and +82.4 % (read).

fn main() {
    mcio_bench::exhibits::print_figure(&mcio_bench::exhibits::FIGURES[1]);
}
