//! Figure 6: coll_perf (3D block-distributed array, row-major file)
//! write/read bandwidth vs aggregator memory at 120 processes.
//!
//! The paper writes/reads a 2048³ array of 4-byte elements (32 GiB).
//! The simulated reproduction scales the array down by `SCALE` per
//! dimension (default 2 → 1024³, 4 GiB) to keep plan sizes tractable,
//! and sweeps the same absolute buffer range; see EXPERIMENTS.md. Paper
//! reference points: average improvement +34.2 % (write) and +22.9 %
//! (read).

fn main() {
    mcio_bench::exhibits::print_figure(&mcio_bench::exhibits::FIGURES[0]);
}
