//! Figure 8: IOR interleaved read/write bandwidth vs aggregator memory
//! at 1080 processes (90 testbed nodes × 12).
//!
//! Paper reference points: the baseline's write bandwidth drops from
//! 1631.91 MB/s (128 MB buffers) to 396.36 MB/s (2 MB); read drops from
//! 2047.05 to 861.62 MB/s. Memory-conscious averages +24.3 % on writes
//! and +57.8 % on reads.

fn main() {
    mcio_bench::exhibits::print_figure(&mcio_bench::exhibits::FIGURES[2]);
}
