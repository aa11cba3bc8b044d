//! # mcio-bench — harnesses regenerating the paper's tables and figures
//!
//! Each binary reproduces one exhibit of the evaluation section:
//!
//! | binary    | exhibit  | what it prints |
//! |-----------|----------|----------------|
//! | `table1`  | Table 1  | the exascale projection table + derived rows |
//! | `fig6`    | Figure 6 | coll_perf write/read bandwidth vs aggregator memory, 120 procs |
//! | `fig7`    | Figure 7 | IOR write/read bandwidth vs aggregator memory, 120 procs |
//! | `fig8`    | Figure 8 | IOR write/read bandwidth vs aggregator memory, 1080 procs |
//! | `ablation`| —        | component on/off study (groups, placement, remerge, N_ah, stddev) |
//! | `scaling` | —        | the same IOR collective at 8 → 128 exascale-design nodes |
//! | `tune`    | §3       | the empirical Msg_ind / N_ah / Msg_group calibration |
//!
//! This library holds the shared experiment harness: every measurement
//! is a [`Cell`] (what to plan, how to run it), every exhibit a
//! data-returning function of [`exhibits`] that the binaries print and
//! the tests assert on (absolute numbers come from the simulated
//! machine; the *shape* — who wins, by what factor, where the gap
//! widens — is the reproduction target).

pub mod cell;
pub mod cli;
pub mod exhibits;
pub mod mtspec;
pub mod perf;
pub mod suite;

pub use cell::Cell;

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::exec_sim::TimingReport;
use mcio_core::{CollectiveConfig, CollectiveRequest, ProcMemory, Strategy};

/// One measured point of a sweep.
#[derive(Debug, Clone)]
pub struct Point {
    /// Strategy measured.
    pub strategy: Strategy,
    /// Nominal aggregator buffer (the x-axis of Figures 6–8), bytes.
    pub buffer: u64,
    /// The timing result.
    pub timing: TimingReport,
}

/// The common experiment harness.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Machine model.
    pub spec: ClusterSpec,
    /// Process placement.
    pub map: ProcessMap,
    /// Seed for the heterogeneous memory draw.
    pub seed: u64,
    /// Relative stddev of the per-process available-memory distribution
    /// (the paper's unitless "standard deviation was set as 50";
    /// calibrated to 0.35 relative — see EXPERIMENTS.md).
    pub relative_stddev: f64,
}

impl Harness {
    /// Standard placement: block, `ppn` ranks per node.
    pub fn new(spec: ClusterSpec, nranks: usize, ppn: usize, seed: u64) -> Self {
        let map = ProcessMap::block_ppn(nranks, ppn);
        assert!(
            map.nnodes() <= spec.nodes,
            "placement needs {} nodes, machine has {}",
            map.nnodes(),
            spec.nodes
        );
        Harness {
            spec,
            map,
            seed,
            relative_stddev: 0.35,
        }
    }

    /// The paper's §4 memory environment for a nominal buffer `buf`:
    /// per-process available memory drawn from a normal distribution
    /// whose mean is `buf` (the paper's "standard deviation was set as
    /// 50"). Both strategies run in the **same** environment — the
    /// baseline requests a *fixed* `buf` everywhere but each aggregator
    /// only gets `min(buf, available)` (it cannot adapt), while the
    /// memory-conscious planner inspects availability when placing
    /// aggregators. The uniform table is returned too, for ablations in
    /// a homogeneous-memory machine.
    pub fn memories(&self, buf: u64) -> (ProcMemory, ProcMemory) {
        let uniform = ProcMemory::uniform(self.map.nranks(), buf);
        let normal = ProcMemory::normal(self.map.nranks(), buf, self.relative_stddev, self.seed);
        (uniform, normal)
    }

    /// The paper-style knobs for a workload on this placement:
    /// [`CollectiveConfig::paper`], the recipe every front end shares.
    pub fn config_for(&self, req: &CollectiveRequest, buf: u64) -> CollectiveConfig {
        CollectiveConfig::paper(req.total_bytes(), self.map.nnodes(), buf)
    }

    /// Measure one (strategy, buffer) point of the paper-recipe cell.
    pub fn run_point(&self, strategy: Strategy, req: &CollectiveRequest, buf: u64) -> Point {
        Point {
            strategy,
            buffer: buf,
            timing: self.cell(strategy, req, buf).measure(),
        }
    }

    /// Sweep both strategies over the buffer sizes; returns
    /// `(two-phase, memory-conscious)` series.
    pub fn sweep(&self, req: &CollectiveRequest, buffers: &[u64]) -> (Vec<Point>, Vec<Point>) {
        let series = |strategy| {
            let points = buffers
                .iter()
                .map(|&buf| self.run_point(strategy, req, buf));
            points.collect()
        };
        (
            series(Strategy::TwoPhase),
            series(Strategy::MemoryConscious),
        )
    }
}

/// Percentage improvement of `new` over `base`.
pub fn improvement_pct(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

/// Render a figure-style table: one row per buffer size, columns for
/// both strategies and the improvement. Returns the average improvement.
pub fn print_series(title: &str, tp: &[Point], mc: &[Point]) -> f64 {
    println!("\n== {title} ==");
    println!(
        "{:>12} {:>16} {:>20} {:>14}",
        "buffer", "two-phase MiB/s", "mem-conscious MiB/s", "improvement"
    );
    let mut improvements = Vec::new();
    for (a, b) in tp.iter().zip(mc.iter()) {
        assert_eq!(a.buffer, b.buffer);
        let imp = improvement_pct(a.timing.bandwidth_mibs, b.timing.bandwidth_mibs);
        improvements.push(imp);
        println!(
            "{:>12} {:>16.1} {:>20.1} {:>13.1}%",
            format_bytes(a.buffer),
            a.timing.bandwidth_mibs,
            b.timing.bandwidth_mibs,
            imp
        );
    }
    let avg = improvements.iter().sum::<f64>() / improvements.len().max(1) as f64;
    println!("{:>12} {:>16} {:>20} {:>13.1}%", "average", "", "", avg);
    avg
}

/// Write a sweep as CSV (one row per buffer size, both strategies and
/// phase attribution), for plotting.
pub fn write_csv(
    path: impl AsRef<std::path::Path>,
    tp: &[Point],
    mc: &[Point],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.as_ref().parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "buffer_bytes,two_phase_mibs,mem_conscious_mibs,improvement_pct,         tp_exchange_s,tp_io_s,mc_exchange_s,mc_io_s"
    )?;
    for (a, b) in tp.iter().zip(mc.iter()) {
        writeln!(
            f,
            "{},{:.2},{:.2},{:.2},{:.4},{:.4},{:.4},{:.4}",
            a.buffer,
            a.timing.bandwidth_mibs,
            b.timing.bandwidth_mibs,
            improvement_pct(a.timing.bandwidth_mibs, b.timing.bandwidth_mibs),
            a.timing.exchange_time.as_secs_f64(),
            a.timing.io_time.as_secs_f64(),
            b.timing.exchange_time.as_secs_f64(),
            b.timing.io_time.as_secs_f64(),
        )?;
    }
    f.flush()
}

/// Human-readable byte count (power-of-two units).
pub fn format_bytes(b: u64) -> String {
    const KIB: u64 = 1024;
    const MIB: u64 = KIB * 1024;
    const GIB: u64 = MIB * 1024;
    if b >= GIB && b.is_multiple_of(GIB) {
        format!("{} GiB", b / GIB)
    } else if b >= MIB && b.is_multiple_of(MIB) {
        format!("{} MiB", b / MIB)
    } else if b >= KIB && b.is_multiple_of(KIB) {
        format!("{} KiB", b / KIB)
    } else {
        format!("{b} B")
    }
}

/// The buffer sweep the paper uses in Figures 7 and 8 (128 MiB down to
/// 2 MiB).
pub fn paper_buffer_sweep() -> Vec<u64> {
    const MIB: u64 = 1 << 20;
    vec![
        2 * MIB,
        4 * MIB,
        8 * MIB,
        16 * MIB,
        32 * MIB,
        64 * MIB,
        128 * MIB,
    ]
}

/// Ranks-per-node on the testbed (two 6-core Xeons).
pub const TESTBED_PPN: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use mcio_core::Rw;
    use mcio_workloads::Ior;

    #[test]
    fn harness_runs_a_small_sweep() {
        let spec = ClusterSpec::small(4, 2);
        let h = Harness::new(spec, 8, 2, 42);
        let ior = Ior::paper(8, 4 << 20, 4);
        let req = ior.request(Rw::Write);
        let buffers = vec![1 << 20, 4 << 20];
        let (tp, mc) = h.sweep(&req, &buffers);
        assert_eq!(tp.len(), 2);
        assert_eq!(mc.len(), 2);
        for p in tp.iter().chain(mc.iter()) {
            assert!(p.timing.bandwidth_mibs > 0.0);
        }
    }

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(100.0, 150.0), 50.0);
        assert_eq!(improvement_pct(0.0, 150.0), 0.0);
        assert!((improvement_pct(200.0, 150.0) + 25.0).abs() < 1e-12);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(2 << 20), "2 MiB");
        assert_eq!(format_bytes(3 << 30), "3 GiB");
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(4096), "4 KiB");
    }
}
