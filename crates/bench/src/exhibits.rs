//! The exhibits as data: every function here returns the rows one
//! exhibit binary prints, so `docs/results/` and `tests/paper_claims.rs`
//! read the same numbers.
//!
//! | function | binary | cells |
//! |---|---|---|
//! | [`figure`]`(&`[`FIGURES`]`[i])` | `fig6`, `fig7`, `fig8` | 7 buffers × 2 strategies × write/read |
//! | [`ablation`] | `ablation` | components, run settings, σ rows at one buffer |
//! | [`remerging`] | `ablation` | the two-starved-nodes machine |
//! | [`scaling`] | `scaling` | 8 → 128 exascale-design nodes × 2 strategies |
//! | [`tune`] | `tune` | §3's calibration on two machines |

use crate::{cli, improvement_pct, paper_buffer_sweep, print_series, write_csv};
use crate::{Cell, Harness, Point, TESTBED_PPN};
use mcio_cluster::spec::ClusterSpec;
use mcio_core::exec_sim::{Exchange, Pipeline, TimingReport};
use mcio_core::tuner::{self, TunedParams};
use mcio_core::{CollectiveConfig, CollectiveRequest, PlacementPolicy, ProcMemory, Rw, Strategy};
use mcio_workloads::{CollPerf, Ior};

const MIB: u64 = 1 << 20;

/// Workload of a figure.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// `coll_perf`: a 3-D block-distributed array of side `2048 / scale`.
    CollPerf {
        /// Dimension divisor.
        scale: u64,
    },
    /// Interleaved IOR in 8 segments.
    Ior {
        /// Bytes per process.
        per_proc: u64,
    },
}

impl Shape {
    /// The collective of `ranks` processes.
    pub fn request(self, ranks: usize, rw: Rw) -> CollectiveRequest {
        match self {
            Shape::CollPerf { scale } => CollPerf::paper(ranks, scale).request(rw),
            Shape::Ior { per_proc } => Ior::paper(ranks, per_proc, 8).request(rw),
        }
    }
}

/// Where a figure runs: written once, read by the figure binaries, the
/// perf matrix ([`crate::perf::scenarios`]) and the claim tests.
#[derive(Debug)]
pub struct Figure {
    /// Binary name, perf-scenario key and CSV stem (`fig6`).
    pub name: &'static str,
    /// Series title (`Figure 6`).
    pub title: &'static str,
    /// Total ranks, [`TESTBED_PPN`] per node.
    pub ranks: usize,
    /// Seed of the memory draw.
    pub seed: u64,
    /// Machine model.
    pub machine: fn() -> ClusterSpec,
    /// Workload.
    pub shape: Shape,
    /// The paper's reference points, printed above ours.
    pub paper: &'static str,
}

/// Figures 6–8. The paper's coll_perf array is 2048³ × 4 B (32 GiB);
/// Figure 6 runs it at scale 2 (1024³, 4 GiB) over the same absolute
/// buffer range — see EXPERIMENTS.md.
pub const FIGURES: [Figure; 3] = [
    Figure {
        name: "fig6",
        title: "Figure 6",
        ranks: 120,
        seed: 0xF166,
        machine: ClusterSpec::testbed_120,
        shape: Shape::CollPerf { scale: 2 },
        paper: "paper: write avg +34.2%, read avg +22.9%",
    },
    Figure {
        name: "fig7",
        title: "Figure 7",
        ranks: 120,
        seed: 0xF167,
        machine: ClusterSpec::testbed_120,
        shape: Shape::Ior { per_proc: 32 * MIB },
        paper: "paper: write avg +81.2% (40.3..121.7), read avg +82.4% (64.6..97.4)",
    },
    Figure {
        name: "fig8",
        title: "Figure 8",
        ranks: 1080,
        seed: 0xF168,
        machine: ClusterSpec::testbed_1080,
        shape: Shape::Ior { per_proc: 32 * MIB },
        paper: "paper: baseline write 1631.91→396.36 MB/s and read 2047.05→861.62 MB/s\n       \
                as buffers shrink 128→2 MB; MC avg +24.3% write, +57.8% read",
    },
];

impl Figure {
    /// The figure's machine and placement.
    pub fn harness(&self) -> Harness {
        Harness::new((self.machine)(), self.ranks, TESTBED_PPN, self.seed)
    }
}

/// One figure: the `(two-phase, memory-conscious)` series over
/// [`paper_buffer_sweep`], write then read.
pub fn figure(f: &Figure) -> [(Rw, Vec<Point>, Vec<Point>); 2] {
    let harness = f.harness();
    [Rw::Write, Rw::Read].map(|rw| {
        let req = f.shape.request(f.ranks, rw);
        let (tp, mc) = harness.sweep(&req, &paper_buffer_sweep());
        (rw, tp, mc)
    })
}

/// The whole of a figure binary: header, both series (stdout and
/// `docs/results/<name>_<rw>.csv` under the working directory), the
/// paper's reference points and our averages.
pub fn print_figure(f: &Figure) {
    match f.shape {
        Shape::CollPerf { scale } => {
            let cp = CollPerf::paper(f.ranks, scale);
            let [x, y, z] = cp.dims;
            println!(
                "coll_perf, {} processes, array {x}x{y}x{z} x {} B = {} (paper: 2048^3, 32 GiB)",
                f.ranks,
                cp.elem,
                crate::format_bytes(cp.file_bytes()),
            );
        }
        Shape::Ior { per_proc } => println!(
            "IOR interleaved, {} processes, {} per process, file {}",
            f.ranks,
            crate::format_bytes(per_proc),
            crate::format_bytes(per_proc * f.ranks as u64),
        ),
    }
    let averages = figure(f).map(|(rw, tp, mc)| {
        let path = format!("docs/results/{}_{}.csv", f.name, rw.name());
        if let Err(e) = write_csv(&path, &tp, &mc) {
            cli::fail(f.name, 1, &format!("cannot write {path}: {e}"));
        }
        print_series(&format!("{} ({})", f.title, rw.name()), &tp, &mc)
    });
    println!("\n{}", f.paper);
    let [wavg, ravg] = averages;
    println!("ours : write avg {wavg:+.1}%, read avg {ravg:+.1}%");
}

/// One ablation row: bandwidths in MiB/s.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label, as printed.
    pub label: String,
    /// The two-phase baseline the row compares against.
    pub baseline: f64,
    /// The memory-conscious (variant) measurement.
    pub mc: f64,
}

impl Row {
    /// Improvement of `mc` over `baseline`, percent.
    pub fn gain(&self) -> f64 {
        improvement_pct(self.baseline, self.mc)
    }
}

/// A memory-variance row: [`SIGMA_SEEDS`] draws at one relative stddev.
#[derive(Debug, Clone, PartialEq)]
pub struct SigmaRow {
    /// Relative stddev of the memory draw.
    pub stddev: f64,
    /// Per-seed improvement over the baseline, percent, seed order.
    pub gains: Vec<f64>,
}

impl SigmaRow {
    /// `(mean, min, max)` of the per-seed improvement, percent.
    pub fn gain(&self) -> (f64, f64, f64) {
        let fold = |init: f64, f: fn(f64, f64) -> f64| self.gains.iter().copied().fold(init, f);
        let mean = fold(0.0, |a, b| a + b) / self.gains.len() as f64;
        (mean, fold(f64::MAX, f64::min), fold(f64::MIN, f64::max))
    }
}

/// Seeds per σ row: `0xAB1A + k`, `k = 0..12`. One seed is noise — the
/// per-seed spread is wider than the trend across σ.
pub const SIGMA_SEEDS: u64 = 12;

/// The ablation at one nominal buffer, on the Figure-7 IOR set-up.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Nominal buffer, bytes.
    pub buffer: u64,
    /// Two-phase baseline, MiB/s.
    pub baseline: f64,
    /// Planner components on/off: full, single group, blind placement,
    /// `N_ah` ∈ {1, 2, 4}. Every row shares `baseline`.
    pub components: Vec<Row>,
    /// Run settings applied to both held plans: two-level exchange,
    /// serial / double-buffered rounds, 1 / 2 / 4 OST service slots.
    pub settings: Vec<Row>,
    /// Memory stddev 0.20 / 0.35 / 0.50.
    pub sigma: Vec<SigmaRow>,
}

fn ablation_setup() -> (Harness, CollectiveRequest) {
    let h = Harness::new(ClusterSpec::testbed_120(), 120, TESTBED_PPN, 0xAB1A);
    (h, Ior::paper(120, 32 * MIB, 8).request(Rw::Write))
}

/// Which of the memory-conscious design's components (DESIGN.md §5)
/// buys how much at nominal buffer `buf`.
///
/// * group division off → one aggregation group spanning all nodes;
/// * memory-aware placement off → blind first-candidate placement: the
///   group/partition structure survives but aggregators ignore memory;
/// * two-level exchange: on-node combining before the wire;
/// * double-buffered rounds overlap the next exchange with the current
///   file access at 2× the aggregator memory — exactly the optimization
///   memory pressure takes away;
/// * OST service slots: server-side concurrency absorbs queueing, so
///   the baseline's small-window imbalance hurts less.
pub fn ablation(buf: u64) -> Ablation {
    let (h, req) = ablation_setup();
    let tp = h.cell(Strategy::TwoPhase, &req, buf);
    let mc = h.cell(Strategy::MemoryConscious, &req, buf);
    let (tp_plan, mc_plan) = (tp.plan(), mc.plan());
    let baseline = tp.timing(&tp_plan).bandwidth_mibs;

    let component = |label: &str, cfg: CollectiveConfig| Row {
        label: label.to_string(),
        baseline,
        mc: Cell { cfg, ..mc.clone() }.measure().bandwidth_mibs,
    };
    let cfg = || mc.cfg.clone();
    let mut components = vec![
        Row {
            label: "memory-conscious (full)".to_string(),
            baseline,
            mc: mc.timing(&mc_plan).bandwidth_mibs,
        },
        component(
            "  without group division (single group)",
            cfg().msg_group(req.total_bytes()),
        ),
        component(
            "  without memory-aware placement (blind)",
            cfg().placement(PlacementPolicy::FirstCandidate),
        ),
    ];
    components.extend([1, 2, 4].map(|nah| component(&format!("  N_ah = {nah}"), cfg().nah(nah))));

    let setting = |label: String, spec: &ClusterSpec, pipeline, exchange| {
        let run = |cell: &Cell, plan| {
            let cell = Cell {
                spec,
                pipeline,
                exchange,
                ..cell.clone()
            };
            cell.timing(plan).bandwidth_mibs
        };
        Row {
            label,
            baseline: run(&tp, &tp_plan),
            mc: run(&mc, &mc_plan),
        }
    };
    let (serial, direct) = (Pipeline::Serial, Exchange::Direct);
    let mut settings = vec![
        setting(
            "  two-level exchange  ".into(),
            &h.spec,
            serial,
            Exchange::TwoLevel,
        ),
        setting(
            format!("  rounds {:<16}", "serial"),
            &h.spec,
            serial,
            direct,
        ),
        setting(
            format!("  rounds {:<16}", "double-buffered"),
            &h.spec,
            Pipeline::DoubleBuffered,
            direct,
        ),
    ];
    for slots in [1, 2, 4] {
        let spec = ClusterSpec {
            ost_concurrency: slots,
            ..h.spec.clone()
        };
        let label = format!("  OST service slots {slots}");
        settings.push(setting(label, &spec, serial, direct));
    }

    let sigma = [0.2, 0.35, 0.5].map(|stddev| {
        let gain = |k| {
            let mem = ProcMemory::normal(h.map.nranks(), buf, stddev, h.seed + k);
            let [baseline, mc] = [&tp, &mc].map(|cell| {
                let mem = mem.clone();
                Cell {
                    mem,
                    ..cell.clone()
                }
                .measure()
                .bandwidth_mibs
            });
            improvement_pct(baseline, mc)
        };
        SigmaRow {
            stddev,
            gains: (0..SIGMA_SEEDS).map(gain).collect(),
        }
    });
    Ablation {
        buffer: buf,
        baseline,
        components,
        settings,
        sigma: sigma.into(),
    }
}

/// Remerging under starved nodes: nodes 1 and 3 have 64 KiB free on
/// every rank, two-node groups pair each with a healthy neighbour, so
/// remerging (driven by `Mem_min`) can move the starved domains next
/// door. Under the normal draw every node has a viable host and
/// remerging is a no-op safety net. Returns the rows with
/// (`Mem_min = buf/2`) and without (`Mem_min = 0`) remerging.
pub fn remerging() -> [Row; 2] {
    let (h, req) = ablation_setup();
    let buf = 16 * MIB;
    let mut budgets = h.memories(buf).1.budgets().to_vec();
    for (rank, budget) in budgets.iter_mut().enumerate() {
        if matches!(rank / TESTBED_PPN, 1 | 3) {
            *budget = 64 * 1024;
        }
    }
    let env = ProcMemory::from_budgets(budgets);
    let per_two_nodes = req.total_bytes() / 5;
    let cfg = CollectiveConfig::with_buffer(buf)
        .nah(2)
        .msg_group(per_two_nodes)
        .msg_ind(per_two_nodes / 4);
    let bandwidth = |strategy, mem_min| {
        let cell = Cell {
            mem: env.clone(),
            cfg: cfg.clone().mem_min(mem_min),
            ..h.cell(strategy, &req, buf)
        };
        cell.measure().bandwidth_mibs
    };
    let baseline = bandwidth(Strategy::TwoPhase, buf / 2);
    [
        ("MC with remerging (Mem_min = buf/2)", buf / 2),
        ("MC without remerging (Mem_min = 0)", 0),
    ]
    .map(|(label, mem_min)| Row {
        label: label.to_string(),
        baseline,
        mc: bandwidth(Strategy::MemoryConscious, mem_min),
    })
}

/// Node counts of the scaling study.
pub const SCALING_NODES: [usize; 5] = [8, 16, 32, 64, 128];

/// One scale point: both strategies' timing reports.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Compute nodes (64 ranks each, 2 OSTs per node).
    pub nodes: usize,
    /// Total ranks.
    pub ranks: usize,
    /// Two-phase.
    pub tp: TimingReport,
    /// Memory-conscious.
    pub mc: TimingReport,
}

/// Beyond the paper's evaluation: the same IOR collective (8 MiB per
/// process, 4 MiB nominal buffer) on growing slices of the Table-1
/// 2018 exascale design, where memory per core is ~10 MB. `ppn` is
/// fixed at 64 (a manageable sub-job of the thousand-core nodes) and
/// storage is a proportional slice.
pub fn scaling(nodes: &[usize]) -> Vec<ScalePoint> {
    let point = |&nodes: &usize| {
        let ranks = nodes * 64;
        let spec = ClusterSpec {
            nodes,
            io_servers: nodes * 2,
            ..ClusterSpec::exascale_2018()
        };
        let h = Harness::new(spec, ranks, 64, 0x5CA1E);
        let req = Ior::paper(ranks, 8 * MIB, 4).request(Rw::Write);
        let [tp, mc] = Strategy::BOTH.map(|s| h.run_point(s, &req, 4 * MIB).timing);
        ScalePoint {
            nodes,
            ranks,
            tp,
            mc,
        }
    };
    nodes.iter().map(point).collect()
}

/// §3's empirical parameter determination, run against the machine
/// model: `(machine name, direction, tuned knobs)`.
pub fn tune() -> Vec<(String, Rw, TunedParams)> {
    let machines = [ClusterSpec::testbed_120(), ClusterSpec::small(4, 2)];
    let rows = machines.iter().flat_map(|spec| {
        [Rw::Write, Rw::Read].map(|rw| (spec.name.clone(), rw, tuner::tune(spec, rw)))
    });
    rows.collect()
}
