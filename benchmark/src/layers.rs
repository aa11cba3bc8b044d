//! The per-layer table of a traced run: span self times, allocator
//! deltas and the op's deterministic counts, reduced to one value per
//! metric of `BENCHMARK.json`'s `per_layer` list. Every workload reports
//! every metric; a layer the workload does not reach reads 0.
//!
//! `_ms` values are self time per unit (op or set-up pass), median over
//! the traced units. Units `count`, `bytes`, `sim_ns` and `x` mark
//! numbers that must repeat bit for bit between two runs of one commit
//! (see `compare`).

use crate::results::{Metric, Metrics, Section};
use crate::spans::UnitSums;
use crate::stats::median;
use crate::workloads::Counts;
use std::collections::BTreeMap;

const MIB: f64 = (1 << 20) as f64;

/// Units whose values are deterministic and compared for equality.
pub const EXACT_UNITS: [&str; 4] = ["count", "bytes", "sim_ns", "x"];

/// The `op.*` noise indicators of the timed run's samples, which the
/// traced run repeats beside its phase table.
const NOISE: [&str; 4] = [
    "op.wall_ms_min",
    "op.wall_ms_p90",
    "op.iqr_frac",
    "op.samples",
];

/// The cells whose simulated elapsed time is reported.
const CELLS: [&str; 8] = [
    "fig6-tp",
    "fig6-mc",
    "exa-mc-fifo",
    "exa-mc-fair",
    "exa-tp-fair",
    "fig8-tp",
    "fig8-mc",
    "fig8-mc-read-faulted",
];

struct Table<'a> {
    units: &'a [UnitSums],
    counts: &'a Counts,
    out: Metrics,
}

impl Table<'_> {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        let metric = Metric {
            value,
            unit: unit.to_string(),
        };
        assert!(
            self.out.insert(name.to_string(), metric).is_none(),
            "metric `{name}` reported twice"
        );
    }

    /// Median, over the units that ran any of `spans`, of their summed
    /// self time in milliseconds (0 when no unit ran one).
    fn self_ms(&self, spans: &[&str]) -> f64 {
        let per_unit: Vec<f64> = self
            .units
            .iter()
            .filter(|u| spans.iter().any(|s| u.self_ns.contains_key(s)))
            .map(|u| {
                let ns: u64 = spans.iter().filter_map(|s| u.self_ns.get(s)).sum();
                ns as f64 / 1e6
            })
            .collect();
        if per_unit.is_empty() {
            0.0
        } else {
            median(&per_unit)
        }
    }

    fn ms(&mut self, name: &str, spans: &[&str]) -> f64 {
        let v = self.self_ms(spans);
        self.put(name, v, "ms");
        v
    }

    /// A deterministic count of the op, under its own name.
    fn count(&mut self, name: &str, unit: &str) -> u64 {
        let v = self.counts.get(name).copied().unwrap_or(0);
        self.put(name, v as f64, unit);
        v
    }

    /// Median over the ops of the allocations (and bytes) made inside
    /// spans of `layer` — span names that are `layer` or start `layer.`.
    fn allocs(&self, layers: &[&str]) -> (f64, f64) {
        let in_layer = |name: &str| {
            layers.iter().any(|l| {
                name.strip_prefix(l)
                    .is_some_and(|r| r.is_empty() || r.starts_with('.'))
            })
        };
        let ops = self.units.iter().filter(|u| u.root == "op");
        let (allocs, bytes): (Vec<f64>, Vec<f64>) = ops
            .map(|u| {
                let sum = |m: &BTreeMap<&'static str, u64>| {
                    m.iter()
                        .filter(|(n, _)| in_layer(n))
                        .map(|(_, v)| *v)
                        .sum::<u64>() as f64
                };
                (sum(&u.self_allocs), sum(&u.self_alloc_bytes))
            })
            .unzip();
        (median(&allocs), median(&bytes))
    }
}

/// Build the per-layer metrics from the traced units (at least one op),
/// the op's counts, the timed reference section of the same workload
/// and seed, and the allocator's peak of live bytes.
pub fn per_layer(
    units: &[UnitSums],
    counts: &Counts,
    reference: &Section,
    peak_live_bytes: u64,
) -> Metrics {
    let mut t = Table {
        units,
        counts,
        out: Metrics::new(),
    };

    t.ms("workloads.gen_ms", &["workloads.gen"]);
    t.count("workloads.extents", "count");
    t.ms("cluster.harness_ms", &["cluster.harness"]);

    t.ms("plan.tp_ms", &["plan.tp"]);
    t.ms("plan.mc_ms", &["plan.mc"]);
    t.ms("plan.drop_ms", &["plan.drop"]);
    let (plan_allocs, plan_bytes) = t.allocs(&["plan"]);
    t.put("plan.allocs", plan_allocs, "count");
    t.put("plan.alloc_mib", plan_bytes / MIB, "MiB");
    for name in [
        "plan.ptree_leaves",
        "plan.remerges",
        "plan.relaxations",
        "plan.aggregators",
        "plan.rounds",
    ] {
        t.count(name, "count");
    }

    t.ms("exec_sim.sim_ms", &["exec_sim.sim"]);
    t.ms("exec_sim.lower_ms", &["exec_sim.lower"]);
    t.ms("exec_sim.trace_emit_ms", &["exec_sim.trace_emit"]);
    t.count("exec_sim.activities", "count");
    let (sim_allocs, _) = t.allocs(&["exec_sim", "faults"]);
    t.put("exec_sim.allocs", sim_allocs, "count");

    let des_ms = t.ms("des.run_ms", &["des.run.fifo", "des.run.fair"]);
    t.ms("des.run_ms.fifo", &["des.run.fifo"]);
    t.ms("des.run_ms.fair", &["des.run.fair"]);
    t.count("des.events_scheduled", "count");
    let fired = t.count("des.events_fired", "count");
    t.count("des.events_cancelled", "count");
    t.count("des.heap_high_water", "count");
    t.count("des.ready_high_water", "count");
    t.count("des.resources", "count");
    t.put("des.events_per_s", per_second(fired, des_ms), "1/s");

    t.count("pfs.requests", "count");
    t.count("pfs.req_bytes", "bytes");

    t.ms("faults.sim_ms", &["faults.sim"]);
    t.count("faults.failovers", "count");
    t.count("faults.retries", "count");

    t.count("obs.trace_bytes", "bytes");

    t.ms("analyze.parse_ms", &["analyze.parse"]);
    t.ms("analyze.report_ms", &["analyze.report"]);
    t.ms("analyze.timeline_ms", &["analyze.timeline"]);
    t.ms("analyze.drop_ms", &["analyze.drop"]);
    t.count("analyze.spans", "count");
    let (analyze_allocs, _) = t.allocs(&["analyze"]);
    t.put("analyze.allocs", analyze_allocs, "count");

    t.ms("sched.parse_ms", &["sched.parse"]);
    let fcfs_ms = t.ms("sched.run_ms.fcfs", &["sched.run.fcfs"]);
    let backfill_ms = t.ms("sched.run_ms.backfill", &["sched.run.backfill"]);
    t.ms("sched.render_ms", &["sched.render"]);
    t.count("sched.dispatches", "count");
    t.count("sched.backfills", "count");
    t.count("sched.max_queue_depth", "count");
    let jobs = counts.get("sched.jobs").copied().unwrap_or(0);
    t.put(
        "sched.jobs_per_s",
        per_second(jobs, fcfs_ms + backfill_ms),
        "1/s",
    );
    let (sched_allocs, _) = t.allocs(&["sched"]);
    t.put("sched.allocs", sched_allocs, "count");

    // The whole op: noise of the timed samples, attribution and
    // allocation of the traced ones.
    for name in NOISE {
        let m = reference
            .metrics
            .get(name)
            .expect("timed section holds the noise indicators");
        t.put(name, m.value, &m.unit);
    }
    let ops: Vec<&UnitSums> = units.iter().filter(|u| u.root == "op").collect();
    let structural = |u: &UnitSums| -> u64 {
        u.self_ns
            .iter()
            .filter(|(n, _)| **n == "op" || n.starts_with("cell."))
            .map(|(_, v)| *v)
            .sum()
    };
    let unattributed: Vec<f64> = ops
        .iter()
        .map(|u| structural(u) as f64 / u.wall_ns.max(1) as f64)
        .collect();
    t.put("op.unattributed_frac", median(&unattributed), "frac");
    let of_ops =
        |f: fn(&UnitSums) -> u64| median(&ops.iter().map(|u| f(u) as f64).collect::<Vec<_>>());
    t.put("op.allocs", of_ops(|u| u.allocs), "count");
    t.put("op.alloc_mib", of_ops(|u| u.alloc_bytes) / MIB, "MiB");
    t.put("op.peak_live_mib", peak_live_bytes as f64 / MIB, "MiB");
    let traced_p50_ms = of_ops(|u| u.wall_ns) / 1e6;
    let untraced_p50_ms = reference
        .value("op_wall_ms_p50")
        .expect("timed section holds the median");
    t.put(
        "trace.overhead_frac",
        traced_p50_ms / untraced_p50_ms - 1.0,
        "frac",
    );

    // Simulated results: identical between two commits unless the PR
    // says it changes the model.
    for cell in CELLS {
        t.count(&format!("sim.elapsed_ns.{cell}"), "sim_ns");
    }
    for fig in ["fig6", "fig8"] {
        let ns = |s: &str| counts.get(&format!("sim.elapsed_ns.{fig}-{s}")).copied();
        let speedup = match (ns("tp"), ns("mc")) {
            (Some(tp), Some(mc)) if mc > 0 => tp as f64 / mc as f64,
            _ => 0.0,
        };
        t.put(&format!("sim.mc_speedup.{fig}"), speedup, "x");
    }
    t.count("sim.makespan_ns.fcfs", "sim_ns");
    t.count("sim.makespan_ns.backfill", "sim_ns");
    t.out
}

fn per_second(n: u64, ms: f64) -> f64 {
    if ms > 0.0 {
        n as f64 / (ms / 1e3)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(root: &'static str, wall_ns: u64, self_ns: &[(&'static str, u64)]) -> UnitSums {
        UnitSums {
            root,
            wall_ns,
            self_ns: self_ns.iter().copied().collect(),
            ..UnitSums::default()
        }
    }

    fn reference() -> Section {
        let mut s = Section::default();
        for (name, value, unit) in [
            ("op_wall_ms_p50", 2.0, "ms"),
            ("op.wall_ms_min", 1.9, "ms"),
            ("op.wall_ms_p90", 2.4, "ms"),
            ("op.iqr_frac", 0.1, "frac"),
            ("op.samples", 12.0, "ops"),
        ] {
            s.metrics.insert(
                name.into(),
                Metric {
                    value,
                    unit: unit.into(),
                },
            );
        }
        s
    }

    #[test]
    fn every_workload_reports_exactly_the_committed_per_layer_list() {
        let units = [unit("op", 1000, &[("op", 1000)])];
        let got: Vec<(String, String)> = per_layer(&units, &Counts::new(), &reference(), 0)
            .into_iter()
            .map(|(name, m)| (name, m.unit))
            .collect();
        let mut committed = crate::spec::committed().per_layer;
        committed.sort();
        assert_eq!(got, committed);
    }

    #[test]
    fn phase_table_takes_medians_over_units_and_prices_the_residual() {
        let units = [
            unit("setup", 900, &[("setup", 100), ("workloads.gen", 800)]),
            unit("setup", 700, &[("setup", 100), ("workloads.gen", 600)]),
            unit("setup", 800, &[("setup", 100), ("workloads.gen", 700)]),
            unit(
                "op",
                3_000_000,
                &[
                    ("op", 10_000),
                    ("cell.a", 20_000),
                    ("plan.mc", 1_970_000),
                    ("des.run.fifo", 600_000),
                    ("des.run.fair", 400_000),
                ],
            ),
        ];
        let mut counts = Counts::new();
        counts.insert("des.events_fired".into(), 5_000);
        counts.insert("sim.elapsed_ns.fig6-tp".into(), 300);
        counts.insert("sim.elapsed_ns.fig6-mc".into(), 200);
        let m = per_layer(&units, &counts, &reference(), 3 << 20);
        let v = |name: &str| m[name].value;
        assert_eq!(
            v("workloads.gen_ms"),
            700.0 / 1e6,
            "median of the set-up passes"
        );
        assert_eq!(v("plan.mc_ms"), 1.97);
        assert_eq!(
            v("plan.tp_ms"),
            0.0,
            "a layer the workload does not reach reads 0"
        );
        assert_eq!(v("des.run_ms"), 1.0);
        assert_eq!((v("des.run_ms.fifo"), v("des.run_ms.fair")), (0.6, 0.4));
        assert_eq!(v("des.events_per_s"), 5_000.0 / 1e-3);
        assert_eq!(
            v("op.unattributed_frac"),
            0.01,
            "op and cell self time over op wall"
        );
        assert_eq!(
            v("trace.overhead_frac"),
            0.5,
            "3 ms traced over 2 ms untraced"
        );
        assert_eq!(v("sim.mc_speedup.fig6"), 1.5);
        assert_eq!(v("sim.mc_speedup.fig8"), 0.0);
        assert_eq!(v("op.peak_live_mib"), 3.0);
        assert_eq!(
            (v("op.samples"), m["op.samples"].unit.as_str()),
            (12.0, "ops")
        );
    }
}
