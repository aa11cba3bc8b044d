//! Differential run attribution: *why* is run B slower than run A?
//!
//! [`diff_models`] compares two traces through the same lenses the
//! single-run analyzer uses — critical-path buckets, utilization
//! timelines, straggler sets — and reports only what *changed*. Two
//! byte-identical runs diff to an exactly empty [`RunDiff`]
//! ([`RunDiff::is_empty`] is `true` and [`RunDiff::to_text`] renders
//! `""`), which is what the CLI's determinism smoke checks assert: the
//! sweep engine must produce the same runs at any `--jobs`, so their
//! diff must be empty bytes.
//!
//! Both runs are bucketed with one shared width
//! (`default_bucket_ns(max(elapsed_a, elapsed_b))`) so timeline deltas
//! compare like with like even when the runs' makespans differ.

use crate::critical_path::CriticalPath;
use crate::stragglers::{stragglers, Straggler};
use crate::timeline::{default_bucket_ns, timeline, Timeline};
use crate::trace_model::TraceModel;
use std::fmt::Write as _;

/// Per-series utilization change between two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesDelta {
    /// Series key (`storage`, `ost3`, `j0`...).
    pub key: String,
    /// Signed change of the series' total busy time, B − A.
    pub total_delta_ns: i64,
    /// Largest per-bucket change by magnitude, signed.
    pub max_delta_ns: i64,
    /// Index of that bucket (under the shared bucket width).
    pub bucket: usize,
}

/// Everything that differs between two runs. Empty for identical runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Elapsed simulated time of run A, nanoseconds.
    pub elapsed_a_ns: u64,
    /// Elapsed simulated time of run B, nanoseconds.
    pub elapsed_b_ns: u64,
    /// Shared timeline bucket width used for the series deltas.
    pub bucket_ns: u64,
    /// Non-zero critical-path bucket changes, B − A, in canonical
    /// bucket order.
    pub bucket_deltas: Vec<(&'static str, i64)>,
    /// Non-zero utilization series changes, in run-A series order with
    /// run-B-only series appended.
    pub timeline_deltas: Vec<SeriesDelta>,
    /// Stragglers present in B but not A (one `describe()` line each).
    pub stragglers_added: Vec<String>,
    /// Stragglers present in A but not B (identified by kind + name).
    pub stragglers_removed: Vec<String>,
}

impl RunDiff {
    /// True when the two runs are indistinguishable through every lens.
    pub fn is_empty(&self) -> bool {
        self.elapsed_a_ns == self.elapsed_b_ns
            && self.bucket_deltas.is_empty()
            && self.timeline_deltas.is_empty()
            && self.stragglers_added.is_empty()
            && self.stragglers_removed.is_empty()
    }

    /// Terminal rendering: one line per change, the empty string for
    /// identical runs.
    pub fn to_text(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        let dms = |ns: i64| ns as f64 / 1e6;
        let mut out = String::new();
        if self.elapsed_a_ns != self.elapsed_b_ns {
            let pct = if self.elapsed_a_ns == 0 {
                0.0
            } else {
                (self.elapsed_b_ns as f64 / self.elapsed_a_ns as f64 - 1.0) * 100.0
            };
            let _ = writeln!(
                out,
                "elapsed: {:.3} ms -> {:.3} ms ({pct:+.1}%)",
                ms(self.elapsed_a_ns),
                ms(self.elapsed_b_ns)
            );
        }
        for &(label, delta) in &self.bucket_deltas {
            let _ = writeln!(out, "critical_path[{label}]: {:+.3} ms", dms(delta));
        }
        for d in &self.timeline_deltas {
            let _ = writeln!(
                out,
                "timeline[{}]: total {:+.3} ms, peak {:+.3} ms at bucket {}",
                d.key,
                dms(d.total_delta_ns),
                dms(d.max_delta_ns),
                d.bucket
            );
        }
        for s in &self.stragglers_added {
            let _ = writeln!(out, "straggler added: {s}");
        }
        for s in &self.stragglers_removed {
            let _ = writeln!(out, "straggler removed: {s}");
        }
        out
    }
}

/// Non-zero critical-path bucket deltas (B − A), canonical order.
/// Public so document-level diffs (two `mcio.analyze.v1` reports,
/// which carry buckets but no spans) can reuse the same comparison.
pub fn diff_critical_paths(a: &CriticalPath, b: &CriticalPath) -> Vec<(&'static str, i64)> {
    a.buckets()
        .into_iter()
        .zip(b.buckets())
        .filter_map(|((label, va), (_, vb))| {
            let delta = vb as i64 - va as i64;
            (delta != 0).then_some((label, delta))
        })
        .collect()
}

/// Per-series utilization deltas between two timelines that share a
/// bucket width. Series missing on one side compare against zero.
fn series_deltas(ta: &Timeline, tb: &Timeline) -> Vec<SeriesDelta> {
    let mut keys: Vec<&str> = ta.series.iter().map(|s| s.key.as_str()).collect();
    for s in &tb.series {
        if !keys.contains(&s.key.as_str()) {
            keys.push(&s.key);
        }
    }
    let empty: Vec<u64> = Vec::new();
    let mut out = Vec::new();
    for key in keys {
        let va = ta.get(key).map_or(&empty, |s| &s.busy_ns);
        let vb = tb.get(key).map_or(&empty, |s| &s.busy_ns);
        let buckets = va.len().max(vb.len());
        let mut total = 0i64;
        let (mut max_delta, mut max_bucket) = (0i64, 0usize);
        for i in 0..buckets {
            let a = va.get(i).copied().unwrap_or(0) as i64;
            let b = vb.get(i).copied().unwrap_or(0) as i64;
            let d = b - a;
            total += d;
            if d.abs() > max_delta.abs() {
                max_delta = d;
                max_bucket = i;
            }
        }
        if total != 0 || max_delta != 0 {
            out.push(SeriesDelta {
                key: key.to_string(),
                total_delta_ns: total,
                max_delta_ns: max_delta,
                bucket: max_bucket,
            });
        }
    }
    out
}

/// Set-difference of straggler findings, keyed by kind + name. Entries
/// of `from` with no counterpart in `against` render via `describe()`.
fn straggler_changes(from: &[Straggler], against: &[Straggler]) -> Vec<String> {
    from.iter()
        .filter(|s| !against.iter().any(|o| o.kind == s.kind && o.name == s.name))
        .map(Straggler::describe)
        .collect()
}

/// Diff two runs (see module docs). Identical traces yield an empty
/// diff; the comparison itself is deterministic, so the rendering is
/// byte-stable.
pub fn diff_models(a: &TraceModel, b: &TraceModel) -> RunDiff {
    let cp_a = crate::critical_path::critical_path(a);
    let cp_b = crate::critical_path::critical_path(b);
    let bucket_ns = default_bucket_ns(a.makespan_ns().max(b.makespan_ns()));
    let ta = timeline(a, bucket_ns);
    let tb = timeline(b, bucket_ns);
    let sa = stragglers(a);
    let sb = stragglers(b);
    RunDiff {
        elapsed_a_ns: a.makespan_ns(),
        elapsed_b_ns: b.makespan_ns(),
        bucket_ns,
        bucket_deltas: diff_critical_paths(&cp_a, &cp_b),
        timeline_deltas: series_deltas(&ta, &tb),
        stragglers_added: straggler_changes(&sb, &sa),
        stragglers_removed: straggler_changes(&sa, &sb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_model::{PID_RESOURCES, PID_ROUNDS};
    use mcio_obs::Trace;

    fn base() -> Trace {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "node0.nic_tx");
        tc.name_thread(PID_RESOURCES, 1, "ost0");
        tc.name_thread(PID_ROUNDS, 0, "chain0");
        tc.span("msg.node0->rank1", "node0.nic_tx", PID_RESOURCES, 0, 0, 400);
        tc.span("io.rank1", "ost0", PID_RESOURCES, 1, 400, 600);
        tc.span("r0.exchange", "exchange", PID_ROUNDS, 0, 0, 400);
        tc.span("r0.io", "io", PID_ROUNDS, 0, 400, 600);
        tc
    }

    #[test]
    fn identical_runs_diff_to_nothing() {
        let a = TraceModel::new(base());
        let b = TraceModel::new(base());
        let d = diff_models(&a, &b);
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(d.to_text(), "");
    }

    #[test]
    fn slower_io_shows_bucket_and_timeline_deltas() {
        let a = TraceModel::new(base());
        let mut tc = base();
        // Run B: one extra OST service interval stretches the run.
        tc.span("io.rank1", "ost0", PID_RESOURCES, 1, 1000, 200);
        tc.span("r1.io", "io", PID_ROUNDS, 0, 1000, 200);
        let b = TraceModel::new(tc);
        let d = diff_models(&a, &b);
        assert!(!d.is_empty());
        assert_eq!(d.elapsed_a_ns, 1000);
        assert_eq!(d.elapsed_b_ns, 1200);
        assert!(
            d.bucket_deltas.contains(&("ost_io", 200)),
            "{:?}",
            d.bucket_deltas
        );
        let storage = d
            .timeline_deltas
            .iter()
            .find(|s| s.key == "storage")
            .expect("storage delta");
        assert_eq!(storage.total_delta_ns, 200);
        let text = d.to_text();
        assert!(
            text.contains("elapsed: 0.001 ms -> 0.001 ms (+20.0%)"),
            "{text}"
        );
        assert!(text.contains("critical_path[ost_io]:"), "{text}");
    }

    #[test]
    fn straggler_set_changes_are_reported() {
        // Run A: three uniform OSTs. Run B: ost2 is 4x slower.
        let mk = |slow: bool| {
            let mut tc = Trace::default();
            for i in 0..3u64 {
                tc.name_thread(PID_RESOURCES, i, &format!("ost{i}"));
            }
            tc.span("a", "c", PID_RESOURCES, 0, 0, 1000);
            tc.span("b", "c", PID_RESOURCES, 1, 0, 1000);
            tc.span(
                "c",
                "c",
                PID_RESOURCES,
                2,
                0,
                if slow { 4000 } else { 1000 },
            );
            TraceModel::new(tc)
        };
        let d = diff_models(&mk(false), &mk(true));
        assert_eq!(d.stragglers_added.len(), 1, "{d:?}");
        assert!(d.stragglers_added[0].contains("ost ost2"));
        assert!(d.stragglers_removed.is_empty());
        let back = diff_models(&mk(true), &mk(false));
        assert_eq!(back.stragglers_removed.len(), 1);
        let text = d.to_text();
        assert!(text.contains("straggler added: ost ost2"), "{text}");
    }

    #[test]
    fn series_only_in_one_run_compares_against_zero() {
        let a = TraceModel::new(base());
        let mut tc = base();
        tc.name_thread(PID_RESOURCES, 2, "node0.membus");
        tc.span("copy", "node0.membus", PID_RESOURCES, 2, 100, 50);
        let b = TraceModel::new(tc);
        let d = diff_models(&a, &b);
        let mem = d
            .timeline_deltas
            .iter()
            .find(|s| s.key == "memory")
            .expect("memory appears only in B");
        assert_eq!(mem.total_delta_ns, 50);
    }
}
