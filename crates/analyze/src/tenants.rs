//! Per-tenant interference attribution for multi-tenant traces.
//!
//! A multi-tenant run tags every activity label with its job prefix
//! (`j0.msg.3->5`, `j1.io.2`, ...) and adds one pid-4 lane per job
//! holding a `j<N>.window` span over the job's active interval. This
//! module splits each job's window into three disjoint buckets:
//!
//! * **self** — some machine resource is busy serving *this* job;
//! * **cross** — no resource serves this job, but at least one serves
//!   *another* job (the signature of cross-job contention: the job is
//!   stalled while a tenant it shares OSTs or links with is served);
//! * **idle** — no resource serves anyone (dependency stalls internal
//!   to the job, or the gap before a staggered start... which is why
//!   the window starts at the job's release, not at time zero).
//!
//! The three buckets partition the window exactly:
//! `self_ns + cross_ns + idle_ns == end_ns - start_ns`.
//!
//! Traces from solo runs carry no pid-4 lanes and yield an empty
//! attribution, so every existing report is byte-identical.

use crate::trace_model::{TraceModel, PID_ROUNDS, PID_TENANTS};
use mcio_obs::intervals::{intersect_len, merge_intervals, total_len};

/// One job's interference attribution, extracted from the trace alone.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPath {
    /// The job's pid-4 lane id (its index in the run's job list).
    pub tid: u64,
    /// Job label from the window span's `job` arg.
    pub job: String,
    /// Strategy label from the window span's `strategy` arg
    /// (`two-phase` / `memory-conscious`).
    pub strategy: String,
    /// Window start (the job's release time), nanoseconds.
    pub start_ns: u64,
    /// Window end (the job's last attributed activity), nanoseconds.
    pub end_ns: u64,
    /// Window time with a resource busy on this job's own activities.
    pub self_ns: u64,
    /// Window time with no resource on this job but at least one busy
    /// on another job — cross-tenant contention.
    pub cross_ns: u64,
    /// Window time with no tenant being served at all.
    pub idle_ns: u64,
    /// Slowdown vs. the job's solo run, parsed from the span args.
    pub slowdown: Option<f64>,
    /// Fraction of the job's OST service time overlapping other
    /// tenants, parsed from the span args.
    pub ost_overlap: Option<f64>,
    /// Name of the job's critical round chain (the pid-2 lane with
    /// this job's prefix that finishes last), when one exists.
    pub critical_lane: Option<String>,
}

impl TenantPath {
    /// `self_ns / window` — how much of the job's wall time its own
    /// service explains.
    pub fn self_fraction(&self) -> f64 {
        fraction(self.self_ns, self.end_ns - self.start_ns)
    }

    /// `cross_ns / window` — the cross-tenant contention share.
    pub fn cross_fraction(&self) -> f64 {
        fraction(self.cross_ns, self.end_ns - self.start_ns)
    }
}

fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The job index encoded in an activity label: `j3.io.1` → `Some(3)`.
/// Labels without a `j<digits>.` prefix (solo runs, unprefixed
/// internals) yield `None`.
pub(crate) fn job_of(label: &str) -> Option<u64> {
    let rest = label.strip_prefix('j')?;
    let digits = rest.split('.').next()?;
    if digits.is_empty() || rest.len() == digits.len() {
        return None; // no '.' after the digits
    }
    digits.parse().ok()
}

/// Clip a sorted disjoint interval set to `[lo, hi)`.
fn clip(intervals: &[(u64, u64)], lo: u64, hi: u64) -> Vec<(u64, u64)> {
    intervals
        .iter()
        .filter(|&&(s, e)| e > lo && s < hi)
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .collect()
}

/// Attribute every tenant window in `model` into self / cross / idle.
/// Returns one [`TenantPath`] per pid-4 lane, in lane (= job) order;
/// empty for traces without tenant lanes.
pub fn tenant_paths(model: &TraceModel) -> Vec<TenantPath> {
    let busy_of = &model.job_busy;
    let mut out = Vec::new();
    for lane in model.lanes(PID_TENANTS) {
        let tid = lane.tid;
        let window = &model.lane_spans(lane)[0];
        let (start_ns, end_ns) = (window.start_ns, window.end_ns());
        let arg = |key: &str| model.arg(window, key);

        let own = busy_of
            .get(&tid)
            .map_or_else(Vec::new, |b| clip(b, start_ns, end_ns));
        let others: Vec<(u64, u64)> = merge_intervals(
            busy_of
                .iter()
                .filter(|(&ji, _)| ji != tid)
                .flat_map(|(_, b)| clip(b, start_ns, end_ns))
                .collect(),
        );
        let self_ns = total_len(&own);
        let cross_ns = total_len(&others) - intersect_len(&own, &others);
        let idle_ns = (end_ns - start_ns) - self_ns - cross_ns;

        // The job's critical chain: among pid-2 lanes carrying this
        // job's prefix, the one whose last span ends latest.
        let critical_lane = model
            .lanes(PID_ROUNDS)
            .iter()
            .filter(|l| model.lane_job(l) == Some(tid))
            .filter_map(|l| Some((l.end_ns, model.lane_name(l)?)))
            .max_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.cmp(a.1)))
            .map(|(_, name)| name.to_string());

        out.push(TenantPath {
            tid,
            job: arg("job").unwrap_or_default().to_string(),
            strategy: arg("strategy").unwrap_or_default().to_string(),
            start_ns,
            end_ns,
            self_ns,
            cross_ns,
            idle_ns,
            slowdown: arg("slowdown").and_then(|v| v.parse().ok()),
            ost_overlap: arg("ost_overlap").and_then(|v| v.parse().ok()),
            critical_lane,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_model::PID_RESOURCES;
    use mcio_obs::Trace;

    fn tenant_trace() -> TraceModel {
        let mut tc = Trace::default();
        // Two jobs share one OST; j1 starts at 400 and is blocked by
        // j0's service until 600.
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.span("j0.io.0", "ost0", PID_RESOURCES, 0, 0, 600);
        tc.span("j1.io.0", "ost0", PID_RESOURCES, 0, 600, 300);
        tc.name_thread(PID_ROUNDS, 0, "j0.chain0 (group 0)");
        tc.name_thread(PID_ROUNDS, 1, "j1.chain0 (group 0)");
        tc.span("r0.io", "io", PID_ROUNDS, 0, 0, 600);
        tc.span("r0.io", "io", PID_ROUNDS, 1, 600, 300);
        tc.name_lane(PID_TENANTS);
        tc.name_thread(PID_TENANTS, 0, "j0 alpha");
        tc.name_thread(PID_TENANTS, 1, "j1 beta");
        tc.span_with_args(
            "j0.window",
            "tenant",
            PID_TENANTS,
            0,
            0,
            600,
            &[
                ("job", "alpha"),
                ("strategy", "memory-conscious"),
                ("slowdown", "1.000000"),
                ("ost_overlap", "0.000000"),
            ],
        );
        tc.span_with_args(
            "j1.window",
            "tenant",
            PID_TENANTS,
            1,
            400,
            500,
            &[
                ("job", "beta"),
                ("strategy", "two-phase"),
                ("slowdown", "1.500000"),
                ("ost_overlap", "0.250000"),
            ],
        );
        TraceModel::new(tc)
    }

    #[test]
    fn buckets_partition_each_window() {
        let paths = tenant_paths(&tenant_trace());
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(
                p.self_ns + p.cross_ns + p.idle_ns,
                p.end_ns - p.start_ns,
                "buckets must partition the window for {}",
                p.job
            );
        }

        // j0 is served for its entire window.
        assert_eq!(paths[0].job, "alpha");
        assert_eq!(
            (paths[0].self_ns, paths[0].cross_ns, paths[0].idle_ns),
            (600, 0, 0)
        );
        assert_eq!(paths[0].slowdown, Some(1.0));
        assert_eq!(
            paths[0].critical_lane.as_deref(),
            Some("j0.chain0 (group 0)")
        );

        // j1 waits 200 ns behind j0's service, then is served 300 ns.
        assert_eq!(paths[1].job, "beta");
        assert_eq!(
            (paths[1].self_ns, paths[1].cross_ns, paths[1].idle_ns),
            (300, 200, 0)
        );
        assert!((paths[1].cross_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(paths[1].slowdown, Some(1.5));
        assert_eq!(paths[1].ost_overlap, Some(0.25));
        assert_eq!(paths[1].strategy, "two-phase");
    }

    #[test]
    fn solo_traces_have_no_tenant_paths() {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.span("io.0", "ost0", PID_RESOURCES, 0, 0, 500);
        assert!(tenant_paths(&TraceModel::new(tc)).is_empty());
    }

    #[test]
    fn job_prefix_parsing() {
        assert_eq!(job_of("j0.io.3"), Some(0));
        assert_eq!(job_of("j12.msg.0->1"), Some(12));
        assert_eq!(job_of("io.3"), None);
        assert_eq!(job_of("j.io"), None);
        assert_eq!(job_of("j7"), None, "bare prefix without a dot");
        assert_eq!(job_of("join.x"), None, "non-digit after j");
    }

    #[test]
    fn idle_gap_before_any_service() {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.span("j0.io.0", "ost0", PID_RESOURCES, 0, 300, 200);
        tc.name_lane(PID_TENANTS);
        tc.name_thread(PID_TENANTS, 0, "j0 solo");
        tc.span_with_args(
            "j0.window",
            "tenant",
            PID_TENANTS,
            0,
            0,
            500,
            &[("job", "solo"), ("strategy", "two-phase")],
        );
        let paths = tenant_paths(&TraceModel::new(tc));
        assert_eq!(paths.len(), 1);
        assert_eq!(
            (paths[0].self_ns, paths[0].cross_ns, paths[0].idle_ns),
            (200, 0, 300)
        );
        assert_eq!(paths[0].slowdown, None, "missing args stay None");
        assert_eq!(paths[0].critical_lane, None);
    }
}
