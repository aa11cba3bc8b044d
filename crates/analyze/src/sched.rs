//! Scheduler attribution for job-stream traces.
//!
//! `mcio-sched` records its decisions on the pid-6 scheduler lanes:
//! queue-depth occupancy intervals on lane 0, one span per dispatch on
//! lane 1 (args: nodes, wait, backfill), admission-control deferrals
//! on lane 2. This module lifts those lanes back into a structured
//! [`SchedSection`] so a report can answer *how deep did the queue
//! get, who jumped it, and who was held back* — the scheduling
//! counterpart to the pid-5 replan attribution.
//!
//! Traces from solo or multi-tenant runs carry no pid-6 spans, so
//! [`sched_section`] returns `None` and the report sections are
//! omitted entirely — the same conservative-extension contract every
//! optional section follows.

use crate::trace_model::{TraceModel, PID_SCHED};
use mcio_obs::Span;

/// One dispatch decision recovered from the pid-6 lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedDispatch {
    /// The dispatched job's name (the span name).
    pub job: String,
    /// Dispatch time, trace nanoseconds.
    pub start_ns: u64,
    /// Committed runtime, nanoseconds.
    pub dur_ns: u64,
    /// Machine nodes the job held.
    pub nodes: u64,
    /// Queue wait before dispatch, nanoseconds.
    pub wait_ns: u64,
    /// True when the job jumped a blocked queue head.
    pub backfill: bool,
}

/// Everything the scheduler lanes say about one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedSection {
    /// Peak pending-queue depth across the run.
    pub max_queue_depth: u64,
    /// Dispatches that jumped the queue under backfill.
    pub backfills: u64,
    /// Admission-control deferral events.
    pub admission_defers: u64,
    /// Every dispatch, ordered by dispatch time (ties by job name).
    pub dispatches: Vec<SchedDispatch>,
}

/// Lift the pid-6 scheduler lanes of a trace into a [`SchedSection`].
/// Returns `None` when the trace carries no scheduler lanes, so
/// non-scheduled reports stay byte-identical.
pub fn sched_section(model: &TraceModel) -> Option<SchedSection> {
    let spans = model.pid_spans(PID_SCHED);
    if spans.is_empty() {
        return None;
    }
    let arg_u64 = |s: &Span, key: &str| model.arg(s, key).and_then(|v| v.parse().ok()).unwrap_or(0);
    let cat = |s: &Span| model.text(s.cat);
    let max_queue_depth = spans
        .iter()
        .filter(|s| cat(s) == "queue")
        .map(|s| arg_u64(s, "depth"))
        .max()
        .unwrap_or(0);
    let admission_defers = spans.iter().filter(|s| cat(s) == "admission").count() as u64;
    let mut dispatches: Vec<SchedDispatch> = spans
        .iter()
        .filter(|s| cat(s) == "dispatch")
        .map(|s| SchedDispatch {
            job: model.text(s.name).to_string(),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            nodes: arg_u64(s, "nodes"),
            wait_ns: arg_u64(s, "wait_ns"),
            backfill: arg_u64(s, "backfill") == 1,
        })
        .collect();
    dispatches.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then_with(|| a.job.cmp(&b.job)));
    let backfills = dispatches.iter().filter(|d| d.backfill).count() as u64;
    Some(SchedSection {
        max_queue_depth,
        backfills,
        admission_defers,
        dispatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_model::{PID_RESOURCES, PID_SCHED};
    use mcio_obs::Trace;

    #[test]
    fn unscheduled_traces_yield_no_section() {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.span("io.rank0", "ost0", PID_RESOURCES, 0, 0, 1000);
        assert!(sched_section(&TraceModel::new(tc)).is_none());
    }

    #[test]
    fn lanes_lift_into_ordered_dispatches() {
        let mut tc = Trace::default();
        tc.name_lane(PID_SCHED);
        tc.name_thread(PID_SCHED, 0, "queue");
        tc.name_thread(PID_SCHED, 1, "dispatch");
        tc.name_thread(PID_SCHED, 2, "admission");
        tc.span_with_args("depth", "queue", PID_SCHED, 0, 0, 500, &[("depth", "3")]);
        tc.span_with_args("depth", "queue", PID_SCHED, 0, 500, 500, &[("depth", "1")]);
        // Emitted out of dispatch order; extraction sorts by start.
        tc.span_with_args(
            "late",
            "dispatch",
            PID_SCHED,
            1,
            700,
            300,
            &[("nodes", "2"), ("wait_ns", "700"), ("backfill", "0")],
        );
        tc.span_with_args(
            "early",
            "dispatch",
            PID_SCHED,
            1,
            0,
            400,
            &[("nodes", "4"), ("wait_ns", "0"), ("backfill", "1")],
        );
        tc.span_with_args(
            "late",
            "admission",
            PID_SCHED,
            2,
            500,
            1,
            &[("slowdown", "5.500000")],
        );
        let s = sched_section(&TraceModel::new(tc)).expect("section present");
        assert_eq!(s.max_queue_depth, 3);
        assert_eq!(s.admission_defers, 1);
        assert_eq!(s.backfills, 1);
        assert_eq!(s.dispatches.len(), 2);
        assert_eq!(s.dispatches[0].job, "early");
        assert!(s.dispatches[0].backfill);
        assert_eq!(s.dispatches[1].job, "late");
        assert_eq!(s.dispatches[1].wait_ns, 700);
    }

    #[test]
    fn round_trips_through_chrome_json() {
        let mut tc = Trace::default();
        tc.name_lane(PID_SCHED);
        tc.name_thread(PID_SCHED, 1, "dispatch");
        tc.span_with_args(
            "alpha",
            "dispatch",
            PID_SCHED,
            1,
            100,
            900,
            &[("nodes", "8"), ("wait_ns", "100"), ("backfill", "0")],
        );
        let json = tc.to_chrome_json();
        let model = TraceModel::from_chrome_json(&json).expect("parse");
        let s = sched_section(&model).expect("section survives the round trip");
        assert_eq!(s.dispatches.len(), 1);
        assert_eq!(s.dispatches[0].nodes, 8);
        assert_eq!(s.dispatches[0].start_ns, 100);
    }
}
