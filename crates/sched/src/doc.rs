//! The byte-stable `mcio.schedule.v1` document.
//!
//! [`write_schedule`] lays a [`Schedule`] out through the one document
//! writer of `mcio-obs` — fixed key order, `{:.6}` floats, no map
//! iteration — so the bytes are a pure function of the schedule and any
//! worker-thread fan-out reproduces them exactly; [`render_schedule`]
//! is that block as a document of its own. [`parse_schedule`] reads one
//! back through the typed reader, taking only the keys it knows and
//! ignoring unknown ones, the same forward-compatibility convention
//! `mcio.analyze.v1` follows.

use crate::scheduler::Schedule;
use mcio_obs::doc::{Reader, Writer};
use mcio_obs::json;

/// The schema stamp of a schedule document.
const SCHEMA: &str = "mcio.schedule.v1";

/// Write the members of an `mcio.schedule.v1` object into the block
/// `w` is positioned in: the root of a document, or one cell of
/// `mcio.scheduler_suite.v1`.
pub fn write_schedule(w: &mut Writer, s: &Schedule) {
    w.schema(SCHEMA);
    w.text("machine", &s.machine);
    w.uint("machine_nodes", s.machine_nodes as u64);
    w.text("policy", s.policy.label());
    w.flag("admission", s.admission);
    w.uint("jobs", s.jobs.len() as u64);
    w.uint("makespan_ns", s.makespan_ns);
    w.uint("mean_wait_ns", s.mean_wait_ns);
    w.float("p50_slowdown", s.p50_slowdown, 6);
    w.float("p99_slowdown", s.p99_slowdown, 6);
    w.uint("dispatches", s.dispatches);
    w.uint("backfills", s.backfills);
    w.uint("admission_deferrals", s.admission_deferrals);
    w.uint("max_queue_depth", s.max_queue_depth as u64);
    w.rows("per_job", &s.jobs, |r, j| {
        r.text("job", &j.name);
        r.uint("arrival_ns", j.arrival_ns);
        r.uint("dispatch_ns", j.dispatch_ns);
        r.uint("end_ns", j.end_ns);
        r.uint("wait_ns", j.wait_ns);
        r.uint("turnaround_ns", j.turnaround_ns);
        r.uint("run_ns", j.run_ns);
        r.uint("solo_ns", j.solo_ns);
        r.float("slowdown", j.slowdown, 6);
        r.uint("nodes", j.nodes as u64);
        r.uint("node_offset", j.node_offset as u64);
        r.uint("deferrals", j.deferrals);
        r.flag("backfilled", j.backfilled);
    });
}

/// Render the canonical `mcio.schedule.v1` document.
pub fn render_schedule(s: &Schedule) -> String {
    let mut w = Writer::document();
    write_schedule(&mut w, s);
    w.finish()
}

/// One `per_job` row of a parsed document.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleDocJob {
    /// Job name.
    pub job: String,
    /// Arrival time, nanoseconds.
    pub arrival_ns: u64,
    /// Dispatch time, nanoseconds.
    pub dispatch_ns: u64,
    /// Completion time, nanoseconds.
    pub end_ns: u64,
    /// Queue wait, nanoseconds.
    pub wait_ns: u64,
    /// Arrival-to-completion span, nanoseconds.
    pub turnaround_ns: u64,
    /// Job slowdown (turnaround over solo).
    pub slowdown: f64,
}

/// An `mcio.schedule.v1` document read back from disk: the summary
/// plus per-job rows. Unknown top-level and per-job keys are ignored.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleDoc {
    /// Compact machine label.
    pub machine: String,
    /// Policy label.
    pub policy: String,
    /// Whether admission control was on.
    pub admission: bool,
    /// Completion of the last job, nanoseconds.
    pub makespan_ns: u64,
    /// Mean queue wait, nanoseconds.
    pub mean_wait_ns: u64,
    /// Median job slowdown.
    pub p50_slowdown: f64,
    /// 99th-percentile job slowdown.
    pub p99_slowdown: f64,
    /// Dispatch count.
    pub dispatches: u64,
    /// Backfill count.
    pub backfills: u64,
    /// Admission deferral count.
    pub admission_deferrals: u64,
    /// Peak queue depth.
    pub max_queue_depth: u64,
    /// Per-job rows in document order.
    pub per_job: Vec<ScheduleDocJob>,
}

/// Parse an `mcio.schedule.v1` document. Unknown keys are ignored so
/// later schema additions keep old readers working.
pub fn parse_schedule(text: &str) -> Result<ScheduleDoc, String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let root = Reader::new(&root, "schedule");
    root.schema(&[SCHEMA])?;
    let per_job = root.rows("per_job", |row| {
        Ok(ScheduleDocJob {
            job: row.text("job")?.to_string(),
            arrival_ns: row.uint("arrival_ns")?,
            dispatch_ns: row.uint("dispatch_ns")?,
            end_ns: row.uint("end_ns")?,
            wait_ns: row.uint("wait_ns")?,
            turnaround_ns: row.uint("turnaround_ns")?,
            slowdown: row.float("slowdown")?,
        })
    })?;
    Ok(ScheduleDoc {
        machine: root.text("machine")?.to_string(),
        policy: root.text("policy")?.to_string(),
        admission: root.flag("admission")?,
        makespan_ns: root.uint("makespan_ns")?,
        mean_wait_ns: root.uint("mean_wait_ns")?,
        p50_slowdown: root.float("p50_slowdown")?,
        p99_slowdown: root.float("p99_slowdown")?,
        dispatches: root.uint("dispatches")?,
        backfills: root.uint("backfills")?,
        admission_deferrals: root.uint("admission_deferrals")?,
        max_queue_depth: root.uint("max_queue_depth")?,
        per_job,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{run_schedule, SchedConfig};
    use crate::trace::JobTrace;

    fn rendered() -> String {
        let trace = JobTrace::parse(
            "machine small:4x2\n\
             job a arrival=0 ranks=4 ppn=2 per_proc=64K segments=1 buffer=64K\n\
             job b arrival=1us ranks=4 ppn=2 per_proc=64K segments=1 buffer=64K\n",
        )
        .expect("trace parses");
        render_schedule(&run_schedule(&trace, &SchedConfig::default(), None))
    }

    #[test]
    fn document_round_trips() {
        let doc = rendered();
        assert!(doc.starts_with("{\n  \"schema\": \"mcio.schedule.v1\",\n"));
        let parsed = parse_schedule(&doc).expect("parses back");
        assert_eq!(parsed.machine, "small:4x2");
        assert_eq!(parsed.policy, "fcfs");
        assert_eq!(parsed.dispatches, 2);
        assert_eq!(parsed.per_job.len(), 2);
        assert_eq!(parsed.per_job[0].job, "a");
        assert_eq!(
            parsed.makespan_ns,
            parsed.per_job.iter().map(|j| j.end_ns).max().unwrap()
        );
    }

    #[test]
    fn unknown_top_level_keys_are_ignored() {
        let doc = rendered();
        let extended = doc.replacen(
            "  \"schema\": \"mcio.schedule.v1\",\n",
            "  \"schema\": \"mcio.schedule.v1\",\n  \"future_knob\": {\"x\": [1, 2]},\n",
            1,
        );
        let a = parse_schedule(&doc).expect("original parses");
        let b = parse_schedule(&extended).expect("extended still parses");
        assert_eq!(a, b, "unknown keys change nothing");
    }

    #[test]
    fn integer_fields_must_be_integers() {
        let doc = rendered();
        for bad in ["-5", "1.5", "1e300"] {
            let broken = doc.replacen("\"dispatches\": 2", &format!("\"dispatches\": {bad}"), 1);
            let err = parse_schedule(&broken).expect_err(bad);
            assert!(err.contains("`dispatches`"), "{bad}: {err}");
            assert!(!err.contains('\n'), "{err}");
        }
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(parse_schedule("not json").is_err());
        let err = parse_schedule("{\"schema\": \"mcio.analyze.v1\", \"admission\": false}")
            .expect_err("wrong schema");
        assert!(err.contains("mcio.schedule.v1"), "{err}");
    }
}
