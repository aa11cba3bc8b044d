//! Round-trip properties of the two new on-disk formats.
//!
//! * `mcio.jobtrace.v1`: `parse ∘ serialize` is lossless and
//!   `serialize ∘ parse` is byte-stable, over generated streams and
//!   over hand-written documents exercising every key;
//! * `mcio.schedule.v1`: the rendered document re-parses, agrees with
//!   the in-memory [`Schedule`], and ignores unknown top-level keys —
//!   the same forward-compatibility convention `mcio.analyze.v1` uses.

use mcio_des::SharePolicy;
use mcio_sched::{parse_schedule, render_schedule, run_schedule, JobTrace, Policy, SchedConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn jobtrace_round_trips_losslessly(seed in any::<u64>(), n in 1usize..16) {
        let trace = JobTrace::synthetic("small:8x2", seed, n).expect("generates");
        let canon = trace.serialize();
        let re = JobTrace::parse(&canon).expect("canonical form parses");
        prop_assert_eq!(&trace.jobs, &re.jobs, "parse ∘ serialize lossless");
        prop_assert_eq!(&trace.machine_label, &re.machine_label);
        prop_assert_eq!(trace.engine, re.engine);
        prop_assert_eq!(canon, re.serialize(), "serialize ∘ parse byte-stable");
    }

    #[test]
    fn schedule_doc_reparses_and_agrees(seed in any::<u64>(), n in 2usize..5) {
        let trace = JobTrace::synthetic("small:8x2", seed, n).expect("generates");
        let s = run_schedule(
            &trace,
            &SchedConfig { policy: Policy::Backfill, ..SchedConfig::default() },
            None,
        );
        let doc = parse_schedule(&render_schedule(&s)).expect("document re-parses");
        prop_assert_eq!(doc.policy, "backfill");
        prop_assert_eq!(doc.makespan_ns, s.makespan_ns);
        prop_assert_eq!(doc.dispatches, s.dispatches);
        prop_assert_eq!(doc.backfills, s.backfills);
        prop_assert_eq!(doc.per_job.len(), s.jobs.len());
        for (row, j) in doc.per_job.iter().zip(&s.jobs) {
            prop_assert_eq!(&row.job, &j.name);
            prop_assert_eq!(row.wait_ns, j.wait_ns);
            prop_assert_eq!(row.turnaround_ns, j.turnaround_ns);
        }
    }
}

/// Every job key round-trips, including the non-default spellings the
/// generator never emits.
#[test]
fn hand_written_trace_with_every_key_round_trips() {
    let text = "machine testbed\n\
         engine fair\n\
         job full arrival=1500us prio=7 ranks=12 ppn=3 workload=checkpoint per_proc=1M \
         segments=3 scale=2 buffer=512K stddev=0.450000 seed=99 strategy=two-phase rw=read \
         pipeline=double exchange=two-level\n\
         job lean arrival=2ms workload=collperf\n";
    let trace = JobTrace::parse(text).expect("parses");
    let canon = trace.serialize();
    let re = JobTrace::parse(&canon).expect("canonical parses");
    assert_eq!(trace.jobs, re.jobs);
    assert_eq!(canon, re.serialize());
    let full = &re.jobs[0];
    assert_eq!(full.prio, 7);
    assert_eq!(full.workload, "checkpoint");
    assert_eq!(full.nodes(), 4);
    assert_eq!(re.engine, SharePolicy::FairShare);
}

/// Unknown top-level keys in a schedule document are ignored; missing
/// required keys are an error.
#[test]
fn schedule_doc_forward_compat_convention() {
    let trace = JobTrace::synthetic("small:4x2", 5, 2).expect("generates");
    let doc = render_schedule(&run_schedule(&trace, &SchedConfig::default(), None));
    let extended = doc.replacen(
        "  \"policy\": \"fcfs\",\n",
        "  \"policy\": \"fcfs\",\n  \"from_the_future\": [{\"deep\": true}],\n",
        1,
    );
    assert_eq!(
        parse_schedule(&doc).expect("original"),
        parse_schedule(&extended).expect("extended"),
        "unknown keys are invisible"
    );
    let truncated = doc.replacen("  \"makespan_ns\"", "  \"makespan_zz\"", 1);
    let err = parse_schedule(&truncated).expect_err("missing key rejected");
    assert!(err.contains("makespan_ns"), "{err}");
}
