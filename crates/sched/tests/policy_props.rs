//! Policy-engine properties over seeded synthetic job streams.
//!
//! Every property drives the full scheduler — trace generation,
//! planning, solo baselines, commit simulations — on a small machine
//! so the invariants hold for the *real* pipeline, not a mock queue:
//!
//! * FCFS dispatches in arrival order, always;
//! * conservative backfill never delays the queue head past the start
//!   reserved for it when a job jumped ahead (audited per decision);
//! * priority-with-aging starves nobody — every job of a saturating
//!   stream dispatches, and dispatch order is a permutation;
//! * node accounting conserves: allocated + free == machine nodes at
//!   every event, under every policy;
//! * the seeded trace generator replays byte-identically;
//! * the rendered document is byte-identical at `--jobs 1` vs
//!   `--jobs 8` (the precompute fan-out cannot leak into the output);
//! * the per-job baselines and resumed shared runs change no byte:
//!   committing every tenant set on a fresh session, which simulates
//!   every baseline at its placement, yields the same schedule and the
//!   same engine counters.

use mcio_core::{run_multitenant, AdaptivePolicy};
use mcio_sched::scheduler::run_schedule_with;
use mcio_sched::{render_schedule, run_schedule, JobTrace, Policy, SchedConfig};
use proptest::prelude::*;

const MACHINE: &str = "small:8x2";

fn stream(seed: u64, n: usize) -> JobTrace {
    JobTrace::synthetic(MACHINE, seed, n).expect("synthetic stream generates")
}

fn cfg(policy: Policy) -> SchedConfig {
    SchedConfig {
        policy,
        ..SchedConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fcfs_dispatch_order_is_arrival_order(seed in any::<u64>(), n in 3usize..8) {
        let trace = stream(seed, n);
        let s = run_schedule(&trace, &cfg(Policy::Fcfs), None);
        // Arrivals are non-decreasing in trace order, so arrival order
        // *is* trace order.
        let expect: Vec<usize> = (0..n).collect();
        prop_assert_eq!(&s.dispatch_order, &expect);
        prop_assert_eq!(s.backfills, 0);
    }

    #[test]
    fn backfill_never_delays_the_reserved_head(seed in any::<u64>(), n in 3usize..8) {
        let trace = stream(seed, n);
        let s = run_schedule(&trace, &cfg(Policy::Backfill), None);
        for r in &s.reservations {
            // The jump was only legal because it finished by the
            // reservation…
            prop_assert!(r.predicted_end_ns <= r.reserved_start_ns, "{r:?}");
            // …its committed end is exactly the prediction…
            prop_assert_eq!(s.jobs[r.backfilled].end_ns, r.predicted_end_ns);
            // …and the head really did start by its reserved time.
            prop_assert!(
                s.jobs[r.head].dispatch_ns <= r.reserved_start_ns,
                "head {} dispatched {} after its reservation {}",
                r.head, s.jobs[r.head].dispatch_ns, r.reserved_start_ns
            );
        }
        prop_assert_eq!(s.backfills as usize, s.reservations.len());
        prop_assert_eq!(
            s.backfills as usize,
            s.jobs.iter().filter(|j| j.backfilled).count()
        );
    }

    #[test]
    fn priority_with_aging_starves_nobody(seed in any::<u64>(), n in 4usize..8) {
        let trace = stream(seed, n);
        let s = run_schedule(&trace, &cfg(Policy::Priority), None);
        // A saturating stream drains completely: every job dispatches
        // exactly once, after it arrived.
        let mut seen = s.dispatch_order.clone();
        seen.sort_unstable();
        let expect: Vec<usize> = (0..n).collect();
        prop_assert_eq!(seen, expect, "dispatch order is a permutation");
        for j in &s.jobs {
            prop_assert!(j.dispatch_ns >= j.arrival_ns, "{j:?}");
            prop_assert!(j.end_ns > j.dispatch_ns, "{j:?}");
        }
    }

    #[test]
    fn node_accounting_conserves(
        seed in any::<u64>(),
        n in 3usize..7,
        policy in prop::sample::select(Policy::ALL.to_vec()),
    ) {
        let trace = stream(seed, n);
        let nodes = trace.machine.nodes;
        let s = run_schedule(&trace, &cfg(policy), None);
        for ev in &s.events {
            prop_assert_eq!(ev.allocated_nodes + ev.free_nodes, nodes, "{:?}", ev);
        }
        // And the ledger closes: the last event has everything free.
        let last = s.events.last().expect("at least one event");
        prop_assert!(last.queue_depth == 0);
    }

    #[test]
    fn synthetic_streams_replay_by_seed(seed in any::<u64>(), n in 1usize..12) {
        let a = stream(seed, n).serialize();
        let b = stream(seed, n).serialize();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn document_is_byte_identical_at_any_worker_count(seed in any::<u64>(), n in 3usize..6) {
        let trace = stream(seed, n);
        for policy in Policy::ALL {
            let solo = render_schedule(&run_schedule(
                &trace,
                &SchedConfig { policy, jobs: 1, ..SchedConfig::default() },
                None,
            ));
            let fanned = render_schedule(&run_schedule(
                &trace,
                &SchedConfig { policy, jobs: 8, ..SchedConfig::default() },
                None,
            ));
            prop_assert_eq!(solo, fanned, "policy {}", policy.label());
        }
    }

    /// `synthetic(seed, n)` is the `n`-job prefix of the seed's stream.
    /// On every prefix the stream's session and its once-per-job
    /// baselines must be invisible: the reference commits each tenant
    /// set through `run_multitenant`, i.e. on a fresh session that
    /// simulates every baseline at its placement.
    #[test]
    fn memoised_commits_match_a_fresh_session_per_commit(
        seed in any::<u64>(),
        n in 2usize..8,
        admission in any::<bool>(),
    ) {
        let trace = stream(seed, n);
        for policy in Policy::ALL {
            let cfg = SchedConfig { policy, admission, ..SchedConfig::default() };
            let memoised = run_schedule(&trace, &cfg, None);
            let reference = run_schedule_with(&trace, &cfg, None, &mut |_, tenants, _, obs| {
                run_multitenant(tenants, &trace.machine, None, AdaptivePolicy::Off, obs)
            });
            prop_assert_eq!(
                render_schedule(&memoised),
                render_schedule(&reference),
                "policy {}", policy.label()
            );
            prop_assert_eq!(&memoised.events, &reference.events);
            prop_assert_eq!(&memoised.reservations, &reference.reservations);
            prop_assert_eq!(memoised.commits, reference.commits);
            // A resumed commit reports every event of the full run.
            prop_assert_eq!(&memoised.engine, &reference.engine);
        }
    }
}

/// One commit, one simulation: on the bundled stream the commits, the
/// tenants they were handed and the shared runs' activities and events
/// are pinned per policy.
#[test]
fn bundled_stream_commits_one_shared_run_each() {
    let trace = JobTrace::bundled();
    // (policy, commits, tenants over all commits, activities and events
    // fired over all commits); the counts move only when the simulated
    // schedule itself does (`BENCH_scheduler_suite.json`). The last two
    // were read off the commit before the session kept its residents'
    // lowerings: an appended lowering is the same activities and makes
    // the same events as a fresh one.
    for (policy, commits, per_commit, activities, events_fired) in [
        (Policy::Fcfs, 202, 1_302, 90_962, 196_892),
        (Policy::Backfill, 540, 2_767, 1_454_491, 2_947_741),
    ] {
        let mut tenant_sims = 0u64;
        let s = run_schedule_with(
            &trace,
            &cfg(policy),
            None,
            &mut |session, tenants, solo, obs| {
                tenant_sims += tenants.len() as u64;
                session.run(tenants, solo, obs)
            },
        );
        assert_eq!(
            (s.commits, tenant_sims),
            (commits, per_commit),
            "{}",
            policy.label()
        );
        assert_eq!(
            (s.engine.activities, s.engine.events_fired),
            (activities, events_fired),
            "{}",
            policy.label()
        );
    }
}

/// The deterministic starvation scenario the proptest sweep cannot
/// guarantee to hit: a continuous stream of high-priority arrivals
/// over a low-priority early job. Aging must bound its wait by the
/// priority gap times the quantum (plus the work ahead of it).
#[test]
fn aging_rescues_a_low_priority_job_under_pressure() {
    let mut text = String::from(
        "machine small:2x2\n\
         job first arrival=0 ranks=4 ppn=2 per_proc=256K segments=2 buffer=64K\n\
         job patient arrival=1us prio=0 ranks=4 ppn=2 per_proc=32K segments=1 buffer=64K\n",
    );
    // 12 whole-machine prio-9 jobs arriving every 2 ms: far more than
    // 9 quanta (9 ms) of pressure, so `patient` must overtake mid-storm.
    for i in 0..12 {
        text.push_str(&format!(
            "job vip{i} arrival={}ns prio=9 ranks=4 ppn=2 per_proc=32K segments=1 buffer=64K\n",
            2_000 + i * 2_000_000
        ));
    }
    let trace = JobTrace::parse(&text).expect("trace parses");
    let s = run_schedule(
        &trace,
        &SchedConfig {
            policy: Policy::Priority,
            ..SchedConfig::default()
        },
        None,
    );
    let pos = |name: &str| {
        let idx = trace.jobs.iter().position(|j| j.name == name).unwrap();
        s.dispatch_order.iter().position(|&i| i == idx).unwrap()
    };
    let patient = pos("patient");
    assert!(
        patient < pos("vip11"),
        "patient dispatched {}th, after the whole vip stream",
        patient
    );
    assert_eq!(s.jobs.len(), 14, "nobody starved");
}
