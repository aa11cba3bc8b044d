//! A scheduler commit simulates its newcomer alone against the stream's
//! ledger of committed service: no resident is lowered or simulated
//! again. The allocation count of the bundled stream's two replays and
//! the probes, activities and events they simulated are exact and
//! repeat, so they are the gates; each replay's wall time is printed
//! beside them (`--nocapture`) — the table `docs/scheduling.md` quotes
//! under "The cost of a commit".
//!
//! Compiled only with the counting allocator:
//! `cargo test --release -p mcio-bench --features count-alloc --test sched_alloc_budget -- --nocapture`.
//! One test in the file, so nothing else allocates while it counts.
#![cfg(feature = "count-alloc")]

use mcio_prof::alloc::snapshot;
use mcio_sched::{run_schedule, JobTrace, Policy, SchedConfig};
use std::time::Instant;

#[test]
fn a_commit_simulates_its_newcomer_alone() {
    let trace = JobTrace::bundled();
    let cfg = |policy| SchedConfig {
        policy,
        ..SchedConfig::default()
    };
    let policies = [Policy::Fcfs, Policy::Backfill];

    let before = snapshot().allocs;
    let schedules = policies.map(|policy| run_schedule(&trace, &cfg(policy), None));
    let allocs = snapshot().allocs - before;
    println!("{allocs} allocations over the two replays");
    // Measured: 215,669 with each probe's windows copied onto one arena
    // (236,354 when each resource's windows were copied into a `Vec` of
    // their own, 246,323 when every probe filtered the held records and
    // swept their edges, 468,973 when a commit re-simulated every
    // resident and resumed a paused shared run where it could, 4,140,578
    // when it resumed none).
    assert!(
        allocs <= 235_000,
        "{allocs} allocations over the two replays"
    );
    // Probes, rejected backfill candidates and deferrals included, and
    // the activities and events they simulated: one newcomer each. A
    // commit that re-simulated its residents simulated 90,962 /
    // 1,454,491 activities and fired 196,892 / 2,947,741 events.
    let work = schedules
        .each_ref()
        .map(|s| (s.commits, s.engine.activities, s.engine.events_fired));
    assert_eq!(
        work,
        [(202, 17_764, 37_894), (514, 38_668, 83_134)],
        "probes, activities, events"
    );

    println!("policy    wall_ms  probes  activities  events_fired");
    for (policy, (commits, activities, events)) in policies.into_iter().zip(work) {
        let started = Instant::now();
        let s = run_schedule(&trace, &cfg(policy), None);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(s.commits, commits, "a replay repeats");
        println!(
            "{:<8} {wall_ms:8.1} {commits:7} {activities:11} {events:13}",
            policy.label()
        );
    }
}
