//! A scheduler commit resumes the shared run its session paused at the
//! commit before when the residents are the same: the residents are
//! neither lowered nor simulated again up to that pause, and only the
//! jobs the paused run does not hold are lowered. The allocation count of
//! the bundled stream's two replays and the events the process fired
//! for their shared runs are exact and repeat, so they are the gates;
//! the wall-clock split of a commit is printed beside them
//! (`--nocapture`) — the table `docs/scheduling.md` quotes under "The
//! cost of a commit".
//!
//! Compiled only with the counting allocator:
//! `cargo test --release -p mcio-bench --features count-alloc --test sched_alloc_budget -- --nocapture`.
//! One test in the file, so nothing else allocates while it counts.
#![cfg(feature = "count-alloc")]

use mcio_core::{AdaptivePolicy, Observe};
use mcio_prof::alloc::snapshot;
use mcio_prof::Prof;
use mcio_sched::scheduler::run_schedule_with;
use mcio_sched::{run_schedule, JobTrace, Policy, SchedConfig};
use std::time::Instant;

#[test]
fn a_commit_resumes_its_residents() {
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
    let activities = schedules.each_ref().map(|s| s.engine.activities);
    assert_eq!(activities, [90_962, 1_454_491], "activities simulated");
    // Measured: 572,489 with every job a resumed run does not hold
    // lowered afresh (553,065 when the session also copied each job's
    // activities out and appended the copy at the next commit, 602,387
    // with a machine built at every commit, 1,006,471 with a name and a
    // queue per resource and a few vectors per round slot). With every
    // resident lowered again at every commit and no run resumed it was
    // 4,140,578, of which 3,174,662 were that lowering.
    assert!(
        allocs <= 650_000,
        "{allocs} allocations over the two replays"
    );
    // Every shared run reports all its events; the process fired those
    // not resumed. Measured for backfill: 2,947,741 fired before the
    // session paused its runs.
    let fired = schedules.each_ref().map(|s| s.engine.events_fired);
    assert_eq!(fired, [196_892, 2_947_741], "events of the shared runs");
    let simulated = schedules
        .each_ref()
        .map(|s| s.engine.events_fired - s.events_resumed);
    println!("shared-run events fired in process: {simulated:?} of {fired:?}");
    assert!(
        simulated[1] <= 800_000,
        "backfill fired {} shared-run events",
        simulated[1]
    );

    // Where a replay's wall time goes. The solo baselines run
    // unobserved, so they fall under "the rest"; a commit runs its
    // shared simulation in two parts, up to the newcomer's arrival and
    // from there on, and copies it at the arrival (`fork`). What is left
    // of the graph build is lowering, start gates and, for a commit that
    // resumes nothing, the machine.
    println!("policy    wall_ms  lower_ms  fork_ms  des_run_ms  rest_ms  events_run");
    for policy in policies {
        let prof = Prof::enabled();
        let cfg = cfg(policy);
        let started = Instant::now();
        let s = run_schedule_with(&trace, &cfg, None, &mut |session, tenants, obs| {
            let obs = Observe {
                prof: Some(&prof),
                ..obs
            };
            session.run(tenants, None, AdaptivePolicy::Off, obs)
        });
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let phases = prof.phases();
        let row = |path: &str| phases.iter().find(|r| r.path == path);
        let ms = |ns: u64| ns as f64 / 1e6;
        let of = |path: &str| row(path).map_or((0.0, 0), |r| (ms(r.inclusive_ns), r.count));
        let (fork_ms, forks) = of("build-activity-graph/fork");
        let (des_run_ms, runs) = of("des-run");
        let build = row("build-activity-graph").expect("every commit lowers");
        assert_eq!(forks, s.commits, "one copy per commit");
        assert!(runs >= s.commits && build.count == runs, "{runs} runs");
        let rest_ms = wall_ms - ms(build.inclusive_ns) - des_run_ms;
        println!(
            "{:<8} {wall_ms:8.1} {:9.1} {fork_ms:8.1} {des_run_ms:11.1} {rest_ms:8.1} {:11}",
            policy.label(),
            ms(build.exclusive_ns),
            s.engine.events_fired - s.events_resumed,
        );
    }
}
