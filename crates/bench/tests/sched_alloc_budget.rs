//! A scheduler commit resumes the shared run its session paused at the
//! commit before when the residents are the same: the residents are
//! neither lowered nor simulated again up to that pause, and only the
//! jobs the paused run does not hold are lowered. The allocation count of
//! the bundled stream's two replays and the events the process fired
//! for their shared runs are exact and repeat, so they are the gates;
//! the wall-clock split of a commit is printed beside them
//! (`--nocapture`) — the table `docs/scheduling.md` quotes under "The
//! cost of a commit" — and so is what the commit-order model costs in
//! fidelity and what one stream-long run would hold instead.
//!
//! Compiled only with the counting allocator:
//! `cargo test --release -p mcio-bench --features count-alloc --test sched_alloc_budget -- --nocapture`.
//! One test in the file, so nothing else allocates while it counts.
#![cfg(feature = "count-alloc")]

use mcio_core::{JobOutcome, Observe};
use mcio_prof::alloc::snapshot;
use mcio_prof::Prof;
use mcio_sched::scheduler::run_schedule_with;
use mcio_sched::{run_schedule, JobTrace, Policy, SchedConfig};
use std::collections::HashMap;
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
    // Measured: 468,973 with each job's baseline simulated once (572,489
    // when a commit simulated the baseline of every placement it had not
    // seen, 553,065 when the session also copied each job's activities
    // out and appended the copy at the next commit, 602,387 with a
    // machine built at every commit, 1,006,471 with a name and a queue
    // per resource and a few vectors per round slot). With every
    // resident lowered again at every commit and no run resumed it was
    // 4,140,578, of which 3,174,662 were that lowering.
    assert!(
        allocs <= 510_000,
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
    //
    // Beside it, per policy, what one live run per stream would change.
    // A commit re-simulates its residents, and a resident's span there
    // is not the `run_ns` it committed with (its last commit as the
    // newcomer): the largest and the summed gap, over every resident of
    // every commit. And the activities a commit's shared run holds at
    // most, against what one stream-long run would hold by the end —
    // every job's activities (read off the commits: a shared run holds
    // its tenants' activities and a start gate for each that arrives
    // after zero) plus one start gate each — which each fork of it
    // would copy.
    println!("policy    wall_ms  lower_ms  fork_ms  des_run_ms  rest_ms  events_run");
    let mut model = Vec::new();
    for policy in policies {
        let prof = Prof::enabled();
        let cfg = cfg(policy);
        let mut committed: HashMap<String, u64> = HashMap::new();
        let mut own: HashMap<String, u64> = HashMap::new();
        let (mut gap_max, mut gap_total, mut commit_acts) = (0u64, 0u64, 0u64);
        let span = |o: &JobOutcome| (o.end_ns - o.start_ns).max(1);
        let started = Instant::now();
        let s = run_schedule_with(&trace, &cfg, None, &mut |session, tenants, solo, obs| {
            let obs = Observe {
                prof: Some(&prof),
                ..obs
            };
            let report = session.run(tenants, solo, obs);
            let (newcomer, residents) = tenants.split_last().expect("a commit places a newcomer");
            for (resident, outcome) in residents.iter().zip(&report.jobs) {
                let gap = span(outcome).abs_diff(committed[&resident.label]);
                gap_max = gap_max.max(gap);
                gap_total += gap;
            }
            let last = report.jobs.last().expect("one outcome per tenant");
            committed.insert(newcomer.label.clone(), span(last));
            let gates = tenants.iter().filter(|t| !t.start.is_zero()).count() as u64;
            let held: u64 = residents.iter().map(|t| own[&t.label]).sum();
            let acts = report.engine.activities - gates - held;
            assert_eq!(*own.entry(newcomer.label.clone()).or_insert(acts), acts);
            commit_acts = commit_acts.max(report.engine.activities);
            report
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
        assert_eq!(own.len(), trace.jobs.len(), "every job was a newcomer");
        let stream_acts = own.values().sum::<u64>() + own.len() as u64;
        model.push((policy, gap_max, gap_total, commit_acts, stream_acts));
    }
    println!("policy    resident_gap_max_ns  resident_gap_total_ns  commit_acts_max  stream_acts");
    for (policy, gap_max, gap_total, commit_acts, stream_acts) in model {
        println!(
            "{:<8} {gap_max:20} {gap_total:22} {commit_acts:16} {stream_acts:12}",
            policy.label()
        );
    }
}
