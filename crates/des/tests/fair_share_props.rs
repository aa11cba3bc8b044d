//! Differential harness for the fair-sharing resource engine.
//!
//! Three pillars:
//!
//! 1. **FIFO equivalence** — on workloads where no resource ever holds
//!    more transfers than its slot count, the fair-share engine must
//!    reproduce the FIFO engine *exactly*: same finish times, same
//!    usage accounting, and (when resources are strictly unshared) the
//!    same event stream byte for byte.
//! 2. **Reference-model agreement** — under real contention, finish
//!    times must track a brute-force fluid processor-sharing simulator
//!    to within the engine's nanosecond-ceiling rounding.
//! 3. **Engine invariants** — indexed cancellation never loses or
//!    double-fires an event (`events_scheduled == events_processed +
//!    events_cancelled`, one completion per activity), cancellations
//!    are exactly the arrivals that found a non-empty active set, and
//!    work is conserved (`busy_time` equals total nominal demand).

use mcio_des::{
    arg, Bandwidth, Label, Prefix, ResourceId, ServiceWindow, SharePolicy, SimDuration, SimTime,
    Simulation, Stage,
};
use proptest::prelude::*;

fn bw(bps: f64) -> Bandwidth {
    Bandwidth::bytes_per_sec(bps)
}

fn secs(s: u64) -> SimTime {
    SimTime::from_nanos(s * 1_000_000_000)
}

/// A stage of `bytes` on `resource` behind `overhead`, with no latency.
fn stage(resource: ResourceId, bytes: u64, overhead: SimDuration) -> Stage {
    Stage {
        resource,
        bytes,
        overhead,
        latency_after: SimDuration::ZERO,
    }
}

/// The label `template` with its holes filled by `args`.
fn named(sim: &mut Simulation, template: &'static str, args: [usize; 2]) -> Label {
    Label::new(Prefix::NONE, sim.template(template), args.map(arg))
}

// ---------------------------------------------------------------------------
// Pillar 1: FIFO equivalence.
// ---------------------------------------------------------------------------

/// Build `chains` serial chains of `len` single-stage activities, chain
/// `i` owning resource `i` exclusively. No resource is ever shared, so
/// both engines must produce identical runs.
fn unshared_workload(
    policy: SharePolicy,
    chains: usize,
    len: usize,
    seed: u64,
) -> (Simulation, Vec<mcio_des::ActivityId>, Vec<ResourceId>) {
    let mut sim = Simulation::with_policy(policy);
    sim.enable_trace();
    let mut state = seed | 1;
    let mut rng = move || {
        // xorshift64: deterministic, dependency-free.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut ids, mut resources) = (Vec::new(), Vec::new());
    for c in 0..chains {
        let name = named(&mut sim, "r{}", [c, 0]);
        let r = sim.add_resource(name, bw(1e9));
        resources.push(r);
        let mut prev = None;
        for j in 0..len {
            let bytes = rng() % 10_000;
            let overhead = SimDuration::from_nanos(rng() % 1_000);
            let label = named(&mut sim, "c{}a{}", [c, j]);
            let a = sim.activity(label, SimTime::ZERO, &[stage(r, bytes, overhead)]);
            if let Some(p) = prev {
                sim.add_dep(p, a);
            }
            prev = Some(a);
            ids.push(a);
        }
    }
    (sim, ids, resources)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Claim (a) of the differential harness: with no sharing, the two
    /// engines produce the same run — finish times, resource usage
    /// (including both high-water marks and the wait histogram), the
    /// rendered chrome trace, and even the engine event stream
    /// (identical event counts, zero cancellations, identical heap
    /// depth distribution).
    #[test]
    fn unshared_workloads_are_byte_identical_across_engines(
        chains in 1usize..6,
        len in 1usize..8,
        seed in 1u64..u64::MAX,
    ) {
        let (sim_f, ids, resources) = unshared_workload(SharePolicy::Fifo, chains, len, seed);
        let (sim_p, ..) = unshared_workload(SharePolicy::FairShare, chains, len, seed);
        let fifo = sim_f.run().unwrap();
        let fair = sim_p.run().unwrap();
        prop_assert_eq!(fifo.makespan(), fair.makespan());
        for &a in &ids {
            prop_assert_eq!(fifo.finish_time(a), fair.finish_time(a));
            prop_assert_eq!(fifo.start_time(a), fair.start_time(a));
        }
        prop_assert_eq!(fifo.resource_usages(), fair.resource_usages());
        for &r in &resources {
            prop_assert_eq!(fifo.wait_hist(r), fair.wait_hist(r));
            prop_assert_eq!(fifo.resource_name(r), fair.resource_name(r));
        }
        prop_assert_eq!(fifo.engine_stats(), fair.engine_stats());
        prop_assert_eq!(fifo.engine_stats().events_cancelled, 0);
        prop_assert_eq!(fifo.trace(), fair.trace());
        prop_assert_eq!(fifo.class_max_queues(), fair.class_max_queues());
    }

    /// Stronger than unshared: as long as a resource's active set never
    /// exceeds its slot count, every transfer gets a full share and the
    /// fair engine's finish times match FIFO bit for bit (the event
    /// streams differ — fair re-predicts — but the physics agree).
    #[test]
    fn within_capacity_contention_matches_fifo_exactly(
        jobs in 1usize..5,
        seed in 1u64..u64::MAX,
    ) {
        // `jobs` concurrent transfers on a capacity-`jobs` resource.
        let build = |policy| {
            let mut sim = Simulation::with_policy(policy);
            let r = sim.add_resource_with_capacity("r", bw(1e9), jobs);
            let mut ids = Vec::new();
            for j in 0..jobs {
                let bytes = (seed % 50_000) + j as u64 * 977;
                let work = stage(r, bytes, SimDuration::from_nanos(seed % 503));
                let label = named(&mut sim, "a{}", [j, 0]);
                ids.push(sim.activity(label, SimTime::ZERO, &[work]));
            }
            (sim, ids)
        };
        let (sim_f, ids) = build(SharePolicy::Fifo);
        let (sim_p, _) = build(SharePolicy::FairShare);
        let fifo = sim_f.run().unwrap();
        let fair = sim_p.run().unwrap();
        prop_assert_eq!(fifo.makespan(), fair.makespan());
        for &a in &ids {
            prop_assert_eq!(fifo.finish_time(a), fair.finish_time(a));
        }
        let (uf, ua) = (&fifo.resource_usages()[0], &fair.resource_usages()[0]);
        prop_assert_eq!(uf.busy_time, ua.busy_time);
        prop_assert_eq!(uf.bytes_served, ua.bytes_served);
        prop_assert_eq!(uf.max_active, ua.max_active);
        prop_assert_eq!(uf.max_queue_len, ua.max_queue_len);
    }
}

// ---------------------------------------------------------------------------
// Pillar 2: brute-force fluid reference.
// ---------------------------------------------------------------------------

/// Brute-force fluid processor-sharing reference for a single resource:
/// each active transfer progresses at `min(n, cap)/n` of the nominal
/// rate; the simulator advances between arrival/completion events in
/// exact f64 arithmetic. Returns fluid finish times in nanoseconds,
/// indexed like `jobs`.
fn ps_reference(jobs: &[(u64, f64)], cap: usize) -> Vec<f64> {
    let n = jobs.len();
    let mut remaining: Vec<f64> = jobs.iter().map(|&(_, d)| d).collect();
    let mut finish = vec![f64::NAN; n];
    let mut active: Vec<usize> = Vec::new();
    let mut arrivals: Vec<usize> = (0..n).collect();
    arrivals.sort_by_key(|&i| jobs[i].0);
    let mut next_arrival = 0usize;
    let mut t = 0.0f64;
    while active.len() + (n - next_arrival) > 0 {
        if active.is_empty() {
            let i = arrivals[next_arrival];
            t = t.max(jobs[i].0 as f64);
            active.push(i);
            next_arrival += 1;
            continue;
        }
        let share = (active.len().min(cap)) as f64 / active.len() as f64;
        let (pos, head) = active
            .iter()
            .enumerate()
            .min_by(|a, b| remaining[*a.1].partial_cmp(&remaining[*b.1]).unwrap())
            .map(|(p, &i)| (p, i))
            .unwrap();
        let t_done = t + remaining[head] / share;
        let t_next = arrivals.get(next_arrival).map(|&i| jobs[i].0 as f64);
        match t_next {
            Some(ta) if ta < t_done => {
                let span = ta - t;
                for &i in &active {
                    remaining[i] -= span * share;
                }
                active.push(arrivals[next_arrival]);
                next_arrival += 1;
                t = ta;
            }
            _ => {
                let span = t_done - t;
                for &i in &active {
                    remaining[i] -= span * share;
                }
                finish[head] = t_done;
                active.swap_remove(pos);
                t = t_done;
            }
        }
    }
    finish
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim (c): on random single-resource workloads the engine's
    /// finish times agree with the brute-force fluid reference to
    /// within the accumulated nanosecond-ceiling rounding (each
    /// completion event lands on a whole nanosecond, nudging later
    /// fluid completions by strictly less than 1 ns each).
    #[test]
    fn fair_engine_agrees_with_fluid_reference(
        njobs in 1usize..10,
        cap in 1usize..4,
        seed in 1u64..u64::MAX,
    ) {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Nominal rate 1 byte/ns so demand_ns == bytes + overhead_ns.
        let mut sim = Simulation::with_policy(SharePolicy::FairShare);
        let r = sim.add_resource_with_capacity("r", bw(1e9), cap);
        let mut jobs = Vec::with_capacity(njobs);
        let mut ids = Vec::with_capacity(njobs);
        for j in 0..njobs {
            let arrive = rng() % 5_000;
            let bytes = 1 + rng() % 20_000;
            let overhead = rng() % 700;
            jobs.push((arrive, (bytes + overhead) as f64));
            let work = stage(r, bytes, SimDuration::from_nanos(overhead));
            let label = named(&mut sim, "a{}", [j, 0]);
            ids.push(sim.activity(label, SimTime::from_nanos(arrive), &[work]));
        }
        let rep = sim.run().unwrap();
        let reference = ps_reference(&jobs, cap);
        // Tolerance: one ceiling per completion event that precedes the
        // job, plus one for its own ceiling.
        let tol = njobs as f64 + 1.0;
        for (j, &a) in ids.iter().enumerate() {
            let got = rep.finish_time(a).as_nanos() as f64;
            prop_assert!(
                (got - reference[j]).abs() <= tol,
                "job {} finished at {} ns, fluid reference {} ns (tol {})",
                j, got, reference[j], tol
            );
        }
    }

    /// Engine invariants under random contention: exactly one
    /// completion per activity (a cancelled event firing would
    /// double-complete and panic the debug asserts), the cancellation
    /// ledger balances (`scheduled == processed + cancelled`),
    /// cancellations are *exactly* the arrivals that found a non-empty
    /// active set, work is conserved (`busy_time` equals total demand
    /// up to per-event rounding), and the heap high-water mark stays
    /// within its provable bounds after slot pooling.
    #[test]
    fn contention_invariants_and_cancellation_ledger(
        njobs in 2usize..12,
        cap in 1usize..3,
        seed in 1u64..u64::MAX,
    ) {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut sim = Simulation::with_policy(SharePolicy::FairShare);
        let r = sim.add_resource_with_capacity("r", bw(1e9), cap);
        let mut jobs = Vec::with_capacity(njobs);
        for j in 0..njobs {
            let arrive = rng() % 4_000;
            let bytes = 1 + rng() % 9_000;
            jobs.push((arrive, bytes as f64));
            let label = named(&mut sim, "a{}", [j, 0]);
            let work = stage(r, bytes, SimDuration::ZERO);
            sim.activity(label, SimTime::from_nanos(arrive), &[work]);
        }
        let rep = sim.run().unwrap();
        let es = rep.engine_stats();
        prop_assert_eq!(
            es.events_scheduled,
            es.events_processed + es.events_cancelled
        );
        prop_assert_eq!(es.queue_depth.count(), es.events_processed);
        // Replay the fluid reference to count arrivals that found a
        // non-empty active set — each retracts one stale prediction.
        let reference = ps_reference(&jobs, cap);
        let mut expected_cancels = 0u64;
        for (j, &(arrive, _)) in jobs.iter().enumerate() {
            let actives = jobs
                .iter()
                .enumerate()
                .filter(|&(k, &(ka, _))| k != j && ka <= arrive && reference[k] > arrive as f64)
                .count();
            if actives > 0 {
                expected_cancels += 1;
            }
        }
        prop_assert_eq!(es.events_cancelled, expected_cancels);
        // Work conservation: the slot-time integral equals total
        // demand, up to one nanosecond of ceiling per event boundary.
        let u = &rep.resource_usages()[0];
        let total_demand: f64 = jobs.iter().map(|&(_, d)| d).sum();
        let slack = (njobs * cap) as f64 + 1.0;
        prop_assert!(
            (u.busy_time.as_nanos() as f64 - total_demand).abs() <= slack,
            "busy {} ns vs demand {} ns (slack {})",
            u.busy_time.as_nanos(), total_demand, slack
        );
        prop_assert_eq!(u.jobs_served, njobs as u64);
        prop_assert_eq!(rep.wait_hist(r).count(), njobs as u64);
        // Heap high-water: bounded below by the seed burst (all Ready
        // events coexist before the first pop) and above by everything
        // ever scheduled — slot pooling must not corrupt either bound.
        prop_assert!(es.max_queue_depth as u64 <= es.events_scheduled);
        prop_assert!(es.max_queue_depth + 1 >= njobs);
    }
}

// ---------------------------------------------------------------------------
// Pillar 3: hand-computed pins (windows, zero-service, counters).
// ---------------------------------------------------------------------------

/// Two equal transfers through an `ost_slow`-shaped window (half rate
/// for the whole run): each holds a half share of a half-speed server,
/// so both finish at 4× their solo time. Hand-computed: 100 B at
/// 100 B/s is 1 s solo; shared and slowed it completes at t = 4 s.
#[test]
fn fair_share_under_ost_slow_window_pins() {
    let mut sim = Simulation::with_policy(SharePolicy::FairShare);
    let r = sim.add_resource("ost0", bw(100.0));
    sim.set_service_windows(
        r,
        &[ServiceWindow {
            start: SimTime::ZERO,
            end: secs(100),
            rate: 0.5,
        }],
    );
    let a = sim.activity("a", SimTime::ZERO, &[stage(r, 100, SimDuration::ZERO)]);
    let b = sim.activity("b", SimTime::ZERO, &[stage(r, 100, SimDuration::ZERO)]);
    let rep = sim.run().unwrap();
    assert_eq!(rep.finish_time(a), secs(4));
    assert_eq!(rep.finish_time(b), secs(4));
}

/// Two equal transfers with an `ost_stall`-shaped window (rate 0 on
/// [1 s, 2 s)): they would drain at 2 s unshared-rate-equivalent; the
/// stall freezes one second of progress, pushing both to 3 s.
/// Hand-computed: each needs 1 s of demand at a half share → 2 s of
/// wall time at full rate; progress runs [0,1) and [2,3) around the
/// stall, so completion lands at t = 3 s.
#[test]
fn fair_share_under_ost_stall_window_pins() {
    let mut sim = Simulation::with_policy(SharePolicy::FairShare);
    let r = sim.add_resource("ost0", bw(100.0));
    sim.set_service_windows(
        r,
        &[ServiceWindow {
            start: secs(1),
            end: secs(2),
            rate: 0.0,
        }],
    );
    let a = sim.activity("a", SimTime::ZERO, &[stage(r, 100, SimDuration::ZERO)]);
    let b = sim.activity("b", SimTime::ZERO, &[stage(r, 100, SimDuration::ZERO)]);
    let rep = sim.run().unwrap();
    assert_eq!(rep.finish_time(a), secs(3));
    assert_eq!(rep.finish_time(b), secs(3));
}

/// A late arrival during a stall: A (100 B) arrives at t = 0, a stall
/// covers [0.5 s, 1.5 s), B (50 B) arrives at 0.5 s. Hand-computed:
/// A progresses 0.5 s of demand before the stall; during the stall
/// nothing moves; from 1.5 s both share the server at half rate each.
/// A's remaining 0.5 s of demand takes 1 s → done at 2.5 s; B's 0.5 s
/// of demand also takes 1 s → done at 2.5 s.
#[test]
fn fair_share_stall_with_late_arrival_pins() {
    let mut sim = Simulation::with_policy(SharePolicy::FairShare);
    let r = sim.add_resource("ost0", bw(100.0));
    sim.set_service_windows(
        r,
        &[ServiceWindow {
            start: SimTime::from_nanos(500_000_000),
            end: SimTime::from_nanos(1_500_000_000),
            rate: 0.0,
        }],
    );
    let a = sim.activity("a", SimTime::ZERO, &[stage(r, 100, SimDuration::ZERO)]);
    let late = SimTime::from_nanos(500_000_000);
    let b = sim.activity("b", late, &[stage(r, 50, SimDuration::ZERO)]);
    let rep = sim.run().unwrap();
    assert_eq!(rep.finish_time(a), SimTime::from_nanos(2_500_000_000));
    assert_eq!(rep.finish_time(b), SimTime::from_nanos(2_500_000_000));
}

/// The same stall scenarios must agree between engines when only one
/// transfer is present — the FIFO `ServiceWindow` arithmetic is the
/// reference the fair path's `integrate_done` refactor must not move.
#[test]
fn single_transfer_window_walk_is_engine_invariant() {
    for windows in [
        vec![ServiceWindow {
            start: secs(1),
            end: secs(5),
            rate: 0.0,
        }],
        vec![ServiceWindow {
            start: SimTime::ZERO,
            end: secs(100),
            rate: 0.25,
        }],
        vec![
            ServiceWindow {
                start: SimTime::from_nanos(200_000_000),
                end: SimTime::from_nanos(700_000_000),
                rate: 0.5,
            },
            ServiceWindow {
                start: secs(1),
                end: secs(2),
                rate: 0.0,
            },
        ],
    ] {
        let run = |policy| {
            let mut sim = Simulation::with_policy(policy);
            let r = sim.add_resource("ost0", bw(100.0));
            sim.set_service_windows(r, &windows);
            let a = sim.activity("a", SimTime::ZERO, &[stage(r, 150, SimDuration::ZERO)]);
            let rep = sim.run().unwrap();
            rep.finish_time(a)
        };
        assert_eq!(
            run(SharePolicy::Fifo),
            run(SharePolicy::FairShare),
            "windows {windows:?}"
        );
    }
}

/// Satellite 6 regression: a zero-byte, zero-overhead stage admitted
/// mid-stall completes at its admission instant under BOTH engines —
/// an empty transfer has nothing to wait for.
#[test]
fn zero_service_stage_completes_at_admission_even_in_a_stall() {
    for policy in [SharePolicy::Fifo, SharePolicy::FairShare] {
        let mut sim = Simulation::with_policy(policy);
        let r = sim.add_resource("ost0", bw(100.0));
        sim.set_service_windows(
            r,
            &[ServiceWindow {
                start: SimTime::ZERO,
                end: secs(10),
                rate: 0.0,
            }],
        );
        let release = secs(2);
        let a = sim.activity("empty", release, &[stage(r, 0, SimDuration::ZERO)]);
        let rep = sim.run().unwrap();
        assert_eq!(rep.finish_time(a), release, "policy {policy:?}");
    }
}

/// Satellite 3 pin: the two high-water marks mean the same thing under
/// both engines. Three simultaneous jobs on a one-slot resource:
/// FIFO serves one at a time (`max_active` 1, two waiting), fair
/// admits all three (`max_active` 3) with the same two beyond the slot
/// count. `class_max_queues` reports the *active-set* high-water.
#[test]
fn queue_counter_semantics_pinned() {
    let build = |policy| {
        let mut sim = Simulation::with_policy(policy);
        let r = sim.add_resource("node0.membus", bw(1e9));
        for j in 0..3 {
            let label = named(&mut sim, "a{}", [j, 0]);
            sim.activity(label, SimTime::ZERO, &[stage(r, 1000, SimDuration::ZERO)]);
        }
        (sim.run().unwrap(), r)
    };
    let (fifo, r) = build(SharePolicy::Fifo);
    let (fair, _) = build(SharePolicy::FairShare);

    let uf = &fifo.resource_usages()[0];
    assert_eq!(uf.max_active, 1);
    assert_eq!(uf.max_queue_len, 2);
    assert_eq!(fifo.wait_hist(r).count(), 3);
    // Two of the three waited: one and two service times.
    assert_eq!(fifo.wait_hist(r).min(), Some(0));
    assert_eq!(fifo.wait_hist(r).max(), Some(2_000));
    assert_eq!(fifo.class_max_queues(), vec![("membus".to_string(), 1)]);
    assert_eq!(
        fifo.engine_profile().class_max_queue,
        fifo.class_max_queues()
    );

    let ua = &fair.resource_usages()[0];
    assert_eq!(ua.max_active, 3);
    assert_eq!(ua.max_queue_len, 2);
    assert_eq!(fair.wait_hist(r).count(), 3);
    assert_eq!(fair.wait_hist(r).max(), Some(0));
    assert_eq!(fair.class_max_queues(), vec![("membus".to_string(), 3)]);
    assert_eq!(
        fair.engine_profile().class_max_queue,
        fair.class_max_queues()
    );

    // Both engines deliver the same aggregate service and bytes.
    assert_eq!(uf.busy_time, ua.busy_time);
    assert_eq!(uf.bytes_served, ua.bytes_served);
    assert_eq!(uf.jobs_served, ua.jobs_served);
}

/// Claim (d) at the engine level: the same seeded workload replays to
/// byte-identical reports under fair sharing — finish times, engine
/// stats (including the heap-depth histogram), and the rendered trace.
#[test]
fn seeded_replay_is_deterministic_under_fair_sharing() {
    let build = || {
        let mut sim = Simulation::with_policy(SharePolicy::FairShare);
        sim.enable_trace();
        let r1 = sim.add_resource("node0.membus", bw(2e9));
        let r2 = sim.add_resource_with_capacity("ost0", bw(5e8), 2);
        let mut prev = None;
        for j in 0..40u64 {
            let stages = [
                stage(r1, 100 + j * 13, SimDuration::from_nanos(j % 7)),
                stage(r2, 50 + j * 11, SimDuration::from_nanos(j % 5)),
            ];
            let label = named(&mut sim, "a{}", [j as usize, 0]);
            let a = sim.activity(label, SimTime::from_nanos(j * 37), &stages);
            if j % 3 == 0 {
                if let Some(p) = prev {
                    sim.add_dep(p, a);
                }
            }
            prev = Some(a);
        }
        sim.run().unwrap()
    };
    let x = build();
    let y = build();
    assert_eq!(x.makespan(), y.makespan());
    assert_eq!(x.engine_stats(), y.engine_stats());
    assert_eq!(x.resource_usages(), y.resource_usages());
    assert_eq!(x.trace(), y.trace());
    assert_eq!(x.engine_profile(), y.engine_profile());
    // Fair sharing genuinely engaged: re-predictions happened.
    assert!(x.engine_stats().events_cancelled > 0);
}

/// Event-pool stress: many short generations of fair transfers force
/// heavy slot recycling; the pool must keep the heap high-water near
/// the *concurrent* event count, far below the total scheduled.
#[test]
fn event_pool_bounds_heap_high_water_under_churn() {
    let mut sim = Simulation::with_policy(SharePolicy::FairShare);
    let r = sim.add_resource("r", bw(1e9));
    // 200 serial waves of 2 concurrent transfers each.
    let mut prev: Option<mcio_des::ActivityId> = None;
    for w in 0..200u64 {
        let [la, lb] = ["w{}a", "w{}b"].map(|t| named(&mut sim, t, [w as usize, 0]));
        let a = sim.activity(la, SimTime::ZERO, &[stage(r, 1000 + w, SimDuration::ZERO)]);
        let b = sim.activity(lb, SimTime::ZERO, &[stage(r, 900 + w, SimDuration::ZERO)]);
        if let Some(p) = prev {
            sim.add_dep(p, a);
            sim.add_dep(p, b);
        }
        prev = Some(a);
    }
    let rep = sim.run().unwrap();
    let es = rep.engine_stats();
    assert_eq!(
        es.events_scheduled,
        es.events_processed + es.events_cancelled
    );
    assert!(es.events_cancelled >= 200, "every wave re-predicts");
    // The wave structure keeps true concurrency tiny; cancelled heap
    // entries linger only until popped, so the high-water must stay at
    // a small constant, not grow with the 1000+ total events.
    assert!(
        es.max_queue_depth < 64,
        "heap high-water {} should track concurrency, not total events",
        es.max_queue_depth
    );
}
