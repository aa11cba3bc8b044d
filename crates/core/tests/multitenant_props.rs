//! Differential conformance properties of the multi-tenant runner.
//!
//! The multi-tenant layer must be a *conservative extension* of the
//! solo executors:
//!
//! * a single job (offset 0, start 0) run through `run_multitenant` is
//!   byte-identical to `simulate_observed` — same `TimingReport`
//!   (including structured metrics), same trace JSON, for both
//!   strategies and every pipeline/exchange combination;
//! * K jobs on disjoint files each deliver exactly the file bytes
//!   their solo run delivers (tenancy perturbs *time*, never *data*);
//! * a seeded multi-tenant run replays deterministically, trace bytes
//!   included;
//! * a job's probe against a `Ledger` of committed service never ends
//!   before its baseline, and a probe nobody commits changes nothing;
//! * the ledger's service, folded at each commit, probes exactly as the
//!   per-probe derivation from every committed record did, and a probe
//!   before the last commit is refused (debug builds);
//! * a job's solo baseline is the same at every node offset of a machine
//!   whose nodes all run at one rate (what lets the scheduler take it
//!   once per job), and not on a partition with a straggler; a probe on
//!   an empty ledger is that baseline at every offset and start.

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::exec_sim::{Exchange, Held, Observe, Pipeline};
use mcio_core::{
    exec_fn, mcio, run_multitenant, simulate_observed, twophase, AdaptivePolicy, CollectiveConfig,
    CollectivePlan, CollectiveRequest, Extent, Ledger, Probe, ProcMemory, Rw, Strategy, SyncMode,
    TenantJob,
};
use mcio_des::{ResourceId, ServiceWindow, SharePolicy, SimDuration, SimTime};
use mcio_obs::intervals::merge_intervals;
use mcio_pfs::SparseFile;
use proptest::prelude::*;
use std::sync::Arc;

const KIB: u64 = 1024;

/// The access shapes of the differential suite (see `diff_props.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Contiguous,
    Strided,
    Nested,
}

/// Build a write request of `shape` with a per-job byte offset so
/// multiple jobs can target disjoint file regions ("own files": the
/// PFS namespace is flat, so a file is a region of the offset space).
fn build_request(
    shape: Shape,
    nranks: usize,
    bs: u64,
    blocks: usize,
    base: u64,
) -> CollectiveRequest {
    build_rw_request(Rw::Write, shape, nranks, bs, blocks, base)
}

fn build_rw_request(
    rw: Rw,
    shape: Shape,
    nranks: usize,
    bs: u64,
    blocks: usize,
    base: u64,
) -> CollectiveRequest {
    let per_rank: Vec<Vec<Extent>> = (0..nranks as u64)
        .map(|r| match shape {
            Shape::Contiguous => {
                let chunk = bs * blocks as u64;
                vec![Extent::new(base + r * chunk, chunk)]
            }
            Shape::Strided => (0..blocks as u64)
                .map(|b| Extent::new(base + (b * nranks as u64 + r) * bs, bs))
                .collect(),
            Shape::Nested => {
                let inner_span = 2 * bs * blocks as u64;
                (0..blocks as u64)
                    .map(|i| Extent::new(base + r * inner_span + i * 2 * bs, bs))
                    .collect()
            }
        })
        .collect();
    CollectiveRequest::new(rw, per_rank)
}

fn plan_for(
    strategy: Strategy,
    req: &CollectiveRequest,
    map: &ProcessMap,
    mem: &ProcMemory,
    cfg: &CollectiveConfig,
) -> CollectivePlan {
    match strategy {
        Strategy::TwoPhase => twophase::plan(req, map, mem, cfg),
        Strategy::MemoryConscious => mcio::plan(req, map, mem, cfg),
    }
}

/// Execute a write plan and return the file image over the hull.
fn file_image(plan: &CollectivePlan, req: &CollectiveRequest) -> Vec<u8> {
    let mut file = SparseFile::new();
    exec_fn::execute_write(plan, &mut file).expect("plan executes");
    exec_fn::verify_write(req, &file).expect("written bytes match the oracle");
    let hull = req.hull();
    file.read_vec(0, hull.end() as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One job in multi-tenant mode ≡ `simulate_observed`, byte for
    /// byte: identical timing report, metrics and trace JSON.
    #[test]
    fn single_job_is_byte_identical_to_solo(
        shape in prop::sample::select(vec![
            Shape::Contiguous, Shape::Strided, Shape::Nested,
        ]),
        strategy in prop::sample::select(vec![
            Strategy::TwoPhase, Strategy::MemoryConscious,
        ]),
        nranks in prop::sample::select(vec![6usize, 8, 12]),
        pipeline in prop::sample::select(vec![Pipeline::Serial, Pipeline::DoubleBuffered]),
        exchange in prop::sample::select(vec![Exchange::Direct, Exchange::TwoLevel]),
        bs in prop::sample::select(vec![16 * KIB, 64 * KIB]),
        uneven in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let req = build_request(shape, nranks, bs, 3, 0);
        let map = ProcessMap::block_ppn(nranks, 4);
        let budget = 4 * bs;
        let mem = if uneven {
            ProcMemory::normal(nranks, budget, 0.35, seed)
        } else {
            ProcMemory::uniform(nranks, budget)
        };
        let cfg = CollectiveConfig::with_buffer(budget);
        let cluster = ClusterSpec::small(map.nnodes(), 4);
        let plan = plan_for(strategy, &req, &map, &mem, &cfg);

        let (solo_report, solo_trace) = simulate_observed(
            &plan, &map, &cluster, pipeline, exchange,
            Observe { registry: None, trace: true, prof: None, ..Observe::default() },
        );
        let mt = run_multitenant(
            &[TenantJob::new("only", plan.clone(), map.clone())
                .pipeline(pipeline)
                .exchange(exchange)],
            &cluster,
            None, AdaptivePolicy::Off,
            Observe { registry: None, trace: true, prof: None, ..Observe::default() },
        );

        prop_assert_eq!(mt.jobs.len(), 1);
        prop_assert_eq!(&mt.jobs[0].report, &solo_report,
            "single-job timing must match the solo executor");
        prop_assert_eq!(mt.trace.as_deref(), solo_trace.as_deref(),
            "single-job trace bytes must match the solo executor");
        prop_assert_eq!(mt.makespan, solo_report.elapsed);
        prop_assert!((mt.jobs[0].slowdown - 1.0).abs() < 1e-12,
            "a lone tenant has slowdown 1.0, got {}", mt.jobs[0].slowdown);
        prop_assert_eq!(mt.jobs[0].ost_overlap, 0.0);
    }

    /// K jobs on disjoint files: tenancy shifts time, never bytes —
    /// each job's plan still delivers exactly its solo file image, and
    /// no job gets faster than running alone.
    #[test]
    fn disjoint_file_jobs_reproduce_solo_bytes(
        k in 2usize..5,
        shape in prop::sample::select(vec![
            Shape::Contiguous, Shape::Strided, Shape::Nested,
        ]),
        strategy in prop::sample::select(vec![
            Strategy::TwoPhase, Strategy::MemoryConscious,
        ]),
        stagger_us in prop::sample::select(vec![0u64, 150, 400]),
        seed in 0u64..1000,
    ) {
        let nranks = 8usize;
        let ppn = 2usize;
        let bs = 32 * KIB;
        let nnodes = nranks / ppn;
        let cluster = ClusterSpec::small(k * nnodes, 2);

        let mut jobs = Vec::new();
        let mut solo_images = Vec::new();
        let mut requests = Vec::new();
        for ji in 0..k as u64 {
            // Each job owns a disjoint region of the offset space — its
            // "file" — and its own node partition.
            let base = ji * 64 * 1024 * KIB;
            let req = build_request(shape, nranks, bs, 3, base);
            let map = ProcessMap::block_ppn(nranks, ppn);
            let mem = ProcMemory::normal(nranks, 4 * bs, 0.3, seed + ji);
            let cfg = CollectiveConfig::with_buffer(4 * bs);
            let plan = plan_for(strategy, &req, &map, &mem, &cfg);
            solo_images.push(file_image(&plan, &req));
            jobs.push(
                TenantJob::new(format!("job{ji}"), plan, map)
                    .node_offset(ji as usize * nnodes)
                    .start(SimDuration::from_micros(ji * stagger_us)),
            );
            requests.push(req);
        }

        let mt = run_multitenant(&jobs, &cluster, None, AdaptivePolicy::Off,
            Observe { registry: None, trace: false, prof: None, ..Observe::default() });

        prop_assert_eq!(mt.jobs.len(), k);
        for (ji, outcome) in mt.jobs.iter().enumerate() {
            // The bytes a job writes are a property of its plan — the
            // shared machine must not have changed them.
            let image = file_image(&jobs[ji].plan, &requests[ji]);
            prop_assert_eq!(&image, &solo_images[ji],
                "job {} file bytes diverged from its solo run", ji);
            // Sharing a machine can only cost time.
            prop_assert!(outcome.slowdown >= 1.0 - 1e-9,
                "job {} sped up under contention: slowdown {}", ji, outcome.slowdown);
            prop_assert!(outcome.end_ns >= outcome.start_ns);
            prop_assert!((0.0..=1.0).contains(&outcome.ost_overlap));
        }
        prop_assert!(mt.makespan.as_nanos()
            >= mt.jobs.iter().map(|j| j.end_ns).max().unwrap_or(0));
    }

    /// Seeded replay: the same multi-tenant input produces the same
    /// outcome — reports and trace bytes — every time.
    #[test]
    fn multitenant_replay_is_deterministic(
        k in 2usize..4,
        strategy in prop::sample::select(vec![
            Strategy::TwoPhase, Strategy::MemoryConscious,
        ]),
        seed in 0u64..1000,
    ) {
        let nranks = 8usize;
        let ppn = 2usize;
        let bs = 32 * KIB;
        let nnodes = nranks / ppn;
        // Overlapping partitions on purpose: every job shares the same
        // nodes, so contention is maximal and any nondeterminism in the
        // shared lowering would surface.
        let cluster = ClusterSpec::small(nnodes, 2);
        let jobs: Vec<TenantJob> = (0..k as u64)
            .map(|ji| {
                let req = build_request(Shape::Strided, nranks, bs, 3, ji * 1024 * KIB);
                let map = ProcessMap::block_ppn(nranks, ppn);
                let mem = ProcMemory::normal(nranks, 4 * bs, 0.3, seed + ji);
                let cfg = CollectiveConfig::with_buffer(4 * bs);
                let plan = plan_for(strategy, &req, &map, &mem, &cfg);
                TenantJob::new(format!("job{ji}"), plan, map)
                    .start(SimDuration::from_micros(ji * 100))
            })
            .collect();

        let a = run_multitenant(&jobs, &cluster, None, AdaptivePolicy::Off,
            Observe { registry: None, trace: true, prof: None, ..Observe::default() });
        let b = run_multitenant(&jobs, &cluster, None, AdaptivePolicy::Off,
            Observe { registry: None, trace: true, prof: None, ..Observe::default() });
        prop_assert_eq!(&a.jobs, &b.jobs, "job outcomes must replay identically");
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(&a.trace, &b.trace, "trace bytes must replay identically");
    }

    /// Committed service only slows a newcomer. Jobs drawn from a pool
    /// of write and read plans under global and per-group sync, placed
    /// on overlapping partitions at staggered starts with either
    /// pipeline, are probed and committed one after another under
    /// either engine: the first probe is its job's baseline, no probe
    /// ends before its baseline, and a second ledger that also probes
    /// (and drops) the next job before every commit probes and commits
    /// exactly what the first one does.
    #[test]
    fn committed_service_only_slows_a_newcomer(
        placed in placements(),
        fair in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let (cluster, jobs) = stream(&placed, seed);
        let engine = if fair { SharePolicy::FairShare } else { SharePolicy::Fifo };
        let mut ledger = Ledger::new(&cluster, engine);
        let mut probed = Ledger::new(&cluster, engine);
        for (ji, job) in jobs.iter().enumerate() {
            let probe = ledger.probe(job);
            let base = job.baseline(&cluster, engine);
            if ji == 0 {
                prop_assert_eq!(probe.span, base, "an empty ledger");
                prop_assert_eq!(probe.ost_overlap, 0.0);
            }
            prop_assert!(probe.span >= base, "job {}: {:?} < {:?}", ji, probe.span, base);
            if let Some(next) = jobs.get(ji + 1) {
                let _rejected = probed.probe(&next.clone().start(job.start));
            }
            prop_assert_eq!(&probed.probe(job), &probe);
            ledger.commit(probe.clone());
            probed.commit(probe);
        }
    }

    /// The folded ledger probes as the record filter it replaced did.
    /// Every probe of a random stream under either engine — each job at
    /// its start, and before every commit the next job probed and
    /// dropped at a later instant — is [`reference_probe`]'s run
    /// against every record committed so far: span, OST overlap,
    /// engine counters and service records alike.
    #[test]
    fn the_folded_ledger_probes_as_the_record_filter_did(
        placed in placements(),
        later in prop::collection::vec(
            prop::sample::select(vec![0u64, 1, 20_000, 150_000, 900_000, 4_000_000]),
            6,
        ),
        fair in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let (cluster, jobs) = stream(&placed, seed);
        let engine = if fair { SharePolicy::FairShare } else { SharePolicy::Fifo };
        let mut ledger = Ledger::new(&cluster, engine);
        let mut records: Vec<Held> = Vec::new();
        for (ji, job) in jobs.iter().enumerate() {
            let probe = ledger.probe(job);
            let oracle = reference_probe(&cluster, engine, job, &records);
            prop_assert_eq!(&probe, &oracle, "job {} at its start", ji);
            if let Some(next) = jobs.get(ji + 1) {
                let at = job.start + SimDuration::from_nanos(later[ji]);
                let next = next.clone().start(at);
                let oracle = reference_probe(&cluster, engine, &next, &records);
                prop_assert_eq!(
                    &ledger.probe(&next), &oracle,
                    "job {} probed at {:?} before job {} commits", ji + 1, at, ji
                );
            }
            records.extend_from_slice(probe.held());
            ledger.commit(probe);
        }
    }
}

/// Where a stream places its jobs: pool entry, partition slot, gap
/// after the previous arrival (microseconds) and double buffering.
fn placements() -> impl proptest::strategy::Strategy<Value = Vec<(usize, usize, u64, bool)>> {
    prop::collection::vec(
        (
            0usize..4,
            0usize..3,
            prop::sample::select(vec![0u64, 40, 400]),
            any::<bool>(),
        ),
        2..6,
    )
}

/// A stream of jobs `placed` on three 4-node partitions of a 12-node
/// machine (jobs may share one), drawn from a pool of write and read
/// plans under global and per-group sync.
fn stream(placed: &[(usize, usize, u64, bool)], seed: u64) -> (ClusterSpec, Vec<TenantJob>) {
    let nranks = 8usize;
    let ppn = 2usize;
    let bs = 32 * KIB;
    let nnodes = nranks / ppn;
    let pool: Vec<(Arc<CollectivePlan>, ProcessMap)> = [
        (Strategy::MemoryConscious, Shape::Strided, Rw::Write),
        (Strategy::TwoPhase, Shape::Contiguous, Rw::Write),
        (Strategy::MemoryConscious, Shape::Nested, Rw::Read),
        (Strategy::TwoPhase, Shape::Strided, Rw::Read),
    ]
    .into_iter()
    .zip(0u64..)
    .map(|((strategy, shape, rw), pi)| {
        let req = build_rw_request(rw, shape, nranks, bs, 3, pi * 64 * 1024 * KIB);
        let map = ProcessMap::block_ppn(nranks, ppn);
        let mem = ProcMemory::normal(nranks, 4 * bs, 0.3, seed + pi);
        let cfg = CollectiveConfig::with_buffer(4 * bs);
        (plan_for(strategy, &req, &map, &mem, &cfg).into(), map)
    })
    .collect();
    assert_eq!(
        [pool[0].0.sync, pool[1].0.sync],
        [SyncMode::PerGroup, SyncMode::Global]
    );
    let mut start_us = 0;
    let jobs = (placed.iter().enumerate())
        .map(|(ji, &(pi, slot, gap_us, double))| {
            start_us += gap_us;
            let (plan, map) = &pool[pi];
            TenantJob::new(format!("job{ji}"), Arc::clone(plan), map.clone())
                .node_offset(slot * nnodes)
                .start(SimDuration::from_micros(start_us))
                .pipeline(if double {
                    Pipeline::DoubleBuffered
                } else {
                    Pipeline::Serial
                })
        })
        .collect();
    (ClusterSpec::small(3 * nnodes, 2), jobs)
}

/// `job` probed against the committed `records` as the ledger did
/// before it folded them at commit: every record not ended by the
/// job's start, one edge sweep per resource into [`ServiceWindow`]s,
/// and the merged union of the OST records.
fn reference_probe(
    cluster: &ClusterSpec,
    engine: SharePolicy,
    job: &TenantJob,
    records: &[Held],
) -> Probe {
    let start_ns = job.start.as_nanos();
    let held: Vec<Held> = (records.iter())
        .filter(|h| h.end_ns > start_ns)
        .copied()
        .collect();
    let mut edges: Vec<(ResourceId, u64, i64, usize)> = (held.iter())
        .flat_map(|h| {
            [(h.start_ns, 1), (h.end_ns, -1)].map(|(t, d)| (h.resource, t, d, h.capacity))
        })
        .collect();
    edges.sort_unstable();
    let mut service: Vec<(ResourceId, Vec<ServiceWindow>)> = Vec::new();
    for edges in edges.chunk_by(|a, b| a.0 == b.0) {
        let capacity = edges[0].3 as f64;
        let mut windows: Vec<ServiceWindow> = Vec::new();
        let (mut k, mut i) = (0, 0);
        while i < edges.len() {
            let t = edges[i].1;
            while edges.get(i).is_some_and(|e| e.1 == t) {
                k += edges[i].2;
                i += 1;
            }
            let Some(&(_, next, _, _)) = edges.get(i) else {
                break;
            };
            let rate = (capacity / (k + 1) as f64).min(1.0);
            if rate < 1.0 {
                let (start, end) = (SimTime::from_nanos(t), SimTime::from_nanos(next));
                match windows.last_mut() {
                    Some(w) if w.end == start && w.rate == rate => w.end = end,
                    _ => windows.push(ServiceWindow { start, end, rate }),
                }
            }
        }
        if !windows.is_empty() {
            service.push((edges[0].0, windows));
        }
    }
    let ost = held.iter().filter(|h| h.ost);
    let ost_busy = merge_intervals(ost.map(|h| (h.start_ns, h.end_ns)).collect());
    let windows: Vec<(ResourceId, &[ServiceWindow])> =
        service.iter().map(|(r, w)| (*r, &w[..])).collect();
    Probe::against(cluster, engine, job, &windows, &ost_busy)
}

/// A probe may not start before the ledger's last commit: what the
/// commit folded away could have slowed it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "starts before the last commit")]
fn a_probe_before_the_last_commit_is_refused() {
    let (cluster, jobs) = stream(&[(0, 0, 400, false), (1, 1, 0, false)], 7);
    let mut ledger = Ledger::new(&cluster, SharePolicy::Fifo);
    ledger.commit(ledger.probe(&jobs[0]));
    ledger.probe(&jobs[1].clone().start(SimDuration::from_micros(399)));
}

/// A job alone takes as long on any partition of a machine whose nodes
/// all run at one rate, under either engine: the fact that lets the
/// scheduler simulate each job's baseline once, at offset 0, and hand
/// it to every commit that places the job. A probe on an empty ledger
/// is that baseline at every offset and start. A straggler node breaks
/// it.
#[test]
fn a_baseline_is_the_same_at_every_offset_of_uniform_nodes() {
    let nranks = 8usize;
    let bs = 32 * KIB;
    let map = ProcessMap::block_ppn(nranks, 2);
    let mem = ProcMemory::normal(nranks, 4 * bs, 0.3, 7);
    let cfg = CollectiveConfig::with_buffer(4 * bs);
    let uniform = ClusterSpec::small(12, 2);
    let offsets = 0..=uniform.nodes - map.nnodes();
    for (strategy, shape, rw) in [
        (Strategy::MemoryConscious, Shape::Strided, Rw::Write),
        (Strategy::TwoPhase, Shape::Nested, Rw::Read),
    ] {
        let req = build_rw_request(rw, shape, nranks, bs, 3, 0);
        let plan = Arc::new(plan_for(strategy, &req, &map, &mem, &cfg));
        for pipeline in [Pipeline::Serial, Pipeline::DoubleBuffered] {
            let at = |offset: usize| {
                TenantJob::new("j", Arc::clone(&plan), map.clone())
                    .node_offset(offset)
                    .pipeline(pipeline)
            };
            for engine in [SharePolicy::Fifo, SharePolicy::FairShare] {
                let base = at(0).baseline(&uniform, engine);
                let empty = Ledger::new(&uniform, engine);
                for offset in offsets.clone() {
                    let here = at(offset).baseline(&uniform, engine);
                    assert_eq!(
                        here, base,
                        "{strategy:?} {pipeline:?} {engine:?} at {offset}"
                    );
                    for start in [0, 1, 120_000, 1_654_454_484] {
                        let probe = empty.probe(&at(offset).start(SimDuration::from_nanos(start)));
                        assert_eq!(
                            probe.span, base,
                            "{strategy:?} {pipeline:?} {engine:?} at {offset}, start {start}"
                        );
                    }
                }
                // Node 5 at quarter speed: the partitions holding it are
                // slower alone.
                let straggler = uniform.clone().with_straggler(5, 0.25);
                let clear = at(8).baseline(&straggler, engine);
                assert_eq!(clear, base, "a partition without the straggler");
                let slow = at(4).baseline(&straggler, engine);
                assert!(slow > base, "{strategy:?} {engine:?}: {slow:?} vs {base:?}");
            }
        }
    }
}
