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
//! * a `TenantSession` that has already answered other runs returns
//!   exactly what a fresh `run_multitenant` call returns — the paused
//!   run it resumes never changes a result, only how much of a shared
//!   run is simulated again;
//! * a job's solo baseline is the same at every node offset of a machine
//!   whose nodes all run at one rate (what lets the scheduler take it
//!   once per job), and not on a partition with a straggler.

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::exec_sim::{Exchange, Observe, Pipeline};
use mcio_core::{
    exec_fn, mcio, run_multitenant, simulate_observed, twophase, AdaptivePolicy, CollectiveConfig,
    CollectivePlan, CollectiveRequest, Extent, ProcMemory, Rw, Strategy, SyncMode, TenantJob,
    TenantSession,
};
use mcio_des::{SharePolicy, SimDuration};
use mcio_obs::export::to_json;
use mcio_obs::Registry;
use mcio_pfs::SparseFile;
use proptest::prelude::*;
use std::sync::Arc;

const KIB: u64 = 1024;

/// What a run of the warm-session property is handed besides its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Traced,
    Untraced,
    /// A metrics registry.
    Registry,
}

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

    /// A warm session ≡ a fresh call. Five runs draw tenants from three
    /// placed jobs — a plan of the pool at an offset, a pipeline and an
    /// exchange shape — so the same placed job comes back at another
    /// start (behind a start gate after none and the reverse), at
    /// another index among the tenants (`j2.` → `j0.` → no prefix when
    /// it is alone) and twice in one run, under both engines, traced
    /// and not; the pool holds write and read plans under global and
    /// per-group sync. A run resumes the paused run of the one before
    /// when it begins with its jobs at the same starts, else lowers
    /// every job afresh; handed each job's baseline, the whole report
    /// (solo baselines, slowdowns, overlaps, trace bytes) must still
    /// match. A run with a registry neither pauses nor resumes, and must
    /// match too, registry rows included.
    #[test]
    fn warm_session_matches_fresh_runs(
        placed in prop::collection::vec(
            (0usize..4, 0usize..3, any::<bool>(), any::<bool>()),
            3,
        ),
        runs in prop::collection::vec(
            (
                prop::collection::vec(
                    (0usize..3, prop::sample::select(vec![0u64, 120, 400])),
                    1..5,
                ),
                prop::sample::select(vec![
                    Mode::Traced, Mode::Traced, Mode::Traced, Mode::Untraced, Mode::Untraced,
                    Mode::Registry,
                ]),
            ),
            5,
        ),
        fair in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let nranks = 8usize;
        let ppn = 2usize;
        let bs = 32 * KIB;
        let nnodes = nranks / ppn;
        let cluster = ClusterSpec::small(3 * nnodes, 2);
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
        prop_assert_eq!(
            [pool[0].0.sync, pool[1].0.sync],
            [SyncMode::PerGroup, SyncMode::Global]
        );
        let mut session = TenantSession::new(&cluster);
        for (ri, (picks, mode)) in runs.iter().enumerate() {
            let jobs: Vec<TenantJob> = picks
                .iter()
                .enumerate()
                .map(|(ji, &(which, start_us))| {
                    let (pi, slot, double, two_level) = placed[which];
                    let (plan, map) = &pool[pi];
                    TenantJob::new(format!("job{ji}"), Arc::clone(plan), map.clone())
                        .node_offset(slot * nnodes)
                        .start(SimDuration::from_micros(start_us))
                        .pipeline(if double { Pipeline::DoubleBuffered } else { Pipeline::Serial })
                        .exchange(if two_level { Exchange::TwoLevel } else { Exchange::Direct })
                })
                .collect();
            // Alternate engines so one plan is baselined under both.
            let engine = if fair ^ (ri % 2 == 1) {
                SharePolicy::FairShare
            } else {
                SharePolicy::Fifo
            };
            let solo: Vec<SimDuration> =
                jobs.iter().map(|job| job.baseline(&cluster, engine)).collect();
            let registries = [Registry::shared(), Registry::shared()];
            let obs = |reg| Observe {
                trace: *mode != Mode::Untraced,
                registry: (*mode == Mode::Registry).then_some(reg),
                engine,
                ..Observe::default()
            };
            let warm = session.run(&jobs, &solo, obs(&registries[0]));
            let fresh = run_multitenant(
                &jobs, &cluster, None, AdaptivePolicy::Off, obs(&registries[1]),
            );
            prop_assert_eq!(&warm, &fresh, "run {} diverged on a warm session", ri);
            let [warm, fresh] = registries.map(|reg| to_json(&reg.snapshot()));
            prop_assert_eq!(warm, fresh, "run {} recorded other metrics on a warm session", ri);
        }
    }
}

/// A run that drops the latest run's first job resumes nothing — that
/// job is part of the residents' history — so it lowers every job
/// afresh, including the two it shares with the latest run, and must
/// equal a fresh call, report and trace bytes.
#[test]
fn a_run_without_the_first_job_lowers_every_job_afresh() {
    let nranks = 8usize;
    let ppn = 2usize;
    let bs = 32 * KIB;
    let cluster = ClusterSpec::small(8, 2);
    let map = ProcessMap::block_ppn(nranks, ppn);
    let mem = ProcMemory::uniform(nranks, 4 * bs);
    let cfg = CollectiveConfig::with_buffer(4 * bs);
    let strategies = [
        Strategy::MemoryConscious,
        Strategy::TwoPhase,
        Strategy::MemoryConscious,
    ];
    let jobs: Vec<TenantJob> = (strategies.into_iter().enumerate())
        .map(|(ji, strategy)| {
            let base = ji as u64 * 64 * 1024 * KIB;
            let req = build_request(Shape::Strided, nranks, bs, 3, base);
            let plan = plan_for(strategy, &req, &map, &mem, &cfg);
            TenantJob::new(format!("job{ji}"), plan, map.clone())
                .node_offset(2 * ji)
                .start(SimDuration::from_micros(120 * ji as u64))
        })
        .collect();
    let traced = Observe {
        trace: true,
        ..Observe::default()
    };
    let solo: Vec<SimDuration> = (jobs.iter())
        .map(|job| job.baseline(&cluster, SharePolicy::Fifo))
        .collect();
    let mut session = TenantSession::new(&cluster);
    session.run(&jobs, &solo, traced);
    let rest = &jobs[1..];
    let warm = session.run(rest, &solo[1..], traced);
    assert_eq!(session.events_resumed(), 0, "no run resumed");
    let fresh = run_multitenant(rest, &cluster, None, AdaptivePolicy::Off, traced);
    assert!(warm.trace.is_some());
    assert_eq!(warm, fresh, "report and trace bytes");
}

/// A job alone takes as long on any partition of a machine whose nodes
/// all run at one rate, under either engine: the fact that lets the
/// scheduler simulate each job's baseline once, at offset 0, and hand
/// it to every commit that places the job. A straggler node breaks it.
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
                for offset in offsets.clone() {
                    let here = at(offset).baseline(&uniform, engine);
                    assert_eq!(
                        here, base,
                        "{strategy:?} {pipeline:?} {engine:?} at {offset}"
                    );
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
