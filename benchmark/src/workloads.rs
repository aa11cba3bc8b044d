//! The four workloads. An *op* is one pass over a workload's fixed cell
//! list; every call into a layer of the simulator sits in a span, and
//! every deterministic number the op produces lands in [`Ctx::counts`],
//! which doubles as the op's digest (every op must reproduce op 1's).
//!
//! The harness only calls public functions of the crates and times them
//! from outside. In the timed run tracing, profiling and the metrics
//! registry are all off; the traced run passes a `Prof` through `Observe`
//! to split `simulate_*` into lowering, event loop and trace emission.
//! Only the final, checked op of either run hands the simulator a
//! `Registry`, for the PFS byte ledger.

use crate::spans::Recorder;
use mcio_analyze::{analyze, default_bucket_ns, timeline, TraceModel};
use mcio_bench::{perf, Harness, TESTBED_PPN};
use mcio_cluster::spec::ClusterSpec;
use mcio_core::exec_sim::{simulate_observed, Exchange, Observe, Pipeline, TimingReport};
use mcio_core::plan::CollectivePlan;
use mcio_core::{
    mcio, simulate_faulted, twophase, CollectiveConfig, CollectiveRequest, ProcMemory, Rw, Strategy,
};
use mcio_des::{SharePolicy, SimDuration};
use mcio_faults::FaultSpec;
use mcio_obs::Registry;
use mcio_prof::Prof;
use mcio_sched::{render_schedule, run_schedule, JobTrace, Policy, SchedConfig};
use std::collections::BTreeMap;

const MIB: u64 = 1 << 20;

/// Workload names, in the order `run.sh` visits them.
pub const NAMES: [&str; 4] = ["plan_heavy", "des_heavy", "trace_analyze", "sched_stream"];

/// Nodes (= ranks, one per node) of the `des_heavy` machine: the
/// `perf_suite --exascale` matrix at 1/32 scale, so that a run of a few
/// seconds still holds ten ops.
const DES_NODES: usize = 32_768;

/// Deterministic numbers of one op, by metric-style key.
pub type Counts = BTreeMap<String, u64>;

/// What an op needs besides its inputs.
pub struct Ctx<'a> {
    pub rec: &'a mut Recorder,
    /// Traced run: hand the simulator a profiler.
    pub traced: bool,
    /// `Some` on the checked op; failed checks are appended.
    pub failures: Option<Vec<String>>,
    pub counts: Counts,
}

impl<'a> Ctx<'a> {
    pub fn new(rec: &'a mut Recorder, traced: bool, checked: bool) -> Self {
        Ctx {
            rec,
            traced,
            failures: checked.then(Vec::new),
            counts: Counts::new(),
        }
    }

    fn add(&mut self, key: &str, v: u64) {
        *self.counts.entry(key.to_string()).or_default() += v;
    }

    fn max(&mut self, key: &str, v: u64) {
        let e = self.counts.entry(key.to_string()).or_default();
        *e = (*e).max(v);
    }

    /// Run `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx<'a>) -> T) -> T {
        let id = self.rec.begin(name);
        let out = f(self);
        self.rec.end(id);
        out
    }

    fn checking(&self) -> bool {
        self.failures.is_some()
    }

    /// Record a failed check (no-op outside the checked op).
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if let Some(f) = &mut self.failures {
            if !ok {
                f.push(what());
            }
        }
    }
}

/// One workload, set up: `op` runs its cell list once.
pub trait Workload {
    fn op(&self, cx: &mut Ctx<'_>);
}

/// Build the inputs of workload `name` from `seed`. Seed 0 is the
/// committed seeds of the scenarios; any other seed is XORed into every
/// memory draw. The crates only ever see the generated inputs.
pub fn setup(name: &str, seed: u64, rec: &mut Recorder) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "plan_heavy" => Box::new(PlanHeavy::setup(seed, rec)),
        "des_heavy" => Box::new(DesHeavy::setup(seed, rec)),
        "trace_analyze" => Box::new(TraceAnalyze::setup(seed, rec)?),
        "sched_stream" => Box::new(SchedStream::setup(seed, rec)?),
        _ => {
            return Err(format!(
                "unknown workload `{name}` (one of: {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// A request on a machine with its memory environment and knobs — what
/// `mcio_bench::perf` builds for each cell of its matrix.
struct Scene {
    req: CollectiveRequest,
    /// `req.total_bytes()`, which walks every extent: summed once here,
    /// not inside the timed op.
    req_bytes: u64,
    h: Harness,
    env: ProcMemory,
    cfg: CollectiveConfig,
    /// True at seed 0, where the cells must equal the committed rows.
    golden: bool,
}

impl Scene {
    fn new(
        rec: &mut Recorder,
        seed: u64,
        base_seed: u64,
        spec: ClusterSpec,
        ranks: usize,
        ppn: usize,
        make_req: impl FnOnce() -> CollectiveRequest,
    ) -> Scene {
        let buffer = 16 * MIB;
        let req = rec.span("workloads.gen", |_| make_req());
        let (h, env, cfg) = rec.span("cluster.harness", |_| {
            let h = Harness::new(spec, ranks, ppn, base_seed ^ seed);
            let (_, env) = h.memories(buffer);
            let cfg = h.config_for(&req, buffer);
            (h, env, cfg)
        });
        Scene {
            req_bytes: req.total_bytes(),
            req,
            h,
            env,
            cfg,
            golden: seed == 0,
        }
    }

    /// The `perf::scenarios()` entry `name`, rebuilt (its request maker
    /// is private to `mcio_bench`; buffer, seed and rank count are read
    /// from the public fields so they cannot drift).
    fn perf_scenario(
        rec: &mut Recorder,
        seed: u64,
        name: &str,
        spec: ClusterSpec,
        make_req: impl FnOnce() -> CollectiveRequest,
    ) -> Scene {
        let s = perf::scenarios()
            .into_iter()
            .find(|s| s.name == name)
            .expect("perf scenario exists");
        assert_eq!((s.buffer, s.engine), (16 * MIB, SharePolicy::Fifo));
        Scene::new(rec, seed, s.seed, spec, s.ranks, TESTBED_PPN, make_req)
    }

    fn plan(&self, cx: &mut Ctx<'_>, strategy: Strategy) -> CollectivePlan {
        self.plan_for(cx, strategy, &self.req)
    }

    fn plan_for(
        &self,
        cx: &mut Ctx<'_>,
        strategy: Strategy,
        req: &CollectiveRequest,
    ) -> CollectivePlan {
        let plan = match strategy {
            Strategy::TwoPhase => cx.span("plan.tp", |_| {
                twophase::plan(req, &self.h.map, &self.env, &self.cfg)
            }),
            Strategy::MemoryConscious => cx.span("plan.mc", |_| {
                mcio::plan(req, &self.h.map, &self.env, &self.cfg)
            }),
        };
        cx.add("plan.ptree_leaves", plan.diag.ptree_leaves as u64);
        cx.add("plan.remerges", plan.diag.remerges as u64);
        cx.add("plan.relaxations", plan.diag.relaxations as u64);
        cx.add("plan.aggregators", plan.naggs() as u64);
        cx.add("plan.rounds", plan.max_rounds() as u64);
        if cx.checking() {
            let checked = plan.check(req);
            cx.check(checked.is_ok(), || {
                format!("{} plan.check: {checked:?}", strategy.label())
            });
        }
        plan
    }

    /// One fault-free `simulate_observed` of `plan`, as cell `cell`.
    fn simulate(
        &self,
        cx: &mut Ctx<'_>,
        cell: &str,
        plan: &CollectivePlan,
        engine: SharePolicy,
        trace: bool,
    ) -> (TimingReport, Option<String>) {
        let ((timing, trace_json), pfs_bytes) =
            observed(cx, "exec_sim.sim", engine, trace, |obs| {
                simulate_observed(
                    plan,
                    &self.h.map,
                    &self.h.spec,
                    Pipeline::Serial,
                    Exchange::Direct,
                    obs,
                )
            });
        record_sim(cx, cell, &timing, self.req_bytes);
        if let Some(pfs_bytes) = pfs_bytes {
            cx.check(pfs_bytes == timing.bytes, || {
                format!(
                    "{cell}: pfs.req.bytes sums to {pfs_bytes}, plan I/O is {}",
                    timing.bytes
                )
            });
        }
        (timing, trace_json)
    }
}

/// Call into the simulator inside span `span`. The traced run hands it a
/// profiler, whose scopes — the one split the harness cannot make from
/// outside — become children of the span. The checked op hands it a
/// registry on FIFO cells, and gets back the bytes the PFS was asked for.
fn observed<T>(
    cx: &mut Ctx<'_>,
    span: &'static str,
    engine: SharePolicy,
    trace: bool,
    run: impl FnOnce(Observe<'_>) -> T,
) -> (T, Option<u64>) {
    // A registry records a labelled gauge per resource, which on
    // `des_heavy`'s 99,328 resources costs several times the simulation;
    // the PFS client's requests do not depend on the engine, so the
    // ledger is read on FIFO cells only.
    let ledger = cx.checking() && engine == SharePolicy::Fifo;
    let reg = ledger.then(Registry::shared);
    let prof = cx.traced.then(Prof::enabled);
    let out = cx.span(span, |cx| {
        let out = run(Observe {
            registry: reg.as_ref(),
            trace,
            prof: prof.as_ref(),
            engine,
        });
        for row in prof.iter().flat_map(Prof::phases) {
            let name = match (row.path.as_str(), engine) {
                ("build-activity-graph", _) => "exec_sim.lower",
                ("des-run", SharePolicy::Fifo) => "des.run.fifo",
                ("des-run", SharePolicy::FairShare) => "des.run.fair",
                ("trace-emit", _) => "exec_sim.trace_emit",
                _ => continue,
            };
            cx.rec.synth(name, row.inclusive_ns);
        }
        out
    });
    let pfs_bytes = reg.map(|reg| {
        let snap = reg.snapshot();
        let ledger = snap.histograms.iter().filter(|h| h.name == "pfs.req.bytes");
        let (requests, bytes) = ledger.fold((0, 0), |(n, b), h| (n + h.count, b + h.sum as u64));
        cx.add("pfs.requests", requests);
        cx.add("pfs.req_bytes", bytes);
        bytes
    });
    (out, pfs_bytes)
}

/// The deterministic results of one simulation, and its ledger checks.
fn record_sim(cx: &mut Ctx<'_>, cell: &str, t: &TimingReport, request_bytes: u64) {
    let e = &t.engine;
    cx.add(&format!("sim.elapsed_ns.{cell}"), t.elapsed.as_nanos());
    cx.add("sim.plan_io_bytes", t.bytes);
    cx.add("exec_sim.activities", t.activities as u64);
    cx.add("des.events_scheduled", e.events_scheduled);
    cx.add("des.events_fired", e.events_fired);
    cx.add("des.events_cancelled", e.events_cancelled);
    cx.max("des.heap_high_water", e.heap_high_water);
    cx.max("des.ready_high_water", e.ready_high_water);
    cx.max("des.resources", e.resources);
    cx.check(t.bytes == request_bytes, || {
        format!(
            "{cell}: plan I/O bytes {} != request bytes {request_bytes}",
            t.bytes
        )
    });
    cx.check(
        e.events_fired == e.events_scheduled - e.events_cancelled,
        || {
            format!(
                "{cell}: events fired {} != scheduled {} - cancelled {}",
                e.events_fired, e.events_scheduled, e.events_cancelled
            )
        },
    );
}

/// The committed `mcio.perf_suite.v1` rows, read from the checkout under
/// test (the working directory), so that an intentional re-baseline of
/// the model stays self-consistent.
fn golden_record(cx: &mut Ctx<'_>, scenario: &str, strategy: Strategy) -> Option<perf::Record> {
    let path = "BENCH_perf_suite.json";
    let records = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| perf::parse_records(&text));
    match records {
        Ok(rs) => {
            let r = rs
                .into_iter()
                .find(|r| r.scenario == scenario && r.strategy == strategy.label());
            cx.check(r.is_some(), || {
                format!("{path}: no row for {scenario} {}", strategy.label())
            });
            r
        }
        Err(e) => {
            cx.check(false, || format!("{path}: {e}"));
            None
        }
    }
}

fn extents(req: &CollectiveRequest) -> u64 {
    req.ranks.iter().map(|r| r.extents.len() as u64).sum()
}

fn check_mc_wins(cx: &mut Ctx<'_>, scenario: &str, tp_ns: u64, mc_ns: u64) {
    cx.check(mc_ns < tp_ns, || {
        format!("{scenario}: memory-conscious {mc_ns} ns is not below two-phase {tp_ns} ns")
    });
}

// ---------------------------------------------------------------- plan_heavy

/// `fig6` (coll_perf 3-D block, 120 ranks) write under both planners,
/// each plan simulated untraced.
struct PlanHeavy(Scene);

impl PlanHeavy {
    fn setup(seed: u64, rec: &mut Recorder) -> Self {
        PlanHeavy(Scene::perf_scenario(
            rec,
            seed,
            "fig6",
            ClusterSpec::testbed_120(),
            || mcio_workloads::CollPerf::paper(120, 2).request(Rw::Write),
        ))
    }
}

impl Workload for PlanHeavy {
    fn op(&self, cx: &mut Ctx<'_>) {
        let sc = &self.0;
        cx.add("workloads.extents", extents(&sc.req));
        let mut elapsed = [0u64; 2];
        for (i, (strategy, cell, span)) in [
            (Strategy::TwoPhase, "fig6-tp", "cell.fig6-tp"),
            (Strategy::MemoryConscious, "fig6-mc", "cell.fig6-mc"),
        ]
        .into_iter()
        .enumerate()
        {
            elapsed[i] = cx.span(span, |cx| {
                let plan = sc.plan(cx, strategy);
                let (t, _) = sc.simulate(cx, cell, &plan, SharePolicy::Fifo, false);
                cx.span("plan.drop", |_| drop(plan));
                if cx.checking() && sc.golden {
                    if let Some(g) = golden_record(cx, "fig6", strategy) {
                        cx.check(g.elapsed_ns == t.elapsed.as_nanos(), || {
                            format!(
                                "{cell}: elapsed {} ns, committed row has {}",
                                t.elapsed.as_nanos(),
                                g.elapsed_ns
                            )
                        });
                    }
                }
                t.elapsed.as_nanos()
            });
        }
        check_mc_wins(cx, "fig6", elapsed[0], elapsed[1]);
    }
}

// ----------------------------------------------------------------- des_heavy

/// The `perf_suite --exascale` matrix on a cut of `exascale_2018`: one
/// huge activity graph per simulation, under both DES engines.
struct DesHeavy(Scene);

impl DesHeavy {
    fn setup(seed: u64, rec: &mut Recorder) -> Self {
        let mut spec = ClusterSpec::exascale_2018();
        spec.nodes = DES_NODES;
        DesHeavy(Scene::new(rec, seed, 0xE2018, spec, DES_NODES, 1, || {
            mcio_workloads::Ior::paper(DES_NODES, MIB, 1).request(Rw::Write)
        }))
    }
}

impl Workload for DesHeavy {
    fn op(&self, cx: &mut Ctx<'_>) {
        let sc = &self.0;
        cx.add("workloads.extents", extents(&sc.req));
        // Each strategy is planned once per op and the plan shared by
        // its engine cells, as `perf::run_exascale` does.
        cx.span("cell.exa-mc", |cx| {
            let plan = sc.plan(cx, Strategy::MemoryConscious);
            sc.simulate(cx, "exa-mc-fifo", &plan, SharePolicy::Fifo, false);
            sc.simulate(cx, "exa-mc-fair", &plan, SharePolicy::FairShare, false);
            cx.span("plan.drop", |_| drop(plan));
        });
        cx.span("cell.exa-tp", |cx| {
            let plan = sc.plan(cx, Strategy::TwoPhase);
            sc.simulate(cx, "exa-tp-fair", &plan, SharePolicy::FairShare, false);
            cx.span("plan.drop", |_| drop(plan));
        });
    }
}

// ------------------------------------------------------------- trace_analyze

/// `fig8` (IOR, 1,080 ranks) traced, each trace re-parsed and reduced to
/// the analyze report and the utilization timeline; the third cell is a
/// read under a fault plan, through `simulate_faulted`.
struct TraceAnalyze {
    scene: Scene,
    read_req: CollectiveRequest,
    faults: FaultSpec,
}

impl TraceAnalyze {
    fn setup(seed: u64, rec: &mut Recorder) -> Result<Self, String> {
        let ior = mcio_workloads::Ior::paper(1080, 8 * MIB, 8);
        let scene = Scene::perf_scenario(rec, seed, "fig8", ClusterSpec::testbed_1080(), || {
            ior.request(Rw::Write)
        });
        let read_req = rec.span("workloads.gen", |_| ior.request(Rw::Read));
        let faults = rec.span("workloads.gen", |_| {
            FaultSpec::parse(include_str!("../workloads/trace_analyze.faults"))
        })?;
        Ok(TraceAnalyze {
            scene,
            read_req,
            faults,
        })
    }

    /// Trace JSON → model → report JSON + timeline JSON.
    /// `golden` names the committed row the cell must equal at seed 0.
    fn reduce(
        &self,
        cx: &mut Ctx<'_>,
        cell: &str,
        elapsed_ns: u64,
        trace_json: String,
        golden: Option<Strategy>,
    ) {
        cx.add("obs.trace_bytes", trace_json.len() as u64);
        let model = cx
            .span("analyze.parse", |_| {
                TraceModel::from_chrome_json(&trace_json)
            })
            .expect("the simulator emits a valid chrome trace");
        let (analysis, report) = cx.span("analyze.report", |_| {
            let analysis = analyze(&model, 5);
            let json = analysis.to_json();
            (analysis, json)
        });
        let tl = cx.span("analyze.timeline", |_| {
            timeline(&model, default_bucket_ns(model.makespan_ns())).to_json()
        });
        cx.add("analyze.spans", model.spans.len() as u64);
        cx.add("analyze.doc_bytes", (report.len() + tl.len()) as u64);
        let cp = analysis.critical_path;
        let buckets = [
            cp.network_shuffle_ns,
            cp.ost_io_ns,
            cp.memory_wait_ns,
            cp.retry_degraded_ns,
            cp.idle_ns,
        ];
        cx.check(
            buckets.iter().sum::<u64>() == elapsed_ns && cp.elapsed_ns == elapsed_ns,
            || format!("{cell}: critical-path buckets {buckets:?} do not sum to {elapsed_ns} ns"),
        );
        if let Some(strategy) = golden.filter(|_| cx.checking() && self.scene.golden) {
            if let Some(g) = golden_record(cx, "fig8", strategy) {
                cx.check(g.critical_path == cp, || {
                    format!(
                        "{cell}: {cp:?} differs from the committed row {:?}",
                        g.critical_path
                    )
                });
            }
        }
        cx.span("analyze.drop", |_| {
            drop((model, analysis, report, tl, trace_json))
        });
    }
}

impl Workload for TraceAnalyze {
    fn op(&self, cx: &mut Ctx<'_>) {
        let sc = &self.scene;
        cx.add(
            "workloads.extents",
            extents(&sc.req) + extents(&self.read_req),
        );
        let mut elapsed = [0u64; 2];
        for (i, (strategy, cell, span)) in [
            (Strategy::TwoPhase, "fig8-tp", "cell.fig8-tp"),
            (Strategy::MemoryConscious, "fig8-mc", "cell.fig8-mc"),
        ]
        .into_iter()
        .enumerate()
        {
            elapsed[i] = cx.span(span, |cx| {
                let plan = sc.plan(cx, strategy);
                let (t, trace) = sc.simulate(cx, cell, &plan, SharePolicy::Fifo, true);
                cx.span("plan.drop", |_| drop(plan));
                let ns = t.elapsed.as_nanos();
                self.reduce(
                    cx,
                    cell,
                    ns,
                    trace.expect("trace requested"),
                    Some(strategy),
                );
                ns
            });
        }
        check_mc_wins(cx, "fig8", elapsed[0], elapsed[1]);

        cx.span("cell.fig8-mc-read-faulted", |cx| {
            let cell = "fig8-mc-read-faulted";
            let plan = sc.plan_for(cx, Strategy::MemoryConscious, &self.read_req);
            let (out, _) = observed(cx, "faults.sim", SharePolicy::Fifo, true, |obs| {
                simulate_faulted(
                    &plan,
                    &sc.h.map,
                    &sc.h.spec,
                    &sc.env,
                    Pipeline::Serial,
                    Exchange::Direct,
                    &self.faults,
                    obs,
                )
            });
            // The read request has the write request's extents.
            record_sim(cx, cell, &out.report, sc.req_bytes);
            cx.add("faults.failovers", out.failovers as u64);
            cx.add("faults.retries", out.retries);
            cx.check(out.completed, || {
                format!("{cell}: the faulted read did not complete")
            });
            let ns = out.report.elapsed.as_nanos();
            let trace = out.trace.clone().expect("trace requested");
            cx.span("plan.drop", |_| drop((plan, out)));
            self.reduce(cx, cell, ns, trace, None);
        });
    }
}

// -------------------------------------------------------------- sched_stream

/// `scheduler_suite`'s bundled 202-job stream under FCFS, then under
/// conservative backfill: hundreds of tiny `run_multitenant` commits.
///
/// A seed other than 0 delays every arrival by its own draw below
/// [`ARRIVAL_JITTER_NS`]. It does not touch the jobs' memory draws as
/// the other workloads' seeds do: backfill is a threshold policy, and
/// moving the draws swung the probes it makes — `op.allocs` by +-25 % —
/// so that two seeds would no longer measure the same work. The
/// arrivals are 50 us apart, so their order never changes.
struct SchedStream(JobTrace);

const ARRIVAL_JITTER_NS: u64 = 20_000;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SchedStream {
    fn setup(seed: u64, rec: &mut Recorder) -> Result<Self, String> {
        let mut trace = rec.span("sched.parse", |_| {
            JobTrace::parse(include_str!("../workloads/sched_stream.jobtrace"))
        })?;
        if seed != 0 {
            for (i, job) in trace.jobs.iter_mut().enumerate() {
                let jitter = splitmix64(seed ^ (i as u64) << 32) % ARRIVAL_JITTER_NS;
                job.arrival = SimDuration::from_nanos(job.arrival.as_nanos() + jitter);
            }
        }
        Ok(SchedStream(trace))
    }
}

impl Workload for SchedStream {
    fn op(&self, cx: &mut Ctx<'_>) {
        let trace = &self.0;
        let mut makespan = [0u64; 2];
        for (i, (policy, run_span, key)) in [
            (Policy::Fcfs, "sched.run.fcfs", "sim.makespan_ns.fcfs"),
            (
                Policy::Backfill,
                "sched.run.backfill",
                "sim.makespan_ns.backfill",
            ),
        ]
        .into_iter()
        .enumerate()
        {
            let cfg = SchedConfig {
                policy,
                ..SchedConfig::default()
            };
            let s = cx.span(run_span, |_| run_schedule(trace, &cfg, None));
            let doc = cx.span("sched.render", |_| render_schedule(&s));
            cx.add("sched.jobs", s.jobs.len() as u64);
            cx.add("sched.dispatches", s.dispatches);
            cx.add("sched.backfills", s.backfills);
            cx.max("sched.max_queue_depth", s.max_queue_depth as u64);
            cx.add("sched.doc_bytes", doc.len() as u64);
            cx.add(key, s.makespan_ns);
            makespan[i] = s.makespan_ns;
            if cx.checking() {
                let in_order = s.dispatch_order.iter().copied().eq(0..s.jobs.len());
                cx.check(
                    policy != Policy::Fcfs || (in_order && s.backfills == 0),
                    || "fcfs did not dispatch in arrival order".to_string(),
                );
                for r in &s.reservations {
                    let honoured = r.predicted_end_ns <= r.reserved_start_ns
                        && s.jobs[r.head].dispatch_ns <= r.reserved_start_ns;
                    cx.check(honoured, || format!("backfill broke a reservation: {r:?}"));
                }
                let early = s.jobs.iter().find(|j| j.dispatch_ns < j.arrival_ns);
                cx.check(early.is_none(), || {
                    format!("job dispatched before it arrived: {early:?}")
                });
            }
        }
        cx.check(makespan[1] < makespan[0], || {
            format!(
                "backfill makespan {} ns is not below fcfs {} ns",
                makespan[1], makespan[0]
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scene_of(w: &str, seed: u64) -> Scene {
        let mut rec = Recorder::new(false);
        match w {
            "plan_heavy" => PlanHeavy::setup(seed, &mut rec).0,
            _ => TraceAnalyze::setup(seed, &mut rec).unwrap().scene,
        }
    }

    #[test]
    fn seed_zero_reproduces_the_committed_seeds() {
        for (w, name) in [("plan_heavy", "fig6"), ("trace_analyze", "fig8")] {
            let sc = scene_of(w, 0);
            let committed = perf::scenarios()
                .into_iter()
                .find(|s| s.name == name)
                .unwrap();
            assert_eq!(sc.h.seed, committed.seed);
            assert_eq!(sc.h.map.nranks(), committed.ranks);
            assert!(sc.golden);
        }
        let base = JobTrace::parse(include_str!("../workloads/sched_stream.jobtrace")).unwrap();
        let mut rec = Recorder::new(false);
        assert_eq!(SchedStream::setup(0, &mut rec).unwrap().0.jobs, base.jobs);
        assert_eq!(base.jobs.len(), 202);
    }

    #[test]
    fn another_seed_changes_the_memory_draw_and_the_stream_but_not_the_cells() {
        let (a, b) = (scene_of("plan_heavy", 0), scene_of("plan_heavy", 7));
        assert_eq!(b.h.seed, a.h.seed ^ 7);
        assert_ne!(a.env.budgets(), b.env.budgets(), "memory draw moved");
        assert_eq!(a.req, b.req, "the request is the same");
        assert_eq!(a.cfg, b.cfg);
        assert!(!b.golden);

        let mut rec = Recorder::new(false);
        let s0 = SchedStream::setup(0, &mut rec).unwrap().0;
        let s7 = SchedStream::setup(7, &mut rec).unwrap().0;
        assert_ne!(s0.jobs, s7.jobs, "job stream moved");
        for (x, y) in s0.jobs.iter().zip(&s7.jobs) {
            let delay = y.arrival.as_nanos() - x.arrival.as_nanos();
            assert!(
                delay < ARRIVAL_JITTER_NS,
                "arrivals only move later, within the jitter"
            );
            assert_eq!((&x.name, x.ranks, x.seed), (&y.name, y.ranks, y.seed));
        }
        let arrivals: Vec<u64> = s7.jobs.iter().map(|j| j.arrival.as_nanos()).collect();
        assert!(
            arrivals.windows(2).all(|w| w[0] < w[1]),
            "arrival order is kept"
        );
        assert_eq!(
            s7.jobs,
            SchedStream::setup(7, &mut rec).unwrap().0.jobs,
            "same seed, same stream"
        );
    }

    #[test]
    fn unknown_workload_is_a_one_line_error() {
        let err = setup("nope", 0, &mut Recorder::new(false)).err().unwrap();
        assert!(err.contains("unknown workload `nope`") && !err.contains('\n'));
    }
}
