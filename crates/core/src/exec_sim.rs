//! The timing executor: replays a collective plan on the machine model.
//!
//! Lowers the plan onto [`mcio_des`] activities using the cluster fabric
//! (per-node memory buses + NICs) and the PFS model (per-OST FIFO
//! queues):
//!
//! * Each round's per-pair transfers become message activities (inter-
//!   node: membus → NIC → wire → NIC → membus; intra-node: memory bus
//!   only).
//! * A round is two phases, the exchange and the file access (one PFS
//!   request per coalesced extent), in [`Rw::flow`] order: on a write
//!   each aggregator's I/O waits for the messages addressed to it; on a
//!   read the I/O comes first and the distribution messages wait on it.
//! * Rounds chain: under [`SyncMode::Global`] round *r+1* of *everyone*
//!   waits for round *r* of *everyone* (ROMIO's global `alltoallv`);
//!   under [`SyncMode::PerGroup`] each group chains independently.
//!
//! The result is the collective's makespan, reported as aggregate
//! bandwidth the way the paper's figures are (total bytes / elapsed).
//!
//! There is one executor, `execute`: it lowers any number of jobs into
//! one simulation, runs it and attributes the result per job. A solo
//! run is its one-job case, [`crate::multitenant`] passes several jobs,
//! and [`crate::exec_faults`] passes a transformed plan with its marks
//! (DESIGN.md §9).

use crate::marks::{self, Mark, Slot};
use crate::plan::{CollectivePlan, Round, SyncMode};
use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::{Fabric, NodeId, ProcessMap, Rank};
use mcio_des::{
    arg, ActivityId, Label, Prefix, ResourceId, ServiceWindow, SharePolicy, SimDuration, SimTime,
    Simulation, Tpl,
};
use mcio_faults::FaultSpec;
use mcio_obs::catalogue::PID_ROUNDS;
use mcio_obs::{Registry, Trace};
use mcio_pfs::{Pfs, Requester, RetryMark, Rw, StripeLayout};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Phase durations of one round slot (one synchronized step of one
/// chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundPhase {
    /// Which round chain the slot belongs to (groups under per-group
    /// sync; a single chain under global sync).
    pub chain: usize,
    /// Round index within the chain.
    pub round: usize,
    /// Time attributed to the data shuffle.
    pub exchange: SimDuration,
    /// Time attributed to the file access.
    pub io: SimDuration,
}

/// Structured metrics of one simulated collective, always computed
/// alongside the [`TimingReport`] scalars.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// `exchange_time / (exchange_time + io_time)`, in `[0, 1]`. Unlike
    /// the raw attribution sums (which grow with the number of
    /// independent chains) this is normalized, so it compares safely
    /// across plans with different group counts.
    pub exchange_fraction: f64,
    /// `io_time / (exchange_time + io_time)`, in `[0, 1]`.
    pub io_fraction: f64,
    /// Per round-slot phase durations, chain-major.
    pub rounds: Vec<RoundPhase>,
    /// Per-aggregator file-access time, summed over its rounds: the span
    /// from its first PFS request starting to its last completing,
    /// keyed by rank index.
    pub agg_io: Vec<(usize, SimDuration)>,
}

/// Timing results of one simulated collective.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Wall-clock (simulated) duration of the collective.
    pub elapsed: SimDuration,
    /// Critical-path time attributed to the data-shuffle phase.
    ///
    /// **Summation semantics:** this is an *attribution sum* over round
    /// chains. Under [`SyncMode::PerGroup`] every group contributes its
    /// own chain, and concurrent chains each add their full phase time,
    /// so `exchange_time + io_time` can exceed `elapsed` (they partition
    /// `elapsed` only for a single chain). For cross-plan comparison use
    /// the normalized [`RunMetrics::exchange_fraction`] instead.
    pub exchange_time: SimDuration,
    /// Critical-path time attributed to the file-access phase (same
    /// attribution-sum semantics as
    /// [`exchange_time`](TimingReport::exchange_time); see
    /// [`RunMetrics::io_fraction`] for the normalized form).
    pub io_time: SimDuration,
    /// Total requested bytes moved.
    pub bytes: u64,
    /// Aggregate bandwidth in MiB/s (the paper's y-axis).
    pub bandwidth_mibs: f64,
    /// Busiest memory bus: total busy time.
    pub membus_busy_max: SimDuration,
    /// Busiest NIC (either direction): total busy time.
    pub nic_busy_max: SimDuration,
    /// Busiest OST: total busy time.
    pub ost_busy_max: SimDuration,
    /// Sum of OST busy time (storage work actually performed).
    pub ost_busy_total: SimDuration,
    /// Number of DES activities (diagnostic).
    pub activities: usize,
    /// Deterministic engine-side counters of the run (events, heap and
    /// ready-set high-water marks, per-class queue peaks) — the
    /// `deterministic` payload of the `mcio.prof.v1` sidecar. In a
    /// multi-tenant run this is machine-wide, like the busy maxima.
    pub engine: mcio_des::EngineProfile,
    /// Structured per-round / per-aggregator breakdown.
    pub metrics: RunMetrics,
}

/// Scheduling of consecutive rounds within a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pipeline {
    /// Round `r+1` starts only after round `r` finished completely (a
    /// single aggregation buffer; the model the paper's prototype uses).
    #[default]
    Serial,
    /// Double buffering: round `r+1`'s exchange overlaps round `r`'s
    /// file access (two aggregation buffers per aggregator — twice the
    /// memory, the classic ROMIO `cb` pipelining).
    DoubleBuffered,
}

/// Shape of the shuffle exchange (the paper's "coordinates I/O accesses
/// in intra-node and inter-node layer").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Exchange {
    /// Every rank messages the aggregator directly (flat alltoallv).
    #[default]
    Direct,
    /// Two-level: ranks sharing a node first combine their pieces at a
    /// node leader over the memory bus, and one message per (node,
    /// aggregator) pair crosses the network — fewer, larger NIC
    /// transfers at the cost of an extra on-node copy.
    TwoLevel,
}

/// Absolute window of one executed round slot, for fault analysis:
/// which rounds were still in flight when an event struck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoundWindow {
    /// Plan group the slot served (`None` = all groups, global sync).
    pub group: Option<usize>,
    /// Round index within the chain.
    pub round: usize,
    /// Slot start (after its gates), nanoseconds.
    pub start_ns: u64,
    /// Last phase completion of the slot, nanoseconds.
    pub end_ns: u64,
}

/// What a job's [`TimingReport::elapsed`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Elapsed {
    /// The machine's makespan (a collective simulated on its own).
    Makespan,
    /// The job's span: arrival to the end of its last round slot.
    Span,
}

/// One job of an [`execute`] call.
pub(crate) struct ExecJob<'a> {
    /// The planned collective.
    pub plan: &'a CollectivePlan,
    /// Process placement on the machine's nodes (any node offset
    /// already applied).
    pub map: &'a ProcessMap,
    /// Round pipelining mode.
    pub pipeline: Pipeline,
    /// Exchange shape.
    pub exchange: Exchange,
    /// Arrival time: a release-gated activity holds back every chain's
    /// first round (none is created for an arrival at zero).
    pub start: SimDuration,
    /// Namespace of every activity label and pid-2 lane name of the
    /// job (`j{n}.` among several tenants, empty for one job, which
    /// keeps its labels the historical solo ones).
    pub prefix: String,
    /// The tenant's name, the `job` arg of its deferral spans (`None`
    /// for a collective on its own).
    pub label: Option<&'a str>,
    /// What the job's report calls `elapsed`.
    pub elapsed: Elapsed,
    /// The fault and controller decisions about the job's plan.
    pub marks: Vec<Mark>,
}

/// One job's share of an [`Executed`] run.
pub(crate) struct JobRun {
    /// The job's timing report (busy maxima and engine counters are
    /// machine-wide).
    pub report: TimingReport,
    /// Absolute round-slot windows (fault analysis input).
    pub windows: Vec<RoundWindow>,
    /// End of the job's last round slot (at least its arrival),
    /// nanoseconds.
    pub end_ns: u64,
}

/// Internal result of one lowered-and-run simulation.
pub(crate) struct SimRun {
    /// The public timing report.
    pub report: TimingReport,
    /// Chrome-trace JSON when requested.
    pub trace: Option<String>,
    /// Absolute round-slot windows (fault analysis input).
    pub windows: Vec<RoundWindow>,
    /// Retry chains the PFS expanded (empty without armed faults).
    pub retry_marks: Vec<RetryMark>,
}

/// Simulate a plan on `spec`'s machine with `map`'s process placement:
/// serial rounds, direct exchange, nothing observed.
pub fn simulate(plan: &CollectivePlan, map: &ProcessMap, spec: &ClusterSpec) -> TimingReport {
    let obs = Observe::default();
    simulate_observed(plan, map, spec, Pipeline::Serial, Exchange::Direct, obs).0
}

/// What to capture while simulating, beyond the [`TimingReport`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Observe<'a> {
    /// Record planner counters, per-resource utilization, wait-time
    /// histograms, and PFS request metrics into this registry.
    pub registry: Option<&'a Arc<Registry>>,
    /// Capture the unified Chrome-trace timeline (returned as JSON).
    pub trace: bool,
    /// Record host-side phase timings (`build-activity-graph`,
    /// `des-run`, `trace-emit`) into this profiler. Wall-clock data:
    /// never enters the timing report or any byte-diffed document.
    pub prof: Option<&'a mcio_prof::Prof>,
    /// Service discipline for every simulated resource (fabric links,
    /// memory buses, OSTs). The default, [`SharePolicy::Fifo`], keeps
    /// the classic store-and-forward engine; [`SharePolicy::FairShare`]
    /// switches to the amortized processor-sharing engine. On workloads
    /// where no resource is ever shared the two produce byte-identical
    /// reports (see `crates/core/tests/engine_equiv.rs`).
    pub engine: SharePolicy,
}

/// Simulate with the round pipelining, exchange shape and observation
/// spelled out. Returns the trace JSON when [`Observe::trace`] was set:
/// one unified Chrome-trace file (open in Perfetto / `chrome://tracing`)
/// with every resource's service intervals plus a `plan.rounds` process
/// holding the per-chain exchange / I-O phase spans. Expensive on big
/// plans — meant for inspection at small scale.
pub fn simulate_observed(
    plan: &CollectivePlan,
    map: &ProcessMap,
    spec: &ClusterSpec,
    pipeline: Pipeline,
    exchange: Exchange,
    obs: Observe<'_>,
) -> (TimingReport, Option<String>) {
    let run = simulate_inner(plan, map, spec, pipeline, exchange, obs, None, Vec::new());
    (run.report, run.trace)
}

/// One plan on its own machine: the N = 1 [`execute`] call, plus the
/// solo registry samples (no `job` label).
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_inner(
    plan: &CollectivePlan,
    map: &ProcessMap,
    spec: &ClusterSpec,
    pipeline: Pipeline,
    exchange: Exchange,
    obs: Observe<'_>,
    faults: Option<&FaultSpec>,
    marks: Vec<Mark>,
) -> SimRun {
    let job = [ExecJob {
        plan,
        map,
        pipeline,
        exchange,
        start: SimDuration::ZERO,
        prefix: String::new(),
        label: None,
        elapsed: Elapsed::Makespan,
        marks,
    }];
    let mut ex = execute(spec, &job, faults, obs, None);
    let trace = ex.trace_json(|_| {});
    let JobRun {
        report, windows, ..
    } = ex.runs.pop().expect("one job in, one run out");
    if let Some(reg) = obs.registry {
        plan.record_into(reg);
        record_run(reg, plan.strategy.label(), None, &report);
    }
    SimRun {
        report,
        trace,
        windows,
        retry_marks: ex.retry_marks,
    }
}

/// What phase attribution and the trace read back from one lowered
/// job: its round slots, with the ids of the activities they wait on. A
/// slot's lists are ranges of the four flat vectors, which hold every
/// slot's in slot order.
#[derive(Default)]
pub(crate) struct Shape {
    slots: Vec<SlotMeta>,
    /// `groups[ci]` is the plan group chain `ci` serves.
    groups: Vec<Option<usize>>,
    /// The activities each slot's first phase waited on (the job's start
    /// gate aside).
    first_deps: Vec<ActivityId>,
    /// Each slot's messages.
    msgs: Vec<ActivityId>,
    /// Each slot's I/O completions.
    ios: Vec<ActivityId>,
    /// Each slot's I/O completions again, as `(k, aggregator, activity)`
    /// for the `k`-th round lowered into the slot: aggregator order
    /// within a round, creation order within an aggregator.
    agg_ios: Vec<(u32, Rank, ActivityId)>,
}

impl Shape {
    fn first_deps(&self, slot: &SlotMeta) -> &[ActivityId] {
        &self.first_deps[slot.first_deps.clone()]
    }

    fn msgs(&self, slot: &SlotMeta) -> &[ActivityId] {
        &self.msgs[slot.msgs.clone()]
    }

    fn ios(&self, slot: &SlotMeta) -> &[ActivityId] {
        &self.ios[slot.ios.clone()]
    }

    /// The I/O completions of a slot, one run per (round, aggregator).
    fn agg_io_runs<'s>(
        &'s self,
        slot: &SlotMeta,
    ) -> impl Iterator<Item = &'s [(u32, Rank, ActivityId)]> {
        self.agg_ios[slot.agg_ios.clone()].chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
    }
}

/// One interval of service a job held on one resource of the machine: a
/// DES service record, whether the resource is an OST and how many
/// service slots it has. A stream's ledger folds them into service
/// windows for its committed jobs (DESIGN.md §11, "The ledger of
/// committed service").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Held {
    /// The resource that served.
    pub resource: ResourceId,
    /// Whether the resource is an OST.
    pub ost: bool,
    /// The resource's parallel service slots.
    pub capacity: usize,
    /// Service start, nanoseconds of absolute stream time.
    pub start_ns: u64,
    /// Service end (exclusive), nanoseconds of absolute stream time.
    pub end_ns: u64,
}

/// One job as lowered into the shared simulation.
struct Lowered {
    shape: Shape,
    /// Activity ids the job created (its start gate, release gates,
    /// messages, PFS requests and joins) — the ownership key for
    /// attributing service records to jobs.
    acts: std::ops::Range<usize>,
}

/// A finished [`execute`] call: per-job results plus what the trace
/// and the tenant metrics read back from the one DES run.
pub(crate) struct Executed<'a> {
    /// One run per job, in job order.
    pub runs: Vec<JobRun>,
    /// Completion of the last activity of any job.
    pub makespan: SimDuration,
    /// Retry chains the PFS expanded (empty without armed faults).
    pub retry_marks: Vec<RetryMark>,
    /// Deterministic engine counters of the one shared DES run (what
    /// every job's report carries a copy of).
    pub engine: mcio_des::EngineProfile,
    /// The jobs the run executed, marks included.
    pub jobs: &'a [ExecJob<'a>],
    /// The machine-level fault plan the run armed.
    pub faults: Option<&'a FaultSpec>,
    /// What the run was asked to capture.
    pub obs: Observe<'a>,
    des: mcio_des::RunReport,
    pfs: Pfs,
    lowered: Vec<Lowered>,
}

/// The executor: lower `jobs` into one DES over one fabric and one PFS
/// of `spec`'s machine, run it, and attribute the result per job.
///
/// Every execution path is a call of this function — a solo run is one
/// job arriving at zero, a multi-tenant run is several, a fault or
/// controller transform is the `marks` it hands each job, and `faults`
/// arms the machine-level injection (OST windows, transient request
/// failures) on the shared PFS.
///
/// `held` is the service other jobs hold on the machine — a stream's
/// ledger, for a job probed against it: each named resource serves
/// through its [`ServiceWindow`]s, installed the way
/// [`Pfs::apply_faults`] installs an OST's, and the run keeps its
/// service records for the ledger ([`Executed::held`]). Records are
/// kept too when the trace is wanted or when there is more than one job
/// to tell apart.
///
/// # Panics
/// Panics if a job's process map needs more nodes than the machine has.
pub(crate) fn execute<'a>(
    spec: &ClusterSpec,
    jobs: &'a [ExecJob<'a>],
    faults: Option<&'a FaultSpec>,
    obs: Observe<'a>,
    held: Option<&[(ResourceId, &[ServiceWindow])]>,
) -> Executed<'a> {
    debug_assert!(
        held.is_none() || faults.is_none(),
        "held service replaces OST windows"
    );
    let build_scope = obs.prof.map(|p| p.scope("build-activity-graph"));
    let mut sim = Simulation::with_policy(obs.engine);
    if obs.trace || jobs.len() > 1 || held.is_some() {
        sim.enable_trace();
    }
    let fabric = Fabric::build(&mut sim, spec);
    let mut pfs = Pfs::build(&mut sim, spec);
    if let Some(reg) = obs.registry {
        pfs.set_registry(Arc::clone(reg));
    }
    if let Some(fspec) = faults {
        pfs.apply_faults(&mut sim, fspec);
    }
    for &(resource, windows) in held.unwrap_or_default() {
        sim.set_service_windows(resource, windows);
    }

    let mut lowered = Vec::with_capacity(jobs.len());
    for job in jobs {
        assert!(
            job.map.nnodes() <= fabric.nnodes(),
            "{}process map uses {} nodes but the machine has {}",
            job.prefix,
            job.map.nnodes(),
            fabric.nnodes()
        );
        let act_lo = sim.activity_count();
        let prefix = sim.prefix(&job.prefix);
        let start_gate = (!job.start.is_zero()).then(|| {
            let start = start_label(&mut sim, prefix);
            sim.activity(start, SimTime::ZERO + job.start, &[])
        });
        // A gated round slot may not start before its gate releases
        // (failover re-coordination, controller deferral/demotion).
        let gate_acts = marks::gates(&job.marks, &mut sim, prefix);
        let (activities, stages) = lowering_bounds(job, pfs.layout());
        sim.reserve(activities, stages);
        let mut lowering = Lowering::new(&mut sim, &fabric, &pfs, job, prefix);
        lowering.lower_plan(&gate_acts, start_gate);
        lowered.push(Lowered {
            shape: lowering.shape,
            acts: act_lo..sim.activity_count(),
        });
    }
    drop(build_scope);

    let run_scope = obs.prof.map(|p| p.scope("des-run"));
    let des = sim.run().expect("collective plan DAG is acyclic");
    drop(run_scope);
    let retry_marks = pfs.take_retry_marks();
    let makespan = des.makespan().saturating_since(SimTime::ZERO);
    let (membus_busy_max, nic_busy_max, ost_busy_max, ost_busy_total) =
        busy_maxima(&des, &fabric, &pfs);
    let engine = des.engine_profile();

    let runs = jobs
        .iter()
        .zip(&lowered)
        .map(|(job, l)| {
            let Attribution {
                exchange_time,
                io_time,
                rounds,
                windows,
                agg_io,
            } = attribute_phases(job, &des, l);
            let start_ns = job.start.as_nanos();
            let end_ns = windows
                .iter()
                .map(|w| w.end_ns)
                .max()
                .unwrap_or(start_ns)
                .max(start_ns);
            let elapsed = match job.elapsed {
                Elapsed::Makespan => makespan,
                Elapsed::Span => SimDuration::from_nanos(end_ns - start_ns),
            };
            let bytes: u64 = job.plan.groups.iter().map(|g| g.io_bytes()).sum();
            let bandwidth_mibs = if elapsed.is_zero() {
                0.0
            } else {
                bytes as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64()
            };
            let (exchange_fraction, io_fraction) = phase_fractions(exchange_time, io_time);
            let report = TimingReport {
                elapsed,
                exchange_time,
                io_time,
                bytes,
                bandwidth_mibs,
                membus_busy_max,
                nic_busy_max,
                ost_busy_max,
                ost_busy_total,
                activities: l.acts.len(),
                engine: engine.clone(),
                metrics: RunMetrics {
                    exchange_fraction,
                    io_fraction,
                    rounds,
                    agg_io,
                },
            };
            JobRun {
                report,
                windows,
                end_ns,
            }
        })
        .collect();

    if let Some(reg) = obs.registry {
        des.record_into(reg);
        pfs.record_imbalance();
    }
    Executed {
        runs,
        makespan,
        retry_marks,
        jobs,
        faults,
        obs,
        engine,
        des,
        pfs,
        lowered,
    }
}

impl Executed<'_> {
    /// Every service interval the run recorded that took time, in
    /// record order (empty when no service records were kept).
    pub(crate) fn held(&self) -> Vec<Held> {
        let records = self.des.trace().unwrap_or(&[]);
        (records.iter())
            .map(|r| Held {
                resource: r.resource,
                ost: self.pfs.ost_of(r.resource).is_some(),
                capacity: self.des.capacity(r.resource),
                start_ns: r.start.saturating_since(SimTime::ZERO).as_nanos(),
                end_ns: r.end.saturating_since(SimTime::ZERO).as_nanos(),
            })
            .filter(|h| h.end_ns > h.start_ns)
            .collect()
    }

    /// Per-job OST service intervals `(start_ns, end_ns)`: every service
    /// record on an OST resource belongs to exactly one job, found by
    /// its activity-id range. Empty when no service records were kept.
    pub(crate) fn ost_service(&self) -> Vec<Vec<(u64, u64)>> {
        let mut per_job = vec![Vec::new(); self.jobs.len()];
        let Some(records) = self.des.trace() else {
            return per_job;
        };
        for rec in (records.iter()).filter(|r| self.pfs.ost_of(r.resource).is_some()) {
            // The jobs' activity ranges are disjoint and ascending.
            let idx = rec.activity.index();
            let ji = self.lowered.partition_point(|l| l.acts.end <= idx);
            if self.lowered.get(ji).is_some_and(|l| l.acts.contains(&idx)) {
                let start = rec.start.saturating_since(SimTime::ZERO).as_nanos();
                let end = rec.end.saturating_since(SimTime::ZERO).as_nanos();
                if end > start {
                    per_job[ji].push((start, end));
                }
            }
        }
        per_job
    }

    /// The unified Chrome trace, when [`Observe::trace`] asked for it:
    /// resource service lanes (pid 1), the jobs' round-phase lanes
    /// (pid 2, one thread per chain, stacked in job order), fault lanes
    /// (pid 3) and replan lanes (pid 5). `extra` appends the caller's
    /// own lanes before the JSON is rendered.
    pub(crate) fn trace_json(&self, extra: impl FnOnce(&mut Trace)) -> Option<String> {
        if !self.obs.trace {
            return None;
        }
        let _emit_scope = self.obs.prof.map(|p| p.scope("trace-emit"));
        let mut tc = Trace::default();
        self.des.trace_into(&mut tc);
        tc.name_lane(PID_ROUNDS);
        let mut tid_base = 0u64;
        for ((job, l), run) in self.jobs.iter().zip(&self.lowered).zip(&self.runs) {
            emit_round_spans(&mut tc, job, l, run, tid_base);
            tid_base += l.shape.groups.len() as u64;
        }
        let (clip_ns, jobs, runs) = (self.makespan.as_nanos(), self.jobs, &self.runs);
        let (retries, records) = (&self.retry_marks, self.des.trace().unwrap_or(&[]));
        marks::trace_faults(&mut tc, clip_ns, self.faults, jobs, runs, retries, records);
        marks::trace_replan(&mut tc, clip_ns, jobs, runs);
        extra(&mut tc);
        Some(tc.to_chrome_json())
    }
}

/// One round slot as lowered — what phase attribution reads back: the
/// slot's place in its chain and its lists, as ranges of the [`Shape`]'s
/// flat vectors.
struct SlotMeta {
    chain: usize,
    round: usize,
    first_deps: Range<usize>,
    msgs: Range<usize>,
    ios: Range<usize>,
    agg_ios: Range<usize>,
}

/// What one job's rounds are lowered against: the shared simulation and
/// machine, and the job for its plan, placement, exchange shape and
/// label namespace (`job.prefix`: job attribution under multi-tenancy,
/// `""` solo). Lowering fills `shape`; the rest is scratch, reused from
/// round to round.
struct Lowering<'a> {
    sim: &'a mut Simulation,
    fabric: &'a Fabric,
    pfs: &'a Pfs,
    job: &'a ExecJob<'a>,
    /// The job's label prefix and templates, interned in `sim`.
    names: LabelNames,
    /// The job's slots as lowered so far (absolute activity ids).
    shape: Shape,
    /// What the current slot's first phase waits for, the start gate
    /// included.
    slot_deps: Vec<ActivityId>,
    /// The current round's transfers.
    transfers: Vec<Transfer>,
    /// The current round's activities per aggregator, one list per
    /// phase in execution order.
    phase_acts: [AggActs; 2],
    /// What the current PFS request waits for.
    deps: Vec<ActivityId>,
}

/// The label prefix and templates of one job's lowering. A message
/// reads along the data flow, `node->rank` on a write and `rank->node`
/// on a read; its copy leg under two-level exchange is a `combine`
/// before the wire on a write, a `scatter` after it on a read.
#[derive(Clone, Copy)]
struct LabelNames {
    prefix: Prefix,
    /// `(msg, copy)` of a write, then of a read.
    legs: ((Tpl, Tpl), (Tpl, Tpl)),
    ex_join: Tpl,
    io_join: Tpl,
}

/// Upper bounds on the activities and stages lowering `job` registers,
/// read off its plan: per round slot two joins; per message at most two
/// legs (a copy at the node's leader, then the wire) of six stages in
/// all; per requested extent a head and a tail of two stages each and a
/// one-stage piece per OST it can touch. Retry chains may add stages.
fn lowering_bounds(job: &ExecJob<'_>, layout: StripeLayout) -> (usize, usize) {
    let (mut activities, mut stages) = (0, 0);
    for round in job.plan.groups.iter().flat_map(|g| &g.rounds) {
        let messages = round.messages.len();
        activities += 2 + 2 * messages;
        stages += 6 * messages;
        for e in round.ios.iter().flat_map(|io| &io.extents) {
            let stripes = usize::try_from(e.len.div_ceil(layout.stripe_unit()) + 1);
            let pieces = stripes.map_or(layout.stripe_count(), |s| s.min(layout.stripe_count()));
            activities += 2 + pieces;
            stages += 4 + pieces;
        }
    }
    (activities, stages)
}

/// The label of a job's start gate, `{prefix}start`.
fn start_label(sim: &mut Simulation, prefix: Prefix) -> Label {
    Label::new(prefix, sim.template("start"), [0, 0])
}

impl LabelNames {
    fn new(sim: &mut Simulation, prefix: Prefix) -> Self {
        let mut tpl = |template| sim.template(template);
        let write = (tpl("msg.node{}->rank{}"), tpl("combine.node{}->rank{}"));
        let read = (tpl("msg.rank{}->node{}"), tpl("scatter.rank{}->node{}"));
        LabelNames {
            prefix,
            legs: (write, read),
            ex_join: tpl("c{}.r{}.ex"),
            io_join: tpl("c{}.r{}.io"),
        }
    }

    /// The label of one leg of a transfer between `node` and aggregator
    /// `agg` in direction `rw`: its message, or its copy at the node's
    /// leader.
    fn leg(&self, rw: Rw, copy: bool, node: NodeId, agg: Rank) -> Label {
        let ((msg, copy_leg), _) = rw.flow(self.legs);
        let (from, to) = rw.flow((arg(node.0), arg(agg.0)));
        Label::new(self.prefix, if copy { copy_leg } else { msg }, [from, to])
    }

    /// The labels of slot `r`'s exchange and I/O joins on chain `ci`.
    fn joins(&self, ci: usize, r: usize) -> [Label; 2] {
        [self.ex_join, self.io_join].map(|tpl| Label::new(self.prefix, tpl, [arg(ci), arg(r)]))
    }
}

/// The activities one phase of a round created, each with its
/// aggregator: one flat list in aggregator order, creation order within
/// an aggregator.
type AggActs = Vec<(Rank, ActivityId)>;

/// What one phase of a round waits for, per aggregator: that
/// aggregator's activities of the phase before it (`after`), or the
/// slot's `first_deps` when it has none there — and in the first phase,
/// which has no `after` — then `extra`.
struct Gates<'a> {
    after: Option<&'a AggActs>,
    first_deps: &'a [ActivityId],
    extra: &'a [ActivityId],
}

impl Gates<'_> {
    fn of(&self, agg: Rank) -> impl Iterator<Item = ActivityId> + '_ {
        let own = self.after.map_or(&[][..], |acts| {
            let start = acts.partition_point(|&(a, _)| a < agg);
            let len = acts[start..].partition_point(|&(a, _)| a == agg);
            &acts[start..start + len]
        });
        let first_deps = if own.is_empty() { self.first_deps } else { &[] };
        let own = own.iter().map(|&(_, act)| act);
        own.chain(first_deps.iter().chain(self.extra).copied())
    }
}

/// One phase of a round: lowers it behind `Gates` into the shape's
/// message or I/O list, and lists its activities per aggregator in the
/// last argument.
type Phase<'l> = fn(&mut Lowering<'l>, &Round, &Gates<'_>, &mut AggActs);

impl<'l> Lowering<'l> {
    fn new(
        sim: &'l mut Simulation,
        fabric: &'l Fabric,
        pfs: &'l Pfs,
        job: &'l ExecJob<'l>,
        prefix: Prefix,
    ) -> Self {
        Lowering {
            names: LabelNames::new(sim, prefix),
            sim,
            fabric,
            pfs,
            job,
            shape: Shape::default(),
            slot_deps: Vec::new(),
            transfers: Vec::new(),
            phase_acts: Default::default(),
            deps: Vec::new(),
        }
    }

    /// Lower the job's plan into `shape`: one round chain per group
    /// under per-group sync, every group zipped into one chain under
    /// global sync. `start_gate` delays every chain's first round (the
    /// job's arrival). `shape.groups[ci]` is the plan group chain `ci`
    /// serves (`None` = all groups, global sync), which the trace
    /// exposes as per-group span metadata.
    fn lower_plan(
        &mut self,
        gate_acts: &HashMap<Slot, ActivityId>,
        start_gate: Option<ActivityId>,
    ) {
        let plan = self.job.plan;
        match plan.sync {
            SyncMode::Global => {
                let slot = |r| plan.groups.iter().filter_map(move |g| g.rounds.get(r));
                let slots = (0..plan.max_rounds()).map(slot);
                self.lower_chain(None, slots, gate_acts, start_gate);
            }
            SyncMode::PerGroup => {
                for (gi, g) in plan.groups.iter().enumerate() {
                    if !g.rounds.is_empty() {
                        let slots = g.rounds.iter().map(std::slice::from_ref);
                        self.lower_chain(Some(gi), slots, gate_acts, start_gate);
                    }
                }
            }
        }
    }

    /// Lower one chain serving `group`, slot by slot: wire the
    /// pipelining dependencies on the earlier slots' joins, lower the
    /// slot's rounds and add its two joins.
    fn lower_chain<'p, R: IntoIterator<Item = &'p Round>>(
        &mut self,
        group: Option<usize>,
        slots: impl Iterator<Item = R>,
        gate_acts: &HashMap<Slot, ActivityId>,
        start_gate: Option<ActivityId>,
    ) {
        let (plan, pipeline, names) = (self.job.plan, self.job.pipeline, self.names);
        let ci = self.shape.groups.len();
        self.shape.groups.push(group);
        // The (exchange, I/O) joins of the previous two slots.
        let mut prev: [Option<(ActivityId, ActivityId)>; 2] = [None, None];
        for (r, rounds) in slots.enumerate() {
            // Dependencies per pipelining mode, on the earlier slots'
            // joins in phase order.
            let mut slot_deps = std::mem::take(&mut self.slot_deps);
            slot_deps.clear();
            let mut second_extra = None;
            match (pipeline, prev) {
                (_, [None, _]) => slot_deps.extend(start_gate),
                (Pipeline::Serial, [Some((ex, io)), _]) => slot_deps.extend([ex, io]),
                (Pipeline::DoubleBuffered, [Some(last), before]) => {
                    // The first phase of round r reuses the buffer the
                    // second phase of round r-2 released; the second
                    // phase serializes per buffer stream.
                    let (last_first, last_second) = plan.rw.flow(last);
                    slot_deps.push(last_first);
                    slot_deps.extend(before.map(|joins| plan.rw.flow(joins).1));
                    second_extra = Some(last_second);
                }
            }
            // A gated slot may not start before its gate releases.
            slot_deps.extend(gate_acts.get(&(group, r)));
            let (msgs, ios, agg_ios) = (
                self.shape.msgs.len(),
                self.shape.ios.len(),
                self.shape.agg_ios.len(),
            );
            for (k, round) in (0..).zip(rounds) {
                self.lower_round(round, k, &slot_deps, second_extra.as_slice());
            }
            let (msgs, ios) = (msgs..self.shape.msgs.len(), ios..self.shape.ios.len());
            let sim = &mut *self.sim;
            let [ex_label, io_label] = names.joins(ci, r);
            let ex_join = sim.activity(ex_label, SimTime::ZERO, &[]);
            for &m in &self.shape.msgs[msgs.clone()] {
                sim.add_dep(m, ex_join);
            }
            let io_join = sim.activity(io_label, SimTime::ZERO, &[]);
            for &io in &self.shape.ios[ios.clone()] {
                sim.add_dep(io, io_join);
            }
            // Empty phases still chain (join on the other phase so the
            // slot completes in order).
            if msgs.is_empty() {
                for &d in &slot_deps {
                    sim.add_dep(d, ex_join);
                }
            }
            if ios.is_empty() {
                sim.add_dep(ex_join, io_join);
            }
            // The start gate is not the job's own activity — the slot
            // starts no earlier than the job, which attribution reads
            // off the arrival time — so the metadata never names it.
            let gated = usize::from(r == 0 && start_gate.is_some());
            let first_deps = self.shape.first_deps.len();
            self.shape.first_deps.extend_from_slice(&slot_deps[gated..]);
            self.shape.slots.push(SlotMeta {
                chain: ci,
                round: r,
                first_deps: first_deps..self.shape.first_deps.len(),
                msgs,
                ios,
                agg_ios: agg_ios..self.shape.agg_ios.len(),
            });
            self.slot_deps = slot_deps;
            prev = [Some((ex_join, io_join)), prev[0]];
        }
    }

    /// Lower the `k`-th round of a slot: its first phase behind the
    /// slot's dependencies, its second behind each aggregator's
    /// first-phase activities (the slot's dependencies for an aggregator
    /// without any) plus `second_extra`, the pipelining gates. Which
    /// phase is first is the plan's direction and nothing else: exchange
    /// then file access in write order, [`Rw::flow`] of that on a read.
    fn lower_round(
        &mut self,
        round: &Round,
        k: u32,
        slot_deps: &[ActivityId],
        second_extra: &[ActivityId],
    ) {
        let rw = self.job.plan.rw;
        let phases: (Phase<'l>, Phase<'l>) = (Self::exchange, Self::file_access);
        let (first, second) = rw.flow(phases);
        let [mut first_acts, mut second_acts] = std::mem::take(&mut self.phase_acts);
        first_acts.clear();
        second_acts.clear();
        let open = Gates {
            after: None,
            first_deps: slot_deps,
            extra: &[],
        };
        first(self, round, &open, &mut first_acts);
        debug_assert!(first_acts.is_sorted_by_key(|&(agg, _)| agg));
        let held = Gates {
            after: Some(&first_acts),
            extra: second_extra,
            ..open
        };
        second(self, round, &held, &mut second_acts);
        let (_, io_acts) = rw.flow((&first_acts, &second_acts));
        let per_agg = io_acts.iter().map(|&(agg, act)| (k, agg, act));
        self.shape.agg_ios.extend(per_agg);
        self.phase_acts = [first_acts, second_acts];
    }

    /// The exchange phase: one leg chain per transfer, its first leg
    /// behind the aggregator's gates. Labels and endpoints read along
    /// the data flow, `node->aggregator` on a write and
    /// `aggregator->node` on a read.
    fn exchange(&mut self, round: &Round, gates: &Gates<'_>, acts: &mut AggActs) {
        let (job, rw) = (self.job, self.job.plan.rw);
        let mut transfers = std::mem::take(&mut self.transfers);
        exchange_transfers(round, job.map, job.exchange, rw, &mut transfers);
        for t in &transfers {
            let wire = rw.flow((t.node, job.map.node_of(t.agg)));
            // Two-level: one extra memory-bus copy of the combined payload
            // at the node's leader — combined there before the wire on a
            // write, scattered from there after it on a read.
            let copy = t.combined.then_some((true, (t.node, t.node)));
            let legs = rw.flow((copy, Some((false, wire))));
            let mut prev: Option<ActivityId> = None;
            for (copy, (src, dst)) in [legs.0, legs.1].into_iter().flatten() {
                let label = self.names.leg(rw, copy, t.node, t.agg);
                let a = self.fabric.message(self.sim, label, src, dst, t.bytes);
                match prev {
                    None => gates.of(t.agg).for_each(|d| self.sim.add_dep(d, a)),
                    Some(p) => self.sim.add_dep(p, a),
                }
                prev = Some(a);
                acts.push((t.agg, a));
                self.shape.msgs.push(a);
            }
        }
        self.transfers = transfers;
    }

    /// The file-access phase: one PFS request per coalesced extent of
    /// each I/O op, behind its aggregator's gates.
    fn file_access(&mut self, round: &Round, gates: &Gates<'_>, acts: &mut AggActs) {
        let (job, pfs, fabric) = (self.job, self.pfs, self.fabric);
        for io in &round.ios {
            self.deps.clear();
            self.deps.extend(gates.of(io.agg));
            let by = Requester {
                prefix: self.names.prefix,
                rank: arg(io.agg.0),
            };
            let node = job.map.node_of(io.agg);
            for e in &io.extents {
                let (sim, deps) = (&mut *self.sim, &self.deps);
                let done = pfs.submit(sim, fabric, by, node, job.plan.rw, *e, deps);
                acts.push((io.agg, done));
                self.shape.ios.push(done);
            }
        }
        // The plan lists a round's I/O ops in file-domain order; the
        // sort is stable, so an aggregator's requests keep theirs.
        acts.sort_by_key(|&(agg, _)| agg);
    }
}

/// Busy-time maxima over the machine's resources: the busiest memory
/// bus, the busiest NIC direction, the busiest OST, and the summed OST
/// busy time.
fn busy_maxima(
    report: &mcio_des::RunReport,
    fabric: &Fabric,
    pfs: &Pfs,
) -> (SimDuration, SimDuration, SimDuration, SimDuration) {
    let nnodes = fabric.nnodes();
    let mut membus_busy_max = SimDuration::ZERO;
    let mut nic_busy_max = SimDuration::ZERO;
    for n in 0..nnodes {
        let node = mcio_cluster::NodeId(n);
        membus_busy_max = membus_busy_max.max(report.resource_usage(fabric.membus(node)).busy_time);
        nic_busy_max = nic_busy_max
            .max(report.resource_usage(fabric.nic_tx(node)).busy_time)
            .max(report.resource_usage(fabric.nic_rx(node)).busy_time);
    }
    let mut ost_busy_max = SimDuration::ZERO;
    let mut ost_busy_total = SimDuration::ZERO;
    for o in 0..pfs.ost_count() {
        let busy = report
            .resource_usage(pfs.ost_resource(mcio_pfs::OstId(o)))
            .busy_time;
        ost_busy_max = ost_busy_max.max(busy);
        ost_busy_total += busy;
    }
    (membus_busy_max, nic_busy_max, ost_busy_max, ost_busy_total)
}

/// Phase attribution of one lowered plan after the simulation ran.
struct Attribution {
    /// Attribution-sum exchange time over the plan's chains.
    exchange_time: SimDuration,
    /// Attribution-sum file-access time over the plan's chains.
    io_time: SimDuration,
    /// Per round-slot phase durations, chain-major.
    rounds: Vec<RoundPhase>,
    /// Absolute executed window of every slot.
    windows: Vec<RoundWindow>,
    /// Per-aggregator file-access time (first request start → last
    /// done, summed over rounds), keyed by rank index.
    agg_io: Vec<(usize, SimDuration)>,
}

/// Attribute each round slot's executed window to its exchange and I/O
/// phases: the first phase spans [start, its last completion], the
/// second the rest of the slot — in [`Rw::flow`] order, so on a write
/// the messages come first and on a read the I/O does.
fn attribute_phases(
    job: &ExecJob<'_>,
    report: &mcio_des::RunReport,
    lowered: &Lowered,
) -> Attribution {
    let (rw, shape) = (job.plan.rw, &lowered.shape);
    let round_meta = &shape.slots;
    let mut exchange_time = SimDuration::ZERO;
    let mut io_time = SimDuration::ZERO;
    let mut round_phases: Vec<RoundPhase> = Vec::with_capacity(round_meta.len());
    let mut windows: Vec<RoundWindow> = Vec::with_capacity(round_meta.len());
    // Per aggregator, by rank: an exascale plan has tens of thousands.
    let mut agg_io_acc: Vec<Option<SimDuration>> = Vec::new();
    for meta in round_meta {
        let last = |acts: &[ActivityId], or: SimTime| {
            let done = acts.iter().map(|&a| report.finish_time(a));
            done.max().unwrap_or(or)
        };
        // The job's arrival is when its start gate completes.
        let arrival = SimTime::ZERO + job.start;
        let t0 = last(shape.first_deps(meta), arrival).max(arrival);
        let (msgs_end, ios_end) = (last(shape.msgs(meta), t0), last(shape.ios(meta), t0));
        windows.push(RoundWindow {
            group: shape.groups.get(meta.chain).copied().flatten(),
            round: meta.round,
            start_ns: t0.saturating_since(SimTime::ZERO).as_nanos(),
            end_ns: msgs_end
                .max(ios_end)
                .saturating_since(SimTime::ZERO)
                .as_nanos(),
        });
        let (first_end, second_end) = rw.flow((msgs_end, ios_end));
        let first = first_end.saturating_since(t0);
        let (exchange, io) = rw.flow((first, second_end.saturating_since(first_end)));
        exchange_time += exchange;
        io_time += io;
        round_phases.push(RoundPhase {
            chain: meta.chain,
            round: meta.round,
            exchange,
            io,
        });
        // Per-aggregator file access: first request start → last done.
        for ios in shape.agg_io_runs(meta) {
            let agg = ios[0].1;
            let start = ios.iter().map(|&(_, _, a)| report.start_time(a)).min();
            let end = ios.iter().map(|&(_, _, a)| report.finish_time(a)).max();
            if let (Some(s), Some(e)) = (start, end) {
                if agg_io_acc.len() <= agg.0 {
                    agg_io_acc.resize(agg.0 + 1, None);
                }
                let acc = agg_io_acc[agg.0].get_or_insert(SimDuration::ZERO);
                *acc += e.saturating_since(s);
            }
        }
    }
    Attribution {
        exchange_time,
        io_time,
        rounds: round_phases,
        windows,
        agg_io: (agg_io_acc.into_iter().enumerate())
            .filter_map(|(rank, io)| Some((rank, io?)))
            .collect(),
    }
}

/// Normalize an attribution sum into `(exchange_fraction, io_fraction)`
/// (both zero when nothing was attributed).
fn phase_fractions(exchange_time: SimDuration, io_time: SimDuration) -> (f64, f64) {
    let attributed = exchange_time + io_time;
    if attributed.is_zero() {
        (0.0, 0.0)
    } else {
        let total = attributed.as_secs_f64();
        (
            exchange_time.as_secs_f64() / total,
            io_time.as_secs_f64() / total,
        )
    }
}

/// Record one run's scalar gauges and per-round observations into the
/// registry. `job` appends a `job` label to every sample so concurrent
/// tenants stay distinguishable; solo runs pass `None` and keep the
/// historical label set.
pub(crate) fn record_run(reg: &Registry, strategy: &str, job: Option<&str>, report: &TimingReport) {
    let mut labels: Vec<(&str, &str)> = vec![("strategy", strategy)];
    if let Some(j) = job {
        labels.push(("job", j));
    }
    let metrics = &report.metrics;
    reg.set_gauge("run.elapsed_ns", &labels, report.elapsed.as_nanos() as f64);
    reg.inc("run.bytes", &labels, report.bytes);
    reg.set_gauge("run.bandwidth_mibs", &labels, report.bandwidth_mibs);
    reg.set_gauge("run.exchange_frac", &labels, metrics.exchange_fraction);
    reg.set_gauge("run.io_frac", &labels, metrics.io_fraction);
    for p in &metrics.rounds {
        reg.observe("run.round.exchange_ns", &labels, p.exchange.as_nanos());
        reg.observe("run.round.io_ns", &labels, p.io.as_nanos());
    }
    for (agg, dur) in &metrics.agg_io {
        let agg = agg.to_string();
        let mut alabels: Vec<(&str, &str)> = vec![("agg", agg.as_str())];
        if let Some(j) = job {
            alabels.push(("job", j));
        }
        reg.set_gauge("run.agg.io_ns", &alabels, dur.as_nanos() as f64);
    }
}

/// Emit the pid-2 `plan.rounds` spans of one lowered job: one lane per
/// chain at `tid_base + chain`, named `{prefix}chain{c} (group g)`. The
/// executor stacks the jobs' chains into disjoint tid ranges; the job
/// prefix on the lane lets `mcio-analyze` attribute them.
fn emit_round_spans(
    tc: &mut Trace,
    job: &ExecJob<'_>,
    lowered: &Lowered,
    run: &JobRun,
    tid_base: u64,
) {
    let mut named_chains = std::collections::BTreeSet::new();
    let slots = run.report.metrics.rounds.iter().zip(&run.windows);
    let shape = &lowered.shape;
    for (meta, (phase, window)) in shape.slots.iter().zip(slots) {
        // Per-group span metadata: which plan group this chain
        // serves ("all" when global sync zips every group into one
        // chain) and how many aggregators work the slot. Critical-
        // path reconstruction in `mcio-analyze` keys on these args.
        let gi = shape.groups.get(meta.chain).copied().flatten();
        let group: &dyn std::fmt::Display = match &gi {
            Some(gi) => gi,
            None => &"all",
        };
        let args = [
            ("group", tc.sym(format_args!("{group}"))),
            ("round", tc.sym(format_args!("{}", meta.round))),
            (
                "aggs",
                tc.sym(format_args!("{}", shape.agg_io_runs(meta).count())),
            ),
        ];
        let tid = tid_base + meta.chain as u64;
        if named_chains.insert(meta.chain) {
            tc.name_thread(
                PID_ROUNDS,
                tid,
                format_args!("{}chain{} (group {group})", job.prefix, meta.chain),
            );
        }
        // The first phase starts the slot, the second follows it.
        let rw = job.plan.rw;
        let (first, _) = rw.flow((phase.exchange, phase.io));
        let t0 = window.start_ns;
        let (ex_start, io_start) = rw.flow((t0, t0 + first.as_nanos()));
        let spans = [
            ("exchange", ex_start, phase.exchange),
            ("io", io_start, phase.io),
        ];
        for (what, start, dur) in spans.into_iter().filter(|s| !s.2.is_zero()) {
            let name = format_args!("r{}.{what}", meta.round);
            tc.span_with_args(name, what, PID_ROUNDS, tid, start, dur.as_nanos(), &args);
        }
    }
}

/// One transfer of a round's exchange: `bytes` between aggregator `agg`
/// and the ranks of `node`.
struct Transfer {
    agg: Rank,
    /// The other endpoint (under two-level exchange, one of the ranks
    /// combined at `node`).
    peer: Rank,
    /// The node of the other endpoint.
    node: mcio_cluster::NodeId,
    bytes: u64,
    /// Two-level exchange off the aggregator's node: the payload is
    /// staged through an on-node copy at `node`'s leader.
    combined: bool,
}

/// Fill `out` with a round's transfers: one per (aggregator, peer) — per
/// (aggregator, node) under two-level exchange — with the bytes of every
/// message between the two, sorted by aggregator and then by peer rank
/// (node).
fn exchange_transfers(
    round: &Round,
    map: &ProcessMap,
    exchange: Exchange,
    rw: Rw,
    out: &mut Vec<Transfer>,
) {
    out.clear();
    out.extend(round.messages.iter().map(|m| {
        let (peer, agg) = rw.flow((m.src, m.dst));
        Transfer {
            agg,
            peer,
            node: map.node_of(peer),
            bytes: m.bytes(),
            combined: false,
        }
    }));
    let two_level = exchange == Exchange::TwoLevel;
    let key = |t: &Transfer| (t.agg, if two_level { t.node.0 } else { t.peer.0 });
    // Transfers with one key merge into one, so their order among
    // themselves is immaterial and the sort need not be stable.
    out.sort_unstable_by_key(key);
    out.dedup_by(|next, kept| {
        let same = key(next) == key(kept);
        if same {
            kept.bytes += next.bytes;
        }
        same
    });
    if two_level {
        for t in out.iter_mut() {
            t.combined = t.node != map.node_of(t.agg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollectiveConfig;
    use crate::memory::ProcMemory;
    use crate::request::CollectiveRequest;
    use crate::{mcio, twophase};
    use mcio_cluster::Placement;
    use mcio_pfs::Extent;

    const MIB: u64 = 1 << 20;

    fn serial_req(rw: Rw, nranks: usize, chunk: u64) -> CollectiveRequest {
        CollectiveRequest::new(
            rw,
            (0..nranks as u64)
                .map(|r| vec![Extent::new(r * chunk, chunk)])
                .collect(),
        )
    }

    fn small_spec(nodes: usize) -> ClusterSpec {
        ClusterSpec::small(nodes, 2)
    }

    /// Every production label shape, written by the code that writes it
    /// and read back through the report, against the text the `format!`
    /// calls the label rows replaced wrote.
    #[test]
    fn labels_render_as_their_format_strings_wrote_them() {
        let mut spec = small_spec(3);
        spec.io_servers = 4;
        let mut sim = Simulation::new();
        let fabric = Fabric::build(&mut sim, &spec);
        let pfs = Pfs::build(&mut sim, &spec);
        let mut expected: Vec<String> = Vec::new();
        // A tenant's lowering: messages and copies in both directions,
        // PFS requests, joins, its start gate and its release gates.
        let text = "j3.";
        let j3 = sim.prefix(text);
        let names = LabelNames::new(&mut sim, j3);
        let (node, agg) = (NodeId(2), Rank(5));
        for rw in [Rw::Write, Rw::Read] {
            let (from, to): (&dyn std::fmt::Display, &dyn std::fmt::Display) =
                rw.flow((&node, &agg));
            let (verb, _) = rw.flow(("combine", "scatter"));
            for (copy, verb) in [(false, "msg"), (true, verb)] {
                let label = names.leg(rw, copy, node, agg);
                fabric.message(&mut sim, label, node, NodeId(0), 10);
                expected.push(format!("{text}{verb}.{from}->{to}"));
            }
        }
        let by = Requester {
            prefix: j3,
            rank: arg(agg.0),
        };
        let label = format!("{text}io.{agg}");
        let stripe = 1 << 20;
        for (rw, parts) in [
            (Rw::Write, ["egress", "done"]),
            (Rw::Read, ["rpc", "ingress"]),
        ] {
            pfs.submit(
                &mut sim,
                &fabric,
                by,
                node,
                rw,
                Extent::new(stripe, 2 * stripe),
                &[],
            );
            expected.push(format!("{label}.{}", parts[0]));
            expected.push(format!("{label}.{}", parts[1]));
            for ost in [1, 2] {
                expected.push(format!("{label}.{}", mcio_pfs::OstId(ost)));
            }
        }
        pfs.submit(&mut sim, &fabric, by, node, Rw::Read, Extent::EMPTY, &[]);
        expected.push(format!("{label}.empty"));
        let (ci, r) = (4, 11);
        let joins = |p: &str| [format!("{p}c{ci}.r{r}.ex"), format!("{p}c{ci}.r{r}.io")];
        for join in names.joins(ci, r) {
            sim.activity(join, SimTime::ZERO, &[]);
        }
        expected.extend(joins(text));
        let start = start_label(&mut sim, j3);
        sim.activity(start, SimTime::ZERO, &[]);
        expected.push(format!("{text}start"));
        let (gi, first) = (7, 3);
        let (slot, at) = ((Some(gi), first), SimTime::ZERO);
        let defer = |group| {
            Mark::Deferral(crate::adaptive::DeferDecision {
                group,
                round: first,
                from_ns: 0,
                release_ns: 1,
                stretch: 2.0,
            })
        };
        let moved = crate::marks::Moved {
            group: gi,
            slot,
            at,
            gated: true,
        };
        let gates = [
            Mark::Failover(moved),
            Mark::Demotion {
                moved,
                node: 0,
                drop_frac: 0.5,
                from: Rank(0),
                to: Rank(1),
            },
            defer(Some(gi)),
            defer(None),
        ];
        marks::gates(&gates, &mut sim, j3);
        expected.extend([
            format!("failover.g{gi}.r{first}"),
            format!("replan.g{gi}.r{first}"),
            format!("{text}defer.g{gi}.r{first}"),
            format!("{text}defer.gall.r{first}"),
        ]);
        let report = sim.run().expect("the labels' activities run");
        let ids = ids(report.activity_count());
        let labels: Vec<String> = ids.into_iter().map(|a| report.label(a)).collect();
        assert_eq!(labels, expected);
        for n in 0..spec.nodes {
            let node = NodeId(n);
            let buses = [
                fabric.membus(node),
                fabric.nic_tx(node),
                fabric.nic_rx(node),
            ];
            let names = buses.map(|r| report.resource_name(r));
            let expected = ["membus", "nic_tx", "nic_rx"].map(|r| format!("node{n}.{r}"));
            assert_eq!(names, expected);
        }
        for k in 0..spec.io_servers {
            let ost = pfs.ost_resource(mcio_pfs::OstId(k));
            assert_eq!(report.resource_name(ost), format!("ost{k}"));
        }
    }

    /// The ids of a simulation's first `n` activities, in order.
    fn ids(n: usize) -> Vec<ActivityId> {
        let mut scratch = Simulation::new();
        (0..n)
            .map(|_| scratch.activity("a", SimTime::ZERO, &[]))
            .collect()
    }

    #[test]
    fn write_collective_produces_sane_timing() {
        let req = serial_req(Rw::Write, 8, 4 * MIB);
        let map = ProcessMap::new(8, 4, Placement::Block);
        let mem = ProcMemory::uniform(8, 4 * MIB);
        let cfg = CollectiveConfig::with_buffer(4 * MIB);
        let plan = twophase::plan(&req, &map, &mem, &cfg);
        let rep = simulate(&plan, &map, &small_spec(4));
        assert_eq!(rep.bytes, 32 * MIB);
        assert!(!rep.elapsed.is_zero());
        assert!(rep.bandwidth_mibs > 0.0);
        // PFS-bound: the 4 OSTs at 100 MiB/s cap aggregate write BW.
        assert!(
            rep.bandwidth_mibs < 450.0,
            "bw {} exceeds PFS capability",
            rep.bandwidth_mibs
        );
    }

    #[test]
    fn read_faster_than_write_same_plan_shape() {
        let wreq = serial_req(Rw::Write, 4, 8 * MIB);
        let rreq = serial_req(Rw::Read, 4, 8 * MIB);
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::uniform(4, 8 * MIB);
        let cfg = CollectiveConfig::with_buffer(8 * MIB);
        let spec = small_spec(2);
        let w = simulate(&twophase::plan(&wreq, &map, &mem, &cfg), &map, &spec);
        let r = simulate(&twophase::plan(&rreq, &map, &mem, &cfg), &map, &spec);
        assert!(
            r.bandwidth_mibs > w.bandwidth_mibs,
            "read {} <= write {}",
            r.bandwidth_mibs,
            w.bandwidth_mibs
        );
    }

    #[test]
    fn smaller_buffers_are_slower() {
        let req = serial_req(Rw::Write, 8, 8 * MIB);
        let map = ProcessMap::new(8, 4, Placement::Block);
        let spec = small_spec(4);
        let mut last_bw = f64::INFINITY;
        for buf in [8 * MIB, MIB, MIB / 4] {
            let mem = ProcMemory::uniform(8, buf);
            let cfg = CollectiveConfig::with_buffer(buf);
            let plan = twophase::plan(&req, &map, &mem, &cfg);
            let rep = simulate(&plan, &map, &spec);
            assert!(
                rep.bandwidth_mibs < last_bw,
                "buffer {buf}: bw {} did not drop below {last_bw}",
                rep.bandwidth_mibs
            );
            last_bw = rep.bandwidth_mibs;
        }
    }

    #[test]
    fn memory_conscious_beats_baseline_with_starved_aggregator() {
        // One designated baseline aggregator is memory-starved; MC routes
        // around it.
        let req = serial_req(Rw::Write, 8, 8 * MIB);
        let map = ProcessMap::new(8, 4, Placement::Block);
        // Baseline aggregators are ranks 0,2,4,6; rank 0 is starved.
        let mut budgets = vec![8 * MIB; 8];
        budgets[0] = MIB / 4;
        let mem = ProcMemory::from_budgets(budgets);
        let cfg = CollectiveConfig::with_buffer(8 * MIB)
            .msg_ind(16 * MIB)
            .msg_group(32 * MIB)
            .mem_min(MIB);
        let spec = small_spec(4);
        let base = simulate(&twophase::plan(&req, &map, &mem, &cfg), &map, &spec);
        let mc = simulate(&mcio::plan(&req, &map, &mem, &cfg), &map, &spec);
        assert!(
            mc.bandwidth_mibs > base.bandwidth_mibs * 1.2,
            "mc {} vs baseline {}",
            mc.bandwidth_mibs,
            base.bandwidth_mibs
        );
    }

    #[test]
    fn phase_attribution_sums_to_chain_time() {
        // Single group, global sync: exchange + io per round partition
        // the round chain exactly, so their sum equals the elapsed time.
        let req = serial_req(Rw::Write, 4, 8 * MIB);
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::uniform(4, 2 * MIB);
        let cfg = CollectiveConfig::with_buffer(2 * MIB);
        let plan = twophase::plan(&req, &map, &mem, &cfg);
        let rep = simulate(&plan, &map, &small_spec(2));
        assert!(!rep.exchange_time.is_zero());
        assert!(!rep.io_time.is_zero());
        let sum = rep.exchange_time + rep.io_time;
        let diff = sum.as_secs_f64() - rep.elapsed.as_secs_f64();
        assert!(
            diff.abs() < rep.elapsed.as_secs_f64() * 0.05,
            "exchange {} + io {} should approximate elapsed {}",
            rep.exchange_time,
            rep.io_time,
            rep.elapsed
        );
        // Writes on this machine are I/O-dominated.
        assert!(rep.io_time > rep.exchange_time);
    }

    #[test]
    fn double_buffering_overlaps_phases() {
        // Many rounds, comparable exchange and I/O costs: pipelining must
        // shorten the collective, and never lengthen it.
        let req = serial_req(Rw::Write, 8, 16 * MIB);
        let map = ProcessMap::new(8, 4, Placement::Block);
        let mem = ProcMemory::uniform(8, MIB);
        let cfg = CollectiveConfig::with_buffer(MIB);
        let plan = twophase::plan(&req, &map, &mem, &cfg);
        assert!(plan.max_rounds() >= 16);
        let spec = small_spec(4);
        let run = |plan: &CollectivePlan, pipeline| {
            let obs = Observe::default();
            simulate_observed(plan, &map, &spec, pipeline, Exchange::Direct, obs).0
        };
        let serial = run(&plan, Pipeline::Serial);
        let piped = run(&plan, Pipeline::DoubleBuffered);
        assert!(
            piped.elapsed < serial.elapsed,
            "pipelined {} !< serial {}",
            piped.elapsed,
            serial.elapsed
        );
        // Same bytes either way.
        assert_eq!(piped.bytes, serial.bytes);
        // And reads pipeline too.
        let rreq = serial_req(Rw::Read, 8, 16 * MIB);
        let rplan = twophase::plan(&rreq, &map, &mem, &cfg);
        let rs = run(&rplan, Pipeline::Serial);
        let rp = run(&rplan, Pipeline::DoubleBuffered);
        assert!(rp.elapsed < rs.elapsed);
    }

    #[test]
    fn two_level_exchange_cuts_wire_messages() {
        // Many ranks per node, one aggregator per node: the flat exchange
        // pushes ppn messages per (node, agg) pair over the NIC; the
        // two-level exchange pushes one. With a per-message overhead the
        // two-level shape must win.
        let nranks = 32;
        let map = ProcessMap::new(nranks, 4, Placement::Block);
        let req = serial_req(Rw::Write, nranks, MIB);
        let mem = ProcMemory::uniform(nranks, 4 * MIB);
        let cfg = CollectiveConfig::with_buffer(4 * MIB);
        let plan = twophase::plan(&req, &map, &mem, &cfg);
        let mut spec = small_spec(4);
        spec.message_overhead = mcio_des::SimDuration::from_millis(1);
        let two_level = |plan: &CollectivePlan| {
            let obs = Observe::default();
            simulate_observed(plan, &map, &spec, Pipeline::Serial, Exchange::TwoLevel, obs).0
        };
        let flat = simulate(&plan, &map, &spec);
        let two = two_level(&plan);
        assert!(
            two.elapsed < flat.elapsed,
            "two-level {} !< direct {}",
            two.elapsed,
            flat.elapsed
        );
        assert_eq!(two.bytes, flat.bytes);
        // Reads too.
        let rplan = twophase::plan(&serial_req(Rw::Read, nranks, MIB), &map, &mem, &cfg);
        let flat_r = simulate(&rplan, &map, &spec);
        let two_r = two_level(&rplan);
        assert!(two_r.elapsed < flat_r.elapsed);
    }

    #[test]
    fn traced_run_emits_timeline() {
        let req = serial_req(Rw::Write, 4, MIB);
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::uniform(4, MIB);
        let plan = twophase::plan(&req, &map, &mem, &CollectiveConfig::with_buffer(MIB));
        let obs = Observe {
            trace: true,
            ..Observe::default()
        };
        let (rep, json) = simulate_observed(
            &plan,
            &map,
            &small_spec(2),
            Pipeline::Serial,
            Exchange::Direct,
            obs,
        );
        let json = json.expect("trace was requested");
        assert!(rep.bandwidth_mibs > 0.0);
        assert!(json.contains("membus"));
        assert!(json.contains("ost"));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn straggler_node_contained_by_groups() {
        // Node 0 runs at 20% bandwidth. Under global sync every round
        // waits for it; per-group sync confines the damage to its group.
        let req = serial_req(Rw::Write, 8, 8 * MIB);
        let map = ProcessMap::new(8, 4, Placement::Block);
        let mem = ProcMemory::uniform(8, MIB);
        let per_node = req.total_bytes() / 4;
        let cfg = CollectiveConfig::with_buffer(MIB)
            .msg_group(per_node)
            .msg_ind(per_node / 2)
            .mem_min(0);
        let spec = small_spec(4).with_straggler(0, 0.2);
        let tp = simulate(&twophase::plan(&req, &map, &mem, &cfg), &map, &spec);
        let mcp = simulate(&mcio::plan(&req, &map, &mem, &cfg), &map, &spec);
        assert!(
            mcp.bandwidth_mibs > tp.bandwidth_mibs,
            "MC {} must beat global-sync {} under a straggler",
            mcp.bandwidth_mibs,
            tp.bandwidth_mibs
        );
    }

    #[test]
    fn transfers_merge_per_aggregator_and_peer_or_node() {
        // Three nodes of two ranks; aggregators 0 (node 0) and 4 (node 2).
        let map = ProcessMap::new(6, 3, Placement::Block);
        let msgs = [(3, 0, 10), (1, 0, 5), (3, 0, 7), (2, 4, 1), (0, 0, 2)];
        for rw in [Rw::Write, Rw::Read] {
            let messages = msgs.map(|(requester, agg, bytes)| {
                let e = Extent::new(requester * 100, bytes);
                let extents = crate::request::Extents::new(&vec![e].into(), &e).expect("a byte");
                crate::plan::Message::new(rw, Rank(requester as usize), Rank(agg), extents)
            });
            let round = Round {
                messages: messages.to_vec(),
                ios: Vec::new(),
            };
            let mut out = vec![];
            let mut lowered = |exchange| {
                exchange_transfers(&round, &map, exchange, rw, &mut out);
                let row = |t: &Transfer| (t.agg.0, t.node.0, t.bytes, t.combined);
                out.iter().map(row).collect::<Vec<_>>()
            };
            // One per (aggregator, peer), peers 0, 1, 3 then 2.
            let direct = [
                (0, 0, 2, false),
                (0, 0, 5, false),
                (0, 1, 17, false),
                (4, 1, 1, false),
            ];
            assert_eq!(lowered(Exchange::Direct), direct, "{rw:?}");
            // One per (aggregator, node), staged off the aggregator's node.
            let two_level = [(0, 0, 7, false), (0, 1, 17, true), (4, 1, 1, true)];
            assert_eq!(lowered(Exchange::TwoLevel), two_level, "{rw:?}");
        }
    }

    #[test]
    fn empty_plan_zero_time() {
        let req = CollectiveRequest::new(Rw::Write, vec![vec![], vec![]]);
        let map = ProcessMap::new(2, 1, Placement::Block);
        let mem = ProcMemory::uniform(2, MIB);
        let plan = twophase::plan(&req, &map, &mem, &CollectiveConfig::default());
        let rep = simulate(&plan, &map, &small_spec(1));
        assert_eq!(rep.bytes, 0);
        assert_eq!(rep.bandwidth_mibs, 0.0);
    }

    #[test]
    fn per_group_sync_beats_global_with_one_slow_group() {
        // Same aggregator layout, but group-local sync lets fast groups
        // finish without waiting for the starved one.
        let req = serial_req(Rw::Write, 8, 8 * MIB);
        let map = ProcessMap::new(8, 4, Placement::Block);
        let mut budgets = vec![8 * MIB; 8];
        budgets[0] = MIB / 2;
        budgets[1] = MIB / 2; // whole node 0 starved
        let mem = ProcMemory::from_budgets(budgets);
        let cfg = CollectiveConfig::with_buffer(8 * MIB)
            .msg_ind(16 * MIB)
            .msg_group(16 * MIB)
            .mem_min(0);
        let spec = small_spec(4);
        let mc = mcio::plan(&req, &map, &mem, &cfg);
        assert_eq!(mc.sync, SyncMode::PerGroup);
        let rep = simulate(&mc, &map, &spec);
        assert!(rep.bandwidth_mibs > 0.0);
    }
}
