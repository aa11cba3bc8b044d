//! Multi-tenant execution: N independent collective jobs sharing one
//! machine.
//!
//! The paper tunes collective I/O on a dedicated testbed, but a real
//! extreme-scale machine runs many collective jobs against one shared
//! parallel file system. This module hands every job's plan to the one
//! executor ([`crate::exec_sim`]), which lowers them into a *single*
//! discrete-event simulation over one shared
//! [`Fabric`](mcio_cluster::Fabric) and [`Pfs`](mcio_pfs::Pfs), so
//! cross-job contention on OSTs, NICs and memory buses falls out of the
//! existing resource model instead of being modeled separately:
//!
//! * each job owns a node partition via [`TenantJob::node_offset`]
//!   (partitions may overlap — two jobs can share nodes);
//! * each job arrives at [`TenantJob::start`] (simulated time, no
//!   wall-clock): a release-gated activity holds back its first round;
//! * every activity label is namespaced `j{n}.` so traces, metrics and
//!   `mcio-analyze` can attribute work to a job.
//!
//! A single-job run with offset 0 and start 0 is byte-identical to
//! [`simulate_observed`](crate::exec_sim::simulate_observed) — the
//! prefix collapses to `""` and the lowering is the very same code
//! path (`crates/core/tests/multitenant_props.rs` proves it).
//!
//! Interference metrics per job:
//! * **slowdown** — the job's span on the shared machine divided by
//!   its elapsed time when simulated alone on the same nodes (the *solo
//!   baseline*, [`TenantJob::baseline`]);
//! * **OST busy-overlap** — the fraction of the job's OST service time
//!   during which at least one *other* job was also being served by
//!   some OST (how much of its storage work was contended).
//!
//! A job stream that commits one job at a time (the batch scheduler)
//! runs each newcomer alone against a [`Ledger`] of the service the jobs
//! it committed before hold, instead of simulating them again.

use crate::adaptive::{clean_run, control, controller_acts, AdaptiveOutcome, AdaptivePolicy};
use crate::config::Strategy;
use crate::exec_sim::{
    execute, record_run, Elapsed, Exchange, ExecJob, Executed, Held, Observe, Pipeline,
    RoundWindow, TimingReport,
};
use crate::marks;
use crate::plan::CollectivePlan;
use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_des::{EngineProfile, ResourceId, ServiceWindow, SharePolicy, SimDuration, SimTime};
use mcio_faults::FaultSpec;
use mcio_obs::catalogue::PID_TENANTS;
use mcio_obs::intervals::{intersect_len, merge_intervals, shared_intervals, total_len};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// One job of a multi-tenant run: a fully planned collective plus its
/// placement on the shared machine and its arrival time.
#[derive(Debug, Clone)]
pub struct TenantJob {
    /// Job name (trace lanes, metric labels, reports).
    pub label: String,
    /// The planned collective (pure data; any strategy). Shared, so
    /// placing one planned job many times never copies the plan.
    pub plan: Arc<CollectivePlan>,
    /// The job's process placement over its *local* nodes
    /// `0..map.nnodes()`; shifted onto the shared machine by
    /// [`node_offset`](Self::node_offset) at lowering time.
    pub map: ProcessMap,
    /// First machine node of the job's partition. Partitions are
    /// exclusive when offsets don't overlap and shared when they do.
    pub node_offset: usize,
    /// Arrival time: no round of this job starts earlier.
    pub start: SimDuration,
    /// Round pipelining mode.
    pub pipeline: Pipeline,
    /// Exchange shape.
    pub exchange: Exchange,
}

impl TenantJob {
    /// A job at node offset 0, arriving at time 0, with serial rounds
    /// and a direct exchange.
    pub fn new(
        label: impl Into<String>,
        plan: impl Into<Arc<CollectivePlan>>,
        map: ProcessMap,
    ) -> Self {
        Self {
            label: label.into(),
            plan: plan.into(),
            map,
            node_offset: 0,
            start: SimDuration::ZERO,
            pipeline: Pipeline::Serial,
            exchange: Exchange::Direct,
        }
    }

    /// Place the job's nodes at `offset..offset + map.nnodes()`.
    pub fn node_offset(mut self, offset: usize) -> Self {
        self.node_offset = offset;
        self
    }

    /// Delay the job's first round until `start`.
    pub fn start(mut self, start: SimDuration) -> Self {
        self.start = start;
        self
    }

    /// Set the round pipelining mode.
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Set the exchange shape.
    pub fn exchange(mut self, exchange: Exchange) -> Self {
        self.exchange = exchange;
        self
    }

    /// The job's solo baseline: its elapsed time alone on its nodes of
    /// `spec`'s machine under `engine`, fault-free (the baseline
    /// isolates *tenancy*). On a machine whose nodes all run at one
    /// rate it is the same at every node offset.
    pub fn baseline(&self, spec: &ClusterSpec, engine: SharePolicy) -> SimDuration {
        let map = self.map.with_node_offset(self.node_offset);
        let solo = (&*self.plan, &map, self.pipeline, self.exchange, engine);
        clean_run(spec, solo).report.elapsed
    }
}

/// Outcome of one job of a multi-tenant run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's label, copied from its [`TenantJob`].
    pub label: String,
    /// The strategy its plan used.
    pub strategy: Strategy,
    /// The job's timing view of the shared run. `elapsed` is the job's
    /// *span* — arrival to last round completion — and the busy maxima
    /// are machine-wide (the resources are shared).
    pub report: TimingReport,
    /// Arrival time, nanoseconds.
    pub start_ns: u64,
    /// Completion of the job's last round slot, nanoseconds.
    pub end_ns: u64,
    /// Elapsed time of the same job simulated alone on the same nodes.
    pub solo_elapsed: SimDuration,
    /// `span / solo_elapsed` — 1.0 means no interference cost.
    pub slowdown: f64,
    /// Fraction of this job's OST service time overlapping some other
    /// job's OST service time, in `[0, 1]`. Zero for a single job.
    pub ost_overlap: f64,
    /// What the closed-loop controller did for this job (all-zero under
    /// [`AdaptivePolicy::Off`]).
    pub adaptive: AdaptiveOutcome,
}

/// Result of [`run_multitenant`]: per-job outcomes in job order plus
/// the shared-machine makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantReport {
    /// One outcome per job, in the order the jobs were given.
    pub jobs: Vec<JobOutcome>,
    /// Completion of the last activity of any job.
    pub makespan: SimDuration,
    /// Unified Chrome-trace JSON when requested: resource lanes
    /// (pid 1), per-job round phases (pid 2, lanes prefixed `j{n}.`),
    /// fault lanes (pid 3) and per-job window lanes ([`PID_TENANTS`]).
    pub trace: Option<String>,
    /// Deterministic engine counters of the one shared DES run (the
    /// `mcio.prof.v1` cell a multi-tenant run contributes).
    pub engine: EngineProfile,
}

impl MultiTenantReport {
    /// Mean of the per-job slowdowns (0 for an empty run) — the
    /// headline the contention and adaptation suites gate on.
    pub fn mean_slowdown(&self) -> f64 {
        self.jobs.iter().map(|j| j.slowdown).sum::<f64>() / self.jobs.len().max(1) as f64
    }
}

/// The service a job stream's committed jobs hold on one machine, folded
/// at each commit into what a probe reads: for every resource whose
/// held service has not ended, the edges of its held intervals and the
/// [`ServiceWindow`]s they leave, and the union of the OSTs' busy
/// intervals.
///
/// A newcomer is [`probe`](Ledger::probe)d alone, on a fresh machine
/// whose every resource serves through those windows: where `k` held
/// intervals cover an instant on a resource of capacity `c`, the
/// newcomer's stages progress at `min(1, c / (k + 1))` of the nominal
/// rate. Committing the probe adds its records; a job already committed
/// is never simulated again, so a later arrival never stretches it
/// (DESIGN.md §11). A probe costs the newcomer's lowering and events
/// only, and a probe on an empty ledger is the job's
/// [`TenantJob::baseline`].
#[derive(Debug, Clone)]
pub struct Ledger<'a> {
    spec: &'a ClusterSpec,
    engine: SharePolicy,
    /// The resources with held service left, ascending.
    rows: Vec<Row>,
    /// The rows' held-interval edges `(instant, +open | −closed)`, row
    /// after row, each row's sorted.
    edges: Vec<(u64, i64)>,
    /// What each row's edges leave a newcomer ([`windows_of`]), row
    /// after row.
    windows: Vec<ServiceWindow>,
    /// The committed OSTs' busy union: sorted, disjoint, touching
    /// intervals fused.
    ost_busy: Vec<(u64, u64)>,
    /// The latest commit instant, nanoseconds: no probe starts before it.
    committed_ns: u64,
}

/// One resource of a [`Ledger`] and where its edges and windows lie.
/// The intervals open at the last commit instant enter its edges as one
/// edge `(instant, open)`; those that had ended by then are gone.
#[derive(Debug, Clone)]
struct Row {
    resource: ResourceId,
    edges: Range<usize>,
    windows: Range<usize>,
}

/// What one job does when committed to a [`Ledger`] at its start.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// The job's span: arrival to the end of its last round slot.
    pub span: SimDuration,
    /// Fraction of the job's OST service time during which a committed
    /// job was also being served by some OST, in `[0, 1]`.
    pub ost_overlap: f64,
    /// Deterministic engine counters of the job's run.
    pub engine: EngineProfile,
    /// The job's arrival, nanoseconds.
    start_ns: u64,
    /// The job's service records.
    held: Vec<Held>,
    /// The job's OST busy union, sorted and disjoint.
    ost_busy: Vec<(u64, u64)>,
}

impl<'a> Ledger<'a> {
    /// An empty ledger on `spec`'s machine, every resource serving under
    /// `engine`.
    pub fn new(spec: &'a ClusterSpec, engine: SharePolicy) -> Self {
        Ledger {
            spec,
            engine,
            rows: Vec::new(),
            edges: Vec::new(),
            windows: Vec::new(),
            ost_busy: Vec::new(),
            committed_ns: 0,
        }
    }

    /// Simulate `job` alone from its start, slowed by the service the
    /// ledger holds from then on. The ledger does not change.
    ///
    /// The job starts at or after the ledger's last commit instant (a
    /// stream commits in time order): what a commit folds away ended by
    /// then, so it cannot slow an instant the job runs at. Debug builds
    /// assert it.
    ///
    /// # Panics
    /// Panics if the job's partition exceeds the machine's node count.
    pub fn probe(&self, job: &TenantJob) -> Probe {
        let start = SimTime::ZERO + job.start;
        debug_assert!(
            start.as_nanos() >= self.committed_ns,
            "a probe at {start:?} starts before the last commit at {} ns",
            self.committed_ns
        );
        let windows = self.windows_from(start);
        Probe::against(self.spec, self.engine, job, &windows, &self.ost_busy)
    }

    /// Each row's windows from the first one that ends after `start`,
    /// for the rows that have one.
    fn windows_from(&self, start: SimTime) -> Vec<(ResourceId, &[ServiceWindow])> {
        (self.rows.iter())
            .filter_map(|row| {
                let windows = &self.windows[row.windows.clone()];
                let ahead = &windows[windows.partition_point(|w| w.end <= start)..];
                (!ahead.is_empty()).then_some((row.resource, ahead))
            })
            .collect()
    }

    /// Commit a probe of this ledger: its job's service joins the
    /// ledger, and what ended by the job's start leaves it. Only the
    /// resources the job served on get their windows derived again;
    /// every other row keeps its windows while any of its service is
    /// left. One pass over the rows, merging the job's edges in.
    pub fn commit(&mut self, probe: Probe) {
        let at = probe.start_ns;
        self.committed_ns = at;
        let mut held = probe.held;
        held.sort_unstable_by_key(|h| h.resource);
        let mut fresh = held.chunk_by(|a, b| a.resource == b.resource).peekable();
        let mut kept = self.rows.iter().peekable();
        let mut rows = Vec::with_capacity(self.rows.len());
        let mut edges = Vec::with_capacity(self.edges.len() + 2 * held.len());
        let mut windows = Vec::with_capacity(self.windows.len());
        let mut job_edges = Vec::new();
        loop {
            // The next resource of either side, a kept row and the
            // job's records on it paired.
            let order = match (kept.peek(), fresh.peek()) {
                (Some(row), Some(records)) => row.resource.cmp(&records[0].resource),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            let row = kept.next_if(|_| order.is_le());
            let records = fresh.next_if(|_| order.is_ge());
            let old = row.map_or(&[][..], |row| &self.edges[row.edges.clone()]);
            let (e0, w0) = (edges.len(), windows.len());
            // No probe reads a window before `at`: the intervals open
            // then enter as one edge, those ended leave.
            let ended = old.partition_point(|e| e.0 <= at);
            let open: i64 = old[..ended].iter().map(|e| e.1).sum();
            if open > 0 {
                edges.push((at, open));
            }
            let resource = if let Some(records) = records {
                // The job's edges all lie at or after `at`; a resource
                // serves its records mostly one after another, so they
                // come close to sorted.
                job_edges.clear();
                job_edges.extend(
                    records
                        .iter()
                        .flat_map(|h| [(h.start_ns, 1), (h.end_ns, -1)]),
                );
                job_edges.sort_unstable();
                edges.extend(merged(
                    old[ended..].iter().copied(),
                    job_edges.iter().copied(),
                ));
                windows_of(records[0].capacity, &edges[e0..], &mut windows);
                records[0].resource
            } else {
                let row = row.expect("a row or edges on a resource");
                if ended == old.len() {
                    continue;
                }
                edges.extend_from_slice(&old[ended..]);
                let kept = &self.windows[row.windows.clone()];
                let ahead = kept.partition_point(|w| w.end.as_nanos() <= at);
                windows.extend_from_slice(&kept[ahead..]);
                row.resource
            };
            rows.push(Row {
                resource,
                edges: e0..edges.len(),
                windows: w0..windows.len(),
            });
        }
        (self.rows, self.edges, self.windows) = (rows, edges, windows);
        let live = self.ost_busy.iter().copied().filter(|&(_, end)| end > at);
        let mut ost_busy: Vec<(u64, u64)> = Vec::with_capacity(self.ost_busy.len());
        for (start, end) in merged(live, probe.ost_busy.into_iter()) {
            match ost_busy.last_mut() {
                Some((_, last)) if start <= *last => *last = (*last).max(end),
                _ => ost_busy.push((start, end)),
            }
        }
        self.ost_busy = ost_busy;
    }
}

impl Probe {
    /// Simulate `job` alone on `spec`'s machine under `engine`, each
    /// resource `windows` names serving through its windows, and measure
    /// its OST service against `ost_busy` (sorted, disjoint) — what
    /// [`Ledger::probe`] runs with the ledger's folded service.
    ///
    /// # Panics
    /// Panics if the job's partition exceeds the machine's node count.
    pub fn against(
        spec: &ClusterSpec,
        engine: SharePolicy,
        job: &TenantJob,
        windows: &[(ResourceId, &[ServiceWindow])],
        ost_busy: &[(u64, u64)],
    ) -> Probe {
        let jobs = std::slice::from_ref(job);
        let maps = placed_maps(jobs);
        let exec_jobs = exec_jobs(jobs, &maps);
        let obs = Observe {
            engine,
            ..Observe::default()
        };
        let mut ex = execute(spec, &exec_jobs, None, obs, Some(windows));
        let held = ex.held();
        let ost = held.iter().filter(|h| h.ost);
        let mine = merge_intervals(ost.map(|h| (h.start_ns, h.end_ns)).collect());
        let busy = total_len(&mine);
        let ost_overlap = if busy == 0 {
            0.0
        } else {
            intersect_len(&mine, ost_busy) as f64 / busy as f64
        };
        Probe {
            span: ex.runs[0].report.elapsed,
            ost_overlap,
            engine: std::mem::take(&mut ex.engine),
            start_ns: job.start.as_nanos(),
            held,
            ost_busy: mine,
        }
    }

    /// The job's service records, in record order.
    pub fn held(&self) -> &[Held] {
        &self.held
    }
}

/// Append to `windows` what held intervals leave a newcomer on a
/// resource of `capacity` slots, from their sorted `edges`
/// `(instant, +open | −closed)`: where `k` of them cover an instant, it
/// progresses at `min(1, capacity / (k + 1))` of the nominal rate. The
/// windows are sorted, disjoint and the longest runs of one rate below
/// 1; instants at rate 1 get none.
fn windows_of(capacity: usize, edges: &[(u64, i64)], windows: &mut Vec<ServiceWindow>) {
    let first = windows.len();
    let capacity = capacity as f64;
    let (mut k, mut i) = (0, 0);
    while i < edges.len() {
        let t = edges[i].0;
        while edges.get(i).is_some_and(|e| e.0 == t) {
            k += edges[i].1;
            i += 1;
        }
        let Some(&(next, _)) = edges.get(i) else {
            break;
        };
        let rate = (capacity / (k + 1) as f64).min(1.0);
        if rate < 1.0 {
            let (start, end) = (SimTime::from_nanos(t), SimTime::from_nanos(next));
            match windows[first..].last_mut() {
                Some(w) if w.end == start && w.rate == rate => w.end = end,
                _ => windows.push(ServiceWindow { start, end, rate }),
            }
        }
    }
}

/// The items of two sorted sequences, in order: one linear merge.
fn merged<T: Ord>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T>,
) -> impl Iterator<Item = T> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if x > y => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// Every job's process map, shifted onto the machine at its node offset.
fn placed_maps(jobs: &[TenantJob]) -> Vec<ProcessMap> {
    assert!(
        !jobs.is_empty(),
        "a multi-tenant run needs at least one job"
    );
    (jobs.iter())
        .map(|job| job.map.with_node_offset(job.node_offset))
        .collect()
}

/// The jobs as the executor runs them on their placed `maps`: labels
/// prefixed `j{n}.` among several tenants, unprefixed for one.
fn exec_jobs<'a>(jobs: &'a [TenantJob], maps: &'a [ProcessMap]) -> Vec<ExecJob<'a>> {
    let multi = jobs.len() > 1;
    (jobs.iter().zip(maps).enumerate())
        .map(|(ji, (job, map))| ExecJob {
            plan: &job.plan,
            map,
            pipeline: job.pipeline,
            exchange: job.exchange,
            start: job.start,
            prefix: if multi {
                format!("j{ji}.")
            } else {
                String::new()
            },
            label: Some(&job.label),
            elapsed: Elapsed::Span,
            marks: Vec::new(),
        })
        .collect()
}

/// The tenant view of a finished shared run of `jobs`: each job's span,
/// its slowdown against its baseline `solo[ji]`, how much of its OST
/// service time overlapped another job's and what the controller did
/// (`severities[ji]`; empty when the controller acted on no job), then
/// the tenant metrics and the per-job window lanes.
fn tenant_report(
    jobs: &[TenantJob],
    mut ex: Executed<'_>,
    solo: &[SimDuration],
    policy: AdaptivePolicy,
    severities: &[f64],
) -> MultiTenantReport {
    let multi = jobs.len() > 1;
    let acts = |strategy| controller_acts(policy, ex.faults, strategy);
    let makespan = ex.makespan;

    // Per-job outcome: span, solo baseline, and how much of the job's
    // OST service time overlapped some other job's.
    let merged_ost: Vec<Vec<(u64, u64)>> =
        ex.ost_service().into_iter().map(merge_intervals).collect();
    let shared_ost = shared_intervals(&merged_ost);
    let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
    for (ji, (job, run)) in jobs.iter().zip(&ex.runs).enumerate() {
        let severity = severities.get(ji).copied().unwrap_or(0.0);
        let (adaptive, ..) = marks::tally(&ex.jobs[ji].marks, policy, severity);
        let span = run.report.elapsed;
        let solo_elapsed = solo[ji];
        let slowdown = if solo_elapsed.is_zero() {
            1.0
        } else {
            span.as_secs_f64() / solo_elapsed.as_secs_f64()
        };
        // A job meets the others exactly where it meets the
        // intervals two or more jobs share.
        let own = total_len(&merged_ost[ji]);
        let ost_overlap = if own == 0 {
            0.0
        } else {
            intersect_len(&merged_ost[ji], &shared_ost) as f64 / own as f64
        };
        outcomes.push(JobOutcome {
            label: job.label.clone(),
            strategy: job.plan.strategy,
            report: run.report.clone(),
            start_ns: job.start.as_nanos(),
            end_ns: run.end_ns,
            solo_elapsed,
            slowdown,
            ost_overlap,
            adaptive,
        });
    }

    if let Some(reg) = ex.obs.registry {
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            job.plan.record_into(reg);
            record_run(
                reg,
                job.plan.strategy.label(),
                multi.then_some(job.label.as_str()),
                &outcome.report,
            );
        }
        let none: [(&str, &str); 0] = [];
        reg.set_gauge("tenant.jobs", &none, jobs.len() as f64);
        reg.set_gauge("tenant.makespan_ns", &none, makespan.as_nanos() as f64);
        for outcome in &outcomes {
            let labels = [
                ("job", outcome.label.as_str()),
                ("strategy", outcome.strategy.label()),
            ];
            reg.set_gauge("tenant.slowdown", &labels, outcome.slowdown);
            reg.set_gauge("tenant.ost_overlap_frac", &labels, outcome.ost_overlap);
            reg.set_gauge(
                "tenant.solo_elapsed_ns",
                &labels,
                outcome.solo_elapsed.as_nanos() as f64,
            );
        }
        // adaptive.* appears only for jobs the controller actually
        // handled, so Off (and all-static) runs keep their documents
        // byte-identical.
        for outcome in outcomes.iter().filter(|o| acts(o.strategy)) {
            let labels = [
                ("job", outcome.label.as_str()),
                ("strategy", outcome.strategy.label()),
                ("policy", policy.label()),
            ];
            reg.set_gauge("adaptive.severity", &labels, outcome.adaptive.severity);
            reg.inc(
                "adaptive.deferrals",
                &labels,
                outcome.adaptive.deferrals as u64,
            );
        }
    }

    let trace = ex.trace_json(|tc| {
        if multi {
            tc.name_lane(PID_TENANTS);
            for (ji, outcome) in outcomes.iter().enumerate() {
                let label = outcome.label.as_str();
                tc.name_thread(PID_TENANTS, ji as u64, format_args!("j{ji} {label}"));
                let args = [
                    ("job", tc.sym(label)),
                    ("strategy", tc.sym(outcome.strategy.label())),
                    ("slowdown", tc.sym(format_args!("{:.6}", outcome.slowdown))),
                    (
                        "ost_overlap",
                        tc.sym(format_args!("{:.6}", outcome.ost_overlap)),
                    ),
                ];
                tc.span_with_args(
                    format_args!("j{ji}.window"),
                    "tenant",
                    PID_TENANTS,
                    ji as u64,
                    outcome.start_ns,
                    outcome.end_ns - outcome.start_ns,
                    &args,
                );
            }
        }
    });

    MultiTenantReport {
        jobs: outcomes,
        makespan,
        trace,
        engine: std::mem::take(&mut ex.engine),
    }
}

/// Run `jobs` concurrently on one shared machine.
///
/// All jobs are lowered into a single DES over one `Fabric` and one
/// `Pfs`; contention on shared OSTs, NICs and memory buses emerges
/// from the resource model of the engine [`Observe::engine`] selects
/// (FIFO slot queues or fair sharing). `faults` is a machine-level fault
/// plan (OST slowdowns/stalls, transient request failures) applied to
/// the shared PFS — every job sees it, exactly like a real storage
/// degradation. Structural per-job faults (aggregator crash, memory
/// shock) go through [`simulate_faulted`](crate::simulate_faulted)
/// instead, which re-plans a single job.
///
/// Every job is first simulated alone on its nodes, fault-free: that
/// clean run is its solo baseline ([`TenantJob::baseline`]).
///
/// Any `policy` but [`AdaptivePolicy::Off`] enables the closed-loop
/// controller for the MC-CIO jobs of the run. On a shared machine the
/// controller's lever is *deferral*: a probe of the whole shared,
/// degraded run (`probe_shared_windows`) decides which of each MC job's
/// rounds should wait out a degraded OST window instead of crawling
/// through it, and those rounds are release-gated in the shared DES.
/// The job's clean run supplies the nominal round durations the
/// defer-vs-crawl comparison needs. Structural re-planning (crash
/// failover, shock demotion) stays a per-job concern via
/// [`simulate_adaptive`](crate::simulate_adaptive), as structural
/// faults do. Two-phase jobs and [`AdaptivePolicy::Off`] take the
/// static path byte-for-byte.
///
/// # Panics
/// Panics if `jobs` is empty or any job's partition
/// (`node_offset + map.nnodes()`) exceeds the machine's node count.
pub fn run_multitenant(
    jobs: &[TenantJob],
    spec: &ClusterSpec,
    faults: Option<&FaultSpec>,
    policy: AdaptivePolicy,
    obs: Observe<'_>,
) -> MultiTenantReport {
    let maps = placed_maps(jobs);
    let mut exec_jobs = exec_jobs(jobs, &maps);
    let acts = |job: &TenantJob| controller_acts(policy, faults, job.plan.strategy);

    // Closed-loop deferral. When any job's controller will act, the
    // whole shared, degraded machine is run once without gates to learn
    // where every round actually lands under contention; each such
    // job's clean run says how long a round takes at nominal rate.
    // Rounds the comparison condemns to crawling through a degraded OST
    // window are held behind a release gate in the shared DES. The probe
    // ignores the gates it motivates — a mistimed gate only costs idle
    // time, never correctness.
    let probe = jobs.iter().any(acts).then(|| {
        let fspec = faults.expect("the controller acts only on a fault plan");
        (
            fspec,
            probe_shared_windows(spec, &exec_jobs, fspec, obs.engine),
        )
    });
    let mut severities = vec![0.0; jobs.len()];
    let mut solo = Vec::with_capacity(jobs.len());
    for (ji, (job, map)) in jobs.iter().zip(&maps).enumerate() {
        let clean = clean_run(
            spec,
            (&job.plan, map, job.pipeline, job.exchange, obs.engine),
        );
        if let Some((fspec, probed)) = probe.as_ref().filter(|_| acts(job)) {
            let marks = &mut exec_jobs[ji].marks;
            severities[ji] = control(
                policy,
                fspec,
                spec,
                &clean,
                &probed[ji],
                true,
                marks,
                |_, _| {},
            );
        }
        solo.push(clean.report.elapsed);
    }

    let ex = execute(spec, &exec_jobs, faults, obs, None);
    tenant_report(jobs, ex, &solo, policy, &severities)
}

/// Probe pass of the closed-loop multi-tenant controller: execute the
/// jobs exactly as the static runner would — faults armed, no gates,
/// unobserved — and return each job's absolute round windows. Feeding
/// the deferral planner *shared* windows rather than solo-probe windows
/// is what makes it contention-aware: on a busy machine a round starts
/// far later than its solo probe predicts, and a gate computed from
/// solo times would release before the round was ever going to run.
fn probe_shared_windows(
    spec: &ClusterSpec,
    jobs: &[ExecJob<'_>],
    faults: &FaultSpec,
    engine: SharePolicy,
) -> Vec<Vec<RoundWindow>> {
    let unobserved = Observe {
        engine,
        ..Observe::default()
    };
    let probe = execute(spec, jobs, Some(faults), unobserved, None);
    probe.runs.into_iter().map(|run| run.windows).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcio_des::{Bandwidth, Simulation};

    fn windows(capacity: usize, intervals: &[(u64, u64)]) -> Vec<(u64, u64, f64)> {
        let mut edges: Vec<(u64, i64)> = (intervals.iter())
            .flat_map(|&(start, end)| [(start, 1), (end, -1)])
            .collect();
        edges.sort_unstable();
        let mut out = vec![ServiceWindow {
            start: SimTime::ZERO,
            end: SimTime::from_nanos(1),
            rate: 0.25,
        }];
        windows_of(capacity, &edges, &mut out);
        assert_eq!(out[0].rate, 0.25, "what the vector held stays");
        (out[1..].iter())
            .map(|w| (w.start.as_nanos(), w.end.as_nanos(), w.rate))
            .collect()
    }

    #[test]
    fn windows_of_touching_nested_and_two_slot_intervals() {
        // Touching intervals keep one interval held throughout: one
        // window, fused across the instant where one hands over.
        assert_eq!(windows(1, &[(0, 10), (10, 30)]), [(0, 30, 0.5)]);
        // Nested: the inner interval adds a slower window in between.
        assert_eq!(
            windows(1, &[(0, 30), (10, 20)]),
            [(0, 10, 0.5), (10, 20, 1.0 / 3.0), (20, 30, 0.5)]
        );
        // Two slots: one held interval leaves the newcomer the other
        // slot, two leave it two thirds of one; a gap gets no window.
        assert_eq!(
            windows(2, &[(0, 30), (10, 20), (40, 50)]),
            [(10, 20, 2.0 / 3.0)]
        );
        assert_eq!(windows(1, &[]), []);
    }

    /// A ledger holding `held` records committed at instant 0.
    fn ledger_of<'a>(spec: &'a ClusterSpec, held: Vec<Held>) -> Ledger<'a> {
        let mut ledger = Ledger::new(spec, SharePolicy::Fifo);
        ledger.commit(Probe {
            span: SimDuration::ZERO,
            ost_overlap: 0.0,
            engine: EngineProfile::default(),
            start_ns: 0,
            held,
            ost_busy: Vec::new(),
        });
        ledger
    }

    #[test]
    fn an_interval_ending_at_a_probe_start_slows_nothing_there() {
        let mut sim = Simulation::new();
        let bw = Bandwidth::bytes_per_sec(1e9);
        let (r0, r1) = (sim.add_resource("r0", bw), sim.add_resource("r1", bw));
        let held = |resource, start_ns, end_ns| Held {
            resource,
            ost: false,
            capacity: 1,
            start_ns,
            end_ns,
        };
        let spec = ClusterSpec::small(2, 2);
        let ledger = ledger_of(&spec, vec![held(r1, 50, 200), held(r0, 0, 100)]);
        let at = |ns| {
            (ledger.windows_from(SimTime::from_nanos(ns)).into_iter())
                .map(|(r, w)| (r, w.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(at(0), [(r0, 1), (r1, 1)]);
        assert_eq!(at(99), [(r0, 1), (r1, 1)]);
        // `r0`'s only window ends at 100: a probe from there on runs on
        // it at full rate, and `r1`'s window still covers the instant.
        assert_eq!(at(100), [(r1, 1)]);
        assert_eq!(at(200), []);
    }
}
