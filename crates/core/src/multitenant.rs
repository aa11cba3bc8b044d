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
//!   baseline*, [`TenantJob::baseline`]; a [`TenantSession`]'s caller
//!   hands it in);
//! * **OST busy-overlap** — the fraction of the job's OST service time
//!   during which at least one *other* job was also being served by
//!   some OST (how much of its storage work was contended).

use crate::adaptive::{clean_run, control, controller_acts, AdaptiveOutcome, AdaptivePolicy};
use crate::config::Strategy;
use crate::exec_sim::{
    execute, record_run, Carried, Elapsed, Exchange, ExecJob, Executed, Observe, Paused, Pipeline,
    RoundWindow, TimingReport,
};
use crate::marks;
use crate::plan::CollectivePlan;
use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_des::{SharePolicy, SimDuration};
use mcio_faults::FaultSpec;
use mcio_obs::catalogue::PID_TENANTS;
use mcio_obs::intervals::{intersect_len, merge_intervals, shared_intervals, total_len};
use std::sync::Arc;

/// One job of a multi-tenant run: a fully planned collective plus its
/// placement on the shared machine and its arrival time.
#[derive(Debug, Clone)]
pub struct TenantJob {
    /// Job name (trace lanes, metric labels, reports).
    pub label: String,
    /// The planned collective (pure data; any strategy). Shared, so
    /// placing one planned job many times never copies the plan, and a
    /// [`TenantSession`] knows a job of its latest run by the `Arc`.
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
    pub engine: mcio_des::EngineProfile,
}

impl MultiTenantReport {
    /// Mean of the per-job slowdowns (0 for an empty run) — the
    /// headline the contention and adaptation suites gate on.
    pub fn mean_slowdown(&self) -> f64 {
        self.jobs.iter().map(|j| j.slowdown).sum::<f64>() / self.jobs.len().max(1) as f64
    }
}

/// Whether `a` and `b` are one job placed the same way at the same
/// start: every input of what a job lowers to (the machine is fixed per
/// session) and its arrival. Plans compare by `Arc` identity — two jobs
/// match only when they share the planned collective, not merely an
/// equal one.
fn placed_alike(a: &TenantJob, b: &TenantJob) -> bool {
    Arc::ptr_eq(&a.plan, &b.plan)
        && a.map == b.map
        && a.node_offset == b.node_offset
        && a.start == b.start
        && a.pipeline == b.pipeline
        && a.exchange == b.exchange
}

/// A sequence of fault-free multi-tenant runs on one machine that
/// carries, from one run to the next, the shared run paused before its
/// last job.
///
/// A run pauses its shared simulation at its last job's start and keeps
/// it, with each job's round-slot shape: nothing before that instant
/// depends on the last job. The next run resumes it when its jobs begin
/// with the same jobs, placed the same way at the same starts under the
/// same engine — all of them, or all but the last — and every job it
/// adds starts no earlier than the pause; it then lowers only the jobs
/// the paused run does not hold and simulates only from the pause on.
/// Any other run lowers every job. Only the latest run is held, and a
/// run with a registry attached neither resumes nor pauses. A caller
/// that re-runs a growing resident set (the batch scheduler) therefore
/// pays, per run that resumes, the newcomer's lowering and the part of
/// the shared simulation the newcomer can change.
///
/// The session simulates no job alone: every run is handed its jobs'
/// solo baselines ([`TenantJob::baseline`]), which a caller placing one
/// job many times on a machine of uniform nodes takes once. Fault plans
/// and the closed-loop controller go through [`run_multitenant`].
pub struct TenantSession<'a> {
    spec: &'a ClusterSpec,
    /// What the latest run left to the next, when it kept anything.
    latest: Option<Latest>,
    /// Shared-run events resumed rather than fired, over every run.
    events_resumed: u64,
}

/// A session's latest run, kept for the next: every job in job order
/// and the shared run paused at the last job's start.
struct Latest {
    jobs: Vec<TenantJob>,
    paused: Paused,
}

impl<'a> TenantSession<'a> {
    /// An empty session on `spec`.
    pub fn new(spec: &'a ClusterSpec) -> Self {
        TenantSession {
            spec,
            latest: None,
            events_resumed: 0,
        }
    }

    /// [`run_multitenant`] with no fault plan and the controller off,
    /// taking `solo[i]` as job `i`'s solo baseline instead of simulating
    /// it, and resuming the session's latest run where it can. The
    /// report is that call's when every `solo[i]` is job `i`'s
    /// [`TenantJob::baseline`] under `obs.engine`.
    ///
    /// # Panics
    /// Panics if `jobs` is empty, `solo` does not hold one baseline per
    /// job, or any job's partition exceeds the machine's node count.
    pub fn run(
        &mut self,
        jobs: &[TenantJob],
        solo: &[SimDuration],
        obs: Observe<'_>,
    ) -> MultiTenantReport {
        assert_eq!(solo.len(), jobs.len(), "one solo baseline per job");
        let maps = placed_maps(jobs);
        let exec_jobs = exec_jobs(jobs, &maps);
        // The shared run up to the latest run's pause is the same when
        // this run begins with the latest run's jobs, placed the same way
        // at the same starts. A registry is filled as jobs are lowered,
        // so a run with one lowers every job and keeps nothing.
        let carry = obs.registry.is_none();
        let resume = self.latest.take().filter(|_| carry).and_then(|latest| {
            let held = (latest.jobs.iter().zip(jobs))
                .take_while(|(held, job)| placed_alike(held, job))
                .count();
            (latest.paused)
                .resumes(held, &exec_jobs, &obs)
                .then_some((latest.paused, held))
        });
        let carried = Carried {
            resume,
            pause: carry,
        };
        let ex = execute(self.spec, &exec_jobs, None, obs, carried);
        self.events_resumed += ex.events_resumed;
        let (report, paused) = tenant_report(jobs, ex, solo, AdaptivePolicy::Off, &[]);
        self.latest = paused.map(|paused| Latest {
            jobs: jobs.to_vec(),
            paused,
        });
        report
    }

    /// Shared-run events the session's runs took over from a paused run
    /// instead of firing, summed over its runs so far. The reports count
    /// every event of every shared run (`engine.events_fired`); the
    /// difference is what this process simulated.
    pub fn events_resumed(&self) -> u64 {
        self.events_resumed
    }
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
/// the tenant metrics and the per-job window lanes. Also hands back the
/// run paused for the next, when it paused.
fn tenant_report(
    jobs: &[TenantJob],
    mut ex: Executed<'_>,
    solo: &[SimDuration],
    policy: AdaptivePolicy,
    severities: &[f64],
) -> (MultiTenantReport, Option<Paused>) {
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

    let engine = std::mem::take(&mut ex.engine);
    let report = MultiTenantReport {
        jobs: outcomes,
        makespan,
        trace,
        engine,
    };
    (report, ex.into_carried())
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
/// Keeps nothing for a later run; a [`TenantSession`] carries a paused
/// run from one fault-free run to the next.
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

    let ex = execute(spec, &exec_jobs, faults, obs, Carried::default());
    tenant_report(jobs, ex, &solo, policy, &severities).0
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
    let probe = execute(spec, jobs, Some(faults), unobserved, Carried::default());
    probe.runs.into_iter().map(|run| run.windows).collect()
}
