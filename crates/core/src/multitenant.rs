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
//!   baseline*, memoised per [`TenantSession`]);
//! * **OST busy-overlap** — the fraction of the job's OST service time
//!   during which at least one *other* job was also being served by
//!   some OST (how much of its storage work was contended).

use crate::adaptive::{clean_run, control, controller_acts, AdaptiveOutcome, AdaptivePolicy};
use crate::config::Strategy;
use crate::exec_sim::{
    execute, record_run, Carried, Elapsed, Exchange, ExecJob, Kept, Observe, Paused, Pipeline,
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
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One job of a multi-tenant run: a fully planned collective plus its
/// placement on the shared machine and its arrival time.
#[derive(Debug, Clone)]
pub struct TenantJob {
    /// Job name (trace lanes, metric labels, reports).
    pub label: String,
    /// The planned collective (pure data; any strategy). Shared, so
    /// placing one planned job many times never copies the plan, and
    /// its address identifies it in a [`TenantSession`]'s memo.
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

/// A placed job: every input of what the job lowers to; the machine is
/// fixed per session. `plan` is the address of the job's `Arc`'d plan —
/// the entry keeps a clone of that `Arc`, so the address cannot be
/// reused while the entry lives. `start` is absent on purpose: a job
/// alone runs from zero, and a kept lowering is appended behind any
/// start gate or none.
#[derive(PartialEq, Eq, Hash)]
struct PlacedKey {
    plan: usize,
    map: ProcessMap,
    node_offset: usize,
    pipeline: Pipeline,
    exchange: Exchange,
}

impl PlacedKey {
    fn of(job: &TenantJob) -> Self {
        PlacedKey {
            plan: Arc::as_ptr(&job.plan) as usize,
            map: job.map.clone(),
            node_offset: job.node_offset,
            pipeline: job.pipeline,
            exchange: job.exchange,
        }
    }
}

/// Every input of a solo baseline's result: the placed job and the
/// engine its activities run under.
type SoloKey = (PlacedKey, SharePolicy);

/// A sequence of multi-tenant runs on one machine that shares their
/// solo baselines and their residents' lowerings.
///
/// A job's baseline — the fault-free elapsed time of the job alone on
/// its nodes — depends only on its plan, process map, node offset,
/// pipeline, exchange and the engine, so the session simulates it once
/// per distinct combination and answers repeats from a memo of one
/// [`SimDuration`] each. Plans are keyed by the address of
/// [`TenantJob::plan`]: two jobs share an entry only when they share
/// the `Arc` *and* every other input.
///
/// The activities a job lowers to depend on the same inputs less the
/// engine, so a run with no fault plan, no registry and the controller
/// off also keeps each job's lowering, and the next such run appends it
/// for every job it places the same way instead of lowering the job
/// again (`start` and the job's index among the tenants are free to
/// differ).
///
/// Such a run also pauses its shared simulation at its last job's start
/// and keeps a copy: nothing before that instant depends on the last
/// job. The next run resumes the copy when its jobs begin with the same
/// placed jobs at the same starts under the same engine — all of them,
/// or all but the last — and every job it adds starts no earlier than
/// the pause; it then simulates only from the pause on. Only the latest
/// run is held. A caller that re-runs a growing resident set (the batch
/// scheduler) therefore pays, per run, the newcomer's lowering and the
/// part of the shared simulation the newcomer can change;
/// [`run_multitenant`] is a run on a fresh session that keeps nothing.
pub struct TenantSession<'a> {
    spec: &'a ClusterSpec,
    solo: HashMap<SoloKey, (Arc<CollectivePlan>, SimDuration)>,
    /// What the latest run left to the next, when it kept anything. A
    /// paused run's PFS keeps scratch in cells, so this sits behind a
    /// lock for the session to stay `Sync` (callers fan baselines out
    /// over `&self`); `run` holds `&mut self` and never takes the lock.
    latest: Mutex<Option<Latest>>,
    /// Shared-run events resumed rather than fired, over every run.
    events_resumed: u64,
}

/// A session's latest run, kept for the next: every job in job order,
/// with its key, the `Arc` the key holds the address of, its start and
/// its lowering, and the shared run paused at the last job's start.
struct Latest {
    jobs: Vec<(PlacedKey, Arc<CollectivePlan>, SimDuration, Kept)>,
    paused: Paused,
}

impl<'a> TenantSession<'a> {
    /// An empty session on `spec`.
    pub fn new(spec: &'a ClusterSpec) -> Self {
        TenantSession {
            spec,
            solo: HashMap::new(),
            latest: Mutex::new(None),
            events_resumed: 0,
        }
    }

    /// What the latest run left to the next.
    fn latest(&mut self) -> &mut Option<Latest> {
        self.latest
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// [`run_multitenant`] on this session's machine and memo: controller
    /// gates, then the shared executor, then the tenant metrics and lanes.
    pub fn run(
        &mut self,
        jobs: &[TenantJob],
        faults: Option<&FaultSpec>,
        policy: AdaptivePolicy,
        obs: Observe<'_>,
    ) -> MultiTenantReport {
        self.run_carrying(jobs, faults, policy, obs, true)
    }

    /// [`TenantSession::run`]; with `carry` false the run neither reads
    /// nor leaves anything for a later one, as for a session dropped
    /// straight after it.
    fn run_carrying(
        &mut self,
        jobs: &[TenantJob],
        faults: Option<&FaultSpec>,
        policy: AdaptivePolicy,
        obs: Observe<'_>,
        carry: bool,
    ) -> MultiTenantReport {
        let spec = self.spec;
        assert!(
            !jobs.is_empty(),
            "a multi-tenant run needs at least one job"
        );
        let multi = jobs.len() > 1;
        let acts = |strategy| controller_acts(policy, faults, strategy);

        let maps: Vec<ProcessMap> = jobs
            .iter()
            .map(|job| job.map.with_node_offset(job.node_offset))
            .collect();
        let mut exec_jobs: Vec<ExecJob<'_>> = jobs
            .iter()
            .zip(&maps)
            .enumerate()
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
            .collect();
        let mut severities = vec![0.0; jobs.len()];

        // Closed-loop deferral. When any job's controller will act, the
        // whole shared, degraded machine is run once without gates to learn
        // where every round actually lands under contention; each such
        // job's solo clean run says how long a round takes at nominal rate.
        // Rounds the comparison condemns to crawling through a degraded OST
        // window are held behind a release gate in the shared DES. The probe
        // ignores the gates it motivates — a mistimed gate only costs idle
        // time, never correctness.
        if jobs.iter().any(|j| acts(j.plan.strategy)) {
            let fspec = faults.expect("the controller acts only on a fault plan");
            let shared_probe = probe_shared_windows(spec, &exec_jobs, fspec, obs.engine);
            for (ji, job) in (jobs.iter().enumerate()).filter(|(_, j)| acts(j.plan.strategy)) {
                let ExecJob { map, marks, .. } = &mut exec_jobs[ji];
                let solo = (&*job.plan, &**map, job.pipeline, job.exchange, obs.engine);
                let probed = &shared_probe[ji];
                let (severity, clean) =
                    control(policy, fspec, spec, solo, probed, true, marks, |_, _| {});
                // The clean run *is* this job's solo baseline.
                self.seed_solo(job, obs.engine, clean);
                severities[ji] = severity;
            }
        }

        // What each job lowers to is the same as in the latest run when
        // nothing but the jobs shapes it, and so is the shared run up to
        // the latest run's pause when this run begins with its jobs. What
        // the latest run left moves into this one; a job placed
        // differently now, or not at all, loses its entry.
        let latest = self.latest().take();
        let keeps = carry && faults.is_none() && obs.registry.is_none() && policy.is_off();
        let keys: Option<Vec<PlacedKey>> = keeps.then(|| jobs.iter().map(PlacedKey::of).collect());
        let carried = keys.as_ref().map(|keys| {
            let Some(Latest {
                jobs: mut held,
                paused,
            }) = latest
            else {
                let kept = keys.iter().map(|_| None).collect();
                return Carried { kept, resume: None };
            };
            let prefix = (keys.iter().zip(jobs).zip(&held))
                .take_while(|((key, job), (held, _, start, _))| *key == held && job.start == *start)
                .count();
            let resume = paused
                .resumes(prefix, &exec_jobs, &obs)
                .then_some((paused, prefix));
            // The jobs the paused run holds keep their lowerings by
            // position; every other job takes the lowering of a job the
            // latest run placed the same way, if one is left.
            let mut rest = held.split_off(resume.as_ref().map_or(0, |&(_, h)| h));
            let mut kept: Vec<Option<Kept>> = held.into_iter().map(|(.., k)| Some(k)).collect();
            for key in &keys[kept.len()..] {
                let at = rest.iter().position(|(held, ..)| held == key);
                kept.push(at.map(|at| rest.swap_remove(at).3));
            }
            Carried { kept, resume }
        });
        let mut ex = execute(spec, &exec_jobs, faults, obs, carried);
        self.events_resumed += ex.events_resumed;
        let makespan = ex.makespan;

        // Per-job outcome: span, solo baseline, and how much of the job's
        // OST service time overlapped some other job's.
        let merged_ost: Vec<Vec<(u64, u64)>> =
            ex.ost_service().into_iter().map(merge_intervals).collect();
        let shared_ost = shared_intervals(&merged_ost);
        let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
        for (ji, (job, run)) in jobs.iter().zip(&ex.runs).enumerate() {
            let (adaptive, ..) = marks::tally(&exec_jobs[ji].marks, policy, severities[ji]);
            let span = run.report.elapsed;
            let solo_elapsed = self.solo_elapsed(job, obs.engine);
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

        if let Some(reg) = obs.registry {
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
        let (kept, paused) = ex.into_carried();
        *self.latest() = keys.zip(paused).map(|(keys, paused)| {
            let kept = kept
                .into_iter()
                .map(|k| k.expect("a session's run keeps every lowering"));
            let jobs = (keys.into_iter().zip(jobs).zip(kept))
                .map(|((key, job), kept)| (key, Arc::clone(&job.plan), job.start, kept));
            Latest {
                jobs: jobs.collect(),
                paused,
            }
        });
        MultiTenantReport {
            jobs: outcomes,
            makespan,
            trace,
            engine,
        }
    }

    /// The job's solo baseline under `engine`: simulated on first use,
    /// answered from the memo afterwards.
    fn solo_elapsed(&mut self, job: &TenantJob, engine: SharePolicy) -> SimDuration {
        if let Some(&(_, elapsed)) = self.solo.get(&(PlacedKey::of(job), engine)) {
            return elapsed;
        }
        let elapsed = self.simulate_solo(job, engine);
        self.seed_solo(job, engine, elapsed);
        elapsed
    }

    /// Simulate the job's solo baseline without consulting or filling
    /// the memo: the same job, alone, on the same nodes of the same
    /// machine, fault-free (the baseline isolates *tenancy*). Takes
    /// `&self` so callers can fan baselines across threads and then
    /// [`seed_solo`](Self::seed_solo) the results in a fixed order.
    pub fn simulate_solo(&self, job: &TenantJob, engine: SharePolicy) -> SimDuration {
        let map = job.map.with_node_offset(job.node_offset);
        let solo = (&*job.plan, &map, job.pipeline, job.exchange, engine);
        clean_run(self.spec, solo).report.elapsed
    }

    /// Record `elapsed` as the job's solo baseline under `engine`. It
    /// must be what [`simulate_solo`](Self::simulate_solo) returned for
    /// the same job and engine.
    pub fn seed_solo(&mut self, job: &TenantJob, engine: SharePolicy, elapsed: SimDuration) {
        let entry = (Arc::clone(&job.plan), elapsed);
        self.solo.insert((PlacedKey::of(job), engine), entry);
    }

    /// Solo baselines simulated so far (memo entries; hits add none).
    pub fn baseline_sims(&self) -> u64 {
        self.solo.len() as u64
    }

    /// Shared-run events the session's runs took over from a paused run
    /// instead of firing, summed over its runs so far. The reports count
    /// every event of every shared run (`engine.events_fired`); the
    /// difference is what this process simulated.
    pub fn events_resumed(&self) -> u64 {
        self.events_resumed
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
/// Any `policy` but [`AdaptivePolicy::Off`] enables the closed-loop
/// controller for the MC-CIO jobs of the run. On a shared machine the
/// controller's lever is *deferral*: a probe of the whole shared,
/// degraded run (`probe_shared_windows`) decides which of each MC job's
/// rounds should wait out a degraded OST window instead of crawling
/// through it, and those rounds are release-gated in the shared DES.
/// The job's solo clean run supplies the nominal round durations the
/// defer-vs-crawl comparison needs. Structural re-planning (crash
/// failover, shock demotion) stays a per-job concern via
/// [`simulate_adaptive`](crate::simulate_adaptive), as structural
/// faults do. Two-phase jobs and [`AdaptivePolicy::Off`] take the
/// static path byte-for-byte.
///
/// Runs on a fresh [`TenantSession`] that keeps nothing for a later run;
/// hold a session instead when the same placed jobs recur across runs.
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
    TenantSession::new(spec).run_carrying(jobs, faults, policy, obs, false)
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
