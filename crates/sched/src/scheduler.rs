//! The deterministic event loop: queue, placement, commit, policies.
//!
//! # The commit-order interference model
//!
//! Dispatching a job onto a busy machine must answer *how long will it
//! run next to the current residents?* — the scheduler answers by
//! **committing**: it re-simulates the resident jobs plus the newcomer
//! in one shared fabric+PFS DES (a [`TenantSession`] run), each
//! resident restarted at its real dispatch time, and takes the
//! newcomer's span from that run. Every job's solo baseline is
//! simulated once, before the loop, and handed to each commit that
//! places it, so a commit costs that one shared simulation and nothing
//! else. Only the *newcomer's* runtime is
//! adopted; every resident keeps the end time fixed at its own commit.
//! That is the model's fidelity boundary — a newcomer slows itself
//! down through contention but does not retroactively stretch jobs
//! already running — and what makes the loop deterministic and
//! policy-comparable: a job's committed runtime depends only on the
//! dispatch decisions made before it, never on later ones.
//!
//! Placement is contiguous first-fit (lowest offset wins). The virtual
//! clock only ever advances to the next arrival or completion, and
//! every policy guarantees progress: a blocked queue head always fits
//! an empty machine (the trace parser enforces the node demand), and
//! admission control always admits when no residents remain.

use crate::policy::{priority_key, Policy};
use crate::trace::{build_tenant, JobTrace};
use mcio_core::exec_sim::Observe;
use mcio_core::{MultiTenantReport, TenantJob, TenantSession};
use mcio_des::{EngineProfile, SimDuration};
use mcio_obs::catalogue::PID_SCHED;
use mcio_obs::{Registry, Trace};
use std::cmp::Reverse;
use std::sync::Arc;

/// Admission budget on the newcomer's predicted slowdown (its span in
/// the commit simulation over its solo span).
pub const ADMISSION_SLOWDOWN_BUDGET: f64 = 4.0;

/// Admission budget on the newcomer's predicted OST busy-overlap
/// fraction.
pub const ADMISSION_OVERLAP_BUDGET: f64 = 0.75;

/// Knobs of one scheduling run.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Dispatch policy.
    pub policy: Policy,
    /// Defer dispatch while the commit simulation predicts interference
    /// above [`ADMISSION_SLOWDOWN_BUDGET`] / [`ADMISSION_OVERLAP_BUDGET`].
    pub admission: bool,
    /// Worker threads for the solo-baseline precompute (the event loop
    /// itself is sequential; the output is byte-identical at any value).
    pub jobs: usize,
    /// Capture the pid-6 scheduler trace lanes.
    pub collect_trace: bool,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            policy: Policy::Fcfs,
            admission: false,
            jobs: 1,
            collect_trace: false,
        }
    }
}

/// One job's scheduling outcome, in trace order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Job name, copied from the trace.
    pub name: String,
    /// Arrival time, nanoseconds.
    pub arrival_ns: u64,
    /// Dispatch (= simulation start) time, nanoseconds.
    pub dispatch_ns: u64,
    /// Completion time, nanoseconds.
    pub end_ns: u64,
    /// `dispatch - arrival`.
    pub wait_ns: u64,
    /// `end - arrival`.
    pub turnaround_ns: u64,
    /// Committed runtime next to its residents, `end - dispatch`.
    pub run_ns: u64,
    /// Runtime simulated alone on an idle machine.
    pub solo_ns: u64,
    /// `turnaround / solo` — queueing delay and contention combined;
    /// 1.0 means the stream never touched the job.
    pub slowdown: f64,
    /// Machine-node demand.
    pub nodes: usize,
    /// First node of the allocated contiguous partition.
    pub node_offset: usize,
    /// Times admission control deferred this job.
    pub deferrals: u64,
    /// True when the job jumped the queue under backfill.
    pub backfilled: bool,
}

/// Machine occupancy at one event-loop step (after dispatching).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// Event time, nanoseconds.
    pub t_ns: u64,
    /// Jobs left waiting in the queue.
    pub queue_depth: usize,
    /// Nodes held by running jobs.
    pub allocated_nodes: usize,
    /// Idle nodes.
    pub free_nodes: usize,
}

/// Audit record of one backfill decision: the head's reserved start at
/// the moment a job jumped ahead of it. The conservative-backfill
/// property test asserts the head actually dispatched no later than
/// `reserved_start_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Trace index of the blocked queue head.
    pub head: usize,
    /// Earliest time the head's partition was guaranteed free.
    pub reserved_start_ns: u64,
    /// Trace index of the job that jumped ahead.
    pub backfilled: usize,
    /// The backfilled job's committed completion (`<= reserved_start_ns`).
    pub predicted_end_ns: u64,
}

/// Outcome of one scheduling run.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Compact machine label.
    pub machine: String,
    /// Machine node count.
    pub machine_nodes: usize,
    /// The policy that ran.
    pub policy: Policy,
    /// Whether admission control was on.
    pub admission: bool,
    /// Per-job outcomes, in trace order.
    pub jobs: Vec<JobResult>,
    /// Completion of the last job, nanoseconds.
    pub makespan_ns: u64,
    /// Mean queue wait (integer ns, truncated).
    pub mean_wait_ns: u64,
    /// Median job slowdown (nearest-rank).
    pub p50_slowdown: f64,
    /// 99th-percentile job slowdown (nearest-rank).
    pub p99_slowdown: f64,
    /// Jobs dispatched (always the trace length — nothing is dropped).
    pub dispatches: u64,
    /// Dispatches that jumped the queue under backfill.
    pub backfills: u64,
    /// Admission-control deferral events.
    pub admission_deferrals: u64,
    /// Peak pending-queue depth.
    pub max_queue_depth: usize,
    /// Occupancy timeline, one entry per event-loop step.
    pub events: Vec<SchedEvent>,
    /// Trace indices in the order the policy dispatched them.
    pub dispatch_order: Vec<usize>,
    /// Backfill audit records (empty unless the policy is backfill).
    pub reservations: Vec<Reservation>,
    /// Shared commit simulations run, rejected backfill probes and
    /// admission deferrals included. Not part of `mcio.schedule.v1`.
    pub commits: u64,
    /// The engine counters of every commit simulation, folded
    /// ([`EngineProfile::merge`]): machine-independent work the stream
    /// cost, every event of every shared run counted. Not part of
    /// `mcio.schedule.v1`.
    pub engine: EngineProfile,
    /// Events of the commit simulations resumed from the stream's
    /// session instead of fired ([`TenantSession::events_resumed`]):
    /// `engine.events_fired` less this is what the process simulated.
    /// Not part of `mcio.schedule.v1`.
    pub events_resumed: u64,
    /// Chrome-trace JSON of the pid-6 scheduler lanes, when requested.
    pub trace: Option<String>,
}

/// A dispatched job still holding nodes.
#[derive(Debug, Clone, Copy)]
struct Running {
    idx: usize,
    node_offset: usize,
    nodes: usize,
    dispatch_ns: u64,
    end_ns: u64,
}

/// Lowest-offset contiguous run of `need` free nodes.
fn first_fit(free: &[bool], need: usize) -> Option<usize> {
    let mut run = 0usize;
    for (i, &f) in free.iter().enumerate() {
        if f {
            run += 1;
            if run == need {
                return Some(i + 1 - need);
            }
        } else {
            run = 0;
        }
    }
    None
}

/// Earliest time a contiguous `need`-node partition is guaranteed free,
/// assuming every running job frees its nodes at its committed end (the
/// ends are fixed, so this is exact, not an estimate).
fn reserved_start(free: &[bool], running: &[Running], need: usize, now: u64) -> u64 {
    if first_fit(free, need).is_some() {
        return now;
    }
    let mut free = free.to_vec();
    let mut ends: Vec<&Running> = running.iter().collect();
    ends.sort_by_key(|r| r.end_ns);
    let mut i = 0;
    while i < ends.len() {
        let t = ends[i].end_ns;
        // Free every job ending at t before re-probing: simultaneous
        // completions release their nodes together.
        while i < ends.len() && ends[i].end_ns == t {
            for slot in free
                .iter_mut()
                .skip(ends[i].node_offset)
                .take(ends[i].nodes)
            {
                *slot = true;
            }
            i += 1;
        }
        if first_fit(&free, need).is_some() {
            return t.max(now);
        }
    }
    // Unreachable: the parser guarantees need <= machine nodes, so the
    // fully drained machine always fits.
    running
        .iter()
        .map(|r| r.end_ns)
        .max()
        .unwrap_or(now)
        .max(now)
}

/// What one speculative commit simulation predicted for the newcomer.
struct Commit {
    run_ns: u64,
    slowdown: f64,
    ost_overlap: f64,
}

/// How a commit's tenant set is simulated, given each tenant's solo
/// baseline: on the stream's session in [`run_schedule`], on a fresh
/// one per commit in the reference path.
#[doc(hidden)]
#[rustfmt::skip]
pub type CommitFn<'a> = dyn FnMut(
    &mut TenantSession<'_>,
    &[TenantJob],
    &[SimDuration],
    Observe<'_>,
) -> MultiTenantReport + 'a;

struct Loop<'a> {
    trace: &'a JobTrace,
    cfg: &'a SchedConfig,
    session: TenantSession<'a>,
    commit: &'a mut CommitFn<'a>,
    commits: u64,
    engine: EngineProfile,
    templates: Vec<TenantJob>,
    /// Every job's solo baseline, in trace order.
    solo: Vec<SimDuration>,
    free: Vec<bool>,
    pending: Vec<usize>,
    running: Vec<Running>,
    results: Vec<Option<JobResult>>,
    dispatch_order: Vec<usize>,
    reservations: Vec<Reservation>,
    defer_log: Vec<(u64, usize, f64, f64)>,
    backfills: u64,
    admission_deferrals: u64,
    deferrals: Vec<u64>,
}

impl Loop<'_> {
    /// Re-simulate residents + newcomer in one shared DES and read the
    /// newcomer's span and interference prediction off its outcome.
    fn commit_run(&mut self, new_idx: usize, new_offset: usize, now: u64) -> Commit {
        self.commits += 1;
        let t0 = self
            .running
            .iter()
            .map(|r| r.dispatch_ns)
            .min()
            .unwrap_or(now)
            .min(now);
        let placed = (self.running.iter())
            .map(|r| (r.idx, r.node_offset, r.dispatch_ns))
            .chain([(new_idx, new_offset, now)]);
        let (tenants, solo): (Vec<TenantJob>, Vec<SimDuration>) = placed
            .map(|(idx, offset, at)| {
                let start = SimDuration::from_nanos(at - t0);
                let tenant = self.templates[idx].clone().node_offset(offset).start(start);
                (tenant, self.solo[idx])
            })
            .unzip();
        let report = (self.commit)(
            &mut self.session,
            &tenants,
            &solo,
            Observe {
                engine: self.trace.engine,
                ..Observe::default()
            },
        );
        self.engine.merge(&report.engine);
        let outcome = report.jobs.last().expect("newcomer is last");
        Commit {
            run_ns: (outcome.end_ns - outcome.start_ns).max(1),
            slowdown: outcome.slowdown,
            ost_overlap: outcome.ost_overlap,
        }
    }

    /// Admission verdict for a speculative commit. An empty machine
    /// always admits — there is nobody to interfere with, and this is
    /// what guarantees the loop drains.
    fn admits(&self, c: &Commit) -> bool {
        !self.cfg.admission
            || self.running.is_empty()
            || (c.slowdown <= ADMISSION_SLOWDOWN_BUDGET
                && c.ost_overlap <= ADMISSION_OVERLAP_BUDGET)
    }

    fn allocate(&mut self, offset: usize, nodes: usize, value: bool) {
        for n in offset..offset + nodes {
            debug_assert_ne!(self.free[n], value);
            self.free[n] = value;
        }
    }

    fn dispatch(&mut self, qi: usize, offset: usize, commit: Commit, now: u64, backfilled: bool) {
        let idx = self.pending.remove(qi);
        let job = &self.trace.jobs[idx];
        let nodes = job.desc.nodes();
        self.allocate(offset, nodes, false);
        let end_ns = now + commit.run_ns;
        self.running.push(Running {
            idx,
            node_offset: offset,
            nodes,
            dispatch_ns: now,
            end_ns,
        });
        self.dispatch_order.push(idx);
        let arrival_ns = job.arrival.as_nanos();
        let solo_ns = self.solo[idx].as_nanos().max(1);
        self.results[idx] = Some(JobResult {
            name: job.name.clone(),
            arrival_ns,
            dispatch_ns: now,
            end_ns,
            wait_ns: now - arrival_ns,
            turnaround_ns: end_ns - arrival_ns,
            run_ns: commit.run_ns,
            solo_ns,
            slowdown: (end_ns - arrival_ns) as f64 / solo_ns as f64,
            nodes,
            node_offset: offset,
            deferrals: self.deferrals[idx],
            backfilled,
        });
    }

    fn defer(&mut self, idx: usize, now: u64, c: &Commit) {
        self.admission_deferrals += 1;
        self.deferrals[idx] += 1;
        self.defer_log.push((now, idx, c.slowdown, c.ost_overlap));
    }

    /// Dispatch what the policy lets start at `now`. The queue's head —
    /// the first pending job, or under `Priority` the highest
    /// [`priority_key`] — starts whenever it fits and is admitted; a
    /// refused head ends the step, and so does a head blocked on nodes
    /// unless backfill lets another job jump it.
    fn dispatch_step(&mut self, now: u64) {
        while let Some(qi) = self.head(now) {
            let head = self.pending[qi];
            let need = self.trace.jobs[head].desc.nodes();
            let Some(offset) = first_fit(&self.free, need) else {
                // Only backfill lets a job pass a head blocked on nodes;
                // under priority, passing it would keep aging from ever
                // paying out.
                if self.cfg.policy == Policy::Backfill && self.backfill(head, need, now) {
                    continue;
                }
                return;
            };
            let commit = self.commit_run(head, offset, now);
            if !self.admits(&commit) {
                self.defer(head, now, &commit);
                return;
            }
            self.dispatch(qi, offset, commit, now, false);
        }
    }

    /// The queue position of the job the policy considers first: the
    /// highest effective priority under `Priority`, ties to the earliest
    /// arrival and then trace order, so the order is total; the first
    /// pending job otherwise.
    fn head(&self, now: u64) -> Option<usize> {
        let jobs = &self.trace.jobs;
        let key = |&qi: &usize| {
            let (idx, job) = (self.pending[qi], &jobs[self.pending[qi]]);
            let arrival = job.arrival.as_nanos();
            (
                priority_key(job.prio, now, arrival),
                Reverse(arrival),
                Reverse(idx),
            )
        };
        match self.cfg.policy {
            Policy::Priority => (0..self.pending.len()).max_by_key(key),
            Policy::Fcfs | Policy::Backfill => (!self.pending.is_empty()).then_some(0),
        }
    }

    /// Backfill around `head`, the first pending job, blocked on its
    /// `need` nodes: reserve its start, then dispatch the first waiting
    /// job that fits, is admitted and provably finishes before the
    /// reservation. Whether one did.
    fn backfill(&mut self, head: usize, need: usize, now: u64) -> bool {
        let t_r = reserved_start(&self.free, &self.running, need, now);
        for qi in 1..self.pending.len() {
            let cand = self.pending[qi];
            let need = self.trace.jobs[cand].desc.nodes();
            let Some(offset) = first_fit(&self.free, need) else {
                continue;
            };
            // Contention only stretches a job, so `solo` is a lower
            // bound on the committed span — skip the simulation when
            // even the best case overruns the reservation.
            if now + self.solo[cand].as_nanos().max(1) > t_r {
                continue;
            }
            let commit = self.commit_run(cand, offset, now);
            if now + commit.run_ns > t_r {
                continue;
            }
            if !self.admits(&commit) {
                self.defer(cand, now, &commit);
                continue;
            }
            self.reservations.push(Reservation {
                head,
                reserved_start_ns: t_r,
                backfilled: cand,
                predicted_end_ns: now + commit.run_ns,
            });
            self.backfills += 1;
            self.dispatch(qi, offset, commit, now, true);
            return true;
        }
        false
    }
}

/// Percentile by nearest rank over an ascending sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Replay `trace` through one machine under `cfg`, returning the full
/// schedule. When `registry` is given, `sched.*` metrics are recorded
/// into it. Deterministic: same trace and config produce an identical
/// [`Schedule`] (and rendered document) at any `cfg.jobs`.
pub fn run_schedule(
    trace: &JobTrace,
    cfg: &SchedConfig,
    registry: Option<&Arc<Registry>>,
) -> Schedule {
    run_schedule_with(trace, cfg, registry, &mut |session, tenants, solo, obs| {
        session.run(tenants, solo, obs)
    })
}

/// [`run_schedule`] with the simulation of each commit's tenant set
/// supplied by the caller, who is handed the stream's session and the
/// tenants' solo baselines. A test seam: the property suite commits on
/// a fresh session each time and requires the same bytes; it selects
/// nothing a user can reach.
#[doc(hidden)]
pub fn run_schedule_with<'a>(
    trace: &'a JobTrace,
    cfg: &'a SchedConfig,
    registry: Option<&Arc<Registry>>,
    commit: &'a mut CommitFn<'a>,
) -> Schedule {
    let n = trace.jobs.len();
    assert!(n > 0, "trace has at least one job (parser-enforced)");

    // Plan every job and simulate its solo baseline in parallel — the
    // only concurrency in the scheduler — collected in index order, so
    // worker count can never reorder anything. A baseline is taken once,
    // at node offset 0, and stands for every placement the stream gives
    // the job: every node of a machine a job trace can name runs at one
    // rate (`ClusterSpec::parse_compact` sets no `node_scale`), so a job
    // alone takes as long on any partition.
    let machine = &trace.machine;
    debug_assert!(
        (0..machine.nodes).all(|node| machine.scale_of(node) == machine.scale_of(0)),
        "a job's baseline stands for every placement only on uniform nodes"
    );
    let (templates, solo): (Vec<TenantJob>, Vec<SimDuration>) =
        mcio_sweep::run_indexed(cfg.jobs, n, |i| {
            let template = build_tenant(&trace.jobs[i], i);
            let solo = template.baseline(machine, trace.engine);
            (template, solo)
        })
        .into_iter()
        .unzip();

    let mut lp = Loop {
        trace,
        cfg,
        session: TenantSession::new(machine),
        commit,
        commits: 0,
        engine: EngineProfile::default(),
        templates,
        solo,
        free: vec![true; trace.machine.nodes],
        pending: Vec::new(),
        running: Vec::new(),
        results: vec![None; n],
        dispatch_order: Vec::new(),
        reservations: Vec::new(),
        defer_log: Vec::new(),
        backfills: 0,
        admission_deferrals: 0,
        deferrals: vec![0; n],
    };

    let mut events: Vec<SchedEvent> = Vec::new();
    let mut max_queue_depth = 0usize;
    let mut next_arr = 0usize;
    let mut now = trace.jobs[0].arrival.as_nanos();
    loop {
        // 1. Completions release their nodes.
        let done: Vec<Running> = lp
            .running
            .iter()
            .copied()
            .filter(|r| r.end_ns <= now)
            .collect();
        for r in &done {
            lp.allocate(r.node_offset, r.nodes, true);
        }
        lp.running.retain(|r| r.end_ns > now);
        // 2. Arrivals join the queue in (arrival, trace index) order.
        while next_arr < n && trace.jobs[next_arr].arrival.as_nanos() <= now {
            lp.pending.push(next_arr);
            next_arr += 1;
        }
        max_queue_depth = max_queue_depth.max(lp.pending.len());
        // 3. The policy dispatches what it can at this instant.
        lp.dispatch_step(now);
        // 4. Record occupancy after dispatching.
        let allocated = lp.free.iter().filter(|f| !**f).count();
        events.push(SchedEvent {
            t_ns: now,
            queue_depth: lp.pending.len(),
            allocated_nodes: allocated,
            free_nodes: trace.machine.nodes - allocated,
        });
        // 5. Jump to the next arrival or completion.
        let next_t = lp
            .running
            .iter()
            .map(|r| r.end_ns)
            .chain((next_arr < n).then(|| trace.jobs[next_arr].arrival.as_nanos()))
            .min();
        match next_t {
            Some(t) => {
                debug_assert!(t > now, "virtual time advances");
                now = t;
            }
            None => break,
        }
    }

    let jobs: Vec<JobResult> = lp
        .results
        .into_iter()
        .map(|r| r.expect("every job dispatched"))
        .collect();
    let makespan_ns = jobs.iter().map(|j| j.end_ns).max().unwrap_or(0);
    let mean_wait_ns = jobs.iter().map(|j| j.wait_ns).sum::<u64>() / n as u64;
    let mut slowdowns: Vec<f64> = jobs.iter().map(|j| j.slowdown).collect();
    slowdowns.sort_by(f64::total_cmp);
    let p50_slowdown = percentile(&slowdowns, 50.0);
    let p99_slowdown = percentile(&slowdowns, 99.0);

    let chrome = cfg.collect_trace.then(|| {
        let mut tc = Trace::default();
        tc.name_lane(PID_SCHED);
        tc.name_thread(PID_SCHED, 0, "queue");
        tc.name_thread(PID_SCHED, 1, "dispatch");
        tc.name_thread(PID_SCHED, 2, "admission");
        for (i, ev) in events.iter().enumerate() {
            let dur = events
                .get(i + 1)
                .map(|next| next.t_ns - ev.t_ns)
                .unwrap_or(1);
            let args = [
                ("depth", tc.sym(format_args!("{}", ev.queue_depth))),
                ("allocated", tc.sym(format_args!("{}", ev.allocated_nodes))),
                ("free", tc.sym(format_args!("{}", ev.free_nodes))),
            ];
            tc.span_with_args("depth", "queue", PID_SCHED, 0, ev.t_ns, dur, &args);
        }
        for &idx in &lp.dispatch_order {
            let j = &jobs[idx];
            let args = [
                ("nodes", tc.sym(format_args!("{}", j.nodes))),
                ("wait_ns", tc.sym(format_args!("{}", j.wait_ns))),
                ("backfill", tc.sym(if j.backfilled { "1" } else { "0" })),
            ];
            tc.span_with_args(
                &j.name,
                "dispatch",
                PID_SCHED,
                1,
                j.dispatch_ns,
                j.run_ns,
                &args,
            );
        }
        for &(t, idx, slowdown, overlap) in &lp.defer_log {
            let args = [
                ("slowdown", tc.sym(format_args!("{slowdown:.6}"))),
                ("overlap", tc.sym(format_args!("{overlap:.6}"))),
            ];
            tc.span_with_args(
                &trace.jobs[idx].name,
                "admission",
                PID_SCHED,
                2,
                t,
                1,
                &args,
            );
        }
        tc.to_chrome_json()
    });

    if let Some(reg) = registry {
        let labels = &[("policy", cfg.policy.label())][..];
        reg.inc("sched.dispatches", labels, n as u64);
        reg.inc("sched.backfills", labels, lp.backfills);
        reg.inc("sched.admission_deferrals", labels, lp.admission_deferrals);
        reg.inc("sched.commits", labels, lp.commits);
        reg.set_gauge("sched.makespan_ns", labels, makespan_ns as f64);
        reg.max_gauge("sched.queue_depth_max", labels, max_queue_depth as f64);
        for j in &jobs {
            reg.observe("sched.wait_ns", labels, j.wait_ns);
        }
    }

    Schedule {
        machine: trace.machine_label.clone(),
        machine_nodes: trace.machine.nodes,
        policy: cfg.policy,
        admission: cfg.admission,
        jobs,
        makespan_ns,
        mean_wait_ns,
        p50_slowdown,
        p99_slowdown,
        dispatches: n as u64,
        backfills: lp.backfills,
        admission_deferrals: lp.admission_deferrals,
        max_queue_depth,
        events,
        dispatch_order: lp.dispatch_order,
        reservations: lp.reservations,
        commits: lp.commits,
        engine: lp.engine,
        events_resumed: lp.session.events_resumed(),
        trace: chrome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::trace::JobTrace;
    use crate::AGING_QUANTUM_NS;

    fn tiny_trace() -> JobTrace {
        JobTrace::parse(
            "machine small:4x2\n\
             job a arrival=0 ranks=4 ppn=2 per_proc=64K segments=1 buffer=64K\n\
             job b arrival=1us ranks=8 ppn=2 per_proc=64K segments=1 buffer=64K\n\
             job c arrival=2us ranks=2 ppn=2 per_proc=32K segments=1 buffer=64K\n",
        )
        .expect("trace parses")
    }

    #[test]
    fn fcfs_drains_in_arrival_order_and_accounts_nodes() {
        let trace = tiny_trace();
        let s = run_schedule(&trace, &SchedConfig::default(), None);
        assert_eq!(s.dispatch_order, vec![0, 1, 2]);
        assert_eq!(s.dispatches, 3);
        assert_eq!(s.backfills, 0);
        for ev in &s.events {
            assert_eq!(ev.allocated_nodes + ev.free_nodes, 4, "{ev:?}");
        }
        for j in &s.jobs {
            assert!(j.dispatch_ns >= j.arrival_ns);
            assert_eq!(j.turnaround_ns, j.wait_ns + j.run_ns);
            assert!(j.slowdown >= 1.0, "{j:?}");
        }
        assert_eq!(
            s.makespan_ns,
            s.jobs.iter().map(|j| j.end_ns).max().unwrap()
        );
    }

    #[test]
    fn backfill_lets_a_short_job_around_a_wide_head() {
        // a holds 2 of 4 nodes; b (4 nodes) blocks as head; c (1 node)
        // is short enough to finish before a frees b's partition.
        let trace = tiny_trace();
        let s = run_schedule(
            &trace,
            &SchedConfig {
                policy: Policy::Backfill,
                ..SchedConfig::default()
            },
            None,
        );
        assert_eq!(s.dispatch_order, vec![0, 2, 1], "c jumps the blocked b");
        assert_eq!(s.backfills, 1);
        assert_eq!(s.reservations.len(), 1);
        let r = s.reservations[0];
        assert_eq!((r.head, r.backfilled), (1, 2));
        assert!(r.predicted_end_ns <= r.reserved_start_ns);
        // The audit promise: the head really started by its reservation.
        assert!(s.jobs[1].dispatch_ns <= r.reserved_start_ns);
        assert!(s.jobs[2].backfilled);
        let fcfs = run_schedule(&trace, &SchedConfig::default(), None);
        assert!(
            s.makespan_ns <= fcfs.makespan_ns,
            "backfill {} vs fcfs {}",
            s.makespan_ns,
            fcfs.makespan_ns
        );
    }

    #[test]
    fn priority_prefers_rank_but_aging_rescues_the_patient() {
        // Both pend while a runs: the high-prio later arrival goes first…
        let text = "machine small:2x2\n\
             job a arrival=0 ranks=4 ppn=2 per_proc=64K segments=1 buffer=64K\n\
             job lo arrival=1us prio=0 ranks=4 ppn=2 per_proc=32K segments=1 buffer=64K\n\
             job hi arrival=2us prio=5 ranks=4 ppn=2 per_proc=32K segments=1 buffer=64K\n";
        let trace = JobTrace::parse(text).expect("parses");
        let cfg = SchedConfig {
            policy: Policy::Priority,
            ..SchedConfig::default()
        };
        let s = run_schedule(&trace, &cfg, None);
        assert_eq!(
            s.dispatch_order,
            vec![0, 2, 1],
            "priority wins under light aging"
        );
        // …but a job that has aged past the priority gap outranks it.
        let aged = format!(
            "machine small:2x2\n\
             job a arrival=0 ranks=4 ppn=2 per_proc=2M segments=4 buffer=64K\n\
             job lo arrival=1us prio=0 ranks=4 ppn=2 per_proc=32K segments=1 buffer=64K\n\
             job hi arrival={}ns prio=5 ranks=4 ppn=2 per_proc=32K segments=1 buffer=64K\n",
            1_000 + 6 * AGING_QUANTUM_NS
        );
        let trace = JobTrace::parse(&aged).expect("parses");
        let s = run_schedule(&trace, &cfg, None);
        assert_eq!(
            s.dispatch_order,
            vec![0, 1, 2],
            "lo aged past hi's 5 levels"
        );
    }

    #[test]
    fn admission_defers_but_always_drains() {
        let trace = tiny_trace();
        let s = run_schedule(
            &trace,
            &SchedConfig {
                admission: true,
                ..SchedConfig::default()
            },
            None,
        );
        assert_eq!(s.jobs.len(), 3, "every job still completes");
        let deferred: u64 = s.jobs.iter().map(|j| j.deferrals).sum();
        assert_eq!(deferred, s.admission_deferrals);
    }

    #[test]
    fn sched_metrics_reach_the_registry() {
        let trace = tiny_trace();
        let reg = Registry::shared();
        let s = run_schedule(&trace, &SchedConfig::default(), Some(&reg));
        let snap = reg.snapshot();
        let counter = |name: &str| {
            let c = snap.counters.iter().find(|c| c.name == name);
            c.unwrap_or_else(|| panic!("{name} recorded")).value
        };
        // Three FCFS commits, one per job.
        assert_eq!(s.commits, 3);
        assert_eq!(counter("sched.commits"), s.commits);
        let dispatched = snap
            .counters
            .iter()
            .find(|c| c.name == "sched.dispatches")
            .expect("counter recorded");
        assert_eq!(dispatched.value, 3);
        assert_eq!(dispatched.labels, vec![("policy".into(), "fcfs".into())]);
        assert!(snap.gauges.iter().any(|g| g.name == "sched.makespan_ns"));
        assert!(snap.histograms.iter().any(|h| h.name == "sched.wait_ns"));
    }

    #[test]
    fn pid6_lanes_cover_queue_and_dispatches() {
        let trace = tiny_trace();
        let s = run_schedule(
            &trace,
            &SchedConfig {
                collect_trace: true,
                ..SchedConfig::default()
            },
            None,
        );
        let json = s.trace.expect("trace captured");
        assert!(json.contains("\"scheduler\""));
        assert!(json.contains("\"depth\""));
        for j in &s.jobs {
            assert!(json.contains(&format!("\"{}\"", j.name)), "{json}");
        }
    }
}
