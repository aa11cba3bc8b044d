//! The event-driven engine: builds an activity DAG over resources, then
//! runs it to completion, producing a [`RunReport`].

use crate::activity::{ActivityId, ActivityState, Stage};
use crate::label::{IntoLabel, Label, Names, Prefix, Tpl};
use crate::queue::EventQueue;
use crate::resource::{Bandwidth, Job, ResourceId, ResourceTable, ResourceUsage, SharePolicy};
use crate::time::{SimDuration, SimTime};
use mcio_obs::catalogue::PID_RESOURCES;
use mcio_obs::{Histogram, Registry, Span, Sym, Trace};
use std::fmt::{self, Write as _};
use std::ops::Range;

/// Errors a simulation run can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The dependency graph has a cycle (or an unreleasable activity):
    /// these activities never became ready.
    Deadlock {
        /// Labels of the stuck activities (up to the first few).
        stuck: Vec<String>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { stuck } => {
                write!(f, "simulation deadlock; stuck activities: {stuck:?}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// All dependencies satisfied; start the activity (first stage).
    Ready(ActivityId),
    /// The activity should join the queue of its `next_stage` resource.
    EnterStage(ActivityId),
    /// The resource finished serving this activity's current stage
    /// (FIFO resources: one event per job).
    StageServed(ActivityId),
    /// A fair-share resource's earliest active transfer completes. Each
    /// fair resource keeps at most one of these pending; arrivals and
    /// departures cancel and re-predict it (indexed cancellation).
    FairComplete(ResourceId),
}

/// One recorded service interval: `activity` occupied `resource` from
/// `start` to `end` (only collected when tracing is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceRecord {
    /// The occupied resource.
    pub resource: ResourceId,
    /// The served activity.
    pub activity: ActivityId,
    /// Service start.
    pub start: SimTime,
    /// Service end.
    pub end: SimTime,
}

/// Handle of a scheduled event: `(slot, generation)`.
pub(crate) type EventHandle = (u32, u32);

/// Narrow an arena length to the `u32` the rows store. Machine size
/// arrives from outside the program (`--machine`), so the limit is
/// checked, not assumed.
pub(crate) fn index32(len: usize, what: &str) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("simulation holds more than u32::MAX {what}"))
}

/// Row `i` of a ragged table stored as one flat vector plus each row's
/// end offset: row `i` spans `ends[i - 1]..ends[i]`, row 0 starts at 0.
fn row(ends: &[u32], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] };
    start as usize..ends[i] as usize
}

/// What a simulation registers and a run only reads: every stage,
/// every label and the dependents of every activity.
#[derive(Debug, Clone, Default)]
struct Graph {
    stages: Vec<Stage>,
    /// One label row per activity.
    labels: Vec<Label>,
    /// The edges as a CSR, built once when the run starts: the
    /// dependents of activity `a` are row `a` of `dependents` under
    /// `dependent_ends`, in declaration order.
    dependents: Vec<ActivityId>,
    dependent_ends: Vec<u32>,
}

/// A discrete-event simulation under construction.
///
/// Add resources and activities, wire dependencies with
/// [`Simulation::add_dep`], then call [`Simulation::run`], which
/// consumes the simulation and runs the graph once, to the end.
#[derive(Debug, Clone, Default)]
pub struct Simulation {
    resources: ResourceTable,
    /// The service discipline of every resource.
    policy: SharePolicy,
    /// The templates and prefixes every label row reads.
    names: Names,
    /// The activity graph, in flat arenas: one row per activity, then
    /// every stage back to back (a row owns a window of it), one label
    /// row per activity and the dependents CSR.
    activities: Vec<ActivityState>,
    graph: Graph,
    /// Every dependency edge `(before, after)`, in declaration order,
    /// until the run indexes them.
    edges: Vec<(ActivityId, ActivityId)>,
    /// Pending events in `(time, sequence)` order, and the clock: the
    /// instant the run loop is at. Entries carry the slot generation
    /// they were pushed with, so cancelled (re-generated) slots are
    /// skipped on pop.
    queue: EventQueue,
    /// Pooled event slots: `(event, generation)`. Slots are recycled
    /// through `free_slots`, bumping the generation each time, so the
    /// pool's footprint tracks *concurrent* events rather than total
    /// events scheduled.
    events: Vec<(Event, u32)>,
    /// Recycled slot indices available for the next event.
    free_slots: Vec<u32>,
    /// Service-interval trace, when enabled.
    trace: Option<Vec<ServiceRecord>>,
    /// Engine health counters (event count, heap depth distribution).
    engine_stats: EngineStats,
    /// `Ready` events currently pending (feeds the ready-set high-water
    /// mark).
    pending_ready: usize,
}

/// Health statistics of the event engine itself: how much scheduling
/// work a run took, independent of simulated time. Queue depth is
/// sampled once per processed event. Every field is a pure function of
/// the activity DAG, so the stats are byte-identical across runs and
/// across worker-thread counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total events processed by the run loop.
    pub events_processed: u64,
    /// Total events scheduled (seed `Ready` events plus every event
    /// scheduled while running).
    pub events_scheduled: u64,
    /// Events scheduled and then retracted before firing. The FIFO
    /// engine never cancels (always 0); fair-share resources re-predict
    /// their single next-completion event on every arrival/departure,
    /// cancelling the stale prediction. At the end of a run
    /// `events_scheduled == events_processed + events_cancelled`.
    pub events_cancelled: u64,
    /// High-water mark of pending events. Cancelled entries stay where
    /// they were queued (lazily skipped on pop), so stale entries are
    /// included.
    pub max_queue_depth: usize,
    /// High-water mark of pending `Ready` events: how many activities
    /// were released but not yet started at the worst moment (the
    /// frontier width of the DAG as the engine saw it).
    pub max_ready_set: usize,
    /// Distribution of the pending-event count observed at each event
    /// pop.
    pub queue_depth: Histogram,
}

impl Simulation {
    /// An empty simulation serving resources FIFO.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty simulation whose resources all serve under `policy`.
    pub fn with_policy(policy: SharePolicy) -> Self {
        Simulation {
            policy,
            ..Self::default()
        }
    }

    /// Record every resource service interval; the run report will carry
    /// the trace (see [`RunReport::trace_into`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The handle of a label template — fixed text with up to two `{}`
    /// holes, e.g. `"node{}.membus"` — interned once per simulation;
    /// [`Label::new`] fills it in.
    pub fn template(&mut self, template: &'static str) -> Tpl {
        self.names.template(template)
    }

    /// The handle of a label prefix (a job's namespace, `"j3."`),
    /// interned once per simulation; `""` is [`Prefix::NONE`].
    pub fn prefix(&mut self, prefix: &str) -> Prefix {
        self.names.prefix(prefix)
    }

    /// Register a bandwidth resource with one service slot, named by a
    /// [`Label`] row or a string literal (see [`RunReport::resource_name`]).
    pub fn add_resource(&mut self, name: impl IntoLabel, bw: Bandwidth) -> ResourceId {
        self.add_resource_with_capacity(name, bw, 1)
    }

    /// Register a bandwidth resource with `capacity` parallel service
    /// slots (each slot serves at the full bandwidth).
    pub fn add_resource_with_capacity(
        &mut self,
        name: impl IntoLabel,
        bw: Bandwidth,
        capacity: usize,
    ) -> ResourceId {
        let name = name.into_label(&mut self.names);
        self.resources.add(name, bw, capacity)
    }

    /// Install service windows on a resource (injected faults, or the
    /// service other jobs already hold there): while a window is active
    /// the resource progresses at `window.rate` of its nominal speed
    /// (0 = stall). Replaces any previous set for that resource. Must be
    /// called before `run`.
    pub fn set_service_windows(&mut self, rid: ResourceId, windows: &[crate::ServiceWindow]) {
        self.resources.set_service_windows(rid, windows);
    }

    /// Register an activity: `label` is pushed as a row (a literal is
    /// interned as a template first), `stages` are copied onto the end of
    /// the stage arena, and the activity does not start before `release`
    /// even if all its dependencies are satisfied. Nothing is allocated
    /// or formatted per activity.
    /// Panics if any stage names an unknown resource.
    pub fn activity(
        &mut self,
        label: impl IntoLabel,
        release: SimTime,
        stages: &[Stage],
    ) -> ActivityId {
        let label = label.into_label(&mut self.names);
        for s in stages {
            assert!(
                s.resource.0 < self.resources.len(),
                "activity `{}` references unknown resource {:?}",
                self.names.show(label),
                s.resource
            );
        }
        let id = ActivityId(index32(self.activities.len(), "activities"));
        let next_stage = index32(self.graph.stages.len(), "stages");
        self.graph.stages.extend_from_slice(stages);
        self.graph.labels.push(label);
        let stage_end = index32(self.graph.stages.len(), "stages");
        self.activities
            .push(ActivityState::new(release, next_stage, stage_end));
        id
    }

    /// Room for `activities` more activities with `stages` stages among
    /// them, and an edge apiece: a caller that can bound what it is
    /// about to register reserves once, and the arenas do not double
    /// their way up to it, copying as they go.
    pub fn reserve(&mut self, activities: usize, stages: usize) {
        self.activities.reserve(activities);
        self.graph.labels.reserve(activities);
        self.graph.stages.reserve(stages);
        self.edges.reserve(activities);
    }

    /// Declare that `after` cannot start until `before` has completed.
    /// When `before` completes, its dependents are released in the order
    /// their edges were declared.
    pub fn add_dep(&mut self, before: ActivityId, after: ActivityId) {
        assert_ne!(before, after, "activity cannot depend on itself");
        assert!(
            before.index() < self.activities.len(),
            "dependency on unknown activity {before:?}"
        );
        self.edges.push((before, after));
        self.activities[after.index()].deps_remaining += 1;
    }

    /// Number of registered activities.
    pub fn activity_count(&self) -> usize {
        self.activities.len()
    }

    /// Schedule `ev` at `t` behind everything scheduled there so far, in
    /// a slot of the pool. Returns the slot handle `(index, generation)`
    /// that [`Simulation::cancel_event`] accepts.
    fn push_event(&mut self, t: SimTime, ev: Event) -> EventHandle {
        self.engine_stats.events_scheduled += 1;
        if matches!(ev, Event::Ready(_)) {
            self.pending_ready += 1;
            self.engine_stats.max_ready_set =
                self.engine_stats.max_ready_set.max(self.pending_ready);
        }
        let handle = match self.free_slots.pop() {
            Some(idx) => {
                let gen = self.events[idx as usize].1.wrapping_add(1);
                self.events[idx as usize] = (ev, gen);
                (idx, gen)
            }
            None => {
                // `u32::MAX` itself marks a run in the queue's keys.
                let idx = index32(self.events.len() + 1, "concurrent events") - 1;
                self.events.push((ev, 0));
                (idx, 0)
            }
        };
        self.queue.push(t, handle);
        handle
    }

    /// Retract a scheduled event before it fires. The queue entry stays
    /// (and is skipped on pop via its stale generation); the slot is
    /// recycled immediately.
    fn cancel_event(&mut self, handle: EventHandle) {
        let (idx, gen) = handle;
        let slot = &mut self.events[idx as usize];
        debug_assert_eq!(slot.1, gen, "cancelling a dead event");
        slot.1 = gen.wrapping_add(1);
        self.free_slots.push(idx);
        self.engine_stats.events_cancelled += 1;
    }

    /// Run the simulation to completion, once: queue the seeds, index
    /// the edges, then fire every event in `(time, sequence)` order.
    ///
    /// Consumes the simulation; returns a [`RunReport`] with per-activity
    /// timings and per-resource usage, or [`SimError::Deadlock`] if the
    /// dependency graph prevented some activity from ever running.
    pub fn run(mut self) -> Result<RunReport, SimError> {
        self.seed();
        self.index();
        self.fire();
        self.check_ledger();

        // An activity still waiting for a dependency never ran (a cycle
        // or a missing release). Every other one finished: its
        // `finished` may read `NOT_YET` only because the clock saturated
        // there. One pass finds the stuck and the makespan.
        let mut stuck: Vec<String> = Vec::new();
        let mut makespan = SimTime::ZERO;
        for (i, a) in self.activities.iter().enumerate() {
            if a.deps_remaining == 0 {
                makespan = makespan.max(a.finished);
            } else if stuck.len() < 8 {
                stuck.push(self.names.show(self.graph.labels[i]).to_string());
            }
        }
        if !stuck.is_empty() {
            return Err(SimError::Deadlock { stuck });
        }

        // `self` is consumed: the activity table, the labels and the
        // resource table move into the report, and the stages and the
        // CSR, which a report never reads, are dropped here.
        Ok(RunReport {
            makespan,
            activities: self.activities,
            labels: self.graph.labels,
            names: self.names,
            resources: self.resources,
            trace: self.trace,
            engine_stats: self.engine_stats,
        })
    }

    /// Queue a `Ready` for every activity that waits for nothing, in id
    /// order, before the first event: the seeds take the lowest sequence
    /// numbers, so at any instant they pop in id order ahead of every
    /// event scheduled while running.
    fn seed(&mut self) {
        for i in 0..self.activities.len() {
            let state = self.activities[i];
            if state.deps_remaining == 0 {
                self.push_event(state.release, Event::Ready(ActivityId(i as u32)));
            }
        }
    }

    /// The engine's ledger, checked at the end of a run: every event
    /// scheduled has fired or been cancelled, so none holds a slot of
    /// the pool, and every resource balances
    /// ([`Simulation::check_resources`]).
    fn check_ledger(&self) {
        let stats = &self.engine_stats;
        debug_assert_eq!(
            self.free_slots.len(),
            self.events.len(),
            "an event is pending after the run"
        );
        debug_assert_eq!(
            stats.events_scheduled,
            stats.events_processed + stats.events_cancelled,
            "the event ledger does not balance"
        );
        if cfg!(debug_assertions) {
            self.check_resources();
        }
    }

    /// Every resource's capacity and byte ledger at the end of a run,
    /// from the activities' stage pointers alone: no job is in service
    /// anywhere, and the bytes a resource counted as served are those of
    /// the stages that left it.
    fn check_resources(&self) {
        let n = self.resources.len();
        let mut bytes = vec![0u64; n];
        let mut start = 0;
        for a in &self.activities {
            for s in &self.graph.stages[start..a.next_stage as usize] {
                bytes[s.resource.0] += s.bytes;
            }
            start = a.stage_end as usize;
        }
        self.resources.audit(&bytes, &vec![0; n]);
    }

    /// The run loop: fire every pending event in `(time, sequence)`
    /// order. The loop only reads the graph, so it takes the graph out of
    /// `self` for the handlers to borrow apart from the state they
    /// change, and puts it back when the queue is empty.
    fn fire(&mut self) {
        let graph = std::mem::take(&mut self.graph);
        while let Some((idx, gen)) = self.queue.pop() {
            let (ev, live) = self.events[idx as usize];
            if live != gen {
                // Cancelled (counted when retracted); skip lazily. The
                // slot may already be serving a different live event.
                continue;
            }
            // Recycle the slot before dispatch so events scheduled by
            // this very event can reuse it.
            self.events[idx as usize].1 = gen.wrapping_add(1);
            self.free_slots.push(idx);
            let now = self.queue.now();
            self.engine_stats.events_processed += 1;
            let depth = self.queue.len();
            self.engine_stats.max_queue_depth = self.engine_stats.max_queue_depth.max(depth);
            self.engine_stats.queue_depth.observe(depth as u64);
            match ev {
                Event::Ready(a) => {
                    let state = &mut self.activities[a.index()];
                    debug_assert_eq!(state.started, ActivityState::NOT_YET);
                    state.started = now;
                    self.pending_ready -= 1;
                    self.advance(&graph, a, now);
                }
                Event::EnterStage(a) => {
                    // Either enqueue the next stage or, if the latency we
                    // just waited out followed the final stage, complete.
                    self.advance(&graph, a, now);
                }
                Event::StageServed(a) => {
                    // Free the server and start the next queued job, if any.
                    let stage = self.activities[a.index()].next_stage as usize;
                    let rid = graph.stages[stage].resource;
                    if let Some((next_job, done)) = self.resources.complete_current(rid, now) {
                        if let Some(trace) = &mut self.trace {
                            trace.push(ServiceRecord {
                                resource: rid,
                                activity: next_job.activity,
                                start: now,
                                end: done,
                            });
                        }
                        self.push_event(done, Event::StageServed(next_job.activity));
                    }
                    // This activity leaves the stage; honor post-latency.
                    self.leave_stage(&graph, a, now);
                }
                Event::FairComplete(rid) => {
                    // This event *was* the resource's pending prediction;
                    // it fired, so just drop the stored handle.
                    self.resources.take_pending(rid);
                    let (job, _admitted, trace_slot) = self.resources.fair_complete(rid, now);
                    if let (Some(trace), Some(slot)) = (self.trace.as_mut(), trace_slot) {
                        trace[slot].end = now;
                    }
                    // The active set shrank: re-predict the resource's
                    // next completion before moving the activity on.
                    self.reschedule_fair(rid, now);
                    self.leave_stage(&graph, job.activity, now);
                }
            }
        }
        self.graph = graph;
    }

    /// Build the CSR rows `complete` walks from the declared edges. A
    /// counting sort by predecessor, filled in declaration order, is
    /// stable: each row lists its dependents exactly as `add_dep`
    /// declared them, which is the order their `Ready` events are
    /// sequenced in.
    fn index(&mut self) {
        let edges = std::mem::take(&mut self.edges);
        // The offsets below count edges in `u32`.
        index32(edges.len(), "dependency edges");
        // Per-row counts, then their exclusive prefix sum (row starts);
        // the fill below advances each start to its row's end.
        let mut ends = vec![0u32; self.activities.len()];
        for (before, _) in &edges {
            ends[before.index()] += 1;
        }
        let mut total = 0;
        for end in ends.iter_mut() {
            let count = *end;
            *end = total;
            total += count;
        }
        let mut dependents = vec![ActivityId(0); total as usize];
        for &(before, after) in &edges {
            let slot = &mut ends[before.index()];
            dependents[*slot as usize] = after;
            *slot += 1;
        }
        self.graph.dependents = dependents;
        self.graph.dependent_ends = ends;
    }

    /// Move activity `a` forward from its current stage pointer: either
    /// enter the next stage's queue or complete.
    fn advance(&mut self, graph: &Graph, a: ActivityId, now: SimTime) {
        let st = self.activities[a.index()];
        if st.next_stage == st.stage_end {
            self.complete(graph, a, now);
            return;
        }
        let stage = graph.stages[st.next_stage as usize];
        let job = Job {
            activity: a,
            bytes: stage.bytes,
            overhead: stage.overhead,
        };
        let rid = stage.resource;
        match self.policy {
            SharePolicy::Fifo => {
                if let Some(done) = self.resources.enqueue(rid, now, job) {
                    if let Some(trace) = &mut self.trace {
                        trace.push(ServiceRecord {
                            resource: rid,
                            activity: a,
                            start: now,
                            end: done,
                        });
                    }
                    self.push_event(done, Event::StageServed(a));
                }
            }
            SharePolicy::FairShare => {
                // Record the trace span now (the FIFO engine records at
                // service start, which under processor sharing is the
                // admission instant) and backpatch its end on
                // completion.
                let trace_slot = self.trace.as_mut().map(|trace| {
                    trace.push(ServiceRecord {
                        resource: rid,
                        activity: a,
                        start: now,
                        end: now,
                    });
                    trace.len() - 1
                });
                self.resources.fair_arrive(rid, now, job, trace_slot);
                self.reschedule_fair(rid, now);
            }
        }
    }

    /// The activity's current stage is done: honor the stage's
    /// post-service latency, then advance.
    fn leave_stage(&mut self, graph: &Graph, a: ActivityId, now: SimTime) {
        let st = &mut self.activities[a.index()];
        let latency = graph.stages[st.next_stage as usize].latency_after;
        st.next_stage += 1;
        if latency.is_zero() {
            self.advance(graph, a, now);
        } else {
            self.push_event(now + latency, Event::EnterStage(a));
        }
    }

    /// Re-predict a fair-share resource's next completion: retract the
    /// stale prediction (if any) and schedule a fresh one for the
    /// current active set.
    fn reschedule_fair(&mut self, rid: ResourceId, now: SimTime) {
        if let Some(handle) = self.resources.take_pending(rid) {
            self.cancel_event(handle);
        }
        if let Some(done) = self.resources.fair_next_completion(rid) {
            debug_assert!(done >= now, "fair completion predicted in the past");
            let handle = self.push_event(done, Event::FairComplete(rid));
            self.resources.set_pending(rid, handle);
        }
    }

    fn complete(&mut self, graph: &Graph, a: ActivityId, now: SimTime) {
        let state = &mut self.activities[a.index()];
        debug_assert_eq!(state.finished, ActivityState::NOT_YET);
        state.finished = now;
        for &d in &graph.dependents[row(&graph.dependent_ends, a.index())] {
            let dep = &mut self.activities[d.index()];
            debug_assert!(dep.deps_remaining > 0);
            dep.deps_remaining -= 1;
            if dep.deps_remaining == 0 {
                let when = now.max(dep.release);
                self.push_event(when, Event::Ready(d));
            }
        }
    }
}

/// Result of a completed simulation run. Every activity of a report
/// started and finished (a run where one did not is a
/// [`SimError::Deadlock`]), so its times are read as they were written.
#[derive(Debug, Clone)]
pub struct RunReport {
    makespan: SimTime,
    activities: Vec<ActivityState>,
    /// One label row per activity.
    labels: Vec<Label>,
    /// What the label rows and resource names read through.
    names: Names,
    resources: ResourceTable,
    trace: Option<Vec<ServiceRecord>>,
    engine_stats: EngineStats,
}

impl RunReport {
    /// Time the last activity completed.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Completion time of an activity.
    pub fn finish_time(&self, a: ActivityId) -> SimTime {
        self.activities[a.index()].finished
    }

    /// Start (release-satisfied) time of an activity.
    pub fn start_time(&self, a: ActivityId) -> SimTime {
        self.activities[a.index()].started
    }

    /// Latency of an activity from start to finish.
    pub fn elapsed(&self, a: ActivityId) -> SimDuration {
        self.finish_time(a).saturating_since(self.start_time(a))
    }

    /// Label of an activity, rendered from its row.
    pub fn label(&self, a: ActivityId) -> String {
        self.names.show(self.labels[a.index()]).to_string()
    }

    /// The name a resource was registered with, e.g. `"node3.membus"`,
    /// rendered from its row.
    pub fn resource_name(&self, r: ResourceId) -> String {
        self.names.show(self.resources.name(r.0)).to_string()
    }

    /// Write a resource's name into `out` (cleared first) and return it.
    fn name_into<'t>(&self, r: usize, out: &'t mut String) -> &'t str {
        out.clear();
        write!(out, "{}", self.names.show(self.resources.name(r)))
            .expect("a String takes any write");
        out
    }

    /// A resource's parallel service slots.
    pub fn capacity(&self, r: ResourceId) -> usize {
        self.resources.capacity(r)
    }

    /// Usage accounting for a resource.
    pub fn resource_usage(&self, r: ResourceId) -> &ResourceUsage {
        self.resources.usage(r)
    }

    /// Usage accounting for all resources, in registration order.
    pub fn resource_usages(&self) -> &[ResourceUsage] {
        self.resources.usages()
    }

    /// Distribution of a resource's per-job queueing delay, in
    /// nanoseconds. Jobs that found a free slot record a zero wait, so
    /// its count equals the resource's `jobs_served`; fair-share
    /// admissions never wait, so every observation there is zero.
    pub fn wait_hist(&self, r: ResourceId) -> Histogram {
        self.resources.wait_hist(r)
    }

    /// Number of activities in the run.
    pub fn activity_count(&self) -> usize {
        self.activities.len()
    }

    /// The recorded service trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&[ServiceRecord]> {
        self.trace.as_deref()
    }

    /// Engine health counters for the run (event count, heap depth).
    pub fn engine_stats(&self) -> &EngineStats {
        &self.engine_stats
    }

    /// Peak active transfer set size aggregated per resource *class*
    /// (the name with its node/OST index stripped: `node3.membus` →
    /// `membus`, `ost17` → `ost`), sorted by class name. "Active" means
    /// holding a service slot under FIFO (≤ capacity) and any admitted
    /// transfer under fair sharing, so the number measures concurrency
    /// pressure on the class under either engine. Resources that never
    /// served a job are skipped entirely, matching
    /// [`RunReport::record_into`].
    pub fn class_max_queues(&self) -> Vec<(String, u64)> {
        let mut per_class: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        let mut fold = |class: &str, depth: u64| match per_class.get_mut(class) {
            Some(entry) => *entry = (*entry).max(depth),
            None => drop(per_class.insert(class.to_string(), depth)),
        };
        // Most names' class is their template's: those fold per template,
        // and only the rest are rendered.
        let classes = self.names.fixed_classes();
        let mut per_template: Vec<Option<u64>> = vec![None; classes.len()];
        let mut name = String::new();
        for (i, u) in self.resource_usages().iter().enumerate() {
            if u.jobs_served == 0 {
                continue;
            }
            let depth = u.max_active as u64;
            let t = self.resources.name(i).template();
            if classes[t].is_some() {
                let entry = per_template[t].get_or_insert(depth);
                *entry = (*entry).max(depth);
            } else {
                fold(resource_class(self.name_into(i, &mut name)), depth);
            }
        }
        for (class, depth) in classes.iter().zip(per_template) {
            if let (Some(class), Some(depth)) = (class, depth) {
                fold(class, depth);
            }
        }
        per_class.into_iter().collect()
    }

    /// The deterministic engine-side profile of this run: event, heap,
    /// ready-set and per-class queue counters plus the activity and
    /// resource population. Everything here is a pure function of the
    /// activity DAG — byte-identical across runs and worker-thread
    /// counts — so it may enter byte-diffed documents (the
    /// `deterministic` section of `mcio.prof.v1`), unlike wall-clock
    /// data.
    pub fn engine_profile(&self) -> EngineProfile {
        EngineProfile {
            events_scheduled: self.engine_stats.events_scheduled,
            events_fired: self.engine_stats.events_processed,
            events_cancelled: self.engine_stats.events_cancelled,
            heap_high_water: self.engine_stats.max_queue_depth as u64,
            ready_high_water: self.engine_stats.max_ready_set as u64,
            activities: self.activities.len() as u64,
            resources: self.resources.len() as u64,
            class_max_queue: self.class_max_queues(),
        }
    }

    /// Record this run's accounting into a metrics [`Registry`]:
    /// per-resource busy time, bytes, jobs, utilization, peak queue
    /// length, and wait-time histograms, plus engine event/heap-depth
    /// stats and the makespan. Metric names are stable and documented
    /// in `docs/observability.md`.
    pub fn record_into(&self, reg: &Registry) {
        let makespan = self.makespan.saturating_since(SimTime::ZERO);
        reg.set_gauge("des.makespan_ns", &[], makespan.as_nanos() as f64);
        reg.inc("des.engine.events", &[], self.engine_stats.events_processed);
        reg.merge_histogram(
            "des.engine.queue_depth",
            &[],
            &self.engine_stats.queue_depth,
        );
        reg.set_gauge(
            "des.engine.max_queue_depth",
            &[],
            self.engine_stats.max_queue_depth as f64,
        );
        reg.inc(
            "des.engine.events_scheduled",
            &[],
            self.engine_stats.events_scheduled,
        );
        reg.inc(
            "des.engine.events_cancelled",
            &[],
            self.engine_stats.events_cancelled,
        );
        reg.set_gauge(
            "des.engine.max_ready_set",
            &[],
            self.engine_stats.max_ready_set as f64,
        );
        for (class, depth) in self.class_max_queues() {
            reg.set_gauge(
                "des.engine.class_max_queue",
                &[("class", class.as_str())],
                depth as f64,
            );
        }
        let mut name = String::new();
        for (i, u) in self.resource_usages().iter().enumerate() {
            // Resources that never served a job (e.g. nodes the process
            // map leaves idle on a large machine spec) would only add
            // all-zero series; skip them to keep exports readable.
            if u.jobs_served == 0 {
                continue;
            }
            let r = ResourceId(i);
            let labels = &[("resource", self.name_into(i, &mut name))][..];
            reg.inc("des.resource.busy_ns", labels, u.busy_time.as_nanos());
            reg.inc("des.resource.bytes", labels, u.bytes_served);
            reg.inc("des.resource.jobs", labels, u.jobs_served);
            reg.set_gauge("des.resource.utilization", labels, u.utilization(makespan));
            reg.set_gauge("des.resource.max_queue", labels, u.max_queue_len as f64);
            reg.set_gauge("des.resource.max_active", labels, u.max_active as f64);
            reg.merge_histogram("des.resource.wait_ns", labels, &self.wait_hist(r));
        }
    }

    /// Push the recorded service trace into `out` under
    /// [`PID_RESOURCES`]: one lane (`tid`) per resource, one span per
    /// service interval, with lanes named after the resources.
    /// No-op when tracing was not enabled. A used resource's name and
    /// a served activity's label are each rendered and interned once;
    /// nothing is allocated per span.
    pub fn trace_into(&self, out: &mut Trace) {
        let Some(trace) = &self.trace else { return };
        let pid = PID_RESOURCES;
        out.name_lane(pid);
        let names = &self.names;
        // The name of every resource that served a record: its lane.
        let mut lanes: Vec<Option<Sym>> = vec![None; self.resources.len()];
        for rec in trace {
            let tid = rec.resource.index();
            if lanes[tid].is_none() {
                let name = names.show(self.resources.name(tid));
                lanes[tid] = Some(out.sym(format_args!("{name}")));
            }
        }
        let mut labels: Vec<Option<Sym>> = vec![None; self.activities.len()];
        out.threads.reserve(lanes.iter().flatten().count());
        for (tid, lane) in lanes.iter().enumerate() {
            if let Some(name) = *lane {
                out.name_thread(pid, tid as u64, name);
            }
        }
        // The service records are most of any trace.
        out.spans.reserve(trace.len());
        for rec in trace {
            let tid = rec.resource.index();
            let args = out.args.len() as u32;
            let a = rec.activity.index();
            let name = *labels[a]
                .get_or_insert_with(|| out.sym(format_args!("{}", names.show(self.labels[a]))));
            let span = Span {
                name,
                cat: lanes[tid].expect("a lane per served resource"),
                pid,
                tid: tid as u64,
                start_ns: rec.start.as_nanos(),
                dur_ns: rec.end.saturating_since(rec.start).as_nanos(),
                args: args..args,
            };
            out.spans.push(span);
        }
    }
}

/// Deterministic engine-side profile of one completed run, consumed by
/// the `deterministic` section of the `mcio.prof.v1` sidecar (see
/// `mcio-prof`). All counters are pure functions of the activity DAG:
/// byte-identical across runs and across `--jobs` values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineProfile {
    /// Events scheduled over the whole run.
    pub events_scheduled: u64,
    /// Events popped and processed by the run loop.
    pub events_fired: u64,
    /// Events retracted before firing: fair-share next-completion
    /// re-predictions (always 0 for pure-FIFO runs).
    pub events_cancelled: u64,
    /// Peak pending events in the event queue (lazily-skipped
    /// cancelled entries included).
    pub heap_high_water: u64,
    /// Peak count of released-but-unstarted activities (DAG frontier
    /// width as the engine saw it).
    pub ready_high_water: u64,
    /// Activities in the run.
    pub activities: u64,
    /// Resources registered (including ones the process map left idle).
    pub resources: u64,
    /// Peak active transfer set per resource class, sorted by class
    /// name ([`resource_class`]); idle resources are skipped.
    pub class_max_queue: Vec<(String, u64)>,
}

impl EngineProfile {
    /// Fold another run's profile into this one: counts and populations
    /// sum, high-water marks take the maximum, per-class queue depth
    /// takes the per-class maximum. Folding is commutative, so a total
    /// over cells is identical no matter what order the cells finished
    /// in — the property the sweep determinism guarantee relies on.
    pub fn merge(&mut self, other: &EngineProfile) {
        self.events_scheduled += other.events_scheduled;
        self.events_fired += other.events_fired;
        self.events_cancelled += other.events_cancelled;
        self.heap_high_water = self.heap_high_water.max(other.heap_high_water);
        self.ready_high_water = self.ready_high_water.max(other.ready_high_water);
        self.activities += other.activities;
        self.resources += other.resources;
        let mut per_class: std::collections::BTreeMap<String, u64> =
            self.class_max_queue.drain(..).collect();
        for (class, depth) in &other.class_max_queue {
            let entry = per_class.entry(class.clone()).or_insert(0);
            *entry = (*entry).max(*depth);
        }
        self.class_max_queue = per_class.into_iter().collect();
    }
}

/// The class of a resource name: the suffix after the last `.` when one
/// exists (`node3.membus` → `membus`, `node0.nic_tx` → `nic_tx`),
/// otherwise the name with trailing digits stripped (`ost17` → `ost`).
pub fn resource_class(name: &str) -> &str {
    match name.rsplit_once('.') {
        Some((_, suffix)) => suffix,
        None => name.trim_end_matches(|c: char| c.is_ascii_digit()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw(bps: f64) -> Bandwidth {
        Bandwidth::bytes_per_sec(bps)
    }

    /// A stage of `bytes` on `resource`, with no overhead or latency.
    fn on(resource: ResourceId, bytes: u64) -> Stage {
        Stage {
            resource,
            bytes,
            overhead: SimDuration::ZERO,
            latency_after: SimDuration::ZERO,
        }
    }

    #[test]
    fn empty_simulation_runs() {
        let report = Simulation::new().run().unwrap();
        assert_eq!(report.makespan(), SimTime::ZERO);
        assert_eq!(report.activity_count(), 0);
    }

    #[test]
    fn single_stage_timing() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("r", bw(100.0));
        let a = sim.activity("a", SimTime::ZERO, &[on(r, 200)]);
        let rep = sim.run().unwrap();
        assert_eq!(
            rep.finish_time(a),
            SimTime::ZERO + SimDuration::from_secs(2)
        );
        assert_eq!(rep.makespan().as_secs_f64(), 2.0);
    }

    #[test]
    fn contention_serializes() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("r", bw(100.0));
        let a = sim.activity("a", SimTime::ZERO, &[on(r, 100)]);
        let b = sim.activity("b", SimTime::ZERO, &[on(r, 100)]);
        let rep = sim.run().unwrap();
        // FIFO: a first (registered first), b second.
        assert_eq!(rep.finish_time(a).as_secs_f64(), 1.0);
        assert_eq!(rep.finish_time(b).as_secs_f64(), 2.0);
        assert_eq!(rep.resource_usage(r).jobs_served, 2);
    }

    #[test]
    fn independent_resources_run_in_parallel() {
        let mut sim = Simulation::new();
        let r1 = sim.add_resource("r1", bw(100.0));
        let r2 = sim.add_resource("r2", bw(100.0));
        let a = sim.activity("a", SimTime::ZERO, &[on(r1, 100)]);
        let b = sim.activity("b", SimTime::ZERO, &[on(r2, 100)]);
        let rep = sim.run().unwrap();
        assert_eq!(rep.finish_time(a).as_secs_f64(), 1.0);
        assert_eq!(rep.finish_time(b).as_secs_f64(), 1.0);
        assert_eq!(rep.makespan().as_secs_f64(), 1.0);
    }

    #[test]
    fn dependencies_sequence_activities() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("r", bw(100.0));
        let a = sim.activity("a", SimTime::ZERO, &[on(r, 100)]);
        let b = sim.activity("b", SimTime::ZERO, &[on(r, 100)]);
        let join = sim.activity("join", SimTime::ZERO, &[]);
        let c = sim.activity("c", SimTime::ZERO, &[on(r, 100)]);
        sim.add_dep(a, join);
        sim.add_dep(b, join);
        sim.add_dep(join, c);
        let rep = sim.run().unwrap();
        assert_eq!(rep.finish_time(join).as_secs_f64(), 2.0);
        assert_eq!(rep.finish_time(c).as_secs_f64(), 3.0);
    }

    #[test]
    fn multi_stage_pipeline() {
        let mut sim = Simulation::new();
        let r1 = sim.add_resource("r1", bw(100.0));
        let r2 = sim.add_resource("r2", bw(50.0));
        let a = sim.activity("a", SimTime::ZERO, &[on(r1, 100), on(r2, 100)]);
        let rep = sim.run().unwrap();
        // 1s on r1 then 2s on r2.
        assert_eq!(rep.finish_time(a).as_secs_f64(), 3.0);
    }

    #[test]
    fn latency_after_stage_delays_without_occupying() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("r", bw(100.0));
        let waits = Stage {
            latency_after: SimDuration::from_secs(5),
            ..on(r, 100)
        };
        let a = sim.activity("a", SimTime::ZERO, &[waits]);
        let b = sim.activity("b", SimTime::ZERO, &[on(r, 100)]);
        let rep = sim.run().unwrap();
        // a holds the resource only 1s; b finishes at 2s even though a
        // completes at 6s.
        assert_eq!(rep.finish_time(b).as_secs_f64(), 2.0);
        assert_eq!(rep.finish_time(a).as_secs_f64(), 6.0);
        assert_eq!(rep.makespan().as_secs_f64(), 6.0);
    }

    #[test]
    fn release_time_honored() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("r", bw(100.0));
        let a = sim.activity("a", SimTime::from_nanos(5_000_000_000), &[on(r, 100)]);
        let rep = sim.run().unwrap();
        assert_eq!(rep.start_time(a).as_secs_f64(), 5.0);
        assert_eq!(rep.finish_time(a).as_secs_f64(), 6.0);
    }

    #[test]
    fn zero_stage_activity_is_a_barrier() {
        let mut sim = Simulation::new();
        let barrier = sim.activity("barrier", SimTime::ZERO, &[]);
        let rep = sim.run().unwrap();
        assert_eq!(rep.finish_time(barrier), SimTime::ZERO);
    }

    #[test]
    fn cycle_detected_as_deadlock() {
        let mut sim = Simulation::new();
        let a = sim.activity("a", SimTime::ZERO, &[]);
        let b = sim.activity("b", SimTime::ZERO, &[]);
        sim.add_dep(a, b);
        sim.add_dep(b, a);
        match sim.run() {
            Err(SimError::Deadlock { stuck }) => {
                assert_eq!(stuck.len(), 2);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn dependents_are_released_in_declaration_order() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("r", bw(100.0));
        let p = sim.activity("p", SimTime::ZERO, &[]);
        let q = sim.activity("q", SimTime::ZERO, &[]);
        let work = |sim: &mut Simulation, label: &'static str| {
            sim.activity(label, SimTime::ZERO, &[on(r, 100)])
        };
        // Registered a, b, c, x, y; edges declared c, x, a, y, b with the
        // two predecessors interleaved.
        let [a, b, c, x, y] = ["a", "b", "c", "x", "y"].map(|l| work(&mut sim, l));
        for (before, after) in [(p, c), (q, x), (p, a), (q, y), (p, b)] {
            sim.add_dep(before, after);
        }
        let rep = sim.run().unwrap();
        // p completes first and releases c, a, b in that order, then q
        // releases x, y; the FIFO server keeps the order of arrival.
        let served: Vec<f64> = [c, a, b, x, y]
            .iter()
            .map(|&d| rep.finish_time(d).as_secs_f64())
            .collect();
        assert_eq!(served, [1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn same_instant_events_run_in_schedule_order() {
        // At t = 1 s two events fall due: x's service completion, pushed
        // at t = 0, and — when x completes — its dependent b's `Ready`,
        // pushed at t = 1 s itself. a's completion on `s` is due at the
        // same instant and was pushed before b's `Ready`, so a reaches
        // the shared FIFO server `r` first; c reaches it at 1.5 s, after
        // b. Running b's `Ready` ahead of a's completion puts b first;
        // running c's arrival (or anything later) while b's `Ready`
        // waits puts c first.
        let mut sim = Simulation::new();
        let [q, s, r, u] = ["q", "s", "r", "u"].map(|name| sim.add_resource(name, bw(100.0)));
        let x = sim.activity("x", SimTime::ZERO, &[on(q, 100)]);
        let a = sim.activity("", SimTime::ZERO, &[on(s, 100), on(r, 100)]);
        let c = sim.activity("", SimTime::ZERO, &[on(u, 150), on(r, 100)]);
        let b = sim.activity("", SimTime::ZERO, &[on(r, 100)]);
        sim.add_dep(x, b);
        let rep = sim.run().unwrap();
        let finished = [a, b, c].map(|act| rep.finish_time(act).as_secs_f64());
        assert_eq!(finished, [2.0, 3.0, 4.0]);
        assert_eq!(rep.start_time(b).as_secs_f64(), 1.0);
    }

    #[test]
    fn a_run_whose_clock_saturates_still_completes() {
        // A stall to the end of representable time finishes the stage at
        // `SimTime::MAX`, the "not yet" instant itself: the run still
        // succeeds, under both engines.
        for policy in [SharePolicy::Fifo, SharePolicy::FairShare] {
            let mut sim = Simulation::with_policy(policy);
            let r = sim.add_resource("ost0", bw(100.0));
            let (start, end) = (SimTime::ZERO, SimTime::MAX);
            let stall = crate::ServiceWindow {
                start,
                end,
                rate: 0.0,
            };
            sim.set_service_windows(r, &[stall]);
            let stalled = sim.activity("stalled", SimTime::ZERO, &[on(r, 100)]);
            let after = sim.activity("after", SimTime::ZERO, &[]);
            sim.add_dep(stalled, after);
            let rep = sim.run().expect("a saturated clock is not a deadlock");
            assert_eq!(rep.finish_time(after), SimTime::MAX, "{policy:?}");
            assert_eq!(rep.makespan(), SimTime::MAX);
        }
    }

    #[test]
    fn stageless_activities_and_sinks() {
        // No activity at all, then a stageless source releasing a
        // stageless sink that is the last row of every arena.
        assert_eq!(Simulation::new().run().unwrap().activity_count(), 0);
        let mut sim = Simulation::new();
        let release = SimTime::from_nanos(7);
        let source = sim.activity("source", release, &[]);
        let lone = sim.activity("lone", SimTime::ZERO, &[]);
        let sink = sim.activity("sink", SimTime::ZERO, &[]);
        sim.add_dep(source, sink);
        let rep = sim.run().unwrap();
        assert_eq!(rep.finish_time(lone), SimTime::ZERO);
        assert_eq!(rep.start_time(sink), release);
        assert_eq!(rep.finish_time(sink), release);
        assert_eq!(rep.makespan(), release);
    }

    #[test]
    fn deadlock_names_the_first_eight_stuck_labels() {
        let mut sim = Simulation::new();
        let free = sim.activity("free", SimTime::ZERO, &[]);
        let ring = sim.template("ring{}");
        let ring: Vec<ActivityId> = (0..10)
            .map(|i| sim.activity(Label::new(Prefix::NONE, ring, [i, 0]), SimTime::ZERO, &[]))
            .collect();
        for (i, &a) in ring.iter().enumerate() {
            sim.add_dep(a, ring[(i + 1) % ring.len()]);
        }
        sim.add_dep(free, ring[0]);
        let expected: Vec<String> = (0..8).map(|i| format!("ring{i}")).collect();
        assert_eq!(
            sim.run().unwrap_err(),
            SimError::Deadlock { stuck: expected }
        );
    }

    #[test]
    fn labels_render_as_registered() {
        let mut sim = Simulation::new();
        let labels = ["first", "", "nœud3.mémoire→ost7", "", "last"];
        let ids = labels.map(|l| sim.activity(l, SimTime::ZERO, &[]));
        let io = sim.template("j{}.io.r{}");
        let direct = sim.activity(Label::new(Prefix::NONE, io, [2, 9]), SimTime::ZERO, &[]);
        let rep = sim.run().unwrap();
        for (id, label) in ids.into_iter().zip(labels) {
            assert_eq!(rep.label(id), label);
        }
        assert_eq!(rep.label(direct), "j2.io.r9");
    }

    #[test]
    #[should_panic(expected = "unknown activity")]
    fn dependency_on_an_unknown_activity_panics() {
        let mut other = Simulation::new();
        other.activity("a", SimTime::ZERO, &[]);
        let stranger = other.activity("b", SimTime::ZERO, &[]);
        let mut sim = Simulation::new();
        let a = sim.activity("a", SimTime::ZERO, &[]);
        sim.add_dep(stranger, a);
    }

    #[test]
    fn a_seed_released_with_a_run_time_event_goes_first() {
        // At 1 s `x` leaves `q` (an event scheduled while running) and
        // `s`, which waits for nothing, is released (a seed): both go to
        // `r`. Seeds are sequenced ahead of every run-time event at
        // their instant, so `s` reaches `r` first. Under FIFO that
        // shows in the finish times; under fair sharing the two share
        // `r` in either order, and the order shows in the trace.
        let at = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
        for policy in [SharePolicy::Fifo, SharePolicy::FairShare] {
            let mut sim = Simulation::with_policy(policy);
            sim.enable_trace();
            let [q, r] = ["q", "r"].map(|name| sim.add_resource(name, bw(100.0)));
            let x = sim.activity("x", SimTime::ZERO, &[on(q, 100), on(r, 100)]);
            let s = sim.activity("s", at(1_000), &[on(r, 50)]);
            let rep = sim.run().unwrap();
            let finished = [s, x].map(|a| rep.finish_time(a));
            let served: Vec<_> = (rep.trace().unwrap().iter())
                .map(|rec| (rec.activity, rec.resource))
                .collect();
            assert_eq!(served, [(x, q), (s, r), (x, r)], "{policy:?}");
            // Fair sharing re-predicts `r`'s completion once, when `x`
            // joins `s` there.
            let (finished_at, cancelled) = match policy {
                SharePolicy::Fifo => ([1_500, 2_500], 0),
                SharePolicy::FairShare => ([2_000, 2_500], 1),
            };
            assert_eq!(finished, finished_at.map(at), "{policy:?}");
            let mut queue_depth = Histogram::new();
            for depth in [1, 1, 1, 0, 0] {
                queue_depth.observe(depth);
            }
            let expected = EngineStats {
                events_processed: 5,
                events_scheduled: 5 + cancelled,
                events_cancelled: cancelled,
                max_queue_depth: 1,
                max_ready_set: 2,
                queue_depth,
            };
            assert_eq!(rep.engine_stats(), &expected, "{policy:?}");
        }
    }

    #[test]
    fn dependency_release_interplay() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("r", bw(100.0));
        let a = sim.activity("a", SimTime::ZERO, &[on(r, 100)]);
        // b depends on a (done at 1s) but is also released only at 10s.
        let b = sim.activity("b", SimTime::from_nanos(10_000_000_000), &[on(r, 100)]);
        sim.add_dep(a, b);
        let rep = sim.run().unwrap();
        assert_eq!(rep.start_time(b).as_secs_f64(), 10.0);
        assert_eq!(rep.finish_time(b).as_secs_f64(), 11.0);
    }

    #[test]
    fn determinism_same_graph_same_schedule() {
        let build = || {
            let mut sim = Simulation::new();
            let r1 = sim.add_resource("r1", bw(123.0));
            let r2 = sim.add_resource("r2", bw(321.0));
            let (a, mut ids) = (sim.template("a{}"), Vec::new());
            for i in 0..50u32 {
                let res = if i % 2 == 0 { r1 } else { r2 };
                let stage = Stage {
                    overhead: SimDuration::from_nanos(i.into()),
                    ..on(res, 100 + u64::from(i) * 13)
                };
                let label = Label::new(Prefix::NONE, a, [i, 0]);
                ids.push(sim.activity(label, SimTime::ZERO, &[stage]));
            }
            for w in ids.windows(3) {
                sim.add_dep(w[0], w[2]);
            }
            (sim, ids)
        };
        let (s1, ids1) = build();
        let (s2, ids2) = build();
        let r1 = s1.run().unwrap();
        let r2 = s2.run().unwrap();
        for (x, y) in ids1.iter().zip(ids2.iter()) {
            assert_eq!(r1.finish_time(*x), r2.finish_time(*y));
        }
        assert_eq!(r1.makespan(), r2.makespan());
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn unknown_resource_panics() {
        let mut sim = Simulation::new();
        sim.activity("a", SimTime::ZERO, &[on(ResourceId(7), 1)]);
    }

    #[test]
    fn multi_slot_resource_parallelizes() {
        let mut sim = Simulation::new();
        let r = sim.add_resource_with_capacity("r", bw(100.0), 2);
        let a = sim.activity("a", SimTime::ZERO, &[on(r, 100)]);
        let b = sim.activity("b", SimTime::ZERO, &[on(r, 100)]);
        let c = sim.activity("c", SimTime::ZERO, &[on(r, 100)]);
        let rep = sim.run().unwrap();
        // Two slots: a and b in parallel (1s), c queued behind (2s).
        assert_eq!(rep.finish_time(a).as_secs_f64(), 1.0);
        assert_eq!(rep.finish_time(b).as_secs_f64(), 1.0);
        assert_eq!(rep.finish_time(c).as_secs_f64(), 2.0);
        // Aggregate service time exceeds the makespan.
        assert_eq!(rep.resource_usage(r).busy_time.as_secs_f64(), 3.0);
    }

    #[test]
    fn trace_records_service_intervals() {
        let mut sim = Simulation::new();
        sim.enable_trace();
        let r = sim.add_resource("r", bw(100.0));
        let a = sim.activity("first", SimTime::ZERO, &[on(r, 100)]);
        let b = sim.activity("sec\tond\n", SimTime::ZERO, &[on(r, 100)]);
        let rep = sim.run().unwrap();
        let trace = rep.trace().expect("tracing enabled");
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].activity, a);
        assert_eq!(trace[0].start, SimTime::ZERO);
        assert_eq!(trace[1].activity, b);
        assert_eq!(trace[1].start.as_secs_f64(), 1.0);
        assert_eq!(trace[1].end.as_secs_f64(), 2.0);
    }

    #[test]
    fn trace_absent_when_disabled() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("r", bw(100.0));
        sim.activity("a", SimTime::ZERO, &[on(r, 100)]);
        let rep = sim.run().unwrap();
        assert!(rep.trace().is_none());
    }

    #[test]
    fn engine_stats_count_events_and_depth() {
        let mut sim = Simulation::new();
        let (r, a) = (sim.add_resource("r", bw(100.0)), sim.template("a{}"));
        for i in 0..8 {
            sim.activity(
                Label::new(Prefix::NONE, a, [i, 0]),
                SimTime::ZERO,
                &[on(r, 100)],
            );
        }
        let rep = sim.run().unwrap();
        let es = rep.engine_stats();
        assert!(
            es.events_processed >= 16,
            "8 Ready + 8 StageServed at least"
        );
        assert!(es.max_queue_depth >= 7, "ready events pile up at t=0");
        assert_eq!(es.queue_depth.count(), es.events_processed);
    }

    #[test]
    fn record_into_registry_exports_resources() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("node0.nic_tx", bw(100.0));
        sim.activity("a", SimTime::ZERO, &[on(r, 100)]);
        sim.activity("b", SimTime::ZERO, &[on(r, 300)]);
        let rep = sim.run().unwrap();
        let reg = Registry::new();
        rep.record_into(&reg);
        let labels = &[("resource", "node0.nic_tx")][..];
        assert_eq!(reg.counter_value("des.resource.bytes", labels), 400);
        assert_eq!(reg.counter_value("des.resource.jobs", labels), 2);
        assert_eq!(
            reg.counter_value("des.resource.busy_ns", labels),
            4_000_000_000
        );
        let snap = reg.snapshot();
        // One wait histogram per resource, one observation per job.
        let wait = snap
            .histograms
            .iter()
            .find(|h| h.name == "des.resource.wait_ns")
            .expect("wait histogram recorded");
        assert_eq!(wait.count, 2);
        assert!(snap.counter("des.engine.events", &[]).unwrap() > 0);
    }

    #[test]
    fn trace_into_unifies_lanes() {
        let mut sim = Simulation::new();
        sim.enable_trace();
        let r1 = sim.add_resource("r1", bw(100.0));
        let r2 = sim.add_resource("r2", bw(100.0));
        sim.activity("a", SimTime::ZERO, &[on(r1, 100)]);
        sim.activity("b", SimTime::ZERO, &[on(r2, 200)]);
        let rep = sim.run().unwrap();
        let mut tc = Trace::default();
        rep.trace_into(&mut tc);
        let spans = &tc.spans;
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.pid == PID_RESOURCES));
        let &[(pid, name)] = &tc.processes[..] else {
            panic!("one process")
        };
        assert_eq!((pid, tc.text(name)), (PID_RESOURCES, "des.resources"));
        assert_eq!((spans[0].tid, tc.text(spans[0].name)), (0, "a"));
        assert_eq!((spans[1].tid, tc.text(spans[1].cat)), (1, "r2"));
        // Without tracing enabled, trace_into is a no-op.
        let mut sim = Simulation::new();
        let r = sim.add_resource("r", bw(100.0));
        sim.activity("a", SimTime::ZERO, &[on(r, 100)]);
        let rep = sim.run().unwrap();
        let mut tc = Trace::default();
        rep.trace_into(&mut tc);
        assert_eq!(tc, Trace::default());
    }

    #[test]
    fn busy_time_accounting() {
        let mut sim = Simulation::new();
        let (r, a) = (sim.add_resource("r", bw(100.0)), sim.template("a{}"));
        for i in 0..4 {
            sim.activity(
                Label::new(Prefix::NONE, a, [i, 0]),
                SimTime::ZERO,
                &[on(r, 100)],
            );
        }
        let rep = sim.run().unwrap();
        let u = rep.resource_usage(r);
        assert_eq!(u.busy_time.as_secs_f64(), 4.0);
        assert_eq!(u.bytes_served, 400);
        // Fully utilized.
        assert!((u.utilization(rep.makespan().saturating_since(SimTime::ZERO)) - 1.0).abs() < 1e-9);
    }
}
