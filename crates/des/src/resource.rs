//! Bandwidth resources: FIFO queues and amortized fair sharing.
//!
//! A resource models a single server with a fixed bandwidth: a NIC port, a
//! node's off-chip memory bus, an object storage target. Under the classic
//! [`SharePolicy::Fifo`] discipline jobs queue in FIFO order and occupy the
//! server for `overhead + bytes / bandwidth`. This store-and-forward service
//! discipline is what produces contention in the simulation: two transfers
//! crossing the same memory bus serialize, exactly the off-chip bandwidth
//! pressure the paper is about.
//!
//! [`SharePolicy::FairShare`] replaces the queue with an amortized
//! processor-sharing throughput model (the shape of dslab's `fair_fast`):
//! every admitted transfer progresses simultaneously, each receiving
//! `min(n, capacity) / n` of a service slot, and finish times are
//! recomputed only on arrival/departure — O(log n) heap work per event
//! instead of one queued event per waiting request. Demand is measured in
//! nanoseconds of *nominal service time* (`overhead + bytes / bandwidth`),
//! so pure-overhead resources (infinite-bandwidth OSTs) contend under fair
//! sharing exactly like bandwidth-bound links. When the active set drains
//! the virtual clock resets, which keeps every uncontended admission's
//! arithmetic — and therefore its completion instant — bit-identical to
//! the FIFO engine's.
//!
//! A simulation holds its resources in one resource table: a resource
//! is a plain row plus its [`ResourceUsage`], its name is a label row
//! (rendered when read), and the state only some resources need — a waiting queue, an
//! active set, service windows, a histogram of non-zero waits — lives in
//! side tables the row indexes once it needs one. Registering a machine
//! of any size allocates nothing per resource.

use crate::activity::ActivityId;
use crate::engine::{index32, EventHandle};
use crate::label::Label;
use crate::time::{SimDuration, SimTime};
use mcio_obs::Histogram;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Identifier of a resource within a [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub(crate) usize);

impl ResourceId {
    /// The index of this resource in the simulation's resource table.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Service discipline of a simulation's resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SharePolicy {
    /// Store-and-forward FIFO: `capacity` slots, each serving one job at
    /// the full bandwidth; excess jobs wait in arrival order.
    #[default]
    Fifo,
    /// Amortized fair sharing (processor sharing): all admitted
    /// transfers progress concurrently, each at
    /// `min(n, capacity) / n` of a full-rate slot; finish times are
    /// recomputed only on arrival/departure.
    FairShare,
}

impl SharePolicy {
    /// Stable lowercase label (`fifo` / `fair`), for CLI flags and docs.
    pub fn label(self) -> &'static str {
        match self {
            SharePolicy::Fifo => "fifo",
            SharePolicy::FairShare => "fair",
        }
    }

    /// Parse a CLI label; accepts `fifo`, `fair`, `fair-share` and
    /// `fairshare`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fifo" => Some(SharePolicy::Fifo),
            "fair" | "fair-share" | "fairshare" => Some(SharePolicy::FairShare),
            _ => None,
        }
    }
}

/// Service rate of a resource, in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// A bandwidth of `bps` bytes per second. Non-finite or non-positive
    /// values are treated as infinite bandwidth (pure-overhead resource).
    pub fn bytes_per_sec(bps: f64) -> Self {
        if bps.is_finite() && bps > 0.0 {
            Bandwidth(bps)
        } else {
            Bandwidth(f64::INFINITY)
        }
    }

    /// Infinite bandwidth: jobs cost only their fixed overhead.
    pub fn infinite() -> Self {
        Bandwidth(f64::INFINITY)
    }

    /// Time to push `bytes` through this resource, excluding overhead.
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        if self.0.is_infinite() || bytes == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(bytes as f64 / self.0)
        }
    }
}

/// A time window during which a resource serves at a fraction of its
/// nominal rate — an injected fault, or the share other jobs' committed
/// service leaves. `rate` is the progress multiplier: `0.5` means half
/// speed, `0.0` a full stall. Outside all windows the resource serves
/// at rate 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Progress multiplier in `[0, 1]` while the window is active.
    pub rate: f64,
}

/// One queued unit of work at a resource: a specific stage of an activity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    pub activity: ActivityId,
    pub bytes: u64,
    pub overhead: SimDuration,
}

/// One transfer in a fair-share resource's active set.
#[derive(Debug, Clone, Copy)]
struct FairEntry {
    /// Virtual finish time: the resource's virtual clock value at which
    /// this transfer's demand is fully served, in nanoseconds of
    /// per-transfer service progress.
    finish_v: f64,
    /// Admission sequence within this active period — the deterministic
    /// tiebreak for equal virtual finish times.
    seq: u64,
    job: Job,
    /// When the transfer was admitted (trace span start).
    admitted: SimTime,
    /// Index into the engine's trace vector to backpatch the span end
    /// at completion, when tracing is enabled.
    trace_slot: Option<usize>,
}

impl PartialEq for FairEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for FairEntry {}
impl PartialOrd for FairEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FairEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish_v
            .total_cmp(&other.finish_v)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A fair-share resource's non-empty active set. A drained set holds
/// nothing the next admission reads (the virtual clock resets to 0 and
/// admission order only breaks ties inside one set), so it goes back to
/// the pool for whichever resource is admitted to next.
#[derive(Debug, Clone, Default)]
struct FairState {
    /// Active transfers keyed by virtual finish time (min-heap).
    heap: BinaryHeap<Reverse<FairEntry>>,
    /// The resource's virtual clock: nanoseconds of service progress
    /// each active transfer has accumulated since the set was opened,
    /// which keeps uncontended admissions in exact (integer-
    /// representable) f64 territory.
    vtime: f64,
    /// Simulated instant the virtual clock was last advanced to.
    last_t: SimTime,
    /// Admission counter (deterministic heap tiebreak).
    next_seq: u64,
    /// Engine handle of the currently scheduled next-completion event,
    /// if any.
    pending: Option<EventHandle>,
}

/// Side-table index of a resource that has no entry there (yet).
const NONE: u32 = u32::MAX;

/// One resource's row: its service parameters, the jobs in service, and
/// where its entries in the table's side tables are, if it has any.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resource {
    bandwidth: Bandwidth,
    /// Parallel service slots (1 = the classic single server; an OST
    /// with several disk channels or server threads uses more).
    capacity: usize,
    /// Jobs currently in service (≤ capacity; FIFO only).
    in_service: usize,
    /// The waiting queue, while jobs wait (FIFO only).
    queue: u32,
    /// The active set, while transfers are active (fair share only).
    fair: u32,
    /// The injected service windows, once installed.
    windows: u32,
    /// The histogram of non-zero waits, once a job waited.
    waits: u32,
}

/// Every resource of a simulation, one [`Resource`] row, one
/// [`ResourceUsage`] and one name [`Label`] each. Queues and active sets are pooled: one is taken when a
/// resource first needs it and returned when it empties, so the pools
/// track how many resources are busy at once, not how many exist.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResourceTable {
    rows: Vec<Resource>,
    usages: Vec<ResourceUsage>,
    names: Vec<Label>,
    /// Waiting jobs, each with the time it joined the queue.
    queues: Vec<VecDeque<(Job, SimTime)>>,
    free_queues: Vec<u32>,
    fair: Vec<FairState>,
    free_fair: Vec<u32>,
    /// Every installed service window, one resource's set after
    /// another, each set sorted by start.
    windows: Vec<ServiceWindow>,
    /// The range of `windows` a resource with windows reads.
    window_sets: Vec<(u32, u32)>,
    /// Every queueing delay that was not zero, per resource that had one
    /// (ns); the zeros are the rest of its `jobs_served`.
    waits: Vec<Histogram>,
}

impl ResourceTable {
    /// Register a resource named `name`.
    pub(crate) fn add(&mut self, name: Label, bandwidth: Bandwidth, capacity: usize) -> ResourceId {
        assert!(capacity > 0, "resource needs at least one service slot");
        let id = ResourceId(self.rows.len());
        self.names.push(name);
        self.rows.push(Resource {
            bandwidth,
            capacity,
            in_service: 0,
            queue: NONE,
            fair: NONE,
            windows: NONE,
            waits: NONE,
        });
        self.usages.push(ResourceUsage::default());
        id
    }

    /// Number of registered resources.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The name a resource was registered with, as a row.
    pub(crate) fn name(&self, r: usize) -> Label {
        self.names[r]
    }

    /// Check every resource against what the engine reads off its
    /// activities and events: `admitted[r]`, the bytes of the stages that
    /// left `r` plus those of the FIFO jobs in service there, and
    /// `serving[r]`, those FIFO jobs. A resource's served bytes are the
    /// admitted ones plus those of its fair-share active set, and its
    /// jobs in service are `serving[r]`, within its capacity.
    pub(crate) fn audit(&self, admitted: &[u64], serving: &[usize]) {
        for (r, row) in self.rows.iter().enumerate() {
            let active = match row.fair {
                NONE => 0,
                f => self.fair[f as usize]
                    .heap
                    .iter()
                    .map(|e| e.0.job.bytes)
                    .sum(),
            };
            debug_assert_eq!(
                self.usages[r].bytes_served,
                admitted[r] + active,
                "resource {r} served other bytes than its stages took in"
            );
            debug_assert_eq!(
                row.in_service, serving[r],
                "resource {r} lost a job in service"
            );
            debug_assert!(row.in_service <= row.capacity, "resource {r} over capacity");
        }
    }

    /// A resource's accounting.
    pub(crate) fn usage(&self, r: ResourceId) -> &ResourceUsage {
        &self.usages[r.0]
    }

    /// Every resource's accounting, in registration order.
    pub(crate) fn usages(&self) -> &[ResourceUsage] {
        &self.usages
    }

    /// Distribution of a resource's per-job queueing delay, in
    /// nanoseconds: its recorded non-zero waits plus one zero for every
    /// other job it served.
    pub(crate) fn wait_hist(&self, r: ResourceId) -> Histogram {
        let mut hist = Histogram::new();
        let waited = match self.rows[r.0].waits {
            NONE => None,
            w => Some(&self.waits[w as usize]),
        };
        let zeros = self.usages[r.0].jobs_served - waited.map_or(0, Histogram::count);
        for _ in 0..zeros {
            hist.observe(0);
        }
        if let Some(waited) = waited {
            hist.merge(waited);
        }
        hist
    }

    /// A resource's parallel service slots.
    pub(crate) fn capacity(&self, r: ResourceId) -> usize {
        self.rows[r.0].capacity
    }

    /// Install service perturbation windows (fault injection), copied
    /// onto the end of the window arena. Windows are kept sorted by
    /// start; overlapping windows apply in that order (each segment of
    /// time is governed by the first window covering it). Replaces any
    /// previously installed set, which stays in the arena unread.
    pub(crate) fn set_service_windows(&mut self, r: ResourceId, windows: &[ServiceWindow]) {
        let start = self.windows.len();
        (self.windows).extend(windows.iter().filter(|w| w.end > w.start));
        self.windows[start..].sort_by_key(|w| (w.start, w.end));
        // The end fits, so the start before it does.
        let set = (start as u32, index32(self.windows.len(), "service windows"));
        let row = &mut self.rows[r.0];
        if row.windows == NONE {
            row.windows = index32(self.window_sets.len(), "resources with service windows");
            self.window_sets.push(set);
        } else {
            self.window_sets[row.windows as usize] = set;
        }
    }

    /// The service windows of a resource (empty when it has none).
    fn windows(&self, r: ResourceId) -> &[ServiceWindow] {
        match self.rows[r.0].windows {
            NONE => &[],
            w => {
                let (start, end) = self.window_sets[w as usize];
                &self.windows[start as usize..end as usize]
            }
        }
    }

    /// Service time for a job: `overhead + bytes / bandwidth`.
    fn service_time(&self, r: ResourceId, job: Job) -> SimDuration {
        job.overhead + self.rows[r.0].bandwidth.transfer_time(job.bytes)
    }

    // ----- FIFO path -----

    /// Enqueue a job. If a service slot is free the job starts
    /// immediately and its completion time is returned; otherwise it
    /// waits in FIFO order.
    pub(crate) fn enqueue(&mut self, r: ResourceId, now: SimTime, job: Job) -> Option<SimTime> {
        let row = self.rows[r.0];
        if row.in_service < row.capacity {
            return Some(self.start(r, now, job));
        }
        if row.queue == NONE {
            let q = acquire(&mut self.queues, &mut self.free_queues, "waiting queues");
            self.rows[r.0].queue = q;
        }
        let queue = &mut self.queues[self.rows[r.0].queue as usize];
        queue.push_back((job, now));
        let usage = &mut self.usages[r.0];
        usage.max_queue_len = usage.max_queue_len.max(queue.len());
        None
    }

    /// Called when an in-service job completes. Returns the next job and
    /// its completion time, if one was waiting.
    pub(crate) fn complete_current(
        &mut self,
        r: ResourceId,
        now: SimTime,
    ) -> Option<(Job, SimTime)> {
        let row = &mut self.rows[r.0];
        debug_assert!(row.in_service > 0, "resource was not busy");
        row.in_service -= 1;
        if row.queue == NONE {
            return None;
        }
        let queue = &mut self.queues[row.queue as usize];
        let (job, enqueued) = queue.pop_front().expect("a queue in use is not empty");
        if queue.is_empty() {
            self.free_queues.push(row.queue);
            row.queue = NONE;
        }
        let wait = now.saturating_since(enqueued).as_nanos();
        if wait > 0 {
            if row.waits == NONE {
                row.waits = index32(self.waits.len(), "resources that made a job wait");
                self.waits.push(Histogram::new());
            }
            self.waits[row.waits as usize].observe(wait);
        }
        let done = self.start(r, now, job);
        Some((job, done))
    }

    fn start(&mut self, r: ResourceId, now: SimTime, job: Job) -> SimTime {
        let nominal = self.service_time(r, job);
        let windows = self.windows(r);
        let done = if windows.is_empty() {
            now + nominal
        } else {
            integrate_done(windows, now, nominal.as_nanos() as f64, 1.0)
        };
        let row = &mut self.rows[r.0];
        row.in_service += 1;
        let usage = &mut self.usages[r.0];
        usage.max_active = usage.max_active.max(row.in_service);
        // Busy time is the span the slot is actually occupied, so
        // utilization reflects the injected slowdown.
        usage.busy_time += done.saturating_since(now);
        usage.bytes_served += job.bytes;
        usage.jobs_served += 1;
        done
    }

    // ----- fair-share path -----

    /// Per-transfer share of a full-rate slot with `n` active transfers.
    fn fair_share(&self, r: ResourceId, n: usize) -> f64 {
        debug_assert!(n > 0);
        n.min(self.rows[r.0].capacity) as f64 / n as f64
    }

    /// Advance the virtual clock of the resource's active set (and the
    /// busy-time integral) to `now`. The active-set size is constant
    /// between engine events, so the integral is piecewise over the
    /// perturbation windows only.
    fn fair_advance(&mut self, r: ResourceId, now: SimTime) {
        let f = self.rows[r.0].fair as usize;
        let (last_t, n) = (self.fair[f].last_t, self.fair[f].heap.len());
        if now <= last_t {
            return;
        }
        let slots = n.min(self.rows[r.0].capacity) as u64;
        let span = now.saturating_since(last_t).as_nanos();
        self.usages[r.0].busy_time += SimDuration::from_nanos(span.saturating_mul(slots));
        let progress = progress_between(self.windows(r), last_t, now, self.fair_share(r, n));
        let state = &mut self.fair[f];
        state.vtime += progress;
        state.last_t = now;
    }

    /// Admit a transfer into the fair-share active set at `now`.
    /// The caller must reschedule the resource's next-completion event
    /// afterwards (admission changes every active transfer's rate).
    pub(crate) fn fair_arrive(
        &mut self,
        r: ResourceId,
        now: SimTime,
        job: Job,
        trace_slot: Option<usize>,
    ) {
        if self.rows[r.0].fair == NONE {
            // Empty set: a fresh virtual clock, so the admission below
            // computes `finish_v = demand` exactly — the uncontended
            // completion arithmetic then matches FIFO bit for bit, and
            // f64 error cannot accumulate across drained periods.
            let f = acquire(&mut self.fair, &mut self.free_fair, "active sets");
            let state = &mut self.fair[f as usize];
            debug_assert!(state.heap.is_empty() && state.pending.is_none());
            (state.vtime, state.last_t, state.next_seq) = (0.0, now, 0);
            self.rows[r.0].fair = f;
        } else {
            self.fair_advance(r, now);
        }
        let demand = self.service_time(r, job).as_nanos() as f64;
        let state = &mut self.fair[self.rows[r.0].fair as usize];
        let seq = state.next_seq;
        state.next_seq += 1;
        state.heap.push(Reverse(FairEntry {
            finish_v: state.vtime + demand,
            seq,
            job,
            admitted: now,
            trace_slot,
        }));
        let n = state.heap.len();
        let capacity = self.rows[r.0].capacity;
        let usage = &mut self.usages[r.0];
        usage.max_active = usage.max_active.max(n);
        // Nothing ever waits under processor sharing; the FIFO-analogous
        // "queue" is the overflow past the nominal slot count.
        usage.max_queue_len = usage.max_queue_len.max(n.saturating_sub(capacity));
        usage.bytes_served += job.bytes;
        usage.jobs_served += 1;
    }

    /// Completion instant of the active transfer with the least
    /// remaining virtual demand, or `None` when the set is empty. Only
    /// valid immediately after the clock was advanced (every engine
    /// call site advances via arrival/completion first).
    pub(crate) fn fair_next_completion(&self, r: ResourceId) -> Option<SimTime> {
        let state = match self.rows[r.0].fair {
            NONE => return None,
            f => &self.fair[f as usize],
        };
        let Reverse(head) = state.heap.peek()?;
        let share = self.fair_share(r, state.heap.len());
        let remaining = head.finish_v - state.vtime;
        Some(integrate_done(
            self.windows(r),
            state.last_t,
            remaining,
            share,
        ))
    }

    /// Pop the completing transfer at `now`, returning its job,
    /// admission time, and trace slot. The caller must reschedule the
    /// resource's next-completion event afterwards.
    pub(crate) fn fair_complete(
        &mut self,
        r: ResourceId,
        now: SimTime,
    ) -> (Job, SimTime, Option<usize>) {
        self.fair_advance(r, now);
        let f = self.rows[r.0].fair;
        let state = &mut self.fair[f as usize];
        let Reverse(entry) = state
            .heap
            .pop()
            .expect("fair completion fired on an empty resource");
        if state.heap.is_empty() {
            debug_assert!(state.pending.is_none(), "a drained set has no prediction");
            self.free_fair.push(f);
            self.rows[r.0].fair = NONE;
        }
        (entry.job, entry.admitted, entry.trace_slot)
    }

    /// Take the engine handle of the scheduled next-completion event.
    pub(crate) fn take_pending(&mut self, r: ResourceId) -> Option<EventHandle> {
        match self.rows[r.0].fair {
            NONE => None,
            f => self.fair[f as usize].pending.take(),
        }
    }

    /// Store the engine handle of the scheduled next-completion event.
    pub(crate) fn set_pending(&mut self, r: ResourceId, handle: EventHandle) {
        let state = &mut self.fair[self.rows[r.0].fair as usize];
        debug_assert!(state.pending.is_none());
        state.pending = Some(handle);
    }
}

/// An entry of `pool` to put to use: one that `free` lists, else a new
/// one.
fn acquire<T: Default>(pool: &mut Vec<T>, free: &mut Vec<u32>, what: &str) -> u32 {
    free.pop().unwrap_or_else(|| {
        pool.push(T::default());
        index32(pool.len() - 1, what)
    })
}

/// Earliest instant at which `remaining` nanoseconds of service progress
/// accumulate starting from `now`, when progress flows at `share` of the
/// nominal rate (times the active perturbation window's multiplier).
/// `share = 1.0` reproduces the FIFO engine's arithmetic bit for bit. An
/// empty demand completes at `now` regardless of windows: zero work
/// needs zero time, even inside a full stall.
fn integrate_done(
    windows: &[ServiceWindow],
    now: SimTime,
    mut remaining: f64,
    share: f64,
) -> SimTime {
    let mut t = now.as_nanos();
    if remaining <= 0.0 {
        return SimTime::from_nanos(t);
    }
    for w in windows {
        let (ws, we) = (w.start.as_nanos(), w.end.as_nanos());
        if we <= t {
            continue;
        }
        // Full-rate segment before the window opens.
        if ws > t {
            let gap = (ws - t) as f64 * share;
            if remaining <= gap {
                return SimTime::from_nanos(t.saturating_add((remaining / share).ceil() as u64));
            }
            remaining -= gap;
            t = ws;
            if remaining <= 0.0 {
                return SimTime::from_nanos(t);
            }
        }
        // Inside the window: progress at `rate`.
        let rate = w.rate.clamp(0.0, 1.0) * share;
        let span = (we - t) as f64;
        if rate > 0.0 && remaining <= span * rate {
            return SimTime::from_nanos(t.saturating_add((remaining / rate).ceil() as u64));
        }
        remaining -= span * rate;
        t = we;
        if remaining <= 0.0 {
            return SimTime::from_nanos(t);
        }
    }
    SimTime::from_nanos(t.saturating_add((remaining / share).ceil() as u64))
}

/// Service progress (in nanoseconds of per-transfer progress) that
/// accumulates over `[t0, t1)` at `share` of the nominal rate, walking
/// the perturbation windows exactly like [`integrate_done`].
fn progress_between(windows: &[ServiceWindow], t0: SimTime, t1: SimTime, share: f64) -> f64 {
    let (mut t, end) = (t0.as_nanos(), t1.as_nanos());
    if end <= t {
        return 0.0;
    }
    let mut acc = 0.0;
    for w in windows {
        let (ws, we) = (w.start.as_nanos(), w.end.as_nanos());
        if we <= t {
            continue;
        }
        if ws > t {
            let gap_end = ws.min(end);
            acc += (gap_end - t) as f64 * share;
            t = gap_end;
            if t >= end {
                return acc;
            }
        }
        let seg_end = we.min(end);
        acc += (seg_end - t) as f64 * (w.rate.clamp(0.0, 1.0) * share);
        t = seg_end;
        if t >= end {
            return acc;
        }
    }
    acc + (end - t) as f64 * share
}

/// Post-run accounting for one resource (its name is
/// [`crate::RunReport::resource_name`], its wait distribution
/// [`crate::RunReport::wait_hist`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Total service time delivered (may exceed the makespan when the
    /// resource has multiple service slots). Under fair sharing this is
    /// the integral of `min(active, capacity)` over time — the same
    /// slot-seconds a FIFO server would account for the same work.
    pub busy_time: SimDuration,
    /// Total bytes pushed through the server.
    pub bytes_served: u64,
    /// Number of jobs served.
    pub jobs_served: u64,
    /// High-water mark of jobs beyond the nominal slot count: the
    /// waiting queue under FIFO (excludes jobs in service), the active
    /// set's overflow past `capacity` under fair sharing.
    pub max_queue_len: usize,
    /// High-water mark of simultaneously served transfers: jobs holding
    /// a slot under FIFO (≤ capacity), the whole active set under fair
    /// sharing (unbounded).
    pub max_active: usize,
}

impl ResourceUsage {
    /// Fraction of the makespan this resource was busy, in `[0, 1]`
    /// (assuming `makespan` covers the whole run).
    pub fn utilization(&self, makespan: SimDuration) -> f64 {
        if makespan.is_zero() {
            0.0
        } else {
            self.busy_time.as_secs_f64() / makespan.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(bytes: u64) -> Job {
        Job {
            activity: ActivityId(0),
            bytes,
            overhead: SimDuration::ZERO,
        }
    }

    /// A name row (the table never reads it).
    fn name() -> Label {
        crate::label::IntoLabel::into_label("r", &mut crate::label::Names::default())
    }

    /// A table holding one resource `r` of `bps` bytes per second.
    fn one(bps: f64, capacity: usize) -> (ResourceTable, ResourceId) {
        let mut table = ResourceTable::default();
        let bandwidth = Bandwidth::bytes_per_sec(bps);
        let r = table.add(name(), bandwidth, capacity);
        (table, r)
    }

    fn window(start: u64, end: u64, rate: f64) -> [ServiceWindow; 1] {
        let (start, end) = (SimTime::from_nanos(start), SimTime::from_nanos(end));
        [ServiceWindow { start, end, rate }]
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::bytes_per_sec(1000.0);
        assert_eq!(bw.transfer_time(2000), SimDuration::from_secs(2));
        assert_eq!(bw.transfer_time(0), SimDuration::ZERO);
        assert_eq!(
            Bandwidth::infinite().transfer_time(1 << 40),
            SimDuration::ZERO
        );
    }

    #[test]
    fn degenerate_bandwidth_becomes_infinite() {
        assert_eq!(
            Bandwidth::bytes_per_sec(0.0).transfer_time(100),
            SimDuration::ZERO
        );
        assert_eq!(
            Bandwidth::bytes_per_sec(-5.0).transfer_time(100),
            SimDuration::ZERO
        );
        assert_eq!(
            Bandwidth::bytes_per_sec(f64::NAN).transfer_time(100),
            SimDuration::ZERO
        );
    }

    #[test]
    fn share_policy_labels_round_trip() {
        for p in [SharePolicy::Fifo, SharePolicy::FairShare] {
            assert_eq!(SharePolicy::parse(p.label()), Some(p));
        }
        for spelling in ["fair-share", "fairshare"] {
            assert_eq!(SharePolicy::parse(spelling), Some(SharePolicy::FairShare));
        }
        assert_eq!(SharePolicy::parse("lifo"), None);
    }

    #[test]
    fn a_table_row_is_small() {
        // What every resource carries, serving state plus accounting;
        // queues, active sets, windows and wait histograms sit in the
        // side tables.
        let row = std::mem::size_of::<Resource>() + std::mem::size_of::<ResourceUsage>();
        assert!(row <= 96, "{row} bytes per resource");
    }

    #[test]
    fn fifo_queueing() {
        let (mut t, r) = one(100.0, 1);
        let t0 = SimTime::ZERO;
        // First job starts immediately.
        let done = t.enqueue(r, t0, job(100)).expect("idle server starts job");
        assert_eq!(done, t0 + SimDuration::from_secs(1));
        // Second queues.
        assert!(t.enqueue(r, t0, job(200)).is_none());
        assert_eq!(t.usage(r).max_queue_len, 1);
        // Completion pops the queue, which goes back to the pool.
        let (next, next_done) = t.complete_current(r, done).expect("queued job");
        assert_eq!(next.bytes, 200);
        assert_eq!(next_done, done + SimDuration::from_secs(2));
        assert_eq!(t.free_queues, [0]);
        assert!(t.complete_current(r, next_done).is_none());
        let u = t.usage(r);
        assert_eq!(u.jobs_served, 2);
        assert_eq!(u.bytes_served, 300);
        assert_eq!(u.busy_time, SimDuration::from_secs(3));
        assert_eq!(u.max_active, 1);
    }

    #[test]
    fn wait_times_recorded_per_job() {
        let (mut t, r) = one(100.0, 1);
        let t0 = SimTime::ZERO;
        let done = t.enqueue(r, t0, job(100)).unwrap();
        assert!(t.enqueue(r, t0, job(100)).is_none());
        t.complete_current(r, done);
        let hist = t.wait_hist(r);
        // One immediate start (0 ns wait), one that waited a full second.
        assert_eq!(hist.count(), t.usage(r).jobs_served);
        assert_eq!(hist.min(), Some(0));
        assert_eq!(hist.max(), Some(1_000_000_000));
        // The same histogram as observing both waits in order.
        let mut direct = Histogram::new();
        direct.observe(0);
        direct.observe(1_000_000_000);
        assert_eq!(hist, direct);
    }

    #[test]
    fn overhead_adds_to_service() {
        let (t, r) = one(100.0, 1);
        let j = Job {
            overhead: SimDuration::from_millis(500),
            ..job(100)
        };
        assert_eq!(t.service_time(r, j), SimDuration::from_millis(1500));
    }

    #[test]
    fn slow_window_stretches_service() {
        // 100 B/s server, 100-byte job ⇒ nominally 1 s. A half-rate
        // window covering the whole job doubles it.
        let (mut t, r) = one(100.0, 1);
        t.set_service_windows(r, &window(0, u64::MAX, 0.5));
        let done = t.enqueue(r, SimTime::ZERO, job(100)).unwrap();
        assert_eq!(done, SimTime::ZERO + SimDuration::from_secs(2));
        assert_eq!(t.usage(r).busy_time, SimDuration::from_secs(2));
    }

    #[test]
    fn stall_window_freezes_progress() {
        // Job starts at t=0, stall covers [0.5 s, 2.5 s): the first half
        // second does half the work, then nothing until 2.5 s, then the
        // remaining half second ⇒ done at 3 s.
        let (mut t, r) = one(100.0, 1);
        t.set_service_windows(r, &window(500_000_000, 2_500_000_000, 0.0));
        let done = t.enqueue(r, SimTime::ZERO, job(100)).unwrap();
        assert_eq!(done, SimTime::from_nanos(3_000_000_000));
    }

    #[test]
    fn job_outside_windows_is_unperturbed() {
        let (mut t, r) = one(100.0, 1);
        t.set_service_windows(r, &window(10, 20, 0.0));
        // Starting after the window ends: exact nominal completion.
        let start = SimTime::from_nanos(1_000_000_000);
        let done = t.enqueue(r, start, job(100)).unwrap();
        assert_eq!(done, start + SimDuration::from_secs(1));
    }

    #[test]
    fn empty_and_reversed_windows_are_dropped() {
        let (mut t, r) = one(100.0, 1);
        t.set_service_windows(r, &window(20, 20, 0.0));
        let done = t.enqueue(r, SimTime::ZERO, job(100)).unwrap();
        assert_eq!(done, SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn zero_service_job_completes_immediately_even_in_a_stall() {
        // A zero-byte, zero-overhead job needs zero work: it must
        // complete at t+0 even when admitted inside a full stall window
        // (previously it was pushed to the window's end).
        let (mut t, r) = one(100.0, 1);
        t.set_service_windows(r, &window(0, 10_000_000_000, 0.0));
        let start = SimTime::from_nanos(1_000);
        let done = t.enqueue(r, start, job(0)).unwrap();
        assert_eq!(done, start);
    }

    #[test]
    fn job_finishing_exactly_at_stall_start_is_not_dragged_to_its_end() {
        // 1 s of work starting at t=0; a stall covers [1 s, 5 s). The
        // job's last byte lands exactly at the stall boundary, so it
        // completes at 1 s, not at the stall's end.
        let (mut t, r) = one(100.0, 1);
        t.set_service_windows(r, &window(1_000_000_000, 5_000_000_000, 0.0));
        let done = t.enqueue(r, SimTime::ZERO, job(100)).unwrap();
        assert_eq!(done, SimTime::from_nanos(1_000_000_000));
    }

    #[test]
    fn fair_single_transfer_matches_fifo_arithmetic() {
        let (mut f, r) = one(100.0, 1);
        let t0 = SimTime::from_nanos(123_456_789);
        f.fair_arrive(r, t0, job(100), None);
        assert_eq!(
            f.fair_next_completion(r),
            Some(t0 + SimDuration::from_secs(1))
        );
        let (j, admitted, _) = f.fair_complete(r, t0 + SimDuration::from_secs(1));
        assert_eq!(j.bytes, 100);
        assert_eq!(admitted, t0);
        let u = f.usage(r);
        assert_eq!(u.busy_time, SimDuration::from_secs(1));
        assert_eq!(u.max_active, 1);
        assert_eq!(u.max_queue_len, 0);
    }

    #[test]
    fn fair_two_transfers_split_the_rate() {
        // Two 100-byte transfers admitted together on a 100 B/s server:
        // each progresses at 50 B/s, both finish at 2 s (admission order
        // breaks the tie).
        let (mut f, r) = one(100.0, 1);
        f.fair_arrive(r, SimTime::ZERO, job(100), None);
        f.fair_arrive(r, SimTime::ZERO, job(100), None);
        let done = f.fair_next_completion(r).unwrap();
        assert_eq!(done, SimTime::from_nanos(2_000_000_000));
        f.fair_complete(r, done);
        // The survivor has no competition left; it was already fully
        // served at the same instant.
        assert_eq!(f.fair_next_completion(r), Some(done));
        f.fair_complete(r, done);
        // The drained set went back to the pool.
        assert_eq!(f.fair_next_completion(r), None);
        assert_eq!(f.free_fair, [0]);
        let u = f.usage(r);
        // Busy integral: min(2, 1) slot over 2 s.
        assert_eq!(u.busy_time, SimDuration::from_secs(2));
        assert_eq!(u.max_active, 2);
        assert_eq!(u.max_queue_len, 1);
        assert_eq!(u.jobs_served, 2);
        assert_eq!(f.wait_hist(r).count(), 2);
    }

    #[test]
    fn fair_late_arrival_processor_sharing() {
        // A starts alone at t=0 (100 B at 100 B/s). B (50 B) arrives at
        // 0.5 s. A has 50 B left; both share at 50 B/s. Both demands
        // drain together at t = 0.5 + 1.0 = 1.5 s.
        let (mut f, r) = one(100.0, 1);
        f.fair_arrive(r, SimTime::ZERO, job(100), None);
        f.fair_arrive(r, SimTime::from_nanos(500_000_000), job(50), None);
        let done = f.fair_next_completion(r).unwrap();
        assert_eq!(done, SimTime::from_nanos(1_500_000_000));
        let (first, _, _) = f.fair_complete(r, done);
        // Tie on virtual finish time: admission order wins — A first.
        assert_eq!(first.bytes, 100);
        assert_eq!(f.fair_next_completion(r), Some(done));
    }

    #[test]
    fn fair_capacity_two_serves_pairs_at_full_rate() {
        // capacity 2: two transfers get a full slot each — identical to
        // the FIFO multi-slot semantics. A third shares: 2 slots / 3.
        let (mut f, r) = one(100.0, 2);
        f.fair_arrive(r, SimTime::ZERO, job(100), None);
        f.fair_arrive(r, SimTime::ZERO, job(100), None);
        assert_eq!(
            f.fair_next_completion(r),
            Some(SimTime::from_nanos(1_000_000_000))
        );
        f.fair_arrive(r, SimTime::ZERO, job(100), None);
        // Each of the three now progresses at 2/3 rate: 1.5 s.
        assert_eq!(
            f.fair_next_completion(r),
            Some(SimTime::from_nanos(1_500_000_000))
        );
    }

    #[test]
    fn fair_overhead_only_transfers_contend() {
        // Infinite bandwidth, pure overhead (the OST shape): two 1 ms
        // requests admitted together each progress at half rate — 2 ms.
        let mut f = ResourceTable::default();
        let r = f.add(name(), Bandwidth::infinite(), 1);
        let j = Job {
            overhead: SimDuration::from_millis(1),
            ..job(0)
        };
        f.fair_arrive(r, SimTime::ZERO, j, None);
        f.fair_arrive(r, SimTime::ZERO, j, None);
        assert_eq!(
            f.fair_next_completion(r),
            Some(SimTime::from_nanos(2_000_000))
        );
    }

    #[test]
    fn fair_window_slows_the_whole_set() {
        // Two 100-byte transfers on 100 B/s under a half-rate window:
        // effective 25 B/s each ⇒ 4 s.
        let (mut f, r) = one(100.0, 1);
        f.set_service_windows(r, &window(0, u64::MAX, 0.5));
        f.fair_arrive(r, SimTime::ZERO, job(100), None);
        f.fair_arrive(r, SimTime::ZERO, job(100), None);
        assert_eq!(
            f.fair_next_completion(r),
            Some(SimTime::from_nanos(4_000_000_000))
        );
    }

    #[test]
    fn fair_zero_demand_completes_at_admission() {
        let (mut f, r) = one(100.0, 1);
        f.set_service_windows(r, &window(0, u64::MAX, 0.0));
        let t = SimTime::from_nanos(42);
        f.fair_arrive(r, t, job(0), None);
        assert_eq!(f.fair_next_completion(r), Some(t));
    }

    #[test]
    fn fair_vtime_resets_when_drained() {
        // Run one transfer, drain, run another far later — on another
        // resource that takes over the pooled set: the second admission
        // must compute the same exact arithmetic as the first (no
        // accumulated virtual time, no stale clock).
        let (mut f, r) = one(100.0, 1);
        let s = f.add(name(), Bandwidth::bytes_per_sec(100.0), 1);
        f.fair_arrive(r, SimTime::ZERO, job(100), None);
        let d1 = f.fair_next_completion(r).unwrap();
        f.fair_complete(r, d1);
        let t2 = SimTime::from_nanos(77_000_000_123);
        for resource in [r, s] {
            f.fair_arrive(resource, t2, job(100), None);
            assert_eq!(
                f.fair_next_completion(resource),
                Some(t2 + SimDuration::from_secs(1))
            );
        }
        assert_eq!(f.fair.len(), 2, "one set per busy resource");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "served other bytes")]
    fn an_audit_catches_bytes_no_stage_took_in() {
        let (mut t, r) = one(100.0, 2);
        t.enqueue(r, SimTime::ZERO, job(100));
        // One job in service, but the stages account for none of it.
        t.audit(&[0], &[1]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lost a job in service")]
    fn an_audit_catches_a_job_no_event_serves() {
        let (mut t, r) = one(100.0, 2);
        t.enqueue(r, SimTime::ZERO, job(100));
        t.audit(&[100], &[0]);
    }

    #[test]
    fn utilization() {
        let u = ResourceUsage {
            busy_time: SimDuration::from_secs(1),
            ..ResourceUsage::default()
        };
        assert!((u.utilization(SimDuration::from_secs(4)) - 0.25).abs() < 1e-12);
        assert_eq!(u.utilization(SimDuration::ZERO), 0.0);
    }
}
