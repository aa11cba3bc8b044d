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

use crate::activity::ActivityId;
use crate::engine::EventHandle;
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

/// Service discipline of a resource.
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

    /// Parse a CLI label; accepts `fifo`, `fair`, and `fair-share`.
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
/// nominal rate — the fault-injection hook. `rate` is the progress
/// multiplier: `0.5` means half speed, `0.0` a full stall. Outside all
/// windows the resource serves at rate 1.
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
    /// Admission sequence within this resource — the deterministic
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

/// Fair-sharing state of a resource (present only under
/// [`SharePolicy::FairShare`]).
#[derive(Debug, Default)]
struct FairState {
    /// Active transfers keyed by virtual finish time (min-heap).
    heap: BinaryHeap<Reverse<FairEntry>>,
    /// The resource's virtual clock: nanoseconds of service progress
    /// each active transfer has accumulated. Resets to 0 whenever the
    /// active set drains, so uncontended admissions stay in exact
    /// (integer-representable) f64 territory.
    vtime: f64,
    /// Simulated instant the virtual clock was last advanced to.
    last_t: SimTime,
    /// Admission counter (deterministic heap tiebreak).
    next_seq: u64,
    /// Engine handle of the currently scheduled next-completion event,
    /// if any.
    pending: Option<EventHandle>,
}

/// A bandwidth server with `capacity` parallel service slots
/// (capacity 1 = the classic single server; an OST with several disk
/// channels or server threads uses more), serving under a
/// [`SharePolicy`].
#[derive(Debug)]
pub struct Resource {
    name: String,
    bandwidth: Bandwidth,
    capacity: usize,
    policy: SharePolicy,
    /// Waiting jobs, each with the time it joined the queue (FIFO only).
    queue: VecDeque<(Job, SimTime)>,
    /// Jobs currently in service (≤ capacity; FIFO only).
    in_service: usize,
    /// Fair-sharing state (FairShare only).
    fair: FairState,
    // --- accounting ---
    busy_time: SimDuration,
    bytes_served: u64,
    jobs_served: u64,
    max_queue_len: usize,
    /// High-water mark of simultaneously in-service (FIFO) or active
    /// (fair-share) transfers.
    max_active: usize,
    /// Per-job queueing delay (ns); immediate starts record 0.
    wait_hist: Histogram,
    /// Injected service perturbations, sorted by start, non-overlapping.
    windows: Vec<ServiceWindow>,
}

impl Resource {
    #[cfg(test)]
    pub(crate) fn new(name: impl Into<String>, bandwidth: Bandwidth) -> Self {
        Self::with_policy(name, bandwidth, 1, SharePolicy::Fifo)
    }

    pub(crate) fn with_policy(
        name: impl Into<String>,
        bandwidth: Bandwidth,
        capacity: usize,
        policy: SharePolicy,
    ) -> Self {
        assert!(capacity > 0, "resource needs at least one service slot");
        Resource {
            name: name.into(),
            bandwidth,
            capacity,
            policy,
            queue: VecDeque::new(),
            in_service: 0,
            fair: FairState::default(),
            busy_time: SimDuration::ZERO,
            bytes_served: 0,
            jobs_served: 0,
            max_queue_len: 0,
            max_active: 0,
            wait_hist: Histogram::new(),
            windows: Vec::new(),
        }
    }

    /// Install service perturbation windows (fault injection). Windows
    /// are kept sorted by start; overlapping windows apply in that order
    /// (each segment of time is governed by the first window covering
    /// it). Replaces any previously installed set.
    pub(crate) fn set_service_windows(&mut self, mut windows: Vec<ServiceWindow>) {
        windows.retain(|w| w.end > w.start);
        windows.sort_by_key(|w| (w.start, w.end));
        self.windows = windows;
    }

    /// Number of parallel service slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Human-readable name, e.g. `"node3.membus"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured service bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The service discipline this resource runs under.
    pub fn policy(&self) -> SharePolicy {
        self.policy
    }

    /// Service time for a job: `overhead + bytes / bandwidth`.
    pub fn service_time(&self, bytes: u64, overhead: SimDuration) -> SimDuration {
        overhead + self.bandwidth.transfer_time(bytes)
    }

    // ----- FIFO path -----

    /// Enqueue a job. If a service slot is free the job starts
    /// immediately and its completion time is returned; otherwise it
    /// waits in FIFO order.
    pub(crate) fn enqueue(&mut self, now: SimTime, job: Job) -> Option<SimTime> {
        debug_assert_eq!(self.policy, SharePolicy::Fifo);
        if self.in_service < self.capacity {
            self.wait_hist.observe(0);
            Some(self.start(now, job))
        } else {
            self.queue.push_back((job, now));
            self.max_queue_len = self.max_queue_len.max(self.queue.len());
            None
        }
    }

    /// Called when an in-service job completes. Returns the next job and
    /// its completion time, if one was waiting.
    pub(crate) fn complete_current(&mut self, now: SimTime) -> Option<(Job, SimTime)> {
        debug_assert!(self.in_service > 0, "resource was not busy");
        self.in_service -= 1;
        let (job, enqueued) = self.queue.pop_front()?;
        self.wait_hist
            .observe(now.saturating_since(enqueued).as_nanos());
        let done = self.start(now, job);
        Some((job, done))
    }

    fn start(&mut self, now: SimTime, job: Job) -> SimTime {
        let nominal = self.service_time(job.bytes, job.overhead);
        let done = if self.windows.is_empty() {
            now + nominal
        } else {
            self.perturbed_done(now, nominal)
        };
        self.in_service += 1;
        self.max_active = self.max_active.max(self.in_service);
        // Busy time is the span the slot is actually occupied, so
        // utilization reflects the injected slowdown.
        self.busy_time += done.saturating_since(now);
        self.bytes_served += job.bytes;
        self.jobs_served += 1;
        done
    }

    /// Completion time of a job starting at `now` whose nominal service
    /// requirement is `nominal`, integrating progress piecewise across
    /// the perturbation windows (rate 1 between and after them).
    fn perturbed_done(&self, now: SimTime, nominal: SimDuration) -> SimTime {
        self.integrate_done(now, nominal.as_nanos() as f64, 1.0)
    }

    /// Earliest instant at which `remaining` nanoseconds of service
    /// progress accumulate starting from `now`, when progress flows at
    /// `share` of the nominal rate (times the active perturbation
    /// window's multiplier). `share = 1.0` reproduces the FIFO engine's
    /// arithmetic bit for bit. An empty demand completes at `now`
    /// regardless of windows: zero work needs zero time, even inside a
    /// full stall.
    fn integrate_done(&self, now: SimTime, mut remaining: f64, share: f64) -> SimTime {
        let mut t = now.as_nanos();
        if remaining <= 0.0 {
            return SimTime::from_nanos(t);
        }
        for w in &self.windows {
            let (ws, we) = (w.start.as_nanos(), w.end.as_nanos());
            if we <= t {
                continue;
            }
            // Full-rate segment before the window opens.
            if ws > t {
                let gap = (ws - t) as f64 * share;
                if remaining <= gap {
                    return SimTime::from_nanos(
                        t.saturating_add((remaining / share).ceil() as u64),
                    );
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
    /// accumulates over `[t0, t1)` at `share` of the nominal rate,
    /// walking the perturbation windows exactly like
    /// [`Resource::integrate_done`].
    fn progress_between(&self, t0: SimTime, t1: SimTime, share: f64) -> f64 {
        let (mut t, end) = (t0.as_nanos(), t1.as_nanos());
        if end <= t {
            return 0.0;
        }
        let mut acc = 0.0;
        for w in &self.windows {
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

    // ----- fair-share path -----

    /// Per-transfer share of a full-rate slot with `n` active transfers.
    fn fair_share(&self, n: usize) -> f64 {
        debug_assert!(n > 0);
        n.min(self.capacity) as f64 / n as f64
    }

    /// Advance the virtual clock (and the busy-time integral) to `now`.
    /// The active-set size is constant between engine events, so the
    /// integral is piecewise over the perturbation windows only.
    fn fair_advance(&mut self, now: SimTime) {
        if now <= self.fair.last_t {
            return;
        }
        let n = self.fair.heap.len();
        if n > 0 {
            let slots = n.min(self.capacity) as u64;
            let span = now.saturating_since(self.fair.last_t).as_nanos();
            self.busy_time += SimDuration::from_nanos(span.saturating_mul(slots));
            let share = self.fair_share(n);
            self.fair.vtime += self.progress_between(self.fair.last_t, now, share);
        }
        self.fair.last_t = now;
    }

    /// Admit a transfer into the fair-share active set at `now`.
    /// The caller must reschedule the resource's next-completion event
    /// afterwards (admission changes every active transfer's rate).
    pub(crate) fn fair_arrive(&mut self, now: SimTime, job: Job, trace_slot: Option<usize>) {
        debug_assert_eq!(self.policy, SharePolicy::FairShare);
        self.fair_advance(now);
        if self.fair.heap.is_empty() {
            // Empty set: reset the virtual clock so the admission below
            // computes `finish_v = demand` exactly — the uncontended
            // completion arithmetic then matches FIFO bit for bit, and
            // f64 error cannot accumulate across drained periods.
            self.fair.vtime = 0.0;
        }
        let demand = self.service_time(job.bytes, job.overhead).as_nanos() as f64;
        let seq = self.fair.next_seq;
        self.fair.next_seq += 1;
        self.fair.heap.push(Reverse(FairEntry {
            finish_v: self.fair.vtime + demand,
            seq,
            job,
            admitted: now,
            trace_slot,
        }));
        let n = self.fair.heap.len();
        self.max_active = self.max_active.max(n);
        // Nothing ever waits under processor sharing; the FIFO-analogous
        // "queue" is the overflow past the nominal slot count.
        self.max_queue_len = self.max_queue_len.max(n.saturating_sub(self.capacity));
        self.wait_hist.observe(0);
        self.bytes_served += job.bytes;
        self.jobs_served += 1;
    }

    /// Completion instant of the active transfer with the least
    /// remaining virtual demand, or `None` when the set is empty. Only
    /// valid immediately after the clock was advanced (every engine
    /// call site advances via arrival/completion first).
    pub(crate) fn fair_next_completion(&self) -> Option<SimTime> {
        let Reverse(head) = self.fair.heap.peek()?;
        let share = self.fair_share(self.fair.heap.len());
        let remaining = head.finish_v - self.fair.vtime;
        Some(self.integrate_done(self.fair.last_t, remaining, share))
    }

    /// Pop the completing transfer at `now`, returning its job,
    /// admission time, and trace slot. The caller must reschedule the
    /// resource's next-completion event afterwards.
    pub(crate) fn fair_complete(&mut self, now: SimTime) -> (Job, SimTime, Option<usize>) {
        debug_assert_eq!(self.policy, SharePolicy::FairShare);
        self.fair_advance(now);
        let Reverse(entry) = self
            .fair
            .heap
            .pop()
            .expect("fair completion fired on an empty resource");
        (entry.job, entry.admitted, entry.trace_slot)
    }

    /// Take the engine handle of the scheduled next-completion event.
    pub(crate) fn take_pending(&mut self) -> Option<EventHandle> {
        self.fair.pending.take()
    }

    /// Store the engine handle of the scheduled next-completion event.
    pub(crate) fn set_pending(&mut self, handle: EventHandle) {
        debug_assert!(self.fair.pending.is_none());
        self.fair.pending = Some(handle);
    }

    /// The resource's accounting once the run is over; the name and
    /// the wait histogram move into it.
    pub(crate) fn into_usage(self) -> ResourceUsage {
        ResourceUsage {
            name: self.name,
            busy_time: self.busy_time,
            bytes_served: self.bytes_served,
            jobs_served: self.jobs_served,
            max_queue_len: self.max_queue_len,
            max_active: self.max_active,
            wait_hist: self.wait_hist,
        }
    }
}

/// Post-run accounting for one resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Name the resource was registered with.
    pub name: String,
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
    /// Distribution of per-job queueing delay, in nanoseconds. Jobs that
    /// found a free slot record a zero wait, so `wait_hist.count()`
    /// equals `jobs_served` after a completed run. Fair-share admissions
    /// never wait: every observation is zero.
    pub wait_hist: Histogram,
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
        assert_eq!(
            SharePolicy::parse("fair-share"),
            Some(SharePolicy::FairShare)
        );
        assert_eq!(SharePolicy::parse("lifo"), None);
    }

    #[test]
    fn fifo_queueing() {
        let mut r = Resource::new("r", Bandwidth::bytes_per_sec(100.0));
        let t0 = SimTime::ZERO;
        // First job starts immediately.
        let done = r.enqueue(t0, job(100)).expect("idle server starts job");
        assert_eq!(done, t0 + SimDuration::from_secs(1));
        // Second queues.
        assert!(r.enqueue(t0, job(200)).is_none());
        assert_eq!(r.max_queue_len, 1);
        // Completion pops the queue.
        let (next, next_done) = r.complete_current(done).expect("queued job");
        assert_eq!(next.bytes, 200);
        assert_eq!(next_done, done + SimDuration::from_secs(2));
        assert!(r.complete_current(next_done).is_none());
        let u = r.into_usage();
        assert_eq!(u.jobs_served, 2);
        assert_eq!(u.bytes_served, 300);
        assert_eq!(u.busy_time, SimDuration::from_secs(3));
        assert_eq!(u.max_active, 1);
    }

    #[test]
    fn wait_times_recorded_per_job() {
        let mut r = Resource::new("r", Bandwidth::bytes_per_sec(100.0));
        let t0 = SimTime::ZERO;
        let done = r.enqueue(t0, job(100)).unwrap();
        assert!(r.enqueue(t0, job(100)).is_none());
        r.complete_current(done);
        let u = r.into_usage();
        // One immediate start (0 ns wait), one that waited a full second.
        assert_eq!(u.wait_hist.count(), u.jobs_served);
        assert_eq!(u.wait_hist.min(), Some(0));
        assert_eq!(u.wait_hist.max(), Some(1_000_000_000));
    }

    #[test]
    fn overhead_adds_to_service() {
        let r = Resource::new("r", Bandwidth::bytes_per_sec(100.0));
        assert_eq!(
            r.service_time(100, SimDuration::from_millis(500)),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn slow_window_stretches_service() {
        // 100 B/s server, 100-byte job ⇒ nominally 1 s. A half-rate
        // window covering the whole job doubles it.
        let mut r = Resource::new("r", Bandwidth::bytes_per_sec(100.0));
        r.set_service_windows(vec![ServiceWindow {
            start: SimTime::ZERO,
            end: SimTime::from_nanos(u64::MAX),
            rate: 0.5,
        }]);
        let done = r.enqueue(SimTime::ZERO, job(100)).unwrap();
        assert_eq!(done, SimTime::ZERO + SimDuration::from_secs(2));
        assert_eq!(r.busy_time, SimDuration::from_secs(2));
    }

    #[test]
    fn stall_window_freezes_progress() {
        // Job starts at t=0, stall covers [0.5 s, 2.5 s): the first half
        // second does half the work, then nothing until 2.5 s, then the
        // remaining half second ⇒ done at 3 s.
        let mut r = Resource::new("r", Bandwidth::bytes_per_sec(100.0));
        r.set_service_windows(vec![ServiceWindow {
            start: SimTime::from_nanos(500_000_000),
            end: SimTime::from_nanos(2_500_000_000),
            rate: 0.0,
        }]);
        let done = r.enqueue(SimTime::ZERO, job(100)).unwrap();
        assert_eq!(done, SimTime::from_nanos(3_000_000_000));
    }

    #[test]
    fn job_outside_windows_is_unperturbed() {
        let mut r = Resource::new("r", Bandwidth::bytes_per_sec(100.0));
        r.set_service_windows(vec![ServiceWindow {
            start: SimTime::from_nanos(10),
            end: SimTime::from_nanos(20),
            rate: 0.0,
        }]);
        // Starting after the window ends: exact nominal completion.
        let t = SimTime::from_nanos(1_000_000_000);
        let done = r.enqueue(t, job(100)).unwrap();
        assert_eq!(done, t + SimDuration::from_secs(1));
    }

    #[test]
    fn empty_and_reversed_windows_are_dropped() {
        let mut r = Resource::new("r", Bandwidth::bytes_per_sec(100.0));
        r.set_service_windows(vec![ServiceWindow {
            start: SimTime::from_nanos(20),
            end: SimTime::from_nanos(20),
            rate: 0.0,
        }]);
        let done = r.enqueue(SimTime::ZERO, job(100)).unwrap();
        assert_eq!(done, SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn zero_service_job_completes_immediately_even_in_a_stall() {
        // A zero-byte, zero-overhead job needs zero work: it must
        // complete at t+0 even when admitted inside a full stall window
        // (previously it was pushed to the window's end).
        let mut r = Resource::new("r", Bandwidth::bytes_per_sec(100.0));
        r.set_service_windows(vec![ServiceWindow {
            start: SimTime::ZERO,
            end: SimTime::from_nanos(10_000_000_000),
            rate: 0.0,
        }]);
        let t = SimTime::from_nanos(1_000);
        let done = r.enqueue(t, job(0)).unwrap();
        assert_eq!(done, t);
    }

    #[test]
    fn job_finishing_exactly_at_stall_start_is_not_dragged_to_its_end() {
        // 1 s of work starting at t=0; a stall covers [1 s, 5 s). The
        // job's last byte lands exactly at the stall boundary, so it
        // completes at 1 s, not at the stall's end.
        let mut r = Resource::new("r", Bandwidth::bytes_per_sec(100.0));
        r.set_service_windows(vec![ServiceWindow {
            start: SimTime::from_nanos(1_000_000_000),
            end: SimTime::from_nanos(5_000_000_000),
            rate: 0.0,
        }]);
        let done = r.enqueue(SimTime::ZERO, job(100)).unwrap();
        assert_eq!(done, SimTime::from_nanos(1_000_000_000));
    }

    #[test]
    fn fair_single_transfer_matches_fifo_arithmetic() {
        let mut f = Resource::with_policy(
            "f",
            Bandwidth::bytes_per_sec(100.0),
            1,
            SharePolicy::FairShare,
        );
        let t0 = SimTime::from_nanos(123_456_789);
        f.fair_arrive(t0, job(100), None);
        assert_eq!(
            f.fair_next_completion(),
            Some(t0 + SimDuration::from_secs(1))
        );
        let (j, admitted, _) = f.fair_complete(t0 + SimDuration::from_secs(1));
        assert_eq!(j.bytes, 100);
        assert_eq!(admitted, t0);
        let u = f.into_usage();
        assert_eq!(u.busy_time, SimDuration::from_secs(1));
        assert_eq!(u.max_active, 1);
        assert_eq!(u.max_queue_len, 0);
    }

    #[test]
    fn fair_two_transfers_split_the_rate() {
        // Two 100-byte transfers admitted together on a 100 B/s server:
        // each progresses at 50 B/s, both finish at 2 s (admission order
        // breaks the tie).
        let mut f = Resource::with_policy(
            "f",
            Bandwidth::bytes_per_sec(100.0),
            1,
            SharePolicy::FairShare,
        );
        f.fair_arrive(SimTime::ZERO, job(100), None);
        f.fair_arrive(SimTime::ZERO, job(100), None);
        let done = f.fair_next_completion().unwrap();
        assert_eq!(done, SimTime::from_nanos(2_000_000_000));
        f.fair_complete(done);
        // The survivor has no competition left; it was already fully
        // served at the same instant.
        assert_eq!(f.fair_next_completion(), Some(done));
        f.fair_complete(done);
        let u = f.into_usage();
        // Busy integral: min(2, 1) slot over 2 s.
        assert_eq!(u.busy_time, SimDuration::from_secs(2));
        assert_eq!(u.max_active, 2);
        assert_eq!(u.max_queue_len, 1);
        assert_eq!(u.jobs_served, 2);
    }

    #[test]
    fn fair_late_arrival_processor_sharing() {
        // A starts alone at t=0 (100 B at 100 B/s). B (50 B) arrives at
        // 0.5 s. A has 50 B left; both share at 50 B/s. Both demands
        // drain together at t = 0.5 + 1.0 = 1.5 s.
        let mut f = Resource::with_policy(
            "f",
            Bandwidth::bytes_per_sec(100.0),
            1,
            SharePolicy::FairShare,
        );
        f.fair_arrive(SimTime::ZERO, job(100), None);
        f.fair_arrive(SimTime::from_nanos(500_000_000), job(50), None);
        let done = f.fair_next_completion().unwrap();
        assert_eq!(done, SimTime::from_nanos(1_500_000_000));
        let (first, _, _) = f.fair_complete(done);
        // Tie on virtual finish time: admission order wins — A first.
        assert_eq!(first.bytes, 100);
        assert_eq!(f.fair_next_completion(), Some(done));
    }

    #[test]
    fn fair_capacity_two_serves_pairs_at_full_rate() {
        // capacity 2: two transfers get a full slot each — identical to
        // the FIFO multi-slot semantics. A third shares: 2 slots / 3.
        let mut f = Resource::with_policy(
            "f",
            Bandwidth::bytes_per_sec(100.0),
            2,
            SharePolicy::FairShare,
        );
        f.fair_arrive(SimTime::ZERO, job(100), None);
        f.fair_arrive(SimTime::ZERO, job(100), None);
        assert_eq!(
            f.fair_next_completion(),
            Some(SimTime::from_nanos(1_000_000_000))
        );
        f.fair_arrive(SimTime::ZERO, job(100), None);
        // Each of the three now progresses at 2/3 rate: 1.5 s.
        assert_eq!(
            f.fair_next_completion(),
            Some(SimTime::from_nanos(1_500_000_000))
        );
    }

    #[test]
    fn fair_overhead_only_transfers_contend() {
        // Infinite bandwidth, pure overhead (the OST shape): two 1 ms
        // requests admitted together each progress at half rate — 2 ms.
        let mut f = Resource::with_policy("ost0", Bandwidth::infinite(), 1, SharePolicy::FairShare);
        let j = Job {
            activity: ActivityId(0),
            bytes: 0,
            overhead: SimDuration::from_millis(1),
        };
        f.fair_arrive(SimTime::ZERO, j, None);
        f.fair_arrive(SimTime::ZERO, j, None);
        assert_eq!(
            f.fair_next_completion(),
            Some(SimTime::from_nanos(2_000_000))
        );
    }

    #[test]
    fn fair_window_slows_the_whole_set() {
        // Two 100-byte transfers on 100 B/s under a half-rate window:
        // effective 25 B/s each ⇒ 4 s.
        let mut f = Resource::with_policy(
            "f",
            Bandwidth::bytes_per_sec(100.0),
            1,
            SharePolicy::FairShare,
        );
        f.set_service_windows(vec![ServiceWindow {
            start: SimTime::ZERO,
            end: SimTime::from_nanos(u64::MAX),
            rate: 0.5,
        }]);
        f.fair_arrive(SimTime::ZERO, job(100), None);
        f.fair_arrive(SimTime::ZERO, job(100), None);
        assert_eq!(
            f.fair_next_completion(),
            Some(SimTime::from_nanos(4_000_000_000))
        );
    }

    #[test]
    fn fair_zero_demand_completes_at_admission() {
        let mut f = Resource::with_policy(
            "f",
            Bandwidth::bytes_per_sec(100.0),
            1,
            SharePolicy::FairShare,
        );
        f.set_service_windows(vec![ServiceWindow {
            start: SimTime::ZERO,
            end: SimTime::from_nanos(u64::MAX),
            rate: 0.0,
        }]);
        let t = SimTime::from_nanos(42);
        f.fair_arrive(t, job(0), None);
        assert_eq!(f.fair_next_completion(), Some(t));
    }

    #[test]
    fn fair_vtime_resets_when_drained() {
        // Run one transfer, drain, run another far later: the second
        // admission must compute the same exact arithmetic as the first
        // (no accumulated virtual time).
        let mut f = Resource::with_policy(
            "f",
            Bandwidth::bytes_per_sec(100.0),
            1,
            SharePolicy::FairShare,
        );
        f.fair_arrive(SimTime::ZERO, job(100), None);
        let d1 = f.fair_next_completion().unwrap();
        f.fair_complete(d1);
        let t2 = SimTime::from_nanos(77_000_000_123);
        f.fair_arrive(t2, job(100), None);
        assert_eq!(
            f.fair_next_completion(),
            Some(t2 + SimDuration::from_secs(1))
        );
    }

    #[test]
    fn utilization() {
        let u = ResourceUsage {
            name: "r".into(),
            busy_time: SimDuration::from_secs(1),
            bytes_served: 0,
            jobs_served: 0,
            max_queue_len: 0,
            max_active: 0,
            wait_hist: Histogram::new(),
        };
        assert!((u.utilization(SimDuration::from_secs(4)) - 0.25).abs() < 1e-12);
        assert_eq!(u.utilization(SimDuration::ZERO), 0.0);
    }
}
