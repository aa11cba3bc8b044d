//! The event queue: pending events in `(time, sequence)` order, with each
//! instant keyed once in a heap and the events due at it kept as a
//! first-in-first-out run (DESIGN.md §10, "The instant-keyed queue").
//!
//! A simulation's events fall on few instants when its work is regular:
//! equal transfers on equal links finish together. A binary heap pays a
//! logarithmic sift per event all the same. Here the heap holds one key
//! per instant instead, and the events due at an instant queue behind
//! it in push order; an instant with a single event keeps it inline in
//! its key, so a run with no ties costs what a plain heap does.
//!
//! The order is the heap's. Keys `(time, sequence)` are unique, so any
//! correct queue pops the same sequence. Every push takes the next
//! sequence number, so each joins the end of its instant's run. A run's
//! seeds are pushed before its first event, in activity-id order, so
//! they take the lowest numbers and pop in id order ahead of the events
//! scheduled while running at their instant.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// What the queue orders: an opaque pair, the engine's event slot and
/// its generation.
pub(crate) type Item = (u32, u32);

/// `Key::slot` of a key that heads a run: its `gen` is the run's index.
const RUN: u32 = u32::MAX;

/// One heap key, 24 bytes: `(time, sequence, slot, generation)`. The
/// sequence is that of the key's first event, unique, so `(time,
/// sequence)` orders keys totally and the rest is never compared.
type Key = (SimTime, u64, u32, u32);

/// Slots of the instant cache, a power of two.
const CACHE: usize = 64;

/// Pending events in `(time, sequence)` order.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue {
    /// The instant the last pop was at (or zero before any).
    now: SimTime,
    /// One key per lone event or run, for instants after `now`.
    heap: BinaryHeap<Reverse<Key>>,
    /// The events due at `now` that have not popped, in order.
    lane: VecDeque<Item>,
    /// Runs of events due at one later instant each, in order; pooled.
    runs: Vec<VecDeque<Item>>,
    free_runs: Vec<u32>,
    /// Where the latest key of an instant is, by instant hash:
    /// `(instant, run index)` or `(instant, RUN)` for a lone event. An
    /// entry for an instant after `now` is live — nothing there has
    /// popped — and any other is stale.
    cache: [(SimTime, u32); CACHE],
    /// Counter of pushes: the next sequence number.
    next_seq: u64,
    /// Pending events, cancelled ones included.
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            runs: Vec::new(),
            free_runs: Vec::new(),
            // An instant of zero is never after `now`: never live.
            cache: [(SimTime::ZERO, RUN); CACHE],
            next_seq: 0,
            len: 0,
        }
    }
}

impl EventQueue {
    /// The instant the last pop was at.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Pending events, cancelled ones included.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queue `item` at `t` behind everything pushed at `t` so far.
    pub(crate) fn push(&mut self, t: SimTime, item: Item) {
        debug_assert!(t >= self.now, "an event scheduled in the past");
        self.len += 1;
        if t == self.now {
            self.lane.push_back(item);
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = &mut self.cache[cache_slot(t)];
        if slot.0 != t {
            // Not known to be pending yet: a lone event, inline.
            *slot = (t, RUN);
            self.heap.push(Reverse((t, seq, item.0, item.1)));
        } else if slot.1 != RUN {
            self.runs[slot.1 as usize].push_back(item);
        } else {
            // The instant's latest key is a lone event: open a run behind
            // it, keyed by this event's (greater) sequence number.
            let run = match self.free_runs.pop() {
                Some(run) => run,
                None => {
                    self.runs.push(VecDeque::new());
                    u32::try_from(self.runs.len() - 1).expect("fewer than u32::MAX runs")
                }
            };
            self.runs[run as usize].push_back(item);
            slot.1 = run;
            self.heap.push(Reverse((t, seq, RUN, run)));
        }
    }

    /// The next event, the clock moved to its instant; `None` when
    /// nothing is pending. Reaching an instant moves every key of it into
    /// the lane, in key order.
    pub(crate) fn pop(&mut self) -> Option<Item> {
        if let Some(item) = self.lane.pop_front() {
            self.len -= 1;
            return Some(item);
        }
        let Reverse(key) = self.heap.pop()?;
        debug_assert!(key.0 > self.now, "a key at or before the clock");
        self.now = key.0;
        self.len -= 1;
        let first = self.take(key);
        while let Some(&Reverse(next)) = self.heap.peek().filter(|Reverse(k)| k.0 == self.now) {
            self.heap.pop();
            if let Some(item) = self.take(next) {
                self.lane.push_back(item);
            }
        }
        first.or_else(|| self.lane.pop_front())
    }

    /// A key reached at `now`: its lone event, or `None` with its run
    /// appended to the lane.
    fn take(&mut self, (_, _, slot, gen): Key) -> Option<Item> {
        if slot != RUN {
            return Some((slot, gen));
        }
        let run = &mut self.runs[gen as usize];
        if self.lane.len() < run.len() {
            // Keep the larger deque: the lane's few go in front of it.
            for &item in self.lane.iter().rev() {
                run.push_front(item);
            }
            self.lane.clear();
            std::mem::swap(&mut self.lane, run);
        } else {
            self.lane.extend(run.drain(..));
        }
        self.free_runs.push(gen);
        None
    }
}

/// The cache slot of instant `t`.
fn cache_slot(t: SimTime) -> usize {
    let h = t.as_nanos().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (64 - CACHE.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// What a harness step does to the queue and its model. Delays are
    /// drawn raw and taken modulo the case's spread.
    #[derive(Debug, Clone)]
    enum Op {
        /// A push, `delay` after the clock.
        Push(u64),
        /// One pop.
        Pop,
        /// Cancel the `n`-th pending live event (modulo their count).
        Cancel(usize),
    }

    /// Draw an op: `kind` picks it, pushes and pops most often.
    fn op((kind, n): (u8, u64)) -> Op {
        match kind {
            0..=5 => Op::Push(n),
            6..=9 => Op::Pop,
            _ => Op::Cancel(n as usize),
        }
    }

    /// The queue, the reference heap it must match and the engine-like
    /// slot pool both are fed from: a cancelled event's slot is recycled
    /// at once with a new generation, and a popped stale entry is
    /// skipped.
    #[derive(Default)]
    struct Harness {
        /// Instants are at most this far apart: a spread of a few ties
        /// nearly every event, a wide one almost none.
        spread: u64,
        queue: EventQueue,
        model: BinaryHeap<Reverse<(SimTime, u64, u32, u32)>>,
        model_now: SimTime,
        next_seq: u64,
        gens: Vec<u32>,
        free: Vec<u32>,
        live: Vec<Item>,
    }

    impl Harness {
        fn push(&mut self, t: SimTime) {
            let item = match self.free.pop() {
                Some(s) => (s, self.gens[s as usize]),
                None => {
                    self.gens.push(0);
                    (self.gens.len() as u32 - 1, 0)
                }
            };
            self.live.push(item);
            self.queue.push(t, item);
            self.model.push(Reverse((t, self.next_seq, item.0, item.1)));
            self.next_seq += 1;
        }

        fn cancel(&mut self, n: usize) {
            if self.live.is_empty() {
                return;
            }
            let (slot, gen) = self.live.swap_remove(n % self.live.len());
            self.gens[slot as usize] = gen + 1;
            self.free.push(slot);
        }

        /// Pop from both; false when neither has anything pending.
        fn pop(&mut self) -> Result<bool, TestCaseError> {
            let expected = self.model.pop().map(|Reverse(k)| k);
            prop_assert_eq!(self.queue.pop(), expected.map(|k| (k.2, k.3)));
            let Some((t, _, slot, gen)) = expected else {
                return Ok(false);
            };
            prop_assert!(t >= self.model_now);
            self.model_now = t;
            prop_assert_eq!(self.queue.now(), t);
            prop_assert_eq!(self.queue.len(), self.model.len(), "pending depth");
            if self.gens[slot as usize] == gen {
                // Live: it fires, and its slot goes back to the pool.
                self.live.retain(|&i| i != (slot, gen));
                self.gens[slot as usize] = gen + 1;
                self.free.push(slot);
            }
            Ok(true)
        }

        fn run(mut self, ops: &[Op]) -> Result<(), TestCaseError> {
            for op in ops {
                match op {
                    Op::Push(delay) => {
                        let t = self.queue.now().as_nanos() + delay % self.spread;
                        self.push(SimTime::from_nanos(t));
                    }
                    Op::Pop => drop(self.pop()?),
                    Op::Cancel(n) => self.cancel(*n),
                }
            }
            while self.pop()? {}
            prop_assert_eq!(self.queue.len(), 0);
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pops_in_reference_heap_order(
            tied in any::<bool>(),
            start in prop::collection::vec(0..4u64, 0..8),
            ops in prop::collection::vec((0..11u8, any::<u64>()).prop_map(op), 0..160),
        ) {
            let spread = if tied { 4 } else { 1 << 40 };
            let mut h = Harness {
                spread,
                ..Harness::default()
            };
            // The seeds of a run's start, the first at the clock.
            for offset in start {
                h.push(SimTime::from_nanos(offset));
            }
            h.run(&ops)?;
        }
    }

    #[test]
    fn an_instant_with_ties_is_keyed_at_most_twice() {
        let mut q = EventQueue::default();
        for i in 0..1000u32 {
            q.push(SimTime::from_nanos(10 + u64::from(i % 3)), (i, 0));
        }
        // Per instant: the lone first event inline, then one run.
        assert_eq!((q.heap.len(), q.len()), (6, 1000));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|i| i.0).collect();
        let expected: Vec<u32> = (0..3).flat_map(|r| (r..1000).step_by(3)).collect();
        assert_eq!(order, expected);
    }
}
