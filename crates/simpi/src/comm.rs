//! Communicators: tagged point-to-point messaging and communicator split.
//!
//! Every rank owns one mailbox (an unbounded channel receiver). Messages
//! carry a *context id* so split sub-communicators never cross-match with
//! their parent, a source rank and a tag. Receives match `(ctx, src, tag)`
//! with out-of-order buffering; messages from the same source with the
//! same signature match in FIFO order, like MPI.

use crossbeam::channel::{Receiver, Sender};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// A message in flight.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub ctx: u64,
    pub src_global: usize,
    pub tag: u64,
    pub data: Vec<u8>,
}

/// The per-thread mailbox: the channel endpoint plus unmatched messages.
#[derive(Debug)]
pub(crate) struct Mailbox {
    pub receiver: Receiver<Envelope>,
    pub pending: RefCell<VecDeque<Envelope>>,
}

/// A communicator handle: this rank's view of a group of ranks.
///
/// Cheap to clone; clones share the mailbox. Not `Send` — a `Comm` lives
/// on the thread that owns the rank (as an `MPI_Comm` does in
/// `MPI_THREAD_FUNNELED`).
#[derive(Debug, Clone)]
pub struct Comm {
    ctx: u64,
    rank: usize,
    /// Local rank → global rank.
    members: Arc<Vec<usize>>,
    /// Global rank → that rank's mailbox sender.
    senders: Arc<Vec<Sender<Envelope>>>,
    mailbox: Rc<Mailbox>,
    /// Per-comm split counter, advanced identically on every member
    /// because `split` is collective.
    split_seq: Rc<Cell<u64>>,
}

impl Comm {
    pub(crate) fn world(
        rank: usize,
        senders: Arc<Vec<Sender<Envelope>>>,
        receiver: Receiver<Envelope>,
    ) -> Self {
        let n = senders.len();
        Comm {
            ctx: 0,
            rank,
            members: Arc::new((0..n).collect()),
            senders,
            mailbox: Rc::new(Mailbox {
                receiver,
                pending: RefCell::new(VecDeque::new()),
            }),
            split_seq: Rc::new(Cell::new(0)),
        }
    }

    /// This rank's number within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Send `data` to local rank `dst` with `tag`. Asynchronous and
    /// unbounded, like an `MPI_Isend` that always buffers.
    pub fn send(&self, dst: usize, tag: u64, data: Vec<u8>) {
        let env = Envelope {
            ctx: self.ctx,
            src_global: self.members[self.rank],
            tag,
            data,
        };
        self.senders[self.members[dst]]
            .send(env)
            .expect("peer mailbox closed: a rank panicked");
    }

    /// Block until a message from local rank `src` with `tag` arrives;
    /// returns its payload.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<u8> {
        let want_src = self.members[src];
        // First scan messages that arrived earlier but did not match then.
        {
            let mut pending = self.mailbox.pending.borrow_mut();
            if let Some(pos) = pending
                .iter()
                .position(|e| e.ctx == self.ctx && e.src_global == want_src && e.tag == tag)
            {
                return pending.remove(pos).expect("position valid").data;
            }
        }
        loop {
            let env = self
                .mailbox
                .receiver
                .recv()
                .expect("all senders dropped while receiving: a rank exited early");
            if env.ctx == self.ctx && env.src_global == want_src && env.tag == tag {
                return env.data;
            }
            self.mailbox.pending.borrow_mut().push_back(env);
        }
    }

    /// Collectively split into sub-communicators: ranks passing the same
    /// `color` land in the same new communicator, ordered by `(key,
    /// old rank)`. Unlike MPI there is no "undefined" color — every rank
    /// gets a communicator (possibly of size 1).
    pub fn split(&self, color: u64, key: u64) -> Comm {
        // Agree on a fresh context id: same arithmetic on every member.
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        let base_ctx = mix(self.ctx, seq);
        // Exchange (color, key) so everyone can compute every grouping.
        let mine = [color.to_le_bytes(), key.to_le_bytes()].concat();
        let all = self.allgather_internal(mine, TAG_SPLIT);
        let mut group: Vec<(u64, usize)> = Vec::new(); // (key, old local rank)
        for (r, bytes) in all.iter().enumerate() {
            let c = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
            let k = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
            if c == color {
                group.push((k, r));
            }
        }
        group.sort_unstable();
        let members: Vec<usize> = group.iter().map(|&(_, r)| self.members[r]).collect();
        let new_rank = group
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("calling rank is in its own color group");
        Comm {
            ctx: mix(base_ctx, color),
            rank: new_rank,
            members: Arc::new(members),
            senders: Arc::clone(&self.senders),
            mailbox: Rc::clone(&self.mailbox),
            split_seq: Rc::new(Cell::new(0)),
        }
    }

    /// Linear allgather used internally (collectives.rs re-exposes a
    /// public one built on the same primitive).
    pub(crate) fn allgather_internal(&self, data: Vec<u8>, tag: u64) -> Vec<Vec<u8>> {
        let n = self.size();
        for dst in 0..n {
            if dst != self.rank {
                self.send(dst, tag, data.clone());
            }
        }
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(n);
        for src in 0..n {
            if src == self.rank {
                out.push(data.clone());
            } else {
                out.push(self.recv(src, tag));
            }
        }
        out
    }
}

/// Internal tag space, above anything user code should use.
pub(crate) const TAG_INTERNAL: u64 = 1 << 48;
const TAG_SPLIT: u64 = TAG_INTERNAL + 1;

/// A small 64-bit mixer (splitmix64 finalizer) for deriving context ids.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
impl Comm {
    /// Test helper so the parity test compiles without pulling in
    /// collectives (which live in a sibling module).
    pub(crate) fn barrier_noop(&self) {}
}

#[cfg(test)]
mod tests {
    use crate::runtime::run;

    #[test]
    fn send_recv_basic() {
        run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1, 2, 3]);
            } else {
                assert_eq!(comm.recv(0, 7), vec![1, 2, 3]);
            }
        });
    }

    #[test]
    fn out_of_order_tags_buffer() {
        run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1]);
                comm.send(1, 2, vec![2]);
            } else {
                // Receive in reverse tag order.
                assert_eq!(comm.recv(0, 2), vec![2]);
                assert_eq!(comm.recv(0, 1), vec![1]);
            }
        });
    }

    #[test]
    fn same_tag_fifo_order() {
        run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![b'a']);
                comm.send(1, 5, vec![b'b']);
            } else {
                assert_eq!(comm.recv(0, 5), vec![b'a']);
                assert_eq!(comm.recv(0, 5), vec![b'b']);
            }
        });
    }

    #[test]
    fn sendrecv_ring_does_not_deadlock() {
        let n = 5;
        run(n, move |comm| {
            let next = (comm.rank() + 1) % n;
            let prev = (comm.rank() + n - 1) % n;
            comm.send(next, 9, vec![comm.rank() as u8]);
            let got = comm.recv(prev, 9);
            assert_eq!(got, vec![prev as u8]);
        });
    }

    #[test]
    fn split_by_parity() {
        run(6, |comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = comm.split(color, comm.rank() as u64);
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), comm.rank() / 2);
            // Global ranks preserved through the split.
            assert_eq!(sub.members[sub.rank()], comm.rank());
            // Messaging within the sub-communicator works and does not
            // leak into the parent.
            if sub.rank() == 0 {
                for dst in 1..sub.size() {
                    comm.barrier_noop(); // no-op placeholder; see below
                    sub.send(dst, 3, vec![color as u8]);
                }
            } else {
                assert_eq!(sub.recv(0, 3), vec![color as u8]);
            }
        });
    }

    #[test]
    fn split_key_reorders() {
        run(4, |comm| {
            // Reverse order via descending keys.
            let sub = comm.split(0, (100 - comm.rank()) as u64);
            assert_eq!(sub.size(), 4);
            assert_eq!(sub.rank(), 3 - comm.rank());
        });
    }

    #[test]
    fn nested_split() {
        run(8, |comm| {
            let half = comm.split((comm.rank() / 4) as u64, 0);
            assert_eq!(half.size(), 4);
            let quarter = half.split((half.rank() / 2) as u64, 0);
            assert_eq!(quarter.size(), 2);
            // Exchange inside the quarter.
            let peer = 1 - quarter.rank();
            quarter.send(peer, 11, vec![comm.rank() as u8]);
            let got = quarter.recv(peer, 11);
            // Peer is the adjacent world rank.
            let expect = if comm.rank() % 2 == 0 {
                comm.rank() + 1
            } else {
                comm.rank() - 1
            };
            assert_eq!(got, vec![expect as u8]);
        });
    }

    #[test]
    fn single_rank_world() {
        let out = run(1, |comm| {
            assert_eq!(comm.size(), 1);
            assert_eq!(comm.rank(), 0);
            let sub = comm.split(0, 0);
            assert_eq!(sub.size(), 1);
            42u8
        });
        assert_eq!(out, vec![42]);
    }
}
