//! Communicators: tagged point-to-point messaging.
//!
//! Every rank owns one mailbox (an unbounded channel receiver). Messages
//! carry their source rank and a tag. Receives match `(src, tag)` with
//! out-of-order buffering; messages from the same source with the same
//! tag match in FIFO order, like MPI.

use crossbeam::channel::{Receiver, Sender};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// A message in flight.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: u64,
    pub data: Vec<u8>,
}

/// The per-thread mailbox: the channel endpoint plus unmatched messages.
#[derive(Debug)]
pub(crate) struct Mailbox {
    pub receiver: Receiver<Envelope>,
    pub pending: RefCell<VecDeque<Envelope>>,
}

/// A communicator handle: this rank's view of the job's ranks.
///
/// Cheap to clone; clones share the mailbox. Not `Send` — a `Comm` lives
/// on the thread that owns the rank (as an `MPI_Comm` does in
/// `MPI_THREAD_FUNNELED`).
#[derive(Debug, Clone)]
pub struct Comm {
    rank: usize,
    /// Rank → that rank's mailbox sender.
    senders: Arc<Vec<Sender<Envelope>>>,
    mailbox: Rc<Mailbox>,
}

impl Comm {
    pub(crate) fn world(
        rank: usize,
        senders: Arc<Vec<Sender<Envelope>>>,
        receiver: Receiver<Envelope>,
    ) -> Self {
        Comm {
            rank,
            senders,
            mailbox: Rc::new(Mailbox {
                receiver,
                pending: RefCell::new(VecDeque::new()),
            }),
        }
    }

    /// This rank's number within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Send `data` to rank `dst` with `tag`. Asynchronous and unbounded,
    /// like an `MPI_Isend` that always buffers.
    pub fn send(&self, dst: usize, tag: u64, data: Vec<u8>) {
        let env = Envelope {
            src: self.rank,
            tag,
            data,
        };
        self.senders[dst]
            .send(env)
            .expect("peer mailbox closed: a rank panicked");
    }

    /// Block until a message from rank `src` with `tag` arrives; returns
    /// its payload.
    ///
    /// # Panics
    /// Panics if any rank panics before the message arrives: the job is
    /// lost, and waiting on would hang it.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<u8> {
        // First scan messages that arrived earlier but did not match then.
        {
            let mut pending = self.mailbox.pending.borrow_mut();
            if let Some(pos) = pending.iter().position(|e| e.src == src && e.tag == tag) {
                return pending.remove(pos).expect("position valid").data;
            }
        }
        loop {
            let env = self
                .mailbox
                .receiver
                .recv()
                .expect("every rank holds every sender");
            if env.tag == TAG_DIED {
                panic!(
                    "rank {} panicked while rank {} waited in recv",
                    env.src, self.rank
                );
            }
            if env.src == src && env.tag == tag {
                return env.data;
            }
            self.mailbox.pending.borrow_mut().push_back(env);
        }
    }
}

/// Internal tag space, above anything user code should use.
pub(crate) const TAG_INTERNAL: u64 = 1 << 48;
/// The notice a panicking rank leaves in every mailbox.
pub(crate) const TAG_DIED: u64 = TAG_INTERNAL + 1;

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
    fn single_rank_world() {
        let out = run(1, |comm| {
            assert_eq!(comm.size(), 1);
            assert_eq!(comm.rank(), 0);
            42u8
        });
        assert_eq!(out, vec![42]);
    }
}
