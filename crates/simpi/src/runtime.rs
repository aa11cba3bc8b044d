//! Spawning a parallel "job": one OS thread per rank.
//!
//! [`run`] is the whole API: give it a rank count and a closure; every
//! rank executes the closure with its own [`Comm`] world handle, and the
//! per-rank return values come back in rank order. A panic on any rank
//! propagates to the caller: the panicking rank leaves a notice in every
//! mailbox, so a peer blocked in [`Comm::recv`] panics too instead of
//! waiting forever, and tests fail loudly rather than hanging.

use crate::comm::{Comm, Envelope, TAG_DIED};
use crossbeam::channel::{unbounded, Sender};
use std::sync::Arc;

/// Run `f` on `nranks` ranks; collect the per-rank results in rank order.
///
/// # Panics
/// Panics if `nranks == 0` or if any rank panics.
pub fn run<T, F>(nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    assert!(nranks > 0, "a job needs at least one rank");
    let mut senders = Vec::with_capacity(nranks);
    let mut receivers = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let (tx, rx) = unbounded::<Envelope>();
        senders.push(tx);
        receivers.push(rx);
    }
    let senders = Arc::new(senders);
    let f = &f;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for (rank, rx) in receivers.into_iter().enumerate() {
            let senders = Arc::clone(&senders);
            handles.push(scope.spawn(move || {
                let _notice = Obituary {
                    rank,
                    senders: Arc::clone(&senders),
                };
                f(Comm::world(rank, senders, rx))
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(v) => v,
                Err(e) => std::panic::panic_any(PanicOnRank { rank, payload: e }),
            })
            .collect()
    })
}

/// Dropped as its rank's thread ends; if the thread is unwinding, tells
/// every mailbox that the rank died.
struct Obituary {
    rank: usize,
    senders: Arc<Vec<Sender<Envelope>>>,
}

impl Drop for Obituary {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for tx in self.senders.iter() {
                // A peer that already returned has dropped its mailbox.
                let _ = tx.send(Envelope {
                    src: self.rank,
                    tag: TAG_DIED,
                    data: Vec::new(),
                });
            }
        }
    }
}

/// Wrapper preserving which rank panicked.
struct PanicOnRank {
    rank: usize,
    #[allow(dead_code)]
    payload: Box<dyn std::any::Any + Send>,
}

impl std::fmt::Debug for PanicOnRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked", self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rank_order() {
        let out = run(8, |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn ranks_see_correct_world() {
        run(3, |comm| {
            assert_eq!(comm.size(), 3);
            assert!(comm.rank() < 3);
        });
    }

    #[test]
    #[should_panic]
    fn zero_ranks_panics() {
        run(0, |_c| ());
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        // Rank 1 panics; others return. The runtime must propagate.
        run(3, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic]
    fn rank_panic_wakes_a_blocked_receiver() {
        // Rank 0 waits for a message rank 1 never sends.
        run(2, |comm| {
            if comm.rank() == 0 {
                comm.recv(1, 0);
            } else {
                panic!("boom");
            }
        });
    }
}
