//! Collective operations over [`Comm`].
//!
//! Linear (root-relayed) reference implementations: simple, deterministic
//! and obviously correct, which is what the correctness executors need.
//! They mirror the collectives two-phase I/O actually uses: an
//! `allgather` of request descriptions, `alltoallv` data shuffles, a
//! `barrier` between rounds, and small reductions for agreement.

use crate::comm::{Comm, TAG_INTERNAL};

const TAG_BARRIER: u64 = TAG_INTERNAL + 16;
const TAG_GATHER: u64 = TAG_INTERNAL + 18;
const TAG_ALLTOALL: u64 = TAG_INTERNAL + 19;
const TAG_SCATTER: u64 = TAG_INTERNAL + 21;
impl Comm {
    /// Block until every rank of the communicator has entered.
    pub fn barrier(&self) {
        if self.size() == 1 {
            return;
        }
        if self.rank() == 0 {
            for src in 1..self.size() {
                let _ = self.recv(src, TAG_BARRIER);
            }
            for dst in 1..self.size() {
                self.send(dst, TAG_BARRIER, Vec::new());
            }
        } else {
            self.send(0, TAG_BARRIER, Vec::new());
            let _ = self.recv(0, TAG_BARRIER);
        }
    }

    /// Every rank gets every rank's `data`, in rank order.
    pub fn allgather(&self, data: Vec<u8>) -> Vec<Vec<u8>> {
        self.allgather_internal(data, TAG_GATHER)
    }

    /// Personalized all-to-all: `outgoing[d]` goes to rank `d`; returns
    /// `incoming[s]` from each rank `s`. Variable lengths supported
    /// (alltoallv); empty vectors are delivered as empty vectors.
    ///
    /// # Panics
    /// Panics if `outgoing.len() != self.size()`.
    pub fn alltoallv(&self, outgoing: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(
            outgoing.len(),
            self.size(),
            "alltoallv needs one buffer per destination"
        );
        let mut incoming = vec![Vec::new(); self.size()];
        for (dst, data) in outgoing.into_iter().enumerate() {
            if dst == self.rank() {
                incoming[dst] = data;
            } else {
                self.send(dst, TAG_ALLTOALL, data);
            }
        }
        let me = self.rank();
        for (src, slot) in incoming.iter_mut().enumerate() {
            if src != me {
                *slot = self.recv(src, TAG_ALLTOALL);
            }
        }
        incoming
    }

    /// Personalized scatter from `root`: `outgoing[d]` (significant only
    /// at the root) goes to rank `d`; every rank returns its piece.
    /// Variable lengths supported (scatterv).
    ///
    /// # Panics
    /// Panics at the root if `outgoing.len() != self.size()`.
    pub fn scatterv(&self, root: usize, outgoing: Vec<Vec<u8>>) -> Vec<u8> {
        if self.rank() == root {
            assert_eq!(
                outgoing.len(),
                self.size(),
                "scatterv needs one buffer per destination"
            );
            let mut mine = Vec::new();
            for (dst, data) in outgoing.into_iter().enumerate() {
                if dst == root {
                    mine = data;
                } else {
                    self.send(dst, TAG_SCATTER, data);
                }
            }
            mine
        } else {
            self.recv(root, TAG_SCATTER)
        }
    }

    /// Sum-reduce a `u64` across all ranks; everyone gets the total.
    pub fn allreduce_sum_u64(&self, value: u64) -> u64 {
        self.allreduce_u64(value, |a, b| a.wrapping_add(b))
    }

    /// Generic commutative-associative `u64` allreduce.
    pub fn allreduce_u64(&self, value: u64, op: impl Fn(u64, u64) -> u64) -> u64 {
        self.allgather_internal(value.to_le_bytes().to_vec(), TAG_GATHER)
            .into_iter()
            .map(|b| u64::from_le_bytes(b.try_into().expect("u64 payload")))
            .fold(None::<u64>, |acc, x| {
                Some(match acc {
                    None => x,
                    Some(a) => op(a, x),
                })
            })
            .expect("communicator is non-empty")
    }
}

/// Encode a `u64` slice little-endian (helper for exchanging request
/// descriptions).
pub fn encode_u64s(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a little-endian `u64` buffer.
///
/// # Panics
/// Panics if the length is not a multiple of 8.
pub fn decode_u64s(bytes: &[u8]) -> Vec<u64> {
    assert_eq!(
        bytes.len() % 8,
        0,
        "u64 buffer length must be multiple of 8"
    );
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn barrier_synchronizes() {
        static ENTERED: AtomicUsize = AtomicUsize::new(0);
        run(4, |comm| {
            ENTERED.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier everyone must have entered.
            assert_eq!(ENTERED.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn allgather_all_see_all() {
        run(5, |comm| {
            let all = comm.allgather(vec![comm.rank() as u8]);
            let flat: Vec<u8> = all.into_iter().flatten().collect();
            assert_eq!(flat, vec![0, 1, 2, 3, 4]);
        });
    }

    #[test]
    fn alltoallv_exchanges() {
        run(4, |comm| {
            // Send dst copies of my rank to dst.
            let outgoing: Vec<Vec<u8>> = (0..4).map(|d| vec![comm.rank() as u8; d]).collect();
            let incoming = comm.alltoallv(outgoing);
            for (src, v) in incoming.iter().enumerate() {
                assert_eq!(v, &vec![src as u8; comm.rank()]);
            }
        });
    }

    #[test]
    fn reductions() {
        run(6, |comm| {
            let r = comm.rank() as u64;
            assert_eq!(comm.allreduce_sum_u64(r), 15);
            assert_eq!(comm.allreduce_u64(r, u64::max), 5);
            assert_eq!(comm.allreduce_u64(10 + r, u64::min), 10);
        });
    }

    #[test]
    fn collectives_in_split_comms() {
        run(6, |comm| {
            let sub = comm.split((comm.rank() % 2) as u64, 0);
            let sum = sub.allreduce_sum_u64(comm.rank() as u64);
            // Evens: 0+2+4 = 6; odds: 1+3+5 = 9.
            assert_eq!(sum, if comm.rank() % 2 == 0 { 6 } else { 9 });
            sub.barrier();
            comm.barrier();
        });
    }

    #[test]
    fn scatterv_distributes_pieces() {
        run(4, |comm| {
            let outgoing = if comm.rank() == 1 {
                (0..4).map(|d| vec![d as u8; d + 1]).collect()
            } else {
                Vec::new()
            };
            let mine = comm.scatterv(1, outgoing);
            assert_eq!(mine, vec![comm.rank() as u8; comm.rank() + 1]);
        });
    }

    #[test]
    fn u64_codec_round_trip() {
        let v = vec![0u64, 1, u64::MAX, 42];
        assert_eq!(decode_u64s(&encode_u64s(&v)), v);
        assert!(decode_u64s(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn decode_bad_length_panics() {
        decode_u64s(&[1, 2, 3]);
    }

    #[test]
    #[should_panic] // wrapped by the runtime as "rank N panicked"
    fn alltoallv_wrong_len_panics() {
        run(2, |comm| {
            comm.alltoallv(vec![Vec::new()]); // needs 2
        });
    }
}
