//! Collective operations over [`Comm`].
//!
//! Linear (root-relayed) reference implementations: simple, deterministic
//! and obviously correct, which is what the correctness executors need.
//! They are the two collectives two-phase I/O uses around its data
//! shuffle: an `allgather` of request descriptions and a `barrier`
//! between rounds.

use crate::comm::{Comm, TAG_INTERNAL};

const TAG_BARRIER: u64 = TAG_INTERNAL + 16;
const TAG_GATHER: u64 = TAG_INTERNAL + 18;

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
        let n = self.size();
        for dst in (0..n).filter(|&dst| dst != self.rank()) {
            self.send(dst, TAG_GATHER, data.clone());
        }
        let mut out = Vec::with_capacity(n);
        for src in 0..n {
            if src == self.rank() {
                out.push(data.clone());
            } else {
                out.push(self.recv(src, TAG_GATHER));
            }
        }
        out
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
}
