//! A sparse in-memory byte store standing in for a PFS file.
//!
//! Used by the functional executors to verify byte-level correctness of
//! collective reads and writes. Storage is block-based (default 64 KiB
//! blocks) so a 3D-array test file with scattered writes costs memory
//! proportional to the bytes actually written, and holes read back as
//! zeros — like a freshly created sparse POSIX file.

use std::collections::HashMap;

const DEFAULT_BLOCK: usize = 64 * 1024;

/// A sparse, growable, byte-addressable in-memory file.
#[derive(Debug, Clone, Default)]
pub struct SparseFile {
    blocks: HashMap<u64, Box<[u8]>>,
    block_size: usize,
    len: u64,
}

impl SparseFile {
    /// An empty file with the default block size.
    pub fn new() -> Self {
        Self::with_block_size(DEFAULT_BLOCK)
    }

    /// An empty file with a custom block size (useful for tests).
    ///
    /// # Panics
    /// Panics if `block_size` is zero.
    pub fn with_block_size(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        SparseFile {
            blocks: HashMap::new(),
            block_size,
            len: 0,
        }
    }

    /// Logical file length: one past the highest byte ever written.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `data` at `offset`, extending the file as needed.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let bs = self.block_size as u64;
        let mut pos = offset;
        let mut remaining = data;
        while !remaining.is_empty() {
            let block_idx = pos / bs;
            let in_block = (pos % bs) as usize;
            let n = remaining.len().min(self.block_size - in_block);
            let block = self
                .blocks
                .entry(block_idx)
                .or_insert_with(|| vec![0u8; self.block_size].into_boxed_slice());
            block[in_block..in_block + n].copy_from_slice(&remaining[..n]);
            remaining = &remaining[n..];
            pos += n as u64;
        }
        self.len = self.len.max(offset + data.len() as u64);
    }

    /// Read `buf.len()` bytes at `offset` into `buf`. Holes and reads past
    /// the end yield zeros (sparse-file semantics).
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let bs = self.block_size as u64;
        let mut pos = offset;
        let mut filled = 0usize;
        while filled < buf.len() {
            let block_idx = pos / bs;
            let in_block = (pos % bs) as usize;
            let n = (buf.len() - filled).min(self.block_size - in_block);
            match self.blocks.get(&block_idx) {
                Some(block) => {
                    buf[filled..filled + n].copy_from_slice(&block[in_block..in_block + n])
                }
                None => buf[filled..filled + n].fill(0),
            }
            filled += n;
            pos += n as u64;
        }
    }

    /// Convenience: read `len` bytes at `offset` into a fresh vector.
    pub fn read_vec(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read_at(offset, &mut v);
        v
    }
}

/// The deterministic test pattern for absolute file position `pos`.
///
/// Mixes the position so adjacent bytes differ and identical low bits at
/// different megabyte offsets do not alias.
pub fn pattern_byte(pos: u64) -> u8 {
    let x = pos.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x >> 32) as u8 ^ (pos as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let mut f = SparseFile::with_block_size(16);
        let data: Vec<u8> = (0..100u8).collect();
        f.write_at(5, &data);
        assert_eq!(f.len(), 105);
        assert_eq!(f.read_vec(5, 100), data);
    }

    #[test]
    fn holes_read_zero() {
        let mut f = SparseFile::with_block_size(16);
        f.write_at(100, b"xyz");
        let v = f.read_vec(0, 10);
        assert_eq!(v, vec![0u8; 10]);
        // Straddling the hole boundary.
        let v = f.read_vec(98, 5);
        assert_eq!(v, vec![0, 0, b'x', b'y', b'z']);
    }

    #[test]
    fn read_past_end_is_zero() {
        let mut f = SparseFile::new();
        f.write_at(0, b"ab");
        assert_eq!(f.read_vec(1, 4), vec![b'b', 0, 0, 0]);
    }

    #[test]
    fn overwrites_latest_wins() {
        let mut f = SparseFile::with_block_size(8);
        f.write_at(0, &[1u8; 20]);
        f.write_at(5, &[2u8; 10]);
        let v = f.read_vec(0, 20);
        assert_eq!(&v[..5], &[1u8; 5]);
        assert_eq!(&v[5..15], &[2u8; 10]);
        assert_eq!(&v[15..], &[1u8; 5]);
    }

    #[test]
    fn sparse_allocation() {
        let mut f = SparseFile::with_block_size(1024);
        f.write_at(0, b"a");
        f.write_at(1024 * 1024, b"b");
        assert_eq!(f.blocks.len(), 2);
        assert_eq!(f.len(), 1024 * 1024 + 1);
    }

    #[test]
    fn empty_ops_are_noops() {
        let mut f = SparseFile::new();
        f.write_at(50, &[]);
        assert!(f.is_empty());
        let mut buf = [];
        f.read_at(10, &mut buf);
    }

    #[test]
    fn pattern_bytes_vary() {
        // Not constant over a small window (sanity of the mixer).
        let distinct: std::collections::HashSet<u8> = (0..64).map(pattern_byte).collect();
        assert!(distinct.len() > 16);
    }

    #[test]
    fn cross_block_write() {
        let mut f = SparseFile::with_block_size(4);
        let data: Vec<u8> = (1..=10).collect();
        f.write_at(2, &data);
        assert_eq!(f.read_vec(2, 10), data);
        assert_eq!(f.blocks.len(), 3);
    }
}
