//! Collective requests: every rank's flattened offset/length list.
//!
//! The entry point of both planners. A [`RankRequest`] is one rank's
//! sorted, coalesced extent list (what ROMIO computes by flattening the
//! rank's datatype against its file view); a [`CollectiveRequest`] is the
//! whole job's view of one collective read or write call.
//!
//! A rank's list is a [`Run`], shared: the messages a plan cuts from it
//! are [`Extents`] views into the same allocation, not copies.

use mcio_cluster::Rank;
use mcio_pfs::extent::{
    bytes_in_sorted, coalesce, is_sorted_disjoint, overlap_range, total_bytes, touches_sorted,
    union_sorted,
};
use mcio_pfs::{Extent, Rw};
use mcio_simpi::FileView;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A rank's extent list, behind a reference count: cloning it, which
/// every [`Extents`] view does, copies no extent. Reads as a slice, and
/// carries its byte total, summed once when it is built.
///
/// A run of more than 64 extents also carries a table of byte sums, one
/// per block of 64 extents, filled in the same pass: the bytes of any
/// range of it cost at most a block of extents at either end, not the
/// range. The table is 8 bytes per 64 extents of 16 bytes, 1/128 of the
/// run; a shorter run has none and allocates nothing more.
#[derive(Clone, PartialEq, Eq)]
pub struct Run {
    extents: Arc<[Extent]>,
    size: Size,
}

/// What a [`Run`] knows of its bytes: the total, or the table whose
/// last entry is the total.
#[derive(Clone, PartialEq, Eq)]
enum Size {
    /// A run of at most [`BLOCK`] extents.
    Bytes(u64),
    /// `sums[k]` is the bytes of `extents[..k · BLOCK]`, the last entry
    /// the whole run's.
    Sums(Box<[u64]>),
}

/// Extents per entry of a [`Run`]'s byte-sum table.
const BLOCK: usize = 64;

impl Run {
    /// Bytes the run holds, in `O(1)`.
    pub fn bytes(&self) -> u64 {
        match &self.size {
            Size::Bytes(bytes) => *bytes,
            Size::Sums(sums) => sums[sums.len() - 1],
        }
    }

    /// Bytes `self[range]` holds: for a run with a table, the difference
    /// of two prefixes, each a table entry plus at most `BLOCK − 1`
    /// extents after it, whatever the range's length.
    pub(crate) fn bytes_of(&self, range: Range<usize>) -> u64 {
        match &self.size {
            Size::Bytes(_) => total_bytes(&self.extents[range]),
            Size::Sums(sums) => {
                let prefix =
                    |i: usize| sums[i / BLOCK] + total_bytes(&self.extents[i / BLOCK * BLOCK..i]);
                prefix(range.end) - prefix(range.start)
            }
        }
    }
}

impl Deref for Run {
    type Target = [Extent];

    fn deref(&self) -> &[Extent] {
        &self.extents
    }
}

impl From<Vec<Extent>> for Run {
    fn from(extents: Vec<Extent>) -> Self {
        let size = if extents.len() <= BLOCK {
            Size::Bytes(total_bytes(&extents))
        } else {
            let mut sums = Vec::with_capacity(extents.len().div_ceil(BLOCK) + 1);
            let mut bytes = 0;
            for block in extents.chunks(BLOCK) {
                sums.push(bytes);
                bytes += total_bytes(block);
            }
            sums.push(bytes);
            Size::Sums(sums.into_boxed_slice())
        };
        Run {
            extents: extents.into(),
            size,
        }
    }
}

impl<'a> IntoIterator for &'a Run {
    type Item = &'a Extent;
    type IntoIter = std::slice::Iter<'a, Extent>;

    fn into_iter(self) -> Self::IntoIter {
        self.extents.iter()
    }
}

impl PartialEq<Vec<Extent>> for Run {
    fn eq(&self, other: &Vec<Extent>) -> bool {
        *self.extents == **other
    }
}

impl fmt::Debug for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.extents.fmt(f)
    }
}

/// A sorted run cut to a window, without a copy: the extents of
/// `run[lo..hi]`, the first starting no earlier than `start`, the last
/// cut short so that they hold `bytes`. Only the first and the last can
/// be clipped (the window kernels' rule), so the window's end follows
/// from the bytes and is not stored.
///
/// Equality is by content: two views of different runs, or of one run
/// through different ranges, are equal when they iterate the same
/// extents.
#[derive(Clone)]
pub struct Extents {
    run: Arc<[Extent]>,
    lo: u32,
    hi: u32,
    start: u64,
    bytes: u64,
}

impl Extents {
    /// `run` clipped to `window` — [`mcio_pfs::extent::clip_sorted`]
    /// without the copy: two binary searches and one pass over the
    /// overlapping extents for the bytes. `None` when no byte of the run
    /// lies in the window, so that a window a rank does not touch costs
    /// no reference to its run.
    pub fn new(run: &Run, window: &Extent) -> Option<Self> {
        Extents::cut(&run.extents, 0..run.len(), window)
    }

    /// The view whose parts are already known: `range` indexes `run`,
    /// `start` is where its first extent is clipped to begin and `bytes`
    /// is what the clipped extents hold.
    pub(crate) fn from_parts(run: &Run, range: Range<usize>, start: u64, bytes: u64) -> Self {
        Extents::of(&run.extents, range, start, bytes)
    }

    fn of(run: &Arc<[Extent]>, range: Range<usize>, start: u64, bytes: u64) -> Self {
        let index = |i: usize| u32::try_from(i).expect("a run of at most 2^32 extents");
        Extents {
            run: run.clone(),
            lo: index(range.start),
            hi: index(range.end),
            start,
            bytes,
        }
    }

    /// The part of the view inside `window`, if it holds a byte.
    pub(crate) fn within(&self, window: &Extent) -> Option<Self> {
        let end = self.iter().last()?.end();
        let window = Extent::from_bounds(self.start, end).intersect(window)?;
        Extents::cut(&self.run, self.lo as usize..self.hi as usize, &window)
    }

    /// `run[part]` clipped to `window`.
    fn cut(run: &Arc<[Extent]>, part: Range<usize>, window: &Extent) -> Option<Self> {
        let extents = &run[part.clone()];
        let range = overlap_range(extents, window);
        let bytes = bytes_in_sorted(&extents[range.clone()], window);
        let range = part.start + range.start..part.start + range.end;
        (bytes > 0).then(|| Extents::of(run, range, window.offset, bytes))
    }

    /// Bytes the view holds, in `O(1)`.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// True when the view holds no byte.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// Number of extents the view iterates (zero-length ones of the run
    /// are skipped).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// The extents, clipped, in offset order.
    pub fn iter(&self) -> ExtentsIter<'_> {
        ExtentsIter {
            rest: self.run[self.lo as usize..self.hi as usize].iter(),
            start: self.start,
            left: self.bytes,
        }
    }
}

impl PartialEq for Extents {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes && self.iter().eq(other.iter())
    }
}

impl Eq for Extents {}

impl fmt::Debug for Extents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Extents {
    type Item = Extent;
    type IntoIter = ExtentsIter<'a>;

    fn into_iter(self) -> ExtentsIter<'a> {
        self.iter()
    }
}

/// The iterator of an [`Extents`] view.
pub struct ExtentsIter<'a> {
    rest: std::slice::Iter<'a, Extent>,
    start: u64,
    /// Bytes not yet handed out: the last extent is cut to them.
    left: u64,
}

impl Iterator for ExtentsIter<'_> {
    type Item = Extent;

    fn next(&mut self) -> Option<Extent> {
        while self.left > 0 {
            let e = self.rest.next()?;
            let offset = e.offset.max(self.start);
            let len = e.end().saturating_sub(offset).min(self.left);
            if len > 0 {
                self.left -= len;
                return Some(Extent::new(offset, len));
            }
        }
        None
    }
}

/// One rank's access list for a collective call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankRequest {
    /// The requesting rank.
    pub rank: Rank,
    /// Sorted, coalesced, non-overlapping extents.
    pub extents: Run,
}

impl RankRequest {
    /// Build from raw extents (they are sorted and coalesced here).
    pub fn new(rank: Rank, extents: Vec<Extent>) -> Self {
        RankRequest {
            rank,
            extents: coalesce(extents).into(),
        }
    }

    /// Build from a file view: the absolute extents of this rank's first
    /// `nbytes` of data.
    pub fn from_view(rank: Rank, view: &FileView, nbytes: u64) -> Self {
        let extents = view
            .first_segments(nbytes)
            .into_iter()
            .map(|s| Extent::new(s.offset, s.len))
            .collect();
        Self::new(rank, extents)
    }

    /// Bytes this rank requests, in `O(1)`.
    pub fn bytes(&self) -> u64 {
        self.extents.bytes()
    }

    /// True when the rank requests nothing.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// The rank's span: smallest extent covering everything (empty when
    /// the request is empty).
    pub fn span(&self) -> Extent {
        match (self.extents.first(), self.extents.last()) {
            (Some(first), Some(last)) => Extent::from_bounds(first.offset, last.end()),
            _ => Extent::EMPTY,
        }
    }

    /// True when the rank requests at least one byte inside `window`.
    /// `O(log n)`: the question placement and the rank filters ask,
    /// which needs no byte count.
    pub fn touches(&self, window: &Extent) -> bool {
        touches_sorted(&self.extents, window)
    }
}

/// A whole job's collective call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveRequest {
    /// Read or write.
    pub rw: Rw,
    /// Per-rank requests, indexed by rank (every rank present, possibly
    /// empty).
    pub ranks: Vec<RankRequest>,
}

impl CollectiveRequest {
    /// Build from per-rank extent lists (index = rank).
    pub fn new(rw: Rw, per_rank: Vec<Vec<Extent>>) -> Self {
        CollectiveRequest {
            rw,
            ranks: per_rank
                .into_iter()
                .enumerate()
                .map(|(r, ex)| RankRequest::new(Rank(r), ex))
                .collect(),
        }
    }

    /// Build from per-rank file views and byte counts.
    pub fn from_views(rw: Rw, views: &[(FileView, u64)]) -> Self {
        CollectiveRequest {
            rw,
            ranks: views
                .iter()
                .enumerate()
                .map(|(r, (v, n))| RankRequest::from_view(Rank(r), v, *n))
                .collect(),
        }
    }

    /// Number of ranks in the job.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Total bytes requested across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.ranks.iter().map(RankRequest::bytes).sum()
    }

    /// The aggregate access region: smallest extent covering every
    /// rank's request (ROMIO's `st_offset .. end_offset`).
    pub fn hull(&self) -> Extent {
        self.ranks
            .iter()
            .map(RankRequest::span)
            .fold(Extent::EMPTY, |acc, s| acc.hull(&s))
    }

    /// All extents of all ranks, coalesced: the exact requested file
    /// region (may have holes, unlike [`CollectiveRequest::hull`]).
    pub fn coverage(&self) -> Vec<Extent> {
        let runs: Vec<&[Extent]> = self.ranks.iter().map(|r| &r.extents[..]).collect();
        union_sorted(&runs)
    }

    /// True when every rank's list is sorted and disjoint — what
    /// [`RankRequest::new`] establishes and the planners' merges and
    /// binary searches rely on. `extents` is a public field, so a list
    /// built literally can break it.
    pub fn is_sorted_disjoint(&self) -> bool {
        self.ranks.iter().all(|r| is_sorted_disjoint(&r.extents))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcio_simpi::Datatype;

    #[test]
    fn rank_request_coalesces() {
        let r = RankRequest::new(
            Rank(0),
            vec![Extent::new(10, 5), Extent::new(0, 10), Extent::new(30, 5)],
        );
        assert_eq!(r.extents, vec![Extent::new(0, 15), Extent::new(30, 5)]);
        assert_eq!(r.bytes(), 20);
        assert_eq!(r.span(), Extent::new(0, 35));
    }

    #[test]
    fn empty_rank_request() {
        let r = RankRequest::new(Rank(1), vec![]);
        assert!(r.is_empty());
        assert_eq!(r.bytes(), 0);
        assert_eq!(r.span(), Extent::EMPTY);
        assert_eq!(bytes_in_sorted(&r.extents, &Extent::new(0, 100)), 0);
    }

    #[test]
    fn windowed_queries() {
        let r = RankRequest::new(Rank(0), vec![Extent::new(0, 10), Extent::new(20, 10)]);
        let w = Extent::new(5, 20);
        assert_eq!(bytes_in_sorted(&r.extents, &w), 10);
    }

    /// Every window over a small file, which takes in the empty window,
    /// the window inside one extent, the one ending exactly on an extent
    /// boundary and the ones past either end: the sliced queries equal
    /// their scan-everything definitions.
    #[test]
    fn windowed_queries_match_a_full_scan() {
        let r = RankRequest::new(
            Rank(0),
            vec![
                Extent::new(3, 4),
                Extent::new(10, 1),
                Extent::new(12, 8),
                Extent::new(30, 5),
            ],
        );
        for offset in 0..40 {
            for len in 0..40 {
                let w = Extent::new(offset, len);
                let scan: Vec<Extent> = r.extents.iter().filter_map(|e| e.intersect(&w)).collect();
                let bytes: u64 = scan.iter().map(|e| e.len).sum();
                assert_eq!(bytes_in_sorted(&r.extents, &w), bytes, "{w}");
                assert_eq!(r.touches(&w), bytes > 0, "{w}");
            }
        }
    }

    /// Every range of runs at and around the block length, with
    /// zero-length extents among them: the table's answer is the sum.
    #[test]
    fn bytes_of_every_range_is_its_sum() {
        for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5] {
            let extents: Vec<Extent> = (0..n as u64).map(|i| Extent::new(i * 10, i % 7)).collect();
            let run = Run::from(extents.clone());
            assert_eq!(matches!(run.size, Size::Sums(_)), n > BLOCK, "{n}");
            assert_eq!(run.bytes(), total_bytes(&extents));
            for a in 0..=n {
                for b in a..=n {
                    assert_eq!(
                        run.bytes_of(a..b),
                        total_bytes(&extents[a..b]),
                        "{n}: {a}..{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_view_strided() {
        let ft = Datatype::resized(Datatype::bytes(4), 16);
        let view = FileView::new(8, ft);
        let r = RankRequest::from_view(Rank(2), &view, 12);
        assert_eq!(
            r.extents,
            vec![Extent::new(8, 4), Extent::new(24, 4), Extent::new(40, 4)]
        );
    }

    #[test]
    fn collective_aggregates() {
        let req = CollectiveRequest::new(
            Rw::Write,
            vec![
                vec![Extent::new(0, 10)],
                vec![Extent::new(10, 10)],
                vec![Extent::new(40, 10)],
                vec![],
            ],
        );
        assert_eq!(req.nranks(), 4);
        assert_eq!(req.total_bytes(), 30);
        assert_eq!(req.hull(), Extent::new(0, 50));
        assert_eq!(
            req.coverage(),
            vec![Extent::new(0, 20), Extent::new(40, 10)]
        );
        assert!(req.is_sorted_disjoint());
    }

    #[test]
    fn literal_lists_can_break_the_invariant() {
        let mut req = CollectiveRequest::new(Rw::Write, vec![vec![Extent::new(0, 10)]]);
        req.ranks[0].extents = vec![Extent::new(20, 5), Extent::new(0, 5)].into();
        assert!(!req.is_sorted_disjoint());
    }

    #[test]
    fn empty_collective() {
        let req = CollectiveRequest::new(Rw::Read, vec![vec![], vec![]]);
        assert_eq!(req.total_bytes(), 0);
        assert_eq!(req.hull(), Extent::EMPTY);
        assert!(req.coverage().is_empty());
    }
}
