//! Collective requests: every rank's flattened offset/length list.
//!
//! The entry point of both planners. A [`RankRequest`] is one rank's
//! sorted, coalesced extent list (what ROMIO computes by flattening the
//! rank's datatype against its file view); a [`CollectiveRequest`] is the
//! whole job's view of one collective read or write call.

use mcio_cluster::Rank;
use mcio_pfs::extent::{
    bytes_in_sorted, clip_sorted, coalesce, is_sorted_disjoint, total_bytes, touches_sorted,
    union_sorted,
};
use mcio_pfs::{Extent, Rw};
use mcio_simpi::FileView;

/// One rank's access list for a collective call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankRequest {
    /// The requesting rank.
    pub rank: Rank,
    /// Sorted, coalesced, non-overlapping extents.
    pub extents: Vec<Extent>,
}

impl RankRequest {
    /// Build from raw extents (they are sorted and coalesced here).
    pub fn new(rank: Rank, extents: Vec<Extent>) -> Self {
        RankRequest {
            rank,
            extents: coalesce(extents),
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

    /// Bytes this rank requests.
    pub fn bytes(&self) -> u64 {
        total_bytes(&self.extents)
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

    /// Bytes this rank requests inside `window`. `O(log n + k)` in the
    /// extent count `n` and overlap count `k` (the extents are sorted).
    pub fn bytes_in(&self, window: &Extent) -> u64 {
        bytes_in_sorted(&self.extents, window)
    }

    /// The rank's extents clipped to `window`, in offset order: the
    /// overlapping slice, copied once.
    pub fn extents_in(&self, window: &Extent) -> Vec<Extent> {
        clip_sorted(&self.extents, window)
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
        let runs: Vec<&[Extent]> = self.ranks.iter().map(|r| r.extents.as_slice()).collect();
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
        assert_eq!(r.bytes_in(&Extent::new(0, 100)), 0);
    }

    #[test]
    fn windowed_queries() {
        let r = RankRequest::new(Rank(0), vec![Extent::new(0, 10), Extent::new(20, 10)]);
        let w = Extent::new(5, 20);
        assert_eq!(r.bytes_in(&w), 10);
        assert_eq!(
            r.extents_in(&w),
            vec![Extent::new(5, 5), Extent::new(20, 5)]
        );
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
                assert_eq!(r.bytes_in(&w), bytes, "{w}");
                assert_eq!(r.touches(&w), bytes > 0, "{w}");
                assert_eq!(r.extents_in(&w), scan, "{w}");
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
        req.ranks[0].extents = vec![Extent::new(20, 5), Extent::new(0, 5)];
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
