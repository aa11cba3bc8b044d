//! File extents: half-open byte ranges `[offset, offset + len)` in a
//! linear file. The shared vocabulary of the whole collective I/O stack:
//! flattened datatypes, file domains, partition-tree leaves, aggregation
//! groups and PFS requests are all extents or lists of extents.

use std::cmp::Ordering;
use std::fmt;

/// A half-open byte range in a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// First byte covered.
    pub offset: u64,
    /// Number of bytes covered (may be zero).
    pub len: u64,
}

impl Extent {
    /// An extent `[offset, offset + len)`.
    pub const fn new(offset: u64, len: u64) -> Self {
        Extent { offset, len }
    }

    /// The empty extent at offset zero.
    pub const EMPTY: Extent = Extent { offset: 0, len: 0 };

    /// An extent from half-open bounds. Panics if `end < start`.
    pub fn from_bounds(start: u64, end: u64) -> Self {
        assert!(end >= start, "invalid extent bounds [{start}, {end})");
        Extent {
            offset: start,
            len: end - start,
        }
    }

    /// One past the last byte covered.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// True when the extent covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `pos` falls inside the extent.
    pub fn contains(&self, pos: u64) -> bool {
        pos >= self.offset && pos < self.end()
    }

    /// True when `other` is fully inside `self` (empty extents are
    /// contained anywhere their offset lies within bounds).
    pub fn contains_extent(&self, other: &Extent) -> bool {
        other.offset >= self.offset && other.end() <= self.end()
    }

    /// The overlapping region, or `None` when disjoint (or when either is
    /// empty).
    pub fn intersect(&self, other: &Extent) -> Option<Extent> {
        let start = self.offset.max(other.offset);
        let end = self.end().min(other.end());
        if start < end {
            Some(Extent::from_bounds(start, end))
        } else {
            None
        }
    }

    /// True when the extents share at least one byte.
    pub fn overlaps(&self, other: &Extent) -> bool {
        self.intersect(other).is_some()
    }

    /// Split at absolute position `pos`, returning (left, right). `pos`
    /// outside the extent yields an empty side.
    pub fn split_at(&self, pos: u64) -> (Extent, Extent) {
        let pos = pos.clamp(self.offset, self.end());
        (
            Extent::from_bounds(self.offset, pos),
            Extent::from_bounds(pos, self.end()),
        )
    }

    /// The smallest extent covering both (their convex hull).
    pub fn hull(&self, other: &Extent) -> Extent {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Extent::from_bounds(self.offset.min(other.offset), self.end().max(other.end()))
    }
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.offset, self.end())
    }
}

impl PartialOrd for Extent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Extent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.offset
            .cmp(&other.offset)
            .then(self.len.cmp(&other.len))
    }
}

/// Sort extents and merge overlapping/adjacent ones, dropping empties.
/// The result is the canonical minimal disjoint cover of the input.
///
/// For input in no particular order. Lists that are already sorted and
/// disjoint — every per-rank list, every result of this module — are
/// united by [`union_sorted`], which merges instead of sorting.
pub fn coalesce(mut extents: Vec<Extent>) -> Vec<Extent> {
    extents.retain(|e| !e.is_empty());
    extents.sort();
    // In place: each extent either grows the one kept before it or is
    // kept itself.
    extents.dedup_by(|next, kept| {
        let merges = next.offset <= kept.end();
        if merges {
            kept.len = kept.len.max(next.end() - kept.offset);
        }
        merges
    });
    extents
}

/// Total bytes requested (overlaps counted multiply).
pub fn total_bytes(extents: &[Extent]) -> u64 {
    extents.iter().map(|e| e.len).sum()
}

// ------------------------------------------------------------------
// Sorted-run kernels. A *sorted run* is a list in offset order whose
// extents share no byte ([`is_sorted_disjoint`]): what flattening a
// datatype yields, what [`coalesce`] returns, and what every kernel
// below both requires and returns. The order is what lets them merge,
// binary-search and slice where unordered input needs a sort or a scan.
// ------------------------------------------------------------------

/// True when `extents` is a sorted run: in offset order, none reaching
/// past the start of the next. Adjacent and zero-length extents pass.
pub fn is_sorted_disjoint(extents: &[Extent]) -> bool {
    extents.windows(2).all(|w| w[0].end() <= w[1].offset)
}

/// The union of sorted runs: exactly `coalesce` of their concatenation,
/// without concatenating or sorting.
///
/// A balanced tree of two-way merges, evaluated depth first. Every
/// merge coalesces as it goes, so lists that interleave into dense
/// regions (ranks that are neighbours in a block decomposition) shrink
/// level by level and the upper levels cost next to nothing; when
/// nothing coalesces the cost is the `n log k` moves of any k-way
/// merge, with at most one partial result alive per level.
pub fn union_sorted(runs: &[&[Extent]]) -> Vec<Extent> {
    let mut out = union_tree(runs);
    out.shrink_to_fit();
    out
}

fn union_tree(runs: &[&[Extent]]) -> Vec<Extent> {
    match runs {
        [] => Vec::new(),
        [a] => union_pair(a, &[]),
        [a, b] => union_pair(a, b),
        _ => {
            let (left, right) = runs.split_at(runs.len() / 2);
            union_pair(&union_tree(left), &union_tree(right))
        }
    }
}

/// [`union_sorted`] of two runs: a two-pointer merge.
fn union_pair(a: &[Extent], b: &[Extent]) -> Vec<Extent> {
    debug_assert!(is_sorted_disjoint(a) && is_sorted_disjoint(b));
    // Room for the case where nothing coalesces: growing mid-merge costs
    // more than the slack, which the caller trims off the final result.
    let mut out = Vec::with_capacity(a.len() + b.len());
    // The extent being grown, kept out of `out` until a gap closes it
    // (empty only until the first non-empty extent arrives).
    let mut cur = Extent::EMPTY;
    let mut absorb = |e: Extent| {
        if !cur.is_empty() && e.offset <= cur.end() {
            cur.len = cur.len.max(e.end() - cur.offset);
        } else if !e.is_empty() {
            if !cur.is_empty() {
                out.push(cur);
            }
            cur = e;
        }
    };
    let (mut a, mut b) = (a, b);
    while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
        if x.offset <= y.offset {
            absorb(x);
            a = &a[1..];
        } else {
            absorb(y);
            b = &b[1..];
        }
    }
    a.iter().chain(b).copied().for_each(&mut absorb);
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Index range of the extents of a sorted run that can overlap
/// `window`: two binary searches. Only the first and the last of them
/// can reach past the window, and zero-length ones may sit anywhere in
/// the range.
pub fn overlap_range(extents: &[Extent], window: &Extent) -> std::ops::Range<usize> {
    if window.is_empty() {
        return 0..0;
    }
    let start = extents.partition_point(|e| e.end() <= window.offset);
    let end = start + extents[start..].partition_point(|e| e.offset < window.end());
    // Only the slice handed back is checked: a scan of the whole run
    // would turn a logarithmic query linear in debug builds.
    debug_assert!(is_sorted_disjoint(&extents[start..end]));
    start..end
}

/// A sorted run clipped to `window` — `filter_map(intersect)` over the
/// run, in `O(log n)` plus one copy of the overlapping slice at its
/// final size: only its first and last extent can need clipping.
pub fn clip_sorted(extents: &[Extent], window: &Extent) -> Vec<Extent> {
    let mut out = extents[overlap_range(extents, window)].to_vec();
    if let Some(first) = out.first_mut() {
        let start = first.offset.max(window.offset);
        *first = Extent::from_bounds(start, first.end());
    }
    if let Some(last) = out.last_mut() {
        last.len = last.end().min(window.end()) - last.offset;
    }
    // A sorted run may hold zero-length extents, which overlap nothing.
    out.retain(|e| !e.is_empty());
    out
}

/// Bytes of a sorted run that fall inside `window`.
pub fn bytes_in_sorted(extents: &[Extent], window: &Extent) -> u64 {
    let hit = &extents[overlap_range(extents, window)];
    let (Some(first), Some(last)) = (hit.first(), hit.last()) else {
        return 0;
    };
    let before = window.offset.saturating_sub(first.offset);
    let after = last.end().saturating_sub(window.end());
    total_bytes(hit) - before - after
}

/// True when a sorted run has at least one byte inside `window`, in
/// `O(log n)`.
pub fn touches_sorted(extents: &[Extent], window: &Extent) -> bool {
    extents[overlap_range(extents, window)]
        .iter()
        .any(|e| !e.is_empty())
}

/// True when two sorted runs share at least one byte. Each run in turn
/// skips everything that ends before the other's head, so disjoint runs
/// cost `O(log d)` per skip of `d` extents — a short run is checked
/// against a long one without walking it, and two runs that interleave
/// one for one still cost `O(n)`.
pub fn overlaps_sorted(a: &[Extent], b: &[Extent]) -> bool {
    debug_assert!(is_sorted_disjoint(a) && is_sorted_disjoint(b));
    let (mut a, mut b) = (a, b);
    while let (Some(x), Some(y)) = (a.first(), b.first()) {
        if x.end() <= y.offset || x.is_empty() {
            a = skip_ending_by(a, y.offset.max(x.end()));
        } else if y.end() <= x.offset || y.is_empty() {
            b = skip_ending_by(b, x.offset.max(y.end()));
        } else {
            return true;
        }
    }
    false
}

/// The rest of a sorted run after its leading extents that end at or
/// before `pos`.
fn skip_ending_by(run: &[Extent], pos: u64) -> &[Extent] {
    &run[gallop(run, |e| e.end() <= pos)..]
}

/// `partition_point` found from the front by galloping: probe 1, 2, 4,
/// … items ahead, then binary-search the last stride. `O(log d)` for a
/// partition point `d` items in, so a cursor walking a long list in
/// short steps pays for the steps, not for the list.
pub fn gallop<T>(items: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let mut hi = 1;
    while hi < items.len() && pred(&items[hi - 1]) {
        hi *= 2;
    }
    let (lo, hi) = (hi / 2, hi.min(items.len()));
    lo + items[lo..hi].partition_point(pred)
}

/// The parts of `extents` not covered by `minus`. Both inputs must be
/// sorted and disjoint (as produced by [`coalesce`]); the result is too.
pub fn subtract(extents: &[Extent], minus: &[Extent]) -> Vec<Extent> {
    let mut out = Vec::new();
    let mut j = 0usize;
    for &e in extents {
        // Skip subtrahends entirely before this extent (inputs sorted).
        while j < minus.len() && minus[j].end() <= e.offset {
            j += 1;
        }
        let mut cur = e;
        let mut k = j;
        while !cur.is_empty() && k < minus.len() && minus[k].offset < cur.end() {
            let m = minus[k];
            if m.offset > cur.offset {
                out.push(Extent::from_bounds(cur.offset, m.offset));
            }
            cur = Extent::from_bounds(m.end().min(cur.end()).max(cur.offset), cur.end());
            k += 1;
        }
        if !cur.is_empty() {
            out.push(cur);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let e = Extent::new(10, 5);
        assert_eq!(e.end(), 15);
        assert!(!e.is_empty());
        assert!(e.contains(10));
        assert!(e.contains(14));
        assert!(!e.contains(15));
        assert_eq!(format!("{e}"), "[10, 15)");
    }

    #[test]
    fn from_bounds_round_trips() {
        let e = Extent::from_bounds(3, 9);
        assert_eq!(e, Extent::new(3, 6));
        assert!(Extent::from_bounds(5, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid extent bounds")]
    fn inverted_bounds_panic() {
        Extent::from_bounds(9, 3);
    }

    #[test]
    fn intersection() {
        let a = Extent::new(0, 10);
        let b = Extent::new(5, 10);
        assert_eq!(a.intersect(&b), Some(Extent::new(5, 5)));
        assert_eq!(b.intersect(&a), Some(Extent::new(5, 5)));
        // Touching but not overlapping.
        let c = Extent::new(10, 5);
        assert_eq!(a.intersect(&c), None);
        // Empty extents never intersect.
        assert_eq!(a.intersect(&Extent::new(5, 0)), None);
    }

    #[test]
    fn containment() {
        let outer = Extent::new(0, 100);
        assert!(outer.contains_extent(&Extent::new(10, 20)));
        assert!(outer.contains_extent(&outer));
        assert!(!outer.contains_extent(&Extent::new(90, 20)));
    }

    #[test]
    fn split() {
        let e = Extent::new(10, 10);
        let (l, r) = e.split_at(15);
        assert_eq!(l, Extent::new(10, 5));
        assert_eq!(r, Extent::new(15, 5));
        // Split point clamps.
        let (l, r) = e.split_at(0);
        assert!(l.is_empty());
        assert_eq!(r, e);
        let (l, r) = e.split_at(100);
        assert_eq!(l, e);
        assert!(r.is_empty());
    }

    #[test]
    fn hull() {
        let a = Extent::new(0, 5);
        let b = Extent::new(20, 5);
        assert_eq!(a.hull(&b), Extent::new(0, 25));
        assert_eq!(a.hull(&Extent::EMPTY), a);
        assert_eq!(Extent::EMPTY.hull(&b), b);
    }

    #[test]
    fn coalesce_merges_and_sorts() {
        let merged = coalesce(vec![
            Extent::new(20, 5),
            Extent::new(0, 10),
            Extent::new(8, 4),  // overlaps first
            Extent::new(12, 8), // adjacent to previous merge
            Extent::new(50, 0), // empty dropped
        ]);
        assert_eq!(merged, vec![Extent::new(0, 25)]);
    }

    #[test]
    fn coalesce_keeps_gaps() {
        let merged = coalesce(vec![Extent::new(0, 5), Extent::new(10, 5)]);
        assert_eq!(merged, vec![Extent::new(0, 5), Extent::new(10, 5)]);
    }

    #[test]
    fn byte_accounting() {
        let v = vec![Extent::new(0, 10), Extent::new(5, 10)];
        assert_eq!(total_bytes(&coalesce(v.clone())), 15);
        assert_eq!(total_bytes(&v), 20);
    }

    #[test]
    fn clipping() {
        let v = vec![Extent::new(0, 10), Extent::new(20, 10), Extent::new(40, 5)];
        let w = Extent::new(5, 20);
        assert_eq!(
            clip_sorted(&v, &w),
            vec![Extent::new(5, 5), Extent::new(20, 5)]
        );
        assert_eq!(bytes_in_sorted(&v, &w), 10);
        assert!(touches_sorted(&v, &w));
        // A window inside one extent clips it at both ends.
        let inner = Extent::new(22, 3);
        assert_eq!(clip_sorted(&v, &inner), vec![inner]);
        assert_eq!(bytes_in_sorted(&v, &inner), 3);
        // A window in a gap, and an empty window inside an extent.
        for w in [Extent::new(10, 10), Extent::new(25, 0)] {
            assert_eq!(clip_sorted(&v, &w), vec![]);
            assert_eq!(bytes_in_sorted(&v, &w), 0);
            assert!(!touches_sorted(&v, &w));
        }
    }

    #[test]
    fn sorted_disjoint_predicate() {
        assert!(is_sorted_disjoint(&[]));
        // Adjacent and zero-length extents share no byte.
        assert!(is_sorted_disjoint(&[
            Extent::new(0, 5),
            Extent::new(5, 0),
            Extent::new(5, 5)
        ]));
        assert!(!is_sorted_disjoint(&[Extent::new(0, 6), Extent::new(5, 5)]));
        assert!(!is_sorted_disjoint(&[Extent::new(5, 5), Extent::new(0, 5)]));
    }

    #[test]
    fn union_merges_runs_without_sorting() {
        let a = [Extent::new(0, 10), Extent::new(30, 5)];
        let b = [Extent::new(10, 5), Extent::new(32, 10)];
        let c = [Extent::new(60, 0), Extent::new(100, 1)];
        assert_eq!(
            union_sorted(&[&a, &b, &[], &c]),
            vec![Extent::new(0, 15), Extent::new(30, 12), Extent::new(100, 1)]
        );
        assert_eq!(union_sorted(&[]), vec![]);
        // A single run is canonicalised too.
        assert_eq!(
            union_sorted(&[&[Extent::new(0, 5), Extent::new(5, 5)]]),
            vec![Extent::new(0, 10)]
        );
    }

    #[test]
    fn subtract_carves_holes() {
        let a = vec![Extent::new(0, 10), Extent::new(20, 10)];
        // Punch out the middle of each and the gap between them.
        let m = vec![Extent::new(4, 2), Extent::new(8, 16)];
        assert_eq!(
            subtract(&a, &m),
            vec![Extent::new(0, 4), Extent::new(6, 2), Extent::new(24, 6)]
        );
    }

    #[test]
    fn subtract_disjoint_is_identity() {
        let a = vec![Extent::new(0, 5), Extent::new(10, 5)];
        let m = vec![Extent::new(5, 5), Extent::new(20, 100)];
        assert_eq!(subtract(&a, &m), a);
        assert_eq!(subtract(&a, &[]), a);
    }

    #[test]
    fn subtract_everything_leaves_nothing() {
        let a = vec![Extent::new(3, 4), Extent::new(9, 2)];
        assert_eq!(subtract(&a, &[Extent::new(0, 100)]), vec![]);
        // One subtrahend can straddle several minuends.
        let m = vec![Extent::new(2, 10)];
        assert_eq!(subtract(&a, &m), vec![]);
    }

    #[test]
    fn ordering_by_offset_then_len() {
        let mut v = vec![Extent::new(5, 1), Extent::new(0, 9), Extent::new(0, 2)];
        v.sort();
        assert_eq!(
            v,
            vec![Extent::new(0, 2), Extent::new(0, 9), Extent::new(5, 1)]
        );
    }
}
