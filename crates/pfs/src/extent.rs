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
/// merge.
///
/// Past 64 Ki extents in all (and at least one per run), the hull is cut
/// into blocks of about that many, each run is cut at the block edges
/// with one gallop per run per block, and each block's slices are
/// united through the tree on their own. The partial results of the
/// tree's levels live in scratch buffers that every block reuses, and
/// each block's union is appended to the result coalescing with its
/// last extent, so an extent that reaches past a block edge still
/// merges with what the next block holds. A tree that allocated its levels afresh would write every
/// extent once per level into new memory: on a request of millions of
/// extents those blocks are large enough for the allocator to map and
/// unmap them, and the merges then spend most of their time in page
/// faults rather than in moves.
pub fn union_sorted(runs: &[&[Extent]]) -> Vec<Extent> {
    // At least one extent per run in a block, so that cutting every run
    // at every block edge never costs more than the block's merges: a
    // million one-extent runs are one block.
    union_blocked(runs, UNION_BLOCK.max(runs.len()))
}

/// Extents per block of [`union_sorted`]: the slices a block unites and
/// its scratch (a few MiB) stay in cache, and a union of fewer extents
/// is one block.
const UNION_BLOCK: usize = 1 << 16;

/// [`union_sorted`] with blocks of about `block` extents.
pub(crate) fn union_blocked(runs: &[&[Extent]], block: usize) -> Vec<Extent> {
    let mut scratch = Vec::new();
    scratch.resize_with(scratch_len(runs.len()), Vec::new);
    let Some((hull, width)) = blocks(runs, block) else {
        let mut out = Vec::new();
        unite(runs, &mut scratch, &mut out);
        out.shrink_to_fit();
        return out;
    };
    let mut rest = runs.to_vec();
    let mut parts = Vec::with_capacity(runs.len());
    let mut out = Vec::new();
    let mut end = hull.offset;
    while end < hull.end() {
        end = end.saturating_add(width).min(hull.end());
        parts.clear();
        for run in &mut rest {
            let (part, after) = run.split_at(gallop(run, |e| e.offset < end));
            if !part.is_empty() {
                parts.push(part);
            }
            *run = after;
        }
        unite(&parts, &mut scratch, &mut out);
    }
    out.shrink_to_fit();
    out
}

/// The hull of `runs` and the width of the blocks [`union_blocked`]
/// cuts it into, or `None` when the runs make one block: the hull split
/// evenly into one block per `block` extents.
fn blocks(runs: &[&[Extent]], block: usize) -> Option<(Extent, u64)> {
    let nblocks = runs
        .iter()
        .map(|r| r.len())
        .sum::<usize>()
        .div_ceil(block.max(1));
    if nblocks <= 1 {
        return None;
    }
    let hull = runs
        .iter()
        .filter_map(|r| Some(Extent::from_bounds(r.first()?.offset, r.last()?.end())))
        .fold(Extent::EMPTY, |acc, s| acc.hull(&s));
    (!hull.is_empty()).then(|| (hull, hull.len.div_ceil(nblocks as u64)))
}

/// Scratch buffers [`unite`] needs for `k` runs: two per level above
/// the pairs.
fn scratch_len(mut k: usize) -> usize {
    let mut n = 0;
    while k > 2 {
        n += 2;
        k -= k / 2;
    }
    n
}

/// Appends the union of `runs` to `out`, coalescing with its last
/// extent. `scratch` holds the two halves' unions of every level below,
/// cleared and refilled, so nothing is allocated once it has grown.
fn unite(runs: &[&[Extent]], scratch: &mut [Vec<Extent>], out: &mut Vec<Extent>) {
    match runs {
        [] => {}
        [a] => merge_into(a, &[], out),
        [a, b] => merge_into(a, b, out),
        _ => {
            let (l, r) = runs.split_at(runs.len() / 2);
            let [left, right, deeper @ ..] = scratch else {
                unreachable!("scratch_len counts two buffers per level")
            };
            left.clear();
            right.clear();
            unite(l, deeper, left);
            unite(r, deeper, right);
            merge_into(left, right, out);
        }
    }
}

/// The union of two sorted runs appended to `out`, coalescing with its
/// last extent: a two-pointer merge.
fn merge_into(a: &[Extent], b: &[Extent], out: &mut Vec<Extent>) {
    debug_assert!(is_sorted_disjoint(a) && is_sorted_disjoint(b));
    // Room for the case where nothing coalesces: growing mid-merge costs
    // more than the slack, which the caller trims off the final result.
    // An empty buffer gets exactly that; one being appended to grows
    // geometrically, as it may be many times.
    if out.is_empty() {
        out.reserve_exact(a.len() + b.len());
    } else {
        out.reserve(a.len() + b.len());
    }
    // The extent being grown, kept out of `out` until a gap closes it
    // (empty only until the first non-empty extent arrives).
    let mut cur = out.pop().unwrap_or(Extent::EMPTY);
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

/// [`gallop`] from a guess: the partition point found by galloping out
/// from `hint`, forward or back, in `O(log d)` for a point `d` items
/// from the guess. A walk that cuts a list into parts of about one
/// length passes the last part's length, and probes where the point
/// lies instead of across the part from its front.
pub fn gallop_from<T>(items: &[T], hint: usize, pred: impl Fn(&T) -> bool) -> usize {
    let hint = hint.min(items.len());
    if hint == 0 || pred(&items[hint - 1]) {
        return hint + gallop(&items[hint..], pred);
    }
    // The point is at or before `hi`, where `pred` fails: probe 1, 2,
    // 4, … items back until it holds.
    let (mut hi, mut step) = (hint - 1, 1);
    let lo = loop {
        if step > hi {
            break 0;
        }
        if pred(&items[hi - step]) {
            break hi - step + 1;
        }
        hi -= step;
        step *= 2;
    };
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

    /// Every partition point of lists up to 40 long, from every guess
    /// and none: both gallops find `partition_point`'s answer.
    #[test]
    fn gallops_find_the_partition_point() {
        for len in 0..40 {
            let items: Vec<usize> = (0..len).collect();
            for point in 0..=len {
                let pred = |&i: &usize| i < point;
                assert_eq!(gallop(&items, pred), point, "{len} {point}");
                for hint in 0..=len + 2 {
                    assert_eq!(
                        gallop_from(&items, hint, pred),
                        point,
                        "{len} {point} {hint}"
                    );
                }
            }
        }
    }

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

    /// A sorted run from `(gap, len)` steps, starting at `base`.
    fn run_from(base: u64, steps: &[(u64, u64)]) -> Vec<Extent> {
        let mut pos = base;
        steps
            .iter()
            .map(|&(gap, len)| {
                let e = Extent::new(pos + gap, len);
                pos = e.end();
                e
            })
            .collect()
    }

    proptest::proptest! {
        /// The blocked union is `coalesce` of the concatenation when the
        /// runs make three blocks or more (blocks of 1 to 8 extents):
        /// runs that start apart, so that some hold nothing in a block,
        /// runs that overlap (one of them twice), extents that reach
        /// across several block edges, an empty run, and zero-length
        /// extents on block edges.
        #[test]
        fn blocked_union_is_coalesce_of_the_concatenation(
            lists in proptest::collection::vec(
                (0u64..200, proptest::collection::vec((0u64..6, 0u64..5), 8..16)),
                3..7,
            ),
            long in proptest::collection::vec((0u64..300, 20u64..150), 1..4),
            edge_zeros in 1usize..4,
            block in 1usize..=8,
        ) {
            let mut runs: Vec<Vec<Extent>> =
                lists.iter().map(|(base, steps)| run_from(*base, steps)).collect();
            runs.push(runs[0].clone());
            runs.push(Vec::new());
            runs.extend(long.iter().map(|&(offset, len)| vec![Extent::new(offset, len)]));
            // An extent across two block edges and zero-length extents
            // on the edges, counted in before they are placed: the extent
            // count sets the blocks.
            runs.push(vec![Extent::EMPTY]);
            runs.push(vec![Extent::EMPTY; edge_zeros]);
            let refs: Vec<&[Extent]> = runs.iter().map(Vec::as_slice).collect();
            let (hull, width) = blocks(&refs, block).expect("more than one block");
            let nblocks = hull.len.div_ceil(width);
            proptest::prop_assert!(nblocks >= 3, "{nblocks} blocks");
            let [.., across, zeros] = &mut runs[..] else { unreachable!() };
            across[0] = Extent::from_bounds(hull.offset + width / 2, hull.offset + 2 * width + 1);
            for (i, e) in zeros.iter_mut().enumerate() {
                let edge = (i as u64 + 1).min(nblocks - 1);
                *e = Extent::new(hull.offset + edge * width, 0);
            }
            let refs: Vec<&[Extent]> = runs.iter().map(Vec::as_slice).collect();
            proptest::prop_assert_eq!(blocks(&refs, block), Some((hull, width)));
            for run in &runs {
                proptest::prop_assert!(is_sorted_disjoint(run));
            }
            proptest::prop_assert_eq!(union_blocked(&refs, block), coalesce(runs.concat()));
        }
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
