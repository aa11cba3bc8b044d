//! Half-open `(start, end)` interval sets over simulated nanoseconds:
//! the arithmetic behind OST-overlap and self/cross attribution, shared
//! by the engine-side accounting of `mcio-core` and the trace-side
//! analysis of `mcio-analyze` so the two pipelines can only disagree
//! about their *inputs*.

/// Sort and merge possibly-overlapping intervals into a sorted
/// disjoint union (touching intervals fuse).
pub fn merge_intervals(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (a, b) in intervals {
        match merged.last_mut() {
            Some((_, end)) if a <= *end => *end = (*end).max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

/// Total length of a disjoint interval set.
pub fn total_len(intervals: &[(u64, u64)]) -> u64 {
    intervals.iter().map(|(s, e)| e - s).sum()
}

/// Length of the intersection of two sorted disjoint interval sets.
pub fn intersect_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut len) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            len += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_helpers() {
        let merged = merge_intervals(vec![(5, 9), (0, 3), (2, 4), (9, 12)]);
        assert_eq!(merged, vec![(0, 4), (5, 12)]);
        assert_eq!(total_len(&merged), 11);
        assert_eq!(intersect_len(&[(0, 10)], &[(5, 15)]), 5);
        assert_eq!(intersect_len(&[(0, 2), (4, 6)], &[(1, 5)]), 2);
        assert_eq!(intersect_len(&[(0, 2)], &[(2, 4)]), 0);
        assert_eq!(intersect_len(&[], &[(0, 4)]), 0);
    }
}
