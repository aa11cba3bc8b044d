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

/// Where at least two of `sets` overlap, as a sorted disjoint union.
/// Each set is itself sorted and disjoint with touching intervals fused
/// (a [`merge_intervals`] result), so two intervals that overlap belong
/// to different sets.
pub fn shared_intervals(sets: &[Vec<(u64, u64)>]) -> Vec<(u64, u64)> {
    let mut all: Vec<(u64, u64)> = sets.iter().flatten().copied().collect();
    all.sort_unstable();
    let mut shared = Vec::new();
    // The furthest end of the intervals seen so far, all of which start
    // at or before the current one.
    let mut reach = 0u64;
    for (a, b) in all {
        if a < reach {
            shared.push((a, b.min(reach)));
        }
        reach = reach.max(b);
    }
    merge_intervals(shared)
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

    #[test]
    fn shared_intervals_are_what_every_set_meets_the_others_on() {
        let sets = [
            vec![(0, 10), (20, 30), (40, 41)],
            vec![(5, 25), (41, 45)],
            vec![(8, 9), (22, 50)],
            vec![],
        ];
        let shared = shared_intervals(&sets);
        assert_eq!(shared, vec![(5, 10), (20, 30), (40, 45)]);
        for (i, own) in sets.iter().enumerate() {
            let others = (sets.iter().enumerate())
                .filter(|(j, _)| *j != i)
                .flat_map(|(_, s)| s.iter().copied())
                .collect();
            let others = merge_intervals(others);
            assert_eq!(
                intersect_len(own, &shared),
                intersect_len(own, &others),
                "set {i}"
            );
        }
        assert_eq!(shared_intervals(&sets[..1]), vec![]);
    }
}
