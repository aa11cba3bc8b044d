//! Property-based tests of the PFS substrate: striping round-trips,
//! sparse-file equivalence with a flat byte-vector model, and the
//! sorted-run extent kernels against their sort- and scan-based
//! definitions.

use mcio_pfs::extent::{
    bytes_in_sorted, clip_sorted, coalesce, gallop, is_sorted_disjoint, overlaps_sorted,
    touches_sorted, union_sorted,
};
use mcio_pfs::{Extent, SparseFile, StripeLayout};
use proptest::prelude::*;

/// A sorted run built from `(gap, len)` steps. Gap 0 puts an extent
/// right against its predecessor, len 0 makes it zero-length; the small
/// ranges the tests draw from make runs collide all the time — equal
/// extents in several runs, one run ending exactly where another
/// starts.
fn run_of(steps: &[(u64, u64)]) -> Vec<Extent> {
    let mut pos = 0;
    steps
        .iter()
        .map(|&(gap, len)| {
            let e = Extent::new(pos + gap, len);
            pos = e.end();
            e
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Stripe pieces tile the extent exactly, each within one stripe,
    /// on the right OST, with consistent local offsets.
    #[test]
    fn split_tiles_exactly(
        unit in 1u64..4096,
        count in 1usize..32,
        offset in 0u64..1_000_000,
        len in 0u64..500_000,
    ) {
        let layout = StripeLayout::new(unit, count);
        let extent = Extent::new(offset, len);
        let pieces = layout.split(extent);
        let mut pos = offset;
        for p in &pieces {
            prop_assert_eq!(p.global.offset, pos);
            pos = p.global.end();
            // Within a single stripe.
            prop_assert_eq!(p.global.offset / unit, (p.global.end() - 1) / unit);
            prop_assert_eq!(p.ost, layout.ost_of(p.global.offset));
            prop_assert_eq!(p.local_offset, layout.local_offset(p.global.offset));
        }
        prop_assert_eq!(pos, extent.end().max(offset));
        // Per-OST aggregation conserves bytes.
        let mut per_ost = Vec::new();
        layout.split_per_ost(extent, &mut per_ost);
        let per: u64 = per_ost.iter().map(|&(_, b)| b).sum();
        prop_assert_eq!(per, len);
    }

    /// `split_per_ost` against its definition: fold `split` per OST,
    /// ascending, zero-byte OSTs dropped. Extents run from a fraction of
    /// a stripe to three stripe cycles, from anywhere in a stripe, so
    /// both the one-cycle shortcut (with and without the wrap back to
    /// OST 0) and the fold behind it are drawn.
    #[test]
    fn split_per_ost_is_the_per_ost_fold(
        unit in 1u64..4096,
        count in 1usize..=2048,
        first_stripe in 0u64..5000,
        within in 0u64..4096,
        cycle_eighths in 0u64..24,
        tail in 0u64..4096,
    ) {
        let layout = StripeLayout::new(unit, count);
        let offset = first_stripe * unit + within % unit;
        let len = cycle_eighths * count as u64 * unit / 8 + tail;
        let extent = Extent::new(offset, len);
        let mut per_ost = vec![0u64; count];
        for piece in layout.split(extent) {
            per_ost[piece.ost.index()] += piece.global.len;
        }
        let expected: Vec<_> = (per_ost.into_iter().enumerate())
            .filter(|&(_, bytes)| bytes > 0)
            .map(|(i, bytes)| (mcio_pfs::OstId(i), bytes))
            .collect();
        // The buffer starts dirty: the split replaces what it held.
        let mut pieces = vec![(mcio_pfs::OstId(0), 1)];
        layout.split_per_ost(extent, &mut pieces);
        prop_assert_eq!(pieces, expected);
    }

    /// A contiguous global extent lands on each OST as a contiguous
    /// object-local run (the property the cost model exploits).
    #[test]
    fn per_ost_runs_are_locally_contiguous(
        unit in 1u64..1024,
        count in 1usize..16,
        offset in 0u64..100_000,
        len in 1u64..200_000,
    ) {
        let layout = StripeLayout::new(unit, count);
        let mut per_ost: std::collections::BTreeMap<usize, Vec<(u64, u64)>> =
            std::collections::BTreeMap::new();
        for p in layout.split(Extent::new(offset, len)) {
            per_ost
                .entry(p.ost.index())
                .or_default()
                .push((p.local_offset, p.global.len));
        }
        for runs in per_ost.values() {
            for w in runs.windows(2) {
                prop_assert_eq!(w[0].0 + w[0].1, w[1].0, "gap in object-local run");
            }
        }
    }

    /// SparseFile behaves exactly like a big zero-initialized byte vector.
    #[test]
    fn sparse_file_matches_vec_model(
        block in 1usize..64,
        ops in proptest::collection::vec(
            (0u64..5000, proptest::collection::vec(any::<u8>(), 1..200)),
            1..20,
        ),
        probe in 0u64..5200,
        probe_len in 0usize..300,
    ) {
        let mut file = SparseFile::with_block_size(block);
        let mut model = vec![0u8; 6000];
        for (off, data) in &ops {
            file.write_at(*off, data);
            model[*off as usize..*off as usize + data.len()].copy_from_slice(data);
        }
        let got = file.read_vec(probe, probe_len);
        let want = &model[probe as usize..probe as usize + probe_len];
        prop_assert_eq!(got.as_slice(), want);
    }

    /// `union_sorted` is `coalesce` of the concatenation: empty runs,
    /// zero-length extents, adjacency within and across runs, and the
    /// same run twice.
    #[test]
    fn union_sorted_is_coalesce_of_the_concatenation(
        lists in proptest::collection::vec(
            proptest::collection::vec((0u64..4, 0u64..5), 0..12),
            0..7,
        ),
        repeat in 0usize..7,
    ) {
        let mut runs: Vec<Vec<Extent>> = lists.iter().map(|steps| run_of(steps)).collect();
        if let Some(again) = runs.get(repeat).cloned() {
            runs.push(again);
        }
        for run in &runs {
            prop_assert!(is_sorted_disjoint(run));
        }
        let refs: Vec<&[Extent]> = runs.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(union_sorted(&refs), coalesce(runs.concat()));
    }

    /// The window kernels agree with a scan of the whole run, for
    /// windows of every kind: empty, inside one extent, ending on an
    /// extent boundary, past either end.
    #[test]
    fn window_kernels_match_a_full_scan(
        steps in proptest::collection::vec((0u64..4, 0u64..5), 0..12),
        offset in 0u64..50,
        len in 0u64..50,
    ) {
        let run = run_of(&steps);
        let window = Extent::new(offset, len);
        let scan: Vec<Extent> = run.iter().filter_map(|e| e.intersect(&window)).collect();
        let bytes: u64 = scan.iter().map(|e| e.len).sum();
        prop_assert_eq!(bytes_in_sorted(&run, &window), bytes);
        prop_assert_eq!(touches_sorted(&run, &window), bytes > 0);
        prop_assert_eq!(clip_sorted(&run, &window), scan);
    }

    /// `gallop` is `partition_point`, from every start a cursor can be
    /// at: the first item, the last, one past it.
    #[test]
    fn gallop_is_partition_point(
        steps in proptest::collection::vec((0u64..4, 0u64..5), 0..40),
        pos in 0u64..120,
    ) {
        let run = run_of(&steps);
        for from in 0..=run.len() {
            let rest = &run[from..];
            prop_assert_eq!(
                gallop(rest, |e| e.offset < pos),
                rest.partition_point(|e| e.offset < pos)
            );
        }
    }

    /// `overlaps_sorted` is "some pair intersects".
    #[test]
    fn overlaps_sorted_matches_all_pairs(
        a in proptest::collection::vec((0u64..6, 0u64..4), 0..10),
        b in proptest::collection::vec((0u64..6, 0u64..4), 0..10),
    ) {
        let (a, b) = (run_of(&a), run_of(&b));
        let any_pair = a.iter().any(|x| b.iter().any(|y| x.overlaps(y)));
        prop_assert_eq!(overlaps_sorted(&a, &b), any_pair);
        prop_assert_eq!(overlaps_sorted(&b, &a), any_pair);
    }
}
