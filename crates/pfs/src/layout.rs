//! Striping layout: how a linear file maps onto object storage targets.
//!
//! Matches the paper's configuration — "files were striped over all I/O
//! servers with the round robin default striping strategy (with 1 MB unit
//! size)". Global offset `g` lives in stripe `g / unit`; stripe `k` is
//! stored on OST `k % count` at object-local offset
//! `(k / count) · unit + g % unit`.
//!
//! A key property the cost model exploits: a **contiguous** global extent
//! produces at most one contiguous object-local run per OST, so its per-OST
//! work is a single request; a set of scattered extents produces many.

use crate::extent::Extent;

/// Identifier of an object storage target (I/O server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OstId(pub usize);

impl OstId {
    /// Index into the OST table.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for OstId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ost{}", self.0)
    }
}

/// A piece of a file extent that lands on one OST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripePiece {
    /// The OST storing this piece.
    pub ost: OstId,
    /// Byte range in the *global* file.
    pub global: Extent,
    /// Starting offset within the OST's backing object.
    pub local_offset: u64,
}

/// Round-robin striping over `stripe_count` OSTs with `stripe_unit`-byte
/// stripes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeLayout {
    stripe_unit: u64,
    stripe_count: usize,
}

impl StripeLayout {
    /// A layout with the given unit and OST count.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(stripe_unit: u64, stripe_count: usize) -> Self {
        assert!(stripe_unit > 0, "stripe unit must be positive");
        assert!(stripe_count > 0, "stripe count must be positive");
        StripeLayout {
            stripe_unit,
            stripe_count,
        }
    }

    /// The paper's default: 1 MB stripes over all `stripe_count` servers.
    pub fn lustre_default(stripe_count: usize) -> Self {
        Self::new(1 << 20, stripe_count)
    }

    /// Stripe unit in bytes.
    pub fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    /// Number of OSTs striped across.
    pub fn stripe_count(&self) -> usize {
        self.stripe_count
    }

    /// The OST storing global offset `g`.
    pub fn ost_of(&self, g: u64) -> OstId {
        OstId(((g / self.stripe_unit) % self.stripe_count as u64) as usize)
    }

    /// The object-local offset of global offset `g`.
    pub fn local_offset(&self, g: u64) -> u64 {
        let stripe = g / self.stripe_unit;
        (stripe / self.stripe_count as u64) * self.stripe_unit + g % self.stripe_unit
    }

    /// Decompose an extent into stripe-unit-bounded pieces in global file
    /// order (each piece lies within a single stripe).
    pub fn split(&self, extent: Extent) -> Vec<StripePiece> {
        let mut pieces = Vec::new();
        let mut pos = extent.offset;
        let end = extent.end();
        while pos < end {
            let stripe_end = (pos / self.stripe_unit + 1) * self.stripe_unit;
            let piece_end = stripe_end.min(end);
            pieces.push(StripePiece {
                ost: self.ost_of(pos),
                global: Extent::from_bounds(pos, piece_end),
                local_offset: self.local_offset(pos),
            });
            pos = piece_end;
        }
        pieces
    }

    /// Decompose an extent into **at most one piece per OST**, ascending
    /// by OST, each with the bytes of the extent that land on it (a
    /// contiguous global extent is one object-locally contiguous run per
    /// OST, so one request each). The pieces replace `pieces`' contents.
    pub fn split_per_ost(&self, extent: Extent, pieces: &mut Vec<(OstId, u64)>) {
        pieces.clear();
        if extent.is_empty() {
            return;
        }
        let (unit, count) = (self.stripe_unit, self.stripe_count as u64);
        let (first, last) = (extent.offset / unit, (extent.end() - 1) / unit);
        let bytes = |stripe: u64| {
            let start = (stripe * unit).max(extent.offset);
            ((stripe + 1) * unit).min(extent.end()) - start
        };
        if last - first >= count {
            // More than one stripe cycle: some OST holds several stripes,
            // and every OST at least one.
            pieces.extend((0..self.stripe_count).map(|i| (OstId(i), 0)));
            for stripe in first..=last {
                pieces[(stripe % count) as usize].1 += bytes(stripe);
            }
            return;
        }
        // At most one cycle: every stripe is its own OST, and ascending
        // OST order is stripe order rotated at the one stripe (if any)
        // that wraps back to OST 0. O(pieces), whatever the OST count.
        let wrap = ((first / count + 1) * count).min(last + 1);
        let stripes = (wrap..=last).chain(first..wrap);
        pieces.extend(stripes.map(|stripe| (OstId((stripe % count) as usize), bytes(stripe))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ost_mapping_round_robin() {
        let l = StripeLayout::new(100, 4);
        assert_eq!(l.ost_of(0), OstId(0));
        assert_eq!(l.ost_of(99), OstId(0));
        assert_eq!(l.ost_of(100), OstId(1));
        assert_eq!(l.ost_of(399), OstId(3));
        assert_eq!(l.ost_of(400), OstId(0));
    }

    #[test]
    fn local_offsets() {
        let l = StripeLayout::new(100, 4);
        assert_eq!(l.local_offset(0), 0);
        assert_eq!(l.local_offset(50), 50);
        assert_eq!(l.local_offset(100), 0); // first stripe on ost1
        assert_eq!(l.local_offset(400), 100); // second round on ost0
        assert_eq!(l.local_offset(450), 150);
    }

    #[test]
    fn split_covers_exactly() {
        let l = StripeLayout::new(100, 4);
        let e = Extent::new(50, 400);
        let pieces = l.split(e);
        // 50..100, 100..200, 200..300, 300..400, 400..450.
        assert_eq!(pieces.len(), 5);
        let mut pos = e.offset;
        for p in &pieces {
            assert_eq!(p.global.offset, pos);
            pos = p.global.end();
            assert_eq!(p.ost, l.ost_of(p.global.offset));
        }
        assert_eq!(pos, e.end());
    }

    #[test]
    fn split_per_ost_aggregates() {
        let l = StripeLayout::new(100, 4);
        // Full round plus one stripe: ost0 gets 200, others 100.
        let mut per = Vec::new();
        l.split_per_ost(Extent::new(0, 500), &mut per);
        assert_eq!(per.len(), 4);
        assert_eq!(per[0], (OstId(0), 200));
        assert_eq!(per[1], (OstId(1), 100));
        assert_eq!(per[3], (OstId(3), 100));
        let total: u64 = per.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn split_per_ost_rotates_at_the_wrap() {
        let l = StripeLayout::new(100, 4);
        // Stripes 2..=5 from mid-stripe: 50 B on ost2, 100 on ost3, then
        // the wrap, 100 on ost0 and 50 on ost1.
        let mut per = vec![(OstId(9), 9)];
        l.split_per_ost(Extent::new(250, 300), &mut per);
        let osts = [(0, 100), (1, 50), (2, 50), (3, 100)];
        assert_eq!(per, osts.map(|(ost, bytes)| (OstId(ost), bytes)));
    }

    #[test]
    fn split_small_extent_single_piece() {
        let l = StripeLayout::lustre_default(16);
        let pieces = l.split(Extent::new(12345, 1000));
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].global, Extent::new(12345, 1000));
    }

    #[test]
    fn empty_extent_no_pieces() {
        let l = StripeLayout::new(100, 4);
        assert!(l.split(Extent::new(10, 0)).is_empty());
        let mut per = vec![(OstId(0), 1)];
        l.split_per_ost(Extent::new(10, 0), &mut per);
        assert!(per.is_empty());
    }

    #[test]
    #[should_panic(expected = "stripe unit")]
    fn zero_unit_panics() {
        StripeLayout::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "stripe count")]
    fn zero_count_panics() {
        StripeLayout::new(100, 0);
    }
}
