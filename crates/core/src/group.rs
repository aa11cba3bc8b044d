//! Aggregation Group Division (§3.1).
//!
//! Splits the collective into disjoint subgroups so that the shuffle
//! traffic of each group stays inside it. Groups are **node-aligned**:
//! walking the compute nodes in the order their data appears in the file,
//! nodes accumulate into the current group until the group's requested
//! bytes reach `Msg_group`, then the group closes *at the node boundary*
//! — exactly Figure 4's rule ("the size of aggregation group one is
//! extended to the ending offset of the data accessed by the last process
//! in compute node one"), which guarantees no node's processes serve as
//! aggregators for two different groups.
//!
//! For serially distributed data the node order is just offset order; for
//! interwoven patterns the division falls back to analyzing the per-rank
//! flattened file views (each node is placed by the first offset its
//! ranks touch), as §3.1 prescribes.

use crate::request::CollectiveRequest;
use mcio_cluster::{NodeId, ProcessMap, Rank};
use mcio_pfs::extent::union_sorted;
use mcio_pfs::Extent;

/// One disjoint aggregation group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregationGroup {
    /// Position in the division (0-based).
    pub index: usize,
    /// Member nodes, in linearization order.
    pub nodes: Vec<NodeId>,
    /// Member ranks (all ranks hosted by the member nodes, including
    /// idle ones — they still participate in group collectives).
    pub ranks: Vec<Rank>,
    /// The group's requested file region: coalesced union of its ranks'
    /// extents (may interleave with other groups' regions).
    pub region: Vec<Extent>,
    /// Requested bytes in this group.
    pub bytes: u64,
}

impl AggregationGroup {
    /// Smallest extent covering the group's region.
    pub fn hull(&self) -> Extent {
        match (self.region.first(), self.region.last()) {
            (Some(f), Some(l)) => Extent::from_bounds(f.offset, l.end()),
            _ => Extent::EMPTY,
        }
    }
}

/// Divide the collective into node-aligned groups of roughly `msg_group`
/// requested bytes each.
///
/// Nodes whose ranks request nothing are left out entirely (their ranks
/// join no group). Returns at least one group whenever any data is
/// requested.
pub fn divide(req: &CollectiveRequest, map: &ProcessMap, msg_group: u64) -> Vec<AggregationGroup> {
    assert_eq!(req.nranks(), map.nranks(), "request/topology rank mismatch");
    let msg_group = msg_group.max(1);

    // Linearize nodes by the first offset their ranks touch (§3.1's
    // offset calculation; equals node order for serial patterns).
    let mut node_info: Vec<(u64, NodeId, u64)> = Vec::new(); // (first_offset, node, bytes)
    for n in 0..map.nnodes() {
        let node = NodeId(n);
        let mut first = u64::MAX;
        let mut bytes = 0u64;
        for &r in map.ranks_on(node) {
            let rr = &req.ranks[r.0];
            if let Some(e) = rr.extents.first() {
                first = first.min(e.offset);
            }
            bytes += rr.bytes();
        }
        if bytes > 0 {
            node_info.push((first, node, bytes));
        }
    }
    node_info.sort_unstable_by_key(|&(first, node, _)| (first, node.0));

    let mut groups: Vec<AggregationGroup> = Vec::new();
    let mut cur_nodes: Vec<NodeId> = Vec::new();
    let mut cur_bytes = 0u64;
    let mut runs = Vec::new();
    for (i, &(_, node, bytes)) in node_info.iter().enumerate() {
        cur_nodes.push(node);
        cur_bytes += bytes;
        if cur_bytes >= msg_group || i + 1 == node_info.len() {
            let mut ranks: Vec<Rank> = cur_nodes
                .iter()
                .flat_map(|&n| map.ranks_on(n).iter().copied())
                .collect();
            ranks.sort_unstable();
            runs.clear();
            runs.extend(ranks.iter().map(|&r| &req.ranks[r.0].extents[..]));
            groups.push(AggregationGroup {
                index: groups.len(),
                nodes: cur_nodes.clone(),
                ranks,
                region: union_sorted(&runs),
                bytes: cur_bytes,
            });
            cur_nodes.clear();
            cur_bytes = 0;
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcio_cluster::Placement;
    use mcio_pfs::extent::coalesce;
    use mcio_pfs::Rw;

    /// Serial layout: rank r writes [r·100, r·100+100).
    fn serial_req(nranks: usize) -> CollectiveRequest {
        CollectiveRequest::new(
            Rw::Write,
            (0..nranks as u64)
                .map(|r| vec![Extent::new(r * 100, 100)])
                .collect(),
        )
    }

    #[test]
    fn groups_close_at_node_boundaries() {
        // 8 ranks on 4 nodes (2 each), 200 B per node; Msg_group = 300 →
        // groups of 2 nodes (400 B ≥ 300).
        let map = ProcessMap::new(8, 4, Placement::Block);
        let groups = divide(&serial_req(8), &map, 300);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].nodes, vec![NodeId(0), NodeId(1)]);
        assert_eq!(groups[1].nodes, vec![NodeId(2), NodeId(3)]);
        assert_eq!(groups[0].bytes, 400);
        assert_eq!(groups[0].hull(), Extent::new(0, 400));
        assert_eq!(groups[1].hull(), Extent::new(400, 400));
        // Ranks partition.
        assert_eq!(groups[0].ranks, (0..4).map(Rank).collect::<Vec<_>>());
        assert_eq!(groups[1].ranks, (4..8).map(Rank).collect::<Vec<_>>());
    }

    #[test]
    fn one_group_when_msg_group_huge() {
        let map = ProcessMap::new(6, 3, Placement::Block);
        let groups = divide(&serial_req(6), &map, u64::MAX);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].nodes.len(), 3);
    }

    #[test]
    fn one_group_per_node_when_msg_group_tiny() {
        let map = ProcessMap::new(6, 3, Placement::Block);
        let groups = divide(&serial_req(6), &map, 1);
        assert_eq!(groups.len(), 3);
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(g.nodes, vec![NodeId(i)]);
            assert_eq!(g.index, i);
        }
    }

    #[test]
    fn last_group_may_be_small() {
        // 3 nodes of 200 B; Msg_group 350 → group {n0,n1} (400), group
        // {n2} (200).
        let map = ProcessMap::new(6, 3, Placement::Block);
        let groups = divide(&serial_req(6), &map, 350);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[1].bytes, 200);
    }

    #[test]
    fn idle_nodes_excluded() {
        // Node 1's ranks request nothing.
        let req = CollectiveRequest::new(
            Rw::Write,
            vec![
                vec![Extent::new(0, 100)],
                vec![Extent::new(100, 100)],
                vec![],
                vec![],
                vec![Extent::new(200, 100)],
                vec![Extent::new(300, 100)],
            ],
        );
        let map = ProcessMap::new(6, 3, Placement::Block);
        let groups = divide(&req, &map, 1);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].nodes, vec![NodeId(0)]);
        assert_eq!(groups[1].nodes, vec![NodeId(2)]);
    }

    #[test]
    fn interleaved_pattern_linearizes_by_first_offset() {
        // 2 nodes × 2 ranks; node 1's ranks start *earlier* in the file.
        let req = CollectiveRequest::new(
            Rw::Write,
            vec![
                vec![Extent::new(1000, 100)],
                vec![Extent::new(1100, 100)],
                vec![Extent::new(0, 100)],
                vec![Extent::new(100, 100)],
            ],
        );
        let map = ProcessMap::new(4, 2, Placement::Block);
        let groups = divide(&req, &map, 1);
        assert_eq!(groups.len(), 2);
        // Node 1 first (its data starts at offset 0).
        assert_eq!(groups[0].nodes, vec![NodeId(1)]);
        assert_eq!(groups[1].nodes, vec![NodeId(0)]);
    }

    #[test]
    fn interwoven_regions_may_interleave_between_groups() {
        // IOR-style: rank r owns blocks at offset (b·4 + r)·10, ranks on
        // 2 nodes. Groups stay node-aligned and rank-disjoint even though
        // regions interleave.
        let per_rank: Vec<Vec<Extent>> = (0..4u64)
            .map(|r| {
                (0..3u64)
                    .map(|b| Extent::new((b * 4 + r) * 10, 10))
                    .collect()
            })
            .collect();
        let req = CollectiveRequest::new(Rw::Write, per_rank);
        let map = ProcessMap::new(4, 2, Placement::Block);
        let groups = divide(&req, &map, 1);
        assert_eq!(groups.len(), 2);
        let mut all_ranks: Vec<Rank> = groups.iter().flat_map(|g| g.ranks.clone()).collect();
        all_ranks.sort_unstable();
        assert_eq!(all_ranks, (0..4).map(Rank).collect::<Vec<_>>());
        // The two groups' regions interleave but never overlap.
        for a in &groups[0].region {
            for b in &groups[1].region {
                assert!(a.intersect(b).is_none(), "{a} overlaps {b}");
            }
        }
        // Together they cover the whole request.
        let mut all = groups[0].region.clone();
        all.extend(groups[1].region.iter().copied());
        assert_eq!(coalesce(all), req.coverage());
    }

    #[test]
    fn empty_request_no_groups() {
        let req = CollectiveRequest::new(Rw::Write, vec![vec![], vec![]]);
        let map = ProcessMap::new(2, 1, Placement::Block);
        assert!(divide(&req, &map, 100).is_empty());
    }

    #[test]
    fn group_bytes_meet_threshold_except_last() {
        let map = ProcessMap::new(10, 5, Placement::Block);
        let groups = divide(&serial_req(10), &map, 250);
        for g in &groups[..groups.len() - 1] {
            assert!(g.bytes >= 250);
        }
    }
}
