//! The memory-conscious collective I/O planner (§3): the paper's
//! contribution, assembled from its four components.
//!
//! 1. **Aggregation Group Division** ([`crate::group`]) — node-aligned
//!    disjoint subgroups of roughly `Msg_group` bytes.
//! 2. **I/O Workload Partition** ([`crate::ptree`]) — per group, a binary
//!    partition tree bisects the file region until each file domain holds
//!    at most `Msg_ind` requested bytes.
//! 3. **Workload Portion Remerging** + 4. **Aggregators Location**
//!    ([`crate::placement`]) — memory-aware placement with `Mem_min` /
//!    `N_ah` constraints, remerging starved domains into neighbors.
//!
//! Rounds are then built exactly like two-phase rounds, but **per
//! group** ([`SyncMode::PerGroup`]): a slow aggregator stalls only its
//! group, and shuffle traffic never crosses group boundaries.

use crate::config::{CollectiveConfig, Strategy};
use crate::group;
use crate::memory::ProcMemory;
use crate::placement;
use crate::plan::{CollectivePlan, GroupPlan, PlanDiag, SyncMode};
use crate::ptree::PartitionTree;
use crate::request::{CollectiveRequest, Run};
use crate::twophase::{charge, cut_rounds};
use mcio_cluster::{ProcessMap, Rank};
use mcio_pfs::extent::{bytes_in_sorted, overlaps_sorted, subtract, union_sorted};
use mcio_pfs::Extent;
use std::borrow::Cow;

/// Build a memory-conscious plan.
///
/// ```
/// use mcio_core::{mcio, CollectiveConfig, CollectiveRequest, ProcMemory};
/// use mcio_cluster::ProcessMap;
/// use mcio_pfs::{Extent, Rw};
///
/// // Four ranks on two nodes, each writing a 1 KiB chunk.
/// let req = CollectiveRequest::new(
///     Rw::Write,
///     (0..4u64).map(|r| vec![Extent::new(r * 1024, 1024)]).collect(),
/// );
/// let map = ProcessMap::block_ppn(4, 2);
/// let mem = ProcMemory::normal(4, 512, 0.35, 7);
/// let cfg = CollectiveConfig::with_buffer(512)
///     .msg_group(2048)  // one group per node
///     .msg_ind(1024)
///     .mem_min(0);
/// let plan = mcio::plan(&req, &map, &mem, &cfg);
/// assert_eq!(plan.check(&req), Ok(()));
/// assert_eq!(plan.groups.len(), 2);
/// ```
///
/// # Panics
/// Panics if the request's rank count does not match the process map or
/// memory table, or if the configuration is invalid.
pub fn plan(
    req: &CollectiveRequest,
    map: &ProcessMap,
    mem: &ProcMemory,
    cfg: &CollectiveConfig,
) -> CollectivePlan {
    assert_eq!(req.nranks(), map.nranks(), "request/topology rank mismatch");
    assert_eq!(req.nranks(), mem.nranks(), "request/memory rank mismatch");
    cfg.validate().expect("invalid collective configuration");
    debug_assert!(req.is_sorted_disjoint(), "rank extents out of order");

    let groups = group::divide(req, map, cfg.msg_group);
    let mut group_plans = Vec::with_capacity(groups.len());
    let mut diag = PlanDiag::default();
    // Bytes already owned by earlier groups. Ranks of different groups
    // may request overlapping extents; each shared byte is aggregated
    // and written exactly once, by the first group covering it (the
    // overlap is a duplicate by construction — every writer holds the
    // same data for a given file position).
    let mut claimed: Vec<Extent> = Vec::new();
    let mut placer = placement::Placer::default();
    let (mut charged, mut ios) = (Vec::new(), Vec::new());
    let mut grouped = vec![false; req.nranks()];
    for g in &groups {
        // The members' runs lie inside the group's region, so when no
        // claimed byte does, no member holds one either: the exact
        // check, made once for the group instead of once per member.
        let unclaimed = !overlaps_sorted(&g.region, &claimed);
        // This group's share: its region minus what is claimed. Sorted
        // and coalesced, like both operands.
        let region: Cow<[Extent]> = if unclaimed {
            Cow::Borrowed(&g.region)
        } else {
            Cow::Owned(subtract(&g.region, &claimed))
        };
        let bytes_in = |e: &Extent| bytes_in_sorted(&region, e);
        let hull = match (region.first(), region.last()) {
            (Some(f), Some(l)) => Extent::from_bounds(f.offset, l.end()),
            _ => Extent::EMPTY,
        };
        let mut tree = PartitionTree::build(hull, cfg.msg_ind, &bytes_in);
        diag.ptree_leaves += tree.leaf_count();
        let (aggregators, pdiag) = placer.place(g, &mut tree, req, map, mem, cfg);
        diag.remerges += pdiag.remerges;
        diag.relaxations += pdiag.relaxations;

        // Only the group's members shuffle through its windows — regions
        // of different groups may interleave in offset space — and each
        // loses the bytes an earlier group claimed, so overlapped bytes
        // flow through exactly one group. A member that holds none of
        // them (every member, for patterns whose ranks do not overlap)
        // is charged its run as it is; only the others are subtracted
        // into runs of their own. The members' charged runs unite to
        // exactly `region`, which is therefore the cover every window's
        // I/O extents are cut from.
        let mut from = 0;
        for &m in &g.ranks {
            grouped[m.0] = true;
            let rr = &req.ranks[m.0];
            if unclaimed || !overlaps_sorted(&rr.extents, &claimed) {
                charge(m, &rr.extents, &aggregators, &mut from, &mut charged);
            } else {
                let masked = Run::from(subtract(&rr.extents, &claimed));
                charge(m, &masked, &aggregators, &mut from, &mut charged);
            }
        }
        let rounds = cut_rounds(
            req.rw,
            &mut charged,
            &mut ios,
            &aggregators,
            &region,
            SyncMode::PerGroup,
        );

        claimed = union_sorted(&[&claimed, &region]);
        group_plans.push(GroupPlan {
            ranks: g.ranks.clone(),
            aggregators,
            rounds,
        });
    }

    // Ranks belonging to no group (nothing requested) still appear in the
    // plan via an empty trailing group so executors know about them.
    let idle: Vec<Rank> = (0..req.nranks())
        .filter(|&r| !grouped[r])
        .map(Rank)
        .collect();
    if !idle.is_empty() {
        group_plans.push(GroupPlan {
            ranks: idle,
            aggregators: Vec::new(),
            rounds: Vec::new(),
        });
    }

    CollectivePlan {
        rw: req.rw,
        strategy: Strategy::MemoryConscious,
        sync: SyncMode::PerGroup,
        groups: group_plans,
        diag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcio_cluster::Placement;
    use mcio_pfs::Rw;

    fn serial_setup(nranks: usize, nnodes: usize, chunk: u64) -> (CollectiveRequest, ProcessMap) {
        let req = CollectiveRequest::new(
            Rw::Write,
            (0..nranks as u64)
                .map(|r| vec![Extent::new(r * chunk, chunk)])
                .collect(),
        );
        (req, ProcessMap::new(nranks, nnodes, Placement::Block))
    }

    #[test]
    fn serial_pattern_full_pipeline() {
        let (req, map) = serial_setup(8, 4, 100);
        let mem = ProcMemory::uniform(8, 1000);
        let cfg = CollectiveConfig::with_buffer(100)
            .msg_ind(200)
            .msg_group(400)
            .mem_min(0);
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.sync, SyncMode::PerGroup);
        assert_eq!(p.strategy, Strategy::MemoryConscious);
        // 800 bytes / msg_group 400 → 2 groups; each 400 B / msg_ind 200
        // → 2 domains each.
        assert_eq!(p.groups.len(), 2);
        assert_eq!(p.naggs(), 4);
        assert_eq!(p.check(&req), Ok(()));
    }

    #[test]
    fn interleaved_pattern_checks_out() {
        // 4 ranks on 2 nodes, IOR-style interleave: rank r owns 10-byte
        // blocks at (b·4 + r)·10.
        let per_rank: Vec<Vec<Extent>> = (0..4u64)
            .map(|r| {
                (0..5u64)
                    .map(|b| Extent::new((b * 4 + r) * 10, 10))
                    .collect()
            })
            .collect();
        let req = CollectiveRequest::new(Rw::Write, per_rank);
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::uniform(4, 64);
        let cfg = CollectiveConfig::with_buffer(64)
            .msg_ind(100)
            .msg_group(100)
            .mem_min(0);
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.groups.len(), 2);
        assert_eq!(p.check(&req), Ok(()));
        // Shuffle traffic never crosses groups: every message endpoint
        // pair lives in one group.
        for g in &p.groups {
            for r in &g.rounds {
                for m in &r.messages {
                    assert!(g.ranks.contains(&m.src));
                    assert!(g.ranks.contains(&m.dst));
                }
            }
        }
    }

    #[test]
    fn heterogeneous_memory_places_rich_aggregators() {
        let (req, map) = serial_setup(8, 4, 100);
        // Node 0's ranks are starved; node 1's rank 2 is rich, etc.
        let mem = ProcMemory::from_budgets(vec![1, 1, 900, 50, 900, 50, 900, 50]);
        let cfg = CollectiveConfig::with_buffer(100)
            .msg_ind(400)
            .msg_group(u64::MAX)
            .mem_min(100);
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.check(&req), Ok(()));
        for a in p.aggregators() {
            assert!(
                mem.budget(a.rank) >= 100,
                "starved rank {:?} chosen",
                a.rank
            );
        }
    }

    #[test]
    fn read_direction() {
        let (mut req, map) = serial_setup(4, 2, 50);
        req.rw = Rw::Read;
        let mem = ProcMemory::uniform(4, 1000);
        let cfg = CollectiveConfig::with_buffer(50)
            .msg_ind(100)
            .msg_group(100)
            .mem_min(0);
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.check(&req), Ok(()));
        for g in &p.groups {
            let aggs: Vec<Rank> = g.aggregators.iter().map(|a| a.rank).collect();
            for r in &g.rounds {
                for m in &r.messages {
                    assert!(aggs.contains(&m.src), "read messages flow from aggregators");
                }
            }
        }
    }

    #[test]
    fn overlapping_requests_write_each_byte_once() {
        // Rank r writes [r·50, 100): adjacent ranks overlap by half, and
        // the overlap crosses node (hence group) boundaries. Each byte
        // must be aggregated and written by exactly one group.
        let per_rank: Vec<Vec<Extent>> =
            (0..8u64).map(|r| vec![Extent::new(r * 50, 100)]).collect();
        let req = CollectiveRequest::new(Rw::Write, per_rank);
        let map = ProcessMap::new(8, 4, Placement::Block);
        let mem = ProcMemory::uniform(8, 100);
        let cfg = CollectiveConfig::with_buffer(100)
            .msg_ind(100)
            .msg_group(150) // one group per node
            .mem_min(0);
        let p = plan(&req, &map, &mem, &cfg);
        assert!(p.groups.len() > 1, "overlap must span groups");
        assert_eq!(p.check(&req), Ok(()));
    }

    #[test]
    fn empty_request() {
        let req = CollectiveRequest::new(Rw::Write, vec![vec![], vec![]]);
        let map = ProcessMap::new(2, 1, Placement::Block);
        let mem = ProcMemory::uniform(2, 100);
        let p = plan(&req, &map, &mem, &CollectiveConfig::default());
        assert_eq!(p.naggs(), 0);
        assert_eq!(p.check(&req), Ok(()));
        // All ranks appear in the idle group.
        let ranks: usize = p.groups.iter().map(|g| g.ranks.len()).sum();
        assert_eq!(ranks, 2);
    }

    #[test]
    fn idle_ranks_collected() {
        // Rank 3 requests nothing and its node has no data at all.
        let req = CollectiveRequest::new(
            Rw::Write,
            vec![
                vec![Extent::new(0, 10)],
                vec![Extent::new(10, 10)],
                vec![],
                vec![],
            ],
        );
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::uniform(4, 100);
        let cfg = CollectiveConfig::with_buffer(100).mem_min(0);
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.check(&req), Ok(()));
        let all: usize = p.groups.iter().map(|g| g.ranks.len()).sum();
        assert_eq!(all, 4);
    }

    #[test]
    fn buffers_bound_windows() {
        let (req, map) = serial_setup(4, 2, 1000);
        let mem = ProcMemory::from_budgets(vec![64, 999, 64, 999]);
        let cfg = CollectiveConfig::with_buffer(64)
            .msg_ind(2000)
            .msg_group(2000)
            .mem_min(0);
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.check(&req), Ok(()));
        // Multiple rounds per group.
        assert!(p.max_rounds() > 1);
    }

    #[test]
    fn group_stats_show_locality_gain() {
        // With per-node groups, shuffle traffic should be mostly
        // intra-node compared to the global baseline.
        let (req, map) = serial_setup(8, 4, 100);
        let mem = ProcMemory::uniform(8, 1000);
        let cfg = CollectiveConfig::with_buffer(1000)
            .msg_ind(200)
            .msg_group(1) // one group per node
            .mem_min(0);
        let p = plan(&req, &map, &mem, &cfg);
        assert_eq!(p.check(&req), Ok(()));
        let s = p.stats(Some(&map));
        assert!(
            s.intra_node_fraction() > 0.99,
            "per-node groups should shuffle on-node, got {}",
            s.intra_node_fraction()
        );
    }
}
