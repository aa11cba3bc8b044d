//! Property-based structural invariants of the planners, the group
//! division, and the partition tree, over randomized workloads,
//! topologies and memory environments.

use mcio::cluster::{Placement, ProcessMap};
use mcio::core::group;
use mcio::core::mcio as mc;
use mcio::core::ptree::PartitionTree;
use mcio::core::{twophase, CollectiveConfig, ProcMemory};
use mcio::pfs::extent::{coalesce, total_bytes};
use mcio::pfs::{Extent, Rw};
use mcio::workloads::synthetic;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both planners satisfy `CollectivePlan::check` on random inputs.
    #[test]
    fn planners_satisfy_invariants(
        seed in 0u64..10_000,
        nranks in 2usize..16,
        ppn in 1usize..5,
        bursts in 0usize..10,
        buf in 128u64..4096,
        mem_min_frac in 0u64..4,
    ) {
        let file_len = 100_000u64;
        let req = synthetic::random_bursts(
            Rw::Write, nranks, bursts, 8, 1500, file_len, seed, false,
        );
        let map = ProcessMap::block_ppn(nranks, ppn);
        let mem = ProcMemory::normal(nranks, buf, 0.5, seed);
        let cfg = CollectiveConfig::with_buffer(buf)
            .msg_group(file_len / 4)
            .msg_ind(file_len / 9)
            .mem_min(buf * mem_min_frac / 4);
        let tp = twophase::plan(&req, &map, &mem, &cfg);
        prop_assert_eq!(tp.check(&req), Ok(()));
        let mc_plan = mc::plan(&req, &map, &mem, &cfg);
        prop_assert_eq!(mc_plan.check(&req), Ok(()));
        // Every aggregator buffer is a real budget.
        for a in mc_plan.aggregators() {
            prop_assert!(a.buffer <= mem.budget(a.rank).max(1));
        }
    }

    /// Group division: ranks partition, regions disjoint, coverage
    /// preserved, thresholds respected.
    #[test]
    fn group_division_properties(
        seed in 0u64..10_000,
        nranks in 2usize..20,
        ppn in 1usize..5,
        msg_group in 1u64..60_000,
    ) {
        let file_len = 80_000u64;
        let req = synthetic::random_bursts(
            Rw::Write, nranks, 6, 8, 1200, file_len, seed, false,
        );
        let map = ProcessMap::block_ppn(nranks, ppn);
        let groups = group::divide(&req, &map, msg_group);

        // Ranks appear in at most one group; nodes never split.
        let mut seen_ranks = std::collections::HashSet::new();
        let mut seen_nodes = std::collections::HashSet::new();
        for g in &groups {
            for r in &g.ranks {
                prop_assert!(seen_ranks.insert(*r), "rank {r} in two groups");
            }
            for n in &g.nodes {
                prop_assert!(seen_nodes.insert(*n), "node {n} in two groups");
            }
        }
        // Regions are pairwise disjoint and cover the request exactly.
        let mut all: Vec<Extent> = Vec::new();
        let mut total = 0u64;
        for g in &groups {
            total += g.bytes;
            all.extend(g.region.iter().copied());
        }
        prop_assert_eq!(total, req.total_bytes());
        let covered = coalesce(all.clone());
        prop_assert_eq!(total_bytes(&covered), total_bytes(&all), "group regions overlap");
        prop_assert_eq!(covered, req.coverage());
        // All but the last group meet the threshold.
        for g in groups.iter().rev().skip(1) {
            prop_assert!(g.bytes >= msg_group);
        }
    }

    /// Partition tree: leaves tile exactly, respect the data criterion,
    /// and survive arbitrary remerge sequences.
    #[test]
    fn partition_tree_properties(
        offset in 0u64..1000,
        len in 1u64..100_000,
        msg_ind in 1u64..10_000,
        data_lo in 0u64..50_000,
        data_len in 0u64..100_000,
        remerges in proptest::collection::vec(0usize..32, 0..12),
    ) {
        let region = Extent::new(offset, len);
        let data = Extent::new(offset + data_lo.min(len), data_len.min(len));
        let bytes_in = move |e: &Extent| e.intersect(&data).map_or(0, |x| x.len);
        let mut tree = PartitionTree::build(region, msg_ind, &bytes_in);
        tree.check_tiling().expect("fresh tree tiles");
        // Criterion: every leaf holds at most msg_ind data bytes or is a
        // single byte.
        for l in tree.leaves() {
            let r = tree.region(l);
            prop_assert!(tree.data_bytes(l) <= msg_ind.max(1) || r.len < 2);
        }
        let total_data: u64 = tree.leaves().iter().map(|&l| tree.data_bytes(l)).sum();
        // Arbitrary remerges keep the tiling and conserve data bytes.
        for pick in remerges {
            let leaves = tree.leaves();
            if leaves.len() <= 1 {
                break;
            }
            let victim = leaves[pick % leaves.len()];
            let absorbed = tree.remerge(victim).expect("non-last leaf remerges");
            prop_assert!(tree.is_leaf(absorbed));
            tree.check_tiling().expect("tiling after remerge");
            let now: u64 = tree.leaves().iter().map(|&l| tree.data_bytes(l)).sum();
            prop_assert_eq!(now, total_data);
        }
    }

    /// The two-phase file domains tile the hull and respect buffers.
    #[test]
    fn twophase_domains_tile(
        seed in 0u64..10_000,
        nranks in 2usize..12,
        buf in 64u64..4096,
    ) {
        let req = synthetic::random_bursts(
            Rw::Write, nranks, 5, 16, 900, 50_000, seed, false,
        );
        let map = ProcessMap::new(nranks, nranks.div_ceil(2), Placement::Block);
        let mem = ProcMemory::uniform(nranks, buf);
        let cfg = CollectiveConfig::with_buffer(buf).mem_min(0);
        let plan = twophase::plan(&req, &map, &mem, &cfg);
        let hull = req.hull();
        if hull.is_empty() {
            return Ok(());
        }
        let mut pos = hull.offset;
        for a in plan.aggregators() {
            prop_assert_eq!(a.fd.offset, pos);
            pos = a.fd.end();
            prop_assert!(a.buffer <= buf);
        }
        prop_assert_eq!(pos, hull.end());
    }
}
