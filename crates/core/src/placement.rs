//! Aggregators Location (§3.3) with memory-driven remerging (§3.2).
//!
//! For each file domain (partition-tree leaf, in offset order):
//!
//! 1. Collect the **candidate hosts** — nodes of the group's ranks whose
//!    requests intersect the domain, still hosting fewer than `N_ah`
//!    aggregators.
//! 2. Pick the host with **maximum available memory** (`Mem_avl`; here
//!    the largest per-process budget still unclaimed on that host).
//! 3. If `Mem_avl ≥ Mem_min`, the corresponding process becomes the
//!    domain's aggregator.
//! 4. Otherwise the domain is **remerged with the neighboring domain**
//!    (the partition-tree takeover of Figures 5a/5b) and the search
//!    repeats over the enlarged domain — "processes related hosts are
//!    repeatedly inspected ... until the one that satisfies the memory
//!    requirement is identified".
//!
//! When even the last remaining domain cannot satisfy `Mem_min`, the
//! constraint is relaxed and the best available host takes it anyway (the
//! collective must complete; it will just run with more rounds).

use crate::config::{CollectiveConfig, PlacementPolicy};
use crate::group::AggregationGroup;
use crate::memory::ProcMemory;
use crate::plan::AggregatorAssignment;
use crate::ptree::{NodeIdx, PartitionTree};
use crate::request::CollectiveRequest;
use mcio_cluster::{NodeId, ProcessMap, Rank};

/// Counters describing the decisions the placement loop made — how often
/// it had to fall back from the straightforward "pick the richest host"
/// path. Aggregated per plan into [`crate::plan::PlanDiag`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementDiag {
    /// Domains remerged into a neighbor because no candidate host met
    /// `Mem_min` (the partition-tree takeover of §3.2).
    pub remerges: usize,
    /// Last-standing domains placed only after relaxing `Mem_min` and
    /// the `N_ah` cap.
    pub relaxations: usize,
}

/// What placement tracks while it places one group — which ranks
/// aggregate, how many aggregators each node hosts, each leaf's
/// assignment — in vectors indexed by rank, node and tree node. The
/// memory-conscious planner keeps one across the groups of a plan, so
/// that placing a group allocates nothing but the list it returns.
#[derive(Debug, Default)]
pub(crate) struct Placer {
    /// Per rank: already aggregates a domain of this group.
    used: Vec<bool>,
    /// Per node: aggregators it hosts in this group.
    hosted: Vec<usize>,
    /// Per tree node: the assignment of that leaf.
    assigned: Vec<Option<AggregatorAssignment>>,
    leaves: Vec<NodeIdx>,
    /// Candidate hosts of the domain being placed.
    hosts: Vec<NodeId>,
}

impl Placer {
    /// Assign aggregators to the file domains of one group's partition
    /// tree, and count the fallback decisions on the way.
    ///
    /// Consumes the tree (remerges mutate it); returns assignments in
    /// file-domain offset order. Domains holding no requested data get
    /// no aggregator. The buffers are left clear for the next group.
    pub(crate) fn place(
        &mut self,
        group: &AggregationGroup,
        tree: &mut PartitionTree,
        req: &CollectiveRequest,
        map: &ProcessMap,
        mem: &ProcMemory,
        cfg: &CollectiveConfig,
    ) -> (Vec<AggregatorAssignment>, PlacementDiag) {
        let mut diag = PlacementDiag::default();
        self.used.resize(map.nranks(), false);
        self.hosted.resize(map.nnodes(), 0);
        self.assigned.clear();
        self.assigned.resize(tree.node_count(), None);
        let ok = |budget: u64| match cfg.placement {
            PlacementPolicy::MemoryAware => budget >= cfg.mem_min,
            // Blind placement takes whatever it finds.
            PlacementPolicy::FirstCandidate => true,
        };

        // Always (re)scan for the first unassigned data-bearing leaf
        // rather than walking a monotone index: a remerge chain can
        // deposit data into an earlier zero-data leaf (a hole between two
        // dense regions), which must then be placed after all — an index
        // walk would have skipped it for good and lost its bytes.
        loop {
            tree.leaves_into(&mut self.leaves);
            let Some(leaf) = self
                .leaves
                .iter()
                .copied()
                .find(|&l| self.assigned[l].is_none() && tree.data_bytes(l) > 0)
            else {
                break;
            };
            let fd = tree.region(leaf);
            let pick = self.pick_host(group, &fd, req, map, mem, cfg, true);
            let (rank, node, budget) = match pick {
                Some(pick) if ok(pick.2) => pick,
                // Not enough memory anywhere (or every candidate host is
                // at its N_ah cap): remerge with the neighbor and retry.
                _ => match tree.remerge(leaf) {
                    Some(absorbed) => {
                        diag.remerges += 1;
                        if let Some(a) = &mut self.assigned[absorbed] {
                            // The neighbor already has an aggregator; it
                            // inherits the departed domain.
                            a.fd = tree.region(absorbed);
                            a.data_bytes = tree.data_bytes(absorbed);
                        }
                        continue;
                    }
                    None => {
                        // Last domain standing: relax Mem_min (and, if
                        // necessary, the N_ah cap) — the collective must
                        // complete.
                        diag.relaxations += 1;
                        self.pick_host(group, &fd, req, map, mem, cfg, false)
                            .or_else(|| best_in_group(group, mem, &self.used, map))
                            .expect("group has at least one rank")
                    }
                },
            };
            self.used[rank.0] = true;
            self.hosted[node.0] += 1;
            self.assigned[leaf] = Some(AggregatorAssignment {
                rank,
                fd,
                buffer: budget.max(1),
                data_bytes: tree.data_bytes(leaf),
            });
        }

        // Emit in file-domain order.
        tree.leaves_into(&mut self.leaves);
        let aggs: Vec<AggregatorAssignment> = self
            .leaves
            .iter()
            .filter_map(|&l| self.assigned[l].take())
            .collect();
        for a in &aggs {
            self.used[a.rank.0] = false;
            self.hosted[map.node_of(a.rank).0] = 0;
        }
        (aggs, diag)
    }

    /// Best candidate `(rank, host, budget)` for a file domain, or `None`
    /// when no host qualifies (under the `N_ah` cap, when `capped`).
    ///
    /// Candidates are the hosts of the group's ranks with data in `fd`;
    /// the score of a host is the largest budget among its group ranks
    /// not yet serving as aggregators (a rank aggregates at most one
    /// domain).
    #[allow(clippy::too_many_arguments)]
    fn pick_host(
        &mut self,
        group: &AggregationGroup,
        fd: &mcio_pfs::Extent,
        req: &CollectiveRequest,
        map: &ProcessMap,
        mem: &ProcMemory,
        cfg: &CollectiveConfig,
        capped: bool,
    ) -> Option<(Rank, NodeId, u64)> {
        self.hosts.clear();
        self.hosts.extend(
            group
                .ranks
                .iter()
                .filter(|&&r| req.ranks[r.0].touches(fd))
                .map(|&r| map.node_of(r)),
        );
        self.hosts.sort_unstable();
        self.hosts.dedup();

        let mut best: Option<(Rank, NodeId, u64)> = None;
        for &host in &self.hosts {
            if capped && self.hosted[host.0] >= cfg.nah {
                continue;
            }
            // Mem_avl of the host: its best unclaimed process budget —
            // or, under blind placement, just the first unclaimed rank
            // (ROMIO's static habit).
            let eligible = map
                .ranks_on(host)
                .iter()
                .filter(|r| group.ranks.binary_search(r).is_ok() && !self.used[r.0])
                .map(|&r| (mem.budget(r), r));
            let claim = match cfg.placement {
                PlacementPolicy::MemoryAware => {
                    eligible.max_by_key(|&(b, r)| (b, std::cmp::Reverse(r.0)))
                }
                PlacementPolicy::FirstCandidate => eligible.min_by_key(|&(_, r)| r.0),
            };
            if let Some((budget, rank)) = claim {
                match cfg.placement {
                    PlacementPolicy::MemoryAware => {
                        let better = match best {
                            None => true,
                            Some((_, _, b)) => budget > b,
                        };
                        if better {
                            best = Some((rank, host, budget));
                        }
                    }
                    // Blind: the first candidate host in node order wins.
                    PlacementPolicy::FirstCandidate => {
                        if best.is_none() {
                            best = Some((rank, host, budget));
                        }
                    }
                }
            }
        }
        best
    }
}

/// Unconditional fallback: the group's highest-budget unclaimed rank.
fn best_in_group(
    group: &AggregationGroup,
    mem: &ProcMemory,
    used: &[bool],
    map: &ProcessMap,
) -> Option<(Rank, NodeId, u64)> {
    group
        .ranks
        .iter()
        .filter(|r| !used[r.0])
        .map(|&r| (mem.budget(r), r))
        .max_by_key(|&(b, r)| (b, std::cmp::Reverse(r.0)))
        .map(|(b, r)| (r, map.node_of(r), b))
        .or_else(|| {
            // Every rank already aggregates: reuse the highest-budget one.
            group
                .ranks
                .iter()
                .map(|&r| (mem.budget(r), r))
                .max_by_key(|&(b, r)| (b, std::cmp::Reverse(r.0)))
                .map(|(b, r)| (r, map.node_of(r), b))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group;
    use mcio_cluster::Placement;
    use mcio_pfs::extent::bytes_in_sorted;
    use mcio_pfs::{Extent, Rw};

    /// 4 ranks on 2 nodes, serial 100-byte chunks.
    fn setup(budgets: Vec<u64>) -> (CollectiveRequest, ProcessMap, ProcMemory) {
        let req = CollectiveRequest::new(
            Rw::Write,
            (0..4u64).map(|r| vec![Extent::new(r * 100, 100)]).collect(),
        );
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::from_budgets(budgets);
        (req, map, mem)
    }

    fn place(
        group: &AggregationGroup,
        tree: &mut PartitionTree,
        req: &CollectiveRequest,
        map: &ProcessMap,
        mem: &ProcMemory,
        cfg: &CollectiveConfig,
    ) -> Vec<AggregatorAssignment> {
        Placer::default().place(group, tree, req, map, mem, cfg).0
    }

    fn build_tree(g: &AggregationGroup, msg_ind: u64) -> PartitionTree {
        let bytes_in = |e: &Extent| bytes_in_sorted(&g.region, e);
        PartitionTree::build(g.hull(), msg_ind, &bytes_in)
    }

    #[test]
    fn picks_memory_rich_host() {
        let (req, map, mem) = setup(vec![10, 10, 500, 500]);
        let groups = group::divide(&req, &map, u64::MAX);
        let mut tree = build_tree(&groups[0], u64::MAX); // single domain
        let cfg = CollectiveConfig::with_buffer(100).mem_min(50);
        let aggs = place(&groups[0], &mut tree, &req, &map, &mem, &cfg);
        assert_eq!(aggs.len(), 1);
        // Node 1 hosts the big budgets; rank 2 (first max) is chosen.
        assert_eq!(aggs[0].rank, Rank(2));
        assert_eq!(aggs[0].buffer, 500);
        assert_eq!(aggs[0].fd, Extent::new(0, 400));
        assert_eq!(aggs[0].data_bytes, 400);
    }

    #[test]
    fn two_domains_two_hosts() {
        let (req, map, mem) = setup(vec![300, 100, 300, 100]);
        let groups = group::divide(&req, &map, u64::MAX);
        let mut tree = build_tree(&groups[0], 200); // splits into two
        let cfg = CollectiveConfig::with_buffer(100).mem_min(50).msg_ind(200);
        let aggs = place(&groups[0], &mut tree, &req, &map, &mem, &cfg);
        assert_eq!(aggs.len(), 2);
        // Domain [0,200): candidates node0 (ranks 0,1) and ... rank data:
        // ranks 0,1 live there; node 0's best is rank 0 (300).
        assert_eq!(aggs[0].rank, Rank(0));
        // Domain [200,400): ranks 2,3 on node 1; best is rank 2.
        assert_eq!(aggs[1].rank, Rank(2));
    }

    #[test]
    fn nah_caps_aggregators_per_host() {
        // All data on node 0's ranks; node 0 budgets huge. With nah=1 the
        // second domain must go to node 1 (whose ranks also touch it).
        let req = CollectiveRequest::new(
            Rw::Write,
            vec![
                vec![Extent::new(0, 200)],
                vec![Extent::new(200, 200)],
                vec![Extent::new(100, 50)], // node 1 rank touches domain 0 & 1
                vec![Extent::new(250, 50)],
            ],
        );
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::from_budgets(vec![1000, 900, 10, 10]);
        let groups = group::divide(&req, &map, u64::MAX);
        let mut tree = build_tree(&groups[0], 250);
        let cfg = CollectiveConfig::with_buffer(100)
            .mem_min(5)
            .msg_ind(250)
            .nah(1);
        let aggs = place(&groups[0], &mut tree, &req, &map, &mem, &cfg);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].rank, Rank(0)); // node 0, budget 1000
                                           // Node 0 is at its cap; node 1 hosts the second domain.
        assert_eq!(map.node_of(aggs[1].rank), NodeId(1));
    }

    #[test]
    fn memory_starved_domain_remerges() {
        // Two domains; ranks of the second have < mem_min budgets, and
        // the first domain's host has plenty → the domains merge and the
        // rich rank aggregates everything.
        let req = CollectiveRequest::new(
            Rw::Write,
            vec![
                vec![Extent::new(0, 200)],
                vec![],
                vec![Extent::new(200, 200)],
                vec![],
            ],
        );
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::from_budgets(vec![1000, 1000, 20, 20]);
        let groups = group::divide(&req, &map, u64::MAX);
        let mut tree = build_tree(&groups[0], 200);
        assert_eq!(tree.leaf_count(), 2);
        let cfg = CollectiveConfig::with_buffer(100).mem_min(100).msg_ind(200);
        let aggs = place(&groups[0], &mut tree, &req, &map, &mem, &cfg);
        // Domain [200,400)'s only candidate host (node 1) is too poor;
        // it remerges into domain [0,200) whose aggregator (rank 0)
        // inherits the full region.
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].rank, Rank(0));
        assert_eq!(aggs[0].fd, Extent::new(0, 400));
        assert_eq!(aggs[0].data_bytes, 400);
    }

    #[test]
    fn all_starved_relaxes_mem_min() {
        let (req, map, mem) = setup(vec![5, 5, 8, 6]);
        let groups = group::divide(&req, &map, u64::MAX);
        let mut tree = build_tree(&groups[0], 100);
        let cfg = CollectiveConfig::with_buffer(100).mem_min(1_000_000);
        let aggs = place(&groups[0], &mut tree, &req, &map, &mem, &cfg);
        // Everything merged into one domain, taken by the richest rank.
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].rank, Rank(2));
        assert_eq!(aggs[0].fd, Extent::new(0, 400));
    }

    #[test]
    fn diag_counts_remerges_and_relaxations() {
        // The memory-starved two-domain layout: one remerge, no relaxing.
        let req = CollectiveRequest::new(
            Rw::Write,
            vec![
                vec![Extent::new(0, 200)],
                vec![],
                vec![Extent::new(200, 200)],
                vec![],
            ],
        );
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::from_budgets(vec![1000, 1000, 20, 20]);
        let groups = group::divide(&req, &map, u64::MAX);
        let mut tree = build_tree(&groups[0], 200);
        let cfg = CollectiveConfig::with_buffer(100).mem_min(100).msg_ind(200);
        let (aggs, diag) = Placer::default().place(&groups[0], &mut tree, &req, &map, &mem, &cfg);
        assert_eq!(aggs.len(), 1);
        assert_eq!(diag.remerges, 1);
        assert_eq!(diag.relaxations, 0);

        // Everyone starved: the chain of remerges ends in one relaxation.
        let (req, map, mem) = setup(vec![5, 5, 8, 6]);
        let groups = group::divide(&req, &map, u64::MAX);
        let mut tree = build_tree(&groups[0], 100);
        let cfg = CollectiveConfig::with_buffer(100).mem_min(1_000_000);
        let (aggs, diag) = Placer::default().place(&groups[0], &mut tree, &req, &map, &mem, &cfg);
        assert_eq!(aggs.len(), 1);
        assert!(diag.remerges >= 1);
        assert_eq!(diag.relaxations, 1);
    }

    #[test]
    fn empty_domains_get_no_aggregator() {
        // Data only in [0,100) but hull stretches to 400 via rank 3.
        let req = CollectiveRequest::new(
            Rw::Write,
            vec![
                vec![Extent::new(0, 100)],
                vec![],
                vec![],
                vec![Extent::new(300, 100)],
            ],
        );
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::from_budgets(vec![100; 4]);
        let groups = group::divide(&req, &map, u64::MAX);
        let mut tree = build_tree(&groups[0], 100);
        let cfg = CollectiveConfig::with_buffer(100).mem_min(0).msg_ind(100);
        let aggs = place(&groups[0], &mut tree, &req, &map, &mem, &cfg);
        // Middle (hole) domains produce no aggregators.
        assert!(aggs.len() <= 2, "got {}", aggs.len());
        let covered: u64 = aggs.iter().map(|a| a.data_bytes).sum();
        assert_eq!(covered, 200);
    }

    #[test]
    fn hole_leaf_filled_by_remerge_still_gets_placed() {
        // Two dense regions separated by a large hole, all on one node
        // with nah so small that most domains starve. The starved
        // right-side domains remerge leftward *through the hole leaf*:
        // the hole gains their data and must then be placed (or merged
        // onward) rather than staying silently skipped.
        let per_rank: Vec<Vec<Extent>> = (0..4u64)
            .map(|r| {
                vec![
                    Extent::new(r * 100, 100),
                    Extent::new(10_000 + r * 100, 100),
                ]
            })
            .collect();
        let req = CollectiveRequest::new(Rw::Write, per_rank);
        let map = ProcessMap::new(4, 1, Placement::Block);
        let mem = ProcMemory::from_budgets(vec![100; 4]);
        let groups = group::divide(&req, &map, u64::MAX);
        assert_eq!(groups.len(), 1);
        let mut tree = build_tree(&groups[0], 100);
        let cfg = CollectiveConfig::with_buffer(100)
            .mem_min(0)
            .msg_ind(100)
            .nah(2);
        let aggs = place(&groups[0], &mut tree, &req, &map, &mem, &cfg);
        let covered: u64 = aggs.iter().map(|a| a.data_bytes).sum();
        assert_eq!(covered, 800, "every requested byte has an aggregator");
        // Domains still tile without overlap in offset order.
        for w in aggs.windows(2) {
            assert!(w[0].fd.end() <= w[1].fd.offset);
        }
    }

    #[test]
    fn distinct_ranks_per_domain() {
        // More domains than any rule would break: each aggregator rank is
        // used at most once.
        let (req, map, mem) = setup(vec![100, 90, 80, 70]);
        let groups = group::divide(&req, &map, u64::MAX);
        let mut tree = build_tree(&groups[0], 100);
        let cfg = CollectiveConfig::with_buffer(100)
            .mem_min(0)
            .msg_ind(100)
            .nah(2);
        let aggs = place(&groups[0], &mut tree, &req, &map, &mem, &cfg);
        let mut ranks: Vec<Rank> = aggs.iter().map(|a| a.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), aggs.len());
    }
}
