//! Process-to-node placement.
//!
//! The collective I/O layer constantly asks two questions: *which node
//! hosts rank r?* (aggregator placement compares hosts' memory) and *which
//! ranks live on node n?* (group division aligns groups to node
//! boundaries). [`ProcessMap`] answers both in O(1)/O(ranks-per-node).

use crate::{NodeId, Rank};

/// How consecutive ranks are laid out over nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Ranks 0..k on node 0, k..2k on node 1, ... (MPICH default for
    /// `-ppn`): the layout the paper's Figure 4 assumes.
    Block,
    /// Rank r on node r mod n.
    RoundRobin,
}

/// An immutable mapping of `nranks` ranks onto `nnodes` nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcessMap {
    node_of: Vec<NodeId>,
    ranks_on: Vec<Vec<Rank>>,
    placement: Placement,
}

impl ProcessMap {
    /// Place `nranks` ranks onto `nnodes` nodes with the given policy.
    ///
    /// With [`Placement::Block`], ranks are split as evenly as possible:
    /// the first `nranks % nnodes` nodes receive one extra rank.
    ///
    /// # Panics
    /// Panics if `nnodes == 0` while `nranks > 0`.
    pub fn new(nranks: usize, nnodes: usize, placement: Placement) -> Self {
        assert!(
            nranks == 0 || nnodes > 0,
            "cannot place {nranks} ranks on zero nodes"
        );
        let mut node_of = Vec::with_capacity(nranks);
        let mut ranks_on = vec![Vec::new(); nnodes];
        match placement {
            Placement::Block => {
                if nranks > 0 {
                    let base = nranks / nnodes;
                    let extra = nranks % nnodes;
                    let mut rank = 0usize;
                    for (node, on_node) in ranks_on.iter_mut().enumerate() {
                        let count = base + usize::from(node < extra);
                        for _ in 0..count {
                            node_of.push(NodeId(node));
                            on_node.push(Rank(rank));
                            rank += 1;
                        }
                    }
                    debug_assert_eq!(rank, nranks);
                }
            }
            Placement::RoundRobin => {
                for rank in 0..nranks {
                    let node = rank % nnodes;
                    node_of.push(NodeId(node));
                    ranks_on[node].push(Rank(rank));
                }
            }
        }
        ProcessMap {
            node_of,
            ranks_on,
            placement,
        }
    }

    /// A block placement with exactly `ppn` ranks per node (the common
    /// benchmark configuration, e.g. 120 ranks = 10 nodes × 12).
    pub fn block_ppn(nranks: usize, ppn: usize) -> Self {
        assert!(ppn > 0, "ranks per node must be positive");
        let nnodes = nranks.div_ceil(ppn);
        Self::new(nranks, nnodes, Placement::Block)
    }

    /// The same placement shifted onto nodes `offset..offset + nnodes`:
    /// rank `r` moves from node `n` to node `offset + n`, and nodes
    /// `0..offset` are part of the map but host no ranks. This is how a
    /// multi-tenant run carves a machine into per-job partitions —
    /// each job plans against its local `0..nnodes` map and is shifted
    /// onto its slice of the shared fabric at lowering time. An offset
    /// of `0` returns an identical map.
    pub fn with_node_offset(&self, offset: usize) -> Self {
        if offset == 0 {
            return self.clone();
        }
        let node_of = self.node_of.iter().map(|n| NodeId(n.0 + offset)).collect();
        let mut ranks_on = vec![Vec::new(); offset];
        ranks_on.extend(self.ranks_on.iter().cloned());
        Self {
            node_of,
            ranks_on,
            placement: self.placement,
        }
    }

    /// Number of ranks in the job.
    pub fn nranks(&self) -> usize {
        self.node_of.len()
    }

    /// Number of nodes in the job (including any left empty).
    pub fn nnodes(&self) -> usize {
        self.ranks_on.len()
    }

    /// The placement policy used.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: Rank) -> NodeId {
        self.node_of[rank.0]
    }

    /// Ranks hosted on `node`, in ascending order.
    pub fn ranks_on(&self, node: NodeId) -> &[Rank] {
        &self.ranks_on[node.0]
    }

    /// Iterate `(rank, node)` pairs in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (Rank, NodeId)> + '_ {
        self.node_of.iter().enumerate().map(|(r, &n)| (Rank(r), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_even_split() {
        let map = ProcessMap::new(12, 3, Placement::Block);
        assert_eq!(map.nranks(), 12);
        assert_eq!(map.nnodes(), 3);
        assert_eq!(map.node_of(Rank(0)), NodeId(0));
        assert_eq!(map.node_of(Rank(3)), NodeId(0));
        assert_eq!(map.node_of(Rank(4)), NodeId(1));
        assert_eq!(map.node_of(Rank(11)), NodeId(2));
        assert_eq!(
            map.ranks_on(NodeId(1)),
            &[Rank(4), Rank(5), Rank(6), Rank(7)]
        );
    }

    #[test]
    fn block_uneven_split_front_loads() {
        let map = ProcessMap::new(10, 3, Placement::Block);
        // 4 + 3 + 3.
        assert_eq!(map.ranks_on(NodeId(0)).len(), 4);
        assert_eq!(map.ranks_on(NodeId(1)).len(), 3);
        assert_eq!(map.ranks_on(NodeId(2)).len(), 3);
        // Every rank appears exactly once.
        let mut seen = [false; 10];
        for n in 0..3 {
            for r in map.ranks_on(NodeId(n)) {
                assert!(!seen[r.0]);
                seen[r.0] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn round_robin() {
        let map = ProcessMap::new(7, 3, Placement::RoundRobin);
        assert_eq!(map.node_of(Rank(0)), NodeId(0));
        assert_eq!(map.node_of(Rank(1)), NodeId(1));
        assert_eq!(map.node_of(Rank(5)), NodeId(2));
        assert_eq!(map.ranks_on(NodeId(0)), &[Rank(0), Rank(3), Rank(6)]);
    }

    #[test]
    fn block_ppn_shapes() {
        let map = ProcessMap::block_ppn(120, 12);
        assert_eq!(map.nnodes(), 10);
        for n in 0..10 {
            assert_eq!(map.ranks_on(NodeId(n)).len(), 12);
        }
        // Non-divisible: 10 ranks, ppn 4 → 3 nodes.
        let map = ProcessMap::block_ppn(10, 4);
        assert_eq!(map.nnodes(), 3);
    }

    #[test]
    fn empty_job() {
        let map = ProcessMap::new(0, 0, Placement::Block);
        assert_eq!(map.nranks(), 0);
        assert_eq!(map.nnodes(), 0);
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn ranks_without_nodes_panics() {
        ProcessMap::new(4, 0, Placement::Block);
    }

    #[test]
    fn iter_visits_in_rank_order() {
        let map = ProcessMap::new(5, 2, Placement::Block);
        let pairs: Vec<_> = map.iter().collect();
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[0], (Rank(0), NodeId(0)));
        assert_eq!(pairs[4], (Rank(4), NodeId(1)));
    }
}
