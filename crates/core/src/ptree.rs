//! The binary partition tree of the I/O Workload Partition component
//! (§3.2) and its remerge operations (Figures 5a/5b).
//!
//! The file region requested by one aggregation group is recursively
//! bisected until each leaf — a prospective **file domain** — holds at
//! most `Msg_ind` requested bytes ("the termination criterion"). Leaves
//! tile the region exactly and in offset order.
//!
//! When the Workload Portion Remerging component finds that no candidate
//! host of a leaf has enough memory, the leaf *leaves the tree* and its
//! region is taken over by the neighboring leaf:
//!
//! * **Case 1 (Fig 5a)** — the sibling is also a leaf: the two merge; the
//!   former parent becomes the leaf.
//! * **Case 2 (Fig 5b)** — the sibling is internal: a DFS into the
//!   sibling's subtree (visiting the side adjacent to the departing leaf
//!   first) finds the neighbor leaf, which absorbs the region; the parent
//!   is spliced out of the tree.

use mcio_pfs::Extent;

/// Index of a node in the tree arena.
pub type NodeIdx = usize;

#[derive(Debug, Clone)]
struct PNode {
    region: Extent,
    parent: Option<NodeIdx>,
    /// `(left, right)` children; `None` for leaves.
    children: Option<(NodeIdx, NodeIdx)>,
    /// Requested bytes inside `region` at build time.
    data_bytes: u64,
    /// Spliced out by a remerge.
    removed: bool,
}

/// The binary partition tree of one aggregation group's file region.
#[derive(Debug, Clone)]
pub struct PartitionTree {
    nodes: Vec<PNode>,
    root: NodeIdx,
    /// The full region the tree covers (invariant under remerges, even
    /// when a root splice replaces the root node).
    span: Extent,
}

impl PartitionTree {
    /// Recursively bisect `region` until every leaf holds at most
    /// `msg_ind` requested bytes (per `bytes_in`) or is a single byte.
    ///
    /// ```
    /// use mcio_core::ptree::PartitionTree;
    /// use mcio_pfs::Extent;
    ///
    /// // A dense 4 KiB region with 1 KiB file domains.
    /// let dense = |e: &Extent| e.len;
    /// let mut tree = PartitionTree::build(Extent::new(0, 4096), 1024, &dense);
    /// assert_eq!(tree.leaf_count(), 4);
    /// // Remerge the first domain into its neighbor (Fig 5a/5b).
    /// let victim = tree.leaves()[0];
    /// let absorbed = tree.remerge(victim).unwrap();
    /// assert_eq!(tree.region(absorbed), Extent::new(0, 2048));
    /// tree.check_tiling().unwrap();
    /// ```
    ///
    /// `bytes_in` reports the requested data inside an extent — the
    /// group's coalesced region intersected with it.
    pub fn build(region: Extent, msg_ind: u64, bytes_in: &dyn Fn(&Extent) -> u64) -> Self {
        let msg_ind = msg_ind.max(1);
        let mut tree = PartitionTree {
            nodes: Vec::new(),
            root: 0,
            span: region,
        };
        let root_bytes = bytes_in(&region);
        tree.nodes.push(PNode {
            region,
            parent: None,
            children: None,
            data_bytes: root_bytes,
            removed: false,
        });
        tree.split_recursive(0, msg_ind, bytes_in);
        tree
    }

    fn split_recursive(&mut self, idx: NodeIdx, msg_ind: u64, bytes_in: &dyn Fn(&Extent) -> u64) {
        let region = self.nodes[idx].region;
        if self.nodes[idx].data_bytes <= msg_ind || region.len < 2 {
            return;
        }
        let mid = region.offset + region.len / 2;
        let (left_r, right_r) = region.split_at(mid);
        let left = self.push_child(idx, left_r, bytes_in(&left_r));
        let right = self.push_child(idx, right_r, bytes_in(&right_r));
        self.nodes[idx].children = Some((left, right));
        self.split_recursive(left, msg_ind, bytes_in);
        self.split_recursive(right, msg_ind, bytes_in);
    }

    fn push_child(&mut self, parent: NodeIdx, region: Extent, data_bytes: u64) -> NodeIdx {
        let idx = self.nodes.len();
        self.nodes.push(PNode {
            region,
            parent: Some(parent),
            children: None,
            data_bytes,
            removed: false,
        });
        idx
    }

    /// The region the whole tree covers (invariant under remerges).
    pub fn root_region(&self) -> Extent {
        self.span
    }

    /// True when `idx` is a live leaf.
    pub fn is_leaf(&self, idx: NodeIdx) -> bool {
        !self.nodes[idx].removed && self.nodes[idx].children.is_none()
    }

    /// The (possibly extended) region of a node.
    pub fn region(&self, idx: NodeIdx) -> Extent {
        self.nodes[idx].region
    }

    /// Requested bytes recorded at build time for a node (leaf regions
    /// extended by remerges keep their sum via
    /// [`PartitionTree::remerge`]).
    pub fn data_bytes(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].data_bytes
    }

    /// Live leaves in file-offset order: the current file domains.
    pub fn leaves(&self) -> Vec<NodeIdx> {
        let mut out = Vec::new();
        self.leaves_into(&mut out);
        out
    }

    /// [`PartitionTree::leaves`] into `out`, which is cleared first.
    pub(crate) fn leaves_into(&self, out: &mut Vec<NodeIdx>) {
        out.clear();
        self.collect_leaves(self.root, out);
    }

    /// One more than the largest node index: the length of a table
    /// indexed by [`NodeIdx`].
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn collect_leaves(&self, idx: NodeIdx, out: &mut Vec<NodeIdx>) {
        if self.nodes[idx].removed {
            return;
        }
        match self.nodes[idx].children {
            None => out.push(idx),
            Some((l, r)) => {
                self.collect_leaves(l, out);
                self.collect_leaves(r, out);
            }
        }
    }

    /// Number of live leaves.
    pub fn leaf_count(&self) -> usize {
        self.count_leaves(self.root)
    }

    fn count_leaves(&self, idx: NodeIdx) -> usize {
        match self.nodes[idx].children {
            _ if self.nodes[idx].removed => 0,
            None => 1,
            Some((l, r)) => self.count_leaves(l) + self.count_leaves(r),
        }
    }

    /// Remove leaf `idx` from the tree; its region (and data byte count)
    /// is absorbed by the neighboring leaf, which is returned. Returns
    /// `None` when `idx` is the only leaf (nothing can absorb it).
    ///
    /// # Panics
    /// Panics if `idx` is not a live leaf.
    pub fn remerge(&mut self, idx: NodeIdx) -> Option<NodeIdx> {
        assert!(self.is_leaf(idx), "remerge target must be a live leaf");
        let parent = self.nodes[idx].parent?;
        let (left, right) = self.nodes[parent]
            .children
            .expect("parent of a leaf has children");
        let is_left = left == idx;
        let sibling = if is_left { right } else { left };

        let absorbed_region = self.nodes[idx].region;
        let absorbed_bytes = self.nodes[idx].data_bytes;

        if self.nodes[sibling].children.is_none() {
            // Case 1 (Fig 5a): sibling B is a leaf. B takes over A
            // directly — their former parent's position is assigned to B
            // (B is spliced up, keeping its identity so callers' per-leaf
            // state survives), and B's region covers both.
            self.nodes[sibling].region = absorbed_region.hull(&self.nodes[sibling].region);
            self.nodes[sibling].data_bytes += absorbed_bytes;
            let gp = self.nodes[parent].parent;
            self.nodes[sibling].parent = gp;
            match gp {
                Some(g) => {
                    let (gl, gr) = self.nodes[g].children.expect("grandparent is internal");
                    if gl == parent {
                        self.nodes[g].children = Some((sibling, gr));
                    } else {
                        self.nodes[g].children = Some((gl, sibling));
                    }
                }
                None => self.root = sibling,
            }
            self.nodes[idx].removed = true;
            self.nodes[parent].removed = true;
            Some(sibling)
        } else {
            // Case 2 (Fig 5b): DFS into the sibling subtree, visiting the
            // side adjacent to the departing leaf first.
            let neighbor = self.extreme_leaf(sibling, is_left);
            self.nodes[neighbor].region = self.nodes[neighbor].region.hull(&absorbed_region);
            self.nodes[neighbor].data_bytes += absorbed_bytes;
            // Splice the parent out: the sibling takes its place.
            let gp = self.nodes[parent].parent;
            self.nodes[sibling].parent = gp;
            match gp {
                Some(g) => {
                    let (gl, gr) = self.nodes[g].children.expect("grandparent is internal");
                    if gl == parent {
                        self.nodes[g].children = Some((sibling, gr));
                    } else {
                        self.nodes[g].children = Some((gl, sibling));
                    }
                }
                None => self.root = sibling,
            }
            self.nodes[idx].removed = true;
            self.nodes[parent].removed = true;
            Some(neighbor)
        }
    }

    /// Leftmost (`left = true`) or rightmost live leaf of a subtree.
    fn extreme_leaf(&self, idx: NodeIdx, left: bool) -> NodeIdx {
        match self.nodes[idx].children {
            None => idx,
            Some((l, r)) => self.extreme_leaf(if left { l } else { r }, left),
        }
    }

    /// Check the tiling invariant: live leaf regions are non-empty*,
    /// disjoint, in offset order, and cover the root region exactly.
    /// (*zero-length leaves can only arise from a zero-length root.)
    pub fn check_tiling(&self) -> Result<(), String> {
        let leaves = self.leaves();
        let root = self.root_region();
        if root.is_empty() {
            return Ok(());
        }
        let mut pos = root.offset;
        for &l in &leaves {
            let r = self.region(l);
            if r.offset != pos {
                return Err(format!(
                    "leaf {l} starts at {} but previous coverage ended at {pos}",
                    r.offset
                ));
            }
            pos = r.end();
        }
        if pos != root.end() {
            return Err(format!(
                "leaves end at {pos}, root region ends at {}",
                root.end()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bytes_in` treating the whole region as dense data.
    fn dense(e: &Extent) -> u64 {
        e.len
    }

    #[test]
    fn no_split_when_small() {
        let t = PartitionTree::build(Extent::new(0, 100), 100, &dense);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.region(t.leaves()[0]), Extent::new(0, 100));
        t.check_tiling().unwrap();
    }

    #[test]
    fn dense_region_splits_to_msg_ind() {
        let t = PartitionTree::build(Extent::new(0, 1000), 100, &dense);
        let leaves = t.leaves();
        // 1000/100 → 16 leaves of 62/63 bytes (power-of-two bisection).
        assert_eq!(leaves.len(), 16);
        for &l in &leaves {
            assert!(t.data_bytes(l) <= 100);
        }
        t.check_tiling().unwrap();
    }

    #[test]
    fn sparse_region_splits_less() {
        // Only the first 10% of the region holds data.
        let data = Extent::new(0, 100);
        let bytes_in = move |e: &Extent| e.intersect(&data).map_or(0, |x| x.len);
        let t = PartitionTree::build(Extent::new(0, 1000), 50, &bytes_in);
        // The dense half keeps splitting; the empty side stays coarse.
        let leaves = t.leaves();
        assert!(leaves.len() < 16, "got {}", leaves.len());
        for &l in &leaves {
            assert!(t.data_bytes(l) <= 50);
        }
        t.check_tiling().unwrap();
    }

    #[test]
    fn leaves_in_offset_order() {
        let t = PartitionTree::build(Extent::new(100, 64), 8, &dense);
        let regions: Vec<Extent> = t.leaves().iter().map(|&l| t.region(l)).collect();
        for w in regions.windows(2) {
            assert_eq!(w[0].end(), w[1].offset);
        }
    }

    #[test]
    fn remerge_case1_sibling_leaf() {
        // [0,100) → two leaves [0,50), [50,100). Remerge the left one.
        let t0 = PartitionTree::build(Extent::new(0, 100), 60, &dense);
        assert_eq!(t0.leaf_count(), 2);
        let mut t = t0.clone();
        let leaves = t.leaves();
        let absorbed = t.remerge(leaves[0]).unwrap();
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.region(absorbed), Extent::new(0, 100));
        assert_eq!(t.data_bytes(absorbed), 100);
        t.check_tiling().unwrap();
        // Symmetric: remerge the right one.
        let mut t = t0;
        let leaves = t.leaves();
        let absorbed = t.remerge(leaves[1]).unwrap();
        assert_eq!(t.region(absorbed), Extent::new(0, 100));
        t.check_tiling().unwrap();
    }

    #[test]
    fn remerge_case2_dfs_neighbor() {
        // Build a 3-level tree: [0,100) → [0,50),[50,100);
        // [50,100) → [50,75),[75,100). Leaves: A=[0,50) B=[50,75) C=[75,100).
        let data = Extent::new(50, 50);
        // Make only the right half dense so it splits further.
        let bytes_in = move |e: &Extent| e.intersect(&data).map_or(0, |x| x.len);
        let t0 = PartitionTree::build(Extent::new(0, 100), 30, &bytes_in);
        let leaves = t0.leaves();
        assert_eq!(leaves.len(), 3);
        assert_eq!(t0.region(leaves[0]), Extent::new(0, 50));
        assert_eq!(t0.region(leaves[1]), Extent::new(50, 25));
        assert_eq!(t0.region(leaves[2]), Extent::new(75, 25));

        // Remerging A (left child whose sibling is internal) must extend
        // the *leftmost* leaf of the sibling subtree: B.
        let mut t = t0.clone();
        let absorbed = t.remerge(leaves[0]).unwrap();
        assert_eq!(t.region(absorbed), Extent::new(0, 75));
        assert_eq!(t.leaf_count(), 2);
        t.check_tiling().unwrap();
        // The root was spliced: further remerge still works.
        let remaining = t.leaves();
        let last = t.remerge(remaining[0]).unwrap();
        assert_eq!(t.region(last), Extent::new(0, 100));
        t.check_tiling().unwrap();
    }

    #[test]
    fn remerge_case2_rightmost_when_right_departs() {
        // Mirror image: left subtree splits, right leaf departs → the
        // *rightmost* leaf of the left subtree absorbs.
        let data = Extent::new(0, 50);
        let bytes_in = move |e: &Extent| e.intersect(&data).map_or(0, |x| x.len);
        let t0 = PartitionTree::build(Extent::new(0, 100), 30, &bytes_in);
        let leaves = t0.leaves();
        assert_eq!(leaves.len(), 3);
        let mut t = t0;
        let right_leaf = leaves[2];
        assert_eq!(t.region(right_leaf), Extent::new(50, 50));
        let absorbed = t.remerge(right_leaf).unwrap();
        // [25,50) extends to [25,100).
        assert_eq!(t.region(absorbed), Extent::new(25, 75));
        t.check_tiling().unwrap();
    }

    #[test]
    fn remerge_last_leaf_returns_none() {
        let mut t = PartitionTree::build(Extent::new(0, 10), 100, &dense);
        let leaves = t.leaves();
        assert_eq!(leaves.len(), 1);
        assert_eq!(t.remerge(leaves[0]), None);
    }

    #[test]
    fn repeated_remerges_down_to_one_leaf() {
        let mut t = PartitionTree::build(Extent::new(0, 1024), 64, &dense);
        let initial = t.leaf_count();
        assert_eq!(initial, 16);
        let mut count = initial;
        while count > 1 {
            let leaves = t.leaves();
            // Alternate removing from the front and the middle.
            let victim = leaves[count / 2];
            let absorbed = t.remerge(victim).expect("more than one leaf");
            assert!(t.is_leaf(absorbed));
            count -= 1;
            assert_eq!(t.leaf_count(), count);
            t.check_tiling().unwrap();
        }
        let last = t.leaves()[0];
        assert_eq!(t.region(last), Extent::new(0, 1024));
        assert_eq!(t.data_bytes(last), 1024);
    }

    #[test]
    #[should_panic(expected = "live leaf")]
    fn remerge_internal_panics() {
        let mut t = PartitionTree::build(Extent::new(0, 100), 10, &dense);
        // Root is internal after splitting.
        t.remerge(0);
    }

    #[test]
    fn data_bytes_conserved_through_remerges() {
        let t0 = PartitionTree::build(Extent::new(0, 512), 32, &dense);
        let total: u64 = t0.leaves().iter().map(|&l| t0.data_bytes(l)).sum();
        assert_eq!(total, 512);
        let mut t = t0;
        let v = t.leaves()[3];
        t.remerge(v).unwrap();
        let total: u64 = t.leaves().iter().map(|&l| t.data_bytes(l)).sum();
        assert_eq!(total, 512);
    }
}
