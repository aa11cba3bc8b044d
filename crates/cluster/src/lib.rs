//! # mcio-cluster — extreme-scale machine model
//!
//! Models the compute side of an HPC system for the memory-conscious
//! collective I/O study:
//!
//! * [`spec`] — node and cluster specifications, with presets for the
//!   paper's 640-node InfiniBand testbed and the Table-1 2010 petascale /
//!   2018 exascale designs.
//! * [`table1`] — the paper's Table 1 as a data model, including the
//!   memory-per-core projection `f_m / (f_s · f_n)`.
//! * [`topology`] — process-to-node placement (block / round-robin) and
//!   queries the collective I/O layer needs (host of a rank, ranks on a
//!   host).
//! * [`memory`] — the truncated normal distribution the paper uses to
//!   emulate heterogeneous aggregation buffers ("random variables
//!   following a normal distribution ... standard deviation was set as
//!   50").
//! * [`fabric`] — lowers the cluster onto [`mcio_des`] resources: one
//!   memory bus and a full-duplex NIC pair per node, plus helpers that
//!   build message activities with the right store-and-forward stages.

#![warn(missing_docs)]

pub mod fabric;
pub mod memory;
pub mod spec;
pub mod table1;
pub mod topology;

pub use fabric::{Fabric, TransferPath};
pub use memory::TruncatedNormal;
pub use spec::{ClusterSpec, NodeSpec};
pub use table1::{SystemDesign, Table1};
pub use topology::{Placement, ProcessMap};

/// Identifier of a compute node within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Index into the cluster's node table.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a process (MPI-style rank) in a parallel job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub usize);

impl Rank {
    /// The rank number.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank{}", self.0)
    }
}
