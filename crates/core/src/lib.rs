//! # mcio-core — memory-conscious collective I/O
//!
//! The paper's contribution, implemented end to end, next to the
//! ROMIO-style two-phase baseline it improves on.
//!
//! ## Pipeline
//!
//! ```text
//!              CollectiveRequest (per-rank flattened extents)
//!                      │
//!        ┌─────────────┴──────────────┐
//!        ▼                            ▼
//!  twophase::plan()            mcio::plan()
//!  (ROMIO baseline:            1. group::divide          (§3.1)
//!   1 aggregator/node,         2. ptree::PartitionTree   (§3.2)
//!   even file domains,         3. placement + remerge    (§3.2–3.3)
//!   global rounds)             4. per-group rounds
//!        │                            │
//!        └─────────────┬──────────────┘
//!                      ▼
//!               CollectivePlan
//!        ┌─────────────┼──────────────────┐
//!        ▼             ▼                  ▼
//!   exec_fn        exec_mpi           exec_sim
//!   (byte-correct  (thread-per-rank   (DES timing on the
//!    reference)     over mcio-simpi)   cluster + PFS models)
//! ```
//!
//! Every module carries its paper section in its doc comment. The plan is
//! pure data, so the three executors can cross-check each other: the two
//! functional executors must produce byte-identical files/buffers, and the
//! timing executor replays the same plan against the machine model.

#![warn(missing_docs)]

pub mod adaptive;
pub mod config;
pub mod exec_faults;
pub mod exec_fn;
pub mod exec_mpi;
pub mod exec_sim;
pub mod group;
pub mod hints;
mod marks;
pub mod mcio;
pub mod memory;
pub mod mpiio;
pub mod multitenant;
pub mod placement;
pub mod plan;
pub mod ptree;
pub mod request;
pub mod tuner;
pub mod twophase;

pub use adaptive::{AdaptiveOutcome, AdaptivePolicy};
pub use config::{CollectiveConfig, PlacementPolicy, Strategy};
pub use exec_faults::{simulate_adaptive, simulate_faulted, FaultOutcome, FAILOVER_LATENCY};
pub use exec_fn::FunctionalReport;
pub use exec_sim::{
    simulate, simulate_observed, Exchange, Observe, Pipeline, RoundPhase, RunMetrics, TimingReport,
};
pub use memory::ProcMemory;
pub use multitenant::{run_multitenant, JobOutcome, Ledger, MultiTenantReport, Probe, TenantJob};
pub use placement::PlacementDiag;
pub use plan::{
    AggregatorAssignment, CollectivePlan, GroupPlan, IoOp, Message, PlanDiag, Round, SyncMode,
};
pub use request::{CollectiveRequest, Extents, RankRequest, Run};

// Re-export the vocabulary types callers need constantly.
pub use mcio_cluster::{NodeId, ProcessMap, Rank};
pub use mcio_pfs::{Extent, Rw};
