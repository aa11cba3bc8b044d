//! # mcio-analyze — trace-driven performance analysis
//!
//! PR 1 made every run emit a unified Chrome trace (DES resource lanes
//! on pid 1, logical round phases on pid 2) and a metrics registry.
//! This crate *answers questions* from that data — the paper's central
//! one first: **which phase or resource limits collective I/O as
//! memory per core shrinks?**
//!
//! * [`TraceModel`] — the index every analysis reads, built once from
//!   a [`mcio_obs::Trace`] (a live one, or a Chrome trace-event JSON
//!   file — `--trace` output round-trips losslessly): spans sorted per lane, each lane's class and busy
//!   union, per-class / per-job / per-aggregator unions, the chain
//!   summaries.
//! * [`critical_path()`] — partitions the run's elapsed simulated time
//!   into **network-shuffle**, **OST I/O**, **memory-wait**, and
//!   **idle** by sweeping the critical round chain against the resource
//!   lanes. The four buckets sum to the elapsed time *exactly* (integer
//!   nanoseconds), so attributions are audit-safe.
//! * [`report`] — per-chain and per-aggregator summaries, resource-
//!   class percentiles (via [`mcio_obs::Histogram::percentile`]), a
//!   top-K longest-chain table, JSON and terminal renderings.
//! * [`tenants`] — per-job interference attribution for multi-tenant
//!   traces (pid-4 job lanes): splits each job's window into self /
//!   cross-tenant / idle time so contention is attributable per job.
//! * [`replan`] — closed-loop controller attribution for adaptive
//!   runs (pid-5 replan lanes): what the controller did, when, and
//!   why (retune / defer / demote / resplit decisions with their
//!   recorded inputs).
//! * [`sched`] — job-stream scheduler attribution for `mcio-sched`
//!   runs (pid-6 lanes): queue depth over time, every dispatch with
//!   its wait and backfill status, and admission-control deferrals.
//!
//! The `mcio_cli analyze` subcommand and the `perf_suite` benchmark
//! harness are thin shells over this crate.

#![warn(missing_docs)]

pub mod critical_path;
pub mod diff;
pub mod replan;
pub mod report;
pub mod sched;
pub mod stragglers;
pub mod tenants;
pub mod timeline;
pub mod trace_model;

pub use critical_path::{
    aggregator_io, chain_summaries, critical_path, phase_sums, AggIo, ChainSummary, CriticalPath,
    PhaseKind,
};
pub use diff::{diff_critical_paths, diff_models, RunDiff, SeriesDelta};
pub use replan::{replan_actions, ReplanAction};
pub use report::{analyze, Analysis, ClassStat, PhaseTotals};
pub use sched::{sched_section, SchedDispatch, SchedSection};
pub use stragglers::{format_rounds, stragglers, Straggler, StragglerKind};
pub use tenants::{tenant_paths, TenantPath};
pub use timeline::{default_bucket_ns, timeline, Series, SeriesKind, Timeline, MAX_BUCKETS};
pub use trace_model::{
    Lane, ResourceClass, TraceModel, PID_REPLAN, PID_RESOURCES, PID_ROUNDS, PID_SCHED, PID_TENANTS,
};
