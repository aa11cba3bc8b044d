//! Self-profiling for the simulator — the simulator observed *as a
//! program*, not as a model.
//!
//! Every other observability layer in this workspace (metrics, traces,
//! critical paths, timelines) describes the *simulated* I/O system.
//! This crate describes the host-side cost of producing those results:
//! where wall-clock time goes (planning? lowering? the DES run loop?
//! trace emission?), how much scheduling work the event engine did, and
//! — with the `count-alloc` feature — where allocations happen. It is
//! the measurement harness the fair-sharing DES rewrite (ROADMAP open
//! item 1) will be judged against.
//!
//! Three pieces:
//!
//! * [`Prof`] — a phase-scoped wall-clock profiler. A disabled handle
//!   is a `None` behind an `Option`: no `Instant::now`, no lock, no
//!   thread-local traffic. An enabled handle aggregates nestable
//!   [`Prof::scope`] guards into per-path inclusive/exclusive time
//!   (paths like `plan` or `sweep-cell/des-run`), with per-phase
//!   allocation deltas when the counting allocator is installed.
//! * [`alloc`] — the feature-gated global counting allocator: total
//!   allocation count/bytes and a peak-live-bytes RSS proxy.
//! * [`ProfReport`] — the `mcio.prof.v1` sidecar document. Two strictly
//!   separated sections: `deterministic` (engine counters only —
//!   byte-identical across runs and across `--jobs`, safe to diff in
//!   CI) and `host` (wall-clock, events/sec, allocator stats, worker
//!   utilization — never byte-diffed).
//!
//! The separation rule is the workspace's: anything that can differ
//! between two runs of the same inputs must stay out of byte-compared
//! documents. Here the two kinds of data share a file, so the split is
//! structural — consumers diff `deterministic` and *read* `host`.

#![warn(missing_docs)]

pub mod alloc;
mod profiler;
mod report;

pub use profiler::{PhaseRow, Prof, Scope, PHASES};
pub use report::{
    events_per_sec, AllocReport, DetCell, HostSection, ProfReport, WorkerRow, PROF_SCHEMA,
};
