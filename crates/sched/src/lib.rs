//! Trace-driven job-stream scheduling: the batch/queue tier above
//! [`mcio_core`]'s shared-machine executor.
//!
//! The paper tunes one collective job; a production machine runs a
//! *stream* of them. This crate replays job arrivals from a
//! line-oriented `mcio.jobtrace.v1` file ([`trace`]), keeps a pending
//! queue, and dispatches jobs onto one shared fabric+PFS machine as
//! nodes free up, with three pluggable policies ([`policy`]):
//!
//! * **FCFS** — strict arrival order, head-of-line blocking and all;
//! * **conservative backfill** — a short job may jump ahead only when
//!   its predicted completion cannot delay the queue head's reserved
//!   start;
//! * **priority-with-aging** — higher priority first, but waiting time
//!   buys rank ([`policy::AGING_QUANTUM_NS`] nanoseconds of age per
//!   priority level), so no job starves.
//!
//! Each dispatch *commits* the job by simulating the newcomer alone
//! against a [`mcio_core::Ledger`] of the service the running jobs
//! committed ([`scheduler`]), so the newcomer's runtime reflects their
//! OST/NIC/memory-bus contention. Optional admission control reads the
//! newcomer's predicted slowdown and OST overlap off that probe and
//! defers dispatch while predicted interference exceeds a budget.
//!
//! Everything is deterministic: the event loop is sequential virtual
//! time, the only parallelism is the index-ordered solo-baseline
//! precompute ([`mcio_sweep::run_indexed`]), so the rendered
//! `mcio.schedule.v1` document ([`doc`]) is byte-identical at any
//! worker count.

pub mod doc;
pub mod policy;
pub mod scheduler;
pub mod trace;

pub use doc::{parse_schedule, render_schedule, write_schedule, ScheduleDoc};
pub use policy::{Policy, AGING_QUANTUM_NS};
pub use scheduler::{run_schedule, JobResult, Reservation, SchedConfig, SchedEvent, Schedule};
pub use trace::{JobTrace, TraceJob};
