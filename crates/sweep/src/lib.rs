//! # mcio-sweep — parallel deterministic scenario sweeps
//!
//! The evaluation matrices of this repository (the Figure 6/7/8 perf
//! suite, the fault matrix, arbitrary parameter grids) are embarrassingly
//! parallel: every scenario runs in its own discrete-event simulation
//! with its own metrics registry and touches no shared mutable state.
//! This crate fans such matrices across `N` worker threads while keeping
//! the *output* exactly what a single-threaded loop would produce:
//!
//! * **Shared-queue scheduling** — workers pull the next scenario index
//!   from one multi-consumer channel as soon as they finish their
//!   current one, so a slow scenario never idles the other workers
//!   (the channel plays the role of a work-stealing deque: all workers
//!   steal from one shared pool).
//! * **Canonical-order merge** — results come back tagged with their
//!   scenario index and are reassembled in submission order, so the
//!   merged result vector (and any document rendered from it) is
//!   byte-identical at any thread count.
//! * **No hidden nondeterminism** — the engine never exposes completion
//!   order, thread identity, or wall-clock time to the caller.
//!
//! [`run_indexed`] is the primitive (fan a function over `0..n`);
//! [`sweep`] maps over a slice.

#![warn(missing_docs)]

pub mod engine;

pub use engine::{run_indexed, run_indexed_stats, sweep, sweep_stats, WorkerStat};
