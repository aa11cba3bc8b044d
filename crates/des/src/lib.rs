//! # mcio-des — deterministic discrete-event simulation engine
//!
//! A small, dependency-free discrete-event simulation (DES) core used by the
//! memory-conscious collective I/O reproduction to model an extreme-scale
//! machine: network interfaces, per-node memory buses, and parallel file
//! system servers are all **bandwidth resources**, and the work a collective
//! I/O operation performs is an **activity graph** — activities with
//! precedence dependencies, each passing through an ordered sequence of
//! resource stages (store-and-forward).
//!
//! Each resource serves under a [`SharePolicy`]: classic FIFO queueing (one
//! event per job), or amortized fair sharing, where all admitted transfers
//! progress concurrently and the engine keeps a single next-completion
//! event per resource, re-predicted via indexed cancellation on every
//! arrival and departure — event volume then scales with
//! arrivals/departures instead of in-flight requests, which is what makes
//! full-machine exascale runs tractable.
//!
//! The engine is fully deterministic under both policies: ties in the event
//! queue are broken by insertion sequence number, FIFO queues are strict
//! FIFO, and fair-share ties break by admission order. Running the same
//! activity graph twice yields bit-identical schedules, which the test
//! suite relies on.
//!
//! ## Model
//!
//! * A resource serves one job at a time at a fixed [`Bandwidth`]; a job
//!   occupying it for `overhead + bytes / bandwidth`. It is a row of the
//!   simulation's resource table, its name a [`Label`] row.
//! * An activity is a sequence of [`Stage`]s. A stage names a resource,
//!   a byte count and a fixed overhead, plus an optional *latency* that the
//!   activity waits out **after** leaving the resource without occupying
//!   anything (wire/propagation delay).
//! * Activities may depend on other activities; an activity becomes ready
//!   when all its dependencies have completed and its release time passed.
//! * An activity with no stages is a pure synchronization point (a barrier
//!   or join node).
//! * A [`Simulation`] stores the graph flat: one plain row per activity,
//!   all stages, labels and dependency edges in shared arenas.
//!   [`Simulation::activity`] registers a label, a release time and a
//!   stage slice without allocating. A label is a 16-byte [`Label`] row
//!   — a template, a prefix and two integers ([`label`]) — rendered only
//!   when read; a string literal is a template with no arguments.
//! * Pending events wait in a queue that keys each instant once; the
//!   events due at an instant form a first-in-first-out run behind its
//!   key.
//! * A graph is registered, then run once: [`Simulation::run`] consumes
//!   the simulation, queues every activity that waits for nothing in id
//!   order before the first event, and fires events to the end.
//!
//! ## Example
//!
//! ```
//! use mcio_des::{Bandwidth, SimDuration, SimTime, Simulation, Stage};
//!
//! let mut sim = Simulation::new();
//! let link = sim.add_resource("link", Bandwidth::bytes_per_sec(1_000_000.0));
//! // Two 1 MB transfers contend for the same 1 MB/s link.
//! let transfer = [Stage {
//!     resource: link,
//!     bytes: 1_000_000,
//!     overhead: SimDuration::ZERO,
//!     latency_after: SimDuration::ZERO,
//! }];
//! let a = sim.activity("a", SimTime::ZERO, &transfer);
//! let b = sim.activity("b", SimTime::ZERO, &transfer);
//! let done = sim.activity("join", SimTime::ZERO, &[]);
//! sim.add_dep(a, done);
//! sim.add_dep(b, done);
//! let report = sim.run().unwrap();
//! assert_eq!(report.makespan().as_secs_f64(), 2.0);
//! ```

#![warn(missing_docs)]

pub mod activity;
pub mod engine;
pub mod label;
mod queue;
pub mod resource;
pub mod stats;
pub mod time;

pub use activity::{ActivityId, Stage};
pub use engine::{
    resource_class, EngineProfile, EngineStats, RunReport, ServiceRecord, SimError, Simulation,
};
pub use label::{arg, fill, IntoLabel, Label, Prefix, Tpl};
pub use resource::{Bandwidth, ResourceId, ResourceUsage, ServiceWindow, SharePolicy};
pub use stats::OnlineStats;
pub use time::{SimDuration, SimTime};
