//! # mcio-workloads — benchmark workload generators
//!
//! The access patterns the paper evaluates with, as
//! [`mcio_core::CollectiveRequest`] generators:
//!
//! * [`collperf`] — ROMIO's `coll_perf`: a 3D block-distributed array
//!   written/read in row-major order via subarray file views (Figure 6).
//! * [`ior`] — LLNL's IOR: segmented and interleaved block patterns
//!   (Figures 7 and 8).
//! * [`science`] — application-shaped patterns: N-to-1 checkpoints with
//!   variable record sizes, BTIO-style nested strides.
//! * [`synthetic`] — serial chunks, random noncontiguous bursts, and
//!   other shapes used by tests and ablations.
//!
//! [`job`] describes a whole job — workload, placement, memory draw,
//! strategy — once, for the spec DSLs and the CLI above this crate.

#![warn(missing_docs)]

pub mod collperf;
pub mod ior;
pub mod job;
pub mod science;
pub mod synthetic;

pub use collperf::CollPerf;
pub use ior::{Ior, IorLayout};
pub use job::{JobDesc, Workload};

/// Record the shape of a generated request as `workload.*` metrics:
/// rank/extent/byte totals, the per-extent size histogram, and the file
/// hull density. Exported metrics files become self-describing about
/// the access pattern that produced them.
pub fn record_request(req: &mcio_core::CollectiveRequest, reg: &mcio_obs::Registry) {
    reg.set_gauge("workload.ranks", &[], req.nranks() as f64);
    let bytes = req.total_bytes();
    reg.inc("workload.bytes", &[], bytes);
    let mut extents = 0u64;
    for r in &req.ranks {
        for e in &r.extents {
            extents += 1;
            reg.observe("workload.extent_bytes", &[], e.len);
        }
    }
    reg.inc("workload.extents", &[], extents);
    let hull = req.hull();
    reg.set_gauge("workload.hull_bytes", &[], hull.len as f64);
    let density = if hull.len == 0 {
        0.0
    } else {
        bytes as f64 / hull.len as f64
    };
    reg.set_gauge("workload.density", &[], density);
}
