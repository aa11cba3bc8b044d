//! # mcio-simpi — a thread-backed MPI-like runtime
//!
//! The collective I/O layer of this reproduction needs exactly the slice
//! of MPI that ROMIO needs: ranks with identities, tagged point-to-point
//! messages, a handful of collectives, communicator splitting (for
//! aggregation subgroups), derived datatypes, and MPI-IO style file views.
//! `mcio-simpi` provides that slice with **ranks as OS threads** inside
//! one process, so collective I/O algorithms run unmodified against real
//! message passing while staying deterministic enough to test.
//!
//! * [`runtime`] — spawn `n` ranks, each running the same closure with a
//!   [`Comm`] handle; results are collected in rank order.
//! * [`comm`] — tagged, matched send/recv over crossbeam channels, with
//!   out-of-order buffering, plus communicator split.
//! * [`collectives`] — barrier, allgather(v), alltoall(v), scatterv,
//!   allreduce: the linear reference implementations ROMIO-era
//!   two-phase I/O uses.
//! * [`datatype`] — derived datatypes (contiguous, vector, indexed,
//!   subarray, resized) flattened to sorted `(offset, len)` segment lists.
//! * [`fileview`] — the `(disp, filetype)` tiling that maps a rank's
//!   linear data stream to absolute file extents.
//!
//! ## Example
//!
//! ```
//! use mcio_simpi::runtime::run;
//!
//! let sums = run(4, |comm| {
//!     let mine = (comm.rank() + 1) as u64;
//!     comm.allreduce_sum_u64(mine)
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod datatype;
pub mod fileview;
pub mod runtime;

pub use comm::Comm;
pub use datatype::{Datatype, Segment};
pub use fileview::FileView;
pub use runtime::run;
