//! # mcio-simpi — a thread-backed MPI-like runtime
//!
//! The collective I/O layer of this reproduction needs exactly the slice
//! of MPI that ROMIO's two-phase I/O needs: ranks with identities, tagged
//! point-to-point messages, a barrier and an allgather, derived
//! datatypes, and MPI-IO style file views. `mcio-simpi` provides that
//! slice with **ranks as OS threads** inside one process, so collective
//! I/O algorithms run unmodified against real message passing while
//! staying deterministic enough to test.
//!
//! * [`runtime`] — spawn `n` ranks, each running the same closure with a
//!   [`Comm`] handle; results are collected in rank order, and a panic
//!   on any rank ends the job in a panic.
//! * [`comm`] — tagged, matched send/recv over crossbeam channels, with
//!   out-of-order buffering.
//! * [`collectives`] — barrier and allgather, the linear reference
//!   implementations, plus the `u64` codec requests travel in.
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
//! let seen = run(4, |comm| comm.allgather(vec![comm.rank() as u8]).concat());
//! assert_eq!(seen, vec![vec![0, 1, 2, 3]; 4]);
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
