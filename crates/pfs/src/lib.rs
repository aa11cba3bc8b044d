//! # mcio-pfs — striped parallel file system model
//!
//! A Lustre-like parallel file system substrate for the collective I/O
//! study, with two independent facets:
//!
//! * **Timing** — [`layout::StripeLayout`] maps file extents onto object
//!   storage targets (OSTs); [`client::Pfs`] lowers read/write requests
//!   onto [`mcio_des`] activities: client memory bus + NIC egress, then
//!   per-OST FIFO queues charging `request_overhead + bytes / bandwidth`.
//!   Large contiguous requests fan out across OSTs and amortize the
//!   per-request overhead; many small requests do not — the property
//!   collective I/O exists to exploit.
//! * **Correctness** — [`file::SparseFile`] is a block-based sparse byte
//!   store used by the functional executors to verify that both collective
//!   strategies move every byte to exactly the right place.
//!
//! The [`extent::Extent`] type (offset + length in a linear file) is the
//! vocabulary shared with the collective I/O layer.

#![warn(missing_docs)]

pub mod client;
pub mod extent;
pub mod file;
pub mod layout;

pub use client::{Pfs, Requester, RetryMark, Rw};
pub use extent::Extent;
pub use file::SparseFile;
pub use layout::{OstId, StripeLayout, StripePiece};
