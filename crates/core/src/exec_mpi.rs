//! The message-passing executor: runs a plan over `mcio-simpi` with one
//! OS thread per rank and real tagged sends/receives.
//!
//! The closest thing in this reproduction to "running the collective on
//! MPI": every rank walks the plan in its own role (`walk`), sending the
//! messages it is the source of and receiving the ones addressed to it.
//! Results must agree byte-for-byte with the single-threaded reference
//! executor — a strong check that the plan is a faithful distributed
//! protocol (no rank needs information it would not have).
//!
//! `walk` is the one per-round loop of both threaded layers: these
//! executors and [`crate::mpiio::CollFile`] call it. It moves bytes
//! along the write-order chain *requester bytes → aggregator window →
//! file*, ordered by [`Rw::flow`] the way [`crate::plan::Message::new`]
//! is: a write walks the chain forward, a read walks it back.

use crate::exec_fn::oracle_data;
use crate::plan::{CollectivePlan, Message, SyncMode};
use mcio_cluster::Rank;
use mcio_pfs::{Extent, Rw, SparseFile};
use mcio_simpi::runtime::run;
use mcio_simpi::Comm;
use std::ops::Range;

/// One end of a hop of the chain: bytes addressed by file extent.
pub(crate) trait Bytes {
    /// Copy the bytes of `e` into `out` (`e.len` bytes long).
    fn copy_out(&mut self, e: Extent, out: &mut [u8]);
    /// Take `data` as the bytes of `e`.
    fn copy_in(&mut self, e: Extent, data: &[u8]);
}

/// `(extent, bytes)` pieces, in the order they arrived.
type Pieces = Vec<(Extent, Vec<u8>)>;

/// An end of the chain the walk may not write in place: bytes leave
/// through `read`, and what arrives is kept, in arrival order, for the
/// caller to place once the walk is done.
pub(crate) struct Endpoint<F> {
    read: F,
    /// The pieces that arrived.
    pub(crate) got: Pieces,
}

impl<F: FnMut(Extent, &mut [u8])> Endpoint<F> {
    pub(crate) fn new(read: F) -> Self {
        Endpoint {
            read,
            got: Vec::new(),
        }
    }
}

impl<F: FnMut(Extent, &mut [u8])> Bytes for Endpoint<F> {
    fn copy_out(&mut self, e: Extent, out: &mut [u8]) {
        (self.read)(e, out);
    }

    fn copy_in(&mut self, e: Extent, data: &[u8]) {
        self.got.push((e, data.to_vec()));
    }
}

/// This rank's aggregator windows of one round. After a failover an
/// aggregator may serve several, so each extent goes to the window that
/// contains it.
struct Windows(Vec<(Extent, Vec<u8>)>);

impl Windows {
    fn slot(&mut self, e: Extent) -> &mut [u8] {
        let (w, buf) = self
            .0
            .iter_mut()
            .find(|(w, _)| w.contains_extent(&e))
            .unwrap_or_else(|| panic!("extent {e} lies in no window of this rank's round"));
        let at = (e.offset - w.offset) as usize;
        &mut buf[at..at + e.len as usize]
    }
}

impl Bytes for Windows {
    fn copy_out(&mut self, e: Extent, out: &mut [u8]) {
        out.copy_from_slice(self.slot(e));
    }

    fn copy_in(&mut self, e: Extent, data: &[u8]) {
        self.slot(e).copy_from_slice(data);
    }
}

/// The two hops of a round, in write order.
enum Hop {
    /// Requester bytes and aggregator windows, by message.
    Exchange,
    /// Aggregator windows and the file.
    Access,
}

/// Play this rank's role in every round of `plan`: send every message it
/// is the source of and receive every message addressed to it, once
/// each, and move its windows' bytes to or from `file`. `mine` holds the
/// rank's own bytes; tags are `(epoch % 256) << 40 | group << 20 |
/// round`, so consecutive collectives on one communicator never
/// cross-match (a closing barrier keeps ranks within one collective of
/// each other) and no tag reaches `mcio-simpi`'s internal tags at
/// `1 << 48`.
pub(crate) fn walk(
    comm: &Comm,
    plan: &CollectivePlan,
    epoch: u64,
    mine: &mut dyn Bytes,
    file: &mut dyn Bytes,
) {
    let me = Rank(comm.rank());
    for (gi, g) in plan.groups.iter().enumerate() {
        for (ri, round) in g.rounds.iter().enumerate() {
            let tag = ((epoch % 256) << 40) | ((gi as u64) << 20) | ri as u64;
            let ios = || round.ios.iter().filter(|io| io.agg == me);
            let mut windows = Windows(
                ios()
                    .map(|io| (io.window, vec![0; io.window.len as usize]))
                    .collect(),
            );
            let hops = plan.rw.flow((Hop::Exchange, Hop::Access));
            for hop in [hops.0, hops.1] {
                match hop {
                    Hop::Exchange => {
                        let (from, to) = plan.rw.flow((&mut *mine, &mut windows as &mut dyn Bytes));
                        for m in round.messages.iter().filter(|m| m.src == me) {
                            let mut payload = vec![0; m.bytes() as usize];
                            for (e, at) in pieces(m) {
                                from.copy_out(e, &mut payload[at]);
                            }
                            comm.send(m.dst.0, tag, payload);
                        }
                        for m in round.messages.iter().filter(|m| m.dst == me) {
                            let payload = comm.recv(m.src.0, tag);
                            for (e, at) in pieces(m) {
                                to.copy_in(e, &payload[at]);
                            }
                        }
                    }
                    Hop::Access => {
                        let (from, to) = plan.rw.flow((&mut windows as &mut dyn Bytes, &mut *file));
                        for &e in ios().flat_map(|io| &io.extents) {
                            let mut bytes = vec![0; e.len as usize];
                            from.copy_out(e, &mut bytes);
                            to.copy_in(e, &bytes);
                        }
                    }
                }
            }
            // Global sync mirrors ROMIO's per-round alltoallv.
            if plan.sync == SyncMode::Global {
                comm.barrier();
            }
        }
    }
}

/// A message's extents with where each sits in its payload.
fn pieces(m: &Message) -> impl Iterator<Item = (Extent, Range<usize>)> + '_ {
    let mut at = 0;
    m.extents.iter().map(move |e| {
        let piece = at..at + e.len as usize;
        at = piece.end;
        (e, piece)
    })
}

/// Walk `plan` on one thread per rank, with oracle data as each rank's
/// bytes and `file` read in place. Returns, in rank order, the pieces
/// each rank received and the pieces it wrote to the file.
fn walk_ranks(plan: &CollectivePlan, file: &SparseFile) -> Vec<[Pieces; 2]> {
    let nranks = plan_nranks(plan);
    if nranks == 0 {
        return Vec::new();
    }
    run(nranks, |comm| {
        let mut mine = Endpoint::new(|e, out| out.copy_from_slice(&oracle_data(&e)));
        let mut disk = Endpoint::new(|e, out| file.read_at(e.offset, out));
        walk(&comm, plan, 0, &mut mine, &mut disk);
        [mine.got, disk.got]
    })
}

/// Execute a **write** plan over simpi threads; the file is written in
/// place, each rank's file writes in rank order once every rank joined.
///
/// # Panics
/// Panics if the plan is not a write plan or a rank misbehaves (the
/// runtime propagates rank panics).
pub fn execute_write_mpi(plan: &CollectivePlan, file: &mut SparseFile) {
    assert_eq!(plan.rw, Rw::Write, "write executor needs a write plan");
    for [_, written] in walk_ranks(plan, file) {
        for (e, data) in written {
            file.write_at(e.offset, &data);
        }
    }
}

/// Execute a **read** plan over simpi threads; returns each rank's
/// received `(extent, data)` pieces, like the reference executor.
pub fn execute_read_mpi(plan: &CollectivePlan, file: &SparseFile) -> Vec<Vec<(Extent, Vec<u8>)>> {
    assert_eq!(plan.rw, Rw::Read, "read executor needs a read plan");
    walk_ranks(plan, file)
        .into_iter()
        .map(|[received, _]| received)
        .collect()
}

fn plan_nranks(plan: &CollectivePlan) -> usize {
    plan.groups
        .iter()
        .flat_map(|g| g.ranks.iter())
        .map(|r| r.0 + 1)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollectiveConfig;
    use crate::exec_fn::{execute_read, execute_write, verify_read, verify_write};
    use crate::memory::ProcMemory;
    use crate::request::CollectiveRequest;
    use crate::{mcio, twophase};
    use mcio_cluster::{Placement, ProcessMap};

    fn serial_req(rw: Rw, nranks: usize, chunk: u64) -> CollectiveRequest {
        CollectiveRequest::new(
            rw,
            (0..nranks as u64)
                .map(|r| vec![Extent::new(r * chunk, chunk)])
                .collect(),
        )
    }

    fn interleaved_req(rw: Rw, nranks: u64, blocks: u64, bs: u64) -> CollectiveRequest {
        CollectiveRequest::new(
            rw,
            (0..nranks)
                .map(|r| {
                    (0..blocks)
                        .map(|b| Extent::new((b * nranks + r) * bs, bs))
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn mpi_write_matches_reference_twophase() {
        let req = serial_req(Rw::Write, 6, 130);
        let map = ProcessMap::new(6, 3, Placement::Block);
        let mem = ProcMemory::uniform(6, 64);
        let cfg = CollectiveConfig::with_buffer(64);
        let plan = twophase::plan(&req, &map, &mem, &cfg);

        let mut ref_file = SparseFile::new();
        execute_write(&plan, &mut ref_file).unwrap();
        let mut mpi_file = SparseFile::new();
        execute_write_mpi(&plan, &mut mpi_file);
        verify_write(&req, &mpi_file).unwrap();
        for e in req.coverage() {
            assert_eq!(
                ref_file.read_vec(e.offset, e.len as usize),
                mpi_file.read_vec(e.offset, e.len as usize)
            );
        }
    }

    #[test]
    fn mpi_write_read_roundtrip_mcio_interleaved() {
        let wreq = interleaved_req(Rw::Write, 4, 6, 17);
        let rreq = interleaved_req(Rw::Read, 4, 6, 17);
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::normal(4, 60, 0.5, 5);
        let cfg = CollectiveConfig::with_buffer(60)
            .msg_ind(100)
            .msg_group(200)
            .mem_min(0);
        let wplan = mcio::plan(&wreq, &map, &mem, &cfg);
        let rplan = mcio::plan(&rreq, &map, &mem, &cfg);

        let mut file = SparseFile::new();
        execute_write_mpi(&wplan, &mut file);
        verify_write(&wreq, &file).unwrap();

        let received = execute_read_mpi(&rplan, &file);
        verify_read(&rreq, &file, &received).unwrap();
    }

    #[test]
    fn mpi_multi_round_global_sync() {
        let req = serial_req(Rw::Write, 4, 256);
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::uniform(4, 32); // 8 rounds per aggregator
        let cfg = CollectiveConfig::with_buffer(32);
        let plan = twophase::plan(&req, &map, &mem, &cfg);
        assert!(plan.max_rounds() >= 8);
        let mut file = SparseFile::new();
        execute_write_mpi(&plan, &mut file);
        verify_write(&req, &file).unwrap();
    }

    /// Round 0's aggregator 1 re-pointed at aggregator 0, as a failover
    /// does: aggregator 0 serves two windows in one round.
    fn two_window_plan(rw: Rw) -> (CollectiveRequest, CollectivePlan) {
        let req = serial_req(rw, 4, 100);
        let map = ProcessMap::block_ppn(4, 1);
        let mem = ProcMemory::uniform(4, 1000);
        let mut plan = twophase::plan(&req, &map, &mem, &CollectiveConfig::with_buffer(1000));
        let round = &mut plan.groups[0].rounds[0];
        for io in round.ios.iter_mut().filter(|io| io.agg == Rank(1)) {
            io.agg = Rank(0);
        }
        for agg in round.messages.iter_mut().map(|m| m.agg_mut(rw)) {
            if *agg == Rank(1) {
                *agg = Rank(0);
            }
        }
        assert_eq!(
            round.ios.iter().filter(|io| io.agg == Rank(0)).count(),
            2,
            "aggregator 0 serves two windows"
        );
        plan.check(&req).unwrap();
        (req, plan)
    }

    #[test]
    fn aggregator_with_two_windows_in_one_round() {
        let (wreq, wplan) = two_window_plan(Rw::Write);
        let mut ref_file = SparseFile::new();
        execute_write(&wplan, &mut ref_file).unwrap();
        let mut file = SparseFile::new();
        execute_write_mpi(&wplan, &mut file);
        verify_write(&wreq, &file).unwrap();
        assert_eq!(file.read_vec(0, 400), ref_file.read_vec(0, 400));

        let (rreq, rplan) = two_window_plan(Rw::Read);
        let (mut ref_received, _) = execute_read(&rplan, &file).unwrap();
        let mut received = execute_read_mpi(&rplan, &file);
        verify_read(&rreq, &file, &received).unwrap();
        for pieces in received.iter_mut().chain(&mut ref_received) {
            pieces.sort_by_key(|(e, _)| e.offset);
        }
        assert_eq!(received, ref_received);
    }

    #[test]
    fn empty_plan_is_noop() {
        let req = CollectiveRequest::new(Rw::Write, vec![vec![], vec![]]);
        let map = ProcessMap::new(2, 1, Placement::Block);
        let mem = ProcMemory::uniform(2, 64);
        let plan = twophase::plan(&req, &map, &mem, &CollectiveConfig::default());
        let mut file = SparseFile::new();
        execute_write_mpi(&plan, &mut file);
        assert!(file.is_empty());
    }
}
