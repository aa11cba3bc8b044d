//! The message-passing executor: runs a plan over `mcio-simpi` with one
//! OS thread per rank and real tagged sends/receives.
//!
//! The closest thing in this reproduction to "running the collective on
//! MPI": every rank walks the plan, sends the messages it is the source
//! of (payloads cut from the oracle for writes, from the shared file for
//! reads), receives the ones addressed to it in plan order, and
//! aggregators access a shared [`SparseFile`] behind a lock. Results must
//! agree byte-for-byte with the single-threaded reference executor — a
//! strong check that the plan is a faithful distributed protocol (no rank
//! needs information it would not have).

use crate::exec_fn::oracle_data;
use crate::plan::{CollectivePlan, SyncMode};
use mcio_cluster::Rank;
use mcio_pfs::{Extent, Rw, SparseFile};
use mcio_simpi::runtime::run;
use parking_lot::Mutex;
use std::sync::Arc;

/// Tag for plan data messages: `(group << 24) | round`, well under the
/// runtime's internal tag space.
fn tag(group: usize, round: usize) -> u64 {
    ((group as u64) << 24) | round as u64
}

/// Execute a **write** plan over simpi threads; the file is written in
/// place.
///
/// # Panics
/// Panics if the plan is not a write plan or a rank misbehaves (the
/// runtime propagates rank panics).
pub fn execute_write_mpi(plan: &CollectivePlan, file: &mut SparseFile) {
    assert_eq!(plan.rw, Rw::Write, "write executor needs a write plan");
    let nranks = plan_nranks(plan);
    if nranks == 0 {
        return;
    }
    let shared = Arc::new(Mutex::new(std::mem::take(file)));
    let plan = Arc::new(plan.clone());
    {
        let shared = Arc::clone(&shared);
        run(nranks, move |comm| {
            let me = Rank(comm.rank());
            for (gi, g) in plan.groups.iter().enumerate() {
                for (ri, round) in g.rounds.iter().enumerate() {
                    let t = tag(gi, ri);
                    // Send my contributions (in plan order).
                    for m in round.messages.iter().filter(|m| m.src == me) {
                        let mut payload = Vec::with_capacity(m.bytes() as usize);
                        for e in &m.extents {
                            payload.extend_from_slice(&oracle_data(&e));
                        }
                        comm.send(m.dst.0, t, payload);
                    }
                    // Serve my aggregator windows.
                    for io in round.ios.iter().filter(|io| io.agg == me) {
                        let w = io.window;
                        let mut buf = vec![0u8; w.len as usize];
                        for m in round.messages.iter().filter(|m| m.dst == me) {
                            let payload = comm.recv(m.src.0, t);
                            let mut at = 0usize;
                            for e in &m.extents {
                                let dst = (e.offset - w.offset) as usize;
                                buf[dst..dst + e.len as usize]
                                    .copy_from_slice(&payload[at..at + e.len as usize]);
                                at += e.len as usize;
                            }
                        }
                        let mut file = shared.lock();
                        for e in &io.extents {
                            let at = (e.offset - w.offset) as usize;
                            file.write_at(e.offset, &buf[at..at + e.len as usize]);
                        }
                    }
                    // Global sync mirrors ROMIO's per-round alltoallv.
                    if plan.sync == SyncMode::Global {
                        comm.barrier();
                    }
                }
            }
        });
    }
    *file = Arc::try_unwrap(shared)
        .expect("all ranks joined")
        .into_inner();
}

/// Execute a **read** plan over simpi threads; returns each rank's
/// received `(extent, data)` pieces, like the reference executor.
pub fn execute_read_mpi(plan: &CollectivePlan, file: &SparseFile) -> Vec<Vec<(Extent, Vec<u8>)>> {
    assert_eq!(plan.rw, Rw::Read, "read executor needs a read plan");
    let nranks = plan_nranks(plan);
    if nranks == 0 {
        return Vec::new();
    }
    let plan = Arc::new(plan.clone());
    let file = Arc::new(file.clone());
    run(nranks, move |comm| {
        let me = Rank(comm.rank());
        let mut mine: Vec<(Extent, Vec<u8>)> = Vec::new();
        for (gi, g) in plan.groups.iter().enumerate() {
            for (ri, round) in g.rounds.iter().enumerate() {
                let t = tag(gi, ri);
                // Serve my aggregator windows: read, then distribute.
                for io in round.ios.iter().filter(|io| io.agg == me) {
                    let w = io.window;
                    let mut buf = vec![0u8; w.len as usize];
                    for e in &io.extents {
                        let at = (e.offset - w.offset) as usize;
                        file.read_at(e.offset, &mut buf[at..at + e.len as usize]);
                    }
                    for m in round.messages.iter().filter(|m| m.src == me) {
                        let mut payload = Vec::with_capacity(m.bytes() as usize);
                        for e in &m.extents {
                            let at = (e.offset - w.offset) as usize;
                            payload.extend_from_slice(&buf[at..at + e.len as usize]);
                        }
                        comm.send(m.dst.0, t, payload);
                    }
                }
                // Collect the pieces addressed to me (in plan order).
                for m in round.messages.iter().filter(|m| m.dst == me) {
                    let payload = comm.recv(m.src.0, t);
                    let mut at = 0usize;
                    for e in &m.extents {
                        mine.push((e, payload[at..at + e.len as usize].to_vec()));
                        at += e.len as usize;
                    }
                }
                if plan.sync == SyncMode::Global {
                    comm.barrier();
                }
            }
        }
        mine
    })
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
    use crate::exec_fn::{execute_write, verify_read, verify_write};
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
