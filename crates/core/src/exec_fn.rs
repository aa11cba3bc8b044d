//! The functional reference executor: runs a plan against real bytes,
//! single-threaded.
//!
//! This is the semantic ground truth for both strategies. Data values are
//! generated from a position-determined oracle (each requesting rank
//! "owns" the bytes of its extents), messages physically copy slices,
//! aggregation buffers are materialized per round (checking they fit the
//! declared buffer), and I/O ops move bytes to/from a
//! [`SparseFile`]. Any byte the plan fails to route — a gap in an
//! aggregator's window, data delivered to the wrong rank — surfaces as a
//! hard error or a verification mismatch.

use crate::plan::CollectivePlan;
use crate::request::CollectiveRequest;
use mcio_pfs::file::pattern_byte;
use mcio_pfs::{Extent, Rw, SparseFile};

/// Outcome accounting of a functional execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FunctionalReport {
    /// Bytes physically copied rank→aggregator or aggregator→rank.
    pub bytes_shuffled: u64,
    /// Bytes moved to/from the file.
    pub bytes_io: u64,
    /// Largest per-round aggregation buffer actually materialized.
    pub peak_agg_buffer: u64,
    /// Rounds executed across all groups.
    pub rounds_executed: usize,
}

/// The deterministic data a rank holds for file extent `e`: the byte at
/// absolute file position `p` is [`pattern_byte`]`(p)`.
pub fn oracle_data(e: &Extent) -> Vec<u8> {
    (e.offset..e.end()).map(pattern_byte).collect()
}

/// Execute a **write** plan: route every rank's data through the
/// aggregators into `file`.
///
/// Returns an error if the plan routes data inconsistently (gaps in an
/// aggregator's window coverage, buffer overflows, direction mixups).
pub fn execute_write(
    plan: &CollectivePlan,
    file: &mut SparseFile,
) -> Result<FunctionalReport, String> {
    if plan.rw != Rw::Write {
        return Err("execute_write called on a read plan".into());
    }
    let mut report = FunctionalReport::default();
    for (gi, g) in plan.groups.iter().enumerate() {
        for (ri, round) in g.rounds.iter().enumerate() {
            report.rounds_executed += 1;
            for io in &round.ios {
                // Materialize the aggregator's window buffer from the
                // messages addressed to it.
                let w = io.window;
                let mut buf = vec![0u8; w.len as usize];
                let mut covered = vec![false; w.len as usize];
                for m in round.messages.iter().filter(|m| m.dst == io.agg) {
                    for e in &m.extents {
                        if !w.contains_extent(&e) {
                            continue; // belongs to another window of this agg
                        }
                        let data = oracle_data(&e);
                        let at = (e.offset - w.offset) as usize;
                        buf[at..at + data.len()].copy_from_slice(&data);
                        for c in &mut covered[at..at + data.len()] {
                            *c = true;
                        }
                        report.bytes_shuffled += e.len;
                    }
                }
                let filled = covered.iter().filter(|&&c| c).count() as u64;
                report.peak_agg_buffer = report.peak_agg_buffer.max(filled);
                // Write out each coalesced extent; every byte must have
                // been delivered by some message.
                for e in &io.extents {
                    if !w.contains_extent(e) {
                        return Err(format!(
                            "group {gi} round {ri}: io extent {e} outside window {w}"
                        ));
                    }
                    let at = (e.offset - w.offset) as usize;
                    let end = at + e.len as usize;
                    if let Some(hole) = covered[at..end].iter().position(|&c| !c) {
                        return Err(format!(
                            "group {gi} round {ri} agg {}: byte {} of extent {e} never arrived",
                            io.agg,
                            e.offset + hole as u64
                        ));
                    }
                    file.write_at(e.offset, &buf[at..end]);
                    report.bytes_io += e.len;
                }
            }
        }
    }
    Ok(report)
}

/// Per-rank received pieces of a read: `(extent, data)` pairs.
pub type ReceivedPieces = Vec<Vec<(Extent, Vec<u8>)>>;

/// Execute a **read** plan: aggregators read their windows from `file`
/// and distribute slices to the requesting ranks. Returns each rank's
/// received pieces (extent + data) along with the report.
pub fn execute_read(
    plan: &CollectivePlan,
    file: &SparseFile,
) -> Result<(ReceivedPieces, FunctionalReport), String> {
    if plan.rw != Rw::Read {
        return Err("execute_read called on a write plan".into());
    }
    let nranks = plan
        .groups
        .iter()
        .flat_map(|g| g.ranks.iter())
        .map(|r| r.0 + 1)
        .max()
        .unwrap_or(0);
    let mut received: ReceivedPieces = vec![Vec::new(); nranks];
    let mut report = FunctionalReport::default();
    for (gi, g) in plan.groups.iter().enumerate() {
        for (ri, round) in g.rounds.iter().enumerate() {
            report.rounds_executed += 1;
            for io in &round.ios {
                let w = io.window;
                let mut buf = vec![0u8; w.len as usize];
                let mut covered = vec![false; w.len as usize];
                for e in &io.extents {
                    if !w.contains_extent(e) {
                        return Err(format!(
                            "group {gi} round {ri}: io extent {e} outside window {w}"
                        ));
                    }
                    let at = (e.offset - w.offset) as usize;
                    let end = at + e.len as usize;
                    file.read_at(e.offset, &mut buf[at..end]);
                    for c in &mut covered[at..end] {
                        *c = true;
                    }
                    report.bytes_io += e.len;
                }
                let filled = covered.iter().filter(|&&c| c).count() as u64;
                report.peak_agg_buffer = report.peak_agg_buffer.max(filled);
                for m in round.messages.iter().filter(|m| m.src == io.agg) {
                    for e in &m.extents {
                        if !w.contains_extent(&e) {
                            continue;
                        }
                        let at = (e.offset - w.offset) as usize;
                        let end = at + e.len as usize;
                        if let Some(hole) = covered[at..end].iter().position(|&c| !c) {
                            return Err(format!(
                                "group {gi} round {ri} agg {}: sending unread byte {} to {}",
                                io.agg,
                                e.offset + hole as u64,
                                m.dst
                            ));
                        }
                        received[m.dst.0].push((e, buf[at..end].to_vec()));
                        report.bytes_shuffled += e.len;
                    }
                }
            }
        }
    }
    Ok((received, report))
}

/// Verify a written file against the oracle: every requested byte holds
/// [`pattern_byte`] of its position.
pub fn verify_write(req: &CollectiveRequest, file: &SparseFile) -> Result<(), String> {
    for e in req.coverage() {
        let got = file.read_vec(e.offset, e.len as usize);
        for (i, &b) in got.iter().enumerate() {
            let pos = e.offset + i as u64;
            if b != pattern_byte(pos) {
                return Err(format!(
                    "file byte {pos} is {b}, expected {}",
                    pattern_byte(pos)
                ));
            }
        }
    }
    Ok(())
}

/// Verify a read execution: every rank received exactly its requested
/// extents, with the file's bytes.
pub fn verify_read(
    req: &CollectiveRequest,
    file: &SparseFile,
    received: &[Vec<(Extent, Vec<u8>)>],
) -> Result<(), String> {
    for rr in &req.ranks {
        let rank = rr.rank;
        let pieces = received.get(rank.0).map(Vec::as_slice).unwrap_or(&[]);
        // Content check.
        for (e, data) in pieces {
            let expect = file.read_vec(e.offset, e.len as usize);
            if *data != expect {
                return Err(format!("{rank}: wrong data for extent {e}"));
            }
        }
        // Coverage check: pieces tile exactly the rank's request.
        let got = mcio_pfs::extent::coalesce(pieces.iter().map(|(e, _)| *e).collect());
        if rr.extents != got {
            return Err(format!(
                "{rank}: received coverage {got:?} != requested {:?}",
                rr.extents
            ));
        }
        // No duplicate delivery.
        let total: u64 = pieces.iter().map(|(e, _)| e.len).sum();
        if total != rr.bytes() {
            return Err(format!(
                "{rank}: received {total} bytes for a {}-byte request",
                rr.bytes()
            ));
        }
    }
    Ok(())
}

/// Round-trip helper used across the test suite: plan + execute + verify
/// a write, then a read of the same request, with both strategies'
/// plans. Returns the write report.
pub fn roundtrip(
    write_plan: &CollectivePlan,
    read_plan: &CollectivePlan,
    req_write: &CollectiveRequest,
    req_read: &CollectiveRequest,
) -> Result<(FunctionalReport, FunctionalReport), String> {
    let mut file = SparseFile::new();
    let wrep = execute_write(write_plan, &mut file)?;
    verify_write(req_write, &file)?;
    let (received, rrep) = execute_read(read_plan, &file)?;
    verify_read(req_read, &file, &received)?;
    Ok((wrep, rrep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollectiveConfig;
    use crate::memory::ProcMemory;
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
    fn twophase_write_read_roundtrip_serial() {
        let wreq = serial_req(Rw::Write, 6, 97);
        let rreq = serial_req(Rw::Read, 6, 97);
        let map = ProcessMap::new(6, 3, Placement::Block);
        let mem = ProcMemory::uniform(6, 64);
        let cfg = CollectiveConfig::with_buffer(64);
        let wp = twophase::plan(&wreq, &map, &mem, &cfg);
        let rp = twophase::plan(&rreq, &map, &mem, &cfg);
        let (wrep, rrep) = roundtrip(&wp, &rp, &wreq, &rreq).unwrap();
        assert_eq!(wrep.bytes_io, 6 * 97);
        assert_eq!(rrep.bytes_shuffled, 6 * 97);
        assert!(wrep.peak_agg_buffer <= 64);
    }

    #[test]
    fn mcio_write_read_roundtrip_serial() {
        let wreq = serial_req(Rw::Write, 6, 97);
        let rreq = serial_req(Rw::Read, 6, 97);
        let map = ProcessMap::new(6, 3, Placement::Block);
        let mem = ProcMemory::normal(6, 64, 0.5, 11);
        let cfg = CollectiveConfig::with_buffer(64)
            .msg_ind(128)
            .msg_group(200)
            .mem_min(0);
        let wp = mcio::plan(&wreq, &map, &mem, &cfg);
        let rp = mcio::plan(&rreq, &map, &mem, &cfg);
        roundtrip(&wp, &rp, &wreq, &rreq).unwrap();
    }

    #[test]
    fn both_strategies_same_file_interleaved() {
        let wreq = interleaved_req(Rw::Write, 4, 7, 13);
        let rreq = interleaved_req(Rw::Read, 4, 7, 13);
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::normal(4, 50, 0.5, 3);
        let cfg = CollectiveConfig::with_buffer(50)
            .msg_ind(64)
            .msg_group(128)
            .mem_min(0);

        let mut file_tp = SparseFile::new();
        let wp = twophase::plan(&wreq, &map, &mem, &cfg);
        execute_write(&wp, &mut file_tp).unwrap();
        verify_write(&wreq, &file_tp).unwrap();

        let mut file_mc = SparseFile::new();
        let wp = mcio::plan(&wreq, &map, &mem, &cfg);
        execute_write(&wp, &mut file_mc).unwrap();
        verify_write(&wreq, &file_mc).unwrap();

        // Byte-identical files from both strategies.
        let cover = wreq.coverage();
        for e in cover {
            assert_eq!(
                file_tp.read_vec(e.offset, e.len as usize),
                file_mc.read_vec(e.offset, e.len as usize)
            );
        }

        // Reads through MC against the TP-written file.
        let rp = mcio::plan(&rreq, &map, &mem, &cfg);
        let (received, _) = execute_read(&rp, &file_tp).unwrap();
        verify_read(&rreq, &file_tp, &received).unwrap();
    }

    #[test]
    fn write_report_counts() {
        let req = serial_req(Rw::Write, 2, 100);
        let map = ProcessMap::new(2, 1, Placement::Block);
        let mem = ProcMemory::uniform(2, 1000);
        let cfg = CollectiveConfig::with_buffer(1000);
        let p = twophase::plan(&req, &map, &mem, &cfg);
        let mut file = SparseFile::new();
        let rep = execute_write(&p, &mut file).unwrap();
        assert_eq!(rep.bytes_shuffled, 200);
        assert_eq!(rep.bytes_io, 200);
        assert_eq!(rep.rounds_executed, 1);
        assert_eq!(rep.peak_agg_buffer, 200);
    }

    #[test]
    fn direction_mismatch_rejected() {
        let req = serial_req(Rw::Write, 2, 10);
        let map = ProcessMap::new(2, 1, Placement::Block);
        let mem = ProcMemory::uniform(2, 100);
        let p = twophase::plan(&req, &map, &mem, &CollectiveConfig::with_buffer(100));
        assert!(execute_read(&p, &SparseFile::new()).is_err());
        let rreq = serial_req(Rw::Read, 2, 10);
        let rp = twophase::plan(&rreq, &map, &mem, &CollectiveConfig::with_buffer(100));
        assert!(execute_write(&rp, &mut SparseFile::new()).is_err());
    }

    #[test]
    fn corrupted_plan_detected() {
        let req = serial_req(Rw::Write, 2, 100);
        let map = ProcessMap::new(2, 2, Placement::Block);
        let mem = ProcMemory::uniform(2, 1000);
        let mut p = twophase::plan(&req, &map, &mem, &CollectiveConfig::with_buffer(1000));
        // Drop one message: a window byte never arrives.
        p.groups[0].rounds[0].messages.remove(0);
        let err = execute_write(&p, &mut SparseFile::new()).unwrap_err();
        assert!(err.contains("never arrived"), "{err}");
    }

    #[test]
    fn overlapping_writers_last_value_consistent() {
        // Two ranks write the same extent; oracle data is identical, so
        // the file is well-defined and verification passes.
        let req = CollectiveRequest::new(
            Rw::Write,
            vec![vec![Extent::new(0, 50)], vec![Extent::new(0, 50)]],
        );
        let map = ProcessMap::new(2, 1, Placement::Block);
        let mem = ProcMemory::uniform(2, 100);
        let p = twophase::plan(&req, &map, &mem, &CollectiveConfig::with_buffer(100));
        let mut file = SparseFile::new();
        let rep = execute_write(&p, &mut file).unwrap();
        verify_write(&req, &file).unwrap();
        assert_eq!(rep.bytes_shuffled, 100);
        assert_eq!(rep.bytes_io, 50);
    }

    #[test]
    fn empty_plan_executes() {
        let req = CollectiveRequest::new(Rw::Write, vec![vec![], vec![]]);
        let map = ProcessMap::new(2, 1, Placement::Block);
        let mem = ProcMemory::uniform(2, 100);
        let p = twophase::plan(&req, &map, &mem, &CollectiveConfig::default());
        let mut file = SparseFile::new();
        let rep = execute_write(&p, &mut file).unwrap();
        assert_eq!(rep.bytes_io, 0);
        assert!(file.is_empty());
    }

    #[test]
    fn many_rounds_small_buffer() {
        let wreq = serial_req(Rw::Write, 4, 256);
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::uniform(4, 16); // tiny buffers → many rounds
        let cfg = CollectiveConfig::with_buffer(16);
        let p = twophase::plan(&wreq, &map, &mem, &cfg);
        assert!(p.max_rounds() >= 32);
        let mut file = SparseFile::new();
        let rep = execute_write(&p, &mut file).unwrap();
        verify_write(&wreq, &file).unwrap();
        assert!(rep.peak_agg_buffer <= 16);
    }
}
