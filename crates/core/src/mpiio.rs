//! A miniature MPI-IO layer: `MPI_File_write_all` / `read_all` running
//! the complete collective protocol **distributedly** over `mcio-simpi`.
//!
//! This is the shape of ROMIO itself: every rank flattens its own file
//! view, the ranks **allgather** their offset/length lists (the paper's
//! "each process first analyzes its own I/O request respectively and
//! let the aggregators know the entire aggregated I/O requests from all
//! processes"), every rank then *independently computes the identical
//! plan* (both planners are deterministic), and executes its own role
//! through the rank-role walk of [`crate::exec_mpi`] — sending its data
//! slices, aggregating windows if it was chosen, and touching the shared
//! file. No rank ever sees another rank's buffer except through messages.
//!
//! Views must be monotone (file offsets nondecreasing in data order), as
//! MPI requires of file views.

use crate::config::CollectiveConfig;
use crate::exec_mpi::{walk, Bytes, Endpoint};
use crate::memory::ProcMemory;
use crate::plan::CollectivePlan;
use crate::request::{CollectiveRequest, RankRequest};
use crate::Strategy;
use mcio_cluster::{ProcessMap, Rank};
use mcio_pfs::{Extent, Rw, SparseFile};
use mcio_simpi::collectives::{decode_u64s, encode_u64s};
use mcio_simpi::{Comm, FileView};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;

/// Errors of the collective file layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// The caller's buffer length is inconsistent with the view mapping.
    ShortBuffer {
        /// Bytes the operation needed.
        needed: u64,
        /// Bytes the buffer held.
        got: u64,
    },
    /// A plan failed its structural check (a planner bug; never expected).
    BadPlan(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::ShortBuffer { needed, got } => {
                write!(f, "buffer holds {got} bytes, operation needs {needed}")
            }
            IoError::BadPlan(e) => write!(f, "planner produced an invalid plan: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

/// A collectively opened file handle, one per rank.
pub struct CollFile {
    comm: Comm,
    file: Arc<Mutex<SparseFile>>,
    map: ProcessMap,
    mem: ProcMemory,
    cfg: CollectiveConfig,
    strategy: Strategy,
    view: FileView,
    /// Per-rank independent file pointer, in *view data* space.
    pointer: u64,
    /// Collective-call sequence number, advanced identically on every
    /// rank (collective calls occur in the same order everywhere); used
    /// to partition the tag space between consecutive collectives.
    epoch: u64,
}

impl CollFile {
    /// Collectively open a shared file. All arguments must be identical
    /// on every rank (as MPI requires of `MPI_File_open` parameters).
    pub fn open(
        comm: Comm,
        file: Arc<Mutex<SparseFile>>,
        map: ProcessMap,
        mem: ProcMemory,
        cfg: CollectiveConfig,
        strategy: Strategy,
    ) -> Self {
        assert_eq!(comm.size(), map.nranks(), "communicator/topology mismatch");
        assert_eq!(comm.size(), mem.nranks(), "communicator/memory mismatch");
        CollFile {
            comm,
            file,
            map,
            mem,
            cfg,
            strategy,
            view: FileView::contiguous(0),
            pointer: 0,
            epoch: 0,
        }
    }

    /// Set this rank's file view and reset the file pointer
    /// (`MPI_File_set_view`).
    pub fn set_view(&mut self, view: FileView) {
        self.view = view;
        self.pointer = 0;
    }

    /// The rank of this handle.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Collective write of `buf` at the current per-rank file pointer;
    /// advances the pointer (`MPI_File_write_all`).
    pub fn write_all(&mut self, buf: &[u8]) -> Result<(), IoError> {
        let at = self.pointer;
        self.pointer += buf.len() as u64;
        self.write_at_all(at, buf)
    }

    /// Collective read into `buf` at the current pointer; advances it
    /// (`MPI_File_read_all`).
    pub fn read_all(&mut self, buf: &mut [u8]) -> Result<(), IoError> {
        let at = self.pointer;
        self.pointer += buf.len() as u64;
        self.read_at_all(at, buf)
    }

    /// Collective write at an explicit view-relative offset
    /// (`MPI_File_write_at_all`). Ranks may pass different lengths
    /// (including zero).
    pub fn write_at_all(&mut self, data_offset: u64, buf: &[u8]) -> Result<(), IoError> {
        self.collective(Rw::Write, data_offset, buf).map(drop)
    }

    /// Collective read at an explicit view-relative offset
    /// (`MPI_File_read_at_all`).
    pub fn read_at_all(&mut self, data_offset: u64, buf: &mut [u8]) -> Result<(), IoError> {
        for (at, data) in self.collective(Rw::Read, data_offset, buf)? {
            buf[at].copy_from_slice(&data);
        }
        Ok(())
    }

    /// One collective of direction `rw` over `buf`: exchange requests,
    /// plan, then walk this rank's role. Returns the pieces that arrived
    /// for this rank (none for a write), each with its place in `buf`.
    fn collective(&mut self, rw: Rw, data_offset: u64, buf: &[u8]) -> Result<Vec<Placed>, IoError> {
        let (req, mine) = self.exchange_requests(rw, data_offset, buf.len() as u64);
        let plan = self.plan(&req)?;
        // `mine` is in data order with `prefix[i]` = data bytes before
        // extent `i`; monotone views make data order equal offset order,
        // so a binary search locates an extent's bytes in `buf`.
        let prefix = prefix_sums(&mine);
        let place = |e: Extent| {
            let i = mine.partition_point(|x| x.end() <= e.offset);
            let host = &mine[i];
            debug_assert!(
                host.contains_extent(&e),
                "message extent {e} not within this rank's request"
            );
            let start = (prefix[i] + (e.offset - host.offset)) as usize;
            start..start + e.len as usize
        };
        let mut caller = Endpoint::new(|e, out| out.copy_from_slice(&buf[place(e)]));
        walk(&self.comm, &plan, self.epoch, &mut caller, &mut &*self.file);
        // A closing barrier keeps the collective call collective: no
        // rank returns before the data of slower groups is in the file.
        self.comm.barrier();
        self.epoch += 1;
        Ok(caller
            .got
            .into_iter()
            .map(|(e, data)| (place(e), data))
            .collect())
    }

    /// Phase 0 of two-phase I/O: flatten the local view and allgather
    /// everyone's offset/length lists. Returns the (identical on every
    /// rank) collective request and this rank's own extent list in data
    /// order.
    fn exchange_requests(
        &self,
        rw: Rw,
        data_offset: u64,
        nbytes: u64,
    ) -> (CollectiveRequest, Vec<Extent>) {
        let mine: Vec<Extent> = self
            .view
            .segments(data_offset, nbytes)
            .into_iter()
            .map(|s| Extent::new(s.offset, s.len))
            .collect();
        let mut flat = Vec::with_capacity(mine.len() * 2);
        for e in &mine {
            flat.push(e.offset);
            flat.push(e.len);
        }
        let all = self.comm.allgather(encode_u64s(&flat));
        let ranks = all
            .into_iter()
            .enumerate()
            .map(|(r, bytes)| {
                let nums = decode_u64s(&bytes);
                let extents = nums
                    .chunks_exact(2)
                    .map(|c| Extent::new(c[0], c[1]))
                    .collect();
                RankRequest::new(Rank(r), extents)
            })
            .collect();
        (CollectiveRequest { rw, ranks }, mine)
    }

    /// Every rank computes the same plan from the same inputs.
    fn plan(&self, req: &CollectiveRequest) -> Result<CollectivePlan, IoError> {
        let plan = self.strategy.plan(req, &self.map, &self.mem, &self.cfg);
        plan.check(req).map_err(IoError::BadPlan)?;
        Ok(plan)
    }
}

/// Bytes that arrived for a rank, with their place in its buffer.
type Placed = (Range<usize>, Vec<u8>);

/// The shared file, locked for each extent it moves.
impl Bytes for &Mutex<SparseFile> {
    fn copy_out(&mut self, e: Extent, out: &mut [u8]) {
        self.lock().read_at(e.offset, out);
    }

    fn copy_in(&mut self, e: Extent, data: &[u8]) {
        self.lock().write_at(e.offset, data);
    }
}

/// `prefix[i]` = total bytes of `extents[..i]`.
fn prefix_sums(extents: &[Extent]) -> Vec<u64> {
    let mut out = Vec::with_capacity(extents.len());
    let mut acc = 0u64;
    for e in extents {
        out.push(acc);
        acc += e.len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcio_cluster::Placement;
    use mcio_simpi::{runtime::run, Datatype};

    fn shared_file() -> Arc<Mutex<SparseFile>> {
        Arc::new(Mutex::new(SparseFile::new()))
    }

    /// Each rank writes `count` bytes of a distinctive pattern through a
    /// strided view; then reads back collectively and checks.
    fn strided_roundtrip(strategy: Strategy) {
        let nranks = 6;
        let map = ProcessMap::new(nranks, 3, Placement::Block);
        let mem = ProcMemory::normal(nranks, 4096, 0.5, 8);
        let cfg = CollectiveConfig::with_buffer(4096)
            .msg_group(30_000)
            .msg_ind(15_000)
            .mem_min(0);
        let file = shared_file();
        let count = 10_000u64;

        let file2 = Arc::clone(&file);
        run(nranks, move |comm| {
            let rank = comm.rank();
            let mut fh = CollFile::open(
                comm,
                Arc::clone(&file2),
                map.clone(),
                mem.clone(),
                cfg.clone(),
                strategy,
            );
            // Interleaved view: 500-byte blocks every nranks*500 bytes.
            let ft = Datatype::resized(Datatype::bytes(500), 500 * nranks as u64);
            fh.set_view(FileView::new(500 * rank as u64, ft));
            let data: Vec<u8> = (0..count).map(|i| (i as u8) ^ (rank as u8) << 4).collect();
            fh.write_all(&data).expect("collective write");

            // Read it back through the same view.
            fh.set_view(FileView::new(
                500 * rank as u64,
                Datatype::resized(Datatype::bytes(500), 500 * nranks as u64),
            ));
            let mut back = vec![0u8; count as usize];
            fh.read_all(&mut back).expect("collective read");
            assert_eq!(back, data, "rank {rank} read back different bytes");
        });

        // The file is fully tiled with every rank's pattern.
        let file = file.lock();
        assert_eq!(file.len(), count * nranks as u64);
    }

    #[test]
    fn write_read_all_twophase() {
        strided_roundtrip(Strategy::TwoPhase);
    }

    #[test]
    fn write_read_all_memory_conscious() {
        strided_roundtrip(Strategy::MemoryConscious);
    }

    #[test]
    fn file_pointer_advances() {
        let nranks = 4;
        let map = ProcessMap::new(nranks, 2, Placement::Block);
        let mem = ProcMemory::uniform(nranks, 1 << 16);
        let cfg = CollectiveConfig::with_buffer(1 << 16).mem_min(0);
        let file = shared_file();
        let file2 = Arc::clone(&file);
        run(nranks, move |comm| {
            let rank = comm.rank();
            let mut fh = CollFile::open(
                comm,
                Arc::clone(&file2),
                map.clone(),
                mem.clone(),
                cfg.clone(),
                Strategy::TwoPhase,
            );
            // Contiguous per-rank lanes of 2000 bytes.
            fh.set_view(FileView::contiguous(2000 * rank as u64));
            // Two successive collective writes land back-to-back.
            fh.write_all(&[rank as u8; 1200]).unwrap();
            fh.write_all(&[0xA0 | rank as u8; 800]).unwrap();
        });
        let file = file.lock();
        for rank in 0..nranks {
            let lane = file.read_vec(2000 * rank as u64, 2000);
            assert!(lane[..1200].iter().all(|&b| b == rank as u8));
            assert!(lane[1200..].iter().all(|&b| b == 0xA0 | rank as u8));
        }
    }

    #[test]
    fn unequal_lengths_including_zero() {
        let nranks = 4;
        let map = ProcessMap::new(nranks, 2, Placement::Block);
        let mem = ProcMemory::uniform(nranks, 1 << 14);
        let cfg = CollectiveConfig::with_buffer(1 << 14).mem_min(0);
        let file = shared_file();
        let file2 = Arc::clone(&file);
        run(nranks, move |comm| {
            let rank = comm.rank();
            let mut fh = CollFile::open(
                comm,
                Arc::clone(&file2),
                map.clone(),
                mem.clone(),
                cfg.clone(),
                Strategy::MemoryConscious,
            );
            fh.set_view(FileView::contiguous(10_000 * rank as u64));
            // Rank r writes r*1000 bytes; rank 0 writes nothing but must
            // still participate in the collective.
            let data = vec![0x30 + rank as u8; rank * 1000];
            fh.write_all(&data).unwrap();
        });
        let file = file.lock();
        for rank in 1..nranks {
            let lane = file.read_vec(10_000 * rank as u64, rank * 1000);
            assert!(lane.iter().all(|&b| b == 0x30 + rank as u8), "rank {rank}");
        }
    }

    #[test]
    fn subarray_view_collective() {
        // A 2D array: 8x8 bytes, four ranks each owning a 4x4 quadrant.
        let nranks = 4;
        let map = ProcessMap::new(nranks, 2, Placement::Block);
        let mem = ProcMemory::uniform(nranks, 1 << 12);
        let cfg = CollectiveConfig::with_buffer(1 << 12).mem_min(0);
        let file = shared_file();
        let file2 = Arc::clone(&file);
        run(nranks, move |comm| {
            let rank = comm.rank();
            let (si, sj) = (rank / 2, rank % 2);
            let ft = Datatype::subarray(
                vec![8, 8],
                vec![4, 4],
                vec![si as u64 * 4, sj as u64 * 4],
                1,
            );
            let mut fh = CollFile::open(
                comm,
                Arc::clone(&file2),
                map.clone(),
                mem.clone(),
                cfg.clone(),
                Strategy::TwoPhase,
            );
            fh.set_view(FileView::new(0, ft));
            fh.write_all(&[0x10 * (rank as u8 + 1); 16]).unwrap();
        });
        // Check the quadrant layout in row-major order.
        let file = file.lock();
        let grid = file.read_vec(0, 64);
        for (pos, &b) in grid.iter().enumerate() {
            let (i, j) = (pos / 8, pos % 8);
            let owner = (i / 4) * 2 + j / 4;
            assert_eq!(b, 0x10 * (owner as u8 + 1), "cell ({i},{j})");
        }
    }

    #[test]
    fn tags_stay_below_the_runtime_after_256_collectives() {
        // From epoch 256 on an unwrapped epoch tag would reach simpi's
        // internal tags, where a round's data reads as a barrier or a
        // dead rank's notice.
        let nranks = 2;
        let map = ProcessMap::new(nranks, 2, Placement::Block);
        let mem = ProcMemory::uniform(nranks, 32);
        let cfg = CollectiveConfig::with_buffer(32).mem_min(0);
        let file = shared_file();
        let file2 = Arc::clone(&file);
        run(nranks, move |comm| {
            let rank = comm.rank();
            let mut fh = CollFile::open(
                comm,
                Arc::clone(&file2),
                map.clone(),
                mem.clone(),
                cfg.clone(),
                Strategy::TwoPhase,
            );
            fh.set_view(FileView::contiguous(640 * rank as u64));
            for epoch in 0..=256u64 {
                fh.write_at_all(0, &[epoch as u8 ^ rank as u8; 640])
                    .unwrap();
            }
        });
        let file = file.lock();
        assert_eq!(file.read_vec(0, 640), vec![0u8; 640]);
        assert_eq!(file.read_vec(640, 640), vec![1u8; 640]);
    }

    #[test]
    fn epochs_keep_collectives_apart() {
        // Back-to-back collectives with different shapes must not
        // cross-match messages (the epoch tag partition).
        let nranks = 3;
        let map = ProcessMap::new(nranks, 3, Placement::Block);
        let mem = ProcMemory::uniform(nranks, 512);
        let cfg = CollectiveConfig::with_buffer(512).mem_min(0);
        let file = shared_file();
        let file2 = Arc::clone(&file);
        run(nranks, move |comm| {
            let rank = comm.rank();
            let mut fh = CollFile::open(
                comm,
                Arc::clone(&file2),
                map.clone(),
                mem.clone(),
                cfg.clone(),
                Strategy::TwoPhase,
            );
            fh.set_view(FileView::contiguous(3000 * rank as u64));
            for round in 0..5u8 {
                fh.write_all(&[round * 7 + rank as u8; 600]).unwrap();
            }
            let mut back = vec![0u8; 3000];
            fh.read_at_all(0, &mut back).unwrap();
            for round in 0..5usize {
                assert!(back[round * 600..(round + 1) * 600]
                    .iter()
                    .all(|&b| b == round as u8 * 7 + rank as u8));
            }
        });
    }
}
