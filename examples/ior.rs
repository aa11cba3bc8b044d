//! The IOR scenario: interleaved shared-file access, the pattern the
//! paper's Figures 7 and 8 measure — plus a comparison against
//! independent I/O and data sieving to show why collective I/O exists.
//!
//! ```sh
//! cargo run --release --example ior
//! ```

use mcio::cluster::spec::ClusterSpec;
use mcio::cluster::ProcessMap;
use mcio::core::exec_sim::simulate;
use mcio::core::sieving::{simulate_independent, simulate_sieving};
use mcio::core::{mcio as mc, twophase, CollectiveConfig, ProcMemory, Strategy};
use mcio::pfs::Rw;
use mcio::workloads::{Ior, IorLayout};

fn main() {
    const MIB: u64 = 1 << 20;
    let nranks = 120;
    let map = ProcessMap::block_ppn(nranks, 12);
    let spec = ClusterSpec::testbed_120();

    // 32 MiB per process in 64 KiB blocks: the "large number of small
    // and noncontiguous requests" regime the paper's introduction
    // motivates collective I/O with.
    let ior = Ior::paper(nranks, 32 * MIB, 512);
    println!(
        "IOR interleaved: {} ranks x 32 MiB = {} GiB shared file, {} blocks of {} KiB",
        nranks,
        ior.file_bytes() / (1 << 30),
        ior.segments * nranks as u64,
        ior.block_size / 1024,
    );

    let buf = 16 * MIB;
    let env = ProcMemory::normal(nranks, buf, 0.35, 2026);
    let cfg = CollectiveConfig::paper(ior.file_bytes(), map.nnodes(), buf);

    for rw in [Rw::Write, Rw::Read] {
        let req = ior.request(rw);
        let ind = simulate_independent(&req, &map, &spec);
        // Data sieving cannot merge across other ranks' interleaved blocks
        // without reading them too; with a 1 MiB hole tolerance it stays
        // close to plain independent I/O here (its win is on *clustered*
        // holes — see the sieving tests).
        let sieved = simulate_sieving(&req, &map, &spec, MIB);
        let tp = simulate(&twophase::plan(&req, &map, &env, &cfg), &map, &spec);
        let mcio_plan = mc::plan(&req, &map, &env, &cfg);
        assert_eq!(mcio_plan.strategy, Strategy::MemoryConscious);
        let mcio_t = simulate(&mcio_plan, &map, &spec);
        println!(
            "{:>5}: independent {:>7.1} | data sieving {:>7.1} | two-phase {:>7.1} | memory-conscious {:>7.1} MiB/s",
            rw.name(),
            ind.bandwidth_mibs,
            sieved.bandwidth_mibs,
            tp.bandwidth_mibs,
            mcio_t.bandwidth_mibs,
        );
    }

    // The segmented layout is friendlier to independent I/O — collective
    // I/O's edge narrows when each rank's data is already contiguous.
    let mut seg = ior;
    seg.layout = IorLayout::Segmented;
    let req = seg.request(Rw::Write);
    let ind = simulate_independent(&req, &map, &spec);
    let tp = simulate(&twophase::plan(&req, &map, &env, &cfg), &map, &spec);
    println!(
        "segmented write: independent {:.1} vs two-phase {:.1} MiB/s (contiguity closes the gap)",
        ind.bandwidth_mibs, tp.bandwidth_mibs,
    );
}
