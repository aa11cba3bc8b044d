//! The IOR scenario: interleaved shared-file access, the pattern the
//! paper's Figures 7 and 8 measure, under both planners — then the
//! segmented layout, where each rank's data is already contiguous.
//!
//! ```sh
//! cargo run --release --example ior
//! ```

use mcio::cluster::spec::ClusterSpec;
use mcio::cluster::ProcessMap;
use mcio::core::exec_sim::simulate;
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
        let tp = simulate(&twophase::plan(&req, &map, &env, &cfg), &map, &spec);
        let mcio_plan = mc::plan(&req, &map, &env, &cfg);
        assert_eq!(mcio_plan.strategy, Strategy::MemoryConscious);
        let mcio_t = simulate(&mcio_plan, &map, &spec);
        println!(
            "{:>5}: two-phase {:>7.1} | memory-conscious {:>7.1} MiB/s",
            rw.name(),
            tp.bandwidth_mibs,
            mcio_t.bandwidth_mibs,
        );
    }

    // The segmented layout hands every aggregator one contiguous run
    // per rank: fewer, larger pieces to shuffle and to write.
    let mut seg = ior;
    seg.layout = IorLayout::Segmented;
    let req = seg.request(Rw::Write);
    let tp = simulate(&twophase::plan(&req, &map, &env, &cfg), &map, &spec);
    let mcio_t = simulate(&mc::plan(&req, &map, &env, &cfg), &map, &spec);
    println!(
        "segmented write: two-phase {:.1} | memory-conscious {:.1} MiB/s",
        tp.bandwidth_mibs, mcio_t.bandwidth_mibs,
    );
}
