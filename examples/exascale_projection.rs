//! The motivation experiment: run the same collective on the Table-1
//! 2010 petascale design and on (a slice of) the 2018 exascale
//! projection, where memory per core shrinks to megabytes — and watch
//! the baseline's memory sensitivity grow.
//!
//! ```sh
//! cargo run --release --example exascale_projection
//! ```

use mcio::cluster::spec::ClusterSpec;
use mcio::cluster::{ProcessMap, Table1};
use mcio::core::exec_sim::simulate;
use mcio::core::{mcio as mc, twophase, CollectiveConfig, ProcMemory};
use mcio::pfs::Rw;
use mcio::workloads::Ior;

fn main() {
    const MIB: u64 = 1 << 20;
    let t = Table1::paper();
    println!(
        "Table 1 projection: memory/core {:.2} GB (2010) -> {:.0} MB (2018), factor {:.4}\n",
        t.from.memory_per_core() / 1e9,
        t.to.memory_per_core() / 1e6,
        t.memory_per_core_factor(),
    );

    // Same job on both machines: 512 ranks writing 8 MiB each,
    // interleaved. On the 2010 design each core has ~1.3 GB; on the 2018
    // design ~10 MB — the aggregation buffer IS the memory budget.
    for (label, spec, ppn, mem_per_core) in [
        (
            "petascale-2010 (slice)",
            ClusterSpec::petascale_2010(),
            12usize,
            1280 * MIB,
        ),
        (
            "exascale-2018 (slice)",
            ClusterSpec::exascale_2018(),
            64,
            10 * MIB,
        ),
    ] {
        let mut spec = spec;
        spec.nodes = spec.nodes.min(512 / ppn + 1);
        // Scale the PFS slice along with the compute slice.
        spec.io_servers = 16;
        let nranks = 512;
        let map = ProcessMap::block_ppn(nranks, ppn);
        let ior = Ior::paper(nranks, 8 * MIB, 4);

        // Collective buffers cannot exceed per-core memory; extreme
        // scale forces small, *variable* buffers.
        let buf = (mem_per_core / 2).min(64 * MIB);
        let env = ProcMemory::normal(nranks, buf, 0.35, 4);
        let req = ior.request(Rw::Write);
        let cfg = CollectiveConfig::paper(req.total_bytes(), map.nnodes(), buf);

        let tp = simulate(&twophase::plan(&req, &map, &env, &cfg), &map, &spec);
        let mcp = simulate(&mc::plan(&req, &map, &env, &cfg), &map, &spec);
        println!(
            "{label:<24} buffers ~{:>4} MiB: two-phase {:>7.1} MiB/s, memory-conscious {:>7.1} MiB/s ({:+.1}%)",
            buf / MIB,
            tp.bandwidth_mibs,
            mcp.bandwidth_mibs,
            (mcp.bandwidth_mibs / tp.bandwidth_mibs - 1.0) * 100.0,
        );
    }
    println!("\nThe tighter the memory, the more the memory-conscious strategy matters.");
}
