//! Behavioral properties of the timing model: the qualitative claims of
//! the paper must hold on the simulated machine before any figure is
//! trusted.

use mcio::cluster::spec::ClusterSpec;
use mcio::cluster::ProcessMap;
use mcio::core::exec_sim::simulate;
use mcio::core::mcio as mc;
use mcio::core::{twophase, CollectiveConfig, ProcMemory};
use mcio::pfs::Rw;
use mcio::workloads::{synthetic, Ior};

const MIB: u64 = 1 << 20;

fn small_cluster() -> ClusterSpec {
    ClusterSpec::small(4, 2)
}

#[test]
fn more_data_takes_longer() {
    let map = ProcessMap::block_ppn(8, 2);
    let spec = small_cluster();
    let mem = ProcMemory::uniform(8, 4 * MIB);
    let cfg = CollectiveConfig::with_buffer(4 * MIB);
    let mut last = mcio_des::SimDuration::ZERO;
    for chunk in [MIB, 4 * MIB, 16 * MIB] {
        let req = synthetic::serial_chunks(Rw::Write, 8, chunk);
        let t = simulate(&twophase::plan(&req, &map, &mem, &cfg), &map, &spec);
        assert!(t.elapsed > last, "elapsed must grow with data");
        last = t.elapsed;
    }
}

#[test]
fn reads_not_slower_than_writes() {
    let map = ProcessMap::block_ppn(8, 2);
    let spec = small_cluster();
    let mem = ProcMemory::uniform(8, 4 * MIB);
    let cfg = CollectiveConfig::with_buffer(4 * MIB);
    let w = simulate(
        &twophase::plan(
            &synthetic::serial_chunks(Rw::Write, 8, 8 * MIB),
            &map,
            &mem,
            &cfg,
        ),
        &map,
        &spec,
    );
    let r = simulate(
        &twophase::plan(
            &synthetic::serial_chunks(Rw::Read, 8, 8 * MIB),
            &map,
            &mem,
            &cfg,
        ),
        &map,
        &spec,
    );
    assert!(r.bandwidth_mibs >= w.bandwidth_mibs);
}

#[test]
fn simulation_is_deterministic() {
    let map = ProcessMap::block_ppn(12, 3);
    let spec = small_cluster();
    let mem = ProcMemory::normal(12, 2 * MIB, 0.5, 9);
    let req = Ior::paper(12, 8 * MIB, 4).request(Rw::Write);
    let cfg = CollectiveConfig::with_buffer(2 * MIB)
        .msg_group(req.total_bytes() / 4)
        .msg_ind(req.total_bytes() / 8)
        .mem_min(MIB);
    let plan = mc::plan(&req, &map, &mem, &cfg);
    let a = simulate(&plan, &map, &spec);
    let b = simulate(&plan, &map, &spec);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.membus_busy_max, b.membus_busy_max);
    // Planning is deterministic too.
    let plan2 = mc::plan(&req, &map, &mem, &cfg);
    assert_eq!(plan, plan2);
}

#[test]
fn baseline_degrades_as_buffers_shrink() {
    let map = ProcessMap::block_ppn(12, 3);
    let spec = small_cluster();
    let req = Ior::paper(12, 8 * MIB, 4).request(Rw::Write);
    let mut last_bw = f64::INFINITY;
    for buf in [16 * MIB, 2 * MIB, 256 * 1024] {
        let mem = ProcMemory::uniform(12, buf);
        let cfg = CollectiveConfig::with_buffer(buf);
        let t = simulate(&twophase::plan(&req, &map, &mem, &cfg), &map, &spec);
        assert!(
            t.bandwidth_mibs < last_bw,
            "buffer {buf}: {} did not degrade below {last_bw}",
            t.bandwidth_mibs
        );
        last_bw = t.bandwidth_mibs;
    }
}

#[test]
fn memory_conscious_wins_under_heterogeneous_memory() {
    // The headline claim, at test scale: same heterogeneous machine,
    // MC plans around the starved processes.
    let map = ProcessMap::block_ppn(16, 4);
    let spec = small_cluster();
    let req = Ior::paper(16, 8 * MIB, 4).request(Rw::Write);
    let buf = MIB;
    let mem = ProcMemory::normal(16, buf, 0.5, 31);
    let per_node = req.total_bytes() / 4;
    let cfg = CollectiveConfig::with_buffer(buf)
        .msg_group(per_node)
        .msg_ind(per_node / 2)
        .mem_min(buf / 2);
    let tp = simulate(&twophase::plan(&req, &map, &mem, &cfg), &map, &spec);
    let mcp = simulate(&mc::plan(&req, &map, &mem, &cfg), &map, &spec);
    assert!(
        mcp.bandwidth_mibs > tp.bandwidth_mibs,
        "MC {} must beat two-phase {}",
        mcp.bandwidth_mibs,
        tp.bandwidth_mibs
    );
}

#[test]
fn memory_pressure_reduces_rounds_and_raises_buffers() {
    // The paper's secondary claim — MC "reduces aggregator memory
    // consumption and variance" — shows up in our model as: aggregation
    // buffers drawn from the *upper* tail of the availability
    // distribution (larger on average), hence fewer rounds, and in
    // particular a much less extreme worst aggregator (the baseline's
    // round count is set by its most starved designated aggregator).
    let map = ProcessMap::block_ppn(16, 4);
    let req = Ior::paper(16, 8 * MIB, 4).request(Rw::Write);
    let buf = MIB;
    let mem = ProcMemory::normal(16, buf, 0.5, 1234);
    let per_node = req.total_bytes() / 4;
    let cfg = CollectiveConfig::with_buffer(buf)
        .msg_group(per_node)
        .msg_ind(per_node / 2)
        .mem_min(buf / 2);
    let tp = twophase::plan(&req, &map, &mem, &cfg);
    let mcp = mc::plan(&req, &map, &mem, &cfg);
    assert!(
        mcp.stats(None).buffer_stats.mean() > tp.stats(None).buffer_stats.mean(),
        "MC must aggregate on memory-rich processes"
    );
    assert!(
        mcp.max_rounds() < tp.max_rounds(),
        "MC rounds {} must undercut baseline rounds {}",
        mcp.max_rounds(),
        tp.max_rounds()
    );
}

#[test]
fn group_division_keeps_traffic_local() {
    let map = ProcessMap::block_ppn(16, 4);
    // Unequal chunk sizes: the baseline's even hull split lands file
    // domains across node boundaries, so its shuffle goes off-node; the
    // node-aligned groups keep it local.
    let req = mcio::core::CollectiveRequest::new(
        Rw::Write,
        (0..16u64)
            .scan(0u64, |pos, r| {
                let len = (r + 1) * 256 * 1024;
                let e = mcio::pfs::Extent::new(*pos, len);
                *pos += len;
                Some(vec![e])
            })
            .collect(),
    );
    let mem = ProcMemory::uniform(16, 2 * MIB);
    let per_node = req.total_bytes() / 4;
    let cfg = CollectiveConfig::with_buffer(2 * MIB)
        .msg_group(per_node)
        .msg_ind(per_node / 2)
        .mem_min(0);
    let tp = twophase::plan(&req, &map, &mem, &cfg).stats(Some(&map));
    let mcp = mc::plan(&req, &map, &mem, &cfg).stats(Some(&map));
    assert!(
        mcp.intra_node_fraction() > tp.intra_node_fraction(),
        "MC locality {} <= baseline {}",
        mcp.intra_node_fraction(),
        tp.intra_node_fraction()
    );
}
