//! Cross-executor consistency: the three executors and the plan
//! statistics must agree on byte accounting for the same plan, across
//! strategies, workloads and scheduling modes.

use mcio::cluster::spec::ClusterSpec;
use mcio::cluster::ProcessMap;
use mcio::core::exec_fn::{execute_read, execute_write};
use mcio::core::exec_sim::{simulate_observed, Exchange, Observe, Pipeline};
use mcio::core::mcio as mc;
use mcio::core::{twophase, CollectiveConfig, ProcMemory};
use mcio::pfs::{Rw, SparseFile};
use mcio::workloads::{science, CollPerf, Ior};

const MIB: u64 = 1 << 20;

#[test]
fn byte_accounting_agrees_everywhere() {
    let spec = ClusterSpec::small(4, 2);
    let map = ProcessMap::block_ppn(8, 2);
    let mem = ProcMemory::normal(8, 256 << 10, 0.5, 77);

    let workloads: Vec<(&str, mcio::core::CollectiveRequest)> = vec![
        ("ior", Ior::paper(8, MIB, 4).request(Rw::Write)),
        (
            "collperf",
            CollPerf {
                dims: [64, 64, 64],
                grid: [2, 2, 2],
                elem: 4,
            }
            .request(Rw::Write),
        ),
        (
            "checkpoint",
            science::checkpoint(
                Rw::Write,
                1024,
                &[MIB, MIB / 2, 0, MIB / 4, MIB, 0, 777, MIB],
            ),
        ),
    ];

    for (name, req) in workloads {
        let per_node = (req.total_bytes() / 2).max(1);
        let cfg = CollectiveConfig::with_buffer(256 << 10)
            .msg_group(per_node)
            .msg_ind(per_node / 2)
            .mem_min(0);
        for plan in [
            twophase::plan(&req, &map, &mem, &cfg),
            mc::plan(&req, &map, &mem, &cfg),
        ] {
            plan.check(&req).unwrap();
            // Functional write accounting.
            let mut file = SparseFile::new();
            let frep = execute_write(&plan, &mut file).unwrap();
            // Plan-level statistics.
            let stats = plan.stats(Some(&map));
            assert_eq!(frep.bytes_io, stats.io_bytes, "{name}: io bytes");
            assert_eq!(
                frep.bytes_shuffled, stats.message_bytes,
                "{name}: shuffle bytes"
            );
            // The timing executor, in every scheduling mode, moves the
            // same bytes.
            for (pipeline, exchange) in [
                (Pipeline::Serial, Exchange::Direct),
                (Pipeline::DoubleBuffered, Exchange::Direct),
                (Pipeline::Serial, Exchange::TwoLevel),
            ] {
                let obs = Observe::default();
                let (t, _) = simulate_observed(&plan, &map, &spec, pipeline, exchange, obs);
                assert_eq!(t.bytes, stats.io_bytes, "{name}: sim bytes");
                assert!(t.bandwidth_mibs > 0.0);
            }
        }
    }
}

#[test]
fn read_write_symmetry_of_accounting() {
    let map = ProcessMap::block_ppn(6, 3);
    let mem = ProcMemory::uniform(6, 128 << 10);
    let cfg = CollectiveConfig::with_buffer(128 << 10).mem_min(0);
    let ior = Ior::paper(6, MIB / 2, 4);

    let wplan = twophase::plan(&ior.request(Rw::Write), &map, &mem, &cfg);
    let rplan = twophase::plan(&ior.request(Rw::Read), &map, &mem, &cfg);
    let mut file = SparseFile::new();
    let w = execute_write(&wplan, &mut file).unwrap();
    let (_, r) = execute_read(&rplan, &file).unwrap();
    // Same pattern either direction: identical byte movement.
    assert_eq!(w.bytes_io, r.bytes_io);
    assert_eq!(w.bytes_shuffled, r.bytes_shuffled);
    assert_eq!(w.rounds_executed, r.rounds_executed);
}

#[test]
fn scheduling_modes_preserve_makespan_ordering() {
    // Pipelining may only help; two-level may help or hurt, but the
    // bytes and the plan are identical.
    let map = ProcessMap::block_ppn(12, 3);
    let spec = ClusterSpec::small(4, 4);
    let mem = ProcMemory::uniform(12, 128 << 10);
    let req = Ior::paper(12, 2 * MIB, 4).request(Rw::Write);
    let cfg = CollectiveConfig::with_buffer(128 << 10).mem_min(0);
    let plan = twophase::plan(&req, &map, &mem, &cfg);
    let run = |pipeline| {
        let obs = Observe::default();
        simulate_observed(&plan, &map, &spec, pipeline, Exchange::Direct, obs).0
    };
    let serial = run(Pipeline::Serial);
    let piped = run(Pipeline::DoubleBuffered);
    assert!(
        piped.elapsed <= serial.elapsed,
        "double buffering must never slow a chain: {} vs {}",
        piped.elapsed,
        serial.elapsed
    );
}
