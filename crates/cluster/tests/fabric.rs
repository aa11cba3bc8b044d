//! `Fabric`'s public contract, driven through the DES: the per-node
//! resource names, the stages an intra- and an inter-node message
//! cross, how far a straggler reaches, and the errors of
//! `ClusterSpec::parse_compact`. Every activity is registered through
//! `Simulation::activity`, directly or by `Fabric::message`.

use mcio_cluster::{ClusterSpec, Fabric, NodeId};
use mcio_des::{ActivityId, RunReport, SimDuration, SimTime, Simulation};

/// Three 2-core nodes with round numbers: 1,000 B/s memory buses,
/// 100 B/s NICs, a one-second wire and no message overhead.
fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::small(3, 2);
    spec.node.mem_bandwidth = 1000.0;
    spec.node.nic_bandwidth = 100.0;
    spec.node.nic_latency = SimDuration::from_secs(1);
    spec.message_overhead = SimDuration::ZERO;
    spec
}

/// One traced run of a `bytes` message from `src` to `dst` on `spec`:
/// the report and the message.
fn one_message(spec: &ClusterSpec, src: usize, dst: usize, bytes: u64) -> (RunReport, ActivityId) {
    let mut sim = Simulation::new();
    sim.enable_trace();
    let fabric = Fabric::build(&mut sim, spec);
    let msg = fabric.message(&mut sim, "msg", NodeId(src), NodeId(dst), bytes);
    (sim.run().expect("the run completes"), msg)
}

/// The resources `a` was served by, in service order, by name, with
/// the instant each service started and ended, in seconds.
fn crossed(rep: &RunReport, a: ActivityId) -> Vec<(String, f64, f64)> {
    let trace = rep.trace().expect("traced");
    let served = trace.iter().filter(|r| r.activity == a);
    let secs = |t: SimTime| t.as_secs_f64();
    served
        .map(|r| (rep.resource_name(r.resource), secs(r.start), secs(r.end)))
        .collect()
}

#[test]
fn every_node_has_a_membus_and_a_nic_pair_named_by_its_index() {
    let mut sim = Simulation::new();
    let fabric = Fabric::build(&mut sim, &spec());
    let rep = sim.run().expect("an empty run completes");
    assert_eq!(fabric.nnodes(), 3);
    assert_eq!(rep.resource_usages().len(), 9, "three resources per node");
    for n in 0..3 {
        let node = NodeId(n);
        let names = [
            fabric.membus(node),
            fabric.nic_tx(node),
            fabric.nic_rx(node),
        ]
        .map(|r| rep.resource_name(r));
        let want = ["membus", "nic_tx", "nic_rx"].map(|class| format!("node{n}.{class}"));
        assert_eq!(names, want);
    }
}

#[test]
fn an_intra_node_message_crosses_the_membus_twice_and_no_nic() {
    // 500 B at 1,000 B/s: half a second out of the buffer, half into it.
    let (rep, msg) = one_message(&spec(), 1, 1, 500);
    let bus = "node1.membus".to_string();
    assert_eq!(
        crossed(&rep, msg),
        [(bus.clone(), 0.0, 0.5), (bus, 0.5, 1.0)]
    );
    assert_eq!(rep.finish_time(msg).as_secs_f64(), 1.0);
    let nic_jobs: u64 = (rep.resource_usages().iter().enumerate())
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, u)| u.jobs_served)
        .sum();
    assert_eq!(nic_jobs, 0, "no NIC served anything");
}

#[test]
fn an_inter_node_message_crosses_out_bus_tx_wire_rx_and_in_bus() {
    // 100 B: out-bus 0.1 s, tx 1 s, the one-second wire, rx 1 s, in-bus 0.1 s.
    let (rep, msg) = one_message(&spec(), 0, 2, 100);
    let hops: Vec<(String, f64, f64)> = [
        ("node0.membus", 0.0, 0.1),
        ("node0.nic_tx", 0.1, 1.1),
        ("node2.nic_rx", 2.1, 3.1),
        ("node2.membus", 3.1, 3.2),
    ]
    .map(|(name, start, end)| (name.to_string(), start, end))
    .into();
    let got = crossed(&rep, msg);
    assert_eq!(got.len(), hops.len());
    for (got, want) in got.iter().zip(&hops) {
        assert_eq!(got.0, want.0);
        assert!((got.1 - want.1).abs() < 1e-9, "{got:?} vs {want:?}");
        assert!((got.2 - want.2).abs() < 1e-9, "{got:?} vs {want:?}");
    }
    // The wire occupies nothing: rx starts the latency after tx ends.
    let [_, tx, rx, _] = rep.trace().expect("traced") else {
        panic!("four services")
    };
    assert_eq!(rx.start, tx.end + spec().node.nic_latency);
}

#[test]
fn a_message_is_its_egress_then_its_ingress_stages() {
    let spec = spec();
    for (src, dst) in [(0, 2), (1, 0)] {
        let (rep, msg) = one_message(&spec, src, dst, 300);
        let mut sim = Simulation::new();
        let fabric = Fabric::build(&mut sim, &spec);
        let [out_bus, out_nic] = fabric.egress_stages(NodeId(src), 300);
        let [in_nic, in_bus] = fabric.ingress_stages(NodeId(dst), 300);
        let stages = [out_bus, out_nic, in_nic, in_bus];
        let direct = sim.activity("direct", SimTime::ZERO, &stages);
        let direct = sim.run().expect("the run completes").finish_time(direct);
        assert_eq!(rep.finish_time(msg), direct, "{src} -> {dst}");
    }
}

#[test]
fn a_straggler_slows_only_its_own_transfers() {
    let (even, slow) = (spec(), spec().with_straggler(1, 0.5));
    let finish = |spec: &ClusterSpec, src, dst, bytes| {
        let (rep, msg) = one_message(spec, src, dst, bytes);
        rep.finish_time(msg).as_secs_f64()
    };
    // Node 1 runs at half speed: its copy takes twice as long.
    assert_eq!(finish(&even, 1, 1, 500), 1.0);
    assert_eq!(finish(&slow, 1, 1, 500), 2.0);
    // Into node 1: its rx (50 B/s) and bus (500 B/s) are slow, the
    // sender's side is not: 0.1 + 1 + 1 + 2 + 0.2 s.
    assert!((finish(&slow, 0, 1, 100) - 4.3).abs() < 1e-9);
    // Between the other nodes nothing changes.
    for (src, dst) in [(0, 0), (0, 2), (2, 0), (2, 2)] {
        assert_eq!(
            finish(&even, src, dst, 100),
            finish(&slow, src, dst, 100),
            "{src} -> {dst}"
        );
    }
}

#[test]
fn malformed_compact_specs_are_one_line_errors() {
    for text in [
        "",
        "tiny",
        " testbed",
        "small",
        "small:",
        "small:4",
        "small:x2",
        "small:4x",
        "small:0x2",
        "small:4x0",
        "small:-1x2",
        "small:4x2x1",
        "small:4 x2",
        "small:99999999999999999999x2",
        "small:4x99999999999999999999",
        "small:1000000000000x2",
        "small:1000001x1",
        "small:4x1001",
    ] {
        let err = ClusterSpec::parse_compact(text).expect_err(text);
        assert_eq!(err.lines().count(), 1, "`{text}` → `{err}`");
    }
    let small = ClusterSpec::parse_compact("small:4x2").expect("well-formed");
    assert_eq!((small.nodes, small.node.cores), (4, 2));
    let widest = ClusterSpec::parse_compact("small:1000000x1000").expect("exascale-sized");
    assert_eq!((widest.nodes, widest.node.cores), (1_000_000, 1_000));
}
