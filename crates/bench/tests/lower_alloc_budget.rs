//! Lowering and running a plan allocates per round, per request and per
//! resource — not per activity: an activity is a row of the simulation's
//! arenas, its label a 16-byte row and its stages written in place. The
//! counters — allocations, and bytes per activity on the exascale cut —
//! are exact and repeat, so they are gated where a wall-clock figure
//! could not be.
//!
//! Compiled only with the counting allocator:
//! `cargo test --release -p mcio-bench --features count-alloc --test lower_alloc_budget`.
//! One test in the file, so nothing else allocates while it counts.
#![cfg(feature = "count-alloc")]

use mcio_bench::Harness;
use mcio_cluster::spec::ClusterSpec;
use mcio_core::{Rw, Strategy};
use mcio_prof::alloc::snapshot;

const MIB: u64 = 1 << 20;

/// Allocations and bytes allocated in one untraced simulation of the
/// memory-conscious plan of `req` at nominal buffer `buf`, and its
/// activity count.
fn simulate(h: &Harness, req: &mcio_core::CollectiveRequest, buf: u64) -> (u64, u64, u64) {
    let cell = h.cell(Strategy::MemoryConscious, req, buf);
    let plan = cell.plan();
    let before = snapshot();
    let report = cell.timing(&plan);
    let after = snapshot();
    let activities = report.activities as u64;
    (
        after.allocs - before.allocs,
        after.bytes - before.bytes,
        activities,
    )
}

#[test]
fn an_untraced_simulation_allocates_per_request_not_per_activity() {
    // fig8's IOR at a fifth of the ranks: 216 ranks on 18 nodes, 8 MiB
    // each in 8 segments, 4 MiB nominal buffers.
    let h = Harness::new(ClusterSpec::testbed_1080(), 216, 12, 0xF168);
    let req = mcio_workloads::Ior::paper(216, 8 * MIB, 8).request(Rw::Write);
    let (allocs, _, activities) = simulate(&h, &req, 4 * MIB);
    println!("fig8 cut: {allocs} allocations for {activities} activities");

    // Measured: 285 allocations for the cell's 5,668 activities, 0.05
    // each — the machine's tables, the lowering's scratch and flat
    // vectors, the engine's queues and pools as they grow. It was 6,356
    // (1.12 each) with a name and a queue per resource, a piece list
    // per PFS request and a few vectors per round, and 32,579 (5.75)
    // with a label, a stage vector and a dependents vector per
    // activity. The gate stays at 1.25, so one allocation per activity
    // coming back fails it and a toolchain that grows a vector or sorts
    // differently does not.
    assert_eq!(activities, 5_668);
    assert!(
        allocs * 4 <= activities * 5,
        "{allocs} allocations for {activities} activities"
    );

    // des_heavy's shape at an eighth of its size: exascale_2018 cut to
    // 4,096 nodes with one rank and 1 MiB each: per node, one
    // aggregation group (so one round chain) and three fabric resources.
    let mut spec = ClusterSpec::exascale_2018();
    spec.nodes = 4_096;
    let h = Harness::new(spec, 4_096, 1, 0xE2018);
    let req = mcio_workloads::Ior::paper(4_096, MIB, 1).request(Rw::Write);
    let (allocs, bytes, activities) = simulate(&h, &req, 16 * MIB);
    println!("exascale cut: {allocs} allocations for {activities} activities");
    let per_activity = bytes as f64 / activities as f64;
    println!("exascale cut: {bytes} bytes allocated, {per_activity:.1} per activity");

    // Measured: 195 allocations for the 24,576 activities, 0.008 each
    // (944 with a per-aggregator tree in the phase attribution and the
    // arenas doubling their way up). It was 84,840 (3.45 each) with a
    // name per resource (0.5 per activity) and about fifteen vectors per
    // chain (2.5). The gate, a
    // quarter of an allocation per activity, fails if either comes back.
    assert_eq!(activities, 24_576);
    assert!(
        allocs * 4 <= activities,
        "{allocs} allocations for {activities} activities"
    );

    // Bytes: 9,267,150 allocated for the 24,576 activities, 377.1 each
    // — arenas reserved once from the plan's bounds, the event queue and
    // pool, the lowering's flat vectors. It was 12,747,814 (518.7 each)
    // with every label written out as text, every future event a 24-byte
    // heap entry and the arenas doubling their way up. The gate, 450
    // bytes per activity, fails if that comes back.
    assert!(
        bytes <= 450 * activities,
        "{bytes} bytes allocated for {activities} activities"
    );
}
