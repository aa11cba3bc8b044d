//! Lowering and running a plan allocates per round, per request and per
//! resource — not per activity: an activity is a row of the simulation's
//! arenas, its label and stages are written in place. The counter is
//! exact and repeats, so it is gated where a wall-clock figure could not
//! be.
//!
//! Compiled only with the counting allocator:
//! `cargo test -p mcio-bench --features count-alloc --test lower_alloc_budget`.
//! One test in the file, so nothing else allocates while it counts.
#![cfg(feature = "count-alloc")]

use mcio_bench::Harness;
use mcio_cluster::spec::ClusterSpec;
use mcio_core::{Rw, Strategy};
use mcio_prof::alloc::snapshot;

#[test]
fn an_untraced_simulation_allocates_per_request_not_per_activity() {
    const MIB: u64 = 1 << 20;
    // fig8's IOR at a fifth of the ranks: 216 ranks on 18 nodes, 8 MiB
    // each in 8 segments, 4 MiB nominal buffers.
    let h = Harness::new(ClusterSpec::testbed_1080(), 216, 12, 0xF168);
    let req = mcio_workloads::Ior::paper(216, 8 * MIB, 8).request(Rw::Write);
    let cell = h.cell(Strategy::MemoryConscious, &req, 4 * MIB);
    let plan = cell.plan();

    let before = snapshot().allocs;
    let report = cell.timing(&plan);
    let allocs = snapshot().allocs - before;

    // Measured: 6,356 allocations for the cell's 5,668 activities, 1.12
    // each — the machine's resources, one piece list per PFS request, a
    // few vectors per round, the queues growing as the engine runs. With
    // a label, a stage vector and a dependents vector per activity it
    // was 32,579, 5.75 each. The gate sits between the two, at 1.25, so
    // one allocation per activity coming back fails it and a toolchain
    // that grows a vector or sorts differently does not.
    let activities = report.activities as u64;
    assert_eq!(activities, 5_668);
    assert!(
        allocs * 4 <= activities * 5,
        "{allocs} allocations for {activities} activities"
    );
}
