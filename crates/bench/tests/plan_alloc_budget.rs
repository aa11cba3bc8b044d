//! A plan holds no copy of its request: a message's extents are a view
//! of its requester's run, so what a returned plan keeps alive is its
//! rows — messages, I/O ops, rounds, aggregators — not the extents it
//! routes. Nor does planning churn through copies of the request: the
//! unions write into scratch they reuse, so what a planner allocates in
//! all is a fraction of the extents it reads. The live-byte and total
//! counters are exact and repeat, so they are gated where a
//! resident-set or page-fault figure could not be.
//!
//! Compiled only with the counting allocator:
//! `cargo test --release -p mcio-bench --features count-alloc --test plan_alloc_budget -- --nocapture`.
//! One test in the file, so nothing else allocates while it counts.
#![cfg(feature = "count-alloc")]

use mcio_bench::{perf, Harness};
use mcio_cluster::spec::ClusterSpec;
use mcio_core::{Extent, Rw, Strategy};
use mcio_prof::alloc::{live_bytes, snapshot};

#[test]
fn a_plan_holds_a_fraction_of_its_requests_extents() {
    // fig6's coll_perf pattern at an eighth of each dimension: 120 ranks
    // on 10 nodes, 16 MiB nominal buffers, fig6's memory draw.
    let fig6 = perf::scenarios()
        .into_iter()
        .find(|s| s.name == "fig6")
        .expect("fig6 scenario");
    let h = Harness::new(ClusterSpec::testbed_120(), 120, 12, fig6.seed);
    let req = mcio_workloads::CollPerf::paper(120, 8).request(Rw::Write);
    let extents: usize = req.ranks.iter().map(|r| r.extents.len()).sum();
    let extent_bytes = (extents * size_of::<Extent>()) as u64;
    println!("request: {extents} extents, {extent_bytes} bytes of them");
    assert_eq!(extents, 393_216);

    for strategy in [Strategy::TwoPhase, Strategy::MemoryConscious] {
        let cell = h.cell(strategy, &req, fig6.buffer);
        let before = live_bytes();
        let plan = cell.plan();
        let held = live_bytes() - before;
        println!(
            "{}: the plan holds {held} bytes, {:.4} of the request's extents",
            strategy.label(),
            held as f64 / extent_bytes as f64
        );
        // Measured: two-phase 6,317,352 bytes (1.0041 of the extents)
        // and memory-conscious 6,326,512 (1.0056) when every message
        // copied its extents out of the request; with views, two-phase
        // holds 25,872 bytes (0.0041) and memory-conscious 33,968
        // (0.0054). The gate is an eighth, so a copy of the extents
        // coming back fails it and a change in the plan's rows does not.
        assert!(
            held * 8 <= extent_bytes,
            "{}: {held} bytes held for {extent_bytes} bytes of request extents",
            strategy.label()
        );
        drop(plan);
    }

    // Planning churn, on fig6 itself (`plan_heavy`'s request, 96 MiB of
    // extents): every byte a planner allocates, freed or not. At an
    // eighth of each dimension a union's scratch is not yet small
    // beside its input.
    let req = mcio_workloads::CollPerf::paper(120, 2).request(Rw::Write);
    let extents: usize = req.ranks.iter().map(|r| r.extents.len()).sum();
    let extent_bytes = (extents * size_of::<Extent>()) as u64;
    assert_eq!(extents, 6_291_456);
    for strategy in [Strategy::TwoPhase, Strategy::MemoryConscious] {
        let cell = h.cell(strategy, &req, fig6.buffer);
        let before = snapshot().bytes;
        let plan = cell.plan();
        let churn = snapshot().bytes - before;
        println!(
            "{}: planning allocates {churn} bytes, {:.4} of the request's extents",
            strategy.label(),
            churn as f64 / extent_bytes as f64
        );
        // Measured: two-phase 228,264,624 bytes (2.2676 of the
        // extents) and memory-conscious 202,087,520 (2.0076) when every
        // merge of a union allocated its result afresh; with blocked
        // unions into reused scratch, two-phase allocates 3,990,592
        // bytes (0.0396) and memory-conscious 15,886,672 (0.1578). The
        // gate is a quarter, so a union that allocates per merge level
        // again fails it.
        assert!(
            churn * 4 <= extent_bytes,
            "{}: {churn} bytes allocated planning {extent_bytes} bytes of request extents",
            strategy.label()
        );
        drop(plan);
    }
}
