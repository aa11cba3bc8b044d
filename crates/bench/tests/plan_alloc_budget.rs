//! A request holds its extents, each long run's byte-sum table and a
//! constant per rank, and building one whose runs are all short
//! allocates what it did before runs had tables. A plan holds no copy
//! of its request: a message's extents are a view of its requester's
//! run, so what a returned plan keeps alive is its rows — messages, I/O
//! ops, rounds, aggregators — not the extents it routes. Nor does
//! planning churn through copies of the request: the unions write into
//! scratch they reuse, so what a planner allocates in all is a fraction
//! of the extents it reads. The live-byte and total
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

const MIB: u64 = 1 << 20;

/// Allocations building `Ior::paper(1080, 8 MiB, 8)`'s request, measured
/// before runs carried byte-sum tables.
const IOR_REQUEST_ALLOCS: u64 = 2_162;

/// Live bytes per rank of the scale-8 coll_perf request beside its
/// extents, measured before runs carried byte-sum tables.
const PER_RANK_BYTES: u64 = 48;

#[test]
fn a_plan_holds_a_fraction_of_its_requests_extents() {
    // fig6's coll_perf pattern at an eighth of each dimension: 120 ranks
    // on 10 nodes, 16 MiB nominal buffers, fig6's memory draw.
    let fig6 = perf::scenarios()
        .into_iter()
        .find(|s| s.name == "fig6")
        .expect("fig6 scenario");
    let h = Harness::new(ClusterSpec::testbed_120(), 120, 12, fig6.seed);

    // Building fig8's IOR request: no rank's run is longer than a block
    // of its byte-sum table, so none gets a table and the count is the
    // one the request took before runs carried tables.
    let before = snapshot().allocs;
    let ior = mcio_workloads::Ior::paper(1080, 8 * MIB, 8).request(Rw::Write);
    let allocs = snapshot().allocs - before;
    println!("IOR request: {allocs} allocations");
    assert_eq!(allocs, IOR_REQUEST_ALLOCS);
    drop(ior);

    let before = live_bytes();
    let req = mcio_workloads::CollPerf::paper(120, 8).request(Rw::Write);
    let footprint = live_bytes() - before;
    let extents: usize = req.ranks.iter().map(|r| r.extents.len()).sum();
    let extent_bytes = (extents * size_of::<Extent>()) as u64;
    println!("request: {extents} extents, {extent_bytes} bytes of them");
    assert_eq!(extents, 393_216);
    // What the request keeps alive: its extents, each run's byte-sum
    // table (8 bytes per 64 extents, 1/128 of them; the gate allows
    // 1/64) and a constant per rank.
    let nranks = req.nranks() as u64;
    println!(
        "request: {footprint} bytes live, {:.1} per rank beside the extents",
        (footprint as f64 - extent_bytes as f64) / nranks as f64
    );
    assert!(
        footprint <= extent_bytes + extent_bytes / 64 + nranks * PER_RANK_BYTES,
        "{footprint} bytes live for {extent_bytes} bytes of request extents"
    );

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
