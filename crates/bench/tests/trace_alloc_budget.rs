//! The Chrome-trace codec and the DES trace emitter allocate for the
//! string table and the growth of a few vectors, never per span: a
//! trace's strings are symbols of one table, so writing, reading and
//! emitting it do not copy a name per span. The counter is exact and
//! repeats, so it is gated where a wall-clock figure could not be.
//!
//! Compiled only with the counting allocator:
//! `cargo test --release -p mcio-bench --features count-alloc --test trace_alloc_budget -- --nocapture`.
//! One test in the file, so nothing else allocates while it counts.
#![cfg(feature = "count-alloc")]

use mcio_des::{arg, Bandwidth, Label, Prefix, SimDuration, SimTime, Simulation, Stage};
use mcio_obs::Trace;
use mcio_prof::alloc::snapshot;

const LANES: u64 = 8;

/// `spans` spans of distinct names over [`LANES`] named lanes.
fn trace(spans: u64) -> Trace {
    let mut trace = Trace::default();
    trace.name_process(1, "des.resources");
    for t in 0..LANES {
        trace.name_thread(1, t, format_args!("ost{t}"));
    }
    for i in 0..spans {
        let (name, cat) = (
            format_args!("io.rank{i}.r{}", i % 7),
            format_args!("ost{}", i % LANES),
        );
        trace.span(name, cat, 1, i % LANES, i * 1_234, 567 + i);
    }
    trace
}

/// Allocations `f` makes, and what it returns.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = snapshot().allocs;
    let out = f();
    (snapshot().allocs - before, out)
}

#[test]
fn the_trace_allocates_per_table_not_per_span() {
    for spans in [10_000, 100_000] {
        let trace = trace(spans);
        let (written, text) = counted(|| trace.to_chrome_json());
        let (parsed, read) = counted(|| Trace::from_chrome_json(&text));
        assert_eq!(read.as_ref(), Ok(&trace));
        println!("{spans} spans: to_chrome_json {written} allocations, from_chrome_json {parsed}");
        assert!(written <= 8, "to_chrome_json: {written} allocations");
        assert!(
            parsed <= 64,
            "from_chrome_json: {parsed} allocations for {spans} spans"
        );
    }

    // A DES run of 10,000 activities, each served once, on 8 resources.
    const RECORDS: usize = 10_000;
    let mut sim = Simulation::new();
    sim.enable_trace();
    let [ost, io] = ["ost{}", "io.rank{}"].map(|t| sim.template(t));
    let osts: Vec<_> = (0..LANES)
        .map(|t| {
            let name = Label::new(Prefix::NONE, ost, [t as u32, 0]);
            sim.add_resource(name, Bandwidth::bytes_per_sec(1e9))
        })
        .collect();
    for i in 0..RECORDS {
        let stage = Stage {
            resource: osts[i % osts.len()],
            bytes: 4096,
            overhead: SimDuration::ZERO,
            latency_after: SimDuration::ZERO,
        };
        let label = Label::new(Prefix::NONE, io, [arg(i), 0]);
        sim.activity(label, SimTime::ZERO, &[stage]);
    }
    let report = sim.run().expect("the run completes");
    let (emitted, trace) = counted(|| {
        let mut trace = Trace::default();
        report.trace_into(&mut trace);
        trace
    });
    assert_eq!(
        (trace.spans.len(), trace.threads.len()),
        (RECORDS, LANES as usize)
    );
    println!("trace_into: {emitted} allocations for {RECORDS} service records");
    assert!(
        emitted <= 16,
        "trace_into: {emitted} allocations for {RECORDS} service records"
    );
}
