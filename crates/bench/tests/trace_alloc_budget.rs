//! The Chrome-trace codec allocates for what a `Trace` keeps, never per
//! token: the writer fills one buffer, and the reader owns nothing of
//! an event but the strings its `Span` holds. The counter is exact and
//! repeats, so it is gated where a wall-clock figure could not be.
//!
//! Compiled only with the counting allocator:
//! `cargo test -p mcio-bench --features count-alloc --test trace_alloc_budget`.
//! One test in the file, so nothing else allocates while it counts.
#![cfg(feature = "count-alloc")]

use mcio_obs::{Span, Trace};
use mcio_prof::alloc::snapshot;

#[test]
fn the_codec_allocates_per_span_kept_not_per_token() {
    const SPANS: u64 = 10_000;
    const LANES: u64 = 8;
    let trace = Trace {
        spans: (0..SPANS)
            .map(|i| Span {
                name: format!("io.rank{i}.r{}", i % 7),
                cat: format!("ost{}", i % LANES),
                pid: 1,
                tid: i % LANES,
                start_ns: i * 1_234,
                dur_ns: 567 + i,
                args: Vec::new(),
            })
            .collect(),
        processes: vec![(1, "des.resources".to_string())],
        threads: (0..LANES).map(|t| (1, t, format!("ost{t}"))).collect(),
    };

    let before = snapshot().allocs;
    let text = trace.to_chrome_json();
    let written = snapshot().allocs - before;
    let before = snapshot().allocs;
    let read = Trace::from_chrome_json(&text);
    let parsed = snapshot().allocs - before;

    assert_eq!(read.as_ref(), Ok(&trace));
    assert!(written <= 8, "to_chrome_json: {written} allocations");
    // Two strings per span (`name`, `cat`); the rest is the lane names
    // and the growth of a few vectors.
    assert!(
        parsed <= 2 * SPANS + 64,
        "from_chrome_json: {parsed} allocations for {SPANS} spans"
    );
}
