//! The Chrome-trace codec of `mcio_obs::trace` loses nothing it writes:
//! for arbitrary traces — hostile strings, every sub-microsecond digit,
//! zero-length spans, named and unnamed lanes — reading the written
//! file gives the trace back, so the index built from a file is the
//! index built in process. (The property lives in this crate because
//! `mcio-obs` has no dependencies, dev-dependencies included.)

use mcio_analyze::TraceModel;
use mcio_obs::{Span, Trace};
use proptest::prelude::*;

/// Strings over the characters JSON has to escape, plus non-ASCII.
fn text() -> impl Strategy<Value = String> {
    let alphabet = "aZ0 .\"\\/\n\r\t\u{0}\u{1f}\u{7f}é→\u{10348}"
        .chars()
        .collect();
    prop::collection::vec(prop::sample::select(alphabet), 0..8)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Nanoseconds of every magnitude below 2^51, zero included, with all
/// three sub-microsecond digits in play.
fn time_ns() -> impl Strategy<Value = u64> {
    (0u32..52, any::<u64>()).prop_map(|(bits, v)| v & ((1 << bits) - 1))
}

fn span() -> impl Strategy<Value = Span> {
    let lane = (0u64..4, 0u64..4);
    let args = prop::collection::vec((text(), text()), 0..4);
    (text(), text(), lane, time_ns(), time_ns(), args).prop_map(
        |(name, cat, (pid, tid), start_ns, dur_ns, mut args)| {
            // The reader hands args back in key order, one per key.
            args.sort();
            args.dedup_by(|a, b| a.0 == b.0);
            Span {
                name,
                cat,
                pid,
                tid,
                start_ns,
                dur_ns,
                args,
            }
        },
    )
}

fn trace() -> impl Strategy<Value = Trace> {
    (
        prop::collection::vec(span(), 0..12),
        prop::collection::vec((0u64..4, text()), 0..3),
        prop::collection::vec((0u64..4, 0u64..4, text()), 0..6),
    )
        .prop_map(|(spans, processes, threads)| Trace {
            spans,
            processes,
            threads,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_written_trace_reads_back_equal(t in trace()) {
        let json = t.to_chrome_json();
        prop_assert_eq!(Trace::from_chrome_json(&json), Ok(t.clone()));
        prop_assert_eq!(TraceModel::from_chrome_json(&json), Ok(TraceModel::new(t)));
    }
}
