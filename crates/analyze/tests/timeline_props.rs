//! Property-based tests of the timeline bucketer: for arbitrary span
//! soups — solo and multi-tenant — every utilization series must
//! integrate back to exactly the busy time of the underlying merged
//! interval union, at any bucket width. Bucketing redistributes time;
//! it must never create or destroy it.

use mcio_analyze::{timeline, ResourceClass, SeriesKind, TraceModel, PID_RESOURCES};
use mcio_obs::Trace;
use proptest::prelude::*;

/// One generated resource span: which lane, where, how long.
#[derive(Debug, Clone)]
struct GenSpan {
    lane: usize,
    start_ns: u64,
    dur_ns: u64,
    job: Option<u64>,
}

fn gen_span(max_lanes: usize, tenants: bool) -> impl Strategy<Value = GenSpan> {
    // 0..3 are job ids, 3 means "no job prefix" (the vendored proptest
    // shim has no option::of combinator).
    (0..max_lanes, 0u64..50_000, 0u64..5_000, 0u64..4).prop_map(
        move |(lane, start_ns, dur_ns, job)| GenSpan {
            lane,
            start_ns,
            dur_ns,
            job: if tenants && job < 3 { Some(job) } else { None },
        },
    )
}

/// Lanes 0..2 are network, 2..4 memory, 4..8 storage — every class and
/// several distinct OSTs are reachable.
const LANES: [&str; 8] = [
    "node0.nic_tx",
    "node1.nic_rx",
    "node0.membus",
    "node1.membus",
    "ost0",
    "ost1",
    "ost2",
    "ost3",
];

fn build_model(spans: &[GenSpan]) -> TraceModel {
    let mut tc = Trace::default();
    for (tid, name) in LANES.iter().enumerate() {
        tc.name_thread(PID_RESOURCES, tid as u64, name);
    }
    for s in spans {
        let activity = match s.job {
            Some(j) => format!("j{j}.work"),
            None => "work".to_string(),
        };
        tc.span(
            &activity,
            LANES[s.lane],
            PID_RESOURCES,
            s.lane as u64,
            s.start_ns,
            s.dur_ns,
        );
    }
    TraceModel::new(tc)
}

/// Busy time of a merged interval union.
fn total_len(ivs: &[(u64, u64)]) -> u64 {
    ivs.iter().map(|(a, b)| b - a).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Solo traces: every class series integrates to exactly
    /// `class_busy_intervals`, and per-OST series to their lane unions.
    #[test]
    fn class_series_integrate_exactly(
        spans in proptest::collection::vec(gen_span(LANES.len(), false), 1..40),
        bucket_ns in 1u64..10_000,
    ) {
        let m = build_model(&spans);
        let tl = timeline(&m, bucket_ns);
        prop_assert_eq!(tl.bucket_ns, bucket_ns);
        for class in [ResourceClass::Network, ResourceClass::Memory, ResourceClass::Storage] {
            let want = total_len(m.class_busy_intervals(class));
            match tl.get(class.label()) {
                Some(s) => {
                    prop_assert_eq!(s.kind, SeriesKind::Class);
                    prop_assert_eq!(s.total_busy_ns, want, "{} series", class.label());
                    prop_assert_eq!(s.busy_ns.iter().sum::<u64>(), want);
                    // No bucket holds more time than it spans.
                    prop_assert!(s.busy_ns.iter().all(|&v| v <= bucket_ns));
                }
                None => prop_assert_eq!(want, 0, "empty series are omitted"),
            }
        }
        // The bucket grid tiles [0, elapsed) exactly.
        prop_assert_eq!(tl.buckets as u64, tl.elapsed_ns.div_ceil(bucket_ns.max(1)));
        for s in &tl.series {
            prop_assert_eq!(s.busy_ns.len(), tl.buckets);
        }
    }

    /// Multi-tenant traces: per-tenant series integrate to exactly the
    /// merged union of that job's spans, and the per-class invariant
    /// still holds with job-prefixed activity labels.
    #[test]
    fn tenant_series_integrate_exactly(
        spans in proptest::collection::vec(gen_span(LANES.len(), true), 1..40),
        bucket_ns in 1u64..10_000,
    ) {
        let m = build_model(&spans);
        let tl = timeline(&m, bucket_ns);
        for class in [ResourceClass::Network, ResourceClass::Memory, ResourceClass::Storage] {
            let want = total_len(m.class_busy_intervals(class));
            let got = tl.get(class.label()).map_or(0, |s| s.total_busy_ns);
            prop_assert_eq!(got, want);
        }
        for j in 0..3u64 {
            // Reference: merge this job's raw spans independently.
            let mut ivs: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.job == Some(j) && s.dur_ns > 0)
                .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
                .collect();
            ivs.sort_unstable();
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for (a, b) in ivs {
                match merged.last_mut() {
                    Some(last) if a <= last.1 => last.1 = last.1.max(b),
                    _ => merged.push((a, b)),
                }
            }
            let want = total_len(&merged);
            let got = tl.get(&format!("j{j}")).map_or(0, |s| {
                assert_eq!(s.kind, SeriesKind::Tenant);
                s.total_busy_ns
            });
            prop_assert_eq!(got, want, "tenant j{} integrates exactly", j);
        }
    }

    /// The JSON rendering round-trips exactly for arbitrary timelines.
    #[test]
    fn json_round_trip_is_lossless(
        spans in proptest::collection::vec(gen_span(LANES.len(), true), 0..20),
        bucket_ns in 1u64..10_000,
    ) {
        let tl = timeline(&build_model(&spans), bucket_ns);
        let parsed = mcio_analyze::Timeline::from_json(&tl.to_json()).unwrap();
        prop_assert_eq!(parsed, tl);
    }
}
