//! Time-resolved utilization: deterministic fixed-interval bucketing of
//! the DES resource spans.
//!
//! The critical-path buckets say *how much* of a run each resource
//! class explains; this module says *when*. The trace's pid-1 service
//! spans are swept into integer-nanosecond buckets of a fixed width,
//! yielding one utilization series per resource class (network fabric,
//! memory bus, storage), one per individual OST lane, and — for
//! multi-tenant traces — one per tenant (activities carrying a `j<N>.`
//! job prefix). All arithmetic is exact: a series integrates back to
//! the same total busy time as the underlying merged interval union
//! (`sum(series.busy_ns) == total_len(class_busy_intervals)`), which is
//! property-tested in `tests/timeline_props.rs`.
//!
//! The rendered `mcio.timeline.v1` JSON/CSV documents are byte-stable:
//! integers only, deterministic series order (classes, then OST lanes
//! in lane order, then tenants in job order), no floats, no wall-clock.

use crate::trace_model::{ResourceClass, TraceModel, PID_RESOURCES};
use mcio_obs::doc::{Reader, Writer};
use mcio_obs::json;
use std::fmt::Write as _;

/// The schema stamp of the timeline document.
const TIMELINE_SCHEMA: &str = "mcio.timeline.v1";

/// What one utilization series aggregates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeriesKind {
    /// The merged busy union of one resource class (network fabric,
    /// memory bus, storage).
    Class,
    /// One individual OST lane.
    Ost,
    /// One tenant: every resource span whose activity label carries the
    /// tenant's `j<N>.` job prefix.
    Tenant,
}

impl SeriesKind {
    /// Stable lowercase label used in documents.
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Class => "class",
            SeriesKind::Ost => "ost",
            SeriesKind::Tenant => "tenant",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "class" => Some(SeriesKind::Class),
            "ost" => Some(SeriesKind::Ost),
            "tenant" => Some(SeriesKind::Tenant),
            _ => None,
        }
    }
}

/// One utilization time-series: busy nanoseconds per fixed-width
/// bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    /// Series key: a class label (`network`/`memory`/`storage`), an OST
    /// lane name (`ost3`), or a tenant key (`j0`).
    pub key: String,
    /// What the series aggregates over.
    pub kind: SeriesKind,
    /// Busy nanoseconds inside each bucket, in bucket order. The last
    /// bucket may be shorter than `bucket_ns` (it is clipped at the
    /// trace makespan).
    pub busy_ns: Vec<u64>,
    /// Exact total: `busy_ns.iter().sum()`, kept explicit so documents
    /// are audit-safe without re-summing.
    pub total_busy_ns: u64,
}

impl Series {
    fn from_intervals(
        key: String,
        kind: SeriesKind,
        ivs: &[(u64, u64)],
        bucket_ns: u64,
        buckets: usize,
    ) -> Self {
        let mut busy = vec![0u64; buckets];
        for &(a, b) in ivs {
            // An interval can cross several buckets; walk only the
            // buckets it touches.
            let first = (a / bucket_ns) as usize;
            let last = (b.saturating_sub(1) / bucket_ns) as usize;
            for (i, slot) in busy
                .iter_mut()
                .enumerate()
                .take(last.min(buckets.saturating_sub(1)) + 1)
                .skip(first)
            {
                let lo = i as u64 * bucket_ns;
                let hi = lo + bucket_ns;
                *slot += b.min(hi).saturating_sub(a.max(lo));
            }
        }
        let total_busy_ns = busy.iter().sum();
        Series {
            key,
            kind,
            busy_ns: busy,
            total_busy_ns,
        }
    }

    /// The bucket with the most busy time (first on ties), as
    /// `(index, busy_ns)`; `None` for an all-idle series.
    pub fn peak(&self) -> Option<(usize, u64)> {
        let (mut idx, mut best) = (0usize, 0u64);
        for (i, &v) in self.busy_ns.iter().enumerate() {
            if v > best {
                idx = i;
                best = v;
            }
        }
        (best > 0).then_some((idx, best))
    }
}

/// A full time-resolved utilization document for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Trace makespan, nanoseconds.
    pub elapsed_ns: u64,
    /// Fixed bucket width, nanoseconds (always ≥ 1).
    pub bucket_ns: u64,
    /// Number of buckets tiling `[0, elapsed_ns)`.
    pub buckets: usize,
    /// The series, in deterministic order: classes (network, memory,
    /// storage), then OST lanes in lane order, then tenants in job
    /// order. Series with zero spans are omitted.
    pub series: Vec<Series>,
}

/// Deterministic default bucket width for a run of `elapsed_ns`:
/// the smallest width that tiles the run into at most 100 buckets
/// (`ceil(elapsed / 100)`, minimum 1 ns). Integer-only, so the same
/// trace always buckets identically on every machine.
pub fn default_bucket_ns(elapsed_ns: u64) -> u64 {
    (elapsed_ns.div_ceil(100)).max(1)
}

/// The most buckets a timeline holds (1,000× the default's 100). Every
/// series is a dense vector of one `u64` per bucket, so without a
/// ceiling `--bucket-ns 1` on a 56 ms trace is 56 M entries per series.
pub const MAX_BUCKETS: u64 = 100_000;

/// Sweep `model`'s resource spans into a [`Timeline`] with the given
/// bucket width (widened to ≥ 1 ns and, if need be, until the run
/// tiles into at most [`MAX_BUCKETS`] buckets). See the module docs
/// for series order and exactness guarantees.
pub fn timeline(model: &TraceModel, bucket_ns: u64) -> Timeline {
    let elapsed_ns = model.makespan_ns();
    let bucket_ns = bucket_ns.max(elapsed_ns.div_ceil(MAX_BUCKETS)).max(1);
    let buckets = elapsed_ns.div_ceil(bucket_ns) as usize;
    let mut tl = Timeline {
        elapsed_ns,
        bucket_ns,
        buckets,
        series: Vec::new(),
    };
    if elapsed_ns == 0 {
        return tl;
    }

    let mut push = |key: String, kind, ivs: &[(u64, u64)]| {
        if !ivs.is_empty() {
            let series = Series::from_intervals(key, kind, ivs, bucket_ns, buckets);
            tl.series.push(series);
        }
    };
    // Per-class series from the merged class unions.
    for class in ResourceClass::REPORTED {
        let ivs = model.class_busy_intervals(class);
        push(class.label().to_string(), SeriesKind::Class, ivs);
    }
    // Per-OST series: one per named storage lane, in lane (tid) order.
    for lane in model.lanes(PID_RESOURCES) {
        if lane.class == ResourceClass::Storage {
            push(
                model.lane_name(lane).unwrap_or_default().to_string(),
                SeriesKind::Ost,
                &lane.busy,
            );
        }
    }
    // Per-tenant series: resource spans whose activity label carries a
    // `j<N>.` prefix (multi-tenant runs only; solo traces add nothing).
    for (ji, ivs) in &model.job_busy {
        push(format!("j{ji}"), SeriesKind::Tenant, ivs);
    }
    tl
}

impl Timeline {
    /// Look up a series by key.
    pub fn get(&self, key: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.key == key)
    }

    /// Render the byte-stable `mcio.timeline.v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = Writer::document();
        w.schema(TIMELINE_SCHEMA);
        w.uint("elapsed_ns", self.elapsed_ns);
        w.uint("bucket_ns", self.bucket_ns);
        w.uint("buckets", self.buckets as u64);
        w.rows("series", &self.series, |r, s| {
            r.text("key", &s.key);
            r.text("kind", s.kind.label());
            r.uint("total_busy_ns", s.total_busy_ns);
            r.uints("busy_ns", &s.busy_ns);
        });
        w.finish()
    }

    /// Render as flat CSV: `series,kind,bucket,start_ns,busy_ns`, one
    /// row per (series, bucket).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,kind,bucket,start_ns,busy_ns\n");
        for s in &self.series {
            for (i, v) in s.busy_ns.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{}",
                    s.key,
                    s.kind.label(),
                    i,
                    i as u64 * self.bucket_ns,
                    v
                );
            }
        }
        out
    }

    /// Parse a `mcio.timeline.v1` document back. Unknown keys are
    /// accepted and ignored (the house re-parse convention).
    pub fn from_json(input: &str) -> Result<Self, String> {
        let doc = json::parse(input).map_err(|e| format!("timeline is not valid JSON: {e}"))?;
        let doc = Reader::new(&doc, "timeline");
        doc.schema(&[TIMELINE_SCHEMA])?;
        let series = doc.rows("series", |s| {
            let busy_ns = s.uints("busy_ns")?;
            Ok(Series {
                key: s.text("key")?.to_string(),
                kind: SeriesKind::parse(s.text("kind")?)
                    .ok_or("timeline: `kind` is not class, ost or tenant")?,
                total_busy_ns: busy_ns.iter().sum(),
                busy_ns,
            })
        })?;
        Ok(Timeline {
            elapsed_ns: doc.uint("elapsed_ns")?,
            bucket_ns: doc.uint("bucket_ns")?.max(1),
            buckets: doc.uint("buckets")? as usize,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_model::{PID_RESOURCES, PID_TENANTS};
    use mcio_obs::Trace;

    fn model() -> TraceModel {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "node0.nic_tx");
        tc.name_thread(PID_RESOURCES, 1, "node0.membus");
        tc.name_thread(PID_RESOURCES, 2, "ost0");
        tc.name_thread(PID_RESOURCES, 3, "ost1");
        tc.span("msg.0->1", "node0.nic_tx", PID_RESOURCES, 0, 0, 450);
        tc.span("copy", "node0.membus", PID_RESOURCES, 1, 100, 100);
        tc.span("io.1", "ost0", PID_RESOURCES, 2, 400, 600);
        tc.span("io.2", "ost1", PID_RESOURCES, 3, 500, 300);
        TraceModel::new(tc)
    }

    #[test]
    fn buckets_integrate_to_class_busy_exactly() {
        let m = model();
        let tl = timeline(&m, 128); // deliberately awkward width
        assert_eq!(tl.elapsed_ns, 1000);
        assert_eq!(tl.buckets, 8);
        for (class, key) in [
            (ResourceClass::Network, "network"),
            (ResourceClass::Memory, "memory"),
            (ResourceClass::Storage, "storage"),
        ] {
            let ivs = m.class_busy_intervals(class);
            let total: u64 = ivs.iter().map(|(a, b)| b - a).sum();
            let s = tl.get(key).expect(key);
            assert_eq!(s.total_busy_ns, total, "{key} integrates exactly");
            assert_eq!(s.busy_ns.iter().sum::<u64>(), total);
        }
        // Per-OST series exist and are bounded by the bucket width.
        let ost0 = tl.get("ost0").unwrap();
        assert_eq!(ost0.kind, SeriesKind::Ost);
        assert_eq!(ost0.total_busy_ns, 600);
        assert!(ost0.busy_ns.iter().all(|&v| v <= 128));
        assert_eq!(tl.get("ost1").unwrap().total_busy_ns, 300);
    }

    #[test]
    fn bucket_count_has_a_ceiling() {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.span("io", "ost0", PID_RESOURCES, 0, 0, 3 * MAX_BUCKETS + 1);
        let tl = timeline(&TraceModel::new(tc), 1);
        assert_eq!((tl.bucket_ns, tl.buckets as u64), (4, 75_001));
        assert_eq!(tl.get("ost0").unwrap().total_busy_ns, 3 * MAX_BUCKETS + 1);
    }

    #[test]
    fn default_bucket_width_is_deterministic() {
        assert_eq!(default_bucket_ns(0), 1);
        assert_eq!(default_bucket_ns(1), 1);
        assert_eq!(default_bucket_ns(100), 1);
        assert_eq!(default_bucket_ns(101), 2);
        assert_eq!(default_bucket_ns(1_000_000), 10_000);
    }

    #[test]
    fn json_round_trips_and_is_stable() {
        let tl = timeline(&model(), 250);
        let rendered = tl.to_json();
        let parsed = Timeline::from_json(&rendered).expect("round trip");
        assert_eq!(parsed, tl);
        assert_eq!(parsed.to_json(), rendered, "render is a fixed point");
        // Unknown top-level keys are accepted and ignored.
        let with_extra = rendered.replace(
            "\"schema\": \"mcio.timeline.v1\",",
            "\"schema\": \"mcio.timeline.v1\",\n  \"future_key\": [1,2,3],",
        );
        assert_eq!(Timeline::from_json(&with_extra).expect("tolerant"), tl);
        // Bad schemas are one-line errors.
        let err = Timeline::from_json("{\"schema\": \"mcio.sweep.v1\"}").unwrap_err();
        assert!(err.contains("mcio.timeline.v1"), "{err}");
        assert!(!err.contains('\n'), "{err}");
    }

    #[test]
    fn integer_fields_must_be_integers() {
        let doc = timeline(&model(), 250).to_json();
        for bad in ["-5", "1.5", "1e300"] {
            for (key, prefix, value) in [
                ("elapsed_ns", "\"elapsed_ns\": ", "1000"),
                ("busy_ns", "\"busy_ns\": [", "250"),
            ] {
                let (from, to) = (format!("{prefix}{value}"), format!("{prefix}{bad}"));
                assert!(doc.contains(&from), "{doc}");
                let err = Timeline::from_json(&doc.replacen(&from, &to, 1)).expect_err(bad);
                assert!(err.contains(&format!("`{key}`")), "{bad}: {err}");
                assert!(!err.contains('\n'), "{err}");
            }
        }
    }

    #[test]
    fn csv_has_one_row_per_bucket() {
        let tl = timeline(&model(), 500);
        let csv = tl.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,kind,bucket,start_ns,busy_ns");
        // 5 series (3 classes + 2 OSTs) × 2 buckets.
        assert_eq!(lines.len(), 1 + 5 * 2);
        assert!(lines.contains(&"ost0,ost,1,500,500"), "{csv}");
    }

    #[test]
    fn tenant_series_appear_only_for_prefixed_activity() {
        assert!(timeline(&model(), 100)
            .series
            .iter()
            .all(|s| s.kind != SeriesKind::Tenant));
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.span("j0.io.0", "ost0", PID_RESOURCES, 0, 0, 600);
        tc.span("j1.io.0", "ost0", PID_RESOURCES, 0, 600, 400);
        tc.name_lane(PID_TENANTS);
        let tl = timeline(&TraceModel::new(tc), 250);
        let j0 = tl.get("j0").expect("tenant series");
        assert_eq!(j0.kind, SeriesKind::Tenant);
        assert_eq!(j0.total_busy_ns, 600);
        assert_eq!(tl.get("j1").unwrap().total_busy_ns, 400);
        assert_eq!(j0.peak(), Some((0, 250)));
    }

    #[test]
    fn empty_trace_yields_empty_timeline() {
        let tl = timeline(&TraceModel::default(), 100);
        assert_eq!(tl.buckets, 0);
        assert!(tl.series.is_empty());
        assert_eq!(Timeline::from_json(&tl.to_json()).unwrap(), tl);
    }
}
