//! The metrics registry: named counters, gauges, and histograms with
//! optional label sets, plus immutable snapshots for export.
//!
//! All mutation goes through `&self` (interior mutability) so a single
//! `Arc<Registry>` can be threaded through the planner, the DES engine
//! and the PFS model without plumbing `&mut` everywhere. Simulated time
//! never blocks on these locks in any hot loop — recording is O(1) per
//! event.

use crate::catalogue::{self, Kind};
use crate::histogram::Histogram;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Label pairs attached to one metric sample, e.g.
/// `&[("resource", "node0.nic_tx")]`. Order does not matter; keys are
/// sorted on insertion so equal label sets always collide.
pub type Labels<'a> = &'a [(&'a str, &'a str)];

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: Labels<'_>) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Key {
            name: name.to_string(),
            labels,
        }
    }
}

/// Unit and help text of a metric name, from [`catalogue::METRICS`]
/// (both empty for a name the catalogue does not list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricMeta {
    /// Unit of the recorded values (`"bytes"`, `"ns"`, `"1"`...).
    pub unit: &'static str,
    /// One-line human description.
    pub help: &'static str,
}

impl MetricMeta {
    fn of(name: &str) -> Self {
        catalogue::metric(name).map_or_else(Self::default, |row| MetricMeta {
            unit: row.unit,
            help: row.help,
        })
    }
}

/// A catalogued name is recorded under its catalogued kind only.
fn check_kind(name: &str, kind: Kind) {
    debug_assert!(
        catalogue::metric(name).is_none_or(|row| row.kind == kind),
        "metric `{name}` is not catalogued as a {}",
        kind.label()
    );
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
}

/// A thread-safe collection of named metrics.
///
/// Metric names use dotted lowercase (`des.resource.busy_ns`); the
/// Prometheus exporter rewrites dots to underscores. Unit and help
/// text come from [`catalogue::METRICS`], so exports are
/// self-documenting without any registration call.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// An empty registry behind an [`Arc`], ready to share across
    /// instrumented components.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Add `delta` to the counter `name`/`labels`.
    pub fn inc(&self, name: &str, labels: Labels<'_>, delta: u64) {
        check_kind(name, Kind::Counter);
        *self
            .lock()
            .counters
            .entry(Key::new(name, labels))
            .or_insert(0) += delta;
    }

    /// Set the gauge `name`/`labels` to `value`.
    pub fn set_gauge(&self, name: &str, labels: Labels<'_>, value: f64) {
        check_kind(name, Kind::Gauge);
        self.lock().gauges.insert(Key::new(name, labels), value);
    }

    /// Raise the gauge `name`/`labels` to `value` if it is larger than
    /// the current value (high-watermark tracking, e.g. peak queue
    /// depth).
    pub fn max_gauge(&self, name: &str, labels: Labels<'_>, value: f64) {
        check_kind(name, Kind::Gauge);
        let mut inner = self.lock();
        let slot = inner.gauges.entry(Key::new(name, labels)).or_insert(value);
        if value > *slot {
            *slot = value;
        }
    }

    /// Record `value` into the histogram `name`/`labels`.
    pub fn observe(&self, name: &str, labels: Labels<'_>, value: u64) {
        check_kind(name, Kind::Histogram);
        self.lock()
            .histograms
            .entry(Key::new(name, labels))
            .or_default()
            .observe(value);
    }

    /// Fold an externally accumulated [`Histogram`] into
    /// `name`/`labels`. Components that record on their own hot path
    /// (e.g. per-resource wait times inside the DES engine) keep a
    /// local histogram and merge it in once at report time.
    pub fn merge_histogram(&self, name: &str, labels: Labels<'_>, hist: &Histogram) {
        check_kind(name, Kind::Histogram);
        self.lock()
            .histograms
            .entry(Key::new(name, labels))
            .or_default()
            .merge(hist);
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter_value(&self, name: &str, labels: Labels<'_>) -> u64 {
        self.lock()
            .counters
            .get(&Key::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of every counter sample sharing `name`, across all label
    /// sets. Used by conservation checks ("total bytes moved").
    pub fn counter_total(&self, name: &str) -> u64 {
        self.lock()
            .counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// An immutable copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| CounterSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: v,
                    meta: MetricMeta::of(&k.name),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, &v)| GaugeSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: v,
                    meta: MetricMeta::of(&k.name),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| HistogramSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    count: h.count(),
                    sum: h.sum() as f64,
                    min: h.min(),
                    max: h.max(),
                    buckets: h.buckets(),
                    meta: MetricMeta::of(&k.name),
                })
                .collect(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One exported counter sample.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Monotonic value.
    pub value: u64,
    /// Catalogued unit/help.
    pub meta: MetricMeta,
}

/// One exported gauge sample.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Last (or extremal) recorded value.
    pub value: f64,
    /// Catalogued unit/help.
    pub meta: MetricMeta,
}

/// One exported histogram sample.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: Option<u64>,
    /// Largest observation.
    pub max: Option<u64>,
    /// `(inclusive_upper_bound, count)` per non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Catalogued unit/help.
    pub meta: MetricMeta,
}

/// Immutable copy of a [`Registry`] at one point in (wall or sim) time.
/// Samples are sorted by name then labels, so snapshots of identical
/// recordings compare equal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// All counter samples.
    pub counters: Vec<CounterSample>,
    /// All gauge samples.
    pub gauges: Vec<GaugeSample>,
    /// All histogram samples.
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Counter value for an exact name + label match.
    pub fn counter(&self, name: &str, labels: Labels<'_>) -> Option<u64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        want.sort();
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels == want)
            .map(|c| c.value)
    }

    /// Sum of all counter samples with `name`, across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = Registry::new();
        r.inc("io.bytes", &[("ost", "0")], 10);
        r.inc("io.bytes", &[("ost", "1")], 5);
        r.inc("io.bytes", &[("ost", "0")], 7);
        assert_eq!(r.counter_value("io.bytes", &[("ost", "0")]), 17);
        assert_eq!(r.counter_value("io.bytes", &[("ost", "1")]), 5);
        assert_eq!(r.counter_value("io.bytes", &[("ost", "9")]), 0);
        assert_eq!(r.counter_total("io.bytes"), 22);
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        r.inc("m", &[("a", "1"), ("b", "2")], 1);
        r.inc("m", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.counter_value("m", &[("b", "2"), ("a", "1")]), 2);
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn gauges_set_and_watermark() {
        let r = Registry::new();
        r.set_gauge("depth", &[], 3.0);
        r.set_gauge("depth", &[], 1.0);
        r.max_gauge("peak", &[], 5.0);
        r.max_gauge("peak", &[], 2.0);
        r.max_gauge("peak", &[], 9.0);
        let s = r.snapshot();
        assert_eq!(s.gauges[0].value, 1.0);
        assert_eq!(s.gauges[1].value, 9.0);
    }

    #[test]
    fn snapshot_carries_meta_and_histograms() {
        let r = Registry::new();
        r.observe("pfs.req.bytes", &[("ost", "0")], 4096);
        r.observe("pfs.req.bytes", &[("ost", "0")], 100);
        let s = r.snapshot();
        assert_eq!(s.histograms.len(), 1);
        let h = &s.histograms[0];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 4196.0);
        assert_eq!(h.min, Some(100));
        assert_eq!(h.max, Some(4096));
        assert_eq!(h.meta.unit, "bytes");
        assert_eq!(
            h.meta.help,
            "Request sizes as issued by clients, by direction"
        );
        let bucket_total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(bucket_total, h.count);
    }

    #[test]
    fn uncatalogued_names_keep_empty_meta() {
        let r = Registry::new();
        r.inc("x", &[], 1);
        assert_eq!(r.snapshot().counters[0].meta, MetricMeta::default());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "`run.bytes` is not catalogued as a gauge")]
    fn recording_a_counter_name_as_a_gauge_panics() {
        Registry::new().set_gauge("run.bytes", &[], 1.0);
    }

    #[test]
    fn snapshot_counter_lookup() {
        let r = Registry::new();
        r.inc("x", &[("k", "v")], 3);
        let s = r.snapshot();
        assert_eq!(s.counter("x", &[("k", "v")]), Some(3));
        assert_eq!(s.counter("x", &[]), None);
        assert_eq!(s.counter_total("x"), 3);
    }

    #[test]
    fn shared_across_threads() {
        let r = Registry::shared();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        r.inc("n", &[], 1);
                        r.observe("h", &[("t", &t.to_string())], t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter_value("n", &[]), 400);
        assert_eq!(r.snapshot().histograms.len(), 4);
    }
}
