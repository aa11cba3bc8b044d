//! # mcio-obs — unified observability for the mcio simulation stack
//!
//! The paper's entire argument is about *where time goes*: shuffle
//! versus file access, rounds forced by memory-starved aggregators,
//! per-group versus global stalls. This crate is the measurement layer
//! every other crate reports into:
//!
//! * [`Registry`] — named counters, gauges, and log2-bucketed
//!   [`Histogram`]s with label sets, recorded through `&self` so one
//!   `Arc<Registry>` threads through the planner, the DES engine and
//!   the PFS model.
//! * [`catalogue`] — the one declaration of every metric (name, kind,
//!   unit, help) and every trace process group (pid, process name).
//! * [`Trace`] — closed spans over *simulated* nanoseconds, serialized
//!   as Chrome trace-event JSON so a whole collective run (DES resource
//!   lanes, planner phases, per-round exchange/IO) lands in one
//!   Perfetto-loadable file; it is the only writer and the only reader
//!   of that format. Its strings are [`Sym`]s into one table per trace.
//! * [`export`] — JSON, CSV, and Prometheus text renderings of a
//!   [`Snapshot`].
//! * [`json`] — the one strict JSON grammar, a pull tokenizer: it
//!   builds the [`json::JsonValue`] tree every document reader (and
//!   every test that validates exporter output) works on, and feeds the
//!   trace reader event by event without a tree.
//! * [`doc`] — the one deterministic writer and the one typed reader
//!   behind every `mcio.*.v1` document and the metrics JSON dump.
//! * [`intervals`] — merge / length / intersection of interval sets,
//!   shared by the engine-side and trace-side overlap accounting.
//!
//! `mcio-obs` deliberately depends on nothing (not even the vendored
//! workspace deps): it sits below every other crate in the dependency
//! graph, including `mcio-des`, and timestamps are plain `u64`
//! nanoseconds to avoid coupling to any clock type.

#![warn(missing_docs)]

pub mod catalogue;
pub mod doc;
pub mod export;
pub mod histogram;
pub mod intervals;
pub mod json;
pub mod registry;
pub mod trace;

pub use histogram::Histogram;
pub use registry::{
    CounterSample, GaugeSample, HistogramSample, Labels, MetricMeta, Registry, Snapshot,
};
pub use trace::{IntoSym, Span, Sym, Trace};

/// The export formats `mcio_cli --metrics-format` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Self-describing JSON object (default).
    Json,
    /// Flat CSV, one row per sample/statistic.
    Csv,
    /// Prometheus text exposition format 0.0.4.
    Prom,
}

impl MetricsFormat {
    /// Parse a `--metrics-format` argument value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "json" => Some(MetricsFormat::Json),
            "csv" => Some(MetricsFormat::Csv),
            "prom" | "prometheus" => Some(MetricsFormat::Prom),
            _ => None,
        }
    }

    /// Render `snap` in this format.
    pub fn render(self, snap: &Snapshot) -> String {
        match self {
            MetricsFormat::Json => export::to_json(snap),
            MetricsFormat::Csv => export::to_csv(snap),
            MetricsFormat::Prom => export::to_prometheus(snap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parse_round_trip() {
        assert_eq!(MetricsFormat::parse("json"), Some(MetricsFormat::Json));
        assert_eq!(MetricsFormat::parse("csv"), Some(MetricsFormat::Csv));
        assert_eq!(MetricsFormat::parse("prom"), Some(MetricsFormat::Prom));
        assert_eq!(
            MetricsFormat::parse("prometheus"),
            Some(MetricsFormat::Prom)
        );
        assert_eq!(MetricsFormat::parse("xml"), None);
    }

    #[test]
    fn render_dispatches() {
        let r = Registry::new();
        r.inc("c", &[], 1);
        let snap = r.snapshot();
        assert!(MetricsFormat::Json.render(&snap).contains("\"counters\""));
        assert!(MetricsFormat::Csv.render(&snap).starts_with("kind,"));
        assert!(MetricsFormat::Prom
            .render(&snap)
            .contains("# TYPE c counter"));
    }
}
