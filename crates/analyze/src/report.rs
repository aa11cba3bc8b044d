//! Structured and human-readable renderings of one run's analysis.
//!
//! The JSON form is the machine interface (`mcio_cli analyze --report
//! json`, the `perf_suite` BENCH records); the text form is the
//! terminal report. Both come from the same [`Analysis`] value so they
//! can never disagree.

use crate::critical_path::{
    aggregator_io, chain_summaries, critical_path, phase_sums, AggIo, ChainSummary, CriticalPath,
};
use crate::replan::{replan_actions, ReplanAction};
use crate::sched::{sched_section, SchedSection};
use crate::stragglers::{stragglers, Straggler};
use crate::tenants::{tenant_paths, TenantPath};
use crate::trace_model::{ResourceClass, TraceModel, PID_RESOURCES};
use mcio_obs::doc::Writer;
use mcio_obs::Histogram;
use std::fmt::Write as _;

/// Raw per-phase attribution sums across all chains (the trace-side
/// equivalent of `TimingReport::exchange_time` / `io_time`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Summed exchange-phase nanoseconds over every chain.
    pub exchange_ns: u64,
    /// Summed file-access-phase nanoseconds over every chain.
    pub io_ns: u64,
}

/// Service-time statistics of one resource class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStat {
    /// Class label (`"network"`, `"memory"`, `"storage"`).
    pub class: &'static str,
    /// Summed service time across the class's lanes.
    pub busy_ns: u64,
    /// Number of service intervals.
    pub spans: u64,
    /// Estimated median service-interval duration.
    pub p50_ns: f64,
    /// Estimated 95th-percentile duration.
    pub p95_ns: f64,
    /// Estimated 99th-percentile duration.
    pub p99_ns: f64,
}

/// Everything the analyzer extracts from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Elapsed simulated time (trace makespan), nanoseconds.
    pub elapsed_ns: u64,
    /// The five-bucket critical-path attribution (sums to
    /// `elapsed_ns` exactly).
    pub critical_path: CriticalPath,
    /// Raw per-phase sums across all chains.
    pub phase_totals: PhaseTotals,
    /// Every round chain, longest first.
    pub chains: Vec<ChainSummary>,
    /// Every reconstructed aggregator, busiest I/O first.
    pub aggregators: Vec<AggIo>,
    /// Per-resource-class service statistics.
    pub class_stats: Vec<ClassStat>,
    /// Per-job interference attribution (multi-tenant traces only;
    /// empty for solo runs, and then omitted from both renderings).
    pub tenants: Vec<TenantPath>,
    /// Robust outliers among chains, aggregators, and OSTs, highest
    /// score first (empty when nothing straggles, and then omitted
    /// from both renderings).
    pub stragglers: Vec<Straggler>,
    /// Closed-loop controller decisions from the pid-5 replan lanes
    /// (empty for non-adaptive runs, and then omitted from both
    /// renderings).
    pub replans: Vec<ReplanAction>,
    /// Job-stream scheduler decisions from the pid-6 lanes (`None`
    /// for non-scheduled runs, and then omitted from both renderings).
    pub sched: Option<SchedSection>,
    /// How many chains/aggregators the text report prints.
    pub top_k: usize,
}

/// Schema tag stamped into the JSON rendering. Consumers must
/// accept-and-ignore unknown top-level keys so the document can grow.
pub const ANALYZE_SCHEMA: &str = "mcio.analyze.v1";

/// Analyze one trace: critical path, chain and aggregator attribution,
/// and resource-class percentiles. `top_k` bounds only the *text*
/// rendering; the JSON always carries everything.
pub fn analyze(model: &TraceModel, top_k: usize) -> Analysis {
    let (exchange_ns, io_ns) = phase_sums(model);
    let mut class_stats = Vec::new();
    for class in ResourceClass::REPORTED {
        let mut hist = Histogram::new();
        let mut busy_ns = 0u64;
        let lanes = model.lanes(PID_RESOURCES).iter();
        for s in lanes
            .filter(|l| l.class == class)
            .flat_map(|l| model.lane_spans(l))
        {
            hist.observe(s.dur_ns);
            busy_ns += s.dur_ns;
        }
        if hist.count() == 0 {
            continue;
        }
        class_stats.push(ClassStat {
            class: class.label(),
            busy_ns,
            spans: hist.count(),
            p50_ns: hist.percentile(0.50).unwrap_or(0.0),
            p95_ns: hist.percentile(0.95).unwrap_or(0.0),
            p99_ns: hist.percentile(0.99).unwrap_or(0.0),
        });
    }
    Analysis {
        elapsed_ns: model.makespan_ns(),
        critical_path: critical_path(model),
        phase_totals: PhaseTotals { exchange_ns, io_ns },
        chains: chain_summaries(model).to_vec(),
        aggregators: aggregator_io(model),
        class_stats,
        tenants: tenant_paths(model),
        stragglers: stragglers(model),
        replans: replan_actions(model),
        sched: sched_section(model),
        top_k,
    }
}

impl Analysis {
    /// Render as a self-describing JSON object. The five
    /// `critical_path` buckets sum to `elapsed_ns` exactly.
    pub fn to_json(&self) -> String {
        let mut w = Writer::document();
        w.schema(ANALYZE_SCHEMA);
        w.uint("elapsed_ns", self.elapsed_ns);
        w.block("critical_path", |w| {
            self.critical_path.write_buckets(w);
            w.uint("attributed_ns", self.critical_path.attributed_ns());
            w.text("bottleneck", self.critical_path.bottleneck());
        });
        w.inline("phase_totals", |w| {
            w.uint("exchange_ns", self.phase_totals.exchange_ns);
            w.uint("io_ns", self.phase_totals.io_ns);
        });
        w.rows("chains", &self.chains, |r, c| {
            r.uint("chain", c.chain);
            r.text("group", &c.group);
            r.uint("start_ns", c.start_ns);
            r.uint("end_ns", c.end_ns);
            r.uint("exchange_ns", c.exchange_ns);
            r.uint("io_ns", c.io_ns);
            r.uint("idle_ns", c.idle_ns);
            r.uint("rounds", c.rounds as u64);
            r.flag("critical", c.critical);
        });
        w.rows("aggregators", &self.aggregators, |r, a| {
            r.uint("agg", a.agg);
            r.uint("io_busy_ns", a.io_busy_ns);
            r.uint("io_requests", a.io_requests);
            r.uint("msg_busy_ns", a.msg_busy_ns);
            r.uint("msgs", a.msgs);
        });
        w.rows("resource_classes", &self.class_stats, |r, s| {
            r.text("class", s.class);
            r.uint("busy_ns", s.busy_ns);
            r.uint("spans", s.spans);
            r.float("p50_ns", s.p50_ns, 1);
            r.float("p95_ns", s.p95_ns, 1);
            r.float("p99_ns", s.p99_ns, 1);
        });
        if !self.tenants.is_empty() {
            w.rows("tenants", &self.tenants, |r, t| {
                r.uint("tid", t.tid);
                r.text("job", &t.job);
                r.text("strategy", &t.strategy);
                r.uint("start_ns", t.start_ns);
                r.uint("end_ns", t.end_ns);
                r.uint("self_ns", t.self_ns);
                r.uint("cross_ns", t.cross_ns);
                r.uint("idle_ns", t.idle_ns);
                r.opt("slowdown", t.slowdown, |r, k, v| r.float(k, v, 6));
                r.opt("ost_overlap", t.ost_overlap, |r, k, v| r.float(k, v, 6));
                r.opt("critical_lane", t.critical_lane.as_deref(), Writer::text);
            });
        }
        if !self.stragglers.is_empty() {
            w.rows("stragglers", &self.stragglers, |r, s| {
                r.text("kind", s.kind.label());
                r.text("name", &s.name);
                r.uint("duration_ns", s.duration_ns);
                r.uint("peer_median_ns", s.peer_median_ns);
                r.float("score", s.score, 3);
                r.text("bucket", s.bucket);
                r.uints("rounds", &s.rounds);
            });
        }
        if !self.replans.is_empty() {
            w.rows("replans", &self.replans, |r, a| {
                r.text("actuator", &a.actuator);
                r.text("name", &a.name);
                r.uint("start_ns", a.start_ns);
                r.uint("dur_ns", a.dur_ns);
                r.inline("args", |args| {
                    for (k, v) in &a.args {
                        args.text(k, v);
                    }
                });
            });
        }
        if let Some(sc) = &self.sched {
            w.block("sched", |w| {
                w.uint("max_queue_depth", sc.max_queue_depth);
                w.uint("backfills", sc.backfills);
                w.uint("admission_defers", sc.admission_defers);
                w.rows("dispatches", &sc.dispatches, |r, d| {
                    r.text("job", &d.job);
                    r.uint("start_ns", d.start_ns);
                    r.uint("dur_ns", d.dur_ns);
                    r.uint("nodes", d.nodes);
                    r.uint("wait_ns", d.wait_ns);
                    r.flag("backfill", d.backfill);
                });
            });
        }
        w.finish()
    }

    /// Render the terminal report (top-K chains and aggregators).
    pub fn to_text(&self) -> String {
        let cp = &self.critical_path;
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        let _ = writeln!(out, "== critical path ==");
        let _ = writeln!(out, "elapsed          {:>12.3} ms", ms(self.elapsed_ns));
        for (label, ns) in cp.buckets() {
            let _ = writeln!(
                out,
                "{:<16} {:>12.3} ms  ({:>5.1}%)",
                label.replace('_', "-"),
                ms(ns),
                cp.fraction(ns) * 100.0
            );
        }
        let _ = writeln!(out, "bottleneck       {}", cp.bottleneck());
        let _ = writeln!(
            out,
            "\nphase totals (all chains): exchange {:.3} ms, io {:.3} ms",
            ms(self.phase_totals.exchange_ns),
            ms(self.phase_totals.io_ns)
        );

        let _ = writeln!(
            out,
            "\n== longest chains (top {}) ==",
            self.top_k.min(self.chains.len())
        );
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>7} {:>12} {:>12} {:>12} {:>9}",
            "chain", "group", "rounds", "exchange ms", "io ms", "idle ms", "critical"
        );
        for c in self.chains.iter().take(self.top_k) {
            let _ = writeln!(
                out,
                "{:>5} {:>6} {:>7} {:>12.3} {:>12.3} {:>12.3} {:>9}",
                c.chain,
                c.group,
                c.rounds,
                ms(c.exchange_ns),
                ms(c.io_ns),
                ms(c.idle_ns),
                if c.critical { "*" } else { "" }
            );
        }

        if !self.aggregators.is_empty() {
            let _ = writeln!(
                out,
                "\n== busiest aggregators (top {}) ==",
                self.top_k.min(self.aggregators.len())
            );
            let _ = writeln!(
                out,
                "{:>6} {:>12} {:>9} {:>12} {:>7}",
                "agg", "io busy ms", "requests", "msg busy ms", "msgs"
            );
            for a in self.aggregators.iter().take(self.top_k) {
                let _ = writeln!(
                    out,
                    "{:>6} {:>12.3} {:>9} {:>12.3} {:>7}",
                    a.agg,
                    ms(a.io_busy_ns),
                    a.io_requests,
                    ms(a.msg_busy_ns),
                    a.msgs
                );
            }
        }

        if !self.class_stats.is_empty() {
            let _ = writeln!(out, "\n== resource service intervals ==");
            let _ = writeln!(
                out,
                "{:>8} {:>12} {:>9} {:>10} {:>10} {:>10}",
                "class", "busy ms", "spans", "p50 us", "p95 us", "p99 us"
            );
            for s in &self.class_stats {
                let _ = writeln!(
                    out,
                    "{:>8} {:>12.3} {:>9} {:>10.2} {:>10.2} {:>10.2}",
                    s.class,
                    ms(s.busy_ns),
                    s.spans,
                    s.p50_ns / 1e3,
                    s.p95_ns / 1e3,
                    s.p99_ns / 1e3
                );
            }
        }

        if !self.tenants.is_empty() {
            let _ = writeln!(out, "\n== tenants ==");
            let _ = writeln!(
                out,
                "{:>4} {:<16} {:>12} {:>10} {:>10} {:>10} {:>9} {:>8}",
                "job", "label", "window ms", "self %", "cross %", "idle %", "slowdown", "overlap"
            );
            for t in &self.tenants {
                let window = t.end_ns - t.start_ns;
                let idle_frac = if window == 0 {
                    0.0
                } else {
                    t.idle_ns as f64 / window as f64
                };
                let _ = writeln!(
                    out,
                    "{:>4} {:<16} {:>12.3} {:>10.1} {:>10.1} {:>10.1} {:>9} {:>8}",
                    t.tid,
                    t.job,
                    ms(window),
                    t.self_fraction() * 100.0,
                    t.cross_fraction() * 100.0,
                    idle_frac * 100.0,
                    t.slowdown
                        .map_or_else(|| "-".to_string(), |s| format!("{s:.3}x")),
                    t.ost_overlap
                        .map_or_else(|| "-".to_string(), |o| format!("{o:.3}")),
                );
            }
        }

        if !self.stragglers.is_empty() {
            let _ = writeln!(out, "\n== stragglers ==");
            for s in &self.stragglers {
                let _ = writeln!(out, "{}", s.describe());
            }
        }

        if !self.replans.is_empty() {
            let _ = writeln!(out, "\n== replan ==");
            for r in &self.replans {
                let _ = writeln!(out, "{}", r.describe());
            }
        }

        if let Some(sc) = &self.sched {
            let _ = writeln!(out, "\n== scheduler ==");
            let _ = writeln!(
                out,
                "dispatches {}, backfills {}, admission defers {}, peak queue depth {}",
                sc.dispatches.len(),
                sc.backfills,
                sc.admission_defers,
                sc.max_queue_depth
            );
            let _ = writeln!(
                out,
                "{:<16} {:>12} {:>12} {:>12} {:>6} {:>9}",
                "job", "start ms", "run ms", "wait ms", "nodes", "backfill"
            );
            for d in sc.dispatches.iter().take(self.top_k) {
                let _ = writeln!(
                    out,
                    "{:<16} {:>12.3} {:>12.3} {:>12.3} {:>6} {:>9}",
                    d.job,
                    ms(d.start_ns),
                    ms(d.dur_ns),
                    ms(d.wait_ns),
                    d.nodes,
                    if d.backfill { "*" } else { "" }
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_model::{PID_RESOURCES, PID_ROUNDS};
    use mcio_obs::json::{self, JsonValue};
    use mcio_obs::Trace;

    fn model() -> TraceModel {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "node0.nic_tx");
        tc.name_thread(PID_RESOURCES, 1, "ost0");
        tc.name_thread(PID_ROUNDS, 0, "chain0");
        tc.span("msg.node0->rank1", "node0.nic_tx", PID_RESOURCES, 0, 0, 400);
        tc.span("io.rank1", "ost0", PID_RESOURCES, 1, 400, 600);
        tc.span("r0.exchange", "exchange", PID_ROUNDS, 0, 0, 400);
        tc.span("r0.io", "io", PID_ROUNDS, 0, 400, 600);
        TraceModel::new(tc)
    }

    #[test]
    fn json_report_parses_and_sums() {
        let a = analyze(&model(), 5);
        let doc = json::parse(&a.to_json()).expect("report is valid JSON");
        let elapsed = doc.get("elapsed_ns").and_then(JsonValue::as_f64).unwrap();
        let cp = doc.get("critical_path").unwrap();
        let sum: f64 = [
            "network_shuffle_ns",
            "ost_io_ns",
            "memory_wait_ns",
            "retry_degraded_ns",
            "idle_ns",
        ]
        .iter()
        .map(|k| cp.get(k).and_then(JsonValue::as_f64).unwrap())
        .sum();
        assert_eq!(sum, elapsed, "buckets partition elapsed exactly");
        assert_eq!(
            cp.get("bottleneck").and_then(JsonValue::as_str),
            Some("ost_io")
        );
        assert_eq!(doc.get("chains").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(doc.get("aggregators").unwrap().as_array().unwrap().len(), 1);
        let classes = doc.get("resource_classes").unwrap().as_array().unwrap();
        assert_eq!(classes.len(), 2, "network + storage present");
    }

    #[test]
    fn text_report_names_the_bottleneck() {
        let a = analyze(&model(), 3);
        let text = a.to_text();
        assert!(text.contains("bottleneck       ost_io"), "{text}");
        assert!(text.contains("longest chains"));
        assert!(text.contains("busiest aggregators"));
        assert!(text.contains("p95 us"));
    }

    #[test]
    fn tenant_section_appears_only_for_multitenant_traces() {
        // Solo trace: no tenants key in JSON, no tenants table in text,
        // so pre-multitenant reports are byte-identical.
        let solo = analyze(&model(), 5);
        assert!(solo.tenants.is_empty());
        assert!(!solo.to_json().contains("\"tenants\""));
        assert!(!solo.to_text().contains("== tenants =="));

        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.span("j0.io.0", "ost0", PID_RESOURCES, 0, 0, 600);
        tc.span("j1.io.0", "ost0", PID_RESOURCES, 0, 600, 300);
        tc.name_lane(crate::trace_model::PID_TENANTS);
        tc.name_thread(crate::trace_model::PID_TENANTS, 0, "j0 alpha");
        tc.name_thread(crate::trace_model::PID_TENANTS, 1, "j1 beta");
        tc.span_with_args(
            "j0.window",
            "tenant",
            crate::trace_model::PID_TENANTS,
            0,
            0,
            600,
            &[
                ("job", "alpha"),
                ("strategy", "memory-conscious"),
                ("slowdown", "1.000000"),
            ],
        );
        tc.span_with_args(
            "j1.window",
            "tenant",
            crate::trace_model::PID_TENANTS,
            1,
            400,
            500,
            &[
                ("job", "beta"),
                ("strategy", "two-phase"),
                ("slowdown", "1.500000"),
            ],
        );
        let mt = analyze(&TraceModel::new(tc), 5);
        assert_eq!(mt.tenants.len(), 2);

        let doc = json::parse(&mt.to_json()).expect("tenant report is valid JSON");
        let tenants = doc.get("tenants").unwrap().as_array().unwrap();
        assert_eq!(tenants.len(), 2);
        let beta = &tenants[1];
        assert_eq!(beta.get("job").and_then(JsonValue::as_str), Some("beta"));
        let window = beta.get("end_ns").and_then(JsonValue::as_f64).unwrap()
            - beta.get("start_ns").and_then(JsonValue::as_f64).unwrap();
        let sum: f64 = ["self_ns", "cross_ns", "idle_ns"]
            .iter()
            .map(|k| beta.get(k).and_then(JsonValue::as_f64).unwrap())
            .sum();
        assert_eq!(sum, window, "tenant buckets partition the window");
        assert_eq!(beta.get("slowdown").and_then(JsonValue::as_f64), Some(1.5));
        assert!(
            matches!(beta.get("ost_overlap"), Some(JsonValue::Null)),
            "missing span arg renders as null"
        );

        let text = mt.to_text();
        assert!(text.contains("== tenants =="), "{text}");
        assert!(text.contains("beta"), "{text}");
        assert!(text.contains("1.500x"), "{text}");
    }

    #[test]
    fn json_carries_schema_stamp() {
        let a = analyze(&model(), 5);
        let rendered = a.to_json();
        assert!(
            rendered.starts_with("{\n  \"schema\": \"mcio.analyze.v1\",\n"),
            "{rendered}"
        );
        let doc = json::parse(&rendered).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(ANALYZE_SCHEMA)
        );
    }

    #[test]
    fn straggler_sections_appear_only_when_flagged() {
        let quiet = analyze(&model(), 5);
        assert!(quiet.stragglers.is_empty());
        assert!(!quiet.to_json().contains("\"stragglers\""));
        assert!(!quiet.to_text().contains("== stragglers =="));

        let mut tc = Trace::default();
        for i in 0..4u64 {
            tc.name_thread(PID_RESOURCES, i, &format!("ost{i}"));
            let dur = if i == 3 { 4000 } else { 1000 };
            tc.span("io.rank0", "c", PID_RESOURCES, i, 0, dur);
        }
        let loud = analyze(&TraceModel::new(tc), 5);
        assert_eq!(loud.stragglers.len(), 1);
        let doc = json::parse(&loud.to_json()).expect("valid JSON with stragglers");
        let arr = doc.get("stragglers").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("name").and_then(JsonValue::as_str), Some("ost3"));
        assert_eq!(
            arr[0].get("bucket").and_then(JsonValue::as_str),
            Some("ost_io")
        );
        let text = loud.to_text();
        assert!(text.contains("== stragglers =="), "{text}");
        assert!(text.contains("ost ost3"), "{text}");
    }

    #[test]
    fn replan_sections_appear_only_for_adaptive_traces() {
        // Non-adaptive trace: no replans key, no replan text section,
        // so static-run reports are byte-identical to before.
        let quiet = analyze(&model(), 5);
        assert!(quiet.replans.is_empty());
        assert!(!quiet.to_json().contains("\"replans\""));
        assert!(!quiet.to_text().contains("== replan =="));

        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.span("io.rank0", "ost0", PID_RESOURCES, 0, 0, 1000);
        tc.name_lane(crate::trace_model::PID_REPLAN);
        tc.name_thread(crate::trace_model::PID_REPLAN, 1, "defer");
        tc.span_with_args(
            "defer.g0.r2",
            "defer",
            crate::trace_model::PID_REPLAN,
            1,
            400,
            600,
            &[("stretch", "2.10")],
        );
        let adaptive = analyze(&TraceModel::new(tc), 5);
        assert_eq!(adaptive.replans.len(), 1);

        let doc = json::parse(&adaptive.to_json()).expect("replan report is valid JSON");
        let replans = doc.get("replans").unwrap().as_array().unwrap();
        assert_eq!(replans.len(), 1);
        let r = &replans[0];
        assert_eq!(r.get("actuator").and_then(JsonValue::as_str), Some("defer"));
        assert_eq!(
            r.get("name").and_then(JsonValue::as_str),
            Some("defer.g0.r2")
        );
        assert_eq!(r.get("start_ns").and_then(JsonValue::as_f64), Some(400.0));
        assert_eq!(
            r.get("args")
                .and_then(|a| a.get("stretch"))
                .and_then(JsonValue::as_str),
            Some("2.10")
        );

        let text = adaptive.to_text();
        assert!(text.contains("== replan =="), "{text}");
        assert!(text.contains("defer defer.g0.r2"), "{text}");
        assert!(text.contains("stretch 2.10"), "{text}");
    }

    #[test]
    fn sched_sections_appear_only_for_scheduled_traces() {
        // Non-scheduled trace: no sched key, no scheduler text
        // section, so earlier reports are byte-identical to before.
        let quiet = analyze(&model(), 5);
        assert!(quiet.sched.is_none());
        assert!(!quiet.to_json().contains("\"sched\""));
        assert!(!quiet.to_text().contains("== scheduler =="));

        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.span("io.rank0", "ost0", PID_RESOURCES, 0, 0, 1000);
        tc.name_lane(crate::trace_model::PID_SCHED);
        tc.name_thread(crate::trace_model::PID_SCHED, 0, "queue");
        tc.name_thread(crate::trace_model::PID_SCHED, 1, "dispatch");
        tc.span_with_args(
            "depth",
            "queue",
            crate::trace_model::PID_SCHED,
            0,
            0,
            400,
            &[("depth", "2")],
        );
        tc.span_with_args(
            "g0000",
            "dispatch",
            crate::trace_model::PID_SCHED,
            1,
            400,
            600,
            &[("nodes", "4"), ("wait_ns", "400"), ("backfill", "1")],
        );
        let scheduled = analyze(&TraceModel::new(tc), 5);
        let sc = scheduled.sched.as_ref().expect("sched section extracted");
        assert_eq!(sc.max_queue_depth, 2);
        assert_eq!(sc.backfills, 1);

        let doc = json::parse(&scheduled.to_json()).expect("sched report is valid JSON");
        let sched = doc.get("sched").unwrap();
        assert_eq!(
            sched.get("max_queue_depth").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        let dispatches = sched.get("dispatches").unwrap().as_array().unwrap();
        assert_eq!(dispatches.len(), 1);
        assert_eq!(
            dispatches[0].get("job").and_then(JsonValue::as_str),
            Some("g0000")
        );
        assert!(
            matches!(dispatches[0].get("backfill"), Some(JsonValue::Bool(true))),
            "backfill renders as a JSON bool"
        );

        let text = scheduled.to_text();
        assert!(text.contains("== scheduler =="), "{text}");
        assert!(
            text.contains("dispatches 1, backfills 1, admission defers 0, peak queue depth 2"),
            "{text}"
        );
        assert!(text.contains("g0000"), "{text}");
    }

    #[test]
    fn empty_model_analysis_is_well_formed() {
        let a = analyze(&TraceModel::default(), 5);
        assert_eq!(a.elapsed_ns, 0);
        assert!(json::parse(&a.to_json()).is_ok());
        assert!(!a.to_text().is_empty());
    }
}
