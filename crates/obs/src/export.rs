//! Snapshot exporters: JSON, CSV, and Prometheus text exposition.
//!
//! All three render the same [`Snapshot`], so a bench run can emit any
//! format from one recording. JSON is the machine-readable archive
//! format (parsed back by the validation tests), CSV feeds spreadsheet
//! plots of the paper figures, and the Prometheus format lets a real
//! scrape endpoint serve sim metrics unchanged.

use crate::doc::Writer;
use crate::registry::{MetricMeta, Snapshot};
use std::fmt::Write as _;

/// Render a float without trailing noise: integers print bare
/// (`3` not `3.0`), everything else uses shortest round-trip form.
pub(crate) fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The members every sample row starts with: name and label set.
fn identity(r: &mut Writer, name: &str, labels: &[(String, String)]) {
    r.text("name", name);
    r.inline("labels", |l| labels.iter().for_each(|(k, v)| l.text(k, v)));
}

/// The members every sample row ends with: catalogued unit and help.
fn meta(r: &mut Writer, meta: MetricMeta) {
    r.text("unit", meta.unit);
    r.text("help", meta.help);
}

/// Serialize a snapshot as a JSON object with `counters`, `gauges`, and
/// `histograms` arrays. Every sample carries its name, labels, unit,
/// and help text, so dumps are self-describing.
pub fn to_json(snap: &Snapshot) -> String {
    let mut w = Writer::tight();
    w.rows("counters", &snap.counters, |r, c| {
        identity(r, &c.name, &c.labels);
        r.uint("value", c.value);
        meta(r, c.meta);
    });
    w.rows("gauges", &snap.gauges, |r, g| {
        identity(r, &g.name, &g.labels);
        r.num("value", g.value);
        meta(r, g.meta);
    });
    w.rows("histograms", &snap.histograms, |r, h| {
        identity(r, &h.name, &h.labels);
        r.uint("count", h.count);
        r.num("sum", h.sum);
        r.opt("min", h.min, Writer::uint);
        r.opt("max", h.max, Writer::uint);
        r.inline_rows("buckets", &h.buckets, |b, &(bound, count)| {
            b.uint("le", bound);
            b.uint("count", count);
        });
        meta(r, h.meta);
    });
    w.finish()
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn labels_csv(labels: &[(String, String)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(";")
}

/// Serialize a snapshot as flat CSV:
/// `kind,name,labels,field,value,unit`. Histograms expand to one row
/// per statistic plus one per bucket (`field = le_<bound>`).
pub fn to_csv(snap: &Snapshot) -> String {
    let mut out = String::from("kind,name,labels,field,value,unit\n");
    for c in &snap.counters {
        let _ = writeln!(
            out,
            "counter,{},{},value,{},{}",
            csv_field(&c.name),
            csv_field(&labels_csv(&c.labels)),
            c.value,
            csv_field(c.meta.unit),
        );
    }
    for g in &snap.gauges {
        let _ = writeln!(
            out,
            "gauge,{},{},value,{},{}",
            csv_field(&g.name),
            csv_field(&labels_csv(&g.labels)),
            fmt_num(g.value),
            csv_field(g.meta.unit),
        );
    }
    for h in &snap.histograms {
        let name = csv_field(&h.name);
        let labels = csv_field(&labels_csv(&h.labels));
        let unit = csv_field(h.meta.unit);
        let _ = writeln!(out, "histogram,{name},{labels},count,{},{unit}", h.count);
        let _ = writeln!(
            out,
            "histogram,{name},{labels},sum,{},{unit}",
            fmt_num(h.sum)
        );
        if let (Some(min), Some(max)) = (h.min, h.max) {
            let _ = writeln!(out, "histogram,{name},{labels},min,{min},{unit}");
            let _ = writeln!(out, "histogram,{name},{labels},max,{max},{unit}");
        }
        for (bound, count) in &h.buckets {
            let _ = writeln!(out, "histogram,{name},{labels},le_{bound},{count},{unit}");
        }
    }
    out
}

/// `a.b.c` → `a_b_c`, and any other non-`[a-zA-Z0-9_]` byte → `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escape a label *value* per the Prometheus text exposition format:
/// exactly backslash, double-quote, and line-feed are escaped — nothing
/// else. This is deliberately not JSON escaping (which would also
/// rewrite tabs, carriage returns, and control bytes Prometheus passes
/// through verbatim).
fn prom_escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn prom_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), prom_escape_label(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
}

fn prom_labels_with(labels: &[(String, String)], extra_key: &str, extra_val: &str) -> String {
    let mut all = labels.to_vec();
    all.push((extra_key.to_string(), extra_val.to_string()));
    prom_labels(&all)
}

/// Serialize a snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` headers per metric name,
/// histograms expanded to cumulative `_bucket{le=...}` series plus
/// `_sum` and `_count`.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_header = String::new();
    let mut header = |out: &mut String, name: &str, kind: &str, help: &str| {
        if last_header != name {
            if !help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {help}");
            }
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_header = name.to_string();
        }
    };
    for c in &snap.counters {
        let name = prom_name(&c.name);
        header(&mut out, &name, "counter", c.meta.help);
        let _ = writeln!(out, "{name}{} {}", prom_labels(&c.labels), c.value);
    }
    for g in &snap.gauges {
        let name = prom_name(&g.name);
        header(&mut out, &name, "gauge", g.meta.help);
        let _ = writeln!(out, "{name}{} {}", prom_labels(&g.labels), fmt_num(g.value));
    }
    for h in &snap.histograms {
        let name = prom_name(&h.name);
        header(&mut out, &name, "histogram", h.meta.help);
        let mut cumulative = 0u64;
        for (bound, count) in &h.buckets {
            cumulative += count;
            let _ = writeln!(
                out,
                "{name}_bucket{} {cumulative}",
                prom_labels_with(&h.labels, "le", &bound.to_string()),
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{} {}",
            prom_labels_with(&h.labels, "le", "+Inf"),
            h.count,
        );
        let _ = writeln!(
            out,
            "{name}_sum{} {}",
            prom_labels(&h.labels),
            fmt_num(h.sum)
        );
        let _ = writeln!(out, "{name}_count{} {}", prom_labels(&h.labels), h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.inc("pfs.requests", &[("rw", "write")], 12);
        r.inc("pfs.requests", &[("rw", "read")], 3);
        r.set_gauge("plan.groups", &[], 4.0);
        r.observe("pfs.req.bytes", &[("ost", "0")], 4096);
        r.observe("pfs.req.bytes", &[("ost", "0")], 65536);
        r.observe("pfs.req.bytes", &[("ost", "0")], 100);
        r.snapshot()
    }

    #[test]
    fn json_parses_and_contains_samples() {
        let snap = sample_snapshot();
        let doc = parse(&to_json(&snap)).expect("exporter emits valid JSON");
        let counters = doc.get("counters").unwrap().as_array().unwrap();
        assert_eq!(counters.len(), 2);
        assert_eq!(
            counters[0].get("name").and_then(JsonValue::as_str),
            Some("pfs.requests")
        );
        assert_eq!(
            counters[0].get("help").and_then(JsonValue::as_str),
            Some("Client I/O requests submitted, by direction")
        );
        let hists = doc.get("histograms").unwrap().as_array().unwrap();
        assert_eq!(hists[0].get("count").and_then(JsonValue::as_f64), Some(3.0));
        let buckets = hists[0].get("buckets").unwrap().as_array().unwrap();
        let total: f64 = buckets
            .iter()
            .map(|b| b.get("count").and_then(JsonValue::as_f64).unwrap())
            .sum();
        assert_eq!(total, 3.0);
    }

    #[test]
    fn csv_has_one_row_per_sample() {
        let csv = to_csv(&sample_snapshot());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,labels,field,value,unit");
        // 2 counters + 1 gauge + (count,sum,min,max + 3 buckets) = 10.
        assert_eq!(lines.len(), 11);
        assert!(lines.contains(&"counter,pfs.requests,rw=write,value,12,requests"));
        assert!(lines.contains(&"gauge,plan.groups,,value,4,groups"));
        // 4096 falls in [2^12, 2^13), whose inclusive bound is 8191.
        assert!(lines.iter().any(|l| l.ends_with("le_8191,1,bytes")));
    }

    #[test]
    fn prometheus_format_shape() {
        let prom = to_prometheus(&sample_snapshot());
        assert!(prom.contains(
            "# HELP pfs_requests Client I/O requests submitted, by direction\n\
             # TYPE pfs_requests counter\n"
        ));
        assert!(prom.contains("pfs_requests{rw=\"write\"} 12"));
        assert!(prom.contains("# TYPE plan_groups gauge"));
        assert!(prom.contains("pfs_req_bytes_bucket{ost=\"0\",le=\"+Inf\"} 3"));
        assert!(prom.contains("pfs_req_bytes_count{ost=\"0\"} 3"));
        // Cumulative buckets are non-decreasing.
        let counts: Vec<u64> = prom
            .lines()
            .filter(|l| l.starts_with("pfs_req_bytes_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    /// Undo [`prom_escape_label`]: the exposition-format unescape a
    /// scraper applies to quoted label values.
    fn prom_unescape_label(v: &str) -> String {
        let mut out = String::new();
        let mut chars = v.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some('n') => out.push('\n'),
                    Some(other) => {
                        out.push('\\');
                        out.push(other);
                    }
                    None => out.push('\\'),
                }
            } else {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn prometheus_label_values_round_trip_hostile_input() {
        // Backslash, quote, and newline must escape; tab and CR must
        // pass through raw (the exposition format only escapes those
        // three inside label values).
        let hostile = "a\\b\"c\nd\te\rf";
        let r = Registry::new();
        r.inc("m", &[("k", hostile)], 1);
        let prom = to_prometheus(&r.snapshot());
        // The physical line must not be broken by the newline in the
        // value: exactly one sample line after the TYPE header.
        let sample_lines: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with("m{") && l.ends_with(" 1"))
            .collect();
        assert_eq!(sample_lines.len(), 1, "escaping kept one line: {prom:?}");
        let line = sample_lines[0];
        let start = line.find("k=\"").expect("label present") + 3;
        let end = line.rfind('"').unwrap();
        assert_eq!(prom_unescape_label(&line[start..end]), hostile);
        assert!(line.contains("\\\\b"), "backslash escaped: {line}");
        assert!(line.contains("\\\"c"), "quote escaped: {line}");
        assert!(line.contains("\\nd"), "newline escaped: {line}");
        assert!(line.contains("d\te"), "tab passes through: {line:?}");
    }

    /// The exposition contract for histograms, end to end: `le` bounds
    /// strictly increase, cumulative `_bucket` counts never decrease,
    /// the `+Inf` bucket equals `_count`, and `_sum`/`_count` agree
    /// exactly with the observations that were recorded.
    #[test]
    fn prometheus_histogram_sum_count_and_bucket_consistency() {
        let observations: &[u64] = &[100, 4096, 4096, 65536, 1, 999_999];
        let r = Registry::new();
        for &v in observations {
            r.observe("des.resource.wait_ns", &[("class", "ost")], v);
        }
        let prom = to_prometheus(&r.snapshot());

        let mut bounds: Vec<f64> = Vec::new();
        let mut cumulative: Vec<u64> = Vec::new();
        for line in prom
            .lines()
            .filter(|l| l.starts_with("des_resource_wait_ns_bucket"))
        {
            let le_start = line.find("le=\"").unwrap() + 4;
            let le_end = line[le_start..].find('"').unwrap() + le_start;
            let le = &line[le_start..le_end];
            if le != "+Inf" {
                bounds.push(le.parse().unwrap());
            }
            cumulative.push(line.rsplit(' ').next().unwrap().parse().unwrap());
        }
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "le bounds strictly increase: {bounds:?}"
        );
        assert!(
            cumulative.windows(2).all(|w| w[0] <= w[1]),
            "cumulative counts non-decreasing: {cumulative:?}"
        );
        assert_eq!(
            *cumulative.last().unwrap(),
            observations.len() as u64,
            "+Inf bucket equals the observation count"
        );

        let scrape = |suffix: &str| -> f64 {
            prom.lines()
                .find(|l| l.starts_with(&format!("des_resource_wait_ns_{suffix}")))
                .unwrap_or_else(|| panic!("{suffix} series present: {prom}"))
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(scrape("count"), observations.len() as f64);
        assert_eq!(scrape("sum"), observations.iter().sum::<u64>() as f64);
    }

    /// Each labeled histogram series expands independently: two label
    /// sets under one metric name share a single TYPE header but keep
    /// separate `_sum`/`_count`/`_bucket` families.
    #[test]
    fn prometheus_histogram_label_sets_stay_separate() {
        let r = Registry::new();
        r.observe("m.ns", &[("ost", "0")], 10);
        r.observe("m.ns", &[("ost", "1")], 20);
        r.observe("m.ns", &[("ost", "1")], 30);
        let prom = to_prometheus(&r.snapshot());
        assert_eq!(prom.matches("# TYPE m_ns histogram").count(), 1);
        assert!(prom.contains("m_ns_count{ost=\"0\"} 1"), "{prom}");
        assert!(prom.contains("m_ns_count{ost=\"1\"} 2"), "{prom}");
        assert!(prom.contains("m_ns_sum{ost=\"0\"} 10"), "{prom}");
        assert!(prom.contains("m_ns_sum{ost=\"1\"} 50"), "{prom}");
    }

    /// The corners no run reaches — an empty histogram, a fractional
    /// gauge, label text that needs escaping — pinned byte for byte.
    #[test]
    fn literal_snapshot_renders_fixed_bytes() {
        use crate::registry::{CounterSample, GaugeSample, HistogramSample, MetricMeta};
        let meta = MetricMeta {
            unit: "ns",
            help: "a \"b\"",
        };
        let labels = vec![
            ("k".to_string(), "a\\b\n".to_string()),
            ("z".to_string(), "1".to_string()),
        ];
        let hist = |count, min, max, buckets| HistogramSample {
            name: "h".into(),
            labels: Vec::new(),
            count,
            sum: 12.0,
            min,
            max,
            buckets,
            meta,
        };
        let snap = Snapshot {
            counters: vec![CounterSample {
                name: "c".into(),
                labels,
                value: 7,
                meta,
            }],
            gauges: vec![GaugeSample {
                name: "g".into(),
                labels: Vec::new(),
                value: 0.25,
                meta: MetricMeta::default(),
            }],
            histograms: vec![
                hist(0, None, None, Vec::new()),
                hist(2, Some(4), Some(8), vec![(7, 1), (15, 1)]),
            ],
        };
        assert_eq!(
            to_json(&snap),
            "{\n  \"counters\": [\n    \
             {\"name\":\"c\",\"labels\":{\"k\":\"a\\\\b\\n\",\"z\":\"1\"},\"value\":7,\
             \"unit\":\"ns\",\"help\":\"a \\\"b\\\"\"}\n  ],\n  \"gauges\": [\n    \
             {\"name\":\"g\",\"labels\":{},\"value\":0.25,\"unit\":\"\",\"help\":\"\"}\n  ],\n  \
             \"histograms\": [\n    \
             {\"name\":\"h\",\"labels\":{},\"count\":0,\"sum\":12,\"min\":null,\"max\":null,\
             \"buckets\":[],\"unit\":\"ns\",\"help\":\"a \\\"b\\\"\"},\n    \
             {\"name\":\"h\",\"labels\":{},\"count\":2,\"sum\":12,\"min\":4,\"max\":8,\
             \"buckets\":[{\"le\":7,\"count\":1},{\"le\":15,\"count\":1}],\
             \"unit\":\"ns\",\"help\":\"a \\\"b\\\"\"}\n  ]\n}\n"
        );
    }

    #[test]
    fn empty_snapshot_exports() {
        let snap = Snapshot::default();
        assert!(parse(&to_json(&snap)).is_ok());
        assert_eq!(to_csv(&snap).lines().count(), 1);
        assert_eq!(to_prometheus(&snap), "");
    }
}
