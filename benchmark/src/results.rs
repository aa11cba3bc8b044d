//! `benchmark/out/results.json`: one section per (workload, kind of run).
//! Every run rewrites its own section and leaves the others, so a full
//! `run.sh` leaves one *set* that `compare` can hold against another.

use mcio_obs::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;

pub const SCHEMA: &str = "mcio.hostbench.v1";

/// Section keys: the untraced end-to-end run and the traced run.
pub const TIMED: &str = "timed";
pub const TRACED: &str = "traced";

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Metrics by name. The timed section holds the end-to-end metrics plus
/// the `op.*` noise indicators of its samples.
pub type Metrics = BTreeMap<String, Metric>;

#[derive(Debug, Clone, PartialEq, Default)]
pub struct Section {
    pub seed: u64,
    pub seconds: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Section {
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric).map(|m| m.value)
    }
}

/// workload → section key → section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Results(pub BTreeMap<String, BTreeMap<String, Section>>);

impl Results {
    pub fn section(&self, workload: &str, kind: &str) -> Option<&Section> {
        self.0.get(workload)?.get(kind)
    }

    pub fn insert(&mut self, workload: &str, kind: &str, section: Section) {
        self.0
            .entry(workload.to_string())
            .or_default()
            .insert(kind.to_string(), section);
    }

    pub fn load(path: &Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Results::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_json()).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"workloads\": {{");
        for (i, (workload, kinds)) in self.0.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            out.push_str(&format!("    \"{workload}\": {{"));
            for (j, (kind, s)) in kinds.iter().enumerate() {
                out.push_str(if j > 0 { ",\n" } else { "\n" });
                // Seeds are strings: a u64 does not survive an f64.
                out.push_str(&format!(
                    "      \"{kind}\": {{\"seed\": \"{}\", \"seconds\": {}, \"attempted\": {}, \
                     \"failed\": {}, \"metrics\": {}}}",
                    s.seed,
                    s.seconds,
                    s.attempted,
                    s.failed,
                    metrics_json(&s.metrics)
                ));
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    pub fn from_json(text: &str) -> Result<Results, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
            return Err(format!("not a \"{SCHEMA}\" document"));
        }
        let mut out = Results::default();
        for (workload, kinds) in object(doc.get("workloads"), "workloads")? {
            for (kind, s) in object(Some(kinds), workload)? {
                let num = |k: &str| -> Result<u64, String> {
                    s.get(k)
                        .and_then(JsonValue::as_f64)
                        .map(|v| v as u64)
                        .ok_or_else(|| format!("{workload}.{kind}: missing number `{k}`"))
                };
                let seed = s
                    .get("seed")
                    .and_then(JsonValue::as_str)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("{workload}.{kind}: missing seed"))?;
                let mut metrics = Metrics::new();
                for (name, m) in object(s.get("metrics"), "metrics")? {
                    let metric = m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .zip(m.get("unit").and_then(JsonValue::as_str))
                        .ok_or_else(|| format!("{workload}.{kind}.{name}: not a metric"))?;
                    metrics.insert(
                        name.clone(),
                        Metric {
                            value: metric.0,
                            unit: metric.1.to_string(),
                        },
                    );
                }
                let section = Section {
                    seed,
                    seconds: num("seconds")?,
                    attempted: num("attempted")?,
                    failed: num("failed")?,
                    metrics,
                };
                out.insert(workload, kind, section);
            }
        }
        Ok(out)
    }
}

fn object<'a>(
    v: Option<&'a JsonValue>,
    what: &str,
) -> Result<&'a BTreeMap<String, JsonValue>, String> {
    match v {
        Some(JsonValue::Object(map)) => Ok(map),
        _ => Err(format!("`{what}` is not an object")),
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` on one line. Values print
/// with every digit they were measured with.
pub fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_round_trip_and_sections_replace_in_place() {
        let metric = |value: f64, unit: &str| Metric {
            value,
            unit: unit.to_string(),
        };
        let mut r = Results::default();
        let mut s = Section {
            seed: u64::MAX,
            seconds: 8,
            attempted: 12,
            failed: 0,
            metrics: Metrics::new(),
        };
        s.metrics
            .insert("op_wall_ms_p50".into(), metric(1203.456789012, "ms"));
        s.metrics.insert("op.samples".into(), metric(11.0, "ops"));
        r.insert("plan_heavy", TIMED, s.clone());
        r.insert("plan_heavy", TRACED, Section::default());
        r.insert("des_heavy", TIMED, s.clone());
        let back = Results::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.section("plan_heavy", TIMED).unwrap().seed, u64::MAX);

        s.failed = 1;
        r.insert("plan_heavy", TIMED, s);
        assert_eq!(r.section("plan_heavy", TIMED).unwrap().failed, 1);
        assert_eq!(r.section("plan_heavy", TRACED), Some(&Section::default()));
        assert!(Results::from_json("{\"schema\": \"other\"}").is_err());
        assert!(Results::from_json("[").is_err());
    }
}
