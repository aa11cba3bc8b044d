//! `BENCHMARK.json` as `compare` needs it: the end-to-end metrics with
//! their direction and bound, and the per-layer names. Read from the
//! working directory, the root of the checkout under test.

use mcio_obs::json::{self, JsonValue};

#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    /// `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

pub fn load() -> Result<Spec, String> {
    let path = "BENCHMARK.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn parse(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("no `{key}` list"))
    };
    let text_of = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("entry without `{key}`"))
    };
    let mut spec = Spec {
        workloads: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    for w in list("workloads")? {
        spec.workloads.push(text_of(w, "name")?);
    }
    for m in list("end_to_end")? {
        spec.end_to_end.push(EndToEnd {
            name: text_of(m, "name")?,
            unit: text_of(m, "unit")?,
            lower_is_better: text_of(m, "better")? == "lower",
            bound: m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("end-to-end metric without `bound`")?,
        });
    }
    for m in list("per_layer")? {
        spec.per_layer
            .push((text_of(m, "name")?, text_of(m, "unit")?));
    }
    Ok(spec)
}

#[cfg(test)]
pub fn committed() -> Spec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_spec_names_the_workloads_the_harness_runs() {
        let spec = committed();
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(e2e, ["setup_s", "op_wall_ms_p50", "peak_rss_mib"]);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.lower_is_better && m.bound <= 0.25));
    }
}
