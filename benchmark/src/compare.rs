//! `compare A.json B.json`: hold one set of results against another by
//! the bounds in `BENCHMARK.json`.
//!
//! One row per (workload, end-to-end metric): base, new, the ratio with
//! its base, and `ok` / `worse` / `unresolved`. A timing whose own
//! spread (`op.iqr_frac` of either side) is wider than its bound is
//! *unresolved* — neither passed nor failed. The traced sections' exact
//! counts are compared for equality and listed when they differ.

use crate::layers::EXACT_UNITS;
use crate::results::{Results, Section, TIMED, TRACED};
use crate::spec::{self, EndToEnd, Spec};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `noise` is the run-to-run spread of the metric as a share of its
/// median (0 when the metric has none recorded).
pub fn verdict(m: &EndToEnd, base: f64, new: f64, noise: f64) -> Verdict {
    let worse_by = if m.lower_is_better {
        new - base
    } else {
        base - new
    } / base;
    if noise > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    pub noise: f64,
    pub verdict: Verdict,
}

fn same_settings(workload: &str, kind: &str, a: &Section, b: &Section) -> Result<(), String> {
    if (a.seed, a.seconds) != (b.seed, b.seconds) {
        return Err(format!(
            "{workload} {kind}: seed/seconds differ ({}/{} vs {}/{}); \
             a comparison needs the same settings on both sides",
            a.seed, a.seconds, b.seed, b.seconds
        ));
    }
    Ok(())
}

/// The end-to-end rows of every workload both sets timed.
pub fn rows(spec: &Spec, a: &Results, b: &Results) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    for workload in &spec.workloads {
        let (Some(sa), Some(sb)) = (a.section(workload, TIMED), b.section(workload, TIMED)) else {
            continue;
        };
        same_settings(workload, TIMED, sa, sb)?;
        for m in &spec.end_to_end {
            let (Some(base), Some(new)) = (sa.value(&m.name), sb.value(&m.name)) else {
                return Err(format!("{workload}: a set lacks `{}`", m.name));
            };
            // Only the op time has a spread of its own on record.
            let noise = if m.name == "op_wall_ms_p50" {
                let iqr = |s: &Section| s.value("op.iqr_frac").unwrap_or(0.0);
                iqr(sa).max(iqr(sb))
            } else {
                0.0
            };
            out.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                base,
                new,
                noise,
                verdict: verdict(m, base, new, noise),
            });
        }
    }
    Ok(out)
}

/// `(workload, metric, base, new)` of every exact count that differs
/// between the traced sections.
pub fn exact_diffs(
    spec: &Spec,
    a: &Results,
    b: &Results,
) -> Result<Vec<(String, String, f64, f64)>, String> {
    let mut out = Vec::new();
    for workload in &spec.workloads {
        let (Some(sa), Some(sb)) = (a.section(workload, TRACED), b.section(workload, TRACED))
        else {
            continue;
        };
        same_settings(workload, TRACED, sa, sb)?;
        for (name, ma) in &sa.metrics {
            if !EXACT_UNITS.contains(&ma.unit.as_str()) {
                continue;
            }
            let new = sb.value(name).unwrap_or(f64::NAN);
            if ma.value != new {
                out.push((workload.clone(), name.clone(), ma.value, new));
            }
        }
    }
    Ok(out)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two results files: compare A.json B.json".to_string());
    };
    let spec = spec::load()?;
    let (a, b) = (Results::load(Path::new(a))?, Results::load(Path::new(b))?);
    let rows = rows(&spec, &a, &b)?;
    if rows.is_empty() {
        return Err("the two sets share no timed workload".to_string());
    }
    println!(
        "{:<14} {:<15} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for r in &rows {
        let bound = spec
            .end_to_end
            .iter()
            .find(|m| m.name == r.metric)
            .map_or(0.0, |m| m.bound);
        let note = match r.verdict {
            Verdict::Unresolved => format!(" (op.iqr_frac {:.3})", r.noise),
            _ => String::new(),
        };
        println!(
            "{:<14} {:<15} {:>14.4} {:>14.4} {:>8.4} {:>8.2}  {}{note} [{}]",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.new / r.base,
            bound,
            r.verdict.label(),
            r.unit
        );
    }
    let diffs = exact_diffs(&spec, &a, &b)?;
    let traced = spec
        .workloads
        .iter()
        .filter(|w| a.section(w, TRACED).is_some() && b.section(w, TRACED).is_some())
        .count();
    println!(
        "\nexact counts: {traced} traced workload(s) compared, {} differ",
        diffs.len()
    );
    for (workload, name, base, new) in &diffs {
        println!("{workload:<14} {name} {base} -> {new}");
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    Ok(if worse > 0 || !diffs.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::{Metric, Metrics};

    fn section(seed: u64, values: &[(&str, f64, &str)]) -> Section {
        let mut metrics = Metrics::new();
        for &(name, value, unit) in values {
            metrics.insert(
                name.to_string(),
                Metric {
                    value,
                    unit: unit.to_string(),
                },
            );
        }
        Section {
            seed,
            seconds: 8,
            attempted: 10,
            failed: 0,
            metrics,
        }
    }

    fn timed(setup: f64, wall: f64, rss: f64, iqr: f64) -> Section {
        section(
            0,
            &[
                ("setup_s", setup, "s"),
                ("op_wall_ms_p50", wall, "ms"),
                ("peak_rss_mib", rss, "MiB"),
                ("op.iqr_frac", iqr, "frac"),
            ],
        )
    }

    #[test]
    fn verdicts_follow_the_bounds_of_the_committed_spec() {
        let spec = spec::committed();
        let bound = |name: &str| {
            spec.end_to_end
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .bound
        };
        let (wall_bound, rss_bound) = (bound("op_wall_ms_p50"), bound("peak_rss_mib"));
        let mut a = Results::default();
        let mut b = Results::default();
        a.insert("plan_heavy", TIMED, timed(0.10, 1000.0, 500.0, 0.01));
        // Op time just inside its bound, memory just outside, set-up better.
        b.insert(
            "plan_heavy",
            TIMED,
            timed(
                0.05,
                1000.0 * (1.0 + wall_bound * 0.9),
                500.0 * (1.0 + rss_bound * 1.1),
                0.01,
            ),
        );
        // Much slower, but one side's own spread is wider than the bound.
        a.insert(
            "des_heavy",
            TIMED,
            timed(0.10, 1000.0, 500.0, wall_bound * 1.5),
        );
        b.insert("des_heavy", TIMED, timed(0.10, 2000.0, 500.0, 0.01));
        let rows = rows(&spec, &a, &b).unwrap();
        let got: Vec<(&str, &str, Verdict)> = rows
            .iter()
            .map(|r| (r.workload.as_str(), r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            got,
            [
                ("plan_heavy", "setup_s", Verdict::Ok),
                ("plan_heavy", "op_wall_ms_p50", Verdict::Ok),
                ("plan_heavy", "peak_rss_mib", Verdict::Worse),
                ("des_heavy", "setup_s", Verdict::Ok),
                ("des_heavy", "op_wall_ms_p50", Verdict::Unresolved),
                ("des_heavy", "peak_rss_mib", Verdict::Ok),
            ]
        );
        let slow = timed(0.10, 1000.0 * (1.0 + wall_bound * 1.1), 500.0, 0.01);
        b.insert("plan_heavy", TIMED, slow);
        assert_eq!(
            super::rows(&spec, &a, &b).unwrap()[1].verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn exact_counts_must_be_equal_and_settings_the_same() {
        let spec = spec::committed();
        let traced = |fired: f64, ms: f64| {
            section(
                0,
                &[
                    ("des.events_fired", fired, "count"),
                    ("des.run_ms", ms, "ms"),
                ],
            )
        };
        let mut a = Results::default();
        let mut b = Results::default();
        a.insert("des_heavy", TRACED, traced(100.0, 5.0));
        b.insert("des_heavy", TRACED, traced(100.0, 9.0));
        assert!(
            exact_diffs(&spec, &a, &b).unwrap().is_empty(),
            "wall-clock is not exact"
        );
        b.insert("des_heavy", TRACED, traced(101.0, 5.0));
        assert_eq!(
            exact_diffs(&spec, &a, &b).unwrap(),
            [(
                "des_heavy".to_string(),
                "des.events_fired".to_string(),
                100.0,
                101.0
            )]
        );
        let mut other_seed = traced(100.0, 5.0);
        other_seed.seed = 7;
        b.insert("des_heavy", TRACED, other_seed);
        assert!(exact_diffs(&spec, &a, &b)
            .unwrap_err()
            .contains("seed/seconds differ"));
    }
}
