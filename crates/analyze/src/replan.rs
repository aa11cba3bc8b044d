//! Replan attribution for closed-loop adaptive runs.
//!
//! When the adaptive controller acts between collective rounds it
//! records each decision on the pid-5 `replan` trace lanes — one lane
//! per actuator (`retune`, `defer`, `demote`, `resplit`), one span per
//! decision, with the decision inputs carried as span args (severity,
//! stretch, old/new parameter values, source/target aggregators).
//! This module lifts those lanes back into structured
//! [`ReplanAction`] records so a report can answer *what did the
//! controller do, when, and why* — the attribution counterpart to the
//! pid-3 fault lanes.
//!
//! Traces from non-adaptive runs (or adaptive runs where the
//! controller stayed inside its dead band) carry no pid-5 spans, so
//! [`replan_actions`] returns an empty vector and the report sections
//! are omitted entirely — the same conservative-extension contract the
//! tenant and straggler sections follow.

use crate::trace_model::{TraceModel, PID_REPLAN};

/// One controller decision recovered from the pid-5 replan lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplanAction {
    /// Which actuator fired: `retune`, `defer`, `demote`, or
    /// `resplit` (the span's category / lane name).
    pub actuator: String,
    /// Decision label, e.g. `defer.g0.r2` or `retune.msg_group`.
    pub name: String,
    /// When the decision took effect, trace nanoseconds.
    pub start_ns: u64,
    /// Extent of the affected window (for slot-anchored marks, the
    /// executed round window; for retunes, the decision point).
    pub dur_ns: u64,
    /// Decision inputs as recorded by the controller
    /// (`severity`, `stretch`, `old`/`new`, `from`/`to`, `job`, ...).
    pub args: Vec<(String, String)>,
}

impl ReplanAction {
    /// Look up one decision input by key.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// One-line human rendering, e.g.
    /// *"defer defer.g0.r2 @ 1.200 ms (stretch 2.1)"*.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "{} {} @ {:.3} ms",
            self.actuator,
            self.name,
            self.start_ns as f64 / 1e6
        );
        if !self.args.is_empty() {
            let detail: Vec<String> = self.args.iter().map(|(k, v)| format!("{k} {v}")).collect();
            out.push_str(&format!(" ({})", detail.join(", ")));
        }
        out
    }
}

/// Extract every controller decision from a trace's pid-5 lanes,
/// ordered by effect time (ties broken by actuator, then name) so the
/// rendering is deterministic regardless of emission order.
pub fn replan_actions(model: &TraceModel) -> Vec<ReplanAction> {
    let mut out: Vec<ReplanAction> = model
        .pid_spans(PID_REPLAN)
        .iter()
        .map(|s| ReplanAction {
            actuator: model.text(s.cat).to_string(),
            name: model.text(s.name).to_string(),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            args: (model.span_args(s))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        })
        .collect();
    out.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then_with(|| a.actuator.cmp(&b.actuator))
            .then_with(|| a.name.cmp(&b.name))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_model::{PID_REPLAN, PID_RESOURCES};
    use mcio_obs::Trace;

    #[test]
    fn non_adaptive_traces_yield_no_actions() {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.span("io.rank0", "ost0", PID_RESOURCES, 0, 0, 1000);
        assert!(replan_actions(&TraceModel::new(tc)).is_empty());
    }

    #[test]
    fn actions_are_lifted_and_ordered_by_effect_time() {
        let mut tc = Trace::default();
        tc.name_lane(PID_REPLAN);
        tc.name_thread(PID_REPLAN, 1, "defer");
        tc.name_thread(PID_REPLAN, 2, "demote");
        // Emitted out of order; extraction sorts by start_ns.
        tc.span_with_args(
            "demote.g0.r3",
            "demote",
            PID_REPLAN,
            2,
            5_000_000,
            1_000_000,
            &[("from", "agg1"), ("to", "agg2")],
        );
        tc.span_with_args(
            "defer.g0.r2",
            "defer",
            PID_REPLAN,
            1,
            2_000_000,
            3_000_000,
            &[("stretch", "2.10")],
        );
        let actions = replan_actions(&TraceModel::new(tc));
        assert_eq!(actions.len(), 2);
        assert_eq!(actions[0].actuator, "defer");
        assert_eq!(actions[0].name, "defer.g0.r2");
        assert_eq!(actions[0].start_ns, 2_000_000);
        assert_eq!(actions[0].arg("stretch"), Some("2.10"));
        assert_eq!(actions[1].actuator, "demote");
        assert_eq!(actions[1].arg("to"), Some("agg2"));
        let line = actions[0].describe();
        assert!(line.contains("defer defer.g0.r2 @ 2.000 ms"), "{line}");
        assert!(line.contains("stretch 2.10"), "{line}");
    }

    #[test]
    fn round_trips_through_chrome_json() {
        let mut tc = Trace::default();
        tc.name_lane(PID_REPLAN);
        tc.name_thread(PID_REPLAN, 0, "retune");
        tc.span_with_args(
            "retune.msg_group",
            "retune",
            PID_REPLAN,
            0,
            0,
            1_000,
            &[("old", "4194304"), ("new", "2097152")],
        );
        let json = tc.to_chrome_json();
        let model = TraceModel::from_chrome_json(&json).expect("parse");
        let actions = replan_actions(&model);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].actuator, "retune");
        assert_eq!(actions[0].arg("new"), Some("2097152"));
    }
}
