//! A queryable in-memory model of one unified trace.
//!
//! The simulation emits Chrome trace-event JSON; analysis wants sorted
//! lanes, resolved lane names, and integer-nanosecond arithmetic. This
//! module bridges the two: [`TraceModel`] holds the spans plus the lane
//! metadata and can be built either from a live collector (zero-copy of
//! the serialization step) or parsed back from a trace file, so
//! `mcio_cli analyze --trace FILE` sees exactly what Perfetto would.

pub use mcio_obs::catalogue::{
    PID_FAULTS, PID_REPLAN, PID_RESOURCES, PID_ROUNDS, PID_SCHED, PID_TENANTS,
};
use mcio_obs::intervals::merge_intervals;
use mcio_obs::json::{self, JsonValue};
use mcio_obs::{Span, TraceCollector};
use std::collections::BTreeMap;

/// Coarse class of a machine resource, keyed off its lane name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ResourceClass {
    /// NIC lanes (`*.nic_tx` / `*.nic_rx`): inter-node shuffle traffic.
    Network,
    /// Memory-bus lanes (`*.membus`): on-node copies and combines.
    Memory,
    /// OST lanes (`ost<N>`): parallel-file-system service.
    Storage,
    /// Anything else (future resource kinds analyze ignores today).
    Other,
}

impl ResourceClass {
    /// Classify a resource lane by its conventional name.
    pub fn classify(lane_name: &str) -> Self {
        if lane_name.contains("nic") {
            ResourceClass::Network
        } else if lane_name.contains("membus") {
            ResourceClass::Memory
        } else if lane_name.contains("ost") {
            ResourceClass::Storage
        } else {
            ResourceClass::Other
        }
    }

    /// Stable lowercase label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ResourceClass::Network => "network",
            ResourceClass::Memory => "memory",
            ResourceClass::Storage => "storage",
            ResourceClass::Other => "other",
        }
    }
}

/// One trace, resolved into spans plus lane-name metadata.
#[derive(Debug, Clone, Default)]
pub struct TraceModel {
    /// Every complete span, in recording order.
    pub spans: Vec<Span>,
    /// `pid` → subsystem name (`des.resources`, `plan.rounds`).
    pub processes: BTreeMap<u64, String>,
    /// `(pid, tid)` → lane name (`node0.nic_tx`, `ost3`, `chain0`...).
    pub threads: BTreeMap<(u64, u64), String>,
}

impl TraceModel {
    /// Build from a live collector (no JSON round trip).
    pub fn from_collector(tc: &TraceCollector) -> Self {
        TraceModel {
            spans: tc.spans(),
            processes: tc.process_names().into_iter().collect(),
            threads: tc
                .thread_names()
                .into_iter()
                .map(|(pid, tid, name)| ((pid, tid), name))
                .collect(),
        }
    }

    /// Parse a Chrome trace-event JSON document (the `--trace` output).
    /// Timestamps are microsecond decimals with at most three fractional
    /// digits, so the nanosecond reconstruction is exact.
    pub fn from_chrome_json(input: &str) -> Result<Self, String> {
        let doc = json::parse(input).map_err(|e| format!("trace is not valid JSON: {e}"))?;
        let events = doc
            .as_array()
            .ok_or_else(|| "trace is not a JSON array of events".to_string())?;
        let mut model = TraceModel::default();
        for (i, ev) in events.iter().enumerate() {
            let ph = ev
                .get("ph")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
            let pid = ev
                .get("pid")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("event {i}: missing \"pid\""))? as u64;
            let tid = ev
                .get("tid")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("event {i}: missing \"tid\""))? as u64;
            let name = ev
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("event {i}: missing \"name\""))?;
            match ph {
                "M" => {
                    let meta_name = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string();
                    match name {
                        "process_name" => {
                            model.processes.insert(pid, meta_name);
                        }
                        "thread_name" => {
                            model.threads.insert((pid, tid), meta_name);
                        }
                        _ => {}
                    }
                }
                "X" => {
                    let ts = ev
                        .get("ts")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("event {i}: missing \"ts\""))?;
                    let dur = ev
                        .get("dur")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("event {i}: missing \"dur\""))?;
                    if ts < 0.0 || dur < 0.0 {
                        return Err(format!("event {i}: negative ts/dur"));
                    }
                    let args = match ev.get("args") {
                        Some(JsonValue::Object(map)) => map
                            .iter()
                            .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                            .collect(),
                        _ => Vec::new(),
                    };
                    model.spans.push(Span {
                        name: name.to_string(),
                        cat: ev
                            .get("cat")
                            .and_then(JsonValue::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        pid,
                        tid,
                        start_ns: (ts * 1000.0).round() as u64,
                        dur_ns: (dur * 1000.0).round() as u64,
                        args,
                    });
                }
                other => return Err(format!("event {i}: unsupported phase \"{other}\"")),
            }
        }
        Ok(model)
    }

    /// True when the trace holds no complete spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Latest span end across the whole trace, in nanoseconds (the
    /// run's elapsed simulated time).
    pub fn makespan_ns(&self) -> u64 {
        self.spans.iter().map(Span::end_ns).max().unwrap_or(0)
    }

    /// Lane name of `(pid, tid)`, when one was registered.
    pub fn lane_name(&self, pid: u64, tid: u64) -> Option<&str> {
        self.threads.get(&(pid, tid)).map(String::as_str)
    }

    /// The spans of one subsystem, grouped per lane and sorted by start
    /// time within each lane.
    pub fn lanes(&self, pid: u64) -> BTreeMap<u64, Vec<&Span>> {
        let mut out: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.pid == pid) {
            out.entry(s.tid).or_default().push(s);
        }
        for lane in out.values_mut() {
            lane.sort_by_key(|s| (s.start_ns, s.end_ns()));
        }
        out
    }

    /// Union of busy intervals `[start, end)` of every pid-1 resource
    /// lane whose name classifies as `class`, merged and sorted.
    pub fn class_busy_intervals(&self, class: ResourceClass) -> Vec<(u64, u64)> {
        let intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| {
                s.pid == PID_RESOURCES
                    && s.dur_ns > 0
                    && self
                        .lane_name(PID_RESOURCES, s.tid)
                        .map(ResourceClass::classify)
                        == Some(class)
            })
            .map(|s| (s.start_ns, s.end_ns()))
            .collect();
        merge_intervals(intervals)
    }

    /// Union of the *resilience* intervals of the pid-3 fault lanes —
    /// spans categorized `retry`, `backoff`, `failover` or `degraded`
    /// (the descriptive `inject` lane is excluded), merged and sorted.
    /// Time inside these intervals is what the execution spent absorbing
    /// injected faults; fault-free traces yield an empty union.
    pub fn fault_busy_intervals(&self) -> Vec<(u64, u64)> {
        let intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| {
                s.pid == PID_FAULTS
                    && s.dur_ns > 0
                    && matches!(
                        s.cat.as_str(),
                        "retry" | "backoff" | "failover" | "degraded"
                    )
            })
            .map(|s| (s.start_ns, s.end_ns()))
            .collect();
        merge_intervals(intervals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> TraceCollector {
        let tc = TraceCollector::new();
        tc.name_process(PID_RESOURCES, "des.resources");
        tc.name_thread(PID_RESOURCES, 0, "node0.membus");
        tc.name_thread(PID_RESOURCES, 1, "node0.nic_tx");
        tc.name_thread(PID_RESOURCES, 2, "ost0");
        tc.name_process(PID_ROUNDS, "plan.rounds");
        tc.name_thread(PID_ROUNDS, 0, "chain0 (group 0)");
        tc.span("msg.0->1", "node0.nic_tx", PID_RESOURCES, 1, 0, 500);
        tc.span("copy", "node0.membus", PID_RESOURCES, 0, 100, 200);
        tc.span("io.1", "ost0", PID_RESOURCES, 2, 500, 1500);
        tc.span_with_args(
            "r0.exchange",
            "exchange",
            PID_ROUNDS,
            0,
            0,
            500,
            &[("group", "0"), ("round", "0")],
        );
        tc.span_with_args(
            "r0.io",
            "io",
            PID_ROUNDS,
            0,
            500,
            1500,
            &[("group", "0"), ("round", "0")],
        );
        tc
    }

    #[test]
    fn from_collector_and_json_agree() {
        let tc = collector();
        let live = TraceModel::from_collector(&tc);
        let parsed = TraceModel::from_chrome_json(&tc.chrome_trace_json()).unwrap();
        assert_eq!(live.spans.len(), parsed.spans.len());
        assert_eq!(live.processes, parsed.processes);
        assert_eq!(live.threads, parsed.threads);
        for (a, b) in live.spans.iter().zip(&parsed.spans) {
            assert_eq!(a.name, b.name);
            assert_eq!((a.pid, a.tid), (b.pid, b.tid));
            assert_eq!(a.start_ns, b.start_ns, "exact ns round trip");
            assert_eq!(a.dur_ns, b.dur_ns);
            assert_eq!(a.args, b.args, "span args survive the round trip");
        }
        assert_eq!(parsed.makespan_ns(), 2000);
    }

    #[test]
    fn classification_and_busy_union() {
        let model = TraceModel::from_collector(&collector());
        assert_eq!(
            ResourceClass::classify("node3.nic_rx"),
            ResourceClass::Network
        );
        assert_eq!(
            ResourceClass::classify("node0.membus"),
            ResourceClass::Memory
        );
        assert_eq!(ResourceClass::classify("ost12"), ResourceClass::Storage);
        assert_eq!(ResourceClass::classify("gpu0"), ResourceClass::Other);
        assert_eq!(
            model.class_busy_intervals(ResourceClass::Network),
            vec![(0, 500)]
        );
        assert_eq!(
            model.class_busy_intervals(ResourceClass::Storage),
            vec![(500, 2000)]
        );
        // Lanes are sorted and grouped.
        let rounds = model.lanes(PID_ROUNDS);
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[&0].len(), 2);
        assert!(rounds[&0][0].start_ns <= rounds[&0][1].start_ns);
    }

    #[test]
    fn overlapping_intervals_merge() {
        let tc = TraceCollector::new();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.name_thread(PID_RESOURCES, 1, "ost1");
        tc.span("a", "ost0", PID_RESOURCES, 0, 0, 100);
        tc.span("b", "ost1", PID_RESOURCES, 1, 50, 100);
        tc.span("c", "ost0", PID_RESOURCES, 0, 200, 50);
        let model = TraceModel::from_collector(&tc);
        assert_eq!(
            model.class_busy_intervals(ResourceClass::Storage),
            vec![(0, 150), (200, 250)]
        );
    }

    #[test]
    fn rejects_malformed_traces() {
        assert!(TraceModel::from_chrome_json("not json").is_err());
        assert!(TraceModel::from_chrome_json("{}").is_err());
        assert!(TraceModel::from_chrome_json(
            "[{\"ph\":\"B\",\"pid\":0,\"tid\":0,\"name\":\"x\"}]"
        )
        .is_err());
        let empty = TraceModel::from_chrome_json("[]").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.makespan_ns(), 0);
    }
}
