//! A queryable in-memory model of one unified trace.
//!
//! The simulation emits a [`Trace`] (and writes it as Chrome
//! trace-event JSON); analysis wants sorted lanes, resolved lane names,
//! and integer-nanosecond arithmetic. [`TraceModel`] is that index: it
//! is built once — from a live trace or from a trace file parsed by
//! [`Trace::from_chrome_json`], so `mcio_cli analyze --trace FILE` sees
//! exactly what Perfetto would — and every analysis of the crate reads
//! its slices instead of regrouping the spans.

use crate::critical_path::{span_aggregator, summarize_chains, AggIo, ChainSummary};
use crate::tenants::job_of;
pub use mcio_obs::catalogue::{
    PID_FAULTS, PID_REPLAN, PID_RESOURCES, PID_ROUNDS, PID_SCHED, PID_TENANTS,
};
use mcio_obs::intervals::merge_intervals;
use mcio_obs::{Span, Trace};
use std::collections::BTreeMap;
use std::ops::Range;

/// Coarse class of a machine resource, keyed off its lane name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ResourceClass {
    /// NIC lanes (`*.nic_tx` / `*.nic_rx`): inter-node shuffle traffic.
    Network,
    /// Memory-bus lanes (`*.membus`): on-node copies and combines.
    Memory,
    /// OST lanes (`ost<N>`): parallel-file-system service.
    Storage,
    /// Anything else: unnamed lanes, and future resource kinds analyze
    /// ignores today.
    Other,
}

impl ResourceClass {
    /// The classes analysis attributes time to, in report order.
    pub const REPORTED: [ResourceClass; 3] = [
        ResourceClass::Network,
        ResourceClass::Memory,
        ResourceClass::Storage,
    ];

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

/// One `(pid, tid)` timeline of the trace that holds at least one span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lane {
    /// Subsystem group (Chrome trace `pid`).
    pub pid: u64,
    /// Timeline within the group (Chrome trace `tid`).
    pub tid: u64,
    /// The registered lane name (`node0.nic_tx`, `ost3`, `chain0`...).
    pub name: Option<String>,
    /// Resource class of a pid-1 lane, resolved from its name once
    /// here; [`ResourceClass::Other`] for every other lane.
    pub class: ResourceClass,
    /// Latest span end on the lane, nanoseconds.
    pub end_ns: u64,
    /// Union of the lane's busy intervals `[start, end)` (zero-length
    /// spans excluded), merged and sorted.
    pub busy: Vec<(u64, u64)>,
    spans: Range<usize>,
}

/// One aggregator's share of the resource lanes, accumulated from the
/// span names that carry its rank (`io.rank<N>…`, `…->rank<N>`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct AggBusy {
    /// Service-time and request totals (zero-length spans count as
    /// requests).
    pub(crate) totals: AggIo,
    /// Union of the aggregator's service intervals, merged and sorted;
    /// empty when every one of its spans is zero-length.
    pub(crate) busy: Vec<(u64, u64)>,
}

/// One trace, indexed for analysis: spans grouped per lane, and every
/// fact more than one analysis derives from them computed once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceModel {
    /// Every complete span, sorted by `(pid, tid, start, end)` —
    /// recording order among equals — so each lane is one slice.
    pub spans: Vec<Span>,
    lanes: Vec<Lane>,
    makespan_ns: u64,
    /// Busy union of the resource lanes of each class, in
    /// [`ResourceClass::REPORTED`] order.
    class_busy: [Vec<(u64, u64)>; 3],
    /// Busy union of the fault lanes' resilience spans.
    fault_busy: Vec<(u64, u64)>,
    /// Per-job busy union over the resource lanes, keyed by the `j<N>.`
    /// prefix of the activity label (multi-tenant traces only).
    pub(crate) job_busy: BTreeMap<u64, Vec<(u64, u64)>>,
    /// Per-aggregator accumulation over the resource lanes, in rank
    /// order.
    pub(crate) aggregators: Vec<AggBusy>,
    /// Every round chain, longest wall-clock extent first.
    pub(crate) chains: Vec<ChainSummary>,
}

fn union_of<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<(u64, u64)> {
    merge_intervals(
        spans
            .filter(|s| s.dur_ns > 0)
            .map(|s| (s.start_ns, s.end_ns()))
            .collect(),
    )
}

impl TraceModel {
    /// Index a trace. The one constructor:
    /// [`TraceModel::from_chrome_json`] ends here too.
    pub fn new(trace: Trace) -> Self {
        let mut names: BTreeMap<(u64, u64), String> = trace
            .threads
            .into_iter()
            .map(|(pid, tid, name)| ((pid, tid), name))
            .collect();
        let mut spans = trace.spans;
        spans.sort_by_cached_key(|s| (s.pid, s.tid, s.start_ns, s.end_ns()));
        let mut lanes: Vec<Lane> = Vec::new();
        for lane in spans.chunk_by(|a, b| (a.pid, a.tid) == (b.pid, b.tid)) {
            let (pid, tid) = (lane[0].pid, lane[0].tid);
            let name = names.remove(&(pid, tid));
            let start = lanes.last().map_or(0, |l| l.spans.end);
            lanes.push(Lane {
                pid,
                tid,
                class: match &name {
                    Some(name) if pid == PID_RESOURCES => ResourceClass::classify(name),
                    _ => ResourceClass::Other,
                },
                name,
                end_ns: lane.iter().map(Span::end_ns).max().unwrap_or(0),
                busy: union_of(lane.iter()),
                spans: start..start + lane.len(),
            });
        }
        let mut model = TraceModel {
            makespan_ns: lanes.iter().map(|l| l.end_ns).max().unwrap_or(0),
            spans,
            lanes,
            ..TraceModel::default()
        };
        model.class_busy = ResourceClass::REPORTED.map(|class| {
            let lanes = model.lanes(PID_RESOURCES).iter();
            merge_intervals(
                lanes
                    .filter(|l| l.class == class)
                    .flat_map(|l| l.busy.iter().copied())
                    .collect(),
            )
        });
        model.fault_busy = union_of(model.pid_spans(PID_FAULTS).iter().filter(|s| {
            matches!(
                s.cat.as_str(),
                "retry" | "backoff" | "failover" | "degraded"
            )
        }));
        // A span's *name* is the activity label, so the job prefix and
        // the aggregator rank survive the resource serialization.
        let mut job_ivs: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        let mut aggs: BTreeMap<u64, AggBusy> = BTreeMap::new();
        for s in model.pid_spans(PID_RESOURCES) {
            if let Some((agg, is_io)) = span_aggregator(&s.name) {
                let e = aggs.entry(agg).or_default();
                e.totals.agg = agg;
                if is_io {
                    e.totals.io_busy_ns += s.dur_ns;
                    e.totals.io_requests += 1;
                } else {
                    e.totals.msg_busy_ns += s.dur_ns;
                    e.totals.msgs += 1;
                }
                if s.dur_ns > 0 {
                    e.busy.push((s.start_ns, s.end_ns()));
                }
            }
            if let Some(job) = job_of(&s.name).filter(|_| s.dur_ns > 0) {
                job_ivs
                    .entry(job)
                    .or_default()
                    .push((s.start_ns, s.end_ns()));
            }
        }
        model.job_busy = job_ivs
            .into_iter()
            .map(|(job, ivs)| (job, merge_intervals(ivs)))
            .collect();
        model.aggregators = aggs
            .into_values()
            .map(|mut a| {
                a.busy = merge_intervals(a.busy);
                a
            })
            .collect();
        model.chains = summarize_chains(&model);
        model
    }

    /// Parse a Chrome trace-event JSON document (the `--trace` output);
    /// see [`Trace::from_chrome_json`].
    pub fn from_chrome_json(input: &str) -> Result<Self, String> {
        Trace::from_chrome_json(input).map(TraceModel::new)
    }

    /// True when the trace holds no complete spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Latest span end across the whole trace, in nanoseconds (the
    /// run's elapsed simulated time).
    pub fn makespan_ns(&self) -> u64 {
        self.makespan_ns
    }

    /// The lanes of one subsystem, in `tid` order.
    pub fn lanes(&self, pid: u64) -> &[Lane] {
        let from = self.lanes.partition_point(|l| l.pid < pid);
        let to = self.lanes.partition_point(|l| l.pid <= pid);
        &self.lanes[from..to]
    }

    /// The spans of one lane, sorted by `(start, end)`.
    pub fn lane_spans(&self, lane: &Lane) -> &[Span] {
        &self.spans[lane.spans.clone()]
    }

    /// Every span of one subsystem, lane by lane.
    pub(crate) fn pid_spans(&self, pid: u64) -> &[Span] {
        match self.lanes(pid) {
            [] => &[],
            [first, .., last] | [first @ last] => &self.spans[first.spans.start..last.spans.end],
        }
    }

    /// Union of busy intervals `[start, end)` of every pid-1 resource
    /// lane of `class`, merged and sorted (kept for the
    /// [`ResourceClass::REPORTED`] classes; empty for `Other`).
    pub fn class_busy_intervals(&self, class: ResourceClass) -> &[(u64, u64)] {
        self.class_busy
            .get(class as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Union of the *resilience* intervals of the pid-3 fault lanes —
    /// spans categorized `retry`, `backoff`, `failover` or `degraded`
    /// (the descriptive `inject` lane is excluded), merged and sorted.
    /// Time inside these intervals is what the execution spent absorbing
    /// injected faults; fault-free traces yield an empty union.
    pub fn fault_busy_intervals(&self) -> &[(u64, u64)] {
        &self.fault_busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut tc = Trace::default();
        tc.name_lane(PID_RESOURCES);
        tc.name_thread(PID_RESOURCES, 0, "node0.membus");
        tc.name_thread(PID_RESOURCES, 1, "node0.nic_tx");
        tc.name_thread(PID_RESOURCES, 2, "ost0");
        tc.name_lane(PID_ROUNDS);
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
    fn live_trace_and_json_agree() {
        let tc = sample();
        let parsed = TraceModel::from_chrome_json(&tc.to_chrome_json()).unwrap();
        let live = TraceModel::new(tc);
        assert_eq!(live, parsed, "exact ns, names and args survive the file");
        assert_eq!(parsed.spans.len(), 5);
        assert_eq!(parsed.makespan_ns(), 2000);
    }

    #[test]
    fn classification_and_busy_union() {
        let model = TraceModel::new(sample());
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
            [(0, 500)]
        );
        assert_eq!(
            model.class_busy_intervals(ResourceClass::Storage),
            [(500, 2000)]
        );
        // Lanes are grouped, classified once and sorted.
        let classes: Vec<_> = model.lanes(PID_RESOURCES).iter().map(|l| l.class).collect();
        assert_eq!(
            classes,
            [
                ResourceClass::Memory,
                ResourceClass::Network,
                ResourceClass::Storage
            ]
        );
        let rounds = model.lanes(PID_ROUNDS);
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].name.as_deref(), Some("chain0 (group 0)"));
        assert_eq!(
            (rounds[0].end_ns, &rounds[0].busy[..]),
            (2000, &[(0, 2000)][..])
        );
        let phases = model.lane_spans(&rounds[0]);
        assert_eq!(phases.len(), 2);
        assert!(phases[0].start_ns <= phases[1].start_ns);
        assert_eq!(model.pid_spans(PID_ROUNDS), phases);
        assert!(model.lanes(PID_TENANTS).is_empty());
        assert!(model.pid_spans(PID_TENANTS).is_empty());
    }

    #[test]
    fn overlapping_intervals_merge() {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.name_thread(PID_RESOURCES, 1, "ost1");
        tc.span("a", "ost0", PID_RESOURCES, 0, 0, 100);
        tc.span("b", "ost1", PID_RESOURCES, 1, 50, 100);
        tc.span("c", "ost0", PID_RESOURCES, 0, 200, 50);
        let model = TraceModel::new(tc);
        assert_eq!(
            model.class_busy_intervals(ResourceClass::Storage),
            [(0, 150), (200, 250)]
        );
    }

    #[test]
    fn rejects_malformed_traces() {
        assert!(TraceModel::from_chrome_json("not json").is_err());
        assert!(TraceModel::from_chrome_json("{}").is_err());
        // One `event N: …` line per malformed event, never a panic and
        // never a silently wrapped or truncated number.
        let event = |fields: &str| format!("[{{\"name\":\"x\",\"ph\":\"X\",{fields}}}]");
        for (bad, why) in [
            (
                "[{\"ph\":\"B\",\"pid\":0,\"tid\":0,\"name\":\"x\"}]".to_string(),
                "unsupported phase \"B\"",
            ),
            (
                "[{\"pid\":0,\"tid\":0,\"name\":\"x\"}]".to_string(),
                "missing \"ph\"",
            ),
            (
                event("\"pid\":0,\"tid\":0,\"ts\":1e300,\"dur\":1"),
                "\"ts\" is negative or does not fit",
            ),
            (
                event("\"pid\":0,\"tid\":0,\"ts\":1,\"dur\":-0.5"),
                "\"dur\" is negative or does not fit",
            ),
            (
                event("\"pid\":0,\"tid\":0,\"ts\":1e16,\"dur\":1e16"),
                "\"ts\" + \"dur\" does not fit",
            ),
            (
                event("\"pid\":-1,\"tid\":0,\"ts\":0,\"dur\":1"),
                "\"pid\" is not an unsigned integer",
            ),
            (
                event("\"pid\":0,\"tid\":1.5,\"ts\":0,\"dur\":1"),
                "\"tid\" is not an unsigned integer",
            ),
            (event("\"pid\":0,\"ts\":0,\"dur\":1"), "missing \"tid\""),
        ] {
            let err = TraceModel::from_chrome_json(&bad).expect_err(&bad);
            assert!(
                err.starts_with("event 0: ") && err.contains(why),
                "{bad}: {err}"
            );
            assert!(!err.contains('\n'), "{err}");
        }
        // Sub-nanosecond digits of a foreign trace round.
        let foreign = event("\"pid\":0,\"tid\":0,\"ts\":0.0004,\"dur\":1.2346");
        let model = TraceModel::from_chrome_json(&foreign).unwrap();
        assert_eq!((model.spans[0].start_ns, model.spans[0].dur_ns), (0, 1235));
        let empty = TraceModel::from_chrome_json("[]").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.makespan_ns(), 0);
    }

    #[test]
    fn reads_a_foreign_trace() {
        // What Perfetto and chrome://tracing export: members in their
        // own order, members of their own (nested ones too), `args`
        // that are not strings, and a name past the BMP as a surrogate
        // pair of `\u` escapes.
        let foreign = r#"[
          {"args":{"name":"ost0"},"cat":"__metadata","name":"thread_name","ph":"M","pid":1,"tid":3,"ts":0},
          {"pid":1,"tid":3,"ts":10.5,"dur":2,"ph":"X","cat":"v8","name":"\ud83d\ude00 gc",
           "tts":1234,"id2":{"local":"0x1","stack":[[1,{"f":null}],2]},
           "args":{"heap":{"used":1,"limits":[2,3]},"kind":"minor","count":7}}
        ]"#;
        let model = TraceModel::from_chrome_json(foreign).unwrap();
        let lane = &model.lanes(1)[0];
        assert_eq!(
            (lane.name.as_deref(), lane.class),
            (Some("ost0"), ResourceClass::Storage)
        );
        let span = &model.spans[0];
        assert_eq!(span.name, "\u{1f600} gc");
        assert_eq!((span.start_ns, span.dur_ns), (10_500, 2_000));
        assert_eq!(span.args, [("kind".to_string(), "minor".to_string())]);
        // Half a pair is still one line.
        let err = TraceModel::from_chrome_json(&foreign.replace("\\ude00", "")).unwrap_err();
        assert!(err.starts_with("trace is not valid JSON: JSON parse error at byte "));
        assert!(err.ends_with("\\u escape is not a scalar") && !err.contains('\n'));
    }
}
