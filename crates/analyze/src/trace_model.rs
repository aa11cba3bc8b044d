//! A queryable in-memory model of one unified trace.
//!
//! The simulation emits a [`Trace`] (and writes it as Chrome
//! trace-event JSON); analysis wants sorted lanes, resolved lane names,
//! and integer-nanosecond arithmetic. [`TraceModel`] is that index: it
//! is built once — from a live trace or from a trace file parsed by
//! [`Trace::from_chrome_json`], so `mcio_cli analyze --trace FILE` sees
//! exactly what Perfetto would — and every analysis of the crate reads
//! its slices instead of regrouping the spans. It keeps the trace's
//! string table: every name is read through the model, and what the
//! analyses derive from a string alone is derived once per string.

use crate::critical_path::{span_aggregator, summarize_chains, AggIo, ChainSummary, PhaseKind};
use crate::tenants::job_of;
pub use mcio_obs::catalogue::{
    PID_FAULTS, PID_REPLAN, PID_RESOURCES, PID_ROUNDS, PID_SCHED, PID_TENANTS,
};
use mcio_obs::intervals::merge_intervals;
use mcio_obs::{Span, Sym, Trace};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
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
    /// The registered lane name (`node0.nic_tx`, `ost3`, `chain0`...),
    /// resolved by [`TraceModel::lane_name`].
    pub name: Option<Sym>,
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

/// What the analyses read off one string: each is a function of the
/// text alone, so it is computed once per symbol of the table, not once
/// per span that names it.
#[derive(Debug, Clone, Copy)]
struct Facts {
    /// [`ResourceClass::classify`], as a lane name.
    class: ResourceClass,
    /// [`PhaseKind::from_cat`], as a category.
    phase: Option<PhaseKind>,
    /// A fault-resilience category (`retry`, `backoff`, `failover`,
    /// `degraded`).
    resilience: bool,
    /// [`span_aggregator`], as an activity label.
    aggregator: Option<(u64, bool)>,
    /// [`job_of`], as an activity or lane label.
    job: Option<u64>,
}

impl Facts {
    fn of(text: &str) -> Self {
        Facts {
            class: ResourceClass::classify(text),
            phase: PhaseKind::from_cat(text),
            resilience: matches!(text, "retry" | "backoff" | "failover" | "degraded"),
            aggregator: span_aggregator(text),
            job: job_of(text),
        }
    }
}

/// One trace, indexed for analysis: spans grouped per lane, and every
/// fact more than one analysis derives from them computed once. Two
/// models are equal when they index the same trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceModel {
    /// Every complete span, sorted by `(pid, tid, start, end)` —
    /// recording order among equals — so each lane is one slice.
    pub spans: Vec<Span>,
    /// The string table and `args` the spans name.
    trace: Trace,
    /// [`Facts`] per symbol of the table.
    facts: Vec<Facts>,
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

/// A multiply-rotate hasher for the index's integer keys, which come
/// from one trace, so speed matters and flooding does not.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A lane's `(pid, tid)`.
type LaneKey = (u64, u64);

fn union_of<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<(u64, u64)> {
    merge_intervals(
        spans
            .filter(|s| s.dur_ns > 0)
            .map(|s| (s.start_ns, s.end_ns()))
            .collect(),
    )
}

/// The spans grouped into lanes in `(pid, tid)` order by a counting
/// sort, each lane in `(start, end)` order with recording order among
/// equals, and each lane's key and range. A lane already in order (the
/// usual case: an emitter records each lane forward in time) is not
/// sorted again.
fn by_lane(spans: Vec<Span>) -> (Vec<Span>, Vec<(LaneKey, Range<usize>)>) {
    // Each span's lane, numbered in order of first appearance.
    let mut ids: IntMap<LaneKey, u32> = IntMap::default();
    let mut keys: Vec<LaneKey> = Vec::new();
    let mut last: Option<(LaneKey, u32)> = None;
    let lane_of: Vec<u32> = (spans.iter())
        .map(|s| {
            let key = (s.pid, s.tid);
            let id = match last {
                Some((k, id)) if k == key => id,
                _ => *ids.entry(key).or_insert_with(|| {
                    keys.push(key);
                    keys.len() as u32 - 1
                }),
            };
            last = Some((key, id));
            id
        })
        .collect();
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_unstable_by_key(|&id| keys[id as usize]);
    // `first[id]`: where lane `id` starts in the sorted spans.
    let mut counts = vec![0usize; keys.len()];
    for &id in &lane_of {
        counts[id as usize] += 1;
    }
    let mut first = vec![0usize; keys.len()];
    let mut lanes = Vec::with_capacity(keys.len());
    let mut at = 0;
    for &id in &order {
        first[id as usize] = at;
        lanes.push((keys[id as usize], at..at + counts[id as usize]));
        at += counts[id as usize];
    }
    // Where each sorted slot's span comes from.
    let mut source = vec![0u32; spans.len()];
    for (i, &id) in lane_of.iter().enumerate() {
        source[first[id as usize]] = i as u32;
        first[id as usize] += 1;
    }
    let mut sorted: Vec<Span> = (source.iter())
        .map(|&i| spans[i as usize].clone())
        .collect();
    for (_, range) in &lanes {
        let lane = &mut sorted[range.clone()];
        let key = |s: &Span| (s.start_ns, s.end_ns());
        if !lane.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
            lane.sort_by_key(key);
        }
    }
    (sorted, lanes)
}

impl TraceModel {
    /// Index a trace. The one constructor:
    /// [`TraceModel::from_chrome_json`] ends here too.
    pub fn new(mut trace: Trace) -> Self {
        let facts: Vec<Facts> = trace.symbols().map(|(_, text)| Facts::of(text)).collect();
        let (spans, keyed) = by_lane(std::mem::take(&mut trace.spans));
        // A lane named twice keeps its last name.
        let names: IntMap<LaneKey, Sym> = (trace.threads.iter())
            .map(|&(pid, tid, name)| ((pid, tid), name))
            .collect();
        let lanes = (keyed.into_iter())
            .map(|((pid, tid), range)| {
                let lane = &spans[range.clone()];
                let name = names.get(&(pid, tid)).copied();
                Lane {
                    pid,
                    tid,
                    class: match name {
                        Some(name) if pid == PID_RESOURCES => facts[name.index()].class,
                        _ => ResourceClass::Other,
                    },
                    name,
                    end_ns: lane.iter().map(Span::end_ns).max().unwrap_or(0),
                    busy: union_of(lane.iter()),
                    spans: range,
                }
            })
            .collect::<Vec<_>>();
        let mut model = TraceModel {
            makespan_ns: lanes.iter().map(|l| l.end_ns).max().unwrap_or(0),
            spans,
            trace,
            facts,
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
        let fault_spans = model.pid_spans(PID_FAULTS).iter();
        model.fault_busy = union_of(fault_spans.filter(|s| model.facts[s.cat.index()].resilience));
        // A span's *name* is the activity label, so the job prefix and
        // the aggregator rank survive the resource serialization.
        let mut job_ivs: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        // The aggregators in order of first use: each span finds its row
        // through its name's symbol, and a symbol's row is looked up
        // once.
        let mut aggs: Vec<AggBusy> = Vec::new();
        let mut row_of_agg: IntMap<u64, u32> = IntMap::default();
        let mut row_of_sym = vec![u32::MAX; model.facts.len()];
        for s in model.pid_spans(PID_RESOURCES) {
            let facts = &model.facts[s.name.index()];
            if let Some((agg, is_io)) = facts.aggregator {
                let row = &mut row_of_sym[s.name.index()];
                if *row == u32::MAX {
                    *row = *row_of_agg.entry(agg).or_insert_with(|| {
                        let totals = AggIo {
                            agg,
                            ..AggIo::default()
                        };
                        aggs.push(AggBusy {
                            totals,
                            busy: Vec::new(),
                        });
                        aggs.len() as u32 - 1
                    });
                }
                let e = &mut aggs[*row as usize];
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
            if let Some(job) = facts.job.filter(|_| s.dur_ns > 0) {
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
        aggs.sort_unstable_by_key(|a| a.totals.agg);
        for a in &mut aggs {
            a.busy = merge_intervals(std::mem::take(&mut a.busy));
        }
        model.aggregators = aggs;
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

    /// The text of a symbol of the indexed trace.
    pub fn text(&self, sym: Sym) -> &str {
        self.trace.text(sym)
    }

    /// A lane's registered name, if it has one.
    pub fn lane_name(&self, lane: &Lane) -> Option<&str> {
        lane.name.map(|name| self.text(name))
    }

    /// The `args` pairs of a span, as recorded.
    pub fn span_args(&self, span: &Span) -> impl Iterator<Item = (&str, &str)> {
        (self.trace.span_args(span).iter()).map(|&(k, v)| (self.text(k), self.text(v)))
    }

    /// The value of one `args` key of a span, if it has that key.
    pub fn arg(&self, span: &Span, key: &str) -> Option<&str> {
        self.trace.arg(span, key)
    }

    /// The round phase a span's category names.
    pub(crate) fn phase(&self, span: &Span) -> Option<PhaseKind> {
        self.facts[span.cat.index()].phase
    }

    /// The job a lane's name carries (`j<N>.` prefix).
    pub(crate) fn lane_job(&self, lane: &Lane) -> Option<u64> {
        lane.name.and_then(|name| self.facts[name.index()].job)
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

impl PartialEq for TraceModel {
    fn eq(&self, other: &Self) -> bool {
        let same_lane = |a: &Lane, b: &Lane| {
            (a.pid, a.tid, a.class, a.end_ns, &a.busy, &a.spans)
                == (b.pid, b.tid, b.class, b.end_ns, &b.busy, &b.spans)
                && self.lane_name(a) == other.lane_name(b)
        };
        self.spans.len() == other.spans.len()
            && self.lanes.len() == other.lanes.len()
            && (self.spans.iter().zip(&other.spans))
                .all(|(a, b)| self.trace.same_span(a, &other.trace, b))
            && (self.lanes.iter().zip(&other.lanes)).all(|(a, b)| same_lane(a, b))
            && (self.makespan_ns, &self.class_busy, &self.fault_busy)
                == (other.makespan_ns, &other.class_busy, &other.fault_busy)
            && (&self.job_busy, &self.aggregators, &self.chains)
                == (&other.job_busy, &other.aggregators, &other.chains)
    }
}

impl Eq for TraceModel {}

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
        assert_eq!(model.lane_name(&rounds[0]), Some("chain0 (group 0)"));
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
            (model.lane_name(lane), lane.class),
            (Some("ost0"), ResourceClass::Storage)
        );
        let span = &model.spans[0];
        assert_eq!(model.text(span.name), "\u{1f600} gc");
        assert_eq!((span.start_ns, span.dur_ns), (10_500, 2_000));
        assert!(model.span_args(span).eq([("kind", "minor")]));
        // Half a pair is still one line.
        let err = TraceModel::from_chrome_json(&foreign.replace("\\ude00", "")).unwrap_err();
        assert!(err.starts_with("trace is not valid JSON: JSON parse error at byte "));
        assert!(err.ends_with("\\u escape is not a scalar") && !err.contains('\n'));
    }

    /// The names the parsers care about, colliding the way they can:
    /// one label on two lanes, a shuffle leg naming both ends, a `rank`
    /// suffix that does not parse, an unnamed lane, an `inject` span on
    /// a fault lane. Every per-symbol fact the index used must be what
    /// the per-span definition gives.
    #[test]
    fn per_symbol_facts_equal_per_span_facts() {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.name_thread(PID_RESOURCES, 1, "node0.nic_tx");
        tc.name_thread(PID_RESOURCES, 3, "node1.membus");
        tc.name_thread(PID_ROUNDS, 0, "j3.chain0 (group 0)");
        tc.name_thread(PID_FAULTS, 0, "injected");
        tc.name_thread(PID_FAULTS, 3, "ost0.retries");
        for (name, tid, start) in [
            ("io.rank7", 0, 0),
            ("io.rank7", 1, 50),
            ("j3.msg.rank1->rank2", 1, 100),
            ("j3.io.rank9.ost0", 0, 120),
            ("io.rankX", 0, 200),
            ("msg.node0->rank12x", 3, 250),
            ("io.rank7", 2, 300),
            ("j3.io.rank7", 3, 320),
        ] {
            let cat = ["ost0", "node0.nic_tx", "unnamed", "node1.membus"][tid as usize];
            tc.span(name, cat, PID_RESOURCES, tid, start, 40);
        }
        tc.span("r0.exchange", "exchange", PID_ROUNDS, 0, 0, 100);
        tc.span("r0.io", "io", PID_ROUNDS, 0, 100, 300);
        tc.span("r1.sync", "barrier", PID_ROUNDS, 0, 400, 10);
        tc.span("ost0.slow", "inject", PID_FAULTS, 0, 0, 500);
        tc.span("attempt1", "retry", PID_FAULTS, 3, 10, 20);
        tc.span("backoff", "backoff", PID_FAULTS, 3, 30, 5);
        let model = TraceModel::new(tc);

        // The index's facts against the definitions, span by span.
        let mut aggs: BTreeMap<u64, AggIo> = BTreeMap::new();
        let mut jobs: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in model.pid_spans(PID_RESOURCES) {
            let name = model.text(s.name);
            if let Some((agg, is_io)) = span_aggregator(name) {
                let a = aggs.entry(agg).or_insert_with(|| AggIo {
                    agg,
                    ..AggIo::default()
                });
                if is_io {
                    (a.io_busy_ns, a.io_requests) = (a.io_busy_ns + s.dur_ns, a.io_requests + 1);
                } else {
                    (a.msg_busy_ns, a.msgs) = (a.msg_busy_ns + s.dur_ns, a.msgs + 1);
                }
            }
            if let Some(job) = job_of(name) {
                jobs.entry(job).or_default().push((s.start_ns, s.end_ns()));
            }
        }
        let totals: Vec<AggIo> = model.aggregators.iter().map(|a| a.totals.clone()).collect();
        assert_eq!(totals, aggs.into_values().collect::<Vec<_>>());
        assert_eq!(
            totals.iter().map(|a| a.agg).collect::<Vec<_>>(),
            [2, 7],
            "the destination wins; a job prefix hides `io.`; rankX and rank12x do not parse"
        );
        let jobs: BTreeMap<u64, Vec<(u64, u64)>> = (jobs.into_iter())
            .map(|(j, ivs)| (j, merge_intervals(ivs)))
            .collect();
        assert_eq!(model.job_busy, jobs);
        for lane in &model.lanes {
            let name = model.lane_name(lane);
            let class = match name {
                Some(name) if lane.pid == PID_RESOURCES => ResourceClass::classify(name),
                _ => ResourceClass::Other,
            };
            assert_eq!(lane.class, class, "{name:?}");
            assert_eq!(model.lane_job(lane), name.and_then(job_of), "{name:?}");
        }
        assert_eq!(model.lanes(PID_RESOURCES)[2].name, None, "tid 2 is unnamed");
        for s in &model.spans {
            assert_eq!(model.phase(s), PhaseKind::from_cat(model.text(s.cat)));
        }
        let chains = &model.chains;
        assert_eq!(
            (chains.len(), chains[0].exchange_ns, chains[0].io_ns),
            (1, 100, 300)
        );
        // The resilience union leaves the `inject` span out.
        assert_eq!(model.fault_busy_intervals(), [(10, 35)]);
    }
}
