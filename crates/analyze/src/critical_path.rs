//! Critical-path extraction over the round-phase and resource lanes.
//!
//! The trace gives two views of one run: *what the algorithm was doing*
//! (pid 2 — per-chain `r<N>.exchange` / `r<N>.io` phase spans) and
//! *which hardware was busy* (pid 1 — one lane per membus/NIC/OST).
//! The critical path walks the chain that finishes last — the one whose
//! completion *is* the run's makespan — and, inside each of its phase
//! windows, consults the resource lanes to split time into four
//! disjoint buckets:
//!
//! * **network-shuffle** — a NIC was serving (inter-node exchange);
//! * **memory-wait** — only memory buses were busy (on-node combines,
//!   scatter copies, bus contention);
//! * **OST I/O** — parallel-file-system service;
//! * **retry/degraded** — the run was absorbing injected faults:
//!   transient-failure retries and backoff waits, failover
//!   re-coordination, or degradation re-rounds (pid 3 — the fault
//!   lanes of a faulted run; always zero for fault-free traces);
//! * **idle** — the critical chain was waiting on synchronization with
//!   no underlying resource work (stragglers, round barriers).
//!
//! Bucket assignment is phase-aware: fault-resilience work wins over
//! everything (it is time the fault-free run would not have spent),
//! then inside an `io` phase OST service wins ties, inside an
//! `exchange` phase NIC service wins, and gaps outside the critical
//! chain's spans (other chains still running under per-group sync) are
//! attributed to whatever class is busy, storage first. All arithmetic
//! is integer nanoseconds over one boundary sweep, so the five buckets
//! sum to the elapsed time **exactly**.

use crate::trace_model::{ResourceClass, TraceModel, PID_ROUNDS};
use mcio_obs::doc::{Reader, Writer};

/// Kind of one logical round phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Data shuffle between ranks and aggregators.
    Exchange,
    /// Aggregator file access.
    Io,
}

impl PhaseKind {
    pub(crate) fn from_cat(cat: &str) -> Option<Self> {
        match cat {
            "exchange" => Some(PhaseKind::Exchange),
            "io" => Some(PhaseKind::Io),
            _ => None,
        }
    }
}

/// The per-run attribution of elapsed simulated time. The five buckets
/// are disjoint and sum to [`CriticalPath::elapsed_ns`] exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Elapsed simulated time of the run (trace makespan).
    pub elapsed_ns: u64,
    /// Time the critical path was limited by NIC service.
    pub network_shuffle_ns: u64,
    /// Time the critical path was limited by OST service.
    pub ost_io_ns: u64,
    /// Time only memory buses were busy under the critical path.
    pub memory_wait_ns: u64,
    /// Time spent absorbing injected faults: retries, backoff waits,
    /// failover re-coordination, degradation re-rounds. Zero for
    /// fault-free traces.
    pub retry_degraded_ns: u64,
    /// Time with no underlying resource work at all.
    pub idle_ns: u64,
}

impl CriticalPath {
    /// The five attribution buckets as `(stable label, ns)`, in
    /// canonical order.
    pub fn buckets(&self) -> [(&'static str, u64); 5] {
        [
            ("network_shuffle", self.network_shuffle_ns),
            ("ost_io", self.ost_io_ns),
            ("memory_wait", self.memory_wait_ns),
            ("retry_degraded", self.retry_degraded_ns),
            ("idle", self.idle_ns),
        ]
    }

    /// Sum of the five attribution buckets (equals `elapsed_ns` for any
    /// trace; kept separate so audits can assert it).
    pub fn attributed_ns(&self) -> u64 {
        self.buckets().iter().map(|&(_, ns)| ns).sum()
    }

    /// The dominant bucket's stable label (the last of equals).
    pub fn bottleneck(&self) -> &'static str {
        let dominant = self.buckets().into_iter().max_by_key(|&(_, ns)| ns);
        dominant.expect("five buckets").0
    }

    /// Write the five buckets as `network_shuffle_ns` … `idle_ns` members
    /// of the object `w` is positioned in — the form `mcio.analyze.v1`
    /// and `mcio.perf_suite.v1` share.
    pub fn write_buckets(&self, w: &mut Writer) {
        w.uint("network_shuffle_ns", self.network_shuffle_ns);
        w.uint("ost_io_ns", self.ost_io_ns);
        w.uint("memory_wait_ns", self.memory_wait_ns);
        w.uint("retry_degraded_ns", self.retry_degraded_ns);
        w.uint("idle_ns", self.idle_ns);
    }

    /// Read [`CriticalPath::write_buckets`] back. `retry_degraded_ns`
    /// is absent in pre-fault documents, which attributed no time to it.
    pub fn read_buckets(elapsed_ns: u64, r: Reader<'_>) -> Result<Self, String> {
        Ok(CriticalPath {
            elapsed_ns,
            network_shuffle_ns: r.uint("network_shuffle_ns")?,
            ost_io_ns: r.uint("ost_io_ns")?,
            memory_wait_ns: r.uint("memory_wait_ns")?,
            retry_degraded_ns: r.opt("retry_degraded_ns", Reader::uint)?.unwrap_or(0),
            idle_ns: r.uint("idle_ns")?,
        })
    }

    /// Fraction of elapsed time in a bucket (0 when the run is empty).
    pub fn fraction(&self, bucket_ns: u64) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            bucket_ns as f64 / self.elapsed_ns as f64
        }
    }
}

/// Summary of one round chain (one group under per-group sync; the
/// single global chain otherwise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSummary {
    /// Chain lane id (`tid` on pid 2).
    pub chain: u64,
    /// Plan group the chain serves (`"all"` under global sync), from
    /// the span metadata `mcio-core` attaches.
    pub group: String,
    /// First phase start, nanoseconds.
    pub start_ns: u64,
    /// Last phase end, nanoseconds.
    pub end_ns: u64,
    /// Total exchange-phase time in the chain.
    pub exchange_ns: u64,
    /// Total file-access-phase time in the chain.
    pub io_ns: u64,
    /// Uncovered time inside `[start_ns, end_ns]` (inter-round waits).
    pub idle_ns: u64,
    /// Number of round slots the chain executed.
    pub rounds: usize,
    /// True for the chain that defines the run's makespan.
    pub critical: bool,
}

impl ChainSummary {
    /// Wall-clock extent of the chain.
    pub fn span_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-aggregator attribution reconstructed from resource-lane span
/// names (`io.rank<N>`, `msg.…->rank<N>`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggIo {
    /// Aggregator rank.
    pub agg: u64,
    /// Summed OST service time of the aggregator's requests. This is
    /// *resource* time: requests striped over several OSTs in parallel
    /// can sum past the chain's wall clock.
    pub io_busy_ns: u64,
    /// Number of PFS requests the aggregator issued.
    pub io_requests: u64,
    /// Summed service time of shuffle messages addressed to (writes) or
    /// sent by (reads) the aggregator.
    pub msg_busy_ns: u64,
    /// Number of those messages.
    pub msgs: u64,
}

/// Extract the per-run critical-path attribution (see module docs).
pub fn critical_path(model: &TraceModel) -> CriticalPath {
    let elapsed = model.makespan_ns();
    if elapsed == 0 {
        return CriticalPath::default();
    }

    // The critical chain: the pid-2 lane whose last span ends latest
    // (the lower tid on ties, for determinism). Its phase spans never
    // overlap (property-tested invariant), so a sorted interval list
    // supports the sweep below.
    let critical_lane = model
        .lanes(PID_ROUNDS)
        .iter()
        .max_by_key(|l| (l.end_ns, std::cmp::Reverse(l.tid)));
    let phases: Vec<(u64, u64, PhaseKind)> = critical_lane
        .map_or(&[][..], |l| model.lane_spans(l))
        .iter()
        .filter_map(|s| model.phase(s).map(|k| (s.start_ns, s.end_ns(), k)))
        .collect();

    let network = model.class_busy_intervals(ResourceClass::Network);
    let memory = model.class_busy_intervals(ResourceClass::Memory);
    let storage = model.class_busy_intervals(ResourceClass::Storage);
    let faults = model.fault_busy_intervals();

    // Boundary sweep over [0, elapsed): between consecutive boundaries
    // the active phase and the busy classes are constant.
    let mut bounds: Vec<u64> = vec![0, elapsed];
    for &(a, b, _) in &phases {
        bounds.push(a);
        bounds.push(b);
    }
    for ivs in [network, memory, storage, faults] {
        for &(a, b) in ivs {
            bounds.push(a);
            bounds.push(b);
        }
    }
    bounds.retain(|&t| t <= elapsed);
    bounds.sort_unstable();
    bounds.dedup();

    // Forward-only cursors: boundaries are visited in ascending order.
    let mut phase_i = 0usize;
    let mut cursors = [0usize; 4];
    let classes = [network, memory, storage, faults];
    let busy_at = |cursor: &mut usize, ivs: &[(u64, u64)], t: u64| -> bool {
        while *cursor < ivs.len() && ivs[*cursor].1 <= t {
            *cursor += 1;
        }
        *cursor < ivs.len() && ivs[*cursor].0 <= t
    };

    let mut cp = CriticalPath {
        elapsed_ns: elapsed,
        ..CriticalPath::default()
    };
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        let dur = b - a;
        if dur == 0 {
            continue;
        }
        while phase_i < phases.len() && phases[phase_i].1 <= a {
            phase_i += 1;
        }
        let phase = (phase_i < phases.len() && phases[phase_i].0 <= a && a < phases[phase_i].1)
            .then(|| phases[phase_i].2);
        let net = busy_at(&mut cursors[0], classes[0], a);
        let mem = busy_at(&mut cursors[1], classes[1], a);
        let sto = busy_at(&mut cursors[2], classes[2], a);
        let flt = busy_at(&mut cursors[3], classes[3], a);
        // Fault-resilience work outranks every other class: the time is
        // attributable to the injection whatever hardware it kept busy.
        let bucket = if flt {
            &mut cp.retry_degraded_ns
        } else {
            match phase {
                Some(PhaseKind::Io) => {
                    if sto {
                        &mut cp.ost_io_ns
                    } else if mem {
                        &mut cp.memory_wait_ns
                    } else if net {
                        &mut cp.network_shuffle_ns
                    } else {
                        &mut cp.idle_ns
                    }
                }
                Some(PhaseKind::Exchange) => {
                    if net {
                        &mut cp.network_shuffle_ns
                    } else if mem {
                        &mut cp.memory_wait_ns
                    } else if sto {
                        &mut cp.ost_io_ns
                    } else {
                        &mut cp.idle_ns
                    }
                }
                // Outside the critical chain's own spans: other chains may
                // still be working; attribute to the busy class so cross-
                // group interference is visible, storage first (it is the
                // scarce resource in every Table 1 projection).
                None => {
                    if sto {
                        &mut cp.ost_io_ns
                    } else if net {
                        &mut cp.network_shuffle_ns
                    } else if mem {
                        &mut cp.memory_wait_ns
                    } else {
                        &mut cp.idle_ns
                    }
                }
            }
        };
        *bucket += dur;
    }
    cp
}

/// Every round chain, longest wall-clock extent first.
pub fn chain_summaries(model: &TraceModel) -> &[ChainSummary] {
    &model.chains
}

/// Computes [`chain_summaries`] for the index under construction.
pub(crate) fn summarize_chains(model: &TraceModel) -> Vec<ChainSummary> {
    let makespan = model.makespan_ns();
    let mut out: Vec<ChainSummary> = Vec::new();
    for lane in model.lanes(PID_ROUNDS) {
        let spans = model.lane_spans(lane);
        let start_ns = spans[0].start_ns;
        let end_ns = lane.end_ns;
        let mut exchange_ns = 0u64;
        let mut io_ns = 0u64;
        let mut covered = 0u64;
        let mut cursor = start_ns;
        let mut rounds: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for s in spans {
            match model.phase(s) {
                Some(PhaseKind::Exchange) => exchange_ns += s.dur_ns,
                Some(PhaseKind::Io) => io_ns += s.dur_ns,
                None => {}
            }
            // Coverage accumulates on a moving cursor so overlapping
            // phases (double-buffered pipelines) are not double-counted.
            let s_end = s.end_ns();
            if s_end > cursor {
                covered += s_end - cursor.max(s.start_ns);
                cursor = s_end;
            }
            if let Some(r) = model.arg(s, "round") {
                rounds.insert(r);
            } else {
                // Fallback for traces without span metadata: the span
                // name is `r<N>.<phase>`.
                if let Some(prefix) = model.text(s.name).split('.').next() {
                    rounds.insert(prefix);
                }
            }
        }
        let group = (spans.iter().find_map(|s| model.arg(s, "group")))
            .or_else(|| model.lane_name(lane))
            .unwrap_or("?");
        out.push(ChainSummary {
            chain: lane.tid,
            group: group.to_string(),
            start_ns,
            end_ns,
            exchange_ns,
            io_ns,
            idle_ns: (end_ns - start_ns).saturating_sub(covered),
            rounds: rounds.len(),
            critical: end_ns == makespan,
        });
    }
    // Only one chain may be flagged critical even on exact ties.
    if let Some(first_critical) = out.iter().position(|c| c.critical) {
        for c in out.iter_mut().skip(first_critical + 1) {
            c.critical = false;
        }
    }
    out.sort_by_key(|c| std::cmp::Reverse((c.span_ns(), c.chain)));
    out
}

/// Resolve the aggregator rank a resource-lane span attributes to, and
/// whether it is I/O service (`true`) or shuffle traffic (`false`).
/// I/O names are `io.rank<N>`, `io.rank<N>.egress`, or
/// `io.rank<N>.ost<M>` (the aggregator is the first segment); shuffle
/// legs name the aggregator endpoint as `rank<N>` on one side of `->`
/// (destination for writes, source for reads). Read by the index's one
/// per-aggregator accumulation, which the aggregator report and the
/// straggler detector both consume.
pub(crate) fn span_aggregator(name: &str) -> Option<(u64, bool)> {
    let rank_of = |s: &str| -> Option<u64> { s.strip_prefix("rank")?.parse().ok() };
    if let Some(rest) = name.strip_prefix("io.") {
        let first = rest.split('.').next().unwrap_or(rest);
        if let Some(agg) = rank_of(first) {
            return Some((agg, true));
        }
    }
    if let Some((lhs, rhs)) = name.split_once("->") {
        let lhs_rank = lhs.rsplit('.').next().and_then(rank_of);
        if let Some(agg) = rank_of(rhs).or(lhs_rank) {
            return Some((agg, false));
        }
    }
    None
}

/// Per-aggregator attribution reconstructed from the resource lanes,
/// sorted by I/O service time descending.
pub fn aggregator_io(model: &TraceModel) -> Vec<AggIo> {
    let mut out: Vec<AggIo> = model.aggregators.iter().map(|a| a.totals.clone()).collect();
    out.sort_by_key(|a| std::cmp::Reverse((a.io_busy_ns, a.msg_busy_ns, a.agg)));
    out
}

/// Convenience: total per-phase time across *all* chains (the raw
/// attribution sums matching `TimingReport::exchange_time`/`io_time`).
pub fn phase_sums(model: &TraceModel) -> (u64, u64) {
    model
        .chains
        .iter()
        .fold((0, 0), |(x, io), c| (x + c.exchange_ns, io + c.io_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_model::PID_RESOURCES;
    use mcio_obs::Trace;

    /// One chain: exchange [0,400) with NIC busy [0,300) and membus
    /// [300,350), io [400,1000) with OST busy [450,900).
    fn single_chain() -> TraceModel {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "node0.nic_tx");
        tc.name_thread(PID_RESOURCES, 1, "node0.membus");
        tc.name_thread(PID_RESOURCES, 2, "ost0");
        tc.name_thread(PID_ROUNDS, 0, "chain0");
        tc.span("msg.node0->rank1", "node0.nic_tx", PID_RESOURCES, 0, 0, 300);
        tc.span(
            "combine.node0->rank1",
            "node0.membus",
            PID_RESOURCES,
            1,
            300,
            50,
        );
        tc.span("io.rank1", "ost0", PID_RESOURCES, 2, 450, 450);
        tc.span("r0.exchange", "exchange", PID_ROUNDS, 0, 0, 400);
        tc.span("r0.io", "io", PID_ROUNDS, 0, 400, 600);
        TraceModel::new(tc)
    }

    #[test]
    fn attribution_partitions_elapsed_exactly() {
        let model = single_chain();
        let cp = critical_path(&model);
        assert_eq!(cp.elapsed_ns, 1000);
        assert_eq!(cp.attributed_ns(), cp.elapsed_ns);
        // [0,300) nic in exchange; [300,350) membus; [350,400) idle in
        // exchange; [400,450) idle in io; [450,900) ost; [900,1000) idle.
        assert_eq!(cp.network_shuffle_ns, 300);
        assert_eq!(cp.memory_wait_ns, 50);
        assert_eq!(cp.ost_io_ns, 450);
        assert_eq!(cp.idle_ns, 200);
        assert_eq!(cp.bottleneck(), "ost_io");
    }

    #[test]
    fn fault_lanes_claim_the_fifth_bucket_with_top_priority() {
        use crate::trace_model::PID_FAULTS;
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.name_thread(PID_ROUNDS, 0, "chain0");
        tc.name_thread(PID_FAULTS, 3, "ost0.retries");
        tc.span("r0.io", "io", PID_ROUNDS, 0, 0, 1000);
        tc.span("io.rank0", "ost0", PID_RESOURCES, 0, 0, 800);
        // Retry + backoff overlap OST service [100,400): the fault
        // bucket wins there. The descriptive inject marker must not.
        tc.span("attempt1", "retry", PID_FAULTS, 3, 100, 200);
        tc.span("backoff", "backoff", PID_FAULTS, 3, 300, 100);
        tc.span("ost0.slow", "inject", PID_FAULTS, 0, 0, 1000);
        let cp = critical_path(&TraceModel::new(tc));
        assert_eq!(cp.elapsed_ns, 1000);
        assert_eq!(cp.retry_degraded_ns, 300);
        assert_eq!(cp.ost_io_ns, 500);
        assert_eq!(cp.idle_ns, 200);
        assert_eq!(cp.attributed_ns(), cp.elapsed_ns);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let cp = critical_path(&TraceModel::default());
        assert_eq!(cp.elapsed_ns, 0);
        assert_eq!(cp.attributed_ns(), 0);
        assert!(chain_summaries(&TraceModel::default()).is_empty());
        assert!(aggregator_io(&TraceModel::default()).is_empty());
    }

    #[test]
    fn critical_chain_is_the_longest_and_gaps_attribute_to_busy_classes() {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.name_thread(PID_ROUNDS, 0, "chain0");
        tc.name_thread(PID_ROUNDS, 1, "chain1");
        // chain0 finishes early; chain1 defines the makespan but has a
        // gap [500,700) while ost serves chain0's straggler request.
        tc.span("r0.io", "io", PID_ROUNDS, 0, 0, 500);
        tc.span("r0.io", "io", PID_ROUNDS, 1, 0, 500);
        tc.span("r1.io", "io", PID_ROUNDS, 1, 700, 300);
        tc.span("io.rank0", "ost0", PID_RESOURCES, 0, 100, 550);
        tc.span("io.rank2", "ost0", PID_RESOURCES, 0, 700, 300);
        let model = TraceModel::new(tc);
        let cp = critical_path(&model);
        assert_eq!(cp.elapsed_ns, 1000);
        assert_eq!(cp.attributed_ns(), 1000);
        // io phases: [0,100) idle, [100,500) ost, gap [500,650) ost
        // (straggler), [650,700) idle gap, [700,1000) ost.
        assert_eq!(cp.ost_io_ns, 400 + 150 + 300);
        assert_eq!(cp.idle_ns, 100 + 50);
        let chains = chain_summaries(&model);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].chain, 1, "longest chain sorts first");
        assert!(chains[0].critical);
        assert!(!chains[1].critical);
        assert_eq!(chains[0].idle_ns, 200, "inter-round gap is idle");
        assert_eq!(chains[0].rounds, 2);
    }

    #[test]
    fn aggregator_reconstruction_groups_by_rank() {
        let model = single_chain();
        let aggs = aggregator_io(&model);
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].agg, 1);
        assert_eq!(aggs[0].io_busy_ns, 450);
        assert_eq!(aggs[0].io_requests, 1);
        assert_eq!(aggs[0].msgs, 2, "wire + combine both address rank1");
        assert_eq!(aggs[0].msg_busy_ns, 350);
    }

    #[test]
    fn read_style_messages_attribute_to_source_rank() {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "node1.nic_tx");
        tc.span("msg.rank3->node1", "node1.nic_tx", PID_RESOURCES, 0, 0, 100);
        let aggs = aggregator_io(&TraceModel::new(tc));
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].agg, 3);
        assert_eq!(aggs[0].msgs, 1);
    }

    #[test]
    fn phase_sums_accumulate_all_chains() {
        let model = single_chain();
        assert_eq!(phase_sums(&model), (400, 600));
    }
}
