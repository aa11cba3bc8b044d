//! The collective plan: the pure-data output of both planners.
//!
//! A plan says exactly which bytes move where, in which round, and who
//! writes/reads them — nothing about *how long* that takes (the timing
//! executor's job) or the actual byte values (the functional executors').
//! Keeping the plan declarative lets the three executors cross-check one
//! another and lets tests state invariants ("every requested byte is
//! aggregated exactly once") directly against the data.

use crate::config::Strategy;
use crate::request::{CollectiveRequest, Extents};
use mcio_cluster::{ProcessMap, Rank};
use mcio_des::OnlineStats;
use mcio_pfs::extent::{
    gallop, is_sorted_disjoint, overlaps_sorted, subtract, total_bytes, union_sorted,
};
use mcio_pfs::{Extent, Rw};
use std::borrow::Cow;

/// One rank-to-rank transfer: the data of a set of file extents, packed
/// into a single message (as ROMIO packs all pieces for a peer into one
/// `alltoallv` buffer).
///
/// For a **write** plan, `src` is the requesting rank and `dst` the
/// aggregator; for a **read** plan, `src` is the aggregator and `dst` the
/// requesting rank — [`Rw::flow`] of `(requester, aggregator)`, and
/// [`Message::agg`] is the one place that spells it out. `extents`
/// identify which bytes move, in offset order: a view of the requester's
/// own list, which the message shares rather than copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// The file extents whose data this message carries.
    pub extents: Extents,
}

impl Message {
    /// The message carrying `extents` between `requester` and its
    /// aggregator `agg` in a plan of direction `rw`.
    pub fn new(rw: Rw, requester: Rank, agg: Rank, extents: Extents) -> Self {
        let (src, dst) = rw.flow((requester, agg));
        Message { src, dst, extents }
    }

    /// The aggregator end of the message in a plan of direction `rw`.
    pub fn agg(&self, rw: Rw) -> Rank {
        rw.flow((self.src, self.dst)).1
    }

    /// [`Message::agg`], for re-pointing the message at another
    /// aggregator.
    pub fn agg_mut(&mut self, rw: Rw) -> &mut Rank {
        rw.flow((&mut self.src, &mut self.dst)).1
    }

    /// Payload size of the message, in `O(1)`.
    pub fn bytes(&self) -> u64 {
        self.extents.bytes()
    }
}

/// One aggregator's file-system access in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoOp {
    /// The aggregator performing the access.
    pub agg: Rank,
    /// The round window: the `buffer`-sized slice of the aggregator's
    /// file domain this round covers.
    pub window: Extent,
    /// The requested extents inside the window, coalesced — each becomes
    /// one contiguous PFS request.
    pub extents: Vec<Extent>,
}

impl IoOp {
    /// Bytes this access moves.
    pub fn bytes(&self) -> u64 {
        total_bytes(&self.extents)
    }
}

/// One synchronized exchange+I/O step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Round {
    /// Data shuffle messages of this round.
    pub messages: Vec<Message>,
    /// File accesses of this round.
    pub ios: Vec<IoOp>,
}

impl Round {
    /// True when nothing happens this round.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty() && self.ios.is_empty()
    }

    /// Total shuffled bytes this round.
    pub fn message_bytes(&self) -> u64 {
        self.messages.iter().map(Message::bytes).sum()
    }

    /// Total file-system bytes this round.
    pub fn io_bytes(&self) -> u64 {
        self.ios.iter().map(IoOp::bytes).sum()
    }
}

/// An aggregator with its file domain and buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregatorAssignment {
    /// The process acting as aggregator.
    pub rank: Rank,
    /// The contiguous file domain it owns.
    pub fd: Extent,
    /// Its aggregation buffer in bytes (bounds the round window size).
    pub buffer: u64,
    /// Requested bytes inside the file domain.
    pub data_bytes: u64,
}

impl AggregatorAssignment {
    /// Rounds this aggregator needs: `ceil(fd.len / buffer)`. Windows
    /// tile the whole file domain, holes included; a window with no
    /// requested byte in it simply gets no I/O op.
    pub fn rounds(&self) -> usize {
        if self.fd.is_empty() || self.buffer == 0 {
            0
        } else {
            self.fd.len.div_ceil(self.buffer) as usize
        }
    }
}

/// The plan of one aggregation group (the baseline is a single group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlan {
    /// Ranks belonging to the group (senders/receivers).
    pub ranks: Vec<Rank>,
    /// Aggregators of the group, in file-domain order.
    pub aggregators: Vec<AggregatorAssignment>,
    /// Synchronized rounds.
    pub rounds: Vec<Round>,
}

impl GroupPlan {
    /// Total bytes this group's aggregators move to/from the PFS.
    pub fn io_bytes(&self) -> u64 {
        self.rounds.iter().map(Round::io_bytes).sum()
    }

    /// Total shuffled bytes in this group.
    pub fn message_bytes(&self) -> u64 {
        self.rounds.iter().map(Round::message_bytes).sum()
    }
}

/// Synchronization scope between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Every rank synchronizes every round (ROMIO's `alltoallv` per
    /// round across the whole communicator).
    Global,
    /// Rounds synchronize only within each aggregation group (the
    /// memory-conscious design: groups proceed independently).
    PerGroup,
}

/// Decision counters from the planning pipeline: how the group division,
/// partition tree, and placement loop arrived at the final aggregator
/// layout. Purely diagnostic — two plans that differ only in `diag`
/// execute identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanDiag {
    /// Partition-tree leaves built across all groups *before* placement
    /// started remerging (the intended file-domain count).
    pub ptree_leaves: usize,
    /// Domains remerged into a neighbor during placement (§3.2).
    pub remerges: usize,
    /// Placements that went through after relaxing `Mem_min`/`N_ah`.
    pub relaxations: usize,
}

/// A complete collective plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectivePlan {
    /// Read or write.
    pub rw: Rw,
    /// Which planner produced it.
    pub strategy: Strategy,
    /// Round synchronization scope.
    pub sync: SyncMode,
    /// Aggregation groups (baseline: exactly one).
    pub groups: Vec<GroupPlan>,
    /// Planner decision counters.
    pub diag: PlanDiag,
}

impl CollectivePlan {
    /// All aggregator assignments across groups.
    pub fn aggregators(&self) -> impl Iterator<Item = &AggregatorAssignment> {
        self.groups.iter().flat_map(|g| g.aggregators.iter())
    }

    /// Number of aggregators.
    pub fn naggs(&self) -> usize {
        self.groups.iter().map(|g| g.aggregators.len()).sum()
    }

    /// The longest round sequence of any group (the global round count
    /// under [`SyncMode::Global`]).
    pub fn max_rounds(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.rounds.len())
            .max()
            .unwrap_or(0)
    }

    /// Summary statistics (optionally topology-aware).
    pub fn stats(&self, map: Option<&ProcessMap>) -> PlanStats {
        let mut message_bytes = 0u64;
        let mut intra_node_bytes = 0u64;
        let mut messages = 0usize;
        let mut io_requests = 0usize;
        let mut io_bytes = 0u64;
        let mut peak_window = 0u64;
        for g in &self.groups {
            for r in &g.rounds {
                messages += r.messages.len();
                for m in &r.messages {
                    message_bytes += m.bytes();
                    if let Some(map) = map {
                        if map.node_of(m.src) == map.node_of(m.dst) {
                            intra_node_bytes += m.bytes();
                        }
                    }
                }
                for io in &r.ios {
                    io_requests += io.extents.len();
                    io_bytes += io.bytes();
                    peak_window = peak_window.max(io.bytes());
                }
            }
        }
        let buffers: OnlineStats = self.aggregators().map(|a| a.buffer as f64).collect();
        PlanStats {
            ngroups: self.groups.len(),
            naggs: self.naggs(),
            max_rounds: self.max_rounds(),
            messages,
            message_bytes,
            intra_node_bytes,
            io_requests,
            io_bytes,
            peak_window,
            buffer_stats: buffers,
        }
    }

    /// Record the planner's decision counters and shape statistics into
    /// a metrics registry (`plan.*` namespace).
    pub fn record_into(&self, reg: &mcio_obs::Registry) {
        let s = self.stats(None);
        let strat = [("strategy", self.strategy.label())];
        reg.set_gauge("plan.groups", &strat, s.ngroups as f64);
        reg.set_gauge("plan.aggregators", &strat, s.naggs as f64);
        reg.set_gauge("plan.rounds", &strat, s.max_rounds as f64);
        reg.inc("plan.ptree_leaves", &strat, self.diag.ptree_leaves as u64);
        reg.inc("plan.remerges", &strat, self.diag.remerges as u64);
        reg.inc("plan.relaxations", &strat, self.diag.relaxations as u64);
        reg.inc("plan.messages", &strat, s.messages as u64);
        reg.inc("plan.message_bytes", &strat, s.message_bytes);
        reg.inc("plan.io_requests", &strat, s.io_requests as u64);
        reg.inc("plan.io_bytes", &strat, s.io_bytes);
        reg.max_gauge("plan.peak_window", &strat, s.peak_window as f64);
        reg.set_gauge("plan.buffer_cv", &strat, s.buffer_stats.cv());
    }

    /// Check structural invariants against the request this plan was
    /// built from. Returns a description of the first violation.
    ///
    /// Invariants:
    /// 1. The union of all I/O extents equals the request's coverage
    ///    (every requested byte hits the file system exactly once — I/O
    ///    extents never overlap).
    /// 2. In every round, each aggregator's message bytes match the data
    ///    the group's requesting ranks hold in its window, less the bytes
    ///    an earlier group's ranks request (a byte requested in two
    ///    groups is aggregated by the first).
    /// 3. Round windows never exceed the aggregator's buffer.
    /// 4. Message endpoints agree with the plan direction.
    pub fn check(&self, req: &CollectiveRequest) -> Result<(), String> {
        // (1) Coverage. `IoOp::extents` is coalesced, so each op's list
        // is a sorted run; one that is not is reported rather than fed
        // to the merge.
        let mut io_runs: Vec<&[Extent]> = Vec::new();
        for (gi, g) in self.groups.iter().enumerate() {
            for (ri, r) in g.rounds.iter().enumerate() {
                for io in &r.ios {
                    if !is_sorted_disjoint(&io.extents) {
                        return Err(format!(
                            "group {gi} round {ri} agg {}: I/O extents overlap or are out of order: {:?}",
                            io.agg, io.extents
                        ));
                    }
                    io_runs.push(&io.extents);
                }
            }
        }
        let io_total: u64 = io_runs.iter().map(|run| total_bytes(run)).sum();
        let io_cover = union_sorted(&io_runs);
        let req_cover = req.coverage();
        if io_cover != req_cover {
            return Err(format!(
                "I/O coverage mismatch: plan covers {io_cover:?}, request covers {req_cover:?}"
            ));
        }
        let covered: u64 = io_cover.iter().map(|e| e.len).sum();
        if io_total != covered {
            return Err(format!(
                "I/O extents overlap: {io_total} bytes issued for {covered} covered"
            ));
        }

        let (mut buffers, mut ops, mut delivered) = (Vec::new(), Vec::new(), Vec::new());
        // The bytes the ranks of the groups so far request.
        let mut claimed: Vec<Extent> = Vec::new();
        for (gi, g) in self.groups.iter().enumerate() {
            // The group's aggregators, indexed once by rank; a stable sort
            // keeps a rank assigned twice at its first buffer, as a scan
            // of the list would find.
            buffers.clear();
            buffers.extend(g.aggregators.iter().map(|a| (a.rank, a.buffer)));
            buffers.sort_by_key(|&(rank, _)| rank);
            let buffer_of = |agg: Rank| {
                let i = buffers.partition_point(|&(rank, _)| rank < agg);
                buffers
                    .get(i)
                    .filter(|&&(rank, _)| rank == agg)
                    .map(|&(_, b)| b)
            };
            let mut requested = requested_per_window(g, req, &claimed).into_iter();
            for (ri, r) in g.rounds.iter().enumerate() {
                // (2) Message conservation per aggregator window. Only
                // the group's member ranks shuffle through its
                // aggregators — other groups' data in the same offset
                // range belongs to *their* windows.
                delivered_per_window(r, self.rw, &mut ops, &mut delivered);
                for (io, &got) in r.ios.iter().zip(&delivered) {
                    let expect = requested.next().unwrap_or_default();
                    let agg = io.agg;
                    if got != expect {
                        return Err(format!(
                            "group {gi} round {ri} agg {agg}: {got} message bytes for {expect} requested in window {}",
                            io.window
                        ));
                    }
                    // (3) Window fits the buffer.
                    let buffer = buffer_of(agg)
                        .ok_or_else(|| format!("group {gi}: io by unassigned aggregator {agg}"))?;
                    if io.window.len > buffer {
                        return Err(format!(
                            "group {gi} round {ri} agg {agg}: window {} exceeds buffer {buffer}",
                            io.window
                        ));
                    }
                }
                // (4) Direction sanity: aggregator end of each message is
                // an assigned aggregator of this group.
                for m in &r.messages {
                    let agg_end = m.agg(self.rw);
                    if buffer_of(agg_end).is_none() {
                        return Err(format!(
                            "group {gi} round {ri}: message endpoint {agg_end} is not an aggregator"
                        ));
                    }
                }
            }
            if gi + 1 < self.groups.len() {
                let runs: Vec<&[Extent]> = g
                    .ranks
                    .iter()
                    .map(|r| &req.ranks[r.0].extents[..])
                    .collect();
                claimed = union_sorted(&[&claimed, &union_sorted(&runs)]);
            }
        }
        Ok(())
    }
}

/// The bytes `g`'s member ranks request outside `claimed` inside each
/// I/O window of its rounds, in round order and op order within a round.
/// A member's run is cut down to what `claimed` leaves of it only when
/// the two overlap. The window edges are sorted once, every member's run
/// is walked over them once — a cursor that gallops to each extent and
/// splits it at the edges it crosses — and a window's bytes are the
/// difference of two prefix sums at its edges: no search per (rank,
/// window), which is quadratic on a two-phase plan's one group of every
/// rank and every aggregator.
fn requested_per_window(g: &GroupPlan, req: &CollectiveRequest, claimed: &[Extent]) -> Vec<u64> {
    let windows = || {
        g.rounds
            .iter()
            .flat_map(|r| r.ios.iter().map(|io| io.window))
    };
    let mut edges: Vec<u64> = windows().flat_map(|w| [w.offset, w.end()]).collect();
    edges.sort_unstable();
    edges.dedup();
    let Some(&first) = edges.first() else {
        return Vec::new();
    };
    // `below[k]`: requested bytes in `[edges[k], edges[k + 1])`, then,
    // summed, in `[first, edges[k])`.
    let mut below = vec![0u64; edges.len()];
    for &rank in &g.ranks {
        let run = &req.ranks[rank.0].extents;
        let run = if overlaps_sorted(run, claimed) {
            Cow::Owned(subtract(run, claimed))
        } else {
            Cow::Borrowed(&run[..])
        };
        // Edges at or before the walk's position.
        let mut k = 0;
        for e in run.iter() {
            let mut at = e.offset.max(first);
            k += gallop(&edges[k..], |&edge| edge <= at);
            while at < e.end() && k < edges.len() {
                let to = e.end().min(edges[k]);
                below[k - 1] += to - at;
                at = to;
                k += usize::from(to == edges[k]);
            }
        }
    }
    let mut sum = 0;
    for b in &mut below {
        (*b, sum) = (sum, sum + *b);
    }
    let at = |pos: u64| below[edges.partition_point(|&edge| edge < pos)];
    windows().map(|w| at(w.end()) - at(w.offset)).collect()
}

/// Fill `out` with the message bytes each I/O op of `r` receives (a
/// write) or sends (a read) inside its window, in op order: one pass over
/// the messages, each matched to its aggregator's ops by a search in
/// `ops`, which this fills.
fn delivered_per_window(r: &Round, rw: Rw, ops: &mut Vec<(Rank, usize)>, out: &mut Vec<u64>) {
    ops.clear();
    ops.extend(r.ios.iter().enumerate().map(|(i, io)| (io.agg, i)));
    ops.sort_unstable();
    out.clear();
    out.resize(r.ios.len(), 0);
    for m in &r.messages {
        let agg = m.agg(rw);
        let from = ops.partition_point(|&(a, _)| a < agg);
        for &(_, i) in ops[from..].iter().take_while(|&&(a, _)| a == agg) {
            let w = r.ios[i].window;
            out[i] += m
                .extents
                .iter()
                .filter(|e| w.contains_extent(e))
                .map(|e| e.len)
                .sum::<u64>();
        }
    }
}

/// Summary numbers of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStats {
    /// Aggregation groups.
    pub ngroups: usize,
    /// Aggregators.
    pub naggs: usize,
    /// Longest per-group round sequence.
    pub max_rounds: usize,
    /// Shuffle messages.
    pub messages: usize,
    /// Shuffled bytes.
    pub message_bytes: u64,
    /// Shuffled bytes that stayed on-node (0 unless a topology was given).
    pub intra_node_bytes: u64,
    /// Contiguous PFS requests.
    pub io_requests: usize,
    /// PFS bytes.
    pub io_bytes: u64,
    /// Largest single-round aggregation buffer actually filled — the
    /// memory high-water mark per aggregator.
    pub peak_window: u64,
    /// Distribution of aggregator buffer sizes (its
    /// [`OnlineStats::cv`] is the paper's "memory consumption variance
    /// among aggregators").
    pub buffer_stats: OnlineStats,
}

impl PlanStats {
    /// Fraction of shuffle traffic that stayed on-node.
    pub fn intra_node_fraction(&self) -> f64 {
        if self.message_bytes == 0 {
            0.0
        } else {
            self.intra_node_bytes as f64 / self.message_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The view of a one-extent run, whole.
    fn whole(e: Extent) -> Extents {
        Extents::new(&vec![e].into(), &e).expect("a byte")
    }

    fn simple_plan() -> (CollectivePlan, CollectiveRequest) {
        // Two ranks write [0,10) and [10,20); one aggregator (rank 0),
        // buffer 20, one round.
        let req = CollectiveRequest::new(
            Rw::Write,
            vec![vec![Extent::new(0, 10)], vec![Extent::new(10, 10)]],
        );
        let window = Extent::new(0, 20);
        let plan = CollectivePlan {
            rw: Rw::Write,
            strategy: Strategy::TwoPhase,
            sync: SyncMode::Global,
            diag: PlanDiag::default(),
            groups: vec![GroupPlan {
                ranks: vec![Rank(0), Rank(1)],
                aggregators: vec![AggregatorAssignment {
                    rank: Rank(0),
                    fd: window,
                    buffer: 20,
                    data_bytes: 20,
                }],
                rounds: vec![Round {
                    messages: vec![
                        Message {
                            src: Rank(0),
                            dst: Rank(0),
                            extents: whole(Extent::new(0, 10)),
                        },
                        Message {
                            src: Rank(1),
                            dst: Rank(0),
                            extents: whole(Extent::new(10, 10)),
                        },
                    ],
                    ios: vec![IoOp {
                        agg: Rank(0),
                        window,
                        extents: vec![window],
                    }],
                }],
            }],
        };
        (plan, req)
    }

    #[test]
    fn valid_plan_checks_out() {
        let (plan, req) = simple_plan();
        assert_eq!(plan.check(&req), Ok(()));
        assert_eq!(plan.naggs(), 1);
        assert_eq!(plan.max_rounds(), 1);
    }

    #[test]
    fn stats_accounting() {
        let (plan, _req) = simple_plan();
        let stats = plan.stats(None);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.message_bytes, 20);
        assert_eq!(stats.io_requests, 1);
        assert_eq!(stats.io_bytes, 20);
        assert_eq!(stats.peak_window, 20);
        assert_eq!(stats.buffer_stats.mean(), 20.0);
    }

    #[test]
    fn intra_node_fraction_with_topology() {
        let (plan, _req) = simple_plan();
        // Both ranks on one node: everything intra-node.
        let map = ProcessMap::new(2, 1, mcio_cluster::Placement::Block);
        let stats = plan.stats(Some(&map));
        assert_eq!(stats.intra_node_bytes, 20);
        assert!((stats.intra_node_fraction() - 1.0).abs() < 1e-12);
        // Two nodes: nothing intra-node except rank 0's self-message.
        let map = ProcessMap::new(2, 2, mcio_cluster::Placement::Block);
        let stats = plan.stats(Some(&map));
        assert_eq!(stats.intra_node_bytes, 10);
    }

    #[test]
    fn check_catches_missing_coverage() {
        let (mut plan, req) = simple_plan();
        plan.groups[0].rounds[0].ios[0].extents = vec![Extent::new(0, 10)];
        assert!(plan.check(&req).unwrap_err().contains("coverage"));
    }

    #[test]
    fn check_catches_overlapping_io() {
        let (mut plan, req) = simple_plan();
        plan.groups[0].rounds[0].ios[0].extents = vec![Extent::new(0, 15), Extent::new(10, 10)];
        assert!(plan.check(&req).unwrap_err().contains("overlap"));
    }

    #[test]
    fn check_catches_lost_message() {
        let (mut plan, req) = simple_plan();
        plan.groups[0].rounds[0].messages.pop();
        assert!(plan.check(&req).unwrap_err().contains("message bytes"));
    }

    #[test]
    fn check_catches_buffer_overflow() {
        let (mut plan, req) = simple_plan();
        plan.groups[0].aggregators[0].buffer = 10;
        assert!(plan.check(&req).unwrap_err().contains("exceeds buffer"));
    }

    #[test]
    fn check_catches_rogue_endpoint() {
        let (mut plan, req) = simple_plan();
        plan.groups[0].rounds[0].messages[1].dst = Rank(1);
        let err = plan.check(&req).unwrap_err();
        assert!(
            err.contains("not an aggregator") || err.contains("message bytes"),
            "{err}"
        );
    }

    /// A message is a row: two ranks and a view of the requester's run,
    /// with no heap payload of its own.
    #[test]
    fn message_fits_56_bytes() {
        assert!(std::mem::size_of::<Message>() <= 56);
    }

    #[test]
    fn aggregator_rounds() {
        let a = AggregatorAssignment {
            rank: Rank(0),
            fd: Extent::new(0, 100),
            buffer: 30,
            data_bytes: 100,
        };
        assert_eq!(a.rounds(), 4);
        let empty = AggregatorAssignment {
            rank: Rank(0),
            fd: Extent::EMPTY,
            buffer: 30,
            data_bytes: 0,
        };
        assert_eq!(empty.rounds(), 0);
    }
}
