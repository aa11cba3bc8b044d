//! Resilient collective execution under an injected fault plan.
//!
//! [`simulate_faulted`] runs a [`CollectivePlan`] against a
//! [`mcio_faults::FaultSpec`] and makes the execution *survive* it:
//!
//! * **Retry/backoff** — transient per-request OST failures are absorbed
//!   inside the PFS client as bounded, seeded retry chains (see
//!   [`mcio_pfs::Pfs::apply_faults`]); nothing to do here beyond
//!   surfacing the counts.
//! * **Aggregator failover** — an `agg_crash(host, t)` that lands while
//!   rounds using an aggregator on that host are still in flight
//!   triggers a memory-aware re-selection (same scoring as
//!   [`crate::placement`]: largest budget, lowest rank breaks ties) and
//!   re-targets the affected rounds' messages and I/O to the
//!   replacement. The first re-targeted round of each group is gated
//!   behind a fixed re-coordination latency ([`FAILOVER_LATENCY`]).
//! * **Graceful degradation** — when the replacement's buffer (or a
//!   `mem_shock`-shrunk buffer) cannot hold an affected window, the
//!   window is re-rounded: split at exact sub-window boundaries into
//!   extra rounds appended to the group, instead of aborting. Message
//!   extents are split at the same boundaries, so byte conservation and
//!   leaf coverage are preserved exactly ([`CollectivePlan::check`]
//!   still passes on the transformed plan). A shock that leaves an
//!   aggregator no byte is an aggregator loss: it fails over like a
//!   crash instead of re-rounding into one-byte pieces.
//!
//! Crash failover, the controller's demotions and shock re-rounding
//! are three calls of one relocation walk (`Walk::relocate`); a
//! re-round is a relocation onto the aggregator itself.
//!
//! The two-phase baseline gets **no** failover: a crash that hits one of
//! its aggregators mid-collective marks the run `completed = false`
//! (the paper's MC-CIO pipeline is the one with a re-selection path).
//!
//! Fault attribution rides the unified trace as process 3 (`faults`)
//! and the `faults.*` metrics; `mcio-analyze` folds the resilience
//! lanes into a fifth critical-path bucket (`retry/degraded`).
//!
//! # Semantics of a crash
//!
//! `agg_crash` models the death of the *aggregator role* on a host (an
//! OOM-killed aggregation thread, a wedged buffer pool) — the compute
//! ranks on that host keep their data and continue as producers or
//! consumers. Recovery is therefore re-selection plus re-routing, not
//! data reconstruction.
//!
//! # Determinism
//!
//! Both passes are ordinary deterministic DES runs; every stochastic
//! choice (transient failures, backoff jitter) hashes the
//! [`mcio_faults::FaultSpec::seed`]. Two runs with identical inputs
//! produce byte-identical traces and reports.

use crate::adaptive::{
    contended_budget, control, controller_acts, observed_granularity, AdaptiveOutcome,
    AdaptivePolicy,
};
use crate::config::Strategy;
use crate::exec_sim::{
    simulate_inner, Exchange, Observe, Pipeline, RoundWindow, SimRun, TimingReport,
};
use crate::marks::{self, Mark, Moved};
use crate::memory::ProcMemory;
use crate::plan::{
    AggregatorAssignment, CollectivePlan, GroupPlan, IoOp, Message, Round, SyncMode,
};
use crate::tuner::{retune_from_signals, TunedParams};
use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::{NodeId, ProcessMap, Rank};
use mcio_des::{SimDuration, SimTime};
use mcio_faults::FaultSpec;
use mcio_pfs::{Extent, Rw};

/// Fixed failure-detection + re-coordination latency charged before the
/// first re-targeted round of a group may start after a crash. Models
/// heartbeat timeout plus re-selection consensus; deliberately a
/// constant so faulted runs stay byte-deterministic.
pub const FAILOVER_LATENCY: SimDuration = SimDuration::from_micros(500);

/// What a faulted run produced, beyond the plain timing report.
#[derive(Debug)]
pub struct FaultOutcome {
    /// Timing of the (possibly transformed) plan under injection.
    pub report: TimingReport,
    /// Unified Chrome trace (pid 3 = fault lanes) when requested.
    pub trace: Option<String>,
    /// Whether the collective delivered every byte. `false` only when a
    /// structural fault hit a plan with no recovery path (two-phase
    /// under `agg_crash`, or no replacement candidate).
    pub completed: bool,
    /// Aggregator failovers performed.
    pub failovers: usize,
    /// Extra rounds created by graceful degradation.
    pub degraded_rounds: usize,
    /// Total transient-failure retries absorbed by the PFS client.
    pub retries: u64,
    /// Requests whose retry budget was exhausted (completed out-of-band;
    /// see `docs/robustness.md`).
    pub retry_exhausted: u64,
    /// The plan that actually executed: the input plan with failover
    /// re-targeting and degradation re-rounding applied. Feeding it to
    /// [`crate::exec_fn::execute_write`] yields bytes identical to the
    /// fault-free plan whenever `completed` is true.
    pub executed_plan: CollectivePlan,
    /// What the closed-loop controller did (all-zero under
    /// [`AdaptivePolicy::Off`]).
    pub adaptive: AdaptiveOutcome,
}

/// Simulate `plan` under the fault plan `fspec`, surviving what can be
/// survived. `mem` drives replacement-aggregator selection (same budget
/// data the planner used). Equivalent to [`simulate_adaptive`] with
/// [`AdaptivePolicy::Off`]: the static resilience paths only. The
/// wrapper stays because `benchmark/` calls it; it goes once ROADMAP
/// item 1 lets the benchmark spell the policy out, as the callers of
/// [`run_multitenant`](crate::run_multitenant) do.
#[allow(clippy::too_many_arguments)]
pub fn simulate_faulted(
    plan: &CollectivePlan,
    map: &ProcessMap,
    spec: &ClusterSpec,
    mem: &ProcMemory,
    pipeline: Pipeline,
    exchange: Exchange,
    fspec: &FaultSpec,
    obs: Observe<'_>,
) -> FaultOutcome {
    simulate_adaptive(
        plan,
        map,
        spec,
        mem,
        pipeline,
        exchange,
        fspec,
        AdaptivePolicy::Off,
        obs,
    )
}

/// [`simulate_faulted`] with the closed-loop controller enabled: between
/// the probe pass and the final pass, decisions driven by one severity
/// number re-tune the round granularity, demote aggregators off
/// memory-shocked nodes (contention-aware three-tier re-selection), and
/// defer rounds past degraded OST windows when the probe says waiting
/// beats crawling. The controller only acts on the MC-CIO strategy —
/// the two-phase baseline stays static by design, mirroring its lack of
/// a failover path — and only when `fspec` is non-empty, so
/// [`AdaptivePolicy::Off`] (and any run the controller skips) is
/// byte-identical to the static path.
#[allow(clippy::too_many_arguments)]
pub fn simulate_adaptive(
    plan: &CollectivePlan,
    map: &ProcessMap,
    spec: &ClusterSpec,
    mem: &ProcMemory,
    pipeline: Pipeline,
    exchange: Exchange,
    fspec: &FaultSpec,
    policy: AdaptivePolicy,
    obs: Observe<'_>,
) -> FaultOutcome {
    let (crashes, shocks) = (fspec.agg_crashes(), fspec.mem_shocks());
    let adaptive = controller_acts(policy, Some(fspec), plan.strategy);

    // Pass 1: OST + transient faults only, no recovery — yields the
    // absolute windows of every round slot, i.e. which rounds were
    // still in flight when each structural event struck, and the
    // degraded timeline the controller compares against nominal. Pass
    // 2 runs the transformed plan under the full injection.
    let run = |plan: &CollectivePlan, obs: Observe<'_>, marks: Vec<Mark>| {
        simulate_inner(plan, map, spec, pipeline, exchange, obs, Some(fspec), marks)
    };
    let probe_obs = Observe {
        engine: obs.engine,
        ..Observe::default()
    };
    let probe = (!crashes.is_empty() || !shocks.is_empty() || adaptive)
        .then(|| run(plan, probe_obs, Vec::new()));
    let windows = probe.map_or_else(Vec::new, |p| p.windows);
    let walk = Walk {
        plan,
        map,
        mem,
        shocks: &shocks,
        windows: &windows,
    };
    let mut xplan = plan.clone();
    let mut marks = Vec::new();
    let mut completed = true;

    // Crashes, then the controller, then the shocks: an aggregator the
    // controller demotes off a shocked node no longer needs its future
    // rounds split at the shrunken buffer.
    for &(host, at) in &crashes {
        completed &= !walk.relocate(&mut xplan, &mut marks, host, at, |_| Some(Move::Failover));
    }
    let mut severity = 0.0;
    if adaptive {
        let job = (plan, map, pipeline, exchange, obs.engine);
        let replan = |marks: &mut Vec<Mark>, severity: f64| {
            // (1) Re-tune the observed round granularity. The tuned
            // group size caps how coarse adaptively re-split rounds may
            // be (split boundaries stay exact chunk boundaries).
            let gran = observed_granularity(&xplan);
            let base = TunedParams {
                msg_ind: (gran / 8).max(1),
                nah: 1,
                msg_group: gran,
            };
            let tuned = retune_from_signals(base, severity, policy);
            let (old, new) = (base.msg_group, tuned.msg_group);
            if new < old {
                marks.push(Mark::Retune { severity, old, new });
            }
            // (2) Demote aggregators off memory-shocked nodes for rounds
            // that have not started yet; in-flight rounds stay with the
            // shocked aggregator and are re-rounded with the shocks below.
            let cap = new.max(1);
            for &(node, drop_frac, at) in shocks.iter().filter(|s| s.1 > policy.dead_band()) {
                let demote = |_| Some(Move::Demote { drop_frac, cap });
                walk.relocate(&mut xplan, marks, node, at, demote);
            }
        };
        // (3) Deferral past degraded OST windows, after the replan.
        (severity, _) = control(
            policy, fspec, spec, job, &windows, false, &mut marks, replan,
        );
    }
    // The baseline has no re-rounding path: a shock reaches it through
    // the OST/transient channel, unless it leaves an aggregator no byte.
    let two_phase = plan.strategy == Strategy::TwoPhase;
    for &(node, drop_frac, at) in &shocks {
        let shrink = |buffer: u64| match ((buffer as f64) * (1.0 - drop_frac)) as u64 {
            0 => Some(Move::Failover),
            _ if two_phase => None,
            left => Some(Move::Stay(left)),
        };
        completed &= !walk.relocate(&mut xplan, &mut marks, node, at, shrink);
    }

    let (adaptive_out, failovers, degraded_rounds) = marks::tally(&marks, policy, severity);
    let run: SimRun = run(&xplan, obs, marks);
    let retries: u64 = run
        .retry_marks
        .iter()
        .map(|m| u64::from(m.attempts.saturating_sub(1)))
        .sum();
    let retry_exhausted = run.retry_marks.iter().filter(|m| m.exhausted).count() as u64;

    if let Some(reg) = obs.registry {
        let strat = [("strategy", plan.strategy.label())];
        reg.inc("faults.events", &strat, fspec.events.len() as u64);
        reg.inc("faults.failovers", &strat, failovers as u64);
        reg.inc("faults.degraded_rounds", &strat, degraded_rounds as u64);
        let done = if completed { 1.0 } else { 0.0 };
        reg.set_gauge("faults.completed", &strat, done);
        // adaptive.* appears only when the controller ran, so an Off
        // run's metrics document is byte-identical to the static path.
        if adaptive {
            let lab = [
                ("strategy", plan.strategy.label()),
                ("policy", policy.label()),
            ];
            reg.set_gauge("adaptive.severity", &lab, adaptive_out.severity);
            reg.inc("adaptive.deferrals", &lab, adaptive_out.deferrals as u64);
            reg.inc("adaptive.demotions", &lab, adaptive_out.demotions as u64);
            reg.inc("adaptive.resplits", &lab, adaptive_out.resplits as u64);
            let retunes = u64::from(adaptive_out.retuned.is_some());
            reg.inc("adaptive.retunes", &lab, retunes);
        }
    }

    FaultOutcome {
        report: run.report,
        trace: run.trace,
        completed,
        failovers,
        degraded_rounds,
        retries,
        retry_exhausted,
        executed_plan: xplan,
        adaptive: adaptive_out,
    }
}

/// Where an aggregator's rounds go when a relocation reaches it.
#[derive(Clone, Copy)]
enum Move {
    /// The aggregator role is gone (`agg_crash`, or a shock that leaves
    /// it no byte): its rounds still in flight fail over to the
    /// best-budget rank off the node, behind a failover gate.
    Failover,
    /// The controller moves the aggregator off its shocked node for the
    /// rounds that have not started, to the best contended budget,
    /// behind a replan gate; the moved rounds split at `cap` too.
    Demote { drop_frac: f64, cap: u64 },
    /// The aggregator stays with `left` bytes of buffer: its rounds
    /// still in flight re-round onto itself at that limit.
    Stay(u64),
}

/// The relocation walk's inputs: the input plan, where ranks live and
/// how much memory they have, the shocks a demotion's score reads, and
/// the probe's round windows.
struct Walk<'a> {
    plan: &'a CollectivePlan,
    map: &'a ProcessMap,
    mem: &'a ProcMemory,
    shocks: &'a [(usize, f64, SimTime)],
    windows: &'a [RoundWindow],
}

impl Walk<'_> {
    /// Apply an event on `node` at `at` to every aggregator of `xplan`
    /// on that node, group by group: `how(buffer)` says where the
    /// aggregator's rounds go (`None`: nowhere, they stay as they are).
    /// The affected rounds are those the aggregator serves whose probe
    /// window ends after `at` (starts after it, for a demotion); a
    /// replacement is installed, the rounds are retargeted to it and
    /// split at its byte limit. Every move and split is a mark, pushed
    /// in walk order. Returns whether an aggregator whose role is gone
    /// had rounds left and nowhere to go (the two-phase baseline, or
    /// every rank on the down node): the run is stranded.
    fn relocate(
        &self,
        xplan: &mut CollectivePlan,
        marks: &mut Vec<Mark>,
        node: usize,
        at: SimTime,
        how: impl Fn(u64) -> Option<Move>,
    ) -> bool {
        let (rw, down) = (self.plan.rw, NodeId(node));
        let at_ns = at.saturating_since(SimTime::ZERO).as_nanos();
        let mut stranded = false;
        for (gi, g) in xplan.groups.iter_mut().enumerate() {
            // The global chain zips all groups: its slots are keyed `None`.
            let gkey = (self.plan.sync == SyncMode::PerGroup).then_some(gi);
            let on_node: Vec<AggregatorAssignment> = (g.aggregators.iter())
                .filter(|a| self.map.node_of(a.rank) == down)
                .copied()
                .collect();
            for from in on_node {
                let agg = from.rank;
                let Some(how) = how(from.buffer) else {
                    continue;
                };
                let demote = matches!(how, Move::Demote { .. });
                let affected = rounds_after(g, rw, agg, self.windows, gkey, at_ns, demote);
                let Some(&first) = affected.first() else {
                    continue;
                };
                let (repl, limit) = match how {
                    Move::Stay(left) => (agg, left),
                    // No failover path in the baseline (and the
                    // controller never demotes on it).
                    _ if self.plan.strategy == Strategy::TwoPhase => {
                        stranded = true;
                        continue;
                    }
                    Move::Failover | Move::Demote { .. } => {
                        let picked = {
                            let contended = contended_budget(g, self.map, self.shocks);
                            let budget = |_, budget| budget;
                            let score: &dyn Fn(Rank, u64) -> u64 =
                                if demote { &contended } else { &budget };
                            select_replacement(g, self.map, self.mem, down, score)
                        };
                        let Some((repl, buf)) = picked else {
                            stranded |= !demote;
                            continue;
                        };
                        if repl == agg {
                            continue;
                        }
                        install_replacement(g, from, (repl, buf));
                        // The first move to reach a slot gates it.
                        let slot = (gkey, first);
                        let moved = Moved {
                            group: gi,
                            slot,
                            at,
                            gated: !marks::gated(marks, slot),
                        };
                        match how {
                            Move::Demote { drop_frac, cap } => {
                                marks.push(Mark::Demotion {
                                    moved,
                                    node,
                                    drop_frac,
                                    from: agg,
                                    to: repl,
                                });
                                (repl, buf.min(cap).max(1))
                            }
                            _ => {
                                marks.push(Mark::Failover(moved));
                                (repl, buf)
                            }
                        }
                    }
                };
                for r in affected {
                    retarget_round(&mut g.rounds[r], rw, agg, repl);
                    let split = split_oversized(g, r, repl, limit, rw).into_iter();
                    marks.extend(split.map(|appended| Mark::Split {
                        group: gi,
                        slot: (gkey, appended),
                        limit,
                        demoted: demote,
                    }));
                }
            }
        }
        stranded
    }
}

/// Rounds of `g` that involve aggregator `agg` and whose pass-1 window
/// ends after `at_ns` — the round was still in flight, or had not
/// started — or, when `unstarted`, starts after it: the round can still
/// change aggregator cleanly (the adaptive demotion path). Rounds with
/// no recorded window (created by an earlier transform, executed at the
/// end of the chain) count.
fn rounds_after(
    g: &GroupPlan,
    rw: Rw,
    agg: Rank,
    windows: &[RoundWindow],
    gkey: Option<usize>,
    at_ns: u64,
    unstarted: bool,
) -> Vec<usize> {
    (0..g.rounds.len())
        .filter(|&r| {
            let round = &g.rounds[r];
            let involves = round.ios.iter().any(|io| io.agg == agg)
                || round.messages.iter().any(|m| m.agg(rw) == agg);
            if !involves {
                return false;
            }
            let slots = windows
                .iter()
                .filter(|w| w.round == r && (w.group == gkey || w.group.is_none()));
            let edge_ns = match unstarted {
                true => slots.map(|w| w.start_ns).min(),
                false => slots.map(|w| w.end_ns).max(),
            };
            edge_ns.unwrap_or(u64::MAX) > at_ns
        })
        .collect()
}

/// Memory-aware replacement selection, mirroring the planner's placement
/// scoring: prefer a non-aggregator member rank off the `down` node
/// with the best score (lowest rank breaks ties); fall back to an
/// existing aggregator of the group off the node (reusing its buffer);
/// as a last resort *borrow* any off-node rank of the job —
/// node-aligned groups can be confined to the down node, and a
/// borrowed aggregator on a healthy node is what keeps the collective
/// alive. `score(rank, budget)` ranks the candidates: a crash failover
/// scores by the budget itself, an adaptive demotion by
/// [`contended_budget`]. `None` only when every rank of the job lives
/// on the down node.
fn select_replacement(
    g: &GroupPlan,
    map: &ProcessMap,
    mem: &ProcMemory,
    down: NodeId,
    score: impl Fn(Rank, u64) -> u64,
) -> Option<(Rank, u64)> {
    let best = |ranks: &mut dyn Iterator<Item = (Rank, u64)>| {
        ranks.max_by_key(|&(r, budget)| (score(r, budget), std::cmp::Reverse(r.0)))
    };
    let up = |r: &Rank| map.node_of(*r) != down;
    let idle = |r: &Rank| !g.aggregators.iter().any(|a| a.rank == *r);
    let budget = |r: Rank| (r, mem.budget(r));
    let at_least_one = |(r, budget): (Rank, u64)| (r, budget.max(1));
    let fresh = &mut g.ranks.iter().copied().filter(up).filter(idle).map(budget);
    let existing = &mut g.aggregators.iter().map(|a| (a.rank, a.buffer));
    let borrowed = &mut (0..map.nranks()).map(Rank).filter(up).map(budget);
    (best(fresh).map(at_least_one))
        .or_else(|| best(&mut existing.filter(|(r, _)| up(r))))
        .or_else(|| best(borrowed).map(at_least_one))
}

/// Make `repl` an aggregator of `g` in `from`'s place, inheriting its
/// file domain, unless it already is one.
fn install_replacement(g: &mut GroupPlan, from: AggregatorAssignment, (rank, buffer): (Rank, u64)) {
    if !g.aggregators.iter().any(|a| a.rank == rank) {
        g.aggregators.push(AggregatorAssignment {
            rank,
            buffer,
            ..from
        });
    }
}

/// Re-point every aggregator-side endpoint of `round` from `from` to
/// `to`: I/O ops, and the aggregator end of each message (dst on writes,
/// src on reads).
fn retarget_round(round: &mut Round, rw: Rw, from: Rank, to: Rank) {
    for io in &mut round.ios {
        if io.agg == from {
            io.agg = to;
        }
    }
    for end in round.messages.iter_mut().map(|m| m.agg_mut(rw)) {
        if *end == from {
            *end = to;
        }
    }
}

/// Graceful degradation: split every I/O op of round `r` owned by `agg`
/// whose window exceeds `limit` into `limit`-sized chunks. The first
/// chunk replaces the op in place; the rest become new rounds appended
/// to the group, and the matching messages follow them: each message of
/// the op's window is narrowed to a chunk per piece (cut at the same
/// exact boundaries, preserving conservation). Returns the indices of
/// the appended rounds.
fn split_oversized(g: &mut GroupPlan, r: usize, agg: Rank, limit: u64, rw: Rw) -> Vec<usize> {
    let mut appended = Vec::new();
    let nios = g.rounds[r].ios.len();
    for i in 0..nios {
        if g.rounds[r].ios[i].agg != agg || g.rounds[r].ios[i].window.len <= limit {
            continue;
        }
        let io = g.rounds[r].ios[i].clone();
        let end = io.window.end();
        let chunks: Vec<Extent> = (io.window.offset..end)
            .step_by(limit as usize)
            .map(|off| Extent::new(off, limit.min(end - off)))
            .collect();
        // Chunk 0 shrinks the op in place.
        g.rounds[r].ios[i] = IoOp {
            agg,
            window: chunks[0],
            extents: clip_extents(&io.extents, &chunks[0]),
        };
        // Later chunks each get their own appended round; the messages
        // carrying bytes of this window move their pieces with them. A
        // message belongs to one window, so the aggregator's messages of
        // its other windows, if any, are left as they are.
        let mut moved: Vec<Vec<Message>> = vec![Vec::new(); chunks.len() - 1];
        let messages = std::mem::take(&mut g.rounds[r].messages);
        g.rounds[r].messages = messages
            .into_iter()
            .filter_map(|m| {
                if m.agg(rw) != agg || m.extents.within(&io.window).is_none() {
                    return Some(m);
                }
                for (chunk, pieces) in chunks[1..].iter().zip(&mut moved) {
                    if let Some(extents) = m.extents.within(chunk) {
                        pieces.push(Message { extents, ..m });
                    }
                }
                let extents = m.extents.within(&chunks[0])?;
                Some(Message { extents, ..m })
            })
            .collect();
        for (chunk, messages) in chunks[1..].iter().zip(moved) {
            g.rounds.push(Round {
                messages,
                ios: vec![IoOp {
                    agg,
                    window: *chunk,
                    extents: clip_extents(&io.extents, chunk),
                }],
            });
            appended.push(g.rounds.len() - 1);
        }
    }
    appended
}

/// The pieces of `extents` inside `window`, clipped at its boundaries.
fn clip_extents(extents: &[Extent], window: &Extent) -> Vec<Extent> {
    extents.iter().filter_map(|e| e.intersect(window)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollectiveConfig;
    use crate::exec_fn;
    use crate::request::CollectiveRequest;
    use crate::{mcio, twophase};
    use mcio_cluster::Placement;
    use mcio_pfs::SparseFile;

    const MIB: u64 = 1 << 20;

    fn serial_req(rw: Rw, nranks: usize, chunk: u64) -> CollectiveRequest {
        CollectiveRequest::new(
            rw,
            (0..nranks as u64)
                .map(|r| vec![Extent::new(r * chunk, chunk)])
                .collect(),
        )
    }

    fn setup(
        nranks: usize,
        ppn: usize,
        chunk: u64,
    ) -> (
        CollectiveRequest,
        ProcessMap,
        ProcMemory,
        CollectiveConfig,
        ClusterSpec,
    ) {
        let req = serial_req(Rw::Write, nranks, chunk);
        let map = ProcessMap::new(nranks, ppn, Placement::Block);
        let mem = ProcMemory::uniform(nranks, chunk);
        let cfg = CollectiveConfig::with_buffer(chunk);
        let spec = ClusterSpec::small(nranks / ppn, 2);
        (req, map, mem, cfg, spec)
    }

    fn written(plan: &CollectivePlan, len: u64) -> Vec<u8> {
        let mut file = SparseFile::new();
        exec_fn::execute_write(plan, &mut file).expect("plan executes");
        file.read_vec(0, len as usize)
    }

    #[test]
    fn fault_free_spec_matches_plain_simulation() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let base = crate::exec_sim::simulate(&plan, &map, &spec);
        let out = simulate_faulted(
            &plan,
            &map,
            &spec,
            &mem,
            Pipeline::Serial,
            Exchange::Direct,
            &FaultSpec::none(),
            Observe::default(),
        );
        assert!(out.completed);
        assert_eq!(out.report.elapsed, base.elapsed);
        assert_eq!(out.failovers, 0);
        assert_eq!(out.degraded_rounds, 0);
    }

    #[test]
    fn agg_crash_fails_over_and_preserves_bytes() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let fault = FaultSpec::parse("seed 7\nagg_crash(0, 1ms)").unwrap();
        let out = simulate_faulted(
            &plan,
            &map,
            &spec,
            &mem,
            Pipeline::Serial,
            Exchange::Direct,
            &fault,
            Observe::default(),
        );
        assert!(out.completed, "MC-CIO must survive an aggregator crash");
        assert!(out.failovers > 0, "crash at t=1ms must trigger a failover");
        let total = 8 * 2 * MIB;
        assert_eq!(
            written(&out.executed_plan, total),
            written(&plan, total),
            "failover must not change the bytes written"
        );
        assert!(
            out.report.elapsed >= crate::exec_sim::simulate(&plan, &map, &spec).elapsed,
            "failover cannot make the run faster"
        );
    }

    #[test]
    fn two_aggregators_lost_together_move_twice_behind_one_gate() {
        // Both ranks of node 0 aggregate the one group, so a crash there
        // at zero moves two aggregators whose first affected round is
        // the same slot: two failovers, one gate, one failover span.
        let (req, map, mem, _, spec) = setup(8, 2, 8 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &CollectiveConfig::with_buffer(2 * MIB));
        let on_node0 = |g: &GroupPlan| {
            let aggs = g.aggregators.iter();
            aggs.filter(|a| map.node_of(a.rank) == NodeId(0)).count()
        };
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(on_node0(&plan.groups[0]), 2);
        let fault = FaultSpec::parse("seed 7\nagg_crash(0, 0ns)").unwrap();
        let (pipeline, exchange) = (Pipeline::Serial, Exchange::Direct);
        let obs = Observe {
            trace: true,
            ..Observe::default()
        };
        let out = simulate_faulted(&plan, &map, &spec, &mem, pipeline, exchange, &fault, obs);
        assert!(out.completed);
        assert_eq!(out.failovers, 2);
        assert_eq!(out.degraded_rounds, 0);
        // The executed plan on its own lowers to every activity of the
        // faulted run but the one gate holding the shared slot.
        let ungated = crate::exec_sim::simulate(&out.executed_plan, &map, &spec);
        assert_eq!(out.report.activities, ungated.activities + 1);
        let trace = mcio_obs::Trace::from_chrome_json(&out.trace.unwrap()).unwrap();
        let failover_spans: Vec<&str> = (trace.spans.iter())
            .filter(|s| s.pid == mcio_obs::catalogue::PID_FAULTS && s.tid == 1)
            .map(|s| trace.text(s.name))
            .collect();
        assert_eq!(failover_spans, ["failover.g0.r0"]);
        out.executed_plan
            .check(&req)
            .expect("failover preserves plan invariants");
        let total = 8 * 8 * MIB;
        assert_eq!(written(&out.executed_plan, total), written(&plan, total));
    }

    #[test]
    fn two_phase_does_not_survive_agg_crash() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = twophase::plan(&req, &map, &mem, &cfg);
        let fault = FaultSpec::parse("seed 7\nagg_crash(0, 1ms)").unwrap();
        let out = simulate_faulted(
            &plan,
            &map,
            &spec,
            &mem,
            Pipeline::Serial,
            Exchange::Direct,
            &fault,
            Observe::default(),
        );
        assert!(!out.completed, "baseline has no failover path");
        assert_eq!(out.failovers, 0);
    }

    #[test]
    fn crash_after_completion_is_harmless() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let fault = FaultSpec::parse("seed 7\nagg_crash(0, 1000s)").unwrap();
        let out = simulate_faulted(
            &plan,
            &map,
            &spec,
            &mem,
            Pipeline::Serial,
            Exchange::Direct,
            &fault,
            Observe::default(),
        );
        assert!(out.completed);
        assert_eq!(out.failovers, 0);
        assert_eq!(
            out.report.elapsed,
            crate::exec_sim::simulate(&plan, &map, &spec).elapsed
        );
    }

    #[test]
    fn mem_shock_degrades_rounds_and_preserves_bytes() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let fault = FaultSpec::parse("seed 7\nmem_shock(0, 0.75, 0ns)").unwrap();
        let out = simulate_faulted(
            &plan,
            &map,
            &spec,
            &mem,
            Pipeline::Serial,
            Exchange::Direct,
            &fault,
            Observe::default(),
        );
        assert!(out.completed);
        let total = 8 * 2 * MIB;
        assert_eq!(
            written(&out.executed_plan, total),
            written(&plan, total),
            "degradation must not change the bytes written"
        );
        if out.degraded_rounds > 0 {
            assert!(
                out.executed_plan.max_rounds() > plan.max_rounds(),
                "degradation re-rounds by appending rounds"
            );
        }
    }

    #[test]
    fn shock_that_leaves_no_byte_is_a_crash() {
        // `(buffer * (1 - drop)) as u64` is 0 at drop 1 and within
        // 1/buffer of it: the aggregator has no memory left, so its
        // rounds fail over instead of re-rounding into one-byte pieces.
        let chunk = 4096;
        let (req, map, mem, cfg, spec) = setup(8, 2, chunk);
        let mc = mcio::plan(&req, &map, &mem, &cfg);
        let tp = twophase::plan(&req, &map, &mem, &cfg);
        let rounds: usize = mc.groups.iter().map(|g| g.rounds.len()).sum();
        for drop in ["1.0", "0.9999999"] {
            let fault = FaultSpec::parse(&format!("seed 7\nmem_shock(0, {drop}, 0ns)")).unwrap();
            let run = |plan| {
                let (pipeline, exchange) = (Pipeline::Serial, Exchange::Direct);
                let obs = Observe::default();
                simulate_faulted(plan, &map, &spec, &mem, pipeline, exchange, &fault, obs)
            };
            let out = run(&mc);
            assert!(out.completed, "drop {drop}");
            assert!(out.failovers >= 1, "drop {drop}: no failover");
            assert!(
                out.degraded_rounds <= rounds,
                "drop {drop}: {} degraded rounds from {rounds}",
                out.degraded_rounds
            );
            out.executed_plan
                .check(&req)
                .expect("failover preserves plan invariants");
            assert_eq!(
                written(&out.executed_plan, 8 * chunk),
                written(&mc, 8 * chunk),
                "drop {drop}: failover must not change the bytes written"
            );
            assert!(
                !run(&tp).completed,
                "drop {drop}: baseline has no failover path"
            );
        }
    }

    #[test]
    fn transformed_plan_still_checks() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        plan.check(&req).expect("input plan is sound");
        let fault = FaultSpec::parse("seed 3\nagg_crash(0, 1ms)\nmem_shock(1, 0.5, 2ms)").unwrap();
        let out = simulate_faulted(
            &plan,
            &map,
            &spec,
            &mem,
            Pipeline::Serial,
            Exchange::Direct,
            &fault,
            Observe::default(),
        );
        assert!(out.completed);
        out.executed_plan
            .check(&req)
            .expect("failover + degradation preserve plan invariants");
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let text =
            "seed 11\nost_slow(0, 4.0, 0ns..5ms)\nreq_transient_fail(0.3, 99)\nagg_crash(0, 1ms)";
        let run = || {
            let fault = FaultSpec::parse(text).unwrap();
            simulate_faulted(
                &plan,
                &map,
                &spec,
                &mem,
                Pipeline::Serial,
                Exchange::Direct,
                &fault,
                Observe {
                    trace: true,
                    ..Observe::default()
                },
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.report.elapsed, b.report.elapsed);
        assert_eq!(a.trace, b.trace, "traces must be byte-identical");
        assert_eq!(a.retries, b.retries);
    }

    #[test]
    fn retries_surface_in_outcome() {
        let (req, map, mem, cfg, spec) = setup(8, 2, 2 * MIB);
        let plan = mcio::plan(&req, &map, &mem, &cfg);
        let fault = FaultSpec::parse("seed 5\nreq_transient_fail(0.9, 1)").unwrap();
        let out = simulate_faulted(
            &plan,
            &map,
            &spec,
            &mem,
            Pipeline::Serial,
            Exchange::Direct,
            &fault,
            Observe::default(),
        );
        assert!(out.completed);
        assert!(out.retries > 0, "p=0.9 must produce retries");
    }
}
