//! One row per fault or controller decision about a job's plan.
//!
//! Crash failover, the controller's demotions, deferrals and re-tune,
//! and every round a relocation splits off record a [`Mark`] on the
//! job, in decision order (crashes, then the controller, then shocks).
//! A mark holds the numbers of the decision, never text: everything a
//! run shows of it is read off the rows here —
//!
//! * the release gates the executor creates ([`gates`]),
//! * the pid-3 `faults` lanes ([`trace_faults`]) and the pid-5
//!   `replan` lanes ([`trace_replan`]) of the unified trace, and
//! * the counts the outcomes report ([`tally`]).

use crate::adaptive::{AdaptiveOutcome, AdaptivePolicy, DeferDecision};
use crate::exec_faults::FAILOVER_LATENCY;
use crate::exec_sim::{ExecJob, JobRun, RoundWindow};
use mcio_cluster::Rank;
use mcio_des::{arg, ActivityId, Label, Prefix, ServiceRecord, SimDuration, SimTime, Simulation};
use mcio_faults::{FaultEvent, FaultSpec};
use mcio_obs::catalogue::{PID_FAULTS, PID_REPLAN};
use mcio_obs::Trace;
use mcio_pfs::RetryMark;
use std::collections::HashMap;

/// A round slot of a job: the plan group its chain serves (`None` = the
/// global chain, every group) and the round index.
pub(crate) type Slot = (Option<usize>, usize);

/// An aggregator move: the plan group `group` whose aggregator moved
/// (its index, which names the move), the first round `slot` re-targeted
/// and the instant `at`. The first decision to reach a slot holds it
/// behind a gate releasing [`FAILOVER_LATENCY`] after `at` (`gated`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Moved {
    pub group: usize,
    pub slot: Slot,
    pub at: SimTime,
    pub gated: bool,
}

/// One decision about a job's plan.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Mark {
    /// An aggregator whose role is gone (a crash, or a shock that leaves
    /// it no byte) moved to another rank.
    Failover(Moved),
    /// The controller moved aggregator `from` to `to`, off `node`, which
    /// a shock cut by `drop_frac`.
    Demotion {
        moved: Moved,
        node: usize,
        drop_frac: f64,
        from: Rank,
        to: Rank,
    },
    /// The controller held a round back past a degraded OST window.
    Deferral(DeferDecision),
    /// The controller shrank the round granularity from `old` to `new`
    /// bytes at `severity`.
    Retune { severity: f64, old: u64, new: u64 },
    /// A round of plan group `group` split off at `limit` bytes into
    /// `slot`: graceful degradation, or a demotion's re-split when
    /// `demoted`.
    Split {
        group: usize,
        slot: Slot,
        limit: u64,
        demoted: bool,
    },
}

/// The release gate a mark installs: the slot it holds back until
/// `release`, and its label, `template` filled with `args` — under the
/// job's prefix when `prefixed` (a deferral), as it is otherwise.
struct Gate {
    slot: Slot,
    release: SimTime,
    template: &'static str,
    args: [u32; 2],
    prefixed: bool,
}

impl Gate {
    /// The gate's label as text, under the job's label `prefix`.
    fn text(&self, prefix: &str) -> String {
        let mut text = String::from(if self.prefixed { prefix } else { "" });
        mcio_des::fill(&mut text, self.template, self.args).expect("a String takes any write");
        text
    }
}

impl Mark {
    fn gate(&self) -> Option<Gate> {
        let moved = |template, m: Moved| Gate {
            slot: m.slot,
            release: m.at + FAILOVER_LATENCY,
            template,
            args: [arg(m.group), arg(m.slot.1)],
            prefixed: false,
        };
        Some(match *self {
            Mark::Failover(m) if m.gated => moved("failover.g{}.r{}", m),
            Mark::Demotion { moved: m, .. } if m.gated => moved("replan.g{}.r{}", m),
            Mark::Deferral(d) => {
                let (template, args) = match d.group {
                    Some(g) => ("defer.g{}.r{}", [arg(g), arg(d.round)]),
                    None => ("defer.gall.r{}", [arg(d.round), 0]),
                };
                Gate {
                    slot: (d.group, d.round),
                    release: SimTime::from_nanos(d.release_ns),
                    template,
                    args,
                    prefixed: true,
                }
            }
            _ => return None,
        })
    }
}

/// Whether one of `marks` already holds `slot` behind a gate: a later
/// decision on the slot adds no gate of its own.
pub(crate) fn gated(marks: &[Mark], slot: Slot) -> bool {
    (marks.iter()).any(|m| m.gate().is_some_and(|g| g.slot == slot))
}

/// Create the gates `marks` install in `sim`, in mark order, under the
/// job's label `prefix`: the activity holding each gated slot back.
pub(crate) fn gates(
    marks: &[Mark],
    sim: &mut Simulation,
    prefix: Prefix,
) -> HashMap<Slot, ActivityId> {
    let mut acts = HashMap::new();
    for gate in marks.iter().filter_map(Mark::gate) {
        let prefix = if gate.prefixed { prefix } else { Prefix::NONE };
        let label = Label::new(prefix, sim.template(gate.template), gate.args);
        acts.insert(gate.slot, sim.activity(label, gate.release, &[]));
    }
    acts
}

/// What the controller did to a job that ran under `policy` at
/// `severity`, and its failovers and degraded rounds: the counts its
/// `marks` add up to.
pub(crate) fn tally(
    marks: &[Mark],
    policy: AdaptivePolicy,
    severity: f64,
) -> (AdaptiveOutcome, usize, usize) {
    let mut out = AdaptiveOutcome {
        policy,
        severity,
        ..AdaptiveOutcome::default()
    };
    let (mut failovers, mut degraded) = (0, 0);
    for mark in marks {
        match *mark {
            Mark::Failover(_) => failovers += 1,
            Mark::Demotion { .. } => out.demotions += 1,
            Mark::Deferral(_) => out.deferrals += 1,
            Mark::Retune { old, new, .. } => out.retuned = Some((old, new)),
            Mark::Split { demoted: true, .. } => out.resplits += 1,
            Mark::Split { demoted: false, .. } => degraded += 1,
        }
    }
    (out, failovers, degraded)
}

/// The executed window of `slot` as `(start_ns, dur_ns)`, if it ran.
fn window(windows: &[RoundWindow], (group, round): Slot) -> Option<(u64, u64)> {
    let w = (windows.iter()).find(|w| w.group == group && w.round == round)?;
    Some((w.start_ns, w.end_ns.saturating_sub(w.start_ns)))
}

/// `t` in nanoseconds from the start of the run.
fn ns(t: SimTime) -> u64 {
    t.saturating_since(SimTime::ZERO).as_nanos()
}

/// Emit the pid-3 "faults" trace process: what was injected and how the
/// execution absorbed it. A run that injected and absorbed nothing
/// emits no fault lanes at all, so an empty fault plan keeps the trace
/// byte-identical to a fault-free run. Injected windows and failover
/// spans are clipped to `clip_ns`, the run's end.
///
/// * tid 0 `injected` — OST slow/stall windows and instantaneous
///   crash/shock markers, category `inject` (not attributed).
/// * tid 1 `failover` — one span per failover gate, from the crash
///   instant to the gate release, category `failover`.
/// * tid 2 `degraded` — one span per round graceful degradation split
///   off, covering the slot's executed window, category `degraded`.
/// * tid `3 + ost` — the `retries` chains per OST, read off the run's
///   service `records`: the failed service attempts (`retry`) and the
///   waits between them (`backoff`).
///
/// The "inject" category is descriptive only; the resilience categories
/// (retry/backoff/failover/degraded) feed the fifth critical-path bucket
/// in `mcio-analyze`.
pub(crate) fn trace_faults(
    tc: &mut Trace,
    clip_ns: u64,
    faults: Option<&FaultSpec>,
    jobs: &[ExecJob<'_>],
    runs: &[JobRun],
    retries: &[RetryMark],
    records: &[ServiceRecord],
) {
    let injected = faults.is_some_and(|s| !s.is_empty());
    if !injected && retries.is_empty() && jobs.iter().all(|j| j.marks.is_empty()) {
        return;
    }
    tc.name_lane(PID_FAULTS);
    tc.name_thread(PID_FAULTS, 0, "injected");
    tc.name_thread(PID_FAULTS, 1, "failover");
    tc.name_thread(PID_FAULTS, 2, "degraded");
    for ev in faults.iter().flat_map(|spec| &spec.events) {
        // An instantaneous event is a 1 ns marker.
        let (name, from, until) = match *ev {
            FaultEvent::OstSlow {
                ost, from, until, ..
            } => (tc.sym(format_args!("ost{ost}.slow")), from, Some(until)),
            FaultEvent::OstStall { ost, from, until } => {
                (tc.sym(format_args!("ost{ost}.stall")), from, Some(until))
            }
            FaultEvent::ReqTransientFail { .. } => continue,
            FaultEvent::MemShock { node, at, .. } => {
                (tc.sym(format_args!("node{node}.mem_shock")), at, None)
            }
            FaultEvent::AggCrash { host, at } => {
                (tc.sym(format_args!("host{host}.agg_crash")), at, None)
            }
        };
        let until = until.unwrap_or(from + SimDuration::from_nanos(1));
        let (start, end) = (ns(from), ns(until).min(clip_ns));
        if end > start {
            tc.span(name, "inject", PID_FAULTS, 0, start, end - start);
        }
    }
    for mark in jobs.iter().flat_map(|j| &j.marks) {
        if let (Mark::Failover(m), Some(gate)) = (mark, mark.gate()) {
            let (start, end) = (ns(m.at), ns(gate.release).min(clip_ns));
            if end > start {
                let (name, dur) = (gate.text(""), end - start);
                tc.span(&name, "failover", PID_FAULTS, 1, start, dur);
            }
        }
    }
    for (job, run) in jobs.iter().zip(runs) {
        for mark in &job.marks {
            let Mark::Split { slot, demoted, .. } = *mark else {
                continue;
            };
            let w = window(&run.windows, slot).filter(|&(_, dur)| !demoted && dur > 0);
            if let Some((start, dur)) = w {
                let name = format_args!("r{}.degraded", slot.1);
                tc.span(name, "degraded", PID_FAULTS, 2, start, dur);
            }
        }
    }
    // The service records of every retry chain, in record order: one
    // pass over the run's records however many chains there are.
    let mut chains: HashMap<ActivityId, Vec<&ServiceRecord>> =
        (retries.iter().map(|m| (m.activity, Vec::new()))).collect();
    for rec in records {
        if let Some(chain) = chains.get_mut(&rec.activity) {
            chain.push(rec);
        }
    }
    let mut named_osts = std::collections::BTreeSet::new();
    for mark in retries {
        let tid = 3 + mark.ost as u64;
        if named_osts.insert(mark.ost) {
            tc.name_thread(PID_FAULTS, tid, format_args!("ost{}.retries", mark.ost));
        }
        // The first `attempts - 1` stages of the chain are the failed
        // tries; the gaps between consecutive stages are the backoff
        // waits.
        let recs = &chains[&mark.activity];
        for (i, rec) in recs.iter().enumerate() {
            let start = ns(rec.start);
            let dur = rec.end.saturating_since(rec.start).as_nanos();
            if (i as u32) < mark.attempts.saturating_sub(1) && dur > 0 {
                let name = format_args!("attempt{}", i + 1);
                tc.span(name, "retry", PID_FAULTS, tid, start, dur);
            }
            if let Some(next) = recs.get(i + 1) {
                let gap = next.start.saturating_since(rec.end).as_nanos();
                if gap > 0 {
                    tc.span("backoff", "backoff", PID_FAULTS, tid, ns(rec.end), gap);
                }
            }
        }
    }
}

/// Emit the pid-5 "replan" lanes, when a controller acted: one thread
/// per actuator (`retune` 0, `defer` 1, `demote` 2, `resplit` 3), one
/// span per decision, clipped to `clip_ns` and at least 1 ns long. A
/// re-split snaps to the executed window of its round, so the span
/// shows when the re-planned round actually ran, and is dropped when
/// the round never ran. A tenant's deferrals carry its name as `job`.
pub(crate) fn trace_replan(tc: &mut Trace, clip_ns: u64, jobs: &[ExecJob<'_>], runs: &[JobRun]) {
    const LANES: [&str; 4] = ["retune", "defer", "demote", "resplit"];
    let fault = |m: &Mark| matches!(m, Mark::Failover(_) | Mark::Split { demoted: false, .. });
    if jobs.iter().flat_map(|j| &j.marks).all(fault) {
        return;
    }
    tc.name_lane(PID_REPLAN);
    let mut named = [false; LANES.len()];
    let mut args = Vec::new();
    for (job, run) in jobs.iter().zip(runs) {
        for mark in &job.marks {
            args.clear();
            let (lane, name, span) = match *mark {
                Mark::Retune { severity, old, new } => {
                    args.extend([
                        ("severity", tc.sym(format_args!("{severity:.6}"))),
                        ("old", tc.sym(format_args!("{old}"))),
                        ("new", tc.sym(format_args!("{new}"))),
                    ]);
                    (0, tc.sym("retune.msg_group"), Some((0, 1)))
                }
                Mark::Deferral(d) => {
                    args.extend(job.label.map(|label| ("job", tc.sym(label))));
                    args.push(("stretch", tc.sym(format_args!("{:.6}", d.stretch))));
                    let gate = mark.gate().expect("a deferral is a gate");
                    let dur = d.release_ns.saturating_sub(d.from_ns).max(1);
                    (1, tc.sym(&gate.text(&job.prefix)), Some((d.from_ns, dur)))
                }
                Mark::Demotion {
                    moved: m,
                    node,
                    drop_frac,
                    from,
                    to,
                } => {
                    args.extend([
                        ("node", tc.sym(format_args!("{node}"))),
                        ("drop_frac", tc.sym(format_args!("{drop_frac:.6}"))),
                        ("from", tc.sym(format_args!("r{}", from.0))),
                        ("to", tc.sym(format_args!("r{}", to.0))),
                    ]);
                    let name = tc.sym(format_args!("demote.g{}.r{}", m.group, m.slot.1));
                    let span = (ns(m.at), FAILOVER_LATENCY.as_nanos().max(1));
                    (2, name, Some(span))
                }
                Mark::Split {
                    group,
                    slot,
                    limit,
                    demoted: true,
                } => {
                    args.push(("limit", tc.sym(format_args!("{limit}"))));
                    let name = tc.sym(format_args!("resplit.g{group}.r{}", slot.1));
                    (3, name, window(&run.windows, slot))
                }
                _ => continue,
            };
            let (cat, tid) = (LANES[lane], lane as u64);
            if !std::mem::replace(&mut named[lane], true) {
                tc.name_thread(PID_REPLAN, tid, cat);
            }
            let Some((start, dur)) = span else {
                continue;
            };
            let start = start.min(clip_ns);
            let dur = dur.min(clip_ns - start).max(1);
            tc.span_with_args(name, cat, PID_REPLAN, tid, start, dur, &args);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text a failover or deferral span is named with is its gate's
    /// label (`labels_render_as_their_format_strings_wrote_them` holds
    /// the labels).
    #[test]
    fn gate_text_is_the_label_text() {
        let d = |group| DeferDecision {
            group,
            round: 3,
            from_ns: 0,
            release_ns: 1,
            stretch: 2.0,
        };
        let failover = |gated| {
            let slot = (None, 3);
            let (group, at) = (7, SimTime::ZERO);
            Mark::Failover(Moved {
                group,
                slot,
                at,
                gated,
            })
        };
        let cases = [
            (failover(true), "failover.g7.r3"),
            (Mark::Deferral(d(Some(7))), "j3.defer.g7.r3"),
            (Mark::Deferral(d(None)), "j3.defer.gall.r3"),
        ];
        for (mark, text) in cases {
            assert_eq!(mark.gate().expect("a gate").text("j3."), text);
        }
        assert!(failover(false).gate().is_none());
    }
}
