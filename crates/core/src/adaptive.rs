//! Closed-loop adaptive re-planning: feed observed fault and
//! contention signals back into the plan *between* collective rounds.
//!
//! The §3 tuner calibrates `Msg_group`/`Msg_ind` once per machine, and
//! aggregator placement ignores what the machine looks like while the
//! collective actually runs. This module closes the loop with a
//! deterministic feedback controller:
//!
//! 1. **Sample** — `severity` folds the observed machine state into
//!    one number: per-OST service rate vs nominal (from the same
//!    [`ServiceWindow`](mcio_des::ServiceWindow)s the injector arms)
//!    and node memory shocks. Every input is already deterministic and
//!    replayable from the fault-plan seed, so the controller is too.
//! 2. **Re-tune** — [`crate::tuner::retune_from_signals`] re-solves
//!    `Msg_group`/`Msg_ind` incrementally with a hysteresis dead band:
//!    mild degradation changes nothing (no oscillation), severe
//!    degradation shrinks the group granularity monotonically.
//! 3. **Re-place** — aggregators sitting on memory-shocked nodes are
//!    demoted through the same relocation walk a crash uses, but
//!    scored with a contention-aware budget
//!    (`contended_budget`): shocked nodes lose budget,
//!    crowded nodes are penalized.
//! 4. **Re-split / defer** — remaining rounds are re-split at exact
//!    chunk boundaries (plan `check()` preserved), and rounds whose
//!    probe window sits inside a severe slow-OST window are deferred
//!    past the window exit when the probe says waiting is cheaper than
//!    crawling (`plan_deferrals`).
//!
//! `control` is the one step a solo job and a tenant share: clean
//! run, severity, band check, then the caller's re-tune and re-place,
//! then deferral.
//!
//! The controller runs between rounds *of the probe pass*: like the
//! failover transform in [`crate::exec_faults`], decisions come from a
//! deterministic probe simulation and are actuated as plan transforms
//! plus release gates on the final pass, so the adapted run is still
//! one byte-reproducible DES execution. [`AdaptivePolicy::Off`] takes
//! exactly the static code path — outputs are byte-identical to
//! pre-adaptive builds.

use crate::config::Strategy;
use crate::exec_sim::{simulate_inner, Exchange, Observe, Pipeline, RoundWindow, SimRun};
use crate::marks::{self, Mark};
use crate::plan::{CollectivePlan, GroupPlan};
use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::{ProcessMap, Rank};
use mcio_des::{SharePolicy, SimDuration, SimTime};
use mcio_faults::FaultSpec;

/// How eagerly the controller re-plans. The knob trades reaction speed
/// against stability: `Conservative` waits for strong, sustained
/// degradation; `Aggressive` reacts to smaller signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdaptivePolicy {
    /// No adaptation: the static plan runs unchanged (byte-identical
    /// to builds without the adaptive module).
    #[default]
    Off,
    /// Wide dead band, high actuation thresholds.
    Conservative,
    /// Narrow dead band, low actuation thresholds.
    Aggressive,
}

impl AdaptivePolicy {
    /// Parse a CLI policy name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(AdaptivePolicy::Off),
            "conservative" => Some(AdaptivePolicy::Conservative),
            "aggressive" => Some(AdaptivePolicy::Aggressive),
            _ => None,
        }
    }

    /// Stable lowercase label (metrics, trace args, documents).
    pub fn label(self) -> &'static str {
        match self {
            AdaptivePolicy::Off => "off",
            AdaptivePolicy::Conservative => "conservative",
            AdaptivePolicy::Aggressive => "aggressive",
        }
    }

    /// True when the controller is disabled.
    pub fn is_off(self) -> bool {
        self == AdaptivePolicy::Off
    }

    /// Hysteresis dead band on the controller's `severity`: at or
    /// below this, the controller is a guaranteed no-op. `Off` returns
    /// an unreachable band (severity is capped at 1).
    pub fn dead_band(self) -> f64 {
        match self {
            AdaptivePolicy::Off => f64::INFINITY,
            AdaptivePolicy::Conservative => 0.25,
            AdaptivePolicy::Aggressive => 0.10,
        }
    }

    /// Minimum probe-observed round stretch (degraded duration over
    /// nominal duration) before a deferral is considered.
    pub fn stretch_threshold(self) -> f64 {
        match self {
            AdaptivePolicy::Off => f64::INFINITY,
            AdaptivePolicy::Conservative => 1.5,
            AdaptivePolicy::Aggressive => 1.15,
        }
    }

    /// Safety margin on the defer-vs-crawl comparison, as a fraction
    /// of the nominal round duration.
    pub fn defer_margin(self) -> f64 {
        match self {
            AdaptivePolicy::Off => f64::INFINITY,
            AdaptivePolicy::Conservative => 0.10,
            AdaptivePolicy::Aggressive => 0.0,
        }
    }

    /// Gain of the incremental re-tune: how fast `Msg_group` shrinks
    /// per unit of severity beyond the dead band.
    pub fn retune_gain(self) -> f64 {
        match self {
            AdaptivePolicy::Off => 0.0,
            AdaptivePolicy::Conservative => 1.0,
            AdaptivePolicy::Aggressive => 2.0,
        }
    }
}

/// The controller's one input: a severity in `[0, 1]` sampled from the
/// seeded fault plan over `[0, horizon_ns)` (the nominal run length) on
/// a machine with `nosts` OSTs — the worst of any OST's time-weighted
/// service deficit (`0` = nominal rate throughout, `1` = stalled for the
/// whole horizon) and any memory shock's dropped fraction. Replayable
/// from the plan alone, so two samples of one run are identical.
pub(crate) fn severity(fspec: &FaultSpec, nosts: usize, horizon_ns: u64) -> f64 {
    let horizon = horizon_ns.max(1);
    let ost = (0..nosts).map(|ost| {
        let deficit_ns = fspec.ost_windows(ost).iter().fold(0.0f64, |acc, w| {
            let lo = w.start.as_nanos().min(horizon);
            let hi = w.end.as_nanos().min(horizon);
            if hi <= lo || w.rate >= 1.0 {
                return acc;
            }
            acc + (hi - lo) as f64 * (1.0 - w.rate)
        });
        deficit_ns / horizon as f64
    });
    let shock = fspec.mem_shocks().into_iter().map(|(_, frac, _)| frac);
    ost.chain(shock).fold(0.0f64, f64::max).clamp(0.0, 1.0)
}

/// Whether the closed-loop controller acts on a job: a policy other
/// than `Off`, a non-empty fault plan, and a memory-conscious plan —
/// the two-phase baseline stays static by design, mirroring its lack
/// of a failover path. A job the controller skips runs byte-identical
/// to the static path.
pub(crate) fn controller_acts(
    policy: AdaptivePolicy,
    faults: Option<&FaultSpec>,
    strategy: Strategy,
) -> bool {
    !policy.is_off() && faults.is_some_and(|f| !f.is_empty()) && strategy != Strategy::TwoPhase
}

/// A job as its clean run simulates it: plan, placement (any node
/// offset applied), pipelining, exchange and engine.
pub(crate) type Solo<'a> = (
    &'a CollectivePlan,
    &'a ProcessMap,
    Pipeline,
    Exchange,
    SharePolicy,
);

/// The job alone on `spec`'s machine, fault-free and unobserved: the
/// controller's nominal timeline and a tenant's solo baseline.
pub(crate) fn clean_run(spec: &ClusterSpec, job: Solo<'_>) -> SimRun {
    let (plan, map, pipeline, exchange, engine) = job;
    let obs = Observe {
        engine,
        ..Observe::default()
    };
    simulate_inner(plan, map, spec, pipeline, exchange, obs, None, Vec::new())
}

/// One job's controller step, solo or tenant: run `job` clean for its
/// nominal timeline, read the [`severity`] over that horizon and,
/// beyond the policy's dead band, let `replan` mark the job's re-tune
/// and re-placement at that severity before every round the probe
/// windows `probed` condemn to crawling through a degraded OST window
/// is deferred past it. A `tenant` re-bases "nominal" by its
/// [`contention_stretch`]; a solo job's scale is 1. Returns the
/// severity and the clean run's elapsed time (a tenant's solo
/// baseline).
#[allow(clippy::too_many_arguments)]
pub(crate) fn control(
    policy: AdaptivePolicy,
    fspec: &FaultSpec,
    spec: &ClusterSpec,
    job: Solo<'_>,
    probed: &[RoundWindow],
    tenant: bool,
    marks: &mut Vec<Mark>,
    replan: impl FnOnce(&mut Vec<Mark>, f64),
) -> (f64, SimDuration) {
    let clean = clean_run(spec, job);
    let nosts = spec.io_servers;
    let severity = severity(fspec, nosts, clean.report.elapsed.as_nanos());
    if severity > policy.dead_band() {
        replan(marks, severity);
        let scale = match tenant {
            true => contention_stretch(fspec, nosts, &clean.windows, probed),
            false => 1.0,
        };
        // A slot a failover or a demotion already gates is not deferred.
        for d in plan_deferrals(fspec, policy, nosts, &clean.windows, probed, scale) {
            if !marks::gated(marks, (d.group, d.round)) {
                marks.push(Mark::Deferral(d));
            }
        }
    }
    (severity, clean.report.elapsed)
}

/// One deferral decision: hold round `round` of `group` behind a gate
/// releasing at `release_ns`, because the probe says the round would
/// otherwise crawl through a degraded OST window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DeferDecision {
    /// Plan group key (`None` = the global chain).
    pub group: Option<usize>,
    /// Round index the gate holds back.
    pub round: usize,
    /// Decision instant: the degraded slot's probed start.
    pub from_ns: u64,
    /// Gate release: the degraded window's exit.
    pub release_ns: u64,
    /// Probe-observed stretch (degraded duration / nominal duration).
    pub stretch: f64,
}

/// Estimate how much tenancy alone stretches a job's rounds: the
/// median faulted-over-nominal duration ratio across probe rounds that
/// never overlap a degraded OST window — their stretch is pure
/// contention, so it calibrates what "nominal" means on the shared
/// machine. Returns 1.0 (no correction) when every round touches a
/// window, which is also the solo-probe case where faulted and clean
/// share a timeline.
pub(crate) fn contention_stretch(
    fspec: &FaultSpec,
    nosts: usize,
    clean: &[RoundWindow],
    faulted: &[RoundWindow],
) -> f64 {
    let degraded = degraded_windows(fspec, nosts);
    let mut ratios: Vec<f64> = probed_slots(clean, faulted)
        .filter(|&(fw, _, _)| {
            !degraded
                .iter()
                .any(|&(s, e)| s < fw.end_ns && e > fw.start_ns)
        })
        .map(|(_, cdur, fdur)| fdur as f64 / cdur as f64)
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("duration ratios are finite"));
    ratios[ratios.len() / 2].max(1.0)
}

/// The `(start_ns, end_ns)` of every OST window of `fspec` that serves
/// below nominal rate, in OST order.
fn degraded_windows(fspec: &FaultSpec, nosts: usize) -> Vec<(u64, u64)> {
    (0..nosts)
        .flat_map(|ost| fspec.ost_windows(ost))
        .filter(|w| w.rate < 1.0)
        .map(|w| (w.start.as_nanos(), w.end.as_nanos()))
        .collect()
}

/// Each faulted probe slot that also ran in the clean probe, with its
/// clean and faulted durations; slots either probe saw as empty are
/// skipped.
fn probed_slots<'w>(
    clean: &'w [RoundWindow],
    faulted: &'w [RoundWindow],
) -> impl Iterator<Item = (&'w RoundWindow, u64, u64)> {
    faulted.iter().filter_map(|fw| {
        let cw = clean
            .iter()
            .find(|c| c.group == fw.group && c.round == fw.round)?;
        let cdur = cw.end_ns.saturating_sub(cw.start_ns);
        let fdur = fw.end_ns.saturating_sub(fw.start_ns);
        (cdur != 0 && fdur != 0).then_some((fw, cdur, fdur))
    })
}

/// Decide which round slots to defer past a degraded OST window.
///
/// For each slot, compare its nominal probe window (`clean`) against
/// its degraded probe window (`faulted`, absolute). A slot is deferred
/// only when the probe says waiting wins: the degraded windows it overlaps end early enough
/// that `window_exit + nominal_duration (+ margin)` beats the observed
/// degraded finish. `dur_scale` re-bases "nominal" for contended
/// machines (see [`contention_stretch`]); solo callers pass 1.0. Stall
/// windows never qualify (the un-deferred run already waits at full
/// stop and loses nothing), which keeps the controller naturally
/// conservative.
pub(crate) fn plan_deferrals(
    fspec: &FaultSpec,
    policy: AdaptivePolicy,
    nosts: usize,
    clean: &[RoundWindow],
    faulted: &[RoundWindow],
    dur_scale: f64,
) -> Vec<DeferDecision> {
    let degraded = degraded_windows(fspec, nosts);
    if degraded.is_empty() {
        return Vec::new();
    }

    let mut out = Vec::new();
    for (fw, raw_cdur, fdur) in probed_slots(clean, faulted) {
        // The contended-but-clean estimate of the slot's duration.
        let cdur = (raw_cdur as f64 * dur_scale.max(1.0)) as u64;
        let stretch = fdur as f64 / cdur.max(1) as f64;
        if stretch < policy.stretch_threshold() {
            continue;
        }
        let (fstart, fend) = (fw.start_ns, fw.end_ns);
        // Latest exit among degraded windows the stretched slot overlaps.
        let exit = degraded
            .iter()
            .filter(|&&(s, e)| s < fend && e > fstart)
            .map(|&(_, e)| e)
            .max();
        let Some(exit) = exit else { continue };
        if exit <= fstart {
            continue;
        }
        // Defer only when waiting beats crawling, with the policy margin.
        let margin = (cdur as f64 * policy.defer_margin()) as u64;
        if exit.saturating_add(cdur).saturating_add(margin) >= fend {
            continue;
        }
        out.push(DeferDecision {
            group: fw.group,
            round: fw.round,
            from_ns: fstart,
            release_ns: exit,
            stretch,
        });
    }
    out.sort_by_key(|d| (d.group, d.round));
    out
}

/// The contention-aware score of an adaptive demotion, for the
/// three-tier search of [`crate::exec_faults`]'s relocation walk: an
/// *effective* budget — a node loses the worst fraction any of `shocks`
/// ([`FaultSpec::mem_shocks`]) drops on it, and nodes already hosting
/// aggregators of the group are penalized so demotions spread instead
/// of piling up. Integer scoring keeps the choice byte-deterministic.
pub(crate) fn contended_budget<'a>(
    g: &'a GroupPlan,
    map: &'a ProcessMap,
    shocks: &'a [(usize, f64, SimTime)],
) -> impl Fn(Rank, u64) -> u64 + 'a {
    move |r, budget| {
        let node = map.node_of(r);
        let aggs_on_node = g
            .aggregators
            .iter()
            .filter(|a| map.node_of(a.rank) == node)
            .count() as u64;
        let shock = shocks
            .iter()
            .filter(|&&(n, ..)| n == node.0)
            .map(|&(_, frac, _)| frac)
            .fold(0.0f64, f64::max);
        let keep = 1.0 - shock.clamp(0.0, 1.0);
        (budget as f64 * keep) as u64 / (1 + aggs_on_node)
    }
}

/// The coarsest I/O granularity the plan actually uses: the largest
/// per-aggregator window of any round. This is the incremental
/// re-tune's `Msg_group` baseline — the observed round granularity —
/// and [`crate::tuner::retune_from_signals`] shrinks it from here.
pub fn observed_granularity(plan: &CollectivePlan) -> u64 {
    plan.groups
        .iter()
        .flat_map(|g| g.rounds.iter())
        .flat_map(|r| r.ios.iter())
        .map(|io| io.window.len)
        .max()
        .unwrap_or(1)
        .max(1)
}

/// What the controller did to one run (surfaced on the outcome and the
/// `adaptive.*` metrics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptiveOutcome {
    /// The policy that ran.
    pub policy: AdaptivePolicy,
    /// Sampled severity in `[0, 1]` (0 when the controller never
    /// sampled — policy off or an empty fault plan).
    pub severity: f64,
    /// Rounds deferred past a degraded OST window.
    pub deferrals: usize,
    /// Aggregators demoted off shocked nodes.
    pub demotions: usize,
    /// Extra rounds created by adaptive re-splitting.
    pub resplits: usize,
    /// `(old, new)` group granularity when the re-tune moved it.
    pub retuned: Option<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow_spec(factor: f64, from_ms: u64, until_ms: u64) -> FaultSpec {
        FaultSpec::parse(&format!(
            "seed 1\nost_slow(0, {factor}, {from_ms}ms..{until_ms}ms)"
        ))
        .unwrap()
    }

    #[test]
    fn severity_weights_deficit_by_time() {
        // Quarter speed for half the horizon: deficit 0.75 * 0.5.
        let spec = slow_spec(4.0, 0, 5);
        let sev = severity(&spec, 2, 10_000_000);
        assert!((sev - 0.375).abs() < 1e-9, "{sev}");
    }

    #[test]
    fn severity_ignores_windows_past_horizon() {
        let spec = slow_spec(8.0, 20, 30);
        assert_eq!(severity(&spec, 1, 10_000_000), 0.0);
    }

    #[test]
    fn severity_takes_the_worst_signal() {
        let spec = FaultSpec::parse("seed 1\nost_slow(0, 2.0, 0ms..10ms)\nmem_shock(3, 0.9, 1ms)")
            .unwrap();
        let sev = severity(&spec, 1, 10_000_000);
        assert!((sev - 0.9).abs() < 1e-9, "{sev}");
        assert_eq!(severity(&FaultSpec::none(), 1, 1_000), 0.0);
    }

    #[test]
    fn contended_budget_keeps_the_unshocked_fraction() {
        use mcio_cluster::Placement;
        let map = ProcessMap::new(8, 4, Placement::Block);
        let g = GroupPlan {
            ranks: (0..8).map(Rank).collect(),
            aggregators: Vec::new(),
            rounds: Vec::new(),
        };
        let spec =
            FaultSpec::parse("seed 1\nmem_shock(3, 0.25, 1ms)\nmem_shock(3, 0.5, 2ms)").unwrap();
        let shocks = spec.mem_shocks();
        let score = contended_budget(&g, &map, &shocks);
        // Rank 6 lives on node 3: the worst shock there keeps half.
        assert_eq!(score(Rank(6), 1000), 500);
        assert_eq!(score(Rank(0), 1000), 1000);
    }

    #[test]
    fn deferral_requires_waiting_to_win() {
        let w = |group, round, start_ns: u64, end_ns: u64| RoundWindow {
            group,
            round,
            start_ns,
            end_ns,
        };
        // Nominal 1 ms round, crawling to 8 ms inside a slow window that
        // ends at 2 ms: waiting (2 ms + 1 ms) beats crawling (8 ms).
        let spec = slow_spec(8.0, 0, 2);
        let clean = [w(None, 0, 0, 1_000_000)];
        let faulted = [w(None, 0, 0, 8_000_000)];
        let d = plan_deferrals(
            &spec,
            AdaptivePolicy::Conservative,
            1,
            &clean,
            &faulted,
            1.0,
        );
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].group, d[0].round), (None, 0));
        assert_eq!(d[0].release_ns, 2_000_000);
        assert!(d[0].stretch > 7.0);

        // Same stretch but the window outlives the crawl: no deferral.
        let long = slow_spec(8.0, 0, 50);
        assert!(plan_deferrals(
            &long,
            AdaptivePolicy::Conservative,
            1,
            &clean,
            &faulted,
            1.0,
        )
        .is_empty());

        // Below the stretch threshold: no deferral.
        let mild = [w(None, 0, 0, 1_200_000)];
        assert!(
            plan_deferrals(&spec, AdaptivePolicy::Conservative, 1, &clean, &mild, 1.0,).is_empty()
        );
    }

    #[test]
    fn deferrals_are_deterministic_and_sorted() {
        let spec = slow_spec(8.0, 0, 2);
        let w = |group, round, start_ns: u64, end_ns: u64| RoundWindow {
            group,
            round,
            start_ns,
            end_ns,
        };
        let clean = [w(Some(1), 0, 0, 1_000_000), w(Some(0), 0, 0, 1_000_000)];
        let faulted = [w(Some(1), 0, 0, 8_000_000), w(Some(0), 0, 0, 8_000_000)];
        let a = plan_deferrals(&spec, AdaptivePolicy::Aggressive, 1, &clean, &faulted, 1.0);
        let b = plan_deferrals(&spec, AdaptivePolicy::Aggressive, 1, &clean, &faulted, 1.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a[0].group < a[1].group, "sorted by (group, round)");
    }

    #[test]
    fn contention_stretch_calibrates_from_unwindowed_rounds() {
        let w = |round, start_ns: u64, end_ns: u64| RoundWindow {
            group: None,
            round,
            start_ns,
            end_ns,
        };
        // Slow window 0..2 ms. Rounds 1 and 2 run after it and stretch
        // 3x — pure contention. Round 0 crawls inside it and must not
        // pollute the estimate.
        let spec = slow_spec(8.0, 0, 2);
        let clean = [
            w(0, 0, 1_000_000),
            w(1, 1_000_000, 2_000_000),
            w(2, 2_000_000, 3_000_000),
        ];
        let faulted = [
            w(0, 0, 8_000_000),
            w(1, 8_000_000, 11_000_000),
            w(2, 11_000_000, 14_000_000),
        ];
        let s = contention_stretch(&spec, 1, &clean, &faulted);
        assert!((s - 3.0).abs() < 1e-9, "median pure-contention ratio: {s}");
        // Every round inside the window: no calibration signal.
        let all_in = slow_spec(8.0, 0, 50);
        assert_eq!(contention_stretch(&all_in, 1, &clean, &faulted), 1.0);

        // The scale dampens marginal deferrals: a round crawling to
        // 8 ms against a 1 ms nominal defers at scale 1, but if pure
        // contention already explains 6x of it, waiting no longer wins
        // (2 ms exit + 6 ms contended-clean ≥ 8 ms observed finish).
        let one_clean = [w(0, 0, 1_000_000)];
        let one_faulted = [w(0, 0, 8_000_000)];
        let d1 = plan_deferrals(
            &spec,
            AdaptivePolicy::Aggressive,
            1,
            &one_clean,
            &one_faulted,
            1.0,
        );
        assert_eq!(d1.len(), 1);
        let d6 = plan_deferrals(
            &spec,
            AdaptivePolicy::Aggressive,
            1,
            &one_clean,
            &one_faulted,
            6.0,
        );
        assert!(d6.is_empty(), "contention-aware scale culls the deferral");
    }

    #[test]
    fn policy_parse_and_labels_round_trip() {
        for p in [
            AdaptivePolicy::Off,
            AdaptivePolicy::Conservative,
            AdaptivePolicy::Aggressive,
        ] {
            assert_eq!(AdaptivePolicy::parse(p.label()), Some(p));
        }
        assert_eq!(AdaptivePolicy::parse("bogus"), None);
        assert!(AdaptivePolicy::Off.is_off());
        assert!(AdaptivePolicy::Conservative.dead_band() > AdaptivePolicy::Aggressive.dead_band());
    }

    #[test]
    fn observed_granularity_is_the_largest_window() {
        use crate::config::CollectiveConfig;
        use crate::memory::ProcMemory;
        use crate::request::CollectiveRequest;
        use mcio_cluster::{Placement, ProcessMap};
        use mcio_pfs::Extent;
        let chunk = 1u64 << 20;
        let req = CollectiveRequest::new(
            mcio_pfs::Rw::Write,
            (0..4u64)
                .map(|r| vec![Extent::new(r * chunk, chunk)])
                .collect(),
        );
        let map = ProcessMap::new(4, 2, Placement::Block);
        let mem = ProcMemory::uniform(4, chunk);
        let plan = crate::mcio::plan(&req, &map, &mem, &CollectiveConfig::with_buffer(chunk));
        let gran = observed_granularity(&plan);
        let max_win = plan
            .groups
            .iter()
            .flat_map(|g| g.rounds.iter())
            .flat_map(|r| r.ios.iter())
            .map(|io| io.window.len)
            .max()
            .unwrap();
        assert_eq!(gran, max_win);
        assert!(gran >= 1);
    }
}
