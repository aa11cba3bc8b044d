//! Robust straggler detection over round chains, aggregators, and OSTs.
//!
//! A straggler is an entity whose duration is a *robust outlier* among
//! its peers: the score is the median/MAD z-score
//! `(x − median) / (1.4826 · MAD)` and only the slow side is flagged
//! (threshold 3.0). When the peer group is effectively uniform — the
//! robust spread below 1% of the median, including exactly zero — the
//! detector falls back to the plain ratio `x / median` with a 2.0×
//! threshold, so a lone doubled entity among (near-)identical peers is
//! still caught without a near-zero MAD exploding the score. Groups
//! smaller than three have no meaningful spread and are never flagged.
//!
//! Each finding names the critical-path bucket it inflates (an OST
//! straggler inflates `ost_io`; a shuffle-heavy aggregator inflates
//! `network_shuffle`) and the rounds in which the entity was active, so
//! a diff or regression message can say *"ost_io +12% driven by ost3
//! straggling in rounds 4–6"* instead of just naming the number that
//! moved. Everything is computed from the same integer span data as the
//! critical path; the output order (score descending, then name) is
//! deterministic.

use crate::critical_path::{chain_summaries, PhaseKind};
use crate::trace_model::{ResourceClass, TraceModel, PID_RESOURCES, PID_ROUNDS};
use mcio_obs::intervals::total_len;

/// What kind of entity straggled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StragglerKind {
    /// A round chain (one group's phase sequence).
    Chain,
    /// A reconstructed aggregator rank.
    Aggregator,
    /// One OST service lane.
    Ost,
}

impl StragglerKind {
    /// Stable lowercase label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            StragglerKind::Chain => "chain",
            StragglerKind::Aggregator => "aggregator",
            StragglerKind::Ost => "ost",
        }
    }
}

/// One flagged outlier.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// Entity kind.
    pub kind: StragglerKind,
    /// Entity name (`chain1`, `agg2`, `ost3`).
    pub name: String,
    /// The entity's duration metric, nanoseconds: wall extent for
    /// chains, summed service time for aggregators, busy-union length
    /// for OSTs.
    pub duration_ns: u64,
    /// Median of the same metric over the peer group.
    pub peer_median_ns: u64,
    /// Outlier score: MAD z-score, or `duration / median` when the
    /// peer group's robust spread is below 1% of the median.
    pub score: f64,
    /// The critical-path bucket this straggler inflates (`"ost_io"` or
    /// `"network_shuffle"`).
    pub bucket: &'static str,
    /// Rounds the entity was active in (ascending), resolved against
    /// the round-phase lanes. Empty when the trace carries no round
    /// metadata overlapping the entity.
    pub rounds: Vec<u64>,
}

impl Straggler {
    /// One-line human rendering, e.g. *"ost ost3: busy 8.400 ms vs peer
    /// median 2.100 ms (score 4.0), inflates ost_io in rounds 4-6"*.
    pub fn describe(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = format!(
            "{} {}: busy {:.3} ms vs peer median {:.3} ms (score {:.1}), inflates {}",
            self.kind.label(),
            self.name,
            ms(self.duration_ns),
            ms(self.peer_median_ns),
            self.score,
            self.bucket
        );
        if !self.rounds.is_empty() {
            out.push_str(&format!(" in rounds {}", format_rounds(&self.rounds)));
        }
        out
    }
}

/// Render ascending round indices with consecutive runs compressed:
/// `[4,5,6]` → `"4-6"`, `[1,3,4]` → `"1,3-4"`.
pub fn format_rounds(rounds: &[u64]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < rounds.len() {
        let start = rounds[i];
        let mut end = start;
        while i + 1 < rounds.len() && rounds[i + 1] == end + 1 {
            i += 1;
            end = rounds[i];
        }
        if !out.is_empty() {
            out.push(',');
        }
        if start == end {
            out.push_str(&start.to_string());
        } else {
            out.push_str(&format!("{start}-{end}"));
        }
        i += 1;
    }
    out
}

/// Median of a non-empty sorted slice, as f64 (mean of the middle pair
/// for even lengths).
fn median_sorted(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
    }
}

/// Flag the slow-side robust outliers among `(index, duration)` peers.
/// Returns `(index, peer_median_ns, score)` per flagged entry. Groups
/// of fewer than three are never flagged (no meaningful spread).
fn flag_outliers(durations: &[u64]) -> Vec<(usize, u64, f64)> {
    if durations.len() < 3 {
        return Vec::new();
    }
    let mut sorted = durations.to_vec();
    sorted.sort_unstable();
    let med = median_sorted(&sorted);
    let mut deviations: Vec<u64> = durations
        .iter()
        .map(|&x| (x as f64 - med).abs() as u64)
        .collect();
    deviations.sort_unstable();
    let mad = median_sorted(&deviations);
    // Peers that agree to within 1% of the median have no meaningful
    // robust spread: a raw z-score there divides by near-zero noise and
    // explodes into the hundreds of thousands. Treat the group as
    // uniform and use the ratio fallback instead.
    let sigma = 1.4826 * mad;
    let uniform = sigma < med * 0.01;
    let mut out = Vec::new();
    for (i, &x) in durations.iter().enumerate() {
        let xf = x as f64;
        if xf <= med {
            continue; // slow side only
        }
        let (score, threshold) = if !uniform {
            ((xf - med) / sigma, 3.0)
        } else if med > 0.0 {
            (xf / med, 2.0)
        } else {
            continue;
        };
        if score >= threshold {
            out.push((i, med as u64, score));
        }
    }
    out
}

/// Rounds (from the pid-2 phase lanes) whose windows of the matching
/// phase kind overlap any of `intervals`. `ost_io` stragglers resolve
/// against `io` phases, everything else against `exchange` phases.
fn rounds_active(model: &TraceModel, intervals: &[(u64, u64)], bucket: &str) -> Vec<u64> {
    let want = if bucket == "ost_io" {
        PhaseKind::Io
    } else {
        PhaseKind::Exchange
    };
    let mut rounds = std::collections::BTreeSet::new();
    for s in model.pid_spans(PID_ROUNDS) {
        if model.phase(s) != Some(want) {
            continue;
        }
        let overlaps = intervals
            .iter()
            .any(|&(a, b)| a < s.end_ns() && s.start_ns < b);
        if !overlaps {
            continue;
        }
        if let Some(r) = round_of(model, s) {
            rounds.insert(r);
        }
    }
    rounds.into_iter().collect()
}

/// The round index of a phase span, from its `round` arg or its
/// `r<N>.<phase>` name.
fn round_of(model: &TraceModel, s: &mcio_obs::Span) -> Option<u64> {
    if let Some(Ok(r)) = model.arg(s, "round").map(str::parse) {
        return Some(r);
    }
    let name = model.text(s.name);
    name.strip_prefix('r')?.split('.').next()?.parse().ok()
}

/// Detect every straggling chain, aggregator, and OST in one trace,
/// sorted by score descending (ties broken by name ascending).
pub fn stragglers(model: &TraceModel) -> Vec<Straggler> {
    let mut out = Vec::new();

    // Chains: peer metric is the wall-clock extent; a straggling chain
    // inflates whichever phase dominates it.
    let chains = chain_summaries(model);
    let durations: Vec<u64> = chains.iter().map(|c| c.span_ns()).collect();
    for (i, med, score) in flag_outliers(&durations) {
        let c = &chains[i];
        let bucket = if c.io_ns >= c.exchange_ns {
            "ost_io"
        } else {
            "network_shuffle"
        };
        // The chain's own round windows of the inflated phase.
        let lane = model.lanes(PID_ROUNDS).iter().find(|l| l.tid == c.chain);
        let ivs: Vec<(u64, u64)> = lane
            .map_or(&[][..], |l| model.lane_spans(l))
            .iter()
            .map(|s| (s.start_ns, s.end_ns()))
            .collect();
        out.push(Straggler {
            kind: StragglerKind::Chain,
            name: format!("chain{}", c.chain),
            duration_ns: c.span_ns(),
            peer_median_ns: med,
            score,
            bucket,
            rounds: rounds_active(model, &ivs, bucket),
        });
    }

    // Aggregators: summed service time (I/O + shuffle) of those that
    // were served at all; the inflated bucket is whichever component
    // dominates.
    let aggs: Vec<_> = model
        .aggregators
        .iter()
        .filter(|a| !a.busy.is_empty())
        .collect();
    let durations: Vec<u64> = aggs
        .iter()
        .map(|a| a.totals.io_busy_ns + a.totals.msg_busy_ns)
        .collect();
    for (i, med, score) in flag_outliers(&durations) {
        let (a, t) = (aggs[i], &aggs[i].totals);
        let bucket = if t.io_busy_ns >= t.msg_busy_ns {
            "ost_io"
        } else {
            "network_shuffle"
        };
        out.push(Straggler {
            kind: StragglerKind::Aggregator,
            name: format!("agg{}", t.agg),
            duration_ns: durations[i],
            peer_median_ns: med,
            score,
            bucket,
            rounds: rounds_active(model, &a.busy, bucket),
        });
    }

    // OSTs: busy-union length per named storage lane; always inflates
    // ost_io.
    let osts: Vec<_> = model
        .lanes(PID_RESOURCES)
        .iter()
        .filter(|l| l.class == ResourceClass::Storage)
        .collect();
    let durations: Vec<u64> = osts.iter().map(|l| total_len(&l.busy)).collect();
    for (i, med, score) in flag_outliers(&durations) {
        out.push(Straggler {
            kind: StragglerKind::Ost,
            name: model.lane_name(osts[i]).unwrap_or_default().to_string(),
            duration_ns: durations[i],
            peer_median_ns: med,
            score,
            bucket: "ost_io",
            rounds: rounds_active(model, &osts[i].busy, "ost_io"),
        });
    }

    out.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.name.cmp(&b.name))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcio_obs::Trace;

    #[test]
    fn uniform_peers_flag_nothing() {
        let mut tc = Trace::default();
        for i in 0..4u64 {
            tc.name_thread(PID_RESOURCES, i, &format!("ost{i}"));
            tc.span("io.rank0", &format!("ost{i}"), PID_RESOURCES, i, 0, 1000);
        }
        assert!(stragglers(&TraceModel::new(tc)).is_empty());
    }

    #[test]
    fn small_peer_groups_are_never_flagged() {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        tc.name_thread(PID_RESOURCES, 1, "ost1");
        tc.span("a", "ost0", PID_RESOURCES, 0, 0, 100);
        tc.span("b", "ost1", PID_RESOURCES, 1, 0, 10_000);
        assert!(stragglers(&TraceModel::new(tc)).is_empty());
    }

    #[test]
    fn doubled_ost_among_uniform_peers_uses_ratio_fallback() {
        let mut tc = Trace::default();
        for i in 0..4u64 {
            tc.name_thread(PID_RESOURCES, i, &format!("ost{i}"));
        }
        tc.span("a", "c", PID_RESOURCES, 0, 0, 1000);
        tc.span("b", "c", PID_RESOURCES, 1, 0, 1000);
        tc.span("c", "c", PID_RESOURCES, 2, 0, 1000);
        tc.span("d", "c", PID_RESOURCES, 3, 0, 4000);
        // Round metadata so the straggler names the rounds it inflates.
        tc.span_with_args("r0.io", "io", PID_ROUNDS, 0, 0, 2000, &[("round", "0")]);
        tc.span_with_args("r1.io", "io", PID_ROUNDS, 0, 2000, 2000, &[("round", "1")]);
        let found = stragglers(&TraceModel::new(tc));
        assert_eq!(found.len(), 1, "{found:?}");
        let s = &found[0];
        assert_eq!(s.kind, StragglerKind::Ost);
        assert_eq!(s.name, "ost3");
        assert_eq!(s.duration_ns, 4000);
        assert_eq!(s.peer_median_ns, 1000);
        assert!((s.score - 4.0).abs() < 1e-9);
        assert_eq!(s.bucket, "ost_io");
        assert_eq!(s.rounds, vec![0, 1], "active in both io rounds");
        let line = s.describe();
        assert!(line.contains("ost ost3"), "{line}");
        assert!(line.contains("inflates ost_io in rounds 0-1"), "{line}");
    }

    #[test]
    fn mad_z_score_flags_only_the_far_outlier() {
        // Durations 100/110/120/130/500: median 120, MAD 10, so 500
        // scores (500-120)/14.826 ≈ 25.6 and 130 scores only ≈ 0.67.
        let mut tc = Trace::default();
        for (i, dur) in [100u64, 110, 120, 130, 500].iter().enumerate() {
            let i = i as u64;
            tc.name_thread(PID_RESOURCES, i, &format!("ost{i}"));
            tc.span("a", "c", PID_RESOURCES, i, 0, *dur);
        }
        let found = stragglers(&TraceModel::new(tc));
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].name, "ost4");
        assert!(found[0].score > 25.0 && found[0].score < 26.0);
    }

    #[test]
    fn aggregator_and_chain_stragglers_name_their_bucket() {
        let mut tc = Trace::default();
        tc.name_thread(PID_RESOURCES, 0, "ost0");
        // Three aggregators, one with 3x the io service time.
        tc.span("io.rank0", "c", PID_RESOURCES, 0, 0, 1000);
        tc.span("io.rank1", "c", PID_RESOURCES, 0, 1000, 1000);
        tc.span("io.rank2", "c", PID_RESOURCES, 0, 2000, 3000);
        // Three chains, one 3x longer.
        tc.name_thread(PID_ROUNDS, 0, "chain0");
        tc.name_thread(PID_ROUNDS, 1, "chain1");
        tc.name_thread(PID_ROUNDS, 2, "chain2");
        tc.span_with_args("r0.io", "io", PID_ROUNDS, 0, 0, 1500, &[("round", "0")]);
        tc.span_with_args("r0.io", "io", PID_ROUNDS, 1, 0, 1500, &[("round", "0")]);
        tc.span_with_args("r0.io", "io", PID_ROUNDS, 2, 0, 4500, &[("round", "0")]);
        let found = stragglers(&TraceModel::new(tc));
        let agg = found
            .iter()
            .find(|s| s.kind == StragglerKind::Aggregator)
            .expect("agg straggler");
        assert_eq!(agg.name, "agg2");
        assert_eq!(agg.bucket, "ost_io");
        assert_eq!(agg.rounds, vec![0]);
        let chain = found
            .iter()
            .find(|s| s.kind == StragglerKind::Chain)
            .expect("chain straggler");
        assert_eq!(chain.name, "chain2");
        assert_eq!(chain.bucket, "ost_io");
        assert_eq!(chain.duration_ns, 4500);
    }

    #[test]
    fn round_ranges_compress() {
        assert_eq!(format_rounds(&[]), "");
        assert_eq!(format_rounds(&[7]), "7");
        assert_eq!(format_rounds(&[4, 5, 6]), "4-6");
        assert_eq!(format_rounds(&[1, 3, 4, 8]), "1,3-4,8");
    }

    #[test]
    fn empty_trace_has_no_stragglers() {
        assert!(stragglers(&TraceModel::default()).is_empty());
    }
}
