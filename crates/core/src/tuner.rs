//! Empirical parameter determination (§3 preamble).
//!
//! The paper measures, per platform: the per-aggregator message size
//! `Msg_ind` that saturates one aggregator's path to the file system, the
//! aggregator count `N_ah` per node that saturates the node, and the
//! group message size `Msg_group` at which adding aggregators across the
//! network stops helping ("we empirically determined the number of
//! aggregators N_ah, message size Msg_ind per aggregator and the group
//! message size Msg_group"). This module reproduces those probe
//! measurements on the simulated machine, so configurations derive from
//! the machine model instead of magic numbers.

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::{Fabric, NodeId};
use mcio_des::{arg, Prefix, Simulation};
use mcio_pfs::{Extent, Pfs, Requester, Rw};

/// The tuned knobs for a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedParams {
    /// Saturating per-aggregator message size, bytes.
    pub msg_ind: u64,
    /// Aggregators per node before the node saturates.
    pub nah: usize,
    /// Group message size: enough aggregation work to saturate the PFS.
    pub msg_group: u64,
}

/// Bandwidth (MiB/s) of `naggs` concurrent aggregators on `nodes` nodes
/// each writing one `size`-byte contiguous message at distinct offsets.
fn probe_bandwidth(spec: &ClusterSpec, nodes: usize, naggs: usize, size: u64, rw: Rw) -> f64 {
    let mut sim = Simulation::new();
    let mut spec = spec.clone();
    spec.nodes = nodes.max(1);
    let fabric = Fabric::build(&mut sim, &spec);
    let pfs = Pfs::build(&mut sim, &spec);
    for a in 0..naggs {
        let node = NodeId(a % spec.nodes);
        let extent = Extent::new(a as u64 * size, size);
        pfs.submit(
            &mut sim,
            &fabric,
            Requester {
                prefix: Prefix::NONE,
                rank: arg(a),
            },
            node,
            rw,
            extent,
            &[],
        );
    }
    let report = sim.run().expect("probe DAG is acyclic");
    let elapsed = report.makespan().as_secs_f64();
    if elapsed == 0.0 {
        0.0
    } else {
        (naggs as u64 * size) as f64 / (1024.0 * 1024.0) / elapsed
    }
}

/// Find `Msg_ind`: the smallest power-of-two message size at which a
/// single aggregator reaches at least `threshold` (e.g. 0.9) of its
/// plateau bandwidth.
pub fn tune_msg_ind(spec: &ClusterSpec, rw: Rw, threshold: f64) -> u64 {
    const MIB: u64 = 1 << 20;
    let plateau = probe_bandwidth(spec, 1, 1, 1024 * MIB, rw);
    let mut size = MIB;
    while size < 1024 * MIB {
        if probe_bandwidth(spec, 1, 1, size, rw) >= threshold * plateau {
            return size;
        }
        size *= 2;
    }
    size
}

/// Find `N_ah`: how many concurrent aggregators on one node still help
/// (stop when an extra aggregator improves node throughput by less than
/// `min_gain`, e.g. 0.05).
pub fn tune_nah(spec: &ClusterSpec, msg_ind: u64, rw: Rw, min_gain: f64) -> usize {
    let mut best = probe_bandwidth(spec, 1, 1, msg_ind, rw);
    let mut nah = 1usize;
    while nah < spec.node.cores.max(1) {
        let next = probe_bandwidth(spec, 1, nah + 1, msg_ind, rw);
        if next < best * (1.0 + min_gain) {
            break;
        }
        best = next;
        nah += 1;
    }
    nah
}

/// Find `Msg_group`: grow the number of aggregators (spread over nodes,
/// `N_ah` per node) until system throughput stops improving; the group
/// size is that aggregator count times `Msg_ind`.
pub fn tune_msg_group(spec: &ClusterSpec, msg_ind: u64, nah: usize, rw: Rw, min_gain: f64) -> u64 {
    let mut naggs = 1usize;
    let mut best = probe_bandwidth(spec, 1, 1, msg_ind, rw);
    loop {
        let next_naggs = naggs * 2;
        let nodes = next_naggs.div_ceil(nah.max(1)).min(spec.nodes.max(1));
        let next = probe_bandwidth(spec, nodes, next_naggs, msg_ind, rw);
        if next < best * (1.0 + min_gain) || next_naggs > 4096 {
            break;
        }
        best = next;
        naggs = next_naggs;
    }
    naggs as u64 * msg_ind
}

/// Incrementally re-solve the §3 knobs from live degradation signals
/// instead of re-running the probe sweep mid-collective.
///
/// The controller calls this between rounds with the severity in
/// `[0, 1]` it sampled from the fault plan. Two properties make it safe
/// to run in a loop:
///
/// * **Hysteresis** — at or below the policy's dead band the output is
///   exactly `base`, so a mildly-degraded machine never oscillates
///   between plans.
/// * **Monotonicity** — beyond the band, `msg_group` shrinks
///   monotonically (non-increasing) in severity: a sicker machine gets
///   finer-grained rounds, never coarser, and repeated re-tunes at the
///   same severity are idempotent.
///
/// The result stays quantized: `msg_group` is a positive multiple of
/// `msg_ind` (clamped down to `msg_group` itself when one quantum
/// would exceed it), so re-split chunk boundaries remain exact.
pub fn retune_from_signals(
    base: TunedParams,
    sev: f64,
    policy: crate::adaptive::AdaptivePolicy,
) -> TunedParams {
    let band = policy.dead_band();
    if policy.is_off() || sev <= band {
        return base;
    }
    let scale = 1.0 / (1.0 + policy.retune_gain() * (sev - band));
    let quantum = base.msg_ind.min(base.msg_group).max(1);
    let scaled = (base.msg_group as f64 * scale) as u64;
    let msg_group = (scaled / quantum).max(1) * quantum;
    TunedParams {
        msg_ind: base.msg_ind.min(msg_group),
        nah: base.nah,
        msg_group,
    }
}

/// Run the full §3 calibration for a machine.
pub fn tune(spec: &ClusterSpec, rw: Rw) -> TunedParams {
    let msg_ind = tune_msg_ind(spec, rw, 0.9);
    let nah = tune_nah(spec, msg_ind, rw, 0.05);
    let msg_group = tune_msg_group(spec, msg_ind, nah, rw, 0.05);
    TunedParams {
        msg_ind,
        nah,
        msg_group,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    #[test]
    fn probe_bandwidth_monotone_in_size() {
        let spec = ClusterSpec::small(2, 2);
        let small = probe_bandwidth(&spec, 1, 1, 64 * 1024, Rw::Write);
        let big = probe_bandwidth(&spec, 1, 1, 64 * MIB, Rw::Write);
        assert!(
            big > small,
            "large messages should amortize overhead: {big} vs {small}"
        );
    }

    #[test]
    fn msg_ind_is_reasonable() {
        let spec = ClusterSpec::small(2, 2);
        let msg_ind = tune_msg_ind(&spec, Rw::Write, 0.9);
        // Must be beyond the overhead-dominated region but bounded.
        assert!(msg_ind >= MIB, "msg_ind {msg_ind}");
        assert!(msg_ind <= 1024 * MIB, "msg_ind {msg_ind}");
        // At msg_ind, bandwidth ≥ 90% of plateau by construction.
        let plateau = probe_bandwidth(&spec, 1, 1, 1024 * MIB, Rw::Write);
        let at = probe_bandwidth(&spec, 1, 1, msg_ind, Rw::Write);
        assert!(at >= 0.9 * plateau);
    }

    #[test]
    fn nah_at_least_one_and_bounded() {
        let spec = ClusterSpec::small(2, 4);
        let msg_ind = tune_msg_ind(&spec, Rw::Write, 0.9);
        let nah = tune_nah(&spec, msg_ind, Rw::Write, 0.05);
        assert!(nah >= 1);
        assert!(nah <= spec.node.cores);
    }

    #[test]
    fn msg_group_multiple_of_msg_ind() {
        let spec = ClusterSpec::small(4, 2);
        let msg_ind = 16 * MIB;
        let group = tune_msg_group(&spec, msg_ind, 2, Rw::Write, 0.05);
        assert_eq!(group % msg_ind, 0);
        assert!(group >= msg_ind);
    }

    #[test]
    fn full_tune_consistent() {
        let spec = ClusterSpec::small(4, 2);
        let t = tune(&spec, Rw::Write);
        assert!(t.msg_group >= t.msg_ind);
        assert!(t.nah >= 1);
    }

    #[test]
    fn tune_deterministic_across_repeated_probes() {
        // The probes are pure DES runs — no clocks, no RNG — so the
        // calibration must replay bit-identically, read and write.
        let spec = ClusterSpec::small(4, 2);
        for rw in [Rw::Write, Rw::Read] {
            assert_eq!(tune(&spec, rw), tune(&spec, rw));
            let a = probe_bandwidth(&spec, 2, 3, 8 * MIB, rw);
            let b = probe_bandwidth(&spec, 2, 3, 8 * MIB, rw);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn msg_ind_monotone_in_overheads() {
        // Scaling the per-message and per-request overheads up forces
        // larger messages to amortize them: the saturating size never
        // shrinks, and grows across the sweep.
        use mcio_des::SimDuration;
        let base = ClusterSpec::small(4, 2);
        let mut prev = 0;
        let mut sizes = Vec::new();
        for mult in [1u64, 4, 16, 64, 256] {
            let mut spec = base.clone();
            spec.ost_request_overhead =
                SimDuration::from_nanos(base.ost_request_overhead.as_nanos() * mult);
            spec.message_overhead =
                SimDuration::from_nanos(base.message_overhead.as_nanos() * mult);
            let msg_ind = tune_msg_ind(&spec, Rw::Write, 0.9);
            assert!(
                msg_ind >= prev,
                "msg_ind shrank under higher overhead: {msg_ind} < {prev} at x{mult}"
            );
            prev = msg_ind;
            sizes.push(msg_ind);
        }
        assert!(
            sizes.last() > sizes.first(),
            "msg_ind never responded to a 256x overhead increase: {sizes:?}"
        );
    }

    #[test]
    fn msg_group_monotone_in_io_servers() {
        // More I/O servers means more aggregators keep helping before
        // the PFS saturates: the group size never shrinks as servers
        // are added, and grows across the sweep.
        let base = ClusterSpec::small(4, 2);
        let mut prev = 0;
        let mut groups = Vec::new();
        for servers in [1usize, 2, 4, 8, 16] {
            let mut spec = base.clone();
            spec.io_servers = servers;
            let group = tune_msg_group(&spec, 16 * MIB, 2, Rw::Write, 0.05);
            assert!(
                group >= prev,
                "msg_group shrank with more servers: {group} < {prev} at {servers}"
            );
            prev = group;
            groups.push(group);
        }
        assert!(
            groups.last() > groups.first(),
            "msg_group never responded to 16x more servers: {groups:?}"
        );
    }

    #[test]
    fn retune_noop_inside_dead_band() {
        use crate::adaptive::{severity, AdaptivePolicy};
        use mcio_faults::FaultSpec;
        let base = TunedParams {
            msg_ind: 16 * MIB,
            nah: 2,
            msg_group: 256 * MIB,
        };
        // 20% time-weighted deficit: inside the conservative band
        // (0.25), outside the aggressive one (0.10).
        let spec = FaultSpec::parse("seed 1\nost_slow(0, 5.0, 0ms..10ms)").unwrap();
        let sev = severity(&spec, 1, 40_000_000);
        assert!((sev - 0.2).abs() < 1e-9, "{sev}");
        assert_eq!(
            retune_from_signals(base, sev, AdaptivePolicy::Conservative),
            base,
            "dead band must be an exact no-op"
        );
        assert_eq!(retune_from_signals(base, sev, AdaptivePolicy::Off), base);
        let tuned = retune_from_signals(base, sev, AdaptivePolicy::Aggressive);
        assert!(tuned.msg_group < base.msg_group);
        assert_eq!(tuned.msg_group % tuned.msg_ind, 0, "quantized");
    }

    #[test]
    fn retune_monotone_in_severity() {
        use crate::adaptive::{severity, AdaptivePolicy};
        use mcio_faults::FaultSpec;
        let base = TunedParams {
            msg_ind: 4 * MIB,
            nah: 2,
            msg_group: 512 * MIB,
        };
        for policy in [AdaptivePolicy::Conservative, AdaptivePolicy::Aggressive] {
            let mut prev = u64::MAX;
            for tenths in 1..=9u64 {
                // Stall for `tenths`/10 of the horizon: severity rises
                // in exact 0.1 steps.
                let spec =
                    FaultSpec::parse(&format!("seed 1\nost_stall(0, 0ms..{}ms)", tenths * 10))
                        .unwrap();
                let sev = severity(&spec, 1, 100_000_000);
                let tuned = retune_from_signals(base, sev, policy);
                assert!(
                    tuned.msg_group <= prev,
                    "{policy:?}: msg_group grew with severity: {} > {prev}",
                    tuned.msg_group
                );
                assert!(tuned.msg_group >= 1);
                assert_eq!(tuned.msg_group % tuned.msg_ind, 0);
                assert!(tuned.msg_ind <= base.msg_ind);
                assert_eq!(tuned.nah, base.nah);
                // Idempotent at fixed severity.
                assert_eq!(retune_from_signals(base, sev, policy), tuned);
                prev = tuned.msg_group;
            }
            assert!(
                prev < base.msg_group,
                "{policy:?} never shrank the group size"
            );
        }
    }

    #[test]
    fn table1_machines_tune_to_pinned_params() {
        // Regression pin for the Table-1 machines: these values are a
        // contract of the machine model — if a resource-model change
        // moves them, the paper-facing calibration moved too, and the
        // change needs a deliberate re-pin.
        let ex = tune(&ClusterSpec::exascale_2018(), Rw::Write);
        assert_eq!(
            ex,
            TunedParams {
                msg_ind: 128 * MIB,
                nah: 2,
                msg_group: 512 * 1024 * MIB,
            }
        );
        let peta = tune(&ClusterSpec::petascale_2010(), Rw::Write);
        assert_eq!(
            peta,
            TunedParams {
                msg_ind: 16 * MIB,
                nah: 2,
                msg_group: 32 * 1024 * MIB,
            }
        );
    }
}
