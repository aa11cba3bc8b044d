//! Property-based tests of the observability layer: metric byte
//! conservation and trace-file well-formedness for random access
//! patterns.

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::{
    mcio, run_multitenant, simulate_observed, twophase, AdaptivePolicy, CollectiveConfig,
    CollectiveRequest, Exchange, Extent, Observe, Pipeline, ProcMemory, Rw, TenantJob,
};
use mcio_obs::{json, Registry};
use proptest::prelude::*;
use std::sync::Arc;

/// A small random collective: `ranks` ranks, each with a handful of
/// extents carved out of a shared file region.
fn random_request(rw: Rw, ranks: usize, seeds: &[u64]) -> CollectiveRequest {
    let mut per_rank = Vec::with_capacity(ranks);
    for r in 0..ranks {
        let mut extents = Vec::new();
        let mut pos = (seeds[r % seeds.len()] % 8192) + r as u64 * 100_000;
        let n = 1 + (seeds[(r + 1) % seeds.len()] as usize % 4);
        // Extent sizes are bounded so each rank stays inside its own
        // 100 kB region: overlapping writes would legitimately dedup
        // in the plan and break exact byte conservation.
        for k in 0..n {
            let len = 512 + (seeds[(r + k) % seeds.len()] % 16_000);
            extents.push(Extent::new(pos, len));
            pos += len + (seeds[(r + k + 1) % seeds.len()] % 4096);
        }
        per_rank.push(extents);
    }
    CollectiveRequest::new(rw, per_rank)
}

fn observed_run(req: &CollectiveRequest, mc: bool) -> (Arc<Registry>, String, u64) {
    let ranks = req.nranks();
    let map = ProcessMap::block_ppn(ranks, 4);
    let mut spec = ClusterSpec::small(map.nnodes(), 4);
    spec.nodes = spec.nodes.max(map.nnodes());
    let env = ProcMemory::uniform(ranks, 1 << 20);
    let cfg = CollectiveConfig::with_buffer(1 << 20);
    let plan = if mc {
        mcio::plan(req, &map, &env, &cfg)
    } else {
        twophase::plan(req, &map, &env, &cfg)
    };
    plan.check(req).expect("plan sound");
    let plan_io_bytes: u64 = plan.groups.iter().map(|g| g.io_bytes()).sum();
    let reg = Arc::new(Registry::new());
    let (_, trace) = simulate_observed(
        &plan,
        &map,
        &spec,
        Pipeline::Serial,
        Exchange::Direct,
        Observe {
            registry: Some(&reg),
            trace: true,
            prof: None,
            ..Observe::default()
        },
    );
    (reg, trace.expect("trace requested"), plan_io_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bytes are conserved end to end: the planner's I/O byte counter,
    /// the PFS per-OST byte counters, and the request's own total all
    /// agree, for random patterns under both strategies.
    #[test]
    fn metrics_conserve_bytes(
        ranks in 2usize..24,
        s0 in 1u64..u64::MAX,
        s1 in 1u64..u64::MAX,
        s2 in 1u64..u64::MAX,
        mc in any::<bool>(),
        write in any::<bool>(),
    ) {
        let rw = if write { Rw::Write } else { Rw::Read };
        let req = random_request(rw, ranks, &[s0, s1, s2]);
        let (reg, _, plan_io_bytes) = observed_run(&req, mc);
        prop_assert_eq!(plan_io_bytes, req.total_bytes());
        // Planner counter == plan bytes.
        prop_assert_eq!(reg.counter_total("plan.io_bytes"), plan_io_bytes);
        // Every planned byte reached the file system exactly once.
        prop_assert_eq!(reg.counter_total("pfs.ost.bytes"), plan_io_bytes);
        // The run-level counter agrees too.
        prop_assert_eq!(reg.counter_total("run.bytes"), plan_io_bytes);
        // Shuffle traffic can't exceed the payload: every message byte
        // is a request byte moving to (or from) its aggregator once.
        prop_assert!(reg.counter_total("plan.message_bytes") <= plan_io_bytes);
    }

    /// The exported Chrome trace parses with the crate's own JSON
    /// parser, and complete events never overlap within one lane
    /// (pid, tid): each resource serves one activity at a time and
    /// each chain runs its phases in sequence.
    #[test]
    fn trace_is_valid_and_lanes_do_not_overlap(
        ranks in 2usize..16,
        s0 in 1u64..u64::MAX,
        s1 in 1u64..u64::MAX,
        write in any::<bool>(),
    ) {
        let rw = if write { Rw::Write } else { Rw::Read };
        let req = random_request(rw, ranks, &[s0, s1, 7]);
        let (_, trace, _) = observed_run(&req, true);
        let doc = json::parse(&trace).expect("trace is valid JSON");
        let events = doc.as_array().expect("trace is a JSON array");
        prop_assert!(!events.is_empty());
        let mut lanes: std::collections::BTreeMap<(u64, u64), Vec<(f64, f64)>> =
            std::collections::BTreeMap::new();
        for ev in events {
            let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph field");
            match ph {
                "M" => continue, // metadata
                "X" => {
                    let pid = ev.get("pid").and_then(|v| v.as_f64()).expect("pid") as u64;
                    let tid = ev.get("tid").and_then(|v| v.as_f64()).expect("tid") as u64;
                    let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts");
                    let dur = ev.get("dur").and_then(|v| v.as_f64()).expect("dur");
                    prop_assert!(ts >= 0.0 && dur >= 0.0);
                    lanes.entry((pid, tid)).or_default().push((ts, ts + dur));
                }
                other => prop_assert!(false, "unexpected event phase {}", other),
            }
        }
        prop_assert!(!lanes.is_empty(), "trace has no complete events");
        for ((pid, tid), mut spans) in lanes {
            spans.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for w in spans.windows(2) {
                // Strict ordering up to the exporter's 1ns/1000 = 0.001us
                // rounding granularity.
                prop_assert!(
                    w[1].0 >= w[0].1 - 0.0015,
                    "overlap in lane pid={} tid={}: {:?} then {:?}",
                    pid, tid, w[0], w[1]
                );
            }
        }
    }

    /// Round-phase spans (pid 2) never dangle over dead time: every
    /// phase interval is covered by the union of resource service
    /// spans (pid 1), except for gaps no longer than one wire latency
    /// (a message in flight occupies no lane). This is the invariant
    /// that makes critical-path attribution meaningful — whenever a
    /// chain claims to be exchanging or doing I/O, some membus, NIC,
    /// or OST is actually serving it (or a message is on the wire).
    #[test]
    fn round_phases_are_covered_by_resource_spans(
        ranks in 2usize..16,
        s0 in 1u64..u64::MAX,
        s1 in 1u64..u64::MAX,
        mc in any::<bool>(),
        write in any::<bool>(),
    ) {
        let rw = if write { Rw::Write } else { Rw::Read };
        let req = random_request(rw, ranks, &[s0, s1, 13]);
        let (_, trace, _) = observed_run(&req, mc);
        let doc = json::parse(&trace).expect("trace is valid JSON");
        let events = doc.as_array().expect("trace is a JSON array");
        // Nanosecond intervals per pid (ts/dur are microsecond floats
        // with exact 0.001 us granularity).
        let ns = |v: f64| (v * 1000.0).round() as u64;
        let mut resources: Vec<(u64, u64)> = Vec::new();
        let mut phases: Vec<(String, u64, u64)> = Vec::new();
        for ev in events {
            if ev.get("ph").and_then(|v| v.as_str()) != Some("X") {
                continue;
            }
            let pid = ev.get("pid").and_then(|v| v.as_f64()).expect("pid") as u64;
            let ts = ns(ev.get("ts").and_then(|v| v.as_f64()).expect("ts"));
            let dur = ns(ev.get("dur").and_then(|v| v.as_f64()).expect("dur"));
            match pid {
                1 => resources.push((ts, ts + dur)),
                2 => {
                    let name = ev.get("name").and_then(|v| v.as_str()).expect("name");
                    phases.push((name.to_string(), ts, ts + dur));
                }
                other => prop_assert!(false, "unexpected pid {}", other),
            }
        }
        prop_assert!(!phases.is_empty(), "no round-phase spans");
        // Merge the resource intervals into a disjoint union.
        resources.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (s, e) in resources {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        // The only legitimate all-idle time inside a phase is a message
        // on the wire: one one-way latency, plus exporter rounding.
        let max_gap = ClusterSpec::small(1, 4).node.nic_latency.as_nanos() + 4;
        for (name, start, end) in phases {
            let mut cursor = start;
            let mut worst = 0u64;
            for &(s, e) in &merged {
                if e <= start || s >= end {
                    continue;
                }
                let s = s.max(start);
                if s > cursor {
                    worst = worst.max(s - cursor);
                }
                cursor = cursor.max(e.min(end));
            }
            if end > cursor {
                worst = worst.max(end - cursor);
            }
            prop_assert!(
                worst <= max_gap,
                "phase {} [{start}, {end}) has a {worst} ns all-idle gap (max allowed {max_gap})",
                name
            );
        }
    }
}

/// The `tenant.*` rows of the metrics dump (`mcio_cli multitenant` has
/// no `--metrics`, so no document fixture carries them): two one-rank
/// jobs writing the same stripe, so the second queues behind the first
/// on `ost0`.
#[test]
fn tenant_rows_of_a_two_job_run_are_pinned() {
    let spec = ClusterSpec::small(2, 1);
    let map = ProcessMap::block_ppn(1, 1);
    let env = ProcMemory::uniform(1, 1 << 20);
    let cfg = CollectiveConfig::with_buffer(1 << 20);
    let req = CollectiveRequest::new(Rw::Write, vec![vec![Extent::new(0, 4096)]]);
    let jobs = [
        TenantJob::new("a", mcio::plan(&req, &map, &env, &cfg), map.clone()),
        TenantJob::new("b", twophase::plan(&req, &map, &env, &cfg), map.clone()).node_offset(1),
    ];
    let reg = Arc::new(Registry::new());
    run_multitenant(
        &jobs,
        &spec,
        None,
        AdaptivePolicy::Off,
        Observe {
            registry: Some(&reg),
            ..Observe::default()
        },
    );
    let dump = mcio_obs::export::to_json(&reg.snapshot());
    let tenant_rows: Vec<&str> = dump
        .lines()
        .filter(|l| l.contains("\"name\":\"tenant."))
        .collect();
    assert_eq!(
        tenant_rows,
        [
            r#"    {"name":"tenant.jobs","labels":{},"value":2,"unit":"count","help":"Concurrent jobs in the run"},"#,
            r#"    {"name":"tenant.makespan_ns","labels":{},"value":1087081,"unit":"ns","help":"Shared-machine makespan"},"#,
            r#"    {"name":"tenant.ost_overlap_frac","labels":{"job":"a","strategy":"memory-conscious"},"value":0,"unit":"ratio","help":"Per-job fraction of OST service time overlapping other tenants"},"#,
            r#"    {"name":"tenant.ost_overlap_frac","labels":{"job":"b","strategy":"two-phase"},"value":0,"unit":"ratio","help":"Per-job fraction of OST service time overlapping other tenants"},"#,
            r#"    {"name":"tenant.slowdown","labels":{"job":"a","strategy":"memory-conscious"},"value":1,"unit":"ratio","help":"Per-job span over solo elapsed (interference cost)"},"#,
            r#"    {"name":"tenant.slowdown","labels":{"job":"b","strategy":"two-phase"},"value":1.9836556761718116,"unit":"ratio","help":"Per-job span over solo elapsed (interference cost)"},"#,
            r#"    {"name":"tenant.solo_elapsed_ns","labels":{"job":"a","strategy":"memory-conscious"},"value":548019,"unit":"ns","help":"Per-job elapsed when simulated alone on the same nodes"},"#,
            r#"    {"name":"tenant.solo_elapsed_ns","labels":{"job":"b","strategy":"two-phase"},"value":548019,"unit":"ns","help":"Per-job elapsed when simulated alone on the same nodes"}"#,
        ]
    );
}
