//! Overlapping-node tenancy conformance.
//!
//! `fixtures/overlap.mtspec` is the repo's first shared-node exhibit:
//! two tenants whose node partitions intersect, so the shared nodes
//! host aggregators of both jobs at once. The contracts:
//!
//! * the fixture parses and its partitions really do overlap;
//! * sharing nodes perturbs *time*, never *data* — every job still
//!   delivers exactly its solo file bytes, under the static runner and
//!   under every adaptive policy;
//! * `AdaptivePolicy::Off` is the static runner — it leaves no
//!   controller footprint — and adaptive runs replay deterministically,
//!   trace bytes included.

use mcio_bench::mtspec::{JobSpec, MtSpec};
use mcio_core::exec_sim::Observe;
use mcio_core::{
    exec_fn, run_multitenant, AdaptiveOutcome, AdaptivePolicy, CollectiveRequest, Extent, Rw,
};
use mcio_pfs::SparseFile;
use mcio_workloads::Ior;

fn fixture() -> MtSpec {
    MtSpec::parse(include_str!("fixtures/overlap.mtspec")).expect("overlap fixture parses")
}

/// The fixture jobs are plain IOR writes; rebuild each job's request
/// (shifted onto its file region) so the written bytes can be checked
/// against the workload oracle.
fn request_of(job: &JobSpec) -> CollectiveRequest {
    let d = &job.desc;
    assert_eq!(d.workload, "ior", "fixture uses ior jobs");
    let req = Ior::paper(d.ranks, d.per_proc, d.segments).request(Rw::Write);
    CollectiveRequest::new(
        req.rw,
        req.ranks
            .iter()
            .map(|r| {
                r.extents
                    .iter()
                    .map(|e| Extent::new(e.offset + job.base, e.len))
                    .collect()
            })
            .collect(),
    )
}

#[test]
fn fixture_partitions_really_overlap() {
    let spec = fixture();
    assert_eq!(spec.jobs.len(), 2);
    let range = |j: &JobSpec| {
        let nnodes = j.desc.ranks.div_ceil(j.desc.ppn);
        (j.node_offset, j.node_offset + nnodes)
    };
    let (a_lo, a_hi) = range(&spec.jobs[0]);
    let (b_lo, b_hi) = range(&spec.jobs[1]);
    assert!(
        a_lo < b_hi && b_lo < a_hi,
        "partitions {a_lo}..{a_hi} and {b_lo}..{b_hi} must share nodes"
    );
    assert!(
        spec.faults.is_some(),
        "fixture carries a fault plan for the adaptive exercise"
    );
}

#[test]
fn shared_nodes_perturb_time_never_data() {
    let spec = fixture();
    let jobs = spec.build_jobs();
    for policy in [
        AdaptivePolicy::Off,
        AdaptivePolicy::Conservative,
        AdaptivePolicy::Aggressive,
    ] {
        let mt = run_multitenant(
            &jobs,
            &spec.machine,
            spec.faults.as_ref(),
            policy,
            Observe::default(),
        );
        assert_eq!(mt.jobs.len(), 2);
        for (ji, outcome) in mt.jobs.iter().enumerate() {
            // The bytes a job writes are a property of its plan; the
            // shared machine and the controller must not change them.
            let req = request_of(&spec.jobs[ji]);
            let mut file = SparseFile::new();
            exec_fn::execute_write(&jobs[ji].plan, &mut file).expect("plan executes");
            exec_fn::verify_write(&req, &file).expect("written bytes match the oracle");
            assert!(
                outcome.slowdown >= 1.0 - 1e-9,
                "policy {}: job {ji} sped up past its solo run: {}",
                policy.label(),
                outcome.slowdown
            );
            assert!(outcome.end_ns >= outcome.start_ns);
        }
    }
}

#[test]
fn off_policy_leaves_no_controller_footprint() {
    let spec = fixture();
    let jobs = spec.build_jobs();
    let run = |policy| {
        let obs = Observe {
            trace: true,
            ..Observe::default()
        };
        run_multitenant(&jobs, &spec.machine, spec.faults.as_ref(), policy, obs)
    };
    // The static path: nothing sampled, nothing gated, no replan lanes.
    // The same jobs under a live policy show all three.
    let off = run(AdaptivePolicy::Off);
    assert!(off
        .jobs
        .iter()
        .all(|j| j.adaptive == AdaptiveOutcome::default()));
    assert!(!off.trace.expect("traced").contains("\"replan\""));
    let live = run(AdaptivePolicy::Aggressive);
    assert!(live.jobs.iter().any(|j| j.adaptive.deferrals > 0));
    assert!(live.trace.expect("traced").contains("\"replan\""));
}

#[test]
fn adaptive_runs_replay_deterministically() {
    let spec = fixture();
    let jobs = spec.build_jobs();
    let run = || {
        run_multitenant(
            &jobs,
            &spec.machine,
            spec.faults.as_ref(),
            AdaptivePolicy::Aggressive,
            Observe {
                registry: None,
                trace: true,
                prof: None,
                ..Observe::default()
            },
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.jobs, b.jobs, "outcomes must replay identically");
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.trace, b.trace, "trace bytes must replay identically");
}
