//! Closed-loop adaptation gate: fault matrix × tenant count × policy.
//!
//! Three sections exercise `mcio_core::adaptive` end to end:
//!
//! * **solo** — a degraded-OST fault matrix (clean, one slow OST, two
//!   slow OSTs, two slow OSTs plus a memory shock) crossed with every
//!   [`AdaptivePolicy`] on the memory-conscious plan. Every cell must
//!   terminate with an executed plan that still passes `check()`, and a
//!   completed cell must write the fault-free golden bytes — the
//!   controller re-plans *time*, never *data*.
//! * **tenants** — the contention-suite roster (1, 2, 4, 8 IOR tenants
//!   on a shared 32-node machine) under the degraded-OST row, crossed
//!   with every policy. The headline gate lives here: at 8 tenants the
//!   adaptive controller's mean slowdown must be *strictly below* the
//!   static run's — closing the loop has to pay for itself on the
//!   contended, degraded machine.
//! * **overlap** — the shared-node tenancy exhibit
//!   (`tests/fixtures/overlap.mtspec`), where two tenants' node
//!   partitions intersect, run under every policy.
//!
//! Cells fan across `--jobs N` workers via the sweep engine; validation
//! and output follow canonical cell order, so the `mcio.adaptation.v1`
//! document written to `--out FILE` (default
//! `BENCH_adaptation_suite.json`) is identical at any `--jobs` value.
//! One traced re-run of the 8-tenant aggressive cell writes its replan
//! lanes (pid 5) to `--trace FILE` (default
//! `BENCH_adaptation_trace.json`) for `mcio-analyze` attribution, and
//! an untraced re-run pins byte-determinism of the document fragment.
//!
//! Violated assertions print one line and exit 1; flags and usage
//! errors are `mcio_bench::cli::ADAPTATION_SUITE`'s.

use mcio_bench::mtspec::{self, JobSpec, MtSpec};
use mcio_bench::suite::{self, run_cells, written_bytes, CellOutcome};
use mcio_bench::{cli, Cell, Harness};
use mcio_cluster::spec::ClusterSpec;
use mcio_core::exec_sim::Observe;
use mcio_core::{
    exec_fn, run_multitenant, AdaptivePolicy, CollectiveConfig, CollectivePlan, CollectiveRequest,
    Extent, FaultOutcome, MultiTenantReport, Rw, Strategy, TenantJob,
};
use mcio_faults::FaultSpec;
use mcio_obs::doc::Writer;
use mcio_pfs::SparseFile;

const POLICIES: [AdaptivePolicy; 3] = [
    AdaptivePolicy::Off,
    AdaptivePolicy::Conservative,
    AdaptivePolicy::Aggressive,
];
/// Tenant counts of the shared-machine section.
const TENANTS: [usize; 4] = [1, 2, 4, 8];
const MIB: u64 = 1 << 20;

/// The degraded-OST row the tenant and overlap sections run under: two
/// of the machine's four OSTs serve at 1/40 rate while the tenants are
/// in flight — a sharp brown-out. Rounds issued inside the window
/// crawl far past its end, so deferring past the exit and running at
/// nominal rate wins decisively; the static run pays the full crawl.
const DEGRADED_ROW: &str =
    "seed 11\nost_slow(0, 40.0, 0ns..400ms)\nost_slow(1, 40.0, 0ns..400ms)\n";

fn fail(msg: &str) -> ! {
    suite::fail("adaptation_suite", msg)
}

/// The solo fault matrix: progressively degraded rows on one machine.
fn solo_matrix() -> Vec<(&'static str, String)> {
    vec![
        ("clean", "seed 11\n".into()),
        (
            "degraded-1ost",
            "seed 11\nost_slow(0, 40.0, 0ns..400ms)\n".into(),
        ),
        ("degraded-2ost", DEGRADED_ROW.into()),
        (
            "degraded+shock",
            format!("{DEGRADED_ROW}mem_shock(0, 0.50, 1ms)\n"),
        ),
    ]
}

/// What the canonical-order loop keeps of a cell.
struct Run {
    policy: AdaptivePolicy,
    row: Row,
    mean_slowdown: f64,
}

/// What a cell's document row is written from.
enum Row {
    /// A solo cell: fault-row name and the run.
    Solo(&'static str, Box<FaultOutcome>),
    /// A shared-machine cell; `true` for the tenant section, whose rows
    /// carry the tenant count and one row per job.
    Shared(MultiTenantReport, bool),
}

fn write_row(r: &mut Writer, cell: &Run) {
    match &cell.row {
        Row::Solo(fault, out) => {
            let a = &out.adaptive;
            r.text("fault", fault);
            r.text("policy", cell.policy.label());
            r.uint("elapsed_ns", out.report.elapsed.as_nanos());
            r.flag("completed", out.completed);
            r.float("severity", a.severity, 6);
            r.uint("deferrals", a.deferrals as u64);
            r.uint("demotions", a.demotions as u64);
            r.uint("resplits", a.resplits as u64);
            r.opt("msg_group", a.retuned, Writer::pair);
        }
        Row::Shared(mt, per_job) => {
            if *per_job {
                r.uint("tenants", mt.jobs.len() as u64);
            }
            r.text("policy", cell.policy.label());
            r.uint("makespan_ns", mt.makespan.as_nanos());
            r.float("mean_slowdown", cell.mean_slowdown, 6);
            r.uint("deferrals", deferrals(mt) as u64);
            if *per_job {
                r.rows("jobs", &mt.jobs, mtspec::write_job);
            }
        }
    }
}

/// The `mcio.adaptation.v1` document over `sections` (all three for
/// the artifact, one single-cell section for the determinism check).
fn document(sections: &[(&str, &[Run])]) -> String {
    let mut w = Writer::document();
    w.schema("mcio.adaptation.v1");
    w.text("machine", "small-32x2");
    for (name, cells) in sections {
        w.rows(name, cells, write_row);
    }
    w.finish()
}

/// One solo cell: `plan` (the cell's own, held by the caller) under
/// fault row `fault` and `policy`; `golden` is the fault-free image.
fn run_solo_cell(
    cell: &Cell,
    plan: &CollectivePlan,
    golden: &[u8],
    (fault, text): &(&'static str, String),
    policy: AdaptivePolicy,
) -> CellOutcome<Run> {
    let fspec = FaultSpec::parse(text).unwrap_or_else(|e| fail(&format!("fault row {fault}: {e}")));
    if let Err(e) = fspec.validate_targets(cell.spec.io_servers, cell.spec.nodes) {
        fail(&format!("fault row {fault}: {e}"));
    }
    let out = cell.run_faulted(plan, &fspec, policy, Observe::default());
    let mut errors = Vec::new();
    if let Err(e) = out.executed_plan.check(cell.req) {
        errors.push(format!(
            "{fault}/{}: executed plan violates the plan contract: {e:?}",
            policy.label()
        ));
    }
    let image = written_bytes(&out.executed_plan, golden.len() as u64);
    if out.completed && image.as_deref() != Ok(golden) {
        errors.push(format!(
            "{fault}/{}: completed run wrote bytes that differ from the fault-free image",
            policy.label()
        ));
    }
    if !out.completed {
        errors.push(format!(
            "{fault}/{}: degraded-OST rows have no structural faults, the run must complete",
            policy.label()
        ));
    }
    let a = &out.adaptive;
    let line = format!(
        "solo {fault:<15} {:<12} elapsed {:>10.3} ms  severity {:>5.3}  \
         defer {} demote {} resplit {}{}",
        policy.label(),
        out.report.elapsed.as_nanos() as f64 / 1e6,
        a.severity,
        a.deferrals,
        a.demotions,
        a.resplits,
        match a.retuned {
            Some((old, new)) => format!("  msg_group {old} -> {new}"),
            None => String::new(),
        },
    );
    let run = Run {
        policy,
        row: Row::Solo(fault, Box::new(out)),
        mean_slowdown: 0.0,
    };
    CellOutcome { line, errors, run }
}

fn deferrals(mt: &MultiTenantReport) -> usize {
    mt.jobs.iter().map(|j| j.adaptive.deferrals).sum()
}

fn run_tenant_cell(
    tenants: usize,
    policy: AdaptivePolicy,
    specs: &[JobSpec],
    jobs: &[TenantJob],
    fspec: &FaultSpec,
    trace: bool,
) -> (CellOutcome<Run>, Option<String>) {
    let (machine, jobs) = (ClusterSpec::small(32, 2), &jobs[..tenants]);
    let observe = Observe {
        trace,
        ..Observe::default()
    };
    let mut mt = run_multitenant(jobs, &machine, Some(fspec), policy, observe);
    let mut errors = Vec::new();
    for (ji, j) in mt.jobs.iter().enumerate() {
        // Byte-correctness, every cell: the machine state and the
        // controller perturb time, never the bytes a job's plan writes.
        let req = specs[ji].desc.request(specs[ji].base);
        let mut file = SparseFile::new();
        if exec_fn::execute_write(&jobs[ji].plan, &mut file).is_err()
            || exec_fn::verify_write(&req, &file).is_err()
        {
            errors.push(format!(
                "{tenants} tenants/{}: job {} bytes differ from the workload oracle",
                policy.label(),
                j.label
            ));
        }
        if j.slowdown < 1.0 - 1e-9 {
            errors.push(format!(
                "{tenants} tenants/{}: job {} finished faster than its fault-free solo run \
                 (slowdown {:.6})",
                policy.label(),
                j.label,
                j.slowdown
            ));
        }
        if !(0.0..=1.0).contains(&j.ost_overlap) {
            errors.push(format!(
                "{tenants} tenants/{}: job {} OST overlap {} outside [0, 1]",
                policy.label(),
                j.label,
                j.ost_overlap
            ));
        }
    }
    let line = format!(
        "tenants {tenants}  {:<12} makespan {:>10.3} ms  mean slowdown {:>7.3}x  deferrals {}",
        policy.label(),
        mt.makespan.as_nanos() as f64 / 1e6,
        mt.mean_slowdown(),
        deferrals(&mt),
    );
    let trace = mt.trace.take();
    let run = Run {
        policy,
        mean_slowdown: mt.mean_slowdown(),
        row: Row::Shared(mt, true),
    };
    (CellOutcome { line, errors, run }, trace)
}

fn run_overlap_cell(spec: &MtSpec, jobs: &[TenantJob], policy: AdaptivePolicy) -> CellOutcome<Run> {
    let (machine, faults) = (&spec.machine, spec.faults.as_ref());
    let mt = run_multitenant(jobs, machine, faults, policy, Observe::default());
    let mut errors = Vec::new();
    for j in &mt.jobs {
        if j.slowdown < 1.0 - 1e-9 {
            errors.push(format!(
                "overlap/{}: job {} finished faster than its fault-free solo run ({:.6})",
                policy.label(),
                j.label,
                j.slowdown
            ));
        }
    }
    let line = format!(
        "overlap    {:<12} makespan {:>10.3} ms  mean slowdown {:>7.3}x  deferrals {}",
        policy.label(),
        mt.makespan.as_nanos() as f64 / 1e6,
        mt.mean_slowdown(),
        deferrals(&mt),
    );
    let run = Run {
        policy,
        mean_slowdown: mt.mean_slowdown(),
        row: Row::Shared(mt, false),
    };
    CellOutcome { line, errors, run }
}

fn main() {
    let m = cli::parse_or_exit(&cli::ADAPTATION_SUITE);
    let jobs = m.num("jobs") as usize;
    let out_path = m.get("out").expect("--out has a default");
    let trace_path = m.get("trace").expect("--trace has a default");

    // Each section fans across the workers, then prints and validates
    // in canonical cell order.
    let suite = "adaptation_suite";

    // --- solo section -------------------------------------------------
    // 16 ranks on 4 nodes, 4 MiB per rank, disjoint contiguous chunks so
    // the written file is exactly the concatenation of rank payloads.
    let (ranks, chunk) = (16usize, 4 * MIB);
    let req = CollectiveRequest::new(
        Rw::Write,
        (0..ranks as u64)
            .map(|r| vec![Extent::new(r * chunk, chunk)])
            .collect(),
    );
    let harness = Harness::new(ClusterSpec::small(ranks / 4, 4), ranks, 4, 7);
    let cell = Cell {
        cfg: CollectiveConfig::with_buffer(chunk).mem_min(chunk / 4),
        ..harness.cell(Strategy::MemoryConscious, &req, chunk)
    };
    let plan = cell.plan();
    let golden = written_bytes(&plan, ranks as u64 * chunk).unwrap_or_else(|e| fail(&e));
    let matrix = solo_matrix();
    let solo_cells: Vec<(usize, AdaptivePolicy)> = (0..matrix.len())
        .flat_map(|f| POLICIES.map(|p| (f, p)))
        .collect();
    let solo = run_cells(suite, jobs, &solo_cells, |&(f, policy)| {
        run_solo_cell(&cell, &plan, &golden, &matrix[f], policy)
    });

    // --- tenant section -----------------------------------------------
    let specs = mtspec::contention_roster(Strategy::MemoryConscious);
    let roster: Vec<TenantJob> = specs.iter().map(mtspec::build_tenant).collect();
    let fspec = FaultSpec::parse(DEGRADED_ROW).unwrap_or_else(|e| fail(&format!("row: {e}")));
    let machine = ClusterSpec::small(32, 2);
    if let Err(e) = fspec.validate_targets(machine.io_servers, machine.nodes) {
        fail(&format!("row: {e}"));
    }
    let tenant_cells: Vec<(usize, AdaptivePolicy)> = TENANTS
        .iter()
        .flat_map(|&t| POLICIES.map(|p| (t, p)))
        .collect();
    let tenant = run_cells(suite, jobs, &tenant_cells, |&(t, policy)| {
        run_tenant_cell(t, policy, &specs, &roster, &fspec, false).0
    });

    // --- overlap section ----------------------------------------------
    let overlap_spec = MtSpec::parse(include_str!("../../tests/fixtures/overlap.mtspec"))
        .unwrap_or_else(|e| fail(&format!("overlap fixture: {e}")));
    let overlap_jobs = overlap_spec.build_jobs();
    let overlap = run_cells(suite, jobs, &POLICIES, |&policy| {
        run_overlap_cell(&overlap_spec, &overlap_jobs, policy)
    });
    let doc = document(&[("solo", &solo), ("tenants", &tenant), ("overlap", &overlap)]);

    // --- the headline gate --------------------------------------------
    // At every tenant count the controller must never degrade the mean
    // slowdown, and on the full, degraded machine (8 tenants, two OSTs
    // at 1/8 rate) closing the loop must pay for itself: strictly lower
    // mean slowdown than the static run.
    println!();
    for (t_idx, &t) in TENANTS.iter().enumerate() {
        let off = tenant[3 * t_idx].mean_slowdown;
        let cons = tenant[3 * t_idx + 1].mean_slowdown;
        let aggr = tenant[3 * t_idx + 2].mean_slowdown;
        println!(
            "{t} tenant(s): mean slowdown off {off:.3}x, conservative {cons:.3}x, \
             aggressive {aggr:.3}x",
        );
        if cons > off + 1e-9 || aggr > off + 1e-9 {
            fail(&format!(
                "at {t} tenants an adaptive policy degrades mean slowdown \
                 (off {off:.3}x, conservative {cons:.3}x, aggressive {aggr:.3}x)"
            ));
        }
    }
    let full = tenant.len() - 3;
    if tenant[full + 2].mean_slowdown >= tenant[full].mean_slowdown {
        fail(&format!(
            "on the full degraded machine the aggressive controller must beat the static \
             run strictly ({:.3}x vs {:.3}x)",
            tenant[full + 2].mean_slowdown,
            tenant[full].mean_slowdown,
        ));
    }

    // --- determinism + replan trace artifact --------------------------
    let (rerun, _) = run_tenant_cell(
        8,
        AdaptivePolicy::Aggressive,
        &specs,
        &roster,
        &fspec,
        false,
    );
    let row = |cell| document(&[("tenants", std::slice::from_ref(cell))]);
    if row(&rerun.run) != row(&tenant[full + 2]) {
        fail("adaptive multi-tenant run is not deterministic: re-run fragment differs");
    }
    let (_, trace) = run_tenant_cell(8, AdaptivePolicy::Aggressive, &specs, &roster, &fspec, true);
    let trace = trace.expect("traced run yields a trace");
    if !trace.contains("\"replan\"") {
        fail("traced 8-tenant aggressive cell carries no replan lanes");
    }
    cli::write_or_exit(m.ctx(), "", trace_path, &trace);
    cli::write_or_exit(m.ctx(), "", out_path, &doc);
    println!("\nadaptation matrix ok; wrote {out_path} and {trace_path}");
}
