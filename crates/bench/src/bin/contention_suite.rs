//! Multi-tenant contention gate: job-count × strategy sweep.
//!
//! Runs 1, 2, 4 and 8 concurrent IOR-shaped tenants — each on its own
//! exclusive 4-node partition of a shared 32-node machine, each
//! writing its own file region, arrivals staggered 250 µs apart —
//! under both strategies, and asserts the multi-tenant contract:
//!
//! * a lone tenant has slowdown exactly 1.0 and OST overlap 0.0
//!   (the shared-machine path is a conservative extension of solo);
//! * sharing the machine never speeds a job up (slowdown ≥ 1);
//! * OST-overlap fractions stay in `[0, 1]`;
//! * the whole suite is byte-deterministic (one cell is re-run and its
//!   document fragment compared byte-for-byte).
//!
//! The cells fan across `--jobs N` worker threads via the sweep
//! engine; validation and output follow canonical cell order
//! (tenant-count major, two-phase before memory-conscious), so the
//! `mcio.multitenant.v1` document written to `--out FILE` (default
//! `BENCH_contention_suite.json`) is identical at any `--jobs` value.
//!
//! The printed summary compares mean slowdown per strategy at each
//! tenant count — the graceful-degradation story: MC-CIO's per-group
//! rounds keep its interference cost at or below the baseline's as
//! the machine fills up.
//!
//! Violated assertions print one line and exit 1; flags and usage
//! errors are `mcio_bench::cli::CONTENTION_SUITE`'s.

use mcio_bench::cli;
use mcio_bench::mtspec;
use mcio_bench::suite::{self, run_cells, CellOutcome};
use mcio_cluster::spec::ClusterSpec;
use mcio_core::exec_sim::Observe;
use mcio_core::{run_multitenant, AdaptivePolicy, MultiTenantReport, Strategy, TenantJob};
use mcio_obs::doc::Writer;

/// Tenant counts of the sweep (the 8-tenant cell fills the machine).
const TENANTS: [usize; 4] = [1, 2, 4, 8];

fn fail(msg: &str) -> ! {
    suite::fail("contention_suite", msg)
}

/// The shared 8-job roster, planned for one strategy.
fn roster(strategy: Strategy) -> Vec<TenantJob> {
    let specs = mtspec::contention_roster(strategy);
    specs.iter().map(mtspec::build_tenant).collect()
}

/// What a cell's document row is written from.
struct Run {
    strategy: Strategy,
    mt: MultiTenantReport,
}

/// The `mcio.multitenant.v1` cell-matrix document over `cells`.
fn document(cells: &[Run]) -> String {
    let mut w = Writer::document();
    w.schema(mtspec::MULTITENANT_SCHEMA);
    w.text("machine", "small-32x2");
    w.rows("cells", cells, |r, c| {
        r.uint("tenants", c.mt.jobs.len() as u64);
        r.text("strategy", c.strategy.label());
        r.uint("makespan_ns", c.mt.makespan.as_nanos());
        r.float("mean_slowdown", c.mt.mean_slowdown(), 6);
        r.rows("jobs", &c.mt.jobs, mtspec::write_job);
    });
    w.finish()
}

fn run_cell(tenants: usize, strategy: Strategy, jobs: &[TenantJob]) -> CellOutcome<Run> {
    let (machine, off) = (ClusterSpec::small(32, 2), AdaptivePolicy::Off);
    let mt = run_multitenant(&jobs[..tenants], &machine, None, off, Observe::default());
    let mut errors = Vec::new();
    for j in &mt.jobs {
        if j.slowdown < 1.0 - 1e-9 {
            errors.push(format!(
                "{tenants} tenants/{}: job {} sped up under contention (slowdown {:.6})",
                strategy.label(),
                j.label,
                j.slowdown
            ));
        }
        if !(0.0..=1.0).contains(&j.ost_overlap) {
            errors.push(format!(
                "{tenants} tenants/{}: job {} OST overlap {} outside [0, 1]",
                strategy.label(),
                j.label,
                j.ost_overlap
            ));
        }
    }
    if tenants == 1 {
        let j = &mt.jobs[0];
        if (j.slowdown - 1.0).abs() > 1e-12 {
            errors.push(format!(
                "lone {} tenant has slowdown {:.9}, expected exactly 1.0",
                strategy.label(),
                j.slowdown
            ));
        }
        if j.ost_overlap != 0.0 {
            errors.push(format!(
                "lone {} tenant has OST overlap {}, expected 0.0",
                strategy.label(),
                j.ost_overlap
            ));
        }
    }
    let max_overlap = mt.jobs.iter().map(|j| j.ost_overlap).fold(0.0, f64::max);
    let line = format!(
        "{tenants} tenant(s)  {:<17} makespan {:>10.3} ms  mean slowdown {:>6.3}x  max ost-overlap {:>5.3}",
        strategy.label(),
        mt.makespan.as_nanos() as f64 / 1e6,
        mt.mean_slowdown(),
        max_overlap,
    );
    CellOutcome {
        line,
        errors,
        run: Run { strategy, mt },
    }
}

fn main() {
    let m = cli::parse_or_exit(&cli::CONTENTION_SUITE);
    let jobs = m.num("jobs") as usize;
    let out_path = m.get("out").expect("--out has a default");

    let tp_roster = roster(Strategy::TwoPhase);
    let mc_roster = roster(Strategy::MemoryConscious);

    // Canonical cell order: tenant-count major, two-phase first.
    let cells: Vec<(usize, Strategy)> = TENANTS
        .iter()
        .flat_map(|&t| Strategy::BOTH.map(|s| (t, s)))
        .collect();
    let outcomes = run_cells("contention_suite", jobs, &cells, |&(tenants, strategy)| {
        let roster = match strategy {
            Strategy::TwoPhase => &tp_roster,
            Strategy::MemoryConscious => &mc_roster,
        };
        run_cell(tenants, strategy, roster)
    });

    // The graceful-degradation story, per tenant count: how much mean
    // slowdown each strategy accumulates as the machine fills up. At
    // light sharing the baseline's fewer, larger requests can win; once
    // the machine saturates, memory-conscious per-group rounds must
    // interfere less — that crossover is the gate.
    println!();
    for (t_idx, &t) in TENANTS.iter().enumerate() {
        let tp = outcomes[2 * t_idx].mt.mean_slowdown();
        let mc = outcomes[2 * t_idx + 1].mt.mean_slowdown();
        println!(
            "{t} tenant(s): mean slowdown two-phase {tp:.3}x vs memory-conscious {mc:.3}x  ({})",
            if mc <= tp + 1e-9 {
                "mc degrades no worse"
            } else {
                "two-phase degrades less here"
            },
        );
    }
    let full = outcomes.len() - 2;
    if outcomes[full + 1].mt.mean_slowdown() > outcomes[full].mt.mean_slowdown() + 1e-9 {
        fail(&format!(
            "on the full machine ({} tenants) memory-conscious degrades worse than two-phase \
             ({:.3}x vs {:.3}x)",
            TENANTS[TENANTS.len() - 1],
            outcomes[full + 1].mt.mean_slowdown(),
            outcomes[full].mt.mean_slowdown(),
        ));
    }

    // Byte-determinism: re-running a cell must reproduce its document
    // row exactly.
    let rerun = run_cell(8, Strategy::MemoryConscious, &mc_roster);
    if document(&[rerun.run]) != document(&outcomes[outcomes.len() - 1..]) {
        fail("multi-tenant run is not deterministic: re-run fragment differs");
    }

    cli::write_or_exit(m.ctx(), "", out_path, &document(&outcomes));
    println!("\ncontention matrix ok; wrote {out_path}");
}
