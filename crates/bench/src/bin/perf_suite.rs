//! Perf-trajectory benchmark harness with regression gating.
//!
//! Runs the fixed scenario matrix (Figure 6/7/8 shapes × two-phase and
//! memory-conscious), each run traced and reduced to elapsed time,
//! phase fractions, and the critical-path attribution, then writes the
//! deterministic `mcio.perf_suite.v1` document:
//!
//! ```sh
//! perf_suite                                  # writes BENCH_perf_suite.json
//! perf_suite --out somewhere.json
//! perf_suite --jobs 4                         # same bytes, less wall-clock
//! perf_suite --check BENCH_perf_suite.json --tolerance 0.05
//! ```
//!
//! `--jobs N` fans the (scenario, strategy) cells across N worker
//! threads via the sweep engine; the output document is byte-identical
//! at any thread count. `--check BASELINE.json` additionally gates the
//! fresh run against a previous document: any (scenario, strategy)
//! whose elapsed simulated time grew by more than `--tolerance`
//! (relative, default 0.05) fails the run with exit 1, naming the
//! critical-path bucket whose growth explains most of the slowdown
//! (e.g. `cause: ost_io +1.2 ms (+12.0%)`) and — when the re-traced
//! cell shows one — the straggling chain/aggregator/OST driving it.
//! Flags and exit codes come from `mcio_bench::cli::PERF_SUITE`.
//!
//! `--prof FILE` profiles the *simulator itself* into the
//! `mcio.prof.v1` sidecar — per-cell engine counters (deterministic)
//! plus the wall-clock phase table, events/sec, allocator stats, and
//! worker utilization (host). It is never `--check`-gated, and
//! `BENCH_perf_suite.json` stays byte-identical whether or not it is
//! requested.
//!
//! `--exascale` runs the standing full-machine scenario instead of the
//! matrix: the Table-1 `exascale_2018` design with one rank on every
//! node (1 M ranks), memory-conscious under both resource engines plus
//! two-phase under fair sharing, untraced. It prints one row per cell
//! and the `mcio.exascale.v1` document (to `--out` when given); the
//! document carries host wall-clock data, so it is never `--check`-gated.

use mcio_bench::cli::{self, emit_doc, fail, read_or_exit, write_or_exit, ProfSidecar};
use mcio_bench::perf::{
    cell_stragglers, parse_records, regressions_detailed, render_exascale, render_records,
    run_exascale, run_suite,
};

fn main() {
    let m = cli::parse_or_exit(&cli::PERF_SUITE);
    let ctx = m.ctx();
    let jobs = m.num("jobs") as usize;
    let raw = m.get("tolerance").expect("--tolerance has a default");
    let tolerance: f64 = match raw.parse() {
        Ok(t) if (0.0..10.0).contains(&t) => t,
        _ => fail(
            ctx,
            2,
            &format!("--tolerance must be a fraction in [0, 10), got `{raw}`"),
        ),
    };
    let check_path = m.get("check");

    if m.on("exascale") {
        // The exascale scenario is its own mode: untraced, never
        // `--check`-gated (its document is host data), never mixed
        // into `BENCH_perf_suite.json`.
        if check_path.is_some() || m.get("prof").is_some() {
            fail(ctx, 2, "--exascale does not combine with --check/--prof");
        }
        let cells = run_exascale();
        for c in &cells {
            println!(
                "exascale {:<17} [{}] elapsed {:>12.3} ms  {:>11} events  \
                 {:>9.0} ev/s  plan {:>7.1} s  sim {:>6.1} s",
                c.strategy,
                c.engine,
                c.elapsed_ns as f64 / 1e6,
                c.prof.events_fired,
                c.prof.events_fired as f64 / (c.sim_wall_ns.max(1) as f64 / 1e9),
                c.plan_wall_ns as f64 / 1e9,
                c.sim_wall_ns as f64 / 1e9,
            );
        }
        emit_doc(ctx, m.get("out"), &render_exascale(&cells), || {});
        return;
    }

    let baseline = check_path.map(|path| {
        parse_records(&read_or_exit(ctx, "baseline", path))
            .unwrap_or_else(|e| fail(ctx, 1, &format!("baseline {path}: {e}")))
    });

    let sidecar = ProfSidecar::new(m.get("prof"));
    let (records, cells, workers) = run_suite(jobs, sidecar.prof());
    for r in &records {
        println!(
            "{:<6} {:<17} elapsed {:>10.3} ms  exchange {:>5.1}%  io {:>5.1}%  bottleneck {}",
            r.scenario,
            r.strategy,
            r.elapsed_ns as f64 / 1e6,
            r.exchange_fraction * 100.0,
            r.io_fraction * 100.0,
            r.critical_path.bottleneck(),
        );
    }

    let out_path = m.get("out").unwrap_or("BENCH_perf_suite.json");
    write_or_exit(ctx, "", out_path, &render_records(&records));
    println!("wrote {out_path}");

    if let Some(path) = sidecar.write(ctx, cells, &workers) {
        println!("wrote {path}");
    }

    if let Some(base) = baseline {
        let bad = regressions_detailed(&records, &base, tolerance);
        if bad.is_empty() {
            println!(
                "regression gate: ok ({} records within {:.1}% of baseline)",
                records.len(),
                tolerance * 100.0
            );
        } else {
            for b in &bad {
                eprintln!("{ctx}: REGRESSION {}", b.message);
                // Name who inflated the bucket: re-run the offending
                // cell traced and report its top straggler, if any.
                if let Some(s) = cell_stragglers(&b.scenario, &b.strategy).first() {
                    eprintln!("{ctx}:   driven by {}", s.describe());
                }
            }
            std::process::exit(1);
        }
    }
}
