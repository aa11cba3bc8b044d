//! Job-stream scheduling gate: one trace, every policy, hard bounds.
//!
//! Streams a bundled mixed-size job trace — one long 16-node job, one
//! machine-wide head blocker, then two hundred short 4-node jobs — on
//! a shared 32-node machine through all three dispatch policies and
//! asserts the scheduling contract:
//!
//! * FCFS dispatches in exact arrival order, with zero backfills;
//! * conservative backfill never delays a reserved queue head
//!   (audited per decision) and **strictly beats FCFS on makespan**
//!   for this trace — the short jobs must flow around the blocked
//!   wide head;
//! * priority-with-aging drains every job (dispatch order is a
//!   permutation of the stream);
//! * makespan and p99 slowdown stay under per-policy caps, so a
//!   planner or DES regression that slows the stream fails loudly;
//! * the whole suite is byte-deterministic (one policy cell is re-run
//!   and its document compared byte-for-byte).
//!
//! The three policy cells fan across `--jobs N` worker threads via the
//! sweep engine; the `mcio.scheduler_suite.v1` document written to
//! `--out FILE` (default `BENCH_scheduler_suite.json`) embeds each
//! policy's full `mcio.schedule.v1` document and is identical at any
//! `--jobs` value.
//!
//! `--trace FILE` replaces the bundled stream with a caller's
//! `mcio.jobtrace.v1` file and prints **only the text report** (the
//! golden-snapshot surface); the performance caps are calibrated to
//! the bundled trace, so only the order/audit/permutation invariants
//! are enforced there.
//!
//! Violated assertions and unreadable/malformed traces print one line
//! and exit 1; flags and usage errors are
//! `mcio_bench::cli::SCHEDULER_SUITE`'s.

use mcio_bench::cli;
use mcio_obs::doc::Writer;
use mcio_sched::{
    render_schedule, run_schedule, write_schedule, JobTrace, Policy, SchedConfig, Schedule,
};
use std::fmt::Write as _;

/// Makespan cap per policy on the bundled trace, nanoseconds.
/// Measured ~1.65 s (fcfs, priority) / ~1.46 s (backfill) simulated;
/// the cap leaves ~3x headroom for model drift without letting a
/// serialization bug (every job waiting for an idle machine) pass.
const MAKESPAN_CAP_NS: u64 = 6_000_000_000;
/// p99 slowdown cap per policy on the bundled trace. Measured ~140x
/// under FCFS (the tail is the short-job cohort stuck behind the
/// machine-wide head while `big` drains); ~2.5x slack on top.
const P99_SLOWDOWN_CAP: f64 = 400.0;

fn fail(msg: &str) -> ! {
    cli::fail("scheduler_suite", 1, &format!("FAILED: {msg}"))
}

/// Invariants that hold for every trace, bundled or caller-supplied.
fn check_invariants(policy: Policy, s: &Schedule) {
    match policy {
        Policy::Fcfs => {
            let expect: Vec<usize> = (0..s.jobs.len()).collect();
            if s.dispatch_order != expect {
                fail("fcfs dispatched out of arrival order");
            }
            if s.backfills != 0 {
                fail("fcfs recorded a backfill");
            }
        }
        Policy::Backfill => {
            for r in &s.reservations {
                if r.predicted_end_ns > r.reserved_start_ns {
                    fail(&format!(
                        "backfill predicted past the head's reservation: {r:?}"
                    ));
                }
                if s.jobs[r.head].dispatch_ns > r.reserved_start_ns {
                    fail(&format!(
                        "backfill delayed head `{}` past its reservation ({} > {})",
                        s.jobs[r.head].name, s.jobs[r.head].dispatch_ns, r.reserved_start_ns
                    ));
                }
            }
        }
        Policy::Priority => {
            let mut seen = s.dispatch_order.clone();
            seen.sort_unstable();
            let expect: Vec<usize> = (0..s.jobs.len()).collect();
            if seen != expect {
                fail("priority dispatch order is not a permutation: a job starved");
            }
        }
    }
    for j in &s.jobs {
        if j.dispatch_ns < j.arrival_ns {
            fail(&format!("job `{}` dispatched before it arrived", j.name));
        }
    }
}

/// The text report — the golden-snapshot surface, so every column is
/// deterministic.
fn report(trace: &JobTrace, cells: &[(Policy, Schedule)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== scheduler suite ==");
    let _ = writeln!(
        out,
        "machine {} ({} nodes), {} jobs",
        trace.machine_label,
        trace.machine.nodes,
        trace.jobs.len()
    );
    let _ = writeln!(
        out,
        "\n{:<10} {:>13} {:>14} {:>9} {:>9} {:>10} {:>11}",
        "policy", "makespan ms", "mean wait ms", "p50 slow", "p99 slow", "backfills", "peak queue"
    );
    for (policy, s) in cells {
        let _ = writeln!(
            out,
            "{:<10} {:>13.3} {:>14.3} {:>9.3} {:>9.3} {:>10} {:>11}",
            policy.label(),
            s.makespan_ns as f64 / 1e6,
            s.mean_wait_ns as f64 / 1e6,
            s.p50_slowdown,
            s.p99_slowdown,
            s.backfills,
            s.max_queue_depth
        );
    }
    let fcfs = &cells[0].1;
    let backfill = &cells[1].1;
    let _ = writeln!(
        out,
        "\nbackfill vs fcfs makespan: {:.3} ms vs {:.3} ms ({:+.1}%)",
        backfill.makespan_ns as f64 / 1e6,
        fcfs.makespan_ns as f64 / 1e6,
        (backfill.makespan_ns as f64 / fcfs.makespan_ns.max(1) as f64 - 1.0) * 100.0
    );
    out
}

fn main() {
    let m = cli::parse_or_exit(&cli::SCHEDULER_SUITE);
    let jobs = m.num("jobs") as usize;
    let out_path = m.get("out").expect("--out has a default");

    let fixture_mode = m.get("trace").is_some();
    let trace = match m.get("trace") {
        Some(path) => JobTrace::parse(&cli::read_or_exit(m.ctx(), "", path))
            .unwrap_or_else(|e| cli::fail(m.ctx(), 1, &format!("{path}: {e}"))),
        None => JobTrace::bundled(),
    };

    let run_policy = |policy: Policy| {
        run_schedule(
            &trace,
            &SchedConfig {
                policy,
                ..SchedConfig::default()
            },
            None,
        )
    };
    let cells: Vec<(Policy, Schedule)> =
        mcio_sweep::sweep(jobs, &Policy::ALL, |&policy| (policy, run_policy(policy)));

    for (policy, s) in &cells {
        check_invariants(*policy, s);
    }

    let fcfs = &cells[0].1;
    let backfill = &cells[1].1;
    if !fixture_mode {
        if backfill.makespan_ns >= fcfs.makespan_ns {
            fail(&format!(
                "backfill does not beat fcfs on the bundled trace ({} ns vs {} ns)",
                backfill.makespan_ns, fcfs.makespan_ns
            ));
        }
        if backfill.backfills == 0 {
            fail("the bundled trace produced no backfills");
        }
        for (policy, s) in &cells {
            if s.makespan_ns > MAKESPAN_CAP_NS {
                fail(&format!(
                    "{} makespan {} ns exceeds the {} ns cap",
                    policy.label(),
                    s.makespan_ns,
                    MAKESPAN_CAP_NS
                ));
            }
            if s.p99_slowdown > P99_SLOWDOWN_CAP {
                fail(&format!(
                    "{} p99 slowdown {:.3} exceeds the {:.1} cap",
                    policy.label(),
                    s.p99_slowdown,
                    P99_SLOWDOWN_CAP
                ));
            }
        }
    }

    // Byte-determinism: re-running a policy cell must reproduce its
    // document exactly.
    let rerun = render_schedule(&run_policy(Policy::Backfill));
    if rerun != render_schedule(backfill) {
        fail("schedule run is not deterministic: re-run document differs");
    }

    let text = report(&trace, &cells);
    print!("{text}");
    if fixture_mode {
        // Fixture mode is the golden-snapshot surface: text only.
        return;
    }

    let mut doc = Writer::document();
    doc.schema("mcio.scheduler_suite.v1");
    doc.text("machine", &trace.machine_label);
    doc.uint("jobs", trace.jobs.len() as u64);
    doc.blocks("cells", &cells, |w, (_, s)| write_schedule(w, s));
    cli::write_or_exit(m.ctx(), "", out_path, &doc.finish());
    println!("\nscheduler suite ok; wrote {out_path}");
}
