//! Robustness gate: a fixed fault matrix × both strategies.
//!
//! Runs a small deterministic write collective (16 ranks, 4 nodes)
//! through the resilient executor under a fixed set of fault plans —
//! fault-free, OST slowdown, OST stall, transient request failures,
//! mid-collective aggregator crash, and a memory shock — and asserts
//! the robustness contract:
//!
//! * memory-conscious completes **every** case, and its executed plan
//!   writes bytes identical to the fault-free plan;
//! * two-phase is allowed (and expected) to fail under `agg_crash` —
//!   it has no failover path — but must survive the pure-performance
//!   faults;
//! * retry counts stay within the configured bound;
//! * every simulated run is deterministic (asserted by re-running one
//!   faulted case and comparing traces byte-for-byte).
//!
//! The matrix cells fan across `--jobs N` worker threads via the sweep
//! engine; results are validated and printed in canonical matrix order,
//! so stdout and the exit code are identical at any thread count.
//!
//! Writes the memory-conscious `agg_crash` trace (the interesting one:
//! pid-3 fault lanes populated) to `--out FILE` (default
//! `BENCH_fault_suite_trace.json`) so CI can upload it as an artifact.
//! Any violated assertion prints one line and exits 1; flags and usage
//! errors are `mcio_bench::cli::FAULT_SUITE`'s.

use mcio_bench::suite::{self, run_cells, written_bytes, CellOutcome};
use mcio_bench::{cli, Cell, Harness};
use mcio_cluster::spec::ClusterSpec;
use mcio_core::exec_sim::Observe;
use mcio_core::{
    AdaptivePolicy, CollectiveConfig, CollectivePlan, CollectiveRequest, Extent, Rw, Strategy,
};
use mcio_faults::FaultSpec;

const MIB: u64 = 1 << 20;
const RANKS: usize = 16;
const PPN: usize = 4;
const CHUNK: u64 = 2 * MIB;

/// The fixed fault matrix. Every plan seeds its own RNG stream, so the
/// whole suite is byte-deterministic. The crash/shock cases target
/// `host` — the node of a real memory-conscious aggregator, derived
/// from the (deterministic) plan — so the structural faults actually
/// land instead of hitting an aggregator-free node.
fn fault_matrix(host: usize) -> Vec<(&'static str, String)> {
    vec![
        ("none", "seed 1".to_string()),
        (
            "ost_slow",
            "seed 2\nost_slow(0, 4.0, 0ns..20ms)".to_string(),
        ),
        ("ost_stall", "seed 3\nost_stall(1, 1ms..60ms)".to_string()),
        (
            "transient",
            "seed 4\nretry(max_attempts=4, base=50us, cap=10ms, jitter=0.25)\n\
             req_transient_fail(0.35, 77)"
                .to_string(),
        ),
        ("agg_crash", format!("seed 5\nagg_crash({host}, 2ms)")),
        ("mem_shock", format!("seed 6\nmem_shock({host}, 0.6, 1ms)")),
    ]
}

fn fail(msg: &str) -> ! {
    suite::fail("fault_suite", msg)
}

/// One matrix cell; the run it keeps is the trace, when this is the
/// traced cell.
fn run_cell(
    name: &'static str,
    fspec: &FaultSpec,
    cell: &Cell,
    plan: &CollectivePlan,
    golden: &[u8],
    total: u64,
) -> CellOutcome<Option<String>> {
    let strategy = cell.strategy;
    let observe = Observe {
        trace: strategy == Strategy::MemoryConscious && name == "agg_crash",
        ..Observe::default()
    };
    let out = cell.run_faulted(plan, fspec, AdaptivePolicy::Off, observe);
    let label = strategy.label();
    let line = format!(
        "{name:<10} {label:<17} {}  elapsed {:>10.3} ms  failovers {}  degraded {}  retries {}",
        if out.completed {
            "completed "
        } else {
            "INCOMPLETE"
        },
        out.report.elapsed.as_nanos() as f64 / 1e6,
        out.failovers,
        out.degraded_rounds,
        out.retries,
    );
    let mut errors = Vec::new();
    match (strategy, name) {
        // The baseline has no failover path: the crash case is its
        // expected failure. Everything else it must survive.
        (Strategy::TwoPhase, "agg_crash") => {
            if out.completed {
                errors.push("two-phase claims completion under agg_crash".to_string());
            }
        }
        (Strategy::TwoPhase, _) => {
            if !out.completed {
                errors.push(format!("two-phase failed the {name} case"));
            }
        }
        // MC-CIO must complete the whole matrix, bytes intact, and the
        // structural faults must visibly trigger the recovery paths
        // they were aimed at.
        (Strategy::MemoryConscious, _) => {
            if !out.completed {
                errors.push(format!("memory-conscious failed the {name} case"));
            }
            match written_bytes(&out.executed_plan, total) {
                Ok(bytes) => {
                    if bytes != golden {
                        errors.push(format!(
                            "memory-conscious {name}: executed plan changes the written bytes"
                        ));
                    }
                }
                Err(e) => errors.push(e),
            }
            if name == "agg_crash" && out.failovers == 0 {
                errors.push("agg_crash on an aggregator node triggered no failover".to_string());
            }
            if name == "mem_shock" && out.degraded_rounds == 0 {
                errors.push("mem_shock on an aggregator node degraded no round".to_string());
            }
        }
    }
    let bound =
        u64::from(fspec.retry.max_attempts.saturating_sub(1)) * out.report.activities as u64;
    if out.retries > bound {
        errors.push(format!(
            "{name}/{label}: {} retries exceed bound {bound}",
            out.retries
        ));
    }
    CellOutcome {
        line,
        errors,
        run: out.trace,
    }
}

fn main() {
    let m = cli::parse_or_exit(&cli::FAULT_SUITE);
    let jobs = m.num("jobs") as usize;
    let out_path = m.get("out").expect("--out has a default");

    let req = CollectiveRequest::new(
        Rw::Write,
        (0..RANKS as u64)
            .map(|r| vec![Extent::new(r * CHUNK, CHUNK)])
            .collect(),
    );
    let total = RANKS as u64 * CHUNK;
    let harness = Harness {
        relative_stddev: 0.3,
        ..Harness::new(ClusterSpec::small(RANKS / PPN, 2), RANKS, PPN, 0xFA17)
    };
    let [tp, mc] = Strategy::BOTH.map(|strategy| Cell {
        cfg: CollectiveConfig::with_buffer(CHUNK).mem_min(CHUNK / 4),
        ..harness.cell(strategy, &req, CHUNK)
    });
    let (tp_plan, mc_plan) = (tp.plan(), mc.plan());
    let golden = written_bytes(&mc_plan, total).unwrap_or_else(|e| fail(&e));
    match written_bytes(&tp_plan, total) {
        Ok(b) if b == golden => {}
        Ok(_) => fail("fault-free strategies disagree on the written bytes"),
        Err(e) => fail(&e),
    }

    let crash_host = mc_plan
        .groups
        .iter()
        .flat_map(|g| g.aggregators.iter())
        .map(|a| harness.map.node_of(a.rank).0)
        .next()
        .unwrap_or_else(|| fail("memory-conscious plan has no aggregators"));

    // Canonical cell order: matrix-major, two-phase before
    // memory-conscious — validation and output follow this order no
    // matter which worker finished first.
    let matrix = fault_matrix(crash_host);
    let mut cells = Vec::new();
    for (name, text) in &matrix {
        let fspec = match FaultSpec::parse(text) {
            Ok(f) => f,
            Err(e) => fail(&format!("matrix entry {name} does not parse: {e}")),
        };
        for (cell, plan) in [(&tp, &tp_plan), (&mc, &mc_plan)] {
            cells.push((*name, fspec.clone(), cell, plan));
        }
    }
    let traces = run_cells("fault_suite", jobs, &cells, |(name, fspec, cell, plan)| {
        run_cell(name, fspec, cell, plan, &golden, total)
    });

    // Determinism: the traced crash case re-run must reproduce its trace
    // byte-for-byte.
    let fspec = FaultSpec::parse(&format!("seed 5\nagg_crash({crash_host}, 2ms)"))
        .expect("matrix entry parses");
    let traced = Observe {
        trace: true,
        ..Observe::default()
    };
    let rerun = mc.run_faulted(&mc_plan, &fspec, AdaptivePolicy::Off, traced);
    let first = traces.into_iter().flatten().next();
    let first = first.unwrap_or_else(|| fail("agg_crash case produced no trace"));
    if rerun.trace.as_deref() != Some(first.as_str()) {
        fail("faulted run is not deterministic: traces differ between identical runs");
    }

    cli::write_or_exit(m.ctx(), "", out_path, &first);
    println!("fault matrix ok; wrote {out_path}");
}
