//! Perf-trajectory suite: a fixed scenario matrix (the paper's Figure
//! 6/7/8 shapes) × both strategies, each run once with tracing on and
//! reduced to one flat record — elapsed time, normalized phase
//! fractions, and the trace-derived critical-path attribution.
//!
//! The records are fully deterministic (fixed seeds, integer simulated
//! nanoseconds, fixed-precision fractions), so the rendered JSON is
//! byte-identical across runs and machines and can be diffed or gated:
//! `perf_suite --check BASELINE.json --tolerance 0.05` fails when any
//! scenario's elapsed time regresses past the tolerance.

use crate::exhibits::{Shape, FIGURES};
use crate::{Cell, Harness, TESTBED_PPN};
use mcio_analyze::{critical_path, diff_critical_paths, CriticalPath, TraceModel};
use mcio_cluster::spec::ClusterSpec;
use mcio_core::exec_sim::Observe;
use mcio_core::{Rw, Strategy};
use mcio_des::SharePolicy;
use mcio_obs::doc::{Reader, Writer};
use mcio_obs::json;
use mcio_prof::{events_per_sec, DetCell, Prof};
use mcio_sweep::WorkerStat;

const MIB: u64 = 1 << 20;

/// The schema stamp of the perf-suite document.
pub const PERF_SCHEMA: &str = "mcio.perf_suite.v1";

/// One entry of the fixed scenario matrix.
pub struct Scenario {
    /// Stable scenario key (`fig6`, `fig7`, `fig8`).
    pub name: &'static str,
    /// Nominal aggregator buffer, bytes.
    pub buffer: u64,
    /// Seed for the heterogeneous-memory draw (same as the figure
    /// harness it mirrors).
    pub seed: u64,
    /// Total ranks.
    pub ranks: usize,
    /// Resource engine the cell simulates under. The committed matrix
    /// stays [`SharePolicy::Fifo`] so `BENCH_perf_suite.json` keeps its
    /// bytes; the exascale scenario exercises fair sharing.
    pub engine: SharePolicy,
    machine: fn() -> ClusterSpec,
    shape: Shape,
}

/// The suite's scenario matrix: the 16 MiB point of each figure sweep
/// of [`FIGURES`], on the figure's machine, ranks and seed. Figure 8's
/// IOR shape carries 8 MiB per process instead of 32 so the whole
/// suite stays a sub-minute CI job; the *shape* (rank count, machine,
/// interleaving) is what the trajectory tracks.
pub fn scenarios() -> Vec<Scenario> {
    let scenario = |f: &crate::exhibits::Figure| Scenario {
        name: f.name,
        buffer: 16 * MIB,
        seed: f.seed,
        ranks: f.ranks,
        engine: SharePolicy::Fifo,
        machine: f.machine,
        shape: match f.name {
            "fig8" => Shape::Ior { per_proc: 8 * MIB },
            _ => f.shape,
        },
    };
    FIGURES.iter().map(scenario).collect()
}

/// Ranks simulated by the standing exascale scenario: one rank per
/// node of the full Table-1 `exascale_2018` machine (1 M nodes). The
/// machine's 10^9 *cores* are out of reach for a single-process DES —
/// one rank per node is the "every rank" reading this suite stands
/// behind, and it already exercises every fabric and PFS resource of
/// the full machine (3 M node resources + 1024 OSTs).
pub const EXASCALE_RANKS: usize = 1_000_000;

/// One cell of the exascale scenario. Untraced — a chrome trace at
/// this scale is gigabytes — so there is no critical-path attribution;
/// the record is the simulated elapsed time plus the deterministic
/// engine counters and the host-side wall-clock split.
#[derive(Debug, Clone, PartialEq)]
pub struct ExaCell {
    /// Strategy label (`two-phase` / `memory-conscious`).
    pub strategy: String,
    /// Resource engine label (`fifo` / `fair`).
    pub engine: &'static str,
    /// Simulated elapsed nanoseconds — deterministic.
    pub elapsed_ns: u64,
    /// Host wall-clock nanoseconds spent planning. Varies run to run.
    pub plan_wall_ns: u64,
    /// Host wall-clock nanoseconds spent simulating. Varies run to run.
    pub sim_wall_ns: u64,
    /// Deterministic engine counters of the cell's DES run.
    pub prof: mcio_des::EngineProfile,
}

/// The standing exascale matrix — the full `exascale_2018` machine, one
/// rank per node, 1 MiB per rank of interleaved IOR: memory-conscious
/// under both engines (the FIFO cell is the wall-clock reference the
/// fair-share rewrite is measured against) plus two-phase under fair
/// sharing. Each strategy is planned once and the plan held across its
/// engine cells (planning a million ranks dominates the wall clock;
/// the first cell of a strategy carries it). Simulated outputs
/// (`elapsed_ns`, `prof`) are deterministic, the wall-clock fields are
/// host data.
pub fn run_exascale() -> Vec<ExaCell> {
    const FAIR: SharePolicy = SharePolicy::FairShare;
    let harness = Harness::new(ClusterSpec::exascale_2018(), EXASCALE_RANKS, 1, 0xE2018);
    let req = mcio_workloads::Ior::paper(EXASCALE_RANKS, MIB, 1).request(Rw::Write);
    let mut cells = Vec::new();
    for (strategy, engines) in [
        (Strategy::MemoryConscious, &[SharePolicy::Fifo, FAIR][..]),
        (Strategy::TwoPhase, &[FAIR]),
    ] {
        let mut cell = harness.cell(strategy, &req, 16 * MIB);
        let started = std::time::Instant::now();
        let plan = cell.plan();
        let mut plan_wall_ns = started.elapsed().as_nanos() as u64;
        for &engine in engines {
            cell.engine = engine;
            let started = std::time::Instant::now();
            let timing = cell.timing(&plan);
            cells.push(ExaCell {
                strategy: strategy.label().to_string(),
                engine: engine.label(),
                elapsed_ns: timing.elapsed.as_nanos(),
                plan_wall_ns: std::mem::take(&mut plan_wall_ns),
                sim_wall_ns: started.elapsed().as_nanos() as u64,
                prof: timing.engine,
            });
        }
    }
    cells
}

/// Render exascale cells as the `mcio.exascale.v1` document. The
/// `elapsed_ns`, `events_fired`, and `heap_high_water` fields are
/// deterministic; the wall-clock fields (and therefore the whole
/// document) are host data — print, don't diff.
pub fn render_exascale(cells: &[ExaCell]) -> String {
    let mut w = Writer::document();
    w.schema("mcio.exascale.v1");
    w.rows("cells", cells, |r, c| {
        let eps = events_per_sec(c.prof.events_fired, c.sim_wall_ns);
        r.text("strategy", &c.strategy);
        r.text("engine", c.engine);
        r.uint("elapsed_ns", c.elapsed_ns);
        r.uint("events_fired", c.prof.events_fired);
        r.uint("events_cancelled", c.prof.events_cancelled);
        r.uint("heap_high_water", c.prof.heap_high_water);
        r.uint("plan_wall_ns", c.plan_wall_ns);
        r.uint("sim_wall_ns", c.sim_wall_ns);
        r.float("events_per_sec", eps, 3);
    });
    w.finish()
}

/// One (scenario, strategy) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Scenario key.
    pub scenario: String,
    /// `Strategy::label()` — `two-phase` or `memory-conscious`.
    pub strategy: String,
    /// Simulated elapsed nanoseconds.
    pub elapsed_ns: u64,
    /// Normalized exchange share of attributed phase time.
    pub exchange_fraction: f64,
    /// Normalized I/O share of attributed phase time.
    pub io_fraction: f64,
    /// Trace-derived critical-path attribution (buckets sum to
    /// `elapsed_ns` exactly).
    pub critical_path: CriticalPath,
}

/// Run one (scenario, strategy) cell, traced, and reduce it to its
/// [`Record`], the trace model it was reduced from (the `--check`
/// failure path mines the model for stragglers) and the deterministic
/// engine counters of its DES run as a [`DetCell`] (the per-cell
/// section of `mcio.prof.v1`). Scopes `plan`, the simulator's
/// `build-activity-graph`/`des-run`/`trace-emit`, and `analyze` land in
/// `prof`; profiling never touches simulated time, so the record is
/// byte-identical under a disabled handle. Every cell is a
/// self-contained simulation — its own DES instance, workload, and
/// trace — so cells can run on any thread in any order without
/// changing their results.
pub fn run_cell(s: &Scenario, strategy: Strategy, prof: &Prof) -> (Record, TraceModel, DetCell) {
    let harness = Harness::new((s.machine)(), s.ranks, TESTBED_PPN, s.seed);
    let req = s.shape.request(s.ranks, Rw::Write);
    let cell = Cell {
        engine: s.engine,
        ..harness.cell(strategy, &req, s.buffer)
    };
    let plan_scope = prof.scope("plan");
    let plan = cell.plan();
    drop(plan_scope);
    let observe = Observe {
        trace: true,
        prof: Some(prof),
        ..Observe::default()
    };
    let (timing, trace_json) = cell.run(&plan, observe);
    let analyze_scope = prof.scope("analyze");
    let model = TraceModel::from_chrome_json(&trace_json.expect("trace requested"))
        .expect("simulator emits a valid chrome trace");
    let record = Record {
        scenario: s.name.to_string(),
        strategy: strategy.label().to_string(),
        elapsed_ns: timing.elapsed.as_nanos(),
        exchange_fraction: timing.metrics.exchange_fraction,
        io_fraction: timing.metrics.io_fraction,
        critical_path: critical_path(&model),
    };
    drop(analyze_scope);
    let det = DetCell {
        label: format!("{}/{}", record.scenario, record.strategy),
        engine: timing.engine,
    };
    (record, model, det)
}

/// Re-run one named cell traced and return its straggler findings,
/// highest score first. Used by the `perf_suite --check` failure path
/// to name *who* inflated the regressed bucket. Unknown cells yield an
/// empty list rather than an error — the caller is already reporting a
/// failure.
pub fn cell_stragglers(scenario: &str, strategy_label: &str) -> Vec<mcio_analyze::Straggler> {
    let Some(s) = scenarios().into_iter().find(|s| s.name == scenario) else {
        return Vec::new();
    };
    let strategy = match strategy_label {
        "two-phase" => Strategy::TwoPhase,
        _ => Strategy::MemoryConscious,
    };
    let (_, model, _) = run_cell(&s, strategy, &Prof::disabled());
    mcio_analyze::stragglers(&model)
}

/// Run the whole matrix on `jobs` worker threads via the sweep engine:
/// the records, one [`DetCell`] per cell (in record order) and the
/// pool's per-worker utilization.
///
/// The fan-out unit is one (scenario, strategy) cell; results are merged
/// in the canonical record order (scenario-major, two-phase before
/// memory-conscious), so the returned records — and
/// `BENCH_perf_suite.json` rendered from them — are byte-identical at
/// any thread count, profiled or not.
pub fn run_suite(jobs: usize, prof: &Prof) -> (Vec<Record>, Vec<DetCell>, Vec<WorkerStat>) {
    let scens = scenarios();
    let cells: Vec<(&Scenario, Strategy)> = scens
        .iter()
        .flat_map(|s| Strategy::BOTH.map(|strategy| (s, strategy)))
        .collect();
    let (runs, workers) = mcio_sweep::sweep_stats(jobs, &cells, |&(s, strategy)| {
        let (record, _, det) = run_cell(s, strategy, prof);
        (record, det)
    });
    let (records, dets) = runs.into_iter().unzip();
    (records, dets, workers)
}

/// Render records as the `mcio.perf_suite.v1` JSON document.
/// Fractions are fixed to six decimals so the bytes are reproducible.
pub fn render_records(records: &[Record]) -> String {
    let mut w = Writer::document();
    w.schema(PERF_SCHEMA);
    w.rows("records", records, |r, rec| {
        r.text("scenario", &rec.scenario);
        r.text("strategy", &rec.strategy);
        r.uint("elapsed_ns", rec.elapsed_ns);
        r.float("exchange_fraction", rec.exchange_fraction, 6);
        r.float("io_fraction", rec.io_fraction, 6);
        r.inline("critical_path", |cp| rec.critical_path.write_buckets(cp));
    });
    w.finish()
}

/// Parse a `mcio.perf_suite.v1` document back into records.
pub fn parse_records(input: &str) -> Result<Vec<Record>, String> {
    let doc = json::parse(input).map_err(|e| e.to_string())?;
    let doc = Reader::new(&doc, "baseline");
    doc.schema(&[PERF_SCHEMA])?;
    doc.rows("records", |r| {
        let elapsed_ns = r.uint("elapsed_ns")?;
        Ok(Record {
            scenario: r.text("scenario")?.to_string(),
            strategy: r.text("strategy")?.to_string(),
            elapsed_ns,
            exchange_fraction: r.float("exchange_fraction")?,
            io_fraction: r.float("io_fraction")?,
            critical_path: CriticalPath::read_buckets(elapsed_ns, r.child("critical_path")?)?,
        })
    })
}

/// The bucket whose growth explains most of a slowdown:
/// `(label, delta_ns, pct_of_base)`. `None` when no bucket grew.
fn dominant_bucket_growth(
    cur: &CriticalPath,
    base: &CriticalPath,
) -> Option<(&'static str, i64, f64)> {
    cur.buckets()
        .into_iter()
        .zip(base.buckets())
        .filter_map(|((label, c), (_, b))| {
            let delta = c as i64 - b as i64;
            (delta > 0).then(|| {
                let pct = if b == 0 {
                    100.0
                } else {
                    delta as f64 / b as f64 * 100.0
                };
                (label, delta, pct)
            })
        })
        .max_by_key(|&(_, delta, _)| delta)
}

/// One regressed (scenario, strategy) pair, with the attribution data
/// the caller needs to explain and investigate it.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Scenario key (`fig6`...).
    pub scenario: String,
    /// Strategy label (`two-phase` / `memory-conscious`).
    pub strategy: String,
    /// The human message, including the bucket-level cause when one
    /// bucket grew.
    pub message: String,
}

/// Gate `current` against `baseline`: one [`Regression`] per
/// (scenario, strategy) whose elapsed time grew by more than
/// `tolerance` (relative), each naming the critical-path bucket whose
/// growth explains most of the slowdown. Pairs absent from the
/// baseline are ignored — a new scenario is not a regression.
pub fn regressions_detailed(
    current: &[Record],
    baseline: &[Record],
    tolerance: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for cur in current {
        let Some(base) = baseline
            .iter()
            .find(|b| b.scenario == cur.scenario && b.strategy == cur.strategy)
        else {
            continue;
        };
        if base.elapsed_ns == 0 {
            continue;
        }
        let ratio = cur.elapsed_ns as f64 / base.elapsed_ns as f64;
        if ratio > 1.0 + tolerance {
            let mut message = format!(
                "{}/{}: elapsed {:.3} ms -> {:.3} ms ({:+.1}%, tolerance {:.1}%)",
                cur.scenario,
                cur.strategy,
                base.elapsed_ns as f64 / 1e6,
                cur.elapsed_ns as f64 / 1e6,
                (ratio - 1.0) * 100.0,
                tolerance * 100.0,
            );
            if let Some((label, delta, pct)) =
                dominant_bucket_growth(&cur.critical_path, &base.critical_path)
            {
                message.push_str(&format!(
                    "; cause: {label} {:+.3} ms ({pct:+.1}%)",
                    delta as f64 / 1e6
                ));
            }
            out.push(Regression {
                scenario: cur.scenario.clone(),
                strategy: cur.strategy.clone(),
                message,
            });
        }
    }
    out
}

/// Diff two perf-suite documents cell by cell: one line per
/// (scenario, strategy) that differs, empty for identical documents.
/// Cells present in only one document are reported as such; shared
/// cells report the elapsed change plus every critical-path bucket
/// delta. Deterministic: line order follows `a`'s record order, then
/// `b`-only cells in `b` order.
pub fn diff_records(a: &[Record], b: &[Record]) -> Vec<String> {
    let mut out = Vec::new();
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.scenario == ra.scenario && r.strategy == ra.strategy)
        else {
            out.push(format!(
                "{}/{}: only in first document",
                ra.scenario, ra.strategy
            ));
            continue;
        };
        if ra == rb {
            continue;
        }
        let mut line = format!("{}/{}:", ra.scenario, ra.strategy);
        if ra.elapsed_ns != rb.elapsed_ns {
            let pct = if ra.elapsed_ns == 0 {
                0.0
            } else {
                (rb.elapsed_ns as f64 / ra.elapsed_ns as f64 - 1.0) * 100.0
            };
            line.push_str(&format!(
                " elapsed {:.3} ms -> {:.3} ms ({pct:+.1}%);",
                ra.elapsed_ns as f64 / 1e6,
                rb.elapsed_ns as f64 / 1e6
            ));
        }
        let mut deltas: Vec<String> = diff_critical_paths(&ra.critical_path, &rb.critical_path)
            .into_iter()
            .map(|(label, delta)| format!("{label} {:+.3} ms", delta as f64 / 1e6))
            .collect();
        if (ra.exchange_fraction - rb.exchange_fraction).abs() > 0.0 {
            deltas.push(format!(
                "exchange_fraction {:.6} -> {:.6}",
                ra.exchange_fraction, rb.exchange_fraction
            ));
        }
        if (ra.io_fraction - rb.io_fraction).abs() > 0.0 {
            deltas.push(format!(
                "io_fraction {:.6} -> {:.6}",
                ra.io_fraction, rb.io_fraction
            ));
        }
        if !deltas.is_empty() {
            line.push(' ');
            line.push_str(&deltas.join(", "));
        }
        out.push(line);
    }
    for rb in b {
        if !a
            .iter()
            .any(|r| r.scenario == rb.scenario && r.strategy == rb.strategy)
        {
            out.push(format!(
                "{}/{}: only in second document",
                rb.scenario, rb.strategy
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(scenario: &str, strategy: &str, elapsed_ns: u64) -> Record {
        Record {
            scenario: scenario.to_string(),
            strategy: strategy.to_string(),
            elapsed_ns,
            exchange_fraction: 0.25,
            io_fraction: 0.75,
            critical_path: CriticalPath {
                elapsed_ns,
                network_shuffle_ns: elapsed_ns / 4,
                ost_io_ns: elapsed_ns / 2,
                memory_wait_ns: elapsed_ns / 8,
                retry_degraded_ns: 0,
                idle_ns: elapsed_ns - elapsed_ns / 4 - elapsed_ns / 2 - elapsed_ns / 8,
            },
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let recs = vec![
            record("fig6", "two-phase", 1_000_000),
            record("fig6", "memory-conscious", 800_000),
        ];
        let rendered = render_records(&recs);
        let parsed = parse_records(&rendered).unwrap();
        assert_eq!(parsed, recs);
        // Determinism: rendering the parse reproduces the bytes.
        assert_eq!(render_records(&parsed), rendered);
    }

    /// The exascale document carries wall-clock, so no run can be a
    /// golden; a literal input pins its bytes instead.
    #[test]
    fn host_data_documents_render_fixed_bytes() {
        let engine = mcio_des::EngineProfile {
            events_fired: 3000,
            events_cancelled: 7,
            heap_high_water: 11,
            ..Default::default()
        };
        let exa = [ExaCell {
            strategy: "memory-conscious".into(),
            engine: "fair",
            elapsed_ns: 123,
            plan_wall_ns: 5,
            sim_wall_ns: 4_000_000,
            prof: engine,
        }];
        assert_eq!(
            render_exascale(&exa),
            "{\n  \"schema\": \"mcio.exascale.v1\",\n  \"cells\": [\n    \
             {\"strategy\": \"memory-conscious\", \"engine\": \"fair\", \"elapsed_ns\": 123, \
             \"events_fired\": 3000, \"events_cancelled\": 7, \"heap_high_water\": 11, \
             \"plan_wall_ns\": 5, \"sim_wall_ns\": 4000000, \"events_per_sec\": 750000.000}\n  \
             ]\n}\n"
        );
    }

    #[test]
    fn bad_schema_is_rejected() {
        assert!(parse_records("{\"schema\": \"other\", \"records\": []}").is_err());
        assert!(parse_records("[]").is_err());
        assert!(parse_records("not json").is_err());
    }

    #[test]
    fn schema_error_is_one_line_and_names_the_expected_schema() {
        for doc in [
            "{\"schema\": \"mcio.perf_suite.v2\", \"records\": []}",
            "{\"records\": []}",
        ] {
            let err = parse_records(doc).unwrap_err();
            assert!(!err.contains('\n'), "multi-line schema error: {err:?}");
            assert!(err.contains("mcio.perf_suite.v1"), "{err}");
        }
    }

    #[test]
    fn integer_fields_must_be_integers() {
        let doc = render_records(&[record("fig6", "two-phase", 1_000_000)]);
        for bad in ["-5", "1.5", "1e300"] {
            for key in ["elapsed_ns", "ost_io_ns", "retry_degraded_ns"] {
                let value = match key {
                    "elapsed_ns" => "1000000",
                    "ost_io_ns" => "500000",
                    _ => "0",
                };
                let from = format!("\"{key}\": {value}");
                assert!(doc.contains(&from), "{doc}");
                let err = parse_records(&doc.replacen(&from, &format!("\"{key}\": {bad}"), 1))
                    .expect_err(bad);
                assert!(err.contains(&format!("`{key}`")), "{bad}: {err}");
                assert!(!err.contains('\n'), "{err}");
            }
        }
    }

    #[test]
    fn pre_fault_baselines_parse_with_zero_retry_bucket() {
        // Baselines rendered before the fifth bucket existed carry no
        // retry_degraded_ns key; they must still parse (as zero).
        let old = "{\n  \"schema\": \"mcio.perf_suite.v1\",\n  \"records\": [\n    \
                   {\"scenario\": \"fig6\", \"strategy\": \"two-phase\", \"elapsed_ns\": 1000, \
                   \"exchange_fraction\": 0.25, \"io_fraction\": 0.75, \
                   \"critical_path\": {\"network_shuffle_ns\": 250, \"ost_io_ns\": 500, \
                   \"memory_wait_ns\": 125, \"idle_ns\": 125}}\n  ]\n}\n";
        let parsed = parse_records(old).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].critical_path.retry_degraded_ns, 0);
        assert_eq!(parsed[0].critical_path.attributed_ns(), 1000);
    }

    #[test]
    fn regression_gate_triggers_only_past_tolerance() {
        let base = vec![record("fig6", "two-phase", 1_000_000)];
        // +4% within 5% tolerance.
        let gate = |cur: Record| regressions_detailed(&[cur], &base, 0.05);
        assert!(gate(record("fig6", "two-phase", 1_040_000)).is_empty());
        // +6% outside it.
        let r = gate(record("fig6", "two-phase", 1_060_000));
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("fig6/two-phase"), "{}", r[0].message);
        // Faster is never a regression; unknown pairs are ignored.
        assert!(gate(record("fig6", "two-phase", 900_000)).is_empty());
        assert!(gate(record("fig9", "two-phase", 9_000_000)).is_empty());
    }

    #[test]
    fn scenario_matrix_is_stable() {
        let names: Vec<_> = scenarios().iter().map(|s| s.name).collect();
        assert_eq!(names, ["fig6", "fig7", "fig8"]);
    }

    #[test]
    fn regressions_name_the_grown_bucket() {
        let base = vec![record("fig7", "memory-conscious", 1_000_000)];
        // record() scales every bucket with elapsed, so ost_io (half of
        // elapsed) grows the most: +60_000 ns of the +120_000 total.
        let found = regressions_detailed(
            &[record("fig7", "memory-conscious", 1_120_000)],
            &base,
            0.05,
        );
        assert_eq!(found.len(), 1);
        let r = &found[0];
        assert_eq!(
            (r.scenario.as_str(), r.strategy.as_str()),
            ("fig7", "memory-conscious")
        );
        assert!(
            r.message.contains("cause: ost_io +0.060 ms (+12.0%)"),
            "{}",
            r.message
        );
    }

    #[test]
    fn identical_documents_diff_to_nothing() {
        let recs = vec![
            record("fig6", "two-phase", 1_000_000),
            record("fig6", "memory-conscious", 800_000),
        ];
        assert!(diff_records(&recs, &recs).is_empty());
        // And through a render/parse round trip.
        let parsed = parse_records(&render_records(&recs)).unwrap();
        assert!(diff_records(&recs, &parsed).is_empty());
    }

    #[test]
    fn differing_cells_report_bucket_deltas_and_orphans() {
        let a = vec![
            record("fig6", "two-phase", 1_000_000),
            record("fig7", "two-phase", 2_000_000),
        ];
        let b = vec![
            record("fig6", "two-phase", 1_200_000),
            record("fig8", "two-phase", 3_000_000),
        ];
        let lines = diff_records(&a, &b);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("fig6/two-phase"), "{}", lines[0]);
        assert!(
            lines[0].contains("elapsed 1.000 ms -> 1.200 ms (+20.0%)"),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("ost_io +0.100 ms"), "{}", lines[0]);
        assert_eq!(lines[1], "fig7/two-phase: only in first document");
        assert_eq!(lines[2], "fig8/two-phase: only in second document");
    }
}
