//! A small experiment driver: run one collective with both strategies on
//! a chosen workload/machine, entirely from the command line — and
//! analyze the traces it writes.
//!
//! ```sh
//! mcio_cli --workload ior --ranks 120 --ppn 12 --per-proc 32M --buffer 8M
//! mcio_cli --workload collperf --ranks 64 --scale 4 --buffer 4M --rw read
//! mcio_cli --workload checkpoint --ranks 48 --per-proc 16M --pipeline double
//! mcio_cli --trace run.trace.json && mcio_cli analyze --trace run.trace.json
//! ```
//!
//! Every command, flag, default and one-line description lives in the
//! flag table (`mcio_bench::cli::MCIO_CLI`); `mcio_cli --help` and
//! `mcio_cli COMMAND --help` print it. What the table cannot say:
//!
//! * `run` (the default — bare flags select it) plans the job both
//!   ways and prints both bandwidths; its job flags are the keys of
//!   `mcio_workloads::JobDesc` under their CLI spelling, so a value is
//!   checked by the same code as in a spec or trace file. One *extra*
//!   observed run of `--strategy` feeds `--trace` (resource lanes plus
//!   round phases), `--metrics` (machine, workload shape, planner
//!   decisions, utilization, wait histograms, phase timings) and
//!   `--prof`. With `--faults` both strategies run through the
//!   resilient executor (pid-3 fault lanes, a completion verdict per
//!   strategy) and `--adaptive` closes the loop between rounds (pid-5
//!   replan lanes, an `adaptive` summary line).
//! * `analyze` partitions elapsed time *exactly* into network-shuffle /
//!   OST-I/O / memory-wait / retry-degraded / idle and adds round
//!   chains, aggregator pressure, stragglers and service percentiles;
//!   its `--timeline` notice goes to stderr so `--report json` stdout
//!   stays one JSON document.
//! * `diff` takes two Chrome traces, two `mcio.perf_suite.v1` documents
//!   or two `mcio.analyze.v1` reports and prints one line per change;
//!   identical runs print nothing and exit 0.
//! * `sweep`, `multitenant` and `schedule` write byte-stable documents
//!   (`mcio.sweep.v1`, `mcio.multitenant.v1`, `mcio.schedule.v1`): the
//!   same bytes at any `--jobs` value, with or without `--prof`, whose
//!   `mcio.prof.v1` sidecar is byte-stable only in its deterministic
//!   section (`prof --det` prints exactly that, the CI diffing target).
//!
//! Exit codes are those of `mcio_bench::cli`: usage errors 2, file
//! errors and `--jobs 0` exit 1, nothing panics on bad input.

use mcio_analyze::report::ANALYZE_SCHEMA;
use mcio_analyze::{CriticalPath, RunDiff, TraceModel};
use mcio_bench::cli::{self, emit_doc, fail, read_or_exit, write_or_exit, Matches, ProfSidecar};
use mcio_bench::perf::{parse_records, Record, PERF_SCHEMA};
use mcio_bench::{format_bytes, improvement_pct, Cell, Harness};
use mcio_cluster::spec::ClusterSpec;
use mcio_core::exec_sim::{Exchange, Observe, Pipeline};
use mcio_core::{AdaptivePolicy, CollectiveConfig, Rw, Strategy};
use mcio_faults::FaultSpec;
use mcio_obs::doc::{Reader, Writer};
use mcio_obs::{MetricsFormat, Registry};
use mcio_prof::{DetCell, ProfReport};
use mcio_sched::{render_schedule, run_schedule, JobTrace, Policy, SchedConfig};
use mcio_workloads::{Ior, JobDesc};
use std::sync::Arc;

fn main() {
    let m = cli::dispatch("mcio_cli", cli::MCIO_CLI);
    match m.ctx() {
        "mcio_cli analyze" => run_analyze(&m),
        "mcio_cli diff" => run_diff(&m),
        "mcio_cli sweep" => run_sweep(&m),
        "mcio_cli multitenant" => run_multitenant_cmd(&m),
        "mcio_cli prof" => run_prof(&m),
        "mcio_cli schedule" => run_schedule_cmd(&m),
        "mcio_cli run" => run_sim(&m),
        other => unreachable!("`{other}` is in the flag table but has no runner"),
    }
}

/// `mcio_cli analyze`: the report to stdout, the optional timeline to
/// its file.
fn run_analyze(m: &Matches) {
    let ctx = m.ctx();
    let path = m.require("trace");
    let text = read_or_exit(ctx, "", path);
    let model = TraceModel::from_chrome_json(&text)
        .unwrap_or_else(|e| fail(ctx, 1, &format!("{path} is not a chrome trace: {e}")));
    if let Some(tl_path) = m.get("timeline") {
        let bucket_ns = match m.get("bucket-ns") {
            Some(_) => m.num("bucket-ns"),
            None => mcio_analyze::default_bucket_ns(model.makespan_ns()),
        };
        let buckets = model.makespan_ns().div_ceil(bucket_ns);
        if buckets > mcio_analyze::MAX_BUCKETS {
            let msg = format!(
                "--bucket-ns {bucket_ns} tiles the trace into {buckets} buckets, more than the \
                 {} a timeline holds",
                mcio_analyze::MAX_BUCKETS
            );
            fail(ctx, 1, &msg);
        }
        let tl = mcio_analyze::timeline(&model, bucket_ns);
        let body = match m.get("timeline-format") {
            Some("csv") => tl.to_csv(),
            _ => tl.to_json(),
        };
        write_or_exit(ctx, "timeline", tl_path, &body);
        // Status goes to stderr so `--report json` stdout stays a pure
        // JSON document.
        eprintln!("{ctx}: timeline written to {tl_path}");
    }
    let analysis = mcio_analyze::analyze(&model, m.num("top") as usize);
    match m.get("report") {
        Some("json") => print!("{}", analysis.to_json()),
        _ => print!("{}", analysis.to_text()),
    }
}

/// One side of a `mcio_cli diff` comparison: a raw Chrome trace, a
/// `mcio.perf_suite.v1` document, or a `mcio.analyze.v1` report
/// (reduced to what it carries — elapsed time and the critical-path
/// buckets; unknown top-level keys are ignored).
enum DiffDoc {
    Trace(Box<TraceModel>),
    Perf(Vec<Record>),
    Analyze(CriticalPath),
}

impl DiffDoc {
    fn kind(&self) -> &'static str {
        match self {
            DiffDoc::Trace(_) => "chrome trace",
            DiffDoc::Perf(_) => "perf_suite document",
            DiffDoc::Analyze(_) => "analyze report",
        }
    }
}

/// Read one diff input, sniffing its kind: a JSON array is a Chrome
/// trace; a JSON object is dispatched on its `schema` stamp. Every
/// failure is a one-line exit 1.
fn load_diff_doc(ctx: &str, path: &str) -> DiffDoc {
    let bad = |msg: String| -> ! { fail(ctx, 1, &msg) };
    let text = read_or_exit(ctx, "", path);
    if text.trim_start().starts_with('[') {
        return match TraceModel::from_chrome_json(&text) {
            Ok(m) => DiffDoc::Trace(Box::new(m)),
            Err(e) => bad(format!("{path} is not a chrome trace: {e}")),
        };
    }
    let doc = mcio_obs::json::parse(&text)
        .unwrap_or_else(|e| bad(format!("{path} is not valid JSON: {e}")));
    let doc = Reader::new(&doc, path);
    doc.schema(&[PERF_SCHEMA, ANALYZE_SCHEMA])
        .and_then(|schema| {
            if schema == PERF_SCHEMA {
                return parse_records(&text)
                    .map(DiffDoc::Perf)
                    .map_err(|e| format!("{path}: {e}"));
            }
            CriticalPath::read_buckets(doc.uint("elapsed_ns")?, doc.child("critical_path")?)
                .map(DiffDoc::Analyze)
        })
        .unwrap_or_else(|e| bad(e))
}

/// `mcio_cli diff A B` — differential run attribution.
///
/// Compares two runs of the same document kind and prints one line per
/// change; identical runs print nothing and exit 0. Traces diff
/// through every lens (critical-path buckets, utilization timelines,
/// straggler sets); perf_suite documents diff per (scenario, strategy)
/// cell; analyze reports diff elapsed time and critical-path buckets.
fn run_diff(m: &Matches) {
    let ctx = m.ctx();
    let [a_path, b_path] = m.positionals.as_slice() else {
        fail(
            ctx,
            2,
            &format!(
                "expected exactly two input files, got {}",
                m.positionals.len()
            ),
        );
    };
    let a = load_diff_doc(ctx, a_path);
    let b = load_diff_doc(ctx, b_path);
    match (&a, &b) {
        (DiffDoc::Trace(ma), DiffDoc::Trace(mb)) => {
            print!("{}", mcio_analyze::diff_models(ma, mb).to_text());
        }
        (DiffDoc::Perf(ra), DiffDoc::Perf(rb)) => {
            for line in mcio_bench::perf::diff_records(ra, rb) {
                println!("{line}");
            }
        }
        (DiffDoc::Analyze(cpa), DiffDoc::Analyze(cpb)) => {
            // Reuse the trace diff's rendering for the lenses an
            // analyze report carries.
            let d = RunDiff {
                elapsed_a_ns: cpa.elapsed_ns,
                elapsed_b_ns: cpb.elapsed_ns,
                bucket_ns: 0,
                bucket_deltas: mcio_analyze::diff_critical_paths(cpa, cpb),
                timeline_deltas: Vec::new(),
                stragglers_added: Vec::new(),
                stragglers_removed: Vec::new(),
            };
            print!("{}", d.to_text());
        }
        _ => fail(
            ctx,
            1,
            &format!(
                "cannot compare {a_path} ({}) against {b_path} ({})",
                a.kind(),
                b.kind()
            ),
        ),
    }
}

/// `mcio_cli prof FILE` — pretty-print a `mcio.prof.v1` sidecar written
/// by `run`/`sweep`/`multitenant` `--prof` or `perf_suite --prof`: the
/// deterministic totals, the host headlines (wall time, events/sec,
/// allocator peak when counted) and the top phases by exclusive wall
/// time — or, with `--det`, only the canonical deterministic section.
fn run_prof(m: &Matches) {
    let ctx = m.ctx();
    let [path] = m.positionals.as_slice() else {
        fail(
            ctx,
            2,
            &format!(
                "expected exactly one mcio.prof.v1 file, got {}",
                m.positionals.len()
            ),
        );
    };
    let report = ProfReport::from_json(&read_or_exit(ctx, "", path))
        .unwrap_or_else(|e| fail(ctx, 1, &format!("{path}: {e}")));
    if m.on("det") {
        println!("{}", report.deterministic_json());
    } else {
        print!("{}", report.render_pretty(m.num("top") as usize));
    }
}

/// `mcio_cli sweep`
///
/// A fixed buffer × pipeline × strategy grid over an IOR-shaped
/// workload. The pipeline is a run setting, not a planner input, so the
/// fan-out unit is one (buffer, strategy) pair: each worker plans its
/// pair once and holds the plan for both pipelines — six plans for
/// twelve points, by construction. Writes a byte-deterministic
/// `mcio.sweep.v1` JSON document in grid order (buffer, then pipeline,
/// then strategy): the same bytes at any `--jobs` value.
fn run_sweep(m: &Matches) {
    const BUFFERS: [(&str, u64); 3] = [("2M", 2 << 20), ("4M", 4 << 20), ("8M", 8 << 20)];
    const PIPELINES: [(&str, Pipeline); 2] = [
        ("serial", Pipeline::Serial),
        ("double", Pipeline::DoubleBuffered),
    ];
    const STRATEGIES: [(&str, Strategy); 2] = [
        ("two-phase", Strategy::TwoPhase),
        ("mc", Strategy::MemoryConscious),
    ];
    let ctx = m.ctx();
    let jobs = m.num("jobs") as usize;
    let (ranks, ppn, seed) = (
        m.num("ranks") as usize,
        m.num("ppn") as usize,
        m.num("seed"),
    );
    let out_path = m.get("out").expect("--out has a default");
    if ranks == 0 || ppn == 0 {
        fail(ctx, 1, "--ranks and --ppn must be positive");
    }

    let req = Ior::paper(ranks, 8 << 20, 4).request(Rw::Write);
    let mut spec = ClusterSpec::ttu_testbed();
    spec.nodes = spec.nodes.max(ranks.div_ceil(ppn));
    let harness = Harness::new(spec, ranks, ppn, seed);
    let sidecar = ProfSidecar::new(m.get("prof"));

    struct SweepRecord {
        key: String,
        elapsed_ns: u64,
        bandwidth_mibs: f64,
        naggs: usize,
        rounds: usize,
        engine: mcio_des::EngineProfile,
    }

    type Pair = ((&'static str, u64), (&'static str, Strategy));
    let pairs: Vec<Pair> = BUFFERS
        .iter()
        .flat_map(|&buffer| STRATEGIES.map(|strategy| (buffer, strategy)))
        .collect();
    let run_pair = |&((buffer_word, buffer), (strategy_word, strategy)): &Pair| {
        let mut cell = Cell {
            cfg: CollectiveConfig::with_buffer(buffer).mem_min(buffer / 2),
            ..harness.cell(strategy, &req, buffer)
        };
        let plan_scope = sidecar.prof().scope("plan");
        let plan = cell.plan();
        drop(plan_scope);
        PIPELINES.map(|(pipeline_word, pipeline)| {
            cell.pipeline = pipeline;
            let observe = Observe {
                prof: sidecar.observe(),
                ..Observe::default()
            };
            let (report, _) = cell.run(&plan, observe);
            SweepRecord {
                key: format!(
                    "buffer={buffer_word}/pipeline={pipeline_word}/strategy={strategy_word}"
                ),
                elapsed_ns: report.elapsed.as_nanos(),
                bandwidth_mibs: report.bandwidth_mibs,
                naggs: plan.naggs(),
                rounds: plan.max_rounds(),
                engine: report.engine,
            }
        })
    };
    let (runs, workers) = mcio_sweep::sweep_stats(jobs, &pairs, run_pair);
    // Grid order: within a buffer's two pairs, both strategies of the
    // serial pipeline, then both of the double-buffered one.
    let mut records = Vec::with_capacity(2 * runs.len());
    for both in runs.chunks(2) {
        for p in 0..PIPELINES.len() {
            records.extend(both.iter().map(|per_pipeline| &per_pipeline[p]));
        }
    }

    let mut doc = Writer::document();
    doc.schema("mcio.sweep.v1");
    doc.rows("points", &records, |r, p| {
        r.text("key", &p.key);
        r.uint("elapsed_ns", p.elapsed_ns);
        r.float("bandwidth_mibs", p.bandwidth_mibs, 6);
        r.uint("aggregators", p.naggs as u64);
        r.uint("rounds", p.rounds as u64);
    });
    write_or_exit(ctx, "", out_path, &doc.finish());
    for r in &records {
        println!(
            "{:<40} elapsed {:>10.3} ms  {:>9.1} MiB/s  ({} aggs, {} rounds)",
            r.key,
            r.elapsed_ns as f64 / 1e6,
            r.bandwidth_mibs,
            r.naggs,
            r.rounds,
        );
    }
    println!("wrote {out_path}");

    let cells = records
        .iter()
        .map(|r| DetCell {
            label: r.key.clone(),
            engine: r.engine.clone(),
        })
        .collect();
    if let Some(path) = sidecar.write(ctx, cells, &workers) {
        println!("profile written to {path}");
    }
}

/// `mcio_cli multitenant`
///
/// Runs every job of a multi-tenant spec (see `docs/multitenancy.md`
/// for the DSL) concurrently on the shared machine and emits the
/// byte-stable `mcio.multitenant.v1` document — to `--out` when given,
/// to stdout otherwise. `--trace FILE` additionally writes the unified
/// Chrome trace (per-job round lanes plus the pid-4 tenant windows
/// `mcio_cli analyze` attributes into self vs. cross-job contention).
fn run_multitenant_cmd(m: &Matches) {
    let ctx = m.ctx();
    let spec_path = m.require("spec");
    let spec = mcio_bench::mtspec::MtSpec::parse(&read_or_exit(ctx, "", spec_path))
        .unwrap_or_else(|e| fail(ctx, 1, &format!("{spec_path}: {e}")));
    let jobs = spec.build_jobs();
    let want_trace = m.get("trace");
    let sidecar = ProfSidecar::new(m.get("prof"));
    let observe = Observe {
        trace: want_trace.is_some(),
        prof: sidecar.observe(),
        ..Observe::default()
    };
    let faults = spec.faults.as_ref();
    let mt = mcio_core::run_multitenant(&jobs, &spec.machine, faults, AdaptivePolicy::Off, observe);
    // One cell: the whole multi-tenant machine is a single shared DES
    // run.
    let cell = DetCell {
        label: "multitenant".to_string(),
        engine: mt.engine.clone(),
    };
    if let Some(path) = sidecar.write(ctx, vec![cell], &[]) {
        eprintln!("{ctx}: profile written to {path}");
    }
    if let Some(path) = want_trace {
        let json = mt.trace.as_deref().expect("trace was requested");
        write_or_exit(ctx, "trace", path, json);
    }
    let doc = mcio_bench::mtspec::render_run(&spec.machine.name, &mt);
    emit_doc(ctx, m.get("out"), &doc, || {
        for j in &mt.jobs {
            println!(
                "{:<12} {:<17} window {:>10.3} ms  slowdown {:>6.3}x  ost-overlap {:>5.3}",
                j.label,
                j.strategy.label(),
                (j.end_ns - j.start_ns) as f64 / 1e6,
                j.slowdown,
                j.ost_overlap,
            );
        }
    });
}

/// `mcio_cli schedule`
///
/// Replays a `mcio.jobtrace.v1` job stream through the queue
/// scheduler and emits the byte-stable `mcio.schedule.v1` document —
/// to `--out` when given, to stdout otherwise. `--jobs` only fans the
/// solo-baseline precompute; the document bytes never depend on it.
fn run_schedule_cmd(m: &Matches) {
    let ctx = m.ctx();
    let path = m.require("trace");
    let policy = Policy::parse(m.get("policy").expect("--policy has a default"))
        .expect("checked by the flag table");
    let trace = JobTrace::parse(&read_or_exit(ctx, "", path))
        .unwrap_or_else(|e| fail(ctx, 1, &format!("{path}: {e}")));
    let cfg = SchedConfig {
        policy,
        admission: m.on("admission"),
        jobs: m.num("jobs") as usize,
        collect_trace: m.get("chrome").is_some(),
    };
    let registry = m.get("metrics").map(|_| Registry::shared());
    let s = run_schedule(&trace, &cfg, registry.as_ref());
    if let Some(chrome_path) = m.get("chrome") {
        let json = s.trace.as_deref().expect("trace was requested");
        write_or_exit(ctx, "trace", chrome_path, json);
        eprintln!("{ctx}: scheduler trace written to {chrome_path}");
    }
    if let (Some(metrics_path), Some(registry)) = (m.get("metrics"), &registry) {
        let fmt = MetricsFormat::parse("json").expect("json is a metrics format");
        let body = fmt.render(&registry.snapshot());
        write_or_exit(ctx, "metrics", metrics_path, &body);
        eprintln!("{ctx}: metrics written to {metrics_path}");
    }
    emit_doc(ctx, m.get("out"), &render_schedule(&s), || {
        for j in &s.jobs {
            println!(
                "{:<12} wait {:>10.3} ms  turnaround {:>10.3} ms  slowdown {:>7.3}x  \
                 {:>2} nodes{}",
                j.name,
                j.wait_ns as f64 / 1e6,
                j.turnaround_ns as f64 / 1e6,
                j.slowdown,
                j.nodes,
                if j.backfilled { "  [backfill]" } else { "" },
            );
        }
        println!(
            "policy {}: makespan {:.3} ms, p50 slowdown {:.3}, p99 slowdown {:.3}, \
             {} backfills, {} deferrals",
            s.policy.label(),
            s.makespan_ns as f64 / 1e6,
            s.p50_slowdown,
            s.p99_slowdown,
            s.backfills,
            s.admission_deferrals,
        );
    });
}

/// The job flags of `run`: [`JobDesc`] keys, `_` spelled `-`.
const JOB_FLAGS: [&str; 12] = [
    "workload", "ranks", "ppn", "per-proc", "segments", "scale", "buffer", "stddev", "seed", "rw",
    "pipeline", "strategy",
];

/// `mcio_cli run` (and bare flags).
fn run_sim(m: &Matches) {
    let ctx = m.ctx();
    let mut desc = JobDesc::default();
    for flag in JOB_FLAGS {
        let value = m.get(flag).expect("job flags have defaults");
        if let Err(e) = desc.set(&flag.replace('-', "_"), value) {
            fail(ctx, 2, &format!("--{flag}: {e}"));
        }
    }
    if m.on("two-level") {
        desc.exchange = Exchange::TwoLevel;
    }
    if let Err(e) = desc.validate() {
        fail(ctx, 2, &e);
    }
    let policy = AdaptivePolicy::parse(m.get("adaptive").expect("--adaptive has a default"))
        .expect("checked by the flag table");
    let engine = mcio_des::SharePolicy::parse(m.get("engine").expect("--engine has a default"))
        .expect("checked by the flag table");
    let fmt = MetricsFormat::parse(m.get("metrics-format").expect("has a default"))
        .expect("checked by the flag table");

    let map = desc.map();
    let mut spec = match m.get("machine") {
        Some("testbed") => ClusterSpec::ttu_testbed(),
        Some("exascale") => ClusterSpec::exascale_2018(),
        _ => ClusterSpec::small(map.nnodes(), desc.ppn),
    };
    if spec.nodes < map.nnodes() {
        spec.nodes = map.nnodes();
    }
    let req = desc.request(0);
    let cfg = desc.config(&req);
    let env = desc.memory();

    println!(
        "{} {} x {} ranks ({} nodes), {} total, buffer {} (stddev {}), machine {}",
        m.get("workload").expect("has a default"),
        desc.rw.name(),
        desc.ranks,
        map.nnodes(),
        format_bytes(req.total_bytes()),
        format_bytes(desc.buffer),
        desc.stddev,
        spec.name,
    );

    // Fault plan, validated before any simulation runs: unreadable or
    // malformed specs exit 1 with a one-line reason. The parser can't
    // know the machine, so OST targets are checked here against the
    // resolved spec.
    let fault_spec: Option<FaultSpec> = m.get("faults").map(|path| {
        FaultSpec::parse(&read_or_exit(ctx, "faults", path))
            .and_then(|fspec| {
                fspec
                    .validate_targets(spec.io_servers, spec.nodes)
                    .map(|()| fspec)
            })
            .unwrap_or_else(|e| fail(ctx, 1, &format!("faults {path}: {e}")))
    });

    // One cell per strategy: the summary lines, the faulted runs and
    // the observed export all simulate the configuration the flags ask
    // for — one (pipeline, exchange, engine) triple per invocation.
    let [tp_cell, mc_cell] = Strategy::BOTH.map(|strategy| Cell {
        strategy,
        req: &req,
        map: &map,
        mem: env.clone(),
        cfg: cfg.clone(),
        spec: &spec,
        pipeline: desc.pipeline,
        exchange: desc.exchange,
        engine,
    });
    let sidecar = ProfSidecar::new(m.get("prof"));
    let plan_scope = sidecar.prof().scope("plan");
    let (tp_plan, mc_plan) = (tp_cell.plan(), mc_cell.plan());
    drop(plan_scope);
    tp_plan.check(&req).expect("two-phase plan sound");
    mc_plan.check(&req).expect("memory-conscious plan sound");

    // Observability exports come from the selected strategy's run
    // (--strategy, default memory-conscious), observed the one time it
    // is simulated: the metrics registry, the unified Chrome trace,
    // and/or the `mcio.prof.v1` simulator profile.
    let (want_metrics, want_trace) = (m.get("metrics"), m.get("trace"));
    let exporting = want_metrics.is_some() || want_trace.is_some() || sidecar.observe().is_some();
    let registry = Arc::new(Registry::new());
    let observe = Observe {
        registry: want_metrics.map(|_| &registry),
        trace: want_trace.is_some(),
        prof: sidecar.observe(),
        ..Observe::default()
    };
    let observed = |strategy| match exporting && strategy == desc.strategy {
        true => observe,
        false => Observe::default(),
    };
    let mut fault_outcomes = fault_spec.as_ref().map(|fspec| {
        [(&tp_cell, &tp_plan), (&mc_cell, &mc_plan)]
            .map(|(cell, plan)| cell.run_faulted(plan, fspec, policy, observed(cell.strategy)))
    });
    let [(tp, tp_trace), (mcr, mc_trace)] = match &mut fault_outcomes {
        Some([tpo, mco]) => [tpo, mco].map(|o| (o.report.clone(), o.trace.take())),
        None => [(&tp_cell, &tp_plan), (&mc_cell, &mc_plan)]
            .map(|(cell, plan)| cell.run(plan, observed(cell.strategy))),
    };
    println!(
        "two-phase       : {:>9.1} MiB/s  ({} aggs, {} rounds, elapsed {})",
        tp.bandwidth_mibs,
        tp_plan.naggs(),
        tp_plan.max_rounds(),
        tp.elapsed,
    );
    println!(
        "memory-conscious: {:>9.1} MiB/s  ({} aggs, {} rounds, elapsed {})  [{:+.1}%]",
        mcr.bandwidth_mibs,
        mc_plan.naggs(),
        mc_plan.max_rounds(),
        mcr.elapsed,
        improvement_pct(tp.bandwidth_mibs, mcr.bandwidth_mibs),
    );
    if let (Some(fspec), Some([tpo, mco])) = (&fault_spec, &fault_outcomes) {
        println!(
            "faults          : {} event(s), seed {}",
            fspec.events.len(),
            fspec.seed
        );
        for (label, o) in [("two-phase", tpo), ("memory-conscious", mco)] {
            println!(
                "{label:<16}: {}  (failovers {}, degraded rounds {}, retries {}, exhausted {})",
                if o.completed {
                    "completed"
                } else {
                    "INCOMPLETE"
                },
                o.failovers,
                o.degraded_rounds,
                o.retries,
                o.retry_exhausted,
            );
        }
        if !policy.is_off() {
            let a = &mco.adaptive;
            println!(
                "adaptive        : policy {} (severity {:.3}, deferrals {}, demotions {}, \
                 resplits {}{})",
                policy.label(),
                a.severity,
                a.deferrals,
                a.demotions,
                a.resplits,
                match a.retuned {
                    Some((old, new)) => format!(", msg_group {old} -> {new}"),
                    None => String::new(),
                },
            );
        }
    }

    if exporting {
        let (obs_timing, trace_json) = match desc.strategy {
            Strategy::MemoryConscious => (&mcr, mc_trace),
            Strategy::TwoPhase => (&tp, tp_trace),
        };
        let label = desc.strategy.label();
        spec.record_into(&registry);
        mcio_workloads::record_request(&req, &registry);
        if let Some(path) = want_metrics {
            write_or_exit(ctx, "metrics", path, &fmt.render(&registry.snapshot()));
            println!("{label} metrics written to {path}");
        }
        if let Some(path) = want_trace {
            write_or_exit(
                ctx,
                "trace",
                path,
                &trace_json.expect("trace was requested"),
            );
            println!("{label} timeline written to {path} (open in Perfetto)");
        }
        let cell = DetCell {
            label: format!("run/{label}"),
            engine: obs_timing.engine.clone(),
        };
        if let Some(path) = sidecar.write(ctx, vec![cell], &[]) {
            println!("{label} profile written to {path}");
        }
    }
}
