//! Golden bytes for every `mcio.*.v1` document `mcio_cli` emits and for
//! the metrics dump.
//!
//! Each fixture under `tests/fixtures/docs/` is the exact output of the
//! command its test runs, over inputs that are committed next to it
//! (`analyze_trace.json`, `overlap.mtspec`, `sched_small.jobtrace`,
//! `docs/degraded.faults`; the fair-engine schedule reads
//! `sched_small.jobtrace` with an `engine fair` line after `machine`).
//! The test re-runs the command and compares byte for byte, so a
//! change to a document's layout, key order, float precision or
//! escaping shows up as a readable diff. Regenerate a
//! fixture by running the same command (from `crates/bench`, with `$T`
//! a scratch directory) when the change is intentional:
//!
//! ```sh
//! F=tests/fixtures; D=$F/docs; TINY="--ranks 4 --ppn 2 --per-proc 64K --buffer 32K --machine small --segments 2"
//! mcio_cli analyze --trace $F/analyze_trace.json --report json --timeline $D/timeline.json > $D/analyze.json
//! mcio_cli multitenant --spec $F/overlap.mtspec --trace $T/mt.trace > $D/multitenant.json
//! mcio_cli analyze --trace $T/mt.trace --report json > $D/analyze_multitenant.json
//! mcio_cli schedule --trace $F/sched_small.jobtrace --policy backfill --admission \
//!     --chrome $T/sched.trace --metrics $D/schedule_metrics.json > $D/schedule.json
//! mcio_cli analyze --trace $T/sched.trace --report json > $D/analyze_schedule.json
//! sed -e '/^machine/a engine fair' $F/sched_small.jobtrace > $T/fair.jobtrace
//! mcio_cli schedule --trace $T/fair.jobtrace --policy backfill --admission > $D/schedule_fair.json
//! mcio_cli sweep --ranks 4 --ppn 2 --out $D/sweep.json
//! mcio_cli run $TINY --metrics $D/metrics.json --metrics-format json --prof $T/prof.json
//! mcio_cli run $TINY --metrics $D/metrics.csv --metrics-format csv
//! mcio_cli run $TINY --metrics $D/metrics.prom --metrics-format prom
//! mcio_cli prof --det $T/prof.json > $D/prof_det.json
//! mcio_cli run --ranks 16 --ppn 4 --per-proc 1M --buffer 1M --machine small \
//!     --faults $D/degraded.faults --adaptive aggressive --trace $T/replan.trace \
//!     --metrics $D/metrics_faulted.json
//! mcio_cli analyze --trace $T/replan.trace --report json > $D/analyze_replan.json
//! ```
//!
//! Between them the four analyze fixtures cover every optional section
//! of `mcio.analyze.v1` (`stragglers`, `tenants`, `replans`, `sched`).
//! The Chrome traces are pinned too: `analyze_trace.json` is what
//! `mcio_cli run $TINY --trace F` writes, byte for byte, and the three
//! traces written above to `$T` are held to their byte length and
//! FNV-1a-64 hash ([`TracePin`]; a failing assert prints the pair).
//! Host-data documents (`mcio.exascale.v1`, the host section of
//! `mcio.prof.v1`) are pinned by literal-input unit
//! tests next to their emitters; `BENCH_perf_suite.json` and
//! `BENCH_scheduler_suite.json` are goldens of their own.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_str()
        .expect("utf-8 path")
        .to_string()
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("mcio_docs_golden_{}_{name}", std::process::id()))
        .to_str()
        .expect("utf-8 path")
        .to_string()
}

/// Run `mcio_cli ARGS`, require exit 0, return stdout.
fn cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mcio_cli"))
        .args(args)
        .output()
        .expect("spawn mcio_cli");
    assert_eq!(
        out.status.code(),
        Some(0),
        "mcio_cli {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn read_and_remove(path: &str) -> String {
    let text = std::fs::read_to_string(path).expect("command wrote its file");
    std::fs::remove_file(path).ok();
    text
}

fn assert_golden(name: &str, actual: &str) {
    let golden = std::fs::read_to_string(fixture(&format!("docs/{name}"))).expect("golden exists");
    assert_eq!(
        actual, golden,
        "{name} drifted from tests/fixtures/docs/{name} (regenerate it with the command in \
         this file's header if the change is intentional)"
    );
}

fn analyze_json(trace: &str) -> String {
    cli(&["analyze", "--trace", trace, "--report", "json"])
}

/// A written trace's byte length and FNV-1a-64 hash.
type TracePin = (usize, u64);

fn assert_trace_pin(name: &str, path: &str, pin: TracePin) {
    let bytes = std::fs::read(path).expect("command wrote its trace");
    let fnv = (bytes.iter()).fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(
        (bytes.len(), fnv),
        pin,
        "{name} drifted from its pinned (length, FNV-1a-64)"
    );
}

const TINY: [&str; 12] = [
    "--ranks",
    "4",
    "--ppn",
    "2",
    "--per-proc",
    "64K",
    "--buffer",
    "32K",
    "--machine",
    "small",
    "--segments",
    "2",
];

#[test]
fn analyze_and_timeline_documents() {
    let timeline = tmp("timeline.json");
    let report = cli(&[
        "analyze",
        "--trace",
        &fixture("analyze_trace.json"),
        "--report",
        "json",
        "--timeline",
        &timeline,
    ]);
    assert_golden("analyze.json", &report);
    assert_golden("timeline.json", &read_and_remove(&timeline));
}

#[test]
fn multitenant_document_and_its_tenant_attribution() {
    let trace = tmp("mt.trace");
    let doc = cli(&[
        "multitenant",
        "--spec",
        &fixture("overlap.mtspec"),
        "--trace",
        &trace,
    ]);
    assert_golden("multitenant.json", &doc);
    assert_trace_pin("mt.trace", &trace, MT_TRACE);
    assert_golden("analyze_multitenant.json", &analyze_json(&trace));
    std::fs::remove_file(&trace).ok();
}

const MT_TRACE: TracePin = (58_379, 0x0bd4_5d42_5bd5_57e3);
const SCHED_TRACE: TracePin = (3_224, 0x59bb_cbe6_6f81_b41a);
const REPLAN_TRACE: TracePin = (70_579, 0xa307_2109_a53e_d168);

#[test]
fn the_analyze_fixture_is_what_a_traced_run_writes() {
    let trace = tmp("analyze_trace.json");
    let mut args = vec!["run"];
    args.extend_from_slice(&TINY);
    args.extend_from_slice(&["--trace", &trace]);
    cli(&args);
    let fixture = std::fs::read(fixture("analyze_trace.json")).expect("fixture exists");
    assert!(
        read_and_remove(&trace).as_bytes() == fixture,
        "tests/fixtures/analyze_trace.json is no longer what `mcio_cli run` writes"
    );
}

#[test]
fn schedule_document_its_metrics_and_its_sched_section() {
    let (chrome, metrics) = (tmp("sched.trace"), tmp("sched_metrics.json"));
    let doc = cli(&[
        "schedule",
        "--trace",
        &fixture("sched_small.jobtrace"),
        "--policy",
        "backfill",
        "--admission",
        "--chrome",
        &chrome,
        "--metrics",
        &metrics,
    ]);
    assert_golden("schedule.json", &doc);
    assert_golden("schedule_metrics.json", &read_and_remove(&metrics));
    assert_trace_pin("sched.trace", &chrome, SCHED_TRACE);
    assert_golden("analyze_schedule.json", &analyze_json(&chrome));
    std::fs::remove_file(&chrome).ok();
}

/// The same stream on a fair-share machine: every commit probes the
/// newcomer against the ledger's service windows under processor
/// sharing, the engine no other golden drives through the scheduler.
#[test]
fn schedule_document_under_the_fair_engine() {
    let text = std::fs::read_to_string(fixture("sched_small.jobtrace")).expect("fixture exists");
    let fair: String = (text.lines())
        .map(|line| match line.starts_with("machine") {
            true => format!("{line}\nengine fair\n"),
            false => format!("{line}\n"),
        })
        .collect();
    assert!(
        fair.contains("\nengine fair\n"),
        "the fixture names its machine"
    );
    let trace = tmp("fair.jobtrace");
    std::fs::write(&trace, fair).expect("write the fair trace");
    let doc = cli(&[
        "schedule",
        "--trace",
        &trace,
        "--policy",
        "backfill",
        "--admission",
    ]);
    std::fs::remove_file(&trace).ok();
    assert_golden("schedule_fair.json", &doc);
}

#[test]
fn sweep_document() {
    let out = tmp("sweep.json");
    cli(&["sweep", "--ranks", "4", "--ppn", "2", "--out", &out]);
    assert_golden("sweep.json", &read_and_remove(&out));
}

#[test]
fn metrics_dump_and_deterministic_profile() {
    let (metrics, prof) = (tmp("metrics.json"), tmp("prof.json"));
    let mut args = vec!["run"];
    args.extend_from_slice(&TINY);
    args.extend_from_slice(&[
        "--metrics",
        &metrics,
        "--metrics-format",
        "json",
        "--prof",
        &prof,
    ]);
    cli(&args);
    assert_golden("metrics.json", &read_and_remove(&metrics));
    assert_golden("prof_det.json", &cli(&["prof", "--det", &prof]));
    std::fs::remove_file(&prof).ok();
}

#[test]
fn metrics_dump_in_csv_and_prometheus() {
    for format in ["csv", "prom"] {
        let metrics = tmp(&format!("metrics.{format}"));
        let mut args = vec!["run"];
        args.extend_from_slice(&TINY);
        args.extend_from_slice(&["--metrics", &metrics, "--metrics-format", format]);
        cli(&args);
        assert_golden(&format!("metrics.{format}"), &read_and_remove(&metrics));
    }
}

#[test]
fn replan_section_of_an_adaptive_faulted_run() {
    let (trace, metrics) = (tmp("replan.trace"), tmp("metrics_faulted.json"));
    cli(&[
        "run",
        "--ranks",
        "16",
        "--ppn",
        "4",
        "--per-proc",
        "1M",
        "--buffer",
        "1M",
        "--machine",
        "small",
        "--faults",
        &fixture("docs/degraded.faults"),
        "--adaptive",
        "aggressive",
        "--trace",
        &trace,
        "--metrics",
        &metrics,
    ]);
    assert_golden("metrics_faulted.json", &read_and_remove(&metrics));
    assert_trace_pin("replan.trace", &trace, REPLAN_TRACE);
    assert_golden("analyze_replan.json", &analyze_json(&trace));
    std::fs::remove_file(&trace).ok();
}
