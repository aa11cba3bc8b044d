//! Exit-code hygiene and analyze-output contracts for `mcio_cli`.
//!
//! Usage errors (unknown flags/subcommands) must exit 2, I/O failures
//! must exit 1 with a one-line error (no panic backtrace), and the
//! happy path must produce a JSON analysis whose critical-path buckets
//! partition the elapsed time.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcio_cli"))
}

fn run(args: &[&str]) -> Output {
    cli().args(args).output().expect("spawn mcio_cli")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A tiny deterministic run that finishes in well under a second.
const TINY: &[&str] = &[
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

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcio_cli_test_{}_{name}", std::process::id()))
}

#[test]
fn unknown_flag_exits_2_with_one_line_error() {
    let out = run(&["--no-such-flag", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown flag --no-such-flag"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn unknown_subcommand_exits_2() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown subcommand `frobnicate`"));
}

#[test]
fn unknown_analyze_flag_exits_2() {
    let out = run(&["analyze", "--trace", "x.json", "--verbose"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag --verbose"));
}

#[test]
fn missing_value_exits_2() {
    let out = run(&["--ranks"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--ranks needs a value"));
}

#[test]
fn unwritable_trace_path_exits_1_without_panic() {
    let mut args = TINY.to_vec();
    args.extend_from_slice(&["--trace", "/nonexistent-dir/trace.json"]);
    let out = run(&args);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot write trace"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn unwritable_metrics_path_exits_1_without_panic() {
    let mut args = TINY.to_vec();
    args.extend_from_slice(&["--metrics", "/nonexistent-dir/metrics.json"]);
    let out = run(&args);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot write metrics"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn analyze_missing_trace_file_exits_1() {
    let out = run(&["analyze", "--trace", "/no/such/trace.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn analyze_garbage_trace_exits_1() {
    let path = tmp("garbage.json");
    std::fs::write(&path, "this is not a trace").unwrap();
    let out = run(&["analyze", "--trace", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("is not a chrome trace"));
}

/// The trace reader is total: an event whose time does not fit `u64`
/// nanoseconds (it used to panic in debug builds and wrap in release)
/// or whose lane is not an unsigned integer is one `event N: …` line,
/// exit 1, for `analyze` and `diff` alike.
#[test]
fn analyze_and_diff_reject_out_of_range_events() {
    let good = write_tiny_trace("range_good.json", &[]);
    let good_s = good.to_str().unwrap();
    for (name, fields, why) in [
        (
            "ts",
            "\"ts\":1e300,\"dur\":1,\"pid\":1,\"tid\":0",
            "\"ts\" is negative or does not fit",
        ),
        (
            "sum",
            "\"ts\":1e16,\"dur\":1e16,\"pid\":1,\"tid\":0",
            "\"ts\" + \"dur\" does not fit",
        ),
        (
            "pid",
            "\"ts\":0,\"dur\":1,\"pid\":-1,\"tid\":0",
            "\"pid\" is not an unsigned integer",
        ),
        (
            "tid",
            "\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":1.5",
            "\"tid\" is not an unsigned integer",
        ),
    ] {
        let path = tmp(&format!("range_{name}.json"));
        let path_s = path.to_str().unwrap();
        std::fs::write(&path, format!("[{{\"name\":\"x\",\"ph\":\"X\",{fields}}}]")).unwrap();
        for args in [
            vec!["analyze", "--trace", path_s],
            vec!["diff", good_s, path_s],
        ] {
            let out = run(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            let err = stderr(&out);
            assert!(err.contains("is not a chrome trace: event 0: "), "{err}");
            assert!(err.contains(why), "{err}");
            assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
        }
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&good).ok();
}

/// Nesting has a ceiling in the one JSON tokenizer, so a file of two
/// million `[` — bare, or tucked into a member the trace reader only
/// skips, or where `diff` sniffs for a schema — is one line and exit 1
/// (every reader used to recurse once per bracket and overflow the
/// stack, exit 134).
#[test]
fn analyze_and_diff_reject_bottomless_nesting() {
    let good = write_tiny_trace("deep_good.json", &[]);
    let good_s = good.to_str().unwrap();
    let deep = "[".repeat(2_000_000);
    for (name, doc, offset) in [
        ("bare", deep.clone(), 128),
        (
            "hidden",
            format!("[{{\"name\":\"x\",\"ph\":\"X\",\"stack\":{deep}"),
            30 + 126,
        ),
        ("object", format!("{{\"schema\":{deep}"), 10 + 127),
    ] {
        let path = tmp(&format!("deep_{name}.json"));
        let path_s = path.to_str().unwrap();
        std::fs::write(&path, doc).unwrap();
        for args in [
            vec!["analyze", "--trace", path_s],
            vec!["diff", good_s, path_s],
            vec!["diff", path_s, good_s],
        ] {
            let out = run(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            let err = stderr(&out);
            let why = format!("JSON parse error at byte {offset}: nesting deeper than 128");
            assert!(err.trim().ends_with(&why), "{args:?}: {err}");
            assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
        }
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&good).ok();
}

#[test]
fn analyze_requires_trace_flag() {
    let out = run(&["analyze"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--trace FILE is required"));
}

/// End-to-end: run → trace → analyze; for BOTH strategies the JSON
/// critical-path buckets must sum to within 1% of elapsed (they are an
/// exact partition, so we assert equality and keep 1% as the contract).
#[test]
fn analyze_json_buckets_partition_elapsed_for_both_strategies() {
    for strategy in ["two-phase", "mc"] {
        let path = tmp(&format!("trace_{strategy}.json"));
        let mut args = TINY.to_vec();
        let path_s = path.to_str().unwrap();
        args.extend_from_slice(&["--strategy", strategy, "--trace", path_s]);
        let out = run(&args);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

        let out = run(&["analyze", "--trace", path_s, "--report", "json"]);
        std::fs::remove_file(&path).ok();
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        let doc = mcio_obs::json::parse(&String::from_utf8_lossy(&out.stdout))
            .expect("analyze emits valid JSON");
        let elapsed = doc
            .get("elapsed_ns")
            .and_then(mcio_obs::json::JsonValue::as_f64)
            .expect("elapsed_ns");
        assert!(elapsed > 0.0, "nonempty run");
        let cp = doc.get("critical_path").expect("critical_path");
        let sum: f64 = [
            "network_shuffle_ns",
            "ost_io_ns",
            "memory_wait_ns",
            "idle_ns",
        ]
        .iter()
        .map(|k| {
            cp.get(k)
                .and_then(mcio_obs::json::JsonValue::as_f64)
                .unwrap()
        })
        .sum();
        assert!(
            (sum - elapsed).abs() <= elapsed * 0.01,
            "{strategy}: buckets sum {sum} vs elapsed {elapsed}"
        );
        assert_eq!(sum, elapsed, "{strategy}: partition is in fact exact");
    }
}

/// The text report renders without error and names a bottleneck.
#[test]
fn analyze_text_report_names_a_bottleneck() {
    let path = tmp("trace_text.json");
    let path_s = path.to_str().unwrap();
    let mut args = TINY.to_vec();
    args.extend_from_slice(&["--trace", path_s]);
    assert_eq!(run(&args).status.code(), Some(0));
    let out = run(&["analyze", "--trace", path_s, "--top", "3"]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("== critical path =="), "{text}");
    assert!(text.contains("bottleneck"), "{text}");
}

#[test]
fn sweep_unknown_flag_exits_2() {
    let out = run(&["sweep", "--threads", "4"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown flag --threads"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn sweep_jobs_zero_exits_1() {
    let out = run(&["sweep", "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("--jobs must be a positive integer"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn sweep_jobs_garbage_exits_1() {
    let out = run(&["sweep", "--jobs", "many"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--jobs must be a positive integer"));
}

#[test]
fn sweep_missing_jobs_value_exits_2() {
    let out = run(&["sweep", "--jobs"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--jobs needs a value"));
}

#[test]
fn sweep_unwritable_out_exits_1_without_panic() {
    let out = run(&[
        "sweep",
        "--ranks",
        "8",
        "--ppn",
        "4",
        "--out",
        "/nonexistent-dir/sweep.json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot write"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn sweep_zero_ranks_exits_1() {
    let out = run(&["sweep", "--ranks", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("must be positive"));
}

#[test]
fn faults_missing_file_exits_1_with_one_line_error() {
    let mut args = TINY.to_vec();
    args.extend_from_slice(&["--faults", "/no/such/faults.txt"]);
    let out = run(&args);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot read faults"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn faults_garbage_spec_exits_1_with_one_line_error() {
    let path = tmp("faults_garbage.txt");
    std::fs::write(&path, "seed 1\nfrobnicate(3)\n").unwrap();
    let mut args = TINY.to_vec();
    let path_s = path.to_str().unwrap().to_owned();
    args.extend_from_slice(&["--faults", &path_s]);
    let out = run(&args);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("faults"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn diff_unknown_flag_exits_2() {
    let out = run(&["diff", "--verbose", "a.json", "b.json"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown flag --verbose"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn diff_wrong_arity_exits_2() {
    for args in [&["diff"][..], &["diff", "only-one.json"][..]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2));
        assert!(stderr(&out).contains("exactly two input files"));
    }
}

#[test]
fn diff_unreadable_input_exits_1_with_one_line_error() {
    let out = run(&["diff", "/no/such/a.json", "/no/such/b.json"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot read"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn diff_unsupported_schema_exits_1() {
    let path = tmp("diff_weird.json");
    std::fs::write(&path, "{\"schema\": \"mcio.mystery.v9\"}\n").unwrap();
    let path_s = path.to_str().unwrap().to_owned();
    let out = run(&["diff", &path_s, &path_s]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("unsupported schema `mcio.mystery.v9`"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn diff_schemaless_object_exits_1() {
    let path = tmp("diff_schemaless.json");
    std::fs::write(&path, "{\"points\": []}\n").unwrap();
    let path_s = path.to_str().unwrap().to_owned();
    let out = run(&["diff", &path_s, &path_s]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("no `schema` stamp"));
}

/// Write one tiny trace and return its path (caller removes it).
fn write_tiny_trace(name: &str, extra: &[&str]) -> PathBuf {
    let path = tmp(name);
    let path_s = path.to_str().unwrap().to_owned();
    let mut args = TINY.to_vec();
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--trace", &path_s]);
    let out = run(&args);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    path
}

/// The tentpole determinism contract: a run diffed against itself
/// prints exactly nothing and exits 0.
#[test]
fn diff_identical_traces_prints_nothing() {
    let path = write_tiny_trace("diff_same.json", &[]);
    let path_s = path.to_str().unwrap().to_owned();
    let out = run(&["diff", &path_s, &path_s]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        out.stdout.is_empty(),
        "expected empty diff, got: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Two different runs diff to attribution lines: elapsed plus at least
/// one critical_path bucket delta.
#[test]
fn diff_differing_traces_names_buckets() {
    let a = write_tiny_trace("diff_a.json", &[]);
    let b = write_tiny_trace("diff_b.json", &["--strategy", "two-phase"]);
    let out = run(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("elapsed: "), "{text}");
    assert!(text.contains("critical_path["), "{text}");
}

#[test]
fn diff_mismatched_kinds_exits_1() {
    let trace = write_tiny_trace("diff_kind.json", &[]);
    let perf = tmp("diff_kind_analyze.json");
    let trace_s = trace.to_str().unwrap().to_owned();
    let out = run(&["analyze", "--trace", &trace_s, "--report", "json"]);
    assert_eq!(out.status.code(), Some(0));
    std::fs::write(&perf, &out.stdout).unwrap();
    let out = run(&["diff", &trace_s, perf.to_str().unwrap()]);
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&perf).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot compare"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
}

/// Two analyze reports diff through their critical-path buckets, and a
/// report diffed against itself is empty — even with unknown top-level
/// keys injected (the re-parser must ignore what it does not know).
#[test]
fn diff_analyze_reports_and_ignores_unknown_keys() {
    let trace = write_tiny_trace("diff_report.json", &[]);
    let out = run(&[
        "analyze",
        "--trace",
        trace.to_str().unwrap(),
        "--report",
        "json",
    ]);
    std::fs::remove_file(&trace).ok();
    assert_eq!(out.status.code(), Some(0));
    let doc = String::from_utf8_lossy(&out.stdout).into_owned();
    let doctored = doc.replacen(
        "\"elapsed_ns\"",
        "\"future_extension\": {\"nested\": [1, 2]},\n  \"elapsed_ns\"",
        1,
    );
    assert_ne!(doc, doctored, "injection must land");
    let a = tmp("diff_report_a.json");
    let b = tmp("diff_report_b.json");
    std::fs::write(&a, &doc).unwrap();
    std::fs::write(&b, &doctored).unwrap();
    let out = run(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        out.stdout.is_empty(),
        "unknown keys changed the diff: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A corrupt analyze report is an error, not a confident diff of
/// whatever `-5 as u64` happens to be.
#[test]
fn diff_analyze_report_with_negative_integer_exits_1() {
    let fixture = format!(
        "{}/tests/fixtures/docs/analyze.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let good = std::fs::read_to_string(&fixture).expect("golden exists");
    let corrupt = good.replacen("\"elapsed_ns\": 8556197", "\"elapsed_ns\": -5", 1);
    assert_ne!(good, corrupt, "corruption must land");
    let path = tmp("diff_negative.json");
    std::fs::write(&path, corrupt).unwrap();
    let out = run(&["diff", &fixture, path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("`elapsed_ns`"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn analyze_timeline_writes_schema_stamped_json() {
    let trace = write_tiny_trace("tl_trace.json", &[]);
    let tl = tmp("tl_out.json");
    let out = run(&[
        "analyze",
        "--trace",
        trace.to_str().unwrap(),
        "--timeline",
        tl.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let body = std::fs::read_to_string(&tl).unwrap();
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&tl).ok();
    assert!(
        body.starts_with("{\n  \"schema\": \"mcio.timeline.v1\",\n"),
        "{body}"
    );
    // stdout stays the analysis report; the timeline notice is stderr.
    assert!(String::from_utf8_lossy(&out.stdout).contains("== critical path =="));
}

#[test]
fn analyze_timeline_csv_has_header() {
    let trace = write_tiny_trace("tl_csv_trace.json", &[]);
    let tl = tmp("tl_out.csv");
    let out = run(&[
        "analyze",
        "--trace",
        trace.to_str().unwrap(),
        "--timeline",
        tl.to_str().unwrap(),
        "--timeline-format",
        "csv",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let body = std::fs::read_to_string(&tl).unwrap();
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&tl).ok();
    assert!(
        body.starts_with("series,kind,bucket,start_ns,busy_ns\n"),
        "{body}"
    );
}

#[test]
fn analyze_bad_timeline_format_exits_2() {
    let out = run(&[
        "analyze",
        "--trace",
        "x.json",
        "--timeline",
        "t.json",
        "--timeline-format",
        "xml",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--timeline-format must be json|csv"));
}

#[test]
fn analyze_bucket_ns_zero_exits_2() {
    let out = run(&[
        "analyze",
        "--trace",
        "x.json",
        "--timeline",
        "t.json",
        "--bucket-ns",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--bucket-ns must be a positive integer"));
}

/// A width that tiles the run into more buckets than a timeline holds
/// is one line and exit 1 (it used to abort on a 447 MB allocation).
#[test]
fn analyze_bucket_ns_past_the_ceiling_exits_1() {
    let trace = write_tiny_trace("tl_ceiling.json", &[]);
    let tl = tmp("tl_ceiling_out.json");
    let out = run(&[
        "analyze",
        "--trace",
        trace.to_str().unwrap(),
        "--timeline",
        tl.to_str().unwrap(),
        "--bucket-ns",
        "1",
    ]);
    std::fs::remove_file(&trace).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("--bucket-ns 1 tiles the trace into"), "{err}");
    assert!(err.contains("more than the 100000"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!tl.exists(), "nothing is written");
}

#[test]
fn analyze_unwritable_timeline_exits_1() {
    let trace = write_tiny_trace("tl_unwritable.json", &[]);
    let out = run(&[
        "analyze",
        "--trace",
        trace.to_str().unwrap(),
        "--timeline",
        "/nonexistent-dir/tl.json",
    ]);
    std::fs::remove_file(&trace).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot write timeline"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn prof_unknown_flag_exits_2() {
    let out = run(&["prof", "--verbose", "p.json"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown flag --verbose"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn prof_wrong_arity_exits_2() {
    let out = run(&["prof"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("exactly one mcio.prof.v1 file"));
}

#[test]
fn prof_missing_file_exits_1_with_one_line_error() {
    let out = run(&["prof", "/no/such/prof.json"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot read"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn prof_garbage_file_exits_1() {
    let path = tmp("prof_garbage.json");
    std::fs::write(&path, "{\"schema\": \"mcio.sweep.v1\"}\n").unwrap();
    let out = run(&["prof", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("mcio.prof.v1"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn run_prof_unwritable_path_exits_1_without_panic() {
    let mut args = TINY.to_vec();
    args.extend_from_slice(&["--prof", "/nonexistent-dir/prof.json"]);
    let out = run(&args);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot write profile"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn sweep_prof_unwritable_path_exits_1() {
    let out_doc = tmp("sweep_prof_unwritable_doc.json");
    let out = run(&[
        "sweep",
        "--ranks",
        "8",
        "--ppn",
        "4",
        "--out",
        out_doc.to_str().unwrap(),
        "--prof",
        "/nonexistent-dir/prof.json",
    ]);
    std::fs::remove_file(&out_doc).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot write"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn faults_reversed_window_exits_1_with_one_line_error() {
    let path = tmp("faults_reversed.txt");
    std::fs::write(&path, "seed 1\nost_slow(0, 2.0, 5ms..2ms)\n").unwrap();
    let mut args = TINY.to_vec();
    let path_s = path.to_str().unwrap().to_owned();
    args.extend_from_slice(&["--faults", &path_s]);
    let out = run(&args);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("empty or reversed"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn faults_overlapping_stalls_exit_1_with_one_line_error() {
    let path = tmp("faults_overlap.txt");
    std::fs::write(
        &path,
        "seed 1\nost_stall(0, 0ms..4ms)\nost_stall(0, 2ms..6ms)\n",
    )
    .unwrap();
    let mut args = TINY.to_vec();
    let path_s = path.to_str().unwrap().to_owned();
    args.extend_from_slice(&["--faults", &path_s]);
    let out = run(&args);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("overlapping ost_stall windows on ost 0"),
        "{err}"
    );
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn faults_unknown_target_exits_1_with_one_line_error() {
    // TINY is 4 ranks at 2 per node: a 2-node machine with 4 OSTs.
    for (event, needle) in [
        ("ost_slow(99, 2.0, 0ms..5ms)", "ost 99 out of range"),
        (
            "agg_crash(700, 1ms)",
            "node 700 out of range: machine has 2 nodes",
        ),
        (
            "mem_shock(700, 0.5, 1ms)",
            "node 700 out of range: machine has 2 nodes",
        ),
    ] {
        let path = tmp("faults_unknown_target.txt");
        std::fs::write(&path, format!("seed 1\n{event}\n")).unwrap();
        let mut args = TINY.to_vec();
        let path_s = path.to_str().unwrap().to_owned();
        args.extend_from_slice(&["--faults", &path_s]);
        let out = run(&args);
        std::fs::remove_file(&path).ok();
        assert_eq!(out.status.code(), Some(1), "{event}");
        let err = stderr(&out);
        assert!(err.contains(needle), "{err}");
        assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn schedule_unknown_flag_exits_2() {
    let out = run(&["schedule", "--trace", "x.jobtrace", "--verbose"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown flag --verbose"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn schedule_requires_trace_flag() {
    let out = run(&["schedule"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--trace FILE is required"));
}

#[test]
fn schedule_bad_policy_exits_2() {
    let out = run(&["schedule", "--trace", "x.jobtrace", "--policy", "sjf"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("--policy must be fcfs|backfill|priority"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn schedule_jobs_zero_exits_1() {
    let out = run(&["schedule", "--trace", "x.jobtrace", "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--jobs must be a positive integer"));
}

#[test]
fn schedule_missing_trace_file_exits_1_with_one_line_error() {
    let out = run(&["schedule", "--trace", "/no/such/stream.jobtrace"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot read"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn schedule_malformed_trace_exits_1_with_one_line_error() {
    let path = tmp("sched_garbage.jobtrace");
    std::fs::write(&path, "machine small:4x2\njob a arrival=soon\n").unwrap();
    let out = run(&["schedule", "--trace", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("bad duration"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// A job of more than 2^20 aggregation rounds is refused before it is
/// planned: the trace below used to run past a 30 s timeout.
#[test]
fn schedule_of_a_million_one_byte_rounds_exits_1_with_one_line_error() {
    let path = tmp("sched_rounds.jobtrace");
    let job = "machine small:4x2\njob a ranks=8 ppn=2 segments=1 buffer=1\n";
    std::fs::write(&path, job).unwrap();
    let out = run(&["schedule", "--trace", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("16777216 bytes over a buffer of 1 bytes"),
        "{err}"
    );
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
}

/// `run` refuses the same job as a usage error.
#[test]
fn run_of_a_million_one_byte_rounds_exits_2_with_one_line_error() {
    let args = "run --ranks 8 --ppn 2 --per-proc 2M --segments 1 --buffer 1 --machine small";
    let out = run(&args.split_whitespace().collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("16777216 bytes over a buffer of 1 bytes"),
        "{err}"
    );
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
}

#[test]
fn schedule_unwritable_out_exits_1_without_panic() {
    let path = tmp("sched_tiny.jobtrace");
    std::fs::write(
        &path,
        "machine small:2x2\njob a arrival=0 ranks=2 ppn=2 per_proc=32K segments=1 buffer=32K\n",
    )
    .unwrap();
    let out = run(&[
        "schedule",
        "--trace",
        path.to_str().unwrap(),
        "--out",
        "/nonexistent-dir/schedule.json",
    ]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot write"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// End-to-end: schedule a two-job stream with `--chrome`, then analyze
/// the trace — the report must grow the scheduler section.
#[test]
fn schedule_chrome_trace_feeds_analyze_scheduler_section() {
    let spec = tmp("sched_e2e.jobtrace");
    let chrome = tmp("sched_e2e.trace.json");
    std::fs::write(
        &spec,
        "machine small:2x2\n\
         job a arrival=0 ranks=4 ppn=2 per_proc=64K segments=1 buffer=32K\n\
         job b arrival=1us ranks=4 ppn=2 per_proc=64K segments=1 buffer=32K\n",
    )
    .unwrap();
    let out = run(&[
        "schedule",
        "--trace",
        spec.to_str().unwrap(),
        "--chrome",
        chrome.to_str().unwrap(),
    ]);
    std::fs::remove_file(&spec).ok();
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("{\n  \"schema\": \"mcio.schedule.v1\",\n"),
        "{stdout}"
    );

    let out = run(&["analyze", "--trace", chrome.to_str().unwrap()]);
    std::fs::remove_file(&chrome).ok();
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== scheduler =="), "{text}");
    assert!(text.contains("dispatches 2"), "{text}");
}

#[test]
fn bad_adaptive_policy_exits_2() {
    let mut args = TINY.to_vec();
    args.extend_from_slice(&["--adaptive", "turbo"]);
    let out = run(&args);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("--adaptive must be off|conservative|aggressive"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

/// `--adaptive` with a fault plan runs the controller and reports its
/// decisions on an `adaptive` summary line.
#[test]
fn adaptive_run_reports_policy_line() {
    let path = tmp("faults_adaptive.txt");
    std::fs::write(&path, "seed 3\nost_slow(0, 4.0, 0ns..5ms)\n").unwrap();
    let mut args = TINY.to_vec();
    let path_s = path.to_str().unwrap().to_owned();
    args.extend_from_slice(&["--faults", &path_s, "--adaptive", "aggressive"]);
    let out = run(&args);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("adaptive"), "{text}");
    assert!(text.contains("policy aggressive"), "{text}");
}

/// A valid fault plan runs to exit 0 and the summary names the faulted
/// execution: both strategy outcome lines plus the fault event count.
#[test]
fn faults_valid_spec_reports_outcomes_and_exits_0() {
    let path = tmp("faults_valid.txt");
    std::fs::write(&path, "seed 11\nost_slow(0, 2.0, 0ns..5ms)\n").unwrap();
    let mut args = TINY.to_vec();
    let path_s = path.to_str().unwrap().to_owned();
    args.extend_from_slice(&["--faults", &path_s]);
    let out = run(&args);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("faults"), "{text}");
    assert!(text.contains("1 event(s)"), "{text}");
    assert!(text.contains("seed 11"), "{text}");
}

/// A run-mode value error: exit 2, one `mcio_cli run:` line, no panic.
fn assert_run_usage_error(args: &[&str], needle: &str) {
    let out = run(args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.starts_with("mcio_cli run: "), "{args:?}: {err}");
    assert!(err.contains(needle), "{args:?}: {err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.stdout.is_empty(), "rejected before any output");
}

#[test]
fn run_zero_ppn_exits_2() {
    assert_run_usage_error(&["--ppn", "0"], "ranks and ppn must be positive");
}

#[test]
fn run_zero_ranks_exits_2() {
    assert_run_usage_error(&["--ranks", "0"], "ranks and ppn must be positive");
}

#[test]
fn run_zero_buffer_exits_2() {
    assert_run_usage_error(&["--buffer", "0"], "buffer must be positive");
}

#[test]
fn run_checkpoint_with_zero_per_proc_exits_2() {
    assert_run_usage_error(
        &["--workload", "checkpoint", "--per-proc", "0"],
        "needs a positive per_proc",
    );
}

#[test]
fn run_garbage_stddev_is_an_error_not_the_default() {
    assert_run_usage_error(&["--stddev", "abc"], "--stddev: invalid float literal");
}

#[test]
fn run_nan_stddev_exits_2() {
    assert_run_usage_error(&["--stddev", "nan"], "stddev must be finite");
}

#[test]
fn run_negative_stddev_exits_2() {
    assert_run_usage_error(&["--stddev", "-1"], "non-negative");
}

#[test]
fn run_bad_metrics_format_is_rejected_without_metrics() {
    assert_run_usage_error(
        &["--metrics-format", "xml"],
        "--metrics-format must be json|csv|prom",
    );
}

#[test]
fn run_bad_workload_names_the_flag_and_the_vocabulary() {
    assert_run_usage_error(
        &["--workload", "hpl"],
        "--workload: workload must be ior|collperf|checkpoint, got `hpl`",
    );
}

/// `run` names the default command: the same bytes as bare flags.
#[test]
fn run_word_selects_the_default_command() {
    let bare = run(TINY);
    let mut args = vec!["run"];
    args.extend_from_slice(TINY);
    let named = run(&args);
    assert_eq!(named.status.code(), Some(0), "{}", stderr(&named));
    assert_eq!(named.stdout, bare.stdout);
    assert!(String::from_utf8_lossy(&named.stdout).contains("memory-conscious:"));
}

/// A bad spec is a one-line exit 1, never a panic, and an error that
/// belongs to a line names the *file's* line — for a bad `job` or
/// `machine` directive, the post-parse node-range check and a `fault`
/// line (not "the Nth fault line").
#[test]
fn multitenant_spec_errors_are_one_line_and_name_the_file_line() {
    for (name, text, needle) in [
        (
            "zero_buffer",
            "machine small:8x2\njob a buffer=0\n",
            "line 2: buffer must be positive",
        ),
        (
            "trailing_comment",
            "machine small:8x2   # the machine\njob a buffer=0   # starved\n",
            "line 2: buffer must be positive",
        ),
        (
            "machine",
            "# shared machine\n\nmachine small:0x2\njob a\n",
            "line 3: machine dimensions must be positive",
        ),
        (
            "range",
            "job a ranks=8 ppn=2 node_offset=1\nmachine small:2x2\n",
            "line 1: job `a` needs nodes 1..5 but the machine has 2",
        ),
        (
            "fault",
            "machine small:8x2\nfault seed 5\njob a\nfault ost_slow(0, 4.0, 9ms..2ms)\n",
            "line 4: window `9ms..2ms` is empty or reversed",
        ),
    ] {
        let path = tmp(&format!("mt_line_{name}.mtspec"));
        std::fs::write(&path, text).unwrap();
        let out = run(&["multitenant", "--spec", path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let err = stderr(&out);
        assert!(err.contains(needle), "{name}: {err}");
        assert_eq!(err.trim().lines().count(), 1, "one-line error, got: {err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

/// `run --two-level --pipeline double` simulates one configuration: the
/// memory-conscious summary line and the trace of the same command
/// report the same elapsed time.
#[test]
fn two_level_double_summary_and_trace_describe_one_run() {
    let path = tmp("two_level_double.json");
    let path_s = path.to_str().unwrap();
    let mut args = TINY.to_vec();
    args.extend_from_slice(&["--two-level", "--pipeline", "double", "--trace", path_s]);
    let out = run(&args);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("memory-conscious:"))
        .expect("summary line");

    let out = run(&["analyze", "--trace", path_s, "--report", "json"]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let doc = mcio_obs::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let elapsed_ns = doc
        .get("elapsed_ns")
        .and_then(mcio_obs::json::JsonValue::as_f64)
        .expect("elapsed_ns") as u64;
    let traced = mcio_des::SimDuration::from_nanos(elapsed_ns);
    assert!(
        summary.contains(&format!("elapsed {traced})")),
        "trace says {traced}, summary says: {summary}"
    );
}
