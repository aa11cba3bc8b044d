//! The `mcio.prof.v1` split contract, end to end through `mcio_cli`:
//!
//! * The **deterministic** section (engine counters) is byte-identical
//!   across repeated runs and across `--jobs` values — `prof FILE
//!   --det` is the canonical diffing target CI compares.
//! * The primary output document (`mcio.sweep.v1` here) is
//!   byte-identical whether or not `--prof` was requested, at any
//!   thread count.
//! * The full sidecar parses back through `mcio_prof::ProfReport` and
//!   pretty-prints through `mcio_cli prof`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcio_cli"))
}

fn run(args: &[&str]) -> Output {
    cli().args(args).output().expect("spawn mcio_cli")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcio_prof_det_{}_{name}", std::process::id()))
}

/// One small profiled sweep; returns (sweep doc bytes, prof sidecar
/// bytes, `prof --det` stdout bytes).
fn profiled_sweep(tag: &str, jobs: &str) -> (String, String, Vec<u8>) {
    let out_doc = tmp(&format!("sweep_{tag}.json"));
    let prof_doc = tmp(&format!("prof_{tag}.json"));
    let out = run(&[
        "sweep",
        "--ranks",
        "8",
        "--ppn",
        "4",
        "--jobs",
        jobs,
        "--out",
        out_doc.to_str().unwrap(),
        "--prof",
        prof_doc.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&out_doc).unwrap();
    let prof = std::fs::read_to_string(&prof_doc).unwrap();
    let det = run(&["prof", prof_doc.to_str().unwrap(), "--det"]);
    assert_eq!(det.status.code(), Some(0));
    std::fs::remove_file(&out_doc).ok();
    std::fs::remove_file(&prof_doc).ok();
    (doc, prof, det.stdout)
}

#[test]
fn deterministic_section_is_byte_identical_across_runs_and_jobs() {
    let (doc_a, prof_a, det_a) = profiled_sweep("a", "1");
    let (doc_b, _, det_b) = profiled_sweep("b", "1");
    let (doc_c, _, det_c) = profiled_sweep("c", "4");

    // Same run repeated: identical deterministic bytes.
    assert_eq!(
        det_a, det_b,
        "deterministic section differed between two identical runs"
    );
    // Same run at a different thread count: still identical.
    assert_eq!(
        det_a, det_c,
        "deterministic section differed between --jobs 1 and --jobs 4"
    );
    // The primary document never varies either.
    assert_eq!(doc_a, doc_b);
    assert_eq!(doc_a, doc_c, "mcio.sweep.v1 bytes changed with --jobs");

    // The full sidecar differs run to run only in its host section —
    // it must carry wall-clock data, so it is NOT byte-stable; what we
    // can assert is that it parses and its deterministic content is
    // non-trivial.
    let report = mcio_prof::ProfReport::from_json(&prof_a).expect("sidecar parses");
    assert_eq!(report.cells.len(), 12, "one cell per grid point");
    let total = report.total();
    assert!(total.events_fired > 0);
    assert_eq!(
        total.events_scheduled,
        total.events_fired + total.events_cancelled
    );
    assert!(total.heap_high_water > 0);
    assert!(report.host.wall_ns > 0, "host section records wall time");
    assert!(!report.host.workers.is_empty(), "sweep reports worker rows");
    assert!(
        report
            .host
            .phases
            .iter()
            .any(|p| p.path.rsplit('/').next() == Some("des-run")),
        "phase table records des-run scopes: {:?}",
        report.host.phases
    );
}

#[test]
fn sweep_doc_is_identical_with_and_without_prof() {
    let out_plain = tmp("sweep_plain.json");
    let out = run(&[
        "sweep",
        "--ranks",
        "8",
        "--ppn",
        "4",
        "--out",
        out_plain.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let plain = std::fs::read_to_string(&out_plain).unwrap();
    std::fs::remove_file(&out_plain).ok();
    let (profiled, _, _) = profiled_sweep("vs_plain", "2");
    assert_eq!(plain, profiled, "--prof changed the primary document");
}

#[test]
fn run_prof_sidecar_pretty_prints_and_names_the_cell() {
    let prof_doc = tmp("run_prof.json");
    let out = run(&[
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
        "--prof",
        prof_doc.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&prof_doc).unwrap();
    let report = mcio_prof::ProfReport::from_json(&text).expect("sidecar parses");
    assert_eq!(report.cells.len(), 1);
    assert_eq!(report.cells[0].label, "run/memory-conscious");
    assert!(report.cells[0].engine.events_fired > 0);
    assert!(
        !report.cells[0].engine.class_max_queue.is_empty(),
        "per-class queue peaks recorded"
    );

    let pretty = run(&["prof", prof_doc.to_str().unwrap(), "--top", "3"]);
    std::fs::remove_file(&prof_doc).ok();
    assert_eq!(pretty.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&pretty.stdout).into_owned();
    assert!(stdout.contains("events fired"), "{stdout}");
    assert!(stdout.contains("phase (top by exclusive)"), "{stdout}");
    assert!(stdout.contains("des-run"), "{stdout}");
}

#[test]
fn multitenant_prof_carries_one_shared_cell() {
    let spec = tmp("mt_prof.mtspec");
    std::fs::write(
        &spec,
        "machine small:4x2\n\
         job alpha ranks=4 ppn=2 node_offset=0 per_proc=64K buffer=32K base=0\n\
         job beta ranks=4 ppn=2 node_offset=2 start=250us per_proc=64K buffer=32K base=1G\n",
    )
    .unwrap();
    let prof_doc = tmp("mt_prof.json");
    let out_doc = tmp("mt_out.json");
    let out = run(&[
        "multitenant",
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        out_doc.to_str().unwrap(),
        "--prof",
        prof_doc.to_str().unwrap(),
    ]);
    let stderr_text = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(0), "{stderr_text}");
    let text = std::fs::read_to_string(&prof_doc).unwrap();
    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&prof_doc).ok();
    std::fs::remove_file(&out_doc).ok();
    let report = mcio_prof::ProfReport::from_json(&text).expect("sidecar parses");
    assert_eq!(report.cells.len(), 1, "one shared DES run");
    assert_eq!(report.cells[0].label, "multitenant");
    assert!(report.cells[0].engine.events_fired > 0);
}
