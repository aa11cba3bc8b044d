//! Determinism contracts for the sweep engine and its CLI surface.
//!
//! The engine's core promise is that thread count is invisible in the
//! output: fanning work across N workers must produce exactly the bytes
//! a serial run produces. These tests pin that promise at two layers —
//! the raw engine over real planning/simulation work and the `mcio_cli
//! sweep` document.

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::exec_sim::{simulate_observed, Exchange, Observe, Pipeline};
use mcio_core::{CollectiveConfig, CollectiveRequest, Extent, ProcMemory, Rw, Strategy};
use std::path::PathBuf;
use std::process::{Command, Output};

fn sweep_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcio_cli"))
        .arg("sweep")
        .args(args)
        .output()
        .expect("spawn mcio_cli sweep")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcio_sweep_test_{}_{name}", std::process::id()))
}

/// One reasonably-sized planning + simulation job, keyed by seed, whose
/// rendered record exercises the full stack the real sweeps run.
fn simulate_record(seed: u64) -> String {
    let ranks = 16;
    let chunk = 64 * 1024;
    let req = CollectiveRequest::new(
        Rw::Write,
        (0..ranks as u64)
            .map(|r| vec![Extent::new(r * chunk, chunk)])
            .collect(),
    );
    let map = ProcessMap::block_ppn(ranks, 4);
    let mem = ProcMemory::normal(ranks, chunk, 0.35, seed);
    let cfg = CollectiveConfig::with_buffer(chunk).mem_min(chunk / 4);
    let spec = ClusterSpec::small(4, 2);
    let strategy = if seed.is_multiple_of(2) {
        Strategy::MemoryConscious
    } else {
        Strategy::TwoPhase
    };
    let plan = strategy.plan(&req, &map, &mem, &cfg);
    let obs = Observe::default();
    let (report, _) =
        simulate_observed(&plan, &map, &spec, Pipeline::Serial, Exchange::Direct, obs);
    format!(
        "seed={seed} strategy={} elapsed={} aggs={} rounds={}",
        strategy.label(),
        report.elapsed.as_nanos(),
        plan.naggs(),
        plan.max_rounds(),
    )
}

/// The raw engine: the merged result vector over real planning and
/// simulation work is identical at every thread count.
#[test]
fn engine_merge_is_thread_count_invariant() {
    let seeds: Vec<u64> = (0..24).collect();
    let serial: Vec<String> = mcio_sweep::sweep(1, &seeds, |&s| simulate_record(s));
    for jobs in [2, 4, 8] {
        let parallel: Vec<String> = mcio_sweep::sweep(jobs, &seeds, |&s| simulate_record(s));
        assert_eq!(serial, parallel, "jobs={jobs} changed the merged records");
    }
}

/// The CLI document: `sweep --jobs 1` and `--jobs 8` write identical
/// bytes and print the same stdout.
#[test]
fn cli_sweep_jobs_1_and_8_write_identical_documents() {
    let out1 = tmp("jobs1.json");
    let out8 = tmp("jobs8.json");
    let args1 = ["--ranks", "16", "--ppn", "4", "--jobs", "1", "--out"];
    let r1 = sweep_cli(&[&args1[..], &[out1.to_str().unwrap()]].concat());
    let r8 = sweep_cli(&[
        "--ranks",
        "16",
        "--ppn",
        "4",
        "--jobs",
        "8",
        "--out",
        out8.to_str().unwrap(),
    ]);
    assert_eq!(
        r1.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&r1.stderr)
    );
    assert_eq!(
        r8.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&r8.stderr)
    );
    let doc1 = std::fs::read(&out1).expect("jobs=1 document");
    let doc8 = std::fs::read(&out8).expect("jobs=8 document");
    std::fs::remove_file(&out1).ok();
    std::fs::remove_file(&out8).ok();
    assert!(!doc1.is_empty());
    assert_eq!(
        doc1, doc8,
        "sweep document differs between --jobs 1 and --jobs 8"
    );

    let lines = |o: &Output| -> Vec<String> {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .filter(|l| !l.starts_with("wrote "))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(lines(&r1), lines(&r8), "per-point stdout lines differ");
    assert_eq!(
        lines(&r1).len(),
        12,
        "one line per grid point, nothing else"
    );
}

/// The document itself is schema-tagged and carries one record per grid
/// point in canonical key order.
#[test]
fn cli_sweep_document_is_schema_tagged_and_ordered() {
    let out = tmp("schema.json");
    let r = sweep_cli(&[
        "--ranks",
        "16",
        "--ppn",
        "4",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(r.status.code(), Some(0));
    let doc = std::fs::read_to_string(&out).expect("document");
    std::fs::remove_file(&out).ok();
    assert!(doc.contains("\"schema\": \"mcio.sweep.v1\""), "{doc}");
    let keys: Vec<&str> = doc
        .lines()
        .filter_map(|l| l.split("\"key\": \"").nth(1))
        .filter_map(|l| l.split('"').next())
        .collect();
    // Row-major: buffer slowest, strategy fastest.
    let mut expected = Vec::new();
    for buffer in ["2M", "4M", "8M"] {
        for pipeline in ["serial", "double"] {
            for strategy in ["two-phase", "mc"] {
                expected.push(format!(
                    "buffer={buffer}/pipeline={pipeline}/strategy={strategy}"
                ));
            }
        }
    }
    assert_eq!(keys, expected, "records out of canonical grid order");
}
