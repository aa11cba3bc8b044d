//! The two kinds of run.
//!
//! The **timed** run measures in [`BLOCKS`] child processes, one after
//! the other: each sets up once, runs ops for its share of the time and
//! reports its samples; the samples are pooled, `setup_s` is the median
//! and `peak_rss_mib` the maximum over the processes. A process as a
//! whole runs fast or slow on the sizing VM — where its pages land is
//! decided once — so ten ops in three processes say more about the
//! commit than thirty in one. The last block ends with the checked op.
//!
//! The **traced** run is one process with the span recorder, the
//! simulator's profiler and the counting allocator on. Never the source
//! of an end-to-end number.

use crate::layers;
use crate::results::{Metric, Metrics, Results, TIMED};
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{self, Counts, Ctx, Workload};
use crate::Opts;
use mcio_obs::json::{self, JsonValue};
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Processes a timed run measures in.
const BLOCKS: usize = 3;

/// Set-up passes of the traced run (a timed block makes one).
const TRACED_SETUP_PASSES: usize = 3;

/// The traced run records at least this many ops.
const TRACED_MIN_OPS: usize = 3;

/// What a run measured, before it is printed and stored.
pub struct Outcome {
    /// What the last stdout line reports.
    pub metrics: Metrics,
    /// What only `results.json` keeps beside them.
    pub extra: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Metric) {
    let unit = unit.to_string();
    (name.to_string(), Metric { value, unit })
}

/// What the set-up passes leave behind.
struct SetUp {
    workload: Box<dyn Workload>,
    /// Digest of the first op, which every later op must reproduce.
    first: Counts,
    /// Seconds per pass.
    samples: Vec<f64>,
}

/// Set up `passes` times, timing each pass; keeps the last instance.
///
/// A pass builds the inputs and runs the first op on them — the op that
/// pays for whatever the simulator initialises lazily or caches per
/// input — so that work a later change moves out of the steady-state op
/// into first use shows in `setup_s`. The first op is never recorded:
/// the traced run's `setup` units hold the input-building spans only.
fn set_up(opts: &Opts, rec: &mut Recorder, passes: usize) -> Result<SetUp, String> {
    let mut samples = Vec::new();
    let mut last = None;
    for _ in 0..passes {
        // Freed before the next pass, so set-up never holds two copies.
        drop(last.take());
        let t = Instant::now();
        let w = rec.unit("setup", |rec| {
            workloads::setup(&opts.workload, opts.seed, rec)
        })?;
        let on = rec.set_on(false);
        let (first, _) = run_op(&*w, rec, opts.trace, false);
        rec.set_on(on);
        samples.push(t.elapsed().as_secs_f64());
        last = Some((w, first));
    }
    let (workload, first) = last.ok_or("no set-up pass")?;
    Ok(SetUp {
        workload,
        first,
        samples,
    })
}

/// One op as its own unit; returns its digest and its failed checks.
fn run_op(
    w: &dyn Workload,
    rec: &mut Recorder,
    traced: bool,
    checked: bool,
) -> (Counts, Vec<String>) {
    rec.unit("op", |rec| {
        let mut cx = Ctx::new(rec, traced, checked);
        w.op(&mut cx);
        (cx.counts, cx.failures.unwrap_or_default())
    })
}

/// Ops until `seconds` have passed (and at least `min_ops`); returns how
/// long each took in ms and how many missed the first op's digest.
fn run_ops(
    opts: &Opts,
    w: &dyn Workload,
    rec: &mut Recorder,
    first: &Counts,
    min_ops: usize,
) -> (Vec<f64>, u64) {
    let mut samples = Vec::new();
    let mut failed = 0;
    let started = Instant::now();
    while samples.len() < min_ops || started.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let (counts, _) = black_box(run_op(w, rec, opts.trace, false));
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(diff) = digest_diff(first, &counts) {
            eprintln!("{} op {}: {diff}", opts.workload, samples.len());
            failed += 1;
        }
    }
    (samples, failed)
}

/// The final, untimed op: every invariant is evaluated, and it must
/// reproduce the first op's digest like every other. Failed checks go
/// to stderr. Returns its counts — the digest plus the PFS ledger only
/// this op keeps — and whether it failed.
fn checked_op(opts: &Opts, w: &dyn Workload, rec: &mut Recorder, first: &Counts) -> (Counts, bool) {
    rec.set_on(false);
    let (counts, mut failures) = run_op(w, rec, opts.trace, true);
    failures.extend(digest_diff(first, &counts));
    for f in &failures {
        eprintln!("{}: FAILED: {f}", opts.workload);
    }
    (counts, !failures.is_empty())
}

/// `None` when `other` holds every key of `first` with the same value.
fn digest_diff(first: &Counts, other: &Counts) -> Option<String> {
    let keys: Vec<&String> = first
        .iter()
        .filter(|(k, v)| other.get(*k) != Some(v))
        .map(|(k, _)| k)
        .collect();
    (!keys.is_empty()).then(|| format!("op digest differs from the first op's in {keys:?}"))
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What one block — one process — measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    /// Milliseconds per timed op.
    pub samples: Vec<f64>,
    /// Timed ops that missed the digest, plus the checked op if it failed.
    pub failed: u64,
}

impl Block {
    fn to_json(&self) -> String {
        let samples: Vec<String> = self.samples.iter().map(f64::to_string).collect();
        format!(
            "{{\"setup_s\": {}, \"peak_rss_mib\": {}, \"failed\": {}, \"samples\": [{}]}}",
            self.setup_s,
            self.peak_rss_mib,
            self.failed,
            samples.join(", ")
        )
    }

    fn from_json(line: &str) -> Result<Block, String> {
        let doc = json::parse(line).map_err(|e| e.to_string())?;
        let num = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("block result lacks `{k}`"))
        };
        let samples = doc
            .get("samples")
            .and_then(JsonValue::as_array)
            .ok_or("block result lacks `samples`")?
            .iter()
            .filter_map(JsonValue::as_f64)
            .collect();
        Ok(Block {
            setup_s: num("setup_s")?,
            peak_rss_mib: num("peak_rss_mib")?,
            samples,
            failed: num("failed")? as u64,
        })
    }
}

/// The body of a block process: tracing, profiling, registry and
/// allocation counting all off. Prints the block as one JSON line.
pub fn block(opts: &Opts) -> Result<(), String> {
    if mcio_prof::alloc::enabled() {
        return Err("end-to-end numbers need a build without `count-alloc`".to_string());
    }
    let mut rec = Recorder::new(false);
    let SetUp {
        workload: w,
        first,
        samples: setup_s,
    } = set_up(opts, &mut rec, 1)?;
    let (samples, mut failed) = run_ops(opts, &*w, &mut rec, &first, 1);
    // Read before the checked op, whose checks allocate on their own.
    let peak_rss_mib = peak_rss_mib()?;
    if opts.checked {
        failed += u64::from(checked_op(opts, &*w, &mut rec, &first).1);
    }
    let block = Block {
        setup_s: setup_s[0],
        peak_rss_mib,
        samples,
        failed,
    };
    println!("{}", block.to_json());
    Ok(())
}

/// Run one block in a child process and read its result back.
fn spawn_block(opts: &Opts, checked: bool) -> Result<Block, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("block")
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &(opts.seconds / BLOCKS as f64).to_string()])
        .args(["--checked", if checked { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a block process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("block process failed: {}", out.status));
    }
    Block::from_json(line)
}

/// Pool the blocks of one run: every sample counts once, set-up is the
/// median block, memory the largest.
pub fn pool(blocks: &[Block]) -> Outcome {
    let samples: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.samples.iter().copied())
        .collect();
    let setup_s: Vec<f64> = blocks.iter().map(|b| b.setup_s).collect();
    let peak_rss_mib = blocks.iter().map(|b| b.peak_rss_mib).fold(0.0, f64::max);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    Outcome {
        metrics: Metrics::from([
            metric("setup_s", stats::median(&setup_s), "s"),
            metric("op_wall_ms_p50", stats::median(&samples), "ms"),
            metric("peak_rss_mib", peak_rss_mib, "MiB"),
        ]),
        extra: Metrics::from([
            metric("op.wall_ms_min", min, "ms"),
            metric("op.wall_ms_p90", stats::percentile(&samples, 90.0), "ms"),
            metric("op.iqr_frac", stats::iqr_frac(&samples), "frac"),
            metric("op.samples", samples.len() as f64, "ops"),
        ]),
        // Every timed op, and the checked op of the last block.
        attempted: samples.len() as u64 + 1,
        failed: blocks.iter().map(|b| b.failed).sum(),
    }
}

/// The end-to-end run: [`BLOCKS`] processes, the last one checked.
pub fn timed(opts: &Opts) -> Result<Outcome, String> {
    let blocks = (0..BLOCKS)
        .map(|i| spawn_block(opts, i + 1 == BLOCKS))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(pool(&blocks))
}

/// The traced run, held against the timed run of the same workload and
/// seed in `results.json`.
pub fn traced(opts: &Opts) -> Result<Outcome, String> {
    let results_path = opts.out.join("results.json");
    let reference = Results::load(&results_path)
        .ok()
        .and_then(|r| r.section(&opts.workload, TIMED).cloned())
        .filter(|s| s.seed == opts.seed)
        .ok_or_else(|| {
            format!(
                "{}: no timed run of {} at seed {} to hold the traced run against \
                 (benchmark/run.sh makes one first)",
                results_path.display(),
                opts.workload,
                opts.seed
            )
        })?;

    let mut rec = Recorder::new(true);
    let SetUp {
        workload: w, first, ..
    } = set_up(opts, &mut rec, TRACED_SETUP_PASSES)?;
    let (samples, failed) = run_ops(opts, &*w, &mut rec, &first, TRACED_MIN_OPS);
    let peak_live = mcio_prof::alloc::stats().peak_bytes;
    let (counts, check_failed) = checked_op(opts, &*w, &mut rec, &first);

    let trace_path = opts.out.join(format!("trace_{}.json", opts.workload));
    std::fs::write(&trace_path, rec.chrome_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok(Outcome {
        metrics: layers::per_layer(&rec.unit_sums(), &counts, &reference, peak_live),
        extra: Metrics::new(),
        attempted: samples.len() as u64 + 1,
        failed: failed + u64::from(check_failed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_pool_samples_and_keep_the_median_set_up_and_the_largest_process() {
        let block = |setup_s, peak_rss_mib, samples: &[f64], failed| Block {
            setup_s,
            peak_rss_mib,
            samples: samples.to_vec(),
            failed,
        };
        let blocks = [
            block(1.0, 480.0, &[10.0, 11.0, 12.0], 0),
            block(3.0, 490.5, &[20.0, 21.0], 1),
            block(2.0, 470.0, &[13.0, 14.0, 15.0, 16.0], 0),
        ];
        let out = pool(&blocks);
        let v = |name: &str| out.metrics.get(name).or(out.extra.get(name)).unwrap().value;
        assert_eq!(v("op.samples"), 9.0, "every sample counts once");
        // 10 11 12 13 |14| 15 16 20 21: a slow process moves the tail,
        // not the median.
        assert_eq!(v("op_wall_ms_p50"), 14.0);
        assert_eq!(v("op.wall_ms_min"), 10.0);
        assert_eq!(v("op.wall_ms_p90"), 21.0);
        assert_eq!(v("setup_s"), 2.0);
        assert_eq!(v("peak_rss_mib"), 490.5);
        assert_eq!((out.attempted, out.failed), (10, 1));
    }

    #[test]
    fn a_block_survives_its_trip_through_the_pipe() {
        let b = Block {
            setup_s: 1.187159443,
            peak_rss_mib: 488.1953125,
            samples: vec![971.909707, 1022.2037020000001],
            failed: 2,
        };
        assert_eq!(Block::from_json(&b.to_json()), Ok(b));
        assert!(Block::from_json("{\"setup_s\": 1}").is_err());
        assert!(Block::from_json("").is_err());
    }
}
