//! `mcio-hostbench` — host-performance benchmark of the simulator.
//!
//! ```text
//! mcio-hostbench run --workload W [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
//! mcio-hostbench compare A.json B.json
//! ```
//!
//! `run` measures one workload — in processes of its own, so that
//! `VmHWM` is the workload's own peak — prints every metric as
//! `<workload> <metric> <value> <unit>`, rewrites its section of
//! `DIR/results.json` and ends with the one-line JSON result. See
//! `benchmark/README.md` for what is measured and why.

mod compare;
mod layers;
mod measure;
mod results;
mod spans;
mod spec;
mod stats;
mod workloads;

use results::{Results, Section, TIMED, TRACED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: mcio-hostbench run --workload W [--seed S] [--seconds T] \
                     [--trace 0|1] [--out DIR]\n       mcio-hostbench compare A.json B.json";

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Time to measure for. A whole number on the command line of `run`;
    /// a timed run hands each of its block processes a share.
    pub seconds: f64,
    pub trace: bool,
    /// `block` only: end with the checked op.
    pub checked: bool,
    pub out: PathBuf,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        checked: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let switch = || match value.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, got `{value}`")),
        };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, got `{value}`"))?
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, got `{value}`"))?
            }
            "--trace" => opts.trace = switch()?,
            "--checked" => opts.checked = switch()?,
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    if opts.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let (kind, out) = if opts.trace {
        (TRACED, measure::traced(&opts)?)
    } else {
        (TIMED, measure::timed(&opts)?)
    };

    for (name, m) in out.metrics.iter().chain(&out.extra) {
        println!("{} {name} {} {}", opts.workload, m.value, m.unit);
    }

    let results_path = opts.out.join("results.json");
    let mut results = Results::load(&results_path).unwrap_or_default();
    let mut stored = out.metrics.clone();
    stored.extend(out.extra);
    results.insert(
        &opts.workload,
        kind,
        Section {
            seed: opts.seed,
            seconds: opts.seconds as u64,
            attempted: out.attempted,
            failed: out.failed,
            metrics: stored,
        },
    );
    results.save(&results_path)?;

    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        results::metrics_json(&out.metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        // One process of a timed run; started by `run`, not by hand.
        Some((cmd, rest)) if cmd == "block" => parse_opts(rest)
            .and_then(|opts| measure::block(&opts))
            .map(|()| ExitCode::SUCCESS),
        Some((cmd, rest)) if cmd == "compare" => compare::main(rest),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("mcio-hostbench: {e}");
        ExitCode::from(2)
    })
}
