//! One flag table for every binary of this crate.
//!
//! A [`Command`] lists its flags once; from that list come the strict
//! whitelist, the value-presence and type/choice checks, the `--help`
//! text and — for `mcio_cli` — the README's CLI table
//! ([`readme_table`], asserted byte-for-byte by `tests/help_sync.rs`).
//! The tables of `mcio_cli`'s seven commands and of the five suites
//! are at the bottom of this file.
//!
//! Exit codes: a usage error (unknown flag or command, missing or
//! ill-typed value) is one line on stderr and exit 2; an unreadable or
//! unwritable path and a bad `--jobs` are one line and exit 1
//! ([`read_or_exit`], [`write_or_exit`]). Nothing panics on bad input.

use mcio_prof::{DetCell, Prof, ProfReport, WorkerRow};
use mcio_sweep::WorkerStat;
use std::process::exit;

/// What a flag's value looks like. The kind fixes the metavar `--help`
/// shows and the check [`Command::parse`] runs on a given value.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Boolean; takes no value.
    Switch,
    /// Free text under this metavar (`FILE`, or a vocabulary the
    /// command checks itself — the job flags go to `JobDesc::set`).
    Text(&'static str),
    /// One word of a closed list.
    Choice(&'static [&'static str]),
    /// Unsigned integer.
    Unsigned,
    /// Integer ≥ 1.
    Positive,
    /// Worker-thread count: integer ≥ 1, and the one kind whose bad
    /// value exits 1 instead of 2 (pinned by the exit-code tests).
    Jobs,
}

/// One `--name` of a command.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Name without the leading `--`.
    pub name: &'static str,
    /// Value shape.
    pub kind: Kind,
    /// Value used when the flag is absent, as the user would type it.
    pub default: Option<&'static str>,
    /// One line for `--help`.
    pub help: &'static str,
}

/// One binary, or one subcommand of `mcio_cli`.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// Full name as it prefixes every message (`mcio_cli analyze`,
    /// `perf_suite`); its last word selects a subcommand.
    pub name: &'static str,
    /// One line: what the command does.
    pub summary: &'static str,
    /// Metavars of the positional operands, none for most commands.
    pub positionals: &'static [&'static str],
    /// The flags (`--help` is implied).
    pub flags: &'static [Flag],
}

/// A reason to stop before the command runs: the text to print and the
/// exit code (0 = `--help`, to stdout; otherwise one line to stderr).
#[derive(Debug, PartialEq, Eq)]
pub struct Exit {
    /// Process exit code.
    pub code: i32,
    /// Help text or one-line error, without the command prefix.
    pub text: String,
}

/// A command's parsed argument list.
#[derive(Debug)]
pub struct Matches {
    cmd: &'static Command,
    /// Given value per flag, in table order (`Some("")` for a switch).
    given: Vec<Option<String>>,
    /// Positional operands in order; the command checks their count.
    pub positionals: Vec<String>,
}

impl Kind {
    fn metavar(self) -> String {
        match self {
            Kind::Switch => String::new(),
            Kind::Text(meta) => meta.to_string(),
            Kind::Choice(words) => words.join("|"),
            Kind::Unsigned | Kind::Positive | Kind::Jobs => "N".to_string(),
        }
    }

    fn check(self, name: &str, raw: &str) -> Result<(), Exit> {
        let usage = |text| Err(Exit { code: 2, text });
        match self {
            Kind::Switch | Kind::Text(_) => Ok(()),
            Kind::Choice(words) if words.contains(&raw) => Ok(()),
            Kind::Choice(words) => {
                usage(format!("--{name} must be {}, got `{raw}`", words.join("|")))
            }
            Kind::Unsigned => match raw.parse::<u64>() {
                Ok(_) => Ok(()),
                Err(e) => usage(format!("--{name}: {e}")),
            },
            Kind::Positive | Kind::Jobs => match raw.parse::<u64>() {
                Ok(n) if n >= 1 => Ok(()),
                _ => Err(Exit {
                    code: if matches!(self, Kind::Jobs) { 1 } else { 2 },
                    text: format!("--{name} must be a positive integer, got `{raw}`"),
                }),
            },
        }
    }
}

impl Flag {
    /// `--name META`, or `--name` for a switch.
    fn spelled(&self) -> String {
        format!("--{} {}", self.name, self.kind.metavar())
            .trim_end()
            .to_string()
    }
}

impl Command {
    /// The word that selects this command (`analyze`, `perf_suite`).
    pub fn word(&self) -> &'static str {
        self.name.rsplit(' ').next().unwrap_or(self.name)
    }

    /// The `--help` text: usage line, summary, one line per flag.
    pub fn help(&self) -> String {
        let mut out = format!("usage: {}", self.name);
        for f in self.flags {
            out.push_str(&format!(" [{}]", f.spelled()));
        }
        for p in self.positionals {
            out.push_str(&format!(" {p}"));
        }
        out.push_str(&format!("\n\n{}\n\nflags:\n", self.summary));
        for f in self.flags {
            let default = f.default.map(|d| format!(" (default {d})"));
            out.push_str(&format!(
                "  {:<40} {}{}\n",
                f.spelled(),
                f.help,
                default.unwrap_or_default()
            ));
        }
        out
    }

    /// Check `args` against the table.
    pub fn parse(&'static self, args: &[String]) -> Result<Matches, Exit> {
        let mut m = Matches {
            cmd: self,
            given: vec![None; self.flags.len()],
            positionals: Vec::new(),
        };
        let usage = |text| Err(Exit { code: 2, text });
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if self.positionals.is_empty() {
                    return usage(format!("unexpected argument `{arg}` (flags start with --)"));
                }
                m.positionals.push(arg.clone());
                continue;
            };
            if name == "help" {
                return Err(Exit {
                    code: 0,
                    text: self.help(),
                });
            }
            let Some(slot) = self.flags.iter().position(|f| f.name == name) else {
                return usage(format!(
                    "unknown flag --{name} (an unknown argument is an error; --help lists the flags)"
                ));
            };
            let kind = self.flags[slot].kind;
            m.given[slot] = Some(match kind {
                Kind::Switch => String::new(),
                _ => match it.next() {
                    Some(raw) => {
                        kind.check(name, raw)?;
                        raw.clone()
                    }
                    None => return usage(format!("flag --{name} needs a value")),
                },
            });
        }
        Ok(m)
    }

    /// [`parse`](Self::parse), printing and exiting on a usage error or
    /// on `--help` (whose text follows `preface`).
    fn parse_or_exit(&'static self, args: &[String], preface: &str) -> Matches {
        self.parse(args).unwrap_or_else(|e| {
            if e.code == 0 {
                print!("{preface}{}", e.text);
                exit(0);
            }
            fail(self.name, e.code, &e.text)
        })
    }
}

impl Matches {
    fn slot(&self, name: &str) -> usize {
        let slot = self.cmd.flags.iter().position(|f| f.name == name);
        slot.unwrap_or_else(|| panic!("{}: no flag --{name} in the table", self.cmd.name))
    }

    /// The command's message prefix.
    pub fn ctx(&self) -> &'static str {
        self.cmd.name
    }

    /// The flag's value: as given, else its default.
    pub fn get(&self, name: &str) -> Option<&str> {
        let slot = self.slot(name);
        self.given[slot].as_deref().or(self.cmd.flags[slot].default)
    }

    /// Whether a switch was given.
    pub fn on(&self, name: &str) -> bool {
        self.given[self.slot(name)].is_some()
    }

    /// The value of an integer flag that was given or has a default.
    pub fn num(&self, name: &str) -> u64 {
        let raw = self.get(name).expect("integer flag has a value");
        raw.parse().expect("checked at parse time")
    }

    /// The value of a flag the command cannot run without (exit 2).
    pub fn require(&self, name: &str) -> &str {
        self.get(name).unwrap_or_else(|| {
            let flag = &self.cmd.flags[self.slot(name)];
            fail(self.ctx(), 2, &format!("{} is required", flag.spelled()))
        })
    }
}

/// Print `{ctx}: {msg}` to stderr and exit with `code`.
pub fn fail(ctx: &str, code: i32, msg: &str) -> ! {
    eprintln!("{ctx}: {msg}");
    exit(code)
}

/// The process arguments after the program name.
fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Parse the process arguments of a single-command binary.
pub fn parse_or_exit(cmd: &'static Command) -> Matches {
    cmd.parse_or_exit(&args(), "")
}

/// Pick the command of a multi-command binary from the process
/// arguments and parse the rest. The first table entry is the default:
/// bare flags select it, and so does its name. `--help` without a
/// command word prints the command list before the default's help.
pub fn dispatch(prog: &str, commands: &'static [Command]) -> Matches {
    let args = args();
    let default = &commands[0];
    match args.first() {
        Some(first) if !first.starts_with("--") => {
            let Some(cmd) = commands.iter().find(|c| c.word() == first) else {
                let words: Vec<String> =
                    commands.iter().map(|c| format!("`{}`", c.word())).collect();
                let expected = words.join(", ");
                fail(
                    prog,
                    2,
                    &format!(
                        "unknown subcommand `{first}` (expected {expected}, or bare {} flags)",
                        default.word()
                    ),
                )
            };
            cmd.parse_or_exit(&args[1..], "")
        }
        _ => {
            let mut overview = format!("usage: {prog} [COMMAND] [FLAGS]\n\ncommands:\n");
            for c in commands {
                overview.push_str(&format!("  {:<12} {}\n", c.word(), c.summary));
            }
            overview.push_str(&format!(
                "\nbare flags select `{}`; every command takes --help\n\n",
                default.word()
            ));
            default.parse_or_exit(&args, &overview)
        }
    }
}

/// The README's CLI table: one row per command, every flag.
pub fn readme_table(commands: &[Command]) -> String {
    let mut out = String::from("| subcommand | what it does | flags |\n|---|---|---|\n");
    for c in commands {
        let cells: Vec<String> = c
            .positionals
            .iter()
            .map(|p| format!("positional `{p}`"))
            .chain(c.flags.iter().map(|f| format!("`{}`", f.spelled())))
            .collect();
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            c.word(),
            c.summary,
            cells.join(", ").replace('|', "\\|")
        ));
    }
    out
}

/// Read a text input or exit 1 with `{ctx}: cannot read {what }{path}`.
pub fn read_or_exit(ctx: &str, what: &str, path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        let sep = if what.is_empty() { "" } else { " " };
        fail(ctx, 1, &format!("cannot read {what}{sep}{path}: {e}"))
    })
}

/// Write an output or exit 1 with `{ctx}: cannot write {what to }{path}`.
pub fn write_or_exit(ctx: &str, what: &str, path: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        let sep = if what.is_empty() { "" } else { " to " };
        fail(ctx, 1, &format!("cannot write {what}{sep}{path}: {e}"));
    }
}

/// A command's primary document goes to `--out` when given — followed
/// on stdout by the command's `summary` lines and `wrote PATH` — and to
/// stdout, alone, otherwise.
pub fn emit_doc(ctx: &str, out: Option<&str>, doc: &str, summary: impl FnOnce()) {
    match out {
        Some(path) => {
            write_or_exit(ctx, "", path, doc);
            summary();
            println!("wrote {path}");
        }
        None => print!("{doc}"),
    }
}

/// The `--prof FILE` sidecar of a command: a profiler that records only
/// when the flag was given, and the `mcio.prof.v1` writer.
pub struct ProfSidecar<'m> {
    path: Option<&'m str>,
    prof: Prof,
}

impl<'m> ProfSidecar<'m> {
    /// Enabled iff `path` (the flag's value) is present.
    pub fn new(path: Option<&'m str>) -> Self {
        let prof = match path {
            Some(_) => Prof::enabled(),
            None => Prof::disabled(),
        };
        ProfSidecar { path, prof }
    }

    /// The profiler, for scopes (no-ops when disabled).
    pub fn prof(&self) -> &Prof {
        &self.prof
    }

    /// The `Observe::prof` handle: present only when profiling.
    pub fn observe(&self) -> Option<&Prof> {
        self.path.map(|_| &self.prof)
    }

    /// Write the sidecar if it was asked for and return its path.
    /// `cells` come in canonical order, so the deterministic section is
    /// identical at any `--jobs` value.
    pub fn write(&self, ctx: &str, cells: Vec<DetCell>, workers: &[WorkerStat]) -> Option<&'m str> {
        let path = self.path?;
        let rows = workers.iter().map(|w| WorkerRow {
            worker: w.worker as u64,
            busy_ns: w.busy_ns,
            tasks: w.tasks,
        });
        let report = ProfReport::build(&self.prof, cells, rows.collect());
        write_or_exit(ctx, "profile", path, &report.render());
        Some(path)
    }
}

// ---------------------------------------------------------------------
// The tables.

const fn flag(
    name: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        kind,
        default,
        help,
    }
}

const FILE: Kind = Kind::Text("FILE");
const JOBS: Flag = flag(
    "jobs",
    Kind::Jobs,
    Some("1"),
    "worker threads; output bytes never depend on it",
);
const PROF: Flag = flag(
    "prof",
    FILE,
    None,
    "write the mcio.prof.v1 self-profile of the simulator",
);

/// `mcio_cli`: `run` (the default) and the six subcommands.
#[rustfmt::skip]
pub const MCIO_CLI: &[Command] = &[
    Command {
        name: "mcio_cli run",
        summary: "run one collective, both strategies",
        positionals: &[],
        flags: &[
            flag("workload", Kind::Text("ior|collperf|checkpoint"), Some("ior"), "access pattern"),
            flag("ranks", Kind::Text("N"), Some("120"), "MPI ranks"),
            flag("ppn", Kind::Text("N"), Some("12"), "ranks per node"),
            flag("per-proc", Kind::Text("BYTES"), Some("32M"), "bytes per rank (ior, checkpoint)"),
            flag("segments", Kind::Text("N"), Some("8"), "IOR segment count"),
            flag("scale", Kind::Text("N"), Some("4"), "coll_perf dimension divisor"),
            flag("buffer", Kind::Text("BYTES"), Some("16M"), "nominal aggregator buffer"),
            flag("stddev", Kind::Text("F"), Some("0.35"), "relative stddev of the per-rank memory draw"),
            flag("seed", Kind::Text("N"), Some("42"), "memory-draw seed"),
            flag("rw", Kind::Text("read|write"), Some("write"), "collective direction"),
            flag("machine", Kind::Choice(&["testbed", "exascale", "small"]), Some("testbed"), "machine model (small = just big enough for the job)"),
            flag("pipeline", Kind::Text("serial|double"), Some("serial"), "round pipelining"),
            flag("two-level", Kind::Switch, None, "combine on-node at a leader before crossing the NIC"),
            flag("strategy", Kind::Text("two-phase|mc"), Some("mc"), "which plan the observed run (--trace/--metrics/--prof) executes"),
            flag("trace", FILE, None, "write the observed run's Chrome trace (open in Perfetto)"),
            flag("metrics", FILE, None, "export the observed run's metric registry"),
            flag("metrics-format", Kind::Choice(&["json", "csv", "prom"]), Some("json"), "format of --metrics"),
            flag("faults", FILE, None, "inject a fault plan (DSL: docs/robustness.md) and report outcomes"),
            flag("adaptive", Kind::Choice(&["off", "conservative", "aggressive"]), Some("off"), "closed-loop controller for a --faults run"),
            PROF,
            flag("engine", Kind::Choice(&["fifo", "fair"]), Some("fifo"), "DES discipline for shared resources"),
        ],
    },
    Command {
        name: "mcio_cli analyze",
        summary: "critical-path + straggler report from a trace",
        positionals: &[],
        flags: &[
            flag("trace", FILE, None, "Chrome trace written by --trace (required)"),
            flag("report", Kind::Choice(&["text", "json"]), Some("text"), "report format on stdout"),
            flag("top", Kind::Unsigned, Some("5"), "round chains to list"),
            flag("timeline", FILE, None, "also write the mcio.timeline.v1 utilization series"),
            flag("timeline-format", Kind::Choice(&["json", "csv"]), Some("json"), "format of --timeline"),
            flag("bucket-ns", Kind::Positive, None, "timeline bucket width, at most 100000 buckets (default: from the makespan)"),
        ],
    },
    Command {
        name: "mcio_cli diff",
        summary: "differential run attribution between two runs",
        positionals: &["A", "B"],
        flags: &[],
    },
    Command {
        name: "mcio_cli sweep",
        summary: "parallel deterministic parameter grid",
        positionals: &[],
        flags: &[
            JOBS,
            flag("out", FILE, Some("MCIO_sweep.json"), "the mcio.sweep.v1 document"),
            flag("ranks", Kind::Unsigned, Some("64"), "MPI ranks"),
            flag("ppn", Kind::Unsigned, Some("8"), "ranks per node"),
            flag("seed", Kind::Unsigned, Some("42"), "memory-draw seed"),
            PROF,
        ],
    },
    Command {
        name: "mcio_cli multitenant",
        summary: "N concurrent jobs on one shared machine",
        positionals: &[],
        flags: &[
            flag("spec", FILE, None, "multi-tenant spec (DSL: docs/multitenancy.md; required)"),
            flag("out", FILE, None, "the mcio.multitenant.v1 document (default: stdout)"),
            flag("trace", FILE, None, "write the unified Chrome trace with the pid-4 tenant lanes"),
            PROF,
        ],
    },
    Command {
        name: "mcio_cli prof",
        summary: "pretty-print a mcio.prof.v1 profile sidecar",
        positionals: &["FILE"],
        flags: &[
            flag("top", Kind::Unsigned, Some("10"), "phases to list"),
            flag("det", Kind::Switch, None, "print only the byte-stable deterministic section"),
        ],
    },
    Command {
        name: "mcio_cli schedule",
        summary: "replay a job-arrival trace through the queue scheduler",
        positionals: &[],
        flags: &[
            flag("trace", FILE, None, "mcio.jobtrace.v1 stream (DSL: docs/scheduling.md; required)"),
            flag("policy", Kind::Choice(&["fcfs", "backfill", "priority"]), Some("fcfs"), "dispatch policy"),
            flag("admission", Kind::Switch, None, "defer dispatches predicted to interfere past the budgets"),
            flag("out", FILE, None, "the mcio.schedule.v1 document (default: stdout)"),
            JOBS,
            flag("chrome", FILE, None, "write the pid-6 scheduler lanes as a Chrome trace"),
            flag("metrics", FILE, None, "export the sched.* metric registry as JSON"),
        ],
    },
];

/// `perf_suite`.
#[rustfmt::skip]
pub const PERF_SUITE: Command = Command {
    name: "perf_suite",
    summary: "fig6/7/8 perf-trajectory matrix with a regression gate",
    positionals: &[],
    flags: &[
        flag("out", FILE, None, "the document (default BENCH_perf_suite.json; --exascale: stdout)"),
        JOBS,
        flag("check", FILE, None, "gate the fresh run against this baseline document"),
        flag("tolerance", Kind::Text("FRAC"), Some("0.05"), "relative elapsed-time growth --check allows"),
        PROF,
        flag("exascale", Kind::Switch, None, "run the 1 M-rank exascale_2018 scenario instead of the matrix"),
    ],
};

/// `fault_suite`.
#[rustfmt::skip]
pub const FAULT_SUITE: Command = Command {
    name: "fault_suite",
    summary: "fixed fault matrix x both strategies, robustness gate",
    positionals: &[],
    flags: &[
        flag("out", FILE, Some("BENCH_fault_suite_trace.json"), "the memory-conscious agg_crash trace"),
        JOBS,
    ],
};

/// `contention_suite`.
#[rustfmt::skip]
pub const CONTENTION_SUITE: Command = Command {
    name: "contention_suite",
    summary: "tenant-count x strategy sweep, graceful-degradation gate",
    positionals: &[],
    flags: &[
        flag("out", FILE, Some("BENCH_contention_suite.json"), "the mcio.multitenant.v1 document"),
        JOBS,
    ],
};

/// `adaptation_suite`.
#[rustfmt::skip]
pub const ADAPTATION_SUITE: Command = Command {
    name: "adaptation_suite",
    summary: "fault matrix x tenant count x policy, closed-loop gate",
    positionals: &[],
    flags: &[
        flag("out", FILE, Some("BENCH_adaptation_suite.json"), "the mcio.adaptation.v1 document"),
        flag("trace", FILE, Some("BENCH_adaptation_trace.json"), "replan trace of the 8-tenant aggressive cell"),
        JOBS,
    ],
};

/// `scheduler_suite`.
#[rustfmt::skip]
pub const SCHEDULER_SUITE: Command = Command {
    name: "scheduler_suite",
    summary: "one job stream through every policy, scheduling gate",
    positionals: &[],
    flags: &[
        flag("trace", FILE, None, "replace the bundled stream; print only the text report"),
        flag("out", FILE, Some("BENCH_scheduler_suite.json"), "the mcio.scheduler_suite.v1 document"),
        JOBS,
    ],
};

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn err(cmd: &'static Command, words: &[&str]) -> Exit {
        cmd.parse(&args(words)).expect_err("rejected")
    }

    const ANALYZE: &Command = &MCIO_CLI[1];

    #[test]
    fn the_flag_set_is_46_plus_16() {
        let count = |cs: &[Command]| cs.iter().map(|c| c.flags.len()).sum::<usize>();
        assert_eq!(count(MCIO_CLI), 46);
        let suites = [
            PERF_SUITE,
            FAULT_SUITE,
            CONTENTION_SUITE,
            ADAPTATION_SUITE,
            SCHEDULER_SUITE,
        ];
        assert_eq!(count(&suites), 16);
        // Every default passes its own kind's check, and no command
        // lists a name twice.
        for c in MCIO_CLI.iter().chain(&suites) {
            for (i, f) in c.flags.iter().enumerate() {
                if let Some(d) = f.default {
                    assert_eq!(f.kind.check(f.name, d), Ok(()), "{} --{}", c.name, f.name);
                }
                assert!(c.flags[..i].iter().all(|g| g.name != f.name), "{}", f.name);
            }
        }
    }

    #[test]
    fn values_defaults_switches_and_positionals() {
        let m = ANALYZE
            .parse(&args(&["--trace", "t.json", "--top", "3"]))
            .unwrap();
        assert_eq!(m.get("trace"), Some("t.json"));
        assert_eq!((m.num("top"), m.get("report")), (3, Some("text")));
        assert_eq!(m.get("bucket-ns"), None);
        let m = MCIO_CLI[5]
            .parse(&args(&["--top", "3", "p.json", "--det"]))
            .unwrap();
        assert!(m.on("det"));
        assert_eq!(m.positionals, ["p.json"], "`3` stays with --top");
    }

    #[test]
    fn usage_errors_are_one_line_exit_2_and_jobs_exits_1() {
        for (cmd, words, code, needle) in [
            (ANALYZE, &["--verbose"][..], 2, "unknown flag --verbose"),
            (ANALYZE, &["--verbose"][..], 2, "unknown argument"),
            (ANALYZE, &["--top"][..], 2, "--top needs a value"),
            (ANALYZE, &["--top", "many"][..], 2, "--top: invalid digit"),
            (
                ANALYZE,
                &["--report", "xml"][..],
                2,
                "--report must be text|json, got `xml`",
            ),
            (
                ANALYZE,
                &["--bucket-ns", "0"][..],
                2,
                "--bucket-ns must be a positive integer",
            ),
            (ANALYZE, &["stray"][..], 2, "unexpected argument `stray`"),
            (
                &MCIO_CLI[3],
                &["--jobs", "0"][..],
                1,
                "--jobs must be a positive integer, got `0`",
            ),
            (
                &FAULT_SUITE,
                &["--jobs", "many"][..],
                1,
                "--jobs must be a positive integer",
            ),
        ] {
            let e = err(cmd, words);
            assert_eq!(e.code, code, "{words:?}");
            assert!(e.text.contains(needle), "{words:?} → {}", e.text);
            assert_eq!(e.text.lines().count(), 1, "{}", e.text);
        }
    }

    #[test]
    fn help_names_every_flag_with_its_metavar_and_default() {
        for c in MCIO_CLI.iter().chain([&PERF_SUITE, &SCHEDULER_SUITE]) {
            let e = err(c, &["--help"]);
            assert_eq!(e.code, 0);
            assert!(
                e.text.starts_with(&format!("usage: {}", c.name)),
                "{}",
                e.text
            );
            assert!(e.text.contains(c.summary));
            for f in c.flags {
                assert!(e.text.contains(&format!("  {}", f.spelled())), "{}", f.name);
                if let Some(d) = f.default {
                    assert!(e.text.contains(&format!("(default {d})")), "{}", f.name);
                }
            }
        }
    }
}
