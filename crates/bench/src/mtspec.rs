//! The multi-tenant spec DSL and the `mcio.multitenant.v1` renderer.
//!
//! A spec file describes one shared machine, N jobs and an optional
//! machine-level fault plan, one directive per line:
//!
//! ```text
//! # comments and blank lines are ignored
//! machine small:32x2            # or: testbed | exascale | small:<nodes>x<cores>
//! job a ranks=8 ppn=2 node_offset=0 start=0 workload=ior per_proc=2M segments=3 buffer=512K stddev=0.3 seed=7 strategy=mc base=0
//! job b ranks=8 ppn=2 node_offset=4 start=250us base=1G strategy=two-phase
//! fault seed 5
//! fault ost_slow(0, 4.0, 0ns..20ms)
//! ```
//!
//! A `#` starts a comment anywhere on a line (the one line reader,
//! `mcio_faults::directive_lines`, is shared with the job-trace and
//! fault DSLs); a directive is one line, with no continuations.
//!
//! Every `job` key is optional. The 13 job-description keys and their
//! defaults are [`JobDesc`]'s (the table in `mcio_workloads::job`,
//! shared with the job-trace DSL and `mcio_cli run`); this DSL adds
//! `node_offset=0`, `start=0` and `base=0`. `base` shifts every extent
//! of the job's request, giving each tenant its own region of the flat
//! PFS offset space — its "file". `fault` lines are parsed, in order
//! and where they stand, with the robustness DSL of `mcio-faults`;
//! `start` takes its duration grammar (`250us`, `1.5ms`). Every error
//! that belongs to a line starts `line N:` with the file's line number.
//!
//! [`render_run`] serializes a [`MultiTenantReport`] as the
//! `mcio.multitenant.v1` JSON document through the one document writer
//! (`mcio_obs::doc`): fixed key order, `{:.6}` floats, no map
//! iteration — the bytes are a pure function of the outcome, so any
//! worker-thread fan-out reproduces them exactly.

use mcio_cluster::spec::ClusterSpec;
use mcio_core::hints::parse_bytes;
use mcio_core::{JobOutcome, MultiTenantReport, Strategy, TenantJob};
use mcio_des::SimDuration;
use mcio_faults::{directive_lines, parse_duration, FaultSpec};
use mcio_obs::doc::Writer;
use mcio_workloads::JobDesc;

/// The schema stamp of the multi-tenant document (a whole run here, a
/// cell matrix in `contention_suite`).
pub const MULTITENANT_SCHEMA: &str = "mcio.multitenant.v1";

/// One parsed `job` directive: the shared job description plus where
/// and when this tenant runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobSpec {
    /// Job name (unique within the spec).
    pub name: String,
    /// First machine node of the job's partition.
    pub node_offset: usize,
    /// Arrival time.
    pub start: SimDuration,
    /// Byte offset added to every extent — the job's file region.
    pub base: u64,
    /// Workload, placement, memory draw and strategy.
    pub desc: JobDesc,
}

/// A parsed multi-tenant spec: machine, jobs, optional fault plan.
#[derive(Debug, Clone)]
pub struct MtSpec {
    /// The shared machine.
    pub machine: ClusterSpec,
    /// Job directives in file order.
    pub jobs: Vec<JobSpec>,
    /// Machine-level fault plan, when any `fault` line was present.
    pub faults: Option<FaultSpec>,
}

fn parse_job(rest: &str) -> Result<JobSpec, String> {
    let mut job = JobSpec::default();
    let (name, desc) = JobDesc::parse_line(rest, |key, value| {
        match key {
            "node_offset" => job.node_offset = value.parse().map_err(|e| format!("{e}"))?,
            "start" => job.start = parse_duration(value)?,
            "base" => job.base = parse_bytes(value)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    job.name = name.to_string();
    job.desc = desc;
    Ok(job)
}

impl MtSpec {
    /// Parse a spec document. Errors carry the offending line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut machine: Option<ClusterSpec> = None;
        let mut jobs: Vec<JobSpec> = Vec::new();
        let mut job_lines: Vec<usize> = Vec::new();
        // The fault plan as a text of its own: line N of it is the
        // `fault` directive on line N of the file, or empty — so the
        // fault DSL's `line N:` errors name the file's line.
        let mut fault_lines = vec![""; text.lines().count()];
        let mut faulted = false;
        for (line_no, line) in directive_lines(text) {
            let (directive, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            match directive {
                "machine" => {
                    if machine.is_some() {
                        return Err(format!("line {line_no}: duplicate machine directive"));
                    }
                    let parsed = ClusterSpec::parse_compact(rest.trim());
                    machine = Some(parsed.map_err(|e| format!("line {line_no}: {e}"))?);
                }
                "job" => {
                    let job = parse_job(rest).map_err(|e| format!("line {line_no}: {e}"))?;
                    if jobs.iter().any(|j| j.name == job.name) {
                        return Err(format!("line {line_no}: duplicate job name `{}`", job.name));
                    }
                    jobs.push(job);
                    job_lines.push(line_no);
                }
                "fault" => {
                    fault_lines[line_no - 1] = rest.trim();
                    faulted = true;
                }
                other => return Err(format!("line {line_no}: unknown directive `{other}`")),
            }
        }
        let machine = machine.ok_or("spec needs a machine directive")?;
        if jobs.is_empty() {
            return Err("spec needs at least one job directive".to_string());
        }
        let faults = if !faulted {
            None
        } else {
            let f = FaultSpec::parse(&fault_lines.join("\n"))?;
            // The parser can't know the machine; with it resolved,
            // reject fault targets that don't exist on it.
            f.validate_targets(machine.io_servers, machine.nodes)
                .map_err(|e| format!("faults: {e}"))?;
            Some(f)
        };
        // Likewise the jobs: the machine may be declared after them.
        for (job, line_no) in jobs.iter().zip(&job_lines) {
            let end = job.node_offset.saturating_add(job.desc.nodes());
            if end > machine.nodes {
                return Err(format!(
                    "line {line_no}: job `{}` needs nodes {}..{end} but the machine has {}",
                    job.name, job.node_offset, machine.nodes
                ));
            }
            job.desc
                .check_hosts(&job.name, machine.nodes, machine.node.cores)
                .map_err(|e| format!("line {line_no}: {e}"))?;
        }
        Ok(MtSpec {
            machine,
            jobs,
            faults,
        })
    }

    /// Plan every job and build the [`TenantJob`] list for
    /// [`mcio_core::run_multitenant`].
    pub fn build_jobs(&self) -> Vec<TenantJob> {
        self.jobs.iter().map(build_tenant).collect()
    }
}

/// Plan one job spec into a ready [`TenantJob`].
pub fn build_tenant(job: &JobSpec) -> TenantJob {
    job.desc
        .tenant(&job.name, job.base)
        .node_offset(job.node_offset)
        .start(job.start)
}

/// The eight-tenant roster of `contention_suite` and
/// `adaptation_suite`: IOR writers of 8 ranks on exclusive 4-node
/// partitions of a 32-node machine, each with its own file region,
/// arrivals staggered 250 µs apart. A cell with T tenants runs the
/// first T jobs, so smaller cells are strict prefixes — the same job
/// always has the same plan, partition, file region and arrival.
pub fn contention_roster(strategy: Strategy) -> Vec<JobSpec> {
    (0..8u64)
        .map(|ji| JobSpec {
            name: format!("job{ji}"),
            node_offset: ji as usize * 4,
            start: SimDuration::from_micros(ji * 250),
            base: ji << 30,
            desc: JobDesc {
                per_proc: 2 << 20,
                segments: 2,
                buffer: 32 << 10,
                stddev: 0.5,
                seed: 0xC0DE + ji,
                strategy,
                ..JobDesc::default()
            },
        })
        .collect()
}

/// One job's outcome as the members of a `mcio.multitenant.v1` job
/// row. Shared by the CLI document and the `contention_suite` /
/// `adaptation_suite` cells so the renderings can never drift.
pub fn write_job(r: &mut Writer, o: &JobOutcome) {
    r.text("job", &o.label);
    r.text("strategy", o.strategy.label());
    r.uint("start_ns", o.start_ns);
    r.uint("end_ns", o.end_ns);
    r.uint("elapsed_ns", o.report.elapsed.as_nanos());
    r.uint("solo_ns", o.solo_elapsed.as_nanos());
    r.float("slowdown", o.slowdown, 6);
    r.float("ost_overlap", o.ost_overlap, 6);
    r.float("bandwidth_mibs", o.report.bandwidth_mibs, 6);
}

/// Render a whole run as the byte-stable `mcio.multitenant.v1`
/// document.
pub fn render_run(machine: &str, mt: &MultiTenantReport) -> String {
    let mut w = Writer::document();
    w.schema(MULTITENANT_SCHEMA);
    w.text("machine", machine);
    w.uint("tenants", mt.jobs.len() as u64);
    w.uint("makespan_ns", mt.makespan.as_nanos());
    w.rows("jobs", &mt.jobs, write_job);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcio_core::exec_sim::Observe;
    use mcio_core::{run_multitenant, AdaptivePolicy};

    const SPEC: &str = "\
# two tenants on a shared 8-node machine
machine small:8x2

job a ranks=8 ppn=2 node_offset=0 start=0     per_proc=256K segments=2 buffer=256K seed=1
job b ranks=8 ppn=2 node_offset=4 start=250us per_proc=256K segments=2 buffer=256K seed=2 base=1G strategy=two-phase
";

    #[test]
    fn parses_machine_jobs_and_defaults() {
        let spec = MtSpec::parse(SPEC).expect("spec parses");
        assert_eq!(spec.machine.nodes, 8);
        assert_eq!(spec.jobs.len(), 2);
        assert!(spec.faults.is_none());
        let a = &spec.jobs[0];
        assert_eq!(a.name, "a");
        assert_eq!(
            a.desc.strategy,
            Strategy::MemoryConscious,
            "default strategy"
        );
        assert_eq!(a.desc.workload, "ior", "default workload");
        let b = &spec.jobs[1];
        assert_eq!(b.node_offset, 4);
        assert_eq!(b.start, SimDuration::from_micros(250));
        assert_eq!(b.base, 1 << 30);
        assert_eq!(b.desc.strategy, Strategy::TwoPhase);
    }

    #[test]
    fn fault_lines_concatenate_into_one_plan() {
        let text = format!("{SPEC}fault seed 9\nfault ost_slow(0, 2.0, 0ns..5ms)\n");
        let spec = MtSpec::parse(&text).expect("faulted spec parses");
        let faults = spec.faults.expect("fault plan present");
        assert_eq!(faults.seed, 9);
        assert_eq!(faults.events.len(), 1);
    }

    #[test]
    fn rejects_malformed_specs() {
        for (text, needle) in [
            ("job a ranks=8", "machine directive"),
            ("machine small:8x2", "at least one job"),
            (
                "machine small:8x2\nmachine testbed\njob a",
                "duplicate machine",
            ),
            ("machine small:8x2\njob a\njob a", "duplicate job name"),
            ("machine small:8x2\njob a frobnicate=1", "unknown job key"),
            ("machine small:8x2\njob a ranks=0", "must be positive"),
            ("machine small:0x2\njob a", "must be positive"),
            (
                "machine small:1000000000000x2\njob a",
                "line 1: small machine is at most 1000000x1000",
            ),
            ("machine small:8x2\njob a start=soon", "bad duration `soon`"),
            ("machine small:8x2\nwarp 9", "unknown directive"),
            (
                "machine small:8x2   # the machine\njob a start=soon   # later",
                "line 2: start: bad duration `soon`",
            ),
            (
                "job a\n\nmachine small:0x2",
                "line 3: machine dimensions must be positive",
            ),
            (
                "# late machine\njob a ranks=8 ppn=2 node_offset=1\nmachine small:2x2",
                "line 2: job `a` needs nodes 1..5 but the machine has 2",
            ),
            (
                "machine small:8x2\nfault seed 5\njob a\n# note\nfault ost_slow(0, 4.0, 9ms..2ms)",
                "line 5: window `9ms..2ms` is empty or reversed",
            ),
            (
                "machine small:4x2\njob a\nfault agg_crash(700, 1ms)",
                "faults: node 700 out of range: machine has 4 nodes",
            ),
            (
                "machine small:8x2\njob a buffer=0",
                "line 2: buffer must be positive",
            ),
            (
                "machine small:8x2\njob a stddev=nan",
                "line 2: stddev must be finite",
            ),
            (
                "machine small:8x2\njob a stddev=inf",
                "line 2: stddev must be finite",
            ),
            ("machine small:8x2\njob a stddev=-1", "non-negative"),
            (
                "job a ranks=64 ppn=64\nmachine small:2x2",
                "line 1: job `a` has 64 ranks but the machine hosts at most 4",
            ),
            (
                "machine small:8x2\njob a workload=checkpoint per_proc=0",
                "needs a positive per_proc",
            ),
            (
                "machine small:8x2\njob a workload=collperf scale=4 buffer=256",
                "line 2: a request of 536870912 bytes over a buffer of 256 bytes",
            ),
        ] {
            let err = MtSpec::parse(text).expect_err(text);
            assert!(
                err.contains(needle),
                "`{text}` → `{err}` (wanted `{needle}`)"
            );
            assert_eq!(err.lines().count(), 1, "one-line error: `{err}`");
        }
    }

    /// One duration grammar (`mcio_faults::parse_duration`) behind mtspec
    /// `start=`, jobtrace `arrival=` and the fault DSL's windows: the
    /// same text means the same nanoseconds, or an error, in all three.
    #[test]
    fn one_duration_grammar_in_every_front_end() {
        for (text, want) in [
            ("250us", Some(250_000)),
            ("1.5ms", Some(1_500_000)),
            ("42", Some(42)),
            ("3 s", None),
            ("-1ms", None),
            ("1e30s", None),
            ("abc", None),
        ] {
            let spec = MtSpec::parse(&format!("machine small:8x2\njob a start={text}"));
            let trace = mcio_sched::JobTrace::parse(&format!(
                "machine small:8x2\njob a arrival=0\njob b arrival={text}"
            ));
            let window = FaultSpec::parse(&format!("ost_stall(0, 0ns..{text})"));
            let got = [
                spec.map(|s| s.jobs[0].start.as_nanos()),
                trace.map(|t| t.jobs[1].arrival.as_nanos()),
                window.map(|f| match f.events[0] {
                    mcio_faults::FaultEvent::OstStall { until, .. } => until.as_nanos(),
                    ref other => panic!("parsed {other:?}"),
                }),
            ];
            for (front_end, got) in ["mtspec", "jobtrace", "fault window"].iter().zip(got) {
                match (want, got) {
                    (Some(ns), Ok(got)) => assert_eq!(got, ns, "{front_end} `{text}`"),
                    (None, Err(e)) => assert_eq!(e.lines().count(), 1, "{front_end}: {e}"),
                    (want, got) => panic!("{front_end} `{text}`: wanted {want:?}, got {got:?}"),
                }
            }
        }
    }

    /// The module-doc examples of both DSLs are real inputs: the text
    /// of the first `text` fence parses verbatim, trailing `# comments`
    /// included.
    #[test]
    fn module_doc_examples_parse_verbatim() {
        fn example(source: &str) -> String {
            let fenced = source
                .lines()
                .skip_while(|l| *l != "//! ```text")
                .skip(1)
                .take_while(|l| *l != "//! ```");
            fenced.map(|l| format!("{}\n", &l[3..])).collect()
        }
        let spec = MtSpec::parse(&example(include_str!("mtspec.rs"))).expect("mtspec example");
        assert_eq!((spec.machine.nodes, spec.jobs.len()), (32, 2));
        assert_eq!(spec.faults.expect("fault lines").events.len(), 1);
        let trace = include_str!("../../sched/src/trace.rs");
        let trace = mcio_sched::JobTrace::parse(&example(trace)).expect("jobtrace example");
        assert_eq!((trace.machine.nodes, trace.jobs.len()), (32, 2));
    }

    #[test]
    fn built_jobs_run_and_render_deterministically() {
        let spec = MtSpec::parse(SPEC).expect("spec parses");
        let jobs = spec.build_jobs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].node_offset, 4);

        let run = |spec: &MtSpec, jobs: &[TenantJob]| {
            render_run(
                &spec.machine.name,
                &run_multitenant(
                    jobs,
                    &spec.machine,
                    spec.faults.as_ref(),
                    AdaptivePolicy::Off,
                    Observe::default(),
                ),
            )
        };
        let doc = run(&spec, &jobs);
        assert_eq!(doc, run(&spec, &jobs), "rendered bytes replay identically");
        assert!(doc.starts_with("{\n  \"schema\": \"mcio.multitenant.v1\",\n"));
        assert!(doc.contains("\"tenants\": 2,"));
        assert!(doc.contains("\"job\": \"a\""));
        assert!(doc.contains("\"strategy\": \"two-phase\""));
        // The staggered tenant starts exactly at its arrival time.
        assert!(doc.contains("\"start_ns\": 250000"), "{doc}");
    }
}
