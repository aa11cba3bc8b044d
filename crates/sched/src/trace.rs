//! The `mcio.jobtrace.v1` job-stream trace: parser, canonical
//! serializer, and the seeded synthetic-stream generator.
//!
//! A trace describes one machine and a time-ordered stream of job
//! arrivals, one directive per line:
//!
//! ```text
//! # mcio.jobtrace.v1
//! machine small:32x2            # testbed | exascale | small:<nodes>x<cores>
//! engine fifo                   # DES share policy of the machine (fifo | fair)
//! job a arrival=0 prio=0 ranks=8 ppn=2 per_proc=256K segments=2
//! job b arrival=250us prio=3 ranks=16 ppn=2 strategy=two-phase
//! ```
//!
//! The engine is a property of the machine's resources, so it is set
//! once per trace (default `fifo`): every commit and every solo
//! baseline of the stream runs under it, and a job line naming
//! `engine=` is an error.
//!
//! Every `job` key is optional. The 13 job-description keys and their
//! defaults are [`JobDesc`]'s (the table in `mcio_workloads::job`,
//! shared with the multi-tenant spec DSL and `mcio_cli run`); this DSL
//! adds `arrival=0` and `prio=0`. Arrivals must be non-decreasing — a
//! trace is a replay log, not a job bag. There is no `node_offset`,
//! `start` or `base` key: placement, dispatch time and the per-job file
//! region are the *scheduler's* outputs, not trace inputs.
//!
//! [`JobTrace::serialize`] emits the canonical form — fixed key order,
//! bare nanoseconds/bytes, `{:.6}` floats — so
//! `parse ∘ serialize ∘ parse` is lossless and `serialize ∘ parse` is
//! idempotent on canonical documents (property-tested in
//! `tests/format_roundtrip.rs`).

use mcio_cluster::spec::ClusterSpec;
use mcio_core::{Strategy, TenantJob};
use mcio_des::{SharePolicy, SimDuration};
use mcio_faults::{directive_lines, parse_duration};
use mcio_workloads::JobDesc;
use std::fmt::Write as _;

/// One job arrival of a stream: everything the scheduler needs to
/// plan, place and commit the job.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// Job name (unique within the trace).
    pub name: String,
    /// Arrival time (non-decreasing across the trace).
    pub arrival: SimDuration,
    /// Priority level; higher dispatches earlier under the priority
    /// policy, ignored by FCFS and backfill.
    pub prio: u64,
    /// Workload, placement, memory draw and strategy.
    pub desc: JobDesc,
}

/// Read-only bridge for `benchmark/` (which a code PR may not edit): it
/// reads `job.ranks` and `job.seed` on the pre-[`JobDesc`] field
/// layout. New code names `job.desc`; a benchmark-only PR can drop
/// this impl.
impl std::ops::Deref for TraceJob {
    type Target = JobDesc;
    fn deref(&self) -> &JobDesc {
        &self.desc
    }
}

/// A parsed job-stream trace: the shared machine plus the arrival log.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Compact machine label as written (`testbed`, `exascale`,
    /// `small:<n>x<c>`), kept for canonical re-serialization.
    pub machine_label: String,
    /// The resolved shared machine.
    pub machine: ClusterSpec,
    /// The DES share policy every commit and solo baseline runs under.
    pub engine: SharePolicy,
    /// Arrivals in time order.
    pub jobs: Vec<TraceJob>,
}

fn parse_job(rest: &str) -> Result<TraceJob, String> {
    let (mut arrival, mut prio) = (SimDuration::ZERO, 0);
    let (name, desc) = JobDesc::parse_line(rest, |key, value| {
        match key {
            "arrival" => arrival = parse_duration(value)?,
            "prio" => prio = value.parse().map_err(|e| format!("{e}"))?,
            "engine" => return Err("the engine is set per trace, by an `engine` directive".into()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(TraceJob {
        name: name.to_string(),
        arrival,
        prio,
        desc,
    })
}

impl JobTrace {
    /// The bundled mixed-size stream `scheduler_suite` gates on (and
    /// `benchmark/workloads/sched_stream.jobtrace` spells out): `big`
    /// holds half of a 32-node machine for a long time, `wide` needs the
    /// whole machine and blocks the FCFS queue, and two hundred short
    /// 4-node jobs arrive behind it. Backfill lets the shorts run on the
    /// free half while `wide` waits.
    pub fn bundled() -> Self {
        let mut text = String::from(
            "# mcio.jobtrace.v1\n\
             machine small:32x2\n\
             job big arrival=0 ranks=32 ppn=2 per_proc=2M segments=2 buffer=128K\n\
             job wide arrival=50us prio=9 ranks=64 ppn=2 per_proc=256K segments=1 buffer=128K\n",
        );
        for i in 0..200 {
            let _ = writeln!(
                text,
                "job s{i:03} arrival={}us ranks=8 ppn=2 per_proc=64K segments=1 buffer=64K",
                100 + i * 50
            );
        }
        Self::parse(&text).expect("bundled trace parses")
    }

    /// Parse an `mcio.jobtrace.v1` document. Errors carry the
    /// offending line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut machine: Option<(String, ClusterSpec)> = None;
        let mut engine: Option<SharePolicy> = None;
        let mut jobs: Vec<TraceJob> = Vec::new();
        let mut job_lines: Vec<(usize, String)> = Vec::new();
        for (line_no, line) in directive_lines(text) {
            let (directive, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            match directive {
                "machine" => {
                    if machine.is_some() {
                        return Err(format!("line {line_no}: duplicate machine directive"));
                    }
                    let label = rest.trim();
                    let spec = ClusterSpec::parse_compact(label)
                        .map_err(|e| format!("line {line_no}: {e}"))?;
                    machine = Some((label.to_string(), spec));
                }
                "engine" => {
                    if engine.is_some() {
                        return Err(format!("line {line_no}: duplicate engine directive"));
                    }
                    if !job_lines.is_empty() {
                        return Err(format!(
                            "line {line_no}: engine directive must precede job directives"
                        ));
                    }
                    engine = Some(SharePolicy::parse(rest.trim()).ok_or_else(|| {
                        format!(
                            "line {line_no}: engine must be fifo|fair, got `{}`",
                            rest.trim()
                        )
                    })?);
                }
                "job" => job_lines.push((line_no, rest.to_string())),
                other => return Err(format!("line {line_no}: unknown directive `{other}`")),
            }
        }
        let (machine_label, machine) = machine.ok_or("trace needs a machine directive")?;
        for (line_no, rest) in &job_lines {
            let job = parse_job(rest).map_err(|e| format!("line {line_no}: {e}"))?;
            if jobs.iter().any(|j| j.name == job.name) {
                return Err(format!("line {line_no}: duplicate job name `{}`", job.name));
            }
            if let Some(prev) = jobs.last() {
                if job.arrival < prev.arrival {
                    return Err(format!(
                        "line {line_no}: arrivals must be non-decreasing (`{}` arrives before `{}`)",
                        job.name, prev.name
                    ));
                }
            }
            if job.desc.nodes() > machine.nodes {
                return Err(format!(
                    "line {line_no}: job `{}` needs {} nodes but the machine has {}",
                    job.name,
                    job.desc.nodes(),
                    machine.nodes
                ));
            }
            job.desc
                .check_hosts(&job.name, machine.nodes, machine.node.cores)
                .map_err(|e| format!("line {line_no}: {e}"))?;
            jobs.push(job);
        }
        if jobs.is_empty() {
            return Err("trace needs at least one job directive".to_string());
        }
        Ok(JobTrace {
            machine_label,
            machine,
            engine: engine.unwrap_or(SharePolicy::Fifo),
            jobs,
        })
    }

    /// The canonical byte-stable rendering: fixed key order, bare
    /// nanoseconds and bytes, `{:.6}` floats.
    pub fn serialize(&self) -> String {
        let mut out = String::from("# mcio.jobtrace.v1\n");
        let _ = writeln!(out, "machine {}", self.machine_label);
        let _ = writeln!(out, "engine {}", self.engine.label());
        for job in &self.jobs {
            let _ = writeln!(
                out,
                "job {} arrival={}ns prio={} {}",
                job.name,
                job.arrival.as_nanos(),
                job.prio,
                job.desc,
            );
        }
        out
    }

    /// Generate a seeded synthetic stream of `n` jobs on `machine`:
    /// bursty arrivals, mixed node demands and sizes, a spread of
    /// priorities. Pure function of `(machine, seed, n)` — the replay
    /// determinism the property tests rely on.
    pub fn synthetic(machine: &str, seed: u64, n: usize) -> Result<Self, String> {
        let spec = ClusterSpec::parse_compact(machine)?;
        if n == 0 {
            return Err("synthetic trace needs at least one job".to_string());
        }
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut arrival_ns = 0u64;
        let mut jobs = Vec::with_capacity(n);
        for i in 0..n {
            // Bursty arrivals: half the draws land in a tight cluster,
            // half stretch out, so queues actually build up.
            let gap = if splitmix64(&mut state).is_multiple_of(2) {
                splitmix64(&mut state) % 50_000
            } else {
                splitmix64(&mut state) % 400_000
            };
            arrival_ns += gap;
            let ppn = 2usize;
            let rank_choices = [2usize, 4, 8, 16];
            let mut ranks = rank_choices[(splitmix64(&mut state) % 4) as usize];
            while ranks.div_ceil(ppn) > spec.nodes {
                ranks /= 2;
            }
            let per_proc = 32 * 1024 * (1 << (splitmix64(&mut state) % 3));
            let strategy = if splitmix64(&mut state).is_multiple_of(4) {
                Strategy::TwoPhase
            } else {
                Strategy::MemoryConscious
            };
            jobs.push(TraceJob {
                name: format!("g{i:04}"),
                arrival: SimDuration::from_nanos(arrival_ns),
                prio: splitmix64(&mut state) % 10,
                desc: JobDesc {
                    ranks,
                    ppn,
                    per_proc,
                    segments: 1 + splitmix64(&mut state) % 2,
                    buffer: 64 * 1024,
                    seed: splitmix64(&mut state),
                    strategy,
                    ..JobDesc::default()
                },
            });
        }
        Ok(JobTrace {
            machine_label: machine.to_string(),
            machine: spec,
            engine: SharePolicy::Fifo,
            jobs,
        })
    }
}

/// The splitmix64 step — the same tiny generator the fault planner
/// uses; good enough mixing for synthetic streams, zero dependencies.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Plan a trace job into a [`TenantJob`] template at node offset 0,
/// start 0 — placement and dispatch time are set by the scheduler at
/// commit. `idx` is the job's trace position; it fixes the job's file
/// region at `idx * 1 GiB` so streams never share extents by accident.
pub fn build_tenant(job: &TraceJob, idx: usize) -> TenantJob {
    job.desc.tenant(&job.name, (idx as u64) << 30)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = "\
# a tiny stream
machine small:8x2
engine fair
job a arrival=0 ranks=4 ppn=2 per_proc=64K segments=1 buffer=64K
job b arrival=250us prio=3 ranks=8 ppn=2 per_proc=64K segments=1 buffer=64K strategy=two-phase
";

    #[test]
    fn parses_defaults_and_overrides() {
        let trace = JobTrace::parse(TRACE).expect("trace parses");
        assert_eq!(trace.machine.nodes, 8);
        assert_eq!(trace.machine_label, "small:8x2");
        assert_eq!(trace.engine, SharePolicy::FairShare);
        assert_eq!(trace.jobs.len(), 2);
        let a = &trace.jobs[0];
        assert_eq!((a.prio, a.desc.nodes()), (0, 2));
        let b = &trace.jobs[1];
        assert_eq!(b.arrival, SimDuration::from_micros(250));
        assert_eq!(b.prio, 3);
        assert_eq!(b.desc.strategy, Strategy::TwoPhase);
        let fifo = JobTrace::parse("machine small:8x2\njob a").expect("parses");
        assert_eq!(fifo.engine, SharePolicy::Fifo, "the default engine");
    }

    #[test]
    fn rejects_malformed_traces() {
        for (text, needle) in [
            ("job a", "machine directive"),
            ("machine small:8x2", "at least one job"),
            ("machine tiny\njob a", "must be testbed|exascale"),
            (
                "machine small:1000000000000x2\njob a",
                "at most 1000000x1000",
            ),
            (
                "machine small:8x2\nmachine testbed\njob a",
                "duplicate machine",
            ),
            ("machine small:8x2\njob a\njob a", "duplicate job name"),
            ("machine small:8x2\njob a frobnicate=1", "unknown job key"),
            ("machine small:8x2\njob a ranks=0", "must be positive"),
            ("machine small:8x2\njob a arrival=soon", "bad duration"),
            ("machine small:8x2\nengine warp\njob a", "engine must be"),
            ("machine small:8x2\njob a engine=fair", "set per trace"),
            ("machine small:8x2\nwarp 9", "unknown directive"),
            (
                "machine small:8x2\nengine fifo\nengine fair\njob a",
                "duplicate engine",
            ),
            ("machine small:8x2\njob a\nengine fair", "must precede job"),
            ("machine small:2x2\njob a ranks=8 ppn=2", "machine has 2"),
            (
                "machine small:8x2\njob a buffer=0",
                "buffer must be positive",
            ),
            // u64::MAX ranks move more bytes than a million rounds hold;
            // with no bytes they reach the host check.
            (
                "machine small:8x2\njob a ranks=18446744073709551615 ppn=18446744073709551615",
                "more than 1048576 rounds",
            ),
            (
                "machine small:8x2\njob a ranks=18446744073709551615 ppn=18446744073709551615 per_proc=0",
                "hosts at most 16",
            ),
            (
                "machine small:4x2\njob a ranks=8 ppn=2 segments=1 buffer=1",
                "a request of 16777216 bytes over a buffer of 1 bytes",
            ),
            (
                "machine small:8x2\njob a ranks=17 ppn=4",
                "hosts at most 16",
            ),
            (
                "machine small:8x2\njob a stddev=nan",
                "stddev must be finite",
            ),
            (
                "machine small:8x2\njob a stddev=inf",
                "stddev must be finite",
            ),
            ("machine small:8x2\njob a stddev=-1", "non-negative"),
            (
                "machine small:8x2\njob a arrival=5us\njob b arrival=1us",
                "non-decreasing",
            ),
        ] {
            let err = JobTrace::parse(text).expect_err(text);
            assert!(
                err.contains(needle),
                "`{text}` → `{err}` (wanted `{needle}`)"
            );
            assert_eq!(err.lines().count(), 1, "one-line error: `{err}`");
        }
    }

    #[test]
    fn serialize_is_canonical_and_lossless() {
        let trace = JobTrace::parse(TRACE).expect("trace parses");
        let canon = trace.serialize();
        let re = JobTrace::parse(&canon).expect("canonical form re-parses");
        assert_eq!(trace.jobs, re.jobs, "parse ∘ serialize is lossless");
        assert_eq!(canon, re.serialize(), "serialize ∘ parse is idempotent");
        assert!(canon.starts_with("# mcio.jobtrace.v1\nmachine small:8x2\nengine fair\n"));
        assert!(canon.contains("job b arrival=250000ns prio=3"), "{canon}");
    }

    #[test]
    fn synthetic_streams_replay_by_seed() {
        let a = JobTrace::synthetic("small:8x2", 7, 12).expect("generates");
        let b = JobTrace::synthetic("small:8x2", 7, 12).expect("generates");
        assert_eq!(a.serialize(), b.serialize(), "same seed, same bytes");
        let c = JobTrace::synthetic("small:8x2", 8, 12).expect("generates");
        assert_ne!(a.serialize(), c.serialize(), "different seed differs");
        assert!(a.jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.jobs.iter().all(|j| j.desc.nodes() <= 8));
        // The generator's own output is a valid canonical document.
        let re = JobTrace::parse(&a.serialize()).expect("re-parses");
        assert_eq!(re.jobs, a.jobs);
    }

    #[test]
    fn tenant_templates_get_disjoint_file_regions() {
        let trace = JobTrace::parse(TRACE).expect("trace parses");
        let t0 = build_tenant(&trace.jobs[0], 0);
        let t1 = build_tenant(&trace.jobs[1], 1);
        assert_eq!(t0.label, "a");
        assert_eq!(t1.label, "b");
        assert_eq!(t0.node_offset, 0, "placement left to the scheduler");
        assert!(t0.start.is_zero(), "dispatch time left to the scheduler");
        // Job 1's extents all live at or above the 1 GiB region base.
        let min1 = t1
            .plan
            .groups
            .iter()
            .flat_map(|g| g.rounds.iter())
            .flat_map(|r| r.ios.iter())
            .flat_map(|io| io.extents.iter())
            .map(|e| e.offset)
            .min()
            .expect("job has I/O extents");
        assert!(min1 >= 1 << 30, "min offset {min1}");
    }
}
