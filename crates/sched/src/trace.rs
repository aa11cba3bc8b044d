//! The `mcio.jobtrace.v1` job-stream trace: parser, canonical
//! serializer, and the seeded synthetic-stream generator.
//!
//! A trace describes one machine and a time-ordered stream of job
//! arrivals, one directive per line:
//!
//! ```text
//! # mcio.jobtrace.v1
//! machine small:32x2            # testbed | exascale | small:<nodes>x<cores>
//! engine fifo                   # default DES share policy (fifo | fair)
//! job a arrival=0 prio=0 ranks=8 ppn=2 per_proc=256K segments=2
//! job b arrival=250us prio=3 ranks=16 ppn=2 strategy=two-phase engine=fair
//! ```
//!
//! Every `job` key is optional; defaults match the multi-tenant spec
//! DSL (`ranks=8 ppn=2 workload=ior per_proc=2M segments=4 scale=4
//! buffer=1M stddev=0.3 seed=42 strategy=mc rw=write pipeline=serial
//! exchange=direct`), plus `arrival=0`, `prio=0` and `engine` falling
//! back to the trace-level default. Arrivals must be non-decreasing —
//! a trace is a replay log, not a job bag. There is no `node_offset`,
//! `start` or `base` key: placement, dispatch time and the per-job
//! file region are the *scheduler's* outputs, not trace inputs.
//!
//! [`JobTrace::serialize`] emits the canonical form — fixed key order,
//! bare nanoseconds/bytes, `{:.6}` floats — so
//! `parse ∘ serialize ∘ parse` is lossless and `serialize ∘ parse` is
//! idempotent on canonical documents (property-tested in
//! `tests/format_roundtrip.rs`).

use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::exec_sim::{Exchange, Pipeline};
use mcio_core::hints::parse_bytes;
use mcio_core::{
    mcio, twophase, CollectiveConfig, CollectiveRequest, Extent, ProcMemory, Rw, Strategy,
    TenantJob,
};
use mcio_des::{SharePolicy, SimDuration};
use mcio_faults::parse_duration;
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
    /// Ranks in the job.
    pub ranks: usize,
    /// Ranks per node; `ranks.div_ceil(ppn)` is the node demand.
    pub ppn: usize,
    /// Workload shape: `ior`, `collperf` or `checkpoint`.
    pub workload: String,
    /// Per-process bytes (ior/checkpoint).
    pub per_proc: u64,
    /// IOR segment count.
    pub segments: u64,
    /// CollPerf dimension divisor.
    pub scale: u64,
    /// Nominal aggregator buffer.
    pub buffer: u64,
    /// Relative stddev of the per-process memory draw.
    pub stddev: f64,
    /// Memory-draw seed.
    pub seed: u64,
    /// Planning strategy.
    pub strategy: Strategy,
    /// Read or write.
    pub rw: Rw,
    /// Round pipelining.
    pub pipeline: Pipeline,
    /// Exchange shape.
    pub exchange: Exchange,
    /// DES share policy for this job's commit and solo simulations.
    pub engine: SharePolicy,
}

impl TraceJob {
    /// The job's machine-node demand.
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.ppn)
    }
}

fn default_job(engine: SharePolicy) -> TraceJob {
    TraceJob {
        name: String::new(),
        arrival: SimDuration::ZERO,
        prio: 0,
        ranks: 8,
        ppn: 2,
        workload: "ior".to_string(),
        per_proc: 2 << 20,
        segments: 4,
        scale: 4,
        buffer: 1 << 20,
        stddev: 0.3,
        seed: 42,
        strategy: Strategy::MemoryConscious,
        rw: Rw::Write,
        pipeline: Pipeline::Serial,
        exchange: Exchange::Direct,
        engine,
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
    /// Trace-level default share policy for jobs without `engine=`.
    pub default_engine: SharePolicy,
    /// Arrivals in time order.
    pub jobs: Vec<TraceJob>,
}

fn parse_job(rest: &str, line_no: usize, default_engine: SharePolicy) -> Result<TraceJob, String> {
    let mut words = rest.split_whitespace();
    let name = words
        .next()
        .ok_or_else(|| format!("line {line_no}: job directive needs a name"))?;
    let mut job = TraceJob {
        name: name.to_string(),
        ..default_job(default_engine)
    };
    for word in words {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| format!("line {line_no}: expected key=value, got `{word}`"))?;
        let ctx = |e: String| format!("line {line_no}: {key}: {e}");
        match key {
            "arrival" => job.arrival = parse_duration(value).map_err(ctx)?,
            "prio" => job.prio = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "ranks" => job.ranks = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "ppn" => job.ppn = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "workload" => match value {
                "ior" | "collperf" | "checkpoint" => job.workload = value.to_string(),
                other => {
                    return Err(ctx(format!(
                        "workload must be ior|collperf|checkpoint, got `{other}`"
                    )))
                }
            },
            "per_proc" => job.per_proc = parse_bytes(value).map_err(ctx)?,
            "segments" => job.segments = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "scale" => job.scale = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "buffer" => job.buffer = parse_bytes(value).map_err(ctx)?,
            "stddev" => job.stddev = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "seed" => job.seed = value.parse().map_err(|e| ctx(format!("{e}")))?,
            "strategy" => {
                job.strategy = match value {
                    "mc" | "memory-conscious" => Strategy::MemoryConscious,
                    "tp" | "two-phase" => Strategy::TwoPhase,
                    other => {
                        return Err(ctx(format!("strategy must be two-phase|mc, got `{other}`")))
                    }
                }
            }
            "rw" => {
                job.rw = match value {
                    "read" => Rw::Read,
                    "write" => Rw::Write,
                    other => return Err(ctx(format!("rw must be read|write, got `{other}`"))),
                }
            }
            "pipeline" => {
                job.pipeline = match value {
                    "serial" => Pipeline::Serial,
                    "double" => Pipeline::DoubleBuffered,
                    other => {
                        return Err(ctx(format!(
                            "pipeline must be serial|double, got `{other}`"
                        )))
                    }
                }
            }
            "exchange" => {
                job.exchange = match value {
                    "direct" => Exchange::Direct,
                    "two-level" => Exchange::TwoLevel,
                    other => {
                        return Err(ctx(format!(
                            "exchange must be direct|two-level, got `{other}`"
                        )))
                    }
                }
            }
            "engine" => {
                job.engine = SharePolicy::parse(value)
                    .ok_or_else(|| ctx(format!("engine must be fifo|fair, got `{value}`")))?
            }
            other => return Err(format!("line {line_no}: unknown job key `{other}`")),
        }
    }
    if job.ranks == 0 || job.ppn == 0 {
        return Err(format!("line {line_no}: ranks and ppn must be positive"));
    }
    if job.buffer == 0 {
        return Err(format!("line {line_no}: buffer must be positive"));
    }
    if !job.stddev.is_finite() || job.stddev < 0.0 {
        return Err(format!(
            "line {line_no}: stddev must be finite and non-negative, got `{}`",
            job.stddev
        ));
    }
    Ok(job)
}

impl JobTrace {
    /// Parse an `mcio.jobtrace.v1` document. Errors carry the
    /// offending line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut machine: Option<(String, ClusterSpec)> = None;
        let mut default_engine: Option<SharePolicy> = None;
        let mut jobs: Vec<TraceJob> = Vec::new();
        let mut job_lines: Vec<(usize, String)> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
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
                    if default_engine.is_some() {
                        return Err(format!("line {line_no}: duplicate engine directive"));
                    }
                    if !jobs.is_empty() || !job_lines.is_empty() {
                        return Err(format!(
                            "line {line_no}: engine directive must precede job directives"
                        ));
                    }
                    default_engine = Some(SharePolicy::parse(rest.trim()).ok_or_else(|| {
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
        let default_engine = default_engine.unwrap_or(SharePolicy::Fifo);
        for (line_no, rest) in &job_lines {
            let job = parse_job(rest, *line_no, default_engine)?;
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
            if job.nodes() > machine.nodes {
                return Err(format!(
                    "line {line_no}: job `{}` needs {} nodes but the machine has {}",
                    job.name,
                    job.nodes(),
                    machine.nodes
                ));
            }
            // One rank per core is all the machine can host; this also
            // bounds every per-rank allocation planning makes.
            let hosts = machine.nodes.saturating_mul(machine.node.cores);
            if job.ranks > hosts {
                return Err(format!(
                    "line {line_no}: job `{}` has {} ranks but the machine hosts at most {hosts}",
                    job.name, job.ranks
                ));
            }
            jobs.push(job);
        }
        if jobs.is_empty() {
            return Err("trace needs at least one job directive".to_string());
        }
        Ok(JobTrace {
            machine_label,
            machine,
            default_engine,
            jobs,
        })
    }

    /// The canonical byte-stable rendering: fixed key order, bare
    /// nanoseconds and bytes, `{:.6}` floats.
    pub fn serialize(&self) -> String {
        let mut out = String::from("# mcio.jobtrace.v1\n");
        let _ = writeln!(out, "machine {}", self.machine_label);
        let _ = writeln!(out, "engine {}", self.default_engine.label());
        for job in &self.jobs {
            let strategy = match job.strategy {
                Strategy::MemoryConscious => "mc",
                Strategy::TwoPhase => "two-phase",
            };
            let rw = match job.rw {
                Rw::Read => "read",
                Rw::Write => "write",
            };
            let pipeline = match job.pipeline {
                Pipeline::Serial => "serial",
                Pipeline::DoubleBuffered => "double",
            };
            let exchange = match job.exchange {
                Exchange::Direct => "direct",
                Exchange::TwoLevel => "two-level",
            };
            let _ = writeln!(
                out,
                "job {} arrival={}ns prio={} ranks={} ppn={} workload={} per_proc={} \
                 segments={} scale={} buffer={} stddev={:.6} seed={} strategy={} rw={} \
                 pipeline={} exchange={} engine={}",
                job.name,
                job.arrival.as_nanos(),
                job.prio,
                job.ranks,
                job.ppn,
                job.workload,
                job.per_proc,
                job.segments,
                job.scale,
                job.buffer,
                job.stddev,
                job.seed,
                strategy,
                rw,
                pipeline,
                exchange,
                job.engine.label(),
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
                ranks,
                ppn,
                per_proc,
                segments: 1 + splitmix64(&mut state) % 2,
                buffer: 64 * 1024,
                seed: splitmix64(&mut state),
                strategy,
                ..default_job(SharePolicy::Fifo)
            });
        }
        Ok(JobTrace {
            machine_label: machine.to_string(),
            machine: spec,
            default_engine: SharePolicy::Fifo,
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

/// The job's request, shifted onto its private file region.
fn build_request(job: &TraceJob, base: u64) -> CollectiveRequest {
    use mcio_workloads::{science, CollPerf, Ior};
    let req = match job.workload.as_str() {
        "collperf" => CollPerf::paper(job.ranks, job.scale).request(job.rw),
        "checkpoint" => {
            let sizes: Vec<u64> = (0..job.ranks as u64)
                .map(|r| job.per_proc / 2 + (r * 977) % job.per_proc.max(1))
                .collect();
            science::checkpoint(job.rw, 4096, &sizes)
        }
        _ => Ior::paper(job.ranks, job.per_proc, job.segments).request(job.rw),
    };
    if base == 0 {
        return req;
    }
    CollectiveRequest::new(
        req.rw,
        req.ranks
            .iter()
            .map(|r| {
                r.extents
                    .iter()
                    .map(|e| Extent::new(e.offset + base, e.len))
                    .collect()
            })
            .collect(),
    )
}

/// Plan a trace job into a [`TenantJob`] template at node offset 0,
/// start 0 — placement and dispatch time are set by the scheduler at
/// commit. `idx` is the job's trace position; it fixes the job's file
/// region at `idx * 1 GiB` so streams never share extents by accident
/// (the planning recipe otherwise mirrors the multi-tenant spec DSL).
pub fn build_tenant(job: &TraceJob, idx: usize) -> TenantJob {
    let base = (idx as u64) << 30;
    let req = build_request(job, base);
    let map = ProcessMap::block_ppn(job.ranks, job.ppn);
    let mem = ProcMemory::normal(job.ranks, job.buffer, job.stddev, job.seed);
    let per_node = (req.total_bytes() / map.nnodes().max(1) as u64).max(1);
    let cfg = CollectiveConfig::with_buffer(job.buffer)
        .nah(2)
        .msg_group(per_node)
        .msg_ind((per_node / 2).max(1))
        .mem_min(job.buffer / 2);
    let plan = match job.strategy {
        Strategy::TwoPhase => twophase::plan(&req, &map, &mem, &cfg),
        Strategy::MemoryConscious => mcio::plan(&req, &map, &mem, &cfg),
    };
    TenantJob::new(job.name.clone(), plan, map)
        .pipeline(job.pipeline)
        .exchange(job.exchange)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = "\
# a tiny stream
machine small:8x2
engine fifo
job a arrival=0 ranks=4 ppn=2 per_proc=64K segments=1 buffer=64K
job b arrival=250us prio=3 ranks=8 ppn=2 per_proc=64K segments=1 buffer=64K strategy=two-phase engine=fair
";

    #[test]
    fn parses_defaults_and_overrides() {
        let trace = JobTrace::parse(TRACE).expect("trace parses");
        assert_eq!(trace.machine.nodes, 8);
        assert_eq!(trace.machine_label, "small:8x2");
        assert_eq!(trace.jobs.len(), 2);
        let a = &trace.jobs[0];
        assert_eq!((a.prio, a.nodes()), (0, 2));
        assert_eq!(a.engine, SharePolicy::Fifo, "trace default engine");
        let b = &trace.jobs[1];
        assert_eq!(b.arrival, SimDuration::from_micros(250));
        assert_eq!(b.prio, 3);
        assert_eq!(b.strategy, Strategy::TwoPhase);
        assert_eq!(b.engine, SharePolicy::FairShare);
    }

    #[test]
    fn rejects_malformed_traces() {
        for (text, needle) in [
            ("job a", "machine directive"),
            ("machine small:8x2", "at least one job"),
            ("machine tiny\njob a", "must be testbed|exascale"),
            (
                "machine small:8x2\nmachine testbed\njob a",
                "duplicate machine",
            ),
            ("machine small:8x2\njob a\njob a", "duplicate job name"),
            ("machine small:8x2\njob a frobnicate=1", "unknown job key"),
            ("machine small:8x2\njob a ranks=0", "must be positive"),
            ("machine small:8x2\njob a arrival=soon", "bad duration"),
            ("machine small:8x2\njob a engine=warp", "engine must be"),
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
            (
                "machine small:8x2\njob a ranks=18446744073709551615 ppn=18446744073709551615",
                "hosts at most 16",
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
        assert!(canon.starts_with("# mcio.jobtrace.v1\nmachine small:8x2\nengine fifo\n"));
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
        assert!(a.jobs.iter().all(|j| j.nodes() <= 8));
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
