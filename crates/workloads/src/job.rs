//! One job description for every front end.
//!
//! The multi-tenant spec DSL (`mcio_bench::mtspec`), the job-trace DSL
//! (`mcio_sched::trace`) and `mcio_cli run` all describe a job with the
//! same 13 knobs and turn it into a request, a plan and a
//! [`TenantJob`] by the same recipe — the paper's §4 set-up applied to
//! every run. [`JobDesc`] owns the knobs, their `key=value` spelling
//! and defaults, the value checks, and that recipe; the front ends keep
//! only what is private to them (`node_offset`/`start`/`base`,
//! `arrival`/`prio`/`engine`, the machine and output flags).
//!
//! | key | meaning | default |
//! |---|---|---|
//! | `ranks` | MPI ranks in the job | 8 |
//! | `ppn` | ranks per node (block placement) | 2 |
//! | `workload` | `ior` \| `collperf` \| `checkpoint` | `ior` |
//! | `per_proc` | bytes per rank (ior, checkpoint) | 2M |
//! | `segments` | IOR segment count | 4 |
//! | `scale` | coll_perf dimension divisor (2048/scale per side) | 4 |
//! | `buffer` | nominal aggregator buffer; mean of the memory draw | 1M |
//! | `stddev` | relative stddev of the per-rank memory draw | 0.3 |
//! | `seed` | memory-draw seed | 42 |
//! | `strategy` | `mc` (`memory-conscious`) \| `two-phase` (`tp`) | `mc` |
//! | `rw` | `read` \| `write` | `write` |
//! | `pipeline` | `serial` \| `double` | `serial` |
//! | `exchange` | `direct` \| `two-level` | `direct` |

use crate::{science, CollPerf, Ior};
use mcio_core::exec_sim::{Exchange, Pipeline};
use mcio_core::hints::parse_bytes;
use mcio_core::{
    CollectiveConfig, CollectiveRequest, Extent, ProcMemory, ProcessMap, Rw, Strategy, TenantJob,
};
use std::fmt;
use std::str::FromStr;

/// Most aggregation rounds a job may ask for: its request's bytes over
/// its buffer. Past it a job is millions of tiny rounds — minutes of
/// planning and simulation for a schedule of milliseconds.
const MAX_ROUNDS: u128 = 1 << 20;

/// Workload shape of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Interleaved IOR (`per_proc` bytes per rank in `segments` blocks).
    Ior,
    /// ROMIO `coll_perf`: a 3-D block-distributed array, side
    /// `2048 / scale`.
    CollPerf,
    /// N-to-1 checkpoint with per-rank record sizes around `per_proc`.
    Checkpoint,
}

/// `job.workload == "ior"` compares against the canonical spelling.
impl PartialEq<&str> for Workload {
    fn eq(&self, other: &&str) -> bool {
        label(WORKLOADS, *self) == *other
    }
}

/// A closed `key=value` vocabulary. The first row naming a value is its
/// canonical spelling, so the parser and the renderer cannot drift.
type Vocab<T> = &'static [(&'static str, T)];

const WORKLOADS: Vocab<Workload> = &[
    ("ior", Workload::Ior),
    ("collperf", Workload::CollPerf),
    ("checkpoint", Workload::Checkpoint),
];
const STRATEGIES: Vocab<Strategy> = &[
    ("mc", Strategy::MemoryConscious),
    ("two-phase", Strategy::TwoPhase),
    ("memory-conscious", Strategy::MemoryConscious),
    ("tp", Strategy::TwoPhase),
];
const RWS: Vocab<Rw> = &[("read", Rw::Read), ("write", Rw::Write)];
const PIPELINES: Vocab<Pipeline> = &[
    ("serial", Pipeline::Serial),
    ("double", Pipeline::DoubleBuffered),
];
const EXCHANGES: Vocab<Exchange> = &[
    ("direct", Exchange::Direct),
    ("two-level", Exchange::TwoLevel),
];

fn word<T: Copy>(vocab: Vocab<T>, value: &str) -> Option<T> {
    vocab.iter().find(|(w, _)| *w == value).map(|&(_, v)| v)
}

fn label<T: Copy + PartialEq>(vocab: Vocab<T>, value: T) -> &'static str {
    let row = vocab.iter().find(|(_, v)| *v == value);
    row.expect("every variant has a vocabulary row").0
}

fn number<T: FromStr>(value: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    value.parse().map_err(|e: T::Err| e.to_string())
}

/// Everything that defines a job's collective, independent of where
/// and when it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDesc {
    /// Ranks in the job.
    pub ranks: usize,
    /// Ranks per node; `ranks.div_ceil(ppn)` is the node demand.
    pub ppn: usize,
    /// Workload shape.
    pub workload: Workload,
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
}

impl Default for JobDesc {
    /// The defaults of both DSLs (the table in the module docs).
    fn default() -> Self {
        JobDesc {
            ranks: 8,
            ppn: 2,
            workload: Workload::Ior,
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
        }
    }
}

impl JobDesc {
    /// Apply one `key=value` word. `Ok(false)` means the key is not a
    /// job-description key — the caller's private keys come next. The
    /// error carries no key prefix; callers add their own context.
    pub fn set(&mut self, key: &str, value: &str) -> Result<bool, String> {
        match key {
            "ranks" => self.ranks = number(value)?,
            "ppn" => self.ppn = number(value)?,
            "workload" => {
                self.workload = word(WORKLOADS, value).ok_or_else(|| {
                    format!("workload must be ior|collperf|checkpoint, got `{value}`")
                })?
            }
            "per_proc" => self.per_proc = parse_bytes(value)?,
            "segments" => self.segments = number(value)?,
            "scale" => self.scale = number(value)?,
            "buffer" => self.buffer = parse_bytes(value)?,
            "stddev" => self.stddev = number(value)?,
            "seed" => self.seed = number(value)?,
            "strategy" => {
                self.strategy = word(STRATEGIES, value)
                    .ok_or_else(|| format!("strategy must be two-phase|mc, got `{value}`"))?
            }
            "rw" => {
                self.rw = word(RWS, value)
                    .ok_or_else(|| format!("rw must be read|write, got `{value}`"))?
            }
            "pipeline" => {
                self.pipeline = word(PIPELINES, value)
                    .ok_or_else(|| format!("pipeline must be serial|double, got `{value}`"))?
            }
            "exchange" => {
                self.exchange = word(EXCHANGES, value)
                    .ok_or_else(|| format!("exchange must be direct|two-level, got `{value}`"))?
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Parse the rest of a `job` directive — a name, then `key=value`
    /// words — and validate the result. Keys that are not
    /// job-description keys go to `private`, which answers like
    /// [`set`](Self::set). Errors are one line and carry no line
    /// number; the DSL adds it.
    pub fn parse_line(
        rest: &str,
        mut private: impl FnMut(&str, &str) -> Result<bool, String>,
    ) -> Result<(&str, JobDesc), String> {
        let mut words = rest.split_whitespace();
        let name = words.next().ok_or("job directive needs a name")?;
        let mut desc = JobDesc::default();
        for word in words {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{word}`"))?;
            let known = match desc.set(key, value) {
                Ok(false) => private(key, value),
                own => own,
            };
            if !known.map_err(|e| format!("{key}: {e}"))? {
                return Err(format!("unknown job key `{key}`"));
            }
        }
        desc.validate()?;
        Ok((name, desc))
    }

    /// The machine-independent value checks every front end runs after
    /// its last [`set`](Self::set): what planning would otherwise panic
    /// on or silently absorb.
    pub fn validate(&self) -> Result<(), String> {
        if self.ranks == 0 || self.ppn == 0 {
            return Err("ranks and ppn must be positive".to_string());
        }
        if self.buffer == 0 {
            return Err("buffer must be positive".to_string());
        }
        if !self.stddev.is_finite() || self.stddev < 0.0 {
            return Err(format!(
                "stddev must be finite and non-negative, got `{}`",
                self.stddev
            ));
        }
        if self.workload == Workload::Checkpoint && self.per_proc == 0 {
            return Err("a checkpoint workload needs a positive per_proc".to_string());
        }
        let bytes = self.request_bytes();
        if bytes > MAX_ROUNDS * u128::from(self.buffer) {
            return Err(format!(
                "a request of {bytes} bytes over a buffer of {} bytes is more than \
                 {MAX_ROUNDS} rounds",
                self.buffer
            ));
        }
        Ok(())
    }

    /// The bytes the job's request moves, read off the knobs without
    /// building it: exact for IOR and coll_perf (whose blocks tile the
    /// array), `per_proc` per rank for a checkpoint (its records average
    /// that).
    fn request_bytes(&self) -> u128 {
        let ranks = self.ranks as u128;
        match self.workload {
            Workload::Ior => {
                let segments = self.segments.max(1);
                ranks * u128::from(self.per_proc / segments * segments)
            }
            // The array does not depend on the process grid.
            Workload::CollPerf => u128::from(CollPerf::paper(1, self.scale).file_bytes()),
            Workload::Checkpoint => ranks * u128::from(self.per_proc),
        }
    }

    /// The job's machine-node demand.
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.ppn)
    }

    /// One rank per core is all a machine of `nodes × cores` can host;
    /// this also bounds every per-rank allocation planning makes.
    pub fn check_hosts(&self, name: &str, nodes: usize, cores: usize) -> Result<(), String> {
        let hosts = nodes.saturating_mul(cores);
        if self.ranks > hosts {
            return Err(format!(
                "job `{name}` has {} ranks but the machine hosts at most {hosts}",
                self.ranks
            ));
        }
        Ok(())
    }

    /// The job's request, every extent shifted by `base` — the job's
    /// own region of the flat PFS offset space, its "file".
    pub fn request(&self, base: u64) -> CollectiveRequest {
        let req = match self.workload {
            Workload::Ior => Ior::paper(self.ranks, self.per_proc, self.segments).request(self.rw),
            Workload::CollPerf => CollPerf::paper(self.ranks, self.scale).request(self.rw),
            Workload::Checkpoint => {
                let sizes: Vec<u64> = (0..self.ranks as u64)
                    .map(|r| self.per_proc / 2 + (r * 977) % self.per_proc.max(1))
                    .collect();
                science::checkpoint(self.rw, 4096, &sizes)
            }
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

    /// Block placement, `ppn` ranks per node.
    pub fn map(&self) -> ProcessMap {
        ProcessMap::block_ppn(self.ranks, self.ppn)
    }

    /// The per-rank memory environment: a normal draw around `buffer`.
    pub fn memory(&self) -> ProcMemory {
        ProcMemory::normal(self.ranks, self.buffer, self.stddev, self.seed)
    }

    /// The paper recipe ([`CollectiveConfig::paper`]) for `req` on this
    /// job's nodes.
    pub fn config(&self, req: &CollectiveRequest) -> CollectiveConfig {
        CollectiveConfig::paper(req.total_bytes(), self.nodes(), self.buffer)
    }

    /// Plan the job on its file region at `base` into a [`TenantJob`]
    /// at node offset 0, start 0 — where and when it runs is the
    /// caller's to add.
    pub fn tenant(&self, name: &str, base: u64) -> TenantJob {
        let req = self.request(base);
        let (map, mem, cfg) = (self.map(), self.memory(), self.config(&req));
        let plan = self.strategy.plan(&req, &map, &mem, &cfg);
        TenantJob::new(name, plan, map)
            .pipeline(self.pipeline)
            .exchange(self.exchange)
    }
}

/// The canonical `key=value` rendering: fixed key order, bare bytes,
/// `{:.6}` floats. Feeding each word back through [`JobDesc::set`]
/// rebuilds the description.
impl fmt::Display for JobDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ranks={} ppn={} workload={} per_proc={} segments={} scale={} buffer={} \
             stddev={:.6} seed={} strategy={} rw={} pipeline={} exchange={}",
            self.ranks,
            self.ppn,
            label(WORKLOADS, self.workload),
            self.per_proc,
            self.segments,
            self.scale,
            self.buffer,
            self.stddev,
            self.seed,
            label(STRATEGIES, self.strategy),
            label(RWS, self.rw),
            label(PIPELINES, self.pipeline),
            label(EXCHANGES, self.exchange),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_rendering_feeds_back_through_set() {
        let mut job = JobDesc::default();
        for word in "ranks=12 ppn=3 workload=checkpoint per_proc=96K stddev=0.125 \
                     strategy=tp rw=read pipeline=double exchange=two-level"
            .split_whitespace()
        {
            let (k, v) = word.split_once('=').unwrap();
            assert_eq!(job.set(k, v), Ok(true), "{word}");
        }
        job.validate().expect("valid");
        let text = job.to_string();
        assert!(text.contains("strategy=two-phase rw=read"), "{text}");
        let mut back = JobDesc::default();
        for word in text.split_whitespace() {
            let (k, v) = word.split_once('=').unwrap();
            assert_eq!(back.set(k, v), Ok(true), "{word}");
        }
        assert_eq!(back, job);
    }

    #[test]
    fn a_request_of_more_than_a_million_rounds_is_rejected() {
        let job = |words: &str| {
            let mut job = JobDesc::default();
            for word in words.split_whitespace() {
                let (k, v) = word.split_once('=').unwrap();
                assert_eq!(job.set(k, v), Ok(true), "{word}");
            }
            job.validate()
        };
        let err = job("ranks=8 ppn=2 segments=1 buffer=1").unwrap_err();
        assert!(
            err.contains("16777216 bytes") && err.contains("buffer of 1 bytes"),
            "{err}"
        );
        job("ranks=8 ppn=2 per_proc=64K segments=1 buffer=1").expect("2^19 rounds");
        job("ranks=1 ppn=1 per_proc=1M segments=1 buffer=1").expect("2^20 rounds");
        job("ranks=1 ppn=1 per_proc=1048577 segments=1 buffer=1").unwrap_err();
        // A 512³ array of 4-byte elements is 2^29 bytes, at any rank count.
        job("workload=collperf ranks=8 scale=4 buffer=512").expect("2^20 rounds");
        job("workload=collperf ranks=8 scale=4 buffer=511").unwrap_err();
        job("workload=checkpoint ranks=8 per_proc=2M buffer=8").unwrap_err();
    }

    #[test]
    fn foreign_keys_are_left_to_the_caller() {
        let mut job = JobDesc::default();
        for key in ["node_offset", "start", "base", "arrival", "prio", "engine"] {
            assert_eq!(job.set(key, "1"), Ok(false), "{key}");
        }
        assert_eq!(job, JobDesc::default());
    }

    #[test]
    fn tenant_lands_on_its_file_region() {
        let job = JobDesc {
            ranks: 4,
            per_proc: 64 << 10,
            segments: 1,
            buffer: 64 << 10,
            ..JobDesc::default()
        };
        let t = job.tenant("t", 1 << 30);
        assert_eq!((t.label.as_str(), t.node_offset), ("t", 0));
        assert_eq!(t.plan.check(&job.request(1 << 30)), Ok(()));
        assert!(job.request(1 << 30).hull().offset >= 1 << 30);
    }
}
