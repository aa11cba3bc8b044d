//! # mcio-faults — seeded, byte-deterministic fault plans
//!
//! A [`FaultSpec`] describes everything hostile that happens during one
//! simulated collective: OSTs that slow down or stall for a window of
//! simulated time, a transient per-request failure probability, sudden
//! memory-budget shocks on a node, and aggregator-host crashes. Specs are
//! parsed from a small line-based DSL (see [`FaultSpec::parse`]) and are
//! **deterministic by construction**: every random-looking decision (does
//! request #17's third attempt fail? how much jitter on this backoff?) is
//! a pure hash of the spec seed and the decision's coordinates, so two
//! runs with the same spec produce bit-identical schedules, traces, and
//! bytes.
//!
//! The spec itself knows nothing about plans or executors; it only
//! answers questions:
//!
//! * [`FaultSpec::ost_windows`] — service perturbation windows for one
//!   OST, in the shape `mcio-des` resources consume.
//! * [`FaultSpec::transient`] — the `(probability, stream-seed)` of the
//!   transient request-failure process, if any.
//! * [`FaultSpec::mem_shocks`] / [`FaultSpec::agg_crashes`] — node-level
//!   events the execution layer reacts to (re-rounding, failover).
//! * [`FaultSampler`] — the shared deterministic coin: per-(request,
//!   attempt) failure draws and per-attempt backoff jitter.

#![warn(missing_docs)]

use mcio_des::resource::ServiceWindow;
use mcio_des::{SimDuration, SimTime};
use std::fmt;

/// One injected fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// OST `ost` serves at `1/factor` of its nominal rate in `[from, until)`.
    OstSlow {
        /// Target OST index.
        ost: usize,
        /// Slowdown factor (≥ 1.0); 4.0 means a quarter of nominal rate.
        factor: f64,
        /// Window start (simulated time).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// OST `ost` makes no progress at all in `[from, until)`.
    OstStall {
        /// Target OST index.
        ost: usize,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Every OST request fails independently with probability `p`,
    /// sampled deterministically from `seed`.
    ReqTransientFail {
        /// Per-attempt failure probability in `[0, 1)`.
        p: f64,
        /// Stream seed for the failure/jitter draws.
        seed: u64,
    },
    /// Node `node` loses `drop_frac` of its aggregation-buffer budget at
    /// time `at` (graceful-degradation trigger).
    MemShock {
        /// Affected node index.
        node: usize,
        /// Fraction of the budget lost, in `(0, 1]`.
        drop_frac: f64,
        /// Shock instant.
        at: SimTime,
    },
    /// The aggregator processes on node `host` crash at time `at`; any
    /// collective round not yet finished must fail over.
    AggCrash {
        /// Crashed host (node index).
        host: usize,
        /// Crash instant.
        at: SimTime,
    },
}

/// Bounded-retry parameters for transient OST failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per request (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before retry `k` is `base · 2^(k-1)`, capped at `cap`.
    pub base_backoff: SimDuration,
    /// Upper bound on a single backoff wait.
    pub cap_backoff: SimDuration,
    /// Symmetric jitter applied to each backoff, as a fraction of it
    /// (`0.25` → ±25%), drawn deterministically from the spec seed.
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_micros(50),
            cap_backoff: SimDuration::from_millis(10),
            jitter_frac: 0.25,
        }
    }
}

impl RetryPolicy {
    /// The backoff to wait before attempt `attempt` (2-based: the wait
    /// preceding the second try is `backoff(2)`), exponential with the
    /// configured base/cap and seeded jitter for request `req`.
    pub fn backoff(&self, sampler: &FaultSampler, req: u64, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(2).min(32);
        let raw = self
            .base_backoff
            .as_nanos()
            .saturating_mul(1u64 << exp)
            .min(self.cap_backoff.as_nanos());
        // Jitter in [-jitter_frac, +jitter_frac), deterministic in
        // (seed, req, attempt).
        let u = sampler.unit(req, attempt as u64, 0xBACC0FF);
        let jitter = (u * 2.0 - 1.0) * self.jitter_frac.clamp(0.0, 1.0);
        let ns = (raw as f64 * (1.0 + jitter)).max(0.0) as u64;
        SimDuration::from_nanos(ns)
    }
}

/// A complete, seeded fault plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Master seed; every stochastic decision hashes this.
    pub seed: u64,
    /// Retry/backoff parameters for transient OST failures.
    pub retry: RetryPolicy,
    /// The injected events, in spec order.
    pub events: Vec<FaultEvent>,
}

impl FaultSpec {
    /// A spec with no events (everything healthy).
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// True when the spec injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parse the fault DSL. One directive per line; `#` starts a
    /// comment; blank lines are ignored. Durations take `ns`/`us`/`ms`/`s`
    /// suffixes (default `ns`); windows are written `t0..t1`.
    ///
    /// ```text
    /// # quarter-speed OST 2 between 10 ms and 50 ms
    /// seed 42
    /// retry(max_attempts=5, base=100us, cap=10ms, jitter=0.25)
    /// ost_slow(2, 4.0, 10ms..50ms)
    /// ost_stall(1, 5ms..8ms)
    /// req_transient_fail(0.2, 7)
    /// mem_shock(3, 0.5, 12ms)
    /// agg_crash(1, 6ms)
    /// ```
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for (line_no, line) in directive_lines(text) {
            parse_line(line, &mut spec).map_err(|e| format!("line {line_no}: {e}"))?;
        }
        // Cross-line validation: overlapping stall windows on one OST
        // are ambiguous (the engine applies windows in order, and a
        // stalled OST cannot stall "more") — reject them outright.
        let stalls: Vec<(usize, SimTime, SimTime)> = spec
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::OstStall { ost, from, until } => Some((ost, from, until)),
                _ => None,
            })
            .collect();
        for (i, &(ost, from, until)) in stalls.iter().enumerate() {
            for &(o2, f2, u2) in &stalls[i + 1..] {
                if ost == o2 && from < u2 && f2 < until {
                    return Err(format!("overlapping ost_stall windows on ost {ost}"));
                }
            }
        }
        Ok(spec)
    }

    /// Validate the spec against a machine with `nosts` OSTs and
    /// `nnodes` nodes: every `ost_slow`/`ost_stall` and every
    /// `agg_crash`/`mem_shock` target must exist. The parser cannot know
    /// the machine, so callers that do (the CLI, the mtspec loader) run
    /// this once the cluster spec is fixed.
    pub fn validate_targets(&self, nosts: usize, nnodes: usize) -> Result<(), String> {
        for e in &self.events {
            match *e {
                FaultEvent::OstSlow { ost, .. } | FaultEvent::OstStall { ost, .. }
                    if ost >= nosts =>
                {
                    return Err(format!("ost {ost} out of range: machine has {nosts} OSTs"));
                }
                FaultEvent::MemShock { node, .. } | FaultEvent::AggCrash { host: node, .. }
                    if node >= nnodes =>
                {
                    return Err(format!(
                        "node {node} out of range: machine has {nnodes} nodes"
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Service perturbation windows for OST `ost`, sorted by start, in
    /// the shape [`mcio_des::Simulation::set_service_windows`] takes.
    /// Stalls win over slowdowns where windows overlap (the engine
    /// applies windows in order, so we emit stalls last — but
    /// non-overlapping specs are the intended use).
    pub fn ost_windows(&self, ost: usize) -> Vec<ServiceWindow> {
        let mut out: Vec<ServiceWindow> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::OstSlow {
                    ost: o,
                    factor,
                    from,
                    until,
                } if o == ost && until > from => Some(ServiceWindow {
                    start: from,
                    end: until,
                    rate: if factor <= 1.0 { 1.0 } else { 1.0 / factor },
                }),
                FaultEvent::OstStall {
                    ost: o,
                    from,
                    until,
                } if o == ost && until > from => Some(ServiceWindow {
                    start: from,
                    end: until,
                    rate: 0.0,
                }),
                _ => None,
            })
            .collect();
        out.sort_by_key(|w| (w.start, w.end));
        out
    }

    /// The transient-failure process `(p, stream seed)`, if configured.
    /// When several `req_transient_fail` lines appear, the last wins.
    pub fn transient(&self) -> Option<(f64, u64)> {
        self.events.iter().rev().find_map(|e| match *e {
            FaultEvent::ReqTransientFail { p, seed } => Some((p, seed)),
            _ => None,
        })
    }

    /// All memory shocks, in spec order.
    pub fn mem_shocks(&self) -> Vec<(usize, f64, SimTime)> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::MemShock {
                    node,
                    drop_frac,
                    at,
                } => Some((node, drop_frac, at)),
                _ => None,
            })
            .collect()
    }

    /// All aggregator crashes, in spec order.
    pub fn agg_crashes(&self) -> Vec<(usize, SimTime)> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::AggCrash { host, at } => Some((host, at)),
                _ => None,
            })
            .collect()
    }

    /// The deterministic coin for this spec's transient stream: seeded
    /// from the `req_transient_fail` stream seed mixed with the master
    /// seed (so changing either changes every draw).
    pub fn sampler(&self) -> FaultSampler {
        let stream = self.transient().map(|(_, s)| s).unwrap_or(0);
        FaultSampler::new(mix64(self.seed ^ mix64(stream)))
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::OstSlow {
                ost,
                factor,
                from,
                until,
            } => write!(
                f,
                "ost_slow({ost}, {factor}, {}ns..{}ns)",
                from.as_nanos(),
                until.as_nanos()
            ),
            FaultEvent::OstStall { ost, from, until } => write!(
                f,
                "ost_stall({ost}, {}ns..{}ns)",
                from.as_nanos(),
                until.as_nanos()
            ),
            FaultEvent::ReqTransientFail { p, seed } => {
                write!(f, "req_transient_fail({p}, {seed})")
            }
            FaultEvent::MemShock {
                node,
                drop_frac,
                at,
            } => write!(f, "mem_shock({node}, {drop_frac}, {}ns)", at.as_nanos()),
            FaultEvent::AggCrash { host, at } => {
                write!(f, "agg_crash({host}, {}ns)", at.as_nanos())
            }
        }
    }
}

fn parse_line(line: &str, spec: &mut FaultSpec) -> Result<(), String> {
    if let Some(rest) = line.strip_prefix("seed ") {
        spec.seed = rest
            .trim()
            .parse()
            .map_err(|_| format!("bad seed `{}`", rest.trim()))?;
        return Ok(());
    }
    let (name, args) = split_call(line)?;
    match name {
        "retry" => parse_retry(&args, spec),
        "ost_slow" => {
            expect_args(name, &args, 3)?;
            let (from, until) = parse_window(&args[2])?;
            let factor: f64 = args[1]
                .parse()
                .map_err(|_| format!("bad factor `{}`", args[1]))?;
            if factor < 1.0 || !factor.is_finite() {
                return Err(format!("ost_slow factor must be ≥ 1, got `{}`", args[1]));
            }
            spec.events.push(FaultEvent::OstSlow {
                ost: parse_index("ost", &args[0])?,
                factor,
                from,
                until,
            });
            Ok(())
        }
        "ost_stall" => {
            expect_args(name, &args, 2)?;
            let (from, until) = parse_window(&args[1])?;
            spec.events.push(FaultEvent::OstStall {
                ost: parse_index("ost", &args[0])?,
                from,
                until,
            });
            Ok(())
        }
        "req_transient_fail" => {
            expect_args(name, &args, 2)?;
            let p: f64 = args[0]
                .parse()
                .map_err(|_| format!("bad probability `{}`", args[0]))?;
            if !(0.0..1.0).contains(&p) {
                return Err(format!(
                    "req_transient_fail probability must be in [0, 1), got `{}`",
                    args[0]
                ));
            }
            spec.events.push(FaultEvent::ReqTransientFail {
                p,
                seed: args[1]
                    .parse()
                    .map_err(|_| format!("bad seed `{}`", args[1]))?,
            });
            Ok(())
        }
        "mem_shock" => {
            expect_args(name, &args, 3)?;
            let drop_frac: f64 = args[1]
                .parse()
                .map_err(|_| format!("bad drop fraction `{}`", args[1]))?;
            if !(drop_frac > 0.0 && drop_frac <= 1.0) {
                return Err(format!(
                    "mem_shock drop fraction must be in (0, 1], got `{}`",
                    args[1]
                ));
            }
            spec.events.push(FaultEvent::MemShock {
                node: parse_index("node", &args[0])?,
                drop_frac,
                at: SimTime::ZERO + parse_duration(&args[2])?,
            });
            Ok(())
        }
        "agg_crash" => {
            expect_args(name, &args, 2)?;
            spec.events.push(FaultEvent::AggCrash {
                host: parse_index("host", &args[0])?,
                at: SimTime::ZERO + parse_duration(&args[1])?,
            });
            Ok(())
        }
        other => Err(format!("unknown fault directive `{other}`")),
    }
}

fn split_call(line: &str) -> Result<(&str, Vec<String>), String> {
    let open = line
        .find('(')
        .ok_or_else(|| format!("expected `name(args...)`, got `{line}`"))?;
    if !line.ends_with(')') {
        return Err(format!("missing closing `)` in `{line}`"));
    }
    let name = line[..open].trim();
    let inner = &line[open + 1..line.len() - 1];
    let args = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner.split(',').map(|a| a.trim().to_string()).collect()
    };
    Ok((name, args))
}

fn expect_args(name: &str, args: &[String], n: usize) -> Result<(), String> {
    if args.len() == n {
        Ok(())
    } else {
        Err(format!("{name} takes {n} arguments, got {}", args.len()))
    }
}

fn parse_index(what: &str, s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad {what} index `{s}`"))
}

fn parse_retry(args: &[String], spec: &mut FaultSpec) -> Result<(), String> {
    for a in args {
        let (k, v) = a
            .split_once('=')
            .ok_or_else(|| format!("retry expects key=value pairs, got `{a}`"))?;
        let (k, v) = (k.trim(), v.trim());
        match k {
            "max_attempts" => {
                let n: u32 = v.parse().map_err(|_| format!("bad max_attempts `{v}`"))?;
                if n == 0 {
                    return Err("max_attempts must be at least 1".into());
                }
                spec.retry.max_attempts = n;
            }
            "base" => spec.retry.base_backoff = parse_duration(v)?,
            "cap" => spec.retry.cap_backoff = parse_duration(v)?,
            "jitter" => {
                let j: f64 = v.parse().map_err(|_| format!("bad jitter `{v}`"))?;
                if !(0.0..=1.0).contains(&j) {
                    return Err(format!("jitter must be in [0, 1], got `{v}`"));
                }
                spec.retry.jitter_frac = j;
            }
            other => return Err(format!("unknown retry key `{other}`")),
        }
    }
    Ok(())
}

/// The directive lines of a DSL text (fault plan, mtspec, jobtrace):
/// each line cut at the first `#` and trimmed, blank ones skipped,
/// paired with its 1-based line number in `text`.
pub fn directive_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = raw.split_once('#').map_or(raw, |(code, _)| code).trim();
        (!line.is_empty()).then_some((i + 1, line))
    })
}

/// Parse a duration literal: integer (or decimal) directly followed by
/// an optional `ns`/`us`/`ms`/`s` suffix; bare numbers are nanoseconds.
/// The one duration grammar of the fault DSL, mtspec `start=` and
/// jobtrace `arrival=`.
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        (s, 1.0)
    };
    let v: f64 = num.parse().map_err(|_| format!("bad duration `{s}`"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("duration must be non-negative, got `{s}`"));
    }
    let ns = (v * mult).round();
    // `u64::MAX as f64` rounds up to 2^64, the first value that does not fit.
    if ns >= u64::MAX as f64 {
        return Err(format!("duration `{s}` does not fit 64-bit nanoseconds"));
    }
    Ok(SimDuration::from_nanos(ns as u64))
}

fn parse_window(s: &str) -> Result<(SimTime, SimTime), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("expected a window `t0..t1`, got `{s}`"))?;
    let from = SimTime::ZERO + parse_duration(a)?;
    let until = SimTime::ZERO + parse_duration(b)?;
    if until <= from {
        return Err(format!("window `{s}` is empty or reversed"));
    }
    Ok((from, until))
}

/// The splitmix64 finalizer: a strong, cheap 64-bit mix.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic coin shared by failure sampling and backoff jitter:
/// every draw is a pure hash of `(seed, a, b, tag)`, so draws are
/// independent of call order and identical across runs.
#[derive(Debug, Clone, Copy)]
pub struct FaultSampler {
    seed: u64,
}

impl FaultSampler {
    /// Build a sampler over a (pre-mixed) seed.
    pub fn new(seed: u64) -> Self {
        FaultSampler { seed }
    }

    /// Uniform draw in `[0, 1)` at coordinates `(a, b, tag)`.
    pub fn unit(&self, a: u64, b: u64, tag: u64) -> f64 {
        let h = mix64(self.seed ^ mix64(a ^ mix64(b ^ mix64(tag))));
        // 53 high bits → exact double in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Does attempt `attempt` (1-based) of request `req` fail, given the
    /// per-attempt failure probability `p`?
    pub fn attempt_fails(&self, req: u64, attempt: u32, p: f64) -> bool {
        self.unit(req, attempt as u64, 0xFA11) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_dsl() {
        let text = "\
# a hostile afternoon
seed 42
retry(max_attempts=5, base=100us, cap=10ms, jitter=0.5)
ost_slow(2, 4.0, 10ms..50ms)
ost_stall(1, 5ms..8ms)
req_transient_fail(0.2, 7)
mem_shock(3, 0.5, 12ms)
agg_crash(1, 6ms)
";
        let spec = FaultSpec::parse(text).unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.retry.max_attempts, 5);
        assert_eq!(spec.retry.base_backoff, SimDuration::from_micros(100));
        assert_eq!(spec.retry.cap_backoff, SimDuration::from_millis(10));
        assert_eq!(spec.events.len(), 5);
        assert_eq!(spec.transient(), Some((0.2, 7)));
        assert_eq!(
            spec.agg_crashes(),
            vec![(1, SimTime::from_nanos(6_000_000))]
        );
        assert_eq!(spec.mem_shocks().len(), 1);

        let w = spec.ost_windows(2);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].start, SimTime::from_nanos(10_000_000));
        assert_eq!(w[0].rate, 0.25);
        let st = spec.ost_windows(1);
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].rate, 0.0);
        assert!(spec.ost_windows(0).is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "frobnicate(1)",
            "ost_slow(1, 0.5, 0..1ms)",   // factor < 1
            "ost_slow(1, 2.0, 5ms..5ms)", // empty window
            "ost_stall(x, 0..1ms)",       // bad index
            "req_transient_fail(1.5, 3)", // p out of range
            "mem_shock(0, 0.0, 1ms)",     // zero drop
            "retry(max_attempts=0)",      // zero attempts
            "agg_crash(0)",               // arity
            "seed banana",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn rejects_overlapping_stalls_on_one_ost() {
        let err = FaultSpec::parse("ost_stall(1, 0ms..5ms)\nost_stall(1, 3ms..8ms)").unwrap_err();
        assert_eq!(err, "overlapping ost_stall windows on ost 1");
        // Distinct OSTs, or disjoint (even touching) windows, are fine;
        // a stall overlapping a *slowdown* is allowed (stall wins).
        FaultSpec::parse("ost_stall(1, 0ms..5ms)\nost_stall(2, 3ms..8ms)").unwrap();
        FaultSpec::parse("ost_stall(1, 0ms..5ms)\nost_stall(1, 5ms..8ms)").unwrap();
        FaultSpec::parse("ost_slow(1, 2.0, 0ms..5ms)\nost_stall(1, 3ms..8ms)").unwrap();
    }

    #[test]
    fn validate_targets_checks_osts_and_nodes_against_the_machine() {
        let spec = FaultSpec::parse("ost_slow(3, 2.0, 0ms..5ms)\nmem_shock(9, 0.5, 1ms)").unwrap();
        spec.validate_targets(4, 10).unwrap();
        let err = spec.validate_targets(2, 10).unwrap_err();
        assert_eq!(err, "ost 3 out of range: machine has 2 OSTs");
        let err = spec.validate_targets(4, 9).unwrap_err();
        assert_eq!(err, "node 9 out of range: machine has 9 nodes");
        let crash = FaultSpec::parse("agg_crash(7, 1ms)").unwrap();
        crash.validate_targets(1, 8).unwrap();
        let err = crash.validate_targets(1, 7).unwrap_err();
        assert_eq!(err, "node 7 out of range: machine has 7 nodes");
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let spec = FaultSpec::parse("\n# nothing\n   \nagg_crash(0, 1ms) # boom\n").unwrap();
        assert_eq!(spec.events.len(), 1);
    }

    #[test]
    fn sampler_is_deterministic_and_order_free() {
        let spec = FaultSpec::parse("seed 9\nreq_transient_fail(0.3, 11)").unwrap();
        let s1 = spec.sampler();
        let s2 = spec.sampler();
        let a: Vec<bool> = (0..64).map(|r| s1.attempt_fails(r, 1, 0.3)).collect();
        let b: Vec<bool> = (0..64).rev().map(|r| s2.attempt_fails(r, 1, 0.3)).collect();
        let b: Vec<bool> = b.into_iter().rev().collect();
        assert_eq!(a, b);
        // Roughly p of the draws fail (loose sanity band).
        let frac = a.iter().filter(|&&f| f).count() as f64 / 64.0;
        assert!(frac > 0.05 && frac < 0.7, "frac {frac}");
    }

    #[test]
    fn different_seeds_change_the_draws() {
        let a = FaultSpec::parse("seed 1\nreq_transient_fail(0.5, 2)").unwrap();
        let b = FaultSpec::parse("seed 3\nreq_transient_fail(0.5, 2)").unwrap();
        let da: Vec<bool> = (0..256)
            .map(|r| a.sampler().attempt_fails(r, 1, 0.5))
            .collect();
        let db: Vec<bool> = (0..256)
            .map(|r| b.sampler().attempt_fails(r, 1, 0.5))
            .collect();
        assert_ne!(da, db);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let spec =
            FaultSpec::parse("retry(max_attempts=8, base=100us, cap=1ms, jitter=0.0)").unwrap();
        let s = spec.sampler();
        let b2 = spec.retry.backoff(&s, 0, 2).as_nanos();
        let b3 = spec.retry.backoff(&s, 0, 3).as_nanos();
        let b8 = spec.retry.backoff(&s, 0, 8).as_nanos();
        assert_eq!(b2, 100_000);
        assert_eq!(b3, 200_000);
        assert_eq!(b8, 1_000_000); // capped
    }

    #[test]
    fn jitter_is_bounded_and_seeded() {
        let spec = FaultSpec::parse("seed 5\nretry(base=100us, cap=100ms, jitter=0.25)").unwrap();
        let s = spec.sampler();
        for req in 0..32 {
            let b = spec.retry.backoff(&s, req, 2).as_nanos();
            assert!((75_000..=125_000).contains(&b), "backoff {b}");
            assert_eq!(b, spec.retry.backoff(&s, req, 2).as_nanos());
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        let text = "seed 7\nost_slow(1, 2.0, 1000ns..2000ns)\nagg_crash(0, 500ns)";
        let spec = FaultSpec::parse(text).unwrap();
        let rendered: String = spec.events.iter().map(|e| format!("{e}\n")).collect();
        let reparsed = FaultSpec::parse(&rendered).unwrap();
        assert_eq!(spec.events, reparsed.events);
    }
}
