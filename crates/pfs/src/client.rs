//! The PFS client: lowers read/write requests onto DES activities.
//!
//! A request from a compute node is modeled as a small activity subgraph:
//!
//! ```text
//! write:  deps → [membus + nic_tx egress, full payload]
//!              → one queued job per touched OST (overhead + bytes/bw)
//!              → join
//! read:   deps → [rpc egress, header only]
//!              → one queued job per touched OST
//!              → [nic_rx + membus ingress, full payload] (the join)
//! ```
//!
//! OSTs are FIFO servers, so concurrent requests to the same OST
//! serialize while requests to distinct OSTs proceed in parallel — the
//! striping parallelism that makes one large contiguous request faster
//! than many scattered small ones.

use crate::extent::Extent;
use crate::layout::{OstId, StripeLayout};
use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::{Fabric, NodeId};
use mcio_des::{
    arg, ActivityId, Bandwidth, Label, OnlineStats, Prefix, ResourceId, SimDuration, SimTime,
    Simulation, Stage, Tpl,
};
use mcio_faults::{FaultSampler, FaultSpec, RetryPolicy};
use mcio_obs::Registry;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rw {
    /// Data flows storage → compute.
    Read,
    /// Data flows compute → storage.
    Write,
}

impl Rw {
    /// Human-readable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Rw::Read => "read",
            Rw::Write => "write",
        }
    }

    /// Order `pair` along this direction's data flow. Everything a
    /// collective does sits on one chain of hops — requesting rank,
    /// aggregator, storage — that a write walks toward storage and a
    /// read walks back, so a pair written in *write order* (the
    /// requester's side first, the storage side second) comes back
    /// unchanged for a write and swapped for a read: the phases
    /// `(exchange, file access)` in execution order, a message's
    /// `(requester, aggregator)` as `(src, dst)`. Its own inverse, so
    /// the same call turns `(src, dst)` back into
    /// `(requester, aggregator)`.
    pub fn flow<T>(self, pair: (T, T)) -> (T, T) {
        match self {
            Rw::Write => pair,
            Rw::Read => (pair.1, pair.0),
        }
    }
}

/// Retry history of one striped request piece that hit at least one
/// injected transient failure. Emitted by [`Pfs::take_retry_marks`] so
/// the execution layer can turn the DES service records of `activity`
/// into retry/backoff trace spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryMark {
    /// The piece activity whose stages encode the retry chain: one
    /// overhead-only OST stage per failed attempt (each followed by its
    /// backoff wait), then the successful full-service attempt.
    pub activity: ActivityId,
    /// OST the piece targets.
    pub ost: usize,
    /// Total attempts issued (≥ 2; the last one carries the payload).
    pub attempts: u32,
    /// True when even the last allowed attempt was drawn as a failure;
    /// the request still completes (the simulation must make progress)
    /// but the exhaustion is counted and reported.
    pub exhausted: bool,
    /// Total simulated backoff waited across the chain, nanoseconds.
    pub backoff_ns: u64,
}

/// Deterministic transient-failure state: the per-attempt coin, the
/// retry policy, a request counter (requests are numbered in submission
/// order, which the callers construct deterministically), and the marks
/// accumulated for post-run trace emission.
#[derive(Debug, Clone)]
struct FaultCtx {
    p: f64,
    sampler: FaultSampler,
    retry: RetryPolicy,
    counter: Cell<u64>,
    marks: RefCell<Vec<RetryMark>>,
    /// Scratch for the stages of the retry chain being built.
    chain: RefCell<Vec<Stage>>,
}

/// Whose request a [`Pfs::submit`] is: a job's label prefix and the
/// submitting rank. The request's activities are labelled
/// `{prefix}io.rank{rank}.` then `egress` / `done` (write), `rpc` /
/// `ingress` (read), `ost{k}` per piece, or `empty`.
#[derive(Debug, Clone, Copy)]
pub struct Requester {
    /// The job's label prefix ([`Prefix::NONE`] for a job on its own).
    pub prefix: Prefix,
    /// The submitting rank.
    pub rank: u32,
}

/// The label templates of a request's activities, interned in the
/// simulation the file system was built in.
#[derive(Debug, Clone, Copy)]
struct RequestNames {
    empty: Tpl,
    egress: Tpl,
    done: Tpl,
    rpc: Tpl,
    ingress: Tpl,
    piece: Tpl,
}

/// DES handles and cost parameters for the parallel file system. Its
/// handles are those of the simulation it was built in: it submits into
/// that one or a fork of it.
#[derive(Debug, Clone)]
pub struct Pfs {
    layout: StripeLayout,
    osts: Vec<ResourceId>,
    names: RequestNames,
    read_bw: f64,
    write_bw: f64,
    request_overhead: SimDuration,
    registry: Option<Arc<Registry>>,
    faults: Option<FaultCtx>,
    /// Scratch for the per-OST pieces of the request being submitted.
    pieces: RefCell<Vec<(OstId, u64)>>,
}

impl Pfs {
    /// Register one FIFO server per OST of `spec` in `sim`, striped with
    /// the paper's Lustre default (1 MB round-robin over all servers).
    pub fn build(sim: &mut Simulation, spec: &ClusterSpec) -> Self {
        Self::build_with_layout(sim, spec, StripeLayout::lustre_default(spec.io_servers))
    }

    /// Register OST servers with an explicit stripe layout.
    ///
    /// # Panics
    /// Panics if the layout's stripe count differs from `spec.io_servers`.
    pub fn build_with_layout(
        sim: &mut Simulation,
        spec: &ClusterSpec,
        layout: StripeLayout,
    ) -> Self {
        assert_eq!(
            layout.stripe_count(),
            spec.io_servers,
            "layout stripe count must equal the number of I/O servers"
        );
        let ost = sim.template("ost{}");
        let osts = (0..spec.io_servers)
            // OST service time is charged explicitly per job (it depends on
            // the direction), so the resource itself is pure-overhead; the
            // spec's `ost_concurrency` gives each OST that many parallel
            // service slots.
            .map(|i| {
                sim.add_resource_with_capacity(
                    Label::new(Prefix::NONE, ost, [arg(i), 0]),
                    Bandwidth::infinite(),
                    spec.ost_concurrency.max(1),
                )
            })
            .collect();
        let names = RequestNames {
            empty: sim.template("io.rank{}.empty"),
            egress: sim.template("io.rank{}.egress"),
            done: sim.template("io.rank{}.done"),
            rpc: sim.template("io.rank{}.rpc"),
            ingress: sim.template("io.rank{}.ingress"),
            piece: sim.template("io.rank{}.ost{}"),
        };
        Pfs {
            layout,
            osts,
            names,
            read_bw: spec.ost_read_bandwidth,
            write_bw: spec.ost_write_bandwidth,
            request_overhead: spec.ost_request_overhead,
            registry: None,
            faults: None,
            pieces: RefCell::new(Vec::new()),
        }
    }

    /// Inject a fault plan: translates `ost_slow`/`ost_stall` windows
    /// into DES service perturbations on the OST resources (events
    /// naming OSTs this file system does not have are ignored) and arms
    /// the deterministic transient-failure process, after which every
    /// [`Pfs::submit`] piece that draws a failure becomes a bounded
    /// retry chain with seeded exponential backoff.
    pub fn apply_faults(&mut self, sim: &mut Simulation, spec: &FaultSpec) {
        for (i, &rid) in self.osts.iter().enumerate() {
            let windows = spec.ost_windows(i);
            if !windows.is_empty() {
                sim.set_service_windows(rid, &windows);
            }
        }
        if let Some((p, _)) = spec.transient() {
            self.faults = Some(FaultCtx {
                p,
                sampler: spec.sampler(),
                retry: spec.retry,
                counter: Cell::new(0),
                marks: RefCell::new(Vec::new()),
                chain: RefCell::new(Vec::new()),
            });
        }
    }

    /// Drain the retry marks accumulated since fault injection was
    /// armed (submission order).
    pub fn take_retry_marks(&self) -> Vec<RetryMark> {
        match &self.faults {
            Some(ctx) => std::mem::take(&mut ctx.marks.borrow_mut()),
            None => Vec::new(),
        }
    }

    /// Attach a metrics registry. Every subsequent [`Pfs::submit`] records
    /// request counts, request-size histograms (overall by direction and
    /// per OST), and per-OST byte counters into it.
    pub fn set_registry(&mut self, registry: Arc<Registry>) {
        self.registry = Some(registry);
    }

    /// Recompute the `pfs.ost.imbalance_cv` gauge from the per-OST byte
    /// counters accumulated so far. Call after submitting the workload
    /// (counters keep accumulating, so it can be refreshed at any point).
    /// No-op when no registry is attached.
    pub fn record_imbalance(&self) {
        let Some(reg) = &self.registry else { return };
        let stats: OnlineStats = (0..self.osts.len())
            .map(|i| {
                let ost = i.to_string();
                reg.counter_value("pfs.ost.bytes", &[("ost", &ost)]) as f64
            })
            .collect();
        reg.set_gauge("pfs.ost.imbalance_cv", &[], stats.cv());
    }

    /// The stripe layout in force.
    pub fn layout(&self) -> StripeLayout {
        self.layout
    }

    /// The DES resource of an OST (for usage queries).
    pub fn ost_resource(&self, ost: OstId) -> ResourceId {
        self.osts[ost.0]
    }

    /// The OST `resource` is, if it is one: the OSTs are registered one
    /// after the other, so their resource ids are one contiguous range.
    pub fn ost_of(&self, resource: ResourceId) -> Option<OstId> {
        let first = self.osts.first()?.index();
        let ost = resource.index().checked_sub(first)?;
        (ost < self.osts.len()).then_some(OstId(ost))
    }

    /// Number of OSTs.
    pub fn ost_count(&self) -> usize {
        self.osts.len()
    }

    /// Service time one OST charges for `bytes` in direction `rw`.
    pub fn ost_service_time(&self, rw: Rw, bytes: u64) -> SimDuration {
        let bw = match rw {
            Rw::Read => self.read_bw,
            Rw::Write => self.write_bw,
        };
        self.request_overhead + Bandwidth::bytes_per_sec(bw).transfer_time(bytes)
    }

    /// Submit one contiguous request of `extent` bytes from `node`, on
    /// behalf of `by`, starting after every activity in `deps`. Returns
    /// the activity that completes when the request is fully done (for
    /// writes: all OSTs acknowledged; for reads: payload landed in node
    /// memory).
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &self,
        sim: &mut Simulation,
        fabric: &Fabric,
        by: Requester,
        node: NodeId,
        rw: Rw,
        extent: Extent,
        deps: &[ActivityId],
    ) -> ActivityId {
        let label = |tpl, ost: usize| Label::new(by.prefix, tpl, [by.rank, arg(ost)]);
        if extent.is_empty() {
            // Pure join so callers can depend on "this (empty) request".
            let join = sim.activity(label(self.names.empty, 0), SimTime::ZERO, &[]);
            for &d in deps {
                sim.add_dep(d, join);
            }
            return join;
        }

        let mut pieces = self.pieces.borrow_mut();
        self.layout.split_per_ost(extent, &mut pieces);
        if let Some(reg) = &self.registry {
            let dir = [("rw", rw.name())];
            reg.inc("pfs.requests", &dir, 1);
            reg.observe("pfs.req.bytes", &dir, extent.len);
            for (ost, bytes) in pieces.iter() {
                let ost = ost.0.to_string();
                let lbl = [("ost", ost.as_str())];
                reg.observe("pfs.ost.req_bytes", &lbl, *bytes);
                reg.inc("pfs.ost.bytes", &lbl, *bytes);
            }
        }
        // Head activity out of the node, one queued job per touched OST,
        // tail activity joining them. A write ships the payload out and
        // joins on the acknowledgements; a read ships a header-only RPC
        // and the payload comes back through the tail.
        let ingress = fabric.ingress_stages(node, extent.len);
        let names = self.names;
        let (head, head_bytes, tail, tail_stages) = match rw {
            Rw::Write => (names.egress, extent.len, names.done, &[][..]),
            Rw::Read => (names.rpc, 0, names.ingress, &ingress[..]),
        };
        let head_stages = fabric.egress_stages(node, head_bytes);
        let head = sim.activity(label(head, 0), SimTime::ZERO, &head_stages);
        for &d in deps {
            sim.add_dep(d, head);
        }
        let tail = sim.activity(label(tail, 0), SimTime::ZERO, tail_stages);
        for &(ost, bytes) in pieces.iter() {
            let piece = self.add_piece(sim, label(names.piece, ost.0), ost, rw, bytes);
            sim.add_dep(head, piece);
            sim.add_dep(piece, tail);
        }
        tail
    }

    /// Register one OST piece, expanding it into a bounded retry chain
    /// when the transient-failure process draws failures for it: each
    /// failed attempt occupies the OST for the request overhead only (a
    /// fail-fast error response), then the client waits out a seeded,
    /// jittered exponential backoff; the final attempt carries the full
    /// service time. With no faults armed this is the plain
    /// single-stage piece.
    fn add_piece(
        &self,
        sim: &mut Simulation,
        label: Label,
        ost: OstId,
        rw: Rw,
        bytes: u64,
    ) -> ActivityId {
        // Every attempt is an overhead-only job on the OST (its service
        // time depends on the direction, so it is charged as overhead).
        let attempt = |overhead, latency_after| Stage {
            resource: self.osts[ost.0],
            bytes: 0,
            overhead,
            latency_after,
        };
        let served = attempt(self.ost_service_time(rw, bytes), SimDuration::ZERO);
        let Some(ctx) = &self.faults else {
            return sim.activity(label, SimTime::ZERO, &[served]);
        };
        let req = ctx.counter.get();
        ctx.counter.set(req + 1);
        let mut chain = ctx.chain.borrow_mut();
        chain.clear();
        let mut attempts = 1u32;
        let mut backoff_ns = 0u64;
        while attempts < ctx.retry.max_attempts && ctx.sampler.attempt_fails(req, attempts, ctx.p) {
            let backoff = ctx.retry.backoff(&ctx.sampler, req, attempts + 1);
            chain.push(attempt(self.request_overhead, backoff));
            backoff_ns += backoff.as_nanos();
            attempts += 1;
        }
        // The last allowed attempt may also be drawn as a failure: the
        // retry budget is exhausted. The piece still completes (the DES
        // must make progress; think recovery through a slow out-of-band
        // path) but the exhaustion is counted and marked.
        let exhausted = attempts == ctx.retry.max_attempts
            && ctx.retry.max_attempts > 1
            && ctx.sampler.attempt_fails(req, attempts, ctx.p);
        chain.push(served);
        let id = sim.activity(label, SimTime::ZERO, &chain);
        if attempts > 1 || exhausted {
            ctx.marks.borrow_mut().push(RetryMark {
                activity: id,
                ost: ost.0,
                attempts,
                exhausted,
                backoff_ns,
            });
        }
        if let Some(reg) = &self.registry {
            let ost_s = ost.0.to_string();
            let lbl = [("ost", ost_s.as_str())];
            reg.observe("faults.retry.attempts", &[], attempts as u64);
            if attempts > 1 {
                reg.inc("faults.retries", &lbl, (attempts - 1) as u64);
                reg.observe("faults.retry.backoff_ns", &[], backoff_ns);
            }
            if exhausted {
                reg.inc("faults.retry.exhausted", &lbl, 1);
            }
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A requester for tests that read no labels.
    const ANY: Requester = Requester {
        prefix: Prefix::NONE,
        rank: 0,
    };

    /// Round-number spec: membus 1 KB/s, NIC 1 KB/s, zero latency and
    /// overheads, 4 OSTs at 100 B/s write / 200 B/s read, 100 B stripes.
    fn harness() -> (Simulation, Fabric, Pfs) {
        let mut spec = ClusterSpec::small(2, 2);
        spec.node.mem_bandwidth = 1000.0;
        spec.node.nic_bandwidth = 1000.0;
        spec.node.nic_latency = SimDuration::ZERO;
        spec.message_overhead = SimDuration::ZERO;
        spec.io_servers = 4;
        spec.ost_write_bandwidth = 100.0;
        spec.ost_read_bandwidth = 200.0;
        spec.ost_request_overhead = SimDuration::ZERO;
        let mut sim = Simulation::new();
        let fabric = Fabric::build(&mut sim, &spec);
        let pfs = Pfs::build_with_layout(&mut sim, &spec, StripeLayout::new(100, 4));
        (sim, fabric, pfs)
    }

    #[test]
    fn single_stripe_write_timing() {
        let (mut sim, fabric, pfs) = harness();
        let done = pfs.submit(
            &mut sim,
            &fabric,
            ANY,
            NodeId(0),
            Rw::Write,
            Extent::new(0, 100),
            &[],
        );
        let rep = sim.run().unwrap();
        // membus 0.1 + nic 0.1 + ost 1.0.
        assert!((rep.finish_time(done).as_secs_f64() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn striped_write_parallelizes_over_osts() {
        let (mut sim, fabric, pfs) = harness();
        let done = pfs.submit(
            &mut sim,
            &fabric,
            ANY,
            NodeId(0),
            Rw::Write,
            Extent::new(0, 400),
            &[],
        );
        let rep = sim.run().unwrap();
        // Egress 0.4+0.4, then 4 OSTs serve 100 B each in parallel (1s).
        assert!((rep.finish_time(done).as_secs_f64() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn same_ost_requests_serialize() {
        let (mut sim, fabric, pfs) = harness();
        // Two writes both entirely on ost0.
        let a = pfs.submit(
            &mut sim,
            &fabric,
            ANY,
            NodeId(0),
            Rw::Write,
            Extent::new(0, 100),
            &[],
        );
        let b = pfs.submit(
            &mut sim,
            &fabric,
            ANY,
            NodeId(1),
            Rw::Write,
            Extent::new(400, 100),
            &[],
        );
        let rep = sim.run().unwrap();
        let last = rep.finish_time(a).max(rep.finish_time(b));
        // Both egress in parallel on different nodes (0.2s), then ost0
        // serves 1s + 1s.
        assert!((last.as_secs_f64() - 2.2).abs() < 1e-9, "last = {last}");
    }

    #[test]
    fn read_faster_than_write() {
        let (mut sim, fabric, pfs) = harness();
        let r = pfs.submit(
            &mut sim,
            &fabric,
            ANY,
            NodeId(0),
            Rw::Read,
            Extent::new(0, 100),
            &[],
        );
        let rep = sim.run().unwrap();
        // rpc ~0 + ost 0.5 + ingress 0.1 + 0.1.
        assert!((rep.finish_time(r).as_secs_f64() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn empty_extent_joins_deps() {
        let (mut sim, fabric, pfs) = harness();
        let first = pfs.submit(
            &mut sim,
            &fabric,
            ANY,
            NodeId(0),
            Rw::Write,
            Extent::new(0, 100),
            &[],
        );
        let join = pfs.submit(
            &mut sim,
            &fabric,
            ANY,
            NodeId(0),
            Rw::Read,
            Extent::EMPTY,
            &[first],
        );
        let rep = sim.run().unwrap();
        assert_eq!(rep.finish_time(join), rep.finish_time(first));
    }

    #[test]
    fn deps_delay_request() {
        let (mut sim, fabric, pfs) = harness();
        let gate = sim.activity("gate", SimTime::ZERO + SimDuration::from_secs(5), &[]);
        let done = pfs.submit(
            &mut sim,
            &fabric,
            ANY,
            NodeId(0),
            Rw::Write,
            Extent::new(0, 100),
            &[gate],
        );
        let rep = sim.run().unwrap();
        assert!((rep.finish_time(done).as_secs_f64() - 6.2).abs() < 1e-9);
    }

    #[test]
    fn ost_concurrency_absorbs_contention() {
        // Two writes to the same OST serialize with 1 slot but run in
        // parallel with 2.
        let elapsed = |slots: usize| {
            let mut spec = ClusterSpec::small(2, 2);
            spec.node.mem_bandwidth = 1e12;
            spec.node.nic_bandwidth = 1e12;
            spec.node.nic_latency = SimDuration::ZERO;
            spec.message_overhead = SimDuration::ZERO;
            spec.io_servers = 4;
            spec.ost_write_bandwidth = 100.0;
            spec.ost_request_overhead = SimDuration::ZERO;
            spec.ost_concurrency = slots;
            let mut sim = Simulation::new();
            let fabric = Fabric::build(&mut sim, &spec);
            let pfs = Pfs::build_with_layout(&mut sim, &spec, StripeLayout::new(100, 4));
            for (i, off) in [0u64, 400].iter().enumerate() {
                pfs.submit(
                    &mut sim,
                    &fabric,
                    ANY,
                    NodeId(i % 2),
                    Rw::Write,
                    Extent::new(*off, 100),
                    &[],
                );
            }
            sim.run().unwrap().makespan().as_secs_f64()
        };
        assert!((elapsed(1) - 2.0).abs() < 1e-6);
        assert!((elapsed(2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn registry_records_requests_and_imbalance() {
        let (mut sim, fabric, mut pfs) = harness();
        let reg = Registry::shared();
        pfs.set_registry(Arc::clone(&reg));
        // 300 B write: stripes of 100 B land on ost0..ost2, ost3 idle.
        pfs.submit(
            &mut sim,
            &fabric,
            ANY,
            NodeId(0),
            Rw::Write,
            Extent::new(0, 300),
            &[],
        );
        pfs.record_imbalance();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pfs.requests", &[("rw", "write")]), Some(1));
        assert_eq!(snap.counter("pfs.ost.bytes", &[("ost", "0")]), Some(100));
        assert_eq!(snap.counter("pfs.ost.bytes", &[("ost", "2")]), Some(100));
        assert_eq!(snap.counter_total("pfs.ost.bytes"), 300);
        let cv = snap
            .gauges
            .iter()
            .find(|g| g.name == "pfs.ost.imbalance_cv")
            .expect("imbalance gauge")
            .value;
        // Bytes are (100, 100, 100, 0): mean 75, stddev 43.3 → cv ≈ 0.577.
        assert!((cv - (1.0f64 / 3.0).sqrt()).abs() < 1e-9, "cv = {cv}");
    }

    #[test]
    fn ost_stall_window_delays_write() {
        let (mut sim, fabric, mut pfs) = harness();
        // Stall ost0 for the first 10 s: the 1 s of OST service cannot
        // finish before 11 s (egress 0.2 s happens during the stall).
        let spec = FaultSpec::parse("ost_stall(0, 0..10s)").unwrap();
        pfs.apply_faults(&mut sim, &spec);
        let done = pfs.submit(
            &mut sim,
            &fabric,
            ANY,
            NodeId(0),
            Rw::Write,
            Extent::new(0, 100),
            &[],
        );
        let rep = sim.run().unwrap();
        assert!((rep.finish_time(done).as_secs_f64() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn transient_failures_build_bounded_retry_chains() {
        let (mut sim, fabric, mut pfs) = harness();
        let reg = Registry::shared();
        pfs.set_registry(Arc::clone(&reg));
        // p close to 1 so retries certainly happen; bounded at 3 attempts.
        let spec = FaultSpec::parse(
            "seed 11\nreq_transient_fail(0.97, 5)\nretry(max_attempts=3, base=1ms, cap=4ms, jitter=0.0)",
        )
        .unwrap();
        pfs.apply_faults(&mut sim, &spec);
        for i in 0..8u64 {
            pfs.submit(
                &mut sim,
                &fabric,
                ANY,
                NodeId(0),
                Rw::Write,
                Extent::new(i * 400, 400),
                &[],
            );
        }
        sim.run().unwrap();
        let marks = pfs.take_retry_marks();
        assert!(!marks.is_empty(), "p=0.97 must draw failures");
        for m in &marks {
            assert!(
                m.attempts >= 2 && m.attempts <= 3,
                "attempts {}",
                m.attempts
            );
            assert!(m.backoff_ns >= 1_000_000);
        }
        let snap = reg.snapshot();
        assert!(snap.counter_total("faults.retries") > 0);
        // Marks drain once.
        assert!(pfs.take_retry_marks().is_empty());
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = || {
            let (mut sim, fabric, mut pfs) = harness();
            let spec =
                FaultSpec::parse("seed 3\nreq_transient_fail(0.4, 9)\nost_slow(1, 3.0, 0..2s)")
                    .unwrap();
            pfs.apply_faults(&mut sim, &spec);
            for i in 0..6u64 {
                pfs.submit(
                    &mut sim,
                    &fabric,
                    ANY,
                    NodeId((i % 2) as usize),
                    Rw::Write,
                    Extent::new(i * 300, 300),
                    &[],
                );
            }
            let marks = pfs.take_retry_marks();
            (sim.run().unwrap().makespan(), marks)
        };
        let (m1, r1) = run();
        let (m2, r2) = run();
        assert_eq!(m1, m2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn healthy_requests_unchanged_by_armed_faults() {
        // p = 0 never fails: timings identical to the no-fault harness.
        let (mut sim, fabric, mut pfs) = harness();
        let spec = FaultSpec::parse("req_transient_fail(0.0, 1)").unwrap();
        pfs.apply_faults(&mut sim, &spec);
        let done = pfs.submit(
            &mut sim,
            &fabric,
            ANY,
            NodeId(0),
            Rw::Write,
            Extent::new(0, 100),
            &[],
        );
        let rep = sim.run().unwrap();
        assert!((rep.finish_time(done).as_secs_f64() - 1.2).abs() < 1e-9);
        assert!(pfs.take_retry_marks().is_empty());
    }

    #[test]
    fn request_overhead_charged_per_request() {
        let (mut sim, fabric, mut pfs) = harness();
        pfs.request_overhead = SimDuration::from_secs(1);
        assert_eq!(
            pfs.ost_service_time(Rw::Write, 100),
            SimDuration::from_secs(2)
        );
        assert_eq!(
            pfs.ost_service_time(Rw::Read, 100),
            SimDuration::from_millis(1500)
        );
        // Overhead-dominated small request.
        let done = pfs.submit(
            &mut sim,
            &fabric,
            ANY,
            NodeId(0),
            Rw::Write,
            Extent::new(0, 1),
            &[],
        );
        let rep = sim.run().unwrap();
        assert!(rep.finish_time(done).as_secs_f64() > 1.0);
    }
}
