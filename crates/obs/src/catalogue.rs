//! The observability catalogue: every metric name and every process
//! group of the unified trace, declared once.
//!
//! Instrumented crates record under a name literal and emit spans
//! under a `PID_*`; the unit and help text a [`crate::Snapshot`]
//! carries, the kind a name may be recorded under, and the process
//! name a pid is labelled with all come from the two tables here.
//! `docs/observability.md` lists the same rows, and
//! `crates/bench/tests/catalogue_sync.rs` keeps source, tables and
//! prose equal in both directions.

use Kind::{Counter, Gauge, Histogram};

/// How a metric is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic sum ([`crate::Registry::inc`]).
    Counter,
    /// Last or extremal value ([`crate::Registry::set_gauge`],
    /// [`crate::Registry::max_gauge`]).
    Gauge,
    /// Log2-bucketed distribution ([`crate::Registry::observe`],
    /// [`crate::Registry::merge_histogram`]).
    Histogram,
}

impl Kind {
    /// Lowercase name, as the exporters and the docs print it.
    pub fn label(self) -> &'static str {
        match self {
            Counter => "counter",
            Gauge => "gauge",
            Histogram => "histogram",
        }
    }
}

/// One row of [`METRICS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Dotted lowercase metric name.
    pub name: &'static str,
    /// The one kind the name is recorded under.
    pub kind: Kind,
    /// Unit of the recorded values (`"bytes"`, `"ns"`, `"1"`...).
    pub unit: &'static str,
    /// One-line human description.
    pub help: &'static str,
}

const fn m(name: &'static str, kind: Kind, unit: &'static str, help: &'static str) -> Metric {
    Metric {
        name,
        kind,
        unit,
        help,
    }
}

/// Every metric the workspace records, sorted by name.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    m("adaptive.deferrals",          Counter,   "count",       "Rounds deferred past a degraded OST window"),
    m("adaptive.demotions",          Counter,   "count",       "Aggregators demoted off shocked nodes"),
    m("adaptive.resplits",           Counter,   "count",       "Extra rounds created by adaptive re-splitting"),
    m("adaptive.retunes",            Counter,   "count",       "Msg_group re-tunes applied by the controller"),
    m("adaptive.severity",           Gauge,     "fraction",    "Sampled degradation severity the controller saw"),
    m("cluster.cores_per_node",      Gauge,     "count",       "Cores per compute node"),
    m("cluster.io_servers",          Gauge,     "count",       "I/O servers (OSTs) in the PFS"),
    m("cluster.mem_bandwidth",       Gauge,     "bytes/s",     "Off-chip memory bandwidth per node"),
    m("cluster.mem_per_node",        Gauge,     "bytes",       "Physical memory per node"),
    m("cluster.nic_bandwidth",       Gauge,     "bytes/s",     "NIC bandwidth per node per direction"),
    m("cluster.nodes",               Gauge,     "count",       "Compute nodes in the machine"),
    m("cluster.pfs_read_bandwidth",  Gauge,     "bytes/s",     "Aggregate PFS read bandwidth"),
    m("cluster.pfs_write_bandwidth", Gauge,     "bytes/s",     "Aggregate PFS write bandwidth"),
    m("des.engine.class_max_queue",  Gauge,     "1",           "peak active transfer set per resource class"),
    m("des.engine.events",           Counter,   "1",           "events processed by the DES run loop"),
    m("des.engine.events_cancelled", Counter,   "1",           "events retracted before firing (fair-share re-predictions; 0 for FIFO)"),
    m("des.engine.events_scheduled", Counter,   "1",           "events pushed onto the DES heap"),
    m("des.engine.max_queue_depth",  Gauge,     "1",           "peak pending-event heap depth"),
    m("des.engine.max_ready_set",    Gauge,     "1",           "peak count of released-but-unstarted activities"),
    m("des.engine.queue_depth",      Histogram, "1",           "pending-event heap depth per event pop"),
    m("des.makespan_ns",             Gauge,     "ns",          "simulated time of the last completion"),
    m("des.resource.busy_ns",        Counter,   "ns",          "total service time delivered per resource"),
    m("des.resource.bytes",          Counter,   "bytes",       "bytes served per resource"),
    m("des.resource.jobs",           Counter,   "1",           "jobs served per resource"),
    m("des.resource.max_active",     Gauge,     "1",           "peak simultaneously served transfers per resource"),
    m("des.resource.max_queue",      Gauge,     "1",           "peak jobs beyond the slot count per resource (FIFO queue / fair-share overflow)"),
    m("des.resource.utilization",    Gauge,     "1",           "busy time / makespan per resource (can exceed 1 for multi-slot resources)"),
    m("des.resource.wait_ns",        Histogram, "ns",          "per-job queueing delay per resource"),
    m("faults.completed",            Gauge,     "bool",        "1 when the collective delivered every byte under injection"),
    m("faults.degraded_rounds",      Counter,   "count",       "Extra rounds created by graceful degradation"),
    m("faults.events",               Counter,   "count",       "Fault events in the injected plan"),
    m("faults.failovers",            Counter,   "count",       "Aggregator failovers performed"),
    m("faults.retries",              Counter,   "attempts",    "Failed OST request attempts that were retried, per OST"),
    m("faults.retry.attempts",       Histogram, "attempts",    "Attempts needed per OST request (1 = first try succeeded)"),
    m("faults.retry.backoff_ns",     Histogram, "ns",          "Total backoff waited per retried request"),
    m("faults.retry.exhausted",      Counter,   "requests",    "Requests whose retry budget was exhausted, per OST"),
    m("pfs.ost.bytes",               Counter,   "bytes",       "Total bytes routed to each OST"),
    m("pfs.ost.imbalance_cv",        Gauge,     "ratio",       "Coefficient of variation of per-OST byte totals (0 = perfectly balanced)"),
    m("pfs.ost.req_bytes",           Histogram, "bytes",       "Per-OST piece sizes after striping"),
    m("pfs.req.bytes",               Histogram, "bytes",       "Request sizes as issued by clients, by direction"),
    m("pfs.requests",                Counter,   "requests",    "Client I/O requests submitted, by direction"),
    m("plan.aggregators",            Gauge,     "aggregators", "Aggregator assignments"),
    m("plan.buffer_cv",              Gauge,     "ratio",       "Coefficient of variation of aggregator buffer sizes"),
    m("plan.groups",                 Gauge,     "groups",      "Aggregation groups"),
    m("plan.io_bytes",               Counter,   "bytes",       "PFS bytes planned"),
    m("plan.io_requests",            Counter,   "requests",    "Contiguous PFS requests planned"),
    m("plan.message_bytes",          Counter,   "bytes",       "Shuffled bytes planned"),
    m("plan.messages",               Counter,   "messages",    "Shuffle messages planned"),
    m("plan.peak_window",            Gauge,     "bytes",       "Largest single-round aggregation window (per-aggregator memory high-water mark)"),
    m("plan.ptree_leaves",           Counter,   "domains",     "Partition-tree leaves built before remerging"),
    m("plan.relaxations",            Counter,   "events",      "Placements that relaxed Mem_min/N_ah"),
    m("plan.remerges",               Counter,   "events",      "Domains remerged during placement"),
    m("plan.rounds",                 Gauge,     "rounds",      "Longest per-group round sequence"),
    m("run.agg.io_ns",               Gauge,     "ns",          "Per-aggregator file-access time summed over rounds"),
    m("run.bandwidth_mibs",          Gauge,     "MiB/s",       "Aggregate bandwidth"),
    m("run.bytes",                   Counter,   "bytes",       "Requested bytes moved"),
    m("run.elapsed_ns",              Gauge,     "ns",          "Simulated wall-clock of the collective"),
    m("run.exchange_frac",           Gauge,     "ratio",       "Normalized share of attributed time spent shuffling"),
    m("run.io_frac",                 Gauge,     "ratio",       "Normalized share of attributed time spent in file access"),
    m("run.round.exchange_ns",       Histogram, "ns",          "Per-round exchange phase duration"),
    m("run.round.io_ns",             Histogram, "ns",          "Per-round file-access phase duration"),
    m("sched.admission_deferrals",   Counter,   "count",       "Dispatches deferred by interference budgets"),
    m("sched.backfills",             Counter,   "count",       "Dispatches that jumped a blocked head"),
    m("sched.commits",               Counter,   "count",       "Commit probes simulated, rejected probes included"),
    m("sched.dispatches",            Counter,   "count",       "Jobs dispatched by the scheduler"),
    m("sched.makespan_ns",           Gauge,     "ns",          "Completion of the last scheduled job"),
    m("sched.queue_depth_max",       Gauge,     "jobs",        "Peak pending-queue depth"),
    m("sched.wait_ns",               Histogram, "ns",          "Per-job queue wait"),
    m("tenant.jobs",                 Gauge,     "count",       "Concurrent jobs in the run"),
    m("tenant.makespan_ns",          Gauge,     "ns",          "Shared-machine makespan"),
    m("tenant.ost_overlap_frac",     Gauge,     "ratio",       "Per-job fraction of OST service time overlapping other tenants"),
    m("tenant.slowdown",             Gauge,     "ratio",       "Per-job span over solo elapsed (interference cost)"),
    m("tenant.solo_elapsed_ns",      Gauge,     "ns",          "Per-job elapsed when simulated alone on the same nodes"),
    m("workload.bytes",              Counter,   "bytes",       "Total bytes requested"),
    m("workload.density",            Gauge,     "ratio",       "Requested bytes / hull span (1.0 = fully dense)"),
    m("workload.extent_bytes",       Histogram, "bytes",       "Per-extent request size distribution"),
    m("workload.extents",            Counter,   "count",       "File extents across all ranks"),
    m("workload.hull_bytes",         Gauge,     "bytes",       "Span of the file hull"),
    m("workload.ranks",              Gauge,     "count",       "Ranks participating in the collective"),
];

/// The catalogue row of `name`, if it has one.
pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS
        .binary_search_by(|row| row.name.cmp(name))
        .ok()
        .map(|at| &METRICS[at])
}

/// One process group (Chrome-trace `pid`) of the unified trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// Chrome-trace `pid`.
    pub pid: u64,
    /// Process name the trace UI shows for the group.
    pub process: &'static str,
}

/// Every process group a run can emit, by ascending pid.
#[rustfmt::skip]
pub const LANES: [Lane; 6] = [
    Lane { pid: 1, process: "des.resources" },
    Lane { pid: 2, process: "plan.rounds" },
    Lane { pid: 3, process: "faults" },
    Lane { pid: 4, process: "tenants" },
    Lane { pid: 5, process: "replan" },
    Lane { pid: 6, process: "scheduler" },
];

/// Pid of the DES resource service lanes (one `tid` per machine
/// resource: memory buses, NICs, OSTs).
pub const PID_RESOURCES: u64 = LANES[0].pid;

/// Pid of the logical round-phase lanes (one `tid` per round chain;
/// spans are `r<N>.exchange` / `r<N>.io`).
pub const PID_ROUNDS: u64 = LANES[1].pid;

/// Pid of the fault lanes emitted by faulted runs: injected events
/// (`inject`), failover gates (`failover`), degradation re-rounds
/// (`degraded`) and per-OST retry chains (`retry`/`backoff`).
pub const PID_FAULTS: u64 = LANES[2].pid;

/// Pid of the per-job tenant lanes emitted by multi-tenant runs: one
/// `tid` per job, holding a single `j<N>.window` span whose args carry
/// the job label, strategy, slowdown and OST-overlap fraction. Solo
/// runs emit no pid-4 lanes.
pub const PID_TENANTS: u64 = LANES[3].pid;

/// Pid of the closed-loop replan lanes emitted by adaptive runs: one
/// `tid` per actuator (`retune`, `defer`, `demote`, `resplit`), one
/// span per controller decision with its inputs as span args. Static
/// (`AdaptivePolicy::Off`) runs emit no pid-5 lanes.
pub const PID_REPLAN: u64 = LANES[4].pid;

/// Pid of the job-stream scheduler lanes emitted by `mcio-sched` runs:
/// `tid` 0 carries queue-depth occupancy intervals, `tid` 1 one span
/// per dispatch decision (args: nodes, wait, backfill), `tid` 2
/// admission-control deferrals. Single-job runs emit no pid-6 lanes.
pub const PID_SCHED: u64 = LANES[5].pid;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_are_sorted_and_found_by_name() {
        assert!(METRICS.windows(2).all(|w| w[0].name < w[1].name));
        for row in METRICS {
            assert_eq!(metric(row.name), Some(row));
        }
        assert_eq!(metric("no.such.metric"), None);
    }

    #[test]
    fn lanes_ascend_by_pid() {
        assert!(LANES.windows(2).all(|w| w[0].pid < w[1].pid));
    }
}
