//! Node and cluster specifications, with presets for the paper's testbed
//! and the Table-1 machine designs.

use mcio_des::{Bandwidth, SimDuration};

pub(crate) const KIB: u64 = 1024;
pub(crate) const MIB: u64 = 1024 * KIB;
pub(crate) const GIB: u64 = 1024 * MIB;

/// Hardware description of one compute node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Cores per node ("node concurrency" in Table 1).
    pub cores: usize,
    /// Physical memory capacity, in bytes.
    pub mem_capacity: u64,
    /// Off-chip (DRAM) bandwidth shared by all cores, bytes/sec.
    pub mem_bandwidth: f64,
    /// NIC bandwidth per direction, bytes/sec.
    pub nic_bandwidth: f64,
    /// One-way wire latency for inter-node messages.
    pub nic_latency: SimDuration,
}

impl NodeSpec {
    /// Memory per core, in bytes.
    pub fn mem_per_core(&self) -> u64 {
        self.mem_capacity / self.cores.max(1) as u64
    }

    /// Memory-bus bandwidth as a DES [`Bandwidth`].
    pub fn membus(&self) -> Bandwidth {
        Bandwidth::bytes_per_sec(self.mem_bandwidth)
    }

    /// NIC bandwidth as a DES [`Bandwidth`].
    pub fn nic(&self) -> Bandwidth {
        Bandwidth::bytes_per_sec(self.nic_bandwidth)
    }
}

/// A homogeneous cluster: `nodes` copies of `node`, an interconnect, and a
/// storage back end (modeled in detail by `mcio-pfs`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Descriptive name (appears in reports).
    pub name: String,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Number of compute nodes.
    pub nodes: usize,
    /// Fixed per-message software overhead (matching/progress engine).
    pub message_overhead: SimDuration,
    /// Number of I/O servers (OSTs) the PFS stripes across.
    pub io_servers: usize,
    /// Per-I/O-server bandwidth for writes, bytes/sec.
    pub ost_write_bandwidth: f64,
    /// Per-I/O-server bandwidth for reads, bytes/sec.
    pub ost_read_bandwidth: f64,
    /// Fixed per-request overhead at an I/O server (seek + RPC).
    pub ost_request_overhead: SimDuration,
    /// Parallel service slots per OST (disk channels / server threads).
    pub ost_concurrency: usize,
    /// Optional per-node performance scaling (memory-bus and NIC
    /// bandwidth multipliers): `node_scale[n]` < 1.0 makes node `n` a
    /// straggler. Empty = homogeneous. Shorter than `nodes` = remaining
    /// nodes at 1.0.
    pub node_scale: Vec<f64>,
}

impl ClusterSpec {
    /// The bandwidth scale factor of node `n` (1.0 when unspecified).
    pub fn scale_of(&self, node: usize) -> f64 {
        let s = self.node_scale.get(node).copied().unwrap_or(1.0);
        if s.is_finite() && s > 0.0 {
            s
        } else {
            1.0
        }
    }

    /// Mark `node` as a straggler running at `scale` of nominal
    /// memory-bus and NIC bandwidth (builder style).
    pub fn with_straggler(mut self, node: usize, scale: f64) -> Self {
        if self.node_scale.len() <= node {
            self.node_scale.resize(node + 1, 1.0);
        }
        self.node_scale[node] = scale;
        self
    }

    /// Aggregate PFS write bandwidth, bytes/sec.
    pub fn pfs_write_bandwidth(&self) -> f64 {
        self.io_servers as f64 * self.ost_write_bandwidth
    }

    /// Aggregate PFS read bandwidth, bytes/sec.
    pub fn pfs_read_bandwidth(&self) -> f64 {
        self.io_servers as f64 * self.ost_read_bandwidth
    }

    /// Record the machine configuration as `cluster.*` gauges so an
    /// exported metrics file is self-describing about the platform it
    /// was produced on.
    pub fn record_into(&self, reg: &mcio_obs::Registry) {
        reg.set_gauge("cluster.nodes", &[], self.nodes as f64);
        reg.set_gauge("cluster.cores_per_node", &[], self.node.cores as f64);
        reg.set_gauge("cluster.mem_per_node", &[], self.node.mem_capacity as f64);
        reg.set_gauge("cluster.mem_bandwidth", &[], self.node.mem_bandwidth);
        reg.set_gauge("cluster.nic_bandwidth", &[], self.node.nic_bandwidth);
        reg.set_gauge("cluster.io_servers", &[], self.io_servers as f64);
        reg.set_gauge(
            "cluster.pfs_write_bandwidth",
            &[],
            self.pfs_write_bandwidth(),
        );
        reg.set_gauge("cluster.pfs_read_bandwidth", &[], self.pfs_read_bandwidth());
    }

    /// The paper's evaluation platform: a 640-node Linux cluster, two
    /// 6-core Xeons and 24 GB per node, DDR InfiniBand, a Lustre file
    /// system on DataDirect Networks storage.
    ///
    /// Bandwidths are engineering estimates for that hardware class: DDR
    /// 4x InfiniBand ≈ 2 GB/s per direction; ~25 GB/s DRAM bandwidth per
    /// node (Table 1's 2010 column); per-OST streaming rates in the low
    /// hundreds of MB/s.
    pub fn ttu_testbed() -> Self {
        ClusterSpec {
            name: "ttu-640-testbed".into(),
            node: NodeSpec {
                cores: 12,
                mem_capacity: 24 * GIB,
                mem_bandwidth: 25.0 * GIB as f64,
                nic_bandwidth: 2.0 * GIB as f64,
                nic_latency: SimDuration::from_micros(2),
            },
            nodes: 640,
            message_overhead: SimDuration::from_micros(1),
            // 15 OSTs: a DDN couplet's worth of LUNs. Deliberately not a
            // power of two so that power-of-two round windows do not all
            // alias onto the same servers (real stripe placements
            // decorrelate; a power-of-two count makes every 384 MiB file
            // domain start on OST 0 and turns the model pathological).
            io_servers: 15,
            ost_write_bandwidth: 160.0 * MIB as f64,
            ost_read_bandwidth: 200.0 * MIB as f64,
            ost_request_overhead: SimDuration::from_micros(500),
            ost_concurrency: 1,
            node_scale: Vec::new(),
        }
    }

    /// A slice of the testbed big enough for the paper's 120-process runs:
    /// 10 nodes at 12 cores each.
    pub fn testbed_120() -> Self {
        let mut spec = Self::ttu_testbed();
        spec.name = "ttu-testbed-10-nodes".into();
        spec.nodes = 10;
        spec
    }

    /// A slice of the testbed for the paper's 1080-process runs: 90 nodes.
    pub fn testbed_1080() -> Self {
        let mut spec = Self::ttu_testbed();
        spec.name = "ttu-testbed-90-nodes".into();
        spec.nodes = 90;
        spec
    }

    /// Table 1's 2010 reference design (20 K nodes, 12 cores/node,
    /// 0.3 PB system memory, 25 GB/s node memory BW, 1.5 GB/s interconnect,
    /// 0.2 TB/s I/O bandwidth).
    pub fn petascale_2010() -> Self {
        let io_servers = 128;
        ClusterSpec {
            name: "petascale-2010".into(),
            node: NodeSpec {
                cores: 12,
                // 0.3 PB / 20 K nodes = 15 GB/node.
                mem_capacity: (0.3 * 1e15 / 20_000.0) as u64,
                mem_bandwidth: 25.0 * 1e9,
                nic_bandwidth: 1.5 * 1e9,
                nic_latency: SimDuration::from_micros(2),
            },
            nodes: 20_000,
            message_overhead: SimDuration::from_micros(1),
            io_servers,
            // 0.2 TB/s aggregate across the I/O servers.
            ost_write_bandwidth: 0.2e12 / io_servers as f64,
            ost_read_bandwidth: 0.25e12 / io_servers as f64,
            ost_request_overhead: SimDuration::from_micros(500),
            ost_concurrency: 2,
            node_scale: Vec::new(),
        }
    }

    /// Table 1's projected 2018 exascale design (1 M nodes, 1000
    /// cores/node, 10 PB system memory, 400 GB/s node memory BW, 50 GB/s
    /// interconnect, 20 TB/s I/O bandwidth).
    ///
    /// Note `mem_per_core()` on this preset lands in the tens of
    /// megabytes — the memory-pressure regime the paper targets.
    pub fn exascale_2018() -> Self {
        let io_servers = 1024;
        ClusterSpec {
            name: "exascale-2018".into(),
            node: NodeSpec {
                cores: 1000,
                // 10 PB / 1 M nodes = 10 GB/node.
                mem_capacity: (10e15 / 1e6) as u64,
                mem_bandwidth: 400.0 * 1e9,
                nic_bandwidth: 50.0 * 1e9,
                nic_latency: SimDuration::from_micros(1),
            },
            nodes: 1_000_000,
            message_overhead: SimDuration::from_micros(1),
            io_servers,
            ost_write_bandwidth: 20e12 / io_servers as f64,
            ost_read_bandwidth: 25e12 / io_servers as f64,
            ost_request_overhead: SimDuration::from_micros(300),
            ost_concurrency: 4,
            node_scale: Vec::new(),
        }
    }

    /// Parse the compact machine notation shared by the multi-tenant
    /// spec DSL and the job-trace scheduler format:
    /// `testbed` | `exascale` | `small:<nodes>x<cores>`.
    pub fn parse_compact(value: &str) -> Result<Self, String> {
        match value {
            "testbed" => Ok(ClusterSpec::ttu_testbed()),
            "exascale" => Ok(ClusterSpec::exascale_2018()),
            other => {
                let Some(dims) = other.strip_prefix("small:") else {
                    return Err(format!(
                        "machine must be testbed|exascale|small:<nodes>x<cores>, got `{other}`"
                    ));
                };
                let (n, c) = dims
                    .split_once('x')
                    .ok_or_else(|| format!("small machine needs <nodes>x<cores>, got `{dims}`"))?;
                let nodes: usize = n
                    .parse()
                    .map_err(|_| format!("bad node count `{n}` in machine directive"))?;
                let cores: usize = c
                    .parse()
                    .map_err(|_| format!("bad core count `{c}` in machine directive"))?;
                if nodes == 0 || cores == 0 {
                    return Err("machine dimensions must be positive".to_string());
                }
                Ok(ClusterSpec::small(nodes, cores))
            }
        }
    }

    /// A laptop-sized cluster for tests and examples: `nodes` nodes with
    /// `cores` cores each and modest bandwidths, so simulations stay tiny.
    pub fn small(nodes: usize, cores: usize) -> Self {
        ClusterSpec {
            name: format!("small-{nodes}x{cores}"),
            node: NodeSpec {
                cores,
                mem_capacity: 4 * GIB,
                mem_bandwidth: 10.0 * GIB as f64,
                nic_bandwidth: 1.0 * GIB as f64,
                nic_latency: SimDuration::from_micros(2),
            },
            nodes,
            message_overhead: SimDuration::from_micros(1),
            io_servers: 4,
            ost_write_bandwidth: 100.0 * MIB as f64,
            ost_read_bandwidth: 125.0 * MIB as f64,
            ost_request_overhead: SimDuration::from_micros(500),
            ost_concurrency: 1,
            node_scale: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_derived_quantities() {
        let spec = ClusterSpec::ttu_testbed();
        assert_eq!(spec.node.mem_per_core(), 2 * GIB);
    }

    #[test]
    fn testbed_slices() {
        let cores = |spec: ClusterSpec| spec.nodes * spec.node.cores;
        assert_eq!(cores(ClusterSpec::testbed_120()), 120);
        assert_eq!(cores(ClusterSpec::testbed_1080()), 1080);
    }

    #[test]
    fn exascale_memory_per_core_is_megabytes() {
        let ex = ClusterSpec::exascale_2018();
        let per_core = ex.node.mem_per_core();
        // Table 1 projects ~10 MB/core: quotient of memory factor over
        // (system size factor × node concurrency factor).
        assert!(per_core < 16 * MIB, "got {per_core}");
        assert!(per_core > 4 * MIB, "got {per_core}");
    }

    #[test]
    fn pfs_aggregate_bandwidths() {
        let ex = ClusterSpec::exascale_2018();
        assert!((ex.pfs_write_bandwidth() - 20e12).abs() < 1e6);
        let pt = ClusterSpec::petascale_2010();
        assert!((pt.pfs_write_bandwidth() - 0.2e12).abs() < 1e6);
    }

    #[test]
    fn compact_notation_parses_presets_and_small_dims() {
        assert_eq!(ClusterSpec::parse_compact("testbed").unwrap().nodes, 640);
        assert_eq!(
            ClusterSpec::parse_compact("exascale").unwrap().name,
            "exascale-2018"
        );
        let small = ClusterSpec::parse_compact("small:8x2").unwrap();
        assert_eq!((small.nodes, small.node.cores), (8, 2));
        for (bad, needle) in [
            ("tiny", "must be testbed|exascale"),
            ("small:8", "needs <nodes>x<cores>"),
            ("small:ax2", "bad node count"),
            ("small:8xb", "bad core count"),
            ("small:0x2", "must be positive"),
        ] {
            let err = ClusterSpec::parse_compact(bad).unwrap_err();
            assert!(err.contains(needle), "`{bad}` -> `{err}`");
        }
    }

    #[test]
    fn zero_core_node_does_not_divide_by_zero() {
        let mut n = ClusterSpec::small(1, 1).node;
        n.cores = 0;
        assert_eq!(n.mem_per_core(), n.mem_capacity);
    }
}
