//! Lowering the cluster onto DES resources.
//!
//! Each node contributes three FIFO bandwidth servers:
//!
//! * `membus` — the off-chip memory bus every byte entering or leaving the
//!   node's DRAM crosses (this is where the paper's "off-chip bandwidth
//!   contention" materializes);
//! * `nic_tx` / `nic_rx` — the full-duplex network interface.
//!
//! An inter-node message is the store-and-forward pipeline
//! `src.membus → src.nic_tx → (wire latency) → dst.nic_rx → dst.membus`.
//! An intra-node message never touches a NIC: it is two memory-bus
//! passes (read + write) on the same node — the reason node-aligned
//! aggregation groups conserve interconnect and NIC capacity but still pay
//! the memory bus.

use crate::spec::ClusterSpec;
use crate::NodeId;
use mcio_des::{
    arg, ActivityId, Bandwidth, IntoLabel, Label, Prefix, ResourceId, SimDuration, SimTime,
    Simulation, Stage,
};

/// Classification of a transfer between two ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferPath {
    /// Both endpoints share a node: memory-bus only.
    IntraNode,
    /// Endpoints on different nodes: NIC-to-NIC over the interconnect.
    InterNode,
}

/// DES handles for a built cluster fabric.
#[derive(Debug, Clone)]
pub struct Fabric {
    membus: Vec<ResourceId>,
    nic_tx: Vec<ResourceId>,
    nic_rx: Vec<ResourceId>,
    nic_latency: SimDuration,
    message_overhead: SimDuration,
}

impl Fabric {
    /// Register one memory bus and one NIC pair per node of `spec` in
    /// `sim`, named `node{n}.membus`, `node{n}.nic_tx` and
    /// `node{n}.nic_rx`.
    pub fn build(sim: &mut Simulation, spec: &ClusterSpec) -> Self {
        let mut membus = Vec::with_capacity(spec.nodes);
        let mut nic_tx = Vec::with_capacity(spec.nodes);
        let mut nic_rx = Vec::with_capacity(spec.nodes);
        let names = ["node{}.membus", "node{}.nic_tx", "node{}.nic_rx"];
        let [bus_name, tx_name, rx_name] = names.map(|name| sim.template(name));
        for n in 0..spec.nodes {
            let scale = spec.scale_of(n);
            let membus_bw = Bandwidth::bytes_per_sec(spec.node.mem_bandwidth * scale);
            let nic_bw = Bandwidth::bytes_per_sec(spec.node.nic_bandwidth * scale);
            let name = |tpl| Label::new(Prefix::NONE, tpl, [arg(n), 0]);
            membus.push(sim.add_resource(name(bus_name), membus_bw));
            nic_tx.push(sim.add_resource(name(tx_name), nic_bw));
            nic_rx.push(sim.add_resource(name(rx_name), nic_bw));
        }
        Fabric {
            membus,
            nic_tx,
            nic_rx,
            nic_latency: spec.node.nic_latency,
            message_overhead: spec.message_overhead,
        }
    }

    /// Number of nodes in the fabric.
    pub fn nnodes(&self) -> usize {
        self.membus.len()
    }

    /// The memory-bus resource of `node`.
    pub fn membus(&self, node: NodeId) -> ResourceId {
        self.membus[node.0]
    }

    /// The NIC transmit resource of `node`.
    pub fn nic_tx(&self, node: NodeId) -> ResourceId {
        self.nic_tx[node.0]
    }

    /// The NIC receive resource of `node`.
    pub fn nic_rx(&self, node: NodeId) -> ResourceId {
        self.nic_rx[node.0]
    }

    /// How a transfer between the two nodes is routed.
    pub fn path(&self, src: NodeId, dst: NodeId) -> TransferPath {
        if src == dst {
            TransferPath::IntraNode
        } else {
            TransferPath::InterNode
        }
    }

    /// Register a rank-to-rank message of `bytes` bytes in `sim`: out of
    /// `src` and into `dst` over the wire, or, on one node, a
    /// shared-memory copy — the payload crosses the node's DRAM
    /// interface twice (read source buffer, write destination) and no
    /// NIC.
    pub fn message(
        &self,
        sim: &mut Simulation,
        label: impl IntoLabel,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> ActivityId {
        let [out_bus, out_nic] = self.egress_stages(src, bytes);
        let [in_nic, in_bus] = self.ingress_stages(dst, bytes);
        match self.path(src, dst) {
            TransferPath::IntraNode => sim.activity(label, SimTime::ZERO, &[out_bus, in_bus]),
            TransferPath::InterNode => {
                sim.activity(label, SimTime::ZERO, &[out_bus, out_nic, in_nic, in_bus])
            }
        }
    }

    /// Outbound stages from a node toward storage: memory bus, NIC
    /// transmit, then wire latency. The storage side (OST queue) is
    /// appended by the PFS layer.
    pub fn egress_stages(&self, node: NodeId, bytes: u64) -> [Stage; 2] {
        [
            Stage {
                resource: self.membus[node.0],
                bytes,
                overhead: self.message_overhead,
                latency_after: SimDuration::ZERO,
            },
            Stage {
                resource: self.nic_tx[node.0],
                bytes,
                overhead: SimDuration::ZERO,
                latency_after: self.nic_latency,
            },
        ]
    }

    /// Inbound stages from storage into a node: NIC receive then memory
    /// bus (used for read replies).
    pub fn ingress_stages(&self, node: NodeId, bytes: u64) -> [Stage; 2] {
        [
            Stage {
                resource: self.nic_rx[node.0],
                bytes,
                overhead: SimDuration::ZERO,
                latency_after: SimDuration::ZERO,
            },
            Stage {
                resource: self.membus[node.0],
                bytes,
                overhead: SimDuration::ZERO,
                latency_after: SimDuration::ZERO,
            },
        ]
    }

    /// One-way wire latency of the interconnect.
    pub fn nic_latency(&self) -> SimDuration {
        self.nic_latency
    }

    /// Fixed per-message software overhead.
    pub fn message_overhead(&self) -> SimDuration {
        self.message_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ClusterSpec {
        let mut spec = ClusterSpec::small(3, 2);
        // Round numbers for exact timing assertions.
        spec.node.mem_bandwidth = 1000.0;
        spec.node.nic_bandwidth = 100.0;
        spec.node.nic_latency = SimDuration::from_secs(1);
        spec.message_overhead = SimDuration::ZERO;
        spec
    }

    #[test]
    fn build_registers_three_resources_per_node() {
        let mut sim = Simulation::new();
        let fabric = Fabric::build(&mut sim, &tiny_spec());
        assert_eq!(fabric.nnodes(), 3);
        assert_eq!(fabric.nic_rx(NodeId(2)).index(), 8);
    }

    #[test]
    fn path_classification() {
        let mut sim = Simulation::new();
        let fabric = Fabric::build(&mut sim, &tiny_spec());
        assert_eq!(fabric.path(NodeId(0), NodeId(0)), TransferPath::IntraNode);
        assert_eq!(fabric.path(NodeId(0), NodeId(2)), TransferPath::InterNode);
    }

    #[test]
    fn inter_node_message_timing() {
        let mut sim = Simulation::new();
        let fabric = Fabric::build(&mut sim, &tiny_spec());
        // 100 B: membus 0.1s + nic_tx 1s + latency 1s + nic_rx 1s + membus 0.1s.
        let msg = fabric.message(&mut sim, "m", NodeId(0), NodeId(1), 100);
        let rep = sim.run().unwrap();
        let t = rep.finish_time(msg).saturating_since(SimTime::ZERO);
        assert!((t.as_secs_f64() - 3.2).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn intra_node_message_skips_nic() {
        let mut sim = Simulation::new();
        let fabric = Fabric::build(&mut sim, &tiny_spec());
        let msg = fabric.message(&mut sim, "m", NodeId(1), NodeId(1), 500);
        let nic = fabric.nic_tx(NodeId(1));
        let rep = sim.run().unwrap();
        // Two membus passes at 1000 B/s: 0.5s + 0.5s.
        assert!((rep.finish_time(msg).as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(rep.resource_usage(nic).jobs_served, 0);
    }

    #[test]
    fn membus_contention_between_messages() {
        let mut sim = Simulation::new();
        let fabric = Fabric::build(&mut sim, &tiny_spec());
        // Two intra-node copies on the same node serialize on the membus.
        let a = fabric.message(&mut sim, "a", NodeId(0), NodeId(0), 500);
        let b = fabric.message(&mut sim, "b", NodeId(0), NodeId(0), 500);
        let rep = sim.run().unwrap();
        let last = rep.finish_time(a).max(rep.finish_time(b));
        assert!((last.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn egress_ingress_stage_shapes() {
        let mut sim = Simulation::new();
        let fabric = Fabric::build(&mut sim, &tiny_spec());
        let egress = fabric.egress_stages(NodeId(2), 64);
        assert_eq!(egress.len(), 2);
        assert_eq!(egress[0].resource, fabric.membus(NodeId(2)));
        assert_eq!(egress[1].resource, fabric.nic_tx(NodeId(2)));
        assert_eq!(egress[1].latency_after, SimDuration::from_secs(1));
        let ingress = fabric.ingress_stages(NodeId(2), 64);
        assert_eq!(ingress.len(), 2);
        assert_eq!(ingress[0].resource, fabric.nic_rx(NodeId(2)));
        assert_eq!(ingress[1].resource, fabric.membus(NodeId(2)));
    }

    #[test]
    fn straggler_node_slows_its_traffic_only() {
        let mut sim = Simulation::new();
        let spec = tiny_spec().with_straggler(1, 0.5);
        let fabric = Fabric::build(&mut sim, &spec);
        // Intra-node copy of 500 B: node 0 at 1000 B/s (1s total), node 1
        // at 500 B/s (2s total).
        let fast = fabric.message(&mut sim, "f", NodeId(0), NodeId(0), 500);
        let slow = fabric.message(&mut sim, "s", NodeId(1), NodeId(1), 500);
        let rep = sim.run().unwrap();
        assert!((rep.finish_time(fast).as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((rep.finish_time(slow).as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scale_of_defaults_and_clamps() {
        let spec = tiny_spec().with_straggler(2, 0.25);
        assert_eq!(spec.scale_of(0), 1.0);
        assert_eq!(spec.scale_of(1), 1.0);
        assert_eq!(spec.scale_of(2), 0.25);
        assert_eq!(spec.scale_of(99), 1.0);
        let bad = tiny_spec().with_straggler(0, -1.0);
        assert_eq!(bad.scale_of(0), 1.0);
    }

    #[test]
    fn message_overhead_applies_once() {
        let mut sim = Simulation::new();
        let mut spec = tiny_spec();
        spec.message_overhead = SimDuration::from_secs(10);
        let fabric = Fabric::build(&mut sim, &spec);
        let msg = fabric.message(&mut sim, "m", NodeId(0), NodeId(0), 500);
        let rep = sim.run().unwrap();
        assert!((rep.finish_time(msg).as_secs_f64() - 11.0).abs() < 1e-9);
    }
}
