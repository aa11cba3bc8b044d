//! Collective I/O configuration: the paper's tunables.

use crate::{mcio, twophase, CollectivePlan, CollectiveRequest, ProcMemory};
use mcio_cluster::ProcessMap;

const MIB: u64 = 1024 * 1024;

/// How the memory-conscious planner chooses an aggregator host for a
/// file domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// §3.3: the candidate host with maximum available memory, subject
    /// to `Mem_min` (triggering remerges when nobody qualifies).
    #[default]
    MemoryAware,
    /// Ablation: the first candidate host in node order, blind to
    /// memory (no `Mem_min` check, no remerging) — isolates the value
    /// of memory awareness from the group/partition structure.
    FirstCandidate,
}

/// Which collective strategy to plan with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// ROMIO-style two-phase collective I/O: one aggregator per node,
    /// even file-domain split, globally synchronized rounds.
    TwoPhase,
    /// The paper's memory-conscious collective I/O: disjoint aggregation
    /// groups, partition-tree file domains, memory-aware aggregator
    /// placement, per-group rounds.
    MemoryConscious,
}

impl Strategy {
    /// Both strategies, baseline first — the canonical cell order.
    pub const BOTH: [Strategy; 2] = [Strategy::TwoPhase, Strategy::MemoryConscious];

    /// Short label used in reports ("two-phase" / "memory-conscious").
    pub fn label(self) -> &'static str {
        match self {
            Strategy::TwoPhase => "two-phase",
            Strategy::MemoryConscious => "memory-conscious",
        }
    }

    /// Plan `req` with this strategy — the one place that dispatches
    /// between [`twophase::plan`] and [`mcio::plan`].
    pub fn plan(
        self,
        req: &CollectiveRequest,
        map: &ProcessMap,
        mem: &ProcMemory,
        cfg: &CollectiveConfig,
    ) -> CollectivePlan {
        match self {
            Strategy::TwoPhase => twophase::plan(req, map, mem, cfg),
            Strategy::MemoryConscious => mcio::plan(req, map, mem, cfg),
        }
    }
}

/// All tunables of both strategies. The fields named in the paper:
/// `N_ah` ([`nah`](CollectiveConfig::nah)), `Msg_ind`
/// ([`msg_ind`](CollectiveConfig::msg_ind)), `Msg_group`
/// ([`msg_group`](CollectiveConfig::msg_group)) and `Mem_min`
/// ([`mem_min`](CollectiveConfig::mem_min)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveConfig {
    /// Nominal aggregation buffer per aggregator, bytes (ROMIO
    /// `cb_buffer_size`). The effective buffer of a given aggregator is
    /// `min(cb_buffer, its process's memory budget)`.
    pub cb_buffer: u64,
    /// `N_ah`: maximum aggregators hosted by one physical node
    /// (memory-conscious only).
    pub nah: usize,
    /// `Msg_ind`: the per-aggregator I/O message size that saturates one
    /// aggregator's path to the file system; the partition tree stops
    /// splitting once a file domain holds at most this much requested
    /// data.
    pub msg_ind: u64,
    /// `Msg_group`: target requested-data size of one aggregation group;
    /// group division closes a group at the first node boundary past this
    /// many bytes.
    pub msg_group: u64,
    /// `Mem_min`: minimum memory an aggregator host must offer; file
    /// domains whose candidate hosts all fall short are remerged into a
    /// neighbor.
    pub mem_min: u64,
    /// Align baseline file-domain boundaries down to stripe boundaries
    /// (ROMIO's `striping_unit` hint behaviour).
    pub align_fd_to_stripes: Option<u64>,
    /// Aggregator host selection policy (memory-conscious only).
    pub placement: PlacementPolicy,
}

impl CollectiveConfig {
    /// Paper-flavored defaults for a given nominal buffer size:
    /// `N_ah = 2`, `Msg_ind = 4 × cb_buffer` (clamped to ≥ 16 MiB),
    /// `Msg_group = 8 × Msg_ind`, `Mem_min = cb_buffer / 2`.
    pub fn with_buffer(cb_buffer: u64) -> Self {
        let msg_ind = (4 * cb_buffer).max(16 * MIB);
        CollectiveConfig {
            cb_buffer,
            nah: 2,
            msg_ind,
            msg_group: 8 * msg_ind,
            mem_min: cb_buffer / 2,
            align_fd_to_stripes: None,
            placement: PlacementPolicy::MemoryAware,
        }
    }

    /// The paper's §4 recipe for a collective of `total_bytes` on
    /// `nnodes` nodes with nominal buffer `buffer`: aggregation groups
    /// close at node boundaries around one node's worth of data
    /// (Figure 4's "group one = compute node one"), `N_ah = 2`
    /// aggregators per host, `Msg_ind` half a group (two file domains
    /// per group before placement), and `Mem_min` at half the buffer.
    pub fn paper(total_bytes: u64, nnodes: usize, buffer: u64) -> Self {
        let per_node = (total_bytes / nnodes.max(1) as u64).max(1);
        Self::with_buffer(buffer)
            .nah(2)
            .msg_group(per_node)
            .msg_ind((per_node / 2).max(1))
            .mem_min(buffer / 2)
    }

    /// Builder-style override of `N_ah`.
    pub fn nah(mut self, nah: usize) -> Self {
        self.nah = nah;
        self
    }

    /// Builder-style override of `Msg_ind`.
    pub fn msg_ind(mut self, msg_ind: u64) -> Self {
        self.msg_ind = msg_ind;
        self
    }

    /// Builder-style override of `Msg_group`.
    pub fn msg_group(mut self, msg_group: u64) -> Self {
        self.msg_group = msg_group;
        self
    }

    /// Builder-style override of `Mem_min`.
    pub fn mem_min(mut self, mem_min: u64) -> Self {
        self.mem_min = mem_min;
        self
    }

    /// Builder-style override of the placement policy.
    pub fn placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Builder-style stripe alignment for baseline file domains.
    pub fn align_to_stripes(mut self, stripe_unit: u64) -> Self {
        self.align_fd_to_stripes = Some(stripe_unit);
        self
    }

    /// Validate invariants; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.cb_buffer == 0 {
            return Err("cb_buffer must be positive".into());
        }
        if self.nah == 0 {
            return Err("nah must be at least 1".into());
        }
        if self.msg_ind == 0 {
            return Err("msg_ind must be positive".into());
        }
        if self.msg_group == 0 {
            return Err("msg_group must be positive".into());
        }
        if let Some(unit) = self.align_fd_to_stripes {
            if unit == 0 {
                return Err("stripe alignment unit must be positive".into());
            }
        }
        Ok(())
    }
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        Self::with_buffer(16 * MIB)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert_eq!(CollectiveConfig::default().validate(), Ok(()));
        assert_eq!(CollectiveConfig::with_buffer(2 * MIB).validate(), Ok(()));
    }

    #[test]
    fn with_buffer_scales_msg_ind() {
        let c = CollectiveConfig::with_buffer(32 * MIB);
        assert_eq!(c.msg_ind, 128 * MIB);
        assert_eq!(c.msg_group, 1024 * MIB);
        assert_eq!(c.mem_min, 16 * MIB);
        // Small buffers clamp msg_ind up.
        let c = CollectiveConfig::with_buffer(MIB);
        assert_eq!(c.msg_ind, 16 * MIB);
    }

    #[test]
    fn builders_override() {
        let c = CollectiveConfig::default()
            .nah(4)
            .msg_ind(MIB)
            .msg_group(8 * MIB)
            .mem_min(0)
            .align_to_stripes(1 << 20);
        assert_eq!(c.nah, 4);
        assert_eq!(c.msg_ind, MIB);
        assert_eq!(c.align_fd_to_stripes, Some(1 << 20));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_degenerate() {
        let broken = [
            CollectiveConfig {
                cb_buffer: 0,
                ..CollectiveConfig::default()
            },
            CollectiveConfig {
                nah: 0,
                ..CollectiveConfig::default()
            },
            CollectiveConfig {
                msg_group: 0,
                ..CollectiveConfig::default()
            },
            CollectiveConfig::default().align_to_stripes(0),
        ];
        for c in broken {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::TwoPhase.label(), "two-phase");
        assert_eq!(Strategy::MemoryConscious.label(), "memory-conscious");
    }
}
