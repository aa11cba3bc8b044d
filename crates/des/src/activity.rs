//! Activities: units of work flowing through resource stages.
//!
//! An activity models one logical operation in the system — an inter-node
//! message, a file-system request piece, a barrier — as an ordered sequence
//! of [`Stage`]s, each of which occupies one FIFO resource. Dependencies
//! between activities form a DAG; the engine releases an activity once all
//! of its predecessors have completed.

use crate::resource::ResourceId;
use crate::time::{SimDuration, SimTime};

/// Identifier of an activity within a [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActivityId(pub(crate) u32);

impl ActivityId {
    /// The index of this activity in the simulation's activity table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One hop of an activity through a resource.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// Resource this stage occupies.
    pub resource: ResourceId,
    /// Bytes pushed through the resource.
    pub bytes: u64,
    /// Fixed setup cost added to the service time.
    pub overhead: SimDuration,
    /// Propagation delay the activity waits out *after* releasing the
    /// resource, without occupying anything (e.g. wire latency).
    pub latency_after: SimDuration,
}

/// Engine-internal per-activity state: one plain row of the activity
/// table, 40 bytes. The stages, the label and the dependents live in
/// the simulation's shared arenas; the row holds only its window into
/// the stage arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActivityState {
    pub release: SimTime,
    /// The stages still to run are `next_stage..stage_end` of the stage
    /// arena; the activity completes when the two meet.
    pub next_stage: u32,
    pub stage_end: u32,
    pub deps_remaining: u32,
    /// When the activity started, [`ActivityState::NOT_YET`] before.
    pub started: SimTime,
    /// When the activity completed, [`ActivityState::NOT_YET`] before.
    pub finished: SimTime,
}

impl ActivityState {
    /// The "not yet" instant of `started` and `finished`. A clock that
    /// saturates (a stall lasting to the end of representable time) can
    /// reach it too, so it means "not yet" only for an activity that
    /// still waits for a dependency: one whose dependencies all
    /// completed always starts and finishes.
    pub const NOT_YET: SimTime = SimTime::MAX;

    /// The row of an activity registered with its stages at
    /// `next_stage..stage_end`, waiting for nothing until `add_dep`
    /// says otherwise.
    pub fn new(release: SimTime, next_stage: u32, stage_end: u32) -> Self {
        ActivityState {
            release,
            next_stage,
            stage_end,
            deps_remaining: 0,
            started: Self::NOT_YET,
            finished: Self::NOT_YET,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_activity_row_is_40_bytes() {
        assert_eq!(std::mem::size_of::<ActivityState>(), 40);
    }
}
