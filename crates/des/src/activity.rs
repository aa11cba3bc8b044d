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

    /// This id as an offset into the run of activities starting at
    /// `first` (itself an `ActivityId`: the id the activity would have
    /// in a simulation that held only the run).
    pub fn relative_to(self, first: ActivityId) -> ActivityId {
        ActivityId(self.0 - first.0)
    }

    /// The inverse of [`ActivityId::relative_to`]: the id of offset
    /// `self` in a run starting at `first`.
    pub fn based_at(self, first: ActivityId) -> ActivityId {
        ActivityId(self.0 + first.0)
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

/// Owned builder for an activity: a label, an optional release time, and
/// a sequence of stages. A convenience over [`crate::Simulation::activity`],
/// which [`crate::Simulation::add_activity`] hands the three parts to.
#[derive(Debug, Clone)]
pub struct Activity {
    pub(crate) label: String,
    pub(crate) release: SimTime,
    pub(crate) stages: Vec<Stage>,
}

impl Activity {
    /// A new activity with no stages (a pure synchronization point until
    /// stages are added).
    pub fn new(label: impl Into<String>) -> Self {
        Activity {
            label: label.into(),
            release: SimTime::ZERO,
            stages: Vec::new(),
        }
    }

    /// Do not start before `t`, even if all dependencies are satisfied.
    pub fn release_at(mut self, t: SimTime) -> Self {
        self.release = t;
        self
    }

    /// Append a stage occupying `resource` for `overhead + bytes/bw`.
    pub fn stage(mut self, resource: ResourceId, bytes: u64, overhead: SimDuration) -> Self {
        self.stages.push(Stage {
            resource,
            bytes,
            overhead,
            latency_after: SimDuration::ZERO,
        });
        self
    }

    /// Append a pure delay (no resource occupied): models think time or
    /// fixed software overhead that does not contend with anything.
    pub fn delay(mut self, d: SimDuration) -> Self {
        // Modeled as a latency on a phantom zero-byte stage attached to the
        // previous stage if any; otherwise as an adjustment to the release
        // handled by the engine via a dedicated marker stage. To keep the
        // engine uniform we encode it as latency on the *previous* stage,
        // or fold it into the release time when there are no stages yet.
        match self.stages.last_mut() {
            Some(last) => last.latency_after += d,
            None => self.release += d,
        }
        self
    }

    /// The stages of this activity.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The label given at construction.
    pub fn label(&self) -> &str {
        &self.label
    }
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
    /// `next_stage..stage_end`, waiting for `deps_remaining` others.
    pub fn new(release: SimTime, next_stage: u32, stage_end: u32, deps_remaining: u32) -> Self {
        ActivityState {
            release,
            next_stage,
            stage_end,
            deps_remaining,
            started: Self::NOT_YET,
            finished: Self::NOT_YET,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_stages() {
        let r = ResourceId(0);
        let a = Activity::new("x")
            .stage(r, 10, SimDuration::ZERO)
            .stage(r, 20, SimDuration::from_nanos(5))
            .delay(SimDuration::from_nanos(7));
        assert_eq!(a.stages().len(), 2);
        assert_eq!(a.stages()[1].bytes, 20);
        assert_eq!(a.stages()[1].latency_after, SimDuration::from_nanos(7));
        assert_eq!(a.label(), "x");
    }

    #[test]
    fn an_activity_row_is_40_bytes() {
        assert_eq!(std::mem::size_of::<ActivityState>(), 40);
    }

    #[test]
    fn delay_with_no_stages_moves_release() {
        let a = Activity::new("d").delay(SimDuration::from_secs(1));
        assert_eq!(a.release, SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn delay_after_stage_becomes_latency() {
        let r = ResourceId(0);
        let a = Activity::new("d")
            .stage(r, 1, SimDuration::ZERO)
            .delay(SimDuration::from_secs(2));
        assert_eq!(a.stages()[0].latency_after, SimDuration::from_secs(2));
    }
}
