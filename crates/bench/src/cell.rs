//! The one harness cell: *what to plan* and *how to run it*.
//!
//! Every harness of this crate — the figure sweeps, the ablation, the
//! perf matrix, `mcio_cli run` / `sweep`, the suite set-ups — measures
//! cells: plan a request for a strategy in a memory environment, replay
//! the plan on a machine. [`Harness::cell`] fills every field from the
//! paper recipe, so a call site spells only what differs:
//!
//! ```
//! # use mcio_bench::{Cell, Harness};
//! # use mcio_cluster::spec::ClusterSpec;
//! # use mcio_core::exec_sim::Pipeline;
//! # use mcio_core::{Rw, Strategy};
//! let h = Harness::new(ClusterSpec::small(4, 2), 8, 2, 42);
//! let req = mcio_workloads::Ior::paper(8, 1 << 20, 4).request(Rw::Write);
//! let cell = h.cell(Strategy::MemoryConscious, &req, 1 << 20);
//! let plan = cell.plan();
//! let serial = cell.timing(&plan);
//! let double = Cell { pipeline: Pipeline::DoubleBuffered, ..cell }.timing(&plan);
//! assert!(double.elapsed <= serial.elapsed);
//! ```
//!
//! A shared plan is a held plan: whoever needs one plan under several
//! run settings calls [`Cell::plan`] once and passes it to each run.

use crate::Harness;
use mcio_cluster::spec::ClusterSpec;
use mcio_cluster::ProcessMap;
use mcio_core::exec_sim::{simulate_observed, Exchange, Observe, Pipeline, TimingReport};
use mcio_core::{
    simulate_adaptive, AdaptivePolicy, CollectiveConfig, CollectivePlan, CollectiveRequest,
    FaultOutcome, ProcMemory, Strategy,
};
use mcio_des::SharePolicy;
use mcio_faults::FaultSpec;

/// One harness cell. The first five fields say what to plan, the last
/// four how to run the plan.
#[derive(Debug, Clone)]
pub struct Cell<'a> {
    /// Planner.
    pub strategy: Strategy,
    /// The collective.
    pub req: &'a CollectiveRequest,
    /// Process placement.
    pub map: &'a ProcessMap,
    /// Per-process available memory. Default: the normal draw around
    /// the nominal buffer ([`Harness::memories`]).
    pub mem: ProcMemory,
    /// Planner knobs. Default: [`CollectiveConfig::paper`].
    pub cfg: CollectiveConfig,
    /// Machine model.
    pub spec: &'a ClusterSpec,
    /// Round pipelining. Default: serial.
    pub pipeline: Pipeline,
    /// Exchange shape. Default: direct.
    pub exchange: Exchange,
    /// Resource engine. Default: FIFO. Overrides `Observe::engine` of
    /// every run, so the cell alone says which engine it ran under.
    pub engine: SharePolicy,
}

impl Harness {
    /// The paper-recipe cell for `req` at nominal buffer `buf`.
    pub fn cell<'a>(
        &'a self,
        strategy: Strategy,
        req: &'a CollectiveRequest,
        buf: u64,
    ) -> Cell<'a> {
        Cell {
            strategy,
            req,
            map: &self.map,
            mem: self.memories(buf).1,
            cfg: self.config_for(req, buf),
            spec: &self.spec,
            pipeline: Pipeline::Serial,
            exchange: Exchange::Direct,
            engine: SharePolicy::Fifo,
        }
    }
}

impl Cell<'_> {
    /// Plan the cell.
    pub fn plan(&self) -> CollectivePlan {
        self.strategy.plan(self.req, self.map, &self.mem, &self.cfg)
    }

    fn observe<'o>(&self, obs: Observe<'o>) -> Observe<'o> {
        Observe {
            engine: self.engine,
            ..obs
        }
    }

    /// Replay `plan` on the cell's machine, capturing what `obs` asks
    /// for; the trace comes back when `obs.trace` is set.
    pub fn run(&self, plan: &CollectivePlan, obs: Observe<'_>) -> (TimingReport, Option<String>) {
        let obs = self.observe(obs);
        simulate_observed(plan, self.map, self.spec, self.pipeline, self.exchange, obs)
    }

    /// [`run`](Self::run), unobserved.
    pub fn timing(&self, plan: &CollectivePlan) -> TimingReport {
        self.run(plan, Observe::default()).0
    }

    /// Plan and time the cell — for a plan nobody else needs.
    pub fn measure(&self) -> TimingReport {
        let plan = self.plan();
        debug_assert_eq!(plan.check(self.req), Ok(()));
        self.timing(&plan)
    }

    /// Replay `plan` under the fault plan `faults` through the
    /// resilient executor; `policy` closes the loop between rounds
    /// ([`AdaptivePolicy::Off`] is the static faulted run).
    pub fn run_faulted(
        &self,
        plan: &CollectivePlan,
        faults: &FaultSpec,
        policy: AdaptivePolicy,
        obs: Observe<'_>,
    ) -> FaultOutcome {
        simulate_adaptive(
            plan,
            self.map,
            self.spec,
            &self.mem,
            self.pipeline,
            self.exchange,
            faults,
            policy,
            self.observe(obs),
        )
    }
}
