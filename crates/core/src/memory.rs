//! Per-process memory budgets.
//!
//! The paper's evaluation assigns each process an aggregation-buffer
//! budget drawn from a normal distribution whose mean equals the
//! baseline's fixed buffer size ("the standard deviation was set as 50").
//! The baseline uses whatever budget its pre-designated aggregator
//! happens to have; the memory-conscious strategy inspects budgets when
//! placing aggregators. [`ProcMemory`] carries those budgets.

use mcio_cluster::{Rank, TruncatedNormal};
use mcio_des::OnlineStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Memory budgets for every rank of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcMemory {
    budgets: Vec<u64>,
}

impl ProcMemory {
    /// Every rank gets the same budget (the homogeneous baseline setup).
    pub fn uniform(nranks: usize, budget: u64) -> Self {
        ProcMemory {
            budgets: vec![budget; nranks],
        }
    }

    /// The paper's heterogeneous setup: budgets drawn from a truncated
    /// normal with the given mean and *relative* standard deviation
    /// (0.5 ≈ the paper's "50"), deterministic in `seed`.
    pub fn normal(nranks: usize, mean: u64, relative_stddev: f64, seed: u64) -> Self {
        let dist = TruncatedNormal::paper_buffers(mean as f64, relative_stddev);
        let mut rng = StdRng::seed_from_u64(seed);
        ProcMemory {
            budgets: dist
                .sample_n(&mut rng, nranks)
                .into_iter()
                .map(|b| (b.max(1.0)) as u64)
                .collect(),
        }
    }

    /// Explicit budgets (tests, failure injection).
    pub fn from_budgets(budgets: Vec<u64>) -> Self {
        ProcMemory { budgets }
    }

    /// Number of ranks covered.
    pub fn nranks(&self) -> usize {
        self.budgets.len()
    }

    /// The budget of one rank.
    pub fn budget(&self, rank: Rank) -> u64 {
        self.budgets[rank.0]
    }

    /// Raw budget slice in rank order.
    pub fn budgets(&self) -> &[u64] {
        &self.budgets
    }

    /// Distribution statistics over all budgets.
    pub fn stats(&self) -> OnlineStats {
        self.budgets.iter().map(|&b| b as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_budgets() {
        let m = ProcMemory::uniform(4, 100);
        assert_eq!(m.nranks(), 4);
        assert_eq!(m.budget(Rank(3)), 100);
        assert_eq!(m.stats().stddev(), 0.0);
    }

    #[test]
    fn normal_budgets_deterministic_and_spread() {
        let a = ProcMemory::normal(100, 1000, 0.5, 42);
        let b = ProcMemory::normal(100, 1000, 0.5, 42);
        assert_eq!(a, b);
        let c = ProcMemory::normal(100, 1000, 0.5, 43);
        assert_ne!(a, c);
        let s = a.stats();
        assert!(
            s.stddev() > 100.0,
            "expected real spread, got {}",
            s.stddev()
        );
        // Truncation window keeps everything in [mean/4, 4·mean].
        assert!(s.min() >= 250.0);
        assert!(s.max() <= 4000.0);
    }

    #[test]
    fn budgets_never_zero() {
        let m = ProcMemory::normal(1000, 4, 0.5, 7);
        assert!(m.budgets().iter().all(|&b| b > 0));
    }
}
