//! The two naive online strategies the paper compares against
//! (§4, §5.2):
//!
//! * **mini-batch** — run the offline solver on each snapshot
//!   independently (fast, forgets everything);
//! * **full-batch** — rerun the offline solver on all data accumulated so
//!   far at every timestamp (accurate, increasingly expensive).

use std::time::{Duration, Instant};

use tgs_core::{solve_offline, OfflineConfig, OfflineResult, TriInput};

/// One timed offline solve.
#[derive(Debug, Clone)]
pub struct TimedResult {
    /// The solver output.
    pub result: OfflineResult,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
}

/// Mini-batch driver: each snapshot is clustered from scratch.
#[derive(Debug, Clone)]
pub struct MiniBatch {
    config: OfflineConfig,
    step: u64,
}

impl MiniBatch {
    /// Creates the driver.
    pub fn new(config: OfflineConfig) -> Self {
        config.validate();
        Self { config, step: 0 }
    }

    /// Solves one snapshot independently (seed rotates per step so runs
    /// are deterministic but not identical).
    pub fn step(&mut self, input: &TriInput<'_>) -> TimedResult {
        let mut cfg = self.config.clone();
        cfg.seed = self
            .config
            .seed
            .wrapping_add(self.step.wrapping_mul(0x9E37_79B9));
        self.step += 1;
        let start = Instant::now();
        let result = solve_offline(input, &cfg);
        TimedResult {
            result,
            elapsed: start.elapsed(),
        }
    }
}

/// Full-batch driver: the caller passes the *cumulative* input (all data
/// up to the current timestamp); each call re-clusters everything.
#[derive(Debug, Clone)]
pub struct FullBatch {
    config: OfflineConfig,
    step: u64,
}

impl FullBatch {
    /// Creates the driver.
    pub fn new(config: OfflineConfig) -> Self {
        config.validate();
        Self { config, step: 0 }
    }

    /// Re-solves on the cumulative input.
    pub fn step(&mut self, cumulative_input: &TriInput<'_>) -> TimedResult {
        let mut cfg = self.config.clone();
        cfg.seed = self
            .config
            .seed
            .wrapping_add(self.step.wrapping_mul(0x9E37_79B9));
        self.step += 1;
        let start = Instant::now();
        let result = solve_offline(cumulative_input, &cfg);
        TimedResult {
            result,
            elapsed: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgs_graph::UserGraph;
    use tgs_linalg::{CsrMatrix, DenseMatrix};

    fn snapshot() -> (CsrMatrix, CsrMatrix, CsrMatrix, UserGraph, DenseMatrix) {
        let xp =
            CsrMatrix::from_triplets(4, 4, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)])
                .unwrap();
        let xu = CsrMatrix::from_triplets(2, 4, &[(0, 0, 1.0), (1, 2, 1.0)]).unwrap();
        let xr =
            CsrMatrix::from_triplets(2, 4, &[(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
                .unwrap();
        let graph = UserGraph::empty(2);
        let sf0 = DenseMatrix::filled(4, 2, 0.5);
        (xp, xu, xr, graph, sf0)
    }

    #[test]
    fn minibatch_rotates_seeds_deterministically() {
        let (xp, xu, xr, graph, sf0) = snapshot();
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let cfg = OfflineConfig {
            k: 2,
            max_iters: 10,
            ..Default::default()
        };
        let mut a = MiniBatch::new(cfg.clone());
        let mut b = MiniBatch::new(cfg);
        let r1a = a.step(&input);
        let r2a = a.step(&input);
        let r1b = b.step(&input);
        assert_eq!(
            r1a.result.objective, r1b.result.objective,
            "same step, same seed"
        );
        assert_ne!(
            r1a.result.factors.sp.as_slice(),
            r2a.result.factors.sp.as_slice(),
            "different steps use different seeds"
        );
    }

    #[test]
    fn fullbatch_times_each_solve() {
        let (xp, xu, xr, graph, sf0) = snapshot();
        let input = TriInput {
            xp: &xp,
            xu: &xu,
            xr: &xr,
            graph: &graph,
            sf0: &sf0,
        };
        let cfg = OfflineConfig {
            k: 2,
            max_iters: 5,
            ..Default::default()
        };
        let mut fb = FullBatch::new(cfg);
        let r = fb.step(&input);
        assert!(r.elapsed.as_nanos() > 0);
    }
}
