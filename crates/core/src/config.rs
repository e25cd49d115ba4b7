//! Solver configurations.

use crate::error::TgsError;
use crate::factors::InitStrategy;

/// Builds the [`TgsError::InvalidConfig`] for a failed bound check.
fn config_err(field: &'static str, message: impl Into<String>) -> TgsError {
    TgsError::InvalidConfig {
        field,
        message: message.into(),
    }
}

fn check(ok: bool, field: &'static str, message: &str) -> Result<(), TgsError> {
    if ok {
        Ok(())
    } else {
        Err(config_err(field, message))
    }
}

/// Configuration of the offline solver (Algorithm 1).
#[derive(Debug, Clone)]
pub struct OfflineConfig {
    /// Number of sentiment clusters `k` (2 or 3 in the paper).
    pub k: usize,
    /// Lexicon-regularization weight `α ∈ [0, 1]` (Eq. 5). The paper's
    /// balanced choice for offline experiments is 0.05.
    pub alpha: f64,
    /// Graph-regularization weight `β ∈ [0, 1]` (Eq. 6); paper uses 0.8.
    pub beta: f64,
    /// Iteration cap (the paper observes convergence within 10–100).
    pub max_iters: usize,
    /// Relative objective-change tolerance for early stopping.
    pub tol: f64,
    /// RNG seed for factor initialization.
    pub seed: u64,
    /// Factor initialization strategy.
    pub init: InitStrategy,
    /// Record the per-component objective after every iteration
    /// (needed by Fig. 8; costs one extra objective evaluation per
    /// iteration).
    pub track_objective: bool,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        Self {
            k: 3,
            alpha: 0.05,
            beta: 0.8,
            max_iters: 100,
            tol: 1e-5,
            seed: 42,
            init: InitStrategy::default(),
            track_objective: false,
        }
    }
}

impl OfflineConfig {
    /// Checks every field against its documented domain, reporting the
    /// first violation as [`TgsError::InvalidConfig`].
    pub fn try_validate(&self) -> Result<(), TgsError> {
        check(
            self.k >= 2,
            "k",
            &format!("need at least two clusters, got {}", self.k),
        )?;
        check(
            (0.0..=1.0).contains(&self.alpha),
            "alpha",
            "alpha must be in [0, 1]",
        )?;
        check(
            (0.0..=1.0).contains(&self.beta),
            "beta",
            "beta must be in [0, 1]",
        )?;
        check(
            self.max_iters > 0,
            "max_iters",
            "max_iters must be positive",
        )?;
        check(self.tol >= 0.0, "tol", "tol must be non-negative")
    }

    /// Panicking wrapper around [`OfflineConfig::try_validate`].
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// Configuration of the online solver (Algorithm 2).
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Number of clusters.
    pub k: usize,
    /// Temporal feature-regularization weight `α` (pulls `Sf(t)` toward
    /// `Sfw(t)`); paper's best online value is 0.9.
    pub alpha: f64,
    /// Graph-regularization weight `β`; paper keeps 0.8 online.
    pub beta: f64,
    /// Temporal user-regularization weight `γ` (pulls evolving users
    /// toward `Suw(t)`); paper's best is 0.2.
    pub gamma: f64,
    /// Time-decay factor `τ ∈ (0, 1]` of the window aggregation;
    /// paper's best is 0.9.
    pub tau: f64,
    /// Window size `w` (the paper uses `w = 2` with daily timestamps:
    /// aggregate the previous `w − 1` snapshots).
    pub window: usize,
    /// Iteration cap per snapshot.
    pub max_iters: usize,
    /// Relative objective-change tolerance.
    pub tol: f64,
    /// RNG seed.
    pub seed: u64,
    /// Initialization for the *first* snapshot (later snapshots are
    /// warm-started from the window per Algorithm 2 line 1).
    pub init: InitStrategy,
    /// Record per-component objectives each iteration.
    pub track_objective: bool,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            k: 3,
            alpha: 0.9,
            beta: 0.8,
            gamma: 0.2,
            tau: 0.9,
            window: 2,
            max_iters: 60,
            tol: 1e-5,
            seed: 42,
            init: InitStrategy::default(),
            track_objective: false,
        }
    }
}

impl OnlineConfig {
    /// Checks every field against its documented domain, reporting the
    /// first violation as [`TgsError::InvalidConfig`].
    pub fn try_validate(&self) -> Result<(), TgsError> {
        check(
            self.k >= 2,
            "k",
            &format!("need at least two clusters, got {}", self.k),
        )?;
        check(
            (0.0..=1.0).contains(&self.alpha),
            "alpha",
            "alpha must be in [0, 1]",
        )?;
        check(
            (0.0..=1.0).contains(&self.beta),
            "beta",
            "beta must be in [0, 1]",
        )?;
        check(
            (0.0..=1.0).contains(&self.gamma),
            "gamma",
            "gamma must be in [0, 1]",
        )?;
        check(
            self.tau > 0.0 && self.tau <= 1.0,
            "tau",
            "tau must be in (0, 1]",
        )?;
        check(self.window >= 1, "window", "window must be >= 1")?;
        check(
            self.max_iters > 0,
            "max_iters",
            "max_iters must be positive",
        )?;
        check(self.tol >= 0.0, "tol", "tol must be non-negative")
    }

    /// Panicking wrapper around [`OnlineConfig::try_validate`].
    pub(crate) fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        OfflineConfig::default().validate();
        OnlineConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn offline_bad_alpha() {
        OfflineConfig {
            alpha: 2.0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "tau must be in (0, 1]")]
    fn online_bad_tau() {
        OnlineConfig {
            tau: 0.0,
            ..Default::default()
        }
        .validate();
    }
}
