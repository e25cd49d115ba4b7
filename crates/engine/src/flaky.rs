//! An in-process fault seam for the [`ShardTransport`] surface.
//!
//! [`FlakyShard`] decorates any transport with a switchable outage:
//! while [`FlakyShard::set_down`] holds it down, every call answers a
//! typed [`TgsError::Net`] — exactly what a dead TCP peer surfaces —
//! without sockets, servers, or timing. Degraded-query and supervision
//! tests flip the switch mid-scenario to prove the router's partial
//! fan-out and recovery paths against a deterministic failure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tgs_core::TgsError;
use tgs_linalg::DenseMatrix;

use crate::engine::EngineStats;
use crate::query::{ClusterSummary, TimelineEntry, UserSentiment};
use crate::snapshot::EngineSnapshot;
use crate::transport::ShardTransport;

/// A [`ShardTransport`] decorator that can simulate a dead peer on
/// demand (see the module docs).
pub struct FlakyShard {
    inner: Arc<dyn ShardTransport>,
    down: AtomicBool,
    /// Calls rejected while down — lets tests assert the outage was
    /// actually exercised.
    rejected: AtomicU64,
}

impl FlakyShard {
    /// Wraps `inner`, initially healthy.
    pub fn new(inner: Arc<dyn ShardTransport>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            down: AtomicBool::new(false),
            rejected: AtomicU64::new(0),
        })
    }

    /// Switches the simulated outage on or off.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Relaxed);
    }

    /// Calls rejected while down so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// `Ok(())` when healthy; the typed outage error when down.
    fn check(&self) -> Result<(), TgsError> {
        if self.down.load(Ordering::Relaxed) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            Err(TgsError::net(self.peer(), "simulated outage (FlakyShard)"))
        } else {
            Ok(())
        }
    }
}

impl ShardTransport for FlakyShard {
    fn ingest(&self, generation: u64, snapshot: EngineSnapshot) -> Result<(), TgsError> {
        self.check()?;
        self.inner.ingest(generation, snapshot)
    }

    fn timeline(&self, generation: u64, lo: u64, hi: u64) -> Result<Vec<TimelineEntry>, TgsError> {
        self.check()?;
        self.inner.timeline(generation, lo, hi)
    }

    fn latest_timestamp(&self, generation: u64) -> Result<Option<u64>, TgsError> {
        self.check()?;
        self.inner.latest_timestamp(generation)
    }

    fn user_sentiment(
        &self,
        generation: u64,
        user: usize,
        at: u64,
    ) -> Result<UserSentiment, TgsError> {
        self.check()?;
        self.inner.user_sentiment(generation, user, at)
    }

    fn user_timeline(
        &self,
        generation: u64,
        user: usize,
    ) -> Result<Vec<(u64, Vec<f64>)>, TgsError> {
        self.check()?;
        self.inner.user_timeline(generation, user)
    }

    fn known_users(&self, generation: u64) -> Result<usize, TgsError> {
        self.check()?;
        self.inner.known_users(generation)
    }

    fn cluster_summary(&self, generation: u64, t: u64) -> Result<ClusterSummary, TgsError> {
        self.check()?;
        self.inner.cluster_summary(generation, t)
    }

    fn sf_at(&self, generation: u64, t: u64) -> Result<DenseMatrix, TgsError> {
        self.check()?;
        self.inner.sf_at(generation, t)
    }

    fn flush(&self) -> Result<u64, TgsError> {
        self.check()?;
        self.inner.flush()
    }

    fn stats(&self) -> Result<EngineStats, TgsError> {
        self.check()?;
        self.inner.stats()
    }

    fn queue_has_room(&self) -> Result<bool, TgsError> {
        self.check()?;
        self.inner.queue_has_room()
    }

    fn timestamps(&self) -> Result<Vec<u64>, TgsError> {
        self.check()?;
        self.inner.timestamps()
    }

    fn k(&self) -> Result<usize, TgsError> {
        self.check()?;
        self.inner.k()
    }

    fn vocab_tokens(&self) -> Result<Vec<String>, TgsError> {
        self.check()?;
        self.inner.vocab_tokens()
    }

    fn user_factor(&self, user: usize) -> Result<Option<Vec<f64>>, TgsError> {
        self.check()?;
        self.inner.user_factor(user)
    }

    fn checkpoint_section(&self) -> Result<Vec<u8>, TgsError> {
        self.check()?;
        self.inner.checkpoint_section()
    }

    fn checkpoint_base(&self) -> Result<(u64, Vec<u8>), TgsError> {
        self.check()?;
        self.inner.checkpoint_base()
    }

    fn delta_since(&self, base_id: u64) -> Result<Option<Vec<u8>>, TgsError> {
        self.check()?;
        self.inner.delta_since(base_id)
    }

    fn export_users(&self, lo: usize, hi: usize) -> Result<Vec<u8>, TgsError> {
        self.check()?;
        self.inner.export_users(lo, hi)
    }

    fn import_users(&self, users: &[u8]) -> Result<(), TgsError> {
        self.check()?;
        self.inner.import_users(users)
    }

    fn spawn_sibling(&self) -> Result<Arc<dyn ShardTransport>, TgsError> {
        self.check()?;
        // The sibling is a fresh worker: it gets its own (healthy)
        // switch rather than inheriting this one's outage state.
        Ok(FlakyShard::new(self.inner.spawn_sibling()?) as Arc<dyn ShardTransport>)
    }

    fn absorb_section(&self, section: &[u8]) -> Result<(), TgsError> {
        self.check()?;
        self.inner.absorb_section(section)
    }

    fn set_generation(&self, generation: u64) -> Result<(), TgsError> {
        self.check()?;
        self.inner.set_generation(generation)
    }

    fn shutdown(&self) -> Result<(), TgsError> {
        // Teardown proceeds even mid-outage: a real dead peer's slot is
        // released server-side when it restarts, and tests must be able
        // to drop a fleet without first healing every shard.
        self.inner.shutdown()
    }

    fn peer(&self) -> String {
        format!("flaky:{}", self.inner.peer())
    }
}
