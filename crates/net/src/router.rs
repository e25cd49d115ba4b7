//! Deploying a fleet onto remote shard servers.
//!
//! The router front-end (`tgs serve`) starts from the same place the
//! in-process path does: a deterministic cold [`ShardedEngine`] built
//! by `EngineBuilder::fit_sharded`. [`deploy_fleet`] checkpoints that
//! template, ships one section to slot 0 of each `tgs shard` server,
//! and rebuilds the router over the TCP transports — restore is exact,
//! so the remote fleet is bit-identical to the local one it was cloned
//! from.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use tgs_core::TgsError;
use tgs_data::PartitionMap;
use tgs_engine::{
    ClusterSummary, EngineSnapshot, EngineStats, FleetTips, RecoveryCounters, ShardTransport,
    ShardedEngine, TimelineEntry, UserSentiment,
};
use tgs_linalg::DenseMatrix;

use crate::client::{NetConfig, TcpShard};
use crate::supervise::{SupervisedShard, Supervisor, SupervisorConfig};

/// Ships `template`'s per-shard state to the servers at `addrs` (one
/// shard per server, slot 0) and returns a [`ShardedEngine`] routing
/// over TCP. The template is consumed: its workers shut down once
/// their state has been deployed.
///
/// Each server must be fresh (no slot 0 yet); a server that declared a
/// `--range` at launch is checked against the template's partition map
/// so a mis-wired fleet fails loudly at deploy time instead of
/// misrouting users later.
pub fn deploy_fleet(
    template: ShardedEngine,
    addrs: &[String],
    cfg: &NetConfig,
) -> Result<ShardedEngine, TgsError> {
    let (map, ghost_mode, shipped) = ship_sections(template, addrs, cfg)?;
    let transports = shipped
        .into_iter()
        .map(|(handle, _)| handle as Arc<dyn ShardTransport>)
        .collect();
    ShardedEngine::from_transports(map, transports, ghost_mode)
}

/// Like [`deploy_fleet`], but wraps every remote worker in a
/// [`SupervisedShard`] seeded with the exact section it was deployed
/// from, and returns the [`Supervisor`] controlling the fleet alongside
/// the engine. The engine's merged stats carry the supervisor's
/// recovery counters (`respawns`, `replayed_docs`, `degraded_queries`).
///
/// The caller owns the control cadence: call [`Supervisor::tick`] once
/// per ingested window (checkpoint refresh) and
/// [`Supervisor::start_probes`] for background health probing.
pub fn deploy_supervised(
    template: ShardedEngine,
    addrs: &[String],
    cfg: &NetConfig,
    sup_cfg: SupervisorConfig,
) -> Result<(ShardedEngine, Arc<Supervisor>), TgsError> {
    let (map, ghost_mode, shipped) = ship_sections(template, addrs, cfg)?;
    let counters = Arc::new(RecoveryCounters::default());
    let supervised: Vec<Arc<SupervisedShard>> = shipped
        .into_iter()
        .map(|(handle, section)| {
            SupervisedShard::new(
                handle,
                Some(section),
                Arc::clone(&counters),
                sup_cfg.clone(),
            )
        })
        .collect();
    let transports = supervised
        .iter()
        .map(|shard| Arc::clone(shard) as Arc<dyn ShardTransport>)
        .collect();
    let mut engine = ShardedEngine::from_transports(map, transports, ghost_mode)?;
    engine.set_recovery_counters(Arc::clone(&counters));
    let supervisor = Supervisor::new(supervised, counters, sup_cfg);
    Ok((engine, supervisor))
}

/// The deploy step both entry points share: checkpoints and shuts down
/// `template`, then, per server, checks its declared range against the
/// partition map and `INIT`s slot 0 with its section. Returns the map,
/// the ghost mode and each server's handle with the section it got.
#[allow(clippy::type_complexity)]
fn ship_sections(
    template: ShardedEngine,
    addrs: &[String],
    cfg: &NetConfig,
) -> Result<(PartitionMap, bool, Vec<(Arc<TcpShard>, Vec<u8>)>), TgsError> {
    if addrs.len() != template.shards() {
        return Err(TgsError::invalid_argument(format!(
            "{} shard servers for a {}-shard template",
            addrs.len(),
            template.shards()
        )));
    }
    let map = template.map();
    let ghost_mode = template.ghost_mode();
    let sections = template.checkpoint()?.sections()?;
    template.shutdown()?;

    let mut shipped = Vec::with_capacity(addrs.len());
    for (shard, (addr, section)) in addrs.iter().zip(sections).enumerate() {
        let handle = Arc::new(TcpShard::new(addr.clone(), 0, cfg.clone()));
        if let Some((lo, hi)) = handle.server_info()?.range {
            let expected = map.range(shard);
            if (lo, hi) != expected {
                return Err(TgsError::invalid_argument(format!(
                    "shard server {addr} declared user range {lo}..{hi} but the \
                     partition map assigns {}..{} to shard {shard}",
                    expected.0, expected.1
                )));
            }
        }
        handle.init(&section)?;
        shipped.push((handle, section));
    }
    Ok((map, ghost_mode, shipped))
}

/// The router itself as a [`ShardTransport`]: hosting one of these on a
/// [`crate::ShardServer`] slot is how `tgs serve --hold` answers
/// queries over the wire protocol after streaming. Data-plane reads fan
/// out through the engine's degraded-tolerant query paths, so a client
/// keeps getting (partial) answers while a shard is down and the
/// supervisor rebuilds it.
///
/// Topology verbs (`EXPORT_USERS`, `IMPORT_USERS`, `SPAWN_SIBLING`,
/// `ABSORB_SECTION`) are rejected: rebalancing a held fleet is the
/// router's job, not a remote client's.
pub struct RouterEndpoint {
    engine: Arc<ShardedEngine>,
    /// Fleet base ids handed out over `CHECKPOINT_BASE`, mapped back to
    /// the per-slot tips they anchor. Ids are content-derived
    /// ([`FleetTips::key`]), so a client holding a fleet delta can
    /// recompute its next anchor locally, and re-registering the same
    /// tips is a no-op — retries stay idempotent.
    bases: Mutex<BaseMap>,
}

/// How many distinct fleet anchors the router remembers. An evicted id
/// answers `DELTA_SINCE` with "unavailable" and the client re-bases —
/// the same degradation as an aged-out engine mark.
const ROUTER_BASE_CAP: usize = 16;

#[derive(Default)]
struct BaseMap {
    order: VecDeque<u64>,
    tips: HashMap<u64, FleetTips>,
}

impl BaseMap {
    fn insert(&mut self, id: u64, tips: FleetTips) {
        if self.tips.insert(id, tips).is_none() {
            self.order.push_back(id);
            while self.order.len() > ROUTER_BASE_CAP {
                if let Some(evicted) = self.order.pop_front() {
                    self.tips.remove(&evicted);
                }
            }
        }
    }
}

impl RouterEndpoint {
    /// Wraps a deployed router for hosting.
    pub fn new(engine: Arc<ShardedEngine>) -> Arc<Self> {
        Arc::new(Self {
            engine,
            bases: Mutex::new(BaseMap::default()),
        })
    }

    fn unsupported(verb: &str) -> TgsError {
        TgsError::invalid_argument(format!(
            "{verb} is not supported on a router endpoint (rebalancing is router-side)"
        ))
    }
}

impl ShardTransport for RouterEndpoint {
    fn ingest(&self, _generation: u64, snapshot: EngineSnapshot) -> Result<(), TgsError> {
        // The router runs its own generation bookkeeping against its
        // workers; the client-facing generation is ignored.
        self.engine.ingest(snapshot)
    }

    fn timeline(&self, _generation: u64, lo: u64, hi: u64) -> Result<Vec<TimelineEntry>, TgsError> {
        Ok(self.engine.query().timeline_partial(lo..=hi)?.value)
    }

    fn latest_timestamp(&self, _generation: u64) -> Result<Option<u64>, TgsError> {
        Ok(self
            .engine
            .query()
            .latest_partial()?
            .value
            .map(|e| e.timestamp))
    }

    fn user_sentiment(
        &self,
        _generation: u64,
        user: usize,
        at: u64,
    ) -> Result<UserSentiment, TgsError> {
        self.engine.query().user_sentiment(user, at)
    }

    fn user_timeline(
        &self,
        _generation: u64,
        user: usize,
    ) -> Result<Vec<(u64, Vec<f64>)>, TgsError> {
        self.engine.query().user_timeline(user)
    }

    fn known_users(&self, _generation: u64) -> Result<usize, TgsError> {
        Ok(self.engine.query().known_users_partial()?.value)
    }

    fn cluster_summary(&self, _generation: u64, t: u64) -> Result<ClusterSummary, TgsError> {
        self.engine.query().cluster_summary(t)
    }

    fn sf_at(&self, _generation: u64, t: u64) -> Result<DenseMatrix, TgsError> {
        self.engine.query().merged_sf(t)
    }

    fn flush(&self) -> Result<u64, TgsError> {
        self.engine.flush()
    }

    fn stats(&self) -> Result<EngineStats, TgsError> {
        Ok(self.engine.stats())
    }

    fn timestamps(&self) -> Result<Vec<u64>, TgsError> {
        Ok(self.engine.timestamps())
    }

    fn k(&self) -> Result<usize, TgsError> {
        Ok(self.engine.query().k())
    }

    fn vocab_tokens(&self) -> Result<Vec<String>, TgsError> {
        Ok(self.engine.vocabulary().tokens().to_vec())
    }

    fn user_factor(&self, user: usize) -> Result<Option<Vec<f64>>, TgsError> {
        self.engine.user_factor(user)
    }

    fn checkpoint_section(&self) -> Result<Vec<u8>, TgsError> {
        // A held fleet's "section" is the whole multi-shard checkpoint:
        // `tgs query --connect` restores it with `restore_any`.
        Ok(self.engine.checkpoint()?.as_bytes().to_vec())
    }

    fn checkpoint_base(&self) -> Result<(u64, Vec<u8>), TgsError> {
        // Fleet-level base: the full multi-shard checkpoint plus an id
        // derived from the per-slot tips it was taken at.
        let (tips, ckpt) = self.engine.checkpoint_base()?;
        let id = tips.key();
        self.bases.lock().insert(id, tips);
        Ok((id, ckpt.as_bytes().to_vec()))
    }

    fn delta_since(&self, base_id: u64) -> Result<Option<Vec<u8>>, TgsError> {
        let tips = match self.bases.lock().tips.get(&base_id) {
            Some(tips) => tips.clone(),
            // Unknown or evicted anchor: report unavailable so the
            // client re-bases, mirroring an aged-out engine mark.
            None => return Ok(None),
        };
        match self.engine.delta_since(&tips)? {
            Some(delta) => {
                // Remember the delta's own tips so the client's derived
                // next anchor (FleetTips::key over ShardedDelta::tips)
                // resolves on its next call.
                let next = delta.tips()?;
                self.bases.lock().insert(next.key(), next);
                Ok(Some(delta.as_bytes().to_vec()))
            }
            None => Ok(None),
        }
    }

    fn export_users(&self, _lo: usize, _hi: usize) -> Result<Vec<u8>, TgsError> {
        Err(Self::unsupported("EXPORT_USERS"))
    }

    fn import_users(&self, _users: &[u8]) -> Result<(), TgsError> {
        Err(Self::unsupported("IMPORT_USERS"))
    }

    fn spawn_sibling(&self) -> Result<Arc<dyn ShardTransport>, TgsError> {
        Err(Self::unsupported("SPAWN_SIBLING"))
    }

    fn absorb_section(&self, _section: &[u8]) -> Result<(), TgsError> {
        Err(Self::unsupported("ABSORB_SECTION"))
    }

    fn set_generation(&self, _generation: u64) -> Result<(), TgsError> {
        // Harmless: the router re-keys its own workers during recovery.
        Ok(())
    }

    fn shutdown(&self) -> Result<(), TgsError> {
        // Slot teardown must not kill the fleet the CLI still owns; the
        // serve loop shuts the real engine down after `run()` returns.
        Ok(())
    }

    fn peer(&self) -> String {
        "router".to_string()
    }
}
