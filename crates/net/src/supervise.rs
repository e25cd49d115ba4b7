//! Fleet supervision: checkpoint snapshots, health probes, and the
//! automatic respawn/re-seed state machine.
//!
//! The serve router's answer to a shard dying mid-stream. Each remote
//! worker is wrapped in a [`SupervisedShard`], which keeps two pieces of
//! recovery state beside the live [`TcpShard`]:
//!
//! * **last good baseline** — refreshed by the [`Supervisor`] on a
//!   window cadence (and whenever anything else asks the shard for its
//!   section), this is the byte-exact baseline a replacement slot is
//!   re-seeded from. Once anchored via `CHECKPOINT_BASE` the baseline
//!   is a base checkpoint plus a bounded delta chain: refreshes ask
//!   `DELTA_SINCE(tip)` and ship only changed bytes, and the supervisor
//!   compacts the chain locally when its cost exceeds a full snapshot;
//! * **replay journal** — every snapshot ingested since that baseline,
//!   in order. Bounded: past [`SupervisorConfig::journal_limit`] the
//!   shard first tries to refresh its baseline (which empties the
//!   journal); if the shard is unreachable the journal is declared
//!   overflowed and recovery escalates a typed error instead of
//!   replaying an incomplete history.
//!
//! When an ingest fails with a `Net`-kinded error — connection gone,
//! truncated frame, or the server answering "no such slot" after a
//! restart — the shard runs the recovery state machine: reconnect with
//! capped exponential backoff plus seeded jitter, `SHUTDOWN_SLOT` (idempotent)
//! to clear any half-alive slot, `INIT` from the baseline, re-key the
//! generation, then replay the journal in ingest order. Because
//! checkpoint restore is byte-exact and solves are deterministic, the
//! recovered slot reconverges *bit-identically* with a never-faulted
//! run — the chaos tests assert exactly that.
//!
//! The [`Supervisor`] itself is a small control loop over the wrapped
//! fleet: per-shard ping probes with a consecutive-failure threshold
//! (crossing it triggers the same recovery path, so a silently dead
//! shard is rebuilt before the next ingest trips over it), and periodic
//! fleet-wide checkpoint refreshes driven by [`Supervisor::tick`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use tgs_core::{TgsError, TgsErrorKind};
use tgs_engine::query::{ClusterSummary, TimelineEntry, UserSentiment};
use tgs_engine::{EngineSnapshot, EngineStats, RecoveryCounters, ShardTransport};
use tgs_linalg::DenseMatrix;

use tgs_engine::{CheckpointDelta, DeltaChain, EngineCheckpoint};

use crate::client::{Backoff, TcpShard};
use crate::fault::splitmix;

/// Tuning for the supervision layer. Defaults suit tests and the CLI;
/// the chaos harness tightens the probe cadence.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Refresh every shard's baseline checkpoint section after this many
    /// [`Supervisor::tick`] calls (one per ingested window).
    pub checkpoint_every: u64,
    /// Sleep between health-probe sweeps of the fleet.
    pub probe_interval: Duration,
    /// Consecutive probe failures before a shard is declared dead and
    /// recovered proactively.
    pub fail_threshold: u32,
    /// Maximum rebuild attempts per recovery episode.
    pub recover_attempts: u32,
    /// Base backoff between rebuild attempts; doubles per attempt, with
    /// seeded jitter in `[base/2, base]`.
    pub recover_backoff: Duration,
    /// Hard wall-clock cap on one recovery episode.
    pub recover_deadline: Duration,
    /// Snapshots the replay journal may hold before the shard must
    /// refresh its baseline (or declare overflow).
    pub journal_limit: usize,
    /// Seed for recovery-backoff jitter.
    pub jitter_seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 8,
            probe_interval: Duration::from_secs(1),
            fail_threshold: 3,
            recover_attempts: 12,
            recover_backoff: Duration::from_millis(50),
            recover_deadline: Duration::from_secs(30),
            journal_limit: 64,
            jitter_seed: 0x5EED_0F0F_CAFE_D00D,
        }
    }
}

/// The re-seed baseline a slot keeps beside its replay journal.
///
/// A deploy-time section has no server-side mark id, so it can only be
/// refreshed wholesale; once a refresh goes through `CHECKPOINT_BASE`
/// the slot holds a [`DeltaChain`] instead and subsequent refreshes
/// ship only `DELTA_SINCE(tip)` bytes, compacting locally when the
/// accumulated deltas outgrow the base.
enum Baseline {
    /// Full checkpoint bytes with no delta anchor.
    Section(Vec<u8>),
    /// Delta-capable: base checkpoint plus the chain of applied deltas,
    /// keyed by the server-side mark id at its tip.
    Chain(DeltaChain),
}

impl Baseline {
    /// The byte-exact section a replacement slot is seeded from.
    fn materialize(&self) -> Result<Vec<u8>, TgsError> {
        match self {
            Baseline::Section(bytes) => Ok(bytes.clone()),
            Baseline::Chain(chain) => Ok(chain.materialize()?.as_bytes().to_vec()),
        }
    }
}

/// Per-slot recovery state guarded by one mutex (all of it changes
/// together on the ingest/recover path).
#[derive(Default)]
struct SlotState {
    /// Byte-exact baseline a replacement slot is re-seeded from.
    last_good: Option<Baseline>,
    /// Snapshots ingested since `last_good`, in order.
    journal: Vec<EngineSnapshot>,
    /// Set when user ranges moved through this shard (export / import /
    /// absorb / sibling spawn): the journal can no longer reproduce the
    /// slot from the baseline, so recovery must escalate until the next
    /// successful checkpoint refresh re-anchors it.
    stale: bool,
    /// Set when the journal hit its bound while the shard was
    /// unreachable; replay would be incomplete, so recovery escalates.
    overflowed: bool,
}

impl SlotState {
    /// Re-bases on the server's mark `id` and the section it anchors.
    fn anchor(&mut self, id: u64, section: Vec<u8>) {
        let base = EngineCheckpoint::from_bytes(section);
        self.last_good = Some(Baseline::Chain(DeltaChain::new(id, base)));
        self.caught_up();
    }

    /// The baseline now covers every journaled snapshot.
    fn caught_up(&mut self) {
        self.journal.clear();
        self.stale = false;
        self.overflowed = false;
    }
}

/// A [`TcpShard`] wrapped with the respawn/re-seed state machine (see
/// the module docs).
pub struct SupervisedShard {
    inner: Arc<TcpShard>,
    cfg: SupervisorConfig,
    counters: Arc<RecoveryCounters>,
    /// Highest generation seen — what a rebuilt slot is re-keyed to.
    generation: AtomicU64,
    state: Mutex<SlotState>,
    /// Rebuild-attempt schedule of one recovery episode.
    backoff: Backoff,
}

impl SupervisedShard {
    /// Wraps `inner`. `baseline` is the checkpoint section the slot was
    /// deployed from — recovery can re-seed immediately, before the
    /// first periodic refresh.
    pub fn new(
        inner: Arc<TcpShard>,
        baseline: Option<Vec<u8>>,
        counters: Arc<RecoveryCounters>,
        cfg: SupervisorConfig,
    ) -> Arc<Self> {
        let backoff = Backoff::new(
            cfg.recover_backoff,
            cfg.recover_attempts,
            cfg.recover_deadline,
            splitmix(cfg.jitter_seed ^ inner.slot().rotate_left(23) ^ 0x9E37),
        );
        Arc::new(Self {
            inner,
            cfg,
            counters,
            generation: AtomicU64::new(0),
            state: Mutex::new(SlotState {
                last_good: baseline.map(Baseline::Section),
                ..Default::default()
            }),
            backoff,
        })
    }

    /// The supervised remote endpoint.
    pub fn endpoint(&self) -> &Arc<TcpShard> {
        &self.inner
    }

    /// One health probe (a wire `PING`).
    pub fn probe(&self) -> Result<(), TgsError> {
        self.inner.ping()
    }

    /// Runs the recovery state machine without a pending snapshot —
    /// the supervisor's proactive path when probes cross the failure
    /// threshold.
    pub fn recover(&self) -> Result<(), TgsError> {
        self.recover_and_replay(self.generation.load(Ordering::Relaxed), None)
    }

    /// Advances the slot's baseline to the shard's current state,
    /// shipping only changed bytes when possible.
    ///
    /// With a delta-capable baseline this asks `DELTA_SINCE(tip)` and
    /// appends the answer to the local chain (compacting when the chain
    /// outgrows the base); an unavailable mark — aged out, or the slot
    /// was respawned with fresh marks — falls back to a full
    /// `CHECKPOINT_BASE`, which also re-anchors delta capability for a
    /// slot deployed from a plain section.
    fn refresh_locked(&self, state: &mut SlotState) -> Result<(), TgsError> {
        if let Some(Baseline::Chain(chain)) = &mut state.last_good {
            // A mark unknown on the server falls through to a full base
            // rather than failing the refresh.
            if let Some(bytes) = self.inner.delta_since(chain.tip()?)? {
                chain.push(CheckpointDelta::from_bytes(bytes))?;
                state.caught_up();
                self.counters
                    .delta_refreshes
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        let (id, section) = self.inner.checkpoint_base()?;
        state.anchor(id, section);
        Ok(())
    }

    /// Public refresh entry point (the [`Supervisor`]'s checkpoint
    /// cadence lands here): delta-first baseline advance.
    pub fn refresh_baseline(&self) -> Result<(), TgsError> {
        let mut state = self.state.lock();
        self.refresh_locked(&mut state)
    }

    /// Records a successfully ingested snapshot in the journal,
    /// refreshing the baseline when the journal hits its bound.
    fn record(&self, snapshot: EngineSnapshot) -> Result<(), TgsError> {
        let mut state = self.state.lock();
        state.journal.push(snapshot);
        if state.journal.len() <= self.cfg.journal_limit {
            return Ok(());
        }
        // Bound reached: fold the journal into a fresh baseline (the
        // refresh drains the worker queue first, so everything in the
        // journal is already covered by the state we anchor to).
        match self.refresh_locked(&mut state) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Unreachable shard with a full journal: any future
                // replay would be incomplete. Escalate rather than
                // silently dropping history.
                state.journal.clear();
                state.overflowed = true;
                Err(TgsError::net(
                    self.inner.peer(),
                    format!(
                        "replay journal overflowed ({} snapshots) and baseline refresh failed: {e}",
                        self.cfg.journal_limit
                    ),
                ))
            }
        }
    }

    /// The recovery state machine: [`SupervisedShard::try_rebuild`]
    /// under the slot's [`Backoff`] (attempt cap, wall-clock deadline,
    /// seeded jitter so recoveries across shards desynchronise).
    fn recover_and_replay(
        &self,
        generation: u64,
        pending: Option<EngineSnapshot>,
    ) -> Result<(), TgsError> {
        let mut state = self.state.lock();
        if state.stale {
            return Err(TgsError::net(
                self.inner.peer(),
                "cannot recover: user ranges moved since the last checkpoint (journal is stale)",
            ));
        }
        if state.overflowed {
            return Err(TgsError::net(
                self.inner.peer(),
                "cannot recover: replay journal overflowed while the shard was unreachable",
            ));
        }
        let baseline = match &state.last_good {
            Some(b) => b.materialize()?,
            None => {
                return Err(TgsError::net(
                    self.inner.peer(),
                    "cannot recover: no checkpoint baseline recorded for this slot",
                ));
            }
        };

        let replayed = self.backoff.run(|| {
            self.try_rebuild(generation, &baseline, &state.journal, pending.as_ref())
                .map_err(|e| (true, e))
        })?;
        if let Some(snapshot) = pending {
            state.journal.push(snapshot);
        }
        // The respawned slot is a fresh engine with fresh delta marks — a
        // chain tip id kept across the rebuild could collide with a newly
        // minted mark on unrelated state. Demote to a plain section; the
        // next refresh re-anchors delta capability with a full
        // CHECKPOINT_BASE.
        state.last_good = Some(Baseline::Section(baseline));
        self.counters.respawns.fetch_add(1, Ordering::Relaxed);
        self.counters
            .replayed_docs
            .fetch_add(replayed, Ordering::Relaxed);
        Ok(())
    }

    /// One rebuild attempt: reconnect, clear the slot, re-seed from the
    /// baseline, re-key the generation, replay the journal in order.
    /// Returns the number of replayed documents.
    fn try_rebuild(
        &self,
        generation: u64,
        baseline: &[u8],
        journal: &[EngineSnapshot],
        pending: Option<&EngineSnapshot>,
    ) -> Result<u64, TgsError> {
        // Drop any wedged connection so the next call re-dials.
        self.inner.disconnect();
        self.inner.ping()?;
        // SHUTDOWN_SLOT is idempotent: clears a half-alive slot on a
        // surviving server, no-ops on a freshly restarted (empty) one.
        self.inner.shutdown()?;
        self.inner.init(baseline)?;
        self.inner.set_generation(generation)?;
        let mut replayed = 0u64;
        for snapshot in journal.iter().chain(pending) {
            replayed += snapshot.len() as u64;
            self.inner.ingest(generation, snapshot.clone())?;
        }
        // Drain the replay before declaring the slot recovered, so the
        // caller's next query sees the reconverged state.
        self.inner.flush()?;
        Ok(replayed)
    }

    /// Whether `e` means "the slot is gone but a rebuild could bring it
    /// back" — the class recovery keys on.
    fn recoverable(e: &TgsError) -> bool {
        e.kind() == TgsErrorKind::Net
    }
}

impl ShardTransport for SupervisedShard {
    fn ingest(&self, generation: u64, snapshot: EngineSnapshot) -> Result<(), TgsError> {
        self.generation.fetch_max(generation, Ordering::Relaxed);
        match self.inner.ingest(generation, snapshot.clone()) {
            Ok(()) => self.record(snapshot),
            Err(e) if Self::recoverable(&e) => self.recover_and_replay(generation, Some(snapshot)),
            Err(e) => Err(e),
        }
    }

    fn timeline(&self, generation: u64, lo: u64, hi: u64) -> Result<Vec<TimelineEntry>, TgsError> {
        self.inner.timeline(generation, lo, hi)
    }

    fn latest_timestamp(&self, generation: u64) -> Result<Option<u64>, TgsError> {
        self.inner.latest_timestamp(generation)
    }

    fn user_sentiment(
        &self,
        generation: u64,
        user: usize,
        at: u64,
    ) -> Result<UserSentiment, TgsError> {
        self.inner.user_sentiment(generation, user, at)
    }

    fn user_timeline(
        &self,
        generation: u64,
        user: usize,
    ) -> Result<Vec<(u64, Vec<f64>)>, TgsError> {
        self.inner.user_timeline(generation, user)
    }

    fn known_users(&self, generation: u64) -> Result<usize, TgsError> {
        self.inner.known_users(generation)
    }

    fn cluster_summary(&self, generation: u64, t: u64) -> Result<ClusterSummary, TgsError> {
        self.inner.cluster_summary(generation, t)
    }

    fn sf_at(&self, generation: u64, t: u64) -> Result<DenseMatrix, TgsError> {
        self.inner.sf_at(generation, t)
    }

    fn flush(&self) -> Result<u64, TgsError> {
        self.inner.flush()
    }

    fn stats(&self) -> Result<EngineStats, TgsError> {
        self.inner.stats()
    }

    fn queue_has_room(&self) -> Result<bool, TgsError> {
        self.inner.queue_has_room()
    }

    fn timestamps(&self) -> Result<Vec<u64>, TgsError> {
        self.inner.timestamps()
    }

    fn k(&self) -> Result<usize, TgsError> {
        self.inner.k()
    }

    fn vocab_tokens(&self) -> Result<Vec<String>, TgsError> {
        self.inner.vocab_tokens()
    }

    fn user_factor(&self, user: usize) -> Result<Option<Vec<f64>>, TgsError> {
        self.inner.user_factor(user)
    }

    fn checkpoint_section(&self) -> Result<Vec<u8>, TgsError> {
        // Same bytes as a plain section read, but `CHECKPOINT_BASE`
        // also mints a delta mark — so a full fetch doubles as the
        // anchor for O(changes) refreshes afterwards.
        self.checkpoint_base().map(|(_, section)| section)
    }

    fn checkpoint_base(&self) -> Result<(u64, Vec<u8>), TgsError> {
        let (id, section) = self.inner.checkpoint_base()?;
        self.state.lock().anchor(id, section.clone());
        Ok((id, section))
    }

    fn delta_since(&self, base_id: u64) -> Result<Option<Vec<u8>>, TgsError> {
        // Pass-through: the caller's base id is their own anchor, not
        // this slot's local chain tip.
        self.inner.delta_since(base_id)
    }

    fn export_users(&self, lo: usize, hi: usize) -> Result<Vec<u8>, TgsError> {
        let out = self.inner.export_users(lo, hi)?;
        // User rows left this slot: the baseline+journal pair no longer
        // reproduces it. Stale until the next checkpoint refresh.
        self.state.lock().stale = true;
        Ok(out)
    }

    fn import_users(&self, users: &[u8]) -> Result<(), TgsError> {
        self.inner.import_users(users)?;
        self.state.lock().stale = true;
        Ok(())
    }

    fn spawn_sibling(&self) -> Result<Arc<dyn ShardTransport>, TgsError> {
        let sibling = self.inner.spawn_sibling()?;
        self.state.lock().stale = true;
        Ok(sibling)
    }

    fn absorb_section(&self, section: &[u8]) -> Result<(), TgsError> {
        self.inner.absorb_section(section)?;
        self.state.lock().stale = true;
        Ok(())
    }

    fn set_generation(&self, generation: u64) -> Result<(), TgsError> {
        self.generation.fetch_max(generation, Ordering::Relaxed);
        self.inner.set_generation(generation)
    }

    fn request_core_set(&self, set_index: usize, n_sets: usize) {
        self.inner.request_core_set(set_index, n_sets);
    }

    fn shutdown(&self) -> Result<(), TgsError> {
        self.inner.shutdown()
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

/// The fleet-wide control loop: periodic checkpoint refreshes (driven by
/// [`Supervisor::tick`] from the ingest loop) and a background probe
/// thread with threshold-triggered proactive recovery.
pub struct Supervisor {
    shards: Vec<Arc<SupervisedShard>>,
    counters: Arc<RecoveryCounters>,
    cfg: SupervisorConfig,
    windows: AtomicU64,
    fail_counts: Mutex<Vec<u32>>,
    stop: Arc<AtomicBool>,
    probe_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Supervisor {
    /// Builds a supervisor over an already-wrapped fleet.
    pub fn new(
        shards: Vec<Arc<SupervisedShard>>,
        counters: Arc<RecoveryCounters>,
        cfg: SupervisorConfig,
    ) -> Arc<Self> {
        let n = shards.len();
        Arc::new(Self {
            shards,
            counters,
            cfg,
            windows: AtomicU64::new(0),
            fail_counts: Mutex::new(vec![0; n]),
            stop: Arc::new(AtomicBool::new(false)),
            probe_thread: Mutex::new(None),
        })
    }

    /// The shared recovery counters (also overlaid onto the router's
    /// merged [`EngineStats`]).
    pub fn counters(&self) -> Arc<RecoveryCounters> {
        Arc::clone(&self.counters)
    }

    /// Notes one ingested window; every
    /// [`SupervisorConfig::checkpoint_every`]-th call refreshes the
    /// fleet's checkpoint baselines.
    pub fn tick(&self) {
        let n = self.windows.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.cfg.checkpoint_every.max(1)) {
            self.refresh_checkpoints();
        }
    }

    /// Best-effort fleet-wide baseline refresh (on-quiesce entry point:
    /// the CLI calls this once after the stream drains). Delta-first:
    /// anchored shards ship only changed bytes. A shard that is down
    /// keeps its previous baseline — recovery re-seeds from that and
    /// replays the journal instead.
    pub fn refresh_checkpoints(&self) {
        for shard in &self.shards {
            let _ = shard.refresh_baseline();
        }
    }

    /// One probe sweep: ping every shard, count consecutive failures,
    /// and proactively recover any shard that crossed the threshold.
    pub fn probe_once(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            let healthy = shard.probe().is_ok();
            let mut fails = self.fail_counts.lock();
            if healthy {
                fails[i] = 0;
                continue;
            }
            fails[i] += 1;
            if fails[i] >= self.cfg.fail_threshold.max(1) {
                fails[i] = 0;
                drop(fails);
                let _ = shard.recover();
            }
        }
    }

    /// Starts the background probe loop. Idempotent; stopped by
    /// [`Supervisor::stop`].
    pub fn start_probes(self: &Arc<Self>) {
        let mut guard = self.probe_thread.lock();
        if guard.is_some() {
            return;
        }
        let sup = Arc::clone(self);
        let stop = Arc::clone(&self.stop);
        *guard = Some(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                sup.probe_once();
                // stop() unparks the thread, so it returns promptly even
                // with a slow probe cadence.
                std::thread::park_timeout(sup.cfg.probe_interval);
            }
        }));
    }

    /// Stops and joins the probe loop (no-op if it never started).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.probe_thread.lock().take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop();
    }
}
