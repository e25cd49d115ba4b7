//! Fleet supervision: checkpoint snapshots, health probes, and the
//! automatic respawn/re-seed state machine.
//!
//! The serve router's answer to a shard dying mid-stream. Each remote
//! worker is wrapped in a [`SupervisedShard`], which keeps two pieces of
//! recovery state beside the live [`TcpShard`]:
//!
//! * **last good baseline** — refreshed by the [`Supervisor`] on a
//!   window cadence (and whenever anything else asks the shard for its
//!   section), this is what a replacement slot is re-seeded from: a
//!   base section, the deltas pulled on top of it, and the server mark
//!   at their tip. While the retained deltas are no larger than the
//!   base, a refresh asks `DELTA_SINCE(tip)` and ships only changed
//!   bytes; otherwise it re-anchors with a fresh `CHECKPOINT_BASE`.
//!   Deltas are folded into the base only when a rebuild needs it;
//! * **replay journal** — every snapshot ingested since that baseline,
//!   in order. Bounded: past [`SupervisorConfig::journal_limit`] the
//!   shard first tries to refresh its baseline (which empties the
//!   journal); if the shard is unreachable the journal is declared
//!   overflowed and recovery escalates a typed error instead of
//!   replaying an incomplete history.
//!
//! Each slot's lock is held across the shard call that changes either
//! piece, so a concurrent checkpoint anchors wholly before or after an
//! ingest and the pair stays in step with the shard.
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

use tgs_engine::{CheckpointDelta, EngineCheckpoint, SentimentEngine};

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

/// The re-seed baseline a slot keeps beside its replay journal: a base
/// section, the `DELTA_SINCE` answers pulled on top of it, and the
/// server mark at their tip.
struct Baseline {
    base: Vec<u8>,
    deltas: Vec<CheckpointDelta>,
    /// `None` for a deploy-time or post-respawn section: no mark of the
    /// live slot anchors it, so the next refresh must re-anchor.
    tip: Option<u64>,
}

impl Baseline {
    fn new(tip: Option<u64>, base: Vec<u8>) -> Self {
        Self {
            base,
            deltas: Vec::new(),
            tip,
        }
    }

    /// Serialized size of the retained deltas.
    fn delta_bytes(&self) -> usize {
        self.deltas.iter().map(CheckpointDelta::len).sum()
    }

    /// The mark a refresh extends with `DELTA_SINCE`, or `None` when it
    /// must re-anchor: there is no tip, or the retained deltas already
    /// outweigh the base (a fresh base is then cheaper to hold and to
    /// rebuild from than base ⊕ deltas).
    fn extendable_tip(&self) -> Option<u64> {
        self.tip.filter(|_| self.delta_bytes() <= self.base.len())
    }

    /// Appends a `DELTA_SINCE` answer. The bytes come off the network,
    /// so one that does not extend the tip is rejected and leaves the
    /// record unchanged.
    fn push(&mut self, delta: CheckpointDelta) -> Result<(), TgsError> {
        let (base_id, new_id) = (delta.base_id()?, delta.new_id()?);
        if self.tip != Some(base_id) {
            return Err(TgsError::invalid_argument(format!(
                "delta extends mark {base_id}, but the baseline tip is {:?}",
                self.tip
            )));
        }
        self.deltas.push(delta);
        self.tip = Some(new_id);
        Ok(())
    }

    /// Base ⊕ deltas: the byte-exact section a rebuild seeds the slot
    /// from.
    fn fold(&self) -> Result<Vec<u8>, TgsError> {
        let base = EngineCheckpoint::from_bytes(self.base.clone());
        let folded = self.deltas.iter().try_fold(base, |ckpt, delta| {
            SentimentEngine::apply_delta(&ckpt, delta)
        })?;
        Ok(folded.as_bytes().to_vec())
    }
}

/// Per-slot recovery state guarded by one mutex, held across every shard
/// call that changes it (ingest, recovery, anchoring, user moves).
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
        self.last_good = Some(Baseline::new(Some(id), section));
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
                last_good: baseline.map(|section| Baseline::new(None, section)),
                ..Default::default()
            }),
            backoff,
        })
    }

    /// One health probe (a wire `PING`).
    pub(crate) fn probe(&self) -> Result<(), TgsError> {
        self.inner.ping()
    }

    /// Runs the recovery state machine without a pending snapshot —
    /// the supervisor's proactive path when probes cross the failure
    /// threshold.
    pub(crate) fn recover(&self) -> Result<(), TgsError> {
        let generation = self.generation.load(Ordering::Relaxed);
        self.recover_locked(&mut self.state.lock(), generation, None)
    }

    /// Advances the slot's baseline to the shard's current state,
    /// shipping only changed bytes when possible.
    ///
    /// An extendable tip (see [`Baseline::extendable_tip`]) asks
    /// `DELTA_SINCE(tip)` and appends the answer; anything else — no
    /// tip, deltas outweighing the base, or a mark the server no longer
    /// knows — re-anchors with a full `CHECKPOINT_BASE`.
    fn refresh_locked(&self, state: &mut SlotState) -> Result<(), TgsError> {
        if let Some(baseline) = &mut state.last_good {
            if let Some(tip) = baseline.extendable_tip() {
                if let Some(bytes) = self.inner.delta_since(tip)? {
                    baseline.push(CheckpointDelta::from_bytes(bytes))?;
                    state.caught_up();
                    self.counters
                        .delta_refreshes
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
            }
        }
        let (id, section) = self.inner.checkpoint_base()?;
        state.anchor(id, section);
        Ok(())
    }

    /// Public refresh entry point (the [`Supervisor`]'s checkpoint
    /// cadence lands here): delta-first baseline advance.
    pub(crate) fn refresh_baseline(&self) -> Result<(), TgsError> {
        let mut state = self.state.lock();
        self.refresh_locked(&mut state)
    }

    /// Records a successfully ingested snapshot in the journal,
    /// refreshing the baseline when the journal hits its bound.
    fn record(&self, state: &mut SlotState, snapshot: EngineSnapshot) -> Result<(), TgsError> {
        state.journal.push(snapshot);
        if state.journal.len() <= self.cfg.journal_limit {
            return Ok(());
        }
        // Bound reached: advance the baseline past the journal (the
        // refresh drains the worker queue first, so everything in the
        // journal is already covered by the state we anchor to).
        match self.refresh_locked(state) {
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
    fn recover_locked(
        &self,
        state: &mut SlotState,
        generation: u64,
        pending: Option<EngineSnapshot>,
    ) -> Result<(), TgsError> {
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
            Some(b) => b.fold()?,
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
        // tip id kept across the rebuild could collide with a newly
        // minted mark on unrelated state. Keep the folded section with
        // no tip; the next refresh re-anchors with a full
        // CHECKPOINT_BASE.
        state.last_good = Some(Baseline::new(None, baseline));
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

    /// Runs a call that moves user ranges through the slot, under the
    /// slot lock. On success the baseline+journal pair no longer
    /// reproduces the slot: stale until the next checkpoint refresh.
    fn moving_users<T>(&self, call: impl FnOnce() -> Result<T, TgsError>) -> Result<T, TgsError> {
        let mut state = self.state.lock();
        let out = call()?;
        state.stale = true;
        Ok(out)
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
        let mut state = self.state.lock();
        match self.inner.ingest(generation, snapshot.clone()) {
            Ok(()) => self.record(&mut state, snapshot),
            Err(e) if Self::recoverable(&e) => {
                self.recover_locked(&mut state, generation, Some(snapshot))
            }
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
        let mut state = self.state.lock();
        let (id, section) = self.inner.checkpoint_base()?;
        state.anchor(id, section.clone());
        Ok((id, section))
    }

    fn delta_since(&self, base_id: u64) -> Result<Option<Vec<u8>>, TgsError> {
        // Pass-through: the caller's base id is their own anchor, not
        // this slot's baseline tip.
        self.inner.delta_since(base_id)
    }

    fn export_users(&self, lo: usize, hi: usize) -> Result<Vec<u8>, TgsError> {
        self.moving_users(|| self.inner.export_users(lo, hi))
    }

    fn import_users(&self, users: &[u8]) -> Result<(), TgsError> {
        self.moving_users(|| self.inner.import_users(users))
    }

    fn spawn_sibling(&self) -> Result<Arc<dyn ShardTransport>, TgsError> {
        self.moving_users(|| self.inner.spawn_sibling())
    }

    fn absorb_section(&self, section: &[u8]) -> Result<(), TgsError> {
        self.moving_users(|| self.inner.absorb_section(section))
    }

    fn set_generation(&self, generation: u64) -> Result<(), TgsError> {
        self.generation.fetch_max(generation, Ordering::Relaxed);
        self.inner.set_generation(generation)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NetConfig;
    use crate::server::ShardServer;
    use tgs_data::{day_windows, generate, presets, Corpus};
    use tgs_engine::EngineBuilder;

    fn quick_cfg() -> NetConfig {
        NetConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(5),
            reconnect_attempts: 2,
            backoff_base: Duration::from_millis(10),
            retry_deadline: Duration::from_secs(5),
            jitter_seed: 1,
            faults: None,
        }
    }

    /// Slot 0 of an in-process server, deployed from a cold engine over
    /// `corpus` and supervised, plus the server's run thread.
    fn supervised_slot(
        corpus: &Corpus,
    ) -> (
        Arc<SupervisedShard>,
        std::thread::JoinHandle<Result<(), TgsError>>,
    ) {
        let server = ShardServer::bind("127.0.0.1:0", None).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let run = std::thread::spawn(move || server.run());
        let engine = EngineBuilder::new().k(3).max_iters(8).fit(corpus).unwrap();
        let section = engine.checkpoint().unwrap().as_bytes().to_vec();
        let tcp = Arc::new(TcpShard::new(addr, 0, quick_cfg()));
        tcp.init(&section).unwrap();
        let counters = Arc::new(RecoveryCounters::default());
        let shard = SupervisedShard::new(tcp, Some(section), counters, Default::default());
        (shard, run)
    }

    fn ingest_day(shard: &SupervisedShard, corpus: &Corpus, (lo, hi): (u32, u32)) {
        let snapshot = EngineSnapshot::from_corpus_window(corpus, lo, hi);
        shard.ingest(0, snapshot).unwrap();
    }

    fn stop(shard: Arc<SupervisedShard>, run: std::thread::JoinHandle<Result<(), TgsError>>) {
        shard.inner.terminate().unwrap();
        run.join().unwrap().unwrap();
    }

    #[test]
    fn refreshes_extend_the_record_and_re_anchor_once_deltas_outweigh_the_base() {
        let c = generate(&presets::tiny(42));
        let (shard, run) = supervised_slot(&c);
        let mut outgrown = 0;
        for day in day_windows(c.num_days, 1) {
            ingest_day(&shard, &c, day);
            let (had_tip, extendable) = {
                let state = shard.state.lock();
                let baseline = state.last_good.as_ref().unwrap();
                (baseline.tip.is_some(), baseline.extendable_tip().is_some())
            };
            let shipped = shard.counters.delta_refreshes.load(Ordering::Relaxed);
            shard.refresh_baseline().unwrap();
            let took_delta = shard.counters.delta_refreshes.load(Ordering::Relaxed) > shipped;

            let state = shard.state.lock();
            let baseline = state.last_good.as_ref().unwrap();
            assert_eq!(
                took_delta, extendable,
                "only an extendable tip ships a delta"
            );
            if had_tip && !extendable {
                outgrown += 1;
                assert!(baseline.deltas.is_empty(), "a re-anchor drops the deltas");
            }
            let last = baseline.deltas.last().map_or(0, CheckpointDelta::len);
            assert!(
                baseline.delta_bytes() <= baseline.base.len() + last,
                "retained deltas {} exceed base {} plus the last delta {last}",
                baseline.delta_bytes(),
                baseline.base.len()
            );
            // CHECKPOINT_SECTION mints no mark, so reading it leaves the
            // record's tip live.
            assert_eq!(
                baseline.fold().unwrap(),
                shard.inner.checkpoint_section().unwrap(),
                "base ⊕ deltas must equal the shard's section"
            );
        }
        assert!(outgrown >= 1, "no record outgrew its base over 12 days");
        assert!(shard.counters.delta_refreshes.load(Ordering::Relaxed) > 0);
        stop(shard, run);
    }

    #[test]
    fn a_delta_off_the_tip_is_rejected_and_leaves_the_record_unchanged() {
        let c = generate(&presets::tiny(42));
        let days = day_windows(c.num_days, 1);
        let (shard, run) = supervised_slot(&c);
        ingest_day(&shard, &c, days[0]);
        shard.refresh_baseline().unwrap();
        let anchor = shard.state.lock().last_good.as_ref().unwrap().tip.unwrap();
        ingest_day(&shard, &c, days[1]);
        let d1 = shard.inner.delta_since(anchor).unwrap().unwrap();
        let d1 = CheckpointDelta::from_bytes(d1);
        ingest_day(&shard, &c, days[2]);
        let d2 = shard.inner.delta_since(d1.new_id().unwrap());
        let d2 = CheckpointDelta::from_bytes(d2.unwrap().unwrap());

        let mut state = shard.state.lock();
        let baseline = state.last_good.as_mut().unwrap();
        let before = (
            baseline.tip,
            baseline.deltas.len(),
            baseline.fold().unwrap(),
        );
        for bad in [
            d2.clone(),
            CheckpointDelta::from_bytes(b"garbage!".to_vec()),
        ] {
            assert!(baseline.push(bad).is_err(), "a gap must be rejected");
            let after = (
                baseline.tip,
                baseline.deltas.len(),
                baseline.fold().unwrap(),
            );
            assert_eq!(
                after, before,
                "a rejected delta leaves the record unchanged"
            );
        }
        baseline.push(d1).unwrap();
        baseline.push(d2.clone()).unwrap();
        assert_eq!(baseline.tip, Some(d2.new_id().unwrap()));
        assert_eq!(
            baseline.fold().unwrap(),
            shard.inner.checkpoint_section().unwrap()
        );
        drop(state);
        stop(shard, run);
    }
}
