//! The streaming session facade: ingest worker, state, and lifecycle.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;
use tgs_core::{OnlineConfig, OnlineSolver, SnapshotData, SnapshotStore, TgsError, TriInput};
use tgs_data::{assemble_snapshot_matrices, SnapshotMatrices};
use tgs_linalg::DenseMatrix;
use tgs_text::{tokenize_features_into, TokenizerConfig, Vocabulary, Weighting};

use crate::checkpoint::{self, EngineCheckpoint};
use crate::hist::{LatencyHistogram, HIST_BUCKETS};
use crate::query::{EngineQuery, TimelineEntry};
use crate::sharded::merge_timeline_into;
use crate::snapshot::{DocContent, EngineSnapshot};

/// Immutable per-engine configuration: everything the worker needs to
/// turn an [`EngineSnapshot`] into tripartite matrices.
pub(crate) struct EngineShared {
    /// The frozen global vocabulary (fixes the feature axis across time).
    pub(crate) vocab: Vocabulary,
    /// The `l × k` lexicon prior, shared by every snapshot.
    pub(crate) sf0: DenseMatrix,
    /// The online solver configuration.
    pub(crate) config: OnlineConfig,
    /// Tokenizer for [`DocContent::Raw`] documents.
    pub(crate) tokenizer: TokenizerConfig,
    /// Term weighting for the snapshot matrices.
    pub(crate) weighting: Weighting,
    /// Bound of the ingest queue (snapshots, not bytes).
    pub(crate) queue_depth: usize,
}

/// The mutable recorded history behind the query API.
pub(crate) struct EngineState {
    /// Per-snapshot aggregates, keyed by timestamp.
    pub(crate) timeline: BTreeMap<u64, TimelineEntry>,
    /// Per-user `(timestamp, distribution)` observations, append order.
    pub(crate) user_track: HashMap<usize, Vec<(u64, Vec<f64>)>>,
    /// Per-snapshot `Sf` factors (feature–sentiment), byte-budgeted.
    pub(crate) sf_store: SnapshotStore,
    /// Per-snapshot `Sp` factors (tweet–sentiment), byte-budgeted.
    pub(crate) sp_store: SnapshotStore,
    /// Ingest failures not yet surfaced through [`SentimentEngine::flush`].
    pub(crate) failures: VecDeque<(u64, TgsError)>,
    /// Dirty-state log behind delta checkpoints (see [`crate::delta`]).
    /// Not checkpointed: marks are engine-local, like the metrics.
    pub(crate) tracker: crate::delta::DeltaTracker,
}

impl EngineState {
    pub(crate) fn new(store_budget_bytes: usize) -> Self {
        Self {
            timeline: BTreeMap::new(),
            user_track: HashMap::new(),
            sf_store: SnapshotStore::new(store_budget_bytes),
            sp_store: SnapshotStore::new(store_budget_bytes),
            failures: VecDeque::new(),
            tracker: crate::delta::DeltaTracker::default(),
        }
    }
}

enum Command {
    Ingest(EngineSnapshot),
    Sync(mpsc::Sender<()>),
}

/// Ingest-path counters, shared between producers, the worker thread and
/// [`SentimentEngine::stats`]. All relaxed atomics — the stats are a
/// monitoring surface, not a synchronization primitive.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    queued: AtomicU64,
    ingested: AtomicU64,
    dropped_capacity: AtomicU64,
    last_step_ns: AtomicU64,
    /// Per-bucket step-latency counts (log-linear ns; see
    /// [`LatencyHistogram`]).
    step_buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for EngineMetrics {
    // Manual because `[AtomicU64; HIST_BUCKETS]` has no `Default` (the
    // standard library stops deriving array impls at length 32).
    fn default() -> Self {
        Self {
            queued: AtomicU64::new(0),
            ingested: AtomicU64::new(0),
            dropped_capacity: AtomicU64::new(0),
            last_step_ns: AtomicU64::new(0),
            step_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl EngineMetrics {
    /// Worker-side: records one completed step's wall-clock nanoseconds
    /// into both the gauge and the histogram.
    fn record_step(&self, ns: u64) {
        self.last_step_ns.store(ns, Ordering::Relaxed);
        self.step_buckets[LatencyHistogram::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the step-latency histogram; sheds mirror
    /// `dropped_capacity` (every full-queue rejection is a shed).
    fn step_hist(&self) -> LatencyHistogram {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(self.step_buckets.iter()) {
            *b = a.load(Ordering::Relaxed);
        }
        LatencyHistogram::from_parts(&buckets, self.dropped_capacity.load(Ordering::Relaxed))
    }
}

/// A point-in-time snapshot of an engine's ingest metrics — the
/// backpressure surface printed by `tgs stream --stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Snapshots accepted into the queue but not yet processed.
    pub queued: u64,
    /// Snapshots fully processed (committed or skipped-as-empty).
    pub ingested: u64,
    /// Snapshots a non-blocking ingest (such as
    /// [`ShardedEngine::try_ingest`](crate::ShardedEngine::try_ingest))
    /// handed back because the bounded queue was full.
    pub dropped_capacity: u64,
    /// Wall-clock nanoseconds the worker spent on the most recent
    /// snapshot (tokenize + assemble + solve + commit).
    pub last_step_ns: u64,
    /// Log-linear histogram of every step's wall-clock nanoseconds: 304
    /// HdrHistogram-style buckets (each power-of-two octave split into 8
    /// linear sub-buckets), so the p50/p99/p999 accessors report a
    /// ceiling at most 12.5% above the true value. Also carries a `shed`
    /// count of snapshots that
    /// never reached the solver. On a single engine the sheds mirror
    /// `dropped_capacity`; on the multi-shard router they additionally
    /// include batches shed before splitting.
    pub step_hist: LatencyHistogram,
    /// Cross-shard re-tweet edges *kept* as ghost rows (multi-shard
    /// router, ghost mode). Always 0 on a single engine.
    pub ghost_edges: u64,
    /// Cross-shard re-tweet edges dropped at ingest (multi-shard router,
    /// legacy drop mode — with ghost mode on, this stays 0 by
    /// construction). Always 0 on a single engine.
    pub dropped_cross_shard: u64,
    /// Shard calls the multi-shard router observed failing with a
    /// network error (cumulative; see [`tgs_core::TgsErrorKind::Net`]).
    /// Always 0 on a single engine or an all-local fleet.
    pub shard_unavailable: u64,
    /// The kernel build the solver runs (`tgs_linalg::simd_tier_name()`),
    /// recorded so bench runs and bug reports state which code produced
    /// their numbers. This build always reports `"scalar"`: each kernel
    /// has one portable body. Older builds also reported `avx2`,
    /// `avx2+fma` or `neon`.
    pub simd: &'static str,
    /// The worker-pool thread budget the solver kernels run under
    /// (`tgs_linalg::pool_threads()`: `TGS_THREADS` / detected cores,
    /// clamped) — process-wide, recorded for the same reason as `simd`.
    pub threads: u64,
    /// Always `false` from this build, which pins no thread to a core.
    /// Kept because the STATS wire record carries its byte; an older peer
    /// with core pinning switched on may still report `true`.
    pub pinned: bool,
    /// Shard slots the supervisor rebuilt from their last good
    /// checkpoint section after a failure (cumulative). Always 0 on a
    /// single engine or an unsupervised fleet.
    pub respawns: u64,
    /// Documents re-ingested from replay journals while rebuilding
    /// failed shards (cumulative). Always 0 without a supervisor.
    pub replayed_docs: u64,
    /// Fan-out queries answered with partial coverage because at least
    /// one shard was unavailable (cumulative). Always 0 on a single
    /// engine.
    pub degraded_queries: u64,
}

impl EngineStats {
    /// Element-wise accumulation for multi-shard aggregation: counters
    /// and histogram buckets sum; `last_step_ns` takes the maximum (the
    /// slowest shard gates a fan-out step's latency); `simd`, `threads`
    /// and `pinned` are process-wide and carried through.
    pub fn merge(&self, other: &EngineStats) -> EngineStats {
        EngineStats {
            queued: self.queued + other.queued,
            ingested: self.ingested + other.ingested,
            dropped_capacity: self.dropped_capacity + other.dropped_capacity,
            last_step_ns: self.last_step_ns.max(other.last_step_ns),
            step_hist: self.step_hist.merge(&other.step_hist),
            ghost_edges: self.ghost_edges + other.ghost_edges,
            dropped_cross_shard: self.dropped_cross_shard + other.dropped_cross_shard,
            shard_unavailable: self.shard_unavailable + other.shard_unavailable,
            simd: if self.simd.is_empty() {
                other.simd
            } else {
                self.simd
            },
            threads: self.threads.max(other.threads),
            pinned: self.pinned || other.pinned,
            respawns: self.respawns + other.respawns,
            replayed_docs: self.replayed_docs + other.replayed_docs,
            degraded_queries: self.degraded_queries + other.degraded_queries,
        }
    }
}

/// A streaming sentiment session: owns the online solver, an ingest
/// worker thread, and the queryable history.
///
/// Built via [`crate::EngineBuilder`]. Producers hand owned
/// [`EngineSnapshot`]s to [`SentimentEngine::ingest`]; a dedicated worker
/// tokenizes and vectorizes them, steps Algorithm 2, and records results
/// into the timeline, the per-user history and the bounded factor stores.
/// [`SentimentEngine::query`] returns a cloneable read handle; the
/// [`SentimentEngine::checkpoint`] / [`SentimentEngine::restore`] pair
/// round-trips the whole session (solver temporal state included) through
/// bytes, with bit-identical subsequent results.
pub struct SentimentEngine {
    shared: Arc<EngineShared>,
    state: Arc<Mutex<EngineState>>,
    solver: Arc<Mutex<OnlineSolver>>,
    metrics: Arc<EngineMetrics>,
    tx: Option<SyncSender<Command>>,
    worker: Option<JoinHandle<()>>,
}

impl SentimentEngine {
    /// Spawns the ingest worker. `solver` must have been created from
    /// `shared.config` (the builder and the checkpoint decoder both
    /// guarantee this).
    pub(crate) fn start(shared: EngineShared, solver: OnlineSolver, state: EngineState) -> Self {
        let shared = Arc::new(shared);
        let state = Arc::new(Mutex::new(state));
        let solver = Arc::new(Mutex::new(solver));
        let metrics = Arc::new(EngineMetrics::default());
        let (tx, rx) = mpsc::sync_channel(shared.queue_depth);
        let worker = {
            let shared = Arc::clone(&shared);
            let state = Arc::clone(&state);
            let solver = Arc::clone(&solver);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("tgs-engine-worker".into())
                .spawn(move || worker_loop(rx, shared, solver, state, metrics))
                .expect("spawning the engine worker thread")
        };
        Self {
            shared,
            state,
            solver,
            metrics,
            tx: Some(tx),
            worker: Some(worker),
        }
    }

    /// Submits a snapshot for asynchronous processing. Returns as soon as
    /// the snapshot is queued — producers never wait on a solve, only on
    /// queue space once more than `queue_depth` snapshots are pending
    /// (bounded backpressure). Processing failures surface on the next
    /// [`SentimentEngine::flush`].
    pub fn ingest(&self, snapshot: EngineSnapshot) -> Result<(), TgsError> {
        let tx = self.tx.as_ref().ok_or(TgsError::EngineClosed)?;
        // Count before sending: the worker decrements after processing,
        // and a fast worker could otherwise finish (and decrement) before
        // this thread's increment, transiently wrapping the counter.
        self.metrics.queued.fetch_add(1, Ordering::Relaxed);
        tx.send(Command::Ingest(snapshot)).map_err(|_| {
            self.metrics.queued.fetch_sub(1, Ordering::Relaxed);
            TgsError::EngineClosed
        })
    }

    /// Like [`SentimentEngine::ingest`], but never blocks: a full-queue
    /// rejection hands the snapshot back (`Ok(Some(snapshot))`), so a
    /// shedding producer can retry or recycle its buffers — the
    /// rejection path neither allocates nor frees. Sheds count in
    /// [`EngineStats::dropped_capacity`] and the histogram's shed bucket.
    pub(crate) fn try_ingest_reusable(
        &self,
        snapshot: EngineSnapshot,
    ) -> Result<Option<EngineSnapshot>, TgsError> {
        let tx = self.tx.as_ref().ok_or(TgsError::EngineClosed)?;
        // Same ordering rationale as `ingest`: count first, undo on
        // failure, so the worker's decrement can never observe 0.
        self.metrics.queued.fetch_add(1, Ordering::Relaxed);
        match tx.try_send(Command::Ingest(snapshot)) {
            Ok(()) => Ok(None),
            Err(TrySendError::Full(Command::Ingest(snapshot))) => {
                self.metrics.queued.fetch_sub(1, Ordering::Relaxed);
                self.metrics
                    .dropped_capacity
                    .fetch_add(1, Ordering::Relaxed);
                Ok(Some(snapshot))
            }
            Err(TrySendError::Full(_)) => unreachable!("we sent Command::Ingest"),
            Err(TrySendError::Disconnected(_)) => {
                self.metrics.queued.fetch_sub(1, Ordering::Relaxed);
                Err(TgsError::EngineClosed)
            }
        }
    }

    /// Whether the bounded ingest queue currently has room — the
    /// capacity probe the multi-shard router uses to shed a whole batch
    /// before splitting it (no partial commits). Advisory under
    /// concurrent producers: another thread can take the slot between
    /// the probe and the send.
    pub(crate) fn has_capacity(&self) -> bool {
        self.metrics.queued.load(Ordering::Relaxed) < self.shared.queue_depth as u64
    }

    /// Current ingest metrics: queue depth, processed count, snapshots
    /// shed at capacity, and the last snapshot's processing time.
    /// Counters restart at zero on [`SentimentEngine::restore`] — they
    /// describe this process's session, not the stream's history.
    pub(crate) fn stats(&self) -> EngineStats {
        EngineStats {
            queued: self.metrics.queued.load(Ordering::Relaxed),
            ingested: self.metrics.ingested.load(Ordering::Relaxed),
            dropped_capacity: self.metrics.dropped_capacity.load(Ordering::Relaxed),
            last_step_ns: self.metrics.last_step_ns.load(Ordering::Relaxed),
            step_hist: self.metrics.step_hist(),
            ghost_edges: 0,
            dropped_cross_shard: 0,
            shard_unavailable: 0,
            simd: tgs_linalg::simd_tier_name(),
            threads: tgs_linalg::pool_threads() as u64,
            pinned: false,
            respawns: 0,
            replayed_docs: 0,
            degraded_queries: 0,
        }
    }

    /// Blocks until every queued snapshot has been processed, then
    /// reports the first pending ingest failure (if any) or the number of
    /// snapshots processed so far.
    pub fn flush(&self) -> Result<u64, TgsError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx
            .as_ref()
            .ok_or(TgsError::EngineClosed)?
            .send(Command::Sync(ack_tx))
            .map_err(|_| TgsError::EngineClosed)?;
        ack_rx.recv().map_err(|_| TgsError::EngineClosed)?;
        if let Some((_, e)) = self.state.lock().failures.pop_front() {
            return Err(e);
        }
        Ok(self.solver.lock().steps())
    }

    /// A cloneable read handle over the recorded history.
    pub fn query(&self) -> EngineQuery {
        EngineQuery {
            shared: Arc::clone(&self.shared),
            state: Arc::clone(&self.state),
        }
    }

    /// The engine's solver configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.shared.config
    }

    /// The frozen global vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.shared.vocab
    }

    /// Snapshots processed so far (committed, not queued).
    pub fn steps(&self) -> u64 {
        self.solver.lock().steps()
    }

    /// Drains the queue and serializes the whole session — configuration,
    /// vocabulary, solver temporal state, timeline, per-user history and
    /// the factor stores — into a byte-level checkpoint. Fails if a
    /// queued snapshot failed to process (the session must be clean).
    pub fn checkpoint(&self) -> Result<EngineCheckpoint, TgsError> {
        self.flush()?;
        let solver = self.solver.lock();
        let state = self.state.lock();
        Ok(checkpoint::encode(&self.shared, &solver, &state))
    }

    /// Rebuilds a session from a checkpoint. The restored engine answers
    /// every query the original did and produces bit-identical results
    /// for subsequently ingested snapshots.
    pub fn restore(ckpt: &EngineCheckpoint) -> Result<Self, TgsError> {
        let (shared, solver, state) = checkpoint::decode(ckpt)?;
        Ok(Self::start(shared, solver, state))
    }

    /// Like [`SentimentEngine::checkpoint`], but also registers the
    /// result as a *base* for delta checkpointing and returns its mark
    /// id: subsequent [`SentimentEngine::delta_since`] calls against the
    /// id (or any delta's `new_id` derived from it) encode only what
    /// changed. Mark ids are engine-local and not persisted — a restored
    /// engine starts fresh.
    pub fn checkpoint_base(&self) -> Result<(u64, EngineCheckpoint), TgsError> {
        self.flush()?;
        let solver = self.solver.lock();
        let mut state = self.state.lock();
        let ckpt = checkpoint::encode(&self.shared, &solver, &state);
        let id = crate::delta::register_base(&mut state);
        Ok((id, ckpt))
    }

    /// Drains the queue and encodes everything that changed since the
    /// mark `base_id` as a [`crate::CheckpointDelta`], registering the
    /// tip as a new mark (so chains extend delta-by-delta). `Ok(None)`
    /// means the mark cannot serve a delta — unknown, aged out, or
    /// invalidated by a structural rewrite (user migration / absorb) —
    /// and the caller should take a fresh
    /// [`SentimentEngine::checkpoint_base`] instead.
    pub fn delta_since(&self, base_id: u64) -> Result<Option<crate::CheckpointDelta>, TgsError> {
        self.flush()?;
        let solver = self.solver.lock();
        let mut state = self.state.lock();
        crate::delta::encode_delta(&self.shared, &solver, &mut state, base_id)
    }

    /// Folds a delta into its base checkpoint, producing the full
    /// checkpoint of the delta's tip — byte-identical to what the source
    /// engine's [`SentimentEngine::checkpoint`] returned there. Pure:
    /// needs no running engine.
    pub fn apply_delta(
        base: &EngineCheckpoint,
        delta: &crate::CheckpointDelta,
    ) -> Result<EngineCheckpoint, TgsError> {
        crate::delta::apply_delta(base, delta)
    }

    /// Drains the queue and stops the worker. Equivalent to dropping the
    /// engine, but surfaces pending ingest failures instead of discarding
    /// them.
    pub(crate) fn shutdown(mut self) -> Result<(), TgsError> {
        let outcome = self.flush();
        self.close();
        outcome.map(|_| ())
    }

    fn close(&mut self) {
        self.tx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Per-user `(timestamp, distribution)` observation lists keyed by
/// global user id — the queryable half of a migrated user range.
pub(crate) type UserTrackRows = Vec<(usize, Vec<(u64, Vec<f64>)>)>;

/// One worker's per-user state for a contiguous user-id range, removed
/// from its source for a live rebalance: the queryable observation
/// history plus the solver's temporal rows (age-relative, so they
/// re-anchor exactly on a destination with a different step counter).
pub(crate) struct UserRangeState {
    /// Per-user observations, sorted by id.
    track: UserTrackRows,
    /// The solver's migrated per-user temporal state.
    solver: tgs_core::MigratedUsers,
}

/// Live-rebalance surface, driven by the multi-shard router with every
/// affected worker quiesced (flushed) first.
impl SentimentEngine {
    /// Starts a fresh worker sharing this one's frozen configuration
    /// (vocabulary, prior, solver config, pipeline, budgets) with a cold
    /// solver and empty history — the spawn path of a shard split.
    /// Public for fleet transports; meaningless outside a rebalance.
    pub fn spawn_sibling(&self) -> Result<SentimentEngine, TgsError> {
        let shared = EngineShared {
            vocab: self.shared.vocab.clone(),
            sf0: self.shared.sf0.clone(),
            config: self.shared.config.clone(),
            tokenizer: self.shared.tokenizer.clone(),
            weighting: self.shared.weighting,
            queue_depth: self.shared.queue_depth,
        };
        let solver = OnlineSolver::try_new(shared.config.clone())?;
        let state = EngineState::new(self.state.lock().sf_store.budget_bytes());
        Ok(SentimentEngine::start(shared, solver, state))
    }

    /// The solver's current decayed sentiment estimate for a user — the
    /// factor broadcast into ghost rows on other shards. Callers flush
    /// first so the estimate reflects every committed snapshot.
    pub(crate) fn user_factor(&self, user: usize) -> Option<Vec<f64>> {
        self.solver.lock().sentiment_of(user)
    }

    /// Removes and returns all per-user state for ids in `lo..hi`.
    /// The caller must have flushed this worker (quiesce) first.
    pub(crate) fn export_user_range(&self, lo: usize, hi: usize) -> UserRangeState {
        let mut st = self.state.lock();
        let mut moving: Vec<usize> = st
            .user_track
            .keys()
            .copied()
            .filter(|&u| u >= lo && u < hi)
            .collect();
        moving.sort_unstable();
        let track = moving
            .into_iter()
            .map(|u| {
                let rows = st.user_track.remove(&u).expect("key just listed");
                (u, rows)
            })
            .collect();
        // A migration rewrites state outside the append-only stream:
        // existing delta marks can no longer describe it.
        st.tracker.bump_epoch();
        let solver = self.solver.lock().export_users(lo, hi);
        UserRangeState { track, solver }
    }

    /// The per-user migration state for ids in `lo..hi`, serialized
    /// through the migration byte codec (see `crate::transport`) — the
    /// form a remote transport ships across the wire. Removes the users
    /// from this worker; the caller must have flushed it first.
    pub(crate) fn export_users_bytes(&self, lo: usize, hi: usize) -> Vec<u8> {
        let state = self.export_user_range(lo, hi);
        crate::transport::encode_user_range(&state.track, &state.solver.rows)
    }

    /// The inverse of [`SentimentEngine::export_users_bytes`]: adopts
    /// per-user migration state from the byte codec. On rejection the
    /// payload is untouched (it is only read), so the caller re-imports
    /// the same bytes to the source worker to roll the migration back.
    pub(crate) fn import_users_bytes(&self, bytes: &[u8]) -> Result<(), TgsError> {
        let (track, rows) = crate::transport::decode_user_range(bytes)?;
        self.import_user_range(UserRangeState {
            track,
            solver: tgs_core::MigratedUsers { rows },
        })
        .map_err(|(e, _)| e)
    }

    /// Imports per-user state exported from another worker. Rejects
    /// users this worker already tracks (shards are user-disjoint; a
    /// collision means two workers both claim ownership) before touching
    /// any state.
    /// A rejection returns the state untouched, so a failed migration
    /// can restore it to its source worker instead of losing it.
    #[allow(clippy::result_large_err)]
    pub(crate) fn import_user_range(
        &self,
        users: UserRangeState,
    ) -> Result<(), (TgsError, UserRangeState)> {
        let mut st = self.state.lock();
        let collision = users
            .track
            .iter()
            .find(|(user, _)| st.user_track.contains_key(user))
            .map(|(user, _)| *user);
        if let Some(user) = collision {
            return Err((
                TgsError::invalid_argument(format!(
                    "user {user} already tracked here; refusing to merge two \
                     shards' ownership of one user"
                )),
                users,
            ));
        }
        // Same two-owners collision *within* the payload: the contract
        // is strictly-ascending user ids, and a duplicate would silently
        // overwrite on insert.
        let duplicate = users
            .track
            .windows(2)
            .find(|w| w[0].0 >= w[1].0)
            .map(|w| w[1].0);
        if let Some(user) = duplicate {
            return Err((
                TgsError::invalid_argument(format!(
                    "migrated users are not strictly ascending at user {user}"
                )),
                users,
            ));
        }
        let UserRangeState { track, solver } = users;
        if let Err((e, solver)) = self.solver.lock().import_users(solver) {
            return Err((e, UserRangeState { track, solver }));
        }
        for (user, rows) in track {
            st.user_track.insert(user, rows);
        }
        // Same structural-rewrite rule as the export side.
        st.tracker.bump_epoch();
        Ok(())
    }

    /// Folds another (flushed) worker's entire recorded state into this
    /// one — the absorb path of a shard merge. Per-user state moves
    /// wholesale; timeline entries at shared timestamps merge exactly as
    /// the query fan-in would have merged them; `Sf` factors at shared
    /// timestamps merge through the solvers' tweet-count-weighted policy
    /// (`Sp` factors are per-tweet and shard-shaped, so the absorber's
    /// are kept on collision). The other worker's own `Sf` window and
    /// step counter are discarded — the absorber's temporal frame wins.
    /// Public for fleet transports; meaningless outside a shard merge.
    pub(crate) fn absorb(&self, other: &SentimentEngine) -> Result<(), TgsError> {
        let moved = other.export_user_range(0, usize::MAX);
        if let Err((e, moved_back)) = self.import_user_range(moved) {
            // Hand the state back to its source (it just exported these
            // users, so re-import cannot collide) and surface the error.
            other.import_user_range(moved_back).map_err(|(e2, _)| e2)?;
            return Err(e);
        }
        let mut ost = other.state.lock();
        let mut st = self.state.lock();
        // Weights for the factor merges: each side's tweet count per
        // timestamp, captured before the timelines fold.
        let my_tweets: std::collections::HashMap<u64, usize> =
            st.timeline.iter().map(|(&t, e)| (t, e.tweets)).collect();
        let other_tweets: std::collections::HashMap<u64, usize> =
            ost.timeline.iter().map(|(&t, e)| (t, e.tweets)).collect();
        merge_timeline_into(
            &mut st.timeline,
            std::mem::take(&mut ost.timeline).into_values(),
        );
        let other_sf_ts: Vec<u64> = ost.sf_store.iter().map(|(t, _)| t).collect();
        for t in other_sf_ts {
            let theirs = ost.sf_store.get(t).expect("timestamp just listed");
            let merged = match st.sf_store.get(t) {
                Some(mine) => {
                    let w_mine = my_tweets.get(&t).copied().unwrap_or(0) as f64;
                    let w_theirs = other_tweets.get(&t).copied().unwrap_or(0) as f64;
                    tgs_core::sharded::merge_sf(&[(w_mine, &mine), (w_theirs, &theirs)])
                        .expect("two parts always merge")
                }
                None => theirs,
            };
            st.sf_store.put(t, &merged);
        }
        let other_sp_ts: Vec<u64> = ost.sp_store.iter().map(|(t, _)| t).collect();
        for t in other_sp_ts {
            if st.sp_store.get(t).is_none() {
                let theirs = ost.sp_store.get(t).expect("timestamp just listed");
                st.sp_store.put(t, &theirs);
            }
        }
        Ok(())
    }
}

impl Drop for SentimentEngine {
    fn drop(&mut self) {
        self.close();
    }
}

/// Reusable per-worker ingest buffers, hoisted across snapshots so the
/// steady-state tokenize/encode path does not allocate a fresh scratch
/// `Vec` per document (the per-document token and id buffers are
/// recycled; only growth beyond previous high-water marks allocates).
#[derive(Default)]
struct IngestScratch {
    /// One document's feature strings (cleared per document).
    tokens: Vec<String>,
    /// Encoded feature ids per document (outer and inner reused).
    encoded: Vec<Vec<usize>>,
    /// Author global id per document.
    doc_users: Vec<usize>,
    /// Sorted, deduplicated global user ids of the snapshot.
    user_ids: Vec<usize>,
    /// Local (dense) author index per document.
    doc_user_local: Vec<usize>,
    /// `(local user, doc)` re-tweet pairs.
    retweet_pairs: Vec<(usize, usize)>,
}

fn worker_loop(
    rx: Receiver<Command>,
    shared: Arc<EngineShared>,
    solver: Arc<Mutex<OnlineSolver>>,
    state: Arc<Mutex<EngineState>>,
    metrics: Arc<EngineMetrics>,
) {
    let mut scratch = IngestScratch::default();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Ingest(snapshot) => {
                let timestamp = snapshot.timestamp;
                let started = Instant::now();
                match process(&shared, &solver, &state, snapshot, &mut scratch) {
                    Ok(()) => {
                        metrics.ingested.fetch_add(1, Ordering::Relaxed);
                        metrics.record_step(
                            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                    }
                    Err(e) => state.lock().failures.push_back((timestamp, e)),
                }
                metrics.queued.fetch_sub(1, Ordering::Relaxed);
            }
            Command::Sync(ack) => {
                let _ = ack.send(());
            }
        }
    }
}

/// Turns one owned snapshot into matrices, steps the solver, and commits
/// the results. Runs on the worker thread.
fn process(
    shared: &EngineShared,
    solver: &Mutex<OnlineSolver>,
    state: &Mutex<EngineState>,
    snapshot: EngineSnapshot,
    scratch: &mut IngestScratch,
) -> Result<(), TgsError> {
    let EngineSnapshot {
        timestamp,
        docs,
        retweets,
        ghosts,
    } = snapshot;
    if docs.is_empty() {
        // Nothing to solve; empty slices do not advance the stream.
        return Ok(());
    }
    // The solver's temporal state (window, per-user history) is
    // append-only: replaying a timestamp would weight that slice twice in
    // the Sfw/Suw aggregates. Reject instead of silently biasing.
    if state.lock().timeline.contains_key(&timestamp) {
        return Err(TgsError::invalid_argument(format!(
            "timestamp {timestamp} already ingested; the stream is append-only"
        )));
    }
    let k = shared.config.k;

    // --- Tokenize + encode in one pass, through the reused scratch ---
    // Raw documents tokenize into one recycled token buffer and encode
    // straight into the per-document id buffers; the intermediate
    // `Vec<Vec<String>>` the seed path materialized is gone entirely.
    let n = docs.len();
    // Grow-only: buffers beyond `n` are kept (high-water reuse), the
    // assembly below reads exactly `..n`.
    if scratch.encoded.len() < n {
        scratch.encoded.resize_with(n, Vec::new);
    }
    scratch.doc_users.clear();
    for (doc, ids) in docs.into_iter().zip(scratch.encoded.iter_mut()) {
        scratch.doc_users.push(doc.user);
        match doc.content {
            DocContent::Raw(text) => {
                tokenize_features_into(&text, &shared.tokenizer, &mut scratch.tokens);
                shared
                    .vocab
                    .encode_into(scratch.tokens.iter().map(String::as_str), ids);
            }
            DocContent::Tokens(tokens) => {
                shared
                    .vocab
                    .encode_into(tokens.iter().map(String::as_str), ids);
            }
        }
    }
    for r in &retweets {
        if r.doc >= n {
            return Err(TgsError::invalid_argument(format!(
                "retweet references document {} but the snapshot has {n}",
                r.doc
            )));
        }
    }

    // --- Local user index (global ids may be sparse) ---
    scratch.user_ids.clear();
    scratch.user_ids.extend(
        scratch
            .doc_users
            .iter()
            .copied()
            .chain(retweets.iter().map(|r| r.user)),
    );
    scratch.user_ids.sort_unstable();
    scratch.user_ids.dedup();
    let user_ids = &scratch.user_ids;
    let local = |user: &usize| {
        user_ids
            .binary_search(user)
            .expect("every author and re-tweeter is in user_ids")
    };
    let m = user_ids.len();

    // --- Vectorize + assemble through the shared snapshot pipeline ---
    scratch.doc_user_local.clear();
    scratch
        .doc_user_local
        .extend(scratch.doc_users.iter().map(local));
    scratch.retweet_pairs.clear();
    scratch
        .retweet_pairs
        .extend(retweets.iter().map(|r| (local(&r.user), r.doc)));
    let SnapshotMatrices { xp, xu, xr, graph } = assemble_snapshot_matrices(
        &shared.vocab,
        &scratch.encoded[..n],
        &scratch.doc_user_local,
        m,
        &scratch.retweet_pairs,
        shared.weighting,
    );

    // --- Solve ---
    let input = TriInput {
        xp: &xp,
        xu: &xu,
        xr: &xr,
        graph: &graph,
        sf0: &shared.sf0,
    };
    let step = solver
        .lock()
        .try_step_with_ghosts(&SnapshotData { input, user_ids }, &ghosts)?;

    // --- Commit ---
    // Ghost rows belong to another shard: they are excluded from this
    // engine's user aggregates and per-user history (the owning shard
    // commits them), exactly as the solver excluded them from its own.
    let ghost_rows = &step.partition.ghost_rows;
    let mut tweet_counts = vec![0usize; k];
    for &label in &step.tweet_labels() {
        tweet_counts[label] += 1;
    }
    let mut user_counts = vec![0usize; k];
    for (row, &label) in step.user_labels().iter().enumerate() {
        if ghost_rows.binary_search(&row).is_err() {
            user_counts[label] += 1;
        }
    }
    let mut su_dist = step.factors.su.clone();
    su_dist.normalize_rows_l1();
    let entry = TimelineEntry {
        timestamp,
        tweets: n,
        users: m - ghost_rows.len(),
        new_users: step.partition.new_rows.len(),
        evolving_users: step.partition.evolving_rows.len(),
        iterations: step.iterations,
        converged: step.converged,
        objective: step.objective,
        tweet_counts,
        user_counts,
    };
    let mut st = state.lock();
    st.timeline.insert(timestamp, entry);
    let mut touched = Vec::with_capacity(user_ids.len() - ghost_rows.len());
    for (row, &user) in user_ids.iter().enumerate() {
        if ghost_rows.binary_search(&row).is_ok() {
            continue;
        }
        // Timestamps are unique (checked above), so plain appends; the
        // queries sort / max-filter, so out-of-order ingest is fine.
        st.user_track
            .entry(user)
            .or_default()
            .push((timestamp, su_dist.row(row).to_vec()));
        touched.push(user);
    }
    st.sf_store.put(timestamp, &step.factors.sf);
    st.sp_store.put(timestamp, &step.factors.sp);
    st.tracker.record_commit(timestamp, touched);
    Ok(())
}
