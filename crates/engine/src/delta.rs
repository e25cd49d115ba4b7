//! Delta-encoded incremental checkpoints: O(changes) snapshots.
//!
//! A full [`EngineCheckpoint`] re-encodes
//! O(state) — vocabulary, every user's history, every retained factor
//! snapshot — on every call. Between consecutive steps of the paper's
//! online algorithm only the rows touched by new documents change, so a
//! checkpoint can instead ship a **base** plus per-step **deltas**:
//!
//! * [`SentimentEngine::checkpoint_base`](crate::SentimentEngine::checkpoint_base)
//!   takes a full checkpoint and registers it as a *mark* (an engine-local
//!   `u64` id) with the engine's `DeltaTracker`;
//! * [`SentimentEngine::delta_since`](crate::SentimentEngine::delta_since)
//!   encodes everything that changed since a mark — touched users'
//!   history rows and track appends, new timeline entries, and the
//!   factor stores' removed/appended entries — as a [`CheckpointDelta`],
//!   registering the new tip as a mark so chains extend;
//! * [`SentimentEngine::apply_delta`](crate::SentimentEngine::apply_delta)
//!   folds a delta into a base, producing bytes **identical** to the
//!   full checkpoint the engine would have written at the delta's tip
//!   (the reconstruction re-runs the deterministic full encoder, so byte
//!   equality follows from state equality). A fold decodes and
//!   re-encodes the whole base, so holders keep their deltas and fold
//!   only when they need the full section.
//!
//! Deltas are *unavailable* (not an error — `Ok(None)`) when the engine
//! cannot prove O(changes) coverage: an unknown or trimmed mark, or a
//! structural epoch bump (user migration / absorb rewrites state outside
//! the append-only stream). Callers fall back to a fresh base.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use bytes::Bytes;
use tgs_core::codec::{CodecError, Reader, Writer};
use tgs_core::{OnlineSolver, OnlineSolverState, SnapshotStore, TgsError};
use tgs_linalg::DenseMatrix;

use crate::checkpoint::{
    self, read_keyed_rows, read_timeline, read_window, resolve_window, write_keyed_rows,
    write_timeline, write_window, EngineCheckpoint, KeyedRows,
};
use crate::engine::{EngineShared, EngineState};

/// Magic + format version prefix of a serialized delta.
const MAGIC: &[u8; 8] = b"TGSDLT\x00\x01";

/// Marks retained per engine: a delta can only be requested against one
/// of the last this-many bases/tips. Old marks age out silently (their
/// `delta_since` returns `None`), bounding the tracker's footprint.
const MAX_MARKS: usize = 8;

/// Change-log cap. If more steps than this commit between a mark and its
/// `delta_since`, the log is trimmed and the mark degrades to
/// unavailable — by then a delta would approach O(state) anyway.
const MAX_RECORDS: usize = 4096;

// ---------------------------------------------------------------------
// Dirty tracking
// ---------------------------------------------------------------------

/// One committed step's footprint: which timestamp landed and which
/// (non-ghost) users it touched.
#[derive(Debug, Clone)]
struct ChangeRecord {
    /// Absolute commit sequence number (0-based over the engine's life).
    seq: u64,
    timestamp: u64,
    users: Vec<usize>,
}

/// A registered base/tip: everything needed to later diff the live state
/// against the state at registration time.
#[derive(Debug, Clone)]
struct Mark {
    /// Commit count at registration: records with `seq >= this` are the
    /// steps the delta must cover.
    seq: u64,
    /// Structural epoch at registration (see [`DeltaTracker::bump_epoch`]).
    epoch: u64,
    /// `sf_store` timestamps at registration, in insertion order.
    sf_ts: Vec<u64>,
    /// `sp_store` timestamps at registration, in insertion order.
    sp_ts: Vec<u64>,
}

/// The engine's dirty-state log, fed by the ingest worker's commit path
/// and consumed by the delta encoder. Lives inside `EngineState`, so the
/// state lock covers it.
#[derive(Debug, Default)]
pub(crate) struct DeltaTracker {
    records: VecDeque<ChangeRecord>,
    /// Total commits ever logged (the next record's `seq`).
    next_seq: u64,
    marks: BTreeMap<u64, Mark>,
    next_id: u64,
    /// Bumped by any mutation outside the append-only stream (user
    /// migration, absorb): existing marks can no longer express the
    /// change as a delta and degrade to unavailable.
    epoch: u64,
}

impl DeltaTracker {
    /// Logs one committed step. Cheap when no marks are live (nothing
    /// could ever ask for a delta spanning this step).
    pub(crate) fn record_commit(&mut self, timestamp: u64, users: Vec<usize>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.marks.is_empty() {
            return;
        }
        self.records.push_back(ChangeRecord {
            seq,
            timestamp,
            users,
        });
        while self.records.len() > MAX_RECORDS {
            self.records.pop_front();
        }
    }

    /// Invalidates every live mark: state was rewritten outside the
    /// append-only stream (rebalance migration, shard absorb), so no
    /// retained mark can serve a delta anymore.
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.records.clear();
        self.marks.clear();
    }

    /// Registers the *current* state as a mark and returns its id.
    fn register_mark(&mut self, sf_store: &SnapshotStore, sp_store: &SnapshotStore) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.marks.insert(
            id,
            Mark {
                seq: self.next_seq,
                epoch: self.epoch,
                sf_ts: sf_store.iter().map(|(t, _)| t).collect(),
                sp_ts: sp_store.iter().map(|(t, _)| t).collect(),
            },
        );
        while self.marks.len() > MAX_MARKS {
            let oldest = *self.marks.keys().next().expect("non-empty map");
            self.marks.remove(&oldest);
        }
        // Records older than every live mark can never be requested.
        let floor = self.marks.values().map(|m| m.seq).min();
        match floor {
            Some(floor) => {
                while self.records.front().is_some_and(|r| r.seq < floor) {
                    self.records.pop_front();
                }
            }
            None => self.records.clear(),
        }
        id
    }
}

// ---------------------------------------------------------------------
// The delta payload
// ---------------------------------------------------------------------

/// A serialized incremental checkpoint: everything that changed on one
/// engine between a registered base (`base_id`) and the registration of
/// its own tip (`new_id`). Produced by
/// [`SentimentEngine::delta_since`](crate::SentimentEngine::delta_since);
/// folded into a base with
/// [`SentimentEngine::apply_delta`](crate::SentimentEngine::apply_delta).
/// The raw bytes are stable for a given format version and safe to
/// persist or ship between machines of any endianness.
#[derive(Debug, Clone)]
pub struct CheckpointDelta {
    bytes: Bytes,
}

impl CheckpointDelta {
    /// Wraps previously serialized delta bytes (e.g. read back from
    /// disk). Validation happens at apply time.
    pub fn from_bytes(data: Vec<u8>) -> Self {
        Self {
            bytes: Bytes::from(data),
        }
    }

    /// The serialized byte stream.
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the delta holds no bytes (never produced by the engine).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The mark id this delta applies on top of.
    pub fn base_id(&self) -> Result<u64, TgsError> {
        Ok(delta_ids(self.as_bytes())?.0)
    }

    /// The mark id of the state this delta produces — the next delta in
    /// a chain names this as its `base_id`.
    pub fn new_id(&self) -> Result<u64, TgsError> {
        Ok(delta_ids(self.as_bytes())?.1)
    }
}

/// The `(base id, new id)` pair that follows a serialized delta's magic.
pub(crate) fn delta_ids(bytes: &[u8]) -> Result<(u64, u64), TgsError> {
    let mut r = Reader::new(bytes);
    r.magic(MAGIC)?;
    Ok((r.u64("delta base id")?, r.u64("delta new id")?))
}

// ---------------------------------------------------------------------
// Encode (engine side, under the state lock)
// ---------------------------------------------------------------------

/// The set difference between a store's marked timestamp list and its
/// live entries. Stores only pop from the front (FIFO eviction) and
/// append at the back within an epoch, so `(removed, appended)` replayed
/// onto the marked store reproduces the live one entry-for-entry.
fn store_diff(mark_ts: &[u64], store: &SnapshotStore) -> StoreDiff {
    let live: Vec<(u64, Bytes)> = store.iter().collect();
    let live_set: HashSet<u64> = live.iter().map(|(t, _)| *t).collect();
    let mark_set: HashSet<u64> = mark_ts.iter().copied().collect();
    let removed = mark_ts
        .iter()
        .copied()
        .filter(|t| !live_set.contains(t))
        .collect();
    let appended = live
        .into_iter()
        .filter(|(t, _)| !mark_set.contains(t))
        .collect();
    (removed, appended)
}

/// One snapshot-store diff: removed timestamps plus appended
/// `(timestamp, encoded matrix)` pairs.
type StoreDiff = (Vec<u64>, Vec<(u64, Bytes)>);

fn write_store_diff(w: &mut Writer, (removed, appended): &StoreDiff) {
    w.usize(removed.len());
    for &t in removed {
        w.u64(t);
    }
    w.usize(appended.len());
    for (t, bytes) in appended {
        w.u64(*t);
        w.bytes(bytes.as_slice());
    }
}

fn read_store_diff(r: &mut Reader<'_>) -> Result<StoreDiff, CodecError> {
    let removed = (0..r.count(8, "store removed count")?)
        .map(|_| r.u64("store removed timestamp"))
        .collect::<Result<_, _>>()?;
    let appended = (0..r.count(16, "store appended count")?)
        .map(|_| {
            let t = r.u64("store appended timestamp")?;
            let bytes = r.bytes("store appended matrix")?;
            Ok((t, Bytes::from(bytes.to_vec())))
        })
        .collect::<Result<_, CodecError>>()?;
    Ok((removed, appended))
}

/// Encodes the changes since `base_id`, registering the resulting tip as
/// a new mark. `Ok(None)` means the mark cannot serve a delta (unknown /
/// aged out / epoch bumped / log trimmed) and the caller should take a
/// fresh base instead. Called by the engine with the queue drained and
/// both locks held.
pub(crate) fn encode_delta(
    shared: &EngineShared,
    solver: &OnlineSolver,
    state: &mut EngineState,
    base_id: u64,
) -> Result<Option<CheckpointDelta>, TgsError> {
    let EngineState {
        timeline,
        user_track,
        sf_store,
        sp_store,
        tracker,
        ..
    } = state;
    let Some(mark) = tracker.marks.get(&base_id).cloned() else {
        return Ok(None);
    };
    if mark.epoch != tracker.epoch {
        return Ok(None);
    }
    // The log must fully cover the span since the mark.
    let retained_floor = tracker.next_seq - tracker.records.len() as u64;
    if mark.seq < retained_floor {
        return Ok(None);
    }
    let since: Vec<&ChangeRecord> = tracker
        .records
        .iter()
        .filter(|r| r.seq >= mark.seq)
        .collect();

    let mut touched: BTreeSet<usize> = BTreeSet::new();
    let mut appends_per_user: BTreeMap<usize, usize> = BTreeMap::new();
    let mut new_timestamps: Vec<u64> = Vec::with_capacity(since.len());
    for r in &since {
        new_timestamps.push(r.timestamp);
        for &u in &r.users {
            touched.insert(u);
            *appends_per_user.entry(u).or_insert(0) += 1;
        }
    }
    new_timestamps.sort_unstable();

    let new_id = tracker.register_mark(sf_store, sp_store);
    let k = shared.config.k;

    let mut w = Writer::with_capacity(1 << 12);
    w.magic(MAGIC);
    w.u64(base_id);
    w.u64(new_id);
    w.usize(k);
    w.u64(solver.steps());
    // Signed via two's complement, like the full checkpoint.
    w.u64(solver.history_step() as u64);

    // --- Sf window: refs into the (reconciled) sf store, inline on
    // eviction — the same compaction the full encoder applies, so the
    // window ships as a handful of bytes in the common case. ---
    let window: Vec<&DenseMatrix> = solver.sf_window_snapshots().collect();
    write_window(&mut w, window.into_iter(), sf_store);

    // --- Touched users' history rows (wholesale replacement: the rows
    // are window-bounded, so this is O(touched), not O(stream)). ---
    let touched_vec: Vec<usize> = touched.iter().copied().collect();
    let rows = solver.export_history_rows_for(&touched_vec);
    write_keyed_rows(
        &mut w,
        rows.iter()
            .map(|(user, entries)| (*user, entries.as_slice())),
    );

    // --- New timeline entries, ascending by timestamp. ---
    let entries = new_timestamps
        .iter()
        .map(|t| {
            timeline.get(t).ok_or_else(|| {
                TgsError::corrupt("delta change log names a timestamp the timeline lacks")
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    write_timeline(&mut w, entries.into_iter());

    // --- Per-user track appends: the commit path pushes exactly one
    // observation per touched user per step, so the last `n` entries of
    // a user's track are precisely the ones this span appended. ---
    let appends = appends_per_user
        .iter()
        .map(|(&user, &n)| {
            let track = user_track.get(&user).ok_or_else(|| {
                TgsError::corrupt("delta change log names a user the track lacks")
            })?;
            if track.len() < n {
                return Err(TgsError::corrupt(
                    "delta change log claims more appends than tracked",
                ));
            }
            Ok((user, &track[track.len() - n..]))
        })
        .collect::<Result<Vec<_>, TgsError>>()?;
    write_keyed_rows(&mut w, appends.into_iter());

    // --- Factor-store reconciliation. ---
    write_store_diff(&mut w, &store_diff(&mark.sf_ts, sf_store));
    write_store_diff(&mut w, &store_diff(&mark.sp_ts, sp_store));

    Ok(Some(CheckpointDelta::from_bytes(w.finish())))
}

/// Registers the current state as a base mark. Called by the engine with
/// the queue drained and the state lock held.
pub(crate) fn register_base(state: &mut EngineState) -> u64 {
    let EngineState {
        sf_store,
        sp_store,
        tracker,
        ..
    } = state;
    tracker.register_mark(sf_store, sp_store)
}

// ---------------------------------------------------------------------
// Apply
// ---------------------------------------------------------------------

fn reconcile(store: &mut SnapshotStore, (removed, appended): StoreDiff) {
    // Removals first: the surviving base entries keep their insertion
    // order, then appends land behind them — matching the live store's
    // FIFO history, so a later delta's diff lines up again.
    for t in removed {
        store.remove(t);
    }
    for (t, bytes) in appended {
        store.push_encoded(t, bytes);
    }
}

/// Folds `delta` into `base`, returning the full checkpoint of the
/// delta's tip. Byte-identical to the checkpoint the source engine
/// writes at that tip: the base is decoded, edited at the state level,
/// and re-encoded through the same deterministic full encoder.
pub(crate) fn apply_delta(
    base: &EngineCheckpoint,
    delta: &CheckpointDelta,
) -> Result<EngineCheckpoint, TgsError> {
    let (shared, solver, mut state) = checkpoint::decode(base)?;
    let k = shared.config.k;
    let base_state = solver.export_state();

    let mut r = Reader::new(delta.as_bytes());
    r.magic(MAGIC)?;
    r.u64("delta base id")?;
    r.u64("delta new id")?;
    if r.usize("delta k")? != k {
        return Err(TgsError::corrupt(
            "delta class count disagrees with the base checkpoint",
        ));
    }
    let steps = r.u64("delta solver steps")?;
    if steps < base_state.steps {
        return Err(TgsError::corrupt(
            "delta solver steps regress from the base checkpoint",
        ));
    }
    let history_step = r.u64("delta history step")? as i64;
    if history_step < base_state.history_step {
        return Err(TgsError::corrupt(
            "delta history step regresses from the base checkpoint",
        ));
    }

    // --- Parse everything before mutating (truncation can't half-apply). ---
    let window = read_window(&mut r)?;
    let touched_rows: KeyedRows<i64> = read_keyed_rows(&mut r, k, "delta touched rows")?;
    let new_entries = read_timeline(&mut r, k)?;
    let track_appends: KeyedRows<u64> = read_keyed_rows(&mut r, k, "delta track appends")?;
    let sf_diff = read_store_diff(&mut r)?;
    let sp_diff = read_store_diff(&mut r)?;
    r.done()?;

    // --- Stores first: the window refs resolve against the result. ---
    reconcile(&mut state.sf_store, sf_diff);
    reconcile(&mut state.sp_store, sp_diff);

    // --- Timeline: strictly new entries (the stream is append-only). ---
    for entry in new_entries {
        let t = entry.timestamp;
        if state.timeline.insert(t, entry).is_some() {
            return Err(TgsError::corrupt(
                "delta re-adds a timeline timestamp the base holds",
            ));
        }
    }

    // --- Track appends extend (or start) each touched user's list. ---
    for (user, obs) in track_appends {
        state.user_track.entry(user).or_default().extend(obs);
    }

    // --- Per-user history: touched users are replaced wholesale; the
    // rest replay the engine's horizon pruning. Pruning horizons are
    // monotone in the step counter, so pruning untouched users once at
    // the final horizon equals pruning them step by step (entries are
    // newest-first, so the oldest candidates pop from the back). ---
    let touched_set: BTreeSet<usize> = touched_rows.iter().map(|(u, _)| *u).collect();
    let mut rows: BTreeMap<usize, Vec<(i64, Vec<f64>)>> =
        base_state.history_rows.into_iter().collect();
    for (user, entries) in touched_rows {
        if entries.is_empty() {
            return Err(TgsError::corrupt(
                "delta touches a user with an empty history row",
            ));
        }
        rows.insert(user, entries);
    }
    let horizon = history_step - shared.config.window.saturating_sub(1) as i64;
    for (user, hist) in rows.iter_mut() {
        if touched_set.contains(user) {
            continue;
        }
        while hist.len() > 1 && hist.last().is_some_and(|(step, _)| *step <= horizon) {
            hist.pop();
        }
    }

    // --- Resolve the window and rebuild the solver (validates shapes). ---
    let sf_window = resolve_window(window, &state.sf_store, (shared.vocab.len(), k))?;
    let solver = OnlineSolver::from_state(
        shared.config.clone(),
        OnlineSolverState {
            steps,
            sf_window,
            history_step,
            history_rows: rows.into_iter().collect(),
        },
    )?;

    Ok(checkpoint::encode(&shared, &solver, &state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineBuilder, EngineSnapshot, SentimentEngine};

    fn corpus() -> tgs_data::Corpus {
        tgs_data::generate(&tgs_data::GeneratorConfig {
            num_users: 24,
            total_tweets: 200,
            num_days: 10,
            ..Default::default()
        })
    }

    fn engine_over(c: &tgs_data::Corpus) -> SentimentEngine {
        EngineBuilder::new().k(3).max_iters(6).fit(c).unwrap()
    }

    #[test]
    fn delta_chain_matches_full_checkpoint_at_every_step() {
        let c = corpus();
        let engine = engine_over(&c);
        let windows = tgs_data::day_windows(c.num_days, 1);
        // Warm up two steps, then base.
        for &(lo, hi) in &windows[..2] {
            engine
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .unwrap();
        }
        let (base_id, base) = engine.checkpoint_base().unwrap();
        assert_eq!(
            base.as_bytes(),
            engine.checkpoint().unwrap().as_bytes(),
            "a base is byte-identical to a plain checkpoint"
        );
        let (mut tip, mut deltas) = (base_id, Vec::new());
        for &(lo, hi) in &windows[2..] {
            engine
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .unwrap();
            let delta = engine
                .delta_since(tip)
                .unwrap()
                .expect("live mark must serve a delta");
            tip = delta.new_id().unwrap();
            deltas.push(delta);
            let folded = deltas
                .iter()
                .try_fold(base.clone(), |ckpt, d| {
                    SentimentEngine::apply_delta(&ckpt, d)
                })
                .unwrap();
            assert_eq!(
                folded.as_bytes(),
                engine.checkpoint().unwrap().as_bytes(),
                "base + deltas must be byte-identical to the full checkpoint"
            );
        }
    }

    #[test]
    fn empty_delta_round_trips_to_the_base() {
        let c = corpus();
        let engine = engine_over(&c);
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, 0, c.num_days))
            .unwrap();
        let (base_id, base) = engine.checkpoint_base().unwrap();
        let delta = engine.delta_since(base_id).unwrap().unwrap();
        assert!(
            delta.len() < base.len() / 4,
            "an idle delta must be tiny: {} vs base {}",
            delta.len(),
            base.len()
        );
        let applied = SentimentEngine::apply_delta(&base, &delta).unwrap();
        assert_eq!(applied.as_bytes(), base.as_bytes());
    }

    #[test]
    fn unknown_or_invalidated_marks_are_unavailable_not_errors() {
        let c = corpus();
        let engine = engine_over(&c);
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, 0, c.num_days))
            .unwrap();
        engine.flush().unwrap();
        assert!(engine.delta_since(99).unwrap().is_none(), "unknown mark");
        let (base_id, _) = engine.checkpoint_base().unwrap();
        // A structural rewrite (user migration) invalidates live marks.
        let _ = engine.export_users_bytes(0, usize::MAX);
        assert!(
            engine.delta_since(base_id).unwrap().is_none(),
            "epoch bump must invalidate the mark"
        );
    }

    #[test]
    fn marks_age_out_beyond_the_retention_window() {
        let c = corpus();
        let engine = engine_over(&c);
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, 0, c.num_days))
            .unwrap();
        let (first_id, _) = engine.checkpoint_base().unwrap();
        for _ in 0..MAX_MARKS {
            engine.checkpoint_base().unwrap();
        }
        assert!(
            engine.delta_since(first_id).unwrap().is_none(),
            "aged-out mark must be unavailable"
        );
    }

    #[test]
    fn corrupt_deltas_are_rejected_not_panicked() {
        let c = corpus();
        let engine = engine_over(&c);
        let windows = tgs_data::day_windows(c.num_days, 2);
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[0].0,
                windows[0].1,
            ))
            .unwrap();
        let (base_id, base) = engine.checkpoint_base().unwrap();
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[1].0,
                windows[1].1,
            ))
            .unwrap();
        let delta = engine.delta_since(base_id).unwrap().unwrap();
        let full = delta.as_bytes().to_vec();
        for cut in (0..full.len()).step_by(131).chain([full.len() - 1]) {
            let bad = CheckpointDelta::from_bytes(full[..cut].to_vec());
            assert!(
                apply_delta(&base, &bad).is_err(),
                "prefix of {cut} bytes applied"
            );
        }
        assert!(apply_delta(&base, &CheckpointDelta::from_bytes(b"garbage!".to_vec())).is_err());
        assert!(apply_delta(&base, &delta).is_ok());
    }

    #[test]
    fn restored_engines_serve_deltas_from_fresh_marks() {
        let c = corpus();
        let engine = engine_over(&c);
        let windows = tgs_data::day_windows(c.num_days, 2);
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[0].0,
                windows[0].1,
            ))
            .unwrap();
        let ckpt = engine.checkpoint().unwrap();
        let restored = SentimentEngine::restore(&ckpt).unwrap();
        let (base_id, base) = restored.checkpoint_base().unwrap();
        restored
            .ingest(EngineSnapshot::from_corpus_window(
                &c,
                windows[1].0,
                windows[1].1,
            ))
            .unwrap();
        let delta = restored.delta_since(base_id).unwrap().unwrap();
        assert_eq!(
            apply_delta(&base, &delta).unwrap().as_bytes(),
            restored.checkpoint().unwrap().as_bytes()
        );
    }
}
