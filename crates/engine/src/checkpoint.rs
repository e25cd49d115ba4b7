//! Byte-level checkpointing of a whole engine session.
//!
//! The format is a versioned little-endian stream:
//! configuration → vocabulary → lexicon prior → solver temporal state
//! (`Sf` window, per-user history, step counter) → recorded timeline →
//! per-user observations → the bounded `Sf`/`Sp` factor stores. Every
//! read is bounds-checked; structural violations surface as
//! [`TgsError::CorruptCheckpoint`], never a panic.
//!
//! Restoration is exact: matrices round-trip bit-for-bit (f64 ↔ LE bits),
//! so a restored engine produces identical results for identical
//! subsequent snapshots.
//!
//! **Compaction (format v2).** The stores only ever hold what survived
//! their byte budgets, so budget-evicted factor snapshots are never
//! serialized; and the solver's `Sfw` window — whose matrices are
//! byte-identical to the newest retained `Sf`-store entries — is written
//! as *references* into the store section instead of re-serializing the
//! matrices (each entry falls back to inline bytes only when the store
//! already evicted its timestamp). Restoring a compacted checkpoint
//! yields identical query results for every retained timestamp and
//! bit-identical subsequent solves.

use bytes::Bytes;
use tgs_core::codec::{CodecError, Reader, Writer};
use tgs_core::{
    encode_matrix, InitStrategy, OnlineConfig, OnlineSolver, OnlineSolverState, SnapshotStore,
    TgsError,
};
use tgs_linalg::DenseMatrix;
use tgs_text::{TokenizerConfig, Vocabulary, Weighting};

use crate::engine::{EngineShared, EngineState};
use crate::query::TimelineEntry;

/// Magic + format version prefix (v2: window-into-store compaction).
const MAGIC: &[u8; 8] = b"TGSENG\x00\x02";

/// A serialized engine session. Obtain from
/// [`crate::SentimentEngine::checkpoint`]; rebuild with
/// [`crate::SentimentEngine::restore`]. The raw bytes are stable for a
/// given format version and safe to persist to disk or ship between
/// machines of any endianness.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    bytes: Bytes,
}

impl EngineCheckpoint {
    /// Wraps previously serialized checkpoint bytes (e.g. read back from
    /// disk). Validation happens at [`crate::SentimentEngine::restore`].
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

    /// True when the checkpoint holds no bytes (never produced by
    /// [`crate::SentimentEngine::checkpoint`]).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

// ---------------------------------------------------------------------
// Sections shared with the delta codec (`crate::delta`)
// ---------------------------------------------------------------------

fn init_to_u8(init: InitStrategy) -> u8 {
    match init {
        InitStrategy::Random => 0,
        InitStrategy::LexiconSeeded => 1,
    }
}

fn init_from_u8(v: u8) -> Result<InitStrategy, TgsError> {
    match v {
        0 => Ok(InitStrategy::Random),
        1 => Ok(InitStrategy::LexiconSeeded),
        _ => Err(TgsError::corrupt(format!("unknown init strategy tag {v}"))),
    }
}

fn weighting_to_u8(w: Weighting) -> u8 {
    match w {
        Weighting::Counts => 0,
        Weighting::Binary => 1,
        Weighting::TfIdf => 2,
    }
}

fn weighting_from_u8(v: u8) -> Result<Weighting, TgsError> {
    match v {
        0 => Ok(Weighting::Counts),
        1 => Ok(Weighting::Binary),
        2 => Ok(Weighting::TfIdf),
        _ => Err(TgsError::corrupt(format!("unknown weighting tag {v}"))),
    }
}

/// A length-prefixed [`encode_matrix`] blob.
fn read_matrix_blob(r: &mut Reader<'_>, what: &str) -> Result<DenseMatrix, CodecError> {
    let mut blob = Reader::new(r.bytes(what)?);
    let m = blob.matrix(what)?;
    blob.done()?;
    Ok(m)
}

/// A keyed-row key: solver history steps are signed and cross as two's
/// complement `u64` (rebalance-migrated rows can predate a young
/// solver's step 0); track keys are timestamps.
pub(crate) trait RowKey: Copy {
    fn to_wire(self) -> u64;
    fn from_wire(v: u64) -> Self;
}

impl RowKey for u64 {
    fn to_wire(self) -> u64 {
        self
    }
    fn from_wire(v: u64) -> Self {
        v
    }
}

impl RowKey for i64 {
    fn to_wire(self) -> u64 {
        self as u64
    }
    fn from_wire(v: u64) -> Self {
        v as i64
    }
}

/// Per-user keyed rows: each user with their `(key, k-wide row)` entries.
pub(crate) type KeyedRows<K> = Vec<(usize, Vec<(K, Vec<f64>)>)>;

/// Writes a keyed-row list,
/// `u64 users | users × (u64 user | u64 n | n × (u64 key, k × f64))` —
/// the layout of the checkpoint's history and track sections and of the
/// delta's touched-row and track-append sections.
pub(crate) fn write_keyed_rows<'r, K: RowKey + 'r>(
    w: &mut Writer,
    rows: impl ExactSizeIterator<Item = (usize, &'r [(K, Vec<f64>)])>,
) {
    w.usize(rows.len());
    for (user, entries) in rows {
        w.usize(user);
        w.usize(entries.len());
        for (key, row) in entries {
            w.u64(key.to_wire());
            for &v in row {
                w.f64(v);
            }
        }
    }
}

/// Inverse of [`write_keyed_rows`] for `k`-wide rows.
pub(crate) fn read_keyed_rows<K: RowKey>(
    r: &mut Reader<'_>,
    k: usize,
    what: &str,
) -> Result<KeyedRows<K>, CodecError> {
    let users = r.count(16, what)?;
    let entry_floor = k.saturating_add(1).saturating_mul(8);
    let mut out = Vec::with_capacity(users);
    for _ in 0..users {
        let user = r.usize(what)?;
        let n = r.count(entry_floor, what)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let key = K::from_wire(r.u64(what)?);
            let mut row = Vec::with_capacity(k);
            for _ in 0..k {
                row.push(r.f64(what)?);
            }
            entries.push((key, row));
        }
        out.push((user, entries));
    }
    Ok(out)
}

/// Writes a count-prefixed list of timeline entries, each
/// `timestamp | tweets | users | new | evolving | iterations | converged
/// | objective | k tweet counts | k user counts`.
pub(crate) fn write_timeline<'e>(
    w: &mut Writer,
    entries: impl ExactSizeIterator<Item = &'e TimelineEntry>,
) {
    w.usize(entries.len());
    for entry in entries {
        w.u64(entry.timestamp);
        w.usize(entry.tweets);
        w.usize(entry.users);
        w.usize(entry.new_users);
        w.usize(entry.evolving_users);
        w.usize(entry.iterations);
        w.bool(entry.converged);
        w.f64(entry.objective);
        for &v in entry.tweet_counts.iter().chain(&entry.user_counts) {
            w.usize(v);
        }
    }
}

/// Inverse of [`write_timeline`] for `k` classes.
pub(crate) fn read_timeline(
    r: &mut Reader<'_>,
    k: usize,
) -> Result<Vec<TimelineEntry>, CodecError> {
    let entry_floor = k.saturating_mul(2).saturating_add(7).saturating_mul(8) + 1;
    let n = r.count(entry_floor, "timeline length")?;
    (0..n)
        .map(|_| {
            Ok(TimelineEntry {
                timestamp: r.u64("timeline timestamp")?,
                tweets: r.usize("timeline tweets")?,
                users: r.usize("timeline users")?,
                new_users: r.usize("timeline new users")?,
                evolving_users: r.usize("timeline evolving users")?,
                iterations: r.usize("timeline iterations")?,
                converged: r.bool("timeline converged")?,
                objective: r.f64("timeline objective")?,
                tweet_counts: (0..k)
                    .map(|_| r.usize("timeline tweet count"))
                    .collect::<Result<_, _>>()?,
                user_counts: (0..k)
                    .map(|_| r.usize("timeline user count"))
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect()
}

/// One serialized `Sf`-window entry: a back-reference to an `Sf`-store
/// timestamp, or the matrix inline when the store no longer holds it.
pub(crate) enum WindowEntry {
    Inline(DenseMatrix),
    Ref(u64),
}

/// Writes the solver's `Sf` window (compaction): each matrix is the
/// `Sf(t−i)` the solver pushed when it committed snapshot `t−i`, so it is
/// byte-identical to that timestamp's `Sf`-store entry unless the budget
/// evicted it. Entries write tag 1 + the store timestamp while the store
/// holds the bytes, tag 0 + the inline matrix otherwise.
pub(crate) fn write_window<'m>(
    w: &mut Writer,
    window: impl ExactSizeIterator<Item = &'m DenseMatrix>,
    sf_store: &SnapshotStore,
) {
    w.usize(window.len());
    for sf in window {
        let encoded = encode_matrix(sf);
        match sf_store
            .iter()
            .find(|(_, bytes)| bytes.as_slice() == encoded.as_slice())
        {
            Some((t, _)) => {
                w.u8(1);
                w.u64(t);
            }
            None => {
                w.u8(0);
                w.bytes(encoded.as_slice());
            }
        }
    }
}

/// Inverse of [`write_window`]; references resolve later, against the
/// store section, through [`resolve_window`].
pub(crate) fn read_window(r: &mut Reader<'_>) -> Result<Vec<WindowEntry>, TgsError> {
    let n = r.count(9, "sf window length")?;
    (0..n)
        .map(|_| match r.u8("sf window entry tag")? {
            0 => Ok(WindowEntry::Inline(read_matrix_blob(
                r,
                "sf window snapshot",
            )?)),
            1 => Ok(WindowEntry::Ref(r.u64("sf window reference")?)),
            t => Err(TgsError::corrupt(format!(
                "unknown sf window entry tag {t}"
            ))),
        })
        .collect()
}

/// Resolves window entries against `sf_store`. Each matrix must be
/// `vocab × k` — a semantic check, so that a bad window fails the
/// restore instead of the first post-restore solve.
pub(crate) fn resolve_window(
    entries: Vec<WindowEntry>,
    sf_store: &SnapshotStore,
    (vocab, k): (usize, usize),
) -> Result<Vec<DenseMatrix>, TgsError> {
    entries
        .into_iter()
        .map(|entry| {
            let sf = match entry {
                WindowEntry::Inline(sf) => sf,
                WindowEntry::Ref(t) => sf_store.get(t).ok_or_else(|| {
                    TgsError::corrupt(format!(
                        "sf window references timestamp {t}, which the sf store does not retain"
                    ))
                })?,
            };
            if sf.shape() != (vocab, k) {
                return Err(TgsError::corrupt(format!(
                    "sf window snapshot is {}×{}, expected {vocab}×{k}",
                    sf.rows(),
                    sf.cols()
                )));
            }
            Ok(sf)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

pub(crate) fn encode(
    shared: &EngineShared,
    solver: &OnlineSolver,
    state: &EngineState,
) -> EngineCheckpoint {
    let mut w = Writer::with_capacity(1 << 16);
    w.magic(MAGIC);

    // --- Configuration ---
    let c = &shared.config;
    w.usize(c.k);
    w.f64(c.alpha);
    w.f64(c.beta);
    w.f64(c.gamma);
    w.f64(c.tau);
    w.usize(c.window);
    // User windows are unnormalized; `decode` rejects any other value.
    w.u8(0);
    w.usize(c.max_iters);
    w.f64(c.tol);
    w.u64(c.seed);
    w.u8(init_to_u8(c.init));
    w.bool(c.track_objective);
    w.usize(shared.queue_depth);
    w.usize(shared.tokenizer.min_token_len);
    w.bool(shared.tokenizer.keep_mentions);
    w.bool(shared.tokenizer.keep_numbers);
    w.u8(weighting_to_u8(shared.weighting));

    // --- Vocabulary + prior ---
    w.usize(shared.vocab.len());
    for token in shared.vocab.tokens() {
        w.str(token);
    }
    w.bytes(encode_matrix(&shared.sf0).as_slice());

    // --- Solver temporal state ---
    let solver_state = solver.export_state();
    w.u64(solver_state.steps);
    write_window(&mut w, solver_state.sf_window.iter(), &state.sf_store);
    w.u64(solver_state.history_step as u64);
    write_keyed_rows(
        &mut w,
        solver_state
            .history_rows
            .iter()
            .map(|(user, entries)| (*user, entries.as_slice())),
    );

    // --- Timeline ---
    write_timeline(&mut w, state.timeline.values());

    // --- Per-user observations (sorted by user id for determinism) ---
    let mut users: Vec<_> = state.user_track.iter().collect();
    users.sort_unstable_by_key(|(&u, _)| u);
    write_keyed_rows(
        &mut w,
        users
            .into_iter()
            .map(|(&user, track)| (user, track.as_slice())),
    );

    // --- Factor stores ---
    for store in [&state.sf_store, &state.sp_store] {
        w.usize(store.budget_bytes());
        w.usize(store.len());
        for (t, bytes) in store.iter() {
            w.u64(t);
            w.bytes(bytes.as_slice());
        }
    }

    EngineCheckpoint::from_bytes(w.finish())
}

// ---------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------

pub(crate) fn decode(
    ckpt: &EngineCheckpoint,
) -> Result<(EngineShared, OnlineSolver, EngineState), TgsError> {
    let mut r = Reader::new(ckpt.as_bytes());
    r.magic(MAGIC)?;

    // --- Configuration ---
    let k = r.usize("k")?;
    let alpha = r.f64("alpha")?;
    let beta = r.f64("beta")?;
    let gamma = r.f64("gamma")?;
    let tau = r.f64("tau")?;
    let window = r.usize("window")?;
    // A nonzero byte asks for normalized user windows, which this build
    // does not compute; restoring it would silently change `Suw`.
    let user_window_flag = r.u8("user window flag")?;
    if user_window_flag != 0 {
        return Err(TgsError::corrupt(format!(
            "user window flag {user_window_flag}: normalized user windows are not supported"
        )));
    }
    let config = OnlineConfig {
        k,
        alpha,
        beta,
        gamma,
        tau,
        window,
        max_iters: r.usize("max_iters")?,
        tol: r.f64("tol")?,
        seed: r.u64("seed")?,
        init: init_from_u8(r.u8("init")?)?,
        track_objective: r.bool("track_objective")?,
    };
    config.try_validate()?;
    let queue_depth = r.usize("queue_depth")?.max(1);
    let tokenizer = TokenizerConfig {
        min_token_len: r.usize("min_token_len")?,
        keep_mentions: r.bool("keep_mentions")?,
        keep_numbers: r.bool("keep_numbers")?,
    };
    let weighting = weighting_from_u8(r.u8("weighting")?)?;

    // --- Vocabulary + prior ---
    let vocab_len = r.count(8, "vocabulary length")?;
    let tokens = (0..vocab_len)
        .map(|_| r.str("vocabulary token"))
        .collect::<Result<Vec<_>, _>>()?;
    let vocab = Vocabulary::from_tokens(tokens);
    if vocab.len() != vocab_len {
        return Err(TgsError::corrupt("duplicate vocabulary tokens"));
    }
    let sf0 = read_matrix_blob(&mut r, "sf0 prior")?;
    if sf0.shape() != (vocab.len(), k) {
        return Err(TgsError::corrupt(format!(
            "sf0 prior is {}×{}, expected {}×{k}",
            sf0.shape().0,
            sf0.shape().1,
            vocab.len()
        )));
    }

    // --- Solver temporal state (window references resolve against the
    // Sf store, which comes later in the stream) ---
    let steps = r.u64("solver steps")?;
    let window = read_window(&mut r)?;
    let history_step = r.u64("history step")? as i64;
    let history_rows = read_keyed_rows(&mut r, k, "history rows")?;

    // --- Timeline ---
    let timeline = read_timeline(&mut r, k)?
        .into_iter()
        .map(|entry| (entry.timestamp, entry))
        .collect();

    // --- Per-user observations ---
    let user_track = read_keyed_rows(&mut r, k, "user track")?
        .into_iter()
        .collect();

    // --- Factor stores ---
    let mut stores = Vec::with_capacity(2);
    for name in ["sf store", "sp store"] {
        let mut store = SnapshotStore::new(r.usize(name)?);
        for _ in 0..r.count(16, name)? {
            let t = r.u64(name)?;
            store.put(t, &read_matrix_blob(&mut r, name)?);
        }
        stores.push(store);
    }
    let sp_store = stores.pop().expect("two stores decoded");
    let sf_store = stores.pop().expect("two stores decoded");
    r.done()?;

    let sf_window = resolve_window(window, &sf_store, (vocab.len(), k))?;
    let solver = OnlineSolver::from_state(
        config.clone(),
        OnlineSolverState {
            steps,
            sf_window,
            history_step,
            history_rows,
        },
    )?;

    let shared = EngineShared {
        vocab,
        sf0,
        config,
        tokenizer,
        weighting,
        queue_depth,
    };
    let state = EngineState {
        timeline,
        user_track,
        sf_store,
        sp_store,
        failures: std::collections::VecDeque::new(),
        tracker: crate::delta::DeltaTracker::default(),
    };
    Ok((shared, solver, state))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-offset cursor for white-box walks of the serialized layout.
    struct Walk<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Walk<'a> {
        fn skip(&mut self, n: usize) {
            self.pos += n;
        }

        fn u64(&mut self) -> u64 {
            let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
            self.pos += 8;
            v
        }

        fn u8(&mut self) -> u8 {
            let v = self.buf[self.pos];
            self.pos += 1;
            v
        }

        /// Advances past the header up to the first Sf-window entry.
        fn seek_window(&mut self) -> usize {
            self.skip(MAGIC.len());
            self.skip(8); // k
            self.skip(4 * 8); // alpha, beta, gamma, tau
            self.skip(8 + 1 + 8 + 8 + 8 + 2); // window..init+track flags
            self.skip(8 + 8 + 3); // queue_depth, min_token_len, tokenizer+weighting
            let vocab_len = self.u64() as usize;
            for _ in 0..vocab_len {
                let token_len = self.u64() as usize;
                self.skip(token_len);
            }
            let sf0_len = self.u64() as usize;
            self.skip(sf0_len);
            self.skip(8); // solver steps
            self.u64() as usize // window length
        }
    }

    /// Walks a serialized checkpoint up to the Sf-window section and
    /// returns each entry's compaction tag (1 = store reference,
    /// 0 = inline matrix).
    fn window_tags(full: &[u8]) -> Vec<u8> {
        let mut w = Walk { buf: full, pos: 0 };
        let window_len = w.seek_window();
        let mut tags = Vec::with_capacity(window_len);
        for _ in 0..window_len {
            let tag = w.u8();
            tags.push(tag);
            match tag {
                1 => w.skip(8),
                0 => {
                    let len = w.u64() as usize;
                    w.skip(len);
                }
                other => panic!("unknown window tag {other}"),
            }
        }
        tags
    }

    fn streamed_engine(window: usize, store_budget: usize) -> crate::SentimentEngine {
        use crate::{EngineBuilder, EngineSnapshot};
        let corpus = tgs_data::generate(&tgs_data::presets::tiny(29));
        let engine = EngineBuilder::new()
            .online(OnlineConfig {
                k: 3,
                max_iters: 4,
                window,
                ..OnlineConfig::default()
            })
            .store_budget_bytes(store_budget)
            .fit(&corpus)
            .unwrap();
        for (lo, hi) in tgs_data::day_windows(corpus.num_days, 1) {
            engine
                .ingest(EngineSnapshot::from_corpus_window(&corpus, lo, hi))
                .unwrap();
        }
        engine.flush().unwrap();
        engine
    }

    #[test]
    fn window_is_compacted_into_store_references() {
        // Default-sized store: every window matrix is still retained by
        // the Sf store, so the whole window serializes as references.
        let engine = streamed_engine(3, 64 << 20);
        let ckpt = engine.checkpoint().unwrap();
        let tags = window_tags(ckpt.as_bytes());
        assert_eq!(tags.len(), 2, "window = 3 keeps w − 1 = 2 snapshots");
        assert!(
            tags.iter().all(|&t| t == 1),
            "retained window matrices must be references, got {tags:?}"
        );
        // The references resolve on restore, bit-identically.
        let restored = crate::SentimentEngine::restore(&ckpt).unwrap();
        assert_eq!(restored.query().timeline(..), engine.query().timeline(..));
        let ckpt2 = restored.checkpoint().unwrap();
        assert_eq!(ckpt2.as_bytes(), ckpt.as_bytes(), "re-encode is stable");
    }

    #[test]
    fn evicted_window_matrices_fall_back_to_inline() {
        // A starving store budget keeps a single entry, so the older
        // window matrix is gone from the store and must inline.
        let engine = streamed_engine(3, 1);
        let ckpt = engine.checkpoint().unwrap();
        let tags = window_tags(ckpt.as_bytes());
        assert_eq!(tags.len(), 2);
        assert!(tags.contains(&0), "evicted matrix must inline: {tags:?}");
        let restored = crate::SentimentEngine::restore(&ckpt).unwrap();
        assert_eq!(restored.query().timeline(..), engine.query().timeline(..));
    }

    #[test]
    fn dangling_window_reference_is_rejected() {
        let engine = streamed_engine(2, 64 << 20);
        let full = engine.checkpoint().unwrap().as_bytes().to_vec();
        // Locate the single window entry (tag 1 + timestamp) and point it
        // at a timestamp the store never held.
        let tags = window_tags(&full);
        assert_eq!(tags, vec![1]);
        // Re-walk to the tag position; the referenced timestamp follows.
        let mut w = Walk { buf: &full, pos: 0 };
        w.seek_window();
        let tag_offset = w.pos;
        let mut tampered = full;
        tampered[tag_offset + 1..tag_offset + 9].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = match decode(&EngineCheckpoint::from_bytes(tampered)) {
            Err(e) => e,
            Ok(_) => panic!("dangling window reference must fail decode"),
        };
        assert!(matches!(err, TgsError::CorruptCheckpoint { .. }));
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for bad in [
            Vec::new(),
            b"short".to_vec(),
            b"NOTMAGIC________________".to_vec(),
            MAGIC.to_vec(), // header only, truncated body
        ] {
            let ckpt = EngineCheckpoint::from_bytes(bad);
            assert!(decode(&ckpt).is_err());
        }
    }

    #[test]
    fn truncations_of_a_valid_checkpoint_never_panic() {
        use crate::{EngineBuilder, EngineSnapshot};
        let corpus = tgs_data::generate(&tgs_data::presets::tiny(13));
        let engine = EngineBuilder::new().k(3).max_iters(4).fit(&corpus).unwrap();
        engine
            .ingest(EngineSnapshot::from_corpus_window(
                &corpus,
                0,
                corpus.num_days,
            ))
            .unwrap();
        engine.flush().unwrap();
        let full = engine.checkpoint().unwrap().as_bytes().to_vec();
        // Every prefix must either decode (only the full stream does) or
        // fail with a typed error — never panic.
        for cut in (0..full.len()).step_by(97).chain([full.len() - 1]) {
            let ckpt = EngineCheckpoint::from_bytes(full[..cut].to_vec());
            assert!(decode(&ckpt).is_err(), "prefix of {cut} bytes decoded");
        }
        assert!(decode(&EngineCheckpoint::from_bytes(full)).is_ok());
    }

    #[test]
    fn normalized_user_windows_are_rejected() {
        let mut bytes = streamed_engine(2, 64 << 20)
            .checkpoint()
            .unwrap()
            .as_bytes()
            .to_vec();
        // After the magic: k, alpha, beta, gamma, tau and window.
        let flag = MAGIC.len() + 6 * 8;
        assert_eq!(bytes[flag], 0);
        bytes[flag] = 1;
        let err = match crate::SentimentEngine::restore(&EngineCheckpoint::from_bytes(bytes)) {
            Err(e) => e,
            Ok(_) => panic!("a checkpoint asking for normalized user windows must not restore"),
        };
        assert!(matches!(err, TgsError::CorruptCheckpoint { .. }), "{err}");
    }
}
