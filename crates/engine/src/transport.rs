//! The shard transport seam: every call the multi-shard router makes
//! against a worker, abstracted behind one object-safe trait.
//!
//! [`ShardedEngine`](crate::ShardedEngine) and
//! [`ShardedQuery`](crate::ShardedQuery) route ingest, the per-round
//! `Sf`/ghost exchange, queries, stats, checkpoint sections and the
//! `export_users`/`import_users` migration seam through a
//! [`ShardTransport`], so the same router code drives an in-process
//! fleet ([`LocalShard`], one [`SentimentEngine`] per shard behind a
//! thread) and a distributed one (`tgs-net`'s TCP client speaking the
//! framed wire protocol to `tgs shard` servers).
//!
//! **Generation checking.** Data-plane calls carry the topology
//! generation of the [`PartitionMap`](tgs_data::PartitionMap) the caller
//! routed with. Every transport tracks the newest generation it has
//! seen (monotone: newer generations are adopted on sight) and rejects
//! older ones with [`TgsError::StaleTopology`]. The router itself never
//! sends a stale one: its ingests and queries read the fleet under the
//! read half of the topology lock a rebalance holds for writing. The
//! check guards every other client (a wire client addressing a slot, a
//! wrapper holding a transport), which would otherwise silently miss
//! migrated users or double-count a merged worker's history when it
//! routes with a pre-rebalance map. Control-plane calls (flush, stats,
//! the rebalance/migration surface itself) are exempt: they are either
//! process-local monitoring or driven by the router while it holds the
//! fleet's topology lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tgs_core::codec::{CodecError, Reader, Writer};
use tgs_core::TgsError;
use tgs_linalg::DenseMatrix;

use crate::engine::{EngineStats, SentimentEngine};
use crate::query::{ClusterSummary, TimelineEntry, UserSentiment};
use crate::snapshot::EngineSnapshot;

/// One shard worker as seen by the multi-shard router: the full
/// ingest/query/stats/checkpoint/migration surface, location-agnostic.
///
/// Calls taking a `generation` are data-plane: implementations must
/// reject generations older than the newest they have seen with
/// [`TgsError::StaleTopology`], and adopt newer ones (see the module
/// docs). The remaining calls are control-plane and generation-exempt.
pub trait ShardTransport: Send + Sync {
    // --- data plane (generation-checked) ---

    /// Queues one pre-routed sub-snapshot on the worker.
    fn ingest(&self, generation: u64, snapshot: EngineSnapshot) -> Result<(), TgsError>;

    /// Timeline entries with `lo <= timestamp <= hi`, ascending.
    fn timeline(&self, generation: u64, lo: u64, hi: u64) -> Result<Vec<TimelineEntry>, TgsError>;

    /// The newest committed timestamp, if any.
    fn latest_timestamp(&self, generation: u64) -> Result<Option<u64>, TgsError>;

    /// The user's sentiment as of `at` (see
    /// [`crate::EngineQuery::user_sentiment`]).
    fn user_sentiment(
        &self,
        generation: u64,
        user: usize,
        at: u64,
    ) -> Result<UserSentiment, TgsError>;

    /// Every recorded observation for the user, ascending.
    fn user_timeline(&self, generation: u64, user: usize)
        -> Result<Vec<(u64, Vec<f64>)>, TgsError>;

    /// Users with recorded history on this worker.
    fn known_users(&self, generation: u64) -> Result<usize, TgsError>;

    /// Per-cluster composition of the worker's snapshot at exactly `t`.
    fn cluster_summary(&self, generation: u64, t: u64) -> Result<ClusterSummary, TgsError>;

    /// The worker's recorded `Sf` factor at exactly `t`.
    fn sf_at(&self, generation: u64, t: u64) -> Result<DenseMatrix, TgsError>;

    // --- control plane (generation-exempt) ---

    /// Drains the worker's queue; surfaces the first pending ingest
    /// failure or the worker's committed step count.
    fn flush(&self) -> Result<u64, TgsError>;

    /// The worker's ingest metrics.
    fn stats(&self) -> Result<EngineStats, TgsError>;

    /// Whether the worker's bounded ingest queue currently has room —
    /// the router's pre-split capacity probe, so a shed batch is shed
    /// whole (no partial per-shard commits). Advisory: a slot can be
    /// taken between the probe and the ingest. Remote transports keep
    /// this default `Ok(true)` — a TCP worker's backpressure is applied
    /// by its own server-side queue, and probing it would cost a
    /// round-trip per ingest.
    fn queue_has_room(&self) -> Result<bool, TgsError> {
        Ok(true)
    }

    /// Every committed snapshot timestamp, ascending. The router calls
    /// it once per worker, when it is built, to re-claim the timestamps
    /// a restored or reconnected fleet already holds; after that it
    /// keeps the fleet's timestamps itself
    /// ([`crate::ShardedEngine::timestamps`]).
    fn timestamps(&self) -> Result<Vec<u64>, TgsError>;

    /// Number of sentiment clusters.
    fn k(&self) -> Result<usize, TgsError>;

    /// The worker's frozen vocabulary, as its token list (token id =
    /// list index). Fetched once per fleet; the router ranks
    /// `top_words` locally against it.
    fn vocab_tokens(&self) -> Result<Vec<String>, TgsError>;

    /// The solver's current decayed sentiment estimate for a user —
    /// the factor broadcast into ghost rows on other shards.
    fn user_factor(&self, user: usize) -> Result<Option<Vec<f64>>, TgsError>;

    /// Drains the queue and serializes the worker as one single-engine
    /// checkpoint section (the fleet checkpoint's per-shard payload and
    /// the wire serialization of a whole worker).
    fn checkpoint_section(&self) -> Result<Vec<u8>, TgsError>;

    /// Like [`ShardTransport::checkpoint_section`], but also registers
    /// the section as a *base* for delta checkpointing and returns its
    /// worker-local mark id (see [`SentimentEngine::checkpoint_base`]).
    /// Ids are per-worker and not persisted: a respawned or restored
    /// worker starts fresh.
    fn checkpoint_base(&self) -> Result<(u64, Vec<u8>), TgsError>;

    /// The serialized [`crate::CheckpointDelta`] of everything that
    /// changed on this worker since the mark `base_id`, registering the
    /// tip as a new mark. `Ok(None)` means the mark cannot serve a
    /// delta (unknown, aged out, invalidated by a migration) — take a
    /// fresh [`ShardTransport::checkpoint_base`] instead. Idempotency:
    /// re-asking the same `base_id` yields an equivalent delta (a new
    /// mark id, same state), so retries after a lost reply are safe.
    fn delta_since(&self, base_id: u64) -> Result<Option<Vec<u8>>, TgsError>;

    /// Removes and returns all per-user state for ids in `lo..hi`,
    /// serialized with `SentimentEngine::export_users_bytes`. The
    /// caller must have flushed this worker first.
    fn export_users(&self, lo: usize, hi: usize) -> Result<Vec<u8>, TgsError>;

    /// Imports per-user state previously exported from another worker.
    /// On rejection the exported bytes remain valid: re-import them to
    /// the source to roll the migration back.
    fn import_users(&self, users: &[u8]) -> Result<(), TgsError>;

    /// Starts a fresh worker sharing this one's frozen configuration
    /// with a cold solver and empty history — the spawn path of a shard
    /// split. A remote transport spawns the sibling on the same server.
    fn spawn_sibling(&self) -> Result<Arc<dyn ShardTransport>, TgsError>;

    /// Folds an entire (flushed) worker's recorded state — serialized
    /// as a checkpoint section — into this worker: the absorb path of a
    /// shard merge. The section is only read, so a failed absorb leaves
    /// both sides untouched.
    fn absorb_section(&self, section: &[u8]) -> Result<(), TgsError>;

    /// Advances the transport's generation floor (monotone: older
    /// values are ignored). The router calls this on every worker after
    /// a rebalance commits, and with `u64::MAX` on a retired worker, so
    /// any other client still routing with the old map gets
    /// [`TgsError::StaleTopology`] instead of double-counting.
    fn set_generation(&self, generation: u64) -> Result<(), TgsError>;

    /// Does nothing: no worker is pinned to a core. The method stays
    /// only because implementations outside this workspace still define
    /// it; it goes when the trait collapses to one call (ROADMAP item 6).
    fn request_core_set(&self, _set_index: usize, _n_sets: usize) {}

    /// Drains the worker and releases it (a remote transport drops the
    /// server-side slot). Idempotent best effort during fleet teardown.
    fn shutdown(&self) -> Result<(), TgsError>;

    /// Where this worker lives, for error context and diagnostics —
    /// `"local"` for in-process workers, the peer address for remote
    /// ones.
    fn peer(&self) -> String;
}

/// The in-process [`ShardTransport`]: a [`SentimentEngine`] plus the
/// monotone generation floor. This is the transport every fleet built
/// by [`crate::EngineBuilder::fit_sharded`] runs on; the router cannot
/// tell it apart from a TCP shard.
pub struct LocalShard {
    engine: SentimentEngine,
    generation: AtomicU64,
}

impl LocalShard {
    /// Wraps an engine as a shard transport, starting at generation 0.
    pub fn new(engine: SentimentEngine) -> Self {
        Self {
            engine,
            generation: AtomicU64::new(0),
        }
    }

    /// Adopts `generation` if newer; rejects it if older than the
    /// newest seen (see the module docs for why both halves matter).
    fn check(&self, generation: u64) -> Result<(), TgsError> {
        let newest = self.generation.fetch_max(generation, Ordering::Relaxed);
        if generation < newest {
            return Err(TgsError::StaleTopology {
                have: generation,
                current: newest,
            });
        }
        Ok(())
    }
}

impl ShardTransport for LocalShard {
    fn ingest(&self, generation: u64, snapshot: EngineSnapshot) -> Result<(), TgsError> {
        self.check(generation)?;
        self.engine.ingest(snapshot)
    }

    fn timeline(&self, generation: u64, lo: u64, hi: u64) -> Result<Vec<TimelineEntry>, TgsError> {
        self.check(generation)?;
        Ok(self.engine.query().timeline(lo..=hi))
    }

    fn latest_timestamp(&self, generation: u64) -> Result<Option<u64>, TgsError> {
        self.check(generation)?;
        Ok(self.engine.query().latest().map(|e| e.timestamp))
    }

    fn user_sentiment(
        &self,
        generation: u64,
        user: usize,
        at: u64,
    ) -> Result<UserSentiment, TgsError> {
        self.check(generation)?;
        self.engine.query().user_sentiment(user, at)
    }

    fn user_timeline(
        &self,
        generation: u64,
        user: usize,
    ) -> Result<Vec<(u64, Vec<f64>)>, TgsError> {
        self.check(generation)?;
        self.engine.query().user_timeline(user)
    }

    fn known_users(&self, generation: u64) -> Result<usize, TgsError> {
        self.check(generation)?;
        Ok(self.engine.query().known_users())
    }

    fn cluster_summary(&self, generation: u64, t: u64) -> Result<ClusterSummary, TgsError> {
        self.check(generation)?;
        self.engine.query().cluster_summary(t)
    }

    fn sf_at(&self, generation: u64, t: u64) -> Result<DenseMatrix, TgsError> {
        self.check(generation)?;
        self.engine.query().sf_at(t)
    }

    fn flush(&self) -> Result<u64, TgsError> {
        self.engine.flush()
    }

    fn stats(&self) -> Result<EngineStats, TgsError> {
        Ok(self.engine.stats())
    }

    fn queue_has_room(&self) -> Result<bool, TgsError> {
        Ok(self.engine.has_capacity())
    }

    fn timestamps(&self) -> Result<Vec<u64>, TgsError> {
        Ok(self.engine.query().timestamps())
    }

    fn k(&self) -> Result<usize, TgsError> {
        Ok(self.engine.config().k)
    }

    fn vocab_tokens(&self) -> Result<Vec<String>, TgsError> {
        Ok(self.engine.vocabulary().tokens().to_vec())
    }

    fn user_factor(&self, user: usize) -> Result<Option<Vec<f64>>, TgsError> {
        Ok(self.engine.user_factor(user))
    }

    fn checkpoint_section(&self) -> Result<Vec<u8>, TgsError> {
        Ok(self.engine.checkpoint()?.as_bytes().to_vec())
    }

    fn checkpoint_base(&self) -> Result<(u64, Vec<u8>), TgsError> {
        let (id, ckpt) = self.engine.checkpoint_base()?;
        Ok((id, ckpt.as_bytes().to_vec()))
    }

    fn delta_since(&self, base_id: u64) -> Result<Option<Vec<u8>>, TgsError> {
        Ok(self
            .engine
            .delta_since(base_id)?
            .map(|d| d.as_bytes().to_vec()))
    }

    fn export_users(&self, lo: usize, hi: usize) -> Result<Vec<u8>, TgsError> {
        Ok(self.engine.export_users_bytes(lo, hi))
    }

    fn import_users(&self, users: &[u8]) -> Result<(), TgsError> {
        self.engine.import_users_bytes(users)
    }

    fn spawn_sibling(&self) -> Result<Arc<dyn ShardTransport>, TgsError> {
        let sibling = self.engine.spawn_sibling()?;
        let transport = LocalShard::new(sibling);
        // The sibling joins mid-rebalance: start it at this worker's
        // floor so the post-rebalance generation bump lands uniformly.
        transport
            .generation
            .store(self.generation.load(Ordering::Relaxed), Ordering::Relaxed);
        Ok(Arc::new(transport))
    }

    fn absorb_section(&self, section: &[u8]) -> Result<(), TgsError> {
        let donor = SentimentEngine::restore(&crate::checkpoint::EngineCheckpoint::from_bytes(
            section.to_vec(),
        ))?;
        self.engine.absorb(&donor)?;
        donor.shutdown()
    }

    fn set_generation(&self, generation: u64) -> Result<(), TgsError> {
        self.generation.fetch_max(generation, Ordering::Relaxed);
        Ok(())
    }

    fn shutdown(&self) -> Result<(), TgsError> {
        // Drain and surface pending failures; the worker thread itself
        // joins when the last Arc drops (SentimentEngine's Drop).
        self.engine.flush().map(|_| ())
    }

    fn peer(&self) -> String {
        "local".to_string()
    }
}

/// Reads the user count out of an [`ShardTransport::export_users`]
/// payload without decoding the rows — the router skips the import call
/// for empty migrations.
pub(crate) fn exported_users_len(bytes: &[u8]) -> Result<u64, TgsError> {
    let mut r = Reader::new(bytes);
    let track = r.u64("migrated track user count")?;
    let solver = r.u64("migrated solver row count")?;
    Ok(track.max(solver))
}

/// One user's `(timestamp key, distribution)` observations — the shared
/// row shape of the queryable track and the solver's aged history.
pub(crate) type UserRow = (usize, Vec<(u64, Vec<f64>)>);

fn write_user_rows(w: &mut Writer, rows: &[UserRow]) {
    for (user, observations) in rows {
        w.usize(*user);
        w.usize(observations.len());
        for (key, dist) in observations {
            w.u64(*key);
            w.f64s(dist);
        }
    }
}

fn read_user_rows(r: &mut Reader<'_>, n: usize, what: &str) -> Result<Vec<UserRow>, CodecError> {
    (0..n)
        .map(|_| {
            let user = r.usize(what)?;
            let observations = (0..r.count(16, what)?)
                .map(|_| Ok((r.u64(what)?, r.f64s(what)?)))
                .collect::<Result<_, CodecError>>()?;
            Ok((user, observations))
        })
        .collect()
}

/// Byte-level migration seam used by [`SentimentEngine`]'s
/// `export_users_bytes` / `import_users_bytes` pair. Layout (all LE):
/// `u64 track_users | u64 solver_rows | track rows | solver rows`,
/// where each row is `u64 user | u64 n | n × (u64 key, u64 k, k × f64)`.
/// `f64`s round-trip by bit pattern, so a local rebalance through bytes
/// stays byte-identical to the former in-memory path.
pub fn encode_user_range(track: &[UserRow], solver_rows: &[UserRow]) -> Vec<u8> {
    let mut w = Writer::with_capacity(64);
    w.usize(track.len());
    w.usize(solver_rows.len());
    write_user_rows(&mut w, track);
    write_user_rows(&mut w, solver_rows);
    w.finish()
}

/// Inverse of [`encode_user_range`].
pub fn decode_user_range(bytes: &[u8]) -> Result<(Vec<UserRow>, Vec<UserRow>), TgsError> {
    let mut r = Reader::new(bytes);
    let track_n = r.count(8, "migrated track user count")?;
    let solver_n = r.count(8, "migrated solver row count")?;
    let track = read_user_rows(&mut r, track_n, "migrated track rows")?;
    let solver = read_user_rows(&mut r, solver_n, "migrated solver rows")?;
    r.done()?;
    Ok((track, solver))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_range_codec_roundtrips() {
        let track = vec![
            (
                3usize,
                vec![(10u64, vec![0.25, 0.75]), (11, vec![0.5, 0.5])],
            ),
            (9, vec![]),
        ];
        let solver = vec![(3usize, vec![(0u64, vec![1.0, 0.0])])];
        let bytes = encode_user_range(&track, &solver);
        assert_eq!(exported_users_len(&bytes).unwrap(), 2);
        let (t2, s2) = decode_user_range(&bytes).unwrap();
        assert_eq!(t2, track);
        assert_eq!(s2, solver);
        // Empty payloads are legal and read as zero users.
        let empty = encode_user_range(&[], &[]);
        assert_eq!(exported_users_len(&empty).unwrap(), 0);
        assert!(decode_user_range(&empty).unwrap().0.is_empty());
    }

    #[test]
    fn user_range_codec_rejects_corruption() {
        assert!(exported_users_len(&[0u8; 15]).is_err());
        let bytes = encode_user_range(&[(1, vec![(5, vec![0.5])])], &[]);
        assert!(decode_user_range(&bytes[..bytes.len() - 1]).is_err());
        let mut huge = bytes.clone();
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_user_range(&huge).is_err(), "bounded row count");
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_user_range(&trailing).is_err());
    }
}
