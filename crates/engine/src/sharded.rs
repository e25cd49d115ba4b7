//! The multi-shard router: `S` [`SentimentEngine`] workers behind one
//! ingest/query seam, over an **elastic** user-range topology.
//!
//! A [`ShardedEngine`] owns one worker per shard of a
//! `tgs_data::PartitionMap` (explicit sorted user-range boundaries).
//! Ingest **fans out**: each document follows its author's shard; every
//! worker keeps its own ingest queue, worker thread and solver, so
//! shard-local solves run concurrently on multi-core hosts. Queries
//! **fan in**: timelines merge per timestamp, `top_words` merges the
//! per-shard word–sentiment factors (weighted by shard tweet counts)
//! before ranking, and per-user queries route transparently to the
//! owning shard.
//!
//! **Cross-shard re-tweets.** In legacy drop mode a re-tweet whose user
//! lives on another shard is counted and dropped. With the ghost-user
//! protocol ([`crate::EngineBuilder::ghost_users`]) the edge is *kept*
//! on its document's shard: the remote user materializes as a ghost row
//! carrying their current sentiment factor (sampled from the owning
//! worker after a fleet quiesce, so the exchange is deterministic),
//! excluded from the receiving shard's history and user aggregates. No
//! edge is dropped — `dropped_cross_shard` stays 0 by construction.
//!
//! **Live rebalance.** [`ShardedEngine::rebalance`] applies a
//! `RepartitionPlan` (split / merge / boundary move) to a running
//! fleet: quiesce, evolve the worker set op by op in lockstep with the
//! map (a split spawns a cold sibling for the right half, a merge
//! absorbs the retired worker's recorded state into its neighbour, a
//! boundary move keeps both workers), migrate every re-owned user's
//! history through the per-user export/import seam (age-relative
//! solver rows — placement-independent), swap the map, resume.
//! [`ShardedEngine::maybe_rebalance`] automates this from per-shard
//! tweet-count skew (`tgs stream --max-skew`). A rebalance holds the
//! fleet's lock for writing; ingests and queries hold it for reading
//! across their shard calls, so they see the topology from before or
//! after a rebalance, never a half-migrated one. Workers still reject
//! stale topology generations from any other client.
//!
//! With `shards = 1` the router is the identity: the single worker
//! receives byte-identical snapshots, records a byte-identical timeline,
//! and its checkpoint section equals a plain [`SentimentEngine`]
//! checkpoint byte for byte (tested in `tests/sharded_engine.rs`). With
//! more shards, shard solves are independent per snapshot, and the
//! router merges their timeline counts and `Sf` factors column by column
//! (`tgs_core::sharded::merge_sf`). That is meaningful only while every
//! shard keeps one column order, and the shared lexicon prior does not
//! keep it: at 4 shards on Prop 30 (full scale) the shards broke the
//! lexicon's column order in 63, 55, 16 and 47 of 130 daily windows.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use bytes::Bytes;
use parking_lot::Mutex;
use tgs_core::codec::{Reader, Writer};
use tgs_core::sharded::merge_sf;
use tgs_core::{TgsError, TgsErrorKind};
use tgs_data::{route_docs, route_docs_ghost, PartitionMap, RepartitionOp, RepartitionPlan};
use tgs_linalg::DenseMatrix;
use tgs_text::Vocabulary;

use crate::batch::{BatchPolicy, BatchingIngest};
use crate::checkpoint::EngineCheckpoint;
use crate::engine::{EngineStats, SentimentEngine};
use crate::query::{rank_top_words, ClusterSummary, TimelineEntry, UserSentiment};
use crate::snapshot::{EngineRetweet, EngineSnapshot};
use crate::transport::{exported_users_len, LocalShard, ShardTransport};

/// Magic + format version prefix of the multi-shard checkpoint (format
/// version 2: explicit partition map + ghost flag).
const SHARD_MAGIC: &[u8; 8] = b"TGSSHR\x00\x02";

/// A serialized multi-shard session: a validated header (partition map +
/// ghost flag + fingerprint) followed by one length-prefixed
/// [`EngineCheckpoint`] section per shard.
#[derive(Debug, Clone)]
pub struct ShardedCheckpoint {
    bytes: Bytes,
}

impl ShardedCheckpoint {
    /// Wraps previously serialized bytes (validation happens at
    /// [`ShardedEngine::restore`]).
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

    /// True when the checkpoint holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// True when `data` carries the multi-shard magic, as opposed to a
    /// single-engine [`EngineCheckpoint`] stream.
    pub(crate) fn sniff(data: &[u8]) -> bool {
        data.starts_with(SHARD_MAGIC)
    }

    /// The per-shard checkpoint sections, in shard order. Each section is
    /// a complete single-engine checkpoint byte stream.
    pub fn sections(&self) -> Result<Vec<Vec<u8>>, TgsError> {
        let header = decode_header(self.as_bytes())?;
        Ok(header.sections.into_iter().map(<[u8]>::to_vec).collect())
    }
}

/// Magic + format version prefix of a serialized multi-shard delta.
const SHARD_DELTA_MAGIC: &[u8; 8] = b"TGSSDL\x00\x01";

/// The delta-checkpoint tips of a whole fleet: the partition-map
/// fingerprint the tips were taken under plus one worker-local mark id
/// per slot. Feed the tips back to [`ShardedEngine::delta_since`] to
/// get everything that changed since; a rebalance in between changes
/// the fingerprint and the call reports the tips unavailable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTips {
    /// Fingerprint of the partition map the tips were taken under.
    pub(crate) fingerprint: u64,
    /// One worker-local mark id per shard slot, in shard order.
    pub(crate) slots: Vec<u64>,
}

impl FleetTips {
    /// A content-derived 64-bit key for these tips (splitmix-style
    /// mixing over the fingerprint and slot ids). Both ends of a wire
    /// protocol can derive the same key from the same tips, so a router
    /// can hand it out as a fleet base id and a client holding a
    /// [`ShardedDelta`] can recompute its next anchor from
    /// [`ShardedDelta::tips`] without a second round trip.
    pub fn key(&self) -> u64 {
        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut acc = mix(self.fingerprint ^ (self.slots.len() as u64).rotate_left(17));
        for (i, &slot) in self.slots.iter().enumerate() {
            acc = mix(acc ^ slot.wrapping_add(i as u64).rotate_left(23));
        }
        acc
    }
}

/// A serialized multi-shard incremental checkpoint: the same validated
/// topology header as [`ShardedCheckpoint`], followed by one section
/// per slot — a single-engine [`crate::CheckpointDelta`] where the
/// worker could serve one, or a full checkpoint-base fallback where it
/// could not (e.g. a freshly respawned slot). Coverage semantics match
/// full fleet checkpoints: every slot is present or the encode fails.
#[derive(Debug, Clone)]
pub struct ShardedDelta {
    bytes: Bytes,
}

impl ShardedDelta {
    /// Wraps previously serialized bytes (validation happens at
    /// [`ShardedEngine::apply_delta`]).
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

    /// True when the delta holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The tips this delta advances the fleet to — the next
    /// [`ShardedEngine::delta_since`] call takes these.
    pub fn tips(&self) -> Result<FleetTips, TgsError> {
        let (fingerprint, slots) = decode_delta_sections(self.as_bytes())?;
        Ok(FleetTips {
            fingerprint,
            slots: slots
                .iter()
                .map(|s| match s {
                    DeltaSection::Delta(bytes) => Ok(crate::delta::delta_ids(bytes)?.1),
                    DeltaSection::Base(id, _) => Ok(*id),
                })
                .collect::<Result<Vec<u64>, TgsError>>()?,
        })
    }
}

/// One slot's payload inside a [`ShardedDelta`], borrowed from it.
enum DeltaSection<'a> {
    /// An incremental [`crate::CheckpointDelta`] byte stream.
    Delta(&'a [u8]),
    /// A full checkpoint-base fallback: the new mark id plus the whole
    /// single-engine checkpoint section.
    Base(u64, &'a [u8]),
}

/// Parses a multi-shard delta into its declared fingerprint and
/// per-slot sections. The topology fields beyond the fingerprint are
/// validated at apply time against the base checkpoint's header.
fn decode_delta_sections(bytes: &[u8]) -> Result<(u64, Vec<DeltaSection<'_>>), TgsError> {
    let mut r = Reader::new(bytes);
    r.magic(SHARD_DELTA_MAGIC)?;
    // Each slot needs at least a tag byte and a section length prefix.
    let shards = r.count(9, "shard count")?;
    if shards == 0 {
        return Err(TgsError::corrupt("a fleet delta needs at least one slot"));
    }
    let fingerprint = r.u64("partition fingerprint")?;
    let sections = (0..shards)
        .map(|_| match r.u8("slot section tag")? {
            1 => Ok(DeltaSection::Delta(r.bytes("slot delta section")?)),
            0 => {
                let id = r.u64("slot base mark id")?;
                Ok(DeltaSection::Base(id, r.bytes("slot base section")?))
            }
            t => Err(TgsError::corrupt(format!("unknown slot section tag {t}"))),
        })
        .collect::<Result<Vec<_>, TgsError>>()?;
    r.done()?;
    Ok((fingerprint, sections))
}

/// A decoded multi-shard checkpoint header; the sections borrow the
/// checkpoint bytes.
struct ShardedHeader<'a> {
    map: PartitionMap,
    ghost_mode: bool,
    sections: Vec<&'a [u8]>,
}

/// Parses the header and splits off the per-shard sections. The shard
/// count, boundaries and fingerprint are checked against each other, so
/// a restore can never silently re-route users.
fn decode_header(bytes: &[u8]) -> Result<ShardedHeader<'_>, TgsError> {
    let mut r = Reader::new(bytes);
    r.magic(SHARD_MAGIC)?;
    // Each shard needs at least an 8-byte start and an 8-byte section
    // length prefix.
    let shards = r.count(16, "shard count")?;
    let universe = r.usize("partition universe")?;
    let ghost_mode = r.bool("ghost mode flag")?;
    let starts = (0..shards)
        .map(|_| r.usize("partition start"))
        .collect::<Result<Vec<_>, _>>()?;
    let map = PartitionMap::new(universe, starts)
        .map_err(|e| TgsError::corrupt(format!("malformed partition map: {e}")))?;
    let fingerprint = r.u64("partition fingerprint")?;
    if map.fingerprint() != fingerprint {
        return Err(TgsError::corrupt(format!(
            "partition map fingerprint mismatch: checkpoint declares {fingerprint:#x}, \
             the serialized boundaries derive {:#x}",
            map.fingerprint()
        )));
    }
    let sections = (0..shards)
        .map(|_| r.bytes("shard section"))
        .collect::<Result<Vec<_>, _>>()?;
    r.done()?;
    Ok(ShardedHeader {
        map,
        ghost_mode,
        sections,
    })
}

/// Assembles per-shard sections under the deterministic header — shared
/// by full checkpoints, base checkpoints, and delta application, so a
/// reassembled checkpoint is byte-identical to a directly taken one given
/// equal sections and topology.
fn assemble_sharded(
    map: &PartitionMap,
    ghost_mode: bool,
    sections: &[Vec<u8>],
) -> ShardedCheckpoint {
    let mut w = Writer::with_capacity(
        64 + 8 * map.shards() + sections.iter().map(|s| s.len() + 8).sum::<usize>(),
    );
    w.magic(SHARD_MAGIC);
    w.usize(map.shards());
    w.usize(map.universe());
    w.bool(ghost_mode);
    for &start in map.starts() {
        w.usize(start);
    }
    w.u64(map.fingerprint());
    for section in sections {
        w.bytes(section);
    }
    ShardedCheckpoint::from_bytes(w.finish())
}

/// The mutable topology of the fleet: the partition map and one worker
/// transport per shard, swapped atomically by a rebalance. Workers are
/// location-agnostic [`ShardTransport`]s — in-process engines behind
/// [`LocalShard`], or TCP clients to `tgs shard` servers (`tgs-net`).
struct Fleet {
    map: PartitionMap,
    workers: Vec<Arc<dyn ShardTransport>>,
}

/// Cumulative fleet-recovery telemetry, shared between a supervisor
/// (which rebuilds failed shards) and the router (which tags degraded
/// queries). The router allocates a private set by default;
/// [`ShardedEngine::set_recovery_counters`] swaps in a shared one so
/// supervisor-side respawns surface in the merged [`EngineStats`].
#[derive(Debug, Default)]
pub struct RecoveryCounters {
    /// Shard slots rebuilt from their last good checkpoint section.
    pub respawns: AtomicU64,
    /// Documents re-ingested from replay journals during rebuilds.
    pub replayed_docs: AtomicU64,
    /// Fan-out queries answered with partial coverage.
    pub(crate) degraded_queries: AtomicU64,
    /// Slot baselines refreshed incrementally (base + delta chain)
    /// instead of through a full checkpoint section — the supervisor's
    /// O(changes) refresh path.
    pub delta_refreshes: AtomicU64,
    /// Last successfully committed ingest timestamp per worker, keyed
    /// by the transport's `Arc` data pointer (stable for a surviving
    /// worker across rebalances) — the source of
    /// [`Coverage::stale_since`] when that worker later goes down.
    committed: Mutex<BTreeMap<usize, u64>>,
}

/// A transport's identity key in the per-worker commit registry.
fn worker_key(worker: &Arc<dyn ShardTransport>) -> usize {
    Arc::as_ptr(worker) as *const u8 as usize
}

impl RecoveryCounters {
    /// Records that `worker` committed the snapshot stamped `t`.
    pub(crate) fn note_commit(&self, worker: &Arc<dyn ShardTransport>, t: u64) {
        self.committed.lock().insert(worker_key(worker), t);
    }

    /// The last timestamp `worker` is known to have committed, if any.
    pub(crate) fn last_commit(&self, worker: &Arc<dyn ShardTransport>) -> Option<u64> {
        self.committed.lock().get(&worker_key(worker)).copied()
    }
}

/// How much of the fleet answered a degraded-capable fan-out query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Shards that answered.
    pub healthy: usize,
    /// Shards the query fanned out to.
    pub total: usize,
    /// The oldest last-committed timestamp among the shards that did
    /// *not* answer — results may miss anything those shards ingested
    /// after it. `None` when every shard answered or when no commit is
    /// on record for a missing shard.
    pub stale_since: Option<u64>,
}

impl Coverage {
    /// Whether every shard answered (the result is not degraded).
    pub fn is_full(&self) -> bool {
        self.healthy == self.total
    }
}

/// A fan-out result tagged with the [`Coverage`] that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial<T> {
    /// The merged result over the shards that answered.
    pub value: T,
    /// How many shards that was.
    pub coverage: Coverage,
}

/// One shard's load summary (see [`ShardedEngine::shard_loads`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard index.
    pub shard: usize,
    /// The shard's `[lo, hi)` user-id range (the last shard additionally
    /// owns every id `>= hi`).
    pub range: (usize, usize),
    /// Documents routed to the shard by this router (process-local, like
    /// [`EngineStats`]).
    pub tweets: u64,
    /// Users with recorded history on the shard's worker.
    pub users: usize,
}

/// A fleet of per-shard [`SentimentEngine`] workers behind one elastic
/// router.
///
/// Built via [`crate::EngineBuilder::fit_sharded`]; see the module docs
/// for the fan-out/fan-in semantics, the ghost-user protocol, live
/// rebalancing, and the single-shard identity guarantee.
pub struct ShardedEngine {
    inner: Arc<RwLock<Fleet>>,
    /// Ghost-user protocol switch (frozen at construction; serialized in
    /// the v2 checkpoint header).
    ghost_mode: bool,
    dropped_cross_shard: AtomicU64,
    ghost_edges: AtomicU64,
    /// Shard calls that failed with a network error (cumulative; see
    /// [`EngineStats::shard_unavailable`]). Always 0 on all-local fleets.
    shard_unavailable: AtomicU64,
    /// Whole batches shed by [`ShardedEngine::try_ingest`]'s pre-split
    /// capacity probe (some worker's queue was full). Overlaid onto the
    /// merged stats' `dropped_capacity` and histogram shed count.
    router_shed: AtomicU64,
    /// Process-local micro-batching knobs for
    /// [`ShardedEngine::batching`]; set by the builder, defaulted on
    /// restore/`from_transports` (like the single engine's policy, this
    /// is a tuning knob of the process, not checkpointed state).
    batch_policy: BatchPolicy,
    /// Documents routed per author id — the load statistic behind
    /// [`ShardedEngine::shard_loads`] and the `--max-skew` auto-trigger.
    /// Process-local (reset on restore), like [`EngineStats`].
    doc_counts: Mutex<BTreeMap<usize, u64>>,
    /// Every timestamp ever fanned out (or restored). Workers enforce
    /// append-only per shard, but a re-ingested timestamp whose documents
    /// route to *different* shards than the original would slip past the
    /// per-worker check and silently mix two snapshots in the merged
    /// timeline — so the router enforces the invariant fleet-wide. Its
    /// size is the fleet's step count ([`ShardedEngine::steps`]).
    ingested: Mutex<BTreeSet<u64>>,
    /// The fleet's frozen vocabulary (identical on every worker), cached
    /// at construction so `top_words` never re-fetches token lists, and
    /// shared with every query handle.
    vocab: Arc<Vocabulary>,
    /// Number of sentiment clusters (identical on every worker).
    k: usize,
    /// Recovery telemetry + per-worker commit registry; private by
    /// default, swapped for a supervisor-shared set by
    /// [`ShardedEngine::set_recovery_counters`].
    recovery: Arc<RecoveryCounters>,
}

impl ShardedEngine {
    /// Read access to the fleet. The lock is poisoned only if a panic
    /// escaped a rebalance, which leaves no coherent topology to serve.
    fn fleet(&self) -> std::sync::RwLockReadGuard<'_, Fleet> {
        self.inner.read().expect("fleet lock poisoned")
    }

    fn fleet_mut(&self) -> std::sync::RwLockWriteGuard<'_, Fleet> {
        self.inner.write().expect("fleet lock poisoned")
    }

    /// Counts a worker-call failure when it was a network error — the
    /// `shard_unavailable` monitoring surface. Other error kinds are the
    /// caller's to surface, not a fleet-health signal.
    fn note(&self, e: &TgsError) {
        if e.kind() == TgsErrorKind::Net {
            self.shard_unavailable.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn start(
        map: PartitionMap,
        workers: Vec<SentimentEngine>,
        ghost_mode: bool,
    ) -> Self {
        assert_eq!(workers.len(), map.shards(), "one worker per shard required");
        let vocab = workers[0].vocabulary().clone();
        let k = workers[0].config().k;
        let transports: Vec<Arc<dyn ShardTransport>> = workers
            .into_iter()
            .map(|w| Arc::new(LocalShard::new(w)) as Arc<dyn ShardTransport>)
            .collect();
        Self::assemble(map, transports, ghost_mode, vocab, k).expect("local transports cannot fail")
    }

    /// Builds a router over caller-supplied transports — the entry point
    /// for distributed fleets (`tgs-net` hands in TCP shard clients).
    /// Each worker must already hold the state for its shard's user
    /// range; the fleet's vocabulary and cluster count are fetched from
    /// the first worker, every worker's generation floor is advanced to
    /// the map's, and previously committed timestamps are re-claimed so
    /// the fleet-wide append-only check survives reconnects.
    pub fn from_transports(
        map: PartitionMap,
        transports: Vec<Arc<dyn ShardTransport>>,
        ghost_mode: bool,
    ) -> Result<Self, TgsError> {
        if transports.len() != map.shards() {
            return Err(TgsError::invalid_argument(format!(
                "{} transports for a {}-shard partition map",
                transports.len(),
                map.shards()
            )));
        }
        let k = transports[0].k()?;
        let vocab = Vocabulary::from_tokens(transports[0].vocab_tokens()?);
        Self::assemble(map, transports, ghost_mode, vocab, k)
    }

    fn assemble(
        map: PartitionMap,
        transports: Vec<Arc<dyn ShardTransport>>,
        ghost_mode: bool,
        vocab: Vocabulary,
        k: usize,
    ) -> Result<Self, TgsError> {
        for t in &transports {
            t.set_generation(map.generation())?;
        }
        let mut ingested = BTreeSet::new();
        for t in &transports {
            ingested.extend(t.timestamps()?);
        }
        Ok(Self {
            inner: Arc::new(RwLock::new(Fleet {
                map,
                workers: transports,
            })),
            ghost_mode,
            dropped_cross_shard: AtomicU64::new(0),
            ghost_edges: AtomicU64::new(0),
            shard_unavailable: AtomicU64::new(0),
            router_shed: AtomicU64::new(0),
            batch_policy: BatchPolicy::default(),
            doc_counts: Mutex::new(BTreeMap::new()),
            ingested: Mutex::new(ingested),
            vocab: Arc::new(vocab),
            k,
            recovery: Arc::new(RecoveryCounters::default()),
        })
    }

    /// Shares recovery telemetry with a supervisor: the supervisor bumps
    /// `respawns`/`replayed_docs` as it rebuilds shards, the router bumps
    /// `degraded_queries` and feeds the commit registry, and the merged
    /// [`ShardedEngine::stats`] report all three. Call before the first
    /// ingest (the registry starts empty).
    pub fn set_recovery_counters(&mut self, counters: Arc<RecoveryCounters>) {
        self.recovery = counters;
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.fleet().workers.len()
    }

    /// The current partition map (a snapshot — a concurrent rebalance
    /// may swap the fleet's map afterwards).
    pub fn map(&self) -> PartitionMap {
        self.fleet().map.clone()
    }

    /// Whether the ghost-user protocol is on (cross-shard re-tweet edges
    /// kept via ghost rows instead of dropped).
    pub fn ghost_mode(&self) -> bool {
        self.ghost_mode
    }

    /// The fleet's frozen vocabulary (identical on every worker).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Cross-shard re-tweets dropped at ingest so far (always 0 in ghost
    /// mode).
    pub fn dropped_cross_shard(&self) -> u64 {
        self.dropped_cross_shard.load(Ordering::Relaxed)
    }

    /// Cross-shard re-tweets kept as ghost edges so far (always 0 in
    /// drop mode).
    pub fn ghost_edges(&self) -> u64 {
        self.ghost_edges.load(Ordering::Relaxed)
    }

    /// Fans one snapshot out to the owning shards. Returns as soon as
    /// every sub-snapshot is queued; shards whose slice is empty are
    /// skipped entirely (their workers do not step). The stream is
    /// append-only *fleet-wide*: re-ingesting an already-seen timestamp
    /// is rejected here (synchronously), not per worker, so a duplicate
    /// whose documents route to different shards than the original can
    /// never partially commit.
    ///
    /// In ghost mode, a snapshot carrying cross-shard re-tweets quiesces
    /// the fleet first: ghost factors are sampled from the owning
    /// workers' *committed* state, so the exchange is deterministic
    /// (snapshots without cross-shard edges keep the fully pipelined
    /// path).
    pub fn ingest(&self, snapshot: EngineSnapshot) -> Result<(), TgsError> {
        if snapshot.is_empty() {
            // Workers skip empty snapshots without advancing the stream;
            // the router mirrors that (the timestamp stays claimable).
            return Ok(());
        }
        let fleet = self.fleet();
        let timestamp = snapshot.timestamp;
        // Validate + route before claiming the timestamp, so a malformed
        // snapshot (dangling re-tweet reference) does not burn it.
        let (subs, dropped, ghost_edges, authors) =
            match split(&fleet, self.ghost_mode, self.k, snapshot) {
                Ok(routed) => routed,
                Err(e) => {
                    self.note(&e);
                    return Err(e);
                }
            };
        if !self.ingested.lock().insert(timestamp) {
            return Err(TgsError::invalid_argument(format!(
                "timestamp {timestamp} already ingested; the stream is append-only"
            )));
        }
        self.dropped_cross_shard
            .fetch_add(dropped as u64, Ordering::Relaxed);
        self.ghost_edges
            .fetch_add(ghost_edges as u64, Ordering::Relaxed);
        {
            let mut counts = self.doc_counts.lock();
            for author in authors {
                *counts.entry(author).or_insert(0) += 1;
            }
        }
        let generation = fleet.map.generation();
        for (shard, sub) in subs.into_iter().enumerate() {
            if !sub.is_empty() {
                if let Err(e) = fleet.workers[shard].ingest(generation, sub) {
                    self.note(&e);
                    return Err(e);
                }
                // Feed the commit registry so a later outage of this
                // worker can report how stale partial results may be.
                self.recovery.note_commit(&fleet.workers[shard], timestamp);
            }
        }
        Ok(())
    }

    /// Non-blocking variant of [`ShardedEngine::ingest`]: probes every
    /// worker's queue *before* splitting and hands the snapshot back
    /// (`Ok(Some(snapshot))`) when any queue is full — the batch is shed
    /// whole, allocation-free, before the timestamp is claimed, so the
    /// caller can retry it later. Sheds count into the merged stats'
    /// `dropped_capacity` and the histogram's shed bucket. The probe is
    /// advisory under concurrent producers (a slot can be taken between
    /// probe and send, in which case the ingest briefly blocks); with
    /// one producer per router the shed decision is exact.
    pub fn try_ingest(&self, snapshot: EngineSnapshot) -> Result<Option<EngineSnapshot>, TgsError> {
        if snapshot.is_empty() {
            return Ok(None);
        }
        {
            let fleet = self.fleet();
            for worker in &fleet.workers {
                let room = match worker.queue_has_room() {
                    Ok(room) => room,
                    Err(e) => {
                        self.note(&e);
                        return Err(e);
                    }
                };
                if !room {
                    self.router_shed.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(snapshot));
                }
            }
        }
        self.ingest(snapshot).map(|()| None)
    }

    /// Installs the micro-batching policy (builder-time only; validated
    /// by the builder).
    pub(crate) fn set_batch_policy(&mut self, policy: BatchPolicy) {
        self.batch_policy = policy;
    }

    /// A micro-batching front end over this router using the builder's
    /// [`BatchPolicy`]: each flushed batch splits per-shard once, so the
    /// whole fleet amortizes tokenize/assembly/bind costs per bucket
    /// instead of per micro-snapshot. See [`BatchingIngest`].
    pub fn batching(&self) -> BatchingIngest<&ShardedEngine> {
        BatchingIngest::with_policy_unchecked(self, self.batch_policy)
    }

    /// Blocks until every worker drained its queue, then reports the
    /// first pending ingest failure (if any) or
    /// [`ShardedEngine::steps`].
    pub fn flush(&self) -> Result<u64, TgsError> {
        if let Err(e) = flush_fleet(&self.fleet()) {
            self.note(&e);
            return Err(e);
        }
        Ok(self.steps())
    }

    /// Distinct timestamps the router has accepted: the length of
    /// [`ShardedEngine::timestamps`], counted without a call to any
    /// worker. A timestamp counts once the router accepts it, even if
    /// its step later fails on a worker — that failure surfaces as a
    /// [`ShardedEngine::flush`] error, and the timestamp can never be
    /// ingested again. So an unreachable shard neither lowers the count
    /// nor adds to `shard_unavailable`.
    pub fn steps(&self) -> u64 {
        self.ingested.lock().len() as u64
    }

    /// A read handle that fans queries across all shards. The handle
    /// shares the live fleet: each call reads it under the fleet's read
    /// lock for its whole fan-out, so it routes with the current map and
    /// sees the topology from before or after a concurrent rebalance,
    /// never a half-migrated one.
    pub fn query(&self) -> ShardedQuery {
        ShardedQuery {
            fleet: Arc::clone(&self.inner),
            vocab: Arc::clone(&self.vocab),
            k: self.k,
            recovery: Arc::clone(&self.recovery),
        }
    }

    /// Merged ingest metrics: counters sum across shards;
    /// `last_step_ns` is the slowest shard's (it gates the fan-out's
    /// latency); the router's cross-shard edge counters and the
    /// cumulative `shard_unavailable` count ride along. Unreachable
    /// workers are skipped (and counted) rather than failing the merge.
    pub fn stats(&self) -> EngineStats {
        let fleet = self.fleet();
        let mut merged = EngineStats::default();
        for worker in &fleet.workers {
            match worker.stats() {
                Ok(s) => merged = merged.merge(&s),
                Err(e) => self.note(&e),
            }
        }
        // Router-level sheds (whole batches rejected before splitting)
        // overlay the per-worker counts: they never reached a worker, so
        // no worker's stats carry them.
        let shed = self.router_shed.load(Ordering::Relaxed);
        let mut step_hist = merged.step_hist;
        step_hist.add_shed(shed);
        EngineStats {
            dropped_capacity: merged.dropped_capacity + shed,
            step_hist,
            ghost_edges: self.ghost_edges(),
            dropped_cross_shard: self.dropped_cross_shard(),
            shard_unavailable: self.shard_unavailable.load(Ordering::Relaxed),
            respawns: self.recovery.respawns.load(Ordering::Relaxed),
            replayed_docs: self.recovery.replayed_docs.load(Ordering::Relaxed),
            degraded_queries: self.recovery.degraded_queries.load(Ordering::Relaxed),
            ..merged
        }
    }

    /// Every timestamp the router has accepted, sorted: those its
    /// workers held when it was built, then each one
    /// [`ShardedEngine::ingest`] claimed. The fleet-wide analogue of a
    /// worker's [`ShardTransport::timestamps`], kept by the router
    /// itself, so reading it calls no worker.
    pub fn timestamps(&self) -> Vec<u64> {
        self.ingested.lock().iter().copied().collect()
    }

    /// The owning worker's current factor row for `user` (routed by the
    /// current map; `None` for a user with no recorded history).
    pub fn user_factor(&self, user: usize) -> Result<Option<Vec<f64>>, TgsError> {
        let fleet = self.fleet();
        let shard = fleet.map.shard_of(user);
        fleet.workers[shard].user_factor(user).inspect_err(|e| {
            self.note(e);
        })
    }

    /// Per-shard load: the shard's user range, the documents this router
    /// fanned to it (process-local), and its worker's known users.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shard_loads_of(&self.fleet())
    }

    /// [`ShardedEngine::shard_loads`] against an already-held guard, so
    /// the rebalance paths never re-enter the fleet lock (a recursive
    /// `RwLock` read can deadlock behind a queued writer).
    fn shard_loads_of(&self, fleet: &Fleet) -> Vec<ShardLoad> {
        let counts = self.doc_counts.lock();
        let starts = fleet.map.starts();
        let generation = fleet.map.generation();
        (0..fleet.map.shards())
            .map(|shard| {
                let lo = starts[shard];
                let hi = starts.get(shard + 1).copied().unwrap_or(usize::MAX);
                let tweets = counts.range(lo..hi).map(|(_, &c)| c).sum();
                // Best-effort monitoring: an unreachable worker reports 0
                // users (and counts into `shard_unavailable`) rather than
                // failing the whole load report.
                let users = match fleet.workers[shard].known_users(generation) {
                    Ok(n) => n,
                    Err(e) => {
                        self.note(&e);
                        0
                    }
                };
                ShardLoad {
                    shard,
                    range: fleet.map.range(shard),
                    tweets,
                    users,
                }
            })
            .collect()
    }

    /// The fleet's tweet-count skew: the hottest shard's routed document
    /// count over the per-shard mean (1.0 = perfectly even; 0.0 before
    /// any document routed).
    pub fn load_skew(&self) -> f64 {
        Self::skew_of(&self.shard_loads())
    }

    fn skew_of(loads: &[ShardLoad]) -> f64 {
        let total: u64 = loads.iter().map(|l| l.tweets).sum();
        if total == 0 {
            return 0.0;
        }
        let max = loads.iter().map(|l| l.tweets).max().unwrap_or(0);
        max as f64 * loads.len() as f64 / total as f64
    }

    /// Applies a repartition plan to the running fleet: quiesce, evolve
    /// the worker set op by op (a split spawns a cold sibling for the
    /// right half; a merge absorbs the retired worker's recorded state
    /// into its left neighbour; a boundary move keeps both workers),
    /// migrate every re-owned user's history (solver temporal rows
    /// age-relative + queryable per-user observations), swap the map,
    /// resume. Returns the new map.
    ///
    /// Migration is lossless: applying a plan and its inverse with no
    /// ingest in between restores byte-identical behaviour (tested in
    /// `tests/rebalance.rs`).
    ///
    /// The rebalance takes the fleet's lock for writing, so it waits
    /// for in-flight ingests and queries: both hold the read lock
    /// across their shard calls, an ingest's supervised recovery
    /// included.
    pub fn rebalance(&self, plan: &RepartitionPlan) -> Result<PartitionMap, TgsError> {
        let mut fleet = self.fleet_mut();
        self.rebalance_locked(&mut fleet, plan)
    }

    /// The rebalance body, against an already-held write guard (shared
    /// with [`ShardedEngine::maybe_rebalance`], whose skew inspection
    /// and plan application must be one atomic step).
    fn rebalance_locked(
        &self,
        fleet: &mut Fleet,
        plan: &RepartitionPlan,
    ) -> Result<PartitionMap, TgsError> {
        // Validate the whole plan against the current map before
        // quiescing or touching any worker.
        let new_map = plan
            .apply(&fleet.map)
            .map_err(|e| TgsError::invalid_argument(format!("inapplicable plan: {e}")))?;
        if new_map == fleet.map {
            // Topology-identical plan (equality ignores the generation):
            // return the *current* map so a no-op never bumps the epoch.
            return Ok(fleet.map.clone());
        }
        // Quiesce: every worker drains (and surfaces pending failures)
        // before any state moves.
        flush_fleet(fleet)?;

        // The phases below keep `cur_map` and the worker vec in lockstep
        // after every delta, and the fleet is restored from them on ANY
        // outcome — an error mid-plan leaves a consistent, servable
        // topology (partially applied, never zero workers).
        let mut cur_map = fleet.map.clone();
        let mut workers = std::mem::take(&mut fleet.workers);
        let outcome = apply_plan(plan, &new_map, &mut cur_map, &mut workers);
        fleet.workers = workers;
        fleet.map = cur_map;
        // Stamp the surviving workers with the new topology generation.
        // This router's own calls wait on the lock and route with the
        // new map; any other client still keyed to the old topology now
        // gets `StaleTopology` from every worker. A worker unreachable
        // here learns the generation from the next stamped call it
        // serves (the floor is monotone), so this is best effort.
        for worker in &fleet.workers {
            if let Err(e) = worker.set_generation(fleet.map.generation()) {
                self.note(&e);
            }
        }
        outcome.map(|()| fleet.map.clone())
    }

    /// The `--max-skew` auto-trigger: when the fleet's tweet-count skew
    /// exceeds `max_skew`, split the hottest shard at its load midpoint
    /// (the user id halving its routed document count) and rebalance.
    /// Returns the new map when a rebalance ran, `None` when the fleet
    /// is within budget or no useful split exists (e.g. the whole load
    /// sits on ids past the universe). Inspection and rebalance happen
    /// under one lock acquisition, so a concurrent caller can neither
    /// deadlock a recursive read nor apply the plan to a swapped map.
    pub fn maybe_rebalance(&self, max_skew: f64) -> Result<Option<PartitionMap>, TgsError> {
        let mut fleet = self.fleet_mut();
        if fleet.map.shards() < 2 {
            // With one shard the skew statistic is identically 1;
            // there is no imbalance to detect yet.
            return Ok(None);
        }
        if Self::skew_of(&self.shard_loads_of(&fleet)) <= max_skew {
            return Ok(None);
        }
        let Some(plan) = self.split_plan(&fleet.map) else {
            return Ok(None);
        };
        self.rebalance_locked(&mut fleet, &plan).map(Some)
    }

    /// The merge counterpart of [`ShardedEngine::maybe_rebalance`]: when
    /// the *coldest* shard's routed tweet share falls below `min_share`
    /// of the per-shard mean, drain it into its left neighbour (the
    /// first shard merges rightward) via `RepartitionPlan::merge` and
    /// the per-user migration seam. Returns the new map when a merge
    /// ran, `None` when every shard carries enough load or only one
    /// shard remains. Inspection and rebalance happen under one lock
    /// acquisition, exactly like the split trigger.
    pub fn maybe_merge(&self, min_share: f64) -> Result<Option<PartitionMap>, TgsError> {
        let mut fleet = self.fleet_mut();
        if fleet.map.shards() < 2 {
            return Ok(None);
        }
        let loads = self.shard_loads_of(&fleet);
        let total: u64 = loads.iter().map(|l| l.tweets).sum();
        if total == 0 {
            // No routed documents yet: every shard is equally "cold" and
            // collapsing the topology would be pure noise.
            return Ok(None);
        }
        let mean = total as f64 / loads.len() as f64;
        let cold = loads
            .iter()
            .min_by_key(|l| (l.tweets, l.shard))
            .expect("at least two shards");
        if cold.tweets as f64 >= mean * min_share {
            return Ok(None);
        }
        let left = cold.shard.saturating_sub(1);
        let plan = RepartitionPlan::single(RepartitionOp::Merge { left });
        self.rebalance_locked(&mut fleet, &plan).map(Some)
    }

    /// Builds the hottest-shard split plan behind
    /// [`ShardedEngine::maybe_rebalance`].
    fn split_plan(&self, map: &PartitionMap) -> Option<RepartitionPlan> {
        let counts = self.doc_counts.lock();
        let starts = map.starts();
        let per_shard: Vec<u64> = (0..map.shards())
            .map(|s| {
                let lo = starts[s];
                let hi = starts.get(s + 1).copied().unwrap_or(usize::MAX);
                counts.range(lo..hi).map(|(_, &c)| c).sum()
            })
            .collect();
        let hot = per_shard
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(s, _)| s)?;
        let lo = starts[hot];
        let hi_raw = starts.get(hot + 1).copied().unwrap_or(usize::MAX);
        // The split boundary must be strictly inside (lo, min(hi, universe)).
        let hi_valid = hi_raw.min(map.universe());
        let half = per_shard[hot] / 2;
        let mut acc = 0u64;
        let mut at = None;
        for (&user, &c) in counts.range(lo..hi_raw) {
            acc += c;
            if acc >= half.max(1) {
                // Prefer splitting *after* the crossing user (they stay
                // on the left half); when that boundary is out of range
                // — the hot user is the shard's last in-range id — fall
                // back to splitting *before* them, isolating the hot
                // user on the right half instead of giving up.
                let after = user + 1;
                if after > lo && after < hi_valid {
                    at = Some(after);
                } else if user > lo && user < hi_valid {
                    at = Some(user);
                }
                break;
            }
        }
        at.map(|at| RepartitionPlan::single(RepartitionOp::Split { shard: hot, at }))
    }

    /// Drains every queue and serializes the whole fleet: a validated v2
    /// header (explicit partition map + ghost flag) followed by each
    /// worker's [`EngineCheckpoint`] section.
    pub fn checkpoint(&self) -> Result<ShardedCheckpoint, TgsError> {
        let fleet = self.fleet();
        let mut sections = Vec::with_capacity(fleet.workers.len());
        for worker in &fleet.workers {
            match worker.checkpoint_section() {
                Ok(section) => sections.push(section),
                Err(e) => {
                    // A fleet checkpoint missing a shard's users would
                    // restore into silent data loss — fail it instead.
                    self.note(&e);
                    return Err(e);
                }
            }
        }
        Ok(assemble_sharded(&fleet.map, self.ghost_mode, &sections))
    }

    /// Like [`ShardedEngine::checkpoint`], but also registers every
    /// worker's section as a delta base and returns the fleet's
    /// [`FleetTips`] alongside the full checkpoint. Feed the tips to
    /// [`ShardedEngine::delta_since`] to ship only what changed since.
    pub fn checkpoint_base(&self) -> Result<(FleetTips, ShardedCheckpoint), TgsError> {
        let fleet = self.fleet();
        let mut slots = Vec::with_capacity(fleet.workers.len());
        let mut sections = Vec::with_capacity(fleet.workers.len());
        for worker in &fleet.workers {
            match worker.checkpoint_base() {
                Ok((id, section)) => {
                    slots.push(id);
                    sections.push(section);
                }
                Err(e) => {
                    self.note(&e);
                    return Err(e);
                }
            }
        }
        let tips = FleetTips {
            fingerprint: fleet.map.fingerprint(),
            slots,
        };
        Ok((
            tips,
            assemble_sharded(&fleet.map, self.ghost_mode, &sections),
        ))
    }

    /// Everything that changed on the fleet since `tips`, as one
    /// multi-section [`ShardedDelta`]: slots whose worker can serve an
    /// incremental delta ship one; slots that cannot (respawned worker,
    /// aged-out mark) fall back to a full checkpoint-base section, so
    /// coverage always matches a full fleet checkpoint. `Ok(None)` means
    /// the tips as a whole are unusable — the topology changed under
    /// them (rebalance) — and the caller should take a fresh
    /// [`ShardedEngine::checkpoint_base`].
    pub fn delta_since(&self, tips: &FleetTips) -> Result<Option<ShardedDelta>, TgsError> {
        let fleet = self.fleet();
        if tips.fingerprint != fleet.map.fingerprint() || tips.slots.len() != fleet.workers.len() {
            return Ok(None);
        }
        let mut w = Writer::with_capacity(1 << 12);
        w.magic(SHARD_DELTA_MAGIC);
        w.usize(fleet.workers.len());
        w.u64(fleet.map.fingerprint());
        for (worker, &tip) in fleet.workers.iter().zip(&tips.slots) {
            let outcome = worker.delta_since(tip).and_then(|d| match d {
                Some(delta) => Ok((None, delta)),
                None => {
                    // This slot cannot serve a delta — re-base it inline
                    // so the fleet delta still covers every shard.
                    let (id, section) = worker.checkpoint_base()?;
                    Ok((Some(id), section))
                }
            });
            match outcome {
                Ok((None, delta)) => {
                    w.u8(1);
                    w.bytes(&delta);
                }
                Ok((Some(id), section)) => {
                    w.u8(0);
                    w.u64(id);
                    w.bytes(&section);
                }
                Err(e) => {
                    // Same all-or-nothing rule as full fleet checkpoints:
                    // a delta missing a shard would apply into data loss.
                    self.note(&e);
                    return Err(e);
                }
            }
        }
        Ok(Some(ShardedDelta::from_bytes(w.finish())))
    }

    /// Folds a fleet delta into its base fleet checkpoint, producing the
    /// full [`ShardedCheckpoint`] of the delta's tips — byte-identical
    /// to what [`ShardedEngine::checkpoint`] returned there. Pure: needs
    /// no running fleet.
    pub fn apply_delta(
        base: &ShardedCheckpoint,
        delta: &ShardedDelta,
    ) -> Result<ShardedCheckpoint, TgsError> {
        let header = decode_header(base.as_bytes())?;
        let (fingerprint, slot_deltas) = decode_delta_sections(delta.as_bytes())?;
        if fingerprint != header.map.fingerprint() {
            return Err(TgsError::corrupt(format!(
                "fleet delta keyed to partition fingerprint {fingerprint:#x}, but the base \
                 checkpoint's map derives {:#x}",
                header.map.fingerprint()
            )));
        }
        if slot_deltas.len() != header.sections.len() {
            return Err(TgsError::corrupt(format!(
                "fleet delta carries {} slot sections, the base checkpoint {}",
                slot_deltas.len(),
                header.sections.len()
            )));
        }
        let sections = header
            .sections
            .into_iter()
            .zip(slot_deltas)
            .map(|(section, slot)| match slot {
                DeltaSection::Delta(d) => Ok(SentimentEngine::apply_delta(
                    &EngineCheckpoint::from_bytes(section.to_vec()),
                    &crate::CheckpointDelta::from_bytes(d.to_vec()),
                )?
                .as_bytes()
                .to_vec()),
                DeltaSection::Base(_, fresh) => Ok(fresh.to_vec()),
            })
            .collect::<Result<Vec<Vec<u8>>, TgsError>>()?;
        Ok(assemble_sharded(&header.map, header.ghost_mode, &sections))
    }

    /// Rebuilds a fleet from a multi-shard checkpoint. The header's shard
    /// count, partition boundaries and fingerprint are validated against
    /// each other before any section decodes, so a restore can never
    /// silently re-route users.
    pub fn restore(ckpt: &ShardedCheckpoint) -> Result<Self, TgsError> {
        let header = decode_header(ckpt.as_bytes())?;
        let workers = header
            .sections
            .into_iter()
            .map(|raw| SentimentEngine::restore(&EngineCheckpoint::from_bytes(raw.to_vec())))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::start(header.map, workers, header.ghost_mode))
    }

    /// Restores any checkpoint flavor from raw bytes: a multi-shard
    /// stream rebuilds the fleet; a single-engine
    /// [`EngineCheckpoint`] stream is wrapped as a one-shard fleet (the
    /// router is then the identity). This is what `tgs query` serves
    /// from.
    pub fn restore_any(data: Vec<u8>) -> Result<Self, TgsError> {
        if ShardedCheckpoint::sniff(&data) {
            return Self::restore(&ShardedCheckpoint::from_bytes(data));
        }
        let worker = SentimentEngine::restore(&EngineCheckpoint::from_bytes(data))?;
        Ok(Self::start(PartitionMap::even(1, 1), vec![worker], false))
    }

    /// Drains every queue and stops all workers, surfacing the first
    /// pending ingest failure instead of discarding it. Remote workers
    /// release their server-side slot; in-process worker threads join
    /// once the last query handle drops its transport.
    pub fn shutdown(self) -> Result<(), TgsError> {
        let outcome = self.flush();
        {
            let fleet = self.fleet();
            for worker in &fleet.workers {
                // Queues are already drained; shutdown only releases the
                // worker (and would re-surface the failure we already
                // hold).
                let _ = worker.shutdown();
            }
        }
        outcome.map(|_| ())
    }
}

/// Runs both rebalance phases against a (map, workers) pair that the
/// caller restores into the fleet regardless of outcome.
///
/// Phase A — topology. The worker vec evolves in lockstep with the map,
/// one delta at a time, so worker identity follows the operator's
/// intent: a boundary move keeps both workers (only users migrate, in
/// phase B); a split keeps the left half's worker and spawns a cold
/// sibling for the right; a merge absorbs the right worker's recorded
/// state into the left and retires it. Workers mutate *before* the map
/// advances (with the merge's removal rolled back on absorb failure),
/// so `cur_map.shards() == workers.len()` holds at every exit point.
///
/// Phase B — user migration. For every shard's new range, pull matching
/// users from every other worker; exports of ranges a worker never held
/// are empty and free, so this is correct for any combination of deltas
/// without tracking provenance.
fn apply_plan(
    plan: &RepartitionPlan,
    new_map: &PartitionMap,
    cur_map: &mut PartitionMap,
    workers: &mut Vec<Arc<dyn ShardTransport>>,
) -> Result<(), TgsError> {
    let mut retired_workers = Vec::new();
    for op in &plan.ops {
        match *op {
            RepartitionOp::Split { shard, .. } => {
                let sibling = workers[shard].spawn_sibling()?;
                workers.insert(shard + 1, sibling);
            }
            RepartitionOp::Merge { left } => {
                // Absorb through the checkpoint-section seam: the
                // retired worker serializes wholesale and the absorber
                // folds the section in. The section is only read, so an
                // absorb failure re-inserts the retired worker untouched.
                let retired = workers.remove(left + 1);
                let outcome = retired
                    .checkpoint_section()
                    .and_then(|section| workers[left].absorb_section(&section));
                if let Err(e) = outcome {
                    workers.insert(left + 1, retired);
                    return Err(e);
                }
                retired_workers.push(retired);
            }
            RepartitionOp::MoveBoundary { .. } => {}
        }
        *cur_map = RepartitionPlan::single(*op)
            .apply(cur_map)
            .expect("whole plan validated before phase A");
    }
    debug_assert_eq!(cur_map, new_map);

    let starts = new_map.starts();
    for (j, &lo) in starts.iter().enumerate() {
        let hi = starts.get(j + 1).copied().unwrap_or(usize::MAX);
        for i in 0..workers.len() {
            if i == j {
                continue;
            }
            let moved = workers[i].export_users(lo, hi)?;
            if exported_users_len(&moved)? > 0 {
                if let Err(e) = workers[j].import_users(&moved) {
                    // Restore the exported state to its source (which
                    // just released these users, so re-import cannot
                    // collide) before surfacing the error: a rejected
                    // migration must never destroy user history.
                    workers[i].import_users(&moved)?;
                    return Err(e);
                }
            }
        }
    }
    // Retired merge workers release only once every delta landed, so an
    // error above never leaves the map and worker vec out of step. Their
    // generation floor is poisoned first: a client other than this
    // router still holding the retired transport gets `StaleTopology`
    // instead of silently double-counting state the absorber now owns.
    for retired in retired_workers {
        let _ = retired.set_generation(u64::MAX);
        retired.shutdown()?;
    }
    Ok(())
}

/// Issues `f` against every worker concurrently — one in-flight call per
/// peer — and returns the results in shard order, so downstream merges
/// stay deterministic. The calling thread runs the last worker's call
/// itself and spawns a scoped thread for each of the other `n − 1` (the
/// worker pool's "callers participate" rule): a one-shard fan-out
/// spawns nothing, a two-shard one spawns one thread. Over TCP
/// transports this pipelines the fleet: a fan-out costs the slowest
/// peer's round trip instead of the sum of all of them. A panic in any
/// call resurfaces on the caller only after every call has finished
/// (the scope joins every thread before it unwinds).
fn fan_out<W, R, F>(workers: &[W], f: F) -> Vec<R>
where
    W: Sync,
    R: Send,
    F: Fn(&W) -> R + Sync,
{
    let Some((last, rest)) = workers.split_last() else {
        return Vec::new();
    };
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = rest.iter().map(|w| s.spawn(move || f(w))).collect();
        let own = f(last);
        let mut results: Vec<R> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        results.push(own);
        results
    })
}

/// Flushes every worker, reporting the first failure after draining all.
fn flush_fleet(fleet: &Fleet) -> Result<(), TgsError> {
    // Every worker drains even after a failure (the router never leaves
    // queues half-processed), and they drain concurrently: a quiesce is
    // a barrier, so it costs the slowest worker, not the sum.
    let mut first_err = None;
    for outcome in fan_out(&fleet.workers, |worker| worker.flush()) {
        if let Err(e) = outcome {
            first_err.get_or_insert(e);
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Splits one snapshot into per-shard snapshots: documents follow their
/// author's shard; re-tweets follow their document; cross-shard
/// re-tweets are dropped (drop mode) or kept with their user attached as
/// a ghost seed (ghost mode — this quiesces the fleet to sample each
/// ghost's committed factor from its owning worker). Returns the
/// sub-snapshots, the dropped count, the ghost-edge count, and the
/// authors (for load accounting); the caller commits the counters only
/// once the snapshot is accepted.
#[allow(clippy::type_complexity)]
fn split(
    fleet: &Fleet,
    ghost_mode: bool,
    k: usize,
    snapshot: EngineSnapshot,
) -> Result<(Vec<EngineSnapshot>, usize, usize, Vec<usize>), TgsError> {
    let EngineSnapshot {
        timestamp,
        docs,
        retweets,
        ghosts,
    } = snapshot;
    if !ghosts.is_empty() {
        // Ghost seeds are the router's output, not its input: silently
        // recomputing them would discard whatever the producer thought
        // they were injecting.
        return Err(TgsError::invalid_argument(
            "snapshots ingested through the sharded router must leave `ghosts` \
             empty; the router derives ghost seeds from its own routing",
        ));
    }
    let n = docs.len();
    for r in &retweets {
        if r.doc >= n {
            return Err(TgsError::invalid_argument(format!(
                "retweet references document {} but the snapshot has {n}",
                r.doc
            )));
        }
    }
    let authors: Vec<usize> = docs.iter().map(|d| d.user).collect();
    let events: Vec<(usize, usize)> = retweets.iter().map(|r| (r.user, r.doc)).collect();
    let routing = if ghost_mode {
        route_docs_ghost(&fleet.map, &authors, &events)
    } else {
        route_docs(&fleet.map, &authors, &events)
    };
    let mut shards: Vec<EngineSnapshot> = (0..fleet.map.shards())
        .map(|_| EngineSnapshot::new(timestamp))
        .collect();
    for (doc, &shard) in docs.into_iter().zip(routing.doc_shard.iter()) {
        shards[shard].docs.push(doc);
    }
    for (shard, events) in routing.shard_retweets.iter().enumerate() {
        shards[shard].retweets = events
            .iter()
            .map(|&(user, doc)| EngineRetweet { user, doc })
            .collect();
    }
    if routing.ghost_edges > 0 {
        // Quiesce so every ghost factor reflects the owners' committed
        // state — the sampled exchange is then a pure function of the
        // stream prefix, independent of queue timing.
        flush_fleet(fleet)?;
        for (shard, ghost_users) in routing.shard_ghosts.iter().enumerate() {
            let mut seeds = Vec::with_capacity(ghost_users.len());
            for &user in ghost_users {
                let owner = fleet.map.shard_of(user);
                let factor = fleet.workers[owner]
                    .user_factor(user)?
                    .unwrap_or_else(|| vec![1.0 / k as f64; k]);
                seeds.push((user, factor));
            }
            shards[shard].ghosts = seeds;
        }
    }
    Ok((
        shards,
        routing.dropped_retweets,
        routing.ghost_edges,
        authors,
    ))
}

/// Read handle over a [`ShardedEngine`]'s merged history.
///
/// The handle shares the live fleet with its engine. Every call holds
/// the fleet's read lock for its whole fan-out, as ingest does, and
/// stamps the current map's generation: a rebalance (which takes the
/// lock for writing) waits for in-flight queries, so a query sees the
/// topology from before or after it, never a half-migrated one.
/// Cloning a handle copies three `Arc`s.
#[derive(Clone)]
pub struct ShardedQuery {
    fleet: Arc<RwLock<Fleet>>,
    /// The fleet's frozen vocabulary (for `top_words` ranking).
    vocab: Arc<Vocabulary>,
    /// Number of sentiment clusters.
    k: usize,
    /// Shared recovery telemetry: the `*_partial` methods bump
    /// `degraded_queries` and read the commit registry for
    /// [`Coverage::stale_since`].
    recovery: Arc<RecoveryCounters>,
}

impl ShardedQuery {
    /// Read access to the live fleet. No query body takes it twice: a
    /// recursive `RwLock` read can deadlock behind a queued rebalance.
    fn fleet(&self) -> std::sync::RwLockReadGuard<'_, Fleet> {
        self.fleet.read().expect("fleet lock poisoned")
    }

    /// Number of sentiment clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The one fan-in behind every fan-out query: calls `f` on each of
    /// `fleet`'s workers concurrently, stamped with the map's
    /// generation, and keeps the answers in shard order. A strict query
    /// fails with the first error in shard order. A `partial` one counts
    /// a shard failing with a network error out of the [`Coverage`]
    /// (feeding `stale_since` from the commit registry); any other error
    /// still fails it, and so does a fleet where *no* shard answered (an
    /// empty answer would be indistinguishable from an empty history).
    fn gather<T: Send>(
        &self,
        fleet: &Fleet,
        partial: bool,
        f: impl Fn(&dyn ShardTransport, u64) -> Result<T, TgsError> + Sync,
    ) -> Result<(Vec<T>, Coverage), TgsError> {
        let generation = fleet.map.generation();
        let results = fan_out(&fleet.workers, |w| f(w.as_ref(), generation));
        let mut answers = Vec::with_capacity(results.len());
        let mut stale_since: Option<u64> = None;
        let mut last_net = None;
        for (worker, outcome) in fleet.workers.iter().zip(results) {
            match outcome {
                Ok(v) => answers.push(v),
                Err(e) if partial && e.kind() == TgsErrorKind::Net => {
                    if let Some(t) = self.recovery.last_commit(worker) {
                        stale_since = Some(stale_since.map_or(t, |s| s.min(t)));
                    }
                    last_net = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        if let (0, Some(e)) = (answers.len(), last_net) {
            return Err(e);
        }
        let coverage = Coverage {
            healthy: answers.len(),
            total: fleet.workers.len(),
            stale_since,
        };
        Ok((answers, coverage))
    }

    /// Tags a merged answer with its coverage, counting a degraded
    /// answer exactly once per public query (a strict answer is always
    /// full).
    fn tag<T>(&self, value: T, coverage: Coverage) -> Partial<T> {
        if !coverage.is_full() {
            self.recovery
                .degraded_queries
                .fetch_add(1, Ordering::Relaxed);
        }
        Partial { value, coverage }
    }

    /// Merged timeline entries whose timestamp falls in `range`,
    /// ascending. Per timestamp, shard aggregates sum (tweets, users,
    /// per-cluster counts, objective), `iterations` is the slowest
    /// shard's, and `converged` requires every shard to have converged.
    pub fn timeline<R: RangeBounds<u64>>(&self, range: R) -> Result<Vec<TimelineEntry>, TgsError> {
        self.timeline_in(&range, false).map(|p| p.value)
    }

    /// Degraded-capable [`ShardedQuery::timeline`]: shards that fail
    /// with a network error are skipped instead of failing the query,
    /// and the merged entries come back tagged with the [`Coverage`]
    /// that produced them. Fails only when *no* shard answered or a
    /// non-network error surfaced.
    pub fn timeline_partial<R: RangeBounds<u64>>(
        &self,
        range: R,
    ) -> Result<Partial<Vec<TimelineEntry>>, TgsError> {
        self.timeline_in(&range, true)
    }

    /// The body of [`ShardedQuery::timeline`] and its `partial` twin.
    fn timeline_in(
        &self,
        range: &impl RangeBounds<u64>,
        partial: bool,
    ) -> Result<Partial<Vec<TimelineEntry>>, TgsError> {
        let fleet = self.fleet();
        let Some((lo, hi)) = normalize_range(range) else {
            let shards = fleet.workers.len();
            let coverage = Coverage {
                healthy: shards,
                total: shards,
                stale_since: None,
            };
            return Ok(self.tag(Vec::new(), coverage));
        };
        let (answers, coverage) = self.gather(&fleet, partial, |w, g| w.timeline(g, lo, hi))?;
        let mut merged: BTreeMap<u64, TimelineEntry> = BTreeMap::new();
        for entries in answers {
            merge_timeline_into(&mut merged, entries);
        }
        Ok(self.tag(merged.into_values().collect(), coverage))
    }

    /// The most recent merged timeline entry, if any.
    pub fn latest(&self) -> Result<Option<TimelineEntry>, TgsError> {
        self.latest_in(false).map(|p| p.value)
    }

    /// Degraded-capable [`ShardedQuery::latest`]: the newest entry over
    /// the shards that answered, tagged with the worse of the two
    /// fan-outs' [`Coverage`] (finding the newest timestamp, then
    /// merging that snapshot's per-shard entries).
    pub fn latest_partial(&self) -> Result<Partial<Option<TimelineEntry>>, TgsError> {
        self.latest_in(true)
    }

    /// The body of [`ShardedQuery::latest`] and its `partial` twin.
    fn latest_in(&self, partial: bool) -> Result<Partial<Option<TimelineEntry>>, TgsError> {
        let fleet = self.fleet();
        let (stamps, stamp_cov) = self.gather(&fleet, partial, |w, g| w.latest_timestamp(g))?;
        let Some(t) = stamps.into_iter().flatten().max() else {
            return Ok(self.tag(None, stamp_cov));
        };
        let (answers, entry_cov) = self.gather(&fleet, partial, |w, g| w.timeline(g, t, t))?;
        let mut merged: Option<TimelineEntry> = None;
        for entry in answers.into_iter().flatten() {
            match merged.as_mut() {
                None => merged = Some(entry),
                Some(m) => m.merge_from(&entry),
            }
        }
        let coverage = if entry_cov.healthy < stamp_cov.healthy {
            entry_cov
        } else {
            stamp_cov
        };
        Ok(self.tag(merged, coverage))
    }

    /// The user's sentiment as of `at`, answered by the shard that owns
    /// the user (shard-transparent: callers never see the routing).
    pub fn user_sentiment(&self, user: usize, at: u64) -> Result<UserSentiment, TgsError> {
        let fleet = self.fleet();
        fleet.workers[fleet.map.shard_of(user)].user_sentiment(fleet.map.generation(), user, at)
    }

    /// Every recorded observation for the user, ascending by timestamp.
    pub fn user_timeline(&self, user: usize) -> Result<Vec<(u64, Vec<f64>)>, TgsError> {
        let fleet = self.fleet();
        fleet.workers[fleet.map.shard_of(user)].user_timeline(fleet.map.generation(), user)
    }

    /// Users with recorded history across all shards (shards are
    /// user-disjoint — ghost rows are never recorded — so the sum never
    /// double-counts).
    pub fn known_users(&self) -> Result<usize, TgsError> {
        self.known_users_in(false).map(|p| p.value)
    }

    /// Degraded-capable [`ShardedQuery::known_users`]: the sum over the
    /// shards that answered, tagged with [`Coverage`].
    pub fn known_users_partial(&self) -> Result<Partial<usize>, TgsError> {
        self.known_users_in(true)
    }

    /// The body of [`ShardedQuery::known_users`] and its `partial` twin.
    fn known_users_in(&self, partial: bool) -> Result<Partial<usize>, TgsError> {
        let fleet = self.fleet();
        let (counts, coverage) = self.gather(&fleet, partial, |w, g| w.known_users(g))?;
        Ok(self.tag(counts.into_iter().sum(), coverage))
    }

    /// Per-cluster composition of the merged snapshot at exactly `t`.
    pub fn cluster_summary(&self, t: u64) -> Result<ClusterSummary, TgsError> {
        let entry = self
            .timeline(t..=t)?
            .pop()
            .ok_or(TgsError::SnapshotUnavailable { timestamp: t })?;
        Ok(ClusterSummary {
            timestamp: t,
            tweet_shares: entry.tweet_shares(),
            tweet_counts: entry.tweet_counts,
            user_counts: entry.user_counts,
        })
    }

    /// Cross-shard `top_words`: merges the shards' word–sentiment factors
    /// at `t` — weighted by each shard's tweet count that snapshot, in
    /// fixed shard order — then ranks the merged columns. Fails with
    /// [`TgsError::SnapshotUnavailable`] when no shard recorded `t`, or
    /// when any shard that did has already evicted its factors (a partial
    /// merge would silently skew the ranking).
    pub fn top_words(&self, t: u64, topk: usize) -> Result<Vec<Vec<(String, f64)>>, TgsError> {
        let sf = self.merged_sf(t)?;
        Ok(rank_top_words(&sf, &self.vocab, topk))
    }

    /// The merged word–sentiment factor matrix at `t` — exactly what
    /// [`ShardedQuery::top_words`] ranks (per-shard factors weighted by
    /// that snapshot's tweet counts, merged in fixed shard order).
    /// Public so wire endpoints can serve `sf_at` for a whole fleet.
    pub fn merged_sf(&self, t: u64) -> Result<DenseMatrix, TgsError> {
        // Per peer: summary then factor, still one in-flight frame at a
        // time on each connection, pipelined across peers.
        let (fetched, _) = self.gather(&self.fleet(), false, |worker, generation| match worker
            .cluster_summary(generation, t)
        {
            Ok(summary) => {
                let weight = summary.tweet_counts.iter().sum::<usize>() as f64;
                Ok(Some((weight, worker.sf_at(generation, t)?)))
            }
            Err(TgsError::SnapshotUnavailable { .. }) => Ok(None),
            Err(e) => Err(e),
        })?;
        // The stack's one merge policy (single part = bit-exact clone),
        // so a one-shard fleet ranks exactly like the unsharded engine.
        let parts: Vec<(f64, &DenseMatrix)> =
            fetched.iter().flatten().map(|(w, sf)| (*w, sf)).collect();
        merge_sf(&parts).ok_or(TgsError::SnapshotUnavailable { timestamp: t })
    }
}

/// Normalizes any `RangeBounds<u64>` to an inclusive `[lo, hi]` pair
/// (the wire call's shape); `None` means the range is empty or
/// inverted and the query answers empty without fanning out.
fn normalize_range<R: RangeBounds<u64>>(range: &R) -> Option<(u64, u64)> {
    let lo = match range.start_bound() {
        Bound::Unbounded => 0,
        Bound::Included(&lo) => lo,
        Bound::Excluded(&lo) => lo.checked_add(1)?,
    };
    let hi = match range.end_bound() {
        Bound::Unbounded => u64::MAX,
        Bound::Included(&hi) => hi,
        Bound::Excluded(&hi) => hi.checked_sub(1)?,
    };
    (lo <= hi).then_some((lo, hi))
}

/// Folds timeline entries into a per-timestamp map: a new timestamp is
/// inserted, a shared one merges through [`TimelineEntry::merge_from`].
/// The query fan-in folds each shard's slice this way, and the
/// shard-merge absorb path folds the absorbed worker's whole timeline.
pub(crate) fn merge_timeline_into(
    merged: &mut BTreeMap<u64, TimelineEntry>,
    entries: impl IntoIterator<Item = TimelineEntry>,
) {
    for entry in entries {
        match merged.entry(entry.timestamp) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(entry);
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                slot.get_mut().merge_from(&entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineBuilder, EngineSnapshot};
    use std::sync::atomic::AtomicBool;
    use tgs_data::{day_windows, generate, GeneratorConfig};

    fn corpus() -> tgs_data::Corpus {
        generate(&GeneratorConfig {
            num_users: 24,
            total_tweets: 200,
            num_days: 8,
            ..Default::default()
        })
    }

    fn sharded(corpus: &tgs_data::Corpus, shards: usize) -> ShardedEngine {
        EngineBuilder::new()
            .k(3)
            .max_iters(8)
            .fit_sharded(corpus, shards)
            .expect("valid build")
    }

    fn stream(engine: &ShardedEngine, corpus: &tgs_data::Corpus) {
        for (lo, hi) in day_windows(corpus.num_days, 2) {
            engine
                .ingest(EngineSnapshot::from_corpus_window(corpus, lo, hi))
                .unwrap();
        }
        engine.flush().unwrap();
    }

    #[test]
    fn fan_out_runs_only_the_last_call_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for n in [1usize, 2, 4] {
            let ids: Vec<usize> = (0..n).collect();
            let calls: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let results = fan_out(&ids, |&i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                (i, std::thread::current().id())
            });
            let order: Vec<usize> = results.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, ids, "{n} workers: results in shard order");
            for (i, count) in calls.iter().enumerate() {
                assert_eq!(count.load(Ordering::Relaxed), 1, "{n} workers: call {i}");
            }
            for &(i, thread) in &results {
                assert_eq!(
                    thread == caller,
                    i == n - 1,
                    "{n} workers: call {i}'s thread"
                );
            }
        }
    }

    #[test]
    fn fan_out_panic_resurfaces_after_every_other_call_finished() {
        /// Raises its flag when dropped: during unwinding, in a call
        /// that panics.
        struct RaiseOnDrop<'a>(&'a AtomicBool);
        impl Drop for RaiseOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        for n in [1usize, 2, 4] {
            let ids: Vec<usize> = (0..n).collect();
            for bad in 0..n {
                let unwinding = AtomicBool::new(false);
                let finished = AtomicU64::new(0);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fan_out(&ids, |&i| {
                        if i == bad {
                            let _raise = RaiseOnDrop(&unwinding);
                            panic!("call {i} failed");
                        }
                        // Finish only after the bad call began to
                        // unwind, and late enough that a fan-out
                        // resurfacing the panic early would be seen.
                        while !unwinding.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        finished.fetch_add(1, Ordering::SeqCst);
                    })
                }));
                let panic = outcome.expect_err("the panic resurfaces on the caller");
                assert_eq!(
                    panic.downcast_ref::<String>(),
                    Some(&format!("call {bad} failed")),
                    "{n} workers: the call's own panic"
                );
                assert_eq!(
                    finished.load(Ordering::SeqCst),
                    n as u64 - 1,
                    "{n} workers, call {bad} panicked: every other call finished first"
                );
            }
        }
    }

    #[test]
    fn fan_out_covers_every_tweet_and_user_query_routes() {
        let c = corpus();
        let engine = sharded(&c, 3);
        stream(&engine, &c);
        let query = engine.query();
        let timeline = query.timeline(..).unwrap();
        assert_eq!(timeline.len() as u64, engine.steps());
        let total: usize = timeline.iter().map(|e| e.tweets).sum();
        assert_eq!(total, c.num_tweets(), "no tweet may vanish in fan-out");
        for entry in &timeline {
            assert_eq!(entry.tweet_counts.iter().sum::<usize>(), entry.tweets);
            assert_eq!(entry.user_counts.iter().sum::<usize>(), entry.users);
        }
        // Every author answers through the router.
        let last = timeline.last().unwrap().timestamp;
        for t in c.tweets.iter().take(40) {
            let s = query.user_sentiment(t.author, last).unwrap();
            assert_eq!(s.distribution.len(), 3);
        }
        // Merged summary and top words answer for a recorded snapshot.
        let summary = query.cluster_summary(timeline[0].timestamp).unwrap();
        assert!((summary.tweet_shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let words = query.top_words(timeline[0].timestamp, 5).unwrap();
        assert_eq!(words.len(), 3);
        assert!(words.iter().all(|c| !c.is_empty()));
        // Load accounting covers every routed document.
        let loads = engine.shard_loads();
        assert_eq!(
            loads.iter().map(|l| l.tweets).sum::<u64>(),
            c.num_tweets() as u64
        );
        assert!(engine.load_skew() >= 1.0);
    }

    #[test]
    fn fleet_delta_chain_matches_full_checkpoint_at_every_step() {
        let c = corpus();
        let engine = sharded(&c, 3);
        let windows = day_windows(c.num_days, 1);
        for &(lo, hi) in &windows[..2] {
            engine
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .unwrap();
        }
        engine.flush().unwrap();
        let (mut tips, base) = engine.checkpoint_base().unwrap();
        assert_eq!(
            base.as_bytes(),
            engine.checkpoint().unwrap().as_bytes(),
            "a fleet base is byte-identical to a plain fleet checkpoint"
        );
        let mut current = base;
        for &(lo, hi) in &windows[2..] {
            engine
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .unwrap();
            engine.flush().unwrap();
            let delta = engine
                .delta_since(&tips)
                .unwrap()
                .expect("unchanged topology must serve a delta");
            current = ShardedEngine::apply_delta(&current, &delta).unwrap();
            assert_eq!(
                current.as_bytes(),
                engine.checkpoint().unwrap().as_bytes(),
                "base + fleet deltas must be byte-identical to the full fleet checkpoint"
            );
            tips = delta.tips().unwrap();
        }
        // And the materialized checkpoint restores into a working fleet.
        let restored = ShardedEngine::restore(&current).unwrap();
        assert_eq!(
            restored.query().timeline(..).unwrap(),
            engine.query().timeline(..).unwrap()
        );
    }

    #[test]
    fn fleet_delta_unavailable_after_rebalance() {
        let c = corpus();
        let engine = sharded(&c, 2);
        stream(&engine, &c);
        let (tips, _) = engine.checkpoint_base().unwrap();
        // A topology change re-keys the fingerprint: old tips are dead.
        let plan = RepartitionPlan::single(RepartitionOp::MoveBoundary {
            boundary: 1,
            to: engine.map().starts()[1] + 1,
        });
        engine.rebalance(&plan).unwrap();
        assert!(
            engine.delta_since(&tips).unwrap().is_none(),
            "stale fingerprint must report unavailable, not mis-apply"
        );
        // A fresh base serves deltas again.
        let (tips, base) = engine.checkpoint_base().unwrap();
        let delta = engine.delta_since(&tips).unwrap().unwrap();
        assert_eq!(
            ShardedEngine::apply_delta(&base, &delta)
                .unwrap()
                .as_bytes(),
            engine.checkpoint().unwrap().as_bytes()
        );
    }

    #[test]
    fn checkpoint_restore_roundtrips_the_fleet() {
        let c = corpus();
        let engine = sharded(&c, 2);
        stream(&engine, &c);
        let ckpt = engine.checkpoint().unwrap();
        assert!(ShardedCheckpoint::sniff(ckpt.as_bytes()));
        assert_eq!(ckpt.sections().unwrap().len(), 2);

        let restored = ShardedEngine::restore(&ckpt).unwrap();
        assert_eq!(restored.shards(), 2);
        assert_eq!(restored.map(), engine.map());
        assert_eq!(
            restored.query().timeline(..).unwrap(),
            engine.query().timeline(..).unwrap()
        );
        // Restored fleet keeps solving bit-identically.
        let extra = EngineSnapshot::from_corpus_window(&c, 0, c.num_days);
        let mut a_snap = extra.clone();
        a_snap.timestamp = 1000;
        let mut b_snap = extra;
        b_snap.timestamp = 1000;
        engine.ingest(a_snap).unwrap();
        restored.ingest(b_snap).unwrap();
        engine.flush().unwrap();
        restored.flush().unwrap();
        assert_eq!(
            restored.query().timeline(..).unwrap(),
            engine.query().timeline(..).unwrap()
        );
    }

    #[test]
    fn restore_rejects_tampered_headers() {
        let c = corpus();
        let engine = sharded(&c, 2);
        stream(&engine, &c);
        let full = engine.checkpoint().unwrap().as_bytes().to_vec();
        // Shard count flipped: starts list length / fingerprint no longer
        // match.
        let mut wrong_shards = full.clone();
        wrong_shards[8..16].copy_from_slice(&3u64.to_le_bytes());
        assert!(ShardedEngine::restore(&ShardedCheckpoint::from_bytes(wrong_shards)).is_err());
        // A boundary flipped: fingerprint mismatch.
        let mut wrong_start = full.clone();
        // Layout: magic(8) + shards(8) + universe(8) + ghost(1) + starts.
        wrong_start[25 + 8..25 + 16].copy_from_slice(&7u64.to_le_bytes());
        assert!(ShardedEngine::restore(&ShardedCheckpoint::from_bytes(wrong_start)).is_err());
        // Truncated section.
        let cut = full.len() - 9;
        assert!(
            ShardedEngine::restore(&ShardedCheckpoint::from_bytes(full[..cut].to_vec())).is_err()
        );
        assert!(ShardedEngine::restore(&ShardedCheckpoint::from_bytes(full)).is_ok());
    }

    #[test]
    fn restore_any_wraps_single_engine_checkpoints() {
        let c = corpus();
        let single = EngineBuilder::new().k(3).max_iters(8).fit(&c).unwrap();
        for (lo, hi) in day_windows(c.num_days, 2) {
            single
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .unwrap();
        }
        single.flush().unwrap();
        let ckpt = single.checkpoint().unwrap();
        let wrapped = ShardedEngine::restore_any(ckpt.as_bytes().to_vec()).unwrap();
        assert_eq!(wrapped.shards(), 1);
        assert_eq!(
            wrapped.query().timeline(..).unwrap(),
            single.query().timeline(..)
        );
        let t = single.query().latest().unwrap().timestamp;
        assert_eq!(
            wrapped.query().top_words(t, 6).unwrap(),
            single.query().top_words(t, 6).unwrap()
        );
    }

    #[test]
    fn cross_shard_retweets_are_counted() {
        let c = corpus();
        let engine = sharded(&c, 4);
        let full = EngineSnapshot::from_corpus_window(&c, 0, c.num_days);
        let had_retweets = !full.retweets.is_empty();
        engine.ingest(full).unwrap();
        engine.flush().unwrap();
        if had_retweets {
            // The synthetic corpus re-tweets across the user range, so 4
            // shards must drop at least one edge.
            assert!(engine.dropped_cross_shard() > 0);
            assert_eq!(engine.ghost_edges(), 0, "drop mode has no ghosts");
        }
    }

    #[test]
    fn ghost_mode_keeps_every_cross_shard_retweet() {
        let c = corpus();
        let engine = EngineBuilder::new()
            .k(3)
            .max_iters(8)
            .ghost_users(true)
            .fit_sharded(&c, 4)
            .expect("valid build");
        stream(&engine, &c);
        assert_eq!(engine.dropped_cross_shard(), 0, "ghost mode drops nothing");
        assert!(
            engine.ghost_edges() > 0,
            "the corpus re-tweets across shards"
        );
        let stats = engine.stats();
        assert_eq!(stats.dropped_cross_shard, 0);
        assert_eq!(stats.ghost_edges, engine.ghost_edges());
        // Ghost rows never leak into ownership: the fleet-wide known-user
        // total (a sum over shards) equals the count of users answering
        // through owner routing — a ghost recorded on a foreign shard
        // would inflate the sum. (A user whose *only* activity is a
        // cross-shard re-tweet is withheld everywhere — the ghost row is
        // prescribed, not owned — so the total is bounded by, and may
        // fall below, an unsharded run's.)
        let query = engine.query();
        let routed = (0..c.num_users())
            .filter(|&u| query.user_timeline(u).is_ok())
            .count();
        assert_eq!(
            query.known_users().unwrap(),
            routed,
            "history only with the owner"
        );
        // Determinism: an identical ghost-mode run is byte-identical.
        let twin = EngineBuilder::new()
            .k(3)
            .max_iters(8)
            .ghost_users(true)
            .fit_sharded(&c, 4)
            .unwrap();
        stream(&twin, &c);
        assert_eq!(
            twin.query().timeline(..).unwrap(),
            engine.query().timeline(..).unwrap()
        );
    }

    #[test]
    fn duplicate_timestamps_rejected_fleet_wide() {
        // A duplicate whose documents route to a *different* shard than
        // the original would pass every per-worker append-only check;
        // the router must reject it synchronously.
        let c = corpus();
        let engine = sharded(&c, 2);
        let map = engine.map();
        let shard_user = |shard: usize| {
            (0..c.num_users())
                .find(|&u| map.shard_of(u) == shard)
                .expect("both shards own users")
        };
        let mut first = EngineSnapshot::new(5);
        first.push_tokens(shard_user(0), vec!["hello".into()]);
        engine.ingest(first).unwrap();
        let mut dup = EngineSnapshot::new(5);
        dup.push_tokens(shard_user(1), vec!["hello".into()]);
        let err = engine.ingest(dup).unwrap_err();
        assert_eq!(err.kind(), tgs_core::TgsErrorKind::InvalidArgument);
        engine.flush().unwrap();
        assert_eq!(engine.steps(), 1, "the duplicate must not commit anywhere");
        // A fresh timestamp still flows normally afterwards.
        let mut next = EngineSnapshot::new(6);
        next.push_tokens(shard_user(1), vec!["hello".into()]);
        engine.ingest(next).unwrap();
        engine.flush().unwrap();
        assert_eq!(engine.steps(), 2);
    }

    #[test]
    fn stats_aggregate_across_workers() {
        let c = corpus();
        let engine = sharded(&c, 2);
        stream(&engine, &c);
        let stats = engine.stats();
        assert_eq!(stats.queued, 0);
        assert!(stats.ingested > 0);
        assert!(stats.last_step_ns > 0);
    }
}
