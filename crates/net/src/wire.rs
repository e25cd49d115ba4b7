//! The opcode table and the payload codecs: how every request and
//! every engine value crosses the wire.
//!
//! Payloads are written and read with [`tgs_core::codec`], the same
//! codec the checkpoint formats use: little-endian `u64` integers
//! (usizes widen losslessly), `f64`s by bit pattern (so factors and
//! objectives round-trip byte-identically), `u64`-length-prefixed
//! strings and blobs. Value decoders return a `String` description on
//! malformed input; callers wrap it with peer context
//! ([`tgs_core::TgsError::Net`] on the client, an error response on the
//! server).

use tgs_core::codec::{CodecError, Reader, Writer};
use tgs_core::TgsError;
use tgs_engine::{
    ClusterSummary, DocContent, EngineDoc, EngineRetweet, EngineSnapshot, EngineStats,
    LatencyHistogram, TimelineEntry, UserSentiment,
};
use tgs_linalg::DenseMatrix;

use crate::frame::WIRE_VERSION;

/// Whether a failed call may be re-sent on a fresh connection after its
/// request frame was fully written. Before that the server cannot have
/// acted, so any request may be re-sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retry {
    /// Replaying the request is harmless: pure reads, liveness, and
    /// monotone or idempotent control requests.
    Idempotent,
    /// Replaying could apply the request twice (a re-sent `ingest` would
    /// double-count a snapshot if the first one landed and the reply was
    /// lost).
    OnceOnly,
}

/// How one request argument crosses the wire.
trait Arg<'a>: Sized {
    fn put(&self, w: &mut Writer);
    /// `what` names the argument in error messages.
    fn get(r: &mut Reader<'a>, what: &str) -> Result<Self, String>;
}

impl Arg<'_> for u64 {
    fn put(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        Ok(r.u64(what)?)
    }
}

impl Arg<'_> for usize {
    fn put(&self, w: &mut Writer) {
        w.usize(*self);
    }
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, String> {
        Ok(r.usize(what)?)
    }
}

/// A checkpoint section or migration blob. It is unprefixed and runs to
/// the end of the payload, so it can only be a request's last argument.
impl<'a> Arg<'a> for &'a [u8] {
    fn put(&self, w: &mut Writer) {
        w.raw(self);
    }
    fn get(r: &mut Reader<'a>, _: &str) -> Result<Self, String> {
        Ok(r.rest())
    }
}

/// Declares [`Op`] from the opcode table below, one row per opcode:
///
/// ```text
/// number "fault name" RetryClass Variant(generation)? { argument: Type, ... };
/// ```
///
/// The fault name is the opcode's `TGS_FAULTS` spelling. A
/// `(generation)` variant carries the caller's routing generation in
/// the frame header, where the slot checks it; every other request
/// sends 0 there. The arguments, in order, are the payload, each
/// written and read by its [`Arg`] codec.
macro_rules! opcodes {
    ($(
        $(#[$doc:meta])*
        $code:literal $name:literal $retry:ident
        $variant:ident $(($gen:ident))? { $($arg:ident: $ty:ty),* };
    )*) => {
        /// One request per opcode, holding its arguments.
        #[derive(Debug, PartialEq)]
        pub(crate) enum Op<'a> {
            $($(#[$doc])* $variant { $($gen: u64,)? $($arg: $ty),* },)*
        }

        /// Every opcode's number and fault name.
        pub(crate) const OPCODES: &[(u8, &str)] = &[$(($code, $name)),*];

        impl<'a> Op<'a> {
            pub(crate) fn opcode(&self) -> u8 {
                match self {
                    $(Op::$variant { .. } => $code,)*
                }
            }

            pub(crate) fn retry(&self) -> Retry {
                match self {
                    $(Op::$variant { .. } => Retry::$retry,)*
                }
            }

            /// The routing generation the frame carries.
            pub(crate) fn generation(&self) -> u64 {
                $($(if let Op::$variant { $gen, .. } = self {
                    return *$gen;
                })?)*
                0
            }

            /// The request payload: the arguments in declaration order.
            pub(crate) fn payload(&self) -> Vec<u8> {
                let mut w = Writer::new();
                match self {
                    $(Op::$variant { $($arg,)* .. } => {
                        $($arg.put(&mut w);)*
                    })*
                }
                w.finish()
            }

            /// The request a frame carries. Fails typed on an unknown
            /// opcode or a payload that does not decode exactly.
            pub(crate) fn decode(
                opcode: u8,
                generation: u64,
                payload: &'a [u8],
            ) -> Result<Self, TgsError> {
                let bad = |detail: String| {
                    TgsError::invalid_argument(format!("bad request payload: {detail}"))
                };
                let mut r = Reader::new(payload);
                let op = match opcode {
                    $($code => Op::$variant {
                        $($gen: generation,)?
                        $($arg: Arg::get(&mut r, concat!($name, " ", stringify!($arg)))
                            .map_err(bad)?,)*
                    },)*
                    other => {
                        return Err(TgsError::invalid_argument(format!(
                            "unknown opcode {other} (this server speaks protocol version \
                             {WIRE_VERSION})"
                        )))
                    }
                };
                r.done().map_err(|e| bad(e.into()))?;
                Ok(op)
            }
        }
    };
}

// The opcode table: one row per opcode, numbered in order. Numbers are
// wire-stable: append, never renumber.
opcodes! {
    /// Liveness probe.
    0 "ping" Idempotent Ping {};
    /// Creates the slot from a checkpoint section.
    1 "init" OnceOnly Init { section: &'a [u8] };
    2 "ingest" OnceOnly Ingest(generation) { snapshot: EngineSnapshot };
    3 "flush" Idempotent Flush {};
    4 "stats" Idempotent Stats {};
    5 "timestamps" Idempotent Timestamps {};
    /// Entries with `lo <= timestamp <= hi`.
    6 "timeline" Idempotent Timeline(generation) { lo: u64, hi: u64 };
    7 "latest_timestamp" Idempotent LatestTimestamp(generation) {};
    8 "user_sentiment" Idempotent UserSentiment(generation) { user: usize, at: u64 };
    9 "user_timeline" Idempotent UserTimeline(generation) { user: usize };
    10 "known_users" Idempotent KnownUsers(generation) {};
    11 "cluster_summary" Idempotent ClusterSummary(generation) { t: u64 };
    12 "sf_at" Idempotent SfAt(generation) { t: u64 };
    13 "k" Idempotent K {};
    14 "vocab_tokens" Idempotent VocabTokens {};
    15 "user_factor" Idempotent UserFactor { user: usize };
    16 "checkpoint_section" Idempotent CheckpointSection {};
    17 "export_users" OnceOnly ExportUsers { lo: usize, hi: usize };
    18 "import_users" OnceOnly ImportUsers { users: &'a [u8] };
    /// Answers the new slot's id.
    19 "spawn_sibling" OnceOnly SpawnSibling {};
    20 "absorb_section" OnceOnly AbsorbSection { section: &'a [u8] };
    /// Raises the slot's generation floor to `floor`.
    21 "set_generation" Idempotent SetGeneration { floor: u64 };
    /// Shuts the slot down and removes it; an absent slot is a success.
    22 "shutdown_slot" Idempotent ShutdownSlot {};
    /// Stops the whole server after replying.
    23 "terminate" Idempotent Terminate {};
    /// The declared user range and live slot count.
    24 "server_info" Idempotent ServerInfo {};
    // Re-asking the same base id yields an equivalent delta under a
    // fresh mark id, and a lost reply's orphaned mark ages out of the
    // retention window, so both delta requests are idempotent.
    25 "checkpoint_base" Idempotent CheckpointBase {};
    26 "delta_since" Idempotent DeltaSince { base_id: u64 };
}

/// The opcode whose fault name is `name`.
pub(crate) fn opcode_named(name: &str) -> Option<u8> {
    OPCODES
        .iter()
        .find(|&&(_, n)| n == name)
        .map(|&(code, _)| code)
}

// --- value codecs ---------------------------------------------------

/// Runs `put` on a fresh writer and returns the payload.
fn encode(put: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    put(&mut w);
    w.finish()
}

/// Runs `get` over `payload`, which it must consume exactly.
fn decode<T>(
    payload: &[u8],
    get: impl FnOnce(&mut Reader<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let mut r = Reader::new(payload);
    let v = get(&mut r)?;
    r.done()?;
    Ok(v)
}

/// An optional value: a presence byte (0 = absent, 1 = present), then
/// the value.
fn enc_opt<T: ?Sized>(v: Option<&T>, put: impl FnOnce(&mut Writer, &T)) -> Vec<u8> {
    encode(|w| match v {
        Some(x) => {
            w.u8(1);
            put(w, x);
        }
        None => w.u8(0),
    })
}

/// Inverse of [`enc_opt`].
fn dec_opt<T>(
    payload: &[u8],
    get: impl FnOnce(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<Option<T>, String> {
    decode(payload, |r| match r.u8("option tag")? {
        0 => Ok(None),
        1 => Ok(Some(get(r)?)),
        t => Err(format!("bad option tag {t}")),
    })
}

/// Encodes a bare `u64` payload.
pub(crate) fn enc_u64(v: u64) -> Vec<u8> {
    encode(|w| w.u64(v))
}

/// Decodes a bare `u64` payload.
pub(crate) fn dec_u64(payload: &[u8]) -> Result<u64, String> {
    decode(payload, |r| Ok(r.u64("u64 value")?))
}

/// Decodes a bare `u64` payload holding a count.
pub(crate) fn dec_usize(payload: &[u8]) -> Result<usize, String> {
    decode(payload, |r| Ok(r.usize("u64 value")?))
}

/// Encodes `Option<u64>` as a presence byte plus the value.
pub(crate) fn enc_opt_u64(v: Option<u64>) -> Vec<u8> {
    enc_opt(v.as_ref(), |w, &x| w.u64(x))
}

/// Decodes [`enc_opt_u64`].
pub(crate) fn dec_opt_u64(payload: &[u8]) -> Result<Option<u64>, String> {
    dec_opt(payload, |r| r.u64("optional value"))
}

/// Encodes `Option<Vec<f64>>` (the `user_factor` result).
pub(crate) fn enc_opt_f64s(v: &Option<Vec<f64>>) -> Vec<u8> {
    enc_opt(v.as_deref(), Writer::f64s)
}

/// Decodes [`enc_opt_f64s`].
pub(crate) fn dec_opt_f64s(payload: &[u8]) -> Result<Option<Vec<f64>>, String> {
    dec_opt(payload, |r| r.f64s("factor"))
}

/// Encodes the `checkpoint_base` result: the delta-base mark id plus
/// the full checkpoint section bytes.
pub(crate) fn enc_id_bytes(id: u64, bytes: &[u8]) -> Vec<u8> {
    encode(|w| {
        w.u64(id);
        w.bytes(bytes);
    })
}

/// Decodes [`enc_id_bytes`].
pub(crate) fn dec_id_bytes(payload: &[u8]) -> Result<(u64, Vec<u8>), String> {
    decode(payload, |r| {
        let id = r.u64("mark id")?;
        Ok((id, r.bytes("checkpoint section")?.to_vec()))
    })
}

/// Encodes the `delta_since` result: a presence byte plus the
/// serialized delta (absent = the mark cannot serve a delta; the
/// caller re-bases).
pub(crate) fn enc_opt_bytes(v: Option<&[u8]>) -> Vec<u8> {
    enc_opt(v, Writer::bytes)
}

/// Decodes [`enc_opt_bytes`].
pub(crate) fn dec_opt_bytes(payload: &[u8]) -> Result<Option<Vec<u8>>, String> {
    dec_opt(payload, |r| Ok(r.bytes("delta bytes")?.to_vec()))
}

/// Encodes a `u64` list (committed timestamps).
pub(crate) fn enc_u64s(v: &[u64]) -> Vec<u8> {
    encode(|w| {
        w.usize(v.len());
        for &x in v {
            w.u64(x);
        }
    })
}

/// Decodes [`enc_u64s`].
pub(crate) fn dec_u64s(payload: &[u8]) -> Result<Vec<u64>, String> {
    decode(payload, |r| {
        let n = r.count(8, "u64 list")?;
        Ok((0..n)
            .map(|_| r.u64("u64 element"))
            .collect::<Result<_, _>>()?)
    })
}

/// Encodes a string list (the frozen vocabulary's token table).
pub(crate) fn enc_strs(v: &[String]) -> Vec<u8> {
    encode(|w| {
        w.usize(v.len());
        for s in v {
            w.str(s);
        }
    })
}

/// Decodes [`enc_strs`].
pub(crate) fn dec_strs(payload: &[u8]) -> Result<Vec<String>, String> {
    decode(payload, |r| {
        let n = r.count(8, "string list")?;
        Ok((0..n)
            .map(|_| r.str("string element"))
            .collect::<Result<_, _>>()?)
    })
}

/// Encodes one pre-routed [`EngineSnapshot`] (the `ingest` payload).
pub fn enc_snapshot(s: &EngineSnapshot) -> Vec<u8> {
    encode(|w| s.put(w))
}

/// Decodes [`enc_snapshot`].
pub fn dec_snapshot(payload: &[u8]) -> Result<EngineSnapshot, String> {
    decode(payload, |r| EngineSnapshot::get(r, "snapshot"))
}

impl Arg<'_> for EngineSnapshot {
    fn put(&self, w: &mut Writer) {
        w.u64(self.timestamp);
        w.usize(self.docs.len());
        for doc in &self.docs {
            w.usize(doc.user);
            match &doc.content {
                DocContent::Raw(text) => {
                    w.u8(0);
                    w.str(text);
                }
                DocContent::Tokens(tokens) => {
                    w.u8(1);
                    w.usize(tokens.len());
                    for t in tokens {
                        w.str(t);
                    }
                }
            }
        }
        w.usize(self.retweets.len());
        for rt in &self.retweets {
            w.usize(rt.user);
            w.usize(rt.doc);
        }
        w.usize(self.ghosts.len());
        for (user, factor) in &self.ghosts {
            w.usize(*user);
            w.f64s(factor);
        }
    }

    fn get(r: &mut Reader<'_>, _: &str) -> Result<Self, String> {
        let timestamp = r.u64("snapshot timestamp")?;
        let n_docs = r.count(9, "doc count")?;
        let mut docs = Vec::with_capacity(n_docs);
        for _ in 0..n_docs {
            let user = r.usize("doc author")?;
            let content = match r.u8("doc content tag")? {
                0 => DocContent::Raw(r.str("raw text")?),
                1 => {
                    let n = r.count(8, "token count")?;
                    DocContent::Tokens(
                        (0..n)
                            .map(|_| r.str("token"))
                            .collect::<Result<Vec<_>, _>>()?,
                    )
                }
                t => return Err(format!("bad doc content tag {t}")),
            };
            docs.push(EngineDoc { user, content });
        }
        let n_rts = r.count(16, "retweet count")?;
        let mut retweets = Vec::with_capacity(n_rts);
        for _ in 0..n_rts {
            retweets.push(EngineRetweet {
                user: r.usize("retweet user")?,
                doc: r.usize("retweet doc")?,
            });
        }
        let n_ghosts = r.count(16, "ghost count")?;
        let mut ghosts = Vec::with_capacity(n_ghosts);
        for _ in 0..n_ghosts {
            let user = r.usize("ghost user")?;
            ghosts.push((user, r.f64s("ghost factor")?));
        }
        Ok(EngineSnapshot {
            timestamp,
            docs,
            retweets,
            ghosts,
        })
    }
}

fn wr_timeline_entry(w: &mut Writer, e: &TimelineEntry) {
    w.u64(e.timestamp);
    w.usize(e.tweets);
    w.usize(e.users);
    w.usize(e.new_users);
    w.usize(e.evolving_users);
    w.usize(e.iterations);
    w.bool(e.converged);
    w.f64(e.objective);
    w.usizes(&e.tweet_counts);
    w.usizes(&e.user_counts);
}

fn rd_timeline_entry(r: &mut Reader<'_>) -> Result<TimelineEntry, CodecError> {
    Ok(TimelineEntry {
        timestamp: r.u64("entry timestamp")?,
        tweets: r.usize("tweets")?,
        users: r.usize("users")?,
        new_users: r.usize("new users")?,
        evolving_users: r.usize("evolving users")?,
        iterations: r.usize("iterations")?,
        converged: r.bool("converged flag")?,
        objective: r.f64("objective")?,
        tweet_counts: r.usizes("tweet counts")?,
        user_counts: r.usizes("user counts")?,
    })
}

/// Encodes a timeline slice.
pub fn enc_timeline(entries: &[TimelineEntry]) -> Vec<u8> {
    encode(|w| {
        w.usize(entries.len());
        for e in entries {
            wr_timeline_entry(w, e);
        }
    })
}

/// Decodes [`enc_timeline`].
pub fn dec_timeline(payload: &[u8]) -> Result<Vec<TimelineEntry>, String> {
    decode(payload, |r| {
        let n = r.count(65, "timeline length")?;
        Ok((0..n)
            .map(|_| rd_timeline_entry(r))
            .collect::<Result<_, _>>()?)
    })
}

/// Encodes one [`UserSentiment`].
pub(crate) fn enc_user_sentiment(s: &UserSentiment) -> Vec<u8> {
    encode(|w| {
        w.usize(s.user);
        w.u64(s.timestamp);
        w.f64s(&s.distribution);
    })
}

/// Decodes [`enc_user_sentiment`].
pub(crate) fn dec_user_sentiment(payload: &[u8]) -> Result<UserSentiment, String> {
    decode(payload, |r| {
        Ok(UserSentiment {
            user: r.usize("user")?,
            timestamp: r.u64("timestamp")?,
            distribution: r.f64s("distribution")?,
        })
    })
}

/// Encodes a user's full observation history.
pub(crate) fn enc_user_timeline(rows: &[(u64, Vec<f64>)]) -> Vec<u8> {
    encode(|w| {
        w.usize(rows.len());
        for (key, dist) in rows {
            w.u64(*key);
            w.f64s(dist);
        }
    })
}

/// Decodes [`enc_user_timeline`].
pub(crate) fn dec_user_timeline(payload: &[u8]) -> Result<Vec<(u64, Vec<f64>)>, String> {
    decode(payload, |r| {
        let n = r.count(16, "observation count")?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let key = r.u64("observation timestamp")?;
            rows.push((key, r.f64s("observation distribution")?));
        }
        Ok(rows)
    })
}

/// Encodes one [`ClusterSummary`].
pub(crate) fn enc_cluster_summary(s: &ClusterSummary) -> Vec<u8> {
    encode(|w| {
        w.u64(s.timestamp);
        w.usizes(&s.tweet_counts);
        w.usizes(&s.user_counts);
        w.f64s(&s.tweet_shares);
    })
}

/// Decodes [`enc_cluster_summary`].
pub(crate) fn dec_cluster_summary(payload: &[u8]) -> Result<ClusterSummary, String> {
    decode(payload, |r| {
        Ok(ClusterSummary {
            timestamp: r.u64("summary timestamp")?,
            tweet_counts: r.usizes("tweet counts")?,
            user_counts: r.usizes("user counts")?,
            tweet_shares: r.f64s("tweet shares")?,
        })
    })
}

/// The SIMD tier names an engine can report: this build always sends
/// `"scalar"`, and older peers may send the other three. `simd` is a
/// `&'static str`, so the decoder maps the wire string back onto the
/// known names (an unknown name decodes as `""` rather than leaking).
const SIMD_TIERS: [&str; 4] = ["scalar", "avx2", "avx2+fma", "neon"];

/// Encodes one [`EngineStats`]. The step-latency histogram rides after
/// the scalar fields as `shed: u64`, `buckets: u64` (count) and that
/// many `u64` bucket values — length-prefixed so a future bucket-count
/// revision stays decodable (the decoder zero-fills a short list and
/// clamps a long one into its last bucket). The recovery counters
/// (`respawns`, `replayed_docs`, `degraded_queries`) trail the
/// histogram as an optional record: a pre-recovery peer's payload
/// simply ends early and they decode as 0.
pub fn enc_stats(s: &EngineStats) -> Vec<u8> {
    encode(|w| {
        w.u64(s.queued);
        w.u64(s.ingested);
        w.u64(s.dropped_capacity);
        w.u64(s.last_step_ns);
        w.u64(s.ghost_edges);
        w.u64(s.dropped_cross_shard);
        w.u64(s.shard_unavailable);
        w.u64(s.threads);
        w.bool(s.pinned);
        w.str(s.simd);
        w.u64(s.step_hist.shed());
        let buckets = s.step_hist.buckets();
        w.usize(buckets.len());
        for &b in buckets {
            w.u64(b);
        }
        w.u64(s.respawns);
        w.u64(s.replayed_docs);
        w.u64(s.degraded_queries);
    })
}

/// Decodes [`enc_stats`].
pub fn dec_stats(payload: &[u8]) -> Result<EngineStats, String> {
    decode(payload, |r| {
        let mut s = EngineStats {
            queued: r.u64("queued")?,
            ingested: r.u64("ingested")?,
            dropped_capacity: r.u64("dropped_capacity")?,
            last_step_ns: r.u64("last_step_ns")?,
            step_hist: LatencyHistogram::new(),
            ghost_edges: r.u64("ghost_edges")?,
            dropped_cross_shard: r.u64("dropped_cross_shard")?,
            shard_unavailable: r.u64("shard_unavailable")?,
            threads: r.u64("threads")?,
            pinned: r.bool("pinned")?,
            simd: "",
            respawns: 0,
            replayed_docs: 0,
            degraded_queries: 0,
        };
        let simd = r.str("simd tier")?;
        s.simd = SIMD_TIERS
            .iter()
            .find(|&&name| name == simd)
            .copied()
            .unwrap_or("");
        let shed = r.u64("histogram shed")?;
        let n = r.count(8, "histogram bucket count")?;
        let buckets: Vec<u64> = (0..n)
            .map(|_| r.u64("histogram bucket"))
            .collect::<Result<_, _>>()?;
        s.step_hist = LatencyHistogram::from_parts(&buckets, shed);
        // Optional trailing record: absent on payloads from peers built
        // before the recovery counters existed.
        if r.remaining() > 0 {
            s.respawns = r.u64("respawns")?;
            s.replayed_docs = r.u64("replayed_docs")?;
            s.degraded_queries = r.u64("degraded_queries")?;
        }
        Ok(s)
    })
}

/// Encodes one [`DenseMatrix`] (the `sf_at` result) in the codec's
/// matrix layout — the same bytes as [`tgs_core::encode_matrix`].
pub fn enc_matrix(m: &DenseMatrix) -> Vec<u8> {
    encode(|w| w.matrix(m))
}

/// Decodes [`enc_matrix`].
pub fn dec_matrix(payload: &[u8]) -> Result<DenseMatrix, String> {
    decode(payload, |r| Ok(r.matrix("matrix")?))
}

/// Metadata reported by a `tgs shard` server (the `SERVER_INFO` reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// The `--range lo..hi` the operator declared at launch, if any.
    pub range: Option<(usize, usize)>,
    /// Live engine slots on the server.
    pub slots: usize,
}

/// Encodes a [`ServerInfo`]: the optional range (presence byte, then
/// `lo`, `hi`), then the slot count.
pub(crate) fn enc_server_info(info: &ServerInfo) -> Vec<u8> {
    encode(|w| {
        match info.range {
            Some((lo, hi)) => {
                w.u8(1);
                w.usize(lo);
                w.usize(hi);
            }
            None => w.u8(0),
        }
        w.usize(info.slots);
    })
}

/// Decodes [`enc_server_info`].
pub(crate) fn dec_server_info(payload: &[u8]) -> Result<ServerInfo, String> {
    decode(payload, |r| {
        let range = match r.u8("range tag")? {
            0 => None,
            1 => Some((r.usize("range lo")?, r.usize("range hi")?)),
            t => return Err(format!("bad range tag {t}")),
        };
        Ok(ServerInfo {
            range,
            slots: r.usize("slot count")?,
        })
    })
}

// --- error codec ----------------------------------------------------

// Wire tags for TgsError variants that must survive the trip intact.
// Tag 0 is the catch-all: any variant without a dedicated tag crosses
// as its Display string and decodes as InvalidArgument.
const ERR_GENERIC: u8 = 0;
const ERR_INVALID_CONFIG: u8 = 1;
const ERR_ENGINE_CLOSED: u8 = 2;
const ERR_SNAPSHOT_UNAVAILABLE: u8 = 3;
const ERR_UNKNOWN_USER: u8 = 4;
const ERR_CORRUPT_CHECKPOINT: u8 = 5;
const ERR_IO: u8 = 6;
const ERR_INVALID_ARGUMENT: u8 = 7;
const ERR_NET: u8 = 8;
const ERR_STALE_TOPOLOGY: u8 = 9;

/// Encodes a [`TgsError`] for a `STATUS_ERR` response. The variants
/// clients dispatch on — [`TgsError::StaleTopology`] above all, the
/// rejection a client routing with a stale map must be able to match
/// on — round-trip exactly; everything else degrades to its display
/// string.
pub fn enc_error(e: &TgsError) -> Vec<u8> {
    encode(|w| match e {
        TgsError::InvalidConfig { message, .. } => {
            w.u8(ERR_INVALID_CONFIG);
            w.str(message);
        }
        TgsError::EngineClosed => w.u8(ERR_ENGINE_CLOSED),
        TgsError::SnapshotUnavailable { timestamp } => {
            w.u8(ERR_SNAPSHOT_UNAVAILABLE);
            w.u64(*timestamp);
        }
        TgsError::UnknownUser { user } => {
            w.u8(ERR_UNKNOWN_USER);
            w.usize(*user);
        }
        TgsError::CorruptCheckpoint { detail } => {
            w.u8(ERR_CORRUPT_CHECKPOINT);
            w.str(detail);
        }
        TgsError::Io { context, source } => {
            w.u8(ERR_IO);
            w.str(context);
            w.str(&source.to_string());
        }
        TgsError::InvalidArgument { message } => {
            w.u8(ERR_INVALID_ARGUMENT);
            w.str(message);
        }
        TgsError::Net { peer, detail } => {
            w.u8(ERR_NET);
            w.str(peer);
            w.str(detail);
        }
        TgsError::StaleTopology { have, current } => {
            w.u8(ERR_STALE_TOPOLOGY);
            w.u64(*have);
            w.u64(*current);
        }
        other => {
            w.u8(ERR_GENERIC);
            w.str(&other.to_string());
        }
    })
}

/// Decodes [`enc_error`]. A malformed error payload itself decodes as a
/// [`TgsError::Net`] against `peer`.
pub(crate) fn dec_error(payload: &[u8], peer: &str) -> TgsError {
    match try_dec_error(payload) {
        Ok(e) => e,
        Err(detail) => TgsError::net(peer, format!("malformed error response: {detail}")),
    }
}

fn try_dec_error(payload: &[u8]) -> Result<TgsError, String> {
    decode(payload, |r| {
        Ok(match r.u8("error tag")? {
            ERR_GENERIC => TgsError::invalid_argument(r.str("error message")?),
            ERR_INVALID_CONFIG => TgsError::InvalidConfig {
                field: "remote",
                message: r.str("config message")?,
            },
            ERR_ENGINE_CLOSED => TgsError::EngineClosed,
            ERR_SNAPSHOT_UNAVAILABLE => TgsError::SnapshotUnavailable {
                timestamp: r.u64("timestamp")?,
            },
            ERR_UNKNOWN_USER => TgsError::UnknownUser {
                user: r.usize("user")?,
            },
            ERR_CORRUPT_CHECKPOINT => TgsError::corrupt(r.str("detail")?),
            ERR_IO => {
                let context = r.str("io context")?;
                let detail = r.str("io detail")?;
                TgsError::io(context, std::io::Error::other(detail))
            }
            ERR_INVALID_ARGUMENT => TgsError::invalid_argument(r.str("message")?),
            ERR_NET => {
                let peer = r.str("net peer")?;
                TgsError::net(peer, r.str("net detail")?)
            }
            ERR_STALE_TOPOLOGY => TgsError::StaleTopology {
                have: r.u64("have generation")?,
                current: r.u64("current generation")?,
            },
            t => return Err(format!("unknown error tag {t}")),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgs_core::TgsErrorKind;

    /// One request per opcode, in opcode order.
    fn one_of_each() -> Vec<Op<'static>> {
        let mut snapshot = EngineSnapshot::new(17);
        snapshot.push_text(3, "great game tonight");
        vec![
            Op::Ping {},
            Op::Init {
                section: b"section",
            },
            Op::Ingest {
                generation: 4,
                snapshot,
            },
            Op::Flush {},
            Op::Stats {},
            Op::Timestamps {},
            Op::Timeline {
                generation: 4,
                lo: 1,
                hi: 9,
            },
            Op::LatestTimestamp { generation: 4 },
            Op::UserSentiment {
                generation: 4,
                user: 2,
                at: 9,
            },
            Op::UserTimeline {
                generation: 4,
                user: 2,
            },
            Op::KnownUsers { generation: 4 },
            Op::ClusterSummary {
                generation: 4,
                t: 9,
            },
            Op::SfAt {
                generation: 4,
                t: 9,
            },
            Op::K {},
            Op::VocabTokens {},
            Op::UserFactor { user: 2 },
            Op::CheckpointSection {},
            Op::ExportUsers { lo: 1, hi: 5 },
            Op::ImportUsers { users: b"users" },
            Op::SpawnSibling {},
            Op::AbsorbSection { section: b"donor" },
            Op::SetGeneration { floor: 6 },
            Op::ShutdownSlot {},
            Op::Terminate {},
            Op::ServerInfo {},
            Op::CheckpointBase {},
            Op::DeltaSince { base_id: 3 },
        ]
    }

    #[test]
    fn every_request_roundtrips_through_its_frame_fields() {
        let ops = one_of_each();
        assert_eq!(ops.len(), OPCODES.len());
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(usize::from(op.opcode()), i, "{op:?}");
            let payload = op.payload();
            let back = Op::decode(op.opcode(), op.generation(), &payload).expect("decodes");
            assert_eq!(&back, op);
        }
        // Exactly the eight data-plane transport calls carry a generation.
        assert_eq!(ops.iter().filter(|op| op.generation() != 0).count(), 8);
        let err = Op::decode(OPCODES.len() as u8, 0, &[]).expect_err("unknown opcode");
        assert_eq!(err.kind(), TgsErrorKind::InvalidArgument);
        let err = Op::decode(6, 0, &[1, 2, 3]).expect_err("short timeline payload");
        assert!(err.to_string().contains("bad request payload"), "{err}");
        let err = Op::decode(3, 0, &[0]).expect_err("flush takes no payload");
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn opcode_table_is_numbered_in_order_with_the_protocol_retry_classes() {
        for (i, &(code, _)) in OPCODES.iter().enumerate() {
            assert_eq!(usize::from(code), i, "rows are numbered in order");
        }
        let once: Vec<&str> = one_of_each()
            .iter()
            .filter(|op| op.retry() == Retry::OnceOnly)
            .map(|op| OPCODES[usize::from(op.opcode())].1)
            .collect();
        assert_eq!(
            once,
            [
                "init",
                "ingest",
                "export_users",
                "import_users",
                "spawn_sibling",
                "absorb_section"
            ]
        );
        assert_eq!(opcode_named("delta_since"), Some(26));
        assert_eq!(opcode_named("warp"), None);
    }

    #[test]
    fn scalar_codecs_roundtrip() {
        assert_eq!(dec_u64(&enc_u64(42)).unwrap(), 42);
        assert_eq!(dec_opt_u64(&enc_opt_u64(None)).unwrap(), None);
        assert_eq!(dec_opt_u64(&enc_opt_u64(Some(7))).unwrap(), Some(7));
        assert_eq!(dec_u64s(&enc_u64s(&[3, 1, 4])).unwrap(), vec![3, 1, 4]);
        let words = vec!["good".to_string(), "bad".to_string()];
        assert_eq!(dec_strs(&enc_strs(&words)).unwrap(), words);
        let factor = Some(vec![0.25, 0.75]);
        assert_eq!(dec_opt_f64s(&enc_opt_f64s(&factor)).unwrap(), factor);
        assert_eq!(dec_opt_f64s(&enc_opt_f64s(&None)).unwrap(), None);
    }

    #[test]
    fn snapshot_codec_roundtrips_both_content_kinds() {
        let mut s = EngineSnapshot::new(17);
        s.push_text(3, "great game tonight");
        s.push_tokens(5, vec!["great".to_string(), "game".to_string()]);
        s.push_retweet(5, 0);
        s.ghosts.push((9, vec![0.5, 0.25, 0.25]));
        let back = dec_snapshot(&enc_snapshot(&s)).unwrap();
        assert_eq!(back.timestamp, 17);
        assert_eq!(back.docs.len(), 2);
        assert_eq!(back.docs[0].user, 3);
        assert!(matches!(&back.docs[0].content, DocContent::Raw(t) if t == "great game tonight"));
        assert!(matches!(&back.docs[1].content, DocContent::Tokens(t) if t.len() == 2));
        assert_eq!(back.retweets[0], EngineRetweet { user: 5, doc: 0 });
        assert_eq!(back.ghosts, vec![(9, vec![0.5, 0.25, 0.25])]);
    }

    #[test]
    fn aggregate_codecs_roundtrip() {
        let entry = TimelineEntry {
            timestamp: 5,
            tweets: 10,
            users: 4,
            new_users: 1,
            evolving_users: 2,
            iterations: 12,
            converged: true,
            objective: 1.25e-3,
            tweet_counts: vec![6, 3, 1],
            user_counts: vec![2, 1, 1],
        };
        assert_eq!(
            dec_timeline(&enc_timeline(std::slice::from_ref(&entry))).unwrap(),
            vec![entry]
        );

        let sentiment = UserSentiment {
            user: 9,
            timestamp: 5,
            distribution: vec![0.1, 0.2, 0.7],
        };
        assert_eq!(
            dec_user_sentiment(&enc_user_sentiment(&sentiment)).unwrap(),
            sentiment
        );

        let history = vec![(1u64, vec![0.5, 0.5]), (2, vec![0.75, 0.25])];
        assert_eq!(
            dec_user_timeline(&enc_user_timeline(&history)).unwrap(),
            history
        );

        let summary = ClusterSummary {
            timestamp: 2,
            tweet_counts: vec![1, 2],
            user_counts: vec![1, 1],
            tweet_shares: vec![1.0 / 3.0, 2.0 / 3.0],
        };
        assert_eq!(
            dec_cluster_summary(&enc_cluster_summary(&summary)).unwrap(),
            summary
        );
    }

    #[test]
    fn stats_codec_pins_simd_to_known_tiers() {
        let mut step_hist = LatencyHistogram::new();
        step_hist.record(900);
        step_hist.record(1 << 22);
        step_hist.add_shed(9);
        let stats = EngineStats {
            queued: 1,
            ingested: 2,
            dropped_capacity: 3,
            last_step_ns: 4,
            step_hist,
            ghost_edges: 5,
            dropped_cross_shard: 6,
            shard_unavailable: 7,
            simd: "avx2+fma",
            threads: 8,
            pinned: true,
            respawns: 9,
            replayed_docs: 10,
            degraded_queries: 11,
        };
        assert_eq!(dec_stats(&enc_stats(&stats)).unwrap(), stats);
        // An unknown tier name degrades to "" instead of failing.
        let mut w = Writer::new();
        for v in 1..=8u64 {
            w.u64(v);
        }
        w.u8(0);
        w.str("quantum");
        w.u64(0); // histogram shed
        w.u64(0); // histogram bucket count
        assert_eq!(dec_stats(&w.finish()).unwrap().simd, "");
        // An implausible bucket count is rejected before allocation.
        let mut w = Writer::new();
        for v in 1..=8u64 {
            w.u64(v);
        }
        w.u8(0);
        w.str("scalar");
        w.u64(0);
        w.u64(u64::MAX);
        assert!(dec_stats(&w.finish()).is_err());
    }

    #[test]
    fn stats_codec_histogram_survives_bucket_count_revisions() {
        // A peer built with fewer buckets zero-fills; one with more
        // clamps its tail into the last bucket — counts never vanish.
        let mut w = Writer::new();
        for v in 1..=8u64 {
            w.u64(v);
        }
        w.u8(1);
        w.str("scalar");
        w.u64(2); // shed
        w.u64(3); // short bucket list
        w.u64(10);
        w.u64(20);
        w.u64(30);
        let s = dec_stats(&w.finish()).unwrap();
        assert_eq!(s.step_hist.count(), 60);
        assert_eq!(s.step_hist.shed(), 2);
        assert_eq!(s.step_hist.buckets()[2], 30);
        // The payload above ends at the histogram — the optional
        // recovery-counter tail is absent and must decode as zeros.
        assert_eq!(s.respawns, 0);
        assert_eq!(s.replayed_docs, 0);
        assert_eq!(s.degraded_queries, 0);
    }

    #[test]
    fn matrix_codec_roundtrips_bit_exactly() {
        let m = DenseMatrix::from_vec(2, 3, vec![1.0, 0.5, 0.25, -0.0, f64::MIN_POSITIVE, 9.75])
            .unwrap();
        let back = dec_matrix(&enc_matrix(&m)).unwrap();
        assert_eq!((back.rows(), back.cols()), (2, 3));
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(dec_matrix(&enc_matrix(&m)[..10]).is_err());
    }

    #[test]
    fn error_codec_preserves_dispatchable_variants() {
        let stale = TgsError::StaleTopology {
            have: 2,
            current: 5,
        };
        match dec_error(&enc_error(&stale), "p") {
            TgsError::StaleTopology {
                have: 2,
                current: 5,
            } => {}
            other => panic!("stale topology mangled: {other}"),
        }
        let unknown = TgsError::UnknownUser { user: 42 };
        assert!(matches!(
            dec_error(&enc_error(&unknown), "p"),
            TgsError::UnknownUser { user: 42 }
        ));
        let missing = TgsError::SnapshotUnavailable { timestamp: 11 };
        assert!(matches!(
            dec_error(&enc_error(&missing), "p"),
            TgsError::SnapshotUnavailable { timestamp: 11 }
        ));
        let net = TgsError::net("10.0.0.9:4000", "refused");
        assert_eq!(dec_error(&enc_error(&net), "p").kind(), TgsErrorKind::Net);
        // A shape error has no dedicated tag: it crosses as its message.
        let shape = TgsError::FeatureDimMismatch {
            xp_cols: 3,
            xu_cols: 4,
        };
        let decoded = dec_error(&enc_error(&shape), "p");
        assert_eq!(decoded.kind(), TgsErrorKind::InvalidArgument);
        assert!(decoded.to_string().contains("feature space"));
        // Garbage decodes as a Net error against the peer, not a panic.
        assert_eq!(dec_error(&[250, 0, 1], "peer-x").kind(), TgsErrorKind::Net);
    }
}
