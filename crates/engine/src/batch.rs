//! Micro-batched ingest: coalesce many small snapshots into one step.
//!
//! The paper's online algorithm assumes one snapshot per time step, but a
//! firehose front end produces a stream of tiny payloads — and every tiny
//! snapshot pays a full tokenize pass, matrix assembly, workspace bind
//! and solver step. [`BatchingIngest`] sits in front of an engine and
//! folds same-bucket snapshots into one pending [`EngineSnapshot`]
//! (documents concatenate, re-tweet indices shift — see
//! [`EngineSnapshot::merge`]), so each solver step amortizes those fixed
//! costs over the whole batch. Because the pending batch *is* the
//! pre-concatenated snapshot, a batched step is bit-identical to
//! ingesting that snapshot directly — no approximation is introduced,
//! only the time-bucket granularity changes.
//!
//! Flushes happen when the stream moves to a new bucket, when the batch
//! reaches [`BatchPolicy::max_docs`], or explicitly.

use tgs_core::TgsError;

use crate::engine::SentimentEngine;
use crate::sharded::ShardedEngine;
use crate::snapshot::EngineSnapshot;

/// When a pending batch is handed to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Timestamps are floored to multiples of this width; snapshots in
    /// the same bucket coalesce into one step stamped by the bucket
    /// floor. Width 1 (the default) coalesces only snapshots that share
    /// a timestamp exactly.
    pub bucket_width: u64,
    /// Flush as soon as the pending batch holds at least this many
    /// documents — bounds per-step latency and memory under bursts.
    pub max_docs: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            bucket_width: 1,
            max_docs: 1024,
        }
    }
}

impl BatchPolicy {
    /// The default policy: coalesce exact-timestamp duplicates only.
    pub fn same_timestamp() -> Self {
        Self::default()
    }

    /// Rejects degenerate knobs (zero bucket width, zero-size batches)
    /// with a message naming the offender.
    pub(crate) fn validate(&self) -> Result<(), TgsError> {
        if self.bucket_width == 0 {
            return Err(TgsError::invalid_argument(
                "batch bucket_width must be >= 1 (timestamps are floored to bucket multiples)",
            ));
        }
        if self.max_docs == 0 {
            return Err(TgsError::invalid_argument(
                "batch max_docs must be >= 1 (a zero-document flush threshold never admits work)",
            ));
        }
        Ok(())
    }

    /// The bucket floor `timestamp` belongs to.
    pub(crate) fn bucket_of(&self, timestamp: u64) -> u64 {
        timestamp - timestamp % self.bucket_width
    }
}

/// Where a coalesced batch goes. Implemented by [`SentimentEngine`]
/// (single worker) and [`ShardedEngine`] (the batch routes per-shard, so
/// the whole fleet amortizes binds), plus references to either — the
/// seam that lets flush-policy tests capture batches without an engine.
pub trait IngestSink {
    /// Non-blocking submit of one assembled batch. `Ok(None)` means
    /// accepted; `Ok(Some(batch))` hands the batch back on a full queue
    /// (shed) so the caller keeps ownership of the data.
    fn try_submit(&self, batch: EngineSnapshot) -> Result<Option<EngineSnapshot>, TgsError>;
}

impl IngestSink for SentimentEngine {
    fn try_submit(&self, batch: EngineSnapshot) -> Result<Option<EngineSnapshot>, TgsError> {
        self.try_ingest_reusable(batch)
    }
}

impl IngestSink for ShardedEngine {
    fn try_submit(&self, batch: EngineSnapshot) -> Result<Option<EngineSnapshot>, TgsError> {
        self.try_ingest(batch)
    }
}

impl<T: IngestSink + ?Sized> IngestSink for &T {
    fn try_submit(&self, batch: EngineSnapshot) -> Result<Option<EngineSnapshot>, TgsError> {
        (**self).try_submit(batch)
    }
}

/// The pending batch: the coalesced snapshot and how many
/// micro-snapshots it holds.
struct Pending {
    batch: EngineSnapshot,
    snapshots: u64,
}

/// A micro-batching front end over an [`IngestSink`].
///
/// Single-producer by design (`submit` takes `&mut self`): one batcher
/// per producer thread, each feeding the shared engine. Callers must
/// [`BatchingIngest::flush`] before flushing/checkpointing the engine —
/// the batcher holds data the engine has not seen, and there is no timer
/// thread to push it.
pub struct BatchingIngest<S: IngestSink> {
    sink: S,
    policy: BatchPolicy,
    pending: Option<Pending>,
    batches_flushed: u64,
    snapshots_coalesced: u64,
}

impl<S: IngestSink> BatchingIngest<S> {
    /// A batcher over `sink` with a validated `policy`.
    pub fn new(sink: S, policy: BatchPolicy) -> Result<Self, TgsError> {
        policy.validate()?;
        Ok(Self::with_policy_unchecked(sink, policy))
    }

    /// Internal constructor for policies already validated (the engine
    /// builders validate at fit time).
    pub(crate) fn with_policy_unchecked(sink: S, policy: BatchPolicy) -> Self {
        Self {
            sink,
            policy,
            pending: None,
            batches_flushed: 0,
            snapshots_coalesced: 0,
        }
    }

    /// Folds one micro-snapshot into the pending batch, flushing first
    /// when the snapshot opens a new bucket and afterwards when the
    /// size policy trips. `Ok(None)` means everything is either pending
    /// or accepted by the sink; `Ok(Some(batch))` returns a batch the
    /// sink shed (full queue) — the caller decides whether to retry it
    /// or drop it.
    ///
    /// Empty snapshots are ignored (the engine skips them without
    /// advancing the stream). Snapshots carrying ghost seeds are
    /// rejected: ghosts are router-injected during fan-out, after
    /// batching, and folding producer-supplied seeds across buckets
    /// would change their meaning.
    pub fn submit(&mut self, snapshot: EngineSnapshot) -> Result<Option<EngineSnapshot>, TgsError> {
        if snapshot.is_empty() {
            return Ok(None);
        }
        if !snapshot.ghosts.is_empty() {
            return Err(TgsError::invalid_argument(
                "batched snapshots must not carry ghost seeds; the shard router injects \
                 ghosts after batching",
            ));
        }
        let bucket = self.policy.bucket_of(snapshot.timestamp);
        let mut shed = None;
        if self
            .pending
            .as_ref()
            .is_some_and(|p| p.batch.timestamp != bucket)
        {
            shed = self.flush()?;
        }
        match self.pending.as_mut() {
            Some(p) => {
                p.batch.merge(snapshot);
                p.snapshots += 1;
            }
            None => {
                let mut batch = snapshot;
                batch.timestamp = bucket;
                self.pending = Some(Pending {
                    batch,
                    snapshots: 1,
                });
            }
        }
        if shed.is_some() {
            // The bucket-change flush shed its batch. The one return
            // slot is taken: running the size valve now could shed the
            // *new* batch too and silently overwrite this one. Leave the
            // new bucket pending — the valve re-fires on the next submit
            // or flush, and no document is ever dropped.
            return Ok(shed);
        }
        let full = self
            .pending
            .as_ref()
            .is_some_and(|p| p.batch.len() >= self.policy.max_docs);
        if full {
            shed = self.flush()?;
        }
        Ok(shed)
    }

    /// Hands the pending batch to the sink regardless of policy.
    /// `Ok(None)` when nothing was pending or the sink accepted;
    /// `Ok(Some(batch))` returns a shed batch to the caller.
    pub fn flush(&mut self) -> Result<Option<EngineSnapshot>, TgsError> {
        let Some(p) = self.pending.take() else {
            return Ok(None);
        };
        let snapshots = p.snapshots;
        let shed = self.sink.try_submit(p.batch)?;
        if shed.is_none() {
            self.batches_flushed += 1;
            self.snapshots_coalesced += snapshots;
        }
        Ok(shed)
    }

    /// Documents currently pending (not yet handed to the sink).
    pub fn pending_docs(&self) -> usize {
        self.pending.as_ref().map_or(0, |p| p.batch.len())
    }

    /// Batches the sink accepted.
    pub fn batches_flushed(&self) -> u64 {
        self.batches_flushed
    }

    /// Micro-snapshots folded into accepted batches.
    pub fn snapshots_coalesced(&self) -> u64 {
        self.snapshots_coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A sink that records every batch and sheds on demand.
    #[derive(Default)]
    struct Capture {
        batches: RefCell<Vec<EngineSnapshot>>,
        shed_next: RefCell<bool>,
    }

    impl IngestSink for Capture {
        fn try_submit(&self, batch: EngineSnapshot) -> Result<Option<EngineSnapshot>, TgsError> {
            if std::mem::take(&mut *self.shed_next.borrow_mut()) {
                return Ok(Some(batch));
            }
            self.batches.borrow_mut().push(batch);
            Ok(None)
        }
    }

    fn snap(ts: u64, users: &[usize]) -> EngineSnapshot {
        let mut s = EngineSnapshot::new(ts);
        for &u in users {
            s.push_tokens(u, vec!["w".into()]);
        }
        s
    }

    #[test]
    fn policy_rejects_degenerate_knobs() {
        assert!(BatchPolicy::default().validate().is_ok());
        let bad = BatchPolicy {
            bucket_width: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = BatchPolicy {
            max_docs: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn bucket_change_flushes_the_previous_batch() {
        let sink = Capture::default();
        let policy = BatchPolicy {
            bucket_width: 4,
            ..Default::default()
        };
        let mut b = BatchingIngest::new(&sink, policy).unwrap();
        b.submit(snap(0, &[1])).unwrap();
        b.submit(snap(3, &[2])).unwrap(); // same bucket [0, 4)
        assert_eq!(b.pending_docs(), 2);
        b.submit(snap(4, &[3])).unwrap(); // new bucket -> previous flushes
        let got = sink.batches.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].timestamp, 0);
        assert_eq!(got[0].len(), 2);
        drop(got);
        b.flush().unwrap();
        assert_eq!(sink.batches.borrow()[1].timestamp, 4);
        assert_eq!(b.batches_flushed(), 2);
        assert_eq!(b.snapshots_coalesced(), 3);
    }

    #[test]
    fn size_threshold_flushes_immediately() {
        let sink = Capture::default();
        let policy = BatchPolicy {
            max_docs: 3,
            ..Default::default()
        };
        let mut b = BatchingIngest::new(&sink, policy).unwrap();
        b.submit(snap(5, &[1, 2])).unwrap();
        assert_eq!(sink.batches.borrow().len(), 0);
        b.submit(snap(5, &[3])).unwrap(); // reaches max_docs
        assert_eq!(sink.batches.borrow().len(), 1);
        assert_eq!(sink.batches.borrow()[0].len(), 3);
        assert_eq!(b.pending_docs(), 0);
    }

    #[test]
    fn shed_batches_come_back_to_the_caller() {
        let sink = Capture::default();
        let mut b = BatchingIngest::new(&sink, BatchPolicy::default()).unwrap();
        b.submit(snap(1, &[1, 2])).unwrap();
        *sink.shed_next.borrow_mut() = true;
        let shed = b.flush().unwrap().expect("sink shed the batch");
        assert_eq!(shed.len(), 2);
        assert_eq!(b.batches_flushed(), 0);
        // The caller can hand it straight back in.
        assert!(b.sink.try_submit(shed).unwrap().is_none());
        assert_eq!(sink.batches.borrow().len(), 1);
    }

    #[test]
    fn retweet_indices_shift_across_merges() {
        let sink = Capture::default();
        let mut b = BatchingIngest::new(&sink, BatchPolicy::default()).unwrap();
        let mut first = snap(2, &[1, 2]);
        first.push_retweet(7, 1);
        let mut second = snap(2, &[3]);
        second.push_retweet(8, 0);
        b.submit(first).unwrap();
        b.submit(second).unwrap();
        b.flush().unwrap();
        let got = sink.batches.borrow();
        assert_eq!(got[0].retweets.len(), 2);
        assert_eq!(got[0].retweets[0].doc, 1);
        assert_eq!(got[0].retweets[1].doc, 2, "index shifted by prior docs");
    }

    #[test]
    fn ghost_seeds_and_empties_are_policed() {
        let sink = Capture::default();
        let mut b = BatchingIngest::new(&sink, BatchPolicy::default()).unwrap();
        assert!(b.submit(EngineSnapshot::new(3)).unwrap().is_none());
        assert_eq!(b.pending_docs(), 0, "empty snapshots are ignored");
        let mut ghosted = snap(3, &[1]);
        ghosted.ghosts.push((9, vec![0.5, 0.5]));
        assert!(b.submit(ghosted).is_err());
    }
}
