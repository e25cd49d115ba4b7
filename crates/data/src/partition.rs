//! Elastic user-range sharding of tripartite problems.
//!
//! The paper's co-clustering couples users to tweets and tweets to words,
//! but the user/tweet dimensions dominate (`n ≈ 40k` tweets vs `k = 3`
//! clusters). A [`PartitionMap`] splits the heavy axes into `S` disjoint
//! contiguous user-id ranges — every user, and all the tweets they
//! author, land in exactly one shard — while the *word* axis stays global
//! over the frozen vocabulary, so per-shard factor matrices keep a shared
//! feature space and the small cluster-level factors (`Sf`, `Hp`, `Hu`)
//! remain mergeable across shards.
//!
//! A [`PartitionMap`] carries an **explicit sorted boundary list**, so
//! shard ranges can be reshaped at runtime: a [`RepartitionPlan`]
//! describes split / merge / boundary-move deltas,
//! [`RepartitionPlan::apply`] derives the successor map, and
//! [`PartitionMap::diff`] lists exactly which user ranges change owner —
//! the contract the engine-level live rebalance is built on.
//!
//! Cross-shard re-tweets (user in shard A re-tweeting a document authored
//! in shard B) have two routing modes:
//!
//! * **drop mode** ([`route_docs`]) — the PR-3 behaviour: the edge cannot
//!   be represented once the user axis is partitioned, so it is counted
//!   and dropped;
//! * **ghost mode** ([`route_docs_ghost`]) — the edge follows its
//!   document, and the re-tweeting user materializes as a *ghost row* on
//!   the document's shard: the local `Gu` keeps the edge, the ghost row
//!   carries the remote user's sentiment factor (the engine seeds it at
//!   ingest from the owning shard's committed factor), and the row is
//!   excluded from that shard's ownership and history weighting. No edge
//!   is ever dropped.
//!
//! With `shards = 1` both modes are the identity, which is the basis of
//! the stack-wide "one shard is bit-identical to the unsharded path"
//! guarantee.

/// A malformed [`PartitionMap`] or inapplicable [`RepartitionPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionError(pub String);

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for PartitionError {}

fn err<T>(message: impl Into<String>) -> Result<T, PartitionError> {
    Err(PartitionError(message.into()))
}

/// An explicit contiguous user-range partition: shard `s` owns user ids
/// `[starts[s], starts[s + 1])`, the last shard additionally owns every
/// id `>= universe` (sparse ids first seen after fitting), so
/// [`PartitionMap::shard_of`] is total.
///
/// The boundary list is the *whole* routing state — two maps with equal
/// [`PartitionMap::fingerprint`]s make identical routing decisions — and
/// it is what the v2 multi-shard checkpoint serializes verbatim.
///
/// A map additionally carries a **topology generation** counter: every
/// [`RepartitionPlan::apply`] bumps it by one, and the distributed fleet
/// stamps it into every wire frame so a stale handle routing through an
/// outdated map is rejected with `StaleTopology` instead of silently
/// misrouting. The generation is an *ephemeral routing epoch*, not
/// routing state: it is excluded from equality, from the fingerprint,
/// and from checkpoints (a restored fleet starts a fresh epoch).
#[derive(Debug, Clone, Eq)]
pub struct PartitionMap {
    universe: usize,
    /// Sorted, strictly increasing shard start ids; `starts[0] == 0`.
    starts: Vec<usize>,
    /// Topology epoch; bumped by every applied repartition plan.
    generation: u64,
}

impl PartialEq for PartitionMap {
    /// Routing-state equality: two maps are equal when they make the same
    /// routing decisions. The [`PartitionMap::generation`] epoch is
    /// deliberately ignored — a rebalanced-then-reverted fleet routes
    /// identically to one that never rebalanced.
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe && self.starts == other.starts
    }
}

impl PartitionMap {
    /// A map from an explicit start list. `starts` must begin at 0 and be
    /// strictly increasing; starts at or beyond the universe are legal
    /// (they describe empty shards, e.g. a stride layout over a tiny
    /// universe).
    pub fn new(universe: usize, starts: Vec<usize>) -> Result<Self, PartitionError> {
        if starts.first() != Some(&0) {
            return err("partition map must start at user 0");
        }
        if starts.windows(2).any(|w| w[0] >= w[1]) {
            return err(format!(
                "partition starts must be strictly increasing, got {starts:?}"
            ));
        }
        Ok(Self {
            universe,
            starts,
            generation: 0,
        })
    }

    /// `S` near-equal contiguous ranges over `0..universe`: shard `i`
    /// starts at `i × ⌈max(universe, 1) / S⌉`. Checkpoints of fleets built
    /// with this layout serialize these boundaries, so they must not
    /// change.
    pub fn even(universe: usize, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let stride = universe.max(1).div_ceil(shards);
        let starts = (0..shards).map(|s| s * stride).collect();
        Self::new(universe, starts).expect("stride starts rise strictly from 0")
    }

    /// Number of shards `S`.
    pub fn shards(&self) -> usize {
        self.starts.len()
    }

    /// The user-id universe the map partitions.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The explicit shard start ids (`starts[0] == 0`, strictly
    /// increasing).
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// The topology generation (routing epoch) of this map. Freshly
    /// constructed maps start at 0; every [`RepartitionPlan::apply`]
    /// returns a successor with the epoch bumped by one. Excluded from
    /// equality, [`PartitionMap::fingerprint`], and checkpoints.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The same routing state re-stamped with an explicit generation
    /// (used when adopting a topology announced by a remote router).
    pub(crate) fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// The shard owning `user`. Total: ids beyond every boundary land in
    /// the last shard.
    pub fn shard_of(&self, user: usize) -> usize {
        self.starts.partition_point(|&start| start <= user) - 1
    }

    /// The `[start, end)` user-id range of `shard` within the universe
    /// (the last shard additionally owns every id `>= universe`).
    pub fn range(&self, shard: usize) -> (usize, usize) {
        assert!(
            shard < self.shards(),
            "shard {shard} out of {}",
            self.shards()
        );
        let start = self.starts[shard];
        let end = match self.starts.get(shard + 1) {
            Some(&next) => next.min(self.universe),
            None => self.universe.max(start),
        };
        (start, end)
    }

    /// FNV-1a digest of the routing state (universe + every boundary).
    /// Embedded in the v2 multi-shard checkpoint so a restore cannot
    /// silently re-route users.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = [self.universe as u64, self.starts.len() as u64]
            .into_iter()
            .chain(self.starts.iter().map(|&s| s as u64));
        for word in words {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The user ranges whose owner differs between `self` and `next`,
    /// in ascending order. The final range is open-ended
    /// (`hi == usize::MAX`) when ownership of the ids at and beyond the
    /// last boundary changes — sparse ids beyond the universe follow the
    /// last shard and must migrate with it.
    pub fn diff(&self, next: &PartitionMap) -> Vec<MigrationRange> {
        let mut cuts: Vec<usize> = self
            .starts
            .iter()
            .chain(next.starts.iter())
            .copied()
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut out = Vec::new();
        for (i, &lo) in cuts.iter().enumerate() {
            let hi = cuts.get(i + 1).copied().unwrap_or(usize::MAX);
            let (from, to) = (self.shard_of(lo), next.shard_of(lo));
            if from != to {
                // Coalesce with the previous range when it is contiguous
                // and moves between the same pair of shards.
                if let Some(prev) = out.last_mut() {
                    let prev: &mut MigrationRange = prev;
                    if prev.hi == lo && prev.from == from && prev.to == to {
                        prev.hi = hi;
                        continue;
                    }
                }
                out.push(MigrationRange { lo, hi, from, to });
            }
        }
        out
    }
}

/// One contiguous user range changing owner in a repartition:
/// users `lo..hi` move from shard `from` (index in the old map) to shard
/// `to` (index in the new map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRange {
    /// First migrating user id (inclusive).
    pub lo: usize,
    /// One past the last migrating user id (`usize::MAX` = open-ended).
    pub hi: usize,
    /// Owning shard index in the *old* map.
    pub from: usize,
    /// Owning shard index in the *new* map.
    pub to: usize,
}

/// One topology delta of a [`RepartitionPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepartitionOp {
    /// Split `shard` in two at user id `at` (strictly inside its range):
    /// the left half keeps the shard index, the right half becomes a new
    /// shard at `shard + 1`, later shards shift up.
    Split {
        /// The shard to split.
        shard: usize,
        /// The first user id of the new right-hand shard.
        at: usize,
    },
    /// Merge shard `left` with shard `left + 1` (the boundary between
    /// them disappears; later shards shift down).
    Merge {
        /// The left-hand shard of the merged pair.
        left: usize,
    },
    /// Move the boundary between shards `boundary - 1` and `boundary`
    /// to user id `to` (strictly between the surrounding boundaries).
    MoveBoundary {
        /// Index of the boundary (`1..shards`): the start of shard
        /// `boundary`.
        boundary: usize,
        /// The new start id of shard `boundary`.
        to: usize,
    },
}

/// An ordered list of topology deltas taking one [`PartitionMap`] to a
/// successor. Applying a plan never changes the universe — only which
/// shard owns which range — and [`PartitionMap::diff`] of the two maps
/// lists exactly the user ranges that must migrate. The successor's
/// [`PartitionMap::generation`] is the input's plus one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepartitionPlan {
    /// The deltas, applied in order.
    pub ops: Vec<RepartitionOp>,
}

impl RepartitionPlan {
    /// A plan with a single op.
    pub fn single(op: RepartitionOp) -> Self {
        Self { ops: vec![op] }
    }

    /// Applies every delta in order, validating each against the map it
    /// operates on. The input map is untouched on error.
    pub fn apply(&self, map: &PartitionMap) -> Result<PartitionMap, PartitionError> {
        let mut starts = map.starts.clone();
        let universe = map.universe;
        for op in &self.ops {
            match *op {
                RepartitionOp::Split { shard, at } => {
                    if shard >= starts.len() {
                        return err(format!("split: shard {shard} out of {}", starts.len()));
                    }
                    let lo = starts[shard];
                    let hi = starts.get(shard + 1).copied().unwrap_or(universe);
                    if at <= lo || at >= hi {
                        return err(format!(
                            "split: boundary {at} must lie strictly inside shard {shard}'s \
                             range [{lo}, {hi})"
                        ));
                    }
                    starts.insert(shard + 1, at);
                }
                RepartitionOp::Merge { left } => {
                    if left + 1 >= starts.len() {
                        return err(format!(
                            "merge: shard {left} has no right-hand neighbour (shards = {})",
                            starts.len()
                        ));
                    }
                    starts.remove(left + 1);
                }
                RepartitionOp::MoveBoundary { boundary, to } => {
                    if boundary == 0 || boundary >= starts.len() {
                        return err(format!(
                            "move: boundary {boundary} out of 1..{}",
                            starts.len()
                        ));
                    }
                    let lo = starts[boundary - 1];
                    let hi = starts.get(boundary + 1).copied().unwrap_or(universe);
                    if to <= lo || to >= hi {
                        return err(format!(
                            "move: boundary {boundary} must land strictly inside \
                             ({lo}, {hi}), got {to}"
                        ));
                    }
                    starts[boundary] = to;
                }
            }
        }
        PartitionMap::new(universe, starts).map(|next| next.with_generation(map.generation + 1))
    }
}

/// The routing decision for one document list: which shard every document
/// goes to, per-shard document order, per-shard re-tweets remapped to
/// shard-local document indices, and (in ghost mode) the remote users
/// materialized as ghost rows.
#[derive(Debug, Clone)]
pub struct ShardRouting {
    /// Shard of each input document (index-parallel to the input list).
    pub doc_shard: Vec<usize>,
    /// Per shard: global indices of its documents, in input order.
    pub shard_docs: Vec<Vec<usize>>,
    /// Per shard: `(global user, shard-local doc index)` re-tweets kept
    /// on the shard (in ghost mode this includes cross-shard re-tweets,
    /// whose users appear in [`ShardRouting::shard_ghosts`]).
    pub shard_retweets: Vec<Vec<(usize, usize)>>,
    /// Per shard: sorted, deduplicated global ids of remote users
    /// materialized as ghost rows (empty in drop mode).
    pub shard_ghosts: Vec<Vec<usize>>,
    /// Cross-shard re-tweets that had to be dropped (drop mode only).
    pub dropped_retweets: usize,
    /// Cross-shard re-tweets kept as ghost edges (ghost mode only).
    pub ghost_edges: usize,
}

fn route_docs_impl(
    map: &PartitionMap,
    doc_authors: &[usize],
    retweets: &[(usize, usize)],
    ghosts: bool,
) -> ShardRouting {
    let shards = map.shards();
    let mut doc_shard = Vec::with_capacity(doc_authors.len());
    let mut doc_local = Vec::with_capacity(doc_authors.len());
    let mut shard_docs = vec![Vec::new(); shards];
    for (doc, &author) in doc_authors.iter().enumerate() {
        let s = map.shard_of(author);
        doc_shard.push(s);
        doc_local.push(shard_docs[s].len());
        shard_docs[s].push(doc);
    }
    let mut shard_retweets = vec![Vec::new(); shards];
    let mut shard_ghosts = vec![Vec::new(); shards];
    let mut dropped_retweets = 0;
    let mut ghost_edges = 0;
    for &(user, doc) in retweets {
        assert!(
            doc < doc_authors.len(),
            "retweet references document {doc} but only {} exist",
            doc_authors.len()
        );
        let s = doc_shard[doc];
        if map.shard_of(user) == s {
            shard_retweets[s].push((user, doc_local[doc]));
        } else if ghosts {
            shard_retweets[s].push((user, doc_local[doc]));
            shard_ghosts[s].push(user);
            ghost_edges += 1;
        } else {
            dropped_retweets += 1;
        }
    }
    for ghosts in &mut shard_ghosts {
        ghosts.sort_unstable();
        ghosts.dedup();
    }
    ShardRouting {
        doc_shard,
        shard_docs,
        shard_retweets,
        shard_ghosts,
        dropped_retweets,
        ghost_edges,
    }
}

/// Routes documents (by author) and re-tweets through the partition map,
/// dropping cross-shard re-tweets (the PR-3 behaviour).
///
/// * `doc_authors[i]` — global user id authoring document `i`;
/// * `retweets` — `(global user, global doc index)` events.
///
/// Each document follows its author's shard; a re-tweet follows its
/// *document* and is kept only when the re-tweeting user lives in the
/// same shard (cross-shard interactions are counted in
/// [`ShardRouting::dropped_retweets`]). With one shard, routing is the
/// identity and nothing is dropped.
///
/// # Panics
///
/// Panics when a re-tweet references a document index `>=
/// doc_authors.len()` — like the rest of this crate's assembly surface,
/// routing treats its inputs as pre-validated. Callers holding untrusted
/// snapshots must check the references first and surface a typed error
/// (the `tgs-engine` router does exactly that before calling in).
pub fn route_docs(
    map: &PartitionMap,
    doc_authors: &[usize],
    retweets: &[(usize, usize)],
) -> ShardRouting {
    route_docs_impl(map, doc_authors, retweets, false)
}

/// Like [`route_docs`], but cross-shard re-tweets are *kept* on their
/// document's shard and the remote user is recorded as a ghost row
/// ([`ShardRouting::shard_ghosts`]). No edge is ever dropped
/// (`dropped_retweets == 0`); the kept cross-shard edges are counted in
/// [`ShardRouting::ghost_edges`]. Same panic contract as [`route_docs`].
pub fn route_docs_ghost(
    map: &PartitionMap,
    doc_authors: &[usize],
    retweets: &[(usize, usize)],
) -> ShardRouting {
    route_docs_impl(map, doc_authors, retweets, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_universe_disjointly() {
        for (universe, shards) in [(10, 3), (7, 7), (100, 8), (5, 1), (3, 8)] {
            let p = PartitionMap::even(universe, shards);
            let mut seen = vec![0usize; universe];
            for s in 0..shards {
                let (lo, hi) = p.range(s);
                for (u, count) in seen.iter_mut().enumerate().take(hi).skip(lo) {
                    *count += 1;
                    assert_eq!(p.shard_of(u), s, "user {u} in range of shard {s}");
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "{universe}/{shards}: {seen:?}"
            );
            // ids beyond the universe are owned by the last shard
            assert_eq!(p.shard_of(universe + 1000), shards - 1);
        }
    }

    #[test]
    fn even_map_keeps_the_stride_boundaries() {
        for (universe, shards) in [(10, 3), (7, 7), (100, 8), (5, 1), (3, 8), (1, 4)] {
            let m = PartitionMap::even(universe, shards);
            assert_eq!(m.shards(), shards);
            assert_eq!(m.universe(), universe);
            let stride = universe.max(1).div_ceil(shards);
            let expected: Vec<usize> = (0..shards).map(|i| i * stride).collect();
            assert_eq!(m.starts(), expected, "{universe}/{shards}");
        }
    }

    #[test]
    fn partition_map_rejects_malformed_starts() {
        assert!(PartitionMap::new(10, vec![]).is_err());
        assert!(
            PartitionMap::new(10, vec![1, 5]).is_err(),
            "must start at 0"
        );
        assert!(PartitionMap::new(10, vec![0, 5, 5]).is_err(), "not strict");
        assert!(PartitionMap::new(10, vec![0, 7, 3]).is_err(), "not sorted");
        assert!(PartitionMap::new(10, vec![0, 3, 7]).is_ok());
    }

    #[test]
    fn fingerprint_distinguishes_parameters() {
        let m = PartitionMap::new(100, vec![0, 25, 50]).unwrap();
        assert_eq!(
            m.fingerprint(),
            PartitionMap::new(100, vec![0, 25, 50])
                .unwrap()
                .fingerprint()
        );
        assert_ne!(
            m.fingerprint(),
            PartitionMap::new(100, vec![0, 25, 51])
                .unwrap()
                .fingerprint()
        );
        assert_ne!(
            m.fingerprint(),
            PartitionMap::new(99, vec![0, 25, 50])
                .unwrap()
                .fingerprint()
        );
    }

    #[test]
    fn plan_split_merge_move_roundtrip() {
        let m = PartitionMap::even(100, 2); // starts [0, 50]
        let split = RepartitionPlan::single(RepartitionOp::Split { shard: 1, at: 75 })
            .apply(&m)
            .unwrap();
        assert_eq!(split.starts(), &[0, 50, 75]);
        assert_eq!(split.shard_of(60), 1);
        assert_eq!(split.shard_of(80), 2);
        let moved = RepartitionPlan::single(RepartitionOp::MoveBoundary {
            boundary: 1,
            to: 40,
        })
        .apply(&split)
        .unwrap();
        assert_eq!(moved.starts(), &[0, 40, 75]);
        let merged = RepartitionPlan::single(RepartitionOp::Merge { left: 1 })
            .apply(&moved)
            .unwrap();
        assert_eq!(merged.starts(), &[0, 40]);
        // Invalid deltas are rejected without touching the input.
        assert!(
            RepartitionPlan::single(RepartitionOp::Split { shard: 0, at: 0 })
                .apply(&m)
                .is_err()
        );
        assert!(
            RepartitionPlan::single(RepartitionOp::Split { shard: 1, at: 50 })
                .apply(&m)
                .is_err()
        );
        assert!(RepartitionPlan::single(RepartitionOp::Merge { left: 1 })
            .apply(&m)
            .is_err());
        assert!(
            RepartitionPlan::single(RepartitionOp::MoveBoundary { boundary: 1, to: 0 })
                .apply(&m)
                .is_err()
        );
    }

    #[test]
    fn generation_bumps_on_apply_but_never_affects_equality() {
        let m = PartitionMap::even(100, 2);
        assert_eq!(m.generation(), 0);
        let split = RepartitionPlan::single(RepartitionOp::Split { shard: 1, at: 75 })
            .apply(&m)
            .unwrap();
        assert_eq!(split.generation(), 1);
        let merged = RepartitionPlan::single(RepartitionOp::Merge { left: 1 })
            .apply(&split)
            .unwrap();
        assert_eq!(merged.generation(), 2);
        // Routing state round-tripped: equal (and equal fingerprints)
        // despite the epoch difference.
        assert_eq!(merged, m);
        assert_eq!(merged.fingerprint(), m.fingerprint());
        assert_eq!(m.clone().with_generation(7).generation(), 7);
    }

    #[test]
    fn diff_lists_exactly_the_moved_ranges() {
        let old = PartitionMap::new(100, vec![0, 30, 60]).unwrap();
        let new = PartitionMap::new(100, vec![0, 40, 60]).unwrap();
        assert_eq!(
            old.diff(&new),
            vec![MigrationRange {
                lo: 30,
                hi: 40,
                from: 1,
                to: 0
            }]
        );
        // A split moves the tail of the split shard — including sparse
        // ids beyond the universe, which follow the last shard.
        let split = PartitionMap::new(100, vec![0, 30, 60, 80]).unwrap();
        assert_eq!(
            old.diff(&split),
            vec![MigrationRange {
                lo: 80,
                hi: usize::MAX,
                from: 2,
                to: 3
            }]
        );
        assert!(old.diff(&old).is_empty());
    }

    #[test]
    fn single_shard_routing_is_identity() {
        let p = PartitionMap::even(20, 1);
        let authors = [3, 17, 3, 9];
        let retweets = [(5, 0), (19, 3)];
        for r in [
            route_docs(&p, &authors, &retweets),
            route_docs_ghost(&p, &authors, &retweets),
        ] {
            assert_eq!(r.shard_docs[0], vec![0, 1, 2, 3]);
            assert_eq!(r.shard_retweets[0], vec![(5, 0), (19, 3)]);
            assert_eq!(r.dropped_retweets, 0);
            assert_eq!(r.ghost_edges, 0);
            assert!(r.shard_ghosts[0].is_empty());
        }
    }

    #[test]
    fn cross_shard_retweets_are_dropped_and_counted() {
        let p = PartitionMap::even(4, 2); // users 0,1 -> shard 0; 2,3 -> shard 1
        let authors = [0, 3];
        let retweets = [(1, 0), (2, 0), (3, 1)];
        let r = route_docs(&p, &authors, &retweets);
        assert_eq!(r.shard_docs, vec![vec![0], vec![1]]);
        assert_eq!(r.shard_retweets[0], vec![(1, 0)]);
        assert_eq!(r.shard_retweets[1], vec![(3, 0)]);
        assert_eq!(r.dropped_retweets, 1);
    }

    #[test]
    fn ghost_mode_keeps_cross_shard_retweets() {
        let p = PartitionMap::even(4, 2);
        let authors = [0, 3];
        let retweets = [(1, 0), (2, 0), (3, 1)];
        let r = route_docs_ghost(&p, &authors, &retweets);
        assert_eq!(r.dropped_retweets, 0);
        assert_eq!(r.ghost_edges, 1);
        // User 2 (shard 1) re-tweeted doc 0 (shard 0): the edge stays on
        // shard 0 and user 2 becomes a ghost there.
        assert_eq!(r.shard_retweets[0], vec![(1, 0), (2, 0)]);
        assert_eq!(r.shard_ghosts[0], vec![2]);
        assert!(r.shard_ghosts[1].is_empty());
    }
}
