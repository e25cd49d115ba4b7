//! The crate-wide error taxonomy.
//!
//! Every fallible library entry point (`try_validate`, `try_solve_offline`,
//! [`crate::OnlineSolver::try_step`], the `tgs-engine` facade, the `tgs`
//! CLI) reports failures as a [`TgsError`]. The taxonomy groups into four
//! families:
//!
//! 1. **Shape violations** — the tripartite matrices disagree on a
//!    dimension ([`TgsError::FeatureDimMismatch`],
//!    [`TgsError::InteractionShapeMismatch`],
//!    [`TgsError::GraphSizeMismatch`], [`TgsError::PriorShapeMismatch`],
//!    [`TgsError::UserIdCountMismatch`]). One variant per cross-matrix
//!    constraint, so callers can react to the exact violated invariant.
//! 2. **Configuration errors** — a solver or engine parameter is out of
//!    its documented domain ([`TgsError::InvalidConfig`]).
//! 3. **Engine lifecycle errors** — the streaming facade's runtime
//!    failures ([`TgsError::EngineClosed`],
//!    [`TgsError::SnapshotUnavailable`], [`TgsError::UnknownUser`],
//!    [`TgsError::CorruptCheckpoint`]).
//! 4. **Front-end errors** — IO and argument problems surfaced by the
//!    CLI ([`TgsError::Io`], [`TgsError::InvalidArgument`]).
//! 5. **Fleet errors** — failures of the distributed shard fleet
//!    ([`TgsError::Net`] for unreachable peers and wire faults,
//!    [`TgsError::StaleTopology`] for requests routed through an
//!    outdated partition map after a rebalance).
//!
//! The legacy panicking entry points (`validate`, `solve_offline`,
//! `OnlineSolver::step`) are retained as thin wrappers that format the
//! same [`TgsError`] into their panic message, so bench binaries and
//! quick scripts keep their ergonomics while library callers get typed
//! errors.

/// Discriminant-only mirror of [`TgsError`], for matching on the error
/// family without destructuring payloads (handy in tests and retry
/// policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TgsErrorKind {
    /// See [`TgsError::FeatureDimMismatch`].
    FeatureDimMismatch,
    /// See [`TgsError::InteractionShapeMismatch`].
    InteractionShapeMismatch,
    /// See [`TgsError::GraphSizeMismatch`].
    GraphSizeMismatch,
    /// See [`TgsError::PriorShapeMismatch`].
    PriorShapeMismatch,
    /// See [`TgsError::UserIdCountMismatch`].
    UserIdCountMismatch,
    /// See [`TgsError::InvalidConfig`].
    InvalidConfig,
    /// See [`TgsError::EngineClosed`].
    EngineClosed,
    /// See [`TgsError::SnapshotUnavailable`].
    SnapshotUnavailable,
    /// See [`TgsError::UnknownUser`].
    UnknownUser,
    /// See [`TgsError::CorruptCheckpoint`].
    CorruptCheckpoint,
    /// See [`TgsError::Io`].
    Io,
    /// See [`TgsError::InvalidArgument`].
    InvalidArgument,
    /// See [`TgsError::Net`].
    Net,
    /// See [`TgsError::StaleTopology`].
    StaleTopology,
}

/// A typed failure from any layer of the tripartite-sentiment stack.
#[derive(Debug)]
#[non_exhaustive]
pub enum TgsError {
    /// `Xu` does not share `Xp`'s feature space (`Xu.cols != Xp.cols`).
    FeatureDimMismatch {
        /// Feature count of `Xp` (`l`).
        xp_cols: usize,
        /// Feature count of `Xu`.
        xu_cols: usize,
    },
    /// `Xr` is not `m × n` (users × tweets).
    InteractionShapeMismatch {
        /// The required `(m, n)` shape.
        expected: (usize, usize),
        /// The shape actually provided.
        got: (usize, usize),
    },
    /// The user graph `Gu` does not cover all `m` users.
    GraphSizeMismatch {
        /// Number of users `m` (rows of `Xu`).
        users: usize,
        /// Node count of the provided graph.
        nodes: usize,
    },
    /// The lexicon prior `Sf0` is not `l × k`.
    PriorShapeMismatch {
        /// The required `(l, k)` shape.
        expected: (usize, usize),
        /// The shape actually provided.
        got: (usize, usize),
    },
    /// `SnapshotData::user_ids` does not provide one global id per local
    /// user row.
    UserIdCountMismatch {
        /// Local user rows in the snapshot (`Xu.rows`).
        rows: usize,
        /// Global ids provided.
        ids: usize,
    },
    /// A configuration field is outside its documented domain.
    InvalidConfig {
        /// The offending field, e.g. `"alpha"`.
        field: &'static str,
        /// Human-readable constraint, e.g. `"alpha must be in [0, 1]"`.
        message: String,
    },
    /// The engine's ingest worker has shut down (or panicked); no further
    /// snapshots can be submitted.
    EngineClosed,
    /// No snapshot is recorded under the requested timestamp (never
    /// ingested, or evicted from the bounded store).
    SnapshotUnavailable {
        /// The requested timestamp.
        timestamp: u64,
    },
    /// The queried user has never been observed at or before the
    /// requested time.
    UnknownUser {
        /// The requested global user id.
        user: usize,
    },
    /// A checkpoint byte stream failed structural validation.
    CorruptCheckpoint {
        /// What went wrong while decoding.
        detail: String,
    },
    /// An IO operation failed.
    Io {
        /// What was being attempted, e.g. `"open corpus.tsv"`.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A user-supplied argument (CLI flag, query parameter, malformed
    /// corpus file) could not be used.
    InvalidArgument {
        /// Human-readable description of the problem.
        message: String,
    },
    /// A network operation against a fleet peer failed (connect, send,
    /// receive, or protocol violation). The peer may be down or
    /// unreachable; the call may be retried once it recovers.
    Net {
        /// The peer address (or role) the operation targeted.
        peer: String,
        /// What went wrong.
        detail: String,
    },
    /// The caller routed through an outdated topology: the request was
    /// stamped with generation `have`, but the shard has already adopted
    /// `current`. Refresh the partition map and retry instead of
    /// misrouting.
    StaleTopology {
        /// The generation the caller routed with.
        have: u64,
        /// The generation the shard is at.
        current: u64,
    },
}

impl TgsError {
    /// The payload-free discriminant of this error.
    pub fn kind(&self) -> TgsErrorKind {
        match self {
            TgsError::FeatureDimMismatch { .. } => TgsErrorKind::FeatureDimMismatch,
            TgsError::InteractionShapeMismatch { .. } => TgsErrorKind::InteractionShapeMismatch,
            TgsError::GraphSizeMismatch { .. } => TgsErrorKind::GraphSizeMismatch,
            TgsError::PriorShapeMismatch { .. } => TgsErrorKind::PriorShapeMismatch,
            TgsError::UserIdCountMismatch { .. } => TgsErrorKind::UserIdCountMismatch,
            TgsError::InvalidConfig { .. } => TgsErrorKind::InvalidConfig,
            TgsError::EngineClosed => TgsErrorKind::EngineClosed,
            TgsError::SnapshotUnavailable { .. } => TgsErrorKind::SnapshotUnavailable,
            TgsError::UnknownUser { .. } => TgsErrorKind::UnknownUser,
            TgsError::CorruptCheckpoint { .. } => TgsErrorKind::CorruptCheckpoint,
            TgsError::Io { .. } => TgsErrorKind::Io,
            TgsError::InvalidArgument { .. } => TgsErrorKind::InvalidArgument,
            TgsError::Net { .. } => TgsErrorKind::Net,
            TgsError::StaleTopology { .. } => TgsErrorKind::StaleTopology,
        }
    }

    /// Convenience constructor for [`TgsError::InvalidArgument`].
    pub fn invalid_argument(message: impl Into<String>) -> Self {
        TgsError::InvalidArgument {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`TgsError::Io`].
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        TgsError::Io {
            context: context.into(),
            source,
        }
    }

    /// Convenience constructor for [`TgsError::Net`].
    pub fn net(peer: impl Into<String>, detail: impl Into<String>) -> Self {
        TgsError::Net {
            peer: peer.into(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for TgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // The shape messages keep the historical assert wording so
            // panic-based call sites (and their tests) stay stable.
            TgsError::FeatureDimMismatch { xp_cols, xu_cols } => write!(
                f,
                "Xu must share Xp's feature space (Xp has {xp_cols} features, Xu has {xu_cols})"
            ),
            TgsError::InteractionShapeMismatch { expected, got } => write!(
                f,
                "Xr must be m × n (expected {}×{}, got {}×{})",
                expected.0, expected.1, got.0, got.1
            ),
            TgsError::GraphSizeMismatch { users, nodes } => write!(
                f,
                "Gu must cover all m users ({nodes} graph nodes for {users} users)"
            ),
            TgsError::PriorShapeMismatch { expected, got } => write!(
                f,
                "Sf0 must be l × k (expected {}×{}, got {}×{})",
                expected.0, expected.1, got.0, got.1
            ),
            TgsError::UserIdCountMismatch { rows, ids } => write!(
                f,
                "one global id per local user row required ({ids} ids for {rows} rows)"
            ),
            TgsError::InvalidConfig { message, .. } => f.write_str(message),
            TgsError::EngineClosed => f.write_str("engine ingest worker has shut down"),
            TgsError::SnapshotUnavailable { timestamp } => {
                write!(f, "no snapshot recorded at timestamp {timestamp}")
            }
            TgsError::UnknownUser { user } => {
                write!(f, "user {user} has no recorded sentiment history")
            }
            TgsError::CorruptCheckpoint { detail } => {
                write!(f, "corrupt checkpoint: {detail}")
            }
            TgsError::Io { context, source } => write!(f, "{context}: {source}"),
            TgsError::InvalidArgument { message } => f.write_str(message),
            TgsError::Net { peer, detail } => {
                write!(f, "network error talking to {peer}: {detail}")
            }
            TgsError::StaleTopology { have, current } => write!(
                f,
                "stale topology: routed with generation {have} but the shard is at {current}"
            ),
        }
    }
}

impl std::error::Error for TgsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TgsError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_historic_wording() {
        let e = TgsError::PriorShapeMismatch {
            expected: (4, 3),
            got: (4, 2),
        };
        assert!(e.to_string().contains("Sf0 must be l × k"));
        let e = TgsError::FeatureDimMismatch {
            xp_cols: 4,
            xu_cols: 5,
        };
        assert!(e.to_string().contains("Xu must share Xp's feature space"));
        let e = TgsError::GraphSizeMismatch { users: 3, nodes: 2 };
        assert!(e.to_string().contains("Gu must cover all m users"));
        let e = TgsError::InteractionShapeMismatch {
            expected: (2, 3),
            got: (3, 2),
        };
        assert!(e.to_string().contains("Xr must be m × n"));
    }

    #[test]
    fn kinds_match_variants() {
        assert_eq!(TgsError::EngineClosed.kind(), TgsErrorKind::EngineClosed);
        assert_eq!(
            TgsError::invalid_argument("x").kind(),
            TgsErrorKind::InvalidArgument
        );
        assert_eq!(
            TgsError::corrupt("truncated").kind(),
            TgsErrorKind::CorruptCheckpoint
        );
        assert_eq!(
            TgsError::net("127.0.0.1:9000", "connection refused").kind(),
            TgsErrorKind::Net
        );
        assert_eq!(
            TgsError::StaleTopology {
                have: 1,
                current: 3
            }
            .kind(),
            TgsErrorKind::StaleTopology
        );
    }

    #[test]
    fn io_errors_expose_source() {
        use std::error::Error as _;
        let e = TgsError::io(
            "open corpus.tsv",
            std::io::Error::new(std::io::ErrorKind::NotFound, "nope"),
        );
        assert!(e.source().is_some());
        assert!(e.to_string().starts_with("open corpus.tsv"));
    }
}
