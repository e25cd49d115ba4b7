//! Distributed shard fleet for the tripartite sentiment engine.
//!
//! The multi-shard router in `tgs-engine` drives its workers through
//! the object-safe [`ShardTransport`] seam. This crate supplies the
//! remote half of that seam over plain `std::net` TCP — no async
//! runtime, no serialization framework, no new dependencies:
//!
//! - [`frame`] — the length-prefixed frame layer: `[u32 len][u8
//!   version][u8 opcode][u64 generation][u64 slot][payload]` requests,
//!   `[u32 len][u8 version][u8 status][payload]` responses.
//! - [`wire`] — the opcode table (one declaration per opcode), payload
//!   codecs for every engine value that crosses the wire (snapshots,
//!   timelines, stats, factors, checkpoint sections) plus a
//!   [`TgsError`](tgs_core::TgsError) codec that keeps
//!   dispatch-relevant variants — above all `StaleTopology`, the
//!   rejection a stale-routing client must be able to match on —
//!   intact across the trip.
//! - [`TcpShard`] — the client: one lazily-dialed connection per shard
//!   slot, per-call timeouts, bounded reconnect with doubling backoff,
//!   and retry only where replay is safe. A dead peer surfaces as
//!   [`TgsError::Net`](tgs_core::TgsError::Net), never a panic.
//! - [`ShardServer`] — the `tgs shard` side: a slot-hosting TCP server
//!   whose slots are created over the wire (`INIT` from a checkpoint
//!   section, `SPAWN_SIBLING` during a live split).
//! - [`deploy_fleet`] — the `tgs serve` bootstrap: checkpoint a
//!   deterministic cold local fleet, ship one section per server,
//!   rebuild the router over TCP transports. Restore is exact, so a
//!   loopback fleet is bit-identical to the in-process engine it was
//!   cloned from.
//!
//! Every frame carries the topology generation of the partition map the
//! caller routed with. The router reads its fleet under a lock that a
//! rebalance holds for writing, so it never routes with a stale map;
//! shards still reject stale generations from any client, so one that
//! slept through a rebalance gets a typed error instead of misrouting.
//! The byte-level contract lives in `crates/net/PROTOCOL.md`.
//!
//! On top of the transport sit the robustness layers:
//!
//! - `fault` — deterministic, seeded fault injection
//!   ([`FaultPolicy`], `TGS_FAULTS`) that makes a [`TcpShard`] drop,
//!   delay, truncate, or error-reply with per-opcode probabilities, so
//!   every failure mode is testable in-process and over loopback TCP.
//! - `supervise` — [`SupervisedShard`] wraps each remote handle with
//!   a bounded replay journal and an automatic recovery state machine
//!   (reconnect with capped jittered backoff, re-`INIT` from the last
//!   good checkpoint section, replay in order); [`Supervisor`] adds
//!   periodic fleet-wide checkpoint refreshes and health probes with
//!   consecutive-failure thresholds. [`deploy_supervised`] is the
//!   supervised flavor of [`deploy_fleet`].
//! - [`RouterEndpoint`] — exposes a whole `ShardedEngine` (tgs_engine)
//!   behind the same wire protocol, so `tgs serve --hold` can keep
//!   answering queries after the stream ends.

mod client;
mod fault;
pub mod frame;
mod router;
mod server;
mod supervise;
pub mod wire;

pub use client::{NetConfig, TcpShard};
pub use fault::FaultPolicy;
pub use router::{deploy_fleet, deploy_supervised, RouterEndpoint};
pub use server::ShardServer;
pub use supervise::{SupervisedShard, Supervisor, SupervisorConfig};

// Re-exported so downstream code can name the seam without also
// depending on tgs_engine directly.
pub use tgs_engine::ShardTransport;
pub use wire::ServerInfo;
