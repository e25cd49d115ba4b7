//! The remote [`ShardTransport`]: one lazily-dialed TCP connection per
//! shard slot, with bounded reconnect/backoff and per-call timeouts so
//! a dropped peer surfaces as a typed [`TgsError::Net`] instead of a
//! hang or a panic.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tgs_core::TgsError;
use tgs_engine::{
    ClusterSummary, EngineSnapshot, EngineStats, ShardTransport, TimelineEntry, UserSentiment,
};
use tgs_linalg::DenseMatrix;

use crate::fault::{splitmix, FaultKind, FaultPolicy};
use crate::frame::{read_response, write_request, STATUS_ERR, STATUS_OK};
use crate::wire::{self, Op, Retry, ServerInfo};

/// Timeouts and retry budget for one [`TcpShard`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Budget for establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Read/write budget per wire call, shared by request and response.
    pub io_timeout: Duration,
    /// Dial (and, for idempotent calls, resend) attempts per call.
    pub reconnect_attempts: u32,
    /// Backoff before the first retry; doubles each further attempt,
    /// with the actual sleep drawn from `[backoff/2, backoff]` off a
    /// seeded per-handle stream so fleet-wide reconnects desynchronize.
    pub backoff_base: Duration,
    /// Total wall-clock budget across all retries of one call: once a
    /// call has been failing this long, the next retry is abandoned and
    /// the last error surfaces instead.
    pub retry_deadline: Duration,
    /// Seed for the backoff-jitter stream. Mixed with the handle's
    /// address and slot so no two handles share a schedule.
    pub jitter_seed: u64,
    /// Fault-injection schedule (tests and chaos drills only). The
    /// default picks this up from the `TGS_FAULTS` environment variable.
    pub faults: Option<FaultPolicy>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(10),
            reconnect_attempts: 3,
            backoff_base: Duration::from_millis(50),
            retry_deadline: Duration::from_secs(30),
            jitter_seed: 0xA5A5_5EED_0F0F_77C3,
            faults: FaultPolicy::from_env(),
        }
    }
}

/// Bounded retries with seeded jitter: the one backoff schedule behind
/// [`TcpShard`]'s calls and supervised recovery. The wait before retry
/// `n` is drawn from `[b/2, b]` with `b = base·2ⁿ⁻¹`, off a counter-based
/// stream, so handles seeded differently never retry in lockstep.
pub(crate) struct Backoff {
    base: Duration,
    attempts: u32,
    deadline: Duration,
    /// Counter behind the jitter stream.
    draws: AtomicU64,
}

impl Backoff {
    pub(crate) fn new(base: Duration, attempts: u32, deadline: Duration, seed: u64) -> Self {
        Self {
            base,
            attempts,
            deadline,
            draws: AtomicU64::new(seed),
        }
    }

    /// Runs `attempt` until it succeeds or fails with `retry == false`,
    /// it has run `attempts` times, or the next wait would end past
    /// `deadline` after the first attempt began. The last error
    /// surfaces.
    pub(crate) fn run<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, (bool, TgsError)>,
    ) -> Result<T, TgsError> {
        let started = Instant::now();
        let mut backoff = self.base;
        let mut tries = 0u32;
        loop {
            let (retry, err) = match attempt() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            tries += 1;
            if !retry || tries >= self.attempts.max(1) {
                return Err(err);
            }
            let wait = self.jittered(backoff);
            if started.elapsed() + wait >= self.deadline {
                return Err(err);
            }
            std::thread::sleep(wait);
            backoff = backoff.saturating_mul(2);
        }
    }

    /// A wait drawn uniformly from `[backoff/2, backoff]`.
    fn jittered(&self, backoff: Duration) -> Duration {
        let nanos = u64::try_from(backoff.as_nanos()).unwrap_or(u64::MAX);
        let half = nanos / 2;
        let draw = splitmix(self.draws.fetch_add(1, Ordering::Relaxed));
        Duration::from_nanos(half + draw % (nanos - half + 1))
    }
}

/// FNV-1a over a handle's address bytes, mixed into its jitter seed so
/// handles dialing different servers never share a backoff schedule.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A TCP [`ShardTransport`] handle addressing one engine slot on a
/// `tgs shard` server. Cloneable via `Arc`; the connection is dialed
/// lazily on first use and re-dialed (with bounded backoff) after a
/// failure, so constructing a handle before its server is up is fine.
pub struct TcpShard {
    addr: String,
    slot: u64,
    cfg: NetConfig,
    conn: Mutex<Option<TcpStream>>,
    /// Retry schedule; its jitter stream is keyed by address and slot.
    backoff: Backoff,
    /// Counter behind the fault-decision stream. Keyed by the policy
    /// seed and the slot only — never the address, whose ephemeral port
    /// would change between runs and break chaos-run determinism.
    fault_rng: AtomicU64,
}

impl TcpShard {
    /// A handle to `slot` on the server at `addr` (no IO happens here).
    pub fn new(addr: impl Into<String>, slot: u64, cfg: NetConfig) -> Self {
        let addr = addr.into();
        let backoff = Backoff::new(
            cfg.backoff_base,
            cfg.reconnect_attempts,
            cfg.retry_deadline,
            cfg.jitter_seed ^ fnv1a(addr.as_bytes()) ^ slot.rotate_left(17),
        );
        let fault_base = cfg
            .faults
            .as_ref()
            .map(|p| splitmix(p.seed ^ slot.wrapping_mul(0x9E37_79B9)))
            .unwrap_or(0);
        Self {
            addr,
            slot,
            cfg,
            conn: Mutex::new(None),
            backoff,
            fault_rng: AtomicU64::new(fault_base),
        }
    }

    /// A handle to slot 0 with default timeouts.
    pub fn connect(addr: impl Into<String>) -> Self {
        Self::new(addr, 0, NetConfig::default())
    }

    /// The server address this handle dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The engine slot this handle addresses.
    pub(crate) fn slot(&self) -> u64 {
        self.slot
    }

    /// Drops the cached connection so the next call dials fresh. Used
    /// by fleet tooling that knows the peer is about to restart: closing
    /// client-side first leaves the TIME_WAIT on this end's ephemeral
    /// port, keeping the server's listen port immediately rebindable.
    pub fn disconnect(&self) {
        *self.conn.lock() = None;
    }

    fn net_err(&self, detail: impl Into<String>) -> TgsError {
        TgsError::net(self.peer(), detail.into())
    }

    /// Next value of the seeded fault-decision stream.
    fn next_fault_draw(&self) -> u64 {
        splitmix(self.fault_rng.fetch_add(1, Ordering::Relaxed))
    }

    /// Consults the configured [`FaultPolicy`] for one call. `Ok(None)`
    /// means proceed normally (possibly after an injected delay); the
    /// other arms short-circuit `attempt` with the injected outcome.
    #[allow(clippy::type_complexity)]
    fn inject_fault(&self, opcode: u8) -> Result<Option<(u8, Vec<u8>)>, (bool, TgsError)> {
        let Some(policy) = self.cfg.faults.as_ref() else {
            return Ok(None);
        };
        match policy.decide(opcode, || self.next_fault_draw()) {
            None => Ok(None),
            Some(FaultKind::Delay) => {
                std::thread::sleep(policy.delay);
                Ok(None)
            }
            Some(FaultKind::Drop) => {
                // Connection lost before the request left: provably
                // unsent, so the retry loop may transparently resend.
                *self.conn.lock() = None;
                Err((
                    false,
                    self.net_err("injected fault: connection dropped before send"),
                ))
            }
            Some(FaultKind::ErrorReply) => Ok(Some((
                STATUS_ERR,
                wire::enc_error(&self.net_err("injected fault: synthetic error reply")),
            ))),
            Some(FaultKind::Truncate) => {
                let mut guard = self.conn.lock();
                if guard.is_none() {
                    *guard = Some(self.dial().map_err(|e| (false, e))?);
                }
                let stream = guard.as_mut().expect("dialed above");
                // Half a length prefix, then hang up: real bytes hit the
                // socket but can never parse as a request. Reported as
                // `sent` so non-idempotent calls escalate to supervision
                // instead of retrying.
                let _ = std::io::Write::write_all(stream, &[0x02, 0x00]);
                *guard = None;
                Err((
                    true,
                    self.net_err("injected fault: request frame truncated mid-write"),
                ))
            }
        }
    }

    fn dial(&self) -> Result<TcpStream, TgsError> {
        let mut last = None;
        for addr in std::net::ToSocketAddrs::to_socket_addrs(self.addr.as_str())
            .map_err(|e| self.net_err(format!("cannot resolve address: {e}")))?
        {
            match TcpStream::connect_timeout(&addr, self.cfg.connect_timeout) {
                Ok(stream) => {
                    stream
                        .set_nodelay(true)
                        .map_err(|e| self.net_err(format!("cannot set TCP_NODELAY: {e}")))?;
                    stream
                        .set_read_timeout(Some(self.cfg.io_timeout))
                        .and_then(|()| stream.set_write_timeout(Some(self.cfg.io_timeout)))
                        .map_err(|e| self.net_err(format!("cannot set IO timeouts: {e}")))?;
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(self.net_err(match last {
            Some(e) => format!("connect failed: {e}"),
            None => "address resolved to nothing".to_string(),
        }))
    }

    /// One attempt: reuse or dial a connection, write the request, read
    /// the response. On failure reports whether the request frame had
    /// been fully written (`sent`) — a partially-written frame can never
    /// be parsed as a request, so `sent == false` is always retry-safe.
    fn attempt(
        &self,
        opcode: u8,
        generation: u64,
        payload: &[u8],
    ) -> Result<(u8, Vec<u8>), (bool, TgsError)> {
        if let Some(reply) = self.inject_fault(opcode)? {
            return Ok(reply);
        }
        let mut guard = self.conn.lock();
        if guard.is_none() {
            *guard = Some(self.dial().map_err(|e| (false, e))?);
        }
        let stream = guard.as_mut().expect("dialed above");
        if let Err(e) = write_request(stream, opcode, generation, self.slot, payload) {
            *guard = None;
            return Err((false, self.net_err(format!("send failed: {e}"))));
        }
        match read_response(stream) {
            Ok(reply) => Ok(reply),
            Err(e) => {
                *guard = None;
                Err((true, self.net_err(format!("receive failed: {e}"))))
            }
        }
    }

    /// Sends `op` with bounded reconnect/backoff, decodes the status,
    /// and hands the `STATUS_OK` payload to `parse`.
    fn call<T>(
        &self,
        op: Op<'_>,
        parse: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<T, TgsError> {
        let (opcode, generation, payload) = (op.opcode(), op.generation(), op.payload());
        let replayable = op.retry() == Retry::Idempotent;
        let (status, body) = self.backoff.run(|| {
            self.attempt(opcode, generation, &payload)
                .map_err(|(sent, e)| (!sent || replayable, e))
        })?;
        match status {
            STATUS_OK => parse(&body).map_err(|d| self.net_err(format!("malformed response: {d}"))),
            STATUS_ERR => Err(wire::dec_error(&body, &self.peer())),
            other => Err(self.net_err(format!("unknown response status {other}"))),
        }
    }

    // --- server-management verbs (not part of ShardTransport) ---

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), TgsError> {
        self.call(Op::Ping {}, |_| Ok(()))
    }

    /// Creates this handle's slot on the server from a single-engine
    /// checkpoint section. Fails if the slot already exists.
    pub fn init(&self, section: &[u8]) -> Result<(), TgsError> {
        self.call(Op::Init { section }, |_| Ok(()))
    }

    /// Asks the server process to stop accepting and exit its serve
    /// loop after responding.
    pub fn terminate(&self) -> Result<(), TgsError> {
        self.call(Op::Terminate {}, |_| Ok(()))
    }

    /// Server metadata: the declared user range (if any) and how many
    /// slots are live.
    pub fn server_info(&self) -> Result<ServerInfo, TgsError> {
        self.call(Op::ServerInfo {}, wire::dec_server_info)
    }
}

impl ShardTransport for TcpShard {
    fn ingest(&self, generation: u64, snapshot: EngineSnapshot) -> Result<(), TgsError> {
        self.call(
            Op::Ingest {
                generation,
                snapshot,
            },
            |_| Ok(()),
        )
    }

    fn timeline(&self, generation: u64, lo: u64, hi: u64) -> Result<Vec<TimelineEntry>, TgsError> {
        self.call(Op::Timeline { generation, lo, hi }, wire::dec_timeline)
    }

    fn latest_timestamp(&self, generation: u64) -> Result<Option<u64>, TgsError> {
        self.call(Op::LatestTimestamp { generation }, wire::dec_opt_u64)
    }

    fn user_sentiment(
        &self,
        generation: u64,
        user: usize,
        at: u64,
    ) -> Result<UserSentiment, TgsError> {
        self.call(
            Op::UserSentiment {
                generation,
                user,
                at,
            },
            wire::dec_user_sentiment,
        )
    }

    fn user_timeline(
        &self,
        generation: u64,
        user: usize,
    ) -> Result<Vec<(u64, Vec<f64>)>, TgsError> {
        self.call(
            Op::UserTimeline { generation, user },
            wire::dec_user_timeline,
        )
    }

    fn known_users(&self, generation: u64) -> Result<usize, TgsError> {
        self.call(Op::KnownUsers { generation }, wire::dec_usize)
    }

    fn cluster_summary(&self, generation: u64, t: u64) -> Result<ClusterSummary, TgsError> {
        self.call(
            Op::ClusterSummary { generation, t },
            wire::dec_cluster_summary,
        )
    }

    fn sf_at(&self, generation: u64, t: u64) -> Result<DenseMatrix, TgsError> {
        self.call(Op::SfAt { generation, t }, wire::dec_matrix)
    }

    fn flush(&self) -> Result<u64, TgsError> {
        self.call(Op::Flush {}, wire::dec_u64)
    }

    fn stats(&self) -> Result<EngineStats, TgsError> {
        self.call(Op::Stats {}, wire::dec_stats)
    }

    fn timestamps(&self) -> Result<Vec<u64>, TgsError> {
        self.call(Op::Timestamps {}, wire::dec_u64s)
    }

    fn k(&self) -> Result<usize, TgsError> {
        self.call(Op::K {}, wire::dec_usize)
    }

    fn vocab_tokens(&self) -> Result<Vec<String>, TgsError> {
        self.call(Op::VocabTokens {}, wire::dec_strs)
    }

    fn user_factor(&self, user: usize) -> Result<Option<Vec<f64>>, TgsError> {
        self.call(Op::UserFactor { user }, wire::dec_opt_f64s)
    }

    fn checkpoint_section(&self) -> Result<Vec<u8>, TgsError> {
        self.call(Op::CheckpointSection {}, |b| Ok(b.to_vec()))
    }

    fn checkpoint_base(&self) -> Result<(u64, Vec<u8>), TgsError> {
        self.call(Op::CheckpointBase {}, wire::dec_id_bytes)
    }

    fn delta_since(&self, base_id: u64) -> Result<Option<Vec<u8>>, TgsError> {
        self.call(Op::DeltaSince { base_id }, wire::dec_opt_bytes)
    }

    fn export_users(&self, lo: usize, hi: usize) -> Result<Vec<u8>, TgsError> {
        self.call(Op::ExportUsers { lo, hi }, |b| Ok(b.to_vec()))
    }

    fn import_users(&self, users: &[u8]) -> Result<(), TgsError> {
        self.call(Op::ImportUsers { users }, |_| Ok(()))
    }

    fn spawn_sibling(&self) -> Result<Arc<dyn ShardTransport>, TgsError> {
        let slot = self.call(Op::SpawnSibling {}, wire::dec_u64)?;
        Ok(Arc::new(TcpShard::new(
            self.addr.clone(),
            slot,
            self.cfg.clone(),
        )))
    }

    fn absorb_section(&self, section: &[u8]) -> Result<(), TgsError> {
        self.call(Op::AbsorbSection { section }, |_| Ok(()))
    }

    fn set_generation(&self, generation: u64) -> Result<(), TgsError> {
        self.call(Op::SetGeneration { floor: generation }, |_| Ok(()))
    }

    fn shutdown(&self) -> Result<(), TgsError> {
        let out = self.call(Op::ShutdownSlot {}, |_| Ok(()));
        self.disconnect();
        out
    }

    fn peer(&self) -> String {
        format!("{}#{}", self.addr, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn test_cfg() -> NetConfig {
        NetConfig {
            connect_timeout: Duration::from_millis(200),
            io_timeout: Duration::from_millis(200),
            reconnect_attempts: 3,
            backoff_base: Duration::from_millis(10),
            retry_deadline: Duration::from_secs(5),
            jitter_seed: 1,
            faults: None,
        }
    }

    #[test]
    fn handles_are_lazy_and_fail_typed_when_no_server_listens() {
        // Port 1 on localhost: nothing listens there; connect refuses
        // fast. The constructor itself must do no IO.
        let shard = TcpShard::new("127.0.0.1:1", 0, test_cfg());
        let started = Instant::now();
        let err = shard.ping().expect_err("no server is listening");
        assert_eq!(err.kind(), tgs_core::TgsErrorKind::Net);
        // Three attempts with two sleeps between them, each jittered
        // into [backoff/2, backoff]: at least 5ms + 10ms of waiting.
        assert!(
            started.elapsed() >= Duration::from_millis(15),
            "backoff must actually wait"
        );
        assert_eq!(shard.peer(), "127.0.0.1:1#0");
    }

    #[test]
    fn retry_deadline_caps_total_backoff() {
        let cfg = NetConfig {
            reconnect_attempts: 1_000,
            backoff_base: Duration::from_millis(20),
            retry_deadline: Duration::from_millis(60),
            ..test_cfg()
        };
        let shard = TcpShard::new("127.0.0.1:1", 0, cfg);
        let started = Instant::now();
        let err = shard.ping().expect_err("no server is listening");
        assert_eq!(err.kind(), tgs_core::TgsErrorKind::Net);
        // 1000 attempts of doubling backoff would take minutes; the
        // deadline must cut the loop off almost immediately.
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "deadline must cap the retry loop"
        );
    }

    #[test]
    fn injected_error_reply_surfaces_typed_without_touching_the_network() {
        let cfg = NetConfig {
            faults: Some(FaultPolicy::parse("*.error=1.0").expect("valid spec")),
            ..test_cfg()
        };
        let shard = TcpShard::new("127.0.0.1:1", 0, cfg);
        let started = Instant::now();
        let err = shard.ping().expect_err("every call draws an error reply");
        assert_eq!(err.kind(), tgs_core::TgsErrorKind::Net);
        assert!(err.to_string().contains("injected fault"), "err: {err}");
        // No dial, no backoff: the reply is synthesized client-side.
        assert!(started.elapsed() < Duration::from_millis(150));
    }

    #[test]
    fn injected_drops_exhaust_the_retry_budget() {
        let cfg = NetConfig {
            reconnect_attempts: 2,
            backoff_base: Duration::from_millis(1),
            faults: Some(FaultPolicy::parse("ingest.drop=1.0").expect("valid spec")),
            ..test_cfg()
        };
        let shard = TcpShard::new("127.0.0.1:1", 0, cfg);
        // A dropped-before-send fault is provably unsent, so even the
        // non-idempotent INGEST retries — and then fails typed once the
        // budget runs out.
        let err = shard
            .ingest(0, tgs_engine::EngineSnapshot::default())
            .expect_err("every attempt drops the connection");
        assert_eq!(err.kind(), tgs_core::TgsErrorKind::Net);
        assert!(
            err.to_string().contains("dropped before send"),
            "err: {err}"
        );
    }
}
