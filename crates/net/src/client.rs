//! The remote [`ShardTransport`]: one lazily-dialed TCP connection per
//! shard slot, with bounded reconnect/backoff and per-call timeouts so
//! a dropped peer surfaces as a typed [`TgsError::Net`] instead of a
//! hang or a panic.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tgs_core::codec::{Reader, Writer};
use tgs_core::TgsError;
use tgs_engine::{
    ClusterSummary, EngineSnapshot, EngineStats, ShardTransport, TimelineEntry, UserSentiment,
};
use tgs_linalg::DenseMatrix;

use crate::fault::{splitmix, FaultKind, FaultPolicy};
use crate::frame::{read_response, write_request, STATUS_ERR, STATUS_OK};
use crate::wire::{self, op};

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

/// Whether a failed call may be transparently retried on a fresh
/// connection. Before the request frame is fully written the server
/// cannot have acted, so every call is retry-safe; afterwards only
/// idempotent calls are (a re-sent `ingest` would double-count a
/// snapshot if the first one landed and the response was lost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Retry {
    Idempotent,
    OnceOnly,
}

fn retry_class(opcode: u8) -> Retry {
    match opcode {
        // Pure reads, liveness, and monotone or idempotent control ops.
        op::PING
        | op::FLUSH
        | op::STATS
        | op::TIMESTAMPS
        | op::TIMELINE
        | op::LATEST_TIMESTAMP
        | op::USER_SENTIMENT
        | op::USER_TIMELINE
        | op::KNOWN_USERS
        | op::CLUSTER_SUMMARY
        | op::SF_AT
        | op::K
        | op::VOCAB_TOKENS
        | op::USER_FACTOR
        | op::CHECKPOINT_SECTION
        // Delta ops are idempotent by construction: re-asking the same
        // base id yields an equivalent delta under a fresh mark id, and
        // a lost reply's orphaned mark just ages out of the retention
        // window.
        | op::CHECKPOINT_BASE
        | op::DELTA_SINCE
        | op::SET_GENERATION
        | op::SHUTDOWN_SLOT
        | op::TERMINATE
        | op::SERVER_INFO => Retry::Idempotent,
        // State-mutating calls whose replay would not be a no-op.
        _ => Retry::OnceOnly,
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
    /// Counter behind the backoff-jitter stream (keyed by address+slot).
    jitter: AtomicU64,
    /// Counter behind the fault-decision stream. Keyed by the policy
    /// seed and the slot only — never the address, whose ephemeral port
    /// would change between runs and break chaos-run determinism.
    fault_rng: AtomicU64,
}

impl TcpShard {
    /// A handle to `slot` on the server at `addr` (no IO happens here).
    pub fn new(addr: impl Into<String>, slot: u64, cfg: NetConfig) -> Self {
        let addr = addr.into();
        let jitter_base = cfg.jitter_seed ^ fnv1a(addr.as_bytes()) ^ slot.rotate_left(17);
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
            jitter: AtomicU64::new(jitter_base),
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
    pub fn slot(&self) -> u64 {
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

    /// A sleep drawn uniformly from `[backoff/2, backoff]` off this
    /// handle's seeded jitter stream.
    fn jittered(&self, backoff: Duration) -> Duration {
        let nanos = backoff.as_nanos().min(u128::from(u64::MAX)) as u64;
        let half = nanos / 2;
        let draw = splitmix(self.jitter.fetch_add(1, Ordering::Relaxed));
        Duration::from_nanos(half + draw % (nanos - half + 1))
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

    /// Full call: attempt with bounded reconnect/backoff, decode the
    /// status, and hand the `STATUS_OK` payload to `parse`.
    fn call<T>(
        &self,
        opcode: u8,
        generation: u64,
        payload: &[u8],
        parse: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<T, TgsError> {
        let started = Instant::now();
        let mut backoff = self.cfg.backoff_base;
        let mut attempt_no = 0u32;
        let (status, body) = loop {
            match self.attempt(opcode, generation, payload) {
                Ok(reply) => break reply,
                Err((sent, err)) => {
                    let retryable = !sent || retry_class(opcode) == Retry::Idempotent;
                    attempt_no += 1;
                    if !retryable || attempt_no >= self.cfg.reconnect_attempts.max(1) {
                        return Err(err);
                    }
                    let wait = self.jittered(backoff);
                    // Total-deadline cap: once this call has burned its
                    // wall-clock budget, surface the last error rather
                    // than sleeping into another attempt.
                    if started.elapsed() + wait >= self.cfg.retry_deadline {
                        return Err(err);
                    }
                    std::thread::sleep(wait);
                    backoff = backoff.saturating_mul(2);
                }
            }
        };
        match status {
            STATUS_OK => parse(&body).map_err(|d| self.net_err(format!("malformed response: {d}"))),
            STATUS_ERR => Err(wire::dec_error(&body, &self.peer())),
            other => Err(self.net_err(format!("unknown response status {other}"))),
        }
    }

    // --- server-management verbs (not part of ShardTransport) ---

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), TgsError> {
        self.call(op::PING, 0, &[], |_| Ok(()))
    }

    /// Creates this handle's slot on the server from a single-engine
    /// checkpoint section. Fails if the slot already exists.
    pub fn init(&self, section: &[u8]) -> Result<(), TgsError> {
        self.call(op::INIT, 0, section, |_| Ok(()))
    }

    /// Asks the server process to stop accepting and exit its serve
    /// loop after responding.
    pub fn terminate(&self) -> Result<(), TgsError> {
        self.call(op::TERMINATE, 0, &[], |_| Ok(()))
    }

    /// Server metadata: the declared user range (if any) and how many
    /// slots are live.
    pub fn server_info(&self) -> Result<ServerInfo, TgsError> {
        self.call(op::SERVER_INFO, 0, &[], |body| {
            let mut r = Reader::new(body);
            let range = match r.u8("range tag")? {
                0 => None,
                1 => Some((r.usize("range lo")?, r.usize("range hi")?)),
                t => return Err(format!("bad range tag {t}")),
            };
            let slots = r.usize("slot count")?;
            r.done()?;
            Ok(ServerInfo { range, slots })
        })
    }
}

/// Metadata reported by a `tgs shard` server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// The `--range lo..hi` the operator declared at launch, if any.
    pub range: Option<(usize, usize)>,
    /// Live engine slots on the server.
    pub slots: usize,
}

impl ShardTransport for TcpShard {
    fn ingest(&self, generation: u64, snapshot: EngineSnapshot) -> Result<(), TgsError> {
        self.call(
            op::INGEST,
            generation,
            &wire::enc_snapshot(&snapshot),
            |_| Ok(()),
        )
    }

    fn timeline(&self, generation: u64, lo: u64, hi: u64) -> Result<Vec<TimelineEntry>, TgsError> {
        let mut w = Writer::new();
        w.u64(lo);
        w.u64(hi);
        self.call(op::TIMELINE, generation, &w.finish(), wire::dec_timeline)
    }

    fn latest_timestamp(&self, generation: u64) -> Result<Option<u64>, TgsError> {
        self.call(op::LATEST_TIMESTAMP, generation, &[], wire::dec_opt_u64)
    }

    fn user_sentiment(
        &self,
        generation: u64,
        user: usize,
        at: u64,
    ) -> Result<UserSentiment, TgsError> {
        let mut w = Writer::new();
        w.usize(user);
        w.u64(at);
        self.call(
            op::USER_SENTIMENT,
            generation,
            &w.finish(),
            wire::dec_user_sentiment,
        )
    }

    fn user_timeline(
        &self,
        generation: u64,
        user: usize,
    ) -> Result<Vec<(u64, Vec<f64>)>, TgsError> {
        self.call(
            op::USER_TIMELINE,
            generation,
            &wire::enc_u64(user as u64),
            wire::dec_user_timeline,
        )
    }

    fn known_users(&self, generation: u64) -> Result<usize, TgsError> {
        self.call(op::KNOWN_USERS, generation, &[], |b| {
            wire::dec_u64(b).and_then(|v| {
                usize::try_from(v).map_err(|_| "user count exceeds usize".to_string())
            })
        })
    }

    fn cluster_summary(&self, generation: u64, t: u64) -> Result<ClusterSummary, TgsError> {
        self.call(
            op::CLUSTER_SUMMARY,
            generation,
            &wire::enc_u64(t),
            wire::dec_cluster_summary,
        )
    }

    fn sf_at(&self, generation: u64, t: u64) -> Result<DenseMatrix, TgsError> {
        self.call(op::SF_AT, generation, &wire::enc_u64(t), wire::dec_matrix)
    }

    fn flush(&self) -> Result<u64, TgsError> {
        self.call(op::FLUSH, 0, &[], wire::dec_u64)
    }

    fn stats(&self) -> Result<EngineStats, TgsError> {
        self.call(op::STATS, 0, &[], wire::dec_stats)
    }

    fn timestamps(&self) -> Result<Vec<u64>, TgsError> {
        self.call(op::TIMESTAMPS, 0, &[], wire::dec_u64s)
    }

    fn k(&self) -> Result<usize, TgsError> {
        self.call(op::K, 0, &[], |b| {
            wire::dec_u64(b)
                .and_then(|v| usize::try_from(v).map_err(|_| "k exceeds usize".to_string()))
        })
    }

    fn vocab_tokens(&self) -> Result<Vec<String>, TgsError> {
        self.call(op::VOCAB_TOKENS, 0, &[], wire::dec_strs)
    }

    fn user_factor(&self, user: usize) -> Result<Option<Vec<f64>>, TgsError> {
        self.call(
            op::USER_FACTOR,
            0,
            &wire::enc_u64(user as u64),
            wire::dec_opt_f64s,
        )
    }

    fn checkpoint_section(&self) -> Result<Vec<u8>, TgsError> {
        self.call(op::CHECKPOINT_SECTION, 0, &[], |b| Ok(b.to_vec()))
    }

    fn checkpoint_base(&self) -> Result<(u64, Vec<u8>), TgsError> {
        self.call(op::CHECKPOINT_BASE, 0, &[], wire::dec_id_bytes)
    }

    fn delta_since(&self, base_id: u64) -> Result<Option<Vec<u8>>, TgsError> {
        self.call(
            op::DELTA_SINCE,
            0,
            &wire::enc_u64(base_id),
            wire::dec_opt_bytes,
        )
    }

    fn export_users(&self, lo: usize, hi: usize) -> Result<Vec<u8>, TgsError> {
        let mut w = Writer::new();
        w.usize(lo);
        w.usize(hi);
        self.call(op::EXPORT_USERS, 0, &w.finish(), |b| Ok(b.to_vec()))
    }

    fn import_users(&self, users: &[u8]) -> Result<(), TgsError> {
        self.call(op::IMPORT_USERS, 0, users, |_| Ok(()))
    }

    fn spawn_sibling(&self) -> Result<Arc<dyn ShardTransport>, TgsError> {
        let slot = self.call(op::SPAWN_SIBLING, 0, &[], wire::dec_u64)?;
        Ok(Arc::new(TcpShard::new(
            self.addr.clone(),
            slot,
            self.cfg.clone(),
        )))
    }

    fn absorb_section(&self, section: &[u8]) -> Result<(), TgsError> {
        self.call(op::ABSORB_SECTION, 0, section, |_| Ok(()))
    }

    fn set_generation(&self, generation: u64) -> Result<(), TgsError> {
        self.call(
            op::SET_GENERATION,
            0,
            &wire::enc_u64(generation),
            |_| Ok(()),
        )
    }

    fn request_core_set(&self, _set_index: usize, _n_sets: usize) {
        // Remote workers pin within their own host's core budget; a
        // router-side set assignment is meaningless across machines.
    }

    fn shutdown(&self) -> Result<(), TgsError> {
        let out = self.call(op::SHUTDOWN_SLOT, 0, &[], |_| Ok(()));
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

    #[test]
    fn non_idempotent_opcodes_are_classified() {
        for opc in [
            op::INGEST,
            op::INIT,
            op::IMPORT_USERS,
            op::EXPORT_USERS,
            op::SPAWN_SIBLING,
            op::ABSORB_SECTION,
        ] {
            assert_eq!(retry_class(opc), Retry::OnceOnly);
        }
        for opc in [op::TIMELINE, op::FLUSH, op::SET_GENERATION, op::PING] {
            assert_eq!(retry_class(opc), Retry::Idempotent);
        }
    }
}
