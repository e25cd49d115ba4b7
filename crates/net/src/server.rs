//! The `tgs shard` server: a TCP listener hosting engine slots.
//!
//! Each slot is a [`LocalShard`] (one [`SentimentEngine`] worker)
//! addressed by the `slot` field of every request frame. Slots are
//! created over the wire (`INIT` restores one from a checkpoint
//! section, `SPAWN_SIBLING` forks a cold sibling for a shard split), so
//! a server starts empty and the router deploys topology onto it. One
//! thread per connection; the listener polls non-blocking so a
//! `TERMINATE` request (or [`ShardServer::stop`]) shuts the loop down
//! cleanly.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use tgs_core::codec::{Reader, Writer};
use tgs_core::TgsError;
use tgs_engine::{EngineCheckpoint, LocalShard, SentimentEngine, ShardTransport};

use crate::frame::{read_request, write_response, Request, STATUS_ERR, STATUS_OK};
use crate::wire::{self, op};

/// How often blocked readers and the accept loop re-check the stop
/// flag. Short enough for prompt shutdown, long enough to stay idle.
const POLL: Duration = Duration::from_millis(25);

struct Srv {
    range: Option<(usize, usize)>,
    slots: Mutex<HashMap<u64, Arc<dyn ShardTransport>>>,
    next_slot: AtomicU64,
    stop: AtomicBool,
}

/// A running shard host bound to one TCP address.
pub struct ShardServer {
    listener: TcpListener,
    srv: Arc<Srv>,
}

impl ShardServer {
    /// Binds the listener. `range` is the operator-declared user range
    /// (`--range lo..hi`), advisory metadata the router checks against
    /// its partition map at deploy time.
    pub fn bind(addr: &str, range: Option<(usize, usize)>) -> Result<Self, TgsError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| TgsError::net(addr, format!("cannot bind listener: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| TgsError::net(addr, format!("cannot set non-blocking accept: {e}")))?;
        Ok(Self {
            listener,
            srv: Arc::new(Srv {
                range,
                slots: Mutex::new(HashMap::new()),
                next_slot: AtomicU64::new(1),
                stop: AtomicBool::new(false),
            }),
        })
    }

    /// The actually-bound address (resolves `:0` to the assigned port).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, TgsError> {
        self.listener
            .local_addr()
            .map_err(|e| TgsError::net("listener", format!("cannot read bound address: {e}")))
    }

    /// Hosts a pre-built engine under `slot` (the non-wire way to
    /// populate a server, used by embedding tests and tools).
    pub fn add_engine(&self, slot: u64, engine: SentimentEngine) -> Result<(), TgsError> {
        let mut slots = self.srv.slots.lock();
        if slots.contains_key(&slot) {
            return Err(TgsError::invalid_argument(format!(
                "slot {slot} already exists on this server"
            )));
        }
        slots.insert(slot, Arc::new(LocalShard::new(engine)));
        self.srv.next_slot.fetch_max(slot + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Hosts an arbitrary transport under `slot`. This is how `tgs
    /// serve --hold` exposes its whole fleet as one endpoint: the
    /// hosted transport is a router fanning requests back out to the
    /// real shards, not a single local engine.
    pub fn add_transport(
        &self,
        slot: u64,
        transport: Arc<dyn ShardTransport>,
    ) -> Result<(), TgsError> {
        let mut slots = self.srv.slots.lock();
        if slots.contains_key(&slot) {
            return Err(TgsError::invalid_argument(format!(
                "slot {slot} already exists on this server"
            )));
        }
        slots.insert(slot, transport);
        self.srv.next_slot.fetch_max(slot + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Asks the serve loop to wind down (same effect as a `TERMINATE`
    /// request). Safe from any thread.
    pub fn stop(&self) {
        self.srv.stop.store(true, Ordering::Relaxed);
    }

    /// Serves until terminated, then drains connection threads and
    /// shuts every hosted slot down. Blocks the calling thread.
    pub fn run(self) -> Result<(), TgsError> {
        let mut conns = Vec::new();
        while !self.srv.stop.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let srv = Arc::clone(&self.srv);
                    conns.push(std::thread::spawn(move || serve_conn(stream, srv)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.stop();
                    return Err(TgsError::net("listener", format!("accept failed: {e}")));
                }
            }
        }
        for conn in conns {
            let _ = conn.join();
        }
        // Final drain: surface nothing (teardown is best effort), but
        // give every worker the chance to flush pending ingests.
        for (_, shard) in self.srv.slots.lock().drain() {
            let _ = shard.shutdown();
        }
        Ok(())
    }
}

/// Serves one connection until EOF, a fatal IO error, or server stop.
fn serve_conn(mut stream: TcpStream, srv: Arc<Srv>) {
    // Once a frame has started arriving it is read under this budget;
    // the short POLL timeout only governs the idle wait, so a large
    // checkpoint body cannot be cut off by the stop-flag polling.
    const BODY_TIMEOUT: Duration = Duration::from_secs(30);
    if stream.set_nodelay(true).is_err() || stream.set_write_timeout(Some(BODY_TIMEOUT)).is_err() {
        return;
    }
    loop {
        if stream.set_read_timeout(Some(POLL)).is_err() {
            return;
        }
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return, // clean EOF
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if srv.stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        if stream.set_read_timeout(Some(BODY_TIMEOUT)).is_err() {
            return;
        }
        let request = match read_request(&mut stream) {
            Ok(Some(request)) => request,
            Ok(None) | Err(_) => return,
        };
        let terminate = request.opcode == op::TERMINATE;
        let reply = dispatch(&srv, &request);
        let wrote = match reply {
            Ok(payload) => write_response(&mut stream, STATUS_OK, &payload),
            Err(e) => write_response(&mut stream, STATUS_ERR, &wire::enc_error(&e)),
        };
        if terminate {
            srv.stop.store(true, Ordering::Relaxed);
            return;
        }
        if wrote.is_err() {
            return;
        }
    }
}

fn bad_payload(detail: impl std::fmt::Display) -> TgsError {
    TgsError::invalid_argument(format!("bad request payload: {detail}"))
}

fn slot_of(srv: &Srv, slot: u64) -> Result<Arc<dyn ShardTransport>, TgsError> {
    // A missing slot is a *Net*-kinded error, not InvalidArgument: the
    // router only addresses slots it deployed, so reaching an empty one
    // means the server restarted and lost its state — exactly the
    // condition the supervisor's respawn path must classify as
    // recoverable (see PROTOCOL.md, "Failure semantics").
    srv.slots.lock().get(&slot).cloned().ok_or_else(|| {
        TgsError::net(
            format!("slot {slot}"),
            "no such slot on this server (restarted or never initialised)",
        )
    })
}

fn dispatch(srv: &Srv, request: &Request) -> Result<Vec<u8>, TgsError> {
    let Request {
        opcode,
        generation,
        slot,
        ref payload,
    } = *request;
    match opcode {
        op::PING | op::TERMINATE => Ok(Vec::new()),
        op::SERVER_INFO => {
            let mut w = Writer::new();
            match srv.range {
                Some((lo, hi)) => {
                    w.u8(1);
                    w.usize(lo);
                    w.usize(hi);
                }
                None => w.u8(0),
            }
            w.usize(srv.slots.lock().len());
            Ok(w.finish())
        }
        op::INIT => {
            let engine = SentimentEngine::restore(&EngineCheckpoint::from_bytes(payload.clone()))?;
            let mut slots = srv.slots.lock();
            if slots.contains_key(&slot) {
                return Err(TgsError::invalid_argument(format!(
                    "slot {slot} already exists on this server"
                )));
            }
            slots.insert(slot, Arc::new(LocalShard::new(engine)));
            srv.next_slot.fetch_max(slot + 1, Ordering::Relaxed);
            Ok(Vec::new())
        }
        op::SHUTDOWN_SLOT => {
            // Idempotent: removing an absent slot is a success, so a
            // retried teardown cannot fail the fleet shutdown.
            match srv.slots.lock().remove(&slot) {
                Some(shard) => shard.shutdown().map(|()| Vec::new()),
                None => Ok(Vec::new()),
            }
        }
        op::SPAWN_SIBLING => {
            let sibling = slot_of(srv, slot)?.spawn_sibling()?;
            let mut slots = srv.slots.lock();
            let mut id = srv.next_slot.fetch_add(1, Ordering::Relaxed);
            while slots.contains_key(&id) {
                id = srv.next_slot.fetch_add(1, Ordering::Relaxed);
            }
            slots.insert(id, sibling);
            Ok(wire::enc_u64(id))
        }
        op::INGEST => {
            let snapshot = wire::dec_snapshot(payload).map_err(bad_payload)?;
            slot_of(srv, slot)?
                .ingest(generation, snapshot)
                .map(|()| Vec::new())
        }
        op::FLUSH => slot_of(srv, slot)?.flush().map(wire::enc_u64),
        op::STATS => slot_of(srv, slot)?.stats().map(|s| wire::enc_stats(&s)),
        op::TIMESTAMPS => slot_of(srv, slot)?.timestamps().map(|t| wire::enc_u64s(&t)),
        op::TIMELINE => {
            let mut r = Reader::new(payload);
            let lo = r.u64("timeline lo").map_err(bad_payload)?;
            let hi = r.u64("timeline hi").map_err(bad_payload)?;
            r.done().map_err(bad_payload)?;
            slot_of(srv, slot)?
                .timeline(generation, lo, hi)
                .map(|t| wire::enc_timeline(&t))
        }
        op::LATEST_TIMESTAMP => slot_of(srv, slot)?
            .latest_timestamp(generation)
            .map(wire::enc_opt_u64),
        op::USER_SENTIMENT => {
            let mut r = Reader::new(payload);
            let user = r.usize("user").map_err(bad_payload)?;
            let at = r.u64("at").map_err(bad_payload)?;
            r.done().map_err(bad_payload)?;
            slot_of(srv, slot)?
                .user_sentiment(generation, user, at)
                .map(|s| wire::enc_user_sentiment(&s))
        }
        op::USER_TIMELINE => {
            let user = wire::dec_u64(payload).map_err(bad_payload)? as usize;
            slot_of(srv, slot)?
                .user_timeline(generation, user)
                .map(|t| wire::enc_user_timeline(&t))
        }
        op::KNOWN_USERS => slot_of(srv, slot)?
            .known_users(generation)
            .map(|n| wire::enc_u64(n as u64)),
        op::CLUSTER_SUMMARY => {
            let t = wire::dec_u64(payload).map_err(bad_payload)?;
            slot_of(srv, slot)?
                .cluster_summary(generation, t)
                .map(|s| wire::enc_cluster_summary(&s))
        }
        op::SF_AT => {
            let t = wire::dec_u64(payload).map_err(bad_payload)?;
            slot_of(srv, slot)?
                .sf_at(generation, t)
                .map(|m| wire::enc_matrix(&m))
        }
        op::K => slot_of(srv, slot)?.k().map(|k| wire::enc_u64(k as u64)),
        op::VOCAB_TOKENS => slot_of(srv, slot)?
            .vocab_tokens()
            .map(|v| wire::enc_strs(&v)),
        op::USER_FACTOR => {
            let user = wire::dec_u64(payload).map_err(bad_payload)? as usize;
            slot_of(srv, slot)?
                .user_factor(user)
                .map(|f| wire::enc_opt_f64s(&f))
        }
        op::CHECKPOINT_SECTION => slot_of(srv, slot)?.checkpoint_section(),
        op::CHECKPOINT_BASE => slot_of(srv, slot)?
            .checkpoint_base()
            .map(|(id, section)| wire::enc_id_bytes(id, &section)),
        op::DELTA_SINCE => {
            let base_id = wire::dec_u64(payload).map_err(bad_payload)?;
            slot_of(srv, slot)?
                .delta_since(base_id)
                .map(|d| wire::enc_opt_bytes(d.as_deref()))
        }
        op::EXPORT_USERS => {
            let mut r = Reader::new(payload);
            let lo = r.usize("export lo").map_err(bad_payload)?;
            let hi = r.usize("export hi").map_err(bad_payload)?;
            r.done().map_err(bad_payload)?;
            slot_of(srv, slot)?.export_users(lo, hi)
        }
        op::IMPORT_USERS => slot_of(srv, slot)?
            .import_users(payload)
            .map(|()| Vec::new()),
        op::ABSORB_SECTION => slot_of(srv, slot)?
            .absorb_section(payload)
            .map(|()| Vec::new()),
        op::SET_GENERATION => {
            let generation = wire::dec_u64(payload).map_err(bad_payload)?;
            slot_of(srv, slot)?
                .set_generation(generation)
                .map(|()| Vec::new())
        }
        other => Err(TgsError::invalid_argument(format!(
            "unknown opcode {other} (this server speaks protocol version {})",
            crate::frame::WIRE_VERSION
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{NetConfig, TcpShard};
    use tgs_core::TgsErrorKind;

    fn quick_cfg() -> NetConfig {
        NetConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(5),
            reconnect_attempts: 2,
            backoff_base: Duration::from_millis(10),
            retry_deadline: Duration::from_secs(5),
            jitter_seed: 1,
            // Explicit `None` so an ambient TGS_FAULTS cannot leak
            // chaos into unit tests.
            faults: None,
        }
    }

    #[test]
    fn empty_server_answers_management_verbs_and_terminates() {
        let server = ShardServer::bind("127.0.0.1:0", Some((0, 64))).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());

        let shard = TcpShard::new(addr, 0, quick_cfg());
        shard.ping().unwrap();
        let info = shard.server_info().unwrap();
        assert_eq!(info.range, Some((0, 64)));
        assert_eq!(info.slots, 0);

        // Engine calls against a slot nobody created fail typed, and
        // the error survives the wire as Net — the recoverable class
        // the supervisor keys respawn on.
        let err = shard.flush().expect_err("no slot 0 yet");
        assert_eq!(err.kind(), TgsErrorKind::Net);
        assert!(err.to_string().contains("slot 0"));

        shard.terminate().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn stop_handle_unblocks_run_without_a_client() {
        let server = ShardServer::bind("127.0.0.1:0", None).unwrap();
        server.stop();
        server.run().unwrap();
    }
}
