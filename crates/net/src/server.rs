//! The `tgs shard` server: a TCP listener hosting engine slots.
//!
//! Each slot is a [`LocalShard`] (one [`SentimentEngine`] worker)
//! addressed by the `slot` field of every request frame. Slots are
//! created over the wire (`INIT` restores one from a checkpoint
//! section, `SPAWN_SIBLING` forks a cold sibling for a shard split), so
//! a server starts empty and the router deploys topology onto it. One
//! thread per connection. The accept and the reads block; a `TERMINATE`
//! request (or [`ShardServer::stop`]) wakes the accept with a loopback
//! connect, and the exiting serve loop shuts the open connections down.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use tgs_core::TgsError;
use tgs_engine::{EngineCheckpoint, LocalShard, SentimentEngine, ShardTransport};

use crate::frame::{read_request, write_response, STATUS_ERR, STATUS_OK};
use crate::wire::{self, Op, ServerInfo};

struct Srv {
    range: Option<(usize, usize)>,
    /// The bound address as a client reaches it: a loopback connect here
    /// wakes the blocking accept.
    wake_addr: SocketAddr,
    slots: Mutex<HashMap<u64, Arc<dyn ShardTransport>>>,
    next_slot: AtomicU64,
    stop: AtomicBool,
}

impl Srv {
    /// Flags the serve loop to exit and wakes its accept.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }

    /// Hosts `shard` under `slot`, which must be free.
    fn insert(&self, slot: u64, shard: Arc<dyn ShardTransport>) -> Result<(), TgsError> {
        let mut slots = self.slots.lock();
        if slots.contains_key(&slot) {
            return Err(TgsError::invalid_argument(format!(
                "slot {slot} already exists on this server"
            )));
        }
        slots.insert(slot, shard);
        self.next_slot.fetch_max(slot + 1, Ordering::Relaxed);
        Ok(())
    }

    fn slot(&self, slot: u64) -> Result<Arc<dyn ShardTransport>, TgsError> {
        // A missing slot is a *Net*-kinded error, not InvalidArgument: the
        // router only addresses slots it deployed, so reaching an empty one
        // means the server restarted and lost its state — exactly the
        // condition the supervisor's respawn path must classify as
        // recoverable (see PROTOCOL.md, "Failure semantics").
        self.slots.lock().get(&slot).cloned().ok_or_else(|| {
            TgsError::net(
                format!("slot {slot}"),
                "no such slot on this server (restarted or never initialised)",
            )
        })
    }
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
        let mut wake_addr = listener
            .local_addr()
            .map_err(|e| TgsError::net(addr, format!("cannot read bound address: {e}")))?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Self {
            listener,
            srv: Arc::new(Srv {
                range,
                wake_addr,
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

    /// Hosts an arbitrary transport under `slot`. This is how `tgs
    /// serve --hold` exposes its whole fleet as one endpoint: the
    /// hosted transport is a router fanning requests back out to the
    /// real shards, not a single local engine.
    pub fn add_transport(
        &self,
        slot: u64,
        transport: Arc<dyn ShardTransport>,
    ) -> Result<(), TgsError> {
        self.srv.insert(slot, transport)
    }

    /// Serves until terminated, then closes the open connections, joins
    /// their threads and shuts every hosted slot down. Blocks the
    /// calling thread.
    pub fn run(self) -> Result<(), TgsError> {
        // Each live connection's thread, with a handle on its socket.
        let mut conns: Vec<(TcpStream, std::thread::JoinHandle<()>)> = Vec::new();
        let outcome = loop {
            if self.srv.stop.load(Ordering::SeqCst) {
                break Ok(());
            }
            match self.listener.accept() {
                // A stop request's wake-up connect: the check above exits.
                Ok(_) if self.srv.stop.load(Ordering::SeqCst) => {}
                Ok((stream, _)) => {
                    conns.retain(|(_, conn)| !conn.is_finished());
                    let Ok(socket) = stream.try_clone() else {
                        continue;
                    };
                    let srv = Arc::clone(&self.srv);
                    conns.push((socket, std::thread::spawn(move || serve_conn(stream, srv))));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(TgsError::net("listener", format!("accept failed: {e}"))),
            }
        };
        // Idle connections wait in a read: shutting their sockets down
        // ends it.
        for (socket, _) in &conns {
            let _ = socket.shutdown(Shutdown::Both);
        }
        for (_, conn) in conns {
            let _ = conn.join();
        }
        // Final drain: surface nothing (teardown is best effort), but
        // give every worker the chance to flush pending ingests.
        for (_, shard) in self.srv.slots.lock().drain() {
            let _ = shard.shutdown();
        }
        outcome
    }
}

/// Serves one connection until EOF, a fatal IO error, or server stop.
fn serve_conn(mut stream: TcpStream, srv: Arc<Srv>) {
    // Bounds each read and write once a frame is under way, so a large
    // checkpoint body has 30 s per read. A wait for the next frame that
    // times out just waits again: idle connections stay open.
    const IO_TIMEOUT: Duration = Duration::from_secs(30);
    if stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .is_err()
    {
        return;
    }
    loop {
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return, // clean EOF
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => return,
        }
        let frame = match read_request(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        let op = Op::decode(frame.opcode, frame.generation, &frame.payload);
        let terminate = matches!(op, Ok(Op::Terminate {}));
        let wrote = match op.and_then(|op| dispatch(&srv, frame.slot, op)) {
            Ok(payload) => write_response(&mut stream, STATUS_OK, &payload),
            Err(e) => write_response(&mut stream, STATUS_ERR, &wire::enc_error(&e)),
        };
        if terminate {
            srv.stop();
            return;
        }
        if wrote.is_err() {
            return;
        }
    }
}

/// Runs one request against the server or its `slot` and encodes the
/// reply payload.
fn dispatch(srv: &Srv, slot: u64, op: Op<'_>) -> Result<Vec<u8>, TgsError> {
    let shard = || srv.slot(slot);
    // The reply of a call that returns nothing.
    let empty = |()| Vec::new();
    Ok(match op {
        Op::Ping {} | Op::Terminate {} => Vec::new(),
        Op::ServerInfo {} => wire::enc_server_info(&ServerInfo {
            range: srv.range,
            slots: srv.slots.lock().len(),
        }),
        Op::Init { section } => {
            let engine = SentimentEngine::restore(&EngineCheckpoint::from_bytes(section.to_vec()))?;
            empty(srv.insert(slot, Arc::new(LocalShard::new(engine)))?)
        }
        Op::ShutdownSlot {} => {
            // Idempotent: removing an absent slot is a success, so a
            // retried teardown cannot fail the fleet shutdown.
            let removed = srv.slots.lock().remove(&slot);
            empty(removed.map_or(Ok(()), |shard| shard.shutdown())?)
        }
        Op::SpawnSibling {} => {
            let sibling = shard()?.spawn_sibling()?;
            // The first id past every slot ever hosted that is still free.
            loop {
                let id = srv.next_slot.fetch_add(1, Ordering::Relaxed);
                if srv.insert(id, Arc::clone(&sibling)).is_ok() {
                    break wire::enc_u64(id);
                }
            }
        }
        Op::Ingest {
            generation,
            snapshot,
        } => empty(shard()?.ingest(generation, snapshot)?),
        Op::Flush {} => wire::enc_u64(shard()?.flush()?),
        Op::Stats {} => wire::enc_stats(&shard()?.stats()?),
        Op::Timestamps {} => wire::enc_u64s(&shard()?.timestamps()?),
        Op::Timeline { generation, lo, hi } => {
            wire::enc_timeline(&shard()?.timeline(generation, lo, hi)?)
        }
        Op::LatestTimestamp { generation } => {
            wire::enc_opt_u64(shard()?.latest_timestamp(generation)?)
        }
        Op::UserSentiment {
            generation,
            user,
            at,
        } => wire::enc_user_sentiment(&shard()?.user_sentiment(generation, user, at)?),
        Op::UserTimeline { generation, user } => {
            wire::enc_user_timeline(&shard()?.user_timeline(generation, user)?)
        }
        Op::KnownUsers { generation } => wire::enc_u64(shard()?.known_users(generation)? as u64),
        Op::ClusterSummary { generation, t } => {
            wire::enc_cluster_summary(&shard()?.cluster_summary(generation, t)?)
        }
        Op::SfAt { generation, t } => wire::enc_matrix(&shard()?.sf_at(generation, t)?),
        Op::K {} => wire::enc_u64(shard()?.k()? as u64),
        Op::VocabTokens {} => wire::enc_strs(&shard()?.vocab_tokens()?),
        Op::UserFactor { user } => wire::enc_opt_f64s(&shard()?.user_factor(user)?),
        Op::CheckpointSection {} => shard()?.checkpoint_section()?,
        Op::CheckpointBase {} => {
            let (id, section) = shard()?.checkpoint_base()?;
            wire::enc_id_bytes(id, &section)
        }
        Op::DeltaSince { base_id } => {
            wire::enc_opt_bytes(shard()?.delta_since(base_id)?.as_deref())
        }
        Op::ExportUsers { lo, hi } => shard()?.export_users(lo, hi)?,
        Op::ImportUsers { users } => empty(shard()?.import_users(users)?),
        Op::AbsorbSection { section } => empty(shard()?.absorb_section(section)?),
        Op::SetGeneration { floor } => empty(shard()?.set_generation(floor)?),
    })
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
        server.srv.stop();
        server.run().unwrap();
    }
}
