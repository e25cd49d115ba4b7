//! Loopback fleet tests: real TCP on 127.0.0.1, driven three ways —
//! in-thread [`ShardServer`]s behind [`deploy_fleet`], raw
//! [`TcpShard`] transports built by hand, and actual `tgs shard` /
//! `tgs serve` subprocesses. The invariant under test everywhere:
//! a distributed fleet is **bit-identical** to the in-process
//! [`ShardedEngine`] it was cloned from — same timelines, same top
//! words, same checkpoint bytes — and a dropped peer degrades to typed
//! [`TgsError::Net`] errors, never a panic.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use tripartite_sentiment::data::{RepartitionOp, RepartitionPlan};
use tripartite_sentiment::engine::ShardTransport;
use tripartite_sentiment::net::RouterEndpoint;
use tripartite_sentiment::net::{deploy_fleet, NetConfig, ShardServer, TcpShard};
use tripartite_sentiment::prelude::*;

fn corpus() -> Corpus {
    generate(&presets::tiny(42))
}

fn fleet(c: &Corpus, shards: usize, ghosts: bool) -> ShardedEngine {
    EngineBuilder::new()
        .k(3)
        .max_iters(8)
        .ghost_users(ghosts)
        .fit_sharded(c, shards)
        .expect("fit")
}

fn windows(c: &Corpus) -> Vec<(u32, u32)> {
    day_windows(c.num_days, 2)
}

fn test_cfg() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(60),
        reconnect_attempts: 3,
        backoff_base: Duration::from_millis(25),
        retry_deadline: Duration::from_secs(60),
        jitter_seed: 7,
        // Keep loopback parity tests immune to an ambient TGS_FAULTS.
        faults: None,
    }
}

/// Binds an in-thread shard server and serves it until terminated.
fn start_local_server() -> (String, std::thread::JoinHandle<Result<(), TgsError>>) {
    let server = ShardServer::bind("127.0.0.1:0", None).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn terminate(addr: &str) {
    TcpShard::new(addr, 0, test_cfg())
        .terminate()
        .expect("terminate");
}

/// Full query surface comparison: timelines, latest, known users, top
/// words, and per-user lookups must agree exactly.
fn assert_query_parity(remote: &ShardedEngine, local: &ShardedEngine, c: &Corpus) {
    let rq = remote.query();
    let lq = local.query();
    let r_timeline = rq.timeline(..).expect("remote timeline");
    let l_timeline = lq.timeline(..).expect("local timeline");
    assert_eq!(r_timeline, l_timeline, "timelines diverged");
    assert!(!r_timeline.is_empty(), "history must exist");
    assert_eq!(
        rq.latest().expect("remote latest"),
        lq.latest().expect("local latest")
    );
    assert_eq!(
        rq.known_users().expect("remote users"),
        lq.known_users().expect("local users")
    );
    let t = r_timeline.last().expect("nonempty").timestamp;
    assert_eq!(
        rq.top_words(t, 5).expect("remote words"),
        lq.top_words(t, 5).expect("local words"),
        "top words diverged"
    );
    for user in [0, c.num_users() / 2, c.num_users() - 1] {
        assert_eq!(
            rq.user_sentiment(user, t).expect("remote sentiment"),
            lq.user_sentiment(user, t).expect("local sentiment"),
            "user {user} sentiment diverged"
        );
    }
}

#[test]
fn loopback_fleet_is_bit_identical_to_in_process_at_1_2_4_shards() {
    let c = corpus();
    for shards in [1usize, 2, 4] {
        let addrs: Vec<(String, _)> = (0..shards).map(|_| start_local_server()).collect();
        let addr_list: Vec<String> = addrs.iter().map(|(a, _)| a.clone()).collect();

        let remote =
            deploy_fleet(fleet(&c, shards, false), &addr_list, &test_cfg()).expect("deploy");
        let local = fleet(&c, shards, false);
        for &(lo, hi) in &windows(&c) {
            remote
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .expect("remote ingest");
            local
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .expect("local ingest");
        }
        assert_eq!(
            remote.flush().expect("remote flush"),
            local.flush().expect("local flush")
        );
        assert_query_parity(&remote, &local, &c);
        assert_eq!(
            remote.checkpoint().expect("remote ckpt").as_bytes(),
            local.checkpoint().expect("local ckpt").as_bytes(),
            "{shards}-shard fleet checkpoints must be byte-identical"
        );
        assert_eq!(remote.stats().ingested, local.stats().ingested);

        remote.shutdown().expect("fleet shutdown");
        for (addr, handle) in addrs {
            terminate(&addr);
            handle.join().expect("server thread").expect("server run");
        }
    }
}

#[test]
fn live_rebalance_over_the_wire_keeps_parity_and_round_trips_bytes() {
    let c = corpus();
    let (addr_a, srv_a) = start_local_server();
    let (addr_b, srv_b) = start_local_server();
    let addr_list = vec![addr_a.clone(), addr_b.clone()];

    let remote = deploy_fleet(fleet(&c, 2, true), &addr_list, &test_cfg()).expect("deploy");
    let local = fleet(&c, 2, true);
    let all = windows(&c);
    let (head, tail) = all.split_at(all.len() / 2);
    for &(lo, hi) in head {
        remote
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("remote ingest");
        local
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("local ingest");
    }

    // The same explicit plan on both fleets: split shard 1, then move
    // the first boundary. Over TCP this drives spawn_sibling,
    // export/import and set_generation through the wire protocol.
    let b1 = remote.map().starts()[1];
    let at = b1 + (c.num_users() - b1) / 2;
    let forward = RepartitionPlan {
        ops: vec![
            RepartitionOp::Split { shard: 1, at },
            RepartitionOp::MoveBoundary {
                boundary: 1,
                to: b1 + 2,
            },
        ],
    };
    let r_map = remote.rebalance(&forward).expect("remote rebalance");
    let l_map = local.rebalance(&forward).expect("local rebalance");
    assert_eq!(r_map.starts(), l_map.starts());
    assert_eq!(r_map.generation(), l_map.generation());
    assert_eq!(remote.shards(), 3);

    for &(lo, hi) in tail {
        remote
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("remote ingest");
        local
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("local ingest");
    }
    remote.flush().expect("remote flush");
    local.flush().expect("local flush");
    assert_query_parity(&remote, &local, &c);
    assert_eq!(
        remote.checkpoint().expect("remote ckpt").as_bytes(),
        local.checkpoint().expect("local ckpt").as_bytes(),
        "checkpoints must stay byte-identical across a live TCP rebalance"
    );

    // Split-then-merge round trip over the wire: applying the inverse
    // plan (merge the split back, undo the boundary move) must land on
    // byte-identical checkpoints on both fleets — the absorb path
    // (checkpoint_section + absorb_section over TCP) loses nothing.
    let inverse = RepartitionPlan {
        ops: vec![
            RepartitionOp::MoveBoundary {
                boundary: 1,
                to: b1,
            },
            RepartitionOp::Merge { left: 1 },
        ],
    };
    remote.rebalance(&inverse).expect("remote inverse");
    local.rebalance(&inverse).expect("local inverse");
    assert_eq!(remote.shards(), 2);
    assert_eq!(
        remote.checkpoint().expect("remote ckpt").as_bytes(),
        local.checkpoint().expect("local ckpt").as_bytes(),
        "split-then-merge must round-trip byte-identically over TCP"
    );

    remote.shutdown().expect("fleet shutdown");
    terminate(&addr_a);
    terminate(&addr_b);
    srv_a.join().expect("join a").expect("run a");
    srv_b.join().expect("join b").expect("run b");
}

#[test]
fn handles_created_before_the_server_exists_connect_lazily() {
    // Constructing a TcpShard does no IO, and the bounded backoff gives
    // a late-starting server time to appear.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener); // free the port; nothing listens there now

    let cfg = NetConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(10),
        reconnect_attempts: 6,
        backoff_base: Duration::from_millis(50),
        retry_deadline: Duration::from_secs(30),
        jitter_seed: 7,
        faults: None,
    };
    let shard = TcpShard::new(addr.clone(), 0, cfg);
    let server_addr = addr.clone();
    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let server = ShardServer::bind(&server_addr, None).expect("late bind");
        server.run()
    });
    shard
        .ping()
        .expect("ping should succeed once the server appears");
    shard.terminate().expect("terminate");
    starter.join().expect("join").expect("run");
}

#[test]
fn held_router_endpoint_answers_like_its_fleet() {
    // `tgs serve --hold` hosts the router itself on a shard server slot;
    // every query verb a client sends must come back exactly as the
    // fleet answers it in process.
    let c = corpus();
    let engine = Arc::new(fleet(&c, 2, false));
    for &(lo, hi) in &windows(&c) {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("ingest");
    }
    engine.flush().expect("flush");
    let server = ShardServer::bind("127.0.0.1:0", None).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    server
        .add_transport(0, RouterEndpoint::new(Arc::clone(&engine)))
        .expect("host the router");
    let run = std::thread::spawn(move || server.run());
    let held = TcpShard::new(addr, 0, test_cfg());

    let q = engine.query();
    let timeline = q.timeline(..).expect("timeline");
    let t = timeline.last().expect("history").timestamp;
    let user = c.num_users() / 2;
    assert_eq!(
        held.timeline(0, 0, u64::MAX).expect("held timeline"),
        timeline
    );
    assert_eq!(held.latest_timestamp(0).expect("held latest"), Some(t));
    assert_eq!(
        held.user_sentiment(0, user, t).expect("held sentiment"),
        q.user_sentiment(user, t).expect("sentiment")
    );
    assert_eq!(
        held.user_timeline(0, user).expect("held user timeline"),
        q.user_timeline(user).expect("user timeline")
    );
    assert_eq!(
        held.known_users(0).expect("held users"),
        q.known_users().expect("users")
    );
    assert_eq!(
        held.cluster_summary(0, t).expect("held summary"),
        q.cluster_summary(t).expect("summary")
    );
    assert_eq!(
        held.sf_at(0, t).expect("held sf"),
        q.merged_sf(t).expect("sf")
    );
    assert_eq!(held.stats().expect("held stats"), engine.stats());
    assert_eq!(
        held.checkpoint_section().expect("held section"),
        engine.checkpoint().expect("checkpoint").as_bytes()
    );

    // Rebalancing a held fleet is the router's job: the topology verbs
    // are refused with a typed error.
    let refusals = [
        held.export_users(0, 1).err(),
        held.import_users(&[]).err(),
        held.spawn_sibling().err(),
        held.absorb_section(&[]).err(),
    ];
    for err in refusals {
        let err = err.expect("topology verbs are refused");
        assert_eq!(err.kind(), TgsErrorKind::InvalidArgument, "{err}");
        assert!(
            err.to_string()
                .contains("not supported on a router endpoint"),
            "{err}"
        );
    }

    // Fleet deltas: the router's base ids are content-derived
    // (`FleetTips::key`), so a client holding a delta computes its next
    // anchor without a round trip.
    let window_at = |timestamp: u64| {
        let mut snapshot = EngineSnapshot::from_corpus_window(&c, 0, 2);
        snapshot.timestamp = timestamp;
        snapshot
    };
    let (base_id, base) = held.checkpoint_base().expect("held base");
    held.ingest(0, window_at(t + 1)).expect("held ingest");
    let delta = held
        .delta_since(base_id)
        .expect("held delta")
        .expect("a fresh base serves a delta");
    let delta = ShardedDelta::from_bytes(delta);
    let folded = ShardedEngine::apply_delta(&ShardedCheckpoint::from_bytes(base), &delta)
        .expect("fold the delta");
    assert_eq!(
        folded.as_bytes(),
        held.checkpoint_section().expect("held section")
    );
    held.ingest(0, window_at(t + 2)).expect("held ingest");
    let next_id = delta.tips().expect("delta tips").key();
    let next = held
        .delta_since(next_id)
        .expect("held delta")
        .expect("the derived anchor serves the next window");
    let folded = ShardedEngine::apply_delta(&folded, &ShardedDelta::from_bytes(next))
        .expect("fold the next delta");
    assert_eq!(
        folded.as_bytes(),
        held.checkpoint_section().expect("held section")
    );
    assert_eq!(
        held.delta_since(base_id.wrapping_add(1))
            .expect("unknown anchor"),
        None,
        "an unknown fleet id is unavailable, not an error"
    );

    held.terminate().expect("terminate");
    run.join().expect("server thread").expect("server run");
    Arc::try_unwrap(engine)
        .ok()
        .expect("the server released its endpoint")
        .shutdown()
        .expect("fleet shutdown");
}

// ---------------------------------------------------------------------
// Subprocess helpers: real `tgs` processes over loopback.
// ---------------------------------------------------------------------

fn tgs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tgs"))
}

/// Spawns `tgs shard --listen <addr>` and waits for its "listening on"
/// line, returning the child and the bound address.
fn spawn_shard_process(listen: &str, extra: &[&str]) -> (Child, String) {
    let mut child = tgs()
        .args(["shard", "--listen", listen])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tgs shard");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected shard banner: {line:?}"))
        .to_string();
    (child, addr)
}

fn wait_exit(mut child: Child, what: &str) {
    let status = child.wait().unwrap_or_else(|e| panic!("wait {what}: {e}"));
    assert!(status.success(), "{what} exited with {status}");
}

#[test]
fn tgs_serve_matches_tgs_stream_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("tgs_net_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();

    let status = tgs()
        .args(["generate", "--preset", "tiny", "--out", &path("corpus.tsv")])
        .status()
        .expect("generate");
    assert!(status.success());

    let (child_a, addr_a) = spawn_shard_process("127.0.0.1:0", &[]);
    let (child_b, addr_b) = spawn_shard_process("127.0.0.1:0", &[]);

    let serve = tgs()
        .args([
            "serve",
            "--shards",
            &format!("{addr_a},{addr_b}"),
            "--corpus",
            &path("corpus.tsv"),
            "--iters",
            "8",
            "--out",
            &path("serve.tsv"),
            "--checkpoint",
            &path("serve.ckpt"),
            "--terminate",
        ])
        .status()
        .expect("serve");
    assert!(serve.success(), "tgs serve failed");

    let stream = tgs()
        .args([
            "stream",
            "--shards",
            "2",
            "--corpus",
            &path("corpus.tsv"),
            "--iters",
            "8",
            "--out",
            &path("stream.tsv"),
            "--checkpoint",
            &path("stream.ckpt"),
        ])
        .status()
        .expect("stream");
    assert!(stream.success(), "tgs stream failed");

    let read = |name: &str| std::fs::read(dir.join(name)).expect("read output");
    assert_eq!(
        read("serve.tsv"),
        read("stream.tsv"),
        "distributed timeline must match the in-process one byte for byte"
    );
    assert_eq!(
        read("serve.ckpt"),
        read("stream.ckpt"),
        "distributed checkpoint must match the in-process one byte for byte"
    );

    // --terminate must have shut both servers down cleanly.
    wait_exit(child_a, "shard server a");
    wait_exit(child_b, "shard server b");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_survives_a_killed_shard_and_recovers_on_reconnect() {
    let c = corpus();
    let (child_a, addr_a) = spawn_shard_process("127.0.0.1:0", &[]);
    let (mut child_b, addr_b) = spawn_shard_process("127.0.0.1:0", &[]);

    // Build the transports by hand (instead of deploy_fleet) so the
    // test keeps TcpShard handles it can disconnect before the kill.
    let template = fleet(&c, 2, false);
    let map = template.map();
    let sections = template
        .checkpoint()
        .expect("ckpt")
        .sections()
        .expect("sections");
    template.shutdown().expect("template shutdown");
    let handles: Vec<Arc<TcpShard>> = [&addr_a, &addr_b]
        .iter()
        .map(|addr| Arc::new(TcpShard::new(addr.as_str(), 0, test_cfg())))
        .collect();
    for (handle, section) in handles.iter().zip(&sections) {
        handle.init(section).expect("init");
    }
    let transports: Vec<Arc<dyn ShardTransport>> = handles
        .iter()
        .map(|h| Arc::clone(h) as Arc<dyn ShardTransport>)
        .collect();
    let remote = ShardedEngine::from_transports(map.clone(), transports, false).expect("fleet");

    for &(lo, hi) in &windows(&c) {
        remote
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("ingest");
    }
    remote.flush().expect("flush");
    let before = remote.query().timeline(..).expect("timeline before");
    // Save shard b's full state so the revived server can be re-seeded
    // exactly as it was at the moment of death.
    let section_b = handles[1].checkpoint_section().expect("section b");

    // Close client-side first: the TIME_WAIT then lands on this end's
    // ephemeral ports, keeping shard b's listen port rebindable.
    handles[1].disconnect();
    child_b.kill().expect("kill shard b");
    child_b.wait().expect("reap shard b");

    // Queries routed to the dead shard surface as typed Net errors (no
    // panic), and the router's merged stats count the outage.
    let (lo_b, _) = map.range(1);
    let err = remote
        .query()
        .user_sentiment(lo_b, before.last().expect("nonempty").timestamp)
        .expect_err("shard b is dead");
    assert_eq!(err.kind(), TgsErrorKind::Net, "got {err}");
    assert!(
        remote.stats().shard_unavailable > 0,
        "merged stats must expose the outage"
    );

    // Revive on the same port. The freshly-freed port can lag a moment;
    // retry the spawn until the banner appears.
    let mut revived = None;
    for _ in 0..40 {
        let mut child = tgs()
            .args(["shard", "--listen", &addr_b])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("respawn shard b");
        let stdout = child.stdout.take().expect("stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("banner");
        if line.trim().strip_prefix("listening on ").is_some() {
            revived = Some(child);
            break;
        }
        let _ = child.wait();
        std::thread::sleep(Duration::from_millis(250));
    }
    let child_b2 = revived.expect("shard b could not rebind its port");
    handles[1].init(&section_b).expect("re-init slot 0");
    handles[1]
        .set_generation(map.generation())
        .expect("re-key generation");

    // The same fleet handle recovers: full history, identical answers.
    let after = remote.query().timeline(..).expect("timeline after");
    assert_eq!(after, before, "history must survive the kill + revive");
    remote
        .query()
        .user_sentiment(lo_b, before.last().expect("nonempty").timestamp)
        .expect("shard b serves again");

    remote.shutdown().expect("fleet shutdown");
    for (child, addr) in [(child_a, &addr_a), (child_b2, &addr_b)] {
        TcpShard::new(addr.as_str(), 0, test_cfg())
            .terminate()
            .expect("terminate");
        wait_exit(child, "shard server");
    }
}
