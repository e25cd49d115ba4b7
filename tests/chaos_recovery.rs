//! Chaos tests for the supervised fleet: kill and corrupt real shard
//! servers mid-stream and prove the recovery machinery reconverges
//! **bit-identically** with a never-faulted run — same timelines, same
//! checkpoint bytes — while the merged stats count every respawn and
//! replayed document.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use tripartite_sentiment::net::{
    deploy_supervised, FaultPolicy, NetConfig, ShardServer, SupervisorConfig, TcpShard,
};
use tripartite_sentiment::prelude::*;

fn corpus() -> Corpus {
    generate(&presets::tiny(42))
}

fn fleet(c: &Corpus, shards: usize) -> ShardedEngine {
    EngineBuilder::new()
        .k(3)
        .max_iters(8)
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
        // Chaos in these tests is injected explicitly, never ambiently.
        faults: None,
    }
}

/// Supervisor tuning for tests: no mid-stream checkpoint refresh (so
/// the replay journal provably carries the streamed windows) and a
/// snappy recovery loop.
fn sup_cfg() -> SupervisorConfig {
    SupervisorConfig {
        checkpoint_every: 1_000,
        recover_backoff: Duration::from_millis(25),
        jitter_seed: 7,
        ..Default::default()
    }
}

/// Never-faulted in-process reference run: stream everything, return
/// the timeline and the checkpoint bytes.
fn reference_run(c: &Corpus) -> (Vec<TimelineEntry>, Vec<u8>) {
    let local = fleet(c, 2);
    for &(lo, hi) in &windows(c) {
        local
            .ingest(EngineSnapshot::from_corpus_window(c, lo, hi))
            .expect("reference ingest");
    }
    local.flush().expect("reference flush");
    let timeline = local.query().timeline(..).expect("reference timeline");
    let bytes = local
        .checkpoint()
        .expect("reference ckpt")
        .as_bytes()
        .to_vec();
    local.shutdown().expect("reference shutdown");
    (timeline, bytes)
}

/// 1-day windows over the corpus (12 on the tiny preset): enough
/// per-window refreshes for each slot's baseline to re-base mid-stream.
fn daily_windows(c: &Corpus) -> Vec<(u32, u32)> {
    day_windows(c.num_days, 1)
}

/// [`reference_run`] over [`daily_windows`].
fn daily_reference_run(c: &Corpus) -> (Vec<TimelineEntry>, Vec<u8>) {
    let local = fleet(c, 2);
    for &(lo, hi) in &daily_windows(c) {
        local
            .ingest(EngineSnapshot::from_corpus_window(c, lo, hi))
            .expect("reference ingest");
    }
    local.flush().expect("reference flush");
    let timeline = local.query().timeline(..).expect("reference timeline");
    let bytes = local
        .checkpoint()
        .expect("reference ckpt")
        .as_bytes()
        .to_vec();
    local.shutdown().expect("reference shutdown");
    (timeline, bytes)
}

// ---------------------------------------------------------------------
// Subprocess helpers (same contract as tests/net_fleet.rs).
// ---------------------------------------------------------------------

fn tgs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tgs"))
}

fn spawn_shard_process(listen: &str) -> (Child, String) {
    let mut child = tgs()
        .args(["shard", "--listen", listen])
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

/// Respawns a shard server on the *same* address as a killed one; the
/// freshly-freed port can lag a moment, so retry until the banner
/// appears.
fn respawn_shard_process(addr: &str) -> Child {
    for _ in 0..40 {
        let mut child = tgs()
            .args(["shard", "--listen", addr])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("respawn tgs shard");
        let stdout = child.stdout.take().expect("stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("banner");
        if line.trim().strip_prefix("listening on ").is_some() {
            return child;
        }
        let _ = child.wait();
        std::thread::sleep(Duration::from_millis(250));
    }
    panic!("shard server could not rebind {addr}");
}

fn wait_exit(mut child: Child, what: &str) {
    let status = child.wait().unwrap_or_else(|e| panic!("wait {what}: {e}"));
    assert!(status.success(), "{what} exited with {status}");
}

fn terminate(addr: &str) {
    TcpShard::new(addr, 0, test_cfg())
        .terminate()
        .expect("terminate");
}

/// Kill a shard server mid-stream and respawn it **empty** on the same
/// port: the next ingest routed there hits "no such slot", the
/// supervised transport re-seeds the slot from its baseline, replays
/// the journal, and the stream continues. The recovered fleet must be
/// bit-identical to a run that never faulted.
#[test]
fn supervised_fleet_survives_kill_and_empty_respawn_bit_identically() {
    let c = corpus();
    let (reference_timeline, reference_ckpt) = reference_run(&c);

    let (child_a, addr_a) = spawn_shard_process("127.0.0.1:0");
    let (mut child_b, addr_b) = spawn_shard_process("127.0.0.1:0");
    let (engine, supervisor) = deploy_supervised(
        fleet(&c, 2),
        &[addr_a.clone(), addr_b.clone()],
        &test_cfg(),
        sup_cfg(),
    )
    .expect("deploy supervised");

    let all = windows(&c);
    let (head, tail) = all.split_at(all.len() / 2);
    assert!(!head.is_empty() && !tail.is_empty(), "need a mid-stream");
    for &(lo, hi) in head {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("head ingest");
        supervisor.tick();
    }

    // Chaos: shard b dies and comes back with amnesia (no slot state).
    child_b.kill().expect("kill shard b");
    child_b.wait().expect("reap shard b");
    let child_b2 = respawn_shard_process(&addr_b);

    // The stream never notices: the first ingest that touches shard b
    // recovers the slot (baseline + journal replay) under the hood.
    for &(lo, hi) in tail {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("tail ingest rides through the respawn");
        supervisor.tick();
    }
    engine.flush().expect("flush");

    let stats = engine.stats();
    assert!(
        stats.respawns >= 1,
        "a respawn happened: {:?}",
        stats.respawns
    );
    assert!(
        stats.replayed_docs > 0,
        "the journal replayed documents into the fresh slot"
    );

    assert_eq!(
        engine.query().timeline(..).expect("recovered timeline"),
        reference_timeline,
        "recovered fleet's timeline must match the never-faulted run"
    );
    assert_eq!(
        engine.checkpoint().expect("recovered ckpt").as_bytes(),
        &reference_ckpt[..],
        "recovered fleet's checkpoint must be byte-identical to the never-faulted run"
    );

    supervisor.stop();
    engine.shutdown().expect("fleet shutdown");
    for (child, addr) in [(child_a, &addr_a), (child_b2, &addr_b)] {
        terminate(addr);
        wait_exit(child, "shard server");
    }
}

/// Corruption chaos: a seeded [`FaultPolicy`] truncates a quarter of
/// the `INGEST` request frames mid-write. Every truncation surfaces as
/// a typed error on a non-idempotent opcode, drives a slot rebuild, and
/// the fleet still reconverges bit-identically with the clean run.
#[test]
fn supervised_fleet_reconverges_under_seeded_ingest_truncation() {
    let c = corpus();
    let (reference_timeline, reference_ckpt) = reference_run(&c);

    let servers: Vec<(String, _)> = (0..2)
        .map(|_| {
            let server = ShardServer::bind("127.0.0.1:0", None).expect("bind");
            let addr = server.local_addr().expect("addr").to_string();
            (addr, std::thread::spawn(move || server.run()))
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|(a, _)| a.clone()).collect();

    let cfg = NetConfig {
        faults: Some(
            FaultPolicy::parse("seed=11, ingest.truncate=0.25").expect("valid fault spec"),
        ),
        ..test_cfg()
    };
    let (engine, supervisor) =
        deploy_supervised(fleet(&c, 2), &addrs, &cfg, sup_cfg()).expect("deploy supervised");

    for &(lo, hi) in &windows(&c) {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("ingest rides through injected truncations");
        supervisor.tick();
    }
    engine.flush().expect("flush");

    let stats = engine.stats();
    assert!(
        stats.respawns >= 1,
        "seed 11 at p=0.25 must truncate at least one ingest frame \
         (respawns = {})",
        stats.respawns
    );
    assert!(stats.replayed_docs > 0);

    assert_eq!(
        engine.query().timeline(..).expect("timeline"),
        reference_timeline,
        "corrupted-transport fleet must reconverge with the clean run"
    );
    assert_eq!(
        engine.checkpoint().expect("ckpt").as_bytes(),
        &reference_ckpt[..],
        "checkpoints must stay byte-identical under transport corruption"
    );

    supervisor.stop();
    engine.shutdown().expect("fleet shutdown");
    for (addr, handle) in servers {
        terminate(&addr);
        handle.join().expect("server thread").expect("server run");
    }
}

/// Delta-baseline recovery: with a tight checkpoint cadence the
/// supervisor's mid-stream refreshes ship as `DELTA_SINCE` increments
/// (counted in `delta_refreshes`), each slot's baseline being a base
/// checkpoint plus a locally-compacted delta chain. A kill + empty
/// respawn then re-seeds the slot from the *materialized* base+deltas
/// plus the journal — and the result must still be bit-identical to a
/// never-faulted run.
#[test]
fn faulted_slot_reseeds_from_delta_baseline_bit_identically() {
    let c = corpus();
    let (reference_timeline, reference_ckpt) = reference_run(&c);

    let (child_a, addr_a) = spawn_shard_process("127.0.0.1:0");
    let (mut child_b, addr_b) = spawn_shard_process("127.0.0.1:0");
    let cfg = SupervisorConfig {
        // Refresh every window: the first refresh anchors a base via
        // CHECKPOINT_BASE, every later one ships only delta bytes.
        checkpoint_every: 1,
        ..sup_cfg()
    };
    let (engine, supervisor) = deploy_supervised(
        fleet(&c, 2),
        &[addr_a.clone(), addr_b.clone()],
        &test_cfg(),
        cfg,
    )
    .expect("deploy supervised");

    let all = windows(&c);
    let (head, tail) = all.split_at(all.len() / 2);
    assert!(!head.is_empty() && !tail.is_empty(), "need a mid-stream");
    for &(lo, hi) in head {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("head ingest");
        supervisor.tick();
    }
    let refreshes_before_fault = supervisor
        .counters()
        .delta_refreshes
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        refreshes_before_fault > 0,
        "a per-window cadence must have shipped at least one delta refresh \
         before the fault (got {refreshes_before_fault})"
    );

    // Chaos: shard b dies and comes back with amnesia; its baseline is
    // now base + deltas, so recovery materializes the chain to re-seed.
    child_b.kill().expect("kill shard b");
    child_b.wait().expect("reap shard b");
    let child_b2 = respawn_shard_process(&addr_b);

    for &(lo, hi) in tail {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("tail ingest rides through the respawn");
        supervisor.tick();
    }
    engine.flush().expect("flush");

    let stats = engine.stats();
    assert!(stats.respawns >= 1, "a respawn happened");
    let delta_refreshes = supervisor
        .counters()
        .delta_refreshes
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        delta_refreshes > refreshes_before_fault,
        "the surviving and re-anchored slots keep delta-refreshing after \
         the fault ({refreshes_before_fault} -> {delta_refreshes})"
    );

    assert_eq!(
        engine.query().timeline(..).expect("recovered timeline"),
        reference_timeline,
        "delta-baselined recovery must match the never-faulted timeline"
    );
    assert_eq!(
        engine.checkpoint().expect("recovered ckpt").as_bytes(),
        &reference_ckpt[..],
        "delta-baselined recovery must be byte-identical to the never-faulted run"
    );

    supervisor.stop();
    engine.shutdown().expect("fleet shutdown");
    for (child, addr) in [(child_a, &addr_a), (child_b2, &addr_b)] {
        terminate(addr);
        wait_exit(child, "shard server");
    }
}

/// The proactive path: health probes cross the failure threshold while
/// a shard is down, and the supervisor rebuilds the slot itself — no
/// ingest required — as soon as the server returns.
#[test]
fn probe_threshold_triggers_proactive_recovery() {
    let c = corpus();
    let (child_a, addr_a) = spawn_shard_process("127.0.0.1:0");
    let (mut child_b, addr_b) = spawn_shard_process("127.0.0.1:0");
    let (engine, supervisor) = deploy_supervised(
        fleet(&c, 2),
        &[addr_a.clone(), addr_b.clone()],
        &test_cfg(),
        sup_cfg(),
    )
    .expect("deploy supervised");

    for &(lo, hi) in &windows(&c) {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("ingest");
        supervisor.tick();
    }
    engine.flush().expect("flush");
    let before = engine.query().timeline(..).expect("timeline before");

    child_b.kill().expect("kill shard b");
    child_b.wait().expect("reap shard b");

    // Respawn concurrently: the threshold-triggered recovery loop keeps
    // retrying (backoff + jitter) until the server is back.
    let addr = addr_b.clone();
    let respawner = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        respawn_shard_process(&addr)
    });

    // fail_threshold consecutive failed probes fire the recovery; the
    // final sweep blocks inside it until the rebuild lands.
    for _ in 0..sup_cfg().fail_threshold {
        supervisor.probe_once();
    }
    let child_b2 = respawner.join().expect("respawner thread");

    let stats = engine.stats();
    assert!(
        stats.respawns >= 1,
        "probe sweep must have respawned the slot"
    );
    assert_eq!(
        engine.query().timeline(..).expect("timeline after"),
        before,
        "proactively recovered fleet serves its full history"
    );

    supervisor.stop();
    engine.shutdown().expect("fleet shutdown");
    for (child, addr) in [(child_a, &addr_a), (child_b2, &addr_b)] {
        terminate(addr);
        wait_exit(child, "shard server");
    }
}

/// Recovery after the baseline has re-based: refreshing every 1-day
/// window, each slot's retained deltas outgrow its base around window 4
/// and again around window 10. Killing shard b after window 7 therefore
/// rebuilds it from a baseline that was re-based once and has grown at
/// least one delta since — and the result must still be bit-identical
/// to a never-faulted run.
#[test]
fn slot_recovers_bit_identically_after_its_baseline_rebased() {
    let c = corpus();
    let all = daily_windows(&c);
    assert_eq!(all.len(), 12, "the tiny preset streams 12 daily windows");
    let (reference_timeline, reference_ckpt) = daily_reference_run(&c);

    let (child_a, addr_a) = spawn_shard_process("127.0.0.1:0");
    let (mut child_b, addr_b) = spawn_shard_process("127.0.0.1:0");
    let cfg = SupervisorConfig {
        checkpoint_every: 1,
        ..sup_cfg()
    };
    let (engine, supervisor) = deploy_supervised(
        fleet(&c, 2),
        &[addr_a.clone(), addr_b.clone()],
        &test_cfg(),
        cfg,
    )
    .expect("deploy supervised");

    let (head, tail) = all.split_at(7);
    for &(lo, hi) in head {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("head ingest");
        supervisor.tick();
    }

    child_b.kill().expect("kill shard b");
    child_b.wait().expect("reap shard b");
    let child_b2 = respawn_shard_process(&addr_b);

    for &(lo, hi) in tail {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("tail ingest rides through the respawn");
        supervisor.tick();
    }
    engine.flush().expect("flush");

    let stats = engine.stats();
    assert!(stats.respawns >= 1, "a respawn happened");
    assert_eq!(
        engine.query().timeline(..).expect("recovered timeline"),
        reference_timeline,
        "recovery from a re-based baseline must match the never-faulted timeline"
    );
    assert_eq!(
        engine.checkpoint().expect("recovered ckpt").as_bytes(),
        &reference_ckpt[..],
        "recovery from a re-based baseline must be byte-identical to the never-faulted run"
    );

    supervisor.stop();
    engine.shutdown().expect("fleet shutdown");
    for (child, addr) in [(child_a, &addr_a), (child_b2, &addr_b)] {
        terminate(addr);
        wait_exit(child, "shard server");
    }
}

/// Fleet checkpoints taken on one thread while another streams anchor
/// every slot's baseline mid-stream. Each slot's lock spans its shard
/// call, so an anchor lands wholly before or after an ingest: the
/// journal neither loses a snapshot the base lacks nor keeps one the
/// base already holds. A kill after the head must still rebuild the
/// slot byte-identically.
#[test]
fn checkpoints_concurrent_with_ingest_keep_recovery_bit_identical() {
    let c = corpus();
    let (reference_timeline, reference_ckpt) = daily_reference_run(&c);

    let (child_a, addr_a) = spawn_shard_process("127.0.0.1:0");
    let (mut child_b, addr_b) = spawn_shard_process("127.0.0.1:0");
    let (engine, supervisor) = deploy_supervised(
        fleet(&c, 2),
        &[addr_a.clone(), addr_b.clone()],
        &test_cfg(),
        sup_cfg(),
    )
    .expect("deploy supervised");

    let all = daily_windows(&c);
    let (head, tail) = all.split_at(all.len() / 2);
    let head_streamed = AtomicBool::new(false);
    let checkpoints = std::thread::scope(|s| {
        let checkpointer = s.spawn(|| {
            let mut taken = 0u32;
            while !head_streamed.load(Ordering::Acquire) {
                engine.checkpoint().expect("concurrent checkpoint");
                taken += 1;
            }
            taken
        });
        for &(lo, hi) in head {
            engine
                .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
                .expect("head ingest beside checkpoints");
            supervisor.tick();
        }
        head_streamed.store(true, Ordering::Release);
        checkpointer.join().expect("checkpoint thread")
    });
    assert!(checkpoints > 0, "the checkpoint thread never ran");

    child_b.kill().expect("kill shard b");
    child_b.wait().expect("reap shard b");
    let child_b2 = respawn_shard_process(&addr_b);

    for &(lo, hi) in tail {
        engine
            .ingest(EngineSnapshot::from_corpus_window(&c, lo, hi))
            .expect("tail ingest rides through the respawn");
        supervisor.tick();
    }
    engine.flush().expect("flush");

    assert!(engine.stats().respawns >= 1, "a respawn happened");
    assert_eq!(
        engine.query().timeline(..).expect("recovered timeline"),
        reference_timeline,
        "recovery after concurrent checkpoints must match the never-faulted timeline"
    );
    assert_eq!(
        engine.checkpoint().expect("recovered ckpt").as_bytes(),
        &reference_ckpt[..],
        "recovery after concurrent checkpoints must be byte-identical to the never-faulted run"
    );

    supervisor.stop();
    engine.shutdown().expect("fleet shutdown");
    for (child, addr) in [(child_a, &addr_a), (child_b2, &addr_b)] {
        terminate(addr);
        wait_exit(child, "shard server");
    }
}
