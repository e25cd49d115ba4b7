//! Degraded-mode query contract: with one dead peer in the fleet, every
//! [`ShardedQuery`] method must either fail with a typed
//! [`TgsError::Net`] (strict methods) or answer with results tagged
//! [`Coverage`] (the `*_partial` methods) — never panic, never hang,
//! never silently pass off a partial answer as a full one. The fleet
//! runs on two loopback [`ShardServer`]s. A shard goes down when its
//! slot is shut down over the wire, so every router call to it gets the
//! server's `Net`-kinded "no such slot" error, and heals when the slot
//! is re-`INIT`ed from the checkpoint section saved just before.

use std::thread::JoinHandle;
use std::time::Duration;

use tripartite_sentiment::engine::ShardTransport;
use tripartite_sentiment::net::{deploy_fleet, NetConfig, ShardServer, TcpShard};
use tripartite_sentiment::prelude::*;

fn corpus() -> Corpus {
    generate(&presets::tiny(42))
}

fn test_cfg() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(60),
        reconnect_attempts: 3,
        backoff_base: Duration::from_millis(25),
        retry_deadline: Duration::from_secs(60),
        jitter_seed: 7,
        // The only outages are the ones a test makes: no ambient
        // TGS_FAULTS.
        faults: None,
    }
}

/// Slot 0 of the server at `addr`, addressed directly rather than
/// through the router.
fn slot(addr: &str) -> TcpShard {
    TcpShard::new(addr, 0, test_cfg())
}

/// A 2-shard fleet deployed onto two in-thread loopback shard servers
/// from the same deterministic template a plain `fit_sharded` fleet
/// starts from, so its answers match an in-process fleet exactly.
struct Loopback {
    engine: ShardedEngine,
    addrs: Vec<String>,
    servers: Vec<JoinHandle<Result<(), TgsError>>>,
}

impl Loopback {
    fn deploy(c: &Corpus) -> Self {
        let mut addrs = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..2 {
            let server = ShardServer::bind("127.0.0.1:0", None).expect("bind");
            addrs.push(server.local_addr().expect("addr").to_string());
            servers.push(std::thread::spawn(move || server.run()));
        }
        let template = EngineBuilder::new()
            .k(3)
            .max_iters(8)
            .fit_sharded(c, 2)
            .expect("fit template");
        let engine = deploy_fleet(template, &addrs, &test_cfg()).expect("deploy");
        Self {
            engine,
            addrs,
            servers,
        }
    }

    /// Takes `shard` down: saves its checkpoint section, then shuts its
    /// slot down. Returns the section [`Loopback::heal`] restores.
    fn take_down(&self, shard: usize) -> Vec<u8> {
        let slot = slot(&self.addrs[shard]);
        let section = slot.checkpoint_section().expect("save the section");
        slot.shutdown().expect("shut the slot down");
        section
    }

    /// Brings `shard` back by `INIT` from its saved section.
    fn heal(&self, shard: usize, section: &[u8]) {
        slot(&self.addrs[shard]).init(section).expect("re-init");
    }

    /// Shuts the fleet down, then terminates and joins both servers.
    fn shutdown(self) {
        self.engine.shutdown().expect("shutdown");
        for (addr, server) in self.addrs.iter().zip(self.servers) {
            slot(addr).terminate().expect("terminate");
            server.join().expect("server thread").expect("server run");
        }
    }
}

/// Streams all but the final window through the fleet and returns the
/// held-out window, so tests can attempt a *fresh* ingest against a
/// degraded fleet (re-ingesting a streamed timestamp would fail the
/// append-only check before ever reaching a shard).
fn stream(engine: &ShardedEngine, c: &Corpus) -> (u32, u32) {
    let windows = day_windows(c.num_days, 2);
    let (&held, rest) = windows.split_last().expect("at least one window");
    for &(lo, hi) in rest {
        engine
            .ingest(EngineSnapshot::from_corpus_window(c, lo, hi))
            .expect("ingest");
    }
    engine.flush().expect("flush");
    held
}

#[test]
fn every_query_method_is_typed_or_tagged_against_a_dead_shard() {
    let c = corpus();
    let fleet = Loopback::deploy(&c);
    let engine = &fleet.engine;
    let (held_lo, held_hi) = stream(engine, &c);
    let query = engine.query();

    // Healthy baseline for the recovery comparison at the end.
    let full_timeline = query.timeline(..).expect("healthy timeline");
    assert!(!full_timeline.is_empty());
    let full_users = query.known_users().expect("healthy known_users");
    let t = full_timeline.last().expect("nonempty").timestamp;
    // A user each from shard 0's range and shard 1's range.
    let (shard1_lo, _) = engine.map().range(1);
    let user0 = 0;
    let user1 = shard1_lo;
    query
        .user_sentiment(user1, t)
        .expect("healthy shard-1 user lookup");

    let saved1 = fleet.take_down(1);

    // Strict methods: typed Net errors, never a panic.
    for (what, err) in [
        ("timeline", query.timeline(..).expect_err("timeline")),
        ("latest", query.latest().map(|_| ()).expect_err("latest")),
        (
            "known_users",
            query.known_users().map(|_| ()).expect_err("known_users"),
        ),
        (
            "cluster_summary",
            query.cluster_summary(t).map(|_| ()).expect_err("summary"),
        ),
        (
            "top_words",
            query.top_words(t, 5).map(|_| ()).expect_err("top_words"),
        ),
        (
            "merged_sf",
            query.merged_sf(t).map(|_| ()).expect_err("merged_sf"),
        ),
        (
            "user_sentiment",
            query
                .user_sentiment(user1, t)
                .map(|_| ())
                .expect_err("user_sentiment on the dead shard"),
        ),
        (
            "user_timeline",
            query
                .user_timeline(user1)
                .map(|_| ())
                .expect_err("user_timeline on the dead shard"),
        ),
    ] {
        assert_eq!(
            err.kind(),
            TgsErrorKind::Net,
            "{what} must fail typed: {err}"
        );
    }
    // Routing away from the dead shard still answers.
    query
        .user_sentiment(user0, t)
        .expect("shard 0 keeps serving its users");

    // Partial methods: tagged answers from the surviving shard.
    let tl = query.timeline_partial(..).expect("timeline_partial");
    assert_eq!(
        (tl.coverage.healthy, tl.coverage.total),
        (1, 2),
        "one of two shards answered"
    );
    assert!(!tl.coverage.is_full());
    assert_eq!(
        tl.coverage.stale_since,
        Some(t),
        "staleness bound must be the dead shard's last committed window"
    );
    assert!(!tl.value.is_empty(), "surviving shard's history serves");
    assert!(
        tl.value.len() <= full_timeline.len(),
        "a partial answer never invents entries"
    );

    let latest = query.latest_partial().expect("latest_partial");
    assert_eq!((latest.coverage.healthy, latest.coverage.total), (1, 2));
    assert!(latest.value.is_some(), "surviving shard has history");

    let users = query.known_users_partial().expect("known_users_partial");
    assert_eq!((users.coverage.healthy, users.coverage.total), (1, 2));
    assert!(
        users.value < full_users,
        "partial count must exclude the dead shard's users"
    );

    // The degraded answers are counted, and so is the outage.
    let stats = engine.stats();
    assert!(
        stats.degraded_queries >= 3,
        "three partial queries ran degraded, stats say {}",
        stats.degraded_queries
    );
    assert!(stats.shard_unavailable > 0);

    // Ingest against a dead fleet: typed error, never a hang. Both
    // shards go down so neither worker can partially commit the window
    // before the outage surfaces (which would skew the healed timeline).
    let saved0 = fleet.take_down(0);
    let err = engine
        .ingest(EngineSnapshot::from_corpus_window(&c, held_lo, held_hi))
        .expect_err("ingest needs every shard");
    assert_eq!(err.kind(), TgsErrorKind::Net);
    fleet.heal(0, &saved0);

    // Heal: full coverage returns, answers match the healthy baseline.
    fleet.heal(1, &saved1);
    assert_eq!(query.timeline(..).expect("healed timeline"), full_timeline);
    let healed = query.timeline_partial(..).expect("healed partial");
    assert!(healed.coverage.is_full());
    assert_eq!(healed.coverage.stale_since, None);
    assert_eq!(healed.value, full_timeline);
    assert_eq!(query.known_users().expect("healed users"), full_users);

    fleet.shutdown();
}

#[test]
fn steps_count_the_routers_timestamps_while_a_shard_is_down() {
    let c = corpus();
    let fleet = Loopback::deploy(&c);
    let engine = &fleet.engine;
    let (held_lo, held_hi) = stream(engine, &c);
    // One snapshot whose documents all route to shard 1: only that
    // shard's worker records its timestamp.
    let (shard1_lo, _) = engine.map().range(1);
    let mut snapshot = EngineSnapshot::new(u64::from(held_lo));
    for id in c.tweets_in_days(held_lo, held_hi) {
        let tweet = &c.tweets[id];
        if tweet.author >= shard1_lo {
            snapshot.push_tokens(tweet.author, tweet.tokens.clone());
        }
    }
    assert!(!snapshot.is_empty(), "the held window has shard-1 tweets");
    engine.ingest(snapshot).expect("ingest");
    let steps = engine.flush().expect("flush");
    assert_eq!(steps, engine.timestamps().len() as u64);
    let unavailable = engine.stats().shard_unavailable;

    // The count is the router's own: a dead shard 1 neither lowers it
    // nor counts as an unavailable call.
    let saved = fleet.take_down(1);
    assert_eq!(engine.steps(), steps);
    assert_eq!(engine.steps(), engine.timestamps().len() as u64);
    fleet.heal(1, &saved);
    assert_eq!(engine.stats().shard_unavailable, unavailable);

    fleet.shutdown();
}

#[test]
fn partial_queries_fail_typed_when_no_shard_answers() {
    let c = corpus();
    let fleet = Loopback::deploy(&c);
    stream(&fleet.engine, &c);
    let query = fleet.engine.query();
    let saved: Vec<Vec<u8>> = (0..2).map(|shard| fleet.take_down(shard)).collect();

    // Zero coverage is an error, not an empty Ok: an empty answer would
    // be indistinguishable from an empty history.
    for (what, err) in [
        (
            "timeline_partial",
            query
                .timeline_partial(..)
                .map(|_| ())
                .expect_err("timeline"),
        ),
        (
            "latest_partial",
            query.latest_partial().map(|_| ()).expect_err("latest"),
        ),
        (
            "known_users_partial",
            query
                .known_users_partial()
                .map(|_| ())
                .expect_err("known_users"),
        ),
    ] {
        assert_eq!(err.kind(), TgsErrorKind::Net, "{what}: {err}");
    }

    for (shard, section) in saved.iter().enumerate() {
        fleet.heal(shard, section);
    }
    fleet.shutdown();
}
