//! Building, observing and tearing down the fleets under test.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tgs_core::{OnlineConfig, TgsError};
use tgs_data::{Corpus, PartitionMap};
use tgs_engine::{
    EngineBuilder, EngineSnapshot, LocalShard, RecoveryCounters, ShardTransport, ShardedEngine,
};
use tgs_net::{NetConfig, ShardServer, SupervisedShard, Supervisor, SupervisorConfig, TcpShard};

use crate::trace::{Traced, Tracer};

/// Shards in every fleet the benchmark builds.
pub const SHARDS: usize = 2;

/// The solver settings every workload runs with: the defaults except
/// `k = 3` and 20 iterations per step.
pub fn online_config() -> OnlineConfig {
    OnlineConfig {
        k: 3,
        max_iters: 20,
        ..OnlineConfig::default()
    }
}

/// `EngineBuilder` defaults with [`online_config`].
pub fn builder() -> EngineBuilder {
    EngineBuilder::new().online(online_config())
}

/// An in-process fleet plus direct handles on its shards, so the
/// benchmark can watch each shard's committed count without going
/// through (or tracing) the router.
pub struct LocalFleet {
    pub engine: ShardedEngine,
    pub shards: Vec<Arc<dyn ShardTransport>>,
    pub map: PartitionMap,
}

impl LocalFleet {
    /// Fits the vocabulary and prior on `corpus` and starts [`SHARDS`]
    /// identically configured workers behind a router — what
    /// `EngineBuilder::fit_sharded` does, but keeping the handles. A
    /// traced fleet routes through [`Traced`] shards.
    pub fn build(corpus: &Corpus, tracer: Option<&Arc<Tracer>>) -> Result<Self, TgsError> {
        let first = builder().fit(corpus)?;
        let siblings = (1..SHARDS)
            .map(|_| first.spawn_sibling())
            .collect::<Result<Vec<_>, _>>()?;
        let shards: Vec<Arc<dyn ShardTransport>> = std::iter::once(first)
            .chain(siblings)
            .map(|e| Arc::new(LocalShard::new(e)) as Arc<dyn ShardTransport>)
            .collect();
        let routed = shards
            .iter()
            .map(|s| match tracer {
                Some(t) => Traced::wrap(Arc::clone(s), t, "local"),
                None => Arc::clone(s),
            })
            .collect();
        let map = PartitionMap::even(corpus.num_users(), SHARDS);
        let engine = ShardedEngine::from_transports(map.clone(), routed, false)?;
        Ok(Self {
            engine,
            shards,
            map,
        })
    }

    pub fn shutdown(self) -> Result<(), TgsError> {
        let Self { engine, shards, .. } = self;
        engine.shutdown()?;
        // The worker threads join when their last handle drops.
        drop(shards);
        Ok(())
    }
}

/// A fleet of [`SHARDS`] loopback TCP shard servers, deployed and
/// supervised like `tgs serve` does it.
pub struct TcpFleet {
    pub engine: ShardedEngine,
    pub supervisor: Arc<Supervisor>,
    servers: Vec<(String, JoinHandle<Result<(), TgsError>>)>,
}

impl TcpFleet {
    /// Binds the servers on `127.0.0.1:0`, fits a template fleet on
    /// `corpus` and deploys it with a checkpoint refresh every
    /// `checkpoint_every` windows and no background probes. A traced
    /// fleet assembles the same deployment from its public parts so each
    /// supervised shard can sit behind a [`Traced`] wrapper.
    pub fn build(
        corpus: &Corpus,
        checkpoint_every: u64,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Self, TgsError> {
        let mut servers = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            let bound = ShardServer::bind("127.0.0.1:0", None)
                .and_then(|server| Ok((server.local_addr()?.to_string(), server)));
            match bound {
                Ok((addr, server)) => {
                    servers.push((addr, std::thread::spawn(move || server.run())));
                }
                Err(e) => {
                    stop_servers(servers);
                    return Err(e);
                }
            }
        }
        let addrs: Vec<String> = servers.iter().map(|(a, _)| a.clone()).collect();
        let sup_cfg = SupervisorConfig {
            checkpoint_every,
            ..SupervisorConfig::default()
        };
        let deployed = builder()
            .fit_sharded(corpus, SHARDS)
            .and_then(|template| match tracer {
                None => {
                    tgs_net::deploy_supervised(template, &addrs, &NetConfig::default(), sup_cfg)
                }
                Some(t) => deploy_traced(template, &addrs, sup_cfg, t),
            });
        match deployed {
            Ok((engine, supervisor)) => Ok(Self {
                engine,
                supervisor,
                servers,
            }),
            Err(e) => {
                stop_servers(servers);
                Err(e)
            }
        }
    }

    pub fn shutdown(self) -> Result<(), TgsError> {
        let Self {
            engine,
            supervisor,
            servers,
        } = self;
        let outcome = engine.shutdown();
        supervisor.stop();
        drop(supervisor);
        stop_servers(servers);
        outcome
    }
}

/// `tgs_net::deploy_supervised` rebuilt from its public parts, with each
/// supervised shard wrapped for tracing.
fn deploy_traced(
    template: ShardedEngine,
    addrs: &[String],
    sup_cfg: SupervisorConfig,
    tracer: &Arc<Tracer>,
) -> Result<(ShardedEngine, Arc<Supervisor>), TgsError> {
    let map = template.map();
    let sections = template.checkpoint()?.sections()?;
    template.shutdown()?;
    let counters = Arc::new(RecoveryCounters::default());
    let mut supervised = Vec::with_capacity(addrs.len());
    let mut transports = Vec::with_capacity(addrs.len());
    for (addr, section) in addrs.iter().zip(&sections) {
        let handle = Arc::new(TcpShard::new(addr.clone(), 0, NetConfig::default()));
        handle.init(section)?;
        let shard = SupervisedShard::new(
            handle,
            Some(section.clone()),
            Arc::clone(&counters),
            sup_cfg.clone(),
        );
        supervised.push(Arc::clone(&shard));
        transports.push(Traced::wrap(shard, tracer, "net"));
    }
    let mut engine = ShardedEngine::from_transports(map, transports, false)?;
    engine.set_recovery_counters(Arc::clone(&counters));
    Ok((engine, Supervisor::new(supervised, counters, sup_cfg)))
}

/// Terminates each server over one short-lived connection and joins its
/// serve loop.
fn stop_servers(servers: Vec<(String, JoinHandle<Result<(), TgsError>>)>) {
    for (addr, handle) in servers {
        let _ = TcpShard::new(addr, 0, NetConfig::default()).terminate();
        let _ = handle.join();
    }
}

/// Builds a fleet `repeats` times, timing each build, and keeps the last
/// one: `setup_s` is the median of these builds.
pub fn timed_setups<F>(
    repeats: usize,
    mut build: impl FnMut() -> Result<F, TgsError>,
    mut teardown: impl FnMut(F) -> Result<(), TgsError>,
) -> Result<(F, Vec<f64>), TgsError> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        if let Some(previous) = last.take() {
            teardown(previous)?;
        }
        let started = Instant::now();
        last = Some(build()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one build"), times))
}

/// Which shards a snapshot's documents route to.
pub fn touched(map: &PartitionMap, snapshot: &EngineSnapshot) -> Vec<bool> {
    let mut hit = vec![false; map.shards()];
    for doc in &snapshot.docs {
        hit[map.shard_of(doc.user)] = true;
    }
    hit
}

/// Watches per-shard committed counts (`stats().ingested`) to see when
/// each expected commit lands. A commit is seen once every shard it
/// touched has processed as many snapshots as had been routed to it up
/// to and including that commit.
pub struct CommitWatch<T> {
    shards: Vec<Arc<dyn ShardTransport>>,
    routed: Vec<u64>,
    pending: VecDeque<(Vec<u64>, T)>,
    /// Each shard's queue depth at every poll.
    pub queue_depth: crate::stats::Gauge,
}

impl<T> CommitWatch<T> {
    pub fn new(shards: &[Arc<dyn ShardTransport>]) -> Result<Self, TgsError> {
        let routed = shards
            .iter()
            .map(|s| s.stats().map(|st| st.ingested))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            shards: shards.to_vec(),
            routed,
            pending: VecDeque::new(),
            queue_depth: Default::default(),
        })
    }

    /// Registers a commit routed to the `touched` shards.
    pub fn expect(&mut self, touched: &[bool], tag: T) {
        for (count, &hit) in self.routed.iter_mut().zip(touched) {
            *count += u64::from(hit);
        }
        self.pending.push_back((self.routed.clone(), tag));
    }

    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Reads every shard's committed count once and returns the commits
    /// now visible, oldest first, with the instant they were seen.
    pub fn poll(&mut self) -> Result<Vec<(T, Instant)>, TgsError> {
        if self.pending.is_empty() {
            return Ok(Vec::new());
        }
        let mut counts = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let st = shard.stats()?;
            self.queue_depth.record(st.queued as f64);
            counts.push(st.ingested);
        }
        let seen = Instant::now();
        let mut out = Vec::new();
        while let Some((need, _)) = self.pending.front() {
            if need.iter().zip(&counts).any(|(n, c)| c < n) {
                break;
            }
            let (_, tag) = self.pending.pop_front().expect("front exists");
            out.push((tag, seen));
        }
        Ok(out)
    }

    /// Polls until nothing is pending or `timeout` passes; returns what
    /// landed.
    pub fn drain(&mut self, timeout: Duration) -> Result<Vec<(T, Instant)>, TgsError> {
        let deadline = Instant::now() + timeout;
        let mut out = Vec::new();
        while !self.pending.is_empty() && Instant::now() < deadline {
            out.extend(self.poll()?);
            std::thread::sleep(POLL);
        }
        Ok(out)
    }
}

/// How often a waiting driver polls committed counts.
pub const POLL: Duration = Duration::from_micros(100);
