//! Spans around the benchmark's calls into each layer.
//!
//! Every span is recorded from the benchmark's own code: around its
//! calls into the router, the batcher, the query API, the supervisor and
//! the checkpoint API, and — through [`Traced`], a pass-through
//! [`ShardTransport`] the traced fleets are built with — around each
//! call the router makes into a shard. A span records its layer and
//! operation, start, end, parent span and request id (a snapshot
//! timestamp or a query sequence number).
//!
//! Per layer the tracer keeps a count, the busy time, the time spent
//! waiting on child spans (a fan-out's children overlap, so waiting is
//! the smaller of their summed time and the interval they cover), the
//! self time (busy minus waiting) and the failures. Spans stay in memory
//! and are written out when the run ends; the log keeps the first
//! [`MAX_LOGGED`] spans, the per-layer totals cover all of them.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tgs_core::TgsError;
use tgs_engine::{
    ClusterSummary, EngineSnapshot, EngineStats, ShardTransport, TimelineEntry, UserSentiment,
};
use tgs_linalg::DenseMatrix;

use crate::json::Json;
use crate::stats::Samples;

/// Spans kept in the written log; later spans still count per layer.
pub const MAX_LOGGED: usize = 100_000;

/// Which client a span serves. Shard calls made on the router's fan-out
/// threads have no enclosing span on their own thread; they attach to
/// the innermost open top-level span of their role instead.
#[derive(Debug, Clone, Copy)]
pub enum Role {
    Write = 0,
    Read = 1,
}

/// Request id meaning "take the parent's".
const INHERIT: u64 = u64::MAX;

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

struct Open {
    parent: u64,
    request: u64,
    layer: &'static str,
    op: &'static str,
    start: Instant,
    top_level_role: Option<usize>,
    child_sum_ns: u64,
    child_span: Option<(Instant, Instant)>,
}

#[derive(Default)]
struct Layer {
    total_ns: u64,
    wait_ns: u64,
    failures: u64,
    durations_us: Samples,
}

struct Logged {
    id: u64,
    parent: u64,
    request: u64,
    layer: &'static str,
    op: &'static str,
    start_ns: u64,
    end_ns: u64,
    ok: bool,
}

#[derive(Default)]
struct State {
    open: HashMap<u64, Open>,
    layers: BTreeMap<(&'static str, &'static str), Layer>,
    log: Vec<Logged>,
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    active: [AtomicU64; 2],
    state: Mutex<State>,
    /// Measured cost of recording one span, for the overhead estimate.
    span_cost_ns: f64,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        let mut tracer = Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            active: [AtomicU64::new(0), AtomicU64::new(0)],
            state: Mutex::new(State::default()),
            span_cost_ns: 0.0,
        };
        // Time the span path itself, then discard the probe spans.
        const PROBES: u32 = 20_000;
        let started = Instant::now();
        for i in 0..PROBES {
            let _ = tracer.span(Role::Write, "calibrate", "noop", u64::from(i), || {
                Ok::<(), ()>(())
            });
        }
        tracer.span_cost_ns = started.elapsed().as_nanos() as f64 / f64::from(PROBES);
        *tracer.state.get_mut().expect("fresh tracer") = State::default();
        Arc::new(tracer)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a traced call panicked")
    }

    /// Runs `f` inside a span; a returned `Err` counts as a failure.
    pub fn span<T, E>(
        &self,
        role: Role,
        layer: &'static str,
        op: &'static str,
        request: u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let on_thread = CURRENT.with(Cell::get);
        let parent = if on_thread != 0 {
            on_thread
        } else {
            self.active[role as usize].load(Ordering::Relaxed)
        };
        let top_level_role = (parent == 0).then_some(role as usize);
        {
            let mut st = self.lock();
            let request = match (request, st.open.get(&parent)) {
                (INHERIT, Some(p)) => p.request,
                (INHERIT, None) => 0,
                (r, _) => r,
            };
            st.open.insert(
                id,
                Open {
                    parent,
                    request,
                    layer,
                    op,
                    start: Instant::now(),
                    top_level_role,
                    child_sum_ns: 0,
                    child_span: None,
                },
            );
        }
        if let Some(r) = top_level_role {
            self.active[r].store(id, Ordering::Relaxed);
        }
        CURRENT.with(|c| c.set(id));
        let out = f();
        CURRENT.with(|c| c.set(on_thread));
        self.close(id, out.is_ok());
        out
    }

    /// A shard call made by the router: attaches to the caller's span.
    fn child<T>(
        &self,
        role: Role,
        layer: &'static str,
        op: &'static str,
        f: impl FnOnce() -> Result<T, TgsError>,
    ) -> Result<T, TgsError> {
        self.span(role, layer, op, INHERIT, f)
    }

    fn close(&self, id: u64, ok: bool) {
        let end = Instant::now();
        let mut st = self.lock();
        let Some(span) = st.open.remove(&id) else {
            return;
        };
        if let Some(r) = span.top_level_role {
            self.active[r].store(0, Ordering::Relaxed);
        }
        let dur = end.duration_since(span.start);
        let dur_ns = dur.as_nanos() as u64;
        if let Some(parent) = st.open.get_mut(&span.parent) {
            parent.child_sum_ns += dur_ns;
            parent.child_span = Some(match parent.child_span {
                None => (span.start, end),
                Some((lo, hi)) => (lo.min(span.start), hi.max(end)),
            });
        }
        let waited = match span.child_span {
            Some((lo, hi)) => span
                .child_sum_ns
                .min(hi.duration_since(lo).as_nanos() as u64),
            None => 0,
        };
        let layer = st.layers.entry((span.layer, span.op)).or_default();
        layer.total_ns += dur_ns;
        layer.wait_ns += waited.min(dur_ns);
        layer.failures += u64::from(!ok);
        layer.durations_us.push(dur.as_secs_f64() * 1e6);
        if st.log.len() < MAX_LOGGED {
            let start_ns = span.start.duration_since(self.origin).as_nanos() as u64;
            st.log.push(Logged {
                id,
                parent: span.parent,
                request: span.request,
                layer: span.layer,
                op: span.op,
                start_ns,
                end_ns: start_ns + dur_ns,
                ok,
            });
        }
    }

    /// Durations (µs) of every span of one layer operation.
    pub fn durations_us(&self, layer: &str, op: &str) -> Samples {
        self.lock()
            .layers
            .iter()
            .find(|((l, o), _)| *l == layer && *o == op)
            .map(|(_, agg)| agg.durations_us.clone())
            .unwrap_or_default()
    }

    pub fn spans(&self) -> u64 {
        self.lock()
            .layers
            .values()
            .map(|agg| agg.durations_us.len() as u64)
            .sum()
    }

    /// Estimated share of `wall_s` spent recording spans.
    pub fn overhead_share(&self, wall_s: f64) -> f64 {
        self.spans() as f64 * self.span_cost_ns / (wall_s * 1e9).max(1.0)
    }

    /// The trace document: per-layer totals plus the span log.
    pub fn dump(&self) -> Json {
        let st = self.lock();
        let layers = st
            .layers
            .iter()
            .map(|((layer, op), agg)| {
                let d = &agg.durations_us;
                Json::obj([
                    ("layer", Json::str(format!("{layer}.{op}"))),
                    ("count", Json::Int(d.len() as u64)),
                    ("busy_ms", Json::Num(agg.total_ns as f64 / 1e6)),
                    (
                        "self_ms",
                        Json::Num(agg.total_ns.saturating_sub(agg.wait_ns) as f64 / 1e6),
                    ),
                    ("wait_ms", Json::Num(agg.wait_ns as f64 / 1e6)),
                    ("failures", Json::Int(agg.failures)),
                    ("p50_us", Json::Num(d.quantile(0.5))),
                    ("p99_us", Json::Num(d.quantile(0.99))),
                ])
            })
            .collect();
        let spans = st
            .log
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Int(s.id)),
                    ("parent", Json::Int(s.parent)),
                    ("request", Json::Int(s.request)),
                    ("name", Json::str(format!("{}.{}", s.layer, s.op))),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                    ("ok", Json::Bool(s.ok)),
                ])
            })
            .collect();
        Json::obj([
            ("span_cost_ns", Json::Num(self.span_cost_ns)),
            ("layers", Json::Arr(layers)),
            ("spans_logged", Json::Int(st.log.len() as u64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// A pass-through [`ShardTransport`] recording a span around every data
/// and checkpoint call the router makes into one shard. `layer` names
/// the shard kind (`"local"` in-process, `"net"` over TCP).
pub struct Traced {
    inner: Arc<dyn ShardTransport>,
    tracer: Arc<Tracer>,
    layer: &'static str,
}

impl Traced {
    pub fn wrap(
        inner: Arc<dyn ShardTransport>,
        tracer: &Arc<Tracer>,
        layer: &'static str,
    ) -> Arc<dyn ShardTransport> {
        Arc::new(Traced {
            inner,
            tracer: Arc::clone(tracer),
            layer,
        })
    }

    fn write<T>(
        &self,
        op: &'static str,
        f: impl FnOnce() -> Result<T, TgsError>,
    ) -> Result<T, TgsError> {
        self.tracer.child(Role::Write, self.layer, op, f)
    }

    fn read<T>(
        &self,
        op: &'static str,
        f: impl FnOnce() -> Result<T, TgsError>,
    ) -> Result<T, TgsError> {
        self.tracer.child(Role::Read, self.layer, op, f)
    }
}

impl ShardTransport for Traced {
    fn ingest(&self, generation: u64, snapshot: EngineSnapshot) -> Result<(), TgsError> {
        self.write("ingest", || self.inner.ingest(generation, snapshot))
    }

    fn timeline(&self, generation: u64, lo: u64, hi: u64) -> Result<Vec<TimelineEntry>, TgsError> {
        self.read("timeline", || self.inner.timeline(generation, lo, hi))
    }

    fn latest_timestamp(&self, generation: u64) -> Result<Option<u64>, TgsError> {
        self.read("latest_timestamp", || {
            self.inner.latest_timestamp(generation)
        })
    }

    fn user_sentiment(
        &self,
        generation: u64,
        user: usize,
        at: u64,
    ) -> Result<UserSentiment, TgsError> {
        self.read("user_sentiment", || {
            self.inner.user_sentiment(generation, user, at)
        })
    }

    fn user_timeline(
        &self,
        generation: u64,
        user: usize,
    ) -> Result<Vec<(u64, Vec<f64>)>, TgsError> {
        self.read("user_timeline", || {
            self.inner.user_timeline(generation, user)
        })
    }

    fn known_users(&self, generation: u64) -> Result<usize, TgsError> {
        self.read("known_users", || self.inner.known_users(generation))
    }

    fn cluster_summary(&self, generation: u64, t: u64) -> Result<ClusterSummary, TgsError> {
        self.read("cluster_summary", || {
            self.inner.cluster_summary(generation, t)
        })
    }

    fn sf_at(&self, generation: u64, t: u64) -> Result<DenseMatrix, TgsError> {
        self.read("sf_at", || self.inner.sf_at(generation, t))
    }

    fn flush(&self) -> Result<u64, TgsError> {
        self.write("flush", || self.inner.flush())
    }

    fn stats(&self) -> Result<EngineStats, TgsError> {
        self.write("stats", || self.inner.stats())
    }

    fn queue_has_room(&self) -> Result<bool, TgsError> {
        self.inner.queue_has_room()
    }

    fn timestamps(&self) -> Result<Vec<u64>, TgsError> {
        self.inner.timestamps()
    }

    fn k(&self) -> Result<usize, TgsError> {
        self.inner.k()
    }

    fn vocab_tokens(&self) -> Result<Vec<String>, TgsError> {
        self.inner.vocab_tokens()
    }

    fn user_factor(&self, user: usize) -> Result<Option<Vec<f64>>, TgsError> {
        self.inner.user_factor(user)
    }

    fn checkpoint_section(&self) -> Result<Vec<u8>, TgsError> {
        self.write("checkpoint_section", || self.inner.checkpoint_section())
    }

    fn checkpoint_base(&self) -> Result<(u64, Vec<u8>), TgsError> {
        self.write("checkpoint_base", || self.inner.checkpoint_base())
    }

    fn delta_since(&self, base_id: u64) -> Result<Option<Vec<u8>>, TgsError> {
        self.write("delta_since", || self.inner.delta_since(base_id))
    }

    fn export_users(&self, lo: usize, hi: usize) -> Result<Vec<u8>, TgsError> {
        self.inner.export_users(lo, hi)
    }

    fn import_users(&self, users: &[u8]) -> Result<(), TgsError> {
        self.inner.import_users(users)
    }

    fn spawn_sibling(&self) -> Result<Arc<dyn ShardTransport>, TgsError> {
        self.inner.spawn_sibling()
    }

    fn absorb_section(&self, section: &[u8]) -> Result<(), TgsError> {
        self.inner.absorb_section(section)
    }

    fn set_generation(&self, generation: u64) -> Result<(), TgsError> {
        self.inner.set_generation(generation)
    }

    fn request_core_set(&self, set_index: usize, n_sets: usize) {
        self.inner.request_core_set(set_index, n_sets);
    }

    fn shutdown(&self) -> Result<(), TgsError> {
        self.inner.shutdown()
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}
