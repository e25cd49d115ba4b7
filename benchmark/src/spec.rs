//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is exactly
//! [`render`]'s output (`benchmark --spec`), and a test keeps the two
//! identical, so this table is the one place either is edited.

use crate::json::Json;

/// Seconds one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 15;

/// A seed reserved for claims that must also hold on an input the
/// change was not tuned on; stamped into every output.
pub const HOLDOUT_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Firehose,
    Backfill,
    Dashboard,
    FleetTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Firehose,
        Workload::Backfill,
        Workload::Dashboard,
        Workload::FleetTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Firehose => "firehose",
            Workload::Backfill => "backfill",
            Workload::Dashboard => "dashboard",
            Workload::FleetTcp => "fleet_tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it loads.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Firehose => {
                "open loop of 16-doc Zipf snapshots at 1000/s into 2 in-process shards: the \
                 fixed per-step path (route, queue hop, bind, small solve, commit) dominates"
            }
            Workload::Backfill => {
                "closed-loop replay of the Prop 37 stream as 130 one-day snapshots with its \
                 election burst: large solves and matrix assembly dominate; planted labels"
            }
            Workload::Dashboard => {
                "500 snapshots/s batched in buckets of 8 beside one closed-loop query client: \
                 query fan-out, Sf merging and state locks shared with commit"
            }
            Workload::FleetTcp => {
                "closed loop of 128-doc windows over 2 loopback TCP shard servers under the \
                 supervisor: wire codec, round trips and delta checkpoint refreshes"
            }
        }
    }

    /// What the `latency_*` metrics time on this workload.
    pub fn latency_meaning(self) -> &'static str {
        match self {
            Workload::Firehose => "freshness: scheduled send of a snapshot to its commit seen",
            Workload::Backfill => "snapshot commit latency: ingest call to commit seen",
            Workload::Dashboard => "query latency over the whole query mix",
            Workload::FleetTcp => "window latency: ingest + flush + supervisor tick",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: f64::NAN,
    }
}

use Better::{Higher, Lower};

/// Reported by every untraced run of every workload.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("docs_per_s", "docs/s", Higher, 0.25),
    e2e("peak_heap_mb", "MiB", Lower, 0.15),
];

/// Reported by every traced run (0 where the workload does not exercise
/// the layer).
pub const PER_LAYER: &[MetricSpec] = &[
    layer("load.send_late_p99_ms", "ms", Lower),
    layer("batch.submit_us_p50", "us", Lower),
    layer("batch.coalesce_ratio", "ratio", Higher),
    layer("router.ingest_us_p50", "us", Lower),
    layer("router.ingest_us_p99", "us", Lower),
    layer("router.blocked_ms_total", "ms", Lower),
    layer("router.load_skew", "ratio", Lower),
    layer("worker.step_ms_p50", "ms", Lower),
    layer("worker.step_ms_p99", "ms", Lower),
    layer("worker.queue_depth_max", "count", Lower),
    layer("worker.queue_depth_mean", "count", Lower),
    layer("worker.steps", "count", Lower),
    layer("worker.attributed_share", "ratio", Higher),
    layer("text.encode_us_p50", "us", Lower),
    layer("data.assemble_us_p50", "us", Lower),
    layer("core.online.step_ms_p50", "ms", Lower),
    layer("core.online.step_ms_p99", "ms", Lower),
    layer("core.online.iters_per_step", "count", Lower),
    layer("core.online.us_per_iter", "us", Lower),
    layer("query.latest_us_p50", "us", Lower),
    layer("query.latest_us_p99", "us", Lower),
    layer("query.user_sentiment_us_p50", "us", Lower),
    layer("query.user_sentiment_us_p99", "us", Lower),
    layer("query.top_words_us_p50", "us", Lower),
    layer("query.top_words_us_p99", "us", Lower),
    layer("query.timeline_us_p50", "us", Lower),
    layer("query.timeline_us_p99", "us", Lower),
    layer("query.failures", "count", Lower),
    layer("ckpt.full_ms", "ms", Lower),
    layer("ckpt.full_bytes", "bytes", Lower),
    layer("delta.since_ms_p50", "ms", Lower),
    layer("delta.bytes_p50", "bytes", Lower),
    layer("delta.apply_ms", "ms", Lower),
    layer("wire.enc_snapshot_us_p50", "us", Lower),
    layer("wire.dec_snapshot_us_p50", "us", Lower),
    layer("wire.snapshot_bytes_p50", "bytes", Lower),
    layer("net.ingest_rtt_us_p50", "us", Lower),
    layer("net.ingest_rtt_us_p99", "us", Lower),
    layer("net.flush_rtt_us_p50", "us", Lower),
    layer("net.flush_rtt_us_p99", "us", Lower),
    layer("supervise.tick_us_p50", "us", Lower),
    layer("supervise.refresh_ms_p50", "ms", Lower),
    layer("supervise.refresh_ms_p99", "ms", Lower),
    layer("supervise.delta_refreshes", "count", Higher),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.latency_p50_ms", "ms", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The `BENCHMARK.json` document, formatted one entry per line.
pub fn render() -> String {
    fn list(items: Vec<Json>) -> String {
        let lines: Vec<String> = items.iter().map(|j| format!("    {j}")).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    }
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ]
    .into_iter()
    .map(Json::str)
    .collect();
    let workloads = Workload::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.name())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.name())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Arr(command),
        RUN_SECONDS,
        list(workloads),
        list(e2e),
        list(layers),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_rendered_spec() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            render(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- --spec \
             > BENCHMARK.json`"
        );
    }

    #[test]
    fn spec_respects_the_contract_limits() {
        let valid_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let mut names = std::collections::HashSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && names.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
    }
}
