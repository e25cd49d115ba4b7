//! `tgs` — command-line front end for the tripartite sentiment pipeline.
//!
//! ```text
//! tgs generate --preset prop30-small --seed 42 --out corpus.tsv
//! tgs analyze  --corpus corpus.tsv [--k 3 --alpha 0.05 --beta 0.8] --out sentiments.tsv
//! tgs stream   --corpus corpus.tsv [--window-days 1 --gamma 0.2 --shards 4] \
//!              [--ghost-users] [--max-skew 1.5] \
//!              --out timeline.tsv [--checkpoint engine.ckpt] [--stats]
//! tgs query    (--checkpoint engine.ckpt | --connect 127.0.0.1:7400)
//!              (--timeline LO..HI | --user U [--at T] | --summary T |
//!              --top-words T [--words N] | --shard-info | --stats | --terminate)
//! tgs stats    --corpus corpus.tsv
//! tgs shard    --listen 127.0.0.1:7401 [--range 0..500]
//! tgs serve    --shards 127.0.0.1:7401,127.0.0.1:7402 --corpus corpus.tsv \
//!              --out timeline.tsv [--checkpoint fleet.ckpt] \
//!              [--hold 127.0.0.1:7400] [--terminate]
//! tgs soak     [--users 2000 --steps 192 --shards 2 --batch-bucket 8] \
//!              [--budget-ms 10000] [--max-peak-bytes N] \
//!              [--out BENCH_soak.json] [--smoke]
//! ```
//!
//! `stream` runs the online solver (Algorithm 2) through the
//! [`ShardedEngine`] router (`--shards N` user-range shards, each its own
//! [`SentimentEngine`] worker; `--shards 1` is bit-identical to the
//! single-engine path) and can persist the whole session as a
//! checkpoint. `--ghost-users` keeps cross-shard re-tweet edges as ghost
//! rows (nothing dropped); `--max-skew X` turns the topology elastic —
//! when the routed tweet-count skew exceeds `X`, the hottest shard is
//! split at its load midpoint by a live rebalance. `query` restores any
//! checkpoint flavor (single-engine or multi-shard) and
//! serves the history API (`timeline`, `user`, `summary`, `top-words`,
//! `shard-info`) without re-solving anything. `--stats` surfaces the
//! ingest/backpressure metrics plus per-shard load and skew. Every
//! subcommand accepts `--help`, all flags are declared in one table, and
//! every failure is a typed [`TgsError`]. Each command's body lives in a
//! module: `corpus` (`generate`, `analyze`, `stats`), `stream` (`stream`,
//! `serve`, `shard`), `query` and `soak`.
//!
//! `shard` + `serve` are the distributed pair: each `tgs shard` process
//! hosts engine slots over the `tgs-net` framed TCP protocol, and
//! `tgs serve` deploys a deterministic cold fleet onto them and then
//! streams exactly like `tgs stream` — same flags, same outputs,
//! bit-identical timelines and checkpoints. `--merge-below X` (on both
//! streaming commands) is the elastic shrink trigger: when the coldest
//! shard's routed load falls below `X` of the per-shard mean it is
//! drained into its neighbour, the inverse of `--max-skew` splits.
//!
//! `serve` runs under fleet supervision: periodic baseline snapshots
//! (`--checkpoint-every N` windows — after the first full base each
//! refresh ships only a delta of changed bytes, counted as
//! `delta_refreshes`), background health probes, and automatic
//! respawn/re-seed of a dead shard from its baseline (base ⊕ deltas)
//! plus a bounded replay journal — a killed `tgs shard` process that
//! comes back is reconverged bit-identically, counted in the `respawns`
//! / `replayed_docs` stats. `--hold ADDR` keeps the fleet alive after
//! streaming and serves the history API over the wire protocol;
//! `tgs query --connect ADDR` is the matching client (`--stats` reads
//! the live merged counters, `--terminate` winds the held fleet down
//! cleanly). Seeded fault injection for chaos testing comes from the
//! `TGS_FAULTS` environment variable (see `crates/net/PROTOCOL.md`).
//!
//! `soak` is the load-test harness: a deterministic seeded Zipf
//! firehose ([`tgs_load::LoadGen`] via the facade) driven through
//! per-snapshot `try_ingest` and then through the micro-batching front
//! end under a wall-clock budget, recording throughput, drop rate,
//! queue depth, p50/p99/p999 step latency (log-linear histogram, ≤12.5%
//! quantile error) and the live-heap high-water mark (`peak_alloc_bytes`
//! from the counting global allocator) into a JSON artifact.
//! `--max-peak-bytes N` turns the high-water mark into a hard ceiling.
//! `--smoke` is the CI leg: tiny sizes, zero drops and a sane p99
//! asserted, nonzero exit on violation.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use tripartite_sentiment::data::{read_corpus, Corpus};
use tripartite_sentiment::prelude::*;

mod corpus;
mod query;
mod soak;
mod stream;

// ---------------------------------------------------------------------
// Live-heap accounting for `tgs soak`.
// ---------------------------------------------------------------------

/// A thin wrapper over the system allocator tracking live bytes and
/// their high-water mark, so soak runs can report `peak_alloc_bytes`
/// and `--smoke` can fail on a memory regression. Relaxed atomics — a
/// sampled monitoring surface, not a synchronization point; the
/// per-allocation cost is two relaxed RMW ops, invisible next to a
/// solver step.
mod alloc_meter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub struct MeteredAllocator;

    static LIVE: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    fn grow(n: u64) {
        let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    // SAFETY: every method hands its caller's arguments to `System`
    // unchanged and returns its result; the counters touch no memory.
    unsafe impl GlobalAlloc for MeteredAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                grow(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through this allocator
            // with `layout`, as `GlobalAlloc::dealloc` requires.
            unsafe { System.dealloc(ptr, layout) };
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: as for `dealloc`, and the caller upholds
            // `GlobalAlloc::realloc`'s conditions on `new_size`.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                if new_size >= layout.size() {
                    grow((new_size - layout.size()) as u64);
                } else {
                    LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
                }
            }
            p
        }
    }

    /// The live-heap high-water mark since the last reset.
    pub fn peak_bytes() -> u64 {
        PEAK.load(Ordering::Relaxed)
    }

    /// Drops the high-water mark back to the current live size, so a
    /// soak phase measures its own peak rather than inheriting setup's.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL_ALLOC: alloc_meter::MeteredAllocator = alloc_meter::MeteredAllocator;

// ---------------------------------------------------------------------
// The flag table: one declarative spec per subcommand.
// ---------------------------------------------------------------------

struct FlagSpec {
    name: &'static str,
    value: &'static str,
    help: &'static str,
    /// `None` + `required: false` = optional without default.
    default: Option<&'static str>,
    required: bool,
}

const fn req(name: &'static str, value: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value,
        help,
        default: None,
        required: true,
    }
}

const fn opt(
    name: &'static str,
    value: &'static str,
    default: &'static str,
    help: &'static str,
) -> FlagSpec {
    FlagSpec {
        name,
        value,
        help,
        default: Some(default),
        required: false,
    }
}

const fn maybe(name: &'static str, value: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value,
        help,
        default: None,
        required: false,
    }
}

/// A valueless boolean flag: present ⇒ `"true"`.
const fn switch(name: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value: "",
        help,
        default: None,
        required: false,
    }
}

struct CommandSpec {
    name: &'static str,
    about: &'static str,
    /// Flag groups, listed in order.
    flags: &'static [&'static [FlagSpec]],
    run: fn(&Flags) -> Result<(), TgsError>,
}

impl CommandSpec {
    fn flags(&self) -> impl Iterator<Item = &'static FlagSpec> {
        self.flags.iter().copied().flatten()
    }
}

/// The flags `stream` and `serve` share: the corpus, the online solver's
/// knobs, the elastic-topology triggers and the timeline output.
const STREAMING_FLAGS: &[FlagSpec] = &[
    req("corpus", "PATH", "input corpus file"),
    opt("window-days", "N", "1", "days per snapshot"),
    opt("k", "N", "3", "number of sentiment clusters"),
    opt(
        "alpha",
        "F",
        "0.9",
        "temporal feature-regularization weight",
    ),
    opt("beta", "F", "0.8", "graph-regularization weight"),
    opt("gamma", "F", "0.2", "temporal user-regularization weight"),
    opt("tau", "F", "0.9", "window decay factor"),
    opt("iters", "N", "40", "per-snapshot iteration cap"),
    opt("seed", "N", "42", "solver RNG seed"),
    switch(
        "ghost-users",
        "keep cross-shard retweets as ghost rows instead of dropping them",
    ),
    maybe(
        "max-skew",
        "X",
        "auto-split the hottest shard when tweet-count skew exceeds X (e.g. 1.5)",
    ),
    maybe(
        "merge-below",
        "X",
        "auto-merge the coldest shard when its load falls below X of the per-shard mean (e.g. 0.25)",
    ),
    req("out", "PATH", "output timeline file"),
];

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "generate",
        about: "Write a synthetic corpus in the TSV interchange format.",
        flags: &[&[
            req(
                "preset",
                "NAME",
                "tiny | prop30-small | prop37-small | prop30 | prop37",
            ),
            opt("seed", "N", "42", "generator RNG seed"),
            req("out", "PATH", "output corpus file"),
        ]],
        run: corpus::cmd_generate,
    },
    CommandSpec {
        name: "analyze",
        about: "Run the offline tri-clustering solver (Algorithm 1) over a corpus.",
        flags: &[&[
            req("corpus", "PATH", "input corpus file"),
            opt("k", "N", "3", "number of sentiment clusters"),
            opt("alpha", "F", "0.05", "lexicon-regularization weight"),
            opt("beta", "F", "0.8", "graph-regularization weight"),
            opt("iters", "N", "100", "iteration cap"),
            opt("seed", "N", "42", "solver RNG seed"),
            req("out", "PATH", "output sentiment assignments"),
        ]],
        run: corpus::cmd_analyze,
    },
    CommandSpec {
        name: "stream",
        about: "Stream daily snapshots through the SentimentEngine (Algorithm 2).",
        flags: &[
            STREAMING_FLAGS,
            &[
                opt(
                    "shards",
                    "N",
                    "1",
                    "user-range shards (one engine worker per shard)",
                ),
                maybe(
                    "checkpoint",
                    "PATH",
                    "also persist the full engine session for `tgs query`",
                ),
                switch(
                    "stats",
                    "print ingest/backpressure metrics after the stream",
                ),
            ],
        ],
        run: stream::cmd_stream,
    },
    CommandSpec {
        name: "serve",
        about: "Stream through a distributed fleet of `tgs shard` servers.",
        flags: &[
            &[req(
                "shards",
                "ADDRS",
                "comma-separated shard server addresses, one shard per server",
            )],
            STREAMING_FLAGS,
            &[
                maybe(
                    "checkpoint",
                    "PATH",
                    "assemble and persist the fleet-wide checkpoint for `tgs query`",
                ),
                switch(
                    "stats",
                    "print merged fleet metrics (including shard_unavailable and recovery counters)",
                ),
                opt(
                    "checkpoint-every",
                    "N",
                    "8",
                    "refresh the supervisor's per-shard recovery baselines every N windows",
                ),
                maybe(
                    "hold",
                    "ADDR",
                    "after streaming, keep the fleet alive and serve the history API over TCP at \
                     ADDR until a TERMINATE request (`tgs query --connect ADDR --terminate`)",
                ),
                switch(
                    "terminate",
                    "shut the shard servers down after streaming (with --hold: after the hold ends)",
                ),
            ],
        ],
        run: stream::cmd_serve,
    },
    CommandSpec {
        name: "shard",
        about: "Host engine shards over TCP for a `tgs serve` router.",
        flags: &[&[
            req(
                "listen",
                "ADDR",
                "address to bind, e.g. 127.0.0.1:7401 (port 0 picks a free port)",
            ),
            maybe(
                "range",
                "LO..HI",
                "declared user range; the router refuses to deploy a mismatched shard here",
            ),
        ]],
        run: stream::cmd_shard,
    },
    CommandSpec {
        name: "query",
        about: "Serve the history API from a checkpointed engine session.",
        flags: &[&[
            maybe("checkpoint", "PATH", "checkpoint written by `tgs stream`"),
            maybe(
                "connect",
                "ADDR",
                "query a held fleet (`tgs serve --hold ADDR`) instead of a checkpoint file",
            ),
            maybe(
                "timeline",
                "LO..HI",
                "print timeline entries in the range (or `all`)",
            ),
            maybe("user", "ID", "print a user's sentiment estimate"),
            maybe(
                "at",
                "T",
                "query time for --user (default: latest snapshot)",
            ),
            maybe("summary", "T", "print the cluster summary of snapshot T"),
            maybe(
                "top-words",
                "T",
                "print each cluster's top features at snapshot T",
            ),
            opt("words", "N", "8", "feature count for --top-words"),
            switch(
                "shard-info",
                "print the fleet's partition map and per-shard state",
            ),
            switch(
                "stats",
                "print the held fleet's live merged metrics, including recovery counters \
                 (needs --connect)",
            ),
            switch(
                "terminate",
                "wind the held fleet down after answering (needs --connect)",
            ),
        ]],
        run: query::cmd_query,
    },
    CommandSpec {
        name: "stats",
        about: "Print Table 3-style statistics of a corpus.",
        flags: &[&[req("corpus", "PATH", "input corpus file")]],
        run: corpus::cmd_stats,
    },
    CommandSpec {
        name: "soak",
        about: "Drive a deterministic Zipf firehose through the engine and record throughput.",
        flags: &[&[
            opt("users", "N", "2000", "synthetic user universe"),
            opt("seed", "N", "42", "load-generator and solver RNG seed"),
            opt("steps", "N", "192", "snapshots per phase (unbatched, then batched)"),
            opt("docs-per-step", "N", "16", "documents per generated snapshot"),
            opt("words-per-doc", "N", "8", "tokens per generated document"),
            opt("k", "N", "3", "number of sentiment clusters"),
            opt("iters", "N", "20", "per-snapshot iteration cap"),
            opt("shards", "N", "2", "user-range shards"),
            opt("queue-depth", "N", "64", "per-worker ingest queue bound"),
            opt(
                "batch-bucket",
                "N",
                "8",
                "batching time-bucket width (timestamps coalesce per bucket)",
            ),
            opt("batch-max-docs", "N", "4096", "flush a pending batch at this many docs"),
            opt("budget-ms", "MS", "10000", "wall-clock budget per phase"),
            opt("out", "PATH", "BENCH_soak.json", "JSON results file"),
            maybe(
                "max-peak-bytes",
                "N",
                "fail when a phase's live-heap high-water mark exceeds N bytes",
            ),
            switch(
                "smoke",
                "CI mode: tiny sizes, assert zero drops and a sane p99, nonzero exit on failure",
            ),
        ]],
        run: soak::cmd_soak,
    },
];

// ---------------------------------------------------------------------
// The one table-driven parser.
// ---------------------------------------------------------------------

struct Flags(HashMap<&'static str, String>);

impl Flags {
    fn str(&self, key: &str) -> &str {
        self.0
            .get_key_value(key)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("flag --{key} missing from its command's table"))
    }

    fn str_opt(&self, key: &str) -> Option<&str> {
        self.0.get_key_value(key).map(|(_, v)| v.as_str())
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, TgsError> {
        parse_value(key, self.str(key))
    }

    fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, TgsError> {
        self.str_opt(key).map(|v| parse_value(key, v)).transpose()
    }
}

fn parse_value<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, TgsError> {
    value
        .parse()
        .map_err(|_| TgsError::invalid_argument(format!("bad value for --{key}: '{value}'")))
}

fn parse_flags(spec: &CommandSpec, args: &[String]) -> Result<Flags, TgsError> {
    let mut values: HashMap<&'static str, String> = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(TgsError::invalid_argument(format!(
                "expected --flag, got '{arg}' (see `tgs {} --help`)",
                spec.name
            )));
        };
        let Some(flag) = spec.flags().find(|f| f.name == key) else {
            return Err(TgsError::invalid_argument(format!(
                "unknown flag --{key} for `tgs {}` (see `tgs {} --help`)",
                spec.name, spec.name
            )));
        };
        if flag.value.is_empty() {
            // A switch: presence is the value.
            values.insert(flag.name, "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| TgsError::invalid_argument(format!("--{key} needs a {}", flag.value)))?;
        values.insert(flag.name, value.clone());
    }
    for flag in spec.flags() {
        if values.contains_key(flag.name) {
            continue;
        }
        if let Some(default) = flag.default {
            values.insert(flag.name, default.to_string());
        } else if flag.required {
            return Err(TgsError::invalid_argument(format!(
                "--{} is required (see `tgs {} --help`)",
                flag.name, spec.name
            )));
        }
    }
    Ok(Flags(values))
}

fn command_help(spec: &CommandSpec) -> String {
    let mut usage = format!("USAGE:\n  tgs {}", spec.name);
    for f in spec.flags() {
        match (f.required, f.value.is_empty()) {
            (true, _) => usage.push_str(&format!(" --{} <{}>", f.name, f.value)),
            (false, true) => usage.push_str(&format!(" [--{}]", f.name)),
            (false, false) => usage.push_str(&format!(" [--{} <{}>]", f.name, f.value)),
        }
    }
    let mut out = format!("tgs {} — {}\n\n{usage}\n\nFLAGS:\n", spec.name, spec.about);
    for f in spec.flags() {
        let head = if f.value.is_empty() {
            format!("  --{}", f.name)
        } else {
            format!("  --{} <{}>", f.name, f.value)
        };
        let suffix = match f.default {
            Some(d) => format!("{} [default: {d}]", f.help),
            None if f.required => format!("{} (required)", f.help),
            None => f.help.to_string(),
        };
        out.push_str(&format!("{head:<24} {suffix}\n"));
    }
    out
}

fn global_usage() -> String {
    let mut out = String::from(
        "tgs — tripartite graph co-clustering for dynamic sentiment analysis\n\nCOMMANDS:\n",
    );
    for spec in COMMANDS {
        out.push_str(&format!("  {:<10} {}\n", spec.name, spec.about));
    }
    out.push_str("\nRun `tgs <command> --help` for the command's flags.");
    out
}

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), TgsError> {
    let Some(command) = args.first() else {
        eprintln!("{}", global_usage());
        return Err(TgsError::invalid_argument("missing command"));
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{}", global_usage());
        return Ok(());
    }
    let Some(spec) = COMMANDS.iter().find(|c| c.name == command.as_str()) else {
        return Err(TgsError::invalid_argument(format!(
            "unknown command '{command}' (run `tgs help`)"
        )));
    };
    if args[1..].iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", command_help(spec));
        return Ok(());
    }
    let flags = parse_flags(spec, &args[1..])?;
    (spec.run)(&flags)
}

// ---------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------

fn load_corpus(flags: &Flags) -> Result<Corpus, TgsError> {
    let path = flags.str("corpus");
    let file = File::open(path).map_err(|e| TgsError::io(format!("cannot open {path}"), e))?;
    read_corpus(BufReader::new(file)).map_err(|e| TgsError::invalid_argument(e.to_string()))
}

fn create_out(flags: &Flags) -> Result<(BufWriter<File>, String), TgsError> {
    let path = flags.str("out").to_string();
    let file = File::create(&path).map_err(|e| TgsError::io(format!("cannot create {path}"), e))?;
    Ok((BufWriter::new(file), path))
}

fn write_err(e: std::io::Error) -> TgsError {
    TgsError::io("write failed", e)
}

fn pipeline() -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_defaults();
    cfg.vocab.min_count = 2;
    cfg
}

fn sentiment_name(c: usize) -> &'static str {
    Sentiment::from_index(c).map(|s| s.as_str()).unwrap_or("?")
}
