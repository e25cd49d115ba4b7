//! `tgs` — command-line front end for the tripartite sentiment pipeline.
//!
//! ```text
//! tgs generate --preset prop30-small --seed 42 --out corpus.tsv
//! tgs analyze  --corpus corpus.tsv [--k 3 --alpha 0.05 --beta 0.8] --out sentiments.tsv
//! tgs stream   --corpus corpus.tsv [--window-days 1 --gamma 0.2 --shards 4] \
//!              [--ghost-users] [--max-skew 1.5] \
//!              [--checkpoint-every N [--delta]] \
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
//! split at its load midpoint by a live rebalance. `--checkpoint-every
//! N` snapshots the session every N windows in-run; with `--delta` the
//! cadence anchors one full base and then ships O(changes) delta
//! checkpoints, re-materializing locally and verifying base ⊕ deltas
//! stays byte-identical to a full snapshot (re-anchoring automatically
//! when a rebalance invalidates the base). `query` restores any
//! checkpoint flavor (single-engine or multi-shard) and
//! serves the history API (`timeline`, `user`, `summary`, `top-words`,
//! `shard-info`) without re-solving anything. `--stats` surfaces the
//! ingest/backpressure metrics plus per-shard load and skew. Every
//! subcommand accepts `--help`, all flags are declared in one table, and
//! every failure is a typed [`TgsError`].
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
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

use tripartite_sentiment::data::{presets, read_corpus, write_corpus, Corpus};
use tripartite_sentiment::net::{
    deploy_supervised, NetConfig, RouterEndpoint, ShardServer, ShardTransport, Supervisor,
    SupervisorConfig, TcpShard,
};
use tripartite_sentiment::prelude::*;

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

    unsafe impl GlobalAlloc for MeteredAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                grow(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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
    flags: &'static [FlagSpec],
    run: fn(&Flags) -> Result<(), TgsError>,
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "generate",
        about: "Write a synthetic corpus in the TSV interchange format.",
        flags: &[
            req(
                "preset",
                "NAME",
                "tiny | prop30-small | prop37-small | prop30 | prop37",
            ),
            opt("seed", "N", "42", "generator RNG seed"),
            req("out", "PATH", "output corpus file"),
        ],
        run: cmd_generate,
    },
    CommandSpec {
        name: "analyze",
        about: "Run the offline tri-clustering solver (Algorithm 1) over a corpus.",
        flags: &[
            req("corpus", "PATH", "input corpus file"),
            opt("k", "N", "3", "number of sentiment clusters"),
            opt("alpha", "F", "0.05", "lexicon-regularization weight"),
            opt("beta", "F", "0.8", "graph-regularization weight"),
            opt("iters", "N", "100", "iteration cap"),
            opt("seed", "N", "42", "solver RNG seed"),
            req("out", "PATH", "output sentiment assignments"),
        ],
        run: cmd_analyze,
    },
    CommandSpec {
        name: "stream",
        about: "Stream daily snapshots through the SentimentEngine (Algorithm 2).",
        flags: &[
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
            opt(
                "shards",
                "N",
                "1",
                "user-range shards (one engine worker per shard)",
            ),
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
            maybe(
                "checkpoint",
                "PATH",
                "also persist the full engine session for `tgs query`",
            ),
            maybe(
                "checkpoint-every",
                "N",
                "take an in-run checkpoint every N windows (full snapshots; deltas with --delta)",
            ),
            switch(
                "delta",
                "encode in-run checkpoints as O(changes) deltas against the previous base and \
                 verify base+deltas stays byte-identical to a full snapshot (needs \
                 --checkpoint-every)",
            ),
            switch(
                "stats",
                "print ingest/backpressure metrics after the stream",
            ),
        ],
        run: cmd_stream,
    },
    CommandSpec {
        name: "serve",
        about: "Stream through a distributed fleet of `tgs shard` servers.",
        flags: &[
            req(
                "shards",
                "ADDRS",
                "comma-separated shard server addresses, one shard per server",
            ),
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
                "after streaming, keep the fleet alive and serve the history API over TCP at ADDR \
                 until a TERMINATE request (`tgs query --connect ADDR --terminate`)",
            ),
            switch(
                "terminate",
                "shut the shard servers down after streaming (with --hold: after the hold ends)",
            ),
        ],
        run: cmd_serve,
    },
    CommandSpec {
        name: "shard",
        about: "Host engine shards over TCP for a `tgs serve` router.",
        flags: &[
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
        ],
        run: cmd_shard,
    },
    CommandSpec {
        name: "query",
        about: "Serve the history API from a checkpointed engine session.",
        flags: &[
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
        ],
        run: cmd_query,
    },
    CommandSpec {
        name: "stats",
        about: "Print Table 3-style statistics of a corpus.",
        flags: &[req("corpus", "PATH", "input corpus file")],
        run: cmd_stats,
    },
    CommandSpec {
        name: "soak",
        about: "Drive a deterministic Zipf firehose through the engine and record throughput.",
        flags: &[
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
        ],
        run: cmd_soak,
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
        let Some(flag) = spec.flags.iter().find(|f| f.name == key) else {
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
    for flag in spec.flags {
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
    for f in spec.flags {
        match (f.required, f.value.is_empty()) {
            (true, _) => usage.push_str(&format!(" --{} <{}>", f.name, f.value)),
            (false, true) => usage.push_str(&format!(" [--{}]", f.name)),
            (false, false) => usage.push_str(&format!(" [--{} <{}>]", f.name, f.value)),
        }
    }
    let mut out = format!("tgs {} — {}\n\n{usage}\n\nFLAGS:\n", spec.name, spec.about);
    for f in spec.flags {
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

// ---------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------

fn cmd_generate(flags: &Flags) -> Result<(), TgsError> {
    let seed: u64 = flags.get("seed")?;
    let preset = flags.str("preset");
    let cfg = match preset {
        "tiny" => presets::tiny(seed),
        "prop30-small" => presets::prop30_small(seed),
        "prop37-small" => presets::prop37_small(seed),
        "prop30" => presets::prop30(seed),
        "prop37" => presets::prop37(seed),
        other => {
            return Err(TgsError::invalid_argument(format!(
                "unknown preset '{other}'"
            )))
        }
    };
    let corpus = generate(&cfg);
    let (out, out_path) = create_out(flags)?;
    write_corpus(&corpus, out).map_err(write_err)?;
    eprintln!(
        "wrote {} tweets, {} users, {} retweets over {} days to {out_path}",
        corpus.num_tweets(),
        corpus.num_users(),
        corpus.retweets.len(),
        corpus.num_days
    );
    Ok(())
}

fn cmd_analyze(flags: &Flags) -> Result<(), TgsError> {
    let corpus = load_corpus(flags)?;
    let k: usize = flags.get("k")?;
    let config = OfflineConfig {
        k,
        alpha: flags.get("alpha")?,
        beta: flags.get("beta")?,
        max_iters: flags.get("iters")?,
        seed: flags.get("seed")?,
        ..Default::default()
    };
    // Validate before building matrices: a bad --k would otherwise reach
    // the lexicon prior as a panic instead of a typed error.
    config.try_validate()?;
    let inst = build_offline(&corpus, k, &pipeline());
    let input = TriInput {
        xp: &inst.xp,
        xu: &inst.xu,
        xr: &inst.xr,
        graph: &inst.graph,
        sf0: &inst.sf0,
    };
    let result = try_solve_offline(&input, &config)?;
    eprintln!(
        "solved in {} iterations (converged: {}); objective {:.2}",
        result.iterations, result.converged, result.objective
    );
    let (mut out, out_path) = create_out(flags)?;
    writeln!(out, "# kind\tid\tsentiment\tconfidence").map_err(write_err)?;
    let tweet_conf = tripartite_sentiment::core::label_confidence(&result.factors.sp);
    for (id, (&label, conf)) in result
        .tweet_labels()
        .iter()
        .zip(tweet_conf.iter())
        .enumerate()
    {
        writeln!(out, "tweet\t{id}\t{}\t{conf:.3}", sentiment_name(label)).map_err(write_err)?;
    }
    let user_conf = tripartite_sentiment::core::label_confidence(&result.factors.su);
    for (id, (&label, conf)) in result
        .user_labels()
        .iter()
        .zip(user_conf.iter())
        .enumerate()
    {
        writeln!(out, "user\t{id}\t{}\t{conf:.3}", sentiment_name(label)).map_err(write_err)?;
    }
    eprintln!("wrote sentiments to {out_path}");
    Ok(())
}

/// The solver knobs shared verbatim by `tgs stream` and `tgs serve`.
fn online_config(flags: &Flags) -> Result<OnlineConfig, TgsError> {
    Ok(OnlineConfig {
        k: flags.get("k")?,
        alpha: flags.get("alpha")?,
        beta: flags.get("beta")?,
        gamma: flags.get("gamma")?,
        tau: flags.get("tau")?,
        max_iters: flags.get("iters")?,
        seed: flags.get("seed")?,
        ..Default::default()
    })
}

/// The elastic-topology triggers: `--max-skew` splits the hottest
/// shard, `--merge-below` drains the coldest one into its neighbour.
struct ElasticPolicy {
    max_skew: Option<f64>,
    merge_below: Option<f64>,
}

fn elastic_policy(flags: &Flags) -> Result<ElasticPolicy, TgsError> {
    let max_skew: Option<f64> = flags.get_opt("max-skew")?;
    if let Some(x) = max_skew {
        if x.is_nan() || x < 1.0 {
            return Err(TgsError::invalid_argument(
                "--max-skew must be >= 1.0 (1.0 = perfectly even load)",
            ));
        }
    }
    let merge_below: Option<f64> = flags.get_opt("merge-below")?;
    if let Some(x) = merge_below {
        if !(x > 0.0 && x < 1.0) {
            return Err(TgsError::invalid_argument(
                "--merge-below must be in (0, 1): the cold shard's share of the per-shard mean",
            ));
        }
    }
    Ok(ElasticPolicy {
        max_skew,
        merge_below,
    })
}

/// Shared streaming body of `tgs stream` and `tgs serve`: fan the
/// corpus through the router window by window with the elastic policy
/// applied, then write the timeline/stats/checkpoint outputs. Keeping
/// both commands on this one code path is what makes a distributed run
/// flag-for-flag comparable to an in-process one.
/// In-run checkpoint cadence for `tgs stream --checkpoint-every N`.
///
/// Without `--delta` every cadence point takes a full fleet snapshot.
/// With `--delta` the first point anchors a base via
/// [`ShardedEngine::checkpoint_base`] and later points ship only
/// [`ShardedEngine::delta_since`] bytes; the locally re-materialized
/// checkpoint (base ⊕ deltas) is verified byte-identical to a fresh
/// full snapshot when the stream drains. Unavailable tips — e.g. after
/// a mid-run rebalance changed the partition fingerprint — re-base
/// transparently.
struct CheckpointCadence {
    every: u64,
    delta: bool,
    windows: u64,
    /// Delta mode: latest tips plus the materialized current state.
    anchor: Option<(FleetTips, ShardedCheckpoint)>,
    fulls: usize,
    deltas: usize,
    rebases: usize,
    delta_bytes: u64,
    full_bytes: u64,
}

impl CheckpointCadence {
    fn from_flags(flags: &Flags) -> Result<Option<Self>, TgsError> {
        let every: Option<u64> = flags.get_opt("checkpoint-every")?;
        let delta = flags.str_opt("delta").is_some();
        match every {
            None if delta => Err(TgsError::invalid_argument(
                "--delta needs an in-run cadence: pass --checkpoint-every N",
            )),
            None => Ok(None),
            Some(0) => Err(TgsError::invalid_argument(
                "--checkpoint-every must be >= 1",
            )),
            Some(every) => Ok(Some(Self {
                every,
                delta,
                windows: 0,
                anchor: None,
                fulls: 0,
                deltas: 0,
                rebases: 0,
                delta_bytes: 0,
                full_bytes: 0,
            })),
        }
    }

    /// Called once per ingested window; takes a checkpoint on cadence.
    fn tick(&mut self, engine: &ShardedEngine) -> Result<(), TgsError> {
        self.windows += 1;
        if !self.windows.is_multiple_of(self.every) {
            return Ok(());
        }
        self.take(engine)
    }

    fn take(&mut self, engine: &ShardedEngine) -> Result<(), TgsError> {
        if !self.delta {
            let ckpt = engine.checkpoint()?;
            self.fulls += 1;
            self.full_bytes += ckpt.len() as u64;
            return Ok(());
        }
        if let Some((tips, current)) = self.anchor.take() {
            if let Some(delta) = engine.delta_since(&tips)? {
                let next = ShardedEngine::apply_delta(&current, &delta)?;
                self.deltas += 1;
                self.delta_bytes += delta.len() as u64;
                self.full_bytes += next.len() as u64;
                self.anchor = Some((delta.tips()?, next));
                return Ok(());
            }
            // Tips unavailable (rebalanced fleet or aged-out marks):
            // fall through to a fresh base.
            self.rebases += 1;
        }
        let (tips, base) = engine.checkpoint_base()?;
        self.fulls += 1;
        self.full_bytes += base.len() as u64;
        self.anchor = Some((tips, base));
        Ok(())
    }

    /// Stream drained: take the closing checkpoint, then (delta mode)
    /// verify the materialized chain against a fresh full snapshot.
    fn finish(&mut self, engine: &ShardedEngine) -> Result<(), TgsError> {
        self.take(engine)?;
        if !self.delta {
            eprintln!(
                "in-run checkpoints: {} full snapshot(s), {} bytes total",
                self.fulls, self.full_bytes
            );
            return Ok(());
        }
        let (_, materialized) = self
            .anchor
            .as_ref()
            .expect("delta cadence finished without an anchor");
        let full = engine.checkpoint()?;
        if materialized.as_bytes() != full.as_bytes() {
            return Err(TgsError::corrupt(
                "delta checkpoint verification: base+deltas materialized differently \
                 from a full snapshot",
            ));
        }
        let saved = if self.delta_bytes > 0 && self.deltas > 0 {
            // Average full-equivalent size over the delta-shipped points.
            let full_equiv = self.full_bytes / (self.deltas + self.fulls) as u64;
            format!(
                " (avg delta {} bytes vs {} full — {:.1}x smaller)",
                self.delta_bytes / self.deltas as u64,
                full_equiv,
                full_equiv as f64 / (self.delta_bytes as f64 / self.deltas as f64),
            )
        } else {
            String::new()
        };
        eprintln!(
            "delta checkpoints: {} base(s) + {} delta(s), {} re-base(s), {} delta bytes{}; \
             base+deltas verified byte-identical to the full snapshot",
            self.fulls, self.deltas, self.rebases, self.delta_bytes, saved
        );
        Ok(())
    }
}

fn stream_and_report(
    engine: &ShardedEngine,
    corpus: &Corpus,
    flags: &Flags,
    supervisor: Option<&Supervisor>,
    mut cadence: Option<CheckpointCadence>,
) -> Result<(), TgsError> {
    let window: u32 = flags.get("window-days")?;
    if window == 0 {
        return Err(TgsError::invalid_argument("--window-days must be >= 1"));
    }
    let policy = elastic_policy(flags)?;
    let mut rebalances = 0usize;
    let mut merges = 0usize;
    for (lo, hi) in day_windows(corpus.num_days, window) {
        engine.ingest(EngineSnapshot::from_corpus_window(corpus, lo, hi))?;
        if let Some(sup) = supervisor {
            sup.tick();
        }
        if let Some(c) = cadence.as_mut() {
            c.tick(engine)?;
        }
        if let Some(x) = policy.max_skew {
            // The auto-trigger inspects router-side load counters (no
            // flush needed); an actual rebalance quiesces the fleet.
            if let Some(map) = engine.maybe_rebalance(x)? {
                rebalances += 1;
                eprintln!(
                    "rebalanced: skew exceeded {x}; now {} shards (boundaries {:?})",
                    map.shards(),
                    map.starts()
                );
            }
        }
        if let Some(x) = policy.merge_below {
            if let Some(map) = engine.maybe_merge(x)? {
                merges += 1;
                eprintln!(
                    "merged: coldest shard below {x} of mean load; now {} shards (boundaries {:?})",
                    map.shards(),
                    map.starts()
                );
            }
        }
    }
    let steps = engine.flush()?;
    if let Some(sup) = supervisor {
        // On-quiesce snapshot: the stream has drained, so the refreshed
        // baselines capture the complete run.
        sup.refresh_checkpoints();
    }
    if let Some(c) = cadence.as_mut() {
        c.finish(engine)?;
    }

    let query = engine.query();
    let k = query.k();
    let (mut out, out_path) = create_out(flags)?;
    let share_header: Vec<String> = (0..k).map(|c| format!("{}%", sentiment_name(c))).collect();
    writeln!(
        out,
        "# t\ttweets\tusers\tnew\tevolving\t{}",
        share_header.join("\t")
    )
    .map_err(write_err)?;
    for entry in query.timeline(..)? {
        let shares: Vec<String> = entry
            .tweet_shares()
            .iter()
            .map(|s| format!("{:.1}", 100.0 * s))
            .collect();
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            entry.timestamp,
            entry.tweets,
            entry.users,
            entry.new_users,
            entry.evolving_users,
            shares.join("\t"),
        )
        .map_err(write_err)?;
    }
    let final_shards = engine.shards();
    let mut topology_note = String::new();
    if rebalances > 0 {
        topology_note.push_str(&format!(" after {rebalances} rebalance(s)"));
    }
    if merges > 0 {
        topology_note.push_str(&format!(
            "{} {merges} merge(s)",
            if rebalances > 0 { " and" } else { " after" }
        ));
    }
    eprintln!(
        "processed {steps} snapshots across {final_shards} shard(s){topology_note}; wrote timeline to {out_path}"
    );

    if flags.str_opt("stats").is_some() {
        let s = engine.stats();
        eprintln!(
            "stats: queued {} | ingested {} | dropped_capacity {} | last_step {:.3} ms | \
             ghost edges {} | cross-shard retweets dropped {} | shard_unavailable {} | \
             simd {} | threads {}",
            s.queued,
            s.ingested,
            s.dropped_capacity,
            s.last_step_ns as f64 / 1e6,
            s.ghost_edges,
            s.dropped_cross_shard,
            s.shard_unavailable,
            s.simd,
            s.threads,
        );
        print_recovery_stats(&s);
        if let Some(sup) = supervisor {
            // Not part of the merged per-shard stats record: delta
            // refreshes are a supervisor-local count of baseline
            // updates that shipped only changed bytes.
            eprintln!(
                "supervisor: delta_refreshes {}",
                sup.counters()
                    .delta_refreshes
                    .load(std::sync::atomic::Ordering::Relaxed)
            );
        }
        print_latency_stats(&s.step_hist);
        let loads = engine.shard_loads();
        let skew = engine.load_skew();
        for l in &loads {
            eprintln!(
                "shard {}: users [{}, {}) | {} tweets | {} known users",
                l.shard, l.range.0, l.range.1, l.tweets, l.users
            );
        }
        eprintln!("load skew: {skew:.3} (hottest shard over per-shard mean)");
    }

    if let Some(path) = flags.str_opt("checkpoint") {
        let ckpt = engine.checkpoint()?;
        std::fs::write(path, ckpt.as_bytes())
            .map_err(|e| TgsError::io(format!("cannot write {path}"), e))?;
        eprintln!(
            "checkpointed the {final_shards}-shard engine session ({} bytes) to {path}",
            ckpt.len()
        );
    }
    Ok(())
}

/// The merged fleet's recovery counters — the supervision layer's
/// scoreboard (all zeros on an unsupervised or never-faulted run).
fn print_recovery_stats(s: &EngineStats) {
    eprintln!(
        "recovery: respawns {} | replayed_docs {} | degraded_queries {}",
        s.respawns, s.replayed_docs, s.degraded_queries,
    );
}

/// Step-latency quantiles, with "n/a" for an empty histogram instead of
/// a fabricated 0 ms reading.
fn print_latency_stats(hist: &LatencyHistogram) {
    let ms = |q: f64| match hist.quantile_opt(q) {
        Some(ns) => format!("{:.3} ms", ns as f64 / 1e6),
        None => "n/a".to_string(),
    };
    eprintln!(
        "step latency: p50 {} | p99 {} | p999 {} over {} steps ({} shed)",
        ms(0.50),
        ms(0.99),
        ms(0.999),
        hist.count(),
        hist.shed(),
    );
}

fn cmd_stream(flags: &Flags) -> Result<(), TgsError> {
    let corpus = load_corpus(flags)?;
    let shards: usize = flags.get("shards")?;
    let engine = EngineBuilder::new()
        .online(online_config(flags)?)
        .pipeline(pipeline())
        .ghost_users(flags.str_opt("ghost-users").is_some())
        .fit_sharded(&corpus, shards)?;
    let cadence = CheckpointCadence::from_flags(flags)?;
    stream_and_report(&engine, &corpus, flags, None, cadence)
}

fn cmd_serve(flags: &Flags) -> Result<(), TgsError> {
    let corpus = load_corpus(flags)?;
    let addrs: Vec<String> = flags
        .str("shards")
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err(TgsError::invalid_argument(
            "--shards needs at least one ADDR",
        ));
    }
    let checkpoint_every: u64 = flags.get("checkpoint-every")?;
    if checkpoint_every == 0 {
        return Err(TgsError::invalid_argument(
            "--checkpoint-every must be >= 1",
        ));
    }
    // Build the same deterministic cold fleet `tgs stream` would, ship
    // one checkpoint section per server, and route over TCP from then
    // on — restore is exact, so the runs stay bit-identical. The fleet
    // is supervised: each shard keeps a recovery baseline + replay
    // journal, and background probes respawn dead slots automatically.
    let template = EngineBuilder::new()
        .online(online_config(flags)?)
        .pipeline(pipeline())
        .ghost_users(flags.str_opt("ghost-users").is_some())
        .fit_sharded(&corpus, addrs.len())?;
    let sup_cfg = SupervisorConfig {
        checkpoint_every,
        ..SupervisorConfig::default()
    };
    let (engine, supervisor) = deploy_supervised(template, &addrs, &NetConfig::default(), sup_cfg)?;
    // Shared with the `--hold` endpoint, which needs its own handle for
    // the wire-serving thread pool.
    let engine = std::sync::Arc::new(engine);
    eprintln!(
        "deployed {} supervised shard(s) onto {}",
        addrs.len(),
        addrs.join(", ")
    );
    supervisor.start_probes();
    // `serve`'s --checkpoint-every drives the *supervisor's* recovery
    // baselines (delta-first since they anchor via CHECKPOINT_BASE);
    // the in-run cadence struct is `tgs stream`'s local equivalent.
    let streamed = stream_and_report(&engine, &corpus, flags, Some(&supervisor), None);

    if streamed.is_ok() {
        if let Some(hold_addr) = flags.str_opt("hold") {
            hold_fleet(&engine, hold_addr)?;
        }
    }
    supervisor.stop();
    streamed?;
    if flags.str_opt("terminate").is_some() {
        for addr in &addrs {
            TcpShard::connect(addr.as_str()).terminate()?;
        }
        eprintln!("terminated {} shard server(s)", addrs.len());
    }
    Ok(())
}

/// `tgs serve --hold`: host the deployed router itself as a wire-protocol
/// endpoint until a client sends TERMINATE, so queries (and further
/// ingest) keep working after the corpus stream has drained — including
/// degraded, partial answers while a shard is down mid-recovery.
fn hold_fleet(engine: &std::sync::Arc<ShardedEngine>, hold_addr: &str) -> Result<(), TgsError> {
    let server = ShardServer::bind(hold_addr, None)?;
    let bound = server.local_addr()?;
    server.add_transport(0, RouterEndpoint::new(std::sync::Arc::clone(engine)))?;
    // Scripts parse this line (same contract as `tgs shard`'s banner).
    println!("holding on {bound}");
    std::io::stdout().flush().map_err(write_err)?;
    server.run()?;
    eprintln!("hold ended: received TERMINATE");
    Ok(())
}

fn cmd_shard(flags: &Flags) -> Result<(), TgsError> {
    let listen = flags.str("listen");
    let range = flags
        .str_opt("range")
        .map(|spec| -> Result<(usize, usize), TgsError> {
            let (lo, hi) = spec.split_once("..").ok_or_else(|| {
                TgsError::invalid_argument(format!("bad range '{spec}': expected LO..HI"))
            })?;
            Ok((parse_value("range", lo)?, parse_value("range", hi)?))
        })
        .transpose()?;
    let server = ShardServer::bind(listen, range)?;
    let addr = server.local_addr()?;
    // Scripts and the loopback tests parse this line to learn the
    // `:0`-assigned port; flush so a piped stdout delivers it promptly.
    println!("listening on {addr}");
    std::io::stdout().flush().map_err(write_err)?;
    server.run()
}

fn cmd_query(flags: &Flags) -> Result<(), TgsError> {
    let wants_history = ["timeline", "user", "summary", "top-words", "shard-info"]
        .iter()
        .any(|f| flags.str_opt(f).is_some());
    let remote = match (flags.str_opt("checkpoint"), flags.str_opt("connect")) {
        (Some(_), Some(_)) => {
            return Err(TgsError::invalid_argument(
                "--checkpoint and --connect are mutually exclusive",
            ))
        }
        (None, None) => {
            return Err(TgsError::invalid_argument(
                "query needs a source: --checkpoint PATH or --connect ADDR",
            ))
        }
        (_, connect) => connect.map(TcpShard::connect),
    };
    if remote.is_none()
        && (flags.str_opt("stats").is_some() || flags.str_opt("terminate").is_some())
    {
        return Err(TgsError::invalid_argument(
            "--stats and --terminate read a *live* fleet: they need --connect, not --checkpoint",
        ));
    }

    if let Some(shard) = &remote {
        if flags.str_opt("stats").is_some() {
            // The held router's merged fleet metrics, straight off the
            // wire — including the supervisor's recovery counters.
            let s = shard.stats()?;
            println!(
                "queued {} | ingested {} | dropped_capacity {} | shard_unavailable {}",
                s.queued, s.ingested, s.dropped_capacity, s.shard_unavailable,
            );
            println!(
                "respawns {} | replayed_docs {} | degraded_queries {}",
                s.respawns, s.replayed_docs, s.degraded_queries,
            );
        }
        if !wants_history {
            if flags.str_opt("terminate").is_some() {
                shard.terminate()?;
                eprintln!("terminated the held fleet at {}", shard.addr());
            } else if flags.str_opt("stats").is_none() {
                return Err(TgsError::invalid_argument(
                    "query needs one of --timeline, --user, --summary, --top-words, \
                     --shard-info, --stats, --terminate (see `tgs query --help`)",
                ));
            }
            return Ok(());
        }
    }

    let bytes = match &remote {
        // A held fleet serializes its entire multi-shard session as the
        // hold slot's checkpoint section; one fetch, then every history
        // verb runs locally against the restored copy.
        Some(shard) => shard.checkpoint_section()?,
        None => {
            let path = flags.str("checkpoint");
            std::fs::read(path).map_err(|e| TgsError::io(format!("cannot read {path}"), e))?
        }
    };
    if let Some(shard) = &remote {
        if flags.str_opt("terminate").is_some() {
            shard.terminate()?;
            eprintln!("terminated the held fleet at {}", shard.addr());
        }
    }
    // Serves both checkpoint flavors: multi-shard streams rebuild the
    // fleet, single-engine streams are wrapped as a one-shard fleet.
    let engine = ShardedEngine::restore_any(bytes)?;
    let query = engine.query();

    if flags.str_opt("shard-info").is_some() {
        let map = engine.map();
        println!(
            "{} shard(s) over {} users | ghost mode {} | map fingerprint {:#018x}",
            map.shards(),
            map.universe(),
            if engine.ghost_mode() { "on" } else { "off" },
            map.fingerprint(),
        );
        for load in engine.shard_loads() {
            let (lo, hi) = load.range;
            println!(
                "shard {}: users [{lo}, {hi}){} | {} known users",
                load.shard,
                if load.shard + 1 == map.shards() {
                    " + overflow ids"
                } else {
                    ""
                },
                load.users,
            );
        }
        return Ok(());
    }
    if let Some(range) = flags.str_opt("timeline") {
        let (lo, hi) = parse_range(range)?;
        for entry in query.timeline(lo..hi)? {
            let shares: Vec<String> = entry
                .tweet_shares()
                .iter()
                .enumerate()
                .map(|(c, s)| format!("{} {:.1}%", sentiment_name(c), 100.0 * s))
                .collect();
            println!(
                "t={}: {} tweets, {} users ({} new, {} evolving), {}",
                entry.timestamp,
                entry.tweets,
                entry.users,
                entry.new_users,
                entry.evolving_users,
                shares.join(", "),
            );
        }
        return Ok(());
    }
    if let Some(user) = flags.get_opt::<usize>("user")? {
        let at = match flags.get_opt::<u64>("at")? {
            Some(t) => t,
            None => query
                .latest()?
                .map(|e| e.timestamp)
                .ok_or(TgsError::SnapshotUnavailable { timestamp: 0 })?,
        };
        let s = query.user_sentiment(user, at)?;
        let dist: Vec<String> = s
            .distribution
            .iter()
            .enumerate()
            .map(|(c, p)| format!("{} {:.3}", sentiment_name(c), p))
            .collect();
        println!(
            "user {user} at t={}: {} ({})",
            s.timestamp,
            sentiment_name(s.label()),
            dist.join(", "),
        );
        return Ok(());
    }
    if let Some(t) = flags.get_opt::<u64>("summary")? {
        let s = query.cluster_summary(t)?;
        for c in 0..s.tweet_counts.len() {
            println!(
                "{:<9} {:>6} tweets ({:>5.1}%), {:>6} users",
                sentiment_name(c),
                s.tweet_counts[c],
                100.0 * s.tweet_shares[c],
                s.user_counts[c],
            );
        }
        return Ok(());
    }
    if let Some(t) = flags.get_opt::<u64>("top-words")? {
        let words: usize = flags.get("words")?;
        for (c, cluster) in query.top_words(t, words)?.iter().enumerate() {
            let listed: Vec<String> = cluster
                .iter()
                .map(|(w, score)| format!("{w} ({score:.3})"))
                .collect();
            println!("{:<9} {}", sentiment_name(c), listed.join(", "));
        }
        return Ok(());
    }
    Err(TgsError::invalid_argument(
        "query needs one of --timeline, --user, --summary, --top-words (see `tgs query --help`)",
    ))
}

fn parse_range(spec: &str) -> Result<(u64, u64), TgsError> {
    if spec == "all" {
        return Ok((0, u64::MAX));
    }
    let (lo, hi) = spec.split_once("..").ok_or_else(|| {
        TgsError::invalid_argument(format!("bad range '{spec}': expected LO..HI or `all`"))
    })?;
    let lo = if lo.is_empty() {
        0
    } else {
        parse_value("timeline", lo)?
    };
    let hi = if hi.is_empty() {
        u64::MAX
    } else {
        parse_value("timeline", hi)?
    };
    Ok((lo, hi))
}

fn cmd_stats(flags: &Flags) -> Result<(), TgsError> {
    let corpus = load_corpus(flags)?;
    let s = corpus_stats(&corpus);
    println!("topic: {} ({} days)", corpus.topic, corpus.num_days);
    println!(
        "tweets: {} total, {} labeled pos, {} labeled neg",
        s.total_tweets, s.labeled_pos_tweets, s.labeled_neg_tweets
    );
    println!(
        "users:  {} total ({} pos / {} neg / {} neu labeled, {} unlabeled)",
        s.total_users,
        s.labeled_pos_users,
        s.labeled_neg_users,
        s.labeled_neu_users,
        s.unlabeled_users
    );
    println!("retweets: {}", s.total_retweets);
    Ok(())
}

// ---------------------------------------------------------------------
// `tgs soak` — the Zipf firehose harness.
// ---------------------------------------------------------------------

/// What one soak phase measured.
struct SoakPhase {
    id: &'static str,
    wall: std::time::Duration,
    snapshots: u64,
    docs: u64,
    solver_steps: u64,
    sheds: u64,
    queue_max: u64,
    queue_sum: u64,
    queue_samples: u64,
    batches: u64,
    coalesced: u64,
    /// Live-heap high-water mark over the phase (allocator-metered).
    peak_alloc_bytes: u64,
    stats: EngineStats,
}

impl SoakPhase {
    fn docs_per_sec(&self) -> f64 {
        self.docs as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn drop_rate(&self) -> f64 {
        let submissions = self.snapshots + self.sheds;
        if submissions == 0 {
            0.0
        } else {
            self.sheds as f64 / submissions as f64
        }
    }

    fn queue_mean(&self) -> f64 {
        if self.queue_samples == 0 {
            0.0
        } else {
            self.queue_sum as f64 / self.queue_samples as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"id\": \"soak/{}\",\n",
                "      \"wall_ms\": {:.3},\n",
                "      \"snapshots\": {},\n",
                "      \"docs\": {},\n",
                "      \"docs_per_sec\": {:.1},\n",
                "      \"solver_steps\": {},\n",
                "      \"sheds\": {},\n",
                "      \"drop_rate\": {:.6},\n",
                "      \"dropped_capacity\": {},\n",
                "      \"queue_depth_max\": {},\n",
                "      \"queue_depth_mean\": {:.2},\n",
                "      \"batches\": {},\n",
                "      \"snapshots_coalesced\": {},\n",
                "      \"peak_alloc_bytes\": {},\n",
                "      \"p50_ns\": {},\n",
                "      \"p99_ns\": {},\n",
                "      \"p999_ns\": {}\n",
                "    }}"
            ),
            self.id,
            self.wall.as_secs_f64() * 1e3,
            self.snapshots,
            self.docs,
            self.docs_per_sec(),
            self.solver_steps,
            self.sheds,
            self.drop_rate(),
            self.stats.dropped_capacity,
            self.queue_max,
            self.queue_mean(),
            self.batches,
            self.coalesced,
            self.peak_alloc_bytes,
            self.stats.step_hist.p50(),
            self.stats.step_hist.p99(),
            self.stats.step_hist.p999(),
        )
    }
}

/// Re-submits a shed snapshot until the fleet accepts it. The engine
/// hands rejected snapshots back allocation-free, so the retry loop
/// moves no bytes; past `deadline` it falls through to the blocking
/// `ingest` so a wedged phase still terminates.
fn ingest_with_retry(
    engine: &ShardedEngine,
    snapshot: EngineSnapshot,
    deadline: std::time::Instant,
    sheds: &mut u64,
) -> Result<(), TgsError> {
    let mut pending = snapshot;
    loop {
        match engine.try_ingest(pending)? {
            None => return Ok(()),
            Some(back) => {
                *sheds += 1;
                if std::time::Instant::now() >= deadline {
                    return engine.ingest(back);
                }
                pending = back;
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
    }
}

fn cmd_soak(flags: &Flags) -> Result<(), TgsError> {
    let smoke = flags.str_opt("smoke").is_some();
    let seed: u64 = flags.get("seed")?;
    let mut users: usize = flags.get("users")?;
    let mut steps: usize = flags.get("steps")?;
    let mut docs_per_step: usize = flags.get("docs-per-step")?;
    let words_per_doc: usize = flags.get("words-per-doc")?;
    let shards: usize = flags.get("shards")?;
    let mut queue_depth: usize = flags.get("queue-depth")?;
    let bucket: u64 = flags.get("batch-bucket")?;
    let batch_max_docs: usize = flags.get("batch-max-docs")?;
    let budget_ms: u64 = flags.get("budget-ms")?;
    if users < 2 {
        // The corpus generator's own minimum; fail typed before it
        // panics.
        return Err(TgsError::invalid_argument("--users must be >= 2"));
    }
    if smoke {
        // CI leg: small enough to finish in seconds, queue deep enough
        // that nothing sheds — any drop is then a regression.
        users = users.min(200);
        steps = steps.min(24);
        docs_per_step = docs_per_step.min(8);
        queue_depth = queue_depth.max(256);
    }

    // Fit the vocabulary on a corpus with the same user universe the
    // generator will address, so routing is even and generated tokens
    // survive encoding.
    let mut gcfg = presets::tiny(seed);
    gcfg.num_users = users;
    gcfg.total_tweets = (2 * users).max(600);
    let corpus = generate(&gcfg);

    let build = |batched: bool| -> Result<ShardedEngine, TgsError> {
        let mut b = EngineBuilder::new()
            .online(OnlineConfig {
                k: flags.get("k")?,
                max_iters: flags.get("iters")?,
                seed,
                ..Default::default()
            })
            .pipeline(pipeline())
            .queue_depth(queue_depth);
        if batched {
            b = b.batch_bucket_width(bucket).batch_max_docs(batch_max_docs);
        }
        b.fit_sharded(&corpus, shards)
    };

    let load_config = |_phase: &str| LoadConfig {
        seed,
        users,
        docs_per_step,
        words_per_doc,
        ..LoadConfig::default()
    };

    let budget = std::time::Duration::from_millis(budget_ms);

    // Phase 1: one try_ingest (one solver step) per generated snapshot.
    let engine = build(false)?;
    let words = engine.vocabulary().tokens().to_vec();
    let mut gen = LoadGen::new(load_config("unbatched"), words.clone())?;
    alloc_meter::reset_peak();
    let deadline = std::time::Instant::now() + budget;
    let started = std::time::Instant::now();
    let mut unbatched = SoakPhase {
        id: "unbatched",
        wall: std::time::Duration::ZERO,
        snapshots: 0,
        docs: 0,
        solver_steps: 0,
        sheds: 0,
        queue_max: 0,
        queue_sum: 0,
        queue_samples: 0,
        batches: 0,
        coalesced: 0,
        peak_alloc_bytes: 0,
        stats: engine.stats(),
    };
    while gen.step() < steps && std::time::Instant::now() < deadline {
        let snap = gen.next_snapshot();
        unbatched.docs += snap.docs.len() as u64;
        ingest_with_retry(&engine, snap, deadline, &mut unbatched.sheds)?;
        unbatched.snapshots += 1;
        if unbatched.snapshots.is_multiple_of(8) {
            let q = engine.stats().queued;
            unbatched.queue_max = unbatched.queue_max.max(q);
            unbatched.queue_sum += q;
            unbatched.queue_samples += 1;
        }
    }
    unbatched.solver_steps = engine.flush()?;
    unbatched.wall = started.elapsed();
    unbatched.peak_alloc_bytes = alloc_meter::peak_bytes();
    unbatched.stats = engine.stats();
    engine.shutdown()?;

    // Phase 2: the same seeded traffic through the batching front end —
    // same-bucket snapshots coalesce into one assembled solver step.
    let engine = build(true)?;
    let mut gen = LoadGen::new(load_config("batched"), words)?;
    alloc_meter::reset_peak();
    let deadline = std::time::Instant::now() + budget;
    let started = std::time::Instant::now();
    let mut batched = SoakPhase {
        id: "batched",
        wall: std::time::Duration::ZERO,
        snapshots: 0,
        docs: 0,
        solver_steps: 0,
        sheds: 0,
        queue_max: 0,
        queue_sum: 0,
        queue_samples: 0,
        batches: 0,
        coalesced: 0,
        peak_alloc_bytes: 0,
        stats: engine.stats(),
    };
    {
        let mut batcher = engine.batching();
        while gen.step() < steps && std::time::Instant::now() < deadline {
            let snap = gen.next_snapshot();
            batched.docs += snap.docs.len() as u64;
            if let Some(shed) = batcher.submit(snap)? {
                ingest_with_retry(&engine, shed, deadline, &mut batched.sheds)?;
            }
            batched.snapshots += 1;
            if batched.snapshots.is_multiple_of(8) {
                let q = engine.stats().queued;
                batched.queue_max = batched.queue_max.max(q);
                batched.queue_sum += q;
                batched.queue_samples += 1;
            }
        }
        if let Some(shed) = batcher.flush()? {
            ingest_with_retry(&engine, shed, deadline, &mut batched.sheds)?;
        }
        batched.batches = batcher.batches_flushed();
        batched.coalesced = batcher.snapshots_coalesced();
    }
    batched.solver_steps = engine.flush()?;
    batched.wall = started.elapsed();
    batched.peak_alloc_bytes = alloc_meter::peak_bytes();
    batched.stats = engine.stats();
    engine.shutdown()?;

    for p in [&unbatched, &batched] {
        eprintln!(
            "{}: {} docs in {:.1} ms ({:.0} docs/s) | {} snapshots -> {} solver steps | \
             {} sheds (drop rate {:.4}) | queue max {} mean {:.1} | \
             p50 {:.3} ms p99 {:.3} ms p999 {:.3} ms | peak alloc {:.1} MiB",
            p.id,
            p.docs,
            p.wall.as_secs_f64() * 1e3,
            p.docs_per_sec(),
            p.snapshots,
            p.solver_steps,
            p.sheds,
            p.drop_rate(),
            p.queue_max,
            p.queue_mean(),
            p.stats.step_hist.p50() as f64 / 1e6,
            p.stats.step_hist.p99() as f64 / 1e6,
            p.stats.step_hist.p999() as f64 / 1e6,
            p.peak_alloc_bytes as f64 / (1024.0 * 1024.0),
        );
    }
    let speedup = batched.docs_per_sec() / unbatched.docs_per_sec().max(1e-9);
    eprintln!("batched/unbatched throughput: {speedup:.2}x");

    let out_path = flags.str("out");
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema_version\": 1,\n",
            "  \"config\": {{\n",
            "    \"seed\": {}, \"users\": {}, \"steps\": {}, \"docs_per_step\": {},\n",
            "    \"words_per_doc\": {}, \"shards\": {}, \"queue_depth\": {},\n",
            "    \"batch_bucket\": {}, \"batch_max_docs\": {}, \"budget_ms\": {}, \"smoke\": {}\n",
            "  }},\n",
            "  \"benchmarks\": [\n{},\n{}\n  ]\n",
            "}}\n"
        ),
        seed,
        users,
        steps,
        docs_per_step,
        words_per_doc,
        shards,
        queue_depth,
        bucket,
        batch_max_docs,
        budget_ms,
        smoke,
        unbatched.to_json(),
        batched.to_json(),
    );
    std::fs::write(out_path, json)
        .map_err(|e| TgsError::io(format!("cannot write {out_path}"), e))?;
    eprintln!("wrote {out_path}");

    // The memory ceiling is its own gate (not only --smoke) so ad-hoc
    // soak runs can also fail fast on a live-heap regression.
    if let Some(ceiling) = flags.get_opt::<u64>("max-peak-bytes")? {
        for p in [&unbatched, &batched] {
            if p.peak_alloc_bytes > ceiling {
                return Err(TgsError::invalid_argument(format!(
                    "soak: phase {} peak live-heap {} bytes exceeds the --max-peak-bytes \
                     ceiling of {} bytes",
                    p.id, p.peak_alloc_bytes, ceiling
                )));
            }
        }
    }

    if smoke {
        for p in [&unbatched, &batched] {
            if p.stats.dropped_capacity > 0 || p.sheds > 0 {
                return Err(TgsError::invalid_argument(format!(
                    "soak smoke: phase {} shed {} / dropped {} snapshots (expected 0)",
                    p.id, p.sheds, p.stats.dropped_capacity
                )));
            }
            let p99 = p.stats.step_hist.p99();
            if p99 > 30_000_000_000 {
                return Err(TgsError::invalid_argument(format!(
                    "soak smoke: phase {} p99 step latency {} ns is implausible",
                    p.id, p99
                )));
            }
        }
        if batched.solver_steps >= unbatched.solver_steps {
            return Err(TgsError::invalid_argument(format!(
                "soak smoke: batching coalesced nothing ({} -> {} solver steps)",
                unbatched.solver_steps, batched.solver_steps
            )));
        }
        eprintln!("soak smoke: ok");
    }
    Ok(())
}
