//! The `tgs` command table, checked through the built binary: every
//! command is listed, every `--help` names exactly its command's flags
//! (`stream` and `serve` each the shared streaming flags plus their
//! own), and `stream` rejects flags it does not declare. Also through
//! the binary: `generate` is byte-reproducible, and a command whose
//! `--out` write fails exits nonzero without claiming it wrote.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The flags `stream` and `serve` share; both list every one.
const STREAMING: &[&str] = &[
    "corpus",
    "window-days",
    "k",
    "alpha",
    "beta",
    "gamma",
    "tau",
    "iters",
    "seed",
    "ghost-users",
    "max-skew",
    "merge-below",
    "out",
];

/// Each command with the flags it takes besides [`STREAMING`] (which
/// only `stream` and `serve` take).
const COMMANDS: &[(&str, &[&str])] = &[
    ("generate", &["preset", "seed", "out"]),
    (
        "analyze",
        &["corpus", "k", "alpha", "beta", "iters", "seed", "out"],
    ),
    ("stream", &["shards", "checkpoint", "stats"]),
    (
        "serve",
        &[
            "shards",
            "checkpoint",
            "stats",
            "checkpoint-every",
            "hold",
            "terminate",
        ],
    ),
    ("shard", &["listen", "range"]),
    (
        "query",
        &[
            "checkpoint",
            "connect",
            "timeline",
            "user",
            "at",
            "summary",
            "top-words",
            "words",
            "shard-info",
            "stats",
            "terminate",
        ],
    ),
    ("stats", &["corpus"]),
    (
        "soak",
        &[
            "users",
            "seed",
            "steps",
            "docs-per-step",
            "words-per-doc",
            "k",
            "iters",
            "shards",
            "queue-depth",
            "batch-bucket",
            "batch-max-docs",
            "budget-ms",
            "out",
            "max-peak-bytes",
            "smoke",
        ],
    ),
];

fn tgs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tgs"))
        .args(args)
        .output()
        .expect("run tgs")
}

/// A fresh directory for one test's files, named after the test.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tgs_cli_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `tgs generate --preset tiny --seed 42` into `path`.
fn generate_tiny(path: &Path) {
    let out = tgs(&[
        "generate",
        "--preset",
        "tiny",
        "--seed",
        "42",
        "--out",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "`tgs generate` failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The flag names a `tgs <cmd> --help` lists, sorted.
fn listed_flags(cmd: &str) -> Vec<String> {
    let out = tgs(&[cmd, "--help"]);
    assert!(out.status.success(), "`tgs {cmd} --help` failed");
    let text = String::from_utf8(out.stdout).expect("utf-8 help");
    let mut flags: Vec<String> = text
        .lines()
        .filter_map(|line| line.strip_prefix("  --"))
        .map(|rest| rest.split_whitespace().next().unwrap_or("").to_string())
        .collect();
    flags.sort();
    flags
}

#[test]
fn help_lists_the_eight_commands() {
    let out = tgs(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 help");
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("  "))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    let expected: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed, expected);
}

#[test]
fn each_command_help_lists_exactly_its_flags() {
    for &(cmd, own) in COMMANDS {
        let mut expected: Vec<String> = own.iter().map(|f| f.to_string()).collect();
        if cmd == "stream" || cmd == "serve" {
            expected.extend(STREAMING.iter().map(|f| f.to_string()));
        }
        expected.sort();
        assert_eq!(listed_flags(cmd), expected, "`tgs {cmd} --help`");
    }
}

#[test]
fn stream_rejects_in_run_checkpoint_flags() {
    // The flag check comes before the corpus is read, so no corpus is
    // needed to see it.
    let base = ["stream", "--corpus", "corpus.tsv", "--out", "timeline.tsv"];
    for (extra, flag) in [
        (&["--checkpoint-every", "2"][..], "checkpoint-every"),
        (&["--delta"][..], "delta"),
    ] {
        let run = tgs(&[&base[..], extra].concat());
        assert_eq!(run.status.code(), Some(1), "--{flag} must be refused");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains(&format!("unknown flag --{flag} for `tgs stream`")),
            "--{flag}: {stderr}"
        );
    }
}

#[test]
fn generate_writes_identical_bytes_for_one_seed() {
    let dir = scratch_dir("generate");
    let (a, b) = (dir.join("a.tsv"), dir.join("b.tsv"));
    generate_tiny(&a);
    generate_tiny(&b);
    let read = |path: &Path| std::fs::read(path).expect("read corpus");
    assert!(
        read(&a) == read(&b),
        "two `tgs generate --seed 42` runs wrote different bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_output_write_fails_the_command() {
    // `/dev/full` accepts the open and fails every write with ENOSPC.
    let full = Path::new("/dev/full");
    if !full.exists() {
        eprintln!("skipped: no /dev/full on this system");
        return;
    }
    let dir = scratch_dir("dev_full");
    let corpus = dir.join("corpus.tsv");
    generate_tiny(&corpus);
    let corpus = corpus.to_str().expect("utf-8 path");
    for args in [
        &["generate", "--preset", "tiny"][..],
        &["analyze", "--corpus", corpus][..],
        &["stream", "--corpus", corpus, "--iters", "8"][..],
    ] {
        let run = tgs(&[args, &["--out", "/dev/full"]].concat());
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "`tgs {}`: {stderr}", args[0]);
        assert!(
            !stderr.contains("wrote"),
            "`tgs {}` reported a write that failed: {stderr}",
            args[0]
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
