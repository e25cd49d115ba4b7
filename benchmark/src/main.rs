//! `benchmark`: the end-to-end and per-layer benchmark of the
//! tripartite-sentiment engine. `README.md` beside this package lists
//! the workloads, the metrics and how to compare two commits.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --all [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--smoke]
//! benchmark --spec            # prints BENCHMARK.json
//! ```
//!
//! A run prints each metric by name with its unit and sample count, then
//! one JSON result line (`correct`, `attempted`, `failed`, `metrics`),
//! and writes `target/benchmark/run.json` (plus
//! `target/benchmark/trace-<workload>.json` when traced). It exits
//! nonzero when any correctness check fails.

mod alloc;
mod backfill;
mod fleet;
mod fleet_tcp;
mod json;
mod open_loop;
mod replay;
mod spec;
mod stamp;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use tgs_core::TgsError;

use crate::json::Json;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::trace::Tracer;
use crate::workload::{Ctx, Outcome, Sizes};

#[global_allocator]
static HEAP: alloc::Metered = alloc::Metered;

const OUT_DIR: &str = "target/benchmark";

const USAGE: &str = "usage: benchmark (--workload NAME | --all) [--seed N] [--seconds S] \
                     [--trace 0|1] [--repeat N] [--smoke]\n       benchmark --spec";

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    spec: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: f64::NAN,
        trace: false,
        repeat: 1,
        smoke: false,
        spec: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--all" => parsed.workloads = Workload::ALL.to_vec(),
            "--smoke" => parsed.smoke = true,
            "--spec" => parsed.spec = true,
            "--workload" => {
                let v = value()?;
                let w = Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?;
                parsed.workloads.push(w);
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                parsed.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--repeat" => {
                let v = value()?;
                parsed.repeat = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(&v))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workloads.is_empty() && !parsed.spec {
        return Err("name a workload or pass --all".into());
    }
    if parsed.seconds.is_nan() {
        parsed.seconds = if parsed.smoke {
            0.5
        } else {
            spec::RUN_SECONDS as f64
        };
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.spec {
        print!("{}", spec::render());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = stamp::refuse_faults() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    match execute(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload once.
fn run_one(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    sizes: &Sizes,
) -> Result<(Outcome, Option<Json>), TgsError> {
    let ctx = Ctx {
        seed,
        seconds,
        sizes: sizes.clone(),
        tracer: traced.then(Tracer::new),
    };
    let mut out = match workload {
        Workload::Firehose | Workload::Dashboard => open_loop::run(&ctx, workload)?,
        Workload::Backfill => backfill::run(&ctx)?,
        Workload::FleetTcp => fleet_tcp::run(&ctx)?,
    };
    // The tail is reported but not gated: on a shared box its run-to-run
    // spread is too wide for a regression bound (see README.md).
    for (name, q) in [("latency_p95_ms", 0.95), ("latency_p99_ms", 0.99)] {
        out.extras.push((name, out.latency_ms.quantile(q), "ms"));
    }
    let trace = ctx.tracer.as_ref().map(|t| out.finish_trace(t));
    Ok((out, trace))
}

/// The result line's `metrics`: every end-to-end metric untraced, every
/// per-layer metric traced (0 for layers the workload never touches).
fn metrics(out: &Outcome, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
    if traced {
        for (name, _) in &out.layers {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "layer metric {name} is missing from the spec"
            );
        }
        PER_LAYER
            .iter()
            .map(|m| {
                let v = out
                    .layers
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name, v, m.unit)
            })
            .collect()
    } else {
        out.end_to_end()
            .into_iter()
            .map(|(name, v, _)| {
                let unit = spec::end_to_end(name).expect("spec metric").unit;
                (name, v, unit)
            })
            .collect()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, v, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
    ])
}

/// Prints a run for humans and returns its `run.json` entry.
fn report(out: &Outcome, seed: u64, traced: bool) -> Json {
    let w = out.workload;
    println!(
        "== {} (seed {seed}, {}, measured {:.2} s) — latency = {}",
        w.name(),
        if traced { "traced" } else { "untraced" },
        out.measured_s,
        w.latency_meaning()
    );
    let e2e = out.end_to_end();
    for &(name, v, n) in &e2e {
        let unit = spec::end_to_end(name).expect("spec metric").unit;
        println!("  {name:<26} {v:>14.4} {unit:<7} ({n} samples)");
    }
    for (name, v, unit) in &out.extras {
        println!("  {name:<26} {v:>14.4} {unit}");
    }
    for (name, v) in &out.layers {
        println!("  {name:<26} {v:>14.4}");
    }
    println!(
        "  operations: {} attempted, {} failed",
        out.attempted, out.failed
    );
    for c in &out.checks {
        println!(
            "  check {:<4} {} — {}",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    for (name, d) in &out.digests {
        println!("  digest {name} {d:016x}");
    }
    Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Int(seed)),
        ("traced", Json::Bool(traced)),
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Int(out.attempted)),
        ("failed", Json::Int(out.failed)),
        ("measured_s", Json::Num(out.measured_s)),
        (
            "end_to_end",
            Json::Arr(
                e2e.iter()
                    .map(|&(name, v, n)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("value", Json::Num(v)),
                            (
                                "unit",
                                Json::str(spec::end_to_end(name).expect("spec").unit),
                            ),
                            ("samples", Json::Int(n as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "extras",
            Json::obj(out.extras.iter().map(|(n, v, _)| (*n, Json::Num(*v)))),
        ),
        (
            "per_layer",
            Json::obj(out.layers.iter().map(|(n, v)| (*n, Json::Num(*v)))),
        ),
        (
            "checks",
            Json::Arr(
                out.checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name)),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "digests",
            Json::obj(
                out.digests
                    .iter()
                    .map(|(n, d)| (*n, Json::str(format!("{d:016x}")))),
            ),
        ),
    ])
}

fn write_out(name: &str, doc: &Json) -> Result<(), TgsError> {
    let path = format!("{OUT_DIR}/{name}");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")))
        .map_err(|e| TgsError::io(format!("cannot write {path}"), e))
}

fn execute(args: &Args) -> Result<bool, TgsError> {
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let stamp = stamp::box_stamp();
    println!("box: {stamp}");
    let mut runs = Vec::new();
    let mut repeats = Vec::new();
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut line_metrics: Vec<(String, f64, &str)> = Vec::new();
    let prefixed = args.workloads.len() > 1;
    for &w in &args.workloads {
        if args.repeat > 1 {
            let (entries, summary, ok) = repeat(w, args, &sizes)?;
            runs.extend(entries);
            repeats.push(summary);
            all_correct &= ok;
            continue;
        }
        // With several workloads a traced run also gets an untraced twin,
        // so the tracing overhead can be read off the difference.
        let passes = if args.trace && prefixed {
            vec![false, true]
        } else {
            vec![args.trace]
        };
        let mut untraced_e2e: Option<Vec<(&str, f64, usize)>> = None;
        for traced in passes {
            let (out, trace) = run_one(w, args.seed, args.seconds, traced, &sizes)?;
            runs.push(report(&out, args.seed, traced));
            if let Some(doc) = trace {
                let doc = Json::obj([
                    ("workload", Json::str(w.name())),
                    ("seed", Json::Int(args.seed)),
                    ("box", stamp.clone()),
                    ("trace", doc),
                ]);
                write_out(&format!("trace-{}.json", w.name()), &doc)?;
            }
            let e2e = out.end_to_end();
            if let (true, Some(base)) = (traced, &untraced_e2e) {
                print_overhead(base, &e2e);
            }
            if !traced {
                untraced_e2e = Some(e2e);
            }
            all_correct &= out.correct();
            attempted += out.attempted;
            failed += out.failed;
            if traced == args.trace {
                for (name, v, unit) in metrics(&out, traced) {
                    let name = if prefixed {
                        format!("{}.{name}", w.name())
                    } else {
                        name.to_string()
                    };
                    line_metrics.push((name, v, unit));
                }
            }
        }
    }
    write_out(
        "run.json",
        &Json::obj([
            ("box", stamp),
            (
                "args",
                Json::obj([
                    (
                        "workloads",
                        Json::Arr(args.workloads.iter().map(|w| Json::str(w.name())).collect()),
                    ),
                    ("seed", Json::Int(args.seed)),
                    ("seconds", Json::Num(args.seconds)),
                    ("trace", Json::Bool(args.trace)),
                    ("repeat", Json::Int(args.repeat as u64)),
                    ("smoke", Json::Bool(args.smoke)),
                ]),
            ),
            ("runs", Json::Arr(runs)),
            ("repeat", Json::Arr(repeats)),
        ]),
    )?;
    if args.repeat == 1 {
        println!(
            "{}",
            result_line(all_correct, attempted, failed, &line_metrics)
        );
    }
    Ok(all_correct)
}

fn print_overhead(untraced: &[(&str, f64, usize)], traced: &[(&str, f64, usize)]) {
    println!("  tracing overhead (traced − untraced):");
    for ((name, base, _), (_, with, _)) in untraced.iter().zip(traced) {
        let share = if *base != 0.0 {
            format!("{:+.1}%", (with - base) / base * 100.0)
        } else {
            "n/a".into()
        };
        println!("    {name:<24} {:>+14.4} ({share})", with - base);
    }
}

/// `--repeat N`: N untraced runs on seeds `seed..seed+N`; prints each
/// end-to-end metric's median and quartiles and flags a spread
/// (interquartile range over median) wider than the metric's bound.
fn repeat(w: Workload, args: &Args, sizes: &Sizes) -> Result<(Vec<Json>, Json, bool), TgsError> {
    let mut entries = Vec::with_capacity(args.repeat);
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut ok = true;
    for i in 0..args.repeat {
        let seed = args.seed + i as u64;
        let (out, _) = run_one(w, seed, args.seconds, false, sizes)?;
        entries.push(report(&out, seed, false));
        ok &= out.correct();
        for (slot, (_, v, _)) in values.iter_mut().zip(out.end_to_end()) {
            slot.push(v);
        }
    }
    println!(
        "== {} over {} seeds: median [q1, q3], spread = (q3 - q1) / median",
        w.name(),
        args.repeat
    );
    let mut rows = Vec::new();
    for (m, vals) in END_TO_END.iter().zip(&values) {
        let [q1, median, q3] = quartiles(vals);
        let spread = (q3 - q1) / median.abs().max(1e-12);
        let flag = if spread > m.bound {
            "WIDER THAN BOUND"
        } else if spread > m.bound / 3.0 {
            "over a third of bound"
        } else {
            "ok"
        };
        println!(
            "  {:<16} {median:>12.4} [{q1:.4}, {q3:.4}] {:<7} spread {spread:.4} bound {} {flag}",
            m.name, m.unit, m.bound
        );
        rows.push(Json::obj([
            ("name", Json::str(m.name)),
            ("median", Json::Num(median)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("spread", Json::Num(spread)),
            ("bound", Json::Num(m.bound)),
            (
                "values",
                Json::Arr(vals.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ]));
    }
    let summary = Json::obj([
        ("workload", Json::str(w.name())),
        ("runs", Json::Int(args.repeat as u64)),
        ("metrics", Json::Arr(rows)),
    ]);
    Ok((entries, summary, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_workload_traced_and_untraced() {
        for w in Workload::ALL {
            for traced in [false, true] {
                let (out, trace) = run_one(w, 42, 0.3, traced, &Sizes::smoke()).expect("smoke run");
                for c in &out.checks {
                    assert!(c.ok, "{}: {} — {}", w.name(), c.name, c.detail);
                }
                assert!(out.attempted > 0, "{}", w.name());
                assert_eq!(trace.is_some(), traced);
                let m = metrics(&out, traced);
                let expected = if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(m.len(), expected);
                if !traced {
                    assert!(m.iter().all(|(_, v, _)| *v > 0.0), "{}: {m:?}", w.name());
                }
            }
        }
    }

    #[test]
    fn arguments_parse_the_driver_form() {
        let argv: Vec<String> = "--workload fleet_tcp --seed 9 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).expect("valid");
        assert_eq!(a.workloads, vec![Workload::FleetTcp]);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
