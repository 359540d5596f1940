//! End-to-end benchmark of the served IDL stack.
//!
//! ```text
//! idl-benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! idl-benchmark check [--runs N] [--seed N] [--seconds S] [--quick] [--out DIR]
//! ```
//!
//! `run --workload W` is one run of one workload, as `BENCHMARK.json`
//! declares it: the last line of standard output is one JSON object
//! `{correct, attempted, failed, metrics}` holding the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). `run` without a
//! workload runs all five, untraced window then traced pass, and prints
//! one report. `check` repeats the untraced suite on the same code and
//! compares the runs against the bounds. See the README beside this
//! package.

mod config;
mod driver;
mod gen;
mod json;
mod layers;
mod stats;
mod system;
mod trace;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use system::BenchResult;
use workloads::{Workload, ALL};

/// The default seed (the paper's year).
const DEFAULT_SEED: u64 = 1991;
/// The default measured window, in seconds: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// The `--quick` window.
const QUICK_SECONDS: f64 = 2.0;

/// The end-to-end metrics with direction and regression bound, as
/// `BENCHMARK.json` fixes them.
const BOUNDS: [(&str, bool, f64); 5] = [
    ("op_rps", true, 0.25),
    ("op_p50_us", false, 0.25),
    ("op_tail_us", false, 0.25),
    ("aux_p50_us", false, 0.25),
    ("setup_s", false, 0.25),
];

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
    out: PathBuf,
}

fn usage() -> String {
    "usage: idl-benchmark run|check [--workload point_read|wide_read|ho_read|feed_rw|restart_cycle] \
     [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--quick] [--out DIR]"
        .to_string()
}

fn default_out() -> PathBuf {
    // Run from the repository root (the declared command) or from the
    // package directory; either way the output stays inside the package.
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = argv.next().ok_or_else(usage)?;
    if command != "run" && command != "check" {
        return Err(usage());
    }
    let mut args = Args {
        command,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        runs: 2,
        out: default_out(),
    };
    let mut seconds_given = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.quick && !seconds_given {
        args.seconds = QUICK_SECONDS;
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if args.runs < 2 && args.command == "check" {
        return Err("check compares at least two runs".into());
    }
    Ok(args)
}

/// One run of one workload under the `BENCHMARK.json` contract.
fn run_one(args: &Args, w: Workload) -> BenchResult<bool> {
    let window = Duration::from_secs_f64(args.seconds);
    // (detailed result, correct, attempted, failed, the metrics of the mode)
    let (detail, correct, attempted, failed, metrics) = if args.trace {
        let r = layers::run_traced(w, args.seed, &args.out, window)?;
        (r.to_json(), r.correct(), r.attempted, r.failed, r.metrics())
    } else {
        let r = workloads::run_untraced(w, args.seed, &args.out, window)?;
        (r.to_json(w), r.correct(), r.attempted, r.failed, r.metrics())
    };
    let report = Json::obj([
        ("workload", Json::str(w.name())),
        ("traced", Json::Bool(args.trace)),
        ("config", config::describe(args.seed, args.seconds)),
        ("result", detail),
    ]);
    let kind = if args.trace { "layers" } else { "e2e" };
    let path = args.out.join(format!("{}.{kind}.json", w.name()));
    std::fs::write(&path, report.pretty()).map_err(system::ctx("write report"))?;
    eprintln!("report: {}", path.display());
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::metrics(&metrics)),
    ]);
    println!("{}", line.compact());
    Ok(correct)
}

/// Every workload, untraced window then traced pass, as one report.
fn run_suite(args: &Args) -> BenchResult<(Json, bool)> {
    let window = Duration::from_secs_f64(args.seconds);
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for w in ALL {
        eprintln!("{}: untraced window of {} s ...", w.name(), args.seconds);
        let e2e = workloads::run_untraced(w, args.seed, &args.out, window)?;
        eprintln!("{}: traced pass ...", w.name());
        let layered = layers::run_traced(w, args.seed, &args.out, window)?;
        all_correct &= e2e.correct() && layered.correct();
        per_workload.push((
            w.name(),
            Json::obj([("end_to_end", e2e.to_json(w)), ("per_layer", layered.to_json())]),
        ));
    }
    let report = Json::obj([
        ("config", config::describe(args.seed, args.seconds)),
        ("bounds", bounds_json()),
        ("workloads", Json::obj(per_workload)),
    ]);
    Ok((report, all_correct))
}

fn bounds_json() -> Json {
    Json::obj(BOUNDS.iter().map(|&(name, higher_is_better, bound)| {
        (
            name,
            Json::obj([
                ("better", Json::str(if higher_is_better { "higher" } else { "lower" })),
                ("bound", Json::Num(bound)),
            ]),
        )
    }))
}

/// Repeats the untraced suite on the same code and compares every later
/// run with the first, per workload and end-to-end metric.
fn check(args: &Args) -> BenchResult<bool> {
    let window = Duration::from_secs_f64(args.seconds);
    let mut runs: Vec<Vec<workloads::EndToEnd>> = Vec::new();
    for n in 0..args.runs {
        let mut results = Vec::new();
        for w in ALL {
            eprintln!("run {} of {}: {} ...", n + 1, args.runs, w.name());
            results.push(workloads::run_untraced(w, args.seed, &args.out, window)?);
        }
        runs.push(results);
    }
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<14} {:<11} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "run 1", "worst later", "worse", "bound"
    );
    for (i, w) in ALL.into_iter().enumerate() {
        let failed: u64 = runs.iter().map(|r| r[i].failed).sum();
        if failed > 0 {
            ok = false;
            println!("{:<14} {failed} failed operations", w.name());
        }
        let first = runs[0][i].metrics();
        for (m, &(name, higher_is_better, bound)) in BOUNDS.iter().enumerate() {
            assert_eq!(first[m].0, name, "BOUNDS follows the metric order");
            let base = first[m].1;
            // how much worse, as a share of the first run, the worst later run is
            let worse = runs[1..]
                .iter()
                .map(|r| {
                    let v = r[i].metrics()[m].1;
                    if higher_is_better {
                        (base - v) / base
                    } else {
                        (v - base) / base
                    }
                })
                .fold(f64::MIN, f64::max);
            let worst = if higher_is_better { base * (1.0 - worse) } else { base * (1.0 + worse) };
            let within = worse <= bound;
            let verdict = match (within, args.quick) {
                (true, _) => "ok",
                (false, true) => "outside (not enforced with --quick)",
                (false, false) => "OUTSIDE",
            };
            ok &= within || args.quick;
            println!(
                "{:<14} {:<11} {:>14.3} {:>14.3} {:>+7.1}% {:>5.0}%  {verdict}",
                w.name(),
                name,
                base,
                worst,
                worse * 100.0,
                bound * 100.0
            );
            rows.push(Json::obj([
                ("workload", Json::str(w.name())),
                ("metric", Json::str(name)),
                (
                    "values",
                    Json::Arr(runs.iter().map(|r| Json::Num(r[i].metrics()[m].1)).collect()),
                ),
                ("worse_by", Json::Num(worse)),
                ("bound", Json::Num(bound)),
                ("within", Json::Bool(within)),
            ]));
        }
    }
    let report = Json::obj([
        ("config", config::describe(args.seed, args.seconds)),
        ("enforced", Json::Bool(!args.quick)),
        ("comparisons", Json::Arr(rows)),
        (
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|r| Json::obj(ALL.iter().zip(r).map(|(w, e)| (w.name(), e.to_json(*w)))))
                    .collect(),
            ),
        ),
    ]);
    let path = args.out.join("check.json");
    std::fs::write(&path, report.pretty()).map_err(system::ctx("write check report"))?;
    eprintln!("report: {}", path.display());
    Ok(ok)
}

fn real_main() -> BenchResult<bool> {
    let args = parse_args(std::env::args().skip(1))?;
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; run with --release".into());
    }
    // The configuration is pinned in `config`; nothing may come from the
    // environment. Still single-threaded here.
    let idl_vars: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("IDL_"))
        .collect();
    for k in idl_vars {
        std::env::remove_var(k);
    }
    std::fs::create_dir_all(&args.out).map_err(system::ctx("create output directory"))?;
    match (args.command.as_str(), args.workload) {
        ("check", _) => check(&args),
        ("run", Some(w)) => run_one(&args, w),
        _ => {
            let (report, correct) = run_suite(&args)?;
            let path = args.out.join("report.json");
            std::fs::write(&path, report.pretty()).map_err(system::ctx("write report"))?;
            eprintln!("report: {}", path.display());
            println!("{}", report.pretty());
            Ok(correct)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "idl-benchmark: wrong answers, failed operations, or a metric outside its bound"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("idl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the names, units, directions
    /// and bounds it declares must be the ones the binary reports.
    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let declared = include_str!("../../BENCHMARK.json");
        for w in ALL {
            assert!(
                declared.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
                "{w:?}"
            );
        }
        let units = [("op_rps", "1/s"), ("setup_s", "s")];
        for (name, higher_is_better, bound) in BOUNDS {
            let unit = units.iter().find(|u| u.0 == name).map_or("us", |u| u.1);
            let better = if higher_is_better { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(declared.contains(&entry), "missing {entry}");
        }
        for (name, unit) in layers::METRICS {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(declared.contains(&entry), "missing {entry}");
        }
        assert_eq!(
            declared.matches("\"name\": ").count(),
            ALL.len() + BOUNDS.len() + layers::METRICS.len()
        );
        assert!(declared.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
    }
}
