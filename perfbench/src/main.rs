//! `nomad-perfbench`: the repository's benchmark.
//!
//! One run of one workload (what `BENCHMARK.json`'s command does):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-dense --seed 1 --seconds 20 --trace 0
//! ```
//!
//! prints gate results and the host block on stderr, and as the last
//! line of stdout one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (every end-to-end metric with `--trace 0`, every
//! per-layer metric with `--trace 1`; a traced run also writes its spans
//! to `perfbench/out/`).
//!
//! `--all [--runs N] [--seconds S]` runs every workload N times untraced
//! (seeds 1..=N; S defaults to 20, as in `BENCHMARK.json`) and once
//! traced, prints each metric's median, quartiles and sample count,
//! writes the per-run values as TSV to `perfbench/out/`, and exits
//! non-zero if any run failed a gate.  `--compare PARENT CANDIDATE`
//! reads two such TSV files and flags every end-to-end metric whose
//! median got worse by more than its bound.

mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use nomad_perfbench::host::{json_str, Host};
use nomad_perfbench::metrics::{END_TO_END, PER_LAYER};
use nomad_perfbench::stats::{quartiles, regressed};

/// Where traced runs and `--all` write their artifacts (inside the
/// checkout, ignored by git).
const OUT_DIR: &str = "perfbench/out";

fn main() -> ExitCode {
    // Process workloads re-exec this binary as rank children.
    nomad_net::child_entry();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str, default: Option<u64>) -> Result<u64, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} expects a whole number, got {v:?}")),
        None => default.ok_or_else(|| format!("missing {name}")),
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--all") {
        let runs = number(args, "--runs", Some(10))?;
        let seconds = number(args, "--seconds", Some(20))?;
        return run_all(runs, seconds);
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(parent), Some(candidate)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare needs PARENT.tsv CANDIDATE.tsv".into());
        };
        return compare(parent, candidate);
    }
    if let Some(defect) = flag(args, "--repro") {
        return workloads::repro(defect).map(|()| ExitCode::SUCCESS);
    }
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let seed = number(args, "--seed", None)?;
    let seconds = number(args, "--seconds", Some(20))?;
    let trace = match number(args, "--trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace expects 0 or 1, got {t}")),
    };
    run_one(workload, seed, seconds, trace)
}

fn run_one(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ExitCode, String> {
    let host = Host::detect().to_json();
    eprintln!("host: {host}");
    let report = workloads::run(workload, seed, seconds, trace, &host)?;
    for note in &report.notes {
        eprintln!("{note}");
    }
    if let Some(jsonl) = &report.spans_jsonl {
        let path = format!("{OUT_DIR}/spans-{workload}-seed{seed}.jsonl");
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, jsonl));
        match written {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    let wanted: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        // A layer the workload never enters reads 0.
        let value = report.get(name).unwrap_or(0.0);
        let value = if value.is_finite() { value } else { -1.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    let correct = report.correct
        && END_TO_END
            .iter()
            .all(|m| report.get(m.name).is_some_and(f64::is_finite));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.calls + report.queries,
        report.call_failures + report.query_failures
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    failed: u64,
    values: BTreeMap<String, f64>,
}

/// Parses the result line this binary prints (a fixed shape, so a small
/// scanner suffices: `"name": {"value": V, "unit": "U"}` pairs).
fn parse_result(line: &str) -> Option<ChildResult> {
    let correct = line.starts_with("{\"correct\": true");
    let failed = line
        .split_once("\"failed\": ")?
        .1
        .split_once(',')?
        .0
        .parse()
        .ok()?;
    let metrics = line.split_once("\"metrics\": {")?.1;
    let mut values = BTreeMap::new();
    for part in metrics.split("}, ") {
        let (name, rest) = part.split_once(": {\"value\": ")?;
        let value = rest.split_once(',')?.0.parse().ok()?;
        values.insert(name.trim_matches('"').to_string(), value);
    }
    Some(ChildResult {
        correct,
        failed,
        values,
    })
}

fn child_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let parsed = parse_result(line);
    if !out.status.success() || parsed.is_none() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    parsed.ok_or_else(|| format!("{workload} seed {seed}: no result line ({})", out.status))
}

fn run_all(runs: u64, seconds: u64) -> Result<ExitCode, String> {
    let host = Host::detect();
    println!("host: {}", host.to_json());
    let mut tsv = String::from("workload\tseed\tmetric\tvalue\n");
    let mut ok = true;
    for workload in workloads::names() {
        let mut per_metric: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut failed = Vec::new();
        for seed in 1..=runs {
            match child_run(workload, seed, seconds, false) {
                Ok(r) => {
                    ok &= r.correct;
                    failed.push(r.failed);
                    for m in END_TO_END {
                        let v = r.values.get(m.name).copied().unwrap_or(f64::NAN);
                        per_metric.entry(m.name).or_default().push(v);
                        let _ = writeln!(tsv, "{workload}\t{seed}\t{}\t{v}", m.name);
                    }
                }
                Err(e) => {
                    ok = false;
                    eprintln!("{e}");
                }
            }
        }
        println!("\n## {workload} ({runs} untraced runs of {seconds} s)");
        println!("failed operations per run: {failed:?}");
        println!("| metric | unit | median | q1 | q3 | n | spread | bound |");
        println!("|---|---|---|---|---|---|---|---|");
        for m in END_TO_END {
            let v = per_metric.get(m.name).cloned().unwrap_or_default();
            if let Some((q1, med, q3)) = quartiles(&v) {
                println!(
                    "| {} | {} | {med:.6} | {q1:.6} | {q3:.6} | {} | {:.4} | {} |",
                    m.name,
                    m.unit,
                    v.len(),
                    (q3 - q1) / med.abs(),
                    m.bound
                );
            }
        }
        match child_run(workload, runs + 1, seconds, true) {
            Ok(r) => {
                ok &= r.correct;
                println!("\nper-layer (traced run, seed {}):", runs + 1);
                for m in PER_LAYER {
                    let v = r.values.get(m.name).copied().unwrap_or(f64::NAN);
                    println!("  {:<32} {v:>18.6} {}", m.name, m.unit);
                }
            }
            Err(e) => {
                ok = false;
                eprintln!("{e}");
            }
        }
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = format!("{OUT_DIR}/all-{stamp}.tsv");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, &tsv))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("\nper-run values: {path}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Median per (workload, metric) of an `--all` TSV file.
fn medians(path: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().skip(1) {
        let cols: Vec<&str> = line.split('\t').collect();
        if let [workload, _, metric, value] = cols[..] {
            let v = value
                .parse()
                .map_err(|_| format!("{path}: bad value {value:?}"))?;
            values
                .entry((workload.into(), metric.into()))
                .or_default()
                .push(v);
        }
    }
    Ok(values
        .into_iter()
        .filter_map(|(k, v)| quartiles(&v).map(|(_, med, _)| (k, med)))
        .collect())
}

fn compare(parent: &str, candidate: &str) -> Result<ExitCode, String> {
    let (p, c) = (medians(parent)?, medians(candidate)?);
    let mut worse = false;
    println!("| workload | metric | parent | candidate | change | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for ((workload, metric), &pm) in &p {
        let (Some(spec), Some(&cm)) = (
            END_TO_END.iter().find(|m| m.name == metric),
            c.get(&(workload.clone(), metric.clone())),
        ) else {
            continue;
        };
        let bad = regressed(pm, cm, spec.better, spec.bound);
        worse |= bad;
        println!(
            "| {workload} | {metric} | {pm:.6} | {cm:.6} | {:+.2}% | {} | {} |",
            100.0 * (cm - pm) / pm.abs(),
            spec.bound,
            if bad { "REGRESSED" } else { "ok" }
        );
    }
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
