//! `eris-benchmark`: wall-clock end-to-end benchmark of the ERIS engine.
//!
//! ```text
//! eris-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! eris-benchmark [--workload W] [--seed N] [--repeat R] [--quick] every workload, measured + traced
//! eris-benchmark spread A.json B.json                            compare two result files
//! eris-benchmark manifest                                        print BENCHMARK.json
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds it first.  Paths are
//! relative to the repository root, where `run.sh` changes to.

mod micro;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use eris_obs::json::{self, Value};
use report::{Outcome, END_TO_END, WORKLOADS};
use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::RunCfg;

/// Where spans, journals and result files go (ignored by git).
pub const OUT_DIR: &str = "benchmark/out";

pub fn write_spans(spans: &spans::Spans, workload: &str) {
    let path = Path::new(OUT_DIR).join(format!("{workload}.spans.jsonl"));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| spans.write_jsonl(&path))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("{} spans written to {}", spans.len(), path.display());
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeat: u64,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: report::DEFAULT_SEED,
        seconds: None,
        trace: None,
        repeat: 1,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value {v} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err("--seconds must be within 1..=60".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(value().and_then(|v| match v.as_str() {
                    "0" => Ok(false),
                    "1" => Ok(true),
                    _ => Err(bad(v)),
                })?)
            }
            "--repeat" => a.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// One workload in this process; the result line is the last thing printed.
fn single(workload: &str, cfg: &RunCfg) -> ExitCode {
    let out: Outcome = match workload {
        "served-point" => workloads::served_point::run(cfg),
        "engine-batch" => workloads::engine_batch::run(cfg),
        "engine-scan" => workloads::engine_scan::run(cfg),
        "durable-upsert" => workloads::durable_upsert::run(cfg),
        _ => unreachable!("workload names are checked when parsed"),
    };
    if let Some(why) = &out.invalid {
        println!("INVALID (generator-bound): {why}; the numbers below measure the generator");
    }
    for (name, unit, value) in report::rows(&out.metrics, cfg.trace) {
        println!("{name:<44} {value:>18.4} {unit}");
    }
    println!("{}", report::result_line(&out, cfg.trace));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run `workload` in a child process (fresh memory and allocator state)
/// and return its result line, checked to be JSON.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            out.status
        ));
    }
    let line = stdout.lines().last().unwrap_or("");
    match json::parse(line) {
        Ok(v) if v.get("correct").and_then(Value::as_bool) == Some(true) => Ok(line.to_string()),
        Ok(_) => Err(format!("{workload}: the run reports itself incorrect")),
        Err(e) => Err(format!("{workload}: no result line: {e}")),
    }
}

/// Every selected workload, measured then traced, `repeat` seeds each;
/// the results land in one file `spread` can compare.
fn suite(a: &Args) -> ExitCode {
    let seconds = a.seconds.unwrap_or(if a.quick {
        5.0
    } else {
        report::RUN_SECONDS as f64
    });
    let mut runs = Vec::new();
    let mut ok = true;
    for seed in a.seed..a.seed + a.repeat {
        for w in WORKLOADS
            .iter()
            .filter(|w| a.workload.as_deref().is_none_or(|n| n == w.name))
        {
            for trace in [false, true] {
                println!(
                    "== {} seed {seed} {} ==",
                    w.name,
                    if trace { "traced" } else { "measured" }
                );
                match child(w.name, seed, seconds, trace) {
                    Ok(result) => runs.push(format!(
                        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"result\": {result}}}",
                        w.name,
                        u8::from(trace),
                    )),
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
        }
    }
    let comparable = !a.quick && seconds == report::RUN_SECONDS as f64;
    if !comparable {
        println!("NOT COMPARABLE: {seconds} s per run instead of {}; use these numbers to try the benchmark, not to judge a change", report::RUN_SECONDS);
    }
    let tag = if comparable { "" } else { "-not-comparable" };
    let path = Path::new(OUT_DIR).join(format!("results-seed{}-x{}{tag}.json", a.seed, a.repeat));
    let body = format!(
        "{{\"comparable\": {comparable}, \"runs\": [\n{}\n]}}\n",
        runs.join(",\n")
    );
    match std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, body)) {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The measured values of `metric` on `workload` in a result file.
fn values(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_u64) == Some(0))
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Per workload and end-to-end metric: both medians, how much worse the
/// second is, the bound, and the run-to-run spread of each side.
fn spread(a_path: &str, b_path: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|s| json::parse(&s))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            eprintln!("cannot read result files: {:?} {:?}", a.err(), b.err());
            return ExitCode::from(2);
        }
    };
    for f in [&a, &b] {
        if f.get("comparable").and_then(Value::as_bool) != Some(true) {
            println!(
                "NOT COMPARABLE: a result file was made with --quick or a non-default --seconds"
            );
        }
    }
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>8} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse", "bound", "iqr A", "iqr B"
    );
    let mut regressed = false;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (va, vb) = (values(&a, w.name, m.name), values(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let worse = if m.better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let (sa, sb) = (stats::iqr_share(&va), stats::iqr_share(&vb));
            let verdict = if sa.max(sb) > m.bound {
                "UNRESOLVED"
            } else if worse > m.bound {
                regressed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            println!("{:<15} {:<12} {ma:>14.4} {mb:>14.4} {:>7.1}% {:>5.0}% {:>7.1}% {:>7.1}%  {verdict}", w.name, m.name, worse * 100.0, m.bound * 100.0, sa * 100.0, sb * 100.0);
        }
    }
    if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", report::manifest());
            ExitCode::SUCCESS
        }
        Some("spread") if args.len() == 3 => spread(&args[1], &args[2]),
        Some("spread") => {
            eprintln!("usage: eris-benchmark spread A.json B.json");
            ExitCode::from(2)
        }
        _ => match parse_args(&args) {
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
            Ok(a) => match (a.trace, &a.workload) {
                (Some(trace), Some(w)) => {
                    let seconds = a.seconds.unwrap_or(report::RUN_SECONDS as f64);
                    single(
                        w,
                        &RunCfg {
                            seed: a.seed,
                            seconds,
                            trace,
                        },
                    )
                }
                (Some(_), None) => {
                    eprintln!("--trace needs --workload");
                    ExitCode::from(2)
                }
                (None, _) => suite(&a),
            },
        },
    }
}
