//! The client-observed, layer-by-layer benchmark. See `README.md`.
//!
//! ```text
//! hyrise-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--repeat N] [--quick]
//! hyrise-benchmark compare a.json b.json
//! ```

mod engine;
mod json;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `--quick` divides table sizes by this and defaults to one second.
const QUICK_SCALE: u64 = 20;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: u64,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !workload::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (known: {})",
                        workload::WORKLOADS.join(", ")
                    ));
                }
                out.workloads.push(w.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--repeat" => {
                out.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if out.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if out.workloads.is_empty() {
        out.workloads = workload::WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(out)
}

/// The checkout root: `run.sh` exports it, a bare `cargo run` from the
/// root finds it as the current directory.
fn root() -> PathBuf {
    std::env::var_os("BENCH_ROOT").map_or_else(|| PathBuf::from("."), PathBuf::from)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("usage: compare a.json b.json".into());
    };
    let bench = read_json(&root().join("BENCHMARK.json"))?;
    let (table, all_ok) =
        report::compare(&bench, &read_json(Path::new(a))?, &read_json(Path::new(b))?)?;
    print!("{table}");
    Ok(all_ok)
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn listed(bench: &Json, key: &str) -> Vec<String> {
    let metrics = bench.get(key).map_or(&[][..], Json::as_arr);
    metrics
        .iter()
        .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
        .collect()
}

fn benchmark(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bench = read_json(&root().join("BENCHMARK.json"))?;
    let run_seconds = bench.get("run_seconds").and_then(Json::as_f64);
    let seconds = match args.seconds {
        Some(s) => s,
        None if args.quick => 1.0,
        None => run_seconds.ok_or("BENCHMARK.json has no run_seconds")?,
    };
    let mut contract = listed(
        &bench,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    );
    contract.sort();
    let out_dir = root().join("benchmark").join("out");
    let profile = engine::Profile::calibrate(nproc);
    let stamp = report::Stamp {
        nproc,
        stream_gb_per_s: profile.stream_bytes_per_s() / 1e9,
        rustc: std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        commit: std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        seed: args.seed,
        seconds,
        quick: args.quick,
    };
    println!(
        "# nproc {nproc}, {} closed-loop clients, streaming bandwidth {:.2} GB/s, {seconds} s per run",
        workload::CLIENTS,
        stamp.stream_gb_per_s
    );
    let mut runs = Vec::new();
    for name in &args.workloads {
        let scale = if args.quick { QUICK_SCALE } else { 1 };
        let w = workload::Workload::by_name(name, scale).expect("workload names were validated");
        if w.tables.iter().any(|t| t.durable) {
            println!("# {name}: WAL flush policy: buffered, fsync off (survives kill -9, not power loss)");
        }
        for i in 0..args.repeat {
            let seed = args.seed + i;
            let cfg = run::RunConfig {
                workload: &w,
                seed,
                seconds,
                trace: args.trace,
                out_dir: &out_dir,
                nproc,
                profile: &profile,
            };
            let out = run::run(&cfg).map_err(|e| format!("{name} (seed {seed}): {e}"))?;
            let mut reported: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            reported.sort();
            if reported != contract {
                return Err(format!(
                    "{name}: reported metrics {reported:?} are not the ones BENCHMARK.json lists {contract:?}"
                ));
            }
            for m in out.metrics.iter().chain(&out.notes) {
                println!("{name} {} {} {} n={}", m.name, m.value, m.unit, m.n);
            }
            println!(
                "{name} failed_share {} ratio n={}",
                out.failed as f64 / out.attempted.max(1) as f64,
                out.attempted
            );
            runs.push(report::run_json(name, seed, args.trace, &out));
            println!("{}", report::contract_line(&out));
        }
    }
    let path = out_dir.join("result.json");
    std::fs::write(&path, report::result_json(&stamp, runs).to_string())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, files)) if cmd == "compare" => compare(files),
        _ => parse_args(&args).and_then(|a| benchmark(&a)).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
