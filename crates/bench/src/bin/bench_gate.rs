//! The CI perf-regression gate CLI (see [`hyrise_bench::gate`]).
//!
//! ```text
//! # Fail (exit 1) on any bench whose median regressed >25% vs baseline:
//! bench_gate check bench_output.txt
//!
//! # Add or refresh, in the committed baseline, every entry a run measured
//! # (entries it did not measure keep their medians):
//! bench_gate update bench_output.txt
//! ```
//!
//! Flags: `--baseline <path>` (default `BENCH_baseline.json`),
//! `--tolerance <frac>` (default `0.25`; per-entry overrides in
//! [`hyrise_bench::gate::TOLERANCE_OVERRIDES`] take precedence — e.g.
//! `wal_append/fsync/*` is gated at 50% because its median tracks the
//! runner's device sync latency). The input file is the combined
//! stdout of the gated `cargo bench` runs —
//! `scripts/refresh_bench_baseline.sh` produces both the run and the
//! baseline in one command.

use hyrise_bench::gate::{compare, parse_bench_output, parse_json, to_json};
use hyrise_bench::Args;

fn fail(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, input) = match (argv.first().map(String::as_str), argv.get(1)) {
        (Some(m @ ("check" | "update")), Some(path)) if !path.starts_with("--") => {
            (m.to_string(), path.clone())
        }
        _ => fail(
            "usage: bench_gate <check|update> <bench-output.txt> [--baseline p] [--tolerance f]",
        ),
    };
    let args = Args::parse(&argv[2..], &["baseline", "tolerance"]).unwrap_or_else(|e| fail(&e));
    let baseline_path = args.string("baseline", "BENCH_baseline.json");
    let tolerance = args.f64("tolerance", 0.25);

    let output = std::fs::read_to_string(&input)
        .unwrap_or_else(|e| fail(&format!("cannot read bench output {input}: {e}")));
    let current = parse_bench_output(&output);
    if current.is_empty() {
        fail(&format!("no `time: [..]` bench lines found in {input}"));
    }
    println!(
        "bench_gate: parsed {} bench results from {input}",
        current.len()
    );

    match mode.as_str() {
        "update" => {
            let mut merged = match std::fs::read_to_string(&baseline_path) {
                Ok(text) => parse_json(&text).unwrap_or_else(|e| fail(&e)),
                Err(_) => Vec::new(),
            };
            // `to_json` keys by name, so this run's medians replace older ones.
            merged.extend(current.iter().cloned());
            std::fs::write(&baseline_path, to_json(&merged))
                .unwrap_or_else(|e| fail(&format!("cannot write {baseline_path}: {e}")));
            println!(
                "bench_gate: wrote {} medians to {baseline_path}",
                current.len()
            );
        }
        "check" => {
            let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
                fail(&format!(
                    "cannot read baseline {baseline_path}: {e}\n\
                     (run scripts/refresh_bench_baseline.sh to create it)"
                ))
            });
            let baseline = parse_json(&text).unwrap_or_else(|e| fail(&e));
            let report = compare(&baseline, &current, tolerance);
            for d in &report.passed {
                println!(
                    "  ok      {:<45} {:>12.1} ns vs {:>12.1} ns  ({:+.1}%)",
                    d.name,
                    d.current_ns,
                    d.baseline_ns,
                    (d.ratio() - 1.0) * 100.0
                );
            }
            for name in &report.missing_in_baseline {
                println!("  new     {name:<45} (not in baseline; refresh to start gating it)");
            }
            for name in &report.missing_in_run {
                println!("  absent  {name:<45} (in baseline but not in this run)");
            }
            for d in &report.regressions {
                println!(
                    "  REGRESS {:<45} {:>12.1} ns vs {:>12.1} ns  ({:+.1}% > +{:.0}%)",
                    d.name,
                    d.current_ns,
                    d.baseline_ns,
                    (d.ratio() - 1.0) * 100.0,
                    d.tolerance * 100.0
                );
            }
            if !report.ok() {
                eprintln!(
                    "bench_gate: FAIL — {} bench(es) regressed past their tolerance vs {}",
                    report.regressions.len(),
                    baseline_path
                );
                eprintln!(
                    "bench_gate: if the slowdown is intended, refresh the baseline: \
                     scripts/refresh_bench_baseline.sh"
                );
                std::process::exit(1);
            }
            println!(
                "bench_gate: PASS — {} gated, {} new, {} absent (tolerance +{:.0}%)",
                report.passed.len(),
                report.missing_in_baseline.len(),
                report.missing_in_run.len(),
                tolerance * 100.0
            );
        }
        _ => unreachable!("mode validated above"),
    }
}
