//! Shared harness utilities for the per-figure benchmark binaries.
//!
//! Every binary accepts `--key value` overrides (e.g. `--nm 100000000
//! --threads 12`) so the paper-scale experiments can be run given enough
//! RAM/time, while the defaults finish in minutes on a laptop; an unknown
//! key prints the binary's keys and exits with status 2. Each binary
//! prints the paper's reference numbers next to the measured ones;
//! `EXPERIMENTS.md` records a full run.

pub mod gate;

use hyrise_core::model::{calibrate, MachineProfile};
use hyrise_core::{MergeOutput, MergePipeline, MergeScratch};
use hyrise_storage::{FrozenDelta, MainPartition, TailLog, Value};
use hyrise_workload::values::{values_with_unique, UniqueSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Minimal `--key value` / `--flag` argument parsing (no CLI dependency).
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parse the process arguments, accepting the `--key`s in `keys`. An
    /// unknown key prints usage on stderr and exits with status 2, so a
    /// mistyped override never runs the default sweep unnoticed.
    pub fn from_env(keys: &[&str]) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&argv, keys).unwrap_or_else(|e| {
            let bin = std::env::args().next().unwrap_or_default();
            let options: Vec<String> = keys.iter().map(|k| format!("[--{k}]")).collect();
            eprintln!("{e}\nusage: {bin} {}", options.join(" "));
            std::process::exit(2)
        })
    }

    /// Parse `argv`: `--key value` pairs and bare `--flag`s, every key one
    /// of `keys`. The error names the first key that is not.
    pub fn parse(argv: &[String], keys: &[&str]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i].trim_start_matches('-').to_string();
            if !keys.contains(&key.as_str()) {
                return Err(format!("unknown option {}", argv[i]));
            }
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                map.insert(key, argv[i + 1].clone());
                i += 2;
            } else {
                map.insert(key, "true".to_string());
                i += 1;
            }
        }
        Ok(Self { map })
    }

    /// Integer argument with default.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.map
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// Float argument with default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.map
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number"))
            })
            .unwrap_or(default)
    }

    /// String argument with default.
    pub fn string(&self, key: &str, default: &str) -> String {
        self.map
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

/// Default thread count: all available cores (the paper: "the merge uses all
/// available resources") — the shared pool's size.
pub use hyrise_core::pool::default_threads;

/// One main partition and the delta values to merge into it, with
/// controlled sizes and unique fractions.
///
/// The delta's seed range straddles the top of the main's value domain, so
/// about half the delta's distinct values already exist in the main
/// dictionary and half are new (the paper generates both uniformly at
/// random; this overlap is our documented choice — see EXPERIMENTS.md).
pub fn build_column<V: Value>(
    n_m: usize,
    n_d: usize,
    lambda_m: f64,
    lambda_d: f64,
    seed: u64,
) -> (MainPartition<V>, Vec<V>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let main_spec = UniqueSpec::from_lambda(n_m, lambda_m);
    let main_vals: Vec<V> = values_with_unique(&mut rng, main_spec);
    let main = MainPartition::from_values(&main_vals);
    drop(main_vals);

    let delta_vals: Vec<V> = delta_values_rng(&mut rng, n_d, lambda_d, main_spec.unique);
    (main, delta_vals)
}

fn delta_values_rng<V: Value, R: rand::Rng>(
    rng: &mut R,
    n_d: usize,
    lambda_d: f64,
    main_unique: usize,
) -> Vec<V> {
    let spec = UniqueSpec::from_lambda(n_d, lambda_d);
    // Straddle the domain boundary: half the delta's seeds reuse the main's
    // top values, half are fresh.
    let spec = spec.offset(main_unique.saturating_sub(spec.unique / 2) as u64);
    values_with_unique(rng, spec)
}

/// Generate just the delta-value stream for a column (for timing `T_U`
/// separately from partition construction). `main_unique` is the main
/// dictionary size, used to place the half-overlapping value domain.
pub fn delta_values<V: Value>(n_d: usize, lambda_d: f64, main_unique: usize, seed: u64) -> Vec<V> {
    let mut rng = StdRng::seed_from_u64(seed);
    delta_values_rng(&mut rng, n_d, lambda_d, main_unique)
}

/// Time Eq. 1's `T_U` as a served insert pays it: per tuple, `reserve(1)`,
/// `set` and `publish` on a 1-column [`TailLog`] (the paper's Sec 4.1 delta
/// also inserts into a CSB+ tree; this engine sorts at freeze instead).
pub fn time_delta_updates<V: Value>(values: &[V]) -> (TailLog<V>, Duration) {
    let tail = TailLog::new(1, 0);
    let t0 = Instant::now();
    for &v in values {
        let slot = tail.reserve(1).expect("an unsealed log accepts rows");
        slot.set(0, 0, v);
        slot.publish();
    }
    (tail, t0.elapsed())
}

/// Merge `delta` into `main` the way the server does: freeze the values
/// into a [`FrozenDelta`] (Stage 1a), then run `pipeline`'s Stages 1b and
/// 2. The freeze time is recorded as [`hyrise_core::ColumnMergeStats`]'s
/// `t_step1a`, so the figures' "Step 1" includes Stage 1a.
pub fn freeze_and_merge<V: Value>(
    pipeline: &MergePipeline,
    main: &MainPartition<V>,
    delta: &[V],
    scratch: &mut MergeScratch<V>,
) -> MergeOutput<MainPartition<V>> {
    let t0 = Instant::now();
    let frozen = FrozenDelta::from_values(delta);
    let t_step1a = t0.elapsed();
    let mut out = pipeline.merge_column(main, &frozen, scratch);
    out.stats.t_step1a = t_step1a;
    out
}

/// Cycles per tuple from a duration (the figures' y-axis unit).
pub fn cpt(t: Duration, tuples: usize, hz: f64) -> f64 {
    hyrise_core::stats::cycles_per_tuple(t, tuples, hz)
}

/// Full machine calibration (bandwidth micro-benchmarks; a second or two).
pub fn machine(threads: usize) -> MachineProfile {
    calibrate(threads)
}

/// Clock estimate without the bandwidth micro-benchmarks.
pub fn quick_hz() -> f64 {
    static HZ: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *HZ.get_or_init(|| {
        if let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") {
            for line in text.lines() {
                if line.starts_with("cpu MHz") {
                    if let Some(v) = line
                        .split(':')
                        .nth(1)
                        .and_then(|s| s.trim().parse::<f64>().ok())
                    {
                        if v > 100.0 {
                            return v * 1e6;
                        }
                    }
                }
            }
        }
        calibrate(1).hz
    })
}

/// Fixed-width table printing.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Start a table; prints the header row and a separator.
    pub fn new(headers: &[&str]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(12)).collect();
        let p = Self { widths };
        p.row(headers);
        println!(
            "{}",
            p.widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-")
        );
        p
    }

    /// Print one row.
    pub fn row(&self, cells: &[&str]) {
        let line: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>width$}", width = w))
            .collect();
        println!("{}", line.join(" | "));
    }
}

/// Human-readable large number (e.g. `1.5M`).
pub fn fmt_count(n: usize) -> String {
    if n >= 1_000_000_000 {
        format!("{:.1}B", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Standard experiment banner: what runs, at which scale, vs paper scale.
pub fn banner(experiment: &str, paper_setup: &str, our_setup: &str) {
    println!("=== {experiment} ===");
    println!("paper setup : {paper_setup}");
    println!("this run    : {our_setup}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_column_respects_lambdas() {
        let (main, delta) = build_column::<u64>(10_000, 1_000, 0.1, 0.2, 1);
        assert_eq!(main.len(), 10_000);
        assert_eq!(delta.len(), 1_000);
        assert_eq!(main.dictionary().len(), 1_000);
        assert_eq!(FrozenDelta::from_values(&delta).dict().len(), 200);
    }

    #[test]
    fn delta_overlaps_main_domain() {
        let (main, delta) = build_column::<u64>(10_000, 1_000, 0.1, 0.2, 2);
        let frozen = FrozenDelta::from_values(&delta);
        let u_d = frozen.dict();
        let in_main = u_d
            .values()
            .iter()
            .filter(|v| main.dictionary().code_of(v).is_some())
            .count();
        assert!(
            in_main > 0,
            "some delta values must already be in the main dictionary"
        );
        assert!(in_main < u_d.len(), "some delta values must be new");
    }

    #[test]
    fn fmt_count_units() {
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_500), "1.5K");
        assert_eq!(fmt_count(2_000_000), "2.0M");
        assert_eq!(fmt_count(1_600_000_000), "1.6B");
    }

    #[test]
    fn time_delta_updates_builds_the_delta() {
        let vals: Vec<u64> = (0..500).map(|i| i % 37).collect();
        let (tail, t) = time_delta_updates(&vals);
        assert_eq!(tail.published(), 500);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(tail.read(0, i), v, "row {i}");
        }
        assert!(t.as_nanos() > 0);
    }

    #[test]
    fn args_parsing() {
        // Exercise the map-backed accessors directly.
        let mut map = HashMap::new();
        map.insert("nm".to_string(), "1000".to_string());
        map.insert("lambda".to_string(), "0.5".to_string());
        map.insert("quick".to_string(), "true".to_string());
        let args = Args { map };
        assert_eq!(args.usize("nm", 7), 1000);
        assert_eq!(args.usize("nd", 7), 7);
        assert!((args.f64("lambda", 0.0) - 0.5).abs() < 1e-12);
        assert!(args.flag("quick"));
        assert!(!args.flag("missing"));
    }

    #[test]
    fn unknown_keys_are_refused() {
        let keys = ["nm", "lambda", "threads", "quick"];
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let args = Args::parse(&argv(&["--nm", "1000", "--quick"]), &keys).unwrap();
        assert_eq!(args.usize("nm", 7), 1000);
        assert!(args.flag("quick") && !args.flag("lambda"));
        // `fig7_delta_size_sweep --nd 1000` used to run the default sweep.
        let err = Args::parse(&argv(&["--nd", "1000"]), &keys)
            .err()
            .expect("--nd is not one of fig7's keys");
        assert!(err.contains("--nd"), "{err}");
        assert!(Args::parse(&argv(&["--nm", "10", "--quikc"]), &keys).is_err());
    }
}
