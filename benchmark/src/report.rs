//! Result files and the `compare` subcommand.

use crate::json::Json;
use crate::run::{Metric, RunOutcome};
use crate::stats::{median, quartile_spread};

/// What every result file is stamped with.
pub struct Stamp {
    pub nproc: usize,
    /// `model::calibrate` streaming bandwidth.
    pub stream_gb_per_s: f64,
    pub rustc: String,
    pub commit: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit)),
                ("n", Json::Num(m.n as f64)),
            ]),
        )
    }))
}

/// One run as the result file keeps it.
pub fn run_json(workload: &str, seed: u64, trace: bool, out: &RunOutcome) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Bool(trace)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(&out.metrics)),
        ("notes", metrics_json(&out.notes)),
    ])
}

pub fn result_json(stamp: &Stamp, runs: Vec<Json>) -> Json {
    Json::obj([
        (
            "stamp",
            Json::obj([
                ("nproc", Json::Num(stamp.nproc as f64)),
                ("stream_gb_per_s", Json::Num(stamp.stream_gb_per_s)),
                ("rustc", Json::str(&stamp.rustc)),
                ("commit", Json::str(&stamp.commit)),
                ("seed", Json::Num(stamp.seed as f64)),
                ("seconds", Json::Num(stamp.seconds)),
                ("quick", Json::Bool(stamp.quick)),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ])
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn contract_line(out: &RunOutcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::obj(out.metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread across repeated runs is wider than the bound, so the two
    /// medians cannot be told apart at that bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric: `a` is the base, `b` the candidate.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let spread = [a, b]
        .into_iter()
        .filter_map(quartile_spread)
        .fold(0.0, f64::max);
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Untraced values of `metric` on `workload`, one per run.
fn values(result: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(result, workload)
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn runs_of<'a>(result: &'a Json, workload: &'a str) -> impl Iterator<Item = &'a Json> {
    result
        .get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter(move |r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace") == Some(&Json::Bool(false))
        })
}

fn failed_share(result: &Json, workload: &str) -> Option<f64> {
    let sum = |key: &str| -> f64 {
        runs_of(result, workload)
            .filter_map(|r| r.get(key)?.as_f64())
            .sum()
    };
    let attempted = sum("attempted");
    (attempted > 0.0).then(|| sum("failed") / attempted)
}

/// Compare two result files under the bounds of `BENCHMARK.json`. Returns
/// the table and whether every row is `ok`.
pub fn compare(bench: &Json, a: &Json, b: &Json) -> Result<(String, bool), String> {
    let nproc = |r: &Json| {
        r.get("stamp")
            .and_then(|s| s.get("nproc"))
            .and_then(Json::as_f64)
    };
    match (nproc(a), nproc(b)) {
        (Some(x), Some(y)) if x == y => {}
        (x, y) => {
            return Err(format!(
                "refusing to compare results recorded on different core counts: {x:?} vs {y:?}"
            ))
        }
    }
    let mut table = format!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "spread"
    );
    let mut all_ok = true;
    for w in bench.get("workloads").map_or(&[][..], Json::as_arr) {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        for m in bench.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (va, vb) = (values(a, workload, name), values(b, workload, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, lower, bound);
            all_ok &= v == Verdict::Ok;
            let spread = [&va, &vb]
                .into_iter()
                .filter_map(|x| quartile_spread(x))
                .fold(f64::NAN, f64::max);
            table += &format!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>8.4} {:>7.3} {:>7.3}  {}\n",
                workload,
                name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                bound,
                spread,
                v.name()
            );
        }
        // Failures have no bound: any more of them is a regression.
        if let (Some(fa), Some(fb)) = (failed_share(a, workload), failed_share(b, workload)) {
            let v = if fb > fa {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            all_ok &= v == Verdict::Ok;
            table += &format!(
                "{:<14} {:<16} {:>14.6} {:>14.6} {:>8} {:>7} {:>7}  {}\n",
                workload,
                "failed_share",
                fa,
                fb,
                "-",
                "0",
                "-",
                v.name()
            );
        }
    }
    Ok((table, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
        "workloads": [{"name": "w1", "why": "x"}],
        "end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.05},
            {"name": "lookup_p50_us", "unit": "us", "better": "lower", "bound": 0.05}
        ]
    }"#;

    /// A hand-made result file: one run per (ops_per_s, lookup_p50_us) pair.
    fn result(nproc: u32, runs: &[(f64, f64)]) -> Json {
        let runs: Vec<String> = runs
            .iter()
            .map(|(ops, p50)| {
                format!(
                    r#"{{"workload": "w1", "trace": false, "attempted": 100, "failed": 0,
                        "metrics": {{"ops_per_s": {{"value": {ops}, "unit": "1/s"}},
                                     "lookup_p50_us": {{"value": {p50}, "unit": "us"}}}}}}"#
                )
            })
            .collect();
        Json::parse(&format!(
            r#"{{"stamp": {{"nproc": {nproc}}}, "runs": [{}]}}"#,
            runs.join(",")
        ))
        .unwrap()
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<String> {
        let (table, _) = compare(&Json::parse(BENCH).unwrap(), a, b).unwrap();
        table
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().last().unwrap().to_string())
            .collect()
    }

    #[test]
    fn equal_results_are_ok() {
        let a = result(2, &[(1000.0, 50.0), (1010.0, 50.5), (990.0, 49.5)]);
        assert_eq!(verdicts(&a, &a), ["ok", "ok", "ok"]);
        let (_, all_ok) = compare(&Json::parse(BENCH).unwrap(), &a, &a).unwrap();
        assert!(all_ok);
    }

    #[test]
    fn a_drop_beyond_the_bound_regresses_in_the_metrics_own_direction() {
        let a = result(2, &[(1000.0, 50.0)]);
        // Throughput down 10 %, latency down 10 %: only the first is worse.
        let b = result(2, &[(900.0, 45.0)]);
        assert_eq!(verdicts(&a, &b), ["regressed", "ok", "ok"]);
        // And the other way round.
        let c = result(2, &[(1100.0, 55.0)]);
        assert_eq!(verdicts(&a, &c), ["ok", "regressed", "ok"]);
        // Inside the bound is ok.
        let d = result(2, &[(960.0, 52.0)]);
        assert_eq!(verdicts(&a, &d), ["ok", "ok", "ok"]);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = result(
            2,
            &[
                (1000.0, 50.0),
                (1200.0, 50.0),
                (800.0, 50.0),
                (1100.0, 50.0),
            ],
        );
        let b = result(2, &[(1000.0, 50.0), (1000.0, 50.0)]);
        assert_eq!(verdicts(&a, &b), ["unresolved", "ok", "ok"]);
    }

    #[test]
    fn more_failures_regress() {
        let a = result(2, &[(1000.0, 50.0)]);
        let mut b = result(2, &[(1000.0, 50.0)]);
        if let Json::Obj(top) = &mut b {
            if let Json::Arr(runs) = &mut top[1].1 {
                if let Json::Obj(run) = &mut runs[0] {
                    run[3].1 = Json::Num(1.0);
                }
            }
        }
        assert_eq!(verdicts(&a, &b), ["ok", "ok", "regressed"]);
    }

    #[test]
    fn different_core_counts_are_refused() {
        let a = result(2, &[(1000.0, 50.0)]);
        let b = result(4, &[(1000.0, 50.0)]);
        let err = compare(&Json::parse(BENCH).unwrap(), &a, &b).unwrap_err();
        assert!(err.contains("core counts"), "{err}");
    }
}
