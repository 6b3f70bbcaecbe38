//! `conclave_bench compare <a.json> <b.json>`: holds two result files (as
//! `conclave_bench all` writes them) against each end-to-end metric's bound.

use crate::json::Json;
use crate::registry::{Metric, END_TO_END, EXACT, WORKLOADS};
use crate::stats::{quartiles, spread};
use std::fmt::Write as _;

/// The values of `metric` over `file`'s runs of `workload` at `trace`.
fn values(file: &Json, workload: &str, trace: f64, metric: &str) -> Vec<f64> {
    file.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(trace)
        })
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Runs a side needs before its spread means anything. With fewer, a median
/// beyond the bound is `unresolved`, not `regressed`: single runs of
/// identical code read 215 and 313 ms on `relational_channel` within ten
/// minutes of each other when the host was busy.
pub const MIN_RUNS: usize = 3;

/// `ok`, `regressed` or `unresolved` for one (workload, metric) pair: `b`
/// may be worse than `a` by at most the metric's bound; where either side's
/// run-to-run spread exceeds the bound, or a side has fewer than
/// [`MIN_RUNS`] runs to take a spread from, the pair is unresolved — unless
/// every run of `b` reads better than every run of `a`.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> &'static str {
    let bound = metric.bound.expect("end-to-end metrics have bounds");
    let lower = metric.better == "lower";
    let (median_a, median_b) = (quartiles(a)[1], quartiles(b)[1]);
    let worse_by = if lower {
        (median_b - median_a) / median_a
    } else {
        (median_a - median_b) / median_a
    };
    let too_few = a.len().min(b.len()) < MIN_RUNS;
    if spread(a).max(spread(b)) > bound || (too_few && worse_by > bound) {
        let b_always_better = a
            .iter()
            .all(|x| b.iter().all(|y| if lower { y < x } else { y > x }));
        return if b_always_better { "ok" } else { "unresolved" };
    }
    if worse_by > bound {
        "regressed"
    } else {
        "ok"
    }
}

/// The comparison table, and whether any pair regressed.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<20} {:<14} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload", "metric", "a median", "a quartiles", "b median", "b quartiles", "bound"
    );
    for w in WORKLOADS.iter() {
        for m in END_TO_END.iter() {
            let (va, vb) = (
                values(a, w.name, 0.0, m.name),
                values(b, w.name, 0.0, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(out, "{:<20} {:<14} missing from one file", w.name, m.name);
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let v = verdict(m, &va, &vb);
            regressed |= v == "regressed";
            let _ = writeln!(
                out,
                "{:<20} {:<14} {:>12.4} {:>25} {:>12.4} {:>25} {:>5.0}%  {v}",
                w.name,
                m.name,
                qa[1],
                format!("[{:.4} .. {:.4}]", qa[0], qa[2]),
                qb[1],
                format!("[{:.4} .. {:.4}]", qb[0], qb[2]),
                m.bound.unwrap_or(0.0) * 100.0,
            );
        }
        // Counts the program makes repeat exactly, so they are compared for
        // equality; a difference is reported, not judged.
        for name in EXACT {
            let (va, vb) = (values(a, w.name, 1.0, name), values(b, w.name, 1.0, name));
            if let (Some(x), Some(y)) = (va.first(), vb.first()) {
                let same = va.iter().chain(&vb).all(|v| v == x);
                let _ = writeln!(
                    out,
                    "{:<20} {:<24} {:>14} {:>14}  {}",
                    w.name,
                    name,
                    x,
                    y,
                    if same { "same" } else { "differs" }
                );
            }
        }
        for (label, file) in [("a", a), ("b", b)] {
            let unstable = file
                .get("runs")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w.name))
                .filter(|r| r.get("unstable").and_then(Json::as_bool) == Some(true))
                .count();
            if unstable > 0 {
                let _ = writeln!(out, "{:<20} {unstable} unstable run(s) in {label}", w.name);
            }
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &'static str) -> Metric {
        Metric {
            name: "m",
            unit: "ms",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower = metric("lower");
        assert_eq!(
            verdict(&lower, &steady, &[105.0, 106.0, 104.0, 105.5, 104.5]),
            "ok"
        );
        assert_eq!(
            verdict(&lower, &steady, &[115.0, 116.0, 114.0, 115.5, 114.5]),
            "regressed"
        );
        assert_eq!(
            verdict(&lower, &steady, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            "ok"
        );
        // A noisy side cannot carry a verdict …
        let noisy = [90.0, 130.0, 100.0, 140.0, 95.0];
        assert_eq!(verdict(&lower, &steady, &noisy), "unresolved");
        // … unless every one of its runs beats every run of the other side.
        assert_eq!(
            verdict(&lower, &steady, &[50.0, 70.0, 60.0, 80.0, 55.0]),
            "ok"
        );
        let higher = metric("higher");
        assert_eq!(
            verdict(&higher, &steady, &[85.0, 86.0, 84.0, 85.5, 84.5]),
            "regressed"
        );
        assert_eq!(
            verdict(&higher, &steady, &[95.0, 96.0, 94.0, 95.5, 94.5]),
            "ok"
        );
        // One run a side: no spread to hold the medians against.
        assert_eq!(verdict(&lower, &[100.0], &[111.0]), "unresolved");
        assert_eq!(verdict(&lower, &[100.0], &[109.0]), "ok");
        assert_eq!(verdict(&lower, &[100.0], &[90.0]), "ok");
    }

    #[test]
    fn compare_reads_result_files() {
        let file = |ms: f64, rounds: f64| {
            let run = |trace: f64, name: &str, value: f64| {
                Json::obj([
                    ("workload", Json::str("scan_channel")),
                    ("trace", Json::Num(trace)),
                    ("unstable", Json::Bool(false)),
                    (
                        "metrics",
                        Json::obj([(
                            name,
                            Json::obj([("value", Json::Num(value)), ("unit", Json::str("x"))]),
                        )]),
                    ),
                ])
            };
            let mut runs = vec![run(0.0, "query_ms_p50", ms); MIN_RUNS];
            runs.push(run(1.0, "net.rounds", rounds));
            Json::obj([("runs", Json::Arr(runs))])
        };
        let (table, regressed) = compare(&file(100.0, 13.0), &file(130.0, 13.0));
        assert!(regressed, "{table}");
        assert!(
            table.contains("regressed") && table.contains("same"),
            "{table}"
        );
        let (table, regressed) = compare(&file(100.0, 13.0), &file(104.0, 12.0));
        assert!(!regressed && table.contains("differs"), "{table}");
    }
}
