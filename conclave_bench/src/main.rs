//! `conclave_bench`: one benchmark for Conclave. See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and how they interact.
//!
//! ```text
//! conclave_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! conclave_bench all     [--seed N] [--seconds S] [--repeat K] [--out FILE]
//! conclave_bench trace   <workload> [--seed N] [--seconds S]
//! conclave_bench compare <a.json> <b.json>
//! conclave_bench check   [BENCHMARK.json]
//! conclave_bench manifest
//! ```

mod compare;
mod json;
mod pin;
mod probes;
mod registry;
mod replay;
mod run;
mod serve;
mod span;
mod stats;
mod trace;
mod workloads;

use json::Json;
use registry::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use run::Sizing;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Where the harness writes: `conclave_bench.out/` beside the running binary,
/// so inside the build directory and with it inside the checkout.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    exe.parent()
        .expect("the binary lives in a directory")
        .join("conclave_bench.out")
}

fn write_file(path: &PathBuf, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a run's numbers depend on besides the code.
struct Machine {
    /// CPUs the process could use before it pinned itself.
    nproc: usize,
    pinned_cpu: Option<usize>,
}

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        positional: Vec::new(),
        workload: None,
        seed: 7,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                parsed.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if parsed.repeat == 0 || parsed.repeat > 100 {
                    return Err("--repeat must be in 1..=100".into());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            "--quick" => parsed.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

/// One finished run of one workload, traced or not.
struct RunResult {
    workload: String,
    trace: bool,
    attempted: u64,
    failed: u64,
    /// (metric, value, samples) in registry order.
    metrics: Vec<(&'static Metric, f64, usize)>,
    unstable: bool,
    remeasured: usize,
    warmup_ratio: f64,
    halves_gap: f64,
    invalid_trace: Option<String>,
}

impl RunResult {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    fn contract_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(m, value, _)| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// What the contract's object has no room for; `all` keeps it in the
    /// results file.
    fn detail_json(&self, seed: u64, seconds: f64, machine: &Machine) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("trace", Json::Num(f64::from(u8::from(self.trace)))),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("nproc", Json::Num(machine.nproc as f64)),
            (
                "pinned_cpu",
                machine
                    .pinned_cpu
                    .map_or(Json::Null, |cpu| Json::Num(cpu as f64)),
            ),
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_share",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("unstable", Json::Bool(self.unstable)),
            ("remeasured", Json::Num(self.remeasured as f64)),
            ("warmup_ratio", Json::Num(self.warmup_ratio)),
            ("halves_gap", Json::Num(self.halves_gap)),
            (
                "invalid_trace",
                self.invalid_trace.as_ref().map_or(Json::Null, Json::str),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(m, value, samples)| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(m.unit)),
                            ("samples", Json::Num(*samples as f64)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Every metric by name with its unit, sample count and bound.
    fn print_table(&self) {
        println!(
            "== {} ({}): {} attempted, {} failed{}{}",
            self.workload,
            if self.trace { "traced" } else { "end to end" },
            self.attempted,
            self.failed,
            if self.unstable { ", UNSTABLE" } else { "" },
            match &self.invalid_trace {
                Some(why) => format!(", INVALID TRACE: {why}"),
                None => String::new(),
            },
        );
        for (m, value, samples) in &self.metrics {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0));
            println!(
                "{:<28} {:>16.4} {:<7} n={samples}{bound}",
                m.name, value, m.unit
            );
        }
        if !self.trace {
            println!(
                "warmup_ratio {:.3}  halves_gap {:.3}  remeasured {}",
                self.warmup_ratio, self.halves_gap, self.remeasured
            );
        }
    }
}

/// Runs one workload in this process.
fn run_workload(name: &str, seed: u64, sizing: Sizing, trace: bool) -> RunResult {
    if trace {
        let traced = trace::traced_run(name, seed, sizing);
        let path = out_dir().join(format!("trace-{name}.json"));
        let file = Json::obj([
            ("workload", Json::str(name)),
            ("seed", Json::Num(seed as f64)),
            ("valid", Json::Bool(traced.invalid.is_none())),
            (
                "invalid",
                traced.invalid.as_ref().map_or(Json::Null, Json::str),
            ),
            ("spans", traced.spans),
        ]);
        write_file(&path, &file.pretty());
        eprintln!("spans written to {}", path.display());
        return RunResult {
            workload: name.to_string(),
            trace: true,
            attempted: traced.attempted,
            failed: traced.failed,
            metrics: PER_LAYER
                .iter()
                .map(|m| (m, traced.metrics[m.name], 1))
                .collect(),
            unstable: false,
            remeasured: 0,
            warmup_ratio: traced.metrics["guard.warmup_ratio"],
            halves_gap: traced.metrics["guard.halves_gap"],
            invalid_trace: traced.invalid,
        };
    }
    let mut ready = run::prepare(name, seed, sizing);
    let measured = run::measure(&mut *ready.workload, sizing);
    let values = run::end_to_end(&measured, &ready);
    RunResult {
        workload: name.to_string(),
        trace: false,
        attempted: measured.window.attempted,
        failed: measured.window.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, (name, value, samples))| {
                assert_eq!(m.name, name, "end-to-end metrics are in registry order");
                (m, value, samples)
            })
            .collect(),
        unstable: measured.unstable,
        remeasured: measured.remeasured,
        warmup_ratio: measured.warmup_ratio,
        halves_gap: measured.halves_gap,
        invalid_trace: None,
    }
}

/// The driver's form: one workload, one JSON object as the last line.
fn cmd_workload(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().expect("checked by the caller");
    if registry::workload(name).is_none() {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{name}`; known: {}",
            known.join(", ")
        ));
    }
    let sizing = if args.quick {
        Sizing::quick()
    } else {
        Sizing::full(args.seconds)
    };
    let machine = Machine {
        nproc: nproc(),
        pinned_cpu: pin::pin_to_one_cpu(),
    };
    match machine.pinned_cpu {
        Some(cpu) => eprintln!("pinned to CPU {cpu} of {}", machine.nproc),
        None => eprintln!("could not pin to one CPU: expect wider spreads"),
    }
    let result = run_workload(name, args.seed, sizing, args.trace);
    result.print_table();
    println!(
        "#detail {}",
        result
            .detail_json(args.seed, args.seconds, &machine)
            .compact()
    );
    println!("{}", result.contract_json().compact());
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process (its own address space, scheduler
/// history and `VmHWM`) and returns its `#detail` object.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(args.quick.then_some("--quick"))
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child for {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("#detail ") {
            Some(json) => detail = Some(Json::parse(json)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    detail.ok_or(format!(
        "the child for {name} printed no result ({})",
        output.status
    ))
}

/// Every workload, each run in a child of its own: `--repeat` untraced runs,
/// then one traced run. Prints every metric, writes the results file.
fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let mut runs = Vec::new();
    for w in WORKLOADS.iter() {
        for _ in 0..args.repeat {
            runs.push(run_child(w.name, args, false)?);
        }
        runs.push(run_child(w.name, args, true)?);
    }
    let bad = |key: &str, want: bool| {
        runs.iter()
            .filter(|r| r.get(key).and_then(Json::as_bool) != Some(want))
            .filter_map(|r| r.get("workload").and_then(Json::as_str))
            .collect::<Vec<_>>()
    };
    let (incorrect, unstable) = (bad("correct", true), bad("unstable", false));
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("results-seed{}.json", args.seed)));
    let file = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(nproc() as f64)),
        ("claim", Json::Null),
        ("runs", Json::Arr(runs.clone())),
    ]);
    write_file(&path, &file.pretty());
    println!("results written to {}", path.display());
    if !unstable.is_empty() {
        println!("unstable: {}", unstable.join(", "));
    }
    if !incorrect.is_empty() {
        println!("INCORRECT: {}", incorrect.join(", "));
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_args(args)?;
    if parsed.workload.is_some() {
        return cmd_workload(&parsed);
    }
    let positional: Vec<&str> = parsed.positional.iter().map(String::as_str).collect();
    match positional.as_slice() {
        ["all"] => cmd_all(&parsed),
        ["trace", name] => cmd_workload(&Args {
            workload: Some(name.to_string()),
            trace: true,
            ..parsed
        }),
        ["compare", a, b] => {
            let (table, regressed) = compare::compare(&read_json(a)?, &read_json(b)?);
            print!("{table}");
            Ok(if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        ["check"] | ["check", _] => {
            let path = positional.get(1).copied().unwrap_or("BENCHMARK.json");
            let problems = registry::check(&read_json(path)?);
            for p in &problems {
                println!("{path}: {p}");
            }
            if problems.is_empty() {
                println!("{path} agrees with the harness");
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::FAILURE)
            }
        }
        ["manifest"] => {
            print!("{}", registry::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(
            "usage: conclave_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                  | all [--repeat K] [--out FILE] | trace <workload> | compare <a.json> <b.json> \
                  | check [BENCHMARK.json] | manifest"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eprintln!("conclave_bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// `--quick`: every workload at 1/20 size with three timed operations,
    /// untraced and traced. Exercises replay-vs-driver equality on real
    /// plans and must stay fast enough to run with the unit tests.
    #[test]
    fn quick_smoke_runs_every_workload_and_replays_it() {
        let start = Instant::now();
        for w in WORKLOADS.iter() {
            let untraced = run_workload(w.name, 7, Sizing::quick(), false);
            assert_eq!(untraced.failed, 0, "{}: wrong results", w.name);
            assert!(untraced.attempted >= 3, "{}", w.name);
            for (m, value, _) in &untraced.metrics {
                assert!(
                    *value > 0.0 && value.is_finite(),
                    "{}: {} = {value}",
                    w.name,
                    m.name
                );
            }
            let contract = untraced.contract_json();
            assert_eq!(contract.as_obj().unwrap().len(), 4);
            assert_eq!(
                contract.get("metrics").unwrap().as_obj().unwrap().len(),
                END_TO_END.len()
            );

            let traced = run_workload(w.name, 7, Sizing::quick(), true);
            assert_eq!(
                traced.failed, 0,
                "{}: wrong results in the traced pass",
                w.name
            );
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            let metric = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|(m, ..)| m.name == name)
                    .unwrap()
                    .1
            };
            if w.name != "serve_small" {
                assert_eq!(traced.invalid_trace, None, "{}", w.name);
                assert_eq!(metric("trace.valid"), 1.0, "{}", w.name);
            }
            assert!(metric("net.rounds") > 0.0, "{}", w.name);
        }
        assert!(
            start.elapsed().as_secs_f64() < 20.0,
            "quick smoke took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = args(&[
            "--workload",
            "scan_tcp",
            "--seed",
            "9",
            "--seconds",
            "4",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(ok.workload.as_deref(), Some("scan_tcp"));
        assert_eq!((ok.seed, ok.seconds, ok.trace), (9, 4.0, true));
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(run(&["--workload".into(), "nope".into()]).is_err());
        assert!(run(&[]).is_err());
    }
}
