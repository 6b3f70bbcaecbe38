//! Benchmark harness support: query builders and figure-series generators.
//!
//! Every figure in the paper's evaluation (§2.3 Figure 1, §7 Figures 4–7) is
//! reproduced by a function in [`figures`] that returns the same series the
//! paper plots — system name, input size, and runtime (or `None` where the
//! system fails or exceeds the experiment's time budget, mirroring the points
//! missing from the paper's plots). The Criterion benches and the
//! `reproduce` binary are thin wrappers around these functions.

pub mod figures;
pub mod queries;

/// One point of a figure series.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    /// System / configuration name (e.g. "Conclave", "Sharemind only").
    pub system: String,
    /// Total input records across all parties.
    pub input_records: u64,
    /// Simulated runtime in seconds; `None` if the system fails at this size
    /// (out of memory) or exceeds the experiment cut-off.
    pub runtime_secs: Option<f64>,
}

impl DataPoint {
    /// Creates a successful data point.
    pub fn ok(system: &str, input_records: u64, runtime_secs: f64) -> Self {
        DataPoint {
            system: system.to_string(),
            input_records,
            runtime_secs: Some(runtime_secs),
        }
    }

    /// Creates a failed data point (OOM / timeout).
    pub fn failed(system: &str, input_records: u64) -> Self {
        DataPoint {
            system: system.to_string(),
            input_records,
            runtime_secs: None,
        }
    }
}

/// Renders a list of data points as an aligned text table (one row per
/// (size, system) pair), which is what the `reproduce` binary prints and what
/// EXPERIMENTS.md records.
pub fn render_table(title: &str, points: &[DataPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let _ = writeln!(
        out,
        "{:>14} {:<24} {:>14}",
        "input records", "system", "runtime [s]"
    );
    for p in points {
        let runtime = match p.runtime_secs {
            Some(t) => format!("{t:.1}"),
            None => "FAILED/>cutoff".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>14} {:<24} {:>14}",
            p.input_records, p.system, runtime
        );
    }
    out
}

/// Every experiment the `reproduce` binary knows, in the order it prints
/// them when given none.
pub const EXPERIMENTS: [&str; 10] = [
    "fig1a",
    "fig1b",
    "fig1c",
    "fig4",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7a",
    "fig7b",
    "ablations",
];

/// The text table of experiment `name` (one of [`EXPERIMENTS`]), as the
/// `reproduce` binary prints it, or `None` for a name it does not know.
pub fn render_experiment(name: &str) -> Option<String> {
    use figures::MicroOp;
    let (title, points) = match name {
        "fig1a" => (
            "Figure 1a — single SUM aggregation (Spark vs Sharemind vs Obliv-C)",
            figures::fig1(MicroOp::Aggregate),
        ),
        "fig1b" => (
            "Figure 1b — single JOIN (Spark vs Sharemind vs Obliv-C)",
            figures::fig1(MicroOp::Join),
        ),
        "fig1c" => (
            "Figure 1c — single PROJECT (Spark vs Sharemind vs Obliv-C)",
            figures::fig1(MicroOp::Project),
        ),
        "fig4" => (
            "Figure 4 — market concentration query (HHI) end to end",
            figures::fig4(),
        ),
        "fig5a" => (
            "Figure 5a — hybrid join vs MPC join vs public join",
            figures::fig5a(),
        ),
        "fig5b" => (
            "Figure 5b — hybrid aggregation vs MPC aggregation",
            figures::fig5b(),
        ),
        "fig6" => ("Figure 6 — credit-card regulation query", figures::fig6()),
        "fig7a" => (
            "Figure 7a — aspirin count: Conclave vs SMCQL",
            figures::fig7a(),
        ),
        "fig7b" => (
            "Figure 7b — comorbidity: Conclave vs SMCQL",
            figures::fig7b(),
        ),
        "ablations" => (
            "Ablations — market query (1 M records) under each optimization toggle",
            figures::ablations(1_000_000),
        ),
        _ => return None,
    };
    Some(render_table(title, &points))
}

/// Runs one secret-sharing operator for real at small scale: a one-step
/// query on the in-process party runtime (`PartyRuntime::Simulated`), its
/// inputs shared and its result opened.
pub fn mpc_step(
    op: &conclave_ir::ops::Operator,
    inputs: &[&conclave_engine::Relation],
) -> conclave_core::party_exec::MeshSummary {
    use conclave_core::config::{DealerMode, PartyRuntime};
    use conclave_core::party_exec::{PartyMeshRuntime, StepInput};
    let mut rt = PartyMeshRuntime::with_dealer(3, 1, PartyRuntime::Simulated, &DealerMode::Seeded)
        .expect("the in-process runtime builds");
    let inputs = inputs
        .iter()
        .map(|r| StepInput::Table((*r).clone().into()))
        .collect();
    rt.enqueue(op, inputs, false, true).expect("the step runs");
    rt.finish().expect("the query ends")
}

/// The two-hour experiment cut-off the paper uses (e.g. §7.3: "at 30 k, the
/// query does not complete within two hours").
pub const CUTOFF_SECS: f64 = 2.0 * 3600.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_point_constructors() {
        let ok = DataPoint::ok("Conclave", 1000, 12.5);
        assert_eq!(ok.runtime_secs, Some(12.5));
        let failed = DataPoint::failed("Obliv-C", 1000);
        assert!(failed.runtime_secs.is_none());
    }

    #[test]
    fn table_rendering() {
        let points = vec![
            DataPoint::ok("Conclave", 10, 1.0),
            DataPoint::failed("Obliv-C", 10),
        ];
        let t = render_table("Figure X", &points);
        assert!(t.contains("Figure X"));
        assert!(t.contains("Conclave"));
        assert!(t.contains("FAILED"));
    }
}
