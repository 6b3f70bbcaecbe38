//! The comorbidity query of §7.4: the ten most common diagnoses across two
//! hospitals' private data, compared between Conclave and the SMCQL baseline.
//!
//! The query is written twice — in the Conclave SQL dialect (the
//! analyst-facing surface, see `docs/SQL.md`) and through the programmatic
//! `QueryBuilder` — and the two must produce cell-identical results.
//!
//! Run with: `cargo run --release --example comorbidity`

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave::prelude::*;
use conclave_smcql::queries as smcql;
use conclave_smcql::SmcqlPlanner;
use std::collections::HashMap;

/// The comorbidity query as SQL: count diagnoses across both hospitals'
/// (concatenated) rows, keep the ten most common, reveal to hospital A.
const COMORBIDITY_SQL: &str = "
    CREATE TABLE diagnoses1 (patientID INT PUBLIC, diagnosis INT)
        WITH OWNER p1 AT 'hospital-a.org';
    CREATE TABLE diagnoses2 (patientID INT PUBLIC, diagnosis INT)
        WITH OWNER p2 AT 'hospital-b.org';

    SELECT diagnosis, COUNT(*) AS cnt
    FROM (diagnoses1 UNION ALL diagnoses2)
    GROUP BY diagnosis
    ORDER BY cnt DESC
    LIMIT 10
    REVEAL TO p1;
";

fn build_query() -> conclave_ir::builder::Query {
    let hospital_a = Party::new(1, "hospital-a.org");
    let hospital_b = Party::new(2, "hospital-b.org");
    let diag_schema = Schema::new(vec![
        ColumnDef::public("patientID", DataType::Int),
        ColumnDef::new("diagnosis", DataType::Int),
    ]);
    let mut q = QueryBuilder::new();
    let d1 = q.input("diagnoses1", diag_schema.clone(), hospital_a.clone());
    let d2 = q.input("diagnoses2", diag_schema, hospital_b);
    let diag = q.concat(&[d1, d2]);
    let counts = q.count(diag, "cnt", &["diagnosis"]);
    let sorted = q.sort_by(counts, "cnt", false);
    let top = q.limit(sorted, 10);
    q.collect(top, &[hospital_a]);
    q.build().expect("well formed")
}

fn main() {
    let rows_per_hospital = 1_500;
    let mut gen = HealthGenerator::new(5);
    let d0 = gen.comorbidity_diagnoses(0, rows_per_hospital);
    let d1 = gen.comorbidity_diagnoses(1, rows_per_hospital);
    let reference = HealthGenerator::reference_comorbidity(&[d0.clone(), d1.clone()], 10);

    // --- Conclave, from SQL ---
    let session = Session::new(ConclaveConfig::standard().with_sequential_local())
        .bind("diagnoses1", d0.clone())
        .bind("diagnoses2", d1.clone());
    println!("=== Conclave SQL query ===\n{COMORBIDITY_SQL}");
    let report = session.run_sql(COMORBIDITY_SQL).expect("SQL query runs");
    let conclave_top = report
        .output_for(1)
        .expect("hospital A receives the output");

    // --- Conclave, from the programmatic builder (must agree cell for cell) ---
    let query = build_query();
    let config = ConclaveConfig::standard().with_sequential_local();
    let plan = compile(&query, &config).expect("compiles");
    println!("=== Conclave plan ===");
    for t in &plan.transformations {
        println!("  - {t}");
    }
    let mut inputs = HashMap::new();
    inputs.insert("diagnoses1".to_string(), Table::from_rows(d0.clone()));
    inputs.insert("diagnoses2".to_string(), Table::from_rows(d1.clone()));
    let mut driver = Driver::new(config);
    let builder_report = driver.run_tables(&plan, &inputs).expect("runs");
    let builder_top = builder_report
        .output_for(1)
        .expect("hospital A receives the output");
    assert_eq!(
        conclave_top, builder_top,
        "SQL and builder plans must produce identical results"
    );

    // --- SMCQL baseline ---
    let mut planner = SmcqlPlanner::default_paper_setup();
    let smcql_run = smcql::comorbidity(&mut planner, [&d0, &d1], 10).expect("runs");

    // Both systems must agree with the cleartext reference on the counts of
    // the top-10 diagnoses (ties may reorder diagnosis codes).
    let reference_counts: Vec<i64> = reference.iter().map(|(_, c)| *c).collect();
    let conclave_counts: Vec<i64> = conclave_top
        .column_values("cnt")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    let smcql_counts: Vec<i64> = smcql_run
        .result
        .column_values("cnt")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    assert_eq!(conclave_counts, reference_counts, "Conclave top-10 counts");
    assert_eq!(smcql_counts, reference_counts, "SMCQL top-10 counts");

    println!("\ntop-10 diagnosis counts  : {reference_counts:?}");
    println!(
        "Conclave (Sharemind-like): {:.1} s simulated",
        report.modeled.total_time().as_secs_f64()
    );
    println!(
        "SMCQL (ObliVM-like)      : {:.1} s simulated",
        smcql_run.total_time().as_secs_f64()
    );
    println!(
        "\nBoth systems split the aggregation into local partials; the gap is the\n\
         MPC backend difference the paper highlights in §7.4 (secret sharing vs\n\
         garbled circuits for arithmetic-heavy queries)."
    );
}
