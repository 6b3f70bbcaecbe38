//! The aspirin-count medical-research query of §7.4, comparing Conclave with
//! the SMCQL baseline on the same synthetic HealthLNK-style data.
//!
//! Two hospitals hold diagnoses and medications keyed by (public) patient
//! IDs; the query counts distinct patients diagnosed with heart disease who
//! were prescribed aspirin. Patient IDs being public lets Conclave use its
//! public join; diagnosis and medication codes stay private.
//!
//! The query is written twice — in the Conclave SQL dialect (see
//! `docs/SQL.md`) and through the programmatic `QueryBuilder` — and the two
//! must agree on the count.
//!
//! Run with: `cargo run --release --example aspirin_count`

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave::prelude::*;
use conclave_data::health::{ASPIRIN, HEART_DISEASE};
use conclave_ir::expr::Expr;
use conclave_smcql::queries as smcql;
use conclave_smcql::SmcqlPlanner;
use std::collections::HashMap;

/// The aspirin-count query as SQL. The `{hd}` / `{asp}` placeholders are
/// filled with the HealthLNK-style diagnosis and medication codes.
fn aspirin_sql() -> String {
    format!(
        "CREATE TABLE diagnoses1 (patientID INT PUBLIC, diagnosis INT)
             WITH OWNER p1 AT 'hospital-a.org';
         CREATE TABLE diagnoses2 (patientID INT PUBLIC, diagnosis INT)
             WITH OWNER p2 AT 'hospital-b.org';
         CREATE TABLE medications1 (patientID INT PUBLIC, medication INT)
             WITH OWNER p1 AT 'hospital-a.org';
         CREATE TABLE medications2 (patientID INT PUBLIC, medication INT)
             WITH OWNER p2 AT 'hospital-b.org';

         SELECT COUNT(DISTINCT patientID) AS num_patients
         FROM (diagnoses1 UNION ALL diagnoses2)
              JOIN (medications1 UNION ALL medications2) ON patientID = patientID
         WHERE diagnosis = {hd} AND medication = {asp}
         REVEAL TO p1;",
        hd = HEART_DISEASE,
        asp = ASPIRIN,
    )
}

fn build_query() -> conclave_ir::builder::Query {
    let hospital_a = Party::new(1, "hospital-a.org");
    let hospital_b = Party::new(2, "hospital-b.org");
    let diag_schema = Schema::new(vec![
        ColumnDef::public("patientID", DataType::Int),
        ColumnDef::new("diagnosis", DataType::Int),
    ]);
    let med_schema = Schema::new(vec![
        ColumnDef::public("patientID", DataType::Int),
        ColumnDef::new("medication", DataType::Int),
    ]);
    let mut q = QueryBuilder::new();
    let d1 = q.input("diagnoses1", diag_schema.clone(), hospital_a.clone());
    let d2 = q.input("diagnoses2", diag_schema, hospital_b.clone());
    let m1 = q.input("medications1", med_schema.clone(), hospital_a.clone());
    let m2 = q.input("medications2", med_schema, hospital_b);
    let diag = q.concat(&[d1, d2]);
    let meds = q.concat(&[m1, m2]);
    // Join on the public patient IDs first (enabling the public join), then
    // filter on the private diagnosis and medication codes.
    let joined = q.join(diag, meds, &["patientID"], &["patientID"]);
    let matching = q.filter(
        joined,
        Expr::col("diagnosis")
            .eq(Expr::lit(HEART_DISEASE))
            .and(Expr::col("medication").eq(Expr::lit(ASPIRIN))),
    );
    let count = q.distinct_count(matching, "patientID", "num_patients");
    q.collect(count, &[hospital_a]);
    q.build().expect("well formed")
}

fn main() {
    let rows_per_hospital = 1_000;
    let mut gen = HealthGenerator::new(17);
    let d0 = gen.diagnoses(0, rows_per_hospital);
    let d1 = gen.diagnoses(1, rows_per_hospital);
    let m0 = gen.medications(0, rows_per_hospital);
    let m1 = gen.medications(1, rows_per_hospital);
    let reference = HealthGenerator::reference_aspirin_count(
        &[d0.clone(), d1.clone()],
        &[m0.clone(), m1.clone()],
    );

    // --- Conclave, from SQL ---
    let sql = aspirin_sql();
    let sql_report = Session::new(ConclaveConfig::standard().with_sequential_local())
        .bind("diagnoses1", d0.clone())
        .bind("diagnoses2", d1.clone())
        .bind("medications1", m0.clone())
        .bind("medications2", m1.clone())
        .run_sql(&sql)
        .expect("SQL query runs");
    let sql_count = sql_report
        .output_for(1)
        .and_then(|r| r.scalar().cloned())
        .and_then(|v| v.as_int())
        .expect("single count value");

    // --- Conclave, from the programmatic builder (must agree) ---
    let query = build_query();
    let config = ConclaveConfig::standard().with_sequential_local();
    let plan = compile(&query, &config).expect("compiles");
    let mut inputs = HashMap::new();
    inputs.insert("diagnoses1".to_string(), Table::from_rows(d0.clone()));
    inputs.insert("diagnoses2".to_string(), Table::from_rows(d1.clone()));
    inputs.insert("medications1".to_string(), Table::from_rows(m0.clone()));
    inputs.insert("medications2".to_string(), Table::from_rows(m1.clone()));
    let mut driver = Driver::new(config);
    let report = driver.run_tables(&plan, &inputs).expect("runs");
    let conclave_count = report
        .output_for(1)
        .and_then(|r| r.scalar().cloned())
        .and_then(|v| v.as_int())
        .expect("single count value");
    assert_eq!(
        sql_count, conclave_count,
        "SQL and builder plans must count the same patients"
    );

    // --- SMCQL baseline ---
    let mut planner = SmcqlPlanner::default_paper_setup();
    let smcql_run = smcql::aspirin_count(&mut planner, [&d0, &d1], [&m0, &m1]).expect("runs");

    println!("cleartext reference count : {reference}");
    println!("Conclave                  : {conclave_count} patients, {:.1} s simulated, {} MPC operators",
        report.modeled.total_time().as_secs_f64(), plan.mpc_node_count());
    println!(
        "SMCQL                     : {} patients, {:.1} s simulated",
        smcql_run.result,
        smcql_run.total_time().as_secs_f64()
    );
    assert_eq!(conclave_count, reference);
    assert_eq!(smcql_run.result, reference);
    assert!(
        report.modeled.total_time() < smcql_run.total_time(),
        "Conclave should outperform SMCQL on this query (Figure 7a)"
    );
}
