//! SQL-vs-builder differential suite.
//!
//! The SQL frontend must be a pure alternate spelling of the programmatic
//! `QueryBuilder`: for the paper's §7.4 queries (`comorbidity`,
//! `aspirin_count`) and the running credit-scoring example, the SQL text and
//! the hand-built DAG must produce **cell-identical** results under every
//! engine configuration — {row, columnar} × {hybrid operators on, off}.

use conclave::prelude::*;
use conclave_data::health::{ASPIRIN, HEART_DISEASE};
use conclave_ir::builder::Query;
use conclave_ir::expr::Expr;
use conclave_ir::trust::TrustSet;

/// The four configurations of the differential matrix:
/// {row, columnar} × {hybrid on, hybrid off}.
fn config_matrix() -> Vec<(&'static str, ConclaveConfig)> {
    vec![
        (
            "row+hybrid",
            ConclaveConfig::standard()
                .with_sequential_local()
                .with_engine_mode(EngineMode::Row),
        ),
        (
            "columnar+hybrid",
            ConclaveConfig::standard().with_sequential_local(),
        ),
        (
            "row+nohybrid",
            ConclaveConfig::without_hybrid()
                .with_sequential_local()
                .with_engine_mode(EngineMode::Row),
        ),
        (
            "columnar+nohybrid",
            ConclaveConfig::without_hybrid().with_sequential_local(),
        ),
    ]
}

/// Runs `sql` and `built` over the same bindings under every configuration
/// and asserts the outputs for `recipient` are cell-identical.
fn assert_sql_builder_parity(
    sql: &str,
    built: &Query,
    bindings: &[(&str, Relation)],
    recipient: u32,
) {
    for (label, config) in config_matrix() {
        let mut session = Session::new(config);
        for (name, rel) in bindings {
            session = session.bind(*name, rel.clone());
        }
        let sql_report = session
            .run_sql(sql)
            .unwrap_or_else(|e| panic!("[{label}] SQL run failed: {e}"));
        let builder_report = session
            .run(built)
            .unwrap_or_else(|e| panic!("[{label}] builder run failed: {e}"));
        let sql_out = sql_report.output_for(recipient).expect("SQL output");
        let builder_out = builder_report
            .output_for(recipient)
            .expect("builder output");
        assert_eq!(
            sql_out, builder_out,
            "[{label}] SQL and builder outputs differ"
        );
    }
}

// ---------------------------------------------------------------------------
// Comorbidity (§7.4): top-10 diagnoses across two hospitals.
// ---------------------------------------------------------------------------

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

fn comorbidity_builder() -> Query {
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

#[test]
fn comorbidity_sql_matches_builder_in_all_modes() {
    let mut gen = HealthGenerator::new(5);
    let d0 = gen.comorbidity_diagnoses(0, 600);
    let d1 = gen.comorbidity_diagnoses(1, 600);
    let built = comorbidity_builder();
    assert_sql_builder_parity(
        COMORBIDITY_SQL,
        &built,
        &[("diagnoses1", d0.clone()), ("diagnoses2", d1.clone())],
        1,
    );
    // The SQL result also matches the independent cleartext reference.
    let reference = HealthGenerator::reference_comorbidity(&[d0.clone(), d1.clone()], 10);
    let report = Session::new(ConclaveConfig::standard().with_sequential_local())
        .bind("diagnoses1", d0)
        .bind("diagnoses2", d1)
        .run_sql(COMORBIDITY_SQL)
        .unwrap();
    let counts: Vec<i64> = report
        .output_for(1)
        .unwrap()
        .column_values("cnt")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    let expected: Vec<i64> = reference.iter().map(|(_, c)| *c).collect();
    assert_eq!(counts, expected);
}

// ---------------------------------------------------------------------------
// Aspirin count (§7.4): distinct heart-disease patients prescribed aspirin.
// ---------------------------------------------------------------------------

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
         WHERE diagnosis = {HEART_DISEASE} AND medication = {ASPIRIN}
         REVEAL TO p1;"
    )
}

fn aspirin_builder() -> Query {
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

#[test]
fn aspirin_count_sql_matches_builder_in_all_modes() {
    let mut gen = HealthGenerator::new(17);
    let d0 = gen.diagnoses(0, 400);
    let d1 = gen.diagnoses(1, 400);
    let m0 = gen.medications(0, 400);
    let m1 = gen.medications(1, 400);
    let built = aspirin_builder();
    assert_sql_builder_parity(
        &aspirin_sql(),
        &built,
        &[
            ("diagnoses1", d0.clone()),
            ("diagnoses2", d1.clone()),
            ("medications1", m0.clone()),
            ("medications2", m1.clone()),
        ],
        1,
    );
    // The SQL count also matches the independent cleartext reference.
    let reference = HealthGenerator::reference_aspirin_count(
        &[d0.clone(), d1.clone()],
        &[m0.clone(), m1.clone()],
    );
    let report = Session::new(ConclaveConfig::standard().with_sequential_local())
        .bind("diagnoses1", d0)
        .bind("diagnoses2", d1)
        .bind("medications1", m0)
        .bind("medications2", m1)
        .run_sql(&aspirin_sql())
        .unwrap();
    let count = report
        .output_for(1)
        .and_then(|r| r.scalar().cloned())
        .and_then(|v| v.as_int())
        .unwrap();
    assert_eq!(count, reference);
}

// ---------------------------------------------------------------------------
// Credit scoring (the running example): join + grouped sum with trust
// annotations that enable the hybrid rewrites.
// ---------------------------------------------------------------------------

const CREDIT_SQL: &str = "
    CREATE TABLE demographics (ssn INT, zip INT TRUSTED BY (p1)) WITH OWNER p1;
    CREATE TABLE scores1 (ssn INT TRUSTED BY (p1), score INT) WITH OWNER p2;
    CREATE TABLE scores2 (ssn INT TRUSTED BY (p1), score INT) WITH OWNER p3;
    SELECT zip, SUM(score) AS total
    FROM demographics JOIN (scores1 UNION ALL scores2) ON ssn = ssn
    GROUP BY zip
    REVEAL TO p1;
";

fn credit_builder() -> Query {
    let regulator = Party::new(1, "p1");
    let bank_a = Party::new(2, "p2");
    let bank_b = Party::new(3, "p3");
    let demo = Schema::new(vec![
        ColumnDef::new("ssn", DataType::Int),
        ColumnDef::with_trust("zip", DataType::Int, TrustSet::of([1])),
    ]);
    let bank = Schema::new(vec![
        ColumnDef::with_trust("ssn", DataType::Int, TrustSet::of([1])),
        ColumnDef::new("score", DataType::Int),
    ]);
    let mut q = QueryBuilder::new();
    let demographics = q.input("demographics", demo, regulator.clone());
    let s1 = q.input("scores1", bank.clone(), bank_a);
    let s2 = q.input("scores2", bank, bank_b);
    let scores = q.concat(&[s1, s2]);
    let joined = q.join(demographics, scores, &["ssn"], &["ssn"]);
    let total = q.aggregate(joined, "total", AggFunc::Sum, &["zip"], "score");
    q.collect(total, &[regulator]);
    q.build().expect("well formed")
}

#[test]
fn credit_sql_matches_builder_and_enables_hybrid_rewrites() {
    let mut gen = CreditGenerator::new(11);
    let demo = gen.demographics(200);
    let s1 = gen.agency_scores(150);
    let s2 = gen.agency_scores(150);
    let built = credit_builder();
    assert_sql_builder_parity(
        CREDIT_SQL,
        &built,
        &[
            ("demographics", demo.clone()),
            ("scores1", s1.clone()),
            ("scores2", s2.clone()),
        ],
        1,
    );
    // The trust annotations written in SQL must enable the same hybrid
    // rewrites the builder schema enables: under the standard config, the
    // join and aggregation leave the monolithic-MPC frontier.
    let config = ConclaveConfig::standard().with_sequential_local();
    let session = Session::new(config.clone())
        .bind("demographics", demo)
        .bind("scores1", s1)
        .bind("scores2", s2);
    let sql_query = session.sql_query(CREDIT_SQL).unwrap();
    let sql_plan = compile(&sql_query, &config).unwrap();
    let builder_plan = compile(&built, &config).unwrap();
    assert_eq!(
        sql_plan.mpc_node_count(),
        builder_plan.mpc_node_count(),
        "SQL and builder plans must leave the same residue under MPC"
    );
    assert!(
        sql_plan
            .transformations
            .iter()
            .any(|t| t.contains("hybrid")),
        "trust annotations in SQL should trigger hybrid rewrites: {:?}",
        sql_plan.transformations
    );
}
