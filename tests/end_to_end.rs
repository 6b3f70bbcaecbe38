//! Cross-crate integration tests: compile and execute the paper's queries end
//! to end over generated data and check the results against independent
//! cleartext references, under every backend configuration.

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave::prelude::*;
use conclave_core::config::LocalBackend;
use conclave_data::{CreditGenerator, HealthGenerator, TaxiGenerator};
use conclave_engine::Relation;
use conclave_ir::expr::Expr;
use conclave_ir::ops::Operand;
use conclave_ir::trust::TrustSet;
use std::collections::HashMap;

fn market_query() -> conclave_ir::builder::Query {
    let pa = Party::new(1, "a");
    let pb = Party::new(2, "b");
    let pc = Party::new(3, "c");
    let schema = Schema::new(vec![
        ColumnDef::new("companyID", DataType::Int),
        ColumnDef::new("price", DataType::Int),
        ColumnDef::new("airport", DataType::Int),
    ]);
    let mut q = QueryBuilder::new();
    let a = q.input("inputA", schema.clone(), pa.clone());
    let b = q.input("inputB", schema.clone(), pb);
    let c = q.input("inputC", schema, pc);
    let trips = q.concat(&[a, b, c]);
    let paid = q.filter(trips, Expr::col("price").gt(Expr::lit(0)));
    let proj = q.project(paid, &["companyID", "price"]);
    let revenue = q.aggregate(proj, "rev", AggFunc::Sum, &["companyID"], "price");
    q.collect(revenue, &[pa]);
    q.build().unwrap()
}

fn taxi_inputs(total: usize, seed: u64) -> (HashMap<String, Table>, Vec<Relation>) {
    let mut gen = TaxiGenerator::new(seed);
    let parts = gen.split_across_parties(total, 3);
    let mut inputs = HashMap::new();
    for (name, rel) in ["inputA", "inputB", "inputC"].iter().zip(parts.iter()) {
        inputs.insert(name.to_string(), Table::from_rows(rel.clone()));
    }
    (inputs, parts)
}

fn reference_revenue(parts: &[Relation]) -> HashMap<i64, i64> {
    let mut revenue = HashMap::new();
    for p in parts {
        for row in &p.rows {
            let price = row[1].as_int().unwrap();
            if price > 0 {
                *revenue.entry(row[0].as_int().unwrap()).or_insert(0) += price;
            }
        }
    }
    revenue
}

#[test]
fn market_query_is_correct_under_all_configurations() {
    let query = market_query();
    let (inputs, parts) = taxi_inputs(900, 1);
    let reference = reference_revenue(&parts);
    let configs = vec![
        ("standard/parallel", ConclaveConfig::standard()),
        (
            "standard/sequential",
            ConclaveConfig::standard().with_sequential_local(),
        ),
        ("no pushdown consent", {
            let mut c = ConclaveConfig::standard();
            c.allow_cardinality_leaking_pushdown = false;
            c
        }),
        ("mpc only", ConclaveConfig::mpc_only()),
    ];
    for (name, config) in configs {
        let plan =
            conclave_core::compile(&query, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut driver = Driver::new(config);
        let report = driver
            .run_tables(&plan, &inputs)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let out = report.output_for(1).expect("party 1 receives the result");
        assert_eq!(out.num_rows(), reference.len(), "{name}: wrong group count");
        for row in &out.rows {
            let company = row[0].as_int().unwrap();
            let rev = row[1].as_int().unwrap();
            assert_eq!(
                reference[&company], rev,
                "{name}: wrong revenue for company {company}"
            );
        }
    }
}

/// The full oracle matrix: {sequential row, parallel row, sequential
/// vectorized, parallel vectorized} × {hybrid operators on, off}.
fn engine_hybrid_matrix() -> Vec<(String, ConclaveConfig)> {
    let mut out = Vec::new();
    for (hybrid_name, base) in [
        ("hybrid", ConclaveConfig::standard()),
        ("no-hybrid", ConclaveConfig::without_hybrid()),
    ] {
        for (engine_name, config) in [
            ("seq-row", base.clone().with_sequential_local()),
            (
                "seq-vectorized",
                base.clone().with_sequential_local().with_columnar(),
            ),
            ("parallel-row", base.clone()),
            ("parallel-vectorized", base.clone().with_columnar()),
        ] {
            out.push((format!("{hybrid_name}/{engine_name}"), config));
        }
    }
    out
}

#[test]
fn market_query_agrees_across_engine_and_hybrid_matrix() {
    let query = market_query();
    let (inputs, parts) = taxi_inputs(600, 5);
    let reference = reference_revenue(&parts);
    let mut outputs: Vec<(String, Relation)> = Vec::new();
    for (name, config) in engine_hybrid_matrix() {
        let plan =
            conclave_core::compile(&query, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut driver = Driver::new(config);
        let report = driver
            .run_tables(&plan, &inputs)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let out = report.output_for(1).expect("party 1 receives the result");
        assert_eq!(out.num_rows(), reference.len(), "{name}: wrong group count");
        for row in &out.rows {
            let company = row[0].as_int().unwrap();
            assert_eq!(
                reference[&company],
                row[1].as_int().unwrap(),
                "{name}: wrong revenue for company {company}"
            );
        }
        outputs.push((name, out.clone()));
    }
    // Every configuration agrees with every other, not just with the oracle.
    let (first_name, first) = &outputs[0];
    for (name, out) in &outputs[1..] {
        assert!(
            out.same_rows_unordered(first),
            "{name} disagrees with {first_name}"
        );
    }
}

#[test]
fn credit_query_agrees_across_engine_and_hybrid_matrix() {
    let population = 400;
    let mut gen = CreditGenerator::new(7);
    let demographics = gen.demographics(population);
    let s1 = gen.agency_scores(population);
    let s2 = gen.agency_scores(population);
    let reference =
        CreditGenerator::reference_average_by_zip(&demographics, &[s1.clone(), s2.clone()]);
    let mut inputs = HashMap::new();
    inputs.insert("demographics".to_string(), Table::from_rows(demographics));
    inputs.insert("scores1".to_string(), Table::from_rows(s1));
    inputs.insert("scores2".to_string(), Table::from_rows(s2));

    let mut outputs: Vec<(String, Relation)> = Vec::new();
    for (name, config) in engine_hybrid_matrix() {
        // With trust annotations the hybrid configs compile hybrid operators;
        // without-hybrid configs run the same query fully under MPC rewrites.
        let query = credit_query(true);
        let plan =
            conclave_core::compile(&query, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
        if config.use_hybrid_operators {
            assert!(plan.hybrid_node_count() >= 2, "{name}: hybrid ops expected");
        }
        let mut driver = Driver::new(config);
        let report = driver
            .run_tables(&plan, &inputs)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let out = report.output_for(1).unwrap();
        let zip_idx = out.schema.index_of("zip").unwrap();
        let avg_idx = out.schema.index_of("avg_score").unwrap();
        assert_eq!(out.num_rows(), reference.len(), "{name}: group count");
        for row in &out.rows {
            let zip = row[zip_idx].as_int().unwrap();
            let avg = row[avg_idx].as_float().unwrap();
            let (_, expected) = reference
                .iter()
                .find(|(z, _)| *z == zip)
                .expect("zip exists");
            assert!(
                (avg - expected).abs() < 1e-9,
                "{name}: zip {zip}: {avg} vs {expected}"
            );
        }
        outputs.push((name, out.clone()));
    }
    let (first_name, first) = &outputs[0];
    for (name, out) in &outputs[1..] {
        assert!(
            out.same_rows_unordered(first),
            "{name} disagrees with {first_name}"
        );
    }
}

/// A single-party query whose compiled plan is entirely local: the cleanest
/// probe for mid-plan conversion behavior.
fn local_only_query() -> conclave_ir::builder::Query {
    let p = Party::new(1, "solo");
    let schema = Schema::ints(&["companyID", "price"]);
    let mut q = QueryBuilder::new();
    let t = q.input("sales", schema, p.clone());
    let paid = q.filter(t, Expr::col("price").gt(Expr::lit(0)));
    let rev = q.aggregate(paid, "rev", AggFunc::Sum, &["companyID"], "price");
    q.collect(rev, &[p]);
    q.build().unwrap()
}

#[test]
fn columnar_driven_query_converts_only_at_input_and_collect_boundaries() {
    let query = local_only_query();
    let rel = Relation::from_ints(
        &["companyID", "price"],
        &(0..500)
            .map(|i| vec![i % 7, (i * 13) % 100])
            .collect::<Vec<_>>(),
    );
    let config = ConclaveConfig::standard()
        .with_sequential_local()
        .with_columnar();

    // Column-backed inputs: ZERO mid-plan conversions; the single
    // columnar→row conversion happens at the collect (reveal) boundary.
    let report = Session::new(config.clone())
        .bind("sales", ColumnarRelation::from_rows(&rel))
        .run(&query)
        .unwrap();
    assert_eq!(
        report.conversions.row_to_columnar, 0,
        "columnar-bound inputs must never be re-converted mid-plan"
    );
    assert_eq!(
        report.conversions.columnar_to_row, 1,
        "exactly one conversion, at the collect boundary"
    );

    // Row-backed inputs: one conversion at the input binding, one at the
    // collect boundary — still nothing between plan operators.
    let plan = conclave_core::compile(&query, &config).unwrap();
    let mut driver = Driver::new(config.clone());
    let mut inputs = HashMap::new();
    inputs.insert("sales".to_string(), Table::from_rows(rel.clone()));
    let report = driver.run_tables(&plan, &inputs).unwrap();
    assert_eq!(report.conversions.row_to_columnar, 1, "input binding only");
    assert_eq!(report.conversions.columnar_to_row, 1, "collect only");

    // Row mode never converts at all.
    let row_report = Session::new(ConclaveConfig::standard().with_sequential_local())
        .bind("sales", rel)
        .run(&query)
        .unwrap();
    assert_eq!(row_report.conversions.total(), 0);
}

#[test]
fn multi_party_columnar_queries_convert_only_at_boundaries() {
    let query = market_query();
    let (inputs, _) = taxi_inputs(600, 11);
    let tables: HashMap<String, Table> = inputs
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                Table::from_columns(ColumnarRelation::from_rows(v.as_rows())),
            )
        })
        .collect();
    let n_inputs = tables.len() as u64;
    for config in [
        ConclaveConfig::standard()
            .with_sequential_local()
            .with_columnar(),
        ConclaveConfig::mpc_only()
            .with_sequential_local()
            .with_columnar(),
    ] {
        let plan = conclave_core::compile(&query, &config).unwrap();
        let node_count = plan.dag.node_count() as u64;
        let mut driver = Driver::new(config);
        let report = driver.run_tables(&plan, &tables).unwrap();
        // Column-backed inputs are shared column-at-a-time and never
        // round-trip through rows; conversions are bounded by the genuine
        // domain boundaries (inputs, reveals, collect), not by plan size.
        assert_eq!(report.conversions.row_to_columnar, 0);
        assert!(
            report.conversions.columnar_to_row <= n_inputs + 1,
            "conversions ({}) must stay at reveal boundaries, got report:\n{report}",
            report.conversions.columnar_to_row
        );
        // The pre-redesign data plane converted at every operator edge; the
        // new one is strictly below one conversion per node.
        assert!(report.conversions.total() < node_count);
    }
}

#[test]
fn parallel_and_sequential_local_backends_agree() {
    let query = market_query();
    let (inputs, _) = taxi_inputs(2_000, 2);
    let plan = conclave_core::compile(&query, &ConclaveConfig::standard()).unwrap();
    let mut seq_driver = Driver::new(ConclaveConfig::standard().with_sequential_local());
    let mut par_driver = Driver::new(ConclaveConfig::standard());
    assert_eq!(
        ConclaveConfig::standard().local_backend,
        LocalBackend::Parallel
    );
    let seq = seq_driver.run_tables(&plan, &inputs).unwrap();
    let par = par_driver.run_tables(&plan, &inputs).unwrap();
    assert!(seq
        .output_for(1)
        .unwrap()
        .same_rows_unordered(par.output_for(1).unwrap()));
}

fn credit_query(annotated: bool) -> conclave_ir::builder::Query {
    let regulator = Party::new(1, "gov");
    let a = Party::new(2, "a");
    let b = Party::new(3, "b");
    let ssn_trust = if annotated {
        TrustSet::of([1])
    } else {
        TrustSet::private()
    };
    let demo = Schema::new(vec![
        ColumnDef::new("ssn", DataType::Int),
        ColumnDef::with_trust("zip", DataType::Int, TrustSet::of([1])),
    ]);
    let agency = Schema::new(vec![
        ColumnDef::with_trust("ssn", DataType::Int, ssn_trust),
        ColumnDef::new("score", DataType::Int),
    ]);
    let mut q = QueryBuilder::new();
    let demographics = q.input("demographics", demo, regulator.clone());
    let s1 = q.input("scores1", agency.clone(), a);
    let s2 = q.input("scores2", agency, b);
    let scores = q.concat(&[s1, s2]);
    let joined = q.join(demographics, scores, &["ssn"], &["ssn"]);
    let count = q.count(joined, "count", &["zip"]);
    let total = q.aggregate(joined, "total", AggFunc::Sum, &["zip"], "score");
    let both = q.join(total, count, &["zip"], &["zip"]);
    let avg = q.divide(
        both,
        "avg_score",
        Operand::col("total"),
        Operand::col("count"),
    );
    q.collect(avg, &[regulator]);
    q.build().unwrap()
}

#[test]
fn credit_query_matches_reference_with_and_without_hybrid_operators() {
    let population = 600;
    let mut gen = CreditGenerator::new(3);
    let demographics = gen.demographics(population);
    let s1 = gen.agency_scores(population);
    let s2 = gen.agency_scores(population);
    let reference =
        CreditGenerator::reference_average_by_zip(&demographics, &[s1.clone(), s2.clone()]);
    let mut inputs = HashMap::new();
    inputs.insert("demographics".to_string(), Table::from_rows(demographics));
    inputs.insert("scores1".to_string(), Table::from_rows(s1));
    inputs.insert("scores2".to_string(), Table::from_rows(s2));

    for (annotated, config) in [
        (true, ConclaveConfig::standard().with_sequential_local()),
        (false, ConclaveConfig::standard().with_sequential_local()),
    ] {
        let query = credit_query(annotated);
        let plan = conclave_core::compile(&query, &config).unwrap();
        if annotated {
            assert!(
                plan.hybrid_node_count() >= 2,
                "annotations enable hybrid operators"
            );
        }
        let mut driver = Driver::new(config.clone());
        let report = driver.run_tables(&plan, &inputs).unwrap();
        let out = report.output_for(1).unwrap();
        let zip_idx = out.schema.index_of("zip").unwrap();
        let avg_idx = out.schema.index_of("avg_score").unwrap();
        assert_eq!(out.num_rows(), reference.len());
        for row in &out.rows {
            let zip = row[zip_idx].as_int().unwrap();
            let avg = row[avg_idx].as_float().unwrap();
            let (_, expected) = reference
                .iter()
                .find(|(z, _)| *z == zip)
                .expect("zip exists");
            assert!(
                (avg - expected).abs() < 1e-9,
                "zip {zip}: {avg} vs {expected}"
            );
        }
    }
}

#[test]
fn hybrid_plan_reveals_only_to_the_stp_and_is_cheaper() {
    let population = 400;
    let mut gen = CreditGenerator::new(4);
    let mut inputs = HashMap::new();
    inputs.insert(
        "demographics".to_string(),
        Table::from_rows(gen.demographics(population)),
    );
    inputs.insert(
        "scores1".to_string(),
        Table::from_rows(gen.agency_scores(population)),
    );
    inputs.insert(
        "scores2".to_string(),
        Table::from_rows(gen.agency_scores(population)),
    );

    let hybrid_plan =
        conclave_core::compile(&credit_query(true), &ConclaveConfig::standard()).unwrap();
    let mpc_plan =
        conclave_core::compile(&credit_query(false), &ConclaveConfig::mpc_only()).unwrap();
    let mut d1 = Driver::new(ConclaveConfig::standard().with_sequential_local());
    let mut d2 = Driver::new(ConclaveConfig::mpc_only().with_sequential_local());
    let hybrid = d1.run_tables(&hybrid_plan, &inputs).unwrap();
    let baseline = d2.run_tables(&mpc_plan, &inputs).unwrap();

    // Results agree.
    assert!(hybrid
        .output_for(1)
        .unwrap()
        .same_rows_unordered(baseline.output_for(1).unwrap()));
    // Hybrid execution does far less MPC work.
    assert!(
        hybrid.mpc_stats.counts.nonlinear_ops() * 3 < baseline.mpc_stats.counts.nonlinear_ops(),
        "hybrid {} vs baseline {}",
        hybrid.mpc_stats.counts.nonlinear_ops(),
        baseline.mpc_stats.counts.nonlinear_ops()
    );
    // Every leakage event goes to the regulator (party 1), never to the
    // competing agencies.
    assert!(!hybrid.leakage.is_empty());
    assert!(hybrid.leakage.iter().all(|e| e.to_party == 1));
}

#[test]
fn aspirin_count_conclave_and_smcql_agree_with_reference() {
    let rows = 300;
    let mut gen = HealthGenerator::new(9);
    let d0 = gen.diagnoses(0, rows);
    let d1 = gen.diagnoses(1, rows);
    let m0 = gen.medications(0, rows);
    let m1 = gen.medications(1, rows);
    let reference = HealthGenerator::reference_aspirin_count(
        &[d0.clone(), d1.clone()],
        &[m0.clone(), m1.clone()],
    );

    // Conclave.
    let hospital_a = Party::new(1, "a");
    let hospital_b = Party::new(2, "b");
    let diag_schema = Schema::new(vec![
        ColumnDef::public("patientID", DataType::Int),
        ColumnDef::new("diagnosis", DataType::Int),
    ]);
    let med_schema = Schema::new(vec![
        ColumnDef::public("patientID", DataType::Int),
        ColumnDef::new("medication", DataType::Int),
    ]);
    let mut q = QueryBuilder::new();
    let i1 = q.input("d1", diag_schema.clone(), hospital_a.clone());
    let i2 = q.input("d2", diag_schema, hospital_b.clone());
    let i3 = q.input("m1", med_schema.clone(), hospital_a.clone());
    let i4 = q.input("m2", med_schema, hospital_b);
    let diag = q.concat(&[i1, i2]);
    let meds = q.concat(&[i3, i4]);
    let joined = q.join(diag, meds, &["patientID"], &["patientID"]);
    let matching = q.filter(
        joined,
        Expr::col("diagnosis")
            .eq(Expr::lit(conclave_data::health::HEART_DISEASE))
            .and(Expr::col("medication").eq(Expr::lit(conclave_data::health::ASPIRIN))),
    );
    let count = q.distinct_count(matching, "patientID", "n");
    q.collect(count, &[hospital_a]);
    let query = q.build().unwrap();

    let config = ConclaveConfig::standard().with_sequential_local();
    let plan = conclave_core::compile(&query, &config).unwrap();
    let mut inputs = HashMap::new();
    inputs.insert("d1".to_string(), Table::from_rows(d0.clone()));
    inputs.insert("d2".to_string(), Table::from_rows(d1.clone()));
    inputs.insert("m1".to_string(), Table::from_rows(m0.clone()));
    inputs.insert("m2".to_string(), Table::from_rows(m1.clone()));
    let mut driver = Driver::new(config);
    let report = driver.run_tables(&plan, &inputs).unwrap();
    let conclave_count = report
        .output_for(1)
        .and_then(|r| r.scalar().cloned())
        .and_then(|v| v.as_int())
        .unwrap();
    assert_eq!(conclave_count, reference);

    // SMCQL.
    let mut planner = conclave_smcql::SmcqlPlanner::default_paper_setup();
    let smcql_run =
        conclave_smcql::queries::aspirin_count(&mut planner, [&d0, &d1], [&m0, &m1]).unwrap();
    assert_eq!(smcql_run.result, reference);
    // Conclave's simulated runtime beats SMCQL's (Figure 7a's shape).
    assert!(report.modeled.total_time() < smcql_run.total_time());
}

#[test]
fn garbled_circuit_backend_runs_small_queries_and_fails_predictably_at_scale() {
    let query = market_query();
    let (inputs, parts) = taxi_inputs(240, 6);
    let reference = reference_revenue(&parts);
    let config = ConclaveConfig::standard()
        .with_sequential_local()
        .with_mpc(MpcBackendConfig::obliv_c());
    let plan = conclave_core::compile(&query, &config).unwrap();
    let mut driver = Driver::new(config);
    let report = driver.run_tables(&plan, &inputs).unwrap();
    let out = report.output_for(1).unwrap();
    assert_eq!(out.num_rows(), reference.len());
    assert!(
        report.mpc_stats.circuit.and_gates > 0,
        "GC backend counts gates"
    );
}
