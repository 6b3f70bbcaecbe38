//! The credit-card regulation scenario of §2.1, Listing 1 and §7.3.
//!
//! A government regulator holds demographics (SSN → ZIP); two credit agencies
//! hold SSN-keyed credit scores. The regulator should learn the average score
//! per ZIP code. The agencies are willing to let the *regulator* (and only
//! the regulator) see their SSN columns — the trust annotation that enables
//! Conclave's hybrid join and hybrid aggregation.
//!
//! Run with: `cargo run --release --example credit_regulation`

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave::prelude::*;
use conclave_ir::ops::Operand;
use conclave_ir::trust::TrustSet;
use std::collections::HashMap;

fn build_query(trust_regulator_with_ssn: bool) -> conclave_ir::builder::Query {
    let regulator = Party::new(1, "mpc.ftc.gov");
    let agency_a = Party::new(2, "mpc.a.com");
    let agency_b = Party::new(3, "mpc.b.cash");
    let ssn_trust = if trust_regulator_with_ssn {
        TrustSet::of([1])
    } else {
        TrustSet::private()
    };
    let demo_schema = Schema::new(vec![
        ColumnDef::new("ssn", DataType::Int),
        ColumnDef::with_trust("zip", DataType::Int, TrustSet::of([1])),
    ]);
    let agency_schema = Schema::new(vec![
        ColumnDef::with_trust("ssn", DataType::Int, ssn_trust),
        ColumnDef::new("score", DataType::Int),
    ]);
    let mut q = QueryBuilder::new();
    let demographics = q.input("demographics", demo_schema, regulator.clone());
    let scores1 = q.input("scores1", agency_schema.clone(), agency_a);
    let scores2 = q.input("scores2", agency_schema, agency_b);
    let scores = q.concat(&[scores1, scores2]);
    let joined = q.join(demographics, scores, &["ssn"], &["ssn"]);
    let by_zip = q.count(joined, "count", &["zip"]);
    let totals = q.aggregate(joined, "total", AggFunc::Sum, &["zip"], "score");
    let combined = q.join(totals, by_zip, &["zip"], &["zip"]);
    let avg = q.divide(
        combined,
        "avg_score",
        Operand::col("total"),
        Operand::col("count"),
    );
    q.collect(avg, &[regulator]);
    q.build().expect("well formed")
}

fn main() {
    let population = 2_000;
    let mut gen = CreditGenerator::new(99);
    let demographics = gen.demographics(population);
    let scores1 = gen.agency_scores(population);
    let scores2 = gen.agency_scores(population);
    let reference = CreditGenerator::reference_average_by_zip(
        &demographics,
        &[scores1.clone(), scores2.clone()],
    );

    let mut inputs = HashMap::new();
    inputs.insert("demographics".to_string(), Table::from_rows(demographics));
    inputs.insert("scores1".to_string(), Table::from_rows(scores1));
    inputs.insert("scores2".to_string(), Table::from_rows(scores2));

    for (name, annotated) in [
        ("with SSN trust annotation", true),
        ("without annotation", false),
    ] {
        let query = build_query(annotated);
        let config = ConclaveConfig::standard().with_sequential_local();
        let plan = compile(&query, &config).expect("compiles");
        let mut driver = Driver::new(config);
        let report = driver.run_tables(&plan, &inputs).expect("runs");
        let output = report.output_for(1).expect("the regulator gets the output");

        // Check a few averages against the cleartext reference.
        let mut checked = 0;
        for row in &output.rows {
            let zip = row[output.schema.index_of("zip").unwrap()]
                .as_int()
                .unwrap();
            let avg = row[output.schema.index_of("avg_score").unwrap()]
                .as_float()
                .unwrap();
            if let Some((_, expected)) = reference.iter().find(|(z, _)| *z == zip) {
                assert!(
                    (avg - expected).abs() < 1e-6,
                    "zip {zip}: {avg} vs {expected}"
                );
                checked += 1;
            }
        }
        println!("== {name} ==");
        println!("  hybrid operators      : {}", plan.hybrid_node_count());
        println!("  operators under MPC   : {}", plan.mpc_node_count());
        println!(
            "  simulated runtime     : {:.1} s",
            report.modeled.total_time().as_secs_f64()
        );
        println!("  ZIP averages verified : {checked}");
        println!("  leakage audit entries : {}", report.leakage.len());
        for event in report.leakage.iter().take(3) {
            println!(
                "    - to P{}: [{}] columns [{}] ({})",
                event.to_party,
                event.kind,
                event.columns.join(", "),
                event.justification
            );
        }
        println!();
    }
}
