//! The market-concentration (HHI) scenario of §2.1 and §7.1.
//!
//! Three vehicle-for-hire companies hold private trip books; an antitrust
//! regulator wants the Herfindahl–Hirschman Index of the market without any
//! company revealing its per-trip data. The example:
//!
//! 1. generates synthetic trip data (the paper uses NYC taxi trips),
//! 2. compiles the query with and without Conclave's optimizations,
//! 3. executes both plans and checks they agree with the cleartext reference,
//! 4. prints the simulated runtimes, showing why the MPC-only plan cannot
//!    scale (Figure 4).
//!
//! Run with: `cargo run --release --example market_concentration`

use conclave::prelude::*;
use conclave_core::WorkloadStats;
use conclave_ir::expr::Expr;
use conclave_ir::ops::Operand;
use std::collections::HashMap;

fn build_query() -> conclave_ir::builder::Query {
    let pa = Party::new(1, "mpc.a.com");
    let pb = Party::new(2, "mpc.b.com");
    let pc = Party::new(3, "mpc.c.org");
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
    let revenue = q.aggregate(proj, "local_rev", AggFunc::Sum, &["companyID"], "price");
    let squared = q.multiply(
        revenue,
        "rev_sq",
        vec![Operand::col("local_rev"), Operand::col("local_rev")],
    );
    let hhi_numerator = q.aggregate_scalar(squared, "hhi_numerator", AggFunc::Sum, "rev_sq");
    q.collect(hhi_numerator, &[pa]);
    q.build().expect("well formed")
}

fn main() {
    let total_trips = 6_000;
    let mut gen = TaxiGenerator::new(2024);
    let parts = gen.split_across_parties(total_trips, 3);
    let reference_hhi = TaxiGenerator::reference_hhi(&parts);

    let mut inputs = HashMap::new();
    for (name, rel) in ["inputA", "inputB", "inputC"].iter().zip(parts.iter()) {
        inputs.insert(name.to_string(), Table::from_rows(rel.clone()));
    }

    let query = build_query();
    let optimized_cfg = ConclaveConfig::standard().with_sequential_local();
    let baseline_cfg = ConclaveConfig::mpc_only().with_sequential_local();

    for (name, config) in [("Conclave", optimized_cfg), ("MPC only", baseline_cfg)] {
        let plan = compile(&query, &config).expect("compiles");
        let mut driver = Driver::new(config.clone());
        let report = driver.run_tables(&plan, &inputs).expect("runs");
        let output = report.output_for(1).expect("party 1 receives the output");
        // The revealed value is the sum of squared revenues; dividing by the
        // squared total revenue (known to the recipient from its own output)
        // yields the HHI. That division is exactly the kind of reversible
        // post-processing Conclave pushes out of MPC.
        let sum_sq = output.rows[0][0].as_float().unwrap_or(0.0);
        let total_rev: f64 = parts
            .iter()
            .flat_map(|p| p.rows.iter())
            .filter(|r| r[1].as_int().unwrap_or(0) > 0)
            .map(|r| r[1].as_int().unwrap_or(0) as f64)
            .sum();
        let hhi = sum_sq / (total_rev * total_rev);
        println!("== {name} ==");
        println!("  operators under MPC : {}", plan.mpc_node_count());
        println!(
            "  simulated runtime   : {:.1} s",
            report.modeled.total_time().as_secs_f64()
        );
        println!("  HHI                 : {hhi:.4} (cleartext reference {reference_hhi:.4})");
        assert!(
            (hhi - reference_hhi).abs() < 1e-9,
            "HHI must match the reference"
        );
    }

    // Paper-scale projection (Figure 4): what would happen at 1.3 B trips?
    let stats = WorkloadStats {
        filter_selectivity: 0.99,
        max_groups: Some(12),
        ..Default::default()
    };
    let plan = compile(&query, &ConclaveConfig::standard()).expect("compiles");
    let estimator = conclave_core::CardinalityEstimator::new(ConclaveConfig::standard(), stats);
    let mut big = HashMap::new();
    big.insert("inputA".to_string(), 433_000_000u64);
    big.insert("inputB".to_string(), 433_000_000u64);
    big.insert("inputC".to_string(), 434_000_000u64);
    let estimate = estimator.estimate(&plan, &big).expect("estimate");
    println!(
        "\nAt 1.3 billion trips, the compiled Conclave plan is estimated to take {:.0} s (~{:.0} min).",
        estimate.modeled.total_time().as_secs_f64(),
        estimate.modeled.total_time().as_secs_f64() / 60.0
    );
}
