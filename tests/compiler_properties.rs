//! Property-based integration tests: for randomly generated inputs, every
//! compiler configuration must produce the same query results as direct
//! cleartext evaluation, and the compiler's rewrites must never increase the
//! amount of work left under MPC.

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave::prelude::*;
use conclave_engine::Relation;
use conclave_ir::expr::Expr;
use proptest::prelude::*;
use std::collections::HashMap;

/// Generates a small random (key, value) relation.
fn relation_strategy(max_rows: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..8, 0i64..100), 1..max_rows)
}

fn to_relation(rows: &[(i64, i64)]) -> Relation {
    Relation::from_ints(
        &["key", "value"],
        &rows.iter().map(|(k, v)| vec![*k, *v]).collect::<Vec<_>>(),
    )
}

/// The reference result: per-key sums of values > threshold across both
/// parties' data.
fn reference(a: &[(i64, i64)], b: &[(i64, i64)], threshold: i64) -> HashMap<i64, i64> {
    let mut out = HashMap::new();
    for (k, v) in a.iter().chain(b.iter()) {
        if *v > threshold {
            *out.entry(*k).or_insert(0) += *v;
        }
    }
    out
}

fn build_query(threshold: i64) -> conclave_ir::builder::Query {
    let pa = Party::new(1, "a");
    let pb = Party::new(2, "b");
    let schema = Schema::new(vec![
        ColumnDef::new("key", DataType::Int),
        ColumnDef::new("value", DataType::Int),
    ]);
    let mut q = QueryBuilder::new();
    let a = q.input("a", schema.clone(), pa.clone());
    let b = q.input("b", schema, pb);
    let cat = q.concat(&[a, b]);
    let filtered = q.filter(cat, Expr::col("value").gt(Expr::lit(threshold)));
    let agg = q.aggregate(filtered, "total", AggFunc::Sum, &["key"], "value");
    q.collect(agg, &[pa]);
    q.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn compiled_execution_matches_reference_for_random_inputs(
        a in relation_strategy(30),
        b in relation_strategy(30),
        threshold in 0i64..50,
    ) {
        let query = build_query(threshold);
        let expected = reference(&a, &b, threshold);
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), Table::from_rows(to_relation(&a)));
        inputs.insert("b".to_string(), Table::from_rows(to_relation(&b)));

        for config in [
            ConclaveConfig::standard().with_sequential_local(),
            ConclaveConfig::mpc_only().with_sequential_local(),
        ] {
            let plan = conclave_core::compile(&query, &config).unwrap();
            let mut driver = Driver::new(config);
            let report = driver.run_tables(&plan, &inputs).unwrap();
            let out = report.output_for(1).unwrap();
            prop_assert_eq!(out.num_rows(), expected.len());
            for row in &out.rows {
                let key = row[0].as_int().unwrap();
                let total = row[1].as_int().unwrap();
                prop_assert_eq!(expected[&key], total, "key {}", key);
            }
        }
    }

    #[test]
    fn optimizations_never_increase_mpc_work(
        a in relation_strategy(20),
        b in relation_strategy(20),
    ) {
        let query = build_query(10);
        let optimized = conclave_core::compile(&query, &ConclaveConfig::standard()).unwrap();
        let baseline = conclave_core::compile(&query, &ConclaveConfig::mpc_only()).unwrap();
        prop_assert!(optimized.mpc_node_count() <= baseline.mpc_node_count());

        // And the actual executed MPC work (non-linear operations) is no
        // larger either.
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), Table::from_rows(to_relation(&a)));
        inputs.insert("b".to_string(), Table::from_rows(to_relation(&b)));
        let mut d1 = Driver::new(ConclaveConfig::standard().with_sequential_local());
        let mut d2 = Driver::new(ConclaveConfig::mpc_only().with_sequential_local());
        let opt = d1.run_tables(&optimized, &inputs).unwrap();
        let base = d2.run_tables(&baseline, &inputs).unwrap();
        prop_assert!(
            opt.mpc_stats.counts.nonlinear_ops() <= base.mpc_stats.counts.nonlinear_ops()
        );
        prop_assert!(opt
            .output_for(1)
            .unwrap()
            .same_rows_unordered(base.output_for(1).unwrap()));
    }
}
