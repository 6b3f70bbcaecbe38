//! A close-up of the hybrid join protocol of §5.3 (Figure 3).
//!
//! This example runs the protocol step by step over a small input, printing
//! the primitive counts of the MPC side, and contrasts them with a standard
//! Cartesian-product MPC join — the asymptotic difference
//! (`𝒪((n+m)·log(n+m))` vs `𝒪(n²)`) that drives Figure 5a.
//!
//! Run with: `cargo run --release --example hybrid_join_demo`

use conclave::prelude::*;
use conclave_core::hybrid_exec;
use conclave_core::party_exec::{PartyMeshRuntime, StepInput};
use conclave_ir::ops::Operator;
use conclave_mpc::backend::MpcEngine;

fn main() {
    // Two parties' relations sharing the `key` column; party 1 is trusted to
    // see the key values (it is the STP).
    let mut gen = conclave_data::SyntheticGenerator::new(3);
    let (left, right) = gen.overlapping_pair(300, 0.5);
    let stp = 1;
    let keys = ["key".to_string()];

    // Hybrid join.
    let mut engine = MpcEngine::new(MpcBackendConfig::sharemind());
    let outcome = hybrid_exec::hybrid_join(
        &mut engine,
        &ColumnarExecutor::new(),
        &Table::from_rows(left.clone()),
        &Table::from_rows(right.clone()),
        &keys,
        &keys,
        stp,
    )
    .expect("hybrid join runs");

    // Standard MPC join for comparison: a one-step query on the in-process
    // party runtime, priced like the hybrid's MPC side.
    let mut rt = PartyMeshRuntime::with_dealer(3, 1, PartyRuntime::Simulated, &DealerMode::Seeded)
        .expect("the in-process runtime builds");
    let join = Operator::Join {
        left_keys: vec!["key".into()],
        right_keys: vec!["key".into()],
    };
    let inputs = vec![
        StepInput::Table(left.into()),
        StepInput::Table(right.into()),
    ];
    let step = rt
        .enqueue(&join, inputs, false, true)
        .expect("MPC join runs");
    let mpc_result = rt.wait_opened(step).expect("MPC join opens").to_rows();
    let summary = rt.finish().expect("the query ends");
    let mpc_stats = engine.stats_from_counts(
        summary.steps[0].counts,
        summary.steps[0].input_rows,
        summary.steps[0].output_rows,
    );

    assert!(outcome.result.as_rows().same_rows_unordered(&mpc_result));
    println!(
        "both protocols produce the same {} joined rows\n",
        mpc_result.num_rows()
    );

    println!("hybrid join (STP = P{stp}):");
    println!("  revealed to STP      : {keys:?} of each input (shuffled order only)");
    println!(
        "  oblivious shuffles   : {} elements",
        outcome.mpc_stats.counts.shuffled_elems
    );
    println!(
        "  Beaver mults (select): {}",
        outcome.mpc_stats.counts.mults
    );
    println!(
        "  equality tests       : {}",
        outcome.mpc_stats.counts.equalities
    );
    println!(
        "  simulated MPC time   : {:.2} s",
        outcome.mpc_stats.simulated_time.as_secs_f64()
    );
    println!(
        "  simulated STP time   : {:.2} s",
        outcome.stp_time.as_secs_f64()
    );

    println!("\nstandard MPC join:");
    println!(
        "  equality tests       : {} (= n × m)",
        mpc_stats.counts.equalities
    );
    println!(
        "  simulated MPC time   : {:.2} s",
        mpc_stats.simulated_time.as_secs_f64()
    );

    let speedup =
        mpc_stats.simulated_time.as_secs_f64() / outcome.mpc_stats.simulated_time.as_secs_f64();
    println!("\nhybrid join speedup on this input: {speedup:.1}x (grows with input size)");
}
