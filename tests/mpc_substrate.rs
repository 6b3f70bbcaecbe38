//! Integration tests for the MPC substrate used through the public facade:
//! cross-backend result agreement and cost-model sanity over generated data.
//! The secret-sharing backend goes through the shared differential helper
//! (both engines, both transports, against cleartext); the garbled-circuit
//! model is checked against the same cleartext reference here.

mod common;

use common::{assert_engines_match_cleartext, Order};
use conclave::mpc::backend::{BackendKind, MpcBackendConfig, MpcEngine};
use conclave::mpc::cost::GarbledCostModel;
use conclave::prelude::*;
use conclave_data::SyntheticGenerator;
use conclave_ir::ops::Operator;

fn agg_op() -> Operator {
    Operator::Aggregate {
        group_by: vec!["key".into()],
        func: AggFunc::Sum,
        over: Some("value".into()),
        out: "total".into(),
    }
}

#[test]
fn secret_sharing_and_garbled_backends_agree_with_cleartext() {
    let mut gen = SyntheticGenerator::new(21);
    let rel = gen.uniform(&["key", "value"], 120, 12);
    let ss_stats = assert_engines_match_cleartext(&agg_op(), &[&rel], 21, Order::Any);
    assert!(ss_stats.simulated_time.as_secs_f64() > 0.0);
    let expected = conclave_engine::execute(&agg_op(), &[&rel]).unwrap();
    // Obliv-C and ObliVM: one garbled kind under two cost calibrations.
    let vm = MpcBackendConfig::obliv_vm();
    assert_eq!(vm.gc_cost, GarbledCostModel::obliv_vm());
    for config in [MpcBackendConfig::obliv_c(), vm] {
        assert_eq!(config.kind, BackendKind::Garbled);
        let mut engine = MpcEngine::new(config);
        let (out, stats) = engine.execute_op(&agg_op(), &[&rel]).unwrap();
        assert!(
            out.same_rows_unordered(&expected),
            "garbled result mismatch"
        );
        assert!(stats.simulated_time.as_secs_f64() > 0.0);
    }
}

#[test]
fn join_results_agree_across_backends() {
    let mut gen = SyntheticGenerator::new(22);
    let (left, right) = gen.overlapping_pair(80, 0.5);
    let op = Operator::Join {
        left_keys: vec!["key".into()],
        right_keys: vec!["key".into()],
    };
    let expected = conclave_engine::execute(&op, &[&left, &right]).unwrap();
    let ss_stats = assert_engines_match_cleartext(&op, &[&left, &right], 22, Order::Any);
    assert_eq!(ss_stats.counts.equalities, 80 * 80);

    let mut gc = MpcEngine::new(MpcBackendConfig::obliv_c());
    let (gc_out, gc_stats) = gc.execute_op(&op, &[&left, &right]).unwrap();
    assert!(gc_out.same_rows_unordered(&expected));
    assert!(gc_stats.circuit.and_gates > 0);
}

#[test]
fn secret_sharing_is_cheaper_than_garbled_circuits_for_relational_work() {
    // §7.4's backend argument: for the arithmetic-heavy relational workloads,
    // the Sharemind-like backend is the better fit.
    let ss = MpcEngine::new(MpcBackendConfig::sharemind());
    let vm = MpcEngine::new(MpcBackendConfig::obliv_vm());
    let n = 50_000u64;
    let ss_time = ss
        .estimate_op(&agg_op(), &[n], &[2], n / 10)
        .unwrap()
        .simulated_time;
    let vm_time = vm
        .estimate_op(&agg_op(), &[n], &[2], n / 10)
        .unwrap()
        .simulated_time;
    assert!(ss_time < vm_time, "{ss_time:?} vs {vm_time:?}");
}

#[test]
fn hybrid_protocol_estimates_beat_full_mpc_at_scale_for_all_sizes() {
    let engine = MpcEngine::new(MpcBackendConfig::sharemind());
    let join = Operator::Join {
        left_keys: vec!["key".into()],
        right_keys: vec!["key".into()],
    };
    let keys = vec!["key".to_string()];
    let hybrid_join = Operator::HybridJoin {
        left_keys: keys.clone(),
        right_keys: keys.clone(),
        stp: 1,
    };
    let public_join = Operator::PublicJoin {
        left_keys: keys.clone(),
        right_keys: keys,
        helper: 1,
    };
    for n in [10_000u64, 100_000, 1_000_000] {
        let time = |op: &Operator| {
            engine
                .estimate_op(op, &[n / 2, n / 2], &[2, 2], n / 2)
                .unwrap()
                .simulated_time
        };
        let (full, hybrid, public) = (time(&join), time(&hybrid_join), time(&public_join));
        assert!(hybrid < full, "n={n}");
        assert!(public < hybrid, "n={n}");
    }
}
