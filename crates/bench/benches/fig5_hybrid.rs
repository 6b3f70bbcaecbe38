//! Criterion bench for Figure 5: hybrid join and hybrid aggregation
//! microbenchmarks.
//!
//! * `fig5_series` regenerates the simulated sweeps of Figures 5a and 5b.
//! * `fig5_real_protocols` executes the hybrid join, public join, hybrid
//!   aggregation and their pure-MPC counterparts for real at small scale, so
//!   the relative ordering (public < hybrid < MPC) is grounded in executed
//!   protocols rather than only in the cost model.

use bench::figures::{fig5a, fig5b};
use conclave_core::hybrid_exec;
use conclave_data::SyntheticGenerator;
use conclave_engine::{ColumnarExecutor, Table};
use conclave_ir::ops::{AggFunc, Operator};
use conclave_mpc::backend::{MpcBackendConfig, MpcEngine};
use criterion::{criterion_group, criterion_main, Criterion};

fn series(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_series");
    group.sample_size(10);
    group.bench_function("fig5a_join_sweep", |b| b.iter(fig5a));
    group.bench_function("fig5b_aggregation_sweep", |b| b.iter(fig5b));
    group.finish();
}

fn real_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_real_protocols");
    group.sample_size(10);
    let mut gen = SyntheticGenerator::new(5);
    let (left, right) = gen.overlapping_pair(150, 1.0);
    let keyed = gen.zipf_keyed(200, 20, 1.1);
    let left_table = Table::from_rows(left.clone());
    let right_table = Table::from_rows(right.clone());
    let keyed_table = Table::from_rows(keyed.clone());
    let stp = ColumnarExecutor::new();

    group.bench_function("hybrid_join_150", |b| {
        b.iter(|| {
            let mut engine = MpcEngine::new(MpcBackendConfig::sharemind());
            hybrid_exec::hybrid_join(
                &mut engine,
                &stp,
                &left_table,
                &right_table,
                &["key".to_string()],
                &["key".to_string()],
                1,
            )
            .unwrap()
        })
    });
    group.bench_function("public_join_150", |b| {
        b.iter(|| {
            hybrid_exec::public_join(
                &stp,
                &left_table,
                &right_table,
                &["key".to_string()],
                &["key".to_string()],
                1,
            )
            .unwrap()
        })
    });
    group.bench_function("mpc_join_150", |b| {
        let op = Operator::Join {
            left_keys: vec!["key".into()],
            right_keys: vec!["key".into()],
        };
        b.iter(|| bench::mpc_step(&op, &[&left, &right]))
    });
    group.bench_function("hybrid_aggregation_200", |b| {
        b.iter(|| {
            let mut engine = MpcEngine::new(MpcBackendConfig::sharemind());
            hybrid_exec::hybrid_aggregate(
                &mut engine,
                &stp,
                &keyed_table,
                &["key".to_string()],
                AggFunc::Sum,
                Some("value"),
                "total",
                1,
            )
            .unwrap()
        })
    });
    group.bench_function("mpc_aggregation_200", |b| {
        let op = Operator::Aggregate {
            group_by: vec!["key".into()],
            func: AggFunc::Sum,
            over: Some("value".into()),
            out: "total".into(),
        };
        b.iter(|| bench::mpc_step(&op, &[&keyed]))
    });
    group.finish();
}

criterion_group!(benches, series, real_protocols);
criterion_main!(benches);
