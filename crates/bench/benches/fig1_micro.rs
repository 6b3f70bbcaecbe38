//! Criterion bench for Figure 1: single-operator microbenchmarks.
//!
//! Two groups are measured:
//! * `fig1_series`: generating the full simulated series for each operator
//!   (this is what the `reproduce` binary prints), and
//! * `fig1_real_ops`: real execution of each operator at small scale on the
//!   cleartext engine and, as one-step queries, on the in-process
//!   secret-sharing runtime, grounding the simulated numbers in executed
//!   operators.

use bench::figures::{fig1, MicroOp};
use conclave_data::SyntheticGenerator;
use conclave_ir::ops::{AggFunc, Operator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn series(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_series");
    group.sample_size(10);
    for (name, op) in [
        ("aggregate", MicroOp::Aggregate),
        ("join", MicroOp::Join),
        ("project", MicroOp::Project),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| fig1(criterion::black_box(op)))
        });
    }
    group.finish();
}

fn real_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_real_ops");
    group.sample_size(10);
    let mut gen = SyntheticGenerator::new(42);
    let rel = gen.uniform(&["key", "value"], 1_000, 100);
    let right = gen.uniform(&["key", "weight"], 1_000, 100);

    let agg = Operator::Aggregate {
        group_by: vec!["key".into()],
        func: AggFunc::Sum,
        over: Some("value".into()),
        out: "total".into(),
    };
    let join = Operator::Join {
        left_keys: vec!["key".into()],
        right_keys: vec!["key".into()],
    };
    let project = Operator::Project {
        columns: vec!["value".into()],
    };

    group.bench_function("cleartext_aggregate_1k", |b| {
        b.iter(|| conclave_engine::execute(&agg, &[&rel]).unwrap())
    });
    group.bench_function("cleartext_join_1k", |b| {
        b.iter(|| conclave_engine::execute(&join, &[&rel, &right]).unwrap())
    });
    group.bench_function("mpc_project_200", |b| {
        let small = gen.uniform(&["key", "value"], 200, 50);
        b.iter(|| bench::mpc_step(&project, &[&small]))
    });
    group.bench_function("mpc_aggregate_64", |b| {
        let small = gen.uniform(&["key", "value"], 64, 8);
        b.iter(|| bench::mpc_step(&agg, &[&small]))
    });
    group.finish();
}

criterion_group!(benches, series, real_ops);
criterion_main!(benches);
