//! Criterion bench for Figure 6: the credit-card regulation query.
//!
//! * `fig6_series` regenerates the Sharemind-only vs Conclave sweep.
//! * `fig6_real_end_to_end` compiles and executes the query for real over
//!   generated credit data, with and without the trust annotations that
//!   enable the hybrid join and hybrid aggregation.

use bench::figures::fig6;
use bench::queries::credit_card_regulation;
use conclave_core::{compile, ConclaveConfig, Driver};
use conclave_data::CreditGenerator;
use conclave_engine::Table;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;

fn series(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_series");
    group.sample_size(10);
    group.bench_function("sweep_to_300k", |b| b.iter(fig6));
    group.finish();
}

fn credit_inputs(population: usize) -> HashMap<String, Table> {
    let mut gen = CreditGenerator::new(11);
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
    inputs
}

fn real_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_real_end_to_end");
    group.sample_size(10);
    for &population in &[200usize, 1_000] {
        let inputs = credit_inputs(population);
        let hybrid_query = credit_card_regulation(true);
        let hybrid_plan = compile(&hybrid_query, &ConclaveConfig::standard()).unwrap();
        group.bench_with_input(
            BenchmarkId::new("conclave_hybrid", population),
            &inputs,
            |b, inputs| {
                b.iter(|| {
                    let mut driver =
                        Driver::new(ConclaveConfig::standard().with_sequential_local());
                    driver.run_tables(&hybrid_plan, inputs).unwrap()
                })
            },
        );
    }
    // The pure-MPC baseline only at a tiny size (its join is quadratic).
    let inputs = credit_inputs(150);
    let baseline_query = credit_card_regulation(false);
    let baseline_plan = compile(&baseline_query, &ConclaveConfig::mpc_only()).unwrap();
    group.bench_function("sharemind_only_150", |b| {
        b.iter(|| {
            let mut driver = Driver::new(ConclaveConfig::mpc_only().with_sequential_local());
            driver.run_tables(&baseline_plan, &inputs).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, series, real_end_to_end);
criterion_main!(benches);
