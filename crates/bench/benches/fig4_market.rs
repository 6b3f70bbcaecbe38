//! Criterion bench for Figure 4: the market-concentration (HHI) query.
//!
//! * `fig4_series` regenerates the full Sharemind-only / insecure-Spark /
//!   Conclave sweep up to 1.3 B records (simulated).
//! * `fig4_real_end_to_end` compiles and executes the query for real over
//!   generated taxi data at several small sizes, under both the optimized and
//!   the MPC-only configuration.

use bench::figures::fig4;
use bench::queries::market_concentration;
use conclave_core::{compile, ConclaveConfig, Driver};
use conclave_data::TaxiGenerator;
use conclave_engine::Table;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;

fn series(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_series");
    group.sample_size(10);
    group.bench_function("sweep_to_1_3B", |b| b.iter(fig4));
    group.finish();
}

fn taxi_inputs(total: usize) -> HashMap<String, Table> {
    let mut gen = TaxiGenerator::new(7);
    let parts = gen.split_across_parties(total, 3);
    let mut inputs = HashMap::new();
    for (name, rel) in ["inputA", "inputB", "inputC"].iter().zip(parts) {
        inputs.insert(name.to_string(), Table::from_rows(rel));
    }
    inputs
}

fn real_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_real_end_to_end");
    group.sample_size(10);
    let query = market_concentration();
    for &total in &[300usize, 3_000] {
        let inputs = taxi_inputs(total);
        let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
        group.bench_with_input(BenchmarkId::new("conclave", total), &inputs, |b, inputs| {
            b.iter(|| {
                let mut driver = Driver::new(ConclaveConfig::standard().with_sequential_local());
                driver.run_tables(&plan, inputs).unwrap()
            })
        });
    }
    // The MPC-only baseline is only feasible at the smallest size.
    let inputs = taxi_inputs(120);
    let plan = compile(&query, &ConclaveConfig::mpc_only()).unwrap();
    group.bench_function("mpc_only_120", |b| {
        b.iter(|| {
            let mut driver = Driver::new(ConclaveConfig::mpc_only().with_sequential_local());
            driver.run_tables(&plan, &inputs).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, series, real_end_to_end);
criterion_main!(benches);
