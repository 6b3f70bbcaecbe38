//! Criterion bench for the ablation study: what each Conclave optimization
//! contributes to the market-concentration query (the pass pipeline in
//! ARCHITECTURE.md, "Life of a query").

use bench::figures::ablations;
use bench::queries::market_concentration;
use conclave_core::{compile, ConclaveConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn ablation_series(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_series");
    group.sample_size(10);
    for &n in &[100_000u64, 1_000_000, 10_000_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| ablations(n))
        });
    }
    group.finish();
}

fn compile_times(c: &mut Criterion) {
    // Compilation itself should be cheap; track it so compiler passes do not
    // regress to something data-dependent.
    let mut group = c.benchmark_group("compile_times");
    let query = market_concentration();
    for (name, config) in [
        ("standard", ConclaveConfig::standard()),
        ("mpc_only", ConclaveConfig::mpc_only()),
        ("no_hybrid", ConclaveConfig::without_hybrid()),
    ] {
        group.bench_function(name, |b| b.iter(|| compile(&query, &config).unwrap()));
    }
    group.finish();
}

criterion_group!(benches, ablation_series, compile_times);
criterion_main!(benches);
