//! Criterion bench for Figure 7: the SMCQL comparison (aspirin count and
//! comorbidity).
//!
//! * `fig7_series` regenerates both simulated sweeps.
//! * `fig7_real_queries` executes the two HealthLNK-style queries for real at
//!   small scale under both systems: Conclave's compiled plan and the SMCQL
//!   baseline (slicing + ObliVM-like backend).

use bench::figures::{fig7a, fig7b};
use bench::queries;
use conclave_core::{compile, ConclaveConfig, Driver};
use conclave_data::HealthGenerator;
use conclave_engine::Table;
use conclave_smcql::queries as smcql_queries;
use conclave_smcql::SmcqlPlanner;
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;

fn series(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_series");
    group.sample_size(10);
    group.bench_function("fig7a_aspirin_sweep", |b| b.iter(fig7a));
    group.bench_function("fig7b_comorbidity_sweep", |b| b.iter(fig7b));
    group.finish();
}

fn real_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_real_queries");
    group.sample_size(10);
    let rows = 400usize;
    let mut gen = HealthGenerator::new(3);
    let d0 = gen.diagnoses(0, rows);
    let d1 = gen.diagnoses(1, rows);
    let m0 = gen.medications(0, rows);
    let m1 = gen.medications(1, rows);
    let cd0 = gen.comorbidity_diagnoses(0, rows);
    let cd1 = gen.comorbidity_diagnoses(1, rows);

    // Conclave: compiled aspirin-count plan.
    let aspirin_plan = compile(&queries::aspirin_count(), &ConclaveConfig::standard()).unwrap();
    let mut aspirin_inputs = HashMap::new();
    aspirin_inputs.insert("diagnoses1".to_string(), Table::from_rows(d0.clone()));
    aspirin_inputs.insert("diagnoses2".to_string(), Table::from_rows(d1.clone()));
    aspirin_inputs.insert("medications1".to_string(), Table::from_rows(m0.clone()));
    aspirin_inputs.insert("medications2".to_string(), Table::from_rows(m1.clone()));
    group.bench_function("conclave_aspirin_400", |b| {
        b.iter(|| {
            let mut driver = Driver::new(ConclaveConfig::standard().with_sequential_local());
            driver.run_tables(&aspirin_plan, &aspirin_inputs).unwrap()
        })
    });
    group.bench_function("smcql_aspirin_400", |b| {
        b.iter(|| {
            let mut planner = SmcqlPlanner::default_paper_setup();
            smcql_queries::aspirin_count(&mut planner, [&d0, &d1], [&m0, &m1]).unwrap()
        })
    });

    // Comorbidity under both systems.
    let comorbidity_plan = compile(&queries::comorbidity(), &ConclaveConfig::standard()).unwrap();
    let mut comorbidity_inputs = HashMap::new();
    comorbidity_inputs.insert("diagnoses1".to_string(), Table::from_rows(cd0.clone()));
    comorbidity_inputs.insert("diagnoses2".to_string(), Table::from_rows(cd1.clone()));
    group.bench_function("conclave_comorbidity_400", |b| {
        b.iter(|| {
            let mut driver = Driver::new(ConclaveConfig::standard().with_sequential_local());
            driver
                .run_tables(&comorbidity_plan, &comorbidity_inputs)
                .unwrap()
        })
    });
    group.bench_function("smcql_comorbidity_400", |b| {
        b.iter(|| {
            let mut planner = SmcqlPlanner::default_paper_setup();
            smcql_queries::comorbidity(&mut planner, [&cd0, &cd1], 10).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, series, real_queries);
criterion_main!(benches);
