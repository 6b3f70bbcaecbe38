//! Row engine vs vectorized columnar engine microbenchmark.
//!
//! Measures the cleartext hot path the ROADMAP's "as fast as the hardware
//! allows" goal cares about: a filter followed by a grouped aggregation —
//! the shape of the market/taxi queries' local pre-processing — at 10⁴, 10⁵
//! and 10⁶ rows. Each engine consumes its native storage format (rows stay
//! `Vec<Vec<Value>>`, columns stay typed vectors), so the numbers compare
//! execution strategies, not conversion overhead. A `convert` group prices
//! the row↔columnar conversions separately.
//!
//! The `driven` group measures the same pipeline at the *driver* level —
//! compile, bind, execute through the full `Session`/`Driver` stack — and
//! contrasts the unified `Table` data plane (conversion only at input and
//! collect boundaries) with the pre-redesign behavior of converting
//! row↔columnar at every operator edge.

use conclave_core::config::ConclaveConfig;
use conclave_core::session::Session;
use conclave_engine::{execute, execute_columnar, ColumnarRelation, EngineMode, Relation, Table};
use conclave_ir::builder::{Query, QueryBuilder};
use conclave_ir::expr::Expr;
use conclave_ir::ops::{AggFunc, Operator};
use conclave_ir::party::Party;
use conclave_ir::schema::Schema;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];

fn filter_op() -> Operator {
    Operator::Filter {
        predicate: Expr::col("price").gt(Expr::lit(500)),
    }
}

fn aggregate_op() -> Operator {
    Operator::Aggregate {
        group_by: vec!["companyID".into()],
        func: AggFunc::Sum,
        over: Some("price".into()),
        out: "rev".into(),
    }
}

fn dataset(n: usize) -> Relation {
    // Deterministic data: 50 companies, prices spread over 0..1000 so the
    // `price > 500` filter keeps roughly half the rows.
    let rows: Vec<Vec<i64>> = (0..n as i64)
        .map(|i| vec![i % 50, (i * 37) % 1000])
        .collect();
    Relation::from_ints(&["companyID", "price"], &rows)
}

fn row_pipeline(rel: &Relation) -> Relation {
    let filtered = execute(&filter_op(), &[rel]).expect("filter");
    execute(&aggregate_op(), &[&filtered]).expect("aggregate")
}

fn columnar_pipeline(rel: &ColumnarRelation) -> ColumnarRelation {
    let filtered = execute_columnar(&filter_op(), &[rel]).expect("filter");
    execute_columnar(&aggregate_op(), &[&filtered]).expect("aggregate")
}

fn filter_aggregate(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_vs_columnar/filter_aggregate");
    for n in SIZES {
        group.sample_size(if n >= 1_000_000 { 5 } else { 10 });
        let rows = dataset(n);
        let cols = ColumnarRelation::from_rows(&rows);
        // Sanity: the engines agree before we time them.
        assert!(row_pipeline(&rows).same_rows_unordered(&columnar_pipeline(&cols).to_rows()));
        group.bench_with_input(BenchmarkId::new("row", n), &rows, |b, rel| {
            b.iter(|| row_pipeline(criterion::black_box(rel)))
        });
        group.bench_with_input(BenchmarkId::new("columnar", n), &cols, |b, rel| {
            b.iter(|| columnar_pipeline(criterion::black_box(rel)))
        });
    }
    group.finish();
}

/// The single-party filter + grouped-sum query, compiled to an all-local
/// plan: the driven counterpart of the engine-level pipelines above.
fn driven_query() -> Query {
    let p = Party::new(1, "solo");
    let schema = Schema::ints(&["companyID", "price"]);
    let mut q = QueryBuilder::new();
    let t = q.input("sales", schema, p.clone());
    let paid = q.filter(t, Expr::col("price").gt(Expr::lit(500)));
    let rev = q.aggregate(paid, "rev", AggFunc::Sum, &["companyID"], "price");
    q.collect(rev, &[p]);
    q.build().expect("driven query builds")
}

/// Emulates the pre-`Table` columnar driver path: every operator edge pays a
/// row→columnar conversion on the way in and a columnar→row conversion on
/// the way out (the driver stored row-major `Relation`s between nodes).
fn per_node_convert_pipeline(rel: &Relation) -> Relation {
    let filtered = execute_columnar(&filter_op(), &[&ColumnarRelation::from_rows(rel)])
        .expect("filter")
        .to_rows();
    execute_columnar(&aggregate_op(), &[&ColumnarRelation::from_rows(&filtered)])
        .expect("aggregate")
        .to_rows()
}

fn driven(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_vs_columnar/driven");
    let query = driven_query();
    for n in SIZES {
        group.sample_size(if n >= 1_000_000 { 5 } else { 10 });
        let rows = dataset(n);
        let cols = ColumnarRelation::from_rows(&rows);

        // Row-engine driver (the differential oracle).
        let row_session = Session::new(
            ConclaveConfig::standard()
                .with_sequential_local()
                .with_engine_mode(EngineMode::Row),
        )
        .bind("sales", rows.clone());
        group.bench_with_input(BenchmarkId::new("driver_row", n), &row_session, |b, s| {
            b.iter(|| {
                criterion::black_box(s)
                    .run(&query)
                    .expect("row driver runs")
            })
        });

        // Columnar-mode driver on the unified Table plane: column-backed
        // inputs, zero mid-plan conversions (the report asserts it).
        let col_session = Session::new(ConclaveConfig::standard().with_sequential_local())
            .bind("sales", Table::from_columns(cols.clone()));
        let report = col_session.run(&query).expect("columnar driver runs");
        assert_eq!(
            report.conversions.row_to_columnar, 0,
            "driven columnar plan must not convert mid-plan"
        );
        group.bench_with_input(
            BenchmarkId::new("driver_columnar", n),
            &col_session,
            |b, s| {
                b.iter(|| {
                    criterion::black_box(s)
                        .run(&query)
                        .expect("columnar driver runs")
                })
            },
        );

        // The pre-redesign columnar data plane: row↔columnar conversion at
        // every operator boundary.
        group.bench_with_input(
            BenchmarkId::new("columnar_per_node_convert", n),
            &rows,
            |b, rel| b.iter(|| per_node_convert_pipeline(criterion::black_box(rel))),
        );
    }
    group.finish();
}

fn conversion(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_vs_columnar/convert");
    group.sample_size(10);
    let rows = dataset(100_000);
    let cols = ColumnarRelation::from_rows(&rows);
    group.bench_function("from_rows_100k", |b| {
        b.iter(|| ColumnarRelation::from_rows(criterion::black_box(&rows)))
    });
    group.bench_function("to_rows_100k", |b| {
        b.iter(|| criterion::black_box(&cols).to_rows())
    });
    group.finish();
}

criterion_group!(benches, filter_aggregate, driven, conversion);
criterion_main!(benches);
