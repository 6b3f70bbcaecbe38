//! Property-based differential tests between the cleartext engines.
//!
//! Every test generates random relations (including null cells, mixed-type
//! columns, duplicate keys, empty and single-row inputs) and random operator
//! parameters, executes the operator on both the row engine
//! (`conclave_engine::execute`) and the vectorized columnar engine
//! (`conclave_engine::execute_vectorized`), and requires *identical* results:
//! same schema, same rows in the same order — or the same error disposition.
//! Each operator class runs at least 64 generated cases.
//!
//! The `differential_parallel_*` cases hold `conclave_parallel`'s engine to
//! the sequential row engine the same way, on a two-partition cluster and on
//! the paper's twelve-partition one (so most generated inputs have fewer rows
//! than partitions): row and columnar tasks alike must reproduce the
//! sequential result *row order included* — ranges are cut and partials
//! combined in order — and only the join's hash shuffle is held to the same
//! rows in any order.

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave_engine::{
    execute, execute_vectorized, EngineMode, EngineResult, Executor, Relation, Table,
};
use conclave_ir::expr::Expr;
use conclave_ir::ops::{AggFunc, JoinKind, Operand, Operator};
use conclave_ir::schema::{ColumnDef, Schema};
use conclave_ir::types::{DataType, Value};
use conclave_parallel::{ClusterSpec, ParallelEngine};
use proptest::prelude::*;

/// Raw generated cell material: `(int value, type selector)`.
type RawRow = (i64, i64, i64, u8);

/// Maps a raw integer plus a selector to a runtime value. Selector ranges
/// keep columns mostly integer (the realistic case) with a tail of nulls,
/// floats, bools and strings to exercise the generic engine paths.
fn to_value(raw: i64, sel: u8) -> Value {
    match sel % 12 {
        0 => Value::Null,
        1 => Value::Float(raw as f64 / 2.0),
        2 => Value::Bool(raw % 2 == 0),
        3 => Value::Str(format!("s{}", raw.rem_euclid(5))),
        _ => Value::Int(raw),
    }
}

/// Builds a three-column relation from generated rows. Column `a` is a small
/// integer key (duplicate-heavy), column `b` is mixed-typed via the selector,
/// column `c` is a plain integer value.
fn to_relation(rows: &[RawRow]) -> Relation {
    let schema = Schema::new(vec![
        ColumnDef::new("a", DataType::Int),
        ColumnDef::new("b", DataType::Int),
        ColumnDef::new("c", DataType::Int),
    ]);
    let data = rows
        .iter()
        .map(|&(k, v, w, sel)| vec![Value::Int(k.rem_euclid(6)), to_value(v, sel), Value::Int(w)])
        .collect();
    Relation::new(schema, data).unwrap()
}

/// All-integer variant (exercises the typed fast paths end to end).
fn to_int_relation(rows: &[RawRow], names: [&str; 3]) -> Relation {
    Relation::from_ints(
        &names,
        &rows
            .iter()
            .map(|&(k, v, w, _)| vec![k.rem_euclid(6), v, w])
            .collect::<Vec<_>>(),
    )
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<RawRow>> {
    prop::collection::vec((0i64..1000, -500i64..500, -3i64..40, 0u8..255), 0..max)
}

/// Executes `op` on both engines and requires identical outcomes.
fn assert_engines_identical(op: &Operator, inputs: &[&Relation]) {
    let row = execute(op, inputs);
    let vec = execute_vectorized(op, inputs);
    match (row, vec) {
        (Ok(r), Ok(v)) => {
            assert_eq!(
                r.schema.names(),
                v.schema.names(),
                "{op}: schema divergence"
            );
            assert_eq!(r.rows, v.rows, "{op}: result divergence");
        }
        (Err(_), Err(_)) => {}
        (r, v) => panic!("{op}: engines disagree on success: row={r:?} columnar={v:?}"),
    }
}

/// `op` through the parallel engine's [`Executor`], rows in and rows out.
fn run_parallel(
    engine: &ParallelEngine,
    op: &Operator,
    inputs: &[&Relation],
) -> EngineResult<Relation> {
    let tables: Vec<Table> = inputs.iter().map(|&r| r.clone().into()).collect();
    let refs: Vec<&Table> = tables.iter().collect();
    Ok(engine.execute(op, &refs)?.into_rows())
}

/// Executes `op` on the parallel engine — row and columnar tasks, two and
/// twelve partitions — and holds every outcome to the sequential row engine's.
fn assert_parallel_matches_sequential(op: &Operator, inputs: &[&Relation]) {
    let sequential = execute(op, inputs);
    for cluster in [ClusterSpec::new(1, 1), ClusterSpec::paper_party_cluster()] {
        for mode in [EngineMode::Row, EngineMode::Columnar] {
            let engine = ParallelEngine::new(cluster).with_mode(mode);
            let parallel = run_parallel(&engine, op, inputs);
            let what = format!("{op} on {} {mode} partitions", cluster.default_partitions());
            match (&sequential, parallel) {
                (Ok(s), Ok(p)) if !matches!(op, Operator::Join { .. }) => {
                    assert_eq!(&p, s, "{what}: result or order divergence");
                }
                (Ok(s), Ok(p)) => {
                    assert_eq!(
                        p.schema.names(),
                        s.schema.names(),
                        "{what}: schema divergence"
                    );
                    assert!(p.same_rows_unordered(s), "{what}: {p:?} vs {s:?}");
                }
                (Err(_), Err(_)) => {}
                (s, p) => panic!("{what}: disagree on success: sequential={s:?} parallel={p:?}"),
            }
        }
    }
}

/// Deterministically derives a predicate tree from a seed, covering every
/// comparison, boolean combinators and negation.
fn predicate_from_seed(seed: i64, threshold: i64) -> Expr {
    let base = match seed.rem_euclid(6) {
        0 => Expr::col("a").gt(Expr::lit(threshold.rem_euclid(6))),
        1 => Expr::col("b").le(Expr::lit(threshold)),
        2 => Expr::col("c").eq(Expr::lit(threshold.rem_euclid(40))),
        3 => Expr::col("b").ne(Expr::col("c")),
        4 => Expr::col("a").ge(Expr::col("c")),
        _ => Expr::col("b").lt(Expr::col("a").add(Expr::lit(threshold))),
    };
    match (seed / 6).rem_euclid(4) {
        0 => base,
        1 => base.not(),
        2 => base.and(Expr::col("c").gt(Expr::lit(0))),
        _ => base.or(Expr::col("a").eq(Expr::lit(threshold.rem_euclid(3)))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn differential_filter(rows in rows_strategy(40), seed in 0i64..10_000, threshold in -20i64..20) {
        let rel = to_relation(&rows);
        let op = Operator::Filter { predicate: predicate_from_seed(seed, threshold) };
        assert_engines_identical(&op, &[&rel]);
        // Also over a pure-int relation (typed fast path).
        let ints = to_int_relation(&rows, ["a", "b", "c"]);
        assert_engines_identical(&op, &[&ints]);
    }

    #[test]
    fn differential_project(rows in rows_strategy(30), sel in 0usize..64) {
        let rel = to_relation(&rows);
        let all = ["a", "b", "c", "a"]; // duplicates allowed
        let count = sel % 4;
        let columns: Vec<String> = (0..=count).map(|i| all[(sel + i) % 4].to_string()).collect();
        let op = Operator::Project { columns };
        assert_engines_identical(&op, &[&rel]);
    }

    #[test]
    fn differential_aggregate(rows in rows_strategy(40), which in 0u8..8) {
        let rel = to_relation(&rows);
        let func = match which % 4 {
            0 => AggFunc::Sum,
            1 => AggFunc::Count,
            2 => AggFunc::Min,
            _ => AggFunc::Max,
        };
        let group_by: Vec<String> = if which < 4 { vec!["a".into()] } else { vec![] };
        let over = if func == AggFunc::Count { None } else { Some("b".to_string()) };
        let op = Operator::Aggregate { group_by: group_by.clone(), func, over, out: "agg".into() };
        assert_engines_identical(&op, &[&rel]);
        // Pure-int variant over `c` (fast path), and mixed grouping keys.
        let int_op = Operator::Aggregate {
            group_by,
            func,
            over: if func == AggFunc::Count { None } else { Some("c".to_string()) },
            out: "agg".into(),
        };
        let ints = to_int_relation(&rows, ["a", "b", "c"]);
        assert_engines_identical(&int_op, &[&ints]);
        let mixed_key = Operator::Aggregate {
            group_by: vec!["b".into()],
            func,
            over: if func == AggFunc::Count { None } else { Some("c".to_string()) },
            out: "agg".into(),
        };
        assert_engines_identical(&mixed_key, &[&rel]);
    }

    #[test]
    fn differential_join(left in rows_strategy(30), right in rows_strategy(30), mixed in 0u8..2) {
        let (l, r) = if mixed == 0 {
            (to_int_relation(&left, ["k", "x", "y"]), to_int_relation(&right, ["k", "u", "v"]))
        } else {
            // Mixed-typed join keys via column `b` renamed to `k`.
            let mut l = to_relation(&left);
            let mut r = to_relation(&right);
            l.schema.columns[1].name = "k".into();
            r.schema.columns[1].name = "k".into();
            (l, r)
        };
        let op = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
            kind: JoinKind::Inner,
        };
        assert_engines_identical(&op, &[&l, &r]);
    }

    #[test]
    fn differential_compute(rows in rows_strategy(30), which in 0u8..12, lit in -5i64..6) {
        let rel = to_relation(&rows);
        let operand = |i: u8| -> Operand {
            match i % 4 {
                0 => Operand::col("a"),
                1 => Operand::col("b"),
                2 => Operand::col("c"),
                _ => Operand::lit(lit),
            }
        };
        let op = if which % 2 == 0 {
            Operator::Multiply {
                // `out` may collide with an existing column (replace) or not
                // (append).
                out: if which < 6 { "b".into() } else { "prod".into() },
                operands: vec![operand(which), operand(which / 2)],
            }
        } else {
            Operator::Divide {
                out: if which < 6 { "c".into() } else { "ratio".into() },
                num: operand(which),
                den: operand(which / 2), // includes division by zero
            }
        };
        assert_engines_identical(&op, &[&rel]);
    }

    #[test]
    fn differential_ordering_ops(rows in rows_strategy(40), which in 0u8..12, n in 0usize..50) {
        let rel = to_relation(&rows);
        let column = ["a", "b", "c"][(which % 3) as usize].to_string();
        let op = match which % 6 {
            0 => Operator::SortBy { column, ascending: true },
            1 => Operator::SortBy { column, ascending: false },
            2 => Operator::Limit { n },
            3 => Operator::Distinct { columns: vec![column, "a".into()] },
            4 => Operator::DistinctCount { column, out: "n".into() },
            _ => Operator::Shuffle,
        };
        assert_engines_identical(&op, &[&rel]);
        assert_engines_identical(&Operator::Enumerate { out: "idx".into() }, &[&rel]);
    }

    #[test]
    fn differential_nary_ops(a in rows_strategy(20), b in rows_strategy(20), asc in 0u8..2) {
        let ra = to_relation(&a);
        let rb = to_relation(&b);
        assert_engines_identical(&Operator::Concat, &[&ra, &rb]);
        assert_engines_identical(&Operator::Concat, &[&ra, &rb, &ra]);
        let merge = Operator::Merge { column: "c".into(), ascending: asc == 0 };
        assert_engines_identical(&merge, &[&ra, &rb]);
    }

    #[test]
    fn differential_select_by_index(rows in rows_strategy(25), picks in prop::collection::vec(0i64..40, 0..10)) {
        let rel = to_relation(&rows);
        // Indices may fall out of bounds; both engines must then agree on the
        // error.
        let indexes = Relation::from_ints(
            &["i"],
            &picks.iter().map(|&p| vec![p]).collect::<Vec<_>>(),
        );
        let op = Operator::ObliviousSelect { index_column: "i".into() };
        assert_engines_identical(&op, &[&rel, &indexes]);
    }

    #[test]
    fn differential_operator_pipelines(rows in rows_strategy(35), seeds in prop::collection::vec((0u8..6, -10i64..10), 1..5)) {
        // A random chain of unary operators, with engine agreement checked
        // after every stage.
        let mut row_rel = to_relation(&rows);
        for &(kind, p) in &seeds {
            let op = match kind {
                0 => Operator::Filter { predicate: predicate_from_seed(p, p + 3) },
                1 => Operator::SortBy { column: "b".into(), ascending: p % 2 == 0 },
                2 => Operator::Multiply {
                    out: "c".into(),
                    operands: vec![Operand::col("c"), Operand::lit(p)],
                },
                3 => Operator::Limit { n: p.unsigned_abs() as usize * 3 },
                4 => Operator::Shuffle,
                _ => Operator::Aggregate {
                    group_by: vec!["a".into()],
                    func: AggFunc::Sum,
                    over: Some("c".into()),
                    out: "c".into(),
                },
            };
            // Aggregation changes the schema; only apply it as a terminal op.
            if matches!(op, Operator::Aggregate { .. }) {
                assert_engines_identical(&op, &[&row_rel]);
                break;
            }
            assert_engines_identical(&op, &[&row_rel]);
            row_rel = match execute(&op, &[&row_rel]) {
                Ok(r) => r,
                Err(_) => break,
            };
        }
    }

    #[test]
    fn differential_parallel_unary(rows in rows_strategy(40), seed in 0i64..10_000, lit in -5i64..6) {
        // Mixed-typed cells, or all integers (the typed fast paths).
        let rel = if seed % 4 < 2 { to_relation(&rows) } else { to_int_relation(&rows, ["a", "b", "c"]) };
        let column = ["a", "b", "c"][seed.rem_euclid(3) as usize];
        let mut ops = vec![
            Operator::Project { columns: vec![column.into(), "a".into()] },
            Operator::Filter { predicate: predicate_from_seed(seed, lit) },
            Operator::Multiply {
                // Replaces `b` or appends `prod`.
                out: if seed % 2 == 0 { "b".into() } else { "prod".into() },
                operands: vec![Operand::col(column), Operand::lit(lit)],
            },
            Operator::Divide {
                out: "ratio".into(),
                num: Operand::col(column),
                den: Operand::col("c"), // includes division by zero
            },
            Operator::Distinct { columns: vec![column.into()] },
            Operator::Distinct { columns: vec!["b".into(), "a".into()] },
        ];
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            for group_by in [vec![], vec!["a".to_string()], vec!["b".to_string(), "a".to_string()]] {
                let over = (func != AggFunc::Count).then(|| column.to_string());
                ops.push(Operator::Aggregate { group_by, func, over, out: "agg".into() });
            }
        }
        for op in &ops {
            assert_parallel_matches_sequential(op, &[&rel]);
        }
    }

    #[test]
    fn differential_parallel_join(left in rows_strategy(30), right in rows_strategy(30), mixed in 0u8..2) {
        let (l, r) = if mixed == 0 {
            (to_int_relation(&left, ["k", "x", "y"]), to_int_relation(&right, ["k", "u", "v"]))
        } else {
            let mut l = to_relation(&left);
            let mut r = to_relation(&right);
            l.schema.columns[1].name = "k".into();
            r.schema.columns[1].name = "k".into();
            (l, r)
        };
        let op = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
            kind: JoinKind::Inner,
        };
        assert_parallel_matches_sequential(&op, &[&l, &r]);
    }
}

#[test]
fn differential_edge_shapes() {
    // Deterministic shapes the random generator may or may not hit: empty,
    // single-row, all-duplicate keys, all-null columns.
    let empty = to_relation(&[]);
    let single = to_relation(&[(3, 7, -1, 9)]);
    let dups: Vec<RawRow> = (0..12).map(|i| (6, i, 1, 4)).collect(); // key 0 everywhere
    let dup_rel = to_relation(&dups);
    let all_null = Relation::new(
        Schema::ints(&["a", "b", "c"]),
        (0..4)
            .map(|i| vec![Value::Int(i), Value::Null, Value::Null])
            .collect(),
    )
    .unwrap();
    for rel in [&empty, &single, &dup_rel, &all_null] {
        for op in [
            Operator::Filter {
                predicate: Expr::col("b").gt(Expr::lit(0)),
            },
            Operator::Aggregate {
                group_by: vec!["a".into()],
                func: AggFunc::Sum,
                over: Some("b".into()),
                out: "s".into(),
            },
            Operator::Aggregate {
                group_by: vec![],
                func: AggFunc::Min,
                over: Some("b".into()),
                out: "m".into(),
            },
            Operator::SortBy {
                column: "b".into(),
                ascending: true,
            },
            Operator::Distinct {
                columns: vec!["a".into(), "b".into()],
            },
            Operator::DistinctCount {
                column: "b".into(),
                out: "n".into(),
            },
        ] {
            assert_engines_identical(&op, &[rel]);
            assert_parallel_matches_sequential(&op, &[rel]);
        }
        let join = Operator::Join {
            left_keys: vec!["a".into()],
            right_keys: vec!["a".into()],
            kind: JoinKind::Inner,
        };
        assert_engines_identical(&join, &[rel, &dup_rel]);
        assert_parallel_matches_sequential(&join, &[rel, &dup_rel]);
    }
}
