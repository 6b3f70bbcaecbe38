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
//! than partitions): its columnar tasks must reproduce the sequential result
//! *row order included* — ranges are cut and partials combined in order —
//! and only the join's hash shuffle is held to the same rows in any order.
//!
//! The `fused_stage` cases hold fused stages — a chain of narrow operators
//! ending in at most one aggregate or distinct, run as one morsel pipeline —
//! to the same chain run one operator at a time, on one, two and twelve
//! partitions, and both to the row oracle.

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave_engine::{
    execute, execute_vectorized, one_at_a_time, ColumnarExecutor, EngineResult, Executor, Relation,
    RowExecutor, StageOutput, Table,
};
use conclave_ir::expr::Expr;
use conclave_ir::ops::{AggFunc, Operand, Operator};
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

/// Executes `op` on the parallel engine — two and twelve partitions — and
/// holds every outcome to the sequential row engine's.
fn assert_parallel_matches_sequential(op: &Operator, inputs: &[&Relation]) {
    let sequential = execute(op, inputs);
    for cluster in [ClusterSpec::new(1, 1), ClusterSpec::paper_party_cluster()] {
        let engine = ParallelEngine::new(cluster);
        let parallel = run_parallel(&engine, op, inputs);
        let what = format!("{op} on {} partitions", cluster.default_partitions());
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

/// Runs the chain `ops` as one stage on the sequential vectorized engine (one
/// partition) and the parallel engine (two and twelve), fused and one
/// operator at a time, and holds every outcome to the row oracle's one
/// operator at a time: the same rows in the same order and the same rows out
/// of every operator, or an error exactly when the oracle errs — the same
/// error fused as one at a time.
fn assert_stage_matches_oracle(ops: &[Operator], rel: &Relation) {
    let refs: Vec<&Operator> = ops.iter().collect();
    let chain: Vec<String> = ops.iter().map(ToString::to_string).collect();
    let oracle = one_at_a_time(&RowExecutor::new(), &refs, &Table::from_rows(rel.clone()));
    let rows = |out: &StageOutput| out.steps.iter().map(|s| s.rows).collect::<Vec<_>>();
    let engines: [(&str, Box<dyn Executor>); 3] = [
        ("1 partition", Box::new(ColumnarExecutor::new())),
        (
            "2 partitions",
            Box::new(ParallelEngine::new(ClusterSpec::new(1, 1))),
        ),
        (
            "12 partitions",
            Box::new(ParallelEngine::new(ClusterSpec::paper_party_cluster())),
        ),
    ];
    for (partitions, engine) in &engines {
        let input = Table::from_rows(rel.clone());
        let fused = engine.execute_stage(&refs, &input);
        let stepwise = one_at_a_time(engine.as_ref(), &refs, &input);
        match (&fused, &stepwise) {
            (Ok(f), Ok(s)) => {
                assert_eq!(
                    f.output.as_rows(),
                    s.output.as_rows(),
                    "{chain:?} on {partitions}"
                );
                assert_eq!(
                    rows(f),
                    rows(s),
                    "{chain:?} on {partitions}: rows per operator"
                );
            }
            (Err(f), Err(s)) => assert_eq!(f, s, "{chain:?} on {partitions}: error"),
            _ => panic!("{chain:?} on {partitions}: fused {fused:?}, one at a time {stepwise:?}"),
        }
        match (&oracle, fused) {
            (Ok(o), Ok(f)) => {
                let (o_rel, f_rel) = (o.output.as_rows(), f.output.as_rows());
                assert_eq!(f_rel.schema.names(), o_rel.schema.names(), "{chain:?}");
                assert_eq!(f_rel.rows, o_rel.rows, "{chain:?} on {partitions}");
                assert_eq!(
                    rows(&f),
                    rows(o),
                    "{chain:?} on {partitions}: rows per operator"
                );
            }
            (Err(_), Err(_)) => {}
            (o, f) => panic!("{chain:?} on {partitions}: oracle {o:?}, fused {f:?}"),
        }
    }
}

/// A random narrow operator: filters (one on an unknown column, which only a
/// row reaching it may evaluate), projects that reorder, duplicate or drop
/// columns, multiplies that replace or append, and a divide. Sums of its
/// outputs stay exact in `f64`, so partials may combine in any order.
fn narrow_from_seed(kind: u8, p: i64) -> Operator {
    let col = |i: i64| Operand::col(["a", "b", "c"][i.rem_euclid(3) as usize]);
    match kind % 7 {
        0 | 1 => Operator::Filter {
            predicate: predicate_from_seed(p.rem_euclid(24), p),
        },
        2 => Operator::Filter {
            predicate: Expr::col("zzz").gt(Expr::lit(p)),
        },
        3 => Operator::Project {
            columns: [
                &["c", "a", "b"][..],
                &["a", "b", "c", "prod"],
                &["b", "a", "b", "c"],
                &["a", "c"],
            ][p.rem_euclid(4) as usize]
                .iter()
                .map(|c| c.to_string())
                .collect(),
        },
        4 | 5 => Operator::Multiply {
            out: if p % 2 == 0 {
                "c".into()
            } else {
                "prod".into()
            },
            operands: vec![
                col(p),
                if p % 3 == 0 {
                    Operand::lit(p)
                } else {
                    col(p / 3)
                },
            ],
        },
        _ => Operator::Divide {
            out: "ratio".into(),
            num: col(p),
            den: col(p + 1), // includes division by zero
        },
    }
}

/// A random stage tail: a distinct, or a grouped or scalar aggregate.
fn tail_from_seed(keys: u8, func: u8, over: u8) -> Operator {
    let over = ["a", "b", "c", "prod"][usize::from(over % 4)];
    let group_by: Vec<String> = match keys % 4 {
        0 => vec!["a".into()],
        1 => vec!["b".into()],
        2 => vec!["b".into(), "a".into()],
        _ => vec![],
    };
    let Some(&func) =
        [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max].get(usize::from(func % 5))
    else {
        return Operator::Distinct {
            columns: group_by.into_iter().chain(["c".to_string()]).collect(),
        };
    };
    Operator::Aggregate {
        group_by,
        func,
        over: (func != AggFunc::Count).then(|| over.to_string()),
        out: "agg".into(),
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
        let op = match which % 5 {
            0 => Operator::SortBy { column, ascending: true },
            1 => Operator::SortBy { column, ascending: false },
            2 => Operator::Limit { n },
            3 => Operator::Distinct { columns: vec![column, "a".into()] },
            _ => Operator::DistinctCount { column, out: "n".into() },
        };
        assert_engines_identical(&op, &[&rel]);
        assert_engines_identical(&Operator::Enumerate { out: "idx".into() }, &[&rel]);
    }

    #[test]
    fn differential_nary_ops(a in rows_strategy(20), b in rows_strategy(20)) {
        let ra = to_relation(&a);
        let rb = to_relation(&b);
        assert_engines_identical(&Operator::Concat, &[&ra, &rb]);
        assert_engines_identical(&Operator::Concat, &[&ra, &rb, &ra]);
    }

    #[test]
    fn differential_operator_pipelines(rows in rows_strategy(35), seeds in prop::collection::vec((0u8..5, -10i64..10), 1..5)) {
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
    fn differential_fused_stages(
        rows in rows_strategy(40),
        narrow in prop::collection::vec((0u8..7, -12i64..12), 0..5),
        tail in (0u8..5, 0u8..5, 0u8..4),
        ints in 0u8..4,
    ) {
        // Mixed types and nulls, or all integers (the typed fast paths).
        let rel = if ints == 0 { to_int_relation(&rows, ["a", "b", "c"]) } else { to_relation(&rows) };
        let mut ops: Vec<Operator> = narrow.iter().map(|&(kind, p)| narrow_from_seed(kind, p)).collect();
        let (keys, func, over) = tail;
        if keys < 4 || ops.is_empty() {
            ops.push(tail_from_seed(keys, func, over));
        }
        assert_stage_matches_oracle(&ops, &rel);
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
        };
        assert_engines_identical(&join, &[rel, &dup_rel]);
        assert_parallel_matches_sequential(&join, &[rel, &dup_rel]);
    }
}

/// An `Int` key joined with a `Float` key around 2^53, where `i64 → f64`
/// rounds: an integer matches only a float it equals exactly, and the row,
/// vectorized and parallel engines return the same rows.
#[test]
fn int_float_join_keys_near_two_pow_53_match_exactly() {
    let p53 = 1i64 << 53;
    let keyed = |key: DataType, value: &str, cell: &dyn Fn(i64) -> Value| {
        Relation::new(
            Schema::new(vec![
                ColumnDef::new("k", key),
                ColumnDef::new(value, DataType::Int),
            ]),
            (-3..=3)
                .map(|d| vec![cell(p53 + d), Value::Int(d)])
                .collect(),
        )
        .unwrap()
    };
    let ints = keyed(DataType::Int, "l", &|k| Value::Int(k));
    // 2^53 + 1 rounds to 2^53 and 2^53 + 3 to 2^53 + 4.
    let floats = keyed(DataType::Float, "r", &|k| Value::Float(k as f64));
    let join = Operator::Join {
        left_keys: vec!["k".into()],
        right_keys: vec!["k".into()],
    };
    let out = execute(&join, &[&ints, &floats]).unwrap();
    let pairs: Vec<(i64, i64)> = out
        .rows
        .iter()
        .map(|row| (row[1].as_int().unwrap(), row[2].as_int().unwrap()))
        .collect();
    assert_eq!(
        pairs,
        [(-3, -3), (-2, -2), (-1, -1), (0, 0), (0, 1), (2, 2)]
    );
    for inputs in [[&ints, &floats], [&floats, &ints]] {
        assert_engines_identical(&join, &inputs);
        assert_parallel_matches_sequential(&join, &inputs);
    }
}

/// Filters comparing an `Int` column with a `Float` column, and each with a
/// literal of the other type, around 2^53 and ±2^63, where `i64 → f64`
/// rounds: the vectorized and parallel engines keep exactly the rows the
/// row engine's `Value` order keeps.
#[test]
fn int_float_filters_near_two_pow_53_and_63_match_exactly() {
    let p53 = 1i64 << 53;
    let p63 = 9_223_372_036_854_775_808.0_f64;
    let ints = [
        p53 - 1,
        p53,
        p53 + 1,
        p53 + 3,
        -p53 - 1,
        i64::MAX - 1,
        i64::MAX,
        i64::MIN,
        0,
    ];
    let floats = [
        p53 as f64,
        (p53 + 4) as f64,
        -(p53 as f64),
        p63,
        -p63,
        -0.0,
        0.5,
        f64::INFINITY,
        f64::NAN,
    ];
    let rel = Relation::new(
        Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("f", DataType::Float),
        ]),
        ints.iter()
            .flat_map(|&k| {
                floats
                    .iter()
                    .map(move |&f| vec![Value::Int(k), Value::Float(f)])
            })
            .collect(),
    )
    .unwrap();
    let (k, f) = (|| Expr::col("k"), || Expr::col("f"));
    let filter = |predicate: Expr| Operator::Filter { predicate };
    // Only the row holding 2^53 exactly equals the float 2^53.
    let exact = filter(k().eq(Expr::lit(p53 as f64)));
    let kept = execute(&exact, &[&rel]).unwrap();
    assert_eq!(kept.num_rows(), floats.len());
    assert!(kept.rows.iter().all(|row| row[0] == Value::Int(p53)));
    for op in [
        exact,
        filter(k().eq(f())),
        filter(k().lt(f())),
        filter(k().ge(f())),
        filter(f().gt(k())),
        filter(f().le(k())),
        filter(k().ne(f())),
        filter(k().lt(Expr::lit(p63))),
        filter(k().ge(Expr::lit(-p63))),
        filter(k().gt(Expr::lit((p53 + 2) as f64))),
        filter(f().eq(Expr::lit(p53 + 1))),
        filter(f().lt(Expr::lit(i64::MAX))),
        filter(f().ge(Expr::lit(i64::MIN))),
        filter(Expr::lit(i64::MAX).lt(f())),
    ] {
        assert_engines_identical(&op, &[&rel]);
        assert_parallel_matches_sequential(&op, &[&rel]);
    }
}

/// Integer keys shaped to defeat a weak hash — multiples of 2^32 and 2^48
/// (equal low bits), a run of negatives, `i64::MIN` and `i64::MAX` — each
/// repeated out of order. The grouped aggregates, the join and the distinct
/// count run on the vectorized engine's keyed `i64` tables, whose hash
/// changes from table to table; the row, vectorized and parallel engines
/// still return the same rows in the same order (groups first-seen).
#[test]
fn integer_keys_that_stress_the_hash_give_identical_results() {
    let mut keys: Vec<i64> = (-40i64..40)
        .flat_map(|k| [k << 32, k << 48, -1 - (k + 40)])
        .collect();
    keys.extend([i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1]);
    let repeats: Vec<i64> = keys.iter().rev().step_by(3).copied().collect();
    keys.extend(&repeats);
    let rows: Vec<Vec<i64>> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| vec![k, (i as i64 * 37) % 101 - 50])
        .collect();
    let facts = Relation::from_ints(&["k", "v"], &rows);
    let dims = Relation::from_ints(
        &["k", "w"],
        &rows
            .iter()
            .step_by(4)
            .chain(rows.iter().rev().step_by(9))
            .map(|row| vec![row[0], -row[1]])
            .collect::<Vec<_>>(),
    );
    let aggregate = |func: AggFunc, over: Option<&str>| Operator::Aggregate {
        group_by: vec!["k".into()],
        func,
        over: over.map(Into::into),
        out: "a".into(),
    };
    let groups = execute(&aggregate(AggFunc::Count, None), &[&facts]).unwrap();
    // 80 keys of each shape and four extremes; `0 << 32` and `0 << 48` are
    // one key.
    assert_eq!(groups.num_rows(), 243);
    for op in [
        aggregate(AggFunc::Sum, Some("v")),
        aggregate(AggFunc::Count, None),
        aggregate(AggFunc::Min, Some("v")),
        aggregate(AggFunc::Max, Some("v")),
        Operator::DistinctCount {
            column: "k".into(),
            out: "n".into(),
        },
    ] {
        assert_engines_identical(&op, &[&facts]);
        assert_parallel_matches_sequential(&op, &[&facts]);
    }
    let join = Operator::Join {
        left_keys: vec!["k".into()],
        right_keys: vec!["k".into()],
    };
    for inputs in [[&facts, &dims], [&dims, &facts]] {
        assert_engines_identical(&join, &inputs);
        assert_parallel_matches_sequential(&join, &inputs);
    }
}

/// Fused stages over inputs of several morsels per range task: every row
/// range of twelve partitions spans three morsels and a part. The filter
/// empties a whole morsel (rows 4 096..8 192) and a multiply follows it, and
/// it empties the second range of twelve (rows 12 500..25 000), whose
/// partials must not reach the final pass (a scalar `MIN`'s `NULL` would);
/// company 99 first trades in the last rows, so its group is first seen in a
/// late morsel of the last range; and a filter that empties every morsel
/// keeps a multiply over an unknown column from ever running.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fused_stages_over_many_morsels_match_one_operator_at_a_time() {
    let rows: Vec<Vec<i64>> = (0..150_000i64)
        .map(|i| {
            let company = if i >= 149_000 { 99 } else { (i * 7) % 12 };
            let unpriced = (4_096..8_192).contains(&i) || (12_500..25_000).contains(&i);
            let price = if unpriced { 0 } else { (i * 13) % 97 + 1 };
            vec![company, price, i % 5]
        })
        .collect();
    let rel = Relation::from_ints(&["a", "b", "c"], &rows);
    let filter = |predicate: Expr| Operator::Filter { predicate };
    let revenue = Operator::Multiply {
        out: "prod".into(),
        operands: vec![Operand::col("b"), Operand::col("c")],
    };
    let project = Operator::Project {
        columns: vec!["a".into(), "prod".into(), "b".into()],
    };
    let priced = filter(Expr::col("b").gt(Expr::lit(0)));
    for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
        for group_by in [vec!["a".to_string()], vec![]] {
            let aggregate = Operator::Aggregate {
                group_by,
                func,
                over: (func != AggFunc::Count).then(|| "prod".to_string()),
                out: "agg".into(),
            };
            let ops = [priced.clone(), revenue.clone(), project.clone(), aggregate];
            assert_stage_matches_oracle(&ops, &rel);
        }
    }
    let distinct = Operator::Distinct {
        columns: vec!["a".into()],
    };
    assert_stage_matches_oracle(&[priced.clone(), revenue.clone(), distinct], &rel);
    // No tail: the output is materialized.
    assert_stage_matches_oracle(&[priced.clone(), revenue.clone(), project.clone()], &rel);
    // The groups come out first-seen, company 99 last.
    let sum = Operator::Aggregate {
        group_by: vec!["a".into()],
        func: AggFunc::Sum,
        over: Some("prod".into()),
        out: "agg".into(),
    };
    let stage = [&priced, &revenue, &sum];
    let input = Table::from_rows(rel.clone());
    let out = ColumnarExecutor::new()
        .execute_stage(&stage, &input)
        .unwrap();
    let companies = out.output.column_values("a").unwrap();
    assert_eq!(companies.len(), 13);
    assert_eq!(companies.last(), Some(&Value::Int(99)));
    // Every row filtered out: the multiply's unknown operand never resolves,
    // as one operator at a time on the empty filter output.
    let nothing = filter(Expr::col("b").lt(Expr::lit(0)));
    let unknown = Operator::Multiply {
        out: "x".into(),
        operands: vec![Operand::col("zzz")],
    };
    assert_stage_matches_oracle(&[nothing.clone(), unknown.clone(), sum.clone()], &rel);
    let stage = [&nothing, &unknown];
    assert_eq!(
        ColumnarExecutor::new()
            .execute_stage(&stage, &input)
            .unwrap()
            .output
            .num_rows(),
        0
    );
    // With rows left, it fails as one operator at a time does.
    assert!(ColumnarExecutor::new()
        .execute_stage(&[&priced, &unknown], &input)
        .is_err());
}

/// On an empty input no predicate is evaluated and no operand resolved, so
/// unknown columns there fail nothing; a project, aggregate or distinct over
/// an unknown column fails on any input, but only after an earlier step's
/// error, which rows raise.
#[test]
fn fused_stages_fail_exactly_when_one_operator_at_a_time_does() {
    let empty = to_int_relation(&[], ["a", "b", "c"]);
    let rows = to_int_relation(&[(1, 2, 3, 0), (4, 5, 6, 0)], ["a", "b", "c"]);
    let unknown_filter = Operator::Filter {
        predicate: Expr::col("zzz").gt(Expr::lit(0)),
    };
    let unknown_project = Operator::Project {
        columns: vec!["zzz".into()],
    };
    let count = Operator::Aggregate {
        group_by: vec![],
        func: AggFunc::Count,
        over: None,
        out: "n".into(),
    };
    let input = Table::from_rows(empty.clone());
    let out = ColumnarExecutor::new()
        .execute_stage(&[&unknown_filter, &count], &input)
        .unwrap();
    assert_eq!(out.output.as_rows().rows, vec![vec![Value::Int(0)]]);
    for rel in [&empty, &rows] {
        assert_stage_matches_oracle(&[unknown_filter.clone(), count.clone()], rel);
        assert_stage_matches_oracle(&[unknown_filter.clone(), unknown_project.clone()], rel);
        assert_stage_matches_oracle(&[unknown_project.clone(), unknown_filter.clone()], rel);
    }
    // Rows reach the filter: its error, not the project's.
    let input = Table::from_rows(rows);
    let err = |engine: &dyn Executor| {
        engine
            .execute_stage(&[&unknown_filter, &unknown_project], &input)
            .unwrap_err()
    };
    let row_err = err(&RowExecutor::new());
    assert!(
        matches!(row_err, conclave_engine::EngineError::Eval(_)),
        "{row_err:?}"
    );
    assert_eq!(err(&ColumnarExecutor::new()), row_err);
    let parallel = ParallelEngine::new(ClusterSpec::paper_party_cluster());
    assert_eq!(err(&parallel), row_err);
}
