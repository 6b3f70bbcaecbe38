//! The merged operator differential suite: **every** party-capable operator
//! on every engine, against the cleartext reference.
//!
//! One table of `(operator, inputs, expected order)` cases is pushed through
//! [`common::assert_engines_match_cleartext`], which runs each case as a
//! one-step query on every party runtime — the in-process `Protocol` engine
//! of `Simulated` and the `StepCtx` engine over channel and TCP meshes —
//! compares all three with `conclave_engine::execute`, and
//! requires equal engine-independent primitive counts (so an operator that
//! opens or multiplies on one engine but not the other fails here).

// Test target: panicking on bad setup is the desired behavior here.
#![allow(clippy::unwrap_used)]

mod common;

use common::{assert_engines_match_cleartext, run_on_mesh, Order};
use conclave::core::config::PartyRuntime;
use conclave::core::party_exec::op_is_party_capable;
use conclave::prelude::*;
use conclave_ir::expr::Expr;
use conclave_ir::ops::{Operand, Operator};

fn names(cols: &[&str]) -> Vec<String> {
    cols.iter().map(|c| c.to_string()).collect()
}

/// Every unary operator shape, over a relation with columns `k`, `a`, `b`.
fn unary_cases() -> Vec<(Operator, Order)> {
    let mut cases = Vec::new();
    for group_by in [names(&["k"]), Vec::new()] {
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            let over = (func != AggFunc::Count).then(|| "a".to_string());
            cases.push((
                Operator::Aggregate {
                    group_by: group_by.clone(),
                    func,
                    over,
                    out: "agg".into(),
                },
                Order::Any,
            ));
        }
    }
    // Several group-by keys: one lexicographic sort over all of them.
    for func in [AggFunc::Sum, AggFunc::Min] {
        cases.push((
            Operator::Aggregate {
                group_by: names(&["k", "a"]),
                func,
                over: Some("b".into()),
                out: "agg".into(),
            },
            Order::Any,
        ));
    }
    for ascending in [true, false] {
        cases.push((
            Operator::SortBy {
                column: "a".into(),
                ascending,
            },
            Order::SortedBy("a", ascending),
        ));
    }
    let (a, b, three) = (|| Expr::col("a"), || Expr::col("b"), || Expr::lit(3));
    for predicate in [
        a().lt(three()),
        a().le(three()),
        a().gt(three()),
        a().ge(three()),
        a().eq(three()),
        a().ne(three()),
        a().lt(b()),
        three().le(b()),
        a().ge(Expr::lit(2)).and(b().ne(Expr::lit(30))),
        a().eq(b()).or(Expr::col("k").gt(Expr::lit(1))),
        a().lt(b()).not(),
        a().gt(Expr::lit(0))
            .and(a().eq(b()).not())
            .or(b().le(Expr::lit(-5))),
    ] {
        cases.push((Operator::Filter { predicate }, Order::Any));
    }
    for (out, operands) in [
        (
            "p",
            vec![Operand::col("a"), Operand::col("b"), Operand::lit(3)],
        ),
        ("p", vec![Operand::lit(-2), Operand::col("a")]),
        ("a", vec![Operand::col("a"), Operand::col("a")]),
    ] {
        cases.push((
            Operator::Multiply {
                out: out.into(),
                operands,
            },
            Order::Exact,
        ));
    }
    for columns in [names(&["k"]), names(&["a", "k"]), names(&["k", "b", "a"])] {
        cases.push((Operator::Distinct { columns }, Order::Any));
    }
    cases.push((
        Operator::DistinctCount {
            column: "a".into(),
            out: "n".into(),
        },
        Order::Exact,
    ));
    cases.push((Operator::Limit { n: 2 }, Order::Exact));
    cases.push((Operator::Enumerate { out: "row".into() }, Order::Exact));
    cases.push((
        Operator::Project {
            columns: names(&["b", "k"]),
        },
        Order::Exact,
    ));
    cases.push((Operator::Concat, Order::Exact));
    cases
}

fn demo() -> Relation {
    Relation::from_ints(
        &["k", "a", "b"],
        &[
            vec![2, 5, 5],
            vec![1, -3, 30],
            vec![2, 3, -7],
            vec![3, 0, 3],
            vec![1, 3, 4],
            vec![2, 5, 5],
            vec![1, 8, -5],
        ],
    )
}

#[test]
fn every_unary_operator_matches_cleartext_on_all_engines() {
    let rel = demo();
    for (seed, (op, order)) in unary_cases().into_iter().enumerate() {
        assert!(op_is_party_capable(&op));
        assert_engines_match_cleartext(&op, &[&rel], seed as u64, order);
    }
}

#[test]
fn empty_and_single_row_inputs_match_cleartext_on_all_engines() {
    let empty = Relation::from_ints(&["k", "a", "b"], &[]);
    let single = Relation::from_ints(&["k", "a", "b"], &[vec![4, -1, 9]]);
    for (seed, (op, order)) in unary_cases().into_iter().enumerate() {
        assert_engines_match_cleartext(&op, &[&single], 100 + seed as u64, order);
        // A scalar MIN/MAX over nothing is NULL in the clear, which no share
        // can represent: the MPC engines yield no row instead.
        let null_result = matches!(
            &op,
            Operator::Aggregate { group_by, func: AggFunc::Min | AggFunc::Max, .. } if group_by.is_empty()
        );
        if !null_result {
            assert_engines_match_cleartext(&op, &[&empty], 200 + seed as u64, order);
        }
    }
}

#[test]
fn n_ary_operators_match_cleartext_on_all_engines() {
    let left = demo();
    let right = Relation::from_ints(
        &["k", "a", "c"],
        &[
            vec![2, 5, 70],
            vec![2, 3, 71],
            vec![1, 3, 72],
            vec![2, 5, 73],
            vec![9, 9, 74],
        ],
    );
    let empty = Relation::from_ints(&["k", "a", "c"], &[]);
    for keys in [names(&["k", "a"]), names(&["k"])] {
        let join = Operator::Join {
            left_keys: keys.clone(),
            right_keys: keys,
        };
        assert_engines_match_cleartext(&join, &[&left, &right], 1, Order::Any);
        assert_engines_match_cleartext(&join, &[&left, &empty], 2, Order::Any);
    }
    assert_engines_match_cleartext(&Operator::Concat, &[&left, &left, &left], 3, Order::Exact);
}

/// Comparisons on the values where a naive (unsigned) bit decomposition
/// gets the answer wrong.
#[test]
fn signed_boundaries_match_cleartext_on_all_engines() {
    let edges = [i64::MIN, i64::MAX, -1, 0, 1, i64::MIN + 1, i64::MAX, 0];
    let rel = Relation::from_ints(
        &["k", "v"],
        &edges
            .iter()
            .enumerate()
            .map(|(i, &v)| vec![i as i64 % 2, v])
            .collect::<Vec<_>>(),
    );
    for ascending in [true, false] {
        let sort = Operator::SortBy {
            column: "v".into(),
            ascending,
        };
        assert_engines_match_cleartext(&sort, &[&rel], 11, Order::SortedBy("v", ascending));
    }
    // A literal is a public operand: `c < v` runs as `¬(v < c + 1)`, and
    // `i64::MAX < v` and a literal-vs-literal comparison are decided in
    // the clear.
    for predicate in [
        Expr::col("v").lt(Expr::lit(0)),
        Expr::col("v").ge(Expr::lit(i64::MAX)),
        Expr::col("v").eq(Expr::lit(i64::MIN)),
        Expr::col("v").gt(Expr::lit(i64::MIN)).not(),
        Expr::lit(i64::MAX).lt(Expr::col("v")),
        Expr::lit(i64::MIN).ge(Expr::col("v")),
        Expr::lit(-1).lt(Expr::col("v")),
        Expr::col("v").gt(Expr::lit(i64::MAX)),
        Expr::lit(2).le(Expr::lit(-3)),
        Expr::lit(-1)
            .lt(Expr::lit(0))
            .and(Expr::lit(i64::MIN).gt(Expr::col("v")).not()),
    ] {
        assert_engines_match_cleartext(&Operator::Filter { predicate }, &[&rel], 12, Order::Any);
    }
    for (func, group_by) in [
        (AggFunc::Min, names(&["k"])),
        (AggFunc::Max, names(&["k"])),
        (AggFunc::Min, Vec::new()),
        (AggFunc::Max, Vec::new()),
    ] {
        let agg = Operator::Aggregate {
            group_by,
            func,
            over: Some("v".into()),
            out: "m".into(),
        };
        assert_engines_match_cleartext(&agg, &[&rel], 13, Order::Any);
    }
}

/// A layer is one batch however wide it is: an 80-row sort (28 layers of up
/// to 40 comparators) matches the cleartext oracle on a channel mesh and pays
/// 10 × layers + 3 rounds.
#[test]
fn mesh_networks_issue_one_batch_per_layer() {
    let rows: Vec<Vec<i64>> = (0..80)
        .map(|i| (i * 37) % 101 - 50)
        .map(|v| vec![v, -v])
        .collect();
    let rel = Relation::from_ints(&["v", "w"], &rows);
    let sort = Operator::SortBy {
        column: "v".into(),
        ascending: true,
    };
    let (opened, summary) = run_on_mesh(&sort, &[&rel], 31, PartyRuntime::Channel);
    let expected = conclave_engine::execute(&sort, &[&rel]).unwrap();
    assert!(opened.same_rows_unordered(&expected));
    assert!(opened.is_sorted_by("v", true));
    assert_eq!(summary.net.rounds, 10 * 28 + 3);
}
