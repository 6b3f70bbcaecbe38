//! The merged operator differential suite: **every** party-capable operator
//! on every engine, against the cleartext reference.
//!
//! One table of `(operator, inputs, expected order)` cases is pushed through
//! [`common::assert_engines_match_cleartext`], which runs each case on the
//! in-process `Protocol` engine and on the `StepCtx` engine over channel and
//! TCP meshes, compares all three with `conclave_engine::execute`, and
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
use conclave_ir::ops::{JoinKind, Operand, Operator};

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
    cases.push((
        Operator::Distinct {
            columns: names(&["k"]),
        },
        Order::Any,
    ));
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
    cases.push((Operator::Shuffle, Order::Any));
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
            kind: JoinKind::Inner,
        };
        assert_engines_match_cleartext(&join, &[&left, &right], 1, Order::Any);
        assert_engines_match_cleartext(&join, &[&left, &empty], 2, Order::Any);
    }
    assert_engines_match_cleartext(&Operator::Concat, &[&left, &left, &left], 3, Order::Exact);

    let run = |vals: &[i64]| {
        Relation::from_ints(&["v"], &vals.iter().map(|&v| vec![v]).collect::<Vec<_>>())
    };
    for ascending in [true, false] {
        let mut runs = vec![
            run(&[-4, 1, 1, 6, 9]),
            run(&[0, 1, 7]),
            run(&[]),
            run(&[-9, 8]),
        ];
        if !ascending {
            for r in &mut runs {
                r.rows.reverse();
            }
        }
        let merge = Operator::Merge {
            column: "v".into(),
            ascending,
        };
        let order = Order::SortedBy("v", ascending);
        assert_engines_match_cleartext(&merge, &[&runs[0], &runs[1]], 4, order);
        let all: Vec<&Relation> = runs.iter().collect();
        assert_engines_match_cleartext(&merge, &all, 5, order);
        assert_engines_match_cleartext(&merge, &[&runs[1]], 6, order);
    }

    let select = Operator::ObliviousSelect {
        index_column: "i".into(),
    };
    let indexes = Relation::from_ints(&["i"], &[vec![6], vec![0], vec![0], vec![3]]);
    assert_engines_match_cleartext(&select, &[&left, &indexes], 7, Order::Exact);
    let no_indexes = Relation::from_ints(&["i"], &[]);
    assert_engines_match_cleartext(&select, &[&left, &no_indexes], 8, Order::Exact);
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
    for predicate in [
        Expr::col("v").lt(Expr::lit(0)),
        Expr::col("v").ge(Expr::lit(i64::MAX)),
        Expr::col("v").eq(Expr::lit(i64::MIN)),
        Expr::col("v").gt(Expr::lit(i64::MIN)).not(),
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

/// The mesh merges sorted runs with one merge network instead of re-sorting
/// the concatenation: a two-run `Merge` takes fewer rounds than a `SortBy`
/// over the same rows.
#[test]
fn mesh_merge_takes_fewer_rounds_than_sort() {
    let runs = [
        Relation::from_ints(&["v"], &(0..8).map(|i| vec![2 * i]).collect::<Vec<_>>()),
        Relation::from_ints(&["v"], &(0..8).map(|i| vec![2 * i + 1]).collect::<Vec<_>>()),
    ];
    let cat = conclave_engine::execute(&Operator::Concat, &[&runs[0], &runs[1]]).unwrap();
    let rounds = |op: &Operator, inputs: &[&Relation]| {
        run_on_mesh(op, inputs, 21, PartyRuntime::Channel)
            .1
            .net
            .rounds
    };
    let merge_rounds = rounds(
        &Operator::Merge {
            column: "v".into(),
            ascending: true,
        },
        &[&runs[0], &runs[1]],
    );
    let sort_rounds = rounds(
        &Operator::SortBy {
            column: "v".into(),
            ascending: true,
        },
        &[&cat],
    );
    assert!(
        merge_rounds < sort_rounds,
        "merge {merge_rounds} vs sort {sort_rounds} rounds"
    );
    // 16 rows: a (8, 8) odd-even merge is 25 comparators in 4 layers, the
    // Batcher sort 63 in 10, issued as 10 and 25 batches of at most
    // `LAYER_CHUNK` = 3 comparators of one layer; each batch is a 9-round
    // comparison plus a 1-round multiplexer, and the step pays 1 reveal and
    // 2 MAC-check rounds. (One comparator per batch was 253 and 633; a whole
    // layer per batch — ROADMAP item 1, Stage B — is 4·10 + 3 = 43 and
    // 10·10 + 3 = 103.)
    assert_eq!(merge_rounds, 10 * 10 + 3);
    assert_eq!(sort_rounds, 25 * 10 + 3);
}
