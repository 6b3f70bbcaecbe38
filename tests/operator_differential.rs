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

use common::{assert_engines_match_cleartext, engine_independent, run_on_mesh, Order};
use conclave::core::config::PartyRuntime;
use conclave::core::party_exec::op_is_party_capable;
use conclave::mpc::runtime::{
    aggregate_sorted_lanes, open_relation, share_relation, PartyResult, PartySession,
};
use conclave::mpc::{AggLane, PrimitiveCounts, Protocol, SharedRelation};
use conclave::net::{ChannelTransport, TcpTransport, Transport};
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

/// Where a k-output aggregation runs: the in-process `Protocol` engine or
/// one `StepCtx` per party over a channel or localhost-TCP mesh.
#[derive(Debug, Clone, Copy)]
enum LaneEngine {
    Protocol,
    Channel,
    Tcp,
}

/// What one k-output aggregation returned: the opened result, the primitive
/// counts of sharing, aggregating and opening, and the mesh's rounds (0 on
/// `Protocol`).
struct LaneRun {
    opened: Relation,
    counts: PrimitiveCounts,
    rounds: u64,
}

/// Shares `rel` (grouped by its keys), runs one [`aggregate_sorted_lanes`]
/// over it and opens the result, on one engine.
fn run_lanes(
    engine: LaneEngine,
    rel: &Relation,
    group_by: &[String],
    lanes: &[AggLane],
    seed: u64,
) -> LaneRun {
    fn on_mesh<T: Transport>(
        mesh: Vec<T>,
        rel: &Relation,
        group_by: &[String],
        lanes: &[AggLane],
        seed: u64,
    ) -> LaneRun {
        let runs: Vec<LaneRun> = std::thread::scope(|s| {
            let parties: Vec<_> = mesh
                .into_iter()
                .map(|t| {
                    s.spawn(move || {
                        let mut session = PartySession::new(&t, seed);
                        let mut proto = session.step(0);
                        let own = (proto.party() == 0).then_some(rel);
                        let shared =
                            share_relation(&mut proto, 0, own, &rel.schema, rel.num_rows())?;
                        let out = aggregate_sorted_lanes(&mut proto, &shared, group_by, lanes)?;
                        let opened = open_relation(&mut proto, &out)?;
                        let counts = proto.counts();
                        PartyResult::Ok(LaneRun {
                            opened,
                            counts,
                            rounds: t.stats().rounds,
                        })
                    })
                })
                .collect();
            parties
                .into_iter()
                .map(|p| p.join().expect("party thread").expect("party program"))
                .collect()
        });
        let mut runs = runs.into_iter();
        let first = runs.next().expect("three parties");
        for other in runs {
            assert!(other.opened.same_rows_unordered(&first.opened));
        }
        first
    }
    match engine {
        LaneEngine::Protocol => {
            let mut p = Protocol::new(3, seed);
            let shared = SharedRelation::from_relation(rel, &mut p).unwrap();
            let out = aggregate_sorted_lanes(&mut p, &shared, group_by, lanes).unwrap();
            LaneRun {
                opened: out.open(&mut p).to_rows(),
                counts: p.counts(),
                rounds: 0,
            }
        }
        LaneEngine::Channel => on_mesh(ChannelTransport::mesh(3), rel, group_by, lanes, seed),
        LaneEngine::Tcp => on_mesh(
            TcpTransport::localhost_mesh(3).expect("localhost mesh"),
            rel,
            group_by,
            lanes,
            seed,
        ),
    }
}

/// `rel`'s group-by columns and the column at `col`, row for row.
fn keys_and(rel: &Relation, keys: usize, col: usize) -> Relation {
    let picked: Vec<usize> = (0..keys).chain([col]).collect();
    Relation {
        schema: Schema::new(
            picked
                .iter()
                .map(|&c| rel.schema.columns[c].clone())
                .collect(),
        ),
        rows: rel
            .rows
            .iter()
            .map(|row| picked.iter().map(|&c| row[c].clone()).collect())
            .collect(),
    }
}

/// A k-output sorted aggregation is k single-output ones run as one scan:
/// every lane equals its own single-output run and the cleartext, on
/// `Protocol`, channel and TCP alike; the engines charge the same counts;
/// the k lanes pay one equality batch, one flag shuffle and one open, and
/// the rounds of the costliest lane alone.
#[test]
fn k_output_aggregations_equal_k_single_runs_on_all_engines() {
    let rows: Vec<Vec<i64>> = demo()
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.as_int().unwrap()).collect())
        .collect();
    let relation = |mut rows: Vec<Vec<i64>>| {
        // The scan needs its input grouped: sort by (k, a), the longest key.
        rows.sort_unstable();
        Relation::from_ints(&["k", "a", "b"], &rows)
    };
    let inputs = [
        ("seven rows", relation(rows.clone())),
        ("empty", relation(Vec::new())),
        ("single row", relation(vec![vec![4, -1, 9]])),
        (
            "single group",
            relation(rows.iter().map(|r| vec![2, r[1], r[2]]).collect()),
        ),
    ];
    let lane_sets: [&[AggLane]; 2] = [
        &[
            AggLane {
                func: AggFunc::Count,
                over: None,
                out: "n",
            },
            AggLane {
                func: AggFunc::Sum,
                over: Some("b"),
                out: "total",
            },
            AggLane {
                func: AggFunc::Min,
                over: Some("b"),
                out: "lo",
            },
            AggLane {
                func: AggFunc::Max,
                over: Some("a"),
                out: "hi",
            },
        ],
        &[
            AggLane {
                func: AggFunc::Sum,
                over: Some("a"),
                out: "sa",
            },
            AggLane {
                func: AggFunc::Count,
                over: None,
                out: "n",
            },
        ],
    ];
    let mut seed = 400;
    for group_by in [names(&["k"]), names(&["k", "a"])] {
        for (what, rel) in &inputs {
            for lanes in lane_sets {
                seed += 1;
                let case = format!("{what}, by {group_by:?}, {} lanes", lanes.len());
                let n = rel.num_rows() as u64;
                let keys = group_by.len();
                let fused = run_lanes(LaneEngine::Protocol, rel, &group_by, lanes, seed);
                let expected_cols: Vec<&str> = group_by
                    .iter()
                    .map(String::as_str)
                    .chain(lanes.iter().map(|l| l.out))
                    .collect();
                assert_eq!(fused.opened.schema.names(), expected_cols, "{case}");
                // One equality batch over adjacent keys and one shuffle of
                // the candidates (keys, every lane, the flag), however many
                // lanes.
                let pairs = n.saturating_sub(1);
                assert_eq!(fused.counts.equalities, pairs * keys as u64, "{case}");
                let candidates = if n == 0 {
                    0
                } else {
                    n * (keys + lanes.len() + 1) as u64
                };
                assert_eq!(fused.counts.shuffled_elems, candidates, "{case}");

                let mut single_rounds = 0;
                for (l, lane) in lanes.iter().enumerate() {
                    let single = run_lanes(LaneEngine::Protocol, rel, &group_by, &[*lane], seed);
                    let reference = conclave_engine::execute(
                        &Operator::Aggregate {
                            group_by: group_by.clone(),
                            func: lane.func,
                            over: lane.over.map(str::to_string),
                            out: lane.out.into(),
                        },
                        &[rel],
                    )
                    .unwrap();
                    let own = keys_and(&fused.opened, keys, keys + l);
                    assert!(
                        own.same_rows_unordered(&single.opened),
                        "{case}: {}",
                        lane.out
                    );
                    assert!(own.same_rows_unordered(&reference), "{case}: {}", lane.out);
                    assert_eq!(single.counts.equalities, fused.counts.equalities, "{case}");
                    let on_channel = run_lanes(LaneEngine::Channel, rel, &group_by, &[*lane], seed);
                    single_rounds = single_rounds.max(on_channel.rounds);
                }

                for engine in [LaneEngine::Channel, LaneEngine::Tcp] {
                    let run = run_lanes(engine, rel, &group_by, lanes, seed);
                    assert!(
                        run.opened.same_rows_unordered(&fused.opened),
                        "{case}: {engine:?} diverged from Protocol"
                    );
                    assert_eq!(
                        engine_independent(run.counts),
                        engine_independent(fused.counts),
                        "{case}: {engine:?} and Protocol charged different primitives"
                    );
                    // Every per-row batch carries every lane: the rounds of
                    // the costliest lane run alone.
                    assert_eq!(run.rounds, single_rounds, "{case}: {engine:?} rounds");
                }
            }
        }
    }
}
