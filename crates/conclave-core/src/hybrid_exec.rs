//! Execution of the hybrid MPC–cleartext protocols (§5.3).
//!
//! These functions implement the three hybrid operators end to end, using the
//! in-process counting engine of `conclave-mpc` for the MPC steps (under every
//! party runtime) and a cleartext [`Executor`] for the selectively-trusted
//! party's local steps.
//! All cleartext data moves as [`Table`]s: the STP-side intermediates stay in
//! the executor's native representation (columnar executors keep them
//! columnar), and secret-sharing picks the column-at-a-time path whenever a
//! table's columns are already materialized. The returned statistics separate
//! MPC time from STP cleartext time so the driver can account them like the
//! paper's deployment would (the STP works while the other parties wait).

use conclave_engine::{ConversionCounts, Executor, Table};
use conclave_ir::ops::{join_schema, AggFunc, Operator};
use conclave_ir::party::PartyId;
use conclave_mpc::backend::{MpcEngine, MpcError, MpcResult, MpcStepStats};
use conclave_mpc::oblivious;
use conclave_mpc::relation::SharedRelation;
use std::time::Duration;

/// Result of one hybrid-protocol execution.
#[derive(Debug, Clone)]
pub struct HybridOutcome {
    /// The (cleartext) result table.
    pub result: Table,
    /// MPC-side statistics (sharing, shuffles, oblivious indexing, opens).
    pub mpc_stats: MpcStepStats,
    /// Simulated cleartext time spent at the STP / helper party.
    pub stp_time: Duration,
    /// Columns whose (shuffled) cleartext values the STP / helper saw
    /// (column names per input).
    pub revealed_columns: Vec<String>,
    /// The party that received the revealed columns.
    pub revealed_to: PartyId,
    /// Row↔columnar conversion work performed by the protocol's internal
    /// intermediate tables (revealed keys, enumerations, index relations) —
    /// the driver folds this into `RunReport::conversions` so the per-run
    /// counter also covers the hybrid paths.
    pub conversions: ConversionCounts,
}

/// Runs one cleartext (STP-side) step with the given executor.
fn run_clear(op: &Operator, inputs: &[&Table], exec: &dyn Executor) -> MpcResult<Table> {
    exec.execute(op, inputs)
        .map_err(|e| MpcError::Exec(e.to_string()))
}

/// Sums the conversion work performed by tables created inside a hybrid
/// protocol (their counters start at zero, so the absolute counts are the
/// per-protocol tally).
fn intermediate_conversions(tables: &[&Table]) -> ConversionCounts {
    let mut total = ConversionCounts::default();
    for t in tables {
        total.merge(&t.conversion_counts());
    }
    total
}

/// Executes the hybrid join of Figure 3.
///
/// MPC steps: oblivious shuffles of both inputs, revealing the key columns to
/// the STP, secret-sharing the matching row-index relations back in, two
/// oblivious-index selections and a final shuffle. STP steps: enumerating
/// both key relations and joining them in the clear.
pub fn hybrid_join(
    engine: &mut MpcEngine,
    stp_exec: &dyn Executor,
    left: &Table,
    right: &Table,
    left_keys: &[String],
    right_keys: &[String],
    stp: PartyId,
) -> MpcResult<HybridOutcome> {
    engine.protocol().reset_counts();
    // 1. Share and obliviously shuffle both inputs (column-at-a-time when the
    // tables are column-backed).
    let left_shared = engine.share_table(left)?;
    let right_shared = engine.share_table(right)?;
    let left_shuffled = oblivious::shuffle(&left_shared, engine.protocol());
    let right_shuffled = oblivious::shuffle(&right_shared, engine.protocol());

    // 2. Project the key columns and reveal them to the STP.
    let left_keys_shared = left_shuffled.project(left_keys)?;
    let right_keys_shared = right_shuffled.project(right_keys)?;
    let left_keys_clear = Table::from_rows(engine.reconstruct(&left_keys_shared));
    let right_keys_clear = Table::from_rows(engine.reconstruct(&right_keys_shared));

    // 3–5. STP: enumerate both key relations, join in the clear, and project
    // the row-index columns into two index relations.
    let enum_left = run_clear(
        &Operator::Enumerate {
            out: "__lidx".into(),
        },
        &[&left_keys_clear],
        stp_exec,
    )?;
    let enum_right = run_clear(
        &Operator::Enumerate {
            out: "__ridx".into(),
        },
        &[&right_keys_clear],
        stp_exec,
    )?;
    let join_op = Operator::Join {
        left_keys: left_keys.to_vec(),
        right_keys: right_keys.to_vec(),
        kind: conclave_ir::ops::JoinKind::Inner,
    };
    let joined_keys = run_clear(&join_op, &[&enum_left, &enum_right], stp_exec)?;
    let left_indexes = run_clear(
        &Operator::Project {
            columns: vec!["__lidx".into()],
        },
        &[&joined_keys],
        stp_exec,
    )?;
    let right_indexes = run_clear(
        &Operator::Project {
            columns: vec!["__ridx".into()],
        },
        &[&joined_keys],
        stp_exec,
    )?;
    let stp_time = stp_exec.estimate_tables(
        &join_op,
        &[&enum_left, &enum_right],
        joined_keys.num_rows() as u64,
    );

    // 5–6. The STP secret-shares the index relations; the parties obliviously
    // select the matching rows from the shuffled inputs.
    let left_indexes_shared = engine.share_table(&left_indexes)?;
    let right_indexes_shared = engine.share_table(&right_indexes)?;
    let left_rows = oblivious::oblivious_select(
        &left_shuffled,
        &left_indexes_shared,
        "__lidx",
        engine.protocol(),
    )?;
    let right_rows = oblivious::oblivious_select(
        &right_shuffled,
        &right_indexes_shared,
        "__ridx",
        engine.protocol(),
    )?;

    // 7. Concatenate column-wise (dropping the right key columns) and shuffle.
    let schema = join_schema(left.schema(), right.schema(), left_keys, right_keys)
        .map_err(|e| MpcError::Exec(e.to_string()))?;
    let right_key_idx: Vec<usize> = right_keys
        .iter()
        .filter_map(|k| right_rows.col_index(k))
        .collect();
    let mut rows = Vec::with_capacity(left_rows.num_rows());
    for (lrow, rrow) in left_rows.rows.iter().zip(&right_rows.rows) {
        let mut row = lrow.clone();
        for (c, v) in rrow.iter().enumerate() {
            if !right_key_idx.contains(&c) {
                row.push(*v);
            }
        }
        rows.push(row);
    }
    let combined = SharedRelation { schema, rows };
    let shuffled_result = oblivious::shuffle(&combined, engine.protocol());
    let result = Table::from_rows(engine.reconstruct(&shuffled_result));
    let input_rows = (left.num_rows() + right.num_rows()) as u64;
    let mpc_stats = engine.drain_stats(input_rows, result.num_rows() as u64);
    let conversions = intermediate_conversions(&[
        &left_keys_clear,
        &right_keys_clear,
        &enum_left,
        &enum_right,
        &joined_keys,
        &left_indexes,
        &right_indexes,
    ]);

    Ok(HybridOutcome {
        result,
        mpc_stats,
        stp_time,
        revealed_columns: left_keys.iter().chain(right_keys.iter()).cloned().collect(),
        revealed_to: stp,
        conversions,
    })
}

/// Executes the public join of §5.3: both sides' key columns are public, so a
/// helper party joins the enumerated keys entirely in the clear and the
/// result is assembled without any MPC step.
pub fn public_join(
    helper_exec: &dyn Executor,
    left: &Table,
    right: &Table,
    left_keys: &[String],
    right_keys: &[String],
    helper: PartyId,
) -> MpcResult<HybridOutcome> {
    let op = Operator::Join {
        left_keys: left_keys.to_vec(),
        right_keys: right_keys.to_vec(),
        kind: conclave_ir::ops::JoinKind::Inner,
    };
    let result = run_clear(&op, &[left, right], helper_exec)?;
    let stp_time = helper_exec.estimate_tables(&op, &[left, right], result.num_rows() as u64);
    // The only cross-party traffic is the key columns and the joined index
    // relation; account it as opened/shared elements so the cost model can
    // convert it to time and bytes.
    let mpc_stats = MpcStepStats {
        input_rows: (left.num_rows() + right.num_rows()) as u64,
        output_rows: result.num_rows() as u64,
        ..Default::default()
    };
    Ok(HybridOutcome {
        result,
        mpc_stats,
        stp_time,
        revealed_columns: left_keys.iter().chain(right_keys.iter()).cloned().collect(),
        revealed_to: helper,
        // The helper consumes the driver-tracked inputs directly; no
        // protocol-internal tables exist.
        conversions: ConversionCounts::default(),
    })
}

/// Executes the hybrid aggregation of §5.3: the input is obliviously
/// shuffled, the group-by column is revealed to the STP, the STP sorts it in
/// the clear and returns the ordering, and the parties finish with a linear
/// oblivious accumulation scan instead of an oblivious sort.
// The signature mirrors the aggregate operator's fields one-to-one; bundling
// them into a struct would just duplicate `Operator::Aggregate`.
#[allow(clippy::too_many_arguments)]
pub fn hybrid_aggregate(
    engine: &mut MpcEngine,
    stp_exec: &dyn Executor,
    input: &Table,
    group_by: &[String],
    func: AggFunc,
    over: Option<&str>,
    out: &str,
    stp: PartyId,
) -> MpcResult<HybridOutcome> {
    engine.protocol().reset_counts();
    let key = group_by
        .first()
        .ok_or_else(|| MpcError::Exec("hybrid aggregation needs a group-by column".into()))?;

    // 1. Share and obliviously shuffle the input.
    let shared = engine.share_table(input)?;
    let shuffled = oblivious::shuffle(&shared, engine.protocol());

    // 2. Reveal the (shuffled) group-by column to the STP.
    let keys_shared = shuffled.project(std::slice::from_ref(key))?;
    let keys_clear = Table::from_rows(engine.reconstruct(&keys_shared));

    // 3–4. STP: enumerate and sort by key in the clear; the resulting index
    // order is sent back to the parties (it refers to shuffled positions, so
    // it reveals nothing about the original order).
    let enumerated = run_clear(
        &Operator::Enumerate {
            out: "__idx".into(),
        },
        &[&keys_clear],
        stp_exec,
    )?;
    let sort_op = Operator::SortBy {
        column: key.clone(),
        ascending: true,
    };
    let sorted = run_clear(&sort_op, &[&enumerated], stp_exec)?;
    let stp_time = stp_exec.estimate_tables(&sort_op, &[input], input.num_rows() as u64);
    let order: Vec<usize> = sorted
        .column_values("__idx")
        .ok_or_else(|| MpcError::Exec("enumeration column missing".into()))?
        .iter()
        .map(|v| v.as_int().unwrap_or(0) as usize)
        .collect();

    // 5–6. The parties reorder the shuffled shared relation by the public
    // ordering, grouping equal keys together.
    let reordered = shuffled.permute(&order);

    // 7–8. Linear oblivious accumulation over the key-grouped relation,
    // followed by a shuffle-and-reveal of the group-end flags (performed
    // inside `aggregate_sorted`). The oblivious equality tests stand in for
    // the STP-provided equality flags; their cost is a small constant factor
    // of the linear scan either way.
    let aggregated =
        oblivious::aggregate_sorted(&reordered, group_by, func, over, out, engine.protocol())?;
    let result = Table::from_rows(engine.reconstruct(&aggregated));
    let mpc_stats = engine.drain_stats(input.num_rows() as u64, result.num_rows() as u64);
    let conversions = intermediate_conversions(&[&keys_clear, &enumerated, &sorted]);

    Ok(HybridOutcome {
        result,
        mpc_stats,
        stp_time,
        revealed_columns: vec![key.clone()],
        revealed_to: stp,
        conversions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_engine::{
        execute, sequential_executor, ColumnarRelation, EngineMode, Relation, RowExecutor,
    };
    use conclave_mpc::backend::MpcBackendConfig;
    use conclave_mpc::cost::PrimitiveCounts;

    fn engine() -> MpcEngine {
        MpcEngine::new(MpcBackendConfig::sharemind())
    }

    fn demo_relations() -> (Relation, Relation) {
        let demographics = Relation::from_ints(
            &["ssn", "zip"],
            &[
                vec![1, 10],
                vec![2, 20],
                vec![3, 10],
                vec![4, 30],
                vec![5, 20],
            ],
        );
        let scores = Relation::from_ints(
            &["ssn", "score"],
            &[
                vec![2, 700],
                vec![3, 650],
                vec![3, 640],
                vec![5, 720],
                vec![9, 500],
            ],
        );
        (demographics, scores)
    }

    fn demo_tables() -> (Table, Table) {
        let (l, r) = demo_relations();
        (Table::from_rows(l), Table::from_rows(r))
    }

    #[test]
    fn hybrid_join_matches_cleartext_join() {
        let mut eng = engine();
        let (left_rel, right_rel) = demo_relations();
        let (left, right) = demo_tables();
        let outcome = hybrid_join(
            &mut eng,
            &RowExecutor::new(),
            &left,
            &right,
            &["ssn".to_string()],
            &["ssn".to_string()],
            1,
        )
        .unwrap();
        let expected = execute(
            &Operator::Join {
                left_keys: vec!["ssn".into()],
                right_keys: vec!["ssn".into()],
                kind: conclave_ir::ops::JoinKind::Inner,
            },
            &[&left_rel, &right_rel],
        )
        .unwrap();
        assert!(outcome.result.as_rows().same_rows_unordered(&expected));
        assert_eq!(outcome.result.column_names(), vec!["ssn", "zip", "score"]);
        assert_eq!(outcome.revealed_to, 1);
        assert_eq!(outcome.revealed_columns, vec!["ssn", "ssn"]);
        assert!(outcome.stp_time > Duration::ZERO);
        // The MPC side performed shuffles and oblivious selects but NO
        // quadratic equality scan.
        assert!(outcome.mpc_stats.counts.shuffled_elems > 0);
        assert!(outcome.mpc_stats.counts.mults > 0);
        assert_eq!(outcome.mpc_stats.counts.equalities, 0);
        // The exact charge, pinned: the figures consume these counts.
        let pinned = PrimitiveCounts {
            mults: 144,
            shuffled_elems: 32,
            input_elems: 28,
            opened_elems: 30,
            ..Default::default()
        };
        assert_eq!(outcome.mpc_stats.counts, pinned);
    }

    #[test]
    fn hybrid_join_is_cheaper_than_full_mpc_join_in_nonlinear_ops() {
        let mut eng = engine();
        let n = 60;
        let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i * 10]).collect();
        let left = Relation::from_ints(&["k", "a"], &rows);
        let right = Relation::from_ints(&["k", "b"], &rows);
        let hybrid = hybrid_join(
            &mut eng,
            &RowExecutor::new(),
            &Table::from_rows(left.clone()),
            &Table::from_rows(right.clone()),
            &["k".to_string()],
            &["k".to_string()],
            1,
        )
        .unwrap();
        let mut eng2 = engine();
        let (_, full) = eng2
            .execute_op(
                &Operator::Join {
                    left_keys: vec!["k".into()],
                    right_keys: vec!["k".into()],
                    kind: conclave_ir::ops::JoinKind::Inner,
                },
                &[&left, &right],
            )
            .unwrap();
        assert!(
            hybrid.mpc_stats.counts.nonlinear_ops() < full.counts.nonlinear_ops(),
            "hybrid {} vs full {}",
            hybrid.mpc_stats.counts.nonlinear_ops(),
            full.counts.nonlinear_ops()
        );
    }

    #[test]
    fn public_join_matches_cleartext_and_uses_no_mpc() {
        let (left_rel, right_rel) = demo_relations();
        let (left, right) = demo_tables();
        let outcome = public_join(
            &RowExecutor::new(),
            &left,
            &right,
            &["ssn".to_string()],
            &["ssn".to_string()],
            2,
        )
        .unwrap();
        let expected = execute(
            &Operator::Join {
                left_keys: vec!["ssn".into()],
                right_keys: vec!["ssn".into()],
                kind: conclave_ir::ops::JoinKind::Inner,
            },
            &[&left_rel, &right_rel],
        )
        .unwrap();
        assert!(outcome.result.as_rows().same_rows_unordered(&expected));
        assert_eq!(outcome.mpc_stats.counts.nonlinear_ops(), 0);
        assert_eq!(outcome.revealed_to, 2);
    }

    #[test]
    fn hybrid_aggregate_matches_cleartext_aggregation() {
        let mut eng = engine();
        let input_rel = Relation::from_ints(
            &["zip", "score"],
            &[
                vec![10, 700],
                vec![20, 650],
                vec![10, 640],
                vec![30, 720],
                vec![20, 500],
                vec![10, 100],
            ],
        );
        let input = Table::from_rows(input_rel.clone());
        // (mults, comparisons): MAX pays a comparison and a second mux per row pair.
        for (func, over, out, (mults, comparisons)) in [
            (AggFunc::Sum, Some("score"), "total", (5, 0)),
            (AggFunc::Count, None, "n", (5, 0)),
            (AggFunc::Max, Some("score"), "hi", (10, 5)),
        ] {
            let outcome = hybrid_aggregate(
                &mut eng,
                &RowExecutor::new(),
                &input,
                &["zip".to_string()],
                func,
                over,
                out,
                1,
            )
            .unwrap();
            let expected = execute(
                &Operator::Aggregate {
                    group_by: vec!["zip".into()],
                    func,
                    over: over.map(|s| s.to_string()),
                    out: out.to_string(),
                },
                &[&input_rel],
            )
            .unwrap();
            assert!(
                outcome.result.as_rows().same_rows_unordered(&expected),
                "{func} hybrid aggregation mismatch"
            );
            assert_eq!(outcome.revealed_columns, vec!["zip"]);
            // No oblivious sort: comparisons stay linear in n (no n·log²n blowup).
            assert!(outcome.mpc_stats.counts.comparisons <= input.num_rows() as u64);
            // The exact charge, pinned: the figures consume these counts.
            let pinned = PrimitiveCounts {
                mults,
                comparisons,
                equalities: 5,
                shuffled_elems: 30,
                input_elems: 12,
                opened_elems: 18,
                ..Default::default()
            };
            assert_eq!(outcome.mpc_stats.counts, pinned, "{func}");
        }
    }

    #[test]
    fn hybrid_protocols_agree_across_executors_and_stay_columnar() {
        let (left, right) = demo_tables();
        let keys = ["ssn".to_string()];
        let mut row_eng = engine();
        let row = hybrid_join(
            &mut row_eng,
            &*sequential_executor(EngineMode::Row),
            &left,
            &right,
            &keys,
            &keys,
            1,
        )
        .unwrap();
        // Column-backed inputs with a columnar STP executor: the share path
        // goes column-at-a-time and charges the same number of inputs.
        let (left_rel, right_rel) = demo_relations();
        let left_cols = Table::from_columns(ColumnarRelation::from_rows(&left_rel));
        let right_cols = Table::from_columns(ColumnarRelation::from_rows(&right_rel));
        let mut col_eng = engine();
        let col = hybrid_join(
            &mut col_eng,
            &*sequential_executor(EngineMode::Columnar),
            &left_cols,
            &right_cols,
            &keys,
            &keys,
            1,
        )
        .unwrap();
        assert!(row
            .result
            .as_rows()
            .same_rows_unordered(col.result.as_rows()));
        // Sharing the column-backed inputs forced no conversion on them.
        assert_eq!(left_cols.conversion_counts().total(), 0);
        assert_eq!(right_cols.conversion_counts().total(), 0);
        // Row-mode intermediates stay row-native; columnar mode converts the
        // two revealed key relations once each at the reveal boundary, and
        // nothing else (reported so the driver can fold it into RunReport).
        assert_eq!(row.conversions.total(), 0);
        assert_eq!(col.conversions.row_to_columnar, 2);
        assert_eq!(col.conversions.columnar_to_row, 0);
        // Column-at-a-time sharing charges the same number of input elements.
        assert_eq!(
            row.mpc_stats.counts.input_elems,
            col.mpc_stats.counts.input_elems
        );

        let pub_row = public_join(
            &*sequential_executor(EngineMode::Row),
            &left,
            &right,
            &keys,
            &keys,
            2,
        )
        .unwrap();
        let pub_col = public_join(
            &*sequential_executor(EngineMode::Columnar),
            &left_cols,
            &right_cols,
            &keys,
            &keys,
            2,
        )
        .unwrap();
        // The columnar helper's result is column-backed end to end (checked
        // before the comparison below forces row materialization).
        assert!(pub_col.result.has_columns() && !pub_col.result.has_rows());
        assert!(pub_row
            .result
            .as_rows()
            .same_rows_unordered(pub_col.result.as_rows()));

        let input = Relation::from_ints(
            &["zip", "score"],
            &[vec![10, 700], vec![20, 650], vec![10, 640]],
        );
        let mut agg_row_eng = engine();
        let agg_row = hybrid_aggregate(
            &mut agg_row_eng,
            &*sequential_executor(EngineMode::Row),
            &Table::from_rows(input.clone()),
            &["zip".to_string()],
            AggFunc::Sum,
            Some("score"),
            "total",
            1,
        )
        .unwrap();
        let mut agg_col_eng = engine();
        let agg_col = hybrid_aggregate(
            &mut agg_col_eng,
            &*sequential_executor(EngineMode::Columnar),
            &Table::from_columns(ColumnarRelation::from_rows(&input)),
            &["zip".to_string()],
            AggFunc::Sum,
            Some("score"),
            "total",
            1,
        )
        .unwrap();
        assert!(agg_row
            .result
            .as_rows()
            .same_rows_unordered(agg_col.result.as_rows()));
    }

    #[test]
    fn hybrid_aggregate_requires_a_group_by_column() {
        let mut eng = engine();
        let input = Table::from_rows(Relation::from_ints(&["v"], &[vec![1]]));
        assert!(hybrid_aggregate(
            &mut eng,
            &RowExecutor::new(),
            &input,
            &[],
            AggFunc::Sum,
            Some("v"),
            "t",
            1,
        )
        .is_err());
    }
}
