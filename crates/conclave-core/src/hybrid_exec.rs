//! Execution of the hybrid MPC–cleartext protocols (§5.3).
//!
//! These functions implement the three hybrid operators end to end, using the
//! in-process counting engine of `conclave-mpc` for the MPC steps (under every
//! party runtime) and a cleartext [`Executor`] for the selectively-trusted
//! party's local steps. The driver always hands them the sequential
//! vectorized engine ([`conclave_engine::ColumnarExecutor`]), whatever
//! `engine_mode` the local backend runs in: the STP works on columns.
//! All cleartext data moves as [`Table`]s. Every opening of a shared
//! relation — the revealed join and group-by keys and both results — yields
//! integer columns ([`SharedRelation::open`]), so the STP never boxes a value
//! per row; its intermediates stay in the executor's native representation,
//! and every table is secret-shared from its integer columns (a row-only
//! table converts once, and its clones share the conversion). A relation
//! the driver hands in — on a party mesh, the reveal of an MPC step arrives
//! as integer columns — is shared column at a time. Inside a protocol the
//! shares move: each shuffle takes its relation by value
//! ([`operators::shuffle`]), and the join's combine moves each left row and
//! appends the right row's non-key cells. The returned statistics separate
//! MPC time from STP cleartext time so the driver can account them like the
//! paper's deployment would (the STP works while the other parties wait).
//!
//! The trailing `PartyId` argument names the STP (or helper) at the call
//! site; the simulation runs the same either way. What that party sees is
//! recorded once, in the plan's leakage certificate, not in the outcome.

use conclave_engine::{ColumnarRelation, ConversionCounts, Executor, Table};
use conclave_ir::ops::{join_schema, AggFunc, Operator};
use conclave_ir::party::PartyId;
use conclave_ir::schema::Schema;
use conclave_mpc::backend::{MpcEngine, MpcError, MpcResult, MpcStepStats};
use conclave_mpc::oblivious;
use conclave_mpc::operators::{self, AggLane};
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
fn intermediate_conversions<'a>(tables: impl IntoIterator<Item = &'a Table>) -> ConversionCounts {
    let mut total = ConversionCounts::default();
    for t in tables {
        total.merge(&t.conversion_counts());
    }
    total
}

/// Reads the STP's sort order from the `__idx` column of its sorted
/// enumeration. The parties reorder their shares by it, so it must be a
/// permutation of `0..n`: a null, a repeated or out-of-range index or a
/// short column would duplicate or drop a row, and is refused.
fn stp_permutation(sorted: &Table, n: usize) -> MpcResult<Vec<usize>> {
    let bad = |why: &str| MpcError::Exec(format!("the STP's sort order {why}"));
    let cols = sorted.as_columns();
    let idx = cols
        .col_index("__idx")
        .ok_or_else(|| bad("has no `__idx` column"))?;
    let order = cols
        .column(idx)
        .as_ints()
        .ok_or_else(|| bad("has a null or non-integer index"))?;
    if order.len() != n {
        return Err(bad(&format!("has {} indexes for {n} rows", order.len())));
    }
    let mut seen = vec![false; n];
    order
        .iter()
        .map(|&i| match usize::try_from(i) {
            Ok(i) if i < n && !std::mem::replace(&mut seen[i], true) => Ok(i),
            _ => Err(bad(&format!("repeats or overruns index {i}"))),
        })
        .collect()
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
    _stp: PartyId,
) -> MpcResult<HybridOutcome> {
    engine.protocol().reset_counts();
    // 1. Share and obliviously shuffle both inputs (column-at-a-time when the
    // tables are column-backed).
    let left_shared = engine.share_table(left)?;
    let right_shared = engine.share_table(right)?;
    let left_shuffled = operators::shuffle(engine.protocol(), left_shared);
    let right_shuffled = operators::shuffle(engine.protocol(), right_shared);

    // 2. Project the key columns and reveal them to the STP.
    let left_keys_clear =
        Table::from_columns(left_shuffled.open_columns(left_keys, engine.protocol())?);
    let right_keys_clear =
        Table::from_columns(right_shuffled.open_columns(right_keys, engine.protocol())?);

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
    let rows = left_rows
        .rows
        .into_iter()
        .zip(&right_rows.rows)
        .map(|(mut row, rrow)| {
            row.reserve(rrow.len().saturating_sub(right_key_idx.len()));
            row.extend(
                rrow.iter()
                    .enumerate()
                    .filter(|(c, _)| !right_key_idx.contains(c))
                    .map(|(_, v)| *v),
            );
            row
        })
        .collect();
    let combined = SharedRelation { schema, rows };
    let shuffled_result = operators::shuffle(engine.protocol(), combined);
    let result = Table::from_columns(shuffled_result.open(engine.protocol()));
    let input_rows = (left.num_rows() + right.num_rows()) as u64;
    let mpc_stats = engine.drain_stats(input_rows, result.num_rows() as u64);
    let conversions = intermediate_conversions([
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
    _helper: PartyId,
) -> MpcResult<HybridOutcome> {
    let op = Operator::Join {
        left_keys: left_keys.to_vec(),
        right_keys: right_keys.to_vec(),
    };
    let result = run_clear(&op, &[left, right], helper_exec)?;
    let stp_time = helper_exec.estimate_tables(&op, &[left, right], result.num_rows() as u64);
    // No MPC runs here, so nothing is counted: the only cross-party traffic
    // is the key columns and the joined index relation, which the driver
    // prices from `MpcEngine::estimate_op`'s public-join arm.
    let mpc_stats = MpcStepStats {
        input_rows: (left.num_rows() + right.num_rows()) as u64,
        output_rows: result.num_rows() as u64,
        ..Default::default()
    };
    Ok(HybridOutcome {
        result,
        mpc_stats,
        stp_time,
        // The helper consumes the driver-tracked inputs directly; no
        // protocol-internal tables exist.
        conversions: ConversionCounts::default(),
    })
}

/// Executes the hybrid aggregation of §5.3 — [`hybrid_aggregate_lanes`]
/// with one lane.
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
    let lane = AggLane { func, over, out };
    hybrid_aggregate_lanes(engine, stp_exec, input, group_by, &[lane], stp)
}

/// Executes the hybrid aggregation of §5.3 for k sibling aggregations of one
/// input by the same keys: the columns the `lanes` read (the group-by keys
/// and every `over` column) are shared and obliviously shuffled, the
/// group-by columns are revealed to the STP, the STP sorts them in the clear
/// and returns the ordering, and the parties finish with one linear
/// oblivious accumulation scan of k lanes instead of an oblivious sort. The
/// result is the group-by columns followed by one column per lane
/// ([`split_lanes`] cuts it into one table per lane).
pub fn hybrid_aggregate_lanes(
    engine: &mut MpcEngine,
    stp_exec: &dyn Executor,
    input: &Table,
    group_by: &[String],
    lanes: &[AggLane],
    _stp: PartyId,
) -> MpcResult<HybridOutcome> {
    engine.protocol().reset_counts();
    if group_by.is_empty() {
        return Err(MpcError::Exec(
            "hybrid aggregation needs a group-by column".into(),
        ));
    }

    // 1. Share the columns the lanes read and obliviously shuffle them.
    let read = operators::lanes_read(group_by, lanes);
    let shared = SharedRelation::from_table_columns(input, &read, engine.protocol())
        .map_err(MpcError::Exec)?;
    let shuffled = operators::shuffle(engine.protocol(), shared);

    // 2. Reveal the (shuffled) group-by columns to the STP.
    let keys_clear = Table::from_columns(shuffled.open_columns(group_by, engine.protocol())?);

    // 3–4. STP: enumerate and sort by the keys in the clear, one stable sort
    // per key from the last to the first, so rows with equal key tuples end
    // up adjacent; the resulting index order is sent back to the parties (it
    // refers to shuffled positions, so it reveals nothing about the original
    // order).
    let mut stages = vec![run_clear(
        &Operator::Enumerate {
            out: "__idx".into(),
        },
        &[&keys_clear],
        stp_exec,
    )?];
    let mut stp_time = Duration::ZERO;
    for key in group_by.iter().rev() {
        let sort_op = Operator::SortBy {
            column: key.clone(),
            ascending: true,
        };
        let sorted = run_clear(&sort_op, &[&stages[stages.len() - 1]], stp_exec)?;
        stp_time += stp_exec.estimate_tables(&sort_op, &[input], input.num_rows() as u64);
        stages.push(sorted);
    }
    let order = stp_permutation(&stages[stages.len() - 1], shuffled.num_rows())?;

    // 5–6. The parties reorder the shuffled shared relation by the public
    // ordering, grouping equal keys together.
    let reordered = shuffled.permute(&order);

    // 7–8. One linear oblivious accumulation of every lane over the
    // key-grouped relation, followed by a shuffle-and-reveal of the
    // group-end flags (performed inside `aggregate_sorted_lanes`). The
    // oblivious equality tests stand in for the STP-provided equality flags;
    // their cost is a small constant factor of the linear scan either way.
    let aggregated =
        oblivious::aggregate_sorted_lanes(&reordered, group_by, lanes, engine.protocol())?;
    let result = Table::from_columns(aggregated.open(engine.protocol()));
    let mpc_stats = engine.drain_stats(input.num_rows() as u64, result.num_rows() as u64);
    let conversions = intermediate_conversions(std::iter::once(&keys_clear).chain(&stages));

    Ok(HybridOutcome {
        result,
        mpc_stats,
        stp_time,
        conversions,
    })
}

/// Cuts the result of a k-output aggregation — `keys` group-by columns, then
/// one column per lane — into one table per lane: the group-by columns and
/// that lane's column, as the lane's aggregation would have returned alone.
/// Lanes are cut by position, so two lanes may share an output name.
pub fn split_lanes(result: &Table, keys: usize) -> Vec<Table> {
    let rel = result.as_columns();
    if rel.num_cols() == keys + 1 {
        return vec![result.clone()];
    }
    (keys..rel.num_cols())
        .map(|lane| {
            let picked = (0..keys).chain([lane]);
            let schema = Schema::new(
                picked
                    .clone()
                    .map(|c| rel.schema.columns[c].clone())
                    .collect(),
            );
            let columns = picked.map(|c| rel.column(c).clone()).collect();
            let table = ColumnarRelation::new(schema, columns)
                .expect("the lane's columns have the result's rows");
            Table::from_columns(table)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DealerMode, PartyRuntime};
    use crate::party_exec::{PartyMeshRuntime, StepInput};
    use conclave_engine::{
        execute, sequential_executor, Column, ColumnarExecutor, ColumnarRelation, EngineError,
        EngineMode, Relation,
    };
    use conclave_ir::schema::Schema;
    use conclave_ir::types::Value;
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
            &ColumnarExecutor::new(),
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
            },
            &[&left_rel, &right_rel],
        )
        .unwrap();
        assert!(outcome.result.as_rows().same_rows_unordered(&expected));
        assert_eq!(outcome.result.column_names(), vec!["ssn", "zip", "score"]);
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
            &ColumnarExecutor::new(),
            &Table::from_rows(left.clone()),
            &Table::from_rows(right.clone()),
            &["k".to_string()],
            &["k".to_string()],
            1,
        )
        .unwrap();
        // The full MPC join: one step on the in-process runtime.
        let mut rt =
            PartyMeshRuntime::with_dealer(3, 1, PartyRuntime::Simulated, &DealerMode::Seeded)
                .unwrap();
        let join = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
        };
        let inputs = vec![
            StepInput::Table(left.into()),
            StepInput::Table(right.into()),
        ];
        rt.enqueue(&join, inputs, false, true).unwrap();
        let full = rt.finish().unwrap().steps[0].counts;
        assert!(
            hybrid.mpc_stats.counts.nonlinear_ops() < full.nonlinear_ops(),
            "hybrid {} vs full {}",
            hybrid.mpc_stats.counts.nonlinear_ops(),
            full.nonlinear_ops()
        );
    }

    #[test]
    fn public_join_matches_cleartext_and_uses_no_mpc() {
        let (left_rel, right_rel) = demo_relations();
        let (left, right) = demo_tables();
        let outcome = public_join(
            &ColumnarExecutor::new(),
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
            },
            &[&left_rel, &right_rel],
        )
        .unwrap();
        assert!(outcome.result.as_rows().same_rows_unordered(&expected));
        assert_eq!(outcome.mpc_stats.counts.nonlinear_ops(), 0);
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
        // (mults, comparisons, input_elems, shuffled_elems): MAX pays a
        // comparison and a second mux per row pair; COUNT reads, shares and
        // shuffles the key column alone.
        for (func, over, out, (mults, comparisons, input_elems, shuffled_elems)) in [
            (AggFunc::Sum, Some("score"), "total", (5, 0, 12, 30)),
            (AggFunc::Count, None, "n", (5, 0, 6, 24)),
            (AggFunc::Max, Some("score"), "hi", (10, 5, 12, 30)),
        ] {
            let outcome = hybrid_aggregate(
                &mut eng,
                &ColumnarExecutor::new(),
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
            // No oblivious sort: comparisons stay linear in n (no n·log²n blowup).
            assert!(outcome.mpc_stats.counts.comparisons <= input.num_rows() as u64);
            // The exact charge, pinned: the figures consume these counts.
            let pinned = PrimitiveCounts {
                mults,
                comparisons,
                equalities: 5,
                shuffled_elems,
                input_elems,
                opened_elems: 18,
                ..Default::default()
            };
            assert_eq!(outcome.mpc_stats.counts, pinned, "{func}");
        }
    }

    /// Sibling aggregations of one input by one key, as one k-output call:
    /// every lane equals its own single call, and the call shares the
    /// columns the lanes read once, shuffles, reveals the keys and scans
    /// once — counts the price list gives before the result's open.
    #[test]
    fn k_output_hybrid_aggregation_equals_k_single_calls() {
        let rows: Vec<Vec<i64>> = (0..12)
            .map(|i| vec![100 + i, 10 * (i % 3 + 1), (i * 37) % 50 - 20, i % 4])
            .collect();
        let input = Table::from_rows(Relation::from_ints(
            &["ssn", "zip", "score", "unread"],
            &rows,
        ));
        let group_by = vec!["zip".to_string()];
        let lane = |func, over, out| AggLane { func, over, out };
        let lanes = [
            lane(AggFunc::Count, None, "n"),
            lane(AggFunc::Sum, Some("score"), "total"),
            lane(AggFunc::Min, Some("score"), "lo"),
            // Lanes are positional: a repeated output name is cut apart.
            lane(AggFunc::Max, Some("ssn"), "total"),
        ];
        let fused = hybrid_aggregate_lanes(
            &mut engine(),
            &ColumnarExecutor::new(),
            &input,
            &group_by,
            &lanes,
            1,
        )
        .unwrap();
        let tables = split_lanes(&fused.result, group_by.len());
        assert_eq!(tables.len(), lanes.len());
        for (lane, table) in lanes.iter().zip(&tables) {
            let single = hybrid_aggregate(
                &mut engine(),
                &ColumnarExecutor::new(),
                &input,
                &group_by,
                lane.func,
                lane.over,
                lane.out,
                1,
            )
            .unwrap();
            assert_eq!(table.schema(), single.result.schema(), "{}", lane.func);
            assert!(
                table.as_rows().same_rows_unordered(single.result.as_rows()),
                "{} lane",
                lane.func
            );
        }
        // 12 rows in 3 zips; `zip`, `score` and `ssn` read, `unread` not.
        let pinned = PrimitiveCounts {
            input_elems: 12 * 3,
            // The read columns, then the candidates: key, 4 lanes, flag.
            shuffled_elems: 12 * 3 + 12 * 6,
            // The keys and the flags, then 3 groups × (key + 4 lanes).
            opened_elems: 12 + 12 + 3 * 5,
            // One equality batch over the 11 adjacent pairs.
            equalities: 11,
            // Per pair: 4 carries and the MIN/MAX lanes' selections.
            mults: 11 * 6,
            comparisons: 11 * 2,
            ..Default::default()
        };
        assert_eq!(fused.mpc_stats.counts, pinned);
        let priced = engine().estimate_hybrid_aggregate(&group_by, &lanes, 12, 3);
        assert_eq!(
            priced.counts,
            PrimitiveCounts {
                opened_elems: pinned.opened_elems - 3 * 5,
                ..pinned
            }
        );
    }

    /// The price list is what the hybrids run: `estimate_op`'s `HybridJoin`
    /// arm and the k-lane `estimate_hybrid_aggregate` equal the executed
    /// counts field by field, but for the result's open, which is priced
    /// where it crosses the frontier.
    #[test]
    fn hybrid_estimates_equal_executed_counts() {
        let table = |rows: i64, cols: &[&str]| {
            let data: Vec<Vec<i64>> = (0..rows)
                .map(|i| {
                    (0..cols.len() as i64)
                        .map(|c| (i * (c + 3)) % (c + 2))
                        .collect()
                })
                .collect();
            Table::from_rows(Relation::from_ints(cols, &data))
        };
        let without_result = |ran: PrimitiveCounts, result: &Table| PrimitiveCounts {
            opened_elems: ran.opened_elems - (result.num_rows() * result.schema().len()) as u64,
            ..ran
        };
        let keys = ["k".to_string(), "j".to_string()];
        for (l, r) in [(0, 3), (1, 1), (5, 5), (12, 7), (40, 9)] {
            let (left, right) = (table(l, &["k", "j", "a"]), table(r, &["k", "j", "b", "c"]));
            for width in 1..=2 {
                let keys = &keys[..width];
                let ran = hybrid_join(
                    &mut engine(),
                    &ColumnarExecutor::new(),
                    &left,
                    &right,
                    keys,
                    keys,
                    1,
                )
                .unwrap();
                let op = Operator::HybridJoin {
                    left_keys: keys.to_vec(),
                    right_keys: keys.to_vec(),
                    stp: 1,
                };
                let out = ran.result.num_rows() as u64;
                let priced = engine()
                    .estimate_op(&op, &[l as u64, r as u64], &[3, 4], out)
                    .unwrap();
                assert_eq!(
                    priced.counts,
                    without_result(ran.mpc_stats.counts, &ran.result),
                    "{l} × {r} rows on {width} keys"
                );
            }
        }
        let lane = |func, over| AggLane {
            func,
            over,
            out: "x",
        };
        let lane_sets = [
            vec![lane(AggFunc::Sum, Some("v"))],
            vec![lane(AggFunc::Count, None)],
            vec![lane(AggFunc::Min, Some("v")), lane(AggFunc::Max, Some("w"))],
            vec![
                lane(AggFunc::Count, None),
                lane(AggFunc::Sum, Some("w")),
                lane(AggFunc::Max, Some("v")),
                lane(AggFunc::Min, Some("k")),
            ],
        ];
        for rows in [0, 1, 2, 7, 40] {
            let input = table(rows, &["k", "j", "v", "w"]);
            for width in 1..=2 {
                let group_by = &keys[..width];
                for lanes in &lane_sets {
                    let ran = hybrid_aggregate_lanes(
                        &mut engine(),
                        &ColumnarExecutor::new(),
                        &input,
                        group_by,
                        lanes,
                        1,
                    )
                    .unwrap();
                    let out = ran.result.num_rows() as u64;
                    let priced =
                        engine().estimate_hybrid_aggregate(group_by, lanes, rows as u64, out);
                    assert_eq!(
                        priced.counts,
                        without_result(ran.mpc_stats.counts, &ran.result),
                        "{rows} rows on {width} keys, {} lanes",
                        lanes.len()
                    );
                }
            }
        }
    }

    #[test]
    fn hybrid_aggregate_groups_by_every_key() {
        let rows: Vec<Vec<i64>> = (0..12).map(|i| vec![i % 3, (i * 7) % 2, i]).collect();
        let input_rel = Relation::from_ints(&["k1", "k2", "v"], &rows);
        let group_by = vec!["k1".to_string(), "k2".to_string()];
        let expected = execute(
            &Operator::Aggregate {
                group_by: group_by.clone(),
                func: AggFunc::Sum,
                over: Some("v".into()),
                out: "s".into(),
            },
            &[&input_rel],
        )
        .unwrap();
        for seed in 0..8 {
            let mut eng = MpcEngine::new(MpcBackendConfig {
                seed,
                ..MpcBackendConfig::sharemind()
            });
            let outcome = hybrid_aggregate(
                &mut eng,
                &ColumnarExecutor::new(),
                &Table::from_rows(input_rel.clone()),
                &group_by,
                AggFunc::Sum,
                Some("v"),
                "s",
                1,
            )
            .unwrap();
            assert!(
                outcome.result.as_rows().same_rows_unordered(&expected),
                "seed {seed}"
            );
            // Both keys and the group-end flags are opened, then the result.
            assert_eq!(
                outcome.mpc_stats.counts.opened_elems,
                3 * 12 + 3 * expected.num_rows() as u64
            );
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
        // The result opens into columns (checked before the comparison below
        // forces row materialization).
        assert!(col.result.has_columns() && !col.result.has_rows());
        assert!(row
            .result
            .as_rows()
            .same_rows_unordered(col.result.as_rows()));
        // Sharing the column-backed inputs forced no conversion on them.
        assert_eq!(left_cols.conversion_counts().total(), 0);
        assert_eq!(right_cols.conversion_counts().total(), 0);
        // The revealed keys open as integer columns, so the columnar STP runs
        // the whole protocol without a conversion; a row executor converts
        // the two key relations to rows once each, and the two index
        // relations it hands back to columns once each (every table is shared
        // from its columns), and nothing else (reported so the driver can
        // fold it into RunReport).
        assert_eq!(col.conversions.total(), 0);
        assert_eq!(row.conversions.columnar_to_row, 2);
        assert_eq!(row.conversions.row_to_columnar, 2);
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
            &ColumnarExecutor::new(),
            &input,
            &[],
            AggFunc::Sum,
            Some("v"),
            "t",
            1,
        )
        .is_err());
    }

    /// An STP that enumerates honestly but answers every sort with a fixed
    /// `__idx` column.
    struct LyingStp(Column);

    impl Executor for LyingStp {
        fn execute(&self, op: &Operator, inputs: &[&Table]) -> Result<Table, EngineError> {
            match op {
                Operator::SortBy { .. } => {
                    let rel =
                        ColumnarRelation::new(Schema::ints(&["__idx"]), vec![self.0.clone()])?;
                    Ok(Table::from_columns(rel))
                }
                _ => ColumnarExecutor::new().execute(op, inputs),
            }
        }

        fn estimate(&self, op: &Operator, input_rows: u64, output_rows: u64, _: u64) -> Duration {
            ColumnarExecutor::new().estimate(op, input_rows, output_rows, 0)
        }

        fn name(&self) -> &'static str {
            "lying-stp"
        }
    }

    #[test]
    fn hybrid_aggregate_refuses_an_order_that_is_not_a_permutation() {
        let input = Table::from_rows(Relation::from_ints(
            &["k", "v"],
            &[vec![1, 10], vec![2, 20], vec![1, 30], vec![3, 40]],
        ));
        let run = |order: Column| {
            hybrid_aggregate(
                &mut engine(),
                &LyingStp(order),
                &input,
                &["k".to_string()],
                AggFunc::Sum,
                Some("v"),
                "s",
                1,
            )
        };
        // The stub itself is sound: an honest permutation aggregates.
        assert!(run(Column::ints(vec![3, 1, 0, 2])).is_ok());
        for (what, order) in [
            ("a repeated index", Column::ints(vec![0, 1, 1, 3])),
            ("an out-of-range index", Column::ints(vec![0, 1, 2, 4])),
            ("a negative index", Column::ints(vec![0, -1, 2, 3])),
            (
                "a null",
                Column::from_values(vec![
                    Value::Int(0),
                    Value::Null,
                    Value::Int(2),
                    Value::Int(3),
                ]),
            ),
            ("a short column", Column::ints(vec![0, 1, 2])),
        ] {
            assert!(
                matches!(run(order), Err(MpcError::Exec(_))),
                "{what} must be refused"
            );
        }
    }
}
