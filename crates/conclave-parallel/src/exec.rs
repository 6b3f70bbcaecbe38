//! Parallel execution of relational operators and stages.
//!
//! [`ParallelEngine`] runs the way a Spark job runs its stages: as *task
//! waves* on the vectorized engine. Its [`Executor`] is the one statement of
//! the policy, over [`Table`]s:
//!
//! * A stage — a chain of narrow operators (`Filter`, `Project`, `Multiply`,
//!   `Divide`) ending in at most one `Aggregate` or `Distinct`
//!   ([`Executor::execute_stage`]) — runs as one task per range of the
//!   input's rows ([`crate::partition::row_ranges`], one per partition).
//!   Each task runs the fused stage ([`Pipeline`]) over a borrowed window of
//!   the input's columns, so no range is copied and only the stage's output
//!   is materialized. A lone narrow operator, aggregate or distinct is a
//!   stage of one.
//! * A stage's tail combines before it shuffles: grouped and scalar
//!   `Aggregate` and `Distinct` compute a partial per range and one final
//!   pass folds the partials (the final of `COUNT` is `SUM`; `SUM`, `MIN`,
//!   `MAX` and `Distinct` are their own finals) — the paper's aggregation
//!   split applied inside the engine. No row is hashed into a bucket, and the
//!   output order is the sequential engine's whatever the partition count.
//!   So are the values of integer aggregates, which are exact; a float `SUM`
//!   is re-associated (per-range partial sums, then one sum of those), so it
//!   may differ from the sequential engine's in the last bits.
//! * Only `Join` moves rows: it co-partitions both sides by key hash.
//! * Everything else runs on the collected data.
//!
//! A join task runs the sequential vectorized engine on one bucket of each
//! side, and the task outputs are concatenated column by column. An input
//! bound as rows is converted once, on first use, and the conversion is
//! cached in the [`Table`] its clones share; every output is columnar only,
//! so chained stages never convert.
//!
//! A wave is as wide as the *host's* available parallelism, not the simulated
//! cluster's core count; [`ClusterSpec`] sizes the partitions and the modeled
//! time (see `run_per_partition` for the measurement behind that). The
//! simulated duration of a step comes from the
//! [`crate::cost::ClusterCostModel`], so experiment harnesses see
//! cluster-like timing regardless of the host machine.

use crate::cluster::ClusterSpec;
use crate::cost::ClusterCostModel;
use crate::partition::{row_ranges, shuffle_columns};
use conclave_engine::{
    execute_columnar, key_indices, one_at_a_time, ColumnarExecutor, ColumnarRelation, EngineError,
    EngineResult, Executor, Pipeline, StageOutput, StagePart, StageRole, StepShape, Table,
};
use conclave_ir::ops::{AggFunc, Operator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A party's data-parallel execution engine.
#[derive(Debug, Clone)]
pub struct ParallelEngine {
    cluster: ClusterSpec,
    cost: ClusterCostModel,
}

impl ParallelEngine {
    /// Creates an engine for the given cluster.
    pub fn new(cluster: ClusterSpec) -> Self {
        ParallelEngine {
            cluster,
            cost: ClusterCostModel::default(),
        }
    }

    /// The engine's cluster description.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }
}

/// `op` on whole tables, in the sequential vectorized engine.
fn whole(op: &Operator, inputs: &[&Table]) -> EngineResult<Table> {
    ColumnarExecutor::new().execute(op, inputs)
}

/// The task outputs as one table, in task order, every column copied once.
fn concat(mut parts: Vec<ColumnarRelation>) -> EngineResult<Table> {
    // Every part has the operator's output schema, but an empty part need
    // not have a full one's column types: only the full parts are joined up,
    // or, if there is none, one empty part stands for all.
    if parts.iter().all(ColumnarRelation::is_empty) {
        parts.truncate(1);
    } else {
        parts.retain(|part| !part.is_empty());
    }
    ColumnarRelation::concat(&parts).map(Table::from_columns)
}

fn shape(table: &Table) -> StepShape {
    StepShape {
        rows: table.num_rows(),
        schema: table.schema().clone(),
    }
}

impl Executor for ParallelEngine {
    /// Executes one operator as task waves on columns: the output is
    /// columnar only, so chained stages never convert between layouts.
    fn execute(&self, op: &Operator, inputs: &[&Table]) -> Result<Table, EngineError> {
        match op {
            // Joins: co-partition both sides by the join key.
            Operator::Join {
                left_keys,
                right_keys,
                ..
            } => {
                let [left, right] = inputs else {
                    return arity_error(op, "2", inputs.len());
                };
                let left_cols = key_indices(left.schema(), left_keys)?;
                let right_cols = key_indices(right.schema(), right_keys)?;
                let buckets = self.cluster.default_partitions();
                let pairs: Vec<(ColumnarRelation, ColumnarRelation)> =
                    shuffle_columns(left.as_columns(), &left_cols, buckets)
                        .into_iter()
                        .zip(shuffle_columns(right.as_columns(), &right_cols, buckets))
                        .collect();
                concat(run_per_partition(&pairs, |(l, r)| {
                    execute_columnar(op, &[l, r])
                })?)
            }
            // Narrow operators, and the tails that split into partials: a
            // stage of one.
            _ if StageRole::of(op) == Some(StageRole::Narrow) || final_pass(op).is_some() => {
                let [input] = inputs else {
                    return arity_error(op, "1", inputs.len());
                };
                Ok(self.execute_stage(&[op], input)?.output)
            }
            // Everything else is executed on the collected data (sorts,
            // limits, scalar steps, compiler-inserted physical operators, a
            // tail that does not split); these are either cheap or already
            // tiny after local reduction.
            _ => whole(op, inputs),
        }
    }

    /// Runs a stage as one task wave: every range of the input's rows, one
    /// per partition, goes through the fused stage on a borrowed window, and
    /// a tail's partials are folded by one final pass.
    fn execute_stage(&self, ops: &[&Operator], input: &Table) -> EngineResult<StageOutput> {
        // A tail that does not split into partials runs once, on the
        // collected output of the narrow steps before it.
        let (ranged, collected) = match ops.split_last() {
            Some((&tail, narrow))
                if StageRole::of(tail) == Some(StageRole::Tail) && final_pass(tail).is_none() =>
            {
                (narrow, Some(tail))
            }
            _ => (ops, None),
        };
        let ranges = row_ranges(input.num_rows(), self.cluster.default_partitions());
        let pipeline = match Pipeline::new(ranged, input.schema()) {
            // No rows, no tasks: what the stage makes of nothing (a schema,
            // a scalar aggregate's identity row) is the sequential engine's.
            Some(_) if ranges.is_empty() => {
                return ColumnarExecutor::new().execute_stage(ops, input)
            }
            Some(pipeline) => pipeline,
            None => return one_at_a_time(self, ops, input),
        };
        let columns = input.as_columns();
        let mut parts = run_per_partition(&ranges, |r| pipeline.run(columns, r.clone()))?;
        pipeline.check()?;
        let mut rows = vec![0; parts.first().map_or(0, |part| part.rows.len())];
        for part in &parts {
            for (total, n) in rows.iter_mut().zip(&part.rows) {
                *total += n;
            }
        }
        let mut steps = pipeline.shapes(&rows);
        let fin = ranged.last().and_then(|&tail| final_pass(tail));
        if fin.is_some() {
            // Fold only the partials of ranges some row reached the tail in
            // (a scalar MIN's NULL from an emptied range would win the final
            // pass), or, if none did, one identity partial.
            let reached = |part: &StagePart| part.rows[part.rows.len() - 2] > 0;
            if parts.iter().any(reached) {
                parts.retain(reached);
            } else {
                parts.truncate(1);
            }
        }
        let mut output = concat(parts.into_iter().map(|part| part.output).collect())?;
        if let Some(fin) = fin {
            output = whole(&fin, &[&output])?;
            *steps.last_mut().expect("a tail has a shape") = shape(&output);
        }
        if let Some(tail) = collected {
            output = whole(tail, &[&output])?;
            steps.push(shape(&output));
        }
        Ok(StageOutput { output, steps })
    }

    fn estimate(
        &self,
        op: &Operator,
        input_rows: u64,
        output_rows: u64,
        row_bytes: u64,
    ) -> Duration {
        self.cost
            .estimate(&self.cluster, op, input_rows, output_rows, row_bytes)
    }

    fn name(&self) -> &'static str {
        "parallel"
    }
}

/// The operator that folds the per-range partial results of `op` into its
/// result, for the operators that split that way — the paper's aggregation
/// split (local pre-aggregation, then a combining aggregation) applied inside
/// the engine. Partials arrive in range order and grouping is first-seen
/// ordered, so the final pass emits rows in the sequential engine's order.
fn final_pass(op: &Operator) -> Option<Operator> {
    match op {
        // The final pass finds the partials' `out` column by name, so a
        // group-by column must not shadow it.
        Operator::Aggregate {
            group_by,
            func,
            out,
            ..
        } if !group_by.contains(out) => Some(Operator::Aggregate {
            group_by: group_by.clone(),
            func: match func {
                AggFunc::Count => AggFunc::Sum,
                own_final => *own_final,
            },
            over: Some(out.clone()),
            out: out.clone(),
        }),
        Operator::Distinct { .. } => Some(op.clone()),
        _ => None,
    }
}

fn arity_error<T>(op: &Operator, expected: &str, got: usize) -> EngineResult<T> {
    Err(EngineError::Arity {
        op: op.name().into(),
        expected: expected.into(),
        got,
    })
}

/// Runs `f` over every item as one task wave and returns the results in item
/// order, or the error of the first item that failed.
///
/// The wave is as wide as the *host* allows: `min(items, available
/// parallelism)` scoped workers pull item indices from a shared counter, and
/// a wave of width one runs inline on the caller. [`ClusterSpec`] decides how
/// many items there are and what the stage is modeled to cost, not how many
/// threads run it: a thread per partition on a host with fewer cores buys no
/// speed, and rows allocated on many threads sit in as many allocator arenas,
/// each of which keeps its high-water mark after the wave (measured on
/// `market_pushdown` with row tasks, pinned to one core: 265 MB peak RSS at
/// 272–297 ms per query with a host-sized wave, 518–543 MB at 299–315 ms
/// with a thread per partition).
fn run_per_partition<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> EngineResult<R> + Sync,
) -> EngineResult<Vec<R>> {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_wave(items, items.len().min(host), f)
}

/// [`run_per_partition`] with the wave's width given.
fn run_wave<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> EngineResult<R> + Sync,
) -> EngineResult<Vec<R>> {
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    // The counter hands out work and publishes nothing else (results come
    // back through `join`), so `Relaxed` is enough.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, EngineResult<R>)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|_| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("partition task panicked"))
            .collect()
    })
    .expect("thread scope failed");
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_engine::{execute, Relation};
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::Operand;
    use conclave_ir::types::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine() -> ParallelEngine {
        ParallelEngine::new(ClusterSpec::paper_party_cluster())
    }

    /// `op` through the engine's [`Executor`], rows in and rows out.
    fn run(op: &Operator, inputs: &[&Relation]) -> EngineResult<Relation> {
        let tables: Vec<Table> = inputs.iter().map(|&r| r.clone().into()).collect();
        let refs: Vec<&Table> = tables.iter().collect();
        let out = engine().execute(op, &refs)?;
        Ok(out.into_rows())
    }

    fn random_sales(n: usize, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        Relation::from_ints(
            &["companyID", "price"],
            &(0..n)
                .map(|_| vec![rng.gen_range(0..50), rng.gen_range(0..1000)])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn narrow_ops_match_sequential_execution() {
        let rel = random_sales(5_000, 1);
        for op in [
            Operator::Project {
                columns: vec!["price".into()],
            },
            Operator::Filter {
                predicate: Expr::col("price").gt(Expr::lit(500)),
            },
            Operator::Multiply {
                out: "x".into(),
                operands: vec![Operand::col("price"), Operand::lit(3)],
            },
            Operator::Divide {
                out: "r".into(),
                num: Operand::col("price"),
                den: Operand::lit(10),
            },
        ] {
            let parallel = run(&op, &[&rel]).unwrap();
            let sequential = execute(&op, &[&rel]).unwrap();
            assert_eq!(parallel, sequential, "{op} mismatch");
        }
    }

    #[test]
    fn grouped_aggregation_matches_sequential() {
        let rel = random_sales(10_000, 2);
        for op in [
            Operator::Aggregate {
                group_by: vec!["companyID".into()],
                func: AggFunc::Sum,
                over: Some("price".into()),
                out: "rev".into(),
            },
            Operator::Aggregate {
                group_by: vec![],
                func: AggFunc::Max,
                over: Some("price".into()),
                out: "hi".into(),
            },
        ] {
            // Partials combine in range order and grouping is first-seen
            // ordered: the groups come out in the sequential engine's order.
            assert_eq!(run(&op, &[&rel]).unwrap(), execute(&op, &[&rel]).unwrap());
        }
    }

    #[test]
    fn count_of_partials_is_summed() {
        assert_eq!(engine().cluster().default_partitions(), 12);
        let rel = random_sales(100, 8);
        let agg = |group_by: &[&str], func, over: Option<&str>| Operator::Aggregate {
            group_by: group_by.iter().map(|c| c.to_string()).collect(),
            func,
            over: over.map(str::to_string),
            out: "n".into(),
        };
        let scalar = agg(&[], AggFunc::Count, None);
        let out = run(&scalar, &[&rel]).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(100)]]);
        assert_eq!(out, execute(&scalar, &[&rel]).unwrap());
        let grouped = agg(&["companyID"], AggFunc::Count, None);
        let out = run(&grouped, &[&rel]).unwrap();
        assert_eq!(out, execute(&grouped, &[&rel]).unwrap());
        let total: i64 = out.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, 100);
        // No rows, no ranges, no partials: still the one identity row.
        let none = Relation::from_ints(&["companyID", "price"], &[]);
        for op in [scalar, agg(&[], AggFunc::Sum, Some("price"))] {
            let out = run(&op, &[&none]).unwrap();
            assert_eq!(out.rows, vec![vec![Value::Int(0)]], "{op}");
        }
        // Fewer rows than partitions: MIN sees no empty range's NULL.
        let few = random_sales(5, 9);
        let min = agg(&[], AggFunc::Min, Some("price"));
        assert_eq!(run(&min, &[&few]).unwrap(), execute(&min, &[&few]).unwrap());
    }

    /// Integer aggregates are exact. A float `SUM` is re-associated — a
    /// partial per range, then one sum of the partials — so it may leave the
    /// sequential engine's result in the last bits, by at most `n·ε·Σ|x|`.
    #[test]
    fn integer_sums_are_exact_and_float_sums_are_reassociated() {
        use conclave_ir::schema::{ColumnDef, Schema};
        use conclave_ir::types::DataType;
        let n = 1_000;
        let rel = Relation {
            schema: Schema::new(vec![
                ColumnDef::new("i", DataType::Int),
                ColumnDef::new("x", DataType::Float),
            ]),
            // Integers past 2^53, where a float sum would round.
            rows: (0..n)
                .map(|i| {
                    vec![
                        Value::Int((1 << 53) + i),
                        Value::Float(1.0 / (i as f64 + 3.0)),
                    ]
                })
                .collect(),
        };
        let sum = |over: &str| Operator::Aggregate {
            group_by: vec![],
            func: AggFunc::Sum,
            over: Some(over.into()),
            out: "s".into(),
        };
        assert_eq!(engine().cluster().default_partitions(), 12);
        assert_eq!(
            run(&sum("i"), &[&rel]).unwrap(),
            execute(&sum("i"), &[&rel]).unwrap()
        );
        let total = |r: Relation| r.rows[0][0].as_float().unwrap();
        let parallel = total(run(&sum("x"), &[&rel]).unwrap());
        let sequential = total(execute(&sum("x"), &[&rel]).unwrap());
        let magnitude: f64 = (0..n).map(|i| 1.0 / (i as f64 + 3.0)).sum();
        let bound = n as f64 * f64::EPSILON * magnitude;
        assert!(
            (parallel - sequential).abs() <= bound,
            "{parallel} vs {sequential}"
        );
    }

    #[test]
    fn an_output_column_shadowed_by_a_group_key_is_not_split() {
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "companyID".into(),
        };
        assert!(final_pass(&op).is_none());
        let rel = random_sales(200, 10);
        let out = run(&op, &[&rel]).unwrap();
        assert_eq!(out, execute(&op, &[&rel]).unwrap());
    }

    #[test]
    fn a_wave_returns_results_in_item_order_and_the_first_error() {
        let items: Vec<usize> = (0..40).collect();
        for workers in [1, 3, 64] {
            let squares = run_wave(&items, workers, |&i| Ok(i * i)).unwrap();
            assert_eq!(squares, items.iter().map(|i| i * i).collect::<Vec<_>>());
            let failed = run_wave(&items, workers, |&i| match i {
                7 | 23 => Err(EngineError::Eval(format!("item {i}"))),
                _ => Ok(i),
            });
            assert_eq!(failed, Err(EngineError::Eval("item 7".into())), "{workers}");
        }
        assert_eq!(run_per_partition(&items, |&i| Ok(i)).unwrap(), items);
        let none: Vec<usize> = run_per_partition(&[], |&i: &usize| Ok(i)).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn scalar_aggregation_and_sort_fall_back_correctly() {
        let rel = random_sales(1_000, 3);
        let sum = Operator::Aggregate {
            group_by: vec![],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "total".into(),
        };
        let out = run(&sum, &[&rel]).unwrap();
        assert_eq!(out.rows, execute(&sum, &[&rel]).unwrap().rows);

        let sort = Operator::SortBy {
            column: "price".into(),
            ascending: true,
        };
        let out = run(&sort, &[&rel]).unwrap();
        assert!(out.is_sorted_by("price", true));
        assert_eq!(out, execute(&sort, &[&rel]).unwrap());
    }

    #[test]
    fn distinct_matches_sequential() {
        let rel = random_sales(3_000, 4);
        let op = Operator::Distinct {
            columns: vec!["companyID".into()],
        };
        let parallel = run(&op, &[&rel]).unwrap();
        assert_eq!(parallel, execute(&op, &[&rel]).unwrap());
    }

    #[test]
    fn parallel_join_matches_sequential() {
        let left = random_sales(2_000, 5);
        let mut right = random_sales(2_000, 6);
        right.schema = conclave_ir::schema::Schema::ints(&["companyID", "weight"]);
        let op = Operator::Join {
            left_keys: vec!["companyID".into()],
            right_keys: vec!["companyID".into()],
        };
        let parallel = run(&op, &[&left, &right]).unwrap();
        let sequential = execute(&op, &[&left, &right]).unwrap();
        assert!(parallel.same_rows_unordered(&sequential));
        assert_eq!(parallel.schema.names(), sequential.schema.names());
    }

    #[test]
    fn join_arity_and_unknown_columns_error() {
        let rel = random_sales(10, 7);
        let op = Operator::Join {
            left_keys: vec!["companyID".into()],
            right_keys: vec!["companyID".into()],
        };
        assert!(run(&op, &[&rel]).is_err());
        let bad = Operator::Aggregate {
            group_by: vec!["zzz".into()],
            func: AggFunc::Count,
            over: None,
            out: "n".into(),
        };
        assert!(run(&bad, &[&rel]).is_err());
    }

    #[test]
    fn empty_input_produces_empty_output_with_right_schema() {
        let rel = Relation::from_ints(&["companyID", "price"], &[]);
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let out = run(&op, &[&rel]).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema.names(), vec!["companyID", "rev"]);
    }

    #[test]
    fn outputs_are_columnar_and_inputs_convert_once() {
        let exec = engine();
        assert_eq!(Executor::name(&exec), "parallel");
        let rel = random_sales(3_000, 21);
        let mut right = random_sales(500, 22);
        right.schema = conclave_ir::schema::Schema::ints(&["companyID", "weight"]);
        let aggregate = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        // One operator per arm of the policy: narrow, combining (twice),
        // co-partitioned, collected.
        let ops = [
            Operator::Filter {
                predicate: Expr::col("price").gt(Expr::lit(500)),
            },
            aggregate.clone(),
            Operator::Distinct {
                columns: vec!["companyID".into()],
            },
            Operator::Join {
                left_keys: vec!["companyID".into()],
                right_keys: vec!["companyID".into()],
            },
            Operator::SortBy {
                column: "price".into(),
                ascending: true,
            },
        ];
        for op in ops {
            let inputs: Vec<&Relation> = if matches!(op, Operator::Join { .. }) {
                vec![&rel, &right]
            } else {
                vec![&rel]
            };
            let expected = execute(&op, &inputs).unwrap();
            // Columnar in, columnar out: no input converts, no output holds rows.
            let cols: Vec<Table> = inputs
                .iter()
                .map(|&r| Table::from_columns(ColumnarRelation::from_rows(r)))
                .collect();
            let refs: Vec<&Table> = cols.iter().collect();
            let col_out = exec.execute(&op, &refs).unwrap();
            assert!(col_out.has_columns() && !col_out.has_rows(), "{op}");
            assert!(cols.iter().all(|t| t.conversion_counts().total() == 0));
            // Rows in: each input converts once, the output is columnar, and
            // a second run on the same tables converts nothing more.
            let rows: Vec<Table> = inputs
                .iter()
                .map(|&r| Table::from_rows(r.clone()))
                .collect();
            let refs: Vec<&Table> = rows.iter().collect();
            for _ in 0..2 {
                let row_out = exec.execute(&op, &refs).unwrap();
                assert!(row_out.has_columns() && !row_out.has_rows(), "{op}");
                for input in &rows {
                    assert_eq!(input.conversion_counts().row_to_columnar, 1, "{op}");
                    assert_eq!(input.conversion_counts().columnar_to_row, 0, "{op}");
                }
                assert!(row_out.as_rows().same_rows_unordered(&expected), "{op}");
            }
            assert!(col_out.as_rows().same_rows_unordered(&expected), "{op}");
        }
        // Cost estimates flow through the trait.
        assert!(Executor::estimate(&exec, &aggregate, 3_000, 50, 16) > Duration::ZERO);
        let table = Table::from_rows(rel);
        assert!(exec.estimate_tables(&aggregate, &[&table], 50) > Duration::ZERO);
        assert_eq!(
            table.conversion_counts().total(),
            0,
            "estimates read no data"
        );
    }

    #[test]
    fn accessors() {
        let eng = ParallelEngine::new(ClusterSpec::new(2, 2));
        assert_eq!(eng.cluster().total_cores(), 4);
    }
}
