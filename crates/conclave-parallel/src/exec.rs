//! Parallel execution of relational operators.
//!
//! [`ParallelEngine`] executes one operator at a time, the way a Spark job
//! stage would, as *task waves that borrow*. Its [`Executor::execute`] is the
//! one statement of the policy, over [`Table`]s:
//!
//! * Narrow operators (`Project`, `Filter`, `Multiply`, `Divide`) run
//!   independently on every range of the input's rows
//!   ([`crate::partition::row_ranges`]).
//! * Wide operators combine before they shuffle: grouped and scalar
//!   `Aggregate` and `Distinct` compute a partial per range and one final
//!   pass folds the partials (the final of `COUNT` is `SUM`; `SUM`, `MIN`,
//!   `MAX` and `Distinct` are their own finals) — the paper's aggregation
//!   split applied inside the engine. No row is hashed into a bucket, and the
//!   output order is the sequential engine's whatever the partition count.
//! * Only `Join` moves rows: it co-partitions both sides by key hash.
//! * Everything else runs on the collected data.
//!
//! What depends on the layout a task runs in ([`EngineMode`]) is confined to
//! four private leaves of the engine — `whole` (the operator on whole
//! tables), `on_range` (on one range: a row task borrows `&rows[range]`, a
//! columnar task slices every typed column), `shuffle` (a join side's
//! buckets) and `concat` (task outputs into one table: rows are moved,
//! columns copied once). A table a leaf reads in its own layout is never
//! converted, and every output holds that layout only.
//!
//! A wave is as wide as the *host's* available parallelism, not the simulated
//! cluster's core count; [`ClusterSpec`] sizes the partitions and the modeled
//! time (see `run_per_partition` for the measurement behind that). The
//! simulated duration of a step comes from the
//! [`crate::cost::ClusterCostModel`], so experiment harnesses see
//! cluster-like timing regardless of the host machine.

use crate::cluster::ClusterSpec;
use crate::cost::ClusterCostModel;
use crate::partition::{row_ranges, shuffle_columns, shuffle_rows};
use conclave_engine::{
    execute_columnar, execute_rows, key_indices, ColumnarExecutor, ColumnarRelation, EngineError,
    EngineMode, EngineResult, Executor, Relation, RowExecutor, Table,
};
use conclave_ir::ops::{AggFunc, Operator};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A party's data-parallel execution engine.
#[derive(Debug, Clone)]
pub struct ParallelEngine {
    cluster: ClusterSpec,
    cost: ClusterCostModel,
    mode: EngineMode,
}

impl ParallelEngine {
    /// Creates an engine for the given cluster (row-mode tasks by default).
    pub fn new(cluster: ClusterSpec) -> Self {
        ParallelEngine {
            cluster,
            cost: ClusterCostModel::default(),
            mode: EngineMode::Row,
        }
    }

    /// Returns a copy whose tasks run in the given mode's layout.
    pub fn with_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// The per-task engine mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// The engine's cluster description.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Estimates the simulated time of a whole local job (a pipeline of
    /// operators with known cardinalities) without executing it.
    pub fn estimate_job(&self, steps: &[(Operator, u64, u64, u64)]) -> Duration {
        self.cost.estimate_job(&self.cluster, steps)
    }

    /// One task wave of `op` over the row ranges of its single input, the
    /// task outputs concatenated in range order.
    fn per_range(&self, op: &Operator, inputs: &[&Table]) -> EngineResult<Table> {
        let [input] = inputs else {
            return arity_error(op, "1", inputs.len());
        };
        let ranges = row_ranges(input.num_rows(), self.cluster.default_partitions());
        if ranges.is_empty() {
            // No rows, no tasks: what `op` makes of nothing (a schema, a
            // scalar aggregate's identity row) is the sequential engine's.
            return self.whole(op, inputs);
        }
        self.concat(run_per_partition(&ranges, |r| {
            self.on_range(op, input, r.clone())
        })?)
    }

    /// Leaf: `op` on whole tables, in the mode's sequential engine.
    fn whole(&self, op: &Operator, inputs: &[&Table]) -> EngineResult<Table> {
        match self.mode {
            EngineMode::Row => RowExecutor::new().execute(op, inputs),
            EngineMode::Columnar => ColumnarExecutor::new().execute(op, inputs),
        }
    }

    /// Leaf: `op` on one range of `input`'s rows. A row task borrows the
    /// range; a columnar task slices it out of every typed column.
    fn on_range(&self, op: &Operator, input: &Table, r: Range<usize>) -> EngineResult<Table> {
        match self.mode {
            EngineMode::Row => {
                let rel = input.as_rows();
                execute_rows(op, &rel.schema, &rel.rows[r]).map(Table::from_rows)
            }
            EngineMode::Columnar => {
                let slice = input.as_columns().slice(r.start, r.end);
                execute_columnar(op, &[&slice]).map(Table::from_columns)
            }
        }
    }

    /// Leaf: a join side hash-partitioned by its key columns, one bucket per
    /// partition; equal keys share a bucket whatever the layout.
    fn shuffle(&self, input: &Table, key_cols: &[usize]) -> Vec<Table> {
        let buckets = self.cluster.default_partitions();
        match self.mode {
            EngineMode::Row => shuffle_rows(input.as_rows(), key_cols, buckets)
                .into_iter()
                .map(Table::from_rows)
                .collect(),
            EngineMode::Columnar => shuffle_columns(input.as_columns(), key_cols, buckets)
                .into_iter()
                .map(Table::from_columns)
                .collect(),
        }
    }

    /// Leaf: the task outputs as one table, in task order. Rows are moved
    /// out of their tasks' tables; columns are copied once.
    fn concat(&self, mut parts: Vec<Table>) -> EngineResult<Table> {
        // Every part has the operator's output schema, but an empty columnar
        // part need not have a full one's column types: only the full parts
        // are joined up, or, if there is none, one empty part stands for all.
        if parts.iter().all(Table::is_empty) {
            parts.truncate(1);
        } else {
            parts.retain(|part| !part.is_empty());
        }
        match self.mode {
            EngineMode::Row => {
                Relation::concat_owned(parts.into_iter().map(Table::into_rows).collect())
                    .map(Table::from_rows)
            }
            EngineMode::Columnar => {
                let columns: Vec<&ColumnarRelation> =
                    parts.iter().map(|part| part.as_columns()).collect();
                ColumnarRelation::concat(&columns).map(Table::from_columns)
            }
        }
    }
}

impl Executor for ParallelEngine {
    /// Executes one operator as task waves in the configured mode's layout:
    /// the output holds that layout only, so chained stages of one mode never
    /// convert between rows and columns.
    fn execute(&self, op: &Operator, inputs: &[&Table]) -> Result<Table, EngineError> {
        match (op, final_pass(op)) {
            // Narrow, partition-wise operators.
            (
                Operator::Project { .. }
                | Operator::Filter { .. }
                | Operator::Multiply { .. }
                | Operator::Divide { .. },
                _,
            ) => self.per_range(op, inputs),
            // Aggregations and distinct: a partial per range, one final pass.
            (_, Some(fin)) => self.whole(&fin, &[&self.per_range(op, inputs)?]),
            // Joins: co-partition both sides by the join key.
            (
                Operator::Join {
                    left_keys,
                    right_keys,
                    ..
                },
                _,
            ) => {
                let [left, right] = inputs else {
                    return arity_error(op, "2", inputs.len());
                };
                let left_cols = key_indices(left.schema(), left_keys)?;
                let right_cols = key_indices(right.schema(), right_keys)?;
                let pairs: Vec<(Table, Table)> = self
                    .shuffle(left, &left_cols)
                    .into_iter()
                    .zip(self.shuffle(right, &right_cols))
                    .collect();
                self.concat(run_per_partition(&pairs, |(l, r)| self.whole(op, &[l, r]))?)
            }
            // Everything else is executed on the collected data (sorts,
            // limits, scalar steps, compiler-inserted physical operators);
            // these are either cheap or already tiny after local reduction.
            _ => self.whole(op, inputs),
        }
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
        match self.mode {
            EngineMode::Row => "parallel-row",
            EngineMode::Columnar => "parallel-columnar",
        }
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
/// `market_pushdown`, pinned to one core: 265 MB peak RSS at 272–297 ms per
/// query with a host-sized wave, 518–543 MB at 299–315 ms with a thread per
/// partition).
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
    use conclave_engine::execute;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::{JoinKind, Operand};
    use conclave_ir::types::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine() -> ParallelEngine {
        ParallelEngine::new(ClusterSpec::paper_party_cluster())
    }

    /// `op` through the [`Executor`] of a `mode` engine, rows in and rows out.
    fn run(mode: EngineMode, op: &Operator, inputs: &[&Relation]) -> EngineResult<Relation> {
        let tables: Vec<Table> = inputs.iter().map(|&r| r.clone().into()).collect();
        let refs: Vec<&Table> = tables.iter().collect();
        let out = engine().with_mode(mode).execute(op, &refs)?;
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
            let parallel = run(EngineMode::Row, &op, &[&rel]).unwrap();
            let sequential = execute(&op, &[&rel]).unwrap();
            assert_eq!(parallel, sequential, "{op} mismatch");
        }
    }

    #[test]
    fn grouped_aggregation_matches_sequential() {
        let rel = random_sales(10_000, 2);
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let parallel = run(EngineMode::Row, &op, &[&rel]).unwrap();
        // Partials combine in range order and grouping is first-seen ordered:
        // the groups come out in the sequential engine's order.
        assert_eq!(parallel, execute(&op, &[&rel]).unwrap());
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
        let out = run(EngineMode::Row, &scalar, &[&rel]).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(100)]]);
        assert_eq!(out, execute(&scalar, &[&rel]).unwrap());
        let grouped = agg(&["companyID"], AggFunc::Count, None);
        let out = run(EngineMode::Row, &grouped, &[&rel]).unwrap();
        assert_eq!(out, execute(&grouped, &[&rel]).unwrap());
        let total: i64 = out.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, 100);
        // No rows, no ranges, no partials: still the one identity row.
        let none = Relation::from_ints(&["companyID", "price"], &[]);
        for op in [scalar, agg(&[], AggFunc::Sum, Some("price"))] {
            for mode in [EngineMode::Row, EngineMode::Columnar] {
                let out = run(mode, &op, &[&none]).unwrap();
                assert_eq!(out.rows, vec![vec![Value::Int(0)]], "{op} {mode}");
            }
        }
        // Fewer rows than partitions: MIN sees no empty range's NULL.
        let few = random_sales(5, 9);
        let min = agg(&[], AggFunc::Min, Some("price"));
        for mode in [EngineMode::Row, EngineMode::Columnar] {
            let out = run(mode, &min, &[&few]).unwrap();
            assert_eq!(out, execute(&min, &[&few]).unwrap(), "{mode}");
        }
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
        let out = run(EngineMode::Row, &op, &[&rel]).unwrap();
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
        let out = run(EngineMode::Row, &sum, &[&rel]).unwrap();
        assert_eq!(out.rows, execute(&sum, &[&rel]).unwrap().rows);

        let sort = Operator::SortBy {
            column: "price".into(),
            ascending: true,
        };
        let out = run(EngineMode::Row, &sort, &[&rel]).unwrap();
        assert!(out.is_sorted_by("price", true));
    }

    #[test]
    fn distinct_matches_sequential() {
        let rel = random_sales(3_000, 4);
        let op = Operator::Distinct {
            columns: vec!["companyID".into()],
        };
        let parallel = run(EngineMode::Row, &op, &[&rel]).unwrap();
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
            kind: JoinKind::Inner,
        };
        let parallel = run(EngineMode::Row, &op, &[&left, &right]).unwrap();
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
            kind: JoinKind::Inner,
        };
        assert!(run(EngineMode::Row, &op, &[&rel]).is_err());
        let bad = Operator::Aggregate {
            group_by: vec!["zzz".into()],
            func: AggFunc::Count,
            over: None,
            out: "n".into(),
        };
        assert!(run(EngineMode::Row, &bad, &[&rel]).is_err());
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
        let out = run(EngineMode::Row, &op, &[&rel]).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema.names(), vec!["companyID", "rev"]);
    }

    #[test]
    fn columnar_mode_matches_row_mode_across_operators() {
        let rel = random_sales(4_000, 11);
        let mut right = random_sales(2_000, 12);
        right.schema = conclave_ir::schema::Schema::ints(&["companyID", "weight"]);
        let unary = [
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
            Operator::Distinct {
                columns: vec!["companyID".into()],
            },
            Operator::SortBy {
                column: "price".into(),
                ascending: true,
            },
        ];
        for op in unary {
            // Ranges are cut and partials folded alike in both layouts: the
            // same rows in the same order.
            let row = run(EngineMode::Row, &op, &[&rel]).unwrap();
            let col = run(EngineMode::Columnar, &op, &[&rel]).unwrap();
            assert_eq!(col, row, "{op} mismatch");
        }
        let join = Operator::Join {
            left_keys: vec!["companyID".into()],
            right_keys: vec!["companyID".into()],
            kind: JoinKind::Inner,
        };
        let row = run(EngineMode::Row, &join, &[&rel, &right]).unwrap();
        let col = run(EngineMode::Columnar, &join, &[&rel, &right]).unwrap();
        assert!(col.same_rows_unordered(&row));
        assert_eq!(col.schema.names(), row.schema.names());
        // Errors surface in columnar mode too.
        assert!(run(EngineMode::Columnar, &join, &[&rel]).is_err());
        let bad = Operator::Aggregate {
            group_by: vec!["zzz".into()],
            func: AggFunc::Count,
            over: None,
            out: "n".into(),
        };
        assert!(run(EngineMode::Columnar, &bad, &[&rel]).is_err());
    }

    #[test]
    fn executor_trait_keeps_native_layout_and_matches_row_results() {
        let row_exec = engine();
        let col_exec = engine().with_mode(EngineMode::Columnar);
        assert_eq!(Executor::name(&row_exec), "parallel-row");
        assert_eq!(Executor::name(&col_exec), "parallel-columnar");
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
                kind: JoinKind::Inner,
            },
            Operator::SortBy {
                column: "price".into(),
                ascending: true,
            },
        ];
        for op in ops {
            let binary = matches!(op, Operator::Join { .. });
            // Columnar in, columnar out: no input converts, no output holds rows.
            let cols = [&rel, &right].map(|r| Table::from_columns(ColumnarRelation::from_rows(r)));
            let inputs: &[&Table] = if binary {
                &[&cols[0], &cols[1]]
            } else {
                &[&cols[0]]
            };
            let col_out = col_exec.execute(&op, inputs).unwrap();
            assert!(col_out.has_columns() && !col_out.has_rows(), "{op}");
            // Rows in, rows out, likewise.
            let rows = [&rel, &right].map(|r| Table::from_rows(r.clone()));
            let inputs: &[&Table] = if binary {
                &[&rows[0], &rows[1]]
            } else {
                &[&rows[0]]
            };
            let row_out = row_exec.execute(&op, inputs).unwrap();
            assert!(row_out.has_rows() && !row_out.has_columns(), "{op}");
            for input in cols.iter().chain(&rows) {
                assert_eq!(input.conversion_counts().total(), 0, "{op}");
            }
            assert!(
                row_out.as_rows().same_rows_unordered(col_out.as_rows()),
                "{op}"
            );
        }
        // Cost estimates flow through the trait.
        assert!(Executor::estimate(&row_exec, &aggregate, 3_000, 50, 16) > Duration::ZERO);
        let table = Table::from_rows(rel);
        assert!(row_exec.estimate_tables(&aggregate, &[&table], 50) > Duration::ZERO);
    }

    #[test]
    fn columnar_mode_empty_input_keeps_schema() {
        let rel = Relation::from_ints(&["companyID", "price"], &[]);
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let out = run(EngineMode::Columnar, &op, &[&rel]).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema.names(), vec!["companyID", "rev"]);
    }

    #[test]
    fn accessors_and_estimate_job() {
        let eng = ParallelEngine::new(ClusterSpec::new(2, 2)).with_mode(EngineMode::Columnar);
        assert_eq!(eng.mode(), EngineMode::Columnar);
        assert_eq!(eng.cluster().total_cores(), 4);
        let t = eng.estimate_job(&[(
            Operator::Project {
                columns: vec!["a".into()],
            },
            1_000_000,
            1_000_000,
            16,
        )]);
        assert!(t > Duration::from_secs_f64(ClusterCostModel::default().job_overhead - 0.1));
    }
}
