//! Parallel execution of relational operators.
//!
//! [`ParallelEngine`] executes one operator at a time, the way a Spark job
//! stage would, as *task waves that borrow*:
//!
//! * A partition is a range of the input's rows ([`crate::partition`]): a
//!   row task reads `&input.rows[range]`, a columnar task a slice of every
//!   typed column. Task outputs are moved, not copied, into the result.
//! * Narrow operators (`Project`, `Filter`, `Multiply`, `Divide`) run
//!   independently on every range.
//! * Wide operators combine before they shuffle: grouped and scalar
//!   `Aggregate` and `Distinct` compute a partial per range and one final
//!   pass folds the partials (the final of `COUNT` is `SUM`; `SUM`, `MIN`,
//!   `MAX` and `Distinct` are their own finals) — the paper's aggregation
//!   split applied inside the engine. No row is hashed into a bucket, and the
//!   output order is the sequential engine's whatever the partition count.
//!   Only `Join` moves rows: it co-partitions both sides by key hash.
//! * A wave is as wide as the *host's* available parallelism, not the
//!   simulated cluster's core count; [`ClusterSpec`] sizes the partitions and
//!   the modeled time (see `run_per_partition` for the measurement behind
//!   that).
//!
//! The returned simulated duration comes from the
//! [`crate::cost::ClusterCostModel`], so experiment harnesses see
//! cluster-like timing regardless of the host machine.

use crate::cluster::ClusterSpec;
use crate::cost::ClusterCostModel;
use crate::partition::{row_ranges, ColumnarPartitionedRelation, PartitionedRelation};
use conclave_engine::{
    execute, execute_columnar, execute_rows, key_indices, ColumnarRelation, EngineError,
    EngineMode, EngineResult, Executor, Relation, Table,
};
use conclave_ir::ops::{AggFunc, Operator};
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

    /// Creates an engine with an explicit cost model.
    pub fn with_cost(cluster: ClusterSpec, cost: ClusterCostModel) -> Self {
        ParallelEngine {
            cluster,
            cost,
            mode: EngineMode::Row,
        }
    }

    /// Returns a copy whose per-task engine is the given mode; this is the
    /// mode the [`Executor`] implementation dispatches on.
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

    /// The engine's cost model.
    pub fn cost_model(&self) -> &ClusterCostModel {
        &self.cost
    }

    /// Executes one operator, returning the result and the simulated cluster
    /// time the stage would take. Uses the row-at-a-time engine per task; see
    /// [`ParallelEngine::execute_op_mode`] to select the vectorized engine.
    pub fn execute_op(
        &self,
        op: &Operator,
        inputs: &[&Relation],
    ) -> EngineResult<(Relation, Duration)> {
        self.execute_op_mode(op, inputs, EngineMode::Row)
    }

    /// Executes one operator with the chosen per-task engine: row tasks
    /// process `Vec<Vec<Value>>` partitions, columnar tasks slice typed
    /// column vectors and run the vectorized engine on each slice.
    ///
    /// This is the row-in/row-out compatibility surface; driven execution
    /// goes through the [`Executor`] implementation, which keeps columnar
    /// data columnar end to end.
    pub fn execute_op_mode(
        &self,
        op: &Operator,
        inputs: &[&Relation],
        mode: EngineMode,
    ) -> EngineResult<(Relation, Duration)> {
        let input_rows: u64 = inputs.iter().map(|r| r.num_rows() as u64).sum();
        let row_bytes = inputs
            .iter()
            .map(|r| r.schema.row_byte_size() as u64)
            .max()
            .unwrap_or(16);
        let out = match mode {
            EngineMode::Row => self.execute_parallel(op, inputs)?,
            EngineMode::Columnar => {
                let columnar: Vec<ColumnarRelation> = inputs
                    .iter()
                    .map(|r| ColumnarRelation::from_rows(r))
                    .collect();
                let refs: Vec<&ColumnarRelation> = columnar.iter().collect();
                self.execute_parallel_columnar(op, &refs)?.to_rows()
            }
        };
        let time = self.cost.estimate(
            &self.cluster,
            op,
            input_rows,
            out.num_rows() as u64,
            row_bytes,
        );
        Ok((out, time))
    }

    /// Estimates the simulated time of a whole local job (a pipeline of
    /// operators with known cardinalities) without executing it.
    pub fn estimate_job(&self, steps: &[(Operator, u64, u64, u64)]) -> Duration {
        self.cost.estimate_job(&self.cluster, steps)
    }

    fn execute_parallel(&self, op: &Operator, inputs: &[&Relation]) -> EngineResult<Relation> {
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
            (_, Some(fin)) => execute(&fin, &[&self.per_range(op, inputs)?]),
            // Joins: co-partition both sides by the join key.
            (
                Operator::Join {
                    left_keys,
                    right_keys,
                    ..
                },
                _,
            ) => {
                let (left, right) = pair(inputs, op)?;
                let partitions = self.cluster.default_partitions();
                let lk = key_indices(&left.schema, left_keys)?;
                let rk = key_indices(&right.schema, right_keys)?;
                let left = PartitionedRelation::shuffle_by_key(left, &lk, partitions);
                let right = PartitionedRelation::shuffle_by_key(right, &rk, partitions);
                let pairs: Vec<(&Relation, &Relation)> =
                    left.partitions.iter().zip(&right.partitions).collect();
                let results = run_per_partition(&pairs, |(l, r)| execute(op, &[l, r]))?;
                merge_results(results, op, inputs)
            }
            // Everything else is executed on the collected data (sorts,
            // limits, scalar steps, compiler-inserted physical operators);
            // these are either cheap or already tiny after local reduction.
            _ => execute(op, inputs),
        }
    }

    /// One task wave of `op` over the row ranges of its single input: every
    /// task borrows its range of the input's rows, and the outputs are moved
    /// into one relation in range order.
    fn per_range(&self, op: &Operator, inputs: &[&Relation]) -> EngineResult<Relation> {
        let input = single(inputs, op)?;
        let ranges = row_ranges(input.num_rows(), self.cluster.default_partitions());
        let results = run_per_partition(&ranges, |r| {
            execute_rows(op, &input.schema, &input.rows[r.clone()])
        })?;
        merge_results(results, op, inputs)
    }

    /// The columnar twin of [`ParallelEngine::execute_parallel`]: a task
    /// slices its range out of every typed column and runs the vectorized
    /// engine on the slice. Consumes and produces columnar relations directly,
    /// so driven columnar plans never round-trip through rows between
    /// operators.
    fn execute_parallel_columnar(
        &self,
        op: &Operator,
        inputs: &[&ColumnarRelation],
    ) -> EngineResult<ColumnarRelation> {
        match (op, final_pass(op)) {
            // Narrow, partition-wise operators.
            (
                Operator::Project { .. }
                | Operator::Filter { .. }
                | Operator::Multiply { .. }
                | Operator::Divide { .. },
                _,
            ) => self.per_range_columnar(op, inputs),
            // Aggregations and distinct: a partial per range, one final pass.
            (_, Some(fin)) => execute_columnar(&fin, &[&self.per_range_columnar(op, inputs)?]),
            // Joins: co-partition both sides by the join key.
            (
                Operator::Join {
                    left_keys,
                    right_keys,
                    ..
                },
                _,
            ) => {
                let (left, right) = pair(inputs, op)?;
                let partitions = self.cluster.default_partitions();
                let lk = key_indices(&left.schema, left_keys)?;
                let rk = key_indices(&right.schema, right_keys)?;
                let left = ColumnarPartitionedRelation::shuffle_by_key(left, &lk, partitions);
                let right = ColumnarPartitionedRelation::shuffle_by_key(right, &rk, partitions);
                let pairs: Vec<(&ColumnarRelation, &ColumnarRelation)> =
                    left.partitions.iter().zip(&right.partitions).collect();
                let results = run_per_partition(&pairs, |(l, r)| execute_columnar(op, &[l, r]))?;
                merge_columnar(results, op, inputs)
            }
            // Everything else runs on the collected data.
            _ => execute_columnar(op, inputs),
        }
    }

    /// The columnar twin of [`ParallelEngine::per_range`].
    fn per_range_columnar(
        &self,
        op: &Operator,
        inputs: &[&ColumnarRelation],
    ) -> EngineResult<ColumnarRelation> {
        let input = single(inputs, op)?;
        let ranges = row_ranges(input.num_rows(), self.cluster.default_partitions());
        let results = run_per_partition(&ranges, |r| {
            execute_columnar(op, &[&input.slice(r.start, r.end)])
        })?;
        merge_columnar(results, op, inputs)
    }
}

impl Executor for ParallelEngine {
    /// Executes one operator over [`Table`]s with the configured per-task
    /// engine mode. Row mode partitions the row representation; columnar mode
    /// slices typed columns and returns a column-backed table, so chained
    /// columnar stages never round-trip through rows.
    fn execute(&self, op: &Operator, inputs: &[&Table]) -> Result<Table, EngineError> {
        match self.mode {
            EngineMode::Row => {
                let rows: Vec<&Relation> = inputs.iter().map(|t| t.as_rows()).collect();
                self.execute_parallel(op, &rows).map(Table::from_rows)
            }
            EngineMode::Columnar => {
                let cols: Vec<&ColumnarRelation> = inputs.iter().map(|t| t.as_columns()).collect();
                self.execute_parallel_columnar(op, &cols)
                    .map(Table::from_columns)
            }
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

fn single<'a, T>(inputs: &[&'a T], op: &Operator) -> EngineResult<&'a T> {
    match inputs {
        [one] => Ok(one),
        _ => arity_error(op, "1", inputs.len()),
    }
}

fn pair<'a, T>(inputs: &[&'a T], op: &Operator) -> EngineResult<(&'a T, &'a T)> {
    match inputs {
        [left, right] => Ok((left, right)),
        _ => arity_error(op, "2", inputs.len()),
    }
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

/// Moves the per-task outputs into one relation, in task order.
fn merge_results(
    results: Vec<Relation>,
    op: &Operator,
    inputs: &[&Relation],
) -> EngineResult<Relation> {
    let non_empty: Vec<Relation> = results.into_iter().filter(|r| !r.is_empty()).collect();
    if non_empty.is_empty() {
        // Derive the output schema from a direct (empty) execution.
        let empty_inputs: Vec<Relation> = inputs
            .iter()
            .map(|r| Relation::empty(r.schema.clone()))
            .collect();
        let refs: Vec<&Relation> = empty_inputs.iter().collect();
        return execute(op, &refs);
    }
    Relation::concat_owned(non_empty)
}

fn merge_columnar(
    results: Vec<ColumnarRelation>,
    op: &Operator,
    inputs: &[&ColumnarRelation],
) -> EngineResult<ColumnarRelation> {
    let non_empty: Vec<ColumnarRelation> =
        results.into_iter().filter(|r| r.num_rows() > 0).collect();
    if non_empty.is_empty() {
        // Derive the output schema from a direct (empty) execution.
        let empty_inputs: Vec<ColumnarRelation> = inputs
            .iter()
            .map(|r| ColumnarRelation::empty(r.schema.clone()))
            .collect();
        let refs: Vec<&ColumnarRelation> = empty_inputs.iter().collect();
        return execute_columnar(op, &refs);
    }
    ColumnarRelation::concat(&non_empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::{JoinKind, Operand};
    use conclave_ir::types::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine() -> ParallelEngine {
        ParallelEngine::new(ClusterSpec::paper_party_cluster())
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
        let eng = engine();
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
            let (parallel, time) = eng.execute_op(&op, &[&rel]).unwrap();
            let sequential = execute(&op, &[&rel]).unwrap();
            assert_eq!(parallel, sequential, "{op} mismatch");
            assert!(time > Duration::ZERO);
        }
    }

    #[test]
    fn grouped_aggregation_matches_sequential() {
        let eng = engine();
        let rel = random_sales(10_000, 2);
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let (parallel, _) = eng.execute_op(&op, &[&rel]).unwrap();
        // Partials combine in range order and grouping is first-seen ordered:
        // the groups come out in the sequential engine's order.
        assert_eq!(parallel, execute(&op, &[&rel]).unwrap());
    }

    #[test]
    fn count_of_partials_is_summed() {
        let eng = engine();
        assert_eq!(eng.cluster().default_partitions(), 12);
        let rel = random_sales(100, 8);
        let agg = |group_by: &[&str], func, over: Option<&str>| Operator::Aggregate {
            group_by: group_by.iter().map(|c| c.to_string()).collect(),
            func,
            over: over.map(str::to_string),
            out: "n".into(),
        };
        let scalar = agg(&[], AggFunc::Count, None);
        let (out, _) = eng.execute_op(&scalar, &[&rel]).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(100)]]);
        assert_eq!(out, execute(&scalar, &[&rel]).unwrap());
        let grouped = agg(&["companyID"], AggFunc::Count, None);
        let (out, _) = eng.execute_op(&grouped, &[&rel]).unwrap();
        assert_eq!(out, execute(&grouped, &[&rel]).unwrap());
        let total: i64 = out.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, 100);
        // No rows, no ranges, no partials: still the one identity row.
        let none = Relation::from_ints(&["companyID", "price"], &[]);
        for op in [scalar, agg(&[], AggFunc::Sum, Some("price"))] {
            for mode in [EngineMode::Row, EngineMode::Columnar] {
                let (out, _) = eng.execute_op_mode(&op, &[&none], mode).unwrap();
                assert_eq!(out.rows, vec![vec![Value::Int(0)]], "{op} {mode}");
            }
        }
        // Fewer rows than partitions: MIN sees no empty range's NULL.
        let few = random_sales(5, 9);
        let min = agg(&[], AggFunc::Min, Some("price"));
        for mode in [EngineMode::Row, EngineMode::Columnar] {
            let (out, _) = eng.execute_op_mode(&min, &[&few], mode).unwrap();
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
        let (out, _) = engine().execute_op(&op, &[&rel]).unwrap();
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
        let eng = engine();
        let rel = random_sales(1_000, 3);
        let sum = Operator::Aggregate {
            group_by: vec![],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "total".into(),
        };
        let (out, _) = eng.execute_op(&sum, &[&rel]).unwrap();
        assert_eq!(out.rows, execute(&sum, &[&rel]).unwrap().rows);

        let sort = Operator::SortBy {
            column: "price".into(),
            ascending: true,
        };
        let (out, _) = eng.execute_op(&sort, &[&rel]).unwrap();
        assert!(out.is_sorted_by("price", true));
    }

    #[test]
    fn distinct_matches_sequential() {
        let eng = engine();
        let rel = random_sales(3_000, 4);
        let op = Operator::Distinct {
            columns: vec!["companyID".into()],
        };
        let (parallel, _) = eng.execute_op(&op, &[&rel]).unwrap();
        assert_eq!(parallel, execute(&op, &[&rel]).unwrap());
    }

    #[test]
    fn parallel_join_matches_sequential() {
        let eng = engine();
        let left = random_sales(2_000, 5);
        let mut right = random_sales(2_000, 6);
        right.schema = conclave_ir::schema::Schema::ints(&["companyID", "weight"]);
        let op = Operator::Join {
            left_keys: vec!["companyID".into()],
            right_keys: vec!["companyID".into()],
            kind: JoinKind::Inner,
        };
        let (parallel, _) = eng.execute_op(&op, &[&left, &right]).unwrap();
        let sequential = execute(&op, &[&left, &right]).unwrap();
        assert!(parallel.same_rows_unordered(&sequential));
        assert_eq!(parallel.schema.names(), sequential.schema.names());
    }

    #[test]
    fn join_arity_and_unknown_columns_error() {
        let eng = engine();
        let rel = random_sales(10, 7);
        let op = Operator::Join {
            left_keys: vec!["companyID".into()],
            right_keys: vec!["companyID".into()],
            kind: JoinKind::Inner,
        };
        assert!(eng.execute_op(&op, &[&rel]).is_err());
        let bad = Operator::Aggregate {
            group_by: vec!["zzz".into()],
            func: AggFunc::Count,
            over: None,
            out: "n".into(),
        };
        assert!(eng.execute_op(&bad, &[&rel]).is_err());
    }

    #[test]
    fn empty_input_produces_empty_output_with_right_schema() {
        let eng = engine();
        let rel = Relation::from_ints(&["companyID", "price"], &[]);
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let (out, _) = eng.execute_op(&op, &[&rel]).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema.names(), vec!["companyID", "rev"]);
    }

    #[test]
    fn columnar_mode_matches_row_mode_across_operators() {
        let eng = engine();
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
            let (row, _) = eng.execute_op_mode(&op, &[&rel], EngineMode::Row).unwrap();
            let (col, t) = eng
                .execute_op_mode(&op, &[&rel], EngineMode::Columnar)
                .unwrap();
            assert!(col.same_rows_unordered(&row), "{op} mismatch");
            assert_eq!(col.schema.names(), row.schema.names());
            assert!(t > Duration::ZERO);
        }
        let join = Operator::Join {
            left_keys: vec!["companyID".into()],
            right_keys: vec!["companyID".into()],
            kind: JoinKind::Inner,
        };
        let (row, _) = eng
            .execute_op_mode(&join, &[&rel, &right], EngineMode::Row)
            .unwrap();
        let (col, _) = eng
            .execute_op_mode(&join, &[&rel, &right], EngineMode::Columnar)
            .unwrap();
        assert!(col.same_rows_unordered(&row));
        // Errors surface in columnar mode too.
        assert!(eng
            .execute_op_mode(&join, &[&rel], EngineMode::Columnar)
            .is_err());
        let bad = Operator::Aggregate {
            group_by: vec!["zzz".into()],
            func: AggFunc::Count,
            over: None,
            out: "n".into(),
        };
        assert!(eng
            .execute_op_mode(&bad, &[&rel], EngineMode::Columnar)
            .is_err());
    }

    #[test]
    fn executor_trait_keeps_native_layout_and_matches_row_results() {
        let row_exec = engine();
        let col_exec = engine().with_mode(EngineMode::Columnar);
        assert_eq!(Executor::name(&row_exec), "parallel-row");
        assert_eq!(Executor::name(&col_exec), "parallel-columnar");
        let rel = random_sales(3_000, 21);
        let table = Table::from_columns(ColumnarRelation::from_rows(&rel));
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let col_out = col_exec.execute(&op, &[&table]).unwrap();
        assert!(col_out.has_columns() && !col_out.has_rows());
        // Columnar-in, columnar-out: the input table never converted.
        assert_eq!(table.conversion_counts().total(), 0);
        let row_table = Table::from_rows(rel.clone());
        let row_out = Executor::execute(&row_exec, &op, &[&row_table]).unwrap();
        assert!(row_out.has_rows() && !row_out.has_columns());
        assert!(row_out.as_rows().same_rows_unordered(col_out.as_rows()));
        // Cost estimates flow through the trait.
        assert!(Executor::estimate(&row_exec, &op, 3_000, 50, 16) > Duration::ZERO);
    }

    #[test]
    fn columnar_mode_empty_input_keeps_schema() {
        let eng = engine();
        let rel = Relation::from_ints(&["companyID", "price"], &[]);
        let op = Operator::Aggregate {
            group_by: vec!["companyID".into()],
            func: AggFunc::Sum,
            over: Some("price".into()),
            out: "rev".into(),
        };
        let (out, _) = eng
            .execute_op_mode(&op, &[&rel], EngineMode::Columnar)
            .unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema.names(), vec!["companyID", "rev"]);
    }

    #[test]
    fn accessors_and_estimate_job() {
        let eng = ParallelEngine::with_cost(ClusterSpec::new(2, 2), ClusterCostModel::default());
        assert_eq!(eng.cluster().total_cores(), 4);
        let t = eng.estimate_job(&[(
            Operator::Project {
                columns: vec!["a".into()],
            },
            1_000_000,
            1_000_000,
            16,
        )]);
        assert!(t > Duration::from_secs_f64(eng.cost_model().job_overhead - 0.1));
    }
}
