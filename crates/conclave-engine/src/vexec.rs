//! Vectorized cleartext execution over columnar relations.
//!
//! [`execute_columnar`] is the column-at-a-time counterpart of
//! [`crate::exec::execute`]: the same operators, the same semantics (the
//! differential test suite holds the two engines to cell-for-cell equality),
//! but implemented as tight loops over typed column vectors. Integer-only
//! workloads — the common case in Conclave queries — run entirely over `i64`
//! slices: filters evaluate predicates in batch, aggregations accumulate into
//! per-group slots, and hash joins build primitive-key tables.

use crate::columnar::{Column, ColumnarRelation};
use crate::error::{EngineError, EngineResult};
use crate::relation::Relation;
use conclave_ir::expr::{apply_binop_batch, BinOp, Expr, ValueBatch};
use conclave_ir::ops::{AggFunc, Operand, Operator};
use conclave_ir::schema::Schema;
use conclave_ir::types::Value;
use std::collections::{HashMap, HashSet};

/// Executes one operator over columnar inputs, producing a columnar output.
pub fn execute_columnar(
    op: &Operator,
    inputs: &[&ColumnarRelation],
) -> EngineResult<ColumnarRelation> {
    match op {
        Operator::Input { name, .. } => Err(EngineError::Unsupported(format!(
            "input({name}) must be bound to stored data by the driver"
        ))),
        Operator::Concat => {
            if inputs.is_empty() {
                return Err(EngineError::Arity {
                    op: "concat".into(),
                    expected: ">=1".into(),
                    got: 0,
                });
            }
            ColumnarRelation::concat(inputs)
        }
        Operator::Project { columns } => {
            need(op, inputs, 1)?;
            project(inputs[0], columns)
        }
        Operator::Filter { predicate } => {
            need(op, inputs, 1)?;
            filter(inputs[0], predicate)
        }
        Operator::Join {
            left_keys,
            right_keys,
            ..
        } => {
            need(op, inputs, 2)?;
            join(inputs[0], inputs[1], left_keys, right_keys)
        }
        Operator::Aggregate {
            group_by,
            func,
            over,
            out,
        } => {
            need(op, inputs, 1)?;
            aggregate(inputs[0], group_by, *func, over.as_deref(), out)
        }
        Operator::Multiply { out, operands } => {
            need(op, inputs, 1)?;
            multiply(inputs[0], out, operands)
        }
        Operator::Divide { out, num, den } => {
            need(op, inputs, 1)?;
            divide(inputs[0], out, num, den)
        }
        Operator::SortBy { column, ascending } => {
            need(op, inputs, 1)?;
            sort_by(inputs[0], column, *ascending)
        }
        Operator::Limit { n } => {
            need(op, inputs, 1)?;
            let end = (*n).min(inputs[0].num_rows());
            Ok(inputs[0].slice(0, end))
        }
        Operator::Distinct { columns } => {
            need(op, inputs, 1)?;
            distinct(inputs[0], columns)
        }
        Operator::DistinctCount { column, out } => {
            need(op, inputs, 1)?;
            distinct_count(inputs[0], column, out)
        }
        Operator::Collect { .. } | Operator::Open { .. } | Operator::CloseTo => {
            need(op, inputs, 1)?;
            Ok(inputs[0].clone())
        }
        Operator::RevealTo { columns, .. } => {
            need(op, inputs, 1)?;
            match columns {
                Some(cols) => project(inputs[0], cols),
                None => Ok(inputs[0].clone()),
            }
        }
        Operator::Shuffle => {
            // Deterministic block-reversing permutation, matching the row
            // engine; the *oblivious* shuffle lives in `conclave-mpc`.
            need(op, inputs, 1)?;
            let n = inputs[0].num_rows();
            let reversed: Vec<usize> = (0..n).rev().collect();
            Ok(inputs[0].gather(&reversed))
        }
        Operator::Enumerate { out } => {
            need(op, inputs, 1)?;
            enumerate(inputs[0], out)
        }
        Operator::ObliviousSelect { index_column } => {
            need(op, inputs, 2)?;
            select_by_index(inputs[0], inputs[1], index_column)
        }
        Operator::Merge { column, ascending } => {
            if inputs.is_empty() {
                return Err(EngineError::Arity {
                    op: "merge".into(),
                    expected: ">=1".into(),
                    got: 0,
                });
            }
            let merged = ColumnarRelation::concat(inputs)?;
            sort_by(&merged, column, *ascending)
        }
        Operator::HybridJoin { .. }
        | Operator::PublicJoin { .. }
        | Operator::HybridAggregate { .. } => Err(EngineError::Unsupported(op.name().to_string())),
    }
}

/// Executes one operator on row-major inputs through the vectorized engine:
/// converts to columnar form, runs [`execute_columnar`], converts back. This
/// is the entry point the driver uses when [`crate::EngineMode::Columnar`] is
/// selected at plan-execution boundaries that traffic in row relations.
pub fn execute_vectorized(op: &Operator, inputs: &[&Relation]) -> EngineResult<Relation> {
    let columnar: Vec<ColumnarRelation> = inputs
        .iter()
        .map(|r| ColumnarRelation::from_rows(r))
        .collect();
    let refs: Vec<&ColumnarRelation> = columnar.iter().collect();
    execute_columnar(op, &refs).map(|out| out.to_rows())
}

fn need(op: &Operator, inputs: &[&ColumnarRelation], n: usize) -> EngineResult<()> {
    if inputs.len() == n {
        Ok(())
    } else {
        Err(EngineError::Arity {
            op: op.name().to_string(),
            expected: n.to_string(),
            got: inputs.len(),
        })
    }
}

fn col_idx(rel: &ColumnarRelation, name: &str) -> EngineResult<usize> {
    rel.col_index(name)
        .ok_or_else(|| EngineError::UnknownColumn(name.to_string()))
}

fn out_schema(op: &Operator, inputs: &[&ColumnarRelation]) -> Schema {
    let schemas: Vec<Schema> = inputs.iter().map(|r| r.schema.clone()).collect();
    op.output_schema(&schemas)
        .unwrap_or_else(|_| inputs[0].schema.clone())
}

fn project(rel: &ColumnarRelation, columns: &[String]) -> EngineResult<ColumnarRelation> {
    let idxs: Vec<usize> = columns
        .iter()
        .map(|c| col_idx(rel, c))
        .collect::<EngineResult<_>>()?;
    let op = Operator::Project {
        columns: columns.to_vec(),
    };
    let schema = out_schema(&op, &[rel]);
    let cols = idxs.iter().map(|&i| rel.column(i).clone()).collect();
    ColumnarRelation::with_columns(schema, cols)
}

fn filter(rel: &ColumnarRelation, predicate: &Expr) -> EngineResult<ColumnarRelation> {
    // The row engine evaluates the predicate per row, so an empty input never
    // evaluates it at all (and thus never errors); mirror that.
    if rel.is_empty() {
        return Ok(rel.clone());
    }
    let batch = predicate
        .eval_batch(&rel.schema, rel)
        .map_err(|e| EngineError::Eval(e.to_string()))?;
    Ok(rel.filter(&batch.to_mask()))
}

/// Hash equi-join (inner), vectorized: match row indices first, then gather
/// whole columns once.
fn join(
    left: &ColumnarRelation,
    right: &ColumnarRelation,
    left_keys: &[String],
    right_keys: &[String],
) -> EngineResult<ColumnarRelation> {
    let lk: Vec<usize> = left_keys
        .iter()
        .map(|c| col_idx(left, c))
        .collect::<EngineResult<_>>()?;
    let rk: Vec<usize> = right_keys
        .iter()
        .map(|c| col_idx(right, c))
        .collect::<EngineResult<_>>()?;
    let op = Operator::Join {
        left_keys: left_keys.to_vec(),
        right_keys: right_keys.to_vec(),
        kind: conclave_ir::ops::JoinKind::Inner,
    };
    let schema = out_schema(&op, &[left, right]);

    let (left_idx, right_idx) = match (single_int_key(left, &lk), single_int_key(right, &rk)) {
        // Primitive-key fast path: single integer key on both sides.
        (Some(lkeys), Some(rkeys)) => {
            let mut table: HashMap<i64, Vec<u32>> = HashMap::with_capacity(rkeys.len());
            for (i, &k) in rkeys.iter().enumerate() {
                table.entry(k).or_default().push(i as u32);
            }
            let mut li = Vec::new();
            let mut ri = Vec::new();
            for (i, &k) in lkeys.iter().enumerate() {
                if let Some(matches) = table.get(&k) {
                    for &m in matches {
                        li.push(i);
                        ri.push(m as usize);
                    }
                }
            }
            (li, ri)
        }
        // General path: `Value` keys (identical hash/equality semantics to
        // the row engine, including Int/Float cross-type equality).
        _ => {
            let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for i in 0..right.num_rows() {
                let key: Vec<Value> = rk.iter().map(|&c| right.value(i, c)).collect();
                table.entry(key).or_default().push(i);
            }
            let mut li = Vec::new();
            let mut ri = Vec::new();
            for i in 0..left.num_rows() {
                let key: Vec<Value> = lk.iter().map(|&c| left.value(i, c)).collect();
                if let Some(matches) = table.get(&key) {
                    for &m in matches {
                        li.push(i);
                        ri.push(m);
                    }
                }
            }
            (li, ri)
        }
    };

    let mut cols: Vec<Column> = (0..left.num_cols())
        .map(|c| left.column(c).gather(&left_idx))
        .collect();
    for c in 0..right.num_cols() {
        if !rk.contains(&c) {
            cols.push(right.column(c).gather(&right_idx));
        }
    }
    ColumnarRelation::with_columns(schema, cols)
}

/// The key column as an `i64` slice when the key is a single null-free
/// integer column (the fast-path precondition for joins and aggregations).
fn single_int_key<'a>(rel: &'a ColumnarRelation, key_cols: &[usize]) -> Option<&'a [i64]> {
    match key_cols {
        [one] => rel.column(*one).as_ints(),
        _ => None,
    }
}

fn aggregate(
    rel: &ColumnarRelation,
    group_by: &[String],
    func: AggFunc,
    over: Option<&str>,
    out: &str,
) -> EngineResult<ColumnarRelation> {
    let key_cols: Vec<usize> = group_by
        .iter()
        .map(|c| col_idx(rel, c))
        .collect::<EngineResult<_>>()?;
    let over_col = match over {
        Some(o) => Some(col_idx(rel, o)?),
        None => {
            if func.needs_over() {
                return Err(EngineError::Eval(format!("{func} requires an over column")));
            }
            None
        }
    };
    let op = Operator::Aggregate {
        group_by: group_by.to_vec(),
        func,
        over: over.map(|s| s.to_string()),
        out: out.to_string(),
    };
    let schema = out_schema(&op, &[rel]);

    // Scalar aggregation (no group-by): one output row.
    if key_cols.is_empty() {
        let value = scalar_aggregate(rel, func, over_col);
        let cols = vec![Column::from_values(vec![value])];
        return ColumnarRelation::with_columns(schema, cols);
    }

    let n = rel.num_rows();

    // Primitive fast path: single null-free integer group key with either no
    // over column (COUNT) or a null-free integer over column.
    if let Some(keys) = single_int_key(rel, &key_cols) {
        let over_ints = over_col.map(|c| rel.column(c).as_ints());
        let over_ok = match over_ints {
            None => true,
            Some(Some(_)) => true,
            Some(None) => false,
        };
        if over_ok {
            let vals: Option<&[i64]> = over_ints.flatten();
            let mut slots: HashMap<i64, usize> = HashMap::new();
            let mut group_keys: Vec<i64> = Vec::new();
            let mut accs: Vec<i64> = Vec::new();
            for (i, &k) in keys.iter().enumerate() {
                let slot = *slots.entry(k).or_insert_with(|| {
                    group_keys.push(k);
                    accs.push(match func {
                        AggFunc::Count => 0,
                        AggFunc::Sum => 0,
                        AggFunc::Min => i64::MAX,
                        AggFunc::Max => i64::MIN,
                    });
                    accs.len() - 1
                });
                match func {
                    AggFunc::Count => accs[slot] += 1,
                    AggFunc::Sum => accs[slot] = accs[slot].wrapping_add(vals.expect("over")[i]),
                    AggFunc::Min => accs[slot] = accs[slot].min(vals.expect("over")[i]),
                    AggFunc::Max => accs[slot] = accs[slot].max(vals.expect("over")[i]),
                }
            }
            let cols = vec![Column::ints(group_keys), Column::ints(accs)];
            return ColumnarRelation::with_columns(schema, cols);
        }
    }

    // General path: `Value` keys and `Value` accumulation, reproducing the
    // row engine's coercion rules (nulls poison sums, floats promote, NULL
    // sorts below everything for min/max).
    let mut slots: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut group_keys: Vec<Vec<Value>> = Vec::new();
    let mut accs: Vec<Value> = Vec::new();
    for i in 0..n {
        let key: Vec<Value> = key_cols.iter().map(|&c| rel.value(i, c)).collect();
        let over_value = || rel.value(i, over_col.expect("checked above"));
        match slots.get(&key) {
            None => {
                group_keys.push(key.clone());
                slots.insert(key, accs.len());
                // Each group is seeded from its first row, so min/max never
                // need a sentinel that could be confused with a real NULL.
                accs.push(match func {
                    AggFunc::Count => Value::Int(1),
                    AggFunc::Sum => Value::Int(0).add(&over_value()),
                    AggFunc::Min | AggFunc::Max => over_value(),
                });
            }
            Some(&slot) => match func {
                AggFunc::Count => {
                    accs[slot] = Value::Int(accs[slot].as_int().unwrap_or(0) + 1);
                }
                AggFunc::Sum => {
                    accs[slot] = accs[slot].add(&over_value());
                }
                AggFunc::Min | AggFunc::Max => {
                    // Tie-breaking mirrors the row engine's Iterator::min/max:
                    // min keeps the first of equal elements (strict <), max
                    // keeps the last (non-strict >=) — observable when cells
                    // compare equal but differ (e.g. Int(2) vs Float(2.0)).
                    let v = over_value();
                    let replace = if func == AggFunc::Min {
                        v < accs[slot]
                    } else {
                        v >= accs[slot]
                    };
                    if replace {
                        accs[slot] = v;
                    }
                }
            },
        }
    }
    let mut cols: Vec<Column> = Vec::with_capacity(key_cols.len() + 1);
    for k in 0..key_cols.len() {
        cols.push(Column::from_values(
            group_keys.iter().map(|g| g[k].clone()).collect(),
        ));
    }
    cols.push(Column::from_values(accs));
    ColumnarRelation::with_columns(schema, cols)
}

fn scalar_aggregate(rel: &ColumnarRelation, func: AggFunc, over_col: Option<usize>) -> Value {
    let n = rel.num_rows();
    match func {
        AggFunc::Count => Value::Int(n as i64),
        AggFunc::Sum => {
            let c = over_col.expect("validated by caller");
            if let Some(ints) = rel.column(c).as_ints() {
                let mut acc = 0i64;
                for &v in ints {
                    acc = acc.wrapping_add(v);
                }
                Value::Int(acc)
            } else if let Some(floats) = rel.column(c).as_floats() {
                // The row engine starts from Int(0) and promotes on the first
                // float: 0.0 + x1 + x2 + ... in the same order.
                if floats.is_empty() {
                    Value::Int(0)
                } else {
                    let mut acc = 0.0f64;
                    for &v in floats {
                        acc += v;
                    }
                    Value::Float(acc)
                }
            } else {
                let mut acc = Value::Int(0);
                for i in 0..n {
                    acc = acc.add(&rel.value(i, c));
                }
                acc
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let c = over_col.expect("validated by caller");
            let mut best: Option<Value> = None;
            for i in 0..n {
                let v = rel.value(i, c);
                best = Some(match best {
                    None => v,
                    // Same tie-breaking as Iterator::min/max: first minimal
                    // element wins, last maximal element wins.
                    Some(b) => {
                        if (func == AggFunc::Min && v < b) || (func == AggFunc::Max && v >= b) {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.unwrap_or(Value::Null)
        }
    }
}

fn operand_batch(rel: &ColumnarRelation, operand: &Operand) -> EngineResult<ValueBatch> {
    match operand {
        Operand::Col(c) => {
            let idx = col_idx(rel, c)?;
            Ok(rel.column(idx).to_batch())
        }
        Operand::Lit(v) => Ok(ValueBatch::Splat(v.clone(), rel.num_rows())),
    }
}

fn replace_or_append(
    rel: &ColumnarRelation,
    schema: Schema,
    out: &str,
    col: Column,
) -> EngineResult<ColumnarRelation> {
    let mut cols: Vec<Column> = rel.columns().to_vec();
    match rel.col_index(out) {
        Some(i) => cols[i] = col,
        None => cols.push(col),
    }
    ColumnarRelation::with_columns(schema, cols)
}

fn multiply(
    rel: &ColumnarRelation,
    out: &str,
    operands: &[Operand],
) -> EngineResult<ColumnarRelation> {
    let op = Operator::Multiply {
        out: out.to_string(),
        operands: operands.to_vec(),
    };
    let schema = out_schema(&op, &[rel]);
    // The row engine resolves operand columns inside the per-row loop, so an
    // empty input cannot raise unknown-column errors; mirror that.
    if rel.is_empty() {
        return Ok(ColumnarRelation::empty(schema));
    }
    let mut acc = ValueBatch::Splat(Value::Int(1), rel.num_rows());
    for o in operands {
        let b = operand_batch(rel, o)?;
        acc = apply_binop_batch(BinOp::Mul, &acc, &b);
    }
    replace_or_append(rel, schema, out, Column::from_batch(acc))
}

fn divide(
    rel: &ColumnarRelation,
    out: &str,
    num: &Operand,
    den: &Operand,
) -> EngineResult<ColumnarRelation> {
    let op = Operator::Divide {
        out: out.to_string(),
        num: num.clone(),
        den: den.clone(),
    };
    let schema = out_schema(&op, &[rel]);
    if rel.is_empty() {
        return Ok(ColumnarRelation::empty(schema));
    }
    let n = operand_batch(rel, num)?;
    let d = operand_batch(rel, den)?;
    let result = apply_binop_batch(BinOp::Div, &n, &d);
    replace_or_append(rel, schema, out, Column::from_batch(result))
}

fn sort_by(
    rel: &ColumnarRelation,
    column: &str,
    ascending: bool,
) -> EngineResult<ColumnarRelation> {
    let idx = col_idx(rel, column)?;
    let n = rel.num_rows();
    let mut indices: Vec<usize> = (0..n).collect();
    if let Some(ints) = rel.column(idx).as_ints() {
        indices.sort_by_key(|&i| ints[i]);
    } else {
        let values = rel.column(idx).values();
        indices.sort_by(|&a, &b| values[a].cmp(&values[b]));
    }
    // The row engine sorts ascending (stably) and then reverses the whole
    // relation for descending order; reproduce that exactly, tie order
    // included.
    if !ascending {
        indices.reverse();
    }
    Ok(rel.gather(&indices))
}

fn distinct(rel: &ColumnarRelation, columns: &[String]) -> EngineResult<ColumnarRelation> {
    let proj = project(rel, columns)?;
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let mut keep: Vec<usize> = Vec::new();
    for i in 0..proj.num_rows() {
        let key: Vec<Value> = (0..proj.num_cols()).map(|c| proj.value(i, c)).collect();
        if seen.insert(key) {
            keep.push(i);
        }
    }
    Ok(proj.gather(&keep))
}

fn distinct_count(
    rel: &ColumnarRelation,
    column: &str,
    out: &str,
) -> EngineResult<ColumnarRelation> {
    let idx = col_idx(rel, column)?;
    let count = if let Some(ints) = rel.column(idx).as_ints() {
        let seen: HashSet<i64> = ints.iter().copied().collect();
        seen.len()
    } else {
        let seen: HashSet<Value> = (0..rel.num_rows()).map(|i| rel.value(i, idx)).collect();
        seen.len()
    };
    let op = Operator::DistinctCount {
        column: column.to_string(),
        out: out.to_string(),
    };
    let schema = out_schema(&op, &[rel]);
    ColumnarRelation::with_columns(schema, vec![Column::ints(vec![count as i64])])
}

fn enumerate(rel: &ColumnarRelation, out: &str) -> EngineResult<ColumnarRelation> {
    let op = Operator::Enumerate {
        out: out.to_string(),
    };
    let schema = out_schema(&op, &[rel]);
    let mut cols: Vec<Column> = rel.columns().to_vec();
    cols.push(Column::ints((0..rel.num_rows() as i64).collect()));
    ColumnarRelation::with_columns(schema, cols)
}

fn select_by_index(
    data: &ColumnarRelation,
    indexes: &ColumnarRelation,
    index_column: &str,
) -> EngineResult<ColumnarRelation> {
    let idx_col = col_idx(indexes, index_column)?;
    let mut gather_idx = Vec::with_capacity(indexes.num_rows());
    for i in 0..indexes.num_rows() {
        let v = indexes.value(i, idx_col);
        let raw = v
            .as_int()
            .ok_or_else(|| EngineError::Eval("non-integer index".to_string()))?;
        let j =
            usize::try_from(raw).map_err(|_| EngineError::Eval("negative index".to_string()))?;
        if j >= data.num_rows() {
            return Err(EngineError::Eval(format!("index {j} out of bounds")));
        }
        gather_idx.push(j);
    }
    Ok(data.gather(&gather_idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use conclave_ir::ops::JoinKind;
    use conclave_ir::schema::{ColumnDef, Schema};
    use conclave_ir::types::DataType;

    /// Runs `op` on both engines and asserts cell-for-cell equality.
    fn assert_engines_agree(op: &Operator, inputs: &[&Relation]) {
        let row = execute(op, inputs);
        let vec = execute_vectorized(op, inputs);
        match (row, vec) {
            (Ok(r), Ok(v)) => {
                assert_eq!(r.schema.names(), v.schema.names(), "{op}: schema mismatch");
                assert_eq!(r.rows, v.rows, "{op}: row mismatch");
            }
            (Err(_), Err(_)) => {}
            (r, v) => panic!("{op}: engines disagree on success: row={r:?} vec={v:?}"),
        }
    }

    fn sales() -> Relation {
        Relation::from_ints(
            &["companyID", "price"],
            &[vec![1, 10], vec![2, 5], vec![1, 20], vec![3, 7], vec![2, 5]],
        )
    }

    fn null_heavy() -> Relation {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Int),
        ]);
        Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::Null, Value::Int(5)],
                vec![Value::Int(1), Value::Int(3)],
                vec![Value::Null, Value::Null],
            ],
        )
        .unwrap()
    }

    fn unary_ops() -> Vec<Operator> {
        vec![
            Operator::Project {
                columns: vec!["price".into(), "companyID".into()],
            },
            Operator::Filter {
                predicate: Expr::col("price").gt(Expr::lit(6)),
            },
            Operator::Aggregate {
                group_by: vec!["companyID".into()],
                func: AggFunc::Sum,
                over: Some("price".into()),
                out: "rev".into(),
            },
            Operator::Aggregate {
                group_by: vec![],
                func: AggFunc::Min,
                over: Some("price".into()),
                out: "m".into(),
            },
            Operator::Aggregate {
                group_by: vec!["companyID".into()],
                func: AggFunc::Count,
                over: None,
                out: "n".into(),
            },
            Operator::Multiply {
                out: "sq".into(),
                operands: vec![Operand::col("price"), Operand::col("price")],
            },
            Operator::Divide {
                out: "half".into(),
                num: Operand::col("price"),
                den: Operand::lit(2),
            },
            Operator::SortBy {
                column: "price".into(),
                ascending: false,
            },
            Operator::Limit { n: 3 },
            Operator::Distinct {
                columns: vec!["companyID".into()],
            },
            Operator::DistinctCount {
                column: "price".into(),
                out: "n".into(),
            },
            Operator::Shuffle,
            Operator::Enumerate { out: "idx".into() },
        ]
    }

    #[test]
    fn unary_operators_match_row_engine() {
        let rel = sales();
        for op in unary_ops() {
            assert_engines_agree(&op, &[&rel]);
        }
    }

    #[test]
    fn unary_operators_match_row_engine_on_empty_input() {
        let rel = Relation::from_ints(&["companyID", "price"], &[]);
        for op in unary_ops() {
            assert_engines_agree(&op, &[&rel]);
        }
    }

    #[test]
    fn unary_operators_match_row_engine_on_single_row() {
        let rel = Relation::from_ints(&["companyID", "price"], &[vec![4, 9]]);
        for op in unary_ops() {
            assert_engines_agree(&op, &[&rel]);
        }
    }

    #[test]
    fn unary_operators_match_row_engine_on_null_heavy_input() {
        let rel = null_heavy();
        for op in [
            Operator::Filter {
                predicate: Expr::col("v").gt(Expr::lit(2)),
            },
            Operator::Aggregate {
                group_by: vec!["k".into()],
                func: AggFunc::Sum,
                over: Some("v".into()),
                out: "s".into(),
            },
            Operator::Aggregate {
                group_by: vec!["k".into()],
                func: AggFunc::Min,
                over: Some("v".into()),
                out: "m".into(),
            },
            Operator::Aggregate {
                group_by: vec![],
                func: AggFunc::Sum,
                over: Some("v".into()),
                out: "s".into(),
            },
            Operator::Multiply {
                out: "x".into(),
                operands: vec![Operand::col("v"), Operand::lit(2)],
            },
            Operator::Divide {
                out: "d".into(),
                num: Operand::col("v"),
                den: Operand::col("k"),
            },
            Operator::SortBy {
                column: "v".into(),
                ascending: true,
            },
            Operator::Distinct {
                columns: vec!["k".into()],
            },
            Operator::DistinctCount {
                column: "k".into(),
                out: "n".into(),
            },
        ] {
            assert_engines_agree(&op, &[&rel]);
        }
    }

    #[test]
    fn join_matches_row_engine_including_duplicate_keys() {
        let left = Relation::from_ints(
            &["k", "a"],
            &[vec![1, 1], vec![1, 2], vec![1, 3], vec![2, 4]],
        );
        let right = Relation::from_ints(&["k", "b"], &[vec![1, 10], vec![1, 20], vec![3, 30]]);
        let op = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
            kind: JoinKind::Inner,
        };
        assert_engines_agree(&op, &[&left, &right]);
        // All-duplicate keys: full cross product of the key group.
        let dup = Relation::from_ints(&["k", "x"], &[vec![7, 1], vec![7, 2], vec![7, 3]]);
        assert_engines_agree(&op, &[&dup, &dup]);
        // Empty sides.
        let empty = Relation::from_ints(&["k", "x"], &[]);
        assert_engines_agree(&op, &[&empty, &dup]);
        assert_engines_agree(&op, &[&dup, &empty]);
        // Null keys compare equal to each other under the total order (they
        // do match) and route both engines through the generic `Value` path.
        assert_engines_agree(&op, &[&null_heavy(), &null_heavy()]);
    }

    #[test]
    fn nary_and_binary_operators_match_row_engine() {
        let a = sales();
        let mut b = sales();
        b.sort_by_column("price", true).unwrap();
        assert_engines_agree(&Operator::Concat, &[&a, &b]);
        assert_engines_agree(
            &Operator::Merge {
                column: "price".into(),
                ascending: true,
            },
            &[&b, &b],
        );
        let indexes = Relation::from_ints(&["i"], &[vec![4], vec![0], vec![2]]);
        assert_engines_agree(
            &Operator::ObliviousSelect {
                index_column: "i".into(),
            },
            &[&a, &indexes],
        );
        // Error cases agree too.
        let bad = Relation::from_ints(&["i"], &[vec![99]]);
        assert_engines_agree(
            &Operator::ObliviousSelect {
                index_column: "i".into(),
            },
            &[&a, &bad],
        );
        let neg = Relation::from_ints(&["i"], &[vec![-2]]);
        assert_engines_agree(
            &Operator::ObliviousSelect {
                index_column: "i".into(),
            },
            &[&a, &neg],
        );
    }

    #[test]
    fn passthrough_and_unsupported_match_row_engine() {
        use conclave_ir::party::PartySet;
        let rel = sales();
        for op in [
            Operator::CloseTo,
            Operator::Open {
                recipients: PartySet::singleton(1),
            },
            Operator::Collect {
                recipients: PartySet::singleton(1),
            },
            Operator::RevealTo {
                party: 1,
                columns: Some(vec!["price".into()]),
            },
            Operator::RevealTo {
                party: 1,
                columns: None,
            },
        ] {
            assert_engines_agree(&op, &[&rel]);
        }
        assert!(matches!(
            execute_vectorized(
                &Operator::HybridJoin {
                    left_keys: vec!["companyID".into()],
                    right_keys: vec!["companyID".into()],
                    stp: 1
                },
                &[&rel, &rel]
            ),
            Err(EngineError::Unsupported(_))
        ));
        assert!(execute_vectorized(
            &Operator::Input {
                name: "t".into(),
                party: 1
            },
            &[]
        )
        .is_err());
        assert!(execute_vectorized(&Operator::Concat, &[]).is_err());
        assert!(execute_vectorized(&Operator::Limit { n: 1 }, &[&rel, &rel]).is_err());
        assert!(execute_vectorized(
            &Operator::Merge {
                column: "k".into(),
                ascending: true
            },
            &[]
        )
        .is_err());
    }

    #[test]
    fn float_and_string_data_match_row_engine() {
        let schema = Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("score", DataType::Float),
        ]);
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::Str("b".into()), Value::Float(2.5)],
                vec![Value::Str("a".into()), Value::Float(-1.0)],
                vec![Value::Str("b".into()), Value::Float(0.0)],
            ],
        )
        .unwrap();
        for op in [
            Operator::Filter {
                predicate: Expr::col("score").ge(Expr::lit(0.0)),
            },
            Operator::SortBy {
                column: "name".into(),
                ascending: true,
            },
            Operator::Aggregate {
                group_by: vec!["name".into()],
                func: AggFunc::Sum,
                over: Some("score".into()),
                out: "total".into(),
            },
            Operator::Aggregate {
                group_by: vec![],
                func: AggFunc::Sum,
                over: Some("score".into()),
                out: "total".into(),
            },
            Operator::Distinct {
                columns: vec!["name".into()],
            },
        ] {
            assert_engines_agree(&op, &[&rel]);
        }
    }

    #[test]
    fn min_max_tie_breaking_matches_iterator_semantics() {
        // Int(2) and Float(2.0) compare equal under the total order but are
        // distinct cells, so `assert_eq!` on rows cannot distinguish them;
        // compare the Debug rendering to pin down variant-identical results.
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Float),
        ]);
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(1), Value::Float(2.0)],
                vec![Value::Int(1), Value::Int(2)],
            ],
        )
        .unwrap();
        for (func, group_by) in [
            (AggFunc::Min, vec!["k".to_string()]),
            (AggFunc::Max, vec!["k".to_string()]),
            (AggFunc::Min, vec![]),
            (AggFunc::Max, vec![]),
        ] {
            let op = Operator::Aggregate {
                group_by,
                func,
                over: Some("v".into()),
                out: "m".into(),
            };
            let row = execute(&op, &[&rel]).unwrap();
            let vec = execute_vectorized(&op, &[&rel]).unwrap();
            assert_eq!(
                format!("{:?}", row.rows),
                format!("{:?}", vec.rows),
                "{func}: tie-breaking diverges"
            );
        }
    }

    #[test]
    fn unknown_columns_error_on_both_engines() {
        let rel = sales();
        for op in [
            Operator::Project {
                columns: vec!["zzz".into()],
            },
            Operator::SortBy {
                column: "zzz".into(),
                ascending: true,
            },
            Operator::Aggregate {
                group_by: vec!["zzz".into()],
                func: AggFunc::Count,
                over: None,
                out: "n".into(),
            },
            Operator::Aggregate {
                group_by: vec![],
                func: AggFunc::Sum,
                over: None,
                out: "n".into(),
            },
            Operator::DistinctCount {
                column: "zzz".into(),
                out: "n".into(),
            },
        ] {
            assert_engines_agree(&op, &[&rel]);
        }
    }
}
