//! Cleartext execution of relational operators.
//!
//! [`execute`] evaluates one operator over materialized input relations. It
//! implements every operator that can run in the clear, including the
//! "physical" operators the compiler inserts (enumerate, select-by-index,
//! reveal, open). Hybrid operators are *protocols*, not single-site
//! operators, so they are rejected here and executed by the driver in
//! `conclave-core` (which combines MPC steps with cleartext steps from this
//! module).

use crate::relation::{group_indices, Relation};
use conclave_ir::expr::Expr;
use conclave_ir::ops::{AggFunc, Operand, Operator};
use conclave_ir::schema::Schema;
use conclave_ir::types::Value;
use std::collections::HashMap;

pub use crate::error::{EngineError, EngineResult};

fn need(op: &Operator, inputs: &[&Relation], n: usize) -> EngineResult<()> {
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

pub(crate) fn col_idx(schema: &Schema, name: &str) -> EngineResult<usize> {
    schema
        .index_of(name)
        .ok_or_else(|| EngineError::UnknownColumn(name.to_string()))
}

/// Resolves column names against a schema, in order.
pub fn key_indices(schema: &Schema, names: &[String]) -> EngineResult<Vec<usize>> {
    names.iter().map(|c| col_idx(schema, c)).collect()
}

/// Executes one operator over its inputs, producing the output relation.
pub fn execute(op: &Operator, inputs: &[&Relation]) -> EngineResult<Relation> {
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
            Relation::concat(inputs)
        }
        Operator::Project { columns } => {
            need(op, inputs, 1)?;
            project(&inputs[0].schema, &inputs[0].rows, columns)
        }
        Operator::Filter { predicate } => {
            need(op, inputs, 1)?;
            filter(&inputs[0].schema, &inputs[0].rows, predicate)
        }
        Operator::Aggregate {
            group_by,
            func,
            over,
            out,
        } => {
            need(op, inputs, 1)?;
            aggregate(
                &inputs[0].schema,
                &inputs[0].rows,
                group_by,
                *func,
                over.as_deref(),
                out,
            )
        }
        Operator::Multiply { out, operands } => {
            need(op, inputs, 1)?;
            multiply(&inputs[0].schema, &inputs[0].rows, out, operands)
        }
        Operator::Divide { out, num, den } => {
            need(op, inputs, 1)?;
            divide(&inputs[0].schema, &inputs[0].rows, out, num, den)
        }
        Operator::Distinct { columns } => {
            need(op, inputs, 1)?;
            distinct(&inputs[0].schema, &inputs[0].rows, columns)
        }
        Operator::Join {
            left_keys,
            right_keys,
            ..
        } => {
            need(op, inputs, 2)?;
            join(inputs[0], inputs[1], left_keys, right_keys)
        }
        Operator::SortBy { column, ascending } => {
            need(op, inputs, 1)?;
            let mut rel = inputs[0].clone();
            rel.sort_by_column(column, *ascending)?;
            Ok(rel)
        }
        Operator::Limit { n } => {
            need(op, inputs, 1)?;
            let end = (*n).min(inputs[0].num_rows());
            Ok(Relation {
                schema: inputs[0].schema.clone(),
                rows: inputs[0].rows[..end].to_vec(),
            })
        }
        Operator::DistinctCount { column, out } => {
            need(op, inputs, 1)?;
            distinct_count(inputs[0], column, out)
        }
        Operator::Collect { .. } => {
            need(op, inputs, 1)?;
            Ok(inputs[0].clone())
        }
        Operator::Enumerate { out } => {
            need(op, inputs, 1)?;
            enumerate(inputs[0], out)
        }
        Operator::HybridJoin { .. }
        | Operator::PublicJoin { .. }
        | Operator::HybridAggregate { .. } => Err(EngineError::Unsupported(op.name().to_string())),
    }
}

pub(crate) fn out_schema(op: &Operator, inputs: &[&Schema]) -> Schema {
    let schemas: Vec<Schema> = inputs.iter().map(|s| (*s).clone()).collect();
    op.output_schema(&schemas)
        .unwrap_or_else(|_| inputs[0].clone())
}

fn project(schema: &Schema, rows: &[Vec<Value>], columns: &[String]) -> EngineResult<Relation> {
    let idxs = key_indices(schema, columns)?;
    let op = Operator::Project {
        columns: columns.to_vec(),
    };
    let schema = out_schema(&op, &[schema]);
    let rows = rows
        .iter()
        .map(|r| idxs.iter().map(|&i| r[i].clone()).collect())
        .collect();
    Ok(Relation { schema, rows })
}

fn filter(schema: &Schema, rows: &[Vec<Value>], predicate: &Expr) -> EngineResult<Relation> {
    let mut kept = Vec::new();
    for row in rows {
        let v = predicate
            .eval(schema, row)
            .map_err(|e| EngineError::Eval(e.to_string()))?;
        if v.as_bool().unwrap_or(false) {
            kept.push(row.clone());
        }
    }
    Ok(Relation {
        schema: schema.clone(),
        rows: kept,
    })
}

/// Hash equi-join (inner).
fn join(
    left: &Relation,
    right: &Relation,
    left_keys: &[String],
    right_keys: &[String],
) -> EngineResult<Relation> {
    let lk = key_indices(&left.schema, left_keys)?;
    let rk = key_indices(&right.schema, right_keys)?;
    let op = Operator::Join {
        left_keys: left_keys.to_vec(),
        right_keys: right_keys.to_vec(),
    };
    let schema = out_schema(&op, &[&left.schema, &right.schema]);

    // Build hash table on the right side.
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, row) in right.rows.iter().enumerate() {
        let key: Vec<Value> = rk.iter().map(|&c| row[c].clone()).collect();
        table.entry(key).or_default().push(i);
    }
    let right_keep: Vec<usize> = (0..right.num_cols()).filter(|i| !rk.contains(i)).collect();

    let mut rows = Vec::new();
    for lrow in &left.rows {
        let key: Vec<Value> = lk.iter().map(|&c| lrow[c].clone()).collect();
        if let Some(matches) = table.get(&key) {
            for &ri in matches {
                let mut out = lrow.clone();
                for &c in &right_keep {
                    out.push(right.rows[ri][c].clone());
                }
                rows.push(out);
            }
        }
    }
    Ok(Relation { schema, rows })
}

fn aggregate(
    schema: &Schema,
    rows: &[Vec<Value>],
    group_by: &[String],
    func: AggFunc,
    over: Option<&str>,
    out: &str,
) -> EngineResult<Relation> {
    let key_cols = key_indices(schema, group_by)?;
    let over_col = match over {
        Some(o) => Some(col_idx(schema, o)?),
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
    let schema = out_schema(&op, &[schema]);

    let groups = if key_cols.is_empty() {
        vec![(Vec::new(), (0..rows.len()).collect::<Vec<_>>())]
    } else {
        group_indices(rows, &key_cols)
    };

    let mut out_rows = Vec::new();
    for (key, idxs) in groups {
        let agg_value = match func {
            AggFunc::Count => Value::Int(idxs.len() as i64),
            AggFunc::Sum => {
                let c = over_col.expect("checked above");
                let mut acc = Value::Int(0);
                for &i in &idxs {
                    acc = acc.add(&rows[i][c]);
                }
                acc
            }
            AggFunc::Min => {
                let c = over_col.expect("checked above");
                idxs.iter()
                    .map(|&i| rows[i][c].clone())
                    .min()
                    .unwrap_or(Value::Null)
            }
            AggFunc::Max => {
                let c = over_col.expect("checked above");
                idxs.iter()
                    .map(|&i| rows[i][c].clone())
                    .max()
                    .unwrap_or(Value::Null)
            }
        };
        let mut row = key;
        row.push(agg_value);
        out_rows.push(row);
    }
    // A scalar aggregate over an empty relation still yields one row (the
    // additive identity), matching SQL's SUM semantics under COALESCE and the
    // behaviour the downstream HHI computation expects.
    if out_rows.is_empty() && key_cols.is_empty() {
        out_rows.push(vec![match func {
            AggFunc::Count => Value::Int(0),
            AggFunc::Sum => Value::Int(0),
            _ => Value::Null,
        }]);
    }
    Ok(Relation {
        schema,
        rows: out_rows,
    })
}

fn operand_value(schema: &Schema, row: &[Value], operand: &Operand) -> EngineResult<Value> {
    match operand {
        Operand::Col(c) => {
            let idx = col_idx(schema, c)?;
            Ok(row[idx].clone())
        }
        Operand::Lit(v) => Ok(v.clone()),
    }
}

fn multiply(
    schema: &Schema,
    rows: &[Vec<Value>],
    out: &str,
    operands: &[Operand],
) -> EngineResult<Relation> {
    let op = Operator::Multiply {
        out: out.to_string(),
        operands: operands.to_vec(),
    };
    let replace_idx = schema.index_of(out);
    let mut out_rows = Vec::with_capacity(rows.len());
    for row in rows {
        let mut acc = Value::Int(1);
        for o in operands {
            acc = acc.mul(&operand_value(schema, row, o)?);
        }
        let mut new_row = row.clone();
        match replace_idx {
            Some(i) => new_row[i] = acc,
            None => new_row.push(acc),
        }
        out_rows.push(new_row);
    }
    Ok(Relation {
        schema: out_schema(&op, &[schema]),
        rows: out_rows,
    })
}

fn divide(
    schema: &Schema,
    rows: &[Vec<Value>],
    out: &str,
    num: &Operand,
    den: &Operand,
) -> EngineResult<Relation> {
    let op = Operator::Divide {
        out: out.to_string(),
        num: num.clone(),
        den: den.clone(),
    };
    let replace_idx = schema.index_of(out);
    let mut out_rows = Vec::with_capacity(rows.len());
    for row in rows {
        let n = operand_value(schema, row, num)?;
        let d = operand_value(schema, row, den)?;
        let v = n.div(&d);
        let mut new_row = row.clone();
        match replace_idx {
            Some(i) => new_row[i] = v,
            None => new_row.push(v),
        }
        out_rows.push(new_row);
    }
    Ok(Relation {
        schema: out_schema(&op, &[schema]),
        rows: out_rows,
    })
}

fn distinct(schema: &Schema, rows: &[Vec<Value>], columns: &[String]) -> EngineResult<Relation> {
    let proj = project(schema, rows, columns)?;
    let mut seen = std::collections::HashSet::new();
    let mut rows = Vec::new();
    for row in proj.rows {
        if seen.insert(row.clone()) {
            rows.push(row);
        }
    }
    Ok(Relation {
        schema: proj.schema,
        rows,
    })
}

fn distinct_count(rel: &Relation, column: &str, out: &str) -> EngineResult<Relation> {
    let idx = col_idx(&rel.schema, column)?;
    let mut seen = std::collections::HashSet::new();
    for row in &rel.rows {
        seen.insert(row[idx].clone());
    }
    let op = Operator::DistinctCount {
        column: column.to_string(),
        out: out.to_string(),
    };
    let schema = out_schema(&op, &[&rel.schema]);
    Ok(Relation {
        schema,
        rows: vec![vec![Value::Int(seen.len() as i64)]],
    })
}

fn enumerate(rel: &Relation, out: &str) -> EngineResult<Relation> {
    let op = Operator::Enumerate {
        out: out.to_string(),
    };
    let schema = out_schema(&op, &[&rel.schema]);
    let rows = rel
        .rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut row = r.clone();
            row.push(Value::Int(i as i64));
            row
        })
        .collect();
    Ok(Relation { schema, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::expr::Expr;
    use conclave_ir::party::PartySet;

    fn sales() -> Relation {
        Relation::from_ints(
            &["companyID", "price"],
            &[vec![1, 10], vec![2, 5], vec![1, 20], vec![3, 7], vec![2, 5]],
        )
    }

    #[test]
    fn concat_appends_rows() {
        let a = sales();
        let b = sales();
        let out = execute(&Operator::Concat, &[&a, &b]).unwrap();
        assert_eq!(out.num_rows(), 10);
        assert!(execute(&Operator::Concat, &[]).is_err());
    }

    #[test]
    fn concat_keeps_input_order_across_uneven_and_empty_inputs() {
        let a = Relation::from_ints(&["k", "v"], &[vec![1, 10], vec![2, 20], vec![3, 30]]);
        let empty = Relation::from_ints(&["k", "v"], &[]);
        let c = Relation::from_ints(&["k", "v"], &[vec![4, 40]]);
        let out = execute(&Operator::Concat, &[&a, &empty, &c]).unwrap();
        assert_eq!(out.schema, a.schema);
        assert_eq!(out.rows, [a.rows.clone(), c.rows.clone()].concat());
        let narrow = Relation::from_ints(&["k"], &[vec![5]]);
        assert!(matches!(
            execute(&Operator::Concat, &[&a, &narrow]),
            Err(EngineError::Eval(_))
        ));
    }

    #[test]
    fn project_selects_and_reorders() {
        let r = sales();
        let out = execute(
            &Operator::Project {
                columns: vec!["price".into(), "companyID".into()],
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(out.schema.names(), vec!["price", "companyID"]);
        assert_eq!(out.rows[0], vec![Value::Int(10), Value::Int(1)]);
        assert!(execute(
            &Operator::Project {
                columns: vec!["zzz".into()]
            },
            &[&r]
        )
        .is_err());
    }

    #[test]
    fn filter_drops_rows() {
        let r = sales();
        let out = execute(
            &Operator::Filter {
                predicate: Expr::col("price").gt(Expr::lit(6)),
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn join_matches_keys_and_drops_right_key() {
        let left =
            Relation::from_ints(&["ssn", "zip"], &[vec![1, 100], vec![2, 200], vec![3, 300]]);
        let right = Relation::from_ints(
            &["ssn", "score"],
            &[vec![2, 700], vec![3, 650], vec![3, 660], vec![9, 1]],
        );
        let out = execute(
            &Operator::Join {
                left_keys: vec!["ssn".into()],
                right_keys: vec!["ssn".into()],
            },
            &[&left, &right],
        )
        .unwrap();
        assert_eq!(out.schema.names(), vec!["ssn", "zip", "score"]);
        assert_eq!(out.num_rows(), 3);
        let ssns: Vec<i64> = out.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ssns, vec![2, 3, 3]);
    }

    #[test]
    fn grouped_aggregates() {
        let r = sales();
        let sum = execute(
            &Operator::Aggregate {
                group_by: vec!["companyID".into()],
                func: AggFunc::Sum,
                over: Some("price".into()),
                out: "rev".into(),
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(sum.num_rows(), 3);
        let rev: HashMap<i64, i64> = sum
            .rows
            .iter()
            .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
            .collect();
        assert_eq!(rev[&1], 30);
        assert_eq!(rev[&2], 10);
        assert_eq!(rev[&3], 7);

        let count = execute(
            &Operator::Aggregate {
                group_by: vec!["companyID".into()],
                func: AggFunc::Count,
                over: None,
                out: "n".into(),
            },
            &[&r],
        )
        .unwrap();
        let n: HashMap<i64, i64> = count
            .rows
            .iter()
            .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
            .collect();
        assert_eq!(n[&2], 2);

        let min = execute(
            &Operator::Aggregate {
                group_by: vec![],
                func: AggFunc::Min,
                over: Some("price".into()),
                out: "m".into(),
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(min.scalar(), Some(&Value::Int(5)));
        let max = execute(
            &Operator::Aggregate {
                group_by: vec![],
                func: AggFunc::Max,
                over: Some("price".into()),
                out: "m".into(),
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(max.scalar(), Some(&Value::Int(20)));
    }

    #[test]
    fn scalar_sum_of_empty_relation_is_zero() {
        let r = Relation::from_ints(&["v"], &[]);
        let out = execute(
            &Operator::Aggregate {
                group_by: vec![],
                func: AggFunc::Sum,
                over: Some("v".into()),
                out: "t".into(),
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(out.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn multiply_and_divide_append_or_replace() {
        let r = sales();
        let sq = execute(
            &Operator::Multiply {
                out: "p2".into(),
                operands: vec![Operand::col("price"), Operand::col("price")],
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(sq.rows[0][2], Value::Int(100));
        // Replacing an existing column.
        let scaled = execute(
            &Operator::Multiply {
                out: "price".into(),
                operands: vec![Operand::col("price"), Operand::lit(2)],
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(scaled.rows[0][1], Value::Int(20));
        assert_eq!(scaled.num_cols(), 2);

        let div = execute(
            &Operator::Divide {
                out: "ratio".into(),
                num: Operand::col("price"),
                den: Operand::lit(4),
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(div.rows[0][2], Value::Float(2.5));
    }

    #[test]
    fn limit_keeps_the_first_n_rows_like_the_vectorized_engine() {
        let r = sales();
        for n in [0, 2, r.num_rows(), r.num_rows() + 5] {
            let op = Operator::Limit { n };
            let limited = execute(&op, &[&r]).unwrap();
            assert_eq!(limited.rows, r.rows[..n.min(r.num_rows())], "n = {n}");
            let vectorized = crate::vexec::execute_vectorized(&op, &[&r]).unwrap();
            assert_eq!(limited, vectorized, "n = {n}");
        }
    }

    #[test]
    fn sort_limit_distinct() {
        let r = sales();
        let sorted = execute(
            &Operator::SortBy {
                column: "price".into(),
                ascending: false,
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(sorted.rows[0][1], Value::Int(20));
        let limited = execute(&Operator::Limit { n: 2 }, &[&sorted]).unwrap();
        assert_eq!(limited.num_rows(), 2);
        let d = execute(
            &Operator::Distinct {
                columns: vec!["companyID".into()],
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(d.num_rows(), 3);
        let dc = execute(
            &Operator::DistinctCount {
                column: "price".into(),
                out: "n".into(),
            },
            &[&r],
        )
        .unwrap();
        assert_eq!(dc.scalar(), Some(&Value::Int(4)));
    }

    #[test]
    fn enumerate_appends_the_row_index() {
        let r = sales();
        let idx = execute(&Operator::Enumerate { out: "idx".into() }, &[&r]).unwrap();
        assert_eq!(idx.rows[3][2], Value::Int(3));
    }

    #[test]
    fn collect_passes_its_input_through() {
        let r = sales();
        let op = Operator::Collect {
            recipients: PartySet::singleton(1),
        };
        assert_eq!(execute(&op, &[&r]).unwrap(), r);
    }

    #[test]
    fn unsupported_operators_are_rejected() {
        let r = sales();
        assert!(matches!(
            execute(
                &Operator::HybridJoin {
                    left_keys: vec!["companyID".into()],
                    right_keys: vec!["companyID".into()],
                    stp: 1
                },
                &[&r, &r]
            ),
            Err(EngineError::Unsupported(_))
        ));
        assert!(execute(
            &Operator::Input {
                name: "t".into(),
                party: 1
            },
            &[]
        )
        .is_err());
        // Wrong arity.
        assert!(execute(&Operator::Limit { n: 1 }, &[&r, &r]).is_err());
    }

    #[test]
    fn empty_relations_flow_through_every_unary_operator() {
        let empty = Relation::from_ints(&["companyID", "price"], &[]);
        for op in [
            Operator::Project {
                columns: vec!["price".into()],
            },
            Operator::Filter {
                predicate: Expr::col("price").gt(Expr::lit(0)),
            },
            Operator::SortBy {
                column: "price".into(),
                ascending: true,
            },
            Operator::Limit { n: 5 },
            Operator::Distinct {
                columns: vec!["companyID".into()],
            },
            Operator::Enumerate { out: "i".into() },
            Operator::Multiply {
                out: "x".into(),
                operands: vec![Operand::col("price"), Operand::lit(2)],
            },
            Operator::Divide {
                out: "d".into(),
                num: Operand::col("price"),
                den: Operand::lit(2),
            },
        ] {
            let out = execute(&op, &[&empty]).unwrap_or_else(|e| panic!("{op}: {e}"));
            assert_eq!(out.num_rows(), 0, "{op} should produce no rows");
        }
        // Grouped aggregation over an empty input yields zero groups...
        let grouped = execute(
            &Operator::Aggregate {
                group_by: vec!["companyID".into()],
                func: AggFunc::Sum,
                over: Some("price".into()),
                out: "rev".into(),
            },
            &[&empty],
        )
        .unwrap();
        assert_eq!(grouped.num_rows(), 0);
        assert_eq!(grouped.schema.names(), vec!["companyID", "rev"]);
        // ...while distinct-count still yields its single scalar row.
        let dc = execute(
            &Operator::DistinctCount {
                column: "price".into(),
                out: "n".into(),
            },
            &[&empty],
        )
        .unwrap();
        assert_eq!(dc.scalar(), Some(&Value::Int(0)));
        // Joins against an empty side are empty.
        let some = sales();
        let join = Operator::Join {
            left_keys: vec!["companyID".into()],
            right_keys: vec!["companyID".into()],
        };
        assert_eq!(execute(&join, &[&empty, &some]).unwrap().num_rows(), 0);
        assert_eq!(execute(&join, &[&some, &empty]).unwrap().num_rows(), 0);
    }

    #[test]
    fn all_duplicate_join_keys_produce_the_full_cross_product() {
        let left = Relation::from_ints(&["k", "a"], &[vec![1, 1], vec![1, 2], vec![1, 3]]);
        let right = Relation::from_ints(&["k", "b"], &[vec![1, 10], vec![1, 20]]);
        let out = execute(
            &Operator::Join {
                left_keys: vec!["k".into()],
                right_keys: vec!["k".into()],
            },
            &[&left, &right],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 6);
        // Left-major order, right matches in insertion order.
        assert_eq!(
            out.rows[0],
            vec![Value::Int(1), Value::Int(1), Value::Int(10)]
        );
        assert_eq!(
            out.rows[1],
            vec![Value::Int(1), Value::Int(1), Value::Int(20)]
        );
    }

    #[test]
    fn single_row_inputs_are_handled_by_every_operator() {
        let one = Relation::from_ints(&["companyID", "price"], &[vec![2, 9]]);
        let sorted = execute(
            &Operator::SortBy {
                column: "price".into(),
                ascending: false,
            },
            &[&one],
        )
        .unwrap();
        assert_eq!(sorted.rows, one.rows);
        let agg = execute(
            &Operator::Aggregate {
                group_by: vec!["companyID".into()],
                func: AggFunc::Max,
                over: Some("price".into()),
                out: "m".into(),
            },
            &[&one],
        )
        .unwrap();
        assert_eq!(agg.rows, vec![vec![Value::Int(2), Value::Int(9)]]);
        let joined = execute(
            &Operator::Join {
                left_keys: vec!["companyID".into()],
                right_keys: vec!["companyID".into()],
            },
            &[&one, &one],
        )
        .unwrap();
        assert_eq!(joined.num_rows(), 1);
    }

    #[test]
    fn null_heavy_columns_follow_sql_like_semantics() {
        let schema = Schema::new(vec![
            conclave_ir::schema::ColumnDef::new("k", conclave_ir::types::DataType::Int),
            conclave_ir::schema::ColumnDef::new("v", conclave_ir::types::DataType::Int),
        ]);
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(1), Value::Int(5)],
                vec![Value::Int(2), Value::Int(3)],
            ],
        )
        .unwrap();
        // A null poisons the sum of its group.
        let sum = execute(
            &Operator::Aggregate {
                group_by: vec!["k".into()],
                func: AggFunc::Sum,
                over: Some("v".into()),
                out: "s".into(),
            },
            &[&rel],
        )
        .unwrap();
        let by_key: HashMap<i64, Value> = sum
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].clone()))
            .collect();
        assert_eq!(by_key[&1], Value::Null);
        assert_eq!(by_key[&2], Value::Int(3));
        // NULL sorts below every value and never passes a comparison filter.
        let sorted = execute(
            &Operator::SortBy {
                column: "v".into(),
                ascending: true,
            },
            &[&rel],
        )
        .unwrap();
        assert!(sorted.rows[0][1].is_null());
        let filtered = execute(
            &Operator::Filter {
                predicate: Expr::col("v").gt(Expr::lit(-1000)),
            },
            &[&rel],
        )
        .unwrap();
        assert_eq!(filtered.num_rows(), 2);
        // Null join keys compare equal to each other under the total order,
        // so a null-keyed row matches its counterpart.
        let nulled_keys = Relation::new(
            Schema::ints(&["k", "v"]),
            vec![vec![Value::Null, Value::Int(1)]],
        )
        .unwrap();
        let join = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
        };
        let out = execute(&join, &[&nulled_keys, &nulled_keys]).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn error_display() {
        let e = EngineError::UnknownColumn("x".into());
        assert!(e.to_string().contains('x'));
        let e = EngineError::Arity {
            op: "join".into(),
            expected: "2".into(),
            got: 1,
        };
        assert!(e.to_string().contains("join"));
        assert!(EngineError::Unsupported("h".into())
            .to_string()
            .contains('h'));
        assert!(EngineError::Eval("boom".into())
            .to_string()
            .contains("boom"));
    }
}
