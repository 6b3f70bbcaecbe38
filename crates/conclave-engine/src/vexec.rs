//! Vectorized cleartext execution over columnar relations.
//!
//! [`execute_columnar`] is the column-at-a-time counterpart of
//! [`crate::exec::execute`]: the same operators, the same semantics (the
//! differential test suite holds the two engines to cell-for-cell equality),
//! but implemented as tight loops over typed column vectors. Integer-only
//! workloads — the common case in Conclave queries — run entirely over `i64`
//! slices: filters evaluate predicates in batch, aggregations accumulate into
//! per-group slots, and hash joins build primitive-key tables. The narrow
//! operators, `Aggregate` and `Distinct` run as a fused stage of one
//! ([`crate::stage::Pipeline`]), the same kernels a longer stage runs.
//!
//! The three `i64`-keyed tables (the join's build side, the grouped
//! aggregate's slots in [`crate::stage`], `DistinctCount`'s set) hash with
//! `IntKeys`, a
//! multiply-xorshift keyed afresh for every table. Their keys can be join and
//! group-by columns another party chose (the selectively-trusted party runs
//! this engine), and a per-table random key means no input can be built to
//! collide in advance. `Value`-keyed tables keep std's hasher, which hashes
//! an `Int` and an equal `Float` alike.

use crate::columnar::{Column, ColumnarRelation};
use crate::error::{EngineError, EngineResult};
use crate::exec::{col_idx, out_schema};
use crate::relation::Relation;
use crate::stage::Pipeline;
use conclave_ir::ops::Operator;
use conclave_ir::types::Value;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// The hash of the `i64`-keyed tables: a multiply-xorshift keyed per table.
/// A key is xored with `xor` and multiplied by the odd `mul` into 128 bits,
/// whose high half is xored onto the low half; that is multiplied by `mul`
/// again and its high 32 bits xored onto its low ones. Every key bit reaches
/// both ends of the hash (hashbrown takes its bucket from the low bits and
/// its tag from the top seven). The second multiply is needed: with the first
/// alone, keys that differ only in their low bits (a run of negative ids)
/// fall on a handful of tags under about one draw of `mul` in a hundred.
/// Two multiplies instead of SipHash's rounds; the key is drawn from
/// [`RandomState`] once per table.
#[derive(Clone, Copy)]
pub(crate) struct IntKeys {
    mul: u64,
    xor: u64,
}

impl IntKeys {
    /// A fresh key: std's `RandomState` differs from one call to the next.
    pub(crate) fn new() -> Self {
        let seed = RandomState::new();
        IntKeys {
            mul: seed.hash_one(0u8) | 1,
            xor: seed.hash_one(1u8),
        }
    }
}

impl BuildHasher for IntKeys {
    type Hasher = IntHasher;

    fn build_hasher(&self) -> IntHasher {
        IntHasher {
            keys: *self,
            hash: 0,
        }
    }
}

/// [`IntKeys`]'s hasher; it hashes one `i64` and nothing else.
pub(crate) struct IntHasher {
    keys: IntKeys,
    hash: u64,
}

impl Hasher for IntHasher {
    fn write_i64(&mut self, key: i64) {
        let IntKeys { mul, xor } = self.keys;
        let product = u128::from(key as u64 ^ xor) * u128::from(mul);
        let folded = (product as u64 ^ (product >> 64) as u64).wrapping_mul(mul);
        self.hash = folded ^ (folded >> 32);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("IntKeys hashes i64 keys only")
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

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
        // The narrow operators, aggregate and distinct are stages of one.
        Operator::Project { .. }
        | Operator::Filter { .. }
        | Operator::Multiply { .. }
        | Operator::Divide { .. }
        | Operator::Aggregate { .. }
        | Operator::Distinct { .. } => {
            need(op, inputs, 1)?;
            Pipeline::new(&[op], &inputs[0].schema)
                .expect("a narrow or tail operator is a stage of one")
                .run_whole(inputs[0])
                .map(|part| part.output)
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
            sort_by(inputs[0], column, *ascending)
        }
        Operator::Limit { n } => {
            need(op, inputs, 1)?;
            let end = (*n).min(inputs[0].num_rows());
            Ok(inputs[0].slice(0, end))
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

/// Executes one operator on row-major inputs through the vectorized engine:
/// converts to columnar form, runs [`execute_columnar`], converts back — the
/// differential suites' entry point, comparable cell for cell with
/// [`crate::execute`].
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
        .map(|c| col_idx(&left.schema, c))
        .collect::<EngineResult<_>>()?;
    let rk: Vec<usize> = right_keys
        .iter()
        .map(|c| col_idx(&right.schema, c))
        .collect::<EngineResult<_>>()?;
    let op = Operator::Join {
        left_keys: left_keys.to_vec(),
        right_keys: right_keys.to_vec(),
    };
    let schema = out_schema(&op, &[&left.schema, &right.schema]);

    let (left_idx, right_idx) = match (single_int_key(left, &lk), single_int_key(right, &rk)) {
        // Primitive-key fast path: single integer key on both sides.
        (Some(lkeys), Some(rkeys)) => {
            let mut table: HashMap<i64, Vec<u32>, IntKeys> =
                HashMap::with_capacity_and_hasher(rkeys.len(), IntKeys::new());
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

fn sort_by(
    rel: &ColumnarRelation,
    column: &str,
    ascending: bool,
) -> EngineResult<ColumnarRelation> {
    let idx = col_idx(&rel.schema, column)?;
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

fn distinct_count(
    rel: &ColumnarRelation,
    column: &str,
    out: &str,
) -> EngineResult<ColumnarRelation> {
    let idx = col_idx(&rel.schema, column)?;
    let count = if let Some(ints) = rel.column(idx).as_ints() {
        let mut seen: HashSet<i64, IntKeys> =
            HashSet::with_capacity_and_hasher(ints.len(), IntKeys::new());
        seen.extend(ints);
        seen.len()
    } else {
        let seen: HashSet<Value> = (0..rel.num_rows()).map(|i| rel.value(i, idx)).collect();
        seen.len()
    };
    let op = Operator::DistinctCount {
        column: column.to_string(),
        out: out.to_string(),
    };
    let schema = out_schema(&op, &[&rel.schema]);
    ColumnarRelation::with_columns(schema, vec![Column::ints(vec![count as i64])])
}

fn enumerate(rel: &ColumnarRelation, out: &str) -> EngineResult<ColumnarRelation> {
    let op = Operator::Enumerate {
        out: out.to_string(),
    };
    let schema = out_schema(&op, &[&rel.schema]);
    let mut cols: Vec<Column> = rel.columns().to_vec();
    cols.push(Column::ints((0..rel.num_rows() as i64).collect()));
    ColumnarRelation::with_columns(schema, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::{AggFunc, Operand};
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
    fn concat_matches_row_engine() {
        let a = sales();
        let mut b = sales();
        b.sort_by_column("price", true).unwrap();
        assert_engines_agree(&Operator::Concat, &[&a, &b]);
    }

    #[test]
    fn passthrough_and_unsupported_match_row_engine() {
        use conclave_ir::party::PartySet;
        let rel = sales();
        assert_engines_agree(
            &Operator::Collect {
                recipients: PartySet::singleton(1),
            },
            &[&rel],
        );
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

    #[test]
    fn the_integer_hash_spreads_structured_keys_over_both_ends_and_is_keyed() {
        let families: [(&str, Vec<i64>); 3] = [
            ("k << 32", (0..4096).map(|k| k << 32).collect()),
            ("k << 48", (0..4096).map(|k| k << 48).collect()),
            ("negative", (1..=4096).map(|k| -k).collect()),
        ];
        for (name, keys) in families {
            let keyed = IntKeys::new();
            // Hashbrown's bucket comes from the low bits, its tag from the
            // top seven: count the keys on every value of the low twelve
            // bits (fair share 1) and of the top seven (fair share 32).
            let mut low = [0usize; 1 << 12];
            let mut top = [0usize; 1 << 7];
            for k in keys {
                let hash = keyed.hash_one(k);
                low[(hash & 0xfff) as usize] += 1;
                top[(hash >> 57) as usize] += 1;
            }
            // A random hash passes 16 in the low bits or 3× the fair share
            // in the top ones with odds below 1e-11; over 20 000 draws of
            // `IntKeys` the worst this one read was 11 and 66.
            let most_low = low.into_iter().max().unwrap_or(0);
            let most_top = top.into_iter().max().unwrap_or(0);
            assert!(most_low <= 16, "{name}: {most_low} keys on one low value");
            assert!(most_top <= 96, "{name}: {most_top} keys on one tag");
        }
        let (first, second) = (IntKeys::new(), IntKeys::new());
        assert_ne!(first.hash_one(42i64), second.hash_one(42i64));
    }
}
