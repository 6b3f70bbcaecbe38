//! Relational operators.
//!
//! The operator set mirrors the paper's prototype (§6): table inputs,
//! `concat`, `project`, `filter`, `join`, grouped and scalar `aggregate`,
//! column arithmetic (`multiply`, `divide`), sorting, limits and distinct
//! counts — plus the *physical* operators: the three hybrid operators of §5.3,
//! which the compiler inserts, and the enumeration a hybrid join's STP runs.
//! The MPC building blocks that have no query form (oblivious selection and
//! merge) are functions of `conclave_mpc::operators`, not operators.

use crate::error::{IrError, IrResult};
use crate::expr::Expr;
use crate::party::{PartyId, PartySet};
use crate::schema::{ColumnDef, Schema};
use crate::types::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-output-column dependency list: each entry pairs an output column name
/// with the `(input_index, column_name)` pairs it depends on.
pub type ColumnDeps = Vec<(String, Vec<(usize, String)>)>;

/// Aggregation functions supported by `aggregate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFunc {
    /// Sum of the aggregated column.
    Sum,
    /// Count of rows in the group.
    Count,
    /// Minimum of the aggregated column.
    Min,
    /// Maximum of the aggregated column.
    Max,
}

impl AggFunc {
    /// Returns `true` if the function needs an `over` column (everything but
    /// `COUNT`).
    pub fn needs_over(self) -> bool {
        !matches!(self, AggFunc::Count)
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// A column reference or literal operand for column arithmetic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// Reference to a column of the input relation.
    Col(String),
    /// A scalar literal.
    Lit(Value),
}

impl Operand {
    /// Column operand.
    pub fn col(name: impl Into<String>) -> Self {
        Operand::Col(name.into())
    }

    /// Literal operand.
    pub fn lit(v: impl Into<Value>) -> Self {
        Operand::Lit(v.into())
    }

    /// Name of the referenced column, if any.
    pub fn column_name(&self) -> Option<&str> {
        match self {
            Operand::Col(c) => Some(c),
            Operand::Lit(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Col(c) => write!(f, "{c}"),
            Operand::Lit(v) => write!(f, "{v}"),
        }
    }
}

/// Where a DAG node executes after compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecSite {
    /// Not yet decided (fresh query, before compilation).
    Undecided,
    /// Local cleartext processing at the given party.
    Local(PartyId),
    /// Secure multi-party computation across all computing parties.
    Mpc,
}

impl ExecSite {
    /// Returns `true` for MPC execution.
    pub fn is_mpc(self) -> bool {
        matches!(self, ExecSite::Mpc)
    }

    /// Returns `true` for cleartext execution at one party.
    pub fn is_cleartext(self) -> bool {
        matches!(self, ExecSite::Local(_))
    }
}

impl fmt::Display for ExecSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecSite::Undecided => write!(f, "?"),
            ExecSite::Local(p) => write!(f, "local@P{p}"),
            ExecSite::Mpc => write!(f, "mpc"),
        }
    }
}

/// A relational operator. Each DAG node holds exactly one operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operator {
    /// Leaf: an input relation stored at `party` with the node's schema.
    Input {
        /// Logical relation name.
        name: String,
        /// Owning party (the `at=` annotation of Listings 1–2).
        party: PartyId,
    },
    /// Duplicate-preserving union of the inputs (same schema).
    Concat,
    /// Keep (and reorder) the named columns.
    Project {
        /// Output columns in order.
        columns: Vec<String>,
    },
    /// Keep rows satisfying the predicate.
    Filter {
        /// Boolean predicate over the input schema.
        predicate: Expr,
    },
    /// Inner equi-join of two inputs on the given key columns.
    Join {
        /// Join key columns of the left input.
        left_keys: Vec<String>,
        /// Join key columns of the right input.
        right_keys: Vec<String>,
    },
    /// Grouped (or scalar, if `group_by` is empty) aggregation.
    Aggregate {
        /// Group-by key columns (empty for a scalar aggregate).
        group_by: Vec<String>,
        /// Aggregation function.
        func: AggFunc,
        /// Column aggregated over (`None` only for COUNT).
        over: Option<String>,
        /// Name of the output aggregate column.
        out: String,
    },
    /// Append `out` = product of the operands (column values / scalars).
    Multiply {
        /// Name of the new column.
        out: String,
        /// Factors.
        operands: Vec<Operand>,
    },
    /// Append `out` = `num` / `den`.
    Divide {
        /// Name of the new column.
        out: String,
        /// Numerator.
        num: Operand,
        /// Denominator.
        den: Operand,
    },
    /// Sort the relation by a column.
    SortBy {
        /// Sort key column.
        column: String,
        /// Ascending order if `true`.
        ascending: bool,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Row budget.
        n: usize,
    },
    /// Remove duplicate rows, considering only the named columns.
    Distinct {
        /// Columns defining row identity.
        columns: Vec<String>,
    },
    /// Count distinct values of `column` into a single-row relation.
    DistinctCount {
        /// Column whose distinct values are counted.
        column: String,
        /// Name of the output count column.
        out: String,
    },
    /// Leaf: reveal the final relation to the recipients in cleartext.
    Collect {
        /// Parties receiving the query output.
        recipients: PartySet,
    },

    // ------------------------------------------------------------------
    // Physical operators. The hybrid pass inserts the three hybrids, and
    // `hybrid_exec` runs `Enumerate` as the STP's step.
    // ------------------------------------------------------------------
    /// Append a row-index column `out` (0-based, in current row order).
    Enumerate {
        /// Name of the index column.
        out: String,
    },
    /// Hybrid MPC–cleartext join using an STP (§5.3, Figure 3).
    HybridJoin {
        /// Join key columns of the left input.
        left_keys: Vec<String>,
        /// Join key columns of the right input.
        right_keys: Vec<String>,
        /// Selectively-trusted party performing the cleartext join.
        stp: PartyId,
    },
    /// Join whose key columns are public; a helper party joins in the clear.
    PublicJoin {
        /// Join key columns of the left input.
        left_keys: Vec<String>,
        /// Join key columns of the right input.
        right_keys: Vec<String>,
        /// Party chosen to perform the cleartext join.
        helper: PartyId,
    },
    /// Hybrid MPC–cleartext aggregation using an STP (§5.3).
    HybridAggregate {
        /// Group-by key columns.
        group_by: Vec<String>,
        /// Aggregation function.
        func: AggFunc,
        /// Column aggregated over (`None` only for COUNT).
        over: Option<String>,
        /// Name of the output aggregate column.
        out: String,
        /// Selectively-trusted party performing the cleartext sort.
        stp: PartyId,
    },
}

impl Operator {
    /// Short name of the operator, used in plans and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Operator::Input { .. } => "input",
            Operator::Concat => "concat",
            Operator::Project { .. } => "project",
            Operator::Filter { .. } => "filter",
            Operator::Join { .. } => "join",
            Operator::Aggregate { .. } => "aggregate",
            Operator::Multiply { .. } => "multiply",
            Operator::Divide { .. } => "divide",
            Operator::SortBy { .. } => "sort_by",
            Operator::Limit { .. } => "limit",
            Operator::Distinct { .. } => "distinct",
            Operator::DistinctCount { .. } => "distinct_count",
            Operator::Collect { .. } => "collect",
            Operator::Enumerate { .. } => "enumerate",
            Operator::HybridJoin { .. } => "hybrid_join",
            Operator::PublicJoin { .. } => "public_join",
            Operator::HybridAggregate { .. } => "hybrid_aggregate",
        }
    }

    /// Number of input relations the operator expects; `None` means "one or
    /// more" (variadic).
    pub fn arity(&self) -> Option<usize> {
        match self {
            Operator::Input { .. } => Some(0),
            Operator::Concat => None,
            Operator::Join { .. } | Operator::HybridJoin { .. } | Operator::PublicJoin { .. } => {
                Some(2)
            }
            _ => Some(1),
        }
    }

    /// Returns `true` if this operator is a query input (DAG root).
    pub fn is_input(&self) -> bool {
        matches!(self, Operator::Input { .. })
    }

    /// Returns `true` if this operator is a query output (DAG leaf).
    pub fn is_output(&self) -> bool {
        matches!(self, Operator::Collect { .. })
    }

    /// Returns `true` if this is one of the hybrid operators of §5.3.
    pub fn is_hybrid(&self) -> bool {
        matches!(
            self,
            Operator::HybridJoin { .. }
                | Operator::PublicJoin { .. }
                | Operator::HybridAggregate { .. }
        )
    }

    /// Returns `true` if the operator distributes over partitions of its
    /// input, i.e. `op(R1 | R2) == op(R1) | op(R2)` (§5.2). These operators
    /// can be pushed below a `concat` during MPC-frontier push-down.
    pub fn is_distributive(&self) -> bool {
        matches!(
            self,
            Operator::Project { .. }
                | Operator::Filter { .. }
                | Operator::Multiply { .. }
                | Operator::Divide { .. }
        )
    }

    /// Returns `true` if the operator is *reversible* in the sense of §5.2:
    /// its input can be reconstructed from its output, so it may be lifted
    /// above the MPC frontier and run in the clear at the recipient.
    pub fn is_reversible(&self) -> bool {
        match self {
            Operator::Multiply { operands, .. } => operands
                .iter()
                .all(|o| !matches!(o, Operand::Lit(Value::Int(0)))),
            Operator::Divide { .. } => true,
            Operator::Project { .. } => false, // dropping columns is not reversible
            Operator::SortBy { .. } => false,
            _ => false,
        }
    }

    /// Returns `true` if the operator preserves row order (used by the sort
    /// tracking / elimination pass of §5.4).
    pub fn preserves_order(&self) -> bool {
        matches!(
            self,
            Operator::Project { .. }
                | Operator::Filter { .. }
                | Operator::Multiply { .. }
                | Operator::Divide { .. }
                | Operator::Limit { .. }
                | Operator::Enumerate { .. }
                | Operator::Collect { .. }
        )
    }

    /// Computes the output schema given the input schemas.
    pub fn output_schema(&self, inputs: &[Schema]) -> IrResult<Schema> {
        let need = |n: usize| -> IrResult<()> {
            if inputs.len() != n {
                Err(IrError::InvalidOperator {
                    op: self.name().to_string(),
                    detail: format!("expected {n} inputs, got {}", inputs.len()),
                })
            } else {
                Ok(())
            }
        };
        match self {
            Operator::Input { .. } => Err(IrError::InvalidOperator {
                op: "input".into(),
                detail: "input schema is stored on the DAG node".into(),
            }),
            Operator::Concat => {
                if inputs.is_empty() {
                    return Err(IrError::InvalidOperator {
                        op: "concat".into(),
                        detail: "needs at least one input".into(),
                    });
                }
                for other in &inputs[1..] {
                    inputs[0].union_compatible(other)?;
                }
                Ok(inputs[0].clone())
            }
            Operator::Project { columns } => {
                need(1)?;
                inputs[0].project(columns)
            }
            Operator::Filter { predicate } => {
                need(1)?;
                for c in predicate.referenced_columns() {
                    inputs[0].require(&c, "filter")?;
                }
                Ok(inputs[0].clone())
            }
            Operator::Join {
                left_keys,
                right_keys,
                ..
            }
            | Operator::HybridJoin {
                left_keys,
                right_keys,
                ..
            }
            | Operator::PublicJoin {
                left_keys,
                right_keys,
                ..
            } => {
                need(2)?;
                join_schema(&inputs[0], &inputs[1], left_keys, right_keys)
            }
            Operator::Aggregate {
                group_by,
                func,
                over,
                out,
            }
            | Operator::HybridAggregate {
                group_by,
                func,
                over,
                out,
                ..
            } => {
                need(1)?;
                aggregate_schema(&inputs[0], group_by, *func, over.as_deref(), out)
            }
            Operator::Multiply { out, operands } => {
                need(1)?;
                let mut schema = inputs[0].clone();
                let mut dtype = DataType::Int;
                for o in operands {
                    if let Operand::Col(c) = o {
                        let idx = schema.require(c, "multiply")?;
                        if schema.columns[idx].dtype == DataType::Float {
                            dtype = DataType::Float;
                        }
                    } else if let Operand::Lit(Value::Float(_)) = o {
                        dtype = DataType::Float;
                    }
                }
                upsert_column(&mut schema, out, dtype);
                Ok(schema)
            }
            Operator::Divide { out, num, den } => {
                need(1)?;
                let mut schema = inputs[0].clone();
                for c in [num, den].into_iter().filter_map(|o| o.column_name()) {
                    schema.require(c, "divide")?;
                }
                upsert_column(&mut schema, out, DataType::Float);
                Ok(schema)
            }
            Operator::SortBy { column, .. } => {
                need(1)?;
                inputs[0].require(column, "sort_by")?;
                Ok(inputs[0].clone())
            }
            Operator::Limit { .. } | Operator::Collect { .. } => {
                need(1)?;
                Ok(inputs[0].clone())
            }
            Operator::Distinct { columns } => {
                need(1)?;
                inputs[0].project(columns)
            }
            Operator::DistinctCount { column, out } => {
                need(1)?;
                inputs[0].require(column, "distinct_count")?;
                Ok(Schema::new(vec![ColumnDef::new(
                    out.clone(),
                    DataType::Int,
                )]))
            }
            Operator::Enumerate { out } => {
                need(1)?;
                let mut schema = inputs[0].clone();
                upsert_column(&mut schema, out, DataType::Int);
                Ok(schema)
            }
        }
    }

    /// For each output column, the set of input columns it depends on, as
    /// `(input_index, column_name)` pairs (§5.1: both "contributes rows" and
    /// "affects how rows are combined/filtered/reordered" dependencies).
    pub fn column_dependencies(&self, inputs: &[Schema], output: &Schema) -> IrResult<ColumnDeps> {
        let mut deps: ColumnDeps = Vec::new();
        match self {
            Operator::Input { .. } => {}
            Operator::Concat => {
                // Column i of the result depends on column i of every input.
                for (i, col) in output.columns.iter().enumerate() {
                    let mut d = Vec::new();
                    for (k, input) in inputs.iter().enumerate() {
                        d.push((k, input.columns[i].name.clone()));
                    }
                    deps.push((col.name.clone(), d));
                }
            }
            Operator::Join {
                left_keys,
                right_keys,
                ..
            }
            | Operator::HybridJoin {
                left_keys,
                right_keys,
                ..
            }
            | Operator::PublicJoin {
                left_keys,
                right_keys,
                ..
            } => {
                // Every output column depends on all join keys and on its
                // source column, paired by position in `join_schema`'s layout
                // (a renamed `<name>_r` column derives from the right `<name>`).
                // A schema of another width is caught by `compute_flow`.
                let [left, right] = inputs else {
                    return Err(IrError::InvalidOperator {
                        op: self.name().into(),
                        detail: format!("expected 2 inputs, got {}", inputs.len()),
                    });
                };
                let key_deps: Vec<(usize, String)> = left_keys
                    .iter()
                    .map(|k| (0, k.clone()))
                    .chain(right_keys.iter().map(|k| (1, k.clone())))
                    .collect();
                let sources = left
                    .columns
                    .iter()
                    .map(|c| (0, c.name.clone()))
                    .chain(right_payload(right, right_keys).map(|c| (1, c.name.clone())));
                for (col, source) in output.columns.iter().zip(sources) {
                    let mut d = key_deps.clone();
                    d.push(source);
                    deps.push((col.name.clone(), d));
                }
            }
            Operator::Aggregate { group_by, over, .. }
            | Operator::HybridAggregate { group_by, over, .. } => {
                for col in &output.columns {
                    let mut d: Vec<(usize, String)> =
                        group_by.iter().map(|g| (0, g.clone())).collect();
                    if group_by.contains(&col.name) {
                        // Group-by output column: depends on itself (already
                        // included above).
                    } else {
                        // Aggregate output column additionally depends on the
                        // aggregated column.
                        if let Some(o) = over {
                            d.push((0, o.clone()));
                        }
                    }
                    d.sort();
                    d.dedup();
                    deps.push((col.name.clone(), d));
                }
            }
            Operator::Filter { predicate } => {
                let pred_cols: Vec<(usize, String)> = predicate
                    .referenced_columns()
                    .into_iter()
                    .map(|c| (0, c))
                    .collect();
                for col in &output.columns {
                    let mut d = pred_cols.clone();
                    d.push((0, col.name.clone()));
                    d.sort();
                    d.dedup();
                    deps.push((col.name.clone(), d));
                }
            }
            Operator::Multiply { out, operands } => {
                default_unary_deps(&mut deps, output, out, || {
                    operands
                        .iter()
                        .filter_map(|o| o.column_name())
                        .map(|c| (0, c.to_string()))
                        .collect()
                });
            }
            Operator::Divide { out, num, den } => {
                default_unary_deps(&mut deps, output, out, || {
                    [num, den]
                        .iter()
                        .filter_map(|o| o.column_name())
                        .map(|c| (0, c.to_string()))
                        .collect()
                });
            }
            Operator::SortBy { column, .. } => {
                for col in &output.columns {
                    let mut d = vec![(0, col.name.clone())];
                    if &col.name != column {
                        d.push((0, column.clone()));
                    }
                    deps.push((col.name.clone(), d));
                }
            }
            Operator::DistinctCount { column, out } => {
                deps.push((out.clone(), vec![(0, column.clone())]));
            }
            // The row index depends on no column: it is public.
            Operator::Enumerate { out } => default_unary_deps(&mut deps, output, out, Vec::new),
            _ => {
                // Default: each output column depends on the same-named input
                // column from whichever input provides it.
                for col in &output.columns {
                    let d: Vec<(usize, String)> = inputs
                        .iter()
                        .enumerate()
                        .filter(|(_, input)| input.index_of(&col.name).is_some())
                        .map(|(k, _)| (k, col.name.clone()))
                        .collect();
                    if d.is_empty() {
                        return Err(IrError::UnknownColumn {
                            column: col.name.clone(),
                            context: format!("{} dependencies", self.name()),
                        });
                    }
                    deps.push((col.name.clone(), d));
                }
            }
        }
        Ok(deps)
    }
}

fn default_unary_deps(
    deps: &mut ColumnDeps,
    output: &Schema,
    computed: &str,
    computed_deps: impl Fn() -> Vec<(usize, String)>,
) {
    for col in &output.columns {
        if col.name == computed {
            deps.push((col.name.clone(), computed_deps()));
        } else {
            deps.push((col.name.clone(), vec![(0, col.name.clone())]));
        }
    }
}

/// The right-side columns a join's output carries: all but the right keys.
fn right_payload<'a>(
    right: &'a Schema,
    right_keys: &'a [String],
) -> impl Iterator<Item = &'a ColumnDef> {
    right
        .columns
        .iter()
        .filter(|c| !right_keys.contains(&c.name))
}

fn upsert_column(schema: &mut Schema, name: &str, dtype: DataType) {
    if let Some(c) = schema.column_mut(name) {
        c.dtype = dtype;
    } else {
        schema.columns.push(ColumnDef::new(name, dtype));
    }
}

/// Output schema of an equi-join: all left columns, then right columns other
/// than the right join keys, a right column whose name the left side already
/// has renamed to `<name>_r`. [`Operator::column_dependencies`] pairs each
/// output column with its source by this layout.
pub fn join_schema(
    left: &Schema,
    right: &Schema,
    left_keys: &[String],
    right_keys: &[String],
) -> IrResult<Schema> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(IrError::InvalidOperator {
            op: "join".into(),
            detail: "key lists must be non-empty and of equal length".into(),
        });
    }
    for k in left_keys {
        left.require(k, "join(left)")?;
    }
    for k in right_keys {
        right.require(k, "join(right)")?;
    }
    let mut cols = left.columns.clone();
    for c in right_payload(right, right_keys) {
        if left.index_of(&c.name).is_some() {
            cols.push(c.renamed(format!("{}_r", c.name)));
        } else {
            cols.push(c.clone());
        }
    }
    Ok(Schema::new(cols))
}

/// Output schema of a grouped aggregation: the group-by columns followed by
/// the aggregate output column.
pub fn aggregate_schema(
    input: &Schema,
    group_by: &[String],
    func: AggFunc,
    over: Option<&str>,
    out: &str,
) -> IrResult<Schema> {
    if func.needs_over() && over.is_none() {
        return Err(IrError::InvalidOperator {
            op: "aggregate".into(),
            detail: format!("{func} requires an `over` column"),
        });
    }
    let mut cols = Vec::new();
    for g in group_by {
        let idx = input.require(g, "aggregate(group_by)")?;
        cols.push(input.columns[idx].clone());
    }
    let dtype = match over {
        Some(o) => {
            let idx = input.require(o, "aggregate(over)")?;
            if func == AggFunc::Count {
                DataType::Int
            } else {
                input.columns[idx].dtype
            }
        }
        None => DataType::Int,
    };
    cols.push(ColumnDef::new(out, dtype));
    Ok(Schema::new(cols))
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operator::Input { name, party } => write!(f, "input({name}@P{party})"),
            Operator::Project { columns } => write!(f, "project({})", columns.join(",")),
            Operator::Filter { predicate } => write!(f, "filter({predicate})"),
            Operator::Join {
                left_keys,
                right_keys,
                ..
            } => write!(f, "join({}={})", left_keys.join(","), right_keys.join(",")),
            Operator::Aggregate {
                group_by,
                func,
                over,
                out,
            } => write!(
                f,
                "aggregate({func} {} by [{}] -> {out})",
                over.as_deref().unwrap_or("*"),
                group_by.join(",")
            ),
            Operator::HybridJoin { stp, .. } => write!(f, "hybrid_join(stp=P{stp})"),
            Operator::PublicJoin { helper, .. } => write!(f, "public_join(helper=P{helper})"),
            Operator::HybridAggregate { stp, func, .. } => {
                write!(f, "hybrid_aggregate({func}, stp=P{stp})")
            }
            Operator::Collect { recipients } => write!(f, "collect(to={recipients})"),
            other => write!(f, "{}", other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col(name_a: &str, name_b: &str) -> Schema {
        Schema::ints(&[name_a, name_b])
    }

    #[test]
    fn agg_func_properties() {
        assert!(AggFunc::Sum.needs_over());
        assert!(!AggFunc::Count.needs_over());
        assert_eq!(AggFunc::Max.to_string(), "MAX");
    }

    #[test]
    fn exec_site_predicates() {
        assert!(ExecSite::Mpc.is_mpc());
        assert!(ExecSite::Local(1).is_cleartext());
        assert!(!ExecSite::Mpc.is_cleartext());
        assert!(!ExecSite::Undecided.is_cleartext());
        assert_eq!(ExecSite::Local(3).to_string(), "local@P3");
        assert_eq!(ExecSite::Mpc.to_string(), "mpc");
        assert_eq!(ExecSite::Undecided.to_string(), "?");
    }

    #[test]
    fn concat_rejects_mismatched_schemas() {
        let a = Schema::ints(&["k", "v"]);
        let b = Schema::ints(&["k"]);
        assert!(Operator::Concat.output_schema(&[a, b]).is_err());
        assert!(Operator::Concat.output_schema(&[]).is_err());
    }

    #[test]
    fn project_and_filter_schemas() {
        let s = two_col("a", "b");
        let p = Operator::Project {
            columns: vec!["b".into()],
        };
        assert_eq!(
            p.output_schema(std::slice::from_ref(&s)).unwrap().names(),
            vec!["b"]
        );
        let f = Operator::Filter {
            predicate: Expr::col("a").gt(Expr::lit(0)),
        };
        assert_eq!(f.output_schema(std::slice::from_ref(&s)).unwrap().len(), 2);
        let bad = Operator::Filter {
            predicate: Expr::col("zzz").gt(Expr::lit(0)),
        };
        assert!(bad.output_schema(&[s]).is_err());
    }

    #[test]
    fn join_schema_renames_collisions() {
        let left = Schema::ints(&["ssn", "zip"]);
        let right = Schema::ints(&["ssn", "score", "zip"]);
        let out = join_schema(&left, &right, &["ssn".to_string()], &["ssn".to_string()]).unwrap();
        assert_eq!(out.names(), vec!["ssn", "zip", "score", "zip_r"]);
    }

    #[test]
    fn join_schema_validation() {
        let s = two_col("a", "b");
        assert!(join_schema(&s, &s, &[], &[]).is_err());
        assert!(join_schema(&s, &s, &["a".to_string()], &[]).is_err());
        assert!(join_schema(&s, &s, &["zzz".to_string()], &["a".to_string()]).is_err());
    }

    #[test]
    fn aggregate_schema_shapes() {
        let s = two_col("companyID", "price");
        let out = aggregate_schema(
            &s,
            &["companyID".to_string()],
            AggFunc::Sum,
            Some("price"),
            "rev",
        )
        .unwrap();
        assert_eq!(out.names(), vec!["companyID", "rev"]);
        // Scalar aggregate.
        let out = aggregate_schema(&s, &[], AggFunc::Sum, Some("price"), "total").unwrap();
        assert_eq!(out.names(), vec!["total"]);
        // COUNT does not need `over`.
        let out =
            aggregate_schema(&s, &["companyID".to_string()], AggFunc::Count, None, "n").unwrap();
        assert_eq!(out.column("n").unwrap().dtype, DataType::Int);
        // SUM without `over` is invalid.
        assert!(aggregate_schema(&s, &[], AggFunc::Sum, None, "x").is_err());
    }

    #[test]
    fn multiply_divide_schema() {
        let s = two_col("m_share", "other");
        let m = Operator::Multiply {
            out: "ms_squared".into(),
            operands: vec![Operand::col("m_share"), Operand::col("m_share")],
        };
        let out = m.output_schema(std::slice::from_ref(&s)).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.column("ms_squared").unwrap().dtype, DataType::Int);

        let d = Operator::Divide {
            out: "avg".into(),
            num: Operand::col("m_share"),
            den: Operand::lit(2),
        };
        let out = d.output_schema(std::slice::from_ref(&s)).unwrap();
        assert_eq!(out.column("avg").unwrap().dtype, DataType::Float);

        let bad = Operator::Multiply {
            out: "x".into(),
            operands: vec![Operand::col("nope")],
        };
        assert!(bad.output_schema(&[s]).is_err());
    }

    #[test]
    fn distinct_count_and_enumerate_schema() {
        let s = two_col("pid", "diag");
        let dc = Operator::DistinctCount {
            column: "pid".into(),
            out: "n".into(),
        };
        assert_eq!(
            dc.output_schema(std::slice::from_ref(&s)).unwrap().names(),
            vec!["n"]
        );
        let e = Operator::Enumerate { out: "idx".into() };
        assert_eq!(
            e.output_schema(std::slice::from_ref(&s)).unwrap().names(),
            vec!["pid", "diag", "idx"]
        );
    }

    #[test]
    fn collect_schema() {
        let s = two_col("a", "b");
        let c = Operator::Collect {
            recipients: PartySet::singleton(1),
        };
        assert_eq!(c.output_schema(&[s]).unwrap().len(), 2);
    }

    #[test]
    fn operator_classification() {
        assert!(Operator::Input {
            name: "t".into(),
            party: 1
        }
        .is_input());
        assert!(Operator::Collect {
            recipients: PartySet::singleton(1)
        }
        .is_output());
        assert!(Operator::HybridJoin {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
            stp: 1
        }
        .is_hybrid());
        assert!(Operator::Project {
            columns: vec!["a".into()]
        }
        .is_distributive());
        assert!(!Operator::Concat.is_distributive());
        assert!(Operator::Divide {
            out: "x".into(),
            num: Operand::col("a"),
            den: Operand::col("b")
        }
        .is_reversible());
        assert!(!Operator::Concat.preserves_order());
        assert!(Operator::Filter {
            predicate: Expr::col("a").gt(Expr::lit(0))
        }
        .preserves_order());
        assert_eq!(Operator::Concat.arity(), None);
        assert_eq!(
            Operator::Join {
                left_keys: vec!["a".into()],
                right_keys: vec!["a".into()],
            }
            .arity(),
            Some(2)
        );
    }

    #[test]
    fn multiply_by_zero_literal_is_not_reversible() {
        let op = Operator::Multiply {
            out: "x".into(),
            operands: vec![Operand::col("a"), Operand::lit(0)],
        };
        assert!(!op.is_reversible());
        let op = Operator::Multiply {
            out: "x".into(),
            operands: vec![Operand::col("a"), Operand::lit(3)],
        };
        assert!(op.is_reversible());
    }

    #[test]
    fn column_dependencies_concat() {
        let a = Schema::ints(&["k", "v"]);
        let b = Schema::ints(&["k2", "v2"]);
        let out = Operator::Concat
            .output_schema(&[a.clone(), a.clone()])
            .unwrap();
        let deps = Operator::Concat
            .column_dependencies(&[a.clone(), b], &out)
            .unwrap();
        assert_eq!(deps[0].0, "k");
        assert_eq!(deps[0].1, vec![(0, "k".to_string()), (1, "k2".to_string())]);
    }

    #[test]
    fn column_dependencies_join_include_keys() {
        let left = Schema::ints(&["ssn", "zip"]);
        let right = Schema::ints(&["ssn", "score", "zip"]);
        let op = Operator::Join {
            left_keys: vec!["ssn".into()],
            right_keys: vec!["ssn".into()],
        };
        let out = op.output_schema(&[left.clone(), right.clone()]).unwrap();
        let deps = op.column_dependencies(&[left, right], &out).unwrap();
        let score_deps = &deps.iter().find(|(n, _)| n == "score").unwrap().1;
        assert!(score_deps.contains(&(0, "ssn".to_string())));
        assert!(score_deps.contains(&(1, "ssn".to_string())));
        assert!(score_deps.contains(&(1, "score".to_string())));
        // The right `zip`, renamed because the left has one too, derives from
        // the right `zip`, not from the keys alone.
        let zip_r_deps = &deps.iter().find(|(n, _)| n == "zip_r").unwrap().1;
        assert!(zip_r_deps.contains(&(1, "zip".to_string())));
        assert!(!zip_r_deps.contains(&(0, "zip".to_string())));
    }

    #[test]
    fn column_dependencies_aggregate() {
        let s = Schema::ints(&["zip", "score"]);
        let op = Operator::Aggregate {
            group_by: vec!["zip".into()],
            func: AggFunc::Sum,
            over: Some("score".into()),
            out: "total".into(),
        };
        let out = op.output_schema(std::slice::from_ref(&s)).unwrap();
        let deps = op.column_dependencies(&[s], &out).unwrap();
        let total = &deps.iter().find(|(n, _)| n == "total").unwrap().1;
        assert!(total.contains(&(0, "zip".to_string())));
        assert!(total.contains(&(0, "score".to_string())));
        let zip = &deps.iter().find(|(n, _)| n == "zip").unwrap().1;
        assert_eq!(zip, &vec![(0, "zip".to_string())]);
    }

    #[test]
    fn column_dependencies_filter_includes_predicate_cols() {
        let s = Schema::ints(&["a", "b"]);
        let op = Operator::Filter {
            predicate: Expr::col("b").gt(Expr::lit(0)),
        };
        let out = op.output_schema(std::slice::from_ref(&s)).unwrap();
        let deps = op.column_dependencies(&[s], &out).unwrap();
        let a_deps = &deps.iter().find(|(n, _)| n == "a").unwrap().1;
        assert!(a_deps.contains(&(0, "b".to_string())));
    }

    /// §5.1 completeness: every output column of an operator with two or
    /// more inputs depends on at least one column of every input, so no
    /// input can flow into the result without its trust being counted.
    #[test]
    fn multi_input_outputs_depend_on_every_input() {
        let keys = || vec!["k".to_string()];
        let cases = [
            (Operator::Concat, 3),
            (
                Operator::Join {
                    left_keys: keys(),
                    right_keys: keys(),
                },
                2,
            ),
            (
                Operator::HybridJoin {
                    left_keys: keys(),
                    right_keys: keys(),
                    stp: 1,
                },
                2,
            ),
            (
                Operator::PublicJoin {
                    left_keys: keys(),
                    right_keys: keys(),
                    helper: 1,
                },
                2,
            ),
        ];
        let mut blind = Vec::new();
        for (op, n) in cases {
            let inputs: Vec<_> = (0..n)
                .map(|i| Schema::ints(&["k", &format!("v{i}")]))
                .collect();
            let out = op.output_schema(&inputs).unwrap();
            let deps = op.column_dependencies(&inputs, &out).unwrap();
            assert_eq!(deps.len(), out.len(), "{op}");
            for (col, d) in &deps {
                for k in (0..n).filter(|k| !d.iter().any(|(i, _)| i == k)) {
                    blind.push(format!("{op}: `{col}` reads nothing of input {k}"));
                }
            }
        }
        assert!(blind.is_empty(), "{blind:#?}");
    }

    #[test]
    fn display_forms() {
        let j = Operator::Join {
            left_keys: vec!["ssn".into()],
            right_keys: vec!["ssn".into()],
        };
        assert_eq!(j.to_string(), "join(ssn=ssn)");
        assert_eq!(Operator::Concat.to_string(), "concat");
        let h = Operator::HybridAggregate {
            group_by: vec!["zip".into()],
            func: AggFunc::Sum,
            over: Some("score".into()),
            out: "t".into(),
            stp: 1,
        };
        assert!(h.to_string().contains("stp=P1"));
    }
}
