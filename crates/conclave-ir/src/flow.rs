//! Column-level information-flow analysis over the operator DAG.
//!
//! This module computes, for every node and output column, a value of the
//! provenance/visibility lattice the leakage linter (`conclave-core`'s
//! `passes::leakage`) verifies plans against:
//!
//! * **visibility** — a [`TrustSet`]: which parties are authorized to learn
//!   the column's values in cleartext. Derived columns take the
//!   *intersection* of their operands' trust sets (§5.1 of the paper), and
//!   are *widened* by declassification points: the `Collect` recipients and
//!   the executing party of every cleartext placement the sites/hybrid
//!   passes chose.
//! * **provenance** — the set of `(relation, column)` source pairs the
//!   column transitively derives from, used to render derivation chains in
//!   diagnostics.
//!
//! The analysis is a single forward pass in topological order over
//! [`Operator::column_dependencies`]; it re-derives trust from the input
//! schemas rather than trusting any annotation a prior pass may have stored,
//! so it can certify a plan independently of how it was produced.

use crate::dag::{NodeId, OpDag};
use crate::error::{IrError, IrResult};
use crate::ops::{ColumnDeps, ExecSite, Operator};
use crate::party::PartyId;
use crate::schema::Schema;
use crate::trust::TrustSet;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// The lattice value computed for one output column of one DAG node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowValue {
    /// Parties authorized to learn the column in cleartext at this point of
    /// the plan: the intersection of all source-column trust sets, widened
    /// by every declassification the plan performs upstream.
    pub trust: TrustSet,
    /// `(relation, column)` pairs of the input columns this column
    /// transitively derives from (empty for literal-only columns).
    pub sources: BTreeSet<(String, String)>,
}

impl FlowValue {
    /// A public value with no provenance (literal-derived columns).
    fn literal() -> Self {
        FlowValue {
            trust: TrustSet::Public,
            sources: BTreeSet::new(),
        }
    }
}

/// The result of [`compute_flow`]: per node, the flow value of every output
/// column, in schema order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    map: HashMap<NodeId, Vec<(String, FlowValue)>>,
}

impl Flow {
    /// Flow values for all output columns of `node`, in schema order.
    pub fn columns(&self, node: NodeId) -> Option<&[(String, FlowValue)]> {
        self.map.get(&node).map(|v| v.as_slice())
    }

    /// Flow value of one output column of `node`.
    pub fn value(&self, node: NodeId, column: &str) -> Option<&FlowValue> {
        self.map
            .get(&node)?
            .iter()
            .find(|(name, _)| name == column)
            .map(|(_, v)| v)
    }

    /// Renders the derivation chain of `column` at `node` as a list of
    /// `"#id op.column"` steps from the originating input down to `node`.
    ///
    /// When several dependencies exist, the walk prefers one whose trust set
    /// excludes `party` — the source actually responsible for a leakage
    /// violation against that party.
    pub fn derivation_chain(
        &self,
        dag: &OpDag,
        node: NodeId,
        column: &str,
        party: PartyId,
    ) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cursor = Some((node, column.to_string()));
        // The DAG is acyclic, but guard against malformed graphs anyway.
        let mut budget = dag.capacity().saturating_add(1);
        while let Some((id, col)) = cursor.take() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            let Ok(n) = dag.node(id) else { break };
            match &n.op {
                Operator::Input { name, .. } => {
                    chain.push(format!("#{id} input {name}.{col}"));
                    break;
                }
                op => chain.push(format!("#{id} {}.{col}", op.name())),
            }
            let Some(deps) = self.deps_of(dag, id) else {
                break;
            };
            let Some((_, dcols)) = deps.iter().find(|(name, _)| *name == col) else {
                break;
            };
            let n = dag.node(id).expect("checked above");
            let offender = dcols
                .iter()
                .filter(|(k, c)| {
                    n.inputs
                        .get(*k)
                        .is_some_and(|&p| self.value(p, c).is_some_and(|v| !v.trust.trusts(party)))
                })
                .chain(dcols.iter())
                .next();
            cursor = offender.and_then(|(k, c)| n.inputs.get(*k).map(|&p| (p, c.clone())));
        }
        chain.reverse();
        chain
    }

    fn deps_of(&self, dag: &OpDag, id: NodeId) -> Option<ColumnDeps> {
        let n = dag.node(id).ok()?;
        let input_schemas: Vec<Schema> = n
            .inputs
            .iter()
            .map(|&i| dag.node(i).map(|p| p.schema.clone()))
            .collect::<IrResult<_>>()
            .ok()?;
        n.op.column_dependencies(&input_schemas, &n.schema).ok()
    }
}

/// Parties a node's operator declassifies its output to: a `Collect`'s
/// recipients.
fn declassified_to(op: &Operator) -> Vec<PartyId> {
    match op {
        Operator::Collect { recipients } => recipients.iter().collect(),
        _ => Vec::new(),
    }
}

/// Computes the flow lattice for every live node of `dag` in one forward
/// topological pass.
///
/// Trust is re-derived from the *input schemas* (so the analysis does not
/// depend on `propagate_trust` having run) and widened at declassification
/// points: collect recipients learn the revealed columns, and
/// the executing party of a cleartext placement (`ExecSite::Local` /
/// `ExecSite::Stp`) learns every column the node materializes.
pub fn compute_flow(dag: &OpDag) -> IrResult<Flow> {
    let mut flow = Flow::default();
    for id in dag.topo_order()? {
        let node = dag.node(id)?;
        let mut columns: Vec<(String, FlowValue)> = Vec::with_capacity(node.schema.len());
        if let Operator::Input { name, .. } = &node.op {
            for col in &node.schema.columns {
                let mut sources = BTreeSet::new();
                sources.insert((name.clone(), col.name.clone()));
                columns.push((
                    col.name.clone(),
                    FlowValue {
                        trust: col.trust.clone(),
                        sources,
                    },
                ));
            }
        } else {
            let input_schemas: Vec<Schema> = node
                .inputs
                .iter()
                .map(|&i| dag.node(i).map(|p| p.schema.clone()))
                .collect::<IrResult<_>>()?;
            let deps = node.op.column_dependencies(&input_schemas, &node.schema)?;
            for col in &node.schema.columns {
                let mut value = FlowValue::literal();
                if let Some((_, dcols)) = deps.iter().find(|(name, _)| *name == col.name) {
                    for (k, dep_col) in dcols {
                        let parent = node.inputs.get(*k).copied().ok_or_else(|| {
                            IrError::MalformedDag(format!(
                                "node {id} dependency references missing input {k}"
                            ))
                        })?;
                        if let Some(v) = flow.value(parent, dep_col) {
                            value.trust = value.trust.intersect(&v.trust);
                            value.sources.extend(v.sources.iter().cloned());
                        }
                    }
                }
                columns.push((col.name.clone(), value));
            }
        }
        // Widen: declassification points and cleartext placements.
        let widened: Vec<PartyId> = declassified_to(&node.op)
            .into_iter()
            .chain(match node.site {
                ExecSite::Local(p) | ExecSite::Stp(p) => Some(p),
                ExecSite::Mpc | ExecSite::Undecided => None,
            })
            .collect();
        if !widened.is_empty() {
            for (_, value) in columns.iter_mut() {
                for &p in &widened {
                    value.trust.add(p);
                }
            }
        }
        flow.map.insert(id, columns);
    }
    Ok(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::AggFunc;
    use crate::party::PartySet;
    use crate::schema::{ColumnDef, Schema};
    use crate::types::DataType;

    fn annotated_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::with_trust("k", DataType::Int, TrustSet::Public),
            ColumnDef::with_trust("v", DataType::Int, TrustSet::of([1])),
        ])
    }

    fn two_input_dag() -> (OpDag, NodeId, NodeId, NodeId) {
        let mut dag = OpDag::new();
        let a = dag.add_node(
            Operator::Input {
                name: "ta".into(),
                party: 1,
            },
            vec![],
            annotated_schema(),
        );
        let mut sb = annotated_schema();
        sb.column_mut("v").unwrap().trust = TrustSet::of([1, 2]);
        let b = dag.add_node(
            Operator::Input {
                name: "tb".into(),
                party: 2,
            },
            vec![],
            sb.clone(),
        );
        let cat_schema = Operator::Concat
            .output_schema(&[annotated_schema(), sb])
            .unwrap();
        let cat = dag.add_node(Operator::Concat, vec![a, b], cat_schema);
        (dag, a, b, cat)
    }

    #[test]
    fn input_seeds_trust_and_sources() {
        let (dag, a, _, _) = two_input_dag();
        let flow = compute_flow(&dag).unwrap();
        let v = flow.value(a, "v").unwrap();
        assert_eq!(v.trust, TrustSet::of([1]));
        assert_eq!(
            v.sources.iter().cloned().collect::<Vec<_>>(),
            vec![("ta".to_string(), "v".to_string())]
        );
        assert!(flow.value(a, "k").unwrap().trust.is_public());
    }

    #[test]
    fn concat_intersects_trust_and_unions_sources() {
        let (dag, _, _, cat) = two_input_dag();
        let flow = compute_flow(&dag).unwrap();
        let v = flow.value(cat, "v").unwrap();
        // {1} ∩ {1,2} = {1}
        assert_eq!(v.trust, TrustSet::of([1]));
        assert_eq!(v.sources.len(), 2, "provenance from both inputs");
        assert!(flow.value(cat, "k").unwrap().trust.is_public());
    }

    #[test]
    fn aggregate_intersects_group_and_over() {
        let (mut dag, _, _, cat) = two_input_dag();
        let agg_op = Operator::Aggregate {
            group_by: vec!["k".into()],
            func: AggFunc::Sum,
            over: Some("v".into()),
            out: "total".into(),
        };
        let schema = agg_op
            .output_schema(&[dag.node(cat).unwrap().schema.clone()])
            .unwrap();
        let agg = dag.add_node(agg_op, vec![cat], schema);
        let flow = compute_flow(&dag).unwrap();
        let total = flow.value(agg, "total").unwrap();
        assert_eq!(total.trust, TrustSet::of([1]), "public ∩ {{1}}");
        assert_eq!(total.sources.len(), 4, "k and v from both inputs");
    }

    #[test]
    fn collect_widens_trust_to_its_recipients() {
        let (mut dag, _, _, cat) = two_input_dag();
        let collect = dag
            .insert_after(
                cat,
                Operator::Collect {
                    recipients: PartySet::from_ids([2, 3]),
                },
            )
            .unwrap();
        let flow = compute_flow(&dag).unwrap();
        assert!(flow.value(cat, "v").unwrap().trust == TrustSet::of([1]));
        assert_eq!(
            flow.value(collect, "v").unwrap().trust,
            TrustSet::of([1, 2, 3])
        );
    }

    #[test]
    fn cleartext_site_widens_trust() {
        let (mut dag, _, _, cat) = two_input_dag();
        let proj = dag
            .insert_after(
                cat,
                Operator::Project {
                    columns: vec!["v".into()],
                },
            )
            .unwrap();
        dag.node_mut(proj).unwrap().site = ExecSite::Stp(2);
        let flow = compute_flow(&dag).unwrap();
        assert_eq!(flow.value(proj, "v").unwrap().trust, TrustSet::of([1, 2]));
    }

    #[test]
    fn derivation_chain_walks_to_the_untrusting_source() {
        let (mut dag, _, _, cat) = two_input_dag();
        let proj = dag
            .insert_after(
                cat,
                Operator::Project {
                    columns: vec!["v".into()],
                },
            )
            .unwrap();
        let flow = compute_flow(&dag).unwrap();
        // Party 2 is not trusted with ta.v — the chain must end there.
        let chain = flow.derivation_chain(&dag, proj, "v", 2);
        assert_eq!(
            chain,
            vec![
                "#0 input ta.v".to_string(),
                "#2 concat.v".to_string(),
                format!("#{proj} project.v"),
            ]
        );
    }

    #[test]
    fn literal_columns_are_public_with_no_sources() {
        let mut dag = OpDag::new();
        let a = dag.add_node(
            Operator::Input {
                name: "t".into(),
                party: 1,
            },
            vec![],
            annotated_schema(),
        );
        let mul = Operator::Multiply {
            out: "c2".into(),
            operands: vec![crate::ops::Operand::lit(2), crate::ops::Operand::lit(3)],
        };
        let schema = mul
            .output_schema(&[dag.node(a).unwrap().schema.clone()])
            .unwrap();
        let m = dag.add_node(mul, vec![a], schema);
        let flow = compute_flow(&dag).unwrap();
        let v = flow.value(m, "c2").unwrap();
        assert!(v.trust.is_public());
        assert!(v.sources.is_empty());
    }
}
