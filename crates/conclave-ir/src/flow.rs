//! Column-level information-flow analysis over the operator DAG: the one
//! place a derived column's trust is computed.
//!
//! This module computes, for every node and output column, a value of the
//! provenance/visibility lattice. The hybrid pass (`conclave-core`'s
//! `passes::hybrid`) picks every STP from it, and the leakage linter
//! (`passes::leakage`) certifies plans against it:
//!
//! * **visibility** — a [`TrustSet`]: which parties are authorized to learn
//!   the column's values in cleartext. Derived columns take the
//!   *intersection* of their operands' trust sets (§5.1 of the paper), and
//!   are *widened* by declassification points: the `Collect` recipients and
//!   the executing party of every cleartext placement the sites and push-up
//!   passes chose.
//! * **provenance** — the set of `(relation, column)` source pairs the
//!   column transitively derives from, used to render derivation chains in
//!   diagnostics.
//!
//! The analysis is a single forward pass in topological order over
//! [`Operator::column_dependencies`]. It reads trust annotations from `Input`
//! schemas only (a derived schema's `ColumnDef::trust` is never read), so it
//! certifies a plan independently of how it was produced. Every lookup fails
//! closed: a column the analysis cannot place is an error, never "trusted".

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

    /// Flow value of one output column of `node`, or an error naming the
    /// column if the flow has none.
    pub fn require(&self, node: NodeId, column: &str) -> IrResult<&FlowValue> {
        self.value(node, column)
            .ok_or_else(|| IrError::UnknownColumn {
                column: column.to_string(),
                context: format!("flow of node #{node}"),
            })
    }

    /// The joint trust of `(node, column)` pairs: the parties trusted with
    /// every one of them (§5.1). The hybrid pass picks an STP from it.
    pub fn joint_trust<'a>(
        &self,
        columns: impl IntoIterator<Item = (NodeId, &'a str)>,
    ) -> IrResult<TrustSet> {
        let mut trust = TrustSet::Public;
        for (node, column) in columns {
            trust = trust.intersect(&self.require(node, column)?.trust);
        }
        Ok(trust)
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
/// Trust is read from the annotations on `Input` schemas, intersected along
/// each column's dependencies, and widened at declassification points:
/// collect recipients learn the revealed columns, and the executing party of
/// a cleartext placement (`ExecSite::Local`) learns every column the node
/// materializes. A dependency on a column its input does not have is an
/// error.
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
            if deps.len() != node.schema.len() {
                return Err(IrError::MalformedDag(format!(
                    "node {id} ({}) has {} columns but dependencies for {}",
                    node.op.name(),
                    node.schema.len(),
                    deps.len()
                )));
            }
            // Every operator lists its dependencies in output-schema order.
            for (name, dcols) in deps {
                let mut value = FlowValue::literal();
                for (k, dep_col) in dcols {
                    let parent = node.inputs.get(k).copied().ok_or_else(|| {
                        IrError::MalformedDag(format!(
                            "node {id} dependency references missing input {k}"
                        ))
                    })?;
                    let v = flow.require(parent, &dep_col)?;
                    value.trust = value.trust.intersect(&v.trust);
                    value.sources.extend(v.sources.iter().cloned());
                }
                columns.push((name, value));
            }
        }
        // Widen: declassification points and cleartext placements.
        let widened: Vec<PartyId> = declassified_to(&node.op)
            .into_iter()
            .chain(match node.site {
                ExecSite::Local(p) => Some(p),
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

    fn input(name: &str, party: PartyId) -> Operator {
        Operator::Input {
            name: name.into(),
            party,
        }
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
        dag.node_mut(proj).unwrap().site = ExecSite::Local(2);
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
    fn concat_intersects_each_column_separately() {
        let mut dag = OpDag::new();
        let mut sa = Schema::ints(&["k", "v"]);
        sa.column_mut("k").unwrap().trust = TrustSet::of([1, 2]);
        let mut sb = Schema::ints(&["k", "v"]);
        sb.column_mut("k").unwrap().trust = TrustSet::of([2, 3]);
        let a = dag.add_node(input("ta", 1), vec![], sa.clone());
        let b = dag.add_node(input("tb", 2), vec![], sb.clone());
        let cat = dag.add_node(
            Operator::Concat,
            vec![a, b],
            Operator::Concat.output_schema(&[sa, sb]).unwrap(),
        );
        let flow = compute_flow(&dag).unwrap();
        let k = &flow.value(cat, "k").unwrap().trust;
        assert!(k.trusts(2) && !k.trusts(1) && !k.trusts(3));
        assert!(!flow.value(cat, "v").unwrap().trust.trusts(2));
    }

    #[test]
    fn join_keys_meet_both_sides_and_renamed_columns_keep_their_source() {
        let mut dag = OpDag::new();
        let mut left = Schema::ints(&["ssn", "zip"]);
        left.column_mut("ssn").unwrap().trust = TrustSet::of([1]);
        let mut right = Schema::ints(&["ssn", "score", "zip"]);
        right.column_mut("ssn").unwrap().trust = TrustSet::of([1, 2]);
        right.column_mut("zip").unwrap().trust = TrustSet::of([2]);
        let l = dag.add_node(input("tl", 1), vec![], left.clone());
        let r = dag.add_node(input("tr", 2), vec![], right.clone());
        let join = Operator::Join {
            left_keys: vec!["ssn".into()],
            right_keys: vec!["ssn".into()],
        };
        let schema = join.output_schema(&[left, right]).unwrap();
        let j = dag.add_node(join, vec![l, r], schema);
        let flow = compute_flow(&dag).unwrap();
        let ssn = &flow.value(j, "ssn").unwrap().trust;
        assert!(ssn.trusts(1) && !ssn.trusts(2), "{{1}} ∩ {{1,2}}");
        // `zip_r` is the right `zip` (trusted by P2 only) met with the keys
        // (trusted by P1 only): nobody. Keys alone would have said P1.
        let zip_r = flow.value(j, "zip_r").unwrap();
        assert!(!zip_r.trust.trusts(1) && !zip_r.trust.trusts(2));
        assert!(zip_r
            .sources
            .contains(&("tr".to_string(), "zip".to_string())));
        assert!(!zip_r
            .sources
            .contains(&("tl".to_string(), "zip".to_string())));
        assert_eq!(
            flow.joint_trust([(l, "ssn"), (r, "ssn")]).unwrap(),
            TrustSet::of([1])
        );
    }

    /// The credit query of Listing 1, as the builder lowers it (each input's
    /// owner is trusted with its own columns).
    #[test]
    fn credit_query_trust_follows_the_intersection_rule() {
        use crate::builder::QueryBuilder;
        use crate::party::Party;
        let regulator = Party::new(1, "mpc.ftc.gov");
        let demo = Schema::ints(&["ssn", "zip"]);
        let bank = Schema::new(vec![
            ColumnDef::with_trust("ssn", DataType::Int, TrustSet::of([1])),
            ColumnDef::new("score", DataType::Int),
        ]);
        let mut q = QueryBuilder::new();
        let demographics = q.input("demographics", demo, regulator.clone());
        let s1 = q.input("scores1", bank.clone(), Party::new(2, "mpc.a.com"));
        let s2 = q.input("scores2", bank, Party::new(3, "mpc.b.cash"));
        let scores = q.concat(&[s1, s2]);
        let joined = q.join(demographics, scores, &["ssn"], &["ssn"]);
        let total = q.aggregate(joined, "total", AggFunc::Sum, &["zip"], "score");
        q.collect(total, &[regulator]);
        let dag = q.build().unwrap().dag;
        let flow = compute_flow(&dag).unwrap();
        let id_of = |name: &str| dag.iter().find(|n| n.op.name() == name).unwrap().id;

        // The banks' SSNs are trusted by the regulator; neither bank is
        // trusted with the other's, so the intersection drops both.
        let concat = id_of("concat");
        let ssn = &flow.value(concat, "ssn").unwrap().trust;
        assert!(ssn.trusts(1), "regulator is trusted with bank SSNs");
        assert!(!ssn.trusts(2), "bank A not trusted with bank B's SSNs");
        // Scores are private to each bank: nobody is in the intersection.
        let score = &flow.value(concat, "score").unwrap().trust;
        assert!(!score.trusts(1) && !score.trusts(2) && !score.trusts(3));
        // The aggregate depends on zip (regulator only) and score (nobody).
        let total = &flow.value(id_of("aggregate"), "total").unwrap().trust;
        assert!(!total.trusts(2));
    }

    #[test]
    fn public_columns_stay_public_through_projections() {
        use crate::builder::QueryBuilder;
        use crate::party::Party;
        let pa = Party::new(1, "a");
        let schema = Schema::new(vec![
            ColumnDef::public("patientID", DataType::Int),
            ColumnDef::new("diagnosis", DataType::Int),
        ]);
        let mut q = QueryBuilder::new();
        let a = q.input("a", schema.clone(), pa.clone());
        let b = q.input("b", schema, Party::new(2, "b"));
        let cat = q.concat(&[a, b]);
        let proj = q.project(cat, &["patientID"]);
        q.collect(proj, &[pa]);
        let dag = q.build().unwrap().dag;
        let flow = compute_flow(&dag).unwrap();
        let proj = dag.iter().find(|n| n.op.name() == "project").unwrap().id;
        assert!(flow.value(proj, "patientID").unwrap().trust.is_public());
    }

    #[test]
    fn missing_columns_fail_closed() {
        let (mut dag, a, _, cat) = two_input_dag();
        let flow = compute_flow(&dag).unwrap();
        assert!(flow.require(a, "zz").is_err());
        assert!(flow.joint_trust([(a, "k"), (a, "zz")]).is_err());
        // A node whose schema names a column its input lacks has no flow.
        dag.add_node(
            Operator::Limit { n: 1 },
            vec![cat],
            Schema::ints(&["k", "zz"]),
        );
        assert!(matches!(
            compute_flow(&dag),
            Err(IrError::UnknownColumn { column, .. }) if column == "zz"
        ));
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
