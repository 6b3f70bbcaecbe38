//! Hybrid operator insertion (§5.3): shrink what remains *inside* the
//! frontier.
//!
//! Push-down and push-up move whole operators across the MPC frontier; this
//! pass instead splits the expensive operators that must stay inside it into
//! an MPC half and a cleartext half executed by a *selectively-trusted
//! party* (STP), turning O(n·m) oblivious work into an oblivious shuffle, a
//! narrow key reveal, and a cleartext join or sort at the STP.
//! MPC joins and grouped aggregations dominate query cost. When the trust
//! [`compute_flow`] derives for the key columns shows that some party is
//! authorized to learn them, Conclave rewrites:
//!
//! * an MPC join whose key columns are **public** into a [`Operator::PublicJoin`]
//!   performed in the clear by an arbitrarily chosen helper party;
//! * an MPC join whose key columns share a **selectively-trusted party** into
//!   a [`Operator::HybridJoin`] (Figure 3);
//! * an MPC grouped aggregation whose group-by column has an STP into a
//!   [`Operator::HybridAggregate`].
//!
//! The rewrite never widens leakage beyond the input annotations: the STP
//! must already be in the joint trust of the key columns, which the flow
//! derives only from the parties' own annotations (Corollary A.5). The pass
//! runs after `sites` and reads one [`compute_flow`] of that DAG — the same
//! derivation the leakage linter certifies the final plan with.

use crate::config::ConclaveConfig;
use conclave_ir::dag::{NodeId, OpDag};
use conclave_ir::error::IrResult;
use conclave_ir::flow::compute_flow;
use conclave_ir::ops::Operator;
use conclave_ir::party::{PartyId, PartySet};

/// Applies hybrid-operator rewrites to all eligible MPC nodes. Returns a log
/// of the transformations applied.
pub fn run(dag: &mut OpDag, universe: &PartySet, config: &ConclaveConfig) -> IrResult<Vec<String>> {
    let mut log = Vec::new();
    if !config.use_hybrid_operators && !config.use_public_join {
        return Ok(log);
    }
    // A rewrite keeps its node's site and column dependencies, so the flow
    // computed up front holds for every rewrite below.
    let flow = compute_flow(dag)?;
    let mpc_nodes: Vec<NodeId> = dag
        .iter()
        .filter(|n| n.site.is_mpc())
        .map(|n| n.id)
        .collect();
    for id in mpc_nodes {
        let node = dag.node(id)?;
        match node.op.clone() {
            Operator::Join {
                left_keys,
                right_keys,
                ..
            } => {
                let (left, right) = (node.inputs[0], node.inputs[1]);
                let keys = left_keys
                    .iter()
                    .map(|k| (left, k.as_str()))
                    .chain(right_keys.iter().map(|k| (right, k.as_str())));
                let trusted = flow.joint_trust(keys)?.trusted_within(universe);
                if config.use_public_join && trusted.len() == universe.len() && !universe.is_empty()
                {
                    let helper = pick_helper(&trusted);
                    dag.node_mut(id)?.op = Operator::PublicJoin {
                        left_keys,
                        right_keys,
                        helper,
                    };
                    log.push(format!(
                        "hybrid: join #{id} has public keys; rewritten to public join at P{helper}"
                    ));
                } else if config.use_hybrid_operators && !trusted.is_empty() {
                    let stp = pick_helper(&trusted);
                    dag.node_mut(id)?.op = Operator::HybridJoin {
                        left_keys,
                        right_keys,
                        stp,
                    };
                    log.push(format!(
                        "hybrid: join #{id} keys trusted by P{stp}; rewritten to hybrid join"
                    ));
                }
            }
            Operator::Aggregate {
                group_by,
                func,
                over,
                out,
            } if !group_by.is_empty() && config.use_hybrid_operators => {
                let input = node.inputs[0];
                let keys = group_by.iter().map(|g| (input, g.as_str()));
                let trusted = flow.joint_trust(keys)?.trusted_within(universe);
                if !trusted.is_empty() {
                    let stp = pick_helper(&trusted);
                    dag.node_mut(id)?.op = Operator::HybridAggregate {
                        group_by,
                        func,
                        over,
                        out,
                        stp,
                    };
                    log.push(format!(
                        "hybrid: aggregation #{id} group-by trusted by P{stp}; rewritten to hybrid aggregation"
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(log)
}

/// Deterministically picks the helper/STP from a set of authorized parties
/// (the smallest id; in a deployment this choice is part of the out-of-band
/// agreement between the parties).
fn pick_helper(trusted: &PartySet) -> PartyId {
    trusted.any_member().expect("non-empty trusted set")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::propagate_ownership;
    use crate::passes::sites;
    use conclave_ir::builder::QueryBuilder;
    use conclave_ir::ops::AggFunc;
    use conclave_ir::party::Party;
    use conclave_ir::schema::{ColumnDef, Schema};
    use conclave_ir::trust::TrustSet;
    use conclave_ir::types::DataType;

    fn prepare(query: &conclave_ir::builder::Query) -> OpDag {
        let mut dag = query.dag.clone();
        propagate_ownership(&mut dag).unwrap();
        sites::run(&mut dag).unwrap();
        dag
    }

    /// Credit-card query: the regulator (P1) is trusted with the banks' SSN
    /// columns, and the group-by column (zip) belongs to the regulator.
    fn credit_query() -> conclave_ir::builder::Query {
        let regulator = Party::new(1, "mpc.ftc.gov");
        let bank_a = Party::new(2, "mpc.a.com");
        let bank_b = Party::new(3, "mpc.b.cash");
        let demo = Schema::new(vec![
            ColumnDef::new("ssn", DataType::Int),
            ColumnDef::with_trust("zip", DataType::Int, TrustSet::of([1])),
        ]);
        let bank = Schema::new(vec![
            ColumnDef::with_trust("ssn", DataType::Int, TrustSet::of([1])),
            ColumnDef::new("score", DataType::Int),
        ]);
        let mut q = QueryBuilder::new();
        let demographics = q.input("demographics", demo, regulator.clone());
        let s1 = q.input("scores1", bank.clone(), bank_a);
        let s2 = q.input("scores2", bank, bank_b);
        let scores = q.concat(&[s1, s2]);
        let joined = q.join(demographics, scores, &["ssn"], &["ssn"]);
        let total = q.aggregate(joined, "total", AggFunc::Sum, &["zip"], "score");
        q.collect(total, &[regulator]);
        q.build().unwrap()
    }

    #[test]
    fn ssn_trust_annotation_enables_hybrid_join_and_aggregation() {
        let query = credit_query();
        let mut dag = prepare(&query);
        let log = run(&mut dag, &query.party_set(), &ConclaveConfig::standard()).unwrap();
        assert_eq!(log.len(), 2, "{log:?}");
        let join = dag
            .iter()
            .find(|n| matches!(n.op, Operator::HybridJoin { .. }))
            .expect("join rewritten");
        if let Operator::HybridJoin { stp, .. } = join.op {
            assert_eq!(stp, 1, "the regulator is the STP");
        }
        let agg = dag
            .iter()
            .find(|n| matches!(n.op, Operator::HybridAggregate { .. }))
            .expect("aggregation rewritten");
        if let Operator::HybridAggregate { stp, .. } = &agg.op {
            assert_eq!(*stp, 1);
        }
        assert!(dag.validate().is_ok());
    }

    #[test]
    fn no_trust_annotations_means_no_hybrid_operators() {
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let mut q = QueryBuilder::new();
        let a = q.input("a", Schema::ints(&["k", "v"]), pa.clone());
        let b = q.input("b", Schema::ints(&["k", "w"]), pb);
        let j = q.join(a, b, &["k"], &["k"]);
        let agg = q.aggregate(j, "s", AggFunc::Sum, &["k"], "v");
        q.collect(agg, &[pa]);
        let query = q.build().unwrap();
        let mut dag = prepare(&query);
        let log = run(&mut dag, &query.party_set(), &ConclaveConfig::standard()).unwrap();
        assert!(log.is_empty(), "{log:?}");
        assert!(dag.iter().all(|n| !n.op.is_hybrid()));
    }

    #[test]
    fn public_keys_enable_public_join() {
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let schema = Schema::new(vec![
            ColumnDef::public("patientID", DataType::Int),
            ColumnDef::new("diagnosis", DataType::Int),
        ]);
        let med_schema = Schema::new(vec![
            ColumnDef::public("patientID", DataType::Int),
            ColumnDef::new("medication", DataType::Int),
        ]);
        let mut q = QueryBuilder::new();
        let d1 = q.input("d1", schema.clone(), pa.clone());
        let d2 = q.input("d2", schema, pb.clone());
        let m1 = q.input("m1", med_schema.clone(), pa.clone());
        let m2 = q.input("m2", med_schema, pb);
        let diag = q.concat(&[d1, d2]);
        let meds = q.concat(&[m1, m2]);
        let j = q.join(diag, meds, &["patientID"], &["patientID"]);
        let c = q.distinct_count(j, "patientID", "n");
        q.collect(c, &[pa]);
        let query = q.build().unwrap();
        let mut dag = prepare(&query);
        let log = run(&mut dag, &query.party_set(), &ConclaveConfig::standard()).unwrap();
        assert!(log.iter().any(|l| l.contains("public join")), "{log:?}");
        assert!(dag
            .iter()
            .any(|n| matches!(n.op, Operator::PublicJoin { .. })));
    }

    #[test]
    fn disabling_hybrid_operators_leaves_the_plan_unchanged() {
        let query = credit_query();
        let mut dag = prepare(&query);
        let log = run(&mut dag, &query.party_set(), &ConclaveConfig::mpc_only()).unwrap();
        assert!(log.is_empty());
        assert!(dag.iter().all(|n| !n.op.is_hybrid()));
        // without_hybrid also disables both hybrid and public rewrites.
        let mut dag2 = prepare(&query);
        let log2 = run(
            &mut dag2,
            &query.party_set(),
            &ConclaveConfig::without_hybrid(),
        )
        .unwrap();
        assert!(log2.is_empty());
    }
}
