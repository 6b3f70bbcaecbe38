//! Ownership propagation (§5.1): which single party, if any, can compute
//! each node from its own data alone.
//!
//! Column trust is not propagated here: it is derived once, by
//! [`conclave_ir::flow::compute_flow`], which the hybrid pass picks STPs from
//! and the leakage linter certifies plans with.

use conclave_ir::dag::OpDag;
use conclave_ir::error::IrResult;
use conclave_ir::ops::Operator;
use conclave_ir::party::PartyId;

/// Propagates relation ownership down the DAG.
///
/// A party *owns* an intermediate relation if it can derive it locally from
/// its own data alone. Input relations are owned by their storing party; a
/// unary operator's output inherits its input's owner; a multi-input
/// operator's output is owned only if every input has the same owner,
/// otherwise it has no owner and must be computed under MPC (§5.1).
pub fn propagate_ownership(dag: &mut OpDag) -> IrResult<()> {
    let order = dag.topo_order()?;
    for id in order {
        let node = dag.node(id)?;
        let owner: Option<PartyId> = match &node.op {
            Operator::Input { party, .. } => Some(*party),
            _ => {
                let mut owners = Vec::new();
                for &input in &node.inputs {
                    owners.push(dag.node(input)?.owner);
                }
                if owners.is_empty() {
                    None
                } else if owners.iter().all(|o| *o == owners[0]) {
                    owners[0]
                } else {
                    None
                }
            }
        };
        dag.node_mut(id)?.owner = owner;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::builder::QueryBuilder;
    use conclave_ir::ops::AggFunc;
    use conclave_ir::party::Party;
    use conclave_ir::schema::{ColumnDef, Schema};
    use conclave_ir::trust::TrustSet;
    use conclave_ir::types::DataType;

    /// Builds the credit-card regulation query of Listing 1.
    fn credit_query() -> conclave_ir::builder::Query {
        let regulator = Party::new(1, "mpc.ftc.gov");
        let bank_a = Party::new(2, "mpc.a.com");
        let bank_b = Party::new(3, "mpc.b.cash");
        let demo = Schema::new(vec![
            ColumnDef::new("ssn", DataType::Int),
            ColumnDef::new("zip", DataType::Int),
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
        let count = q.count(joined, "count", &["zip"]);
        let both = q.join(total, count, &["zip"], &["zip"]);
        let avg = q.divide(
            both,
            "avg_score",
            conclave_ir::ops::Operand::col("total"),
            conclave_ir::ops::Operand::col("count"),
        );
        q.collect(avg, &[regulator]);
        q.build().unwrap()
    }

    #[test]
    fn ownership_distinguishes_singleton_and_partitioned_relations() {
        let query = credit_query();
        let mut dag = query.dag.clone();
        propagate_ownership(&mut dag).unwrap();
        // Inputs keep their owners.
        for root in dag.roots() {
            assert!(dag.node(root).unwrap().owner.is_some());
        }
        // The concat of the two banks' relations has no owner.
        let concat = dag
            .iter()
            .find(|n| matches!(n.op, Operator::Concat))
            .unwrap();
        assert_eq!(concat.owner, None);
        // And so does everything downstream of it.
        let leaf = dag.leaves()[0];
        assert_eq!(dag.node(leaf).unwrap().owner, None);
    }

    #[test]
    fn unary_chains_inherit_ownership() {
        let pa = Party::new(1, "a");
        let mut q = QueryBuilder::new();
        let t = q.input("t", Schema::ints(&["k", "v"]), pa.clone());
        let f = q.filter(
            t,
            conclave_ir::expr::Expr::col("v").gt(conclave_ir::expr::Expr::lit(0)),
        );
        let p = q.project(f, &["k"]);
        q.collect(p, &[pa]);
        let mut dag = q.build().unwrap().dag;
        propagate_ownership(&mut dag).unwrap();
        for node in dag.iter() {
            assert_eq!(node.owner, Some(1), "single-party query is fully owned");
        }
    }
}
