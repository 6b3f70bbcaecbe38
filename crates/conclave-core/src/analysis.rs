//! Annotation propagation (§5.1): relation ownership and column trust sets.

use conclave_ir::dag::OpDag;
use conclave_ir::error::IrResult;
use conclave_ir::ops::Operator;
use conclave_ir::party::PartyId;
use conclave_ir::schema::Schema;
use conclave_ir::trust::TrustSet;
use std::collections::HashMap;

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

/// Propagates per-column trust sets down the DAG.
///
/// The trust set of each result column is the intersection of the trust sets
/// of every operand column it depends on, where the dependency relation is
/// the one defined by [`Operator::column_dependencies`]: columns contributing
/// rows, plus columns that determine how rows are combined, filtered or
/// reordered (join keys, group-by keys, filter predicates).
pub fn propagate_trust(dag: &mut OpDag) -> IrResult<()> {
    let order = dag.topo_order()?;
    for id in order {
        let node = dag.node(id)?;
        if node.op.is_input() {
            continue;
        }
        let input_schemas: Vec<Schema> = node
            .inputs
            .iter()
            .map(|&i| dag.node(i).map(|n| n.schema.clone()))
            .collect::<IrResult<_>>()?;
        let op = node.op.clone();
        let output = node.schema.clone();
        let deps = op.column_dependencies(&input_schemas, &output)?;
        let dep_map: HashMap<&str, &Vec<(usize, String)>> =
            deps.iter().map(|(name, d)| (name.as_str(), d)).collect();

        let mut new_schema = output.clone();
        for col in &mut new_schema.columns {
            let Some(dependencies) = dep_map.get(col.name.as_str()) else {
                continue;
            };
            let mut trust = TrustSet::Public;
            for (input_idx, input_col) in dependencies.iter() {
                if let Some(c) = input_schemas[*input_idx].column(input_col) {
                    trust = trust.intersect(&c.trust);
                }
            }
            // A column with no dependencies (e.g. a constant enumeration
            // index) stays public; otherwise use the intersection.
            if !dependencies.is_empty() {
                col.trust = trust;
            }
        }
        dag.node_mut(id)?.schema = new_schema;
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

    #[test]
    fn trust_propagation_follows_intersection_rule() {
        let query = credit_query();
        let mut dag = query.dag.clone();
        propagate_ownership(&mut dag).unwrap();
        propagate_trust(&mut dag).unwrap();

        // The concat of the banks' scores: ssn column trusted by the
        // regulator (party 1) via both banks' annotations (plus each bank
        // trusts itself, but the intersection across banks removes that).
        let concat = dag
            .iter()
            .find(|n| matches!(n.op, Operator::Concat))
            .unwrap();
        let ssn_trust = &concat.schema.column("ssn").unwrap().trust;
        assert!(ssn_trust.trusts(1), "regulator is trusted with bank SSNs");
        assert!(
            !ssn_trust.trusts(2),
            "bank A not trusted with bank B's SSNs"
        );

        // The score column is private: nobody (beyond implicit owners, which
        // differ across banks) is in its intersection.
        let score_trust = &concat.schema.column("score").unwrap().trust;
        assert!(!score_trust.trusts(1) && !score_trust.trusts(2) && !score_trust.trusts(3));

        // After the join on ssn, the aggregate output depends on zip (owned
        // by the regulator only) and score: trusted by no one jointly.
        let agg = dag
            .iter()
            .find(|n| matches!(&n.op, Operator::Aggregate { out, .. } if out == "total"))
            .unwrap();
        let total_trust = &agg.schema.column("total").unwrap().trust;
        assert!(!total_trust.trusts(2));
    }

    #[test]
    fn public_columns_stay_public_through_projections() {
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let schema = Schema::new(vec![
            ColumnDef::public("patientID", DataType::Int),
            ColumnDef::new("diagnosis", DataType::Int),
        ]);
        let mut q = QueryBuilder::new();
        let a = q.input("a", schema.clone(), pa.clone());
        let b = q.input("b", schema, pb);
        let cat = q.concat(&[a, b]);
        let proj = q.project(cat, &["patientID"]);
        q.collect(proj, &[pa]);
        let mut dag = q.build().unwrap().dag;
        propagate_ownership(&mut dag).unwrap();
        propagate_trust(&mut dag).unwrap();
        let leaf_proj = dag
            .iter()
            .find(|n| matches!(n.op, Operator::Project { .. }))
            .unwrap();
        assert!(leaf_proj
            .schema
            .column("patientID")
            .unwrap()
            .trust
            .is_public());
    }
}
