//! Execution-site assignment: draw the MPC frontier.
//!
//! After ownership propagation and the push-down rewrites, every node is
//! assigned where it runs: locally at its owning party, or under MPC when its
//! output combines data from several parties. `collect` nodes run at their
//! recipient (they only re-label data that the MPC boundary already revealed).
//!
//! The *MPC frontier* the other passes talk about is precisely the boundary
//! this pass draws between `Local(p)` sites and `Mpc` sites: every
//! `Local → Mpc` edge is a secret-sharing step, every `Mpc → Local` edge a
//! reveal. The hybrid rewrites and push-up run after this pass: push-up
//! re-labels nodes to move that boundary, and a hybrid node stays at `Mpc`
//! with its STP named in the operator. The hybrid pass derives trust on the
//! DAG this pass sites, so a cleartext placement counts as a disclosure to
//! its party. The driver later dispatches each node to the engine its final
//! site calls for.

use conclave_ir::dag::OpDag;
use conclave_ir::error::IrResult;
use conclave_ir::ops::{ExecSite, Operator};

/// Assigns an [`ExecSite`] to every live node.
pub fn run(dag: &mut OpDag) -> IrResult<()> {
    let order = dag.topo_order()?;
    for id in order {
        let node = dag.node(id)?;
        let site = match (&node.op, node.owner) {
            (Operator::Input { party, .. }, _) => ExecSite::Local(*party),
            (Operator::Collect { recipients }, _) => recipients
                .any_member()
                .map(ExecSite::Local)
                .unwrap_or(ExecSite::Mpc),
            (_, Some(owner)) => ExecSite::Local(owner),
            (_, None) => ExecSite::Mpc,
        };
        dag.node_mut(id)?.site = site;
    }
    Ok(())
}

/// The number of nodes on the MPC side of the frontier (a proxy for how much
/// work remains under MPC; used by tests and the compilation report).
pub fn mpc_node_count(dag: &OpDag) -> usize {
    dag.iter().filter(|n| n.site.is_mpc()).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::propagate_ownership;
    use conclave_ir::builder::QueryBuilder;
    use conclave_ir::ops::AggFunc;
    use conclave_ir::party::Party;
    use conclave_ir::schema::Schema;

    #[test]
    fn owned_nodes_run_locally_and_partitioned_nodes_under_mpc() {
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let mut q = QueryBuilder::new();
        let a = q.input("a", Schema::ints(&["k", "v"]), pa.clone());
        let b = q.input("b", Schema::ints(&["k", "v"]), pb);
        let fa = q.project(a, &["k", "v"]);
        let cat = q.concat(&[fa, b]);
        let agg = q.aggregate(cat, "s", AggFunc::Sum, &["k"], "v");
        q.collect(agg, &[pa]);
        let mut dag = q.build().unwrap().dag;
        propagate_ownership(&mut dag).unwrap();
        run(&mut dag).unwrap();

        let project = dag
            .iter()
            .find(|n| matches!(n.op, Operator::Project { .. }))
            .unwrap();
        assert_eq!(project.site, ExecSite::Local(1));
        let concat = dag
            .iter()
            .find(|n| matches!(n.op, Operator::Concat))
            .unwrap();
        assert_eq!(concat.site, ExecSite::Mpc);
        let agg_node = dag
            .iter()
            .find(|n| matches!(n.op, Operator::Aggregate { .. }))
            .unwrap();
        assert_eq!(agg_node.site, ExecSite::Mpc);
        let collect = dag
            .iter()
            .find(|n| matches!(n.op, Operator::Collect { .. }))
            .unwrap();
        assert_eq!(collect.site, ExecSite::Local(1));
        assert_eq!(mpc_node_count(&dag), 2);
    }

    #[test]
    fn single_party_query_has_no_mpc_nodes() {
        let pa = Party::new(1, "a");
        let mut q = QueryBuilder::new();
        let t = q.input("t", Schema::ints(&["k", "v"]), pa.clone());
        let agg = q.aggregate(t, "s", AggFunc::Sum, &["k"], "v");
        q.collect(agg, &[pa]);
        let mut dag = q.build().unwrap().dag;
        propagate_ownership(&mut dag).unwrap();
        run(&mut dag).unwrap();
        assert_eq!(mpc_node_count(&dag), 0);
    }
}
