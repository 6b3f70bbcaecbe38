//! Oblivious-sort tracking and elimination (§5.4): delete work *inside* the
//! frontier.
//!
//! While the other passes relocate or split operators, this one removes them
//! outright. Oblivious sorts are among the most expensive MPC sub-protocols.
//! This pass
//! tracks, for every intermediate relation, the column (if any) by which it
//! is known to be sorted, then removes `sort_by` operators whose input is
//! already sorted on the same column and direction. The tracked order is also
//! recorded on the DAG nodes so the driver and the cardinality estimator can
//! skip the sorting step inside MPC aggregations whose input arrives
//! pre-sorted (the optimization behind the aspirin-count speedup in §7.4).

use conclave_ir::dag::{NodeId, OpDag};
use conclave_ir::error::IrResult;
use conclave_ir::ops::Operator;

/// Runs the pass: annotates `sorted_by` on every node and deletes redundant
/// sorts. Returns a log of eliminated sort operators.
pub fn run(dag: &mut OpDag) -> IrResult<Vec<String>> {
    let mut log = Vec::new();
    loop {
        annotate(dag)?;
        let Some(redundant) = find_redundant_sort(dag)? else {
            break;
        };
        let input = dag.node(redundant)?.inputs[0];
        dag.replace_input_everywhere(redundant, input);
        dag.delete_node(redundant)?;
        log.push(format!(
            "sort-elimination: removed redundant sort #{redundant} (input already sorted)"
        ));
    }
    Ok(log)
}

/// Annotates every node's `sorted_by` field in topological order.
fn annotate(dag: &mut OpDag) -> IrResult<()> {
    let order = dag.topo_order()?;
    for id in order {
        let node = dag.node(id)?;
        let input_order: Option<String> = node
            .inputs
            .first()
            .and_then(|&i| dag.node(i).ok())
            .and_then(|n| n.sorted_by.clone());
        let sorted_by = match &node.op {
            Operator::SortBy { column, .. } => Some(column.clone()),
            // The public join's helper sorts the joined result by the join
            // key in the clear (§7.4: "Conclave performs the sort in the
            // clear, as part of the public join").
            Operator::PublicJoin { left_keys, .. } => left_keys.first().cloned(),
            op if op.preserves_order() => {
                // The order survives only if the column itself survives.
                match (&input_order, op) {
                    (Some(col), Operator::Project { columns }) if !columns.contains(col) => None,
                    _ => input_order,
                }
            }
            _ => None,
        };
        dag.node_mut(id)?.sorted_by = sorted_by;
    }
    Ok(())
}

/// Finds a `sort_by` node whose input is already sorted by the same column.
fn find_redundant_sort(dag: &OpDag) -> IrResult<Option<NodeId>> {
    for node in dag.iter() {
        if let Operator::SortBy { column, ascending } = &node.op {
            if !*ascending {
                continue; // descending orders are not tracked
            }
            let input = dag.node(node.inputs[0])?;
            if input.sorted_by.as_deref() == Some(column.as_str()) {
                return Ok(Some(node.id));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::builder::QueryBuilder;
    use conclave_ir::expr::Expr;
    use conclave_ir::ops::AggFunc;
    use conclave_ir::party::Party;
    use conclave_ir::schema::Schema;

    #[test]
    fn redundant_sort_after_sort_is_removed() {
        let pa = Party::new(1, "a");
        let mut q = QueryBuilder::new();
        let t = q.input("t", Schema::ints(&["k", "v"]), pa.clone());
        let s1 = q.sort_by(t, "k", true);
        let f = q.filter(s1, Expr::col("v").gt(Expr::lit(0)));
        let s2 = q.sort_by(f, "k", true); // redundant: filter preserves order
        let agg = q.aggregate(s2, "s", AggFunc::Sum, &["k"], "v");
        q.collect(agg, &[pa]);
        let mut dag = q.build().unwrap().dag;
        let before = dag.node_count();
        let log = run(&mut dag).unwrap();
        assert_eq!(log.len(), 1, "{log:?}");
        assert_eq!(dag.node_count(), before - 1);
        assert!(dag.validate().is_ok());
        // The aggregation's input is known-sorted, which the driver uses to
        // skip the oblivious sort.
        let agg_node = dag
            .iter()
            .find(|n| matches!(n.op, Operator::Aggregate { .. }))
            .unwrap();
        let agg_input = dag.node(agg_node.inputs[0]).unwrap();
        assert_eq!(agg_input.sorted_by.as_deref(), Some("k"));
    }

    #[test]
    fn projection_dropping_the_sort_column_clears_the_order() {
        let pa = Party::new(1, "a");
        let mut q = QueryBuilder::new();
        let t = q.input("t", Schema::ints(&["k", "v"]), pa.clone());
        let s = q.sort_by(t, "k", true);
        let p = q.project(s, &["v"]);
        let s2 = q.sort_by(p, "v", true); // not redundant
        q.collect(s2, &[pa]);
        let mut dag = q.build().unwrap().dag;
        let log = run(&mut dag).unwrap();
        assert!(log.is_empty());
        let proj = dag
            .iter()
            .find(|n| matches!(n.op, Operator::Project { .. }))
            .unwrap();
        assert_eq!(proj.sorted_by, None);
    }

    #[test]
    fn shuffling_operators_clear_the_order() {
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let mut q = QueryBuilder::new();
        let a = q.input("a", Schema::ints(&["k", "v"]), pa.clone());
        let b = q.input("b", Schema::ints(&["k", "v"]), pb);
        let sa = q.sort_by(a, "k", true);
        let sb = q.sort_by(b, "k", true);
        let cat = q.concat(&[sa, sb]); // concat does not preserve a global order
        let s = q.sort_by(cat, "k", true); // NOT redundant
        q.collect(s, &[pa]);
        let mut dag = q.build().unwrap().dag;
        let log = run(&mut dag).unwrap();
        assert!(log.is_empty());
    }

    #[test]
    fn public_join_output_counts_as_sorted() {
        use conclave_ir::ops::Operator;
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let mut q = QueryBuilder::new();
        let a = q.input("a", Schema::ints(&["k", "v"]), pa.clone());
        let b = q.input("b", Schema::ints(&["k", "w"]), pb);
        let j = q.join(a, b, &["k"], &["k"]);
        let s = q.sort_by(j, "k", true);
        q.collect(s, &[pa]);
        let mut dag = q.build().unwrap().dag;
        // Manually rewrite the join into a public join (as the hybrid pass
        // would for public keys), then the sort becomes redundant.
        let join_id = dag
            .iter()
            .find(|n| matches!(n.op, Operator::Join { .. }))
            .unwrap()
            .id;
        dag.node_mut(join_id).unwrap().op = Operator::PublicJoin {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
            helper: 1,
        };
        let log = run(&mut dag).unwrap();
        assert_eq!(log.len(), 1, "{log:?}");
    }
}
