//! Human-readable and Graphviz renderings of operator DAGs.

use crate::dag::OpDag;
use crate::flow::compute_flow;
use crate::ops::ExecSite;
use std::fmt::Write as _;

/// Renders the DAG as an indented, topologically ordered text plan.
///
/// Each line shows the node id, operator, execution site, owner and schema,
/// each column with the trust [`compute_flow`] derives for it — the labels
/// the leakage linter certifies — which makes the output useful both for
/// debugging rewrites and for documentation.
pub fn render_text(dag: &OpDag) -> String {
    let mut out = String::new();
    let (order, flow) = match dag.topo_order().and_then(|o| Ok((o, compute_flow(dag)?))) {
        Ok(v) => v,
        Err(e) => return format!("<malformed dag: {e}>"),
    };
    for id in order {
        let node = dag.node(id).expect("topo order returns live nodes");
        let owner = match node.owner {
            Some(p) => format!("P{p}"),
            None => "-".to_string(),
        };
        let sorted = node
            .sorted_by
            .as_deref()
            .map(|c| format!(" sorted_by={c}"))
            .unwrap_or_default();
        let columns: Vec<String> = node
            .schema
            .columns
            .iter()
            .zip(flow.columns(id).unwrap_or_default())
            .map(|(c, (_, v))| format!("{}:{} [{}]", c.name, c.dtype, v.trust))
            .collect();
        let _ = writeln!(
            out,
            "#{:<3} {:<40} site={:<10} owner={:<4} inputs={:?}{} ({})",
            node.id,
            node.op.to_string(),
            node.site.to_string(),
            owner,
            node.inputs,
            sorted,
            columns.join(", "),
        );
    }
    out
}

/// Renders the DAG in Graphviz DOT format. MPC nodes are drawn as red boxes
/// and local cleartext nodes as green ellipses, mirroring Figure 2 of the
/// paper.
pub fn render_dot(dag: &OpDag) -> String {
    let mut out = String::from("digraph conclave {\n  rankdir=BT;\n");
    for node in dag.iter() {
        let (shape, color) = match node.site {
            ExecSite::Mpc => ("box", "red"),
            ExecSite::Local(_) => ("ellipse", "darkgreen"),
            ExecSite::Undecided => ("ellipse", "gray"),
        };
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\\n{}\", shape={}, color={}];",
            node.id, node.op, node.site, shape, color
        );
        for &input in &node.inputs {
            let _ = writeln!(out, "  n{} -> n{};", input, node.id);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use crate::ops::AggFunc;
    use crate::party::Party;
    use crate::schema::Schema;

    fn demo_dag() -> OpDag {
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let mut q = QueryBuilder::new();
        let a = q.input("a", Schema::ints(&["k", "v"]), pa.clone());
        let b = q.input("b", Schema::ints(&["k", "v"]), pb);
        let c = q.concat(&[a, b]);
        let agg = q.aggregate(c, "total", AggFunc::Sum, &["k"], "v");
        q.collect(agg, &[pa]);
        q.build().unwrap().dag
    }

    #[test]
    fn text_rendering_lists_every_node() {
        let dag = demo_dag();
        let text = render_text(&dag);
        assert_eq!(text.lines().count(), dag.node_count());
        assert!(text.contains("aggregate"));
        assert!(text.contains("concat"));
    }

    #[test]
    fn text_rendering_shows_the_flow_trust_not_the_stored_schema() {
        use crate::ops::Operator;
        use crate::schema::ColumnDef;
        use crate::trust::TrustSet;
        use crate::types::DataType;
        let wide = Schema::new(vec![ColumnDef::with_trust(
            "v",
            DataType::Int,
            TrustSet::of([1, 2]),
        )]);
        let narrow = Schema::new(vec![ColumnDef::with_trust(
            "v",
            DataType::Int,
            TrustSet::of([1]),
        )]);
        let mut dag = OpDag::new();
        let a = dag.add_node(
            Operator::Input {
                name: "a".into(),
                party: 1,
            },
            vec![],
            wide.clone(),
        );
        let b = dag.add_node(
            Operator::Input {
                name: "b".into(),
                party: 2,
            },
            vec![],
            narrow.clone(),
        );
        // The stored concat schema copies the first input's annotation.
        let cat = dag.add_node(Operator::Concat, vec![a, b], wide);
        let text = render_text(&dag);
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("#{cat} ")))
            .unwrap();
        assert!(line.contains("v:INT [trust{1}]"), "{line}");
    }

    #[test]
    fn dot_rendering_has_edges_and_nodes() {
        let dag = demo_dag();
        let dot = render_dot(&dag);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert!(dot.ends_with("}\n"));
        // One node line per live node.
        let node_lines = dot.lines().filter(|l| l.contains("[label=")).count();
        assert_eq!(node_lines, dag.node_count());
    }

    #[test]
    fn malformed_dag_renders_error_text() {
        let mut dag = demo_dag();
        // Introduce a cycle.
        let roots = dag.roots();
        let leaves = dag.leaves();
        dag.node_mut(roots[0]).unwrap().inputs = vec![leaves[0]];
        let text = render_text(&dag);
        assert!(text.contains("malformed"));
    }
}
