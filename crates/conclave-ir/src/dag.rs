//! The operator DAG a query compiles into.
//!
//! Nodes are stored in an arena indexed by [`NodeId`]; each node records its
//! input node ids, its output [`Schema`], and the annotations the compiler
//! computes (owner, execution site, sort order). Child edges are derived from
//! the input lists.

use crate::error::{IrError, IrResult};
use crate::ops::{ExecSite, Operator};
use crate::party::PartyId;
use crate::schema::Schema;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};

/// Identifier of a node within an [`OpDag`].
pub type NodeId = usize;

/// One operator instance in the DAG together with its compiler annotations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagNode {
    /// The node's id (its index in the arena).
    pub id: NodeId,
    /// The relational operator.
    pub op: Operator,
    /// Ids of the input nodes, in operator-argument order.
    pub inputs: Vec<NodeId>,
    /// Output schema of the operator.
    pub schema: Schema,
    /// Owner of the output relation: `Some(p)` if party `p` can compute it
    /// locally from its own data, `None` if the relation is partitioned
    /// across parties (§5.1). Inputs start owned by their storing party.
    pub owner: Option<PartyId>,
    /// Execution site chosen by the compiler.
    pub site: ExecSite,
    /// Column the output is known to be sorted by, if any (§5.4 tracking).
    pub sorted_by: Option<String>,
    /// Marks nodes removed by rewrites; they are skipped by traversals.
    pub deleted: bool,
}

impl DagNode {
    /// Returns `true` if this node must run under MPC because its output
    /// combines data from multiple parties (it has no owner) and it is not an
    /// input.
    pub fn is_partitioned(&self) -> bool {
        self.owner.is_none() && !self.op.is_input()
    }
}

/// A directed acyclic graph of relational operators.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpDag {
    nodes: Vec<DagNode>,
}

impl OpDag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        OpDag::default()
    }

    /// Adds a node with the given operator, inputs and schema; returns its id.
    pub fn add_node(&mut self, op: Operator, inputs: Vec<NodeId>, schema: Schema) -> NodeId {
        let id = self.nodes.len();
        let owner = match &op {
            Operator::Input { party, .. } => Some(*party),
            _ => None,
        };
        self.nodes.push(DagNode {
            id,
            op,
            inputs,
            schema,
            owner,
            site: ExecSite::Undecided,
            sorted_by: None,
            deleted: false,
        });
        id
    }

    /// Number of live (non-deleted) nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.deleted).count()
    }

    /// Total number of node slots ever allocated (including deleted ones).
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> IrResult<&DagNode> {
        self.nodes.get(id).ok_or(IrError::UnknownNode(id))
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> IrResult<&mut DagNode> {
        self.nodes.get_mut(id).ok_or(IrError::UnknownNode(id))
    }

    /// Iterates over all live nodes.
    pub fn iter(&self) -> impl Iterator<Item = &DagNode> {
        self.nodes.iter().filter(|n| !n.deleted)
    }

    /// Ids of all live nodes with no inputs (the query's input relations).
    pub fn roots(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|n| n.inputs.is_empty())
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all live nodes that no live node consumes (the query outputs).
    pub fn leaves(&self) -> Vec<NodeId> {
        let mut consumed: HashSet<NodeId> = HashSet::new();
        for n in self.iter() {
            for &i in &n.inputs {
                consumed.insert(i);
            }
        }
        self.iter()
            .filter(|n| !consumed.contains(&n.id))
            .map(|n| n.id)
            .collect()
    }

    /// Ids of the live nodes that consume `id` as an input.
    pub fn children_of(&self, id: NodeId) -> Vec<NodeId> {
        self.iter()
            .filter(|n| n.inputs.contains(&id))
            .map(|n| n.id)
            .collect()
    }

    /// Marks a node as deleted. Its consumers must have been rewired first.
    pub fn delete_node(&mut self, id: NodeId) -> IrResult<()> {
        self.node_mut(id)?.deleted = true;
        Ok(())
    }

    /// Replaces every use of `old` as an input with `new` across the DAG.
    pub fn replace_input_everywhere(&mut self, old: NodeId, new: NodeId) {
        for n in self.nodes.iter_mut().filter(|n| !n.deleted) {
            for input in n.inputs.iter_mut() {
                if *input == old {
                    *input = new;
                }
            }
        }
    }

    /// Replaces `old` with `new` in the input list of node `child` only.
    pub fn replace_input_of(&mut self, child: NodeId, old: NodeId, new: NodeId) -> IrResult<()> {
        let node = self.node_mut(child)?;
        let mut found = false;
        for input in node.inputs.iter_mut() {
            if *input == old {
                *input = new;
                found = true;
            }
        }
        if found {
            Ok(())
        } else {
            Err(IrError::MalformedDag(format!(
                "node {child} does not consume node {old}"
            )))
        }
    }

    /// Inserts a new node with operator `op` between `parent` and all of the
    /// consumers of `parent`, returning the new node's id.
    pub fn insert_after(&mut self, parent: NodeId, op: Operator) -> IrResult<NodeId> {
        let parent_schema = self.node(parent)?.schema.clone();
        let schema = op.output_schema(&[parent_schema])?;
        let children = self.children_of(parent);
        let new_id = self.add_node(op, vec![parent], schema);
        for child in children {
            self.replace_input_of(child, parent, new_id)?;
        }
        Ok(new_id)
    }

    /// Returns the ids of all live nodes in a topological order (inputs before
    /// consumers). Fails if the graph contains a cycle.
    pub fn topo_order(&self) -> IrResult<Vec<NodeId>> {
        let live: Vec<&DagNode> = self.iter().collect();
        let mut in_degree: HashMap<NodeId, usize> = HashMap::new();
        for n in &live {
            in_degree.entry(n.id).or_insert(0);
            for &_i in &n.inputs {
                *in_degree.entry(n.id).or_insert(0) += 0;
            }
        }
        for n in &live {
            let deg = n
                .inputs
                .iter()
                .filter(|i| self.nodes.get(**i).map(|p| !p.deleted).unwrap_or(false))
                .count();
            in_degree.insert(n.id, deg);
        }
        let mut queue: VecDeque<NodeId> = in_degree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        let mut sorted_queue: Vec<NodeId> = queue.drain(..).collect();
        sorted_queue.sort_unstable();
        let mut queue: VecDeque<NodeId> = sorted_queue.into();
        let mut order = Vec::with_capacity(live.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for child in self.children_of(id) {
                let deg = in_degree.get_mut(&child).expect("child is live");
                *deg -= 1;
                if *deg == 0 {
                    queue.push_back(child);
                }
            }
        }
        if order.len() != live.len() {
            return Err(IrError::MalformedDag("cycle detected".into()));
        }
        Ok(order)
    }

    /// Returns the ids of all live nodes in reverse topological order.
    pub fn reverse_topo_order(&self) -> IrResult<Vec<NodeId>> {
        let mut order = self.topo_order()?;
        order.reverse();
        Ok(order)
    }

    /// Validates structural invariants: input references exist and are live,
    /// operator arities match, no cycles, and every non-input node's schema
    /// matches what its operator derives from its inputs' schemas.
    pub fn validate(&self) -> IrResult<()> {
        for n in self.iter() {
            if let Some(arity) = n.op.arity() {
                if n.inputs.len() != arity {
                    return Err(IrError::MalformedDag(format!(
                        "node {} ({}) expects {} inputs, has {}",
                        n.id,
                        n.op.name(),
                        arity,
                        n.inputs.len()
                    )));
                }
            } else if n.inputs.is_empty() {
                return Err(IrError::MalformedDag(format!(
                    "variadic node {} ({}) has no inputs",
                    n.id,
                    n.op.name()
                )));
            }
            for &i in &n.inputs {
                let input = self.node(i)?;
                if input.deleted {
                    return Err(IrError::MalformedDag(format!(
                        "node {} consumes deleted node {}",
                        n.id, i
                    )));
                }
            }
            if !n.op.is_input() {
                let input_schemas: Vec<Schema> = n
                    .inputs
                    .iter()
                    .map(|&i| self.node(i).map(|x| x.schema.clone()))
                    .collect::<IrResult<_>>()?;
                let derived = n.op.output_schema(&input_schemas)?;
                if derived.names() != n.schema.names() {
                    return Err(IrError::MalformedDag(format!(
                        "node {} ({}) schema mismatch: stored {:?}, derived {:?}",
                        n.id,
                        n.op.name(),
                        n.schema.names(),
                        derived.names()
                    )));
                }
            }
        }
        self.topo_order()?;
        Ok(())
    }

    /// Recomputes and stores the output schemas of all non-input nodes in
    /// topological order. Call after rewrites that change upstream schemas.
    pub fn recompute_schemas(&mut self) -> IrResult<()> {
        let order = self.topo_order()?;
        for id in order {
            let node = self.node(id)?;
            if node.op.is_input() {
                continue;
            }
            let input_schemas: Vec<Schema> = node
                .inputs
                .iter()
                .map(|&i| self.node(i).map(|x| x.schema.clone()))
                .collect::<IrResult<_>>()?;
            let op = node.op.clone();
            let schema = op.output_schema(&input_schemas)?;
            self.node_mut(id)?.schema = schema;
        }
        Ok(())
    }

    /// All nodes currently assigned to MPC execution.
    pub fn mpc_nodes(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|n| n.site.is_mpc())
            .map(|n| n.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{AggFunc, Operand};
    use crate::party::PartySet;

    fn simple_dag() -> (OpDag, NodeId, NodeId, NodeId, NodeId) {
        // inputA --\
        //           concat -> aggregate -> collect
        // inputB --/
        let mut dag = OpDag::new();
        let schema = Schema::ints(&["k", "v"]);
        let a = dag.add_node(
            Operator::Input {
                name: "a".into(),
                party: 1,
            },
            vec![],
            schema.clone(),
        );
        let b = dag.add_node(
            Operator::Input {
                name: "b".into(),
                party: 2,
            },
            vec![],
            schema.clone(),
        );
        let cat = dag.add_node(
            Operator::Concat,
            vec![a, b],
            Operator::Concat
                .output_schema(&[schema.clone(), schema.clone()])
                .unwrap(),
        );
        let agg_op = Operator::Aggregate {
            group_by: vec!["k".into()],
            func: AggFunc::Sum,
            over: Some("v".into()),
            out: "total".into(),
        };
        let agg_schema = agg_op.output_schema(std::slice::from_ref(&schema)).unwrap();
        let agg = dag.add_node(agg_op, vec![cat], agg_schema.clone());
        let col = dag.add_node(
            Operator::Collect {
                recipients: PartySet::singleton(1),
            },
            vec![agg],
            agg_schema,
        );
        (dag, a, b, cat, col)
    }

    #[test]
    fn construction_and_queries() {
        let (dag, a, b, cat, col) = simple_dag();
        assert_eq!(dag.node_count(), 5);
        assert_eq!(dag.roots(), vec![a, b]);
        assert_eq!(dag.leaves(), vec![col]);
        assert_eq!(dag.children_of(a), vec![cat]);
        assert_eq!(dag.node(a).unwrap().owner, Some(1));
        assert_eq!(dag.node(cat).unwrap().owner, None);
        assert!(dag.node(999).is_err());
        assert!(dag.validate().is_ok());
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let (dag, a, b, cat, col) = simple_dag();
        let order = dag.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(cat));
        assert!(pos(b) < pos(cat));
        assert!(pos(cat) < pos(col));
        let rev = dag.reverse_topo_order().unwrap();
        assert_eq!(rev[0], col);
    }

    #[test]
    fn insert_after_rewires_children() {
        let (mut dag, _a, _b, cat, _col) = simple_dag();
        let children_before = dag.children_of(cat);
        let new = dag.insert_after(cat, Operator::Limit { n: 1 }).unwrap();
        assert_eq!(dag.children_of(cat), vec![new]);
        assert_eq!(dag.children_of(new), children_before);
        assert!(dag.validate().is_ok());
    }

    #[test]
    fn delete_and_replace() {
        let (mut dag, a, b, cat, _col) = simple_dag();
        // Replace the concat with just input a everywhere, then delete it.
        dag.replace_input_everywhere(cat, a);
        dag.delete_node(cat).unwrap();
        dag.delete_node(b).unwrap();
        assert_eq!(dag.node_count(), 3);
        assert!(dag.validate().is_ok());
        assert!(dag.children_of(a).len() == 1);
    }

    #[test]
    fn replace_input_of_single_child() {
        let (mut dag, a, b, cat, _col) = simple_dag();
        assert!(dag.replace_input_of(cat, a, b).is_ok());
        assert_eq!(dag.node(cat).unwrap().inputs, vec![b, b]);
        assert!(dag.replace_input_of(cat, a, b).is_err());
    }

    #[test]
    fn validate_catches_arity_and_schema_errors() {
        let mut dag = OpDag::new();
        let schema = Schema::ints(&["k"]);
        let a = dag.add_node(
            Operator::Input {
                name: "a".into(),
                party: 1,
            },
            vec![],
            schema.clone(),
        );
        // Join with a single input: arity error.
        let bad = dag.add_node(
            Operator::Join {
                left_keys: vec!["k".into()],
                right_keys: vec!["k".into()],
            },
            vec![a],
            schema.clone(),
        );
        assert!(dag.validate().is_err());
        dag.delete_node(bad).unwrap();
        assert!(dag.validate().is_ok());

        // Stored schema that disagrees with the derived one.
        let wrong = dag.add_node(
            Operator::Project {
                columns: vec!["k".into()],
            },
            vec![a],
            Schema::ints(&["zzz"]),
        );
        assert!(dag.validate().is_err());
        dag.delete_node(wrong).unwrap();
        assert!(dag.validate().is_ok());
    }

    #[test]
    fn recompute_schemas_after_rewrite() {
        let (mut dag, a, _b, cat, _col) = simple_dag();
        // Add a computed column upstream and recompute downstream schemas.
        let mul = Operator::Multiply {
            out: "v2".into(),
            operands: vec![Operand::col("v"), Operand::lit(2)],
        };
        let mul_schema = mul
            .output_schema(&[dag.node(a).unwrap().schema.clone()])
            .unwrap();
        let mul_id = dag.add_node(mul, vec![a], mul_schema);
        // Concat now has mismatched arity of columns; rewire both inputs via
        // projection back to (k, v) to keep it valid.
        let proj = Operator::Project {
            columns: vec!["k".into(), "v".into()],
        };
        let proj_schema = proj
            .output_schema(&[dag.node(mul_id).unwrap().schema.clone()])
            .unwrap();
        let proj_id = dag.add_node(proj, vec![mul_id], proj_schema);
        dag.replace_input_of(cat, a, proj_id).unwrap();
        assert!(dag.recompute_schemas().is_ok());
        assert!(dag.validate().is_ok());
    }

    #[test]
    fn cycle_detection() {
        let (mut dag, a, _b, cat, _col) = simple_dag();
        // Manually create a cycle: a consumes cat.
        dag.node_mut(a).unwrap().inputs = vec![cat];
        assert!(dag.topo_order().is_err());
    }

    #[test]
    fn mpc_nodes_lists_only_mpc_sites() {
        let (mut dag, a, b, cat, col) = simple_dag();
        dag.node_mut(a).unwrap().site = ExecSite::Local(1);
        dag.node_mut(b).unwrap().site = ExecSite::Local(2);
        dag.node_mut(cat).unwrap().site = ExecSite::Mpc;
        dag.node_mut(col).unwrap().site = ExecSite::Local(1);
        assert_eq!(dag.mpc_nodes(), vec![cat]);
    }

    #[test]
    fn partitioned_detection() {
        let (dag, a, _b, cat, _col) = simple_dag();
        assert!(!dag.node(a).unwrap().is_partitioned());
        assert!(dag.node(cat).unwrap().is_partitioned());
    }
}
