//! The leakage linter (pass 6): statically certifies a compiled plan against
//! its trust annotations.
//!
//! Every other pass *chooses* where data may run in the clear; this pass
//! *proves* the choices honor the annotations. It computes the column-level
//! information-flow lattice of [`conclave_ir::flow`] over the final DAG and
//! verifies every disclosure point:
//!
//! * hybrid operators (`HybridJoin`, `HybridAggregate`, `PublicJoin`) — the
//!   STP/helper must be trusted with the join/group key columns it learns;
//! * cleartext placements (`ExecSite::Local`) consuming an MPC-produced
//!   relation — the executing party must be an authorized viewer of that
//!   relation, unless the consuming operator is reversible (push-up,
//!   simulatable from the output) or the declared `Collect`.
//!
//! The flow is the one trust derivation of the compiler: the hybrid pass
//! picked every STP from it, and here it is recomputed over the final DAG.
//! Every lookup fails closed: a key or column the flow does not hold is a
//! compile error, never an authorized disclosure.
//!
//! `Collect` itself is declassification by declaration: its recipients are
//! the query's stated output policy, so it contributes a *disclosure* to the
//! report rather than a violation (the paper's credit query reveals per-zip
//! aggregates of columns nobody is jointly trusted with — that is the
//! query's purpose).
//!
//! On success the pass returns a [`LeakageReport`]: the machine-readable
//! per-party account of what each party learns, surfaced by
//! `Session::explain_leakage`, SQL `EXPLAIN LEAKAGE`, and `RunReport` — and
//! the only authorization the driver consults: at each reveal it looks the
//! `(node, at_node, party)` up with [`LeakageReport::disclosure`] and refuses
//! to hand over cleartext the report does not contain. On failure
//! compilation aborts with [`crate::plan::CompileError::Leakage`] carrying
//! the offending node, column, party and derivation chain.

use crate::plan::{CompileError, CompileResult};
use conclave_ir::dag::{NodeId, OpDag};
use conclave_ir::flow::{compute_flow, Flow};
use conclave_ir::ops::{ExecSite, Operator};
use conclave_ir::party::{PartyId, PartySet};
use conclave_mpc::circuits::{EQ_ROUNDS, LT_ROUNDS};
use std::collections::BTreeSet;
use std::fmt;

/// Why a disclosure is part of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DisclosureKind {
    /// The query's declared output (`Collect` / `REVEAL TO`).
    QueryOutput,
    /// Join/group keys revealed (shuffled) to the STP or helper of a hybrid
    /// operator.
    StpKeys,
    /// An MPC-produced relation opened for cleartext post-processing at a
    /// party.
    CleartextOpen,
}

impl fmt::Display for DisclosureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DisclosureKind::QueryOutput => "query-output",
            DisclosureKind::StpKeys => "stp-keys",
            DisclosureKind::CleartextOpen => "cleartext-open",
        };
        f.write_str(s)
    }
}

/// One place the plan discloses cleartext data to a party, as proven by the
/// static analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disclosure {
    /// Node whose output relation is (partly) disclosed.
    pub node: NodeId,
    /// Node at which the disclosure happens (the consumer / reveal point).
    pub at_node: NodeId,
    /// Party that learns the data.
    pub to_party: PartyId,
    /// Columns disclosed, in schema order.
    pub columns: Vec<String>,
    /// Disclosure class.
    pub kind: DisclosureKind,
    /// Why the disclosure is authorized.
    pub justification: String,
}

/// The per-party leakage account of one compiled plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LeakageReport {
    /// Every proven disclosure, sorted by `(to_party, node, at_node)`.
    pub disclosures: Vec<Disclosure>,
    /// Metadata every party learns by construction (sizes, rounds — see
    /// `docs/SECURITY.md`).
    pub notes: Vec<String>,
    /// The party universe of the plan.
    pub parties: PartySet,
}

impl LeakageReport {
    /// Disclosures visible to one party.
    pub fn for_party(&self, party: PartyId) -> Vec<&Disclosure> {
        self.disclosures
            .iter()
            .filter(|d| d.to_party == party)
            .collect()
    }

    /// Returns `true` if the report claims `party` learns (part of) the
    /// output of `node`, at whichever node that happens.
    pub fn covers(&self, node: NodeId, party: PartyId) -> bool {
        self.disclosures
            .iter()
            .any(|d| d.node == node && d.to_party == party)
    }

    /// The disclosure certifying that `party` learns (part of) the output of
    /// `node` at `at_node`, if the plan has one. This is the driver's only
    /// authorization: a reveal without a match here does not happen.
    pub fn disclosure(&self, node: NodeId, at_node: NodeId, party: PartyId) -> Option<&Disclosure> {
        self.disclosures
            .iter()
            .find(|d| d.node == node && d.at_node == at_node && d.to_party == party)
    }

    /// Renders the report as stable, diffable text (used by the golden-file
    /// corpus in `tests/golden/`).
    pub fn render(&self) -> String {
        let mut out = String::from("static leakage report\n");
        for party in self.parties.iter() {
            let mine = self.for_party(party);
            if mine.is_empty() {
                out.push_str(&format!("P{party} learns nothing beyond public metadata\n"));
                continue;
            }
            out.push_str(&format!("P{party} learns:\n"));
            for d in mine {
                out.push_str(&format!(
                    "  node #{} [{}] columns [{}] — {}\n",
                    d.node,
                    d.kind,
                    d.columns.join(", "),
                    d.justification
                ));
            }
        }
        if !self.notes.is_empty() {
            out.push_str("public by construction:\n");
            for n in &self.notes {
                out.push_str(&format!("  - {n}\n"));
            }
        }
        out
    }
}

impl fmt::Display for LeakageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A statically proven policy violation: the plan would disclose a column to
/// a party outside its trust set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakageViolation {
    /// Node at which the unauthorized disclosure would happen.
    pub node: NodeId,
    /// Operator name of that node.
    pub op: String,
    /// The column that would leak.
    pub column: String,
    /// The party that would learn it without authorization.
    pub party: PartyId,
    /// Derivation chain of the column, from its originating input down to
    /// the disclosure point (`"#id op.column"` steps).
    pub chain: Vec<String>,
    /// What kind of disclosure was attempted.
    pub reason: String,
}

impl fmt::Display for LeakageViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node #{} ({}) would reveal column `{}` to untrusted party P{}: {}; derivation: {}",
            self.node,
            self.op,
            self.column,
            self.party,
            self.reason,
            self.chain.join(" -> ")
        )
    }
}

/// Runs the linter over a compiled (or hand-built) DAG and either certifies
/// it with a [`LeakageReport`] or rejects it with
/// [`CompileError::Leakage`].
pub fn run(dag: &OpDag, universe: &PartySet) -> CompileResult<LeakageReport> {
    let flow = compute_flow(dag)?;
    let mut disclosures = Vec::new();

    for node in dag.iter() {
        match &node.op {
            Operator::Collect { recipients } => {
                // Declassification by declaration: the analyst stated these
                // recipients receive the query output.
                for r in recipients.iter() {
                    disclosures.push(Disclosure {
                        node: node.id,
                        at_node: node.id,
                        to_party: r,
                        columns: node.schema.names().iter().map(|s| s.to_string()).collect(),
                        kind: DisclosureKind::QueryOutput,
                        justification: "declared output recipient".into(),
                    });
                }
            }
            Operator::HybridJoin {
                left_keys,
                right_keys,
                stp,
            } => {
                let left = input_of(dag, node.id, 0)?;
                let right = input_of(dag, node.id, 1)?;
                check_columns(
                    dag,
                    &flow,
                    left,
                    left_keys,
                    *stp,
                    node.id,
                    "hybrid join reveals (shuffled) keys to the STP",
                )?;
                check_columns(
                    dag,
                    &flow,
                    right,
                    right_keys,
                    *stp,
                    node.id,
                    "hybrid join reveals (shuffled) keys to the STP",
                )?;
                disclosures.push(stp_disclosure(node.id, *stp, left_keys, right_keys));
            }
            Operator::PublicJoin {
                left_keys,
                right_keys,
                helper,
            } => {
                let left = input_of(dag, node.id, 0)?;
                let right = input_of(dag, node.id, 1)?;
                check_columns(
                    dag,
                    &flow,
                    left,
                    left_keys,
                    *helper,
                    node.id,
                    "public join reveals keys to the helper",
                )?;
                check_columns(
                    dag,
                    &flow,
                    right,
                    right_keys,
                    *helper,
                    node.id,
                    "public join reveals keys to the helper",
                )?;
                disclosures.push(stp_disclosure(node.id, *helper, left_keys, right_keys));
            }
            Operator::HybridAggregate { group_by, stp, .. } => {
                let parent = input_of(dag, node.id, 0)?;
                check_columns(
                    dag,
                    &flow,
                    parent,
                    group_by,
                    *stp,
                    node.id,
                    "hybrid aggregation reveals (shuffled) group keys to the STP",
                )?;
                disclosures.push(stp_disclosure(node.id, *stp, group_by, &[]));
            }
            _ => {}
        }

        // Cleartext placements: a Local node consuming an MPC-produced
        // relation opens that relation to its executing party. A reversible
        // operator (push-up) or the declared `Collect` is exempt from the
        // trust check: what it opens is simulatable from the query output.
        if let ExecSite::Local(party) = node.site {
            let mut seen: BTreeSet<NodeId> = BTreeSet::new();
            for &input in &node.inputs {
                if !seen.insert(input) {
                    continue;
                }
                let parent = dag.node(input)?;
                if !parent.site.is_mpc() || parent.op.is_output() {
                    continue;
                }
                let exempt = node.op.is_reversible() || matches!(node.op, Operator::Collect { .. });
                let columns = column_names(dag, input)?;
                if !exempt {
                    check_columns(
                        dag,
                        &flow,
                        input,
                        &columns,
                        party,
                        node.id,
                        "cleartext execution opens an MPC-produced relation",
                    )?;
                }
                disclosures.push(Disclosure {
                    node: input,
                    at_node: node.id,
                    to_party: party,
                    columns,
                    kind: DisclosureKind::CleartextOpen,
                    justification: if exempt {
                        "reversible push-up (simulatable from the query output)".into()
                    } else {
                        "authorized by trust annotations".into()
                    },
                });
            }
        }
    }

    disclosures.sort_by(|a, b| {
        (a.to_party, a.node, a.at_node, &a.columns)
            .cmp(&(b.to_party, b.node, b.at_node, &b.columns))
    });
    disclosures.dedup();

    let mut notes = vec![
        "plan structure, row counts, message sizes/directions and the schedule of rounds \
         (docs/SECURITY.md: sizes and shapes)"
            .to_string(),
    ];
    if dag.iter().any(|n| n.site.is_mpc()) {
        notes.push(format!(
            "MPC openings are uniformly masked (MaskedOpen c = z - r, binary Beaver d/e); \
             comparison circuits run {LT_ROUNDS} (lt) / {EQ_ROUNDS} (eq) rounds regardless of \
             batch size"
        ));
    }

    Ok(LeakageReport {
        disclosures,
        notes,
        parties: universe.clone(),
    })
}

fn stp_disclosure(
    node: NodeId,
    stp: PartyId,
    left_keys: &[String],
    right_keys: &[String],
) -> Disclosure {
    let mut columns: Vec<String> = left_keys.to_vec();
    columns.extend(right_keys.iter().cloned());
    columns.dedup();
    Disclosure {
        node,
        at_node: node,
        to_party: stp,
        columns,
        kind: DisclosureKind::StpKeys,
        justification: "trust annotation designates this party as the STP / helper".into(),
    }
}

fn input_of(dag: &OpDag, node: NodeId, idx: usize) -> CompileResult<NodeId> {
    let n = dag.node(node)?;
    n.inputs.get(idx).copied().ok_or_else(|| {
        CompileError::Unsupported(format!(
            "node #{node} ({}) is missing input {idx}",
            n.op.name()
        ))
    })
}

fn column_names(dag: &OpDag, node: NodeId) -> CompileResult<Vec<String>> {
    Ok(dag
        .node(node)?
        .schema
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect())
}

/// Verifies that `party` is trusted with every listed column of `parent`'s
/// output (the relation's owner is always trusted with its own data). A
/// column the flow does not hold is an error, whoever asks.
fn check_columns(
    dag: &OpDag,
    flow: &Flow,
    parent: NodeId,
    columns: &[String],
    party: PartyId,
    at_node: NodeId,
    reason: &str,
) -> CompileResult<()> {
    let owner = dag.node(parent)?.owner;
    for col in columns {
        let trusted = flow.require(parent, col)?.trust.trusts(party);
        if !trusted && owner != Some(party) {
            let at = dag.node(at_node)?;
            return Err(CompileError::Leakage(LeakageViolation {
                node: at_node,
                op: at.op.name().to_string(),
                column: col.clone(),
                party,
                chain: flow.derivation_chain(dag, parent, col, party),
                reason: reason.to_string(),
            }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::ops::AggFunc;
    use conclave_ir::schema::{ColumnDef, Schema};
    use conclave_ir::trust::TrustSet;
    use conclave_ir::types::DataType;

    /// inputA(P1: k public, v private) + inputB(P2: k public, v trusted by 1)
    /// -> concat. Universe {1, 2}.
    fn base_dag() -> (OpDag, NodeId, PartySet) {
        let mut dag = OpDag::new();
        let sa = Schema::new(vec![
            ColumnDef::with_trust("k", DataType::Int, TrustSet::Public),
            ColumnDef::with_trust("v", DataType::Int, TrustSet::of([1])),
        ]);
        let mut sb = sa.clone();
        sb.column_mut("v").unwrap().trust = TrustSet::of([1]);
        let a = dag.add_node(
            Operator::Input {
                name: "ta".into(),
                party: 1,
            },
            vec![],
            sa.clone(),
        );
        let b = dag.add_node(
            Operator::Input {
                name: "tb".into(),
                party: 2,
            },
            vec![],
            sb.clone(),
        );
        let cat_schema = Operator::Concat.output_schema(&[sa, sb]).unwrap();
        let cat = dag.add_node(Operator::Concat, vec![a, b], cat_schema);
        (dag, cat, PartySet::from_ids([1, 2]))
    }

    #[test]
    fn collect_is_declassification_by_declaration() {
        let (mut dag, cat, universe) = base_dag();
        // Nobody is jointly trusted with v, yet collecting it to P2 is the
        // declared output policy — certified, not rejected.
        dag.insert_after(
            cat,
            Operator::Collect {
                recipients: PartySet::singleton(2),
            },
        )
        .unwrap();
        let report = run(&dag, &universe).unwrap();
        assert!(report
            .disclosures
            .iter()
            .any(|d| d.kind == DisclosureKind::QueryOutput && d.to_party == 2));
    }

    #[test]
    fn cleartext_site_over_untrusted_column_is_rejected() {
        let (mut dag, cat, universe) = base_dag();
        // A cleartext join at P2 over the concat (which holds v trusted only
        // by P1). Join keys on k (public) — but the relation itself opens.
        let proj_op = Operator::Project {
            columns: vec!["k".into()],
        };
        let proj_schema = proj_op
            .output_schema(&[dag.node(cat).unwrap().schema.clone()])
            .unwrap();
        let proj = dag.add_node(proj_op, vec![cat], proj_schema.clone());
        let join_schema = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
        }
        .output_schema(&[dag.node(cat).unwrap().schema.clone(), proj_schema])
        .unwrap();
        let join = dag.add_node(
            Operator::Join {
                left_keys: vec!["k".into()],
                right_keys: vec!["k".into()],
            },
            vec![cat, proj],
            join_schema.clone(),
        );
        let collect = dag.add_node(
            Operator::Collect {
                recipients: PartySet::singleton(1),
            },
            vec![join],
            join_schema,
        );
        dag.node_mut(cat).unwrap().site = ExecSite::Mpc;
        dag.node_mut(proj).unwrap().site = ExecSite::Mpc;
        dag.node_mut(join).unwrap().site = ExecSite::Local(2);
        dag.node_mut(collect).unwrap().site = ExecSite::Local(1);
        let err = run(&dag, &universe).unwrap_err();
        let CompileError::Leakage(v) = err else {
            panic!("expected a leakage violation, got {err}");
        };
        assert_eq!(v.party, 2);
        assert_eq!(v.column, "v");
        assert_eq!(v.node, join);
        assert!(v.chain[0].contains("input"), "chain starts at the source");
        assert!(v.to_string().contains("derivation"));
    }

    #[test]
    fn hybrid_stp_outside_key_trust_is_rejected() {
        let (mut dag, cat, universe) = base_dag();
        // Tamper a hybrid aggregate grouped by the private column v with an
        // untrusted STP.
        let agg = Operator::HybridAggregate {
            group_by: vec!["v".into()],
            func: AggFunc::Sum,
            over: Some("k".into()),
            out: "total".into(),
            stp: 2,
        };
        let schema = agg
            .output_schema(&[dag.node(cat).unwrap().schema.clone()])
            .unwrap();
        let h = dag.add_node(agg, vec![cat], schema.clone());
        dag.add_node(
            Operator::Collect {
                recipients: PartySet::singleton(1),
            },
            vec![h],
            schema,
        );
        let err = run(&dag, &universe).unwrap_err();
        let CompileError::Leakage(v) = err else {
            panic!("expected a leakage violation, got {err}");
        };
        assert_eq!((v.party, v.column.as_str(), v.node), (2, "v", h));
        // With a trusted STP the same plan certifies.
        match &mut dag.node_mut(h).unwrap().op {
            Operator::HybridAggregate { stp, .. } => *stp = 1,
            _ => unreachable!(),
        }
        let report = run(&dag, &universe).unwrap();
        assert!(report.covers(h, 1));
    }

    #[test]
    fn hybrid_key_missing_from_its_input_is_an_error_not_trusted() {
        // ta@P2's `k` is trusted by P2 alone, and it has no column `zz`. A
        // hybrid join keyed on `zz` names nothing the flow can place, so
        // the linter must refuse it rather than certify P1 as its STP.
        let mut dag = OpDag::new();
        let sa = Schema::new(vec![
            ColumnDef::with_trust("k", DataType::Int, TrustSet::of([2])),
            ColumnDef::new("v", DataType::Int),
        ]);
        let sb = Schema::new(vec![
            ColumnDef::with_trust("k", DataType::Int, TrustSet::of([1, 2])),
            ColumnDef::new("w", DataType::Int),
        ]);
        let ta = dag.add_node(
            Operator::Input {
                name: "ta".into(),
                party: 2,
            },
            vec![],
            sa.clone(),
        );
        let tb = dag.add_node(
            Operator::Input {
                name: "tb".into(),
                party: 1,
            },
            vec![],
            sb.clone(),
        );
        let keys = vec!["k".to_string()];
        let schema = conclave_ir::ops::join_schema(&sa, &sb, &keys, &keys).unwrap();
        let join = dag.add_node(
            Operator::HybridJoin {
                left_keys: vec!["zz".into()],
                right_keys: keys,
                stp: 1,
            },
            vec![ta, tb],
            schema.clone(),
        );
        dag.node_mut(join).unwrap().site = ExecSite::Mpc;
        dag.add_node(
            Operator::Collect {
                recipients: PartySet::singleton(2),
            },
            vec![join],
            schema,
        );
        let err = run(&dag, &PartySet::from_ids([1, 2])).unwrap_err();
        assert!(
            matches!(
                &err,
                CompileError::Ir(conclave_ir::error::IrError::UnknownColumn { column, .. })
                    if column == "zz"
            ),
            "{err}"
        );
    }

    #[test]
    fn report_renders_stably() {
        let (mut dag, cat, universe) = base_dag();
        dag.insert_after(
            cat,
            Operator::Collect {
                recipients: PartySet::singleton(1),
            },
        )
        .unwrap();
        let report = run(&dag, &universe).unwrap();
        let text = report.render();
        assert!(text.contains("P1 learns:"));
        assert!(text.contains("P2 learns nothing beyond public metadata"));
        assert!(text.contains("query-output"));
        assert_eq!(text, report.to_string());
    }
}
