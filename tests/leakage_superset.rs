//! Differential check closing the loop on the static leakage linter: the
//! compiler's `LeakageReport` must be a **superset** of what execution
//! actually discloses.
//!
//! Two directions are pinned here:
//!
//! * For randomly generated annotated queries run over the real channel-mesh
//!   party runtime (the same per-party transports `tests/wire_privacy.rs`
//!   sniffs — reveals are the only point where cleartext crosses the MPC
//!   boundary), every reveal the driver makes must be covered by a disclosure
//!   in the static report. The driver enforces that itself — it looks each
//!   reveal up in the report and refuses the run otherwise — so a linter
//!   that under-approximates shows here as a query failing with
//!   `UnauthorizedReveal`. The linter may over-approximate; it must never
//!   under-approximate.
//! * A deliberately leaky plan — a compiled plan whose MPC step is moved into
//!   the clear at a party not trusted with its input — is refused twice: the
//!   linter rejects it with a diagnostic naming the node, column, party and
//!   derivation chain, and the driver, which re-lints every plan it is
//!   handed, refuses to run it.

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave::core::driver::DriverError;
use conclave::core::passes::leakage;
use conclave::ir::flow::compute_flow;
use conclave::ir::ops::{ExecSite, Operator};
use conclave::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random per-column trust annotation over the two-party universe.
fn gen_trust(rng: &mut StdRng) -> &'static str {
    [
        "",
        " PUBLIC",
        " TRUSTED BY (p1)",
        " TRUSTED BY (p2)",
        " TRUSTED BY (p1, p2)",
    ][rng.gen_range(0..5usize)]
}

/// Generates a random annotated two-party script: random trust on every
/// column, a random query shape, and a random output recipient.
fn gen_annotated_script(rng: &mut StdRng) -> String {
    let decls = format!(
        "CREATE TABLE ta (k INT{}, v INT{}) WITH OWNER p1;
         CREATE TABLE tb (k INT{}, v INT{}) WITH OWNER p2;",
        gen_trust(rng),
        gen_trust(rng),
        gen_trust(rng),
        gen_trust(rng),
    );
    let recipient = rng.gen_range(1..3u32);
    let query = match rng.gen_range(0..6) {
        0 => "SELECT k, SUM(v) AS total FROM (ta UNION ALL tb) GROUP BY k".to_string(),
        1 => "SELECT COUNT(*) AS n FROM ta JOIN tb ON k = k".to_string(),
        2 => "SELECT k, SUM(v) AS total FROM ta JOIN tb ON k = k GROUP BY k".to_string(),
        3 => "SELECT DISTINCT k FROM (ta UNION ALL tb)".to_string(),
        // `tb.v` collides with `ta.v`, so the join renames it to `v_r`.
        4 => "SELECT tb.v, SUM(ta.v) AS s FROM ta JOIN tb ON ta.k = tb.k GROUP BY tb.v".to_string(),
        _ => format!(
            "SELECT k, v FROM (ta UNION ALL tb) WHERE v > {}",
            rng.gen_range(0..4)
        ),
    };
    format!("{decls} {query} REVEAL TO p{recipient};")
}

fn session() -> Session {
    Session::new(
        ConclaveConfig::standard()
            .with_sequential_local()
            .with_channel_runtime(),
    )
    .bind(
        "ta",
        Relation::from_ints(&["k", "v"], &[vec![1, 2], vec![2, 7], vec![1, 4]]),
    )
    .bind(
        "tb",
        Relation::from_ints(&["k", "v"], &[vec![1, 3], vec![3, 5]]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hybrid pass and the linter read one trust derivation: every STP
    /// or helper the pass picks is inside the `Flow` trust of every key
    /// column on its inputs. Compile-only.
    #[test]
    fn every_stp_is_inside_the_flow_trust_of_its_keys(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sql = gen_annotated_script(&mut rng);
        let session = Session::new(ConclaveConfig::standard());
        let query = session.sql_query(&sql).unwrap();
        let plan = match session.compile(&query) {
            Ok(plan) => plan,
            // The linter refusing an operator the hybrid pass chose is the
            // disagreement this property rules out; refusing anything else
            // leaves nothing to check.
            Err(SessionError::Compile(CompileError::Leakage(v))) => {
                prop_assert!(
                    !["hybrid_join", "public_join", "hybrid_aggregate"].contains(&v.op.as_str()),
                    "the linter refused the hybrid pass's choice: {v}\nquery: {sql}"
                );
                return;
            }
            Err(other) => panic!("compile failed for a non-leakage reason: {other}\n{sql}"),
        };
        let flow = compute_flow(&plan.dag).unwrap();
        for node in plan.dag.iter() {
            let (party, keys): (u32, Vec<&Vec<String>>) = match &node.op {
                Operator::HybridJoin { left_keys, right_keys, stp: p }
                | Operator::PublicJoin { left_keys, right_keys, helper: p } => {
                    (*p, vec![left_keys, right_keys])
                }
                Operator::HybridAggregate { group_by, stp, .. } => (*stp, vec![group_by]),
                _ => continue,
            };
            for (&input, keys) in node.inputs.iter().zip(keys) {
                for key in keys {
                    let trust = &flow.value(input, key).unwrap().trust;
                    prop_assert!(
                        trust.trusts(party),
                        "node #{} ({}) gives key `{key}` of #{input} ({trust}) to P{party}\n\
                         query: {sql}\nplan:\n{}",
                        node.id,
                        node.op,
                        plan.render(),
                    );
                }
            }
        }
    }

    /// The superset property: static report ⊇ dynamic leakage events.
    #[test]
    fn static_report_covers_every_dynamic_reveal(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sql = gen_annotated_script(&mut rng);
        let report = match session().run_sql(&sql) {
            Ok(r) => r,
            // The linter proving a generated plan leaky and refusing to
            // compile it satisfies the property vacuously — nothing ran, so
            // nothing was disclosed.
            Err(SessionError::Compile(CompileError::Leakage(_))) => return,
            Err(other) => panic!("query failed for a non-leakage reason: {other}\n{sql}"),
        };
        let static_report = report
            .static_leakage
            .as_ref()
            .expect("the driver attaches the static report before executing");
        for event in &report.leakage {
            prop_assert!(
                static_report.covers(event.node, event.to_party),
                "dynamic reveal of node #{} to P{} ({} [{}]) is not claimed by the \
                 static report\nquery: {sql}\nreport:\n{static_report}",
                event.node,
                event.to_party,
                event.kind,
                event.columns.join(", "),
            );
        }
    }
}

/// Builds the shared two-party base query: concat of two inputs whose `v`
/// columns only P1 is trusted with, collected by P1.
fn trusted_sum_query() -> conclave::ir::builder::Query {
    let pa = Party::new(1, "a");
    let pb = Party::new(2, "b");
    let schema = Schema::new(vec![
        ColumnDef::with_trust("k", DataType::Int, TrustSet::Public),
        ColumnDef::with_trust("v", DataType::Int, TrustSet::of([1])),
    ]);
    let mut q = QueryBuilder::new();
    let a = q.input("ta", schema.clone(), pa.clone());
    let b = q.input("tb", schema, pb);
    let both = q.concat(&[a, b]);
    q.collect(both, &[pa]);
    q.build().unwrap()
}

/// Finds the id of the first node with the given operator name.
fn node_named(query: &conclave::ir::builder::Query, name: &str) -> usize {
    query
        .dag
        .iter()
        .find(|n| n.op.name() == name)
        .unwrap_or_else(|| panic!("no {name} node"))
        .id
}

#[test]
fn tampered_cleartext_placement_is_refused_by_the_linter_and_the_driver() {
    // An adversarial (or buggy) pass moves an MPC step into the clear at P2,
    // who is not trusted with `v`: running it there would open the MPC
    // concat to P2. A `Limit` stands in for the step because push-down would
    // move a `Project` away from the concat.
    let mut query = trusted_sum_query();
    let concat = node_named(&query, "concat");
    query
        .dag
        .insert_after(concat, Operator::Limit { n: 10 })
        .unwrap();
    let mut plan = compile(&query, &ConclaveConfig::standard()).unwrap();
    let limit = plan
        .dag
        .iter()
        .find(|n| matches!(n.op, Operator::Limit { .. }))
        .unwrap();
    assert!(limit.site.is_mpc());
    assert!(plan.dag.node(limit.inputs[0]).unwrap().site.is_mpc());
    let limit = limit.id;
    plan.dag.node_mut(limit).unwrap().site = ExecSite::Local(2);

    let err = leakage::run(&plan.dag, &plan.parties).unwrap_err();
    let CompileError::Leakage(v) = err else {
        panic!("expected a leakage violation, got: {err}");
    };
    assert_eq!((v.node, v.party, v.column.as_str()), (limit, 2, "v"));
    assert!(!v.chain.is_empty(), "diagnostic carries a derivation chain");
    let shown = v.to_string();
    assert!(shown.contains("P2") && shown.contains("`v`"), "{shown}");

    match session().run_plan(&plan) {
        Err(SessionError::Driver(DriverError::UnauthorizedReveal { node, to_party, .. })) => {
            assert_eq!((node, to_party), (limit, 2));
        }
        other => panic!("expected the driver to refuse the plan, got {other:?}"),
    }
}

#[test]
fn untampered_plan_passes_and_reports_the_declared_output() {
    let query = trusted_sum_query();
    let plan = compile(&query, &ConclaveConfig::standard()).unwrap();
    let out = plan.leakage.for_party(1);
    assert!(
        out.iter().any(|d| d.kind == DisclosureKind::QueryOutput),
        "P1's declared output is in the report"
    );
}

/// Pins a known gap, the way `malicious_integrity` pins the Δ = 2^63 forgery:
/// secret sharing here is integer-only, so `op_is_party_capable` keeps
/// `Divide` off the mesh and the driver opens the `Divide` node's *input* to
/// every computing party's worker, then divides in the clear
/// (docs/SECURITY.md, "Fidelity substitutions"). Neither the certificate nor
/// the run-time log mentions that open. When `Divide` runs on shares (ROADMAP
/// "Parked: `Divide` on the mesh") this test must be FLIPPED — the input is
/// then never opened and the two assertions on it hold for the right reason —
/// not deleted.
#[test]
fn divide_on_a_mesh_opens_its_input_outside_the_certificate() {
    use conclave::core::party_exec::op_is_party_capable;
    use conclave::ir::ops::Operand;
    let pa = Party::new(1, "a");
    let pb = Party::new(2, "b");
    let mut q = QueryBuilder::new();
    let a = q.input("ta", Schema::ints(&["k", "v"]), pa.clone());
    let b = q.input("tb", Schema::ints(&["k", "v"]), pb);
    let both = q.concat(&[a, b]);
    let total = q.aggregate(both, "total", AggFunc::Sum, &["k"], "v");
    let half = q.divide(total, "half", Operand::col("total"), Operand::lit(2));
    q.collect(half, &[pa]);
    let config = ConclaveConfig::mpc_only()
        .with_sequential_local()
        .with_channel_runtime();
    let plan = compile(&q.build().unwrap(), &config).unwrap();
    let divide = plan
        .dag
        .iter()
        .find(|n| matches!(n.op, Operator::Divide { .. }))
        .unwrap();
    assert!(divide.site.is_mpc() && !op_is_party_capable(&divide.op));
    let opened = divide.inputs[0];
    assert!(plan.dag.node(opened).unwrap().site.is_mpc());

    let report = Session::new(config)
        .bind(
            "ta",
            Relation::from_ints(&["k", "v"], &[vec![1, 2], vec![2, 8]]),
        )
        .bind("tb", Relation::from_ints(&["k", "v"], &[vec![1, 4]]))
        .run_plan(&plan)
        .unwrap();
    let expected = Relation::from_ints(&["k", "total", "half"], &[vec![1, 6, 3], vec![2, 8, 4]]);
    assert!(report.output_for(1).unwrap().same_rows_unordered(&expected));
    assert!(report.net.rounds > 0, "the aggregation ran on the mesh");
    // The per-key totals were opened to both workers, and nobody says so.
    assert!(report.leakage.iter().all(|d| d.node != opened));
    let certificate = report.static_leakage.as_ref().unwrap();
    assert!(certificate.disclosures.iter().all(|d| d.node != opened));
}

/// Pins a known gap the way the `Divide` test above does: a hybrid operator
/// runs in process, so the driver opens
/// every MPC node a hybrid consumes by a broadcast reveal, and every
/// computing party's worker reconstructs it. In the paper's credit query
/// that node is the `concat` of both banks' `(ssn, score)` rows, yet the
/// certificate says P2 and P3 learn nothing beyond public metadata and
/// certifies only `ssn` — at the hybrid join, to P1 — and the run-time log
/// is as silent (docs/SECURITY.md, "Fidelity substitutions"). When the hybrid
/// protocols run on the mesh (ROADMAP item 3) this test must be FLIPPED — the
/// node is then never opened and the assertions on it hold for the right
/// reason — not deleted.
#[test]
fn a_hybrid_input_on_a_mesh_is_opened_outside_the_certificate() {
    use conclave::core::party_exec::op_is_party_capable;
    use conclave::ir::trust::TrustSet;
    let regulator = Party::new(1, "gov");
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
    let s1 = q.input("scores1", bank.clone(), Party::new(2, "a"));
    let s2 = q.input("scores2", bank, Party::new(3, "b"));
    let scores = q.concat(&[s1, s2]);
    let joined = q.join(demographics, scores, &["ssn"], &["ssn"]);
    let total = q.aggregate(joined, "total", AggFunc::Sum, &["zip"], "score");
    q.collect(total, &[regulator]);
    let config = ConclaveConfig::standard()
        .with_sequential_local()
        .with_channel_runtime();
    let plan = compile(&q.build().unwrap(), &config).unwrap();
    let join = plan
        .dag
        .iter()
        .find(|n| matches!(n.op, Operator::HybridJoin { .. }))
        .unwrap();
    let opened = join.inputs[1];
    let parent = plan.dag.node(opened).unwrap();
    assert!(matches!(parent.op, Operator::Concat));
    assert!(
        parent.site.is_mpc() && op_is_party_capable(&parent.op),
        "the hybrid's input is a mesh step"
    );

    let report = Session::new(config)
        .bind(
            "demographics",
            Relation::from_ints(&["ssn", "zip"], &[vec![1, 10], vec![2, 20], vec![3, 10]]),
        )
        .bind(
            "scores1",
            Relation::from_ints(&["ssn", "score"], &[vec![1, 700], vec![2, 650]]),
        )
        .bind(
            "scores2",
            Relation::from_ints(&["ssn", "score"], &[vec![3, 600]]),
        )
        .run_plan(&plan)
        .unwrap();
    let expected = Relation::from_ints(&["zip", "total"], &[vec![10, 1300], vec![20, 650]]);
    assert!(report.output_for(1).unwrap().same_rows_unordered(&expected));
    assert!(report.net.rounds > 0, "the concat ran on the mesh");
    // Both banks' rows were opened to every worker, and nobody says so.
    assert!(report.leakage.iter().all(|d| d.node != opened));
    let certificate = report.static_leakage.as_ref().unwrap();
    assert!(certificate.disclosures.iter().all(|d| d.node != opened));
}

/// A join renames the right `v` to `v_r`, and `v_r` is P3's unannotated
/// column: it is trusted by P3 alone, whatever the keys' trust. Grouping by
/// it must not make P1 (trusted with the keys only) an STP.
#[test]
fn a_renamed_join_column_keeps_its_own_trust() {
    let sql = "CREATE TABLE t1 (k INT, v INT) WITH OWNER p1;
               CREATE TABLE t3 (k INT TRUSTED BY (p1), v INT) WITH OWNER p3;
               SELECT t3.v, SUM(t1.v) AS s FROM t1 JOIN t3 ON t1.k = t3.k
               GROUP BY t3.v REVEAL TO p3;";
    let session = Session::new(ConclaveConfig::standard())
        .bind(
            "t1",
            Relation::from_ints(&["k", "v"], &[vec![1, 10], vec![2, 20], vec![3, 30]]),
        )
        .bind(
            "t3",
            Relation::from_ints(
                &["k", "v"],
                &[vec![1, 7], vec![2, 7], vec![3, 8], vec![4, 9]],
            ),
        );
    let plan = session.compile(&session.sql_query(sql).unwrap()).unwrap();
    assert!(
        plan.dag
            .iter()
            .all(|n| !matches!(n.op, Operator::HybridAggregate { .. })),
        "{}",
        plan.render()
    );
    let p1 = plan.leakage.for_party(1);
    assert_eq!(p1.len(), 1, "{}", plan.leakage);
    assert_eq!(
        (p1[0].kind, p1[0].columns.clone()),
        (DisclosureKind::StpKeys, vec!["k".to_string()]),
        "{}",
        plan.leakage
    );

    let report = session.run_plan(&plan).unwrap();
    // Cleartext: t3.v = 7 joins t1.k 1 and 2 (10 + 20), 8 joins k 3 (30).
    let expected = Relation::from_ints(&["v_r", "s"], &[vec![7, 30], vec![8, 30]]);
    let got = report.output_for(3).unwrap();
    assert!(got.same_rows_unordered(&expected), "{got:?}");
}
