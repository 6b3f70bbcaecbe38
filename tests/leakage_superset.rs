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
//! * Deliberately leaky plans — a mid-plan reveal to an untrusted party, and
//!   the operand-opening shape of the pre-circuit comparison bug — are
//!   rejected at compile time with a diagnostic naming the node, column,
//!   party and derivation chain.

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave::ir::ops::Operator;
use conclave::ir::party::PartySet;
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
    let query = match rng.gen_range(0..5) {
        0 => "SELECT k, SUM(v) AS total FROM (ta UNION ALL tb) GROUP BY k".to_string(),
        1 => "SELECT COUNT(*) AS n FROM ta JOIN tb ON k = k".to_string(),
        2 => "SELECT k, SUM(v) AS total FROM ta JOIN tb ON k = k GROUP BY k".to_string(),
        3 => "SELECT DISTINCT k FROM (ta UNION ALL tb)".to_string(),
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
fn tampered_mid_plan_reveal_is_rejected_at_compile_time() {
    // An adversarial (or buggy) pass inserts a reveal of the whole relation
    // to P2, who is not trusted with `v`. The linter must reject the plan
    // and name the node, column, party and derivation chain.
    let mut query = trusted_sum_query();
    let concat = node_named(&query, "concat");
    let reveal = query
        .dag
        .insert_after(
            concat,
            Operator::RevealTo {
                party: 2,
                columns: None,
            },
        )
        .unwrap();
    let err = compile(&query, &ConclaveConfig::standard()).unwrap_err();
    let CompileError::Leakage(v) = err else {
        panic!("expected a leakage violation, got: {err}");
    };
    assert_eq!(v.node, reveal);
    assert_eq!(v.party, 2);
    assert_eq!(v.column, "v");
    assert!(!v.chain.is_empty(), "diagnostic carries a derivation chain");
    let shown = v.to_string();
    assert!(shown.contains("P2") && shown.contains("`v`"), "{shown}");
}

#[test]
fn operand_opening_shape_is_rejected_statically() {
    // The pre-circuit comparison bug opened raw operands to every computing
    // party mid-plan. Expressed as a plan node, that shape must now be
    // impossible to compile.
    let mut query = trusted_sum_query();
    let concat = node_named(&query, "concat");
    query
        .dag
        .insert_after(
            concat,
            Operator::Open {
                recipients: PartySet::from_ids([1, 2]),
            },
        )
        .unwrap();
    let err = compile(&query, &ConclaveConfig::standard()).unwrap_err();
    let CompileError::Leakage(v) = err else {
        panic!("expected a leakage violation, got: {err}");
    };
    assert_eq!(v.party, 2);
    assert_eq!(v.column, "v");
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
