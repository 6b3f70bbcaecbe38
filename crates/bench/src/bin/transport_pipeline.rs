//! Multi-step pipeline bench for the plan-scoped party runtime.
//!
//! Runs a canonical 3-step MPC pipeline (filter → multiply → scalar
//! aggregate) over the distributed party runtime and prints, as JSON, the
//! measured synchronous rounds, wire bytes, mesh builds and wall-clock per
//! input size. CI runs it in channel mode as a smoke test and fails the
//! build if more than one transport mesh was constructed for the query
//! (`mesh_builds > 1` would mean the runtime regressed to per-step meshes).
//!
//! Usage: `transport_pipeline [channel|tcp] [row counts...]`
//! (defaults: channel mode at 10_000 and 100_000 rows).

use conclave_core::config::{ConclaveConfig, PartyRuntime};
use conclave_core::plan::compile;
use conclave_core::session::Session;
use conclave_engine::Relation;
use conclave_ir::builder::{Query, QueryBuilder};
use conclave_ir::expr::Expr;
use conclave_ir::ops::{AggFunc, Operand};
use conclave_ir::party::Party;
use conclave_ir::schema::Schema;
use std::time::Instant;

/// The canonical 3-step pipeline: every operator between the inputs and the
/// collect executes under MPC (the config disables push-down), so the MPC
/// frontier is concat → filter → multiply → aggregate — a genuine multi-step
/// sequence of secret-sharing protocol steps with data dependencies.
fn pipeline_query() -> (Query, Party) {
    let org_a = Party::new(1, "a");
    let org_b = Party::new(2, "b");
    let schema = Schema::ints(&["region", "amount"]);
    let mut q = QueryBuilder::new();
    let a = q.input("sales_a", schema.clone(), org_a.clone());
    let b = q.input("sales_b", schema, org_b);
    let all = q.concat(&[a, b]);
    let positive = q.filter(all, Expr::col("amount").gt(Expr::lit(0)));
    let squared = q.multiply(
        positive,
        "weighted",
        vec![Operand::col("amount"), Operand::lit(3)],
    );
    let total = q.aggregate_scalar(squared, "total", AggFunc::Sum, "weighted");
    q.collect(total, std::slice::from_ref(&org_a));
    (q.build().expect("pipeline query builds"), org_a)
}

fn rows(n: usize, salt: i64) -> Relation {
    Relation::from_ints(
        &["region", "amount"],
        &(0..n as i64)
            .map(|i| vec![i % 7, (i * 31 + salt) % 1000 - 100])
            .collect::<Vec<_>>(),
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| "channel".into());
    let runtime = match mode.as_str() {
        "channel" => PartyRuntime::Channel,
        "tcp" => PartyRuntime::Tcp,
        other => {
            eprintln!("unknown mode `{other}`; use channel or tcp");
            std::process::exit(2);
        }
    };
    let sizes: Vec<usize> = {
        let rest: Vec<usize> = args.filter_map(|a| a.parse().ok()).collect();
        if rest.is_empty() {
            vec![10_000, 100_000]
        } else {
            rest
        }
    };

    let (query, recipient) = pipeline_query();
    let config = ConclaveConfig::mpc_only()
        .with_sequential_local()
        .with_party_runtime(runtime);
    let plan = compile(&query, &config).expect("pipeline compiles");
    let mpc_steps = plan
        .dag
        .iter()
        .filter(|n| n.site.is_mpc() && !n.op.is_output())
        .count();

    println!("{{");
    println!("  \"bench\": \"transport_pipeline\",");
    println!("  \"mode\": \"{mode}\",");
    println!("  \"mpc_steps\": {mpc_steps},");
    println!("  \"sizes\": [");
    for (i, &n) in sizes.iter().enumerate() {
        let session = Session::new(config.clone())
            .bind("sales_a", rows(n, 1))
            .bind("sales_b", rows(n, 2));
        let start = Instant::now();
        let report = session.run(&query).expect("pipeline runs");
        let elapsed = start.elapsed();
        assert!(report.net.rounds > 0, "distributed runtime must measure");
        let out = report.output_for(recipient.id).expect("output delivered");
        assert_eq!(out.num_rows(), 1, "scalar aggregate yields one row");
        let comma = if i + 1 == sizes.len() { "" } else { "," };
        println!(
            "    {{ \"rows_per_party\": {n}, \"rounds\": {}, \"mesh_builds\": {}, \
             \"wire_bytes\": {}, \"messages\": {}, \"wall_ms\": {} }}{comma}",
            report.net.rounds,
            report.net.mesh_builds,
            report.net.total_bytes(),
            report.net.total_messages(),
            elapsed.as_millis(),
        );
        if report.net.mesh_builds > 1 {
            eprintln!(
                "FAIL: {} transport meshes built for one query (want 1)",
                report.net.mesh_builds
            );
            std::process::exit(1);
        }
    }
    println!("  ]");
    println!("}}");
}
