//! Real multi-party execution: the same query over the in-process channel
//! mesh and over genuine TCP sockets on localhost.
//!
//! Three things are demonstrated:
//!
//! 1. the **channel-transport one-liner** — switching a [`Session`] to the
//!    distributed party runtime is a single `.with_channel_runtime()` call;
//! 2. **two TCP parties on localhost** — a raw two-party share/multiply/open
//!    exchange over real sockets, printing the observed per-link traffic;
//! 3. a full query over the **TCP party runtime**, whose `RunReport` carries
//!    measured (not modeled) per-link bytes and rounds.
//!
//! Run with: `cargo run --example multi_party_demo [channel|tcp|both]`
//! (default: `both`; CI runs `channel` as a smoke test).

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave::mpc::runtime::PartySession;
use conclave::mpc::AuthShare;
use conclave::net::{merge_mesh_stats, TcpTransport, Transport};
use conclave::prelude::*;

fn demo_query() -> (conclave::ir::builder::Query, Party) {
    let org_a = Party::new(1, "mpc.org-a.example");
    let org_b = Party::new(2, "mpc.org-b.example");
    let schema = Schema::new(vec![
        ColumnDef::new("region", DataType::Int),
        ColumnDef::new("amount", DataType::Int),
    ]);
    let mut q = QueryBuilder::new();
    let sales_a = q.input("sales_a", schema.clone(), org_a.clone());
    let sales_b = q.input("sales_b", schema, org_b);
    let all_sales = q.concat(&[sales_a, sales_b]);
    let by_region = q.aggregate(all_sales, "total", AggFunc::Sum, &["region"], "amount");
    q.collect(by_region, std::slice::from_ref(&org_a));
    (q.build().expect("query is well formed"), org_a)
}

fn bind(session: Session) -> Session {
    session
        .bind(
            "sales_a",
            Relation::from_ints(
                &["region", "amount"],
                &[vec![1, 100], vec![2, 20], vec![1, 3]],
            ),
        )
        .bind(
            "sales_b",
            Relation::from_ints(&["region", "amount"], &[vec![2, 7], vec![3, 50]]),
        )
}

fn print_measured(report: &RunReport) {
    assert!(report.net.rounds > 0, "party runtime must measure traffic");
    println!(
        "  measured: {} bytes over {} messages; {} rounds/query on {} \
         transport mesh build(s)",
        report.net.total_bytes(),
        report.net.total_messages(),
        report.rounds_per_query(),
        report.mesh_builds(),
    );
    for ((from, to), link) in &report.net.links {
        println!(
            "    link P{from} -> P{to}: {} B / {} msgs",
            link.bytes, link.messages
        );
    }
}

/// The channel-transport one-liner: same session API, real per-party
/// protocol endpoints on an in-process mesh.
fn run_channel() {
    println!("=== channel party runtime (3 computing parties, 1 thread each) ===");
    let (query, regulator) = demo_query();
    let report = bind(Session::new(
        ConclaveConfig::standard()
            .with_sequential_local()
            .with_channel_runtime(),
    ))
    .run(&query)
    .expect("channel-transport run succeeds");
    let out = report
        .output_for(regulator.id)
        .expect("regulator receives the result");
    println!("  per-region totals:\n{}", indent(&out.to_string()));
    print_measured(&report);
}

/// A raw two-party exchange over genuine TCP sockets: share, multiply with a
/// Beaver triple (one real message round), and open.
fn run_tcp_two_party() {
    println!("=== two TCP parties on localhost: share / multiply / open ===");
    let mesh = TcpTransport::localhost_mesh(2).expect("localhost mesh");
    let results: Vec<(i64, conclave::net::NetStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|transport| {
                s.spawn(move || {
                    let mut sess = PartySession::new(&transport, 2024);
                    let mut proto = sess.step(0);
                    // Party 0 contributes 21, party 1 contributes 2.
                    let party = proto.party();
                    let mine0 = (party == 0).then_some([21i64]);
                    let x = proto
                        .input_column(0, mine0.as_ref().map(|a| a.as_slice()), 1)
                        .expect("share x");
                    let mine1 = (party == 1).then_some([2i64]);
                    let y = proto
                        .input_column(1, mine1.as_ref().map(|a| a.as_slice()), 1)
                        .expect("share y");
                    let product: AuthShare = proto.mul(x[0], y[0]).expect("beaver multiply");
                    let opened = proto.open(product).expect("open");
                    (opened, transport.stats())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (party, (value, _)) in results.iter().enumerate() {
        println!("  party {party} opened 21 x 2 = {value}");
        assert_eq!(*value, 42);
    }
    let merged = merge_mesh_stats(results.into_iter().map(|(_, s)| s));
    println!(
        "  observed on the wire: {} bytes, {} messages, {} rounds",
        merged.total_bytes(),
        merged.total_messages(),
        merged.rounds
    );
}

/// The full query over the TCP party runtime.
fn run_tcp_query() {
    println!("=== TCP party runtime: full query, measured RunReport ===");
    let (query, regulator) = demo_query();
    let report = bind(Session::new(
        ConclaveConfig::standard()
            .with_sequential_local()
            .with_tcp_runtime(),
    ))
    .run(&query)
    .expect("tcp-transport run succeeds");
    let out = report
        .output_for(regulator.id)
        .expect("regulator receives the result");
    println!("  per-region totals:\n{}", indent(&out.to_string()));
    print_measured(&report);

    // Differential check: the simulated oracle reveals identical cells.
    let oracle = bind(Session::new(
        ConclaveConfig::standard().with_sequential_local(),
    ))
    .run(&query)
    .expect("simulated run succeeds");
    assert!(out.same_rows_unordered(oracle.output_for(regulator.id).unwrap()));
    println!("  result is cell-identical to the single-process oracle");
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "both".into());
    match mode.as_str() {
        "channel" => run_channel(),
        "tcp" => {
            run_tcp_two_party();
            run_tcp_query();
        }
        "both" => {
            run_channel();
            run_tcp_two_party();
            run_tcp_query();
        }
        other => {
            eprintln!("unknown mode `{other}`; use channel, tcp or both");
            std::process::exit(2);
        }
    }
}
