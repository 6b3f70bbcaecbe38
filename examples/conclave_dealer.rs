//! The standalone Conclave dealer: pregenerates the offline phase.
//!
//! SPDZ-style MPC splits into an **offline phase** — a dealer generates
//! authenticated Beaver triples, binary triples, shared bits, daBits, and
//! input masks, all under one global MAC key α — and an **online phase**
//! that only consumes that material. This binary is the offline phase as a
//! program: it writes one `party-{i}.dealer` file per computing party — the
//! recorded dealer link of that party, each request frame followed by the
//! block that answers it, as little-endian words — which a distributed run
//! then loads via
//! [`ConclaveConfig::with_dealer_files`](conclave::prelude::ConclaveConfig::with_dealer_files).
//!
//! Run with:
//!
//! ```text
//! cargo run --example conclave_dealer -- [DIR] [--seed N] [--parties N] \
//!     [--triples N] [--bit-triples N] [--shared-bits N] [--dabits N] \
//!     [--input-masks N] [--demo]
//! ```
//!
//! With no arguments the dealer writes a default-sized stock for 3 parties
//! into a temporary directory and (as `--demo` does) runs an end-to-end
//! query over the channel party runtime that consumes the files, printing
//! the measured online traffic and the deferred-MAC-check count.

// Demo/CLI target: panicking on bad arguments is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave::mpc::dealer::MaterialSpec;
use conclave::prelude::*;
use std::path::PathBuf;

struct Args {
    dir: PathBuf,
    seed: u64,
    parties: u32,
    spec: MaterialSpec,
    demo: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        dir: std::env::temp_dir().join("conclave-dealer-demo"),
        seed: 42,
        parties: 3,
        spec: MaterialSpec::default(),
        demo: std::env::args().len() <= 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let num = |it: &mut dyn Iterator<Item = String>| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("flag {a} needs a numeric argument"))
        };
        match a.as_str() {
            "--seed" => args.seed = num(&mut it) as u64,
            "--parties" => args.parties = num(&mut it) as u32,
            "--triples" => args.spec.triples = num(&mut it),
            "--bit-triples" => args.spec.bit_triples = num(&mut it),
            "--shared-bits" => args.spec.shared_bits = num(&mut it),
            "--dabits" => args.spec.dabits = num(&mut it),
            "--input-masks" => args.spec.input_masks = num(&mut it),
            "--demo" => args.demo = true,
            dir if !dir.starts_with('-') => args.dir = PathBuf::from(dir),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.dir).unwrap();
    let files = conclave::mpc::dealer::write_party_files(
        &args.dir,
        args.seed,
        args.parties as usize,
        args.spec,
    )
    .unwrap();
    println!(
        "dealt {} triples, {} bit-triples, {} shared bits, {} daBits, \
         {} input masks/party (seed {}):",
        args.spec.triples,
        args.spec.bit_triples,
        args.spec.shared_bits,
        args.spec.dabits,
        args.spec.input_masks,
        args.seed
    );
    for f in &files {
        let len = std::fs::metadata(f).map(|m| m.len()).unwrap_or(0);
        println!("  {} ({len} B)", f.display());
    }

    if args.demo {
        demo_online_run(&args);
    }
}

/// The online phase: a query whose MPC steps load the files written above.
fn demo_online_run(args: &Args) {
    let pa = Party::new(1, "mpc.a.org");
    let pb = Party::new(2, "mpc.b.org");
    let report = Session::new(
        ConclaveConfig::standard()
            .with_sequential_local()
            .with_channel_runtime()
            .with_dealer_files(&args.dir),
    )
    .bind(
        "ta",
        Relation::from_ints(&["key", "val"], &[vec![1, 2], vec![2, 7], vec![1, 4]]),
    )
    .bind("tb", Relation::from_ints(&["key", "val"], &[vec![1, 3]]))
    .run_sql(
        "CREATE TABLE ta (key INT, val INT) WITH OWNER p1;
         CREATE TABLE tb (key INT, val INT) WITH OWNER p2;
         SELECT key, SUM(val) AS total FROM (ta UNION ALL tb)
         GROUP BY key
         REVEAL TO p1;",
    )
    .unwrap();
    let _ = (&pa, &pb);
    println!("\nonline run over the pregenerated material:");
    println!(
        "  measured traffic: {} B in {} rounds, {} deferred MAC check(s)",
        report.net.total_bytes(),
        report.net.rounds,
        report.mpc_stats.counts.mac_checks
    );
    println!("  output for P1:");
    for row in &report.output_for(1).unwrap().rows {
        println!("    {row:?}");
    }
}
