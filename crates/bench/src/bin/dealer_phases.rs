//! Offline/online split bench for the standalone dealer and SPDZ MACs.
//!
//! Measures the three costs the offline/online architecture introduces and
//! prints them as JSON (reference numbers are committed in
//! `BENCH_dealer.json`):
//!
//! 1. **Offline dealing** — wall-clock for `write_party_files` with the
//!    default [`MaterialSpec`] and the size of one party's material file;
//! 2. **Online MAC overhead** — the same input/multiply/compare/open
//!    workload on a 3-party channel mesh, once with the opened-value log
//!    and the deferred reveal-boundary integrity check (`PartySession::new`)
//!    and once without them (`PartySession::unauthenticated`). Both sides
//!    deal and carry the same MAC shares — there is one dealer — so the
//!    ratio isolates logging plus the two check rounds. The build **fails**
//!    if the checked run exceeds 2x the unchecked wall-clock —
//!    authentication must stay an overhead, not a regime change;
//! 3. **File-mode end-to-end** — a full SQL query through `Session` whose
//!    party workers load the pregenerated files (`DealerMode::File`),
//!    reporting the measured rounds, wire bytes and MAC-check count.
//!
//! Usage: `dealer_phases [pair counts...]` (default: 500 and 2000 pairs).

use conclave_core::config::ConclaveConfig;
use conclave_core::session::Session;
use conclave_engine::Relation;
use conclave_mpc::dealer::{write_party_files, MaterialSpec};
use conclave_mpc::runtime::{PartyResult, PartySession};
use conclave_mpc::AuthShare;
use conclave_net::ChannelTransport;
use std::time::Instant;

/// The online workload: both columns shared, multiplied and compared, all
/// results opened, and the deferred MAC check run at the reveal boundary —
/// the same shape the party runtime executes per query.
fn online_program(sess: &mut PartySession, pairs: usize) -> PartyResult<Vec<i64>> {
    let xs: Vec<i64> = (0..pairs as i64).map(|i| i * 31 - 999).collect();
    let ys: Vec<i64> = (0..pairs as i64).map(|i| 7_777 - i * 13).collect();
    let mut proto = sess.step(0);
    let own0 = proto.party() == 0;
    let own1 = proto.party() == 1;
    let sx = proto.input_column(0, own0.then_some(xs.as_slice()), pairs)?;
    let sy = proto.input_column(1, own1.then_some(ys.as_slice()), pairs)?;
    let operands: Vec<(AuthShare, AuthShare)> =
        sx.iter().copied().zip(sy.iter().copied()).collect();
    let mut vals = proto.mul_batch(&operands)?;
    vals.extend(proto.lt_batch(&operands)?);
    let out = proto.open_column(&vals)?;
    proto.session().check_integrity()?;
    Ok(out)
}

/// One timed run of [`online_program`] on a fresh 3-party channel mesh.
/// Returns the wall-clock in seconds and party 0's opened column.
fn run_online(authenticated: bool, pairs: usize) -> (f64, Vec<i64>) {
    let mesh = ChannelTransport::mesh(3);
    let start = Instant::now();
    let mut outs: Vec<Vec<i64>> = std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|t| {
                s.spawn(move || {
                    let mut sess = if authenticated {
                        PartySession::new(&t, 2024)
                    } else {
                        PartySession::unauthenticated(&t, 2024)
                    };
                    online_program(&mut sess, pairs).expect("online workload runs")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("party thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, outs.swap_remove(0))
}

/// Best-of-three timing (after one warmup) to keep the 2x guard away from
/// scheduler noise.
fn best_online(authenticated: bool, pairs: usize) -> (f64, Vec<i64>) {
    let (_, out) = run_online(authenticated, pairs);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let (t, _) = run_online(authenticated, pairs);
        best = best.min(t);
    }
    (best, out)
}

fn main() {
    let sizes: Vec<usize> = {
        let rest: Vec<usize> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if rest.is_empty() {
            vec![500, 2000]
        } else {
            rest
        }
    };

    // Offline phase: deal the default stock for 3 parties into a temp dir.
    let dir = std::env::temp_dir().join(format!("conclave-dealer-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create dealer dir");
    let spec = MaterialSpec::default();
    let start = Instant::now();
    let files = write_party_files(&dir, 42, 3, spec).expect("dealing succeeds");
    let deal_ms = start.elapsed().as_secs_f64() * 1e3;
    let file_bytes = files
        .first()
        .and_then(|f| std::fs::metadata(f).ok())
        .map(|m| m.len())
        .unwrap_or(0);

    println!("{{");
    println!("  \"bench\": \"dealer_phases\",");
    println!("  \"parties\": 3,");
    println!(
        "  \"offline\": {{ \"deal_ms\": {deal_ms:.1}, \"file_bytes_per_party\": {file_bytes} }},"
    );

    // Online phase: MACed vs unauthenticated wall-clock on the same workload.
    println!("  \"online\": [");
    let mut worst_ratio = 0f64;
    for (i, &pairs) in sizes.iter().enumerate() {
        let (plain_s, plain_out) = best_online(false, pairs);
        let (auth_s, auth_out) = best_online(true, pairs);
        assert_eq!(
            auth_out, plain_out,
            "authenticated and unauthenticated runs must open identical values"
        );
        let ratio = auth_s / plain_s;
        worst_ratio = worst_ratio.max(ratio);
        let comma = if i + 1 == sizes.len() { "" } else { "," };
        println!(
            "    {{ \"pairs\": {pairs}, \"unauthenticated_ms\": {:.1}, \
             \"authenticated_ms\": {:.1}, \"mac_overhead\": {ratio:.2} }}{comma}",
            plain_s * 1e3,
            auth_s * 1e3,
        );
    }
    println!("  ],");

    // End-to-end: a SQL query whose party workers load the dealt files.
    let config = ConclaveConfig::standard()
        .with_sequential_local()
        .with_channel_runtime()
        .with_dealer_files(&dir);
    let start = Instant::now();
    let report = Session::new(config)
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
        .expect("file-mode query runs");
    let e2e_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(report.net.rounds > 0, "distributed runtime must measure");
    println!(
        "  \"file_mode_query\": {{ \"rounds\": {}, \"wire_bytes\": {}, \
         \"mac_checks\": {}, \"wall_ms\": {e2e_ms:.1} }}",
        report.net.rounds,
        report.net.total_bytes(),
        report.mpc_stats.counts.mac_checks,
    );
    println!("}}");

    let _ = std::fs::remove_dir_all(&dir);
    if worst_ratio >= 2.0 {
        eprintln!("FAIL: MACed online wall-clock is {worst_ratio:.2}x the unauthenticated baseline (budget: < 2x)");
        std::process::exit(1);
    }
}
