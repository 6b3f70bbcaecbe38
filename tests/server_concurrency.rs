//! Serving-layer certification: the multi-tenant `conclave-server` under
//! concurrency.
//!
//! The suite proves four properties of the serving core:
//!
//! 1. **Tenant isolation (differential)** — N tenants with different data
//!    submitting interleaved queries from concurrent threads get results
//!    cell-identical to fresh one-shot [`Session`]s run sequentially. A
//!    plan-cache mixup, a cross-tenant binding leak or a mesh-reuse bug
//!    would all surface as a mismatch here.
//! 2. **Plan cache** — hit/miss/invalidation counters are pinned exactly:
//!    repeats (including whitespace/keyword-case variants) hit, catalog
//!    changes invalidate.
//! 3. **Pool starvation** — with the shared dealer pool paused, a query
//!    *blocks* holding its admission slot and completes correctly once the
//!    pool refills: starvation degrades latency, never correctness.
//! 4. **Admission control** — beyond `max_in_flight` + `queue_depth`, new
//!    queries are shed with typed [`ServerError::Rejected`] carrying the
//!    occupancy snapshot; queued queries run after a slot frees.

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave::prelude::*;
use conclave::server::{ConclaveServer, ServerError};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const SUM_SQL: &str = "
    CREATE TABLE ta (k INT, v INT) WITH OWNER p1;
    CREATE TABLE tb (k INT, v INT) WITH OWNER p2;
    SELECT k, SUM(v) AS total FROM (ta UNION ALL tb) GROUP BY k REVEAL TO p1;
";

const COUNT_SQL: &str = "
    CREATE TABLE ta (k INT, v INT) WITH OWNER p1;
    CREATE TABLE tb (k INT, v INT) WITH OWNER p2;
    SELECT k, COUNT(*) AS n FROM (ta UNION ALL tb) GROUP BY k REVEAL TO p1;
";

/// A small material spec so pool refills are cheap; each bundle comfortably
/// covers one small query.
fn small_spec() -> MaterialSpec {
    MaterialSpec {
        triples: 512,
        bit_triples: 1024,
        shared_bits: 512,
        dabits: 128,
        input_masks: 256,
    }
}

fn rel(rows: &[(i64, i64)]) -> Relation {
    Relation::from_ints(
        &["k", "v"],
        &rows.iter().map(|(k, v)| vec![*k, *v]).collect::<Vec<_>>(),
    )
}

/// The serving configuration under test: channel-mesh party runtime fed by a
/// shared background-refilled dealer pool.
fn pooled_server_config(seed: u64, depth: usize) -> ServerConfig {
    let pool = MaterialPool::start(seed, 3, small_spec(), depth);
    ServerConfig::new(
        ConclaveConfig::standard()
            .with_sequential_local()
            .with_channel_runtime(),
    )
    .with_pool(pool)
}

/// The oracle: a fresh single-query session per (data, sql), simulated
/// runtime, no cache, no pool, no mesh reuse.
fn oracle(a: &[(i64, i64)], b: &[(i64, i64)], sql: &str) -> Relation {
    Session::new(ConclaveConfig::standard().with_sequential_local())
        .bind("ta", rel(a))
        .bind("tb", rel(b))
        .run_sql(sql)
        .unwrap()
        .output_for(1)
        .unwrap()
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property 1: interleaved multi-tenant serving is observationally
    /// identical to sequential fresh one-shot sessions.
    #[test]
    fn concurrent_tenants_match_sequential_oneshot_sessions(
        data in prop::collection::vec(
            (
                prop::collection::vec((0i64..6, -50i64..50), 1..6),
                prop::collection::vec((0i64..6, -50i64..50), 1..6),
            ),
            3..4,
        ),
    ) {
        let server = ConclaveServer::start(pooled_server_config(11, 2));
        for (i, (a, b)) in data.iter().enumerate() {
            let name = format!("tenant{i}");
            server.register_tenant(&name, Catalog::new()).unwrap();
            server.bind(&name, "ta", rel(a)).unwrap();
            server.bind(&name, "tb", rel(b)).unwrap();
        }

        // Every tenant fires its queries from its own thread, so cache,
        // pool and admission state are all exercised concurrently.
        let answers: HashMap<(usize, usize), Relation> = thread::scope(|s| {
            let handles: Vec<_> = data
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    let server = server.clone();
                    s.spawn(move || {
                        let name = format!("tenant{i}");
                        [SUM_SQL, COUNT_SQL, SUM_SQL]
                            .iter()
                            .enumerate()
                            .map(|(qi, sql)| {
                                let outcome = server.query(&name, sql).unwrap();
                                ((i, qi), outcome.report.outputs[&1].clone())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("tenant thread panicked"))
                .collect()
        });

        for (i, (a, b)) in data.iter().enumerate() {
            for (qi, sql) in [SUM_SQL, COUNT_SQL, SUM_SQL].iter().enumerate() {
                let expected = oracle(a, b, sql);
                let got = &answers[&(i, qi)];
                prop_assert!(
                    got.same_rows_unordered(&expected),
                    "tenant {} query {} diverged:\ngot:\n{}\nexpected:\n{}",
                    i, qi, got, expected
                );
            }
        }

        // Each tenant's mesh was built exactly once and is still alive; the
        // repeated SUM was a cache hit (2 distinct texts -> 2 misses).
        for i in 0..data.len() {
            let stats = server.tenant_stats(&format!("tenant{i}")).unwrap();
            prop_assert!(stats.mesh_live, "tenant {} keeps its mesh", i);
            prop_assert_eq!(stats.cache.misses, 2);
            prop_assert_eq!(stats.cache.hits, 1);
            prop_assert_eq!(stats.completed, 3);
            prop_assert_eq!(stats.rejected, 0);
        }
        let pool = server.stats().pool.unwrap();
        prop_assert!(pool.taken >= 3, "every tenant drew from the shared pool");
    }
}

/// Property 1b: one tenant's mesh is built exactly once across many serial
/// queries (the per-query reports sum to a single build).
#[test]
fn mesh_builds_stay_at_one_across_queries() {
    let server = ConclaveServer::start(pooled_server_config(23, 2));
    server.register_tenant("acme", Catalog::new()).unwrap();
    server.bind("acme", "ta", rel(&[(1, 2), (2, 10)])).unwrap();
    server.bind("acme", "tb", rel(&[(1, 3)])).unwrap();
    let mut total_builds = 0;
    for _ in 0..4 {
        let outcome = server.query("acme", SUM_SQL).unwrap();
        assert!(
            outcome.report.net.rounds > 0,
            "channel mesh measured traffic"
        );
        total_builds += outcome.report.mesh_builds();
    }
    assert_eq!(total_builds, 1, "one mesh serves every query");
    // Rebinding data does not rebuild the mesh or touch the plan cache.
    server.bind("acme", "tb", rel(&[(2, 5)])).unwrap();
    let outcome = server.query("acme", SUM_SQL).unwrap();
    assert!(outcome.cache_hit);
    assert_eq!(outcome.report.mesh_builds(), 0);
    let expected = Relation::from_ints(&["k", "total"], &[vec![1, 2], vec![2, 15]]);
    assert!(outcome.report.outputs[&1].same_rows_unordered(&expected));
}

/// Property 2: cache hit/miss/invalidation counters, pinned exactly.
#[test]
fn plan_cache_counts_are_pinned() {
    let server = ConclaveServer::start(ServerConfig::default());
    server.register_tenant("acme", Catalog::new()).unwrap();
    server.bind("acme", "ta", rel(&[(1, 2)])).unwrap();
    server.bind("acme", "tb", rel(&[(1, 3)])).unwrap();

    assert!(!server.query("acme", SUM_SQL).unwrap().cache_hit);
    // Identical text: hit.
    assert!(server.query("acme", SUM_SQL).unwrap().cache_hit);
    // Whitespace and keyword case differences normalize away: hit.
    let messy = SUM_SQL
        .replace("SELECT", "select\n\t")
        .replace("GROUP BY", "group   by");
    assert!(server.query("acme", &messy).unwrap().cache_hit);
    // A genuinely different query: miss.
    assert!(!server.query("acme", COUNT_SQL).unwrap().cache_hit);
    let stats = server.tenant_stats("acme").unwrap();
    assert_eq!(stats.cache.hits, 2);
    assert_eq!(stats.cache.misses, 2);
    assert_eq!(stats.cache.invalidations, 0);
    assert_eq!(stats.cached_plans, 2);

    // Catalog change: both cached plans invalidated, next lookups miss.
    let changed = Catalog::new().with_table("tc", Schema::ints(&["x"]), Party::new(1, "p1"));
    server.update_catalog("acme", changed).unwrap();
    assert!(!server.query("acme", SUM_SQL).unwrap().cache_hit);
    let stats = server.tenant_stats("acme").unwrap();
    assert_eq!(stats.cache.invalidations, 2);
    assert_eq!(stats.cached_plans, 1);
    assert_eq!(stats.cache.misses, 3);

    // Tenants are isolated: a fresh tenant starts cold.
    server.register_tenant("zenith", Catalog::new()).unwrap();
    server.bind("zenith", "ta", rel(&[(7, 1)])).unwrap();
    server.bind("zenith", "tb", rel(&[])).unwrap();
    assert!(!server.query("zenith", SUM_SQL).unwrap().cache_hit);
    assert_eq!(server.tenant_stats("zenith").unwrap().cache.hits, 0);
}

/// Property 3: a paused (empty) pool blocks queries — holding their
/// admission slot — and they complete correctly once material arrives.
#[test]
fn pool_starvation_blocks_then_succeeds() {
    let pool = MaterialPool::start_paused(31, 3, small_spec(), 1);
    let config = ServerConfig::new(
        ConclaveConfig::standard()
            .with_sequential_local()
            .with_channel_runtime(),
    )
    .with_pool(pool.clone());
    let server = ConclaveServer::start(config);
    server.register_tenant("acme", Catalog::new()).unwrap();
    server.bind("acme", "ta", rel(&[(1, 2)])).unwrap();
    server.bind("acme", "tb", rel(&[(1, 3)])).unwrap();

    let (done_tx, done_rx) = mpsc::channel();
    let worker = {
        let server = server.clone();
        thread::spawn(move || {
            let outcome = server.query("acme", SUM_SQL);
            done_tx.send(()).ok();
            outcome
        })
    };
    // Starved: the query must still be blocked (not failed!) after a grace
    // period, with its admission slot held.
    assert!(
        done_rx.recv_timeout(Duration::from_millis(120)).is_err(),
        "query must block on the empty pool, not complete or error"
    );
    assert_eq!(pool.stats().dealt, 0, "paused pool dealt nothing");
    assert_eq!(server.tenant_stats("acme").unwrap().in_flight, 1);

    // Refill: the blocked query completes with the right answer.
    pool.resume();
    let outcome = worker.join().unwrap().expect("blocked query succeeds");
    let expected = Relation::from_ints(&["k", "total"], &[vec![1, 5]]);
    assert!(outcome.report.outputs[&1].same_rows_unordered(&expected));
    assert!(pool.stats().starved >= 1, "the starvation was recorded");
    assert_eq!(server.tenant_stats("acme").unwrap().in_flight, 0);
}

/// Property 4: typed rejections at the queue limit, queued execution below
/// it.
#[test]
fn admission_control_rejects_beyond_queue_and_queues_below_it() {
    let pool = MaterialPool::start_paused(43, 3, small_spec(), 1);
    let config = ServerConfig::new(
        ConclaveConfig::standard()
            .with_sequential_local()
            .with_channel_runtime(),
    )
    .with_pool(pool.clone())
    .with_limits(AdmissionLimits {
        max_in_flight: 1,
        queue_depth: 1,
    });
    let server = ConclaveServer::start(config);
    server.register_tenant("acme", Catalog::new()).unwrap();
    server.bind("acme", "ta", rel(&[(1, 2)])).unwrap();
    server.bind("acme", "tb", rel(&[(1, 3)])).unwrap();

    // Query 1 occupies the only in-flight slot (blocked on the paused pool).
    let q1 = {
        let server = server.clone();
        thread::spawn(move || server.query("acme", SUM_SQL))
    };
    while server.tenant_stats("acme").unwrap().in_flight == 0 {
        thread::sleep(Duration::from_millis(1));
    }
    // Query 2 parks in the queue.
    let q2 = {
        let server = server.clone();
        thread::spawn(move || server.query("acme", SUM_SQL))
    };
    while server.tenant_stats("acme").unwrap().queued == 0 {
        thread::sleep(Duration::from_millis(1));
    }

    // Query 3 finds slot and queue full: typed rejection, snapshot attached.
    let err = server.query("acme", SUM_SQL).unwrap_err();
    match &err {
        ServerError::Rejected { tenant, limits } => {
            assert_eq!(tenant, "acme");
            assert_eq!(limits.in_flight, 1);
            assert_eq!(limits.queued, 1);
            assert_eq!(limits.max_in_flight, 1);
            assert_eq!(limits.queue_depth, 1);
        }
        other => panic!("expected a rejection, got {other}"),
    }
    assert!(err.to_string().contains("rejected"));

    // Unknown tenants are typed too, and do not consume admission slots.
    assert!(matches!(
        server.query("ghost", SUM_SQL),
        Err(ServerError::UnknownTenant(_))
    ));

    // Resume the pool: both the blocked and the queued query complete.
    pool.resume();
    let expected = Relation::from_ints(&["k", "total"], &[vec![1, 5]]);
    for handle in [q1, q2] {
        let outcome = handle.join().unwrap().expect("admitted queries succeed");
        assert!(outcome.report.outputs[&1].same_rows_unordered(&expected));
    }
    let stats = server.tenant_stats("acme").unwrap();
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.queued, 0);
}

/// The wire API serves concurrent client links against one shared server:
/// results stay per-tenant even when two links interleave submissions.
#[test]
fn wire_clients_interleave_without_cross_talk() {
    use conclave::net::ChannelTransport;
    use conclave::server::query_remote;

    let server = ConclaveServer::start(pooled_server_config(57, 2));
    for (name, a, b) in [
        ("left", vec![(1i64, 10i64)], vec![(1i64, 1i64)]),
        ("right", vec![(1, 200)], vec![(1, 2)]),
    ] {
        server.register_tenant(name, Catalog::new()).unwrap();
        server.bind(name, "ta", rel(&a)).unwrap();
        server.bind(name, "tb", rel(&b)).unwrap();
    }

    let expected = HashMap::from([("left", 11i64), ("right", 202i64)]);
    let mut listeners = Vec::new();
    let mut client_threads = Vec::new();
    for name in ["left", "right"] {
        let mut link = ChannelTransport::mesh(2);
        let server_end = link.pop().unwrap();
        let client_end = link.pop().unwrap();
        let listener_server = server.clone();
        listeners.push(thread::spawn(move || listener_server.serve(&server_end)));
        let expected_total = expected[name];
        client_threads.push(thread::spawn(move || {
            for _ in 0..3 {
                let outputs = query_remote(&client_end, name, SUM_SQL).unwrap();
                let total = outputs[&1].rows[0][1].as_int().unwrap();
                assert_eq!(total, expected_total, "tenant {name}");
            }
            // Dropping `client_end` here disconnects the listener cleanly.
        }));
    }
    for client in client_threads {
        client.join().unwrap();
    }
    for listener in listeners {
        listener.join().unwrap().unwrap();
    }
}
