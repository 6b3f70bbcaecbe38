//! `serve_small`: many tiny queries against `conclave-server`.
//!
//! Four tenants share one `MaterialPool` (depth as in the `server_load` bin,
//! bundles sized to the query: see [`POOL_SPEC`]). Two closed-loop clients — one per core of the sandbox
//! this was written on — each alternate between two tenants of their own.
//! Fifteen of every sixteen operations are the two-owner `GROUP BY` query;
//! the sixteenth rebinds one of the tenant's tables to fresh rows, which
//! changes the expected answer: anything that keeps shares or plans resident
//! across queries must still see the new data.

use crate::run::{Sample, Window, Workload};
use crate::workloads::SplitMix;
use conclave_core::config::ConclaveConfig;
use conclave_engine::Relation;
use conclave_mpc::dealer::{MaterialPool, MaterialSpec};
use conclave_server::{AdmissionLimits, ConclaveServer, ServerConfig, ServerHandle};
use conclave_sql::Catalog;
use std::time::Instant;

pub const TENANTS: usize = 4;
pub const CLIENTS: usize = 2;
/// One operation in this many is a rebind.
pub const REBIND_EVERY: u64 = 16;
/// Rows over both tables of a tenant: the "rows" of one query.
pub const ROWS_PER_QUERY: u64 = 3;

pub const SUM_SQL: &str = "CREATE TABLE ta (k INT, v INT) WITH OWNER p1;
     CREATE TABLE tb (k INT, v INT) WITH OWNER p2;
     SELECT k, SUM(v) AS total FROM (ta UNION ALL tb)
     GROUP BY k
     REVEAL TO p1;";

/// One bundle per query. The query consumes 5 triples, 41 bit-triple words,
/// 4 shared bits, 2 daBits and 2 input masks per owner; the bundle holds that
/// and a small margin, so that a library change that needs one triple more
/// does not fail every query. It is deliberately *not* the `server_load`
/// bin's spec (256/512/256/64/128): `PartySession::refill` keeps whatever a
/// query leaves over, so that spec grows the process by ~320 kB per query
/// (5 GB in a 25 s run), and throughput then flips between ~1000 and ~300 qps
/// depending on whether the guest's page faults hit memory the host has
/// already backed — a property of the sandbox's history, not of the code
/// (README, "What the sandbox does to measurements"). With this spec the
/// left-over is ~9 kB per query, which `server.rss_kb_per_op` reports.
pub const POOL_SPEC: MaterialSpec = MaterialSpec {
    triples: 8,
    bit_triples: 48,
    shared_bits: 8,
    dabits: 4,
    input_masks: 4,
};
pub const POOL_DEPTH: usize = 8;

pub fn session_config() -> ConclaveConfig {
    ConclaveConfig::standard()
        .with_sequential_local()
        .with_channel_runtime()
}

pub fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

/// Tenant `t`'s two tables at rebind generation `generation`, and the total
/// the query must return for them. Values come from the seed, the tenant and
/// the generation, so no two tenants (or generations) share an answer except
/// by a one-in-a-million draw.
pub fn tenant_tables(seed: u64, t: usize, generation: u64) -> (Relation, Relation, i64) {
    let mut base = SplitMix(seed ^ (t as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let a = [base.range(1, 1_000_000), base.range(1, 1_000_000)];
    let mut fresh = SplitMix(base.next() ^ generation.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    let b = fresh.range(1, 1_000_000);
    (
        Relation::from_ints(&["k", "v"], &[vec![1, a[0]], vec![1, a[1]]]),
        Relation::from_ints(&["k", "v"], &[vec![1, b]]),
        a[0] + a[1] + b,
    )
}

/// What one client remembers about a tenant it owns.
#[derive(Clone, Copy)]
struct TenantState {
    tenant: usize,
    generation: u64,
    expected: i64,
}

pub struct Serve {
    pub server: ServerHandle,
    pub pool: MaterialPool,
    seed: u64,
    /// Per client: its two tenants and how many operations it has issued.
    clients: Vec<([TenantState; 2], u64)>,
}

impl Serve {
    /// Starts the pool and the server, registers and binds every tenant and
    /// runs each tenant's first query (which compiles its plan and builds
    /// its mesh). Panics if a first query is wrong: nothing after it could
    /// be trusted.
    pub fn start(seed: u64) -> Serve {
        let pool = MaterialPool::start(seed, 3, POOL_SPEC, POOL_DEPTH);
        let config = ServerConfig::new(session_config())
            .with_pool(pool.clone())
            .with_limits(AdmissionLimits {
                max_in_flight: 2,
                queue_depth: CLIENTS,
            });
        let server = ConclaveServer::start(config);
        let mut states = Vec::new();
        for t in 0..TENANTS {
            let name = tenant_name(t);
            server
                .register_tenant(&name, Catalog::new())
                .expect("fresh tenant");
            let (ta, tb, expected) = tenant_tables(seed, t, 0);
            server.bind(&name, "ta", ta).expect("bind ta");
            server.bind(&name, "tb", tb).expect("bind tb");
            let state = TenantState {
                tenant: t,
                generation: 0,
                expected,
            };
            assert!(
                timed_query(&server, &state).1,
                "{name}: first query is wrong"
            );
            states.push(state);
        }
        let clients = states
            .chunks(TENANTS / CLIENTS)
            .map(|c| ([c[0], c[1]], 0))
            .collect();
        Serve {
            server,
            pool,
            seed,
            clients,
        }
    }

    /// The tables tenant `t` has bound right now and the total they give.
    pub fn tables_now(&self, t: usize) -> (Relation, Relation, i64) {
        let state = self
            .clients
            .iter()
            .flat_map(|(tenants, _)| tenants)
            .find(|s| s.tenant == t)
            .expect("every tenant belongs to a client");
        tenant_tables(self.seed, t, state.generation)
    }
}

/// One query: its latency in ms, and whether it returned exactly the
/// tenant's current total (checked outside the timed call).
fn timed_query(server: &ServerHandle, state: &TenantState) -> (f64, bool) {
    let name = tenant_name(state.tenant);
    let start = Instant::now();
    let outcome = server.query(&name, SUM_SQL);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let ok = match outcome {
        Ok(outcome) => {
            let want = Relation::from_ints(&["k", "total"], &[vec![1, state.expected]]);
            outcome
                .report
                .output_for(1)
                .is_some_and(|out| out.same_rows_unordered(&want))
        }
        Err(e) => {
            eprintln!("{name}: query failed: {e}");
            false
        }
    };
    (ms, ok)
}

impl Workload for Serve {
    fn run_for(&mut self, seconds: f64, min_ops: usize) -> Window {
        let start = Instant::now();
        let (server, seed) = (&self.server, self.seed);
        let parts: Vec<Window> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|(tenants, issued)| {
                    s.spawn(move || {
                        let mut w = Window::default();
                        while start.elapsed().as_secs_f64() < seconds
                            || (w.attempted as usize) < min_ops.div_ceil(CLIENTS)
                        {
                            let state = &mut tenants[(*issued % 2) as usize];
                            *issued += 1;
                            w.attempted += 1;
                            let at_s = start.elapsed().as_secs_f64();
                            if *issued % REBIND_EVERY == 0 {
                                state.generation += 1;
                                let (_, tb, expected) =
                                    tenant_tables(seed, state.tenant, state.generation);
                                state.expected = expected;
                                let name = tenant_name(state.tenant);
                                let op = Instant::now();
                                let bound = server.bind(&name, "tb", tb);
                                w.binds_ms.push(op.elapsed().as_secs_f64() * 1e3);
                                w.failed += u64::from(bound.is_err());
                            } else {
                                let (ms, ok) = timed_query(server, state);
                                w.queries.push(Sample { at_s, ms });
                                if ok {
                                    w.correct_queries += 1;
                                } else {
                                    w.failed += 1;
                                }
                            }
                        }
                        w
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut window = Window {
            wall_s: start.elapsed().as_secs_f64(),
            ..Window::default()
        };
        for part in parts {
            window.queries.extend(part.queries);
            window.binds_ms.extend(part.binds_ms);
            window.attempted += part.attempted;
            window.failed += part.failed;
            window.correct_queries += part.correct_queries;
        }
        window
            .queries
            .sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite"));
        window
    }
}
