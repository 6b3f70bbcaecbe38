//! Per-layer probes: short, direct calls into one layer's public functions,
//! timed from outside. They give the unit costs that the per-query counts
//! (`net.rounds`, `mpc.comparisons`, …) multiply with.

use crate::serve::POOL_SPEC;
use crate::stats::median;
use conclave_core::config::{ConclaveConfig, DealerMode, PartyRuntime};
use conclave_core::party_exec::PartyMeshRuntime;
use conclave_core::plan::{compile, PhysicalPlan};
use conclave_engine::Relation;
use conclave_ir::builder::Query;
use conclave_ir::ops::AggFunc;
use conclave_mpc::backend::MpcEngine;
use conclave_mpc::dealer::{generate_blocks, MaterialBlocks, MaterialPool};
use conclave_mpc::oblivious;
use conclave_mpc::runtime::{PartyResult, PartySession};
use conclave_mpc::AuthShare;
use conclave_net::{Mesh, MessageKind, TcpTransport, Transport};
use std::time::{Duration, Instant};

/// Pairs per batch primitive probe, and elements per input/open probe.
const BATCH_PAIRS: usize = 20_000;
/// Lock-step one-word rounds per round-latency probe.
const ROUNDS: usize = 20_000;
/// Words per bandwidth frame: 4 MiB.
const FRAME_WORDS: usize = 512 * 1024;
const FRAMES: usize = 8;

/// Median wall of `reps` calls of `f`, in `unit`s per second (1e3 = ms,
/// 1e6 = µs).
fn median_of<T>(reps: usize, unit: f64, mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * unit
        })
        .collect();
    median(&walls)
}

/// `conclave-sql`: parse, bind and lower the workload's SQL text.
pub fn sql_parse_lower_us(sql: &str) -> f64 {
    median_of(1_000, 1e6, || {
        conclave_sql::compile_sql(sql).expect("workload SQL compiles")
    })
}

/// `conclave-core` passes: the whole `plan::compile` pipeline.
pub fn compile_us(query: &Query, config: &ConclaveConfig) -> f64 {
    median_of(200, 1e6, || {
        compile(query, config).expect("workload query compiles")
    })
}

/// Plan nodes by where they run: (cleartext, MPC, hybrid). Exact.
pub fn plan_nodes(plan: &PhysicalPlan) -> (usize, usize, usize) {
    let hybrid = plan.hybrid_node_count();
    let mpc = plan.dag.iter().filter(|n| n.site.is_mpc()).count() - hybrid;
    let cleartext = plan.dag.iter().filter(|n| n.site.is_cleartext()).count();
    (cleartext, mpc, hybrid)
}

/// `party_exec`: build a party mesh with its workers and wind it down with
/// nothing enqueued.
pub fn mesh_build_ms(runtime: PartyRuntime, reps: usize) -> f64 {
    median_of(reps, 1e3, || {
        PartyMeshRuntime::with_dealer(3, 1, runtime, &DealerMode::Seeded)
            .and_then(PartyMeshRuntime::finish)
            .expect("an empty mesh builds and finishes")
    })
}

/// Runs `f` on every endpoint of a fresh 3-party mesh, one thread each, and
/// returns what the slowest party measured.
fn on_mesh<F>(runtime: PartyRuntime, f: F) -> Vec<f64>
where
    F: Fn(&dyn Transport) -> PartyResult<Vec<f64>> + Sync,
{
    let mesh = match runtime {
        PartyRuntime::Tcp => Mesh::tcp_localhost(3).expect("localhost mesh connects"),
        _ => Mesh::channel(3),
    };
    let endpoints = mesh.into_endpoints();
    let per_party: Vec<Vec<f64>> = std::thread::scope(|s| {
        // An endpoint is `Send` but not `Sync`: each moves into its thread.
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|net| {
                let f = &f;
                s.spawn(move || f(&*net).expect("probe runs"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    (0..per_party[0].len())
        .map(|i| per_party.iter().map(|p| p[i]).fold(0.0, f64::max))
        .collect()
}

pub struct NetProbe {
    pub round_us: f64,
    pub mb_per_s: f64,
}

/// `conclave-net`: the cost of one lock-step round (every party sends one
/// word to every peer and receives theirs) and the rate at which party 0
/// pushes 4 MiB frames to its two peers (bytes sent ÷ wall until both
/// acknowledge). The frames flow one way on purpose: `TcpTransport` writes
/// block, so parties that all send frames larger than the kernel's socket
/// buffers before any of them reads would wait for each other until the
/// receive timeout.
pub fn net_probe(runtime: PartyRuntime) -> NetProbe {
    let exchange = |net: &dyn Transport, word: u64| -> PartyResult<()> {
        net.send_all(MessageKind::Control, "probe", &[word])?;
        for peer in (0..net.parties()).filter(|p| *p != net.party()) {
            net.recv_from(peer)?;
        }
        net.record_round();
        Ok(())
    };
    let walls = on_mesh(runtime, |net| {
        // Warm the links before timing.
        for _ in 0..ROUNDS / 20 {
            exchange(net, 1)?;
        }
        let start = Instant::now();
        for i in 0..ROUNDS {
            exchange(net, i as u64)?;
        }
        let rounds_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        if net.party() == 0 {
            let frame = vec![7u64; FRAME_WORDS];
            for _ in 0..FRAMES {
                net.send_all(MessageKind::SecretShare, "probe", &frame)?;
            }
            for peer in 1..net.parties() {
                net.recv_from(peer)?;
            }
        } else {
            for _ in 0..FRAMES {
                net.recv_from(0)?;
            }
            net.send_to(0, MessageKind::Control, "probe", &[1])?;
        }
        Ok(vec![rounds_s, start.elapsed().as_secs_f64()])
    });
    let sent_bytes = (FRAMES * FRAME_WORDS * 8 * 2) as f64;
    NetProbe {
        round_us: walls[0] * 1e6 / ROUNDS as f64,
        mb_per_s: sent_bytes / 1e6 / walls[1],
    }
}

/// `conclave-net`: connect a 3-party localhost TCP mesh.
pub fn tcp_mesh_connect_ms() -> f64 {
    median_of(10, 1e3, || {
        TcpTransport::localhost_mesh(3).expect("localhost mesh connects")
    })
}

pub struct MpcProbe {
    pub input_us_per_elem: f64,
    pub mul_batch_us_per_pair: f64,
    pub lt_batch_us_per_pair: f64,
    pub eq_batch_us_per_pair: f64,
    pub open_us_per_elem: f64,
    pub lt_single_us: f64,
}

/// `conclave-mpc` runtime primitives on a 3-party channel mesh with MACed
/// shares: batched at 20 000 pairs (throughput) and one pair at a time
/// (latency: 9 rounds per comparison).
pub fn mpc_probe() -> MpcProbe {
    const SINGLES: usize = 200;
    let walls = on_mesh(PartyRuntime::Channel, |net| {
        let mut sess = PartySession::new(net, 2024);
        let mut proto = sess.step(0);
        let xs: Vec<i64> = (0..BATCH_PAIRS as i64).map(|i| i * 31 - 999).collect();
        let ys: Vec<i64> = (0..BATCH_PAIRS as i64).map(|i| 7_777 - i * 13).collect();
        let mut walls = Vec::new();
        let lap = |walls: &mut Vec<f64>, start: Instant| walls.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let sx = proto.input_column(0, (proto.party() == 0).then_some(&xs[..]), BATCH_PAIRS)?;
        let sy = proto.input_column(1, (proto.party() == 1).then_some(&ys[..]), BATCH_PAIRS)?;
        lap(&mut walls, start);
        let pairs: Vec<(AuthShare, AuthShare)> =
            sx.iter().copied().zip(sy.iter().copied()).collect();
        let start = Instant::now();
        let products = proto.mul_batch(&pairs)?;
        lap(&mut walls, start);
        let start = Instant::now();
        proto.lt_batch(&pairs)?;
        lap(&mut walls, start);
        let start = Instant::now();
        proto.eq_batch(&pairs)?;
        lap(&mut walls, start);
        let start = Instant::now();
        proto.open_column(&products)?;
        lap(&mut walls, start);
        let start = Instant::now();
        for (x, y) in pairs.iter().take(SINGLES) {
            proto.lt(*x, *y)?;
        }
        lap(&mut walls, start);
        proto.session().check_integrity()?;
        Ok(walls)
    });
    let per = |wall: f64, n: usize| wall * 1e6 / n as f64;
    MpcProbe {
        input_us_per_elem: per(walls[0], 2 * BATCH_PAIRS),
        mul_batch_us_per_pair: per(walls[1], BATCH_PAIRS),
        lt_batch_us_per_pair: per(walls[2], BATCH_PAIRS),
        eq_batch_us_per_pair: per(walls[3], BATCH_PAIRS),
        open_us_per_elem: per(walls[4], BATCH_PAIRS),
        lt_single_us: per(walls[5], SINGLES),
    }
}

pub struct ObliviousProbe {
    pub shuffle_ms: f64,
    pub sort_ms: f64,
    pub select_ms: f64,
    pub aggregate_ms: f64,
}

/// `conclave-mpc` in-process operators (`Protocol` + `oblivious.rs`) on
/// `credit_hybrid`'s shapes: a two-column relation of `rows` rows (the
/// concatenated score tables) is shuffled, indexed with `rows` secret
/// indexes and aggregated over 100 keys. The Batcher sort is probed on
/// `rows / 32` rows: the hybrid plan never sorts under MPC, and at full size
/// the network alone would outlast the run.
pub fn oblivious_probe(config: &ConclaveConfig, rows: usize) -> ObliviousProbe {
    let mut engine = MpcEngine::new(config.mpc);
    let data: Vec<Vec<i64>> = (0..rows as i64)
        .map(|i| vec![(i * 37) % 100, 300 + i % 550])
        .collect();
    let shared = engine
        .share(&Relation::from_ints(&["zip", "score"], &data))
        .expect("integer relation shares");
    let indexes: Vec<Vec<i64>> = (0..rows as i64)
        .map(|i| vec![(i * 7919) % rows as i64])
        .collect();
    let indexes = engine
        .share(&Relation::from_ints(&["idx"], &indexes))
        .expect("integer relation shares");
    let mut small = shared.clone();
    small.rows.truncate((rows / 32).max(2));
    let mut grouped = shared.clone();
    grouped.rows.sort_by_key(|r| r[0].reconstruct().to_i64());
    let group_by = ["zip".to_string()];
    let proto = engine.protocol();
    ObliviousProbe {
        shuffle_ms: median_of(3, 1e3, || oblivious::shuffle(&shared, proto)),
        sort_ms: median_of(3, 1e3, || {
            oblivious::sort_by(&small, "score", true, proto).expect("sort column exists")
        }),
        select_ms: median_of(3, 1e3, || {
            oblivious::oblivious_select(&shared, &indexes, "idx", proto).expect("indexes in range")
        }),
        aggregate_ms: median_of(3, 1e3, || {
            oblivious::aggregate_sorted(
                &grouped,
                &group_by,
                AggFunc::Sum,
                Some("score"),
                "total",
                proto,
            )
            .expect("columns exist")
        }),
    }
}

/// Bytes of one party's bundle in the dealer's word encoding (8 bytes per
/// ring element or bit word; a share is a value and a MAC).
pub fn bundle_bytes(b: &MaterialBlocks) -> u64 {
    let words = b.triples.len() * 6
        + b.bit_triples.len() * 3
        + b.shared_bits.len() * 3
        + b.dabits
            .iter()
            .map(|(_, adds)| 1 + 2 * adds.len())
            .sum::<usize>()
        + b.input_masks
            .iter()
            .flatten()
            .map(|m| 2 + usize::from(m.clear.is_some()))
            .sum::<usize>();
    8 * words as u64
}

/// `conclave-mpc` dealer: deal one bundle of the serve spec for 3 parties.
/// Returns (ms, bytes of one party's share of the bundle).
pub fn dealer_probe(seed: u64) -> (f64, u64) {
    let ms = median_of(20, 1e3, || generate_blocks(seed, 3, POOL_SPEC));
    (ms, bundle_bytes(&generate_blocks(seed, 3, POOL_SPEC)[0]))
}

/// `MaterialPool::take` at the serve cadence: a fresh pool of the serve spec
/// and depth, one take every `interval`, each take timed. Returns the waits
/// in µs.
pub fn pool_take_waits_us(seed: u64, depth: usize, interval: Duration, takes: usize) -> Vec<f64> {
    let pool = MaterialPool::start(seed, 3, POOL_SPEC, depth);
    // Let the refiller fill the pool first, as it has when a server starts.
    let patience = Instant::now();
    while pool.ready() < depth && patience.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let start = Instant::now();
    (0..takes)
        .map(|i| {
            std::thread::sleep((interval * i as u32).saturating_sub(start.elapsed()));
            let before = Instant::now();
            std::hint::black_box(pool.take());
            before.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}
