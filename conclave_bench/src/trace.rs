//! The traced pass of one workload: a short untraced window for reference,
//! stage replays with spans, and the per-layer probes. Its numbers are never
//! mixed into the end-to-end ones; the difference between the replay and the
//! untraced median is reported as `trace.overhead`.

use crate::json::Json;
use crate::probes;
use crate::registry::PER_LAYER;
use crate::replay::{replay, Material, Replay};
use crate::run::{measure, rss_mb, Measured, OneShotRunner, Sizing, Workload};
use crate::serve::{self, Serve};
use crate::stats::{median, percentile};
use crate::workloads::{self, CREDIT_POPULATION};
use conclave_core::config::{ConclaveConfig, PartyRuntime};
use conclave_core::plan::{compile, PhysicalPlan};
use conclave_core::report::RunReport;
use conclave_core::session::PersistentSession;
use conclave_engine::Table;
use conclave_ir::builder::Query;
use conclave_ir::party::PartyId;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Share of `--seconds` given to the untraced reference window and to the
/// replays; the probes take what they take (a few seconds).
const WINDOW_SHARE: f64 = 0.3;

pub struct Traced {
    /// Every per-layer metric by name; 0 where the workload does not
    /// exercise the layer.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Why the stage replay was rejected, if it was.
    pub invalid: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The spans of the last replay, for the trace file.
    pub spans: Json,
}

struct Subject<'a> {
    sql: Option<&'a str>,
    query: &'a Query,
    plan: &'a PhysicalPlan,
    config: &'a ConclaveConfig,
    inputs: Vec<(&'a str, Table)>,
    recipient: PartyId,
    material: Material<'a>,
    /// One untraced run of the same query by the driver.
    report: &'a RunReport,
}

fn set(metrics: &mut BTreeMap<&'static str, f64>, name: &str, value: f64) {
    let key = PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
        .name;
    metrics.insert(key, value);
}

/// The numbers one replay's spans give, by metric name.
fn span_metrics(r: &Replay) -> Vec<(String, f64)> {
    let rec = &r.rec;
    let parties: Vec<u32> = {
        let mut p: Vec<u32> = rec.spans.iter().filter_map(|s| s.party).collect();
        p.sort_unstable();
        p.dedup();
        p
    };
    let slowest = |f: &dyn Fn(u32) -> f64| parties.iter().map(|&p| f(p)).fold(0.0, f64::max);
    let ops_ms = |party: u32| -> f64 {
        rec.spans
            .iter()
            .filter(|s| s.party == Some(party) && s.name.starts_with("op:"))
            .map(|s| s.ms())
            .sum()
    };
    let engine_ms = rec.total_ms("engine", None);
    let mut out = vec![
        ("engine.local_ms".to_string(), engine_ms),
        (
            "engine.rows_per_s".to_string(),
            if engine_ms > 0.0 {
                r.cleartext_rows as f64 / (engine_ms / 1e3)
            } else {
                0.0
            },
        ),
        (
            "hybrid.join_ms".to_string(),
            rec.total_ms("hybrid_join", None) + rec.total_ms("public_join", None),
        ),
        (
            "hybrid.aggregate_ms".to_string(),
            rec.total_ms("hybrid_aggregate", None),
        ),
        (
            "mpc.share_input_ms".to_string(),
            slowest(&|p| rec.total_ms("share_input", Some(p))),
        ),
        ("mpc.compute_ms".to_string(), slowest(&ops_ms)),
        (
            "mpc.reveal_ms".to_string(),
            slowest(&|p| rec.total_ms("reveal", Some(p))),
        ),
        (
            "mpc.mac_check_ms".to_string(),
            slowest(&|p| rec.total_ms("mac_check", Some(p))),
        ),
    ];
    let busy: Vec<f64> = parties
        .iter()
        .map(|&p| rec.total_ms("node", Some(p)))
        .collect();
    let least = busy.iter().copied().fold(f64::INFINITY, f64::min);
    out.push((
        "mpc.party_skew".to_string(),
        if busy.is_empty() || least == 0.0 {
            0.0
        } else {
            busy.iter().copied().fold(0.0, f64::max) / least
        },
    ));
    for op in ["filter", "multiply", "aggregate", "join", "sort"] {
        let span = format!("op:{op}");
        out.push((
            format!("mpc.op.{op}_ms"),
            slowest(&|p| rec.total_ms(&span, Some(p))),
        ));
        // Every party records the same rounds; party 0 speaks for all.
        let rounds: u64 = rec.named(&span, Some(0)).map(|s| s.rounds).sum();
        out.push((format!("mpc.op.{op}_rounds"), rounds as f64));
    }
    out
}

/// Replays the subject for about `seconds` (at least `min_replays` times),
/// validates each replay against the driver's report and publishes the
/// per-metric medians — or nothing from the spans, if any replay is invalid.
fn replay_into(
    metrics: &mut BTreeMap<&'static str, f64>,
    subject: &Subject,
    untraced_p50_ms: f64,
    seconds: f64,
    min_replays: usize,
) -> (Option<String>, Json) {
    let start = Instant::now();
    let mut per_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut totals = Vec::new();
    let mut spans = Json::Arr(Vec::new());
    let mut query = 0;
    while start.elapsed().as_secs_f64() < seconds || (query as usize) < min_replays {
        let replayed = replay(
            subject.plan,
            subject.config,
            &subject.inputs,
            subject.recipient,
            &subject.material,
            query,
        )
        .and_then(|r| r.validate(subject.report, subject.recipient).map(|()| r));
        let r = match replayed {
            Ok(r) => r,
            Err(why) => return (Some(why), spans),
        };
        totals.push(r.total_ms());
        for (name, value) in span_metrics(&r) {
            per_metric.entry(name).or_default().push(value);
        }
        spans = r.rec.to_json();
        query += 1;
    }
    for (name, values) in &per_metric {
        set(metrics, name, median(values));
    }
    let total = median(&totals);
    set(metrics, "trace.valid", 1.0);
    set(metrics, "trace.overhead", total / untraced_p50_ms);
    set(metrics, "core.driver_residual_ms", untraced_p50_ms - total);
    (None, spans)
}

/// What every workload reports about its one query and its plan, plus the
/// workload-independent probes.
fn common_into(
    metrics: &mut BTreeMap<&'static str, f64>,
    subject: &Subject,
    seed: u64,
    quick: bool,
) {
    let report = subject.report;
    let counts = report.mpc_stats.counts;
    for (name, value) in [
        ("net.rounds", report.net.rounds),
        ("net.wire_bytes", report.net.total_bytes()),
        ("net.messages", report.net.total_messages()),
        ("net.mesh_builds", report.net.mesh_builds),
        ("mpc.mults", counts.mults),
        ("mpc.comparisons", counts.comparisons),
        ("mpc.equalities", counts.equalities),
        ("mpc.bit_ands", counts.bit_ands),
        ("mpc.circuit_rounds", counts.circuit_rounds),
        ("mpc.shuffled_elems", counts.shuffled_elems),
        ("mpc.input_elems", counts.input_elems),
        ("mpc.opened_elems", counts.opened_elems),
        ("mpc.mac_checks", counts.mac_checks),
        ("engine.conversions", report.conversions.total()),
    ] {
        set(metrics, name, value as f64);
    }
    let (cleartext, mpc, hybrid) = probes::plan_nodes(subject.plan);
    set(metrics, "core.plan_local_nodes", cleartext as f64);
    set(metrics, "core.plan_mpc_nodes", mpc as f64);
    set(metrics, "core.plan_hybrid_nodes", hybrid as f64);
    if quick {
        return;
    }
    if let Some(sql) = subject.sql {
        set(
            metrics,
            "sql.parse_lower_us",
            probes::sql_parse_lower_us(sql),
        );
    }
    set(
        metrics,
        "core.compile_us",
        probes::compile_us(subject.query, subject.config),
    );
    set(
        metrics,
        "core.mesh_build_ms.channel",
        probes::mesh_build_ms(PartyRuntime::Channel, 30),
    );
    set(
        metrics,
        "core.mesh_build_ms.tcp",
        probes::mesh_build_ms(PartyRuntime::Tcp, 10),
    );
    for (transport, runtime) in [
        ("channel", PartyRuntime::Channel),
        ("tcp", PartyRuntime::Tcp),
    ] {
        let probe = probes::net_probe(runtime);
        set(
            metrics,
            &format!("net.{transport}.round_us"),
            probe.round_us,
        );
        set(
            metrics,
            &format!("net.{transport}.mb_per_s"),
            probe.mb_per_s,
        );
    }
    set(
        metrics,
        "net.tcp.mesh_connect_ms",
        probes::tcp_mesh_connect_ms(),
    );
    let mpc_probe = probes::mpc_probe();
    set(
        metrics,
        "mpc.input_us_per_elem",
        mpc_probe.input_us_per_elem,
    );
    set(
        metrics,
        "mpc.mul_batch_us_per_pair",
        mpc_probe.mul_batch_us_per_pair,
    );
    set(
        metrics,
        "mpc.lt_batch_us_per_pair",
        mpc_probe.lt_batch_us_per_pair,
    );
    set(
        metrics,
        "mpc.eq_batch_us_per_pair",
        mpc_probe.eq_batch_us_per_pair,
    );
    set(metrics, "mpc.open_us_per_elem", mpc_probe.open_us_per_elem);
    set(metrics, "mpc.lt_single_us", mpc_probe.lt_single_us);
    let (deal_ms, bundle_bytes) = probes::dealer_probe(seed);
    set(metrics, "dealer.deal_ms", deal_ms);
    set(metrics, "dealer.bundle_bytes", bundle_bytes as f64);
    // The in-process operators only run under hybrid nodes: probing them for
    // a plan without any would time code the workload never reaches.
    if hybrid > 0 {
        let probe = probes::oblivious_probe(subject.config, CREDIT_POPULATION * 6 / 5);
        set(metrics, "oblivious.shuffle_ms", probe.shuffle_ms);
        set(metrics, "oblivious.sort_ms", probe.sort_ms);
        set(metrics, "oblivious.select_ms", probe.select_ms);
        set(metrics, "oblivious.aggregate_ms", probe.aggregate_ms);
    }
}

fn guard_into(metrics: &mut BTreeMap<&'static str, f64>, measured: &Measured) {
    set(metrics, "guard.warmup_ratio", measured.warmup_ratio);
    set(metrics, "guard.halves_gap", measured.halves_gap);
}

fn window_sizing(sizing: Sizing) -> Sizing {
    Sizing {
        seconds: sizing.seconds * WINDOW_SHARE,
        min_ops: 3,
        ..sizing
    }
}

/// The traced pass of `name`.
pub fn traced_run(name: &str, seed: u64, sizing: Sizing) -> Traced {
    let mut metrics: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let quick = sizing.scale > 1;
    let replay_seconds = sizing.seconds * WINDOW_SHARE;
    let min_replays = if quick { 1 } else { 2 };
    if name == "serve_small" {
        return traced_serve(metrics, seed, sizing, replay_seconds, min_replays);
    }

    let mut runner = OneShotRunner::new(name, workloads::setup(name, seed, sizing.scale));
    let measured = measure(&mut runner, window_sizing(sizing));
    guard_into(&mut metrics, &measured);
    let (_, report) = runner.query();
    let correct = runner.is_correct(&report);
    let (attempted, failed) = (
        measured.window.attempted + 1,
        measured.window.failed + u64::from(!correct),
    );
    let Ok(report) = report else {
        return Traced {
            metrics,
            invalid: Some("the driver's reference query failed".into()),
            attempted,
            failed,
            spans: Json::Arr(Vec::new()),
        };
    };
    let w = &runner.w;
    let subject = Subject {
        sql: w.sql,
        query: &w.query,
        plan: &w.plan,
        config: &w.config,
        inputs: w.inputs.clone(),
        recipient: w.recipient,
        material: Material::Seeded,
        report: &report,
    };
    let p50 = median(&measured.window.query_ms());
    let (invalid, spans) = replay_into(&mut metrics, &subject, p50, replay_seconds, min_replays);
    common_into(&mut metrics, &subject, seed, quick);
    Traced {
        metrics,
        invalid,
        attempted,
        failed,
        spans,
    }
}

fn traced_serve(
    mut metrics: BTreeMap<&'static str, f64>,
    seed: u64,
    sizing: Sizing,
    replay_seconds: f64,
    min_replays: usize,
) -> Traced {
    let quick = sizing.scale > 1;
    let mut serve = Serve::start(seed);
    let measured = measure(&mut serve, window_sizing(sizing));
    guard_into(&mut metrics, &measured);
    let window = &measured.window;
    let ms = window.query_ms();
    set(&mut metrics, "server.query_ms_p95", percentile(&ms, 0.95));
    set(&mut metrics, "server.query_ms_p99", percentile(&ms, 0.99));
    set(&mut metrics, "server.bind_ms_p50", median(&window.binds_ms));
    let quarter = ms.len() / 4;
    if quarter > 0 {
        set(
            &mut metrics,
            "server.latency_drift",
            median(&ms[ms.len() - quarter..]) / median(&ms[..quarter]),
        );
    }
    // What a query leaves behind in the process: `PartySession::refill`
    // keeps the part of every bundle the query did not consume.
    let rss_before = rss_mb();
    let growth = serve.run_for(sizing.seconds * 0.1, 3);
    set(
        &mut metrics,
        "server.rss_kb_per_op",
        (rss_mb() - rss_before) * 1024.0 / growth.attempted.max(1) as f64,
    );
    let stats = serve.server.stats();
    let (mut hits, mut misses, mut queued, mut rejected) = (0, 0, 0, 0);
    for t in stats.tenants.values() {
        hits += t.cache.hits;
        misses += t.cache.misses;
        queued += t.queued as u64;
        rejected += t.rejected;
    }
    set(
        &mut metrics,
        "server.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    set(&mut metrics, "server.admission_queued", queued as f64);
    set(&mut metrics, "server.rejected", rejected as f64);
    if let Some(pool) = stats.pool {
        set(
            &mut metrics,
            "dealer.starved_share",
            pool.starved as f64 / pool.taken.max(1) as f64,
        );
        set(
            &mut metrics,
            "dealer.leftover",
            (pool.dealt - pool.taken) as f64,
        );
    }

    // Tenant 0's query, once through the server for the reference report and
    // then side by side with a bare `PersistentSession` on the same pool.
    let tenant = serve::tenant_name(0);
    let (ta, tb, expected) = serve.tables_now(0);
    let config = serve::session_config();
    let query = conclave_sql::compile_sql(serve::SUM_SQL).expect("serve SQL compiles");
    let plan = compile(&query, &config).expect("serve query compiles");
    let outcome = serve.server.query(&tenant, serve::SUM_SQL);
    let mut attempted = window.attempted + growth.attempted + 1;
    let mut failed = window.failed + growth.failed;
    let report = match outcome {
        Ok(outcome) => outcome.report,
        Err(e) => {
            return Traced {
                metrics,
                invalid: Some(format!("the server's reference query failed: {e}")),
                attempted,
                failed: failed + 1,
                spans: Json::Arr(Vec::new()),
            }
        }
    };
    let want = conclave_engine::Relation::from_ints(&["k", "total"], &[vec![1, expected]]);
    if !report
        .output_for(1)
        .is_some_and(|out| out.same_rows_unordered(&want))
    {
        failed += 1;
    }
    if !quick {
        let mut bare =
            PersistentSession::new(config.clone().with_pooled_dealer(serve.pool.clone()));
        bare.bind("ta", ta.clone()).bind("tb", tb.clone());
        let (mut through_server, mut through_session) = (Vec::new(), Vec::new());
        for _ in 0..300 {
            let start = Instant::now();
            let served = serve.server.query(&tenant, serve::SUM_SQL);
            through_server.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            let ran = bare.run_plan(&plan);
            through_session.push(start.elapsed().as_secs_f64() * 1e6);
            attempted += 2;
            failed += u64::from(served.is_err()) + u64::from(ran.is_err());
        }
        set(
            &mut metrics,
            "server.overhead_us",
            median(&through_server) - median(&through_session),
        );
        let cadence = Duration::from_secs_f64(window.wall_s / window.queries.len().max(1) as f64);
        let waits = probes::pool_take_waits_us(seed, serve::POOL_DEPTH, cadence, 2_000);
        set(&mut metrics, "dealer.take_wait_us_p50", median(&waits));
        set(
            &mut metrics,
            "dealer.take_wait_us_p99",
            percentile(&waits, 0.99),
        );
    }

    let subject = Subject {
        sql: Some(serve::SUM_SQL),
        query: &query,
        plan: &plan,
        config: &config,
        inputs: vec![("ta", Table::from_rows(ta)), ("tb", Table::from_rows(tb))],
        recipient: 1,
        material: Material::Pool(&serve.pool),
        report: &report,
    };
    let p50 = median(&ms);
    let (invalid, spans) = replay_into(&mut metrics, &subject, p50, replay_seconds, min_replays);
    common_into(&mut metrics, &subject, seed, quick);
    Traced {
        metrics,
        invalid,
        attempted,
        failed,
        spans,
    }
}
