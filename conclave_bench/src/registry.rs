//! The names this benchmark fixes: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` is printed from
//! this registry (`conclave_bench manifest`) and `conclave_bench check` fails
//! when the two differ, so a later change refers to one set of names.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "scan_channel",
        why: "13 rounds, 68 MB: huge batches through the comparison circuits and share arithmetic of conclave-mpc; conclave-net only copies",
    },
    Workload {
        name: "scan_tcp",
        why: "the same plan, data, rounds and bytes on localhost TCP: the gap to scan_channel is the TCP byte path of conclave-net",
    },
    Workload {
        name: "relational_channel",
        why: "credit query under mpc_only: 27717 one-comparator rounds with tiny frames, so round count and round latency dominate, not bytes",
    },
    Workload {
        name: "credit_hybrid",
        why: "credit query with the regulator as STP: hybrid_exec and the in-process Protocol/oblivious stack do the work, the mesh almost none",
    },
    Workload {
        name: "market_pushdown",
        why: "HHI with library defaults: push-down leaves the cleartext engines most of the work and MPC a 36-row tail (paper Figure 4)",
    },
    Workload {
        name: "serve_small",
        why: "conclave-server, 4 tenants, 2 closed-loop clients, tiny queries, 1 rebind in 16 operations: admission, plan cache, pool and the persistent mesh",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// The bounds are set from the spread of ten runs of identical code on the
/// sandbox this was written on (README, "Steadiness"): a bound is at least
/// three times the widest spread seen for its metric on any workload, and at
/// most the 0.25 the contract allows.
pub const END_TO_END: [Metric; 6] = [
    e2e("query_ms_p50", "ms", "lower", 0.25),
    e2e("query_ms_tail", "ms", "lower", 0.25),
    e2e("qps", "1/s", "higher", 0.25),
    e2e("rows_per_s", "rows/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const PER_LAYER: [Metric; 75] = [
    // The traced pass as a whole.
    layer("trace.valid", "count", "higher"),
    layer("trace.overhead", "ratio", "lower"),
    // conclave-sql
    layer("sql.parse_lower_us", "us", "lower"),
    // conclave-core: passes
    layer("core.compile_us", "us", "lower"),
    layer("core.plan_local_nodes", "count", "higher"),
    layer("core.plan_mpc_nodes", "count", "lower"),
    layer("core.plan_hybrid_nodes", "count", "higher"),
    // conclave-core: driver and party_exec
    layer("core.mesh_build_ms.channel", "ms", "lower"),
    layer("core.mesh_build_ms.tcp", "ms", "lower"),
    layer("core.driver_residual_ms", "ms", "lower"),
    // conclave-core: hybrid_exec
    layer("hybrid.join_ms", "ms", "lower"),
    layer("hybrid.aggregate_ms", "ms", "lower"),
    // conclave-engine and conclave-parallel
    layer("engine.local_ms", "ms", "lower"),
    layer("engine.rows_per_s", "rows/s", "higher"),
    layer("engine.conversions", "count", "lower"),
    // conclave-mpc: party runtime, slowest party
    layer("mpc.share_input_ms", "ms", "lower"),
    layer("mpc.compute_ms", "ms", "lower"),
    layer("mpc.reveal_ms", "ms", "lower"),
    layer("mpc.mac_check_ms", "ms", "lower"),
    layer("mpc.party_skew", "ratio", "lower"),
    layer("mpc.op.filter_ms", "ms", "lower"),
    layer("mpc.op.filter_rounds", "count", "lower"),
    layer("mpc.op.multiply_ms", "ms", "lower"),
    layer("mpc.op.multiply_rounds", "count", "lower"),
    layer("mpc.op.aggregate_ms", "ms", "lower"),
    layer("mpc.op.aggregate_rounds", "count", "lower"),
    layer("mpc.op.join_ms", "ms", "lower"),
    layer("mpc.op.join_rounds", "count", "lower"),
    layer("mpc.op.sort_ms", "ms", "lower"),
    layer("mpc.op.sort_rounds", "count", "lower"),
    // conclave-mpc: primitives on a 3-party channel mesh
    layer("mpc.lt_batch_us_per_pair", "us", "lower"),
    layer("mpc.eq_batch_us_per_pair", "us", "lower"),
    layer("mpc.mul_batch_us_per_pair", "us", "lower"),
    layer("mpc.lt_single_us", "us", "lower"),
    layer("mpc.input_us_per_elem", "us", "lower"),
    layer("mpc.open_us_per_elem", "us", "lower"),
    // conclave-mpc: primitive counts of one query
    layer("mpc.mults", "count", "lower"),
    layer("mpc.comparisons", "count", "lower"),
    layer("mpc.equalities", "count", "lower"),
    layer("mpc.bit_ands", "count", "lower"),
    layer("mpc.circuit_rounds", "count", "lower"),
    layer("mpc.shuffled_elems", "count", "lower"),
    layer("mpc.input_elems", "count", "lower"),
    layer("mpc.opened_elems", "count", "lower"),
    layer("mpc.mac_checks", "count", "lower"),
    // conclave-mpc: in-process oblivious operators
    layer("oblivious.shuffle_ms", "ms", "lower"),
    layer("oblivious.sort_ms", "ms", "lower"),
    layer("oblivious.select_ms", "ms", "lower"),
    layer("oblivious.aggregate_ms", "ms", "lower"),
    // conclave-mpc: dealer
    layer("dealer.deal_ms", "ms", "lower"),
    layer("dealer.bundle_bytes", "B", "lower"),
    layer("dealer.take_wait_us_p50", "us", "lower"),
    layer("dealer.take_wait_us_p99", "us", "lower"),
    layer("dealer.starved_share", "ratio", "lower"),
    layer("dealer.leftover", "count", "lower"),
    // conclave-net: one query, exact
    layer("net.rounds", "count", "lower"),
    layer("net.wire_bytes", "B", "lower"),
    layer("net.messages", "count", "lower"),
    layer("net.mesh_builds", "count", "lower"),
    // conclave-net: probes on a 3-endpoint mesh
    layer("net.channel.round_us", "us", "lower"),
    layer("net.tcp.round_us", "us", "lower"),
    layer("net.channel.mb_per_s", "MB/s", "higher"),
    layer("net.tcp.mb_per_s", "MB/s", "higher"),
    layer("net.tcp.mesh_connect_ms", "ms", "lower"),
    // conclave-server
    layer("server.query_ms_p95", "ms", "lower"),
    layer("server.query_ms_p99", "ms", "lower"),
    layer("server.bind_ms_p50", "ms", "lower"),
    layer("server.cache_hit_share", "ratio", "higher"),
    layer("server.admission_queued", "count", "lower"),
    layer("server.rejected", "count", "lower"),
    layer("server.overhead_us", "us", "lower"),
    layer("server.latency_drift", "ratio", "lower"),
    layer("server.rss_kb_per_op", "kB", "lower"),
    // The steady-state guard of the untraced window inside the traced run.
    layer("guard.warmup_ratio", "ratio", "lower"),
    layer("guard.halves_gap", "ratio", "lower"),
];

/// Per-layer counts the program makes itself: they repeat exactly from run to
/// run (and from seed to seed where the plan does not depend on the data), so
/// `compare` holds them to equality instead of a bound.
pub const EXACT: [&str; 16] = [
    "core.plan_local_nodes",
    "core.plan_mpc_nodes",
    "core.plan_hybrid_nodes",
    "net.rounds",
    "net.wire_bytes",
    "net.messages",
    "net.mesh_builds",
    "mpc.mults",
    "mpc.comparisons",
    "mpc.equalities",
    "mpc.bit_ands",
    "mpc.circuit_rounds",
    "mpc.shuffled_elems",
    "mpc.input_elems",
    "mpc.opened_elems",
    "mpc.mac_checks",
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A name the contract accepts: starts with a letter or digit, then letters,
/// digits, `_`, `.` and `-`, at most 64 characters.
pub fn name_is_valid(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metric_json(m: &Metric) -> Json {
    let mut pairs = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better)),
    ];
    if let Some(bound) = m.bound {
        pairs.push(("bound", Json::Num(bound)));
    }
    Json::obj(pairs)
}

/// `BENCHMARK.json`, exactly as the registry defines it.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "conclave_bench/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("conclave_bench")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

/// Every way `benchmark_json` differs from the registry; empty when they
/// agree.
pub fn check(benchmark_json: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let want = manifest();
    for (key, want_value) in want.as_obj().expect("manifest is an object") {
        match benchmark_json.get(key) {
            None => problems.push(format!("`{key}` is missing")),
            Some(have) if have != want_value => {
                let (have_items, want_items) = (have.as_arr(), want_value.as_arr());
                match (have_items, want_items) {
                    (Some(have_items), Some(want_items)) if key != "command" && key != "paths" => {
                        for w in want_items {
                            let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
                            match have_items.iter().find(|h| h.get("name") == w.get("name")) {
                                None => problems.push(format!("{key}: `{name}` is missing")),
                                Some(h) if h != w => problems.push(format!(
                                    "{key}: `{name}` is {} but the harness has {}",
                                    h.compact(),
                                    w.compact()
                                )),
                                Some(_) => {}
                            }
                        }
                        for h in have_items {
                            if !want_items.iter().any(|w| w.get("name") == h.get("name")) {
                                problems.push(format!(
                                    "{key}: `{}` is not in the harness",
                                    h.get("name").map(Json::compact).unwrap_or_default()
                                ));
                            }
                        }
                        if problems.is_empty() {
                            problems.push(format!("{key}: entries are in a different order"));
                        }
                    }
                    _ => problems.push(format!(
                        "`{key}` is {} but the harness has {}",
                        have.compact(),
                        want_value.compact()
                    )),
                }
            }
            Some(_) => {}
        }
    }
    for (key, _) in benchmark_json.as_obj().unwrap_or_default() {
        if want.get(key).is_none() {
            problems.push(format!("unknown key `{key}`"));
        }
    }
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        if !name_is_valid(name) {
            problems.push(format!("`{name}` is not a valid name"));
        }
        if !seen.insert(name) {
            problems.push(format!("`{name}` is used twice"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_manifest_agrees_with_itself_and_stays_within_the_contract() {
        let manifest = manifest();
        assert!(check(&manifest).is_empty(), "{:?}", check(&manifest));
        assert!(manifest.pretty().len() < 64 * 1024);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for m in END_TO_END.iter() {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        for w in WORKLOADS.iter() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                m.unit.len() <= 16 && matches!(m.better, "lower" | "higher"),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn check_reports_drift_by_name() {
        let mut doc = manifest();
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        let Json::Arr(metrics) = &mut pairs.iter_mut().find(|(k, _)| k == "end_to_end").unwrap().1
        else {
            unreachable!()
        };
        let Json::Obj(first) = &mut metrics[0] else {
            unreachable!()
        };
        first.iter_mut().find(|(k, _)| k == "bound").unwrap().1 = Json::Num(0.5);
        metrics.pop();
        pairs.push(("claim".into(), Json::Null));
        let problems = check(&doc).join("\n");
        assert!(problems.contains("`query_ms_p50` is"), "{problems}");
        assert!(problems.contains("`peak_rss_mb` is missing"), "{problems}");
        assert!(problems.contains("unknown key `claim`"), "{problems}");
    }

    #[test]
    fn names_are_restricted_to_the_contract_alphabet() {
        assert!(name_is_valid("net.tcp.round_us"));
        assert!(name_is_valid("9lives-x"));
        assert!(!name_is_valid("_hidden"));
        assert!(!name_is_valid("qps/s"));
        assert!(!name_is_valid(""));
        assert!(!name_is_valid(&"x".repeat(65)));
    }
}
