//! The five one-shot workloads: query text, data sizes, configuration and the
//! cleartext reference each result is checked against.
//!
//! The harness owns these definitions on purpose (it does not import
//! `bench::queries`), so an edit elsewhere in the repository cannot silently
//! change what a workload measures. `serve_small` lives in [`crate::serve`].

use conclave_core::config::{ConclaveConfig, PartyRuntime};
use conclave_core::plan::{compile, PhysicalPlan};
use conclave_data::{CreditGenerator, TaxiGenerator};
use conclave_engine::{Relation, Table};
use conclave_ir::builder::{Query, QueryBuilder};
use conclave_ir::ops::{AggFunc, Operand};
use conclave_ir::party::{Party, PartyId};
use conclave_ir::schema::{ColumnDef, Schema};
use conclave_ir::trust::TrustSet;
use conclave_ir::types::DataType;

/// Rows per party of the two scan workloads.
pub const SCAN_ROWS: usize = 10_000;
/// Regulator population of `relational_channel` (100 + 60 + 60 rows).
pub const RELATIONAL_POPULATION: usize = 100;
/// Regulator population of `credit_hybrid`.
pub const CREDIT_POPULATION: usize = 50_000;
/// Trips per party of `market_pushdown`.
pub const MARKET_TRIPS: usize = 300_000;

/// filter → multiply → scalar SUM over the concatenation of two parties'
/// sales; the derived table is how the dialect spells SUM over a product.
pub const SCAN_SQL: &str = "
    CREATE TABLE sales_a (region INT, amount INT) WITH OWNER p1;
    CREATE TABLE sales_b (region INT, amount INT) WITH OWNER p2;
    SELECT SUM(weighted) AS total
    FROM (SELECT region, amount, amount * 3 AS weighted
          FROM (sales_a UNION ALL sales_b)
          WHERE amount > 0)
    REVEAL TO p1;";

/// Market concentration (HHI numerator), the paper's Listing 2.
pub const MARKET_SQL: &str = "
    CREATE TABLE inputA (companyID INT, price INT, airport INT) WITH OWNER p1;
    CREATE TABLE inputB (companyID INT, price INT, airport INT) WITH OWNER p2;
    CREATE TABLE inputC (companyID INT, price INT, airport INT) WITH OWNER p3;
    SELECT SUM(rev_sq) AS hhi_numerator
    FROM (SELECT companyID, local_rev, local_rev * local_rev AS rev_sq
          FROM (SELECT companyID, SUM(price) AS local_rev
                FROM (SELECT companyID, price
                      FROM (inputA UNION ALL inputB UNION ALL inputC)
                      WHERE price > 0)
                GROUP BY companyID))
    REVEAL TO p1;";

/// SplitMix64: the harness's own generator for the scan tables, so that the
/// same `--seed` gives the same rows on every toolchain.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

/// What a result is compared with. Every reference is computed from the
/// generated tables alone, independently of the system under test.
pub enum Reference {
    /// One row, one integer cell.
    ScalarInt(i64),
    /// One row whose single cell, divided by `denominator`, must equal `hhi`.
    Hhi { hhi: f64, denominator: f64 },
    /// One row per zip with an `avg_score` column.
    AverageByZip(Vec<(i64, f64)>),
}

impl Reference {
    /// Whether `out` is the expected answer.
    pub fn matches(&self, out: &Relation) -> bool {
        match self {
            Reference::ScalarInt(want) => {
                out.num_rows() == 1
                    && out.rows[0].len() == 1
                    && out.rows[0][0].as_int() == Some(*want)
            }
            Reference::Hhi { hhi, denominator } => {
                out.num_rows() == 1
                    && out.rows[0][0]
                        .as_float()
                        .is_some_and(|sum_sq| (sum_sq / denominator - hhi).abs() < 1e-9)
            }
            Reference::AverageByZip(want) => {
                let (Some(zip), Some(avg)) = (out.col_index("zip"), out.col_index("avg_score"))
                else {
                    return false;
                };
                out.num_rows() == want.len()
                    && out.rows.iter().all(|row| {
                        let (Some(z), Some(a)) = (row[zip].as_int(), row[avg].as_float()) else {
                            return false;
                        };
                        want.binary_search_by_key(&z, |(wz, _)| *wz)
                            .is_ok_and(|i| (want[i].1 - a).abs() < 1e-6)
                    })
            }
        }
    }
}

/// A one-shot workload after set-up: everything `Session::run_plan` needs.
pub struct OneShot {
    pub config: ConclaveConfig,
    /// The SQL text, when the workload is written in SQL.
    pub sql: Option<&'static str>,
    pub query: Query,
    pub plan: PhysicalPlan,
    pub inputs: Vec<(&'static str, Table)>,
    /// Total rows over all inputs: the "rows" of `rows_per_s`.
    pub input_rows: u64,
    pub recipient: PartyId,
}

fn scan_table(rng: &mut SplitMix, rows: usize) -> Relation {
    let data: Vec<Vec<i64>> = (0..rows)
        .map(|_| vec![rng.range(0, 7), rng.range(-100, 900)])
        .collect();
    Relation::from_ints(&["region", "amount"], &data)
}

fn credit_query(with_trust: bool) -> Query {
    let regulator = Party::new(1, "mpc.ftc.gov");
    let ssn_trust = if with_trust {
        TrustSet::of([1])
    } else {
        TrustSet::private()
    };
    let demo = Schema::new(vec![
        ColumnDef::new("ssn", DataType::Int),
        ColumnDef::with_trust("zip", DataType::Int, TrustSet::of([1])),
    ]);
    let bank = Schema::new(vec![
        ColumnDef::with_trust("ssn", DataType::Int, ssn_trust),
        ColumnDef::new("score", DataType::Int),
    ]);
    let mut q = QueryBuilder::new();
    let demographics = q.input("demographics", demo, regulator.clone());
    let s1 = q.input("scores1", bank.clone(), Party::new(2, "mpc.a.com"));
    let s2 = q.input("scores2", bank, Party::new(3, "mpc.b.cash"));
    let scores = q.concat(&[s1, s2]);
    let joined = q.join(demographics, scores, &["ssn"], &["ssn"]);
    let by_zip = q.count(joined, "count", &["zip"]);
    let total = q.aggregate(joined, "total", AggFunc::Sum, &["zip"], "score");
    let avg = q.join(total, by_zip, &["zip"], &["zip"]);
    let avg = q.divide(
        avg,
        "avg_score",
        Operand::col("total"),
        Operand::col("count"),
    );
    q.collect(avg, &[regulator]);
    q.build().expect("credit query is well formed")
}

fn int_cell(rel: &Relation, row: usize, col: usize) -> i64 {
    rel.rows[row][col]
        .as_int()
        .expect("generated data is integer-typed")
}

/// Generates the workload's tables from `seed` and compiles its query. `scale` divides every data size (1 = the published
/// sizes; the `--quick` smoke uses 20).
pub fn setup(name: &str, seed: u64, scale: usize) -> OneShot {
    let channel = |c: ConclaveConfig| c.with_party_runtime(PartyRuntime::Channel);
    let (config, sql, query, inputs): (_, _, _, Vec<(&'static str, Relation)>) = match name {
        "scan_channel" | "scan_tcp" => {
            let runtime = if name == "scan_tcp" {
                PartyRuntime::Tcp
            } else {
                PartyRuntime::Channel
            };
            let config = ConclaveConfig::mpc_only()
                .with_sequential_local()
                .with_party_runtime(runtime);
            let mut rng = SplitMix(seed);
            let a = scan_table(&mut rng, SCAN_ROWS / scale);
            let b = scan_table(&mut rng, SCAN_ROWS / scale);
            let query = conclave_sql::compile_sql(SCAN_SQL).expect("scan SQL compiles");
            (
                config,
                Some(SCAN_SQL),
                query,
                vec![("sales_a", a), ("sales_b", b)],
            )
        }
        "relational_channel" | "credit_hybrid" => {
            let hybrid = name == "credit_hybrid";
            let (config, population) = if hybrid {
                (channel(ConclaveConfig::standard()), CREDIT_POPULATION)
            } else {
                (channel(ConclaveConfig::mpc_only()), RELATIONAL_POPULATION)
            };
            let population = population / scale;
            let mut gen = CreditGenerator::new(seed);
            let demo = gen.demographics(population);
            let s1 = gen.agency_scores(population);
            let s2 = gen.agency_scores(population);
            (
                config,
                None,
                credit_query(hybrid),
                vec![("demographics", demo), ("scores1", s1), ("scores2", s2)],
            )
        }
        "market_pushdown" => {
            let mut gen = TaxiGenerator::new(seed);
            let parts: Vec<Relation> = (0..3)
                .map(|_| gen.party_trips(MARKET_TRIPS / scale))
                .collect();
            let query = conclave_sql::compile_sql(MARKET_SQL).expect("market SQL compiles");
            let mut parts = parts.into_iter();
            let inputs = ["inputA", "inputB", "inputC"]
                .map(|n| (n, parts.next().expect("three parties")))
                .to_vec();
            (
                channel(ConclaveConfig::standard()),
                Some(MARKET_SQL),
                query,
                inputs,
            )
        }
        other => panic!("`{other}` is not a one-shot workload"),
    };
    let plan = compile(&query, &config).expect("workload query compiles");
    let input_rows = inputs.iter().map(|(_, r)| r.num_rows() as u64).sum();
    OneShot {
        config,
        sql,
        query,
        plan,
        inputs: inputs
            .into_iter()
            .map(|(n, r)| (n, Table::from_rows(r)))
            .collect(),
        input_rows,
        recipient: 1,
    }
}

/// The cleartext reference for a workload's answer, computed from the
/// generated tables alone (outside the timed set-up: it is the benchmark's
/// check, not the system's work).
pub fn reference(name: &str, w: &OneShot) -> Reference {
    let rels: Vec<Relation> = w.inputs.iter().map(|(_, t)| t.as_rows().clone()).collect();
    let column = |col: usize| {
        rels.iter()
            .flat_map(move |r| (0..r.num_rows()).map(move |i| int_cell(r, i, col)))
    };
    match name {
        "scan_channel" | "scan_tcp" => {
            Reference::ScalarInt(column(1).filter(|a| *a > 0).map(|a| a * 3).sum())
        }
        "relational_channel" | "credit_hybrid" => Reference::AverageByZip(
            CreditGenerator::reference_average_by_zip(&rels[0], &rels[1..]),
        ),
        "market_pushdown" => {
            let revenue = column(1).sum::<i64>() as f64;
            Reference::Hhi {
                hhi: TaxiGenerator::reference_hhi(&rels),
                denominator: revenue * revenue,
            }
        }
        other => panic!("`{other}` is not a one-shot workload"),
    }
}
