//! The [`Session`] facade: the one-stop entry point for compiling and
//! driving a Conclave query.
//!
//! A session owns a [`ConclaveConfig`] and a set of named input bindings
//! ([`Table`]s), and `run` compiles the query and executes it in one call:
//!
//! ```text
//! Session::new(config).bind("inputA", table).run(&query)
//! ```
//!
//! Bindings accept anything convertible into a [`Table`] — a row-major
//! [`conclave_engine::Relation`], a [`conclave_engine::ColumnarRelation`], or
//! a `Table` built elsewhere. Binding column-backed tables to a columnar-mode
//! session means the whole driven query runs without row↔columnar conversion
//! until the reveal/collect boundary.

use crate::config::ConclaveConfig;
use crate::driver::{Driver, DriverError};
use crate::passes::leakage::LeakageReport;
use crate::plan::{compile, CompileError, PhysicalPlan};
use crate::report::RunReport;
use conclave_engine::Table;
use conclave_ir::builder::Query;
use conclave_sql::SqlError;
use std::collections::HashMap;
use std::fmt;

/// Errors raised by [`Session::run`] and [`Session::run_sql`]: SQL frontend,
/// compilation or execution failures, with the underlying cause preserved in
/// [`std::error::Error::source`].
#[derive(Debug)]
pub enum SessionError {
    /// The SQL text failed to parse, bind or type-check (the error's
    /// `Display` includes a caret diagnostic into the query text).
    Sql(SqlError),
    /// The query failed to compile under the session's configuration.
    Compile(CompileError),
    /// The compiled plan failed to execute.
    Driver(DriverError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Sql(e) => write!(f, "SQL frontend failed: {e}"),
            SessionError::Compile(e) => write!(f, "compilation failed: {e}"),
            SessionError::Driver(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Sql(e) => Some(e),
            SessionError::Compile(e) => Some(e),
            SessionError::Driver(e) => Some(e),
        }
    }
}

impl From<SqlError> for SessionError {
    fn from(e: SqlError) -> Self {
        SessionError::Sql(e)
    }
}

impl From<CompileError> for SessionError {
    fn from(e: CompileError) -> Self {
        SessionError::Compile(e)
    }
}

impl From<DriverError> for SessionError {
    fn from(e: DriverError) -> Self {
        SessionError::Driver(e)
    }
}

/// Compiles and drives queries over bound input tables.
///
/// # Example
///
/// The credit-scoring query of the paper's running example (Listing 1 shape):
/// a regulator holds demographics, two credit agencies hold score tables, and
/// only the per-zip totals ever leave the MPC boundary.
///
/// ```
/// use conclave_core::session::Session;
/// use conclave_core::config::ConclaveConfig;
/// use conclave_engine::Relation;
/// use conclave_ir::builder::QueryBuilder;
/// use conclave_ir::ops::AggFunc;
/// use conclave_ir::party::Party;
/// use conclave_ir::schema::{ColumnDef, Schema};
/// use conclave_ir::trust::TrustSet;
/// use conclave_ir::types::DataType;
///
/// let regulator = Party::new(1, "gov");
/// let bank_a = Party::new(2, "a");
/// let bank_b = Party::new(3, "b");
/// let demo = Schema::new(vec![
///     ColumnDef::new("ssn", DataType::Int),
///     ColumnDef::with_trust("zip", DataType::Int, TrustSet::of([1])),
/// ]);
/// let bank = Schema::new(vec![
///     ColumnDef::with_trust("ssn", DataType::Int, TrustSet::of([1])),
///     ColumnDef::new("score", DataType::Int),
/// ]);
/// let mut q = QueryBuilder::new();
/// let demographics = q.input("demographics", demo, regulator.clone());
/// let s1 = q.input("scores1", bank.clone(), bank_a);
/// let s2 = q.input("scores2", bank, bank_b);
/// let scores = q.concat(&[s1, s2]);
/// let joined = q.join(demographics, scores, &["ssn"], &["ssn"]);
/// let total = q.aggregate(joined, "total", AggFunc::Sum, &["zip"], "score");
/// q.collect(total, &[regulator]);
/// let query = q.build().unwrap();
///
/// let report = Session::new(ConclaveConfig::standard().with_sequential_local())
///     .bind(
///         "demographics",
///         Relation::from_ints(&["ssn", "zip"], &[vec![1, 10], vec![2, 20], vec![3, 10]]),
///     )
///     .bind(
///         "scores1",
///         Relation::from_ints(&["ssn", "score"], &[vec![1, 700], vec![3, 650]]),
///     )
///     .bind(
///         "scores2",
///         Relation::from_ints(&["ssn", "score"], &[vec![2, 600]]),
///     )
///     .run(&query)
///     .unwrap();
/// let out = report.output_for(1).expect("the regulator receives the result");
/// // zip 10: 700 + 650; zip 20: 600.
/// let expected = Relation::from_ints(&["zip", "total"], &[vec![10, 1350], vec![20, 600]]);
/// assert!(out.same_rows_unordered(&expected));
/// ```
#[derive(Debug, Default)]
pub struct Session {
    config: ConclaveConfig,
    bindings: HashMap<String, Table>,
}

impl Session {
    /// Creates a session with the given configuration and no bindings.
    pub fn new(config: ConclaveConfig) -> Self {
        Session {
            config,
            bindings: HashMap::new(),
        }
    }

    /// Binds a named input relation to data. Accepts a [`Table`] or anything
    /// convertible into one ([`conclave_engine::Relation`],
    /// [`conclave_engine::ColumnarRelation`]).
    ///
    /// Binding a name that is already bound **replaces** the previous data
    /// (last bind wins) — rebinding is the supported way to refresh an input
    /// between runs, never an error or a silent no-op.
    pub fn bind(mut self, name: impl Into<String>, table: impl Into<Table>) -> Self {
        self.bindings.insert(name.into(), table.into());
        self
    }

    /// The session's configuration.
    pub fn config(&self) -> &ConclaveConfig {
        &self.config
    }

    /// The current input bindings.
    pub fn bindings(&self) -> &HashMap<String, Table> {
        &self.bindings
    }

    /// Compiles the query under the session's configuration.
    pub fn compile(&self, query: &Query) -> Result<PhysicalPlan, SessionError> {
        compile(query, &self.config).map_err(SessionError::from)
    }

    /// Compiles and executes the query over the bound inputs.
    pub fn run(&self, query: &Query) -> Result<RunReport, SessionError> {
        let plan = self.compile(query)?;
        self.run_plan(&plan)
    }

    /// Compiles the query and returns its statically certified per-party
    /// leakage report without executing anything — the programmatic form of
    /// SQL `EXPLAIN LEAKAGE`.
    ///
    /// Fails with [`SessionError::Compile`] (carrying
    /// [`CompileError::Leakage`]) if the linter proves the plan would
    /// disclose a column to a party outside its trust set.
    pub fn explain_leakage(&self, query: &Query) -> Result<LeakageReport, SessionError> {
        Ok(self.compile(query)?.leakage)
    }

    /// Parses and compiles a SQL script and returns the plan's statically
    /// certified leakage report without executing it (the script does not
    /// need an `EXPLAIN LEAKAGE` prefix; `run_sql` handles scripts that
    /// carry one).
    pub fn explain_leakage_sql(&self, sql: &str) -> Result<LeakageReport, SessionError> {
        let query = self.sql_query(sql)?;
        self.explain_leakage(&query)
    }

    /// Compiles and executes a SQL script over the bound inputs.
    ///
    /// The script's `CREATE TABLE … WITH OWNER` declarations name the input
    /// relations (the same names passed to [`Session::bind`]), carry the
    /// per-column `PUBLIC` / `TRUSTED BY` annotations, and the query's
    /// `REVEAL TO` clause names the output recipients. The SQL lowers to the
    /// same operator DAG the [`conclave_ir::builder::QueryBuilder`] would
    /// build, then flows through the full pass pipeline and whichever runtime
    /// the session is configured for. Declared schemas are checked against
    /// the bound tables (column names and types must match).
    ///
    /// # Example
    ///
    /// The credit-scoring query of the paper's running example, in SQL:
    ///
    /// ```
    /// use conclave_core::config::ConclaveConfig;
    /// use conclave_core::session::Session;
    /// use conclave_engine::Relation;
    ///
    /// let report = Session::new(ConclaveConfig::standard().with_sequential_local())
    ///     .bind(
    ///         "demographics",
    ///         Relation::from_ints(&["ssn", "zip"], &[vec![1, 10], vec![2, 20], vec![3, 10]]),
    ///     )
    ///     .bind(
    ///         "scores1",
    ///         Relation::from_ints(&["ssn", "score"], &[vec![1, 700], vec![3, 650]]),
    ///     )
    ///     .bind(
    ///         "scores2",
    ///         Relation::from_ints(&["ssn", "score"], &[vec![2, 600]]),
    ///     )
    ///     .run_sql(
    ///         "CREATE TABLE demographics (ssn INT, zip INT TRUSTED BY (p1)) WITH OWNER p1;
    ///          CREATE TABLE scores1 (ssn INT TRUSTED BY (p1), score INT) WITH OWNER p2;
    ///          CREATE TABLE scores2 (ssn INT TRUSTED BY (p1), score INT) WITH OWNER p3;
    ///          SELECT zip, SUM(score) AS total
    ///          FROM demographics JOIN (scores1 UNION ALL scores2) ON ssn = ssn
    ///          GROUP BY zip
    ///          REVEAL TO p1;",
    ///     )
    ///     .unwrap();
    /// let out = report.output_for(1).expect("the regulator receives the result");
    /// // zip 10: 700 + 650; zip 20: 600.
    /// let expected = Relation::from_ints(&["zip", "total"], &[vec![10, 1350], vec![20, 600]]);
    /// assert!(out.same_rows_unordered(&expected));
    /// ```
    pub fn run_sql(&self, sql: &str) -> Result<RunReport, SessionError> {
        self.run_sql_with(sql, |plan| self.run_plan(plan))
    }

    /// The one body of `run_sql`, here and on [`PersistentSession`]: parse,
    /// check against the bindings, lower and compile `sql`, then hand the
    /// plan to `run_plan` — which is all the two differ in.
    fn run_sql_with(
        &self,
        sql: &str,
        run_plan: impl FnOnce(&PhysicalPlan) -> Result<RunReport, SessionError>,
    ) -> Result<RunReport, SessionError> {
        let script = self.parse_and_check(sql)?;
        let query = conclave_sql::lower_script(&script).map_err(|e| located(e, sql))?;
        let plan = self.compile(&query)?;
        if script.explain_leakage {
            // `EXPLAIN LEAKAGE`: compiling ran the leakage linter; return
            // the statically certified report without executing.
            return Ok(RunReport {
                static_leakage: Some(plan.leakage),
                ..RunReport::default()
            });
        }
        run_plan(&plan)
    }

    /// Parses, binds and lowers a SQL script to an IR [`Query`] without
    /// executing it, checking each declared table against the session's
    /// bound data (names and types) along the way.
    pub fn sql_query(&self, sql: &str) -> Result<Query, SessionError> {
        let script = self.parse_and_check(sql)?;
        conclave_sql::lower_script(&script).map_err(|e| located(e, sql))
    }

    /// Parses a SQL script and cross-checks each declared table against the
    /// session's bound data (column names and types must match).
    fn parse_and_check(&self, sql: &str) -> Result<conclave_sql::Script, SessionError> {
        let script = conclave_sql::parse_script(sql).map_err(|e| located(e, sql))?;
        for decl in &script.tables {
            let Some(bound) = self.bindings.get(&decl.name) else {
                continue;
            };
            let declared = conclave_sql::declared_schema(decl).map_err(|e| located(e, sql))?;
            let actual = bound.schema();
            if declared.names() != actual.names() {
                return Err(located(
                    SqlError::at(
                        decl.span,
                        format!(
                            "declared columns {:?} of table `{}` do not match the bound data's columns {:?}",
                            declared.names(),
                            decl.name,
                            actual.names()
                        ),
                    ),
                    sql,
                ));
            }
            for (d, a) in declared.columns.iter().zip(&actual.columns) {
                if d.dtype != a.dtype {
                    return Err(located(
                        SqlError::at(
                            decl.span,
                            format!(
                                "column `{}` of table `{}` is declared {} but the bound data is {}",
                                d.name, decl.name, d.dtype, a.dtype
                            ),
                        ),
                        sql,
                    ));
                }
            }
        }
        Ok(script)
    }

    /// Executes an already-compiled plan over the bound inputs, on a
    /// [`Driver`] — and so, in a distributed mode, a party mesh — of its own
    /// that is dropped when the call returns.
    pub fn run_plan(&self, plan: &PhysicalPlan) -> Result<RunReport, SessionError> {
        let mut driver = Driver::new(self.config.clone());
        driver
            .run_tables(plan, &self.bindings)
            .map_err(SessionError::from)
    }
}

/// Locates a SQL error against its source so `Display` renders the caret
/// diagnostic, and wraps it for the session.
fn located(e: SqlError, sql: &str) -> SessionError {
    SessionError::Sql(e.located(sql))
}

/// A long-lived session for serving many queries: a [`Session`] plus one
/// [`Driver`] it keeps, so consecutive runs reuse that driver's single party
/// mesh (workers, MAC key, resident dealer sessions — `mesh_builds` stays at
/// 1 across queries). The first query on it runs exactly what a one-shot
/// [`Session`] runs; the mesh simply is not dropped afterwards.
///
/// Unlike [`Session`]'s consuming builder, bindings here are updated in
/// place, because a serving tenant rebinds inputs between queries. The
/// reuse contract is explicit:
///
/// * **Rebinding** a name replaces the previous table (last bind wins).
/// * **A failed run leaves the session in a defined state**: the driver
///   discards its mesh on any error, so the next run starts from a fresh
///   mesh instead of a desynchronized work queue, and bindings are
///   untouched.
pub struct PersistentSession {
    session: Session,
    driver: Driver,
}

impl fmt::Debug for PersistentSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PersistentSession")
            .field("session", &self.session)
            .field("live_mesh", &self.driver.has_live_mesh())
            .finish()
    }
}

impl PersistentSession {
    /// Creates a persistent session with the given configuration and no
    /// bindings. The driver is created eagerly; its mesh is built lazily by
    /// the first run that needs MPC.
    pub fn new(config: ConclaveConfig) -> Self {
        PersistentSession {
            driver: Driver::new(config.clone()),
            session: Session::new(config),
        }
    }

    /// Binds (or rebinds — last bind wins) a named input relation in place.
    pub fn bind(&mut self, name: impl Into<String>, table: impl Into<Table>) -> &mut Self {
        self.session.bindings.insert(name.into(), table.into());
        self
    }

    /// Removes a binding, returning the previously bound table if any.
    pub fn unbind(&mut self, name: &str) -> Option<Table> {
        self.session.bindings.remove(name)
    }

    /// The underlying [`Session`] (configuration, bindings, compile/explain
    /// helpers).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Whether a retained party mesh is currently alive from a prior run.
    pub fn has_live_mesh(&self) -> bool {
        self.driver.has_live_mesh()
    }

    /// Drops the retained party mesh (if any); the next run builds a fresh
    /// one. A failed run does this by itself.
    pub fn reset_mesh(&mut self) {
        self.driver.reset_mesh();
    }

    /// Executes an already-compiled plan over the bound inputs, reusing the
    /// retained mesh. On error the driver has discarded the mesh, so the
    /// next run starts clean.
    pub fn run_plan(&mut self, plan: &PhysicalPlan) -> Result<RunReport, SessionError> {
        self.driver
            .run_tables(plan, &self.session.bindings)
            .map_err(SessionError::from)
    }

    /// Compiles and executes the query over the bound inputs, reusing the
    /// retained mesh.
    pub fn run(&mut self, query: &Query) -> Result<RunReport, SessionError> {
        let plan = self.session.compile(query)?;
        self.run_plan(&plan)
    }

    /// Compiles and executes a SQL script over the bound inputs, reusing the
    /// retained mesh. Semantics match [`Session::run_sql`], including
    /// `EXPLAIN LEAKAGE` scripts (which compile but do not execute).
    pub fn run_sql(&mut self, sql: &str) -> Result<RunReport, SessionError> {
        let PersistentSession { session, driver } = self;
        session.run_sql_with(sql, |plan| {
            driver
                .run_tables(plan, &session.bindings)
                .map_err(SessionError::from)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_engine::{ColumnarRelation, EngineMode, Relation};
    use conclave_ir::builder::QueryBuilder;
    use conclave_ir::ops::AggFunc;
    use conclave_ir::party::Party;
    use conclave_ir::schema::Schema;

    fn two_party_sum_query() -> Query {
        let pa = Party::new(1, "a");
        let pb = Party::new(2, "b");
        let schema = Schema::ints(&["k", "v"]);
        let mut q = QueryBuilder::new();
        let a = q.input("ta", schema.clone(), pa.clone());
        let b = q.input("tb", schema, pb);
        let both = q.concat(&[a, b]);
        let sums = q.aggregate(both, "total", AggFunc::Sum, &["k"], "v");
        q.collect(sums, &[pa]);
        q.build().unwrap()
    }

    #[test]
    fn session_compiles_binds_and_runs() {
        let query = two_party_sum_query();
        let report = Session::new(ConclaveConfig::standard().with_sequential_local())
            .bind("ta", Relation::from_ints(&["k", "v"], &[vec![1, 2]]))
            .bind("tb", Relation::from_ints(&["k", "v"], &[vec![1, 3]]))
            .run(&query)
            .unwrap();
        let out = report.output_for(1).unwrap();
        let expected = Relation::from_ints(&["k", "total"], &[vec![1, 5]]);
        assert!(out.same_rows_unordered(&expected));
    }

    #[test]
    fn session_accepts_columnar_bindings_and_exposes_state() {
        let query = two_party_sum_query();
        let session = Session::new(ConclaveConfig::standard().with_sequential_local())
            .bind(
                "ta",
                ColumnarRelation::from_rows(&Relation::from_ints(&["k", "v"], &[vec![1, 2]])),
            )
            .bind("tb", Relation::from_ints(&["k", "v"], &[vec![2, 3]]));
        assert_eq!(session.config().engine_mode, EngineMode::Columnar);
        assert_eq!(session.bindings().len(), 2);
        assert!(session.bindings()["ta"].has_columns());
        let plan = session.compile(&query).unwrap();
        let report = session.run_plan(&plan).unwrap();
        assert_eq!(report.output_for(1).unwrap().num_rows(), 2);
    }

    const SUM_SQL: &str = "
        CREATE TABLE ta (k INT, v INT) WITH OWNER p1;
        CREATE TABLE tb (k INT, v INT) WITH OWNER p2;
        SELECT k, SUM(v) AS total FROM (ta UNION ALL tb) GROUP BY k REVEAL TO p1;
    ";

    #[test]
    fn run_sql_matches_builder_query() {
        let session = Session::new(ConclaveConfig::standard().with_sequential_local())
            .bind("ta", Relation::from_ints(&["k", "v"], &[vec![1, 2]]))
            .bind("tb", Relation::from_ints(&["k", "v"], &[vec![1, 3]]));
        let sql_report = session.run_sql(SUM_SQL).unwrap();
        let builder_report = session.run(&two_party_sum_query()).unwrap();
        let sql_out = sql_report.output_for(1).unwrap();
        let builder_out = builder_report.output_for(1).unwrap();
        assert!(sql_out.same_rows_unordered(builder_out));
    }

    #[test]
    fn run_sql_rejects_mismatched_bindings() {
        // Wrong column names.
        let err = Session::new(ConclaveConfig::standard().with_sequential_local())
            .bind("ta", Relation::from_ints(&["k", "w"], &[vec![1, 2]]))
            .bind("tb", Relation::from_ints(&["k", "v"], &[vec![1, 3]]))
            .run_sql(SUM_SQL)
            .unwrap_err();
        assert!(matches!(err, SessionError::Sql(_)));
        assert!(err.to_string().contains("do not match"));
        // Wrong column type.
        let sql = "CREATE TABLE ta (k INT, v TEXT) WITH OWNER p1;
                   SELECT k FROM ta REVEAL TO p1;";
        let err = Session::new(ConclaveConfig::standard().with_sequential_local())
            .bind("ta", Relation::from_ints(&["k", "v"], &[vec![1, 2]]))
            .run_sql(sql)
            .unwrap_err();
        assert!(err.to_string().contains("declared STR"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn explain_leakage_sql_reports_without_executing() {
        // No bindings at all: EXPLAIN LEAKAGE must not touch input data.
        let session = Session::new(ConclaveConfig::standard().with_sequential_local());
        let sql = "
            CREATE TABLE ta (k INT, v INT) WITH OWNER p1;
            CREATE TABLE tb (k INT, v INT) WITH OWNER p2;
            EXPLAIN LEAKAGE
            SELECT k, SUM(v) AS total FROM (ta UNION ALL tb) GROUP BY k REVEAL TO p1;
        ";
        let report = session.run_sql(sql).unwrap();
        assert!(report.outputs.is_empty());
        assert!(report.leakage.is_empty());
        let static_report = report.static_leakage.expect("explain attaches the report");
        assert!(!static_report.for_party(1).is_empty());
        assert!(static_report.render().contains("query-output"));
        // The programmatic form returns the same report.
        let direct = session.explain_leakage_sql(sql).unwrap();
        assert_eq!(direct, static_report);
    }

    #[test]
    fn run_sql_parse_errors_carry_caret_diagnostics() {
        let err = Session::new(ConclaveConfig::standard().with_sequential_local())
            .run_sql("SELECT FROM t REVEAL TO p1")
            .unwrap_err();
        let shown = err.to_string();
        assert!(shown.contains("line 1"));
        assert!(shown.contains('^'));
    }

    #[test]
    fn rebinding_a_name_replaces_the_previous_table() {
        let query = two_party_sum_query();
        // The stale `ta` (v = 100) is replaced wholesale by the rebind.
        let report = Session::new(ConclaveConfig::standard().with_sequential_local())
            .bind("ta", Relation::from_ints(&["k", "v"], &[vec![1, 100]]))
            .bind("tb", Relation::from_ints(&["k", "v"], &[vec![1, 3]]))
            .bind("ta", Relation::from_ints(&["k", "v"], &[vec![1, 2]]))
            .run(&query)
            .unwrap();
        let expected = Relation::from_ints(&["k", "total"], &[vec![1, 5]]);
        assert!(report.output_for(1).unwrap().same_rows_unordered(&expected));
    }

    #[test]
    fn persistent_session_recovers_after_a_failed_run() {
        let query = two_party_sum_query();
        let mut sess = PersistentSession::new(ConclaveConfig::standard().with_sequential_local());
        sess.bind("ta", Relation::from_ints(&["k", "v"], &[vec![1, 2]]));
        // `tb` is unbound: the run fails but leaves a defined state.
        let err = sess.run(&query).unwrap_err();
        assert!(matches!(err, SessionError::Driver(_)));
        assert!(!sess.has_live_mesh());
        assert_eq!(sess.session().bindings().len(), 1, "bindings survive");
        // Bind the missing input (and rebind `ta`) and the same session runs.
        sess.bind("ta", Relation::from_ints(&["k", "v"], &[vec![1, 7]]));
        sess.bind("tb", Relation::from_ints(&["k", "v"], &[vec![1, 3]]));
        let report = sess.run(&query).unwrap();
        let expected = Relation::from_ints(&["k", "total"], &[vec![1, 10]]);
        assert!(report.output_for(1).unwrap().same_rows_unordered(&expected));
        assert!(sess.unbind("tb").is_some());
        assert!(sess.unbind("tb").is_none());
    }

    #[test]
    fn persistent_session_reuses_one_mesh_across_queries() {
        use conclave_mpc::dealer::{MaterialPool, MaterialSpec};
        let spec = MaterialSpec {
            triples: 512,
            bit_triples: 1024,
            shared_bits: 512,
            dabits: 128,
            input_masks: 256,
        };
        // The mesh size follows the backend protocol (3 parties), not the
        // query's owner count.
        let pool = MaterialPool::start(7, 3, spec, 2);
        let mut sess = PersistentSession::new(
            ConclaveConfig::standard()
                .with_sequential_local()
                .with_channel_runtime()
                .with_pooled_dealer(pool),
        );
        sess.bind("ta", Relation::from_ints(&["k", "v"], &[vec![1, 2]]));
        sess.bind("tb", Relation::from_ints(&["k", "v"], &[vec![1, 3]]));
        let mut total_builds = 0;
        for run in 0..3 {
            let report = sess.run_sql(SUM_SQL).unwrap();
            let expected = Relation::from_ints(&["k", "total"], &[vec![1, 5]]);
            assert!(
                report.output_for(1).unwrap().same_rows_unordered(&expected),
                "run {run}"
            );
            assert!(
                report.net.rounds > 0,
                "run {run} went over the channel mesh"
            );
            total_builds += report.mesh_builds();
        }
        assert_eq!(total_builds, 1, "one mesh serves all three queries");
        assert!(sess.has_live_mesh());
        // An error drops the mesh; the next run rebuilds exactly one.
        sess.unbind("tb");
        sess.run_sql(SUM_SQL).unwrap_err();
        assert!(!sess.has_live_mesh());
        sess.bind("tb", Relation::from_ints(&["k", "v"], &[vec![1, 3]]));
        let report = sess.run_sql(SUM_SQL).unwrap();
        assert_eq!(report.mesh_builds(), 1, "fresh mesh after the failure");
        assert!(sess.has_live_mesh());
    }

    /// A one-shot session and a persistent one over the same configuration
    /// and bindings (`config` is called once per session, so each gets its
    /// own dealer pool where one is used).
    fn lifecycle_sessions(config: impl Fn() -> ConclaveConfig) -> (Session, PersistentSession) {
        let ta = Relation::from_ints(&["k", "v"], &[vec![1, 2], vec![2, 5], vec![1, 4]]);
        let tb = Relation::from_ints(&["k", "v"], &[vec![1, 3], vec![3, 9]]);
        let oneshot = Session::new(config())
            .bind("ta", ta.clone())
            .bind("tb", tb.clone());
        let mut kept = PersistentSession::new(config());
        kept.bind("ta", ta).bind("tb", tb);
        (oneshot, kept)
    }

    #[test]
    fn lifecycle_oneshot_run_equals_first_and_second_retained_run() {
        use crate::config::PartyRuntime;
        use conclave_mpc::dealer::{MaterialPool, MaterialSpec};
        let spec = MaterialSpec {
            triples: 512,
            bit_triples: 1024,
            shared_bits: 512,
            dabits: 128,
            input_masks: 256,
        };
        for runtime in [
            PartyRuntime::Simulated,
            PartyRuntime::Channel,
            PartyRuntime::Tcp,
        ] {
            // The in-process runtime crosses no wire and builds no mesh, on
            // every run.
            let (meshes, traffic) = match runtime {
                PartyRuntime::Simulated => (0, false),
                _ => (1, true),
            };
            for pooled in [false, true] {
                let (oneshot, mut kept) = lifecycle_sessions(|| {
                    let config = ConclaveConfig::standard()
                        .with_sequential_local()
                        .with_party_runtime(runtime);
                    match (pooled, runtime) {
                        (false, _) => config,
                        // The server's default, `standard()` plus a pool:
                        // the in-process runtime takes no bundle, so a pool
                        // whose refiller never runs cannot hold it up.
                        (true, PartyRuntime::Simulated) => {
                            config.with_pooled_dealer(MaterialPool::start_paused(7, 3, spec, 2))
                        }
                        (true, _) => config.with_pooled_dealer(MaterialPool::start(7, 3, spec, 2)),
                    }
                });
                let plan = oneshot.compile(&two_party_sum_query()).unwrap();
                let base = oneshot.run_plan(&plan).unwrap();
                assert!(
                    base.mpc_stats.counts.input_elems > 0,
                    "the plan has MPC steps"
                );
                assert_eq!(base.net.total_bytes() > 0, traffic, "{runtime:?}");
                let first = kept.run_plan(&plan).unwrap();
                let second = kept.run_plan(&plan).unwrap();
                assert!(kept.has_live_mesh(), "{runtime:?}: the runtime is retained");
                for (run, report, builds) in [
                    ("one-shot", &base, meshes),
                    ("first retained", &first, meshes),
                    ("second retained", &second, 0),
                ] {
                    let case = format!("{run} run, {runtime:?}, pooled: {pooled}");
                    assert_eq!(report.mesh_builds(), builds, "{case}");
                    assert!(
                        report
                            .output_for(1)
                            .unwrap()
                            .same_rows_unordered(base.output_for(1).unwrap()),
                        "{case}"
                    );
                    assert_eq!(report.mpc_stats.counts, base.mpc_stats.counts, "{case}");
                    assert_eq!(report.net.rounds, base.net.rounds, "{case}");
                    assert_eq!(report.net.total_bytes(), base.net.total_bytes(), "{case}");
                    assert_eq!(
                        report.net.total_messages(),
                        base.net.total_messages(),
                        "{case}"
                    );
                    assert_eq!(report.net.links, base.net.links, "per-link, {case}");
                }
            }
        }
    }

    #[test]
    fn lifecycle_streamed_dealer_blocks_are_counted_on_a_retained_mesh() {
        use crate::party_exec::DEALER_ID;
        let (oneshot, mut kept) = lifecycle_sessions(|| {
            ConclaveConfig::standard()
                .with_sequential_local()
                .with_channel_runtime()
                .with_streamed_dealer()
        });
        let plan = oneshot.compile(&two_party_sum_query()).unwrap();
        let expected = oneshot.run_plan(&plan).unwrap().dealer_net;
        for query in 0..2 {
            let dealer = kept.run_plan(&plan).unwrap().dealer_net;
            let links = &dealer.as_ref().expect("streamed mode measures links").links;
            for p in 0..3 {
                for (what, key) in [("requests", (p, DEALER_ID)), ("blocks", (DEALER_ID, p))] {
                    assert!(
                        links.get(&key).is_some_and(|l| l.bytes > 0),
                        "query {query}: no {what} counted on {key:?}: {links:?}"
                    );
                }
            }
            if query == 0 {
                assert_eq!(dealer, expected, "first retained query vs one-shot");
            }
        }
    }

    #[test]
    fn lifecycle_failed_offline_phase_drops_the_mesh_and_the_next_run_rebuilds_it() {
        let dir =
            std::env::temp_dir().join(format!("conclave-lifecycle-dealer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ConclaveConfig::standard()
            .with_sequential_local()
            .with_channel_runtime()
            .with_dealer_files(&dir);
        let seed = config.mpc.seed;
        let (_, mut kept) = lifecycle_sessions(|| config.clone());
        let query = two_party_sum_query();
        // No dealer files yet: the typed error comes back (no hang) and the
        // poisoned mesh is gone.
        let err = kept.run(&query).unwrap_err();
        assert!(err.to_string().contains("offline phase failed"), "{err}");
        assert!(!kept.has_live_mesh());
        // The same session, once the directory is valid, runs on a new mesh.
        std::fs::create_dir_all(&dir).unwrap();
        conclave_mpc::dealer::write_party_files(&dir, seed, 3, Default::default()).unwrap();
        let report = kept.run(&query);
        std::fs::remove_dir_all(&dir).ok();
        let report = report.unwrap();
        assert_eq!(report.mesh_builds(), 1, "rebuilt, not reused");
        assert!(kept.has_live_mesh());
        let expected = Relation::from_ints(&["k", "total"], &[vec![1, 9], vec![2, 5], vec![3, 9]]);
        assert!(report.output_for(1).unwrap().same_rows_unordered(&expected));
    }

    /// One party's dealer file is missing: the run fails at once with that
    /// party's error (its peers are aborted, not timed out), and once the
    /// file is back the same session runs on a rebuilt mesh.
    #[test]
    fn lifecycle_one_missing_dealer_file_fails_fast_and_the_next_run_rebuilds() {
        use crate::config::PartyRuntime;
        use conclave_mpc::dealer::{party_file, write_party_files};
        for runtime in [PartyRuntime::Channel, PartyRuntime::Tcp] {
            let dir = std::env::temp_dir().join(format!(
                "conclave-lifecycle-one-missing-{}-{runtime:?}",
                std::process::id()
            ));
            let config = ConclaveConfig::standard()
                .with_sequential_local()
                .with_party_runtime(runtime)
                .with_dealer_files(&dir);
            let seed = config.mpc.seed;
            std::fs::create_dir_all(&dir).unwrap();
            write_party_files(&dir, seed, 3, Default::default()).unwrap();
            std::fs::remove_file(party_file(&dir, 1)).unwrap();
            let (_, mut kept) = lifecycle_sessions(|| config.clone());
            let query = two_party_sum_query();
            let started = std::time::Instant::now();
            let err = kept.run(&query).unwrap_err();
            let waited = started.elapsed();
            assert!(
                err.to_string().contains("offline phase failed"),
                "{runtime:?}: {err}"
            );
            assert!(
                waited < std::time::Duration::from_secs(1),
                "{runtime:?}: {waited:?}"
            );
            assert!(!kept.has_live_mesh());
            write_party_files(&dir, seed, 3, Default::default()).unwrap();
            let report = kept.run(&query);
            std::fs::remove_dir_all(&dir).ok();
            let report = report.unwrap();
            assert_eq!(report.mesh_builds(), 1, "{runtime:?}: rebuilt, not reused");
            let expected =
                Relation::from_ints(&["k", "total"], &[vec![1, 9], vec![2, 5], vec![3, 9]]);
            assert!(report.output_for(1).unwrap().same_rows_unordered(&expected));
        }
    }

    #[test]
    fn missing_binding_surfaces_as_driver_error_with_source() {
        let query = two_party_sum_query();
        let err = Session::new(ConclaveConfig::standard().with_sequential_local())
            .bind("ta", Relation::from_ints(&["k", "v"], &[vec![1, 2]]))
            .run(&query)
            .unwrap_err();
        assert!(matches!(err, SessionError::Driver(_)));
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("tb"));
    }
}
