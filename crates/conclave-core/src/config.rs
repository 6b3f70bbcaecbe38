//! Compiler and runtime configuration.

use conclave_engine::EngineMode;
use conclave_mpc::backend::MpcBackendConfig;
use conclave_mpc::dealer::MaterialPool;
use conclave_parallel::ClusterSpec;

/// Which cleartext backend each party uses for local processing (§4.1: Spark
/// if available, sequential Python otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalBackend {
    /// Sequential, interpreter-like processing.
    Sequential,
    /// Data-parallel cluster processing (the Spark stand-in).
    Parallel,
}

/// Which engine runs the one step pipeline of a plan's secret-sharing MPC
/// steps ([`crate::party_exec::PartyMeshRuntime`]: inputs shared where they
/// enter the MPC, results opened only at reveal boundaries). The default
/// [`PartyRuntime::Simulated`] is one in-process **cost simulator** that
/// computes each operator in the clear and charges the primitive counts of
/// the real protocol (modeled time and bytes, no secrecy between parties).
/// The distributed runtimes run the *same* operators on one endpoint **per
/// computing party**, each holding only its own MACed shares and exchanging
/// real messages over a [`conclave_net::Transport`];
/// [`crate::report::RunReport::net`] then carries *measured* bytes and rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartyRuntime {
    /// In-process counting simulator, modeled network costs (default).
    #[default]
    Simulated,
    /// One thread per party over an in-process channel mesh.
    Channel,
    /// One thread per party over localhost TCP sockets.
    Tcp,
}

impl PartyRuntime {
    /// True for the modes that run real per-party protocol endpoints.
    pub fn is_distributed(self) -> bool {
        !matches!(self, PartyRuntime::Simulated)
    }
}

/// Where the distributed party runtime's offline material (SPDZ MAC key
/// shares, authenticated Beaver triples, binary triples, shared bits, daBits)
/// comes from. Only meaningful when [`ConclaveConfig::party_runtime`] is
/// distributed; the simulated engine models no offline phase. The source
/// feeds a party mesh for as long as its [`crate::driver::Driver`] lives:
/// one run under [`crate::session::Session`], every run of a
/// [`crate::session::PersistentSession`].
#[derive(Debug, Clone, Default)]
pub enum DealerMode {
    /// Every party runs the deterministic dealer in-process on the mesh seed
    /// and keeps its own slice (default). No separate offline phase; shares
    /// still carry MACs and every reveal is still checked.
    #[default]
    Seeded,
    /// Load the per-party files the `conclave-dealer` binary wrote to this
    /// directory ([`conclave_mpc::dealer::write_party_files`]): each is what
    /// [`DealerMode::Streamed`] would carry for the same requests, recorded.
    /// Loaded once per mesh: a mesh that serves several queries draws them
    /// all from that one stock, so the files must be sized for all of them.
    File(std::path::PathBuf),
    /// Stream blocks on demand from a dealer endpoint over a dedicated
    /// per-party link ([`conclave_mpc::dealer::serve_party`]); each run's
    /// traffic on those links, requests and blocks, is accounted separately
    /// in its report ([`crate::report::RunReport::dealer_net`]).
    Streamed,
    /// Draw preloaded bundles from a shared, background-refilled
    /// [`MaterialPool`] — the serving-layer mode: the pool amortizes the
    /// offline phase across queries (and tenants). Every query on a mesh,
    /// the first included, takes exactly one bundle, which replaces what
    /// the previous query left unused.
    Pooled(MaterialPool),
}

// Manual impl because `MaterialPool` compares by pool identity (two handles
// are equal iff they share the same underlying pool), which `derive` can't
// express.
impl PartialEq for DealerMode {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (DealerMode::Seeded, DealerMode::Seeded) => true,
            (DealerMode::File(a), DealerMode::File(b)) => a == b,
            (DealerMode::Streamed, DealerMode::Streamed) => true,
            (DealerMode::Pooled(a), DealerMode::Pooled(b)) => a.same_pool(b),
            _ => false,
        }
    }
}

impl Eq for DealerMode {}

/// Configuration of a Conclave compilation and execution.
///
/// The boolean toggles correspond to the individual optimizations the paper
/// introduces, so ablation experiments can switch each off independently.
#[derive(Debug, Clone)]
pub struct ConclaveConfig {
    /// Apply the MPC-frontier push-down rewrites of §5.2.
    pub use_pushdown: bool,
    /// Apply the MPC-frontier push-up rewrites of §5.2.
    pub use_pushup: bool,
    /// Insert hybrid operators (§5.3) when trust annotations authorize an STP.
    pub use_hybrid_operators: bool,
    /// Use the public-join operator when join keys are public.
    pub use_public_join: bool,
    /// Apply the oblivious-sort tracking/elimination pass of §5.4.
    pub use_sort_elimination: bool,
    /// Parties consent to push-downs that change MPC input cardinalities
    /// (§5.2, "Security implications"): splitting an aggregation reveals the
    /// number of distinct keys each party contributes. Without consent,
    /// Conclave chooses the slower plan.
    pub allow_cardinality_leaking_pushdown: bool,
    /// Local cleartext backend.
    pub local_backend: LocalBackend,
    /// The sequential local backend's data layout
    /// ([`ConclaveConfig::with_sequential_local`]): vectorized columnar (the
    /// default) or row-at-a-time, the differential oracle. The parallel
    /// backend's tasks and the STP and helper steps of the hybrid protocols
    /// are always vectorized, whatever this says.
    pub engine_mode: EngineMode,
    /// Per-party cluster used when `local_backend` is parallel.
    pub cluster: ClusterSpec,
    /// MPC backend configuration.
    pub mpc: MpcBackendConfig,
    /// How MPC plan steps execute: simulated in-process (default) or as a
    /// real per-party mesh over a transport.
    pub party_runtime: PartyRuntime,
    /// Where the distributed runtime's offline material comes from.
    pub dealer: DealerMode,
}

impl ConclaveConfig {
    /// The default configuration: every optimization on, Spark-like local
    /// processing, Sharemind-like MPC — the configuration the paper's main
    /// experiments use.
    pub fn standard() -> Self {
        ConclaveConfig {
            use_pushdown: true,
            use_pushup: true,
            use_hybrid_operators: true,
            use_public_join: true,
            use_sort_elimination: true,
            allow_cardinality_leaking_pushdown: true,
            local_backend: LocalBackend::Parallel,
            engine_mode: EngineMode::Columnar,
            cluster: ClusterSpec::paper_party_cluster(),
            mpc: MpcBackendConfig::sharemind(),
            party_runtime: PartyRuntime::Simulated,
            dealer: DealerMode::Seeded,
        }
    }

    /// A configuration with every Conclave optimization disabled: the whole
    /// query runs as a single monolithic MPC, which is the "Sharemind only" /
    /// "MPC framework alone" baseline in Figures 4 and 6.
    pub fn mpc_only() -> Self {
        ConclaveConfig {
            use_pushdown: false,
            use_pushup: false,
            use_hybrid_operators: false,
            use_public_join: false,
            use_sort_elimination: false,
            allow_cardinality_leaking_pushdown: false,
            ..Self::standard()
        }
    }

    /// Standard configuration but without hybrid operators (used to isolate
    /// the effect of trust annotations in §7.2/§7.3).
    pub fn without_hybrid() -> Self {
        ConclaveConfig {
            use_hybrid_operators: false,
            use_public_join: false,
            ..Self::standard()
        }
    }

    /// Returns a copy using the sequential local backend.
    pub fn with_sequential_local(mut self) -> Self {
        self.local_backend = LocalBackend::Sequential;
        self
    }

    /// Returns a copy whose sequential local backend
    /// ([`Self::with_sequential_local`]) runs in the given layout. The
    /// parallel backend and the STP always run on columns, so under
    /// [`LocalBackend::Parallel`] the mode has no effect.
    pub fn with_engine_mode(mut self, mode: EngineMode) -> Self {
        self.engine_mode = mode;
        self
    }

    /// Returns a copy using the given MPC backend configuration.
    pub fn with_mpc(mut self, mpc: MpcBackendConfig) -> Self {
        self.mpc = mpc;
        self
    }

    /// Returns a copy using the given party-runtime mode for MPC steps.
    pub fn with_party_runtime(mut self, runtime: PartyRuntime) -> Self {
        self.party_runtime = runtime;
        self
    }

    /// Returns a copy executing MPC steps over the in-process channel mesh
    /// (real per-party message rounds, one thread per party).
    pub fn with_channel_runtime(self) -> Self {
        self.with_party_runtime(PartyRuntime::Channel)
    }

    /// Returns a copy executing MPC steps over localhost TCP sockets.
    pub fn with_tcp_runtime(self) -> Self {
        self.with_party_runtime(PartyRuntime::Tcp)
    }

    /// Returns a copy drawing offline material from the given dealer source.
    pub fn with_dealer(mut self, dealer: DealerMode) -> Self {
        self.dealer = dealer;
        self
    }

    /// Returns a copy loading per-party dealer files from `dir`.
    pub fn with_dealer_files(self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.with_dealer(DealerMode::File(dir.into()))
    }

    /// Returns a copy streaming offline material from a dealer endpoint over
    /// dedicated per-party links.
    pub fn with_streamed_dealer(self) -> Self {
        self.with_dealer(DealerMode::Streamed)
    }

    /// Returns a copy drawing offline material from a shared
    /// background-refilled pool (the serving-layer mode).
    pub fn with_pooled_dealer(self, pool: MaterialPool) -> Self {
        self.with_dealer(DealerMode::Pooled(pool))
    }
}

impl Default for ConclaveConfig {
    fn default() -> Self {
        ConclaveConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_mpc::backend::BackendKind;

    #[test]
    fn standard_enables_all_optimizations() {
        let c = ConclaveConfig::standard();
        assert!(c.use_pushdown && c.use_pushup && c.use_hybrid_operators);
        assert!(c.use_sort_elimination && c.use_public_join);
        assert_eq!(c.local_backend, LocalBackend::Parallel);
        assert_eq!(c.mpc.kind, BackendKind::SharemindLike);
        assert!(ConclaveConfig::default().use_pushdown);
    }

    #[test]
    fn mpc_only_disables_all_optimizations() {
        let c = ConclaveConfig::mpc_only();
        assert!(!c.use_pushdown && !c.use_pushup && !c.use_hybrid_operators);
        assert!(!c.allow_cardinality_leaking_pushdown);
    }

    #[test]
    fn builders_modify_fields() {
        let c = ConclaveConfig::without_hybrid();
        assert!(c.use_pushdown && !c.use_hybrid_operators);
        let c = ConclaveConfig::standard().with_sequential_local();
        assert_eq!(c.local_backend, LocalBackend::Sequential);
        let c = ConclaveConfig::standard().with_mpc(MpcBackendConfig::obliv_c());
        assert_eq!(c.mpc.kind, BackendKind::Garbled);
        assert_eq!(ConclaveConfig::standard().engine_mode, EngineMode::Columnar);
        assert_eq!(
            ConclaveConfig::standard().engine_mode,
            EngineMode::default()
        );
        let c = ConclaveConfig::standard().with_engine_mode(EngineMode::Row);
        assert_eq!(c.engine_mode, EngineMode::Row);
    }

    #[test]
    fn party_runtime_modes() {
        assert_eq!(
            ConclaveConfig::standard().party_runtime,
            PartyRuntime::Simulated
        );
        assert!(!PartyRuntime::Simulated.is_distributed());
        let c = ConclaveConfig::standard().with_channel_runtime();
        assert_eq!(c.party_runtime, PartyRuntime::Channel);
        assert!(c.party_runtime.is_distributed());
        let c = ConclaveConfig::standard().with_tcp_runtime();
        assert_eq!(c.party_runtime, PartyRuntime::Tcp);
        assert!(c.party_runtime.is_distributed());
        let c = ConclaveConfig::standard().with_party_runtime(PartyRuntime::default());
        assert_eq!(c.party_runtime, PartyRuntime::Simulated);
    }

    #[test]
    fn dealer_modes() {
        assert_eq!(ConclaveConfig::standard().dealer, DealerMode::Seeded);
        assert_eq!(DealerMode::default(), DealerMode::Seeded);
        let c = ConclaveConfig::standard().with_streamed_dealer();
        assert_eq!(c.dealer, DealerMode::Streamed);
        let c = ConclaveConfig::standard().with_dealer_files("/tmp/material");
        assert_eq!(
            c.dealer,
            DealerMode::File(std::path::PathBuf::from("/tmp/material"))
        );
        let c = c.with_dealer(DealerMode::Seeded);
        assert_eq!(c.dealer, DealerMode::Seeded);
        // Pooled mode compares by pool identity: clones of one pool are
        // equal, distinct pools (even with identical parameters) are not.
        let pool = MaterialPool::start(1, 2, Default::default(), 1);
        let c = ConclaveConfig::standard().with_pooled_dealer(pool.clone());
        assert_eq!(c.dealer, DealerMode::Pooled(pool));
        let other = MaterialPool::start(1, 2, Default::default(), 1);
        assert_ne!(c.dealer, DealerMode::Pooled(other));
    }
}
