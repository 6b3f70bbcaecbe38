//! Cost models converting protocol primitive counts into simulated time.
//!
//! # Calibration
//!
//! The constants below are calibrated against datapoints reported in the
//! paper and the studies it cites, so that reproduced experiments preserve
//! the original *shapes* (who wins, by what factor, where curves cross):
//!
//! * "Sharemind takes 200 s to sort 16,000 elements" (§2.3, citing Jónsson et
//!   al.): the Batcher network on 16 000 elements has 744 321 compare-
//!   exchanges, ≈ 270 µs each. We charge 150 µs per oblivious comparison
//!   plus 5 µs per mux multiplication, two per column, so the model prices
//!   that one-column sort at ≈ 119 s (111.6 s of comparisons, 7.4 s of
//!   multiplexers, 0.3 s of LAN transfer): 60 % of the anchor, which
//!   recalibration against measured runs is to settle.
//! * Figure 1c: a Sharemind projection exceeds 10 minutes past ≈3 M input
//!   records (≈37 MB), giving ≈120 µs of per-element secret-sharing / storage
//!   overhead for data import+export.
//! * Figure 5a: a pure-MPC Sharemind join at 10 k records per party takes
//!   over twenty minutes, and Figure 6's pure-MPC credit query exceeds the
//!   two-hour cut-off at 30 k records — consistent with a Cartesian-product
//!   join at ≈35 µs per oblivious equality test, plus the 60 µs open of the
//!   pair's match flag.
//! * Figure 1 (Obliv-C): the garbled-circuit join runs out of memory at ≈30 k
//!   records and the projection at ≈300 k records, which fixes the memory
//!   model's per-record state constants; throughput is set to ≈1 M AND
//!   gates/s, slower per arithmetic operation than Sharemind, matching §7.4's
//!   observation that secret sharing suits relational arithmetic better.

use conclave_net::NetworkModel;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Counters of secret-sharing protocol primitives executed (or estimated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrimitiveCounts {
    /// Field elements secret-shared into the MPC (input loading).
    pub input_elems: u64,
    /// Field elements opened / revealed out of the MPC.
    pub opened_elems: u64,
    /// Beaver multiplications.
    pub mults: u64,
    /// Oblivious less-than comparisons.
    pub comparisons: u64,
    /// Oblivious equality tests.
    pub equalities: u64,
    /// Elements moved by oblivious shuffles (rows × columns).
    pub shuffled_elems: u64,
    /// Binary AND gates evaluated on XOR-shared bits (comparison circuits).
    /// Zero on the in-process oracle path, which charges a flat amortized
    /// `comparisons`/`equalities` tally instead; the party runtime tallies
    /// both the flat count *and* the per-bit gates it actually evaluated.
    pub bit_ands: u64,
    /// Communication rounds spent inside comparison circuits (masked
    /// openings, prefix-adder levels, bit-to-arithmetic conversions). Like
    /// [`PrimitiveCounts::bit_ands`], only the circuit path reports these.
    pub circuit_rounds: u64,
    /// Deferred SPDZ MAC checks performed at reveal boundaries (each costs
    /// two synchronous rounds: a commitment broadcast and a sigma opening).
    /// Zero on the in-process oracle path and in unauthenticated sessions.
    pub mac_checks: u64,
}

impl PrimitiveCounts {
    /// Adds another set of counts to this one.
    pub fn merge(&mut self, other: &PrimitiveCounts) {
        self.input_elems += other.input_elems;
        self.opened_elems += other.opened_elems;
        self.mults += other.mults;
        self.comparisons += other.comparisons;
        self.equalities += other.equalities;
        self.shuffled_elems += other.shuffled_elems;
        self.bit_ands += other.bit_ands;
        self.circuit_rounds += other.circuit_rounds;
        self.mac_checks += other.mac_checks;
    }

    /// The counts accumulated since `baseline` was snapshotted (field-wise
    /// difference). Used by the party runtime to attribute a session-lifetime
    /// counter to individual plan steps.
    pub fn since(&self, baseline: &PrimitiveCounts) -> PrimitiveCounts {
        PrimitiveCounts {
            input_elems: self.input_elems - baseline.input_elems,
            opened_elems: self.opened_elems - baseline.opened_elems,
            mults: self.mults - baseline.mults,
            comparisons: self.comparisons - baseline.comparisons,
            equalities: self.equalities - baseline.equalities,
            shuffled_elems: self.shuffled_elems - baseline.shuffled_elems,
            bit_ands: self.bit_ands - baseline.bit_ands,
            circuit_rounds: self.circuit_rounds - baseline.circuit_rounds,
            mac_checks: self.mac_checks - baseline.mac_checks,
        }
    }

    /// Total number of non-linear operations (the quantity the paper's
    /// asymptotic arguments count).
    pub fn nonlinear_ops(&self) -> u64 {
        self.mults + self.comparisons + self.equalities
    }

    /// Approximate bytes exchanged between parties for these primitives
    /// (per-party, one direction): every non-linear op opens two masked
    /// values, every input/open moves one share.
    ///
    /// When the counts come from the circuit path (`bit_ands > 0`), the
    /// flat 16-byte-per-comparison estimate is replaced by the measured
    /// gate count: each word-packed binary AND opens two masked 8-byte
    /// words per 64 gates (0.25 B/gate), and each comparison additionally
    /// pays one masked decomposition opening plus one bit-to-arithmetic
    /// opening. With `bit_ands == 0` this reduces to the original flat
    /// formula, so oracle-path estimates and calibration anchors are
    /// unchanged.
    pub fn bytes(&self) -> u64 {
        let compare_bytes = if self.bit_ands > 0 {
            self.bit_ands / 4 + 16 * (self.comparisons + self.equalities)
        } else {
            16 * (self.comparisons + self.equalities)
        };
        16 * self.mults
            + compare_bytes
            + 8 * (self.input_elems + self.opened_elems)
            + 8 * self.shuffled_elems
    }
}

impl std::ops::Add for PrimitiveCounts {
    type Output = PrimitiveCounts;

    fn add(mut self, other: PrimitiveCounts) -> PrimitiveCounts {
        self.merge(&other);
        self
    }
}

/// Comparison-equivalents charged per row of a secret-shared `Divide` (an
/// oblivious fixed-point division; the integer-only share arithmetic does not
/// run one). Read by `MpcEngine::estimate_op` and by the driver's substitute.
pub const DIVIDE_COMPARISONS_PER_ROW: u64 = 30;

/// Cost model for the secret-sharing backend (Sharemind-like, 3 parties).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SecretShareCostModel {
    /// Seconds per Beaver multiplication (amortized, batched).
    pub per_mult: f64,
    /// Seconds per oblivious less-than comparison (bit-decomposition based).
    pub per_comparison: f64,
    /// Seconds per oblivious equality test.
    pub per_equality: f64,
    /// Seconds per binary AND gate on XOR-shared bits. Used instead of the
    /// flat `per_comparison`/`per_equality` charges when a count set carries
    /// measured circuit gates (`bit_ands > 0`). Calibrated so that a
    /// less-than at the full-sum adder's ~2100 gates (2 240 measured, 35
    /// AND words) landed near the 150 µs flat anchor. The bit-sliced
    /// sign-bit carry tree, its first level dealt, measures ≈ 173 gates per
    /// shared pair in a large batch (≈ 115 against a public constant, ≈ 31
    /// per equality; 512 and 320 for a batch of one); the constant waits for
    /// recalibration against measured wall time.
    pub per_bit_and: f64,
    /// Seconds per element secret-shared into the MPC (import + storage).
    pub per_input_elem: f64,
    /// Seconds per element opened out of the MPC.
    pub per_open_elem: f64,
    /// Seconds per element moved by an oblivious shuffle.
    pub per_shuffle_elem: f64,
    /// Fixed protocol setup time per MPC job (connection setup, triple
    /// precomputation warm-up).
    pub job_overhead: f64,
}

impl Default for SecretShareCostModel {
    fn default() -> Self {
        SecretShareCostModel {
            per_mult: 5.0e-6,
            per_comparison: 150.0e-6,
            per_equality: 35.0e-6,
            per_bit_and: 7.0e-8,
            per_input_elem: 60.0e-6,
            per_open_elem: 60.0e-6,
            per_shuffle_elem: 20.0e-6,
            job_overhead: 2.0,
        }
    }
}

impl SecretShareCostModel {
    /// Converts primitive counts into simulated elapsed time, including the
    /// communication time implied by the network model (protocols are
    /// computation- and bandwidth-bound; round latency is amortized by
    /// batching, which Sharemind does aggressively).
    pub fn time(&self, counts: &PrimitiveCounts, net: &NetworkModel) -> Duration {
        // Counts that carry measured circuit gates (`bit_ands > 0`) also
        // carry the flat `comparisons`/`equalities` tallies for the same
        // operations; charge the measured gates *instead of* the flat
        // amortized rates so the two views never double-bill.
        let compare_compute = if counts.bit_ands > 0 {
            counts.bit_ands as f64 * self.per_bit_and
        } else {
            counts.comparisons as f64 * self.per_comparison
                + counts.equalities as f64 * self.per_equality
        };
        let compute = counts.mults as f64 * self.per_mult
            + compare_compute
            + counts.input_elems as f64 * self.per_input_elem
            + counts.opened_elems as f64 * self.per_open_elem
            + counts.shuffled_elems as f64 * self.per_shuffle_elem;
        let comm = counts.bytes() as f64 / net.bandwidth_bps
            + counts.circuit_rounds as f64 * net.latency_s;
        Duration::from_secs_f64(self.job_overhead + compute + comm)
    }

    /// Time without the fixed job overhead — useful for composing several
    /// estimates of the same MPC job.
    pub fn time_no_overhead(&self, counts: &PrimitiveCounts, net: &NetworkModel) -> Duration {
        let with = self.time(counts, net);
        with.saturating_sub(Duration::from_secs_f64(self.job_overhead))
    }
}

/// Cost and memory model for garbled-circuit backends (Obliv-C, ObliVM).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GarbledCostModel {
    /// Seconds per AND gate (XOR gates are free under free-XOR).
    pub per_and_gate: f64,
    /// Bytes of garbled-circuit state retained per input record (wire labels
    /// plus framework bookkeeping); drives the out-of-memory cliffs.
    pub state_bytes_per_record: f64,
    /// Memory limit in bytes before the backend aborts (the evaluation VMs
    /// had 8 GB; the framework gets ~4 GB of usable heap).
    pub memory_limit_bytes: f64,
    /// Fixed setup time per job (circuit generation, OT extension).
    pub job_overhead: f64,
}

impl GarbledCostModel {
    /// Obliv-C-like defaults (used for Figure 1).
    pub fn obliv_c() -> Self {
        GarbledCostModel {
            per_and_gate: 1.0e-6,
            state_bytes_per_record: 14_000.0,
            memory_limit_bytes: 4.0e9,
            job_overhead: 2.0,
        }
    }

    /// ObliVM-like defaults (used for the SMCQL baseline of §7.4): roughly
    /// 3× slower per gate and a heavier runtime, matching the paper's
    /// observation that ObliVM is slower than both Obliv-C and Sharemind.
    pub fn obliv_vm() -> Self {
        GarbledCostModel {
            per_and_gate: 3.0e-6,
            state_bytes_per_record: 20_000.0,
            memory_limit_bytes: 16.0e9, // SMCQL experiments used 32 GB VMs
            job_overhead: 5.0,
        }
    }

    /// Simulated time to evaluate `and_gates` AND gates plus transferring the
    /// garbled tables (32 bytes per AND gate) over the network.
    pub fn time(&self, and_gates: u64, net: &NetworkModel) -> Duration {
        let compute = and_gates as f64 * self.per_and_gate;
        let comm = and_gates as f64 * 32.0 / net.bandwidth_bps;
        Duration::from_secs_f64(self.job_overhead + compute + comm)
    }

    /// Returns `true` if a computation with the given memory footprint
    /// exceeds the backend's memory limit (→ the OOM cliffs of Figure 1).
    pub fn exceeds_memory(&self, state_bytes: f64) -> bool {
        state_bytes > self.memory_limit_bytes
    }
}

impl Default for GarbledCostModel {
    fn default() -> Self {
        GarbledCostModel::obliv_c()
    }
}

/// Gate and state counters for one garbled-circuit job, as the cost model
/// counts them — no circuit is built or garbled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CircuitStats {
    /// AND gates (cost communication and crypto under half-gates; XOR gates
    /// are free under free-XOR and not counted).
    pub and_gates: u64,
}

impl CircuitStats {
    /// Merges another stats object into this one.
    pub fn merge(&mut self, other: &CircuitStats) {
        self.and_gates += other.and_gates;
    }
}

/// Analytic AND-gate counts for whole relational operators over 64-bit
/// integers, from the textbook constructions (one AND per bit for an adder,
/// comparator, equality test or multiplexer): what [`GarbledCostModel`]
/// prices to reproduce the runtime curves and out-of-memory cliffs of
/// Figure 1. Crate-private: other crates price through `MpcEngine::estimate_op`.
pub(crate) mod gates {
    /// Width in bits of the integers the relational circuits operate on.
    const WORD_BITS: u64 = 64;

    /// Gates for obliviously aggregating `n` rows with `g` group-by columns:
    /// a bitonic sort (`n·log²n` comparator+mux stages) followed by a linear
    /// scan of equality + adder + mux per row.
    pub fn aggregate(n: u64, g: u64) -> u64 {
        let n = n.max(2);
        let log = 64 - (n - 1).leading_zeros() as u64;
        let sort = n * log * log / 2 * 2 * WORD_BITS;
        let scan = n * (g.max(1) + 2) * WORD_BITS;
        sort + scan
    }

    /// Gates for a Cartesian-product join of `n × m` rows over `k` key
    /// columns with `w` payload columns muxed into the output.
    pub fn join(n: u64, m: u64, k: u64, w: u64) -> u64 {
        n * m * (k.max(1) + w) * WORD_BITS
    }

    /// Gates for projecting `n` rows of `w` columns (re-wiring only; the cost
    /// is dominated by input/output handling, roughly one gate per bit).
    pub fn project(n: u64, w: u64) -> u64 {
        n * w * WORD_BITS
    }

    /// Gates for a distinct / distinct-count over `n` rows (sort + adjacent
    /// equality scan).
    pub fn distinct(n: u64) -> u64 {
        aggregate(n, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MpcBackendConfig, MpcEngine};
    use conclave_ir::ops::Operator;

    #[test]
    fn counts_merge_and_bytes() {
        let mut a = PrimitiveCounts {
            mults: 10,
            comparisons: 5,
            ..Default::default()
        };
        let b = PrimitiveCounts {
            mults: 1,
            comparisons: 0,
            equalities: 2,
            input_elems: 3,
            opened_elems: 4,
            shuffled_elems: 5,
            bit_ands: 0,
            circuit_rounds: 0,
            mac_checks: 1,
        };
        a.merge(&b);
        assert_eq!(a.mults, 11);
        assert_eq!(a.mac_checks, 1);
        assert_eq!(a.nonlinear_ops(), 11 + 5 + 2);
        assert_eq!(a.bytes(), 16 * 18 + 8 * 7 + 8 * 5);
    }

    #[test]
    fn circuit_counts_replace_flat_comparison_charges() {
        let lan = NetworkModel::lan();
        let model = SecretShareCostModel::default();
        let flat = PrimitiveCounts {
            comparisons: 1000,
            ..Default::default()
        };
        // The same 1000 comparisons as measured by the circuit path at the
        // ~2100 AND gates each that `per_bit_and` is calibrated on, plus the
        // log-depth rounds actually spent.
        let measured = PrimitiveCounts {
            comparisons: 1000,
            bit_ands: 2100 * 1000,
            circuit_rounds: 9,
            ..Default::default()
        };
        // Measured gates substitute for (not stack on) the flat rate, so the
        // two estimates stay within the same order of magnitude.
        let t_flat = model.time_no_overhead(&flat, &lan).as_secs_f64();
        let t_measured = model.time_no_overhead(&measured, &lan).as_secs_f64();
        assert!(
            t_measured < 2.0 * t_flat && t_measured > 0.5 * t_flat,
            "flat {t_flat:.4} s vs measured {t_measured:.4} s"
        );
        // Circuit bytes reflect the per-gate masked openings.
        assert!(measured.bytes() > flat.bytes());
        // merge/since round-trip the new counters.
        let mut acc = flat;
        acc.merge(&measured);
        assert_eq!(acc.bit_ands, 2100 * 1000);
        assert_eq!(acc.circuit_rounds, 9);
        assert_eq!(acc.since(&flat), measured);
    }

    /// The price list's count of one operator at the paper's anchor sizes.
    fn priced(op: &Operator, rows: &[u64], cols: &[u64], out: u64) -> (PrimitiveCounts, f64) {
        let stats = MpcEngine::new(MpcBackendConfig::sharemind())
            .estimate_op(op, rows, cols, out)
            .unwrap();
        (stats.counts, stats.simulated_time.as_secs_f64())
    }

    #[test]
    fn sharemind_sort_anchor_matches_paper() {
        // §2.3: sorting 16,000 elements takes ≈200 s in Sharemind. The
        // network on 16 000 rows has 744 321 compare-exchanges, each one
        // comparison and two muxes; the model prices them at ≈ 119 s.
        let sort = Operator::SortBy {
            column: "v".into(),
            ascending: true,
        };
        let (counts, t) = priced(&sort, &[16_000], &[1], 16_000);
        assert_eq!((counts.comparisons, counts.mults), (744_321, 2 * 744_321));
        assert!((119.3..119.5).contains(&t), "got {t:.1} s");
    }

    #[test]
    fn cartesian_join_anchor_matches_paper() {
        // Fig. 5a: a pure-MPC join at ~10 k total records takes on the order
        // of tens of minutes: an equality test per pair, every flag opened.
        let join = Operator::Join {
            left_keys: vec!["k".into()],
            right_keys: vec!["k".into()],
        };
        let (counts, t) = priced(&join, &[5_000, 5_000], &[2, 2], 5_000);
        assert_eq!(counts.equalities, 25_000_000);
        assert_eq!(counts.opened_elems, 25_000_000);
        assert!(t > 300.0 && t < 3_600.0, "got {t:.0} s");
    }

    #[test]
    fn projection_storage_anchor() {
        // Fig. 1c: pure projection exceeds 10 minutes past ~3–5 M records.
        let n = 4_000_000u64;
        let counts = PrimitiveCounts {
            input_elems: n,
            opened_elems: n,
            ..Default::default()
        };
        let t = SecretShareCostModel::default()
            .time(&counts, &NetworkModel::lan())
            .as_secs_f64();
        assert!(t > 400.0, "got {t:.0} s");
    }

    #[test]
    fn time_no_overhead_subtracts_setup() {
        let m = SecretShareCostModel::default();
        let counts = PrimitiveCounts {
            mults: 1000,
            ..Default::default()
        };
        let with = m.time(&counts, &NetworkModel::lan());
        let without = m.time_no_overhead(&counts, &NetworkModel::lan());
        assert!(with > without);
        assert!((with - without).as_secs_f64() - m.job_overhead < 1e-9);
    }

    #[test]
    fn garbled_memory_cliffs_match_figure_1() {
        let m = GarbledCostModel::obliv_c();
        // Projection: OOM somewhere between 100 k and 500 k records (paper:
        // ≈300 k).
        assert!(!m.exceeds_memory(100_000.0 * m.state_bytes_per_record));
        assert!(m.exceeds_memory(500_000.0 * m.state_bytes_per_record));
        // Join: OOM between 10 k and 50 k total records (paper: ≈30 k), at
        // several records' worth of comparison state per input record.
        assert!(!m.exceeds_memory(10_000.0 * m.state_bytes_per_record * 8.0));
        assert!(m.exceeds_memory(40_000.0 * m.state_bytes_per_record * 8.0));
    }

    #[test]
    fn obliv_vm_is_slower_than_obliv_c() {
        let gates = 10_000_000u64;
        let lan = NetworkModel::lan();
        let c = GarbledCostModel::obliv_c().time(gates, &lan);
        let vm = GarbledCostModel::obliv_vm().time(gates, &lan);
        assert!(vm > c);
    }

    #[test]
    fn secret_sharing_beats_gc_for_arithmetic() {
        // §7.4: Sharemind is better suited to arithmetic-heavy queries than
        // ObliVM. Compare one million 64-bit multiplications.
        let lan = NetworkModel::lan();
        let ss = SecretShareCostModel::default().time(
            &PrimitiveCounts {
                mults: 1_000_000,
                ..Default::default()
            },
            &lan,
        );
        // A 64-bit multiplier is ~4,000 AND gates.
        let gc = GarbledCostModel::obliv_vm().time(1_000_000 * 4_000, &lan);
        assert!(ss < gc);
    }

    #[test]
    fn circuit_stats_merge() {
        let mut a = CircuitStats { and_gates: 10 };
        a.merge(&CircuitStats { and_gates: 1 });
        assert_eq!(a.and_gates, 11);
    }

    #[test]
    fn join_gates_grow_quadratically() {
        let g1 = gates::join(1_000, 1_000, 1, 2);
        let g2 = gates::join(2_000, 2_000, 1, 2);
        assert_eq!(g2, g1 * 4);
    }

    #[test]
    fn aggregate_gates_are_superlinear_but_subquadratic() {
        let g1 = gates::aggregate(10_000, 1);
        let g2 = gates::aggregate(20_000, 1);
        let ratio = g2 as f64 / g1 as f64;
        assert!(ratio > 2.0 && ratio < 4.0, "ratio {ratio}");
        assert!(gates::distinct(1_000) > gates::project(1_000, 1));
    }

    #[test]
    fn obliv_c_join_is_impractical_at_figure_1_scale() {
        // Fig. 1b: the Obliv-C join is far slower than insecure execution and
        // only reaches tens of thousands of records before failing.
        let m = GarbledCostModel::obliv_c();
        let lan = NetworkModel::lan();
        let t = m.time(gates::join(5_000, 5_000, 1, 1), &lan);
        assert!(t.as_secs_f64() > 100.0, "got {:?}", t);
    }
}
