//! The in-process engine: a counting cleartext simulator.
//!
//! [`Protocol`] is the [`Engine`] behind `PartyRuntime::Simulated` and, under
//! every runtime, behind the §5.3 hybrid operators. Its share of a value is
//! the value itself ([`RingElem`]): every operator computes in the clear, in
//! one process, and each primitive increments the [`PrimitiveCounts`] the
//! real protocol would — the tally the cost model converts into simulated
//! wall-clock time, and the only thing the paper's figures take from here.
//!
//! ## Fidelity note
//!
//! Nothing here is secret from anyone: one struct sees every value, so it
//! offers no secrecy between parties and executes no protocol. What it keeps
//! faithful is the *work*: the generic operators of [`crate::operators`] run
//! unchanged on it and charge multiplications, comparisons, equalities,
//! shuffles, inputs and openings exactly as they do on the MACed, circuit-backed
//! [`crate::runtime::StepCtx`] (`tests/operator_differential.rs` requires equal
//! counts across both engines), and results wrap in `Z_{2^64}` like real
//! shares. The security guarantees of `docs/SECURITY.md` are those of the
//! party runtime, not of this engine.

use crate::cost::PrimitiveCounts;
use crate::engine::{Engine, OpError};
use crate::ring::RingElem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The counting cleartext engine of one (simulated) MPC job.
#[derive(Debug)]
pub struct Protocol {
    parties: usize,
    /// Drawn from only by [`Engine::random_permutation`].
    rng: StdRng,
    counts: PrimitiveCounts,
}

impl Protocol {
    /// Creates an engine simulating `parties` computing parties.
    pub fn new(parties: usize, seed: u64) -> Self {
        assert!(parties >= 2, "MPC needs at least two parties");
        Protocol {
            parties,
            rng: StdRng::seed_from_u64(seed),
            counts: PrimitiveCounts::default(),
        }
    }

    /// Number of computing parties.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Snapshot of the primitive counters.
    pub fn counts(&self) -> PrimitiveCounts {
        self.counts
    }

    /// Resets the primitive counters (e.g. between measured phases).
    pub fn reset_counts(&mut self) {
        self.counts = PrimitiveCounts::default();
    }

    /// Takes an input value into the MPC (charged as one shared element).
    pub fn share_value(&mut self, v: i64) -> RingElem {
        self.counts.input_elems += 1;
        RingElem::from_i64(v)
    }

    /// Takes a whole column of input values at once (one bulk call per
    /// column instead of per-cell call sites). Delegates to
    /// [`Protocol::share_value`] so the accounting has a single source of
    /// truth.
    pub fn share_column(&mut self, values: &[i64]) -> Vec<RingElem> {
        values.iter().map(|&v| self.share_value(v)).collect()
    }

    /// Opens (reveals) a value to all parties. Revealing to a single party
    /// (e.g. the STP) costs and counts the same; the *authorization* to do
    /// either is checked by the compiler, not here.
    pub fn open(&mut self, x: RingElem) -> i64 {
        self.counts.opened_elems += 1;
        x.to_i64()
    }
}

/// A 0/1 flag as a ring element.
fn bit(b: bool) -> RingElem {
    RingElem::from_i64(i64::from(b))
}

/// Every primitive is ring arithmetic or a signed comparison on the values
/// themselves plus its charge; nothing can fail but operator logic itself.
impl Engine for Protocol {
    type Share = RingElem;
    type Error = OpError;

    fn constant(&self, v: i64) -> RingElem {
        RingElem::from_i64(v)
    }

    fn add(&self, x: RingElem, y: RingElem) -> RingElem {
        x + y
    }

    fn sub(&self, x: RingElem, y: RingElem) -> RingElem {
        x - y
    }

    fn add_public(&self, x: RingElem, c: i64) -> RingElem {
        x + RingElem::from_i64(c)
    }

    fn mul_public(&self, x: RingElem, c: i64) -> RingElem {
        x * RingElem::from_i64(c)
    }

    fn mul_batch(&mut self, pairs: &[(RingElem, RingElem)]) -> Result<Vec<RingElem>, OpError> {
        self.counts.mults += pairs.len() as u64;
        Ok(pairs.iter().map(|&(x, y)| x * y).collect())
    }

    fn lt_batch(&mut self, pairs: &[(RingElem, RingElem)]) -> Result<Vec<RingElem>, OpError> {
        self.counts.comparisons += pairs.len() as u64;
        Ok(pairs
            .iter()
            .map(|(x, y)| bit(x.to_i64() < y.to_i64()))
            .collect())
    }

    fn eq_batch_groups(
        &mut self,
        groups: &[Vec<(RingElem, RingElem)>],
    ) -> Result<Vec<Vec<RingElem>>, OpError> {
        self.counts.equalities += groups.iter().map(|g| g.len() as u64).sum::<u64>();
        Ok(groups
            .iter()
            .map(|g| g.iter().map(|(x, y)| bit(x == y)).collect())
            .collect())
    }

    /// `b + c·(a − b)`: charged as the one multiplication it costs.
    fn mux_batch(
        &mut self,
        selectors: &[(RingElem, RingElem, RingElem)],
    ) -> Result<Vec<RingElem>, OpError> {
        self.counts.mults += selectors.len() as u64;
        Ok(selectors.iter().map(|&(c, a, b)| b + c * (a - b)).collect())
    }

    fn open_column(&mut self, shares: &[RingElem]) -> Result<Vec<i64>, OpError> {
        Ok(shares.iter().map(|&s| self.open(s)).collect())
    }

    /// Adds externally-computed primitive counts (also used by analytical
    /// estimators that skip real execution).
    fn charge(&mut self, extra: &PrimitiveCounts) {
        self.counts.merge(extra);
    }

    fn charge_shuffle(&mut self, elements: u64) {
        self.counts.shuffled_elems += elements;
    }

    /// Fisher–Yates over the engine's RNG; the permutation itself stays
    /// inside the simulator.
    fn random_permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        perm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto() -> Protocol {
        Protocol::new(3, 42)
    }

    #[test]
    fn share_open_round_trip() {
        let mut p = proto();
        for v in [-5i64, 0, 7, i64::MAX] {
            let s = p.share_value(v);
            assert_eq!(p.open(s), v);
        }
        assert_eq!(p.counts().input_elems, 4);
        assert_eq!(p.counts().opened_elems, 4);
    }

    #[test]
    #[should_panic(expected = "at least two parties")]
    fn rejects_single_party() {
        let _ = Protocol::new(1, 0);
    }

    #[test]
    fn linear_ops_are_free() {
        let mut p = proto();
        let a = p.share_value(10);
        let b = p.share_value(4);
        let before = p.counts().nonlinear_ops();
        let sum = p.add(a, b);
        let diff = p.sub(a, b);
        let scaled = p.mul_public(a, 3);
        let shifted = p.add_public(a, 100);
        assert_eq!(p.counts().nonlinear_ops(), before);
        assert_eq!(p.open(sum), 14);
        assert_eq!(p.open(diff), 6);
        assert_eq!(p.open(scaled), 30);
        assert_eq!(p.open(shifted), 110);
    }

    #[test]
    fn multiplication_counts_and_is_correct() {
        let mut p = proto();
        let a = p.share_value(-7);
        let b = p.share_value(6);
        let big = p.share_value(i64::MAX);
        let prod = p.mul_batch(&[(a, b), (big, b)]).unwrap();
        assert_eq!(p.open(prod[0]), -42);
        assert_eq!(p.open(prod[1]), i64::MAX.wrapping_mul(6));
        assert_eq!(p.counts().mults, 2);
    }

    #[test]
    fn comparisons_and_equality() {
        let mut p = proto();
        let a = p.share_value(3);
        let b = p.share_value(5);
        let neg = p.share_value(-1);
        let lt = p.lt_batch(&[(a, b), (b, a), (neg, a)]).unwrap();
        let eq = p.eq_batch_groups(&[vec![(a, a)], vec![(a, b)]]).unwrap();
        // Signed: −1 < 3 although its ring element is the larger word.
        assert_eq!(p.open_column(&lt).unwrap(), vec![1, 0, 1]);
        assert_eq!(p.open_column(&eq.concat()).unwrap(), vec![1, 0]);
        let c = p.counts();
        assert_eq!(c.comparisons, 3);
        assert_eq!(c.equalities, 2);
    }

    #[test]
    fn mux_selects_by_bit() {
        let mut p = proto();
        let a = p.share_value(111);
        let b = p.share_value(222);
        let one = p.share_value(1);
        let zero = p.share_value(0);
        let picked = p.mux_batch(&[(one, a, b), (zero, a, b)]).unwrap();
        assert_eq!(p.open_column(&picked).unwrap(), vec![111, 222]);
        assert_eq!(p.counts().mults, 2);
    }

    #[test]
    fn constants_and_charges() {
        let mut p = proto();
        let c = p.constant(9);
        assert_eq!(p.open(c), 9);
        p.charge_shuffle(100);
        p.charge(&PrimitiveCounts {
            mults: 7,
            ..Default::default()
        });
        assert_eq!(p.counts().shuffled_elems, 100);
        assert_eq!(p.counts().mults, 7);
        p.reset_counts();
        assert_eq!(p.counts(), PrimitiveCounts::default());
        assert_eq!(p.parties(), 3);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = proto();
        let perm = p.random_permutation(100);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(perm, (0..100).collect::<Vec<_>>(), "should be shuffled");
    }
}
