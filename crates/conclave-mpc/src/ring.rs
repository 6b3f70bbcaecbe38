//! Arithmetic in the ring `Z_{2^64}`.
//!
//! Additive secret sharing splits every value into shares that sum to the
//! original value modulo `2^64`. Signed 64-bit integers are embedded via
//! their two's-complement bit pattern, so reconstruction recovers negative
//! values exactly.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// An element of `Z_{2^64}` (wrapping 64-bit arithmetic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RingElem(pub u64);

impl RingElem {
    /// The additive identity.
    pub const ZERO: RingElem = RingElem(0);
    /// The multiplicative identity.
    pub const ONE: RingElem = RingElem(1);

    /// Embeds a signed integer (two's complement).
    pub fn from_i64(v: i64) -> Self {
        RingElem(v as u64)
    }

    /// Recovers the signed integer this element encodes.
    pub fn to_i64(self) -> i64 {
        self.0 as i64
    }

    /// The value an in-process cell stands for: itself. Harness-blocked —
    /// `conclave_bench/src/probes.rs` reads a [`crate::relation::SharedRelation`]
    /// cell as `cell.reconstruct().to_i64()`; goes in the `[benchmark]` PR of
    /// ROADMAP's preamble.
    pub fn reconstruct(self) -> RingElem {
        self
    }

    /// Wrapping addition.
    pub fn wrapping_add(self, rhs: RingElem) -> RingElem {
        RingElem(self.0.wrapping_add(rhs.0))
    }

    /// Wrapping subtraction.
    pub fn wrapping_sub(self, rhs: RingElem) -> RingElem {
        RingElem(self.0.wrapping_sub(rhs.0))
    }

    /// Wrapping multiplication.
    pub fn wrapping_mul(self, rhs: RingElem) -> RingElem {
        RingElem(self.0.wrapping_mul(rhs.0))
    }
}

impl Add for RingElem {
    type Output = RingElem;
    fn add(self, rhs: RingElem) -> RingElem {
        self.wrapping_add(rhs)
    }
}

impl AddAssign for RingElem {
    fn add_assign(&mut self, rhs: RingElem) {
        *self = *self + rhs;
    }
}

impl Sub for RingElem {
    type Output = RingElem;
    fn sub(self, rhs: RingElem) -> RingElem {
        self.wrapping_sub(rhs)
    }
}

impl Mul for RingElem {
    type Output = RingElem;
    fn mul(self, rhs: RingElem) -> RingElem {
        self.wrapping_mul(rhs)
    }
}

impl Neg for RingElem {
    type Output = RingElem;
    fn neg(self) -> RingElem {
        RingElem(0u64.wrapping_sub(self.0))
    }
}

impl fmt::Display for RingElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_i64())
    }
}

impl From<i64> for RingElem {
    fn from(v: i64) -> Self {
        RingElem::from_i64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn signed_round_trip() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            assert_eq!(RingElem::from_i64(v).to_i64(), v);
        }
    }

    #[test]
    fn ring_identities() {
        let x = RingElem::from_i64(1234);
        assert_eq!(x + RingElem::ZERO, x);
        assert_eq!(x * RingElem::ONE, x);
        assert_eq!(x - x, RingElem::ZERO);
        assert_eq!(x + (-x), RingElem::ZERO);
        assert_eq!((-x).to_i64(), -1234);
    }

    #[test]
    fn wrapping_behaviour() {
        let big = RingElem(u64::MAX);
        assert_eq!(big + RingElem::ONE, RingElem::ZERO);
        let half = RingElem(1u64 << 63);
        assert_eq!(half + half, RingElem::ZERO);
    }

    #[test]
    fn display_shows_signed_value() {
        assert_eq!(RingElem::from_i64(-7).to_string(), "-7");
        assert_eq!(RingElem::from(5i64).to_string(), "5");
    }

    proptest! {
        #[test]
        fn addition_commutes(a in any::<i64>(), b in any::<i64>()) {
            let (x, y) = (RingElem::from_i64(a), RingElem::from_i64(b));
            prop_assert_eq!(x + y, y + x);
        }

        #[test]
        fn add_matches_wrapping_i64(a in any::<i64>(), b in any::<i64>()) {
            let sum = RingElem::from_i64(a) + RingElem::from_i64(b);
            prop_assert_eq!(sum.to_i64(), a.wrapping_add(b));
        }

        #[test]
        fn mul_matches_wrapping_i64(a in any::<i64>(), b in any::<i64>()) {
            let prod = RingElem::from_i64(a) * RingElem::from_i64(b);
            prop_assert_eq!(prod.to_i64(), a.wrapping_mul(b));
        }

        #[test]
        fn add_assign_consistent(a in any::<i64>(), b in any::<i64>()) {
            let mut x = RingElem::from_i64(a);
            x += RingElem::from_i64(b);
            prop_assert_eq!(x, RingElem::from_i64(a) + RingElem::from_i64(b));
        }
    }
}
