//! SPDZ-authenticated additive secret shares.
//!
//! A value `x` is split into `n` random shares that sum to `x` in
//! `Z_{2^64}`. Each computing party holds one share; no strict subset of the
//! parties learns anything about `x`. Linear operations (addition,
//! subtraction, multiplication by public constants) are local; products of
//! two shared values require a Beaver triple and one communication round
//! (see [`crate::runtime::StepCtx::mul_batch`]).
//!
//! [`AuthShare`] is the party-side view the distributed runtime computes on:
//! one party's share of the value paired with its share of the value's SPDZ
//! MAC `α·x` under the additively-shared global key `α`. (The in-process
//! [`crate::protocol::Protocol`] engine holds no shares at all: it computes
//! on the values themselves.)

use crate::ring::RingElem;

/// One party's SPDZ-style authenticated share of a secret value: the additive
/// value share `v` together with an additive share `m` of the value's MAC
/// `α·x`, where `α` is a global key that is itself additively shared (party
/// `i` holds `α_i`, `Σ α_i = α`). The invariant across all parties is
/// `Σ m_i = α · (Σ v_i)`.
///
/// Linear operations are componentwise and local. Operations that involve a
/// *public* constant `c` are **not** symmetric between the components — the
/// value adjustment lands on one designated party while every party adjusts
/// its MAC by `α_i·c` — so they live on the session (which knows the party
/// index and `α_i`), not here.
///
/// An unauthenticated session carries the same type and simply never reads
/// `m`, so one cell representation serves both modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuthShare {
    /// This party's additive share of the value.
    pub v: RingElem,
    /// This party's additive share of the MAC `α·x`.
    pub m: RingElem,
}

impl AuthShare {
    /// The all-zero share (a valid sharing of zero under any key).
    pub const ZERO: AuthShare = AuthShare {
        v: RingElem::ZERO,
        m: RingElem::ZERO,
    };

    /// Pairs a value share with its MAC share.
    pub fn new(v: RingElem, m: RingElem) -> Self {
        AuthShare { v, m }
    }

    /// Local multiplication by a public constant (scales both components:
    /// `α·(c·x) = c·(α·x)`).
    pub fn mul_public(self, c: RingElem) -> Self {
        AuthShare {
            v: self.v * c,
            m: self.m * c,
        }
    }
}

impl std::ops::Add for AuthShare {
    type Output = AuthShare;
    fn add(self, rhs: AuthShare) -> AuthShare {
        AuthShare {
            v: self.v + rhs.v,
            m: self.m + rhs.m,
        }
    }
}

impl std::ops::Sub for AuthShare {
    type Output = AuthShare;
    fn sub(self, rhs: AuthShare) -> AuthShare {
        AuthShare {
            v: self.v - rhs.v,
            m: self.m - rhs.m,
        }
    }
}

impl std::ops::AddAssign for AuthShare {
    fn add_assign(&mut self, rhs: AuthShare) {
        *self = *self + rhs;
    }
}

impl std::ops::SubAssign for AuthShare {
    fn sub_assign(&mut self, rhs: AuthShare) {
        *self = *self - rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auth_share_linear_ops_preserve_the_mac_invariant() {
        // Two parties, key α = α₀ + α₁. Hand-build sharings of 10 and -4 and
        // check the invariant Σm = α·Σv through add/sub/mul_public.
        let alpha = RingElem::from_i64(17);
        let mk = |v0: i64, v1: i64| {
            let x = RingElem::from_i64(v0) + RingElem::from_i64(v1);
            let m0 = RingElem::from_i64(3);
            let m1 = alpha * x - m0;
            [
                AuthShare::new(RingElem::from_i64(v0), m0),
                AuthShare::new(RingElem::from_i64(v1), m1),
            ]
        };
        let a = mk(7, 3);
        let b = mk(-9, 5);
        let check = |s: [AuthShare; 2], expect: i64| {
            let v = s[0].v + s[1].v;
            let m = s[0].m + s[1].m;
            assert_eq!(v.to_i64(), expect);
            assert_eq!(m, alpha * v, "MAC invariant broken");
        };
        check([a[0] + b[0], a[1] + b[1]], 6);
        check([a[0] - b[0], a[1] - b[1]], 14);
        let c = RingElem::from_i64(-3);
        check([a[0].mul_public(c), a[1].mul_public(c)], -30);
        let mut acc = a[0];
        acc += b[0];
        acc -= b[0];
        assert_eq!(acc, a[0]);
        assert_eq!(AuthShare::ZERO.v, RingElem::ZERO);
    }
}
