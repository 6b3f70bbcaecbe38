//! The engine abstraction the oblivious operators are written against.
//!
//! An [`Engine`] is the handful of share-level primitives a relational
//! operator needs: local linear algebra, batched non-linear rounds
//! (multiply, compare, multiplex), opening, cost charging and a shuffle
//! permutation. [`crate::operators`] implements every oblivious operator
//! **once** over this trait; the crate has exactly two engines:
//!
//! * [`crate::protocol::Protocol`] — a counting cleartext engine: its share
//!   is the value itself, every primitive computes in the clear in one
//!   process and charges the counts of the real protocol (the cost
//!   simulator behind `PartyRuntime::Simulated`'s pipeline and the hybrids);
//! * [`crate::runtime::StepCtx`] — one party's MAC-authenticated shares over a
//!   [`conclave_net::Transport`], comparisons by real circuits.
//!
//! Both shares are a word or two, so [`Engine::Share`] is `Copy` and every
//! method takes shares **by value**: an operator builds a batch as a plain
//! `Vec<(S, S)>` and the engine reads it as a slice, with no reference
//! indirection for either engine to copy out of.

use crate::cost::PrimitiveCounts;
use std::fmt;

/// A failure of operator *logic*, independent of the engine running it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// The operator was applied to inputs it cannot run on (unknown column,
    /// wrong arity, out-of-range oblivious index).
    Invalid(String),
    /// The operator (or predicate form) has no MPC implementation.
    Unsupported(String),
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Invalid(s) => write!(f, "invalid MPC operator input: {s}"),
            OpError::Unsupported(s) => write!(f, "unsupported under MPC: {s}"),
        }
    }
}

impl std::error::Error for OpError {}

/// Result of an engine primitive or a generic operator.
pub type EngineResult<E, T> = Result<T, <E as Engine>::Error>;

/// One side of a comparison: a shared value or a public constant. A share
/// converts into [`CmpArg::Shared`], so a batch of plain share pairs is a
/// valid comparison batch as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpArg<S> {
    /// A secret-shared operand.
    Shared(S),
    /// An operand every party knows, such as a predicate's literal.
    Public(i64),
}

impl<S> From<S> for CmpArg<S> {
    fn from(s: S) -> Self {
        CmpArg::Shared(s)
    }
}

/// Share-level primitives of one MPC engine. Every non-linear method is a
/// *batch*: an engine that communicates pays its rounds once per call, not
/// once per element.
pub trait Engine {
    /// One secret-shared value as this engine holds it.
    type Share: Copy;
    /// The engine's failure type; operator-logic failures convert into it.
    type Error: From<OpError>;

    /// A sharing of the public constant `v`.
    fn constant(&self, v: i64) -> Self::Share;
    /// Local addition.
    fn add(&self, x: Self::Share, y: Self::Share) -> Self::Share;
    /// Local subtraction.
    fn sub(&self, x: Self::Share, y: Self::Share) -> Self::Share;
    /// Local addition of a public constant.
    fn add_public(&self, x: Self::Share, c: i64) -> Self::Share;
    /// Local multiplication by a public constant.
    fn mul_public(&self, x: Self::Share, c: i64) -> Self::Share;

    /// Element-wise products `x·y`.
    fn mul_batch(
        &mut self,
        pairs: &[(Self::Share, Self::Share)],
    ) -> EngineResult<Self, Vec<Self::Share>>;
    /// Element-wise signed less-than: a sharing of `1` where `x < y`, else `0`.
    /// Either side of a pair may be public ([`CmpArg`]).
    fn lt_batch<P: Copy + Into<CmpArg<Self::Share>>>(
        &mut self,
        pairs: &[(P, P)],
    ) -> EngineResult<Self, Vec<Self::Share>>;
    /// Element-wise equality over several independent batches at once (one
    /// flag vector per group), so an engine can coalesce them into the rounds
    /// of a single batch.
    fn eq_batch_groups(
        &mut self,
        groups: &[Vec<(Self::Share, Self::Share)>],
    ) -> EngineResult<Self, Vec<Vec<Self::Share>>>;
    /// Element-wise multiplexer over `(c, a, b)`: `a` where the shared bit
    /// `c` is 1, else `b`.
    fn mux_batch(
        &mut self,
        selectors: &[(Self::Share, Self::Share, Self::Share)],
    ) -> EngineResult<Self, Vec<Self::Share>>;
    /// Opens a batch of shared values to every party.
    fn open_column(&mut self, shares: &[Self::Share]) -> EngineResult<Self, Vec<i64>>;

    /// Adds analytically-derived primitive counts (for sub-protocols whose
    /// cost is charged rather than executed).
    fn charge(&mut self, extra: &PrimitiveCounts);
    /// Charges an oblivious shuffle of `elements` field elements.
    fn charge_shuffle(&mut self, elements: u64);
    /// A random permutation of `0..n` that stays inside the engine.
    fn random_permutation(&mut self, n: usize) -> Vec<usize>;
}
