//! Trust annotations on columns (§4.3 of the paper).
//!
//! A *trust set* names the parties authorized to learn the values of a column
//! in the clear. The owning party of an input relation is implicitly trusted
//! with all its columns, output recipients are trusted with output columns,
//! and a *public* column is trusted by every party.

use crate::party::{PartyId, PartySet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The set of parties authorized to see a column in cleartext.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrustSet {
    /// Every party (current and future) may learn the column: it is public.
    Public,
    /// Only the listed parties may learn the column.
    Parties(PartySet),
}

impl Default for TrustSet {
    fn default() -> Self {
        TrustSet::Parties(PartySet::empty())
    }
}

impl TrustSet {
    /// A trust set containing no parties: the column is private to its owner.
    pub fn private() -> Self {
        TrustSet::Parties(PartySet::empty())
    }

    /// A trust set with exactly the given parties.
    pub fn of<I: IntoIterator<Item = PartyId>>(parties: I) -> Self {
        TrustSet::Parties(PartySet::from_ids(parties))
    }

    /// Returns `true` if the column is public.
    pub fn is_public(&self) -> bool {
        matches!(self, TrustSet::Public)
    }

    /// Returns `true` if `party` is authorized to learn this column.
    pub fn trusts(&self, party: PartyId) -> bool {
        match self {
            TrustSet::Public => true,
            TrustSet::Parties(set) => set.contains(party),
        }
    }

    /// Adds a party to the trust set (no-op for public columns).
    pub fn add(&mut self, party: PartyId) {
        if let TrustSet::Parties(set) = self {
            set.insert(party);
        }
    }

    /// Intersection of two trust sets. This is the propagation rule from
    /// §5.1: a derived column may only be revealed to parties trusted with
    /// *all* operand columns it depends on.
    pub fn intersect(&self, other: &TrustSet) -> TrustSet {
        match (self, other) {
            (TrustSet::Public, o) => o.clone(),
            (s, TrustSet::Public) => s.clone(),
            (TrustSet::Parties(a), TrustSet::Parties(b)) => TrustSet::Parties(a.intersection(b)),
        }
    }

    /// The explicit party set, if the trust set is not public.
    pub fn parties(&self) -> Option<&PartySet> {
        match self {
            TrustSet::Public => None,
            TrustSet::Parties(p) => Some(p),
        }
    }

    /// Returns the set of parties in `universe` trusted with this column.
    pub fn trusted_within(&self, universe: &PartySet) -> PartySet {
        match self {
            TrustSet::Public => universe.clone(),
            TrustSet::Parties(p) => p.intersection(universe),
        }
    }
}

impl fmt::Display for TrustSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrustSet::Public => write!(f, "public"),
            TrustSet::Parties(p) if p.is_empty() => write!(f, "private"),
            TrustSet::Parties(p) => write!(f, "trust{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_private() {
        let t = TrustSet::default();
        assert!(!t.is_public());
        assert!(!t.trusts(1));
        assert_eq!(t.to_string(), "private");
    }

    #[test]
    fn public_trusts_everyone() {
        let t = TrustSet::Public;
        assert!(t.trusts(1));
        assert!(t.trusts(999));
        assert_eq!(t.to_string(), "public");
        assert!(t.parties().is_none());
    }

    #[test]
    fn add_and_trusts() {
        let mut t = TrustSet::private();
        t.add(3);
        assert!(t.trusts(3));
        assert!(!t.trusts(4));
        assert_eq!(t.to_string(), "trust{3}");
        // Adding to public is a no-op.
        let mut p = TrustSet::Public;
        p.add(1);
        assert!(p.is_public());
    }

    #[test]
    fn intersection_rules() {
        let a = TrustSet::of([1, 2]);
        let b = TrustSet::of([2, 3]);
        let i = a.intersect(&b);
        assert!(i.trusts(2));
        assert!(!i.trusts(1));
        assert!(!i.trusts(3));
        // Public is the identity for intersection.
        assert_eq!(TrustSet::Public.intersect(&a), a);
        assert_eq!(a.intersect(&TrustSet::Public), a);
    }

    #[test]
    fn trusted_within_universe() {
        let universe = PartySet::from_ids([1, 2, 3]);
        assert_eq!(
            TrustSet::Public.trusted_within(&universe).len(),
            3,
            "public column is trusted by all parties in the universe"
        );
        let t = TrustSet::of([2, 9]);
        let w = t.trusted_within(&universe);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![2]);
    }
}
