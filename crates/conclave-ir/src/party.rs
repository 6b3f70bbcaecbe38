//! Parties participating in a Conclave computation.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Numeric identifier of a party (stable across the whole computation).
pub type PartyId = u32;

/// A participant in the multi-party computation.
///
/// A party stores input relations, runs a local cleartext engine, and hosts
/// one endpoint of the MPC backend. In the paper's deployment a party maps to
/// one organization's private infrastructure (e.g. `mpc.ftc.gov`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Party {
    /// Stable identifier.
    pub id: PartyId,
    /// Hostname or logical name of the party's agent endpoint.
    pub host: String,
}

impl Party {
    /// Creates a new party with the given id and host name.
    pub fn new(id: PartyId, host: impl Into<String>) -> Self {
        Party {
            id,
            host: host.into(),
        }
    }
}

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}({})", self.id, self.host)
    }
}

/// An ordered set of party identifiers.
///
/// Used for relation ownership, output recipients, and MPC participant sets.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartySet {
    ids: BTreeSet<PartyId>,
}

impl PartySet {
    /// The empty set.
    pub fn empty() -> Self {
        PartySet::default()
    }

    /// Set containing a single party.
    pub fn singleton(id: PartyId) -> Self {
        let mut ids = BTreeSet::new();
        ids.insert(id);
        PartySet { ids }
    }

    /// Builds a set from an iterator of ids.
    pub fn from_ids<I: IntoIterator<Item = PartyId>>(iter: I) -> Self {
        PartySet {
            ids: iter.into_iter().collect(),
        }
    }

    /// Inserts a party id.
    pub fn insert(&mut self, id: PartyId) {
        self.ids.insert(id);
    }

    /// Returns `true` if the set contains `id`.
    pub fn contains(&self, id: PartyId) -> bool {
        self.ids.contains(&id)
    }

    /// Number of parties in the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates over the party ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.ids.iter().copied()
    }

    /// Set intersection.
    pub fn intersection(&self, other: &PartySet) -> PartySet {
        PartySet {
            ids: self.ids.intersection(&other.ids).copied().collect(),
        }
    }

    /// Returns `true` if `self` is a subset of `other`.
    pub fn is_subset(&self, other: &PartySet) -> bool {
        self.ids.is_subset(&other.ids)
    }

    /// Returns the single member if the set is a singleton.
    pub fn sole_member(&self) -> Option<PartyId> {
        if self.ids.len() == 1 {
            self.ids.iter().next().copied()
        } else {
            None
        }
    }

    /// Returns an arbitrary (smallest-id) member, if any.
    pub fn any_member(&self) -> Option<PartyId> {
        self.ids.iter().next().copied()
    }
}

impl FromIterator<PartyId> for PartySet {
    fn from_iter<T: IntoIterator<Item = PartyId>>(iter: T) -> Self {
        PartySet::from_ids(iter)
    }
}

impl fmt::Display for PartySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.ids.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_display() {
        let p = Party::new(1, "mpc.ftc.gov");
        assert_eq!(p.to_string(), "P1(mpc.ftc.gov)");
    }

    #[test]
    fn set_basic_ops() {
        let mut s = PartySet::empty();
        assert!(s.is_empty());
        s.insert(2);
        s.insert(1);
        s.insert(2);
        assert_eq!(s.len(), 2);
        assert!(s.contains(1));
        assert!(!s.contains(3));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(s.to_string(), "{1,2}");
    }

    #[test]
    fn set_algebra() {
        let a = PartySet::from_ids([1, 2, 3]);
        let b = PartySet::from_ids([2, 3, 4]);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![2, 3]);
        assert!(PartySet::singleton(2).is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn sole_and_any_member() {
        assert_eq!(PartySet::singleton(7).sole_member(), Some(7));
        assert_eq!(PartySet::from_ids([1, 2]).sole_member(), None);
        assert_eq!(PartySet::from_ids([5, 3]).any_member(), Some(3));
        assert_eq!(PartySet::empty().any_member(), None);
    }

    #[test]
    fn from_iterator() {
        let s: PartySet = [3, 1, 1].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}
