//! The kinds of payload a message carries.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of payload a message carries. Used for per-kind traffic stats and
/// for the leakage audit in `conclave-core` (e.g. "a reveal message was sent to a
/// party that is not authorized").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MessageKind {
    /// Secret shares moving into or between MPC endpoints.
    SecretShare,
    /// Cleartext data revealed to a specific party (e.g. the STP).
    Reveal,
    /// Cleartext data sent as part of a public (non-MPC) exchange.
    Cleartext,
    /// Protocol control traffic (round synchronization, triple distribution).
    Control,
    /// Masked protocol openings: values of the form `x - r` for a uniformly
    /// random mask `r` (Beaver `d`/`e` terms, circuit bit-decomposition
    /// openings). These carry data-plane bytes but reveal nothing about the
    /// underlying secrets; they are attributed separately from genuine
    /// [`MessageKind::Reveal`] traffic so per-kind byte stats distinguish
    /// "opened on purpose" from "opened because the protocol math says it is
    /// uniform".
    MaskedOpen,
    /// Offline-phase dealer traffic: correlated-randomness blocks (Beaver
    /// triples, bit-triples, daBits, input masks) streamed from a dealer to
    /// one party, plus the parties' block requests. Attributed separately so
    /// per-kind stats split the offline phase from online data-plane bytes.
    Dealer,
    /// SPDZ MAC-check traffic: commitments to and openings of the parties'
    /// MAC-difference shares at integrity-check boundaries. Carries no
    /// data-plane payload — only the zero-sum check values.
    MacCheck,
    /// Serving-layer request: an analyst submits an annotated SQL script to a
    /// `conclave-server` endpoint. The envelope label carries the tenant
    /// name; the payload is the UTF-8 query text packed into words.
    SubmitSql,
    /// Serving-layer response: the revealed result relations for a
    /// [`MessageKind::SubmitSql`] request.
    QueryResult,
    /// Serving-layer response: a typed error (admission rejection, SQL or
    /// compile failure, runtime abort) for a [`MessageKind::SubmitSql`]
    /// request.
    QueryError,
}

impl MessageKind {
    /// Stable one-byte wire code used by the TCP transport framing.
    pub fn code(self) -> u8 {
        match self {
            MessageKind::SecretShare => 0,
            MessageKind::Reveal => 1,
            MessageKind::Cleartext => 2,
            MessageKind::Control => 3,
            MessageKind::MaskedOpen => 4,
            MessageKind::Dealer => 5,
            MessageKind::MacCheck => 6,
            MessageKind::SubmitSql => 7,
            MessageKind::QueryResult => 8,
            MessageKind::QueryError => 9,
        }
    }

    /// Decodes a wire code produced by [`MessageKind::code`].
    pub fn from_code(code: u8) -> Option<MessageKind> {
        match code {
            0 => Some(MessageKind::SecretShare),
            1 => Some(MessageKind::Reveal),
            2 => Some(MessageKind::Cleartext),
            3 => Some(MessageKind::Control),
            4 => Some(MessageKind::MaskedOpen),
            5 => Some(MessageKind::Dealer),
            6 => Some(MessageKind::MacCheck),
            7 => Some(MessageKind::SubmitSql),
            8 => Some(MessageKind::QueryResult),
            9 => Some(MessageKind::QueryError),
            _ => None,
        }
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageKind::SecretShare => "share",
            MessageKind::Reveal => "reveal",
            MessageKind::Cleartext => "cleartext",
            MessageKind::Control => "control",
            MessageKind::MaskedOpen => "masked-open",
            MessageKind::Dealer => "dealer",
            MessageKind::MacCheck => "mac-check",
            MessageKind::SubmitSql => "submit-sql",
            MessageKind::QueryResult => "query-result",
            MessageKind::QueryError => "query-error",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(MessageKind::SecretShare.to_string(), "share");
        assert_eq!(MessageKind::Cleartext.to_string(), "cleartext");
        assert_eq!(MessageKind::Control.to_string(), "control");
        assert_eq!(MessageKind::MaskedOpen.to_string(), "masked-open");
        assert_eq!(MessageKind::Dealer.to_string(), "dealer");
        assert_eq!(MessageKind::MacCheck.to_string(), "mac-check");
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in [
            MessageKind::SecretShare,
            MessageKind::Reveal,
            MessageKind::Cleartext,
            MessageKind::Control,
            MessageKind::MaskedOpen,
            MessageKind::Dealer,
            MessageKind::MacCheck,
            MessageKind::SubmitSql,
            MessageKind::QueryResult,
            MessageKind::QueryError,
        ] {
            assert_eq!(MessageKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(MessageKind::from_code(200), None);
    }
}
