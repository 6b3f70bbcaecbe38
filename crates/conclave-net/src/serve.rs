//! Serving-layer framing: the `SubmitSql` / `QueryResult` / `QueryError`
//! envelope protocol spoken between an analyst client and a
//! `conclave-server` endpoint, plus a generic listener loop.
//!
//! The protocol runs over an ordinary two-endpoint [`Transport`] link (party
//! 0 = client, party 1 = server), so it works unchanged over in-process
//! channels and TCP. Frames are:
//!
//! * [`MessageKind::SubmitSql`] — label carries the tenant name, payload the
//!   UTF-8 query text packed into words by [`pack_text`].
//! * [`MessageKind::QueryResult`] — payload is an opaque word encoding of the
//!   result relations (the serving crate owns that codec; this module only
//!   frames it).
//! * [`MessageKind::QueryError`] — payload word 0 is a numeric error code
//!   owned by the serving crate, the rest is a packed human-readable message.
//!
//! This module deliberately knows nothing about SQL, plans or relations: the
//! server passes a handler closure to [`serve_queries`], keeping the
//! dependency direction `conclave-server → conclave-net`.

use crate::message::MessageKind;
use crate::transport::{Envelope, Transport, TransportError};

/// Error code a listener uses when the request frame itself is malformed
/// (bad packing, wrong kind). Serving crates start their own codes at 1.
pub const WIRE_ERR_MALFORMED: u64 = 0;

/// Packs UTF-8 text into words: word 0 is the byte length, followed by the
/// bytes in little-endian order, eight per word.
pub fn pack_text(text: &str) -> Vec<u64> {
    let bytes = text.as_bytes();
    let mut words = Vec::with_capacity(1 + bytes.len().div_ceil(8));
    words.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(buf));
    }
    words
}

/// Reverses [`pack_text`]. Returns a description of the defect on malformed
/// input (truncated payload, length mismatch, invalid UTF-8).
pub fn unpack_text(words: &[u64]) -> Result<String, String> {
    let Some((&len, body)) = words.split_first() else {
        return Err("empty text payload".into());
    };
    let len = len as usize;
    if body.len() != len.div_ceil(8) {
        return Err(format!(
            "text payload of {} bytes needs {} words, got {}",
            len,
            len.div_ceil(8),
            body.len()
        ));
    }
    let mut bytes = Vec::with_capacity(len);
    for word in body {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes.truncate(len);
    String::from_utf8(bytes).map_err(|e| format!("text payload is not UTF-8: {e}"))
}

/// Consumes text alongside a leading code word: the inverse of building a
/// `QueryError` payload (`[code, packed message…]`).
pub fn unpack_error(words: &[u64]) -> Result<(u64, String), String> {
    let Some((&code, rest)) = words.split_first() else {
        return Err("empty error payload".into());
    };
    Ok((code, unpack_text(rest)?))
}

/// Serves `SubmitSql` requests arriving on `link` until the peer disconnects.
///
/// For each request, `handler(tenant, sql)` either returns the result payload
/// words (sent back as [`MessageKind::QueryResult`]) or a `(code, message)`
/// error (sent back as [`MessageKind::QueryError`]). Receive timeouts are
/// idle polls, not failures; a clean disconnect ends the loop with `Ok(())`.
pub fn serve_queries<F>(link: &dyn Transport, mut handler: F) -> Result<(), TransportError>
where
    F: FnMut(&str, &str) -> Result<Vec<u64>, (u64, String)>,
{
    let peer = 1 - link.party();
    loop {
        let env = match link.recv_from(peer) {
            Ok(env) => env,
            Err(TransportError::Timeout { .. }) => continue,
            Err(TransportError::Disconnected { .. }) => return Ok(()),
            Err(e) => return Err(e),
        };
        let reply = match request_sql(&env) {
            Ok(sql) => handler(&env.label, &sql),
            Err(msg) => Err((WIRE_ERR_MALFORMED, msg)),
        };
        match reply {
            Ok(words) => link.send_to(peer, MessageKind::QueryResult, &env.label, &words)?,
            Err((code, message)) => {
                let mut words = vec![code];
                words.extend(pack_text(&message));
                link.send_to(peer, MessageKind::QueryError, &env.label, &words)?;
            }
        }
    }
}

fn request_sql(env: &Envelope) -> Result<String, String> {
    if env.kind != MessageKind::SubmitSql {
        return Err(format!("expected a submit-sql frame, got {}", env.kind));
    }
    unpack_text(&env.payload)
}

/// Client side of [`serve_queries`]: submits one query for `tenant` and
/// blocks until the matching `QueryResult`/`QueryError` envelope arrives
/// (receive timeouts are treated as "still running", not failures).
pub fn submit_sql(
    link: &dyn Transport,
    tenant: &str,
    sql: &str,
) -> Result<Envelope, TransportError> {
    let peer = 1 - link.party();
    link.send_to(peer, MessageKind::SubmitSql, tenant, &pack_text(sql))?;
    loop {
        match link.recv_from(peer) {
            Ok(env) => return Ok(env),
            Err(TransportError::Timeout { .. }) => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::transport::ChannelTransport;
    use proptest::prelude::*;

    #[test]
    fn text_packing_round_trips() {
        for text in [
            "",
            "x",
            "exactly8",
            "SELECT a FROM t REVEAL TO p1; -- ünïcode",
        ] {
            let words = pack_text(text);
            assert_eq!(unpack_text(&words).unwrap(), text);
        }
        assert!(unpack_text(&[]).is_err());
        assert!(unpack_text(&[9, 0]).is_err()); // 9 bytes need 2 words
        assert!(unpack_text(&[2, 0xFFFF]).is_err()); // invalid UTF-8
    }

    #[test]
    fn serve_loop_round_trips_results_and_errors() {
        let mut mesh = ChannelTransport::mesh(2);
        let server_end = mesh.pop().unwrap();
        let client = mesh.pop().unwrap();
        let server = std::thread::spawn(move || {
            serve_queries(&server_end, |tenant, sql| {
                if tenant == "acme" {
                    Ok(pack_text(&format!("ran: {sql}")))
                } else {
                    Err((7, format!("unknown tenant {tenant}")))
                }
            })
        });
        let ok = submit_sql(&client, "acme", "SELECT 1").unwrap();
        assert_eq!(ok.kind, MessageKind::QueryResult);
        assert_eq!(unpack_text(&ok.payload).unwrap(), "ran: SELECT 1");
        let err = submit_sql(&client, "ghost", "SELECT 1").unwrap();
        assert_eq!(err.kind, MessageKind::QueryError);
        let (code, msg) = unpack_error(&err.payload).unwrap();
        assert_eq!(code, 7);
        assert!(msg.contains("ghost"));
        drop(client);
        server.join().unwrap().unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary words unpack to text or a defect, never a panic; text
        /// is accepted only at the length its first word declares.
        #[test]
        fn unpacking_arbitrary_words_never_panics(
            words in prop::collection::vec(any::<u64>(), 0..8),
            short in any::<bool>(),
        ) {
            let mut words = words;
            if short && !words.is_empty() {
                words[0] %= 64; // often a length the body can carry
            }
            if let Ok(text) = unpack_text(&words) {
                prop_assert_eq!(text.len() as u64, words[0]);
            }
            if let Ok((code, text)) = unpack_error(&words) {
                prop_assert_eq!(code, words[0]);
                prop_assert_eq!(text.len() as u64, words[1]);
            }
        }

        /// A request of the wrong kind (any but an abort, which ends the
        /// link), or a submit-sql frame whose payload does not unpack, is
        /// answered with a `WIRE_ERR_MALFORMED` error, and the loop goes on
        /// to serve the next request.
        #[test]
        fn malformed_requests_are_answered_and_the_loop_goes_on(
            code in 0u8..10,
            payload in prop::collection::vec(any::<u64>(), 0..6),
        ) {
            let kind = MessageKind::from_code(code).unwrap();
            let mut mesh = ChannelTransport::mesh(2);
            let server_end = mesh.pop().unwrap();
            let client = mesh.pop().unwrap();
            let server = std::thread::spawn(move || {
                serve_queries(&server_end, |_, sql| Ok(pack_text(sql)))
            });
            client.send_to(1, kind, "t", &payload).unwrap();
            let reply = client.recv_from(1).unwrap();
            if kind == MessageKind::SubmitSql && unpack_text(&payload).is_ok() {
                prop_assert_eq!(reply.kind, MessageKind::QueryResult);
            } else {
                prop_assert_eq!(reply.kind, MessageKind::QueryError);
                prop_assert_eq!(unpack_error(&reply.payload).unwrap().0, WIRE_ERR_MALFORMED);
            }
            let next = submit_sql(&client, "t", "SELECT 1").unwrap();
            prop_assert_eq!(next.kind, MessageKind::QueryResult);
            prop_assert_eq!(unpack_text(&next.payload).unwrap(), "SELECT 1");
            drop(client);
            prop_assert!(server.join().unwrap().is_ok());
        }
    }
}
