//! Word-level codec for query results, and the client side of the wire API.
//!
//! The serving protocol frames ([`conclave_net::serve`]) carry opaque `u64`
//! word payloads; this module owns the encoding of a query's per-recipient
//! output relations into those words:
//!
//! ```text
//! [n_outputs]
//!   per output: [party] [n_cols] (packed name, [dtype])*  [n_rows] rows…
//!   per value:  [tag]  tag 0=NULL, 1=INT(word), 2=FLOAT(bits),
//!                      3=STR(packed), 4=BOOL(0/1)
//! ```
//!
//! A reply is outside input to the client, so [`decode_outputs`] does work
//! and allocates in proportion to the words it was handed, never to a count
//! it read: an output costs at least 3 words, a column 2, a value 1, and a
//! count the remaining words cannot back is an error before anything is
//! reserved or looped for it. Rows of a relation with no columns would cost
//! no words at all, so such a relation carries no rows on the wire (its row
//! count must be 0).
//!
//! Trust annotations are *not* carried: a wire result is cleartext already
//! revealed to its recipient, so the decoded schema is plain named/typed
//! columns.

use crate::error::{ServerError, ERR_BAD_RESULT};
use conclave_engine::Relation;
use conclave_ir::party::PartyId;
use conclave_ir::schema::{ColumnDef, Schema};
use conclave_ir::types::{DataType, Value};
use conclave_net::serve::{pack_text, submit_sql, unpack_error, unpack_text};
use conclave_net::{MessageKind, Transport};
use std::collections::BTreeMap;

const TAG_NULL: u64 = 0;
const TAG_INT: u64 = 1;
const TAG_FLOAT: u64 = 2;
const TAG_STR: u64 = 3;
const TAG_BOOL: u64 = 4;

fn dtype_code(dtype: DataType) -> u64 {
    match dtype {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn dtype_from_code(code: u64) -> Result<DataType, String> {
    Ok(match code {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        other => return Err(format!("unknown column type code {other}")),
    })
}

/// Encodes per-recipient output relations into a result payload.
pub fn encode_outputs(outputs: &BTreeMap<PartyId, Relation>) -> Vec<u64> {
    let mut words = vec![outputs.len() as u64];
    for (party, rel) in outputs {
        words.push(u64::from(*party));
        words.push(rel.schema.len() as u64);
        for col in &rel.schema.columns {
            words.extend(pack_text(&col.name));
            words.push(dtype_code(col.dtype));
        }
        words.push(rel.rows.len() as u64);
        for row in &rel.rows {
            for value in row {
                match value {
                    Value::Null => words.push(TAG_NULL),
                    Value::Int(v) => {
                        words.push(TAG_INT);
                        words.push(*v as u64);
                    }
                    Value::Float(v) => {
                        words.push(TAG_FLOAT);
                        words.push(v.to_bits());
                    }
                    Value::Str(s) => {
                        words.push(TAG_STR);
                        words.extend(pack_text(s));
                    }
                    Value::Bool(b) => {
                        words.push(TAG_BOOL);
                        words.push(u64::from(*b));
                    }
                }
            }
        }
    }
    words
}

struct Cursor<'a> {
    words: &'a [u64],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Result<u64, String> {
        let word = *self
            .words
            .get(self.at)
            .ok_or_else(|| format!("result payload truncated at word {}", self.at))?;
        self.at += 1;
        Ok(word)
    }

    /// Reads a count of items that each cost at least `min_words` (≥ 1)
    /// further words, rejecting one the rest of the payload cannot back.
    fn count(&mut self, what: &str, min_words: usize) -> Result<usize, String> {
        let n = self.next()?;
        let left = self.words.len() - self.at;
        if n > (left / min_words) as u64 {
            return Err(format!(
                "payload claims {n} {what} of at least {min_words} words each with {left} words left"
            ));
        }
        Ok(n as usize)
    }

    fn text(&mut self) -> Result<String, String> {
        let len = self.next()? as usize;
        let body_words = len.div_ceil(8);
        let end = self.at + body_words;
        if end > self.words.len() {
            return Err(format!("text of {len} bytes truncated at word {}", self.at));
        }
        let mut framed = Vec::with_capacity(1 + body_words);
        framed.push(len as u64);
        framed.extend_from_slice(&self.words[self.at..end]);
        self.at = end;
        unpack_text(&framed)
    }
}

/// Decodes a result payload back into per-recipient relations.
pub fn decode_outputs(words: &[u64]) -> Result<BTreeMap<PartyId, Relation>, String> {
    let mut cur = Cursor { words, at: 0 };
    let n_outputs = cur.count("outputs", 3)?;
    let mut outputs = BTreeMap::new();
    for _ in 0..n_outputs {
        let party = PartyId::try_from(cur.next()?).map_err(|e| format!("bad party id: {e}"))?;
        let n_cols = cur.count("columns", 2)?;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let name = cur.text()?;
            let dtype = dtype_from_code(cur.next()?)?;
            columns.push(ColumnDef::new(name, dtype));
        }
        let n_rows = if n_cols == 0 {
            match cur.next()? {
                0 => 0,
                n => return Err(format!("{n} rows claimed for a relation with no columns")),
            }
        } else {
            cur.count("rows", n_cols)?
        };
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                row.push(match cur.next()? {
                    TAG_NULL => Value::Null,
                    TAG_INT => Value::Int(cur.next()? as i64),
                    TAG_FLOAT => Value::Float(f64::from_bits(cur.next()?)),
                    TAG_STR => Value::Str(cur.text()?),
                    TAG_BOOL => Value::Bool(cur.next()? != 0),
                    other => return Err(format!("unknown value tag {other}")),
                });
            }
            rows.push(row);
        }
        let rel = Relation::new(Schema::new(columns), rows).map_err(|e| e.to_string())?;
        outputs.insert(party, rel);
    }
    if cur.at != words.len() {
        return Err(format!(
            "{} trailing words after the last output",
            words.len() - cur.at
        ));
    }
    Ok(outputs)
}

/// Submits one query over an established client link (party 0 of a
/// two-endpoint transport) and decodes the reply: the remote equivalent of
/// `ServerHandle::query`.
pub fn query_remote(
    link: &dyn Transport,
    tenant: &str,
    sql: &str,
) -> Result<BTreeMap<PartyId, Relation>, ServerError> {
    let reply = submit_sql(link, tenant, sql).map_err(|e| ServerError::Remote {
        code: ERR_BAD_RESULT,
        message: format!("transport failure: {e}"),
    })?;
    match reply.kind {
        MessageKind::QueryResult => {
            decode_outputs(&reply.payload).map_err(|message| ServerError::Remote {
                code: ERR_BAD_RESULT,
                message,
            })
        }
        MessageKind::QueryError => {
            let (code, message) =
                unpack_error(&reply.payload).map_err(|message| ServerError::Remote {
                    code: ERR_BAD_RESULT,
                    message,
                })?;
            Err(ServerError::Remote { code, message })
        }
        other => Err(ServerError::Remote {
            code: ERR_BAD_RESULT,
            message: format!("unexpected reply frame {other}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn outputs_round_trip_through_the_codec() {
        let mut outputs = BTreeMap::new();
        outputs.insert(
            1,
            Relation::new(
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("name", DataType::Str),
                    ColumnDef::new("avg", DataType::Float),
                    ColumnDef::new("ok", DataType::Bool),
                ]),
                vec![
                    vec![
                        Value::Int(-7),
                        Value::Str("acme".into()),
                        Value::Float(2.5),
                        Value::Bool(true),
                    ],
                    vec![
                        Value::Null,
                        Value::Str(String::new()),
                        Value::Null,
                        Value::Bool(false),
                    ],
                ],
            )
            .unwrap(),
        );
        outputs.insert(3, Relation::from_ints(&["x"], &[]));
        let words = encode_outputs(&outputs);
        let decoded = decode_outputs(&words).unwrap();
        assert_eq!(decoded, outputs);
    }

    #[test]
    fn truncated_and_malformed_payloads_are_typed_errors() {
        let mut outputs = BTreeMap::new();
        outputs.insert(1, Relation::from_ints(&["a"], &[vec![5]]));
        let words = encode_outputs(&outputs);
        for cut in 0..words.len() {
            assert!(decode_outputs(&words[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = words.clone();
        trailing.push(0);
        assert!(decode_outputs(&trailing).unwrap_err().contains("trailing"));
        let mut bad_tag = words;
        *bad_tag.last_mut().unwrap() = 99;
        // The tag position depends on layout: the last word is the INT value,
        // the one before it the tag.
        let len = bad_tag.len();
        bad_tag[len - 2] = 99;
        assert!(decode_outputs(&bad_tag[..len - 1])
            .unwrap_err()
            .contains("unknown value tag"));
        // Counts the payload cannot back are refused before anything is
        // reserved or iterated for them: these used to panic with "capacity
        // overflow", abort on a 64 TiB allocation, and spin building empty
        // rows (forever at u64::MAX).
        let started = std::time::Instant::now();
        for hostile in [
            vec![1, 0, u64::MAX],
            vec![1, 0, 1 << 40],
            vec![1, 0, 0, 50_000_000],
            vec![1, 0, 0, u64::MAX],
            vec![u64::MAX],
            vec![1, 0, 1, 0, 0, u64::MAX],
        ] {
            assert!(decode_outputs(&hostile).is_err(), "{hostile:?}");
        }
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    /// A relation of `dtypes`-typed columns and `n_rows` rows whose cells
    /// cycle through `cells`: `(0, ..)` is NULL, otherwise the raw integer or
    /// the (possibly empty) text, as the column's type reads it.
    fn relation_from(dtypes: &[u64], n_rows: usize, cells: &[(u8, i64, Vec<u8>)]) -> Relation {
        let columns = dtypes
            .iter()
            .enumerate()
            .map(|(i, &code)| ColumnDef::new(format!("c{i}"), dtype_from_code(code).unwrap()))
            .collect();
        let mut cycle = cells.iter().cycle();
        let rows = (0..if dtypes.is_empty() { 0 } else { n_rows })
            .map(|_| {
                dtypes
                    .iter()
                    .map(|&code| match (cycle.next().unwrap(), code) {
                        ((0, _, _), _) => Value::Null,
                        ((_, raw, _), 0) => Value::Int(*raw),
                        ((_, raw, _), 1) => Value::Float(*raw as f64 / 8.0),
                        ((_, _, text), 2) => Value::Str(String::from_utf8(text.clone()).unwrap()),
                        ((_, raw, _), _) => Value::Bool(raw & 1 == 1),
                    })
                    .collect()
            })
            .collect();
        Relation::new(Schema::new(columns), rows).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `decode(encode(x)) == x` for relations of all four column types,
        /// NULLs and empty strings included; and no single-word corruption
        /// of such a payload makes the decoder panic.
        #[test]
        fn random_relations_round_trip_and_survive_mutation(
            party in 0u32..8,
            dtypes in prop::collection::vec(0u64..4, 0..5),
            n_rows in 0usize..6,
            cells in prop::collection::vec(
                (0u8..4, any::<i64>(), prop::collection::vec(32u8..127, 0..12)),
                1..24,
            ),
            at in any::<usize>(),
            word in prop_oneof![3 => 0u64..8, 1 => any::<u64>()],
        ) {
            let mut outputs = BTreeMap::new();
            outputs.insert(party, relation_from(&dtypes, n_rows, &cells));
            outputs.insert(party + 1, relation_from(&dtypes[..dtypes.len() / 2], 1, &cells));
            let mut words = encode_outputs(&outputs);
            prop_assert_eq!(decode_outputs(&words).unwrap(), outputs);
            let at = at % words.len();
            words[at] = word;
            let _ = decode_outputs(&words);
        }

        /// Arbitrary words — small ones, so that counts and tags are often
        /// plausible, mixed with wild ones — never panic the decoder.
        #[test]
        fn random_words_never_panic(
            words in prop::collection::vec(prop_oneof![3 => 0u64..6, 1 => any::<u64>()], 0..48),
        ) {
            let _ = decode_outputs(&words);
        }
    }
}
