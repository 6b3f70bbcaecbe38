//! In-memory spans for the traced pass.
//!
//! A span is one call into a layer, recorded from the harness's side of the
//! call: name, start, end, the span that caused it, the query it belongs to
//! and, for work done on a party thread, the party. Spans stay in memory and
//! are written out once, when the traced pass ends.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub query: u32,
    pub party: Option<u32>,
    /// Synchronous rounds and bytes sent by this party's endpoint while the
    /// span was open (zero for spans that do not touch a transport).
    pub rounds: u64,
    pub bytes: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects spans against one time origin. Each party thread records into a
/// recorder of its own (sharing the origin) and the main thread
/// [`absorb`](Recorder::absorb)s it after the join, so recording takes no
/// lock.
#[derive(Debug, Clone)]
pub struct Recorder {
    origin: Instant,
    pub query: u32,
    pub party: Option<u32>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(query: u32) -> Recorder {
        Recorder {
            origin: Instant::now(),
            query,
            party: None,
            spans: Vec::new(),
        }
    }

    /// A recorder for `party`'s thread with the same time origin.
    pub fn for_party(&self, party: u32) -> Recorder {
        Recorder {
            origin: self.origin,
            query: self.query,
            party: Some(party),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            query: self.query,
            party: self.party,
            rounds: 0,
            bytes: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes a span that drove a transport, with what crossed it meanwhile.
    pub fn close_with_traffic(&mut self, id: usize, rounds: u64, bytes: u64) {
        self.close(id);
        self.spans[id].rounds = rounds;
        self.spans[id].bytes = bytes;
    }

    /// Moves a party recorder's spans in; its top-level spans become
    /// children of `parent`.
    pub fn absorb(&mut self, other: Recorder, parent: usize) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + offset));
            s
        }));
    }

    /// Self time: the span's duration minus the part of that interval its
    /// child spans cover. Children on different party threads overlap, so
    /// the covered part is the union of their intervals, not their sum.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (start, end) in children {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        (span.end_ns - span.start_ns) - covered
    }

    /// Total duration in ms of the spans named `name`; with `party`, only
    /// that party's.
    pub fn total_ms(&self, name: &str, party: Option<u32>) -> f64 {
        // `+ 0.0`: the sum of no spans is -0.0, which would print as such.
        self.named(name, party).map(Span::ms).sum::<f64>() + 0.0
    }

    pub fn named<'a>(
        &'a self,
        name: &'a str,
        party: Option<u32>,
    ) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.name == name && (party.is_none() || s.party == party))
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(&s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(self.self_ns(id) as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("query", Json::Num(f64::from(s.query))),
                        (
                            "party",
                            s.party.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("rounds", Json::Num(s.rounds as f64)),
                        ("bytes", Json::Num(s.bytes as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        party: Option<u32>,
    ) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            query: 0,
            party,
            rounds: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let mut rec = Recorder::new(0);
        rec.spans = vec![
            span("query", 0, 100, None, None),
            // Two sequential children: 10..30 and 40..60.
            span("engine", 10, 30, Some(0), None),
            span("segment", 40, 60, Some(0), None),
            // Three party children of the segment that overlap each other.
            span("compute", 40, 55, Some(2), Some(0)),
            span("compute", 42, 58, Some(2), Some(1)),
            span("compute", 41, 50, Some(2), Some(2)),
            // A grandchild does not count against the root.
            span("sort", 43, 48, Some(4), Some(1)),
        ];
        assert_eq!(rec.self_ns(0), 100 - 20 - 20);
        // Union of 40..55, 42..58, 41..50 is 40..58.
        assert_eq!(rec.self_ns(2), 20 - 18);
        assert_eq!(rec.self_ns(4), 16 - 5);
        assert_eq!(rec.self_ns(6), 5);
        assert_eq!(rec.total_ms("compute", None), (15 + 16 + 9) as f64 / 1e6);
        assert_eq!(rec.total_ms("compute", Some(1)), 16.0 / 1e6);
    }

    #[test]
    fn absorbing_a_party_recorder_reparents_its_spans() {
        let mut main = Recorder::new(3);
        let root = main.open("query", None);
        let mut party = main.for_party(2);
        let outer = party.open("compute", None);
        let inner = party.open("sort", Some(outer));
        party.close(inner);
        party.close(outer);
        main.absorb(party, root);
        main.close(root);
        assert_eq!(main.spans[1].parent, Some(0));
        assert_eq!(main.spans[2].parent, Some(1));
        assert_eq!(main.spans[2].party, Some(2));
        assert_eq!(main.spans[2].query, 3);
        assert!(main.spans[0].end_ns >= main.spans[2].end_ns);
        let parsed = Json::parse(&main.to_json().pretty()).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 3);
    }
}
