//! Fuzz-ish certification of [`load_party_file`] against mangled inputs.
//!
//! Dealer files cross a trust boundary: the offline phase may run on a
//! different machine, and the online party loads whatever bytes arrive on
//! disk. A file is the recorded dealer link — little-endian words, a
//! four-word header, then `[n, request frame, block]` records — and is read
//! back by the link's own decoders, so the contract is the link's: *every*
//! malformed file — cut anywhere, overwritten, lying about a count, padded,
//! or missing outright — surfaces as a typed [`PartyError`], never as a
//! panic or an allocation the size of the lie. A clean round trip must keep
//! working.

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave::mpc::dealer::{
    load_party_file, party_file, write_party_files, DealerStream, MaterialBlocks, MaterialSpec,
    Request,
};
use conclave::mpc::runtime::{PartyError, PartyResult};
use proptest::prelude::*;
use std::path::PathBuf;

const PARTIES: usize = 3;

fn small_spec() -> MaterialSpec {
    MaterialSpec {
        triples: 8,
        bit_triples: 6,
        shared_bits: 4,
        dabits: 2,
        input_masks: 3,
    }
}

/// Writes a fresh set of dealer files into a unique temp dir and returns
/// (dir, per-party paths). Callers clean up via [`Scratch`]'s `Drop`.
struct Scratch {
    dir: PathBuf,
    paths: Vec<PathBuf>,
}

impl Scratch {
    fn new(tag: &str, seed: u64) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "conclave-dealer-files-{tag}-{}-{seed}",
            std::process::id()
        ));
        let paths = write_party_files(&dir, seed, PARTIES, small_spec()).unwrap();
        Scratch { dir, paths }
    }

    /// `party`'s file as words.
    fn words(&self, party: usize) -> Vec<u64> {
        let bytes = std::fs::read(&self.paths[party]).unwrap();
        assert_eq!(bytes.len() % 8, 0, "a dealer file is whole words");
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Loads `bytes` as a dealer file.
    fn load_bytes(&self, bytes: &[u8]) -> PartyResult<MaterialBlocks> {
        let path = self.dir.join("mangled.dealer");
        std::fs::write(&path, bytes).unwrap();
        load_party_file(&path)
    }

    /// Loads `words` as a dealer file.
    fn load_words(&self, words: &[u64]) -> PartyResult<MaterialBlocks> {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        self.load_bytes(&bytes)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn proto_error(result: PartyResult<MaterialBlocks>) -> String {
    match result {
        Err(PartyError::Proto(msg)) => msg,
        other => panic!("expected a Proto error, got {other:?}"),
    }
}

/// Positions of the words of `party`'s file that frame it — the header, each
/// record's length word, each request frame — and, of those, the ones no
/// other value can stand in for (the magic, the record count, the lengths).
fn framing_words(party: usize) -> (Vec<usize>, Vec<usize>) {
    // Block lengths depend only on the request, not on the seed.
    let mut stream = DealerStream::new(0, PARTIES);
    let (mut framing, mut rigid) = ((0..4).collect::<Vec<_>>(), vec![0, 3]);
    let mut at = 4;
    for req in std::iter::once(Request::Alpha).chain(small_spec().requests(PARTIES)) {
        let frame = req.encode().len();
        rigid.push(at);
        framing.extend(at..=at + frame);
        at += 1 + frame + stream.deal(party, req).len();
    }
    (framing, rigid)
}

#[test]
fn clean_files_round_trip() {
    let scratch = Scratch::new("roundtrip", 11);
    for (p, path) in scratch.paths.iter().enumerate() {
        assert_eq!(*path, party_file(&scratch.dir, p));
        let blocks = load_party_file(path).unwrap();
        assert_eq!(blocks.party as usize, p);
        assert_eq!(blocks.parties as usize, PARTIES);
        assert_eq!(blocks.triples.len(), small_spec().triples);
        assert_eq!(blocks.bit_triples.len(), small_spec().bit_triples);
        assert_eq!(blocks.shared_bits.len(), small_spec().shared_bits);
        assert_eq!(blocks.dabits.len(), small_spec().dabits);
        // Clear mask values appear only in the owner's own column.
        for (owner, masks) in blocks.input_masks.iter().enumerate() {
            assert_eq!(masks.len(), small_spec().input_masks);
            for m in masks {
                assert_eq!(m.clear.is_some(), owner == p);
            }
        }
        // The walk the overwrite fuzz relies on covers the file exactly.
        let (framing, _) = framing_words(p);
        let words = scratch.words(p);
        let last_frame = *framing.last().unwrap();
        assert_eq!(words[last_frame], small_spec().input_masks as u64);
        let last_block = small_spec().input_masks * (2 + usize::from(p == PARTIES - 1));
        assert_eq!(words.len(), last_frame + 1 + last_block);
    }
}

#[test]
fn missing_file_is_a_typed_io_error() {
    let scratch = Scratch::new("missing", 12);
    let msg = proto_error(load_party_file(&party_file(&scratch.dir, 9)));
    assert!(msg.contains("read"), "got {msg:?}");
}

#[test]
fn wrong_header_and_bad_endpoints_are_rejected() {
    let scratch = Scratch::new("header", 13);
    let words = scratch.words(0);

    // A file from some other tool entirely (five whole words of text), the
    // same with the right magic pasted on, and one shorter than a header.
    let text = b"some other tool's file, five words long\n";
    let msg = proto_error(scratch.load_bytes(text));
    assert!(msg.contains("bad magic"), "got {msg:?}");
    let pasted = [&std::fs::read(&scratch.paths[0]).unwrap()[..8], &text[8..]].concat();
    assert!(scratch.load_bytes(&pasted).is_err());
    assert!(scratch.load_words(&words[..3]).is_err());

    // An otherwise valid file claiming party 5 of 3, a single-party deal,
    // and endpoints that only look valid once narrowed to 32 bits.
    for (party, parties) in [(5, 3), (0, 1), (1 << 32, (1 << 32) + 3), (0, 1 << 32)] {
        let mut mangled = words.clone();
        (mangled[1], mangled[2]) = (party, parties);
        let msg = proto_error(scratch.load_words(&mangled));
        assert!(msg.contains("not a valid endpoint"), "got {msg:?}");
    }
}

#[test]
fn absurd_counts_error_instead_of_allocating() {
    let scratch = Scratch::new("counts", 14);
    let words = scratch.words(0);
    let triples = Request::Triples(small_spec().triples).encode();
    let at = words
        .windows(triples.len())
        .position(|w| w == triples)
        .unwrap();
    // (word, lie): each claims far more than the file holds, and must hit a
    // typed error without first reserving memory the size of the lie.
    for (word, lie) in [
        (2, u64::from(u32::MAX)), // parties: one mask queue per owner
        (3, u64::MAX),            // records
        (4, u64::MAX),            // the first record's frame length
        (at + 1, 1 << 60),        // Triples(2^60)
        (at + 1, 1 << 20),        // under the block cap, over the file
    ] {
        let mut mangled = words.clone();
        mangled[word] = lie;
        let start = std::time::Instant::now();
        let msg = proto_error(scratch.load_words(&mangled));
        assert!(
            msg.contains("truncated") || msg.contains("block cap"),
            "word {word}: got {msg:?}"
        );
        assert!(start.elapsed().as_secs() < 1, "word {word}: not prompt");
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let scratch = Scratch::new("trailing", 15);
    let mut bytes = std::fs::read(&scratch.paths[0]).unwrap();
    bytes.extend_from_slice(&123u64.to_le_bytes());
    let msg = proto_error(scratch.load_bytes(&bytes));
    assert!(msg.contains("trailing"), "got {msg:?}");
    // Trailing bytes that are not even a word.
    bytes.truncate(bytes.len() - 3);
    let msg = proto_error(scratch.load_bytes(&bytes));
    assert!(msg.contains("whole words"), "got {msg:?}");
}

/// Every strict prefix of a valid file is an error — there is no cut that
/// re-parses as a shorter valid file.
#[test]
fn every_strict_prefix_is_rejected() {
    let scratch = Scratch::new("prefixes", 16);
    let full = std::fs::read(&scratch.paths[1]).unwrap();
    for cut in 0..full.len() {
        let result = scratch.load_bytes(&full[..cut]);
        assert!(result.is_err(), "cut at {cut} of {}", full.len());
    }
    assert!(scratch.load_bytes(&full).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating any party's file, for any seed, at any byte yields a
    /// typed error — never a panic, never a shorter parse.
    #[test]
    fn truncated_files_never_panic(seed in 0u64..4, party in 0usize..PARTIES, ppm in 0u64..1_000_000) {
        let scratch = Scratch::new("truncate", seed);
        let full = std::fs::read(&scratch.paths[party]).unwrap();
        let cut = (full.len() * ppm as usize) / 1_000_000;
        let result = scratch.load_bytes(&full[..cut]);
        prop_assert!(matches!(result, Err(PartyError::Proto(_))), "cut at {} of {}", cut, full.len());
    }

    /// Overwriting any word that frames the file — header, record length,
    /// request frame — with a random value is an error or an equally valid
    /// parse (a relabelled mask owner, say), never a panic; the magic, the
    /// record count and the record lengths admit no other value at all.
    #[test]
    fn spliced_bytes_never_panic(
        seed in 0u64..4,
        party in 0usize..PARTIES,
        pick in 0usize..1_000,
        junk in prop_oneof![0u64..8, any::<u64>()],
    ) {
        let scratch = Scratch::new("splice", seed);
        let mut words = scratch.words(party);
        let (framing, rigid) = framing_words(party);
        let at = framing[pick % framing.len()];
        let original = std::mem::replace(&mut words[at], junk);
        match scratch.load_words(&words) {
            Ok(blocks) => {
                prop_assert!(junk == original || !rigid.contains(&at), "word {} <- {}", at, junk);
                prop_assert!(blocks.parties >= 2 && blocks.party < blocks.parties);
            }
            Err(e) => prop_assert!(matches!(e, PartyError::Proto(_)), "word {}: {}", at, e),
        }
    }
}
