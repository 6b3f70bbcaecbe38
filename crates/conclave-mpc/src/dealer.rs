//! The offline phase: a standalone dealer producing authenticated correlated
//! randomness for the online party runtime.
//!
//! Production SPDZ-family deployments split work into an **offline phase**
//! that pregenerates correlated randomness — Beaver triples, binary triples,
//! shared random bits, daBits, input masks — and a fast **online phase** that
//! only consumes it. This module implements the dealer side of that split for
//! the party runtime in [`crate::runtime`]:
//!
//! * [`DealerStream`] derives the material deterministically from a dealer
//!   seed, with a domain-separated RNG per material type so independent
//!   consumers (one per party link) generate identical global streams no
//!   matter how block requests interleave across types.
//! * Every arithmetic value is dealt as a SPDZ-authenticated sharing
//!   ([`crate::share::AuthShare`]): additive shares of the value plus
//!   additive shares of its MAC `α·x` under the dealer's global key `α`.
//! * Each material kind has **one** generator ([`DealerStream::deal`] and
//!   [`DealerStream::blocks`] are its single-party and all-party
//!   projections), driven by a typed [`Request`] and emitting the block in
//!   the dealer's word encoding; [`Request::decode`] with
//!   [`MaterialBlocks::absorb`] is the one decoder, and the one place a
//!   hostile request or a short or misframed block is rejected.
//! * Material reaches a party **streamed** on demand over a dedicated
//!   two-endpoint link served by [`serve_party`] (wire kind
//!   [`MessageKind::Dealer`]); **seeded**, the party running the same
//!   `DealerStream` locally and keeping its own slice; or **preloaded** from
//!   a per-party file ([`write_party_files`], [`load_party_file`]). A file is
//!   the recorded link, so the same generator and decoder cover it:
//!   little-endian `u64` words `[FILE_MAGIC, party, parties, records]`, then
//!   per record `[n, request frame (n words), block]` — [`Request::Alpha`]
//!   first, then [`MaterialSpec::requests`] — each frame and block what
//!   `serve_party` would have received and answered.
//!
//! The trusted-dealer trust model itself is unchanged from the paper's
//! Sharemind-style deployment (see `docs/SECURITY.md`); what the split buys
//! is that in the file and streamed modes *computing parties no longer hold
//! the dealer seed*, so no computing party can unmask another party's masked
//! openings, and the MACs extend the guarantee from "passive observer learns
//! nothing" to "active tampering is detected before any result is revealed".

use crate::ring::RingElem;
use crate::runtime::{PartyError, PartyResult};
use crate::share::AuthShare;
use conclave_net::{MessageKind, Transport, TransportError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};

const REQ_ALPHA: u64 = 0;
const REQ_TRIPLES: u64 = 1;
const REQ_BIT_TRIPLES: u64 = 2;
const REQ_SHARED_BITS: u64 = 3;
const REQ_DABITS: u64 = 4;
const REQ_INPUT_MASKS: u64 = 5;

const DOMAIN_ALPHA: u64 = 1;
const DOMAIN_TRIPLES: u64 = 2;
const DOMAIN_BIT_TRIPLES: u64 = 3;
const DOMAIN_SHARED_BITS: u64 = 4;
const DOMAIN_DABITS: u64 = 5;
const DOMAIN_INPUT_MASKS: u64 = 6;

/// Words per authenticated share: the value share, then the MAC share.
const AUTH_WORDS: usize = 2;
/// Words on the wire per Beaver triple share.
const TRIPLE_WORDS: usize = 3 * AUTH_WORDS;
/// Words per binary triple share.
const BIT_TRIPLE_WORDS: usize = 3;
/// Words per shared-bit share: the XOR-share word plus one authenticated share.
const SHARED_BIT_WORDS: usize = 1 + AUTH_WORDS;
/// Words per daBit share: the XOR-share word plus 64 authenticated shares.
const DABIT_WORDS: usize = 1 + 64 * AUTH_WORDS;

/// Largest block, in words, a dealer deals for one request (128 MiB). A
/// count read off the wire is checked against it before anything allocates.
pub const MAX_BLOCK_WORDS: usize = 1 << 24;

fn domain_rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Shares `value` additively among `n` parties, handing each party's share
/// to `put` as `(party, word)`.
fn additive_share(rng: &mut StdRng, value: RingElem, n: usize, put: &mut impl FnMut(usize, u64)) {
    let mut acc = RingElem::ZERO;
    for p in 0..n - 1 {
        let r = RingElem(rng.gen::<u64>());
        acc += r;
        put(p, r.0);
    }
    put(n - 1, (value - acc).0);
}

/// The XOR-sharing analogue of [`additive_share`].
fn xor_share(rng: &mut StdRng, value: u64, n: usize, put: &mut impl FnMut(usize, u64)) {
    let mut acc = 0u64;
    for p in 0..n - 1 {
        let r = rng.gen::<u64>();
        acc ^= r;
        put(p, r);
    }
    put(n - 1, value ^ acc);
}

/// An authenticated sharing: additive shares of `value`, then additive
/// shares of its MAC `alpha · value`.
fn auth_share(
    rng: &mut StdRng,
    alpha: RingElem,
    value: RingElem,
    n: usize,
    put: &mut impl FnMut(usize, u64),
) {
    additive_share(rng, value, n, put);
    additive_share(rng, alpha * value, n, put);
}

/// One pull on a dealer: which material, and how much of it. The typed form
/// of the `[code, ...]` frame a party sends on its dealer link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// The requesting party's additive share of the MAC key `α`.
    Alpha,
    /// Authenticated arithmetic Beaver triples.
    Triples(usize),
    /// Binary (bitwise-AND) Beaver triple words.
    BitTriples(usize),
    /// Shared random bits: an XOR-shared word plus an authenticated
    /// arithmetic sharing of the same value.
    SharedBits(usize),
    /// daBits: an XOR-shared word plus an authenticated arithmetic sharing
    /// of each of its 64 bits.
    DaBits(usize),
    /// Input masks for the columns `owner` will share.
    InputMasks {
        /// The party whose inputs the masks hide; only its block carries
        /// the mask values in the clear.
        owner: usize,
        /// Number of masks.
        count: usize,
    },
}

impl Request {
    /// Items in the requested block.
    pub fn count(&self) -> usize {
        match *self {
            Request::Alpha => 1,
            Request::Triples(n)
            | Request::BitTriples(n)
            | Request::SharedBits(n)
            | Request::DaBits(n)
            | Request::InputMasks { count: n, .. } => n,
        }
    }

    /// Words per item in `party`'s block.
    fn item_words(&self, party: usize) -> usize {
        match *self {
            Request::Alpha => 1,
            Request::Triples(_) => TRIPLE_WORDS,
            Request::BitTriples(_) => BIT_TRIPLE_WORDS,
            Request::SharedBits(_) => SHARED_BIT_WORDS,
            Request::DaBits(_) => DABIT_WORDS,
            Request::InputMasks { owner, .. } => AUTH_WORDS + usize::from(owner == party),
        }
    }

    /// Words in `party`'s block.
    fn block_words(&self, party: usize) -> usize {
        self.count() * self.item_words(party)
    }

    /// The request as it crosses a dealer link.
    pub fn encode(&self) -> Vec<u64> {
        match *self {
            Request::Alpha => vec![REQ_ALPHA],
            Request::Triples(n) => vec![REQ_TRIPLES, n as u64],
            Request::BitTriples(n) => vec![REQ_BIT_TRIPLES, n as u64],
            Request::SharedBits(n) => vec![REQ_SHARED_BITS, n as u64],
            Request::DaBits(n) => vec![REQ_DABITS, n as u64],
            Request::InputMasks { owner, count } => {
                vec![REQ_INPUT_MASKS, owner as u64, count as u64]
            }
        }
    }

    /// Parses a request frame received by a dealer for a `parties`-party
    /// mesh. Frames come from outside the dealer, so everything is checked
    /// here: an unknown code, a wrong arity, an owner outside the mesh or a
    /// count whose block would exceed [`MAX_BLOCK_WORDS`] is a
    /// [`PartyError::Proto`], never a panic or an allocation.
    pub fn decode(words: &[u64], parties: usize) -> PartyResult<Request> {
        let bad = |why: &str| {
            let head = &words[..words.len().min(3)];
            PartyError::Proto(format!(
                "dealer request {head:?} ({} words): {why}",
                words.len()
            ))
        };
        let count = |n: u64| usize::try_from(n).map_err(|_| bad("count out of range"));
        let req = match *words {
            [REQ_ALPHA] => Request::Alpha,
            [REQ_TRIPLES, n] => Request::Triples(count(n)?),
            [REQ_BIT_TRIPLES, n] => Request::BitTriples(count(n)?),
            [REQ_SHARED_BITS, n] => Request::SharedBits(count(n)?),
            [REQ_DABITS, n] => Request::DaBits(count(n)?),
            [REQ_INPUT_MASKS, owner, n] => match usize::try_from(owner) {
                Ok(owner) if owner < parties => Request::InputMasks {
                    owner,
                    count: count(n)?,
                },
                _ => return Err(bad("owner outside the mesh")),
            },
            _ => return Err(bad("unknown code or wrong arity")),
        };
        let widest = (0..parties).map(|p| req.item_words(p)).max().unwrap_or(1);
        if req.count() > MAX_BLOCK_WORDS / widest {
            return Err(bad("count above the dealer's block cap"));
        }
        Ok(req)
    }
}

/// One party's slice of an input mask: the authenticated sharing of a random
/// `r`, plus — for the owner of the input column only — `r` in the clear so
/// the owner can broadcast `δ = x − r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputMask {
    /// This party's authenticated share of the random mask `r`.
    pub share: AuthShare,
    /// The mask value itself; `Some` only in the owner's material.
    pub clear: Option<RingElem>,
}

/// Deterministic generator for all offline material, seeded by the dealer
/// seed. Each material type draws from its own domain-separated RNG, so two
/// `DealerStream`s with the same seed produce identical global streams even
/// when their callers request blocks in different type interleavings — the
/// property that lets one independent server thread per party link (or, in
/// seeded mode, one local stream per party) stay share-consistent with its
/// siblings.
#[derive(Debug)]
pub struct DealerStream {
    parties: usize,
    alpha: RingElem,
    alpha_shares: Vec<RingElem>,
    triples: StdRng,
    bit_triples: StdRng,
    shared_bits: StdRng,
    dabits: StdRng,
    input_masks: Vec<StdRng>,
}

impl DealerStream {
    /// Creates a stream for `parties` computing parties from the dealer seed.
    pub fn new(seed: u64, parties: usize) -> Self {
        assert!(parties >= 2, "need at least two parties");
        let mut alpha_rng = domain_rng(seed, DOMAIN_ALPHA);
        let alpha = RingElem(alpha_rng.gen::<u64>());
        let mut alpha_shares = vec![RingElem::ZERO; parties];
        additive_share(&mut alpha_rng, alpha, parties, &mut |p, w| {
            alpha_shares[p] = RingElem(w);
        });
        DealerStream {
            parties,
            alpha,
            alpha_shares,
            triples: domain_rng(seed, DOMAIN_TRIPLES),
            bit_triples: domain_rng(seed, DOMAIN_BIT_TRIPLES),
            shared_bits: domain_rng(seed, DOMAIN_SHARED_BITS),
            dabits: domain_rng(seed, DOMAIN_DABITS),
            input_masks: (0..parties)
                .map(|p| domain_rng(seed, DOMAIN_INPUT_MASKS + p as u64))
                .collect(),
        }
    }

    /// Number of computing parties this stream deals for.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// The global MAC key (dealer-side only; parties hold additive shares).
    pub fn alpha(&self) -> RingElem {
        self.alpha
    }

    /// Party `p`'s additive share of the MAC key.
    pub fn alpha_share(&self, p: usize) -> RingElem {
        self.alpha_shares[p]
    }

    /// The generator: advances the requested kind's stream by `req.count()`
    /// items and returns the blocks in the dealer's word encoding — every
    /// party's (indexed by party) when `only` is `None`, else just that
    /// party's (at index 0). The draws do not depend on `only`; a share
    /// nobody keeps is simply not stored.
    fn deal_words(&mut self, req: Request, only: Option<usize>) -> Vec<Vec<u64>> {
        let (n, alpha) = (self.parties, self.alpha);
        let mut out: Vec<Vec<u64>> = match only {
            Some(p) => vec![Vec::with_capacity(req.block_words(p))],
            None => (0..n)
                .map(|p| Vec::with_capacity(req.block_words(p)))
                .collect(),
        };
        let put = &mut |p: usize, w: u64| match only {
            None => out[p].push(w),
            Some(q) if q == p => out[0].push(w),
            Some(_) => {}
        };
        match req {
            Request::Alpha => {
                for (p, share) in self.alpha_shares.iter().enumerate() {
                    put(p, share.0);
                }
            }
            Request::Triples(count) => {
                let rng = &mut self.triples;
                for _ in 0..count {
                    let a = RingElem(rng.gen::<u64>());
                    let b = RingElem(rng.gen::<u64>());
                    for x in [a, b, a * b] {
                        auth_share(rng, alpha, x, n, put);
                    }
                }
            }
            Request::BitTriples(count) => {
                let rng = &mut self.bit_triples;
                for _ in 0..count {
                    let a = rng.gen::<u64>();
                    let b = rng.gen::<u64>();
                    for x in [a, b, a & b] {
                        xor_share(rng, x, n, put);
                    }
                }
            }
            Request::SharedBits(count) => {
                let rng = &mut self.shared_bits;
                for _ in 0..count {
                    let r = rng.gen::<u64>();
                    xor_share(rng, r, n, put);
                    auth_share(rng, alpha, RingElem(r), n, put);
                }
            }
            Request::DaBits(count) => {
                let rng = &mut self.dabits;
                for _ in 0..count {
                    let rho = rng.gen::<u64>();
                    xor_share(rng, rho, n, put);
                    for k in 0..64 {
                        auth_share(rng, alpha, RingElem((rho >> k) & 1), n, put);
                    }
                }
            }
            Request::InputMasks { owner, count } => {
                let rng = &mut self.input_masks[owner];
                for _ in 0..count {
                    let r = RingElem(rng.gen::<u64>());
                    auth_share(rng, alpha, r, n, put);
                    // The mask in the clear, to its owner only.
                    put(owner, r.0);
                }
            }
        }
        out
    }

    /// Deals `party`'s block for `req` from this stream's current position,
    /// in the dealer's word encoding: what [`serve_party`] puts on the link,
    /// what a seeded session draws locally, and what
    /// [`MaterialBlocks::absorb`] reads. Equal to slice `party` of the
    /// all-party deal at the same position ([`DealerStream::blocks`]).
    pub fn deal(&mut self, party: usize, req: Request) -> Vec<u64> {
        assert!(party < self.parties, "party outside the mesh");
        self.deal_words(req, Some(party)).swap_remove(0)
    }
}

/// How much material to pregenerate per party (counts, not bytes). The
/// defaults cover the integration-test query mixes with headroom; size them
/// explicitly for bigger workloads — preloaded sessions fail with a `Proto`
/// error when the stock runs dry rather than silently reusing material.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaterialSpec {
    /// Arithmetic Beaver triples.
    pub triples: usize,
    /// Binary triples (each covers 64 bit-ANDs).
    pub bit_triples: usize,
    /// Shared random bits (each covers one 64-bit mask).
    pub shared_bits: usize,
    /// daBits (each covers 64 bit-to-arithmetic conversions).
    pub dabits: usize,
    /// Input masks per owning party.
    pub input_masks: usize,
}

impl Default for MaterialSpec {
    fn default() -> Self {
        MaterialSpec {
            triples: 4096,
            bit_triples: 8192,
            shared_bits: 2048,
            dabits: 512,
            input_masks: 2048,
        }
    }
}

impl MaterialSpec {
    /// The requests one bundle of this spec consists of for a
    /// `parties`-party mesh, in the order a dealer deals them: what
    /// [`DealerStream::blocks`] absorbs and [`write_party_files`] records.
    pub fn requests(self, parties: usize) -> impl Iterator<Item = Request> {
        [
            Request::Triples(self.triples),
            Request::BitTriples(self.bit_triples),
            Request::SharedBits(self.shared_bits),
            Request::DaBits(self.dabits),
        ]
        .into_iter()
        .chain((0..parties).map(move |owner| Request::InputMasks {
            owner,
            count: self.input_masks,
        }))
    }
}

/// One party's stock of offline material: what [`generate_blocks`] deals, a
/// dealer file holds, and a [`crate::runtime::PartySession`] consumes.
#[derive(Debug, Clone, Default)]
pub struct MaterialBlocks {
    /// The party this stock belongs to.
    pub party: u32,
    /// Number of computing parties the material was dealt for.
    pub parties: u32,
    /// This party's additive share of the MAC key `α`.
    pub alpha: RingElem,
    /// Authenticated Beaver triples.
    pub triples: VecDeque<(AuthShare, AuthShare, AuthShare)>,
    /// Binary triples.
    pub bit_triples: VecDeque<(u64, u64, u64)>,
    /// Shared random bits.
    pub shared_bits: VecDeque<(u64, AuthShare)>,
    /// daBits.
    pub dabits: VecDeque<(u64, Vec<AuthShare>)>,
    /// Input masks, indexed by owning party.
    pub input_masks: Vec<VecDeque<InputMask>>,
}

impl MaterialBlocks {
    /// An empty stock for `party` of `parties`: the key share and one (empty)
    /// input-mask queue per owner.
    pub fn empty(party: usize, parties: usize, alpha: RingElem) -> Self {
        MaterialBlocks {
            party: party as u32,
            parties: parties as u32,
            alpha,
            input_masks: vec![VecDeque::new(); parties],
            ..MaterialBlocks::default()
        }
    }

    /// Appends the block a dealer returned for `req` — `words` in the
    /// encoding of [`DealerStream::deal`] — to the matching queue. The block
    /// must hold exactly the requested items: a short, empty or misframed
    /// one is a [`PartyError::Proto`], so a consumer never waits on (or
    /// indexes into) material that did not arrive.
    pub fn absorb(&mut self, req: Request, words: &[u64]) -> PartyResult<()> {
        let width = req.item_words(self.party as usize);
        if words.len() != req.block_words(self.party as usize) {
            return Err(PartyError::Proto(format!(
                "dealer block for {req:?} has {} words, expected {} x {width}",
                words.len(),
                req.count()
            )));
        }
        let auth = |c: &[u64]| AuthShare::new(RingElem(c[0]), RingElem(c[1]));
        let items = words.chunks_exact(width);
        match req {
            Request::Alpha => self.alpha = RingElem(words[0]),
            Request::Triples(_) => self
                .triples
                .extend(items.map(|c| (auth(c), auth(&c[2..]), auth(&c[4..])))),
            Request::BitTriples(_) => self.bit_triples.extend(items.map(|c| (c[0], c[1], c[2]))),
            Request::SharedBits(_) => self
                .shared_bits
                .extend(items.map(|c| (c[0], auth(&c[1..])))),
            Request::DaBits(_) => self
                .dabits
                .extend(items.map(|c| (c[0], c[1..].chunks_exact(AUTH_WORDS).map(auth).collect()))),
            Request::InputMasks { owner, .. } => self
                .input_masks
                .get_mut(owner)
                .ok_or_else(|| PartyError::Proto(format!("no input-mask queue for P{owner}")))?
                .extend(items.map(|c| InputMask {
                    share: auth(c),
                    clear: c.get(AUTH_WORDS).map(|&r| RingElem(r)),
                })),
        }
        Ok(())
    }
}

impl DealerStream {
    /// Deals one bundle of [`MaterialBlocks`] — one block per party — drawn
    /// from this stream's current position. The MAC key `α` and the per-party
    /// `α`-shares are fixed at stream construction, so every bundle dealt by
    /// the same stream authenticates under the same key: bundles from later
    /// calls can safely [`refill`](crate::runtime::PartySession::refill) a
    /// session initialized from an earlier one.
    pub fn blocks(&mut self, spec: MaterialSpec) -> Vec<MaterialBlocks> {
        let n = self.parties;
        let mut out: Vec<MaterialBlocks> = (0..n)
            .map(|p| MaterialBlocks::empty(p, n, self.alpha_shares[p]))
            .collect();
        for req in spec.requests(n) {
            for (block, words) in out.iter_mut().zip(self.deal_words(req, None)) {
                block
                    .absorb(req, &words)
                    .expect("the dealer frames its own blocks");
            }
        }
        out
    }
}

/// Generates every party's [`MaterialBlocks`] for one dealer seed and spec.
pub fn generate_blocks(seed: u64, parties: usize, spec: MaterialSpec) -> Vec<MaterialBlocks> {
    DealerStream::new(seed, parties).blocks(spec)
}

fn io_err(what: &str, e: std::io::Error) -> PartyError {
    PartyError::Proto(format!("dealer file {what}: {e}"))
}

/// First word of every dealer file.
const FILE_MAGIC: u64 = u64::from_le_bytes(*b"CNCLVDLR");

/// Party `party`'s dealer file under `dir`.
pub fn party_file(dir: &Path, party: usize) -> PathBuf {
    dir.join(format!("party-{party}.dealer"))
}

/// Writes one dealer file per party under `dir` (created if missing) and
/// returns the paths, indexed by party. A file is the transcript of that
/// party's dealer link (layout in the module header), so it holds only that
/// party's shares; the cleartext mask values appear only in the owning
/// party's file. A spec the link's block cap would refuse is refused here,
/// so no file is written that cannot be loaded.
pub fn write_party_files(
    dir: &Path,
    seed: u64,
    parties: usize,
    spec: MaterialSpec,
) -> PartyResult<Vec<PathBuf>> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", e))?;
    let mut stream = DealerStream::new(seed, parties);
    let requests: Vec<Request> = std::iter::once(Request::Alpha)
        .chain(spec.requests(parties))
        .collect();
    let mut files: Vec<Vec<u64>> = (0..parties)
        .map(|p| vec![FILE_MAGIC, p as u64, parties as u64, requests.len() as u64])
        .collect();
    for req in requests {
        let frame = req.encode();
        Request::decode(&frame, parties)?;
        for (file, block) in files.iter_mut().zip(stream.deal_words(req, None)) {
            file.push(frame.len() as u64);
            file.extend_from_slice(&frame);
            file.extend(block);
        }
    }
    let mut paths = Vec::with_capacity(parties);
    for (p, words) in files.iter().enumerate() {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let path = party_file(dir, p);
        std::fs::write(&path, bytes).map_err(|e| io_err("write", e))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Loads one party's [`MaterialBlocks`] from a file written by
/// [`write_party_files`] by replaying the recorded link through the link's
/// own decoders, [`Request::decode`] and [`MaterialBlocks::absorb`].
///
/// The file is outside input: bad magic, an endpoint outside the mesh, a cut
/// anywhere, a hostile count, trailing words and a missing file are all
/// [`PartyError`] values, never a panic, and nothing is reserved beyond the
/// words the file holds (`tests/dealer_files.rs` fuzzes this contract).
pub fn load_party_file(path: &Path) -> PartyResult<MaterialBlocks> {
    let bad = |why: String| PartyError::Proto(format!("dealer file: {why}"));
    let truncated = || bad("truncated".into());
    let bytes = std::fs::read(path).map_err(|e| io_err("read", e))?;
    let (chunks, tail) = bytes.as_chunks::<8>();
    if !tail.is_empty() {
        return Err(bad(format!("{} bytes is not whole words", bytes.len())));
    }
    let words: Vec<u64> = chunks.iter().map(|c| u64::from_le_bytes(*c)).collect();
    let &[FILE_MAGIC, party, parties, records, ref body @ ..] = words.as_slice() else {
        return Err(bad("bad magic, or truncated inside the header".into()));
    };
    // Checked as the words they are, before anything narrows them.
    if parties < 2 || party >= parties || parties > u64::from(u32::MAX) {
        return Err(bad(format!(
            "party {party} of {parties} is not a valid endpoint"
        )));
    }
    // `parties` sizes the per-owner mask queues, and each owner's masks are a
    // record of their own: a header cannot reserve more than the file is long.
    if parties > body.len() as u64 {
        return Err(truncated());
    }
    let (party, parties) = (party as usize, parties as usize);
    let mut stock = MaterialBlocks::empty(party, parties, RingElem::ZERO);
    let mut rest = body;
    for _ in 0..records {
        let (&n, after) = rest.split_first().ok_or_else(truncated)?;
        let frame_len = usize::try_from(n).map_err(|_| truncated())?;
        let (frame, after) = after.split_at_checked(frame_len).ok_or_else(truncated)?;
        let req = Request::decode(frame, parties)?;
        let block_len = req.block_words(party);
        let (block, after) = after.split_at_checked(block_len).ok_or_else(truncated)?;
        stock.absorb(req, block)?;
        rest = after;
    }
    if !rest.is_empty() {
        return Err(bad(format!("{} trailing words", rest.len())));
    }
    Ok(stock)
}

/// Serves one party's offline material over a dedicated two-endpoint link
/// until the party drops its end. `link` is the **dealer's** endpoint;
/// `party`/`parties` identify the served party within the computing mesh
/// (the link's own ids are just `0`/`1`).
///
/// The protocol is pull-based: the party sends a [`MessageKind::Dealer`]
/// frame holding an encoded [`Request`] and the dealer answers with that
/// party's block ([`DealerStream::deal`]). Because every server derives the
/// same deterministic [`DealerStream`], independent per-party servers stay
/// share-consistent as long as the parties consume blocks in the same
/// collective order — which the synchronous online protocol guarantees. A
/// frame that does not decode ends the service with a typed error.
pub fn serve_party(link: &dyn Transport, party: u32, parties: u32, seed: u64) -> PartyResult<()> {
    let peer = 1 - link.party();
    let mut stream = DealerStream::new(seed, parties as usize);
    loop {
        let env = match link.recv_from(peer) {
            Ok(env) => env,
            // The session dropped its end of the link: offline phase over.
            Err(TransportError::Disconnected { .. }) => return Ok(()),
            // An idle party is not an error; keep serving until disconnect.
            Err(TransportError::Timeout { .. }) => continue,
            Err(e) => return Err(e.into()),
        };
        if env.kind != MessageKind::Dealer {
            return Err(PartyError::Proto(format!(
                "unexpected {} frame on dealer link",
                env.kind
            )));
        }
        let req = Request::decode(&env.payload, parties as usize)?;
        let words = stream.deal(party as usize, req);
        link.send_to(peer, MessageKind::Dealer, "dealer block", &words)?;
    }
}

/// Where a [`crate::runtime::PartySession`] obtains its offline material.
pub enum DealerSource {
    /// Run the deterministic dealer locally — a [`DealerStream`] seeded with
    /// the session's mesh-wide seed — and keep this party's slice. Every
    /// party holds the seed, so every party *could* recompute every share
    /// and the key: the semi-honest development mode, and the default.
    Seeded,
    /// Consume pregenerated per-party material (e.g. loaded from a dealer
    /// file with [`load_party_file`]). Requests beyond the preloaded stock
    /// fail with [`PartyError::Proto`] instead of silently reusing material.
    Preloaded(Box<MaterialBlocks>),
    /// Pull blocks on demand from a dealer served by [`serve_party`] over a
    /// dedicated two-endpoint link.
    Streamed {
        /// This party's endpoint of the party↔dealer link.
        link: Box<dyn Transport>,
        /// The dealer's id on that link (normally `1 - link.party()`).
        dealer: u32,
    },
}

impl fmt::Debug for DealerSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DealerSource::Seeded => f.write_str("Seeded"),
            DealerSource::Preloaded(b) => f
                .debug_struct("Preloaded")
                .field("party", &b.party)
                .field("triples", &b.triples.len())
                .finish(),
            DealerSource::Streamed { dealer, .. } => {
                f.debug_struct("Streamed").field("dealer", dealer).finish()
            }
        }
    }
}

/// Counters describing a [`MaterialPool`]'s activity so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Bundles dealt by the background refiller.
    pub dealt: u64,
    /// Bundles taken by consumers.
    pub taken: u64,
    /// `take` calls that found the pool empty and had to block.
    pub starved: u64,
}

/// A `Mutex<T>` lock that shrugs off poisoning: a consumer panicking while
/// holding the pool lock must not wedge every other tenant of the server.
fn locked<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct PoolState {
    ready: VecDeque<Vec<MaterialBlocks>>,
    stats: PoolStats,
    paused: bool,
    closed: bool,
}

struct PoolInner {
    state: std::sync::Mutex<PoolState>,
    /// Signals consumers blocked in [`MaterialPool::take`].
    bundle_ready: std::sync::Condvar,
    /// Signals the refiller that capacity freed up or pause/close changed.
    refill_needed: std::sync::Condvar,
    depth: usize,
    parties: usize,
    alpha: RingElem,
    alpha_shares: Vec<RingElem>,
}

/// A shared pool of dealer bundles refilled by a background thread, so the
/// online phase draws MACed material without blocking on the offline phase.
///
/// The pool owns **one** persistent [`DealerStream`]: every bundle it deals
/// authenticates under the same MAC key `α` with identical per-party
/// `α`-shares, which is what makes it sound to hand a running
/// [`crate::runtime::PartySession`] (via `refill`) a later bundle. The
/// refiller thread keeps up to `depth` bundles ready and parks when the pool
/// is full; it holds only a weak reference, so dropping the last pool handle
/// shuts it down.
///
/// Cloning the pool is cheap (an `Arc` bump); clones share the same stock.
#[derive(Clone)]
pub struct MaterialPool {
    inner: std::sync::Arc<PoolInner>,
}

impl fmt::Debug for MaterialPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = locked(&self.inner.state);
        f.debug_struct("MaterialPool")
            .field("parties", &self.inner.parties)
            .field("depth", &self.inner.depth)
            .field("ready", &st.ready.len())
            .field("stats", &st.stats)
            .field("paused", &st.paused)
            .finish()
    }
}

impl MaterialPool {
    /// Starts a pool dealing bundles of `spec`-sized material for `parties`
    /// computing parties, keeping up to `depth` bundles ready.
    pub fn start(seed: u64, parties: usize, spec: MaterialSpec, depth: usize) -> MaterialPool {
        MaterialPool::spawn(seed, parties, spec, depth, false)
    }

    /// Like [`MaterialPool::start`], but the refiller begins paused: `take`
    /// blocks until [`MaterialPool::resume`] is called. Test hook for
    /// deterministic starvation scenarios ("the refiller lags").
    pub fn start_paused(
        seed: u64,
        parties: usize,
        spec: MaterialSpec,
        depth: usize,
    ) -> MaterialPool {
        MaterialPool::spawn(seed, parties, spec, depth, true)
    }

    fn spawn(seed: u64, parties: usize, spec: MaterialSpec, depth: usize, paused: bool) -> Self {
        assert!(parties >= 2, "a dealer needs at least 2 computing parties");
        let stream = DealerStream::new(seed, parties);
        let inner = std::sync::Arc::new(PoolInner {
            state: std::sync::Mutex::new(PoolState {
                ready: VecDeque::new(),
                stats: PoolStats::default(),
                paused,
                closed: false,
            }),
            bundle_ready: std::sync::Condvar::new(),
            refill_needed: std::sync::Condvar::new(),
            depth: depth.max(1),
            parties,
            alpha: stream.alpha(),
            alpha_shares: (0..parties).map(|p| stream.alpha_share(p)).collect(),
        });
        let weak = std::sync::Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name("conclave-dealer-pool".into())
            .spawn(move || MaterialPool::refiller(weak, stream, spec))
            .unwrap_or_else(|e| panic!("failed to spawn dealer-pool refiller: {e}"));
        MaterialPool { inner }
    }

    fn refiller(weak: std::sync::Weak<PoolInner>, mut stream: DealerStream, spec: MaterialSpec) {
        loop {
            // Holding only a weak reference between iterations (and a short
            // timed wait while parked) keeps the refiller from pinning the
            // pool alive: once the last handle drops, the next upgrade fails
            // and the thread exits within one poll interval.
            let deal = {
                let Some(inner) = weak.upgrade() else { return };
                let st = locked(&inner.state);
                if st.closed {
                    return;
                }
                if st.paused || st.ready.len() >= inner.depth {
                    let _parked = inner
                        .refill_needed
                        .wait_timeout(st, std::time::Duration::from_millis(50))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    false
                } else {
                    true
                }
            };
            if !deal {
                continue;
            }
            // Deal outside the lock: consumers can keep taking ready bundles
            // while the next one is being generated.
            let bundle = stream.blocks(spec);
            let Some(inner) = weak.upgrade() else { return };
            let mut st = locked(&inner.state);
            if st.closed {
                return;
            }
            st.ready.push_back(bundle);
            st.stats.dealt += 1;
            inner.bundle_ready.notify_all();
        }
    }

    /// Number of computing parties each bundle covers.
    pub fn parties(&self) -> usize {
        self.inner.parties
    }

    /// The global MAC key `α` shared by every bundle this pool deals.
    pub fn alpha(&self) -> RingElem {
        self.inner.alpha
    }

    /// Party `p`'s additive share of `α` (identical in every bundle).
    pub fn alpha_share(&self, p: usize) -> RingElem {
        self.inner.alpha_shares[p]
    }

    /// Takes one bundle (one [`MaterialBlocks`] per party), blocking until
    /// the refiller has one ready. Queries therefore *wait* on a starved pool
    /// — they never run with partial material.
    pub fn take(&self) -> Vec<MaterialBlocks> {
        let mut st = locked(&self.inner.state);
        if st.ready.is_empty() {
            st.stats.starved += 1;
        }
        while st.ready.is_empty() {
            st = self
                .inner
                .bundle_ready
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let bundle = st.ready.pop_front().unwrap_or_default();
        st.stats.taken += 1;
        self.inner.refill_needed.notify_all();
        bundle
    }

    /// Pauses the background refiller (already-dealt bundles remain takeable).
    pub fn pause(&self) {
        locked(&self.inner.state).paused = true;
    }

    /// Resumes a paused refiller.
    pub fn resume(&self) {
        locked(&self.inner.state).paused = false;
        self.inner.refill_needed.notify_all();
    }

    /// Bundles currently ready to take.
    pub fn ready(&self) -> usize {
        locked(&self.inner.state).ready.len()
    }

    /// Activity counters (dealt / taken / starved).
    pub fn stats(&self) -> PoolStats {
        locked(&self.inner.state).stats
    }

    /// Whether `other` is a handle to this same pool.
    pub fn same_pool(&self, other: &MaterialPool) -> bool {
        std::sync::Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Drop for MaterialPool {
    fn drop(&mut self) {
        // When the last handle drops, flag the pool closed and wake the
        // refiller so it exits promptly; the timed wait in `refiller` is the
        // fallback for the race where it briefly holds its own strong ref.
        if std::sync::Arc::strong_count(&self.inner) == 1 {
            let mut st = locked(&self.inner.state);
            st.closed = true;
            self.inner.refill_needed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    // Reconstruction asserts index the same correlation slot across every
    // party's block; an indexed loop mirrors that access pattern directly.
    #![allow(clippy::needless_range_loop)]

    use super::*;
    use conclave_net::ChannelTransport;

    fn reconstruct(shares: impl IntoIterator<Item = AuthShare>) -> (RingElem, RingElem) {
        shares
            .into_iter()
            .fold((RingElem::ZERO, RingElem::ZERO), |(v, m), s| {
                (v + s.v, m + s.m)
            })
    }

    fn le_bytes(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn tiny_spec() -> MaterialSpec {
        MaterialSpec {
            triples: 8,
            bit_triples: 8,
            shared_bits: 4,
            dabits: 2,
            input_masks: 4,
        }
    }

    #[test]
    fn dealt_material_is_consistent_and_authenticated() {
        let mut stream = DealerStream::new(77, 3);
        let alpha = stream.alpha();
        assert_eq!(
            (0..3)
                .map(|p| stream.alpha_share(p))
                .fold(RingElem::ZERO, |a, s| a + s),
            alpha
        );
        let spec = tiny_spec();
        let blocks = stream.blocks(spec);

        for i in 0..spec.triples {
            let (av, am) = reconstruct((0..3).map(|p| blocks[p].triples[i].0));
            let (bv, bm) = reconstruct((0..3).map(|p| blocks[p].triples[i].1));
            let (cv, cm) = reconstruct((0..3).map(|p| blocks[p].triples[i].2));
            assert_eq!(cv, av * bv, "triple {i} is not multiplicative");
            assert_eq!(am, alpha * av);
            assert_eq!(bm, alpha * bv);
            assert_eq!(cm, alpha * cv);
        }

        for i in 0..spec.bit_triples {
            let a = (0..3).fold(0u64, |acc, p| acc ^ blocks[p].bit_triples[i].0);
            let b = (0..3).fold(0u64, |acc, p| acc ^ blocks[p].bit_triples[i].1);
            let c = (0..3).fold(0u64, |acc, p| acc ^ blocks[p].bit_triples[i].2);
            assert_eq!(c, a & b);
        }

        for i in 0..spec.shared_bits {
            let r = (0..3).fold(0u64, |acc, p| acc ^ blocks[p].shared_bits[i].0);
            let (v, m) = reconstruct((0..3).map(|p| blocks[p].shared_bits[i].1));
            assert_eq!(v, RingElem(r), "XOR and arithmetic views disagree");
            assert_eq!(m, alpha * v);
        }

        for i in 0..spec.dabits {
            let rho = (0..3).fold(0u64, |acc, p| acc ^ blocks[p].dabits[i].0);
            for k in 0..64 {
                let (v, m) = reconstruct((0..3).map(|p| blocks[p].dabits[i].1[k]));
                assert_eq!(v, RingElem((rho >> k) & 1));
                assert_eq!(m, alpha * v);
            }
        }

        for owner in 0..3 {
            for i in 0..spec.input_masks {
                let (v, m) = reconstruct((0..3).map(|p| blocks[p].input_masks[owner][i].share));
                assert_eq!(m, alpha * v);
                for p in 0..3 {
                    let clear = blocks[p].input_masks[owner][i].clear;
                    assert_eq!(clear, (p == owner).then_some(v), "clear mask: owner only");
                }
            }
        }
    }

    /// `deal(p, req)` is slice `p` of the all-party deal, for every kind and
    /// every party, whatever order the kinds are requested in — the property
    /// that makes a seeded mesh (one local stream per party), a streamed
    /// mesh (one server per party) and a dealt bundle hold the same material.
    #[test]
    fn deal_equals_the_party_slice_of_the_all_party_deal() {
        let kinds = [
            Request::Alpha,
            Request::Triples(3),
            Request::BitTriples(5),
            Request::SharedBits(2),
            Request::DaBits(1),
            Request::InputMasks { owner: 0, count: 3 },
            Request::InputMasks { owner: 2, count: 2 },
        ];
        for parties in [2, 3, 4] {
            let kinds: Vec<Request> = kinds
                .into_iter()
                .filter(|k| !matches!(k, Request::InputMasks { owner, .. } if *owner >= parties))
                .collect();
            // Two rounds of every kind, so the second draws mid-stream.
            let forward: Vec<Request> = kinds.iter().chain(&kinds).copied().collect();
            let mut all = DealerStream::new(31, parties);
            let expected: Vec<(Request, Vec<Vec<u64>>)> = forward
                .iter()
                .map(|&req| (req, all.deal_words(req, None)))
                .collect();
            for p in 0..parties {
                // Same per-kind sequence, opposite interleaving across kinds.
                let mut single = DealerStream::new(31, parties);
                let mut seen: Vec<(Request, Vec<u64>)> = Vec::new();
                for &req in kinds.iter().rev() {
                    seen.push((req, single.deal(p, req)));
                }
                for &req in kinds.iter().rev() {
                    seen.push((req, single.deal(p, req)));
                }
                for &kind in &kinds {
                    let want: Vec<&Vec<u64>> = expected
                        .iter()
                        .filter(|(r, _)| *r == kind)
                        .map(|(_, blocks)| &blocks[p])
                        .collect();
                    let got: Vec<&Vec<u64>> = seen
                        .iter()
                        .filter(|(r, _)| *r == kind)
                        .map(|(_, words)| words)
                        .collect();
                    assert_eq!(got, want, "{kind:?} for P{p} of {parties}");
                    assert!(got.iter().all(|w| w.len() == kind.block_words(p)));
                }
            }
        }
    }

    /// The typed view agrees: a block built by absorbing `deal(p, ·)` kind by
    /// kind is the block `blocks()` deals for `p`.
    #[test]
    fn absorbed_deals_rebuild_the_dealt_bundle() {
        let spec = tiny_spec();
        let bundle = generate_blocks(5, 3, spec);
        for p in 0..3 {
            let mut stream = DealerStream::new(5, 3);
            let mut block = MaterialBlocks::empty(p, 3, RingElem::ZERO);
            let mut requests = vec![
                Request::Alpha,
                Request::DaBits(spec.dabits),
                Request::Triples(spec.triples),
                Request::SharedBits(spec.shared_bits),
                Request::BitTriples(spec.bit_triples),
            ];
            requests.extend((0..3).rev().map(|owner| Request::InputMasks {
                owner,
                count: spec.input_masks,
            }));
            for req in requests {
                block.absorb(req, &stream.deal(p, req)).unwrap();
            }
            assert_eq!(block.alpha, bundle[p].alpha);
            assert_eq!(block.triples, bundle[p].triples);
            assert_eq!(block.bit_triples, bundle[p].bit_triples);
            assert_eq!(block.shared_bits, bundle[p].shared_bits);
            assert_eq!(block.dabits, bundle[p].dabits);
            assert_eq!(block.input_masks, bundle[p].input_masks);
        }
    }

    #[test]
    fn short_or_misframed_blocks_are_rejected() {
        let mut block = MaterialBlocks::empty(1, 3, RingElem::ZERO);
        let mut stream = DealerStream::new(8, 3);
        for req in [
            Request::Alpha,
            Request::Triples(2),
            Request::BitTriples(2),
            Request::SharedBits(2),
            Request::DaBits(2),
            Request::InputMasks { owner: 1, count: 2 },
            Request::InputMasks { owner: 0, count: 2 },
        ] {
            let words = stream.deal(1, req);
            for bad in [&words[..0], &words[..words.len() - 1]] {
                let err = block.absorb(req, bad).unwrap_err();
                assert!(matches!(err, PartyError::Proto(_)), "{req:?}: {err}");
            }
            block.absorb(req, &words).unwrap();
        }
        // A non-owner's mask block must not be read as an owner's.
        let foreign = stream.deal(0, Request::InputMasks { owner: 1, count: 2 });
        assert!(block
            .absorb(Request::InputMasks { owner: 1, count: 2 }, &foreign)
            .is_err());
    }

    /// Requests arrive from outside the dealer: every malformed or oversized
    /// one is a typed error — never a panic, never an allocation.
    #[test]
    fn hostile_dealer_link_requests_are_typed_errors() {
        let hostile: Vec<Vec<u64>> = vec![
            vec![],
            vec![REQ_TRIPLES],
            vec![REQ_TRIPLES, u64::MAX],
            vec![REQ_TRIPLES, 1, 1],
            vec![
                REQ_BIT_TRIPLES,
                (MAX_BLOCK_WORDS / BIT_TRIPLE_WORDS) as u64 + 1,
            ],
            vec![REQ_SHARED_BITS, 1 << 40],
            vec![REQ_DABITS, (MAX_BLOCK_WORDS / DABIT_WORDS) as u64 + 1],
            vec![REQ_ALPHA, 1],
            vec![REQ_INPUT_MASKS, 1],
            vec![REQ_INPUT_MASKS, 3, 1],
            vec![REQ_INPUT_MASKS, u64::MAX, 1],
            vec![REQ_INPUT_MASKS, 0, u64::MAX],
            vec![6, 1],
            vec![u64::MAX; 4096],
        ];
        for words in &hostile {
            let err = Request::decode(words, 3).unwrap_err();
            assert!(matches!(err, PartyError::Proto(_)), "{words:?}: {err}");
        }
        // Every well-formed request survives the round trip, cap included.
        for req in [
            Request::Alpha,
            Request::Triples(0),
            Request::BitTriples(MAX_BLOCK_WORDS / BIT_TRIPLE_WORDS),
            Request::SharedBits(7),
            Request::DaBits(MAX_BLOCK_WORDS / DABIT_WORDS),
            Request::InputMasks { owner: 2, count: 9 },
        ] {
            assert_eq!(Request::decode(&req.encode(), 3).unwrap(), req);
        }

        // Over a real link: the server answers a hostile frame by returning
        // the typed error (its thread does not panic), and the party sees
        // the link close instead of a block.
        for words in [vec![REQ_TRIPLES, u64::MAX], vec![REQ_DABITS]] {
            let mut mesh = ChannelTransport::mesh(2);
            let dealer_end = mesh.pop().unwrap();
            let party_end = mesh.pop().unwrap();
            let server = std::thread::spawn(move || serve_party(&dealer_end, 0, 3, 1));
            party_end
                .send_to(1, MessageKind::Dealer, "dealer request", &words)
                .unwrap();
            let served = server.join().expect("the dealer thread must not panic");
            assert!(matches!(served, Err(PartyError::Proto(_))), "{served:?}");
            assert!(party_end.recv_from(1).is_err());
        }
    }

    #[test]
    fn files_round_trip_and_hide_foreign_clear_masks() {
        let dir = std::env::temp_dir().join(format!("conclave-dealer-test-{}", std::process::id()));
        let spec = MaterialSpec {
            triples: 5,
            bit_triples: 3,
            shared_bits: 2,
            dabits: 1,
            input_masks: 2,
        };
        let paths = write_party_files(&dir, 123, 3, spec).unwrap();
        let blocks = generate_blocks(123, 3, spec);
        for (p, path) in paths.iter().enumerate() {
            let loaded = load_party_file(path).unwrap();
            assert_eq!(loaded.party, p as u32);
            assert_eq!(loaded.parties, 3);
            assert_eq!(loaded.alpha, blocks[p].alpha);
            assert_eq!(loaded.triples, blocks[p].triples);
            assert_eq!(loaded.bit_triples, blocks[p].bit_triples);
            assert_eq!(loaded.shared_bits, blocks[p].shared_bits);
            assert_eq!(loaded.dabits, blocks[p].dabits);
            assert_eq!(loaded.input_masks, blocks[p].input_masks);
            for (owner, masks) in loaded.input_masks.iter().enumerate() {
                for m in masks {
                    assert_eq!(
                        m.clear.is_some(),
                        owner == p,
                        "clear mask must exist only in the owner's file"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The sentence the file format rests on: after its header, party `p`'s
    /// file is, record by record, the request frames and the blocks a
    /// `serve_party` link carries for the same seed and requests.
    #[test]
    fn a_dealer_file_is_the_recorded_dealer_link() {
        let dir = std::env::temp_dir().join(format!("conclave-dealer-link-{}", std::process::id()));
        let (seed, parties, spec) = (123, 3usize, tiny_spec());
        let paths = write_party_files(&dir, seed, parties, spec).unwrap();
        let requests: Vec<Request> = std::iter::once(Request::Alpha)
            .chain(spec.requests(parties))
            .collect();
        for (p, path) in paths.iter().enumerate() {
            assert_eq!(*path, party_file(&dir, p));
            let mut mesh = ChannelTransport::mesh(2);
            let dealer_end = mesh.pop().unwrap();
            let link = mesh.pop().unwrap();
            let server = std::thread::spawn(move || {
                serve_party(&dealer_end, p as u32, parties as u32, seed)
            });
            let mut carried = vec![FILE_MAGIC, p as u64, parties as u64, requests.len() as u64];
            for req in &requests {
                let frame = req.encode();
                link.send_to(1, MessageKind::Dealer, "dealer request", &frame)
                    .unwrap();
                carried.push(frame.len() as u64);
                carried.extend(frame);
                carried.extend(link.recv_from(1).unwrap().payload);
            }
            drop(link);
            server.join().unwrap().unwrap();
            assert_eq!(
                std::fs::read(path).unwrap(),
                le_bytes(&carried),
                "P{p}'s file"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_or_corrupt_files_are_rejected() {
        let dir =
            std::env::temp_dir().join(format!("conclave-dealer-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.dealer");
        let write = |words: &[u64]| std::fs::write(&path, le_bytes(words)).unwrap();
        // P0 of 2, one record: a request for one triple, but only three of
        // its six words.
        write(&[FILE_MAGIC, 0, 2, 1, 2, REQ_TRIPLES, 1, 1, 2, 3]);
        let err = load_party_file(&path).unwrap_err();
        assert!(err.to_string().contains("truncated"), "got: {err}");
        // The same record, whole, loads; so does it with a record count that
        // stops short of it — as trailing words.
        write(&[FILE_MAGIC, 0, 2, 1, 2, REQ_TRIPLES, 1, 1, 2, 3, 4, 5, 6]);
        assert_eq!(load_party_file(&path).unwrap().triples.len(), 1);
        write(&[FILE_MAGIC, 0, 2, 0, 2, REQ_TRIPLES, 1, 1, 2, 3, 4, 5, 6]);
        let err = load_party_file(&path).unwrap_err();
        assert!(err.to_string().contains("trailing"), "got: {err}");
        std::fs::write(&path, "not-a-dealer-file").unwrap();
        assert!(load_party_file(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn independent_servers_deal_consistent_shares() {
        // One server thread per party link, each with its own DealerStream;
        // the shares pulled across links must still reconstruct.
        let parties = 3u32;
        let seed = 4242;
        let mut party_ends = Vec::new();
        let mut handles = Vec::new();
        for p in 0..parties {
            let mut mesh = ChannelTransport::mesh(2);
            let dealer_end = mesh.pop().unwrap();
            party_ends.push(mesh.pop().unwrap());
            handles.push(std::thread::spawn(move || {
                serve_party(&dealer_end, p, parties, seed)
            }));
        }
        let req = Request::Triples(2);
        let mut pulled = Vec::new();
        for (p, link) in party_ends.iter().enumerate() {
            link.send_to(1, MessageKind::Dealer, "dealer request", &req.encode())
                .unwrap();
            let env = link.recv_from(1).unwrap();
            assert_eq!(env.kind, MessageKind::Dealer);
            let mut block = MaterialBlocks::empty(p, parties as usize, RingElem::ZERO);
            block.absorb(req, &env.payload).unwrap();
            pulled.push(block.triples);
        }
        let stream = DealerStream::new(seed, parties as usize);
        let alpha = stream.alpha();
        for i in 0..2 {
            let (av, am) = reconstruct((0..parties as usize).map(|p| pulled[p][i].0));
            let (bv, _) = reconstruct((0..parties as usize).map(|p| pulled[p][i].1));
            let (cv, _) = reconstruct((0..parties as usize).map(|p| pulled[p][i].2));
            assert_eq!(cv, av * bv);
            assert_eq!(am, alpha * av);
        }
        drop(party_ends);
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }

    #[test]
    fn pool_bundles_share_one_mac_key_and_reconstruct() {
        let pool = MaterialPool::start(77, 3, tiny_spec(), 2);
        let first = pool.take();
        let second = pool.take();
        assert_eq!(first.len(), 3);
        // Same α-shares across bundles (the refill soundness requirement)…
        for p in 0..3 {
            assert_eq!(first[p].alpha, second[p].alpha);
            assert_eq!(first[p].alpha, pool.alpha_share(p));
        }
        // …but fresh correlations: the streams advanced between bundles.
        assert_ne!(first[0].triples[0].0.v, second[0].triples[0].0.v);
        // Each bundle's triples reconstruct under the pool's global key.
        for bundle in [&first, &second] {
            let (av, am) = reconstruct((0..3).map(|p| bundle[p].triples[0].0));
            let (bv, _) = reconstruct((0..3).map(|p| bundle[p].triples[0].1));
            let (cv, _) = reconstruct((0..3).map(|p| bundle[p].triples[0].2));
            assert_eq!(cv, av * bv);
            assert_eq!(am, pool.alpha() * av);
        }
        let stats = pool.stats();
        assert_eq!(stats.taken, 2);
        assert!(stats.dealt >= 2);
    }

    #[test]
    fn paused_pool_starves_takers_until_resumed() {
        let pool = MaterialPool::start_paused(9, 2, tiny_spec(), 1);
        assert_eq!(pool.ready(), 0);
        let taker = {
            let pool = pool.clone();
            std::thread::spawn(move || pool.take())
        };
        // The taker must block: no bundle can appear while paused.
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert!(!taker.is_finished());
        assert_eq!(pool.stats().dealt, 0);
        pool.resume();
        let bundle = taker.join().unwrap();
        assert_eq!(bundle.len(), 2);
        let stats = pool.stats();
        assert_eq!(stats.taken, 1);
        assert_eq!(stats.starved, 1);
    }
}
