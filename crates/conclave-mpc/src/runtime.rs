//! The distributed party runtime: per-party protocol state over a
//! [`Transport`].
//!
//! The single-process [`crate::protocol::Protocol`] engine materializes
//! *every* party's shares inside one struct — convenient for simulation, but
//! it cannot measure the thing the paper's evaluation is about: per-party
//! message exchange. This module provides the engine that can, split into
//! **session-lifetime** and **per-step** state:
//!
//! * [`PartySession`] is **one party's** query-lifetime endpoint: identity,
//!   the dealer state (common + private randomness streams, seeded once per
//!   query), the Beaver triple cache, and the [`Transport`]. Because the
//!   additive sharing is defined by the session, shares produced in one plan
//!   step remain valid in every later step — intermediate relations stay
//!   resident on the parties instead of being opened and re-shared at every
//!   step boundary.
//! * [`StepCtx`] (from [`PartySession::step`]) is one plan step's view: the
//!   protocol primitives — input sharing, opening, Beaver multiplication,
//!   comparisons — driven through explicit [`Transport`] message rounds, each
//!   tagged with a `(step, stream)` [`StreamTag`] so concurrent steps can
//!   multiplex the same session-lifetime connections. The transport's
//!   [`NetStats`] record *observed* bytes and rounds.
//! * [`StepCtx`] implements [`Engine`], so the oblivious relational
//!   operators of [`crate::operators`] — written once, generic over the
//!   engine — run on it unchanged: [`PartyRelation`] is the engine-generic
//!   relation holding one [`AuthShare`] per cell, and [`sort_by`],
//!   [`aggregate_sorted`] and the dispatcher [`execute_party_op`] are
//!   re-exports of the generic functions, not ports of them.
//!   A driver can therefore swap the in-process engine for a party mesh
//!   without changing plan semantics, primitive counts or leakage.
//!
//! ## Open/reveal semantics
//!
//! Opening is no longer implicit at every step boundary: a result is opened
//! **only at reveal boundaries** — when a non-party consumer (a local or STP
//! step, a hybrid protocol, or the query output) needs the cleartext.
//! [`begin_open_relation`] broadcasts this party's shares immediately and
//! returns a [`PendingOpen`]; [`finish_open_relation`] collects the peers'
//! shares later, so a worker can start the *next* step's rounds while the
//! previous step's final open is still in flight (the stream tags keep the
//! interleaved frames apart).
//!
//! ## Offline/online split and SPDZ MACs
//!
//! The session consumes **offline material** (Beaver triples — arithmetic
//! and binary — dual-shared bit-decomposition masks, daBits, input masks)
//! through a [`DealerSource`]:
//!
//! * [`DealerSource::Seeded`] — the original *common-seed dealer*: every
//!   party derives the identical dealer stream from the shared RNG seed and
//!   keeps its own share (the semi-honest development mode, still the
//!   differential-testing default);
//! * [`DealerSource::Preloaded`] — per-party material pregenerated by the
//!   standalone dealer ([`crate::dealer`]) and loaded from a file;
//! * [`DealerSource::Streamed`] — blocks pulled on demand from a dealer
//!   process over a dedicated link.
//!
//! In the two dealer-backed modes no computing party holds the dealer seed,
//! so none can unmask a peer's masked openings. In every authenticated mode
//! each arithmetic share is a SPDZ-style [`AuthShare`] carrying a MAC share
//! under the dealer's additively-shared global key `α`. The *online* phase
//! processes openings **unchecked** — Beaver `d`/`e` terms, circuit masked
//! openings and reveals cross the transport exactly as before — while the
//! session logs every opened value with its MAC share. At every reveal
//! boundary [`PartySession::check_integrity`] runs a deferred batch check
//! (random linear combination of `m − α·x` over the log, plus a transcript
//! digest over the binary-domain openings, committed then opened as
//! [`MessageKind::MacCheck`] rounds): any additive tampering with online
//! traffic makes the zero-sum test fail and the query **abort with
//! [`PartyError::Integrity`] before a wrong answer is revealed** —
//! `tests/malicious_integrity.rs` certifies this against the active-adversary
//! [`conclave_net::TamperingTransport`]. [`PartySession::unauthenticated`]
//! preserves the pre-MAC runtime shape for baselines and regression pins.
//!
//! Comparisons are **not** simulated: `lt`/`eq` run the bit-decomposed
//! comparison circuits of [`crate::circuits`] entirely on shares (9 rounds
//! for a less-than batch, 8 for an equality batch, independent of batch
//! size). No operand, bit, or intermediate ever appears on the wire
//! unmasked — `tests/wire_privacy.rs` pins this against a sniffing
//! transport.
//!
//! The split preserves exact `Z_{2^64}` arithmetic, which is what the
//! transport-equivalence test suite pins against the in-process engine.

use crate::cost::PrimitiveCounts;
use crate::dealer::{self, DealerSource, InputMask, MaterialBlocks};
use crate::engine::{Engine, OpError};
use crate::relation::{check_shareable, shareable_int, Rel};
use crate::ring::RingElem;
use crate::share::AuthShare;
use conclave_engine::Relation;
use conclave_ir::schema::Schema;
use conclave_ir::types::Value;
use conclave_net::{MessageKind, NetStats, StreamTag, Transport, TransportError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// FNV-1a offset basis: the initial state of the transcript digests.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one word into an FNV-1a-style running digest. Used for the binary
/// transcript digest and for deriving the MAC-check challenge seed from the
/// opened-value transcript — collision-resistance is not required, only that
/// independent tampering perturbs the digest with overwhelming probability.
fn fnv_mix(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Errors raised by the party runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartyError {
    /// A transport failure (timeout, disconnect, I/O).
    Net(TransportError),
    /// A protocol-level failure (bad column, arity, malformed peer data).
    Proto(String),
    /// The deferred SPDZ MAC check failed: an opened value is inconsistent
    /// with its MACs, i.e. online traffic was tampered with (or a party
    /// misbehaved). The query must abort without revealing a result.
    Integrity(String),
    /// The operator is not executable by the party runtime.
    Unsupported(String),
}

impl fmt::Display for PartyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartyError::Net(e) => write!(f, "party transport error: {e}"),
            PartyError::Proto(s) => write!(f, "party protocol error: {s}"),
            PartyError::Integrity(s) => write!(f, "integrity violation: {s}"),
            PartyError::Unsupported(s) => write!(f, "unsupported in the party runtime: {s}"),
        }
    }
}

impl std::error::Error for PartyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartyError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for PartyError {
    fn from(e: TransportError) -> Self {
        PartyError::Net(e)
    }
}

impl From<OpError> for PartyError {
    fn from(e: OpError) -> Self {
        match e {
            OpError::Invalid(s) => PartyError::Proto(s),
            OpError::Unsupported(s) => PartyError::Unsupported(s),
        }
    }
}

/// Result alias for party-runtime operations.
pub type PartyResult<T> = Result<T, PartyError>;

/// Number of Beaver triples derived from the common stream per cache refill.
const TRIPLE_BLOCK: usize = 1024;

/// Binary (bitwise) Beaver triple words per cache refill. One word carries
/// 64 AND gates, so a block covers ~16 k gates.
const BIT_TRIPLE_BLOCK: usize = 256;

/// Dual-shared bit-decomposition masks per cache refill.
const SHARED_BITS_BLOCK: usize = 256;

/// daBit words (64 dual-shared random bits each) per cache refill.
const DABIT_BLOCK: usize = 16;

/// One party's **session-lifetime** protocol state: identity, dealer state
/// (the common and private randomness streams), the Beaver triple cache and
/// the transport endpoint. A session lives as long as the query — shares it
/// produced in one plan step stay valid in every later step, because the
/// additive sharing is defined by the session, not by any step.
///
/// All parties of a mesh must construct their `PartySession` with the *same*
/// `seed` and then execute the *same* sequence of collective operations; the
/// shared seed drives the common-randomness stream (triples, permutations,
/// deterministic re-sharing) that keeps the parties in lock-step without a
/// coordinator.
///
/// Per-step work happens through [`PartySession::step`], which hands out a
/// [`StepCtx`] carrying the plan-step id: every collective exchange inside
/// the step is tagged with a fresh `(step, stream)` [`StreamTag`], so a
/// step's final open can still be in flight while the next step's rounds are
/// already crossing the same connections.
pub struct PartySession<'n> {
    net: &'n dyn Transport,
    /// Common randomness: identical stream on every party.
    common: StdRng,
    /// Private randomness: distinct per party (used to share own inputs).
    private: StdRng,
    /// Where offline material comes from (see [`DealerSource`]).
    feed: DealerSource,
    /// Whether shares carry SPDZ MACs (false only for
    /// [`PartySession::unauthenticated`]).
    auth: bool,
    /// This party's additive share `α_i` of the global MAC key.
    alpha: RingElem,
    /// The global key itself — known only in [`DealerSource::Seeded`] mode,
    /// where every party can recompute the dealer anyway; zero otherwise.
    alpha_global: RingElem,
    /// Beaver triple shares, authenticated.
    triples: VecDeque<(AuthShare, AuthShare, AuthShare)>,
    /// Binary Beaver triple words `(a, b, c = a & b)`, XOR-shared: each word
    /// feeds 64 AND gates of the comparison circuits.
    bit_triples: VecDeque<(u64, u64, u64)>,
    /// Bit-decomposition masks in dual representation: the mask's 64 bits
    /// XOR-shared as one word, plus an authenticated additive share of the
    /// same value.
    shared_bits: VecDeque<(u64, AuthShare)>,
    /// daBits, word-packed: 64 random bits XOR-shared as one word, with an
    /// authenticated additive share of each individual bit.
    dabits: VecDeque<(u64, Vec<AuthShare>)>,
    /// Dealer-provided input masks, indexed by owning party (dealer-backed
    /// modes only; seeded mode shares inputs from private randomness).
    input_masks: Vec<VecDeque<InputMask>>,
    /// Every arithmetic opening since the last integrity check: the publicly
    /// reconstructed value and this party's MAC share of it.
    opened_log: Vec<(RingElem, RingElem)>,
    /// Running digest over the binary-domain (XOR) openings since the last
    /// check, cross-checked between parties at check time.
    xor_digest: u64,
    /// Number of binary-domain openings folded into `xor_digest`.
    xor_opened: u64,
    /// Stream counter for the MAC-check rounds (on the reserved step
    /// `u32::MAX`, so they never collide with plan-step tags).
    check_seq: u32,
    counts: PrimitiveCounts,
}

impl<'n> PartySession<'n> {
    /// Creates the session for `net`'s party with the mesh-wide `seed`,
    /// seeding the dealer **once** for the whole query. Equivalent to
    /// [`PartySession::with_dealer`] with [`DealerSource::Seeded`].
    pub fn new(net: &'n dyn Transport, seed: u64) -> Self {
        Self::with_dealer(net, seed, DealerSource::Seeded).expect("seeded dealer cannot fail")
    }

    /// Creates a session drawing offline material from `source`. All parties
    /// must use the same mesh-wide `seed` (it drives the common stream used
    /// for shuffles and, in seeded mode, the dealer) and compatible sources.
    pub fn with_dealer(
        net: &'n dyn Transport,
        seed: u64,
        source: DealerSource,
    ) -> PartyResult<Self> {
        let party = net.party() as u64;
        let mut sess = PartySession {
            net,
            common: StdRng::seed_from_u64(seed),
            private: StdRng::seed_from_u64(seed ^ (party + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            feed: source,
            auth: true,
            alpha: RingElem::ZERO,
            alpha_global: RingElem::ZERO,
            triples: VecDeque::new(),
            bit_triples: VecDeque::new(),
            shared_bits: VecDeque::new(),
            dabits: VecDeque::new(),
            input_masks: Vec::new(),
            opened_log: Vec::new(),
            xor_digest: FNV_OFFSET,
            xor_opened: 0,
            check_seq: 0,
            counts: PrimitiveCounts::default(),
        };
        match &mut sess.feed {
            DealerSource::Seeded => {
                // The key is the FIRST draw from the common stream, so every
                // party derives the same global α and consistent α_i shares.
                sess.alpha_global = RingElem(sess.common.gen::<u64>());
                sess.alpha = sess.reshare_from_common(sess.alpha_global);
            }
            DealerSource::Preloaded(blocks) => {
                if blocks.party != net.party() || blocks.parties != net.parties() {
                    return Err(PartyError::Proto(format!(
                        "dealer material is for P{} of {}, not P{} of {}",
                        blocks.party,
                        blocks.parties,
                        net.party(),
                        net.parties()
                    )));
                }
                sess.alpha = blocks.alpha;
                sess.triples = std::mem::take(&mut blocks.triples);
                sess.bit_triples = std::mem::take(&mut blocks.bit_triples);
                sess.shared_bits = std::mem::take(&mut blocks.shared_bits);
                sess.dabits = std::mem::take(&mut blocks.dabits);
                sess.input_masks = std::mem::take(&mut blocks.input_masks);
            }
            DealerSource::Streamed { link, dealer } => {
                let words = request_block(link.as_ref(), *dealer, &[dealer::REQ_ALPHA, 1])?;
                if words.len() != 1 {
                    return Err(PartyError::Proto(format!(
                        "dealer sent {} words for the key share",
                        words.len()
                    )));
                }
                sess.alpha = RingElem(words[0]);
                sess.input_masks = (0..net.parties()).map(|_| VecDeque::new()).collect();
            }
        }
        Ok(sess)
    }

    /// Creates an **unauthenticated** seeded session: shares carry no MACs
    /// (`m = 0` throughout, `α = 0`) and [`PartySession::check_integrity`] is
    /// a no-op. The common stream is drawn exactly as the pre-MAC runtime
    /// drew it, preserving the historical runtime shape for the baseline
    /// benchmark and for `tests/malicious_integrity.rs`' pinned
    /// silent-tampering regression.
    pub fn unauthenticated(net: &'n dyn Transport, seed: u64) -> Self {
        let party = net.party() as u64;
        PartySession {
            net,
            common: StdRng::seed_from_u64(seed),
            private: StdRng::seed_from_u64(seed ^ (party + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            feed: DealerSource::Seeded,
            auth: false,
            alpha: RingElem::ZERO,
            alpha_global: RingElem::ZERO,
            triples: VecDeque::new(),
            bit_triples: VecDeque::new(),
            shared_bits: VecDeque::new(),
            dabits: VecDeque::new(),
            input_masks: Vec::new(),
            opened_log: Vec::new(),
            xor_digest: FNV_OFFSET,
            xor_opened: 0,
            check_seq: 0,
            counts: PrimitiveCounts::default(),
        }
    }

    /// This endpoint's party id.
    pub fn party(&self) -> u32 {
        self.net.party()
    }

    /// Number of parties in the mesh.
    pub fn parties(&self) -> u32 {
        self.net.parties()
    }

    /// The transport endpoint this session drives.
    pub fn net(&self) -> &'n dyn Transport {
        self.net
    }

    /// Snapshot of the primitive counters (identical on every party, because
    /// every party counts the same collective operations).
    pub fn counts(&self) -> PrimitiveCounts {
        self.counts
    }

    /// Whether this session's shares carry SPDZ MACs.
    pub fn is_authenticated(&self) -> bool {
        self.auth
    }

    /// This party's additive share of the global MAC key.
    pub fn alpha_share(&self) -> RingElem {
        self.alpha
    }

    /// Tops up a preloaded session's offline stock with a later bundle from
    /// the *same* dealer. The bundle must target this party/mesh and must be
    /// dealt under the same MAC key share `α_i` — a bundle from a different
    /// dealer seed would authenticate under a different key and every
    /// subsequent MAC check would abort, so it is rejected up front with a
    /// typed [`PartyError::Proto`].
    pub fn refill(&mut self, mut blocks: MaterialBlocks) -> PartyResult<()> {
        if !matches!(self.feed, DealerSource::Preloaded(_)) {
            return Err(PartyError::Proto(
                "refill only applies to preloaded dealer sessions".into(),
            ));
        }
        if blocks.party != self.net.party() || blocks.parties != self.net.parties() {
            return Err(PartyError::Proto(format!(
                "refill material is for P{} of {}, not P{} of {}",
                blocks.party,
                blocks.parties,
                self.net.party(),
                self.net.parties()
            )));
        }
        if blocks.alpha != self.alpha {
            return Err(PartyError::Proto(
                "refill material was dealt under a different MAC key share".into(),
            ));
        }
        self.triples.append(&mut blocks.triples);
        self.bit_triples.append(&mut blocks.bit_triples);
        self.shared_bits.append(&mut blocks.shared_bits);
        self.dabits.append(&mut blocks.dabits);
        for (owner, mut masks) in blocks.input_masks.into_iter().enumerate() {
            if let Some(queue) = self.input_masks.get_mut(owner) {
                queue.append(&mut masks);
            }
        }
        Ok(())
    }

    /// Traffic on the dedicated dealer link, if this session streams its
    /// offline material (this endpoint's sends: the block requests).
    pub fn dealer_stats(&self) -> Option<NetStats> {
        match &self.feed {
            DealerSource::Streamed { link, .. } => Some(link.stats()),
            _ => None,
        }
    }

    /// Opens the per-step context for plan step `step`: collective exchanges
    /// made through it are tagged `(step, 0..)`. Every party must open steps
    /// in the same order with the same ids.
    pub fn step(&mut self, step: u32) -> StepCtx<'_, 'n> {
        StepCtx {
            sess: self,
            step,
            next_stream: 0,
        }
    }

    /// Draws `n` shares of `value` from the common randomness stream and
    /// returns this party's one. Every party performs the identical draws, so
    /// the shares are consistent without communication.
    fn reshare_from_common(&mut self, value: RingElem) -> RingElem {
        let n = self.parties() as usize;
        let mut acc = RingElem::ZERO;
        let mut own = RingElem::ZERO;
        for p in 0..n - 1 {
            let r = RingElem(self.common.gen::<u64>());
            if p == self.party() as usize {
                own = r;
            }
            acc += r;
        }
        if self.party() as usize == n - 1 {
            own = value - acc;
        }
        own
    }

    /// Reshare of `value` from the common stream, paired with a MAC share:
    /// the seeded dealer's authenticated analogue of
    /// [`PartySession::reshare_from_common`]. In unauthenticated mode the MAC
    /// component stays zero **and the common stream is not advanced for it**,
    /// keeping the stream identical to the pre-MAC runtime.
    fn auth_reshare_from_common(&mut self, value: RingElem) -> AuthShare {
        let v = self.reshare_from_common(value);
        let m = if self.auth {
            let mac = self.alpha_global * value;
            self.reshare_from_common(mac)
        } else {
            RingElem::ZERO
        };
        AuthShare::new(v, m)
    }

    /// Material-exhausted error for the preloaded dealer mode.
    fn exhausted(what: &str) -> PartyError {
        PartyError::Proto(format!(
            "dealer material exhausted ({what}); pregenerate a larger MaterialSpec"
        ))
    }

    /// Takes the next Beaver triple share from the cache, refilling a whole
    /// block when it runs dry — from the common stream (seeded mode) or the
    /// dealer link (streamed mode). All parties refill at the same point of
    /// the same collective operation, so their dealer streams stay aligned.
    fn next_triple(&mut self) -> PartyResult<(AuthShare, AuthShare, AuthShare)> {
        if self.triples.is_empty() {
            match &self.feed {
                DealerSource::Seeded => {
                    for _ in 0..TRIPLE_BLOCK {
                        let a = RingElem(self.common.gen::<u64>());
                        let b = RingElem(self.common.gen::<u64>());
                        let c = a * b;
                        let a_i = self.auth_reshare_from_common(a);
                        let b_i = self.auth_reshare_from_common(b);
                        let c_i = self.auth_reshare_from_common(c);
                        self.triples.push_back((a_i, b_i, c_i));
                    }
                }
                DealerSource::Preloaded(_) => return Err(Self::exhausted("triples")),
                DealerSource::Streamed { link, dealer } => {
                    let words = request_block(
                        link.as_ref(),
                        *dealer,
                        &[dealer::REQ_TRIPLES, TRIPLE_BLOCK as u64],
                    )?;
                    self.triples.extend(dealer::decode_triples(&words)?);
                }
            }
        }
        Ok(self.triples.pop_front().expect("refilled above"))
    }

    /// Draws XOR shares of `value` from the common stream and returns this
    /// party's word. The binary analogue of
    /// [`PartySession::reshare_from_common`].
    fn xor_share_from_common(&mut self, value: u64) -> u64 {
        let n = self.parties() as usize;
        let mut acc = 0u64;
        let mut own = 0u64;
        for p in 0..n - 1 {
            let r = self.common.gen::<u64>();
            if p == self.party() as usize {
                own = r;
            }
            acc ^= r;
        }
        if self.party() as usize == n - 1 {
            own = value ^ acc;
        }
        own
    }

    /// Takes `n` binary Beaver triple words, refilling whole blocks when the
    /// cache runs dry (same alignment argument as
    /// [`PartySession::next_triple`]).
    fn take_bit_triples(&mut self, n: usize) -> PartyResult<Vec<(u64, u64, u64)>> {
        while self.bit_triples.len() < n {
            match &self.feed {
                DealerSource::Seeded => {
                    for _ in 0..BIT_TRIPLE_BLOCK {
                        let a = self.common.gen::<u64>();
                        let b = self.common.gen::<u64>();
                        let c = a & b;
                        let a_i = self.xor_share_from_common(a);
                        let b_i = self.xor_share_from_common(b);
                        let c_i = self.xor_share_from_common(c);
                        self.bit_triples.push_back((a_i, b_i, c_i));
                    }
                }
                DealerSource::Preloaded(_) => return Err(Self::exhausted("bit triples")),
                DealerSource::Streamed { link, dealer } => {
                    let words = request_block(
                        link.as_ref(),
                        *dealer,
                        &[dealer::REQ_BIT_TRIPLES, BIT_TRIPLE_BLOCK as u64],
                    )?;
                    self.bit_triples.extend(dealer::decode_bit_triples(&words)?);
                }
            }
        }
        Ok(self.bit_triples.drain(..n).collect())
    }

    /// Takes `n` dual-shared bit-decomposition masks (XOR-shared bits plus
    /// an authenticated additive share of the same 64-bit value).
    fn take_shared_bits(&mut self, n: usize) -> PartyResult<Vec<(u64, AuthShare)>> {
        while self.shared_bits.len() < n {
            match &self.feed {
                DealerSource::Seeded => {
                    for _ in 0..SHARED_BITS_BLOCK {
                        let r = self.common.gen::<u64>();
                        let bits_i = self.xor_share_from_common(r);
                        let add_i = self.auth_reshare_from_common(RingElem(r));
                        self.shared_bits.push_back((bits_i, add_i));
                    }
                }
                DealerSource::Preloaded(_) => return Err(Self::exhausted("shared bits")),
                DealerSource::Streamed { link, dealer } => {
                    let words = request_block(
                        link.as_ref(),
                        *dealer,
                        &[dealer::REQ_SHARED_BITS, SHARED_BITS_BLOCK as u64],
                    )?;
                    self.shared_bits.extend(dealer::decode_shared_bits(&words)?);
                }
            }
        }
        Ok(self.shared_bits.drain(..n).collect())
    }

    /// Takes `n` daBit words: 64 random bits per word, XOR-shared as a word
    /// and additively shared (authenticated) bit by bit.
    fn take_dabits(&mut self, n: usize) -> PartyResult<Vec<(u64, Vec<AuthShare>)>> {
        while self.dabits.len() < n {
            match &self.feed {
                DealerSource::Seeded => {
                    for _ in 0..DABIT_BLOCK {
                        let rho = self.common.gen::<u64>();
                        let bits_i = self.xor_share_from_common(rho);
                        let adds: Vec<AuthShare> = (0..64)
                            .map(|k| self.auth_reshare_from_common(RingElem((rho >> k) & 1)))
                            .collect();
                        self.dabits.push_back((bits_i, adds));
                    }
                }
                DealerSource::Preloaded(_) => return Err(Self::exhausted("daBits")),
                DealerSource::Streamed { link, dealer } => {
                    let words = request_block(
                        link.as_ref(),
                        *dealer,
                        &[dealer::REQ_DABITS, DABIT_BLOCK as u64],
                    )?;
                    self.dabits.extend(dealer::decode_dabits(&words)?);
                }
            }
        }
        Ok(self.dabits.drain(..n).collect())
    }

    /// Takes `n` input masks for `owner` from a dealer-backed feed. Returns
    /// `None` in seeded mode, where input sharing uses the owner's private
    /// randomness instead of dealer masks.
    fn take_input_masks(&mut self, owner: u32, n: usize) -> PartyResult<Option<Vec<InputMask>>> {
        match &mut self.feed {
            DealerSource::Seeded => Ok(None),
            DealerSource::Preloaded(_) => {
                let queue = self
                    .input_masks
                    .get_mut(owner as usize)
                    .ok_or_else(|| PartyError::Proto(format!("no input masks for P{owner}")))?;
                if queue.len() < n {
                    return Err(Self::exhausted("input masks"));
                }
                Ok(Some(queue.drain(..n).collect()))
            }
            DealerSource::Streamed { link, dealer } => {
                let queue = &mut self.input_masks[owner as usize];
                if queue.len() < n {
                    let shortfall = (n - queue.len()) as u64;
                    let words = request_block(
                        link.as_ref(),
                        *dealer,
                        &[dealer::REQ_INPUT_MASKS, owner as u64, shortfall],
                    )?;
                    let own = owner == self.net.party();
                    queue.extend(dealer::decode_input_masks(&words, own)?);
                }
                Ok(Some(queue.drain(..n).collect()))
            }
        }
    }

    /// Records arithmetic openings (public value + this party's MAC share)
    /// for the next integrity check.
    fn log_opens(&mut self, opened: &[RingElem], mac_shares: impl Iterator<Item = RingElem>) {
        if self.auth {
            self.opened_log
                .extend(opened.iter().copied().zip(mac_shares));
        }
    }

    /// Folds binary-domain (XOR) openings into the transcript digest.
    fn log_xor_opens(&mut self, opened: &[u64]) {
        if self.auth {
            for &w in opened {
                self.xor_digest = fnv_mix(self.xor_digest, w);
            }
            self.xor_opened += opened.len() as u64;
        }
    }

    /// Deferred SPDZ integrity check over everything opened since the last
    /// check. Run at **reveal boundaries**, before any cleartext leaves the
    /// party runtime:
    ///
    /// 1. every party derives challenge coefficients `χ_j` from the shared
    ///    transcript of opened values and computes
    ///    `σ_i = Σ_j χ_j·(m_j − α_i·x_j)`, which sums to
    ///    `Σ_j χ_j·(MAC_j − α·x_j)` across parties — zero iff every opened
    ///    `x_j` is consistent with its MAC;
    /// 2. a commit round fixes every party's `(σ_i, binary digest)` before
    ///    anyone reveals theirs (so a rushing party cannot adapt);
    /// 3. an open round reveals them; the commitments are verified, the
    ///    binary-domain digests must agree, and `Σσ` must be zero.
    ///
    /// Any additive tampering with an online opening fails the zero-sum test
    /// with overwhelming probability; any tampering with a binary opening
    /// diverges the digests. On failure the query aborts with
    /// [`PartyError::Integrity`] — the runtime never reveals a value whose
    /// MAC trail has not passed. No-op (zero rounds) when nothing was opened
    /// since the last check, and in unauthenticated sessions.
    pub fn check_integrity(&mut self) -> PartyResult<()> {
        if !self.auth || (self.opened_log.is_empty() && self.xor_opened == 0) {
            return Ok(());
        }
        let seq = self.check_seq;
        self.check_seq = self.check_seq.wrapping_add(2);
        // Challenge seed from the shared transcript: identical on every
        // honest party, already divergent wherever tampering changed an
        // opened value.
        let mut chal = fnv_mix(FNV_OFFSET, seq as u64);
        for &(x, _) in &self.opened_log {
            chal = fnv_mix(chal, x.0);
        }
        let mut chi = StdRng::seed_from_u64(chal);
        let mut sigma = RingElem::ZERO;
        for &(x, m) in &self.opened_log {
            let coeff = RingElem(chi.gen::<u64>());
            sigma += coeff * (m - self.alpha * x);
        }
        let bin = self.xor_digest;
        let me = self.party();
        let commitment = mac_check_commitment(me, seq, sigma, bin);

        // Round 1: commit to (σ_i, binary digest).
        let tag = StreamTag::new(u32::MAX, seq);
        self.net.send_all_tagged(
            tag,
            MessageKind::MacCheck,
            "mac-check commit",
            &[commitment],
        )?;
        let mut commitments = vec![0u64; self.parties() as usize];
        for peer in 0..self.parties() {
            if peer == me {
                continue;
            }
            let env = self.net.recv_tagged(peer, tag)?;
            if env.payload.len() != 1 {
                return Err(PartyError::Proto(format!(
                    "P{peer} sent {} words in a MAC-check commitment",
                    env.payload.len()
                )));
            }
            commitments[peer as usize] = env.payload[0];
        }
        self.net.record_round();

        // Round 2: open (σ_i, binary digest) and verify.
        let tag = StreamTag::new(u32::MAX, seq.wrapping_add(1));
        self.net.send_all_tagged(
            tag,
            MessageKind::MacCheck,
            "mac-check open",
            &[sigma.0, bin],
        )?;
        let mut total = sigma;
        for peer in 0..self.parties() {
            if peer == me {
                continue;
            }
            let env = self.net.recv_tagged(peer, tag)?;
            if env.payload.len() != 2 {
                return Err(PartyError::Proto(format!(
                    "P{peer} sent {} words in a MAC-check opening",
                    env.payload.len()
                )));
            }
            let peer_sigma = RingElem(env.payload[0]);
            let peer_bin = env.payload[1];
            if mac_check_commitment(peer, seq, peer_sigma, peer_bin) != commitments[peer as usize] {
                return Err(PartyError::Integrity(format!(
                    "P{peer}'s MAC-check opening does not match its commitment"
                )));
            }
            if peer_bin != bin {
                return Err(PartyError::Integrity(format!(
                    "binary transcript digest diverges from P{peer}: a boolean-domain \
                     opening was tampered with"
                )));
            }
            total += peer_sigma;
        }
        self.net.record_round();
        if total != RingElem::ZERO {
            return Err(PartyError::Integrity(format!(
                "MAC check failed over {} opened values: online traffic was tampered with",
                self.opened_log.len()
            )));
        }
        self.counts.mac_checks += 1;
        self.opened_log.clear();
        self.xor_digest = FNV_OFFSET;
        self.xor_opened = 0;
        Ok(())
    }

    /// A random permutation of `0..n` from the common stream — identical on
    /// every party, so a shuffle needs no index exchange.
    pub fn random_permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.common.gen_range(0..=i);
            perm.swap(i, j);
        }
        perm
    }
}

impl fmt::Debug for PartySession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartySession")
            .field("party", &self.party())
            .field("parties", &self.parties())
            .field("auth", &self.auth)
            .field("feed", &self.feed)
            .field("counts", &self.counts)
            .finish()
    }
}

/// One pull on the dealer link: send a `[code, ...]` request, receive the
/// block. The link is a dedicated two-endpoint mesh, so ordering is trivial.
fn request_block(link: &dyn Transport, dealer: u32, request: &[u64]) -> PartyResult<Vec<u64>> {
    link.send_to(dealer, MessageKind::Dealer, "dealer request", request)?;
    let env = link.recv_from(dealer)?;
    if env.kind != MessageKind::Dealer {
        return Err(PartyError::Proto(format!(
            "expected a dealer block, got {} traffic",
            env.kind
        )));
    }
    Ok(env.payload)
}

/// Hash commitment binding one party's MAC-check opening `(σ, digest)` to
/// the check round before anyone reveals theirs. A keyed digest is enough
/// here: the committed words are themselves high-entropy shares.
fn mac_check_commitment(party: u32, seq: u32, sigma: RingElem, bin: u64) -> u64 {
    let mut d = fnv_mix(FNV_OFFSET, 0x6d61_635f_6368_6b00 ^ party as u64);
    d = fnv_mix(d, seq as u64);
    d = fnv_mix(d, sigma.0);
    fnv_mix(d, bin)
}

/// One plan step's view of a [`PartySession`]: the same protocol primitives,
/// with every collective exchange tagged `(step, stream)` so concurrent
/// steps can share the session-lifetime connections. Borrowing the session
/// mutably keeps the step sequence race-free within one party while the
/// dealer state advances across steps.
pub struct StepCtx<'s, 'n> {
    sess: &'s mut PartySession<'n>,
    step: u32,
    next_stream: u32,
}

impl<'n> StepCtx<'_, 'n> {
    /// This endpoint's party id.
    pub fn party(&self) -> u32 {
        self.sess.party()
    }

    /// Number of parties in the mesh.
    pub fn parties(&self) -> u32 {
        self.sess.parties()
    }

    /// The plan step this context belongs to.
    pub fn step_id(&self) -> u32 {
        self.step
    }

    /// Snapshot of the session's primitive counters.
    pub fn counts(&self) -> PrimitiveCounts {
        self.sess.counts()
    }

    /// The session this step borrows.
    pub fn session(&mut self) -> &mut PartySession<'n> {
        self.sess
    }

    /// Allocates the tag for the step's next collective exchange. Every
    /// party executes the same exchanges in the same order, so the counters
    /// advance identically mesh-wide.
    fn next_tag(&mut self) -> StreamTag {
        let tag = StreamTag::new(self.step, self.next_stream);
        self.next_stream += 1;
        tag
    }

    // ------------------------------------------------------------------
    // Input / output.
    // ------------------------------------------------------------------

    /// Collective input sharing of a column of `n` values owned by `owner`.
    ///
    /// The owner passes `Some(values)`; everyone else passes `None`. Returns
    /// this party's local (authenticated) share vector. The wire scheme
    /// depends on the session's dealer feed:
    ///
    /// * **dealer-backed** (preloaded/streamed): the dealer supplied an
    ///   authenticated mask `[r]` per cell, with `r` in the clear to the
    ///   owner only. The owner broadcasts `δ = x − r` (uniform, so it
    ///   reveals nothing) and every party computes `[x] = [r] + δ` locally —
    ///   tampering with `δ` on any link breaks the MAC trail and is caught
    ///   at the next [`PartySession::check_integrity`];
    /// * **seeded**: the owner splits each value with its *private*
    ///   randomness and sends every other party its share vector, exactly
    ///   the pre-MAC scheme; MAC shares derive locally from the mesh-wide
    ///   seeded key (`m_i = α·x_i`).
    pub fn input_column(
        &mut self,
        owner: u32,
        values: Option<&[i64]>,
        n: usize,
    ) -> PartyResult<Vec<AuthShare>> {
        self.sess.counts.input_elems += n as u64;
        let masks = self.sess.take_input_masks(owner, n)?;
        let tag = self.next_tag();
        if let Some(masks) = masks {
            let delta: Vec<u64> = if self.party() == owner {
                let values = values.ok_or_else(|| {
                    PartyError::Proto("input owner must supply the cleartext values".into())
                })?;
                if values.len() != n {
                    return Err(PartyError::Proto(format!(
                        "input length mismatch: {} values for {n} rows",
                        values.len()
                    )));
                }
                let delta: Vec<u64> = values
                    .iter()
                    .zip(&masks)
                    .map(|(&x, mask)| {
                        let r = mask.clear.ok_or_else(|| {
                            PartyError::Proto(
                                "dealer input mask is missing its cleartext value".into(),
                            )
                        })?;
                        Ok((RingElem::from_i64(x) - r).0)
                    })
                    .collect::<PartyResult<_>>()?;
                self.sess
                    .net
                    .send_all_tagged(tag, MessageKind::SecretShare, "input", &delta)?;
                delta
            } else {
                let env = self.sess.net.recv_tagged(owner, tag)?;
                if env.payload.len() != n {
                    return Err(PartyError::Proto(format!(
                        "expected {n} input offsets from P{owner}, got {}",
                        env.payload.len()
                    )));
                }
                env.payload
            };
            // [x] = [r] + δ: the public offset lands on party 0's value
            // share, every party adjusts its MAC share by α_i·δ.
            let alpha = self.sess.alpha;
            let adjust = self.party() == 0;
            Ok(masks
                .into_iter()
                .zip(delta)
                .map(|(mask, d)| {
                    let d = RingElem(d);
                    let mut s = mask.share;
                    if adjust {
                        s.v += d;
                    }
                    s.m += alpha * d;
                    s
                })
                .collect())
        } else {
            let alpha = self.sess.alpha_global;
            let shares: Vec<RingElem> = if self.party() == owner {
                let values = values.ok_or_else(|| {
                    PartyError::Proto("input owner must supply the cleartext values".into())
                })?;
                if values.len() != n {
                    return Err(PartyError::Proto(format!(
                        "input length mismatch: {} values for {n} rows",
                        values.len()
                    )));
                }
                let parties = self.parties() as usize;
                // per_party[p][i] = party p's share of values[i].
                let mut per_party = vec![vec![RingElem::ZERO; n]; parties];
                for (i, &v) in values.iter().enumerate() {
                    let mut acc = RingElem::ZERO;
                    for row in per_party.iter_mut().take(parties - 1) {
                        let r = RingElem(self.sess.private.gen::<u64>());
                        row[i] = r;
                        acc += r;
                    }
                    per_party[parties - 1][i] = RingElem::from_i64(v) - acc;
                }
                for (p, shares) in per_party.iter().enumerate() {
                    if p as u32 != owner {
                        let payload: Vec<u64> = shares.iter().map(|s| s.0).collect();
                        self.sess.net.send_tagged(
                            p as u32,
                            tag,
                            MessageKind::SecretShare,
                            "input",
                            &payload,
                        )?;
                    }
                }
                per_party.swap_remove(owner as usize)
            } else {
                let env = self.sess.net.recv_tagged(owner, tag)?;
                if env.payload.len() != n {
                    return Err(PartyError::Proto(format!(
                        "expected {n} input shares from P{owner}, got {}",
                        env.payload.len()
                    )));
                }
                env.payload.into_iter().map(RingElem).collect()
            };
            Ok(shares
                .into_iter()
                .map(|v| AuthShare::new(v, alpha * v))
                .collect())
        }
    }

    /// Opens a batch of shared values to every party: one broadcast round.
    /// The reconstruction is **unchecked** — the opened values and their MAC
    /// shares are logged for the next [`PartySession::check_integrity`].
    pub fn open_column(&mut self, shares: &[AuthShare]) -> PartyResult<Vec<i64>> {
        self.sess.counts.opened_elems += shares.len() as u64;
        let opened = self.exchange_and_sum(shares, MessageKind::Reveal, "open")?;
        Ok(opened.into_iter().map(RingElem::to_i64).collect())
    }

    /// Opens a single shared value. Scalar fast path: the one-word exchange
    /// happens on the stack instead of allocating the `open_column` vectors.
    pub fn open(&mut self, x: AuthShare) -> PartyResult<i64> {
        self.sess.counts.opened_elems += 1;
        let tag = self.next_tag();
        self.sess
            .net
            .send_all_tagged(tag, MessageKind::Reveal, "open1", &[x.v.0])?;
        let mut sum = x.v;
        for peer in 0..self.parties() {
            if peer == self.party() {
                continue;
            }
            let env = self.sess.net.recv_tagged(peer, tag)?;
            if env.payload.len() != 1 {
                return Err(PartyError::Proto(format!(
                    "P{peer} sent {} words in a scalar open",
                    env.payload.len()
                )));
            }
            sum += RingElem(env.payload[0]);
        }
        self.sess.net.record_round();
        self.sess.log_opens(&[sum], std::iter::once(x.m));
        Ok(sum.to_i64())
    }

    /// Broadcasts this party's value-share words and sums them with every
    /// peer's: the core of every opening. One synchronous round. MAC shares
    /// never cross the wire — they are logged with the reconstructed values
    /// for the deferred integrity check.
    fn exchange_and_sum(
        &mut self,
        shares: &[AuthShare],
        kind: MessageKind,
        label: &str,
    ) -> PartyResult<Vec<RingElem>> {
        if shares.is_empty() {
            return Ok(Vec::new());
        }
        let tag = self.next_tag();
        let payload: Vec<u64> = shares.iter().map(|s| s.v.0).collect();
        self.sess.net.send_all_tagged(tag, kind, label, &payload)?;
        let mut sums: Vec<RingElem> = shares.iter().map(|s| s.v).collect();
        for peer in 0..self.parties() {
            if peer == self.party() {
                continue;
            }
            let env = self.sess.net.recv_tagged(peer, tag)?;
            if env.payload.len() != shares.len() {
                return Err(PartyError::Proto(format!(
                    "P{peer} sent {} words in a {label} round of {}",
                    env.payload.len(),
                    shares.len()
                )));
            }
            for (acc, word) in sums.iter_mut().zip(&env.payload) {
                *acc += RingElem(*word);
            }
        }
        self.sess.net.record_round();
        self.sess.log_opens(&sums, shares.iter().map(|s| s.m));
        Ok(sums)
    }

    // ------------------------------------------------------------------
    // Circuit support (used by `crate::circuits`).
    // ------------------------------------------------------------------

    /// Opens masked ring values (`x − r` for dealer masks `r`): an additive
    /// exchange attributed as [`MessageKind::MaskedOpen`] and counted as a
    /// circuit round.
    pub(crate) fn open_masked(
        &mut self,
        shares: &[AuthShare],
        label: &str,
    ) -> PartyResult<Vec<RingElem>> {
        self.sess.counts.circuit_rounds += 1;
        self.exchange_and_sum(shares, MessageKind::MaskedOpen, label)
    }

    /// Opens masked XOR-shared words (`x ⊕ a` for binary Beaver masks `a`):
    /// broadcast and XOR-combine, one synchronous round.
    pub(crate) fn open_xor_words(&mut self, words: &[u64], label: &str) -> PartyResult<Vec<u64>> {
        if words.is_empty() {
            return Ok(Vec::new());
        }
        self.sess.counts.circuit_rounds += 1;
        let tag = self.next_tag();
        self.sess
            .net
            .send_all_tagged(tag, MessageKind::MaskedOpen, label, words)?;
        let mut acc = words.to_vec();
        for peer in 0..self.parties() {
            if peer == self.party() {
                continue;
            }
            let env = self.sess.net.recv_tagged(peer, tag)?;
            if env.payload.len() != words.len() {
                return Err(PartyError::Proto(format!(
                    "P{peer} sent {} words in a {label} round of {}",
                    env.payload.len(),
                    words.len()
                )));
            }
            for (a, w) in acc.iter_mut().zip(&env.payload) {
                *a ^= w;
            }
        }
        self.sess.net.record_round();
        // Binary openings have no arithmetic MACs; the integrity check
        // cross-compares a digest of the publicly combined words instead.
        self.sess.log_xor_opens(&acc);
        Ok(acc)
    }

    /// Takes binary Beaver triple words from the dealer cache.
    pub(crate) fn take_bit_triples(&mut self, n: usize) -> PartyResult<Vec<(u64, u64, u64)>> {
        self.sess.take_bit_triples(n)
    }

    /// Takes dual-shared bit-decomposition masks from the dealer cache.
    pub(crate) fn take_shared_bits(&mut self, n: usize) -> PartyResult<Vec<(u64, AuthShare)>> {
        self.sess.take_shared_bits(n)
    }

    /// Takes daBit words from the dealer cache.
    pub(crate) fn take_dabits(&mut self, n: usize) -> PartyResult<Vec<(u64, Vec<AuthShare>)>> {
        self.sess.take_dabits(n)
    }

    /// Tallies evaluated binary AND gates.
    pub(crate) fn tally_bit_ands(&mut self, gates: u64) {
        self.sess.counts.bit_ands += gates;
    }

    // ------------------------------------------------------------------
    // Linear operations (local).
    // ------------------------------------------------------------------

    /// An authenticated sharing of the public ring constant `c`: party 0
    /// holds the value, everyone else zero, and every party's MAC share is
    /// `α_i·c` (summing to `α·c`).
    pub(crate) fn constant_elem(&self, c: RingElem) -> AuthShare {
        AuthShare::new(
            if self.party() == 0 { c } else { RingElem::ZERO },
            self.sess.alpha * c,
        )
    }

    /// Adds the public ring constant `c` to a sharing: party 0 adjusts its
    /// value share, every party adjusts its MAC share by `α_i·c`.
    pub(crate) fn add_public_elem(&self, x: AuthShare, c: RingElem) -> AuthShare {
        x + self.constant_elem(c)
    }

    // ------------------------------------------------------------------
    // Non-linear operations (communication).
    // ------------------------------------------------------------------

    /// Beaver multiplication of a batch of pairs: one opening round for the
    /// whole batch. Triples come from the session's [`DealerSource`]; the
    /// `d = x − a`, `e = y − b` openings are real and MAC-logged.
    pub fn mul_batch(&mut self, pairs: &[(AuthShare, AuthShare)]) -> PartyResult<Vec<AuthShare>> {
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        self.sess.counts.mults += pairs.len() as u64;
        let mut a_shares = Vec::with_capacity(pairs.len());
        let mut b_shares = Vec::with_capacity(pairs.len());
        let mut c_shares = Vec::with_capacity(pairs.len());
        let mut masked = Vec::with_capacity(pairs.len() * 2);
        for &(x, y) in pairs {
            let (a_i, b_i, c_i) = self.sess.next_triple()?;
            masked.push(x - a_i);
            masked.push(y - b_i);
            a_shares.push(a_i);
            b_shares.push(b_i);
            c_shares.push(c_i);
        }
        let opened = self.exchange_and_sum(&masked, MessageKind::MaskedOpen, "beaver d/e")?;
        let mut out = Vec::with_capacity(pairs.len());
        for i in 0..pairs.len() {
            let d = opened[2 * i];
            let e = opened[2 * i + 1];
            // z_i = c_i + d·b_i + e·a_i (+ the public product d·e, which
            // adjusts party 0's value share and every party's MAC by α_i·d·e).
            let z = c_shares[i] + b_shares[i].mul_public(d) + a_shares[i].mul_public(e);
            out.push(self.add_public_elem(z, d * e));
        }
        Ok(out)
    }

    /// Beaver multiplication of one pair.
    pub fn mul(&mut self, x: AuthShare, y: AuthShare) -> PartyResult<AuthShare> {
        Ok(self.mul_batch(&[(x, y)])?[0])
    }

    /// Oblivious less-than over a batch of pairs: shared `1` where `x < y`
    /// as signed 64-bit values. Runs the bit-decomposed comparison circuit
    /// of [`crate::circuits`] entirely on shares — 9 synchronous rounds for
    /// the whole batch, independent of its size.
    pub fn lt_batch(&mut self, pairs: &[(AuthShare, AuthShare)]) -> PartyResult<Vec<AuthShare>> {
        self.sess.counts.comparisons += pairs.len() as u64;
        crate::circuits::lt_batch(self, pairs)
    }

    /// Oblivious equality over a batch of pairs: shared `1` where `x == y`.
    /// Runs the equality circuit of [`crate::circuits`] on shares — 8
    /// synchronous rounds for the whole batch, independent of its size.
    pub fn eq_batch(&mut self, pairs: &[(AuthShare, AuthShare)]) -> PartyResult<Vec<AuthShare>> {
        self.sess.counts.equalities += pairs.len() as u64;
        crate::circuits::eq_batch(self, pairs)
    }

    /// Oblivious less-than of one pair.
    pub fn lt(&mut self, x: AuthShare, y: AuthShare) -> PartyResult<AuthShare> {
        Ok(self.lt_batch(&[(x, y)])?[0])
    }
}

/// The per-party engine: the generic operators' reference-taking batches
/// forward to the inherent by-value batches above (MACed, circuit-backed, one
/// set of rounds per call), linear operations are local share arithmetic.
impl Engine for StepCtx<'_, '_> {
    type Share = AuthShare;
    type Error = PartyError;

    fn constant(&self, v: i64) -> AuthShare {
        self.constant_elem(RingElem::from_i64(v))
    }

    fn add(&self, x: &AuthShare, y: &AuthShare) -> AuthShare {
        *x + *y
    }

    fn sub(&self, x: &AuthShare, y: &AuthShare) -> AuthShare {
        *x - *y
    }

    fn add_public(&self, x: &AuthShare, c: i64) -> AuthShare {
        self.add_public_elem(*x, RingElem::from_i64(c))
    }

    fn mul_public(&self, x: &AuthShare, c: i64) -> AuthShare {
        x.mul_public(RingElem::from_i64(c))
    }

    fn mul_batch(&mut self, pairs: &[(&AuthShare, &AuthShare)]) -> PartyResult<Vec<AuthShare>> {
        let owned: Vec<_> = pairs.iter().map(|&(x, y)| (*x, *y)).collect();
        StepCtx::mul_batch(self, &owned)
    }

    fn lt_batch(&mut self, pairs: &[(&AuthShare, &AuthShare)]) -> PartyResult<Vec<AuthShare>> {
        let owned: Vec<_> = pairs.iter().map(|&(x, y)| (*x, *y)).collect();
        StepCtx::lt_batch(self, &owned)
    }

    /// All groups flatten into a single circuit execution, so the whole set
    /// costs the same 8 rounds as one `eq_batch` call, where a per-group
    /// loop would pay 8 rounds per group.
    fn eq_batch_groups(
        &mut self,
        groups: &[Vec<(&AuthShare, &AuthShare)>],
    ) -> PartyResult<Vec<Vec<AuthShare>>> {
        let flat: Vec<_> = groups.iter().flatten().map(|&(x, y)| (*x, *y)).collect();
        let mut bits = self.eq_batch(&flat)?.into_iter();
        Ok(groups
            .iter()
            .map(|g| bits.by_ref().take(g.len()).collect())
            .collect())
    }

    /// Element-wise `b + c·(a − b)`: one Beaver batch.
    fn mux_batch(
        &mut self,
        selectors: &[(&AuthShare, &AuthShare, &AuthShare)],
    ) -> PartyResult<Vec<AuthShare>> {
        let pairs: Vec<_> = selectors.iter().map(|&(c, a, b)| (*c, *a - *b)).collect();
        let scaled = StepCtx::mul_batch(self, &pairs)?;
        Ok(selectors
            .iter()
            .zip(scaled)
            .map(|(&(_, _, b), s)| *b + s)
            .collect())
    }

    fn open_column(&mut self, shares: &[&AuthShare]) -> PartyResult<Vec<i64>> {
        let owned: Vec<AuthShare> = shares.iter().map(|s| **s).collect();
        StepCtx::open_column(self, &owned)
    }

    fn charge(&mut self, extra: &PrimitiveCounts) {
        self.sess.counts.merge(extra);
    }

    fn charge_shuffle(&mut self, elements: u64) {
        self.sess.counts.shuffled_elems += elements;
    }

    /// Drawn from the common stream — identical on every party, so a shuffle
    /// needs no index exchange.
    fn random_permutation(&mut self, n: usize) -> Vec<usize> {
        self.sess.random_permutation(n)
    }
}

impl fmt::Debug for StepCtx<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepCtx")
            .field("party", &self.party())
            .field("step", &self.step)
            .field("stream", &self.next_stream)
            .finish()
    }
}

/// A secret-shared relation as held by **one** party: public schema, this
/// party's authenticated share of every cell, row-major.
pub type PartyRelation = Rel<AuthShare>;

// ---------------------------------------------------------------------------
// Relation-level protocol steps.
// ---------------------------------------------------------------------------

/// Collective sharing of a whole relation owned by `owner`. The owner passes
/// the cleartext relation; everyone passes the (public) schema and row count.
pub fn share_relation(
    proto: &mut StepCtx,
    owner: u32,
    cleartext: Option<&Relation>,
    schema: &Schema,
    num_rows: usize,
) -> PartyResult<PartyRelation> {
    check_shareable(schema).map_err(PartyError::Proto)?;
    let cols = schema.len();
    let flat: Option<Vec<i64>> = cleartext
        .map(|rel| rel.rows.iter().flatten().map(shareable_int).collect())
        .transpose()
        .map_err(PartyError::Proto)?;
    let shares = proto.input_column(owner, flat.as_deref(), num_rows * cols)?;
    let rows = shares
        .chunks(cols.max(1))
        .take(num_rows)
        .map(<[AuthShare]>::to_vec)
        .collect();
    Ok(PartyRelation {
        schema: schema.clone(),
        rows,
    })
}

/// Opens a whole shared relation to every party: one broadcast round plus a
/// deferred MAC check — a reveal is the boundary where unchecked openings
/// must be certified before any cleartext leaves the runtime.
pub fn open_relation(proto: &mut StepCtx, rel: &PartyRelation) -> PartyResult<Relation> {
    let pending = begin_open_relation(proto, rel)?;
    let opened = finish_open_relation(proto.session(), pending)?;
    proto.session().check_integrity()?;
    Ok(opened)
}

/// A relation open whose broadcast has been **sent** but whose peer shares
/// have not yet been collected. Produced by [`begin_open_relation`]; redeem
/// with [`finish_open_relation`]. Holding one is what lets a party worker
/// pipeline: the next step's rounds can start while this open is in flight.
#[derive(Debug)]
pub struct PendingOpen {
    tag: StreamTag,
    schema: Schema,
    num_rows: usize,
    /// This party's flattened share words (row-major), summed in place as
    /// peers' broadcasts arrive.
    local: Vec<u64>,
    /// This party's MAC shares for the same cells, logged against the
    /// reconstructed values when the open completes.
    macs: Vec<RingElem>,
}

/// First half of a relation open: broadcasts this party's shares on a fresh
/// stream of `proto`'s step and returns the pending handle without waiting
/// for the peers.
pub fn begin_open_relation(proto: &mut StepCtx, rel: &PartyRelation) -> PartyResult<PendingOpen> {
    proto.session().counts.opened_elems += rel.num_elems();
    let tag = proto.next_tag();
    let local: Vec<u64> = rel.rows.iter().flatten().map(|s| s.v.0).collect();
    let macs: Vec<RingElem> = rel.rows.iter().flatten().map(|s| s.m).collect();
    if !local.is_empty() {
        proto
            .session()
            .net()
            .send_all_tagged(tag, MessageKind::Reveal, "open", &local)?;
    }
    Ok(PendingOpen {
        tag,
        schema: rel.opened_schema(),
        num_rows: rel.num_rows(),
        local,
        macs,
    })
}

/// Second half of a relation open: collects every peer's broadcast for the
/// pending stream (frames that raced ahead of other streams were buffered by
/// the transport), reconstructs the cleartext relation, and records the
/// round.
pub fn finish_open_relation(
    sess: &mut PartySession,
    pending: PendingOpen,
) -> PartyResult<Relation> {
    let PendingOpen {
        tag,
        schema,
        num_rows,
        mut local,
        macs,
    } = pending;
    let cols = schema.len();
    if !local.is_empty() {
        for peer in 0..sess.parties() {
            if peer == sess.party() {
                continue;
            }
            let env = sess.net().recv_tagged(peer, tag)?;
            if env.payload.len() != local.len() {
                return Err(PartyError::Proto(format!(
                    "P{peer} sent {} words in an open of {}",
                    env.payload.len(),
                    local.len()
                )));
            }
            for (acc, word) in local.iter_mut().zip(&env.payload) {
                *acc = acc.wrapping_add(*word);
            }
        }
        sess.net().record_round();
        let opened: Vec<RingElem> = local.iter().map(|&w| RingElem(w)).collect();
        sess.log_opens(&opened, macs.into_iter());
    }
    let rows = local
        .chunks(cols.max(1))
        .take(num_rows)
        .map(|chunk| {
            chunk
                .iter()
                .map(|&w| Value::Int(RingElem(w).to_i64()))
                .collect()
        })
        .collect();
    Ok(Relation { schema, rows })
}

// The oblivious relational operators are engine-generic; these are the names
// party workers call them by, with a [`StepCtx`] as the engine.
pub use crate::operators::{aggregate_sorted, execute_op as execute_party_op, sort_by};

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::ops::{Operand, Operator};
    use conclave_net::ChannelTransport;

    /// Runs `f` on every party of a fresh `n`-party channel mesh and returns
    /// the per-party results (asserting none of the threads failed).
    fn run_parties<R, F>(n: u32, seed: u64, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut StepCtx) -> PartyResult<R> + Sync,
    {
        let mesh = ChannelTransport::mesh(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .into_iter()
                .map(|t| {
                    let f = &f;
                    s.spawn(move || {
                        let mut sess = PartySession::new(&t, seed);
                        let mut proto = sess.step(0);
                        f(&mut proto)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("party thread panicked")
                        .expect("party failed")
                })
                .collect()
        })
    }

    fn demo() -> Relation {
        Relation::from_ints(
            &["k", "v"],
            &[vec![3, 30], vec![1, 10], vec![2, 20], vec![1, 5]],
        )
    }

    /// The owner's view of a relation: `Some` on the owning party, `None`
    /// elsewhere (hoisted out of call expressions for borrow-check clarity).
    fn mine<'a>(proto: &StepCtx, owner: u32, rel: &'a Relation) -> Option<&'a Relation> {
        (proto.party() == owner).then_some(rel)
    }

    #[test]
    fn share_open_round_trip_across_three_parties() {
        let rel = demo();
        let opened = run_parties(3, 7, |proto| {
            let data = mine(proto, 1, &rel);
            let shared = share_relation(proto, 1, data, &rel.schema, rel.num_rows())?;
            open_relation(proto, &shared)
        });
        for out in &opened {
            assert_eq!(out.rows, rel.rows);
        }
    }

    #[test]
    fn beaver_multiplication_is_exact_over_the_mesh() {
        let cases = [(3i64, 4i64), (-5, 7), (0, 123), (i64::MAX, 2)];
        let products = run_parties(3, 8, |proto| {
            let owner = 0;
            let xs: Vec<i64> = cases.iter().map(|c| c.0).collect();
            let ys: Vec<i64> = cases.iter().map(|c| c.1).collect();
            let own = proto.party() == owner;
            let sx = proto.input_column(owner, own.then_some(xs.as_slice()), xs.len())?;
            let sy = proto.input_column(owner, own.then_some(ys.as_slice()), ys.len())?;
            let pairs: Vec<(AuthShare, AuthShare)> = sx.into_iter().zip(sy).collect();
            let prod = proto.mul_batch(&pairs)?;
            proto.open_column(&prod)
        });
        for opened in &products {
            let expected: Vec<i64> = cases.iter().map(|&(x, y)| x.wrapping_mul(y)).collect();
            assert_eq!(opened, &expected);
        }
    }

    #[test]
    fn comparisons_and_mux_match_semantics() {
        let results = run_parties(2, 9, |proto| {
            let owner = 1;
            let vals = [3i64, 5, 5, -2];
            let own = proto.party() == owner;
            let s = proto.input_column(owner, own.then_some(vals.as_slice()), 4)?;
            let lt = proto.lt(s[0], s[1])?; // 3 < 5 → 1
            let ge = proto.lt(s[1], s[0])?; // 5 < 3 → 0
            let eqs = proto.eq_batch(&[(s[1], s[2]), (s[0], s[3])])?; // 5 == 5 → 1, 3 == −2 → 0
            let picked = Engine::mux_batch(proto, &[(&lt, &s[0], &s[1])])?; // → 3
            proto.open_column(&[lt, ge, eqs[0], eqs[1], picked[0]])
        });
        for r in &results {
            assert_eq!(r, &vec![1, 0, 1, 0, 3]);
        }
    }

    #[test]
    fn linear_ops_cost_no_messages() {
        let stats = {
            let mesh = ChannelTransport::mesh(2);
            std::thread::scope(|s| {
                let handles: Vec<_> = mesh
                    .into_iter()
                    .map(|t| {
                        s.spawn(move || {
                            let mut sess = PartySession::new(&t, 3);
                            let proto = sess.step(0);
                            let a = proto.constant(10);
                            let b = proto.constant(4);
                            let _ = proto.add(&a, &b);
                            let _ = proto.sub(&a, &b);
                            let _ = proto.add_public(&a, 5);
                            let _ = proto.mul_public(&a, 3);
                            t.stats()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            })
        };
        for s in &stats {
            assert_eq!(s.total_messages(), 0);
            assert_eq!(s.rounds, 0);
        }
    }

    #[test]
    fn unsupported_operators_are_rejected() {
        let rel = Relation::from_ints(&["a"], &[vec![1]]);
        let outs = run_parties(2, 15, |proto| {
            let data = mine(proto, 0, &rel);
            let shared = share_relation(proto, 0, data, &rel.schema, rel.num_rows())?;
            let divide = execute_party_op(
                proto,
                &Operator::Divide {
                    out: "x".into(),
                    num: Operand::col("a"),
                    den: Operand::lit(2),
                },
                &[&shared],
                false,
            );
            let hybrid = execute_party_op(
                proto,
                &Operator::HybridJoin {
                    left_keys: vec!["a".into()],
                    right_keys: vec!["a".into()],
                    stp: 1,
                },
                &[&shared, &shared],
                false,
            );
            Ok((
                matches!(divide, Err(PartyError::Unsupported(_))),
                matches!(hybrid, Err(PartyError::Unsupported(_))),
            ))
        });
        for (divide_rejected, hybrid_rejected) in &outs {
            assert!(divide_rejected);
            assert!(hybrid_rejected);
        }
    }

    #[test]
    fn transport_stats_show_real_traffic_and_rounds() {
        let rel = demo();
        let mesh = ChannelTransport::mesh(3);
        let stats = std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .into_iter()
                .map(|t| {
                    let rel = &rel;
                    s.spawn(move || {
                        let mut sess = PartySession::new(&t, 16);
                        let mut proto = sess.step(0);
                        let data = mine(&proto, 0, rel);
                        let shared =
                            share_relation(&mut proto, 0, data, &rel.schema, rel.num_rows())
                                .unwrap();
                        let sorted = sort_by(&mut proto, &shared, "k", true).unwrap();
                        let _ = open_relation(&mut proto, &sorted).unwrap();
                        t.stats()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        let merged = conclave_net::merge_mesh_stats(stats);
        assert!(merged.total_bytes() > 0, "observed bytes must be non-zero");
        assert!(merged.rounds > 0, "observed rounds must be non-zero");
        // Every directed link between the three parties saw traffic.
        for from in 0..3u32 {
            for to in 0..3u32 {
                if from != to {
                    assert!(
                        merged.links.contains_key(&(from, to)),
                        "no traffic on link {from}->{to}"
                    );
                }
            }
        }
    }

    #[test]
    fn error_display_and_sources() {
        let net = PartyError::Net(TransportError::Timeout { from: 2 });
        assert!(net.to_string().contains("P2"));
        assert!(std::error::Error::source(&net).is_some());
        let proto = PartyError::Proto("bad".into());
        assert!(proto.to_string().contains("bad"));
        assert!(std::error::Error::source(&proto).is_none());
        assert!(PartyError::Unsupported("x".into())
            .to_string()
            .contains('x'));
        let integrity = PartyError::Integrity("mac mismatch".into());
        assert!(integrity.to_string().contains("integrity violation"));
        assert!(std::error::Error::source(&integrity).is_none());
    }

    /// A party that adds a constant offset to its own share before an open
    /// produces a *consistent* wrong value — every honest party reconstructs
    /// the same lie, so no echo-comparison can see it. The MAC check must.
    #[test]
    fn a_consistent_additive_lie_fails_the_mac_check() {
        let rel = demo();
        let results = run_parties(3, 21, |proto| {
            let data = mine(proto, 0, &rel);
            let shared = share_relation(proto, 0, data, &rel.schema, rel.num_rows())?;
            let mut col: Vec<AuthShare> = shared.column(1).into_iter().copied().collect();
            if proto.party() == 2 {
                col[0].v += RingElem::from_i64(5);
            }
            let opened = proto.open_column(&col)?;
            let verdict = proto.session().check_integrity();
            Ok((opened, verdict))
        });
        for (opened, verdict) in &results {
            // Every party accepted the identical (wrong) value at open time…
            assert_eq!(opened[0], rel.rows[0][1].as_int().unwrap() + 5);
            // …and every party's deferred MAC check caught it.
            assert!(
                matches!(verdict, Err(PartyError::Integrity(_))),
                "expected an integrity abort, got {verdict:?}"
            );
        }
    }

    /// The same consistent lie sails through an unauthenticated session —
    /// this is exactly the gap the SPDZ MACs close (see
    /// `tests/malicious_integrity.rs` for the transport-level version).
    #[test]
    fn the_unauthenticated_runtime_accepts_the_same_lie() {
        let rel = demo();
        let mesh = ChannelTransport::mesh(3);
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .into_iter()
                .map(|t| {
                    let rel = &rel;
                    s.spawn(move || -> PartyResult<_> {
                        let mut sess = PartySession::unauthenticated(&t, 21);
                        let mut proto = sess.step(0);
                        let data = mine(&proto, 0, rel);
                        let shared =
                            share_relation(&mut proto, 0, data, &rel.schema, rel.num_rows())?;
                        let mut col: Vec<AuthShare> =
                            shared.column(1).into_iter().copied().collect();
                        if proto.party() == 2 {
                            col[0].v += RingElem::from_i64(5);
                        }
                        let opened = proto.open_column(&col)?;
                        proto.session().check_integrity()?;
                        Ok(opened)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("party thread panicked"))
                .collect::<Vec<_>>()
        });
        for r in &results {
            let opened = r.as_ref().expect("unauthenticated open must not abort");
            assert_eq!(opened[0], rel.rows[0][1].as_int().unwrap() + 5);
        }
    }

    /// Honest runs pass the MAC check, the check is counted, and it costs
    /// exactly two extra rounds (commit + open) per reveal boundary.
    #[test]
    fn honest_mac_checks_pass_and_are_counted() {
        let rel = demo();
        let mesh = ChannelTransport::mesh(2);
        let outs = std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .into_iter()
                .map(|t| {
                    let rel = &rel;
                    s.spawn(move || {
                        let mut sess = PartySession::new(&t, 22);
                        let mut proto = sess.step(0);
                        let data = mine(&proto, 0, rel);
                        let shared =
                            share_relation(&mut proto, 0, data, &rel.schema, rel.num_rows())
                                .unwrap();
                        let before = t.stats().rounds;
                        let opened = open_relation(&mut proto, &shared).unwrap();
                        let after = t.stats().rounds;
                        (opened, after - before, sess.counts().mac_checks)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        for (opened, open_rounds, mac_checks) in &outs {
            assert_eq!(opened.rows, rel.rows);
            // One broadcast round for the open itself + commit + sigma-open.
            assert_eq!(*open_rounds, 3, "open with a MAC check costs 3 rounds");
            assert_eq!(*mac_checks, 1);
        }
    }

    /// A MAC check with nothing logged is free: no rounds, no messages.
    #[test]
    fn empty_mac_checks_are_free() {
        let mesh = ChannelTransport::mesh(2);
        let stats = std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .into_iter()
                .map(|t| {
                    s.spawn(move || {
                        let mut sess = PartySession::new(&t, 23);
                        sess.check_integrity().unwrap();
                        sess.check_integrity().unwrap();
                        t.stats()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        for s in &stats {
            assert_eq!(s.total_messages(), 0);
            assert_eq!(s.rounds, 0);
        }
    }
}
