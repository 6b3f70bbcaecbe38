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
//!   one stock of offline material behind one top-up function, the MAC-check
//!   log, and the [`Transport`]. Because the additive sharing is defined by
//!   the session, shares produced in one plan step remain valid in every
//!   later step — intermediate relations stay resident on the parties
//!   instead of being opened and re-shared at every step boundary.
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
//! out of one [`MaterialBlocks`] stock. There is one dealer — the
//! deterministic [`DealerStream`] of [`crate::dealer`] — and the
//! [`DealerSource`] only says where it runs:
//!
//! * [`DealerSource::Seeded`] — every party runs the same dealer locally,
//!   seeded with the mesh-wide seed, and keeps its own slice (the
//!   semi-honest development mode, still the default: a party holding the
//!   seed *can* recompute every share and the key, but no session stores or
//!   uses anything beyond its own slice);
//! * [`DealerSource::Preloaded`] — the slice was pregenerated by the
//!   standalone dealer and loaded from a file or a pool bundle;
//! * [`DealerSource::Streamed`] — the slice is pulled block by block from a
//!   dealer process over a dedicated link.
//!
//! The same seed deals the same material in all three, and the online phase
//! — input sharing by dealer mask `δ = x − r` included — is the same code in
//! all three. In the two dealer-backed modes no computing party holds the
//! dealer seed, so none can unmask a peer's masked openings. Each arithmetic
//! share is a SPDZ-style [`AuthShare`] carrying a MAC share
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
//! is the same session with the log and the check switched off, for
//! baselines and the silent-forgery regression pin.
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
use crate::dealer::{DealerSource, DealerStream, InputMask, MaterialBlocks, Request};
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

/// Beaver triples per top-up of the session's stock.
const TRIPLE_BLOCK: usize = 1024;

/// Binary (bitwise) Beaver triple words per top-up. One word carries 64 AND
/// gates, so a block covers ~16 k gates.
const BIT_TRIPLE_BLOCK: usize = 256;

/// Dual-shared bit-decomposition masks per top-up.
const SHARED_BITS_BLOCK: usize = 256;

/// daBit words (64 dual-shared random bits each) per top-up.
const DABIT_BLOCK: usize = 16;

/// What a session's stock is topped up from: a [`DealerSource`] once the
/// session has taken its preloaded material out of it.
enum Feed {
    /// [`DealerSource::Seeded`]: this party runs the deterministic dealer
    /// itself and keeps its own slice of every block.
    Local(DealerStream),
    /// [`DealerSource::Preloaded`]: the stock is all there is.
    Fixed,
    /// [`DealerSource::Streamed`]: blocks are pulled over the dealer link.
    Link {
        link: Box<dyn Transport>,
        dealer: u32,
    },
}

impl fmt::Debug for Feed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Feed::Local(_) => "Seeded",
            Feed::Fixed => "Preloaded",
            Feed::Link { .. } => "Streamed",
        })
    }
}

/// One party's **session-lifetime** protocol state: identity, the stock of
/// offline material with the feed that tops it up, the MAC-check log and the
/// transport endpoint. A session lives as long as the query — shares it
/// produced in one plan step stay valid in every later step, because the
/// additive sharing is defined by the session, not by any step.
///
/// All parties of a mesh must construct their `PartySession` with the *same*
/// `seed` and then execute the *same* sequence of collective operations:
/// every party then tops up its stock at the same points with the same
/// requests, which keeps the dealt material aligned mesh-wide without a
/// coordinator. The seed also drives the common-randomness stream behind
/// [`PartySession::random_permutation`].
///
/// Per-step work happens through [`PartySession::step`], which hands out a
/// [`StepCtx`] carrying the plan-step id: every collective exchange inside
/// the step is tagged with a fresh `(step, stream)` [`StreamTag`], so a
/// step's final open can still be in flight while the next step's rounds are
/// already crossing the same connections.
pub struct PartySession<'n> {
    net: &'n dyn Transport,
    /// Common randomness: identical stream on every party. Feeds only
    /// [`PartySession::random_permutation`].
    common: StdRng,
    /// Where top-ups of `stock` come from.
    feed: Feed,
    /// Whether openings are MAC-logged and checked (false only for
    /// [`PartySession::unauthenticated`]).
    auth: bool,
    /// This party's offline material: its share `α_i` of the MAC key and the
    /// queues of triples, binary triples, shared bits, daBits and input
    /// masks the online phase consumes. Grows only through
    /// [`PartySession::top_up`] and [`PartySession::refill`].
    stock: MaterialBlocks,
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

/// A preloaded block must be this endpoint's own: dealt for this party of
/// this mesh, with one input-mask queue per owner.
fn check_stock(net: &dyn Transport, blocks: &MaterialBlocks) -> PartyResult<()> {
    if blocks.party != net.party()
        || blocks.parties != net.parties()
        || blocks.input_masks.len() != net.parties() as usize
    {
        return Err(PartyError::Proto(format!(
            "dealer material is for P{} of {} ({} mask queues), not P{} of {}",
            blocks.party,
            blocks.parties,
            blocks.input_masks.len(),
            net.party(),
            net.parties()
        )));
    }
    Ok(())
}

impl<'n> PartySession<'n> {
    /// Creates the session for `net`'s party with the mesh-wide `seed`.
    /// Equivalent to [`PartySession::with_dealer`] with
    /// [`DealerSource::Seeded`].
    pub fn new(net: &'n dyn Transport, seed: u64) -> Self {
        Self::with_dealer(net, seed, DealerSource::Seeded).expect("seeded dealer cannot fail")
    }

    /// Creates a session drawing offline material from `source`. All parties
    /// must use the same mesh-wide `seed` (it drives the common stream used
    /// for shuffles and, in seeded mode, the local dealer) and compatible
    /// sources.
    pub fn with_dealer(
        net: &'n dyn Transport,
        seed: u64,
        source: DealerSource,
    ) -> PartyResult<Self> {
        let (party, parties) = (net.party() as usize, net.parties() as usize);
        let (feed, stock) = match source {
            DealerSource::Seeded => {
                let dealer = DealerStream::new(seed, parties);
                let stock = MaterialBlocks::empty(party, parties, dealer.alpha_share(party));
                (Feed::Local(dealer), stock)
            }
            DealerSource::Preloaded(blocks) => {
                check_stock(net, &blocks)?;
                (Feed::Fixed, *blocks)
            }
            DealerSource::Streamed { link, dealer } => {
                let mut stock = MaterialBlocks::empty(party, parties, RingElem::ZERO);
                let key = request_block(link.as_ref(), dealer, Request::Alpha)?;
                stock.absorb(Request::Alpha, &key)?;
                (Feed::Link { link, dealer }, stock)
            }
        };
        Ok(PartySession {
            net,
            common: StdRng::seed_from_u64(seed),
            feed,
            auth: true,
            stock,
            opened_log: Vec::new(),
            xor_digest: FNV_OFFSET,
            xor_opened: 0,
            check_seq: 0,
            counts: PrimitiveCounts::default(),
        })
    }

    /// Creates an **unauthenticated** seeded session: the same material and
    /// the same wire traffic as [`PartySession::new`], but openings are not
    /// logged and [`PartySession::check_integrity`] is a zero-round no-op —
    /// the MAC shares ride along unused. The baseline that
    /// `tests/malicious_integrity.rs` shows accepting a forged opening, and
    /// that the `dealer_phases` bench measures the check against.
    pub fn unauthenticated(net: &'n dyn Transport, seed: u64) -> Self {
        PartySession {
            auth: false,
            ..Self::new(net, seed)
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

    /// Whether this session's openings are MAC-checked.
    pub fn is_authenticated(&self) -> bool {
        self.auth
    }

    /// This party's additive share of the global MAC key.
    pub fn alpha_share(&self) -> RingElem {
        self.stock.alpha
    }

    /// Hands a preloaded session the next query's bundle from the *same*
    /// dealer. The bundle must target this party/mesh and must be dealt
    /// under the same MAC key share `α_i` — a bundle from a different dealer
    /// seed would authenticate under a different key and every subsequent
    /// MAC check would abort, so it is rejected up front with a typed
    /// [`PartyError::Proto`].
    ///
    /// The bundle **replaces** whatever the previous query left unused: a
    /// long-lived session therefore never holds more than one bundle. Every
    /// party's queues have equal lengths at a query boundary, so all parties
    /// drop the same items and the material stays aligned mesh-wide.
    pub fn refill(&mut self, blocks: MaterialBlocks) -> PartyResult<()> {
        if !matches!(self.feed, Feed::Fixed) {
            return Err(PartyError::Proto(
                "refill only applies to preloaded dealer sessions".into(),
            ));
        }
        check_stock(self.net, &blocks)?;
        if blocks.alpha != self.stock.alpha {
            return Err(PartyError::Proto(
                "refill material was dealt under a different MAC key share".into(),
            ));
        }
        self.stock = blocks;
        Ok(())
    }

    /// Traffic on the dedicated dealer link, if this session streams its
    /// offline material (this endpoint's sends: the block requests).
    pub fn dealer_stats(&self) -> Option<NetStats> {
        match &self.feed {
            Feed::Link { link, .. } => Some(link.stats()),
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

    /// Tops the stock up with the block the feed deals for `req` — the one
    /// place offline material enters a running session, whatever its
    /// source. All parties top up at the same point of the same collective
    /// operation with the same request, so their dealer streams stay
    /// aligned. A feed that delivers anything but exactly the requested
    /// items is a [`PartyError::Proto`].
    fn top_up(&mut self, req: Request) -> PartyResult<()> {
        let words = match &mut self.feed {
            Feed::Local(dealer) => dealer.deal(self.net.party() as usize, req),
            Feed::Link { link, dealer } => request_block(link.as_ref(), *dealer, req)?,
            Feed::Fixed => {
                return Err(PartyError::Proto(format!(
                    "dealer material exhausted ({req:?}); pregenerate a larger MaterialSpec"
                )))
            }
        };
        self.stock.absorb(req, &words)
    }

    /// Takes `n` items off one of the stock's queues, first topping it up by
    /// the shortfall (at least `block` items) when it holds fewer.
    fn take<T>(
        &mut self,
        n: usize,
        block: usize,
        request: impl Fn(usize) -> Request,
        queue: impl Fn(&mut MaterialBlocks) -> &mut VecDeque<T>,
    ) -> PartyResult<Vec<T>> {
        let have = queue(&mut self.stock).len();
        if have < n {
            self.top_up(request((n - have).max(block)))?;
        }
        Ok(queue(&mut self.stock).drain(..n).collect())
    }

    /// Takes `n` authenticated Beaver triples.
    fn take_triples(&mut self, n: usize) -> PartyResult<Vec<(AuthShare, AuthShare, AuthShare)>> {
        self.take(n, TRIPLE_BLOCK, Request::Triples, |s| &mut s.triples)
    }

    /// Takes `n` binary Beaver triple words `(a, b, c = a & b)`, XOR-shared:
    /// each word feeds 64 AND gates of the comparison circuits.
    fn take_bit_triples(&mut self, n: usize) -> PartyResult<Vec<(u64, u64, u64)>> {
        self.take(n, BIT_TRIPLE_BLOCK, Request::BitTriples, |s| {
            &mut s.bit_triples
        })
    }

    /// Takes `n` dual-shared bit-decomposition masks (XOR-shared bits plus
    /// an authenticated additive share of the same 64-bit value).
    fn take_shared_bits(&mut self, n: usize) -> PartyResult<Vec<(u64, AuthShare)>> {
        self.take(n, SHARED_BITS_BLOCK, Request::SharedBits, |s| {
            &mut s.shared_bits
        })
    }

    /// Takes `n` daBit words: 64 random bits per word, XOR-shared as a word
    /// and additively shared (authenticated) bit by bit.
    fn take_dabits(&mut self, n: usize) -> PartyResult<Vec<(u64, Vec<AuthShare>)>> {
        self.take(n, DABIT_BLOCK, Request::DaBits, |s| &mut s.dabits)
    }

    /// Takes `n` input masks for `owner`'s next input column.
    fn take_input_masks(&mut self, owner: u32, n: usize) -> PartyResult<Vec<InputMask>> {
        let owner = owner as usize;
        if owner >= self.stock.input_masks.len() {
            return Err(PartyError::Proto(format!("no input masks for P{owner}")));
        }
        self.take(
            n,
            0,
            |count| Request::InputMasks { owner, count },
            |s| &mut s.input_masks[owner],
        )
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
            sigma += coeff * (m - self.stock.alpha * x);
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

/// One pull on the dealer link: send the request, receive the block. The
/// link is a dedicated two-endpoint mesh, so ordering is trivial.
fn request_block(link: &dyn Transport, dealer: u32, req: Request) -> PartyResult<Vec<u64>> {
    link.send_to(dealer, MessageKind::Dealer, "dealer request", &req.encode())?;
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
    /// this party's local (authenticated) share vector. The scheme is the
    /// same whatever feeds the session: the dealer supplied an authenticated
    /// mask `[r]` per cell, with `r` in the clear to the owner only. The
    /// owner broadcasts `δ = x − r` (uniform, so it reveals nothing) and
    /// every party computes `[x] = [r] + δ` locally — tampering with `δ` on
    /// any link breaks the MAC trail and is caught at the next
    /// [`PartySession::check_integrity`].
    pub fn input_column(
        &mut self,
        owner: u32,
        values: Option<&[i64]>,
        n: usize,
    ) -> PartyResult<Vec<AuthShare>> {
        self.sess.counts.input_elems += n as u64;
        let masks = self.sess.take_input_masks(owner, n)?;
        let tag = self.next_tag();
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
                        PartyError::Proto("dealer input mask is missing its cleartext value".into())
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
        // [x] = [r] + δ: the public offset lands on party 0's value share,
        // every party adjusts its MAC share by α_i·δ.
        let alpha = self.sess.stock.alpha;
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
            self.sess.stock.alpha * c,
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
        let triples = self.sess.take_triples(pairs.len())?;
        let mut masked = Vec::with_capacity(pairs.len() * 2);
        for (&(x, y), &(a_i, b_i, _)) in pairs.iter().zip(&triples) {
            masked.push(x - a_i);
            masked.push(y - b_i);
        }
        let opened = self.exchange_and_sum(&masked, MessageKind::MaskedOpen, "beaver d/e")?;
        let mut out = Vec::with_capacity(pairs.len());
        for (&(a_i, b_i, c_i), de) in triples.iter().zip(opened.chunks_exact(2)) {
            let (d, e) = (de[0], de[1]);
            // z_i = c_i + d·b_i + e·a_i (+ the public product d·e, which
            // adjusts party 0's value share and every party's MAC by α_i·d·e).
            let z = c_i + b_i.mul_public(d) + a_i.mul_public(e);
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

    /// A well-framed but empty or short dealer block must fail the take that
    /// asked for it, at once: no spinning on refills, no indexing into
    /// material that never arrived.
    #[test]
    fn empty_dealer_link_blocks_are_typed_errors() {
        for reply in [vec![], vec![1, 2]] {
            let mesh = ChannelTransport::mesh(2);
            let mut link = ChannelTransport::mesh(2);
            let dealer_end = link.pop().expect("two endpoints");
            let party_end = link.pop().expect("two endpoints");
            // A fake dealer: the key share honestly, then `reply` whatever
            // is asked.
            let fake = std::thread::spawn(move || {
                let mut block = vec![7];
                while dealer_end.recv_from(0).is_ok() {
                    if dealer_end
                        .send_to(0, MessageKind::Dealer, "dealer block", &block)
                        .is_err()
                    {
                        break;
                    }
                    block.clone_from(&reply);
                }
            });
            let source = DealerSource::Streamed {
                link: Box::new(party_end),
                dealer: 1,
            };
            let mut sess = PartySession::with_dealer(&mesh[0], 1, source).expect("key share");
            assert_eq!(sess.alpha_share(), RingElem(7));
            let started = std::time::Instant::now();
            let failures = [
                sess.take_triples(1).err(),
                sess.take_bit_triples(3).err(),
                sess.take_shared_bits(2).err(),
                sess.take_dabits(1).err(),
                sess.take_input_masks(0, 4).err(),
                sess.take_input_masks(1, 4).err(),
            ];
            for e in &failures {
                assert!(matches!(e, Some(PartyError::Proto(_))), "got {e:?}");
            }
            assert!(
                started.elapsed() < std::time::Duration::from_secs(5),
                "a short block must fail promptly, not wait out receive timeouts"
            );
            drop(sess);
            fake.join().expect("fake dealer panicked");
        }
    }

    /// A pooled session is refilled before every query. Each bundle replaces
    /// what the last query left, so 200 queries that each consume less than
    /// a bundle leave every queue at most one bundle long — and the material
    /// stays aligned across parties: every result is still right.
    #[test]
    fn refills_replace_leftovers_so_the_stock_stays_bounded() {
        use crate::dealer::MaterialSpec;
        let spec = MaterialSpec {
            triples: 8,
            bit_triples: 160,
            shared_bits: 16,
            dabits: 2,
            input_masks: 8,
        };
        let xs = [3i64, -5, 1 << 40];
        let ys = [4i64, 7, -9];
        let expected: Vec<i64> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| x.wrapping_mul(y))
            .chain(xs.iter().zip(&ys).map(|(&x, &y)| i64::from(x < y)))
            .collect();
        let mesh = ChannelTransport::mesh(3);
        std::thread::scope(|s| {
            for t in mesh {
                let (xs, ys, expected) = (&xs, &ys, &expected);
                s.spawn(move || {
                    let p = t.party() as usize;
                    // Every party replays the same dealer and keeps its own
                    // block of each bundle, as a pool hands them out.
                    let mut dealer = DealerStream::new(99, 3);
                    let first = dealer.blocks(spec).swap_remove(p);
                    let source = DealerSource::Preloaded(Box::new(first));
                    let mut sess = PartySession::with_dealer(&t, 5, source).expect("own block");
                    for query in 0..200u32 {
                        sess.refill(dealer.blocks(spec).swap_remove(p))
                            .expect("same dealer, same key");
                        let mut proto = sess.step(query);
                        let sx = proto
                            .input_column(0, (p == 0).then_some(&xs[..]), 3)
                            .expect("masks in stock");
                        let sy = proto
                            .input_column(1, (p == 1).then_some(&ys[..]), 3)
                            .expect("masks in stock");
                        let pairs: Vec<_> = sx.into_iter().zip(sy).collect();
                        let mut vals = proto.mul_batch(&pairs).expect("triples in stock");
                        vals.extend(proto.lt_batch(&pairs).expect("circuit material in stock"));
                        assert_eq!(&proto.open_column(&vals).expect("open"), expected);
                        sess.check_integrity().expect("honest run");
                        let left = &sess.stock;
                        for (name, have, bundle) in [
                            ("triples", left.triples.len(), spec.triples),
                            ("bit triples", left.bit_triples.len(), spec.bit_triples),
                            ("shared bits", left.shared_bits.len(), spec.shared_bits),
                            ("daBits", left.dabits.len(), spec.dabits),
                            ("masks", left.input_masks[0].len(), spec.input_masks),
                        ] {
                            assert!(
                                0 < have && have < bundle,
                                "query {query}: {have} {name} left of a bundle of {bundle}"
                            );
                        }
                    }
                });
            }
        });
    }
}
