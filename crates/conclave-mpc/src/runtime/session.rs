//! [`PartySession`]: one party's query-lifetime state — the stock of offline
//! material with the feed that tops it up, the MAC-check log, and the
//! deferred integrity check.

use super::step::{Round, StepCtx};
use super::{PartyError, PartyResult};
use crate::cost::PrimitiveCounts;
use crate::dealer::{DealerSource, DealerStream, InputMask, MaterialBlocks, Request, SharedMask};
use crate::ring::RingElem;
use crate::share::AuthShare;
use conclave_net::{MessageKind, NetStats, StreamTag, Transport};
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
    /// `received` counts the blocks that came back, on the `(dealer, party)`
    /// direction the link endpoint itself does not record (it counts sends).
    Link {
        link: Box<dyn Transport>,
        dealer: u32,
        received: NetStats,
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
    pub(super) net: &'n dyn Transport,
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
    pub(super) stock: MaterialBlocks,
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
    pub(super) counts: PrimitiveCounts,
    /// Whether [`PartySession::abort`] has told the peers.
    aborted: bool,
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
                let mut received = NetStats::default();
                let key = request_block(link.as_ref(), dealer, Request::Alpha, &mut received)?;
                stock.absorb(Request::Alpha, &key)?;
                let feed = Feed::Link {
                    link,
                    dealer,
                    received,
                };
                (feed, stock)
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
            aborted: false,
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
    /// offline material — both directions: the block requests this endpoint
    /// sent and the blocks it received.
    pub fn dealer_stats(&self) -> Option<NetStats> {
        match &self.feed {
            Feed::Link { link, received, .. } => {
                let mut stats = link.stats();
                stats.merge(received);
                Some(stats)
            }
            _ => None,
        }
    }

    /// Tells every peer that this party has failed and takes no further part
    /// in the mesh: each peer's receives from this party return
    /// [`conclave_net::TransportError::Aborted`] at once instead of waiting
    /// out their timeout. Only the first call sends; the reason stays local.
    pub fn abort(&mut self) {
        if !self.aborted {
            self.aborted = true;
            self.net.send_abort();
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
            Feed::Link {
                link,
                dealer,
                received,
            } => request_block(link.as_ref(), *dealer, req, received)?,
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
    pub(super) fn take_triples(
        &mut self,
        n: usize,
    ) -> PartyResult<Vec<(AuthShare, AuthShare, AuthShare)>> {
        self.take(n, TRIPLE_BLOCK, Request::Triples, |s| &mut s.triples)
    }

    /// Takes `n` binary Beaver triple words `(a, b, c = a & b)`, XOR-shared:
    /// each word feeds 64 AND gates of the comparison circuits.
    pub(super) fn take_bit_triples(&mut self, n: usize) -> PartyResult<Vec<(u64, u64, u64)>> {
        self.take(n, BIT_TRIPLE_BLOCK, Request::BitTriples, |s| {
            &mut s.bit_triples
        })
    }

    /// Takes `n` dual-shared bit-decomposition masks (XOR-shared bits, an
    /// authenticated additive share of the same 64-bit value, and the
    /// XOR-shared products of its adjacent bits).
    pub(super) fn take_shared_bits(&mut self, n: usize) -> PartyResult<Vec<SharedMask>> {
        self.take(n, SHARED_BITS_BLOCK, Request::SharedBits, |s| {
            &mut s.shared_bits
        })
    }

    /// Takes `n` daBit words: 64 random bits per word, XOR-shared as a word
    /// and additively shared (authenticated) bit by bit.
    pub(super) fn take_dabits(&mut self, n: usize) -> PartyResult<Vec<(u64, Vec<AuthShare>)>> {
        self.take(n, DABIT_BLOCK, Request::DaBits, |s| &mut s.dabits)
    }

    /// Takes `n` input masks for `owner`'s next input column.
    pub(super) fn take_input_masks(&mut self, owner: u32, n: usize) -> PartyResult<Vec<InputMask>> {
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
    pub(super) fn log_opens(
        &mut self,
        opened: impl Iterator<Item = RingElem>,
        mac_shares: impl Iterator<Item = RingElem>,
    ) {
        if self.auth {
            self.opened_log.extend(opened.zip(mac_shares));
        }
    }

    /// Folds binary-domain (XOR) openings into the transcript digest.
    pub(super) fn log_xor_opens(&mut self, opened: &[u64]) {
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
        let commitment = mac_check_commitment(self.party(), seq, sigma, bin);

        // Round 1: commit to (σ_i, binary digest).
        let mut commitments = vec![0u64; self.parties() as usize];
        Round::begin(
            self.net,
            StreamTag::new(u32::MAX, seq),
            MessageKind::MacCheck,
            "mac-check commit",
            &[commitment],
        )?
        .finish(self.net, |peer, words| {
            commitments[peer as usize] = words[0];
            Ok(())
        })?;

        // Round 2: open (σ_i, binary digest) and verify.
        let mut total = sigma;
        Round::begin(
            self.net,
            StreamTag::new(u32::MAX, seq.wrapping_add(1)),
            MessageKind::MacCheck,
            "mac-check open",
            &[sigma.0, bin],
        )?
        .finish(self.net, |peer, words| {
            let (peer_sigma, peer_bin) = (RingElem(words[0]), words[1]);
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
            Ok(())
        })?;
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
fn request_block(
    link: &dyn Transport,
    dealer: u32,
    req: Request,
    received: &mut NetStats,
) -> PartyResult<Vec<u64>> {
    link.send_to(dealer, MessageKind::Dealer, "dealer request", &req.encode())?;
    let env = link.recv_from(dealer)?;
    received.record(dealer, link.party(), env.wire_bytes(), env.kind);
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

#[cfg(test)]
mod tests {
    use super::super::step::tests::{demo, mine, run_parties};
    use super::super::{open_relation, share_relation};
    use super::*;
    use conclave_net::ChannelTransport;

    /// A party that adds a constant offset to its own share before an open
    /// produces a *consistent* wrong value — every honest party reconstructs
    /// the same lie, so no echo-comparison can see it. The MAC check must.
    #[test]
    fn a_consistent_additive_lie_fails_the_mac_check() {
        let rel = demo();
        let results = run_parties(3, 21, |proto| {
            let data = mine(proto, 0, &rel);
            let shared = share_relation(proto, 0, data, &rel.schema, rel.num_rows())?;
            let mut col: Vec<AuthShare> = shared.column(1);
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
                        let mut col: Vec<AuthShare> = shared.column(1);
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
