//! [`StepCtx`]: one plan step's protocol primitives over a [`PartySession`],
//! the one exchange every round of them goes through ([`Round`]), the
//! [`Engine`] implementation the generic operators run on, and whole-relation
//! input and output.

use super::{PartyError, PartyResult, PartySession};
use crate::cost::PrimitiveCounts;
use crate::engine::Engine;
use crate::relation::{check_shareable, shareable_int, Rel};
use crate::ring::RingElem;
use crate::share::AuthShare;
use conclave_engine::Relation;
use conclave_ir::schema::Schema;
use conclave_ir::types::Value;
use conclave_net::{MessageKind, StreamTag, Transport};
use std::fmt;
use std::iter::once;

/// One synchronous round in flight — the single exchange behind every
/// opening of the runtime. [`Round::begin`] has broadcast this party's words
/// on the round's stream; [`Round::finish`] collects every peer's equally
/// long frame and records the round. Holding a `Round` between the two is
/// what lets a worker overlap it with later rounds on other streams. A round
/// of no words exchanges nothing and is not recorded.
#[derive(Debug)]
#[must_use = "a begun round must be finished"]
pub(super) struct Round {
    tag: StreamTag,
    words: usize,
}

impl Round {
    /// Broadcasts `words` to every peer on `tag`, which must be fresh.
    pub(super) fn begin(
        net: &dyn Transport,
        tag: StreamTag,
        kind: MessageKind,
        label: &str,
        words: &[u64],
    ) -> PartyResult<Round> {
        if !words.is_empty() {
            net.send_all_tagged(tag, kind, label, words)?;
        }
        Ok(Round {
            tag,
            words: words.len(),
        })
    }

    /// Receives each peer's frame for this round (frames that raced ahead on
    /// other streams were buffered by the transport), rejects one of the
    /// wrong length, hands the words to `fold` — which combines them into
    /// the caller's own buffer — and records the round.
    pub(super) fn finish(
        self,
        net: &dyn Transport,
        mut fold: impl FnMut(u32, &[u64]) -> PartyResult<()>,
    ) -> PartyResult<()> {
        if self.words == 0 {
            return Ok(());
        }
        for peer in (0..net.parties()).filter(|&p| p != net.party()) {
            let env = net.recv_tagged(peer, self.tag)?;
            if env.payload.len() != self.words {
                return Err(PartyError::Proto(format!(
                    "P{peer} sent {} words in round {} ({}), which exchanges {}",
                    env.payload.len(),
                    self.tag,
                    env.label,
                    self.words
                )));
            }
            fold(peer, &env.payload)?;
        }
        net.record_round();
        Ok(())
    }
}

/// The fold of an arithmetic opening: `acc += peer` in `Z_{2^64}`.
fn add_words(acc: &mut [u64], peer: &[u64]) {
    for (a, w) in acc.iter_mut().zip(peer) {
        *a = a.wrapping_add(*w);
    }
}

/// One plan step's view of a [`PartySession`]: the same protocol primitives,
/// with every collective exchange tagged `(step, stream)` so concurrent
/// steps can share the session-lifetime connections. Borrowing the session
/// mutably keeps the step sequence race-free within one party while the
/// dealer state advances across steps.
pub struct StepCtx<'s, 'n> {
    pub(super) sess: &'s mut PartySession<'n>,
    pub(super) step: u32,
    pub(super) next_stream: u32,
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

    /// Begins a round of this step on its next stream.
    fn begin_round(&mut self, kind: MessageKind, label: &str, words: &[u64]) -> PartyResult<Round> {
        let tag = self.next_tag();
        Round::begin(self.sess.net, tag, kind, label, words)
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
        let mut sum = x.v;
        self.begin_round(MessageKind::Reveal, "open1", &[x.v.0])?
            .finish(self.sess.net, |_, word| {
                sum += RingElem(word[0]);
                Ok(())
            })?;
        self.sess.log_opens(once(sum), once(x.m));
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
        let mut words: Vec<u64> = shares.iter().map(|s| s.v.0).collect();
        self.begin_round(kind, label, &words)?
            .finish(self.sess.net, |_, peer| {
                add_words(&mut words, peer);
                Ok(())
            })?;
        let opened: Vec<RingElem> = words.into_iter().map(RingElem).collect();
        self.sess
            .log_opens(opened.iter().copied(), shares.iter().map(|s| s.m));
        Ok(opened)
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
        self.sess.counts.circuit_rounds += 1;
        let mut acc = words.to_vec();
        self.begin_round(MessageKind::MaskedOpen, label, words)?
            .finish(self.sess.net, |_, peer| {
                for (a, w) in acc.iter_mut().zip(peer) {
                    *a ^= w;
                }
                Ok(())
            })?;
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
    /// whole batch. Triples come from the session's [`crate::dealer::DealerSource`]; the
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

/// The per-party engine: the trait's batches are the inherent batches above
/// (MACed, circuit-backed, one set of rounds per call), linear operations are
/// local share arithmetic.
impl Engine for StepCtx<'_, '_> {
    type Share = AuthShare;
    type Error = PartyError;

    fn constant(&self, v: i64) -> AuthShare {
        self.constant_elem(RingElem::from_i64(v))
    }

    fn add(&self, x: AuthShare, y: AuthShare) -> AuthShare {
        x + y
    }

    fn sub(&self, x: AuthShare, y: AuthShare) -> AuthShare {
        x - y
    }

    fn add_public(&self, x: AuthShare, c: i64) -> AuthShare {
        self.add_public_elem(x, RingElem::from_i64(c))
    }

    fn mul_public(&self, x: AuthShare, c: i64) -> AuthShare {
        x.mul_public(RingElem::from_i64(c))
    }

    fn mul_batch(&mut self, pairs: &[(AuthShare, AuthShare)]) -> PartyResult<Vec<AuthShare>> {
        StepCtx::mul_batch(self, pairs)
    }

    fn lt_batch(&mut self, pairs: &[(AuthShare, AuthShare)]) -> PartyResult<Vec<AuthShare>> {
        StepCtx::lt_batch(self, pairs)
    }

    /// All groups flatten into a single circuit execution, so the whole set
    /// costs the same 8 rounds as one `eq_batch` call, where a per-group
    /// loop would pay 8 rounds per group.
    fn eq_batch_groups(
        &mut self,
        groups: &[Vec<(AuthShare, AuthShare)>],
    ) -> PartyResult<Vec<Vec<AuthShare>>> {
        let mut bits = self.eq_batch(&groups.concat())?.into_iter();
        Ok(groups
            .iter()
            .map(|g| bits.by_ref().take(g.len()).collect())
            .collect())
    }

    /// Element-wise `b + c·(a − b)`: one Beaver batch.
    fn mux_batch(
        &mut self,
        selectors: &[(AuthShare, AuthShare, AuthShare)],
    ) -> PartyResult<Vec<AuthShare>> {
        let pairs: Vec<_> = selectors.iter().map(|&(c, a, b)| (c, a - b)).collect();
        let scaled = StepCtx::mul_batch(self, &pairs)?;
        Ok(selectors
            .iter()
            .zip(scaled)
            .map(|(&(_, _, b), s)| b + s)
            .collect())
    }

    fn open_column(&mut self, shares: &[AuthShare]) -> PartyResult<Vec<i64>> {
        StepCtx::open_column(self, shares)
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
    round: Round,
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
    proto.sess.counts.opened_elems += rel.num_elems();
    let local: Vec<u64> = rel.rows.iter().flatten().map(|s| s.v.0).collect();
    let macs: Vec<RingElem> = rel.rows.iter().flatten().map(|s| s.m).collect();
    Ok(PendingOpen {
        round: proto.begin_round(MessageKind::Reveal, "open", &local)?,
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
        round,
        schema,
        num_rows,
        mut local,
        macs,
    } = pending;
    let cols = schema.len();
    round.finish(sess.net, |_, peer| {
        add_words(&mut local, peer);
        Ok(())
    })?;
    sess.log_opens(local.iter().map(|&w| RingElem(w)), macs.into_iter());
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

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::runtime::{execute_party_op, sort_by};
    use conclave_ir::ops::{Operand, Operator};
    use conclave_net::ChannelTransport;

    /// Runs `f` on every party of a fresh `n`-party channel mesh and returns
    /// the per-party results (asserting none of the threads failed).
    pub(crate) fn run_parties<R, F>(n: u32, seed: u64, f: F) -> Vec<R>
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

    pub(crate) fn demo() -> Relation {
        Relation::from_ints(
            &["k", "v"],
            &[vec![3, 30], vec![1, 10], vec![2, 20], vec![1, 5]],
        )
    }

    /// The owner's view of a relation: `Some` on the owning party, `None`
    /// elsewhere (hoisted out of call expressions for borrow-check clarity).
    pub(crate) fn mine<'a>(proto: &StepCtx, owner: u32, rel: &'a Relation) -> Option<&'a Relation> {
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
            let picked = Engine::mux_batch(proto, &[(lt, s[0], s[1])])?; // → 3
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
                            let _ = proto.add(a, b);
                            let _ = proto.sub(a, b);
                            let _ = proto.add_public(a, 5);
                            let _ = proto.mul_public(a, 3);
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

    /// What each kind of round adds to a party's statistics.
    fn traffic_of<R>(
        proto: &mut StepCtx,
        call: impl FnOnce(&mut StepCtx) -> PartyResult<R>,
    ) -> PartyResult<(u64, u64)> {
        let before = proto.sess.net.stats();
        call(proto)?;
        let after = proto.sess.net.stats();
        Ok((
            after.rounds - before.rounds,
            after.total_messages() - before.total_messages(),
        ))
    }

    /// Every call site of the exchange costs exactly one round and one frame
    /// to each peer (the MAC check is two such rounds); a round of no words
    /// costs nothing.
    #[test]
    fn every_round_is_one_round_and_one_frame_per_peer() {
        let rel = demo();
        let costs = run_parties(3, 31, |proto| {
            let data = mine(proto, 0, &rel);
            let shared = share_relation(proto, 0, data, &rel.schema, rel.num_rows())?;
            let col: Vec<AuthShare> = shared.column(0);
            let empty = PartyRelation {
                schema: rel.schema.clone(),
                rows: Vec::new(),
            };
            Ok([
                traffic_of(proto, |p| p.open(col[0]))?,
                traffic_of(proto, |p| p.open_column(&col))?,
                traffic_of(proto, |p| p.open_masked(&col, "masked"))?,
                traffic_of(proto, |p| p.open_xor_words(&[1, 2, 3], "xor"))?,
                traffic_of(proto, |p| p.mul_batch(&[(col[0], col[1])]))?,
                traffic_of(proto, |p| {
                    let pending = begin_open_relation(p, &shared)?;
                    finish_open_relation(p.session(), pending)
                })?,
                traffic_of(proto, |p| p.session().check_integrity())?,
                traffic_of(proto, |p| p.open_column(&[]))?,
                traffic_of(proto, |p| open_relation(p, &empty))?,
            ])
        });
        for per_party in &costs {
            let peers = 2;
            assert_eq!(per_party[..6], [(1, peers); 6]);
            assert_eq!(per_party[6], (2, 2 * peers), "commit + open");
            assert_eq!(per_party[7..], [(0, 0); 2], "nothing to exchange");
        }
    }

    /// A peer frame of the wrong length is the same typed error whichever
    /// round it arrives in. Party 1 is played by hand: its frames are queued
    /// up front, each on the stream party 0's next round will use.
    #[test]
    fn a_frame_of_the_wrong_length_is_one_typed_error_at_every_call_site() {
        let mut mesh = ChannelTransport::mesh(2);
        let peer = mesh.pop().expect("two endpoints");
        let net = mesh.pop().expect("two endpoints");
        let frame = |tag: StreamTag, words: &[u64]| {
            peer.send_tagged(0, tag, MessageKind::Reveal, "forged", words)
                .expect("queued");
        };
        let wrong_length = |result: PartyResult<()>, tag: StreamTag, got: usize, want: usize| {
            assert_eq!(
                result,
                Err(PartyError::Proto(format!(
                    "P1 sent {got} words in round {tag} (forged), which exchanges {want}"
                )))
            );
        };
        let mut sess = PartySession::new(&net, 5);
        let mut proto = sess.step(0);
        let x = proto.constant(5);
        let rel = PartyRelation {
            schema: demo().schema,
            rows: vec![vec![x, x]],
        };
        let step = |stream| StreamTag::new(0, stream);

        frame(step(0), &[1, 2]);
        wrong_length(proto.open(x).map(drop), step(0), 2, 1);
        frame(step(1), &[1]);
        wrong_length(proto.open_column(&[x, x]).map(drop), step(1), 1, 2);
        frame(step(2), &[1, 2]);
        wrong_length(
            proto.open_xor_words(&[1, 2, 3], "xor").map(drop),
            step(2),
            2,
            3,
        );
        frame(step(3), &[1, 2, 3]);
        let pending = begin_open_relation(&mut proto, &rel).expect("broadcast");
        let opened = finish_open_relation(proto.session(), pending);
        wrong_length(opened.map(drop), step(3), 3, 2);
        // None of the failed rounds was recorded; a well-formed one is, and
        // gives the MAC check something to check.
        assert_eq!(net.stats().rounds, 0);
        frame(step(4), &[0]);
        assert_eq!(proto.open(x), Ok(5));
        assert_eq!(net.stats().rounds, 1);

        let check = |stream| StreamTag::new(u32::MAX, stream);
        frame(check(0), &[1, 2]);
        wrong_length(sess.check_integrity(), check(0), 2, 1);
        frame(check(2), &[1]);
        frame(check(3), &[1, 2, 3]);
        wrong_length(sess.check_integrity(), check(3), 3, 2);
    }
}
