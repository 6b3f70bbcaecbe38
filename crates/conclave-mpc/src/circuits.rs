//! Oblivious comparison circuits over additively-shared `Z_{2^64}` values.
//!
//! The party runtime used to *simulate* obliviousness for `lt`/`eq`: it
//! opened both operands to every party, compared locally, and re-shared the
//! bit. That leaks exactly the column values MPC is supposed to hide — an
//! observer summing the broadcast shares of one opening reconstructs the
//! cleartext. This module replaces that path with real bit-decomposed
//! comparison circuits computed **entirely on shares**; the only values that
//! ever cross the wire are uniformly-masked (`x − r` for a fresh dealer mask
//! `r`, or `x ⊕ a` for a fresh binary Beaver mask `a`), so a wire observer
//! learns nothing about the operands (see `tests/wire_privacy.rs`).
//!
//! # Protocol
//!
//! 1. **Sign-bit extraction** ([`msb_bits` internally]): for a shared
//!    `z`, take a dealer mask `r` held in *dual* representation (XOR-shared
//!    bits + additive share, plus the XOR-shared products `r₂ᵢ ∧ r₂ᵢ₊₁` of
//!    its adjacent bits, [`crate::dealer::SharedMask`]) and open the uniform
//!    value `c = z − r`. The sign bit of `z = c + r` is `p₆₃ ⊕ carry₆₃` with
//!    `p = r ⊕ c`, so only the carry into bit 63 is computed, not the sum: a
//!    binary tree over the generate/propagate leaves `g = r ∧ c`,
//!    `p = r ⊕ c` of bits 0..62.
//! 2. **Bit slicing**: the circuits run on *planes*, not on values. Each
//!    block of 64 leaves is transposed ([`transpose64` internally]) so that
//!    plane `j` holds bit `j` of all 64 leaves, leaf `i` in lane `i`: each
//!    party transposes its own XOR shares of `r` and of the products, and
//!    the public `c`. Every tree level is then word-wise AND/XOR over planes,
//!    with one AND exchange for all blocks.
//! 3. **The dealt first level**: the tree's first level merges adjacent
//!    bits `l = 2i`, `h = 2i + 1` into `G = g_h ⊕ (p_h ∧ g_l)`,
//!    `P = p_h ∧ p_l`. With `c` public and `rr = r_l ∧ r_h` dealt, both are
//!    linear in the shares: `G = (r_h ∧ c_h) ⊕ c_l·(rr ⊕ c_h·r_l)` and
//!    `P = rr ⊕ c_l·r_h ⊕ c_h·r_l ⊕ c_h·c_l`, party 0 adding the public
//!    `c_h·c_l`. The 63 leaves become 32 nodes (bit 62 passes through)
//!    without an exchange, and five AND levels remain: 32 → 16 → 8 → 4 → 2 →
//!    1 nodes, 31, 15, 7, 3 and 1 AND planes per block.
//! 4. **Binary AND** ([`and_words` internally]): AND of two XOR-shared
//!    words via a binary Beaver triple word `(a, b, c = a & b)`: open
//!    `d = x ⊕ a`, `e = y ⊕ b`, then `z = c ⊕ (d ∧ b) ⊕ (e ∧ a)` with
//!    party 0 adding `d ∧ e`. XOR is free (local). A full block sends each
//!    AND plane as one wire word; the last block packs its planes by live
//!    lanes ([`and_planes` internally]): ⌊64 / slot⌋ planes per wire word,
//!    `slot` the live lanes rounded up to a power of two, so a word carries
//!    only live lanes and padding that is a zero share under the same triple
//!    mask.
//! 5. **Signed less-than** ([`lt_batch`]): with `sa = msb(a)`,
//!    `sb = msb(b)`, `sd = msb(a − b)` (two's-complement sign bits from the
//!    decomposition), `a < b ⟺ (sa ∧ ¬sb) ⊕ (¬(sa ⊕ sb) ∧ sd)`. Same-sign
//!    subtraction cannot wrap, so `sd` is the true comparison there, and the
//!    mixed-sign term handles `i64::MIN`/`i64::MAX` correctly. Either side
//!    may be a public constant ([`CmpArg::Public`]). A mixed pair becomes
//!    `x < k` (`c < y ⟺ ¬(y < c + 1)`), and msb(k) is public, so only `x`
//!    takes a mask: its one opened word `c = x − r` gives both leaves,
//!    `x = c + r` and `x − k = (c − k) + r`. The combine is `sa ∨ sd` for
//!    `k > 0` and `sa ∧ sd` for `k < 0`, one AND either way; for `k = 0` it
//!    is `msb(x)` with no AND and no second leaf. A pair with both sides
//!    public, or `i64::MAX < y`, is decided in the clear. The sign bits come
//!    out of the tree lane-packed, 64 leaves to a word, and the combine
//!    works on those words directly.
//! 6. **Equality** ([`eq_batch`]): `z = x − y` is zero iff the dealer mask
//!    `r` equals `−c` where `c = z − r` was opened; `t = r ⊕ ¬(−c)` is
//!    local, and its first fold level over adjacent bits, `t_l ∧ t_h`, is
//!    the same dealt product as `P` above. A halving fold over the remaining
//!    32 planes (16, 8, 4, 2, 1 ANDs per block) leaves the all-bits AND in
//!    plane 0, whose lanes are the packed result bits. The fold's partial
//!    conjunctions are secret-dependent and never opened.
//! 7. **Bit-to-arithmetic** ([`bits_to_additive` internally]): a *daBit*
//!    (random bit ρ held both XOR-shared and additively shared) converts
//!    each XOR-shared result bit `t` to an additive sharing: open
//!    `v = t ⊕ ρ` (uniform), then `[t] = v + (1 − 2v)·[ρ]` locally.
//!
//! # Round complexity
//!
//! For a batch of any size: `lt_batch` = 1 masked-open + 5 carry-tree
//! levels + 1 sign-combine AND + 1 bit-to-arithmetic open = **8 rounds**
//! (**7** when every pair compares a shared value with 0: no sign-combine
//! AND); `eq_batch` = 1 masked-open + 5 fold levels + 1 bit-to-arithmetic
//! open = **7 rounds**. All per-level ANDs across the batch coalesce into
//! one exchange, preserving the round-coalescing the runtime's callers
//! (sorting network, filter, join, aggregate) rely on. In AND words on the
//! wire, a decomposed value costs 57/64 ≈ 0.89 (31 + 15 + 7 + 3 + 1 planes
//! per block of 64), so a shared less-than pair costs ≈ 2.7 words (3
//! values) plus 2 sign-combine words per 64 pairs, ≈ 173 gates; a pair
//! against a public constant ≈ 1.8 words (2 leaves) plus 1 sign-combine
//! word per 64 pairs, ≈ 115 gates (57 gates and no sign combine against 0);
//! an equality pair costs 31/64 words, 31 gates. A single shared pair
//! costs 8 words (6 carry, 2 sign combine) and 5 equality words.
//!
//! # Where the masks come from
//!
//! The masks and triples come from the session's [`crate::dealer`] source:
//! per-party files or a dedicated dealer link in the real offline/online
//! split, or the seeded in-process substitute (where a party that knows the
//! dealer seed could reconstruct the masks — see `docs/SECURITY.md`). The
//! *online* protocol — what actually crosses the wire — is the real circuit
//! protocol, which is what the wire-privacy test pins, and every arithmetic
//! opening carries its SPDZ MAC share into the session's deferred
//! integrity check.

use crate::dealer::SharedMask;
use crate::engine::CmpArg;
use crate::ring::RingElem;
use crate::runtime::{PartyResult, StepCtx};
use crate::share::AuthShare;

/// Synchronous rounds of one [`lt_batch`] call, whatever its size (one
/// fewer when every shared value is compared against 0).
pub const LT_ROUNDS: u64 = 8;

/// Synchronous rounds of one [`eq_batch`] call, whatever its size.
pub const EQ_ROUNDS: u64 = 7;

/// A less-than pair as the circuit evaluates it.
enum LtForm {
    /// `a < b` with both sides shared: the sign bits of a, b and a − b.
    Shared(AuthShare, AuthShare),
    /// `x < k` for shared `x` and public `k`, negated when `flip`: the sign
    /// bits of x and x − k, from one mask.
    Bound { x: AuthShare, k: i64, flip: bool },
    /// An answer decided in the clear.
    Clear(bool),
}

impl LtForm {
    fn of<P: Into<CmpArg<AuthShare>>>((x, y): (P, P)) -> Self {
        match (x.into(), y.into()) {
            (CmpArg::Shared(a), CmpArg::Shared(b)) => LtForm::Shared(a, b),
            (CmpArg::Shared(x), CmpArg::Public(k)) => LtForm::Bound { x, k, flip: false },
            // c < y ⟺ ¬(y < c + 1), and nothing is above i64::MAX.
            (CmpArg::Public(c), CmpArg::Shared(y)) => match c.checked_add(1) {
                Some(k) => LtForm::Bound {
                    x: y,
                    k,
                    flip: true,
                },
                None => LtForm::Clear(false),
            },
            (CmpArg::Public(a), CmpArg::Public(b)) => LtForm::Clear(a < b),
        }
    }
}

/// Batched signed less-than on shares: returns an additive sharing of `1`
/// where `x < y` (as `i64`), `0` elsewhere. Either side of a pair may be
/// public. [`LT_ROUNDS`] rounds for the whole batch; one fewer when every
/// shared value is compared against 0, and none when every answer is public.
pub fn lt_batch<P: Copy + Into<CmpArg<AuthShare>>>(
    ctx: &mut StepCtx,
    pairs: &[(P, P)],
) -> PartyResult<Vec<AuthShare>> {
    let forms: Vec<LtForm> = pairs.iter().map(|&p| LtForm::of(p)).collect();
    // The decomposed leaves, one mask and one opened word per value:
    // [a₀..aₘ, b₀..bₘ, d₀..dₘ] with d = a − b, then x of each bound pair
    // with k ≠ 0, then x of each with k = 0. The x − k leaves of the k ≠ 0
    // pairs follow, built from x's opened word.
    let shared = || {
        forms.iter().filter_map(|f| match *f {
            LtForm::Shared(a, b) => Some((a, b)),
            _ => None,
        })
    };
    let bound = |nonzero: bool| {
        forms.iter().filter_map(move |f| match *f {
            LtForm::Bound { x, k, flip } if (k != 0) == nonzero => Some((x, k, flip)),
            _ => None,
        })
    };
    let m = shared().count();
    let (nk, n0) = (bound(true).count(), bound(false).count());
    let mut bits = Vec::new();
    if m + nk + n0 > 0 {
        let mut values = Vec::with_capacity(3 * m + nk + n0);
        values.extend(shared().map(|(x, _)| x));
        values.extend(shared().map(|(_, y)| y));
        values.extend(shared().map(|(x, y)| x - y));
        values.extend(bound(true).chain(bound(false)).map(|(x, _, _)| x));
        let offsets: Vec<(usize, i64)> = (3 * m..).zip(bound(true).map(|(_, k, _)| k)).collect();
        let msb = msb_bits(ctx, &values, &offsets)?;
        let sa = bit_range(&msb, 0, m);
        let sb = bit_range(&msb, m, m);
        let sd = bit_range(&msb, 2 * m, m);
        // x's and (x − k)'s sign bits of the k ≠ 0 pairs, then x's of k = 0.
        let xa = bit_range(&msb, 3 * m, nk);
        let x0 = bit_range(&msb, 3 * m + nk, n0);
        let xd = bit_range(&msb, values.len(), nk);

        // lt = (sa ∧ ¬sb) ⊕ (¬(sa ⊕ sb) ∧ sd). Complements are
        // public-constant XORs (party 0 flips); every AND shares one
        // exchange. Padding bits past `m` stay structurally zero: ¬ makes the
        // padding of one operand all-ones but the other side is a shared
        // zero, so the AND result's padding is a shared zero again.
        let public = if ctx.party() == 0 { u64::MAX } else { 0 };
        let words = sa.len();
        let mut lhs = Vec::with_capacity(2 * words + xa.len());
        lhs.extend_from_slice(&sa);
        lhs.extend(sa.iter().zip(&sb).map(|(a, b)| a ^ b ^ public));
        lhs.extend_from_slice(&xa);
        let mut rhs = Vec::with_capacity(lhs.len());
        rhs.extend(sb.iter().map(|b| b ^ public));
        rhs.extend_from_slice(&sd);
        rhs.extend_from_slice(&xd);
        let anded = and_words(ctx, &lhs, &rhs, "lt sign combine")?;
        let lt_shared: Vec<u64> = (0..words).map(|w| anded[w] ^ anded[words + w]).collect();

        // x < k from sa = msb(x) and sd = msb(x − k): same-sign subtraction
        // cannot wrap, so it is sa ∨ sd = sa ⊕ sd ⊕ (sa ∧ sd) for k > 0,
        // sa ∧ sd for k < 0 and sa for k = 0; party 0 negates the flipped.
        let mut above = vec![0u64; xa.len()];
        let mut flips = vec![0u64; (m + nk + n0).div_ceil(64)];
        for (j, (_, k, flip)) in bound(true).chain(bound(false)).enumerate() {
            if j < nk {
                above[j / 64] |= u64::from(k > 0) << (j % 64);
            }
            flips[(m + j) / 64] |= u64::from(flip) << ((m + j) % 64);
        }
        let lt_k: Vec<u64> = (0..xa.len())
            .map(|w| anded[2 * words + w] ^ above[w] & (xa[w] ^ xd[w]))
            .collect();
        let mut lt_bits = concat_bits(&[(&lt_shared, m), (&lt_k, nk), (&x0, n0)]);
        for (w, flip) in lt_bits.iter_mut().zip(&flips) {
            *w ^= flip & public;
        }
        bits = bits_to_additive(ctx, &lt_bits, m + nk + n0)?;
    }
    if m == pairs.len() {
        return Ok(bits);
    }
    // Back to pair order: the shared pairs' bits come first, then the bound
    // pairs' with k ≠ 0, then those with k = 0.
    let (mut next_shared, mut next_k, mut next_0) = (0, m, m + nk);
    Ok(forms
        .iter()
        .map(|f| {
            let next = match *f {
                LtForm::Shared(..) => &mut next_shared,
                LtForm::Bound { k: 0, .. } => &mut next_0,
                LtForm::Bound { .. } => &mut next_k,
                LtForm::Clear(t) => return ctx.constant_elem(RingElem(u64::from(t))),
            };
            *next += 1;
            bits[*next - 1]
        })
        .collect())
}

/// Batched equality on shares: returns an additive sharing of `1` where
/// `x == y`, `0` elsewhere. 7 rounds for the whole batch.
pub fn eq_batch(
    ctx: &mut StepCtx,
    pairs: &[(AuthShare, AuthShare)],
) -> PartyResult<Vec<AuthShare>> {
    let m = pairs.len();
    if m == 0 {
        return Ok(Vec::new());
    }
    // z = x − y; z == 0 ⟺ r == −c for the opened mask c = z − r.
    let masks = ctx.take_shared_bits(m)?;
    let masked: Vec<AuthShare> = pairs
        .iter()
        .zip(&masks)
        .map(|(&(x, y), mask)| x - y - mask.value)
        .collect();
    let c = ctx.open_masked(&masked, "eq mask open")?;

    // t = r ⊕ e with e = ¬(−c): all 64 bits of t are 1 iff r == −c. The
    // first fold level, t_l ∧ t_h over adjacent bits, is a dealt product.
    let public = if ctx.party() == 0 { u64::MAX } else { 0 };
    let leaves: Vec<(&SharedMask, u64)> = masks
        .iter()
        .zip(&c)
        .map(|(mask, &ci)| (mask, !(RingElem::ZERO - ci).0))
        .collect();
    let mut t = Vec::with_capacity(32 * m.div_ceil(64));
    for block in leaves.chunks(64) {
        let (r, rr, e) = planes(block);
        t.extend((0..32).map(|i| dealt_and(&r, &rr, &e, 2 * i, public)));
    }
    // Halving fold over the remaining planes: AND plane 2i with 2i + 1 until
    // plane 0 holds the conjunction of all 64 bits. The partial
    // conjunctions are secret-dependent and never opened.
    let tail = m - 64 * (m.div_ceil(64) - 1);
    let mut nodes = 32;
    while nodes > 1 {
        let pairs = nodes / 2;
        let (x, y) = t.chunks_exact(2).map(|p| (p[0], p[1])).unzip();
        t = and_planes(ctx, x, y, pairs, tail, "eq fold")?;
        nodes = pairs;
    }
    bits_to_additive(ctx, &t, m)
}

/// Opens `c = z − r` for dealer masks `r` (uniform, reveals nothing on the
/// wire) and returns the sign bits of every `z = c + r`, lane-packed: leaf
/// `i`'s in bit `i % 64` of word `i / 64`, as `msb(z) = p₆₃ ⊕ carry₆₃` with
/// `p = r ⊕ c`. Each `(i, k)` of `offsets` appends the sign bit of
/// `values[i] − k = (c − k) + r`, from the same mask and opened word.
fn msb_bits(
    ctx: &mut StepCtx,
    values: &[AuthShare],
    offsets: &[(usize, i64)],
) -> PartyResult<Vec<u64>> {
    let masks = ctx.take_shared_bits(values.len())?;
    let masked: Vec<AuthShare> = values
        .iter()
        .zip(&masks)
        .map(|(&z, mask)| z - mask.value)
        .collect();
    let c = ctx.open_masked(&masked, "bitdec mask open")?;
    let leaves: Vec<(&SharedMask, u64)> = masks
        .iter()
        .zip(c.iter().map(|ci| ci.0))
        .chain(
            offsets
                .iter()
                .map(|&(i, k)| (&masks[i], (c[i] - RingElem::from_i64(k)).0)),
        )
        .collect();
    // The dealt first level, block by block: nodes 0..31 merge bits 2i and
    // 2i + 1, node 31 is bit 62 alone. Leaves g = r ∧ c (public c, local)
    // and p = r ⊕ c (party 0 adds the public c); node 0's P is never read.
    let public = if ctx.party() == 0 { u64::MAX } else { 0 };
    let blocks = leaves.len().div_ceil(64);
    let (mut g, mut p) = (
        Vec::with_capacity(32 * blocks),
        Vec::with_capacity(32 * blocks),
    );
    let mut p63 = Vec::with_capacity(blocks);
    for block in leaves.chunks(64) {
        let (r, rr, c) = planes(block);
        for i in 0..31 {
            let (l, h) = (2 * i, 2 * i + 1);
            g.push(r[h] & c[h] ^ c[l] & (rr[l] ^ c[h] & r[l]));
            p.push(dealt_and(&r, &rr, &c, l, public));
        }
        g.push(r[62] & c[62]);
        p.push(r[62] ^ c[62] & public);
        p63.push(r[63] ^ c[63] & public);
    }
    let tail = leaves.len() - 64 * (blocks - 1);
    let carry = carry_into_msb(ctx, g, p, tail)?;
    Ok(p63.iter().zip(carry).map(|(pi, ci)| pi ^ ci).collect())
}

/// Bit-slices one block of up to 64 leaves: the planes of this party's XOR
/// shares of the masks `r`, of their dealt products `rr`, and of the leaves'
/// public words. Lanes past the block's leaves are zero in every plane.
fn planes(block: &[(&SharedMask, u64)]) -> ([u64; 64], [u64; 64], [u64; 64]) {
    let (mut r, mut rr, mut c) = ([0u64; 64], [0u64; 64], [0u64; 64]);
    for (lane, &(mask, public)) in block.iter().enumerate() {
        r[lane] = mask.bits;
        rr[lane] = mask.products;
        c[lane] = public;
    }
    transpose64(&mut r);
    transpose64(&mut rr);
    transpose64(&mut c);
    (r, rr, c)
}

/// This party's share of `(r_l ⊕ c_l) ∧ (r_h ⊕ c_h)` for `h = l + 1` and
/// public `c`, from the dealt products `rr_l = r_l ∧ r_h`: local, with
/// `public` all-ones at party 0 only.
fn dealt_and(r: &[u64; 64], rr: &[u64; 64], c: &[u64; 64], l: usize, public: u64) -> u64 {
    let h = l + 1;
    rr[l] ^ c[l] & r[h] ^ c[h] & r[l] ^ c[l] & c[h] & public
}

/// The carry into bit 63 of `c + r` — the group generate of bits 0..62 —
/// as one plane per block, from the 32 nodes per block of the dealt first
/// level (`g`, `p`, 32 planes per block; the last block has `tail` live
/// lanes).
///
/// A binary tree over the nodes: each level combines node pairs
/// (hi = 2k+1, lo = 2k) as `G = G_hi ⊕ (P_hi ∧ G_lo)`, `P = P_hi ∧ P_lo`;
/// node 0's `P` is never formed because no level reads it. 32 → 16 → 8 →
/// 4 → 2 → 1 nodes is five AND rounds of 31, 15, 7, 3 and 1 planes per
/// block.
///
/// `G ∧ P = 0` holds per node at every level (it does for the leaves
/// `g = r ∧ c`, `p = r ⊕ c`), which is what lets the merge use ⊕ instead
/// of ∨ on XOR shares.
fn carry_into_msb(
    ctx: &mut StepCtx,
    mut g: Vec<u64>,
    mut p: Vec<u64>,
    tail: usize,
) -> PartyResult<Vec<u64>> {
    let mut nodes = 32;
    while nodes > 1 {
        let pairs = nodes / 2;
        let ands = 2 * pairs - 1;
        // Per block: P_hi with G_lo for every pair, then P_hi with P_lo for
        // pairs 1.. only.
        let (mut x, mut y) = (Vec::with_capacity(p.len()), Vec::with_capacity(p.len()));
        for (gb, pb) in g.chunks_exact(nodes).zip(p.chunks_exact(nodes)) {
            x.extend(pb.iter().skip(1).step_by(2));
            y.extend(gb.iter().step_by(2));
            x.extend(pb.iter().skip(3).step_by(2));
            y.extend(pb.iter().skip(2).step_by(2));
        }
        let t = and_planes(ctx, x, y, ands, tail, "lt carry level")?;
        let (mut next_g, mut next_p) = (Vec::with_capacity(t.len()), Vec::with_capacity(t.len()));
        for (gb, tb) in g.chunks_exact(nodes).zip(t.chunks_exact(ands)) {
            next_g.extend(gb.iter().skip(1).step_by(2).zip(tb).map(|(gh, ti)| gh ^ ti));
            next_p.push(0);
            next_p.extend_from_slice(&tb[pairs..]);
        }
        (g, p, nodes) = (next_g, next_p, pairs);
    }
    Ok(g)
}

/// Transposes a 64 × 64 bit matrix in place: bit `j` of row `i` moves to
/// bit `i` of row `j`. Six rounds of block swaps, halving the block size
/// each round.
fn transpose64(a: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_FFFF_FFFF_u64;
    while width != 0 {
        let mut k = 0;
        while k < 64 {
            // Swap the high half of row k's block with the low half of row
            // k + width's.
            let t = (a[k] >> width ^ a[k + width]) & mask;
            a[k + width] ^= t;
            a[k] ^= t << width;
            k = (k + width + 1) & !width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// The low `n` bits set, for `n` in `1..=64`.
fn low_bits(n: usize) -> u64 {
    u64::MAX >> (64 - n)
}

/// Bits `start..start + len` of the packed bit vector `words`, repacked
/// from bit 0; the bits past `len` in the last word are zero.
fn bit_range(words: &[u64], start: usize, len: usize) -> Vec<u64> {
    (0..len.div_ceil(64))
        .map(|w| {
            let (at, shift) = ((start + 64 * w) / 64, (start + 64 * w) % 64);
            let mut v = words[at] >> shift;
            if shift > 0 {
                v |= words.get(at + 1).map_or(0, |next| next << (64 - shift));
            }
            v & low_bits((len - 64 * w).min(64))
        })
        .collect()
}

/// Concatenates the low `n` bits of each `(words, n)` part into one packed
/// bit vector.
fn concat_bits(parts: &[(&[u64], usize)]) -> Vec<u64> {
    let mut out = vec![0u64; parts.iter().map(|&(_, n)| n).sum::<usize>().div_ceil(64)];
    let mut at = 0;
    for &(words, n) in parts {
        for (w, word) in bit_range(words, 0, n).into_iter().enumerate() {
            let (i, shift) = ((at + 64 * w) / 64, (at + 64 * w) % 64);
            out[i] |= word << shift;
            if shift > 0 && i + 1 < out.len() {
                out[i + 1] |= word >> (64 - shift);
            }
        }
        at += n;
    }
    out
}

/// ANDs plane `x[i]` with plane `y[i]`, the planes laid out `per_block` to a
/// block, block by block, the last block with `tail` live lanes (1..=64):
/// one [`and_words`] round. A full block sends each plane as one wire word;
/// the last packs ⌊64 / slot⌋ planes to a word (`slot` = `tail` rounded up
/// to a power of two). A slot's padding lanes are zero shares, masked on the
/// wire by the word's triple like every live lane, and zero in the result.
fn and_planes(
    ctx: &mut StepCtx,
    mut x: Vec<u64>,
    mut y: Vec<u64>,
    per_block: usize,
    tail: usize,
    label: &str,
) -> PartyResult<Vec<u64>> {
    let slot = tail.next_power_of_two();
    if slot == 64 {
        return and_words(ctx, &x, &y, label);
    }
    let per_word = 64 / slot;
    let lanes = low_bits(tail);
    let full = x.len() - per_block;
    let pack = |v: &mut Vec<u64>| {
        let packed: Vec<u64> = v[full..]
            .chunks(per_word)
            .map(|planes| {
                planes
                    .iter()
                    .enumerate()
                    .fold(0, |w, (k, plane)| w | (plane & lanes) << (k * slot))
            })
            .collect();
        v.truncate(full);
        v.extend(packed);
    };
    pack(&mut x);
    pack(&mut y);
    let mut z = and_words(ctx, &x, &y, label)?;
    let packed = z.split_off(full);
    z.extend(
        packed
            .iter()
            .flat_map(|w| (0..per_word).map(move |k| w >> (k * slot) & lanes))
            .take(per_block),
    );
    Ok(z)
}

/// Batched AND of XOR-shared words via binary Beaver triples: one masked
/// XOR-opening round for the whole batch.
fn and_words(ctx: &mut StepCtx, x: &[u64], y: &[u64], label: &str) -> PartyResult<Vec<u64>> {
    debug_assert_eq!(x.len(), y.len());
    if x.is_empty() {
        return Ok(Vec::new());
    }
    let triples = ctx.take_bit_triples(x.len())?;
    let mut masked = Vec::with_capacity(2 * x.len());
    for (i, t) in triples.iter().enumerate() {
        masked.push(x[i] ^ t.0);
        masked.push(y[i] ^ t.1);
    }
    let opened = ctx.open_xor_words(&masked, label)?;
    ctx.tally_bit_ands(64 * x.len() as u64);
    let party0 = ctx.party() == 0;
    Ok(triples
        .iter()
        .enumerate()
        .map(|(i, &(a, b, cw))| {
            let d = opened[2 * i];
            let e = opened[2 * i + 1];
            let mut zw = cw ^ (d & b) ^ (e & a);
            if party0 {
                zw ^= d & e;
            }
            zw
        })
        .collect())
}

/// Converts packed XOR-shared bits (the low `nbits` across `words`) into
/// additive sharings of 0/1 using daBits: one masked XOR-opening round.
fn bits_to_additive(ctx: &mut StepCtx, words: &[u64], nbits: usize) -> PartyResult<Vec<AuthShare>> {
    let dabits = ctx.take_dabits(words.len())?;
    let masked: Vec<u64> = words
        .iter()
        .zip(&dabits)
        .map(|(w, (rho_bits, _))| w ^ rho_bits)
        .collect();
    let v = ctx.open_xor_words(&masked, "bit2a open")?;
    let mut out = Vec::with_capacity(nbits);
    for k in 0..nbits {
        let w = k / 64;
        let bit = (v[w] >> (k % 64)) & 1;
        let rho = dabits[w].1[k % 64];
        // [t] = v + (1 − 2v)·[ρ]: v = 0 keeps ρ, v = 1 takes 1 − ρ (a
        // public-constant subtraction, so the MAC adjusts by α_i·1).
        out.push(if bit == 1 {
            ctx.constant_elem(RingElem::ONE) - rho
        } else {
            rho
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::PartySession;
    use conclave_net::ChannelTransport;

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

    /// The boundary matrix naive unsigned bit-decomposition gets wrong.
    const EDGE: [i64; 8] = [i64::MIN, i64::MIN + 1, -2, -1, 0, 1, 2, i64::MAX];

    #[test]
    fn circuit_lt_matches_signed_semantics_on_boundaries() {
        let mut pairs_clear = Vec::new();
        for &a in &EDGE {
            for &b in &EDGE {
                pairs_clear.push((a, b));
            }
        }
        let outs = run_parties(3, 41, |proto| {
            let owner = 0;
            let xs: Vec<i64> = pairs_clear.iter().map(|p| p.0).collect();
            let ys: Vec<i64> = pairs_clear.iter().map(|p| p.1).collect();
            let own = proto.party() == owner;
            let sx = proto.input_column(owner, own.then_some(xs.as_slice()), xs.len())?;
            let sy = proto.input_column(owner, own.then_some(ys.as_slice()), ys.len())?;
            let pairs: Vec<(AuthShare, AuthShare)> = sx.into_iter().zip(sy).collect();
            let bits = proto.lt_batch(&pairs)?;
            proto.open_column(&bits)
        });
        let expected: Vec<i64> = pairs_clear.iter().map(|&(a, b)| i64::from(a < b)).collect();
        for out in &outs {
            assert_eq!(out, &expected);
        }
    }

    #[test]
    fn circuit_eq_matches_on_boundaries() {
        let mut pairs_clear = Vec::new();
        for &a in &EDGE {
            for &b in &EDGE {
                pairs_clear.push((a, b));
            }
        }
        let outs = run_parties(2, 42, |proto| {
            let owner = 1;
            let xs: Vec<i64> = pairs_clear.iter().map(|p| p.0).collect();
            let ys: Vec<i64> = pairs_clear.iter().map(|p| p.1).collect();
            let own = proto.party() == owner;
            let sx = proto.input_column(owner, own.then_some(xs.as_slice()), xs.len())?;
            let sy = proto.input_column(owner, own.then_some(ys.as_slice()), ys.len())?;
            let pairs: Vec<(AuthShare, AuthShare)> = sx.into_iter().zip(sy).collect();
            let bits = proto.eq_batch(&pairs)?;
            proto.open_column(&bits)
        });
        let expected: Vec<i64> = pairs_clear
            .iter()
            .map(|&(a, b)| i64::from(a == b))
            .collect();
        for out in &outs {
            assert_eq!(out, &expected);
        }
    }

    #[test]
    fn batches_larger_than_one_word_pack_correctly() {
        // 150 pairs spans three 64-bit packing words, exercising the
        // bit-extraction paths on non-multiple-of-64 batch sizes.
        let pairs_clear: Vec<(i64, i64)> = (0..150)
            .map(|i| (i64::from(i % 13) - 6, i64::from(i % 7) - 3))
            .collect();
        let outs = run_parties(3, 43, |proto| {
            let owner = 2;
            let xs: Vec<i64> = pairs_clear.iter().map(|p| p.0).collect();
            let ys: Vec<i64> = pairs_clear.iter().map(|p| p.1).collect();
            let own = proto.party() == owner;
            let sx = proto.input_column(owner, own.then_some(xs.as_slice()), xs.len())?;
            let sy = proto.input_column(owner, own.then_some(ys.as_slice()), ys.len())?;
            let pairs: Vec<(AuthShare, AuthShare)> = sx.into_iter().zip(sy).collect();
            let lt = proto.lt_batch(&pairs)?;
            let eq = proto.eq_batch(&pairs)?;
            Ok((proto.open_column(&lt)?, proto.open_column(&eq)?))
        });
        let want_lt: Vec<i64> = pairs_clear.iter().map(|&(a, b)| i64::from(a < b)).collect();
        let want_eq: Vec<i64> = pairs_clear
            .iter()
            .map(|&(a, b)| i64::from(a == b))
            .collect();
        for (lt, eq) in &outs {
            assert_eq!(lt, &want_lt);
            assert_eq!(eq, &want_eq);
        }
    }

    /// Shares `pairs_clear` from party 0 and runs `f` on the shared pairs.
    fn with_shared_pairs<R, F>(n: u32, seed: u64, pairs_clear: &[(i64, i64)], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut StepCtx, &[(AuthShare, AuthShare)]) -> PartyResult<R> + Sync,
    {
        run_parties(n, seed, |proto| {
            let xs: Vec<i64> = pairs_clear.iter().map(|p| p.0).collect();
            let ys: Vec<i64> = pairs_clear.iter().map(|p| p.1).collect();
            let own = proto.party() == 0;
            let sx = proto.input_column(0, own.then_some(xs.as_slice()), xs.len())?;
            let sy = proto.input_column(0, own.then_some(ys.as_slice()), ys.len())?;
            let pairs: Vec<(AuthShare, AuthShare)> = sx.into_iter().zip(sy).collect();
            f(proto, &pairs)
        })
    }

    #[test]
    fn circuit_rounds_are_batch_size_independent() {
        for batch in [1usize, 2, 3, 63, 64, 65, 1000] {
            let pairs_clear: Vec<(i64, i64)> = (0..batch as i64).map(|i| (i, -i)).collect();
            let counts = with_shared_pairs(2, 44, &pairs_clear, |proto, pairs| {
                let before = proto.counts();
                proto.lt_batch(pairs)?;
                let lt_rounds = proto.counts().since(&before).circuit_rounds;
                let before = proto.counts();
                proto.eq_batch(pairs)?;
                let eq_rounds = proto.counts().since(&before).circuit_rounds;
                Ok((lt_rounds, eq_rounds))
            });
            for &(lt_rounds, eq_rounds) in &counts {
                assert_eq!(lt_rounds, LT_ROUNDS, "lt rounds for batch {batch}");
                assert_eq!(eq_rounds, EQ_ROUNDS, "eq rounds for batch {batch}");
            }
        }
    }

    /// AND words of one level over `leaves` bit-sliced leaves that ANDs
    /// `planes` planes per block: a word per plane of each full block, and
    /// ⌊64 / slot⌋ planes per word in the last block (`slot` its live lanes
    /// rounded up to a power of two).
    fn level_words(leaves: usize, planes: usize) -> u64 {
        let full = (leaves - 1) / 64;
        let tail = leaves - 64 * full;
        (full * planes + planes.div_ceil(64 / tail.next_power_of_two())) as u64
    }

    /// AND words of the carry tree over `leaves` decomposed values, level by
    /// level after the dealt first: 32 → 16 → … → 1 nodes, `2·pairs − 1`
    /// planes per block.
    fn carry_words(leaves: usize) -> u64 {
        [31, 15, 7, 3, 1]
            .iter()
            .map(|&q| level_words(leaves, q))
            .sum()
    }

    /// `lt` AND words for `m` shared pairs: the carry tree over the 3m
    /// decomposed values, then two sign-combine words per 64 pairs.
    fn lt_words(m: usize) -> u64 {
        carry_words(3 * m) + 2 * m.div_ceil(64) as u64
    }

    /// `x < k` AND words for `m` pairs with public `k`: the carry tree over
    /// the 2m leaves x and x − k, then one sign-combine word per 64 pairs;
    /// for k = 0, the m leaves x and no sign combine.
    fn lt_public_words(m: usize, k: i64) -> u64 {
        match k {
            0 => carry_words(m),
            _ => carry_words(2 * m) + m.div_ceil(64) as u64,
        }
    }

    /// `eq` AND words for `m` pairs: the fold after the dealt first level,
    /// 16, 8, 4, 2 and 1 planes per block.
    fn eq_words(m: usize) -> u64 {
        [16, 8, 4, 2, 1].iter().map(|&q| level_words(m, q)).sum()
    }

    #[test]
    fn bit_and_tallies_follow_the_gate_count() {
        // One pair's three leaves pack 16 planes to a word: 512 = (2 + 1 +
        // 1 + 1 + 1 carry words + 2 sign words) × 64. One leaf packs 64, so
        // each fold level is one word: 320 = 5 × 64. 640 pairs fill whole
        // blocks: 57 carry planes per 64 leaves, 31 fold planes per 64 pairs.
        assert_eq!(64 * lt_words(1), 512);
        assert_eq!(64 * eq_words(1), 320);
        assert_eq!(64 * lt_words(640), 110_720);
        assert_eq!(64 * eq_words(640), 19_840);
        for m in [1usize, 640] {
            let pairs_clear: Vec<(i64, i64)> = (0..m as i64).map(|i| (7 * i, -9 * i)).collect();
            let counts = with_shared_pairs(2, 45, &pairs_clear, |proto, pairs| {
                let before = proto.counts();
                proto.lt_batch(pairs)?;
                let lt = proto.counts().since(&before);
                let before = proto.counts();
                proto.eq_batch(pairs)?;
                Ok((lt, proto.counts().since(&before)))
            });
            for (lt, eq) in &counts {
                assert_eq!(lt.comparisons, m as u64);
                assert_eq!(lt.bit_ands, 64 * lt_words(m), "lt gates for batch {m}");
                assert_eq!(lt.circuit_rounds, LT_ROUNDS);
                assert_eq!(eq.equalities, m as u64);
                assert_eq!(eq.bit_ands, 64 * eq_words(m), "eq gates for batch {m}");
                assert_eq!(eq.circuit_rounds, EQ_ROUNDS);
            }
        }
    }

    #[test]
    fn public_operands_decompose_only_the_shared_side() {
        // 384 = (1 + 1 + 1 + 1 + 1 carry words + 1 sign word) × 64;
        // against 0, 320 = (1 + 1 + 1 + 1 + 1) × 64.
        assert_eq!(64 * lt_public_words(1, 5), 384);
        assert_eq!(64 * lt_public_words(1, 0), 320);
        assert_eq!(64 * lt_public_words(640, 5), 73_600);
        assert_eq!(64 * lt_public_words(640, 0), 36_480);
        // `c < x` is `¬(x < c + 1)`: c = −1 is a comparison against 0.
        for (k, c) in [(5, 4), (-5, -6), (0, -1), (i64::MAX, i64::MAX - 1)] {
            for m in [1usize, 640] {
                let xs: Vec<(i64, i64)> = (0..m as i64).map(|i| (i - 320, 0)).collect();
                let counts = with_shared_pairs(3, 46, &xs, |proto, pairs| {
                    let below: Vec<_> = pairs
                        .iter()
                        .map(|&(x, _)| (CmpArg::Shared(x), CmpArg::Public(k)))
                        .collect();
                    let above: Vec<_> = pairs
                        .iter()
                        .map(|&(x, _)| (CmpArg::Public(c), CmpArg::Shared(x)))
                        .collect();
                    let mut out = Vec::new();
                    for batch in [below, above] {
                        let before = proto.counts();
                        let bits = proto.lt_batch(&batch)?;
                        out.push((proto.counts().since(&before), proto.open_column(&bits)?));
                    }
                    Ok(out)
                });
                let want_below: Vec<i64> = xs.iter().map(|&(x, _)| i64::from(x < k)).collect();
                let want_above: Vec<i64> = xs.iter().map(|&(x, _)| i64::from(c < x)).collect();
                for party in &counts {
                    for ((n, bits), want) in party.iter().zip([&want_below, &want_above]) {
                        assert_eq!(bits, want, "x < {k} / {c} < x, batch {m}");
                        assert_eq!(n.comparisons, m as u64);
                        assert_eq!(n.bit_ands, 64 * lt_public_words(m, k), "k = {k}, batch {m}");
                        let rounds = if k == 0 { LT_ROUNDS - 1 } else { LT_ROUNDS };
                        assert_eq!(n.circuit_rounds, rounds, "k = {k}");
                    }
                }
            }
        }
        // Answers decided in the clear open no word and AND nothing.
        let counts = with_shared_pairs(2, 47, &[(3, 0)], |proto, pairs| {
            let batch = [
                (CmpArg::Public(i64::MAX), CmpArg::Shared(pairs[0].0)),
                (CmpArg::Public(-1), CmpArg::Public(1)),
            ];
            let before = proto.counts();
            let bits = proto.lt_batch(&batch)?;
            Ok((proto.counts().since(&before), proto.open_column(&bits)?))
        });
        for (n, bits) in &counts {
            assert_eq!(bits, &[0, 1]);
            assert_eq!((n.comparisons, n.bit_ands, n.circuit_rounds), (2, 0, 0));
        }
    }

    /// Batch sizes whose neighbours (one less, one more) put the leaf
    /// counts on the block edges and on every tail that changes the packing
    /// slot. `eq` has m leaves: 63/64/65 and 127/128/129 around 64 and 128,
    /// tails of 1, 2, 3, 5, 9, 17 and 33 live lanes around 2, 5, 9, 17 and
    /// 33. Shared `lt` has 3m: 63/66/69 around 22, 126/129 around 43, and
    /// tails of 1 (129), 2 (66), 3, 5 (69), 9, 17 (81, around 27) and 33
    /// (around 11).
    const SLOT_EDGES: [usize; 14] = [2, 3, 5, 9, 11, 17, 22, 23, 27, 33, 43, 64, 128, 256];

    #[test]
    fn transpose64_matches_a_naive_transpose() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(64);
        for case in 0..32 {
            let mut rows = [0u64; 64];
            for row in &mut rows {
                // Sparse, dense and uniform rows.
                *row = match case % 3 {
                    0 => 1u64 << rng.gen_range(0..64u32),
                    1 => !(1u64 << rng.gen_range(0..64u32)),
                    _ => rng.gen(),
                };
            }
            let mut naive = [0u64; 64];
            for (i, row) in rows.iter().enumerate() {
                for (j, plane) in naive.iter_mut().enumerate() {
                    *plane |= (row >> j & 1) << i;
                }
            }
            let mut sliced = rows;
            transpose64(&mut sliced);
            assert_eq!(sliced, naive, "case {case}");
            transpose64(&mut sliced);
            assert_eq!(sliced, rows, "an involution, case {case}");
        }
    }

    /// Full-range pairs with the signed boundaries, equal pairs and
    /// adjacent pairs injected.
    fn random_pairs(m: usize, seed: u64) -> Vec<(i64, i64)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| {
                let a: i64 = if rng.gen_range(0..4) == 0 {
                    EDGE[rng.gen_range(0..EDGE.len())]
                } else {
                    rng.gen()
                };
                let b = match rng.gen_range(0..5) {
                    0 => a,
                    1 => a.wrapping_add(1),
                    2 => a.wrapping_sub(1),
                    3 => EDGE[rng.gen_range(0..EDGE.len())],
                    _ => rng.gen(),
                };
                (a, b)
            })
            .collect()
    }

    /// Every batch size beside a slot edge, once each, in one mesh: the
    /// proptest below samples them, this walks them all.
    #[test]
    fn every_block_edge_and_tail_slot_matches_the_cleartext() {
        let sizes: Vec<usize> = SLOT_EDGES.iter().flat_map(|&e| [e - 1, e, e + 1]).collect();
        let all: Vec<(i64, i64)> = sizes
            .iter()
            .flat_map(|&m| random_pairs(m, m as u64))
            .collect();
        let outs = with_shared_pairs(3, 48, &all, |proto, pairs| {
            let mut out = Vec::new();
            let mut rest = pairs;
            for &m in &sizes {
                let (batch, after) = rest.split_at(m);
                rest = after;
                let lt = proto.lt_batch(batch)?;
                let eq = proto.eq_batch(batch)?;
                out.extend(
                    proto
                        .open_column(&lt)?
                        .into_iter()
                        .zip(proto.open_column(&eq)?),
                );
            }
            Ok(out)
        });
        let want: Vec<(i64, i64)> = all
            .iter()
            .map(|&(a, b)| (i64::from(a < b), i64::from(a == b)))
            .collect();
        for out in &outs {
            assert_eq!(out, &want);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn packed_circuits_match_the_cleartext(
            size in (0usize..SLOT_EDGES.len() + 1, 0usize..3, 1usize..301),
            seed in proptest::prelude::any::<u64>(),
        ) {
            // One draw in 15 is uniform over 1..=300; the rest sit on or
            // beside a slot edge.
            let (edge, offset, uniform) = size;
            let m = SLOT_EDGES
                .get(edge)
                .map_or(uniform, |&e| (e + offset).saturating_sub(1).clamp(1, 300));
            let pairs_clear = random_pairs(m, seed);
            // Each side of each pair is public with probability 1/3, on its
            // own: shared, mixed and public pairs all land in one batch.
            let public: Vec<(bool, bool)> = {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(!seed);
                (0..m).map(|_| (rng.gen_range(0..3) == 0, rng.gen_range(0..3) == 0)).collect()
            };
            let outs = with_shared_pairs(3, seed, &pairs_clear, |proto, pairs| {
                let arg = |public: bool, clear: i64, share: AuthShare| {
                    if public { CmpArg::Public(clear) } else { CmpArg::Shared(share) }
                };
                let mixed: Vec<_> = pairs_clear
                    .iter()
                    .zip(pairs)
                    .zip(&public)
                    .map(|((&(a, b), &(x, y)), &(pa, pb))| (arg(pa, a, x), arg(pb, b, y)))
                    .collect();
                let lt = proto.lt_batch(pairs)?;
                let mixed_lt = proto.lt_batch(&mixed)?;
                let eq = proto.eq_batch(pairs)?;
                Ok((
                    proto.open_column(&lt)?,
                    proto.open_column(&mixed_lt)?,
                    proto.open_column(&eq)?,
                ))
            });
            let want_lt: Vec<i64> = pairs_clear.iter().map(|&(a, b)| i64::from(a < b)).collect();
            let want_eq: Vec<i64> = pairs_clear.iter().map(|&(a, b)| i64::from(a == b)).collect();
            for (lt, mixed_lt, eq) in &outs {
                proptest::prop_assert_eq!(lt, &want_lt, "lt, batch {}, seed {}", m, seed);
                proptest::prop_assert_eq!(mixed_lt, &want_lt, "public lt, batch {}, seed {}", m, seed);
                proptest::prop_assert_eq!(eq, &want_eq, "eq, batch {}, seed {}", m, seed);
            }
        }
    }
}
