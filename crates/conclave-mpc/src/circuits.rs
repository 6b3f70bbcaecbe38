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
//!    bits + additive share) and open the uniform value `c = z − r`. The
//!    sign bit of `z = c + r` is `p₆₃ ⊕ carry₆₃` with `p = r ⊕ c`, so only
//!    the carry into bit 63 is computed, not the sum: a binary tree over the
//!    generate/propagate leaves `g = r ∧ c`, `p = r ⊕ c` of bits 0..62
//!    (63 → 32 → 16 → 8 → 4 → 2 → 1 nodes, six AND rounds *for the whole
//!    batch*) that ANDs 61, 31, 15, 7, 3 and 1 live bits per value.
//! 2. **Binary AND** ([`and_words` internally]): AND of two XOR-shared
//!    words via a binary Beaver triple word `(a, b, c = a & b)`: open
//!    `d = x ⊕ a`, `e = y ⊕ b`, then `z = c ⊕ (d ∧ b) ⊕ (e ∧ a)` with
//!    party 0 adding `d ∧ e`. XOR is free (local). Each circuit level
//!    packs its per-value operands by live width ([`and_packed`
//!    internally]): ⌊64 / slot⌋ values per wire word, `slot` the width
//!    rounded up to a power of two, so a word carries only live bits and
//!    padding that is a zero share under the same triple mask.
//! 3. **Signed less-than** ([`lt_batch`]): with `sa = msb(a)`,
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
//!    public, or `i64::MAX < y`, is decided in the clear.
//! 4. **Equality** ([`eq_batch`]): `z = x − y` is zero iff the dealer mask
//!    `r` equals `−c` where `c = z − r` was opened; `t = ¬(r ⊕ (−c))` is
//!    local, then a halving fold ANDs the low and high halves of the live
//!    bits (32, 16, 8, 4, 2, 1 wide) and leaves the all-bits AND in bit 0.
//!    Only that bit is extracted and converted; the fold's partial
//!    conjunctions are secret-dependent and never opened.
//! 5. **Bit-to-arithmetic** ([`bits_to_additive` internally]): a *daBit*
//!    (random bit ρ held both XOR-shared and additively shared) converts
//!    each XOR-shared result bit `t` to an additive sharing: open
//!    `v = t ⊕ ρ` (uniform), then `[t] = v + (1 − 2v)·[ρ]` locally.
//!
//! # Round complexity
//!
//! For a batch of any size: `lt_batch` = 1 masked-open + 6 carry-tree
//! levels + 1 sign-combine AND + 1 bit-to-arithmetic open = **9 rounds**
//! (**8** when every pair compares a shared value with 0: no sign-combine
//! AND); `eq_batch` = 1 masked-open + 6 fold levels + 1 bit-to-arithmetic
//! open = **8 rounds**. All per-level ANDs across the batch coalesce into
//! one exchange, preserving the round-coalescing the runtime's callers
//! (sorting network, filter, join, aggregate) rely on. In AND words on the
//! wire, a shared less-than pair costs ≈ 5.9 (3 values × ≈ 1.95 packed
//! carry words) plus 2 sign-combine words per 64 pairs, ≈ 377 gates; a
//! pair against a public constant ≈ 3.9 (2 leaves) plus 1 sign-combine word
//! per 64 pairs, ≈ 251 gates (≈ 1.95 words and no sign combine against 0);
//! an equality pair costs ≈ 1 word, ≈ 63 gates. A single shared pair costs
//! 11 and 6 words.
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

use crate::engine::CmpArg;
use crate::ring::RingElem;
use crate::runtime::{PartyResult, StepCtx};
use crate::share::AuthShare;

/// Live widths of the equality fold: each level ANDs the low and high
/// halves of the bits still live, leaving the all-bits AND in bit 0.
const EQ_FOLDS: [u32; 6] = [32, 16, 8, 4, 2, 1];

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
/// public. 9 rounds for the whole batch; 8 when every shared value is
/// compared against 0, and none when every answer is public.
pub fn lt_batch<P: Copy + Into<CmpArg<AuthShare>>>(
    ctx: &mut StepCtx,
    pairs: &[(P, P)],
) -> PartyResult<Vec<AuthShare>> {
    let shared = || {
        pairs.iter().filter_map(|&p| match LtForm::of(p) {
            LtForm::Shared(a, b) => Some((a, b)),
            _ => None,
        })
    };
    let bounds: Vec<(AuthShare, i64, bool)> = pairs
        .iter()
        .filter_map(|&p| match LtForm::of(p) {
            LtForm::Bound { x, k, flip } => Some((x, k, flip)),
            _ => None,
        })
        .collect();
    let m = shared().count();
    let mut bits = Vec::new();
    if m + bounds.len() > 0 {
        // Sign bits in one batch, one mask and one opened word per shared
        // value: [a₀..aₘ, b₀..bₘ, d₀..dₘ] with d = a − b, then x of each
        // bound pair. The x − k leaves of the bound pairs with k ≠ 0 follow,
        // built from x's opened word.
        let mut values = Vec::with_capacity(3 * m + bounds.len());
        values.extend(shared().map(|(x, _)| x));
        values.extend(shared().map(|(_, y)| y));
        values.extend(shared().map(|(x, y)| x - y));
        values.extend(bounds.iter().map(|&(x, _, _)| x));
        let offsets: Vec<(usize, i64)> = (3 * m..)
            .zip(&bounds)
            .filter(|&(_, &(_, k, _))| k != 0)
            .map(|(i, &(_, k, _))| (i, k))
            .collect();
        let msb = msb_bits(ctx, &values, &offsets)?;

        // Pack the three sign bits of the shared pairs: bit j of word j/64.
        let words = m.div_ceil(64);
        let mut sa = vec![0u64; words];
        let mut sb = vec![0u64; words];
        let mut sd = vec![0u64; words];
        for j in 0..m {
            sa[j / 64] |= msb[j] << (j % 64);
            sb[j / 64] |= msb[m + j] << (j % 64);
            sd[j / 64] |= msb[2 * m + j] << (j % 64);
        }
        // And the two of the bound pairs with k ≠ 0: x's and (x − k)'s.
        let mut xa = vec![0u64; offsets.len().div_ceil(64)];
        let mut xd = xa.clone();
        for (z, &(i, _)) in offsets.iter().enumerate() {
            xa[z / 64] |= msb[i] << (z % 64);
            xd[z / 64] |= msb[values.len() + z] << (z % 64);
        }

        // lt = (sa ∧ ¬sb) ⊕ (¬(sa ⊕ sb) ∧ sd). Complements are
        // public-constant XORs (party 0 flips); every AND shares one
        // exchange. Padding bits past `m` stay structurally zero: ¬ makes the
        // padding of one operand all-ones but the other side is a shared
        // zero, so the AND result's padding is a shared zero again.
        let party0 = ctx.party() == 0;
        let mut not_sb = sb.clone();
        let mut nxor: Vec<u64> = sa.iter().zip(&sb).map(|(a, b)| a ^ b).collect();
        if party0 {
            for w in &mut not_sb {
                *w = !*w;
            }
            for w in &mut nxor {
                *w = !*w;
            }
        }
        let mut lhs = Vec::with_capacity(2 * words + xa.len());
        lhs.extend_from_slice(&sa);
        lhs.extend_from_slice(&nxor);
        lhs.extend_from_slice(&xa);
        let mut rhs = Vec::with_capacity(2 * words + xd.len());
        rhs.extend_from_slice(&not_sb);
        rhs.extend_from_slice(&sd);
        rhs.extend_from_slice(&xd);
        let anded = and_words(ctx, &lhs, &rhs, "lt sign combine")?;
        let mut lt_bits: Vec<u64> = (0..words).map(|w| anded[w] ^ anded[words + w]).collect();

        // x < k from sa = msb(x) and sd = msb(x − k): same-sign subtraction
        // cannot wrap, so it is sa ∨ sd for k > 0, sa ∧ sd for k < 0 and sa
        // for k = 0. A bound pair's bit sits after the shared pairs' (XORed
        // into a shared zero padding bit, or a new word).
        lt_bits.resize((m + bounds.len()).div_ceil(64), 0);
        let mut z = 0;
        for (i, &(_, k, flip)) in bounds.iter().enumerate() {
            let sa = msb[3 * m + i];
            let mut bit = sa;
            if k != 0 {
                let and = anded[2 * words + z / 64] >> (z % 64) & 1;
                bit = if k > 0 {
                    sa ^ msb[values.len() + z] ^ and
                } else {
                    and
                };
                z += 1;
            }
            if flip && party0 {
                bit ^= 1;
            }
            lt_bits[(m + i) / 64] ^= bit << ((m + i) % 64);
        }
        bits = bits_to_additive(ctx, &lt_bits, m + bounds.len())?;
    }
    if m == pairs.len() {
        return Ok(bits);
    }
    // Back to pair order: the shared pairs' bits come first, then the bound
    // pairs'.
    let (mut next_shared, mut next_bound) = (0, m);
    Ok(pairs
        .iter()
        .map(|&p| match LtForm::of(p) {
            LtForm::Shared(..) => {
                next_shared += 1;
                bits[next_shared - 1]
            }
            LtForm::Bound { .. } => {
                next_bound += 1;
                bits[next_bound - 1]
            }
            LtForm::Clear(t) => ctx.constant_elem(RingElem(u64::from(t))),
        })
        .collect())
}

/// Batched equality on shares: returns an additive sharing of `1` where
/// `x == y`, `0` elsewhere. 8 rounds for the whole batch.
pub fn eq_batch(
    ctx: &mut StepCtx,
    pairs: &[(AuthShare, AuthShare)],
) -> PartyResult<Vec<AuthShare>> {
    let m = pairs.len();
    if m == 0 {
        return Ok(Vec::new());
    }
    // z = x − y; z == 0 ⟺ r == −c for the opened mask c = z − r.
    let z: Vec<AuthShare> = pairs.iter().map(|&(x, y)| x - y).collect();
    let masks = ctx.take_shared_bits(m)?;
    let masked: Vec<AuthShare> = z
        .iter()
        .zip(&masks)
        .map(|(&zi, &(_, r_add))| zi - r_add)
        .collect();
    let c = ctx.open_masked(&masked, "eq mask open")?;

    // t = ¬(r ⊕ (−c)): all 64 bits of t are 1 iff r == −c. Local.
    let party0 = ctx.party() == 0;
    let mut t: Vec<u64> = masks.iter().map(|&(r_bits, _)| r_bits).collect();
    if party0 {
        for (ti, ci) in t.iter_mut().zip(&c) {
            *ti ^= (RingElem::ZERO - *ci).0 ^ u64::MAX;
        }
    }
    // Halving fold: AND the low half of the live bits with the high half
    // until bit 0 holds the conjunction of all 64. The partial conjunctions
    // are secret-dependent and never opened.
    for &w in &EQ_FOLDS {
        let high: Vec<u64> = t.iter().map(|tw| tw >> w).collect();
        t = and_packed(ctx, &t, &high, w, "eq fold")?;
    }
    let words = m.div_ceil(64);
    let mut packed = vec![0u64; words];
    for (j, tw) in t.iter().enumerate() {
        packed[j / 64] |= tw << (j % 64);
    }
    bits_to_additive(ctx, &packed, m)
}

/// Opens `c = z − r` for dealer masks `r` (uniform, reveals nothing on the
/// wire) and returns, per `z = c + r`, an XOR-shared word holding its sign
/// bit in bit 0: `msb(z) = p₆₃ ⊕ carry₆₃` with `p = r ⊕ c`. Each `(i, k)` of
/// `offsets` appends the sign bit of `values[i] − k = (c − k) + r`, from the
/// same mask and opened word.
fn msb_bits(
    ctx: &mut StepCtx,
    values: &[AuthShare],
    offsets: &[(usize, i64)],
) -> PartyResult<Vec<u64>> {
    let masks = ctx.take_shared_bits(values.len())?;
    let masked: Vec<AuthShare> = values
        .iter()
        .zip(&masks)
        .map(|(&z, &(_, r_add))| z - r_add)
        .collect();
    let c = ctx.open_masked(&masked, "bitdec mask open")?;
    // Leaves: g = r ∧ c (public mask, local), p = r ⊕ c (party 0 adds the
    // public c).
    let party0 = ctx.party() == 0;
    let n = values.len() + offsets.len();
    let mut g = Vec::with_capacity(n);
    let mut p = Vec::with_capacity(n);
    let mut leaf = |r: u64, c: RingElem| {
        g.push(r & c.0);
        p.push(if party0 { r ^ c.0 } else { r });
    };
    for (&ci, &(r, _)) in c.iter().zip(&masks) {
        leaf(r, ci);
    }
    for &(i, k) in offsets {
        leaf(masks[i].0, c[i] - RingElem::from_i64(k));
    }
    let p63: Vec<u64> = p.iter().map(|pw| pw >> 63).collect();
    let carry = carry_into_msb(ctx, g, p)?;
    Ok(p63.iter().zip(carry).map(|(pi, ci)| pi ^ ci).collect())
}

/// The carry into bit 63 of `c + r` — the group generate of bits 0..62 —
/// in bit 0 of each result, from per-value leaf words `g`, `p`.
///
/// A binary tree over the 63 leaves: each level combines node pairs
/// (hi = 2k+1, lo = 2k) as `G = G_hi ⊕ (P_hi ∧ G_lo)`, `P = P_hi ∧ P_lo`.
/// An odd top node passes through, and node 0's `P` is never formed
/// because no level reads it. 63 → 32 → 16 → 8 → 4 → 2 → 1 nodes is six AND
/// rounds with 61, 31, 15, 7, 3 and 1 live bits per value.
///
/// `G ∧ P = 0` holds per node at every level (it does for the leaves
/// `g = r ∧ c`, `p = r ⊕ c`), which is what lets the merge use ⊕ instead
/// of ∨ on XOR shares.
fn carry_into_msb(ctx: &mut StepCtx, mut g: Vec<u64>, mut p: Vec<u64>) -> PartyResult<Vec<u64>> {
    let mut nodes = 63u32;
    for w in g.iter_mut().chain(p.iter_mut()) {
        *w &= low_bits(nodes);
    }
    while nodes > 1 {
        let pairs = nodes / 2;
        let low = low_bits(pairs);
        // One operand word per value: bits 0..pairs pair P_hi with G_lo for
        // every pair; the bits above pair P_hi with P_lo for pairs 1.. only.
        let mut x = Vec::with_capacity(g.len());
        let mut y = Vec::with_capacity(g.len());
        for (&gw, &pw) in g.iter().zip(&p) {
            let p_hi = odd_bits(pw);
            x.push(p_hi | (p_hi >> 1) << pairs);
            y.push(even_bits(gw) & low | (even_bits(pw) & low) >> 1 << pairs);
        }
        let t = and_packed(ctx, &x, &y, 2 * pairs - 1, "lt carry level")?;
        let top = nodes - 1;
        for ((gw, pw), ti) in g.iter_mut().zip(p.iter_mut()).zip(t) {
            let mut next_g = odd_bits(*gw) ^ (ti & low);
            let mut next_p = ti >> pairs << 1;
            if nodes % 2 == 1 {
                next_g |= (*gw >> top & 1) << pairs;
                next_p |= (*pw >> top & 1) << pairs;
            }
            *gw = next_g;
            *pw = next_p;
        }
        nodes = pairs + nodes % 2;
    }
    Ok(g)
}

/// The low `n` bits set, for `n` in `1..=64`.
fn low_bits(n: u32) -> u64 {
    u64::MAX >> (64 - n)
}

/// Gathers the even-indexed bits of `w` into its low 32 bits, in order.
fn even_bits(w: u64) -> u64 {
    let mut x = w & 0x5555_5555_5555_5555;
    x = (x | x >> 1) & 0x3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x >> 4) & 0x00FF_00FF_00FF_00FF;
    x = (x | x >> 8) & 0x0000_FFFF_0000_FFFF;
    (x | x >> 16) & 0x0000_0000_FFFF_FFFF
}

/// Gathers the odd-indexed bits of `w` into its low 32 bits, in order.
fn odd_bits(w: u64) -> u64 {
    even_bits(w >> 1)
}

/// ANDs the low `width` bits of each `x[i]` with those of `y[i]` and returns
/// them in the low `width` bits of each result; bits above `width` are
/// ignored on input and zero on output. Packs `⌊64 / slot⌋` values per wire
/// word (`slot` = `width` rounded up to a power of two) into one
/// [`and_words`] round. A slot's padding bits are zero shares, masked on the
/// wire by the word's triple like every live bit.
fn and_packed(
    ctx: &mut StepCtx,
    x: &[u64],
    y: &[u64],
    width: u32,
    label: &str,
) -> PartyResult<Vec<u64>> {
    let slot = width.next_power_of_two();
    let per_word = (64 / slot) as usize;
    let mask = low_bits(width);
    let pack = |v: &[u64]| -> Vec<u64> {
        v.chunks(per_word)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0, |w, (k, vi)| w | (vi & mask) << (k as u32 * slot))
            })
            .collect()
    };
    let z = and_words(ctx, &pack(x), &pack(y), label)?;
    Ok(z.iter()
        .flat_map(|zw| (0..per_word as u32).map(move |k| zw >> (k * slot) & mask))
        .take(x.len())
        .collect())
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
                assert_eq!(lt_rounds, 9, "lt rounds for batch {batch}");
                assert_eq!(eq_rounds, 8, "eq rounds for batch {batch}");
            }
        }
    }

    /// AND words of one packed level: `values` operands of `width` live
    /// bits, `⌊64 / slot⌋` per word.
    fn level_words(values: usize, width: u32) -> u64 {
        values.div_ceil(64 / width.next_power_of_two() as usize) as u64
    }

    /// AND words of the carry tree over `leaves` decomposed values, level by
    /// level: 63 → 32 → … → 1 nodes, `2·pairs − 1` live bits per value.
    fn carry_words(leaves: usize) -> u64 {
        let mut words = 0;
        let mut nodes = 63u32;
        while nodes > 1 {
            words += level_words(leaves, 2 * (nodes / 2) - 1);
            nodes = nodes / 2 + nodes % 2;
        }
        words
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

    /// `eq` AND words for `m` pairs: the halving fold, 32, 16, …, 1 bits.
    fn eq_words(m: usize) -> u64 {
        EQ_FOLDS.iter().map(|&w| level_words(m, w)).sum()
    }

    #[test]
    fn bit_and_tallies_follow_the_gate_count() {
        // 704 = (3 + 2 + 1 + 1 + 1 + 1 carry words + 2 sign words) × 64.
        assert_eq!(64 * lt_words(1), 704);
        assert_eq!(64 * eq_words(1), 384);
        assert_eq!(64 * lt_words(640), 241_280);
        assert_eq!(64 * eq_words(640), 40_320);
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
                assert_eq!(lt.circuit_rounds, 9);
                assert_eq!(eq.equalities, m as u64);
                assert_eq!(eq.bit_ands, 64 * eq_words(m), "eq gates for batch {m}");
                assert_eq!(eq.circuit_rounds, 8);
            }
        }
    }

    #[test]
    fn public_operands_decompose_only_the_shared_side() {
        // 512 = (2 + 1 + 1 + 1 + 1 + 1 carry words + 1 sign word) × 64;
        // against 0, 384 = (1 + 1 + 1 + 1 + 1 + 1) × 64.
        assert_eq!(64 * lt_public_words(1, 5), 512);
        assert_eq!(64 * lt_public_words(1, 0), 384);
        assert_eq!(64 * lt_public_words(640, 5), 160_640);
        assert_eq!(64 * lt_public_words(640, 0), 80_000);
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
                        assert_eq!(n.circuit_rounds, if k == 0 { 8 } else { 9 }, "k = {k}");
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

    /// Batch sizes around which a packed level fills its wire words: the
    /// slots hold 1, 2, 4, 8, 16, 32 or 64 values, over m (`eq`) or 3m
    /// (`lt`) operands.
    const SLOT_EDGES: [usize; 12] = [1, 2, 4, 8, 16, 21, 32, 43, 64, 85, 128, 256];

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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn packed_circuits_match_the_cleartext(
            size in (0usize..SLOT_EDGES.len() + 1, 0usize..3, 1usize..301),
            seed in proptest::prelude::any::<u64>(),
        ) {
            // One draw in 13 is uniform over 1..=300; the rest sit on or
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
