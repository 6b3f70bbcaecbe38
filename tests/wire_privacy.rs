//! Wire-privacy regression test for the comparison circuits.
//!
//! The pre-circuit party runtime "compared" shared values by broadcasting
//! both operands' shares and letting every party sum them up — so a passive
//! observer on the wire could reconstruct every compared column value by
//! element-wise summing the broadcasts of one logical stream across its
//! senders. This suite mounts exactly that attack through a sniffing
//! [`Transport`] wrapper: it runs lt/eq/sort over secret sentinel values and
//! asserts that no envelope payload — taken raw, summed across senders, or
//! XOR-combined across senders — ever contains a secret operand. On the
//! pre-circuit runtime the summed reconstruction recovers the operands and
//! the test fails; on the circuit path everything that crosses the wire is
//! either a share or a uniformly-masked value.
//!
//! The last case pins a hole that is still open: meshes built from one
//! configuration deal the same input masks, so an observer of two sessions
//! reads the difference of their inputs.

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

mod common;

use common::{SniffTransport, SniffedFrame};
use conclave::mpc::dealer::{serve_party, DealerSource};
use conclave::mpc::runtime::{share_relation, sort_by, PartyResult, PartySession, StepCtx};
use conclave::mpc::{AuthShare, CmpArg, RingElem};
use conclave::net::{ChannelTransport, MessageKind, StreamTag, Transport};
use conclave::prelude::*;
use std::sync::{Arc, Mutex};

/// Distinctive operand sentinels: values a uniformly-masked word matches
/// with probability 2^-64, so any hit in the capture is a leak.
const SECRETS_X: [i64; 4] = [
    123_456_789_123_456_789,
    -987_654_321_987_654_321,
    444_555_666_777_888_999,
    -111_222_333_444_555_666,
];
const SECRETS_Y: [i64; 4] = [
    135_791_357_913_579_135,
    -246_802_468_024_680_246,
    444_555_666_777_888_999, // equal pair against SECRETS_X[2]
    999_888_777_666_555_444,
];

/// The public bound the sentinels are compared against.
const PUBLIC_K: i64 = 1_000_000_007;

/// Runs lt/eq/sort over the sentinels on a sniffed 3-party mesh and returns
/// the complete wire capture plus the (correct) opened comparison bits.
fn capture_comparison_traffic() -> (Vec<SniffedFrame>, Vec<Vec<i64>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mesh: Vec<SniffTransport> = ChannelTransport::mesh(3)
        .into_iter()
        .map(|inner| SniffTransport {
            inner,
            log: Arc::clone(&log),
        })
        .collect();
    let opened = std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|t| {
                s.spawn(move || -> PartyResult<Vec<i64>> {
                    let mut sess = PartySession::new(&t, 2024);
                    let mut proto = sess.step(0);
                    program(&mut proto)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("party panicked").expect("party failed"))
            .collect::<Vec<_>>()
    });
    let frames = log.lock().unwrap().clone();
    (frames, opened)
}

/// The party program: share the sentinels, compare them (lt + eq, and each
/// x against the public [`PUBLIC_K`] from both sides), sort a relation keyed
/// by them, and open **only the comparison bits** — the operands themselves
/// stay shared, so nothing on the wire may expose them.
fn program(proto: &mut StepCtx) -> PartyResult<Vec<i64>> {
    let own0 = proto.party() == 0;
    let own1 = proto.party() == 1;
    let sx = proto.input_column(0, own0.then_some(SECRETS_X.as_slice()), SECRETS_X.len())?;
    let sy = proto.input_column(1, own1.then_some(SECRETS_Y.as_slice()), SECRETS_Y.len())?;
    let pairs: Vec<(AuthShare, AuthShare)> = sx.iter().copied().zip(sy.iter().copied()).collect();
    let lt = proto.lt_batch(&pairs)?;
    let eq = proto.eq_batch(&pairs)?;
    let k = CmpArg::Public(PUBLIC_K);
    let bounded: Vec<(CmpArg<AuthShare>, CmpArg<AuthShare>)> = sx
        .iter()
        .map(|&x| (x.into(), k))
        .chain(sx.iter().map(|&x| (k, x.into())))
        .collect();
    let public_lt = proto.lt_batch(&bounded)?;

    // Sort a relation keyed by the secret column; keep the result shared.
    let rel = Relation::from_ints(
        &["s"],
        &SECRETS_X.iter().map(|&v| vec![v]).collect::<Vec<_>>(),
    );
    let shared = share_relation(
        proto,
        0,
        own0.then_some(&rel),
        &Schema::ints(&["s"]),
        SECRETS_X.len(),
    )?;
    let sorted = sort_by(proto, &shared, "s", true)?;
    assert_eq!(sorted.num_rows(), SECRETS_X.len());

    let mut bits = lt;
    bits.extend(eq);
    bits.extend(public_lt);
    proto.open_column(&bits)
}

/// Every u64 bit pattern that would constitute an operand leak: the
/// operands, and the second leaf x − k of each comparison against the
/// public bound (`x < k` decomposes x − k, `k < x` decomposes x − (k + 1)).
fn secret_patterns() -> Vec<u64> {
    let leaves = SECRETS_X
        .iter()
        .flat_map(|&x| [x - PUBLIC_K, x - (PUBLIC_K + 1)]);
    SECRETS_X
        .iter()
        .chain(SECRETS_Y.iter())
        .copied()
        .chain(leaves)
        .map(|v| RingElem::from_i64(v).0)
        .collect()
}

/// Every difference of two distinct operands: what two words opened under
/// one shared mask differ by.
fn difference_patterns() -> Vec<u64> {
    let operands: Vec<i64> = SECRETS_X.iter().chain(SECRETS_Y.iter()).copied().collect();
    let mut diffs = Vec::new();
    for &a in &operands {
        for &b in &operands {
            if a != b {
                diffs.push(RingElem::from_i64(a.wrapping_sub(b)).0);
            }
        }
    }
    diffs
}

#[test]
fn comparison_traffic_never_carries_operands() {
    let (frames, opened) = capture_comparison_traffic();
    assert!(!frames.is_empty(), "the sniffer must observe traffic");

    // Sanity: the protocol still computes the right answers.
    let mut expected: Vec<i64> = SECRETS_X
        .iter()
        .zip(&SECRETS_Y)
        .map(|(&x, &y)| i64::from(x < y))
        .collect();
    expected.extend(
        SECRETS_X
            .iter()
            .zip(&SECRETS_Y)
            .map(|(&x, &y)| i64::from(x == y)),
    );
    expected.extend(SECRETS_X.iter().map(|&x| i64::from(x < PUBLIC_K)));
    expected.extend(SECRETS_X.iter().map(|&x| i64::from(PUBLIC_K < x)));
    for out in &opened {
        assert_eq!(out, &expected);
    }

    let patterns = secret_patterns();

    // Attack 1: raw payload scan — no frame may carry an operand verbatim.
    for f in &frames {
        for w in &f.payload {
            assert!(
                !patterns.contains(w),
                "raw payload of P{} on {:?} contains a secret operand",
                f.from,
                f.tag
            );
        }
    }

    // Attack 2: cross-sender reconstruction.
    assert_no_cross_sender_reconstruction(&frames, &patterns);

    // Attack 3: two opened words of one exchange, subtracted. Each shared
    // value has a mask of its own, so the difference is uniform; a mask
    // reused across two operands would open their difference.
    assert_no_shared_mask(&frames, &difference_patterns());
}

/// Reconstructs each exchange by summing its senders' words and requires
/// that no two of its words differ by a pattern.
fn assert_no_shared_mask(frames: &[SniffedFrame], diffs: &[u64]) {
    for (tag, opened) in reconstructed_sums(frames) {
        for (i, &a) in opened.iter().enumerate() {
            for &b in &opened[i + 1..] {
                assert!(
                    !diffs.contains(&a.wrapping_sub(b)) && !diffs.contains(&b.wrapping_sub(a)),
                    "two words opened on {tag:?} differ by an operand difference: \
                     one mask masked two shared values"
                );
            }
        }
    }
}

/// Per stream tag, one contribution per sender (broadcasts repeat the same
/// words to every receiver).
fn per_sender_payloads(frames: &[SniffedFrame]) -> Vec<(StreamTag, Vec<&[u64]>)> {
    let mut tags: Vec<StreamTag> = frames.iter().map(|f| f.tag).collect();
    tags.sort_unstable_by_key(|t| format!("{t:?}"));
    tags.dedup();
    tags.into_iter()
        .map(|tag| {
            let mut per_sender: Vec<(u32, &[u64])> = Vec::new();
            for f in frames.iter().filter(|f| f.tag == tag) {
                if !per_sender.iter().any(|(from, _)| *from == f.from) {
                    per_sender.push((f.from, &f.payload));
                }
            }
            (tag, per_sender.into_iter().map(|(_, p)| p).collect())
        })
        .collect()
}

/// Per stream tag, the senders' words summed element-wise: the value an
/// additive exchange opens.
fn reconstructed_sums(frames: &[SniffedFrame]) -> Vec<(StreamTag, Vec<u64>)> {
    per_sender_payloads(frames)
        .into_iter()
        .map(|(tag, payloads)| {
            let len = payloads.iter().map(|p| p.len()).max().unwrap_or(0);
            let sums = (0..len)
                .map(|i| {
                    payloads
                        .iter()
                        .fold(0u64, |s, p| s.wrapping_add(p.get(i).copied().unwrap_or(0)))
                })
                .collect();
            (tag, sums)
        })
        .collect()
}

/// Reconstruction attack: broadcast exchanges send each party's words to
/// every peer on one logical stream, so an observer holds every sender's
/// contribution per stream tag. Element-wise summing them is exactly how the
/// pre-circuit runtime's comparison openings reconstruct (additive shares);
/// XOR-combining covers the binary-shared exchanges.
fn assert_no_cross_sender_reconstruction(frames: &[SniffedFrame], patterns: &[u64]) {
    for (tag, per_sender) in per_sender_payloads(frames) {
        let len = per_sender.iter().map(|p| p.len()).max().unwrap_or(0);
        for i in 0..len {
            let mut sum = 0u64;
            let mut xor = 0u64;
            for payload in &per_sender {
                let w = payload.get(i).copied().unwrap_or(0);
                sum = sum.wrapping_add(w);
                xor ^= w;
            }
            assert!(
                !patterns.contains(&sum),
                "summing senders' words on {tag:?} reconstructs a secret operand \
                 (the pre-circuit comparison leak)"
            );
            assert!(
                !patterns.contains(&xor),
                "xor-combining senders' words on {tag:?} reconstructs a secret operand"
            );
        }
    }
}

/// The party program of the dealer-stream sniff: party 0 feeds the sentinels
/// through dealer input masks (δ = x − r broadcast), the mesh compares them
/// pairwise, and only the comparison bits are opened.
fn dealer_program(proto: &mut StepCtx) -> PartyResult<Vec<i64>> {
    let own0 = proto.party() == 0;
    let sx = proto.input_column(0, own0.then_some(SECRETS_X.as_slice()), SECRETS_X.len())?;
    let rev: Vec<AuthShare> = sx.iter().rev().copied().collect();
    let pairs: Vec<(AuthShare, AuthShare)> = sx.iter().copied().zip(rev).collect();
    let lt = proto.lt_batch(&pairs)?;
    proto.open_column(&lt)
}

/// Runs a streamed-dealer session on a sniffed 3-party mesh, additionally
/// tapping the dedicated dealer links of the two **non-owning** parties.
/// The owner's own dealer link stays private — it delivers the owner's clear
/// input masks and the model treats it exactly as secret as the owner's
/// memory. Returns (mesh capture, per-link dealer capture, opened bits).
#[allow(clippy::type_complexity)]
fn capture_dealer_traffic() -> (Vec<SniffedFrame>, Vec<(u32, SniffedFrame)>, Vec<Vec<i64>>) {
    let mesh_log = Arc::new(Mutex::new(Vec::new()));
    let mesh: Vec<SniffTransport> = ChannelTransport::mesh(3)
        .into_iter()
        .map(|inner| SniffTransport {
            inner,
            log: Arc::clone(&mesh_log),
        })
        .collect();
    let mut link_logs: Vec<(u32, Arc<Mutex<Vec<SniffedFrame>>>)> = Vec::new();
    let opened = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (i, t) in mesh.into_iter().enumerate() {
            let mut ends = ChannelTransport::mesh(2).into_iter();
            let party_end = ends.next().unwrap();
            let dealer_end = ends.next().unwrap();
            let link_log = Arc::new(Mutex::new(Vec::new()));
            if i != 0 {
                link_logs.push((i as u32, Arc::clone(&link_log)));
            }
            let party = i as u32;
            s.spawn(move || {
                // The observer taps the dealer's side of every non-owner
                // link: all block payloads (triples, masks, daBits) that the
                // dealer ships to parties 1 and 2 land in the capture.
                let tapped = SniffTransport {
                    inner: dealer_end,
                    log: link_log,
                };
                serve_party(&tapped, party, 3, 4242).expect("dealer server failed");
            });
            handles.push(s.spawn(move || -> PartyResult<Vec<i64>> {
                let link: Box<dyn Transport> = Box::new(party_end);
                let mut sess = PartySession::with_dealer(
                    &t,
                    2024,
                    DealerSource::Streamed { link, dealer: 1 },
                )?;
                let mut proto = sess.step(0);
                dealer_program(&mut proto)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("party panicked").expect("party failed"))
            .collect::<Vec<_>>()
    });
    let mesh_frames = mesh_log.lock().unwrap().clone();
    let dealer_frames: Vec<(u32, SniffedFrame)> = link_logs
        .iter()
        .flat_map(|(p, log)| {
            let frames = log.lock().unwrap().clone();
            frames.into_iter().map(move |f| (*p, f))
        })
        .collect();
    (mesh_frames, dealer_frames, opened)
}

/// Sniffing the dealer stream: an observer who taps the whole online mesh
/// **plus** the dealer links of every non-owning party still cannot recover
/// party 0's inputs. The input broadcast is δ = x − r where the clear mask
/// `r` travels only on the owner's private dealer link; the tapped links
/// carry the other parties' *shares* of `r` (plus their triple/daBit
/// blocks), and no combination — raw, summed per stream, XORed, or δ
/// recombined with any tapped word or any same-position pair across the two
/// tapped links — yields an operand.
#[test]
fn dealer_stream_traffic_never_exposes_inputs() {
    let (mesh_frames, dealer_frames, opened) = capture_dealer_traffic();
    assert!(!mesh_frames.is_empty(), "the sniffer must observe the mesh");
    assert!(
        dealer_frames
            .iter()
            .map(|(_, f)| f.payload.len())
            .sum::<usize>()
            > 0,
        "the sniffer must observe dealer blocks"
    );

    // Sanity: the protocol still computes the right answers.
    let expected: Vec<i64> = (0..SECRETS_X.len())
        .map(|i| i64::from(SECRETS_X[i] < SECRETS_X[SECRETS_X.len() - 1 - i]))
        .collect();
    for out in &opened {
        assert_eq!(out, &expected);
    }

    let patterns = secret_patterns();

    // Attack 1: raw payload scan over everything captured.
    for f in mesh_frames
        .iter()
        .chain(dealer_frames.iter().map(|(_, f)| f))
    {
        for w in &f.payload {
            assert!(
                !patterns.contains(w),
                "raw captured payload (kind {:?}) contains a secret operand",
                f.kind
            );
        }
    }

    // Attack 2: cross-sender reconstruction on the online mesh.
    assert_no_cross_sender_reconstruction(&mesh_frames, &patterns);

    // Attack 3: δ recombination. The only SecretShare frames this program
    // broadcasts are the input offsets δ = x − r; combine each δ word with
    // every tapped dealer word (x = δ + r would need the owner's clear r).
    let deltas: Vec<u64> = mesh_frames
        .iter()
        .filter(|f| f.kind == MessageKind::SecretShare)
        .flat_map(|f| f.payload.iter().copied())
        .collect();
    assert!(!deltas.is_empty(), "the input broadcast must be captured");
    for &d in &deltas {
        for (_, f) in &dealer_frames {
            for &r in &f.payload {
                assert!(!patterns.contains(&d.wrapping_add(r)));
                assert!(!patterns.contains(&d.wrapping_sub(r)));
            }
        }
    }
    // Colluding taps: same-position words across the two tapped links (the
    // non-owners' shares of the same dealt element) still miss the owner's
    // share of r.
    let by_link = |p: u32| -> Vec<&SniffedFrame> {
        dealer_frames
            .iter()
            .filter(|(lp, _)| *lp == p)
            .map(|(_, f)| f)
            .collect()
    };
    let (l1, l2) = (by_link(1), by_link(2));
    for (f1, f2) in l1.iter().zip(&l2) {
        for (w1, w2) in f1.payload.iter().zip(&f2.payload) {
            let pair = w1.wrapping_add(*w2);
            for &d in &deltas {
                assert!(!patterns.contains(&d.wrapping_add(pair)));
                assert!(!patterns.contains(&d.wrapping_sub(pair)));
            }
        }
    }
}

/// Party 0's input broadcast (the δ words of its first `input_column`) on a
/// fresh sniffed channel mesh whose parties deal from `seed` — as every
/// worker of a `PartyMeshRuntime` built from one `ConclaveConfig` does
/// (`config.mpc.seed` → `PartySession::with_dealer(.., Seeded)` →
/// `DealerStream::new(seed, ..)`).
fn input_broadcast(seed: u64, inputs: &[i64]) -> Vec<u64> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mesh: Vec<SniffTransport> = ChannelTransport::mesh(3)
        .into_iter()
        .map(|inner| SniffTransport {
            inner,
            log: Arc::clone(&log),
        })
        .collect();
    std::thread::scope(|s| {
        let parties: Vec<_> = mesh
            .into_iter()
            .map(|t| {
                s.spawn(move || -> PartyResult<()> {
                    let mut sess = PartySession::new(&t, seed);
                    let mut proto = sess.step(0);
                    let own = (proto.party() == 0).then_some(inputs);
                    proto.input_column(0, own, inputs.len())?;
                    Ok(())
                })
            })
            .collect();
        for party in parties {
            party.join().expect("party panicked").expect("party failed");
        }
    });
    let frames = log.lock().unwrap().clone();
    frames
        .into_iter()
        .find(|f| f.from == 0 && f.kind == MessageKind::SecretShare)
        .expect("the owner broadcasts its input offsets")
        .payload
}

/// Pinned open (SECURITY.md, "Masks repeat across meshes"): two meshes
/// built from one configuration deal the same input masks r. Two one-shot
/// sessions of the same query therefore broadcast δ₁ = x₁ − r and
/// δ₂ = x₂ − r, and an observer of both wires reads δ₁ − δ₂ = x₁ − x₂
/// without any share — and all of x₂ once x₁ is known. This test asserts
/// the leak; when every mesh deals from a nonce of its own, it must flip.
#[test]
fn meshes_of_one_configuration_repeat_their_input_masks() {
    let seed = ConclaveConfig::standard().with_channel_runtime().mpc.seed;
    let first = input_broadcast(seed, &SECRETS_X);
    let second = input_broadcast(seed, &SECRETS_Y);
    assert_eq!(first.len(), SECRETS_X.len());
    for ((x1, x2), (d1, d2)) in SECRETS_X
        .iter()
        .zip(&SECRETS_Y)
        .zip(first.iter().zip(&second))
    {
        // Each broadcast alone is masked...
        assert_ne!(*d1, RingElem::from_i64(*x1).0);
        // ...but the two share one mask: their difference is the inputs'.
        assert_eq!(
            d1.wrapping_sub(*d2),
            RingElem::from_i64(x1.wrapping_sub(*x2)).0,
            "the two meshes drew different masks: flip this pin"
        );
    }
}
