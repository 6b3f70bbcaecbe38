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

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

mod common;

use common::{SniffTransport, SniffedFrame};
use conclave::mpc::dealer::{serve_party, DealerSource};
use conclave::mpc::runtime::{share_relation, sort_by, PartyResult, PartySession, StepCtx};
use conclave::mpc::{AuthShare, RingElem};
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

/// The party program: share the sentinels, compare them (lt + eq), sort a
/// relation keyed by them, and open **only the comparison bits** — the
/// operands themselves stay shared, so nothing on the wire may expose them.
fn program(proto: &mut StepCtx) -> PartyResult<Vec<i64>> {
    let own0 = proto.party() == 0;
    let own1 = proto.party() == 1;
    let sx = proto.input_column(0, own0.then_some(SECRETS_X.as_slice()), SECRETS_X.len())?;
    let sy = proto.input_column(1, own1.then_some(SECRETS_Y.as_slice()), SECRETS_Y.len())?;
    let pairs: Vec<(AuthShare, AuthShare)> = sx.iter().copied().zip(sy.iter().copied()).collect();
    let lt = proto.lt_batch(&pairs)?;
    let eq = proto.eq_batch(&pairs)?;

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
    proto.open_column(&bits)
}

/// Every u64 bit pattern that would constitute an operand leak.
fn secret_patterns() -> Vec<u64> {
    SECRETS_X
        .iter()
        .chain(SECRETS_Y.iter())
        .map(|&v| RingElem::from_i64(v).0)
        .collect()
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
}

/// Reconstruction attack: broadcast exchanges send each party's words to
/// every peer on one logical stream, so an observer holds every sender's
/// contribution per stream tag. Element-wise summing them is exactly how the
/// pre-circuit runtime's comparison openings reconstruct (additive shares);
/// XOR-combining covers the binary-shared exchanges.
fn assert_no_cross_sender_reconstruction(frames: &[SniffedFrame], patterns: &[u64]) {
    let mut tags: Vec<StreamTag> = frames.iter().map(|f| f.tag).collect();
    tags.sort_unstable_by_key(|t| format!("{t:?}"));
    tags.dedup();
    for tag in tags {
        // One contribution per sender (broadcasts repeat the same words to
        // every receiver).
        let mut per_sender: Vec<(u32, &[u64])> = Vec::new();
        for f in frames.iter().filter(|f| f.tag == tag) {
            if !per_sender.iter().any(|(from, _)| *from == f.from) {
                per_sender.push((f.from, &f.payload));
            }
        }
        let len = per_sender.iter().map(|(_, p)| p.len()).max().unwrap_or(0);
        for i in 0..len {
            let mut sum = 0u64;
            let mut xor = 0u64;
            for (_, payload) in &per_sender {
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
