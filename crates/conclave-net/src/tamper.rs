//! Active-adversary fault injection: a [`Transport`] wrapper that corrupts
//! selected frames on the receive path.
//!
//! The MAC-authenticated online phase (`conclave-mpc::runtime`) claims that a
//! network adversary who modifies, drops or replays any online message cannot
//! cause a wrong value to be accepted — the deferred `check_integrity` aborts
//! instead. That claim needs a falsifier: [`TamperingTransport`] wraps any
//! real transport and applies one programmable [`Fault`] to the first frame
//! matching a [`FaultSpec`] predicate (message kind, sender, plan step,
//! label, nth match). Integration suites wrap a whole mesh with
//! [`TamperingTransport::wrap_mesh`] and assert that the query aborts — and
//! that the *unauthenticated* runtime accepts the forged opening silently.
//!
//! Faults are applied on the **receive** path, after the inner transport's
//! stream demultiplexing, so the wrapper models a man-in-the-middle on one
//! directed link: the sender's statistics still record the honest bytes, and
//! only the receiving endpoint observes the corruption.

use crate::message::MessageKind;
use crate::stats::NetStats;
use crate::transport::{Envelope, StreamTag, Transport, TransportError};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The corruption applied to a matching envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// XORs `mask` into every payload word. The induced additive error
    /// depends on the payload bits, so independent receivers end up with
    /// *different* wrong values.
    FlipBits {
        /// Bit mask XOR-ed into each payload word.
        mask: u64,
    },
    /// Adds `delta` (wrapping) to every payload word. The induced error is
    /// payload-independent, so coordinated offsets across all receivers of
    /// one share exchange shift every party's reconstruction by the same
    /// amount — a *consistent* wrong opening that cross-party equality
    /// checks cannot see.
    Offset {
        /// Value wrapping-added to each payload word.
        delta: u64,
    },
    /// Discards the envelope: the receiver keeps waiting for a frame that
    /// never arrives and surfaces a timeout.
    Drop,
    /// Delivers the envelope, then replays a copy of it in place of the
    /// peer's next frame (a replay/desynchronization attack).
    Duplicate,
}

/// Predicate selecting which received envelope a [`Fault`] applies to. All
/// `Option` fields are conjunctive filters (`None` matches anything); `skip`
/// passes over that many matching frames first, so a test can target "the
/// third Beaver opening" precisely. Exactly **one** frame is tampered per
/// transport.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Only envelopes of this kind match (`None`: any kind).
    pub kind: Option<MessageKind>,
    /// Only envelopes from this sender match (`None`: any sender).
    pub from: Option<u32>,
    /// Only envelopes whose stream tag belongs to this plan step match.
    pub step: Option<u32>,
    /// Only envelopes whose label contains this substring match.
    pub label_contains: Option<String>,
    /// Number of matching envelopes delivered intact before the fault fires.
    pub skip: usize,
    /// The corruption to apply to the selected envelope.
    pub fault: Fault,
}

impl FaultSpec {
    /// A spec that tampers the first envelope of any kind from any sender.
    pub fn new(fault: Fault) -> Self {
        FaultSpec {
            kind: None,
            from: None,
            step: None,
            label_contains: None,
            skip: 0,
            fault,
        }
    }

    /// Restricts the fault to envelopes of `kind`.
    pub fn kind(mut self, kind: MessageKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Restricts the fault to envelopes sent by `from`.
    pub fn from(mut self, from: u32) -> Self {
        self.from = Some(from);
        self
    }

    /// Restricts the fault to envelopes on plan step `step`.
    pub fn step(mut self, step: u32) -> Self {
        self.step = Some(step);
        self
    }

    /// Restricts the fault to envelopes whose label contains `needle`.
    pub fn label_contains(mut self, needle: impl Into<String>) -> Self {
        self.label_contains = Some(needle.into());
        self
    }

    /// Passes over the first `skip` matching envelopes before tampering.
    pub fn skip(mut self, skip: usize) -> Self {
        self.skip = skip;
        self
    }

    fn matches(&self, env: &Envelope) -> bool {
        self.kind.is_none_or(|k| env.kind == k)
            && self.from.is_none_or(|f| env.from == f)
            && self.step.is_none_or(|s| env.tag.step == s)
            && self
                .label_contains
                .as_ref()
                .is_none_or(|n| env.label.contains(n))
    }
}

struct TamperState {
    spec: Option<FaultSpec>,
    seen: usize,
    done: bool,
    /// Per-peer queues of duplicated envelopes awaiting replay.
    replay: Vec<VecDeque<Envelope>>,
}

/// A [`Transport`] wrapper that applies one programmable [`Fault`] to the
/// first received envelope matching a [`FaultSpec`]. With no spec it is a
/// transparent pass-through, so equivalence suites can wrap unconditionally.
pub struct TamperingTransport<T: Transport> {
    inner: T,
    state: Mutex<TamperState>,
    fired: Arc<AtomicBool>,
}

impl<T: Transport> TamperingTransport<T> {
    /// Wraps `inner` as a transparent pass-through (no fault configured).
    pub fn passthrough(inner: T) -> Self {
        Self::build(inner, None)
    }

    /// Wraps `inner` and arms it with `spec`.
    pub fn with_fault(inner: T, spec: FaultSpec) -> Self {
        Self::build(inner, Some(spec))
    }

    fn build(inner: T, spec: Option<FaultSpec>) -> Self {
        let peers = inner.parties() as usize;
        TamperingTransport {
            inner,
            state: Mutex::new(TamperState {
                spec,
                seen: 0,
                done: false,
                replay: (0..peers).map(|_| VecDeque::new()).collect(),
            }),
            fired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Wraps every endpoint of a mesh, arming endpoint `i` with
    /// `spec_for(i)` (or leaving it a pass-through on `None`). Coordinated
    /// attacks — e.g. a consistent additive offset at every receiver — are
    /// expressed by returning a per-party spec.
    pub fn wrap_mesh(
        mesh: Vec<T>,
        mut spec_for: impl FnMut(u32) -> Option<FaultSpec>,
    ) -> Vec<TamperingTransport<T>> {
        mesh.into_iter()
            .map(|t| {
                let spec = spec_for(t.party());
                Self::build(t, spec)
            })
            .collect()
    }

    /// Whether this endpoint's fault has fired (a matching frame was seen
    /// and corrupted). Tests use this to assert the attack actually landed
    /// before requiring an abort.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// A shareable handle onto the fired flag, for inspecting an endpoint
    /// after it has been moved into a party thread.
    pub fn fired_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.fired)
    }

    /// Applies the armed fault if `env` is the selected frame. Returns
    /// `None` when the frame is dropped.
    fn intercept(&self, env: Envelope) -> Option<Envelope> {
        let mut st = self.state.lock();
        let Some(spec) = st.spec.as_ref() else {
            return Some(env);
        };
        if st.done || !spec.matches(&env) {
            return Some(env);
        }
        if st.seen < spec.skip {
            st.seen += 1;
            return Some(env);
        }
        let fault = spec.fault;
        st.done = true;
        self.fired.store(true, Ordering::SeqCst);
        match fault {
            Fault::FlipBits { mask } => {
                let mut env = env;
                for w in &mut env.payload {
                    *w ^= mask;
                }
                Some(env)
            }
            Fault::Offset { delta } => {
                let mut env = env;
                for w in &mut env.payload {
                    *w = w.wrapping_add(delta);
                }
                Some(env)
            }
            Fault::Drop => None,
            Fault::Duplicate => {
                st.replay[env.from as usize].push_back(env.clone());
                Some(env)
            }
        }
    }

    fn take_replay(&self, from: u32) -> Option<Envelope> {
        self.state.lock().replay[from as usize].pop_front()
    }
}

impl<T: Transport> Transport for TamperingTransport<T> {
    fn party(&self) -> u32 {
        self.inner.party()
    }

    fn parties(&self) -> u32 {
        self.inner.parties()
    }

    fn send_tagged(
        &self,
        to: u32,
        tag: StreamTag,
        kind: MessageKind,
        label: &str,
        payload: &[u64],
    ) -> Result<(), TransportError> {
        self.inner.send_tagged(to, tag, kind, label, payload)
    }

    fn recv_from(&self, from: u32) -> Result<Envelope, TransportError> {
        if let Some(env) = self.take_replay(from) {
            return Ok(env);
        }
        loop {
            let env = self.inner.recv_from(from)?;
            if let Some(env) = self.intercept(env) {
                return Ok(env);
            }
            // Dropped: keep waiting for the peer's next frame (or time out).
        }
    }

    fn recv_tagged(&self, from: u32, tag: StreamTag) -> Result<Envelope, TransportError> {
        if let Some(env) = self.take_replay(from) {
            return Ok(env);
        }
        loop {
            let env = self.inner.recv_tagged(from, tag)?;
            if let Some(env) = self.intercept(env) {
                return Ok(env);
            }
        }
    }

    fn record_round(&self) {
        self.inner.record_round();
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::transport::ChannelTransport;
    use std::time::Duration;

    fn pair() -> Vec<ChannelTransport> {
        ChannelTransport::mesh(2)
            .into_iter()
            .map(|t| t.with_timeout(Duration::from_millis(20)))
            .collect()
    }

    #[test]
    fn passthrough_delivers_unchanged() {
        let mut mesh = pair();
        let b = TamperingTransport::passthrough(mesh.pop().unwrap());
        let a = mesh.pop().unwrap();
        a.send_to(1, MessageKind::Reveal, "open", &[1, 2, 3])
            .unwrap();
        let env = b.recv_from(0).unwrap();
        assert_eq!(env.payload, vec![1, 2, 3]);
        assert!(!b.fired());
    }

    #[test]
    fn flip_bits_hits_only_the_selected_frame() {
        let mut mesh = pair();
        let spec = FaultSpec::new(Fault::FlipBits { mask: 0xFF })
            .kind(MessageKind::Reveal)
            .skip(1);
        let b = TamperingTransport::with_fault(mesh.pop().unwrap(), spec);
        let a = mesh.pop().unwrap();
        a.send_to(1, MessageKind::Control, "ctl", &[5]).unwrap();
        a.send_to(1, MessageKind::Reveal, "open", &[10]).unwrap();
        a.send_to(1, MessageKind::Reveal, "open", &[10]).unwrap();
        a.send_to(1, MessageKind::Reveal, "open", &[10]).unwrap();
        assert_eq!(b.recv_from(0).unwrap().payload, vec![5]); // wrong kind
        assert_eq!(b.recv_from(0).unwrap().payload, vec![10]); // skipped
        assert_eq!(b.recv_from(0).unwrap().payload, vec![10 ^ 0xFF]); // tampered
        assert!(b.fired());
        assert_eq!(b.recv_from(0).unwrap().payload, vec![10]); // one-shot
    }

    #[test]
    fn offset_wraps_every_word() {
        let mut mesh = pair();
        let spec = FaultSpec::new(Fault::Offset { delta: 7 });
        let b = TamperingTransport::with_fault(mesh.pop().unwrap(), spec);
        let a = mesh.pop().unwrap();
        a.send_to(1, MessageKind::Reveal, "open", &[u64::MAX, 1])
            .unwrap();
        assert_eq!(b.recv_from(0).unwrap().payload, vec![6, 8]);
    }

    #[test]
    fn drop_surfaces_as_timeout() {
        let mut mesh = pair();
        let spec = FaultSpec::new(Fault::Drop).label_contains("open");
        let b = TamperingTransport::with_fault(mesh.pop().unwrap(), spec);
        let a = mesh.pop().unwrap();
        a.send_to(1, MessageKind::Reveal, "open", &[1]).unwrap();
        assert_eq!(b.recv_from(0), Err(TransportError::Timeout { from: 0 }));
        assert!(b.fired());
    }

    #[test]
    fn duplicate_replays_the_frame_before_the_next_one() {
        let mut mesh = pair();
        let spec = FaultSpec::new(Fault::Duplicate).from(0);
        let b = TamperingTransport::with_fault(mesh.pop().unwrap(), spec);
        let a = mesh.pop().unwrap();
        let t1 = StreamTag::new(1, 0);
        let t2 = StreamTag::new(1, 1);
        a.send_tagged(1, t1, MessageKind::Reveal, "open", &[11])
            .unwrap();
        a.send_tagged(1, t2, MessageKind::Reveal, "open", &[22])
            .unwrap();
        assert_eq!(b.recv_tagged(0, t1).unwrap().payload, vec![11]);
        // The replayed copy of the first frame shadows the second exchange:
        // its stale tag is exactly the desynchronization the protocol layer
        // must refuse to accept.
        let replay = b.recv_tagged(0, t2).unwrap();
        assert_eq!(replay.tag, t1);
        assert_eq!(replay.payload, vec![11]);
    }

    #[test]
    fn wrap_mesh_arms_per_party_specs() {
        let mesh = TamperingTransport::wrap_mesh(pair(), |p| {
            (p == 1).then(|| FaultSpec::new(Fault::Offset { delta: 1 }))
        });
        mesh[0]
            .send_to(1, MessageKind::Reveal, "open", &[1])
            .unwrap();
        mesh[1]
            .send_to(0, MessageKind::Reveal, "open", &[1])
            .unwrap();
        assert_eq!(mesh[0].recv_from(1).unwrap().payload, vec![1]);
        assert_eq!(mesh[1].recv_from(0).unwrap().payload, vec![2]);
    }
}
