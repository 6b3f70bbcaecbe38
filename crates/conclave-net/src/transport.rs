//! The [`Transport`] abstraction: typed per-party message exchange.
//!
//! The extended Conclave TR treats per-party message exchange as *the*
//! defining cost of MPC, so the real execution path needs parties that hold
//! only their own shares and communicate explicitly. This module provides the
//! interface those parties program against — [`Transport::send_tagged`],
//! [`Transport::recv_tagged`] and [`Transport::recv_from`] of typed
//! [`Envelope`]s, plus the broadcast and default-stream forms provided on top
//! of them — together with its two implementations:
//!
//! * [`ChannelTransport`] — an in-process full mesh of unbounded channels,
//!   one thread per party, for fast local multi-party runs and tests; and
//! * [`TcpTransport`] — length-prefixed frames over `std::net` TCP sockets,
//!   for real multi-process deployments (or multi-thread over localhost).
//!
//! # One frame
//!
//! A TCP frame is a fixed [`FRAME_HEADER_BYTES`]-byte header — sender, kind,
//! stream tag, label length, payload length — followed by the label and the
//! payload words. `encode_frame_into` builds it in the link's reusable write
//! buffer; `decode_frame` takes the header in one read and validates every
//! length in it before anything is allocated, then reads the body — label and
//! payload — in one read into a buffer of the size the header declared. A
//! length the header cannot carry is refused by the sender before a byte is
//! written; a timeout with no byte of a frame read is an idle, retryable
//! [`TransportError::Timeout`], while a timeout or EOF once a frame has begun
//! is not retryable — the link has lost its framing.
//!
//! Sends are full-duplex on the party's own thread. Each link is a receive
//! half (the socket plus an inbox of bytes read ahead of their frame) and a
//! send half (a clone of the socket plus the write buffer, with a
//! `SEND_SLICE` write timeout). A frame that fits in the socket buffers goes
//! out in one write. When a write would block, the sender first moves every
//! byte that has already arrived on any of its links into that link's inbox
//! without blocking, then retries, so parties that all send frames larger
//! than the socket buffers before any of them reads drain one another instead
//! of waiting forever; reads serve the inbox before the socket. A send that
//! moves no byte either way for [`DEFAULT_RECV_TIMEOUT`] is a
//! [`TransportError::Timeout`] naming the peer, and a send that fails once
//! part of its frame went out breaks the link: every later send on it returns
//! an error instead of writing a header into the middle of the torn frame.
//!
//! # Aborts
//!
//! A party that fails tells its peers with [`Transport::send_abort`]: one
//! empty [`MessageKind::Abort`] frame per link. Both transports recognise it
//! whatever stream a receive asked for and return [`TransportError::Aborted`]
//! naming the sender; from then on every receive on that link returns the
//! same error at once, frames still buffered for other streams included. So
//! a failure reaches each peer in one hop instead of after the receive
//! timeout. A receive is bounded by one deadline, however many frames for
//! other streams arrive meanwhile.
//!
//! # Logical streams
//!
//! A mesh is built **once per query** (see [`crate::Mesh`]) and shared by
//! every protocol step of the plan, so frames from different steps can be in
//! flight on one connection at the same time — e.g. a step's final open is
//! still awaiting its peers while the next step's Beaver round has already
//! been sent. Every frame therefore carries a [`StreamTag`] — a
//! `(step, stream)` pair — and receivers call [`Transport::recv_tagged`] to
//! ask for *their* exchange: a frame that arrives early for a different
//! stream is buffered per link and handed out when its exchange comes due.
//! Within one logical stream, frames still arrive in order.
//!
//! Every transport records the traffic it **sends** into a [`NetStats`]
//! (observed wire bytes, not modeled ones); merging the per-party snapshots
//! after a run yields the full per-link picture.

use crate::message::MessageKind;
use crate::stats::NetStats;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Fixed per-frame overhead charged on every message, and the TCP frame
/// header in wire order: 4 bytes sender id, 1 byte kind, 4 + 4 bytes stream
/// tag (step id, stream id), 2 bytes label length, 4 bytes payload length.
pub const FRAME_HEADER_BYTES: u64 = 19;

/// Default bound on blocking receives: a peer that stays silent this long is
/// assumed dead, so a failed party cannot hang the whole mesh.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// Upper bound on a single frame's payload length in 64-bit words (128 MiB).
/// The TCP sender refuses to frame more, and a received length above it is
/// treated as a corrupt/desynchronized stream rather than an allocation
/// request.
pub const MAX_FRAME_WORDS: usize = 1 << 24;

/// The label of every [`MessageKind::Abort`] frame.
const ABORT_LABEL: &str = "abort";

/// How long one blocking TCP `write` may wait on a full socket (its
/// `SO_SNDTIMEO`) before the sender drains its inbound links and retries.
const SEND_SLICE: Duration = Duration::from_millis(1);

/// Identifies the logical stream a frame belongs to when several protocol
/// steps multiplex one long-lived connection: the plan-level MPC step that
/// produced it plus an exchange counter within that step. Receivers match on
/// the tag ([`Transport::recv_tagged`]), so a frame that arrives early for a
/// later exchange is buffered instead of being mis-delivered to whatever
/// `recv` happens to be blocked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct StreamTag {
    /// Plan-level MPC step id.
    pub step: u32,
    /// Exchange counter within the step.
    pub stream: u32,
}

impl StreamTag {
    /// Creates a tag for stream `stream` of plan step `step`.
    pub fn new(step: u32, stream: u32) -> Self {
        StreamTag { step, stream }
    }
}

impl fmt::Display for StreamTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}.{}", self.step, self.stream)
    }
}

/// One typed message as it crosses a transport: sender, payload kind, the
/// logical stream it belongs to, a protocol-step label for tracing, and the
/// raw `Z_{2^64}` payload words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending party id.
    pub from: u32,
    /// What the payload semantically is (shares, reveal, control…).
    pub kind: MessageKind,
    /// Logical `(step, stream)` the frame belongs to.
    pub tag: StreamTag,
    /// Free-form protocol-step label (for tracing and debugging).
    pub label: String,
    /// Payload: ring elements / masked values as raw 64-bit words.
    pub payload: Vec<u64>,
}

impl Envelope {
    /// Creates an envelope on the default stream.
    pub fn new(from: u32, kind: MessageKind, label: impl Into<String>, payload: Vec<u64>) -> Self {
        Envelope::tagged(from, StreamTag::default(), kind, label, payload)
    }

    /// Creates an envelope on a specific logical stream.
    pub fn tagged(
        from: u32,
        tag: StreamTag,
        kind: MessageKind,
        label: impl Into<String>,
        payload: Vec<u64>,
    ) -> Self {
        Envelope {
            from,
            kind,
            tag,
            label: label.into(),
            payload,
        }
    }

    /// Bytes this envelope occupies on the wire (header + label + payload).
    pub fn wire_bytes(&self) -> u64 {
        FRAME_HEADER_BYTES + self.label.len() as u64 + 8 * self.payload.len() as u64
    }
}

/// Errors raised by transport operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The target/source party id is not part of this mesh (or is self).
    InvalidPeer {
        /// The offending party id.
        party: u32,
    },
    /// No message arrived from `from` within the receive timeout.
    Timeout {
        /// The party that stayed silent.
        from: u32,
    },
    /// The link to/from `party` is closed (peer dropped or socket shut down).
    Disconnected {
        /// The unreachable party.
        party: u32,
    },
    /// An I/O or framing failure (TCP transport).
    Io(String),
    /// Party `by` sent an abort frame ([`Transport::send_abort`]): it failed
    /// and will send nothing more. Sticky — every later receive from `by`
    /// returns it too. Why `by` failed is not on the wire.
    Aborted {
        /// The party that aborted.
        by: u32,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::InvalidPeer { party } => {
                write!(f, "party P{party} is not a valid peer on this transport")
            }
            TransportError::Timeout { from } => {
                write!(f, "timed out waiting for a message from P{from}")
            }
            TransportError::Disconnected { party } => {
                write!(f, "link to P{party} is disconnected")
            }
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Aborted { by } => write!(f, "P{by} aborted the computation"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}

/// Typed message exchange between the parties of one multi-party computation.
///
/// A `Transport` value is **one party's endpoint** into the mesh: it knows its
/// own id, the total party count, and how to reach every peer. Protocol code
/// holds a `&dyn Transport` and stays agnostic of whether messages move over
/// in-process channels or TCP sockets. Every frame travels on a logical
/// stream; the untagged forms are the [`StreamTag::default`] stream.
pub trait Transport: Send {
    /// This endpoint's party id (`0..parties`).
    fn party(&self) -> u32;

    /// Total number of parties in the mesh.
    fn parties(&self) -> u32;

    /// Sends a typed payload to one peer on a specific logical stream.
    fn send_tagged(
        &self,
        to: u32,
        tag: StreamTag,
        kind: MessageKind,
        label: &str,
        payload: &[u64],
    ) -> Result<(), TransportError>;

    /// Receives the next message from one peer, whatever its stream
    /// (blocking, bounded by the transport's receive timeout). Messages on
    /// one link arrive in order. Once the peer has aborted, this and
    /// [`Transport::recv_tagged`] return [`TransportError::Aborted`].
    fn recv_from(&self, from: u32) -> Result<Envelope, TransportError>;

    /// Receives the next message from `from` on the given logical stream,
    /// buffering (not discarding) frames that belong to other streams.
    fn recv_tagged(&self, from: u32, tag: StreamTag) -> Result<Envelope, TransportError>;

    /// Records one synchronous protocol round in this endpoint's statistics.
    fn record_round(&self);

    /// Snapshot of the traffic this endpoint has sent (and rounds recorded).
    fn stats(&self) -> NetStats;

    /// Sends a typed payload to one peer on the default stream.
    fn send_to(
        &self,
        to: u32,
        kind: MessageKind,
        label: &str,
        payload: &[u64],
    ) -> Result<(), TransportError> {
        self.send_tagged(to, StreamTag::default(), kind, label, payload)
    }

    /// Sends the same payload to every other party on a logical stream.
    fn send_all_tagged(
        &self,
        tag: StreamTag,
        kind: MessageKind,
        label: &str,
        payload: &[u64],
    ) -> Result<(), TransportError> {
        for p in 0..self.parties() {
            if p != self.party() {
                self.send_tagged(p, tag, kind, label, payload)?;
            }
        }
        Ok(())
    }

    /// Sends the same payload to every other party on the default stream.
    fn send_all(
        &self,
        kind: MessageKind,
        label: &str,
        payload: &[u64],
    ) -> Result<(), TransportError> {
        self.send_all_tagged(StreamTag::default(), kind, label, payload)
    }

    /// Tells every peer this party has failed: one empty
    /// [`MessageKind::Abort`] frame each, after everything already sent.
    /// Best effort — a peer that cannot be reached is skipped. Each peer's
    /// receives from this party then fail with [`TransportError::Aborted`].
    fn send_abort(&self) {
        for p in (0..self.parties()).filter(|&p| p != self.party()) {
            let _ = self.send_to(p, MessageKind::Abort, ABORT_LABEL, &[]);
        }
    }
}

/// What one link has delivered ahead of its receiver: frames for streams
/// not yet asked for, and whether the peer has aborted. An abort frame is
/// never buffered; once one has arrived, every receive on the link fails.
#[derive(Default)]
struct Inbound {
    pending: VecDeque<Envelope>,
    aborted: bool,
}

impl Inbound {
    /// Serves a receive from `from` without touching the link: the sticky
    /// abort, else the oldest buffered frame on `tag` (on any stream for
    /// `None`), else nothing.
    fn take(
        &mut self,
        from: u32,
        tag: Option<StreamTag>,
    ) -> Option<Result<Envelope, TransportError>> {
        if self.aborted {
            return Some(Err(TransportError::Aborted { by: from }));
        }
        let pos = match tag {
            Some(tag) => self.pending.iter().position(|e| e.tag == tag)?,
            None => 0,
        };
        self.pending.remove(pos).map(Ok)
    }

    /// Files a frame just read off the link: hands it back if it is on
    /// `tag` (or `tag` is `None`), turns an abort into the sticky error, and
    /// buffers anything else.
    fn file(
        &mut self,
        env: Envelope,
        tag: Option<StreamTag>,
    ) -> Result<Option<Envelope>, TransportError> {
        if env.kind == MessageKind::Abort {
            self.aborted = true;
            return Err(TransportError::Aborted { by: env.from });
        }
        if tag.is_none_or(|tag| env.tag == tag) {
            return Ok(Some(env));
        }
        self.pending.push_back(env);
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// In-process channel transport.
// ---------------------------------------------------------------------------

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

/// In-process transport: a full mesh of unbounded channels, one endpoint per
/// party, each owned by that party's thread. Build the whole mesh with
/// [`ChannelTransport::mesh`] and hand one endpoint to each thread.
pub struct ChannelTransport {
    party: u32,
    parties: u32,
    senders: Vec<Option<Sender<Envelope>>>,
    receivers: Vec<Option<Receiver<Envelope>>>,
    /// Per-link frames received ahead of their stream's turn, and aborts.
    inbound: Vec<Mutex<Inbound>>,
    stats: Mutex<NetStats>,
    timeout: Duration,
}

impl ChannelTransport {
    /// Builds a fully-connected mesh of `n` endpoints (index = party id).
    pub fn mesh(n: u32) -> Vec<ChannelTransport> {
        assert!(n >= 2, "a transport mesh needs at least two parties");
        // links[from][to] carries messages from `from` to `to`.
        let mut txs: Vec<Vec<Option<Sender<Envelope>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut rxs: Vec<Vec<Option<Receiver<Envelope>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for from in 0..n as usize {
            for to in 0..n as usize {
                if from != to {
                    let (tx, rx) = unbounded();
                    txs[from][to] = Some(tx);
                    rxs[to][from] = Some(rx);
                }
            }
        }
        txs.into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(party, (senders, receivers))| {
                let mut stats = NetStats::new();
                stats.record_mesh_build();
                ChannelTransport {
                    party: party as u32,
                    parties: n,
                    senders,
                    receivers,
                    inbound: (0..n).map(|_| Mutex::default()).collect(),
                    stats: Mutex::new(stats),
                    timeout: DEFAULT_RECV_TIMEOUT,
                }
            })
            .collect()
    }

    /// Overrides the blocking-receive timeout (default 10 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The next frame from `from` on `tag` (on any stream for `None`),
    /// buffering frames for other streams; the whole wait is bounded by one
    /// timeout.
    fn recv(&self, from: u32, tag: Option<StreamTag>) -> Result<Envelope, TransportError> {
        let receiver = self
            .receivers
            .get(from as usize)
            .and_then(|r| r.as_ref())
            .ok_or(TransportError::InvalidPeer { party: from })?;
        let inbound = &self.inbound[from as usize];
        if let Some(buffered) = inbound.lock().take(from, tag) {
            return buffered;
        }
        let deadline = Instant::now() + self.timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(TransportError::Timeout { from });
            }
            let env = receiver.recv_timeout(remaining).map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportError::Timeout { from },
                RecvTimeoutError::Disconnected => TransportError::Disconnected { party: from },
            })?;
            if let Some(env) = inbound.lock().file(env, tag)? {
                return Ok(env);
            }
        }
    }
}

impl Transport for ChannelTransport {
    fn party(&self) -> u32 {
        self.party
    }

    fn parties(&self) -> u32 {
        self.parties
    }

    fn send_tagged(
        &self,
        to: u32,
        tag: StreamTag,
        kind: MessageKind,
        label: &str,
        payload: &[u64],
    ) -> Result<(), TransportError> {
        let sender = self
            .senders
            .get(to as usize)
            .and_then(|s| s.as_ref())
            .ok_or(TransportError::InvalidPeer { party: to })?;
        let env = Envelope::tagged(self.party, tag, kind, label, payload.to_vec());
        self.stats
            .lock()
            .record(self.party, to, env.wire_bytes(), kind);
        sender
            .send(env)
            .map_err(|_| TransportError::Disconnected { party: to })
    }

    fn recv_from(&self, from: u32) -> Result<Envelope, TransportError> {
        self.recv(from, None)
    }

    fn recv_tagged(&self, from: u32, tag: StreamTag) -> Result<Envelope, TransportError> {
        self.recv(from, Some(tag))
    }

    fn record_round(&self) {
        self.stats.lock().record_rounds(1);
    }

    fn stats(&self) -> NetStats {
        self.stats.lock().clone()
    }
}

// ---------------------------------------------------------------------------
// TCP transport.
// ---------------------------------------------------------------------------

/// The receive half of one TCP link: the socket, plus the bytes a blocked
/// send drained off it ahead of their frame. Reads serve the inbox first.
struct RecvHalf {
    stream: TcpStream,
    inbox: VecDeque<u8>,
}

impl RecvHalf {
    /// Moves every byte that has already arrived into the inbox without
    /// blocking, and reports whether any did.
    fn drain(&mut self) -> std::io::Result<bool> {
        let mut chunk = [0u8; 1 << 16];
        let mut moved = false;
        self.stream.set_nonblocking(true)?;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    self.inbox.extend(&chunk[..n]);
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Would block, or a failure this link's own receive meets
                // again (or the EOF it leaves behind).
                Err(_) => break,
            }
        }
        self.stream.set_nonblocking(false)?;
        Ok(moved)
    }
}

impl Read for RecvHalf {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.inbox.is_empty() {
            self.stream.read(buf)
        } else {
            self.inbox.read(buf)
        }
    }
}

/// The send half of one TCP link: a clone of the socket and its reusable
/// frame buffer (frames are encoded into `wbuf` in place, so steady-state
/// sends allocate nothing). `torn` holds why a frame was cut off mid-write;
/// the link then carries no further frame.
struct SendHalf {
    stream: TcpStream,
    wbuf: Vec<u8>,
    torn: Option<String>,
}

/// One TCP link, locked per direction so a blocked send can drain it.
struct TcpLink {
    rx: Mutex<RecvHalf>,
    tx: Mutex<SendHalf>,
}

impl TcpLink {
    fn new(stream: TcpStream) -> std::io::Result<TcpLink> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_RECV_TIMEOUT))?;
        stream.set_write_timeout(Some(SEND_SLICE))?;
        Ok(TcpLink {
            tx: Mutex::new(SendHalf {
                stream: stream.try_clone()?,
                wbuf: Vec::new(),
                torn: None,
            }),
            rx: Mutex::new(RecvHalf {
                stream,
                inbox: VecDeque::new(),
            }),
        })
    }
}

/// TCP transport: one dedicated socket per party pair (`TCP_NODELAY`, reused
/// per-link write buffers), length-prefixed binary framing, full-duplex sends
/// and blocking reads, both bounded by a timeout. Suitable for genuine
/// multi-process deployments; [`TcpTransport::localhost_mesh`] builds an
/// ephemeral-port mesh for single-machine runs and tests.
pub struct TcpTransport {
    party: u32,
    parties: u32,
    links: Vec<Option<TcpLink>>,
    /// Per-link frames received ahead of their stream's turn, and aborts.
    inbound: Vec<Mutex<Inbound>>,
    stats: Mutex<NetStats>,
    /// How long a send may move no byte in either direction.
    send_timeout: Duration,
    /// How long a receive may go on buffering frames for other streams.
    recv_timeout: Duration,
}

impl TcpTransport {
    /// Joins the mesh as `party`: accepts connections from higher-numbered
    /// parties on `listener` and connects to the lower-numbered parties at
    /// `addrs` (indexed by party id). Every party must call this
    /// concurrently; the pairwise "higher id dials lower id" rule makes the
    /// rendezvous deadlock-free, and both dialing and accepting are bounded
    /// by [`DEFAULT_RECV_TIMEOUT`] so a dead peer surfaces as an error
    /// instead of hanging the mesh. A 4-byte party-id handshake identifies
    /// each inbound connection.
    pub fn connect_mesh(
        party: u32,
        listener: TcpListener,
        addrs: &[SocketAddr],
    ) -> Result<TcpTransport, TransportError> {
        let n = addrs.len() as u32;
        if party >= n || n < 2 {
            return Err(TransportError::InvalidPeer { party });
        }
        let mut links: Vec<Option<TcpLink>> = (0..n).map(|_| None).collect();
        // Dial every lower-numbered party (their listeners are already bound).
        for peer in 0..party {
            let mut stream =
                TcpStream::connect_timeout(&addrs[peer as usize], DEFAULT_RECV_TIMEOUT)?;
            stream.write_all(&party.to_le_bytes())?;
            links[peer as usize] = Some(TcpLink::new(stream)?);
        }
        accept_peers(
            &listener,
            party,
            &mut links,
            Instant::now() + DEFAULT_RECV_TIMEOUT,
        )?;
        let mut stats = NetStats::new();
        stats.record_mesh_build();
        Ok(TcpTransport {
            party,
            parties: n,
            links,
            inbound: (0..n).map(|_| Mutex::default()).collect(),
            stats: Mutex::new(stats),
            send_timeout: DEFAULT_RECV_TIMEOUT,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
        })
    }

    /// Builds a fully-connected `n`-party mesh over ephemeral localhost
    /// ports: binds `n` listeners on `127.0.0.1:0`, then performs the
    /// pairwise rendezvous on one thread per party. Returns the endpoints
    /// ordered by party id.
    pub fn localhost_mesh(n: u32) -> Result<Vec<TcpTransport>, TransportError> {
        assert!(n >= 2, "a transport mesh needs at least two parties");
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<_>>()?;
        let mut endpoints: Vec<Option<TcpTransport>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(party, listener)| {
                    let addrs = &addrs;
                    s.spawn(move || TcpTransport::connect_mesh(party as u32, listener, addrs))
                })
                .collect();
            for (party, handle) in handles.into_iter().enumerate() {
                endpoints[party] = Some(handle.join().expect("mesh thread panicked")?);
            }
            Ok::<(), TransportError>(())
        })?;
        Ok(endpoints.into_iter().map(|e| e.expect("filled")).collect())
    }

    fn link(&self, peer: u32) -> Result<&TcpLink, TransportError> {
        self.links
            .get(peer as usize)
            .and_then(|s| s.as_ref())
            .ok_or(TransportError::InvalidPeer { party: peer })
    }
}

/// Accepts one connection from every party above `party` (of
/// `links.len()`), polling a non-blocking listener until `deadline` so that a
/// peer that never dials in is a [`TransportError::Timeout`] naming the first
/// such party, not an indefinite `accept()`.
fn accept_peers(
    listener: &TcpListener,
    party: u32,
    links: &mut [Option<TcpLink>],
    deadline: Instant,
) -> Result<(), TransportError> {
    let n = links.len() as u32;
    listener.set_nonblocking(true)?;
    for _ in party + 1..n {
        let mut stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        let silent = (party + 1..n)
                            .find(|&p| links[p as usize].is_none())
                            .expect("a party is still to accept");
                        return Err(TransportError::Timeout { from: silent });
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e.into()),
            }
        };
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(DEFAULT_RECV_TIMEOUT))?;
        let mut id = [0u8; 4];
        stream.read_exact(&mut id)?;
        let peer = u32::from_le_bytes(id);
        if peer <= party || peer >= n || links[peer as usize].is_some() {
            return Err(TransportError::Io(format!(
                "unexpected handshake from party {peer}"
            )));
        }
        links[peer as usize] = Some(TcpLink::new(stream)?);
    }
    Ok(())
}

/// Encodes one frame into `buf` (cleared first, so a per-link buffer can be
/// reused across sends) and returns its wire length in bytes. Lengths the
/// header cannot carry are refused here, before anything is written.
fn encode_frame_into(
    buf: &mut Vec<u8>,
    from: u32,
    tag: StreamTag,
    kind: MessageKind,
    label: &str,
    payload: &[u64],
) -> Result<u64, TransportError> {
    let label_len = u16::try_from(label.len()).map_err(|_| {
        TransportError::Io(format!(
            "frame label of {} bytes exceeds the {}-byte cap",
            label.len(),
            u16::MAX
        ))
    })?;
    if payload.len() > MAX_FRAME_WORDS {
        return Err(TransportError::Io(format!(
            "frame payload of {} words exceeds the {MAX_FRAME_WORDS}-word cap",
            payload.len()
        )));
    }
    buf.clear();
    buf.extend_from_slice(&from.to_le_bytes());
    buf.push(kind.code());
    buf.extend_from_slice(&tag.step.to_le_bytes());
    buf.extend_from_slice(&tag.stream.to_le_bytes());
    buf.extend_from_slice(&label_len.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(label.as_bytes());
    for word in payload {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    Ok(buf.len() as u64)
}

/// Reads one envelope frame: the fixed header, every length in it checked
/// before anything is allocated, then the label and payload in one read. The
/// peer id of the returned errors is a placeholder the caller, which knows
/// the link, substitutes.
///
/// A timeout before the first byte of a frame means the link is idle and is
/// the retryable [`TransportError::Timeout`]. Once a frame has begun, a
/// timeout or EOF leaves the stream mid-frame, so it is reported as a
/// truncated frame / disconnect that a caller must not retry past.
fn decode_frame(stream: &mut impl Read) -> Result<Envelope, TransportError> {
    let mut header = [0u8; FRAME_HEADER_BYTES as usize];
    let mut filled = 0;
    while filled < header.len() {
        match stream.read(&mut header[filled..]) {
            Ok(0) => return Err(TransportError::Disconnected { party: u32::MAX }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if filled == 0 && is_timeout(&e) => {
                return Err(TransportError::Timeout { from: u32::MAX })
            }
            Err(e) => return Err(truncated_frame(&e, "header")),
        }
    }
    let u32_at = |at: usize| {
        u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
    };
    let from = u32_at(0);
    let kind = MessageKind::from_code(header[4])
        .ok_or_else(|| TransportError::Io(format!("bad message kind code {}", header[4])))?;
    let tag = StreamTag::new(u32_at(5), u32_at(9));
    let label_len = usize::from(u16::from_le_bytes([header[13], header[14]]));
    let len = u32_at(15) as usize;
    if len > MAX_FRAME_WORDS {
        return Err(TransportError::Io(format!(
            "frame payload length {len} exceeds the {MAX_FRAME_WORDS}-word cap \
             (corrupt or desynchronized stream)"
        )));
    }
    let body_err = |e: std::io::Error| match e.kind() {
        ErrorKind::UnexpectedEof => TransportError::Disconnected { party: u32::MAX },
        _ => truncated_frame(&e, "body"),
    };
    let mut body = vec![0u8; label_len + 8 * len];
    stream.read_exact(&mut body).map_err(body_err)?;
    let (label, words) = body.split_at(label_len);
    let label = String::from_utf8(label.to_vec())
        .map_err(|_| TransportError::Io("non-UTF-8 label".into()))?;
    let payload = words
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")))
        .collect();
    Ok(Envelope {
        from,
        kind,
        tag,
        label,
        payload,
    })
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// A read failure after part of a frame was consumed: the bytes read so far
/// are gone, so the next read would start mid-frame.
fn truncated_frame(e: &std::io::Error, part: &str) -> TransportError {
    let why = if is_timeout(e) {
        "the peer stalled".to_owned()
    } else {
        e.to_string()
    };
    TransportError::Io(format!(
        "truncated frame: {why} inside the {part}; the link is desynchronized"
    ))
}

impl Transport for TcpTransport {
    fn party(&self) -> u32 {
        self.party
    }

    fn parties(&self) -> u32 {
        self.parties
    }

    fn send_tagged(
        &self,
        to: u32,
        tag: StreamTag,
        kind: MessageKind,
        label: &str,
        payload: &[u64],
    ) -> Result<(), TransportError> {
        let bytes;
        {
            let mut tx = self.link(to)?.tx.lock();
            let SendHalf { stream, wbuf, torn } = &mut *tx;
            if let Some(why) = torn {
                return Err(TransportError::Io(format!(
                    "the link to P{to} is broken: an earlier frame was cut off mid-write ({why})"
                )));
            }
            bytes = encode_frame_into(wbuf, self.party, tag, kind, label, payload)?;
            let mut written = 0;
            if let Err(e) = self.write_frame(to, stream, wbuf, &mut written) {
                if written > 0 {
                    *torn = Some(e.to_string());
                }
                return Err(e);
            }
        }
        self.stats.lock().record(self.party, to, bytes, kind);
        Ok(())
    }

    fn recv_from(&self, from: u32) -> Result<Envelope, TransportError> {
        self.recv(from, None)
    }

    fn recv_tagged(&self, from: u32, tag: StreamTag) -> Result<Envelope, TransportError> {
        self.recv(from, Some(tag))
    }

    fn record_round(&self) {
        self.stats.lock().record_rounds(1);
    }

    fn stats(&self) -> NetStats {
        self.stats.lock().clone()
    }
}

impl TcpTransport {
    /// Writes all of `frame` to `to`, counting in `written` what went out.
    /// Whenever the socket stays full for a whole [`SEND_SLICE`], every
    /// link's arrived bytes are drained into its inbox first, so a peer that
    /// is itself blocked sending to this party gets room to finish. A send
    /// that moves no byte in either direction for `send_timeout` is a
    /// [`TransportError::Timeout`] naming `to`.
    fn write_frame(
        &self,
        to: u32,
        stream: &mut TcpStream,
        frame: &[u8],
        written: &mut usize,
    ) -> Result<(), TransportError> {
        let mut last_progress = Instant::now();
        while *written < frame.len() {
            match stream.write(&frame[*written..]) {
                Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
                Ok(n) => {
                    *written += n;
                    last_progress = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_timeout(&e) => {
                    if self.drain_inboxes()? {
                        last_progress = Instant::now();
                    } else if last_progress.elapsed() >= self.send_timeout {
                        return Err(TransportError::Timeout { from: to });
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Drains every link's arrived bytes into its inbox without blocking;
    /// reports whether any moved. An endpoint is driven by its party's own
    /// thread, so these locks are free; a receive on another thread would
    /// hold one for at most one read timeout, never while it sends.
    fn drain_inboxes(&self) -> std::io::Result<bool> {
        let mut moved = false;
        for link in self.links.iter().flatten() {
            moved |= link.rx.lock().drain()?;
        }
        Ok(moved)
    }

    /// The next frame from `from` on `tag` (on any stream for `None`),
    /// buffering frames for other streams. Each read is bounded by the
    /// socket's timeout, and once `recv_timeout` has passed a frame for
    /// another stream ends the wait with a [`TransportError::Timeout`], so a
    /// peer that keeps sending on other streams cannot hold it forever.
    fn recv(&self, from: u32, tag: Option<StreamTag>) -> Result<Envelope, TransportError> {
        self.link(from)?;
        let inbound = &self.inbound[from as usize];
        if let Some(buffered) = inbound.lock().take(from, tag) {
            return buffered;
        }
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            let env = self.recv_frame(from)?;
            if let Some(env) = inbound.lock().file(env, tag)? {
                return Ok(env);
            }
            if Instant::now() >= deadline {
                return Err(TransportError::Timeout { from });
            }
        }
    }

    /// Reads the next raw frame off the `from` link, normalizing I/O errors.
    fn recv_frame(&self, from: u32) -> Result<Envelope, TransportError> {
        let mut rx = self.link(from)?.rx.lock();
        let env = decode_frame(&mut *rx).map_err(|e| match e {
            TransportError::Timeout { .. } => TransportError::Timeout { from },
            TransportError::Disconnected { .. } => TransportError::Disconnected { party: from },
            other => other,
        })?;
        if env.from != from {
            return Err(TransportError::Io(format!(
                "frame from P{} arrived on the P{from} link",
                env.from
            )));
        }
        Ok(env)
    }
}

/// Merges per-party endpoint statistics into one mesh-wide view: links are
/// summed (each endpoint records only what *it* sent, so every directed link
/// is counted exactly once) while rounds and mesh builds are taken as the
/// maximum (every party counts the same synchronous rounds, and every
/// endpoint of one mesh reports that same mesh's construction).
pub fn merge_mesh_stats<I: IntoIterator<Item = NetStats>>(endpoints: I) -> NetStats {
    let mut merged = NetStats::new();
    let mut rounds = 0;
    let mut mesh_builds = 0;
    for stats in endpoints {
        rounds = rounds.max(stats.rounds);
        mesh_builds = mesh_builds.max(stats.mesh_builds);
        let mut links_only = stats;
        links_only.rounds = 0;
        links_only.mesh_builds = 0;
        merged.merge(&links_only);
    }
    merged.rounds = rounds;
    merged.mesh_builds = mesh_builds;
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exercise_pair<T: Transport>(a: &T, b: &T) {
        a.send_to(b.party(), MessageKind::SecretShare, "x", &[1, 2, 3])
            .unwrap();
        a.send_to(b.party(), MessageKind::Control, "y", &[4])
            .unwrap();
        let first = b.recv_from(a.party()).unwrap();
        assert_eq!(first.payload, vec![1, 2, 3]);
        assert_eq!(first.kind, MessageKind::SecretShare);
        assert_eq!(first.label, "x");
        assert_eq!(first.from, a.party());
        let second = b.recv_from(a.party()).unwrap();
        assert_eq!(second.payload, vec![4]);
        b.send_to(a.party(), MessageKind::Reveal, "z", &[9])
            .unwrap();
        assert_eq!(a.recv_from(b.party()).unwrap().payload, vec![9]);
    }

    #[test]
    fn channel_mesh_delivers_in_order_and_counts_bytes() {
        let mesh = ChannelTransport::mesh(3);
        exercise_pair(&mesh[0], &mesh[1]);
        let stats = mesh[0].stats();
        // Two messages 0 -> 1: headers + labels + payloads.
        assert_eq!(stats.links[&(0, 1)].messages, 2);
        assert_eq!(
            stats.links[&(0, 1)].bytes,
            (FRAME_HEADER_BYTES + 1 + 24) + (FRAME_HEADER_BYTES + 1 + 8)
        );
        // Endpoint 0 never recorded 1 -> 0 traffic (endpoint 1 did).
        assert!(!stats.links.contains_key(&(1, 0)));
        assert_eq!(mesh[1].stats().links[&(1, 0)].messages, 1);
    }

    #[test]
    fn channel_send_all_reaches_every_peer() {
        let mesh = ChannelTransport::mesh(3);
        mesh[2]
            .send_all(MessageKind::Cleartext, "bcast", &[7, 8])
            .unwrap();
        for p in [0usize, 1] {
            assert_eq!(mesh[p].recv_from(2).unwrap().payload, vec![7, 8]);
        }
        assert_eq!(mesh[2].stats().total_messages(), 2);
    }

    #[test]
    fn channel_recv_times_out_and_rejects_bad_peers() {
        let mesh: Vec<_> = ChannelTransport::mesh(2)
            .into_iter()
            .map(|t| t.with_timeout(Duration::from_millis(5)))
            .collect();
        assert_eq!(
            mesh[0].recv_from(1),
            Err(TransportError::Timeout { from: 1 })
        );
        assert_eq!(
            mesh[0].recv_from(0),
            Err(TransportError::InvalidPeer { party: 0 })
        );
        assert!(matches!(
            mesh[0].send_to(9, MessageKind::Control, "", &[]),
            Err(TransportError::InvalidPeer { party: 9 })
        ));
    }

    #[test]
    fn channel_disconnect_is_reported() {
        let mut mesh = ChannelTransport::mesh(2);
        let b = mesh.pop().unwrap();
        drop(b);
        assert!(matches!(
            mesh[0].send_to(1, MessageKind::Control, "", &[1]),
            Err(TransportError::Disconnected { party: 1 })
        ));
    }

    #[test]
    fn rounds_are_recorded_per_endpoint_and_merged_as_max() {
        let mesh = ChannelTransport::mesh(2);
        mesh[0].record_round();
        mesh[0].record_round();
        mesh[1].record_round();
        mesh[1].record_round();
        mesh[0].send_to(1, MessageKind::Control, "r", &[1]).unwrap();
        let merged = merge_mesh_stats(mesh.iter().map(|t| t.stats()));
        assert_eq!(merged.rounds, 2, "rounds are synchronized, not summed");
        assert_eq!(merged.total_messages(), 1);
    }

    #[test]
    fn tcp_mesh_exchanges_frames_across_threads() {
        let mesh = TcpTransport::localhost_mesh(3).unwrap();
        let [t0, t1, t2]: [TcpTransport; 3] = mesh.try_into().ok().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                t0.send_to(1, MessageKind::SecretShare, "shares", &[10, 20])
                    .unwrap();
                t0.send_to(2, MessageKind::SecretShare, "shares", &[30])
                    .unwrap();
                assert_eq!(t0.recv_from(1).unwrap().payload, vec![42]);
            });
            s.spawn(|| {
                let env = t1.recv_from(0).unwrap();
                assert_eq!(env.payload, vec![10, 20]);
                assert_eq!(env.kind, MessageKind::SecretShare);
                t1.send_to(0, MessageKind::Reveal, "back", &[42]).unwrap();
            });
            s.spawn(|| {
                assert_eq!(t2.recv_from(0).unwrap().payload, vec![30]);
            });
        });
        let merged = merge_mesh_stats([t0.stats(), t1.stats(), t2.stats()]);
        assert_eq!(merged.total_messages(), 3);
        assert_eq!(merged.links[&(0, 1)].messages, 1);
        assert_eq!(merged.links[&(1, 0)].messages, 1);
    }

    /// Frames for a later stream sent *first* must not be handed to an
    /// earlier stream's receive: the transport buffers them per link and
    /// delivers each exchange by tag.
    fn exercise_stream_demux<T: Transport>(a: &T, b: &T) {
        let early = StreamTag::new(2, 0); // next step's round, sent first
        let late = StreamTag::new(1, 3); // previous step's final open
        a.send_tagged(b.party(), early, MessageKind::SecretShare, "d_e", &[7])
            .unwrap();
        a.send_tagged(b.party(), late, MessageKind::Reveal, "open", &[1, 2])
            .unwrap();
        let open = b.recv_tagged(a.party(), late).unwrap();
        assert_eq!(open.payload, vec![1, 2]);
        assert_eq!(open.tag, late);
        let beaver = b.recv_tagged(a.party(), early).unwrap();
        assert_eq!(beaver.payload, vec![7]);
        assert_eq!(beaver.tag, early);
    }

    #[test]
    fn channel_demultiplexes_concurrent_streams() {
        let mesh = ChannelTransport::mesh(2);
        exercise_stream_demux(&mesh[0], &mesh[1]);
    }

    #[test]
    fn tcp_demultiplexes_concurrent_streams() {
        let mesh = TcpTransport::localhost_mesh(2).unwrap();
        exercise_stream_demux(&mesh[0], &mesh[1]);
    }

    /// An abort reaches every peer after what was sent before it, whatever
    /// stream the peer waits on, and sticks: later receives fail at once,
    /// frames still buffered for other streams included.
    fn exercise_abort<T: Transport>(mesh: &[T]) {
        let (early, waited) = (StreamTag::new(2, 0), StreamTag::new(1, 0));
        mesh[0]
            .send_tagged(1, early, MessageKind::SecretShare, "d_e", &[7])
            .unwrap();
        mesh[0].send_abort();
        let aborted = Err(TransportError::Aborted { by: 0 });
        assert_eq!(mesh[1].recv_tagged(0, waited), aborted);
        assert_eq!(mesh[1].recv_tagged(0, early), aborted);
        assert_eq!(mesh[1].recv_from(0), aborted);
        assert_eq!(mesh[2].recv_from(0), aborted);
        // Only the aborting party's links are dead.
        mesh[2].send_to(1, MessageKind::Control, "", &[5]).unwrap();
        assert_eq!(mesh[1].recv_from(2).unwrap().payload, vec![5]);
        assert_eq!(mesh[0].stats().bytes_of_kind(MessageKind::Abort), 2 * 24);
    }

    #[test]
    fn channel_abort_reaches_every_peer_and_sticks() {
        exercise_abort(&ChannelTransport::mesh(3));
    }

    #[test]
    fn tcp_abort_reaches_every_peer_and_sticks() {
        exercise_abort(&TcpTransport::localhost_mesh(3).unwrap());
    }

    /// A peer that keeps sending frames for another stream must not hold a
    /// receive past its bound: the deadline covers the whole wait, not each
    /// frame.
    #[test]
    fn a_tcp_receive_ends_at_its_deadline_while_a_peer_floods_other_streams() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut mesh = TcpTransport::localhost_mesh(2).unwrap();
        let bound = Duration::from_millis(200);
        mesh[1].recv_timeout = bound;
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let other = StreamTag::new(9, 0);
                while !stop.load(Ordering::Relaxed) {
                    mesh[0]
                        .send_tagged(1, other, MessageKind::Control, "noise", &[1])
                        .unwrap();
                    std::thread::sleep(Duration::from_millis(3));
                }
            });
            let start = Instant::now();
            let got = mesh[1].recv_tagged(0, StreamTag::new(1, 0));
            let waited = start.elapsed();
            stop.store(true, Ordering::Relaxed);
            assert_eq!(got, Err(TransportError::Timeout { from: 0 }));
            assert!(
                waited >= bound && waited < bound + Duration::from_secs(1),
                "{waited:?}"
            );
        });
    }

    #[test]
    fn untagged_recv_still_drains_buffered_frames() {
        let mesh = ChannelTransport::mesh(2);
        let t1 = StreamTag::new(1, 0);
        let t2 = StreamTag::new(2, 0);
        mesh[0]
            .send_tagged(1, t1, MessageKind::Control, "a", &[1])
            .unwrap();
        mesh[0]
            .send_tagged(1, t2, MessageKind::Control, "b", &[2])
            .unwrap();
        // Pull the second stream first, parking the first in the buffer…
        assert_eq!(mesh[1].recv_tagged(0, t2).unwrap().payload, vec![2]);
        // …then an untagged receive must still surface the parked frame.
        assert_eq!(mesh[1].recv_from(0).unwrap().payload, vec![1]);
    }

    #[test]
    fn tcp_empty_payload_round_trips() {
        let mesh = TcpTransport::localhost_mesh(2).unwrap();
        mesh[0].send_to(1, MessageKind::Control, "", &[]).unwrap();
        let env = mesh[1].recv_from(0).unwrap();
        assert!(env.payload.is_empty());
        assert_eq!(env.wire_bytes(), FRAME_HEADER_BYTES);
    }

    #[test]
    fn an_absurd_length_is_rejected_as_a_corrupt_stream() {
        let mut wire = Vec::new();
        encode_frame_into(
            &mut wire,
            0,
            StreamTag::default(),
            MessageKind::Control,
            "",
            &[],
        )
        .unwrap();
        wire[15..19].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&mut &wire[..]).unwrap_err();
        assert!(
            matches!(&err, TransportError::Io(m) if m.contains("cap")),
            "{err}"
        );
    }

    /// Serves `rest` at most `max` bytes per read, recording the widest
    /// buffer a read asked to fill.
    struct Pinched<'a> {
        rest: &'a [u8],
        max: usize,
        widest: usize,
    }

    impl Read for Pinched<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            let n = buf.len().min(self.max);
            self.rest.read(&mut buf[..n])
        }
    }

    /// Decodes `bytes`, also returning the widest buffer a read asked to
    /// fill: the body buffer the decoder allocated from the header.
    fn decode_widest(bytes: &[u8]) -> (Result<Envelope, TransportError>, usize) {
        let mut reader = Pinched {
            rest: bytes,
            max: usize::MAX,
            widest: 0,
        };
        (decode_frame(&mut reader), reader.widest)
    }

    /// An outcome a hostile byte string may decode to: an envelope, or a
    /// framing error — never the retryable idle timeout.
    fn is_typed(decoded: &Result<Envelope, TransportError>) -> bool {
        matches!(
            decoded,
            Ok(_) | Err(TransportError::Io(_) | TransportError::Disconnected { .. })
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `decode(encode(x)) == x`, and the bytes written are the bytes the
        /// statistics charge — for any tag, kind, label and payload, the
        /// empty label and the empty payload included — also when every
        /// read returns only 1–7 bytes, so read boundaries split words.
        #[test]
        fn codec_round_trips(
            from in any::<u32>(),
            step in any::<u32>(),
            stream in any::<u32>(),
            code in 0u8..11,
            label in prop::collection::vec(32u8..127, 0..40),
            payload in prop::collection::vec(any::<u64>(), 0..300),
            max_read in 1usize..8,
        ) {
            let kind = MessageKind::from_code(code).unwrap();
            let label = String::from_utf8(label).unwrap();
            let env = Envelope::tagged(from, StreamTag::new(step, stream), kind, label, payload);
            let mut wire = Vec::new();
            let written =
                encode_frame_into(&mut wire, env.from, env.tag, env.kind, &env.label, &env.payload)
                    .unwrap();
            prop_assert_eq!(written, env.wire_bytes());
            prop_assert_eq!(wire.len() as u64, env.wire_bytes());
            let mut rest = &wire[..];
            prop_assert_eq!(decode_frame(&mut rest).unwrap(), env.clone());
            prop_assert!(rest.is_empty());
            let mut pinched = Pinched { rest: &wire, max: max_read, widest: 0 };
            prop_assert_eq!(decode_frame(&mut pinched).unwrap(), env);
            prop_assert!(pinched.rest.is_empty());
        }

        /// Hostile bytes — an arbitrary string, and a valid frame cut or with
        /// one byte flipped at every offset — decode to an envelope or a
        /// framing error, never a panic, and no buffer is sized past the
        /// header's caps. A cut frame is a disconnect, and its buffer is no
        /// larger than the frame it was cut from.
        #[test]
        fn hostile_bytes_decode_to_a_typed_error(
            noise in prop::collection::vec(any::<u64>(), 0..8),
            noise_len in 0usize..64,
            label in prop::collection::vec(32u8..127, 0..8),
            payload in prop::collection::vec(any::<u64>(), 0..24),
            flip in 1u8..u8::MAX,
        ) {
            let noise: Vec<u8> = noise.iter().flat_map(|w| w.to_le_bytes()).take(noise_len).collect();
            let cap = usize::from(u16::MAX) + 8 * MAX_FRAME_WORDS;
            let (decoded, widest) = decode_widest(&noise);
            prop_assert!(is_typed(&decoded), "{:?}", decoded);
            prop_assert!(widest <= cap);
            let label = String::from_utf8(label).unwrap();
            let mut wire = Vec::new();
            encode_frame_into(
                &mut wire, 1, StreamTag::new(2, 3), MessageKind::Reveal, &label, &payload,
            )
            .unwrap();
            for at in 0..wire.len() {
                let (decoded, widest) = decode_widest(&wire[..at]);
                prop_assert_eq!(decoded, Err(TransportError::Disconnected { party: u32::MAX }));
                prop_assert!(widest <= wire.len());
                let mut flipped = wire.clone();
                flipped[at] ^= flip;
                let (decoded, widest) = decode_widest(&flipped);
                prop_assert!(is_typed(&decoded), "{:?}", decoded);
                prop_assert!(widest <= cap);
            }
        }
    }

    /// A connected localhost socket pair; the reading side gives up after
    /// 50 ms of silence.
    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (reader, _) = listener.accept().unwrap();
        reader
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        (writer, reader)
    }

    #[test]
    fn only_a_timeout_between_frames_is_retryable() {
        let (mut writer, mut reader) = loopback_pair();
        // An idle link: nothing of a frame was consumed, polling again is safe.
        assert_eq!(
            decode_frame(&mut reader),
            Err(TransportError::Timeout { from: u32::MAX })
        );
        // Half a header, then a stall: those bytes are gone, so the error
        // must not read as an idle poll.
        let mut wire = Vec::new();
        encode_frame_into(
            &mut wire,
            0,
            StreamTag::default(),
            MessageKind::Control,
            "x",
            &[7],
        )
        .unwrap();
        writer.write_all(&wire[..9]).unwrap();
        let err = decode_frame(&mut reader).unwrap_err();
        assert!(
            matches!(&err, TransportError::Io(m) if m.contains("truncated frame")),
            "{err}"
        );
        // The same once the header is in and the body stalls…
        let (mut writer, mut reader) = loopback_pair();
        writer.write_all(&wire[..wire.len() - 3]).unwrap();
        let err = decode_frame(&mut reader).unwrap_err();
        assert!(
            matches!(&err, TransportError::Io(m) if m.contains("truncated frame")),
            "{err}"
        );
        // …and a peer that hangs up mid-frame is a disconnect, not a timeout.
        let (mut writer, mut reader) = loopback_pair();
        writer.write_all(&wire[..9]).unwrap();
        drop(writer);
        assert_eq!(
            decode_frame(&mut reader),
            Err(TransportError::Disconnected { party: u32::MAX })
        );
    }

    /// A frame begun in the inbox is as begun as one begun on the socket:
    /// only an empty inbox over an idle socket is a retryable timeout, and
    /// bytes a blocked send drained decode before anything on the socket.
    #[test]
    fn a_frame_begun_in_the_inbox_is_not_an_idle_poll() {
        let mut wire = Vec::new();
        encode_frame_into(
            &mut wire,
            0,
            StreamTag::default(),
            MessageKind::Control,
            "x",
            &[7],
        )
        .unwrap();
        let (mut writer, reader) = loopback_pair();
        let mut rx = RecvHalf {
            stream: reader,
            inbox: VecDeque::new(),
        };
        assert_eq!(
            decode_frame(&mut rx),
            Err(TransportError::Timeout { from: u32::MAX })
        );
        for part in [&wire[..9], &wire[..wire.len() - 3]] {
            rx.inbox.extend(part);
            let err = decode_frame(&mut rx).unwrap_err();
            assert!(
                matches!(&err, TransportError::Io(m) if m.contains("truncated frame")),
                "{err}"
            );
        }
        // Two frames arrive; a drain takes them off the socket, and they
        // decode from the inbox in order.
        writer.write_all(&wire).unwrap();
        writer.write_all(&wire).unwrap();
        let start = Instant::now();
        while rx.inbox.len() < 2 * wire.len() {
            rx.drain().unwrap();
            assert!(start.elapsed() < Duration::from_secs(5), "nothing arrived");
        }
        for _ in 0..2 {
            assert_eq!(decode_frame(&mut rx).unwrap().payload, vec![7]);
        }
        assert!(rx.inbox.is_empty());
    }

    /// Every party sends one frame larger than loopback socket buffers take
    /// (with Linux's usual caps, a 4 MiB send buffer plus a 32 MiB receive
    /// buffer) before any party reads — the shape of every `Round` — and the
    /// round completes. Parties run on detached threads joined through a
    /// deadline, so a deadlock fails the test instead of hanging it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "40 MB frames; run with --release")]
    fn a_round_of_frames_larger_than_the_socket_buffers_completes() {
        const WORDS: u64 = 5 << 20;
        let (done, finished) = std::sync::mpsc::channel();
        let parties: Vec<_> = TcpTransport::localhost_mesh(2)
            .unwrap()
            .into_iter()
            .map(|net| {
                let done = done.clone();
                std::thread::spawn(move || {
                    let tag = StreamTag::new(1, 0);
                    let mine = u64::from(net.party());
                    let frame: Vec<u64> = (0..WORDS).map(|w| w ^ mine).collect();
                    net.send_all_tagged(tag, MessageKind::SecretShare, "big", &frame)
                        .unwrap();
                    let env = net.recv_tagged(1 - net.party(), tag).unwrap();
                    let theirs = u64::from(env.from);
                    assert_eq!(env.payload.len() as u64, WORDS);
                    assert!(env.payload.iter().zip(0..).all(|(&w, i)| w == i ^ theirs));
                    done.send(()).unwrap();
                })
            })
            .collect();
        drop(done);
        for _ in &parties {
            finished
                .recv_timeout(Duration::from_secs(30))
                .expect("round did not complete");
        }
        for party in parties {
            party.join().unwrap();
        }
    }

    /// A peer that never reads: once the buffers are full the send moves no
    /// byte either way, so it fails within the bound, naming the peer — and
    /// with part of its frame out, every later send on that link is refused
    /// rather than framed into the middle of the torn one.
    #[test]
    fn a_send_to_a_peer_that_never_reads_times_out_and_breaks_the_link() {
        let mut mesh = TcpTransport::localhost_mesh(2).unwrap();
        let bound = Duration::from_millis(100);
        mesh[0].send_timeout = bound;
        let big = vec![7u64; 2 << 20];
        let start = Instant::now();
        assert_eq!(
            mesh[0].send_to(1, MessageKind::SecretShare, "big", &big),
            Err(TransportError::Timeout { from: 1 })
        );
        let waited = start.elapsed();
        assert!(
            waited >= bound && waited < Duration::from_secs(2),
            "{waited:?}"
        );
        let err = mesh[0]
            .send_to(1, MessageKind::Control, "next", &[1])
            .unwrap_err();
        assert!(
            matches!(&err, TransportError::Io(m) if m.contains("cut off mid-write")),
            "{err}"
        );
        assert_eq!(mesh[0].stats().total_messages(), 0);
    }

    #[test]
    fn the_first_party_that_never_dials_in_is_named() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // Of three parties, P2 dials P0 in; P1 never does.
        let mut p2 = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        p2.write_all(&2u32.to_le_bytes()).unwrap();
        let mut links: Vec<Option<TcpLink>> = (0..3).map(|_| None).collect();
        let deadline = Instant::now() + Duration::from_millis(50);
        let err = accept_peers(&listener, 0, &mut links, deadline).unwrap_err();
        assert_eq!(err, TransportError::Timeout { from: 1 });
        assert_eq!(err.to_string(), "timed out waiting for a message from P1");
        assert!(links[2].is_some());
    }

    #[test]
    fn tcp_sender_refuses_lengths_it_cannot_frame() {
        let mesh = TcpTransport::localhost_mesh(2).unwrap();
        let too_long = vec![0u64; MAX_FRAME_WORDS + 1];
        let err = mesh[0]
            .send_to(1, MessageKind::SecretShare, "big", &too_long)
            .unwrap_err();
        assert!(
            matches!(&err, TransportError::Io(m) if m.contains(&MAX_FRAME_WORDS.to_string())),
            "{err}"
        );
        let label = "l".repeat(usize::from(u16::MAX) + 1);
        let err = mesh[0]
            .send_to(1, MessageKind::Control, &label, &[1])
            .unwrap_err();
        assert!(
            matches!(&err, TransportError::Io(m) if m.contains("65535")),
            "{err}"
        );
        // Not a byte of either went out: nothing was charged, and the link
        // still frames the next message correctly.
        assert_eq!(mesh[0].stats().total_messages(), 0);
        let longest = "l".repeat(usize::from(u16::MAX));
        mesh[0]
            .send_to(1, MessageKind::Control, &longest, &[2])
            .unwrap();
        let env = mesh[1].recv_from(0).unwrap();
        assert_eq!((env.label, env.payload), (longest, vec![2]));
    }

    #[test]
    fn envelope_wire_bytes_counts_header_label_and_payload() {
        let env = Envelope::new(0, MessageKind::Control, "ab", vec![1, 2]);
        assert_eq!(env.wire_bytes(), FRAME_HEADER_BYTES + 2 + 16);
    }

    #[test]
    fn error_display() {
        assert!(TransportError::InvalidPeer { party: 3 }
            .to_string()
            .contains("P3"));
        assert!(TransportError::Timeout { from: 1 }
            .to_string()
            .contains("P1"));
        assert!(TransportError::Disconnected { party: 2 }
            .to_string()
            .contains("P2"));
        assert!(TransportError::Io("boom".into())
            .to_string()
            .contains("boom"));
        assert!(TransportError::Aborted { by: 4 }
            .to_string()
            .contains("P4 aborted"));
    }
}
