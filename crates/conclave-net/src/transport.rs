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
//! buffer and sends it with one write; `decode_frame` takes the header in one
//! read and validates every length in it before anything is allocated. A
//! length the header cannot carry is refused by the sender before a byte is
//! written; a timeout with no byte of a frame read is an idle, retryable
//! [`TransportError::Timeout`], while a timeout or EOF once a frame has begun
//! is not retryable — the link has lost its framing.
//!
//! The payload is read with one `read_exact` per 8-byte word on the
//! unbuffered socket, and that loop — not the round structure — is what
//! makes a TCP mesh ten times slower than a channel mesh on big frames
//! (ROADMAP open item 2 has the measurement and the replacement).
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
    /// one link arrive in order.
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
    /// Per-link buffers of frames received ahead of their stream's turn.
    pending: Vec<Mutex<VecDeque<Envelope>>>,
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
                    pending: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
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
        let receiver = self
            .receivers
            .get(from as usize)
            .and_then(|r| r.as_ref())
            .ok_or(TransportError::InvalidPeer { party: from })?;
        if let Some(env) = self.pending[from as usize].lock().pop_front() {
            return Ok(env);
        }
        receiver.recv_timeout(self.timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::Timeout { from },
            RecvTimeoutError::Disconnected => TransportError::Disconnected { party: from },
        })
    }

    fn recv_tagged(&self, from: u32, tag: StreamTag) -> Result<Envelope, TransportError> {
        let receiver = self
            .receivers
            .get(from as usize)
            .and_then(|r| r.as_ref())
            .ok_or(TransportError::InvalidPeer { party: from })?;
        {
            let mut pending = self.pending[from as usize].lock();
            if let Some(pos) = pending.iter().position(|e| e.tag == tag) {
                return Ok(pending.remove(pos).expect("position just found"));
            }
        }
        let deadline = Instant::now() + self.timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(TransportError::Timeout { from });
            }
            match receiver.recv_timeout(remaining) {
                Ok(env) if env.tag == tag => return Ok(env),
                Ok(env) => self.pending[from as usize].lock().push_back(env),
                Err(RecvTimeoutError::Timeout) => return Err(TransportError::Timeout { from }),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(TransportError::Disconnected { party: from })
                }
            }
        }
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

/// One directed TCP link plus its reusable frame write buffer: frames are
/// encoded into `wbuf` in place, so steady-state sends allocate nothing.
struct TcpLink {
    stream: TcpStream,
    wbuf: Vec<u8>,
}

impl TcpLink {
    fn new(stream: TcpStream) -> Mutex<TcpLink> {
        Mutex::new(TcpLink {
            stream,
            wbuf: Vec::new(),
        })
    }
}

/// TCP transport: one dedicated socket per party pair (`TCP_NODELAY`, reused
/// per-link write buffers), length-prefixed binary framing, blocking reads
/// bounded by a timeout. Suitable for genuine multi-process deployments;
/// [`TcpTransport::localhost_mesh`] builds an ephemeral-port mesh for
/// single-machine runs and tests.
pub struct TcpTransport {
    party: u32,
    parties: u32,
    links: Vec<Option<Mutex<TcpLink>>>,
    /// Per-link buffers of frames received ahead of their stream's turn.
    pending: Vec<Mutex<VecDeque<Envelope>>>,
    stats: Mutex<NetStats>,
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
        let mut streams: Vec<Option<Mutex<TcpLink>>> = (0..n).map(|_| None).collect();
        // Dial every lower-numbered party (their listeners are already bound).
        for peer in 0..party {
            let mut stream =
                TcpStream::connect_timeout(&addrs[peer as usize], DEFAULT_RECV_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.write_all(&party.to_le_bytes())?;
            stream.set_read_timeout(Some(DEFAULT_RECV_TIMEOUT))?;
            streams[peer as usize] = Some(TcpLink::new(stream));
        }
        // Accept one connection from every higher-numbered party, polling a
        // non-blocking listener so a peer that never dials in produces a
        // Timeout error rather than an indefinite accept().
        listener.set_nonblocking(true)?;
        let deadline = std::time::Instant::now() + DEFAULT_RECV_TIMEOUT;
        for _ in party + 1..n {
            let mut stream = loop {
                match listener.accept() {
                    Ok((stream, _)) => break stream,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if std::time::Instant::now() >= deadline {
                            return Err(TransportError::Timeout { from: u32::MAX });
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e.into()),
                }
            };
            stream.set_nonblocking(false)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(DEFAULT_RECV_TIMEOUT))?;
            let mut id = [0u8; 4];
            stream.read_exact(&mut id)?;
            let peer = u32::from_le_bytes(id);
            if peer <= party || peer >= n || streams[peer as usize].is_some() {
                return Err(TransportError::Io(format!(
                    "unexpected handshake from party {peer}"
                )));
            }
            streams[peer as usize] = Some(TcpLink::new(stream));
        }
        let mut stats = NetStats::new();
        stats.record_mesh_build();
        Ok(TcpTransport {
            party,
            parties: n,
            links: streams,
            pending: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            stats: Mutex::new(stats),
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

    fn link(&self, peer: u32) -> Result<&Mutex<TcpLink>, TransportError> {
        self.links
            .get(peer as usize)
            .and_then(|s| s.as_ref())
            .ok_or(TransportError::InvalidPeer { party: peer })
    }
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

/// Reads one envelope frame: the fixed header in one read, every length in
/// it checked before anything is allocated, then the label and the payload
/// words. The peer id of the returned errors is a placeholder the caller,
/// which knows the link, substitutes.
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
    let mut label = vec![0u8; label_len];
    stream.read_exact(&mut label).map_err(body_err)?;
    let label =
        String::from_utf8(label).map_err(|_| TransportError::Io("non-UTF-8 label".into()))?;
    let mut payload = Vec::with_capacity(len);
    let mut word = [0u8; 8];
    for _ in 0..len {
        stream.read_exact(&mut word).map_err(body_err)?;
        payload.push(u64::from_le_bytes(word));
    }
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
            let mut link = self.link(to)?.lock();
            let TcpLink { stream, wbuf } = &mut *link;
            bytes = encode_frame_into(wbuf, self.party, tag, kind, label, payload)?;
            stream.write_all(wbuf)?;
            stream.flush()?;
        }
        self.stats.lock().record(self.party, to, bytes, kind);
        Ok(())
    }

    fn recv_from(&self, from: u32) -> Result<Envelope, TransportError> {
        self.link(from)?;
        if let Some(env) = self.pending[from as usize].lock().pop_front() {
            return Ok(env);
        }
        self.recv_frame(from)
    }

    fn recv_tagged(&self, from: u32, tag: StreamTag) -> Result<Envelope, TransportError> {
        self.link(from)?;
        {
            let mut pending = self.pending[from as usize].lock();
            if let Some(pos) = pending.iter().position(|e| e.tag == tag) {
                return Ok(pending.remove(pos).expect("position just found"));
            }
        }
        loop {
            let env = self.recv_frame(from)?;
            if env.tag == tag {
                return Ok(env);
            }
            self.pending[from as usize].lock().push_back(env);
        }
    }

    fn record_round(&self) {
        self.stats.lock().record_rounds(1);
    }

    fn stats(&self) -> NetStats {
        self.stats.lock().clone()
    }
}

impl TcpTransport {
    /// Reads the next raw frame off the `from` link, normalizing I/O errors.
    fn recv_frame(&self, from: u32) -> Result<Envelope, TransportError> {
        let mut link = self.link(from)?.lock();
        let env = decode_frame(&mut link.stream).map_err(|e| match e {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `decode(encode(x)) == x`, and the bytes written are the bytes the
        /// statistics charge — for any tag, kind, label and payload, the
        /// empty label and the empty payload included.
        #[test]
        fn codec_round_trips(
            from in any::<u32>(),
            step in any::<u32>(),
            stream in any::<u32>(),
            code in 0u8..10,
            label in prop::collection::vec(32u8..127, 0..40),
            payload in prop::collection::vec(any::<u64>(), 0..300),
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
            prop_assert_eq!(decode_frame(&mut rest).unwrap(), env);
            prop_assert!(rest.is_empty());
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
    }
}
