//! TCP: reliable byte streams over the simulated network.
//!
//! A real windowed TCP, not a fluid model: three-way handshake, MSS
//! segmentation, cumulative ACKs, RTT estimation (RFC 6298), slow start
//! and congestion avoidance, fast retransmit on three duplicate ACKs,
//! exponential RTO backoff, receiver flow control with a fixed
//! advertised window (`RECV_WINDOW`, the 85.3 KB default window of
//! the paper's iperf run), and FIN/RST teardown.
//!
//! Each connection state owns the data that exists in it: a
//! `SendWindow` from the first SYN on, a `ReceiveWindow` once the
//! peer's SYN is in, and in TIME-WAIT only the deadline and the two
//! sequence numbers its ACKs carry. No state keeps received bytes past
//! the segment that makes them in order (see [`TcpEvent::Data`]).
//!
//! Every tuning value is a constant: each experiment in the paper
//! measures one stack, so no caller sets them.
//!
//! The layer is embedded in a host ([`crate::host::Host`]). It never
//! touches the event queue directly; it accumulates outgoing packets,
//! application events and timer requests which the host drains after
//! each call — keeping this module purely about protocol state.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::fx::FxHashMap;
use crate::packet::{Packet, Payload, TcpFlags, TcpSegment};
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use std::net::IpAddr;

/// Connection 4-tuple: (local addr, local port, remote addr, remote port).
type ConnKey = (IpAddr, u16, IpAddr, u16);

/// The send buffer: the chunks the application handed to
/// [`TcpLayer::send`], in order, starting at `snd_una`.
///
/// Chunks are kept as the application's own [`Bytes`], so queueing
/// data copies nothing and a segment that lies inside one chunk is a
/// zero-copy slice of it. Only a segment that straddles a chunk
/// boundary is copied.
#[derive(Default)]
struct SendBuf {
    /// Non-empty chunks, oldest first.
    chunks: VecDeque<Bytes>,
    /// Total bytes across `chunks`.
    len: usize,
}

impl SendBuf {
    /// Bytes buffered (unacknowledged plus unsent).
    fn len(&self) -> usize {
        self.len
    }

    /// Appends a chunk (empty chunks are not stored).
    fn push(&mut self, data: Bytes) {
        if !data.is_empty() {
            self.len += data.len();
            self.chunks.push_back(data);
        }
    }

    /// Releases the first `n` bytes (all of them if `n` exceeds the
    /// buffer): whole chunks are dropped, a partial one is re-sliced.
    fn consume(&mut self, n: usize) {
        let mut n = n.min(self.len);
        self.len -= n;
        while n > 0 {
            let Some(front) = self.chunks.front_mut() else {
                break;
            };
            if front.len() > n {
                *front = front.slice(n..);
                break;
            }
            n -= front.len();
            self.chunks.pop_front();
        }
    }

    /// The `len` bytes starting `off` bytes past the front. A range
    /// inside one chunk shares that chunk's storage; a range across
    /// chunks is copied.
    fn range(&self, off: usize, len: usize) -> Bytes {
        assert!(
            off + len <= self.len,
            "range {off}+{len} past buffer of {}",
            self.len
        );
        let mut chunks = self.chunks.iter();
        let mut skip = off;
        while let Some(first) = chunks.next() {
            if skip >= first.len() {
                skip -= first.len();
                continue;
            }
            if skip + len <= first.len() {
                return first.slice(skip..skip + len);
            }
            let mut copy = Vec::with_capacity(len);
            copy.extend_from_slice(&first[skip..]);
            for c in chunks {
                let need = len - copy.len();
                if need == 0 {
                    break;
                }
                copy.extend_from_slice(&c[..need.min(c.len())]);
            }
            return Bytes::from(copy);
        }
        Bytes::new()
    }

    /// Checks that `len` is the sum of the chunk lengths and that no
    /// chunk is empty.
    fn check(&self) -> Result<(), String> {
        if let Some(i) = self.chunks.iter().position(Bytes::is_empty) {
            return Err(format!("send buffer chunk {i} is empty"));
        }
        let sum: usize = self.chunks.iter().map(Bytes::len).sum();
        if sum != self.len {
            return Err(format!(
                "send buffer counts {} bytes, chunks hold {sum}",
                self.len
            ));
        }
        Ok(())
    }
}

/// Identifies a socket within one host's TCP layer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SockId(pub usize);

/// Events the TCP layer reports to applications (via the host).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TcpEvent {
    /// Active open completed.
    Connected(SockId),
    /// A listener accepted a new connection.
    Accepted {
        /// The port the listener was bound to.
        listener_port: u16,
        /// The newly created connection socket.
        sock: SockId,
    },
    /// The bytes one arriving segment made in order: the segment's own
    /// payload (no copy), or, when it fills a hole, that payload joined
    /// with the queued segments it releases, in one buffer.
    Data(SockId, Bytes),
    /// The peer closed its direction. Every byte before its FIN came in
    /// a `Data` event before this one.
    PeerClosed(SockId),
    /// The connection is fully closed and the socket released.
    Closed(SockId),
    /// Active open failed (RST or SYN retransmission exhausted).
    ConnectFailed(SockId),
    /// The connection was reset by the peer.
    Reset(SockId),
}

/// Maximum segment size (payload bytes per packet).
const MSS: usize = 1448;
/// Advertised receive window in bytes: the paper's 85.3 KB default.
const RECV_WINDOW: u32 = 87_347;
/// Initial congestion window in segments.
const INIT_CWND_SEGMENTS: u64 = 10;
/// Initial retransmission timeout.
const RTO_INITIAL: SimDuration = SimDuration::from_millis(1000);
/// Lower bound on the RTO.
const RTO_MIN: SimDuration = SimDuration::from_millis(200);
/// Upper bound on the backed-off RTO.
const RTO_MAX: SimDuration = SimDuration::from_secs(60);
/// SYN retransmissions before an active open gives up.
const SYN_RETRIES: u32 = 5;
/// Retransmissions of one flight before the connection is reset.
const RTX_RETRIES: u32 = 15;
/// How long TIME-WAIT lingers (2×MSL, shortened for simulations).
const TIME_WAIT: SimDuration = SimDuration::from_millis(500);

fn segment(key: &ConnKey, seq: u32, ack: u32, flags: TcpFlags, data: Bytes) -> Packet {
    Packet::new(
        key.0,
        key.2,
        Payload::Tcp(TcpSegment {
            src_port: key.1,
            dst_port: key.3,
            seq,
            ack,
            flags,
            window: RECV_WINDOW,
            data,
            gso_mss: 0,
        }),
    )
}

/// The RFC 6298 round-trip estimate.
#[derive(Clone, Copy)]
enum Rtt {
    /// No segment has been timed yet.
    Unmeasured,
    /// Smoothed RTT and its mean deviation, in ns.
    Measured { srtt: f64, rttvar: f64 },
}

/// Our FIN, from the application's close until the peer acknowledges it.
#[derive(Clone, Copy)]
enum Fin {
    Queued,
    /// Sent with this sequence number.
    Sent(u32),
}

struct SendWindow {
    /// Oldest unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// Bytes awaiting ACK or transmission, starting at `snd_una`.
    buf: SendBuf,
    /// Peer's advertised window.
    snd_wnd: u32,
    /// Congestion window (bytes).
    cwnd: u64,
    /// Slow-start threshold (bytes).
    ssthresh: u64,
    dup_acks: u32,
    rtt: Rtt,
    rto: SimDuration,
    /// One outstanding RTT sample: (seq that must be acked, send time).
    rtt_sample: Option<(u32, SimTime)>,
    /// The retransmission timer, when armed: (due time, timeouts since
    /// everything was last acknowledged).
    rtx: Option<(SimTime, u32)>,
}

impl SendWindow {
    fn new(snd_una: u32, snd_nxt: u32, snd_wnd: u32) -> Self {
        SendWindow {
            snd_una,
            snd_nxt,
            buf: SendBuf::default(),
            snd_wnd,
            cwnd: INIT_CWND_SEGMENTS * MSS as u64,
            ssthresh: u64::MAX / 2,
            dup_acks: 0,
            rtt: Rtt::Unmeasured,
            rto: RTO_INITIAL,
            rtt_sample: None,
            rtx: None,
        }
    }

    fn flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    fn arm(&mut self, now: SimTime) -> SimDuration {
        let retries = self.rtx.map_or(0, |(_, retries)| retries);
        self.rtx = Some((now + self.rto, retries));
        self.rto
    }

    /// Takes an ACK of new data up to `ack`, and of our FIN if `fin_acked`.
    fn acked(&mut self, ack: u32, fin_acked: bool, now: SimTime) {
        let data_acked = ack.wrapping_sub(self.snd_una) as usize - usize::from(fin_acked);
        self.buf.consume(data_acked);
        self.snd_una = ack;
        self.dup_acks = 0;
        // RTT sample (Karn: only for non-retransmitted data).
        if let Some((sample_seq, sent_at)) = self.rtt_sample {
            if seq_le(sample_seq, ack) {
                self.update_rtt(now.since(sent_at));
                self.rtt_sample = None;
            }
        }
        // Congestion window growth.
        if self.cwnd < self.ssthresh {
            self.cwnd += (data_acked as u64).min(MSS as u64);
        } else {
            self.cwnd += (MSS as u64 * MSS as u64 / self.cwnd.max(1)).max(1);
        }
    }

    /// RFC 6298 SRTT/RTTVAR update.
    fn update_rtt(&mut self, sample: SimDuration) {
        let r = sample.as_nanos() as f64;
        let (srtt, rttvar) = match self.rtt {
            Rtt::Unmeasured => (r, r / 2.0),
            Rtt::Measured { srtt, rttvar } => (
                0.875 * srtt + 0.125 * r,
                0.75 * rttvar + 0.25 * (srtt - r).abs(),
            ),
        };
        self.rtt = Rtt::Measured { srtt, rttvar };
        self.rto = SimDuration::from_nanos((srtt + 4.0 * rttvar) as u64).max(RTO_MIN);
    }

    /// Sends as much buffered data as windows allow, one MSS-sized
    /// segment per packet; sends a queued `fin` when the buffer drains.
    /// Returns whether anything went out.
    ///
    /// Each segment's payload is [`SendBuf::range`]: a zero-copy slice
    /// of the application's chunk unless the segment straddles two
    /// chunks.
    fn output(
        &mut self,
        fin: Option<&mut Fin>,
        key: &ConnKey,
        ack: u32,
        now: SimTime,
        out: &mut Vec<Packet>,
    ) -> bool {
        let before = out.len();
        let queued = matches!(fin, Some(Fin::Queued));
        let flight = self.flight() as usize;
        let wnd = self.cwnd.min(u64::from(self.snd_wnd));
        // When a FIN is in flight the buffer offset excludes it.
        let mut off = flight.min(self.buf.len());
        let mut budget = match fin {
            Some(Fin::Sent(_)) => 0,
            _ => (self.buf.len() - off).min(wnd.saturating_sub(flight as u64) as usize),
        };
        let mut fin_seq = None;
        while budget > 0 {
            let take = budget.min(MSS);
            // Piggyback FIN on the last segment if closing and this
            // drains the buffer.
            let mut flags = TcpFlags::ACK;
            flags.fin = queued && off + take == self.buf.len();
            let pkt = segment(key, self.snd_nxt, ack, flags, self.buf.range(off, take));
            self.snd_nxt = self.snd_nxt.wrapping_add(take as u32);
            if flags.fin {
                fin_seq = Some(self.snd_nxt);
                self.snd_nxt = self.snd_nxt.wrapping_add(1);
            }
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((self.snd_nxt, now));
            }
            out.push(pkt);
            off += take;
            budget -= take;
        }
        // Bare FIN (no data left to carry it).
        if queued && fin_seq.is_none() && off == self.buf.len() {
            out.push(segment(
                key,
                self.snd_nxt,
                ack,
                TcpFlags::FIN_ACK,
                Bytes::new(),
            ));
            fin_seq = Some(self.snd_nxt);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
        }
        if let (Some(fin), Some(seq)) = (fin, fin_seq) {
            *fin = Fin::Sent(seq);
        }
        out.len() > before
    }

    /// Retransmits the first unacknowledged segment. It carries `ctl`
    /// (SYN, SYN-ACK or FIN-ACK) only if it ends the buffer and that
    /// control's sequence number is in flight after the data.
    fn retransmit_head(&self, ctl: TcpFlags, key: &ConnKey, ack: u32, out: &mut Vec<Packet>) {
        let take = self.buf.len().min(MSS);
        let tail = take == self.buf.len() && self.flight() as usize == take + 1;
        let flags = if tail { ctl } else { TcpFlags::ACK };
        let data = self.buf.range(0, take);
        out.push(segment(key, self.snd_una, ack, flags, data));
    }

    /// The send-side invariants; `ctl` is the unacknowledged SYN or FIN.
    fn check(&self, ctl: u32) -> Result<(), String> {
        if !seq_le(self.snd_una, self.snd_nxt) {
            return Err(format!(
                "snd_una {} is past snd_nxt {}",
                self.snd_una, self.snd_nxt
            ));
        }
        self.buf.check()?;
        match self.flight().checked_sub(ctl) {
            Some(data) if data as usize <= self.buf.len() => Ok(()),
            _ => Err(format!(
                "{} sequence numbers in flight ({ctl} SYN or FIN) but {} bytes buffered",
                self.flight(),
                self.buf.len()
            )),
        }
    }
}

/// The receive side of a connection. Its sequence numbers count on from
/// the peer's ISS in 64 bits, so stream order is integer order across
/// the 32-bit wrap; segments carry the low 32 bits.
#[derive(Default)]
struct ReceiveWindow {
    rcv_nxt: u64,
    /// Out-of-order segments keyed by sequence number.
    ooo: BTreeMap<u64, Bytes>,
    /// The peer's FIN, seen ahead of `rcv_nxt`.
    fin: Option<u64>,
}

impl ReceiveWindow {
    fn new(irs: u32) -> Self {
        ReceiveWindow {
            rcv_nxt: u64::from(irs) + 1,
            ..Self::default()
        }
    }

    fn ack(&self) -> u32 {
        self.rcv_nxt as u32
    }

    /// Unwraps a `seq` that is not behind `rcv_nxt`.
    fn unwrapped(&self, seq: u32) -> u64 {
        self.rcv_nxt + u64::from(seq.wrapping_sub(self.ack()))
    }

    /// Takes a segment's data; returns the bytes it made in order, if
    /// any (what [`TcpEvent::Data`] carries).
    fn data(&mut self, seq: u32, data: Bytes) -> Option<Bytes> {
        if seq != self.ack() {
            if seq_lt(self.ack(), seq) {
                self.ooo.insert(self.unwrapped(seq), data);
            }
            return None;
        }
        // In-window check against our advertised window is skipped:
        // the sender honours it, and the sim has no renege path.
        self.rcv_nxt += data.len() as u64;
        // Drain contiguous out-of-order segments; stale or overlapping
        // ones are dropped.
        let mut joined: Option<Vec<u8>> = None;
        while let Some(entry) = self.ooo.first_entry() {
            if *entry.key() > self.rcv_nxt {
                break;
            }
            let stale = *entry.key() < self.rcv_nxt;
            let queued = entry.remove();
            if !stale {
                self.rcv_nxt += queued.len() as u64;
                joined
                    .get_or_insert_with(|| data.to_vec())
                    .extend_from_slice(&queued);
            }
        }
        Some(joined.map_or(data, Bytes::from))
    }

    /// Records a FIN at `seq` unless it is behind `rcv_nxt` (one already
    /// taken, retransmitted), then steps past the FIN if it is reached.
    /// Returns whether it was.
    fn take_fin(&mut self, seq: Option<u32>) -> bool {
        if let Some(seq) = seq.filter(|&f| !seq_lt(f, self.ack())) {
            self.fin = Some(self.unwrapped(seq));
        }
        if self.fin != Some(self.rcv_nxt) {
            return false;
        }
        self.rcv_nxt += 1;
        self.fin = None;
        true
    }

    fn check(&self) -> Result<(), String> {
        if let Some((&seq, _)) = self.ooo.first_key_value() {
            if seq <= self.rcv_nxt {
                return Err(format!(
                    "out-of-order segment at {seq} does not start after rcv_nxt {}",
                    self.rcv_nxt
                ));
            }
        }
        match self.fin {
            Some(fin) if fin < self.rcv_nxt => Err(format!(
                "peer FIN at {fin} is behind rcv_nxt {}",
                self.rcv_nxt
            )),
            _ => Ok(()),
        }
    }
}

/// The synchronized states (RFC 9293 §3.3.2).
#[derive(Clone, Copy)]
enum Phase {
    Established,
    FinWait1(Fin),
    FinWait2,
    CloseWait,
    LastAck(Fin),
    /// The peer's FIN came in while ours was unacknowledged.
    Closing(Fin),
}

impl Phase {
    fn fin(&mut self) -> Option<&mut Fin> {
        match self {
            Phase::FinWait1(fin) | Phase::LastAck(fin) | Phase::Closing(fin) => Some(fin),
            _ => None,
        }
    }
}

/// A connection's state and the data that exists in it.
enum TcpState {
    /// Our SYN is out; without the peer's ISS there is no receive
    /// window, and the SYN carries ack 0.
    SynSent { tx: SendWindow, opened_at: SimTime },
    SynReceived {
        tx: SendWindow,
        rx: ReceiveWindow,
        opened_at: SimTime,
    },
    Synced {
        tx: SendWindow,
        rx: ReceiveWindow,
        phase: Phase,
    },
    /// Both FINs are acknowledged. The socket lingers until `expiry`,
    /// re-ACKing retransmitted data with `seq` and `ack`.
    TimeWait { expiry: SimTime, seq: u32, ack: u32 },
}

struct TcpSocket {
    id: SockId,
    owner_app: usize,
    key: ConnKey,
    state: TcpState,
}

impl TcpSocket {
    /// What the application hears when the connection dies.
    fn failure(&self) -> TcpEvent {
        match self.state {
            TcpState::SynSent { .. } => TcpEvent::ConnectFailed(self.id),
            _ => TcpEvent::Reset(self.id),
        }
    }
}

/// Sequence-number comparison helpers (RFC 793 modular arithmetic).
fn seq_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}
fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// The per-host TCP layer.
pub struct TcpLayer {
    sockets: Vec<Option<TcpSocket>>,
    conn_map: FxHashMap<ConnKey, SockId>,
    /// One-entry MRU cache in front of `conn_map`: bulk transfers hit
    /// the same flow for long runs of segments.
    last_flow: Option<(ConnKey, SockId)>,
    listeners: FxHashMap<u16, usize>,
    next_ephemeral: u16,
    /// Outgoing packets accumulated for the host to flush.
    pub out: Vec<Packet>,
    /// Application events accumulated for the host to dispatch.
    pub events: Vec<(usize, TcpEvent)>,
    /// Timer requests `(delay, token)` the host must arm (owner = Tcp).
    /// Each socket has one engine timer, which the host re-arms
    /// ([`crate::Ctx::rearm_timer`]) rather than queuing a new one per
    /// request.
    pub timer_reqs: Vec<(SimDuration, u64)>,
    /// Tokens whose pending engine timer is no longer needed; the host
    /// disarms these ([`crate::Ctx::disarm_timer`]) *before* arming
    /// `timer_reqs`, so a disarm-then-rearm sequence inside one
    /// dispatch leaves the rearm live and reuses the queued entry. (An
    /// arm obsoleted later in the same dispatch just fires into the
    /// per-socket deadline checks in `on_timer`, the backstop.)
    pub cancel_reqs: Vec<u64>,
    /// Tokens of sockets released since the host last drained this;
    /// the host cancels their engine timers and forgets them, since the
    /// token may name a new socket next.
    pub released: Vec<u64>,
    /// Metric observations for the host to fold into the registry
    /// (drained each pump; purely observational).
    pub metric_evs: Vec<TcpMetric>,
}

/// A metric observation from the TCP layer, recorded by the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpMetric {
    /// Active open completed: SYN sent → Established, in sim-ns.
    ConnectNs(u64),
    /// Passive open completed: SYN received → Established, in sim-ns.
    AcceptNs(u64),
    /// A retransmission timeout fired.
    Rtx,
}

impl Default for TcpLayer {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpLayer {
    /// Creates an empty layer.
    pub fn new() -> Self {
        TcpLayer {
            sockets: Vec::new(),
            conn_map: FxHashMap::default(),
            last_flow: None,
            listeners: FxHashMap::default(),
            next_ephemeral: 49152,
            out: Vec::new(),
            events: Vec::new(),
            timer_reqs: Vec::new(),
            cancel_reqs: Vec::new(),
            released: Vec::new(),
            metric_evs: Vec::new(),
        }
    }

    /// Starts listening on `port`, delivering accepts to `app`.
    /// Returns false if the port is taken.
    pub fn listen(&mut self, port: u16, app: usize) -> bool {
        if self.listeners.contains_key(&port) {
            return false;
        }
        self.listeners.insert(port, app);
        true
    }

    /// Opens a connection from `local_addr` to `remote`; `iss` is the
    /// initial sequence number (host supplies randomness).
    pub fn connect(
        &mut self,
        local_addr: IpAddr,
        remote: (IpAddr, u16),
        app: usize,
        iss: u32,
        now: SimTime,
    ) -> SockId {
        let key = (local_addr, self.alloc_port(), remote.0, remote.1);
        let id = self.alloc_sock();
        let mut tx = SendWindow::new(iss, iss.wrapping_add(1), RECV_WINDOW);
        self.out
            .push(segment(&key, iss, 0, TcpFlags::SYN, Bytes::new()));
        self.timer_reqs.push((tx.arm(now), id.0 as u64));
        let state = TcpState::SynSent { tx, opened_at: now };
        self.install(id, app, key, state);
        id
    }

    /// Queues `data` for transmission. The buffer keeps `data` itself
    /// (no copy) until the peer acknowledges it.
    pub fn send(&mut self, sock: SockId, data: impl Into<Bytes>, now: SimTime) {
        let Some(s) = self.sockets.get_mut(sock.0).and_then(Option::as_mut) else {
            return;
        };
        // Only a connection the application has not closed takes data.
        let TcpState::Synced {
            tx,
            rx,
            phase: Phase::Established | Phase::CloseWait,
        } = &mut s.state
        else {
            return;
        };
        tx.buf.push(data.into());
        if tx.output(None, &s.key, rx.ack(), now, &mut self.out) {
            self.timer_reqs.push((tx.arm(now), sock.0 as u64));
        }
    }

    /// Bytes queued in the send buffer (unacked + unsent) — lets bulk
    /// senders (iperf) keep the pipe full without unbounded buffering.
    pub fn buffered(&self, sock: SockId) -> usize {
        match self.sockets.get(sock.0) {
            Some(Some(s)) => match &s.state {
                TcpState::Synced { tx, .. } => tx.buf.len(),
                _ => 0,
            },
            _ => 0,
        }
    }

    /// Whether the socket still exists (not fully closed).
    pub fn is_open(&self, sock: SockId) -> bool {
        self.sockets.get(sock.0).and_then(Option::as_ref).is_some()
    }

    /// Closes the sending direction (sends FIN after queued data).
    pub fn close(&mut self, sock: SockId, now: SimTime) {
        let Some(s) = self.sockets.get_mut(sock.0).and_then(Option::as_mut) else {
            return;
        };
        match &mut s.state {
            // Abort before establishment.
            TcpState::SynSent { .. } => self.release(sock),
            TcpState::Synced { tx, rx, phase } => {
                *phase = match phase {
                    Phase::Established => Phase::FinWait1(Fin::Queued),
                    Phase::CloseWait => Phase::LastAck(Fin::Queued),
                    _ => return,
                };
                if tx.output(phase.fin(), &s.key, rx.ack(), now, &mut self.out) {
                    self.timer_reqs.push((tx.arm(now), sock.0 as u64));
                }
            }
            _ => {}
        }
    }

    /// Aborts with RST.
    pub fn abort(&mut self, sock: SockId) {
        let Some(s) = self.sockets.get_mut(sock.0).and_then(Option::as_mut) else {
            return;
        };
        let (seq, ack) = match &s.state {
            TcpState::SynSent { tx, .. } => (tx.snd_nxt, 0),
            TcpState::SynReceived { tx, rx, .. } | TcpState::Synced { tx, rx, .. } => {
                (tx.snd_nxt, rx.ack())
            }
            TcpState::TimeWait { seq, ack, .. } => (*seq, *ack),
        };
        self.out
            .push(segment(&s.key, seq, ack, TcpFlags::RST, Bytes::new()));
        let app = s.owner_app;
        self.release(sock);
        self.events.push((app, TcpEvent::Closed(sock)));
    }

    /// Aborts every connection whose remote address is `remote` — used
    /// when the layer-3.5 shim determines the peer is unreachable (BEX
    /// retransmission exhausted after a crash). Sockets still in the
    /// handshake report [`TcpEvent::ConnectFailed`], established ones
    /// [`TcpEvent::Reset`]. No RST is sent: the peer is unreachable.
    pub fn abort_to(&mut self, remote: IpAddr) {
        // Slot order: event order is part of the determinism contract.
        for i in 0..self.sockets.len() {
            let Some(s) = self.sockets[i].as_ref().filter(|s| s.key.2 == remote) else {
                continue;
            };
            let (id, app, ev) = (s.id, s.owner_app, s.failure());
            self.release(id);
            self.events.push((app, ev));
        }
    }

    /// Handles an inbound segment addressed to this host.
    pub fn segment_arrives(&mut self, src: IpAddr, dst: IpAddr, seg: TcpSegment, now: SimTime) {
        let key = (dst, seg.dst_port, src, seg.src_port);
        // MRU hint first: long bursts hit the same flow back-to-back.
        // `release` clears the hint, so a hit is never stale.
        if let Some((hint_key, id)) = self.last_flow {
            if hint_key == key {
                self.on_segment(id, seg, now);
                return;
            }
        }
        if let Some(&id) = self.conn_map.get(&key) {
            self.last_flow = Some((key, id));
            self.on_segment(id, seg, now);
            return;
        }
        // New connection?
        if seg.flags.syn && !seg.flags.ack {
            if let Some(&app) = self.listeners.get(&seg.dst_port) {
                let id = self.alloc_sock();
                // Derive our ISS deterministically from the peer's (the
                // host layer has the RNG; this keeps the API small).
                let iss = seg.seq.wrapping_mul(2654435761).wrapping_add(0x9e3779b9);
                let mut tx = SendWindow::new(iss, iss.wrapping_add(1), seg.window);
                let rx = ReceiveWindow::new(seg.seq);
                self.out.push(segment(
                    &key,
                    iss,
                    rx.ack(),
                    TcpFlags::SYN_ACK,
                    Bytes::new(),
                ));
                self.timer_reqs.push((tx.arm(now), id.0 as u64));
                let state = TcpState::SynReceived {
                    tx,
                    rx,
                    opened_at: now,
                };
                self.install(id, app, key, state);
                return;
            }
        }
        // No socket: RST anything that is not itself an RST.
        if !seg.flags.rst {
            let rst = Packet::new(
                dst,
                src,
                Payload::Tcp(TcpSegment {
                    src_port: seg.dst_port,
                    dst_port: seg.src_port,
                    seq: if seg.flags.ack { seg.ack } else { 0 },
                    ack: seg
                        .seq
                        .wrapping_add(seg.data.len() as u32 + u32::from(seg.flags.syn)),
                    flags: TcpFlags::RST,
                    window: 0,
                    data: Bytes::new(),
                    gso_mss: 0,
                }),
            );
            self.out.push(rst);
        }
    }

    /// A TCP timer fired; `token` is the socket index.
    pub fn on_timer(&mut self, token: u64, now: SimTime) {
        let Some(Some(s)) = self.sockets.get_mut(token as usize) else {
            return;
        };
        let (id, app) = (s.id, s.owner_app);
        // The socket's one deadline: TIME-WAIT's expiry, or else the
        // retransmission timer.
        let (tx, limit, ack, ctl) = match &mut s.state {
            TcpState::TimeWait { expiry, .. } => {
                if now >= *expiry {
                    self.release(id);
                    self.events.push((app, TcpEvent::Closed(id)));
                }
                return;
            }
            TcpState::SynSent { tx, .. } => (tx, SYN_RETRIES, 0, TcpFlags::SYN),
            TcpState::SynReceived { tx, rx, .. } => (tx, RTX_RETRIES, rx.ack(), TcpFlags::SYN_ACK),
            TcpState::Synced { tx, rx, .. } => (tx, RTX_RETRIES, rx.ack(), TcpFlags::FIN_ACK),
        };
        let Some((at, retries)) = tx.rtx else {
            return;
        };
        if now < at {
            return; // stale timer; a fresher one is queued
        }
        // Retransmission timeout.
        let retries = retries + 1;
        self.metric_evs.push(TcpMetric::Rtx);
        if retries > limit {
            self.events.push((app, s.failure()));
            self.release(id);
            return;
        }
        tx.rtx = Some((at, retries));
        // Exponential backoff, collapse cwnd, retransmit one segment. A
        // handshake state's window is replaced at establishment, where
        // RFC 5681 sets the initial window, so its collapse is moot.
        tx.rto = SimDuration::from_nanos(tx.rto.as_nanos().saturating_mul(2)).min(RTO_MAX);
        tx.ssthresh = (u64::from(tx.flight()) / 2).max(2 * MSS as u64);
        tx.cwnd = MSS as u64;
        tx.dup_acks = 0;
        tx.rtt_sample = None; // Karn's algorithm
        tx.retransmit_head(ctl, &s.key, ack, &mut self.out);
        self.timer_reqs.push((tx.arm(now), token));
    }

    fn on_segment(&mut self, id: SockId, seg: TcpSegment, now: SimTime) {
        let Some(s) = self.sockets.get_mut(id.0).and_then(Option::as_mut) else {
            return;
        };
        let app = s.owner_app;

        if seg.flags.rst {
            self.events.push((app, s.failure()));
            self.release(id);
            return;
        }

        let acked = |tx: &SendWindow| seg.flags.ack && seg.ack == tx.snd_nxt;
        let since = |t: &SimTime| now.as_nanos().saturating_sub(t.as_nanos());
        let (rx, event, metric) = match &mut s.state {
            TcpState::SynSent { tx, opened_at } if seg.flags.syn && acked(tx) => {
                let rx = ReceiveWindow::new(seg.seq);
                let ack = segment(&s.key, seg.ack, rx.ack(), TcpFlags::ACK, Bytes::new());
                self.out.push(ack);
                let metric = TcpMetric::ConnectNs(since(opened_at));
                (rx, TcpEvent::Connected(id), metric)
            }
            TcpState::SynReceived { tx, rx, opened_at } if acked(tx) => {
                let accepted = TcpEvent::Accepted {
                    listener_port: s.key.1,
                    sock: id,
                };
                let metric = TcpMetric::AcceptNs(since(opened_at));
                (std::mem::take(rx), accepted, metric)
            }
            TcpState::Synced { .. } => return self.process(id, seg, now),
            // TIME-WAIT re-ACKs retransmitted data only, not a
            // retransmitted bare FIN (RFC 9293 §3.10.7.4 ACKs that too).
            TcpState::TimeWait { seq, ack, .. } if !seg.data.is_empty() => {
                self.out
                    .push(segment(&s.key, *seq, *ack, TcpFlags::ACK, Bytes::new()));
                return;
            }
            _ => return,
        };
        self.cancel_reqs.push(id.0 as u64);
        self.events.push((app, event));
        self.metric_evs.push(metric);
        // Establishment starts a fresh send window: RFC 5681 sets the
        // initial window then, and RFC 6298 §5.7 re-initializes the RTO
        // that SYN losses backed off.
        let tx = SendWindow::new(seg.ack, seg.ack, seg.window);
        s.state = TcpState::Synced {
            tx,
            rx,
            phase: Phase::Established,
        };
        // The handshake-completing ACK may carry data.
        if !seg.data.is_empty() || seg.flags.fin {
            self.process(id, seg, now);
        }
    }

    /// ACK, data and FIN processing in the synchronized states.
    fn process(&mut self, id: SockId, seg: TcpSegment, now: SimTime) {
        let Some(s) = self.sockets.get_mut(id.0).and_then(Option::as_mut) else {
            return;
        };
        let TcpState::Synced { tx, rx, phase } = &mut s.state else {
            return;
        };
        let (app, token) = (s.owner_app, id.0 as u64);
        let mut need_ack = false;
        let mut time_wait = false;

        // --- ACK processing ---
        if seg.flags.ack {
            tx.snd_wnd = seg.window;
            let ack = seg.ack;
            if seq_lt(tx.snd_una, ack) && seq_le(ack, tx.snd_nxt) {
                // Account for FIN occupying one sequence number.
                let fin_acked = matches!(phase.fin(), Some(&mut Fin::Sent(f)) if seq_lt(f, ack));
                tx.acked(ack, fin_acked, now);
                if tx.flight() == 0 {
                    tx.rtx = None;
                    self.cancel_reqs.push(token);
                } else {
                    self.timer_reqs.push((tx.arm(now), token));
                }
                // State advances on FIN ack.
                if fin_acked {
                    match phase {
                        Phase::FinWait1(_) => *phase = Phase::FinWait2,
                        Phase::Closing(_) => time_wait = true,
                        Phase::LastAck(_) => {
                            self.events.push((app, TcpEvent::Closed(id)));
                            self.release(id);
                            return;
                        }
                        _ => {}
                    }
                }
            } else if ack == tx.snd_una && tx.flight() != 0 && seg.data.is_empty() {
                // Duplicate ACK.
                tx.dup_acks += 1;
                if tx.dup_acks == 3 {
                    tx.ssthresh = (u64::from(tx.flight()) / 2).max(2 * MSS as u64);
                    tx.cwnd = tx.ssthresh;
                    tx.rtt_sample = None;
                    tx.retransmit_head(TcpFlags::FIN_ACK, &s.key, rx.ack(), &mut self.out);
                    self.timer_reqs.push((tx.arm(now), token));
                }
            }
        }

        // --- data ---
        let fin_seq = seg.seq.wrapping_add(seg.data.len() as u32);
        if !seg.data.is_empty() {
            need_ack = true;
            if let Some(run) = rx.data(seg.seq, seg.data) {
                self.events.push((app, TcpEvent::Data(id, run)));
            }
        }

        // --- FIN ---
        if rx.take_fin(seg.flags.fin.then_some(fin_seq)) {
            need_ack = true;
            self.events.push((app, TcpEvent::PeerClosed(id)));
            match *phase {
                Phase::Established => *phase = Phase::CloseWait,
                Phase::FinWait1(fin) => *phase = Phase::Closing(fin),
                Phase::FinWait2 => time_wait = true,
                _ => {}
            }
        }

        // Try to transmit anything newly permitted (window opened, etc.).
        if tx.output(phase.fin(), &s.key, rx.ack(), now, &mut self.out) {
            self.timer_reqs.push((tx.arm(now), token));
        }
        if need_ack {
            self.out.push(segment(
                &s.key,
                tx.snd_nxt,
                rx.ack(),
                TcpFlags::ACK,
                Bytes::new(),
            ));
        }
        if time_wait {
            let (expiry, seq, ack) = (now + TIME_WAIT, tx.snd_nxt, rx.ack());
            s.state = TcpState::TimeWait { expiry, seq, ack };
            self.timer_reqs.push((TIME_WAIT, token));
        }
    }

    fn alloc_sock(&mut self) -> SockId {
        for (i, slot) in self.sockets.iter().enumerate() {
            if slot.is_none() {
                return SockId(i);
            }
        }
        self.sockets.push(None);
        SockId(self.sockets.len() - 1)
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = if self.next_ephemeral == u16::MAX {
            49152
        } else {
            self.next_ephemeral + 1
        };
        p
    }

    fn install(&mut self, id: SockId, owner_app: usize, key: ConnKey, state: TcpState) {
        self.conn_map.insert(key, id);
        self.sockets[id.0] = Some(TcpSocket {
            id,
            owner_app,
            key,
            state,
        });
    }

    fn release(&mut self, id: SockId) {
        if let Some(s) = self.sockets.get_mut(id.0).and_then(Option::take) {
            self.conn_map.remove(&s.key);
            if self.last_flow.is_some_and(|(_, hint_id)| hint_id == id) {
                self.last_flow = None;
            }
            self.released.push(id.0 as u64);
        }
    }

    /// Checks every socket's windows. The send window: `snd_una <=
    /// snd_nxt`, the send buffer's byte count equals its chunks' and no
    /// chunk is empty, and the data in flight (`snd_nxt - snd_una` less
    /// an unacknowledged SYN or FIN) is still buffered. The receive
    /// window: every queued out-of-order segment starts after
    /// `rcv_nxt`, in stream order, and a recorded peer FIN is not
    /// behind it. Returns the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        for s in self.sockets.iter().flatten() {
            match &s.state {
                TcpState::SynSent { tx, .. } => tx.check(1),
                TcpState::SynReceived { tx, rx, .. } => tx.check(1).and_then(|()| rx.check()),
                TcpState::Synced { tx, rx, phase } => {
                    let mut phase = *phase;
                    let fin =
                        matches!(phase.fin(), Some(&mut Fin::Sent(f)) if seq_le(tx.snd_una, f));
                    tx.check(u32::from(fin)).and_then(|()| rx.check())
                }
                TcpState::TimeWait { .. } => Ok(()),
            }
            .map_err(|e| format!("socket {}: {e}", s.id.0))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::v4;
    use proptest::prelude::*;

    fn addr_a() -> IpAddr {
        v4(10, 0, 0, 1)
    }
    fn addr_b() -> IpAddr {
        v4(10, 0, 0, 2)
    }

    /// Shuttles packets between two TCP layers with zero latency,
    /// returning the number of packets moved. Both layers' invariants
    /// must hold afterwards.
    fn pump(a: &mut TcpLayer, b: &mut TcpLayer, now: SimTime) -> usize {
        let mut moved = 0;
        loop {
            let from_a = std::mem::take(&mut a.out);
            let from_b = std::mem::take(&mut b.out);
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            moved += from_a.len() + from_b.len();
            for p in from_a {
                if let Payload::Tcp(seg) = p.payload {
                    b.segment_arrives(p.src, p.dst, seg, now);
                }
            }
            for p in from_b {
                if let Payload::Tcp(seg) = p.payload {
                    a.segment_arrives(p.src, p.dst, seg, now);
                }
            }
        }
        a.check_invariants().expect("sender invariants");
        b.check_invariants().expect("receiver invariants");
        moved
    }

    /// Hands `pkts` to `to` at `now`, one segment at a time. The
    /// receiver's invariants must hold after each.
    fn deliver(pkts: Vec<Packet>, to: &mut TcpLayer, now: SimTime) {
        for p in pkts {
            if let Payload::Tcp(seg) = p.payload {
                to.segment_arrives(p.src, p.dst, seg, now);
                to.check_invariants().expect("receiver invariants");
            }
        }
    }

    /// The bytes of `sock`'s `Data` events in `layer`'s queue, in order.
    fn received(layer: &TcpLayer, sock: SockId) -> Vec<u8> {
        let mut got = Vec::new();
        for (_, e) in &layer.events {
            if let TcpEvent::Data(s, run) = e {
                if *s == sock {
                    got.extend_from_slice(run);
                }
            }
        }
        got
    }

    /// The send window of a synchronized socket.
    fn tx(layer: &TcpLayer, sock: SockId) -> &SendWindow {
        match layer.sockets[sock.0].as_ref().map(|s| &s.state) {
            Some(TcpState::Synced { tx, .. }) => tx,
            _ => panic!("socket {} is not synchronized", sock.0),
        }
    }

    /// A connection from `a` (initial sequence number `iss`) to `b`.
    fn connected_pair(iss: u32) -> (TcpLayer, TcpLayer, SockId, SockId) {
        let mut a = TcpLayer::new();
        let mut b = TcpLayer::new();
        b.listen(80, 0);
        let ca = a.connect(addr_a(), (addr_b(), 80), 0, iss, SimTime::ZERO);
        pump(&mut a, &mut b, SimTime::ZERO);
        let sb = b
            .events
            .iter()
            .find_map(|(_, e)| match e {
                TcpEvent::Accepted { sock, .. } => Some(*sock),
                _ => None,
            })
            .expect("accepted");
        assert!(a.events.iter().any(|(_, e)| *e == TcpEvent::Connected(ca)));
        a.events.clear();
        b.events.clear();
        (a, b, ca, sb)
    }

    #[test]
    fn three_way_handshake() {
        let (_a, b, _ca, sb) = connected_pair(1000);
        assert!(b.is_open(sb));
    }

    #[test]
    fn data_transfer_small() {
        let (mut a, mut b, ca, sb) = connected_pair(1000);
        a.send(ca, b"hello tcp", SimTime(1));
        pump(&mut a, &mut b, SimTime(1));
        assert_eq!(
            b.events,
            vec![(0, TcpEvent::Data(sb, Bytes::from_static(b"hello tcp")))]
        );
    }

    #[test]
    fn in_order_segment_is_delivered_without_a_copy() {
        let (mut a, mut b, ca, sb) = connected_pair(1000);
        a.send(ca, vec![5u8; 1000], SimTime(1));
        let pkts = std::mem::take(&mut a.out);
        let [Packet {
            payload: Payload::Tcp(seg),
            ..
        }] = &pkts[..]
        else {
            panic!("one data segment: {pkts:?}");
        };
        let sent = seg.data.as_ptr();
        deliver(pkts, &mut b, SimTime(1));
        let [(_, TcpEvent::Data(s, run))] = &b.events[..] else {
            panic!("one Data event: {:?}", b.events);
        };
        assert_eq!(*s, sb);
        assert_eq!(run.len(), 1000);
        assert_eq!(run.as_ptr(), sent, "the event shares the segment's buffer");
    }

    #[test]
    fn data_with_fin_is_delivered_before_peer_closed() {
        let (mut a, mut b, ca, sb) = connected_pair(1000);
        a.send(ca, b"last words", SimTime(1));
        let mut pkts = std::mem::take(&mut a.out);
        let [Packet {
            payload: Payload::Tcp(seg),
            ..
        }] = &mut pkts[..]
        else {
            panic!("one data segment: {pkts:?}");
        };
        seg.flags.fin = true;
        deliver(pkts, &mut b, SimTime(1));
        assert_eq!(
            b.events,
            vec![
                (0, TcpEvent::Data(sb, Bytes::from_static(b"last words"))),
                (0, TcpEvent::PeerClosed(sb)),
            ],
            "stream order: the data, then EOF"
        );
    }

    #[test]
    fn data_transfer_large_multi_segment() {
        let (mut a, mut b, ca, sb) = connected_pair(1000);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        a.send(ca, data.clone(), SimTime(1));
        // Repeated pumping simulates many RTTs for window growth.
        for t in 2..200 {
            pump(&mut a, &mut b, SimTime(t));
        }
        let got = received(&b, sb);
        assert_eq!(got.len(), data.len());
        assert_eq!(got, data);
    }

    #[test]
    fn bidirectional_transfer() {
        let (mut a, mut b, ca, sb) = connected_pair(1000);
        a.send(ca, b"ping", SimTime(1));
        b.send(sb, b"pong", SimTime(1));
        pump(&mut a, &mut b, SimTime(1));
        assert_eq!(received(&b, sb), b"ping");
        assert_eq!(received(&a, ca), b"pong");
    }

    #[test]
    fn connect_to_closed_port_fails() {
        let mut a = TcpLayer::new();
        let mut b = TcpLayer::new();
        let ca = a.connect(addr_a(), (addr_b(), 81), 0, 5, SimTime::ZERO);
        pump(&mut a, &mut b, SimTime::ZERO);
        assert!(a
            .events
            .iter()
            .any(|(_, e)| *e == TcpEvent::ConnectFailed(ca)));
        assert!(!a.is_open(ca));
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut a, mut b, ca, sb) = connected_pair(1000);
        a.send(ca, b"bye", SimTime(1));
        a.close(ca, SimTime(1));
        pump(&mut a, &mut b, SimTime(1));
        assert_eq!(received(&b, sb), b"bye");
        assert!(b.events.iter().any(|(_, e)| *e == TcpEvent::PeerClosed(sb)));
        b.close(sb, SimTime(2));
        pump(&mut a, &mut b, SimTime(2));
        assert!(a.events.iter().any(|(_, e)| *e == TcpEvent::PeerClosed(ca)));
        // b's socket fully closes once its FIN is acked.
        assert!(b.events.iter().any(|(_, e)| *e == TcpEvent::Closed(sb)));
        assert!(!b.is_open(sb));
    }

    #[test]
    fn retransmission_recovers_lost_segment() {
        let (mut a, mut b, ca, sb) = connected_pair(1000);
        a.send(ca, b"lost in the mail", SimTime(1));
        // Drop the data packet.
        let dropped = std::mem::take(&mut a.out);
        assert!(!dropped.is_empty());
        // Fire the retransmission timer.
        let (delay, token) = *a.timer_reqs.last().expect("rtx armed");
        let fire_at = SimTime(1) + delay;
        a.on_timer(token, fire_at);
        assert!(!a.out.is_empty(), "retransmission emitted");
        pump(&mut a, &mut b, fire_at);
        assert_eq!(received(&b, sb), b"lost in the mail");
    }

    #[test]
    fn syn_retry_exhaustion_reports_failure() {
        // Nobody answers: every retransmission timer expires until the
        // active open gives up.
        let mut a = TcpLayer::new();
        let ca = a.connect(addr_a(), (addr_b(), 80), 0, 1, SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let mut expiries = 0;
        while !a
            .events
            .iter()
            .any(|(_, e)| *e == TcpEvent::ConnectFailed(ca))
        {
            assert!(
                expiries <= SYN_RETRIES,
                "still connecting after {expiries} expiries"
            );
            let (delay, token) = a
                .timer_reqs
                .pop()
                .expect("a SYN retransmission timer is armed");
            now += delay;
            a.on_timer(token, now);
            expiries += 1;
        }
        assert_eq!(expiries, SYN_RETRIES + 1);
        let syns = a
            .out
            .iter()
            .filter(|p| matches!(&p.payload, Payload::Tcp(s) if s.flags.syn))
            .count();
        assert_eq!(
            syns as u32,
            1 + SYN_RETRIES,
            "the first SYN and one per retry"
        );
        assert!(!a.is_open(ca));
    }

    /// Initial sequence numbers for the reordering tests: one whose
    /// segments stay below 2^32, and one whose second and third
    /// segments of data straddle the wrap to 0.
    const ISSS: [u32; 2] = [1000, u32::MAX - 2000];

    #[test]
    fn out_of_order_segments_reassembled() {
        for iss in ISSS {
            let (mut a, mut b, ca, sb) = connected_pair(iss);
            a.send(ca, vec![7u8; 4000], SimTime(1)); // 3 segments at mss 1448
            let mut pkts = std::mem::take(&mut a.out);
            assert_eq!(pkts.len(), 3);
            pkts.reverse(); // deliver out of order
            deliver(pkts, &mut b, SimTime(1));
            pump(&mut a, &mut b, SimTime(2));
            // The first segment fills the hole: one event hands up the
            // whole run.
            let runs: Vec<usize> = b
                .events
                .iter()
                .map(|(_, e)| match e {
                    TcpEvent::Data(s, run) if *s == sb => run.len(),
                    e => panic!("iss {iss}: unexpected {e:?}"),
                })
                .collect();
            assert_eq!(runs, [4000], "iss {iss}");
            assert_eq!(received(&b, sb), vec![7u8; 4000], "iss {iss}");
        }
    }

    #[test]
    fn fast_retransmit_on_triple_dupack() {
        for iss in ISSS {
            let (mut a, mut b, ca, sb) = connected_pair(iss);
            let data: Vec<u8> = vec![1u8; MSS * 5];
            a.send(ca, data.clone(), SimTime(1));
            let mut pkts = std::mem::take(&mut a.out);
            assert!(pkts.len() >= 4, "got {}", pkts.len());
            // Drop the first data segment; deliver the rest → dupacks.
            pkts.remove(0);
            deliver(pkts, &mut b, SimTime(1));
            // Feed the dupacks back to a.
            let acks = std::mem::take(&mut b.out);
            assert!(acks.len() >= 3);
            deliver(acks, &mut a, SimTime(2));
            // a should have fast-retransmitted the head segment.
            assert!(
                !a.out.is_empty(),
                "fast retransmit after 3 dupacks should emit the missing segment"
            );
            pump(&mut a, &mut b, SimTime(3));
            assert_eq!(received(&b, sb).len(), data.len(), "iss {iss}");
        }
    }

    #[test]
    fn window_limits_inflight_bytes() {
        // 1 MiB, ACKed round by round: slow start doubles cwnd each
        // round until it passes the peer's window, which then caps the
        // data in flight.
        let (mut a, mut b, ca, sb) = connected_pair(1000);
        let total = 1 << 20;
        a.send(ca, vec![0u8; total], SimTime(1));
        let (mut max_flight, mut max_cwnd) = (0, 0);
        for round in 2.. {
            let s = tx(&a, ca);
            let flight = s.flight();
            assert!(
                flight <= RECV_WINDOW,
                "round {round}: {flight} bytes in flight, window {RECV_WINDOW}"
            );
            max_flight = max_flight.max(flight);
            max_cwnd = max_cwnd.max(s.cwnd);
            if a.out.is_empty() {
                break;
            }
            assert!(round < 100, "transfer stalled");
            deliver(std::mem::take(&mut a.out), &mut b, SimTime(round));
            deliver(std::mem::take(&mut b.out), &mut a, SimTime(round));
        }
        assert!(
            max_cwnd > u64::from(RECV_WINDOW),
            "cwnd {max_cwnd} never passed the window"
        );
        assert!(
            max_flight >= RECV_WINDOW - MSS as u32,
            "flight peaked at {max_flight}, more than one MSS short of the window"
        );
        assert_eq!(received(&b, sb).len(), total);
    }

    #[test]
    fn rst_on_established_reports_reset() {
        let (mut a, mut b, ca, sb) = connected_pair(1000);
        b.abort(sb);
        pump(&mut a, &mut b, SimTime(1));
        assert!(a.events.iter().any(|(_, e)| *e == TcpEvent::Reset(ca)));
        assert!(!a.is_open(ca));
    }

    #[test]
    fn rtt_estimation_updates_rto() {
        let mut s = SendWindow::new(0, 0, RECV_WINDOW);
        s.update_rtt(SimDuration::from_millis(100));
        // First sample: RTO = srtt + 4*rttvar = 100 + 200 = 300ms.
        assert_eq!(s.rto, SimDuration::from_millis(300));
        s.update_rtt(SimDuration::from_millis(100));
        assert!(s.rto >= RTO_MIN);
        assert!(s.rto < SimDuration::from_millis(300));
    }

    #[test]
    fn rtt_sample_ends_at_the_sampled_segment() {
        // An ACK that covers only data sent before the sampled segment
        // must not complete the sample.
        let ms = |n: u64| SimTime::ZERO + SimDuration::from_millis(n);
        let srtt = |a: &TcpLayer, ca: SockId| match tx(a, ca).rtt {
            Rtt::Measured { srtt, .. } => Some(srtt),
            Rtt::Unmeasured => None,
        };
        let (mut a, mut b, ca, _sb) = connected_pair(1000);
        a.send(ca, vec![1u8; MSS], ms(0)); // sampled
        let seg_a = std::mem::take(&mut a.out);
        a.send(ca, vec![2u8; MSS], ms(1)); // not sampled
        let seg_b = std::mem::take(&mut a.out);
        deliver(seg_a, &mut b, ms(50));
        deliver(std::mem::take(&mut b.out), &mut a, ms(100));
        assert_eq!(srtt(&a, ca), Some(100e6), "first sample: 100 ms");
        a.send(ca, vec![3u8; MSS], ms(100)); // sampled
        let seg_c = std::mem::take(&mut a.out);
        deliver(seg_b, &mut b, ms(110));
        deliver(std::mem::take(&mut b.out), &mut a, ms(120));
        assert_eq!(
            srtt(&a, ca),
            Some(100e6),
            "the ACK of B leaves C's sample open"
        );
        deliver(seg_c, &mut b, ms(200));
        deliver(std::mem::take(&mut b.out), &mut a, ms(300));
        assert_eq!(
            srtt(&a, ca),
            Some(112.5e6),
            "C's 200 ms sample: 7/8 × 100 + 1/8 × 200"
        );
    }

    #[test]
    fn seq_comparisons_wrap() {
        assert!(seq_lt(u32::MAX - 1, 5));
        assert!(!seq_lt(5, u32::MAX - 1));
        assert!(seq_le(7, 7));
    }

    #[test]
    fn chunked_sends_reassemble_across_chunk_boundaries() {
        // Uneven writes, including empty and 1-byte ones, so segments
        // straddle chunk boundaries as well as lying inside one chunk.
        let (mut a, mut b, ca, sb) = connected_pair(1000);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 253) as u8).collect();
        let mut off = 0;
        for (i, len) in [0, 1, 7, 1448, 3000, 1, 0, 65_536]
            .iter()
            .cycle()
            .enumerate()
        {
            let end = (off + len).min(data.len());
            a.send(ca, data[off..end].to_vec(), SimTime(1 + i as u64));
            pump(&mut a, &mut b, SimTime(1 + i as u64));
            off = end;
            if off == data.len() {
                break;
            }
        }
        for t in 100..300 {
            pump(&mut a, &mut b, SimTime(t));
        }
        assert_eq!(received(&b, sb), data);
        assert_eq!(a.buffered(ca), 0, "everything acknowledged");
    }

    #[test]
    fn segment_inside_one_chunk_shares_its_storage() {
        let (mut a, _b, ca, _sb) = connected_pair(1000);
        let chunk = Bytes::from(vec![9u8; 10_000]);
        let span = chunk.as_ptr() as usize..chunk.as_ptr() as usize + chunk.len();
        a.send(ca, chunk.clone(), SimTime(1));
        assert!(
            a.out.len() >= 2,
            "the initial window sends several segments"
        );
        for p in &a.out {
            let Payload::Tcp(seg) = &p.payload else {
                panic!("tcp")
            };
            let start = seg.data.as_ptr() as usize;
            assert!(
                span.contains(&start) && start + seg.data.len() <= span.end,
                "segment at seq {} was copied out of the chunk",
                seg.seq
            );
        }
        // A range across two chunks is a copy with the right bytes.
        let mut buf = SendBuf::default();
        buf.push(Bytes::from(vec![1u8; 100]));
        buf.push(Bytes::from(vec![2u8; 100]));
        let inside = buf.range(10, 50);
        assert_eq!(inside.as_ptr(), buf.chunks[0][10..].as_ptr());
        let across = buf.range(90, 20);
        assert_eq!(&across[..], [[1u8; 10], [2u8; 10]].concat());
    }

    #[test]
    fn check_invariants_reports_violations() {
        // One socket with 5000 bytes queued, then one corruption of
        // its send or receive window.
        let corrupted = |corrupt: fn(&mut SendWindow, &mut ReceiveWindow)| {
            let (mut a, _b, ca, _sb) = connected_pair(1000);
            a.send(ca, vec![3u8; 5000], SimTime(1));
            assert_eq!(a.check_invariants(), Ok(()));
            let Some(TcpState::Synced { tx, rx, .. }) =
                a.sockets[ca.0].as_mut().map(|s| &mut s.state)
            else {
                panic!("synchronized");
            };
            corrupt(tx, rx);
            a.check_invariants()
        };
        assert!(
            corrupted(|tx, _| tx.snd_nxt = tx.snd_una.wrapping_sub(1)).is_err(),
            "snd_una past snd_nxt"
        );
        assert!(
            corrupted(|tx, _| tx.buf.len += 1).is_err(),
            "count out of step with chunks"
        );
        assert!(
            corrupted(|tx, _| tx.buf.chunks.push_back(Bytes::new())).is_err(),
            "empty chunk"
        );
        assert!(
            corrupted(|tx, _| tx.buf.consume(1)).is_err(),
            "flight exceeds the buffer"
        );
        fn queue_at(rx: &mut ReceiveWindow, seq: u64) {
            rx.ooo.insert(seq, Bytes::from_static(b"x"));
        }
        assert_eq!(
            corrupted(|_, rx| queue_at(rx, rx.rcv_nxt + 1)),
            Ok(()),
            "a segment queued past rcv_nxt"
        );
        assert!(
            corrupted(|_, rx| queue_at(rx, rx.rcv_nxt)).is_err(),
            "a segment queued at rcv_nxt"
        );
        assert!(
            corrupted(|_, rx| queue_at(rx, rx.rcv_nxt - 1)).is_err(),
            "a segment queued behind rcv_nxt"
        );
        assert_eq!(
            corrupted(|_, rx| rx.fin = Some(rx.rcv_nxt)),
            Ok(()),
            "the peer's FIN at rcv_nxt"
        );
        assert!(
            corrupted(|_, rx| rx.fin = Some(rx.rcv_nxt - 1)).is_err(),
            "the peer's FIN behind rcv_nxt"
        );
    }

    #[test]
    fn abort_to_reports_sockets_in_slot_order() {
        let mut a = TcpLayer::new();
        let mut b = TcpLayer::new();
        assert!(a.listen(80, 1));
        let c0 = a.connect(addr_a(), (addr_b(), 80), 0, 1, SimTime::ZERO);
        // A socket accepted from the remote takes slot 1.
        b.connect(addr_b(), (addr_a(), 80), 0, 7, SimTime::ZERO);
        for p in std::mem::take(&mut b.out) {
            if let Payload::Tcp(seg) = p.payload {
                a.segment_arrives(p.src, p.dst, seg, SimTime::ZERO);
            }
        }
        let accepted = SockId(1);
        assert!(a.is_open(accepted));
        let c2 = a.connect(addr_a(), (addr_b(), 81), 0, 2, SimTime::ZERO);
        let other = a.connect(addr_a(), (v4(10, 0, 0, 3), 80), 0, 3, SimTime::ZERO);
        // Releasing slot 0 and reusing it puts the newest socket first
        // in slot order, unlike creation order.
        a.close(c0, SimTime::ZERO);
        let reused = a.connect(addr_a(), (addr_b(), 82), 0, 4, SimTime::ZERO);
        assert_eq!(reused, c0);
        a.events.clear();
        a.abort_to(addr_b());
        assert!(!a.is_open(reused) && !a.is_open(accepted) && !a.is_open(c2));
        assert!(a.is_open(other), "other remotes untouched");
        assert_eq!(
            a.events,
            vec![
                (0, TcpEvent::ConnectFailed(reused)),
                (1, TcpEvent::Reset(accepted)),
                (0, TcpEvent::ConnectFailed(c2)),
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `SendBuf` behaves like the byte deque it replaced: pushes of
        /// any size (empty and 1-byte ones included), consumes of any
        /// amount (past the end included), and every range read
        /// returns the model's bytes.
        #[test]
        fn send_buf_matches_byte_deque_model(
            ops in proptest::collection::vec((0u8..4, 0usize..4_000, 0usize..4_000), 1..80),
        ) {
            let mut buf = SendBuf::default();
            let mut model: VecDeque<u8> = VecDeque::new();
            let mut next = 0u8;
            for (kind, x, y) in ops {
                match kind {
                    // Small pushes: 0, 1 or 2 bytes.
                    0 | 1 => {
                        let n = if kind == 0 { x % 3 } else { x };
                        let chunk: Vec<u8> = (0..n).map(|_| { next = next.wrapping_add(1); next }).collect();
                        model.extend(&chunk);
                        buf.push(Bytes::from(chunk));
                    }
                    2 => {
                        let n = x % (model.len() + 50);
                        model.drain(..n.min(model.len()));
                        buf.consume(n);
                    }
                    _ => {
                        let off = x % (model.len() + 1);
                        let len = y % (model.len() - off + 1);
                        let want: Vec<u8> = model.range(off..off + len).copied().collect();
                        prop_assert_eq!(&buf.range(off, len)[..], &want[..]);
                    }
                }
                prop_assert_eq!(buf.len(), model.len());
                prop_assert_eq!(buf.check(), Ok(()));
            }
            let all: Vec<u8> = model.iter().copied().collect();
            prop_assert_eq!(&buf.range(0, buf.len())[..], &all[..]);
        }
    }
}
