//! TCP: reliable byte streams over the simulated network.
//!
//! A real windowed TCP, not a fluid model: three-way handshake, MSS
//! segmentation, cumulative ACKs, RTT estimation (RFC 6298), slow start
//! and congestion avoidance, fast retransmit on three duplicate ACKs,
//! exponential RTO backoff, receiver flow control with a fixed
//! advertised window (`RECV_WINDOW`, the 85.3 KB default window of
//! the paper's iperf run), and FIN/RST teardown.
//!
//! Every tuning value is a constant: each experiment in the paper
//! measures one stack, so no caller sets them.
//!
//! The layer is embedded in a host ([`crate::host::Host`]). It never
//! touches the event queue directly; it accumulates outgoing packets,
//! application events and timer requests which the host drains after
//! each call — keeping this module purely about protocol state.

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
            let front = self.chunks.front_mut().expect("len counts chunk bytes");
            if front.len() <= n {
                n -= front.len();
                self.chunks.pop_front();
            } else {
                *front = front.slice(n..);
                n = 0;
            }
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
        if len == 0 {
            return Bytes::new();
        }
        let mut chunks = self.chunks.iter();
        let mut skip = off;
        let first = loop {
            let c = chunks.next().expect("off lies inside the buffer");
            if skip < c.len() {
                break c;
            }
            skip -= c.len();
        };
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
        Bytes::from(copy)
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
    /// New in-order data is available via `recv`.
    Data(SockId),
    /// The peer closed its direction (EOF after draining `recv`).
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
/// SYN retransmissions before an active open gives up.
const SYN_RETRIES: u32 = 5;

/// Connection states (simplified TIME-WAIT).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TcpState {
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closing,
    TimeWait,
    Closed,
}

struct TcpSocket {
    id: SockId,
    owner_app: usize,
    local: (IpAddr, u16),
    remote: (IpAddr, u16),
    state: TcpState,

    // --- send state ---
    /// Oldest unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// Bytes awaiting ACK or transmission, starting at `snd_una`.
    send_buf: SendBuf,
    /// Peer's advertised window.
    snd_wnd: u32,
    /// Congestion window (bytes).
    cwnd: u64,
    /// Slow-start threshold (bytes).
    ssthresh: u64,
    dup_acks: u32,
    /// FIN queued after the data currently buffered.
    fin_pending: bool,
    /// Sequence number consumed by our FIN once sent.
    fin_seq: Option<u32>,

    // --- RTT estimation ---
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    /// One outstanding RTT sample: (seq that must be acked, send time).
    rtt_sample: Option<(u32, SimTime)>,
    /// Retransmission deadline (lazy-cancelled timers check this).
    rtx_deadline: Option<SimTime>,
    rtx_count: u32,
    /// When the handshake started (SYN sent or received), for the
    /// connect/accept latency metric.
    opened_at: SimTime,

    // --- receive state ---
    rcv_nxt: u32,
    recv_buf: Vec<u8>,
    /// Out-of-order segments keyed by sequence number.
    ooo: BTreeMap<u32, Bytes>,
    peer_fin_seq: Option<u32>,

    /// TIME-WAIT expiry.
    time_wait_deadline: Option<SimTime>,
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
        let local_port = self.alloc_port();
        let id = self.alloc_sock();
        let mut sock = TcpSocket::new(id, app, (local_addr, local_port), remote);
        sock.state = TcpState::SynSent;
        sock.opened_at = now;
        sock.snd_una = iss;
        sock.snd_nxt = iss.wrapping_add(1);
        self.conn_map
            .insert((local_addr, local_port, remote.0, remote.1), id);
        let syn = sock.make_segment(iss, TcpFlags::SYN, Bytes::new());
        sock.arm_rtx(now, &mut self.timer_reqs);
        self.out.push(syn);
        self.sockets[id.0] = Some(sock);
        id
    }

    /// Queues `data` for transmission. The buffer keeps `data` itself
    /// (no copy) until the peer acknowledges it.
    pub fn send(&mut self, sock: SockId, data: impl Into<Bytes>, now: SimTime) {
        let Some(s) = self.sockets.get_mut(sock.0).and_then(Option::as_mut) else {
            return;
        };
        if !matches!(s.state, TcpState::Established | TcpState::CloseWait) {
            return;
        }
        s.send_buf.push(data.into());
        s.try_output(&mut self.out, now, &mut self.timer_reqs);
    }

    /// Reads and drains all in-order received bytes.
    pub fn recv(&mut self, sock: SockId) -> Vec<u8> {
        match self.sockets.get_mut(sock.0).and_then(Option::as_mut) {
            Some(s) => std::mem::take(&mut s.recv_buf),
            None => Vec::new(),
        }
    }

    /// Bytes queued in the send buffer (unacked + unsent) — lets bulk
    /// senders (iperf) keep the pipe full without unbounded buffering.
    pub fn buffered(&self, sock: SockId) -> usize {
        self.sockets
            .get(sock.0)
            .and_then(Option::as_ref)
            .map_or(0, |s| s.send_buf.len())
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
        match s.state {
            TcpState::Established => {
                s.fin_pending = true;
                s.state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                s.fin_pending = true;
                s.state = TcpState::LastAck;
            }
            TcpState::SynSent => {
                // Abort before establishment.
                let id = s.id;
                self.release(id);
                return;
            }
            _ => return,
        }
        s.try_output(&mut self.out, now, &mut self.timer_reqs);
    }

    /// Aborts with RST.
    pub fn abort(&mut self, sock: SockId) {
        let Some(s) = self.sockets.get_mut(sock.0).and_then(Option::as_mut) else {
            return;
        };
        let rst = s.make_segment(s.snd_nxt, TcpFlags::RST, Bytes::new());
        self.out.push(rst);
        let id = s.id;
        let app = s.owner_app;
        self.release(id);
        self.events.push((app, TcpEvent::Closed(id)));
    }

    /// Aborts every connection whose remote address is `remote` — used
    /// when the layer-3.5 shim determines the peer is unreachable (BEX
    /// retransmission exhausted after a crash). Sockets still in the
    /// handshake report [`TcpEvent::ConnectFailed`], established ones
    /// [`TcpEvent::Reset`]. No RST is sent: the peer is unreachable.
    pub fn abort_to(&mut self, remote: IpAddr) {
        // Slot order: event order is part of the determinism contract.
        for i in 0..self.sockets.len() {
            let Some(s) = self.sockets[i].as_ref().filter(|s| s.remote.0 == remote) else {
                continue;
            };
            let id = s.id;
            let app = s.owner_app;
            let ev = if s.state == TcpState::SynSent {
                TcpEvent::ConnectFailed(id)
            } else {
                TcpEvent::Reset(id)
            };
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
                let mut sock = TcpSocket::new(id, app, (dst, seg.dst_port), (src, seg.src_port));
                sock.state = TcpState::SynReceived;
                sock.opened_at = now;
                // Derive our ISS deterministically from the peer's (the
                // host layer has the RNG; this keeps the API small).
                let iss = seg.seq.wrapping_mul(2654435761).wrapping_add(0x9e3779b9);
                sock.snd_una = iss;
                sock.snd_nxt = iss.wrapping_add(1);
                sock.rcv_nxt = seg.seq.wrapping_add(1);
                sock.snd_wnd = seg.window;
                let synack = sock.make_segment(iss, TcpFlags::SYN_ACK, Bytes::new());
                sock.arm_rtx(now, &mut self.timer_reqs);
                self.conn_map.insert(key, id);
                self.out.push(synack);
                self.sockets[id.0] = Some(sock);
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
        let idx = token as usize;
        let Some(Some(s)) = self.sockets.get_mut(idx) else {
            return;
        };
        // TIME-WAIT expiry.
        if let Some(tw) = s.time_wait_deadline {
            if now >= tw {
                let id = s.id;
                let app = s.owner_app;
                self.release(id);
                self.events.push((app, TcpEvent::Closed(id)));
                return;
            }
        }
        let Some(deadline) = s.rtx_deadline else {
            return;
        };
        if now < deadline {
            return; // stale timer; a fresher one is queued
        }
        // Retransmission timeout.
        s.rtx_count += 1;
        self.metric_evs.push(TcpMetric::Rtx);
        if s.state == TcpState::SynSent && s.rtx_count > SYN_RETRIES {
            let id = s.id;
            let app = s.owner_app;
            self.events.push((app, TcpEvent::ConnectFailed(id)));
            self.release(id);
            return;
        }
        if s.rtx_count > 15 {
            let id = s.id;
            let app = s.owner_app;
            self.events.push((app, TcpEvent::Reset(id)));
            self.release(id);
            return;
        }
        // Exponential backoff, collapse cwnd, retransmit one segment.
        s.rto = SimDuration::from_nanos(s.rto.as_nanos().saturating_mul(2).min(60_000_000_000));
        // Congestion state only exists once data flows: handshake
        // timeouts must not collapse the initial window (RFC 5681 sets
        // IW at establishment, not before).
        if !matches!(s.state, TcpState::SynSent | TcpState::SynReceived) {
            let flight = s.snd_nxt.wrapping_sub(s.snd_una) as u64;
            s.ssthresh = (flight / 2).max(2 * MSS as u64);
            s.cwnd = MSS as u64;
        }
        s.dup_acks = 0;
        s.rtt_sample = None; // Karn's algorithm
        s.retransmit_head(&mut self.out);
        s.arm_rtx(now, &mut self.timer_reqs);
    }

    fn on_segment(&mut self, id: SockId, seg: TcpSegment, now: SimTime) {
        let Some(s) = self.sockets.get_mut(id.0).and_then(Option::as_mut) else {
            return;
        };
        let app = s.owner_app;

        if seg.flags.rst {
            let ev = if s.state == TcpState::SynSent {
                TcpEvent::ConnectFailed(id)
            } else {
                TcpEvent::Reset(id)
            };
            self.events.push((app, ev));
            self.release(id);
            return;
        }

        match s.state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == s.snd_nxt {
                    s.rcv_nxt = seg.seq.wrapping_add(1);
                    s.snd_una = seg.ack;
                    s.snd_wnd = seg.window;
                    s.state = TcpState::Established;
                    s.rtx_deadline = None;
                    s.rtx_count = 0;
                    self.cancel_reqs.push(id.0 as u64);
                    // RFC 6298 §5.7: the RTO backed off by SYN losses must
                    // be re-initialized when data transmission begins.
                    s.rto = RTO_INITIAL;
                    let ack = s.make_segment(s.snd_nxt, TcpFlags::ACK, Bytes::new());
                    self.out.push(ack);
                    self.events.push((app, TcpEvent::Connected(id)));
                    self.metric_evs.push(TcpMetric::ConnectNs(
                        now.as_nanos().saturating_sub(s.opened_at.as_nanos()),
                    ));
                }
            }
            TcpState::SynReceived => {
                if seg.flags.ack && seg.ack == s.snd_nxt {
                    s.state = TcpState::Established;
                    s.snd_una = seg.ack;
                    s.snd_wnd = seg.window;
                    s.rtx_deadline = None;
                    s.rtx_count = 0;
                    self.cancel_reqs.push(id.0 as u64);
                    s.rto = RTO_INITIAL;
                    let port = s.local.1;
                    self.events.push((
                        app,
                        TcpEvent::Accepted {
                            listener_port: port,
                            sock: id,
                        },
                    ));
                    self.metric_evs.push(TcpMetric::AcceptNs(
                        now.as_nanos().saturating_sub(s.opened_at.as_nanos()),
                    ));
                    // The handshake-completing ACK may carry data.
                    if !seg.data.is_empty() || seg.flags.fin {
                        self.process_established(id, seg, now);
                    }
                }
            }
            _ => self.process_established(id, seg, now),
        }
    }

    /// Data/ACK/FIN processing common to synchronized states.
    fn process_established(&mut self, id: SockId, seg: TcpSegment, now: SimTime) {
        let Some(s) = self.sockets.get_mut(id.0).and_then(Option::as_mut) else {
            return;
        };
        let app = s.owner_app;
        let mut need_ack = false;
        let mut had_new_data = false;

        // --- ACK processing ---
        if seg.flags.ack {
            s.snd_wnd = seg.window;
            let ack = seg.ack;
            if seq_lt(s.snd_una, ack) && seq_le(ack, s.snd_nxt) {
                let newly_acked = ack.wrapping_sub(s.snd_una) as usize;
                // Account for FIN occupying one sequence number.
                let fin_acked = s.fin_seq.is_some_and(|f| seq_lt(f, ack));
                let data_acked = newly_acked - usize::from(fin_acked);
                s.send_buf.consume(data_acked);
                s.snd_una = ack;
                s.dup_acks = 0;
                // RTT sample (Karn: only for non-retransmitted data).
                if let Some((sample_seq, sent_at)) = s.rtt_sample {
                    if seq_le(sample_seq, ack) {
                        s.update_rtt(now.since(sent_at));
                        s.rtt_sample = None;
                    }
                }
                // Congestion window growth.
                if s.cwnd < s.ssthresh {
                    s.cwnd += (data_acked as u64).min(MSS as u64);
                } else {
                    let inc = (MSS as u64 * MSS as u64 / s.cwnd.max(1)).max(1);
                    s.cwnd += inc;
                }
                if s.snd_una == s.snd_nxt {
                    s.rtx_deadline = None;
                    s.rtx_count = 0;
                    self.cancel_reqs.push(id.0 as u64);
                } else {
                    s.arm_rtx(now, &mut self.timer_reqs);
                }
                // State advances on FIN ack.
                if fin_acked {
                    match s.state {
                        TcpState::FinWait1 => s.state = TcpState::FinWait2,
                        TcpState::Closing => s.enter_time_wait(now, &mut self.timer_reqs),
                        TcpState::LastAck => {
                            self.events.push((app, TcpEvent::Closed(id)));
                            self.release(id);
                            return;
                        }
                        _ => {}
                    }
                }
            } else if ack == s.snd_una && s.snd_una != s.snd_nxt && seg.data.is_empty() {
                // Duplicate ACK.
                s.dup_acks += 1;
                if s.dup_acks == 3 {
                    let flight = s.snd_nxt.wrapping_sub(s.snd_una) as u64;
                    s.ssthresh = (flight / 2).max(2 * MSS as u64);
                    s.cwnd = s.ssthresh;
                    s.rtt_sample = None;
                    s.retransmit_head(&mut self.out);
                    s.arm_rtx(now, &mut self.timer_reqs);
                }
            }
        }

        // --- data ---
        if !seg.data.is_empty() {
            need_ack = true;
            if seg.seq == s.rcv_nxt {
                // In-window check against our advertised window is skipped:
                // the sender honours it, and the sim has no renege path.
                s.recv_buf.extend_from_slice(&seg.data);
                s.rcv_nxt = s.rcv_nxt.wrapping_add(seg.data.len() as u32);
                had_new_data = true;
                // Drain contiguous out-of-order segments.
                while let Some((&q_seq, _)) = s.ooo.first_key_value() {
                    if q_seq != s.rcv_nxt {
                        if seq_lt(q_seq, s.rcv_nxt) {
                            // Stale/overlapping: drop it.
                            s.ooo.pop_first();
                            continue;
                        }
                        break;
                    }
                    let (_, data) = s.ooo.pop_first().expect("peeked");
                    s.rcv_nxt = s.rcv_nxt.wrapping_add(data.len() as u32);
                    s.recv_buf.extend_from_slice(&data);
                }
            } else if seq_lt(s.rcv_nxt, seg.seq) {
                s.ooo.insert(seg.seq, seg.data.clone());
            }
            // else: old retransmission — just re-ACK.
        }

        // --- FIN ---
        if seg.flags.fin {
            let fin_seq = seg.seq.wrapping_add(seg.data.len() as u32);
            s.peer_fin_seq = Some(fin_seq);
        }
        if let Some(fin_seq) = s.peer_fin_seq {
            if s.rcv_nxt == fin_seq {
                s.rcv_nxt = s.rcv_nxt.wrapping_add(1);
                s.peer_fin_seq = None;
                need_ack = true;
                self.events.push((app, TcpEvent::PeerClosed(id)));
                match s.state {
                    TcpState::Established => s.state = TcpState::CloseWait,
                    TcpState::FinWait1 => s.state = TcpState::Closing,
                    TcpState::FinWait2 => s.enter_time_wait(now, &mut self.timer_reqs),
                    _ => {}
                }
            }
        }

        // Try to transmit anything newly permitted (window opened, etc.).
        s.try_output(&mut self.out, now, &mut self.timer_reqs);
        if need_ack {
            let ack = s.make_segment(s.snd_nxt_wire(), TcpFlags::ACK, Bytes::new());
            self.out.push(ack);
        }
        if had_new_data {
            self.events.push((app, TcpEvent::Data(id)));
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

    fn release(&mut self, id: SockId) {
        if let Some(Some(s)) = self.sockets.get(id.0) {
            let key = (s.local.0, s.local.1, s.remote.0, s.remote.1);
            self.conn_map.remove(&key);
            if self.last_flow.is_some_and(|(_, hint_id)| hint_id == id) {
                self.last_flow = None;
            }
            self.released.push(id.0 as u64);
        }
        if let Some(slot) = self.sockets.get_mut(id.0) {
            *slot = None;
        }
    }

    /// Checks every socket's send-side sequence space: `snd_una <=
    /// snd_nxt`, the send buffer's byte count equals its chunks' and no
    /// chunk is empty, and the data in flight (`snd_nxt - snd_una` less
    /// an unacknowledged SYN or FIN) is still buffered. Returns the
    /// first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        for s in self.sockets.iter().flatten() {
            s.check_invariants()
                .map_err(|e| format!("socket {}: {e}", s.id.0))?;
        }
        Ok(())
    }
}

impl TcpSocket {
    fn new(id: SockId, owner_app: usize, local: (IpAddr, u16), remote: (IpAddr, u16)) -> Self {
        TcpSocket {
            id,
            owner_app,
            local,
            remote,
            state: TcpState::Closed,
            snd_una: 0,
            snd_nxt: 0,
            send_buf: SendBuf::default(),
            snd_wnd: RECV_WINDOW,
            cwnd: INIT_CWND_SEGMENTS * MSS as u64,
            ssthresh: u64::MAX / 2,
            dup_acks: 0,
            fin_pending: false,
            fin_seq: None,
            srtt: None,
            rttvar: 0.0,
            rto: RTO_INITIAL,
            rtt_sample: None,
            rtx_deadline: None,
            rtx_count: 0,
            opened_at: SimTime::ZERO,
            rcv_nxt: 0,
            recv_buf: Vec::new(),
            ooo: BTreeMap::new(),
            peer_fin_seq: None,
            time_wait_deadline: None,
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        if !seq_le(self.snd_una, self.snd_nxt) {
            return Err(format!(
                "snd_una {} is past snd_nxt {}",
                self.snd_una, self.snd_nxt
            ));
        }
        self.send_buf.check()?;
        let syn = u32::from(matches!(
            self.state,
            TcpState::SynSent | TcpState::SynReceived
        ));
        let fin = u32::from(self.fin_seq.is_some_and(|f| seq_le(self.snd_una, f)));
        let flight = self.snd_nxt.wrapping_sub(self.snd_una);
        match flight.checked_sub(syn + fin) {
            Some(data) if data as usize <= self.send_buf.len() => Ok(()),
            _ => Err(format!(
                "{flight} sequence numbers in flight (SYN {syn}, FIN {fin}) but {} bytes buffered",
                self.send_buf.len()
            )),
        }
    }

    fn make_segment(&self, seq: u32, flags: TcpFlags, data: Bytes) -> Packet {
        Packet::new(
            self.local.0,
            self.remote.0,
            Payload::Tcp(TcpSegment {
                src_port: self.local.1,
                dst_port: self.remote.1,
                seq,
                ack: self.rcv_nxt,
                flags,
                window: RECV_WINDOW,
                data,
                gso_mss: 0,
            }),
        )
    }

    /// The sequence number an empty ACK should carry (past FIN if sent).
    fn snd_nxt_wire(&self) -> u32 {
        self.snd_nxt
    }

    /// Sends as much buffered data as windows allow, one MSS-sized
    /// segment per packet; sends FIN when the buffer drains and a close
    /// is pending.
    ///
    /// Each segment's payload is [`SendBuf::range`]: a zero-copy slice
    /// of the application's chunk unless the segment straddles two
    /// chunks.
    fn try_output(
        &mut self,
        out: &mut Vec<Packet>,
        now: SimTime,
        timer_reqs: &mut Vec<(SimDuration, u64)>,
    ) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::LastAck
                | TcpState::Closing
        ) {
            return;
        }
        let mut sent_any = false;
        let flight = self.snd_nxt.wrapping_sub(self.snd_una) as u64;
        let wnd = self.cwnd.min(self.snd_wnd as u64);
        // When a FIN is in flight the buffer offset excludes it.
        let mut off = (flight as usize).min(self.send_buf.len());
        let mut budget = if self.fin_seq.is_none() {
            (self.send_buf.len() - off).min(wnd.saturating_sub(flight) as usize)
        } else {
            0
        };
        while budget > 0 {
            let take = budget.min(MSS);
            let seq = self.snd_nxt;
            let mut flags = TcpFlags::ACK;
            // Piggyback FIN on the last segment if closing and this
            // drains the buffer.
            if self.fin_pending && off + take == self.send_buf.len() {
                flags.fin = true;
            }
            let pkt = self.make_segment(seq, flags, self.send_buf.range(off, take));
            self.snd_nxt = self.snd_nxt.wrapping_add(take as u32);
            if flags.fin {
                self.fin_seq = Some(self.snd_nxt);
                self.snd_nxt = self.snd_nxt.wrapping_add(1);
                self.fin_pending = false;
            }
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((self.snd_nxt, now));
            }
            out.push(pkt);
            sent_any = true;
            off += take;
            budget -= take;
        }
        // Bare FIN (no data left to carry it).
        if self.fin_pending && off == self.send_buf.len() && self.fin_seq.is_none() {
            let seq = self.snd_nxt;
            let pkt = self.make_segment(seq, TcpFlags::FIN_ACK, Bytes::new());
            self.fin_seq = Some(seq);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.fin_pending = false;
            out.push(pkt);
            sent_any = true;
        }
        if sent_any {
            self.arm_rtx(now, timer_reqs);
        }
    }

    /// Retransmits the first unacknowledged segment.
    fn retransmit_head(&mut self, out: &mut Vec<Packet>) {
        let flight_data = self.send_buf.len();
        if flight_data > 0 {
            let take = flight_data.min(MSS);
            let chunk = self.send_buf.range(0, take);
            let mut flags = TcpFlags::ACK;
            if self.fin_seq.is_some() && take == flight_data {
                // FIN rides again on the tail retransmission.
                flags.fin = self.snd_nxt.wrapping_sub(self.snd_una) as usize == flight_data + 1;
            }
            let pkt = self.make_segment(self.snd_una, flags, chunk);
            out.push(pkt);
        } else if self.fin_seq.is_some() {
            let pkt = self.make_segment(self.snd_una, TcpFlags::FIN_ACK, Bytes::new());
            out.push(pkt);
        } else if self.state == TcpState::SynSent {
            let pkt = self.make_segment(self.snd_una, TcpFlags::SYN, Bytes::new());
            out.push(pkt);
        } else if self.state == TcpState::SynReceived {
            let pkt = self.make_segment(self.snd_una, TcpFlags::SYN_ACK, Bytes::new());
            out.push(pkt);
        }
    }

    fn arm_rtx(&mut self, now: SimTime, timer_reqs: &mut Vec<(SimDuration, u64)>) {
        let deadline = now + self.rto;
        self.rtx_deadline = Some(deadline);
        timer_reqs.push((self.rto, self.id.0 as u64));
    }

    fn enter_time_wait(&mut self, now: SimTime, timer_reqs: &mut Vec<(SimDuration, u64)>) {
        self.state = TcpState::TimeWait;
        let linger = SimDuration::from_millis(500); // 2*MSL shortened for sims
        self.time_wait_deadline = Some(now + linger);
        self.rtx_deadline = None;
        timer_reqs.push((linger, self.id.0 as u64));
    }

    /// RFC 6298 SRTT/RTTVAR update.
    fn update_rtt(&mut self, sample: SimDuration) {
        let r = sample.as_nanos() as f64;
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let rto_ns = (self.srtt.unwrap() + 4.0 * self.rttvar) as u64;
        self.rto = SimDuration::from_nanos(rto_ns).max(RTO_MIN);
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

    /// Hands `pkts` to `to` at `now`, one segment at a time.
    fn deliver(pkts: Vec<Packet>, to: &mut TcpLayer, now: SimTime) {
        for p in pkts {
            if let Payload::Tcp(seg) = p.payload {
                to.segment_arrives(p.src, p.dst, seg, now);
            }
        }
    }

    fn connected_pair() -> (TcpLayer, TcpLayer, SockId, SockId) {
        let mut a = TcpLayer::new();
        let mut b = TcpLayer::new();
        b.listen(80, 0);
        let ca = a.connect(addr_a(), (addr_b(), 80), 0, 1000, SimTime::ZERO);
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
        let (_a, b, _ca, sb) = connected_pair();
        assert!(b.is_open(sb));
    }

    #[test]
    fn data_transfer_small() {
        let (mut a, mut b, ca, sb) = connected_pair();
        a.send(ca, b"hello tcp", SimTime(1));
        pump(&mut a, &mut b, SimTime(1));
        assert_eq!(b.recv(sb), b"hello tcp");
        assert!(b.events.iter().any(|(_, e)| *e == TcpEvent::Data(sb)));
    }

    #[test]
    fn data_transfer_large_multi_segment() {
        let (mut a, mut b, ca, sb) = connected_pair();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        a.send(ca, data.clone(), SimTime(1));
        // Repeated pumping simulates many RTTs for window growth.
        for t in 2..200 {
            pump(&mut a, &mut b, SimTime(t));
        }
        let got = b.recv(sb);
        assert_eq!(got.len(), data.len());
        assert_eq!(got, data);
    }

    #[test]
    fn bidirectional_transfer() {
        let (mut a, mut b, ca, sb) = connected_pair();
        a.send(ca, b"ping", SimTime(1));
        b.send(sb, b"pong", SimTime(1));
        pump(&mut a, &mut b, SimTime(1));
        assert_eq!(b.recv(sb), b"ping");
        assert_eq!(a.recv(ca), b"pong");
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
        let (mut a, mut b, ca, sb) = connected_pair();
        a.send(ca, b"bye", SimTime(1));
        a.close(ca, SimTime(1));
        pump(&mut a, &mut b, SimTime(1));
        assert_eq!(b.recv(sb), b"bye");
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
        let (mut a, mut b, ca, sb) = connected_pair();
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
        assert_eq!(b.recv(sb), b"lost in the mail");
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

    #[test]
    fn out_of_order_segments_reassembled() {
        let (mut a, mut b, ca, sb) = connected_pair();
        a.send(ca, vec![7u8; 4000], SimTime(1)); // 3 segments at mss 1448
        let mut pkts = std::mem::take(&mut a.out);
        assert!(pkts.len() >= 2);
        pkts.reverse(); // deliver out of order
        for p in pkts {
            if let Payload::Tcp(seg) = p.payload {
                b.segment_arrives(p.src, p.dst, seg, SimTime(1));
            }
        }
        pump(&mut a, &mut b, SimTime(2));
        assert_eq!(b.recv(sb).len(), 4000);
    }

    #[test]
    fn fast_retransmit_on_triple_dupack() {
        let (mut a, mut b, ca, sb) = connected_pair();
        let data: Vec<u8> = vec![1u8; MSS * 5];
        a.send(ca, data.clone(), SimTime(1));
        let mut pkts = std::mem::take(&mut a.out);
        assert!(pkts.len() >= 4, "got {}", pkts.len());
        // Drop the first data segment; deliver the rest → dupacks.
        pkts.remove(0);
        for p in pkts {
            if let Payload::Tcp(seg) = p.payload {
                b.segment_arrives(p.src, p.dst, seg, SimTime(1));
            }
        }
        // Feed the dupacks back to a.
        let acks = std::mem::take(&mut b.out);
        assert!(acks.len() >= 3);
        for p in acks {
            if let Payload::Tcp(seg) = p.payload {
                a.segment_arrives(p.src, p.dst, seg, SimTime(2));
            }
        }
        // a should have fast-retransmitted the head segment.
        assert!(
            !a.out.is_empty(),
            "fast retransmit after 3 dupacks should emit the missing segment"
        );
        pump(&mut a, &mut b, SimTime(3));
        assert_eq!(b.recv(sb).len(), data.len());
    }

    #[test]
    fn window_limits_inflight_bytes() {
        // 1 MiB, ACKed round by round: slow start doubles cwnd each
        // round until it passes the peer's window, which then caps the
        // data in flight.
        let (mut a, mut b, ca, sb) = connected_pair();
        let total = 1 << 20;
        a.send(ca, vec![0u8; total], SimTime(1));
        let (mut max_flight, mut max_cwnd) = (0, 0);
        for round in 2.. {
            let s = a.sockets[ca.0].as_ref().expect("open");
            let flight = s.snd_nxt.wrapping_sub(s.snd_una);
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
        assert_eq!(b.recv(sb).len(), total);
    }

    #[test]
    fn rst_on_established_reports_reset() {
        let (mut a, mut b, ca, sb) = connected_pair();
        b.abort(sb);
        pump(&mut a, &mut b, SimTime(1));
        assert!(a.events.iter().any(|(_, e)| *e == TcpEvent::Reset(ca)));
        assert!(!a.is_open(ca));
    }

    #[test]
    fn rtt_estimation_updates_rto() {
        let mut s = TcpSocket::new(SockId(0), 0, (addr_a(), 1), (addr_b(), 2));
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
        let srtt = |a: &TcpLayer, ca: SockId| a.sockets[ca.0].as_ref().expect("open").srtt;
        let (mut a, mut b, ca, _sb) = connected_pair();
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
        let (mut a, mut b, ca, sb) = connected_pair();
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
        assert_eq!(b.recv(sb), data);
        assert_eq!(a.buffered(ca), 0, "everything acknowledged");
    }

    #[test]
    fn segment_inside_one_chunk_shares_its_storage() {
        let (mut a, _b, ca, _sb) = connected_pair();
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
        // One socket with 5000 bytes queued, then one corruption.
        let corrupted = |corrupt: fn(&mut TcpSocket)| {
            let (mut a, _b, ca, _sb) = connected_pair();
            a.send(ca, vec![3u8; 5000], SimTime(1));
            assert_eq!(a.check_invariants(), Ok(()));
            corrupt(a.sockets[ca.0].as_mut().expect("open"));
            a.check_invariants()
        };
        assert!(
            corrupted(|s| s.snd_nxt = s.snd_una.wrapping_sub(1)).is_err(),
            "snd_una past snd_nxt"
        );
        assert!(
            corrupted(|s| s.send_buf.len += 1).is_err(),
            "count out of step with chunks"
        );
        assert!(
            corrupted(|s| s.send_buf.chunks.push_back(Bytes::new())).is_err(),
            "empty chunk"
        );
        assert!(
            corrupted(|s| s.send_buf.consume(1)).is_err(),
            "flight exceeds the buffer"
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
