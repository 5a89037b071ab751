//! Load generators: the measurement tooling of §V-A.
//!
//! - [`JmeterApp`] — closed-loop concurrent HTTP clients (jmeter 2.3.4's
//!   role): N virtual users, each issuing a random RUBiS GET, waiting
//!   for the response, and immediately issuing the next.
//! - [`HttperfApp`] — open-loop fixed-rate generator (httperf 0.9.0's
//!   role): a new connection + request at a constant rate, response
//!   times recorded regardless of completion order.
//! - [`BulkSendApp`]/[`IperfServerApp`] — bulk-TCP throughput
//!   measurement (iperf 2.0.5's role): the sender keeps the pipe full
//!   for a fixed duration or a fixed byte count, the server counts
//!   received bytes.
//! - [`PingApp`] — ICMP RTT measurement, N echo requests at an interval.

use crate::http::{HttpRequest, ResponseDecoder};
use crate::rubis::WorkloadMix;
use crate::secure::Conn;
use netsim::fx::FxHashMap;
use netsim::host::{App, AppEvent, HostApi};
use netsim::obs::HistId;
use netsim::tcp::TcpEvent;
use netsim::{SimDuration, SimTime, SockId};
use std::any::Any;
use std::net::IpAddr;

/// Latency accumulator.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    samples: Vec<f64>,
}

impl LatencyStats {
    /// Records a sample in milliseconds.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_millis_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean (ms).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Sample standard deviation (ms).
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.samples.iter().map(|s| (s - m).powi(2)).sum::<f64>()
            / (self.samples.len() - 1) as f64;
        var.sqrt()
    }

    /// Percentile (0..=100) of the samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }
}

// ---------------------------------------------------------------------
// jmeter: closed-loop concurrent clients
// ---------------------------------------------------------------------

/// Per-sim-second buckets of successful vs. failed requests — the
/// goodput/error timeline the resilience benchmark plots around fault
/// injection.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Successful (HTTP 200) completions per sim-second.
    pub ok: Vec<u64>,
    /// Errors (non-200 responses, resets, connect failures) per
    /// sim-second.
    pub err: Vec<u64>,
}

impl Timeline {
    fn bucket(now: SimTime) -> usize {
        (now.as_nanos() / 1_000_000_000) as usize
    }

    fn bump(v: &mut Vec<u64>, b: usize) {
        if v.len() <= b {
            v.resize(b + 1, 0);
        }
        v[b] += 1;
    }

    fn record_ok(&mut self, now: SimTime) {
        Self::bump(&mut self.ok, Self::bucket(now));
    }

    fn record_err(&mut self, now: SimTime) {
        Self::bump(&mut self.err, Self::bucket(now));
    }

    /// Buckets recorded so far (max of both series).
    pub fn len(&self) -> usize {
        self.ok.len().max(self.err.len())
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ok.is_empty() && self.err.is_empty()
    }

    /// `(ok, err)` for bucket `b` (0 past the recorded end).
    pub fn at(&self, b: usize) -> (u64, u64) {
        (
            self.ok.get(b).copied().unwrap_or(0),
            self.err.get(b).copied().unwrap_or(0),
        )
    }
}

struct JmeterSession {
    /// The session's plain HTTP connection, while it has one.
    conn: Option<Conn<ResponseDecoder>>,
    sent_at: SimTime,
    outstanding: bool,
}

/// Closed-loop generator: `sessions` concurrent virtual users.
pub struct JmeterApp {
    target: (IpAddr, u16),
    sessions: Vec<JmeterSession>,
    by_sock: FxHashMap<SockId, usize>,
    mix: WorkloadMix,
    users: u32,
    items: u32,
    /// Measurement window start: completions before this are warm-up.
    pub measure_from: SimTime,
    /// Completed requests within the measurement window.
    pub completed: u64,
    /// Per-request latencies.
    pub latency: LatencyStats,
    /// Failed connections/requests (non-200 responses, resets,
    /// connect failures).
    pub errors: u64,
    /// Per-sim-second goodput/error buckets (recorded regardless of
    /// `measure_from`, so warm-up shows up too).
    pub timeline: Timeline,
    latency_hist: Option<HistId>,
}

/// Reconnect timer tokens are `JMETER_RECONNECT_BASE + session index`.
const JMETER_RECONNECT_BASE: u64 = 1000;
/// Backoff before a dead session dials again.
const JMETER_RECONNECT_DELAY: SimDuration = SimDuration::from_millis(200);

impl JmeterApp {
    /// Creates a generator with `sessions` concurrent users against
    /// `target`, drawing from `mix` over a dataset of `users`×`items`.
    pub fn new(
        target: (IpAddr, u16),
        sessions: usize,
        mix: WorkloadMix,
        users: u32,
        items: u32,
    ) -> Self {
        JmeterApp {
            target,
            sessions: (0..sessions)
                .map(|_| JmeterSession {
                    conn: None,
                    sent_at: SimTime::ZERO,
                    outstanding: false,
                })
                .collect(),
            by_sock: FxHashMap::default(),
            mix,
            users,
            items,
            measure_from: SimTime::ZERO,
            completed: 0,
            latency: LatencyStats::default(),
            errors: 0,
            timeline: Timeline::default(),
            latency_hist: None,
        }
    }

    fn connect_session(&mut self, idx: usize, api: &mut HostApi) {
        if self.sessions[idx].conn.is_some() {
            return;
        }
        if let Some(sock) = api.tcp_connect(self.target.0, self.target.1) {
            self.sessions[idx].conn = Some(Conn::plain(sock));
            self.sessions[idx].outstanding = false;
            self.by_sock.insert(sock, idx);
        } else {
            // No route right now (e.g. the LB is mid-restart): back off.
            api.set_timer(JMETER_RECONNECT_DELAY, JMETER_RECONNECT_BASE + idx as u64);
        }
    }

    /// Drops the session's socket and schedules a redial, so a crashed
    /// or restarted server does not permanently shrink the user count.
    fn session_died(&mut self, idx: usize, sock: SockId, api: &mut HostApi) {
        self.by_sock.remove(&sock);
        self.sessions[idx].conn = None;
        self.sessions[idx].outstanding = false;
        api.set_timer(JMETER_RECONNECT_DELAY, JMETER_RECONNECT_BASE + idx as u64);
    }

    fn fire_request(&mut self, idx: usize, api: &mut HostApi) {
        let draw = api.random_f64();
        let rng_val = api.random_u64();
        // Reads only when the deployment disables writes via the mix.
        let q = self.mix.sample(self.users, self.items, draw, rng_val);
        let req = HttpRequest::encode_get(&q.to_path());
        let s = &mut self.sessions[idx];
        if let Some(conn) = &mut s.conn {
            s.sent_at = api.now();
            s.outstanding = true;
            conn.send(req, api);
        }
    }
}

impl App for JmeterApp {
    fn start(&mut self, api: &mut HostApi) {
        for idx in 0..self.sessions.len() {
            self.connect_session(idx, api);
        }
    }

    fn reset(&mut self) {
        for s in &mut self.sessions {
            s.conn = None;
            s.outstanding = false;
        }
        self.by_sock.clear();
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Timer { token } if token >= JMETER_RECONNECT_BASE => {
                let idx = (token - JMETER_RECONNECT_BASE) as usize;
                if idx < self.sessions.len() {
                    self.connect_session(idx, api);
                }
            }
            AppEvent::Tcp(TcpEvent::Connected(sock)) => {
                if let Some(&idx) = self.by_sock.get(&sock) {
                    self.fire_request(idx, api);
                }
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) => {
                let Some(&idx) = self.by_sock.get(&sock) else {
                    return;
                };
                let raw = api.tcp_recv(sock);
                let (mut answered, mut all_ok) = (false, true);
                if let Some(conn) = &mut self.sessions[idx].conn {
                    conn.on_bytes(&raw, api);
                    while let Some(resp) = conn.next_message() {
                        answered = true;
                        all_ok &= resp.status == 200;
                    }
                }
                if answered && self.sessions[idx].outstanding {
                    let sent_at = self.sessions[idx].sent_at;
                    self.sessions[idx].outstanding = false;
                    // Only 200s count as goodput; a 502/503/504 from the
                    // proxy is a served-but-failed request.
                    if all_ok {
                        self.timeline.record_ok(api.now());
                        if api.now() >= self.measure_from {
                            self.completed += 1;
                            let rt = api.now().since(sent_at);
                            self.latency.record(rt);
                            api.metrics().observe_cached(
                                &mut self.latency_hist,
                                "client.latency",
                                rt.as_nanos(),
                            );
                        }
                    } else {
                        self.errors += 1;
                        self.timeline.record_err(api.now());
                        api.metrics().add_name("client.http_error", 1);
                    }
                    // Closed loop, zero think time: next request now.
                    self.fire_request(idx, api);
                }
            }
            AppEvent::Tcp(TcpEvent::ConnectFailed(sock)) | AppEvent::Tcp(TcpEvent::Reset(sock)) => {
                if let Some(&idx) = self.by_sock.get(&sock) {
                    self.errors += 1;
                    self.timeline.record_err(api.now());
                    self.session_died(idx, sock, api);
                }
            }
            AppEvent::Tcp(TcpEvent::PeerClosed(sock)) | AppEvent::Tcp(TcpEvent::Closed(sock)) => {
                // Orderly close (e.g. server keep-alive limit): redial
                // without counting an error.
                if let Some(&idx) = self.by_sock.get(&sock) {
                    self.session_died(idx, sock, api);
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// httperf: open-loop fixed-rate generator
// ---------------------------------------------------------------------

struct HttperfConn {
    conn: Conn<ResponseDecoder>,
    sent_at: SimTime,
    requested: bool,
}

/// Open-loop generator: one new connection + request every `1/rate`.
pub struct HttperfApp {
    target: (IpAddr, u16),
    /// Requests per second.
    rate: f64,
    mix: WorkloadMix,
    users: u32,
    items: u32,
    conns: FxHashMap<SockId, HttperfConn>,
    /// Measurement window start.
    pub measure_from: SimTime,
    /// Completed responses.
    pub completed: u64,
    /// Response times (request sent → response complete).
    pub latency: LatencyStats,
    /// Connection failures.
    pub errors: u64,
    latency_hist: Option<HistId>,
}

const TIMER_TICK: u64 = 1;

impl HttperfApp {
    /// Creates a generator issuing `rate` req/s against `target`.
    pub fn new(target: (IpAddr, u16), rate: f64, mix: WorkloadMix, users: u32, items: u32) -> Self {
        assert!(rate > 0.0);
        HttperfApp {
            target,
            rate,
            mix,
            users,
            items,
            conns: FxHashMap::default(),
            measure_from: SimTime::ZERO,
            completed: 0,
            latency: LatencyStats::default(),
            errors: 0,
            latency_hist: None,
        }
    }

    fn interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.rate)
    }
}

impl App for HttperfApp {
    fn start(&mut self, api: &mut HostApi) {
        api.set_timer(self.interval(), TIMER_TICK);
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Timer { token: TIMER_TICK } => {
                match api.tcp_connect(self.target.0, self.target.1) {
                    Some(sock) => {
                        self.conns.insert(
                            sock,
                            HttperfConn {
                                conn: Conn::plain(sock),
                                sent_at: SimTime::ZERO,
                                requested: false,
                            },
                        );
                    }
                    None => self.errors += 1,
                }
                api.set_timer(self.interval(), TIMER_TICK);
            }
            AppEvent::Tcp(TcpEvent::Connected(sock)) => {
                let draw = api.random_f64();
                let rng_val = api.random_u64();
                let q = self.mix.sample(self.users, self.items, draw, rng_val);
                let req = HttpRequest::encode_get(&q.to_path());
                if let Some(c) = self.conns.get_mut(&sock) {
                    c.sent_at = api.now();
                    c.requested = true;
                    c.conn.send(req, api);
                }
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) => {
                let raw = api.tcp_recv(sock);
                let Some(c) = self.conns.get_mut(&sock) else {
                    return;
                };
                c.conn.on_bytes(&raw, api);
                if c.conn.next_message().is_some() {
                    let sent_at = c.sent_at;
                    if c.requested && api.now() >= self.measure_from {
                        self.completed += 1;
                        let rt = api.now().since(sent_at);
                        self.latency.record(rt);
                        api.metrics().observe_cached(
                            &mut self.latency_hist,
                            "client.latency",
                            rt.as_nanos(),
                        );
                    }
                    self.conns.remove(&sock);
                    api.tcp_close(sock);
                }
            }
            AppEvent::Tcp(TcpEvent::ConnectFailed(sock)) | AppEvent::Tcp(TcpEvent::Reset(sock))
                if self.conns.remove(&sock).is_some() =>
            {
                self.errors += 1;
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// iperf: bulk TCP throughput
// ---------------------------------------------------------------------

/// Receives a bulk stream and counts bytes.
pub struct IperfServerApp {
    port: u16,
    /// Total payload bytes received.
    pub bytes: u64,
    /// First byte arrival.
    pub first_byte: Option<SimTime>,
    /// Last byte arrival.
    pub last_byte: Option<SimTime>,
}

impl IperfServerApp {
    /// Listens on `port`.
    pub fn new(port: u16) -> Self {
        IperfServerApp {
            port,
            bytes: 0,
            first_byte: None,
            last_byte: None,
        }
    }

    /// Measured goodput in Mbit/s over the receive interval.
    pub fn mbits_per_sec(&self) -> f64 {
        match (self.first_byte, self.last_byte) {
            (Some(a), Some(b)) if b > a => {
                (self.bytes as f64 * 8.0) / b.since(a).as_secs_f64() / 1e6
            }
            _ => 0.0,
        }
    }
}

impl App for IperfServerApp {
    fn start(&mut self, api: &mut HostApi) {
        assert!(api.tcp_listen(self.port));
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Data(sock)) = ev {
            let data = api.tcp_recv(sock);
            if !data.is_empty() {
                self.bytes += data.len() as u64;
                if self.first_byte.is_none() {
                    self.first_byte = Some(api.now());
                }
                self.last_byte = Some(api.now());
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const IPERF_CHUNK: usize = 64 * 1024;
/// The bytes every bulk sender writes: TCP keeps `&'static` slices of
/// it as send-buffer chunks, so topping up the buffer copies nothing.
static BULK_PAYLOAD: [u8; IPERF_CHUNK] = [0x55; IPERF_CHUNK];
const IPERF_HIGH_WATER: usize = 256 * 1024;
const TIMER_START: u64 = 2;
/// How often a bulk sender tops its send buffer back up.
const BULK_TICK: SimDuration = SimDuration::from_millis(5);

/// When a [`BulkSendApp`] stops sending and closes.
#[derive(Clone, Copy)]
enum Stop {
    /// Once this many bytes are handed to TCP.
    Bytes(u64),
    /// This long after the connection comes up; becomes `At` then.
    After(SimDuration),
    /// At the first top-up tick at or past this time.
    At(SimTime),
}

/// Sends a bulk stream, keeping the send buffer topped up (so the
/// window, not the application, is the limit), then closes: after
/// exactly `total` bytes ([`BulkSendApp::new`]; bulk-transfer
/// benchmarks and the bulk outcome tests), or once a fixed duration has
/// passed since the connection came up
/// ([`BulkSendApp::for_duration`]; iperf 2.0.5's role in FIG3).
pub struct BulkSendApp {
    target: (IpAddr, u16),
    stop: Stop,
    /// Wait this long before connecting (lets a HIP base exchange or
    /// Teredo qualification settle first).
    pub start_delay: SimDuration,
    sock: Option<SockId>,
    /// Bytes handed to TCP so far.
    pub bytes_sent: u64,
    done: bool,
}

impl BulkSendApp {
    /// Streams `total` bytes to `target` once connected, then closes.
    pub fn new(target: (IpAddr, u16), total: u64) -> Self {
        BulkSendApp {
            target,
            stop: Stop::Bytes(total),
            start_delay: SimDuration::ZERO,
            sock: None,
            bytes_sent: 0,
            done: false,
        }
    }

    /// Streams to `target` for `duration` once connected, then closes
    /// at the first top-up tick past it.
    pub fn for_duration(target: (IpAddr, u16), duration: SimDuration) -> Self {
        BulkSendApp {
            stop: Stop::After(duration),
            ..BulkSendApp::new(target, 0)
        }
    }

    fn connect_now(&mut self, api: &mut HostApi) {
        self.sock = api.tcp_connect(self.target.0, self.target.1);
        assert!(
            self.sock.is_some(),
            "bulk send: no source address for {}",
            self.target.0
        );
    }

    fn top_up(&mut self, api: &mut HostApi) {
        let Some(sock) = self.sock else { return };
        if self.done {
            return;
        }
        let total = match self.stop {
            Stop::Bytes(total) => total,
            Stop::At(end) if api.now() >= end && self.bytes_sent > 0 => {
                self.done = true;
                api.tcp_close(sock);
                return;
            }
            Stop::After(_) | Stop::At(_) => u64::MAX,
        };
        while self.bytes_sent < total && api.tcp_buffered(sock) < IPERF_HIGH_WATER {
            let n = (total - self.bytes_sent).min(IPERF_CHUNK as u64) as usize;
            api.tcp_send(sock, &BULK_PAYLOAD[..n]);
            self.bytes_sent += n as u64;
        }
        if self.bytes_sent >= total {
            self.done = true;
            api.tcp_close(sock);
        } else {
            api.set_timer(BULK_TICK, TIMER_TICK);
        }
    }
}

impl App for BulkSendApp {
    fn start(&mut self, api: &mut HostApi) {
        if self.start_delay == SimDuration::ZERO {
            self.connect_now(api);
        } else {
            api.set_timer(self.start_delay, TIMER_START);
        }
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Timer { token: TIMER_START } => self.connect_now(api),
            AppEvent::Tcp(TcpEvent::Connected(_)) => {
                if let Stop::After(d) = self.stop {
                    self.stop = Stop::At(api.now() + d);
                }
                self.top_up(api);
            }
            AppEvent::Timer { token: TIMER_TICK } => self.top_up(api),
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// ping: ICMP RTT
// ---------------------------------------------------------------------

/// Sends `count` echo requests and records RTTs (the paper's "average
/// response times for ICMP for 20 requests").
pub struct PingApp {
    target: IpAddr,
    count: u16,
    interval: SimDuration,
    ident: u16,
    payload_len: usize,
    /// Wait this long before the first echo request.
    pub start_delay: SimDuration,
    sent: u16,
    in_flight: FxHashMap<u16, SimTime>,
    /// RTT samples.
    pub rtts: LatencyStats,
    /// Echo replies received.
    pub received: u16,
}

impl PingApp {
    /// Pings `target` `count` times at `interval`.
    pub fn new(target: IpAddr, count: u16, interval: SimDuration, ident: u16) -> Self {
        PingApp {
            target,
            count,
            interval,
            ident,
            payload_len: 56,
            start_delay: SimDuration::ZERO,
            sent: 0,
            in_flight: FxHashMap::default(),
            rtts: LatencyStats::default(),
            received: 0,
        }
    }

    fn send_one(&mut self, api: &mut HostApi) {
        if self.sent >= self.count {
            return;
        }
        self.sent += 1;
        let seq = self.sent;
        self.in_flight.insert(seq, api.now());
        api.ping(self.target, self.ident, seq, self.payload_len);
        if self.sent < self.count {
            api.set_timer(self.interval, TIMER_TICK);
        }
    }
}

impl App for PingApp {
    fn start(&mut self, api: &mut HostApi) {
        if self.start_delay == SimDuration::ZERO {
            self.send_one(api);
        } else {
            api.set_timer(self.start_delay, TIMER_START);
        }
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Timer { token: TIMER_START } => self.send_one(api),
            AppEvent::Timer { token: TIMER_TICK } => self.send_one(api),
            AppEvent::EchoReply { ident, seq, .. } if ident == self.ident => {
                if let Some(sent_at) = self.in_flight.remove(&seq) {
                    self.received += 1;
                    let rtt = api.now().since(sent_at);
                    self.rtts.record(rtt);
                    api.metrics().observe_name("ping.rtt", rtt.as_nanos());
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_math() {
        let mut s = LatencyStats::default();
        for ms in [10u64, 20, 30] {
            s.record(SimDuration::from_millis(ms));
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 20.0).abs() < 1e-9);
        assert!((s.stddev() - 10.0).abs() < 1e-9);
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 30.0);
        assert_eq!(s.percentile(50.0), 20.0);
    }

    #[test]
    fn latency_stats_empty() {
        let s = LatencyStats::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
    }
}
