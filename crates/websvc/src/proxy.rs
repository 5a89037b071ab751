//! The reverse HTTP proxy / load balancer.
//!
//! Plays HAProxy 1.3's role from the paper's architecture (Figure 1):
//! consumers connect with plain HTTP from outside the cloud; the proxy
//! terminates their connections and forwards requests to the web-server
//! VMs using **round robin** ("a simple round robin algorithm was
//! employed to distribute the incoming load"). When the backends are
//! addressed by HIT/LSI, the proxy is exactly the paper's HIP
//! terminator: "HTTP load balancers translate non-HIP traffic into
//! HIP-based traffic inside the cloud" — end users need no HIP at all.
//!
//! # Failover
//!
//! Each backend runs a health state machine, HAProxy-style:
//!
//! ```text
//!   Healthy ──fail──▶ Suspect ──fail──▶ Ejected{until}
//!      ▲                 │success            │ backoff expires
//!      │◀────────────────┘                   ▼
//!      └──────probe connects────────── Probing ──fail──▶ Ejected (2×)
//! ```
//!
//! Failures are detected passively (connect failures, resets, connect
//! and response timeouts swept by a periodic tick) and actively (a TCP
//! connect probe once an ejection backoff expires — the equivalent of
//! HAProxy's L4 `check`; over HIP backends the probe re-runs the base
//! exchange, which is exactly the recovery we want to exercise).
//! Requests stranded on a failed backend are retried on the next
//! healthy one with exponential backoff, a bounded number of times;
//! clients see `502` (connect failure), `504` (response timeout) or
//! `503` (every backend ejected) instead of a hang.

use crate::http::{HttpResponse, RequestDecoder, ResponseDecoder};
use crate::secure::{ClientSecurity, Conn};
use bytes::Bytes;
use netsim::fx::FxHashMap;
use netsim::host::{App, AppEvent, HostApi};
use netsim::obs::CtrId;
use netsim::tcp::TcpEvent;
use netsim::{SimDuration, SimTime, SockId};
use std::any::Any;
use std::collections::VecDeque;
use std::net::IpAddr;

// Registry counters the proxy bumps, one per failover fact. Readers
// look them up by these names (`MetricsRegistry::counter_value`).

/// Non-healthy backends skipped by the round-robin picker.
const SKIPS: &str = "proxy.skip";
/// Requests forwarded to backends.
const FORWARDS: &str = "proxy.fwd";
/// Backend connections that failed (connect failure, reset, timeout).
pub const BACKEND_FAILS: &str = "proxy.backend_fail";
/// Backends moved to the ejected state.
pub const EJECTS: &str = "proxy.eject";
/// Backends returned to healthy (probe success or live traffic).
pub const RECOVERS: &str = "proxy.recover";
/// Requests re-dispatched to another backend after a failure.
pub const RETRIES: &str = "proxy.retry";
/// Requests answered 502/504 after their last retry.
const REQUEST_FAILS: &str = "proxy.request_fail";
/// Requests answered 503 because no backend was reachable.
pub const UNAVAILABLE: &str = "proxy.503";
/// Health-check probes launched.
pub const PROBES: &str = "proxy.probe";
/// Connect/response deadlines that expired.
pub const TIMEOUTS: &str = "proxy.timeout";
/// Histogram: how long requests waited for their backend link, in ns.
const QUEUE_WAIT: &str = "proxy.queue";

// Failover timing, in HAProxy's spirit: fail fast, back off
// exponentially, probe before readmitting.

/// House-keeping sweep period (timeout resolution).
const TICK: SimDuration = SimDuration::from_millis(100);
/// A backend connect pending longer than this has failed.
const CONNECT_TIMEOUT: SimDuration = SimDuration::from_millis(1000);
/// A forwarded request unanswered longer than this has failed.
const RESPONSE_TIMEOUT: SimDuration = SimDuration::from_millis(3000);
/// Consecutive failures before a backend is ejected.
const FAIL_THRESHOLD: u32 = 2;
/// First ejection backoff (doubles per ejection, capped at 8×).
const EJECT_BACKOFF: SimDuration = SimDuration::from_millis(1000);
/// Retries (on other backends) before a request is failed upward.
const MAX_RETRIES: u32 = 2;
/// First retry delay (doubles per attempt).
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(50);

/// Per-backend health state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Serving traffic.
    Healthy,
    /// One recent failure — still eligible, next failure ejects.
    Suspect,
    /// Out of rotation until the backoff expires.
    Ejected {
        /// When the ejection backoff expires and a probe may launch.
        until: SimTime,
    },
    /// A health-check connect is in flight; not yet eligible.
    Probing,
}

struct Backend {
    addr: (IpAddr, u16),
    health: Health,
    consecutive_fails: u32,
    /// Lifetime ejections — drives the exponential backoff.
    ejections: u32,
}

struct ClientSide {
    /// The consumer's plain HTTP connection.
    conn: Conn<RequestDecoder>,
    backend: Option<SockId>,
}

struct BackendSide {
    /// Set when the TCP connection comes up.
    conn: Option<Conn<ResponseDecoder>>,
    client: SockId,
    backend_idx: usize,
    /// Framed requests accepted before the link came up.
    queued: VecDeque<Bytes>,
    /// When the first queued request arrived (feeds the `proxy.queue` span).
    queued_at: Option<SimTime>,
    /// Framed requests sent and awaiting a response (front = oldest).
    /// Each shares its allocation with the send buffer.
    inflight: VecDeque<Bytes>,
    /// Retry attempts already consumed by the unanswered payload.
    attempts: u32,
    connect_deadline: Option<SimTime>,
    response_deadline: Option<SimTime>,
}

/// A request batch awaiting its retry backoff.
struct PendingRetry {
    client: SockId,
    reqs: Vec<Bytes>,
    attempts: u32,
    due: SimTime,
}

const TIMER_KIND_TICK: u64 = 1;

/// The reverse proxy application.
pub struct ProxyApp {
    listen_port: u16,
    backends: Vec<Backend>,
    /// Security toward the backends (the consumer side is always plain
    /// HTTP).
    security: ClientSecurity,
    rr: usize,
    clients: FxHashMap<SockId, ClientSide>,
    backend_conns: FxHashMap<SockId, BackendSide>,
    /// Probe socket → (backend index, connect deadline).
    probes: FxHashMap<SockId, (usize, SimTime)>,
    retries: Vec<PendingRetry>,
    /// Bumped on crash reset so stale timers from a previous boot are
    /// ignored (app timers are never cancelled and may outlive a crash).
    epoch: u64,
    forwards_ctr: Option<CtrId>,
}

impl ProxyApp {
    /// Creates a proxy listening on `listen_port`, balancing over
    /// `backends`.
    pub fn new(listen_port: u16, backends: Vec<(IpAddr, u16)>, security: ClientSecurity) -> Self {
        assert!(!backends.is_empty(), "proxy needs at least one backend");
        ProxyApp {
            listen_port,
            backends: backends
                .into_iter()
                .map(|addr| Backend {
                    addr,
                    health: Health::Healthy,
                    consecutive_fails: 0,
                    ejections: 0,
                })
                .collect(),
            security,
            rr: 0,
            clients: FxHashMap::default(),
            backend_conns: FxHashMap::default(),
            probes: FxHashMap::default(),
            retries: Vec::new(),
            epoch: 0,
            forwards_ctr: None,
        }
    }

    /// The health state of backend `idx` (tests/diagnostics).
    pub fn backend_health(&self, idx: usize) -> Health {
        self.backends[idx].health
    }

    /// Whether any backend is currently ejected or probing.
    pub fn any_backend_out(&self) -> bool {
        self.backends
            .iter()
            .any(|b| matches!(b.health, Health::Ejected { .. } | Health::Probing))
    }

    fn eligible(b: &Backend) -> bool {
        matches!(b.health, Health::Healthy | Health::Suspect)
    }

    /// Next eligible backend in round-robin order, counting how many
    /// non-healthy entries had to be skipped.
    fn pick_backend(&mut self, api: &mut HostApi) -> Option<usize> {
        let n = self.backends.len();
        for i in 0..n {
            let idx = (self.rr + i) % n;
            if Self::eligible(&self.backends[idx]) {
                self.rr = idx + 1;
                if i > 0 {
                    api.metrics().add_name(SKIPS, i as u64);
                }
                return Some(idx);
            }
        }
        None
    }

    fn record_failure(&mut self, idx: usize, api: &mut HostApi) {
        api.metrics().add_name(BACKEND_FAILS, 1);
        let now = api.now();
        let b = &mut self.backends[idx];
        b.consecutive_fails += 1;
        match b.health {
            Health::Ejected { .. } => {} // already out; keep the clock
            Health::Probing => {
                // Failed probe: back off harder.
                Self::eject(b, now, api);
            }
            Health::Healthy | Health::Suspect => {
                if b.consecutive_fails >= FAIL_THRESHOLD {
                    Self::eject(b, now, api);
                } else {
                    b.health = Health::Suspect;
                }
            }
        }
    }

    fn eject(b: &mut Backend, now: SimTime, api: &mut HostApi) {
        let backoff = SimDuration::from_nanos(EJECT_BACKOFF.as_nanos() << b.ejections.min(3));
        b.health = Health::Ejected {
            until: now + backoff,
        };
        b.ejections += 1;
        api.metrics().add_name(EJECTS, 1);
    }

    fn record_success(&mut self, idx: usize, api: &mut HostApi) {
        let b = &mut self.backends[idx];
        b.consecutive_fails = 0;
        if b.health != Health::Healthy {
            b.health = Health::Healthy;
            b.ejections = 0;
            api.metrics().add_name(RECOVERS, 1);
        }
    }

    /// Queues or sends one framed request on an (owned) backend link.
    fn send_on(link: &mut BackendSide, req: Bytes, now: SimTime, api: &mut HostApi) {
        if let Some(conn) = &mut link.conn {
            conn.send(req.clone(), api);
            link.inflight.push_back(req);
            if link.response_deadline.is_none() {
                link.response_deadline = Some(now + RESPONSE_TIMEOUT);
            }
        } else {
            if link.queued.is_empty() {
                link.queued_at = Some(now);
            }
            link.queued.push_back(req);
        }
    }

    /// Routes one framed request from `client`, opening a backend
    /// connection if needed. `attempts` counts prior failed dispatches.
    fn dispatch(&mut self, client: SockId, req: Bytes, attempts: u32, api: &mut HostApi) {
        if !self.clients.contains_key(&client) {
            return; // client went away while the request waited
        }
        api.metrics()
            .add_cached(&mut self.forwards_ctr, FORWARDS, 1);
        let now = api.now();
        // Reuse the client's bound backend connection if it is live.
        if let Some(bound) = self.clients.get(&client).and_then(|c| c.backend) {
            if let Some(link) = self.backend_conns.get_mut(&bound) {
                link.attempts = link.attempts.max(attempts);
                Self::send_on(link, req, now, api);
                return;
            }
        }
        let Some(idx) = self.pick_backend(api) else {
            // Every backend is ejected or probing: shed load gracefully.
            self.unavailable(client, "no healthy backend", api);
            return;
        };
        let (addr, port) = self.backends[idx].addr;
        let Some(sock) = api.tcp_connect(addr, port) else {
            self.unavailable(client, "no route to backend", api);
            return;
        };
        let mut link = BackendSide {
            conn: None,
            client,
            backend_idx: idx,
            queued: VecDeque::new(),
            queued_at: None,
            inflight: VecDeque::new(),
            attempts,
            connect_deadline: Some(now + CONNECT_TIMEOUT),
            response_deadline: None,
        };
        Self::send_on(&mut link, req, now, api);
        self.backend_conns.insert(sock, link);
        if let Some(c) = self.clients.get_mut(&client) {
            c.backend = Some(sock);
        }
    }

    /// Answers `client` 503: no backend can take its request.
    fn unavailable(&mut self, client: SockId, msg: &str, api: &mut HostApi) {
        api.metrics().add_name(UNAVAILABLE, 1);
        if let Some(c) = self.clients.get_mut(&client) {
            c.conn.send(HttpResponse::error(503, msg).encode(), api);
        }
    }

    /// A backend connection failed (`status`: 502 connect / 504
    /// timeout): mark the backend, unbind the client, and retry or fail
    /// the unanswered requests.
    fn fail_backend_conn(&mut self, sock: SockId, status: u16, api: &mut HostApi) {
        let Some(link) = self.backend_conns.remove(&sock) else {
            return;
        };
        self.record_failure(link.backend_idx, api);
        if let Some(c) = self.clients.get_mut(&link.client) {
            if c.backend == Some(sock) {
                c.backend = None;
            }
        }
        let unanswered: Vec<Bytes> = link.inflight.into_iter().chain(link.queued).collect();
        if unanswered.is_empty() {
            return;
        }
        let attempts = link.attempts + 1;
        if attempts > MAX_RETRIES {
            // Out of retries: answer every stranded request explicitly.
            api.metrics()
                .add_name(REQUEST_FAILS, unanswered.len() as u64);
            if let Some(c) = self.clients.get_mut(&link.client) {
                let msg = if status == 504 {
                    "backend timeout"
                } else {
                    "backend down"
                };
                let resp = Bytes::from(HttpResponse::error(status, msg).encode());
                for _ in &unanswered {
                    c.conn.send(resp.clone(), api);
                }
            }
            return;
        }
        api.metrics().add_name(RETRIES, unanswered.len() as u64);
        let backoff = SimDuration::from_nanos(RETRY_BACKOFF.as_nanos() << (attempts - 1).min(8));
        self.retries.push(PendingRetry {
            client: link.client,
            reqs: unanswered,
            attempts,
            due: api.now() + backoff,
        });
    }

    fn start_probe(&mut self, idx: usize, api: &mut HostApi) {
        let (addr, port) = self.backends[idx].addr;
        let Some(sock) = api.tcp_connect(addr, port) else {
            return;
        };
        self.backends[idx].health = Health::Probing;
        self.probes.insert(sock, (idx, api.now() + CONNECT_TIMEOUT));
        api.metrics().add_name(PROBES, 1);
    }

    /// Periodic sweep: due retries, expired connect/response deadlines,
    /// expired probes, and ejection backoffs ready for a probe.
    fn tick(&mut self, api: &mut HostApi) {
        let now = api.now();

        // Due retries, in arrival order.
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.retries.len() {
            if self.retries[i].due <= now {
                due.push(self.retries.remove(i));
            } else {
                i += 1;
            }
        }
        for r in due {
            for req in r.reqs {
                self.dispatch(r.client, req, r.attempts, api);
            }
        }

        // Expired deadlines. Sort socket ids so the sweep order (and
        // therefore the event sequence) is independent of HashMap order.
        let mut expired: Vec<(SockId, u16)> = self
            .backend_conns
            .iter()
            .filter_map(|(s, l)| {
                let connect_late = l.conn.is_none() && l.connect_deadline.is_some_and(|d| d <= now);
                let response_late = l.response_deadline.is_some_and(|d| d <= now);
                if connect_late {
                    Some((*s, 502))
                } else if response_late {
                    Some((*s, 504))
                } else {
                    None
                }
            })
            .collect();
        expired.sort_by_key(|(s, _)| *s);
        for (sock, status) in expired {
            api.metrics().add_name(TIMEOUTS, 1);
            api.tcp_abort(sock);
            self.fail_backend_conn(sock, status, api);
        }

        // Probes that never connected.
        let mut dead_probes: Vec<SockId> = self
            .probes
            .iter()
            .filter_map(|(s, (_, d))| (*d <= now).then_some(*s))
            .collect();
        dead_probes.sort();
        for sock in dead_probes {
            let (idx, _) = self.probes.remove(&sock).expect("collected above");
            api.tcp_abort(sock);
            self.record_failure(idx, api);
        }

        // Ejection backoffs that have expired: probe before readmitting.
        for idx in 0..self.backends.len() {
            if matches!(self.backends[idx].health, Health::Ejected { until } if until <= now) {
                self.start_probe(idx, api);
            }
        }

        api.set_timer(TICK, (self.epoch << 8) | TIMER_KIND_TICK);
    }
}

impl App for ProxyApp {
    fn start(&mut self, api: &mut HostApi) {
        assert!(api.tcp_listen(self.listen_port), "proxy port taken");
        api.set_timer(TICK, (self.epoch << 8) | TIMER_KIND_TICK);
    }

    fn reset(&mut self) {
        self.epoch += 1; // stale timers from the old boot are ignored
        self.clients.clear();
        self.backend_conns.clear();
        self.probes.clear();
        self.retries.clear();
        self.rr = 0;
        for b in &mut self.backends {
            b.health = Health::Healthy;
            b.consecutive_fails = 0;
            b.ejections = 0;
        }
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Timer { token } => {
                if token >> 8 != self.epoch {
                    return;
                }
                if token & 0xff == TIMER_KIND_TICK {
                    self.tick(api);
                }
            }
            AppEvent::Tcp(TcpEvent::Accepted { sock, .. }) => {
                self.clients.insert(
                    sock,
                    ClientSide {
                        conn: Conn::plain(sock),
                        backend: None,
                    },
                );
            }
            AppEvent::Tcp(TcpEvent::Connected(sock)) => {
                if let Some((idx, _)) = self.probes.remove(&sock) {
                    // Probe succeeded: the backend accepts connections
                    // again (over HIP this also proved a fresh BEX).
                    self.record_success(idx, api);
                    api.tcp_close(sock);
                    return;
                }
                // A backend link came up: secure it, flush.
                let Some(link) = self.backend_conns.get_mut(&sock) else {
                    return;
                };
                link.conn = Some(self.security.connect(sock, api));
                link.connect_deadline = None;
                if let Some(t0) = link.queued_at.take() {
                    let waited = api.now().since(t0).as_nanos();
                    api.metrics().observe_name(QUEUE_WAIT, waited);
                }
                let now = api.now();
                while let Some(req) = link.queued.pop_front() {
                    Self::send_on(link, req, now, api);
                }
                let idx = link.backend_idx;
                self.record_success(idx, api);
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) => {
                let raw = api.tcp_recv(sock);
                if let Some(link) = self.backend_conns.get_mut(&sock) {
                    // Backend → client direction.
                    // Data never arrives before Connected.
                    let Some(conn) = &mut link.conn else {
                        return;
                    };
                    // A failed channel is not acted on here: its
                    // requests time out and are retried.
                    conn.on_bytes(&raw, api);
                    let client = link.client;
                    let idx = link.backend_idx;
                    let mut answered = false;
                    while let Some(resp) = conn.next_message() {
                        answered = true;
                        link.inflight.pop_front();
                        link.attempts = 0;
                        if let Some(c) = self.clients.get_mut(&client) {
                            c.conn.send(resp.encode(), api);
                        }
                    }
                    if answered {
                        link.response_deadline =
                            if link.inflight.is_empty() && link.queued.is_empty() {
                                None
                            } else {
                                Some(api.now() + RESPONSE_TIMEOUT)
                            };
                        self.record_success(idx, api);
                    }
                } else if let Some(c) = self.clients.get_mut(&sock) {
                    // Client → backend direction: parse requests so we
                    // re-frame cleanly (header rewriting would go here).
                    // Dispatching never drops the client.
                    c.conn.on_bytes(&raw, api);
                    while let Some(req) = self
                        .clients
                        .get_mut(&sock)
                        .and_then(|c| c.conn.next_message())
                    {
                        self.dispatch(sock, req.encode().into(), 0, api);
                    }
                }
            }
            AppEvent::Tcp(TcpEvent::ConnectFailed(sock)) => {
                if let Some((idx, _)) = self.probes.remove(&sock) {
                    self.record_failure(idx, api);
                } else {
                    self.fail_backend_conn(sock, 502, api);
                }
            }
            AppEvent::Tcp(TcpEvent::Reset(sock)) => {
                if let Some((idx, _)) = self.probes.remove(&sock) {
                    self.record_failure(idx, api);
                } else if self.backend_conns.contains_key(&sock) {
                    self.fail_backend_conn(sock, 502, api);
                } else if let Some(c) = self.clients.remove(&sock) {
                    if let Some(b) = c.backend {
                        api.tcp_close(b);
                        self.backend_conns.remove(&b);
                    }
                }
            }
            AppEvent::Tcp(TcpEvent::PeerClosed(sock)) | AppEvent::Tcp(TcpEvent::Closed(sock)) => {
                if self.probes.remove(&sock).is_some() {
                    // Probe socket wound down; nothing to do.
                } else if let Some(link) = self.backend_conns.get(&sock) {
                    if link.inflight.is_empty() && link.queued.is_empty() {
                        // Clean keep-alive close: unbind, no failure.
                        let client = link.client;
                        self.backend_conns.remove(&sock);
                        if let Some(c) = self.clients.get_mut(&client) {
                            if c.backend == Some(sock) {
                                c.backend = None;
                            }
                        }
                    } else {
                        // Closed with unanswered requests: a failure.
                        self.fail_backend_conn(sock, 502, api);
                    }
                } else if let Some(c) = self.clients.remove(&sock) {
                    if let Some(b) = c.backend {
                        api.tcp_close(b);
                        self.backend_conns.remove(&b);
                    }
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
    use crate::secure::Inbox;
    use netsim::packet::v4;

    fn three_backend_proxy() -> ProxyApp {
        ProxyApp::new(
            80,
            vec![
                (v4(10, 1, 0, 2), 80),
                (v4(10, 1, 0, 3), 80),
                (v4(10, 1, 0, 4), 80),
            ],
            ClientSecurity::Plain,
        )
    }

    #[test]
    fn eligibility_skips_ejected_and_probing() {
        let mut p = three_backend_proxy();
        assert!(ProxyApp::eligible(&p.backends[0]));
        p.backends[1].health = Health::Ejected { until: SimTime(1) };
        assert!(!ProxyApp::eligible(&p.backends[1]));
        p.backends[2].health = Health::Probing;
        assert!(!ProxyApp::eligible(&p.backends[2]));
        p.backends[0].health = Health::Suspect;
        assert!(ProxyApp::eligible(&p.backends[0]), "suspect still serves");
    }

    #[test]
    fn reset_reboots_health_and_epoch() {
        let mut p = three_backend_proxy();
        p.backends[0].health = Health::Ejected { until: SimTime(99) };
        p.backends[0].ejections = 3;
        let e0 = p.epoch;
        p.reset();
        assert_eq!(p.epoch, e0 + 1);
        assert_eq!(p.backends[0].health, Health::Healthy);
        assert_eq!(p.backends[0].ejections, 0);
    }

    #[test]
    fn proxied_response_repeats_content_length() {
        // The proxy forwards `encode(parse(backend response))`, and
        // `encode` writes its own Content-Length after the parsed one,
        // so every proxied response carries the line twice. The FIG2
        // and fig_resilience goldens were produced with these bytes, so
        // the codec keeps them; sending one line is a model change.
        let mut p = Inbox::<ResponseDecoder>::default();
        p.push(&HttpResponse::ok(b"hi".to_vec()).encode());
        let forwarded = p.next_message().expect("complete response").encode();
        assert_eq!(
            forwarded,
            b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi"
        );
    }

    #[test]
    #[should_panic]
    fn needs_backends() {
        let _ = ProxyApp::new(80, vec![], ClientSecurity::Plain);
    }
}
