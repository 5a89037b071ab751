//! The web tier: a lightweight application server.
//!
//! Accepts HTTP from clients (or the reverse proxy), maps each request
//! path onto a RUBiS database query, forwards it over a small pool of
//! persistent database connections (plain, TLS, or HIP-addressed), and
//! renders the result into an HTML-ish response. Per-request application
//! work is charged to the VM's CPU — on a micro instance this is what
//! saturates first, exactly as in the paper's Figure 2.

use crate::db::{frame, FrameParser, ServerSecurity};
use crate::http::{HttpRequest, HttpResponse, RequestParser};
use crate::rubis::Query;
use crate::secure::{Channel, Conn};
use netsim::host::{App, AppEvent, HostApi};
use netsim::tcp::TcpEvent;
use netsim::{SimDuration, SockId};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::net::IpAddr;
use tls_sim::TlsCosts;

/// Client-side transport security for the DB link.
pub enum DbSecurity {
    /// Plain TCP (Basic) or HIP (when `db_addr` is a HIT/LSI).
    Plain,
    /// TLS to the DB (SSL scenario), trusting `ca`.
    Tls {
        /// Trusted CA for the DB's certificate.
        ca: sim_crypto::rsa::RsaPublicKey,
        /// CPU cost table for the crypto.
        costs: TlsCosts,
    },
}

/// Persistent DB connections per web server.
const POOL_SIZE: usize = 4;
/// Per-request application work (parsing, templating), calibrated for
/// the FIG2 deployment.
const REQUEST_COST: SimDuration = SimDuration::from_micros(1500);
/// Extra bytes of HTML wrapped around each DB result.
const HTML_PADDING: usize = 1024;

/// Web-server deployment settings.
pub struct WebConfig {
    /// HTTP listen port.
    pub port: u16,
    /// Database address (locator, HIT or LSI — scenario-dependent).
    pub db_addr: IpAddr,
    /// Database port.
    pub db_port: u16,
    /// Security on the DB link.
    pub db_security: DbSecurity,
    /// Security offered to frontend clients (the proxy's backend link):
    /// plain for Basic/HIP (HIP encrypts below), TLS for SSL.
    pub frontend_security: ServerSecurity,
}

impl WebConfig {
    /// Port 80 and plain links on both sides.
    pub fn new(db_addr: IpAddr, db_port: u16) -> Self {
        WebConfig {
            port: 80,
            db_addr,
            db_port,
            db_security: DbSecurity::Plain,
            frontend_security: ServerSecurity::Plain,
        }
    }
}

/// Counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WebStats {
    /// HTTP requests parsed.
    pub requests: u64,
    /// HTTP responses sent.
    pub responses: u64,
    /// Unroutable paths / backend failures.
    pub errors: u64,
    /// Queries dispatched to the database tier.
    pub db_queries: u64,
}

struct ClientConn {
    conn: Conn,
    parser: RequestParser,
}

struct DbLink {
    conn: Conn,
    frames: FrameParser,
    /// FIFO of client sockets whose query answers are due on this link.
    inflight: VecDeque<SockId>,
    connected: bool,
}

/// The web server application.
pub struct WebServerApp {
    config: WebConfig,
    clients: HashMap<SockId, ClientConn>,
    db_links: Vec<SockId>,
    db_state: HashMap<SockId, DbLink>,
    /// Queries waiting for a DB link to come up.
    backlog: VecDeque<(SockId, Query)>,
    rr: usize,
    pending: HashMap<u64, (SockId, Vec<u8>)>,
    next_token: u64,
    /// A pool-refill timer is already scheduled.
    reconnect_pending: bool,
    /// Counters.
    pub stats: WebStats,
}

/// Timer token for DB-pool refill (render tokens start at 1).
const RECONNECT_TOKEN: u64 = 0;
/// Backoff before re-dialing lost DB connections.
const RECONNECT_DELAY: SimDuration = SimDuration::from_millis(500);

impl WebServerApp {
    /// Creates the app.
    pub fn new(config: WebConfig) -> Self {
        WebServerApp {
            config,
            clients: HashMap::new(),
            db_links: Vec::new(),
            db_state: HashMap::new(),
            backlog: VecDeque::new(),
            rr: 0,
            pending: HashMap::new(),
            next_token: 0,
            reconnect_pending: false,
            stats: WebStats::default(),
        }
    }

    /// A DB link died: schedule a pool refill (the DB may be mid-crash,
    /// so back off instead of redialing immediately).
    fn db_link_lost(&mut self, sock: SockId, api: &mut HostApi) {
        self.db_state.remove(&sock);
        self.db_links.retain(|s| *s != sock);
        if !self.reconnect_pending {
            self.reconnect_pending = true;
            api.set_timer(RECONNECT_DELAY, RECONNECT_TOKEN);
        }
    }

    /// Tops the pool back up to `POOL_SIZE` connections.
    fn refill_pool(&mut self, api: &mut HostApi) {
        self.reconnect_pending = false;
        while self.db_links.len() < POOL_SIZE {
            let Some(sock) = api.tcp_connect(self.config.db_addr, self.config.db_port) else {
                break;
            };
            self.db_links.push(sock);
            self.db_state.insert(
                sock,
                DbLink { conn: Conn::new(sock, Channel::plain()), frames: FrameParser::default(), inflight: VecDeque::new(), connected: false },
            );
        }
        if self.db_links.len() < POOL_SIZE && !self.reconnect_pending {
            self.reconnect_pending = true;
            api.set_timer(RECONNECT_DELAY, RECONNECT_TOKEN);
        }
    }

    fn open_db_links(&mut self, api: &mut HostApi) {
        for _ in 0..POOL_SIZE {
            let Some(sock) = api.tcp_connect(self.config.db_addr, self.config.db_port) else {
                continue;
            };
            let channel = match &self.config.db_security {
                DbSecurity::Plain => Channel::plain(),
                // The TLS ClientHello is sent once the TCP connection is
                // up (see Connected handling below).
                DbSecurity::Tls { .. } => Channel::plain(), // placeholder, replaced on connect
            };
            self.db_links.push(sock);
            self.db_state.insert(
                sock,
                DbLink { conn: Conn::new(sock, channel), frames: FrameParser::default(), inflight: VecDeque::new(), connected: false },
            );
        }
    }

    /// Backlog cap: beyond this, new queries are answered 503 instead
    /// of queued (protects memory when the DB tier is down).
    const MAX_BACKLOG: usize = 1024;

    fn dispatch_query(&mut self, client: SockId, query: Query, api: &mut HostApi) {
        self.stats.db_queries += 1;
        // Round-robin over connected links.
        let n = self.db_links.len();
        for probe in 0..n {
            let sock = self.db_links[(self.rr + probe) % n];
            if let Some(link) = self.db_state.get_mut(&sock) {
                if link.connected {
                    self.rr = (self.rr + probe + 1) % n;
                    link.inflight.push_back(client);
                    link.conn.send(&frame(query.encode().as_bytes()), api);
                    return;
                }
            }
        }
        // No connected link. Queue while connections are still being
        // attempted (or a pool refill is scheduled); fail fast once the
        // pool is gone for good or the queue is full.
        if (n > 0 || self.reconnect_pending) && self.backlog.len() < Self::MAX_BACKLOG {
            self.backlog.push_back((client, query));
        } else {
            self.stats.errors += 1;
            let resp = HttpResponse::error(500, "database unavailable").encode();
            if let Some(c) = self.clients.get_mut(&client) {
                c.conn.send(&resp, api);
            }
        }
    }

    fn drain_backlog(&mut self, api: &mut HostApi) {
        while let Some((client, query)) = self.backlog.pop_front() {
            // dispatch_query re-queues if still nothing is connected; to
            // avoid a busy loop, stop after one failed attempt.
            let before = self.backlog.len();
            self.dispatch_query(client, query, api);
            if self.backlog.len() > before {
                break;
            }
        }
    }

    fn on_db_response(&mut self, db_sock: SockId, body: Vec<u8>, api: &mut HostApi) {
        let Some(link) = self.db_state.get_mut(&db_sock) else { return };
        let Some(client) = link.inflight.pop_front() else { return };
        if !self.clients.contains_key(&client) {
            return; // client went away
        }
        // Render: wrap the DB result in HTML padding and charge app work.
        let mut html = Vec::with_capacity(body.len() + HTML_PADDING);
        html.extend_from_slice(b"<html><body>");
        html.extend_from_slice(&body);
        html.extend(std::iter::repeat_n(b' ', HTML_PADDING));
        html.extend_from_slice(b"</body></html>");
        let resp = HttpResponse::ok(html).encode();
        let delay = api.cpu_charge(REQUEST_COST);
        api.metrics().observe_name("web.render", delay.as_nanos());
        self.next_token += 1;
        self.pending.insert(self.next_token, (client, resp));
        api.set_timer(delay, self.next_token);
    }

    fn on_client_request(&mut self, sock: SockId, req: HttpRequest, api: &mut HostApi) {
        self.stats.requests += 1;
        match Query::from_path(&req.path) {
            Some(q) => self.dispatch_query(sock, q, api),
            None => {
                self.stats.errors += 1;
                let resp = HttpResponse::error(404, "no such page").encode();
                if let Some(c) = self.clients.get_mut(&sock) {
                    c.conn.send(&resp, api);
                }
            }
        }
    }
}

impl App for WebServerApp {
    fn start(&mut self, api: &mut HostApi) {
        assert!(api.tcp_listen(self.config.port), "web port taken");
        self.open_db_links(api);
    }

    fn reset(&mut self) {
        self.clients.clear();
        self.db_links.clear();
        self.db_state.clear();
        self.backlog.clear();
        self.pending.clear();
        self.rr = 0;
        self.reconnect_pending = false;
        // next_token keeps counting so a pre-crash render timer that
        // fires after restart cannot collide with a new token.
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            // --- DB side ---
            AppEvent::Tcp(TcpEvent::Connected(sock)) if self.db_state.contains_key(&sock) => {
                // Install the real channel now the TCP stream exists.
                let channel = match &self.config.db_security {
                    DbSecurity::Plain => Channel::plain(),
                    DbSecurity::Tls { ca, costs } => Channel::tls_client(ca.clone(), *costs, sock, api),
                };
                if let Some(link) = self.db_state.get_mut(&sock) {
                    link.conn = Conn::new(sock, channel);
                    link.connected = true;
                }
                self.drain_backlog(api);
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) if self.db_state.contains_key(&sock) => {
                let raw = api.tcp_recv(sock);
                let link = self.db_state.get_mut(&sock).expect("checked");
                let out = link.conn.on_bytes(&raw, api);
                let frames = link.frames.feed(&out.app_data);
                for f in frames {
                    self.on_db_response(sock, f, api);
                }
            }
            AppEvent::Tcp(TcpEvent::ConnectFailed(sock)) if self.db_state.contains_key(&sock) => {
                self.stats.errors += 1;
                self.db_link_lost(sock, api);
            }
            // --- client side ---
            AppEvent::Tcp(TcpEvent::Accepted { sock, .. }) => {
                let channel = match &self.config.frontend_security {
                    ServerSecurity::Plain => Channel::plain(),
                    ServerSecurity::Tls { cert, keys, costs } => {
                        Channel::tls_server(cert.clone(), keys.clone(), *costs)
                    }
                };
                self.clients.insert(
                    sock,
                    ClientConn { conn: Conn::new(sock, channel), parser: RequestParser::default() },
                );
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) => {
                let raw = api.tcp_recv(sock);
                let mut requests = Vec::new();
                if let Some(c) = self.clients.get_mut(&sock) {
                    let out = c.conn.on_bytes(&raw, api);
                    if out.failed {
                        self.clients.remove(&sock);
                        api.tcp_abort(sock);
                        return;
                    }
                    c.parser.push(&out.app_data);
                    while let Some(req) = c.parser.next_request() {
                        requests.push(req);
                    }
                }
                for req in requests {
                    self.on_client_request(sock, req, api);
                }
            }
            AppEvent::Tcp(TcpEvent::PeerClosed(sock))
            | AppEvent::Tcp(TcpEvent::Closed(sock))
            | AppEvent::Tcp(TcpEvent::Reset(sock)) => {
                if self.db_state.contains_key(&sock) {
                    // Clients whose answers were due on this link stay
                    // unanswered; the proxy's response timeout retries
                    // them on another web VM.
                    self.db_link_lost(sock, api);
                } else {
                    self.clients.remove(&sock);
                }
            }
            AppEvent::Timer { token: RECONNECT_TOKEN } => self.refill_pool(api),
            AppEvent::Timer { token } => {
                if let Some((client, resp)) = self.pending.remove(&token) {
                    if let Some(c) = self.clients.get_mut(&client) {
                        self.stats.responses += 1;
                        c.conn.send(&resp, api);
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
