//! The web tier: a lightweight application server.
//!
//! Accepts HTTP from clients (or the reverse proxy), maps each request
//! path onto a RUBiS database query, forwards it over a small pool of
//! persistent database connections (plain, TLS, or HIP-addressed), and
//! renders the result into an HTML-ish response. Per-request application
//! work is charged to the VM's CPU — on a micro instance this is what
//! saturates first, exactly as in the paper's Figure 2.

use crate::db::{frame, FrameDecoder};
use crate::http::{HttpRequest, HttpResponse, RequestDecoder};
use crate::rubis::Query;
use crate::secure::{ClientSecurity, Conn, ServerSecurity};
use netsim::fx::FxHashMap;
use netsim::host::{App, AppEvent, HostApi};
use netsim::obs::HistId;
use netsim::tcp::TcpEvent;
use netsim::{SimDuration, SockId};
use std::any::Any;
use std::collections::VecDeque;
use std::net::IpAddr;

/// Persistent DB connections per web server.
const POOL_SIZE: usize = 4;
/// Per-request application work (parsing, templating), calibrated for
/// the FIG2 deployment.
const REQUEST_COST: SimDuration = SimDuration::from_micros(1500);
/// Extra bytes of HTML wrapped around each DB result.
const HTML_PADDING: usize = 1024;
static HTML_PAD: [u8; HTML_PADDING] = [b' '; HTML_PADDING];

/// Web-server deployment settings.
pub struct WebConfig {
    /// HTTP listen port.
    pub port: u16,
    /// Database address (locator, HIT or LSI — scenario-dependent).
    pub db_addr: IpAddr,
    /// Database port.
    pub db_port: u16,
    /// Security on the DB link: plain for Basic and HIP (when `db_addr`
    /// is a HIT or LSI), TLS for SSL.
    pub db_security: ClientSecurity,
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
            db_security: ClientSecurity::Plain,
            frontend_security: ServerSecurity::Plain,
        }
    }
}

/// Counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WebStats {
    /// HTTP requests parsed.
    pub requests: u64,
}

struct DbLink {
    /// Set when the TCP connection comes up.
    conn: Option<Conn<FrameDecoder>>,
    /// FIFO of client sockets whose query answers are due on this link.
    inflight: VecDeque<SockId>,
}

/// The web server application.
pub struct WebServerApp {
    config: WebConfig,
    clients: FxHashMap<SockId, Conn<RequestDecoder>>,
    db_links: Vec<SockId>,
    db_state: FxHashMap<SockId, DbLink>,
    /// Queries waiting for a DB link to come up.
    backlog: VecDeque<(SockId, Query)>,
    rr: usize,
    pending: FxHashMap<u64, (SockId, Vec<u8>)>,
    next_token: u64,
    /// A pool-refill timer is already scheduled.
    reconnect_pending: bool,
    render_hist: Option<HistId>,
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
            clients: FxHashMap::default(),
            db_links: Vec::new(),
            db_state: FxHashMap::default(),
            backlog: VecDeque::new(),
            rr: 0,
            pending: FxHashMap::default(),
            next_token: 0,
            reconnect_pending: false,
            render_hist: None,
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

    /// Dials DB connections until the pool holds `POOL_SIZE`, and
    /// schedules a retry if a dial fails: the first fill at start and
    /// every refill after a link is lost.
    fn refill_pool(&mut self, api: &mut HostApi) {
        self.reconnect_pending = false;
        while self.db_links.len() < POOL_SIZE {
            let Some(sock) = api.tcp_connect(self.config.db_addr, self.config.db_port) else {
                break;
            };
            self.db_links.push(sock);
            self.db_state.insert(
                sock,
                DbLink {
                    conn: None,
                    inflight: VecDeque::new(),
                },
            );
        }
        if self.db_links.len() < POOL_SIZE && !self.reconnect_pending {
            self.reconnect_pending = true;
            api.set_timer(RECONNECT_DELAY, RECONNECT_TOKEN);
        }
    }

    /// Backlog cap: beyond this, new queries are answered 503 instead
    /// of queued (protects memory when the DB tier is down).
    const MAX_BACKLOG: usize = 1024;

    fn dispatch_query(&mut self, client: SockId, query: Query, api: &mut HostApi) {
        // Round-robin over connected links.
        let n = self.db_links.len();
        for probe in 0..n {
            let sock = self.db_links[(self.rr + probe) % n];
            if let Some(link) = self.db_state.get_mut(&sock) {
                if let Some(conn) = &mut link.conn {
                    self.rr = (self.rr + probe + 1) % n;
                    link.inflight.push_back(client);
                    conn.send(frame(query.encode().as_bytes()), api);
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
            let resp = HttpResponse::error(500, "database unavailable").encode();
            if let Some(c) = self.clients.get_mut(&client) {
                c.send(resp, api);
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

    fn on_client_request(&mut self, sock: SockId, req: HttpRequest, api: &mut HostApi) {
        self.stats.requests += 1;
        match Query::from_path(&req.path) {
            Some(q) => self.dispatch_query(sock, q, api),
            None => {
                let resp = HttpResponse::error(404, "no such page").encode();
                if let Some(c) = self.clients.get_mut(&sock) {
                    c.send(resp, api);
                }
            }
        }
    }
}

impl App for WebServerApp {
    fn start(&mut self, api: &mut HostApi) {
        assert!(api.tcp_listen(self.config.port), "web port taken");
        self.refill_pool(api);
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
                let conn = self.config.db_security.connect(sock, api);
                self.db_state.get_mut(&sock).expect("checked").conn = Some(conn);
                self.drain_backlog(api);
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) if self.db_state.contains_key(&sock) => {
                let raw = api.tcp_recv(sock);
                let link = self.db_state.get_mut(&sock).expect("checked");
                // Data never arrives before Connected.
                let Some(conn) = &mut link.conn else {
                    return;
                };
                // A failed channel is not acted on here: the proxy's
                // response timeout retries the requests it strands.
                conn.on_bytes(&raw, api);
                while let Some(body) = conn.next_message() {
                    let Some(client) = link.inflight.pop_front() else {
                        continue;
                    };
                    if !self.clients.contains_key(&client) {
                        continue; // client went away
                    }
                    // Render: wrap the DB result in HTML padding and
                    // charge app work.
                    let html: [&[u8]; 4] = [b"<html><body>", body, &HTML_PAD, b"</body></html>"];
                    let resp = HttpResponse::encode_ok(&html);
                    let delay = api.cpu_charge(REQUEST_COST);
                    let m = api.metrics();
                    m.observe_cached(&mut self.render_hist, "web.render", delay.as_nanos());
                    self.next_token += 1;
                    self.pending.insert(self.next_token, (client, resp));
                    api.set_timer(delay, self.next_token);
                }
            }
            AppEvent::Tcp(TcpEvent::ConnectFailed(sock)) if self.db_state.contains_key(&sock) => {
                self.db_link_lost(sock, api);
            }
            // --- client side ---
            AppEvent::Tcp(TcpEvent::Accepted { sock, .. }) => {
                let conn = self.config.frontend_security.accept(sock);
                self.clients.insert(sock, conn);
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) => {
                let raw = api.tcp_recv(sock);
                let Some(c) = self.clients.get_mut(&sock) else {
                    return;
                };
                if !c.on_bytes(&raw, api) {
                    self.clients.remove(&sock);
                    api.tcp_abort(sock);
                    return;
                }
                // Serving a request never drops the client.
                while let Some(req) = self.clients.get_mut(&sock).and_then(Conn::next_message) {
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
            AppEvent::Timer {
                token: RECONNECT_TOKEN,
            } => self.refill_pool(api),
            AppEvent::Timer { token } => {
                if let Some((client, resp)) = self.pending.remove(&token) {
                    if let Some(c) = self.clients.get_mut(&client) {
                        c.send(resp, api);
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
