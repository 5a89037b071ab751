//! The database tier: a MySQL-5.1-shaped server application.
//!
//! Speaks a length-prefixed query protocol over TCP (optionally inside
//! TLS, or transparently over HIP when addressed by HIT/LSI — the
//! channel abstraction makes all three identical here). Queries execute
//! against real RUBiS tables; service time is charged to the host CPU
//! from the calibrated per-query costs ([`Query::cost`]), and an
//! optional **query cache** (the paper enables MySQL query caching for
//! its httperf response-time experiment, §V-B) short-circuits repeated
//! reads.

use crate::rubis::{execute, Query, RubisData, CACHE_HIT_COST};
use crate::secure::{Channel, Conn};
use netsim::host::{App, AppEvent, HostApi};
use netsim::tcp::TcpEvent;
use netsim::{SimDuration, SockId};
use sim_crypto::rsa::RsaKeyPair;
use std::any::Any;
use std::collections::HashMap;
use tls_sim::{Certificate, TlsCosts};

/// Length-prefixed frame parser (`u32 BE length | payload`).
#[derive(Default)]
pub struct FrameParser {
    buf: Vec<u8>,
}

impl FrameParser {
    /// Feeds bytes, returning completed frames.
    pub fn feed(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        self.buf.extend_from_slice(data);
        let mut out = Vec::new();
        loop {
            if self.buf.len() < 4 {
                break;
            }
            let len = u32::from_be_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
            if self.buf.len() < 4 + len {
                break;
            }
            out.push(self.buf[4..4 + len].to_vec());
            self.buf.drain(..4 + len);
        }
        out
    }
}

/// Frames a payload.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Server-side transport security template (per-connection sessions are
/// cloned from this).
#[allow(clippy::large_enum_variant)] // one per server app
pub enum ServerSecurity {
    /// Plain TCP (Basic and HIP scenarios).
    Plain,
    /// TLS with this certificate/key (SSL scenario).
    Tls {
        /// The server certificate presented to clients.
        cert: Certificate,
        /// The matching private key.
        keys: RsaKeyPair,
        /// CPU cost table for the crypto.
        costs: TlsCosts,
    },
}

/// Aggregate statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DbStats {
    /// Queries received.
    pub queries: u64,
    /// Served from the query cache.
    pub cache_hits: u64,
    /// Mutating queries executed (each clears the cache).
    pub writes: u64,
    /// Malformed queries rejected.
    pub errors: u64,
}

struct DbConn {
    conn: Conn,
    frames: FrameParser,
}

/// The database server application.
pub struct DbServerApp {
    port: u16,
    data: RubisData,
    cache: Option<HashMap<String, String>>,
    security: ServerSecurity,
    conns: HashMap<SockId, DbConn>,
    pending: HashMap<u64, (SockId, Vec<u8>)>,
    next_token: u64,
    /// Counters.
    pub stats: DbStats,
}

impl DbServerApp {
    /// Creates a server on `port` over `data`. `query_cache` mirrors
    /// MySQL's `query_cache_type` switch.
    pub fn new(port: u16, data: RubisData, query_cache: bool, security: ServerSecurity) -> Self {
        DbServerApp {
            port,
            data,
            cache: query_cache.then(HashMap::new),
            security,
            conns: HashMap::new(),
            pending: HashMap::new(),
            next_token: 0,
            stats: DbStats::default(),
        }
    }

    fn make_channel(&self) -> Channel {
        match &self.security {
            ServerSecurity::Plain => Channel::plain(),
            ServerSecurity::Tls { cert, keys, costs } => {
                Channel::tls_server(cert.clone(), keys.clone(), *costs)
            }
        }
    }

    fn handle_query(&mut self, sock: SockId, text: &str, api: &mut HostApi) {
        self.stats.queries += 1;
        let Some(query) = Query::decode(text) else {
            self.stats.errors += 1;
            self.respond(sock, b"ERROR bad query".to_vec(), SimDuration::from_micros(50), api);
            return;
        };
        // Query cache.
        if let Some(cache) = &self.cache {
            if !query.is_write() {
                if let Some(hit) = cache.get(text) {
                    self.stats.cache_hits += 1;
                    let body = hit.clone().into_bytes();
                    self.respond(sock, body, CACHE_HIT_COST, api);
                    return;
                }
            }
        }
        let cost = query.cost();
        let result = execute(&mut self.data, &query);
        if query.is_write() {
            self.stats.writes += 1;
            if let Some(cache) = &mut self.cache {
                // MySQL invalidates cached results for modified tables;
                // our single-table-set model clears everything.
                cache.clear();
            }
        } else if let Some(cache) = &mut self.cache {
            cache.insert(text.to_owned(), result.clone());
        }
        self.respond(sock, result.into_bytes(), cost, api);
    }

    /// Schedules the response after the query's service time has been
    /// served by this host's CPU.
    fn respond(&mut self, sock: SockId, body: Vec<u8>, cost: SimDuration, api: &mut HostApi) {
        let delay = api.cpu_charge(cost);
        // `db.service` is the pure execution cost; `db.sojourn` includes
        // time spent queued behind other work on this host's CPU.
        api.metrics().observe_name("db.service", cost.as_nanos());
        api.metrics().observe_name("db.sojourn", delay.as_nanos());
        self.next_token += 1;
        let token = self.next_token;
        self.pending.insert(token, (sock, frame(&body)));
        api.set_timer(delay, token);
    }
}

impl App for DbServerApp {
    fn start(&mut self, api: &mut HostApi) {
        assert!(api.tcp_listen(self.port), "db port {} taken", self.port);
    }

    fn reset(&mut self) {
        self.conns.clear();
        self.pending.clear();
        // Data, cache, stats and next_token survive: the table files
        // outlive a crash, and monotonic tokens keep stale service
        // timers from matching post-restart work.
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Tcp(TcpEvent::Accepted { sock, .. }) => {
                let channel = self.make_channel();
                self.conns.insert(sock, DbConn { conn: Conn::new(sock, channel), frames: FrameParser::default() });
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) => {
                let raw = api.tcp_recv(sock);
                let Some(dc) = self.conns.get_mut(&sock) else { return };
                let out = dc.conn.on_bytes(&raw, api);
                if out.failed {
                    self.conns.remove(&sock);
                    api.tcp_abort(sock);
                    return;
                }
                let frames = dc.frames.feed(&out.app_data);
                for f in frames {
                    let text = String::from_utf8_lossy(&f).into_owned();
                    self.handle_query(sock, &text, api);
                }
            }
            AppEvent::Tcp(TcpEvent::PeerClosed(sock))
            | AppEvent::Tcp(TcpEvent::Closed(sock))
            | AppEvent::Tcp(TcpEvent::Reset(sock)) => {
                self.conns.remove(&sock);
            }
            AppEvent::Timer { token } => {
                if let Some((sock, bytes)) = self.pending.remove(&token) {
                    if let Some(dc) = self.conns.get_mut(&sock) {
                        dc.conn.send(&bytes, api);
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

    #[test]
    fn frame_parser_handles_fragmentation_and_pipelining() {
        let mut p = FrameParser::default();
        let mut wire = frame(b"first");
        wire.extend(frame(b"second"));
        let mut frames = Vec::new();
        for chunk in wire.chunks(3) {
            frames.extend(p.feed(chunk));
        }
        assert_eq!(frames, vec![b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn empty_frame_round_trip() {
        let mut p = FrameParser::default();
        assert_eq!(p.feed(&frame(b"")), vec![Vec::<u8>::new()]);
    }
}
