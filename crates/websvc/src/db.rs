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
use crate::secure::{Conn, ServerSecurity};
use netsim::fx::FxHashMap;
use netsim::host::{App, AppEvent, HostApi};
use netsim::obs::HistId;
use netsim::tcp::TcpEvent;
use netsim::{SimDuration, SockId};
use std::any::Any;

/// Length-prefixed frame parser (`u32 BE length | payload`). Frames are
/// handed out as slices of the receive buffer, which sheds the frames
/// already returned once per [`FrameParser::push`].
#[derive(Default)]
pub struct FrameParser {
    buf: Vec<u8>,
    /// Start of the first frame not yet returned.
    start: usize,
}

impl FrameParser {
    /// Feeds received bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(data);
    }

    /// The payload of the next complete frame, if any.
    pub fn next_frame(&mut self) -> Option<&[u8]> {
        let rest = &self.buf[self.start..];
        let len = u32::from_be_bytes(rest.get(..4)?.try_into().expect("4 bytes")) as usize;
        let payload = rest.get(4..4 + len)?;
        self.start += 4 + len;
        Some(payload)
    }
}

/// Frames a payload.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
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
}

struct DbConn {
    conn: Conn,
    frames: FrameParser,
}

/// The database server application.
pub struct DbServerApp {
    port: u16,
    data: RubisData,
    /// Query text → framed result.
    cache: Option<FxHashMap<String, Vec<u8>>>,
    security: ServerSecurity,
    conns: FxHashMap<SockId, DbConn>,
    pending: FxHashMap<u64, (SockId, Vec<u8>)>,
    next_token: u64,
    service_hist: Option<HistId>,
    sojourn_hist: Option<HistId>,
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
            cache: query_cache.then(FxHashMap::default),
            security,
            conns: FxHashMap::default(),
            pending: FxHashMap::default(),
            next_token: 0,
            service_hist: None,
            sojourn_hist: None,
            stats: DbStats::default(),
        }
    }

    fn handle_query(&mut self, sock: SockId, text: &str, api: &mut HostApi) {
        self.stats.queries += 1;
        let Some(query) = Query::decode(text) else {
            self.respond(
                sock,
                frame(b"ERROR bad query"),
                SimDuration::from_micros(50),
                api,
            );
            return;
        };
        // Query cache.
        if let Some(cache) = &self.cache {
            if !query.is_write() {
                if let Some(hit) = cache.get(text) {
                    self.stats.cache_hits += 1;
                    let framed = hit.clone();
                    self.respond(sock, framed, CACHE_HIT_COST, api);
                    return;
                }
            }
        }
        let cost = query.cost();
        let framed = frame(execute(&mut self.data, &query).as_bytes());
        if query.is_write() {
            self.stats.writes += 1;
            if let Some(cache) = &mut self.cache {
                // MySQL invalidates cached results for modified tables;
                // our single-table-set model clears everything.
                cache.clear();
            }
        } else if let Some(cache) = &mut self.cache {
            cache.insert(text.to_owned(), framed.clone());
        }
        self.respond(sock, framed, cost, api);
    }

    /// Schedules the response after the query's service time has been
    /// served by this host's CPU.
    fn respond(&mut self, sock: SockId, framed: Vec<u8>, cost: SimDuration, api: &mut HostApi) {
        let delay = api.cpu_charge(cost);
        // `db.service` is the pure execution cost; `db.sojourn` includes
        // time spent queued behind other work on this host's CPU.
        let m = api.metrics();
        m.observe_cached(&mut self.service_hist, "db.service", cost.as_nanos());
        m.observe_cached(&mut self.sojourn_hist, "db.sojourn", delay.as_nanos());
        self.next_token += 1;
        let token = self.next_token;
        self.pending.insert(token, (sock, framed));
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
                self.conns.insert(
                    sock,
                    DbConn {
                        conn: self.security.accept(sock),
                        frames: FrameParser::default(),
                    },
                );
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) => {
                let raw = api.tcp_recv(sock);
                let Some(dc) = self.conns.get_mut(&sock) else {
                    return;
                };
                let out = dc.conn.on_bytes(raw, api);
                if out.failed {
                    self.conns.remove(&sock);
                    api.tcp_abort(sock);
                    return;
                }
                dc.frames.push(&out.app_data);
                // Answering a query never drops the connection, so the
                // parser goes back once its frames are handled.
                let mut frames = std::mem::take(&mut dc.frames);
                while let Some(f) = frames.next_frame() {
                    self.handle_query(sock, &String::from_utf8_lossy(f), api);
                }
                if let Some(dc) = self.conns.get_mut(&sock) {
                    dc.frames = frames;
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
                        dc.conn.send(bytes, api);
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
            p.push(chunk);
            while let Some(f) = p.next_frame() {
                frames.push(f.to_vec());
            }
        }
        assert_eq!(frames, vec![b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn empty_frame_round_trip() {
        let mut p = FrameParser::default();
        p.push(&frame(b""));
        assert_eq!(p.next_frame(), Some(&b""[..]));
        assert_eq!(p.next_frame(), None);
    }
}
