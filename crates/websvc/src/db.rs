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
//!
//! Each connection is a [`Conn`] whose inbox a [`FrameDecoder`] splits
//! into queries, so a query is read straight out of the connection's
//! receive buffer.

use crate::rubis::{execute, Query, RubisData, CACHE_HIT_COST};
use crate::secure::{Conn, Decoder, ServerSecurity};
use bytes::Bytes;
use netsim::fx::FxHashMap;
use netsim::host::{App, AppEvent, HostApi};
use netsim::obs::HistId;
use netsim::tcp::TcpEvent;
use netsim::{SimDuration, SockId};
use std::any::Any;

/// Splits a stream of length-prefixed frames (`u32 BE length |
/// payload`) into payloads, each a slice of the receive buffer.
#[derive(Default)]
pub struct FrameDecoder;

impl Decoder for FrameDecoder {
    type Item<'a> = &'a [u8];

    fn decode<'a>(&mut self, buf: &'a [u8]) -> Option<(usize, Option<&'a [u8]>)> {
        let len = u32::from_be_bytes(buf.get(..4)?.try_into().expect("4 bytes")) as usize;
        let payload = buf.get(4..4 + len)?;
        Some((4 + len, Some(payload)))
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

/// The database server application.
pub struct DbServerApp {
    port: u16,
    data: RubisData,
    /// Query text → framed result, shared with the replies it answers.
    cache: Option<FxHashMap<String, Bytes>>,
    security: ServerSecurity,
    conns: FxHashMap<SockId, Conn<FrameDecoder>>,
    pending: FxHashMap<u64, (SockId, Bytes)>,
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
}

/// Answers one query from `data` (or the query cache): the framed
/// result and the service time it costs. A cached result and its
/// replies share one buffer.
fn serve(
    data: &mut RubisData,
    cache: &mut Option<FxHashMap<String, Bytes>>,
    stats: &mut DbStats,
    text: &str,
) -> (Bytes, SimDuration) {
    stats.queries += 1;
    let Some(query) = Query::decode(text) else {
        return (
            frame(b"ERROR bad query").into(),
            SimDuration::from_micros(50),
        );
    };
    // Query cache.
    if let Some(cache) = cache {
        if !query.is_write() {
            if let Some(hit) = cache.get(text) {
                stats.cache_hits += 1;
                return (hit.clone(), CACHE_HIT_COST);
            }
        }
    }
    let cost = query.cost();
    let framed = Bytes::from(frame(execute(data, &query).as_bytes()));
    if query.is_write() {
        stats.writes += 1;
        if let Some(cache) = cache {
            // MySQL invalidates cached results for modified tables;
            // our single-table-set model clears everything.
            cache.clear();
        }
    } else if let Some(cache) = cache {
        cache.insert(text.to_owned(), framed.clone());
    }
    (framed, cost)
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
                self.conns.insert(sock, self.security.accept(sock));
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) => {
                let raw = api.tcp_recv(sock);
                let Some(conn) = self.conns.get_mut(&sock) else {
                    return;
                };
                if !conn.on_bytes(&raw, api) {
                    self.conns.remove(&sock);
                    api.tcp_abort(sock);
                    return;
                }
                while let Some(f) = conn.next_message() {
                    let text = String::from_utf8_lossy(f);
                    let (framed, cost) =
                        serve(&mut self.data, &mut self.cache, &mut self.stats, &text);
                    // The response goes out once the query's service
                    // time has been served by this host's CPU.
                    // `db.service` is the pure execution cost;
                    // `db.sojourn` includes time spent queued behind
                    // other work on this host's CPU.
                    let delay = api.cpu_charge(cost);
                    let m = api.metrics();
                    m.observe_cached(&mut self.service_hist, "db.service", cost.as_nanos());
                    m.observe_cached(&mut self.sojourn_hist, "db.sojourn", delay.as_nanos());
                    self.next_token += 1;
                    self.pending.insert(self.next_token, (sock, framed));
                    api.set_timer(delay, self.next_token);
                }
            }
            AppEvent::Tcp(TcpEvent::PeerClosed(sock))
            | AppEvent::Tcp(TcpEvent::Closed(sock))
            | AppEvent::Tcp(TcpEvent::Reset(sock)) => {
                self.conns.remove(&sock);
            }
            AppEvent::Timer { token } => {
                if let Some((sock, bytes)) = self.pending.remove(&token) {
                    if let Some(conn) = self.conns.get_mut(&sock) {
                        conn.send(bytes, api);
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

    #[test]
    fn frame_parser_handles_fragmentation_and_pipelining() {
        let mut p = Inbox::<FrameDecoder>::default();
        let mut wire = frame(b"first");
        wire.extend(frame(b"second"));
        let mut frames = Vec::new();
        for chunk in wire.chunks(3) {
            p.push(chunk);
            while let Some(f) = p.next_message() {
                frames.push(f.to_vec());
            }
        }
        assert_eq!(frames, vec![b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn empty_frame_round_trip() {
        let mut p = Inbox::<FrameDecoder>::default();
        p.push(&frame(b""));
        assert_eq!(p.next_message(), Some(&b""[..]));
        assert_eq!(p.next_message(), None);
    }
}
