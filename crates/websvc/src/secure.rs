//! Per-connection transport security: the three scenarios of §V-B.
//!
//! - **Basic** — plain TCP over locators, no protection.
//! - **HIP** — plain TCP at the application, addressed to a HIT or LSI;
//!   the host's HIP shim encrypts below (the application is unmodified,
//!   which is HIP's deployment story).
//! - **SSL** — TLS session layered inside the TCP stream by the
//!   application, as OpenSSL/OpenVPN would.
//!
//! This module is the only place that knows how a link end is secured.
//! A deployment picks a [`ClientSecurity`] for each dialing end and a
//! [`ServerSecurity`] for each listening end; apps turn them into a
//! [`Conn`] when a connection comes up and then send and receive
//! through it the same way in all three scenarios.
//!
//! Every app-side connection is a [`Conn`], the plain ones included
//! (the proxy's consumer side, the load generators): [`Conn::plain`].
//! A `Conn` owns the connection's receive buffer, an [`Inbox`]: a
//! [`BytesMut`] of application bytes (decrypted ones, under TLS) and the
//! [`Decoder`] that splits them into messages, an HTTP request or
//! response ([`crate::http`]) or a database frame ([`crate::db`]).
//! Only a TLS session holds bytes besides: the part of a record that
//! has not fully arrived, and the app data sent before its handshake
//! completes, which the session itself queues and sends.

use bytes::{Bytes, BytesMut};
use netsim::host::HostApi;
use netsim::{SimDuration, SockId};
use sim_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use tls_sim::{Certificate, TlsCosts, TlsSession};

/// Which protection a deployment uses (drives addressing + channels).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// No security.
    Basic,
    /// HIP + ESP below the transport; apps address peers by HIT.
    Hip,
    /// HIP with legacy LSI addressing (what the paper actually measured:
    /// "all the experiments involving HIP were carried out with LSIs").
    HipLsi,
    /// TLS in the application byte stream.
    Ssl,
}

impl Scenario {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Basic => "Basic",
            Scenario::Hip => "HIP (HIT)",
            Scenario::HipLsi => "HIP",
            Scenario::Ssl => "SSL",
        }
    }

    /// Does this scenario use a TLS channel inside the stream?
    pub fn uses_tls(self) -> bool {
        self == Scenario::Ssl
    }

    /// Does this scenario rely on the HIP shim?
    pub fn uses_hip(self) -> bool {
        matches!(self, Scenario::Hip | Scenario::HipLsi)
    }
}

/// How the client end of a RUBiS link is secured.
#[derive(Clone)]
pub enum ClientSecurity {
    /// Plain TCP: Basic, or HIP when the peer is addressed by HIT or LSI
    /// (the shim encrypts below).
    Plain,
    /// TLS inside the stream (SSL scenario), trusting certificates
    /// issued by `ca`.
    Tls {
        /// Trusted CA for the server's certificate.
        ca: RsaPublicKey,
        /// CPU cost table for the crypto.
        costs: TlsCosts,
    },
}

impl ClientSecurity {
    /// The connection state of `sock`, which has just come up
    /// ([`TcpEvent::Connected`](netsim::tcp::TcpEvent::Connected)). A
    /// TLS client sends its ClientHello here.
    pub fn connect<D: Decoder>(&self, sock: SockId, api: &mut HostApi) -> Conn<D> {
        let channel = match self {
            ClientSecurity::Plain => Channel::Plain,
            ClientSecurity::Tls { ca, costs } => {
                let mut session = TlsSession::client(ca.clone(), *costs);
                let hello = session.start_handshake(api.ctx.rng());
                api.tcp_send(sock, hello);
                Channel::Tls(Box::new(session))
            }
        };
        Conn::new(sock, channel)
    }
}

/// How the server end of a RUBiS link is secured: a template each
/// accepted connection gets its own session from.
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

impl ServerSecurity {
    /// The connection state of the just-accepted `sock`.
    pub fn accept<D: Decoder>(&self, sock: SockId) -> Conn<D> {
        let channel = match self {
            ServerSecurity::Plain => Channel::Plain,
            ServerSecurity::Tls { cert, keys, costs } => Channel::Tls(Box::new(
                TlsSession::server(cert.clone(), keys.clone(), *costs),
            )),
        };
        Conn::new(sock, channel)
    }
}

/// Security state of one TCP connection.
enum Channel {
    /// Pass-through (Basic and HIP scenarios: HIP encrypts below).
    Plain,
    /// TLS endpoint (SSL scenario).
    Tls(Box<TlsSession>),
}

/// A framing of a byte stream into messages, in the shape of
/// tokio-util's `Decoder`: it reads the front of the received bytes and
/// keeps whatever it learned about an incomplete message between calls.
pub trait Decoder: Default {
    /// A decoded message; it may borrow the received bytes.
    type Item<'a>;

    /// The message at the front of `buf`: `None` while it is
    /// incomplete, else how many bytes it spans and what they hold
    /// (`None` for bytes that are consumed without yielding a message).
    fn decode<'a>(&mut self, buf: &'a [u8]) -> Option<(usize, Option<Self::Item<'a>>)>;
}

/// Received bytes waiting for a message boundary, and the decoder that
/// finds it. A message [`Inbox::next_message`] returns may borrow the
/// buffer; its bytes are consumed by the next call to `next_message` or
/// `push`.
#[derive(Default)]
pub struct Inbox<D> {
    buf: BytesMut,
    decoder: D,
    /// Length of the message returned last, not yet consumed.
    taken: usize,
}

impl<D: Decoder> Inbox<D> {
    /// Appends received bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.consume_taken();
        self.buf.extend_from_slice(data);
    }

    /// The next complete message, if any.
    pub fn next_message(&mut self) -> Option<D::Item<'_>> {
        self.consume_taken();
        let (len, item) = self.decoder.decode(&self.buf)?;
        self.taken = len;
        item
    }

    fn consume_taken(&mut self) {
        self.buf.advance(self.taken);
        self.taken = 0;
    }
}

/// One app-side connection: its socket, its channel and the inbox its
/// messages are decoded from. Built by [`ClientSecurity::connect`],
/// [`ServerSecurity::accept`] and [`Conn::plain`].
pub struct Conn<D> {
    sock: SockId,
    channel: Channel,
    inbox: Inbox<D>,
}

impl<D: Decoder> Conn<D> {
    fn new(sock: SockId, channel: Channel) -> Self {
        Conn {
            sock,
            channel,
            inbox: Inbox::default(),
        }
    }

    /// A plain connection on `sock`; creating it sends nothing.
    pub fn plain(sock: SockId) -> Self {
        Conn::new(sock, Channel::Plain)
    }

    /// Sends application data. A plain connection sends `data` without
    /// copying it, so a [`Bytes`] the caller keeps (the proxy's retry
    /// copy) shares one allocation with the send buffer. A TLS session
    /// seals a copy, or queues it until its handshake completes.
    pub fn send(&mut self, data: impl AsRef<[u8]> + Into<Bytes>, api: &mut HostApi) {
        match &mut self.channel {
            Channel::Plain => api.tcp_send(self.sock, data),
            Channel::Tls(session) => {
                if let Some((wire, work)) = session.seal(data.as_ref()) {
                    if work > SimDuration::ZERO {
                        api.cpu_charge(work);
                    }
                    api.tcp_send(self.sock, wire);
                }
            }
        }
    }

    /// Feeds a TCP read: through the TLS session, if any (which sends
    /// its handshake replies, then the app data queued during the
    /// handshake, and charges its crypto work to this host's CPU), into
    /// the inbox. Returns false on the read that fails the channel; a
    /// failed channel takes no more bytes.
    pub fn on_bytes(&mut self, raw: &[u8], api: &mut HostApi) -> bool {
        let Channel::Tls(session) = &mut self.channel else {
            self.inbox.push(raw);
            return true;
        };
        let out = session.on_bytes(raw, api.ctx.rng());
        // Charge the crypto work to this host's CPU: later service work
        // queues behind it, which is how security cost turns into
        // latency/throughput effects.
        if out.work > SimDuration::ZERO {
            api.cpu_charge(out.work);
        }
        if !out.to_peer.is_empty() {
            api.tcp_send(self.sock, out.to_peer);
        }
        self.inbox.push(&out.app_data);
        out.error.is_none()
    }

    /// The next complete message received, if any.
    pub fn next_message(&mut self) -> Option<D::Item<'_>> {
        self.inbox.next_message()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{frame, FrameDecoder};
    use crate::http::{HttpRequest, HttpResponse, RequestDecoder, ResponseDecoder};
    use cloudsim::{CloudTopology, Flavor, VmHandle};
    use netsim::host::{App, AppEvent};
    use netsim::tcp::TcpEvent;
    use netsim::Host;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::any::Any;
    use std::fmt::Debug;
    use tls_sim::CertificateAuthority;

    #[test]
    fn scenario_labels() {
        assert_eq!(Scenario::Basic.label(), "Basic");
        assert_eq!(Scenario::HipLsi.label(), "HIP");
        assert_eq!(Scenario::Ssl.label(), "SSL");
        assert!(Scenario::Ssl.uses_tls());
        assert!(!Scenario::Ssl.uses_hip());
        assert!(Scenario::HipLsi.uses_hip());
        assert!(Scenario::Hip.uses_hip());
        assert!(!Scenario::Basic.uses_hip());
    }

    #[test]
    fn plain_channel_is_transparent() {
        let conn: Conn<FrameDecoder> = ServerSecurity::Plain.accept(SockId(7));
        assert!(matches!(conn.channel, Channel::Plain));
        assert!(ready(&conn));
    }

    /// True once `conn` sends at once: always over plain TCP, after the
    /// handshake under TLS.
    fn ready<D>(conn: &Conn<D>) -> bool {
        match &conn.channel {
            Channel::Plain => true,
            Channel::Tls(session) => session.is_established(),
        }
    }

    const PORT: u16 = 443;

    /// One end of a TCP connection that keeps every byte it receives
    /// for the test to feed to a [`Conn`].
    #[derive(Default)]
    struct Tap {
        dial: Option<std::net::IpAddr>,
        sock: Option<SockId>,
        received: Vec<u8>,
    }

    impl App for Tap {
        fn start(&mut self, api: &mut HostApi) {
            match self.dial {
                Some(addr) => assert!(api.tcp_connect(addr, PORT).is_some()),
                None => assert!(api.tcp_listen(PORT)),
            }
        }

        fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
            match ev {
                AppEvent::Tcp(TcpEvent::Accepted { sock, .. })
                | AppEvent::Tcp(TcpEvent::Connected(sock)) => self.sock = Some(sock),
                AppEvent::Tcp(TcpEvent::Data(sock)) => self.received.extend(api.tcp_recv(sock)),
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

    /// Two hosts with a TCP connection between their taps, and the TLS
    /// templates of its two ends.
    struct Pair {
        topo: CloudTopology,
        client: VmHandle,
        server: VmHandle,
        client_tls: ClientSecurity,
        server_tls: ServerSecurity,
    }

    impl Pair {
        fn new() -> Pair {
            let mut rng = StdRng::seed_from_u64(41);
            let ca = CertificateAuthority::new(512, &mut rng);
            let keys = RsaKeyPair::generate(512, &mut rng);
            let cert = ca.issue("srv", keys.public());
            let costs = TlsCosts {
                rsa_sign: SimDuration::from_micros(900),
                rsa_verify: SimDuration::from_micros(60),
                dh_compute: SimDuration::from_micros(700),
                sym_per_packet: SimDuration::from_micros(3),
                sym_per_byte_ns: 7.0,
            };
            let mut topo = CloudTopology::new(43);
            let server = topo.add_external_host("server", Flavor::Dedicated);
            let client = topo.add_external_host("client", Flavor::Dedicated);
            topo.host_mut(server).add_app(Box::new(Tap::default()));
            topo.host_mut(client).add_app(Box::new(Tap {
                dial: Some(server.addr),
                ..Tap::default()
            }));
            let mut pair = Pair {
                topo,
                client,
                server,
                client_tls: ClientSecurity::Tls {
                    ca: ca.public().clone(),
                    costs,
                },
                server_tls: ServerSecurity::Tls { cert, keys, costs },
            };
            pair.run();
            pair
        }

        /// Lets the network deliver what was sent.
        fn run(&mut self) {
            let until = self.topo.sim.now() + SimDuration::from_millis(200);
            self.topo.sim.run_until(until);
        }

        /// Runs `f` as `vm`'s tap, with a [`HostApi`].
        fn with_api<T>(&mut self, vm: VmHandle, f: impl FnOnce(&mut Tap, &mut HostApi) -> T) -> T {
            let mut out = None;
            self.topo.sim.with_node_ctx(vm.node, |node, ctx| {
                let host = node.as_any_mut().downcast_mut::<Host>().expect("host");
                host.with_api(0, ctx, |app, api| {
                    let tap = app.as_any_mut().downcast_mut::<Tap>().expect("tap");
                    out = Some(f(tap, api));
                });
            });
            out.expect("the tap ran")
        }

        fn busy(&self, vm: VmHandle) -> SimDuration {
            self.topo.host(vm).core.cpu.busy_time()
        }
    }

    /// Feeds what `vm`'s tap received to `conn`, `cut` bytes per read
    /// (decoding after each read), and returns the messages decoded and
    /// how many reads reported a failed channel.
    fn feed<D: Decoder>(
        pair: &mut Pair,
        vm: VmHandle,
        conn: &mut Conn<D>,
        cut: usize,
    ) -> (Vec<String>, usize)
    where
        for<'a> D::Item<'a>: Debug,
    {
        pair.with_api(vm, |tap, api| {
            let (mut messages, mut failures) = (Vec::new(), 0);
            for read in std::mem::take(&mut tap.received).chunks(cut) {
                failures += usize::from(!conn.on_bytes(read, api));
                while let Some(m) = conn.next_message() {
                    messages.push(format!("{m:?}"));
                }
            }
            (messages, failures)
        })
    }

    /// What one TLS exchange makes of its byte streams.
    #[derive(Debug, PartialEq)]
    struct Exchange {
        /// Messages each end decoded (client, server).
        decoded: (Vec<String>, Vec<String>),
        /// Every byte each end's tap received, the handshake replies
        /// among them (client, server).
        wire: (Vec<u8>, Vec<u8>),
        /// CPU work charged to each host (client, server).
        busy: (SimDuration, SimDuration),
    }

    /// A handshake, then pipelined app data both ways: the client sends
    /// the first of `to_server` at once (its session queues it while
    /// the handshake runs) and the rest once its end is up; the server
    /// answers with `to_client` once its end is up. Each end is fed
    /// every read cut into `cut`-byte pieces.
    fn exchange<C: Decoder, S: Decoder>(
        to_server: &[Vec<u8>],
        to_client: &[Vec<u8>],
        cut: usize,
    ) -> Exchange
    where
        for<'a> C::Item<'a>: Debug,
        for<'a> S::Item<'a>: Debug,
    {
        let mut pair = Pair::new();
        let tls = pair.client_tls.clone();
        let (client, server) = (pair.client, pair.server);
        let (first, rest) = to_server.split_first().expect("a message");
        let mut c: Conn<C> = pair.with_api(client, |tap, api| {
            let mut conn = tls.connect(tap.sock.expect("connected"), api);
            conn.send(first.clone(), api);
            conn
        });
        let sock = pair.with_api(server, |tap, _| tap.sock.expect("accepted"));
        let mut s: Conn<S> = pair.server_tls.accept(sock);
        let (mut decoded, mut wire) = ((vec![], vec![]), (vec![], vec![]));
        let (mut answered, mut sent_rest) = (false, false);
        for _ in 0..8 {
            pair.run();
            wire.1
                .extend_from_slice(&pair.with_api(server, |tap, _| tap.received.clone()));
            let (got, failures) = feed(&mut pair, server, &mut s, cut);
            assert_eq!(failures, 0);
            decoded.1.extend(got);
            if ready(&s) && !answered {
                answered = true;
                pair.with_api(server, |_, api| {
                    for m in to_client {
                        s.send(m.clone(), api);
                    }
                });
            }
            wire.0
                .extend_from_slice(&pair.with_api(client, |tap, _| tap.received.clone()));
            let (got, failures) = feed(&mut pair, client, &mut c, cut);
            assert_eq!(failures, 0);
            decoded.0.extend(got);
            if ready(&c) && !sent_rest {
                sent_rest = true;
                pair.with_api(client, |_, api| {
                    for m in rest {
                        c.send(m.clone(), api);
                    }
                });
            }
        }
        assert!(answered && sent_rest, "the handshake completed");
        Exchange {
            decoded,
            wire,
            busy: (pair.busy(client), pair.busy(server)),
        }
    }

    #[test]
    fn tls_conn_decodes_the_same_messages_from_any_cut() {
        let request = |path: &str| HttpRequest::get(path).encode();
        let response = |body: &[u8]| HttpResponse::ok(body.to_vec()).encode();
        // Several messages per send, one message over two sends, and an
        // empty frame: record and message boundaries fall apart.
        let frames = [
            [frame(b"SELECT 1"), frame(b"")].concat(),
            frame(&[7; 3000])[..1000].to_vec(),
            [&frame(&[7; 3000])[1000..], &frame(b"last")[..]].concat(),
        ];
        // Two HTTP streams, each sent in two pieces cut inside the blank
        // line that ends a head.
        let in_two = |stream: Vec<u8>, head: usize| {
            let at = 2 + stream
                .windows(4)
                .enumerate()
                .filter(|(_, w)| w == b"\r\n\r\n")
                .nth(head)
                .expect("head")
                .0;
            [stream[..at].to_vec(), stream[at..].to_vec()]
        };
        let requests = in_two(
            [request("/a"), request("/b?id=2"), request("/c")].concat(),
            1,
        );
        let responses = in_two(
            [response(b"one"), response(&[b'x'; 2000]), response(b"")].concat(),
            1,
        );
        // A web tier's DB link against an HTTP server, then a proxy's
        // backend link against a database: every decoder inside TLS.
        let whole = exchange::<FrameDecoder, RequestDecoder>(&requests, &frames, usize::MAX);
        assert_eq!(whole.decoded.0.len(), 4, "{:?}", whole.decoded);
        assert_eq!(whole.decoded.1.len(), 3, "{:?}", whole.decoded);
        assert!(whole.busy.0 > SimDuration::ZERO && whole.busy.1 > SimDuration::ZERO);
        let bytewise = exchange::<FrameDecoder, RequestDecoder>(&requests, &frames, 1);
        assert_eq!(whole, bytewise);

        let whole = exchange::<ResponseDecoder, FrameDecoder>(&frames, &responses, usize::MAX);
        assert_eq!(whole.decoded.0.len(), 3, "{:?}", whole.decoded);
        assert_eq!(whole.decoded.1.len(), 4, "{:?}", whole.decoded);
        let bytewise = exchange::<ResponseDecoder, FrameDecoder>(&frames, &responses, 1);
        assert_eq!(whole, bytewise);
    }

    #[test]
    fn tls_conn_reports_a_desync_once_and_decodes_nothing_after_it() {
        for cut in [usize::MAX, 1] {
            let mut pair = Pair::new();
            let (client, server) = (pair.client, pair.server);
            let tls = pair.client_tls.clone();
            let mut c: Conn<FrameDecoder> = pair.with_api(client, |tap, api| {
                tls.connect(tap.sock.expect("connected"), api)
            });
            let sock = pair.with_api(server, |tap, _| tap.sock.expect("accepted"));
            let mut s: Conn<FrameDecoder> = pair.server_tls.accept(sock);
            for _ in 0..4 {
                pair.run();
                feed(&mut pair, server, &mut s, usize::MAX);
                feed(&mut pair, client, &mut c, usize::MAX);
            }
            assert!(ready(&c) && ready(&s));
            // Two records, and a header of unknown type between them.
            pair.with_api(client, |_, api| {
                c.send(frame(b"before"), api);
                c.send(frame(b"after"), api);
            });
            pair.run();
            pair.with_api(server, |tap, _| {
                let first = 5 + u32::from_be_bytes(tap.received[1..5].try_into().expect("4 bytes"))
                    as usize;
                tap.received.splice(first..first, [0xff, 0, 0, 0, 1, 0]);
            });
            let (decoded, failures) = feed(&mut pair, server, &mut s, cut);
            assert_eq!(
                decoded,
                [format!("{:?}", frame(b"before")[4..].to_vec().as_slice())]
            );
            assert_eq!(failures, 1, "cut {cut}");
            // A later record is read no more, and fails nothing again.
            pair.with_api(client, |_, api| c.send(frame(b"later"), api));
            pair.run();
            assert_eq!(feed(&mut pair, server, &mut s, cut), (vec![], 0));
        }
    }
}
