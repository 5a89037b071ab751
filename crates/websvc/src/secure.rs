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
    pub fn connect(&self, sock: SockId, api: &mut HostApi) -> Conn {
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
    pub fn accept(&self, sock: SockId) -> Conn {
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

/// What [`Conn::on_bytes`] produced.
#[derive(Default)]
pub struct ChannelOutput {
    /// Decrypted application bytes.
    pub app_data: Vec<u8>,
    /// True when the channel just became ready for app data.
    pub became_ready: bool,
    /// True if the channel failed fatally (connection should be closed).
    pub failed: bool,
}

impl Channel {
    /// True once application data may be sent.
    fn ready(&self) -> bool {
        match self {
            Channel::Plain => true,
            Channel::Tls(s) => s.is_established(),
        }
    }

    /// Feeds raw TCP bytes; replies/decrypted data are handled through
    /// `api` (handshake replies are sent, crypto CPU work is charged).
    fn on_bytes(&mut self, sock: SockId, raw: Vec<u8>, api: &mut HostApi) -> ChannelOutput {
        match self {
            Channel::Plain => ChannelOutput {
                app_data: raw,
                became_ready: false,
                failed: false,
            },
            Channel::Tls(session) => {
                let out = session.on_bytes(&raw, api.ctx.rng());
                // Charge the crypto work to this host's CPU: later service
                // work queues behind it, which is how security cost turns
                // into latency/throughput effects.
                if out.work > SimDuration::ZERO {
                    api.cpu_charge(out.work);
                }
                if !out.to_peer.is_empty() {
                    api.tcp_send(sock, out.to_peer);
                }
                ChannelOutput {
                    app_data: out.app_data,
                    became_ready: out.handshake_complete,
                    failed: out.error.is_some(),
                }
            }
        }
    }

    /// Sends application data through the channel.
    fn send(&mut self, sock: SockId, app_data: Vec<u8>, api: &mut HostApi) {
        match self {
            Channel::Plain => api.tcp_send(sock, app_data),
            Channel::Tls(session) => {
                debug_assert!(session.is_established(), "send before TLS handshake");
                let (wire, work) = session.seal(&app_data);
                if work > SimDuration::ZERO {
                    api.cpu_charge(work);
                }
                api.tcp_send(sock, wire);
            }
        }
    }
}

/// One secured connection: its socket, its channel and an outbox of app
/// data queued until the channel becomes ready (during the TLS
/// handshake). Built only by [`ClientSecurity::connect`] and
/// [`ServerSecurity::accept`].
pub struct Conn {
    sock: SockId,
    channel: Channel,
    outbox: Vec<u8>,
}

impl Conn {
    fn new(sock: SockId, channel: Channel) -> Self {
        Conn {
            sock,
            channel,
            outbox: Vec::new(),
        }
    }

    /// Queues (or sends) application data.
    pub fn send(&mut self, data: Vec<u8>, api: &mut HostApi) {
        if self.channel.ready() && self.outbox.is_empty() {
            self.channel.send(self.sock, data, api);
        } else {
            self.outbox.extend_from_slice(&data);
        }
    }

    /// Feeds raw bytes; flushes the outbox when the channel comes up.
    pub fn on_bytes(&mut self, raw: Vec<u8>, api: &mut HostApi) -> ChannelOutput {
        let out = self.channel.on_bytes(self.sock, raw, api);
        if out.became_ready && !self.outbox.is_empty() {
            let pending = std::mem::take(&mut self.outbox);
            self.channel.send(self.sock, pending, api);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let conn = ServerSecurity::Plain.accept(SockId(7));
        assert!(matches!(conn.channel, Channel::Plain));
        assert!(conn.channel.ready());
    }
    // TLS channel behaviour is covered end-to-end in the webserver/db
    // integration tests, where real sockets and HostApi exist.
}
