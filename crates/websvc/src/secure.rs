//! Per-connection transport security: the three scenarios of §V-B.
//!
//! - **Basic** — plain TCP over locators, no protection.
//! - **HIP** — plain TCP at the application, addressed to a HIT or LSI;
//!   the host's HIP shim encrypts below (the application is unmodified,
//!   which is HIP's deployment story).
//! - **SSL** — TLS session layered inside the TCP stream by the
//!   application, as OpenSSL/OpenVPN would.
//!
//! [`Channel`] wraps one TCP socket's security state so server and
//! client apps handle all three scenarios with the same code path.

use netsim::host::HostApi;
use netsim::{SimDuration, SockId};
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

/// Security state of one TCP connection.
pub enum Channel {
    /// Pass-through (Basic and HIP scenarios: HIP encrypts below).
    Plain,
    /// TLS endpoint (SSL scenario).
    Tls(Box<TlsSession>),
}

/// What `Channel::on_bytes` produced.
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
    /// A plain channel.
    pub fn plain() -> Self {
        Channel::Plain
    }

    /// A TLS client channel; emits its ClientHello immediately.
    pub fn tls_client(
        ca: sim_crypto::rsa::RsaPublicKey,
        costs: TlsCosts,
        sock: SockId,
        api: &mut HostApi,
    ) -> Self {
        let mut session = TlsSession::client(ca, costs);
        let hello = session.start_handshake(api.ctx.rng());
        api.tcp_send(sock, hello);
        Channel::Tls(Box::new(session))
    }

    /// A TLS server channel.
    pub fn tls_server(
        cert: Certificate,
        keys: sim_crypto::rsa::RsaKeyPair,
        costs: TlsCosts,
    ) -> Self {
        Channel::Tls(Box::new(TlsSession::server(cert, keys, costs)))
    }

    /// True once application data may be sent.
    pub fn ready(&self) -> bool {
        match self {
            Channel::Plain => true,
            Channel::Tls(s) => s.is_established(),
        }
    }

    /// Feeds raw TCP bytes; replies/decrypted data are handled through
    /// `api` (handshake replies are sent, crypto CPU work is charged).
    pub fn on_bytes(&mut self, sock: SockId, raw: Vec<u8>, api: &mut HostApi) -> ChannelOutput {
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
    pub fn send(&mut self, sock: SockId, app_data: Vec<u8>, api: &mut HostApi) {
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

/// A connection wrapper: channel + outbox of app data queued until the
/// channel becomes ready (e.g. during the TLS handshake).
pub struct Conn {
    /// The underlying TCP socket.
    pub sock: SockId,
    /// Its security state.
    pub channel: Channel,
    outbox: Vec<u8>,
}

impl Conn {
    /// Wraps a socket with a channel.
    pub fn new(sock: SockId, channel: Channel) -> Self {
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

    /// True once app data flows without queuing.
    pub fn ready(&self) -> bool {
        self.channel.ready()
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
        let ch = Channel::plain();
        assert!(ch.ready());
    }
    // TLS channel behaviour is covered end-to-end in the webserver/db
    // integration tests, where real sockets and HostApi exist.
}
