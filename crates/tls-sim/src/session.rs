//! The TLS session state machine: DHE-RSA handshake + protected
//! application data, as pure bytes-in/bytes-out (run it over any
//! reliable stream).
//!
//! Handshake (one round trip + finished messages, TLS-1.2 shaped):
//!
//! ```text
//! C → S  ClientHello   { random }
//! S → C  ServerHello   { random, certificate, signed DH public }
//! C → S  ClientKex     { DH public }, Finished { verify_data }
//! S → C  Finished      { verify_data }
//! ```
//!
//! Key schedule: `master = PRF(kij, "master secret", randoms)`, traffic
//! keys expanded from the master — HMAC-SHA-256 based, mirroring RFC
//! 5246 §8.1 in shape.

use crate::cert::Certificate;
use crate::record::{decode, frame, RecordCipher, RecordType, HEADER_LEN};
use bytes::BytesMut;
use netsim::SimDuration;
use rand::rngs::StdRng;
use rand::RngExt;
use sim_crypto::dh::{DhGroup, DhKeyPair};
use sim_crypto::hmac::{verify_mac, HmacKey};
use sim_crypto::kdf::prf_expand;
use sim_crypto::rsa::RsaKeyPair;
use sim_crypto::rsa::RsaPublicKey;
use sim_crypto::sha256::sha256;

/// Per-operation CPU costs (mirrors `hip-core`'s cost table so both
/// protocols charge identically for identical primitives).
#[derive(Clone, Copy, Debug)]
pub struct TlsCosts {
    /// RSA private-key operation.
    pub rsa_sign: SimDuration,
    /// RSA public-key operation.
    pub rsa_verify: SimDuration,
    /// One DH exponentiation.
    pub dh_compute: SimDuration,
    /// Fixed per-record overhead.
    pub sym_per_packet: SimDuration,
    /// Symmetric crypto per byte (nanoseconds).
    pub sym_per_byte_ns: f64,
}

impl TlsCosts {
    /// Zero costs for protocol-logic tests.
    pub fn free() -> Self {
        TlsCosts {
            rsa_sign: SimDuration::ZERO,
            rsa_verify: SimDuration::ZERO,
            dh_compute: SimDuration::ZERO,
            sym_per_packet: SimDuration::ZERO,
            sym_per_byte_ns: 0.0,
        }
    }

    fn symmetric(&self, len: usize) -> SimDuration {
        self.sym_per_packet + SimDuration::from_nanos((len as f64 * self.sym_per_byte_ns) as u64)
    }
}

/// Session errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlsError {
    /// Certificate failed CA validation.
    BadCertificate,
    /// ServerKeyExchange signature invalid.
    BadSignature,
    /// Finished verify_data mismatch.
    BadFinished,
    /// Record failed authentication/decryption.
    BadRecord,
    /// A record header carried an unknown content type, so the byte
    /// stream can no longer be split into records.
    BadFraming,
    /// Message arrived in the wrong state.
    UnexpectedMessage,
    /// Degenerate DH value.
    BadKeyExchange,
}

/// Output of feeding bytes into the session.
#[derive(Default)]
pub struct TlsOutput {
    /// Bytes to transmit to the peer.
    pub to_peer: Vec<u8>,
    /// Decrypted application data.
    pub app_data: Vec<u8>,
    /// True once the handshake completed (edge-triggered).
    pub handshake_complete: bool,
    /// Virtual CPU work performed.
    pub work: SimDuration,
    /// Fatal error, if any.
    pub error: Option<TlsError>,
}

enum State {
    // Client states.
    ClientStart,
    ClientAwaitServerHello,
    ClientAwaitFinished,
    // Server states.
    ServerAwaitClientHello,
    ServerAwaitClientKex,
    // Shared.
    Established,
    Failed,
}

#[allow(clippy::large_enum_variant)] // one Role per session; size is fine
enum Role {
    Client {
        ca: RsaPublicKey,
        dh: Option<DhKeyPair>,
    },
    Server {
        cert: Certificate,
        keys: RsaKeyPair,
        dh: Option<DhKeyPair>,
    },
}

/// A TLS endpoint.
pub struct TlsSession {
    role: Role,
    state: State,
    costs: TlsCosts,
    /// Received bytes that do not yet complete a record.
    received: BytesMut,
    transcript: Vec<u8>,
    client_random: [u8; 32],
    server_random: [u8; 32],
    /// Cached HMAC transcripts for the master secret (set by
    /// `derive_keys`), used for both finished MACs.
    master: Option<HmacKey>,
    tx: Option<RecordCipher>,
    rx: Option<RecordCipher>,
    iv_rng_state: u64,
}

/// Handshake message type tags.
mod hs {
    pub const CLIENT_HELLO: u8 = 1;
    pub const SERVER_HELLO: u8 = 2;
    pub const CLIENT_KEX: u8 = 16;
    pub const FINISHED: u8 = 20;
}

impl TlsSession {
    /// Creates a client that trusts `ca`.
    pub fn client(ca: RsaPublicKey, costs: TlsCosts) -> Self {
        TlsSession {
            role: Role::Client { ca, dh: None },
            state: State::ClientStart,
            costs,
            received: BytesMut::new(),
            transcript: Vec::new(),
            client_random: [0; 32],
            server_random: [0; 32],
            master: None,
            tx: None,
            rx: None,
            iv_rng_state: 0x5deece66d,
        }
    }

    /// Creates a server with its certificate and private key.
    pub fn server(cert: Certificate, keys: RsaKeyPair, costs: TlsCosts) -> Self {
        TlsSession {
            role: Role::Server {
                cert,
                keys,
                dh: None,
            },
            state: State::ServerAwaitClientHello,
            costs,
            received: BytesMut::new(),
            transcript: Vec::new(),
            client_random: [0; 32],
            server_random: [0; 32],
            master: None,
            tx: None,
            rx: None,
            iv_rng_state: 0xb5026f5aa,
        }
    }

    /// True once application data may flow.
    pub fn is_established(&self) -> bool {
        matches!(self.state, State::Established)
    }

    /// True if the session failed fatally.
    pub fn is_failed(&self) -> bool {
        matches!(self.state, State::Failed)
    }

    fn next_iv(&mut self) -> u64 {
        // xorshift — IV uniqueness, not secrecy, is what CBC needs here
        // (the seed is mixed with the per-direction sequence number).
        let mut x = self.iv_rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.iv_rng_state = x;
        x
    }

    /// Client: produces the ClientHello (call once).
    pub fn start_handshake(&mut self, rng: &mut StdRng) -> Vec<u8> {
        assert!(
            matches!(self.state, State::ClientStart),
            "start_handshake is client-only, once"
        );
        rng.fill(&mut self.client_random);
        let mut body = vec![hs::CLIENT_HELLO];
        body.extend_from_slice(&self.client_random);
        self.transcript.extend_from_slice(&body);
        self.state = State::ClientAwaitServerHello;
        frame(RecordType::Handshake, &body)
    }

    /// Feeds received bytes through the state machine; bytes that do
    /// not complete a record wait for the next call. The first error
    /// fails the session, and a failed session reads nothing more: the
    /// records after the failing one, and every later byte, are dropped.
    pub fn on_bytes(&mut self, data: &[u8], rng: &mut StdRng) -> TlsOutput {
        let mut out = TlsOutput::default();
        if self.is_failed() {
            return out;
        }
        self.received.extend_from_slice(data);
        while out.error.is_none() {
            let (rtype, body) = match decode(&self.received) {
                Ok(Some(record)) => record,
                Ok(None) => break,
                Err(_) => {
                    out.error = Some(TlsError::BadFraming);
                    break;
                }
            };
            let len = HEADER_LEN + body.len();
            match rtype {
                RecordType::Handshake => {
                    let body = body.to_vec();
                    self.on_handshake(&body, rng, &mut out);
                }
                RecordType::ApplicationData => {
                    let opened = self.rx.as_mut().map(|rx| rx.open(body));
                    match opened {
                        None => out.error = Some(TlsError::UnexpectedMessage),
                        Some(None) => out.error = Some(TlsError::BadRecord),
                        Some(Some(plain)) => {
                            out.work += self.costs.symmetric(plain.len());
                            if out.app_data.is_empty() {
                                out.app_data = plain;
                            } else {
                                out.app_data.extend_from_slice(&plain);
                            }
                        }
                    }
                }
                RecordType::Alert => out.error = Some(TlsError::BadRecord),
            }
            self.received.advance(len);
        }
        if out.error.is_some() {
            self.state = State::Failed;
            self.received.clear();
        }
        out
    }

    /// Protects application data for transmission.
    pub fn seal(&mut self, app_data: &[u8]) -> (Vec<u8>, SimDuration) {
        let iv = self.next_iv();
        let tx = self.tx.as_mut().expect("handshake not complete");
        let body = tx.seal(app_data, iv);
        let work = self.costs.symmetric(app_data.len());
        (frame(RecordType::ApplicationData, &body), work)
    }

    fn derive_keys(&mut self, kij: &[u8]) {
        let mut seed = Vec::with_capacity(64);
        seed.extend_from_slice(&self.client_random);
        seed.extend_from_slice(&self.server_random);
        let master = prf_expand(kij, b"master secret", &seed, 48);
        let keys = prf_expand(&master, b"key expansion", &seed, 2 * (16 + 32));
        self.master = Some(HmacKey::new(&master));
        let c2s_enc: [u8; 16] = keys[0..16].try_into().expect("slice");
        let c2s_mac: [u8; 32] = keys[16..48].try_into().expect("slice");
        let s2c_enc: [u8; 16] = keys[48..64].try_into().expect("slice");
        let s2c_mac: [u8; 32] = keys[64..96].try_into().expect("slice");
        match self.role {
            Role::Client { .. } => {
                self.tx = Some(RecordCipher::new(c2s_enc, c2s_mac));
                self.rx = Some(RecordCipher::new(s2c_enc, s2c_mac));
            }
            Role::Server { .. } => {
                self.tx = Some(RecordCipher::new(s2c_enc, s2c_mac));
                self.rx = Some(RecordCipher::new(c2s_enc, c2s_mac));
            }
        }
    }

    fn finished_data(&self, label: &[u8]) -> [u8; 32] {
        let th = sha256(&self.transcript);
        // Incremental transcript over the segments — no `[..].concat()`
        // temporary — from the cached master-secret key. A FINISHED
        // arriving before key derivation (malformed peer) MACs under the
        // empty key, as the pre-cache code did, and fails verification.
        match &self.master {
            Some(key) => key.mac_multi(&[label, &th]),
            None => HmacKey::new(&[]).mac_multi(&[label, &th]),
        }
    }

    fn on_handshake(&mut self, body: &[u8], rng: &mut StdRng, out: &mut TlsOutput) {
        let Some(&msg_type) = body.first() else {
            out.error = Some(TlsError::UnexpectedMessage);
            return;
        };
        match (&self.state, msg_type) {
            (State::ServerAwaitClientHello, hs::CLIENT_HELLO) => {
                if body.len() != 33 {
                    out.error = Some(TlsError::UnexpectedMessage);
                    return;
                }
                self.client_random.copy_from_slice(&body[1..33]);
                self.transcript.extend_from_slice(body);
                rng.fill(&mut self.server_random);
                // DH keypair + signature over randoms and DH public.
                let dh = DhKeyPair::generate(DhGroup::Test512, rng);
                let dh_pub = dh.public_bytes();
                let (cert_bytes, sig) = match &mut self.role {
                    Role::Server {
                        cert,
                        keys,
                        dh: slot,
                    } => {
                        let mut signed = Vec::new();
                        signed.extend_from_slice(&self.client_random);
                        signed.extend_from_slice(&self.server_random);
                        signed.extend_from_slice(&dh_pub);
                        let sig = keys.sign(&signed);
                        *slot = Some(dh);
                        (cert.to_bytes(), sig)
                    }
                    Role::Client { .. } => {
                        out.error = Some(TlsError::UnexpectedMessage);
                        return;
                    }
                };
                let mut reply = vec![hs::SERVER_HELLO];
                reply.extend_from_slice(&self.server_random);
                reply.extend_from_slice(&(cert_bytes.len() as u32).to_be_bytes());
                reply.extend_from_slice(&cert_bytes);
                reply.extend_from_slice(&(dh_pub.len() as u32).to_be_bytes());
                reply.extend_from_slice(&dh_pub);
                reply.extend_from_slice(&(sig.len() as u32).to_be_bytes());
                reply.extend_from_slice(&sig);
                self.transcript.extend_from_slice(&reply);
                out.to_peer
                    .extend_from_slice(&frame(RecordType::Handshake, &reply));
                out.work += self.costs.dh_compute + self.costs.rsa_sign;
                self.state = State::ServerAwaitClientKex;
            }
            (State::ClientAwaitServerHello, hs::SERVER_HELLO) => {
                // Parse server hello.
                type ServerHello = ([u8; 32], Certificate, Vec<u8>, Vec<u8>);
                let parse = || -> Option<ServerHello> {
                    let mut cur = &body[1..];
                    let random: [u8; 32] = cur.get(..32)?.try_into().ok()?;
                    cur = &cur[32..];
                    let take = |cur: &mut &[u8]| -> Option<Vec<u8>> {
                        let len = u32::from_be_bytes(cur.get(..4)?.try_into().ok()?) as usize;
                        let v = cur.get(4..4 + len)?.to_vec();
                        *cur = &cur[4 + len..];
                        Some(v)
                    };
                    let cert = Certificate::from_bytes(&take(&mut cur)?)?;
                    let dh_pub = take(&mut cur)?;
                    let sig = take(&mut cur)?;
                    Some((random, cert, dh_pub, sig))
                };
                let Some((random, cert, dh_pub, sig)) = parse() else {
                    out.error = Some(TlsError::UnexpectedMessage);
                    return;
                };
                self.server_random = random;
                let Role::Client { ca, dh: dh_slot } = &mut self.role else {
                    out.error = Some(TlsError::UnexpectedMessage);
                    return;
                };
                // Certificate chain validation.
                if !cert.verify(ca) {
                    out.work += self.costs.rsa_verify;
                    out.error = Some(TlsError::BadCertificate);
                    return;
                }
                // ServerKeyExchange signature.
                let mut signed = Vec::new();
                signed.extend_from_slice(&self.client_random);
                signed.extend_from_slice(&self.server_random);
                signed.extend_from_slice(&dh_pub);
                if !cert.public_key.verify(&signed, &sig) {
                    out.work += self.costs.rsa_verify * 2;
                    out.error = Some(TlsError::BadSignature);
                    return;
                }
                // Our DH half + shared secret.
                let dh = DhKeyPair::generate(DhGroup::Test512, rng);
                let Some(kij) = dh.shared_secret(&dh_pub) else {
                    out.error = Some(TlsError::BadKeyExchange);
                    return;
                };
                let our_pub = dh.public_bytes();
                *dh_slot = Some(dh);
                self.transcript.extend_from_slice(body);
                self.derive_keys(&kij);
                // ClientKex + Finished.
                let mut kex = vec![hs::CLIENT_KEX];
                kex.extend_from_slice(&our_pub);
                self.transcript.extend_from_slice(&kex);
                out.to_peer
                    .extend_from_slice(&frame(RecordType::Handshake, &kex));
                let mut fin = vec![hs::FINISHED];
                fin.extend_from_slice(&self.finished_data(b"client finished"));
                self.transcript.extend_from_slice(&fin);
                out.to_peer
                    .extend_from_slice(&frame(RecordType::Handshake, &fin));
                out.work += self.costs.rsa_verify * 2 + self.costs.dh_compute * 2;
                self.state = State::ClientAwaitFinished;
            }
            (State::ServerAwaitClientKex, hs::CLIENT_KEX) => {
                let peer_pub = &body[1..];
                let Role::Server { dh, .. } = &mut self.role else {
                    out.error = Some(TlsError::UnexpectedMessage);
                    return;
                };
                let Some(kij) = dh.as_ref().and_then(|d| d.shared_secret(peer_pub)) else {
                    out.error = Some(TlsError::BadKeyExchange);
                    return;
                };
                self.transcript.extend_from_slice(body);
                self.derive_keys(&kij);
                out.work += self.costs.dh_compute;
                // Stay in ServerAwaitClientKex until Finished arrives;
                // mark by clearing dh.
                if let Role::Server { dh, .. } = &mut self.role {
                    *dh = None;
                }
            }
            (State::ServerAwaitClientKex, hs::FINISHED) => {
                let expect = self.finished_data(b"client finished");
                if !verify_mac(&expect, &body[1..]) {
                    out.error = Some(TlsError::BadFinished);
                    return;
                }
                self.transcript.extend_from_slice(body);
                let mut fin = vec![hs::FINISHED];
                fin.extend_from_slice(&self.finished_data(b"server finished"));
                self.transcript.extend_from_slice(&fin);
                out.to_peer
                    .extend_from_slice(&frame(RecordType::Handshake, &fin));
                self.state = State::Established;
                out.handshake_complete = true;
            }
            (State::ClientAwaitFinished, hs::FINISHED) => {
                let expect = self.finished_data(b"server finished");
                if !verify_mac(&expect, &body[1..]) {
                    out.error = Some(TlsError::BadFinished);
                    return;
                }
                self.state = State::Established;
                out.handshake_complete = true;
            }
            _ => out.error = Some(TlsError::UnexpectedMessage),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use rand::SeedableRng;

    fn setup() -> (TlsSession, TlsSession, StdRng) {
        let mut rng = StdRng::seed_from_u64(23);
        let ca = CertificateAuthority::new(512, &mut rng);
        let server_keys = RsaKeyPair::generate(512, &mut rng);
        let cert = ca.issue("db.cloud", server_keys.public());
        let client = TlsSession::client(ca.public().clone(), TlsCosts::free());
        let server = TlsSession::server(cert, server_keys, TlsCosts::free());
        (client, server, rng)
    }

    /// Pumps bytes between the two sessions until quiescent.
    fn pump(
        client: &mut TlsSession,
        server: &mut TlsSession,
        rng: &mut StdRng,
        initial: Vec<u8>,
    ) -> (Vec<u8>, Vec<u8>) {
        let mut to_server = initial;
        let mut to_client = Vec::new();
        let mut client_app = Vec::new();
        let mut server_app = Vec::new();
        for _ in 0..20 {
            if to_server.is_empty() && to_client.is_empty() {
                break;
            }
            let out = server.on_bytes(&std::mem::take(&mut to_server), rng);
            assert_eq!(out.error, None, "server error");
            to_client.extend(out.to_peer);
            server_app.extend(out.app_data);
            let out = client.on_bytes(&std::mem::take(&mut to_client), rng);
            assert_eq!(out.error, None, "client error");
            to_server.extend(out.to_peer);
            client_app.extend(out.app_data);
        }
        (client_app, server_app)
    }

    #[test]
    fn handshake_completes() {
        let (mut c, mut s, mut rng) = setup();
        let hello = c.start_handshake(&mut rng);
        pump(&mut c, &mut s, &mut rng, hello);
        assert!(c.is_established());
        assert!(s.is_established());
    }

    #[test]
    fn app_data_flows_both_ways() {
        let (mut c, mut s, mut rng) = setup();
        let hello = c.start_handshake(&mut rng);
        pump(&mut c, &mut s, &mut rng, hello);
        let (wire, _) = c.seal(b"SELECT * FROM items");
        let out = s.on_bytes(&wire, &mut rng);
        assert_eq!(out.app_data, b"SELECT * FROM items");
        let (wire, _) = s.seal(b"3 rows");
        let out = c.on_bytes(&wire, &mut rng);
        assert_eq!(out.app_data, b"3 rows");
    }

    #[test]
    fn wire_hides_plaintext() {
        let (mut c, mut s, mut rng) = setup();
        let hello = c.start_handshake(&mut rng);
        pump(&mut c, &mut s, &mut rng, hello);
        let (wire, _) = c.seal(b"SECRET-NEEDLE-42");
        assert!(!wire.windows(16).any(|w| w == b"SECRET-NEEDLE-42"));
        let _ = s;
    }

    #[test]
    fn untrusted_certificate_rejected() {
        let mut rng = StdRng::seed_from_u64(29);
        let real_ca = CertificateAuthority::new(512, &mut rng);
        let fake_ca = CertificateAuthority::new(512, &mut rng);
        let server_keys = RsaKeyPair::generate(512, &mut rng);
        let cert = fake_ca.issue("db.cloud", server_keys.public());
        let mut client = TlsSession::client(real_ca.public().clone(), TlsCosts::free());
        let mut server = TlsSession::server(cert, server_keys, TlsCosts::free());
        let hello = client.start_handshake(&mut rng);
        let out = server.on_bytes(&hello, &mut rng);
        let out = client.on_bytes(&out.to_peer, &mut rng);
        assert_eq!(out.error, Some(TlsError::BadCertificate));
        assert!(client.is_failed());
    }

    #[test]
    fn tampered_record_rejected() {
        let (mut c, mut s, mut rng) = setup();
        let hello = c.start_handshake(&mut rng);
        pump(&mut c, &mut s, &mut rng, hello);
        let (mut wire, _) = c.seal(b"data");
        let n = wire.len();
        wire[n - 1] ^= 1;
        let out = s.on_bytes(&wire, &mut rng);
        assert_eq!(out.error, Some(TlsError::BadRecord));
    }

    #[test]
    fn unknown_record_type_fails_the_session() {
        let (mut c, mut s, mut rng) = setup();
        let hello = c.start_handshake(&mut rng);
        pump(&mut c, &mut s, &mut rng, hello);
        let (mut wire, _) = c.seal(b"before");
        wire.extend_from_slice(&[0xff, 0, 0, 0, 1, 0]);
        let out = s.on_bytes(&wire, &mut rng);
        // The record ahead of the bad header is still delivered.
        assert_eq!(out.app_data, b"before");
        assert_eq!(out.error, Some(TlsError::BadFraming));
        assert!(s.is_failed());
        // Nothing after the bad header is read, in that call or a later
        // one, and the failure is reported once.
        let (wire, _) = c.seal(b"after");
        let out = s.on_bytes(&wire, &mut rng);
        assert!(out.app_data.is_empty());
        assert_eq!(out.error, None);
    }

    #[test]
    fn handshake_charges_asymmetric_work() {
        let mut rng = StdRng::seed_from_u64(31);
        let ca = CertificateAuthority::new(512, &mut rng);
        let server_keys = RsaKeyPair::generate(512, &mut rng);
        let cert = ca.issue("db.cloud", server_keys.public());
        let costs = TlsCosts {
            rsa_sign: SimDuration::from_micros(5000),
            rsa_verify: SimDuration::from_micros(300),
            dh_compute: SimDuration::from_micros(8000),
            sym_per_packet: SimDuration::from_micros(4),
            sym_per_byte_ns: 30.0,
        };
        let mut c = TlsSession::client(ca.public().clone(), costs);
        let mut s = TlsSession::server(cert, server_keys, costs);
        let hello = c.start_handshake(&mut rng);
        let out_s = s.on_bytes(&hello, &mut rng);
        assert!(
            out_s.work >= SimDuration::from_micros(13_000),
            "server: sign + dh"
        );
        let out_c = c.on_bytes(&out_s.to_peer, &mut rng);
        assert!(
            out_c.work >= SimDuration::from_micros(16_000),
            "client: 2 verify + 2 dh"
        );
    }

    #[test]
    fn fragmented_delivery_is_handled() {
        let (mut c, mut s, mut rng) = setup();
        let hello = c.start_handshake(&mut rng);
        // Deliver the hello one byte at a time.
        let mut reply = Vec::new();
        for b in hello {
            let out = s.on_bytes(&[b], &mut rng);
            assert_eq!(out.error, None);
            reply.extend(out.to_peer);
        }
        assert!(!reply.is_empty());
        pump(&mut c, &mut s, &mut rng, Vec::new());
        // Finish handshake by routing the reply.
        let out = c.on_bytes(&reply, &mut rng);
        let out = s.on_bytes(&out.to_peer, &mut rng);
        let _ = c.on_bytes(&out.to_peer, &mut rng);
        assert!(c.is_established() && s.is_established());
    }
}
