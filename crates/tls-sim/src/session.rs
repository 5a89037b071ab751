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
//!
//! Each state owns the data that exists in it (DESIGN.md §4b): only the
//! two steps after key derivation can check a Finished, and any other
//! message out of turn is [`TlsError::UnexpectedMessage`]. App data
//! sealed during the handshake waits in the session and goes out as one
//! record after the handshake's last message.

use crate::cert::Certificate;
use crate::record::{decode, frame, put_field, take_field, RecordCipher, RecordType, HEADER_LEN};
use bytes::BytesMut;
use netsim::SimDuration;
use rand::rngs::StdRng;
use rand::RngExt;
use sim_crypto::dh::{DhGroup, DhKeyPair};
use sim_crypto::hmac::{verify_mac, HmacKey};
use sim_crypto::kdf::prf_expand;
use sim_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use sim_crypto::sha256::Sha256;
use std::{array, mem};

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
    /// Virtual CPU work performed.
    pub work: SimDuration,
    /// Fatal error, if any.
    pub error: Option<TlsError>,
}

/// A TLS endpoint.
pub struct TlsSession {
    state: State,
    costs: TlsCosts,
    /// Received bytes that do not yet complete a record.
    received: BytesMut,
    /// State of the xorshift the record IVs are drawn from.
    iv_seed: u64,
}

/// Where a session is, and the data that exists there.
enum State {
    /// The handshake runs; app data sealed meanwhile waits in `pending`.
    Handshaking { step: Step, pending: Vec<u8> },
    /// Application data flows.
    Established { tx: RecordCipher, rx: RecordCipher },
    /// A fatal error: the session reads and sends nothing more.
    Failed,
}

/// A handshake step: what answering the one message it accepts needs.
enum Step {
    /// Client before its ClientHello: accepts nothing.
    ClientStart { ca: RsaPublicKey },
    /// Client after its ClientHello (`hello`): accepts ServerHello.
    AwaitServerHello { ca: RsaPublicKey, hello: [u8; 33] },
    /// Client after its ClientKex and Finished: accepts the server's
    /// Finished, which must equal `expected`.
    AwaitServerFinished {
        expected: [u8; 33],
        tx: RecordCipher,
        rx: RecordCipher,
    },
    /// Server before any message: accepts ClientHello.
    AwaitClientHello { cert: Certificate, keys: RsaKeyPair },
    /// Server after its ServerHello: accepts ClientKex.
    AwaitClientKex {
        dh: DhKeyPair,
        randoms: [u8; 64],
        transcript: Sha256,
    },
    /// Server after the ClientKex: accepts the client's Finished, which
    /// must equal `expected`, and answers with `reply`.
    AwaitClientFinished {
        expected: [u8; 33],
        reply: [u8; 33],
        tx: RecordCipher,
        rx: RecordCipher,
    },
}

/// Where an accepted handshake message leads.
enum Next {
    Step(Step),
    Established { tx: RecordCipher, rx: RecordCipher },
}

/// Handshake message type tags.
mod hs {
    pub const CLIENT_HELLO: u8 = 1;
    pub const SERVER_HELLO: u8 = 2;
    pub const CLIENT_KEX: u8 = 16;
    pub const FINISHED: u8 = 20;
}

impl TlsSession {
    fn new(step: Step, iv_seed: u64, costs: TlsCosts) -> Self {
        TlsSession {
            state: State::Handshaking {
                step,
                pending: Vec::new(),
            },
            costs,
            received: BytesMut::new(),
            iv_seed,
        }
    }

    /// Creates a client that trusts `ca`.
    pub fn client(ca: RsaPublicKey, costs: TlsCosts) -> Self {
        TlsSession::new(Step::ClientStart { ca }, 0x5deece66d, costs)
    }

    /// Creates a server with its certificate and private key.
    pub fn server(cert: Certificate, keys: RsaKeyPair, costs: TlsCosts) -> Self {
        TlsSession::new(Step::AwaitClientHello { cert, keys }, 0xb5026f5aa, costs)
    }

    /// True once application data may flow.
    pub fn is_established(&self) -> bool {
        matches!(self.state, State::Established { .. })
    }

    /// True if the session failed fatally.
    pub fn is_failed(&self) -> bool {
        matches!(self.state, State::Failed)
    }

    /// Client: produces the ClientHello (call once).
    pub fn start_handshake(&mut self, rng: &mut StdRng) -> Vec<u8> {
        let State::Handshaking {
            step: Step::ClientStart { ca },
            pending,
        } = mem::replace(&mut self.state, State::Failed)
        else {
            panic!("start_handshake is client-only, once");
        };
        let mut hello = [hs::CLIENT_HELLO; 33];
        rng.fill(&mut hello[1..]);
        self.state = State::Handshaking {
            step: Step::AwaitServerHello { ca, hello },
            pending,
        };
        frame(RecordType::Handshake, &hello)
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
            let accepted = match rtype {
                RecordType::Handshake => mem::replace(&mut self.state, State::Failed)
                    .on_handshake(body, &self.costs, &mut self.iv_seed, rng, &mut out)
                    .map(|state| self.state = state),
                RecordType::ApplicationData => match &mut self.state {
                    State::Established { rx, .. } => {
                        rx.open(body).ok_or(TlsError::BadRecord).map(|plain| {
                            out.work += self.costs.symmetric(plain.len());
                            if out.app_data.is_empty() {
                                out.app_data = plain;
                            } else {
                                out.app_data.extend_from_slice(&plain);
                            }
                        })
                    }
                    _ => Err(TlsError::UnexpectedMessage),
                },
                RecordType::Alert => Err(TlsError::BadRecord),
            };
            out.error = accepted.err();
            self.received.advance(len);
        }
        if out.error.is_some() {
            self.state = State::Failed;
            self.received.clear();
        }
        out
    }

    /// Protects application data: the record to send and its CPU work,
    /// or `None` when nothing goes out now. During the handshake the
    /// data is queued (see the module docs); a failed session drops it.
    pub fn seal(&mut self, app_data: &[u8]) -> Option<(Vec<u8>, SimDuration)> {
        match &mut self.state {
            State::Handshaking { pending, .. } => pending.extend_from_slice(app_data),
            State::Established { tx, .. } => {
                let wire = seal_record(tx, app_data, &mut self.iv_seed);
                return Some((wire, self.costs.symmetric(app_data.len())));
            }
            State::Failed => {}
        }
        None
    }
}

impl State {
    /// The state a handshake message leads to; the queued app data goes
    /// out when the handshake completes.
    fn on_handshake(
        self,
        body: &[u8],
        costs: &TlsCosts,
        iv_seed: &mut u64,
        rng: &mut StdRng,
        out: &mut TlsOutput,
    ) -> Result<State, TlsError> {
        let State::Handshaking { step, pending } = self else {
            return Err(TlsError::UnexpectedMessage);
        };
        Ok(match step.on_message(body, costs, rng, out)? {
            Next::Step(step) => State::Handshaking { step, pending },
            Next::Established { mut tx, rx } => {
                if !pending.is_empty() {
                    out.to_peer
                        .extend_from_slice(&seal_record(&mut tx, &pending, iv_seed));
                    out.work += costs.symmetric(pending.len());
                }
                State::Established { tx, rx }
            }
        })
    }
}

impl Step {
    /// Handles one handshake message `body` (its type byte first).
    fn on_message(
        self,
        body: &[u8],
        costs: &TlsCosts,
        rng: &mut StdRng,
        out: &mut TlsOutput,
    ) -> Result<Next, TlsError> {
        let Some((&msg_type, payload)) = body.split_first() else {
            return Err(TlsError::UnexpectedMessage);
        };
        match (self, msg_type) {
            (Step::AwaitClientHello { cert, keys }, hs::CLIENT_HELLO) => {
                let Ok(client_random) = <&[u8; 32]>::try_from(payload) else {
                    return Err(TlsError::UnexpectedMessage);
                };
                let mut randoms = [0; 64];
                randoms[..32].copy_from_slice(client_random);
                rng.fill(&mut randoms[32..]);
                // DH keypair + signature over randoms and DH public.
                let dh = DhKeyPair::generate(DhGroup::Test512, rng);
                let dh_pub = dh.public_bytes();
                let sig = keys.sign(&[&randoms[..], &dh_pub].concat());
                let mut reply = vec![hs::SERVER_HELLO];
                reply.extend_from_slice(&randoms[32..]);
                for field in [&cert.to_bytes(), &dh_pub, &sig] {
                    put_field(&mut reply, field);
                }
                let mut transcript = Sha256::new();
                transcript.update(body);
                transcript.update(&reply);
                out.to_peer
                    .extend_from_slice(&frame(RecordType::Handshake, &reply));
                out.work += costs.dh_compute + costs.rsa_sign;
                Ok(Next::Step(Step::AwaitClientKex {
                    dh,
                    randoms,
                    transcript,
                }))
            }
            (Step::AwaitServerHello { ca, hello }, hs::SERVER_HELLO) => {
                let Some((random, cert, dh_pub, sig)) = parse_server_hello(payload) else {
                    return Err(TlsError::UnexpectedMessage);
                };
                // Certificate chain validation.
                if !cert.verify(&ca) {
                    out.work += costs.rsa_verify;
                    return Err(TlsError::BadCertificate);
                }
                // ServerKeyExchange signature.
                let mut randoms = [0; 64];
                randoms[..32].copy_from_slice(&hello[1..]);
                randoms[32..].copy_from_slice(random);
                if !cert
                    .public_key
                    .verify(&[&randoms[..], dh_pub].concat(), sig)
                {
                    out.work += costs.rsa_verify * 2;
                    return Err(TlsError::BadSignature);
                }
                // Our DH half + shared secret.
                let dh = DhKeyPair::generate(DhGroup::Test512, rng);
                let Some(kij) = dh.shared_secret(dh_pub) else {
                    return Err(TlsError::BadKeyExchange);
                };
                let (master, c2s, s2c) = derive_keys(&kij, &randoms);
                // ClientKex + Finished.
                let mut kex = vec![hs::CLIENT_KEX];
                kex.extend_from_slice(&dh.public_bytes());
                let mut transcript = Sha256::new();
                transcript.update(&hello);
                transcript.update(body);
                transcript.update(&kex);
                let fin = finished(&master, b"client finished", &transcript);
                transcript.update(&fin);
                out.to_peer
                    .extend_from_slice(&frame(RecordType::Handshake, &kex));
                out.to_peer
                    .extend_from_slice(&frame(RecordType::Handshake, &fin));
                out.work += costs.rsa_verify * 2 + costs.dh_compute * 2;
                Ok(Next::Step(Step::AwaitServerFinished {
                    expected: finished(&master, b"server finished", &transcript),
                    tx: c2s,
                    rx: s2c,
                }))
            }
            (
                Step::AwaitClientKex {
                    dh,
                    randoms,
                    mut transcript,
                },
                hs::CLIENT_KEX,
            ) => {
                let Some(kij) = dh.shared_secret(payload) else {
                    return Err(TlsError::BadKeyExchange);
                };
                let (master, c2s, s2c) = derive_keys(&kij, &randoms);
                transcript.update(body);
                let expected = finished(&master, b"client finished", &transcript);
                transcript.update(&expected);
                out.work += costs.dh_compute;
                Ok(Next::Step(Step::AwaitClientFinished {
                    expected,
                    reply: finished(&master, b"server finished", &transcript),
                    tx: s2c,
                    rx: c2s,
                }))
            }
            (
                Step::AwaitClientFinished {
                    expected,
                    reply,
                    tx,
                    rx,
                },
                hs::FINISHED,
            ) => {
                if !verify_mac(&expected, body) {
                    return Err(TlsError::BadFinished);
                }
                out.to_peer
                    .extend_from_slice(&frame(RecordType::Handshake, &reply));
                Ok(Next::Established { tx, rx })
            }
            (Step::AwaitServerFinished { expected, tx, rx }, hs::FINISHED) => {
                if !verify_mac(&expected, body) {
                    return Err(TlsError::BadFinished);
                }
                Ok(Next::Established { tx, rx })
            }
            _ => Err(TlsError::UnexpectedMessage),
        }
    }
}

/// A ServerHello after its type byte: server random, certificate, DH
/// public value and the signature over both randoms and that value.
type ServerHello<'a> = (&'a [u8; 32], Certificate, &'a [u8], &'a [u8]);

/// Parses a [`ServerHello`].
fn parse_server_hello(payload: &[u8]) -> Option<ServerHello<'_>> {
    let (random, mut rest) = payload.split_first_chunk::<32>()?;
    let cert = Certificate::from_bytes(take_field(&mut rest)?)?;
    Some((random, cert, take_field(&mut rest)?, take_field(&mut rest)?))
}

/// The master secret's HMAC key and the two record ciphers (client to
/// server, server to client) from the DH secret and both randoms.
fn derive_keys(kij: &[u8], randoms: &[u8; 64]) -> (HmacKey, RecordCipher, RecordCipher) {
    let master = prf_expand(kij, b"master secret", randoms, 48);
    let keys = prf_expand(&master, b"key expansion", randoms, 2 * (16 + 32));
    let cipher = |at: usize| {
        RecordCipher::new(
            array::from_fn(|i| keys[at + i]),
            array::from_fn(|i| keys[at + 16 + i]),
        )
    };
    (HmacKey::new(&master), cipher(0), cipher(48))
}

/// A Finished message: its verify_data is the MAC of `label` and the
/// hash of the transcript so far.
fn finished(master: &HmacKey, label: &[u8], transcript: &Sha256) -> [u8; 33] {
    let mut fin = [hs::FINISHED; 33];
    fin[1..].copy_from_slice(&master.mac_multi(&[label, &transcript.clone().finalize()]));
    fin
}

/// Seals `app_data` into one record under the next IV.
fn seal_record(tx: &mut RecordCipher, app_data: &[u8], iv_seed: &mut u64) -> Vec<u8> {
    // xorshift — IV uniqueness, not secrecy, is what CBC needs here
    // (the seed is mixed with the per-direction sequence number).
    let x = iv_seed;
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    tx.seal_record(app_data, *x)
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
        let (wire, _) = c.seal(b"SELECT * FROM items").expect("established");
        let out = s.on_bytes(&wire, &mut rng);
        assert_eq!(out.app_data, b"SELECT * FROM items");
        let (wire, _) = s.seal(b"3 rows").expect("established");
        let out = c.on_bytes(&wire, &mut rng);
        assert_eq!(out.app_data, b"3 rows");
    }

    #[test]
    fn wire_hides_plaintext() {
        let (mut c, mut s, mut rng) = setup();
        let hello = c.start_handshake(&mut rng);
        pump(&mut c, &mut s, &mut rng, hello);
        let (wire, _) = c.seal(b"SECRET-NEEDLE-42").expect("established");
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
        let (mut wire, _) = c.seal(b"data").expect("established");
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
        let (mut wire, _) = c.seal(b"before").expect("established");
        wire.extend_from_slice(&[0xff, 0, 0, 0, 1, 0]);
        let out = s.on_bytes(&wire, &mut rng);
        // The record ahead of the bad header is still delivered.
        assert_eq!(out.app_data, b"before");
        assert_eq!(out.error, Some(TlsError::BadFraming));
        assert!(s.is_failed());
        // Nothing after the bad header is read, in that call or a later
        // one, and the failure is reported once.
        let (wire, _) = c.seal(b"after").expect("established");
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
    fn data_sealed_during_the_handshake_follows_its_last_message() {
        let (mut c, mut s, mut rng) = setup();
        let costs = TlsCosts {
            sym_per_packet: SimDuration::from_micros(4),
            sym_per_byte_ns: 30.0,
            ..TlsCosts::free()
        };
        (c.costs, s.costs) = (costs, costs);
        // Queued on both ends, before and during the handshake.
        assert!(c.seal(b"early ").is_none());
        let hello = c.start_handshake(&mut rng);
        assert!(c.seal(b"requests").is_none());
        assert!(s.seal(b"pushed").is_none());
        let out = s.on_bytes(&hello, &mut rng);
        let out = c.on_bytes(&out.to_peer, &mut rng);
        assert_eq!(out.work, SimDuration::ZERO);
        // The server completes: its Finished, then its queue in one record.
        let out = s.on_bytes(&out.to_peer, &mut rng);
        assert!(s.is_established());
        assert_eq!(out.work, costs.symmetric(6));
        let Ok(Some((RecordType::Handshake, fin))) = decode(&out.to_peer) else {
            panic!("the server Finished first");
        };
        let rest = &out.to_peer[HEADER_LEN + fin.len()..];
        assert!(
            matches!(decode(rest), Ok(Some((RecordType::ApplicationData, body))) if HEADER_LEN + body.len() == rest.len())
        );
        // The client completes on it and sends its queue in one record.
        let out = c.on_bytes(&out.to_peer, &mut rng);
        assert_eq!(out.app_data, b"pushed");
        assert_eq!(out.work, costs.symmetric(6) + costs.symmetric(14));
        assert!(
            matches!(decode(&out.to_peer), Ok(Some((RecordType::ApplicationData, body))) if HEADER_LEN + body.len() == out.to_peer.len())
        );
        assert_eq!(
            s.on_bytes(&out.to_peer, &mut rng).app_data,
            b"early requests"
        );
        // Nothing stays queued.
        let (wire, _) = c.seal(b"later").expect("established");
        assert_eq!(s.on_bytes(&wire, &mut rng).app_data, b"later");
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
