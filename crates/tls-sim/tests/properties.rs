//! Property-based tests for the TLS baseline: the session state machine
//! must never panic on arbitrary wire bytes, complete handshakes must
//! round-trip arbitrary application data, and a genuine handshake's
//! records, replayed, reordered, cut and bit-flipped, never establish a
//! session that did not receive the key exchange.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::hmac::HmacKey;
use sim_crypto::rsa::RsaKeyPair;
use sim_crypto::sha256::sha256;
use tls_sim::record::{decode, frame, RecordType, HEADER_LEN};
use tls_sim::{CertificateAuthority, TlsCosts, TlsError, TlsSession};

fn setup(seed: u64) -> (TlsSession, TlsSession, rand::rngs::StdRng) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let ca = CertificateAuthority::new(512, &mut rng);
    let keys = RsaKeyPair::generate(512, &mut rng);
    let cert = ca.issue("srv", keys.public());
    (
        TlsSession::client(ca.public().clone(), TlsCosts::free()),
        TlsSession::server(cert, keys, TlsCosts::free()),
        rng,
    )
}

fn handshake(c: &mut TlsSession, s: &mut TlsSession, rng: &mut rand::rngs::StdRng) {
    let mut to_s = c.start_handshake(rng);
    for _ in 0..6 {
        let out_s = s.on_bytes(&to_s, rng);
        to_s.clear();
        let out_c = c.on_bytes(&out_s.to_peer, rng);
        to_s.extend(out_c.to_peer);
        if c.is_established() && s.is_established() {
            return;
        }
    }
    panic!("handshake did not complete");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary bytes thrown at either role never panic; the session
    /// either ignores them (incomplete frame) or fails closed.
    #[test]
    fn garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..400), client_side: bool) {
        let (mut c, mut s, mut rng) = setup(1);
        if client_side {
            let _ = c.start_handshake(&mut rng);
            let _ = c.on_bytes(&data, &mut rng);
        } else {
            let _ = s.on_bytes(&data, &mut rng);
        }
    }

    /// Established sessions carry arbitrary payloads of any size, even
    /// when the wire bytes are delivered in arbitrary fragments.
    #[test]
    fn app_data_round_trips(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..3000), 1..5),
        chunk in 1usize..512,
    ) {
        let (mut c, mut s, mut rng) = setup(2);
        handshake(&mut c, &mut s, &mut rng);
        for msg in &msgs {
            let (wire, _) = c.seal(msg).expect("established");
            let mut got = Vec::new();
            for part in wire.chunks(chunk) {
                let out = s.on_bytes(part, &mut rng);
                prop_assert_eq!(out.error, None);
                got.extend(out.app_data);
            }
            prop_assert_eq!(&got, msg);
        }
    }

    /// A single flipped bit anywhere in a protected record is fatal.
    #[test]
    fn record_bitflip_always_fatal(msg in proptest::collection::vec(any::<u8>(), 1..500), flip in any::<usize>()) {
        let (mut c, mut s, mut rng) = setup(3);
        handshake(&mut c, &mut s, &mut rng);
        let (mut wire, _) = c.seal(&msg).expect("established");
        // Flip a bit in the record body (skip the 5-byte frame header:
        // header corruption is a framing error, tested separately).
        let idx = 5 + flip % (wire.len() - 5);
        wire[idx] ^= 0x01;
        let out = s.on_bytes(&wire, &mut rng);
        prop_assert!(out.error.is_some(), "tampered record accepted");
        prop_assert!(out.app_data.is_empty());
    }
}

/// The records in `wire`, one per entry.
fn split(mut wire: &[u8]) -> Vec<Vec<u8>> {
    let mut records = Vec::new();
    while let Ok(Some((_, body))) = decode(wire) {
        let (record, rest) = wire.split_at(HEADER_LEN + body.len());
        records.push(record.to_vec());
        wire = rest;
    }
    assert!(wire.is_empty(), "whole records");
    records
}

/// The body of the one record in `record`.
fn body(record: &[u8]) -> &[u8] {
    &record[HEADER_LEN..]
}

/// Handshake message type of ClientKex and Finished.
const CLIENT_KEX: u8 = 16;
const FINISHED: u8 = 20;

/// Seed of the recorded handshake.
const SEED: u64 = 5;

/// Fresh sessions from `setup(SEED)`, each with its own RNG: replaying
/// the recorded records to them repeats the recorded handshake draw for
/// draw.
fn fresh() -> ((TlsSession, StdRng), (TlsSession, StdRng)) {
    let (c, s, rng) = setup(SEED);
    ((c, rng.clone()), (s, rng))
}

/// A genuine handshake between [`fresh`] sessions, then one app-data
/// record each way: every record and whether it went to the server, in
/// sending order (ClientHello, ServerHello, ClientKex, the client's
/// Finished, the server's Finished, client data, server data).
fn recorded() -> Vec<(bool, Vec<u8>)> {
    let ((mut c, mut rc), (mut s, mut rs)) = fresh();
    let mut log = Vec::new();
    let mut to_s = c.start_handshake(&mut rc);
    while !to_s.is_empty() {
        log.extend(split(&to_s).into_iter().map(|r| (true, r)));
        let to_c = s.on_bytes(&to_s, &mut rs).to_peer;
        log.extend(split(&to_c).into_iter().map(|r| (false, r)));
        to_s = c.on_bytes(&to_c, &mut rc).to_peer;
    }
    assert!(c.is_established() && s.is_established());
    let (wire, _) = c.seal(b"GET /").expect("established");
    log.push((true, wire));
    let (wire, _) = s.seal(b"200 OK").expect("established");
    log.push((false, wire));
    assert_eq!(log.len(), 7);
    log
}

/// A client Finished MACed under the empty key over `sha256(ClientHello
/// ‖ ServerHello)`: what a client that skips its ClientKex can compute,
/// since no secret goes into it.
fn empty_key_finished(client_hello: &[u8], server_hello: &[u8]) -> Vec<u8> {
    let th = sha256(&[body(client_hello), body(server_hello)].concat());
    let mut fin = vec![FINISHED];
    fin.extend_from_slice(&HmacKey::new(&[]).mac_multi(&[b"client finished", &th]));
    frame(RecordType::Handshake, &fin)
}

#[test]
fn empty_key_finished_is_refused() {
    let ((mut c, mut rc), (mut s, mut rs)) = fresh();
    let hello = c.start_handshake(&mut rc);
    let out = s.on_bytes(&hello, &mut rs);
    assert_eq!(out.error, None);
    let forged = empty_key_finished(&hello, &out.to_peer);
    let out = s.on_bytes(&forged, &mut rs);
    assert_eq!(out.error, Some(TlsError::UnexpectedMessage));
    assert!(out.to_peer.is_empty(), "no server Finished");
    assert!(!s.is_established() && s.is_failed());
    assert!(s.seal(b"data").is_none(), "a failed session sends nothing");
}

#[test]
fn handshake_messages_out_of_turn_are_unexpected() {
    let log = recorded();
    let (hello, kex, fin) = (&log[0].1, &log[2].1, &log[3].1);
    assert_eq!(body(kex)[0], CLIENT_KEX);
    // A second ClientKex (it was `BadKeyExchange`).
    let (_, (mut s, mut rs)) = fresh();
    assert_eq!(s.on_bytes(hello, &mut rs).error, None);
    assert_eq!(s.on_bytes(kex, &mut rs).error, None);
    let out = s.on_bytes(kex, &mut rs);
    assert_eq!(out.error, Some(TlsError::UnexpectedMessage));
    assert!(s.is_failed());
    // The genuine client Finished before the ClientKex (it was
    // `BadFinished`).
    let (_, (mut s, mut rs)) = fresh();
    assert_eq!(s.on_bytes(hello, &mut rs).error, None);
    let out = s.on_bytes(fin, &mut rs);
    assert_eq!(out.error, Some(TlsError::UnexpectedMessage));
    assert!(!s.is_established() && s.is_failed());
}

/// One forged delivery.
#[derive(Clone, Debug)]
enum Attack {
    /// Recorded record `n` again.
    Replay(usize),
    /// The first `len` bytes of record `n`.
    Truncate(usize, usize),
    /// Record `n` with bit `bit` flipped.
    Flip(usize, usize),
}

impl Attack {
    fn bytes(&self, records: &[Vec<u8>]) -> Vec<u8> {
        let record = |n: usize| records[n % records.len()].clone();
        match *self {
            Attack::Replay(n) => record(n),
            Attack::Truncate(n, len) => {
                let mut r = record(n);
                r.truncate(len % r.len());
                r
            }
            Attack::Flip(n, bit) => {
                let mut r = record(n);
                let bit = bit % (r.len() * 8);
                r[bit / 8] ^= 1 << (bit % 8);
                r
            }
        }
    }
}

fn arb_attack() -> impl Strategy<Value = Attack> {
    prop_oneof![
        any::<usize>().prop_map(Attack::Replay),
        (any::<usize>(), any::<usize>()).prop_map(|(n, len)| Attack::Truncate(n, len)),
        (any::<usize>(), any::<usize>()).prop_map(|(n, bit)| Attack::Flip(n, bit)),
    ]
}

/// One endpoint under attack: its session, its RNG, whether it has been
/// handed the record that keys it (the intact ClientKex for a server,
/// the intact server Finished for a client) and whether it has failed.
struct Endpoint {
    session: TlsSession,
    rng: StdRng,
    keyed: bool,
    failed: bool,
}

impl Endpoint {
    /// Delivers `bytes`, then seals app data, which nothing may make
    /// panic. An endpoint reports its failure in the call that fails
    /// it, once, and is established only after its keying record.
    fn deliver(&mut self, bytes: &[u8], keying: &[u8]) {
        self.keyed |= bytes.windows(keying.len()).any(|w| w == keying);
        let out = self.session.on_bytes(bytes, &mut self.rng);
        assert_eq!(
            out.error.is_some(),
            self.session.is_failed() && !self.failed
        );
        self.failed = self.session.is_failed();
        let _ = self.session.seal(b"probe");
        assert!(!self.session.is_established() || self.keyed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A recorded genuine handshake delivered to a fresh client and a
    /// fresh server, with forged deliveries (replays, which also reorder
    /// and duplicate, truncations and bit flips of the recorded records
    /// and of an empty-key client Finished, to either side) inserted
    /// before genuine ones and at most one genuine record withheld: no
    /// session panics, each reports its failure once, a server never
    /// reports established before it receives the ClientKex, nor a
    /// client before the server's Finished, and the undisturbed run
    /// completes and carries its data.
    #[test]
    fn recorded_handshake_under_attack(
        attacks in proptest::collection::vec((0usize..8, arb_attack(), any::<bool>()), 0..6),
        withheld in 0usize..10,
    ) {
        let log = recorded();
        let mut records: Vec<Vec<u8>> = log.iter().map(|(_, r)| r.clone()).collect();
        records.push(empty_key_finished(&log[0].1, &log[1].1));
        let ((c, rc), (s, rs)) = fresh();
        let endpoint = |session, rng| Endpoint { session, rng, keyed: false, failed: false };
        let (mut client, mut server) = (endpoint(c, rc), endpoint(s, rs));
        let _ = client.session.start_handshake(&mut client.rng);
        let (kex, server_fin) = (log[2].1.clone(), log[4].1.clone());
        for (at, (to_server, record)) in log.iter().enumerate().chain([(7, &(true, vec![]))]) {
            for (_, attack, to_s) in attacks.iter().filter(|(before, ..)| *before == at) {
                let bytes = attack.bytes(&records);
                match to_s {
                    true => server.deliver(&bytes, &kex),
                    false => client.deliver(&bytes, &server_fin),
                }
            }
            if at == withheld || record.is_empty() {
                continue;
            }
            match to_server {
                true => server.deliver(record, &kex),
                false => client.deliver(record, &server_fin),
            }
        }
        if attacks.is_empty() && withheld >= log.len() {
            prop_assert!(client.session.is_established() && server.session.is_established());
            prop_assert!(!client.failed && !server.failed);
        }
    }
}
