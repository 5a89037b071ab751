//! The kernel pass: ns (or µs, ms) per operation for each layer kernel,
//! timed around direct calls into the public function.
//!
//! Inputs are fixed (they do not depend on `--seed`), every kernel is
//! warmed up with one untimed batch, and per-batch preparation (keys,
//! pre-sealed packets) happens outside the timed region, so work that
//! moves into set-up shows up in `setup_s`, not here. Each kernel runs
//! batches until its time budget is spent and reports the fastest batch
//! (other processes on the machine only ever add time).

use bytes::Bytes;
use hip_core::esp::InnerMode;
use hip_core::identity::Hit;
use hip_core::puzzle;
use hip_core::EspSa;
use netsim::link::{Endpoint, LinkId, LinkParams};
use netsim::packet::{v4, IcmpKind, IcmpMessage, TcpFlags, TcpSegment};
use netsim::sched::CalendarQueue;
use netsim::{Ctx, Node, Packet, Payload, Sim, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::aes::Aes128;
use sim_crypto::dh::DhKeyPair;
use sim_crypto::hmac::HmacKey;
use sim_crypto::rsa::RsaKeyPair;
use std::any::Any;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tls_sim::record::RecordCipher;
use tls_sim::{CertificateAuthority, TlsCosts, TlsSession};

/// One kernel result.
pub struct Kernel {
    /// Metric name.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Median time per operation, in `unit`.
    pub value: f64,
}

/// Times `batch` (which runs `ops` operations and returns the wall
/// nanoseconds of its timed region) until `budget` is spent; returns
/// the best nanoseconds per operation.
fn time_batches(budget: Duration, ops: u64, mut batch: impl FnMut() -> u64) -> f64 {
    batch(); // warm-up
    let start = Instant::now();
    let (mut best, mut n) = (f64::INFINITY, 0);
    while n < 3 || start.elapsed() < budget {
        best = best.min(batch() as f64 / ops as f64);
        n += 1;
    }
    best
}

/// Runs `op` `n` times inside the timed region.
fn timed_loop(n: u64, mut op: impl FnMut(u64)) -> u64 {
    let t = Instant::now();
    for i in 0..n {
        op(i);
    }
    t.elapsed().as_nanos() as u64
}

/// A fixed pseudo-random stream (xorshift) for kernel inputs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

fn tcp_payload(len: usize, rng: &mut Lcg) -> Payload {
    Payload::Tcp(TcpSegment {
        src_port: 40000,
        dst_port: 5001,
        seq: 1,
        ack: 1,
        flags: TcpFlags {
            ack: true,
            ..TcpFlags::default()
        },
        window: 65535,
        data: Bytes::from(rng.bytes(len)),
        gso_mss: 0,
    })
}

fn esp_pair() -> (EspSa, EspSa) {
    let (src, dst) = (v4(10, 0, 0, 1), v4(10, 0, 0, 2));
    let sa = || EspSa::new(0x1000, [7; 16], [9; 32], src, dst);
    (sa(), sa())
}

/// Hold model: pop the minimum, push it back a fixed-random increment
/// later, at a steady queue depth.
fn sched_hold(budget: Duration) -> f64 {
    const DEPTH: u64 = 4096;
    const OPS: u64 = 100_000;
    let mut rng = Lcg(0x9e37_79b9);
    let incs: Vec<u64> = (0..4096).map(|_| 1_000 + rng.next() % 2_000_000).collect();
    let mut q = CalendarQueue::new();
    for s in 0..DEPTH {
        q.push(SimTime(incs[s as usize]), s, ());
    }
    let mut seq = DEPTH;
    time_batches(budget, OPS, || {
        timed_loop(OPS, |i| {
            let (at, _, ()) = q.pop().expect("steady depth");
            seq += 1;
            q.push(SimTime(at.as_nanos() + incs[(i % 4096) as usize]), seq, ());
        })
    })
}

/// The engine's `dispatch_run` pattern: pop an event, peek at the next
/// one (the same-tick run check), then push what the handler emits —
/// a quarter at the same tick, half within two buckets, a quarter up
/// to 2 ms out.
fn sched_pop_peek_push(budget: Duration) -> f64 {
    const DEPTH: u64 = 1024;
    const OPS: u64 = 100_000;
    let mut rng = Lcg(0x51ed_270b);
    let delays: Vec<u64> = (0..4096)
        .map(|_| match rng.next() % 4 {
            0 => 0,
            1 | 2 => rng.next() % 16_384,
            _ => 16_384 + rng.next() % 2_000_000,
        })
        .collect();
    let mut q = CalendarQueue::new();
    for s in 0..DEPTH {
        q.push(SimTime(s * 2_000), s, ());
    }
    let mut seq = DEPTH;
    time_batches(budget, OPS, || {
        timed_loop(OPS, |i| {
            let (at, _, ()) = q.pop().expect("steady depth");
            black_box(q.peek().map(|(t, s, _)| (t, s)));
            seq += 1;
            q.push(
                SimTime(at.as_nanos() + delays[(i % 4096) as usize]),
                seq,
                (),
            );
        })
    })
}

/// Bounces packets across one link; `start` launches `inflight` of them.
struct Echo {
    link: LinkId,
    inflight: u16,
}

impl Node for Echo {
    fn start(&mut self, ctx: &mut Ctx) {
        for seq in 0..self.inflight {
            let msg = IcmpMessage {
                kind: IcmpKind::EchoRequest,
                ident: 1,
                seq,
                payload_len: 56,
            };
            ctx.transmit(
                self.link,
                Packet::new(v4(10, 0, 0, 1), v4(10, 0, 0, 2), Payload::Icmp(msg)),
            );
        }
    }
    fn handle_packet(&mut self, _: usize, pkt: Packet, ctx: &mut Ctx) {
        ctx.transmit(self.link, Packet::new(pkt.dst, pkt.src, pkt.payload));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Engine dispatch plus link transmit per event: two nodes bouncing 32
/// packets over one datacenter link.
fn engine_echo(budget: Duration) -> f64 {
    let mut sim = Sim::new(1);
    let a = sim.world.add_node(Box::new(Echo {
        link: LinkId(0),
        inflight: 32,
    }));
    let b = sim.world.add_node(Box::new(Echo {
        link: LinkId(0),
        inflight: 0,
    }));
    sim.world.connect(
        Endpoint { node: a, iface: 0 },
        Endpoint { node: b, iface: 0 },
        LinkParams::datacenter(),
    );
    let step = SimDuration::from_millis(20);
    // A batch is one step of simulated time whose event count is known
    // only afterwards: it returns ns per event scaled by 1000, and
    // `ops = 1000` undoes the scale.
    time_batches(budget, 1000, || {
        let before = sim.stats().dispatched;
        let t = Instant::now();
        sim.run_until(sim.now() + step);
        let ns = t.elapsed().as_nanos() as u64;
        ns * 1000 / (sim.stats().dispatched - before).max(1)
    })
}

fn esp_encap(budget: Duration, len: usize) -> f64 {
    let mut rng = Lcg(len as u64 + 1);
    let payload = tcp_payload(len, &mut rng);
    let (mut tx, _) = esp_pair();
    time_batches(budget, 2_000, || {
        timed_loop(2_000, |i| {
            drop(black_box(tx.encapsulate(InnerMode::Hit, &payload, i)))
        })
    })
}

fn esp_decap(budget: Duration) -> f64 {
    const N: u64 = 2_000;
    let mut rng = Lcg(3);
    let payload = tcp_payload(1448, &mut rng);
    let (mut tx, mut rx) = esp_pair();
    time_batches(budget, N, || {
        let pkts: Vec<_> = (0..N)
            .map(|i| tx.encapsulate(InnerMode::Hit, &payload, i))
            .collect();
        let t = Instant::now();
        for p in &pkts {
            black_box(rx.decapsulate(p).expect("valid ESP"));
        }
        t.elapsed().as_nanos() as u64
    })
}

fn esp_encap_gso(budget: Duration) -> f64 {
    const FRAMES: u64 = 16;
    let mut rng = Lcg(4);
    let payloads: Vec<Payload> = (0..FRAMES).map(|_| tcp_payload(1448, &mut rng)).collect();
    let (mut tx, _) = esp_pair();
    time_batches(budget, 200 * FRAMES, || {
        timed_loop(200, |i| {
            drop(black_box(tx.encapsulate_gso(InnerMode::Hit, &payloads, i)))
        })
    })
}

fn puzzle_solve(budget: Duration) -> f64 {
    const PUZZLES: u64 = 32;
    let (a, b) = (
        Hit::from_hi_bytes(b"perfbench initiator"),
        Hit::from_hi_bytes(b"perfbench responder"),
    );
    let k = hip_core::HipConfig::default().puzzle_k;
    time_batches(budget, PUZZLES, || {
        timed_loop(PUZZLES, |i| {
            black_box(puzzle::solve(0x5eed_0000 + i, k, &a, &b, 0));
        })
    }) / 1e3
}

fn aes_cbc(budget: Duration, decrypt: bool) -> f64 {
    let mut rng = Lcg(5);
    let aes = Aes128::new(&[3; 16]);
    let iv = [1u8; 16];
    let pt = rng.bytes(1024);
    let ct = aes.cbc_encrypt(&iv, &pt);
    let mut out = Vec::with_capacity(2048);
    time_batches(budget, 2_000, || {
        timed_loop(2_000, |_| {
            out.clear();
            if decrypt {
                black_box(aes.cbc_decrypt_into(&iv, &ct, &mut out));
            } else {
                aes.cbc_encrypt_into(&iv, &pt, &mut out);
            }
            black_box(&out);
        })
    })
}

fn hmac(budget: Duration, len: usize) -> f64 {
    let mut rng = Lcg(6);
    let key = HmacKey::new(&[9; 32]);
    let msg = rng.bytes(len);
    time_batches(budget, 5_000, || {
        timed_loop(5_000, |_| {
            black_box(key.mac(&msg));
        })
    })
}

fn rsa_keys() -> RsaKeyPair {
    RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(0x004b_4559))
}

fn rsa_sign(budget: Duration) -> f64 {
    let keys = rsa_keys();
    let msg = Lcg(7).bytes(64);
    time_batches(budget, 50, || {
        timed_loop(50, |_| drop(black_box(keys.sign(&msg))))
    }) / 1e3
}

fn rsa_verify(budget: Duration) -> f64 {
    let keys = rsa_keys();
    let msg = Lcg(8).bytes(64);
    let sig = keys.sign(&msg);
    time_batches(budget, 500, || {
        timed_loop(500, |_| {
            assert!(black_box(keys.public().verify(&msg, &sig)))
        })
    }) / 1e3
}

fn dh(budget: Duration) -> f64 {
    let mut rng = StdRng::seed_from_u64(0xd4);
    let group = hip_core::HipConfig::default().dh_group;
    let (a, b) = (
        DhKeyPair::generate(group, &mut rng),
        DhKeyPair::generate(group, &mut rng),
    );
    let peer = b.public_bytes();
    time_batches(budget, 50, || {
        timed_loop(50, |_| drop(black_box(a.shared_secret(&peer))))
    }) / 1e3
}

fn rsa_keygen(budget: Duration) -> f64 {
    const KEYS: u64 = 8;
    time_batches(budget, KEYS, || {
        timed_loop(KEYS, |i| {
            drop(black_box(RsaKeyPair::generate(
                512,
                &mut StdRng::seed_from_u64(i),
            )))
        })
    }) / 1e6
}

fn record(budget: Duration, open: bool) -> f64 {
    const N: u64 = 2_000;
    let pt = Lcg(9).bytes(1024);
    let (mut tx, mut rx) = (
        RecordCipher::new([1; 16], [2; 32]),
        RecordCipher::new([1; 16], [2; 32]),
    );
    time_batches(budget, N, || {
        if !open {
            return timed_loop(N, |i| drop(black_box(tx.seal(&pt, i))));
        }
        let bodies: Vec<Vec<u8>> = (0..N).map(|i| tx.seal(&pt, i)).collect();
        let t = Instant::now();
        for body in &bodies {
            black_box(rx.open(body).expect("valid record"));
        }
        t.elapsed().as_nanos() as u64
    })
}

fn tls_handshake(budget: Duration) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x715);
    let ca = CertificateAuthority::new(512, &mut rng);
    let keys = RsaKeyPair::generate(512, &mut rng);
    let cert = ca.issue("srv", keys.public());
    time_batches(budget, 10, || {
        let sessions: Vec<_> = (0..10)
            .map(|_| {
                let c = TlsSession::client(ca.public().clone(), TlsCosts::free());
                let s = TlsSession::server(cert.clone(), keys.clone(), TlsCosts::free());
                (c, s)
            })
            .collect();
        let t = Instant::now();
        for (mut c, mut s) in sessions {
            let mut to_s = c.start_handshake(&mut rng);
            while !(c.is_established() && s.is_established()) {
                let out_s = s.on_bytes(&to_s, &mut rng);
                to_s = c.on_bytes(&out_s.to_peer, &mut rng).to_peer;
                assert!(!c.is_failed() && !s.is_failed(), "handshake failed");
            }
        }
        t.elapsed().as_nanos() as u64
    }) / 1e3
}

/// Runs every kernel, `per_kernel` of timed batches each.
pub fn run_all(per_kernel: Duration) -> Vec<Kernel> {
    let b = per_kernel;
    let k = |name, unit, value| Kernel { name, unit, value };
    vec![
        k("netsim.sched.hold_ns", "ns", sched_hold(b)),
        k(
            "netsim.sched.pop_peek_push_ns",
            "ns",
            sched_pop_peek_push(b),
        ),
        k("netsim.engine.echo_ns", "ns", engine_echo(b)),
        k("core.esp.encap_ns_1448", "ns", esp_encap(b, 1448)),
        k("core.esp.decap_ns_1448", "ns", esp_decap(b)),
        k("core.esp.encap_gso_ns_per_frame", "ns", esp_encap_gso(b)),
        k("core.esp.encap_ns_64", "ns", esp_encap(b, 64)),
        k("core.puzzle.solve_us", "us", puzzle_solve(b)),
        k("sim_crypto.aes_cbc_enc_ns_per_kb", "ns", aes_cbc(b, false)),
        k("sim_crypto.aes_cbc_dec_ns_per_kb", "ns", aes_cbc(b, true)),
        k("sim_crypto.hmac_1500_ns", "ns", hmac(b, 1500)),
        k("sim_crypto.hmac_64_ns", "ns", hmac(b, 64)),
        k("sim_crypto.rsa512_sign_us", "us", rsa_sign(b)),
        k("sim_crypto.rsa512_verify_us", "us", rsa_verify(b)),
        k("sim_crypto.dh_us", "us", dh(b)),
        k("sim_crypto.rsa512_keygen_ms", "ms", rsa_keygen(b)),
        k("tls_sim.record_seal_ns_1k", "ns", record(b, false)),
        k("tls_sim.record_open_ns_1k", "ns", record(b, true)),
        k("tls_sim.handshake_us", "us", tls_handshake(b)),
    ]
}
