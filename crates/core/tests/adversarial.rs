//! Adversarial tests: an on-path attacker (exactly the §III-B threat —
//! "another subscriber in the same cloud") who can observe, replay,
//! inject and forge packets. HIP must keep the tunnel confidential,
//! authenticated and replay-protected through all of it.

use bytes::Bytes;
use hip_core::identity::{Hit, HostIdentity};
use hip_core::wire::{param_type, HipPacket, PacketType, Param};
use hip_core::{HipConfig, HipShim, PeerInfo};
use netsim::engine::{Ctx, Node};
use netsim::host::{App, AppEvent, Host, HostApi};
use netsim::link::LinkId;
use netsim::packet::{v4, Packet, Payload};
use netsim::tcp::TcpEvent;
use netsim::{Endpoint, LinkParams, Sim, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::net::IpAddr;
use std::sync::OnceLock;

/// A malicious middlebox on the path between the two hosts. Forwards
/// everything, but can also duplicate ESP packets (replay), flip bits
/// (tamper), or inject pre-built packets.
struct Mitm {
    left: LinkId,
    right: LinkId,
    /// Duplicate every ESP packet (replay attack).
    replay_esp: bool,
    /// Flip a ciphertext bit in every 3rd ESP packet (tamper attack;
    /// an odd stride avoids parity-locking with retransmissions).
    tamper_esp: bool,
    /// Packets to inject toward the right side at start.
    inject: Vec<Packet>,
    esp_seen: u64,
    /// Attack only the n-th ESP packet (1-based) heading right.
    frame_attack: Option<(u64, FrameAttack)>,
    esp_right: u64,
    /// Every HIP control packet forwarded, and whether it headed right.
    control: Vec<(bool, Packet)>,
}

/// What to do to the one ESP frame singled out by `Mitm::frame_attack`.
#[derive(Clone, Copy, Debug)]
enum FrameAttack {
    /// Flip a ciphertext bit.
    Tamper,
    /// Deliver it twice.
    Replay,
    /// Swallow it.
    Drop,
}

/// Flips one bit in the middle of an ESP packet's ciphertext.
fn tamper(pkt: &Packet) -> Packet {
    let Payload::Esp(esp) = &pkt.payload else {
        panic!("not ESP")
    };
    let mut tampered = esp.clone();
    let mut ct = tampered.ciphertext.to_vec();
    let mid = ct.len() / 2;
    ct[mid] ^= 0x80;
    tampered.ciphertext = Bytes::from(ct);
    Packet::new(pkt.src, pkt.dst, Payload::Esp(tampered))
}

impl Node for Mitm {
    fn start(&mut self, ctx: &mut Ctx) {
        for pkt in self.inject.drain(..) {
            ctx.transmit(self.right, pkt);
        }
    }

    fn handle_packet(&mut self, iface: usize, pkt: Packet, ctx: &mut Ctx) {
        let out = if iface == 0 { self.right } else { self.left };
        if let Payload::HipControl(_) = &pkt.payload {
            self.control.push((iface == 0, pkt.clone()));
        }
        if let Payload::Esp(_) = &pkt.payload {
            self.esp_seen += 1;
            if iface == 0 {
                self.esp_right += 1;
                if let Some((n, attack)) = self.frame_attack {
                    if n == self.esp_right {
                        match attack {
                            FrameAttack::Tamper => ctx.transmit(out, tamper(&pkt)),
                            FrameAttack::Replay => {
                                ctx.transmit(out, pkt.clone());
                                ctx.transmit(out, pkt);
                            }
                            FrameAttack::Drop => {}
                        }
                        return;
                    }
                }
            }
            if self.tamper_esp && self.esp_seen.is_multiple_of(3) {
                ctx.transmit(out, tamper(&pkt));
                return;
            }
            if self.replay_esp {
                ctx.transmit(out, pkt.clone());
            }
        }
        ctx.transmit(out, pkt);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct EchoServer;
impl App for EchoServer {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_listen(7);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Data(s, d)) = ev {
            api.tcp_send(s, d);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Chat {
    target: IpAddr,
    rounds: usize,
    sent: usize,
    replies: usize,
}
impl App for Chat {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_connect(self.target, 7);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Tcp(TcpEvent::Connected(s)) => {
                self.sent += 1;
                api.tcp_send(s, b"round");
            }
            AppEvent::Tcp(TcpEvent::Data(s, _)) => {
                self.replies += 1;
                if self.sent < self.rounds {
                    self.sent += 1;
                    api.tcp_send(s, b"round");
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

struct World {
    sim: Sim,
    a: netsim::NodeId,
    b: netsim::NodeId,
    m: netsim::NodeId,
    hit_a: Hit,
    hit_b: Hit,
}

/// a — mitm — b, HIP between a and b, chat app running.
fn build(mitm_cfg: impl FnOnce(&mut Mitm), seed: u64) -> World {
    let chat = |hit_b: Hit| -> Box<dyn App> {
        Box::new(Chat {
            target: hit_b.to_ip(),
            rounds: 10,
            sent: 0,
            replies: 0,
        })
    };
    build_with(mitm_cfg, seed, chat, Box::new(EchoServer))
}

/// a — mitm — b with HIP between a and b: `app_a(hit_b)` runs on a,
/// `app_b` on b.
fn build_with(
    mitm_cfg: impl FnOnce(&mut Mitm),
    seed: u64,
    app_a: impl FnOnce(Hit) -> Box<dyn App>,
    app_b: Box<dyn App>,
) -> World {
    let mut key_rng = StdRng::seed_from_u64(seed);
    let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
    let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
    let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
    let (addr_a, addr_b) = (v4(10, 0, 0, 1), v4(10, 0, 0, 2));

    let mut shim_a = HipShim::new(id_a, HipConfig::default());
    shim_a.add_peer(
        hit_b,
        PeerInfo {
            locators: vec![addr_b],
            via_rvs: None,
        },
    );
    let mut shim_b = HipShim::new(id_b, HipConfig::default());
    shim_b.add_peer(
        hit_a,
        PeerInfo {
            locators: vec![addr_a],
            via_rvs: None,
        },
    );

    let mut sim = Sim::new(seed ^ 0xabc);
    let mut ha = Host::new("a");
    ha.set_shim(Box::new(shim_a));
    ha.add_app(app_a(hit_b));
    let mut hb = Host::new("b");
    hb.set_shim(Box::new(shim_b));
    hb.add_app(app_b);

    let a = sim.world.add_node(Box::new(ha));
    let b = sim.world.add_node(Box::new(hb));
    let mut mitm = Mitm {
        left: LinkId(0),
        right: LinkId(1),
        replay_esp: false,
        tamper_esp: false,
        inject: Vec::new(),
        esp_seen: 0,
        frame_attack: None,
        esp_right: 0,
        control: Vec::new(),
    };
    mitm_cfg(&mut mitm);
    let m = sim.world.add_node(Box::new(mitm));
    let la = sim.world.connect(
        Endpoint { node: a, iface: 0 },
        Endpoint { node: m, iface: 0 },
        LinkParams::datacenter(),
    );
    let lb = sim.world.connect(
        Endpoint { node: m, iface: 1 },
        Endpoint { node: b, iface: 0 },
        LinkParams::datacenter(),
    );
    // The Mitm's left/right were guessed as LinkId(0)/(1): patch reality.
    {
        let mm = sim.world.node_mut::<Mitm>(m).expect("mitm");
        mm.left = la;
        mm.right = lb;
    }
    sim.world
        .node_mut::<Host>(a)
        .expect("a")
        .core
        .add_iface(la, vec![addr_a]);
    sim.world
        .node_mut::<Host>(b)
        .expect("b")
        .core
        .add_iface(lb, vec![addr_b]);
    World {
        sim,
        a,
        b,
        m,
        hit_a,
        hit_b,
    }
}

fn shim_stats(sim: &Sim, node: netsim::NodeId) -> hip_core::HipStats {
    shim_of(sim, node).stats
}

fn shim_of(sim: &Sim, node: netsim::NodeId) -> &HipShim {
    sim.world
        .node::<Host>(node)
        .expect("host")
        .shim::<HipShim>()
        .expect("shim")
}

/// Panics unless both hosts' shims pass `check_invariants`.
fn check_shims(w: &World) {
    for node in [w.a, w.b] {
        if let Err(e) = shim_of(&w.sim, node).check_invariants() {
            panic!("shim of {node:?}: {e}");
        }
    }
}

#[test]
fn replayed_esp_packets_are_dropped_and_chat_survives() {
    let mut w = build(|m| m.replay_esp = true, 1);
    w.sim.run_until(SimTime(20_000_000_000));
    let chat = w
        .sim
        .world
        .node::<Host>(w.a)
        .expect("a")
        .app::<Chat>(0)
        .expect("chat");
    assert_eq!(
        chat.replies, 10,
        "application unaffected by the replay attack"
    );
    let sb = shim_stats(&w.sim, w.b);
    assert!(
        sb.drops_replay > 0,
        "duplicates were detected and dropped: {sb:?}"
    );
    check_shims(&w);
}

#[test]
fn tampered_esp_packets_rejected_tcp_recovers() {
    let mut w = build(|m| m.tamper_esp = true, 2);
    w.sim.run_until(SimTime(60_000_000_000));
    let chat = w
        .sim
        .world
        .node::<Host>(w.a)
        .expect("a")
        .app::<Chat>(0)
        .expect("chat");
    // TCP retransmits whatever the ICV check discarded; progress holds.
    assert!(
        chat.replies >= 5,
        "chat made progress despite tampering: {}",
        chat.replies
    );
    let sa = shim_stats(&w.sim, w.a);
    let sb = shim_stats(&w.sim, w.b);
    assert!(
        sa.drops_auth + sb.drops_auth > 0,
        "tampered packets failed authentication: a={sa:?} b={sb:?}"
    );
    check_shims(&w);
}

#[test]
fn forged_i2_cannot_hijack_an_identity() {
    // The attacker knows the victim's HIT and crafts an I2 claiming it,
    // but signs with its own key (it cannot do better: the HIT is the
    // hash of the key). The responder must reject it.
    let mut key_rng = StdRng::seed_from_u64(9);
    let attacker = HostIdentity::generate_rsa(512, &mut key_rng);

    let mut w = build(|_m| {}, 3);
    // First let the legitimate association establish.
    w.sim.run_until(SimTime(5_000_000_000));
    assert!(w
        .sim
        .world
        .node::<Host>(w.b)
        .expect("b")
        .shim::<HipShim>()
        .expect("shim")
        .is_established(&w.hit_a));
    let before = shim_stats(&w.sim, w.b);

    // Forge: I2 with sender HIT = victim's, HOST_ID = attacker's key.
    let mut rng = StdRng::seed_from_u64(10);
    let forged = {
        let mut params = vec![
            Param::Solution {
                k: 10,
                opaque: 0,
                i: 0xdead,
                j: 0xbeef,
            },
            Param::DiffieHellman {
                group: 255,
                public: vec![2; 64],
            },
            Param::EspInfo {
                old_spi: 0,
                new_spi: 0x6666,
            },
            Param::HostId(attacker.public().to_bytes()),
        ];
        let unsigned = HipPacket::new(PacketType::I2, w.hit_a, w.hit_b, params.clone());
        let covered = unsigned.bytes_before(param_type::HIP_SIGNATURE);
        params.push(Param::Signature(attacker.sign(&covered, &mut rng)));
        HipPacket::new(PacketType::I2, w.hit_a, w.hit_b, params)
    };
    let inject = Packet::new(
        v4(10, 0, 0, 66),
        v4(10, 0, 0, 2),
        Payload::HipControl(forged.encode()),
    );
    w.sim.schedule(
        netsim::SimDuration::from_millis(1),
        netsim::Event::PacketArrive {
            node: w.b,
            iface: 0,
            pkt: inject,
        },
    );
    w.sim.run_until(SimTime(10_000_000_000));

    let after = shim_stats(&w.sim, w.b);
    assert!(after.drops_auth > before.drops_auth, "forged I2 rejected");
    assert_eq!(
        after.bex_completed, before.bex_completed,
        "no new association from the forgery"
    );
    // The legitimate association is untouched.
    let chat = w
        .sim
        .world
        .node::<Host>(w.a)
        .expect("a")
        .app::<Chat>(0)
        .expect("chat");
    assert_eq!(chat.replies, 10);
    check_shims(&w);
}

#[test]
fn injected_esp_with_unknown_spi_is_dropped() {
    let mut w = build(|_m| {}, 4);
    w.sim.run_until(SimTime(3_000_000_000));
    let before = shim_stats(&w.sim, w.b);
    // Garbage ESP aimed at b with a random SPI.
    let esp = netsim::packet::EspPacket {
        spi: 0x4141_4141,
        seq: 1,
        ciphertext: Bytes::from(vec![0x41u8; 64]),
        icv: [0x41u8; 16],
    };
    w.sim.schedule(
        netsim::SimDuration::from_millis(1),
        netsim::Event::PacketArrive {
            node: w.b,
            iface: 0,
            pkt: Packet::new(v4(10, 0, 0, 66), v4(10, 0, 0, 2), Payload::Esp(esp)),
        },
    );
    w.sim.run_until(SimTime(4_000_000_000));
    let after = shim_stats(&w.sim, w.b);
    assert_eq!(after.drops_no_sa, before.drops_no_sa + 1);
    check_shims(&w);
}

#[test]
fn attacker_observing_wire_learns_nothing_plaintext() {
    let mut w = build(|_m| {}, 5);
    w.sim.trace = netsim::trace::Trace::enabled(50_000);
    w.sim.run_until(SimTime(10_000_000_000));
    // Everything the mitm forwarded between the hosts was HIP/ESP.
    for e in w.sim.trace.entries() {
        if let netsim::trace::TraceData::Tx(p) = &e.data {
            assert!(
                p.proto == 50 || p.proto == 139,
                "cleartext on the attacker's wire: {}",
                e.detail()
            );
        }
    }
    let _ = (w.hit_a, w.hit_b);
    check_shims(&w);
}

/// Sends `data` to port 7 in one write, then closes.
struct BulkSender {
    target: IpAddr,
    data: Vec<u8>,
}
impl App for BulkSender {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_connect(self.target, 7);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Connected(s)) = ev {
            let d = std::mem::take(&mut self.data);
            api.tcp_send(s, d);
            api.tcp_close(s);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Collects everything that arrives on port 7.
struct BulkReceiver {
    got: Vec<u8>,
}
impl App for BulkReceiver {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_listen(7);
    }
    fn on_event(&mut self, ev: AppEvent, _api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Data(_, data)) = ev {
            self.got.extend_from_slice(&data);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What a bulk run under attack reports.
#[derive(Debug, PartialEq)]
struct BulkOutcome {
    delivered: Vec<u8>,
    stats_a: hip_core::HipStats,
    stats_b: hip_core::HipStats,
    drop_auth: Option<u64>,
    drop_replay: Option<u64>,
}

impl BulkOutcome {
    /// `(a.esp_out, a.esp_bytes_out, b.esp_in, b.esp_bytes_in)`.
    fn esp_data_counts(&self) -> (u64, u64, u64, u64) {
        let (a, b) = (&self.stats_a, &self.stats_b);
        (a.esp_out, a.esp_bytes_out, b.esp_in, b.esp_bytes_in)
    }
}

/// A 256 KiB HIP bulk transfer a → b with `attack` applied to the 40th
/// ESP frame heading to b — mid-burst, well after the handshake.
fn bulk_under_attack(attack: FrameAttack) -> BulkOutcome {
    let data: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 251) as u8).collect();
    let sender = |hit_b: Hit| -> Box<dyn App> {
        Box::new(BulkSender {
            target: hit_b.to_ip(),
            data: data.clone(),
        })
    };
    let mut w = build_with(
        |m| m.frame_attack = Some((40, attack)),
        6,
        sender,
        Box::new(BulkReceiver { got: Vec::new() }),
    );
    w.sim.run_until(SimTime(30_000_000_000));
    let got = &w
        .sim
        .world
        .node::<Host>(w.b)
        .expect("b")
        .app::<BulkReceiver>(0)
        .expect("receiver")
        .got;
    assert_eq!(*got, data, "{attack:?}: TCP must recover the whole stream");
    for node in [w.a, w.b] {
        let tcp = &w.sim.world.node::<Host>(node).expect("host").core.tcp;
        if let Err(e) = tcp.check_invariants() {
            panic!("{attack:?}: TCP invariant broken on {node:?}: {e}");
        }
    }
    check_shims(&w);
    BulkOutcome {
        delivered: got.clone(),
        stats_a: shim_stats(&w.sim, w.a),
        stats_b: shim_stats(&w.sim, w.b),
        drop_auth: w.sim.metrics.counter_value("esp.drop.auth"),
        drop_replay: w.sim.metrics.counter_value("esp.drop.replay"),
    }
}

// The ESP data counts below are pinned to what the previous datapath
// (TCP super-segments split at the shim) produced for the same seed:
// one ESP packet per MSS frame, so moving to per-MSS TCP emission must
// not change a single frame.

#[test]
fn bulk_tampered_frame_rejected_alone() {
    let out = bulk_under_attack(FrameAttack::Tamper);
    assert_eq!(
        out.stats_b.drops_auth, 1,
        "exactly the tampered frame fails its ICV: {:?}",
        out.stats_b
    );
    assert_eq!(out.drop_auth, Some(1));
    assert_eq!(out.stats_b.drops_replay, 0);
    assert_eq!(out.esp_data_counts(), (301, 269_612, 300, 268_144));
    assert_eq!(out, bulk_under_attack(FrameAttack::Tamper), "deterministic");
}

#[test]
fn bulk_replayed_frame_rejected_alone() {
    let out = bulk_under_attack(FrameAttack::Replay);
    assert_eq!(
        out.stats_b.drops_replay, 1,
        "exactly the duplicate is refused: {:?}",
        out.stats_b
    );
    assert_eq!(out.drop_replay, Some(1));
    assert_eq!(out.stats_b.drops_auth, 0);
    assert_eq!(out.esp_data_counts(), (185, 265_844, 185, 265_844));
    assert_eq!(out, bulk_under_attack(FrameAttack::Replay), "deterministic");
}

#[test]
fn bulk_dropped_frame_is_retransmitted() {
    let out = bulk_under_attack(FrameAttack::Drop);
    assert_eq!(
        (out.stats_b.drops_auth, out.stats_b.drops_replay),
        (0, 0),
        "{:?}",
        out.stats_b
    );
    // The stream is whole (checked in `bulk_under_attack`), so TCP
    // resent the data; only the swallowed frame never reached b.
    assert_eq!(
        out.stats_a.esp_out,
        out.stats_b.esp_in + 1,
        "a={:?} b={:?}",
        out.stats_a,
        out.stats_b
    );
    assert_eq!(out.esp_data_counts(), (301, 269_612, 300, 268_144));
    assert_eq!(out, bulk_under_attack(FrameAttack::Drop), "deterministic");
}

#[test]
fn sprayed_spis_leave_the_notify_limiter_bounded() {
    // A co-tenant sprays ESP frames, each with a new SPI, at b for 10 s.
    // Each unknown SPI is a NOTIFY rate-limiter entry; entries whose
    // one-second window has passed must not pile up.
    const PER_SECOND: u64 = 200;
    const SECONDS: u64 = 10;
    let mut w = build(|_m| {}, 5);
    w.sim.run_until(SimTime(3_000_000_000));
    let before = shim_stats(&w.sim, w.b);
    let spacing = 1_000_000_000 / PER_SECOND;
    for i in 0..PER_SECOND * SECONDS {
        let esp = netsim::packet::EspPacket {
            spi: 0x5000_0000 + i as u32,
            seq: 1,
            ciphertext: Bytes::from(vec![0x41u8; 64]),
            icv: [0x41u8; 16],
        };
        w.sim.schedule(
            netsim::SimDuration::from_nanos(1 + i * spacing),
            netsim::Event::PacketArrive {
                node: w.b,
                iface: 0,
                pkt: Packet::new(v4(10, 0, 0, 66), v4(10, 0, 0, 2), Payload::Esp(esp)),
            },
        );
    }
    w.sim.run_until(SimTime((3 + SECONDS + 1) * 1_000_000_000));
    // `check_invariants` bounds the limiter to one window either side of
    // its last sweep.
    check_shims(&w);
    let after = shim_stats(&w.sim, w.b);
    assert_eq!(after.drops_no_sa, before.drops_no_sa + PER_SECOND * SECONDS);
    let shim = w
        .sim
        .world
        .node::<Host>(w.b)
        .expect("b")
        .shim::<HipShim>()
        .expect("shim");
    // At most the SPIs of the last two windows stay.
    let len = shim.notify_limiter_len() as u64;
    assert!(
        len <= 2 * PER_SECOND,
        "{len} limiter entries after {} sprayed SPIs",
        PER_SECOND * SECONDS
    );
    let chat = w
        .sim
        .world
        .node::<Host>(w.a)
        .expect("a")
        .app::<Chat>(0)
        .expect("chat");
    assert_eq!(chat.replies, 10, "the legitimate association is unaffected");
}

/// The seed of the world the adversary below records and attacks.
const RECORDED_SEED: u64 = 7;

/// The control packets of one real run between a and b, with whether
/// each headed to b: the BEX, the UPDATEs after a moves, then a's CLOSE
/// and b's CLOSE_ACK.
fn recorded_control() -> &'static [(bool, Packet)] {
    static RECORDED: OnceLock<Vec<(bool, Packet)>> = OnceLock::new();
    RECORDED.get_or_init(|| {
        let mut w = build(|_m| {}, RECORDED_SEED);
        w.sim.run_until(SimTime(3_000_000_000));
        let (hit_b, moved) = (w.hit_b, v4(10, 0, 0, 3));
        w.sim.with_node_ctx(w.a, |node, ctx| {
            let host = node.as_any_mut().downcast_mut::<Host>().expect("a");
            host.core.replace_iface_addrs(0, vec![moved]);
            host.shim_command(ctx, |shim, api| {
                let shim = shim.as_any_mut().downcast_mut::<HipShim>().expect("shim");
                shim.relocate(api, moved);
            });
        });
        w.sim.run_until(SimTime(4_000_000_000));
        w.sim.with_node_ctx(w.a, |node, ctx| {
            let host = node.as_any_mut().downcast_mut::<Host>().expect("a");
            host.shim_command(ctx, |shim, api| {
                let shim = shim.as_any_mut().downcast_mut::<HipShim>().expect("shim");
                shim.close(api, hit_b);
            });
        });
        w.sim.run_until(SimTime(5_000_000_000));
        let control = w.sim.world.node::<Mitm>(w.m).expect("mitm").control.clone();
        let types: Vec<PacketType> = control
            .iter()
            .map(|(_, p)| {
                let Payload::HipControl(bytes) = &p.payload else {
                    unreachable!("only control packets are recorded")
                };
                HipPacket::decode(bytes)
                    .expect("recorded packet decodes")
                    .packet_type
            })
            .collect();
        for t in [
            PacketType::I1,
            PacketType::R1,
            PacketType::I2,
            PacketType::R2,
            PacketType::Update,
            PacketType::Close,
            PacketType::CloseAck,
        ] {
            assert!(types.contains(&t), "no {t:?} recorded: {types:?}");
        }
        control
    })
}

/// One packet the adversary delivers.
#[derive(Clone, Debug)]
enum Attack {
    /// Recorded control packet `n` (mod the count), again.
    Replay(usize),
    /// Recorded packet `n`, cut to `len` (mod its length) bytes.
    Truncate(usize, usize),
    /// Recorded packet `n` with bit `bit` (mod its bits) flipped.
    Flip(usize, usize),
    /// ESP under a random SPI.
    Esp(u32, u32),
    /// NOTIFY(stale SPI) from a HIT neither host has met.
    Notify([u8; 16], u32),
    /// CLOSE from a HIT neither host has met.
    Close([u8; 16], u64),
}

impl Attack {
    /// The packet, and whether it goes to b: recorded packets keep
    /// their direction, forged ones go where `to_b` says.
    fn packet(&self, to_b: bool) -> (bool, Packet) {
        let recorded = recorded_control();
        let control = |n: usize, edit: &dyn Fn(&mut Vec<u8>)| {
            let (to_b, pkt) = &recorded[n % recorded.len()];
            let Payload::HipControl(bytes) = &pkt.payload else {
                unreachable!("only control packets are recorded")
            };
            let mut bytes = bytes.to_vec();
            edit(&mut bytes);
            let pkt = Packet::new(pkt.src, pkt.dst, Payload::HipControl(Bytes::from(bytes)));
            (*to_b, pkt)
        };
        let src = v4(10, 0, 0, 66);
        let dst = if to_b {
            v4(10, 0, 0, 2)
        } else {
            v4(10, 0, 0, 1)
        };
        let forged = |ptype, sender: [u8; 16], params| {
            let pkt = HipPacket::new(ptype, Hit(sender), Hit::NULL, params);
            (
                to_b,
                Packet::new(src, dst, Payload::HipControl(pkt.encode())),
            )
        };
        match *self {
            Attack::Replay(n) => control(n, &|_| {}),
            Attack::Truncate(n, len) => control(n, &|b| b.truncate(len % b.len())),
            Attack::Flip(n, bit) => control(n, &|b| {
                let bit = bit % (b.len() * 8);
                b[bit / 8] ^= 1 << (bit % 8);
            }),
            Attack::Esp(spi, seq) => {
                let esp = netsim::packet::EspPacket {
                    spi,
                    seq,
                    ciphertext: Bytes::from(vec![0x41u8; 64]),
                    icv: [0x41u8; 16],
                };
                (to_b, Packet::new(src, dst, Payload::Esp(esp)))
            }
            Attack::Notify(sender, spi) => forged(
                PacketType::Notify,
                sender,
                vec![Param::EspInfo {
                    old_spi: spi,
                    new_spi: 0,
                }],
            ),
            Attack::Close(sender, nonce) => {
                forged(PacketType::Close, sender, vec![Param::EchoRequest(nonce)])
            }
        }
    }
}

fn arb_attack() -> impl Strategy<Value = Attack> {
    prop_oneof![
        any::<usize>().prop_map(Attack::Replay),
        (any::<usize>(), any::<usize>()).prop_map(|(n, len)| Attack::Truncate(n, len)),
        (any::<usize>(), any::<usize>()).prop_map(|(n, bit)| Attack::Flip(n, bit)),
        (any::<u32>(), any::<u32>()).prop_map(|(spi, seq)| Attack::Esp(spi, seq)),
        (any::<[u8; 16]>(), any::<u32>()).prop_map(|(h, spi)| Attack::Notify(h, spi)),
        (any::<[u8; 16]>(), any::<u64>()).prop_map(|(h, n)| Attack::Close(h, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replays, reorderings, truncations and bit flips of a real run's
    /// control packets, random-SPI ESP, and NOTIFY and CLOSE from
    /// strangers, all landing in the first two seconds of a fresh run
    /// (its BEX and chat included): no shim panics, both keep their
    /// bookkeeping, the legitimate BEX completes and the chat finishes.
    #[test]
    fn recorded_control_traffic_under_attack(
        attacks in proptest::collection::vec((arb_attack(), 0u64..2_000_000, any::<bool>()), 1..24)
    ) {
        let mut w = build(|_m| {}, RECORDED_SEED);
        for (attack, at_us, to_b) in &attacks {
            let (to_b, pkt) = attack.packet(*to_b);
            w.sim.schedule(
                netsim::SimDuration::from_micros(*at_us),
                netsim::Event::PacketArrive {
                    node: if to_b { w.b } else { w.a },
                    iface: 0,
                    pkt,
                },
            );
        }
        w.sim.run_until(SimTime(20_000_000_000));
        check_shims(&w);
        let (sa, sb) = (shim_stats(&w.sim, w.a), shim_stats(&w.sim, w.b));
        prop_assert!(
            sa.bex_completed >= 1 && sb.bex_completed >= 1,
            "{attacks:?}: a={sa:?} b={sb:?}"
        );
        let chat = w.sim.world.node::<Host>(w.a).expect("a").app::<Chat>(0).expect("chat");
        prop_assert_eq!(chat.replies, 10, "{:?}: a={:?} b={:?}", attacks, sa, sb);
    }
}
