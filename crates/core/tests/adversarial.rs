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
use netsim::tcp::{GsoMode, TcpEvent};
use netsim::{Endpoint, LinkParams, Sim, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::net::IpAddr;

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
    let Payload::Esp(esp) = &pkt.payload else { panic!("not ESP") };
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
        if let AppEvent::Tcp(TcpEvent::Data(s)) = ev {
            let d = api.tcp_recv(s);
            api.tcp_send(s, &d);
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
            AppEvent::Tcp(TcpEvent::Data(s)) => {
                let _ = api.tcp_recv(s);
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
    hit_a: Hit,
    hit_b: Hit,
}

/// a — mitm — b, HIP between a and b, chat app running.
fn build(mitm_cfg: impl FnOnce(&mut Mitm), seed: u64) -> World {
    let chat = |hit_b: Hit| -> Box<dyn App> {
        Box::new(Chat { target: hit_b.to_ip(), rounds: 10, sent: 0, replies: 0 })
    };
    build_with(mitm_cfg, seed, GsoMode::Exact, chat, Box::new(EchoServer))
}

/// a — mitm — b with HIP between a and b: `app_a(hit_b)` runs on a,
/// `app_b` on b, and both TCP stacks use `gso`.
fn build_with(
    mitm_cfg: impl FnOnce(&mut Mitm),
    seed: u64,
    gso: GsoMode,
    app_a: impl FnOnce(Hit) -> Box<dyn App>,
    app_b: Box<dyn App>,
) -> World {
    let mut key_rng = StdRng::seed_from_u64(seed);
    let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
    let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
    let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
    let (addr_a, addr_b) = (v4(10, 0, 0, 1), v4(10, 0, 0, 2));

    let mut shim_a = HipShim::new(id_a, HipConfig::default());
    shim_a.add_peer(hit_b, PeerInfo { locators: vec![addr_b], via_rvs: None });
    let mut shim_b = HipShim::new(id_b, HipConfig::default());
    shim_b.add_peer(hit_a, PeerInfo { locators: vec![addr_a], via_rvs: None });

    let mut sim = Sim::new(seed ^ 0xabc);
    let mut ha = Host::new("a");
    ha.set_shim(Box::new(shim_a));
    ha.add_app(app_a(hit_b));
    ha.core.tcp.config.gso = gso;
    let mut hb = Host::new("b");
    hb.set_shim(Box::new(shim_b));
    hb.add_app(app_b);
    hb.core.tcp.config.gso = gso;

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
    sim.world.node_mut::<Host>(a).expect("a").core.add_iface(la, vec![addr_a]);
    sim.world.node_mut::<Host>(b).expect("b").core.add_iface(lb, vec![addr_b]);
    World { sim, a, b, hit_a, hit_b }
}

fn shim_stats(sim: &Sim, node: netsim::NodeId) -> hip_core::HipStats {
    sim.world.node::<Host>(node).expect("host").shim::<HipShim>().expect("shim").stats
}

#[test]
fn replayed_esp_packets_are_dropped_and_chat_survives() {
    let mut w = build(|m| m.replay_esp = true, 1);
    w.sim.run_until(SimTime(20_000_000_000));
    let chat = w.sim.world.node::<Host>(w.a).expect("a").app::<Chat>(0).expect("chat");
    assert_eq!(chat.replies, 10, "application unaffected by the replay attack");
    let sb = shim_stats(&w.sim, w.b);
    assert!(sb.drops_replay > 0, "duplicates were detected and dropped: {sb:?}");
}

#[test]
fn tampered_esp_packets_rejected_tcp_recovers() {
    let mut w = build(|m| m.tamper_esp = true, 2);
    w.sim.run_until(SimTime(60_000_000_000));
    let chat = w.sim.world.node::<Host>(w.a).expect("a").app::<Chat>(0).expect("chat");
    // TCP retransmits whatever the ICV check discarded; progress holds.
    assert!(chat.replies >= 5, "chat made progress despite tampering: {}", chat.replies);
    let sa = shim_stats(&w.sim, w.a);
    let sb = shim_stats(&w.sim, w.b);
    assert!(
        sa.drops_auth + sb.drops_auth > 0,
        "tampered packets failed authentication: a={sa:?} b={sb:?}"
    );
}

#[test]
fn forged_i2_cannot_hijack_an_identity() {
    // The attacker knows the victim's HIT and crafts an I2 claiming it,
    // but signs with its own key (it cannot do better: the HIT is the
    // hash of the key). The responder must reject it.
    let mut key_rng = StdRng::seed_from_u64(9);
    let attacker = HostIdentity::generate_rsa(512, &mut key_rng);

    let mut w = build(
        |_m| {},
        3,
    );
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
            Param::Solution { k: 10, opaque: 0, i: 0xdead, j: 0xbeef },
            Param::DiffieHellman { group: 255, public: vec![2; 64] },
            Param::EspInfo { old_spi: 0, new_spi: 0x6666 },
            Param::HostId(attacker.public().to_bytes()),
        ];
        let unsigned = HipPacket::new(PacketType::I2, w.hit_a, w.hit_b, params.clone());
        let covered = unsigned.bytes_before(param_type::HIP_SIGNATURE);
        params.push(Param::Signature(attacker.sign(&covered, &mut rng)));
        HipPacket::new(PacketType::I2, w.hit_a, w.hit_b, params)
    };
    let inject = Packet::new(v4(10, 0, 0, 66), v4(10, 0, 0, 2), Payload::HipControl(forged.encode()));
    w.sim.schedule(
        netsim::SimDuration::from_millis(1),
        netsim::Event::PacketArrive { node: w.b, iface: 0, pkt: inject },
    );
    w.sim.run_until(SimTime(10_000_000_000));

    let after = shim_stats(&w.sim, w.b);
    assert!(after.drops_auth > before.drops_auth, "forged I2 rejected");
    assert_eq!(after.bex_completed, before.bex_completed, "no new association from the forgery");
    // The legitimate association is untouched.
    let chat = w.sim.world.node::<Host>(w.a).expect("a").app::<Chat>(0).expect("chat");
    assert_eq!(chat.replies, 10);
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
        icv: Bytes::from(vec![0x41u8; 16]),
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
            api.tcp_send(s, &d);
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
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Data(s) | TcpEvent::PeerClosed(s)) = ev {
            self.got.extend(api.tcp_recv(s));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What a bulk run under attack must reproduce across GSO modes.
#[derive(Debug, PartialEq)]
struct BulkOutcome {
    delivered: Vec<u8>,
    stats_a: hip_core::HipStats,
    stats_b: hip_core::HipStats,
    drop_auth: Option<u64>,
    drop_replay: Option<u64>,
}

/// A 256 KiB HIP bulk transfer a → b with `attack` applied to the 40th
/// ESP frame heading to b — mid-burst, well after the handshake.
fn bulk_under_attack(gso: GsoMode, attack: FrameAttack) -> BulkOutcome {
    let data: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 251) as u8).collect();
    let sender =
        |hit_b: Hit| -> Box<dyn App> { Box::new(BulkSender { target: hit_b.to_ip(), data: data.clone() }) };
    let mut w = build_with(
        |m| m.frame_attack = Some((40, attack)),
        6,
        gso,
        sender,
        Box::new(BulkReceiver { got: Vec::new() }),
    );
    w.sim.run_until(SimTime(30_000_000_000));
    let got = &w.sim.world.node::<Host>(w.b).expect("b").app::<BulkReceiver>(0).expect("receiver").got;
    assert_eq!(*got, data, "{gso:?}/{attack:?}: TCP must recover the whole stream");
    BulkOutcome {
        delivered: got.clone(),
        stats_a: shim_stats(&w.sim, w.a),
        stats_b: shim_stats(&w.sim, w.b),
        drop_auth: w.sim.metrics.counter_value("esp.drop.auth"),
        drop_replay: w.sim.metrics.counter_value("esp.drop.replay"),
    }
}

#[test]
fn bulk_tampered_frame_rejected_alone() {
    let off = bulk_under_attack(GsoMode::Off, FrameAttack::Tamper);
    assert_eq!(off.stats_b.drops_auth, 1, "exactly the tampered frame fails its ICV: {:?}", off.stats_b);
    assert_eq!(off.drop_auth, Some(1));
    assert_eq!(off.stats_b.drops_replay, 0);
    assert_eq!(off, bulk_under_attack(GsoMode::Exact, FrameAttack::Tamper));
}

#[test]
fn bulk_replayed_frame_rejected_alone() {
    let off = bulk_under_attack(GsoMode::Off, FrameAttack::Replay);
    assert_eq!(off.stats_b.drops_replay, 1, "exactly the duplicate is refused: {:?}", off.stats_b);
    assert_eq!(off.drop_replay, Some(1));
    assert_eq!(off.stats_b.drops_auth, 0);
    assert_eq!(off, bulk_under_attack(GsoMode::Exact, FrameAttack::Replay));
}

#[test]
fn bulk_dropped_frame_is_retransmitted() {
    let off = bulk_under_attack(GsoMode::Off, FrameAttack::Drop);
    assert_eq!((off.stats_b.drops_auth, off.stats_b.drops_replay), (0, 0), "{:?}", off.stats_b);
    // The stream is whole (checked in `bulk_under_attack`), so TCP
    // resent the data; only the swallowed frame never reached b.
    assert_eq!(off.stats_a.esp_out, off.stats_b.esp_in + 1, "a={:?} b={:?}", off.stats_a, off.stats_b);
    assert_eq!(off, bulk_under_attack(GsoMode::Exact, FrameAttack::Drop));
}
