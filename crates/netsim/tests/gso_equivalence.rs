//! Batched-vs-unbatched datapath equivalence.
//!
//! `GsoMode::Exact` (the default) must be *bit-identical* to
//! `GsoMode::Off`: the super-segment is split back into per-MTU frames
//! at the NIC, drawing loss/jitter in the same order, so every event,
//! every RNG draw, every counter and every delivered byte matches the
//! per-segment datapath — under clean links, random loss, jitter, and
//! scripted loss bursts alike.

use netsim::fault::{FaultEpisode, FaultPlan};
use netsim::host::{App, AppEvent, Host, HostApi};
use netsim::link::{Endpoint, LinkParams};
use netsim::packet::v4;
use netsim::tcp::{GsoMode, TcpEvent};
use netsim::{Sim, SimDuration, SimStats, SimTime};
use proptest::prelude::*;
use std::any::Any;
use std::net::IpAddr;

struct Sender {
    target: IpAddr,
    data: Vec<u8>,
}
impl App for Sender {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_connect(self.target, 7).expect("source address exists");
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Connected(s)) = ev {
            let d = self.data.clone();
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

struct Receiver {
    got: Vec<u8>,
    eof: bool,
}
impl App for Receiver {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_listen(7);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Tcp(TcpEvent::Data(s)) => self.got.extend(api.tcp_recv(s)),
            AppEvent::Tcp(TcpEvent::PeerClosed(s)) => {
                self.got.extend(api.tcp_recv(s));
                self.eof = true;
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

/// Everything observable about a run that batching must preserve.
#[derive(Debug, PartialEq)]
struct Outcome {
    got: Vec<u8>,
    eof: bool,
    stats: SimStats,
    /// `engine.ev.packet` — arrivals dispatched.
    ev_packets: u64,
    /// Sum over `engine.pkt.bytes` — total wire bytes that arrived.
    wire_bytes: u64,
    /// `link.drops` — frames lost on the link.
    link_drops: u64,
    end: SimTime,
}

/// A scripted mid-transfer loss burst, exercising the FaultPlan path.
#[derive(Clone, Copy, Debug)]
struct Burst {
    offset_ms: u64,
    prob: f64,
    dur_ms: u64,
}

fn transfer(
    gso: GsoMode,
    data: &[u8],
    loss: f64,
    latency_us: u64,
    jitter_us: u64,
    seed: u64,
    burst: Option<Burst>,
) -> Outcome {
    let mut sim = Sim::new(seed);
    let mut ha = Host::new("a");
    ha.add_app(Box::new(Sender { target: v4(10, 0, 0, 2), data: data.to_vec() }));
    let mut hb = Host::new("b");
    let recv = hb.add_app(Box::new(Receiver { got: vec![], eof: false }));
    let a = sim.world.add_node(Box::new(ha));
    let b = sim.world.add_node(Box::new(hb));
    let params = LinkParams::datacenter()
        .with_loss(loss)
        .with_latency(SimDuration::from_micros(latency_us))
        .with_jitter(SimDuration::from_micros(jitter_us));
    let link = sim.world.connect(
        Endpoint { node: a, iface: 0 },
        Endpoint { node: b, iface: 0 },
        params,
    );
    for (node, ip) in [(a, v4(10, 0, 0, 1)), (b, v4(10, 0, 0, 2))] {
        let h = sim.world.node_mut::<Host>(node).expect("host");
        h.core.add_iface(link, vec![ip]);
        h.core.tcp.config.gso = gso;
    }
    if let Some(bu) = burst {
        FaultPlan::new()
            .at(
                SimDuration::from_millis(bu.offset_ms),
                FaultEpisode::LossBurst {
                    link,
                    prob: bu.prob,
                    duration: SimDuration::from_millis(bu.dur_ms),
                },
            )
            .schedule(&mut sim)
            .expect("valid burst");
    }
    sim.run_until(SimTime(400_000_000_000));
    let ev_packets = sim.metrics.counter_value("engine.ev.packet").unwrap_or(0);
    let wire_bytes = sim.metrics.hist_get("engine.pkt.bytes").map(|h| h.sum()).unwrap_or(0);
    let link_drops = sim.metrics.counter_value("link.drops").unwrap_or(0);
    let stats = sim.stats();
    let end = sim.now();
    let r = sim.world.node::<Host>(b).expect("b").app::<Receiver>(recv).expect("receiver");
    Outcome { got: r.got.clone(), eof: r.eof, stats, ev_packets, wire_bytes, link_drops, end }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core invariant: Exact batching is bit-identical to the
    /// unbatched datapath — same delivered bytes, same event counts,
    /// same wire bytes, same drops, same timers, same end time — under
    /// random loss, jitter, and a scripted loss burst.
    #[test]
    fn exact_is_bit_identical_to_off(
        data in proptest::collection::vec(any::<u8>(), 1..40_000),
        loss in 0.0f64..0.12,
        latency_us in 50u64..3_000,
        jitter_us in 0u64..400,
        seed in any::<u64>(),
        burst_prob in 0.0f64..0.8,
        burst_offset_ms in 0u64..50,
    ) {
        let burst = Some(Burst { offset_ms: burst_offset_ms, prob: burst_prob, dur_ms: 20 });
        let off = transfer(GsoMode::Off, &data, loss, latency_us, jitter_us, seed, burst);
        let exact = transfer(GsoMode::Exact, &data, loss, latency_us, jitter_us, seed, burst);
        prop_assert_eq!(&off.got, &data, "unbatched must deliver the stream");
        prop_assert_eq!(off, exact);
    }
}
