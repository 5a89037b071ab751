//! Property-based tests for the network simulator: TCP's end-to-end
//! contract under randomized conditions, address-classification laws,
//! Teredo encoding, and engine determinism.

use netsim::host::{App, AppEvent, Host, HostApi};
use netsim::link::{Endpoint, LinkParams};
use netsim::packet::v4;
use netsim::tcp::TcpEvent;
use netsim::{Sim, SimDuration, SimTime};
use proptest::prelude::*;
use std::any::Any;
use std::net::IpAddr;

struct Sender {
    target: IpAddr,
    data: Vec<u8>,
    done: bool,
}
impl App for Sender {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_connect(self.target, 7)
            .expect("source address exists");
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Tcp(TcpEvent::Connected(s)) => {
                let d = self.data.clone();
                api.tcp_send(s, d);
                api.tcp_close(s);
            }
            AppEvent::Tcp(TcpEvent::Closed(_)) => self.done = true,
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

/// Builds a two-host world with the given link characteristics, sends
/// `data` over TCP, checks both TCP layers' invariants, and returns
/// what arrived.
fn transfer(
    data: Vec<u8>,
    loss: f64,
    latency_us: u64,
    jitter_us: u64,
    seed: u64,
) -> (Vec<u8>, bool) {
    let mut sim = Sim::new(seed);
    let mut ha = Host::new("a");
    ha.add_app(Box::new(Sender {
        target: v4(10, 0, 0, 2),
        data,
        done: false,
    }));
    let mut hb = Host::new("b");
    let recv = hb.add_app(Box::new(Receiver {
        got: vec![],
        eof: false,
    }));
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
    sim.world
        .node_mut::<Host>(a)
        .expect("a")
        .core
        .add_iface(link, vec![v4(10, 0, 0, 1)]);
    sim.world
        .node_mut::<Host>(b)
        .expect("b")
        .core
        .add_iface(link, vec![v4(10, 0, 0, 2)]);
    sim.run_until(SimTime(400_000_000_000));
    for node in [a, b] {
        if let Err(e) = sim
            .world
            .node::<Host>(node)
            .expect("host")
            .core
            .tcp
            .check_invariants()
        {
            panic!("TCP invariant broken on {node:?}: {e}");
        }
    }
    let r = sim
        .world
        .node::<Host>(b)
        .expect("b")
        .app::<Receiver>(recv)
        .expect("receiver");
    (r.got.clone(), r.eof)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// TCP delivers exactly the bytes sent, in order, over a clean link.
    #[test]
    fn tcp_delivers_exact_bytes_clean_link(
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
        latency_us in 50u64..5000,
        seed in any::<u64>(),
    ) {
        let (got, eof) = transfer(data.clone(), 0.0, latency_us, 0, seed);
        prop_assert!(eof, "FIN must arrive");
        prop_assert_eq!(got, data);
    }

    /// ... and under loss + jitter, retransmission restores the exact
    /// byte stream (the fundamental TCP property).
    #[test]
    fn tcp_delivers_exact_bytes_lossy_link(
        data in proptest::collection::vec(any::<u8>(), 1..8_000),
        loss in 0.0f64..0.15,
        jitter_us in 0u64..500,
        seed in any::<u64>(),
    ) {
        let (got, _eof) = transfer(data.clone(), loss, 300, jitter_us, seed);
        prop_assert_eq!(got, data);
    }
}

proptest! {
    #[test]
    fn teredo_address_round_trips(server in any::<[u8; 4]>(), client in any::<[u8; 4]>(), port in any::<u16>()) {
        use netsim::addr::{teredo_address, teredo_decode};
        let s = std::net::Ipv4Addr::from(server);
        let c = std::net::Ipv4Addr::from(client);
        let addr = teredo_address(s, c, port);
        prop_assert_eq!(teredo_decode(&addr), Some((s, c, port)));
    }

    #[test]
    fn address_classes_are_disjoint(bytes in any::<[u8; 16]>()) {
        use netsim::addr::{is_hit, is_lsi, is_teredo};
        let addr = IpAddr::V6(std::net::Ipv6Addr::from(bytes));
        // A v6 address is never an LSI; HIT and Teredo ranges are disjoint.
        prop_assert!(!is_lsi(&addr));
        prop_assert!(!(is_hit(&addr) && is_teredo(&addr)));
    }

    #[test]
    fn source_selection_respects_family(
        candidates in proptest::collection::vec(any::<[u8; 4]>(), 1..5),
        dst in any::<[u8; 4]>(),
    ) {
        use netsim::addr::select_source;
        let cands: Vec<IpAddr> =
            candidates.iter().map(|b| IpAddr::V4(std::net::Ipv4Addr::from(*b))).collect();
        let dst = IpAddr::V4(std::net::Ipv4Addr::from(dst));
        if let Some(src) = select_source(&cands, &dst) {
            prop_assert!(src.is_ipv4());
            prop_assert!(cands.contains(&src));
        } else {
            prop_assert!(false, "v4 candidates must yield a v4 source");
        }
    }

    /// The CPU model never goes backwards: service completion delays are
    /// monotone under queueing.
    #[test]
    fn cpu_charge_is_monotone(
        works in proptest::collection::vec(1u64..50_000, 1..30),
        cores in 1usize..4,
        speed in 0.1f64..4.0,
    ) {
        let mut cpu = netsim::CpuModel::new(cores, speed);
        let now = SimTime::ZERO;
        let mut completions: Vec<u64> = Vec::new();
        for w in &works {
            let d = cpu.charge(now, SimDuration::from_micros(*w));
            completions.push(d.as_nanos());
        }
        // With a single core, completions must be strictly increasing.
        if cores == 1 {
            for pair in completions.windows(2) {
                prop_assert!(pair[1] > pair[0]);
            }
        }
        // Total busy time equals the sum of service times.
        let total: u64 = works.iter().map(|w| {
            let service = (*w as f64 * 1000.0 / speed).round() as u64;
            service.max(1)
        }).sum();
        let diff = cpu.busy_time().as_nanos().abs_diff(total);
        prop_assert!(diff <= works.len() as u64, "rounding tolerance");
    }
}
