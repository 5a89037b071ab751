//! TCP loss-recovery stress tool: sweeps thousands of seeds over a
//! 15%-loss link and verifies TCP's exactly-once, in-order delivery
//! contract on every one. Pass a seed argument to re-run one world with
//! packet tracing.
//!
//! Usage: `cargo run -p bench --release --bin tcploss_scan [seed] [--trace-out <path>]`
//!
//! Writes a run manifest to `results/tcploss_scan-scan.json`; with a
//! debug seed, `--trace-out` exports that run's typed trace as JSONL
//! (without one it is refused). Exits with status 1 when any world
//! mismatches or an output cannot be written, and with status 2 on a
//! command line it does not accept.
use bench::cli::Flag::{Seed, TraceOut};
use bench::report::Output;
use netsim::host::{App, AppEvent, Host, HostApi};
use netsim::link::{Endpoint, LinkParams};
use netsim::packet::v4;
use netsim::tcp::TcpEvent;
use netsim::{Sim, SimDuration, SimTime};
use std::any::Any;
use std::net::IpAddr;
use std::process::ExitCode;

struct Sender {
    target: IpAddr,
    data: Vec<u8>,
}
impl App for Sender {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_connect(self.target, 7).unwrap();
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Connected(s)) = ev {
            let d = self.data.clone();
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
struct Receiver {
    got: Vec<u8>,
}
impl App for Receiver {
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

fn main() -> ExitCode {
    let args = bench::cli::args("tcploss_scan", &[Seed, TraceOut]);
    let debug_seed = args.seed;
    let mut out = Output::new("tcploss_scan", debug_seed.unwrap_or(0));
    let wall_start = std::time::Instant::now();
    let mut scanned = 0u64;
    let mut mismatches = 0u64;
    let mut total_events = 0u64;
    let mut total_metrics = obs::MetricsRegistry::new();
    for seed in debug_seed.map(|s| s..s + 1).unwrap_or(0..2000u64) {
        let data: Vec<u8> = (0..5000u32)
            .map(|i| ((i * 7 + seed as u32) % 251) as u8)
            .collect();
        let mut sim = Sim::new(seed);
        if debug_seed.is_some() {
            sim.trace = netsim::trace::Trace::enabled(100000);
        }
        let mut ha = Host::new("a");
        ha.add_app(Box::new(Sender {
            target: v4(10, 0, 0, 2),
            data: data.clone(),
        }));
        let mut hb = Host::new("b");
        let recv = hb.add_app(Box::new(Receiver { got: vec![] }));
        let a = sim.world.add_node(Box::new(ha));
        let b = sim.world.add_node(Box::new(hb));
        let params = LinkParams::datacenter()
            .with_loss(0.15)
            .with_latency(SimDuration::from_micros(300))
            .with_jitter(SimDuration::from_micros(400));
        let link = sim.world.connect(
            Endpoint { node: a, iface: 0 },
            Endpoint { node: b, iface: 0 },
            params,
        );
        sim.world
            .node_mut::<Host>(a)
            .unwrap()
            .core
            .add_iface(link, vec![v4(10, 0, 0, 1)]);
        sim.world
            .node_mut::<Host>(b)
            .unwrap()
            .core
            .add_iface(link, vec![v4(10, 0, 0, 2)]);
        sim.run_until(SimTime(400_000_000_000));
        let got = &sim
            .world
            .node::<Host>(b)
            .unwrap()
            .app::<Receiver>(recv)
            .unwrap()
            .got;
        if debug_seed.is_some() {
            for e in sim.trace.entries() {
                let tcp = matches!(e.data.pkt(), Some(p) if p.proto == 6);
                if tcp || e.kind == netsim::trace::TraceKind::Drop {
                    println!(
                        "{:>10.4} n{} {:?} {}",
                        e.at.as_secs_f64(),
                        e.node.0,
                        e.kind,
                        e.detail()
                    );
                }
            }
            if let Some(path) = &args.trace_out {
                out.write_trace(&sim.trace, path);
            }
        }
        scanned += 1;
        if got != &data {
            mismatches += 1;
            let prefix = got.len() <= data.len() && data[..got.len()] == got[..];
            println!(
                "seed {seed}: MISMATCH got {} of {} bytes, prefix_ok={prefix}",
                got.len(),
                data.len()
            );
            if !prefix {
                let first_bad = got.iter().zip(&data).position(|(a, b)| a != b);
                println!("  first differing byte at {:?}", first_bad);
            }
        }
        total_events += sim.stats().dispatched;
        total_metrics.merge(&sim.take_metrics());
    }
    println!("scan done");
    let mut m = out.manifest("scan");
    m.num("worlds", scanned).num("mismatches", mismatches);
    out.write_manifest(
        m,
        wall_start.elapsed().as_secs_f64(),
        total_events,
        &total_metrics,
    );
    if mismatches > 0 {
        eprintln!("{mismatches} of {scanned} worlds broke exactly-once delivery");
        return ExitCode::FAILURE;
    }
    out.finish()
}
