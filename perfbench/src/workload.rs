//! The four workloads: how each one is set up, how its simulated time is
//! sliced, and which model outputs and layer counters a repetition
//! yields.
//!
//! A repetition is one or more *parts*, each a fresh seeded simulation:
//! one part for the bulk and fault workloads, three (Basic, HIP-LSI,
//! SSL) for `rubis`. Set-up is everything up to the first
//! `Sim::run_until`; the run is a sequence of `run_until` slices.

use crate::trace::{span, TimedApp, TimedShim};
use cloudsim::{CloudKind, CloudTopology, Flavor, VmHandle};
use hip_core::identity::HostIdentity;
use hip_core::{CostModel, HipConfig, HipShim, PeerInfo};
use netsim::link::LinkParams;
use netsim::{FaultAction, L35Shim, SimDuration, SimStats, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;
use websvc::deploy::{deploy_rubis, RubisConfig};
use websvc::loadgen::{BulkSendApp, IperfServerApp, JmeterApp};
use websvc::rubis::WorkloadMix;
use websvc::Scenario;

/// Bytes moved by one bulk transfer (10 MiB).
pub const BULK_BYTES: u64 = 10 * 1024 * 1024;
/// Simulated time given to the HIP base exchange before the flow starts
/// (also used by the plain flow, so both have the same shape).
const BULK_SETTLE: SimDuration = SimDuration::from_secs(1);
/// Fixed simulated-time slice of the bulk workloads.
pub const BULK_SLICE: SimDuration = SimDuration::from_millis(10);
/// A transfer that has not finished by then counts as failed.
const BULK_CAP: SimTime = SimTime(60_000_000_000);
/// Fixed simulated-time slice of `rubis` and `faults`.
pub const WEB_SLICE: SimDuration = SimDuration::from_millis(100);
/// Closed-loop jmeter clients in `rubis` (Figure 2's right edge).
pub const RUBIS_CLIENTS: usize = 50;
/// Simulated time per `rubis` deployment.
pub const RUBIS_SIM: SimDuration = SimDuration::from_secs(6);
/// Closed-loop clients in `faults` (as in `fig_resilience`).
pub const FAULTS_CLIENTS: usize = 10;
/// Simulated time of the standard fault storyline.
pub const FAULTS_SIM: SimDuration = SimDuration::from_secs(35);
/// Number of pinned scenario variants; variant `v` simulates seed `v + 1`.
pub const VARIANTS: usize = 16;
const IPERF_PORT: u16 = 5001;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One TCP flow over HIP/ESP with HIT addressing.
    BulkHip,
    /// The same flow over plain TCP/IPv4.
    BulkBasic,
    /// The Figure 2 RUBiS closed loop at 50 clients, three deployments.
    Rubis,
    /// The `fig_resilience` standard storyline on HIP-LSI.
    Faults,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BulkHip,
        Workload::BulkBasic,
        Workload::Rubis,
        Workload::Faults,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkHip => "bulk_hip",
            Workload::BulkBasic => "bulk_basic",
            Workload::Rubis => "rubis",
            Workload::Faults => "faults",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether this is one of the bulk-transfer workloads.
    pub fn is_bulk(self) -> bool {
        matches!(self, Workload::BulkHip | Workload::BulkBasic)
    }

    /// The calibration loop whose time grows as this workload's does
    /// when the machine slows down (see `calib`).
    pub fn calibration(self) -> fn() -> f64 {
        match self {
            Workload::BulkBasic => crate::calib::register,
            Workload::BulkHip | Workload::Rubis | Workload::Faults => crate::calib::memory,
        }
    }

    fn parts(self) -> &'static [PartSpec] {
        match self {
            Workload::BulkHip => &[PartSpec::Bulk { hip: true }],
            Workload::BulkBasic => &[PartSpec::Bulk { hip: false }],
            Workload::Rubis => &[
                PartSpec::Rubis(Scenario::Basic),
                PartSpec::Rubis(Scenario::HipLsi),
                PartSpec::Rubis(Scenario::Ssl),
            ],
            Workload::Faults => &[PartSpec::Faults],
        }
    }
}

/// The simulation seed of a pinned variant.
pub fn sim_seed(variant: usize) -> u64 {
    variant as u64 + 1
}

#[derive(Clone, Copy)]
enum PartSpec {
    Bulk { hip: bool },
    Rubis(Scenario),
    Faults,
}

/// The model outputs of one part, compared against pinned values.
/// Fields a part does not produce are zero.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartOutput {
    /// Payload bytes the bulk receiver got.
    pub delivered: u64,
    /// Receiver-measured bulk goodput (Mbit/s).
    pub goodput_mbits: f64,
    /// Completed operations: 1 per finished transfer, or successful
    /// HTTP requests.
    pub completed: u64,
    /// Errored HTTP requests.
    pub errors: u64,
    /// `SimStats::dispatched`.
    pub dispatched: u64,
    /// Simulated time at which the run stopped (ns).
    pub end_ns: u64,
}

/// How to run a repetition.
#[derive(Clone, Copy)]
pub struct RepOpts {
    /// Install the timing wrappers and record spans.
    pub traced: bool,
    /// Leave the metrics registry on (the default).
    pub metrics: bool,
}

impl RepOpts {
    /// Untraced with metrics on: the end-to-end configuration.
    pub const PLAIN: RepOpts = RepOpts {
        traced: false,
        metrics: true,
    };
}

/// One part's results.
pub struct PartRun {
    /// Model outputs.
    pub out: PartOutput,
    /// Engine counters.
    pub stats: SimStats,
    /// Wall seconds of its `run_until` calls.
    pub wall_s: f64,
}

/// One repetition's results.
pub struct Rep {
    /// The pinned variant it simulated.
    pub variant: usize,
    /// Per-part results.
    pub parts: Vec<PartRun>,
    /// Set-up wall seconds: topology, key generation, deployment.
    pub phases: [f64; 3],
    /// Wall seconds of every `run_until` call, summed over parts.
    pub wall_s: f64,
    /// Wall seconds of each fixed simulated-time slice.
    pub slices: Vec<f64>,
    /// Layer counters summed over parts (see [`collect_counters`]).
    pub counters: BTreeMap<&'static str, u64>,
}

impl Rep {
    /// Operations attempted: transfers, or HTTP requests.
    pub fn ops(&self) -> u64 {
        self.parts
            .iter()
            .map(|p| p.out.completed + p.out.errors)
            .sum()
    }

    /// Model outputs, one per part.
    pub fn outputs(&self) -> Vec<PartOutput> {
        self.parts.iter().map(|p| p.out).collect()
    }

    /// Engine counters, one per part.
    pub fn stats(&self) -> Vec<SimStats> {
        self.parts.iter().map(|p| p.stats).collect()
    }
}

/// What to read after the run.
enum Probe {
    Bulk { server: VmHandle, idx: usize },
    Jmeter { gen: VmHandle, idx: usize },
}

struct Built {
    topo: CloudTopology,
    hosts: Vec<VmHandle>,
    probe: Probe,
}

/// Wraps `shim` in a timing wrapper when tracing.
fn shim_box(shim: HipShim, traced: bool) -> Box<dyn L35Shim> {
    if traced {
        Box::new(TimedShim(Box::new(shim)))
    } else {
        Box::new(shim)
    }
}

fn app_box(app: impl netsim::App, traced: bool) -> Box<dyn netsim::App> {
    if traced {
        Box::new(TimedApp(Box::new(app)))
    } else {
        Box::new(app)
    }
}

/// Builds one part, charging wall time to `phases` (topology, keygen,
/// deploy).
fn build(spec: PartSpec, seed: u64, opts: RepOpts, phases: &mut [f64; 3]) -> Built {
    let built = match spec {
        PartSpec::Bulk { hip } => build_bulk(hip, seed, opts.traced, phases),
        PartSpec::Rubis(scenario) => {
            build_web(scenario, RUBIS_CLIENTS, false, seed, opts.traced, phases)
        }
        PartSpec::Faults => build_web(
            Scenario::HipLsi,
            FAULTS_CLIENTS,
            true,
            seed,
            opts.traced,
            phases,
        ),
    };
    let mut built = built;
    built.topo.sim.set_metrics_enabled(opts.metrics);
    built
}

fn phase(phases: &mut [f64; 3], i: usize, name: &str, traced: bool, start: Instant) {
    phases[i] += start.elapsed().as_secs_f64();
    if traced {
        span(name, start);
    }
}

/// The Figure 3 pair of Small VMs at 150 Mbit/s with one bulk flow
/// (the `bench::datapath` shape, built here through public APIs).
fn build_bulk(hip: bool, seed: u64, traced: bool, phases: &mut [f64; 3]) -> Built {
    let t = Instant::now();
    let mut topo = CloudTopology::new(seed);
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    topo.set_cloud_link_params(cloud, LinkParams::datacenter().with_bandwidth(150_000_000));
    let a = topo.launch_vm(cloud, "vm-a", Flavor::Small);
    let b = topo.launch_vm(cloud, "vm-b", Flavor::Small);
    phase(phases, 0, "setup.topology", traced, t);

    let ids = hip.then(|| {
        let t = Instant::now();
        let mut key_rng = StdRng::seed_from_u64(seed ^ 0x33);
        let ids = (
            HostIdentity::generate_rsa(512, &mut key_rng),
            HostIdentity::generate_rsa(512, &mut key_rng),
        );
        phase(phases, 1, "setup.keygen", traced, t);
        ids
    });

    let t = Instant::now();
    let target = match ids {
        Some((id_a, id_b)) => {
            let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
            let cfg = HipConfig {
                costs: CostModel::paper_era(),
                ..HipConfig::default()
            };
            let mut shim_a = HipShim::new(id_a, cfg.clone());
            shim_a.add_peer(
                hit_b,
                PeerInfo {
                    locators: vec![b.addr],
                    via_rvs: None,
                },
            );
            let mut shim_b = HipShim::new(id_b, cfg);
            shim_b.add_peer(
                hit_a,
                PeerInfo {
                    locators: vec![a.addr],
                    via_rvs: None,
                },
            );
            topo.host_mut(a).set_shim(shim_box(shim_a, traced));
            topo.host_mut(b).set_shim(shim_box(shim_b, traced));
            hit_b.to_ip()
        }
        None => b.addr,
    };
    let idx = topo
        .host_mut(b)
        .add_app(app_box(IperfServerApp::new(IPERF_PORT), traced));
    let mut client = BulkSendApp::new((target, IPERF_PORT), BULK_BYTES);
    client.start_delay = BULK_SETTLE;
    topo.host_mut(a).add_app(app_box(client, traced));
    phase(phases, 2, "setup.deploy", traced, t);
    Built {
        topo,
        hosts: vec![a, b],
        probe: Probe::Bulk { server: b, idx },
    }
}

/// A Figure 2 RUBiS deployment plus a jmeter host; with `storyline`,
/// the `fig_resilience` standard fault plan is scheduled too.
fn build_web(
    scenario: Scenario,
    clients: usize,
    storyline: bool,
    seed: u64,
    traced: bool,
    phases: &mut [f64; 3],
) -> Built {
    // `deploy_rubis` builds the topology, generates every key and
    // installs the apps in one call; it is charged to "deploy".
    let t = Instant::now();
    let cfg = RubisConfig::fig2(scenario, seed);
    let (users, items) = (cfg.users, cfg.items);
    let mut dep = deploy_rubis(cfg);
    phase(phases, 2, "setup.deploy", traced, t);

    let t = Instant::now();
    let gen = dep.topo.add_external_host("jmeter", Flavor::Dedicated);
    if storyline {
        let s = SimDuration::from_secs;
        let (web0, web1, db) = (dep.webs[0], dep.webs[1], dep.db);
        dep.topo.crash_vm(web0, s(5));
        dep.topo.restart_vm(web0, s(13));
        dep.topo.loss_burst(db, s(16), 0.3, s(5));
        dep.topo.sim.schedule_fault(
            s(24),
            FaultAction::Partition {
                links: vec![web1.link],
            },
        );
        dep.topo.sim.schedule_fault(
            s(27),
            FaultAction::Heal {
                links: vec![web1.link],
            },
        );
    }
    phase(phases, 0, "setup.topology", traced, t);

    let t = Instant::now();
    let mut app = JmeterApp::new(dep.frontend, clients, WorkloadMix::default(), users, items);
    if storyline {
        app.measure_from = SimTime::ZERO + SimDuration::from_secs(5);
    }
    let idx = dep.topo.host_mut(gen).add_app(app_box(app, traced));
    phase(phases, 2, "setup.deploy", traced, t);

    let mut hosts: Vec<VmHandle> = dep.lb.into_iter().chain(dep.webs.iter().copied()).collect();
    hosts.push(dep.db);
    if traced {
        wrap_installed_shims(&mut dep.topo, &hosts);
    }
    hosts.push(gen);
    Built {
        topo: dep.topo,
        hosts,
        probe: Probe::Jmeter { gen, idx },
    }
}

/// Moves each HIP shim `deploy_rubis` installed into a timing wrapper
/// (a cheap placeholder shim is swapped in and dropped).
fn wrap_installed_shims(topo: &mut CloudTopology, hosts: &[VmHandle]) {
    let mut rng = StdRng::seed_from_u64(0);
    for &h in hosts {
        let Some(shim) = topo.host_mut(h).shim_mut::<HipShim>() else {
            continue;
        };
        let placeholder = HipShim::new(
            HostIdentity::generate_rsa(64, &mut rng),
            HipConfig::default(),
        );
        let real = std::mem::replace(shim, placeholder);
        topo.host_mut(h)
            .set_shim(Box::new(TimedShim(Box::new(real))));
    }
}

/// Runs a built part. Sliced runs stop at the first slice boundary
/// where the part is done; `until` runs it in one call instead.
fn run(
    b: &mut Built,
    spec: PartSpec,
    traced: bool,
    until: Option<SimTime>,
    slices: &mut Vec<f64>,
) -> f64 {
    let sim_call = |b: &mut Built, deadline: SimTime| {
        let t = Instant::now();
        b.topo.sim.run_until(deadline);
        let s = t.elapsed().as_secs_f64();
        if traced {
            span("run_until", t);
        }
        s
    };
    if let Some(end) = until {
        return sim_call(b, end);
    }
    let mut wall = 0.0;
    match spec {
        PartSpec::Bulk { .. } => {
            // The settle period is one call; the flow is then sliced.
            let mut deadline = SimTime::ZERO + BULK_SETTLE;
            wall += sim_call(b, deadline);
            while delivered(b) < BULK_BYTES && deadline < BULK_CAP {
                deadline += BULK_SLICE;
                let s = sim_call(b, deadline);
                slices.push(s);
                wall += s;
            }
        }
        PartSpec::Rubis(_) | PartSpec::Faults => {
            let end = SimTime::ZERO
                + if matches!(spec, PartSpec::Faults) {
                    FAULTS_SIM
                } else {
                    RUBIS_SIM
                };
            let mut deadline = SimTime::ZERO;
            while deadline < end {
                deadline += WEB_SLICE;
                let s = sim_call(b, deadline);
                slices.push(s);
                wall += s;
            }
        }
    }
    wall
}

fn delivered(b: &Built) -> u64 {
    match b.probe {
        Probe::Bulk { server, idx } => b
            .topo
            .host(server)
            .app::<IperfServerApp>(idx)
            .map_or(0, |s| s.bytes),
        Probe::Jmeter { .. } => 0,
    }
}

fn output(b: &Built) -> PartOutput {
    let stats = b.topo.sim.stats();
    let mut out = PartOutput {
        delivered: 0,
        goodput_mbits: 0.0,
        completed: 0,
        errors: 0,
        dispatched: stats.dispatched,
        end_ns: b.topo.sim.now().as_nanos(),
    };
    match b.probe {
        Probe::Bulk { server, idx } => {
            let srv = b
                .topo
                .host(server)
                .app::<IperfServerApp>(idx)
                .expect("iperf server");
            out.delivered = srv.bytes;
            out.goodput_mbits = srv.mbits_per_sec();
            out.completed = u64::from(srv.bytes == BULK_BYTES);
        }
        Probe::Jmeter { gen, idx } => {
            let j = b.topo.host(gen).app::<JmeterApp>(idx).expect("jmeter");
            out.completed = j.completed;
            out.errors = j.errors;
        }
    }
    out
}

/// Reads the layer counters of a finished part into `c` (summed).
fn collect_counters(b: &mut Built, c: &mut BTreeMap<&'static str, u64>) {
    let mut add = |k: &'static str, v: u64| *c.entry(k).or_insert(0) += v;
    let s = b.topo.sim.stats();
    add("scheduled", s.scheduled);
    add("dispatched", s.dispatched);
    add("timers_cancelled", s.timers_cancelled);
    add("stale_timer_pops", s.stale_timer_pops);
    add("wheel_pushes", s.queue_wheel_pushes);
    add("overflow_pushes", s.queue_overflow_pushes);
    add("migrations", s.queue_migrations);
    add("coalesced_events", s.coalesced_events);

    for &h in &b.hosts {
        if let Some(shim) = b.topo.host(h).shim::<HipShim>() {
            let st = &shim.stats;
            add("hip.bex", st.bex_completed);
            add("hip.rebex", st.stale_spi_rebex);
            add("esp.frames", st.esp_out);
            add("esp.bytes", st.esp_bytes_out);
            add(
                "esp.drops",
                st.drops_replay + st.drops_auth + st.drops_no_sa,
            );
        }
    }
    if let Probe::Jmeter { gen, idx } = b.probe {
        let j = b.topo.host(gen).app::<JmeterApp>(idx).expect("jmeter");
        add("requests_ok", j.completed);
        add("requests_err", j.errors);
    }

    let m = b.topo.sim.take_metrics();
    let ctr = |name: &str| m.counter_value(name).unwrap_or(0);
    let hist = |name: &str| m.hist_get(name).map_or((0, 0), |h| (h.count(), h.sum()));
    add("tcp.connects", hist("tcp.connect").0);
    add("tcp.rtx", ctr("tcp.rtx"));
    let (frames, bytes) = hist("engine.pkt.bytes");
    add("link.frames", frames);
    add("link.wire_bytes", bytes);
    add("link.drops", ctr("link.drops"));
    add("fault.drops.loss_burst", ctr("fault.loss_burst"));
    add("fault.drops.partition", ctr("fault.partition"));
    add("fault.drops.link_down", ctr("fault.link_down"));
    add("hip.puzzle_attempts", hist("hip.puzzle.attempts").1);
    add("web.render", hist("web.render").0);
    add("db.service", hist("db.service").0);
    add("proxy.retry", ctr("proxy.retry"));
    add("proxy.eject", ctr("proxy.eject"));
    add("proxy.503", ctr("proxy.503"));
}

/// Sets up every part of `w` for `variant` without running it; returns
/// the set-up wall seconds.
pub fn setup_only(w: Workload, variant: usize) -> f64 {
    let mut phases = [0.0; 3];
    for &spec in w.parts() {
        let built = build(spec, sim_seed(variant), RepOpts::PLAIN, &mut phases);
        drop(built);
    }
    phases.iter().sum()
}

/// Runs one repetition. `until` (one end time per part) replaces the
/// slices with a single `run_until` call per part.
pub fn run_rep(w: Workload, variant: usize, opts: RepOpts, until: Option<&[u64]>) -> Rep {
    let mut rep = Rep {
        variant,
        parts: Vec::new(),
        phases: [0.0; 3],
        wall_s: 0.0,
        slices: Vec::new(),
        counters: BTreeMap::new(),
    };
    for (i, &spec) in w.parts().iter().enumerate() {
        let mut b = build(spec, sim_seed(variant), opts, &mut rep.phases);
        let end = until.map(|ends| SimTime(ends[i]));
        let wall_s = run(&mut b, spec, opts.traced, end, &mut rep.slices);
        rep.wall_s += wall_s;
        let out = output(&b);
        let stats = b.topo.sim.stats();
        collect_counters(&mut b, &mut rep.counters);
        rep.parts.push(PartRun { out, stats, wall_s });
    }
    rep
}
