//! The one experiment harness every figure and table runs through:
//! each run ends in a [`Cell`] made by [`finish`], and [`run_rubis`]
//! drives the RUBiS experiments (FIG2, TAB-RT, FIG-RESILIENCE).

use cloudsim::{CloudTopology, Flavor};
use netsim::host::App;
use netsim::trace::Trace;
use netsim::{SimDuration, SimTime};
use std::fmt::Display;
use std::net::IpAddr;
use websvc::deploy::{deploy_rubis, RubisConfig, RubisDeployment};
use websvc::loadgen::{HttperfApp, JmeterApp};
use websvc::Scenario;

/// The scenarios the RUBiS experiments compare, in table order.
pub const SCENARIOS: [Scenario; 3] = [Scenario::Basic, Scenario::HipLsi, Scenario::Ssl];

/// One simulation's measured point plus its observability outputs.
pub struct Cell<P> {
    /// The measured point.
    pub point: P,
    /// The run's full metrics registry (mergeable across cells).
    pub metrics: obs::MetricsRegistry,
    /// Events dispatched by the run's simulation.
    pub dispatched: u64,
    /// Typed trace of the run (empty unless tracing was enabled).
    pub trace: Trace,
}

/// Ends a run: checks `topo`'s invariants, panicking with `what` when
/// one is broken, then takes the dispatched-event count, the metrics
/// and the trace out of its simulation.
pub fn finish<P>(topo: &mut CloudTopology, what: impl Display, point: P) -> Cell<P> {
    if let Err(e) = topo.check_invariants() {
        panic!("{what}: invariant broken: {e}");
    }
    Cell {
        point,
        dispatched: topo.sim.stats().dispatched,
        metrics: topo.sim.take_metrics(),
        trace: std::mem::take(&mut topo.sim.trace),
    }
}

/// A RUBiS load generator [`run_rubis`] places on its own host.
pub trait Generator: App {
    /// The generator host's name.
    const HOST: &'static str;
    /// Counts completions and latencies from `at` on.
    fn measure_from(&mut self, at: SimTime);
}

impl Generator for JmeterApp {
    const HOST: &'static str = "jmeter";
    fn measure_from(&mut self, at: SimTime) {
        self.measure_from = at;
    }
}

impl Generator for HttperfApp {
    const HOST: &'static str = "httperf";
    fn measure_from(&mut self, at: SimTime) {
        self.measure_from = at;
    }
}

/// Runs one RUBiS experiment: deploys `cfg`, traces up to `trace_cap`
/// records when it is non-zero, adds the generator
/// `gen(frontend, users, items)` on a dedicated host measuring from
/// `warmup`, lets `plan` schedule faults, runs until `end`, reads the
/// point off the generator and records the service VMs' CPU gauges
/// before [`finish`].
pub fn run_rubis<G: Generator, P>(
    cfg: RubisConfig,
    warmup: SimDuration,
    end: SimDuration,
    trace_cap: usize,
    gen: impl FnOnce((IpAddr, u16), u32, u32) -> G,
    plan: impl FnOnce(&mut RubisDeployment),
    point: impl FnOnce(&G, &CloudTopology) -> P,
) -> Cell<P> {
    let (users, items, scenario) = (cfg.users, cfg.items, cfg.scenario);
    let mut dep = deploy_rubis(cfg);
    if trace_cap > 0 {
        dep.topo.sim.trace = Trace::enabled(trace_cap);
    }
    let host = dep.topo.add_external_host(G::HOST, Flavor::Dedicated);
    let mut app = gen(dep.frontend, users, items);
    app.measure_from(SimTime::ZERO + warmup);
    let idx = dep.topo.host_mut(host).add_app(Box::new(app));
    plan(&mut dep);
    dep.topo.sim.run_until(SimTime::ZERO + end);
    let app = dep.topo.host(host).app::<G>(idx).expect("generator");
    let point = point(app, &dep.topo);
    dep.record_cpu_gauges();
    finish(&mut dep.topo, format_args!("{scenario:?} RUBiS"), point)
}
