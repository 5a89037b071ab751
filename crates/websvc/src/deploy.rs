//! Deployment assembler: builds the paper's testbed (Figure 1) in one
//! call, for each security scenario.
//!
//! ```text
//! clients ──> load balancer (outside the cloud) ──> web VMs ──> DB VM
//!             HAProxy, round robin                  3× micro     large
//! ```
//!
//! - **Basic**: everything plain.
//! - **HIP/HIP-LSI**: every cloud-internal hop (LB→web, web→DB) runs
//!   over HIP; the LB terminates HIP toward the consumers.
//! - **SSL**: the same hops carry TLS inside TCP.

use crate::db::DbServerApp;
use crate::proxy::ProxyApp;
use crate::rubis::RubisData;
use crate::secure::{ClientSecurity, Scenario, ServerSecurity};
use crate::webserver::{WebConfig, WebServerApp};
use cloudsim::{CloudKind, CloudTopology, Flavor, VmHandle};
use hip_core::identity::{Hit, HostIdentity};
use hip_core::{CostModel, HipConfig, HipShim, PeerInfo};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::rsa::RsaKeyPair;
use std::net::{IpAddr, Ipv4Addr};
use tls_sim::{CertificateAuthority, TlsCosts};

/// Frontend port the load balancer listens on.
pub const LB_PORT: u16 = 8080;
/// Web tier HTTP port.
pub const WEB_PORT: u16 = 80;
/// Database port.
pub const DB_PORT: u16 = 3306;

/// Deployment parameters.
pub struct RubisConfig {
    /// Which protection to deploy.
    pub scenario: Scenario,
    /// Number of web-server VMs (the paper uses 3).
    pub n_web: usize,
    /// Enable the MySQL query cache (ON for TAB-RT, OFF for FIG2).
    pub query_cache: bool,
    /// Put the HAProxy-like LB in front (FIG2 yes, TAB-RT no).
    pub use_lb: bool,
    /// Dataset size.
    pub users: u32,
    /// Dataset size.
    pub items: u32,
    /// Simulation seed.
    pub seed: u64,
}

impl RubisConfig {
    /// The paper's Figure 2 deployment for a given scenario.
    pub fn fig2(scenario: Scenario, seed: u64) -> Self {
        RubisConfig {
            scenario,
            n_web: 3,
            query_cache: false,
            use_lb: true,
            users: 300,
            items: 600,
            seed,
        }
    }

    /// The paper's response-time deployment (single web server, query
    /// cache on, no LB).
    pub fn tab_rt(scenario: Scenario, seed: u64) -> Self {
        RubisConfig {
            scenario,
            n_web: 1,
            query_cache: true,
            use_lb: false,
            users: 300,
            items: 600,
            seed,
        }
    }
}

/// A deployed RUBiS service.
pub struct RubisDeployment {
    /// The cloud world; add load-generator hosts, then run.
    pub topo: CloudTopology,
    /// The cloud region the service runs in.
    pub cloud: cloudsim::CloudId,
    /// The LB host (present when `use_lb`).
    pub lb: Option<VmHandle>,
    /// The web-tier VMs.
    pub webs: Vec<VmHandle>,
    /// The DB VM.
    pub db: VmHandle,
    /// Where clients should send HTTP requests.
    pub frontend: (IpAddr, u16),
    /// Which scenario was deployed.
    pub scenario: Scenario,
}

impl RubisDeployment {
    /// Writes each service VM's CPU accounting into `topo.sim.metrics`
    /// as gauges, so a run manifest shows where the tiers spent their
    /// CPU and how far the burstable ones drained their credits:
    ///
    /// - `vm.<role>.cpu.busy_us`: busy core-time in µs;
    /// - `vm.<role>.cpu.credits_milli`: banked burst credits × 1000,
    ///   for burstable flavors only.
    ///
    /// `<role>` is `web0`, `web1`, …, `db` and `lb`. The values are a
    /// snapshot, not running totals: call it just before
    /// `take_metrics()`, which hands them over and leaves the gauges
    /// registered at zero.
    pub fn record_cpu_gauges(&mut self) {
        let mut roles: Vec<(String, VmHandle)> = self
            .webs
            .iter()
            .enumerate()
            .map(|(i, &vm)| (format!("web{i}"), vm))
            .collect();
        roles.push(("db".to_string(), self.db));
        roles.extend(self.lb.map(|lb| ("lb".to_string(), lb)));
        for (role, vm) in roles {
            let cpu = &self.topo.host(vm).core.cpu;
            let busy_us = (cpu.busy_time().as_nanos() / 1_000) as i64;
            let credits = cpu.credits();
            let metrics = &mut self.topo.sim.metrics;
            metrics.set_gauge_name(&format!("vm.{role}.cpu.busy_us"), busy_us);
            if let Some(c) = credits {
                metrics.set_gauge_name(
                    &format!("vm.{role}.cpu.credits_milli"),
                    (c * 1000.0).round() as i64,
                );
            }
        }
    }
}

/// TLS costs derived from the shared crypto table, so SSL and HIP pay
/// identically for identical primitives.
pub fn tls_costs(c: &CostModel) -> TlsCosts {
    TlsCosts {
        rsa_sign: c.rsa_sign,
        rsa_verify: c.rsa_verify,
        dh_compute: c.dh_compute,
        sym_per_packet: c.sym_per_packet,
        sym_per_byte_ns: c.sym_per_byte_ns,
    }
}

/// How one scenario addresses and secures the two cloud-internal hops
/// (LB → web and web → DB): everything the install pass needs besides
/// the VMs.
struct Wiring {
    /// The DB's end of each web → DB link.
    db: ServerSecurity,
    /// The web tier's end of its DB links.
    web_to_db: ClientSecurity,
    /// Per web VM: the DB address it dials and its end of the LB → web
    /// link.
    webs: Vec<(IpAddr, ServerSecurity)>,
    /// Per web VM: the address the LB balances over (empty without one).
    backends: Vec<IpAddr>,
    /// The LB's end of each LB → web link.
    lb_to_web: ClientSecurity,
}

/// Builds the full deployment. HIP and TLS charge their crypto from the
/// same table, [`CostModel::paper_web_stack`].
pub fn deploy_rubis(cfg: RubisConfig) -> RubisDeployment {
    let mut topo = CloudTopology::new(cfg.seed);
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    let db = topo.launch_vm(cloud, "db", Flavor::Large);
    let webs: Vec<VmHandle> = (0..cfg.n_web)
        .map(|i| topo.launch_vm(cloud, &format!("web{i}"), Flavor::Micro))
        .collect();
    let lb = cfg
        .use_lb
        .then(|| topo.add_external_host("haproxy", Flavor::Dedicated));

    let mut key_rng = StdRng::seed_from_u64(cfg.seed ^ 0xfeed_beef);

    // ----- per-scenario identities / certificates -----
    let wiring = match cfg.scenario {
        Scenario::Basic => Wiring {
            db: ServerSecurity::Plain,
            web_to_db: ClientSecurity::Plain,
            webs: webs
                .iter()
                .map(|_| (db.addr, ServerSecurity::Plain))
                .collect(),
            backends: webs.iter().map(|w| w.addr).collect(),
            lb_to_web: ClientSecurity::Plain,
        },
        Scenario::Hip | Scenario::HipLsi => hip_wiring(
            &mut topo,
            cfg.scenario == Scenario::Hip,
            db,
            &webs,
            lb,
            &mut key_rng,
        ),
        Scenario::Ssl => ssl_wiring(cfg.use_lb, db, &webs, &mut key_rng),
    };

    // ----- one install pass for every scenario -----
    let data = RubisData::generate(cfg.users, cfg.items, cfg.seed ^ 0xdb);
    let db_app = DbServerApp::new(DB_PORT, data, cfg.query_cache, wiring.db);
    topo.host_mut(db).add_app(Box::new(db_app));
    for (&web, (db_addr, frontend_security)) in webs.iter().zip(wiring.webs) {
        let web_cfg = WebConfig {
            port: WEB_PORT,
            db_addr,
            db_port: DB_PORT,
            db_security: wiring.web_to_db.clone(),
            frontend_security,
        };
        topo.host_mut(web)
            .add_app(Box::new(WebServerApp::new(web_cfg)));
    }
    if let Some(lb) = lb {
        let backends = wiring.backends.iter().map(|&a| (a, WEB_PORT)).collect();
        let proxy = ProxyApp::new(LB_PORT, backends, wiring.lb_to_web);
        topo.host_mut(lb).add_app(Box::new(proxy));
    }

    let frontend = match lb {
        Some(lb) => (lb.addr, LB_PORT),
        None => (webs[0].addr, WEB_PORT),
    };
    RubisDeployment {
        topo,
        cloud,
        lb,
        webs,
        db,
        frontend,
        scenario: cfg.scenario,
    }
}

/// HIP on every cloud-internal hop: one identity and shim per VM, each
/// shim told the peers it talks to, and every app addressing its peer by
/// HIT (`by_hit`) or by the LSI its own shim assigned. Identities are
/// drawn from `key_rng` in the order DB, each web VM, LB.
fn hip_wiring(
    topo: &mut CloudTopology,
    by_hit: bool,
    db: VmHandle,
    webs: &[VmHandle],
    lb: Option<VmHandle>,
    key_rng: &mut StdRng,
) -> Wiring {
    let id_db = HostIdentity::generate_rsa(512, key_rng);
    let ids_web: Vec<HostIdentity> = webs
        .iter()
        .map(|_| HostIdentity::generate_rsa(512, key_rng))
        .collect();
    let id_lb = lb.map(|_| HostIdentity::generate_rsa(512, key_rng));
    let hip_cfg = HipConfig {
        costs: CostModel::paper_web_stack(),
        ..HipConfig::default()
    };
    let hit_db = id_db.hit();
    let hits_web: Vec<Hit> = ids_web.iter().map(HostIdentity::hit).collect();
    let hit_lb = id_lb.as_ref().map(HostIdentity::hit);
    let at = |vm: VmHandle| PeerInfo {
        locators: vec![vm.addr],
        via_rvs: None,
    };
    let addr = |hit: Hit, lsi: Ipv4Addr| {
        if by_hit {
            hit.to_ip()
        } else {
            IpAddr::V4(lsi)
        }
    };

    // DB shim: knows every web server, and the LB (which never talks to
    // the DB; harmless and realistic).
    let mut shim_db = HipShim::new(id_db, hip_cfg.clone());
    for (&web, &hit) in webs.iter().zip(&hits_web) {
        shim_db.add_peer(hit, at(web));
    }
    if let (Some(lb), Some(hit)) = (lb, hit_lb) {
        shim_db.add_peer(hit, at(lb));
    }
    topo.host_mut(db).set_shim(Box::new(shim_db));

    // Web shims: know the DB and the LB.
    let mut web_ends = Vec::with_capacity(webs.len());
    for (&web, id) in webs.iter().zip(ids_web) {
        let mut shim = HipShim::new(id, hip_cfg.clone());
        let db_lsi = shim.add_peer(hit_db, at(db));
        if let (Some(lb), Some(hit)) = (lb, hit_lb) {
            shim.add_peer(hit, at(lb));
        }
        topo.host_mut(web).set_shim(Box::new(shim));
        web_ends.push((addr(hit_db, db_lsi), ServerSecurity::Plain));
    }

    // LB shim: knows every web server; terminates HIP.
    let mut backends = Vec::with_capacity(webs.len());
    if let (Some(lb), Some(id)) = (lb, id_lb) {
        let mut shim = HipShim::new(id, hip_cfg);
        for (&web, &hit) in webs.iter().zip(&hits_web) {
            let lsi = shim.add_peer(hit, at(web));
            backends.push(addr(hit, lsi));
        }
        topo.host_mut(lb).set_shim(Box::new(shim));
    }

    Wiring {
        db: ServerSecurity::Plain,
        web_to_db: ClientSecurity::Plain,
        webs: web_ends,
        backends,
        lb_to_web: ClientSecurity::Plain,
    }
}

/// TLS on every cloud-internal hop, all certificates issued by one CA.
/// Keys are drawn from `key_rng` in the order CA, DB, then each web VM
/// when an LB fronts it (consumers always speak plain HTTP, so only
/// proxy-fronted web servers offer TLS).
fn ssl_wiring(use_lb: bool, db: VmHandle, webs: &[VmHandle], key_rng: &mut StdRng) -> Wiring {
    let costs = tls_costs(&CostModel::paper_web_stack());
    let ca = CertificateAuthority::new(512, key_rng);
    let db_keys = RsaKeyPair::generate(512, key_rng);
    let db_cert = ca.issue("db.rubis.cloud", db_keys.public());
    let web_ends = (0..webs.len())
        .map(|i| {
            let frontend = if use_lb {
                let keys = RsaKeyPair::generate(512, key_rng);
                let cert = ca.issue(&format!("web{i}.rubis.cloud"), keys.public());
                ServerSecurity::Tls { cert, keys, costs }
            } else {
                ServerSecurity::Plain
            };
            (db.addr, frontend)
        })
        .collect();
    let trust_ca = ClientSecurity::Tls {
        ca: ca.public().clone(),
        costs,
    };
    Wiring {
        db: ServerSecurity::Tls {
            cert: db_cert,
            keys: db_keys,
            costs,
        },
        web_to_db: trust_ca.clone(),
        webs: web_ends,
        backends: webs.iter().map(|w| w.addr).collect(),
        lb_to_web: trust_ca,
    }
}
