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

use crate::db::{DbServerApp, ServerSecurity};
use crate::proxy::{BackendSecurity, ProxyApp};
use crate::rubis::RubisData;
use crate::secure::Scenario;
use crate::webserver::{DbSecurity, WebConfig, WebServerApp};
use cloudsim::{CloudKind, CloudTopology, Flavor, VmHandle};
use hip_core::identity::HostIdentity;
use hip_core::{CostModel, HipConfig, HipShim, PeerInfo};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::IpAddr;
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
    /// `<role>` is `web0`, `web1`, …, `db` and `lb`. Call it just before
    /// `take_metrics()`: the values are a snapshot, not running totals.
    pub fn record_cpu_gauges(&mut self) {
        let mut roles: Vec<(String, VmHandle)> =
            self.webs.iter().enumerate().map(|(i, &vm)| (format!("web{i}"), vm)).collect();
        roles.push(("db".to_string(), self.db));
        roles.extend(self.lb.map(|lb| ("lb".to_string(), lb)));
        for (role, vm) in roles {
            let cpu = &self.topo.host(vm).core.cpu;
            let busy_us = (cpu.busy_time().as_nanos() / 1_000) as i64;
            let credits = cpu.credits();
            let metrics = &mut self.topo.sim.metrics;
            metrics.set_gauge_name(&format!("vm.{role}.cpu.busy_us"), busy_us);
            if let Some(c) = credits {
                metrics.set_gauge_name(&format!("vm.{role}.cpu.credits_milli"), (c * 1000.0).round() as i64);
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

/// Builds the full deployment. HIP and TLS charge their crypto from the
/// same table, [`CostModel::paper_web_stack`].
pub fn deploy_rubis(cfg: RubisConfig) -> RubisDeployment {
    let mut topo = CloudTopology::new(cfg.seed);
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    let db = topo.launch_vm(cloud, "db", Flavor::Large);
    let webs: Vec<VmHandle> = (0..cfg.n_web)
        .map(|i| topo.launch_vm(cloud, &format!("web{i}"), Flavor::Micro))
        .collect();
    let lb = cfg.use_lb.then(|| topo.add_external_host("haproxy", Flavor::Dedicated));

    let mut key_rng = StdRng::seed_from_u64(cfg.seed ^ 0xfeed_beef);

    // ----- per-scenario identities / certificates -----
    match cfg.scenario {
        Scenario::Basic => {
            install_db(&mut topo, db, &cfg, ServerSecurity::Plain);
            for &web in &webs {
                install_web(&mut topo, web, db.addr, DbSecurity::Plain, ServerSecurity::Plain);
            }
            if let Some(lb) = lb {
                let backends = webs.iter().map(|w| (w.addr, WEB_PORT)).collect();
                install_lb(&mut topo, lb, backends, BackendSecurity::Plain);
            }
        }
        Scenario::Hip | Scenario::HipLsi => {
            // Identities for every HIP node.
            let id_db = HostIdentity::generate_rsa(512, &mut key_rng);
            let ids_web: Vec<HostIdentity> =
                webs.iter().map(|_| HostIdentity::generate_rsa(512, &mut key_rng)).collect();
            let id_lb = lb.map(|_| HostIdentity::generate_rsa(512, &mut key_rng));
            let hip_cfg = HipConfig { costs: CostModel::paper_web_stack(), ..HipConfig::default() };

            let hit_db = id_db.hit();
            let hits_web: Vec<_> = ids_web.iter().map(HostIdentity::hit).collect();

            // DB shim: knows every web server.
            let mut shim_db = HipShim::new(id_db, hip_cfg.clone());
            for (i, &web) in webs.iter().enumerate() {
                shim_db.add_peer(hits_web[i], PeerInfo { locators: vec![web.addr], via_rvs: None });
            }
            if let (Some(lb), Some(id)) = (lb, id_lb.as_ref()) {
                // Not strictly needed (LB never talks to the DB) but
                // harmless and realistic.
                shim_db.add_peer(id.hit(), PeerInfo { locators: vec![lb.addr], via_rvs: None });
            }
            topo.host_mut(db).set_shim(Box::new(shim_db));
            install_db(&mut topo, db, &cfg, ServerSecurity::Plain);

            // Web shims: know the DB and the LB.
            let mut web_db_addrs = Vec::with_capacity(webs.len());
            for (i, (&web, id)) in webs.iter().zip(ids_web).enumerate() {
                let _ = i;
                let mut shim = HipShim::new(id, hip_cfg.clone());
                let db_lsi = shim.add_peer(hit_db, PeerInfo { locators: vec![db.addr], via_rvs: None });
                if let (Some(lb), Some(idl)) = (lb, id_lb.as_ref()) {
                    shim.add_peer(idl.hit(), PeerInfo { locators: vec![lb.addr], via_rvs: None });
                }
                let db_addr: IpAddr = match cfg.scenario {
                    Scenario::Hip => hit_db.to_ip(),
                    _ => IpAddr::V4(db_lsi),
                };
                topo.host_mut(web).set_shim(Box::new(shim));
                web_db_addrs.push(db_addr);
            }
            for (&web, db_addr) in webs.iter().zip(web_db_addrs) {
                install_web(&mut topo, web, db_addr, DbSecurity::Plain, ServerSecurity::Plain);
            }

            // LB shim: knows every web server; terminates HIP.
            if let (Some(lb), Some(id)) = (lb, id_lb) {
                let mut shim = HipShim::new(id, hip_cfg);
                let mut backends = Vec::with_capacity(webs.len());
                for (i, &web) in webs.iter().enumerate() {
                    let lsi = shim.add_peer(hits_web[i], PeerInfo { locators: vec![web.addr], via_rvs: None });
                    let addr: IpAddr = match cfg.scenario {
                        Scenario::Hip => hits_web[i].to_ip(),
                        _ => IpAddr::V4(lsi),
                    };
                    backends.push((addr, WEB_PORT));
                }
                topo.host_mut(lb).set_shim(Box::new(shim));
                install_lb(&mut topo, lb, backends, BackendSecurity::Plain);
            }
        }
        Scenario::Ssl => {
            let costs = tls_costs(&CostModel::paper_web_stack());
            let ca = CertificateAuthority::new(512, &mut key_rng);
            // DB certificate.
            let db_keys = sim_crypto::rsa::RsaKeyPair::generate(512, &mut key_rng);
            let db_cert = ca.issue("db.rubis.cloud", db_keys.public());
            install_db(
                &mut topo,
                db,
                &cfg,
                ServerSecurity::Tls { cert: db_cert, keys: db_keys, costs },
            );
            for (i, &web) in webs.iter().enumerate() {
                // Consumers always speak plain HTTP; only proxy-fronted
                // web servers offer TLS on their frontend.
                let frontend = if cfg.use_lb {
                    let web_keys = sim_crypto::rsa::RsaKeyPair::generate(512, &mut key_rng);
                    let web_cert = ca.issue(&format!("web{i}.rubis.cloud"), web_keys.public());
                    ServerSecurity::Tls { cert: web_cert, keys: web_keys, costs }
                } else {
                    ServerSecurity::Plain
                };
                install_web(
                    &mut topo,
                    web,
                    db.addr,
                    DbSecurity::Tls { ca: ca.public().clone(), costs },
                    frontend,
                );
            }
            if let Some(lb) = lb {
                let backends = webs.iter().map(|w| (w.addr, WEB_PORT)).collect();
                install_lb(
                    &mut topo,
                    lb,
                    backends,
                    BackendSecurity::Tls { ca: ca.public().clone(), costs },
                );
            }
        }
    }

    let frontend = match lb {
        Some(lb) => (lb.addr, LB_PORT),
        None => (webs[0].addr, WEB_PORT),
    };
    RubisDeployment { topo, cloud, lb, webs, db, frontend, scenario: cfg.scenario }
}

fn install_db(topo: &mut CloudTopology, db: VmHandle, cfg: &RubisConfig, security: ServerSecurity) {
    let data = RubisData::generate(cfg.users, cfg.items, cfg.seed ^ 0xdb);
    let app = DbServerApp::new(DB_PORT, data, cfg.query_cache, security);
    topo.host_mut(db).add_app(Box::new(app));
}

fn install_web(
    topo: &mut CloudTopology,
    web: VmHandle,
    db_addr: IpAddr,
    db_security: DbSecurity,
    frontend_security: ServerSecurity,
) {
    let mut web_cfg = WebConfig::new(db_addr, DB_PORT);
    web_cfg.port = WEB_PORT;
    web_cfg.db_security = db_security;
    web_cfg.frontend_security = frontend_security;
    topo.host_mut(web).add_app(Box::new(WebServerApp::new(web_cfg)));
}

fn install_lb(
    topo: &mut CloudTopology,
    lb: VmHandle,
    backends: Vec<(IpAddr, u16)>,
    security: BackendSecurity,
) {
    let app = ProxyApp::new(LB_PORT, backends, security);
    topo.host_mut(lb).add_app(Box::new(app));
}
