//! Proxy failure handling: HAProxy-like behaviour when backends are
//! unreachable — requests stranded on a dead backend are retried on a
//! live one, the dead backend is ejected from rotation, and clients
//! never hang.

use cloudsim::{CloudKind, CloudTopology, Flavor};
use netsim::fx::FxHashMap;
use netsim::host::{App, AppEvent, HostApi};
use netsim::tcp::TcpEvent;
use netsim::{SimDuration, SimTime, SockId};
use std::any::Any;
use std::net::IpAddr;
use websvc::http::{HttpRequest, ResponseDecoder};
use websvc::proxy::{self, ProxyApp};
use websvc::rubis::RubisData;
use websvc::secure::{ClientSecurity, Conn, ServerSecurity};
use websvc::webserver::{WebConfig, WebServerApp};
use websvc::{DB_PORT, LB_PORT, WEB_PORT};

/// Opens `requests` connections and sends one request on each; each
/// connection decodes its responses from its own stream.
struct OneShot {
    target: (IpAddr, u16),
    conns: FxHashMap<SockId, Conn<ResponseDecoder>>,
    statuses: Vec<u16>,
    requests: usize,
}
impl App for OneShot {
    fn start(&mut self, api: &mut HostApi) {
        for _ in 0..self.requests {
            api.tcp_connect(self.target.0, self.target.1);
        }
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Tcp(TcpEvent::Connected(s)) => {
                let mut conn = Conn::plain(s);
                conn.send(HttpRequest::get("/item?id=1").encode(), api);
                self.conns.insert(s, conn);
            }
            AppEvent::Tcp(TcpEvent::Data(s)) => {
                let raw = api.tcp_recv(s);
                let Some(conn) = self.conns.get_mut(&s) else {
                    return;
                };
                conn.on_bytes(&raw, api);
                while let Some(resp) = conn.next_message() {
                    self.statuses.push(resp.status);
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

#[test]
fn dead_backend_requests_retry_onto_live_backend() {
    let mut topo = CloudTopology::new(31);
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    let db = topo.launch_vm(cloud, "db", Flavor::Large);
    let web = topo.launch_vm(cloud, "web", Flavor::Micro);
    let lb = topo.add_external_host("lb", Flavor::Dedicated);
    let client = topo.add_external_host("client", Flavor::Dedicated);

    // DB + one live web server.
    let data = RubisData::generate(50, 100, 1);
    topo.host_mut(db)
        .add_app(Box::new(websvc::db::DbServerApp::new(
            DB_PORT,
            data,
            false,
            ServerSecurity::Plain,
        )));
    let mut cfg = WebConfig::new(db.addr, DB_PORT);
    cfg.port = WEB_PORT;
    topo.host_mut(web).add_app(Box::new(WebServerApp::new(cfg)));

    // The proxy balances over the live backend and a dead address.
    let dead = netsim::packet::v4(10, 1, 0, 99);
    let proxy_idx = topo.host_mut(lb).add_app(Box::new(ProxyApp::new(
        LB_PORT,
        vec![(web.addr, WEB_PORT), (dead, WEB_PORT)],
        ClientSecurity::Plain,
    )));

    // Four client connections → round robin sends two to each backend.
    let client_idx = topo.host_mut(client).add_app(Box::new(OneShot {
        target: (lb.addr, LB_PORT),
        conns: FxHashMap::default(),
        statuses: vec![],
        requests: 4,
    }));

    topo.sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(90));
    let statuses = &topo
        .host(client)
        .app::<OneShot>(client_idx)
        .unwrap()
        .statuses;
    let ok = statuses.iter().filter(|&&s| s == 200).count();
    assert_eq!(statuses.len(), 4, "every request answered: {statuses:?}");
    assert_eq!(
        ok, 4,
        "requests on the dead backend were retried onto the live one: {statuses:?}"
    );
    let ctr = |name| topo.sim.metrics.counter_value(name).unwrap_or(0);
    assert!(
        ctr(proxy::BACKEND_FAILS) >= 2,
        "both stranded connections failed"
    );
    assert!(ctr(proxy::RETRIES) >= 2, "stranded requests were retried");
    assert!(ctr(proxy::EJECTS) >= 1, "the dead backend was ejected");
    assert!(
        ctr(proxy::PROBES) >= 1,
        "ejection expiry launched health probes"
    );
    let proxy = topo.host(lb).app::<ProxyApp>(proxy_idx).unwrap();
    // 90 s of failing probes never readmit the dead backend.
    assert!(
        matches!(
            proxy.backend_health(1),
            websvc::proxy::Health::Ejected { .. } | websvc::proxy::Health::Probing
        ),
        "dead backend stays out of rotation"
    );
}
