//! ABL-1 — the paper's §IV-B processing-cost argument: the HIP base
//! exchange and a TLS handshake pay for essentially the same
//! cryptography. This bench measures the *actual computation* of both
//! handshakes end to end (signatures, DH, puzzles, KDF, packet codecs),
//! using identical key sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use hip_core::identity::HostIdentity;
use hip_core::{CostModel, HipConfig, HipShim, PeerInfo};
use netsim::host::{Host, L35Shim as _};
use netsim::packet::v4;
use netsim::{Endpoint, LinkParams, Sim, SimTime};
use rand::SeedableRng;
use tls_sim::{CertificateAuthority, TlsCosts, TlsSession};

/// Runs one full BEX between two simulated hosts; returns completions.
fn run_bex(id_seed: u64) -> u64 {
    let mut key_rng = rand::rngs::StdRng::seed_from_u64(id_seed);
    let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
    let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
    let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
    let (addr_a, addr_b) = (v4(10, 0, 0, 1), v4(10, 0, 0, 2));
    let cfg = HipConfig {
        costs: CostModel::free(),
        ..HipConfig::default()
    };
    let mut shim_a = HipShim::new(id_a, cfg.clone());
    shim_a.add_peer(
        hit_b,
        PeerInfo {
            locators: vec![addr_b],
            via_rvs: None,
        },
    );
    let mut shim_b = HipShim::new(id_b, cfg);
    shim_b.add_peer(
        hit_a,
        PeerInfo {
            locators: vec![addr_a],
            via_rvs: None,
        },
    );

    let mut sim = Sim::new(1);
    let mut ha = Host::new("a");
    ha.set_shim(Box::new(shim_a));
    let mut hb = Host::new("b");
    hb.set_shim(Box::new(shim_b));
    let a = sim.world.add_node(Box::new(ha));
    let b = sim.world.add_node(Box::new(hb));
    let link = sim.world.connect(
        Endpoint { node: a, iface: 0 },
        Endpoint { node: b, iface: 0 },
        LinkParams::datacenter(),
    );
    sim.world
        .node_mut::<Host>(a)
        .expect("host")
        .core
        .add_iface(link, vec![addr_a]);
    sim.world
        .node_mut::<Host>(b)
        .expect("host")
        .core
        .add_iface(link, vec![addr_b]);
    // Kick off the BEX by pushing an ICMP echo through the identity
    // path: the shim queues it and runs I1/R1/I2/R2.
    sim.start();
    sim.with_node_ctx(a, |node, ctx| {
        let host = node.as_any_mut().downcast_mut::<Host>().expect("host");
        host.shim_command(ctx, |shim, api| {
            let shim = shim.as_any_mut().downcast_mut::<HipShim>().expect("hip");
            let pkt = netsim::Packet::new(
                hit_a.to_ip(),
                hit_b.to_ip(),
                netsim::Payload::Icmp(netsim::packet::IcmpMessage {
                    kind: netsim::packet::IcmpKind::EchoRequest,
                    ident: 1,
                    seq: 1,
                    payload_len: 8,
                }),
            );
            shim.outbound(pkt, api);
        });
    });
    sim.run_until(SimTime(5_000_000_000));
    let shim = sim
        .world
        .node::<Host>(a)
        .expect("host")
        .shim::<HipShim>()
        .expect("hip");
    assert!(shim.is_established(&hit_b), "BEX completed");
    shim.stats.bex_completed
}

/// Runs one full TLS handshake between in-memory sessions.
fn run_tls(id_seed: u64) -> bool {
    let mut rng = rand::rngs::StdRng::seed_from_u64(id_seed);
    let ca = CertificateAuthority::new(512, &mut rng);
    let keys = sim_crypto::rsa::RsaKeyPair::generate(512, &mut rng);
    let cert = ca.issue("srv", keys.public());
    let mut c = TlsSession::client(ca.public().clone(), TlsCosts::free());
    let mut s = TlsSession::server(cert, keys, TlsCosts::free());
    let mut to_s = c.start_handshake(&mut rng);
    for _ in 0..6 {
        let out = s.on_bytes(&to_s, &mut rng);
        to_s.clear();
        let out_c = c.on_bytes(&out.to_peer, &mut rng);
        to_s.extend(out_c.to_peer);
        if c.is_established() && s.is_established() {
            return true;
        }
    }
    false
}

fn bench_handshakes(c: &mut Criterion) {
    let mut g = c.benchmark_group("handshake");
    g.sample_size(10);
    // Key generation excluded where possible: both paths regenerate keys
    // per iteration (identical burden on each side of the comparison).
    g.bench_function("hip_bex_full", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run_bex(std::hint::black_box(seed))
        })
    });
    g.bench_function("tls_handshake_full", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            assert!(run_tls(std::hint::black_box(seed)))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_handshakes);
criterion_main!(benches);
