//! ABL-4 — the LSI translation penalty (§V-B: "all the experiments
//! involving HIP were carried out with LSIs that require a few extra
//! translations incurring some penalty"): the HIT fast path vs the
//! LSI path through the mapper, on real data-plane packets.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use hip_core::esp::{rebuild_inner, EspSa, InnerMode};
use hip_core::identity::{Hit, LsiMapper};
use netsim::packet::{v4, Payload, TcpFlags, TcpSegment};
use std::net::IpAddr;

fn sa_pair() -> (EspSa, EspSa) {
    let src = v4(1, 0, 0, 1);
    let dst = v4(1, 0, 0, 2);
    (
        EspSa::new(7, [1; 16], [2; 32], src, dst),
        EspSa::new(7, [1; 16], [2; 32], src, dst),
    )
}

fn payload() -> Payload {
    Payload::Tcp(TcpSegment {
        src_port: 1000,
        dst_port: 80,
        seq: 1,
        ack: 2,
        flags: TcpFlags::ACK,
        window: 65535,
        data: Bytes::from(vec![0u8; 1024]),
        gso_mss: 0,
    })
}

fn bench_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("esp_path");
    for (name, mode) in [("hit", InnerMode::Hit), ("lsi", InnerMode::Lsi)] {
        g.bench_function(format!("encap_decap_rebuild/{name}"), |b| {
            let (mut tx, mut rx) = sa_pair();
            let p = payload();
            let mut mapper = LsiMapper::new();
            let peer = Hit([9; 16]);
            let my = Hit([8; 16]);
            let lsi_peer = mapper.lsi_for(peer);
            let lsi_my = mapper.lsi_for(my);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let esp = tx.encapsulate(mode, &p, seed);
                let (m, inner_payload) = rx.decapsulate(&esp).expect("valid");
                // The LSI path pays the extra mapper lookups; the HIT
                // path reconstructs straight from the SA.
                let (src, dst) = match m {
                    InnerMode::Hit => (rx.inner_src, rx.inner_dst),
                    InnerMode::Lsi => (
                        IpAddr::V4(mapper.lsi_of(&peer).expect("mapped")),
                        IpAddr::V4(mapper.lsi_of(&my).expect("mapped")),
                    ),
                };
                let _ = (src, dst);
                rebuild_inner(
                    &rx,
                    m,
                    inner_payload,
                    IpAddr::V4(lsi_peer),
                    IpAddr::V4(lsi_my),
                )
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("lsi_mapper");
    let mut mapper = LsiMapper::new();
    let hits: Vec<Hit> = (0..1000u32)
        .map(|i| {
            let mut b = [0u8; 16];
            b[12..16].copy_from_slice(&i.to_be_bytes());
            Hit(b)
        })
        .collect();
    for h in &hits {
        mapper.lsi_for(*h);
    }
    g.bench_function("lookup_hit_of", |b| {
        let lsi = mapper.lsi_of(&hits[500]).expect("mapped");
        b.iter(|| mapper.hit_of(std::hint::black_box(&lsi)))
    });
    g.bench_function("lookup_lsi_of", |b| {
        b.iter(|| mapper.lsi_of(std::hint::black_box(&hits[500])))
    });
    g.finish();
}

criterion_group!(benches, bench_modes);
criterion_main!(benches);
