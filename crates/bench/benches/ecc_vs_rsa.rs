//! ABL-3 — the ECC extension (§IV-B footnote: "the latest version of
//! HIP supports also elliptic-curve cryptography that can curb the
//! processing costs without hardware acceleration"): RSA vs ECDSA host
//! identities for the control-plane operations a BEX performs.

use criterion::{criterion_group, criterion_main, Criterion};
use hip_core::identity::HostIdentity;
use rand::SeedableRng;

fn bench_identities(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let rsa = HostIdentity::generate_rsa(1024, &mut rng);
    let ecdsa = HostIdentity::generate_ecdsa(&mut rng);
    let msg = vec![0x42u8; 256]; // a typical R1/I2 signature coverage

    let mut g = c.benchmark_group("hi_sign");
    g.sample_size(10);
    g.bench_function("rsa1024", |b| {
        let mut r = rand::rngs::StdRng::seed_from_u64(1);
        b.iter(|| rsa.sign(std::hint::black_box(&msg), &mut r))
    });
    g.bench_function("ecdsa_p256", |b| {
        let mut r = rand::rngs::StdRng::seed_from_u64(1);
        b.iter(|| ecdsa.sign(std::hint::black_box(&msg), &mut r))
    });
    g.finish();

    let mut g = c.benchmark_group("hi_verify");
    g.sample_size(10);
    let mut r = rand::rngs::StdRng::seed_from_u64(2);
    let rsa_sig = rsa.sign(&msg, &mut r);
    let ecdsa_sig = ecdsa.sign(&msg, &mut r);
    g.bench_function("rsa1024", |b| {
        b.iter(|| assert!(rsa.public().verify(std::hint::black_box(&msg), &rsa_sig)))
    });
    g.bench_function("ecdsa_p256", |b| {
        b.iter(|| {
            assert!(ecdsa
                .public()
                .verify(std::hint::black_box(&msg), &ecdsa_sig))
        })
    });
    g.finish();

    let mut g = c.benchmark_group("hi_keygen");
    g.sample_size(10);
    g.bench_function("rsa1024", |b| {
        let mut r = rand::rngs::StdRng::seed_from_u64(3);
        b.iter(|| HostIdentity::generate_rsa(1024, &mut r))
    });
    g.bench_function("ecdsa_p256", |b| {
        let mut r = rand::rngs::StdRng::seed_from_u64(3);
        b.iter(|| HostIdentity::generate_ecdsa(&mut r))
    });
    g.finish();
}

criterion_group!(benches, bench_identities);
criterion_main!(benches);
