//! Allocation gates for the RUBiS request path, one per scenario, and
//! one for the database's query cache.
//!
//! A RUBiS smoke run (load balancer, three web servers, the database
//! and a closed-loop client) is warmed up until every connection is
//! open, and then a counting global allocator tallies every allocation
//! and reallocation until the run ends. The count per completed request
//! covers everything one request costs: the client's request, both
//! proxy hops, the web tier's query and HTML, the database's execution,
//! TCP segments and engine events, and, on the secured scenarios, the
//! ESP frames or TLS records that carry them.
//!
//! The Basic request path used to build each message through `format!`
//! temporaries, copy every received buffer once more per layer, and
//! collect per-event `Vec`s: 96.0 allocations per request in this run.
//! It now makes 29.9; HIP-LSI makes 59.9 and SSL 39.5 (SSL made 61.2
//! while each received record was copied out of its own deframing
//! buffer and again into the decrypted stream, and 49.2 while each sent
//! record's body was copied once more into its frame). TAB-RT's
//! deployment (one web server, no load balancer, the query cache on)
//! makes 17.7 in Basic; it made 23.1 while a cached result was copied
//! for every hit and for the cache itself. Basic, HIP-LSI, SSL and
//! TAB-RT made 36.6, 65.6, 46.2 and 22.0 while each TCP socket copied
//! its in-order segments into a receive buffer of its own for the
//! application to read back. Each ceiling adds about 4 %
//! of slack, because a change elsewhere may move the count slightly
//! (hash-map and buffer growth).
//!
//! The test also prints the set-up count, from the end of the
//! deployment to the warm-up mark: the generator, the base exchanges or
//! TLS handshakes, every connection and the first requests. Per-SA and
//! per-session costs show there.
//!
//! This file is its own test binary with a single test, so no other
//! test thread allocates while the counter is on.

use cloudsim::Flavor;
use netsim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use websvc::deploy::{deploy_rubis, RubisConfig};
use websvc::loadgen::JmeterApp;
use websvc::rubis::WorkloadMix;
use websvc::Scenario;

/// The system allocator, counting allocations while `COUNTING` is set.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires; the
// counter is a statistic and publishes no other data (`Relaxed`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: `layout` comes from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (via this allocator) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` meets `realloc`'s contract, all per our caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per completed request may not exceed these: FIG2's
/// deployment in each scenario, then TAB-RT's (one web server, no load
/// balancer, the database's query cache on) in Basic.
fn ceilings() -> [(RubisConfig, f64); 4] {
    [
        (RubisConfig::fig2(Scenario::Basic, 5), 31.0),
        (RubisConfig::fig2(Scenario::HipLsi, 5), 62.0),
        (RubisConfig::fig2(Scenario::Ssl, 5), 41.0),
        (RubisConfig::tab_rt(Scenario::Basic, 5), 18.4),
    ]
}

/// What `f` returns, and the allocations made while it runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, ALLOCS.load(Relaxed))
}

#[test]
fn rubis_request_path_allocations_stay_under_ceiling() {
    for (cfg, ceiling) in ceilings() {
        let cache = if cfg.query_cache { ", query cache" } else { "" };
        let scenario = format!("{:?}{cache}", cfg.scenario);
        let (users, items) = (cfg.users, cfg.items);
        let mut dep = deploy_rubis(cfg);
        let warm = SimTime::ZERO + SimDuration::from_secs(2);
        let ((gen_host, idx), setup) = allocations(|| {
            let host = dep.topo.add_external_host("jmeter", Flavor::Dedicated);
            let mut app = JmeterApp::new(dep.frontend, 16, WorkloadMix::default(), users, items);
            app.measure_from = warm;
            let idx = dep.topo.host_mut(host).add_app(Box::new(app));
            dep.topo.sim.run_until(warm);
            (host, idx)
        });
        let (_, allocs) = allocations(|| dep.topo.sim.run_until(warm + SimDuration::from_secs(4)));

        let gen = dep
            .topo
            .host(gen_host)
            .app::<JmeterApp>(idx)
            .expect("generator");
        assert_eq!(gen.errors, 0, "{scenario}");
        assert!(
            gen.completed > 300,
            "{scenario}: completed {}",
            gen.completed
        );
        let per_request = allocs as f64 / gen.completed as f64;
        println!(
            "{scenario}: {setup} set-up allocations; {allocs} allocations, {} requests: \
             {per_request:.2} per request",
            gen.completed
        );
        assert!(
            per_request <= ceiling,
            "{scenario}: {per_request:.2} allocations per request (ceiling {ceiling})"
        );
    }
}
