//! Instrumentation for the traced run: delegating timing wrappers
//! around the public `L35Shim` and `App` traits, a counting global
//! allocator, and an in-memory span recorder.
//!
//! Everything here is off unless a traced repetition switches it on;
//! the untraced repetitions pay one relaxed atomic load per allocation
//! and nothing else.

use netsim::{App, AppEvent, HostApi, L35Shim, Packet, ShimApi};
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::net::IpAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The system allocator, counting allocations while [`ALLOC_ON`] is set.
pub struct CountingAlloc;

/// Whether allocations are being counted.
pub static ALLOC_ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's guarantees are exactly the ones `System` requires;
// the counters are statistics and publish no other data (`Relaxed`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ALLOC_ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: `layout` comes from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (via this allocator) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ALLOC_ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` meets `realloc`'s contract, all per our caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation count and bytes since the process started counting.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// Where wrapped calls charge their wall time.
#[derive(Clone, Copy)]
pub enum Layer {
    /// Calls into an `L35Shim` (HIP control plane, ESP, LSI translation).
    Shim,
    /// Calls into an `App` the benchmark installed (bulk sender and
    /// receiver, the jmeter load generator).
    App,
}

thread_local! {
    static SELF_NS: [Cell<u64>; 2] = const { [Cell::new(0), Cell::new(0)] };
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static REP: Cell<u64> = const { Cell::new(0) };
    static EPOCH: Instant = Instant::now();
}

/// Tags the spans recorded from now on with repetition `rep`; each
/// repetition also gets one span named `rep` that encloses the others.
pub fn set_rep(rep: u64) {
    EPOCH.with(|_| ()); // span times count from the first repetition
    REP.with(|r| r.set(rep));
}

/// Wall nanoseconds charged to `layer` since the last [`take_self_ns`].
pub fn take_self_ns(layer: Layer) -> u64 {
    SELF_NS.with(|c| c[layer as usize].replace(0))
}

fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    let ns = t.elapsed().as_nanos() as u64;
    SELF_NS.with(|c| c[layer as usize].set(c[layer as usize].get() + ns));
    r
}

/// One recorded span: a named wall-time interval within a repetition.
pub struct Span {
    name: String,
    rep: u64,
    start_us: f64,
    dur_us: f64,
}

/// Records a span that started at `start` and ends now.
pub fn span(name: impl Into<String>, start: Instant) {
    let end = Instant::now();
    EPOCH.with(|e| {
        let start_us = start.saturating_duration_since(*e).as_secs_f64() * 1e6;
        let dur_us = end.duration_since(start).as_secs_f64() * 1e6;
        let rep = REP.with(Cell::get);
        SPANS.with(|s| {
            s.borrow_mut().push(Span {
                name: name.into(),
                rep,
                start_us,
                dur_us,
            })
        });
    });
}

/// Writes every recorded span as one JSON line each; returns how many.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    use std::io::Write;
    let spans = SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        writeln!(
            out,
            "{{\"name\": \"{}\", \"rep\": {}, \"start_us\": {:.3}, \"dur_us\": {:.3}}}",
            s.name, s.rep, s.start_us, s.dur_us
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

/// Times every call into the wrapped shim. `as_any` forwards to the
/// inner shim, so `Host::shim::<HipShim>()` still downcasts.
pub struct TimedShim(pub Box<dyn L35Shim>);

impl L35Shim for TimedShim {
    fn start(&mut self, api: &mut ShimApi) {
        timed(Layer::Shim, || self.0.start(api))
    }
    fn handles_dst(&self, dst: &IpAddr) -> bool {
        self.0.handles_dst(dst)
    }
    fn outbound(&mut self, pkt: Packet, api: &mut ShimApi) {
        timed(Layer::Shim, || self.0.outbound(pkt, api))
    }
    fn inbound(&mut self, pkt: Packet, api: &mut ShimApi) {
        timed(Layer::Shim, || self.0.inbound(pkt, api))
    }
    fn on_timer(&mut self, token: u64, api: &mut ShimApi) {
        timed(Layer::Shim, || self.0.on_timer(token, api))
    }
    fn on_crash(&mut self, api: &mut ShimApi) {
        timed(Layer::Shim, || self.0.on_crash(api))
    }
    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// Times every call into the wrapped app. `as_any` forwards to the
/// inner app, so `Host::app::<T>()` still downcasts.
pub struct TimedApp(pub Box<dyn App>);

impl App for TimedApp {
    fn start(&mut self, api: &mut HostApi) {
        timed(Layer::App, || self.0.start(api))
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        timed(Layer::App, || self.0.on_event(ev, api))
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}
