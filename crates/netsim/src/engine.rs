//! The discrete-event simulation engine.
//!
//! A calendar queue ([`crate::sched::CalendarQueue`]) orders events by
//! `(time, sequence)`; the sequence number makes simultaneous events
//! FIFO, so a run is fully deterministic given the seed. Nodes are trait
//! objects that receive packets and timers through a [`Ctx`] handle
//! which is the *only* way to affect the world — nodes cannot reach into
//! each other, mirroring the shared-nothing structure the Rust Atomics &
//! Locks / Rayon guidance favours (determinism inside a run; parallelism
//! across runs).
//!
//! Every timer ([`Ctx::set_timer`]) returns a generation-stamped
//! [`TimerToken`]; callers that never cancel just drop it. Cancellation
//! ([`Ctx::cancel_timer`]) is lazy — the queued event stays put and is
//! discarded at pop time if its generation no longer matches — so
//! cancelling never perturbs the RNG draw order or the schedule of
//! other events, keeping traces identical whether or not a protocol
//! layer bothers to cancel.

use crate::link::{DropCause, Endpoint, Link, LinkId, LinkParams, NodeId, TxResult};
use crate::packet::{Packet, Payload};
use crate::sched::CalendarQueue;
use crate::time::{SimDuration, SimTime};
use crate::trace::{PktInfo, Trace, TraceData};
use obs::{CtrId, HistId, MetricsRegistry};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::any::Any;

/// Pre-registered handles for the engine's own metrics, so the
/// dispatch fast path bumps an index instead of hashing a name.
#[derive(Clone, Copy)]
pub(crate) struct EngineIds {
    ev_packet: CtrId,
    ev_timer: CtrId,
    ev_linktx: CtrId,
    pkt_bytes: HistId,
    link_drops: CtrId,
}

impl EngineIds {
    fn register(m: &mut MetricsRegistry) -> Self {
        EngineIds {
            ev_packet: m.counter("engine.ev.packet"),
            ev_timer: m.counter("engine.ev.timer"),
            ev_linktx: m.counter("engine.ev.linktx"),
            pkt_bytes: m.hist("engine.pkt.bytes"),
            link_drops: m.counter("link.drops"),
        }
    }
}

fn pkt_info(pkt: &Packet) -> PktInfo {
    PktInfo { src: pkt.src, dst: pkt.dst, proto: pkt.protocol(), len: pkt.wire_len() as u32 }
}

/// Trace reason and counter name for packets discarded because their
/// sender or receiver is crashed.
const NODE_DOWN: &str = "fault.node_down";

/// Counts a packet discarded at a crashed node and traces the drop.
fn drop_node_down(
    metrics: &mut MetricsRegistry,
    trace: &mut Trace,
    now: SimTime,
    node: NodeId,
    pkt: &Packet,
) {
    metrics.add_name(NODE_DOWN, 1);
    trace.record(now, node, || TraceData::Drop { pkt: Some(pkt_info(pkt)), reason: NODE_DOWN.to_string() });
}

/// Offers one wire frame to `link` — the only place link delivery and
/// link drops are accounted. A delivered frame is traced and returned
/// as its arrival event; a dropped one bumps `link.drops` (and the
/// fault counter named by its cause) and is traced.
#[allow(clippy::too_many_arguments)]
fn link_transmit(
    link: &mut Link,
    from: NodeId,
    now: SimTime,
    pkt: Packet,
    (loss_draw, jitter_draw): (f64, f64),
    metrics: &mut MetricsRegistry,
    ids: EngineIds,
    trace: &mut Trace,
) -> Option<(SimTime, Event)> {
    debug_assert!(
        !matches!(&pkt.payload, Payload::Tcp(seg) if seg.gso_mss > 0),
        "segment with gso_mss set reached link {}",
        link.id.0
    );
    match link.transmit(from, pkt.wire_len(), now, loss_draw, jitter_draw) {
        TxResult::Deliver { to, at } => {
            trace.record(now, from, || TraceData::Tx(pkt_info(&pkt)));
            Some((at, Event::PacketArrive { node: to.node, iface: to.iface, pkt }))
        }
        TxResult::Dropped { cause } => {
            metrics.inc(ids.link_drops);
            if matches!(cause, DropCause::Burst | DropCause::LinkDown | DropCause::Partition) {
                metrics.add_name(cause.reason(), 1);
            }
            trace.record(now, from, || TraceData::Drop {
                pkt: Some(pkt_info(&pkt)),
                reason: cause.reason().to_string(),
            });
            None
        }
    }
}

/// A timer registration: the node-local `owner` routes the expiry to the
/// right sub-layer, `token` is owner-defined.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerHandle {
    /// Which sub-layer of the node should receive the expiry.
    pub owner: TimerOwner,
    /// Owner-defined payload.
    pub token: u64,
}

/// Which layer of a node owns a timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TimerOwner {
    /// The TCP layer (retransmission, time-wait).
    Tcp,
    /// The layer-3.5 shim (HIP retransmissions, SA lifetimes).
    Shim,
    /// An application, by slot index.
    App(usize),
    /// The node implementation itself (NAT GC, Teredo refresh, ...).
    Node,
}

/// A handle for an armed timer: a slot in the engine's generation
/// table plus the generation it was armed under. Cancelling or firing
/// bumps the generation, so stale queue entries (and stale cancels) are
/// recognised and ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerToken {
    slot: u32,
    gen: u32,
}

/// Slot table backing [`TimerToken`]: `gens[slot]` is the live
/// generation; a token is live iff its generation matches.
#[derive(Default)]
struct TimerSlots {
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl TimerSlots {
    fn alloc(&mut self) -> TimerToken {
        match self.free.pop() {
            Some(slot) => TimerToken { slot, gen: self.gens[slot as usize] },
            None => {
                self.gens.push(0);
                TimerToken { slot: (self.gens.len() - 1) as u32, gen: 0 }
            }
        }
    }

    fn is_live(&self, t: TimerToken) -> bool {
        self.gens.get(t.slot as usize) == Some(&t.gen)
    }

    /// Invalidates the token and recycles its slot. Returns whether the
    /// token was still live (false = already fired or cancelled).
    fn retire(&mut self, t: TimerToken) -> bool {
        if !self.is_live(t) {
            return false;
        }
        self.gens[t.slot as usize] = self.gens[t.slot as usize].wrapping_add(1);
        self.free.push(t.slot);
        true
    }
}

/// An event in the queue.
#[derive(Debug)]
pub enum Event {
    /// A packet arrives at `node` on `iface`.
    PacketArrive {
        /// Receiving node.
        node: NodeId,
        /// Interface index on that node ([`IFACE_INTERNAL`] = loopback).
        iface: usize,
        /// The packet.
        pkt: Packet,
    },
    /// A timer fires at `node` — skipped without dispatch if `token`
    /// was cancelled in the meantime.
    Timer {
        /// The node whose timer expired.
        node: NodeId,
        /// The registration being fired.
        timer: TimerHandle,
        /// The generation stamp checked at pop time.
        token: TimerToken,
    },
    /// A deferred link transmission (packet leaves `from` once its CPU
    /// processing completes; link queueing is resolved at this moment).
    LinkTx {
        /// Transmitting node.
        from: NodeId,
        /// Link to transmit on.
        link: LinkId,
        /// The packet.
        pkt: Packet,
    },
    /// A fault-injection transition (see [`crate::fault`]). Applied by
    /// the engine itself, where the world is owned; every application is
    /// traced and counted so episodes are visible in run manifests.
    Fault {
        /// The transition to apply.
        action: FaultAction,
    },
}

/// A single fault transition the engine knows how to apply. Higher-level
/// episodes ([`crate::fault::FaultEpisode`]) compile down to one or more
/// of these scheduled through the ordinary calendar queue, so fault
/// timing obeys the same `(time, seq)` determinism as everything else.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Administratively cut a link (both directions).
    LinkDown(LinkId),
    /// Restore an administratively cut link.
    LinkUp(LinkId),
    /// Start a loss burst on a link: effective loss becomes
    /// `max(params.loss, loss)`.
    BurstStart {
        /// The affected link.
        link: LinkId,
        /// Burst loss probability in [0, 1).
        loss: f64,
    },
    /// End a loss burst.
    BurstEnd {
        /// The affected link.
        link: LinkId,
    },
    /// Add extra one-way delay to a link.
    SpikeStart {
        /// The affected link.
        link: LinkId,
        /// The extra delay.
        extra: SimDuration,
    },
    /// Remove the extra delay.
    SpikeEnd {
        /// The affected link.
        link: LinkId,
    },
    /// Crash a node: its stack is reset via [`Node::on_crash`] and all
    /// traffic and timers addressed to it are discarded until restart.
    NodeCrash(NodeId),
    /// Restart a crashed node via [`Node::on_restart`].
    NodeRestart(NodeId),
    /// Sever a set of links at once (a network partition). The set is
    /// tracked separately from [`FaultAction::LinkDown`] so healing a
    /// partition never un-cuts an explicitly downed link.
    Partition {
        /// The links crossing the partition boundary.
        links: Vec<LinkId>,
    },
    /// Heal a partition.
    Heal {
        /// The links to restore.
        links: Vec<LinkId>,
    },
}

/// Interface index used for packets a node delivers to itself (e.g. the
/// decrypted inner packet of an ESP tunnel re-entering layer 4).
pub const IFACE_INTERNAL: usize = usize::MAX;

/// A simulated node: host, router, NAT box, Teredo relay, ...
pub trait Node: Any {
    /// Called once before the simulation starts running.
    fn start(&mut self, _ctx: &mut Ctx) {}

    /// A packet arrived on `iface`.
    fn handle_packet(&mut self, iface: usize, pkt: Packet, ctx: &mut Ctx);

    /// A timer this node registered has fired.
    fn handle_timer(&mut self, _timer: TimerHandle, _ctx: &mut Ctx) {}

    /// The node just crashed (a `NodeCrash` fault): drop volatile state
    /// and cancel owned timers. Default: no-op.
    fn on_crash(&mut self, _ctx: &mut Ctx) {}

    /// The node just came back up (a `NodeRestart` fault): re-initialise
    /// as on [`Node::start`]. Default: no-op.
    fn on_restart(&mut self, _ctx: &mut Ctx) {}

    /// Downcasting support for experiment harnesses and tests.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The node/link topology.
#[derive(Default)]
pub struct World {
    nodes: Vec<Option<Box<dyn Node>>>,
    links: Vec<Link>,
}

impl World {
    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.nodes.push(Some(node));
        NodeId(self.nodes.len() - 1)
    }

    /// Connects two endpoints with a new link.
    pub fn connect(&mut self, a: Endpoint, b: Endpoint, params: LinkParams) -> LinkId {
        let id = LinkId(self.links.len());
        self.links.push(Link::new(id, a, b, params));
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node, downcast to `T`.
    ///
    /// # Panics
    /// Panics if the node is currently being dispatched (taken out).
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id.0].as_ref().expect("node is mid-dispatch").as_any().downcast_ref()
    }

    /// Mutable access to a node, downcast to `T`.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.0].as_mut().expect("node is mid-dispatch").as_any_mut().downcast_mut()
    }

    /// The link registry (used by tests to inspect parameters).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Mutable link registry (topology builders patch endpoint iface
    /// indices that are only known after router interfaces are added).
    pub fn links_mut(&mut self) -> &mut [Link] {
        &mut self.links
    }
}

/// The dispatch context handed to nodes. All world side effects go
/// through here: transmitting on links, arming timers, tracing, RNG.
pub struct Ctx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The node being dispatched.
    pub node: NodeId,
    links: &'a mut [Link],
    rng: &'a mut StdRng,
    trace: &'a mut Trace,
    slots: &'a mut TimerSlots,
    stats: &'a mut SimStats,
    metrics: &'a mut MetricsRegistry,
    ids: EngineIds,
    emitted: Vec<(SimTime, Event)>,
}

impl Ctx<'_> {
    /// Transmits `pkt` on `link`. Loss and queueing are resolved here;
    /// delivery (if any) is scheduled automatically.
    pub fn transmit(&mut self, link: LinkId, pkt: Packet) {
        let draws = (self.rng.random(), self.rng.random());
        let l = &mut self.links[link.0];
        let arrival = link_transmit(l, self.node, self.now, pkt, draws, self.metrics, self.ids, self.trace);
        self.emitted.extend(arrival);
    }

    /// Transmits `pkt` on `link` after `delay` (models CPU processing
    /// before the packet reaches the NIC; link queueing is evaluated at
    /// departure time, not now).
    pub fn transmit_after(&mut self, delay: SimDuration, link: LinkId, pkt: Packet) {
        if delay == SimDuration::ZERO {
            self.transmit(link, pkt);
        } else {
            self.emitted
                .push((self.now + delay, Event::LinkTx { from: self.node, link, pkt }));
        }
    }

    /// Delivers `pkt` back to this node's own internal interface after
    /// `delay` (decrypted tunnel payloads re-entering the upper stack).
    pub fn deliver_local(&mut self, delay: SimDuration, pkt: Packet) {
        self.emitted.push((
            self.now + delay,
            Event::PacketArrive { node: self.node, iface: IFACE_INTERNAL, pkt },
        ));
    }

    /// Arms a timer on the current node after `delay`. The returned
    /// token can be passed to [`Ctx::cancel_timer`] or dropped; a timer
    /// that fires retires its own token, so cancelling after expiry is
    /// a harmless no-op.
    pub fn set_timer(&mut self, delay: SimDuration, timer: TimerHandle) -> TimerToken {
        let token = self.slots.alloc();
        self.emitted.push((self.now + delay, Event::Timer { node: self.node, timer, token }));
        token
    }

    /// Cancels a timer armed with [`Ctx::set_timer`]. Returns whether
    /// the timer was still pending. Lazy: the queued event is discarded
    /// at pop time, so cancellation never changes the timing or RNG
    /// draws of other events.
    pub fn cancel_timer(&mut self, token: TimerToken) -> bool {
        let was_live = self.slots.retire(token);
        if was_live {
            self.stats.timers_cancelled += 1;
        }
        was_live
    }

    /// Uniform f64 in [0,1).
    pub fn random_f64(&mut self) -> f64 {
        self.rng.random()
    }

    /// Uniform u64.
    pub fn random_u64(&mut self) -> u64 {
        self.rng.random()
    }

    /// Uniform value in `[0, n)`.
    pub fn random_below(&mut self, n: u64) -> u64 {
        self.rng.random_range(0..n)
    }

    /// Direct access to the seeded RNG (for key generation etc.).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Records a state-change trace entry.
    pub fn trace_state(&mut self, detail: impl FnOnce() -> String) {
        self.trace.record(self.now, self.node, || TraceData::State { detail: detail() });
    }

    /// Records a drop trace entry (no packet in hand; see
    /// [`Ctx::trace_drop_pkt`] when the packet is known).
    pub fn trace_drop(&mut self, detail: impl FnOnce() -> String) {
        self.trace.record(self.now, self.node, || TraceData::Drop { pkt: None, reason: detail() });
    }

    /// Records a drop trace entry carrying the dropped packet's
    /// identity, so harnesses can filter drops by protocol/address.
    pub fn trace_drop_pkt(&mut self, pkt: &Packet, reason: impl FnOnce() -> String) {
        if self.trace.is_enabled() {
            let info = pkt_info(pkt);
            self.trace
                .record(self.now, self.node, || TraceData::Drop { pkt: Some(info), reason: reason() });
        }
    }

    /// The metrics registry (counters, gauges, histograms). Recording
    /// is a no-op behind one branch when metrics are disabled, and
    /// never perturbs the event schedule or RNG.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        self.metrics
    }
}

/// Counters the engine keeps while running. Snapshot via
/// [`Sim::stats`]; cheap enough to maintain unconditionally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events pushed into the queue (all kinds).
    pub scheduled: u64,
    /// Events popped and dispatched to a node or link.
    pub dispatched: u64,
    /// Timers retired by [`Ctx::cancel_timer`] before firing.
    pub timers_cancelled: u64,
    /// Cancelled timer events discarded at pop time (never dispatched).
    pub stale_timer_pops: u64,
    /// Pushes that landed in the current bucket with a sorted insert.
    /// A small share of `scheduled` when the window keeps up with `now`.
    pub queue_current_pushes: u64,
    /// Pushes that took the O(1) wheel fast path.
    pub queue_wheel_pushes: u64,
    /// Pushes that landed in the far-future overflow heap.
    pub queue_overflow_pushes: u64,
    /// Events migrated from overflow into the active window.
    pub queue_migrations: u64,
    /// Times the queue's window moved to a new bucket.
    pub queue_advances: u64,
    /// Always 0: the engine dispatches one event at a time. Kept only
    /// until the benchmark stops reading it.
    pub coalesced_events: u64,
}

/// How [`Sim::run_to_quiescence`] ended.
#[must_use = "check whether the run actually quiesced or hit the safety cap"]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The queue drained: the simulation reached natural quiescence
    /// after dispatching this many events.
    Quiescent(u64),
    /// The `max_events` safety cap was hit with events still queued —
    /// the simulation was cut off, not finished.
    CapReached(u64),
}

impl RunOutcome {
    /// Events dispatched, regardless of how the run ended.
    pub fn processed(self) -> u64 {
        match self {
            RunOutcome::Quiescent(n) | RunOutcome::CapReached(n) => n,
        }
    }

    /// Whether the queue drained naturally.
    pub fn is_quiescent(self) -> bool {
        matches!(self, RunOutcome::Quiescent(_))
    }
}

/// The simulator: world + clock + event queue.
pub struct Sim {
    now: SimTime,
    seq: u64,
    queue: CalendarQueue<Event>,
    /// The topology; public so harnesses can build and inspect it.
    pub world: World,
    rng: StdRng,
    /// Trace buffer (disabled by default).
    pub trace: Trace,
    /// Metrics registry (enabled by default; see
    /// [`Sim::set_metrics_enabled`]). Observations never perturb the
    /// event schedule or RNG, so toggling this leaves runs
    /// bit-identical.
    pub metrics: MetricsRegistry,
    engine_ids: EngineIds,
    started: bool,
    slots: TimerSlots,
    stats: SimStats,
    /// `crashed[node]` while a `NodeCrash` fault is in effect: packets,
    /// timers and transmissions involving the node are discarded.
    crashed: Vec<bool>,
    /// Recycled `Ctx::emitted` buffer so each dispatch reuses one
    /// allocation instead of growing a fresh `Vec`.
    scratch_emitted: Vec<(SimTime, Event)>,
}

impl Sim {
    /// Creates a simulator with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        let mut metrics = MetricsRegistry::new();
        let engine_ids = EngineIds::register(&mut metrics);
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
            world: World::default(),
            rng: StdRng::seed_from_u64(seed),
            trace: Trace::disabled(),
            metrics,
            engine_ids,
            started: false,
            slots: TimerSlots::default(),
            stats: SimStats::default(),
            crashed: Vec::new(),
            scratch_emitted: Vec::new(),
        }
    }

    /// Turns metric recording on or off (on by default). Purely
    /// observational either way — same-seed runs are bit-identical
    /// regardless of this setting.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics.set_enabled(on);
    }

    /// Takes the accumulated metrics, leaving a fresh enabled registry
    /// (with the engine's own metrics re-registered) in place.
    pub fn take_metrics(&mut self) -> MetricsRegistry {
        let mut fresh = MetricsRegistry::new();
        self.engine_ids = EngineIds::register(&mut fresh);
        std::mem::replace(&mut self.metrics, fresh)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Counter snapshot, with the calendar queue's internals folded in.
    pub fn stats(&self) -> SimStats {
        let q = self.queue.stats();
        SimStats {
            queue_current_pushes: q.pushed_current,
            queue_wheel_pushes: q.pushed_wheel,
            queue_overflow_pushes: q.pushed_overflow,
            queue_migrations: q.migrated,
            queue_advances: q.advances,
            ..self.stats
        }
    }

    /// Schedules an event after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, event: Event) {
        let at = self.now + delay;
        self.seq += 1;
        self.stats.scheduled += 1;
        self.queue.push(at, self.seq, event);
    }

    /// Schedules a fault transition after `delay` (sugar for pushing an
    /// [`Event::Fault`] through the ordinary queue).
    pub fn schedule_fault(&mut self, delay: SimDuration, action: FaultAction) {
        self.schedule(delay, Event::Fault { action });
    }

    /// Whether a `NodeCrash` fault is currently in effect for `node`.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.get(node.0).copied().unwrap_or(false)
    }

    fn set_crashed(&mut self, node: NodeId, down: bool) {
        if self.crashed.len() <= node.0 {
            self.crashed.resize(node.0 + 1, false);
        }
        self.crashed[node.0] = down;
    }

    /// Calls `start` on every node exactly once (idempotent).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.world.nodes.len() {
            self.with_node(NodeId(i), |node, ctx| node.start(ctx));
        }
    }

    /// Runs until the queue is empty or `deadline` passes.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start();
        let mut processed = 0;
        while self.queue.peek_until(deadline).is_some() {
            let (at, _seq, event) = self.queue.pop().expect("peeked");
            if self.discard_if_stale(&event) {
                continue;
            }
            self.now = at;
            self.dispatch(event);
            processed += 1;
        }
        // Time advances to the deadline even if the queue drained early.
        if self.now < deadline {
            self.now = deadline;
        }
        processed
    }

    /// Runs until no events remain (natural quiescence) or the
    /// `max_events` safety cap is hit; the [`RunOutcome`] says which —
    /// a capped run means the simulation was cut off mid-flight, which
    /// callers should treat differently from a drained queue.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> RunOutcome {
        self.start();
        let mut processed = 0;
        while processed < max_events {
            let Some((at, _seq, event)) = self.queue.pop() else {
                return RunOutcome::Quiescent(processed);
            };
            if self.discard_if_stale(&event) {
                continue;
            }
            self.now = at;
            self.dispatch(event);
            processed += 1;
        }
        if self.queue.is_empty() {
            RunOutcome::Quiescent(processed)
        } else {
            RunOutcome::CapReached(processed)
        }
    }

    /// True iff `event` is a cancelled timer that must be dropped
    /// unprocessed (counted, but invisible to nodes, time, and RNG).
    fn discard_if_stale(&mut self, event: &Event) -> bool {
        if let Event::Timer { token, .. } = event {
            if !self.slots.is_live(*token) {
                self.stats.stale_timer_pops += 1;
                return true;
            }
        }
        false
    }

    /// Dispatches one event to its node, link or fault handler.
    fn dispatch(&mut self, event: Event) {
        self.stats.dispatched += 1;
        match event {
            Event::PacketArrive { node, iface, pkt } => {
                self.metrics.inc(self.engine_ids.ev_packet);
                self.metrics.observe(self.engine_ids.pkt_bytes, pkt.wire_len() as u64);
                if self.world.nodes.get(node.0).map(Option::is_some) != Some(true) {
                    return; // node removed mid-flight; drop silently
                }
                if self.is_crashed(node) {
                    drop_node_down(&mut self.metrics, &mut self.trace, self.now, node, &pkt);
                    return;
                }
                self.with_node(node, |n, ctx| {
                    ctx.trace.record(ctx.now, node, || TraceData::Rx(pkt_info(&pkt)));
                    n.handle_packet(iface, pkt, ctx);
                });
            }
            Event::Timer { node, timer, token } => {
                self.metrics.inc(self.engine_ids.ev_timer);
                // Retire before dispatch so the handler can re-arm and
                // a late cancel of this token is a no-op.
                self.slots.retire(token);
                if self.world.nodes.get(node.0).map(Option::is_some) != Some(true) {
                    return;
                }
                if self.is_crashed(node) {
                    return; // timers die with the node
                }
                self.with_node(node, |n, ctx| n.handle_timer(timer, ctx));
            }
            Event::LinkTx { from, link, pkt } => {
                self.metrics.inc(self.engine_ids.ev_linktx);
                // RNG draws happen unconditionally (before the crash
                // check) so a crash never shifts the draw sequence of
                // the surviving traffic within the same plan.
                let draws = (self.rng.random(), self.rng.random());
                if self.is_crashed(from) {
                    drop_node_down(&mut self.metrics, &mut self.trace, self.now, from, &pkt);
                    return;
                }
                let l = &mut self.world.links[link.0];
                let ids = self.engine_ids;
                if let Some((at, arrival)) =
                    link_transmit(l, from, self.now, pkt, draws, &mut self.metrics, ids, &mut self.trace)
                {
                    self.seq += 1;
                    self.stats.scheduled += 1;
                    self.queue.push(at, self.seq, arrival);
                }
            }
            Event::Fault { action } => self.apply_fault(action),
        }
    }

    /// Applies one fault transition: mutates link/node fault state,
    /// invokes crash/restart hooks, and makes the transition visible in
    /// both the trace and the metrics registry.
    fn apply_fault(&mut self, action: FaultAction) {
        let (node, counter, detail) = match &action {
            FaultAction::LinkDown(l) => {
                self.world.links[l.0].set_admin_down(true);
                (self.world.links[l.0].a.node, "fault.link_down.episodes", format!("link {} down", l.0))
            }
            FaultAction::LinkUp(l) => {
                self.world.links[l.0].set_admin_down(false);
                (self.world.links[l.0].a.node, "fault.link_up.episodes", format!("link {} up", l.0))
            }
            FaultAction::BurstStart { link, loss } => {
                self.world.links[link.0].set_burst_loss(*loss);
                (
                    self.world.links[link.0].a.node,
                    "fault.loss_burst.episodes",
                    format!("link {} loss burst p={loss:.3}", link.0),
                )
            }
            FaultAction::BurstEnd { link } => {
                self.world.links[link.0].set_burst_loss(0.0);
                (self.world.links[link.0].a.node, "fault.loss_burst.cleared", format!("link {} loss burst cleared", link.0))
            }
            FaultAction::SpikeStart { link, extra } => {
                self.world.links[link.0].set_extra_latency(*extra);
                (
                    self.world.links[link.0].a.node,
                    "fault.latency_spike.episodes",
                    format!("link {} latency spike +{:.1}ms", link.0, extra.as_secs_f64() * 1e3),
                )
            }
            FaultAction::SpikeEnd { link } => {
                self.world.links[link.0].set_extra_latency(SimDuration::ZERO);
                (self.world.links[link.0].a.node, "fault.latency_spike.cleared", format!("link {} latency spike cleared", link.0))
            }
            FaultAction::NodeCrash(n) => (*n, "fault.node_crash.episodes", format!("node {} crash", n.0)),
            FaultAction::NodeRestart(n) => (*n, "fault.node_restart.episodes", format!("node {} restart", n.0)),
            FaultAction::Partition { links } => {
                for l in links {
                    self.world.links[l.0].set_partitioned(true);
                }
                let first = links.first().map(|l| self.world.links[l.0].a.node).unwrap_or(NodeId(0));
                (first, "fault.partition.episodes", format!("partition cut {} links", links.len()))
            }
            FaultAction::Heal { links } => {
                for l in links {
                    self.world.links[l.0].set_partitioned(false);
                }
                let first = links.first().map(|l| self.world.links[l.0].a.node).unwrap_or(NodeId(0));
                (first, "fault.heal.episodes", format!("healed {} links", links.len()))
            }
        };
        self.metrics.add_name(counter, 1);
        self.trace.record(self.now, node, || TraceData::Fault { detail });
        match action {
            // Idempotent: crashing a crashed node is a no-op (fault
            // plans may overlap crash windows).
            FaultAction::NodeCrash(n) if !self.is_crashed(n) => {
                // The crash hook runs first (with the node still "up")
                // so it can cancel timers through the context; only then
                // does the crashed flag start discarding traffic.
                if self.world.nodes.get(n.0).map(Option::is_some) == Some(true) {
                    self.with_node(n, |node, ctx| node.on_crash(ctx));
                }
                self.set_crashed(n, true);
            }
            // Idempotent: restarting a running node is a no-op (a
            // second boot would double-start listeners and apps).
            FaultAction::NodeRestart(n) if self.is_crashed(n) => {
                self.set_crashed(n, false);
                if self.world.nodes.get(n.0).map(Option::is_some) == Some(true) {
                    self.with_node(n, |node, ctx| node.on_restart(ctx));
                }
            }
            _ => {}
        }
    }

    /// Runs `f` with the node temporarily taken out of the world so the
    /// node gets `&mut self` while the context can still mutate links.
    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Ctx)) {
        let mut node = self.world.nodes[id.0].take().expect("node exists and not mid-dispatch");
        let mut ctx = Ctx {
            now: self.now,
            node: id,
            links: &mut self.world.links,
            rng: &mut self.rng,
            trace: &mut self.trace,
            slots: &mut self.slots,
            stats: &mut self.stats,
            metrics: &mut self.metrics,
            ids: self.engine_ids,
            emitted: std::mem::take(&mut self.scratch_emitted),
        };
        f(node.as_mut(), &mut ctx);
        let mut emitted = std::mem::take(&mut ctx.emitted);
        self.world.nodes[id.0] = Some(node);
        for (at, event) in emitted.drain(..) {
            self.seq += 1;
            self.stats.scheduled += 1;
            self.queue.push(at, self.seq, event);
        }
        // Hand the (now empty) buffer back for the next dispatch.
        self.scratch_emitted = emitted;
    }

    /// Runs `f` against a node outside the event loop (e.g. to inject a
    /// command from an experiment harness), applying its emissions.
    pub fn with_node_ctx(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Ctx)) {
        self.with_node(id, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{v4, IcmpKind, IcmpMessage, Payload};

    /// A node that counts received packets and echoes them back once.
    struct Echo {
        link: LinkId,
        received: u32,
        echo: bool,
    }

    impl Node for Echo {
        fn handle_packet(&mut self, _iface: usize, pkt: Packet, ctx: &mut Ctx) {
            self.received += 1;
            if self.echo {
                let reply = Packet::new(pkt.dst, pkt.src, pkt.payload.clone());
                ctx.transmit(self.link, reply);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn icmp_packet() -> Packet {
        Packet::new(
            v4(10, 0, 0, 1),
            v4(10, 0, 0, 2),
            Payload::Icmp(IcmpMessage { kind: IcmpKind::EchoRequest, ident: 1, seq: 1, payload_len: 56 }),
        )
    }

    fn two_node_sim() -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(1);
        let a = sim.world.add_node(Box::new(Echo { link: LinkId(0), received: 0, echo: false }));
        let b = sim.world.add_node(Box::new(Echo { link: LinkId(0), received: 0, echo: true }));
        sim.world.connect(
            Endpoint { node: a, iface: 0 },
            Endpoint { node: b, iface: 0 },
            LinkParams::datacenter(),
        );
        (sim, a, b)
    }

    #[test]
    fn packet_travels_and_echoes() {
        let (mut sim, a, b) = two_node_sim();
        sim.schedule(
            SimDuration::ZERO,
            Event::PacketArrive { node: a, iface: 0, pkt: icmp_packet() },
        );
        // a does not echo, so we inject at a... actually send from a to b:
        sim.with_node_ctx(a, |_n, ctx| {
            ctx.transmit(LinkId(0), icmp_packet());
        });
        let outcome = sim.run_to_quiescence(1000);
        assert!(outcome.is_quiescent(), "small sim must drain");
        let n = outcome.processed();
        assert!(n >= 2, "at least delivery + echo, got {n}");
        assert_eq!(sim.world.node::<Echo>(b).unwrap().received, 1);
        assert_eq!(sim.world.node::<Echo>(a).unwrap().received, 2); // injected + echo
        assert!(sim.now() > SimTime::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let (mut sim, a, _b) = two_node_sim();
            sim.rng = StdRng::seed_from_u64(seed);
            sim.with_node_ctx(a, |_n, ctx| ctx.transmit(LinkId(0), icmp_packet()));
            let _ = sim.run_to_quiescence(1000);
            sim.now().as_nanos()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut sim, a, _b) = two_node_sim();
        sim.with_node_ctx(a, |_n, ctx| ctx.transmit(LinkId(0), icmp_packet()));
        // Deadline before the ~250 µs link latency: nothing delivered yet.
        let n = sim.run_until(SimTime(1000));
        assert_eq!(n, 0);
        assert_eq!(sim.now(), SimTime(1000));
        let n = sim.run_until(SimTime(1_000_000_000));
        assert!(n > 0);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(20), TimerHandle { owner: TimerOwner::Node, token: 2 });
                ctx.set_timer(SimDuration::from_millis(10), TimerHandle { owner: TimerOwner::Node, token: 1 });
                ctx.set_timer(SimDuration::from_millis(20), TimerHandle { owner: TimerOwner::Node, token: 3 });
            }
            fn handle_packet(&mut self, _: usize, _: Packet, _: &mut Ctx) {}
            fn handle_timer(&mut self, t: TimerHandle, _: &mut Ctx) {
                self.fired.push(t.token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Sim::new(0);
        let n = sim.world.add_node(Box::new(TimerNode { fired: vec![] }));
        let _ = sim.run_to_quiescence(100);
        // Token 1 first (earlier), then 2 before 3 (FIFO at equal times).
        assert_eq!(sim.world.node::<TimerNode>(n).unwrap().fired, vec![1, 2, 3]);
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        struct CancelNode {
            pending: Vec<TimerToken>,
            fired: Vec<u64>,
        }
        impl Node for CancelNode {
            fn start(&mut self, ctx: &mut Ctx) {
                for tok in 1..=4u64 {
                    let t = ctx.set_timer(
                        SimDuration::from_millis(10 * tok),
                        TimerHandle { owner: TimerOwner::Node, token: tok },
                    );
                    self.pending.push(t);
                }
                // A timer whose token is dropped fires like any other.
                ctx.set_timer(SimDuration::from_millis(50), TimerHandle { owner: TimerOwner::Node, token: 5 });
                // Cancel 2 and 4 immediately; 1 and 3 must still fire.
                let second = self.pending[1];
                let fourth = self.pending[3];
                assert!(ctx.cancel_timer(second));
                assert!(ctx.cancel_timer(fourth));
                // Double-cancel is a no-op.
                assert!(!ctx.cancel_timer(second));
            }
            fn handle_packet(&mut self, _: usize, _: Packet, _: &mut Ctx) {}
            fn handle_timer(&mut self, t: TimerHandle, ctx: &mut Ctx) {
                self.fired.push(t.token);
                // Cancelling an already-fired token is a no-op.
                if let Some(&mine) = self.pending.get((t.token - 1) as usize) {
                    assert!(!ctx.cancel_timer(mine));
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Sim::new(0);
        let n = sim.world.add_node(Box::new(CancelNode { pending: vec![], fired: vec![] }));
        let outcome = sim.run_to_quiescence(100);
        assert!(outcome.is_quiescent());
        assert_eq!(sim.world.node::<CancelNode>(n).unwrap().fired, vec![1, 3, 5]);
        let stats = sim.stats();
        assert_eq!(stats.timers_cancelled, 2);
        assert_eq!(stats.stale_timer_pops, 2);
        assert_eq!(stats.dispatched, 3, "only the live timers are dispatched");
    }

    #[test]
    fn quiescence_cap_is_reported() {
        // An echo pair bouncing a packet forever: the cap must trip and
        // say so.
        let (mut sim, a, b) = two_node_sim();
        sim.world.node_mut::<Echo>(a).unwrap().echo = true;
        let _ = b;
        sim.with_node_ctx(a, |_n, ctx| ctx.transmit(LinkId(0), icmp_packet()));
        let outcome = sim.run_to_quiescence(10);
        assert_eq!(outcome, RunOutcome::CapReached(10));
        assert!(!outcome.is_quiescent());
    }

    #[test]
    fn stats_count_scheduled_and_dispatched() {
        let (mut sim, a, _b) = two_node_sim();
        sim.with_node_ctx(a, |_n, ctx| ctx.transmit(LinkId(0), icmp_packet()));
        let outcome = sim.run_to_quiescence(1000);
        let stats = sim.stats();
        assert_eq!(stats.dispatched, outcome.processed());
        assert!(stats.scheduled >= stats.dispatched);
    }
}
