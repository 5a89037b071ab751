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
//!
//! A timer that is moved again and again (TCP's retransmission timer,
//! pushed back on every ACK) is re-armed in place instead
//! ([`Ctx::rearm_timer`], [`Ctx::disarm_timer`]). Its slot records the
//! `(time, seq)` key the timer now fires at, and the one queue entry it
//! already has stays where it is. When that entry pops early it is
//! pushed again at exactly the recorded key, without being dispatched;
//! a disarmed slot's entry is discarded as a stale pop. Each arm takes
//! its `seq` at the point in the dispatch's flush where
//! [`Ctx::set_timer`] would, so every dispatched event keeps the key
//! that cancel-and-set gives it and the dispatch order is the same by
//! construction. Only the queue's own traffic shrinks: one entry per
//! re-armed timer instead of one dead entry per arm. A re-arm to an
//! earlier time than the queued entry, or of a token that already fired
//! or was cancelled, falls back to cancel-and-set.

use crate::drops::DropReason;
use crate::link::{Endpoint, Link, LinkId, LinkParams, NodeId};
use crate::packet::{Packet, Payload};
use crate::sched::CalendarQueue;
use crate::time::{SimDuration, SimTime};
use crate::trace::{PktInfo, Trace, TraceData};
use obs::{CtrId, HistId, MetricsRegistry};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::any::Any;

/// Registered handles for the engine's own metrics and for one counter
/// per [`DropReason`], so the dispatch fast path and every drop bump an
/// index instead of hashing a name.
pub(crate) struct EngineIds {
    ev_timer: CtrId,
    ev_linktx: CtrId,
    pkt_bytes: HistId,
    link_drops: CtrId,
    /// Indexed by [`DropReason`]; empty until [`Self::register_drops`].
    drops: Vec<CtrId>,
}

impl EngineIds {
    fn register(m: &mut MetricsRegistry) -> Self {
        EngineIds {
            ev_timer: m.counter("engine.ev.timer"),
            ev_linktx: m.counter("engine.ev.linktx"),
            pkt_bytes: m.hist("engine.pkt.bytes"),
            link_drops: m.counter("link.drops"),
            drops: Vec::new(),
        }
    }

    /// Registers every reason's counter in `m`, once: at the first drop,
    /// or when the metrics are first taken, so every taken registry (and
    /// so every run manifest) lists every reason. Registering them in
    /// `Sim::new` instead made building a `Sim` almost four times as
    /// slow (3.3 → 12.5 µs on a 2-vCPU x86-64 VM), and for a two-host
    /// topology that is most of the set-up.
    fn register_drops(&mut self, m: &mut MetricsRegistry) {
        if self.drops.is_empty() {
            self.drops = DropReason::ALL
                .iter()
                .map(|r| m.counter(r.name()))
                .collect();
        }
    }
}

fn pkt_info(pkt: &Packet) -> PktInfo {
    PktInfo {
        src: pkt.src,
        dst: pkt.dst,
        proto: pkt.protocol(),
        len: pkt.wire_len() as u32,
    }
}

/// Records that `node` dropped `pkt` for `reason`: bumps the reason's
/// counter (and `link.drops` for a link reason) and traces the drop.
/// Every drop in the simulator goes through here.
#[allow(clippy::too_many_arguments)]
fn record_drop(
    metrics: &mut MetricsRegistry,
    ids: &mut EngineIds,
    trace: &mut Trace,
    now: SimTime,
    node: NodeId,
    pkt: &Packet,
    reason: DropReason,
) {
    ids.register_drops(metrics);
    metrics.inc(ids.drops[reason as usize]);
    if reason.is_link() {
        metrics.inc(ids.link_drops);
    }
    trace.record(now, node, || TraceData::Drop {
        pkt: pkt_info(pkt),
        reason,
    });
}

/// Offers one wire frame to `link` — the only place link delivery and
/// link drops are accounted. A delivered frame is traced and returned
/// as its arrival event; a dropped one is recorded under its reason.
#[allow(clippy::too_many_arguments)]
fn link_transmit(
    link: &mut Link,
    from: NodeId,
    now: SimTime,
    pkt: Packet,
    (loss_draw, jitter_draw): (f64, f64),
    metrics: &mut MetricsRegistry,
    ids: &mut EngineIds,
    trace: &mut Trace,
) -> Option<(SimTime, Event)> {
    debug_assert!(
        !matches!(&pkt.payload, Payload::Tcp(seg) if seg.gso_mss > 0),
        "segment with gso_mss set reached link {}",
        link.id.0
    );
    match link.transmit(from, pkt.wire_len(), now, loss_draw, jitter_draw) {
        Ok((to, at)) => {
            trace.record(now, from, || TraceData::Tx(pkt_info(&pkt)));
            Some((
                at,
                Event::PacketArrive {
                    node: to.node,
                    iface: to.iface,
                    pkt,
                },
            ))
        }
        Err(reason) => {
            record_drop(metrics, ids, trace, now, from, &pkt, reason);
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
/// recognised and ignored. Re-arming keeps the token.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerToken {
    slot: u32,
    gen: u32,
}

/// One entry of [`TimerSlots`].
#[derive(Clone, Copy)]
struct TimerSlot {
    /// The live generation: a token is live iff its generation matches.
    gen: u32,
    /// The `(time, seq)` key the live timer fires at; `None` once
    /// disarmed.
    due: Option<(u64, u64)>,
    /// Time of the slot's one queue entry (pushed, or still in the
    /// current dispatch's flush). Never later than `due`.
    queued_at: u64,
    /// The registration that entry delivers.
    timer: TimerHandle,
}

/// Slot table backing [`TimerToken`]. A slot is live from `alloc` until
/// it is retired (fired, cancelled, or popped while disarmed); retired
/// slots wait on `free`.
#[derive(Default)]
struct TimerSlots {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
}

impl TimerSlots {
    fn alloc(&mut self, at: u64, seq: u64, timer: TimerHandle) -> TimerToken {
        let armed = |gen| TimerSlot {
            gen,
            due: Some((at, seq)),
            queued_at: at,
            timer,
        };
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                *s = armed(s.gen);
                TimerToken { slot, gen: s.gen }
            }
            None => {
                self.slots.push(armed(0));
                TimerToken {
                    slot: (self.slots.len() - 1) as u32,
                    gen: 0,
                }
            }
        }
    }

    fn live_mut(&mut self, t: TimerToken) -> Option<&mut TimerSlot> {
        self.slots
            .get_mut(t.slot as usize)
            .filter(|s| s.gen == t.gen)
    }

    /// Invalidates the token and recycles its slot. Returns whether the
    /// token was still live (false = already fired or cancelled).
    fn retire(&mut self, t: TimerToken) -> bool {
        let Some(s) = self.live_mut(t) else {
            return false;
        };
        s.gen = s.gen.wrapping_add(1);
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
    /// was cancelled or disarmed in the meantime, and pushed again
    /// without dispatch if it was re-armed to a later key.
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
        self.nodes[id.0]
            .as_ref()
            .expect("node is mid-dispatch")
            .as_any()
            .downcast_ref()
    }

    /// Mutable access to a node, downcast to `T`.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.0]
            .as_mut()
            .expect("node is mid-dispatch")
            .as_any_mut()
            .downcast_mut()
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
    ids: &'a mut EngineIds,
    /// The engine's `seq` before this dispatch: the flush gives the
    /// `i`-th emission `seq_base + i + 1`.
    seq_base: u64,
    /// Emissions in call order; `None` is a re-arm, which takes a `seq`
    /// but queues nothing.
    emitted: Vec<(SimTime, Option<Event>)>,
}

impl Ctx<'_> {
    /// Transmits `pkt` on `link`. Loss and queueing are resolved here;
    /// delivery (if any) is scheduled automatically.
    pub fn transmit(&mut self, link: LinkId, pkt: Packet) {
        let draws = (self.rng.random(), self.rng.random());
        let l = &mut self.links[link.0];
        let arrival = link_transmit(
            l,
            self.node,
            self.now,
            pkt,
            draws,
            self.metrics,
            self.ids,
            self.trace,
        );
        self.emitted.extend(arrival.map(|(at, ev)| (at, Some(ev))));
    }

    /// Transmits `pkt` on `link` after `delay` (models CPU processing
    /// before the packet reaches the NIC; link queueing is evaluated at
    /// departure time, not now).
    pub fn transmit_after(&mut self, delay: SimDuration, link: LinkId, pkt: Packet) {
        if delay == SimDuration::ZERO {
            self.transmit(link, pkt);
        } else {
            self.emitted.push((
                self.now + delay,
                Some(Event::LinkTx {
                    from: self.node,
                    link,
                    pkt,
                }),
            ));
        }
    }

    /// Delivers `pkt` back to this node's own internal interface after
    /// `delay` (decrypted tunnel payloads re-entering the upper stack).
    pub fn deliver_local(&mut self, delay: SimDuration, pkt: Packet) {
        self.emitted.push((
            self.now + delay,
            Some(Event::PacketArrive {
                node: self.node,
                iface: IFACE_INTERNAL,
                pkt,
            }),
        ));
    }

    /// The `seq` the flush will give the next emission.
    fn next_seq(&self) -> u64 {
        self.seq_base + self.emitted.len() as u64 + 1
    }

    /// Arms a timer on the current node after `delay`. The returned
    /// token can be passed to [`Ctx::cancel_timer`] or
    /// [`Ctx::rearm_timer`], or dropped; a timer that fires retires its
    /// own token, so cancelling after expiry is a harmless no-op.
    pub fn set_timer(&mut self, delay: SimDuration, timer: TimerHandle) -> TimerToken {
        let at = self.now + delay;
        let token = self.slots.alloc(at.as_nanos(), self.next_seq(), timer);
        self.emitted.push((
            at,
            Some(Event::Timer {
                node: self.node,
                timer,
                token,
            }),
        ));
        token
    }

    /// Moves the timer `token` (armed by this node with the same
    /// `timer`) to fire after `delay`, as if it were cancelled and a
    /// fresh one set, and returns the token to keep. The new firing key
    /// is exactly the one [`Ctx::set_timer`] would give it here. While
    /// the token's queued entry is not later than the new time, nothing
    /// is queued: the slot records the key, and the engine pushes the
    /// entry on to it when it pops. Otherwise (an earlier time, another
    /// handle, or a token that fired or was cancelled) this is
    /// cancel-and-set, and the returned token is a new one.
    pub fn rearm_timer(
        &mut self,
        token: TimerToken,
        delay: SimDuration,
        timer: TimerHandle,
    ) -> TimerToken {
        let at = self.now + delay;
        let seq = self.next_seq();
        if let Some(slot) = self.slots.live_mut(token) {
            if slot.timer == timer && slot.queued_at <= at.as_nanos() {
                slot.due = Some((at.as_nanos(), seq));
                self.emitted.push((at, None));
                return token;
            }
        }
        self.cancel_timer(token);
        self.set_timer(delay, timer)
    }

    /// Stops the timer `token` from firing but keeps the token, so a
    /// later [`Ctx::rearm_timer`] can reuse its queued entry. Returns
    /// whether the timer was armed. The entry is discarded, and the
    /// token retired, when it pops still disarmed.
    pub fn disarm_timer(&mut self, token: TimerToken) -> bool {
        self.slots
            .live_mut(token)
            .is_some_and(|slot| slot.due.take().is_some())
    }

    /// Cancels a timer armed with [`Ctx::set_timer`] and retires its
    /// token. Returns whether the token was still live. Lazy: the queued
    /// event is discarded at pop time, so cancellation never changes the
    /// timing or RNG draws of other events. A timer that will be armed
    /// again soon is cheaper to disarm ([`Ctx::disarm_timer`]) and
    /// re-arm: a cancelled one leaves a dead entry in the queue for
    /// every arm.
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
        self.trace.record(self.now, self.node, || TraceData::State {
            detail: detail(),
        });
    }

    /// Drops `pkt` for `reason`: bumps the reason's counter and traces
    /// the drop. The one way a node records a packet it refuses.
    pub fn drop_packet(&mut self, pkt: &Packet, reason: DropReason) {
        record_drop(
            self.metrics,
            self.ids,
            self.trace,
            self.now,
            self.node,
            pkt,
            reason,
        );
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
    /// Events pushed into the queue (all kinds), counting each push of
    /// a re-armed timer's entry on to its recorded key.
    pub scheduled: u64,
    /// Events popped and dispatched to a node or link.
    pub dispatched: u64,
    /// Timers retired by [`Ctx::cancel_timer`] before firing.
    pub timers_cancelled: u64,
    /// Cancelled or disarmed timer events discarded at pop time (never
    /// dispatched).
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
    scratch_emitted: Vec<(SimTime, Option<Event>)>,
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

    /// Takes the accumulated metrics, with a counter for every
    /// [`DropReason`]. The same names stay registered at zero, and
    /// recording stays on or off as it was, so every handle into
    /// [`Sim::metrics`] keeps counting (see [`MetricsRegistry::take`]).
    pub fn take_metrics(&mut self) -> MetricsRegistry {
        self.engine_ids.register_drops(&mut self.metrics);
        self.metrics.take()
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
            let (at, seq, event) = self.queue.pop().expect("peeked");
            let Some(event) = self.settle_timer(at, seq, event) else {
                continue;
            };
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
            let Some((at, seq, event)) = self.queue.pop() else {
                return RunOutcome::Quiescent(processed);
            };
            let Some(event) = self.settle_timer(at, seq, event) else {
                continue;
            };
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

    /// Returns the popped event if it is due for dispatch. A timer entry
    /// whose token is dead, or whose slot is disarmed, is dropped
    /// unprocessed (counted, but invisible to nodes, time, and RNG); one
    /// whose slot was re-armed to a later key is pushed again at exactly
    /// that key.
    fn settle_timer(&mut self, at: SimTime, seq: u64, event: Event) -> Option<Event> {
        let Event::Timer { token, .. } = &event else {
            return Some(event);
        };
        let token = *token;
        let Some(slot) = self.slots.live_mut(token) else {
            self.stats.stale_timer_pops += 1;
            return None;
        };
        match slot.due {
            Some(due) if due == (at.as_nanos(), seq) => Some(event),
            Some((due_at, due_seq)) => {
                debug_assert!(
                    (due_at, due_seq) > (at.as_nanos(), seq),
                    "a slot's entry runs ahead of its key"
                );
                slot.queued_at = due_at;
                self.stats.scheduled += 1;
                self.queue.push(SimTime(due_at), due_seq, event);
                None
            }
            None => {
                self.slots.retire(token);
                self.stats.stale_timer_pops += 1;
                None
            }
        }
    }

    /// Checks the timer slots against the queue: no slot is on the free
    /// list twice, so free plus live slots make up the table; every live
    /// slot has exactly one queued entry, whose time is the slot's
    /// `queued_at` and whose key is not later than the slot's recorded
    /// firing key; and no entry carries a free slot's current
    /// generation. Also checks that the queue's tiers hold `len`
    /// entries. Call it between runs, not from a handler. Returns the
    /// first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let table = &self.slots.slots;
        let mut free = vec![false; table.len()];
        for &slot in &self.slots.free {
            let seen = free
                .get_mut(slot as usize)
                .ok_or(format!("free slot {slot} out of range"))?;
            if std::mem::replace(seen, true) {
                return Err(format!("slot {slot} is free twice"));
            }
        }
        let mut entries = vec![0u32; table.len()];
        let mut queued = 0;
        for (at, seq, event) in self.queue.iter() {
            queued += 1;
            let Event::Timer { token, .. } = event else {
                continue;
            };
            let i = token.slot as usize;
            let slot = table.get(i).ok_or(format!("entry for unknown slot {i}"))?;
            if slot.gen != token.gen {
                continue; // a dead token's entry, discarded when it pops
            }
            if free[i] {
                return Err(format!(
                    "free slot {i} has an entry with its current generation"
                ));
            }
            entries[i] += 1;
            if at.as_nanos() != slot.queued_at {
                return Err(format!(
                    "slot {i}: entry at {} but queued_at {}",
                    at.as_nanos(),
                    slot.queued_at
                ));
            }
            if slot.due.is_some_and(|due| (at.as_nanos(), seq) > due) {
                return Err(format!(
                    "slot {i}: entry ({}, {seq}) is later than its key {:?}",
                    at.as_nanos(),
                    slot.due
                ));
            }
        }
        if queued != self.queue.len() {
            return Err(format!(
                "queue tiers hold {queued} entries, len is {}",
                self.queue.len()
            ));
        }
        match (0..table.len()).find(|&i| !free[i] && entries[i] != 1) {
            Some(i) => Err(format!("live slot {i} has {} queued entries", entries[i])),
            None => Ok(()),
        }
    }

    /// Dispatches one event to its node, link or fault handler.
    fn dispatch(&mut self, event: Event) {
        self.stats.dispatched += 1;
        match event {
            Event::PacketArrive { node, iface, pkt } => {
                self.metrics
                    .observe(self.engine_ids.pkt_bytes, pkt.wire_len() as u64);
                if self.world.nodes.get(node.0).map(Option::is_some) != Some(true) {
                    return; // node removed mid-flight; drop silently
                }
                if self.is_crashed(node) {
                    self.drop_packet(node, &pkt, DropReason::NodeDown);
                    return;
                }
                self.with_node(node, |n, ctx| {
                    ctx.trace
                        .record(ctx.now, node, || TraceData::Rx(pkt_info(&pkt)));
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
                    self.drop_packet(from, &pkt, DropReason::NodeDown);
                    return;
                }
                let l = &mut self.world.links[link.0];
                let ids = &mut self.engine_ids;
                if let Some((at, arrival)) = link_transmit(
                    l,
                    from,
                    self.now,
                    pkt,
                    draws,
                    &mut self.metrics,
                    ids,
                    &mut self.trace,
                ) {
                    self.seq += 1;
                    self.stats.scheduled += 1;
                    self.queue.push(at, self.seq, arrival);
                }
            }
            Event::Fault { action } => self.apply_fault(action),
        }
    }

    /// Records that `node` dropped `pkt` for `reason`, as
    /// [`Ctx::drop_packet`] does from inside a node.
    fn drop_packet(&mut self, node: NodeId, pkt: &Packet, reason: DropReason) {
        let (ids, now) = (&mut self.engine_ids, self.now);
        record_drop(
            &mut self.metrics,
            ids,
            &mut self.trace,
            now,
            node,
            pkt,
            reason,
        );
    }

    /// Applies one fault transition: mutates link/node fault state,
    /// invokes crash/restart hooks, and makes the transition visible in
    /// both the trace and the metrics registry.
    fn apply_fault(&mut self, action: FaultAction) {
        let (node, counter, detail) = match &action {
            FaultAction::LinkDown(l) => {
                self.world.links[l.0].set_admin_down(true);
                (
                    self.world.links[l.0].a.node,
                    "fault.link_down.episodes",
                    format!("link {} down", l.0),
                )
            }
            FaultAction::LinkUp(l) => {
                self.world.links[l.0].set_admin_down(false);
                (
                    self.world.links[l.0].a.node,
                    "fault.link_up.episodes",
                    format!("link {} up", l.0),
                )
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
                (
                    self.world.links[link.0].a.node,
                    "fault.loss_burst.cleared",
                    format!("link {} loss burst cleared", link.0),
                )
            }
            FaultAction::SpikeStart { link, extra } => {
                self.world.links[link.0].set_extra_latency(*extra);
                (
                    self.world.links[link.0].a.node,
                    "fault.latency_spike.episodes",
                    format!(
                        "link {} latency spike +{:.1}ms",
                        link.0,
                        extra.as_secs_f64() * 1e3
                    ),
                )
            }
            FaultAction::SpikeEnd { link } => {
                self.world.links[link.0].set_extra_latency(SimDuration::ZERO);
                (
                    self.world.links[link.0].a.node,
                    "fault.latency_spike.cleared",
                    format!("link {} latency spike cleared", link.0),
                )
            }
            FaultAction::NodeCrash(n) => (
                *n,
                "fault.node_crash.episodes",
                format!("node {} crash", n.0),
            ),
            FaultAction::NodeRestart(n) => (
                *n,
                "fault.node_restart.episodes",
                format!("node {} restart", n.0),
            ),
            FaultAction::Partition { links } => {
                for l in links {
                    self.world.links[l.0].set_partitioned(true);
                }
                let first = links
                    .first()
                    .map(|l| self.world.links[l.0].a.node)
                    .unwrap_or(NodeId(0));
                (
                    first,
                    "fault.partition.episodes",
                    format!("partition cut {} links", links.len()),
                )
            }
            FaultAction::Heal { links } => {
                for l in links {
                    self.world.links[l.0].set_partitioned(false);
                }
                let first = links
                    .first()
                    .map(|l| self.world.links[l.0].a.node)
                    .unwrap_or(NodeId(0));
                (
                    first,
                    "fault.heal.episodes",
                    format!("healed {} links", links.len()),
                )
            }
        };
        self.metrics.add_name(counter, 1);
        self.trace
            .record(self.now, node, || TraceData::Fault { detail });
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
        let mut node = self.world.nodes[id.0]
            .take()
            .expect("node exists and not mid-dispatch");
        let mut ctx = Ctx {
            now: self.now,
            node: id,
            links: &mut self.world.links,
            rng: &mut self.rng,
            trace: &mut self.trace,
            slots: &mut self.slots,
            stats: &mut self.stats,
            metrics: &mut self.metrics,
            ids: &mut self.engine_ids,
            seq_base: self.seq,
            emitted: std::mem::take(&mut self.scratch_emitted),
        };
        f(node.as_mut(), &mut ctx);
        let mut emitted = std::mem::take(&mut ctx.emitted);
        self.world.nodes[id.0] = Some(node);
        // Every emission takes the next `seq`, a re-arm too: its key was
        // recorded at the call, and the entry it reuses is already queued.
        for (at, event) in emitted.drain(..) {
            self.seq += 1;
            if let Some(event) = event {
                self.stats.scheduled += 1;
                self.queue.push(at, self.seq, event);
            }
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
            Payload::Icmp(IcmpMessage {
                kind: IcmpKind::EchoRequest,
                ident: 1,
                seq: 1,
                payload_len: 56,
            }),
        )
    }

    fn two_node_sim() -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(1);
        let a = sim.world.add_node(Box::new(Echo {
            link: LinkId(0),
            received: 0,
            echo: false,
        }));
        let b = sim.world.add_node(Box::new(Echo {
            link: LinkId(0),
            received: 0,
            echo: true,
        }));
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
            Event::PacketArrive {
                node: a,
                iface: 0,
                pkt: icmp_packet(),
            },
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
                ctx.set_timer(
                    SimDuration::from_millis(20),
                    TimerHandle {
                        owner: TimerOwner::Node,
                        token: 2,
                    },
                );
                ctx.set_timer(
                    SimDuration::from_millis(10),
                    TimerHandle {
                        owner: TimerOwner::Node,
                        token: 1,
                    },
                );
                ctx.set_timer(
                    SimDuration::from_millis(20),
                    TimerHandle {
                        owner: TimerOwner::Node,
                        token: 3,
                    },
                );
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
                        TimerHandle {
                            owner: TimerOwner::Node,
                            token: tok,
                        },
                    );
                    self.pending.push(t);
                }
                // A timer whose token is dropped fires like any other.
                ctx.set_timer(
                    SimDuration::from_millis(50),
                    TimerHandle {
                        owner: TimerOwner::Node,
                        token: 5,
                    },
                );
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
        let n = sim.world.add_node(Box::new(CancelNode {
            pending: vec![],
            fired: vec![],
        }));
        let outcome = sim.run_to_quiescence(100);
        assert!(outcome.is_quiescent());
        assert_eq!(
            sim.world.node::<CancelNode>(n).unwrap().fired,
            vec![1, 3, 5]
        );
        let stats = sim.stats();
        assert_eq!(stats.timers_cancelled, 2);
        assert_eq!(stats.stale_timer_pops, 2);
        assert_eq!(stats.dispatched, 3, "only the live timers are dispatched");
    }

    #[test]
    fn rearm_reuses_the_queued_entry() {
        /// Runs `script` at start; logs each firing as `(ms, token)`.
        struct Rearm {
            script: fn(&mut Ctx),
            fired: Vec<(u64, u64)>,
        }
        impl Node for Rearm {
            fn start(&mut self, ctx: &mut Ctx) {
                (self.script)(ctx);
            }
            fn handle_packet(&mut self, _: usize, _: Packet, _: &mut Ctx) {}
            fn handle_timer(&mut self, t: TimerHandle, ctx: &mut Ctx) {
                self.fired.push((ctx.now.as_nanos() / 1_000_000, t.token));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        fn run(script: fn(&mut Ctx)) -> (Vec<(u64, u64)>, SimStats) {
            let mut sim = Sim::new(0);
            let n = sim.world.add_node(Box::new(Rearm {
                script,
                fired: vec![],
            }));
            assert!(sim.run_to_quiescence(100).is_quiescent());
            sim.check_invariants().expect("timer slots consistent");
            (
                sim.world.node::<Rearm>(n).unwrap().fired.clone(),
                sim.stats(),
            )
        }
        const H: TimerHandle = TimerHandle {
            owner: TimerOwner::Node,
            token: 1,
        };

        // Later re-arms keep the token and queue nothing; the entry is
        // pushed on once, to the last key, when it pops at 10 ms.
        let (fired, st) = run(|ctx| {
            let t = ctx.set_timer(SimDuration::from_millis(10), H);
            assert_eq!(ctx.rearm_timer(t, SimDuration::from_millis(20), H), t);
            assert_eq!(ctx.rearm_timer(t, SimDuration::from_millis(30), H), t);
        });
        assert_eq!(fired, vec![(30, 1)]);
        assert_eq!(
            (
                st.scheduled,
                st.dispatched,
                st.timers_cancelled,
                st.stale_timer_pops
            ),
            (2, 1, 0, 0)
        );

        // An earlier time is cancel-and-set: a new token, one dead entry.
        let (fired, st) = run(|ctx| {
            let t = ctx.set_timer(SimDuration::from_millis(10), H);
            assert_ne!(ctx.rearm_timer(t, SimDuration::from_millis(5), H), t);
        });
        assert_eq!(fired, vec![(5, 1)]);
        assert_eq!(
            (
                st.scheduled,
                st.dispatched,
                st.timers_cancelled,
                st.stale_timer_pops
            ),
            (2, 1, 1, 1)
        );

        // A disarmed timer's entry pops stale; re-arming it revives it.
        let (fired, st) = run(|ctx| {
            let t = ctx.set_timer(SimDuration::from_millis(10), H);
            assert!(ctx.disarm_timer(t));
            assert!(!ctx.disarm_timer(t), "already disarmed");
            let u = ctx.set_timer(SimDuration::from_millis(10), TimerHandle { token: 2, ..H });
            assert!(ctx.disarm_timer(u));
            assert_eq!(
                ctx.rearm_timer(
                    u,
                    SimDuration::from_millis(15),
                    TimerHandle { token: 2, ..H }
                ),
                u
            );
        });
        assert_eq!(fired, vec![(15, 2)]);
        assert_eq!(
            (
                st.scheduled,
                st.dispatched,
                st.timers_cancelled,
                st.stale_timer_pops
            ),
            (3, 1, 0, 1)
        );
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
