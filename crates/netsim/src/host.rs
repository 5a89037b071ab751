//! End hosts: a full network stack composed of
//!
//! ```text
//!   applications        (trait App: web servers, databases, load gens)
//!   ----------------    AppEvent / HostApi boundary
//!   TCP | UDP | ICMP    (layer 4)
//!   ----------------    layer 3.5: trait L35Shim — where HIP plugs in
//!   IP routing          (+ optional Teredo IPv6-over-UDP tunneling)
//!   ----------------
//!   links               (via the engine Ctx)
//! ```
//!
//! The shim sees every outbound packet whose destination it claims
//! (HITs/LSIs) and every inbound ESP/HIP packet, exactly like the HIPL
//! kernel hooks the paper deployed. Everything above the shim is
//! identity-addressed; everything below uses locators.

use crate::addr::{is_identity, select_source};
use crate::cpu::CpuModel;
use crate::drops::DropReason;
use crate::engine::{Ctx, Node, TimerHandle, TimerOwner, TimerToken, IFACE_INTERNAL};
use crate::fx::FxHashMap;
use crate::link::LinkId;
use crate::packet::{proto, IcmpKind, IcmpMessage, Packet, Payload, UdpData, UdpDatagram};
use crate::router::RouteTable;
use crate::tcp::{SockId, TcpEvent, TcpLayer};
use crate::teredo::TeredoClient;
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use std::any::Any;
use std::collections::VecDeque;
use std::net::IpAddr;

/// Events delivered to applications.
#[derive(Clone, Debug)]
pub enum AppEvent {
    /// A TCP socket event.
    Tcp(TcpEvent),
    /// A UDP datagram arrived on a bound port.
    UdpDatagram {
        /// The bound local port it arrived on.
        dst_port: u16,
        /// Sender address.
        src: IpAddr,
        /// Sender port.
        src_port: u16,
        /// The payload.
        data: UdpData,
    },
    /// An ICMP echo reply for a registered identifier.
    EchoReply {
        /// The ping session identifier.
        ident: u16,
        /// Sequence number within the session.
        seq: u16,
        /// Who answered.
        from: IpAddr,
    },
    /// An application timer fired.
    Timer {
        /// The token passed to `set_timer`.
        token: u64,
    },
}

/// An application running on a host.
pub trait App: Any {
    /// Called once when the simulation starts.
    fn start(&mut self, _api: &mut HostApi) {}
    /// Called for every event addressed to this app.
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi);
    /// Called when the host crashes: drop all connection state (socket
    /// ids will be reused by the fresh TCP layer after restart) but keep
    /// configuration and accumulated statistics. `start` runs again on
    /// restart.
    fn reset(&mut self) {}
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A layer-3.5 shim (HIP). Installed with [`Host::set_shim`].
pub trait L35Shim: Any {
    /// Called once when the simulation starts.
    fn start(&mut self, _api: &mut ShimApi) {}
    /// Whether outbound packets to `dst` should be given to the shim.
    fn handles_dst(&self, dst: &IpAddr) -> bool;
    /// An outbound upper-layer packet addressed to an identity.
    fn outbound(&mut self, pkt: Packet, api: &mut ShimApi);
    /// An inbound ESP or HIP-control packet from the wire.
    fn inbound(&mut self, pkt: Packet, api: &mut ShimApi);
    /// A shim timer fired.
    fn on_timer(&mut self, _token: u64, _api: &mut ShimApi) {}
    /// The host crashed: cancel engine timers, drop associations and
    /// in-flight exchanges; keep identity and peer configuration.
    /// `start` runs again on restart.
    fn on_crash(&mut self, _api: &mut ShimApi) {}
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A network interface: the link it attaches to and its addresses.
#[derive(Clone, Debug)]
pub struct Iface {
    /// The link this interface attaches to.
    pub link: LinkId,
    /// Addresses configured on it.
    pub addrs: Vec<IpAddr>,
}

/// Everything in the host except the pluggable apps and shim (so those
/// can be dispatched with `&mut` while the rest of the host stays
/// reachable through this struct).
pub struct HostCore {
    /// Human-readable name (diagnostics only).
    pub name: String,
    ifaces: Vec<Iface>,
    routes: RouteTable,
    /// The TCP layer.
    pub tcp: TcpLayer,
    /// The UDP layer.
    pub udp: UdpLayer,
    /// The CPU service model; applications and the shim charge work here.
    pub cpu: CpuModel,
    /// Optional Teredo tunneling client.
    pub teredo: Option<TeredoClient>,
    /// Identity addresses (HIT/LSI) registered by the shim.
    virtual_addrs: Vec<IpAddr>,
    icmp_owner: FxHashMap<u16, usize>,
    app_events: VecDeque<(usize, AppEvent)>,
    upper_out: VecDeque<Packet>,
    /// The engine timer of each TCP socket slot, re-armed in place on
    /// every ACK instead of queuing a new timer per arm.
    tcp_timer_tokens: Vec<Option<TimerToken>>,
}

impl HostCore {
    fn new(name: &str) -> Self {
        HostCore {
            name: name.to_owned(),
            ifaces: Vec::new(),
            routes: RouteTable::default(),
            tcp: TcpLayer::new(),
            udp: UdpLayer::default(),
            cpu: CpuModel::default(),
            teredo: None,
            virtual_addrs: Vec::new(),
            icmp_owner: FxHashMap::default(),
            app_events: VecDeque::new(),
            upper_out: VecDeque::new(),
            tcp_timer_tokens: Vec::new(),
        }
    }

    /// Attaches an interface; returns its index.
    pub fn add_iface(&mut self, link: LinkId, addrs: Vec<IpAddr>) -> usize {
        self.ifaces.push(Iface { link, addrs });
        self.ifaces.len() - 1
    }

    /// Adds a static route.
    ///
    /// # Panics
    /// If `prefix_len` exceeds the width of `prefix`'s family.
    pub fn add_route(&mut self, prefix: IpAddr, prefix_len: u8, iface: usize) {
        self.routes.add(prefix, prefix_len, iface);
    }

    /// Replaces the addresses of an existing interface (VM migration /
    /// readdressing). The layer-3.5 shim is told separately via its own
    /// relocation API.
    pub fn replace_iface_addrs(&mut self, iface: usize, addrs: Vec<IpAddr>) {
        self.ifaces[iface].addrs = addrs;
    }

    /// Rebinds an existing interface to a different link (VM migration
    /// to another physical host/switch).
    pub fn rebind_iface(&mut self, iface: usize, link: LinkId) {
        self.ifaces[iface].link = link;
    }

    /// All addresses this host answers to (locators + identities).
    pub fn all_addrs(&self) -> Vec<IpAddr> {
        let mut v: Vec<IpAddr> = self.ifaces.iter().flat_map(|i| i.addrs.clone()).collect();
        v.extend(self.virtual_addrs.iter().copied());
        if let Some(t) = &self.teredo {
            if let Some(a) = t.address() {
                v.push(IpAddr::V6(a));
            }
        }
        v
    }

    /// Registers an identity address owned by this host (shim use).
    pub fn register_virtual_addr(&mut self, addr: IpAddr) {
        if !self.virtual_addrs.contains(&addr) {
            self.virtual_addrs.push(addr);
        }
    }

    /// A locator (non-identity address) usable to reach `peer_locator`.
    pub fn locator_for(&self, peer_locator: &IpAddr) -> Option<IpAddr> {
        // Teredo destination → our Teredo address.
        if crate::addr::is_teredo(peer_locator) {
            if let Some(t) = &self.teredo {
                return t.address().map(IpAddr::V6);
            }
        }
        self.ifaces
            .iter()
            .flat_map(|i| i.addrs.iter())
            .find(|a| a.is_ipv4() == peer_locator.is_ipv4() && !is_identity(a))
            .copied()
            .or_else(|| {
                // v6 destination but only v4 ifaces: Teredo if available.
                if peer_locator.is_ipv6() {
                    self.teredo
                        .as_ref()
                        .and_then(|t| t.address())
                        .map(IpAddr::V6)
                } else {
                    None
                }
            })
    }

    fn is_local_dst(&self, dst: &IpAddr) -> bool {
        self.ifaces.iter().any(|i| i.addrs.contains(dst))
            || self.virtual_addrs.contains(dst)
            || self
                .teredo
                .as_ref()
                .and_then(TeredoClient::address)
                .is_some_and(|a| IpAddr::V6(a) == *dst)
    }

    fn has_native_v6(&self) -> bool {
        self.ifaces
            .iter()
            .flat_map(|i| i.addrs.iter())
            .any(|a| a.is_ipv6() && !is_identity(a))
    }

    /// The interface of the longest static route to `dst`, else the
    /// first interface.
    pub(crate) fn route_iface(&self, dst: &IpAddr) -> Option<usize> {
        self.routes.lookup(dst).or(if self.ifaces.is_empty() {
            None
        } else {
            Some(0)
        })
    }

    /// Sends a locator-addressed packet toward the network after `delay`
    /// (the delay models CPU processing already charged by the caller).
    pub fn send_wire(&mut self, ctx: &mut Ctx, delay: SimDuration, mut pkt: Packet) {
        // IPv6 destination with no native IPv6: tunnel through Teredo.
        if pkt.dst.is_ipv6() && !self.has_native_v6() {
            let Some(t) = &mut self.teredo else {
                ctx.drop_packet(&pkt, DropReason::NoV6Route);
                return;
            };
            match t.encapsulate(pkt) {
                Some(outer) => pkt = outer,
                None => return, // queued until qualification completes
            }
        }
        let Some(iface_idx) = self.route_iface(&pkt.dst) else {
            ctx.drop_packet(&pkt, DropReason::NoRoute);
            return;
        };
        let link = self.ifaces[iface_idx].link;
        ctx.transmit_after(delay, link, pkt);
    }

    /// Layer-4 input: a packet addressed to this host (identities or
    /// locators both land here once the shim has done its work).
    pub fn l4_in(&mut self, pkt: Packet, ctx: &mut Ctx) {
        match pkt.payload {
            Payload::Tcp(seg) => {
                self.tcp.segment_arrives(pkt.src, pkt.dst, seg, ctx.now);
            }
            Payload::Udp(ref udp) if !self.udp.bindings.contains_key(&udp.dst_port) => {
                ctx.drop_packet(&pkt, DropReason::UdpNoListener);
            }
            Payload::Udp(udp) => {
                let app = self.udp.bindings[&udp.dst_port];
                self.app_events.push_back((
                    app,
                    AppEvent::UdpDatagram {
                        dst_port: udp.dst_port,
                        src: pkt.src,
                        src_port: udp.src_port,
                        data: udp.data,
                    },
                ));
            }
            Payload::Icmp(icmp) => match icmp.kind {
                IcmpKind::EchoRequest => {
                    let reply = Packet::new(
                        pkt.dst,
                        pkt.src,
                        Payload::Icmp(IcmpMessage {
                            kind: IcmpKind::EchoReply,
                            ..icmp
                        }),
                    );
                    self.upper_out.push_back(reply);
                }
                IcmpKind::EchoReply => {
                    if let Some(&app) = self.icmp_owner.get(&icmp.ident) {
                        self.app_events.push_back((
                            app,
                            AppEvent::EchoReply {
                                ident: icmp.ident,
                                seq: icmp.seq,
                                from: pkt.src,
                            },
                        ));
                    }
                }
                IcmpKind::Unreachable => {}
            },
            // ESP/HIP reaching layer 4 means no shim claimed them: drop.
            Payload::Esp(_) | Payload::HipControl(_) => {}
        }
    }

    /// Moves TCP/UDP layer outputs into the host queues and arms timers.
    fn collect_layer_outputs(&mut self, ctx: &mut Ctx) {
        for pkt in self.tcp.out.drain(..) {
            self.upper_out.push_back(pkt);
        }
        for (app, ev) in self.tcp.events.drain(..) {
            self.app_events.push_back((app, AppEvent::Tcp(ev)));
        }
        // Disarms and releases first: a disarm-then-rearm sequence
        // emitted within one dispatch must leave the rearm live (see
        // `TcpLayer::cancel_reqs`).
        for sock in self.tcp.cancel_reqs.drain(..) {
            if let Some(&Some(t)) = self.tcp_timer_tokens.get(sock as usize) {
                ctx.disarm_timer(t);
            }
        }
        for sock in self.tcp.released.drain(..) {
            if let Some(t) = self
                .tcp_timer_tokens
                .get_mut(sock as usize)
                .and_then(Option::take)
            {
                ctx.cancel_timer(t);
            }
        }
        for (delay, sock) in self.tcp.timer_reqs.drain(..) {
            let timer = TimerHandle {
                owner: TimerOwner::Tcp,
                token: sock,
            };
            let i = sock as usize;
            if i >= self.tcp_timer_tokens.len() {
                self.tcp_timer_tokens.resize(i + 1, None);
            }
            let slot = &mut self.tcp_timer_tokens[i];
            *slot = Some(match *slot {
                Some(t) => ctx.rearm_timer(t, delay, timer),
                None => ctx.set_timer(delay, timer),
            });
        }
        if !self.tcp.metric_evs.is_empty() {
            let m = ctx.metrics();
            for ev in self.tcp.metric_evs.drain(..) {
                match ev {
                    crate::tcp::TcpMetric::ConnectNs(ns) => m.observe_name("tcp.connect", ns),
                    crate::tcp::TcpMetric::AcceptNs(ns) => m.observe_name("tcp.accept", ns),
                    crate::tcp::TcpMetric::Rtx => m.add_name("tcp.rtx", 1),
                }
            }
        }
        for pkt in self.udp.out.drain(..) {
            self.upper_out.push_back(pkt);
        }
    }

    fn has_pending(&self) -> bool {
        !self.app_events.is_empty()
            || !self.upper_out.is_empty()
            || !self.tcp.out.is_empty()
            || !self.tcp.events.is_empty()
            || !self.tcp.timer_reqs.is_empty()
            || !self.tcp.cancel_reqs.is_empty()
            || !self.tcp.released.is_empty()
            || !self.udp.out.is_empty()
    }
}

/// The UDP layer: port bindings and an output queue.
#[derive(Default)]
pub struct UdpLayer {
    bindings: FxHashMap<u16, usize>,
    /// Outgoing datagrams for the host to flush.
    pub out: Vec<Packet>,
}

impl UdpLayer {
    /// Binds `port` to `app`. Returns false if taken.
    pub fn bind(&mut self, port: u16, app: usize) -> bool {
        if self.bindings.contains_key(&port) {
            return false;
        }
        self.bindings.insert(port, app);
        true
    }

    /// Queues a datagram.
    pub fn send(&mut self, src: IpAddr, src_port: u16, dst: IpAddr, dst_port: u16, data: UdpData) {
        self.out.push(Packet::new(
            src,
            dst,
            Payload::Udp(UdpDatagram {
                src_port,
                dst_port,
                data,
            }),
        ));
    }
}

/// A complete host node.
pub struct Host {
    /// The stack (everything except apps and shim).
    pub core: HostCore,
    apps: Vec<Box<dyn App>>,
    app_in_flight: Vec<bool>,
    shim: Option<Box<dyn L35Shim>>,
}

impl Host {
    /// Creates a host with no interfaces, apps or shim.
    pub fn new(name: &str) -> Self {
        Host {
            core: HostCore::new(name),
            apps: Vec::new(),
            app_in_flight: Vec::new(),
            shim: None,
        }
    }

    /// Installs an application; returns its index (used in events).
    pub fn add_app(&mut self, app: Box<dyn App>) -> usize {
        self.apps.push(app);
        self.app_in_flight.push(false);
        self.apps.len() - 1
    }

    /// Installs the layer-3.5 shim.
    pub fn set_shim(&mut self, shim: Box<dyn L35Shim>) {
        self.shim = Some(shim);
    }

    /// Immutable access to an app, downcast to `T`.
    pub fn app<T: 'static>(&self, idx: usize) -> Option<&T> {
        self.apps.get(idx)?.as_any().downcast_ref()
    }

    /// Mutable access to an app, downcast to `T`.
    pub fn app_mut<T: 'static>(&mut self, idx: usize) -> Option<&mut T> {
        self.apps.get_mut(idx)?.as_any_mut().downcast_mut()
    }

    /// Immutable access to the shim, downcast to `T`.
    pub fn shim<T: 'static>(&self) -> Option<&T> {
        self.shim.as_ref()?.as_any().downcast_ref()
    }

    /// Mutable access to the shim, downcast to `T`.
    pub fn shim_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.shim.as_mut()?.as_any_mut().downcast_mut()
    }

    /// Runs `f` with a [`HostApi`] for app `idx` — lets experiment
    /// harnesses drive applications from outside the event loop.
    pub fn with_api(
        &mut self,
        idx: usize,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut dyn App, &mut HostApi),
    ) {
        self.dispatch_with(idx, ctx, f);
        self.pump(ctx);
    }

    /// Runs `f` against the installed shim with a [`ShimApi`] — the
    /// escape hatch the cloud layer uses to trigger shim-level control
    /// operations (e.g. announcing a new locator after VM migration).
    pub fn shim_command(&mut self, ctx: &mut Ctx, f: impl FnOnce(&mut dyn L35Shim, &mut ShimApi)) {
        self.shim_call(ctx, f);
        self.pump(ctx);
    }

    fn dispatch_with(
        &mut self,
        idx: usize,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut dyn App, &mut HostApi),
    ) {
        // Apps are stored inline; to get disjoint borrows we split the
        // vector around the target element.
        if idx >= self.apps.len() || self.app_in_flight[idx] {
            return;
        }
        self.app_in_flight[idx] = true;
        // Temporarily move the Box out (cheap pointer move).
        let mut app = std::mem::replace(&mut self.apps[idx], Box::new(NullApp));
        {
            let mut api = HostApi {
                core: &mut self.core,
                ctx,
                app_idx: idx,
            };
            f(app.as_mut(), &mut api);
        }
        self.apps[idx] = app;
        self.app_in_flight[idx] = false;
    }

    fn shim_call(&mut self, ctx: &mut Ctx, f: impl FnOnce(&mut dyn L35Shim, &mut ShimApi)) {
        if let Some(mut shim) = self.shim.take() {
            {
                let mut api = ShimApi {
                    core: &mut self.core,
                    ctx,
                };
                f(shim.as_mut(), &mut api);
            }
            self.shim = Some(shim);
        }
    }

    /// Drains all host-internal queues until quiescent.
    fn pump(&mut self, ctx: &mut Ctx) {
        // Bound the loop defensively; normal traffic needs a few dozen
        // iterations at most.
        for _ in 0..100_000 {
            self.core.collect_layer_outputs(ctx);
            if let Some((app, ev)) = self.core.app_events.pop_front() {
                self.dispatch_with(app, ctx, |a, api| a.on_event(ev, api));
                continue;
            }
            if let Some(pkt) = self.core.upper_out.pop_front() {
                self.route_upper(pkt, ctx);
                continue;
            }
            if !self.core.has_pending() {
                return;
            }
        }
        panic!("host {} pump did not quiesce", self.core.name);
    }

    /// Sends an upper-layer packet: identity destinations go through the
    /// shim, locator destinations straight to the wire.
    fn route_upper(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let claimed = self.shim.as_ref().is_some_and(|s| s.handles_dst(&pkt.dst));
        if claimed {
            self.shim_call(ctx, |s, api| s.outbound(pkt, api));
        } else if is_identity(&pkt.dst) {
            ctx.drop_packet(&pkt, DropReason::NoShim);
        } else {
            self.core.send_wire(ctx, SimDuration::ZERO, pkt);
        }
    }

    /// Processes a packet from the wire.
    fn wire_in(&mut self, pkt: Packet, ctx: &mut Ctx) {
        // Teredo decapsulation / control traffic.
        let pkt = if let Some(t) = &mut self.core.teredo {
            match t.wire_in(pkt, ctx) {
                Some(p) => p,
                None => {
                    // Consumed by the Teredo client (qualification); any
                    // queued v6 packets may now be sendable.
                    self.flush_teredo(ctx);
                    self.pump(ctx);
                    return;
                }
            }
        } else {
            pkt
        };
        if !self.core.is_local_dst(&pkt.dst) {
            ctx.drop_packet(&pkt, DropReason::NotLocal);
            return;
        }
        match pkt.protocol() {
            proto::ESP | proto::HIP => {
                if self.shim.is_some() {
                    self.shim_call(ctx, |s, api| s.inbound(pkt, api));
                } else {
                    ctx.drop_packet(&pkt, DropReason::NoShim);
                }
            }
            _ => self.core.l4_in(pkt, ctx),
        }
        self.pump(ctx);
    }
}

/// Placeholder swapped in while an app is being dispatched.
struct NullApp;
impl App for NullApp {
    fn on_event(&mut self, _: AppEvent, _: &mut HostApi) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Host {
    /// Flushes packets the Teredo client has queued (control messages,
    /// and tunneled packets once qualification completes).
    fn flush_teredo(&mut self, ctx: &mut Ctx) {
        let ready = self
            .core
            .teredo
            .as_mut()
            .map(TeredoClient::drain_ready)
            .unwrap_or_default();
        for p in ready {
            self.core.send_wire(ctx, SimDuration::ZERO, p);
        }
    }
}

impl Node for Host {
    fn start(&mut self, ctx: &mut Ctx) {
        if let Some(t) = &mut self.core.teredo {
            t.start(ctx);
        }
        self.flush_teredo(ctx);
        self.shim_call(ctx, |s, api| s.start(api));
        for i in 0..self.apps.len() {
            self.dispatch_with(i, ctx, |a, api| a.start(api));
        }
        self.pump(ctx);
    }

    fn handle_packet(&mut self, iface: usize, pkt: Packet, ctx: &mut Ctx) {
        if iface == IFACE_INTERNAL {
            self.core.l4_in(pkt, ctx);
            self.pump(ctx);
        } else {
            self.wire_in(pkt, ctx);
        }
    }

    fn on_crash(&mut self, ctx: &mut Ctx) {
        // Shim first: it cancels its engine timers and drops protocol
        // state while the context is still usable.
        self.shim_call(ctx, |s, api| s.on_crash(api));
        for app in &mut self.apps {
            app.reset();
        }
        let core = &mut self.core;
        for t in core.tcp_timer_tokens.drain(..).flatten() {
            ctx.cancel_timer(t);
        }
        // A crash loses all transport state: fresh TCP layer
        // (listeners gone so restart's re-listen succeeds),
        // cleared UDP bindings and in-flight queues. Interface and route
        // configuration survives — the VM restarts on the same slot.
        core.tcp = TcpLayer::new();
        core.udp.bindings.clear();
        core.udp.out.clear();
        core.app_events.clear();
        core.upper_out.clear();
        core.icmp_owner.clear();
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        // Boot again: shim and apps re-run `start` (re-listen,
        // re-establish pools). Teredo qualification state survived the
        // crash intentionally — it models the hypervisor, not the guest.
        self.shim_call(ctx, |s, api| s.start(api));
        for i in 0..self.apps.len() {
            self.dispatch_with(i, ctx, |a, api| a.start(api));
        }
        self.pump(ctx);
    }

    fn handle_timer(&mut self, timer: TimerHandle, ctx: &mut Ctx) {
        match timer.owner {
            TimerOwner::Tcp => {
                // Any TCP timer that reaches us is the socket's live one,
                // and the engine retired its token before dispatch: drop
                // it before `on_timer` so a rearm sets a fresh one.
                if let Some(t) = self.core.tcp_timer_tokens.get_mut(timer.token as usize) {
                    *t = None;
                }
                let now = ctx.now;
                self.core.tcp.on_timer(timer.token, now);
            }
            TimerOwner::Shim => {
                self.shim_call(ctx, |s, api| s.on_timer(timer.token, api));
            }
            TimerOwner::App(idx) => {
                self.dispatch_with(idx, ctx, |a, api| {
                    a.on_event(AppEvent::Timer { token: timer.token }, api)
                });
            }
            TimerOwner::Node => {
                if let Some(t) = &mut self.core.teredo {
                    t.on_timer(timer.token, ctx);
                }
                self.flush_teredo(ctx);
            }
        }
        self.pump(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The API handed to applications.
pub struct HostApi<'a, 'b> {
    /// The host stack.
    pub core: &'a mut HostCore,
    /// The engine context (time, RNG, timers).
    pub ctx: &'a mut Ctx<'b>,
    app_idx: usize,
}

impl HostApi<'_, '_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// The host's name.
    pub fn host_name(&self) -> &str {
        &self.core.name
    }

    /// Arms an application timer and returns its token (apps have no
    /// cancel, so they drop it).
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerToken {
        let owner = TimerOwner::App(self.app_idx);
        self.ctx.set_timer(delay, TimerHandle { owner, token })
    }

    /// Charges CPU work; returns the delay until it completes (queue +
    /// service). Pair with [`Self::set_timer`] to resume afterwards.
    pub fn cpu_charge(&mut self, work: SimDuration) -> SimDuration {
        self.core.cpu.charge(self.ctx.now, work)
    }

    /// Starts listening for TCP connections on `port`.
    pub fn tcp_listen(&mut self, port: u16) -> bool {
        self.core.tcp.listen(port, self.app_idx)
    }

    /// Opens a TCP connection; source address chosen to match `remote`'s
    /// class (HIT→HIT, LSI→LSI, locator→locator).
    pub fn tcp_connect(&mut self, remote: IpAddr, port: u16) -> Option<SockId> {
        let candidates = self.core.all_addrs();
        let src = select_source(&candidates, &remote)?;
        let iss = self.ctx.random_u64() as u32;
        Some(
            self.core
                .tcp
                .connect(src, (remote, port), self.app_idx, iss, self.ctx.now),
        )
    }

    /// Queues bytes on a socket. TCP keeps `data` itself until the
    /// peer acknowledges it, so passing an owned buffer copies nothing.
    pub fn tcp_send(&mut self, sock: SockId, data: impl Into<Bytes>) {
        self.core.tcp.send(sock, data, self.ctx.now);
    }

    /// Drains received bytes.
    pub fn tcp_recv(&mut self, sock: SockId) -> Vec<u8> {
        self.core.tcp.recv(sock)
    }

    /// Bytes queued for transmission on a socket.
    pub fn tcp_buffered(&self, sock: SockId) -> usize {
        self.core.tcp.buffered(sock)
    }

    /// Graceful close.
    pub fn tcp_close(&mut self, sock: SockId) {
        self.core.tcp.close(sock, self.ctx.now);
    }

    /// Abortive close.
    pub fn tcp_abort(&mut self, sock: SockId) {
        self.core.tcp.abort(sock);
    }

    /// Binds a UDP port.
    pub fn udp_bind(&mut self, port: u16) -> bool {
        self.core.udp.bind(port, self.app_idx)
    }

    /// Sends a UDP datagram (source address auto-selected).
    pub fn udp_send(&mut self, src_port: u16, dst: IpAddr, dst_port: u16, data: UdpData) {
        let candidates = self.core.all_addrs();
        let Some(src) = select_source(&candidates, &dst) else {
            return;
        };
        self.core.udp.send(src, src_port, dst, dst_port, data);
    }

    /// Sends an ICMP echo request; the reply comes back as
    /// [`AppEvent::EchoReply`] for `ident`.
    pub fn ping(&mut self, dst: IpAddr, ident: u16, seq: u16, payload_len: usize) {
        self.core.icmp_owner.insert(ident, self.app_idx);
        let candidates = self.core.all_addrs();
        let Some(src) = select_source(&candidates, &dst) else {
            return;
        };
        let pkt = Packet::new(
            src,
            dst,
            Payload::Icmp(IcmpMessage {
                kind: IcmpKind::EchoRequest,
                ident,
                seq,
                payload_len,
            }),
        );
        self.core.upper_out.push_back(pkt);
    }

    /// Uniform random u64 from the simulation RNG.
    pub fn random_u64(&mut self) -> u64 {
        self.ctx.random_u64()
    }

    /// Uniform random f64 in [0,1).
    pub fn random_f64(&mut self) -> f64 {
        self.ctx.random_f64()
    }

    /// Uniform random value in [0, n).
    pub fn random_below(&mut self, n: u64) -> u64 {
        self.ctx.random_below(n)
    }

    /// The metrics registry (purely observational; see [`Ctx::metrics`]).
    pub fn metrics(&mut self) -> &mut obs::MetricsRegistry {
        self.ctx.metrics()
    }
}

/// The API handed to the layer-3.5 shim.
pub struct ShimApi<'a, 'b> {
    /// The host stack.
    pub core: &'a mut HostCore,
    /// The engine context.
    pub ctx: &'a mut Ctx<'b>,
}

impl ShimApi<'_, '_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// Charges CPU work, returning the completion delay.
    pub fn charge_cpu(&mut self, work: SimDuration) -> SimDuration {
        self.core.cpu.charge(self.ctx.now, work)
    }

    /// Sends a locator-addressed packet to the wire after `delay`.
    pub fn send_wire(&mut self, delay: SimDuration, pkt: Packet) {
        self.core.send_wire(self.ctx, delay, pkt);
    }

    /// Delivers a decapsulated inner packet up the local stack after
    /// `delay`.
    pub fn deliver_upper(&mut self, delay: SimDuration, pkt: Packet) {
        self.ctx.deliver_local(delay, pkt);
    }

    /// Arms a shim timer; keep the returned token to cancel it.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerToken {
        self.ctx.set_timer(
            delay,
            TimerHandle {
                owner: TimerOwner::Shim,
                token,
            },
        )
    }

    /// Cancels a timer armed with [`Self::set_timer`].
    /// Returns false if it already fired or was already cancelled.
    pub fn cancel_timer(&mut self, token: TimerToken) -> bool {
        self.ctx.cancel_timer(token)
    }

    /// Registers an identity address (HIT/LSI) as belonging to this host.
    pub fn register_virtual_addr(&mut self, addr: IpAddr) {
        self.core.register_virtual_addr(addr);
    }

    /// Tears down every TCP connection to `dst`: the shim has determined
    /// the peer is unreachable (e.g. BEX retransmissions exhausted), so
    /// connecting sockets fail with `ConnectFailed` and established ones
    /// see `Reset` instead of hanging forever.
    pub fn notify_unreachable(&mut self, dst: IpAddr) {
        self.core.tcp.abort_to(dst);
    }

    /// A local locator suitable for reaching `peer_locator`.
    pub fn local_locator(&self, peer_locator: &IpAddr) -> Option<IpAddr> {
        self.core.locator_for(peer_locator)
    }

    /// Uniform random u64.
    pub fn random_u64(&mut self) -> u64 {
        self.ctx.random_u64()
    }

    /// Access to the seeded RNG (key generation, puzzles).
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.ctx.rng()
    }

    /// Records a protocol state-change trace entry.
    pub fn trace_state(&mut self, detail: impl FnOnce() -> String) {
        self.ctx.trace_state(detail);
    }

    /// Records that the shim dropped `pkt` for `reason` (see
    /// [`Ctx::drop_packet`]).
    pub fn drop_packet(&mut self, pkt: &Packet, reason: DropReason) {
        self.ctx.drop_packet(pkt, reason);
    }

    /// The metrics registry (purely observational; see [`Ctx::metrics`]).
    pub fn metrics(&mut self) -> &mut obs::MetricsRegistry {
        self.ctx.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::*;
    use crate::link::{Endpoint, LinkParams};
    use crate::packet::v4;

    /// An app that listens on a port and echoes everything back.
    struct EchoServer {
        port: u16,
        served: usize,
    }
    impl App for EchoServer {
        fn start(&mut self, api: &mut HostApi) {
            assert!(api.tcp_listen(self.port));
        }
        fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
            if let AppEvent::Tcp(TcpEvent::Data(sock)) = ev {
                let data = api.tcp_recv(sock);
                api.tcp_send(sock, data);
                self.served += 1;
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A client that connects, sends one message, and records the echo.
    struct EchoClient {
        server: IpAddr,
        port: u16,
        sock: Option<SockId>,
        reply: Vec<u8>,
        connected: bool,
    }
    impl App for EchoClient {
        fn start(&mut self, api: &mut HostApi) {
            self.sock = api.tcp_connect(self.server, self.port);
        }
        fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
            match ev {
                AppEvent::Tcp(TcpEvent::Connected(s)) => {
                    self.connected = true;
                    api.tcp_send(s, b"hello through the stack");
                }
                AppEvent::Tcp(TcpEvent::Data(s)) => {
                    self.reply.extend(api.tcp_recv(s));
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

    fn build_pair() -> (Sim, crate::link::NodeId, crate::link::NodeId, usize, usize) {
        let mut sim = Sim::new(42);
        let mut ha = Host::new("a");
        let mut hb = Host::new("b");
        let client = ha.add_app(Box::new(EchoClient {
            server: v4(10, 0, 0, 2),
            port: 7,
            sock: None,
            reply: vec![],
            connected: false,
        }));
        let server = hb.add_app(Box::new(EchoServer { port: 7, served: 0 }));
        let a = sim.world.add_node(Box::new(ha));
        let b = sim.world.add_node(Box::new(hb));
        let link = sim.world.connect(
            Endpoint { node: a, iface: 0 },
            Endpoint { node: b, iface: 0 },
            LinkParams::datacenter(),
        );
        sim.world
            .node_mut::<Host>(a)
            .unwrap()
            .core
            .add_iface(link, vec![v4(10, 0, 0, 1)]);
        sim.world
            .node_mut::<Host>(b)
            .unwrap()
            .core
            .add_iface(link, vec![v4(10, 0, 0, 2)]);
        (sim, a, b, client, server)
    }

    #[test]
    fn tcp_echo_end_to_end() {
        let (mut sim, a, b, client, server) = build_pair();
        sim.run_until(SimTime(2_000_000_000));
        let ha = sim.world.node::<Host>(a).unwrap();
        let app = ha.app::<EchoClient>(client).unwrap();
        assert!(app.connected, "handshake completed");
        assert_eq!(app.reply, b"hello through the stack");
        let hb = sim.world.node::<Host>(b).unwrap();
        assert_eq!(hb.app::<EchoServer>(server).unwrap().served, 1);
    }

    #[test]
    fn host_crash_restart_relistens_and_serves() {
        let (mut sim, a, b, client, server) = build_pair();
        sim.run_until(SimTime(1_000_000_000)); // first echo completes
                                               // Crash the server host, then bring it back up.
        sim.schedule_fault(SimDuration::ZERO, FaultAction::NodeCrash(b));
        sim.schedule_fault(SimDuration::from_millis(100), FaultAction::NodeRestart(b));
        sim.run_until(SimTime(2_000_000_000));
        // EchoServer::start asserts tcp_listen succeeds, so reaching here
        // proves the crash cleared the old listener. Now reconnect.
        sim.with_node_ctx(a, |node, ctx| {
            let host = node.as_any_mut().downcast_mut::<Host>().unwrap();
            host.with_api(client, ctx, |app, api| {
                let app = app.as_any_mut().downcast_mut::<EchoClient>().unwrap();
                app.connected = false;
                app.reply.clear();
                app.sock = api.tcp_connect(app.server, app.port);
            });
        });
        sim.run_until(SimTime(4_000_000_000));
        let ha = sim.world.node::<Host>(a).unwrap();
        let app = ha.app::<EchoClient>(client).unwrap();
        assert!(app.connected, "reconnect after restart");
        assert_eq!(app.reply, b"hello through the stack");
        let hb = sim.world.node::<Host>(b).unwrap();
        assert_eq!(hb.app::<EchoServer>(server).unwrap().served, 2);
    }

    #[test]
    fn abort_to_fails_connecting_sockets() {
        let (mut sim, a, b, client, _server) = build_pair();
        // Take the server down permanently before the SYN lands, then
        // have the client's stack declare the peer unreachable.
        sim.schedule_fault(SimDuration::ZERO, FaultAction::NodeCrash(b));
        sim.run_until(SimTime(50_000_000));
        let mut events = Vec::new();
        sim.with_node_ctx(a, |node, ctx| {
            let host = node.as_any_mut().downcast_mut::<Host>().unwrap();
            host.core.tcp.abort_to(v4(10, 0, 0, 2));
            events = host.core.tcp.events.clone();
            host.pump(ctx);
        });
        assert_eq!(events.len(), 1);
        assert!(
            matches!(events[0], (idx, TcpEvent::ConnectFailed(_)) if idx == client),
            "SynSent socket reports ConnectFailed: {events:?}"
        );
    }

    #[test]
    fn icmp_echo_auto_reply() {
        struct Pinger {
            target: IpAddr,
            rtt: Option<SimDuration>,
            sent_at: SimTime,
        }
        impl App for Pinger {
            fn start(&mut self, api: &mut HostApi) {
                self.sent_at = api.now();
                api.ping(self.target, 9, 1, 56);
            }
            fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
                if let AppEvent::EchoReply { ident: 9, .. } = ev {
                    self.rtt = Some(api.now().since(self.sent_at));
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Sim::new(1);
        let mut ha = Host::new("a");
        let pinger = ha.add_app(Box::new(Pinger {
            target: v4(10, 0, 0, 2),
            rtt: None,
            sent_at: SimTime::ZERO,
        }));
        let hb = Host::new("b");
        let a = sim.world.add_node(Box::new(ha));
        let b = sim.world.add_node(Box::new(hb));
        let link = sim.world.connect(
            Endpoint { node: a, iface: 0 },
            Endpoint { node: b, iface: 0 },
            LinkParams::datacenter(),
        );
        sim.world
            .node_mut::<Host>(a)
            .unwrap()
            .core
            .add_iface(link, vec![v4(10, 0, 0, 1)]);
        sim.world
            .node_mut::<Host>(b)
            .unwrap()
            .core
            .add_iface(link, vec![v4(10, 0, 0, 2)]);
        sim.run_until(SimTime(1_000_000_000));
        let rtt = sim
            .world
            .node::<Host>(a)
            .unwrap()
            .app::<Pinger>(pinger)
            .unwrap()
            .rtt;
        let rtt = rtt.expect("got echo reply");
        // ≥ 2× link latency (500 µs), plus serialization.
        assert!(rtt >= SimDuration::from_micros(500), "rtt={rtt:?}");
        assert!(rtt < SimDuration::from_millis(2));
    }

    #[test]
    fn udp_delivery_to_bound_port() {
        struct Sender {
            dst: IpAddr,
        }
        impl App for Sender {
            fn start(&mut self, api: &mut HostApi) {
                api.udp_send(
                    5000,
                    self.dst,
                    53,
                    UdpData::Raw(Bytes::from_static(b"query")),
                );
            }
            fn on_event(&mut self, _: AppEvent, _: &mut HostApi) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Receiver {
            got: Vec<u8>,
        }
        impl App for Receiver {
            fn start(&mut self, api: &mut HostApi) {
                assert!(api.udp_bind(53));
            }
            fn on_event(&mut self, ev: AppEvent, _: &mut HostApi) {
                if let AppEvent::UdpDatagram {
                    data: UdpData::Raw(b),
                    ..
                } = ev
                {
                    self.got.extend_from_slice(&b);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Sim::new(1);
        let mut ha = Host::new("a");
        ha.add_app(Box::new(Sender {
            dst: v4(10, 0, 0, 2),
        }));
        let mut hb = Host::new("b");
        let recv = hb.add_app(Box::new(Receiver { got: vec![] }));
        let a = sim.world.add_node(Box::new(ha));
        let b = sim.world.add_node(Box::new(hb));
        let link = sim.world.connect(
            Endpoint { node: a, iface: 0 },
            Endpoint { node: b, iface: 0 },
            LinkParams::datacenter(),
        );
        sim.world
            .node_mut::<Host>(a)
            .unwrap()
            .core
            .add_iface(link, vec![v4(10, 0, 0, 1)]);
        sim.world
            .node_mut::<Host>(b)
            .unwrap()
            .core
            .add_iface(link, vec![v4(10, 0, 0, 2)]);
        sim.run_until(SimTime(1_000_000_000));
        assert_eq!(
            sim.world
                .node::<Host>(b)
                .unwrap()
                .app::<Receiver>(recv)
                .unwrap()
                .got,
            b"query"
        );
    }

    #[test]
    fn packets_to_other_hosts_dropped() {
        let mut sim = Sim::new(1);
        let ha = Host::new("a");
        let hb = Host::new("b");
        let a = sim.world.add_node(Box::new(ha));
        let b = sim.world.add_node(Box::new(hb));
        let link = sim.world.connect(
            Endpoint { node: a, iface: 0 },
            Endpoint { node: b, iface: 0 },
            LinkParams::datacenter(),
        );
        sim.world
            .node_mut::<Host>(a)
            .unwrap()
            .core
            .add_iface(link, vec![v4(10, 0, 0, 1)]);
        sim.world
            .node_mut::<Host>(b)
            .unwrap()
            .core
            .add_iface(link, vec![v4(10, 0, 0, 2)]);
        sim.trace = crate::trace::Trace::enabled(100);
        // Send a packet to an address b does not own.
        sim.with_node_ctx(a, |node, ctx| {
            let host = node.as_any_mut().downcast_mut::<Host>().unwrap();
            host.core.send_wire(
                ctx,
                SimDuration::ZERO,
                Packet::new(
                    v4(10, 0, 0, 1),
                    v4(10, 0, 0, 99),
                    Payload::Icmp(IcmpMessage {
                        kind: IcmpKind::EchoRequest,
                        ident: 1,
                        seq: 1,
                        payload_len: 8,
                    }),
                ),
            );
        });
        assert!(sim.run_to_quiescence(100).is_quiescent());
        assert!(
            sim.trace.of_kind(crate::trace::TraceKind::Drop).count() > 0,
            "non-local packet must be dropped"
        );
    }

    #[test]
    fn udp_to_an_unbound_port_is_counted_and_traced() {
        /// Binds `port`, then sends one datagram to `dst:dst_port`.
        struct UdpOnce {
            port: u16,
            dst: IpAddr,
            dst_port: u16,
            received: usize,
        }
        impl App for UdpOnce {
            fn start(&mut self, api: &mut HostApi) {
                assert!(api.udp_bind(self.port));
                let data = UdpData::Raw(Bytes::from_static(b"ping"));
                api.udp_send(self.port, self.dst, self.dst_port, data);
            }
            fn on_event(&mut self, ev: AppEvent, _api: &mut HostApi) {
                if let AppEvent::UdpDatagram { .. } = ev {
                    self.received += 1;
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Sim::new(1);
        let mut ha = Host::new("a");
        let mut hb = Host::new("b");
        // a sends to b's port 9; b listens on 7 only and sends to a's
        // bound port 5000, which a receives.
        let sender = ha.add_app(Box::new(UdpOnce {
            port: 5000,
            dst: v4(10, 0, 0, 2),
            dst_port: 9,
            received: 0,
        }));
        hb.add_app(Box::new(UdpOnce {
            port: 7,
            dst: v4(10, 0, 0, 1),
            dst_port: 5000,
            received: 0,
        }));
        let a = sim.world.add_node(Box::new(ha));
        let b = sim.world.add_node(Box::new(hb));
        let link = sim.world.connect(
            Endpoint { node: a, iface: 0 },
            Endpoint { node: b, iface: 0 },
            LinkParams::datacenter(),
        );
        for (node, addr) in [(a, v4(10, 0, 0, 1)), (b, v4(10, 0, 0, 2))] {
            let host = sim.world.node_mut::<Host>(node).unwrap();
            host.core.add_iface(link, vec![addr]);
        }
        sim.trace = crate::trace::Trace::enabled(100);
        assert!(sim.run_to_quiescence(100).is_quiescent());

        let ha = sim.world.node::<Host>(a).unwrap();
        assert_eq!(ha.app::<UdpOnce>(sender).unwrap().received, 1);
        let reason = DropReason::UdpNoListener;
        assert_eq!(sim.metrics.counter_value(reason.name()), Some(1));
        let drops: Vec<_> = sim
            .trace
            .of_kind(crate::trace::TraceKind::Drop)
            .map(|e| (e.node, e.data.clone()))
            .collect();
        assert!(
            matches!(
                drops.as_slice(),
                [(node, crate::trace::TraceData::Drop { pkt, reason: r })]
                    if *node == b && *r == reason && pkt.dst == v4(10, 0, 0, 2)
            ),
            "one drop at b, for the unbound port: {drops:?}"
        );
    }
}

#[cfg(test)]
mod routing_tests {
    use super::*;
    use crate::engine::*;
    use crate::link::{Endpoint, LinkParams};
    use crate::packet::v4;

    /// A dual-homed host must route by prefix, not just iface 0.
    #[test]
    fn multihomed_host_routes_by_prefix() {
        struct Probe {
            target_left: IpAddr,
            target_right: IpAddr,
            replies: Vec<IpAddr>,
        }
        impl App for Probe {
            fn start(&mut self, api: &mut HostApi) {
                api.ping(self.target_left, 1, 1, 8);
                api.ping(self.target_right, 2, 1, 8);
            }
            fn on_event(&mut self, ev: AppEvent, _api: &mut HostApi) {
                if let AppEvent::EchoReply { from, .. } = ev {
                    self.replies.push(from);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut sim = Sim::new(5);
        let mut hub = Host::new("hub");
        let probe = hub.add_app(Box::new(Probe {
            target_left: v4(10, 1, 0, 2),
            target_right: v4(10, 2, 0, 2),
            replies: vec![],
        }));
        let left = Host::new("left");
        let right = Host::new("right");
        let h = sim.world.add_node(Box::new(hub));
        let l = sim.world.add_node(Box::new(left));
        let r = sim.world.add_node(Box::new(right));
        let ll = sim.world.connect(
            Endpoint { node: h, iface: 0 },
            Endpoint { node: l, iface: 0 },
            LinkParams::datacenter(),
        );
        let lr = sim.world.connect(
            Endpoint { node: h, iface: 1 },
            Endpoint { node: r, iface: 0 },
            LinkParams::datacenter(),
        );
        {
            let core = &mut sim.world.node_mut::<Host>(h).expect("hub").core;
            core.add_iface(ll, vec![v4(10, 1, 0, 1)]);
            core.add_iface(lr, vec![v4(10, 2, 0, 1)]);
            core.add_route(v4(10, 1, 0, 0), 16, 0);
            core.add_route(v4(10, 2, 0, 0), 16, 1);
        }
        sim.world
            .node_mut::<Host>(l)
            .expect("l")
            .core
            .add_iface(ll, vec![v4(10, 1, 0, 2)]);
        sim.world
            .node_mut::<Host>(r)
            .expect("r")
            .core
            .add_iface(lr, vec![v4(10, 2, 0, 2)]);
        sim.run_until(SimTime(1_000_000_000));
        let replies = &sim
            .world
            .node::<Host>(h)
            .expect("hub")
            .app::<Probe>(probe)
            .expect("probe")
            .replies;
        assert!(
            replies.contains(&v4(10, 1, 0, 2)),
            "left reachable via iface 0: {replies:?}"
        );
        assert!(
            replies.contains(&v4(10, 2, 0, 2)),
            "right reachable via iface 1: {replies:?}"
        );
    }

    #[test]
    fn udp_bind_conflicts_rejected() {
        let mut layer = UdpLayer::default();
        assert!(layer.bind(53, 0));
        assert!(!layer.bind(53, 1), "second bind on the same port fails");
        assert!(layer.bind(54, 1));
    }
}
