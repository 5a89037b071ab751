//! Re-arming a timer in place must be observationally identical to
//! cancelling it and setting a new one.
//!
//! Two copies of a scripted node run the same random script: arm
//! (earlier or later than the pending firing), disarm and cancel a few
//! timers while sending packets to a peer and to themselves at the same
//! instants, across a crash and restart, under sliced `run_until`
//! calls. The reference copy only uses `set_timer` and `cancel_timer`;
//! the other re-arms (`rearm_timer`) and disarms (`disarm_timer`) the
//! tokens it keeps. Both must dispatch the same events at the same
//! instants in the same order, and `Sim::check_invariants` must hold
//! after every slice.

use netsim::engine::{Ctx, Node, TimerHandle, TimerOwner, TimerToken, IFACE_INTERNAL};
use netsim::packet::{v4, IcmpKind, IcmpMessage, Packet, Payload};
use netsim::{Endpoint, FaultAction, LinkId, LinkParams, Sim, SimDuration};
use proptest::prelude::*;
use std::any::Any;

const TIMERS: usize = 4;

/// Handler calls that run a step of the script; later ones only log.
const CALLS: usize = 400;

/// Delays in µs: ties at zero, sub-bucket, wheel and overflow scales,
/// and the link's own latency so packet arrivals land on timer instants.
const DELAYS_US: [u64; 8] = [0, 1, 10, 250, 1_000, 5_000, 20_000, 200_000];

#[derive(Clone, Copy, Debug)]
enum Op {
    /// (Re-)arm timer `k` to fire after the given delay.
    Arm(usize, SimDuration),
    /// Stop timer `k`; the rearming node keeps its token.
    Disarm(usize),
    /// Cancel timer `k` and forget its token.
    Cancel(usize),
    /// Deliver a packet to this node's internal interface after a delay.
    Local(SimDuration),
    /// Send a packet to the echo peer.
    Send,
}

fn op(kind: u8, k: usize, delay: usize) -> Op {
    let d = SimDuration::from_micros(DELAYS_US[delay]);
    match kind {
        0..=3 => Op::Arm(k, d),
        4 => Op::Disarm(k),
        5 => Op::Cancel(k),
        6 => Op::Local(d),
        _ => Op::Send,
    }
}

fn handle(k: usize) -> TimerHandle {
    TimerHandle {
        owner: TimerOwner::Node,
        token: k as u64,
    }
}

/// Runs the next step of its script, cyclically, on each of its first
/// `CALLS` handler calls, and logs every dispatch as `(now, id)`: a
/// timer's index, or 100 + a packet's id.
struct Scripted {
    rearm: bool,
    link: LinkId,
    steps: Vec<Vec<Op>>,
    calls: usize,
    next_pkt: u16,
    timers: [Option<TimerToken>; TIMERS],
    log: Vec<(u64, u64)>,
}

impl Scripted {
    fn packet(&mut self) -> Packet {
        self.next_pkt += 1;
        let icmp = IcmpMessage {
            kind: IcmpKind::EchoRequest,
            ident: 1,
            seq: self.next_pkt,
            payload_len: 8,
        };
        Packet::new(v4(10, 0, 0, 1), v4(10, 0, 0, 2), Payload::Icmp(icmp))
    }

    fn cancel(&mut self, k: usize, ctx: &mut Ctx) {
        if let Some(t) = self.timers[k].take() {
            ctx.cancel_timer(t);
        }
    }

    fn step(&mut self, ctx: &mut Ctx) {
        if self.calls == CALLS {
            return;
        }
        let ops = self.steps[self.calls % self.steps.len()].clone();
        self.calls += 1;
        for op in ops {
            match op {
                Op::Arm(k, d) if self.rearm => {
                    self.timers[k] = Some(match self.timers[k] {
                        Some(t) => ctx.rearm_timer(t, d, handle(k)),
                        None => ctx.set_timer(d, handle(k)),
                    });
                }
                Op::Arm(k, d) => {
                    self.cancel(k, ctx);
                    self.timers[k] = Some(ctx.set_timer(d, handle(k)));
                }
                Op::Disarm(k) if self.rearm => {
                    if let Some(t) = self.timers[k] {
                        ctx.disarm_timer(t);
                    }
                }
                Op::Disarm(k) | Op::Cancel(k) => self.cancel(k, ctx),
                Op::Local(d) => {
                    let pkt = self.packet();
                    ctx.deliver_local(d, pkt);
                }
                Op::Send => {
                    let pkt = self.packet();
                    ctx.transmit(self.link, pkt);
                }
            }
        }
    }
}

impl Node for Scripted {
    fn start(&mut self, ctx: &mut Ctx) {
        for _ in 0..4 {
            self.step(ctx);
        }
    }

    fn handle_packet(&mut self, iface: usize, pkt: Packet, ctx: &mut Ctx) {
        let Payload::Icmp(icmp) = pkt.payload else {
            panic!("only ICMP is sent")
        };
        assert!(iface == 0 || iface == IFACE_INTERNAL);
        self.log
            .push((ctx.now.as_nanos(), 100 + u64::from(icmp.seq)));
        self.step(ctx);
    }

    fn handle_timer(&mut self, timer: TimerHandle, ctx: &mut Ctx) {
        let k = timer.token as usize;
        // The engine retired the token before dispatch.
        self.timers[k] = None;
        self.log.push((ctx.now.as_nanos(), timer.token));
        self.step(ctx);
    }

    fn on_crash(&mut self, ctx: &mut Ctx) {
        // Cancel half the timers; the rest fire into the crashed node.
        for k in (0..TIMERS).step_by(2) {
            self.cancel(k, ctx);
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        self.step(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sends every packet straight back.
struct Echo {
    link: LinkId,
}

impl Node for Echo {
    fn handle_packet(&mut self, _iface: usize, pkt: Packet, ctx: &mut Ctx) {
        ctx.transmit(self.link, Packet::new(pkt.dst, pkt.src, pkt.payload));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Case {
    seed: u64,
    steps: Vec<Vec<Op>>,
    /// Crash at, and restart after, these many µs.
    crash: Option<(u64, u64)>,
    slices_us: Vec<u64>,
}

/// Runs the case with a rearming or a reference node; returns the
/// dispatch log and `SimStats::dispatched`.
fn run(case: &Case, rearm: bool) -> (Vec<(u64, u64)>, u64) {
    let check = |sim: &Sim| {
        if let Err(e) = sim.check_invariants() {
            panic!("rearm={rearm}: {e}");
        }
    };
    let mut sim = Sim::new(case.seed);
    let node = Scripted {
        rearm,
        link: LinkId(0),
        steps: case.steps.clone(),
        calls: 0,
        next_pkt: 0,
        timers: [None; TIMERS],
        log: Vec::new(),
    };
    let a = sim.world.add_node(Box::new(node));
    let b = sim.world.add_node(Box::new(Echo { link: LinkId(0) }));
    sim.world.connect(
        Endpoint { node: a, iface: 0 },
        Endpoint { node: b, iface: 0 },
        LinkParams::datacenter(),
    );
    if let Some((at, after)) = case.crash {
        sim.schedule_fault(SimDuration::from_micros(at), FaultAction::NodeCrash(a));
        sim.schedule_fault(
            SimDuration::from_micros(at + after),
            FaultAction::NodeRestart(a),
        );
    }
    for &slice in &case.slices_us {
        sim.run_until(sim.now() + SimDuration::from_micros(slice));
        check(&sim);
    }
    let outcome = sim.run_to_quiescence(1_000_000);
    assert!(outcome.is_quiescent(), "rearm={rearm}: {outcome:?}");
    check(&sim);
    let log = sim
        .world
        .node::<Scripted>(a)
        .expect("scripted node")
        .log
        .clone();
    (log, sim.stats().dispatched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rearm_dispatches_exactly_like_cancel_and_set(
        seed in 0u64..1_000,
        steps in prop::collection::vec(
            prop::collection::vec((0u8..8u8, 0usize..TIMERS, 0usize..DELAYS_US.len()), 0..5),
            1..60,
        ),
        crash in (0u8..2u8, 0u64..300_000, 1u64..200_000),
        slices_us in prop::collection::vec(0u64..30_000, 0..12),
    ) {
        let case = Case {
            seed,
            steps: steps.into_iter().map(|s| s.into_iter().map(|(kind, k, d)| op(kind, k, d)).collect()).collect(),
            crash: (crash.0 == 1).then_some((crash.1, crash.2)),
            slices_us,
        };
        let (want_log, want_dispatched) = run(&case, false);
        let (got_log, got_dispatched) = run(&case, true);
        prop_assert_eq!(got_log, want_log);
        prop_assert_eq!(got_dispatched, want_dispatched);
    }
}
