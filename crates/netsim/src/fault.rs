//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a scripted list of fault episodes — link cuts,
//! loss bursts, latency spikes, node crash/restart, network partitions —
//! each anchored at an offset from the moment the plan is scheduled.
//! [`FaultPlan::schedule`] compiles the episodes into
//! [`FaultAction`] events pushed through the ordinary calendar queue, so
//! fault timing obeys the same `(time, seq)` determinism contract as
//! every packet and timer: the same seed plus the same plan replays
//! bit-identically, and fault-state checks in [`crate::link::Link`] are
//! placed *after* the caller's RNG draws so an episode never shifts the
//! draw sequence of surviving traffic.
//!
//! Every transition is emitted as a `fault` trace record and counted in
//! the metrics registry (`fault.*.episodes`), so episodes are visible in
//! run manifests; packets refused by a faulted link carry the drop
//! reasons `fault.link_down` / `fault.partition` / `fault.loss_burst`
//! so `jq`-based triage can split injected faults from organic loss.

use crate::engine::{FaultAction, Sim};
use crate::link::{Link, LinkId, NodeId};
use crate::time::SimDuration;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// One scripted fault episode. Timed episodes (`LossBurst`,
/// `LatencySpike`, `Partition`) carry their own duration and schedule
/// their clearing transition automatically; `LinkDown` and `NodeCrash`
/// persist until an explicit `LinkUp` / `NodeRestart` episode.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEpisode {
    /// Administratively cut a link.
    LinkDown {
        /// The link to cut.
        link: LinkId,
    },
    /// Restore an administratively cut link.
    LinkUp {
        /// The link to restore.
        link: LinkId,
    },
    /// Raise a link's loss to `prob` for `duration`, then clear.
    LossBurst {
        /// The affected link.
        link: LinkId,
        /// Loss probability in [0, 1) during the burst.
        prob: f64,
        /// How long the burst lasts.
        duration: SimDuration,
    },
    /// Add `extra` one-way delay to a link for `duration`, then clear.
    LatencySpike {
        /// The affected link.
        link: LinkId,
        /// The extra one-way delay.
        extra: SimDuration,
        /// How long the spike lasts.
        duration: SimDuration,
    },
    /// Crash a node (stack reset; traffic and timers discarded).
    NodeCrash {
        /// The node to crash.
        node: NodeId,
    },
    /// Restart a crashed node.
    NodeRestart {
        /// The node to restart.
        node: NodeId,
    },
    /// Sever every link with one endpoint in `group_a` and the other in
    /// `group_b` for `duration`, then heal. Nodes in neither group keep
    /// all their links. The crossing set is resolved against the world's
    /// link registry at schedule time.
    Partition {
        /// One side of the partition.
        group_a: Vec<NodeId>,
        /// The other side.
        group_b: Vec<NodeId>,
        /// How long the partition lasts.
        duration: SimDuration,
    },
}

/// A scripted, schedulable fault storyline: `(offset, episode)` pairs,
/// offsets measured from the simulation time at which
/// [`FaultPlan::schedule`] is called.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    episodes: Vec<(SimDuration, FaultEpisode)>,
}

/// Why [`FaultPlan::schedule`] refused a plan. A refused plan schedules
/// nothing, so a malformed plan can never fail halfway through a run.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// An episode names a link the world does not have.
    UnknownLink(LinkId),
    /// An episode or a partition group names a node the world does not have.
    UnknownNode(NodeId),
    /// A loss burst's probability is NaN or outside `[0, 1)`.
    LossOutOfRange(f64),
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::UnknownLink(l) => write!(f, "fault plan names unknown link {}", l.0),
            FaultPlanError::UnknownNode(n) => write!(f, "fault plan names unknown node {}", n.0),
            FaultPlanError::LossOutOfRange(p) => {
                write!(f, "loss burst probability {p} is not in [0, 1)")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The links with one endpoint in `a` and the other in `b`.
pub fn crossing_links(links: &[Link], a: &[NodeId], b: &[NodeId]) -> Vec<LinkId> {
    links
        .iter()
        .filter(|l| {
            let (x, y) = (l.a.node, l.b.node);
            (a.contains(&x) && b.contains(&y)) || (a.contains(&y) && b.contains(&x))
        })
        .map(|l| l.id)
        .collect()
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an episode at `offset` from schedule time (builder style).
    pub fn at(mut self, offset: SimDuration, episode: FaultEpisode) -> Self {
        self.episodes.push((offset, episode));
        self
    }

    /// Adds an episode in place.
    pub fn push(&mut self, offset: SimDuration, episode: FaultEpisode) {
        self.episodes.push((offset, episode));
    }

    /// The scripted episodes, in insertion order.
    pub fn episodes(&self) -> &[(SimDuration, FaultEpisode)] {
        &self.episodes
    }

    /// Number of episodes.
    pub fn len(&self) -> usize {
        self.episodes.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// Compiles the plan into engine fault events on `sim`'s queue,
    /// offsets measured from `sim.now()`. Timed episodes also schedule
    /// their clearing transition at `offset + duration`.
    ///
    /// Every link and node is checked against `sim.world`, and every
    /// loss probability against `[0, 1)`, before anything is scheduled:
    /// on error the queue is left untouched.
    pub fn schedule(&self, sim: &mut Sim) -> Result<(), FaultPlanError> {
        self.validate(sim)?;
        for (at, ep) in &self.episodes {
            match ep {
                FaultEpisode::LinkDown { link } => {
                    sim.schedule_fault(*at, FaultAction::LinkDown(*link));
                }
                FaultEpisode::LinkUp { link } => {
                    sim.schedule_fault(*at, FaultAction::LinkUp(*link));
                }
                FaultEpisode::LossBurst {
                    link,
                    prob,
                    duration,
                } => {
                    sim.schedule_fault(
                        *at,
                        FaultAction::BurstStart {
                            link: *link,
                            loss: *prob,
                        },
                    );
                    sim.schedule_fault(*at + *duration, FaultAction::BurstEnd { link: *link });
                }
                FaultEpisode::LatencySpike {
                    link,
                    extra,
                    duration,
                } => {
                    sim.schedule_fault(
                        *at,
                        FaultAction::SpikeStart {
                            link: *link,
                            extra: *extra,
                        },
                    );
                    sim.schedule_fault(*at + *duration, FaultAction::SpikeEnd { link: *link });
                }
                FaultEpisode::NodeCrash { node } => {
                    sim.schedule_fault(*at, FaultAction::NodeCrash(*node));
                }
                FaultEpisode::NodeRestart { node } => {
                    sim.schedule_fault(*at, FaultAction::NodeRestart(*node));
                }
                FaultEpisode::Partition {
                    group_a,
                    group_b,
                    duration,
                } => {
                    let cut = crossing_links(sim.world.links(), group_a, group_b);
                    sim.schedule_fault(*at, FaultAction::Partition { links: cut.clone() });
                    sim.schedule_fault(*at + *duration, FaultAction::Heal { links: cut });
                }
            }
        }
        Ok(())
    }

    fn validate(&self, sim: &Sim) -> Result<(), FaultPlanError> {
        let link = |l: &LinkId| {
            if l.0 < sim.world.links().len() {
                Ok(())
            } else {
                Err(FaultPlanError::UnknownLink(*l))
            }
        };
        let node = |n: &NodeId| {
            if n.0 < sim.world.node_count() {
                Ok(())
            } else {
                Err(FaultPlanError::UnknownNode(*n))
            }
        };
        for (_, ep) in &self.episodes {
            match ep {
                FaultEpisode::LinkDown { link: l }
                | FaultEpisode::LinkUp { link: l }
                | FaultEpisode::LatencySpike { link: l, .. } => link(l)?,
                FaultEpisode::LossBurst { link: l, prob, .. } => {
                    link(l)?;
                    if !(0.0..1.0).contains(prob) {
                        return Err(FaultPlanError::LossOutOfRange(*prob));
                    }
                }
                FaultEpisode::NodeCrash { node: n } | FaultEpisode::NodeRestart { node: n } => {
                    node(n)?
                }
                FaultEpisode::Partition {
                    group_a, group_b, ..
                } => {
                    group_a.iter().chain(group_b).try_for_each(node)?;
                }
            }
        }
        Ok(())
    }

    /// The largest offset at which the plan still transitions (including
    /// the self-scheduled clears of timed episodes): after
    /// `schedule time + horizon` the network is in its final state.
    pub fn horizon(&self) -> SimDuration {
        self.episodes
            .iter()
            .map(|(at, ep)| match ep {
                FaultEpisode::LossBurst { duration, .. }
                | FaultEpisode::LatencySpike { duration, .. }
                | FaultEpisode::Partition { duration, .. } => *at + *duration,
                _ => *at,
            })
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Whether the plan leaves everything restored once it has fully
    /// played out: every `LinkDown` is followed (at a later or equal
    /// offset) by a `LinkUp` of the same link, every `NodeCrash` by a
    /// `NodeRestart`; timed episodes always self-clear.
    pub fn ends_restored(&self) -> bool {
        // Replay only the persistent transitions in schedule order
        // (stable sort by offset = queue order for equal times).
        let mut seq: Vec<(SimDuration, &FaultEpisode)> =
            self.episodes.iter().map(|(at, ep)| (*at, ep)).collect();
        seq.sort_by_key(|(at, _)| *at);
        let mut down_links: Vec<LinkId> = Vec::new();
        let mut crashed: Vec<NodeId> = Vec::new();
        for (_, ep) in seq {
            match ep {
                FaultEpisode::LinkDown { link } if !down_links.contains(link) => {
                    down_links.push(*link);
                }
                FaultEpisode::LinkUp { link } => down_links.retain(|l| l != link),
                FaultEpisode::NodeCrash { node } if !crashed.contains(node) => {
                    crashed.push(*node);
                }
                FaultEpisode::NodeRestart { node } => crashed.retain(|n| n != node),
                _ => {}
            }
        }
        down_links.is_empty() && crashed.is_empty()
    }

    /// Generates a deterministic random plan over the given candidate
    /// links and nodes: 1–4 episodes inside `window`, always paired so
    /// the plan [`FaultPlan::ends_restored`]. The same seed yields the
    /// same plan.
    pub fn random(seed: u64, links: &[LinkId], nodes: &[NodeId], window: SimDuration) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let span = window.as_nanos().max(2);
        let count = rng.random_range(1..=4u64);
        for _ in 0..count {
            let start = SimDuration::from_nanos(rng.random_range(0..span / 2));
            let dur = SimDuration::from_nanos(rng.random_range(1..span / 2));
            let kind = rng.random_range(0..5u64);
            match kind {
                0 if !links.is_empty() => {
                    let link = links[rng.random_range(0..links.len() as u64) as usize];
                    plan.push(start, FaultEpisode::LinkDown { link });
                    plan.push(start + dur, FaultEpisode::LinkUp { link });
                }
                1 if !links.is_empty() => {
                    let link = links[rng.random_range(0..links.len() as u64) as usize];
                    let prob = 0.2 + rng.random::<f64>() * 0.7;
                    plan.push(
                        start,
                        FaultEpisode::LossBurst {
                            link,
                            prob,
                            duration: dur,
                        },
                    );
                }
                2 if !links.is_empty() => {
                    let link = links[rng.random_range(0..links.len() as u64) as usize];
                    let extra = SimDuration::from_millis(1 + rng.random_range(0..50u64));
                    plan.push(
                        start,
                        FaultEpisode::LatencySpike {
                            link,
                            extra,
                            duration: dur,
                        },
                    );
                }
                3 if !nodes.is_empty() => {
                    let node = nodes[rng.random_range(0..nodes.len() as u64) as usize];
                    plan.push(start, FaultEpisode::NodeCrash { node });
                    plan.push(start + dur, FaultEpisode::NodeRestart { node });
                }
                _ if nodes.len() >= 2 => {
                    let split = 1 + rng.random_range(0..(nodes.len() - 1) as u64) as usize;
                    plan.push(
                        start,
                        FaultEpisode::Partition {
                            group_a: nodes[..split].to_vec(),
                            group_b: nodes[split..].to_vec(),
                            duration: dur,
                        },
                    );
                }
                _ => {}
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drops::DropReason;
    use crate::engine::{Ctx, Event, Node, TimerHandle};
    use crate::link::{Endpoint, LinkParams};
    use crate::packet::Packet;
    use crate::packet::{v4, IcmpKind, IcmpMessage, Payload};
    use crate::time::SimTime;
    use crate::trace::{Trace, TraceData, TraceKind};
    use std::any::Any;

    struct Counter {
        received: u32,
        crashes: u32,
        restarts: u32,
    }
    impl Node for Counter {
        fn handle_packet(&mut self, _iface: usize, _pkt: Packet, _ctx: &mut Ctx) {
            self.received += 1;
        }
        fn handle_timer(&mut self, _t: TimerHandle, _ctx: &mut Ctx) {}
        fn on_crash(&mut self, _ctx: &mut Ctx) {
            self.crashes += 1;
        }
        fn on_restart(&mut self, _ctx: &mut Ctx) {
            self.restarts += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn pkt() -> Packet {
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

    fn pair() -> (Sim, NodeId, NodeId, LinkId) {
        let mut sim = Sim::new(3);
        let a = sim.world.add_node(Box::new(Counter {
            received: 0,
            crashes: 0,
            restarts: 0,
        }));
        let b = sim.world.add_node(Box::new(Counter {
            received: 0,
            crashes: 0,
            restarts: 0,
        }));
        let l = sim.world.connect(
            Endpoint { node: a, iface: 0 },
            Endpoint { node: b, iface: 0 },
            LinkParams::datacenter(),
        );
        (sim, a, b, l)
    }

    #[test]
    fn link_down_window_drops_then_restores() {
        let (mut sim, a, b, l) = pair();
        let plan = FaultPlan::new()
            .at(
                SimDuration::from_millis(10),
                FaultEpisode::LinkDown { link: l },
            )
            .at(
                SimDuration::from_millis(30),
                FaultEpisode::LinkUp { link: l },
            );
        assert!(plan.ends_restored());
        assert_eq!(plan.horizon(), SimDuration::from_millis(30));
        sim.trace = Trace::enabled(1000);
        plan.schedule(&mut sim).expect("valid plan");
        // One packet before, one during, one after the outage.
        for at_ms in [5u64, 20, 40] {
            sim.schedule(
                SimDuration::from_millis(at_ms),
                Event::LinkTx {
                    from: a,
                    link: l,
                    pkt: pkt(),
                },
            );
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(
            sim.world.node::<Counter>(b).unwrap().received,
            2,
            "middle packet dropped"
        );
        assert!(!sim.world.links()[l.0].is_faulted(), "link restored");
        let drops: Vec<_> = sim
            .trace
            .of_kind(TraceKind::Drop)
            .map(|e| e.detail())
            .collect();
        assert_eq!(drops.len(), 1);
        assert!(drops[0].contains("fault.link_down"), "{drops:?}");
        assert_eq!(
            sim.trace.of_kind(TraceKind::Fault).count(),
            2,
            "down + up transitions traced"
        );
        assert_eq!(
            sim.metrics.counter_value("fault.link_down.episodes"),
            Some(1)
        );
        assert_eq!(
            sim.metrics.counter_value("fault.link_down"),
            Some(1),
            "one packet refused"
        );
    }

    #[test]
    fn crash_window_discards_and_hooks_fire() {
        let (mut sim, a, b, l) = pair();
        let plan = FaultPlan::new()
            .at(
                SimDuration::from_millis(10),
                FaultEpisode::NodeCrash { node: b },
            )
            .at(
                SimDuration::from_millis(30),
                FaultEpisode::NodeRestart { node: b },
            );
        assert!(plan.ends_restored());
        plan.schedule(&mut sim).expect("valid plan");
        for at_ms in [5u64, 20, 40] {
            sim.schedule(
                SimDuration::from_millis(at_ms),
                Event::LinkTx {
                    from: a,
                    link: l,
                    pkt: pkt(),
                },
            );
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let bn = sim.world.node::<Counter>(b).unwrap();
        assert_eq!(bn.received, 2, "mid-crash packet discarded");
        assert_eq!(bn.crashes, 1);
        assert_eq!(bn.restarts, 1);
        assert!(!sim.is_crashed(b));
    }

    #[test]
    fn node_down_drops_are_counted_and_traced() {
        let (mut sim, a, b, l) = pair();
        sim.trace = Trace::enabled(1000);
        // b is down while a's 20 ms packet arrives; a is down when its
        // own 60 ms transmission leaves.
        FaultPlan::new()
            .at(
                SimDuration::from_millis(10),
                FaultEpisode::NodeCrash { node: b },
            )
            .at(
                SimDuration::from_millis(30),
                FaultEpisode::NodeRestart { node: b },
            )
            .at(
                SimDuration::from_millis(50),
                FaultEpisode::NodeCrash { node: a },
            )
            .at(
                SimDuration::from_millis(70),
                FaultEpisode::NodeRestart { node: a },
            )
            .schedule(&mut sim)
            .expect("valid plan");
        for at_ms in [5u64, 20, 40, 60, 80] {
            sim.schedule(
                SimDuration::from_millis(at_ms),
                Event::LinkTx {
                    from: a,
                    link: l,
                    pkt: pkt(),
                },
            );
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(sim.world.node::<Counter>(b).unwrap().received, 3);
        let traced = sim
            .trace
            .entries()
            .iter()
            .filter(|e| {
                matches!(
                    e.data,
                    TraceData::Drop {
                        reason: DropReason::NodeDown,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(
            traced, 2,
            "one drop at the crashed receiver, one at the crashed sender"
        );
        assert_eq!(sim.metrics.counter_value("fault.node_down"), Some(traced));
    }

    #[test]
    fn partition_resolves_crossing_links() {
        let mut sim = Sim::new(5);
        let n: Vec<NodeId> = (0..4)
            .map(|_| {
                sim.world.add_node(Box::new(Counter {
                    received: 0,
                    crashes: 0,
                    restarts: 0,
                }))
            })
            .collect();
        // 0-1, 1-2, 2-3: partition {0,1} | {2,3} must cut only 1-2.
        let mut links = Vec::new();
        for w in n.windows(2) {
            links.push(sim.world.connect(
                Endpoint {
                    node: w[0],
                    iface: 0,
                },
                Endpoint {
                    node: w[1],
                    iface: 1,
                },
                LinkParams::datacenter(),
            ));
        }
        let cut = crossing_links(sim.world.links(), &n[..2], &n[2..]);
        assert_eq!(cut, vec![links[1]]);
        let plan = FaultPlan::new().at(
            SimDuration::from_millis(1),
            FaultEpisode::Partition {
                group_a: n[..2].to_vec(),
                group_b: n[2..].to_vec(),
                duration: SimDuration::from_millis(10),
            },
        );
        assert!(plan.ends_restored(), "partitions self-heal");
        plan.schedule(&mut sim).expect("valid plan");
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(5));
        assert!(sim.world.links()[links[1].0].is_down());
        assert!(!sim.world.links()[links[0].0].is_down());
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(20));
        assert!(sim.world.links().iter().all(|l| !l.is_faulted()), "healed");
    }

    /// Schedules `bad` after a valid episode on the one-link `pair()`
    /// world and returns the error; nothing may reach the queue.
    fn refused(bad: FaultEpisode) -> FaultPlanError {
        let (mut sim, _, b, _) = pair();
        let before = sim.stats().scheduled;
        let err = FaultPlan::new()
            .at(
                SimDuration::from_millis(1),
                FaultEpisode::NodeCrash { node: b },
            )
            .at(SimDuration::from_millis(2), bad)
            .schedule(&mut sim)
            .expect_err("malformed plan accepted");
        assert_eq!(
            sim.stats().scheduled,
            before,
            "a refused plan scheduled events"
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        err
    }

    #[test]
    fn unknown_link_is_refused() {
        let err = refused(FaultEpisode::LinkDown { link: LinkId(5) });
        assert_eq!(err, FaultPlanError::UnknownLink(LinkId(5)));
    }

    #[test]
    fn unknown_node_is_refused() {
        let err = refused(FaultEpisode::NodeRestart { node: NodeId(7) });
        assert_eq!(err, FaultPlanError::UnknownNode(NodeId(7)));
    }

    #[test]
    fn unknown_partition_member_is_refused() {
        let err = refused(FaultEpisode::Partition {
            group_a: vec![NodeId(0)],
            group_b: vec![NodeId(1), NodeId(9)],
            duration: SimDuration::from_millis(5),
        });
        assert_eq!(err, FaultPlanError::UnknownNode(NodeId(9)));
    }

    #[test]
    fn loss_outside_unit_interval_is_refused() {
        let burst = |prob| FaultEpisode::LossBurst {
            link: LinkId(0),
            prob,
            duration: SimDuration::from_millis(5),
        };
        for prob in [1.0, -0.1] {
            assert_eq!(refused(burst(prob)), FaultPlanError::LossOutOfRange(prob));
        }
        assert!(
            matches!(refused(burst(f64::NAN)), FaultPlanError::LossOutOfRange(p) if p.is_nan())
        );
    }

    #[test]
    fn unbalanced_plans_are_flagged() {
        let l = LinkId(0);
        assert!(!FaultPlan::new()
            .at(SimDuration::ZERO, FaultEpisode::LinkDown { link: l })
            .ends_restored());
        assert!(!FaultPlan::new()
            .at(
                SimDuration::ZERO,
                FaultEpisode::NodeCrash { node: NodeId(1) }
            )
            .ends_restored());
        // Up-then-down (wrong order at different offsets) stays broken.
        assert!(!FaultPlan::new()
            .at(
                SimDuration::from_millis(5),
                FaultEpisode::LinkDown { link: l }
            )
            .at(
                SimDuration::from_millis(1),
                FaultEpisode::LinkUp { link: l }
            )
            .ends_restored());
    }

    #[test]
    fn random_plans_are_deterministic_and_restored() {
        let links = [LinkId(0), LinkId(1)];
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        for seed in 0..50 {
            let a = FaultPlan::random(seed, &links, &nodes, SimDuration::from_secs(5));
            let b = FaultPlan::random(seed, &links, &nodes, SimDuration::from_secs(5));
            assert_eq!(a, b, "same seed, same plan");
            assert!(
                a.ends_restored(),
                "seed {seed}: generated plan must self-restore"
            );
            assert!(a.horizon() <= SimDuration::from_secs(5));
        }
    }
}
