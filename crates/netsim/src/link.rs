//! Point-to-point links.
//!
//! A link connects two node interfaces with configurable latency,
//! bandwidth, random loss and jitter. Serialization delay is charged per
//! direction against a `busy_until` watermark, which models an output
//! queue: back-to-back packets queue behind each other, so TCP sees a
//! genuine bandwidth bottleneck rather than an abstract rate cap.

use crate::drops::DropReason;
use crate::time::{SimDuration, SimTime};

/// Identifies a link within the simulation world.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub usize);

/// Identifies a node within the simulation world.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// One endpoint of a link: a node and its interface index on that node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// The attached node.
    pub node: NodeId,
    /// The interface index on that node.
    pub iface: usize,
}

/// Link configuration.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Bits per second each direction can carry.
    pub bandwidth_bps: u64,
    /// Probability in [0, 1) that a packet is silently dropped.
    pub loss: f64,
    /// Maximum uniform random extra delay added per packet.
    pub jitter: SimDuration,
    /// Output queue capacity in bytes per direction; packets that would
    /// queue beyond this are dropped (tail drop). `usize::MAX` = infinite.
    pub queue_bytes: usize,
}

impl LinkParams {
    /// A typical intra-datacenter link: 1 Gbit/s, 250 µs one-way.
    pub fn datacenter() -> Self {
        LinkParams {
            latency: SimDuration::from_micros(250),
            bandwidth_bps: 1_000_000_000,
            loss: 0.0,
            jitter: SimDuration::ZERO,
            queue_bytes: 512 * 1024,
        }
    }

    /// A WAN link between data centers: 100 Mbit/s, 10 ms one-way.
    pub fn wan() -> Self {
        LinkParams {
            latency: SimDuration::from_millis(10),
            bandwidth_bps: 100_000_000,
            loss: 0.0,
            jitter: SimDuration::ZERO,
            queue_bytes: 1024 * 1024,
        }
    }

    /// A consumer access link: 20 Mbit/s, 15 ms one-way.
    pub fn access() -> Self {
        LinkParams {
            latency: SimDuration::from_millis(15),
            bandwidth_bps: 20_000_000,
            loss: 0.0,
            jitter: SimDuration::ZERO,
            queue_bytes: 256 * 1024,
        }
    }

    /// Sets the loss probability (builder style).
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss));
        self.loss = loss;
        self
    }

    /// Sets the jitter bound (builder style).
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets latency (builder style).
    pub fn with_latency(mut self, latency: SimDuration) -> Self {
        self.latency = latency;
        self
    }

    /// Sets bandwidth (builder style).
    pub fn with_bandwidth(mut self, bps: u64) -> Self {
        assert!(bps > 0);
        self.bandwidth_bps = bps;
        self
    }
}

/// A bidirectional link instance with per-direction queue state.
#[derive(Clone, Debug)]
pub struct Link {
    /// This link's id in the world registry.
    pub id: LinkId,
    /// One endpoint.
    pub a: Endpoint,
    /// The other endpoint.
    pub b: Endpoint,
    /// Latency/bandwidth/loss configuration.
    pub params: LinkParams,
    /// `busy_until[0]` covers a→b, `[1]` covers b→a.
    busy_until: [SimTime; 2],
    /// Administratively down (an explicit `LinkDown` fault episode).
    admin_down: bool,
    /// Down because a `Partition` fault separates its endpoints. Kept
    /// separate from `admin_down` so `LinkUp` and `Heal` each restore
    /// only the state their counterpart episode set.
    partitioned: bool,
    /// Extra loss probability during a `LossBurst` episode (0 = none);
    /// the effective loss is `max(params.loss, burst_loss)`.
    burst_loss: f64,
    /// Extra one-way delay during a `LatencySpike` episode.
    extra_latency: SimDuration,
}

impl Link {
    /// Creates a link between two endpoints.
    pub fn new(id: LinkId, a: Endpoint, b: Endpoint, params: LinkParams) -> Self {
        Link {
            id,
            a,
            b,
            params,
            busy_until: [SimTime::ZERO; 2],
            admin_down: false,
            partitioned: false,
            burst_loss: 0.0,
            extra_latency: SimDuration::ZERO,
        }
    }

    /// Sets/clears the administrative down flag (`LinkDown`/`LinkUp`).
    pub fn set_admin_down(&mut self, down: bool) {
        self.admin_down = down;
    }

    /// Sets/clears the partition flag (`Partition`/`Heal`).
    pub fn set_partitioned(&mut self, cut: bool) {
        self.partitioned = cut;
    }

    /// Sets the burst-loss override (0 clears it).
    pub fn set_burst_loss(&mut self, loss: f64) {
        assert!((0.0..1.0).contains(&loss));
        self.burst_loss = loss;
    }

    /// Sets the latency-spike overlay (zero clears it).
    pub fn set_extra_latency(&mut self, extra: SimDuration) {
        self.extra_latency = extra;
    }

    /// True while either down flag is set.
    pub fn is_down(&self) -> bool {
        self.admin_down || self.partitioned
    }

    /// True while any fault overlay (down flag, burst loss, latency
    /// spike) is active — used to assert that a healed plan leaks nothing.
    pub fn is_faulted(&self) -> bool {
        self.is_down() || self.burst_loss > 0.0 || self.extra_latency > SimDuration::ZERO
    }

    /// The endpoint opposite `node`, if `node` terminates this link.
    pub fn peer_of(&self, node: NodeId) -> Option<Endpoint> {
        if self.a.node == node {
            Some(self.b)
        } else if self.b.node == node {
            Some(self.a)
        } else {
            None
        }
    }

    /// Offers a packet of `wire_len` bytes for transmission from `from`.
    ///
    /// `loss_draw` and `jitter_draw` are uniform samples in [0,1) supplied
    /// by the caller so the link itself stays RNG-free (determinism is
    /// owned by the simulator's single seeded RNG). Returns the far
    /// endpoint and the arrival time, or why the link dropped the packet
    /// (one of the [`DropReason::is_link`] reasons).
    pub fn transmit(
        &mut self,
        from: NodeId,
        wire_len: usize,
        now: SimTime,
        loss_draw: f64,
        jitter_draw: f64,
    ) -> Result<(Endpoint, SimTime), DropReason> {
        let (dir, to) = if self.a.node == from {
            (0, self.b)
        } else if self.b.node == from {
            (1, self.a)
        } else {
            panic!("node {from:?} is not an endpoint of link {:?}", self.id);
        };
        // Fault checks happen after the caller's RNG draws, so a fault
        // episode never changes the draw sequence of the rest of the run.
        if self.admin_down {
            return Err(DropReason::LinkDown);
        }
        if self.partitioned {
            return Err(DropReason::Partition);
        }
        if loss_draw < self.params.loss {
            return Err(DropReason::LinkLoss);
        }
        if loss_draw < self.burst_loss {
            return Err(DropReason::LossBurst);
        }
        let ser_ns =
            (wire_len as u64 * 8).saturating_mul(1_000_000_000) / self.params.bandwidth_bps;
        let ser = SimDuration::from_nanos(ser_ns.max(1));
        let start = self.busy_until[dir].max(now);
        // Tail drop: how many bytes are already queued ahead of us?
        let backlog_ns = start.since(now).as_nanos();
        let backlog_bytes =
            (backlog_ns.saturating_mul(self.params.bandwidth_bps) / 8 / 1_000_000_000) as usize;
        if backlog_bytes > self.params.queue_bytes {
            return Err(DropReason::QueueOverflow);
        }
        self.busy_until[dir] = start + ser;
        let jitter =
            SimDuration::from_nanos((jitter_draw * self.params.jitter.as_nanos() as f64) as u64);
        let at = self.busy_until[dir] + self.params.latency + self.extra_latency + jitter;
        Ok((to, at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link::new(
            LinkId(0),
            Endpoint {
                node: NodeId(0),
                iface: 0,
            },
            Endpoint {
                node: NodeId(1),
                iface: 0,
            },
            LinkParams {
                latency: SimDuration::from_millis(1),
                bandwidth_bps: 8_000_000, // 1 byte/µs
                loss: 0.0,
                jitter: SimDuration::ZERO,
                queue_bytes: 10_000,
            },
        )
    }

    #[test]
    fn delivery_time_includes_serialization_and_latency() {
        let mut l = link();
        let (to, at) = l
            .transmit(NodeId(0), 1000, SimTime::ZERO, 0.9, 0.0)
            .expect("sent");
        // 1000 bytes at 1 byte/µs = 1 ms serialization + 1 ms latency.
        assert_eq!(to.node, NodeId(1));
        assert_eq!(at, SimTime(2_000_000));
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut l = link();
        let t1 = l
            .transmit(NodeId(0), 1000, SimTime::ZERO, 0.9, 0.0)
            .expect("sent")
            .1;
        let t2 = l
            .transmit(NodeId(0), 1000, SimTime::ZERO, 0.9, 0.0)
            .expect("sent")
            .1;
        assert_eq!(
            t2.since(t1),
            SimDuration::from_millis(1),
            "second serializes after first"
        );
    }

    #[test]
    fn directions_independent() {
        let mut l = link();
        let a = l
            .transmit(NodeId(0), 1000, SimTime::ZERO, 0.9, 0.0)
            .expect("sent")
            .1;
        let b = l
            .transmit(NodeId(1), 1000, SimTime::ZERO, 0.9, 0.0)
            .expect("sent")
            .1;
        assert_eq!(a, b, "reverse direction does not queue behind forward");
    }

    #[test]
    fn loss_draw_respected() {
        let mut l = link();
        l.params.loss = 0.5;
        assert_eq!(
            l.transmit(NodeId(0), 10, SimTime::ZERO, 0.49, 0.0),
            Err(DropReason::LinkLoss)
        );
        assert!(l.transmit(NodeId(0), 10, SimTime::ZERO, 0.51, 0.0).is_ok());
    }

    #[test]
    fn queue_overflow_drops() {
        let mut l = link();
        l.params.queue_bytes = 1500;
        let mut delivered = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match l.transmit(NodeId(0), 1000, SimTime::ZERO, 0.9, 0.0) {
                Ok(_) => delivered += 1,
                Err(reason) => {
                    assert_eq!(reason, DropReason::QueueOverflow);
                    dropped += 1;
                }
            }
        }
        assert!(
            delivered >= 2 && dropped > 0,
            "delivered={delivered} dropped={dropped}"
        );
    }

    #[test]
    fn fault_overlays_drop_and_restore() {
        let mut l = link();
        l.set_admin_down(true);
        assert_eq!(
            l.transmit(NodeId(0), 10, SimTime::ZERO, 0.9, 0.0),
            Err(DropReason::LinkDown)
        );
        // Partition is tracked independently: clearing admin-down while
        // partitioned keeps the link dead, and vice versa.
        l.set_partitioned(true);
        l.set_admin_down(false);
        assert_eq!(
            l.transmit(NodeId(0), 10, SimTime::ZERO, 0.9, 0.0),
            Err(DropReason::Partition)
        );
        l.set_partitioned(false);
        assert!(!l.is_faulted());
        // Burst loss on top of zero organic loss.
        l.set_burst_loss(0.8);
        assert_eq!(
            l.transmit(NodeId(0), 10, SimTime::ZERO, 0.5, 0.0),
            Err(DropReason::LossBurst)
        );
        assert!(l.transmit(NodeId(0), 10, SimTime::ZERO, 0.9, 0.0).is_ok());
        l.set_burst_loss(0.0);
        assert!(!l.is_faulted());
    }

    #[test]
    fn latency_spike_adds_delay() {
        let mut l = link();
        l.set_extra_latency(SimDuration::from_millis(5));
        let (_, at) = l
            .transmit(NodeId(0), 1000, SimTime::ZERO, 0.9, 0.0)
            .expect("sent");
        // 1 ms serialization + 1 ms latency + 5 ms spike.
        assert_eq!(at, SimTime(7_000_000));
        l.set_extra_latency(SimDuration::ZERO);
        assert!(!l.is_faulted());
    }

    #[test]
    fn peer_of() {
        let l = link();
        assert_eq!(l.peer_of(NodeId(0)).unwrap().node, NodeId(1));
        assert_eq!(l.peer_of(NodeId(1)).unwrap().node, NodeId(0));
        assert!(l.peer_of(NodeId(7)).is_none());
    }

    #[test]
    #[should_panic]
    fn transmit_from_non_endpoint_panics() {
        let mut l = link();
        let _ = l.transmit(NodeId(9), 10, SimTime::ZERO, 0.9, 0.0);
    }
}
