//! HIP bulk transfers reproduce the outcomes pinned below.
//!
//! One TCP flow over HIP/ESP between two EC2-style VMs (the Figure 3
//! HIT(IPv4) topology), for the `{paper_era, free} × {0, 1 %} loss × 3
//! seeds` grid. Each case's engine counters, delivered bytes and
//! last-byte arrival time are pinned to the values the previous
//! datapath produced (the one that batched TCP segments and split them
//! at the NIC), so any change to per-frame IV draws, CPU charges, link
//! draws or retransmission timing shows up here — including when a
//! zero CPU cost sends frames straight to the link.

use bench::fig3::{build, ec2_link, Fig3Mode, Fig3World};
use hip_core::CostModel;
use netsim::{DropReason, SimDuration, SimStats, SimTime};
use websvc::loadgen::{BulkSendApp, IperfServerApp};

const PORT: u16 = 5001;
const BYTES: u64 = 512 * 1024;

/// Everything a run must reproduce.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: SimStats,
    delivered: u64,
    /// Arrival of the last byte at the server, in simulated ns.
    last_byte_ns: u64,
    /// The `link.drops` aggregate.
    link_drops: u64,
    /// Each link drop reason's counter.
    link_reasons: Vec<(DropReason, u64)>,
}

/// Runs one `BYTES`-sized HIP bulk transfer for 120 simulated seconds
/// over a 150 Mbit/s cloud link with per-link `loss`.
fn hip_bulk(costs: CostModel, loss: f64, seed: u64) -> Outcome {
    let Fig3World {
        mut topo,
        a,
        b,
        target_b,
    } = build(Fig3Mode::HitIpv4, seed, ec2_link().with_loss(loss), costs);

    let srv_idx = topo
        .host_mut(b)
        .add_app(Box::new(IperfServerApp::new(PORT)));
    let mut client = BulkSendApp::new((target_b, PORT), BYTES);
    // Let the HIP base exchange settle before the flow starts.
    client.start_delay = SimDuration::from_secs(1);
    topo.host_mut(a).add_app(Box::new(client));

    topo.sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(120));
    if let Err(e) = topo.check_invariants() {
        panic!("invariant broken: {e}");
    }

    let srv = topo.host(b).app::<IperfServerApp>(srv_idx).expect("server");
    let ctr = |name| topo.sim.metrics.counter_value(name).unwrap_or(0);
    let link_reasons = DropReason::ALL.iter().filter(|r| r.is_link());
    Outcome {
        stats: topo.sim.stats(),
        delivered: srv.bytes,
        last_byte_ns: srv.last_byte.map_or(0, SimTime::as_nanos),
        link_drops: ctr("link.drops"),
        link_reasons: link_reasons.map(|&r| (r, ctr(r.name()))).collect(),
    }
}

/// `(costs, loss, seed, SimStats fields in declaration order except the
/// always-0 `coalesced_events`, delivered bytes, last-byte arrival ns)`.
///
/// Since TCP re-arms one engine timer per socket instead of queuing a
/// new one per ACK, `scheduled`, the timer counters and the queue-tier
/// counters are lower; `dispatched`, the bytes and the last-byte times
/// are the ones cancel-and-set gave.
type Pinned = (&'static str, f64, u64, [u64; 9], u64, u64);

const PINNED: [Pinned; 12] = [
    (
        "paper_era",
        0.0,
        1,
        [2962, 2957, 3, 5, 8, 2954, 7, 7, 2421],
        524_288,
        1_080_840_350,
    ),
    (
        "paper_era",
        0.0,
        2,
        [2962, 2957, 3, 5, 8, 2954, 7, 7, 2421],
        524_288,
        1_078_746_350,
    ),
    (
        "paper_era",
        0.0,
        3,
        [2962, 2957, 3, 5, 8, 2954, 7, 7, 2399],
        524_288,
        1_079_026_550,
    ),
    (
        "paper_era",
        0.01,
        1,
        [3021, 3007, 3, 4, 17, 3003, 17, 16, 2303],
        338_471,
        103_289_583_360,
    ),
    (
        "paper_era",
        0.01,
        2,
        [2495, 2481, 3, 4, 17, 2477, 17, 16, 1866],
        215_058,
        103_285_514_654,
    ),
    (
        "paper_era",
        0.01,
        3,
        [2755, 2733, 5, 5, 25, 2728, 26, 24, 2281],
        370_660,
        109_706_803_242,
    ),
    (
        "free",
        0.0,
        1,
        [2222, 2217, 3, 5, 739, 1483, 6, 6, 1306],
        524_288,
        1_033_666_261,
    ),
    (
        "free",
        0.0,
        2,
        [2222, 2217, 3, 5, 739, 1483, 6, 6, 1306],
        524_288,
        1_033_666_261,
    ),
    (
        "free",
        0.0,
        3,
        [2222, 2217, 3, 5, 739, 1483, 6, 6, 1306],
        524_288,
        1_033_666_261,
    ),
    (
        "free",
        0.01,
        1,
        [24_496, 24_481, 3, 4, 232, 24_263, 15, 14, 24_213],
        93_935,
        103_222_146_977,
    ),
    (
        "free",
        0.01,
        2,
        [24_497, 24_481, 4, 5, 233, 24_263, 17, 16, 24_222],
        97_039,
        103_426_533_644,
    ),
    (
        "free",
        0.01,
        3,
        [1290, 1276, 3, 4, 429, 860, 15, 14, 765],
        213_427,
        103_230_036_309,
    ),
];

fn pinned_stats(s: [u64; 9]) -> SimStats {
    SimStats {
        scheduled: s[0],
        dispatched: s[1],
        timers_cancelled: s[2],
        stale_timer_pops: s[3],
        queue_current_pushes: s[4],
        queue_wheel_pushes: s[5],
        queue_overflow_pushes: s[6],
        queue_migrations: s[7],
        queue_advances: s[8],
        coalesced_events: 0,
    }
}

#[test]
fn hip_bulk_outcomes_match_pinned_values() {
    for (cost_name, loss, seed, stats, delivered, last_byte_ns) in PINNED {
        let costs = if cost_name == "paper_era" {
            CostModel::paper_era()
        } else {
            CostModel::free()
        };
        let out = hip_bulk(costs, loss, seed);
        let case = format!("costs={cost_name} loss={loss} seed={seed}");
        if loss == 0.0 {
            assert_eq!(out.delivered, BYTES, "{case}: clean transfer must complete");
        } else {
            // Every link drop is counted under its reason, and with no
            // fault injected the configured loss is the only one.
            let by_reason: u64 = out.link_reasons.iter().map(|&(_, n)| n).sum();
            assert_eq!(by_reason, out.link_drops, "{case}: {:?}", out.link_reasons);
            for &(r, n) in &out.link_reasons {
                let organic = r == DropReason::LinkLoss;
                assert_eq!(n > 0, organic, "{case}: {r} counted {n}");
            }
        }
        assert_eq!(out.stats, pinned_stats(stats), "{case}");
        assert_eq!(
            (out.delivered, out.last_byte_ns),
            (delivered, last_byte_ns),
            "{case}"
        );
    }
}
