//! Cost gate for the calendar queue on bulk TCP.
//!
//! `Sim::run_until` peeks the queue bounded by its deadline and pops
//! only events at or before it, so the window stays at `now` and the
//! events a handler schedules land in the wheel. If a peek ever moves
//! the window ahead of `now` (to the next RTO timer, milliseconds out),
//! nearly every push becomes a sorted insert into the current bucket
//! and bulk flows slow down several-fold with identical results. Only
//! the queue's tier counters show it, so this test pins them.
//!
//! The second gate is on dead timers. TCP pushes its retransmission
//! timer back on every ACK; if each push queued a new engine timer and
//! cancelled the old one, nearly every overflow-heap push would be a
//! timer that pops stale (about 2 900 per flow here). One re-armed
//! timer per socket keeps both counts to a handful.

use bench::fig3::{build, ec2_link, Fig3Mode, Fig3World};
use hip_core::CostModel;
use netsim::{SimDuration, SimStats, SimTime};
use websvc::loadgen::{BulkSendApp, IperfServerApp};

const PORT: u16 = 5001;
const BYTES: u64 = 2 * 1024 * 1024;

/// One `BYTES`-sized flow between two Small VMs at 150 Mbit/s, over
/// HIP/ESP or plain IPv4; returns the run's stats once every byte is in.
fn bulk(hip: bool, seed: u64) -> SimStats {
    let mode = if hip {
        Fig3Mode::HitIpv4
    } else {
        Fig3Mode::Ipv4
    };
    let Fig3World {
        mut topo,
        a,
        b,
        target_b,
    } = build(mode, seed, ec2_link(), CostModel::paper_era());

    let srv_idx = topo
        .host_mut(b)
        .add_app(Box::new(IperfServerApp::new(PORT)));
    let mut client = BulkSendApp::new((target_b, PORT), BYTES);
    client.start_delay = SimDuration::from_secs(1);
    topo.host_mut(a).add_app(Box::new(client));

    topo.sim
        .run_until(SimTime::ZERO + SimDuration::from_secs(10));

    let srv = topo.host(b).app::<IperfServerApp>(srv_idx).expect("server");
    assert_eq!(srv.bytes, BYTES, "hip={hip}: the transfer must complete");
    if let Err(e) = topo.check_invariants() {
        panic!("hip={hip}: {e}");
    }
    topo.sim.stats()
}

#[test]
fn bulk_pushes_stay_off_the_sorted_insert_path() {
    for hip in [false, true] {
        let s = bulk(hip, 1);
        // Every push lands in exactly one tier; migrations push again,
        // and a re-armed timer's entry pushed on to its key counts in
        // `scheduled`.
        assert_eq!(
            s.queue_current_pushes + s.queue_wheel_pushes + s.queue_overflow_pushes,
            s.scheduled + s.queue_migrations,
            "hip={hip}: {s:?}"
        );
        let share = s.queue_current_pushes as f64 / s.scheduled as f64;
        assert!(
            share <= 0.05,
            "hip={hip}: current-bucket push share {share:.4} > 0.05: {s:?}"
        );
    }
}

/// At most this many overflow pushes, and this many dead timers
/// (cancelled plus stale pops), per 2 MiB flow.
const DEAD_TIMER_CAP: u64 = 32;

#[test]
fn bulk_flows_queue_no_dead_retransmission_timers() {
    for hip in [false, true] {
        let s = bulk(hip, 1);
        assert!(
            s.queue_overflow_pushes <= DEAD_TIMER_CAP,
            "hip={hip}: {} overflow pushes > {DEAD_TIMER_CAP}: {s:?}",
            s.queue_overflow_pushes
        );
        let dead = s.timers_cancelled + s.stale_timer_pops;
        assert!(
            dead <= DEAD_TIMER_CAP,
            "hip={hip}: {dead} dead timers > {DEAD_TIMER_CAP}: {s:?}"
        );
    }
}
