//! The calibration loops: fixed pieces of work that use no hipcloud
//! code, timed between repetitions to read how fast the machine is
//! running at that moment.
//!
//! On a shared host the vCPU switches for seconds to minutes between a
//! fast state and a slow one. How much slower depends on the code: a
//! loop that walks memory, like the HIP data plane, the web workloads and
//! [`memory`], takes about 1.5 times as long; a loop that stays in
//! registers, like [`register`], about 1.1 times; and `bulk_basic`, whose
//! time goes to sorted inserts into short scheduler buckets, about 1.1
//! times too. Each workload is calibrated with the loop that slows down
//! as it does (`Workload::calibration`).
//!
//! [`memory`] must not read what the repetition before it did, or a
//! change to the simulator's memory use would move the calibration too.
//! So its pool and heap are allocated once and reused, nothing is
//! allocated while it runs, and the pool is read through once, untimed,
//! before each sample.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Either loop's typical time on the 2-vCPU Xeon development container
/// in its fast state. Calibrated times are scaled to this speed, so they
/// read close to raw wall times on that host.
pub const NOMINAL_S: f64 = 0.0115;

const SLOTS: usize = 2048;
const SLOT_BYTES: usize = 1536;
const STEPS: u64 = 40_000;

struct Arena {
    pool: Vec<u8>,
    /// Pending buffers: (due key, slot, length).
    queue: BinaryHeap<Reverse<(u64, u32, u16)>>,
    free: Vec<u32>,
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena {
        pool: vec![0; SLOTS * SLOT_BYTES],
        queue: BinaryHeap::with_capacity(SLOTS),
        free: Vec::with_capacity(SLOTS),
    });
}

/// Runs the memory-bound loop once: an event queue over packet-sized
/// buffers, a binary heap of pending buffers and byte loops over a 3 MiB
/// pool. Returns its wall seconds.
pub fn memory() -> f64 {
    ARENA.with(|arena| {
        let a = &mut *arena.borrow_mut();
        a.queue.clear();
        a.free.clear();
        a.free.extend((0..SLOTS as u32).rev());
        black_box(
            a.pool
                .iter()
                .step_by(64)
                .map(|&b| u64::from(b))
                .sum::<u64>(),
        );

        let t = Instant::now();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut sum = 0u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = match a.free.pop() {
                Some(slot) => slot,
                None => {
                    let Reverse((_, slot, len)) = a.queue.pop().expect("every slot is queued");
                    let base = slot as usize * SLOT_BYTES;
                    sum += a.pool[base..base + len as usize]
                        .iter()
                        .map(|&b| u64::from(b))
                        .sum::<u64>();
                    slot
                }
            };
            let len = 64 + (x % 1400) as usize;
            let base = slot as usize * SLOT_BYTES;
            for (k, b) in a.pool[base..base + len].iter_mut().enumerate().step_by(8) {
                *b = (k as u64 ^ x) as u8;
            }
            a.queue
                .push(Reverse(((i << 12) + x % 4096, slot, len as u16)));
        }
        black_box(sum);
        t.elapsed().as_secs_f64()
    })
}

/// Runs the register-bound loop once: a xorshift and multiply chain.
/// Returns its wall seconds.
pub fn register() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for i in 0..4_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_mul(31).wrapping_add(x ^ i);
        if acc & 7 == 3 {
            acc = acc.rotate_left(5);
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}
