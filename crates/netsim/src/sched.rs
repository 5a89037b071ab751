//! The event scheduler: a hierarchical calendar queue.
//!
//! The engine orders events by `(time, seq)` — the sequence number makes
//! simultaneous events FIFO, which is what makes a run bit-for-bit
//! deterministic. A single global `BinaryHeap` gives that order in
//! O(log n) per operation; at sustained simulation load (tens of
//! thousands of in-flight TCP segments, timers and link transmissions)
//! the heap's cache-hostile sift dominates the profile.
//!
//! [`CalendarQueue`] keeps the identical total order with O(1) amortized
//! scheduling for the common case (events within a short horizon of
//! now). The tiers below hold 24-byte `(time, seq, slot)` keys; the
//! payloads sit in a slab (`items`, with a free list of empty slots),
//! so moving a key between tiers or sorting a bucket never copies an
//! event. Structure:
//!
//! * a **current bucket** — a vector sorted descending by `(time, seq)`
//!   holding events in `[cur_start, cur_start + width)`, popped from the
//!   tail in O(1);
//! * a **wheel** of `nbuckets` unsorted vectors covering
//!   `[cur_start + width, cur_start + horizon)`, indexed by absolute
//!   time (`(t >> width_log2) & mask`), with an occupancy bitmap so
//!   sparse wheels advance by jumping straight to the next full bucket;
//! * an **overflow** min-heap for events at or beyond the horizon
//!   (long retransmission timeouts, SA lifetimes), migrated into the
//!   wheel as the window approaches them.
//!
//! Every read takes a `limit`: [`CalendarQueue::peek_until`] only
//! returns an event at or before it, and the window never moves to a
//! bucket that starts after it. `run_until` passes its deadline, so
//! the window stays at `now` and a handler's follow-up events land in
//! the wheel, not in sorted inserts into `cur`. [`CalendarQueue::peek`]
//! and [`CalendarQueue::pop`] are the `limit = u64::MAX` case.
//!
//! Ordering proof sketch: `cur_start` never passes an unpopped event
//! (advances go to `min(next occupied bucket, overflow min)`, and only
//! when that bucket starts at or before `limit`), every wheel bucket not
//! yet drained starts strictly after the current window, and overflow is
//! consulted before the wheel whenever its minimum is earlier — so the
//! pop sequence equals the sorted `(time, seq)` sequence, exactly what
//! the old global heap produced. An event pushed before the window (the
//! engine can leave the window ahead of `now` after discarding a stale
//! timer) takes the ordered insert into `cur`, which keeps the order.
//! The property test in `tests/sched_equivalence.rs` checks this
//! against a reference `BinaryHeap` under random workloads.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default bucket width: 2^13 ns ≈ 8.2 µs. Narrow enough that the
/// sorted current bucket stays shallow at high event density, wide
/// enough that sparse runs don't advance through empty buckets.
pub const DEFAULT_WIDTH_LOG2: u32 = 13;
/// Default bucket count: 2048 buckets ≈ 16.8 ms horizon, covering link
/// RTTs and CPU service times. The wheel is deliberately small — 48 KB
/// of `Vec` headers stays cache-resident, where a bigger wheel costs a
/// cache miss per push at typical (hundreds-in-flight) queue depths.
/// Far-future timers (retransmission, SA lifetimes) go to the overflow
/// heap and migrate in as the window approaches.
pub const DEFAULT_NBUCKETS_LOG2: u32 = 11;

/// A queued key: the payload lives in `CalendarQueue::items[slot]`.
/// Ordered by `(at, seq)`; `seq` is unique, so `slot` never decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: u64,
    seq: u64,
    slot: u32,
}

/// Counters the engine folds into its stats snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Pushes that landed in the current bucket (a sorted insert).
    pub pushed_current: u64,
    /// Pushes that landed in a wheel bucket (the O(1) fast path).
    pub pushed_wheel: u64,
    /// Pushes that landed in the overflow heap (beyond the horizon).
    pub pushed_overflow: u64,
    /// Times the window advanced to a new bucket.
    pub advances: u64,
    /// Events migrated from overflow into the active window.
    pub migrated: u64,
}

/// A calendar queue ordered by `(time, seq)`, generic over the payload.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    width_log2: u32,
    mask: u64,
    horizon: u64,
    /// Start of the current bucket's interval (bucket-aligned). All
    /// events before `cur_start` have been popped.
    cur_start: u64,
    /// Current bucket, sorted *descending* by `(at, seq)`: the minimum
    /// is at the tail, so pops are O(1) and draining a wheel bucket is
    /// one `sort_unstable` instead of per-event heap sifts.
    cur: Vec<Entry>,
    wheel: Vec<Vec<Entry>>,
    /// One bit per wheel bucket; set iff the bucket is non-empty.
    occ: Vec<u64>,
    wheel_len: usize,
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Payload slab indexed by `Entry::slot`; `None` marks a free slot.
    items: Vec<Option<T>>,
    /// Free slots of `items`, reused before the slab grows.
    free: Vec<u32>,
    len: usize,
    stats: QueueStats,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// A queue with the default geometry (8.2 µs × 2048 ≈ 16.8 ms horizon).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_WIDTH_LOG2, DEFAULT_NBUCKETS_LOG2)
    }

    /// A queue with `2^width_log2` ns buckets, `2^nbuckets_log2` of them.
    pub fn with_geometry(width_log2: u32, nbuckets_log2: u32) -> Self {
        assert!(width_log2 + nbuckets_log2 < 63, "horizon must fit in u64");
        let nbuckets = 1usize << nbuckets_log2;
        CalendarQueue {
            width_log2,
            mask: (nbuckets as u64) - 1,
            horizon: (nbuckets as u64) << width_log2,
            cur_start: 0,
            cur: Vec::new(),
            wheel: (0..nbuckets).map(|_| Vec::new()).collect(),
            occ: vec![0u64; nbuckets.div_ceil(64)],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            items: Vec::new(),
            free: Vec::new(),
            len: 0,
            stats: QueueStats::default(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    fn width(&self) -> u64 {
        1u64 << self.width_log2
    }

    fn bucket_index(&self, t: u64) -> usize {
        ((t >> self.width_log2) & self.mask) as usize
    }

    fn set_occ(&mut self, idx: usize) {
        self.occ[idx / 64] |= 1u64 << (idx % 64);
    }

    fn clear_occ(&mut self, idx: usize) {
        self.occ[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Ring distance (in buckets) from the current bucket to the next
    /// occupied one, or `None` if the wheel is empty. Distance 0 is
    /// never returned: the current bucket's events live in `cur`.
    fn next_occupied_distance(&self) -> Option<u64> {
        if self.wheel_len == 0 {
            return None;
        }
        let nbuckets = self.wheel.len();
        let start = self.bucket_index(self.cur_start);
        if nbuckets < 64 {
            // Sub-word ring (only tiny test geometries): the ring wraps
            // *inside* one bitmap word, so the word-skip scan below
            // would shift past wrapped buckets. Plain scan instead.
            let word = self.occ[0];
            for dist in 1..=nbuckets {
                let idx = (start + dist) & (self.mask as usize);
                if word & (1u64 << idx) != 0 {
                    return Some(dist as u64);
                }
            }
            return None;
        }
        // Scan the bitmap from start+1, wrapping once around the ring.
        let mut dist = 1usize;
        while dist <= nbuckets {
            let idx = (start + dist) & (self.mask as usize);
            let word = self.occ[idx / 64];
            if word == 0 {
                // Skip to the end of this 64-bucket word.
                let skip = 64 - (idx % 64);
                dist += skip;
                continue;
            }
            let shifted = word >> (idx % 64);
            if shifted != 0 {
                let d = dist + shifted.trailing_zeros() as usize;
                if d <= nbuckets {
                    return Some(d as u64);
                }
                return None; // only occupancy behind us — unreachable when wheel_len > 0
            }
            dist += 64 - (idx % 64);
        }
        None
    }

    /// Schedules `item` at `(at, seq)`.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.len += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.items[slot as usize] = Some(item);
                slot
            }
            None => {
                let slot = u32::try_from(self.items.len()).expect("fewer than 2^32 queued events");
                self.items.push(Some(item));
                slot
            }
        };
        self.push_entry(Entry {
            at: at.as_nanos(),
            seq,
            slot,
        });
    }

    fn push_entry(&mut self, e: Entry) {
        if e.at < self.cur_start.saturating_add(self.width()) {
            // Current bucket, or a straggler before the window (the
            // engine can leave the window ahead of `now` when it
            // discards a stale timer); the ordered insert handles both.
            self.stats.pushed_current += 1;
            let pos = self.cur.partition_point(|x| *x > e);
            self.cur.insert(pos, e);
        } else if e.at < self.cur_start.saturating_add(self.horizon) {
            self.stats.pushed_wheel += 1;
            let idx = self.bucket_index(e.at);
            self.wheel[idx].push(e);
            self.set_occ(idx);
            self.wheel_len += 1;
        } else {
            self.stats.pushed_overflow += 1;
            self.overflow.push(Reverse(e));
        }
    }

    /// Moves the window forward until `cur` holds the global minimum.
    /// Returns false if the queue is empty, or if the next window would
    /// start after `limit` (then `cur_start` stays where it is).
    fn advance(&mut self, limit: u64) -> bool {
        loop {
            if !self.cur.is_empty() {
                return true;
            }
            // Every queued event lies at or after the current window's
            // end: nothing can be due by `limit`. No bitmap scan.
            if self.cur_start.saturating_add(self.width()) > limit {
                return false;
            }
            let over_min = self.overflow.peek().map(|Reverse(e)| e.at);
            let wheel_next = self
                .next_occupied_distance()
                .map(|d| self.cur_start + d * self.width());
            if let Some(m) = over_min.filter(|&m| wheel_next.is_none_or(|next| m < next)) {
                if (m & !(self.width() - 1)) > limit {
                    return false;
                }
                self.migrate_overflow(m);
            } else if let Some(next) = wheel_next {
                if next > limit {
                    return false;
                }
                self.drain_bucket(next);
            } else {
                return false;
            }
        }
    }

    /// Makes the wheel bucket starting at `start` the current bucket.
    fn drain_bucket(&mut self, start: u64) {
        self.stats.advances += 1;
        self.cur_start = start;
        let idx = self.bucket_index(start);
        // Swap the buffers so the old `cur` allocation becomes the
        // bucket's next fill.
        std::mem::swap(&mut self.cur, &mut self.wheel[idx]);
        self.clear_occ(idx);
        self.wheel_len -= self.cur.len();
        self.cur.sort_unstable_by(|a, b| b.cmp(a));
        // Overflow events can fall *inside* this bucket's window: they
        // were pushed when the horizon ended before it. Merge them now
        // or they would pop after later wheel events from the same
        // bucket.
        let window_end = start.saturating_add(self.width());
        while self
            .overflow
            .peek()
            .is_some_and(|Reverse(e)| e.at < window_end)
        {
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.stats.migrated += 1;
            self.push_entry(e);
        }
    }

    /// Jumps the window to `over_min`'s bucket and pulls every overflow
    /// event inside the new horizon into the window. All live wheel
    /// events stay valid: their absolute-time bucket mapping is
    /// unchanged and they remain inside the new window.
    fn migrate_overflow(&mut self, over_min: u64) {
        self.stats.advances += 1;
        self.cur_start = over_min & !(self.width() - 1);
        let end = self.cur_start.saturating_add(self.horizon);
        while let Some(Reverse(e)) = self.overflow.peek() {
            if e.at >= end {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.stats.migrated += 1;
            // `len` is unchanged: the event moves between tiers.
            self.push_entry(e);
        }
    }

    /// The earliest event — key plus a borrow of the item — if it is
    /// due at or before `limit`, without popping it. The window never
    /// moves to a bucket that starts after `limit` (hence `&mut`).
    pub fn peek_until(&mut self, limit: SimTime) -> Option<(SimTime, u64, &T)> {
        let limit = limit.as_nanos();
        if !self.advance(limit) {
            return None;
        }
        let e = *self.cur.last().expect("advance filled cur");
        if e.at > limit {
            return None;
        }
        let item = self.items[e.slot as usize]
            .as_ref()
            .expect("queued slot holds its item");
        Some((SimTime(e.at), e.seq, item))
    }

    /// The `(time, seq)` key of the earliest event, advancing the window
    /// if needed (hence `&mut`).
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.peek().map(|(at, seq, _)| (at, seq))
    }

    /// The earliest event — key plus a borrow of the item — without
    /// popping it, advancing the window if needed (hence `&mut`).
    pub fn peek(&mut self) -> Option<(SimTime, u64, &T)> {
        self.peek_until(SimTime(u64::MAX))
    }

    /// Every queued event, key plus a borrow of the item, in no
    /// particular order (for invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &T)> {
        let wheel = self.wheel.iter().flatten();
        let overflow = self.overflow.iter().map(|Reverse(e)| e);
        self.cur.iter().chain(wheel).chain(overflow).map(|e| {
            let item = self.items[e.slot as usize]
                .as_ref()
                .expect("queued slot holds its item");
            (SimTime(e.at), e.seq, item)
        })
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if !self.advance(u64::MAX) {
            return None;
        }
        let e = self.cur.pop().expect("advance filled cur");
        let item = self.items[e.slot as usize]
            .take()
            .expect("queued slot holds its item");
        self.free.push(e.slot);
        self.len -= 1;
        Some((SimTime(e.at), e.seq, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = q.pop() {
            out.push((at.as_nanos(), seq));
        }
        out
    }

    #[test]
    fn orders_across_all_tiers() {
        // One event per tier: current bucket, wheel, overflow.
        let mut q = CalendarQueue::with_geometry(10, 4); // 1 µs × 16 = 16 µs horizon
        q.push(SimTime(20_000_000), 1, 0); // far overflow
        q.push(SimTime(500), 2, 0); // current bucket
        q.push(SimTime(5_000), 3, 0); // wheel
        q.push(SimTime(500), 4, 0); // FIFO tie with seq 2
        assert_eq!(q.len(), 4);
        assert_eq!(
            drain(&mut q),
            vec![(500, 2), (500, 4), (5_000, 3), (20_000_000, 1)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_before_wheel_when_earlier() {
        // Regression for the window-jump ordering hazard: an overflow
        // event must pop before a *later* wheel event even though the
        // wheel is non-empty.
        let mut q = CalendarQueue::with_geometry(10, 4);
        let horizon = 16 * 1024u64;
        // Fill and drain a first wave so cur_start advances.
        q.push(SimTime(1_000), 1, 0);
        assert!(q.pop().is_some());
        // A at just past the original horizon -> overflow.
        q.push(SimTime(horizon + 100), 2, 0);
        // B later than A but within the (advanced) wheel window.
        q.push(SimTime(horizon + 9_000), 3, 0);
        assert_eq!(
            drain(&mut q),
            vec![(horizon + 100, 2), (horizon + 9_000, 3)]
        );
    }

    #[test]
    fn overflow_event_inside_drained_bucket_window() {
        // Regression: an overflow event whose time lands *inside* the
        // bucket being drained (not strictly before it) must merge into
        // that drain, or it pops after later wheel events. Geometry:
        // 16 ns × 4 buckets = 64 ns horizon.
        let mut q = CalendarQueue::with_geometry(4, 2);
        q.push(SimTime(0), 1, 0); // current bucket
        q.push(SimTime(70), 2, 0); // beyond horizon -> overflow
        assert_eq!(q.pop().map(|(t, s, _)| (t.as_nanos(), s)), Some((0, 1)));
        q.push(SimTime(20), 3, 0); // wheel
        assert_eq!(q.pop().map(|(t, s, _)| (t.as_nanos(), s)), Some((20, 3)));
        // cur_start is now 16; horizon ends at 80, so 76 goes to the
        // wheel — the *same* absolute bucket [64, 80) that holds the
        // overflow event at 70.
        q.push(SimTime(76), 4, 0);
        assert_eq!(drain(&mut q), vec![(70, 2), (76, 4)]);
    }

    #[test]
    fn equal_times_pop_in_seq_order_across_tiers() {
        let mut q = CalendarQueue::with_geometry(10, 4);
        for seq in (1..=50).rev() {
            q.push(SimTime(42_000), seq, 0);
        }
        let popped = drain(&mut q);
        assert_eq!(popped.len(), 50);
        assert!(
            popped.windows(2).all(|w| w[0].1 < w[1].1),
            "FIFO at equal time"
        );
    }

    #[test]
    fn matches_reference_heap_on_dense_and_sparse_mix() {
        use std::cmp::Reverse as R;
        let mut q = CalendarQueue::new();
        let mut heap = std::collections::BinaryHeap::new();
        let mut state = 0x12345u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for _ in 0..5_000 {
            // Interleave pushes (at >= now) and pops.
            if rng() % 3 != 0 || heap.is_empty() {
                seq += 1;
                // Mix of short (µs), medium (ms) and long (s) delays.
                let delay = match rng() % 10 {
                    0 => rng() % 1_000_000_000,  // up to 1 s
                    1..=3 => rng() % 50_000_000, // up to 50 ms
                    _ => rng() % 300_000,        // up to 300 µs
                };
                let at = now + delay;
                q.push(SimTime(at), seq, 0u32);
                heap.push(R((at, seq)));
            } else {
                let R((at, s)) = heap.pop().expect("non-empty");
                expected.push((at, s));
                let (qt, qs, _) = q.pop().expect("same length");
                got.push((qt.as_nanos(), qs));
                now = at;
            }
        }
        while let Some(R(k)) = heap.pop() {
            expected.push(k);
        }
        while let Some((t, s, _)) = q.pop() {
            got.push((t.as_nanos(), s));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn len_tracks_through_migration() {
        let mut q: CalendarQueue<()> = CalendarQueue::with_geometry(10, 4);
        for i in 0..100u64 {
            q.push(SimTime(i * 1_000_000), i, ());
        }
        assert_eq!(q.len(), 100);
        for _ in 0..40 {
            q.pop();
        }
        assert_eq!(q.len(), 60);
        let st = q.stats();
        assert!(st.pushed_overflow > 0, "long spread must hit overflow");
        assert!(st.migrated > 0, "overflow must migrate back in");
    }

    #[test]
    fn bounded_peek_keeps_the_window_at_now() {
        // After the pop at 0 the current bucket is empty and the next
        // event is 10 ms away. A peek bounded at `now` must neither
        // return it nor move the window there, so a follow-up event
        // 20 µs out still takes the wheel, not a sorted insert.
        let mut q = CalendarQueue::new();
        q.push(SimTime(0), 1, 0u32);
        q.push(SimTime(10_000_000), 2, 0);
        assert_eq!(q.pop().map(|(t, s, _)| (t.as_nanos(), s)), Some((0, 1)));
        let before = q.stats();
        assert!(q.peek_until(SimTime(0)).is_none());
        assert_eq!(q.stats().advances, before.advances);
        q.push(SimTime(20_000), 3, 0);
        let after = q.stats();
        assert_eq!(after.pushed_wheel, before.pushed_wheel + 1);
        assert_eq!(after.pushed_current, before.pushed_current);
        assert_eq!(drain(&mut q), vec![(20_000, 3), (10_000_000, 2)]);
    }

    #[test]
    fn slots_are_reused_after_pops() {
        let mut q = CalendarQueue::new();
        for round in 0..4u64 {
            for i in 0..8u64 {
                q.push(SimTime(round * 1_000 + i), round * 8 + i, round * 8 + i);
            }
            for i in 0..8u64 {
                assert_eq!(q.pop().map(|(_, _, item)| item), Some(round * 8 + i));
            }
        }
        assert_eq!(q.items.len(), 8, "the slab only grows to the peak depth");
        assert_eq!(q.free.len(), 8);
    }
}
