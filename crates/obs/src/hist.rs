//! Log-bucketed latency histograms (HDR-style, no external deps).
//!
//! Values are bucketed by a power-of-two scheme with [`SUB_BUCKETS`]
//! sub-buckets per octave: values below `SUB_BUCKETS` get an exact bucket
//! each, and every larger value lands in one of 16 sub-buckets of its
//! power-of-two range, bounding the relative quantization error at ~6%.
//! The whole `u64` range is covered — there is no saturating "overflow"
//! bucket to lie about the tail.
//!
//! Recording is a [`rewind_common::StripedCounters`] increment: per-thread
//! striped, relaxed-atomic, lock-free, allocation-free — safe to call from
//! the commit path. Quantiles are extracted at snapshot time by walking the
//! merged bucket array; a bucket's upper bound is reported, so quantiles
//! are conservative (never understate latency).

use rewind_common::StripedCounters;

/// log2 of the sub-buckets per power-of-two octave.
pub const SUB_BITS: u32 = 4;
/// Sub-buckets per octave (16): relative error ≤ 1/16 of the value.
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total buckets: one exact bucket per value below [`SUB_BUCKETS`], then
/// 16 sub-buckets for each of the `64 - SUB_BITS` octaves `2^k..2^(k+1)`,
/// `k = SUB_BITS..=63`, covering the rest of the `u64` range.
pub const NUM_BUCKETS: usize =
    SUB_BUCKETS as usize + (64 - SUB_BITS as usize) * SUB_BUCKETS as usize;

const SUM_SLOT: usize = NUM_BUCKETS;
const COUNT_SLOT: usize = NUM_BUCKETS + 1;
const MAX_SLOT: usize = NUM_BUCKETS + 2;
const SLOTS: usize = NUM_BUCKETS + 3;

/// Bucket index for `v`. Total order preserving: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = octave - SUB_BITS;
    let sub = (v >> shift) - SUB_BUCKETS; // 0..SUB_BUCKETS
    (SUB_BUCKETS + (octave - SUB_BITS) as u64 * SUB_BUCKETS + sub) as usize
}

/// Inclusive upper bound of bucket `idx` — the value quantiles report for
/// samples that landed in it.
pub fn bucket_bound(idx: usize) -> u64 {
    debug_assert!(idx < NUM_BUCKETS);
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        return idx;
    }
    let octave = SUB_BITS + ((idx - SUB_BUCKETS) / SUB_BUCKETS) as u32;
    let sub = (idx - SUB_BUCKETS) % SUB_BUCKETS;
    let shift = octave - SUB_BITS;
    let lower = (SUB_BUCKETS + sub) << shift;
    lower + ((1u64 << shift) - 1)
}

/// A concurrent latency histogram. Construction allocates the striped
/// bucket array once; recording never allocates.
pub struct Histogram {
    counters: Box<StripedCounters<SLOTS>>,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counters: Box::new(StripedCounters::new()),
        }
    }

    /// Record one sample (typically microseconds). Lock-free and
    /// allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counters.add(bucket_index(v), 1);
        self.counters.add(SUM_SLOT, v);
        self.counters.add(COUNT_SLOT, 1);
        self.counters.max_up(MAX_SLOT, v);
    }

    /// Merge all stripes into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let sums = self.counters.sums();
        let mut buckets = vec![0u64; NUM_BUCKETS];
        buckets.copy_from_slice(&sums[..NUM_BUCKETS]);
        HistogramSnapshot {
            count: sums[COUNT_SLOT],
            sum: sums[SUM_SLOT],
            max: self.counters.max_of(MAX_SLOT),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.p50())
            .field("p99", &s.p99())
            .field("max", &s.max)
            .finish()
    }
}

/// An immutable point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all sample values (exact, not re-derived from buckets).
    pub sum: u64,
    /// Largest sample ever recorded. Note: a running maximum, not
    /// resettable — a `delta()` keeps the since-creation max.
    pub max: u64,
    /// Per-bucket sample counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot (count 0, all buckets zero).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(q * count)`-th smallest sample.
    /// Conservative — never understates. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The top bucket's bound can exceed the true max; clamp so
                // quantiles never exceed an actually observed value.
                return bucket_bound(idx).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples recorded since `earlier`: bucket-wise saturating
    /// subtraction. `max` stays the since-creation maximum (a running max
    /// cannot be windowed without a reservoir).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter())
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HistogramSnapshot {
        /// Combine two snapshots (e.g. the same latency measured by two
        /// engines) into one distribution.
        fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
            HistogramSnapshot {
                count: self.count + other.count,
                sum: self.sum + other.sum,
                max: self.max.max(other.max),
                buckets: self
                    .buckets
                    .iter()
                    .zip(other.buckets.iter())
                    .map(|(a, b)| a + b)
                    .collect(),
            }
        }
    }

    #[test]
    fn bucket_index_is_exact_below_sub_buckets() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        // First value of each octave starts a fresh sub-bucket run.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(17), 17);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32); // next octave, sub 0
        assert_eq!(bucket_index(33), 32); // same sub-bucket (width 2)
        assert_eq!(bucket_index(34), 33);
        assert_eq!(bucket_index(63), 47);
        assert_eq!(bucket_index(64), 48);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0usize;
        let mut v = 0u64;
        while v < u64::MAX / 3 {
            let idx = bucket_index(v);
            assert!(idx >= last, "v={v} idx={idx} last={last}");
            assert!(idx < NUM_BUCKETS);
            // The bucket's bound must cover the value.
            assert!(bucket_bound(idx) >= v, "v={v} bound={}", bucket_bound(idx));
            last = idx;
            v = v * 3 / 2 + 1;
        }
    }

    #[test]
    fn saturation_u64_max_lands_in_last_bucket() {
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_bound(NUM_BUCKETS - 1), u64::MAX);
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p99(), u64::MAX);
    }

    #[test]
    fn bound_is_inclusive_upper_bound_of_its_bucket() {
        for idx in 0..NUM_BUCKETS {
            let b = bucket_bound(idx);
            assert_eq!(bucket_index(b), idx, "bound {b} of bucket {idx}");
            if b < u64::MAX {
                assert_eq!(bucket_index(b + 1), idx + 1);
            }
        }
    }

    #[test]
    fn quantiles_are_conservative_within_one_sixteenth() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.sum, 10_000 * 10_001 / 2);
        assert_eq!(s.max, 10_000);
        // p50 of 1..=10000 is 5000; reported bound is >= that and within
        // one sub-bucket's relative error.
        let p50 = s.p50();
        assert!((5000..=5000 + 5000 / 16 + 1).contains(&p50), "p50={p50}");
        let p99 = s.p99();
        assert!((9900..=9900 + 9900 / 16 + 1).contains(&p99), "p99={p99}");
    }

    #[test]
    fn per_thread_stripes_merge_exactly() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * 1_000 + i % 997);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, threads * per_thread);
        assert_eq!(s.buckets.iter().sum::<u64>(), threads * per_thread);
        assert_eq!(s.max, 7 * 1_000 + 996);
    }

    #[test]
    fn delta_and_merge_roundtrip() {
        let h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        let a = h.snapshot();
        for v in 100..300u64 {
            h.record(v);
        }
        let b = h.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.count, 200);
        assert_eq!(d.sum, (100..300u64).sum::<u64>());
        assert_eq!(a.merge(&d).count, b.count);
        assert_eq!(a.merge(&d).buckets, b.buckets);
    }
}
