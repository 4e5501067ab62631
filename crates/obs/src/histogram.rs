//! A dependency-free log-bucketed latency histogram.
//!
//! Systems papers report tail latency as percentiles (p50/p90/p99/p99.9/
//! max); storing every sample is wasteful. This histogram keeps HDR-style
//! log buckets — 16 linear sub-buckets per power of two, i.e. ≤ 6.25 %
//! relative error — over the full `u64` nanosecond range, in a fixed
//! 976-slot table. Recording is O(1), and percentile queries are exact
//! functions of the bucket counts.

/// Sub-bucket precision: 2^4 = 16 linear sub-buckets per octave.
const PRECISION_BITS: u32 = 4;
const SUBBUCKETS: usize = 1 << PRECISION_BITS;
/// Values below `SUBBUCKETS` get one exact bucket each; each of the
/// remaining 60 octaves (`msb` in `4..=63`) gets `SUBBUCKETS` buckets.
const BUCKETS: usize = SUBBUCKETS + (64 - PRECISION_BITS as usize) * SUBBUCKETS;

/// Bucket index of a value: exact below 16, then (octave, sub-bucket).
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBBUCKETS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= PRECISION_BITS
        let sub = ((v >> (msb - PRECISION_BITS)) & (SUBBUCKETS as u64 - 1)) as usize;
        let octave = (msb - PRECISION_BITS) as usize;
        SUBBUCKETS + octave * SUBBUCKETS + sub
    }
}

/// Largest value mapping to bucket `i` (inverse of [`bucket_of`]).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i < SUBBUCKETS {
        i as u64
    } else {
        let octave = ((i - SUBBUCKETS) / SUBBUCKETS) as u32;
        let sub = ((i - SUBBUCKETS) % SUBBUCKETS) as u128;
        // shift = msb - PRECISION_BITS. The top octave's last bucket ends
        // exactly at u64::MAX; compute in u128 so the shift cannot overflow.
        let shift = octave;
        let upper = ((SUBBUCKETS as u128 + sub + 1) << shift) - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }
}

/// A log-bucketed histogram of `u64` samples (convention: latencies in
/// nanoseconds), with exact count/sum/min/max side-cars.
///
/// ```
/// use ac_obs::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [100u64, 200, 300, 400, 1_000_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.p50() >= 200 && h.p50() <= 320);
/// assert_eq!(h.max(), 1_000_000); // max is exact
/// assert!(h.p50() <= h.p90() && h.p90() <= h.p99() && h.p99() <= h.p999());
/// ```
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples (0 when empty). With nanosecond
    /// samples this is the total time spent in the measured stage, which
    /// is what share-of-total attribution divides.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded samples: the upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`, clamped into `[min, max]` so every reported
    /// percentile is bounded by true extremes. Monotone in `q` by
    /// construction. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (see [`LatencyHistogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile — the straggler tail the ROADMAP's saturation
    /// item asks for. At small sample counts (< 1000) this is simply the
    /// max, by the ceiling rule of [`LatencyHistogram::percentile`].
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// One-line human-readable summary with all values in milliseconds.
    pub fn summary_millis(&self) -> String {
        let ms = |v: u64| v as f64 / 1e6;
        format!(
            "n={} p50={:.2}ms p90={:.2}ms p99={:.2}ms p99.9={:.2}ms max={:.2}ms",
            self.count,
            ms(self.p50()),
            ms(self.p90()),
            ms(self.p99()),
            ms(self.p999()),
            ms(self.max())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_invertible() {
        let mut values: Vec<u64> = (0..2000u64).chain((1..60).map(|s| 1u64 << s)).collect();
        values.sort_unstable();
        let mut prev = None;
        for v in values {
            let i = bucket_of(v);
            assert!(v <= bucket_upper(i), "v={v} i={i}");
            if let Some(p) = prev {
                assert!(i >= p, "bucket index must be monotone at v={v}");
            }
            prev = Some(i);
            // Relative error bound: upper / v <= 1 + 1/16.
            if v > 0 {
                assert!(bucket_upper(i) as f64 / v as f64 <= 1.0 + 1.0 / 16.0 + 1e-9);
            }
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!((h.min(), h.max()), (0, 0));
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn single_sample_is_exact_at_every_percentile() {
        for v in [0u64, 5, 15, 16, 1_000, 123_456_789] {
            let mut h = LatencyHistogram::new();
            h.record(v);
            for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(h.percentile(q), v, "v={v} q={q}");
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0), 15);
        assert_eq!(h.p50(), 7);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        for v in [3u64, 17, 17, 90, 1_000, 5_000, 5_001, 1_000_000] {
            h.record(v);
        }
        let (p50, p90, p99, p999) = (h.p50(), h.p90(), h.p99(), h.p999());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999 && p999 <= h.max());
        assert!(h.min() <= p50);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.min(), 3);
    }

    #[test]
    fn p999_separates_from_p99_at_scale() {
        // 1_000 samples at 100ns with 5 stragglers at ~1ms: p99 stays on
        // the floor, p99.9 reaches into the straggler band.
        let mut h = LatencyHistogram::new();
        for _ in 0..1_000 {
            h.record(100);
        }
        for _ in 0..5 {
            h.record(1_000_000);
        }
        assert!(h.p99() < 200, "p99={}", h.p99());
        assert!(h.p999() >= 900_000, "p999={}", h.p999());
    }

    #[test]
    fn durations_record_in_nanos() {
        let mut h = LatencyHistogram::new();
        h.record(10_000);
        assert_eq!(h.max(), 10_000);
    }
}
