//! The estimators every metric is built from.
//!
//! * nearest-rank percentiles over **raw** nanosecond samples (never a
//!   bucketed histogram: `LatencyHistogram` buckets are ~5 % wide at
//!   millisecond scale, half a regression bound on their own);
//! * the **favourable tail** of a set of readings of one quantity —
//!   the value a twentieth of them are at least as good as: the 5th
//!   percentile of a lower-is-better quantity, the 95th of a
//!   higher-is-better one, by nearest rank counted from the good end. A
//!   co-tenant only ever adds time, so the favourable end of many short
//!   readings repeats where a whole-run median does not; the very best
//!   are left out because one reading in a few hundred is a fluke;
//! * pooled ratios (sum of numerators over sum of denominators);
//! * the median and quartiles of a set of runs, computed as Python's
//!   `statistics.median` / `statistics.quantiles(values, n=4)` do, so
//!   `selfcheck` reports the spread the way a referee would.

/// Which direction of a metric is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, costs).
    Lower,
    /// Larger values are better (rates, ratios).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// 1-based nearest rank of the `q`-th percentile among `n` samples:
/// `ceil(q/100 · n)`, at least 1.
fn nearest_rank(n: usize, q: f64) -> usize {
    debug_assert!(n > 0 && q > 0.0 && q <= 100.0);
    // The small epsilon keeps exact products (95 % of 200 = 190) from
    // being pushed one rank up by floating-point representation error.
    let rank = (q / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample (`0 < q ≤ 100`).
/// Panics on an empty sample: every caller has already checked that the
/// episode decided at least one transaction.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Nearest-rank percentile of unsorted floating-point values.
pub fn percentile_f64(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), q) - 1]
}

/// Share of the readings that are at least as good as the one
/// [`favourable`] reports, per cent.
pub const FAVOURABLE_PCT: f64 = 5.0;

/// The favourable tail of readings of one quantity: the value at nearest
/// rank [`FAVOURABLE_PCT`] counted from the good end (the best of up to
/// 20 readings, the 3rd best of 60, the 13th best of 252). Panics on an
/// empty slice.
pub fn favourable(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    v[nearest_rank(v.len(), FAVOURABLE_PCT) - 1]
}

/// Sum of numerators over sum of denominators (0 when nothing was counted).
pub fn pooled_ratio(pairs: impl IntoIterator<Item = (u64, u64)>) -> f64 {
    let (num, den) = pairs
        .into_iter()
        .fold((0u64, 0u64), |(n, d), (a, b)| (n + a, d + b));
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median as `statistics.median`: the middle value, or the mean of the
/// two middle values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` (the
/// default *exclusive* method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_distributions() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.5), 1);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
        // Even count: the nearest-rank median is the lower middle value.
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn p95_of_200_samples_leaves_ten_beyond() {
        // `twopc_wal_wide` decides 200 transactions per light episode:
        // p95 must be the 190th value, the highest percentile with at
        // least ten samples beyond it. (`inbac_skewed` decides 160 to fit
        // the run budget, which leaves eight.)
        let v: Vec<u64> = (1..=200).collect();
        let p95 = percentile(&v, 95.0);
        assert_eq!(p95, 190);
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn ties_return_the_tied_value() {
        let v = [5u64, 5, 5, 5, 9, 9, 9, 9, 9, 9];
        assert_eq!(percentile(&v, 10.0), 5);
        assert_eq!(percentile(&v, 40.0), 5);
        assert_eq!(percentile(&v, 41.0), 9);
        assert_eq!(percentile(&v, 100.0), 9);
        assert_eq!(percentile_f64(&[2.0, 2.0, 2.0], 10.0), 2.0);
    }

    #[test]
    fn favourable_tail_is_symmetric_and_ignores_flukes_and_slow_readings() {
        // 252 slices: two flukes, 30 on a calm host, the rest slowed.
        let mut v = vec![300.0; 220];
        v.extend((0..30).map(|i| 100.0 + f64::from(i) / 10.0));
        v.extend([60.0, 61.0]);
        // rank ceil(0.05 * 252) = 13 from the good end: 2 flukes + 11 calm
        assert_eq!(favourable(&v, Better::Lower), 101.0);
        let rates: Vec<f64> = v.iter().map(|x| 1e6 / x).collect();
        assert_eq!(favourable(&rates, Better::Higher), 1e6 / 101.0);
        // Order must not matter; small sets report their best.
        v.reverse();
        assert_eq!(favourable(&v, Better::Lower), 101.0);
        assert_eq!(favourable(&[4.0], Better::Lower), 4.0);
        assert_eq!(favourable(&[6.0, 4.0], Better::Lower), 4.0);
        assert_eq!(favourable(&[6.0, 4.0], Better::Higher), 6.0);
        let sixty: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(favourable(&sixty, Better::Lower), 3.0);
        assert_eq!(favourable(&sixty, Better::Higher), 58.0);
    }

    #[test]
    fn pooled_ratio_weights_by_denominator() {
        // 1/10 and 90/90 pool to 91/100, not to the mean of the ratios.
        assert_eq!(pooled_ratio([(1, 10), (90, 90)]), 0.91);
        assert_eq!(pooled_ratio([(0, 0)]), 0.0);
        assert_eq!(pooled_ratio(std::iter::empty()), 0.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quartiles(&v), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
