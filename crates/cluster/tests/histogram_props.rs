//! Property-based coverage for `LatencyHistogram`, the distribution the
//! service's sojourn times and per-transaction attribution are read from:
//! percentiles are monotone in `q`, bounded by the true extremes, and
//! exact for a single sample.

use ac_cluster::LatencyHistogram;
use proptest::prelude::*;

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

proptest! {
    #[test]
    fn percentiles_are_monotone_in_q(samples in proptest::collection::vec(any::<u64>(), 1..200)) {
        let h = hist_of(&samples);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];
        let ps: Vec<u64> = qs.iter().map(|&q| h.percentile(q)).collect();
        for w in ps.windows(2) {
            prop_assert!(w[0] <= w[1], "percentiles not monotone: {ps:?}");
        }
        prop_assert!(h.p50() <= h.p90());
        prop_assert!(h.p90() <= h.p99());
        prop_assert!(h.p99() <= h.p999());
        prop_assert!(h.p999() <= h.max());
    }

    #[test]
    fn percentiles_are_bounded_by_true_extremes(
        samples in proptest::collection::vec(0u64..1_000_000_000, 1..200),
    ) {
        let h = hist_of(&samples);
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        prop_assert_eq!(h.min(), lo);
        prop_assert_eq!(h.max(), hi);
        prop_assert_eq!(h.count(), samples.len() as u64);
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let p = h.percentile(q);
            prop_assert!(p >= lo && p <= hi, "p({q}) = {p} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn relative_error_is_bounded_by_the_bucket_width(v in 16u64..u64::MAX) {
        // A single sample's percentile is clamped to [min, max] = [v, v],
        // so exactness holds even though the bucket is coarse.
        let h = hist_of(&[v]);
        prop_assert_eq!(h.percentile(0.5), v);
    }
}
