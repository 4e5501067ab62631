//! Property-based coverage for the cross-process export path (ISSUE-10
//! satellite): (1) attribution over N per-process exports with zero-skew
//! alignments is *identical* to attribution over the single merged
//! in-process recorder; (2) export wire round trips are lossless; (3) the
//! min-RTT offset estimator recovers an injected skew within its own
//! reported uncertainty bound.

use ac_obs::{
    Attribution, ClockAlignment, ClockSample, FlightEvent, FlightStage, NodeObs, ObsExport,
};
use ac_sim::Wire;
use proptest::prelude::*;
use std::time::Duration;

const STAGES: [FlightStage; 4] = [
    FlightStage::Dispatch,
    FlightStage::LockAcquired,
    FlightStage::WalForced,
    FlightStage::Decided,
];

/// A synthetic per-node event stream: each `(txn, stage_idx, at)` tuple
/// becomes a flight event on that node.
fn obs_from(node: u32, raw: &[(u8, u8, u32)]) -> NodeObs {
    let mut obs = NodeObs::new();
    for &(txn, stage, at) in raw {
        obs.flight.record(
            u64::from(txn % 8),
            node,
            STAGES[(stage % 4) as usize],
            Duration::from_nanos(u64::from(at)),
        );
    }
    obs
}

proptest! {
    /// Zero-skew equivalence: splitting a recorder's events across N
    /// process exports (aligned with zero offset) changes nothing about
    /// the computed attribution.
    #[test]
    fn n_exports_with_zero_skew_equal_the_merged_recorder(
        per_node in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>()), 0..40),
            1..5,
        ),
        decided in proptest::collection::vec((0u64..8, 0u32..100, 100u32..1_000_000), 0..12),
    ) {
        let obses: Vec<NodeObs> = per_node
            .iter()
            .enumerate()
            .map(|(node, raw)| obs_from(node as u32, raw))
            .collect();
        let decided: Vec<(u64, u64, u64)> = decided
            .iter()
            .map(|&(txn, sub, dec)| (txn, u64::from(sub), u64::from(sub) + u64::from(dec)))
            .collect();

        let merged: Vec<FlightEvent> = obses
            .iter()
            .flat_map(|o| o.flight.events().iter().copied())
            .collect();
        let direct = Attribution::compute(&decided, &merged, 5, 0);

        let exports: Vec<ObsExport> = obses
            .iter()
            .enumerate()
            .map(|(node, o)| ObsExport::snapshot(node as u32, o, None))
            .collect();
        let alignments: Vec<ClockAlignment> = (0..obses.len())
            .map(|node| ClockAlignment::identity(node as u32))
            .collect();
        let via = Attribution::from_exports(&decided, &exports, &alignments, 5);

        prop_assert_eq!(via.covered, direct.covered);
        prop_assert_eq!(via.total, direct.total);
        prop_assert_eq!(&via.slowest, &direct.slowest);
        prop_assert_eq!(via.e2e.sum(), direct.e2e.sum());
        for i in 0..5 {
            prop_assert_eq!(via.stages[i].sum(), direct.stages[i].sum(), "stage {}", i);
            prop_assert_eq!(via.stages[i].count(), direct.stages[i].count(), "stage {}", i);
        }
        // Telescoping exactness survives the export boundary.
        for tl in &via.slowest {
            prop_assert_eq!(tl.stage_nanos().iter().sum::<u64>(), tl.e2e_nanos());
        }
    }

    /// Export wire round trips are lossless for the attribution-relevant
    /// state (flight events, drop counter, meters).
    #[test]
    fn export_wire_round_trip_is_lossless(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>()), 0..60),
        samples in proptest::collection::vec(any::<u32>(), 0..60),
    ) {
        let mut obs = obs_from(3, &raw);
        for &v in &samples {
            obs.record(ac_obs::Stage::Flush, Duration::from_nanos(u64::from(v)));
        }
        let ex = ObsExport::snapshot(3, &obs, None);
        let back = ObsExport::from_wire(&ex.to_wire()).unwrap();
        prop_assert_eq!(back.node, ex.node);
        prop_assert_eq!(back.flight, ex.flight);
        prop_assert_eq!(back.dropped_events, ex.dropped_events);
        prop_assert_eq!(back.meters, ex.meters);
    }

    /// Skew recovery: inject a known per-process offset into synthetic
    /// echo round trips (arbitrary asymmetric one-way delays). The
    /// min-RTT estimate must land within its own uncertainty bound of
    /// the true offset.
    #[test]
    fn estimator_recovers_injected_skew_within_uncertainty(
        true_offset in -1_000_000_000i64..1_000_000_000,
        delays in proptest::collection::vec((1u64..2_000_000, 1u64..2_000_000), 1..24),
    ) {
        let mut t = 2_000_000_000u64; // collector clock cursor
        let samples: Vec<ClockSample> = delays
            .iter()
            .map(|&(up, down)| {
                let t0 = t;
                // The node stamps its clock when the request arrives:
                // collector time t0+up, node time (t0+up) - offset.
                let node_nanos = u64::try_from(
                    i128::from(t0 + up) - i128::from(true_offset),
                ).unwrap();
                let t1 = t0 + up + down;
                t = t1 + 50_000;
                ClockSample { t0_nanos: t0, node_nanos, t1_nanos: t1 }
            })
            .collect();
        let est = ClockAlignment::estimate(0, &samples).unwrap();
        let err = (est.offset_nanos - true_offset).unsigned_abs();
        prop_assert!(
            err <= est.uncertainty_nanos,
            "error {} exceeds reported uncertainty {} (rtt {})",
            err, est.uncertainty_nanos, est.rtt_nanos
        );
        // And applying the alignment undoes the skew to within the bound.
        let node_stamp = 5_000_000_000u64;
        let collector_true = u64::try_from(
            i128::from(node_stamp) + i128::from(true_offset),
        ).unwrap();
        let mapped = est.apply(node_stamp);
        prop_assert!(mapped.abs_diff(collector_true) <= est.uncertainty_nanos);
    }
}
