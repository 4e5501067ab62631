//! Property-based coverage for the cross-process export path: (1)
//! attribution over N per-process exports with zero-skew alignments is
//! *identical* to attribution over the single merged in-process recorder;
//! (2) export wire round trips are lossless; (3) the min-RTT offset
//! estimator recovers an injected skew within its own reported
//! uncertainty bound; (4) a cluster dump carrying every obs record
//! encodes to pinned bytes, so a dump file written before a layout
//! change still reads after it.

use ac_obs::{
    Attribution, ClockAlignment, ClockSample, ClusterDump, DumpTxn, FlightEvent, FlightStage,
    NetSnapshot, NodeObs, ObsExport, PeerNet, RunStats,
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

/// Golden bytes: one [`ClusterDump`] that carries every obs record —
/// each [`FlightStage`], a [`FlightEvent`], an [`ObsExport`] with its
/// [`NetSnapshot`] and a [`PeerNet`], a [`DumpTxn`], a [`ClockAlignment`]
/// with a negative offset, and [`RunStats`] — against pinned hex: the
/// bytes the hand-coded encoders these declarations replaced wrote, with
/// the v3 magic and the host that dump version added. A dump file written
/// before a layout change must read back after it.
#[test]
fn a_cluster_dump_encodes_to_its_pinned_bytes() {
    let flight = STAGES
        .iter()
        .zip(1u64..)
        .map(|(&stage, i)| FlightEvent {
            txn: 0x10 + i,
            node: 1,
            stage,
            at_nanos: 0x20 + i,
        })
        .collect();
    let dump = ClusterDump {
        protocol: "2PC".to_string(),
        host: "proc".to_string(),
        n: 4,
        f: 1,
        unit_micros: 5_000,
        txns: vec![DumpTxn {
            id: 0x30,
            submitted_nanos: 0x31,
            decided_nanos: 0x32,
            committed: true,
        }],
        alignments: vec![ClockAlignment {
            node: 1,
            offset_nanos: -0x40,
            uncertainty_nanos: 0x41,
            rtt_nanos: 0x42,
            samples: 16,
        }],
        exports: vec![ObsExport {
            node: 1,
            dropped_events: 0x50,
            meters: vec![(0x51, 0x52), (0x53, 0x54)],
            flight,
            net: NetSnapshot {
                peers: vec![PeerNet {
                    bytes_out: 0x60,
                    frames_out: 0x61,
                    reconnects: 0x62,
                    dial_failures: 0x63,
                    outbox_hiwater: 0x64,
                }],
                bytes_in: 0x65,
                frames_in: 0x66,
                decode_errors: 0x67,
                resyncs: 0x68,
            },
        }],
        stats: RunStats {
            offered: 0x70,
            shed: 0x71,
            committed: 0x72,
            aborted: 0x73,
            stalled: 0x74,
            elapsed_nanos: 0x75,
        },
    };
    let bytes = dump.to_bytes();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    let want = concat!(
        "41434f4253445633030000003250430400000070726f63040000000100000088",
        "1300000000000001000000300000000000000031000000000000003200000000",
        "000000010100000001000000c0ffffffffffffff410000000000000042000000",
        "0000000010000000010000000100000050000000000000000200000051000000",
        "0000000052000000000000005300000000000000540000000000000004000000",
        "1100000000000000010000000021000000000000001200000000000000010000",
        "0001220000000000000013000000000000000100000002230000000000000014",
        "0000000000000001000000032400000000000000010000006000000000000000",
        "6100000000000000620000000000000063000000000000006400000000000000",
        "6500000000000000660000000000000067000000000000006800000000000000",
        "7000000000000000710000000000000072000000000000007300000000000000",
        "74000000000000007500000000000000",
    );
    assert_eq!(hex, want, "the dump's encoding moved");
    let back = ClusterDump::from_bytes(&bytes).unwrap();
    assert_eq!(back.to_bytes(), bytes);
}
