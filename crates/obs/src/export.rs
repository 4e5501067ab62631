//! Cross-process export of a node's observability state, and the
//! cluster-level dump a collector assembles from them.
//!
//! A multi-process cluster strands each node's flight recorder and meters
//! in its own process. [`ObsExport`] is the compact [`Wire`]-encoded
//! snapshot a node ships over its existing client connection when asked
//! (`ObsPull` → `ObsDump` in the cluster codec);
//! [`Attribution::from_exports`] re-stamps every export's
//! flight events through its node's [`ClockAlignment`] and indexes them
//! where they lie, folding them as [`Attribution::compute`] does, so the
//! telescoping exactness (stages sum to measured end-to-end latency per
//! transaction) survives the process boundary untouched — alignment
//! error shifts *where* a stage boundary falls, never the total.
//!
//! [`ClusterDump`] is the collector's file format: the client-observed
//! transaction outcomes, every node's export, and every node's
//! alignment (with its uncertainty), behind an 8-byte magic so tools
//! can sniff dump files apart from JSON baselines.

use ac_sim::{wire_enum, wire_struct, Wire, WireError};

use crate::attribution::{Attribution, FlightIndex, SlotBox};
use crate::clock::ClockAlignment;
use crate::histogram::LatencyHistogram;
use crate::net::NetSnapshot;
use crate::stage::{FlightEvent, FlightStage, NodeObs, Stage};

wire_enum!(FlightStage { 0 => Dispatch, 1 => LockAcquired, 2 => WalForced, 3 => Decided });

wire_struct!(FlightEvent {
    txn,
    node,
    stage,
    at_nanos
});

/// One process's full observability state, snapshotted for shipping:
/// flight-recorder ring, per-stage meters, and the transport-layer
/// counters.
#[derive(Clone, Debug)]
pub struct ObsExport {
    /// The exporting node.
    pub node: u32,
    /// Flight events lost to ring wrap-around on this node.
    pub dropped_events: u64,
    /// `(count, total_nanos)` per [`Stage`], slot order.
    pub meters: Vec<(u64, u64)>,
    /// The retained flight events, timestamps on this node's clock.
    pub flight: Vec<FlightEvent>,
    /// Transport-layer counters at snapshot time.
    pub net: NetSnapshot,
}

impl ObsExport {
    /// Snapshot `obs` (and optionally the transport meters) as node
    /// `node`'s export.
    pub fn snapshot(node: u32, obs: &NodeObs, net: Option<NetSnapshot>) -> ObsExport {
        ObsExport {
            node,
            dropped_events: obs.flight.dropped(),
            meters: Stage::ALL.iter().map(|&s| obs.meters.get(s)).collect(),
            flight: obs.flight.events().to_vec(),
            net: net.unwrap_or_default(),
        }
    }

    /// The flight events mapped into the collector's timeline through
    /// `align` (which must be this node's alignment).
    pub fn aligned_flight<'a>(
        &'a self,
        align: &'a ClockAlignment,
    ) -> impl Iterator<Item = FlightEvent> + 'a {
        self.flight.iter().map(|ev| FlightEvent {
            at_nanos: align.apply(ev.at_nanos),
            ..*ev
        })
    }
}

wire_struct!(ObsExport {
    node,
    dropped_events,
    meters,
    flight,
    net
});

impl Attribution {
    /// Build the attribution from per-process exports: each export's
    /// flight events are mapped into the collector's timeline through
    /// its node's [`ClockAlignment`] (nodes without an alignment get the
    /// identity — e.g. recorders that already share the collector's
    /// epoch) and indexed where they lie, as [`Attribution::compute`]
    /// indexes its one stream. With zero-offset alignments this is
    /// *identical* to computing over the single merged in-process
    /// recorder.
    pub fn from_exports(
        decided: &[(u64, u64, u64)],
        exports: &[ObsExport],
        alignments: &[ClockAlignment],
        keep_slowest: usize,
    ) -> Attribution {
        let slots = SlotBox::around(decided.iter().map(|d| d.0));
        let events = exports.iter().map(|e| e.flight.len()).sum();
        let mut index = FlightIndex::<()>::with_slots(slots, events);
        let mut dropped = 0u64;
        for ex in exports {
            let align = alignments
                .iter()
                .find(|a| a.node == ex.node)
                .copied()
                .unwrap_or_else(|| ClockAlignment::identity(ex.node));
            index.add(ex.aligned_flight(&align));
            dropped += ex.dropped_events;
        }
        Attribution::fold(decided, &index, keep_slowest, dropped)
    }
}

/// The worst (largest) alignment uncertainty across `alignments`, in
/// nanoseconds — what a cross-process attribution report surfaces so a
/// reader can bound how much of any stage split is clock error.
pub fn max_uncertainty_nanos(alignments: &[ClockAlignment]) -> u64 {
    alignments
        .iter()
        .map(|a| a.uncertainty_nanos)
        .max()
        .unwrap_or(0)
}

/// One client-observed transaction outcome in a [`ClusterDump`]:
/// submit/decide timestamps on the collector's clock.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DumpTxn {
    /// Transaction id.
    pub id: u64,
    /// Client handed the transaction to the service (nanos past the
    /// collector's epoch).
    pub submitted_nanos: u64,
    /// All replies in (nanos past the collector's epoch).
    pub decided_nanos: u64,
    /// Whether the unanimous decision was commit.
    pub committed: bool,
}

impl DumpTxn {
    /// `(txn, submitted, decided)` — the entry [`Attribution::compute`]
    /// takes per decided transaction.
    pub fn span(&self) -> (u64, u64, u64) {
        (self.id, self.submitted_nanos, self.decided_nanos)
    }
}

wire_struct!(DumpTxn {
    id,
    submitted_nanos,
    decided_nanos,
    committed
});

/// Run-level counters the collector knows without any export.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Transactions the workload generated.
    pub offered: u64,
    /// Arrivals shed at the client's outstanding cap (open loop only).
    pub shed: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Transactions abandoned at their deadline.
    pub stalled: u64,
    /// Wall-clock length of the load phase on the collector's clock:
    /// epoch (just before the first submit) to the last client done.
    pub elapsed_nanos: u64,
}

impl RunStats {
    /// Committed transactions per second of the load phase. Divides by
    /// the **full** wall time, ramp-up and drain included — fine for
    /// comparing closed-loop runs of identical shape, but it understates
    /// steady-state rates, which [`goodput_tps`] measures instead.
    pub fn throughput_tps(&self) -> f64 {
        self.committed as f64 / (self.elapsed_nanos as f64 / 1e9).max(1e-9)
    }
}

wire_struct!(RunStats {
    offered,
    shed,
    committed,
    aborted,
    stalled,
    elapsed_nanos
});

/// Sojourn-time histogram of a run's decided transactions: submit (the
/// scheduled arrival, in an open loop) to all replies in.
pub fn sojourn_times(txns: &[DumpTxn]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for t in txns {
        h.record(t.decided_nanos.saturating_sub(t.submitted_nanos));
    }
    h
}

/// Committed transactions per second over the **trimmed steady-state
/// window**: commits whose decision landed in the middle 80 % of the
/// run's elapsed time (the first and last 10 % excluded, the window
/// half-open), divided by that window's length. Ramp-up (clients
/// starting) and drain (stragglers completing after the schedule ends)
/// do not dilute the rate, so offered-vs-goodput curves compare like for
/// like across load steps — and across hosts: this is the one definition
/// every saturation step is computed by. Zero for an empty window.
pub fn goodput_tps(stats: &RunStats, txns: &[DumpTxn]) -> f64 {
    let lo = stats.elapsed_nanos / 10;
    let hi = stats.elapsed_nanos - lo;
    if hi <= lo {
        return 0.0;
    }
    let commits = txns
        .iter()
        .filter(|t| t.committed && (lo..hi).contains(&t.decided_nanos));
    commits.count() as f64 / ((hi - lo) as f64 / 1e9)
}

/// Leading magic of a serialized [`ClusterDump`] ("AC obs dump v3") —
/// lets `repro trace` sniff a dump file apart from a JSON baseline. v3
/// dumps name the host that ran the cluster (v2 did not, and v1 exports
/// carried per-stage histograms), so an older dump is refused rather
/// than misparsed.
pub const DUMP_MAGIC: [u8; 8] = *b"ACOBSDV3";

/// Everything a collector gathered from one multi-process run: the
/// client-observed outcomes, every node's export, every node's clock
/// alignment, and the run-level counters. Serializes behind
/// [`DUMP_MAGIC`].
#[derive(Clone, Debug)]
pub struct ClusterDump {
    /// Protocol name (`ProtocolKind` render, e.g. `"2PC"`).
    pub protocol: String,
    /// The host that ran the cluster: `"proc"` for a multi-process
    /// cluster, the transport's name (`"channel"`, `"tcp"`) for an
    /// in-process run kept as a dump.
    pub host: String,
    /// Cluster size.
    pub n: u32,
    /// Resilience parameter.
    pub f: u32,
    /// The protocol time unit, microseconds.
    pub unit_micros: u64,
    /// Client-observed transaction outcomes, collector clock.
    pub txns: Vec<DumpTxn>,
    /// Per-node clock alignments (with uncertainty bounds).
    pub alignments: Vec<ClockAlignment>,
    /// Per-node observability exports.
    pub exports: Vec<ObsExport>,
    /// Run-level counters.
    pub stats: RunStats,
}

impl ClusterDump {
    /// The decided-transaction list [`Attribution::from_exports`] wants:
    /// `(txn, submitted, decided)` for every decided transaction.
    pub fn decided(&self) -> Vec<(u64, u64, u64)> {
        self.txns.iter().map(DumpTxn::span).collect()
    }

    /// Compute the cross-process attribution of this dump.
    pub fn attribution(&self, keep_slowest: usize) -> Attribution {
        Attribution::from_exports(
            &self.decided(),
            &self.exports,
            &self.alignments,
            keep_slowest,
        )
    }

    /// Serialize: [`DUMP_MAGIC`] followed by the wire encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = DUMP_MAGIC.to_vec();
        self.encode(&mut out);
        out
    }

    /// Deserialize a [`ClusterDump::to_bytes`] image.
    pub fn from_bytes(bytes: &[u8]) -> Result<ClusterDump, WireError> {
        let Some(body) = bytes.strip_prefix(&DUMP_MAGIC[..]) else {
            return Err(WireError::Invalid("not a cluster dump (bad magic)"));
        };
        ClusterDump::from_wire(body)
    }

    /// Whether `bytes` starts with [`DUMP_MAGIC`].
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.starts_with(&DUMP_MAGIC[..])
    }
}

wire_struct!(ClusterDump {
    protocol,
    host,
    n,
    f,
    unit_micros,
    txns,
    alignments,
    exports,
    stats
});

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_obs() -> NodeObs {
        let mut obs = NodeObs::new();
        obs.record(Stage::LockAcquire, Duration::from_nanos(250));
        obs.record(Stage::WalForce, Duration::from_micros(40));
        obs.flight
            .record(8, 2, FlightStage::Dispatch, Duration::from_nanos(100));
        obs.flight
            .record(8, 2, FlightStage::Decided, Duration::from_nanos(900));
        obs
    }

    #[test]
    fn export_snapshot_round_trips() {
        let obs = sample_obs();
        let ex = ObsExport::snapshot(2, &obs, None);
        assert_eq!(ex.node, 2);
        assert_eq!(ex.meters.len(), Stage::COUNT);
        assert_eq!(ex.meters[Stage::LockAcquire as usize], (1, 250));
        assert_eq!(ex.flight.len(), 2);
        let back = ObsExport::from_wire(&ex.to_wire()).unwrap();
        assert_eq!(back.node, ex.node);
        assert_eq!(back.meters, ex.meters);
        assert_eq!(back.flight, ex.flight);
    }

    #[test]
    fn from_exports_with_identity_alignment_matches_compute() {
        // Two "processes", one recording node 0, the other node 1.
        let mut a = NodeObs::new();
        let mut b = NodeObs::new();
        for (obs, node, base) in [(&mut a, 0u32, 100u64), (&mut b, 1, 150)] {
            obs.flight
                .record(1, node, FlightStage::Dispatch, Duration::from_nanos(base));
            obs.flight.record(
                1,
                node,
                FlightStage::LockAcquired,
                Duration::from_nanos(base + 100),
            );
            obs.flight.record(
                1,
                node,
                FlightStage::Decided,
                Duration::from_nanos(base + 1_000),
            );
        }
        let decided = [(1u64, 0u64, 1_500u64)];
        let merged: Vec<FlightEvent> = a
            .flight
            .events()
            .iter()
            .chain(b.flight.events())
            .copied()
            .collect();
        let direct = Attribution::compute(&decided, &merged, 5, 0);
        let exports = [
            ObsExport::snapshot(0, &a, None),
            ObsExport::snapshot(1, &b, None),
        ];
        let via = Attribution::from_exports(&decided, &exports, &[], 5);
        assert_eq!((via.covered, via.total), (direct.covered, direct.total));
        assert_eq!(via.slowest, direct.slowest);
        for i in 0..5 {
            assert_eq!(via.stages[i].sum(), direct.stages[i].sum(), "stage {i}");
        }
    }

    #[test]
    fn from_exports_undoes_a_known_skew() {
        // Node 1's process booted 1 ms before the collector: its raw
        // stamps are 1_000_000 ns ahead. The alignment maps them back.
        let skew = 1_000_000u64;
        let mut obs = NodeObs::new();
        for (stage, at) in [
            (FlightStage::Dispatch, 100),
            (FlightStage::LockAcquired, 200),
            (FlightStage::Decided, 1_000),
        ] {
            obs.flight
                .record(2, 1, stage, Duration::from_nanos(at + skew));
        }
        let align = ClockAlignment {
            node: 1,
            offset_nanos: -(skew as i64),
            uncertainty_nanos: 300,
            rtt_nanos: 600,
            samples: 8,
        };
        let exports = [ObsExport::snapshot(1, &obs, None)];
        let a = Attribution::from_exports(&[(2, 0, 1_400)], &exports, &[align], 5);
        assert_eq!(a.covered, 1);
        let tl = a.slowest[0];
        assert_eq!(tl.dispatch_nanos, 100);
        assert_eq!(tl.stage_nanos().iter().sum::<u64>(), tl.e2e_nanos());
        assert_eq!(max_uncertainty_nanos(&[align]), 300);
    }

    #[test]
    fn goodput_counts_commits_in_the_half_open_middle_of_the_run() {
        let txn = |decided_nanos: u64, committed: bool| DumpTxn {
            id: decided_nanos,
            submitted_nanos: decided_nanos.saturating_sub(40),
            decided_nanos,
            committed,
        };
        let stats = RunStats {
            elapsed_nanos: 1_000,
            ..RunStats::default()
        };
        // Window [100, 900): 99 and 900 are outside, 100 and 899 inside,
        // an abort never counts.
        let txns = [
            txn(99, true),
            txn(100, true),
            txn(500, false),
            txn(899, true),
            txn(900, true),
        ];
        assert_eq!(goodput_tps(&stats, &txns), 2.0 / 800e-9);
        assert_eq!(goodput_tps(&RunStats::default(), &txns), 0.0);
        let h = sojourn_times(&txns);
        assert_eq!((h.count(), h.min(), h.max()), (5, 40, 40));
    }

    #[test]
    fn cluster_dump_round_trips_and_sniffs() {
        let obs = sample_obs();
        let dump = ClusterDump {
            protocol: "2PC".to_string(),
            host: "proc".to_string(),
            n: 4,
            f: 1,
            unit_micros: 5_000,
            txns: vec![DumpTxn {
                id: 8,
                submitted_nanos: 10,
                decided_nanos: 1_200,
                committed: true,
            }],
            alignments: vec![ClockAlignment::identity(2)],
            exports: vec![ObsExport::snapshot(2, &obs, None)],
            stats: RunStats {
                offered: 1,
                committed: 1,
                elapsed_nanos: 2_000,
                ..RunStats::default()
            },
        };
        let bytes = dump.to_bytes();
        assert!(ClusterDump::sniff(&bytes));
        assert!(!ClusterDump::sniff(b"{\"json\": true}"));
        let back = ClusterDump::from_bytes(&bytes).unwrap();
        assert_eq!(back.protocol, "2PC");
        assert_eq!(back.txns, dump.txns);
        assert_eq!(back.stats, dump.stats);
        assert_eq!(back.decided(), vec![(8, 10, 1_200)]);
        assert!(ClusterDump::from_bytes(b"garbage").is_err());
        // A v1 dump (its exports carried histograms) is refused by its
        // magic, not misparsed.
        let mut v1 = bytes.clone();
        v1[..8].copy_from_slice(b"ACOBSDV1");
        assert!(!ClusterDump::sniff(&v1));
        let err = ClusterDump::from_bytes(&v1).unwrap_err();
        assert!(matches!(err, WireError::Invalid(m) if m.contains("bad magic")));
        // The dump's own attribution path works end to end.
        let attr = back.attribution(3);
        assert_eq!(attr.total, 1);
    }
}
