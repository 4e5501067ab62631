//! One run, one record: a [`Cell`] is what every live sweep reads its row
//! from, and [`run_cell`] serves one [`ServiceConfig`] on one of exactly
//! three [`Host`]s — in-process over channels, in-process over loopback
//! TCP (both [`ac_cluster::run_service_faulted`]), or real `ac-node` /
//! `ac-client` processes ([`ProcHost`]). Whoever served the run, a field
//! of the record is computed by the same function from the same inputs —
//! the run-level counters, the client-side list of decided transactions
//! and the nodes' flight events — so a baseline row means the same thing
//! in a `"channel"`, a `"tcp"` and a `"proc"` entry.

use ac_cluster::{
    run_service_faulted, Attribution, FaultSpec, LatencyHistogram, ServiceConfig, ServiceOutcome,
    TransportKind, SLOWEST_KEPT,
};
use ac_obs::{goodput_tps, max_uncertainty_nanos, sojourn_times, ClusterDump, DumpTxn, RunStats};

use crate::procrun::ProcHost;

/// Who serves a cell.
#[derive(Copy, Clone)]
pub enum Host<'a> {
    /// Node and client threads of this process, in-process channels.
    Channel,
    /// The same threads, every envelope through the wire codec and a
    /// loopback socket.
    Tcp,
    /// One OS process per node plus a client process, spawned by the
    /// given [`ProcHost`].
    Proc(&'a ProcHost),
}

impl Host<'_> {
    /// The in-process host of `transport`.
    pub fn of(transport: TransportKind) -> Host<'static> {
        match transport {
            TransportKind::Channel => Host::Channel,
            TransportKind::Tcp => Host::Tcp,
        }
    }

    /// The `transport` marker of a baseline row this host measured.
    pub fn name(&self) -> &'static str {
        match self {
            Host::Proc(_) => "proc",
            in_process => in_process.transport().name(),
        }
    }

    /// What carries the envelopes: sockets between processes, too.
    pub fn transport(&self) -> TransportKind {
        match self {
            Host::Channel => TransportKind::Channel,
            Host::Tcp | Host::Proc(_) => TransportKind::Tcp,
        }
    }

    /// Whether a cell can run with the write-ahead log on. An `ac-node`
    /// has no log: its log would have to outlive the process, in a file
    /// the spec cannot name yet.
    pub fn durable(&self) -> bool {
        !matches!(self, Host::Proc(_))
    }
}

/// The record of one served run.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Offered, shed, committed, aborted, stalled; the length of the load
    /// phase.
    pub stats: RunStats,
    /// Sojourn time of every fully decided transaction
    /// ([`ac_obs::sojourn_times`]).
    pub sojourn: LatencyHistogram,
    /// Committed transactions per second over the middle 80 % of the load
    /// phase ([`ac_obs::goodput_tps`]).
    pub goodput_tps: f64,
    /// Write-ahead-log force operations across all nodes; 0 on a run
    /// without a log, which is every run of the `proc` host.
    pub wal_forces: usize,
    /// Protocol messages that crossed node boundaries: counted where a
    /// node's flush hands them to the transport in-process, node-to-node
    /// frames of every node's transport counters on the `proc` host.
    pub wire_messages: u64,
    /// Findings of the post-run audit, orphaned envelopes included. In
    /// process, `service::aggregate` counts them. On the `proc` host each
    /// process audits its own half and exits non-zero on a finding, which
    /// fails the run before a cell is built — so there it is 0, measured.
    pub audit_findings: usize,
    /// The five-stage telescoping decomposition of every covered commit.
    pub attribution: Attribution,
    /// Worst per-node clock-alignment uncertainty, microseconds: `None`
    /// in process (one clock, nothing to align).
    pub alignment_max_uncertainty_micros: Option<f64>,
}

impl Cell {
    /// The one fold: everything a host can say about a run, in.
    fn new(
        stats: RunStats,
        decided: &[DumpTxn],
        attribution: Attribution,
        wal_forces: usize,
        wire_messages: u64,
        audit_findings: usize,
        alignment_max_uncertainty_micros: Option<f64>,
    ) -> Cell {
        Cell {
            stats,
            sojourn: sojourn_times(decided),
            goodput_tps: goodput_tps(&stats, decided),
            wal_forces,
            wire_messages,
            audit_findings,
            attribution,
            alignment_max_uncertainty_micros,
        }
    }

    /// The record of an in-process run.
    pub fn of_outcome(out: ServiceOutcome) -> Cell {
        Cell::new(
            out.run_stats(),
            &out.decided,
            out.attribution,
            out.wal_forces,
            out.wire_messages as u64,
            out.violations.len() + out.orphaned_envelopes,
            None,
        )
    }

    /// The record of a multi-process run, from the dump its client
    /// collected (which exists only if every process exited clean).
    pub fn of_dump(dump: &ClusterDump) -> Cell {
        Cell::new(
            dump.stats,
            &dump.txns,
            dump.attribution(SLOWEST_KEPT),
            0,
            dump.exports.iter().map(|e| e.net.frames_out()).sum(),
            0,
            Some(max_uncertainty_nanos(&dump.alignments) as f64 / 1e3),
        )
    }

    /// `count` per fully served transaction.
    pub fn per_txn(&self, count: f64) -> f64 {
        count / (self.stats.committed + self.stats.aborted).max(1) as f64
    }
}

/// Serve `cfg` on `host` — with the write-ahead log and group commit on
/// if `durable` — and return the run's record. `cfg.transport` must be
/// the host's. `Err` only from the `proc` host: a configuration its spec
/// file cannot express, a durable run, a process that could not be
/// spawned or did not exit clean.
pub fn run_cell(host: Host, cfg: &ServiceConfig, durable: bool) -> Result<Cell, String> {
    assert_eq!(cfg.transport, host.transport(), "{} host", host.name());
    match host {
        Host::Channel | Host::Tcp => {
            let faults = FaultSpec {
                durable,
                ..FaultSpec::none(cfg.n)
            };
            Ok(Cell::of_outcome(run_service_faulted(cfg, &faults)))
        }
        Host::Proc(_) if durable => Err("the proc host has no write-ahead log".into()),
        Host::Proc(procs) => Ok(Cell::of_dump(&procs.run(cfg)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_commit::protocols::ProtocolKind;
    use ac_obs::{ClockAlignment, NetSnapshot, ObsExport};

    /// The hosts agree by construction: the record of an in-process run
    /// and the record of the cluster dump a multi-process client would
    /// have written of that same run — its client-side list, its
    /// counters, each node's flight events as that node's export, clocks
    /// already aligned — are the same record.
    #[test]
    fn an_in_process_run_and_its_cluster_dump_read_as_the_same_cell() {
        let n = 4;
        let cfg = ServiceConfig::new(n, 1, ProtocolKind::TwoPc)
            .clients(4)
            .txns_per_client(120)
            .keys_per_shard(16)
            .arrival_rate(600.0)
            .max_outstanding(4);
        let out = run_service_faulted(&cfg, &FaultSpec::none(n));
        assert!(out.is_safe(), "{:?}", out.violations);
        let nodes = 0..n as u32;
        let dump = ClusterDump {
            protocol: cfg.kind.name().into(),
            n: n as u32,
            f: 1,
            unit_micros: cfg.unit.as_micros() as u64,
            txns: out.decided.clone(),
            alignments: nodes.clone().map(ClockAlignment::identity).collect(),
            exports: nodes
                .map(|node| ObsExport {
                    node,
                    dropped_events: 0,
                    meters: Vec::new(),
                    hists: Vec::new(),
                    flight: out
                        .flight
                        .iter()
                        .filter(|e| e.node == node)
                        .copied()
                        .collect(),
                    net: NetSnapshot::default(),
                })
                .collect(),
            stats: out.run_stats(),
        };
        let client_side = out.latency.clone();
        let (proc, here) = (Cell::of_dump(&dump), Cell::of_outcome(out));

        assert_eq!(here.stats, proc.stats);
        assert_eq!(here.stats.offered, 480);
        assert!(here.stats.committed > 0 && here.goodput_tps > 0.0);
        assert_eq!(here.goodput_tps, proc.goodput_tps);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(here.sojourn.percentile(q), proc.sojourn.percentile(q));
            // …and is what the clients' own histograms merge to.
            assert_eq!(here.sojourn.percentile(q), client_side.percentile(q));
        }
        assert_eq!(here.attribution.covered, proc.attribution.covered);
        for stage in 0..5 {
            let (a, b) = (&here.attribution, &proc.attribution);
            assert_eq!(a.share_pct(stage), b.share_pct(stage), "stage {stage}");
        }
        assert_eq!(
            (here.wal_forces, proc.wal_forces),
            (0, 0),
            "no log, no force"
        );
        assert_eq!((here.audit_findings, proc.audit_findings), (0, 0));
    }
}
