//! One run, one record: a [`Cell`] is what every live sweep reads its row
//! from, and [`run_cell`] serves one [`ServiceConfig`] under one
//! [`FaultSpec`] on one of exactly three [`Host`]s — in-process over
//! channels, in-process over loopback TCP (both
//! [`ac_cluster::run_service_faulted`]), or real `ac-node` / `ac-client`
//! processes ([`ProcHost`]). Whoever served the run, a field of the record
//! is computed by the same function from the same inputs — the run-level
//! counters, the client-side list of decided transactions and the nodes'
//! flight events — so a baseline row means the same thing in a
//! `"channel"`, a `"tcp"` and a `"proc"` entry. A field a host cannot
//! measure says so in its documentation, and reads 0 (or empty) there.

use ac_cluster::{
    run_service_faulted, Attribution, FaultSpec, LatencyHistogram, ServiceConfig, ServiceOutcome,
    Stage, TransportKind, TxnEvent, SLOWEST_KEPT,
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

/// The record of one served run (by default, of a run in which nothing
/// happened).
#[derive(Clone, Debug, Default)]
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
    /// Findings of the post-run audit, orphaned envelopes and split
    /// decisions included. In process, `service::aggregate` counts them.
    /// On the `proc` host each process audits its own half and exits
    /// non-zero on a finding, which fails the run before a cell is built —
    /// so there it is 0, measured.
    pub audit_findings: usize,
    /// Fully answered transactions whose participants reported different
    /// decisions; each is also one audit finding. 0, measured, on the
    /// `proc` host: `ac-client` exits non-zero on a split.
    pub split: usize,
    /// Protocol round timers the node loops fired ([`Stage::TimerFire`]):
    /// from the merged stage meters in process, summed over every node's
    /// exported meters on the `proc` host.
    pub timer_fires: u64,
    /// Host wakeups that found no work; 0 on the `proc` host, whose
    /// nodes do not export the count.
    pub spurious_wakeups: usize,
    /// Client `Begin` re-sends; 0 on the `proc` host, whose dump does not
    /// carry the count.
    pub retries: usize,
    /// Envelopes the fault policy dropped; 0 on the `proc` host, which
    /// serves no fault policy ([`run_cell`]).
    pub dropped_messages: usize,
    /// Every transaction's client-side timeline, abandoned ones included
    /// — what a fault window is bucketed against. Empty on the `proc`
    /// host, whose dump carries only the decided transactions.
    pub txn_events: Vec<TxnEvent>,
    /// The five-stage telescoping decomposition of every covered commit.
    pub attribution: Attribution,
    /// Worst per-node clock-alignment uncertainty, microseconds: `None`
    /// in process (one clock, nothing to align).
    pub alignment_max_uncertainty_micros: Option<f64>,
}

impl Cell {
    /// The one fold of what every host says of a run: its counters, its
    /// decided transactions and their attribution. Every other field
    /// starts at 0, which is what a host that cannot measure it reports.
    fn new(stats: RunStats, decided: &[DumpTxn], attribution: Attribution) -> Cell {
        Cell {
            stats,
            sojourn: sojourn_times(decided),
            goodput_tps: goodput_tps(&stats, decided),
            attribution,
            ..Cell::default()
        }
    }

    /// The record of an in-process run.
    pub fn of_outcome(out: ServiceOutcome) -> Cell {
        let record = Cell::new(out.run_stats(), &out.decided, out.attribution);
        Cell {
            wal_forces: out.wal_forces,
            wire_messages: out.wire_messages as u64,
            audit_findings: out.violations.len() + out.orphaned_envelopes,
            // `txns` counts a split transaction, `committed` and `aborted` do not.
            split: out.txns - out.committed - out.aborted,
            timer_fires: out.stage_meters.get(Stage::TimerFire).0,
            spurious_wakeups: out.spurious_wakeups,
            retries: out.retries,
            dropped_messages: out.dropped_messages,
            txn_events: out.txn_events,
            ..record
        }
    }

    /// The record of a multi-process run, from the dump its client
    /// collected (which exists only if every process exited clean).
    pub fn of_dump(dump: &ClusterDump) -> Cell {
        let fires =
            |meters: &[(u64, u64)]| meters.get(Stage::TimerFire as usize).map_or(0, |m| m.0);
        Cell {
            wire_messages: dump.exports.iter().map(|e| e.net.frames_out()).sum(),
            timer_fires: dump.exports.iter().map(|e| fires(&e.meters)).sum(),
            alignment_max_uncertainty_micros: Some(
                max_uncertainty_nanos(&dump.alignments) as f64 / 1e3,
            ),
            ..Cell::new(dump.stats, &dump.txns, dump.attribution(SLOWEST_KEPT))
        }
    }

    /// Transactions fully answered: committed, aborted or split.
    pub fn txns(&self) -> usize {
        (self.stats.committed + self.stats.aborted) as usize + self.split
    }

    /// `count` per fully served transaction.
    pub fn per_txn(&self, count: f64) -> f64 {
        count / (self.stats.committed + self.stats.aborted).max(1) as f64
    }
}

/// Serve `cfg` on `host` under `faults` — its write-ahead log, crash
/// windows and fault policy — and return the run's record. `cfg.transport`
/// must be the host's. `Err` only from the `proc` host: a configuration
/// its spec file cannot express, a fault spec with a log, a crash or a
/// policy (an `ac-node` has none of the three), a process that could not
/// be spawned or did not exit clean.
pub fn run_cell(host: Host, cfg: &ServiceConfig, faults: &FaultSpec) -> Result<Cell, String> {
    assert_eq!(cfg.transport, host.transport(), "{} host", host.name());
    match host {
        Host::Channel | Host::Tcp => Ok(Cell::of_outcome(run_service_faulted(cfg, faults))),
        Host::Proc(_) if faults.durable || faults.any_crash() || faults.policy.is_some() => {
            Err("the proc host has no write-ahead log and injects no fault".into())
        }
        Host::Proc(procs) => Ok(Cell::of_dump(&procs.run(cfg)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_commit::protocols::ProtocolKind;

    /// The hosts agree by construction: the record of an in-process run
    /// and the record of the cluster dump a multi-process client would
    /// have written of that same run — its client-side list, its
    /// counters, each node's flight events as that node's export (node 0's
    /// carrying the run's meters), clocks already aligned — are the same
    /// record.
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
        let dump = out.cluster_dump(&cfg);
        let (proc, here) = (Cell::of_dump(&dump), Cell::of_outcome(out));

        assert_eq!(here.stats, proc.stats);
        assert_eq!(here.stats.offered, 480);
        assert!(here.stats.committed > 0 && here.goodput_tps > 0.0);
        assert_eq!(here.goodput_tps, proc.goodput_tps);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(here.sojourn.percentile(q), proc.sojourn.percentile(q));
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
        // Timer fires: every node's exported `TimerFire` slot counts.
        assert_eq!(here.timer_fires, proc.timer_fires);
        let mut fired = dump;
        fired.exports[3].meters = fired.exports[0].meters.clone();
        fired.exports[3].meters[Stage::TimerFire as usize].0 += 2;
        let twice = 2 * here.timer_fires + 2;
        assert_eq!(Cell::of_dump(&fired).timer_fires, twice);
    }
}
