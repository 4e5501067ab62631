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
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::procrun::ProcHost;

/// Where [`run_cell`] keeps a failed in-process run: the workspace's
/// `target/ac-failures/`, beside the runs the live suites keep.
const FAILURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/ac-failures");

/// Who serves a cell.
#[derive(Copy, Clone)]
pub enum Host<'a> {
    /// Host threads of this process, in-process channels.
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
    /// Protocol round timers the node loops fired ([`Stage::TimerFire`],
    /// which a node adds to as each timer fires): from the merged stage
    /// meters in process, summed over every node's exported meters on the
    /// `proc` host — the export a node answers the collector with mid-run.
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
    /// Wall-clock of the post-run fold that audited and attributed the
    /// run ([`ServiceOutcome::fold`]): `None` on the `proc` host, whose
    /// processes each audit their own half.
    pub fold: Option<Duration>,
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
    pub fn of_outcome(out: &ServiceOutcome) -> Cell {
        let record = Cell::new(out.run_stats(), &out.decided(), out.attribution.clone());
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
            txn_events: out.txn_events.clone(),
            fold: Some(out.fold),
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

    /// Post-run fold nanoseconds per fully served transaction (`None`
    /// where [`Cell::fold`] is).
    pub fn fold_ns_per_txn(&self) -> Option<f64> {
        self.fold.map(|d| self.per_txn(d.as_nanos() as f64))
    }
}

/// Serve `cfg` on `host` under `faults` — its write-ahead log, crash
/// windows and fault policy — and return the run's record. `cfg.transport`
/// must be the host's. An in-process run whose audit found something or
/// whose transactions stalled is kept first ([`ServiceOutcome::keep`]) in
/// the workspace's `target/ac-failures/` as
/// `<protocol>-<host>-c<clients>-s<seed>-<k>`, the `k`-th run this process
/// kept. `Err` only from the `proc` host: a configuration its spec file
/// cannot express, a fault spec with a log, a crash or a policy (an
/// `ac-node` has none of the three), a process that could not be spawned
/// or did not exit clean.
pub fn run_cell(host: Host, cfg: &ServiceConfig, faults: &FaultSpec) -> Result<Cell, String> {
    run_judged_cell(host, cfg, faults, |_| None)
}

/// [`run_cell`], whose record `judge` reads into the row a section
/// renders of it, returning that row when it fails. A run whose row
/// failed is kept as an unsafe or stalled one is, with the row beside it
/// as `<stem>.row`. Of a `proc` run only the row is kept: its client
/// leaves the dump it collected in the working directory (`proc-*.dump`).
pub fn run_judged_cell(
    host: Host,
    cfg: &ServiceConfig,
    faults: &FaultSpec,
    judge: impl FnOnce(&Cell) -> Option<String>,
) -> Result<Cell, String> {
    assert_eq!(cfg.transport, host.transport(), "{} host", host.name());
    let (cell, out) = match host {
        Host::Channel | Host::Tcp => {
            let out = run_service_faulted(cfg, faults);
            (Cell::of_outcome(&out), Some(out))
        }
        Host::Proc(_) if faults.durable || faults.plan.any() => {
            return Err("the proc host has no write-ahead log and injects no fault".into());
        }
        Host::Proc(procs) => (Cell::of_dump(&procs.run(cfg)?), None),
    };
    let failed = judge(&cell);
    let unclean = out.as_ref().is_some_and(|o| !o.is_safe() || o.stalled > 0);
    if unclean || failed.is_some() {
        static KEPT: AtomicUsize = AtomicUsize::new(0);
        let k = KEPT.fetch_add(1, Ordering::Relaxed);
        let (kind, clients, seed) = (cfg.kind.name(), cfg.clients, cfg.seed);
        let stem = format!("{kind}-{}-c{clients}-s{seed}-{k}", host.name());
        // Evidence only: a run that cannot be kept is still measured.
        let dir = Path::new(FAILURES);
        let _ = std::fs::create_dir_all(dir);
        if let Some(out) = out {
            let _ = out.keep(cfg, dir, &stem);
        }
        if let Some(row) = failed {
            let _ = std::fs::write(dir.join(format!("{stem}.row")), row + "\n");
        }
    }
    Ok(cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{
        judged, saturation_row, service_row, SATURATION_BASE_RATE, SATURATION_COLUMNS,
        SERVICE_COLUMNS,
    };
    use crate::Report;
    use ac_commit::protocols::ProtocolKind;
    use ac_net::Crash;
    use ac_sim::Time;
    use std::time::Duration;

    /// A cell whose transactions stall — node 3 dark for good from the
    /// start — is kept in [`FAILURES`], and its dump reads back as the
    /// run that stalled.
    #[test]
    fn a_stalled_in_process_cell_is_kept_as_a_cluster_dump() {
        let n = 4;
        let cfg = ServiceConfig::new(n, 1, ProtocolKind::TwoPc)
            .clients(2)
            .txns_per_client(8)
            .seed(4_040)
            .txn_deadline(Duration::from_millis(60));
        let mut faults = FaultSpec::none(n);
        faults.plan = faults.plan.with_crash(3, Crash::initially());
        // This cell's runs, kept by this run or by an earlier one.
        let kept = || -> Vec<_> {
            let Ok(dir) = std::fs::read_dir(FAILURES) else {
                return Vec::new();
            };
            (dir.map(|e| e.expect("an entry").path()))
                .filter(|p| {
                    let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                    name.starts_with("2PC-channel-c2-s4040-")
                })
                .collect()
        };
        for stale in kept() {
            std::fs::remove_file(stale).expect("remove an earlier run's file");
        }
        let cell = run_cell(Host::Channel, &cfg, &faults).expect("in process");
        assert!(
            cell.stats.stalled > 0,
            "node 3 takes part in some transaction"
        );
        let dumps: Vec<_> = kept()
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "dump"))
            .collect();
        assert_eq!(dumps.len(), 1, "one dump of the stalled run: {dumps:?}");
        let bytes = std::fs::read(&dumps[0]).expect("read the dump");
        let dump = ClusterDump::from_bytes(&bytes).expect("a cluster dump");
        assert_eq!(dump.protocol, "2PC");
        assert_eq!(dump.stats, cell.stats);
        assert_eq!(Cell::of_dump(&dump).stats.stalled, cell.stats.stalled);
    }

    /// This cell's files in [`FAILURES`] (their names start with
    /// `prefix`), kept by this run or by an earlier one.
    fn kept(prefix: &str) -> Vec<std::path::PathBuf> {
        let Ok(dir) = std::fs::read_dir(FAILURES) else {
            return Vec::new();
        };
        (dir.map(|e| e.expect("an entry").path()))
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.starts_with(prefix)
            })
            .collect()
    }

    /// A clean run whose row a section marks MISMATCH is kept all the
    /// same: the rendered row as `<stem>.row`, beside the run's dump. A
    /// row that passes keeps nothing. So is a faulted run's, as a chaos
    /// row's is: node 3 down for the first 20 ms, then back from its log.
    #[test]
    fn a_mismatched_row_is_kept_beside_its_runs_dump() {
        let n = 4;
        let cfg = ServiceConfig::new(n, 1, ProtocolKind::PaxosCommit)
            .clients(2)
            .txns_per_client(10)
            .seed(4_041);
        let prefix = "PaxosCommit-channel-c2-s4041-";
        for stale in kept(prefix) {
            std::fs::remove_file(stale).expect("remove an earlier run's file");
        }
        let passed = run_judged_cell(Host::Channel, &cfg, &FaultSpec::none(n), |_| None);
        assert_eq!(passed.expect("in process").audit_findings, 0);
        assert_eq!(kept(prefix), Vec::<std::path::PathBuf>::new());

        let row = "| PaxosCommit | channel | MISMATCH |";
        let mut judged = 0;
        let cell = run_judged_cell(Host::Channel, &cfg, &FaultSpec::none(n), |cell| {
            judged = cell.stats.committed + cell.stats.aborted;
            Some(row.to_string())
        });
        assert_eq!(cell.expect("in process").audit_findings, 0, "a clean run");
        assert_eq!(judged, 20, "the judge read the run's record");
        let dump = kept_row_and_dump(prefix, row);
        assert_eq!(dump.txns.len(), 20);

        let prefix = "PaxosCommit-channel-c2-s4042-";
        for stale in kept(prefix) {
            std::fs::remove_file(stale).expect("remove an earlier run's file");
        }
        let up = Time::from_wall(Duration::from_millis(20), cfg.unit);
        let mut faults = FaultSpec::none(n);
        faults.durable = true;
        faults.plan = faults.plan.with_crash(3, Crash::initially().restart(up));
        let cfg = cfg.seed(4_042).reply_timeout(Duration::from_millis(10));
        let cell = run_judged_cell(Host::Channel, &cfg, &faults, |_| Some(row.to_string()));
        let elapsed = Duration::from_nanos(cell.expect("in process").stats.elapsed_nanos);
        assert!(
            elapsed >= Duration::from_millis(20),
            "the run outlived the crash"
        );
        kept_row_and_dump(prefix, row);

        // A service row and a saturation step fail on a cluster whose
        // every node is dark for good: the service row's transactions
        // stall, and the step reconstructs no timeline. Each is kept, as
        // the sections judge it, beside its run.
        let mut dark = FaultSpec::none(n);
        dark.plan.crashes.fill(Some(Crash::initially()));
        let cfg = cfg.txn_deadline(Duration::from_millis(60));
        let kind = ProtocolKind::PaxosCommit;
        let header = SERVICE_COLUMNS.map(String::from);
        let cfg = cfg.seed(4_043);
        let judge = |cell: &Cell| service_row(kind, "uniform", 2, cell);
        kept_failed_row(&header, &cfg, &dark, judge);
        let header = SATURATION_COLUMNS.map(String::from);
        let open = cfg.seed(4_044).arrival_rate(SATURATION_BASE_RATE);
        let judge = |cell: &Cell| saturation_row(kind, n, 2, 0, 1, cell);
        kept_failed_row(&header, &open, &dark, judge);
    }

    /// Serve `cfg` under `faults` as a section does, through
    /// [`judged`]: the row `judge` fails is kept beside the run's dump.
    fn kept_failed_row<E>(
        header: &[String],
        cfg: &ServiceConfig,
        faults: &FaultSpec,
        judge: impl FnOnce(&Cell) -> (E, Vec<String>, bool),
    ) {
        let prefix = format!("{}-channel-c2-s{}-", cfg.kind.name(), cfg.seed);
        for stale in kept(&prefix) {
            std::fs::remove_file(stale).expect("remove an earlier run's file");
        }
        let mut r = Report::new("judged");
        let judged = judged(&mut r, header, Host::Channel, cfg, faults, judge);
        let (_, _, row) = judged.expect("in process");
        assert_eq!(row.last().map(String::as_str), Some("MISMATCH"));
        kept_row_and_dump(&prefix, &[header.join(" | "), row.join(" | ")].join("\n"));
    }

    /// The one `<stem>.row` (holding `row`) and the one `<stem>.dump` kept
    /// under `prefix`, the dump read back.
    fn kept_row_and_dump(prefix: &str, row: &str) -> ClusterDump {
        let files = kept(prefix);
        let with = |ext: &str| {
            let found = files
                .iter()
                .filter(|p| p.extension().is_some_and(|e| e == ext));
            found.collect::<Vec<_>>()
        };
        let (rows, dumps) = (with("row"), with("dump"));
        assert_eq!((rows.len(), dumps.len()), (1, 1), "{files:?}");
        assert_eq!(rows[0].with_extension("dump"), *dumps[0], "one stem");
        let kept_row = std::fs::read_to_string(rows[0]).expect("read the row");
        assert_eq!(kept_row, format!("{row}\n"));
        let dump = ClusterDump::from_bytes(&std::fs::read(dumps[0]).expect("read the dump"));
        dump.expect("a cluster dump")
    }

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
        let (proc, here) = (Cell::of_dump(&dump), Cell::of_outcome(&out));

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
