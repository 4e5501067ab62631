//! Plain-text table rendering and JSON serialization for experiment
//! results, plus the machine-readable bench baseline
//! ([`BenchBaseline`]) that seeds the repository's performance
//! trajectory (`BENCH_baseline.json`).
//!
//! One schema describes the baseline, both ways: every type here derives
//! `Serialize` to write it and `Deserialize` to read it back
//! ([`BenchBaseline::from_json`]), so every reader — `bench-check`, the
//! perf gate, `--before`, `repro trace` — reads typed fields, and a
//! missing or mistyped field is a problem named by its path. Each row
//! type carries its rules once (`problems()` on [`ServiceEntry`],
//! [`ChaosEntry`], [`AttributionEntry`], [`SaturationCurve`] and
//! [`SaturationStep`]): its section's `ok` column and
//! [`BenchBaseline::validate`] both call them.

use ac_chaos::FaultStats;
use ac_cluster::ATTRIBUTION_STAGES;
use ac_commit::protocols::ProtocolKind;
use serde::{Deserialize, Serialize};

use crate::cell::Cell;

/// A rendered table: header + rows of strings, pre-formatted by the
/// experiment.
///
/// ```
/// use ac_harness::report::Table;
///
/// let mut t = Table::new("demo", &["protocol", "delays"]);
/// t.row(vec!["INBAC".into(), "2".into()]);
/// let text = t.render();
/// assert!(text.contains("## demo"));
/// assert!(text.contains("| INBAC"));
/// ```
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Caption rendered above the table.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows, one cell per header column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row (must have one cell per header column).
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                let pad = w[i] - c.chars().count();
                line.push_str(&format!(" {}{} |", c, " ".repeat(pad)));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header));
        let mut sep = String::from("|");
        for width in &w {
            sep.push_str(&format!("{}|", "-".repeat(width + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// A full experiment report: tables plus free-form notes.
#[derive(Clone, Debug, Serialize, Default)]
pub struct Report {
    /// Experiment identifier (`table1`, `fig1`, ...).
    pub id: String,
    /// Rendered tables, in presentation order.
    pub tables: Vec<Table>,
    /// Free-form notes appended after the tables.
    pub notes: Vec<String>,
    /// Number of paper-vs-measured comparisons that matched.
    pub matched: usize,
    /// Total paper-vs-measured comparisons recorded.
    pub compared: usize,
}

impl Report {
    /// An empty report for experiment `id`.
    pub fn new(id: impl Into<String>) -> Report {
        Report {
            id: id.into(),
            ..Default::default()
        }
    }

    /// Append a table.
    pub fn table(&mut self, t: Table) {
        self.tables.push(t);
    }

    /// Append a free-form note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Record one paper-vs-measured comparison.
    pub fn compare(&mut self, matches: bool) -> &'static str {
        self.compared += 1;
        if matches {
            self.matched += 1;
            "ok"
        } else {
            "MISMATCH"
        }
    }

    /// Whether every recorded comparison matched.
    pub fn all_matched(&self) -> bool {
        self.matched == self.compared
    }

    /// Render tables, notes and the match summary as plain text.
    pub fn render(&self) -> String {
        let mut out = format!("# Experiment {}\n\n", self.id);
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        if self.compared > 0 {
            out.push_str(&format!(
                "paper-vs-measured: {}/{} rows match\n",
                self.matched, self.compared
            ));
        }
        out
    }

    /// Serialize the whole report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}

/// The protocol names a valid bench baseline must cover: the seven of the
/// paper's Table 5 (the headline comparison sweep, plus the logless D1CC
/// contender), derived from the canonical
/// [`ac_commit::protocols::ProtocolKind::table5`] list so a protocol
/// rename cannot desynchronize the emitter from the validator.
pub fn table5_protocol_names() -> [&'static str; 7] {
    ProtocolKind::table5().map(|k| k.name())
}

/// Per-protocol baseline numbers: the paper's two complexity measures of a
/// nice execution plus the simulator's wall-clock cost of producing it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProtocolBaseline {
    /// Display name of the protocol ([`table5_protocol_names`]).
    pub protocol: String,
    /// Number of processes of the measured nice execution.
    pub n: usize,
    /// Resilience bound of the measured nice execution.
    pub f: usize,
    /// Measured message delays to the last decision.
    pub delays: u64,
    /// Measured messages exchanged until the last decision.
    pub messages: u64,
    /// The paper's closed-form delay count at this `(n, f)`.
    pub formula_delays: u64,
    /// The paper's closed-form message count at this `(n, f)`.
    pub formula_messages: u64,
    /// Whether measured and closed-form complexity agree.
    pub matches_formula: bool,
    /// Mean wall-clock of one simulated nice execution, in microseconds.
    pub nice_run_micros: f64,
}

/// Explorer wall-clock baseline: the same exhaustive space explored
/// sequentially and with the parallel engine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExplorerBaseline {
    /// Protocol whose schedule space was explored.
    pub protocol: String,
    /// Number of processes.
    pub n: usize,
    /// Resilience bound.
    pub f: usize,
    /// Total executions in the explored space.
    pub executions: usize,
    /// Counterexamples found (must be 0 for a sound protocol).
    pub counterexamples: usize,
    /// Wall-clock of the sequential (`jobs = 1`) exploration, milliseconds.
    pub sequential_millis: f64,
    /// Wall-clock of the parallel exploration, milliseconds.
    pub parallel_millis: f64,
    /// Worker threads used by the parallel exploration.
    pub jobs: usize,
    /// `sequential_millis / parallel_millis` — ≥ 2 expected on a 4-core
    /// runner with `jobs = 4`; ~1 on a single core.
    pub speedup: f64,
}

/// The protocols the `service` section must cover: the
/// head-to-head comparison of the live load (2PC vs Paxos-Commit vs INBAC
/// vs D1CC — blocking baseline, consensus-upfront, indulgent fast-path,
/// logless one-phase). The single source of truth for that list: the
/// `load` sweep emitter, the chaos sweep emitter and the validator all
/// derive from it, so they cannot desynchronize.
pub fn service_protocols() -> [ProtocolKind; 4] {
    [
        ProtocolKind::TwoPc,
        ProtocolKind::PaxosCommit,
        ProtocolKind::Inbac,
        ProtocolKind::D1cc,
    ]
}

/// One measured cell of the live-service sweep: a (protocol, workload,
/// concurrency) combination served end-to-end by `ac-cluster`, reported in
/// wall-clock throughput and latency percentiles.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServiceEntry {
    /// Protocol display name.
    pub protocol: String,
    /// Workload name (`uniform`, `skewed`, `transfer`).
    pub workload: String,
    /// Closed-loop clients (the concurrency level).
    pub clients: usize,
    /// Transactions fully served.
    pub txns: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Transactions aborted.
    pub aborted: usize,
    /// Transactions that hit the client stall alarm (must be 0).
    pub stalled: usize,
    /// Committed transactions per second of the load phase
    /// ([`ac_obs::RunStats::throughput_tps`]).
    pub throughput_tps: f64,
    /// Median latency, microseconds (submit → the client knows the
    /// outcome).
    pub p50_micros: f64,
    /// 90th-percentile latency, microseconds.
    pub p90_micros: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_micros: f64,
    /// 99.9th-percentile latency, microseconds — the straggler tail the
    /// flight recorder explains.
    pub p999_micros: f64,
    /// Maximum latency, microseconds.
    pub max_micros: f64,
    /// Findings of the post-run audit, orphaned envelopes included
    /// ([`Cell::audit_findings`]; must be 0).
    pub safety_violations: usize,
    /// Protocol messages that crossed node boundaries (counter-exact).
    pub wire_messages: usize,
    /// `wire_messages / txns` — the per-transaction wire cost the perf
    /// gate diffs (counter-backed, so gated strictly).
    pub wire_per_txn: f64,
    /// Host wakeups that found no work ([`Cell::spurious_wakeups`]).
    pub spurious_wakeups: usize,
    /// Post-run fold nanoseconds per served transaction
    /// ([`Cell::fold_ns_per_txn`]; `null` on the `proc` host).
    pub fold_ns_per_txn: Option<f64>,
}

impl ServiceEntry {
    /// The baseline entry of one closed-loop cell: `protocol` on
    /// `workload` at `clients` concurrency.
    pub fn new(protocol: &str, workload: &str, clients: usize, cell: &Cell) -> ServiceEntry {
        let us = |v: u64| v as f64 / 1e3;
        let txns = cell.txns();
        ServiceEntry {
            protocol: protocol.into(),
            workload: workload.into(),
            clients,
            txns,
            committed: cell.stats.committed as usize,
            aborted: cell.stats.aborted as usize,
            stalled: cell.stats.stalled as usize,
            throughput_tps: cell.stats.throughput_tps(),
            p50_micros: us(cell.sojourn.p50()),
            p90_micros: us(cell.sojourn.p90()),
            p99_micros: us(cell.sojourn.p99()),
            p999_micros: us(cell.sojourn.p999()),
            max_micros: us(cell.sojourn.max()),
            safety_violations: cell.audit_findings,
            wire_messages: cell.wire_messages as usize,
            wire_per_txn: cell.wire_messages as f64 / txns.max(1) as f64,
            spurious_wakeups: cell.spurious_wakeups,
            fold_ns_per_txn: cell.fold_ns_per_txn(),
        }
    }

    /// The entry's key in a pair and in `bench-check`'s problems, e.g.
    /// `2PC/uniform/clients8`.
    pub fn key(&self) -> String {
        let (p, w, c) = (&self.protocol, &self.workload, self.clients);
        format!("{p}/{w}/clients{c}")
    }

    /// The rules of a served cell, which its row of the `service` table
    /// and `bench-check` both apply: a clean audit, nothing stalled,
    /// positive throughput, `p50 <= p99`, and no negative cost or tail.
    pub fn problems(&self) -> Vec<String> {
        let ordered = self.p50_micros <= self.p99_micros;
        Rules::default()
            .zero("safety_violations", self.safety_violations)
            .zero("stalled", self.stalled)
            .positive("throughput_tps", self.throughput_tps)
            .need(ordered, "p50_micros must be <= p99_micros")
            .at_least_0("wire_per_txn", self.wire_per_txn)
            .at_least_0("p999_micros", self.p999_micros)
            .0
    }
}

/// The problems a row's rules found, in rule order.
#[derive(Default)]
struct Rules(Vec<String>);

impl Rules {
    /// Record `problem` unless `holds`.
    fn need(mut self, holds: bool, problem: impl Into<String>) -> Rules {
        if !holds {
            self.0.push(problem.into());
        }
        self
    }

    /// `name`'s count is 0.
    fn zero(self, name: &str, count: usize) -> Rules {
        self.need(count == 0, format!("{name} must be 0"))
    }

    /// `name`'s value is positive.
    fn positive(self, name: &str, value: f64) -> Rules {
        self.need(value > 0.0, format!("{name} must be positive"))
    }

    /// `name`'s value is not negative.
    fn at_least_0(self, name: &str, value: f64) -> Rules {
        self.need(value >= 0.0, format!("{name} must be >= 0"))
    }

    /// The transport (`at` names where) is `"channel"` (in-process
    /// channels), `"tcp"` (in-process sockets) or `"proc"` (a
    /// multi-process cluster).
    fn transport(self, at: &str, t: &str) -> Rules {
        let known = matches!(t, "channel" | "tcp" | "proc");
        let problem = format!("{at}transport must be \"channel\", \"tcp\" or \"proc\"");
        self.need(known, format!("{problem}, got {t:?}"))
    }

    /// Every canonical stage is in `stages`, with a non-negative share
    /// and p50, and the shares telescope: they sum to 100 ± 5 % of the
    /// measured end-to-end time (exact per covered transaction by
    /// construction — the tolerance only absorbs coverage loss).
    fn stages(mut self, what: &str, stages: &[AttributionStageEntry], sum: f64) -> Rules {
        for want in ATTRIBUTION_STAGES {
            let ok = |s: &AttributionStageEntry| s.share_pct >= 0.0 && s.p50_micros >= 0.0;
            let found = stages.iter().any(|s| s.stage == want && ok(s));
            self = self.need(found, format!("missing (or malformed) {what} {want}"));
        }
        let telescopes = (95.0..=105.0).contains(&sum);
        let problem = format!("{what} shares must sum to 100 ± 5 % of the end-to-end time");
        self.need(telescopes, format!("{problem}, got {sum}"))
    }

    /// A section's list of rows is non-empty, and each row meets its
    /// rules: its `problems`, under the row's path and key.
    fn rows(
        mut self,
        list: &str,
        keys: &[String],
        rows: impl Iterator<Item = Vec<String>>,
    ) -> Rules {
        for (i, (key, row)) in keys.iter().zip(rows).enumerate() {
            let at = format!("{list}[{i}] ({key})");
            self.0.extend(row.iter().map(|p| format!("{at}: {p}")));
        }
        self.need(!keys.is_empty(), format!("{list} must be non-empty"))
    }

    /// Every `{protocol}/{x}` key of the grid is among `keys`.
    fn grid(mut self, keys: &[String], protocols: &[&str], xs: &[&str], must: &str) -> Rules {
        for p in protocols {
            for x in xs {
                let key = format!("{p}/{x}");
                self = self.need(keys.contains(&key), format!("{must} {key}"));
            }
        }
        self
    }
}

/// The chaos scenarios a `chaos` section must cover, per
/// protocol: the ISSUE-5 sweep axes. The single source of truth shared by
/// the `repro chaos` emitter and the validator.
pub fn chaos_scenario_names() -> [&'static str; 4] {
    [
        "crash-coordinator",
        "crash-participant",
        "partition-heal",
        "lossy-10",
    ]
}

/// One measured cell of the chaos sweep: a (protocol, scenario) pair run
/// through `ac-chaos` with availability bucketing against the fault
/// window.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosEntry {
    /// Protocol display name.
    pub protocol: String,
    /// Scenario name ([`chaos_scenario_names`]).
    pub scenario: String,
    /// Transactions fully served.
    pub txns: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Transactions aborted.
    pub aborted: usize,
    /// Transactions never resolved (must be 0: every fault in the sweep
    /// heals and recovery must drain the backlog).
    pub stalled: usize,
    /// Findings of the post-run audit (must be 0 — the audit runs on
    /// every faulted execution), read by the protocol's Table-1 cell
    /// ([`ChaosEntry::new`]).
    pub safety_violations: usize,
    /// Transactions first submitted inside the fault window.
    pub submitted_during_fault: usize,
    /// Of those, the ones whose outcome the client learned before the heal.
    pub decided_during_fault: usize,
    /// Transactions committed inside the window — the availability signal.
    pub committed_during_fault: usize,
    /// Transactions committed after the heal.
    pub committed_after_heal: usize,
    /// Committed-ops/s while the fault was live.
    pub ops_during_fault: f64,
    /// Committed-ops/s from the heal to the end of the run.
    pub ops_after_heal: f64,
    /// `100 · decided/submitted` within the window (100 if idle).
    pub availability_pct: f64,
    /// Transactions whose outcome the client learned no sooner than its
    /// closed loop would park them, or never.
    pub blocked: usize,
    /// Worst heal→decision gap of a blocked transaction, milliseconds.
    pub recovery_ms: f64,
    /// Client `Begin` re-sends.
    pub retries: usize,
    /// Envelopes the fault layer dropped.
    pub dropped_messages: usize,
    /// Protocol messages that crossed node boundaries.
    pub wire_messages: usize,
}

impl ChaosEntry {
    /// The baseline entry of `kind` under `scenario`: its run record and
    /// that run bucketed against the fault window.
    ///
    /// The safety count is the cell's audit, read as the simulator's
    /// checker reads an execution: by the protocol's Table-1 cell.
    /// Partition-heal and lossy-10 are *network-failure* executions, and a
    /// cell without NF-agreement (D1CC's (AVT, VT)) documents that deciders
    /// may split when the fault lands mid-vote-broadcast — one side
    /// assembles all n votes and commits while the cut-off side times out
    /// to Abort (see `ac_commit::protocols::d1cc`; the explorer produces
    /// the same counterexamples). For exactly those cells the split
    /// transactions are not counted; every other finding is (no lost
    /// locks, log/client agreement, no commit against a missing yes-vote),
    /// and so is a split under any crash scenario or NF-agreement protocol.
    /// The window is microseconds wide, so most runs show no split.
    pub fn new(kind: ProtocolKind, scenario: &str, cell: &Cell, s: &FaultStats) -> ChaosEntry {
        let network_failure = matches!(scenario, "partition-heal" | "lossy-10");
        let exempt = network_failure && !kind.cell().nf.has_agreement();
        ChaosEntry {
            protocol: kind.name().into(),
            scenario: scenario.into(),
            txns: cell.txns(),
            committed: cell.stats.committed as usize,
            aborted: cell.stats.aborted as usize,
            stalled: cell.stats.stalled as usize,
            safety_violations: cell.audit_findings - if exempt { cell.split } else { 0 },
            submitted_during_fault: s.submitted_during_fault,
            decided_during_fault: s.decided_during_fault,
            committed_during_fault: s.committed_during_fault,
            committed_after_heal: s.committed_after_heal,
            ops_during_fault: s.ops_during_fault,
            ops_after_heal: s.ops_after_heal,
            availability_pct: s.availability_pct,
            blocked: s.blocked,
            recovery_ms: s.time_to_unblock.as_secs_f64() * 1e3,
            retries: cell.retries,
            dropped_messages: cell.dropped_messages,
            wire_messages: cell.wire_messages as usize,
        }
    }

    /// The entry's key in `bench-check`'s problems, e.g. `2PC/lossy-10`.
    pub fn key(&self) -> String {
        format!("{}/{}", self.protocol, self.scenario)
    }

    /// The rules of a faulted cell, which its row of the `chaos` table,
    /// `bench-check` and the perf gate all apply. Every cell: a clean
    /// audit, every transaction resolved after the heal, a measured,
    /// non-negative availability, and recovery: a fault that blocked
    /// transactions shows commits after the heal, unless it was a lossy
    /// link (parks resolve through in-window retries). Then the paper's
    /// contrast, read from the Table-1 cell of the protocol the entry
    /// names (an unknown name is a problem):
    ///
    /// * under a crash, a cell whose crash-failure guarantees include
    ///   termination keeps committing: `committed_during_fault > 0`;
    /// * under a crashed coordinator, a cell without it blocks:
    ///   `blocked > 0` (2PC);
    /// * a lossy link crashes nothing, so every cell keeps committing.
    pub fn problems(&self) -> Vec<String> {
        let clean = "safety audit must be clean on every faulted run";
        let resolved = "every transaction must resolve after the heal";
        let recovered = "a fault that blocked transactions must show commits after the heal";
        let committing = "committed_during_fault must be > 0 under a lossy link, or under \
                          a crash when the protocol's cell terminates under one";
        let blocking = "blocked must be > 0 under a crashed coordinator when the \
                        protocol's cell does not terminate under a crash";
        let scenario = self.scenario.as_str();
        let mut all = ProtocolKind::all().into_iter();
        let cell = all.find(|k| k.name() == self.protocol).map(|k| k.cell());
        let terminates = cell.is_some_and(|c| c.cf.has_termination());
        let lossy = scenario == "lossy-10";
        let live = lossy || terminates && scenario.starts_with("crash-");
        let blocks = !terminates && scenario == "crash-coordinator";
        Rules::default()
            .need(
                cell.is_some(),
                format!("unknown protocol {:?}", self.protocol),
            )
            .need(self.safety_violations == 0, clean)
            .need(self.stalled == 0, resolved)
            .at_least_0("availability_pct", self.availability_pct)
            .at_least_0("ops_after_heal", self.ops_after_heal)
            .need(self.txns > 0, "txns must be > 0")
            .need(
                lossy || self.blocked == 0 || self.committed_after_heal > 0,
                recovered,
            )
            .need(!live || self.committed_during_fault > 0, committing)
            .need(!blocks || self.blocked > 0, blocking)
            .0
    }
}

/// The `chaos` section: availability under failure, per
/// (protocol, scenario).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosBaseline {
    /// Number of nodes (= shards).
    pub n: usize,
    /// Crash-resilience parameter.
    pub f: usize,
    /// Transport the sweep ran over (`"channel"` or `"tcp"`).
    pub transport: String,
    /// Wall-clock length of one virtual delay unit, microseconds.
    pub unit_micros: u64,
    /// Fault window start, virtual units.
    pub fault_from_units: u64,
    /// Fault window end (heal), virtual units.
    pub fault_until_units: u64,
    /// One entry per (protocol, scenario) pair.
    pub entries: Vec<ChaosEntry>,
}

/// The transports the `attribution` section must cover for
/// every Table-5 protocol.
pub fn attribution_transport_names() -> [&'static str; 2] {
    ["channel", "tcp"]
}

/// One stage row of an attribution entry: where this slice of every
/// commit's end-to-end latency went.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AttributionStageEntry {
    /// Stage name ([`ATTRIBUTION_STAGES`]).
    pub stage: String,
    /// Median stage residency, microseconds.
    pub p50_micros: f64,
    /// 99th-percentile stage residency, microseconds.
    pub p99_micros: f64,
    /// Share of total end-to-end time spent in this stage, per cent.
    pub share_pct: f64,
}

/// The stage rows of `a`, in telescoping order.
pub fn stage_entries(a: &ac_cluster::Attribution) -> Vec<AttributionStageEntry> {
    ATTRIBUTION_STAGES
        .iter()
        .enumerate()
        .map(|(i, s)| AttributionStageEntry {
            stage: s.to_string(),
            p50_micros: a.stages[i].p50() as f64 / 1e3,
            p99_micros: a.stages[i].p99() as f64 / 1e3,
            share_pct: a.share_pct(i),
        })
        .collect()
}

/// The stage holding the largest share of end-to-end time.
pub fn dominant_stage<'a>(stages: impl IntoIterator<Item = &'a AttributionStageEntry>) -> String {
    stages
        .into_iter()
        .max_by(|x, y| x.share_pct.total_cmp(&y.share_pct))
        .map(|s| s.stage.clone())
        .unwrap_or_default()
}

/// The cross-run agreement gate of a `"proc"` attribution row: the
/// in-process tcp entry of the same protocol, seed and configuration
/// (`channel_stages`, the reference row; sockets on both sides) must
/// blame the same stage. The `channel` stage (client submit -> node
/// dispatch) is the one seam the process boundary changes — a client in
/// another process carries a per-txn cost an in-process one does not, so
/// for the timer-free sub-millisecond protocols it can legitimately
/// outgrow everything else in the proc run while the decomposition stays
/// exact. When the overall dominants differ, agreement therefore falls
/// back to the dominant stage *with `channel` set aside*: where does the
/// time go once the transaction has reached the cluster. A protocol that waits for its clock dominates `protocol`
/// outright in both runs, so the fallback never weakens the headline
/// claim.
pub fn dominant_agrees(
    proc_stages: &[AttributionStageEntry],
    channel_stages: &[AttributionStageEntry],
) -> bool {
    let channel = ATTRIBUTION_STAGES[0];
    let sans_dispatch = |stages: &[AttributionStageEntry]| {
        dominant_stage(stages.iter().filter(|s| s.stage != channel))
    };
    dominant_stage(proc_stages) == dominant_stage(channel_stages)
        || sans_dispatch(proc_stages) == sans_dispatch(channel_stages)
}

/// One step of an embedded slowest-transaction timeline (the shape
/// `repro trace` renders through `ac_sim`'s shared timeline renderer).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimelineStep {
    /// Microseconds past the run epoch.
    pub at_micros: f64,
    /// Acting entity (`client`, `P3`, ...).
    pub actor: String,
    /// What happened.
    pub label: String,
}

/// One reconstructed straggler: a slowest-covered transaction's full
/// lifecycle timeline, embedded in the baseline for `repro trace`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SlowTxn {
    /// Transaction id.
    pub txn: u64,
    /// End-to-end latency, microseconds.
    pub e2e_micros: f64,
    /// Lifecycle steps in time order.
    pub steps: Vec<TimelineStep>,
}

/// One measured cell of the attribution sweep: a (protocol, transport)
/// pair's per-stage latency decomposition. Stage durations telescope to
/// the end-to-end latency exactly per transaction, so `share_sum_pct`
/// is 100 by construction whenever coverage is complete — the validator
/// gates it to ±5 %.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AttributionEntry {
    /// Protocol display name ([`table5_protocol_names`]).
    pub protocol: String,
    /// Transport name (`"channel"` or `"tcp"`).
    pub transport: String,
    /// Decided transactions considered.
    pub txns: usize,
    /// `100 · covered / considered` — share of decided transactions with
    /// a complete reconstructed timeline.
    pub coverage_pct: f64,
    /// Sum of the five stage shares (must be within [95, 105]).
    pub share_sum_pct: f64,
    /// Median end-to-end latency of the covered transactions, µs.
    pub e2e_p50_micros: f64,
    /// 99.9th-percentile end-to-end latency, µs.
    pub e2e_p999_micros: f64,
    /// Flight events lost to ring wrap-around (0 at sweep scale).
    pub dropped_events: u64,
    /// Post-run fold nanoseconds per served transaction
    /// ([`Cell::fold_ns_per_txn`]; `null` for `"proc"` entries, whose
    /// processes each audit their own half).
    pub fold_ns_per_txn: Option<f64>,
    /// Worst clock-alignment uncertainty across the nodes whose exports
    /// fed this entry, microseconds (`null` for in-process entries — one
    /// clock, nothing to align; a number only for `"proc"` transport).
    pub alignment_max_uncertainty_micros: Option<f64>,
    /// One row per [`ATTRIBUTION_STAGES`] stage, same order.
    pub stages: Vec<AttributionStageEntry>,
    /// Slowest covered timelines, descending end-to-end latency.
    pub slowest: Vec<SlowTxn>,
}

impl AttributionEntry {
    /// The baseline entry of one measured cell, slowest timelines
    /// embedded.
    pub fn new(protocol: &str, transport: &str, cell: &Cell) -> AttributionEntry {
        let a = &cell.attribution;
        AttributionEntry {
            protocol: protocol.into(),
            transport: transport.into(),
            txns: a.total,
            coverage_pct: a.coverage_pct(),
            share_sum_pct: a.share_sum_pct(),
            e2e_p50_micros: a.e2e.p50() as f64 / 1e3,
            e2e_p999_micros: a.e2e.p999() as f64 / 1e3,
            dropped_events: a.dropped_events,
            fold_ns_per_txn: cell.fold_ns_per_txn(),
            alignment_max_uncertainty_micros: cell.alignment_max_uncertainty_micros,
            stages: stage_entries(a),
            slowest: a
                .slowest
                .iter()
                .map(|tl| SlowTxn {
                    txn: tl.txn,
                    e2e_micros: tl.e2e_nanos() as f64 / 1e3,
                    steps: tl
                        .steps()
                        .into_iter()
                        .map(|(at_nanos, actor, label)| TimelineStep {
                            at_micros: at_nanos as f64 / 1e3,
                            actor,
                            label,
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// The entry's key in a pair and in `bench-check`'s problems, e.g.
    /// `2PC/tcp`.
    pub fn key(&self) -> String {
        format!("{}/{}", self.protocol, self.transport)
    }

    /// The rules of an attributed cell, which its row of the attribution
    /// table and `bench-check` both apply: a known transport, a
    /// non-negative clock uncertainty, positive coverage and e2e p50, and
    /// all five stages, telescoping. The table's `ok` column adds what the
    /// entry does not carry: the run's audit and stalls, and for a
    /// `"proc"` row the in-process tcp row's agreement.
    pub fn problems(&self) -> Vec<String> {
        // In process there is one clock, nothing to align.
        let uncertainty = self.alignment_max_uncertainty_micros.unwrap_or(0.0);
        Rules::default()
            .transport("", &self.transport)
            .at_least_0("alignment_max_uncertainty_micros", uncertainty)
            .positive("coverage_pct", self.coverage_pct)
            .positive("e2e_p50_micros", self.e2e_p50_micros)
            .stages("stage", &self.stages, self.share_sum_pct)
            .0
    }
}

/// The `attribution` section: per-stage latency decomposition
/// of every Table-5 protocol on both transports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AttributionBaseline {
    /// Number of nodes (= shards).
    pub n: usize,
    /// Crash-resilience parameter.
    pub f: usize,
    /// Wall-clock length of one virtual delay unit, microseconds.
    pub unit_micros: u64,
    /// One entry per (protocol, transport) pair,
    /// [`table5_protocol_names`] × [`attribution_transport_names`].
    pub entries: Vec<AttributionEntry>,
}

/// One offered-load level of a saturation curve: the service run
/// open-loop (Poisson arrivals, bounded in-flight window, shedding) at a
/// fixed per-client arrival rate, with the write-ahead log on wherever
/// the host has one (not on the `"proc"` host: see `wal_forces`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SaturationStep {
    /// Step index within the curve (0-based, ascending offered load).
    pub step: usize,
    /// Poisson arrival rate per client, transactions/second.
    pub arrival_rate_per_client: f64,
    /// Nominal offered load, transactions/second (`clients × rate`).
    pub offered_tps: f64,
    /// Arrivals actually scheduled (submitted + shed).
    pub offered: usize,
    /// Arrivals dropped because the in-flight window was full.
    pub shed: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Transactions aborted.
    pub aborted: usize,
    /// Transactions abandoned at the client deadline.
    pub stalled: usize,
    /// Committed transactions/second over the trimmed steady-state
    /// window (first/last 10 % of the run excluded).
    pub goodput_tps: f64,
    /// Median sojourn time (scheduled arrival → all decisions), µs.
    pub p50_sojourn_micros: f64,
    /// 99th-percentile sojourn time, µs.
    pub p99_sojourn_micros: f64,
    /// 99.9th-percentile sojourn time, µs.
    pub p999_sojourn_micros: f64,
    /// WAL force operations across all nodes (counter-exact; 0 on a host
    /// without a log — every `"proc"` curve).
    pub wal_forces: usize,
    /// `wal_forces / (committed + aborted)`: one force covers what a loop
    /// turn's drain staged, so it falls as a node's backlog deepens.
    pub forces_per_txn: f64,
    /// `wire_messages / txns` at this load level.
    pub wire_per_txn: f64,
    /// Findings of the post-run audit (must be 0).
    pub safety_violations: usize,
}

/// The detected knee of a saturation curve: the first step whose goodput
/// gain over the previous step is < 10 % while p99 sojourn at least
/// doubles. When no step qualifies, the last step is recorded with
/// `detected = false` (the curve never saturated at the swept loads).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SaturationKnee {
    /// Index into the curve's `steps`.
    pub step: usize,
    /// Whether the knee criterion actually fired (`false` = fallback to
    /// the last step).
    pub detected: bool,
    /// Offered load at the knee, transactions/second.
    pub offered_tps: f64,
    /// Goodput at the knee, transactions/second.
    pub goodput_tps: f64,
    /// p99 sojourn at the knee, µs.
    pub p99_sojourn_micros: f64,
    /// Per-stage latency shares at the knee ([`ATTRIBUTION_STAGES`]
    /// order) — which layer saturates for this protocol.
    pub stage_shares: Vec<AttributionStageEntry>,
    /// Sum of the five stage shares at the knee (must be 100 ± 5).
    pub share_sum_pct: f64,
}

/// One saturation curve: offered load stepped over a fixed
/// (protocol, transport, n, clients) cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SaturationCurve {
    /// Protocol display name.
    pub protocol: String,
    /// Transport name (`"channel"` or `"tcp"`).
    pub transport: String,
    /// Number of nodes (= shards).
    pub n: usize,
    /// Open-loop client threads.
    pub clients: usize,
    /// Per-client in-flight window beyond which arrivals are shed.
    pub max_outstanding: usize,
    /// One entry per offered-load level, ascending.
    pub steps: Vec<SaturationStep>,
    /// The detected (or fallback) knee.
    pub knee: SaturationKnee,
}

impl SaturationCurve {
    /// Assemble a curve from its measured steps, ascending, each with the
    /// cell it was read off: detect the knee — the first step whose
    /// goodput gain over the previous step is < 10 % while p99 sojourn at
    /// least doubles, else the last step with `detected = false` — and
    /// attach the knee step's stage shares.
    pub fn new(
        protocol: &str,
        transport: &str,
        n: usize,
        clients: usize,
        run: Vec<(SaturationStep, Cell)>,
    ) -> SaturationCurve {
        let (steps, cells): (Vec<SaturationStep>, Vec<Cell>) = run.into_iter().unzip();
        let detected = (1..steps.len()).find(|&i| {
            let (prev, at) = (&steps[i - 1], &steps[i]);
            at.goodput_tps < prev.goodput_tps * 1.10
                && at.p99_sojourn_micros >= 2.0 * prev.p99_sojourn_micros
                && prev.p99_sojourn_micros > 0.0
        });
        let step = detected.unwrap_or(steps.len().saturating_sub(1));
        let knee = SaturationKnee {
            step,
            detected: detected.is_some(),
            offered_tps: steps[step].offered_tps,
            goodput_tps: steps[step].goodput_tps,
            p99_sojourn_micros: steps[step].p99_sojourn_micros,
            stage_shares: stage_entries(&cells[step].attribution),
            share_sum_pct: cells[step].attribution.share_sum_pct(),
        };
        SaturationCurve {
            protocol: protocol.into(),
            transport: transport.into(),
            n,
            clients,
            max_outstanding: crate::experiments::SATURATION_MAX_OUTSTANDING,
            steps,
            knee,
        }
    }

    /// The curve's key in a pair and in `bench-check`'s problems, e.g.
    /// `2PC/n4/clients16`.
    pub fn key(&self) -> String {
        format!("{}/n{}/clients{}", self.protocol, self.n, self.clients)
    }

    /// The rules of a curve, which its knee's row of the knee table and
    /// `bench-check` both apply: a known transport, at least two steps to
    /// show a shape, each step's rules, and a knee that points into the
    /// steps with all five stage shares, telescoping.
    pub fn problems(&self) -> Vec<String> {
        let (knee, steps) = (&self.knee, self.steps.len());
        let mut rules = Rules::default()
            .transport("", &self.transport)
            .need(steps >= 2, "a curve needs >= 2 steps to show a shape")
            .need(
                knee.step < steps,
                "knee.step must index into the curve's steps",
            )
            .stages("knee stage", &knee.stage_shares, knee.share_sum_pct);
        for (i, step) in self.steps.iter().enumerate() {
            for problem in step.problems() {
                rules.0.push(format!("steps[{i}]: {problem}"));
            }
        }
        rules.0
    }
}

impl SaturationStep {
    /// Step `step` of a curve: the cell `clients` clients were offered
    /// at `rate` transactions per second each.
    pub fn new(step: usize, rate: f64, clients: usize, cell: &Cell) -> SaturationStep {
        let us = |v: u64| v as f64 / 1e3;
        SaturationStep {
            step,
            arrival_rate_per_client: rate,
            offered_tps: rate * clients as f64,
            offered: cell.stats.offered as usize,
            shed: cell.stats.shed as usize,
            committed: cell.stats.committed as usize,
            aborted: cell.stats.aborted as usize,
            stalled: cell.stats.stalled as usize,
            goodput_tps: cell.goodput_tps,
            p50_sojourn_micros: us(cell.sojourn.p50()),
            p99_sojourn_micros: us(cell.sojourn.p99()),
            p999_sojourn_micros: us(cell.sojourn.p999()),
            wal_forces: cell.wal_forces,
            forces_per_txn: cell.per_txn(cell.wal_forces as f64),
            wire_per_txn: cell.per_txn(cell.wire_messages as f64),
            safety_violations: cell.audit_findings,
        }
    }

    /// The rules of one offered-load level, which its row of the
    /// saturation table and `bench-check` both apply: a clean audit,
    /// offered load, goodput within 1.1 × the nominal offered rate (Poisson
    /// draws can nudge the trimmed-window goodput past it on an
    /// unsaturated step), ordered sojourn percentiles and non-negative
    /// forces. The table's `ok` column adds a reconstructed timeline.
    pub fn problems(&self) -> Vec<String> {
        let (offered, goodput) = (self.offered_tps, self.goodput_tps);
        let bounded = offered > 0.0 && (0.0..=offered * 1.10).contains(&goodput);
        let bound = format!("goodput_tps must be within [0, 1.1 × offered_tps], got {goodput}");
        let (p50, p99) = (self.p50_sojourn_micros, self.p99_sojourn_micros);
        let ordered = p50 <= p99 && p99 <= self.p999_sojourn_micros;
        Rules::default()
            .zero("safety_violations", self.safety_violations)
            .need(self.offered > 0, "offered must be > 0")
            .need(bounded, bound)
            .need(ordered, "sojourn percentiles must be ordered")
            .at_least_0("forces_per_txn", self.forces_per_txn)
            .0
    }
}

/// The `saturation` section: open-loop offered-vs-goodput
/// curves with per-curve knee detection and per-stage attribution at the
/// knee.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SaturationBaseline {
    /// Crash-resilience parameter of every curve.
    pub f: usize,
    /// Wall-clock length of one virtual delay unit, microseconds.
    pub unit_micros: u64,
    /// One curve per swept (protocol, transport, n, clients) cell.
    pub curves: Vec<SaturationCurve>,
}

/// The `service` section: the live `ac-cluster` transaction
/// service measured under closed-loop load.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServiceBaseline {
    /// Number of nodes (= shards).
    pub n: usize,
    /// Crash-resilience parameter.
    pub f: usize,
    /// Transport the sweep ran over (`"channel"` or `"tcp"`).
    pub transport: String,
    /// Wall-clock length of one virtual delay unit, microseconds.
    pub unit_micros: u64,
    /// One entry per (protocol, workload, concurrency) combination.
    pub entries: Vec<ServiceEntry>,
}

/// One metric of a [`BeforeAfter`] pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PairRow {
    /// Baseline section the metric lives in (`service`, `attribution`,
    /// `saturation`).
    pub section: String,
    /// The entry within the section, e.g. `2PC/uniform/clients8`.
    pub key: String,
    /// The metric, e.g. `p50_micros` or `share_pct.protocol`.
    pub metric: String,
    /// Its value in the `--before` baseline.
    pub before: f64,
    /// Its value in this baseline.
    pub after: f64,
}

/// A claimed speed-up as a **before/after pair** (ROADMAP aim 1): the
/// wall-clock sections of this baseline next to the same sweep measured
/// at the parent commit *on the same box* (`repro saturate --before
/// PATH`), so the committed file shows which stage moved without a
/// cross-machine diff against git history. Rows exist only for entries
/// both baselines carry.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BeforeAfter {
    /// Where the "before" numbers came from (the `--before` path).
    pub before: String,
    /// The paired metrics, in section order.
    pub rows: Vec<PairRow>,
}

impl BeforeAfter {
    /// Pair every latency/throughput/stage-share metric of `after` with
    /// the same metric of the entry `before` carries under the same key.
    pub fn between(label: &str, before: &BenchBaseline, after: &BenchBaseline) -> BeforeAfter {
        let mut rows = Vec::new();
        let mut pair = |section: &str, key: &str, metric: String, before: f64, after: f64| {
            // What serializes as `null` has no value to pair.
            if before.is_finite() && after.is_finite() {
                let (section, key) = (section.into(), key.into());
                rows.push(PairRow {
                    section,
                    key,
                    metric,
                    before,
                    after,
                });
            }
        };
        let (b, a) = (&before.service, &after.service);
        for (key, b, a) in keyed(b, a, |s| &s.entries, ServiceEntry::key) {
            for (metric, f) in SERVICE_PAIRED {
                pair("service", &key, metric.into(), f(b), f(a));
            }
        }
        let (b, a) = (&before.attribution, &after.attribution);
        for (key, b, a) in keyed(b, a, |s| &s.entries, AttributionEntry::key) {
            let (e2e_b, e2e_a) = (b.e2e_p50_micros, a.e2e_p50_micros);
            pair("attribution", &key, "e2e_p50_micros".into(), e2e_b, e2e_a);
            let fold = |e: &AttributionEntry| e.fold_ns_per_txn.unwrap_or(f64::NAN);
            let (fold_b, fold_a) = (fold(b), fold(a));
            pair(
                "attribution",
                &key,
                "fold_ns_per_txn".into(),
                fold_b,
                fold_a,
            );
            // The five stage shares: which one moved.
            for sa in &a.stages {
                if let Some(sb) = b.stages.iter().find(|sb| sb.stage == sa.stage) {
                    let metric = format!("share_pct.{}", sa.stage);
                    pair("attribution", &key, metric, sb.share_pct, sa.share_pct);
                }
            }
        }
        let (b, a) = (&before.saturation, &after.saturation);
        for (key, b, a) in keyed(b, a, |s| &s.curves, SaturationCurve::key) {
            // The top offered-load step of each curve.
            if let (Some(b), Some(a)) = (b.steps.last(), a.steps.last()) {
                for (metric, f) in TOP_STEP_PAIRED {
                    pair("saturation", &key, format!("top_step.{metric}"), f(b), f(a));
                }
            }
        }
        BeforeAfter {
            before: label.into(),
            rows,
        }
    }
}

/// A metric a pair holds of a row `T`: its name and its value.
type Paired<T> = (&'static str, fn(&T) -> f64);

/// The metrics a pair holds of each service entry.
const SERVICE_PAIRED: [Paired<ServiceEntry>; 4] = [
    ("p50_micros", |e| e.p50_micros),
    ("p99_micros", |e| e.p99_micros),
    ("throughput_tps", |e| e.throughput_tps),
    ("fold_ns_per_txn", |e| e.fold_ns_per_txn.unwrap_or(f64::NAN)),
];

/// The metrics a pair holds of each curve's top offered-load step.
const TOP_STEP_PAIRED: [Paired<SaturationStep>; 4] = [
    ("goodput_tps", |s| s.goodput_tps),
    ("p50_sojourn_micros", |s| s.p50_sojourn_micros),
    ("p99_sojourn_micros", |s| s.p99_sojourn_micros),
    ("forces_per_txn", |s| s.forces_per_txn),
];

/// Each row of section `after` under its `key`, with the first row of
/// section `before` under the same key; a row (or a section) only one
/// side has is skipped.
fn keyed<'a, S, T: 'a>(
    before: &'a Option<S>,
    after: &'a Option<S>,
    rows: fn(&S) -> &Vec<T>,
    key: fn(&T) -> String,
) -> impl Iterator<Item = (String, &'a T, &'a T)> {
    let rows = |section: &'a Option<S>| section.as_ref().map_or(&[][..], |s| &rows(s)[..]);
    let before = rows(before);
    rows(after).iter().filter_map(move |a| {
        let k = key(a);
        let b = before.iter().find(|b| key(b) == k)?;
        Some((k, b, a))
    })
}

/// The only layout `repro` writes and `bench-check` accepts; bump on a
/// breaking layout change.
pub const SCHEMA_VERSION: u32 = 5;

/// The machine-readable bench baseline written to `BENCH_baseline.json`.
///
/// This is the seed point of the repository's performance trajectory:
/// future PRs regenerate it and diff against the committed copy. Field
/// semantics are documented field-by-field in the README ("The bench
/// baseline" section).
///
/// One document, one schema: the simulator numbers (`protocols`,
/// `explorer`) are always present, and each of the four live sections
/// ([`BenchBaseline::SECTIONS`]) is either measured or `null` — which
/// ones a `repro` subcommand measures is
/// [`crate::experiments::baseline_sections`]'s table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// Format version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Worker threads the harness was invoked with.
    pub jobs: usize,
    /// Per-protocol nice-execution numbers, Table-5 order.
    pub protocols: Vec<ProtocolBaseline>,
    /// Explorer wall-clock numbers.
    pub explorer: ExplorerBaseline,
    /// Live-service numbers under closed-loop load.
    pub service: Option<ServiceBaseline>,
    /// Availability-under-failure numbers.
    pub chaos: Option<ChaosBaseline>,
    /// Per-stage latency attribution.
    pub attribution: Option<AttributionBaseline>,
    /// Open-loop saturation curves with knee detection.
    pub saturation: Option<SaturationBaseline>,
    /// The before/after pair of a claimed speed-up (`repro … --before
    /// PATH`); `null` otherwise. Validators ignore it.
    pub pair: Option<BeforeAfter>,
}

impl BenchBaseline {
    /// The live sections, in document order. Each is `null` in a baseline
    /// whose subcommand did not measure it.
    pub const SECTIONS: [&'static str; 4] = ["service", "chaos", "attribution", "saturation"];

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("baseline serialization cannot fail")
    }

    /// Read a serialized baseline back: one problem per missing or
    /// mistyped field, named by its path
    /// (`service.entries[3].p50_micros: expected a number`). Keys this
    /// schema does not name are ignored.
    pub fn from_json(text: &str) -> Result<BenchBaseline, Vec<String>> {
        let problems = |e: serde_json::Error| e.problems();
        serde_json::from_value(serde_json::from_str(text).map_err(problems)?).map_err(problems)
    }

    /// Validate a serialized baseline: it reads back as a
    /// [`BenchBaseline`] ([`BenchBaseline::from_json`]), carries
    /// [`SCHEMA_VERSION`], covers **all seven Table-5 protocols**, each
    /// matching its paper formula, and reports a non-empty,
    /// counterexample-free exploration. Then each non-`null` live section
    /// must cover its grid, and each of its rows must meet that row's
    /// rules — the ones its section's `ok` column applies:
    ///
    /// * `service` — every [`service_protocols`] protocol at ≥ 2
    ///   concurrency levels, each entry [`ServiceEntry::problems`]-free;
    /// * `chaos` — every (service protocol × [`chaos_scenario_names`]
    ///   scenario) pair, each entry [`ChaosEntry::problems`]-free;
    /// * `attribution` — every ([`table5_protocol_names`] ×
    ///   [`attribution_transport_names`]) pair, each entry
    ///   [`AttributionEntry::problems`]-free;
    /// * `saturation` — non-empty curves, each
    ///   [`SaturationCurve::problems`]-free. Protocol coverage is not gated
    ///   here — the `--quick` smoke legitimately sweeps one protocol; the
    ///   perf gate checks the committed baseline's full coverage.
    ///
    /// Returns the names of the live sections found (and validated), or
    /// the list of problems. This is what `repro bench-check` runs, and
    /// what the perf gate runs on the committed baseline.
    pub fn validate_json(text: &str) -> Result<Vec<&'static str>, Vec<String>> {
        Self::from_json(text)?.validate()
    }

    /// [`BenchBaseline::validate_json`]'s rules on a baseline already read.
    pub fn validate(&self) -> Result<Vec<&'static str>, Vec<String>> {
        let (version, explorer) = (self.schema_version, &self.explorer);
        let mut rules = Rules::default()
            .need(
                version == SCHEMA_VERSION,
                format!("schema_version must be {SCHEMA_VERSION}, got {version}"),
            )
            .need(explorer.executions > 0, "explorer.executions must be > 0")
            .zero("explorer.counterexamples", explorer.counterexamples)
            .positive("explorer.sequential_millis", explorer.sequential_millis)
            .positive("explorer.parallel_millis", explorer.parallel_millis)
            .positive("explorer.speedup", explorer.speedup);
        for want in table5_protocol_names() {
            let found = self.protocols.iter().any(|p| p.protocol == want);
            rules = rules.need(found, format!("missing Table-5 protocol entry: {want}"));
        }
        for p in &self.protocols {
            let problem = format!("protocol {:?} does not match its paper formula", p.protocol);
            rules = rules.need(p.matches_formula, problem);
        }
        // Each live section: its rows' rules, then its grid.
        let mut found = Vec::new();
        if let Some(s) = &self.service {
            let keys: Vec<String> = s.entries.iter().map(ServiceEntry::key).collect();
            let problems = s.entries.iter().map(ServiceEntry::problems);
            rules = rules.rows("service.entries", &keys, problems);
            rules = rules.transport("service.", &s.transport);
            for want in service_protocols().map(|k| k.name()) {
                let of_want = s.entries.iter().filter(|e| e.protocol == want);
                let levels: std::collections::BTreeSet<usize> =
                    of_want.map(|e| e.clients).collect();
                let problem = format!("service must measure {want} at >= 2 concurrency levels");
                rules = rules.need(levels.len() >= 2, format!("{problem}, got {levels:?}"));
            }
            found.push("service");
        }
        if let Some(s) = &self.chaos {
            let keys: Vec<String> = s.entries.iter().map(ChaosEntry::key).collect();
            let problems = s.entries.iter().map(ChaosEntry::problems);
            let (protocols, scenarios) = (
                service_protocols().map(|k| k.name()),
                chaos_scenario_names(),
            );
            rules = rules.rows("chaos.entries", &keys, problems);
            rules = rules.transport("chaos.", &s.transport);
            rules = rules.grid(&keys, &protocols, &scenarios, "chaos must measure");
            found.push("chaos");
        }
        if let Some(s) = &self.attribution {
            let keys: Vec<String> = s.entries.iter().map(AttributionEntry::key).collect();
            let problems = s.entries.iter().map(AttributionEntry::problems);
            let (protocols, transports) = (table5_protocol_names(), attribution_transport_names());
            rules = rules.rows("attribution.entries", &keys, problems);
            rules = rules.grid(&keys, &protocols, &transports, "attribution must cover");
            found.push("attribution");
        }
        if let Some(s) = &self.saturation {
            let keys: Vec<String> = s.curves.iter().map(SaturationCurve::key).collect();
            let problems = s.curves.iter().map(SaturationCurve::problems);
            rules = rules.rows("saturation.curves", &keys, problems);
            found.push("saturation");
        }
        if rules.0.is_empty() {
            Ok(found)
        } else {
            Err(rules.0)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(lines.len(), 3);
        let w: Vec<usize> = lines.iter().map(|l| l.chars().count()).collect();
        assert!(w.iter().all(|&x| x == w[0]), "{s}");
    }

    #[test]
    fn report_tracks_comparisons() {
        let mut r = Report::new("t");
        assert_eq!(r.compare(true), "ok");
        assert_eq!(r.compare(false), "MISMATCH");
        assert!(!r.all_matched());
        assert!(r.render().contains("1/2"));
    }

    fn sample_stages(p50_micros: f64, p99_micros: f64) -> Vec<AttributionStageEntry> {
        ATTRIBUTION_STAGES
            .iter()
            .map(|s| AttributionStageEntry {
                stage: s.to_string(),
                p50_micros,
                p99_micros,
                share_pct: 20.0,
            })
            .collect()
    }

    fn sample_attribution_entry(protocol: &str, transport: &str) -> AttributionEntry {
        AttributionEntry {
            protocol: protocol.to_string(),
            transport: transport.to_string(),
            txns: 16,
            coverage_pct: 100.0,
            share_sum_pct: 100.0,
            e2e_p50_micros: 10_500.0,
            e2e_p999_micros: 22_000.0,
            dropped_events: 0,
            fold_ns_per_txn: (transport != "proc").then_some(180.0),
            alignment_max_uncertainty_micros: (transport == "proc").then_some(35.0),
            stages: sample_stages(2_100.0, 4_400.0),
            slowest: vec![SlowTxn {
                txn: 0x42,
                e2e_micros: 22_000.0,
                steps: vec![
                    TimelineStep {
                        at_micros: 0.0,
                        actor: "client".into(),
                        label: "submit txn 0x42".into(),
                    },
                    TimelineStep {
                        at_micros: 22_000.0,
                        actor: "client".into(),
                        label: "outcome known".into(),
                    },
                ],
            }],
        }
    }

    fn sample_saturation_step(step: usize, rate: f64) -> SaturationStep {
        SaturationStep {
            step,
            arrival_rate_per_client: rate,
            offered_tps: rate * 16.0,
            offered: 400,
            shed: if step > 2 { 40 } else { 0 },
            committed: 300,
            aborted: 50,
            stalled: 0,
            goodput_tps: rate * 16.0 * 0.8,
            p50_sojourn_micros: 10_000.0 * (step + 1) as f64,
            p99_sojourn_micros: 30_000.0 * (step + 1) as f64,
            p999_sojourn_micros: 45_000.0 * (step + 1) as f64,
            wal_forces: 120,
            forces_per_txn: 0.4,
            wire_per_txn: 10.0,
            safety_violations: 0,
        }
    }

    /// The full document — what `repro saturate` writes: simulator
    /// numbers plus all four live sections. Shared with the perf gate's
    /// fixture tests.
    pub(crate) fn sample_baseline() -> BenchBaseline {
        let mut service = Vec::new();
        for name in service_protocols().map(|k| k.name()) {
            for clients in [2usize, 8] {
                service.push(ServiceEntry {
                    protocol: name.to_string(),
                    workload: "uniform".into(),
                    clients,
                    txns: 30,
                    committed: 28,
                    aborted: 2,
                    stalled: 0,
                    throughput_tps: 150.0,
                    p50_micros: 10_000.0,
                    p90_micros: 12_000.0,
                    p99_micros: 15_000.0,
                    p999_micros: 18_000.0,
                    max_micros: 20_000.0,
                    safety_violations: 0,
                    wire_messages: 300,
                    wire_per_txn: 10.0,
                    spurious_wakeups: 0,
                    fold_ns_per_txn: Some(180.0),
                });
            }
        }
        let mut chaos = Vec::new();
        for protocol in service_protocols().map(|k| k.name()) {
            for scenario in chaos_scenario_names() {
                chaos.push(ChaosEntry {
                    protocol: protocol.to_string(),
                    scenario: scenario.to_string(),
                    txns: 40,
                    committed: 20,
                    aborted: 20,
                    stalled: 0,
                    safety_violations: 0,
                    submitted_during_fault: 12,
                    decided_during_fault: 10,
                    committed_during_fault: 3,
                    committed_after_heal: 9,
                    ops_during_fault: 15.0,
                    ops_after_heal: 60.0,
                    availability_pct: 83.3,
                    blocked: if protocol == "2PC" { 5 } else { 0 },
                    recovery_ms: 40.0,
                    retries: 6,
                    dropped_messages: 30,
                    wire_messages: 900,
                });
            }
        }
        let mut attribution = Vec::new();
        for protocol in table5_protocol_names() {
            for transport in attribution_transport_names() {
                attribution.push(sample_attribution_entry(protocol, transport));
            }
        }
        let curves = table5_protocol_names()
            .iter()
            .map(|p| SaturationCurve {
                protocol: p.to_string(),
                transport: "channel".into(),
                n: 4,
                clients: 16,
                max_outstanding: 32,
                steps: (0..3)
                    .map(|i| sample_saturation_step(i, 25.0 * (1 << i) as f64))
                    .collect(),
                knee: SaturationKnee {
                    step: 2,
                    detected: true,
                    offered_tps: 1_600.0,
                    goodput_tps: 1_280.0,
                    p99_sojourn_micros: 90_000.0,
                    stage_shares: sample_stages(2_000.0, 5_000.0),
                    share_sum_pct: 100.0,
                },
            })
            .collect();
        BenchBaseline {
            schema_version: SCHEMA_VERSION,
            jobs: 4,
            protocols: table5_protocol_names()
                .iter()
                .map(|name| ProtocolBaseline {
                    protocol: name.to_string(),
                    n: 6,
                    f: 2,
                    delays: 2,
                    messages: 24,
                    formula_delays: 2,
                    formula_messages: 24,
                    matches_formula: true,
                    nice_run_micros: 12.5,
                })
                .collect(),
            explorer: ExplorerBaseline {
                protocol: "INBAC".into(),
                n: 4,
                f: 1,
                executions: 1744,
                counterexamples: 0,
                sequential_millis: 100.0,
                parallel_millis: 50.0,
                jobs: 4,
                speedup: 2.0,
            },
            service: Some(ServiceBaseline {
                n: 4,
                f: 1,
                transport: "channel".into(),
                unit_micros: 5_000,
                entries: service,
            }),
            chaos: Some(ChaosBaseline {
                n: 4,
                f: 1,
                transport: "tcp".into(),
                unit_micros: 5_000,
                fault_from_units: 10,
                fault_until_units: 50,
                entries: chaos,
            }),
            attribution: Some(AttributionBaseline {
                n: 4,
                f: 1,
                unit_micros: 5_000,
                entries: attribution,
            }),
            saturation: Some(SaturationBaseline {
                f: 1,
                unit_micros: 5_000,
                curves,
            }),
            pair: None,
        }
    }

    /// `validate_json` must fail and name every `needle`.
    fn assert_problems(b: &BenchBaseline, needles: &[&str]) {
        let problems = BenchBaseline::validate_json(&b.to_json()).unwrap_err();
        for needle in needles {
            assert!(
                problems.iter().any(|p| p.contains(needle)),
                "missing {needle:?} in {problems:?}"
            );
        }
    }

    #[test]
    fn full_baseline_round_trips_and_validates() {
        let b = sample_baseline();
        assert_eq!(
            BenchBaseline::validate_json(&b.to_json()),
            Ok(BenchBaseline::SECTIONS.to_vec())
        );
        // The quick-smoke shape — a single tcp curve — is first-class.
        let mut smoke = sample_baseline();
        {
            let sat = smoke.saturation.as_mut().unwrap();
            sat.curves.truncate(1);
            sat.curves[0].transport = "tcp".into();
        }
        assert!(BenchBaseline::validate_json(&smoke.to_json()).is_ok());
    }

    #[test]
    fn a_null_section_is_skipped_and_an_empty_one_is_a_problem() {
        // What `repro bench` writes: simulator numbers, every section null.
        let mut bench = sample_baseline();
        (bench.service, bench.chaos) = (None, None);
        (bench.attribution, bench.saturation) = (None, None);
        assert_eq!(BenchBaseline::validate_json(&bench.to_json()), Ok(vec![]));
        // What `repro load` writes: service + attribution.
        let mut load = sample_baseline();
        (load.chaos, load.saturation) = (None, None);
        assert_eq!(
            BenchBaseline::validate_json(&load.to_json()),
            Ok(vec!["service", "attribution"])
        );
        // A section that is present must carry data.
        let mut b = sample_baseline();
        b.service.as_mut().unwrap().entries.clear();
        b.chaos.as_mut().unwrap().entries.clear();
        b.attribution.as_mut().unwrap().entries.clear();
        b.saturation.as_mut().unwrap().curves.clear();
        assert_problems(
            &b,
            &[
                "service.entries must be non-empty",
                "chaos.entries must be non-empty",
                "attribution.entries must be non-empty",
                "saturation.curves must be non-empty",
            ],
        );
    }

    #[test]
    fn any_schema_version_but_the_current_one_is_refused() {
        for version in [1, 4, 6] {
            let mut b = sample_baseline();
            b.schema_version = version;
            assert_problems(&b, &[&format!("schema_version must be 5, got {version}")]);
        }
    }

    #[test]
    fn before_after_pairs_the_shared_metrics_and_still_validates() {
        let before = sample_baseline();
        let mut after = sample_baseline();
        // The claimed speed-up: one service entry got faster, and the
        // `protocol` share of one attribution entry fell.
        after.service.as_mut().unwrap().entries[0].p50_micros /= 100.0;
        let protocol_stage = ATTRIBUTION_STAGES
            .iter()
            .position(|s| *s == "protocol")
            .unwrap();
        after.attribution.as_mut().unwrap().entries[0].stages[protocol_stage].share_pct = 5.0;
        let pair = BeforeAfter::between("parent.json", &before, &after);
        let moved: Vec<&PairRow> = pair.rows.iter().filter(|r| r.before != r.after).collect();
        assert_eq!(moved.len(), 2, "{moved:?}");
        assert_eq!(
            (moved[0].section.as_str(), moved[0].metric.as_str()),
            ("service", "p50_micros")
        );
        assert_eq!(moved[1].metric, "share_pct.protocol");
        let top_step = |m: &str| {
            let metric = format!("top_step.{m}");
            pair.rows
                .iter()
                .any(|r| r.section == "saturation" && r.metric == metric)
        };
        assert!(top_step("p50_sojourn_micros") && top_step("forces_per_txn"));
        after.pair = Some(pair);
        assert!(BenchBaseline::validate_json(&after.to_json()).is_ok());
    }

    #[test]
    fn saturation_gates_knee_goodput_and_step_shape() {
        let mut b = sample_baseline();
        {
            let sat = b.saturation.as_mut().unwrap();
            sat.curves[0].knee.step = 99; // out of range
            sat.curves[1].knee.share_sum_pct = 70.0;
            sat.curves[2].steps[1].goodput_tps = // goodput above offered
                sat.curves[2].steps[1].offered_tps * 2.0;
            sat.curves[3].steps[0].safety_violations = 1;
            sat.curves[4].steps.truncate(1); // curve with no shape
            sat.curves[5].knee.stage_shares.remove(2); // drop "wal"
        }
        assert_problems(
            &b,
            &[
                "knee.step must index",
                "knee stage shares must sum to 100 ± 5",
                "goodput_tps must be within",
                "safety_violations must be 0",
                ">= 2 steps to show a shape",
                "missing (or malformed) knee stage wal",
            ],
        );
    }

    #[test]
    fn proc_attribution_entries_ride_along_legally() {
        // Entries for the multi-process transport are extra coverage on
        // top of the required channel × tcp grid: they validate like any
        // other entry, carry the alignment-uncertainty marker, and an
        // unknown transport name is rejected.
        let mut b = sample_baseline();
        let attr = b.attribution.as_mut().unwrap();
        attr.entries.push(sample_attribution_entry("2PC", "proc"));
        assert!(BenchBaseline::validate_json(&b.to_json()).is_ok());

        let attr = b.attribution.as_mut().unwrap();
        attr.entries.last_mut().unwrap().transport = "carrier-pigeon".into();
        assert_problems(&b, &["carrier-pigeon"]);

        let attr = b.attribution.as_mut().unwrap();
        let last = attr.entries.last_mut().unwrap();
        last.transport = "proc".into();
        last.alignment_max_uncertainty_micros = Some(-1.0);
        assert_problems(&b, &["alignment_max_uncertainty_micros"]);
    }

    #[test]
    fn attribution_gates_coverage_shares_and_full_protocol_transport_grid() {
        let mut b = sample_baseline();
        {
            let attr = b.attribution.as_mut().unwrap();
            attr.entries
                .retain(|e| !(e.protocol == "INBAC" && e.transport == "tcp"));
            attr.entries[0].share_sum_pct = 80.0;
            attr.entries[1].coverage_pct = 0.0;
            attr.entries[2].stages.remove(2); // drop the "wal" stage row
        }
        assert_problems(
            &b,
            &[
                "attribution must cover INBAC/tcp",
                ": stage shares must sum to 100 ± 5",
                "coverage_pct",
                "missing (or malformed) stage wal",
            ],
        );
    }

    #[test]
    fn chaos_requires_full_scenario_coverage_and_clean_audits() {
        let mut b = sample_baseline();
        {
            let chaos = b.chaos.as_mut().unwrap();
            chaos
                .entries
                .retain(|e| !(e.protocol == "INBAC" && e.scenario == "partition-heal"));
            chaos.entries[0].safety_violations = 1;
            chaos.entries[1].stalled = 3;
        }
        assert_problems(
            &b,
            &[
                "chaos must measure INBAC/partition-heal",
                "safety audit",
                "resolve after the heal",
            ],
        );
    }

    /// The chaos row's gate on constructed inputs. A D1CC split under a
    /// network failure is the documented price of its Table-1 cell and is
    /// not counted; under a crash, or for a protocol with NF-agreement, it
    /// is. A clean row still fails when it does not recover after the
    /// heal or misses its contrast.
    #[test]
    fn the_chaos_gate_exempts_only_a_network_failure_split_without_nf_agreement() {
        use ac_commit::protocols::ProtocolKind::{D1cc, Inbac, TwoPc};
        use std::time::Duration;

        let zero = Duration::ZERO;
        let healthy = FaultStats {
            committed_during_fault: 3,
            committed_after_heal: 5,
            blocked: 2,
            ..FaultStats::measure(&[], zero, zero, zero, zero)
        };
        // A cell that served transactions: a row of none fails its rules.
        let mut clean = Cell::default();
        clean.stats.committed = 8;
        let split = Cell {
            split: 1,
            audit_findings: 1,
            ..clean.clone()
        };
        let row = |kind, scenario, cell: &Cell, stats: &FaultStats| {
            let e = ChaosEntry::new(kind, scenario, cell, stats);
            (e.safety_violations, e.problems().is_empty())
        };
        for scenario in ["partition-heal", "lossy-10"] {
            assert_eq!(
                row(D1cc, scenario, &split, &healthy),
                (0, true),
                "{scenario}"
            );
        }
        assert_eq!(row(D1cc, "crash-coordinator", &split, &healthy), (1, false));
        assert_eq!(row(Inbac, "partition-heal", &split, &healthy), (1, false));

        assert_eq!(row(Inbac, "partition-heal", &clean, &healthy), (0, true));
        assert_eq!(row(TwoPc, "crash-coordinator", &clean, &healthy), (0, true));
        let stuck = FaultStats {
            committed_after_heal: 0,
            ..healthy.clone()
        };
        assert!(
            !row(Inbac, "partition-heal", &clean, &stuck).1,
            "not recovered"
        );
        let unavailable = FaultStats {
            committed_during_fault: 0,
            ..healthy.clone()
        };
        assert!(!row(Inbac, "crash-participant", &clean, &unavailable).1);
        let unblocked = FaultStats {
            blocked: 0,
            ..healthy.clone()
        };
        assert!(!row(TwoPc, "crash-coordinator", &clean, &unblocked).1);
    }

    /// The chaos rule as it stood when it matched protocol names: the
    /// oracle the cell-derived rule must agree with on today's four
    /// protocols.
    fn named_chaos_rule(e: &ChaosEntry) -> bool {
        let clean = e.safety_violations == 0
            && e.stalled == 0
            && e.availability_pct >= 0.0
            && e.ops_after_heal >= 0.0
            && e.txns > 0;
        let recovered = e.scenario == "lossy-10" || e.blocked == 0 || e.committed_after_heal > 0;
        let contrast = match (e.protocol.as_str(), e.scenario.as_str()) {
            ("PaxosCommit" | "INBAC" | "D1CC", "crash-participant" | "crash-coordinator") => {
                e.committed_during_fault > 0
            }
            ("2PC", "crash-coordinator") => e.blocked > 0,
            (_, "lossy-10") => e.committed_during_fault > 0,
            _ => true,
        };
        clean && recovered && contrast
    }

    /// Every (protocol, scenario) row of the chaos sweep, over every
    /// combination of the three counts its contrast and recovery clauses
    /// read, gets the verdict the name-matching rule gave it: 4 × 4 × 8
    /// synthetic entries. Two entries the paper forbids fail: a 2PC that
    /// did not block under a crashed coordinator, and a PaxosCommit that
    /// stopped committing through a crash. A name outside the suite is a
    /// problem, not a pass.
    #[test]
    fn the_chaos_rule_reads_the_cell_and_keeps_every_named_verdict() {
        let base = &sample_baseline().chaos.unwrap().entries[0];
        let entry = |protocol: &str, scenario: &str, counts: (usize, usize, usize)| ChaosEntry {
            protocol: protocol.into(),
            scenario: scenario.into(),
            committed_during_fault: counts.0,
            blocked: counts.1,
            committed_after_heal: counts.2,
            ..base.clone()
        };
        let mut passed = 0;
        for protocol in service_protocols().map(|k| k.name()) {
            for scenario in chaos_scenario_names() {
                for bits in 0..8 {
                    let counts = ((bits & 1) * 3, ((bits >> 1) & 1) * 2, ((bits >> 2) & 1) * 5);
                    let e = entry(protocol, scenario, counts);
                    let verdict = e.problems().is_empty();
                    assert_eq!(verdict, named_chaos_rule(&e), "{e:?}: {:?}", e.problems());
                    passed += usize::from(verdict);
                }
            }
        }
        assert!(passed > 0 && passed < 128, "{passed} of 128 pass");

        let problems = entry("2PC", "crash-coordinator", (3, 0, 5)).problems();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("blocked must be > 0"));
        for scenario in ["crash-coordinator", "crash-participant"] {
            let stopped = entry("PaxosCommit", scenario, (0, 2, 5));
            let problems = stopped.problems();
            assert_eq!(problems.len(), 1, "{scenario}: {problems:?}");
            assert!(problems[0].starts_with("committed_during_fault must be > 0"));
        }
        let unknown = entry("carrier-pigeon", "crash-participant", (3, 2, 5));
        assert_eq!(unknown.problems(), ["unknown protocol \"carrier-pigeon\""]);
    }

    #[test]
    fn baseline_validation_catches_missing_protocols() {
        let mut b = sample_baseline();
        b.protocols.retain(|p| p.protocol != "INBAC");
        assert_problems(&b, &["INBAC"]);
    }

    #[test]
    fn baseline_validation_catches_formula_mismatches_and_violations() {
        let mut b = sample_baseline();
        b.protocols[0].matches_formula = false;
        b.explorer.counterexamples = 3;
        assert_problems(&b, &["formula", "counterexamples"]);
    }

    #[test]
    fn baseline_validation_rejects_garbage() {
        assert!(BenchBaseline::validate_json("not json").is_err());
        assert!(BenchBaseline::validate_json("{}").is_err());
    }

    #[test]
    fn service_requires_two_concurrency_levels_per_protocol() {
        let mut b = sample_baseline();
        let svc = b.service.as_mut().unwrap();
        svc.entries
            .retain(|e| e.protocol != "INBAC" || e.clients == 2);
        assert_problems(&b, &["service must measure INBAC at >= 2 concurrency"]);
    }

    #[test]
    fn service_rejects_safety_violations_and_stalls() {
        let mut b = sample_baseline();
        {
            let svc = b.service.as_mut().unwrap();
            svc.entries[0].safety_violations = 1;
            svc.entries[1].stalled = 2;
        }
        assert_problems(&b, &["safety_violations must be 0", "stalled must be 0"]);
    }

    #[test]
    fn service_rejects_negative_perf_fields() {
        let mut b = sample_baseline();
        b.service.as_mut().unwrap().entries[0].wire_per_txn = -3.0;
        assert_problems(&b, &["wire_per_txn must be >= 0"]);
    }

    /// The committed baseline, as `repro saturate` wrote it.
    const COMMITTED: &str = include_str!("../../../BENCH_baseline.json");

    /// The schema pin: the committed `BENCH_baseline.json` reads back as a
    /// [`BenchBaseline`] and writes back byte for byte. A field added to an
    /// entry is missing from the file, and a field dropped or renamed no
    /// longer writes what the file carries — either way the schema change
    /// lands together with a regenerated baseline.
    #[test]
    fn the_committed_baseline_round_trips_typed() {
        let committed = BenchBaseline::from_json(COMMITTED).expect("the committed baseline reads");
        assert_eq!(committed.to_json() + "\n", COMMITTED);
        assert_eq!(committed.validate(), Ok(BenchBaseline::SECTIONS.to_vec()));
    }

    /// A rule that only the validator applied before now fails the row's
    /// own rules — which its section's `ok` column calls — and
    /// `validate_json` alike, with the same text.
    #[test]
    fn a_row_rule_fails_the_row_and_the_validator_alike() {
        let mut b = sample_baseline();
        let service = &mut b.service.as_mut().unwrap().entries[0];
        service.p50_micros = service.p99_micros + 1.0;
        let chaos = &mut b.chaos.as_mut().unwrap().entries[0];
        chaos.availability_pct = -1.0;
        b.attribution.as_mut().unwrap().entries[0].e2e_p50_micros = 0.0;
        let curve = &mut b.saturation.as_mut().unwrap().curves[0];
        curve.steps[1].goodput_tps = curve.steps[1].offered_tps * 1.2;
        let rows = [
            b.service.as_ref().unwrap().entries[0].problems(),
            b.chaos.as_ref().unwrap().entries[0].problems(),
            b.attribution.as_ref().unwrap().entries[0].problems(),
            b.saturation.as_ref().unwrap().curves[0].steps[1].problems(),
        ];
        let problems = b.validate().unwrap_err();
        assert_eq!(problems.len(), 4, "{problems:?}");
        for (row, (problem, needle)) in rows.iter().zip(problems.iter().zip([
            "p50_micros must be <= p99_micros",
            "availability_pct must be >= 0",
            "e2e_p50_micros must be positive",
            "goodput_tps must be within",
        ])) {
            assert_eq!(row.len(), 1, "{row:?}");
            assert!(
                row[0].contains(needle) && problem.ends_with(&row[0]),
                "{problem}"
            );
        }
    }

    #[test]
    fn json_round_trips() {
        let mut r = Report::new("x");
        let mut t = Table::new("demo", &["c"]);
        t.row(vec!["v".into()]);
        r.table(t);
        let j = r.to_json();
        let v: serde_json::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(v["id"], "x");
        assert_eq!(v["tables"][0]["rows"][0][0], "v");
    }
}
