//! `repro perf` — the performance-trajectory gate.
//!
//! Re-measures the live-service sweep and diffs it against a previously
//! **committed** baseline (`repro perf --against BENCH_baseline.json`),
//! separating two classes of numbers:
//!
//! * **Counter-exact** metrics — simulated message delays/counts, explorer
//!   counterexamples and execution counts, safety violations, client
//!   stalls, per-transaction wire-message cost and commit rates. These are
//!   either deterministic or counter-backed, so a regression FAILS the
//!   gate (commit rates and wire costs carry an explicit tolerance for
//!   scheduling noise; everything else is exact).
//! * **Wall-clock** metrics — throughput, latency percentiles, µs/run,
//!   explorer milliseconds. These depend on the box and its load, so
//!   drift only WARNS; the trajectory is tracked by refreshing the
//!   committed baseline deliberately, not by failing CI on a noisy run.
//!
//! CI's `perf-smoke` job runs this against the committed baseline on
//! every push and uploads the comparison artifact.

use serde::Serialize;

use crate::cell::{run_cell, Host};
use crate::experiments::{baseline, SERVICE_GRID, SERVICE_UNIT};
use crate::report::{table5_protocol_names, BenchBaseline, Report, ServiceEntry, Table};
use ac_cluster::{FaultSpec, ServiceConfig, TransportKind};
use ac_commit::protocols::ProtocolKind;

/// Maximum tolerated drop in commit rate (percentage points) before the
/// counter-backed gate fails. Commit rates under contention are counters,
/// but thread interleaving moves them by several points run to run.
pub const COMMIT_RATE_TOLERANCE_PP: f64 = 25.0;

/// Maximum tolerated growth factor of the per-transaction wire-message
/// cost before the gate fails.
pub const WIRE_PER_TXN_TOLERANCE: f64 = 1.5;

/// One compared metric.
#[derive(Clone, Debug, Serialize)]
pub struct PerfCheck {
    /// `"exact"` (fails the gate) or `"warn"` (informational drift).
    pub gate: String,
    /// What was compared, e.g. `PaxosCommit/uniform/c16 commit rate`.
    pub key: String,
    /// The committed baseline's value (for a live gate: its bound).
    pub against: f64,
    /// The freshly measured value.
    pub current: f64,
    /// Whether the check passed (warn-gate checks always pass; their
    /// drift is in the numbers).
    pub ok: bool,
}

impl PerfCheck {
    fn exact(key: String, against: f64, current: f64, ok: bool) -> PerfCheck {
        PerfCheck {
            gate: "exact".into(),
            key,
            against,
            current,
            ok,
        }
    }

    fn warn(key: String, against: f64, current: f64) -> PerfCheck {
        PerfCheck {
            gate: "warn".into(),
            key,
            against,
            current,
            ok: true,
        }
    }
}

/// The machine-readable comparison artifact (uploaded by CI).
#[derive(Clone, Debug, Serialize)]
pub struct PerfComparison {
    /// Every compared metric.
    pub checks: Vec<PerfCheck>,
    /// Number of failed counter-exact checks (0 = gate passes).
    pub failed: usize,
}

impl PerfComparison {
    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("comparison serialization cannot fail")
    }
}

/// Re-measure (`quick` shrinks the sweep, `jobs` feeds the explorer leg)
/// and compare against the serialized baseline in `against_text`: the
/// sections `perf` has in the subcommand table
/// ([`crate::experiments::baseline_sections`]) and the [`live_gates`],
/// handed to [`diff`].
pub fn perf_compare(
    quick: bool,
    jobs: usize,
    against_text: &str,
) -> Result<(Report, PerfComparison), String> {
    let (_, fresh) = baseline("perf", quick, jobs, Host::Channel)?;
    diff(against_text, &fresh, live_gates(quick))
}

/// The two gates that are measured, not diffed: each runs the live
/// service and holds a counter against a fixed bound.
pub fn live_gates(quick: bool) -> Vec<PerfCheck> {
    let mut checks = Vec::new();

    // Live WAL-force gate: a durable closed-loop cell with a deep window
    // (2 clients × 64 in flight) per WAL-forcing protocol must show
    // forces/txn < 1 — group commit with nobody waiting: a node forces
    // what a turn's drain staged, and a loaded node's drain finds a
    // backlog (forcing per record cost ≥ 2 per txn). Counter-exact:
    // `wal_forces` counts force operations, over fully served
    // transactions.
    let (n, f) = SERVICE_GRID;
    // Both gates: two closed-loop clients, uniform two-shard transactions,
    // each one cell on the channel host (the message-speed gate's last row
    // excepted).
    let two_clients = |kind, txns| {
        ServiceConfig::new(n, f, kind)
            .clients(2)
            .txns_per_client(txns)
            .unit(SERVICE_UNIT)
            .seed(7)
    };
    let serve = |service: ServiceConfig, durable| {
        let faults = FaultSpec {
            durable,
            ..FaultSpec::none(n)
        };
        run_cell(Host::Channel, &service, &faults)
            .expect("an in-process host serves any configuration")
    };
    for kind in [ProtocolKind::TwoPc, ProtocolKind::PaxosCommit] {
        let service = two_clients(kind, 400)
            .keys_per_shard(1 << 20)
            .park_retries(0)
            .max_outstanding(64);
        let cell = serve(service, true);
        let forces_per_txn = cell.per_txn(cell.wal_forces as f64);
        let name = kind.name();
        checks.push(PerfCheck::exact(
            format!("{name} durable windowed WAL forces/txn (must be < 1)"),
            1.0,
            forces_per_txn,
            forces_per_txn < 1.0,
        ));
        checks.push(PerfCheck::exact(
            format!("{name} durable windowed safety violations"),
            0.0,
            cell.audit_findings as f64,
            cell.audit_findings == 0,
        ));
    }

    // Live message-speed gate: the round timers of 2PC, 3PC, 1NBAC and
    // INBAC guard complete-able collections, so a failure-free
    // closed-loop run must be paced by message hand-offs, not by `U`:
    // p50 below one unit (timer-paced, even the one-delay 1NBAC sat at
    // `1·U`) and a protocol timer firing on at most 1 % of transactions
    // (a fire means an instance was still open at its deadline — a
    // scheduling stall, never the normal path). Counter-backed:
    // `Cell::timer_fires` counts live timers the node loops fired; the run
    // must also be clean by the audit every other gate reads.
    let unit_micros = SERVICE_UNIT.as_micros() as f64;
    for kind in [
        ProtocolKind::TwoPc,
        ProtocolKind::ThreePc,
        ProtocolKind::Nbac1,
        ProtocolKind::Inbac,
    ] {
        let txns = if quick { 50 } else { 100 };
        let cell = serve(two_clients(kind, txns).keys_per_shard(32), false);
        let fires_pct = 100.0 * cell.timer_fires as f64 / cell.txns().max(1) as f64;
        checks.push(PerfCheck::exact(
            format!(
                "{} closed-loop timer fires per 100 txns (must be ≤ 1)",
                kind.name()
            ),
            1.0,
            fires_pct,
            cell.audit_findings == 0 && cell.stats.stalled == 0 && fires_pct <= 1.0,
        ));
        let p50_micros = cell.sojourn.p50() as f64 / 1e3;
        checks.push(PerfCheck::exact(
            format!("{} closed-loop p50 µs (must be < U)", kind.name()),
            unit_micros,
            p50_micros,
            p50_micros < unit_micros,
        ));
    }

    // The same gate, one row, on `acbench`'s `paxos_tcp` light cell. A
    // decided instance stays open until the client's next `Begin` to its
    // node carries its `End`, so an `End` held too long shows as a round
    // timer firing on a decided instance. 2 × 1 000 transactions outlast
    // PaxosCommit's first round timer (8·U) several times over.
    let service = two_clients(ProtocolKind::PaxosCommit, 1000)
        .keys_per_shard(1 << 20)
        .transport(TransportKind::Tcp);
    let cell = run_cell(Host::Tcp, &service, &FaultSpec::none(n))
        .expect("an in-process host serves any configuration");
    let fires_pct = 100.0 * cell.timer_fires as f64 / cell.txns().max(1) as f64;
    let p50_micros = cell.sojourn.p50() as f64 / 1e3;
    let clean = cell.audit_findings == 0 && cell.stats.stalled == 0;
    checks.push(PerfCheck::exact(
        "PaxosCommit over tcp closed-loop timer fires per 100 txns (must be ≤ 1, p50 < U)".into(),
        1.0,
        fires_pct,
        clean && fires_pct <= 1.0 && p50_micros < unit_micros,
    ));
    checks
}

/// Hold the `fresh` simulator and service sections against the serialized
/// committed baseline — a pure function of its inputs; the already
/// evaluated `live` gates ride along into the comparison. Returns the
/// human-readable report and the machine-readable comparison.
pub fn diff(
    against_text: &str,
    fresh: &BenchBaseline,
    live: Vec<PerfCheck>,
) -> Result<(Report, PerfComparison), String> {
    let no_service = "the fresh side carries no service section";
    let service = fresh.service.as_ref().ok_or(no_service)?;

    // --- The committed baseline itself: one rule set, the validator's.
    // A file that does not read back as a baseline fails the gate with
    // its problems, and nothing is diffed. The chaos, attribution and
    // saturation numbers are not re-measured here (`repro saturate` owns
    // that), but a baseline whose faulted runs were not clean, whose stage
    // shares do not telescope or whose goodput exceeds its offered load
    // must never pass the gate — nor one that dropped a live section. ---
    let against = BenchBaseline::from_json(against_text);
    let problems = match against.as_ref().map(BenchBaseline::validate) {
        Err(problems) => problems.clone(),
        Ok(Err(problems)) => problems,
        Ok(Ok(found)) => (BenchBaseline::SECTIONS.iter())
            .filter(|s| !found.contains(s))
            .map(|s| format!("a committed baseline must carry the {s} section"))
            .collect(),
    };
    let committed = |p| PerfCheck::exact(format!("committed baseline: {p}"), 0.0, 1.0, false);
    let mut checks: Vec<PerfCheck> = problems.into_iter().map(committed).collect();
    let Ok(against) = against else {
        checks.extend(live);
        return Ok(render(checks));
    };
    // Not a validator rule — a `--quick` file legitimately carries one
    // curve — but the committed (full) baseline must cover all seven
    // Table-5 protocols on the channel transport.
    for protocol in table5_protocol_names() {
        let mut curves = against.saturation.iter().flat_map(|s| &s.curves);
        let covered = curves.any(|c| c.protocol == protocol && c.transport == "channel");
        let key = format!("saturation covers {protocol} on channel (committed)");
        checks.push(PerfCheck::exact(key, 1.0, f64::from(covered), covered));
    }

    // --- Counter-exact: simulator complexity per Table-5 protocol. ---
    for p in &fresh.protocols {
        let Some(base) = against.protocols.iter().find(|b| b.protocol == p.protocol) else {
            continue; // protocol added since the baseline: nothing to diff
        };
        for (metric, b, cur) in [
            ("delays", base.delays, p.delays),
            ("messages", base.messages, p.messages),
        ] {
            let key = format!("{} nice-execution {metric}", p.protocol);
            checks.push(PerfCheck::exact(key, b as f64, cur as f64, cur == b));
        }
        let (key, b) = (format!("{} µs/run", p.protocol), base.nice_run_micros);
        checks.push(PerfCheck::warn(key, b, p.nice_run_micros));
    }

    // --- Counter-exact: explorer soundness and space size. ---
    let (e, b) = (&fresh.explorer, &against.explorer);
    let (bc, cc) = (b.counterexamples as f64, e.counterexamples as f64);
    let (bx, cx) = (b.executions as f64, e.executions as f64);
    let (bs, cs) = (b.sequential_millis, e.sequential_millis);
    checks.extend([
        PerfCheck::exact("explorer counterexamples".into(), bc, cc, cc == 0.0),
        PerfCheck::exact("explorer executions".into(), bx, cx, cx == bx),
        PerfCheck::warn("explorer sequential ms".into(), bs, cs),
    ]);

    checks.extend(live);

    // --- Service entries: match on (protocol, workload, clients). ---
    for e in &service.entries {
        let label = format!("{}/{}/c{}", e.protocol, e.workload, e.clients);
        // Unconditional counter gates: the fresh run must be clean.
        for (what, count) in [
            ("safety violations", e.safety_violations),
            ("stalled clients", e.stalled),
        ] {
            let key = format!("{label} {what}");
            checks.push(PerfCheck::exact(key, 0.0, count as f64, count == 0));
        }
        let mut bases = against.service.iter().flat_map(|s| &s.entries);
        let Some(base) = bases.find(|b| b.key() == e.key()) else {
            continue; // concurrency level not in the baseline (quick vs full)
        };
        // Commit rate: counter-backed, gated with a noise tolerance.
        let rate = |e: &ServiceEntry| 100.0 * e.committed as f64 / e.txns.max(1) as f64;
        let (br, cr) = (rate(base), rate(e));
        let rate_key = format!("{label} commit rate (±{COMMIT_RATE_TOLERANCE_PP}pp)");
        // Wire cost per transaction: counter-backed, bounded growth.
        let (bw, cw) = (base.wire_per_txn, e.wire_per_txn);
        let wire_key = format!("{label} wire msgs/txn (≤{WIRE_PER_TXN_TOLERANCE}x)");
        checks.extend([
            PerfCheck::exact(rate_key, br, cr, cr >= br - COMMIT_RATE_TOLERANCE_PP),
            PerfCheck::exact(wire_key, bw, cw, cw <= bw * WIRE_PER_TXN_TOLERANCE),
        ]);
        // Wall-clock drift: informational.
        for (metric, b, cur) in [
            ("throughput t/s", base.throughput_tps, e.throughput_tps),
            ("p50 µs", base.p50_micros, e.p50_micros),
            ("p99 µs", base.p99_micros, e.p99_micros),
            ("p99.9 µs", base.p999_micros, e.p999_micros),
        ] {
            checks.push(PerfCheck::warn(format!("{label} {metric}"), b, cur));
        }
    }
    Ok(render(checks))
}

/// The report and the comparison of `checks`.
fn render(checks: Vec<PerfCheck>) -> (Report, PerfComparison) {
    let exact = checks.iter().filter(|c| c.gate == "exact").count();
    let failed = checks.iter().filter(|c| !c.ok).count();
    let mut r = Report::new("perf");
    let mut gate = Table::new(
        "Counter-exact gates (a regression fails the run)",
        &["check", "baseline", "current", "verdict"],
    );
    let mut drift = Table::new(
        "Wall-clock drift (informational; refresh the committed baseline to move the trajectory)",
        &["metric", "baseline", "current", "ratio"],
    );
    for c in &checks {
        let (table, verdict) = if c.gate == "exact" {
            (&mut gate, r.compare(c.ok).to_string())
        } else if c.against > 0.0 {
            (&mut drift, format!("{:.2}x", c.current / c.against))
        } else {
            (&mut drift, "-".into())
        };
        let (against, current) = (format!("{:.2}", c.against), format!("{:.2}", c.current));
        table.row(vec![c.key.clone(), against, current, verdict]);
    }
    r.table(gate);
    r.table(drift);
    r.note(format!(
        "{exact} counter-exact check(s), {failed} failed; commit-rate tolerance \
         {COMMIT_RATE_TOLERANCE_PP}pp, wire-cost tolerance {WIRE_PER_TXN_TOLERANCE}x."
    ));
    (r, PerfComparison { checks, failed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::service_section;
    use crate::report::tests::sample_baseline;

    /// The keys of the failed checks of `fresh` (no live gates) held
    /// against `committed`.
    fn failed_keys(committed: &BenchBaseline, fresh: &BenchBaseline) -> Vec<String> {
        failed_keys_of(&committed.to_json(), fresh)
    }

    /// [`failed_keys`] against a committed file's text.
    fn failed_keys_of(committed: &str, fresh: &BenchBaseline) -> Vec<String> {
        let (report, comparison) = diff(committed, fresh, Vec::new()).expect("comparison runs");
        let failed: Vec<String> = comparison
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.key.clone())
            .collect();
        assert_eq!(comparison.failed, failed.len());
        assert_eq!(report.all_matched(), failed.is_empty());
        failed
    }

    #[test]
    fn self_diff_passes_every_check() {
        let b = sample_baseline();
        let (report, comparison) = diff(&b.to_json(), &b, Vec::new()).expect("comparison runs");
        assert_eq!(comparison.failed, 0, "{}", report.render());
        // 7 coverage + 7×2 complexity + 2 explorer + 8 service entries × 4.
        let exact = comparison.checks.iter().filter(|c| c.gate == "exact");
        assert_eq!(exact.count(), 7 + 14 + 2 + 32);
        // The artifact round-trips as JSON.
        let v: serde_json::Value = serde_json::from_str(&comparison.to_json()).unwrap();
        assert_eq!(v["failed"].as_u64(), Some(0));
    }

    #[test]
    fn a_regression_fails_exactly_its_own_check() {
        let mut fresh = sample_baseline();
        fresh.protocols[0].messages += 1;
        fresh.explorer.executions += 1;
        let service = fresh.service.as_mut().unwrap();
        service.entries[0].committed -= 9; // 30 txns: −30 pp
        service.entries[1].wire_per_txn *= 2.0;
        let first = &fresh.protocols[0].protocol;
        assert_eq!(
            failed_keys(&sample_baseline(), &fresh),
            [
                format!("{first} nice-execution messages"),
                "explorer executions".into(),
                "2PC/uniform/c2 commit rate (±25pp)".into(),
                "2PC/uniform/c8 wire msgs/txn (≤1.5x)".into(),
            ]
        );
    }

    /// The parent re-stated these validator rules as 130 static "(committed"
    /// rows; the gate now enforces them through the validator itself.
    #[test]
    fn a_dirty_committed_baseline_fails_the_gate_through_the_validator() {
        let mut committed = sample_baseline();
        committed.chaos.as_mut().unwrap().entries[0].safety_violations = 1;
        committed.attribution.as_mut().unwrap().entries[0].coverage_pct = 0.0;
        let sat = committed.saturation.as_mut().unwrap();
        sat.curves[0].knee.share_sum_pct = 70.0;
        sat.curves[1].steps[0].goodput_tps = sat.curves[1].steps[0].offered_tps * 1.2;
        let failed = failed_keys(&committed, &sample_baseline());
        assert_eq!(failed.len(), 4, "{failed:?}");
        for (key, needle) in failed.iter().zip([
            "safety audit must be clean on every faulted run",
            "coverage_pct must be positive",
            "knee stage shares must sum to 100 ± 5 %",
            "goodput_tps must be within [0, 1.1 × offered_tps]",
        ]) {
            assert!(
                key.starts_with("committed baseline: ") && key.contains(needle),
                "{key:?} does not name {needle:?}"
            );
        }
    }

    #[test]
    fn a_committed_baseline_without_a_live_section_is_refused() {
        let mut committed = sample_baseline();
        committed.chaos = None;
        assert_eq!(
            failed_keys(&committed, &sample_baseline()),
            ["committed baseline: a committed baseline must carry the chaos section"]
        );
    }

    #[test]
    fn an_against_file_that_does_not_read_fails_the_gate_with_its_problems() {
        let garbage = failed_keys_of("not json", &sample_baseline());
        assert_eq!(garbage.len(), 1);
        assert!(garbage[0].starts_with("committed baseline: JSON error at byte 0"));
        let text = sample_baseline()
            .to_json()
            .replace("\"p90_micros\": 12000", "\"p90_micros\": \"x\"");
        let mistyped = failed_keys_of(&text, &sample_baseline());
        assert_eq!(mistyped.len(), 8, "one per service entry: {mistyped:?}");
        assert!(mistyped[7].ends_with("service.entries[7].p90_micros: expected a number"));
    }

    /// A live self-comparison: measure the service section once, put it
    /// into the full document, diff that against itself. Every diffed and
    /// safety check must pass. The live gates bound wall-clock behaviour
    /// (a timer firing, a batch forming), which an unoptimised build on a
    /// small box does not meet reliably — CI's `perf-smoke` asserts them
    /// in release; here their rows must be present.
    #[test]
    fn quick_self_comparison_passes_every_diffed_and_safety_check() {
        let _serial = crate::experiments::live_sweep_lock();
        let mut scratch = Report::new("perf");
        let service = service_section(&mut scratch, true, Host::Channel).unwrap();
        let fresh = BenchBaseline {
            service: Some(service),
            ..sample_baseline()
        };
        let (report, comparison) =
            diff(&fresh.to_json(), &fresh, live_gates(true)).expect("comparison runs");
        let live_gate = |c: &&PerfCheck| c.key.contains("(must be ");
        let failed: Vec<&PerfCheck> = comparison
            .checks
            .iter()
            .filter(|c| !c.ok && !live_gate(c))
            .collect();
        assert!(failed.is_empty(), "{failed:?}\n{}", report.render());
        assert_eq!(
            comparison.checks.iter().filter(live_gate).count(),
            2 + 8 + 1
        );
    }
}
