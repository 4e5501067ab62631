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

use crate::experiments::load_baseline;
use crate::report::{BenchBaseline, Report, Table};

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
    /// The committed baseline's value.
    pub against: f64,
    /// The freshly measured value.
    pub current: f64,
    /// Whether the check passed (warn-gate checks always pass; their
    /// drift is in the numbers).
    pub ok: bool,
}

/// The machine-readable comparison artifact (uploaded by CI).
#[derive(Clone, Debug, Serialize)]
pub struct PerfComparison {
    /// Schema version of the baseline compared against.
    pub against_schema: u64,
    /// Every compared metric.
    pub checks: Vec<PerfCheck>,
    /// Number of failed counter-exact checks (0 = gate passes).
    pub failed: usize,
}

impl PerfComparison {
    /// Whether the counter-exact gate passed.
    pub fn passed(&self) -> bool {
        self.failed == 0
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("comparison serialization cannot fail")
    }

    /// Write the comparison to `path` (pretty JSON, trailing newline).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

fn f(v: &serde_json::Value) -> Option<f64> {
    // The vendored serde_json stores every number as f64.
    v.as_f64()
}

/// Re-measure (`quick` shrinks the sweep, `jobs` feeds the explorer leg)
/// and compare against the serialized baseline in `against_text`.
///
/// Returns the human-readable report, the machine-readable comparison and
/// the freshly measured baseline (so the caller can persist it if wanted).
pub fn perf_compare(
    quick: bool,
    jobs: usize,
    against_text: &str,
) -> Result<(Report, PerfComparison, BenchBaseline), String> {
    let against: serde_json::Value = serde_json::from_str(against_text)
        .map_err(|e| format!("--against file is not valid JSON: {e:?}"))?;
    let against_schema = against["schema_version"]
        .as_u64()
        .ok_or("--against file has no schema_version")?;

    let (_, current) = load_baseline(quick, jobs, ac_cluster::TransportKind::Channel);
    let mut checks: Vec<PerfCheck> = Vec::new();

    // --- Counter-exact: simulator complexity per Table-5 protocol. ---
    let empty = Vec::new();
    let against_protocols = against["protocols"].as_array().unwrap_or(&empty);
    for p in &current.protocols {
        let base = against_protocols
            .iter()
            .find(|b| b["protocol"].as_str() == Some(p.protocol.as_str()));
        let Some(base) = base else {
            continue; // protocol added since the baseline: nothing to diff
        };
        for (metric, cur, b) in [
            ("delays", p.delays as f64, f(&base["delays"])),
            ("messages", p.messages as f64, f(&base["messages"])),
        ] {
            if let Some(b) = b {
                checks.push(PerfCheck {
                    gate: "exact".into(),
                    key: format!("{} nice-execution {metric}", p.protocol),
                    against: b,
                    current: cur,
                    ok: cur == b,
                });
            }
        }
        if let Some(b) = f(&base["nice_run_micros"]) {
            checks.push(PerfCheck {
                gate: "warn".into(),
                key: format!("{} µs/run", p.protocol),
                against: b,
                current: p.nice_run_micros,
                ok: true,
            });
        }
    }

    // --- Counter-exact: explorer soundness and space size. ---
    checks.push(PerfCheck {
        gate: "exact".into(),
        key: "explorer counterexamples".into(),
        against: f(&against["explorer"]["counterexamples"]).unwrap_or(0.0),
        current: current.explorer.counterexamples as f64,
        ok: current.explorer.counterexamples == 0,
    });
    if let Some(b) = f(&against["explorer"]["executions"]) {
        checks.push(PerfCheck {
            gate: "exact".into(),
            key: "explorer executions".into(),
            against: b,
            current: current.explorer.executions as f64,
            ok: current.explorer.executions as f64 == b,
        });
    }
    checks.push(PerfCheck {
        gate: "warn".into(),
        key: "explorer sequential ms".into(),
        against: f(&against["explorer"]["sequential_millis"]).unwrap_or(0.0),
        current: current.explorer.sequential_millis,
        ok: true,
    });

    // --- Chaos section (schema v3): the committed availability numbers
    // are not re-measured here (`repro chaos` owns that), but a baseline
    // whose faulted runs were not clean must never pass the gate. These
    // checks are static: both columns show the committed value (nothing
    // was re-measured), and `ok` demands it be zero.
    if against_schema >= 3 {
        let chaos_entries = against["chaos"]["entries"].as_array().unwrap_or(&empty);
        for e in chaos_entries {
            let label = format!(
                "chaos {}/{}",
                e["protocol"].as_str().unwrap_or("?"),
                e["scenario"].as_str().unwrap_or("?")
            );
            for (metric, key) in [
                (
                    "safety_violations",
                    "safety violations (committed, must be 0)",
                ),
                ("stalled", "unresolved txns (committed, must be 0)"),
            ] {
                let committed = f(&e[metric]).unwrap_or(f64::NAN);
                checks.push(PerfCheck {
                    gate: "exact".into(),
                    key: format!("{label} {key}"),
                    against: committed,
                    current: committed,
                    ok: e[metric].as_u64() == Some(0),
                });
            }
        }
    }

    // --- Attribution section (schema v4): like the chaos gates, static
    // checks on the committed numbers — a baseline whose stage shares do
    // not telescope to the end-to-end time (±5 %) or that covered no
    // transactions was produced by a broken flight recorder and must
    // never pass. ---
    if against_schema >= 4 {
        let attr_entries = against["attribution"]["entries"]
            .as_array()
            .unwrap_or(&empty);
        for e in attr_entries {
            let label = format!(
                "attribution {}/{}",
                e["protocol"].as_str().unwrap_or("?"),
                e["transport"].as_str().unwrap_or("?")
            );
            let share_sum = f(&e["share_sum_pct"]).unwrap_or(f64::NAN);
            checks.push(PerfCheck {
                gate: "exact".into(),
                key: format!("{label} stage-share sum (committed, 100±5%)"),
                against: share_sum,
                current: share_sum,
                ok: (95.0..=105.0).contains(&share_sum),
            });
            let coverage = f(&e["coverage_pct"]).unwrap_or(f64::NAN);
            checks.push(PerfCheck {
                gate: "exact".into(),
                key: format!("{label} timeline coverage (committed, >0%)"),
                against: coverage,
                current: coverage,
                ok: coverage > 0.0,
            });
        }
    }

    // --- Saturation section (schema v5): static checks on the committed
    // curves — every curve must carry an in-range knee whose stage shares
    // telescope, goodput must never exceed the offered load, and the
    // committed (full) baseline must cover all seven Table-5 protocols on
    // the channel transport. ---
    if against_schema >= 5 {
        let curves = against["saturation"]["curves"].as_array().unwrap_or(&empty);
        for protocol in crate::report::table5_protocol_names() {
            let covered = curves.iter().any(|c| {
                c["protocol"].as_str() == Some(protocol)
                    && c["transport"].as_str() == Some("channel")
            });
            checks.push(PerfCheck {
                gate: "exact".into(),
                key: format!("saturation covers {protocol} on channel (committed)"),
                against: 1.0,
                current: if covered { 1.0 } else { 0.0 },
                ok: covered,
            });
        }
        for c in curves {
            let label = format!(
                "saturation {}/n{}/c{}",
                c["protocol"].as_str().unwrap_or("?"),
                c["n"].as_u64().unwrap_or(0),
                c["clients"].as_u64().unwrap_or(0)
            );
            let steps = c["steps"].as_array().unwrap_or(&empty);
            let knee_step = c["knee"]["step"].as_u64().unwrap_or(u64::MAX);
            checks.push(PerfCheck {
                gate: "exact".into(),
                key: format!("{label} knee present (committed)"),
                against: steps.len() as f64,
                current: knee_step as f64,
                ok: (knee_step as usize) < steps.len(),
            });
            let share_sum = f(&c["knee"]["share_sum_pct"]).unwrap_or(f64::NAN);
            checks.push(PerfCheck {
                gate: "exact".into(),
                key: format!("{label} knee stage-share sum (committed, 100±5%)"),
                against: share_sum,
                current: share_sum,
                ok: (95.0..=105.0).contains(&share_sum),
            });
            for s in steps {
                let (o, g) = (
                    f(&s["offered_tps"]).unwrap_or(f64::NAN),
                    f(&s["goodput_tps"]).unwrap_or(f64::NAN),
                );
                checks.push(PerfCheck {
                    gate: "exact".into(),
                    key: format!(
                        "{label} x{} goodput <= offered (committed)",
                        s["step"].as_u64().unwrap_or(0)
                    ),
                    against: o,
                    current: g,
                    ok: g >= 0.0 && g <= o * 1.10,
                });
            }
        }
    }

    // --- Live WAL-force gate: re-measure a durable ×16 open-loop cell
    // per WAL-forcing protocol and demand forces/txn < 1 — the
    // group-commit invariant (one force per drained batch instead of one
    // per record, which cost ≥ 2 per txn). Counter-exact: `wal_forces`
    // counts force operations, `txns` fully served transactions. ---
    for kind in [
        ac_commit::protocols::ProtocolKind::TwoPc,
        ac_commit::protocols::ProtocolKind::PaxosCommit,
    ] {
        let out = crate::experiments::saturate_cell(
            kind,
            ac_cluster::TransportKind::Channel,
            4,
            8,
            16.0 * crate::experiments::SATURATION_BASE_RATE,
            std::time::Duration::from_millis(300),
        );
        let forces_per_txn = out.wal_forces as f64 / out.txns.max(1) as f64;
        let base = against["saturation"]["curves"]
            .as_array()
            .unwrap_or(&empty)
            .iter()
            .find(|c| c["protocol"].as_str() == Some(kind.name()))
            .and_then(|c| {
                c["steps"]
                    .as_array()?
                    .last()
                    .and_then(|s| f(&s["forces_per_txn"]))
            });
        checks.push(PerfCheck {
            gate: "exact".into(),
            key: format!("{} durable x16 WAL forces/txn (must be < 1)", kind.name()),
            against: base.unwrap_or(1.0),
            current: forces_per_txn,
            ok: forces_per_txn < 1.0,
        });
        checks.push(PerfCheck {
            gate: "exact".into(),
            key: format!("{} durable x16 safety violations", kind.name()),
            against: 0.0,
            current: out.violations.len() as f64,
            ok: out.violations.is_empty(),
        });
    }

    // --- Live message-speed gate: the round timers of 2PC, 3PC, 1NBAC
    // and INBAC guard complete-able collections, so a failure-free
    // closed-loop run must be paced by message hand-offs, not by `U`:
    // p50 below one unit (timer-paced, even the one-delay 1NBAC sat at
    // `1·U`) and a protocol timer firing on at most 1 % of transactions
    // (a fire means an instance was still open at its deadline — a
    // scheduling stall, never the normal path). Counter-backed:
    // `Stage::TimerFire` counts live timers the node loops fired. ---
    for kind in [
        ac_commit::protocols::ProtocolKind::TwoPc,
        ac_commit::protocols::ProtocolKind::ThreePc,
        ac_commit::protocols::ProtocolKind::Nbac1,
        ac_commit::protocols::ProtocolKind::Inbac,
    ] {
        let (n, f_res) = crate::experiments::SERVICE_GRID;
        let unit = crate::experiments::SERVICE_UNIT;
        let out = ac_cluster::run_service(
            &ac_cluster::ServiceConfig::new(n, f_res, kind)
                .clients(2)
                .txns_per_client(if quick { 50 } else { 100 })
                .workload(ac_txn::Workload::Uniform { span: 2 })
                .unit(unit)
                .keys_per_shard(32)
                .seed(7),
        );
        let fires = out.stage_meters.get(ac_cluster::Stage::TimerFire).0;
        let fires_pct = 100.0 * fires as f64 / out.txns.max(1) as f64;
        checks.push(PerfCheck {
            gate: "exact".into(),
            key: format!(
                "{} closed-loop timer fires per 100 txns (must be ≤ 1)",
                kind.name()
            ),
            against: 1.0,
            current: fires_pct,
            ok: out.is_safe() && out.stalled == 0 && fires_pct <= 1.0,
        });
        let p50_micros = out.latency.p50() as f64 / 1e3;
        checks.push(PerfCheck {
            gate: "exact".into(),
            key: format!("{} closed-loop p50 µs (must be < U)", kind.name()),
            against: unit.as_micros() as f64,
            current: p50_micros,
            ok: p50_micros < unit.as_micros() as f64,
        });
    }

    // --- Service entries: match on (protocol, workload, clients). ---
    let service = current
        .service
        .as_ref()
        .expect("load_baseline always measures the service");
    let against_entries = against["service"]["entries"].as_array().unwrap_or(&empty);
    for e in &service.entries {
        let label = format!("{}/{}/c{}", e.protocol, e.workload, e.clients);
        // Unconditional counter gates: the fresh run must be clean.
        checks.push(PerfCheck {
            gate: "exact".into(),
            key: format!("{label} safety violations"),
            against: 0.0,
            current: e.safety_violations as f64,
            ok: e.safety_violations == 0,
        });
        checks.push(PerfCheck {
            gate: "exact".into(),
            key: format!("{label} stalled clients"),
            against: 0.0,
            current: e.stalled as f64,
            ok: e.stalled == 0,
        });
        let base = against_entries.iter().find(|b| {
            b["protocol"].as_str() == Some(e.protocol.as_str())
                && b["workload"].as_str() == Some(e.workload.as_str())
                && b["clients"].as_u64() == Some(e.clients as u64)
        });
        let Some(base) = base else {
            continue; // concurrency level not in the baseline (quick vs full)
        };
        // Commit rate: counter-backed, gated with a noise tolerance.
        let cur_rate = 100.0 * e.committed as f64 / (e.txns.max(1)) as f64;
        if let (Some(bc), Some(bt)) = (f(&base["committed"]), f(&base["txns"])) {
            let base_rate = 100.0 * bc / bt.max(1.0);
            checks.push(PerfCheck {
                gate: "exact".into(),
                key: format!("{label} commit rate (±{COMMIT_RATE_TOLERANCE_PP}pp)"),
                against: base_rate,
                current: cur_rate,
                ok: cur_rate >= base_rate - COMMIT_RATE_TOLERANCE_PP,
            });
        }
        // Wire cost per transaction: counter-backed, bounded growth.
        if let (Some(bw), Some(cw)) = (f(&base["wire_per_txn"]), e.wire_per_txn) {
            checks.push(PerfCheck {
                gate: "exact".into(),
                key: format!("{label} wire msgs/txn (≤{WIRE_PER_TXN_TOLERANCE}x)"),
                against: bw,
                current: cw,
                ok: cw <= bw * WIRE_PER_TXN_TOLERANCE,
            });
        }
        // Wall-clock drift: informational.
        for (metric, cur, b) in [
            (
                "throughput t/s",
                e.throughput_tps,
                f(&base["throughput_tps"]),
            ),
            ("p50 µs", e.p50_micros, f(&base["p50_micros"])),
            ("p99 µs", e.p99_micros, f(&base["p99_micros"])),
            (
                "p99.9 µs",
                e.p999_micros.unwrap_or(f64::NAN),
                e.p999_micros.and(f(&base["p999_micros"])),
            ),
        ] {
            if let Some(b) = b {
                checks.push(PerfCheck {
                    gate: "warn".into(),
                    key: format!("{label} {metric}"),
                    against: b,
                    current: cur,
                    ok: true,
                });
            }
        }
    }

    let failed = checks.iter().filter(|c| !c.ok).count();
    let comparison = PerfComparison {
        against_schema,
        checks,
        failed,
    };

    // Render the report.
    let mut r = Report::new("perf");
    let mut gate = Table::new(
        "Counter-exact gates (a regression fails the run)",
        &["check", "baseline", "current", "verdict"],
    );
    let mut drift = Table::new(
        "Wall-clock drift (informational; refresh the committed baseline to move the trajectory)",
        &["metric", "baseline", "current", "ratio"],
    );
    for c in &comparison.checks {
        if c.gate == "exact" {
            let verdict = r.compare(c.ok).to_string();
            gate.row(vec![
                c.key.clone(),
                format!("{:.2}", c.against),
                format!("{:.2}", c.current),
                verdict,
            ]);
        } else {
            drift.row(vec![
                c.key.clone(),
                format!("{:.2}", c.against),
                format!("{:.2}", c.current),
                if c.against > 0.0 {
                    format!("{:.2}x", c.current / c.against)
                } else {
                    "-".into()
                },
            ]);
        }
    }
    r.table(gate);
    r.table(drift);
    r.note(format!(
        "{} counter-exact check(s), {} failed; commit-rate tolerance \
         {COMMIT_RATE_TOLERANCE_PP}pp, wire-cost tolerance {WIRE_PER_TXN_TOLERANCE}x.",
        comparison
            .checks
            .iter()
            .filter(|c| c.gate == "exact")
            .count(),
        comparison.failed,
    ));
    Ok((r, comparison, current))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A self-comparison must pass: measure quick, serialize, compare a
    /// second quick run against it. Commit rates move run to run, but
    /// within the gate's tolerance; everything counter-exact is stable.
    #[test]
    fn quick_self_comparison_passes_the_gate() {
        let _serial = crate::experiments::live_sweep_lock();
        let (_, baseline) = load_baseline(true, 2, ac_cluster::TransportKind::Channel);
        let (report, comparison, _) =
            perf_compare(true, 2, &baseline.to_json()).expect("comparison runs");
        assert!(
            comparison.passed(),
            "self-comparison failed: {}",
            report.render()
        );
        assert!(report.all_matched());
        // The artifact round-trips as JSON.
        let v: serde_json::Value = serde_json::from_str(&comparison.to_json()).unwrap();
        assert_eq!(v["failed"].as_u64(), Some(0));
    }

    #[test]
    fn garbage_against_file_is_rejected() {
        assert!(perf_compare(true, 1, "not json").is_err());
    }
}
