//! # ac-bench — criterion benches, one per paper table/figure
//!
//! Each bench target first regenerates its table/figure through
//! `ac-harness` (printing the paper-vs-measured rows), then measures the
//! wall-clock cost of the underlying simulated executions with criterion.
//! `cargo bench --workspace` therefore both reproduces the evaluation and
//! tracks the simulator's own performance.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use ac_commit::explorer::{explore_jobs, ExplorerConfig};
use ac_commit::protocols::ProtocolKind;
use ac_commit::Scenario;

/// Standard nice-execution benchmark body: run `kind` on `(n, f)`.
pub fn run_nice(kind: ProtocolKind, n: usize, f: usize) -> u64 {
    let out = kind.run(&Scenario::nice(n, f));
    out.metrics().messages as u64
}

/// Explorer benchmark body: exhaustively explore `kind` over `jobs` worker
/// threads on a single-crash 0..6U grid and return the executions count
/// (asserting the space was clean). The `benches/explorer.rs` target times
/// this body at `jobs = 1` vs `jobs = 4` — the repo's standing
/// sequential-vs-parallel measurement.
pub fn run_explorer(kind: ProtocolKind, n: usize, f: usize, jobs: usize) -> usize {
    let cfg = ExplorerConfig::small(n, f);
    let report = explore_jobs(kind, &cfg, jobs);
    report.assert_ok(kind.name());
    report.executions
}

/// The seven Table-5 protocols (delegates to the canonical list in
/// [`ProtocolKind::table5`]).
pub fn table5_protocols() -> [ProtocolKind; 7] {
    ProtocolKind::table5()
}
