//! The observability layer must be free where it matters. The always-on
//! seam meters and flight recorder ride the hot path (drain-then-dispatch,
//! batched flushes, zero idle wakeups) — these guards pin that the
//! instruments did not buy their data with wakeups, stalls or lost
//! counter exactness. The idle half of the invariant (zero spurious wakeups
//! with instruments armed and nothing to measure) is pinned by
//! `service::tests::idle_nodes_perform_zero_spurious_wakeups_over_50ms`;
//! the long-run half (ended transactions leave no timer behind to wake a
//! node) by the second test here.

use std::time::Duration;

use ac_cluster::{run_service, ServiceConfig};
use ac_commit::protocols::ProtocolKind;
use ac_txn::Workload;

/// The PaxosCommit ×16 hot path: a protocol with no timer on its path, at
/// the sweep's highest concurrency, fully instrumented. The run must
/// stay safe, stall-free and wakeup-free, and the flight recorder, which
/// records every transaction, must reconstruct every decided one with
/// stage shares telescoping to the measured latency.
#[test]
fn instrumented_hot_path_stays_wakeup_free_and_fully_attributed() {
    let cfg = ServiceConfig::new(4, 1, ProtocolKind::PaxosCommit)
        .clients(16)
        .txns_per_client(6)
        .workload(Workload::Uniform { span: 2 })
        .unit(Duration::from_millis(2))
        .keys_per_shard(64)
        .seed(3);
    let out = run_service(&cfg);

    // Counter-exact gates: instrumentation must not change what the
    // service does, only record it.
    assert!(out.is_safe(), "safety violations: {:?}", out.violations);
    assert_eq!(out.stalled, 0, "instrumented run must not stall");
    assert_eq!(out.orphaned_envelopes, 0);
    assert_eq!(
        out.spurious_wakeups, 0,
        "recording must never wake the node loop"
    );
    assert_eq!(out.txns, 16 * 6);

    // Attribution gates: every decided transaction reconstructed, and
    // the telescoping decomposition exact (±5 % absorbs nothing here —
    // full coverage makes the sum 100 % by construction).
    let a = &out.attribution;
    assert_eq!(a.total, out.txns);
    assert_eq!(a.covered, a.total, "every decided txn reconstructed");
    assert_eq!(a.dropped_events, 0, "ring must not wrap at test scale");
    assert!(
        (a.share_sum_pct() - 100.0).abs() < 1e-6,
        "stage shares sum to {}",
        a.share_sum_pct()
    );
    assert_eq!(a.e2e.count(), out.txns as u64);

    // The instruments actually measured the seams they claim to cover.
    use ac_cluster::Stage;
    for stage in [Stage::ClientQueueWait, Stage::LockAcquire, Stage::Flush] {
        let (count, _) = out.stage_meters.get(stage);
        assert!(count > 0, "stage {} never recorded", stage.name());
    }
    // A healthy non-durable run has no WAL, so the WAL-force meter must
    // agree exactly with the service's own prepare-force counter (both
    // zero here) — the meter is counter-exact, not an estimate.
    let (forces, _) = out.stage_meters.get(Stage::WalForce);
    assert_eq!(forces as usize, out.wal_prepare_forces);
}

/// A run many `U` long: every PaxosCommit instance arms a round timer at
/// open and is ended by its client long before the timer is due. Those
/// timers must die with their instance — a node that parks on an ended
/// transaction's deadline wakes up to move nothing. (The run above ends
/// before its first `U` elapses, so it cannot see this.)
#[test]
fn ended_transactions_leave_no_timer_to_wake_an_idle_node() {
    let cfg = ServiceConfig::new(4, 1, ProtocolKind::PaxosCommit)
        .clients(2)
        .txns_per_client(2000)
        .workload(Workload::Uniform { span: 2 })
        .unit(Duration::from_millis(1))
        .keys_per_shard(1 << 20)
        .seed(5);
    let out = run_service(&cfg);
    assert!(out.is_safe(), "safety violations: {:?}", out.violations);
    assert_eq!(out.txns, 2 * 2000);
    assert!(
        out.elapsed > 20 * cfg.unit,
        "the run must span many timer periods, took {:?}",
        out.elapsed
    );
    assert_eq!(
        out.spurious_wakeups, 0,
        "a node woke for the timer of a transaction that had ended"
    );
}
