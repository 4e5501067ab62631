//! Drive the live service under an [`ac_net::FaultPlan`] and measure
//! availability-under-failure: who keeps committing while the fault is
//! live, who merely keeps *deciding*, who blocks, and how long recovery
//! takes after the heal.

use std::time::Duration;

use ac_cluster::{run_service_faulted, FaultSpec, ServiceConfig, ServiceOutcome, TxnEvent};
use ac_net::FaultPlan;

/// One chaos experiment: a service configuration plus the fault schedule.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// The service under test.
    pub service: ServiceConfig,
    /// The injected faults, in ticks at the service's unit.
    pub plan: FaultPlan,
}

/// Availability accounting against the plan's fault window.
#[derive(Clone, Debug)]
pub struct FaultStats {
    /// Fault window start (wall clock since the service epoch).
    pub fault_from: Duration,
    /// Fault window end — the heal/restart instant (clamped to the run
    /// length for faults that never heal).
    pub fault_until: Duration,
    /// Transactions first submitted inside the window.
    pub submitted_during_fault: usize,
    /// Of those, the ones whose outcome the client learned before the heal.
    pub decided_during_fault: usize,
    /// Transactions whose decision completed inside the window **and**
    /// committed — the paper-facing availability signal.
    pub committed_during_fault: usize,
    /// Transactions committed after the heal.
    pub committed_after_heal: usize,
    /// Committed-ops/s while the fault was live.
    pub ops_during_fault: f64,
    /// Committed-ops/s from the heal to the end of the run.
    pub ops_after_heal: f64,
    /// `100 · decided_during_fault / submitted_during_fault` (100 when
    /// nothing was submitted in the window).
    pub availability_pct: f64,
    /// Transactions whose outcome the client did not learn before its
    /// park point — the time its closed loop stops waiting for one
    /// (`park_retries` bounded reply waits) — or never learned: 2PC's
    /// transactions under a crashed coordinator land here, while a
    /// protocol whose survivors decide reports them before it parks.
    pub blocked: usize,
    /// Worst time from the heal to a blocked transaction's decision (zero
    /// when nothing blocked or nothing recovered) — the time-to-unblock.
    pub time_to_unblock: Duration,
    /// Transactions never resolved (equals the service's stall count).
    pub unresolved: usize,
}

impl FaultStats {
    /// Bucket `events` against the fault window `[from, until)`; a
    /// transaction decided `park` or more after its submission, or never,
    /// counts as blocked.
    pub fn measure(
        events: &[TxnEvent],
        from: Duration,
        until: Duration,
        run: Duration,
        park: Duration,
    ) -> FaultStats {
        let until = until.min(run).max(from);
        let mut submitted_during_fault = 0;
        let mut decided_during_fault = 0;
        let mut committed_during_fault = 0;
        let mut committed_after_heal = 0;
        let mut blocked = 0;
        let mut unresolved = 0;
        let mut time_to_unblock = Duration::ZERO;
        for ev in events {
            let in_window = ev.submitted_at >= from && ev.submitted_at < until;
            if in_window {
                submitted_during_fault += 1;
            }
            match ev.decided_at {
                None => {
                    unresolved += 1;
                    blocked += 1;
                }
                Some(at) => {
                    let committed = ev.committed == Some(true);
                    if in_window && at < until {
                        decided_during_fault += 1;
                    }
                    if committed && at >= from && at < until {
                        committed_during_fault += 1;
                    }
                    if committed && at >= until {
                        committed_after_heal += 1;
                    }
                    if at.saturating_sub(ev.submitted_at) >= park {
                        blocked += 1;
                        time_to_unblock = time_to_unblock.max(at.saturating_sub(until));
                    }
                }
            }
        }
        let window_secs = (until.saturating_sub(from)).as_secs_f64();
        let heal_secs = run.saturating_sub(until).as_secs_f64();
        FaultStats {
            fault_from: from,
            fault_until: until,
            submitted_during_fault,
            decided_during_fault,
            committed_during_fault,
            committed_after_heal,
            ops_during_fault: committed_during_fault as f64 / window_secs.max(1e-9),
            ops_after_heal: committed_after_heal as f64 / heal_secs.max(1e-9),
            availability_pct: if submitted_during_fault == 0 {
                100.0
            } else {
                100.0 * decided_during_fault as f64 / submitted_during_fault as f64
            },
            blocked,
            time_to_unblock,
            unresolved,
        }
    }
}

/// Result of one chaos experiment.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The full service outcome (latency, audit, shard states, timelines).
    pub service: ServiceOutcome,
    /// Availability metrics against the fault window.
    pub stats: FaultStats,
}

impl ChaosConfig {
    /// Bucket a run of this experiment — its transaction timelines
    /// `events` over a load phase of length `run` — against the plan's
    /// fault window, scaled by the service's unit. A transaction counts as
    /// blocked when the client learned its outcome no sooner than it would
    /// park it: `park_retries` (at least one) reply waits.
    pub fn fault_stats(&self, events: &[TxnEvent], run: Duration) -> FaultStats {
        let (from, until) = self.plan.window().unwrap_or_default();
        let unit = self.service.unit;
        let park = self.service.reply_timeout * self.service.park_retries.max(1);
        FaultStats::measure(events, from.to_wall(unit), until.to_wall(unit), run, park)
    }

    /// The service's fault specification: the plan, with the write-ahead
    /// log on so a crashed node recovers from it.
    pub fn spec(&self) -> FaultSpec {
        FaultSpec {
            plan: self.plan.clone(),
            durable: true,
        }
    }
}

/// Run the service under the plan ([`ChaosConfig::spec`]) and bucket the
/// transaction timelines against the fault window
/// ([`ChaosConfig::fault_stats`]).
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    assert_eq!(
        cfg.plan.n(),
        cfg.service.n,
        "plan and service disagree on n"
    );
    let service = run_service_faulted(&cfg.service, &cfg.spec());
    let stats = cfg.fault_stats(&service.txn_events, service.elapsed);
    ChaosOutcome { service, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        id: u64,
        submitted_ms: u64,
        decided_ms: Option<u64>,
        committed: Option<bool>,
        retries: u32,
    ) -> TxnEvent {
        TxnEvent {
            id,
            client: 0,
            participants: 3,
            submitted_at: Duration::from_millis(submitted_ms),
            decided_at: decided_ms.map(Duration::from_millis),
            committed,
            retries,
            first_protocol_at: None,
            votes_held_at: None,
            journaled_at: None,
        }
    }

    #[test]
    fn stats_bucket_the_window_correctly() {
        let events = vec![
            // Before the fault, committed.
            ev(1, 10, Some(20), Some(true), 0),
            // Submitted and committed inside the window.
            ev(2, 120, Some(140), Some(true), 0),
            // Submitted inside, aborted inside: decided but not committed.
            ev(3, 150, Some(180), Some(false), 0),
            // Submitted inside, blocked until after the heal.
            ev(4, 160, Some(450), Some(false), 5),
            // Never resolved.
            ev(5, 170, None, None, 9),
        ];
        let s = FaultStats::measure(
            &events,
            Duration::from_millis(100),
            Duration::from_millis(300),
            Duration::from_millis(600),
            Duration::from_millis(120),
        );
        assert_eq!(s.submitted_during_fault, 4);
        assert_eq!(s.decided_during_fault, 2);
        assert_eq!(s.committed_during_fault, 1);
        assert_eq!(s.committed_after_heal, 0);
        assert_eq!(s.blocked, 2);
        assert_eq!(s.unresolved, 1);
        assert_eq!(s.time_to_unblock, Duration::from_millis(150));
        assert!((s.availability_pct - 50.0).abs() < 1e-9);
        assert!(s.ops_during_fault > 0.0);
    }

    /// Blocked is read off when the client learned the outcome, not off
    /// its retries: a transaction reported early counts as free however
    /// often its other participants needed a re-sent `Begin`.
    #[test]
    fn an_early_reported_transaction_is_not_blocked_by_its_retries() {
        let park = Duration::from_millis(120);
        let measure = |events: &[TxnEvent]| {
            let (from, until) = (Duration::from_millis(100), Duration::from_millis(300));
            FaultStats::measure(events, from, until, Duration::from_millis(600), park)
        };
        // Reported 20 ms after submission, settled after 4 re-sends.
        let early = measure(&[ev(1, 150, Some(170), Some(true), 4)]);
        assert_eq!((early.blocked, early.committed_during_fault), (0, 1));
        assert_eq!(early.time_to_unblock, Duration::ZERO);
        // Reported at the park point exactly: blocked.
        let parked = measure(&[ev(2, 150, Some(270), Some(true), 0)]);
        assert_eq!(parked.blocked, 1);
        // Never reported: blocked whatever its retries.
        assert_eq!(measure(&[ev(3, 150, None, None, 0)]).blocked, 1);
    }

    #[test]
    fn empty_window_reads_fully_available() {
        let s = FaultStats::measure(
            &[ev(1, 10, Some(20), Some(true), 0)],
            Duration::from_millis(500),
            Duration::from_millis(600),
            Duration::from_millis(700),
            Duration::from_millis(120),
        );
        assert_eq!(s.submitted_during_fault, 0);
        assert_eq!(s.availability_pct, 100.0);
    }
}
