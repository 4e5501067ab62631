//! Per-transaction latency attribution: turn merged flight-recorder
//! events plus the client's submit/reply timestamps into a telescoping
//! five-stage decomposition of every commit's end-to-end latency.
//!
//! The decomposition is anchored at the transaction's **last-deciding
//! participant** (the node whose `Decided` flight event is latest — the
//! node the client was really waiting for) and telescopes through the
//! lifecycle points recorded on that node:
//!
//! ```text
//! submitted ── channel ──> dispatched ── lock ──> locks-held
//!     ── wal ──> wal-forced ── protocol ──> decided(node)
//!     ── transport ──> decided(client)
//! ```
//!
//! Each stage is the gap between consecutive points (monotone-clamped,
//! so a missing or reordered point yields a zero-length stage rather
//! than a negative one), which makes the five stages sum to the
//! measured end-to-end latency **exactly, per transaction** — and
//! therefore the share-of-total percentages sum to 100 % by
//! construction. Transactions with incomplete timelines (ring
//! wrap-around, sampling, stalls) are excluded and reported as reduced
//! coverage instead of skewing the breakdown.
//!
//! Interpretation: `protocol` is the commit protocol's own residency on
//! the critical path — vote/decision message waits (the paper's message
//! delays, as hand-offs), plus timer waits where a round is clocked by
//! design or a message went missing; `channel` is inbox queueing ahead
//! of dispatch; `wal`/`lock` are the storage seams; and `transport` is
//! the decision's trip back to the client. A protocol whose timers only
//! bound complete-able collections (2PC, 3PC, 1NBAC, INBAC since
//! ISSUE-14) shows hand-offs here; a `protocol` share near 100 % means
//! the run is waiting for a clock.

use std::collections::HashMap;

use crate::histogram::LatencyHistogram;
use crate::stage::{FlightEvent, FlightStage};

/// The five canonical attribution stages, in telescoping order.
pub const ATTRIBUTION_STAGES: [&str; 5] = ["channel", "lock", "wal", "protocol", "transport"];

/// Lifecycle points of one node for one transaction (nanos past epoch).
#[derive(Copy, Clone, Debug, Default)]
struct NodePoints {
    dispatch: Option<u64>,
    lock: Option<u64>,
    wal: Option<u64>,
    decided: Option<u64>,
}

/// Cross-participant lifecycle summary of one transaction, used to fill
/// the service's per-txn event timestamps: first protocol event
/// anywhere, all votes held (last lock acquisition), decision journaled
/// everywhere (last apply).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Lifecycle {
    /// Earliest `Dispatch` across participants.
    pub first_protocol_nanos: Option<u64>,
    /// Latest `LockAcquired` across participants.
    pub votes_held_nanos: Option<u64>,
    /// Latest `Decided` across participants.
    pub journaled_nanos: Option<u64>,
}

/// Fold flight events into per-transaction [`Lifecycle`] summaries.
pub fn lifecycles(flight: &[FlightEvent]) -> HashMap<u64, Lifecycle> {
    let mut out: HashMap<u64, Lifecycle> = HashMap::new();
    for ev in flight {
        let l = out.entry(ev.txn).or_default();
        match ev.stage {
            FlightStage::Dispatch => {
                l.first_protocol_nanos = Some(match l.first_protocol_nanos {
                    Some(cur) => cur.min(ev.at_nanos),
                    None => ev.at_nanos,
                });
            }
            FlightStage::LockAcquired => {
                l.votes_held_nanos = Some(l.votes_held_nanos.unwrap_or(0).max(ev.at_nanos));
            }
            FlightStage::Decided => {
                l.journaled_nanos = Some(l.journaled_nanos.unwrap_or(0).max(ev.at_nanos));
            }
            FlightStage::WalForced => {}
        }
    }
    out
}

/// One reconstructed transaction timeline: the monotone-clamped
/// lifecycle points of the anchor (last-deciding) participant, plus the
/// client's submit/reply endpoints. All values are nanoseconds past the
/// run epoch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TxnTimeline {
    /// Transaction id.
    pub txn: u64,
    /// Anchor participant (the node the client waited for last).
    pub anchor: u32,
    /// Client handed the transaction to the service.
    pub submitted_nanos: u64,
    /// Anchor dispatched the `Begin`.
    pub dispatch_nanos: u64,
    /// Anchor's shard held the write locks (vote cast).
    pub lock_nanos: u64,
    /// Anchor forced the WAL prepare (`None` when logless / un-logged).
    pub wal_nanos: Option<u64>,
    /// Anchor applied the decision.
    pub decided_node_nanos: u64,
    /// Client observed the full decision (all replies in).
    pub decided_client_nanos: u64,
}

impl TxnTimeline {
    /// End-to-end latency (submit → client-observed decision).
    pub fn e2e_nanos(&self) -> u64 {
        self.decided_client_nanos - self.submitted_nanos
    }

    /// The five stage durations in [`ATTRIBUTION_STAGES`] order. Their
    /// sum equals [`TxnTimeline::e2e_nanos`] exactly.
    pub fn stage_nanos(&self) -> [u64; 5] {
        let wal_point = self.wal_nanos.unwrap_or(self.lock_nanos);
        [
            self.dispatch_nanos - self.submitted_nanos,
            self.lock_nanos - self.dispatch_nanos,
            wal_point - self.lock_nanos,
            self.decided_node_nanos - wal_point,
            self.decided_client_nanos - self.decided_node_nanos,
        ]
    }

    /// The timeline as `(at_nanos, actor, label)` steps, in time order —
    /// the shape a timeline renderer consumes.
    pub fn steps(&self) -> Vec<(u64, String, String)> {
        let node = format!("P{}", self.anchor + 1);
        let mut rows = vec![
            (
                self.submitted_nanos,
                "client".to_string(),
                format!("submit txn {:#x}", self.txn),
            ),
            (
                self.dispatch_nanos,
                node.clone(),
                "dispatch Begin".to_string(),
            ),
            (
                self.lock_nanos,
                node.clone(),
                "locks held (vote cast)".to_string(),
            ),
        ];
        if let Some(w) = self.wal_nanos {
            rows.push((w, node.clone(), "WAL prepare forced".to_string()));
        }
        rows.push((
            self.decided_node_nanos,
            node,
            "decision applied".to_string(),
        ));
        rows.push((
            self.decided_client_nanos,
            "client".to_string(),
            "all replies in".to_string(),
        ));
        rows
    }
}

/// The merged attribution of one run: per-stage histograms whose sums
/// telescope to the end-to-end histogram's sum, coverage accounting,
/// and the slowest reconstructed timelines.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// End-to-end latency of the covered transactions.
    pub e2e: LatencyHistogram,
    /// One histogram per [`ATTRIBUTION_STAGES`] entry, same order.
    pub stages: [LatencyHistogram; 5],
    /// Transactions with a complete reconstructed timeline.
    pub covered: usize,
    /// Decided transactions considered.
    pub total: usize,
    /// Flight events lost to ring wrap-around across all nodes.
    pub dropped_events: u64,
    /// Slowest covered timelines, descending end-to-end latency.
    pub slowest: Vec<TxnTimeline>,
}

impl Attribution {
    /// `100 · covered / total` (100 when nothing was decided).
    pub fn coverage_pct(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.covered as f64 / self.total as f64
        }
    }

    /// Share of total end-to-end time spent in stage `i` (per cent).
    pub fn share_pct(&self, i: usize) -> f64 {
        let e2e = self.e2e.sum();
        if e2e == 0 {
            0.0
        } else {
            100.0 * self.stages[i].sum() as f64 / e2e as f64
        }
    }

    /// Sum of the five stage shares — 100 % by construction whenever any
    /// transaction was covered (the acceptance gate checks ±5 %).
    pub fn share_sum_pct(&self) -> f64 {
        (0..5).map(|i| self.share_pct(i)).sum()
    }

    /// Build the attribution from the client-observed decided
    /// transactions (`(txn, submitted_nanos, decided_nanos)`) and the
    /// merged flight events of every node, keeping the `keep_slowest`
    /// worst timelines. `dropped_events` is the nodes' summed ring
    /// overflow, carried through for honest coverage reporting.
    pub fn compute(
        decided: &[(u64, u64, u64)],
        flight: &[FlightEvent],
        keep_slowest: usize,
        dropped_events: u64,
    ) -> Attribution {
        Attribution::fold(
            decided.iter().copied(),
            flight,
            keep_slowest,
            dropped_events,
        )
    }

    /// [`Attribution::compute`] over any source of `(txn, submitted_nanos,
    /// decided_nanos)` entries.
    pub(crate) fn fold(
        decided: impl Iterator<Item = (u64, u64, u64)>,
        flight: &[FlightEvent],
        keep_slowest: usize,
        dropped_events: u64,
    ) -> Attribution {
        // Index flight events: txn -> node -> lifecycle points. First
        // dispatch wins (a retried Begin re-dispatches; attribution
        // follows the copy that started the protocol), latest decision
        // wins (re-votes re-apply).
        let mut points: HashMap<u64, HashMap<u32, NodePoints>> = HashMap::new();
        for ev in flight {
            let p = points
                .entry(ev.txn)
                .or_default()
                .entry(ev.node)
                .or_default();
            match ev.stage {
                FlightStage::Dispatch => {
                    p.dispatch = Some(p.dispatch.map_or(ev.at_nanos, |c| c.min(ev.at_nanos)));
                }
                FlightStage::LockAcquired => {
                    p.lock = Some(p.lock.map_or(ev.at_nanos, |c| c.min(ev.at_nanos)));
                }
                FlightStage::WalForced => {
                    p.wal = Some(p.wal.map_or(ev.at_nanos, |c| c.min(ev.at_nanos)));
                }
                FlightStage::Decided => {
                    p.decided = Some(p.decided.map_or(ev.at_nanos, |c| c.max(ev.at_nanos)));
                }
            }
        }

        let mut out = Attribution {
            dropped_events,
            ..Attribution::default()
        };
        for (txn, submitted, decided_client) in decided {
            out.total += 1;
            // Anchor: the participant whose decision landed last (a tie
            // goes to the higher node id, whatever order the map iterates
            // in: equal inputs give equal attributions).
            let Some(nodes) = points.get(&txn) else {
                continue;
            };
            let Some((&anchor, anchor_points)) = nodes
                .iter()
                .filter(|(_, p)| p.decided.is_some())
                .max_by_key(|(&node, p)| (p.decided, node))
            else {
                continue;
            };
            let (Some(dispatch), Some(lock), Some(decided_node)) = (
                anchor_points.dispatch,
                anchor_points.lock,
                anchor_points.decided,
            ) else {
                continue; // incomplete timeline: excluded, not guessed
            };
            // Monotone clamp so every stage is non-negative and the
            // telescoping sum is exact even under point reordering.
            let p0 = submitted;
            let p1 = dispatch.max(p0);
            let p2 = lock.max(p1);
            let p3 = anchor_points.wal.map(|w| w.max(p2));
            let p4 = decided_node.max(p3.unwrap_or(p2));
            let p5 = decided_client.max(p4);
            let tl = TxnTimeline {
                txn,
                anchor,
                submitted_nanos: p0,
                dispatch_nanos: p1,
                lock_nanos: p2,
                wal_nanos: p3,
                decided_node_nanos: p4,
                decided_client_nanos: p5,
            };
            out.covered += 1;
            out.e2e.record(tl.e2e_nanos());
            for (h, v) in out.stages.iter_mut().zip(tl.stage_nanos()) {
                h.record(v);
            }
            out.slowest.push(tl);
            if out.slowest.len() > keep_slowest.max(1) * 4 {
                // Amortized truncation: keep the working set small.
                out.slowest
                    .sort_unstable_by(|a, b| b.e2e_nanos().cmp(&a.e2e_nanos()));
                out.slowest.truncate(keep_slowest);
            }
        }
        out.slowest
            .sort_unstable_by(|a, b| b.e2e_nanos().cmp(&a.e2e_nanos()));
        out.slowest.truncate(keep_slowest);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::FlightRecorder;
    use std::time::Duration;

    fn ev(txn: u64, node: u32, stage: FlightStage, at: u64) -> FlightEvent {
        FlightEvent {
            txn,
            node,
            stage,
            at_nanos: at,
        }
    }

    /// A full two-participant transaction: anchor is node 1 (decides
    /// later), with a WAL force on both.
    fn full_txn(txn: u64, base: u64) -> Vec<FlightEvent> {
        vec![
            ev(txn, 0, FlightStage::Dispatch, base + 100),
            ev(txn, 1, FlightStage::Dispatch, base + 150),
            ev(txn, 0, FlightStage::LockAcquired, base + 200),
            ev(txn, 1, FlightStage::LockAcquired, base + 260),
            ev(txn, 0, FlightStage::WalForced, base + 300),
            ev(txn, 1, FlightStage::WalForced, base + 400),
            ev(txn, 0, FlightStage::Decided, base + 1_000),
            ev(txn, 1, FlightStage::Decided, base + 1_200),
        ]
    }

    #[test]
    fn stages_telescope_exactly_to_e2e() {
        let flight = full_txn(7, 0);
        let decided = [(7u64, 0u64, 1_500u64)];
        let a = Attribution::compute(&decided, &flight, 5, 0);
        assert_eq!((a.covered, a.total), (1, 1));
        let tl = a.slowest[0];
        assert_eq!(tl.anchor, 1, "anchor is the last decider");
        assert_eq!(tl.stage_nanos().iter().sum::<u64>(), tl.e2e_nanos());
        assert_eq!(tl.e2e_nanos(), 1_500);
        // channel=150, lock=110, wal=140, protocol=800, transport=300.
        assert_eq!(tl.stage_nanos(), [150, 110, 140, 800, 300]);
        assert!((a.share_sum_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn incomplete_timelines_reduce_coverage_not_accuracy() {
        let mut flight = full_txn(1, 0);
        // txn 2 decided at the client but its node events are missing
        // (e.g. ring wrap): excluded.
        flight.push(ev(2, 0, FlightStage::Dispatch, 50));
        let decided = [(1u64, 0u64, 2_000u64), (2, 0, 900)];
        let a = Attribution::compute(&decided, &flight, 5, 3);
        assert_eq!((a.covered, a.total), (1, 2));
        assert_eq!(a.coverage_pct(), 50.0);
        assert_eq!(a.dropped_events, 3);
        assert!((a.share_sum_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn logless_txns_attribute_zero_wal() {
        let flight = vec![
            ev(3, 0, FlightStage::Dispatch, 100),
            ev(3, 0, FlightStage::LockAcquired, 150),
            ev(3, 0, FlightStage::Decided, 600),
        ];
        let a = Attribution::compute(&[(3, 0, 700)], &flight, 5, 0);
        let tl = a.slowest[0];
        assert_eq!(tl.wal_nanos, None);
        assert_eq!(tl.stage_nanos(), [100, 50, 0, 450, 100]);
        assert_eq!(a.stages[2].sum(), 0, "wal stage is zero when unlogged");
    }

    #[test]
    fn reordered_points_clamp_to_zero_length_stages() {
        // A decision applied "before" the lock point (re-vote race):
        // monotone clamp keeps every stage non-negative and the sum exact.
        let flight = vec![
            ev(4, 2, FlightStage::Dispatch, 500),
            ev(4, 2, FlightStage::LockAcquired, 400),
            ev(4, 2, FlightStage::Decided, 450),
        ];
        let a = Attribution::compute(&[(4, 0, 1_000)], &flight, 5, 0);
        let tl = a.slowest[0];
        assert_eq!(tl.stage_nanos().iter().sum::<u64>(), tl.e2e_nanos());
        assert!(tl.stage_nanos().iter().all(|&s| s <= 1_000));
    }

    #[test]
    fn slowest_keeps_the_worst_k_in_order() {
        let mut flight = Vec::new();
        let mut decided = Vec::new();
        for txn in 1..=20u64 {
            flight.extend(full_txn(txn, 0));
            decided.push((txn, 0u64, 1_300 + txn * 100));
        }
        let a = Attribution::compute(&decided, &flight, 3, 0);
        assert_eq!(a.covered, 20);
        assert_eq!(a.slowest.len(), 3);
        let e2es: Vec<u64> = a.slowest.iter().map(|t| t.e2e_nanos()).collect();
        assert_eq!(e2es, vec![3_300, 3_200, 3_100]);
    }

    #[test]
    fn lifecycles_summarize_across_participants() {
        let ls = lifecycles(&full_txn(9, 0));
        let l = ls[&9];
        assert_eq!(l.first_protocol_nanos, Some(100));
        assert_eq!(l.votes_held_nanos, Some(260));
        assert_eq!(l.journaled_nanos, Some(1_200));
    }

    #[test]
    fn recorder_events_feed_attribution() {
        let mut r = FlightRecorder::default();
        r.record(5, 0, FlightStage::Dispatch, Duration::from_nanos(10));
        r.record(5, 0, FlightStage::LockAcquired, Duration::from_nanos(20));
        r.record(5, 0, FlightStage::Decided, Duration::from_nanos(90));
        let a = Attribution::compute(&[(5, 0, 100)], r.events(), 1, r.dropped());
        assert_eq!(a.covered, 1);
        assert_eq!(a.e2e.max(), 100);
    }
}
