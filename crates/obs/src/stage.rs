//! The always-on per-thread instruments: fixed-slot atomic stage meters
//! and the bounded per-txn flight recorder.
//!
//! Every node owns one [`NodeObs`]; a client keeps the meters alone.
//! Recording is allocation-free on the hot path: a meter is two relaxed
//! atomic adds, and the flight recorder writes into a
//! pre-allocated ring. The shared [`ObsMeters`] handle is what a
//! `--metrics` exposition endpoint reads while the run is live; flight
//! events are thread-local and read at run end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The instrumented stages of the service stack, one fixed meter slot
/// each. These are the *seam meters* (how long did each pass through a
/// seam take); the per-txn lifecycle decomposition lives in
/// [`crate::attribution`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Client-side wait: the gap between a client's flush and its next
    /// turn — for a client on a thread of its own, its park on its link
    /// for replies or its next deadline; for a client its node host runs,
    /// the rest of that host's round and its park. One sample per turn
    /// after the first, not per transaction.
    ClientQueueWait = 0,
    /// `Shard::prepare` call time on the `Begin` path (read validation +
    /// write-lock acquisition; wound-free, so this is pure CPU).
    LockAcquire = 1,
    /// Write-lock residency of a yes-vote, metered by the node (the shard
    /// reads no clock): from the reading its locks were taken at — the
    /// `LockAcquired` stamp, or a recovery relock — to the reading that
    /// ends the apply pass whose `Shard::finish` released them, so a hold
    /// also covers the finishes after it in that pass. One count per
    /// release.
    LockHold = 2,
    /// One group force of the node loop's force step: every record the
    /// turn staged, `Prepare`s and decisions alike.
    WalForce = 3,
    /// WAL journaling in the apply step: staging one pass's `Decide`
    /// records (for logless protocols, each with its deferred `Prepare`).
    /// The meter counts one per decision journaled, with the pass's
    /// nanoseconds.
    WalJournal = 4,
    /// Per-peer `send_batch` flush in the node loop's flush step.
    Flush = 5,
    /// Socket write time inside the TCP transport, node flushes and
    /// client flushes alike (0 over channels).
    TcpWrite = 6,
    /// Inbox drain-to-dispatch gap: time between draining a batch off the
    /// inbox and finishing its dispatch into the protocol demux.
    DrainGap = 7,
    /// Timer lag: how far past its deadline each protocol timer fired.
    TimerFire = 8,
}

impl Stage {
    /// Number of meter slots.
    pub const COUNT: usize = 9;

    /// Every stage, slot order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::ClientQueueWait,
        Stage::LockAcquire,
        Stage::LockHold,
        Stage::WalForce,
        Stage::WalJournal,
        Stage::Flush,
        Stage::TcpWrite,
        Stage::DrainGap,
        Stage::TimerFire,
    ];

    /// Stable snake_case name (metric label / JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::ClientQueueWait => "client_queue_wait",
            Stage::LockAcquire => "lock_acquire",
            Stage::LockHold => "lock_hold",
            Stage::WalForce => "wal_force",
            Stage::WalJournal => "wal_journal",
            Stage::Flush => "flush",
            Stage::TcpWrite => "tcp_write",
            Stage::DrainGap => "drain_gap",
            Stage::TimerFire => "timer_fire",
        }
    }
}

/// Fixed-slot atomic meters: one `(count, total_nanos)` pair per
/// [`Stage`]. Shared (`Arc`) between the owning thread and any live
/// exposition reader; all accesses are relaxed — the meters are
/// monotone counters, not a synchronization protocol.
#[derive(Debug, Default)]
pub struct ObsMeters {
    counts: [AtomicU64; Stage::COUNT],
    nanos: [AtomicU64; Stage::COUNT],
}

impl Clone for ObsMeters {
    /// A relaxed snapshot (the meters are monotone counters; a clone
    /// taken mid-run is a consistent-enough point-in-time view).
    fn clone(&self) -> ObsMeters {
        let m = ObsMeters::new();
        m.merge(self);
        m
    }
}

impl ObsMeters {
    /// Fresh zeroed meters.
    pub fn new() -> ObsMeters {
        ObsMeters::default()
    }

    /// Add one completed operation of `nanos` to `stage`'s slot.
    #[inline]
    pub fn add(&self, stage: Stage, nanos: u64) {
        self.counts[stage as usize].fetch_add(1, Ordering::Relaxed);
        self.nanos[stage as usize].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Bulk-add `count` operations totalling `nanos` (used to fold in
    /// counters kept outside the meters, like a node's lock holds).
    #[inline]
    pub fn add_many(&self, stage: Stage, count: u64, nanos: u64) {
        if count > 0 {
            self.counts[stage as usize].fetch_add(count, Ordering::Relaxed);
            self.nanos[stage as usize].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// `(count, total_nanos)` snapshot of one stage.
    pub fn get(&self, stage: Stage) -> (u64, u64) {
        (
            self.counts[stage as usize].load(Ordering::Relaxed),
            self.nanos[stage as usize].load(Ordering::Relaxed),
        )
    }

    /// Fold a snapshot of `other` into `self`.
    pub fn merge(&self, other: &ObsMeters) {
        for s in Stage::ALL {
            let (c, n) = other.get(s);
            self.counts[s as usize].fetch_add(c, Ordering::Relaxed);
            self.nanos[s as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Prometheus text exposition (version 0.0.4): two counter families,
    /// `ac_stage_count` and `ac_stage_nanos_total`, one sample per stage.
    /// `labels` is spliced into every sample's label set (e.g.
    /// `node="2"`); pass `""` for none.
    pub fn render_prometheus(&self, labels: &str) -> String {
        let mut out = String::new();
        let sep = if labels.is_empty() { "" } else { "," };
        out.push_str("# HELP ac_stage_count Completed operations per instrumented stage.\n");
        out.push_str("# TYPE ac_stage_count counter\n");
        for s in Stage::ALL {
            let (c, _) = self.get(s);
            out.push_str(&format!(
                "ac_stage_count{{stage=\"{}\"{sep}{labels}}} {c}\n",
                s.name()
            ));
        }
        out.push_str(
            "# HELP ac_stage_nanos_total Time spent per instrumented stage, nanoseconds.\n",
        );
        out.push_str("# TYPE ac_stage_nanos_total counter\n");
        for s in Stage::ALL {
            let (_, n) = self.get(s);
            out.push_str(&format!(
                "ac_stage_nanos_total{{stage=\"{}\"{sep}{labels}}} {n}\n",
                s.name()
            ));
        }
        out
    }
}

/// Lifecycle points the flight recorder captures, node-side. (Client-side
/// submit/reply timestamps already live on the service's `TxnEvent`.)
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FlightStage {
    /// A fresh `Begin` for this transaction was dispatched on this node.
    Dispatch,
    /// This node's shard finished `prepare` (write locks held, vote cast).
    LockAcquired,
    /// This node forced the WAL `Prepare` record.
    WalForced,
    /// This node applied the decision (and journaled it, when logging):
    /// the reading that ends its apply pass, which every decision of the
    /// pass shares.
    Decided,
}

impl FlightStage {
    /// Stable lowercase name for timeline rendering.
    pub fn name(self) -> &'static str {
        match self {
            FlightStage::Dispatch => "dispatch",
            FlightStage::LockAcquired => "locks-held",
            FlightStage::WalForced => "wal-forced",
            FlightStage::Decided => "decided",
        }
    }
}

/// One flight-recorder event: transaction `txn` reached `stage` on node
/// `node` at `at_nanos` past the run epoch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Transaction id.
    pub txn: u64,
    /// Recording node.
    pub node: u32,
    /// Which lifecycle point.
    pub stage: FlightStage,
    /// Nanoseconds since the run epoch.
    pub at_nanos: u64,
}

/// A bounded per-node ring buffer of [`FlightEvent`]s.
///
/// Every transaction is recorded, on every node, so its timeline stays
/// reconstructible end-to-end. When the ring wraps, the oldest events are
/// overwritten and counted in [`FlightRecorder::dropped`].
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    events: Vec<FlightEvent>,
    cap: usize,
    next: usize,
    wrapped: bool,
    dropped: u64,
}

/// Default ring capacity: 64k events ≈ 1.5 MiB per node, enough for
/// ~16k fully-recorded transactions per node between wraps.
pub const FLIGHT_CAP: usize = 65_536;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(FLIGHT_CAP)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `cap` events (0 is treated as 1).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            events: Vec::with_capacity(cap),
            cap: cap.max(1),
            next: 0,
            wrapped: false,
            dropped: 0,
        }
    }

    /// Record `txn` reaching `stage` on `node` at `at` past the epoch.
    #[inline]
    pub fn record(&mut self, txn: u64, node: u32, stage: FlightStage, at: Duration) {
        let ev = FlightEvent {
            txn,
            node,
            stage,
            at_nanos: u64::try_from(at.as_nanos()).unwrap_or(u64::MAX),
        };
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
            self.wrapped = true;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Events overwritten by ring wrap-around (0 when the ring never
    /// filled; surfaced so attribution can report its coverage honestly).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All retained events (unordered when the ring has wrapped).
    pub fn events(&self) -> &[FlightEvent] {
        &self.events
    }

    /// Drain the retained events out of the recorder.
    pub fn into_events(self) -> Vec<FlightEvent> {
        self.events
    }
}

/// A node thread's observability bundle: shared atomic meters and a
/// local flight recorder, merged by the service at run end.
#[derive(Debug, Default)]
pub struct NodeObs {
    /// Shared meter slots (live exposition reads these).
    pub meters: Arc<ObsMeters>,
    /// Thread-local flight recorder.
    pub flight: FlightRecorder,
}

impl NodeObs {
    /// A fresh bundle with its own meters and a default-capacity
    /// recorder.
    pub fn new() -> NodeObs {
        NodeObs::default()
    }

    /// A fresh bundle sharing `meters` (multi-thread processes point all
    /// threads at one exposition registry).
    pub fn with_meters(meters: Arc<ObsMeters>) -> NodeObs {
        NodeObs {
            meters,
            ..NodeObs::default()
        }
    }

    /// Record one completed `stage` operation of duration `d` into the
    /// shared meter.
    #[inline]
    pub fn record(&mut self, stage: Stage, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.meters.add(stage, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meters_accumulate_and_merge() {
        let a = ObsMeters::new();
        a.add(Stage::LockAcquire, 100);
        a.add(Stage::LockAcquire, 50);
        a.add_many(Stage::WalForce, 3, 900);
        a.add_many(Stage::Flush, 0, 0); // no-op
        assert_eq!(a.get(Stage::LockAcquire), (2, 150));
        assert_eq!(a.get(Stage::WalForce), (3, 900));
        assert_eq!(a.get(Stage::Flush), (0, 0));
        let b = ObsMeters::new();
        b.add(Stage::LockAcquire, 1);
        b.merge(&a);
        assert_eq!(b.get(Stage::LockAcquire), (3, 151));
    }

    #[test]
    fn prometheus_exposition_lists_every_stage() {
        let m = ObsMeters::new();
        m.add(Stage::TimerFire, 42);
        let text = m.render_prometheus("node=\"3\"");
        for s in Stage::ALL {
            assert!(
                text.contains(&format!("stage=\"{}\"", s.name())),
                "missing {}: {text}",
                s.name()
            );
        }
        assert!(text.contains("ac_stage_nanos_total{stage=\"timer_fire\",node=\"3\"} 42"));
        assert!(text.contains("# TYPE ac_stage_count counter"));
        // No-label form keeps valid brace syntax.
        let bare = ObsMeters::new().render_prometheus("");
        assert!(bare.contains("ac_stage_count{stage=\"client_queue_wait\"} 0"));
    }

    #[test]
    fn flight_recorder_keeps_every_txn_and_counts_what_wraps_out() {
        let mut r = FlightRecorder::new(4);
        for txn in 0..3u64 {
            r.record(txn, 0, FlightStage::Dispatch, Duration::from_nanos(txn));
        }
        // Every txn recorded: 0, 1, 2 -> 3 events, no wrap.
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.dropped(), 0);
        for txn in 3..6u64 {
            r.record(txn, 1, FlightStage::Decided, Duration::from_nanos(txn));
        }
        // 3 more events (3, 4, 5) into a 4-slot ring: the oldest two go.
        assert_eq!(r.events().len(), 4);
        assert_eq!(r.dropped(), 2);
        let mut kept: Vec<u64> = r.events().iter().map(|e| e.txn).collect();
        kept.sort_unstable();
        assert_eq!(kept, [2, 3, 4, 5]);
    }

    #[test]
    fn node_obs_records_into_its_meter() {
        let mut obs = NodeObs::new();
        obs.record(Stage::DrainGap, Duration::from_nanos(500));
        obs.record(Stage::DrainGap, Duration::from_nanos(700));
        assert_eq!(obs.meters.get(Stage::DrainGap), (2, 1200));
        assert_eq!(obs.meters.get(Stage::LockHold), (0, 0));
    }
}
