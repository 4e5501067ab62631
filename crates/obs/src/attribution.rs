//! Per-transaction latency attribution: turn merged flight-recorder
//! events plus the client's submit/reply timestamps into a telescoping
//! five-stage decomposition of every commit's end-to-end latency.
//!
//! The decomposition is anchored at a participant the client waited for:
//! the **latest decider by the client's decision stamp** (the node whose
//! `Decided` flight event is latest among those not after the moment the
//! client knew the outcome — the last decider when the client waits for
//! every participant, possibly an earlier one when it reports on the
//! first `Done`; the earliest decider if every `Decided` is stamped
//! later) — and telescopes through the lifecycle points recorded on that
//! node:
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
//! wrap-around, stalls) are excluded and reported as reduced
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

use std::cmp::Ordering;

use ac_sim::Slab;

use crate::histogram::LatencyHistogram;
use crate::stage::{FlightEvent, FlightStage};

/// A point that was not recorded. A real stamp never reaches it (584
/// years past the run epoch); one that does reads as missing.
const NONE: u64 = u64::MAX;

/// The end of a transaction's record chain.
const END: u32 = u32::MAX;

/// `Some(at)` unless `at` is [`NONE`].
fn point(at: u64) -> Option<u64> {
    (at != NONE).then_some(at)
}

/// The later of two points, either of which may be [`NONE`].
fn later(a: u64, b: u64) -> u64 {
    match (a, b) {
        (NONE, x) | (x, NONE) => x,
        _ => a.max(b),
    }
}

/// Lifecycle points of one node for one transaction (nanos past epoch,
/// [`NONE`] when not recorded). First dispatch wins (a retried `Begin`
/// re-dispatches; attribution follows the copy that started the
/// protocol), latest decision wins (re-votes re-apply).
#[derive(Copy, Clone, Debug)]
struct NodePoints {
    node: u32,
    /// The transaction's next record in [`FlightIndex::points`], or [`END`].
    next: u32,
    dispatch: u64,
    /// Earliest lock acquisition: the anchor's lock point.
    lock: u64,
    /// Latest lock acquisition: the votes-held stamp.
    lock_last: u64,
    wal: u64,
    decided: u64,
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

/// The client-encoded transaction ids that find their slot by arithmetic.
/// A service names client `c`'s `i`-th transaction
/// [`SlotBox::txn_id`]`(c, i)`, so for `c < clients` and `i < per_client`
/// that transaction's slot is `c · per_client + i`: no probe.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotBox {
    clients: u64,
    per_client: u64,
}

impl SlotBox {
    /// The id of client `client`'s `i`-th transaction: `(client + 1) << 32
    /// | (i + 1)`, unique across clients, never 0.
    pub fn txn_id(client: usize, i: usize) -> u64 {
        ((client as u64 + 1) << 32) | (i as u64 + 1)
    }

    /// The box of `clients` clients with `per_client` transactions each.
    pub fn new(clients: usize, per_client: usize) -> SlotBox {
        SlotBox {
            clients: clients as u64,
            per_client: per_client as u64,
        }
    }

    /// The smallest box around the client-encoded ids among `ids` (both
    /// halves in `1..=ids.len()`), or the empty box when that would hold
    /// more than four slots per id: ids scattered over the space are
    /// cheaper to probe than to slot.
    pub fn around(ids: impl ExactSizeIterator<Item = u64>) -> SlotBox {
        let n = ids.len() as u64;
        let mut b = SlotBox::default();
        for id in ids {
            let (c, i) = (id >> 32, id & u64::from(u32::MAX));
            if (1..=n).contains(&c) && (1..=n).contains(&i) {
                b.clients = b.clients.max(c);
                b.per_client = b.per_client.max(i);
            }
        }
        if b.clients.saturating_mul(b.per_client) <= n.saturating_mul(4) {
            b
        } else {
            SlotBox::default()
        }
    }

    /// How many slots the box holds.
    fn slots(&self) -> usize {
        (self.clients * self.per_client) as usize
    }

    /// `txn`'s slot, if the box holds it.
    fn slot(&self, txn: u64) -> Option<usize> {
        let c = (txn >> 32).wrapping_sub(1);
        let i = (txn & u64::from(u32::MAX)).wrapping_sub(1);
        (c < self.clients && i < self.per_client).then(|| (c * self.per_client + i) as usize)
    }
}

/// One transaction's entry in [`FlightIndex::table`].
#[derive(Clone)]
struct Slot<T> {
    /// The transaction's newest record in `points`, or [`END`].
    head: u32,
    /// The nodes with a record in the chain ([`node_bit`]): a new
    /// record's node usually has none, and its clear bit says so without
    /// a walk of the other nodes' records.
    nodes: u32,
    /// What the caller folds in beside the flight events.
    tag: T,
}

impl<T: Default> Slot<T> {
    /// A slot with no record and a default tag.
    fn empty() -> Slot<T> {
        Slot {
            head: END,
            nodes: 0,
            tag: T::default(),
        }
    }
}

/// `node`'s bit in [`Slot::nodes`]: its own below 31, one shared bit for
/// every other node, whose records the chain walk then tells apart.
fn node_bit(node: u32) -> u32 {
    1 << node.min(31)
}

/// A run's flight events, read once, in one table with a slot per
/// transaction: each slot heads a chain of flat per-(transaction, node)
/// point records in one `Vec`, and carries a caller's `T` (the service's
/// audit keeps what the nodes logged there). The ids of a [`SlotBox`]
/// find their slot by arithmetic; any other id gets one appended, through
/// the one probe the index has. [`FlightIndex::walk`] reads a
/// transaction's chain once for both its [`Lifecycle`] and its
/// attribution.
pub struct FlightIndex<T = ()> {
    slots: SlotBox,
    /// The box's slots in slot order, then one per stray id.
    table: Vec<Slot<T>>,
    /// Stray id → its slot in `table`.
    strays: Slab<u32>,
    points: Vec<NodePoints>,
}

impl FlightIndex {
    /// Index `flight` in one pass, slotting the ids it clusters around
    /// ([`SlotBox::around`]).
    pub fn new(flight: &[FlightEvent]) -> FlightIndex {
        let slots = SlotBox::around(flight.iter().map(|ev| ev.txn));
        let mut index = FlightIndex::with_slots(slots, flight.len());
        index.add(flight.iter().copied());
        index
    }
}

impl<T: Clone + Default> FlightIndex<T> {
    /// An empty index with a slot (tagged `T::default()`) for every id of
    /// `slots`, and room for the records of `events` flight events: a
    /// third as many, since a participant stamps dispatch, locks held and
    /// decided of each transaction it decides. Only points lost (to ring
    /// wrap-around, or a crash) can make the index grow.
    pub fn with_slots(slots: SlotBox, events: usize) -> FlightIndex<T> {
        FlightIndex {
            slots,
            table: vec![Slot::empty(); slots.slots()],
            strays: Slab::new(),
            points: Vec::with_capacity(events.div_ceil(3)),
        }
    }

    /// Index `events`: one node's ring, read where it lies, or any stream.
    pub fn add(&mut self, events: impl IntoIterator<Item = FlightEvent>) {
        // The record the previous event landed in: a node stamps one
        // transaction's points back to back (dispatch, then locks held).
        let mut last = None;
        for ev in events {
            let i = match last {
                Some((txn, node, i)) if (txn, node) == (ev.txn, ev.node) => i,
                _ => self.record(ev.txn, ev.node),
            };
            last = Some((ev.txn, ev.node, i));
            let (p, at) = (&mut self.points[i], ev.at_nanos);
            match ev.stage {
                FlightStage::Dispatch => p.dispatch = p.dispatch.min(at),
                FlightStage::LockAcquired => {
                    p.lock = p.lock.min(at);
                    p.lock_last = later(p.lock_last, at);
                }
                FlightStage::WalForced => p.wal = p.wal.min(at),
                FlightStage::Decided => p.decided = later(p.decided, at),
            }
        }
    }

    /// `txn`'s tag, its slot made if it has none.
    pub fn tag_mut(&mut self, txn: u64) -> &mut T {
        let slot = self.slot_mut(txn);
        &mut self.table[slot].tag
    }

    /// `txn`'s slot, appended for a stray id the index has not seen.
    fn slot_mut(&mut self, txn: u64) -> usize {
        if let Some(slot) = self.slots.slot(txn) {
            return slot;
        }
        let fresh = u32::try_from(self.table.len()).expect("fewer than u32::MAX slots");
        let slot = *self.strays.get_or_insert_with(txn, || fresh);
        if slot == fresh {
            self.table.push(Slot::empty());
        }
        slot as usize
    }

    /// `(txn, node)`'s record, put at the head of `txn`'s chain if new.
    fn record(&mut self, txn: u64, node: u32) -> usize {
        let slot = self.slot_mut(txn);
        let bit = node_bit(node);
        let entry = &mut self.table[slot];
        if entry.nodes & bit != 0 {
            let mut i = entry.head;
            while i != END {
                let p = &self.points[i as usize];
                if p.node == node {
                    return i as usize;
                }
                i = p.next;
            }
        }
        let fresh = u32::try_from(self.points.len())
            .ok()
            .filter(|&i| i != END)
            .expect("fewer than u32::MAX records");
        entry.nodes |= bit;
        self.points.push(NodePoints {
            node,
            next: std::mem::replace(&mut entry.head, fresh),
            dispatch: NONE,
            lock: NONE,
            lock_last: NONE,
            wal: NONE,
            decided: NONE,
        });
        fresh as usize
    }
}

impl<T> FlightIndex<T> {
    /// `txn`'s slot, if it has one.
    fn slot(&self, txn: u64) -> Option<&Slot<T>> {
        let slot = self.slots.slot(txn);
        let slot = slot.or_else(|| self.strays.get(txn).map(|&s| s as usize))?;
        Some(&self.table[slot])
    }

    /// `txn`'s tag (`None` for a stray id the index never saw).
    pub fn tag(&self, txn: u64) -> Option<&T> {
        self.slot(txn).map(|s| &s.tag)
    }

    /// One walk of `txn`'s chain: its lifecycle, and the anchor its
    /// attribution is timed by — the latest participant to decide by
    /// `by`, the moment the client knew the outcome (any time when
    /// `None`), or the earliest to decide if none did by then.
    pub fn walk(&self, txn: u64, by: Option<u64>) -> Walk {
        let by = by.unwrap_or(NONE);
        let (mut first, mut held, mut journaled) = (NONE, NONE, NONE);
        // `(decided, node, record)` of the latest decider by `by` and of
        // the earliest. Ties go to the higher node id for the latest and
        // the lower for the earliest, whatever order the chain runs in:
        // equal inputs give equal attributions.
        let (mut latest, mut earliest) = (None, None);
        let mut i = self.slot(txn).map_or(END, |s| s.head);
        while let Some(p) = self.points.get(i as usize) {
            first = first.min(p.dispatch);
            held = later(held, p.lock_last);
            journaled = later(journaled, p.decided);
            if p.decided != NONE {
                let at = (p.decided, p.node, i);
                if p.decided <= by && latest.is_none_or(|l| at > l) {
                    latest = Some(at);
                }
                if earliest.is_none_or(|e| at < e) {
                    earliest = Some(at);
                }
            }
            i = p.next;
        }
        Walk {
            lifecycle: Lifecycle {
                first_protocol_nanos: point(first),
                votes_held_nanos: point(held),
                journaled_nanos: point(journaled),
            },
            anchor: latest.or(earliest).map(|(_, _, i)| self.points[i as usize]),
        }
    }

    /// `txn`'s cross-participant stamps (all `None` when no event names it).
    pub fn lifecycle(&self, txn: u64) -> Lifecycle {
        self.walk(txn, None).lifecycle
    }
}

/// What one walk of a transaction's chain found: its cross-participant
/// [`Lifecycle`], and its anchor's points for [`Attribution::add`].
#[derive(Copy, Clone, Debug)]
pub struct Walk {
    /// The transaction's cross-participant stamps.
    pub lifecycle: Lifecycle,
    /// The anchor participant's points, if any participant decided.
    anchor: Option<NodePoints>,
}

/// One reconstructed transaction timeline: the monotone-clamped
/// lifecycle points of the anchor participant, plus the
/// client's submit/reply endpoints. All values are nanoseconds past the
/// run epoch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TxnTimeline {
    /// Transaction id.
    pub txn: u64,
    /// Anchor participant: the latest to decide by the time the client
    /// knew the outcome.
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
    /// Client knew the outcome.
    pub decided_client_nanos: u64,
}

impl TxnTimeline {
    /// End-to-end latency (submit → client-observed decision).
    pub fn e2e_nanos(&self) -> u64 {
        self.decided_client_nanos - self.submitted_nanos
    }

    /// The five stage durations in [`crate::ATTRIBUTION_STAGES`] order. Their
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
        let submit = format!("submit txn {:#x}", self.txn);
        let at_node = |at, stage: FlightStage| (at, node.clone(), stage.name().to_string());
        let mut rows = vec![
            (self.submitted_nanos, "client".to_string(), submit),
            at_node(self.dispatch_nanos, FlightStage::Dispatch),
            at_node(self.lock_nanos, FlightStage::LockAcquired),
        ];
        rows.extend(self.wal_nanos.map(|w| at_node(w, FlightStage::WalForced)));
        rows.push(at_node(self.decided_node_nanos, FlightStage::Decided));
        let known = "outcome known".to_string();
        rows.push((self.decided_client_nanos, "client".to_string(), known));
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
    /// One histogram per [`crate::ATTRIBUTION_STAGES`] entry, same order.
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
        (0..self.stages.len()).map(|i| self.share_pct(i)).sum()
    }

    /// Build the attribution from the client-observed decided
    /// transactions (`(txn, submitted_nanos, decided_nanos)`) and the
    /// merged flight events of every node, keeping the `keep_slowest`
    /// worst timelines. `dropped_events` is the nodes' summed ring
    /// overflow, carried through for honest coverage reporting. The index
    /// slots the ids `decided` clusters around ([`SlotBox::around`]).
    pub fn compute(
        decided: &[(u64, u64, u64)],
        flight: &[FlightEvent],
        keep_slowest: usize,
        dropped_events: u64,
    ) -> Attribution {
        let slots = SlotBox::around(decided.iter().map(|d| d.0));
        let mut index = FlightIndex::<()>::with_slots(slots, flight.len());
        index.add(flight.iter().copied());
        Attribution::fold(decided, &index, keep_slowest, dropped_events)
    }

    /// [`Attribution::compute`] over an index already built.
    pub(crate) fn fold<T>(
        decided: &[(u64, u64, u64)],
        index: &FlightIndex<T>,
        keep_slowest: usize,
        dropped_events: u64,
    ) -> Attribution {
        let mut out = Attribution {
            dropped_events,
            ..Attribution::default()
        };
        for &span in decided {
            out.add(span, &index.walk(span.0, Some(span.2)), keep_slowest);
        }
        out
    }

    /// Count one client-decided transaction `(txn, submitted_nanos,
    /// decided_nanos)` in, timed by `walk` of its chain by `decided_nanos`,
    /// keeping the `keep_slowest` worst timelines.
    pub fn add(&mut self, span: (u64, u64, u64), walk: &Walk, keep_slowest: usize) {
        let (txn, submitted, decided_client) = span;
        self.total += 1;
        let Some(anchor) = walk.anchor else {
            return;
        };
        if anchor.dispatch == NONE || anchor.lock == NONE {
            return; // incomplete timeline: excluded, not guessed
        }
        // Monotone clamp so every stage is non-negative and the
        // telescoping sum is exact even under point reordering.
        let p0 = submitted;
        let p1 = anchor.dispatch.max(p0);
        let p2 = anchor.lock.max(p1);
        let p3 = point(anchor.wal).map(|w| w.max(p2));
        let p4 = anchor.decided.max(p3.unwrap_or(p2));
        let p5 = decided_client.max(p4);
        let tl = TxnTimeline {
            txn,
            anchor: anchor.node,
            submitted_nanos: p0,
            dispatch_nanos: p1,
            lock_nanos: p2,
            wal_nanos: p3,
            decided_node_nanos: p4,
            decided_client_nanos: p5,
        };
        self.covered += 1;
        self.e2e.record(tl.e2e_nanos());
        for (h, v) in self.stages.iter_mut().zip(tl.stage_nanos()) {
            h.record(v);
        }
        // Bounded insertion: `slowest` stays sorted and never holds more
        // than `keep_slowest`. Once it is full, one comparison with its
        // last entry turns away a timeline that sorts after it, as most
        // do.
        if self.slowest.len() >= keep_slowest {
            let last = self.slowest.last();
            if last.is_none_or(|last| slower_first(last, &tl) == Ordering::Less) {
                return;
            }
            self.slowest.pop();
        }
        let at = self
            .slowest
            .partition_point(|kept| slower_first(kept, &tl) == Ordering::Less);
        self.slowest.insert(at, tl);
    }
}

/// Descending end-to-end latency, ties by ascending transaction id: a
/// total order on distinct transactions, so which timelines survive a
/// truncation does not depend on the order they were decided in.
fn slower_first(a: &TxnTimeline, b: &TxnTimeline) -> Ordering {
    b.e2e_nanos().cmp(&a.e2e_nanos()).then(a.txn.cmp(&b.txn))
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

    /// A client that knew the outcome between the two decisions waited
    /// for node 0 only: the timeline anchors there and ends at the
    /// client's stamp. One that knew it before any decision was stamped
    /// (clocks apart) anchors at the earliest decider.
    #[test]
    fn the_anchor_is_the_latest_decider_by_the_clients_stamp() {
        let flight = full_txn(7, 0);
        let a = Attribution::compute(&[(7, 0, 1_100)], &flight, 5, 0);
        let tl = a.slowest[0];
        assert_eq!(tl.anchor, 0);
        assert_eq!(tl.e2e_nanos(), 1_100);
        // channel=100, lock=100, wal=100, protocol=700, transport=100.
        assert_eq!(tl.stage_nanos(), [100, 100, 100, 700, 100]);
        let at = |by| FlightIndex::new(&flight).walk(7, by).anchor.map(|p| p.node);
        assert_eq!(at(Some(1_000)), Some(0), "a stamp equal to a decision");
        assert_eq!(at(Some(1_200)), Some(1));
        assert_eq!(at(Some(999)), Some(0), "none by then: the earliest");
        assert_eq!(at(None), Some(1), "no stamp: the last decider");
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
    fn slowest_does_not_depend_on_decided_order_among_ties() {
        // Twenty equal-latency transactions: the kept three are the
        // lowest ids however the decided list is permuted, through the
        // amortized truncations too.
        let mut flight = Vec::new();
        let mut decided = Vec::new();
        for txn in 1..=20u64 {
            flight.extend(full_txn(txn, 0));
            decided.push((txn, 0u64, 2_000u64));
        }
        let slowest = |decided: &[(u64, u64, u64)]| {
            let a = Attribution::compute(decided, &flight, 3, 0);
            a.slowest.iter().map(|t| t.txn).collect::<Vec<_>>()
        };
        assert_eq!(slowest(&decided), [1, 2, 3]);
        decided.reverse();
        assert_eq!(slowest(&decided), [1, 2, 3]);
        decided.rotate_left(7);
        assert_eq!(slowest(&decided), [1, 2, 3]);
    }

    #[test]
    fn a_full_list_keeps_the_lowest_ids_among_equal_latencies() {
        // Equal end-to-end latency across different ids, in the order
        // each boundary case needs: the list fills with 10, 20 and 30;
        // a tie with a higher id than the last kept one is turned away by
        // the one comparison; a tie with a lower one displaces the last;
        // a slower one leads, and a faster one is turned away.
        let mut flight = Vec::new();
        let order = [10u64, 20, 30, 40, 25, 5, 99, 1];
        for &txn in &order {
            flight.extend(full_txn(txn, 0));
        }
        let e2e = |txn: u64| match txn {
            99 => 2_100,
            1 => 1_900,
            _ => 2_000,
        };
        let kept = |n: usize, keep: usize| {
            let decided: Vec<_> = order[..n].iter().map(|&t| (t, 0, e2e(t))).collect();
            let a = Attribution::compute(&decided, &flight, keep, 0);
            assert_eq!(a.covered, n, "the histograms count every one");
            a.slowest.iter().map(|t| t.txn).collect::<Vec<_>>()
        };
        assert_eq!(kept(3, 3), [10, 20, 30]);
        assert_eq!(kept(4, 3), [10, 20, 30], "a tie with a higher id");
        assert_eq!(kept(5, 3), [10, 20, 25], "a tie with a lower id");
        assert_eq!(kept(6, 3), [5, 10, 20]);
        assert_eq!(kept(7, 3), [99, 5, 10], "a slower one");
        assert_eq!(kept(8, 3), [99, 5, 10], "a faster one");
        for n in 0..=order.len() {
            assert_eq!(kept(n, 0), [0u64; 0], "keep = 0 keeps nothing");
        }
    }

    #[test]
    fn nodes_past_the_mask_share_a_bit_and_keep_their_own_records() {
        // Nodes 31, 40 and 1 000 share one bit of a slot's node mask, so
        // their records are told apart by the chain walk; node 3 has a
        // bit of its own. Interleaved, each keeps its own points.
        let (a, b, c) = (31u32, 40u32, 1_000u32);
        let flight = vec![
            ev(5, a, FlightStage::Dispatch, 10),
            ev(5, 3, FlightStage::Dispatch, 11),
            ev(5, b, FlightStage::Dispatch, 12),
            ev(5, c, FlightStage::Dispatch, 13),
            ev(5, b, FlightStage::LockAcquired, 22),
            ev(5, a, FlightStage::LockAcquired, 20),
            ev(5, c, FlightStage::LockAcquired, 23),
            ev(5, 3, FlightStage::LockAcquired, 21),
            ev(5, c, FlightStage::Decided, 90),
            ev(5, a, FlightStage::Decided, 70),
            ev(5, 3, FlightStage::Decided, 60),
            ev(5, b, FlightStage::Decided, 80),
        ];
        let index = FlightIndex::new(&flight);
        assert_eq!(index.points.len(), 4, "one record per (txn, node)");
        for (node, dispatch, lock, decided) in [
            (a, 10, 20, 70),
            (3, 11, 21, 60),
            (b, 12, 22, 80),
            (c, 13, 23, 90),
        ] {
            let p = index
                .points
                .iter()
                .find(|p| p.node == node)
                .expect("a record");
            assert_eq!(
                (p.dispatch, p.lock, p.decided),
                (dispatch, lock, decided),
                "node {node}"
            );
        }
        let walk = index.walk(5, Some(85));
        assert_eq!(walk.anchor.map(|p| p.node), Some(b), "latest by 85");
        assert_eq!(walk.lifecycle.journaled_nanos, Some(90));
    }

    #[test]
    fn a_lifecycle_summarizes_every_participant() {
        let l = FlightIndex::new(&full_txn(9, 0)).lifecycle(9);
        assert_eq!(l.first_protocol_nanos, Some(100));
        assert_eq!(l.votes_held_nanos, Some(260));
        assert_eq!(l.journaled_nanos, Some(1_200));
    }

    #[test]
    fn a_slot_box_slots_client_encoded_ids_by_arithmetic() {
        let b = SlotBox::new(3, 4);
        assert_eq!(b.slots(), 12);
        assert_eq!(b.slot(SlotBox::txn_id(0, 0)), Some(0));
        assert_eq!(b.slot(SlotBox::txn_id(2, 1)), Some(9));
        assert_eq!(b.slot(SlotBox::txn_id(2, 3)), Some(11));
        for outside in [
            0,
            7,
            SlotBox::txn_id(3, 0),
            SlotBox::txn_id(0, 4),
            1 << 32,
            u64::MAX,
        ] {
            assert_eq!(b.slot(outside), None, "{outside:#x}");
        }
        // Derived: the box around the encoded ids, unless they are too
        // sparse for slots to pay.
        let ids = [
            SlotBox::txn_id(1, 0),
            SlotBox::txn_id(0, 2),
            0x9E37_79B9_7F4A_7C15,
        ];
        assert_eq!(SlotBox::around(ids.into_iter()), SlotBox::new(2, 3));
        let sparse = [SlotBox::txn_id(4, 0), SlotBox::txn_id(0, 4), 7, 8, 9];
        assert_eq!(SlotBox::around(sparse.into_iter()), SlotBox::default());
    }

    #[test]
    fn slotted_and_stray_ids_share_one_table() {
        let mut index = FlightIndex::<u32>::with_slots(SlotBox::new(1, 2), 0);
        let (slotted, stray) = (SlotBox::txn_id(0, 1), 77);
        index.add(full_txn(slotted, 0));
        index.add(full_txn(stray, 10));
        *index.tag_mut(stray) += 2;
        *index.tag_mut(slotted) += 1;
        assert_eq!(index.tag(slotted), Some(&1));
        assert_eq!(index.tag(stray), Some(&2));
        assert_eq!(
            index.tag(SlotBox::txn_id(0, 0)),
            Some(&0),
            "every box slot exists"
        );
        assert_eq!(index.tag(78), None);
        assert_eq!(index.lifecycle(slotted).journaled_nanos, Some(1_200));
        assert_eq!(index.lifecycle(stray).journaled_nanos, Some(1_210));
        assert_eq!(index.lifecycle(78), Lifecycle::default());
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
