//! # ac-runtime — the real-time engine for the same protocol automata
//!
//! The protocols in `ac-commit` are written against `ac_sim`'s [`Automaton`]
//! interface, which is runtime-agnostic: this crate is the half of a real
//! host that is not I/O — virtual-time timers mapped onto the wall clock,
//! and many automata multiplexed over one timer heap. The same INBAC
//! automaton that is metered in the discrete-event world commits
//! transactions over real channels and sockets on top of it.
//!
//! One virtual delay unit `U` maps to a configured `unit` of wall time
//! ([`UnitClock`]). The core is [`NodeLoop`]: one node's event engine,
//! multiplexing **many concurrent protocol instances** (each with its own
//! automaton, virtual-time epoch and timer set) over a single timer heap.
//! It owns no thread and no channel: its one host, `ac-cluster`'s node
//! loop, feeds it events and routes its effects, with thousands of
//! transaction-keyed instances per node.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use ac_sim::{Action, Automaton, Ctx, ProcessId, Time, U};

pub use ac_sim::slab::{self, Slab};

/// Identifier of one multiplexed protocol instance on a [`NodeLoop`]
/// (`ac-cluster` uses the transaction id).
pub type InstanceId = u64;

/// The wall-clock ↔ virtual-time mapping: one virtual delay unit `U`
/// equals `unit` of wall time, measured from a per-instance `epoch` (the
/// instant the instance started).
#[derive(Copy, Clone, Debug)]
pub struct UnitClock {
    /// Wall-clock duration of one virtual delay unit `U`.
    pub unit: Duration,
    /// `unit` in nanoseconds, at least 1 and saturated at `u64::MAX`
    /// (~584 years): [`UnitClock::virtual_now`] runs once per delivered
    /// message and divides by this in 64 bits.
    unit_nanos: u64,
}

/// `d` in whole nanoseconds, saturating at `u64::MAX`.
fn nanos_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl UnitClock {
    /// A clock mapping one delay unit to `unit` of wall time.
    pub fn new(unit: Duration) -> UnitClock {
        UnitClock {
            unit,
            unit_nanos: nanos_u64(unit).max(1),
        }
    }

    /// The virtual time of instant `at` for an instance started at `epoch`,
    /// rounded down to whole delay units (automata only compare times at
    /// unit granularity).
    pub fn virtual_now(&self, epoch: Instant, at: Instant) -> Time {
        let elapsed = nanos_u64(at.saturating_duration_since(epoch));
        Time(elapsed / self.unit_nanos * U)
    }

    /// The wall-clock instant of virtual time `t` for an instance started
    /// at `epoch`. Computed as `unit · ticks / U` in 128-bit arithmetic so
    /// units that are not a whole multiple of `U` nanoseconds still round
    /// trip with [`UnitClock::virtual_now`] (truncation only at the
    /// sub-nanosecond level).
    pub fn wall_of(&self, epoch: Instant, t: Time) -> Instant {
        let nanos = self.unit.as_nanos() * u128::from(t.ticks()) / u128::from(U);
        epoch + Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

/// An externally visible effect produced by a [`NodeLoop`] while it
/// processes an event. The host routes `Send`s to peer nodes (self-sends
/// included — route them back into your own inbound queue, like the
/// simulator's free self-messages) and reacts to `Decided`.
#[derive(Clone, Debug)]
pub enum NodeEvent<M> {
    /// Instance `instance` asked to send `msg` to process `to`.
    Send {
        /// The multiplexed instance that performed the send.
        instance: InstanceId,
        /// Destination process.
        to: ProcessId,
        /// Message payload.
        msg: M,
    },
    /// Instance `instance` decided `value` (first decision only; protocols
    /// guard against double decisions and the loop drops repeats).
    Decided {
        /// The instance that decided.
        instance: InstanceId,
        /// The decided value.
        value: u64,
    },
}

struct TimerEntry {
    due: Instant,
    instance: InstanceId,
    tag: u32,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.instance == other.instance && self.tag == other.tag
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on `due`.
        other
            .due
            .cmp(&self.due)
            .then(other.instance.cmp(&self.instance))
            .then(other.tag.cmp(&self.tag))
    }
}

struct Slot<A: Automaton> {
    automaton: A,
    epoch: Instant,
    decided: Option<u64>,
    /// The identity this instance's `Ctx` is built with: its process id
    /// and group size — **not** necessarily the loop's. A host scoping a
    /// protocol instance to a participant subset (`ac-cluster`'s
    /// transaction groups) opens it with its instance-local rank and
    /// group size, so `ctx.broadcast_others()` and friends address ranks
    /// within the group rather than global node ids.
    me: ProcessId,
    n: usize,
}

/// One node's event engine: many concurrent protocol instances multiplexed
/// over a single timer heap, each instance keyed by an [`InstanceId`] and
/// running on its own virtual-time epoch.
///
/// The loop is transport-agnostic: the host owns the channels (or sockets)
/// and feeds events in — [`NodeLoop::open`] to start an instance,
/// [`NodeLoop::deliver`] for an inbound message, [`NodeLoop::fire_due`] to
/// fire expired timers — and receives the instance's effects through a
/// [`NodeEvent`] sink. Timers of closed instances are discarded when they
/// surface at the top of the heap — eagerly, by whichever call exposed
/// them ([`NodeLoop::close`], [`NodeLoop::fire_next`]) — so the heap's head
/// is always a **live** timer and [`NodeLoop::next_due`] never reports a
/// deadline that would wake the host for nothing.
///
/// Instance state lives in a [`Slab`] — dense storage with free-list
/// recycling, resolved by a fast-hash index — so the per-envelope
/// demultiplexing cost is a couple of multiplies, not a SipHash walk.
pub struct NodeLoop<A: Automaton> {
    me: ProcessId,
    n: usize,
    clock: UnitClock,
    slots: Slab<Slot<A>>,
    timers: BinaryHeap<TimerEntry>,
    /// Recycled actions buffer, threaded through every `Ctx` so per-event
    /// effect collection allocates nothing in steady state.
    scratch: Vec<Action<<A as Automaton>::Msg>>,
}

/// Drain `ctx`'s actions and hand its buffer back for recycling.
fn drain_actions<A: Automaton>(
    instance: InstanceId,
    slot: &mut Slot<A>,
    timers: &mut BinaryHeap<TimerEntry>,
    clock: UnitClock,
    ctx: &mut Ctx<A::Msg>,
    sink: &mut impl FnMut(NodeEvent<A::Msg>),
) -> Vec<Action<A::Msg>> {
    let mut actions = ctx.take_actions();
    for action in actions.drain(..) {
        match action {
            Action::Send { to, msg } => sink(NodeEvent::Send { instance, to, msg }),
            Action::SetTimer { at, tag } => timers.push(TimerEntry {
                due: clock.wall_of(slot.epoch, at),
                instance,
                tag,
            }),
            Action::Decide(v) => {
                if slot.decided.is_none() {
                    slot.decided = Some(v);
                    sink(NodeEvent::Decided { instance, value: v });
                }
            }
        }
    }
    actions
}

impl<A: Automaton> NodeLoop<A> {
    /// An empty loop for process `me` of `n` with the given clock mapping.
    pub fn new(me: ProcessId, n: usize, clock: UnitClock) -> NodeLoop<A> {
        NodeLoop {
            me,
            n,
            clock,
            slots: Slab::new(),
            timers: BinaryHeap::new(),
            scratch: Vec::new(),
        }
    }

    /// The owning process id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The clock mapping in use.
    pub fn clock(&self) -> UnitClock {
        self.clock
    }

    /// Number of currently open instances.
    pub fn open_instances(&self) -> usize {
        self.slots.len()
    }

    /// Whether `instance` is open.
    pub fn has(&self, instance: InstanceId) -> bool {
        self.slots.contains(instance)
    }

    /// The decision of `instance`, if it is open and has decided.
    pub fn decision(&self, instance: InstanceId) -> Option<u64> {
        self.slots.get(instance).and_then(|s| s.decided)
    }

    /// Open a new instance: install `automaton` with epoch `now` and run
    /// its start event. Effects go to `sink`. The instance runs with the
    /// loop's own `(me, n)` identity — use [`NodeLoop::open_as`] for
    /// instances scoped to a participant subset.
    pub fn open(
        &mut self,
        instance: InstanceId,
        automaton: A,
        now: Instant,
        sink: &mut impl FnMut(NodeEvent<A::Msg>),
    ) {
        self.open_as(instance, automaton, self.me, self.n, now, sink);
    }

    /// [`NodeLoop::open`] with an explicit per-instance identity: the
    /// automaton's `Ctx` carries `(me, n)` — its **instance-local rank and
    /// group size** — for every event of its lifetime, so
    /// `ctx.broadcast_others()` (and any `ctx.me()`/`ctx.n()` use)
    /// addresses ranks within the group. Hosts translate rank-addressed
    /// `NodeEvent::Send`s back to transport endpoints.
    ///
    /// Getting this wrong is subtle: with the loop's global identity, a
    /// broadcast-to-others from a node whose *global id* happens to be a
    /// valid rank silently skips that rank's peer (found live as
    /// Paxos-Commit outcome announcements vanishing for exactly the
    /// transaction groups led by node 1).
    pub fn open_as(
        &mut self,
        instance: InstanceId,
        mut automaton: A,
        me: ProcessId,
        n: usize,
        now: Instant,
        sink: &mut impl FnMut(NodeEvent<A::Msg>),
    ) {
        debug_assert!(!self.slots.contains(instance), "instance reopened");
        let mut ctx =
            Ctx::with_actions(Time::ZERO, me, n, false, std::mem::take(&mut self.scratch));
        automaton.on_start(&mut ctx);
        let mut slot = Slot {
            automaton,
            epoch: now,
            decided: None,
            me,
            n,
        };
        self.scratch = drain_actions(
            instance,
            &mut slot,
            &mut self.timers,
            self.clock,
            &mut ctx,
            sink,
        );
        self.slots.insert(instance, slot);
    }

    /// Deliver a message from `from` to `instance`. Returns `false` (and
    /// does nothing) if the instance is not open — the host decides whether
    /// to buffer or drop such messages.
    pub fn deliver(
        &mut self,
        instance: InstanceId,
        from: ProcessId,
        msg: A::Msg,
        now: Instant,
        sink: &mut impl FnMut(NodeEvent<A::Msg>),
    ) -> bool {
        self.offer(instance, from, msg, now, sink).is_ok()
    }

    /// [`NodeLoop::deliver`], but a miss hands the message **back** instead
    /// of dropping it: one slab probe both resolves the instance and keeps
    /// the payload available for the host's early-envelope buffer (the
    /// hot-path caller would otherwise pay a second lookup via
    /// [`NodeLoop::has`]).
    pub fn offer(
        &mut self,
        instance: InstanceId,
        from: ProcessId,
        msg: A::Msg,
        now: Instant,
        sink: &mut impl FnMut(NodeEvent<A::Msg>),
    ) -> Result<(), A::Msg> {
        let Some(slot) = self.slots.get_mut(instance) else {
            return Err(msg);
        };
        let mut ctx = Ctx::with_actions(
            self.clock.virtual_now(slot.epoch, now),
            slot.me,
            slot.n,
            false,
            std::mem::take(&mut self.scratch),
        );
        slot.automaton.on_message(from, msg, &mut ctx);
        self.scratch = drain_actions(instance, slot, &mut self.timers, self.clock, &mut ctx, sink);
        Ok(())
    }

    /// Fire every timer due at or before `now` (timers of closed instances
    /// are silently discarded). Returns how many fired.
    ///
    /// Caution: several overdue timers fire **back to back** with no
    /// chance for the host to deliver the messages earlier fires produced
    /// (a starved thread can owe both of a protocol's phase timers at
    /// once, and a 2U handler must see the self-broadcast its 1U handler
    /// sent). Hosts that route self-sends through their own queue should
    /// use [`NodeLoop::fire_next`] and interleave deliveries between
    /// fires — `ac-cluster`'s node loop does.
    pub fn fire_due(&mut self, now: Instant, sink: &mut impl FnMut(NodeEvent<A::Msg>)) -> usize {
        let mut fired = 0;
        while self.fire_next(now, sink).is_some() {
            fired += 1;
        }
        fired
    }

    /// Fire **at most one** timer — the earliest due at or before `now` —
    /// returning how far past its deadline it fired (its lag: the node
    /// loop's share of a protocol phase's residency), or `None` when none
    /// was due. Stale timers of closed instances are discarded on the way
    /// (they are not a fire), including any the fired timer's removal
    /// exposed at the head of the heap.
    ///
    /// This is the causality-preserving primitive: firing one timer at a
    /// time lets the host deliver the self-sends that fire produced before
    /// the next (possibly equally overdue) timer of the same process runs,
    /// matching the simulator's order where same-timestamp deliveries
    /// precede later timers.
    pub fn fire_next(
        &mut self,
        now: Instant,
        sink: &mut impl FnMut(NodeEvent<A::Msg>),
    ) -> Option<Duration> {
        let mut fired = None;
        while fired.is_none() && self.timers.peek().is_some_and(|t| t.due <= now) {
            let t = self.timers.pop().expect("peeked");
            let Some(slot) = self.slots.get_mut(t.instance) else {
                continue; // stale timer of a closed instance
            };
            let mut ctx = Ctx::with_actions(
                self.clock.virtual_now(slot.epoch, now),
                slot.me,
                slot.n,
                false,
                std::mem::take(&mut self.scratch),
            );
            slot.automaton.on_timer(t.tag, &mut ctx);
            self.scratch = drain_actions(
                t.instance,
                slot,
                &mut self.timers,
                self.clock,
                &mut ctx,
                sink,
            );
            fired = Some(now.saturating_duration_since(t.due));
        }
        self.prune_stale_heads();
        fired
    }

    /// The wall-clock instant of the earliest pending **live** timer: a
    /// host parking until this deadline always has a timer to fire when
    /// it wakes (stale heads are pruned by the calls that expose them).
    pub fn next_due(&self) -> Option<Instant> {
        self.timers.peek().map(|t| t.due)
    }

    /// Pop timers of closed instances off the top of the heap until a
    /// live one (or nothing) is at the head. Stale entries deeper in the
    /// heap stay until they surface — each is popped exactly once.
    fn prune_stale_heads(&mut self) {
        while self
            .timers
            .peek()
            .is_some_and(|t| !self.slots.contains(t.instance))
        {
            self.timers.pop();
        }
    }

    /// Close `instance` and drop its state. Its pending timers are
    /// discarded as they reach the top of the heap — right here if one
    /// already is there. Returns its decision, if it had one.
    pub fn close(&mut self, instance: InstanceId) -> Option<u64> {
        let slot = self.slots.remove(instance);
        self.prune_stale_heads();
        slot.and_then(|s| s.decided)
    }

    /// Drop **all** instances and pending timers — the crash/restart hook.
    ///
    /// A crashed node loses its volatile state wholesale; the host rebuilds
    /// what durable storage (e.g. `ac_txn::Wal`) can recover by re-`open`ing
    /// instances with fresh automata and epochs. The recycled actions
    /// buffer survives (it carries no state).
    pub fn reset(&mut self) {
        self.slots = Slab::new();
        self.timers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy agreement automaton: P0 broadcasts a value, everyone decides it;
    /// P0 decides on a timer.
    struct Echo {
        me: ProcessId,
    }
    impl Automaton for Echo {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            if self.me == 0 {
                ctx.broadcast_others(42);
                ctx.set_timer(Time::units(2), 1);
            }
        }
        fn on_message(&mut self, _from: ProcessId, msg: u64, ctx: &mut Ctx<u64>) {
            ctx.decide(msg);
        }
        fn on_timer(&mut self, _tag: u32, ctx: &mut Ctx<u64>) {
            ctx.decide(42);
        }
    }

    #[test]
    fn unit_clock_round_trips_units() {
        let clock = UnitClock::new(Duration::from_millis(10));
        let epoch = Instant::now();
        let at2 = clock.wall_of(epoch, Time::units(2));
        assert_eq!(at2.duration_since(epoch), Duration::from_millis(20));
        assert_eq!(clock.virtual_now(epoch, at2), Time::units(2));
        // Just before a unit boundary rounds down.
        let almost = epoch + Duration::from_millis(19);
        assert_eq!(clock.virtual_now(epoch, almost), Time::units(1));
        // Before the epoch saturates to zero.
        assert_eq!(clock.virtual_now(at2, epoch), Time::ZERO);
    }

    #[test]
    fn unit_clock_round_trips_non_multiple_of_u_units() {
        // 1500 ns is not a whole multiple of U = 1000 ticks; the mapping
        // must still round trip (wall_of(k units) reads back as k units).
        let clock = UnitClock::new(Duration::from_nanos(1500));
        let epoch = Instant::now();
        for k in [1u64, 2, 3, 7, 1000] {
            let at = clock.wall_of(epoch, Time::units(k));
            assert_eq!(
                at.duration_since(epoch),
                Duration::from_nanos(1500 * k),
                "k={k}"
            );
            assert_eq!(clock.virtual_now(epoch, at), Time::units(k), "k={k}");
        }
    }

    /// Automaton deciding `base + instance payload` on a timer; used to
    /// check that multiplexed instances keep separate epochs and timers.
    struct TimedDecider {
        value: u64,
    }
    impl Automaton for TimedDecider {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            ctx.set_timer(Time::units(1), 7);
        }
        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Ctx<()>) {}
        fn on_timer(&mut self, _: u32, ctx: &mut Ctx<()>) {
            ctx.decide(self.value);
        }
    }

    #[test]
    fn node_loop_multiplexes_instances_with_own_epochs() {
        let clock = UnitClock::new(Duration::from_millis(5));
        let mut node: NodeLoop<TimedDecider> = NodeLoop::new(0, 1, clock);
        let mut events: Vec<(InstanceId, u64)> = Vec::new();
        let t0 = Instant::now();
        {
            let mut sink = |ev: NodeEvent<()>| {
                if let NodeEvent::Decided { instance, value } = ev {
                    events.push((instance, value));
                }
            };
            node.open(1, TimedDecider { value: 10 }, t0, &mut sink);
            // Second instance opens one unit later: its timer is due later.
            node.open(
                2,
                TimedDecider { value: 20 },
                t0 + Duration::from_millis(5),
                &mut sink,
            );
            assert_eq!(node.open_instances(), 2);
            // At t0+5ms only instance 1's timer is due.
            assert_eq!(node.fire_due(t0 + Duration::from_millis(5), &mut sink), 1);
            assert_eq!(node.decision(1), Some(10));
            assert_eq!(node.decision(2), None);
            // Closing instance 2 discards its pending timer.
            node.close(2);
            assert_eq!(node.fire_due(t0 + Duration::from_secs(1), &mut sink), 0);
        }
        assert_eq!(events, vec![(1, 10)]);
        assert!(node.has(1) && !node.has(2));
    }

    /// Broadcast-to-others automaton: on start, sends to every *other*
    /// process of its group.
    struct Announcer;
    impl Automaton for Announcer {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            ctx.broadcast_others(9);
        }
        fn on_message(&mut self, _: ProcessId, _: u64, _: &mut Ctx<u64>) {}
        fn on_timer(&mut self, _: u32, _: &mut Ctx<u64>) {}
    }

    /// The ISSUE-5 routing regression: an instance scoped to a 2-rank
    /// group, opened as rank 0 on a node whose **global id is 1** — with
    /// the loop's identity, `broadcast_others` would skip "process 1",
    /// i.e. the group's rank 1, and the peer silently misses the message.
    /// `open_as` pins the instance-local identity instead.
    #[test]
    fn open_as_scopes_ctx_identity_to_the_instance_rank() {
        let clock = UnitClock::new(Duration::from_millis(5));
        // The loop belongs to global node 1; the instance is rank 0 of a
        // 2-participant group.
        let mut node: NodeLoop<Announcer> = NodeLoop::new(1, 4, clock);
        let mut sends = Vec::new();
        {
            let mut sink = |ev: NodeEvent<u64>| {
                if let NodeEvent::Send { to, .. } = ev {
                    sends.push(to);
                }
            };
            node.open_as(7, Announcer, 0, 2, Instant::now(), &mut sink);
        }
        assert_eq!(sends, vec![1], "rank 0 of 2 must address exactly rank 1");

        // The unscoped open keeps the loop's identity.
        let mut sends = Vec::new();
        {
            let mut sink = |ev: NodeEvent<u64>| {
                if let NodeEvent::Send { to, .. } = ev {
                    sends.push(to);
                }
            };
            node.open(8, Announcer, Instant::now(), &mut sink);
        }
        assert_eq!(sends, vec![0, 2, 3], "loop identity: node 1 of 4");
    }

    /// Two-phase automaton mirroring INBAC's hazard: the 1U timer
    /// self-sends an "ack", the 2U timer decides 1 iff the ack arrived.
    /// When a starved thread owes both timers at once, firing them back to
    /// back (fire_due) violates per-process causality and decides 0;
    /// interleaving self-deliveries between single fires (fire_next, as
    /// the hosts do) preserves it and decides 1.
    struct TwoPhase {
        acked: bool,
    }
    impl Automaton for TwoPhase {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            ctx.set_timer(Time::units(1), 1);
            ctx.set_timer(Time::units(2), 2);
        }
        fn on_message(&mut self, _: ProcessId, _: (), _ctx: &mut Ctx<()>) {
            self.acked = true;
        }
        fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<()>) {
            match tag {
                1 => ctx.send(ctx.me(), ()),
                _ => ctx.decide(u64::from(self.acked)),
            }
        }
    }

    #[test]
    fn fire_next_preserves_causality_when_several_timers_are_overdue() {
        let clock = UnitClock::new(Duration::from_millis(1));
        let t0 = Instant::now();
        // The thread "wakes up" with both the 1U and 2U timers overdue.
        let late = t0 + Duration::from_millis(10);

        // The host pattern: drain self-sends between single fires.
        let mut node: NodeLoop<TwoPhase> = NodeLoop::new(0, 1, clock);
        let mut selfq: Vec<()> = Vec::new();
        let mut decision = None;
        {
            let mut sink = |ev: NodeEvent<()>| match ev {
                NodeEvent::Send { .. } => selfq.push(()),
                NodeEvent::Decided { value, .. } => decision = Some(value),
            };
            node.open(1, TwoPhase { acked: false }, t0, &mut sink);
        }
        loop {
            while let Some(()) = selfq.pop() {
                let mut sink = |ev: NodeEvent<()>| match ev {
                    NodeEvent::Send { .. } => {}
                    NodeEvent::Decided { value, .. } => decision = Some(value),
                };
                node.deliver(1, 0, (), late, &mut sink);
            }
            let mut sink = |ev: NodeEvent<()>| match ev {
                NodeEvent::Send { .. } => selfq.push(()),
                NodeEvent::Decided { value, .. } => decision = Some(value),
            };
            if node.fire_next(late, &mut sink).is_none() && selfq.is_empty() {
                break;
            }
        }
        assert_eq!(
            decision,
            Some(1),
            "the 2U handler must see the 1U handler's self-send"
        );
    }

    #[test]
    fn fire_next_returns_the_lag_of_a_real_fire() {
        let clock = UnitClock::new(Duration::from_millis(1));
        let mut node: NodeLoop<TimedDecider> = NodeLoop::new(0, 1, clock);
        let mut sink = |_: NodeEvent<()>| {};
        let t0 = Instant::now();
        node.open(1, TimedDecider { value: 1 }, t0, &mut sink);
        let due = node.next_due().unwrap();
        // Not yet due: no fire.
        assert_eq!(
            node.fire_next(due - Duration::from_nanos(1), &mut sink),
            None
        );
        // Fire 3ms past the deadline: one fire with exactly that lag.
        let late = Duration::from_millis(3);
        assert_eq!(node.fire_next(due + late, &mut sink), Some(late));
        // A stale timer of a closed instance is a no-op, not a fire.
        node.open(2, TimedDecider { value: 2 }, t0, &mut sink);
        let due = node.next_due().unwrap();
        node.close(2);
        let stale = node.fire_next(due + Duration::from_millis(1), &mut sink);
        assert_eq!(stale, None, "stale timers do not fire");
    }

    /// A closed instance's timer must not be reported as a deadline: the
    /// host would park on it and wake for nothing. Stale entries buried
    /// under a live head are pruned when they surface.
    #[test]
    fn next_due_reports_only_live_timers() {
        let clock = UnitClock::new(Duration::from_millis(1));
        let mut node: NodeLoop<TimedDecider> = NodeLoop::new(0, 1, clock);
        let mut sink = |_: NodeEvent<()>| {};
        let t0 = Instant::now();
        node.open_as(1, TimedDecider { value: 1 }, 0, 1, t0, &mut sink);
        assert!(node.next_due().is_some());
        node.close(1);
        assert_eq!(node.next_due(), None, "a closed instance's timer remains");

        // Live head (2), stale entry (3) behind it, live tail (4).
        let ms = Duration::from_millis;
        node.open(2, TimedDecider { value: 2 }, t0, &mut sink);
        node.open(3, TimedDecider { value: 3 }, t0 + ms(1), &mut sink);
        node.open(4, TimedDecider { value: 4 }, t0 + ms(2), &mut sink);
        node.close(3);
        assert_eq!(node.next_due(), Some(t0 + ms(1)));
        assert!(node.fire_next(t0 + ms(1), &mut sink).is_some());
        assert_eq!(node.next_due(), Some(t0 + ms(3)), "skips the stale 3");
    }

    #[test]
    fn reset_drops_instances_and_timers_for_restart() {
        let clock = UnitClock::new(Duration::from_millis(5));
        let mut node: NodeLoop<TimedDecider> = NodeLoop::new(0, 1, clock);
        let mut sink = |_: NodeEvent<()>| {};
        let t0 = Instant::now();
        node.open(1, TimedDecider { value: 1 }, t0, &mut sink);
        node.open(2, TimedDecider { value: 2 }, t0, &mut sink);
        assert_eq!(node.open_instances(), 2);
        assert!(node.next_due().is_some());
        node.reset();
        assert_eq!(node.open_instances(), 0);
        assert!(node.next_due().is_none(), "timers must not survive a crash");
        // A restarted host re-opens a recovered instance with a new epoch.
        node.open(1, TimedDecider { value: 10 }, Instant::now(), &mut sink);
        assert!(node.has(1));
        assert_eq!(node.open_instances(), 1);
    }

    #[test]
    fn node_loop_rejects_messages_for_unknown_instances() {
        let clock = UnitClock::new(Duration::from_millis(5));
        let mut node: NodeLoop<Echo> = NodeLoop::new(1, 2, clock);
        let mut sink = |_: NodeEvent<u64>| {};
        assert!(!node.deliver(9, 0, 42, Instant::now(), &mut sink));
        node.open(9, Echo { me: 1 }, Instant::now(), &mut sink);
        assert!(node.deliver(9, 0, 42, Instant::now(), &mut sink));
        assert_eq!(node.decision(9), Some(42));
    }
}
