//! The discrete-event world: runs `n` protocol automata over a delay model
//! and a fault plan, and records everything needed for property checking
//! and complexity metering.

use ac_sim::{Action, Automaton, Ctx, Event, EventQueue, ProcessId, Time, TraceEntry, TraceKind};

use crate::delay::DelayModel;
use crate::fault::{Fate, FaultPlan};
use crate::metrics::{Metrics, MsgRecord};

/// Static configuration of a run.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Hard cap on virtual time; events past it are not processed. Must be
    /// generous enough for "eventually" (termination) to play out.
    pub horizon: Time,
    /// Record a human-readable trace.
    pub trace: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            horizon: Time::units(10_000),
            trace: false,
        }
    }
}

/// Result of a run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// `decisions[p] = Some((t, v))` if process `p` decided `v` at `t`.
    pub decisions: Vec<Option<(Time, u64)>>,
    /// All inter-process messages (self-messages excluded).
    pub records: Vec<MsgRecord>,
    /// Which processes crashed during the run.
    pub crashed: Vec<bool>,
    /// Whether the event queue drained before the horizon.
    pub quiescent: bool,
    /// Time of the last processed event.
    pub end_time: Time,
    /// Trace (empty unless enabled).
    pub trace: Vec<TraceEntry>,
}

impl Outcome {
    /// Compute the paper's complexity measures for this execution.
    pub fn metrics(&self) -> Metrics {
        Metrics::compute(&self.records, &self.decisions, &self.crashed)
    }

    /// Decision value of process `p`, if any.
    pub fn decision_of(&self, p: ProcessId) -> Option<u64> {
        self.decisions[p].map(|(_, v)| v)
    }

    /// All decision values taken (with duplicates collapsed).
    pub fn decided_values(&self) -> Vec<u64> {
        let mut vals: Vec<u64> = self.decisions.iter().flatten().map(|&(_, v)| v).collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }
}

/// The simulator.
pub struct World<A: Automaton> {
    procs: Vec<A>,
    queue: EventQueue<A::Msg>,
    delay: Box<dyn DelayModel>,
    faults: FaultPlan,
    config: WorldConfig,
    crashed: Vec<bool>,
    /// Remaining send budget for partially-crashing processes at their crash
    /// timestamp (`None` until first touched).
    partial_budget: Vec<Option<usize>>,
    decisions: Vec<Option<(Time, u64)>>,
    records: Vec<MsgRecord>,
    wire_seq: u64,
    trace: Vec<TraceEntry>,
}

impl<A: Automaton> World<A> {
    /// Build a world over `procs` (one automaton per process, already
    /// initialized with their votes/roles). A message no delay rule of
    /// `faults` matches takes `delay`'s delay. `faults` may neither drop a
    /// message nor restart a process: the paper's channels never lose, and
    /// its automata do not recover.
    pub fn new(
        procs: Vec<A>,
        delay: Box<dyn DelayModel>,
        faults: FaultPlan,
        config: WorldConfig,
    ) -> Self {
        let n = procs.len();
        assert!(n >= 1);
        assert_eq!(faults.n(), n, "fault plan sized for a different n");
        let restarts = faults.crashes.iter().flatten().any(|c| c.up.is_some());
        assert!(
            faults.drops.is_empty() && !restarts,
            "a simulated channel never loses and a process never restarts"
        );
        World {
            procs,
            queue: EventQueue::new(),
            delay,
            faults,
            config,
            crashed: vec![false; n],
            partial_budget: vec![None; n],
            decisions: vec![None; n],
            records: Vec::new(),
            wire_seq: 0,
            trace: Vec::new(),
        }
    }

    fn n(&self) -> usize {
        self.procs.len()
    }

    /// Run to quiescence or the horizon; consume the world.
    pub fn run(mut self) -> Outcome {
        let n = self.n();
        // Dead-on-arrival crashes are queue events so they order correctly
        // against same-time stimuli; partial crashes are enforced inline.
        for p in 0..n {
            if let Some(c) = self.faults.crash_of(p) {
                if c.sends_at_crash_time == 0 {
                    self.queue.push(c.at, p, Event::Crash);
                }
            }
        }
        for p in 0..n {
            self.queue.push(Time::ZERO, p, Event::Start);
        }

        let mut end_time = Time::ZERO;
        let mut quiescent = true;
        while let Some(ev) = self.queue.pop() {
            let t = ev.key.at;
            if t > self.config.horizon {
                quiescent = false;
                break;
            }
            end_time = t;
            let p = ev.target;
            match ev.event {
                Event::Crash => {
                    if !self.crashed[p] {
                        self.crashed[p] = true;
                        self.push_trace(t, TraceKind::Crash { at: p });
                    }
                }
                other => {
                    if self.crashed[p] {
                        continue;
                    }
                    if let Some(c) = self.faults.crash_of(p) {
                        if t > c.at {
                            self.crashed[p] = true;
                            self.push_trace(t, TraceKind::Crash { at: p });
                            continue;
                        }
                        if t == c.at
                            && c.sends_at_crash_time > 0
                            && self.partial_budget[p].is_none()
                        {
                            self.partial_budget[p] = Some(c.sends_at_crash_time);
                        }
                    }
                    self.dispatch(p, t, other);
                }
            }
        }
        quiescent &= self.queue.is_empty();

        Outcome {
            decisions: self.decisions,
            records: self.records,
            crashed: self.crashed,
            quiescent,
            end_time,
            trace: self.trace,
        }
    }

    fn dispatch(&mut self, p: ProcessId, t: Time, event: Event<A::Msg>) {
        let mut ctx = Ctx::new(t, p, self.n(), self.config.trace);
        match event {
            Event::Start => self.procs[p].on_start(&mut ctx),
            Event::Deliver {
                from,
                msg,
                wire_seq,
            } => {
                if self.config.trace {
                    self.trace.push(TraceEntry {
                        time: t,
                        kind: TraceKind::Deliver {
                            from,
                            to: p,
                            desc: format!("{msg:?}"),
                        },
                    });
                }
                let _ = wire_seq;
                self.procs[p].on_message(from, msg, &mut ctx);
            }
            Event::Timer { tag } => {
                if self.config.trace {
                    self.trace.push(TraceEntry {
                        time: t,
                        kind: TraceKind::Timer { at: p, tag },
                    });
                }
                self.procs[p].on_timer(tag, &mut ctx);
            }
            Event::Crash => unreachable!("crash handled by caller"),
        }

        for line in ctx.take_traces() {
            self.trace.push(TraceEntry {
                time: t,
                kind: TraceKind::Note { at: p, text: line },
            });
        }
        for action in ctx.take_actions() {
            self.apply(p, t, action);
        }
    }

    fn apply(&mut self, p: ProcessId, t: Time, action: Action<A::Msg>) {
        // A partially-crashing process loses everything after its send
        // budget at the crash timestamp is exhausted (it died mid-step).
        if let Some(0) = self.partial_budget[p] {
            if !self.crashed[p] {
                self.crashed[p] = true;
                self.push_trace(t, TraceKind::Crash { at: p });
            }
            return;
        }
        match action {
            Action::Send { to, msg } => {
                if let Some(budget) = self.partial_budget[p].as_mut() {
                    *budget -= 1;
                }
                if self.config.trace {
                    self.trace.push(TraceEntry {
                        time: t,
                        kind: TraceKind::Send {
                            from: p,
                            to,
                            desc: format!("{msg:?}"),
                        },
                    });
                }
                if to == p {
                    // Free self-message: immediate arrival, not metered.
                    self.queue.push(
                        t,
                        to,
                        Event::Deliver {
                            from: p,
                            msg,
                            wire_seq: None,
                        },
                    );
                } else {
                    let seq = self.wire_seq;
                    let d = match self.faults.fate(p, to, t, seq) {
                        Fate::Delay(d) => d,
                        _ => self.delay.delay(p, to, t, seq),
                    };
                    let arrival = t + d.max(1);
                    self.wire_seq += 1;
                    self.records.push(MsgRecord {
                        seq,
                        from: p,
                        to,
                        sent: t,
                        arrival,
                    });
                    self.queue.push(
                        arrival,
                        to,
                        Event::Deliver {
                            from: p,
                            msg,
                            wire_seq: Some(seq),
                        },
                    );
                }
            }
            Action::SetTimer { at, tag } => {
                let at = at.max(t);
                self.queue.push(at, p, Event::Timer { tag });
            }
            Action::Decide(v) => {
                assert!(
                    self.decisions[p].is_none(),
                    "integrity violation: P{} decided twice",
                    p + 1
                );
                self.decisions[p] = Some((t, v));
                self.push_trace(t, TraceKind::Decide { at: p, value: v });
            }
        }
    }

    fn push_trace(&mut self, t: Time, kind: TraceKind) {
        if self.config.trace {
            self.trace.push(TraceEntry { time: t, kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::FixedDelay;
    use crate::fault::{Crash, FaultPlan};
    use ac_sim::U;

    /// Toy automaton: P0 broadcasts "ping" on start; everyone decides 1 on
    /// first delivery; P0 decides on a timer at 2U.
    struct Ping {
        me: ProcessId,
    }
    impl Automaton for Ping {
        type Msg = &'static str;
        fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>) {
            if self.me == 0 {
                ctx.broadcast_others("ping");
                ctx.set_timer(Time::units(2), 7);
            }
        }
        fn on_message(&mut self, _from: ProcessId, _msg: Self::Msg, ctx: &mut Ctx<Self::Msg>) {
            ctx.decide(1);
        }
        fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<Self::Msg>) {
            assert_eq!(tag, 7);
            ctx.decide(1);
        }
    }

    fn ping_world(n: usize, faults: FaultPlan) -> World<Ping> {
        let procs = (0..n).map(|me| Ping { me }).collect();
        World::new(
            procs,
            Box::new(FixedDelay::unit()),
            faults,
            WorldConfig::default(),
        )
    }

    #[test]
    fn worlds_and_plans_are_send() {
        // The parallel explorer ships whole worlds to worker threads; this
        // must stay true as the types evolve.
        fn assert_send<T: Send>() {}
        assert_send::<Crash>();
        assert_send::<FaultPlan>();
        assert_send::<WorldConfig>();
        assert_send::<Outcome>();
        assert_send::<World<Ping>>();
        assert_send::<Box<dyn crate::DelayModel>>();
    }

    #[test]
    fn nice_run_decides_everyone_and_meters() {
        let out = ping_world(3, FaultPlan::none(3)).run();
        assert!(out.quiescent);
        assert_eq!(out.decided_values(), vec![1]);
        let m = out.metrics();
        assert_eq!(m.messages_total, 2);
        // Receivers decide at U; P0 decides at 2U on its timer.
        assert_eq!(out.decisions[1].unwrap().0, Time(U));
        assert_eq!(out.decisions[0].unwrap().0, Time(2 * U));
        assert_eq!(m.delays, Some(2));
    }

    #[test]
    fn initial_crash_prevents_all_sends() {
        let faults = FaultPlan::none(3).with_crash(0, Crash::initially());
        let out = ping_world(3, faults).run();
        assert_eq!(out.records.len(), 0);
        assert!(out.decisions.iter().all(|d| d.is_none()));
        assert!(out.crashed[0]);
    }

    #[test]
    fn partial_crash_truncates_broadcast() {
        // P0 crashes at time 0 after 1 of its 2 sends.
        let faults = FaultPlan::none(3).with_crash(0, Crash::partial(Time::ZERO, 1));
        let out = ping_world(3, faults).run();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].to, 1); // deterministic broadcast order
        assert!(out.crashed[0]);
        // P1 decided, P2 never got the ping.
        assert!(out.decisions[1].is_some());
        assert!(out.decisions[2].is_none());
    }

    #[test]
    fn crashed_process_ignores_later_events() {
        // P1 crashes at U, exactly when the ping arrives: crash event has
        // priority, so it never processes the ping.
        let faults = FaultPlan::none(3).with_crash(1, Crash::at(Time(U)));
        let out = ping_world(3, faults).run();
        assert!(out.decisions[1].is_none());
        assert!(out.decisions[2].is_some());
    }

    #[test]
    fn a_delay_rule_beats_the_model() {
        let rule = crate::fault::DelayRule::link(0, 1, Time::ZERO, Time(1), 5 * U);
        let faults = FaultPlan::none(3).with_rule(rule);
        let out = ping_world(3, faults).run();
        assert_eq!(out.decisions[1].unwrap().0, Time(5 * U));
        assert_eq!(out.decisions[2].unwrap().0, Time(U));
    }

    #[test]
    #[should_panic(expected = "never loses")]
    fn a_plan_that_drops_is_refused() {
        let lossy = FaultPlan::none(3).lossy((Time::ZERO, Time(U)), 100, 1);
        let _ = ping_world(3, lossy);
    }

    #[test]
    #[should_panic(expected = "never restarts")]
    fn a_plan_that_restarts_is_refused() {
        let crash = Crash::at(Time(U)).restart(Time(2 * U));
        let _ = ping_world(3, FaultPlan::none(3).with_crash(1, crash));
    }

    #[test]
    #[should_panic(expected = "decided twice")]
    fn double_decide_panics() {
        struct Bad;
        impl Automaton for Bad {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                ctx.decide(0);
                ctx.decide(1);
            }
            fn on_message(&mut self, _: ProcessId, _: (), _: &mut Ctx<()>) {}
            fn on_timer(&mut self, _: u32, _: &mut Ctx<()>) {}
        }
        let w = World::new(
            vec![Bad],
            Box::new(FixedDelay::unit()),
            FaultPlan::none(1),
            WorldConfig::default(),
        );
        let _ = w.run();
    }

    #[test]
    fn horizon_truncates_runs() {
        struct Loopy;
        impl Automaton for Loopy {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                ctx.set_timer(Time::units(1), 0);
            }
            fn on_message(&mut self, _: ProcessId, _: (), _: &mut Ctx<()>) {}
            fn on_timer(&mut self, _: u32, ctx: &mut Ctx<()>) {
                ctx.set_timer(ctx.now() + U, 0);
            }
        }
        let w = World::new(
            vec![Loopy],
            Box::new(FixedDelay::unit()),
            FaultPlan::none(1),
            WorldConfig {
                horizon: Time::units(10),
                trace: false,
            },
        );
        let out = w.run();
        assert!(!out.quiescent);
        assert!(out.end_time <= Time::units(10));
    }

    #[test]
    fn self_messages_are_free_and_immediate() {
        struct SelfSend;
        impl Automaton for SelfSend {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<u8>) {
                let me = ctx.me();
                ctx.send(me, 42);
            }
            fn on_message(&mut self, from: ProcessId, msg: u8, ctx: &mut Ctx<u8>) {
                assert_eq!(from, ctx.me());
                assert_eq!(msg, 42);
                assert_eq!(ctx.now(), Time::ZERO); // immediate
                ctx.decide(1);
            }
            fn on_timer(&mut self, _: u32, _: &mut Ctx<u8>) {}
        }
        let w = World::new(
            vec![SelfSend],
            Box::new(FixedDelay::unit()),
            FaultPlan::none(1),
            WorldConfig::default(),
        );
        let out = w.run();
        assert_eq!(out.records.len(), 0);
        assert_eq!(out.decisions[0], Some((Time::ZERO, 1)));
    }
}
