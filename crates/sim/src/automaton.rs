//! The protocol-automaton abstraction.
//!
//! A protocol (INBAC, 2PC, ...) is a deterministic state machine per process
//! reacting to three stimuli: its start event (the NBAC *propose*), message
//! deliveries and timer timeouts. All effects are emitted as [`Action`]s into
//! the [`Ctx`]; the surrounding runtime (simulated or threaded) interprets
//! them. This inversion keeps automata pure and lets the simulator meter
//! messages and delays exactly.

use crate::{ProcessId, Time};

/// An effect requested by an automaton.
#[derive(Clone, Debug)]
pub enum Action<M> {
    /// Send `msg` to process `to`. Sending to oneself is allowed; the
    /// runtime delivers self-messages at the same timestamp and does **not**
    /// count them as network messages (paper, footnote 10).
    Send {
        /// Destination process.
        to: ProcessId,
        /// Message payload.
        msg: M,
    },
    /// Request a timer event carrying `tag` at absolute virtual time `at`.
    /// Setting several timers (even for the same tag) is allowed; each set
    /// fires exactly once. Automata are responsible for ignoring stale fires
    /// (the appendix pseudocode guards every timeout handler with a phase).
    SetTimer {
        /// Absolute virtual time at which the timer fires.
        at: Time,
        /// Tag passed back to [`Automaton::on_timer`].
        tag: u32,
    },
    /// Irrevocably output a decision value. A second decision is a protocol
    /// bug and the runtime panics (the paper's *integrity* property).
    Decide(u64),
}

/// Per-event execution context handed to an automaton.
///
/// `Ctx` buffers actions; the runtime drains them after the handler returns,
/// which models the paper's instantaneous local steps (every send performed
/// during one step carries the same timestamp).
///
/// ```
/// use ac_sim::{Action, Ctx, Time};
///
/// // Process 1 of 3 handles an event at time zero.
/// let mut ctx: Ctx<&str> = Ctx::new(Time::ZERO, 1, 3, false);
/// ctx.broadcast_others("vote");
/// ctx.set_timer(Time::units(2), 7);
/// let actions = ctx.take_actions();
/// assert_eq!(actions.len(), 3); // two sends (not to self) + one timer
/// assert!(matches!(actions[2], Action::SetTimer { tag: 7, .. }));
/// ```
#[derive(Debug)]
pub struct Ctx<M> {
    now: Time,
    me: ProcessId,
    n: usize,
    actions: Vec<Action<M>>,
    trace_enabled: bool,
    traces: Vec<String>,
}

impl<M> Ctx<M> {
    /// Create a context for one handler invocation of process `me` (of `n`)
    /// at virtual time `now`.
    pub fn new(now: Time, me: ProcessId, n: usize, trace_enabled: bool) -> Self {
        Ctx::with_actions(now, me, n, trace_enabled, Vec::new())
    }

    /// [`Ctx::new`] with a recycled actions buffer: `actions` is cleared
    /// and used as the backing storage, so a runtime that processes
    /// millions of events can hand the same allocation back in through
    /// every [`Ctx::take_actions`]/`with_actions` round trip instead of
    /// re-allocating per event (the live service's node loops do this).
    pub fn with_actions(
        now: Time,
        me: ProcessId,
        n: usize,
        trace_enabled: bool,
        mut actions: Vec<Action<M>>,
    ) -> Self {
        actions.clear();
        Ctx {
            now,
            me,
            n,
            actions,
            trace_enabled,
            traces: Vec::new(),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the executing process.
    #[inline]
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Total number of processes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Send `msg` to `to`.
    #[inline]
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Send `msg` to every process in `Ω`, including the sender itself
    /// (`forall q ∈ Ω` in the pseudocode). The self-copy is free.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for q in 0..self.n {
            self.actions.push(Action::Send {
                to: q,
                msg: msg.clone(),
            });
        }
    }

    /// Send `msg` to every process except the sender.
    pub fn broadcast_others(&mut self, msg: M)
    where
        M: Clone,
    {
        for q in 0..self.n {
            if q != self.me {
                self.actions.push(Action::Send {
                    to: q,
                    msg: msg.clone(),
                });
            }
        }
    }

    /// Arm a timer at absolute time `at` with `tag`.
    #[inline]
    pub fn set_timer(&mut self, at: Time, tag: u32) {
        self.actions.push(Action::SetTimer { at, tag });
    }

    /// Output the decision.
    #[inline]
    pub fn decide(&mut self, v: u64) {
        self.actions.push(Action::Decide(v));
    }

    /// Record a human-readable trace line (no-op unless tracing is enabled
    /// by the runtime; keeps nice-execution benches allocation-free).
    pub fn trace(&mut self, f: impl FnOnce() -> String) {
        if self.trace_enabled {
            let line = f();
            self.traces.push(line);
        }
    }

    /// Whether tracing is on (lets callers skip building trace data).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace_enabled
    }

    /// Drain buffered actions (runtime use).
    pub fn take_actions(&mut self) -> Vec<Action<M>> {
        std::mem::take(&mut self.actions)
    }

    /// Drain buffered trace lines (runtime use).
    pub fn take_traces(&mut self) -> Vec<String> {
        std::mem::take(&mut self.traces)
    }
}

/// A deterministic protocol automaton for one process.
///
/// Implementations must be deterministic functions of (state, stimulus):
/// the simulator relies on this for reproducibility, and the exhaustive
/// explorer in `ac-commit` relies on it for soundness.
pub trait Automaton {
    /// The protocol's message alphabet. Messages must be `Send` so whole
    /// worlds can be executed on worker threads (`ac-runtime` and the
    /// parallel explorer in `ac-commit` both rely on this).
    type Msg: Clone + std::fmt::Debug + Send;

    /// The start event. For commit protocols this is the NBAC `Propose`
    /// (the vote was passed to the constructor). All processes start
    /// spontaneously at time 0 — the "fair comparison" convention used by
    /// the paper's Table 5.
    fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>);

    /// A message from `from` is delivered.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut Ctx<Self::Msg>);

    /// A previously set timer with `tag` fires.
    fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<Self::Msg>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_buffers_actions_in_order() {
        let mut ctx: Ctx<u8> = Ctx::new(Time::ZERO, 1, 3, false);
        ctx.send(0, 7);
        ctx.set_timer(Time::units(1), 4);
        ctx.decide(1);
        let acts = ctx.take_actions();
        assert_eq!(acts.len(), 3);
        assert!(matches!(acts[0], Action::Send { to: 0, msg: 7 }));
        assert!(matches!(acts[1], Action::SetTimer { tag: 4, .. }));
        assert!(matches!(acts[2], Action::Decide(1)));
        assert!(ctx.take_actions().is_empty());
    }

    #[test]
    fn broadcast_includes_self_broadcast_others_does_not() {
        let mut ctx: Ctx<u8> = Ctx::new(Time::ZERO, 1, 3, false);
        ctx.broadcast(9);
        let targets: Vec<_> = ctx
            .take_actions()
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![0, 1, 2]);

        ctx.broadcast_others(9);
        let targets: Vec<_> = ctx
            .take_actions()
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![0, 2]);
    }

    #[test]
    fn trace_disabled_is_silent() {
        let mut ctx: Ctx<u8> = Ctx::new(Time::ZERO, 0, 1, false);
        ctx.trace(|| "should not appear".into());
        assert!(ctx.take_traces().is_empty());

        let mut ctx: Ctx<u8> = Ctx::new(Time::ZERO, 0, 1, true);
        ctx.trace(|| "visible".into());
        assert_eq!(ctx.take_traces(), vec!["visible".to_string()]);
    }
}
