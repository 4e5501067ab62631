//! Single-decree Paxos with a rotating coordinator.

use ac_sim::{wire_enum, Ctx, ProcessId, Time, U};

/// Timer tags at or above this value belong to the consensus sub-automaton;
/// embedding protocols must keep their own tags below it.
pub const CONS_TAG_BASE: u32 = 1 << 16;

/// Base ballot timeout. Two phases plus the decide broadcast need at most
/// five one-way delays post-GST; 8U leaves slack for handler interleaving.
const ROUND_TICKS: u64 = 8 * U;
/// Linear growth of the per-ballot timeout, so that pre-GST chaos of any
/// finite magnitude is eventually outlived.
const ROUND_GROWTH: u64 = 4 * U;

/// Messages of the consensus module. Embedding protocols wrap these in a
/// variant of their own message enum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PaxosMsg {
    /// Phase 1a: the ballot `bal` coordinator asks acceptors to promise.
    Prepare {
        /// Ballot number.
        bal: u64,
    },
    /// Phase 1b: an acceptor promises ballot `bal`, reporting its
    /// highest accepted `(ballot, value)` pair, if any.
    Promise {
        /// The promised ballot.
        bal: u64,
        /// Highest `(ballot, value)` this acceptor has accepted.
        accepted: Option<(u64, u64)>,
    },
    /// Phase 2a: the coordinator asks acceptors to accept `val` at `bal`.
    Accept {
        /// Ballot number.
        bal: u64,
        /// Proposed value.
        val: u64,
    },
    /// Phase 2b: an acceptor reports it accepted `val` at `bal`.
    Accepted {
        /// Ballot number.
        bal: u64,
        /// Accepted value.
        val: u64,
    },
    /// Decision broadcast: `val` is chosen.
    Decide {
        /// The decided value.
        val: u64,
    },
}

wire_enum!(PaxosMsg {
    0 => Prepare { bal },
    1 => Promise { bal, accepted },
    2 => Accept { bal, val },
    3 => Accepted { bal, val },
    4 => Decide { val },
});

/// The effect interface the consensus module needs from its host.
///
/// Implemented by [`CtxHost`] for simulated/threaded automata; a production
/// system would implement it over its RPC layer.
pub trait ConsensusHost {
    /// Send a consensus message to process `to`.
    fn send(&mut self, to: ProcessId, m: PaxosMsg);
    /// Arm a timer for the consensus module at absolute time `at`.
    fn set_timer(&mut self, at: Time, tag: u32);
    /// Current virtual time.
    fn now(&self) -> Time;
}

/// Adapter implementing [`ConsensusHost`] over a protocol's [`Ctx`], wrapping
/// consensus messages into the protocol's own message type via `wrap`.
pub struct CtxHost<'a, M> {
    /// The hosting automaton's execution context.
    pub ctx: &'a mut Ctx<M>,
    /// Wraps a consensus message into the host's message alphabet.
    pub wrap: fn(PaxosMsg) -> M,
}

impl<M: Clone + std::fmt::Debug> ConsensusHost for CtxHost<'_, M> {
    fn send(&mut self, to: ProcessId, m: PaxosMsg) {
        let msg = (self.wrap)(m);
        self.ctx.send(to, msg);
    }
    fn set_timer(&mut self, at: Time, tag: u32) {
        self.ctx.set_timer(at, tag);
    }
    fn now(&self) -> Time {
        self.ctx.now()
    }
}

/// Proposer-side phase within the current ballot.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    Idle,
    Preparing {
        promises: Vec<ProcessId>,
        best: Option<(u64, u64)>,
    },
    Accepting {
        accepts: Vec<ProcessId>,
        val: u64,
    },
}

/// One instance of single-decree Paxos, embedded in a host automaton.
///
/// The host must route every wrapped [`PaxosMsg`] to [`Paxos::on_message`]
/// and every timer with a tag `>= tag_base` to [`Paxos::on_timer`]. Both
/// return `Some(v)` exactly once — when this process first learns the
/// decision.
#[derive(Clone, Debug)]
pub struct Paxos {
    me: ProcessId,
    n: usize,
    tag_base: u32,
    // Acceptor state.
    promised: u64,
    accepted: Option<(u64, u64)>,
    // Proposer state.
    proposal: Option<u64>,
    round: u64,
    phase: Phase,
    decided: Option<u64>,
    announced: bool,
}

impl Paxos {
    /// A Paxos instance for process `me` of `n`, with the default
    /// [`CONS_TAG_BASE`] timer-tag namespace.
    pub fn new(me: ProcessId, n: usize) -> Self {
        Self::with_tag_base(me, n, CONS_TAG_BASE)
    }

    /// Like [`Paxos::new`] with an explicit timer-tag namespace start (for
    /// hosts embedding several consensus instances).
    pub fn with_tag_base(me: ProcessId, n: usize, tag_base: u32) -> Self {
        assert!(n >= 1);
        Paxos {
            me,
            n,
            tag_base,
            promised: 0,
            accepted: None,
            proposal: None,
            round: 0,
            phase: Phase::Idle,
            decided: None,
            announced: false,
        }
    }

    #[inline]
    fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    #[inline]
    fn owner(&self, round: u64) -> ProcessId {
        (round % self.n as u64) as usize
    }

    #[inline]
    fn ballot(&self, round: u64) -> u64 {
        round + 1
    }

    /// Whether `tag` belongs to this consensus instance.
    #[inline]
    pub fn owns_tag(&self, tag: u32) -> bool {
        tag >= self.tag_base
    }

    /// The decision, if this process has learnt it.
    #[inline]
    pub fn decision(&self) -> Option<u64> {
        self.decided
    }

    /// Whether `propose` has been called.
    #[inline]
    pub fn proposed(&self) -> bool {
        self.proposal.is_some()
    }

    /// Propose `v`. Idempotent: later calls are ignored.
    pub fn propose(&mut self, v: u64, host: &mut impl ConsensusHost) {
        if self.proposal.is_some() || self.decided.is_some() {
            return;
        }
        self.proposal = Some(v);
        if self.owner(self.round) == self.me {
            self.start_prepare(host);
        }
        self.arm(host);
    }

    fn arm(&mut self, host: &mut impl ConsensusHost) {
        let deadline = host.now() + ROUND_TICKS + self.round * ROUND_GROWTH;
        debug_assert!(self.round < (u32::MAX - self.tag_base) as u64);
        host.set_timer(deadline, self.tag_base + self.round as u32);
    }

    fn start_prepare(&mut self, host: &mut impl ConsensusHost) {
        let bal = self.ballot(self.round);
        self.phase = Phase::Preparing {
            promises: Vec::new(),
            best: None,
        };
        for q in 0..self.n {
            host.send(q, PaxosMsg::Prepare { bal });
        }
    }

    /// Handle a consensus message. Returns `Some(v)` when this process first
    /// learns the decision `v`.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        m: PaxosMsg,
        host: &mut impl ConsensusHost,
    ) -> Option<u64> {
        match m {
            PaxosMsg::Prepare { bal } => {
                if let Some(val) = self.decided {
                    host.send(from, PaxosMsg::Decide { val });
                } else if bal > self.promised {
                    self.promised = bal;
                    host.send(
                        from,
                        PaxosMsg::Promise {
                            bal,
                            accepted: self.accepted,
                        },
                    );
                }
                None
            }
            PaxosMsg::Promise { bal, accepted } => {
                if self.decided.is_some() || bal != self.ballot(self.round) {
                    return None;
                }
                let majority = self.majority();
                if let Phase::Preparing { promises, best } = &mut self.phase {
                    if promises.contains(&from) {
                        return None;
                    }
                    promises.push(from);
                    if let Some((abal, aval)) = accepted {
                        if best.is_none_or(|(b, _)| abal > b) {
                            *best = Some((abal, aval));
                        }
                    }
                    if promises.len() >= majority {
                        let val = best
                            .map(|(_, v)| v)
                            .or(self.proposal)
                            .expect("proposer without a value started a ballot");
                        self.phase = Phase::Accepting {
                            accepts: Vec::new(),
                            val,
                        };
                        for q in 0..self.n {
                            host.send(q, PaxosMsg::Accept { bal, val });
                        }
                    }
                }
                None
            }
            PaxosMsg::Accept { bal, val } => {
                if let Some(dv) = self.decided {
                    host.send(from, PaxosMsg::Decide { val: dv });
                    return None;
                }
                if bal >= self.promised {
                    self.promised = bal;
                    self.accepted = Some((bal, val));
                    host.send(from, PaxosMsg::Accepted { bal, val });
                }
                None
            }
            PaxosMsg::Accepted { bal, val } => {
                if self.decided.is_some() || bal != self.ballot(self.round) {
                    return None;
                }
                if let Phase::Accepting {
                    accepts,
                    val: myval,
                } = &mut self.phase
                {
                    debug_assert_eq!(*myval, val);
                    if accepts.contains(&from) {
                        return None;
                    }
                    accepts.push(from);
                    if accepts.len() >= self.majority() {
                        // Value chosen: announce and decide locally.
                        for q in 0..self.n {
                            if q != self.me {
                                host.send(q, PaxosMsg::Decide { val });
                            }
                        }
                        return self.learn(val);
                    }
                }
                None
            }
            PaxosMsg::Decide { val } => self.learn(val),
        }
    }

    fn learn(&mut self, val: u64) -> Option<u64> {
        if self.decided.is_none() {
            self.decided = Some(val);
        }
        debug_assert_eq!(
            self.decided,
            Some(val),
            "paxos agreement violated internally"
        );
        if self.announced {
            None
        } else {
            self.announced = true;
            Some(val)
        }
    }

    /// Handle a timer with a tag owned by this instance. Returns a decision
    /// like [`Paxos::on_message`] (always `None` today, kept symmetric).
    pub fn on_timer(&mut self, tag: u32, host: &mut impl ConsensusHost) -> Option<u64> {
        debug_assert!(self.owns_tag(tag));
        let fired_round = (tag - self.tag_base) as u64;
        if self.decided.is_some() || fired_round != self.round || self.proposal.is_none() {
            return None;
        }
        // Current ballot made no progress: move on.
        self.round += 1;
        self.phase = Phase::Idle;
        if self.owner(self.round) == self.me {
            self.start_prepare(host);
        }
        self.arm(host);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct VecHost {
        now: Time,
        sent: Vec<(ProcessId, PaxosMsg)>,
        timers: Vec<(Time, u32)>,
    }
    impl VecHost {
        fn new() -> Self {
            VecHost {
                now: Time::ZERO,
                sent: Vec::new(),
                timers: Vec::new(),
            }
        }
    }
    impl ConsensusHost for VecHost {
        fn send(&mut self, to: ProcessId, m: PaxosMsg) {
            self.sent.push((to, m));
        }
        fn set_timer(&mut self, at: Time, tag: u32) {
            self.timers.push((at, tag));
        }
        fn now(&self) -> Time {
            self.now
        }
    }

    #[test]
    fn round_zero_owner_prepares_on_propose() {
        let mut h = VecHost::new();
        let mut p = Paxos::new(0, 3);
        p.propose(1, &mut h);
        let prepares = h
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, PaxosMsg::Prepare { bal: 1 }))
            .count();
        assert_eq!(prepares, 3);
        assert_eq!(h.timers.len(), 1);
    }

    #[test]
    fn non_owner_only_arms_timer() {
        let mut h = VecHost::new();
        let mut p = Paxos::new(1, 3);
        p.propose(0, &mut h);
        assert!(h.sent.is_empty());
        assert_eq!(h.timers.len(), 1);
    }

    #[test]
    fn full_round_trip_decides_proposer_value() {
        let mut h = VecHost::new();
        let mut p = Paxos::new(0, 3);
        p.propose(7, &mut h);
        // Majority promises (self + P2).
        assert!(p
            .on_message(
                0,
                PaxosMsg::Promise {
                    bal: 1,
                    accepted: None
                },
                &mut h
            )
            .is_none());
        assert!(p
            .on_message(
                1,
                PaxosMsg::Promise {
                    bal: 1,
                    accepted: None
                },
                &mut h
            )
            .is_none());
        assert!(h
            .sent
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Accept { bal: 1, val: 7 })));
        // Majority accepts -> decision.
        assert!(p
            .on_message(0, PaxosMsg::Accepted { bal: 1, val: 7 }, &mut h)
            .is_none());
        let dec = p.on_message(1, PaxosMsg::Accepted { bal: 1, val: 7 }, &mut h);
        assert_eq!(dec, Some(7));
        assert_eq!(p.decision(), Some(7));
        // Decision is announced to the others.
        let decides = h
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, PaxosMsg::Decide { val: 7 }))
            .count();
        assert_eq!(decides, 2);
    }

    #[test]
    fn promise_carries_prior_accepts_and_wins() {
        let mut h = VecHost::new();
        let mut p = Paxos::new(0, 3);
        p.propose(0, &mut h);
        // P2 reports it accepted value 1 at an earlier ballot: proposer must
        // adopt 1, not its own 0 (Paxos safety).
        p.on_message(
            1,
            PaxosMsg::Promise {
                bal: 1,
                accepted: None,
            },
            &mut h,
        );
        p.on_message(
            2,
            PaxosMsg::Promise {
                bal: 1,
                accepted: Some((0, 1)),
            },
            &mut h,
        );
        assert!(h
            .sent
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Accept { bal: 1, val: 1 })));
    }

    #[test]
    fn acceptor_rejects_stale_ballots() {
        let mut h = VecHost::new();
        let mut p = Paxos::new(2, 3);
        p.on_message(0, PaxosMsg::Prepare { bal: 5 }, &mut h);
        assert!(matches!(
            h.sent.last(),
            Some((0, PaxosMsg::Promise { bal: 5, .. }))
        ));
        let before = h.sent.len();
        // An older prepare gets no promise.
        p.on_message(1, PaxosMsg::Prepare { bal: 3 }, &mut h);
        assert_eq!(h.sent.len(), before);
        // An older accept is ignored too.
        p.on_message(1, PaxosMsg::Accept { bal: 3, val: 0 }, &mut h);
        assert_eq!(h.sent.len(), before);
    }

    #[test]
    fn timeout_rotates_coordinator() {
        let mut h = VecHost::new();
        let mut p = Paxos::new(1, 3);
        p.propose(1, &mut h);
        assert!(h.sent.is_empty());
        // Round 0 (owner P1=id 0) times out; round 1 is ours (id 1).
        let tag = h.timers[0].1;
        p.on_timer(tag, &mut h);
        assert!(h
            .sent
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Prepare { bal: 2 })));
        assert_eq!(h.timers.len(), 2);
    }

    #[test]
    fn decided_acceptor_short_circuits() {
        let mut h = VecHost::new();
        let mut p = Paxos::new(2, 3);
        assert_eq!(
            p.on_message(0, PaxosMsg::Decide { val: 1 }, &mut h),
            Some(1)
        );
        // Second learn returns None (announce-once semantics).
        assert_eq!(p.on_message(1, PaxosMsg::Decide { val: 1 }, &mut h), None);
        p.on_message(1, PaxosMsg::Prepare { bal: 9 }, &mut h);
        assert!(matches!(
            h.sent.last(),
            Some((1, PaxosMsg::Decide { val: 1 }))
        ));
    }

    #[test]
    fn stale_timer_is_ignored() {
        let mut h = VecHost::new();
        let mut p = Paxos::new(0, 3);
        p.propose(1, &mut h);
        let tag0 = h.timers[0].1;
        p.on_timer(tag0, &mut h); // round -> 1
        let sends_before = h.sent.len();
        p.on_timer(tag0, &mut h); // stale: round already advanced
        assert_eq!(h.sent.len(), sends_before);
    }
}
