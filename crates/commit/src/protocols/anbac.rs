//! aNBAC — the message-optimal protocol for cell (AV, A) (Appendix E.3):
//! agreement and validity in crash-failure executions, agreement in
//! network-failure executions, `n−1+f` messages in nice executions.
//!
//! Structure: the (n−1+f)NBAC chain decides commit; an overlay of explicit
//! abort notifications (`[V,0]`, `[B,0]` with acknowledgements) decides
//! abort *early* (at 2 or 3 delays) when some process votes 0. A process
//! whose acknowledgements are incomplete sets `noop` and never decides —
//! termination is not promised once a failure occurs, which is exactly what
//! buys the low message count.

// Index ranges deliberately mirror the paper's pseudocode (e.g. `f+1 <= i`).
#![allow(clippy::int_plus_one)]

use ac_sim::{Automaton, Ctx, ProcessId};

use super::{etime, PerRank};
use crate::problem::{decision_value, validate_params, CommitProtocol, Vote};

const TAG_CHAIN: u32 = 1;
const TAG_OVERLAY: u32 = 2;

/// aNBAC's message alphabet.
#[derive(Clone, Debug)]
pub enum ANbacMsg {
    /// Chain message carrying the AND so far.
    Chain(bool),
    /// Explicit abort vote.
    V0,
    /// Abort backup by a 1-voter that learnt of a 0.
    B0,
    /// Acknowledgement of a `[V,0]`.
    AckV,
    /// Acknowledgement of a `[B,0]`.
    AckB,
}

/// One process of aNBAC.
#[derive(Debug)]
pub struct ANbac {
    me: ProcessId,
    n: usize,
    f: usize,
    // Chain state (as in `ChainNbac`).
    decision: bool,
    decided: bool,
    delivered: bool,
    phase: u8,
    echoed: bool,
    // Overlay state.
    vote: bool,
    delivered_v: bool,
    collection_v: PerRank<bool>,
    collection_b: PerRank<bool>,
    noop: bool,
    phase0: u8,
}

impl ANbac {
    #[inline]
    fn i(&self) -> u64 {
        self.me as u64 + 1
    }

    #[inline]
    fn pred(&self) -> ProcessId {
        (self.me + self.n - 1) % self.n
    }

    #[inline]
    fn succ(&self) -> ProcessId {
        (self.me + 1) % self.n
    }

    fn broadcast_zero(&mut self, ctx: &mut Ctx<ANbacMsg>) {
        if !self.echoed {
            self.echoed = true;
            ctx.broadcast_others(ANbacMsg::Chain(false));
        }
    }
}

impl CommitProtocol for ANbac {
    const NAME: &'static str = "aNBAC";

    fn new(me: ProcessId, n: usize, f: usize, vote: Vote) -> Self {
        validate_params(n, f);
        ANbac {
            me,
            n,
            f,
            decision: vote,
            decided: false,
            delivered: false,
            phase: 0,
            echoed: false,
            vote,
            delivered_v: false,
            collection_v: PerRank::from_elem(false, n),
            collection_b: PerRank::from_elem(false, n),
            noop: false,
            phase0: 0,
        }
    }
}

impl Automaton for ANbac {
    type Msg = ANbacMsg;

    fn on_start(&mut self, ctx: &mut Ctx<ANbacMsg>) {
        let (n, i) = (self.n as u64, self.i());
        // Chain part.
        if i == 1 {
            ctx.send(1, ANbacMsg::Chain(self.decision));
            ctx.set_timer(etime(n + 1), TAG_CHAIN);
            self.phase = 2;
        } else {
            ctx.set_timer(etime(i), TAG_CHAIN);
            self.phase = 1;
        }
        // Overlay part.
        if !self.vote {
            ctx.broadcast(ANbacMsg::V0);
            ctx.set_timer(etime(3), TAG_OVERLAY);
        } else {
            ctx.set_timer(etime(2), TAG_OVERLAY);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: ANbacMsg, ctx: &mut Ctx<ANbacMsg>) {
        match msg {
            ANbacMsg::Chain(v) => {
                self.decision &= v;
                if self.phase <= 2 {
                    if from == self.pred() {
                        self.delivered = true;
                    }
                } else if !self.decided && !v {
                    self.broadcast_zero(ctx);
                }
            }
            ANbacMsg::V0 => {
                self.decision = false;
                self.delivered_v = true;
                ctx.send(from, ANbacMsg::AckV);
            }
            ANbacMsg::B0 => {
                self.decision = false;
                ctx.send(from, ANbacMsg::AckB);
            }
            ANbacMsg::AckV => {
                self.collection_v[from] = true;
            }
            ANbacMsg::AckB => {
                self.collection_b[from] = true;
            }
        }
    }

    fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<ANbacMsg>) {
        match tag {
            TAG_CHAIN => self.on_chain_timer(ctx),
            TAG_OVERLAY => self.on_overlay_timer(ctx),
            other => unreachable!("unknown aNBAC timer tag {other}"),
        }
    }
}

impl ANbac {
    fn on_chain_timer(&mut self, ctx: &mut Ctx<ANbacMsg>) {
        let (n, f, i) = (self.n as u64, self.f as u64, self.i());
        match self.phase {
            1 => {
                if !self.delivered {
                    self.decision = false;
                }
                if self.decision {
                    ctx.send(self.succ(), ANbacMsg::Chain(true));
                } else if i == n {
                    self.broadcast_zero(ctx);
                }
                self.delivered = false;
                if i >= f + 1 {
                    ctx.set_timer(etime(n + 2 * f + 1), TAG_CHAIN);
                    self.phase = 3;
                } else {
                    ctx.set_timer(etime(n + i), TAG_CHAIN);
                    self.phase = 2;
                }
            }
            2 => {
                if !self.delivered {
                    self.decision = false;
                }
                if self.decision && i != f {
                    ctx.send(self.succ(), ANbacMsg::Chain(true));
                }
                if !self.decision {
                    self.broadcast_zero(ctx);
                }
                self.delivered = false;
                ctx.set_timer(etime(n + 2 * f + 1), TAG_CHAIN);
                self.phase = 3;
            }
            3 => {
                // Decide 1 only if the chain completed and the overlay never
                // stalled; otherwise stay undecided (no termination
                // guarantee under failures).
                if self.decision && !self.noop && !self.decided {
                    self.decided = true;
                    ctx.decide(decision_value(true));
                }
            }
            other => unreachable!("aNBAC chain timer in phase {other}"),
        }
    }

    fn on_overlay_timer(&mut self, ctx: &mut Ctx<ANbacMsg>) {
        if !self.vote {
            // Our own [V,0] round: decide 0 iff everyone acknowledged.
            if self.collection_v.iter().all(|&a| a) && !self.decided {
                self.decided = true;
                ctx.decide(decision_value(false));
            } else {
                self.noop = true;
            }
        } else if self.delivered_v && self.phase0 == 0 {
            // We learnt of a 0: back it up and poll acknowledgements.
            ctx.broadcast(ANbacMsg::B0);
            ctx.set_timer(etime(4), TAG_OVERLAY);
            self.phase0 = 1;
        } else if self.delivered_v && self.phase0 == 1 {
            if self.collection_b.iter().all(|&a| a) && !self.decided {
                self.decided = true;
                ctx.decide(decision_value(false));
            } else {
                self.noop = true;
            }
        }
        // vote = 1 without any [V,0]: the overlay stays silent.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check;
    use crate::protocols::ProtocolKind;
    use crate::runner::{nice_complexity, Scenario};
    use ac_net::{Crash, DelayRule};
    use ac_sim::{Time, U};

    #[test]
    fn nice_execution_matches_n_1_f_messages() {
        for n in 2..=8 {
            for f in 1..n {
                let (d, m) = nice_complexity::<ANbac>(n, f);
                assert_eq!(m, (n - 1 + f) as u64, "n={n} f={f}");
                assert_eq!(d, (n + 2 * f) as u64, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn failure_free_abort_is_fast() {
        // With a 0-voter and no failures, 0-voters decide at 2 delays and
        // 1-voters at 3 delays — far earlier than the chain's end.
        let sc = Scenario::nice(5, 2).vote_no(2);
        let out = sc.run::<ANbac>();
        check(&out, &sc.votes, ProtocolKind::ANbac.cell()).assert_ok("one no");
        assert_eq!(out.decided_values(), vec![0]);
        assert_eq!(out.decisions[2].unwrap().0, Time::units(2));
        assert_eq!(out.decisions[0].unwrap().0, Time::units(3));
    }

    #[test]
    fn crash_executions_keep_agreement_and_validity() {
        let n = 4;
        for victim in 0..n {
            for t in 0..5u64 {
                let sc = Scenario::nice(n, 1).crash(victim, Crash::at(Time::units(t)));
                let out = sc.run::<ANbac>();
                check(&out, &sc.votes, ProtocolKind::ANbac.cell())
                    .assert_ok(&format!("victim={victim} t={t}"));
            }
        }
    }

    #[test]
    fn crash_with_no_vote_never_commits() {
        // 0-voter crashes mid-[V,0]-broadcast: anyone that saw the 0 blocks
        // or aborts; nobody may commit... unless nobody saw it and the
        // chain also carried only 1s — impossible since the 0-voter's chain
        // slot is empty after the crash. Agreement must hold regardless.
        let n = 4;
        for reached in 0..=2 {
            let sc = Scenario::nice(n, 1)
                .vote_no(2)
                .crash(2, Crash::partial(Time::ZERO, reached));
            let out = sc.run::<ANbac>();
            let report = check(&out, &sc.votes, ProtocolKind::ANbac.cell());
            report.assert_ok(&format!("reached={reached}"));
            assert!(!out.decided_values().contains(&1), "reached={reached}");
        }
    }

    #[test]
    fn network_failure_keeps_agreement_only() {
        // Delay one ack: the 0-voter noops (never decides); the B0 round
        // still aborts the 1-voters consistently, or everyone noops.
        let sc = Scenario::nice(4, 1).vote_no(0).rule(DelayRule::link(
            1,
            0,
            Time::ZERO,
            Time::units(10),
            8 * U,
        ));
        let out = sc.run::<ANbac>();
        let report = check(&out, &sc.votes, ProtocolKind::ANbac.cell());
        report.assert_ok("delayed ack");
        assert!(out.decided_values().len() <= 1);
    }
}
