//! avNBAC — the two optimal protocols for the (AV, AV) cell.
//!
//! The paper reuses one name for two protocols ("Name avNBAC is abused as
//! the meaning is clear in the context", Table 3):
//!
//! * [`AvNbacDelayOpt`] (§4.1): all-to-all votes; a process decides at the
//!   end of the first delay iff it collected all `n` votes. 1 delay,
//!   `n(n−1)` messages — delay-optimal.
//! * [`AvNbacMsgOpt`] (Appendix E.5): votes converge on `Pn`, which
//!   broadcasts their AND. 2 delays, `2n−2` messages — message-optimal.
//!
//! Neither requires termination when a failure occurs; both preserve
//! agreement and validity in every execution, because any decision equals
//! the AND of all `n` votes.
//!
//! Both act on arrival and arm no timer. The paper's process acts at the
//! end of a delay iff the messages it waits for have arrived; in a nice
//! execution every one of them arrives by then, so acting on the last
//! arrival is the paper's decision at the same instant. Off the unit grid
//! a late message still triggers a decision, and that is safe: the (AV,
//! AV) cell promises no termination to take back, and whatever is decided
//! is still the AND of all `n` votes. [`AvNbacDelayOpt`] decides on its
//! `n`-th vote; [`AvNbacMsgOpt`]'s hub broadcasts `B` and decides on its
//! `n`-th vote, and every other process decides when `B` arrives.

use ac_sim::{Automaton, Ctx, ProcessId};

use super::PerRank;
use crate::problem::{decision_value, validate_params, CommitProtocol, Vote};

/// avNBAC's message alphabet.
#[derive(Clone, Debug)]
pub enum AvMsg {
    /// A vote.
    V(bool),
    /// A backup relay of a learnt vote conjunction.
    B(bool),
}

/// Delay-optimal avNBAC (§4.1): decide on the last of the `n` votes, one
/// message delay in a nice execution.
#[derive(Debug)]
pub struct AvNbacDelayOpt {
    votes: bool,
    got: PerRank<bool>,
}

impl CommitProtocol for AvNbacDelayOpt {
    const NAME: &'static str = "avNBAC(delay)";

    fn new(me: ProcessId, n: usize, f: usize, vote: Vote) -> Self {
        validate_params(n, f);
        let mut got = PerRank::from_elem(false, n);
        got[me] = true;
        AvNbacDelayOpt { votes: vote, got }
    }
}

impl Automaton for AvNbacDelayOpt {
    type Msg = AvMsg;

    fn on_start(&mut self, ctx: &mut Ctx<AvMsg>) {
        ctx.broadcast_others(AvMsg::V(self.votes));
    }

    fn on_message(&mut self, from: ProcessId, msg: AvMsg, ctx: &mut Ctx<AvMsg>) {
        if let AvMsg::V(v) = msg {
            self.votes &= v;
            self.got[from] = true;
            // Without every vote, never decide (no termination is
            // promised on failure).
            if self.got.iter().all(|&g| g) {
                ctx.decide(decision_value(self.votes));
            }
        }
    }

    fn on_timer(&mut self, _tag: u32, _ctx: &mut Ctx<AvMsg>) {}
}

/// Message-optimal avNBAC (Appendix E.5): star topology through `Pn`.
#[derive(Debug)]
pub struct AvNbacMsgOpt {
    me: ProcessId,
    n: usize,
    votes: bool,
    got: PerRank<bool>,
}

impl AvNbacMsgOpt {
    fn is_hub(&self) -> bool {
        self.me == self.n - 1
    }
}

impl CommitProtocol for AvNbacMsgOpt {
    const NAME: &'static str = "avNBAC(msg)";

    fn new(me: ProcessId, n: usize, f: usize, vote: Vote) -> Self {
        validate_params(n, f);
        let mut got = PerRank::from_elem(false, n);
        got[me] = true;
        AvNbacMsgOpt {
            me,
            n,
            votes: vote,
            got,
        }
    }
}

impl Automaton for AvNbacMsgOpt {
    type Msg = AvMsg;

    fn on_start(&mut self, ctx: &mut Ctx<AvMsg>) {
        if !self.is_hub() {
            ctx.send(self.n - 1, AvMsg::V(self.votes));
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: AvMsg, ctx: &mut Ctx<AvMsg>) {
        match msg {
            AvMsg::V(v) => {
                self.votes &= v;
                self.got[from] = true;
                if self.got.iter().all(|&g| g) {
                    ctx.broadcast_others(AvMsg::B(self.votes));
                    ctx.decide(decision_value(self.votes));
                }
            }
            AvMsg::B(v) => ctx.decide(decision_value(v)),
        }
    }

    fn on_timer(&mut self, _tag: u32, _ctx: &mut Ctx<AvMsg>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check;
    use crate::protocols::message_speed::Run;
    use crate::protocols::ProtocolKind;
    use crate::runner::{nice_complexity, Scenario};
    use ac_net::Crash;

    #[test]
    fn both_decide_at_message_speed_with_no_timer() {
        let n = 5;
        for votes in [vec![true; n], vec![true, true, false, true, true]] {
            let want = u64::from(votes.iter().all(|&v| v));
            let delay = Run::<AvNbacDelayOpt>::start(&votes, 1);
            assert!(delay.all_decided(want), "{votes:?}");
            assert_eq!(delay.wire, n * n - n);
            let msg = Run::<AvNbacMsgOpt>::start(&votes, 1);
            assert!(msg.all_decided(want), "{votes:?}");
            assert_eq!(msg.wire, 2 * n - 2);
        }
    }

    #[test]
    fn delay_opt_is_one_delay_n2_messages() {
        for n in 2..=7 {
            let (d, m) = nice_complexity::<AvNbacDelayOpt>(n, 1);
            assert_eq!((d, m), (1, (n * n - n) as u64), "n={n}");
        }
    }

    #[test]
    fn msg_opt_is_two_delays_2n2_messages() {
        for n in 2..=7 {
            let (d, m) = nice_complexity::<AvNbacMsgOpt>(n, 1);
            assert_eq!((d, m), (2, 2 * n as u64 - 2), "n={n}");
        }
    }

    #[test]
    fn both_abort_on_a_no_vote_without_failures() {
        let out = Scenario::nice(5, 2).vote_no(2).run::<AvNbacDelayOpt>();
        assert_eq!(out.decided_values(), vec![0]);
        let out = Scenario::nice(5, 2).vote_no(2).run::<AvNbacMsgOpt>();
        assert_eq!(out.decided_values(), vec![0]);
    }

    #[test]
    fn crash_blocks_but_never_contradicts() {
        for kind in [ProtocolKind::AvNbacDelayOpt, ProtocolKind::AvNbacMsgOpt] {
            let sc = Scenario::nice(4, 1).crash(0, Crash::initially());
            let out = kind.run(&sc);
            let report = check(&out, &sc.votes, kind.cell());
            report.assert_ok(kind.name());
            // With a missing vote nobody can decide in either variant.
            assert!(out.decisions.iter().all(|d| d.is_none()), "{}", kind.name());
        }
    }

    #[test]
    fn hub_crash_blocks_msg_opt_only() {
        // If Pn crashes at time 0, the delay-optimal variant still decides
        // nothing is wrong? No: its vote is missing everywhere -> nobody
        // decides. For the message-optimal variant the hub never
        // broadcasts -> nobody decides either.
        let sc = Scenario::nice(4, 1).crash(3, Crash::initially());
        let out = sc.run::<AvNbacMsgOpt>();
        assert!(out.decisions.iter().all(|d| d.is_none()));
    }

    #[test]
    fn partial_hub_broadcast_keeps_agreement() {
        use ac_sim::Time;
        // The hub decides and reaches only one process with [B,·]: both
        // deciders agree; the rest never decide (allowed: no T).
        let sc = Scenario::nice(5, 1).crash(4, Crash::partial(Time::units(1), 1));
        let out = sc.run::<AvNbacMsgOpt>();
        let vals = out.decided_values();
        assert!(vals.len() <= 1, "{vals:?}");
    }
}
