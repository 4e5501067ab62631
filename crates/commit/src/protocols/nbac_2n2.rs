//! (2n−2)NBAC — the message-optimal protocol for cell (AVT, VT)
//! (Appendix E.4): NBAC in every crash-failure execution, validity and
//! termination in every network-failure execution, `2n−2` messages in nice
//! executions.
//!
//! Every process sends its vote to `Pn`; `Pn` broadcasts the AND; everyone
//! noops for `f+1` delays and decides. While nooping, a process that got no
//! `[B,·]` from `Pn` (or saw a 0) broadcasts `[B,0]`; nooping for `f+1`
//! delays guarantees some correct process succeeds in notifying every
//! correct process despite up to `f` crashes.

use ac_sim::{Automaton, Ctx, ProcessId};

use super::{etime, PerRank};
use crate::problem::{decision_value, validate_params, CommitProtocol, Vote};

const TAG: u32 = 1;

/// (2n−2)NBAC's message alphabet.
#[derive(Clone, Debug)]
pub enum B2n2Msg {
    /// A vote sent to the hub P1.
    V(bool),
    /// The hub's broadcast of the conjunction.
    B(bool),
}

/// One process of (2n−2)NBAC.
#[derive(Debug)]
pub struct Nbac2n2 {
    me: ProcessId,
    n: usize,
    f: usize,
    votes: bool,
    received_b: bool,
    phase: u8,
    got: PerRank<bool>,
    /// Broadcast `[B,0]` at most once (see `ChainNbac` for the rationale of
    /// bounding the pseudocode's unconditional re-broadcast).
    sent_b0: bool,
}

impl Nbac2n2 {
    fn is_hub(&self) -> bool {
        self.me == self.n - 1
    }

    fn broadcast_zero(&mut self, ctx: &mut Ctx<B2n2Msg>) {
        if !self.sent_b0 {
            self.sent_b0 = true;
            ctx.broadcast_others(B2n2Msg::B(false));
        }
    }
}

impl CommitProtocol for Nbac2n2 {
    const NAME: &'static str = "(2n-2)NBAC";

    fn new(me: ProcessId, n: usize, f: usize, vote: Vote) -> Self {
        validate_params(n, f);
        let mut got = PerRank::from_elem(false, n);
        got[me] = true;
        Nbac2n2 {
            me,
            n,
            f,
            votes: vote,
            received_b: false,
            phase: 0,
            got,
            sent_b0: false,
        }
    }
}

impl Automaton for Nbac2n2 {
    type Msg = B2n2Msg;

    fn on_start(&mut self, ctx: &mut Ctx<B2n2Msg>) {
        if self.is_hub() {
            ctx.set_timer(etime(2), TAG);
        } else {
            ctx.send(self.n - 1, B2n2Msg::V(self.votes));
            ctx.set_timer(etime(3), TAG);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: B2n2Msg, ctx: &mut Ctx<B2n2Msg>) {
        match msg {
            B2n2Msg::V(v) => {
                self.votes &= v;
                self.got[from] = true;
            }
            B2n2Msg::B(v) => {
                self.received_b = true;
                self.votes = v;
                if !v {
                    self.broadcast_zero(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, _tag: u32, ctx: &mut Ctx<B2n2Msg>) {
        let f = self.f as u64;
        match self.phase {
            0 => {
                if self.is_hub() {
                    if self.votes && self.got.iter().all(|&g| g) {
                        ctx.broadcast(B2n2Msg::B(true));
                    } else {
                        self.votes = false;
                        self.sent_b0 = true;
                        ctx.broadcast(B2n2Msg::B(false));
                    }
                } else if !self.received_b {
                    self.votes = false;
                    self.broadcast_zero(ctx);
                }
                ctx.set_timer(etime(3 + f), TAG);
                self.phase = 1;
            }
            1 => ctx.decide(decision_value(self.votes)),
            other => unreachable!("(2n-2)NBAC timer in phase {other}"),
        }
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
    fn nice_execution_uses_2n_minus_2_messages() {
        for n in 2..=8 {
            for f in 1..n {
                let (d, m) = nice_complexity::<Nbac2n2>(n, f);
                assert_eq!(m, 2 * n as u64 - 2, "n={n} f={f}");
                assert_eq!(d, f as u64 + 2, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn no_vote_aborts_everyone() {
        for dissenter in 0..4 {
            let sc = Scenario::nice(4, 2).vote_no(dissenter);
            let out = sc.run::<Nbac2n2>();
            check(&out, &sc.votes, ProtocolKind::Nbac2n2.cell()).assert_ok("no vote");
            assert_eq!(out.decided_values(), vec![0]);
        }
    }

    #[test]
    fn hub_crash_mid_broadcast_is_repaired() {
        // The agreement proof's adversarial scenario: Pn crashes while
        // sending [B,1]; receivers that got nothing broadcast [B,0]; f+1
        // nooping delays let the 0 flood win everywhere.
        let n = 5;
        for reached in 0..n {
            for f in 1..n {
                let sc = Scenario::nice(n, f).crash(n - 1, Crash::partial(Time::units(1), reached));
                let out = sc.run::<Nbac2n2>();
                check(&out, &sc.votes, ProtocolKind::Nbac2n2.cell())
                    .assert_ok(&format!("reached={reached} f={f}"));
                let vals = out.decided_values();
                assert_eq!(vals.len(), 1, "reached={reached} f={f}: {vals:?}");
            }
        }
    }

    #[test]
    fn participant_crash_before_vote_aborts() {
        let sc = Scenario::nice(4, 1).crash(0, Crash::initially());
        let out = sc.run::<Nbac2n2>();
        check(&out, &sc.votes, ProtocolKind::Nbac2n2.cell()).assert_ok("silent P1");
        assert_eq!(out.decided_values(), vec![0]);
    }

    #[test]
    fn termination_and_validity_survive_network_failure() {
        // Delay the hub's broadcast: everyone still decides at the nooping
        // deadline (T), and nobody commits without evidence (V). Agreement
        // may break — cell (AVT, VT) does not promise it here.
        let sc = Scenario::nice(4, 1).rule(DelayRule::from_process(3, 4 * U));
        let out = sc.run::<Nbac2n2>();
        let report = check(&out, &sc.votes, ProtocolKind::Nbac2n2.cell());
        report.assert_ok("delayed hub");
        assert!(out.decisions.iter().all(|d| d.is_some()));
    }
}
