//! 0NBAC — the protocol exchanging **zero** messages in nice executions
//! (§4.2, Appendix E.1), cell (AT, AT): agreement and termination in every
//! execution (crash or network failure), NBAC in failure-free ones.
//!
//! Votes are *implicit*: a process voting 1 sends nothing; a process voting
//! 0 broadcasts `[V,0]`. After one delay the processes split into three
//! categories: (1) 0-voters, (2) 1-voters that received `[V,0]`, (3)
//! 1-voters that received nothing — category (3) decides 1 immediately.
//! Categories (1) and (2) solicit acknowledgements (`[V,0]`/`[B,0]` are
//! acked by everyone that has not already decided 1) and propose to uniform
//! consensus: 0 if *all* `n` acks arrived (nobody decided fast), 1
//! otherwise.
//!
//! 0NBAC achieves both optima of its cell simultaneously — 1 delay and 0
//! messages — so no delay/message trade-off exists there.

use ac_consensus::{CtxHost, Paxos, PaxosMsg, CONS_TAG_BASE};
use ac_sim::{Automaton, Ctx, ProcessId, Time};

use crate::problem::{validate_params, CommitProtocol, Vote};
use crate::protocols::PerRank;

const TAG1: u32 = 1;
const TAG2: u32 = 2;

/// 0NBAC's message alphabet.
#[derive(Clone, Debug)]
pub enum Nbac0Msg {
    /// An explicit abort vote.
    V0,
    /// Abort backup by a 1-voter that learnt of a 0.
    B0,
    /// Acknowledgement of a vote broadcast.
    Ack,
    /// Consensus sub-protocol traffic.
    Cons(PaxosMsg),
}

/// One process of 0NBAC.
#[derive(Debug)]
pub struct Nbac0 {
    myvote: bool,
    myack: PerRank<bool>,
    decided: bool,
    zero: bool,
    phase: u8,
    proposed: bool,
    cons: Paxos,
}

impl CommitProtocol for Nbac0 {
    const NAME: &'static str = "0NBAC";

    fn new(me: ProcessId, n: usize, f: usize, vote: Vote) -> Self {
        validate_params(n, f);
        Nbac0 {
            myvote: vote,
            myack: PerRank::from_elem(false, n),
            decided: false,
            zero: false,
            phase: 0,
            proposed: false,
            cons: Paxos::with_tag_base(me, n, CONS_TAG_BASE),
        }
    }
}

impl Nbac0 {
    fn cons_decided(&mut self, d: Option<u64>, ctx: &mut Ctx<Nbac0Msg>) {
        if let Some(v) = d {
            if !self.decided {
                self.decided = true;
                ctx.decide(v);
            }
        }
    }
}

impl Automaton for Nbac0 {
    type Msg = Nbac0Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Nbac0Msg>) {
        if !self.myvote {
            ctx.broadcast(Nbac0Msg::V0);
        }
        ctx.set_timer(Time::units(1), TAG1);
        self.phase = 1;
    }

    fn on_message(&mut self, from: ProcessId, msg: Nbac0Msg, ctx: &mut Ctx<Nbac0Msg>) {
        match msg {
            Nbac0Msg::V0 => {
                if self.phase == 1 {
                    self.zero = true;
                    ctx.send(from, Nbac0Msg::Ack);
                }
            }
            Nbac0Msg::B0 => {
                if self.phase == 2 && !(self.myvote && self.decided) {
                    ctx.send(from, Nbac0Msg::Ack);
                }
            }
            Nbac0Msg::Ack => {
                self.myack[from] = true;
            }
            Nbac0Msg::Cons(m) => {
                let mut host = CtxHost {
                    ctx,
                    wrap: Nbac0Msg::Cons,
                };
                let dec = self.cons.on_message(from, m, &mut host);
                self.cons_decided(dec, ctx);
            }
        }
    }

    fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<Nbac0Msg>) {
        if self.cons.owns_tag(tag) {
            let mut host = CtxHost {
                ctx,
                wrap: Nbac0Msg::Cons,
            };
            let dec = self.cons.on_timer(tag, &mut host);
            self.cons_decided(dec, ctx);
            return;
        }
        match tag {
            TAG1 => {
                debug_assert_eq!(self.phase, 1);
                self.phase = 2;
                if !self.zero && self.myvote {
                    // Category (3): silence means everybody voted 1.
                    self.decided = true;
                    ctx.decide(1);
                } else if self.zero && self.myvote {
                    // Category (2): back the abort, then poll acks.
                    ctx.broadcast(Nbac0Msg::B0);
                    ctx.set_timer(Time::units(3), TAG2);
                } else {
                    // Category (1): poll acks for our own [V,0].
                    ctx.set_timer(Time::units(2), TAG2);
                }
            }
            TAG2 => {
                debug_assert_eq!(self.phase, 2);
                if !self.decided && !self.proposed {
                    self.proposed = true;
                    // Anyone silent may have decided 1 at time U; in that
                    // case agreement forces us toward 1.
                    let v = if self.myack.iter().all(|&a| a) { 0 } else { 1 };
                    let mut host = CtxHost {
                        ctx,
                        wrap: Nbac0Msg::Cons,
                    };
                    self.cons.propose(v, &mut host);
                }
            }
            other => unreachable!("unknown 0NBAC timer tag {other}"),
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
    use ac_sim::U;

    #[test]
    fn nice_execution_is_zero_messages_one_delay() {
        for n in 2..=8 {
            for f in [1, n - 1] {
                let (d, m) = nice_complexity::<Nbac0>(n, f);
                assert_eq!((d, m), (1, 0), "n={n} f={f}");
            }
        }
    }

    #[test]
    fn failure_free_abort_solves_nbac() {
        let sc = Scenario::nice(4, 1).vote_no(1);
        let out = sc.run::<Nbac0>();
        check(&out, &sc.votes, ProtocolKind::Nbac0.cell()).assert_ok("one no-vote");
        assert_eq!(out.decided_values(), vec![0]);
        assert!(out.decisions.iter().all(|d| d.is_some()));
    }

    #[test]
    fn all_vote_no_aborts() {
        let sc = Scenario::nice(3, 1).votes(&[false, false, false]);
        let out = sc.run::<Nbac0>();
        check(&out, &sc.votes, ProtocolKind::Nbac0.cell()).assert_ok("all no");
        assert_eq!(out.decided_values(), vec![0]);
    }

    #[test]
    fn zero_voter_crash_keeps_agreement_and_termination() {
        // A 0-voter crashes mid-broadcast: some processes saw [V,0], some
        // did not and decide 1 fast. Agreement forces the 0-receivers to 1
        // via the missing-ack rule. Validity is (correctly) not promised.
        let n = 4;
        for reached in 0..n {
            let sc = Scenario::nice(n, 1)
                .vote_no(1)
                .crash(1, Crash::partial(Time::ZERO, reached));
            let out = sc.run::<Nbac0>();
            check(&out, &sc.votes, ProtocolKind::Nbac0.cell())
                .assert_ok(&format!("reached={reached}"));
        }
    }

    #[test]
    fn delayed_v0_is_survived() {
        // [V,0] from P2 reaches P4 late (network failure): P4 decides 1
        // fast; the others must follow via agreement.
        let sc = Scenario::nice(4, 1).vote_no(1).rule(DelayRule::link(
            1,
            3,
            Time::ZERO,
            Time::units(1),
            3 * U,
        ));
        let out = sc.run::<Nbac0>();
        check(&out, &sc.votes, ProtocolKind::Nbac0.cell()).assert_ok("delayed V0");
        assert_eq!(
            out.decided_values(),
            vec![1],
            "fast decider drags everyone to 1"
        );
    }

    #[test]
    fn crash_of_one_voter_in_all_yes_run_changes_nothing() {
        let sc = Scenario::nice(5, 2).crash(2, Crash::at(Time::units(0)));
        let out = sc.run::<Nbac0>();
        check(&out, &sc.votes, ProtocolKind::Nbac0.cell()).assert_ok("silent crash");
        // Silence is a yes: everyone else still decides 1 at U.
        assert_eq!(out.decided_values(), vec![1]);
        let m = out.metrics();
        assert_eq!(m.messages_total, 0);
    }
}
