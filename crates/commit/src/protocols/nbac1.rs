//! 1NBAC — the delay-optimal protocol for cell (AVT, VT) (§4.1, Appendix D):
//! NBAC in every crash-failure execution, validity and termination in every
//! network-failure execution, and decision after **one** message delay in
//! every failure-free execution.
//!
//! Every process sends its vote to every process; at the end of the first
//! delay a process that collected all `n` votes sends their AND (`[D, d]`)
//! to everyone and decides. A process that did not collect all votes waits
//! one more delay for a `[D, d]` message, then proposes `d` (or 0 if none
//! arrived) to uniform consensus and adopts its decision.
//!
//! Nice-execution complexity: 1 delay, `n²−n` messages (the `[D]` round is
//! still in flight when everyone has decided — see the paper's message
//! accounting and `ac_net::Metrics`).
//!
//! ## What the timers mean
//!
//! The first round is a *complete-able* collection — all `n` votes — so
//! its action, `Nbac1::close_votes`, has two triggers: `on_message` calls
//! it the moment the `n`-th vote is in, and the `1·U` timer (`TAG1`) calls
//! it only if the round is still open, which then means some vote is late
//! or lost. The timer is the failure detector, not the trigger: a nice
//! execution decides after one message hand-off, however long `U` is,
//! while on the simulator's unit grid the last vote and the timer coincide
//! at `U` and nothing changes. `TAG2` stays clock-driven: it is armed only
//! by a process whose vote round *timed out*, so it is never on a
//! failure-free path, and what it waits for is **silence** — "no `[D, d]`
//! by `2·U`" is what licenses proposing 0 — so only the clock can end it.
//! The consensus module's timers are its own.

use ac_consensus::{CtxHost, Paxos, PaxosMsg, CONS_TAG_BASE};
use ac_sim::{Automaton, Ctx, ProcessId, Time};

use crate::problem::{decision_value, validate_params, CommitProtocol, Vote};
use crate::protocols::PerRank;

const TAG1: u32 = 1;
const TAG2: u32 = 2;

/// 1NBAC's message alphabet.
#[derive(Clone, Debug)]
pub enum Nbac1Msg {
    /// A vote.
    V(bool),
    /// A relayed decision proposal.
    D(bool),
    /// Consensus sub-protocol traffic.
    Cons(PaxosMsg),
}

/// One process of 1NBAC.
#[derive(Debug)]
pub struct Nbac1 {
    phase: u8,
    decided: bool,
    decision: bool,
    collection0: PerRank<bool>,
    collection1_any: bool,
    cons: Paxos,
}

impl CommitProtocol for Nbac1 {
    const NAME: &'static str = "1NBAC";

    fn new(me: ProcessId, n: usize, f: usize, vote: Vote) -> Self {
        validate_params(n, f);
        Nbac1 {
            phase: 0,
            decided: false,
            decision: vote,
            collection0: PerRank::from_elem(false, n),
            collection1_any: false,
            cons: Paxos::with_tag_base(me, n, CONS_TAG_BASE),
        }
    }
}

impl Nbac1 {
    /// Close the vote round. Called by `on_message` as soon as all `n`
    /// votes are in, and by `TAG1` if the round is still open: a full
    /// collection relays its AND and decides, a short one waits one more
    /// delay for somebody else's `[D, d]`.
    fn close_votes(&mut self, ctx: &mut Ctx<Nbac1Msg>) {
        debug_assert_eq!(self.phase, 0);
        self.phase = 1;
        if self.collection0.iter().all(|&g| g) {
            ctx.broadcast(Nbac1Msg::D(self.decision));
            if !self.decided {
                self.decided = true;
                ctx.decide(decision_value(self.decision));
            }
        } else {
            ctx.set_timer(Time::units(2), TAG2);
        }
    }

    fn cons_decided(&mut self, d: Option<u64>, ctx: &mut Ctx<Nbac1Msg>) {
        if let Some(v) = d {
            if !self.decided {
                self.decided = true;
                ctx.decide(v);
            }
        }
    }
}

impl Automaton for Nbac1 {
    type Msg = Nbac1Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Nbac1Msg>) {
        ctx.broadcast(Nbac1Msg::V(self.decision));
        ctx.set_timer(Time::units(1), TAG1);
    }

    fn on_message(&mut self, from: ProcessId, msg: Nbac1Msg, ctx: &mut Ctx<Nbac1Msg>) {
        match msg {
            Nbac1Msg::V(v) => {
                // First vote binds, and only an open round listens: a
                // straggler must neither change the AND nor trigger a
                // second `[D]` broadcast.
                if self.phase != 0 || self.collection0[from] {
                    return;
                }
                self.collection0[from] = true;
                self.decision &= v;
                if self.collection0.iter().all(|&g| g) {
                    self.close_votes(ctx);
                }
            }
            Nbac1Msg::D(d) => {
                self.collection1_any = true;
                self.decision = d;
            }
            Nbac1Msg::Cons(m) => {
                let mut host = CtxHost {
                    ctx,
                    wrap: Nbac1Msg::Cons,
                };
                let dec = self.cons.on_message(from, m, &mut host);
                self.cons_decided(dec, ctx);
            }
        }
    }

    fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<Nbac1Msg>) {
        if self.cons.owns_tag(tag) {
            let mut host = CtxHost {
                ctx,
                wrap: Nbac1Msg::Cons,
            };
            let dec = self.cons.on_timer(tag, &mut host);
            self.cons_decided(dec, ctx);
            return;
        }
        match tag {
            TAG1 => {
                if self.phase == 0 {
                    self.close_votes(ctx);
                }
            }
            TAG2 => {
                debug_assert_eq!(self.phase, 1);
                if !self.decided {
                    if !self.collection1_any {
                        self.decision = false;
                    }
                    let v = decision_value(self.decision);
                    let mut host = CtxHost {
                        ctx,
                        wrap: Nbac1Msg::Cons,
                    };
                    self.cons.propose(v, &mut host);
                }
            }
            other => unreachable!("unknown 1NBAC timer tag {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check;
    use crate::protocols::message_speed::Run;
    use crate::protocols::ProtocolKind;
    use crate::runner::{nice_complexity, Scenario};
    use ac_net::{Crash, DelayRule};
    use ac_sim::U;

    #[test]
    fn one_delay_n_squared_messages() {
        for n in 2..=8 {
            let (d, m) = nice_complexity::<Nbac1>(n, 1);
            assert_eq!((d, m), (1, (n * n - n) as u64), "n={n}");
        }
    }

    #[test]
    fn decides_at_message_speed_and_ignores_stragglers() {
        let n = 4;
        let mut run = Run::<Nbac1>::start(&vec![true; n], 1);
        // No timer has fired: one hand-off decided everyone; the `[D]`
        // round (the second `n²−n`) is the relay Table 5 does not count.
        assert!(run.all_decided(1));
        assert_eq!(run.wire, 2 * (n * n - n));
        // A duplicate and a contradicting vote, then the stale timers.
        run.inject(0, 1, Nbac1Msg::V(true));
        run.inject(2, 1, Nbac1Msg::V(false));
        run.fire_timers();
        assert_eq!(run.wire, 2 * (n * n - n), "no second [D] broadcast");
    }

    #[test]
    fn no_vote_aborts_in_one_delay() {
        let sc = Scenario::nice(4, 1).vote_no(2);
        let out = sc.run::<Nbac1>();
        assert_eq!(out.decided_values(), vec![0]);
        let m = out.metrics();
        assert_eq!(m.delays, Some(1));
    }

    #[test]
    fn crash_failure_executions_solve_nbac() {
        // One crash (minority of n=4): consensus can terminate, so the full
        // NBAC triple must hold in every crash-failure execution.
        let n = 4;
        for victim in 0..n {
            for t in 0..3u64 {
                for partial in [None, Some(1)] {
                    let crash = match partial {
                        None => Crash::at(Time::units(t)),
                        Some(k) => Crash::partial(Time::units(t), k),
                    };
                    let sc = Scenario::nice(n, 1).crash(victim, crash);
                    let out = sc.run::<Nbac1>();
                    check(&out, &sc.votes, ProtocolKind::Nbac1.cell())
                        .assert_ok(&format!("victim {victim} t={t} partial={partial:?}"));
                    assert!(out.quiescent || out.decisions.iter().all(|d| d.is_some()));
                }
            }
        }
    }

    #[test]
    fn network_failure_keeps_validity_and_termination() {
        // Delay every vote from P1 beyond U: deciders must abort (votes
        // missing) or all commit; agreement is NOT promised here, but V and
        // T are.
        let sc = Scenario::nice(4, 1).rule(DelayRule::from_process(0, 3 * U));
        let out = sc.run::<Nbac1>();
        let report = check(&out, &sc.votes, ProtocolKind::Nbac1.cell());
        report.assert_ok("delayed votes");
        assert!(out.decisions.iter().all(|d| d.is_some()));
    }

    #[test]
    fn decision_broadcast_rescues_slow_collectors() {
        // P1's vote reaches everyone but P4 in time; P4 waits for a [D,d]
        // and decides from it without consensus.
        let sc =
            Scenario::nice(4, 1).rule(DelayRule::link(0, 3, Time::ZERO, Time::units(1), 2 * U));
        let out = sc.run::<Nbac1>();
        // All must decide 1: three processes decide at 1 delay; P4 receives
        // the [D,1] broadcast, proposes 1 to consensus and adopts its
        // decision (several delays later, once a proposer-owned ballot
        // comes around).
        assert_eq!(out.decided_values(), vec![1]);
        let (t4, _) = out.decisions[3].unwrap();
        assert!(t4 > Time::units(2), "P4 decides via consensus, after 2U");
        for p in 0..3 {
            assert_eq!(out.decisions[p].unwrap().0, Time::units(1));
        }
    }
}
