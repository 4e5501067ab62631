//! D1CC — logless decentralized one-phase commit (cell (AVT, VT)).
//!
//! The protocol transplants the "to vote before decide" idea
//! (Cornus/EasyCommit lineage, see PAPERS.md) into the paper's model:
//! every participant **replicates its vote to all peers before the
//! decision point**, each process decides locally from the assembled vote
//! vector, and the decision is reconstructed from surviving replicated
//! votes rather than from a coordinator log. There is no consensus module
//! and no coordinator: the vote broadcast *is* the commit protocol.
//!
//! * On propose, every process broadcasts `[V, vote]` and arms a single
//!   timeout at time `f + 1`.
//! * A process that assembles all `n` votes broadcasts `[D, AND(votes)]`
//!   and decides that value — one message delay in the nice execution,
//!   with the `[D]` round still in flight (same accounting as 1NBAC).
//! * A process that receives a `[D, d]` first **relays it to everyone and
//!   then decides** `d`. The relay is the classic reliable-broadcast step:
//!   a crashing decider can truncate its own `[D]` broadcast, but each
//!   truncation consumes one of the `f` tolerated crashes and delays the
//!   value by one unit, so with at most `f` crashes some correct process
//!   relays the decision to everyone by time `f + 1`.
//! * A process that reaches the timeout with neither a full vote vector
//!   nor a `[D, d]` decides Abort — some vote was never replicated to it,
//!   so (in a crash-failure execution) that vote died with its sender and
//!   no process can have committed.
//!
//! This yields the full NBAC triple in every crash-failure execution with
//! at most `f` crashes and validity + termination in every network-failure
//! execution — cell (AVT, VT), the same as 1NBAC — but, unlike 1NBAC,
//! termination never leans on a correct majority: the timeout alone
//! terminates, whatever `f` is. The price is indulgence: a delayed `[D]`
//! can land after the timeout, so agreement is forfeited under network
//! failures (see `crate::explorer` — checking D1CC against the indulgent
//! cell produces counterexamples).
//!
//! Nice-execution complexity: 1 delay, `n²−n` messages.

use ac_sim::{Automaton, Ctx, ProcessId, Time};

use crate::problem::{decision_value, validate_params, CommitProtocol, Vote};
use crate::protocols::PerRank;

const TIMEOUT: u32 = 1;

/// D1CC's message alphabet.
#[derive(Clone, Debug)]
pub enum D1ccMsg {
    /// A replicated vote.
    V(bool),
    /// A decision, broadcast by the first full collector and relayed by
    /// every adopter before it decides.
    D(bool),
}

/// One process of D1CC.
#[derive(Debug)]
pub struct D1cc {
    f: usize,
    decided: bool,
    decision: bool,
    got: PerRank<bool>,
}

impl CommitProtocol for D1cc {
    const NAME: &'static str = "D1CC";

    fn new(_me: ProcessId, n: usize, f: usize, vote: Vote) -> Self {
        validate_params(n, f);
        D1cc {
            f,
            decided: false,
            decision: vote,
            got: PerRank::from_elem(false, n),
        }
    }
}

impl D1cc {
    /// Adopt `d`: relay it to everyone, then decide. Relay-before-decide
    /// is what makes agreement survive partial-broadcast crashes of
    /// earlier deciders.
    fn adopt(&mut self, d: bool, ctx: &mut Ctx<D1ccMsg>) {
        debug_assert!(!self.decided);
        self.decided = true;
        self.decision = d;
        ctx.broadcast_others(D1ccMsg::D(d));
        ctx.decide(decision_value(d));
    }
}

impl Automaton for D1cc {
    type Msg = D1ccMsg;

    fn on_start(&mut self, ctx: &mut Ctx<D1ccMsg>) {
        ctx.broadcast(D1ccMsg::V(self.decision));
        ctx.set_timer(Time::units(self.f as u64 + 1), TIMEOUT);
    }

    fn on_message(&mut self, from: ProcessId, msg: D1ccMsg, ctx: &mut Ctx<D1ccMsg>) {
        match msg {
            D1ccMsg::V(v) => {
                if self.decided {
                    // A vote arriving after the decision is a straggler
                    // (delayed link, or a confused recovering peer):
                    // answer with the decision so its sender can
                    // reconstruct the outcome (the logless substitute
                    // for reading a coordinator log).
                    if from != ctx.me() {
                        ctx.send(from, D1ccMsg::D(self.decision));
                    }
                    return;
                }
                if self.got[from] {
                    // First vote binds. A sender whose vote is already in
                    // the vector must not mutate it: folding a duplicate
                    // — in the live service, a crash-restarted peer
                    // re-voting differently after losing its volatile
                    // vote — into a partially assembled vector would let
                    // this process decide Abort from a `no` while a peer
                    // holding the original all-yes vector decides Commit.
                    return;
                }
                self.got[from] = true;
                self.decision &= v;
                if self.got.iter().all(|&g| g) {
                    let d = self.decision;
                    self.adopt(d, ctx);
                }
            }
            D1ccMsg::D(d) => {
                if !self.decided {
                    self.adopt(d, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<D1ccMsg>) {
        debug_assert_eq!(tag, TIMEOUT);
        if !self.decided {
            // Some vote was never replicated to us: its sender is crashed
            // (or the network is misbehaving) and nobody can prove Commit.
            self.decided = true;
            self.decision = false;
            ctx.decide(decision_value(false));
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
    fn one_delay_n_squared_messages() {
        for n in 2..=8 {
            let (d, m) = nice_complexity::<D1cc>(n, 1);
            assert_eq!((d, m), (1, (n * n - n) as u64), "n={n}");
        }
    }

    #[test]
    fn no_vote_aborts_in_one_delay() {
        let sc = Scenario::nice(4, 1).vote_no(2);
        let out = sc.run::<D1cc>();
        assert_eq!(out.decided_values(), vec![0]);
        assert_eq!(out.metrics().delays, Some(1));
    }

    #[test]
    fn single_crash_matrix_solves_nbac() {
        let n = 4;
        for victim in 0..n {
            for t in 0..3u64 {
                for partial in [None, Some(1), Some(2)] {
                    let crash = match partial {
                        None => Crash::at(Time::units(t)),
                        Some(k) => Crash::partial(Time::units(t), k),
                    };
                    let sc = Scenario::nice(n, 1).crash(victim, crash);
                    let out = sc.run::<D1cc>();
                    check(&out, &sc.votes, ProtocolKind::D1cc.cell())
                        .assert_ok(&format!("victim {victim} t={t} partial={partial:?}"));
                }
            }
        }
    }

    #[test]
    fn commit_proceeds_through_a_crash_without_blocking() {
        // P4's vote reaches only P1 (partial broadcast, then crash). P1 is
        // the sole full collector: it commits at 1 delay and its [D]
        // broadcast rescues P2 and P3 one delay later — no blocking window,
        // no consensus round, no coordinator log.
        let sc = Scenario::nice(4, 1).crash(3, Crash::partial(Time::ZERO, 1));
        let out = sc.run::<D1cc>();
        assert_eq!(out.decided_values(), vec![1]);
        assert_eq!(out.decisions[0].unwrap().0, Time::units(1));
        assert_eq!(out.decisions[1].unwrap().0, Time::units(2));
        assert_eq!(out.decisions[2].unwrap().0, Time::units(2));
    }

    #[test]
    fn relay_chain_survives_two_partial_crashes() {
        // The adversarial chain the relay exists for (f = 2): P4's vote
        // reaches only P1; P1 (the sole collector) truncates its [D]
        // broadcast to one peer and crashes. P2 relays before deciding, so
        // P3 still learns Commit by the f+1 timeout instead of aborting
        // against P2's commit.
        let sc = Scenario::nice(4, 2)
            .crash(3, Crash::partial(Time::ZERO, 1))
            .crash(0, Crash::partial(Time::units(1), 1));
        let out = sc.run::<D1cc>();
        assert_eq!(out.decided_values(), vec![1], "survivors must agree");
        assert_eq!(out.decisions[1].unwrap().0, Time::units(2));
        assert_eq!(out.decisions[2].unwrap().0, Time::units(3));
        check(&out, &sc.votes, ProtocolKind::D1cc.cell()).assert_ok("relay chain");
    }

    #[test]
    fn unreplicated_vote_aborts_at_the_timeout() {
        // P1 crashes before sending anything: its vote is unrecoverable,
        // so every survivor times out to Abort at f+1 — uniformly.
        let sc = Scenario::nice(4, 1).crash(0, Crash::at(Time::ZERO));
        let out = sc.run::<D1cc>();
        assert_eq!(out.decided_values(), vec![0]);
        for p in 1..4 {
            assert_eq!(out.decisions[p].unwrap().0, Time::units(2));
        }
    }

    #[test]
    fn duplicate_vote_from_one_sender_cannot_flip_an_assembled_vector() {
        // P1 of 3 holds yes-votes from itself and P2 when a
        // crash-restarted P2 re-votes no (its volatile yes died with it).
        // First vote binds: the duplicate is ignored, so when P3's yes
        // lands the vector is still all-yes and P1 commits — the same
        // decision a peer reached from the original votes. Folding the
        // re-vote in would decide Abort here against that peer's Commit.
        let mut p = D1cc::new(0, 3, 1, true);
        let mut ctx = Ctx::new(Time::ZERO, 0, 3, false);
        p.on_start(&mut ctx);
        p.on_message(0, D1ccMsg::V(true), &mut ctx);
        p.on_message(1, D1ccMsg::V(true), &mut ctx);
        p.on_message(1, D1ccMsg::V(false), &mut ctx); // contradictory re-vote
        assert!(!p.decided, "two distinct senders so far, not three");
        p.on_message(2, D1ccMsg::V(true), &mut ctx);
        assert!(p.decided);
        assert!(p.decision, "the re-vote must not poison the vector");
    }

    #[test]
    fn late_vote_is_answered_with_the_decision() {
        // P4's vote to P1 is delayed past the decision: P1 adopts the [D]
        // broadcast of the on-time collectors, and when the stale vote
        // finally lands it answers P4 with the decision — the reply a
        // recovering process depends on in the live service.
        let sc =
            Scenario::nice(4, 1).rule(DelayRule::link(3, 0, Time::ZERO, Time::units(1), 3 * U));
        let out = sc.run::<D1cc>();
        assert_eq!(out.decided_values(), vec![1]);
        assert!(
            out.records
                .iter()
                .any(|r| r.from == 0 && r.to == 3 && r.sent == Time::units(3)),
            "P1 must answer the late vote with a [D] reply"
        );
        assert!(out.quiescent);
    }

    #[test]
    fn network_failure_keeps_validity_and_termination() {
        // Delay everything P1 sends: deciders can split (agreement is not
        // promised under network failure) but V and T must hold.
        let sc = Scenario::nice(4, 1).rule(DelayRule::from_process(0, 3 * U));
        let out = sc.run::<D1cc>();
        check(&out, &sc.votes, ProtocolKind::D1cc.cell()).assert_ok("delayed sender");
        assert!(out.decisions.iter().all(|d| d.is_some()));
    }
}
