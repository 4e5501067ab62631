//! Two-phase commit (Gray 1978), in the paper's spontaneous-start form
//! (§6.2, Table 5): participants send their votes unsolicited, the
//! coordinator `Pn` broadcasts the outcome.
//!
//! Guarantees (AV, AV): agreement and validity in *every* execution — the
//! decision has a single source — but a coordinator crash blocks every
//! participant forever ("a single point of failure", §6.2). Nice-execution
//! complexity: 2 delays, `2n−2` messages.
//!
//! ## What the collect timer means
//!
//! The coordinator's vote round is a *complete-able* collection: once all
//! `n` votes are in — or one `No` is, which fixes the outcome whatever the
//! rest say — there is nothing left to wait for. `TwoPc::close_round`
//! is the round's single action and has two triggers: `on_message` calls
//! it the moment the outcome is fixed, and the `1·U` timer calls it only
//! if the round is still open. The timer is therefore the **failure
//! detector** — it bounds the wait for a vote that never comes, and a
//! late vote still aborts at exactly `1·U` — not the trigger: a nice
//! execution commits in two message hand-offs, however long `U` is. On
//! the simulator's unit grid the last vote and the timer coincide at `U`
//! (deliveries precede timers), so every unit-grid execution is unchanged.
//! The coordinator's *own* `No` is acted on at the first incoming vote
//! rather than at time 0, which keeps failure-free aborts at Table 5's
//! two delays.
//!
//! The automaton is 48 bytes and owns no heap for a group of up to four:
//! `got` is a [`PerRank`] small vector, so opening an instance — once per
//! transaction and per participant in the live service — allocates
//! nothing.

use ac_sim::{Automaton, Ctx, ProcessId, Time};

use crate::problem::{decision_value, validate_params, CommitProtocol, Vote};
use crate::protocols::PerRank;

/// 2PC's message alphabet.
#[derive(Clone, Debug)]
pub enum TwoPcMsg {
    /// A participant's vote.
    V(bool),
    /// The coordinator's outcome.
    D(bool),
}

const TAG_COLLECT: u32 = 1;

/// One process of 2PC. The coordinator is `Pn` (id `n−1`).
#[derive(Debug)]
pub struct TwoPc {
    me: ProcessId,
    n: usize,
    vote: Vote,
    /// Coordinator: AND of votes seen so far.
    votes_all: bool,
    /// Coordinator: processes whose vote arrived (self included).
    got: PerRank<bool>,
    /// Decided. For the coordinator this is also "the vote round is closed
    /// (outcome broadcast)": votes arriving afterwards are stragglers.
    decided: bool,
}

impl TwoPc {
    fn coordinator(&self) -> ProcessId {
        self.n - 1
    }

    fn is_coordinator(&self) -> bool {
        self.me == self.coordinator()
    }

    /// Whether no further vote can change the outcome: a `No` is in, or
    /// every vote is.
    fn outcome_fixed(&self) -> bool {
        !self.votes_all || self.got.iter().all(|&g| g)
    }

    /// Close the vote round: broadcast the outcome and decide. Called by
    /// `on_message` as soon as [`TwoPc::outcome_fixed`], and by the collect
    /// timer if the round is still open — a vote still missing then means
    /// a failure somewhere: abort.
    fn close_round(&mut self, ctx: &mut Ctx<TwoPcMsg>) {
        debug_assert!(self.is_coordinator() && !self.decided);
        let commit = self.votes_all && self.got.iter().all(|&g| g);
        ctx.broadcast_others(TwoPcMsg::D(commit));
        self.decided = true;
        ctx.decide(decision_value(commit));
    }
}

impl CommitProtocol for TwoPc {
    const NAME: &'static str = "2PC";

    fn new(me: ProcessId, n: usize, f: usize, vote: Vote) -> Self {
        validate_params(n, f);
        TwoPc {
            me,
            n,
            vote,
            votes_all: true,
            got: PerRank::from_elem(false, n),
            decided: false,
        }
    }
}

impl Automaton for TwoPc {
    type Msg = TwoPcMsg;

    fn on_start(&mut self, ctx: &mut Ctx<TwoPcMsg>) {
        if self.is_coordinator() {
            self.votes_all = self.vote;
            self.got[self.me] = true;
            // All votes are in transit now; they arrive within U in any
            // synchronous execution. The timer only bounds that wait.
            ctx.set_timer(Time::units(1), TAG_COLLECT);
        } else {
            let coord = self.coordinator();
            ctx.send(coord, TwoPcMsg::V(self.vote));
            // Participants block until the outcome arrives: no timer.
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: TwoPcMsg, ctx: &mut Ctx<TwoPcMsg>) {
        match msg {
            TwoPcMsg::V(v) => {
                debug_assert!(self.is_coordinator());
                // First vote binds, and a closed round stays closed: a
                // straggler (a late link, or a crash-restarted participant
                // re-sending its logged vote) must neither flip
                // `votes_all` nor trigger a second outcome broadcast.
                if self.decided || self.got[from] {
                    return;
                }
                self.votes_all &= v;
                self.got[from] = true;
                if self.outcome_fixed() {
                    self.close_round(ctx);
                }
            }
            TwoPcMsg::D(d) => {
                if !self.decided {
                    self.decided = true;
                    ctx.decide(decision_value(d));
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<TwoPcMsg>) {
        debug_assert_eq!(tag, TAG_COLLECT);
        if !self.decided {
            self.close_round(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::message_speed::Run;
    use crate::runner::{nice_complexity, run_nice, Scenario};
    use ac_net::{Crash, DelayRule};
    use ac_sim::U;

    #[test]
    fn nice_execution_matches_table5() {
        for n in 2..=8 {
            let (d, m) = nice_complexity::<TwoPc>(n, 1);
            assert_eq!((d, m), (2, 2 * n as u64 - 2), "n={n}");
        }
    }

    #[test]
    fn commits_at_message_speed_and_ignores_stragglers() {
        let n = 5;
        let mut run = Run::<TwoPc>::start(&vec![true; n], 1);
        // No timer has fired: two hand-offs committed everyone.
        assert!(run.all_decided(1));
        assert_eq!(run.wire, 2 * n - 2);
        // A crash-restarted participant re-sends its logged vote, another
        // one changes its mind, and then the stale collect timer fires.
        run.inject(0, n - 1, TwoPcMsg::V(true));
        run.inject(1, n - 1, TwoPcMsg::V(false));
        run.fire_timers();
        assert_eq!(run.wire, 2 * n - 2, "the outcome is broadcast once");
        assert!(run.procs[n - 1].votes_all, "a closed round is immutable");
    }

    #[test]
    fn first_no_fixes_the_outcome_at_message_speed() {
        let n = 5;
        let mut votes = vec![true; n];
        votes[0] = false;
        let mut run = Run::<TwoPc>::start(&votes, 1);
        assert!(run.all_decided(0));
        run.fire_timers();
        assert_eq!(run.wire, 2 * n - 2, "later votes are stragglers");
    }

    #[test]
    fn all_commit_in_nice_execution() {
        let out = run_nice::<TwoPc>(5, 2);
        assert_eq!(out.decided_values(), vec![1]);
    }

    #[test]
    fn single_no_vote_aborts_everyone() {
        for dissenter in 0..4 {
            let out = Scenario::nice(4, 1).vote_no(dissenter).run::<TwoPc>();
            assert_eq!(out.decided_values(), vec![0], "dissenter {dissenter}");
        }
    }

    #[test]
    fn participant_crash_aborts() {
        let out = Scenario::nice(4, 1)
            .crash(1, Crash::initially())
            .run::<TwoPc>();
        assert_eq!(out.decided_values(), vec![0]);
        // The three live processes all decided.
        for p in [0, 2, 3] {
            assert_eq!(out.decision_of(p), Some(0));
        }
    }

    #[test]
    fn coordinator_crash_blocks_participants() {
        let out = Scenario::nice(4, 1)
            .crash(3, Crash::at(Time::units(1)))
            .run::<TwoPc>();
        // Nobody ever decides: the protocol is blocking.
        assert!(out.decisions.iter().all(|d| d.is_none()));
        assert!(out.quiescent, "2PC must quiesce even when blocked");
    }

    #[test]
    fn late_vote_aborts_but_agreement_holds() {
        // P1's vote to the coordinator is delayed past the collect timeout:
        // a network-failure execution; 2PC aborts but stays consistent.
        let out = Scenario::nice(4, 1)
            .rule(DelayRule::link(0, 3, Time::ZERO, Time::units(1), 5 * U))
            .run::<TwoPc>();
        assert_eq!(out.decided_values(), vec![0]);
        assert!(out.decisions.iter().all(|d| d.is_some()));
    }

    #[test]
    fn coordinator_partial_broadcast_still_agrees() {
        // Coordinator crashes mid-outcome-broadcast: some participants get
        // D(1), the rest block. Agreement among deciders holds.
        let out = Scenario::nice(5, 1)
            .crash(4, Crash::partial(Time::units(1), 2))
            .run::<TwoPc>();
        let vals = out.decided_values();
        assert!(vals.len() <= 1, "two different decisions: {vals:?}");
        let decided = out.decisions.iter().flatten().count();
        assert_eq!(decided, 2, "exactly the two reached participants decide");
    }
}
