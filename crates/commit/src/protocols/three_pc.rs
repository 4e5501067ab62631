//! Three-phase commit (Skeen 1981), the classical non-blocking fix for 2PC
//! (paper §6.2): it adds a *prepare-to-commit* round so that no process
//! commits before everyone is able to commit, plus a termination protocol
//! run when the coordinator is suspected.
//!
//! This implementation uses state flooding for termination: undecided
//! processes exchange their state sets for `f+1` rounds and then apply the
//! classical rule (any *committed* → commit; any *aborted* → abort; any
//! *prepared* → commit; all *uncertain* → abort). In a synchronous system
//! this solves NBAC; under network failures the prepared/uncertain split
//! across a partition produces the well-known disagreement (§6.2: 3PC "does
//! not solve the potential conflict" — demonstrated in this module's
//! tests), which is precisely what INBAC and PaxosCommit repair.
//!
//! Nice-execution complexity: 4 delays, `4n−4` messages (votes, pre-commit,
//! acks, do-commit). The paper's "+1 delay, +2n−2 messages over 2PC"
//! summary counts the decision point of the coordinator; see EXPERIMENTS.md.
//!
//! ## What the timers mean
//!
//! The coordinator runs two *complete-able* collections — all `n` votes,
//! then all `n` `AckPc`s — and each has one round-closing function with
//! two triggers: `ThreePc::close_votes` runs the moment the vote outcome
//! is fixed (every vote in, or the first `No`), `ThreePc::close_acks`
//! the moment the last ack is in, and the `1·U` / `3·U` timers run the
//! same functions only if their round is still open. The timers are the
//! failure detector — they bound the wait for a message that never comes
//! — so a nice execution commits in four hand-offs rather than `4·U`; on
//! the simulator's unit grid message and timer coincide and nothing
//! changes. The watchdog and the termination rounds stay clock-driven:
//! their trigger is *silence* (no `DoCommit`/`DoAbort` by `5·U`, then one
//! flooding round per unit), which no message can complete early.

use ac_sim::{Automaton, Ctx, ProcessId, Time};

use crate::problem::{decision_value, validate_params, CommitProtocol, Vote};
use crate::protocols::PerRank;

const TAG_COLLECT: u32 = 1;
const TAG_ACKS: u32 = 2;
const TAG_WATCHDOG: u32 = 3;
const TAG_TERM_ROUND: u32 = 4;

/// Local commit state, as in Skeen's protocol.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PcState {
    /// Decided abort (or never voted yes).
    Aborted,
    /// Voted yes, has not seen pre-commit.
    Uncertain,
    /// Received pre-commit, not yet committed.
    Prepared,
    /// Decided commit.
    Committed,
}

/// Where the coordinator is in its two collections.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Round {
    /// Collecting votes (guarded by `TAG_COLLECT`).
    Votes,
    /// Pre-commit sent, collecting acks (guarded by `TAG_ACKS`).
    Acks,
    /// Both rounds over; vote and ack stragglers change nothing.
    Closed,
}

/// Bitmask of states observed during termination flooding.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StateMask(u8);

impl StateMask {
    fn add(&mut self, s: PcState) {
        self.0 |= match s {
            PcState::Aborted => 1,
            PcState::Uncertain => 2,
            PcState::Prepared => 4,
            PcState::Committed => 8,
        };
    }
    fn merge(&mut self, other: StateMask) {
        self.0 |= other.0;
    }
    fn committed(self) -> bool {
        self.0 & 8 != 0
    }
    fn prepared(self) -> bool {
        self.0 & 4 != 0
    }
    fn aborted(self) -> bool {
        self.0 & 1 != 0
    }
}

/// 3PC's message alphabet.
#[derive(Clone, Debug)]
pub enum ThreePcMsg {
    /// A participant's vote.
    V(bool),
    /// Coordinator: prepare to commit.
    PreCommit,
    /// Participant acknowledges the pre-commit.
    AckPc,
    /// Coordinator: commit.
    DoCommit,
    /// Coordinator: abort.
    DoAbort,
    /// Termination protocol: the sender's accumulated state mask.
    States(u8),
}

/// One process of 3PC. Coordinator is `Pn`.
#[derive(Debug)]
pub struct ThreePc {
    me: ProcessId,
    n: usize,
    f: usize,
    vote: bool,
    state: PcState,
    decided: bool,
    // Coordinator.
    round: Round,
    votes_all: bool,
    got_vote: PerRank<bool>,
    acks: PerRank<bool>,
    // Termination protocol.
    seen: StateMask,
    term_round: u64,
}

impl ThreePc {
    fn coordinator(&self) -> ProcessId {
        self.n - 1
    }

    fn is_coordinator(&self) -> bool {
        self.me == self.coordinator()
    }

    fn decide(&mut self, commit: bool, ctx: &mut Ctx<ThreePcMsg>) {
        if !self.decided {
            self.decided = true;
            self.state = if commit {
                PcState::Committed
            } else {
                PcState::Aborted
            };
            ctx.decide(decision_value(commit));
        }
    }

    /// Close the vote round. Called by `on_message` as soon as the outcome
    /// is fixed (all `n` votes in, or a `No`), and by `TAG_COLLECT` if the
    /// round is still open — a vote still missing then is a failure: abort.
    fn close_votes(&mut self, ctx: &mut Ctx<ThreePcMsg>) {
        debug_assert!(self.is_coordinator() && self.round == Round::Votes);
        if self.votes_all && self.got_vote.iter().all(|&g| g) {
            self.round = Round::Acks;
            self.state = PcState::Prepared;
            self.acks[self.me] = true;
            ctx.broadcast_others(ThreePcMsg::PreCommit);
            ctx.set_timer(Time::units(3), TAG_ACKS);
        } else {
            self.round = Round::Closed;
            ctx.broadcast_others(ThreePcMsg::DoAbort);
            self.decide(false, ctx);
        }
    }

    /// Close the ack round. Called by `on_message` when the last `AckPc`
    /// is in, and by `TAG_ACKS` if the round is still open.
    fn close_acks(&mut self, ctx: &mut Ctx<ThreePcMsg>) {
        debug_assert!(self.is_coordinator() && self.round == Round::Acks);
        self.round = Round::Closed;
        if self.acks.iter().all(|&a| a) {
            ctx.broadcast_others(ThreePcMsg::DoCommit);
            self.decide(true, ctx);
        }
        // Missing acks: stay prepared; the termination protocol
        // (watchdog) resolves it together with everyone else.
    }

    /// Watchdog deadline: normal flow ends by 4U.
    fn watchdog_at(&self) -> Time {
        Time::units(5)
    }

    fn term_round_at(&self, r: u64) -> Time {
        Time::units(5 + r)
    }
}

impl CommitProtocol for ThreePc {
    const NAME: &'static str = "3PC";

    fn new(me: ProcessId, n: usize, f: usize, vote: Vote) -> Self {
        validate_params(n, f);
        ThreePc {
            me,
            n,
            f,
            vote,
            state: if vote {
                PcState::Uncertain
            } else {
                PcState::Aborted
            },
            decided: false,
            round: Round::Votes,
            votes_all: true,
            got_vote: PerRank::from_elem(false, n),
            acks: PerRank::from_elem(false, n),
            seen: StateMask::default(),
            term_round: 0,
        }
    }
}

impl Automaton for ThreePc {
    type Msg = ThreePcMsg;

    fn on_start(&mut self, ctx: &mut Ctx<ThreePcMsg>) {
        if self.is_coordinator() {
            self.votes_all = self.vote;
            self.got_vote[self.me] = true;
            ctx.set_timer(Time::units(1), TAG_COLLECT);
        } else {
            ctx.send(self.coordinator(), ThreePcMsg::V(self.vote));
        }
        // A unilateral no-vote aborts right away (Skeen's rule).
        if !self.vote {
            self.decide(false, ctx);
        } else {
            ctx.set_timer(self.watchdog_at(), TAG_WATCHDOG);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: ThreePcMsg, ctx: &mut Ctx<ThreePcMsg>) {
        match msg {
            ThreePcMsg::V(v) => {
                // First vote binds, and only an open round listens: a
                // straggler must neither flip `votes_all` nor re-broadcast
                // `PreCommit`/`DoAbort`.
                if self.round != Round::Votes || self.got_vote[from] {
                    return;
                }
                self.votes_all &= v;
                self.got_vote[from] = true;
                if !self.votes_all || self.got_vote.iter().all(|&g| g) {
                    self.close_votes(ctx);
                }
            }
            ThreePcMsg::PreCommit => {
                if self.state == PcState::Uncertain {
                    self.state = PcState::Prepared;
                    ctx.send(self.coordinator(), ThreePcMsg::AckPc);
                }
            }
            ThreePcMsg::AckPc => {
                if self.round != Round::Acks {
                    return; // straggler: `DoCommit` went out (or never will)
                }
                self.acks[from] = true;
                if self.acks.iter().all(|&a| a) {
                    self.close_acks(ctx);
                }
            }
            ThreePcMsg::DoCommit => self.decide(true, ctx),
            ThreePcMsg::DoAbort => self.decide(false, ctx),
            ThreePcMsg::States(mask) => {
                self.seen.merge(StateMask(mask));
            }
        }
    }

    fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<ThreePcMsg>) {
        match tag {
            TAG_COLLECT => {
                if self.round == Round::Votes {
                    self.close_votes(ctx);
                }
            }
            TAG_ACKS => {
                if self.round == Round::Acks {
                    self.close_acks(ctx);
                }
            }
            TAG_WATCHDOG => {
                if self.decided {
                    return;
                }
                // Enter termination: flood states for f+1 rounds.
                self.seen.add(self.state);
                ctx.broadcast_others(ThreePcMsg::States(self.seen.0));
                self.term_round = 1;
                ctx.set_timer(self.term_round_at(1), TAG_TERM_ROUND);
            }
            TAG_TERM_ROUND => {
                if self.decided {
                    return;
                }
                self.seen.add(self.state);
                if self.term_round <= self.f as u64 {
                    ctx.broadcast_others(ThreePcMsg::States(self.seen.0));
                    self.term_round += 1;
                    ctx.set_timer(self.term_round_at(self.term_round), TAG_TERM_ROUND);
                } else {
                    // Classical 3PC termination rule.
                    let commit = if self.seen.committed() {
                        true
                    } else if self.seen.aborted() {
                        false
                    } else {
                        self.seen.prepared()
                    };
                    self.decide(commit, ctx);
                }
            }
            other => unreachable!("unknown 3PC timer tag {other}"),
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
    fn nice_execution_is_4_delays_4n4_messages() {
        for n in 3..=7 {
            let (d, m) = nice_complexity::<ThreePc>(n, 1);
            assert_eq!((d, m), (4, (4 * n - 4) as u64), "n={n}");
        }
    }

    #[test]
    fn commits_at_message_speed_and_ignores_stragglers() {
        let n = 5;
        let mut run = Run::<ThreePc>::start(&vec![true; n], 1);
        // No timer has fired: four hand-offs committed everyone.
        assert!(run.all_decided(1));
        assert_eq!(run.wire, 4 * n - 4);
        // Duplicate and contradicting votes, a duplicate ack, then every
        // stale timer (collect, acks, the watchdogs).
        run.inject(0, n - 1, ThreePcMsg::V(true));
        run.inject(1, n - 1, ThreePcMsg::V(false));
        run.inject(2, n - 1, ThreePcMsg::AckPc);
        run.fire_timers();
        assert_eq!(run.wire, 4 * n - 4, "no second PreCommit/DoCommit");
        assert!(run.procs[n - 1].votes_all, "a closed round is immutable");
    }

    #[test]
    fn first_no_fixes_the_outcome_at_message_speed() {
        let n = 5;
        let mut votes = vec![true; n];
        votes[0] = false;
        let mut run = Run::<ThreePc>::start(&votes, 1);
        assert!(run.all_decided(0));
        run.fire_timers();
        assert_eq!(run.wire, 2 * n - 2, "votes + one DoAbort round");
    }

    #[test]
    fn commit_and_abort_paths() {
        let out = Scenario::nice(4, 1).run::<ThreePc>();
        assert_eq!(out.decided_values(), vec![1]);
        let out = Scenario::nice(4, 1).vote_no(1).run::<ThreePc>();
        assert_eq!(out.decided_values(), vec![0]);
        assert!(out.decisions.iter().all(|d| d.is_some()));
    }

    #[test]
    fn coordinator_crash_is_nonblocking() {
        // Unlike 2PC, participants decide via the termination protocol.
        let n = 4;
        for t in 0..5u64 {
            for partial in [None, Some(1), Some(2)] {
                let crash = match partial {
                    None => Crash::at(Time::units(t)),
                    Some(k) => Crash::partial(Time::units(t), k),
                };
                let sc = Scenario::nice(n, 1).crash(n - 1, crash);
                let out = sc.run::<ThreePc>();
                check(&out, &sc.votes, ProtocolKind::ThreePc.cell())
                    .assert_ok(&format!("t={t} partial={partial:?}"));
                for p in 0..n - 1 {
                    assert!(
                        out.decisions[p].is_some(),
                        "t={t} partial={partial:?}: P{} blocked",
                        p + 1
                    );
                }
            }
        }
    }

    #[test]
    fn participant_crash_keeps_nbac() {
        let n = 4;
        for victim in 0..n - 1 {
            for t in 0..5u64 {
                let sc = Scenario::nice(n, 1).crash(victim, Crash::at(Time::units(t)));
                let out = sc.run::<ThreePc>();
                check(&out, &sc.votes, ProtocolKind::ThreePc.cell())
                    .assert_ok(&format!("victim={victim} t={t}"));
            }
        }
    }

    #[test]
    fn partition_splits_the_brain() {
        // The classic 3PC disagreement (why indulgent protocols exist):
        // the coordinator pre-commits with P1 and is then partitioned away
        // together with it. {coord, P1} are prepared and the termination
        // rule commits them; {P2, P3} stay uncertain and abort.
        let n = 4;
        let big = 40 * U;
        let mut sc = Scenario::nice(n, 1);
        // Cut links between {P1, coord} and {P2, P3} from 2U on (after
        // PreCommit reached P1 but before anything reached P2/P3), both
        // directions, long enough to outlast the termination protocol.
        let cut_from = Time::units(2);
        let cut_to = Time::units(30);
        for a in [0usize, 3] {
            for b in [1usize, 2] {
                sc = sc
                    .rule(DelayRule::link(a, b, cut_from, cut_to, big))
                    .rule(DelayRule::link(b, a, cut_from, cut_to, big));
            }
        }
        // Also delay the coordinator's PreCommit to P2/P3 (sent at 1U).
        sc = sc
            .rule(DelayRule::link(3, 1, Time::units(1), cut_from, big))
            .rule(DelayRule::link(3, 2, Time::units(1), cut_from, big));
        let sc = sc.horizon(100);
        let out = sc.run::<ThreePc>();
        let vals = out.decided_values();
        assert_eq!(vals, vec![0, 1], "expected split-brain, got {vals:?}");
        // Validity and termination still hold in this NF execution, which
        // is exactly the (AVT, VT) cell.
        check(&out, &sc.votes, ProtocolKind::ThreePc.cell()).assert_ok("partition");
    }
}
