//! PaxosCommit and Faster PaxosCommit (Gray & Lamport 2006), the indulgent
//! baselines of the paper's Table 5.
//!
//! Every process is a resource manager (RM) running one Paxos instance on
//! its own vote. Following the Gray–Lamport normal-case optimization that
//! the paper's message accounting implies, acceptors are co-located with
//! processes `P1..P_{min(2f+1, n)}`; only the first `f+1` ("active")
//! acceptors participate in a failure-free run, the rest are spares engaged
//! by recovery ballots. The recovery leader for ballot `b ≥ 1` is process
//! `(b−1) mod n`, driven by growing timeouts — the same indulgent-liveness
//! scheme as `ac-consensus`.
//!
//! Nice executions (spontaneous start, Table 5 footnote 13):
//!
//! * **PaxosCommit**: RMs send ballot-0 *phase 2a* votes to the `f+1`
//!   active acceptors; acceptors bundle *phase 2b* for all instances to the
//!   leader `P1`; the leader announces the outcome. 3 delays,
//!   `nf + 2n − 2` messages.
//! * **Faster PaxosCommit**: acceptors broadcast their bundles to everyone;
//!   each process learns the outcome directly. 2 delays,
//!   `2fn + 2n − 2f − 2` messages.
//!
//! Everything an instance keeps per rank — the acceptor's accepted values,
//! the learner's verdict on each acceptor's bundle — and the ballot-0
//! bundle itself ([`BundleVals`]) are small vectors: opening an instance
//! allocates nothing for a group of up to four, sending and receiving a
//! bundle nothing for a group of two. A learner keeps a received bundle as
//! what it says (`Bundle`), not as the pairs that said it. The recovery-ballot
//! messages and proposer state stay `Vec`s: a failure-free run never
//! builds one.

use ac_sim::{Automaton, Ctx, ProcessId, SmallVec, U};

use crate::problem::{decision_value, validate_params, CommitProtocol, Vote};
use crate::protocols::PerRank;

/// Recovery-ballot timeout base/growth (see `ac_consensus` for rationale).
const ROUND_TICKS: u64 = 8 * U;
const ROUND_GROWTH: u64 = 4 * U;
const TAG_ROUND_BASE: u32 = 16;

/// The `(instance, vote)` pairs of a ballot-0 bundle: inline for the
/// two-participant group most transactions have, which keeps [`PcMsg`] at
/// the 40 bytes it had with a `Vec` here — every envelope of every
/// transaction is moved by value at that size, a dozen times per hop — and
/// spilled for a larger group.
pub type BundleVals = SmallVec<(ProcessId, bool), 2>;

/// PaxosCommit's message alphabet.
#[derive(Clone, Debug)]
pub enum PcMsg {
    /// Ballot-0 phase 2a: RM `rm` registers its vote at an acceptor.
    Vote2a {
        /// The resource manager whose vote this is.
        rm: ProcessId,
        /// The vote.
        vote: bool,
    },
    /// An acceptor's bundled ballot-0 phase 2b covering all instances.
    Bundle0 {
        /// `(instance, vote)` pairs the acceptor accepted at ballot 0.
        vals: BundleVals,
    },
    /// Recovery phase 1a for all instances.
    Prepare {
        /// The recovery ballot.
        bal: u64,
    },
    /// Recovery phase 1b: per-instance highest accepted (instance, ballot,
    /// value).
    Promise {
        /// The ballot being promised.
        bal: u64,
        /// Per-instance `(instance, ballot, value)` of the highest accept.
        accepted: Vec<(ProcessId, u64, bool)>,
    },
    /// Recovery phase 2a with a value for every instance.
    Accept {
        /// The recovery ballot.
        bal: u64,
        /// A value for every instance.
        vals: Vec<(ProcessId, bool)>,
    },
    /// Recovery phase 2b.
    Accepted {
        /// The ballot that was accepted.
        bal: u64,
    },
    /// The commit/abort outcome announcement.
    Outcome {
        /// Whether the transaction committed.
        commit: bool,
    },
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum LeaderPhase {
    Idle,
    Preparing {
        promises: Vec<ProcessId>,
        best: Vec<(ProcessId, u64, bool)>,
    },
    Accepting {
        accepts: Vec<ProcessId>,
        commit: bool,
    },
}

/// What a learner knows of one active acceptor's ballot-0 bundle.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
enum Bundle {
    /// Not received.
    #[default]
    Missing,
    /// Received, but not covering all `n` instances: the fast path is
    /// closed for good, recovery decides.
    Partial,
    /// Received and complete.
    Complete {
        /// Whether every instance's vote in it is yes.
        all_yes: bool,
    },
}

/// Shared machinery of both variants.
#[derive(Debug)]
pub struct PaxosCommitCore {
    me: ProcessId,
    n: usize,
    f: usize,
    vote: bool,
    faster: bool,
    // --- acceptor state (me < acceptor_count) ---
    /// Highest promised recovery ballot (0 = only ballot 0 seen).
    promised: u64,
    /// Per RM instance: highest accepted (ballot, value).
    accepted: PerRank<Option<(u64, bool)>>,
    sent_bundle: bool,
    // --- learner state ---
    /// Ballot-0 bundles received, by acceptor.
    bundles: PerRank<Bundle>,
    decided: bool,
    /// The decided outcome, kept to short-circuit stragglers.
    outcome_cache: bool,
    // --- recovery proposer state ---
    round: u64,
    phase: LeaderPhase,
}

impl PaxosCommitCore {
    fn new(me: ProcessId, n: usize, f: usize, vote: Vote, faster: bool) -> Self {
        validate_params(n, f);
        PaxosCommitCore {
            me,
            n,
            f,
            vote,
            faster,
            promised: 0,
            accepted: PerRank::from_elem(None, n),
            sent_bundle: false,
            bundles: PerRank::from_elem(Bundle::Missing, n),
            decided: false,
            outcome_cache: false,
            round: 0,
            phase: LeaderPhase::Idle,
        }
    }

    /// Total acceptors: `2f+1` when the cluster is big enough.
    #[inline]
    fn acceptor_count(&self) -> usize {
        (2 * self.f + 1).min(self.n)
    }

    /// Active (normal-case) acceptors: the first `f+1`.
    #[inline]
    fn active_count(&self) -> usize {
        self.f + 1
    }

    #[inline]
    fn is_acceptor(&self) -> bool {
        self.me < self.acceptor_count()
    }

    #[inline]
    fn recovery_majority(&self) -> usize {
        self.acceptor_count() / 2 + 1
    }

    #[inline]
    fn leader_of(&self, bal: u64) -> ProcessId {
        ((bal - 1) % self.n as u64) as usize
    }

    fn decide(&mut self, commit: bool, ctx: &mut Ctx<PcMsg>) {
        if !self.decided {
            self.decided = true;
            self.outcome_cache = commit;
            ctx.decide(decision_value(commit));
        }
    }

    /// Try to conclude from complete ballot-0 bundles of all active
    /// acceptors.
    fn try_fast_learn(&mut self, ctx: &mut Ctx<PcMsg>) {
        if self.decided {
            return;
        }
        let mut commit = true;
        for a in 0..self.active_count() {
            match self.bundles[a] {
                Bundle::Complete { all_yes } => commit &= all_yes,
                Bundle::Missing | Bundle::Partial => return,
            }
        }
        // Basic variant: the leader learnt; announce to everyone.
        if !self.faster && self.me == 0 {
            ctx.broadcast_others(PcMsg::Outcome { commit });
        }
        ctx.trace(|| format!("ballot-0 outcome: commit={commit}"));
        self.decide(commit, ctx);
    }

    fn maybe_send_bundle(&mut self, ctx: &mut Ctx<PcMsg>) {
        if self.sent_bundle || !self.is_acceptor() || self.promised > 0 {
            return;
        }
        if self.accepted.iter().any(|a| a.is_none()) {
            return;
        }
        self.sent_bundle = true;
        let vals: BundleVals = self
            .accepted
            .iter()
            .enumerate()
            .map(|(rm, a)| (rm, a.unwrap().1))
            .collect();
        if self.faster {
            // Everyone is a learner.
            ctx.broadcast(PcMsg::Bundle0 { vals });
        } else {
            ctx.send(0, PcMsg::Bundle0 { vals });
        }
    }

    fn arm_round_timer(&mut self, ctx: &mut Ctx<PcMsg>) {
        let deadline = ctx.now() + ROUND_TICKS + self.round * ROUND_GROWTH;
        ctx.set_timer(deadline, TAG_ROUND_BASE + self.round as u32);
    }

    fn start_recovery(&mut self, ctx: &mut Ctx<PcMsg>) {
        let bal = self.round;
        debug_assert!(bal >= 1 && self.leader_of(bal) == self.me);
        self.phase = LeaderPhase::Preparing {
            promises: Vec::new(),
            best: Vec::new(),
        };
        for a in 0..self.acceptor_count() {
            ctx.send(a, PcMsg::Prepare { bal });
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx<PcMsg>) {
        // Ballot-0 phase 2a to the active acceptors.
        for a in 0..self.active_count() {
            ctx.send(
                a,
                PcMsg::Vote2a {
                    rm: self.me,
                    vote: self.vote,
                },
            );
        }
        self.arm_round_timer(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: PcMsg, ctx: &mut Ctx<PcMsg>) {
        match msg {
            PcMsg::Vote2a { rm, vote } => {
                if self.is_acceptor() && self.promised == 0 && self.accepted[rm].is_none() {
                    self.accepted[rm] = Some((0, vote));
                    self.maybe_send_bundle(ctx);
                }
            }
            PcMsg::Bundle0 { vals } => {
                if from < self.active_count() && self.bundles[from] == Bundle::Missing {
                    self.bundles[from] = if vals.len() == self.n {
                        let all_yes = vals.iter().all(|&(_, v)| v);
                        Bundle::Complete { all_yes }
                    } else {
                        Bundle::Partial
                    };
                    if self.faster || self.me == 0 {
                        self.try_fast_learn(ctx);
                    }
                }
            }
            PcMsg::Prepare { bal } => {
                if self.decided {
                    // Short-circuit stragglers: the outcome is enough for
                    // them to decide, no per-instance state needed.
                    ctx.send(
                        from,
                        PcMsg::Outcome {
                            commit: self.outcome_cache,
                        },
                    );
                } else if self.is_acceptor() && bal > self.promised {
                    self.promised = bal;
                    let accepted: Vec<(ProcessId, u64, bool)> = self
                        .accepted
                        .iter()
                        .enumerate()
                        .filter_map(|(rm, a)| a.map(|(b, v)| (rm, b, v)))
                        .collect();
                    ctx.send(from, PcMsg::Promise { bal, accepted });
                }
            }
            PcMsg::Promise { bal, accepted } => {
                if self.decided || bal != self.round || self.leader_of(bal) != self.me {
                    return;
                }
                let majority = self.recovery_majority();
                let n = self.n;
                if let LeaderPhase::Preparing { promises, best } = &mut self.phase {
                    if promises.contains(&from) {
                        return;
                    }
                    promises.push(from);
                    for (rm, b, v) in accepted {
                        match best.iter_mut().find(|(r, _, _)| *r == rm) {
                            Some(entry) if entry.1 < b => *entry = (rm, b, v),
                            Some(_) => {}
                            None => best.push((rm, b, v)),
                        }
                    }
                    if promises.len() >= majority {
                        // Instances with no accepted value anywhere in the
                        // quorum are aborted (the RM never registered in
                        // time): the Gray–Lamport rule.
                        let vals: Vec<(ProcessId, bool)> = (0..n)
                            .map(|rm| {
                                let v = best
                                    .iter()
                                    .find(|(r, _, _)| *r == rm)
                                    .map(|&(_, _, v)| v)
                                    .unwrap_or(false);
                                (rm, v)
                            })
                            .collect();
                        let commit = vals.iter().all(|&(_, v)| v);
                        self.phase = LeaderPhase::Accepting {
                            accepts: Vec::new(),
                            commit,
                        };
                        for a in 0..self.acceptor_count() {
                            ctx.send(
                                a,
                                PcMsg::Accept {
                                    bal,
                                    vals: vals.clone(),
                                },
                            );
                        }
                    }
                }
            }
            PcMsg::Accept { bal, vals } => {
                if self.is_acceptor() && bal >= self.promised && bal > 0 {
                    self.promised = bal;
                    for (rm, v) in vals {
                        self.accepted[rm] = Some((bal, v));
                    }
                    ctx.send(from, PcMsg::Accepted { bal });
                }
            }
            PcMsg::Accepted { bal } => {
                if self.decided || bal != self.round || self.leader_of(bal) != self.me {
                    return;
                }
                let majority = self.recovery_majority();
                if let LeaderPhase::Accepting { accepts, commit } = &mut self.phase {
                    if accepts.contains(&from) {
                        return;
                    }
                    accepts.push(from);
                    if accepts.len() >= majority {
                        let commit = *commit;
                        ctx.broadcast_others(PcMsg::Outcome { commit });
                        self.decide(commit, ctx);
                    }
                }
            }
            PcMsg::Outcome { commit } => {
                self.decide(commit, ctx);
            }
        }
    }

    fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<PcMsg>) {
        debug_assert!(tag >= TAG_ROUND_BASE);
        let fired = (tag - TAG_ROUND_BASE) as u64;
        if self.decided || fired != self.round {
            return;
        }
        self.round += 1;
        self.phase = LeaderPhase::Idle;
        if self.leader_of(self.round) == self.me {
            self.start_recovery(ctx);
        }
        self.arm_round_timer(ctx);
    }
}

macro_rules! pc_flavor {
    ($name:ident, $disp:expr, $faster:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Debug)]
        pub struct $name(PaxosCommitCore);

        impl CommitProtocol for $name {
            const NAME: &'static str = $disp;

            fn new(me: ProcessId, n: usize, f: usize, vote: Vote) -> Self {
                $name(PaxosCommitCore::new(me, n, f, vote, $faster))
            }
        }

        impl Automaton for $name {
            type Msg = PcMsg;

            fn on_start(&mut self, ctx: &mut Ctx<PcMsg>) {
                self.0.on_start(ctx);
            }
            fn on_message(&mut self, from: ProcessId, msg: PcMsg, ctx: &mut Ctx<PcMsg>) {
                self.0.on_message(from, msg, ctx);
            }
            fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<PcMsg>) {
                self.0.on_timer(tag, ctx);
            }
        }
    };
}

pc_flavor!(
    PaxosCommit,
    "PaxosCommit",
    false,
    "Gray–Lamport PaxosCommit: 3 delays, `nf+2n−2` messages in nice executions."
);
pc_flavor!(
    FasterPaxosCommit,
    "FasterPaxosCommit",
    true,
    "Faster PaxosCommit: acceptors broadcast phase 2b; 2 delays, `2fn+2n−2f−2` messages."
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check;
    use crate::protocols::ProtocolKind;
    use crate::runner::{nice_complexity, Scenario};
    use ac_net::{Crash, DelayRule};
    use ac_sim::Time;

    #[test]
    fn paxos_commit_nice_matches_table5() {
        for n in 3..=8 {
            for f in 1..=(n - 1) / 2 {
                let (d, m) = nice_complexity::<PaxosCommit>(n, f);
                assert_eq!(d, 3, "n={n} f={f}");
                assert_eq!(m, (n * f + 2 * n - 2) as u64, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn faster_paxos_commit_nice_matches_table5() {
        for n in 3..=8 {
            for f in 1..=(n - 1) / 2 {
                let (d, m) = nice_complexity::<FasterPaxosCommit>(n, f);
                assert_eq!(d, 2, "n={n} f={f}");
                assert_eq!(m, (2 * f * n + 2 * n - 2 * f - 2) as u64, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn no_vote_aborts_both_variants() {
        for dissenter in 0..5 {
            let sc = Scenario::nice(5, 2).vote_no(dissenter);
            let a = sc.run::<PaxosCommit>();
            assert_eq!(a.decided_values(), vec![0], "basic, dissenter {dissenter}");
            let b = sc.run::<FasterPaxosCommit>();
            assert_eq!(b.decided_values(), vec![0], "faster, dissenter {dissenter}");
        }
    }

    #[test]
    fn rm_crash_recovers_to_abort() {
        // An RM crashes before registering its vote: ballot 0 never
        // completes; the recovery leader aborts its instance.
        let sc = Scenario::nice(5, 2).crash(4, Crash::initially());
        for (nm, out) in [
            ("basic", sc.run::<PaxosCommit>()),
            ("faster", sc.run::<FasterPaxosCommit>()),
        ] {
            check(&out, &sc.votes, ProtocolKind::PaxosCommit.cell()).assert_ok(nm);
            assert_eq!(out.decided_values(), vec![0], "{nm}");
            for p in 0..4 {
                assert!(out.decisions[p].is_some(), "{nm}: P{} undecided", p + 1);
            }
        }
    }

    #[test]
    fn leader_crash_rotates_recovery() {
        // P1 is both active acceptor and leader; crashing it forces a later
        // recovery ballot led by another process. n=5, f=1 keeps a majority
        // of the 3 acceptors alive.
        let sc = Scenario::nice(5, 1).crash(0, Crash::at(Time::units(1)));
        let out = sc.run::<PaxosCommit>();
        check(&out, &sc.votes, ProtocolKind::PaxosCommit.cell()).assert_ok("leader crash");
        for p in 1..5 {
            assert!(out.decisions[p].is_some(), "P{} undecided", p + 1);
        }
        let vals = out.decided_values();
        assert_eq!(vals.len(), 1);
    }

    #[test]
    fn delayed_bundle_is_indulgently_survived() {
        use ac_sim::U;
        // The leader's bundle path is delayed: recovery kicks in, agreement
        // and termination still hold (NBAC in a network-failure execution).
        let sc =
            Scenario::nice(5, 1).rule(DelayRule::link(1, 0, Time::ZERO, Time::units(30), 25 * U));
        let out = sc.run::<PaxosCommit>();
        check(&out, &sc.votes, ProtocolKind::PaxosCommit.cell()).assert_ok("delayed bundle");
        assert!(out.decisions.iter().all(|d| d.is_some()));
    }
}
