//! Protocol automata.
//!
//! Every module implements one protocol from the paper as a deterministic
//! automaton over the `ac-sim` kernel. Timer conventions follow the
//! appendix: INBAC, 1NBAC and 0NBAC use an absolute clock with propose at
//! time 0 (`time k` = `k·U`); the Appendix E protocols state "the timer
//! starts at time 1 when the first sending event happens", i.e.
//! `time k` = `(k−1)·U`. A private helper `etime` encodes the latter.
//!
//! Two kinds of timer live here, and they are implemented differently.
//! A timer that guards a **complete-able collection** (2PC/3PC: the
//! votes, the `AckPc`s; 1NBAC: the votes; INBAC: a backup's owed votes,
//! the acknowledgements) is a failure detector: the round's one closing
//! function runs from `on_message` the moment the collection is
//! complete, and from the timer only if the round is still open, so a
//! nice execution costs message hand-offs, not timer periods. The two
//! avNBAC variants keep no timer at all: their collections (all `n`
//! votes; the hub's votes, then its `B`) close on arrival, and the (AV,
//! AV) cell promises no termination for a timer to deliver. A timer
//! whose trigger is **silence** (0NBAC's "heard nothing", the chain and
//! star protocols' noop windows and time slots, INBAC's `2·U` help
//! serving, every watchdog and consensus timer) stays clock-driven,
//! because only the clock can say that nothing is coming. On the
//! simulator's unit grid the two coincide; each module's docs say which
//! of its timers is which.

use ac_sim::Time;

pub mod anbac;
pub mod avnbac;
pub mod chain_nbac;
pub mod d1cc;
pub mod inbac;
pub mod nbac0;
pub mod nbac1;
pub mod nbac_2n2;
pub mod nbac_2n2f;
pub mod paxos_commit;
pub mod three_pc;
pub mod two_pc;
mod wire;

pub use anbac::ANbac;
pub use avnbac::{AvNbacDelayOpt, AvNbacMsgOpt};
pub use chain_nbac::ChainNbac;
pub use d1cc::D1cc;
pub use inbac::{Inbac, InbacFastAbort, InbacUnbundledAck};
pub use nbac0::Nbac0;
pub use nbac1::Nbac1;
pub use nbac_2n2::Nbac2n2;
pub use nbac_2n2f::Nbac2n2f;
pub use paxos_commit::{FasterPaxosCommit, PaxosCommit};
pub use three_pc::ThreePc;
pub use two_pc::TwoPc;

use crate::problem::CommitProtocol;
use crate::runner::Scenario;
use crate::taxonomy::{Cell, PropSet};
use ac_net::Outcome;

/// One entry per rank of an instance's group — who voted, who
/// acknowledged, what was accepted — inline for the two to four
/// participants a transaction usually has (a larger group, e.g. the
/// whole-cluster fallback at `n` = 16 or 64, spills to the heap).
pub type PerRank<T> = ac_sim::SmallVec<T, 4>;

/// Appendix-E timer convention: "set timer to time k" where the timer
/// starts at time 1 when the first sending event happens — i.e. absolute
/// virtual time `(k−1)·U`.
#[inline]
pub(crate) fn etime(k: u64) -> Time {
    debug_assert!(k >= 1);
    Time::units(k - 1)
}

/// Every protocol in the suite, for uniform dispatch by harness/benches.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// INBAC (§5) — the paper's new indulgent protocol.
    Inbac,
    /// INBAC with the §5.2 fast-abort optimization.
    InbacFastAbort,
    /// 1NBAC — one-delay, consensus-backed (Theorem 3).
    Nbac1,
    /// D1CC — logless decentralized one-phase commit (Cornus/EasyCommit
    /// lineage): vote replication before the decision point, no consensus
    /// module, no coordinator log.
    D1cc,
    /// 0NBAC — zero-delay in the all-Yes nice execution.
    Nbac0,
    /// aNBAC — asynchronous, always runs consensus.
    ANbac,
    /// avNBAC, delay-optimal variant.
    AvNbacDelayOpt,
    /// avNBAC, message-optimal variant.
    AvNbacMsgOpt,
    /// (n−1+f)NBAC — chain broadcast.
    ChainNbac,
    /// (2n−2)NBAC — star broadcast, no fault tolerance on termination.
    Nbac2n2,
    /// (2n−2+f)NBAC — star broadcast plus HELP round.
    Nbac2n2f,
    /// Two-phase commit (blocking baseline).
    TwoPc,
    /// Three-phase commit (non-blocking synchronous baseline).
    ThreePc,
    /// PaxosCommit (Gray & Lamport).
    PaxosCommit,
    /// Faster PaxosCommit — phase-2a pre-assignment.
    FasterPaxosCommit,
}

impl ProtocolKind {
    /// Every protocol, in Table-1 presentation order.
    pub fn all() -> [ProtocolKind; 15] {
        use ProtocolKind::*;
        [
            Inbac,
            InbacFastAbort,
            Nbac1,
            D1cc,
            Nbac0,
            ANbac,
            AvNbacDelayOpt,
            AvNbacMsgOpt,
            ChainNbac,
            Nbac2n2,
            Nbac2n2f,
            TwoPc,
            ThreePc,
            PaxosCommit,
            FasterPaxosCommit,
        ]
    }

    /// The seven protocols of Table 5's head-to-head sweep, in
    /// presentation order. The single source of truth for that list: the
    /// harness's bench baseline, its validator and `ac-bench` all derive
    /// from it.
    pub fn table5() -> [ProtocolKind; 7] {
        [
            ProtocolKind::Nbac1,
            ProtocolKind::D1cc,
            ProtocolKind::ChainNbac,
            ProtocolKind::Inbac,
            ProtocolKind::TwoPc,
            ProtocolKind::PaxosCommit,
            ProtocolKind::FasterPaxosCommit,
        ]
    }

    /// The paper's display name for this protocol.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Inbac => Inbac::NAME,
            ProtocolKind::InbacFastAbort => InbacFastAbort::NAME,
            ProtocolKind::Nbac1 => Nbac1::NAME,
            ProtocolKind::D1cc => D1cc::NAME,
            ProtocolKind::Nbac0 => Nbac0::NAME,
            ProtocolKind::ANbac => ANbac::NAME,
            ProtocolKind::AvNbacDelayOpt => AvNbacDelayOpt::NAME,
            ProtocolKind::AvNbacMsgOpt => AvNbacMsgOpt::NAME,
            ProtocolKind::ChainNbac => ChainNbac::NAME,
            ProtocolKind::Nbac2n2 => Nbac2n2::NAME,
            ProtocolKind::Nbac2n2f => Nbac2n2f::NAME,
            ProtocolKind::TwoPc => TwoPc::NAME,
            ProtocolKind::ThreePc => ThreePc::NAME,
            ProtocolKind::PaxosCommit => PaxosCommit::NAME,
            ProtocolKind::FasterPaxosCommit => FasterPaxosCommit::NAME,
        }
    }

    /// The Table-1 cell whose guarantees this protocol provides.
    pub fn cell(self) -> Cell {
        use PropSet as P;
        match self {
            ProtocolKind::Inbac | ProtocolKind::InbacFastAbort => Cell::new(P::AVT, P::AVT),
            ProtocolKind::Nbac1 | ProtocolKind::D1cc => Cell::new(P::AVT, P::VT),
            ProtocolKind::Nbac0 => Cell::new(P::AT, P::AT),
            ProtocolKind::ANbac => Cell::new(P::AV, P::A),
            ProtocolKind::AvNbacDelayOpt | ProtocolKind::AvNbacMsgOpt => Cell::new(P::AV, P::AV),
            ProtocolKind::ChainNbac => Cell::new(P::AVT, P::T),
            ProtocolKind::Nbac2n2 => Cell::new(P::AVT, P::VT),
            ProtocolKind::Nbac2n2f => Cell::new(P::AVT, P::AVT),
            ProtocolKind::TwoPc => Cell::new(P::AV, P::AV),
            ProtocolKind::ThreePc => Cell::new(P::AVT, P::VT),
            ProtocolKind::PaxosCommit | ProtocolKind::FasterPaxosCommit => {
                Cell::new(P::AVT, P::AVT)
            }
        }
    }

    /// Whether the protocol's termination guarantee leans on the consensus
    /// module (and therefore on a correct majority), as the paper notes in
    /// Appendix B.
    pub fn needs_majority_for_termination(self) -> bool {
        matches!(
            self,
            ProtocolKind::Inbac
                | ProtocolKind::InbacFastAbort
                | ProtocolKind::Nbac1
                | ProtocolKind::Nbac0
                | ProtocolKind::Nbac2n2f
                | ProtocolKind::PaxosCommit
                | ProtocolKind::FasterPaxosCommit
        )
    }

    /// Whether the protocol is **logless**: the decision is reconstructable
    /// from votes replicated to peers, so a recovering participant asks the
    /// cluster instead of reading a local prepare record. The live service
    /// skips the critical-path `Prepare` WAL force for these protocols and
    /// journals the vote only alongside the decision (off the commit path).
    pub fn logless(self) -> bool {
        matches!(self, ProtocolKind::D1cc)
    }

    /// Expected nice-execution complexity `(delays, messages)` per the
    /// paper's tables (Tables 2, 3, 5 and the Appendix protocol text),
    /// under this library's measurement conventions (see EXPERIMENTS.md
    /// for the ±1 normalization notes on Table 5).
    pub fn nice_complexity_formula(self, n: u64, f: u64) -> (u64, u64) {
        match self {
            ProtocolKind::Inbac | ProtocolKind::InbacFastAbort => (2, 2 * f * n),
            ProtocolKind::Nbac1 | ProtocolKind::D1cc => (1, n * n - n),
            ProtocolKind::Nbac0 => (1, 0),
            ProtocolKind::ANbac => (n + 2 * f, n - 1 + f),
            ProtocolKind::AvNbacDelayOpt => (1, n * n - n),
            ProtocolKind::AvNbacMsgOpt => (2, 2 * n - 2),
            ProtocolKind::ChainNbac => (n + 2 * f, n - 1 + f),
            ProtocolKind::Nbac2n2 => (f + 2, 2 * n - 2),
            ProtocolKind::Nbac2n2f => {
                let d = if f == 1 { 2 * n - 1 } else { 2 * n + f - 2 };
                (d, 2 * n - 2 + f)
            }
            ProtocolKind::TwoPc => (2, 2 * n - 2),
            ProtocolKind::ThreePc => (4, 4 * n - 4),
            ProtocolKind::PaxosCommit => (3, n * f + 2 * n - 2),
            ProtocolKind::FasterPaxosCommit => (2, 2 * f * n + 2 * n - 2 * f - 2),
        }
    }

    /// Recommend protocols for a desired robustness: every protocol whose
    /// cell dominates `wanted` (after canonicalization), cheapest first —
    /// ordered by nice-execution messages, then delays, at the given
    /// `(n, f)`. This is the taxonomy turned into an API: ask for the
    /// guarantees you need, get the protocols that provide them at the
    /// lowest best-case cost.
    pub fn recommend(wanted: Cell, n: usize, f: usize) -> Vec<ProtocolKind> {
        let wanted = wanted.canonicalize();
        let mut fits: Vec<ProtocolKind> = ProtocolKind::all()
            .into_iter()
            .filter(|k| wanted.le(k.cell()))
            // Accelerated variants share their base cell; recommend the
            // canonical implementations.
            .filter(|k| !matches!(k, ProtocolKind::InbacFastAbort))
            .collect();
        fits.sort_by_key(|k| {
            let (d, m) = k.nice_complexity_formula(n as u64, f as u64);
            (m, d)
        });
        fits
    }

    /// Run `scenario` under this protocol.
    pub fn run(self, scenario: &Scenario) -> Outcome {
        match self {
            ProtocolKind::Inbac => scenario.run::<Inbac>(),
            ProtocolKind::InbacFastAbort => scenario.run::<InbacFastAbort>(),
            ProtocolKind::Nbac1 => scenario.run::<Nbac1>(),
            ProtocolKind::D1cc => scenario.run::<D1cc>(),
            ProtocolKind::Nbac0 => scenario.run::<Nbac0>(),
            ProtocolKind::ANbac => scenario.run::<ANbac>(),
            ProtocolKind::AvNbacDelayOpt => scenario.run::<AvNbacDelayOpt>(),
            ProtocolKind::AvNbacMsgOpt => scenario.run::<AvNbacMsgOpt>(),
            ProtocolKind::ChainNbac => scenario.run::<ChainNbac>(),
            ProtocolKind::Nbac2n2 => scenario.run::<Nbac2n2>(),
            ProtocolKind::Nbac2n2f => scenario.run::<Nbac2n2f>(),
            ProtocolKind::TwoPc => scenario.run::<TwoPc>(),
            ProtocolKind::ThreePc => scenario.run::<ThreePc>(),
            ProtocolKind::PaxosCommit => scenario.run::<PaxosCommit>(),
            ProtocolKind::FasterPaxosCommit => scenario.run::<FasterPaxosCommit>(),
        }
    }
}

/// Test executor that runs a protocol **at message speed**: every send is
/// handed over FIFO at a virtual instant far inside the first unit, and no
/// timer fires until the test says so. What a protocol gets done here it
/// gets done without its clock — the early-completion paths — and what it
/// sends when the timers finally fire is what a stale timer costs.
#[cfg(test)]
pub(crate) mod message_speed {
    use std::collections::VecDeque;

    use ac_sim::{Action, Ctx, ProcessId, Time};

    use crate::problem::{CommitProtocol, Vote};

    pub(crate) struct Run<P: CommitProtocol> {
        pub(crate) procs: Vec<P>,
        queue: VecDeque<(ProcessId, ProcessId, P::Msg)>,
        timers: Vec<(Time, ProcessId, u32)>,
        /// Inter-process messages sent so far (self-sends are free).
        pub(crate) wire: usize,
        pub(crate) decisions: Vec<Option<u64>>,
    }

    impl<P: CommitProtocol> Run<P> {
        /// Start every process and hand messages over until nothing is in
        /// flight.
        pub(crate) fn start(votes: &[Vote], f: usize) -> Self {
            let n = votes.len();
            let mut run = Run {
                procs: (0..n).map(|p| P::new(p, n, f, votes[p])).collect(),
                queue: VecDeque::new(),
                timers: Vec::new(),
                wire: 0,
                decisions: vec![None; n],
            };
            for p in 0..n {
                run.step(p, Time::ZERO, |a, ctx| a.on_start(ctx));
            }
            run.drain();
            run
        }

        fn step(&mut self, p: ProcessId, now: Time, f: impl FnOnce(&mut P, &mut Ctx<P::Msg>)) {
            let mut ctx = Ctx::new(now, p, self.procs.len(), false);
            f(&mut self.procs[p], &mut ctx);
            for action in ctx.take_actions() {
                match action {
                    Action::Send { to, msg } => {
                        self.wire += usize::from(to != p);
                        self.queue.push_back((p, to, msg));
                    }
                    Action::SetTimer { at, tag } => self.timers.push((at, p, tag)),
                    Action::Decide(v) => {
                        assert!(self.decisions[p].is_none(), "P{p} decided twice");
                        self.decisions[p] = Some(v);
                    }
                }
            }
        }

        fn drain(&mut self) {
            while let Some((from, to, msg)) = self.queue.pop_front() {
                self.step(to, Time(1), |a, ctx| a.on_message(from, msg, ctx));
            }
        }

        /// Hand `msg` from `from` to `to` out of the blue — a straggler —
        /// and run to quiescence.
        pub(crate) fn inject(&mut self, from: ProcessId, to: ProcessId, msg: P::Msg) {
            self.queue.push_back((from, to, msg));
            self.drain();
        }

        /// Fire every armed timer in deadline order (and whatever those
        /// arm), running to quiescence after each.
        pub(crate) fn fire_timers(&mut self) {
            while !self.timers.is_empty() {
                self.timers.sort_by_key(|&(at, p, _)| (at, p));
                let (at, p, tag) = self.timers.remove(0);
                self.step(p, at, |a, ctx| a.on_timer(tag, ctx));
                self.drain();
            }
        }

        pub(crate) fn all_decided(&self, v: u64) -> bool {
            self.decisions.iter().all(|&d| d == Some(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommend_indulgent_prefers_the_message_optimum() {
        let recs = ProtocolKind::recommend(Cell::INDULGENT, 6, 2);
        // Only the indulgent protocols qualify; (2n-2+f)NBAC is cheapest in
        // messages, then PaxosCommit, INBAC, FasterPaxosCommit.
        assert_eq!(
            recs,
            vec![
                ProtocolKind::Nbac2n2f,
                ProtocolKind::PaxosCommit,
                ProtocolKind::Inbac,
                ProtocolKind::FasterPaxosCommit,
            ]
        );
    }

    #[test]
    fn recommend_weak_cells_include_cheap_protocols() {
        let recs = ProtocolKind::recommend(Cell::new(PropSet::AT, PropSet::AT), 6, 2);
        assert_eq!(recs.first(), Some(&ProtocolKind::Nbac0), "0 messages wins");
        // Indulgent protocols also qualify (their cells dominate).
        assert!(recs.contains(&ProtocolKind::Inbac));
        // 2PC does not: its cell (AV, AV) lacks termination.
        assert!(!recs.contains(&ProtocolKind::TwoPc));
    }

    #[test]
    fn recommend_canonicalizes_empty_cells() {
        // (A, V) is an empty cell; it reduces to (AV, V), which e.g.
        // avNBAC and 1NBAC dominate.
        let recs = ProtocolKind::recommend(Cell::new(PropSet::A, PropSet::V), 5, 1);
        assert!(recs.contains(&ProtocolKind::AvNbacMsgOpt));
        assert!(recs.contains(&ProtocolKind::Nbac1));
        assert!(
            !recs.contains(&ProtocolKind::Nbac0),
            "0NBAC has no validity"
        );
    }

    #[test]
    fn every_protocol_dominates_its_own_cell() {
        for kind in ProtocolKind::all() {
            let recs = ProtocolKind::recommend(kind.cell(), 5, 2);
            assert!(
                recs.contains(&kind) || matches!(kind, ProtocolKind::InbacFastAbort),
                "{} missing from its own cell's recommendations",
                kind.name()
            );
        }
    }

    #[test]
    fn cells_and_formulas_are_consistent_with_bounds() {
        // No protocol may claim a nice execution cheaper than its cell's
        // lower bound (that would contradict the paper's Theorems 1/2).
        for kind in ProtocolKind::all() {
            for (n, f) in [(4usize, 1usize), (6, 2), (8, 5)] {
                let b = kind.cell().bounds(n, f);
                let (d, m) = kind.nice_complexity_formula(n as u64, f as u64);
                assert!(d >= b.delays, "{}: d {d} < bound {}", kind.name(), b.delays);
                assert!(
                    m >= b.messages,
                    "{}: m {m} < bound {}",
                    kind.name(),
                    b.messages
                );
            }
        }
    }
}
