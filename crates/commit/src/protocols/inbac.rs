//! INBAC — indulgent non-blocking atomic commit (§5, Appendix A).
//!
//! The paper's main protocol: solves NBAC in **every network-failure
//! execution** (Definition 3) and is optimal on both axes — 2 message
//! delays (Theorem 1) and, given 2 delays, `2fn` messages (Theorem 5) in
//! nice executions.
//!
//! Mechanics, following Lemmas 1 and 5:
//!
//! * at time 0 every process `P` sends its vote to its `f` **backup
//!   processes** `B_P` (`B_P = {P1..Pf}` for `P ∈ {P_{f+1}..P_n}`,
//!   `B_P = {P1..P_{f+1}} \ {P}` otherwise);
//! * at time `U` each backup acknowledges *the whole set* of votes it holds
//!   in one `[C, collection]` message (Lemma 6 makes bundled
//!   acknowledgements of other processes' votes necessary);
//! * at time `2U` a process holding `f` complete acknowledgements knows all
//!   `n` votes are backed up `f` times and decides their AND — without ever
//!   invoking consensus;
//! * otherwise it proposes to an indulgent uniform consensus (1 if it can
//!   see all `n` votes, else 0), first asking `P_{f+1}..P_n` for help
//!   (`[HELP]`/`[HELPED]`) if it received no acknowledgement at all.
//!
//! ## What the timers mean
//!
//! The list above is the simulator's unit grid, where every message takes
//! exactly `U`. Two of the three waits are *complete-able* collections,
//! and their timers only bound them:
//!
//! * **`TAG1` (`1·U`)** guards "every vote this backup is owed" — `n` for
//!   a primary `P1..Pf`, `f` for the secondary `P_{f+1}`. Its action,
//!   `InbacCore::close_votes` (acknowledge, enter phase 1, arm `TAG2`),
//!   runs from `on_message` the moment the last owed vote is in, and from
//!   the timer only if the round is still open.
//! * **`TAG2` (`2·U`)** guards `acks_complete()`. Its fast-path action,
//!   `InbacCore::try_fast_decide`, runs on every `[C]` and decides the
//!   moment the acknowledgements are complete; the predicate is monotone,
//!   so this is the decision the timer would have taken, only sooner.
//!
//! What stays clock-driven is everything whose trigger is **silence**:
//! at `2·U` the timer still advances `P_{f+1}..P_n` to phase 2 — folding
//! what they learnt into `collection0` and serving `[HELP]` — and sends
//! any process with *incomplete* acknowledgements to consensus or `[HELP]`.
//! A helper must not answer before `2·U`: the agreement proof (Appendix B)
//! needs its `[HELPED]` to carry every acknowledgement that a synchronous
//! run could still deliver to it, and "no more acks are coming" is a
//! statement only the clock can make. So a nice execution decides after
//! two message hand-offs however long `U` is, while on the unit grid —
//! where the last message of a round and its timer coincide, deliveries
//! first — every execution is unchanged.
//!
//! [`InbacFastAbort`] adds the §5.2 acceleration: a 0-voter broadcasts its
//! vote and decides immediately, making failure-free aborts terminate after
//! one message delay.

use ac_consensus::{CtxHost, Paxos, PaxosMsg, CONS_TAG_BASE};
use ac_sim::{Automaton, Ctx, ProcessId, Time};

use crate::problem::{decision_value, validate_params, CommitProtocol, Vote};

const TAG1: u32 = 1;
const TAG2: u32 = 2;

/// A set of (process, vote) pairs, kept sorted by process id.
pub type VoteSet = Vec<(ProcessId, bool)>;

fn vs_insert(set: &mut VoteSet, p: ProcessId, v: bool) {
    match set.binary_search_by_key(&p, |&(q, _)| q) {
        Ok(i) => debug_assert_eq!(set[i].1, v, "a process cannot vote twice differently"),
        Err(i) => set.insert(i, (p, v)),
    }
}

fn vs_merge(dst: &mut VoteSet, src: &VoteSet) {
    for &(p, v) in src {
        vs_insert(dst, p, v);
    }
}

/// AND of all `n` votes if the set covers `0..n`.
fn vs_and_complete(set: &VoteSet, n: usize) -> Option<bool> {
    if set.len() == n {
        Some(set.iter().all(|&(_, v)| v))
    } else {
        None
    }
}

/// INBAC's message alphabet (Appendix A pseudocode).
#[derive(Clone, Debug)]
pub enum InbacMsg {
    /// `[V, v]` — a vote sent to its backups.
    V(bool),
    /// `[C, collection]` — a backup's bundled acknowledgement.
    C(VoteSet),
    /// `[HELP]` — solicit acknowledged state from `P_{f+1}..P_n`.
    Help,
    /// `[HELPED, collection0]` — reply to `[HELP]`.
    Helped(VoteSet),
    /// Fast-abort announcement (`InbacFastAbort` only).
    Abort0,
    /// Consensus sub-protocol traffic.
    Cons(PaxosMsg),
}

/// One process of INBAC. Generic flavour shared by [`Inbac`] and
/// [`InbacFastAbort`].
#[derive(Debug)]
pub struct InbacCore {
    me: ProcessId,
    n: usize,
    f: usize,
    fast_abort: bool,
    /// Bundle all backed-up votes into one `[C, V]` acknowledgement (the
    /// paper's design, "a necessary design … summarized in Lemma 6").
    /// The unbundled ablation sends one `[C, {(p,v)}]` per vote instead.
    bundle_acks: bool,
    phase: u8,
    proposed: bool,
    decided: bool,
    /// Votes directly received (plus, after 2U, everything learnt).
    collection0: VoteSet,
    /// Acknowledgements: sender -> the vote set it acknowledged.
    collection1: Vec<(ProcessId, VoteSet)>,
    collection_help: VoteSet,
    wait: bool,
    val: bool,
    cnt: usize,
    cnt_help: usize,
    /// Help requests that arrived before we reached phase 2 (Appendix A
    /// remark (c): queue a message until its guard is satisfiable).
    pending_help: Vec<ProcessId>,
    cons: Paxos,
}

impl InbacCore {
    fn with_bundling(
        me: ProcessId,
        n: usize,
        f: usize,
        vote: Vote,
        fast_abort: bool,
        bundle_acks: bool,
    ) -> Self {
        validate_params(n, f);
        InbacCore {
            me,
            n,
            f,
            fast_abort,
            bundle_acks,
            phase: 0,
            proposed: false,
            decided: false,
            collection0: Vec::new(),
            collection1: Vec::new(),
            collection_help: Vec::new(),
            wait: false,
            val: vote,
            cnt: 0,
            cnt_help: 0,
            pending_help: Vec::new(),
            cons: Paxos::with_tag_base(me, n, CONS_TAG_BASE),
        }
    }

    /// Whether this process is in `{P1..Pf}` (1-based), i.e. a primary
    /// backup that broadcasts acknowledgements to everyone.
    #[inline]
    fn is_primary_backup(&self) -> bool {
        self.me < self.f
    }

    /// Whether this process is `P_{f+1}`, the secondary backup serving only
    /// `{P1..Pf}`.
    #[inline]
    fn is_secondary_backup(&self) -> bool {
        self.me == self.f
    }

    /// How many votes this backup is owed in phase 0: everyone's for a
    /// primary, those of `P1..Pf` for the secondary.
    #[inline]
    fn votes_owed(&self) -> usize {
        if self.is_primary_backup() {
            self.n
        } else {
            self.f
        }
    }

    /// Close the vote round of a backup: acknowledge the backed-up votes,
    /// enter phase 1 and arm `TAG2`. Called by `on_message` as soon as
    /// every owed vote is in, and by `TAG1` if the round is still open.
    fn close_votes(&mut self, ctx: &mut Ctx<InbacMsg>) {
        debug_assert!(self.me <= self.f && self.phase == 0);
        let acks: Vec<InbacMsg> = if self.bundle_acks {
            vec![InbacMsg::C(self.collection0.clone())]
        } else {
            self.collection0
                .iter()
                .map(|&(p, v)| InbacMsg::C(vec![(p, v)]))
                .collect()
        };
        for c in acks {
            if self.is_primary_backup() {
                ctx.broadcast(c);
            } else {
                debug_assert!(self.is_secondary_backup());
                for q in 0..self.f {
                    ctx.send(q, c.clone());
                }
            }
        }
        self.phase = 1;
        ctx.set_timer(Time::units(2), TAG2);
    }

    /// Figure 1's fast path: decide the AND of the votes iff the `f`
    /// backups confirmed everything. Called on every `[C]` (the
    /// acknowledgements just became complete) and wherever the slow path
    /// re-evaluates them. Returns whether the process is now decided.
    fn try_fast_decide(&mut self, ctx: &mut Ctx<InbacMsg>) -> bool {
        match self.acks_complete() {
            Some(and) => {
                ctx.trace(|| format!("all {} acks complete -> decide {}", self.f, and as u8));
                self.decide(and, ctx);
                true
            }
            None => false,
        }
    }

    fn decide(&mut self, v: bool, ctx: &mut Ctx<InbacMsg>) {
        if !self.decided {
            self.decided = true;
            ctx.decide(decision_value(v));
        }
    }

    fn cons_propose(&mut self, v: bool, ctx: &mut Ctx<InbacMsg>) {
        if !self.proposed && !self.decided {
            self.proposed = true;
            ctx.trace(|| format!("cons-propose {}", v as u8));
            let mut host = CtxHost {
                ctx,
                wrap: InbacMsg::Cons,
            };
            self.cons.propose(decision_value(v), &mut host);
        }
    }

    fn cons_decided(&mut self, d: Option<u64>, ctx: &mut Ctx<InbacMsg>) {
        if let Some(v) = d {
            if !self.decided {
                self.decided = true;
                ctx.decide(v);
            }
        }
    }

    /// All votes learnt through acknowledgements.
    fn ack_union(&self) -> VoteSet {
        let mut u = VoteSet::new();
        for (_, c) in &self.collection1 {
            vs_merge(&mut u, c);
        }
        u
    }

    /// The "f correct acks? n votes in the acks?" test of Figure 1,
    /// verbatim from the Appendix A pseudocode.
    ///
    /// * For `P ∈ {P_{f+1}..P_n}`: `collection1` must hold an entry from
    ///   every primary `P1..Pf`, each covering all `n` votes.
    /// * For `P ∈ {P1..Pf}`: additionally an entry from the secondary
    ///   `P_{f+1}` covering the `f` votes of `P1..Pf`. The entry from `P`
    ///   itself arrives through its own (free) self-broadcast.
    fn acks_complete(&self) -> Option<bool> {
        let find = |p: ProcessId| {
            self.collection1
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, c)| c)
        };
        let mut union = VoteSet::new();
        for p in 0..self.f {
            let c = find(p)?;
            if c.len() != self.n {
                return None;
            }
            vs_merge(&mut union, c);
        }
        if self.me < self.f {
            let c = find(self.f)?;
            if c.len() != self.f {
                return None;
            }
            vs_merge(&mut union, c);
        }
        vs_and_complete(&union, self.n)
    }

    /// Figure 1's left column at `2·U`: decide if the `f` backups confirmed
    /// everything, else propose to consensus (or ask for help).
    fn decide_or_propose(&mut self, ctx: &mut Ctx<InbacMsg>) {
        if self.try_fast_decide(ctx) {
            return;
        }
        if self.cnt >= 1 {
            match vs_and_complete(&self.ack_union(), self.n) {
                Some(and) => self.cons_propose(and, ctx),
                None => self.cons_propose(false, ctx),
            }
        } else {
            // No acknowledgement at all (only reachable for P_{f+1}..P_n;
            // primaries always hold their own self-acknowledgement):
            // ask {P_{f+1}..P_n} for the acknowledged state they hold.
            ctx.trace(|| "no ack at all -> HELP".to_string());
            self.wait = true;
            for q in self.f..self.n {
                ctx.send(q, InbacMsg::Help);
            }
        }
    }

    /// The condition-triggered handler `upon cnt + cnt_help >= n - f and
    /// wait ...` — re-evaluated after every state change.
    fn maybe_complete_wait(&mut self, ctx: &mut Ctx<InbacMsg>) {
        if !self.wait || self.proposed || self.decided || self.me < self.f {
            return;
        }
        if self.cnt + self.cnt_help < self.n - self.f {
            return;
        }
        self.wait = false;
        if self.try_fast_decide(ctx) {
            return;
        }
        if self.cnt >= 1 {
            match vs_and_complete(&self.ack_union(), self.n) {
                Some(and) => self.cons_propose(and, ctx),
                None => self.cons_propose(false, ctx),
            }
        } else {
            match vs_and_complete(&self.collection_help, self.n) {
                Some(and) => self.cons_propose(and, ctx),
                None => self.cons_propose(false, ctx),
            }
        }
    }

    fn serve_help(&mut self, to: ProcessId, ctx: &mut Ctx<InbacMsg>) {
        ctx.send(to, InbacMsg::Helped(self.collection0.clone()));
    }

    fn on_start(&mut self, ctx: &mut Ctx<InbacMsg>) {
        if self.fast_abort && !self.val {
            // §5.2: a 0-voter broadcasts its vote and decides immediately;
            // the rest of the protocol still runs for everyone else.
            ctx.broadcast_others(InbacMsg::Abort0);
            self.decide(false, ctx);
        }
        for q in 0..self.f {
            ctx.send(q, InbacMsg::V(self.val));
        }
        if self.me < self.f {
            ctx.send(self.f, InbacMsg::V(self.val));
        }
        if self.me <= self.f {
            ctx.set_timer(Time::units(1), TAG1);
        } else {
            ctx.set_timer(Time::units(2), TAG2);
            self.phase = 1;
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: InbacMsg, ctx: &mut Ctx<InbacMsg>) {
        match msg {
            InbacMsg::V(v) => {
                // Only an open vote round listens (stragglers after the
                // acknowledgement went out change nothing), and within it
                // the first vote binds (`vs_insert`).
                if self.phase == 0 {
                    vs_insert(&mut self.collection0, from, v);
                    if self.collection0.len() == self.votes_owed() {
                        self.close_votes(ctx);
                    }
                }
            }
            InbacMsg::C(collection) => {
                // Merge per sender: with bundled acks there is exactly one
                // [C,·] per backup; the unbundled ablation splits them.
                match self.collection1.iter_mut().find(|(q, _)| *q == from) {
                    Some((_, c)) => vs_merge(c, &collection),
                    None => self.collection1.push((from, collection)),
                }
                self.cnt += 1;
                if self.wait {
                    self.maybe_complete_wait(ctx);
                } else if !self.decided && !self.proposed {
                    // Acknowledgements complete: nothing left to wait for.
                    // `TAG2` still fires to advance the phase.
                    self.try_fast_decide(ctx);
                }
            }
            InbacMsg::Help => {
                if self.phase == 2 && self.me >= self.f {
                    self.serve_help(from, ctx);
                } else {
                    self.pending_help.push(from);
                }
            }
            InbacMsg::Helped(collection) => {
                if self.me >= self.f {
                    vs_merge(&mut self.collection_help, &collection);
                    self.cnt_help += 1;
                    self.maybe_complete_wait(ctx);
                }
            }
            InbacMsg::Abort0 => {
                debug_assert!(self.fast_abort);
                self.decide(false, ctx);
            }
            InbacMsg::Cons(m) => {
                let mut host = CtxHost {
                    ctx,
                    wrap: InbacMsg::Cons,
                };
                let dec = self.cons.on_message(from, m, &mut host);
                self.cons_decided(dec, ctx);
            }
        }
    }

    fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<InbacMsg>) {
        if self.cons.owns_tag(tag) {
            let mut host = CtxHost {
                ctx,
                wrap: InbacMsg::Cons,
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
                if self.me >= self.f {
                    // Progress to phase 2 even when already decided (the
                    // fast-abort path can decide before 2U): help requests
                    // must still be served or a process that missed the
                    // abort broadcast of a crashed 0-voter waits forever —
                    // found by the exhaustive explorer.
                    self.phase = 2;
                    // Fold everything learnt into collection0 so later
                    // [HELPED] replies carry it (key to the agreement
                    // proof in Appendix B).
                    let union = self.ack_union();
                    vs_merge(&mut self.collection0, &union);
                    vs_insert(&mut self.collection0, self.me, self.val);
                    let pending = std::mem::take(&mut self.pending_help);
                    for p in pending {
                        self.serve_help(p, ctx);
                    }
                    if !self.decided && !self.proposed {
                        self.decide_or_propose(ctx);
                    }
                } else if !self.decided && !self.proposed {
                    // P1..Pf can always conclude at 2U.
                    if self.try_fast_decide(ctx) {
                        return;
                    }
                    match vs_and_complete(&self.ack_union(), self.n) {
                        Some(and) => self.cons_propose(and, ctx),
                        None => self.cons_propose(false, ctx),
                    }
                }
            }
            other => unreachable!("unknown INBAC timer tag {other}"),
        }
    }
}

macro_rules! inbac_flavor {
    ($name:ident, $disp:expr, $fast:expr, $bundle:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Debug)]
        pub struct $name(InbacCore);

        impl CommitProtocol for $name {
            const NAME: &'static str = $disp;

            fn new(me: ProcessId, n: usize, f: usize, vote: Vote) -> Self {
                $name(InbacCore::with_bundling(me, n, f, vote, $fast, $bundle))
            }
        }

        impl Automaton for $name {
            type Msg = InbacMsg;

            fn on_start(&mut self, ctx: &mut Ctx<InbacMsg>) {
                self.0.on_start(ctx);
            }
            fn on_message(&mut self, from: ProcessId, msg: InbacMsg, ctx: &mut Ctx<InbacMsg>) {
                self.0.on_message(from, msg, ctx);
            }
            fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<InbacMsg>) {
                self.0.on_timer(tag, ctx);
            }
        }
    };
}

inbac_flavor!(
    Inbac,
    "INBAC",
    false,
    true,
    "INBAC exactly as in Appendix A: 2 delays, `2fn` messages in nice executions."
);
inbac_flavor!(
    InbacFastAbort,
    "INBAC+fast-abort",
    true,
    true,
    "INBAC with the §5.2 acceleration: failure-free aborts decide after one delay."
);
inbac_flavor!(
    InbacUnbundledAck,
    "INBAC(unbundled)",
    false,
    false,
    "Ablation: one acknowledgement per backed-up vote instead of the bundled \
     `[C, V]` — still 2 delays but `nf + fn(n−1) + f²` messages, demonstrating \
     why Lemma 6's bundled design is necessary for the `2fn` optimum."
);

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
    fn nice_execution_is_2_delays_2fn_messages() {
        for n in 2..=8 {
            for f in 1..n {
                let (d, m) = nice_complexity::<Inbac>(n, f);
                assert_eq!(d, 2, "n={n} f={f}");
                assert_eq!(m, (2 * f * n) as u64, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn decides_at_message_speed_and_ignores_stragglers() {
        let (n, f) = (5, 2);
        let mut run = Run::<Inbac>::start(&vec![true; n], f);
        // No timer has fired: every backup acknowledged on its last owed
        // vote and everyone decided on its last acknowledgement.
        assert!(run.all_decided(1));
        assert_eq!(run.wire, 2 * f * n);
        // A vote re-sent to a primary and to the secondary after their
        // rounds closed, then the stale timers: `TAG1` is a no-op, `TAG2`
        // only advances the phase.
        run.inject(3, 0, InbacMsg::V(true));
        run.inject(0, f, InbacMsg::V(false));
        run.fire_timers();
        assert_eq!(run.wire, 2 * f * n, "no second acknowledgement");
        assert!(run.procs.iter().skip(f).all(|p| p.0.phase == 2));
    }

    #[test]
    fn everyone_commits_without_consensus_in_nice_runs() {
        let out = Scenario::nice(5, 2).run::<Inbac>();
        assert_eq!(out.decided_values(), vec![1]);
        // All decisions at exactly 2U.
        for d in &out.decisions {
            assert_eq!(d.unwrap().0, Time::units(2));
        }
    }

    #[test]
    fn failure_free_abort_also_takes_two_delays() {
        // §5.2: without the fast path, an all-correct execution with a 0
        // vote has the same complexity as a nice execution.
        let sc = Scenario::nice(5, 2).vote_no(3);
        let out = sc.run::<Inbac>();
        assert_eq!(out.decided_values(), vec![0]);
        for d in &out.decisions {
            assert_eq!(d.unwrap().0, Time::units(2));
        }
        assert_eq!(out.metrics().messages, 2 * 2 * 5);
    }

    #[test]
    fn fast_abort_terminates_in_one_delay() {
        let sc = Scenario::nice(5, 2).vote_no(3);
        let out = sc.run::<InbacFastAbort>();
        assert_eq!(out.decided_values(), vec![0]);
        assert_eq!(
            out.decisions[3].unwrap().0,
            Time::ZERO,
            "0-voter decides instantly"
        );
        for p in [0usize, 1, 2, 4] {
            assert_eq!(out.decisions[p].unwrap().0, Time::units(1), "P{}", p + 1);
        }
    }

    #[test]
    fn fast_abort_nice_runs_unchanged() {
        for n in 3..=6 {
            assert_eq!(
                nice_complexity::<InbacFastAbort>(n, 2.min(n - 1)),
                nice_complexity::<Inbac>(n, 2.min(n - 1)),
                "n={n}"
            );
        }
    }

    #[test]
    fn crash_executions_solve_nbac() {
        // f=1, n=4: any single crash at any interesting time, full or
        // partial — NBAC (AVT) must hold.
        let n = 4;
        for victim in 0..n {
            for t in 0..4u64 {
                for partial in [None, Some(1), Some(2)] {
                    let crash = match partial {
                        None => Crash::at(Time::units(t)),
                        Some(k) => Crash::partial(Time::units(t), k),
                    };
                    let sc = Scenario::nice(n, 1).crash(victim, crash);
                    let out = sc.run::<Inbac>();
                    check(&out, &sc.votes, ProtocolKind::Inbac.cell())
                        .assert_ok(&format!("victim={victim} t={t}U partial={partial:?}"));
                }
            }
        }
    }

    #[test]
    fn network_failure_executions_solve_nbac() {
        // Indulgence: delayed acknowledgements push processes into the
        // consensus path but NBAC still holds (this is Definition 3).
        for delayed in 0..4usize {
            let sc = Scenario::nice(4, 1).rule(DelayRule::from_process(delayed, 5 * U));
            let out = sc.run::<Inbac>();
            check(&out, &sc.votes, ProtocolKind::Inbac.cell())
                .assert_ok(&format!("delayed={delayed}"));
            assert!(
                out.decisions.iter().all(|d| d.is_some()),
                "delayed={delayed}"
            );
        }
    }

    #[test]
    fn help_path_is_exercised_when_primaries_are_slow() {
        // Delay all primary backups' acknowledgements to P4 (n=4, f=1):
        // P4 gets no ack at 2U, asks P2..P4 for help, and completes via
        // [HELPED] replies.
        let n = 4;
        let sc = Scenario::nice(n, 1).traced().rule(DelayRule::link(
            0,
            3,
            Time::units(1),
            Time::units(2),
            6 * U,
        ));
        let out = sc.run::<Inbac>();
        check(&out, &sc.votes, ProtocolKind::Inbac.cell()).assert_ok("slow primary");
        assert!(out.decisions.iter().all(|d| d.is_some()));
        let notes: Vec<String> = out
            .trace
            .iter()
            .filter_map(|e| match &e.kind {
                ac_sim::TraceKind::Note { text, .. } => Some(text.clone()),
                _ => None,
            })
            .collect();
        assert!(
            notes.iter().any(|t| t.contains("HELP")),
            "help path not taken: {notes:?}"
        );
    }

    #[test]
    fn primary_crash_before_ack_is_tolerated() {
        // The only primary backup (f=1) crashes right before acknowledging:
        // nobody can decide fast; consensus must settle it. n=5 keeps a
        // correct majority.
        let sc = Scenario::nice(5, 1).crash(0, Crash::at(Time::units(1)));
        let out = sc.run::<Inbac>();
        check(&out, &sc.votes, ProtocolKind::Inbac.cell()).assert_ok("primary crash");
        assert!(out
            .decisions
            .iter()
            .enumerate()
            .all(|(p, d)| p == 0 || d.is_some()));
    }

    #[test]
    fn unbundled_acks_blow_up_the_message_count() {
        for (n, f) in [(4usize, 1usize), (5, 2), (6, 3)] {
            let (d, m) = nice_complexity::<InbacUnbundledAck>(n, f);
            assert_eq!(d, 2, "still two delays");
            let expected = n * f + f * n * (n - 1) + f * f;
            assert_eq!(m, expected as u64, "n={n} f={f}");
            assert!(m > (2 * f * n) as u64, "bundling is what achieves 2fn");
        }
    }

    #[test]
    fn vote_set_helpers() {
        let mut s = VoteSet::new();
        vs_insert(&mut s, 2, true);
        vs_insert(&mut s, 0, false);
        vs_insert(&mut s, 1, true);
        vs_insert(&mut s, 1, true); // duplicate is a no-op
        assert_eq!(s, vec![(0, false), (1, true), (2, true)]);
        assert_eq!(vs_and_complete(&s, 3), Some(false));
        assert_eq!(vs_and_complete(&s, 4), None);
        let mut d = VoteSet::new();
        vs_merge(&mut d, &s);
        assert_eq!(d, s);
    }
}
