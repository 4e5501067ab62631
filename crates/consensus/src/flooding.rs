//! FloodSet consensus — the synchronous-system counterpart of Paxos.
//!
//! The paper's two system models demand different consensus substrates:
//! indulgent protocols (INBAC & co.) need a module that terminates in a
//! *network-failure* system and therefore tolerate only a minority of
//! crashes (Paxos, [`crate::paxos`]). Synchronous NBAC instead lives in a
//! crash-failure system, where the classic FloodSet algorithm (Lynch,
//! ch. 6) decides in `f+1` rounds while tolerating up to `f = n−1` crashes.
//!
//! Both implement uniform consensus under their respective model, making
//! the trade-off of the paper's Table 1 concrete at the substrate level:
//! FloodSet's agreement silently breaks if a message outlives its round
//! (demonstrated in the tests), which is exactly why the indulgent
//! protocols must pay for Paxos.
//!
//! Protocol: every process broadcasts the set of proposals it has seen at
//! each of `f+1` synchronous rounds (one message delay per round); after
//! round `f+1` everyone decides the minimum of its set. With at most `f`
//! crashes some round is crash-free, after which all sets are equal.

use ac_sim::{Ctx, ProcessId, Time, U};

/// Timer tags used by the flooding instance (below `CONS_TAG_BASE`, so it
/// can coexist with a Paxos instance if a host ever runs both).
const FLOOD_TAG_BASE: u32 = 1 << 12;

/// A flooding message: the sender's current set of seen proposals, as a
/// sorted vector.
pub type FloodMsg = Vec<u64>;

/// One process of FloodSet consensus.
#[derive(Clone, Debug)]
pub struct FloodSet {
    f: usize,
    seen: Vec<u64>,
    round: u64,
    started: Option<Time>,
    decided: Option<u64>,
}

impl FloodSet {
    /// A FloodSet instance for one process of `n` tolerating `f` crashes.
    pub fn new(_me: ProcessId, _n: usize, f: usize) -> Self {
        FloodSet {
            f,
            seen: Vec::new(),
            round: 0,
            started: None,
            decided: None,
        }
    }

    /// Whether `tag` belongs to this sub-automaton's round timers (hosts
    /// route such timers to [`FloodSet::on_timer`]).
    #[inline]
    pub fn owns_tag(&self, tag: u32) -> bool {
        (FLOOD_TAG_BASE..FLOOD_TAG_BASE + self.f as u32 + 2).contains(&tag)
    }

    /// The decided value, once the final round has completed.
    #[inline]
    pub fn decision(&self) -> Option<u64> {
        self.decided
    }

    fn insert(&mut self, v: u64) {
        if let Err(i) = self.seen.binary_search(&v) {
            self.seen.insert(i, v);
        }
    }

    /// Propose `v`; rounds are scheduled at `U`-multiples from now.
    pub fn propose<M: Clone + std::fmt::Debug>(
        &mut self,
        v: u64,
        ctx: &mut Ctx<M>,
        wrap: fn(FloodMsg) -> M,
    ) {
        if self.started.is_some() {
            return;
        }
        self.started = Some(ctx.now());
        self.insert(v);
        ctx.broadcast_others(wrap(self.seen.clone()));
        self.round = 1;
        ctx.set_timer(ctx.now() + U, FLOOD_TAG_BASE + 1);
    }

    /// Merge a flood message.
    pub fn on_message(&mut self, set: FloodMsg) {
        for v in set {
            self.insert(v);
        }
    }

    /// Round boundary. Returns `Some(decision)` after round `f+1`.
    pub fn on_timer<M: Clone + std::fmt::Debug>(
        &mut self,
        tag: u32,
        ctx: &mut Ctx<M>,
        wrap: fn(FloodMsg) -> M,
    ) -> Option<u64> {
        debug_assert!(self.owns_tag(tag));
        if self.decided.is_some() || (tag - FLOOD_TAG_BASE) as u64 != self.round {
            return None;
        }
        if self.round <= self.f as u64 {
            ctx.broadcast_others(wrap(self.seen.clone()));
            self.round += 1;
            ctx.set_timer(ctx.now() + U, FLOOD_TAG_BASE + self.round as u32);
            None
        } else {
            let d = *self
                .seen
                .first()
                .expect("own proposal is always in the set");
            self.decided = Some(d);
            Some(d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_sim::Automaton;

    /// Standalone automaton wrapping one FloodSet instance (also used by
    /// the crate's integration tests).
    #[derive(Debug)]
    pub struct FloodProc {
        pub inner: FloodSet,
        pub proposal: u64,
    }

    impl Automaton for FloodProc {
        type Msg = FloodMsg;

        fn on_start(&mut self, ctx: &mut Ctx<FloodMsg>) {
            let v = self.proposal;
            self.inner.propose(v, ctx, |m| m);
        }
        fn on_message(&mut self, _from: ProcessId, msg: FloodMsg, _ctx: &mut Ctx<FloodMsg>) {
            self.inner.on_message(msg);
        }
        fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<FloodMsg>) {
            if let Some(d) = self.inner.on_timer(tag, ctx, |m| m) {
                ctx.decide(d);
            }
        }
    }

    use ac_net::{Crash, DelayRule, FaultPlan, FixedDelay, World, WorldConfig};

    fn run(
        proposals: &[u64],
        f: usize,
        faults: FaultPlan,
        rules: Vec<DelayRule>,
    ) -> ac_net::Outcome {
        let n = proposals.len();
        let procs: Vec<FloodProc> = (0..n)
            .map(|me| FloodProc {
                inner: FloodSet::new(me, n, f),
                proposal: proposals[me],
            })
            .collect();
        let faults = rules.into_iter().fold(faults, FaultPlan::with_rule);
        let delay = Box::new(FixedDelay::unit());
        World::new(procs, delay, faults, WorldConfig::default()).run()
    }

    #[test]
    fn failure_free_unanimity() {
        let out = run(&[7, 7, 7], 2, FaultPlan::none(3), vec![]);
        assert_eq!(out.decided_values(), vec![7]);
        // f+1 = 3 rounds of n(n-1) messages.
        assert_eq!(out.metrics().messages_total, 3 * 6);
    }

    #[test]
    fn decides_minimum_of_proposals() {
        let out = run(&[5, 2, 9, 4], 1, FaultPlan::none(4), vec![]);
        assert_eq!(out.decided_values(), vec![2]);
    }

    #[test]
    fn tolerates_n_minus_1_crashes() {
        // This is what Paxos cannot do — and why synchronous NBAC enjoys
        // n−1 resilience.
        let n = 4;
        let faults = FaultPlan::none(n)
            .with_crash(0, Crash::partial(Time::ZERO, 1))
            .with_crash(1, Crash::at(Time::units(1)))
            .with_crash(2, Crash::at(Time::units(2)));
        let out = run(&[1, 2, 3, 4], n - 1, faults, vec![]);
        // The sole survivor decides; uniform agreement is vacuous here but
        // the decision must be some proposal (validity).
        let d = out.decision_of(3).expect("survivor decides");
        assert!((1..=4).contains(&d));
    }

    #[test]
    fn mid_round_crash_chains_preserve_agreement() {
        // The classic hard case: each round, one process crashes while
        // relaying fresh information to exactly one other process. With
        // f+1 rounds there are more rounds than crashes, so some round is
        // clean.
        let n = 4;
        let faults = FaultPlan::none(n)
            .with_crash(0, Crash::partial(Time::ZERO, 1))
            .with_crash(1, Crash::partial(Time::units(1), 1));
        let out = run(&[1, 9, 9, 9], 2, faults, vec![]);
        let vals = out.decided_values();
        assert_eq!(vals.len(), 1, "disagreement: {vals:?}");
    }

    #[test]
    fn network_failure_breaks_floodset_agreement() {
        // A message delayed past its round boundary splits the decision —
        // flooding is NOT indulgent, which is exactly why INBAC needs
        // Paxos underneath (Definition 5 demands NF termination).
        let n = 3;
        // P1 proposes the minimum but its floods to P3 are delayed beyond
        // all f+1 = 2 rounds; P2's relays to P3 likewise.
        let rules = vec![
            DelayRule::from_process(0, 10 * U),
            DelayRule::link(1, 2, Time::ZERO, Time::units(10), 10 * U),
        ];
        let out = run(&[1, 5, 5], 1, FaultPlan::none(n), rules);
        let vals = out.decided_values();
        assert_eq!(vals, vec![1, 5], "expected split decision, got {vals:?}");
    }
}
