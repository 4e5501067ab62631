//! Simulation-level tests of the Paxos module: full executions in
//! `ac_net::World` under crashes, chaos and adversarial delays.

use ac_consensus::{ConsensusHost, CtxHost, Paxos, PaxosMsg};
use ac_net::{Crash, DelayRule, FaultPlan, FixedDelay, GstDelay, World, WorldConfig};
use ac_sim::{Automaton, Ctx, ProcessId, Time, U};

/// Minimal automaton hosting one Paxos instance.
#[derive(Debug)]
struct PaxosProc {
    inner: Paxos,
    proposal: Option<u64>,
}

impl PaxosProc {
    fn new(me: ProcessId, n: usize, proposal: Option<u64>) -> Self {
        PaxosProc {
            inner: Paxos::new(me, n),
            proposal,
        }
    }
}

impl Automaton for PaxosProc {
    type Msg = PaxosMsg;

    fn on_start(&mut self, ctx: &mut Ctx<PaxosMsg>) {
        if let Some(v) = self.proposal {
            let mut host = CtxHost { ctx, wrap: |m| m };
            self.inner.propose(v, &mut host);
        }
    }
    fn on_message(&mut self, from: ProcessId, msg: PaxosMsg, ctx: &mut Ctx<PaxosMsg>) {
        let mut host = CtxHost { ctx, wrap: |m| m };
        if let Some(d) = self.inner.on_message(from, msg, &mut host) {
            ctx.decide(d);
        }
    }
    fn on_timer(&mut self, tag: u32, ctx: &mut Ctx<PaxosMsg>) {
        let mut host = CtxHost { ctx, wrap: |m| m };
        if let Some(d) = self.inner.on_timer(tag, &mut host) {
            ctx.decide(d);
        }
    }
}

fn world(
    proposals: Vec<Option<u64>>,
    faults: FaultPlan,
    delay: Box<dyn ac_net::DelayModel>,
) -> ac_net::Outcome {
    let n = proposals.len();
    let procs: Vec<PaxosProc> = proposals
        .into_iter()
        .enumerate()
        .map(|(me, p)| PaxosProc::new(me, n, p))
        .collect();
    World::new(
        procs,
        delay,
        faults,
        WorldConfig {
            horizon: Time::units(3000),
            trace: false,
        },
    )
    .run()
}

#[test]
fn unanimous_fast_decision() {
    let out = world(
        vec![Some(1); 5],
        FaultPlan::none(5),
        Box::new(FixedDelay::unit()),
    );
    assert_eq!(out.decided_values(), vec![1]);
    assert!(out.decisions.iter().all(|d| d.is_some()));
    // Round-0 coordinator drives two phases + decide: everyone is done
    // within a handful of delays.
    let last = out
        .decisions
        .iter()
        .flatten()
        .map(|&(t, _)| t)
        .max()
        .unwrap();
    assert!(last <= Time::units(6), "slow decision: {last}");
}

#[test]
fn mixed_proposals_decide_a_proposed_value() {
    for votes in [[0, 1, 0], [1, 0, 1], [0, 0, 1]] {
        let out = world(
            votes.iter().map(|&v| Some(v as u64)).collect(),
            FaultPlan::none(3),
            Box::new(FixedDelay::unit()),
        );
        let vals = out.decided_values();
        assert_eq!(vals.len(), 1, "agreement: {vals:?}");
        assert!(
            votes.contains(&(vals[0] as i32)),
            "validity: {vals:?} from {votes:?}"
        );
    }
}

#[test]
fn minority_crashes_do_not_block() {
    // 2 of 5 crash (one is the round-0 coordinator).
    let faults = FaultPlan::none(5)
        .with_crash(0, Crash::at(Time::units(2)))
        .with_crash(3, Crash::initially());
    let out = world(vec![Some(1); 5], faults, Box::new(FixedDelay::unit()));
    for p in [1usize, 2, 4] {
        assert!(out.decisions[p].is_some(), "P{} undecided", p + 1);
    }
    assert_eq!(out.decided_values().len(), 1);
}

#[test]
fn coordinator_crash_mid_announce_keeps_uniform_agreement() {
    // The coordinator reaches majority accepts, announces Decide to one
    // process, then dies. The lucky process decides immediately; a later
    // ballot must choose the same value.
    let faults = FaultPlan::none(5).with_crash(0, Crash::partial(Time::units(4), 1));
    let out = world(vec![Some(7); 5], faults, Box::new(FixedDelay::unit()));
    assert_eq!(out.decided_values(), vec![7]);
    for p in 1..5 {
        assert!(out.decisions[p].is_some(), "P{} undecided", p + 1);
    }
}

#[test]
fn passive_acceptors_enable_lone_proposer() {
    // Only P4 proposes; the others never call propose but still serve as
    // acceptors. Rounds rotate until P4's ballot comes up.
    let out = world(
        vec![None, None, None, Some(9)],
        FaultPlan::none(4),
        Box::new(FixedDelay::unit()),
    );
    assert_eq!(out.decision_of(3), Some(9));
    // Non-proposers learn the decision through the announce.
    for p in 0..3 {
        assert_eq!(out.decision_of(p), Some(9), "P{}", p + 1);
    }
}

#[test]
fn pre_gst_chaos_never_splits_decisions() {
    for seed in 0..25 {
        let out = world(
            vec![Some(seed % 2); 5],
            FaultPlan::none(5),
            Box::new(GstDelay::new(Time::units(20), 6 * U, seed)),
        );
        let vals = out.decided_values();
        assert!(vals.len() <= 1, "seed {seed}: split {vals:?}");
        assert!(
            out.decisions.iter().all(|d| d.is_some()),
            "seed {seed}: not live after GST: {:?}",
            out.decisions
        );
    }
}

#[test]
fn dueling_coordinators_converge() {
    // Delay the round-0 coordinator's accepts so that round 1 preempts it;
    // ballots race but agreement holds and everyone decides.
    let rule = DelayRule::link(0, 1, Time::ZERO, Time::units(40), 9 * U);
    let out = world(
        vec![Some(0), Some(1), Some(1), Some(1), Some(1)],
        FaultPlan::none(5).with_rule(rule),
        Box::new(FixedDelay::unit()),
    );
    let vals = out.decided_values();
    assert_eq!(vals.len(), 1, "split: {vals:?}");
    assert!(out.decisions.iter().all(|d| d.is_some()));
}

#[test]
fn proposals_after_decision_are_ignored() {
    // P1..P4 decide quickly; P5 proposes very late (simulated by it only
    // joining consensus when it receives the decide — the announce makes
    // this a no-op). Everyone converges on the same value.
    let out = world(
        vec![Some(1), Some(1), Some(1), Some(1), None],
        FaultPlan::none(5),
        Box::new(FixedDelay::unit()),
    );
    assert_eq!(out.decided_values(), vec![1]);
}

/// ConsensusHost is object-safe enough for a buffered mock: double-check
/// the public trait contract compiles for custom hosts outside the crate.
#[test]
fn custom_host_implementations_compile() {
    struct NullHost(Time);
    impl ConsensusHost for NullHost {
        fn send(&mut self, _to: ProcessId, _m: PaxosMsg) {}
        fn set_timer(&mut self, _at: Time, _tag: u32) {}
        fn now(&self) -> Time {
            self.0
        }
    }
    let mut p = Paxos::new(0, 3);
    let mut h = NullHost(Time::ZERO);
    p.propose(1, &mut h);
    assert!(p.proposed());
    assert_eq!(p.decision(), None);
}
