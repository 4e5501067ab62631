//! Scenario construction and execution.
//!
//! A [`Scenario`] is a declarative, cloneable description of one execution:
//! votes, a fault plan (crash schedule and targeted delay rules) and
//! optional pre-GST chaos.
//! `Scenario::run::<P>()` instantiates protocol `P` for every process and
//! runs it in an `ac_net::World`.
//!
//! The module also hosts the **execution pool**: [`fan_out`] is a
//! deterministic parallel map over worker threads (results always come back
//! in input order, regardless of scheduling), and [`run_all`] fans a batch
//! of scenarios out over it. The exhaustive [`crate::explorer`] builds its
//! parallel engine on these primitives.

use ac_net::{Crash, DelayRule, FaultPlan, FixedDelay, GstDelay, Outcome, World, WorldConfig};
use ac_sim::{ProcessId, Time, U};

use crate::problem::{CommitProtocol, Vote};
use crate::protocols::ProtocolKind;

/// Randomized pre-GST chaos (network-failure executions with no targeted
/// structure): delays uniform in `[U, max_units*U]` before `gst_units*U`,
/// exactly `U` afterwards.
#[derive(Copy, Clone, Debug)]
pub struct Chaos {
    /// Global stabilization time, in delay units.
    pub gst_units: u64,
    /// Maximum pre-GST delay, in delay units.
    pub max_units: u64,
    /// Seed of the deterministic delay stream.
    pub seed: u64,
}

/// A declarative execution scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Number of processes.
    pub n: usize,
    /// Resilience bound (maximum tolerated crashes).
    pub f: usize,
    /// Each process's vote.
    pub votes: Vec<Vote>,
    /// Crash schedule and targeted delay overrides (first match wins) —
    /// the plan a live run can serve unchanged.
    pub faults: FaultPlan,
    /// Optional randomized pre-GST chaos: the delay of every message no
    /// rule of `faults` matches (unit delays without it).
    pub chaos: Option<Chaos>,
    /// Run horizon in delay units. The default (600) dwarfs every protocol's
    /// own schedule plus several consensus coordinator rotations.
    pub horizon_units: u64,
    /// Record a full execution trace.
    pub trace: bool,
}

impl Scenario {
    /// The nice execution: failure-free, every process votes 1, unit delays.
    pub fn nice(n: usize, f: usize) -> Scenario {
        Scenario {
            n,
            f,
            votes: vec![true; n],
            faults: FaultPlan::none(n),
            chaos: None,
            horizon_units: 600,
            trace: false,
        }
    }

    /// Replace the vote vector.
    pub fn votes(mut self, votes: &[Vote]) -> Scenario {
        assert_eq!(votes.len(), self.n);
        self.votes = votes.to_vec();
        self
    }

    /// Make process `p` vote 0.
    pub fn vote_no(mut self, p: ProcessId) -> Scenario {
        self.votes[p] = false;
        self
    }

    /// Crash process `p` per `crash` (a later crash of `p` replaces it).
    pub fn crash(mut self, p: ProcessId, crash: Crash) -> Scenario {
        self.faults = self.faults.with_crash(p, crash);
        self
    }

    /// Add a targeted delay rule (makes the execution a network-failure one
    /// if the delay exceeds `U` and a matching message exists).
    pub fn rule(mut self, rule: DelayRule) -> Scenario {
        self.faults = self.faults.with_rule(rule);
        self
    }

    /// Enable randomized pre-GST chaos.
    pub fn chaos(mut self, chaos: Chaos) -> Scenario {
        self.chaos = Some(chaos);
        self
    }

    /// Enable trace recording.
    pub fn traced(mut self) -> Scenario {
        self.trace = true;
        self
    }

    /// Set the run horizon, in delay units.
    pub fn horizon(mut self, units: u64) -> Scenario {
        self.horizon_units = units;
        self
    }

    fn world_config(&self) -> WorldConfig {
        WorldConfig {
            horizon: Time::units(self.horizon_units),
            trace: self.trace,
        }
    }

    /// Run protocol `P` on this scenario.
    pub fn run<P: CommitProtocol>(&self) -> Outcome {
        assert_eq!(self.votes.len(), self.n);
        let procs: Vec<P> = (0..self.n)
            .map(|me| P::new(me, self.n, self.f, self.votes[me]))
            .collect();
        let delay: Box<dyn ac_net::DelayModel> = match self.chaos {
            None => Box::new(FixedDelay::unit()),
            Some(c) => Box::new(GstDelay::new(
                Time::units(c.gst_units),
                c.max_units * U,
                c.seed,
            )),
        };
        World::new(procs, delay, self.faults.clone(), self.world_config()).run()
    }

    /// Whether the schedule itself injects any failure (crash or delayed
    /// message rule/chaos). Note a delay rule of exactly `U` is not a
    /// failure.
    pub fn injects_failure(&self) -> bool {
        let crashes = self.faults.crashes.iter().any(Option::is_some);
        crashes || self.chaos.is_some() || self.faults.delays.iter().any(|r| r.delay > U)
    }
}

/// Run the nice execution of `P` and return its outcome.
pub fn run_nice<P: CommitProtocol>(n: usize, f: usize) -> Outcome {
    Scenario::nice(n, f).run::<P>()
}

/// Run `P` on explicit votes with unit delays and no failures.
///
/// ```
/// use ac_commit::protocols::Inbac;
///
/// // Three processes, all voting yes, one tolerated crash: INBAC commits
/// // everywhere after two message delays (Table 5's nice execution).
/// let out = ac_commit::run::<Inbac>(&[true, true, true], 1);
/// assert_eq!(out.decided_values(), vec![1]); // 1 = COMMIT
/// assert_eq!(out.metrics().delays, Some(2));
///
/// // One no-vote forces abort everywhere.
/// let out = ac_commit::run::<Inbac>(&[true, false, true], 1);
/// assert_eq!(out.decided_values(), vec![0]); // 0 = ABORT
/// ```
pub fn run<P: CommitProtocol>(votes: &[Vote], f: usize) -> Outcome {
    Scenario::nice(votes.len(), f).votes(votes).run::<P>()
}

/// Convenience: the `(delays, messages)` pair of a nice execution of `P` —
/// the paper's headline per-protocol numbers.
pub fn nice_complexity<P: CommitProtocol>(n: usize, f: usize) -> (u64, u64) {
    let out = run_nice::<P>(n, f);
    let m = out.metrics();
    let delays = m.delays.unwrap_or_else(|| {
        panic!(
            "{}: nice execution did not complete: {:?}",
            P::NAME,
            out.decisions
        )
    });
    (delays, m.messages as u64)
}

/// Deterministic parallel map: apply `f` to every item of `items` on up to
/// `jobs` worker threads and return the results **in input order**.
///
/// Workers pull `(index, item)` pairs from a shared crossbeam channel, so
/// load balances dynamically (a worker that drew cheap items steals the
/// remaining work of slower ones); the indexed results are then reassembled
/// in order, which makes the output independent of thread scheduling. With
/// `jobs <= 1` the map runs inline on the caller's thread with no channel
/// or thread overhead — bit-for-bit the same results either way.
///
/// ```
/// use ac_commit::runner::fan_out;
///
/// let squares = fan_out((0u64..8).collect(), 4, |x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn fan_out<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    fan_out_stream(items.into_iter(), jobs, f)
}

/// Streaming [`fan_out`]: like the `Vec` version but pulls work items from
/// an iterator **lazily**, keeping at most `4 * jobs` items in flight.
/// This bounds memory to O(`jobs`) items (plus the results), so a space too
/// large to materialize — the parallel explorer enumerates schedule spaces
/// that grow exponentially in `n` — costs no more memory parallel than
/// sequential. Results are still returned in input order.
pub fn fan_out_stream<T, R, F>(items: impl Iterator<Item = T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if jobs <= 1 {
        return items.map(f).collect();
    }
    let mut items = items.enumerate();
    let window = 4 * jobs;

    let (work_tx, work_rx) = crossbeam::channel::unbounded();
    let (res_tx, res_rx) = crossbeam::channel::unbounded();

    let mut out: Vec<Option<R>> = Vec::new();
    let store = |i: usize, r: R, out: &mut Vec<Option<R>>| {
        if i >= out.len() {
            out.resize_with(i + 1, || None);
        }
        out[i] = Some(r);
    };
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let work_rx = work_rx.clone();
            let res_tx = res_tx.clone();
            let f = &f;
            scope.spawn(move || {
                while let Ok((i, item)) = work_rx.recv() {
                    if res_tx.send((i, f(item))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);
        drop(work_rx);

        // Prime the queue, then pump: one new item per result received, so
        // at most `window` items are in flight at any moment.
        let mut in_flight = 0usize;
        for pair in items.by_ref().take(window) {
            let _ = work_tx.send(pair);
            in_flight += 1;
        }
        let mut exhausted = in_flight < window;
        while in_flight > 0 {
            let (i, r) = res_rx.recv().expect("workers alive while work remains");
            store(i, r, &mut out);
            in_flight -= 1;
            if !exhausted {
                match items.next() {
                    Some(pair) => {
                        let _ = work_tx.send(pair);
                        in_flight += 1;
                    }
                    None => exhausted = true,
                }
            }
        }
        drop(work_tx); // lets idle workers observe disconnection and exit
    });
    out.into_iter()
        .map(|r| r.expect("every index produced exactly one result"))
        .collect()
}

/// Run `kind` on every scenario over `jobs` worker threads, returning the
/// outcomes in scenario order. The convenience entry point for sweep-style
/// callers (harness experiments, benches); the explorer uses the
/// lower-level [`fan_out`] directly so it can check-and-discard outcomes
/// inside the workers instead of collecting them.
pub fn run_all(kind: ProtocolKind, scenarios: Vec<Scenario>, jobs: usize) -> Vec<Outcome> {
    fan_out(scenarios, jobs, |sc| kind.run(&sc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::TwoPc;

    #[test]
    fn nice_scenario_is_failure_free() {
        let sc = Scenario::nice(4, 1);
        assert!(!sc.injects_failure());
        assert_eq!(sc.votes, vec![true; 4]);
    }

    #[test]
    fn builders_compose() {
        let sc = Scenario::nice(4, 2)
            .vote_no(1)
            .crash(0, Crash::initially())
            .rule(DelayRule::from_process(2, 3 * U))
            .horizon(50)
            .traced();
        assert_eq!(sc.votes, vec![true, false, true, true]);
        assert!(sc.injects_failure());
        assert!(sc.trace);
        assert_eq!(sc.horizon_units, 50);
    }

    #[test]
    fn exact_unit_rules_are_not_failures() {
        // A rule with delay == U keeps the execution synchronous.
        let sc = Scenario::nice(3, 1).rule(DelayRule::from_process(0, U));
        assert!(!sc.injects_failure());
        let out = sc.run::<TwoPc>();
        assert_eq!(out.metrics().class, ac_net::ExecutionClass::FailureFree);
    }

    #[test]
    fn chaos_marks_failure_injection() {
        let sc = Scenario::nice(3, 1).chaos(Chaos {
            gst_units: 4,
            max_units: 3,
            seed: 1,
        });
        assert!(sc.injects_failure());
    }

    /// Pre-GST chaos is the fallback: a rule's delay beats it on every
    /// message the rule matches, and chaos decides the rest.
    #[test]
    fn a_rule_beats_pre_gst_chaos() {
        let chaos = Chaos {
            gst_units: 100,
            max_units: 4,
            seed: 9,
        };
        let sc = Scenario::nice(3, 1)
            .rule(DelayRule::from_process(0, 9 * U))
            .chaos(chaos);
        let out = sc.run::<TwoPc>();
        let (ruled, chaotic): (Vec<&ac_net::MsgRecord>, Vec<_>) =
            out.records.iter().partition(|r| r.from == 0);
        assert!(!ruled.is_empty() && !chaotic.is_empty());
        assert!(ruled.iter().all(|r| r.arrival - r.sent == 9 * U));
        assert!(chaotic
            .iter()
            .all(|r| (U..=4 * U).contains(&(r.arrival - r.sent))));
    }

    #[test]
    #[should_panic(expected = "nice execution did not complete")]
    fn nice_complexity_panics_on_blocking_outcomes() {
        // A scenario that blocks (coordinator crash in 2PC) has no
        // completion time; nice_complexity must fail loudly, not return
        // garbage. We fake it by running the helper against a hand-built
        // scenario through the same code path.
        struct Stuck;
        impl ac_sim::Automaton for Stuck {
            type Msg = ();
            fn on_start(&mut self, _: &mut ac_sim::Ctx<()>) {}
            fn on_message(&mut self, _: usize, _: (), _: &mut ac_sim::Ctx<()>) {}
            fn on_timer(&mut self, _: u32, _: &mut ac_sim::Ctx<()>) {}
        }
        impl crate::problem::CommitProtocol for Stuck {
            const NAME: &'static str = "stuck";
            fn new(_: usize, n: usize, f: usize, _: bool) -> Self {
                crate::problem::validate_params(n, f);
                Stuck
            }
        }
        let _ = nice_complexity::<Stuck>(3, 1);
    }

    #[test]
    fn run_helper_respects_votes() {
        let out = run::<TwoPc>(&[true, false, true], 1);
        assert_eq!(out.decided_values(), vec![0]);
    }

    #[test]
    fn scenarios_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Scenario>();
        assert_send::<ProtocolKind>();
    }

    #[test]
    fn fan_out_preserves_input_order() {
        // Uneven per-item cost: late items finish first on a free worker,
        // but the output must still be in input order.
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 2).collect();
        for jobs in [1, 2, 4, 7] {
            let got = fan_out(items.clone(), jobs, |x| {
                if x % 9 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                x * 2
            });
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn fan_out_handles_degenerate_sizes() {
        assert_eq!(fan_out(Vec::<u8>::new(), 4, |x| x), Vec::<u8>::new());
        assert_eq!(fan_out(vec![5u8], 4, |x| x + 1), vec![6]);
        assert_eq!(fan_out(vec![1u8, 2], 64, |x| x), vec![1, 2]);
    }

    #[test]
    fn run_all_matches_individual_runs() {
        let scenarios: Vec<Scenario> = (0..6)
            .map(|i| {
                let mut sc = Scenario::nice(4, 1);
                if i % 2 == 0 {
                    sc = sc.vote_no(i % 4);
                }
                if i % 3 == 0 {
                    sc = sc.crash(1, Crash::at(Time::units(1)));
                }
                sc
            })
            .collect();
        let seq: Vec<Vec<u64>> = scenarios
            .iter()
            .map(|sc| ProtocolKind::Inbac.run(sc).decided_values())
            .collect();
        let par: Vec<Vec<u64>> = run_all(ProtocolKind::Inbac, scenarios, 3)
            .into_iter()
            .map(|o| o.decided_values())
            .collect();
        assert_eq!(seq, par);
    }
}
