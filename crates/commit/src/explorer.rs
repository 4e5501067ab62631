//! Exhaustive small-model exploration.
//!
//! For small `n` the space of "interesting" executions — vote vectors ×
//! crash schedules (victim set, crash instants on the protocol's own grid,
//! partial-broadcast truncations) — is small enough to enumerate
//! completely. Each execution is run deterministically and checked against
//! the protocol's Table-1 cell. This is the strongest correctness evidence
//! this library produces: for the explored parameters, the guarantees are
//! not sampled, they are verified over the whole schedule space.
//!
//! The module is split into two independent halves:
//!
//! * [`ScheduleSpace`] — **pure enumeration**. An iterator over every
//!   [`Schedule`] (vote vector + crash schedule) of an [`ExplorerConfig`],
//!   in a fixed, documented order. It executes nothing.
//! * the **execution engine** — [`explore_jobs`] fans the enumerated
//!   schedules out over worker threads (chunked, via the crossbeam-channel
//!   pool in [`crate::runner::fan_out`]) and merges the per-chunk results
//!   back **in enumeration order**, so the report of a parallel exploration
//!   is byte-identical to the sequential one. `jobs = 1` runs inline with
//!   no threads at all.

use ac_net::Crash;
use ac_sim::Time;

use crate::checker::{check, Violation};
use crate::protocols::ProtocolKind;
use crate::runner::{fan_out_stream, Scenario};
use crate::taxonomy::Cell;

/// Exploration space configuration.
#[derive(Clone, Debug)]
pub struct ExplorerConfig {
    /// Number of processes.
    pub n: usize,
    /// Resilience bound (maximum tolerated crashes).
    pub f: usize,
    /// Crash instants, in delay units (the appendix protocols act on a
    /// unit grid, so unit-aligned crashes cover every interesting
    /// interleaving class).
    pub crash_times: Vec<u64>,
    /// Partial-broadcast send budgets to try at each crash instant, in
    /// addition to a full stop (`None`).
    pub partial_sends: Vec<usize>,
    /// Maximum number of simultaneous crash victims (capped at `f`).
    pub max_crashes: usize,
    /// Horizon per run, in delay units.
    pub horizon_units: u64,
}

impl ExplorerConfig {
    /// A small default: single crashes on a 0..6U grid with partial
    /// truncations 1 and 2.
    pub fn small(n: usize, f: usize) -> Self {
        ExplorerConfig {
            n,
            f,
            crash_times: (0..=6).collect(),
            partial_sends: vec![1, 2],
            max_crashes: 1,
            horizon_units: 400,
        }
    }
}

impl Default for ExplorerConfig {
    /// [`ExplorerConfig::small`] at the paper's minimal interesting system,
    /// `n = 3`, `f = 1`.
    fn default() -> Self {
        ExplorerConfig::small(3, 1)
    }
}

/// One point of the exploration space: a vote vector plus a crash schedule.
/// Pure data — building a `Schedule` executes nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Each process's vote.
    pub votes: Vec<bool>,
    /// The processes crashed in this execution, with their crash specs.
    pub crashes: Vec<(usize, Crash)>,
}

impl Schedule {
    /// The runnable [`Scenario`] for this schedule under `cfg`.
    pub fn scenario(&self, cfg: &ExplorerConfig) -> Scenario {
        let mut sc = Scenario::nice(cfg.n, cfg.f)
            .votes(&self.votes)
            .horizon(cfg.horizon_units);
        for &(victim, crash) in &self.crashes {
            sc = sc.crash(victim, crash);
        }
        sc
    }
}

/// One counterexample found by the explorer.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterExample {
    /// Human-readable description of the failing schedule.
    pub scenario: String,
    /// The guarantees the execution violated.
    pub violations: Vec<Violation>,
}

/// Aggregate result of an exploration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExplorationReport {
    /// Total executions explored.
    pub executions: usize,
    /// Executions that violated the protocol's cell, in enumeration order.
    pub counterexamples: Vec<CounterExample>,
}

impl ExplorationReport {
    /// Whether every explored execution satisfied its guarantees.
    pub fn ok(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// Panic with a readable message if any counterexample was found.
    pub fn assert_ok(&self, context: &str) {
        assert!(
            self.ok(),
            "{context}: {}/{} executions violated guarantees; first: {:?}",
            self.counterexamples.len(),
            self.executions,
            self.counterexamples.first()
        );
    }
}

fn crash_options(cfg: &ExplorerConfig) -> Vec<Crash> {
    let mut opts = Vec::new();
    for &t in &cfg.crash_times {
        opts.push(Crash::at(Time::units(t)));
        for &k in &cfg.partial_sends {
            opts.push(Crash::partial(Time::units(t), k));
        }
    }
    opts
}

/// All crash schedules of `cfg`: the failure-free schedule first, then every
/// single-victim schedule (victim-major, crash options in
/// [`crash_options`] order), then every victim pair. Shared by every vote
/// vector, so it is computed once per exploration.
fn crash_schedules(cfg: &ExplorerConfig) -> Vec<Vec<(usize, Crash)>> {
    let crash_opts = crash_options(cfg);
    let max_crashes = cfg.max_crashes.min(cfg.f);
    let mut schedules: Vec<Vec<(usize, Crash)>> = vec![vec![]];
    if max_crashes >= 1 {
        for victim in 0..cfg.n {
            for &c in &crash_opts {
                schedules.push(vec![(victim, c)]);
            }
        }
    }
    if max_crashes >= 2 {
        for v1 in 0..cfg.n {
            for v2 in (v1 + 1)..cfg.n {
                for &c1 in &crash_opts {
                    for &c2 in &crash_opts {
                        schedules.push(vec![(v1, c1), (v2, c2)]);
                    }
                }
            }
        }
    }
    schedules
}

/// Pure enumeration of an [`ExplorerConfig`]'s schedule space.
///
/// Iterates every vote vector × crash schedule in a fixed order — vote
/// bitmask-major (mask `0` = all-No first), crash schedules within a vote
/// vector as produced by the config (failure-free, then singles, then
/// pairs). [`ScheduleSpace::len`] gives the exact space size without
/// iterating.
///
/// ```
/// use ac_commit::explorer::{ExplorerConfig, ScheduleSpace};
///
/// let cfg = ExplorerConfig { crash_times: vec![0, 1], partial_sends: vec![1],
///                            ..ExplorerConfig::small(2, 1) };
/// let space = ScheduleSpace::new(&cfg);
/// // 4 vote vectors x (1 no-crash + 2 victims x 2 times x 2 modes).
/// assert_eq!(space.len(), 4 * (1 + 2 * 2 * 2));
/// let first = space.clone().next().unwrap();
/// assert_eq!(first.votes, vec![false, false]); // mask 0, failure-free
/// assert!(first.crashes.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct ScheduleSpace {
    n: usize,
    schedules: Vec<Vec<(usize, Crash)>>,
    votes_mask: u32,
    schedule_idx: usize,
}

impl ScheduleSpace {
    /// Enumerate the space of `cfg`.
    pub fn new(cfg: &ExplorerConfig) -> Self {
        assert!(cfg.n < 32, "vote vectors are enumerated as u32 bitmasks");
        ScheduleSpace {
            n: cfg.n,
            schedules: crash_schedules(cfg),
            votes_mask: 0,
            schedule_idx: 0,
        }
    }

    /// Exact number of schedules in the *whole* space (independent of how
    /// far this iterator has advanced).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        (1usize << self.n) * self.schedules.len()
    }
}

impl Iterator for ScheduleSpace {
    type Item = Schedule;

    fn next(&mut self) -> Option<Schedule> {
        if self.votes_mask >= (1u32 << self.n) {
            return None;
        }
        let votes = (0..self.n)
            .map(|p| self.votes_mask & (1 << p) != 0)
            .collect();
        let crashes = self.schedules[self.schedule_idx].clone();
        self.schedule_idx += 1;
        if self.schedule_idx == self.schedules.len() {
            self.schedule_idx = 0;
            self.votes_mask += 1;
        }
        Some(Schedule { votes, crashes })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let done = self.votes_mask as usize * self.schedules.len() + self.schedule_idx;
        let left = self.len().saturating_sub(done);
        (left, Some(left))
    }
}

/// Run and check one schedule; `Some` iff it violates `cell`.
fn run_one(
    kind: ProtocolKind,
    cell: Cell,
    cfg: &ExplorerConfig,
    schedule: &Schedule,
) -> Option<CounterExample> {
    let out = kind.run(&schedule.scenario(cfg));
    let r = check(&out, &schedule.votes, cell);
    if r.ok() {
        None
    } else {
        Some(CounterExample {
            scenario: format!(
                "{} n={} f={} votes={:?} crashes={:?}",
                kind.name(),
                cfg.n,
                cfg.f,
                schedule.votes,
                schedule.crashes,
            ),
            violations: r.violations,
        })
    }
}

/// Schedules per work item handed to the pool. Runs take tens to hundreds
/// of microseconds, so a chunk amortizes channel traffic to a few
/// milliseconds of work while staying small enough for dynamic balancing.
const CHUNK: usize = 64;

/// Exhaustively explore `kind` under `cfg` against an explicit `cell`, over
/// `jobs` worker threads. The parallel report is byte-identical to the
/// sequential (`jobs = 1`) one: chunks are checked in parallel but merged
/// back in enumeration order.
pub fn explore_against_jobs(
    kind: ProtocolKind,
    cell: Cell,
    cfg: &ExplorerConfig,
    jobs: usize,
) -> ExplorationReport {
    let space = ScheduleSpace::new(cfg);
    let executions = space.len();

    let counterexamples = if jobs <= 1 {
        space.filter_map(|s| run_one(kind, cell, cfg, &s)).collect()
    } else {
        // Chunks are drawn from the space lazily — the pool keeps only
        // O(jobs) chunks in flight, so parallel exploration costs no more
        // memory than sequential even on exponentially large spaces.
        let mut space = space.peekable();
        let chunks = std::iter::from_fn(move || {
            space.peek()?;
            Some(space.by_ref().take(CHUNK).collect::<Vec<Schedule>>())
        });
        fan_out_stream(chunks, jobs, |chunk| {
            chunk
                .iter()
                .filter_map(|s| run_one(kind, cell, cfg, s))
                .collect::<Vec<CounterExample>>()
        })
        .into_iter()
        .flatten()
        .collect()
    };

    ExplorationReport {
        executions,
        counterexamples,
    }
}

/// Exhaustively explore `kind` under `cfg`, checking each execution against
/// `cell` (defaults to the protocol's own cell via [`explore`]). Sequential;
/// see [`explore_against_jobs`] for the parallel engine.
pub fn explore_against(kind: ProtocolKind, cell: Cell, cfg: &ExplorerConfig) -> ExplorationReport {
    explore_against_jobs(kind, cell, cfg, 1)
}

/// Explore `kind` against its own declared cell over `jobs` worker threads.
pub fn explore_jobs(kind: ProtocolKind, cfg: &ExplorerConfig, jobs: usize) -> ExplorationReport {
    explore_against_jobs(kind, kind.cell(), cfg, jobs)
}

/// Explore `kind` against its own declared cell, sequentially.
pub fn explore(kind: ProtocolKind, cfg: &ExplorerConfig) -> ExplorationReport {
    explore_jobs(kind, cfg, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::PropSet;

    #[test]
    fn explorer_counts_the_expected_space() {
        let cfg = ExplorerConfig {
            n: 2,
            f: 1,
            crash_times: vec![0, 1],
            partial_sends: vec![1],
            max_crashes: 1,
            horizon_units: 300,
        };
        let report = explore(ProtocolKind::TwoPc, &cfg);
        // 4 vote vectors x (1 no-crash + 2 victims x 2 times x 2 modes).
        assert_eq!(report.executions, 4 * (1 + 2 * 2 * 2));
        report.assert_ok("2PC small space");
    }

    #[test]
    fn explorer_catches_false_claims() {
        // 2PC does NOT provide termination under crashes; exploring it
        // against a cell that demands T must produce counterexamples.
        let cfg = ExplorerConfig::small(3, 1);
        let too_strong = Cell::new(PropSet::AVT, PropSet::AV);
        let report = explore_against(ProtocolKind::TwoPc, too_strong, &cfg);
        assert!(
            !report.ok(),
            "2PC cannot satisfy termination under crashes; the explorer must notice"
        );
        assert!(report.counterexamples.iter().all(|c| c
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Termination { .. }))));
    }

    #[test]
    fn space_len_matches_iteration() {
        for cfg in [
            ExplorerConfig::default(),
            ExplorerConfig {
                max_crashes: 2,
                crash_times: vec![0, 2],
                ..ExplorerConfig::small(4, 2)
            },
        ] {
            let space = ScheduleSpace::new(&cfg);
            let len = space.len();
            assert_eq!(space.size_hint(), (len, Some(len)));
            assert_eq!(space.count(), len);
        }
    }

    #[test]
    fn space_enumeration_is_deterministic_and_unique() {
        let cfg = ExplorerConfig {
            crash_times: vec![0, 1, 2],
            ..ExplorerConfig::small(3, 1)
        };
        let a: Vec<Schedule> = ScheduleSpace::new(&cfg).collect();
        let b: Vec<Schedule> = ScheduleSpace::new(&cfg).collect();
        assert_eq!(a, b);
        for (i, s) in a.iter().enumerate() {
            for t in &a[i + 1..] {
                assert_ne!(s, t, "duplicate schedule in the space");
            }
        }
    }

    // Parallel-vs-sequential byte-identity is pinned by the cross-crate
    // suite in `tests/parallel_explorer.rs` (every protocol, violating
    // spaces, oversubscribed pools, proptest over random configs).

    #[test]
    fn schedule_scenario_reproduces_builder_construction() {
        let cfg = ExplorerConfig::small(3, 1);
        let schedule = Schedule {
            votes: vec![true, false, true],
            crashes: vec![(1, Crash::partial(Time::units(2), 1))],
        };
        let sc = schedule.scenario(&cfg);
        assert_eq!(sc.votes, vec![true, false, true]);
        assert_eq!(sc.faults.crashes.iter().flatten().count(), 1);
        assert_eq!(
            sc.faults.crash_of(1),
            Some(Crash::partial(Time::units(2), 1))
        );
        assert_eq!(sc.horizon_units, cfg.horizon_units);
        assert!(sc.injects_failure());
    }
}
