//! Fault schedules: the one vocabulary of both the simulator and the live
//! service.
//!
//! The paper's crash model: at most `f` of the `n` processes crash; after a
//! process crashes it sends no further message (§2.1). Lower-bound proofs
//! additionally crash processes *in the middle of a broadcast* ("crashes
//! while sending `[B,1]`", Appendix E.4), which [`Crash::partial`] models: the
//! process still executes its handlers at the crash timestamp, but only its
//! first `k` sends at that timestamp reach the network. They also delay
//! chosen messages past `U` (Theorem 1), which a [`DelayRule`] models.
//!
//! A [`FaultPlan`] holds all of it, in ticks (`U` = 1000): the crashes, the
//! delay rules, the drop rules and the seed of the drop lottery. The
//! simulator's [`crate::World`] reads it, and so does the live service's
//! node, which scales its wall clock into ticks (`Time::from_wall`). The
//! live service alone may also drop messages and restart crashed nodes:
//! the paper's channels never lose and its automata never recover.

use ac_sim::{ProcessId, Time};

/// A scheduled crash of one process.
///
/// A live node has no partial crash: it flushes whole batches, so
/// `sends_at_crash_time` is ignored there and the node crashes whole at
/// `at` (the coarser failure, which a correct protocol tolerates anyway).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Crash {
    /// When the crash takes effect.
    pub at: Time,
    /// Number of sends admitted at timestamp `at` before the process dies.
    /// `0` means the process performs no step at `at` (it is dead for all
    /// events at `at` and later). `k > 0` means it handles events at `at`
    /// but only its first `k` sends at `at` are put on the wire ("crashed
    /// while broadcasting"); it performs no step after `at` either way.
    pub sends_at_crash_time: usize,
    /// When a live node restarts and recovers from its write-ahead log
    /// (`None`: it stays dead). The simulator refuses a restart.
    pub up: Option<Time>,
}

impl Crash {
    /// Crash dead at `at`: no step, no send at or after `at`.
    pub fn at(at: Time) -> Self {
        Crash::partial(at, 0)
    }

    /// Crash at time 0 before sending anything — the "P crashes before
    /// sending any message" construction used throughout the proofs.
    pub fn initially() -> Self {
        Crash::at(Time::ZERO)
    }

    /// Crash at `at` after `k` of the sends performed at `at` made it out.
    pub fn partial(at: Time, k: usize) -> Self {
        Crash {
            at,
            sends_at_crash_time: k,
            up: None,
        }
    }

    /// The same crash, restarting at `up` (builder style).
    pub fn restart(self, up: Time) -> Self {
        assert!(up > self.at, "a restart follows its crash");
        Crash {
            up: Some(up),
            ..self
        }
    }
}

/// Whether a rule on `from -> to` over `window` covers a message `f -> t`
/// sent at `at` (`None` matches any process).
fn covers(
    rule: (Option<ProcessId>, Option<ProcessId>),
    window: (Time, Time),
    f: ProcessId,
    t: ProcessId,
    at: Time,
) -> bool {
    rule.0.is_none_or(|p| p == f)
        && rule.1.is_none_or(|p| p == t)
        && window.0 <= at
        && at < window.1
}

/// A targeted delay override, used to build the adversarial schedules of the
/// paper's lower-bound proofs (e.g. "every message from P to a process in
/// Ω\Φ arrives later than max(t1, t3)").
///
/// ```
/// use ac_net::DelayRule;
/// use ac_sim::{Time, U};
///
/// // Messages on the link P1 -> P3 sent before time 1U take 6 delay units.
/// let rule = DelayRule::link(0, 2, Time::ZERO, Time::units(1), 6 * U);
/// assert!(rule.matches(0, 2, Time::ZERO));
/// assert!(!rule.matches(0, 2, Time::units(1))); // window expired
/// assert!(!rule.matches(1, 2, Time::ZERO)); // different sender
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelayRule {
    /// Match messages from this sender (`None` = any).
    pub from: Option<ProcessId>,
    /// Match messages to this destination (`None` = any).
    pub to: Option<ProcessId>,
    /// Match messages sent in `[window_start, window_end)`.
    pub window: (Time, Time),
    /// Delay (ticks) applied to matching messages.
    pub delay: u64,
}

impl DelayRule {
    /// Whether this rule applies to a message `from -> to` sent at `sent`.
    pub fn matches(&self, from: ProcessId, to: ProcessId, sent: Time) -> bool {
        covers((self.from, self.to), self.window, from, to, sent)
    }

    /// Rule: all messages from `from`, whenever sent, take `delay` ticks.
    pub fn from_process(from: ProcessId, delay: u64) -> Self {
        DelayRule {
            from: Some(from),
            to: None,
            window: (Time::ZERO, Time(u64::MAX)),
            delay,
        }
    }

    /// Rule: the link `from -> to` takes `delay` ticks for messages sent in
    /// `[start, end)`.
    pub fn link(from: ProcessId, to: ProcessId, start: Time, end: Time, delay: u64) -> Self {
        DelayRule {
            from: Some(from),
            to: Some(to),
            window: (start, end),
            delay,
        }
    }
}

/// A lossy link or window: each matching message is dropped with
/// probability `permille`/1000, by a lottery seeded per plan. A partition
/// is pairwise rules at 1000 ‰; i.i.d. loss is `from`/`to` = `None`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DropRule {
    /// Match messages from this sender (`None` = any).
    pub from: Option<ProcessId>,
    /// Match messages to this destination (`None` = any).
    pub to: Option<ProcessId>,
    /// Match messages sent in `[window_start, window_end)`.
    pub window: (Time, Time),
    /// Drop probability in permille (1000 = always).
    pub permille: u16,
}

/// What a plan decides about one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// No rule matches: the network's own delay applies.
    Deliver,
    /// Lost (a partition or a lossy link).
    Drop,
    /// Delivered after this many ticks.
    Delay(u64),
}

/// SplitMix64 — the same dependency-free mixer the vendored `rand` uses.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault schedule of one execution, simulated or live.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Per-process crash schedule.
    pub crashes: Vec<Option<Crash>>,
    /// Targeted delay overrides, checked in order; the first match wins.
    /// Simulated, a rule's delay is the message's; live, the node holds
    /// the envelope that long before the network carries it.
    pub delays: Vec<DelayRule>,
    /// Drop rules, checked in order before the delays (live runs only).
    pub drops: Vec<DropRule>,
    /// Seed of the drop lottery: the same plan and the same message
    /// sequence give the same fates.
    pub seed: u64,
}

impl FaultPlan {
    /// No failures.
    pub fn none(n: usize) -> Self {
        FaultPlan {
            crashes: vec![None; n],
            delays: Vec::new(),
            drops: Vec::new(),
            seed: 1,
        }
    }

    /// Add a crash for process `p` (builder style).
    pub fn with_crash(mut self, p: ProcessId, c: Crash) -> Self {
        assert!(p < self.crashes.len(), "process id out of range");
        self.crashes[p] = Some(c);
        self
    }

    /// Add a delay rule after the others (builder style).
    pub fn with_rule(mut self, rule: DelayRule) -> Self {
        self.delays.push(rule);
        self
    }

    /// Cut `group` off from the rest during `window` (builder style):
    /// `symmetric` cuts both directions, otherwise only what leaves the
    /// group (a half-open link).
    pub fn partition(mut self, group: &[ProcessId], window: (Time, Time), symmetric: bool) -> Self {
        let n = self.n();
        for from in 0..n {
            for to in 0..n {
                let (from_in, to_in) = (group.contains(&from), group.contains(&to));
                if from_in != to_in && (symmetric || from_in) {
                    let (from, to, permille) = (Some(from), Some(to), 1000);
                    self.drops.push(DropRule {
                        from,
                        to,
                        window,
                        permille,
                    });
                }
            }
        }
        self
    }

    /// Drop each message with probability `permille`/1000 during `window`
    /// (builder style), by the lottery seeded `seed`.
    pub fn lossy(mut self, window: (Time, Time), permille: u16, seed: u64) -> Self {
        assert!(permille <= 1000);
        self.drops.push(DropRule {
            from: None,
            to: None,
            window,
            permille,
        });
        self.seed = seed;
        self
    }

    /// The crash scheduled for process `p`, if any.
    pub fn crash_of(&self, p: ProcessId) -> Option<Crash> {
        self.crashes.get(p).copied().flatten()
    }

    /// Whether the plan has any rule on a link, which only a message's
    /// fate can carry out.
    pub fn has_links(&self) -> bool {
        !self.delays.is_empty() || !self.drops.is_empty()
    }

    /// Whether the plan injects any fault: a crash or a rule.
    pub fn any(&self) -> bool {
        self.crashes.iter().any(Option::is_some) || self.has_links()
    }

    /// Number of processes this plan is sized for.
    pub fn n(&self) -> usize {
        self.crashes.len()
    }

    /// The fate of the `seq`-th message `from -> to`, sent at `at`: the
    /// first drop rule whose lottery (a hash of the seed, the link and
    /// `seq`) drops it, else the first matching delay rule.
    pub fn fate(&self, from: ProcessId, to: ProcessId, at: Time, seq: u64) -> Fate {
        let link = self
            .seed
            .wrapping_add((from as u64) << 40)
            .wrapping_add((to as u64) << 20);
        let lottery = || splitmix(link.wrapping_add(seq)) % 1000;
        let drops = |r: &DropRule| {
            covers((r.from, r.to), r.window, from, to, at) && lottery() < u64::from(r.permille)
        };
        if self.drops.iter().any(drops) {
            return Fate::Drop;
        }
        match self.delays.iter().find(|r| r.matches(from, to, at)) {
            Some(r) => Fate::Delay(r.delay),
            None => Fate::Deliver,
        }
    }

    /// The fault window: the earliest injection and the latest heal over
    /// every crash and rule. A crash without a restart never heals — its
    /// end is `Time(u64::MAX)`. `None` if the plan is failure-free.
    pub fn window(&self) -> Option<(Time, Time)> {
        let crashes = self.crashes.iter().flatten();
        let crashes = crashes.map(|c| (c.at, c.up.unwrap_or(Time(u64::MAX))));
        let rules = self.delays.iter().map(|r| r.window);
        let rules = rules.chain(self.drops.iter().map(|r| r.window));
        crashes
            .chain(rules)
            .reduce(|(a, b), (c, d)| (a.min(c), b.max(d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_sim::U;

    #[test]
    fn builder_and_queries() {
        let plan = FaultPlan::none(4)
            .with_crash(1, Crash::initially())
            .with_crash(3, Crash::partial(Time::units(2), 1));
        assert!(plan.any() && !plan.has_links());
        assert!(!FaultPlan::none(4).any());
        assert_eq!(plan.crash_of(0), None);
        assert_eq!(plan.crash_of(1), Some(Crash::at(Time::ZERO)));
        assert_eq!(plan.crash_of(3).unwrap().sends_at_crash_time, 1);
        let restarts = Crash::at(Time::units(10)).restart(Time::units(50));
        assert_eq!(restarts.up, Some(Time::units(50)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_crash_panics() {
        let _ = FaultPlan::none(2).with_crash(5, Crash::initially());
    }

    #[test]
    fn rules_match_first() {
        let plan = FaultPlan::none(3)
            .with_rule(DelayRule::link(0, 2, Time::ZERO, Time::units(1), 7 * U))
            .with_rule(DelayRule::from_process(1, 3 * U));
        assert_eq!(plan.fate(0, 2, Time::ZERO, 0), Fate::Delay(7 * U)); // first rule
        assert_eq!(plan.fate(1, 2, Time::units(4), 1), Fate::Delay(3 * U)); // second rule
        assert_eq!(plan.fate(0, 2, Time::units(2), 2), Fate::Deliver); // window expired
        assert_eq!(plan.fate(2, 0, Time::ZERO, 3), Fate::Deliver); // no rule
    }

    #[test]
    fn symmetric_partition_cuts_both_directions_only_in_window() {
        let window = (Time::units(10), Time::units(20));
        let plan = FaultPlan::none(4).partition(&[0, 1], window, true);
        let at = Time::units(12);
        assert_eq!(plan.fate(0, 2, at, 0), Fate::Drop);
        assert_eq!(plan.fate(2, 0, at, 0), Fate::Drop);
        // Within a side: flows.
        assert_eq!(plan.fate(0, 1, at, 0), Fate::Deliver);
        assert_eq!(plan.fate(2, 3, at, 0), Fate::Deliver);
        // Outside the window: flows.
        assert_eq!(plan.fate(0, 2, Time(10 * U - 1), 0), Fate::Deliver);
        assert_eq!(plan.fate(0, 2, Time::units(20), 0), Fate::Deliver);
    }

    #[test]
    fn asymmetric_partition_cuts_only_outbound() {
        let plan = FaultPlan::none(4).partition(&[0, 1], (Time::ZERO, Time::units(100)), false);
        assert_eq!(plan.fate(0, 3, Time::units(5), 0), Fate::Drop);
        assert_eq!(plan.fate(3, 0, Time::units(5), 0), Fate::Deliver);
    }

    #[test]
    fn drop_lottery_is_deterministic_and_roughly_calibrated() {
        let window = (Time::ZERO, Time::units(1000));
        let plan = FaultPlan::none(2).lossy(window, 100, 7);
        let at = Time::units(1);
        let drops = (0..2000u64)
            .filter(|&s| plan.fate(0, 1, at, s) == Fate::Drop)
            .count();
        // 10% nominal; allow generous slack — the property under test is
        // calibration, not the exact mix.
        assert!(
            (100..=320).contains(&drops),
            "10% of 2000 ≈ 200, got {drops}"
        );
        // A different seed reshuffles fates.
        let other = FaultPlan::none(2).lossy(window, 100, 8);
        assert!(
            (0..2000u64).any(|s| plan.fate(0, 1, at, s) != other.fate(0, 1, at, s)),
            "seeds must matter"
        );
    }

    /// The lossy-10 chaos scenario's plan (loss 10 % in [10 U, 50 U), seed
    /// 5) drops exactly these of the first 64 messages on link 0 → 1, as
    /// the live fault layer that preceded this plan dropped them.
    #[test]
    fn the_lossy_lottery_draws_its_pinned_fates() {
        let plan = FaultPlan::none(4).lossy((Time::units(10), Time::units(50)), 100, 5);
        let mask = (0..64).filter(|&s| plan.fate(0, 1, Time::units(20), s) == Fate::Drop);
        assert_eq!(mask.fold(0u64, |m, s| m | 1 << s), 0x1220_1000_0c11_8005);
        assert!((0..64).all(|s| plan.fate(0, 1, Time::units(50), s) == Fate::Deliver));
    }

    #[test]
    fn delay_windows_stretch_latency() {
        let plan = FaultPlan::none(2).with_rule(DelayRule {
            from: None,
            to: None,
            window: (Time::units(3), Time::units(6)),
            delay: 4 * U,
        });
        assert_eq!(plan.fate(0, 1, Time::units(4), 0), Fate::Delay(4 * U));
        assert_eq!(plan.fate(0, 1, Time::units(7), 0), Fate::Deliver);
    }

    #[test]
    fn fault_window_spans_every_crash_and_rule() {
        let plan = FaultPlan::none(4)
            .with_crash(1, Crash::at(Time::units(10)).restart(Time::units(30)))
            .partition(&[0, 1], (Time::units(5), Time::units(25)), true)
            .lossy((Time::units(12), Time::units(40)), 100, 1);
        assert_eq!(plan.window(), Some((Time::units(5), Time::units(40))));
        assert_eq!(FaultPlan::none(2).window(), None);
        // A crash without restart never heals.
        let forever = FaultPlan::none(2).with_crash(0, Crash::at(Time::units(3)));
        assert_eq!(forever.window(), Some((Time::units(3), Time(u64::MAX))));
    }
}
