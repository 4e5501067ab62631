//! Message delay models.
//!
//! A [`DelayModel`] decides the transmission delay of each message. A model
//! producing only delays `≤ U` yields crash-failure (synchronous) or
//! failure-free executions; any delay `> U` makes the execution a
//! network-failure execution (paper §2.2). All models are deterministic
//! given their seed, so every experiment is reproducible. A
//! [`crate::FaultPlan`]'s delay rules come first: the model decides only
//! the messages no rule matches, so a rule draws nothing from its stream.

use ac_sim::{ProcessId, Time, U};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Decides per-message transmission delays (in ticks).
///
/// `Send` is a supertrait so that a boxed model — and therefore a whole
/// [`crate::World`] — can be shipped to a worker thread; the parallel
/// explorer in `ac-commit` fans independent runs out over threads.
pub trait DelayModel: Send {
    /// Delay of the message with wire sequence number `seq`, sent by `from`
    /// to `to` at `sent`.
    fn delay(&mut self, from: ProcessId, to: ProcessId, sent: Time, seq: u64) -> u64;
}

/// Every message takes exactly `delay` ticks. `FixedDelay::unit()` is the
/// nice-execution model: exactly one delay unit `U` per message, which makes
/// elapsed-time/U equal Lamport's message-delay count.
#[derive(Clone, Debug)]
pub struct FixedDelay(pub u64);

impl FixedDelay {
    /// Exactly one delay unit `U` per message — the nice-execution model.
    pub fn unit() -> Self {
        FixedDelay(U)
    }
}

impl DelayModel for FixedDelay {
    fn delay(&mut self, _f: ProcessId, _t: ProcessId, _s: Time, _q: u64) -> u64 {
        self.0
    }
}

/// Uniformly random delays in `[min, max]` ticks (inclusive), seeded.
/// With `max ≤ U` this is still a synchronous (crash-failure) execution.
#[derive(Clone, Debug)]
pub struct JitterDelay {
    /// Minimum delay in ticks (≥ 1: a message cannot arrive instantly).
    pub min: u64,
    /// Maximum delay in ticks (inclusive).
    pub max: u64,
    rng: StdRng,
}

impl JitterDelay {
    /// Delays uniform in `[min, max]` ticks, drawn from a stream seeded
    /// with `seed`.
    pub fn new(min: u64, max: u64, seed: u64) -> Self {
        assert!(min >= 1, "a message cannot arrive at its send instant");
        assert!(min <= max);
        JitterDelay {
            min,
            max,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Jitter within the synchronous bound: delays in `[U/2, U]`.
    pub fn synchronous(seed: u64) -> Self {
        Self::new(U / 2, U, seed)
    }
}

impl DelayModel for JitterDelay {
    fn delay(&mut self, _f: ProcessId, _t: ProcessId, _s: Time, _q: u64) -> u64 {
        self.rng.gen_range(self.min..=self.max)
    }
}

/// Eventually synchronous delays: before the global stabilization time
/// `gst`, delays are uniformly random in `[U, chaos_max]` (so timeouts based
/// on `U` are routinely violated); at/after `gst`, delays are exactly `U`.
/// This is the executable form of the paper's network-failure system.
#[derive(Clone, Debug)]
pub struct GstDelay {
    /// Global stabilization time: sends at or after it take exactly `U`.
    pub gst: Time,
    /// Maximum pre-GST delay in ticks (inclusive, ≥ `U`).
    pub chaos_max: u64,
    rng: StdRng,
}

impl GstDelay {
    /// Pre-GST delays uniform in `[U, chaos_max]`, seeded with `seed`;
    /// exactly `U` from `gst` on.
    pub fn new(gst: Time, chaos_max: u64, seed: u64) -> Self {
        assert!(chaos_max >= U);
        GstDelay {
            gst,
            chaos_max,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DelayModel for GstDelay {
    fn delay(&mut self, _f: ProcessId, _t: ProcessId, sent: Time, _q: u64) -> u64 {
        if sent >= self.gst {
            U
        } else {
            // The message may still land after GST; delays are finite so
            // every message is eventually received.
            self.rng.gen_range(U..=self.chaos_max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_delay_is_constant() {
        let mut d = FixedDelay::unit();
        assert_eq!(d.delay(0, 1, Time::ZERO, 0), U);
    }

    #[test]
    fn jitter_respects_bounds_and_is_deterministic() {
        let mut a = JitterDelay::synchronous(42);
        let mut b = JitterDelay::synchronous(42);
        for i in 0..100 {
            let da = a.delay(0, 1, Time::ZERO, i);
            assert_eq!(da, b.delay(0, 1, Time::ZERO, i));
            assert!((U / 2..=U).contains(&da));
        }
    }

    #[test]
    fn gst_is_chaotic_before_and_unit_after() {
        let mut d = GstDelay::new(Time::units(5), 4 * U, 7);
        let before = d.delay(0, 1, Time::units(1), 0);
        assert!((U..=4 * U).contains(&before));
        assert_eq!(d.delay(0, 1, Time::units(5), 1), U);
        assert_eq!(d.delay(0, 1, Time::units(9), 2), U);
    }
}
