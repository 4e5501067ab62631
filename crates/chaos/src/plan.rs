//! The shared fault vocabulary: a seeded, reproducible [`ChaosPlan`] whose
//! schedule is written in **virtual delay units**, so the same plan drives
//! the discrete-event simulator (via [`ChaosPlan::to_fault_plan`] /
//! [`ChaosPlan::from_fault_plan`]) and the live service (via
//! [`ChaosPlan::spec`]: crash windows plus a `FaultProxy`).

use std::sync::Arc;
use std::time::Duration;

use ac_cluster::{CrashWindow, FaultSpec};
use ac_net::{Crash, FaultPlan};
use ac_sim::{Time, U};

use crate::proxy::FaultProxy;

/// A scheduled crash (and optional restart) of one node, in virtual units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// The node dies at this virtual time.
    pub down_units: u64,
    /// The node restarts (and recovers from its WAL) at this virtual time;
    /// `None` = stays dead for the rest of the run.
    pub up_units: Option<u64>,
}

/// A network partition window: messages crossing the `group` boundary are
/// dropped while the window is open.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// One side of the cut (the complement is the other side).
    pub group: Vec<usize>,
    /// Window start, virtual units.
    pub from_units: u64,
    /// Window end (heal), virtual units.
    pub until_units: u64,
    /// `true`: both directions are cut. `false`: **asymmetric** — only
    /// messages *from* the group to the outside are dropped; replies still
    /// flow in (the half-open failure mode real networks produce).
    pub symmetric: bool,
}

/// An i.i.d. message-loss window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LossSpec {
    /// Window start, virtual units.
    pub from_units: u64,
    /// Window end, virtual units.
    pub until_units: u64,
    /// Drop probability in permille (100 = the classic "lossy 10%").
    pub permille: u16,
}

/// An extra-latency window: every envelope is held back this much longer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelaySpec {
    /// Window start, virtual units.
    pub from_units: u64,
    /// Window end, virtual units.
    pub until_units: u64,
    /// Extra delay added to each delivery, in virtual units.
    pub extra_units: u64,
}

/// A complete, seeded fault schedule for one run.
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    /// Number of nodes the plan is sized for.
    pub n: usize,
    /// Seed of the deterministic drop lottery (same plan + same message
    /// sequence ⇒ same fates).
    pub seed: u64,
    /// Per-node crash schedule.
    pub crashes: Vec<Option<CrashSpec>>,
    /// Partition windows.
    pub partitions: Vec<PartitionSpec>,
    /// Loss windows.
    pub losses: Vec<LossSpec>,
    /// Extra-latency windows.
    pub delays: Vec<DelaySpec>,
}

impl ChaosPlan {
    /// A failure-free plan for `n` nodes.
    pub fn none(n: usize) -> ChaosPlan {
        ChaosPlan {
            n,
            seed: 1,
            crashes: vec![None; n],
            partitions: Vec::new(),
            losses: Vec::new(),
            delays: Vec::new(),
        }
    }

    /// Set the drop-lottery seed (builder style).
    pub fn seed(mut self, seed: u64) -> ChaosPlan {
        self.seed = seed;
        self
    }

    /// Crash node `p` at `down` units, restarting at `up` (builder style).
    pub fn crash(mut self, p: usize, down: u64, up: Option<u64>) -> ChaosPlan {
        assert!(p < self.n, "node id out of range");
        if let Some(u) = up {
            assert!(u > down, "restart must follow the crash");
        }
        self.crashes[p] = Some(CrashSpec {
            down_units: down,
            up_units: up,
        });
        self
    }

    /// Cut `group` off from the rest during `[from, until)` units (builder
    /// style); see [`PartitionSpec::symmetric`].
    pub fn partition(
        mut self,
        group: Vec<usize>,
        from: u64,
        until: u64,
        symmetric: bool,
    ) -> ChaosPlan {
        assert!(until > from);
        assert!(group.iter().all(|&p| p < self.n));
        self.partitions.push(PartitionSpec {
            group,
            from_units: from,
            until_units: until,
            symmetric,
        });
        self
    }

    /// Drop each message with probability `permille`/1000 during
    /// `[from, until)` units (builder style).
    pub fn lossy(mut self, from: u64, until: u64, permille: u16) -> ChaosPlan {
        assert!(until > from && permille <= 1000);
        self.losses.push(LossSpec {
            from_units: from,
            until_units: until,
            permille,
        });
        self
    }

    /// Add `extra` units of latency to every delivery during `[from,
    /// until)` units (builder style).
    pub fn extra_delay(mut self, from: u64, until: u64, extra: u64) -> ChaosPlan {
        assert!(until > from && extra > 0);
        self.delays.push(DelaySpec {
            from_units: from,
            until_units: until,
            extra_units: extra,
        });
        self
    }

    /// Whether the plan injects any fault at all.
    pub fn any(&self) -> bool {
        self.crashes.iter().any(|c| c.is_some())
            || !self.partitions.is_empty()
            || !self.losses.is_empty()
            || !self.delays.is_empty()
    }

    /// Import the simulator's crash schedule: each [`Crash`] becomes a
    /// crash with no restart at the same virtual time. The simulator's
    /// partial-broadcast refinement (`sends_at_crash_time`) has no live
    /// equivalent — a live node flushes whole batches — so it maps to a
    /// plain crash at the same instant (the *coarser* failure, which any
    /// correct protocol must tolerate anyway).
    pub fn from_fault_plan(plan: &FaultPlan) -> ChaosPlan {
        let mut out = ChaosPlan::none(plan.n());
        for p in 0..plan.n() {
            if let Some(c) = plan.crash_of(p) {
                out.crashes[p] = Some(CrashSpec {
                    down_units: c.at.ticks() / U,
                    up_units: None,
                });
            }
        }
        out
    }

    /// Export to the simulator's [`FaultPlan`]. Only crash-shaped plans
    /// convert: the simulator's network never loses or partitions (its
    /// model is eventual synchrony), and it has no restart — a plan using
    /// those is rejected with an explanation.
    pub fn to_fault_plan(&self) -> Result<FaultPlan, String> {
        if !self.partitions.is_empty() || !self.losses.is_empty() || !self.delays.is_empty() {
            return Err(
                "only crash schedules convert to ac_net::FaultPlan (the simulator's \
                 channels neither lose nor partition)"
                    .into(),
            );
        }
        let mut plan = FaultPlan::none(self.n);
        for (p, c) in self.crashes.iter().enumerate() {
            if let Some(c) = c {
                if c.up_units.is_some() {
                    return Err(format!(
                        "node {p} restarts at {:?} units: FaultPlan cannot express recovery",
                        c.up_units
                    ));
                }
                plan = plan.with_crash(p, Crash::at(Time::units(c.down_units)));
            }
        }
        Ok(plan)
    }

    /// The live service's per-node crash windows for a given unit length.
    pub fn crash_windows(&self, unit: Duration) -> Vec<Option<CrashWindow>> {
        self.crashes
            .iter()
            .map(|c| {
                c.map(|c| CrashWindow {
                    down_after: unit * u32::try_from(c.down_units).unwrap_or(u32::MAX),
                    up_after: c
                        .up_units
                        .map(|u| unit * u32::try_from(u).unwrap_or(u32::MAX)),
                })
            })
            .collect()
    }

    /// The live service's fault specification at `unit`: the
    /// [`FaultProxy`] deciding every node-to-node
    /// envelope's fate (none for a failure-free plan), the crash windows,
    /// and the write-ahead log on, so a crashed node recovers from it.
    pub fn spec(&self, unit: Duration) -> FaultSpec {
        FaultSpec {
            policy: self
                .any()
                .then(|| Arc::new(FaultProxy::new(self.clone(), unit)) as _),
            crashes: self.crash_windows(unit),
            durable: true,
        }
    }

    /// The fault window `[from, until)` in virtual units: the earliest
    /// injection and the latest heal across every spec. A crash without a
    /// restart never heals — its end is `u64::MAX` (the caller clamps to
    /// the run length). `None` if the plan is failure-free.
    pub fn fault_window_units(&self) -> Option<(u64, u64)> {
        let mut from = u64::MAX;
        let mut until = 0u64;
        for c in self.crashes.iter().flatten() {
            from = from.min(c.down_units);
            until = until.max(c.up_units.unwrap_or(u64::MAX));
        }
        for p in &self.partitions {
            from = from.min(p.from_units);
            until = until.max(p.until_units);
        }
        for l in &self.losses {
            from = from.min(l.from_units);
            until = until.max(l.until_units);
        }
        for d in &self.delays {
            from = from.min(d.from_units);
            until = until.max(d.until_units);
        }
        (from != u64::MAX).then_some((from, until))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_round_trips_for_crash_schedules() {
        let sim = FaultPlan::none(4)
            .with_crash(1, Crash::initially())
            .with_crash(3, Crash::at(Time::units(2)));
        let chaos = ChaosPlan::from_fault_plan(&sim);
        assert_eq!(
            chaos.crashes[1],
            Some(CrashSpec {
                down_units: 0,
                up_units: None
            })
        );
        assert_eq!(chaos.crashes[3].unwrap().down_units, 2);
        let back = chaos.to_fault_plan().expect("crash-only plans convert");
        assert_eq!(back.crashed_ids(), sim.crashed_ids());
        for p in 0..4 {
            assert_eq!(
                back.crash_of(p).map(|c| c.at),
                sim.crash_of(p).map(|c| c.at)
            );
        }
    }

    #[test]
    fn richer_plans_refuse_simulator_export() {
        let plan = ChaosPlan::none(3).lossy(0, 10, 100);
        assert!(plan.to_fault_plan().is_err());
        let plan = ChaosPlan::none(3).crash(0, 5, Some(9));
        let err = plan.to_fault_plan().unwrap_err();
        assert!(err.contains("recovery"), "{err}");
    }

    #[test]
    fn fault_window_spans_all_specs() {
        let plan = ChaosPlan::none(4)
            .crash(1, 10, Some(30))
            .partition(vec![0, 1], 5, 25, true)
            .lossy(12, 40, 100);
        assert_eq!(plan.fault_window_units(), Some((5, 40)));
        assert_eq!(ChaosPlan::none(2).fault_window_units(), None);
        // A crash without restart never heals.
        let forever = ChaosPlan::none(2).crash(0, 3, None);
        assert_eq!(forever.fault_window_units(), Some((3, u64::MAX)));
    }

    #[test]
    fn crash_windows_scale_by_unit() {
        let plan = ChaosPlan::none(2).crash(1, 4, Some(10));
        let w = plan.crash_windows(Duration::from_millis(5));
        assert!(w[0].is_none());
        let w1 = w[1].unwrap();
        assert_eq!(w1.down_after, Duration::from_millis(20));
        assert_eq!(w1.up_after, Some(Duration::from_millis(50)));
    }
}
