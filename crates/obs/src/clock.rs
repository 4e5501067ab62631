//! Cross-process clock alignment for the flight recorder.
//!
//! Every process in a multi-process cluster stamps its flight events
//! against its *own* monotonic epoch (`Instant::now()` at process
//! start), so two nodes' timestamps are mutually meaningless until the
//! collector knows each node's offset. The estimate comes from echo
//! round trips over the existing per-peer connections, NTP-style:
//!
//! ```text
//! collector              node
//!   t0 ──── EchoReq ────►
//!                        t_node   (node stamps its own clock)
//!   t1 ◄─── EchoResp ────
//! ```
//!
//! For one round trip, the node's stamp was taken somewhere inside
//! `[t0, t1]` on the collector's clock; the midpoint estimate is
//! `offset = (t0 + t1) / 2 − t_node` (so `collector ≈ node + offset`),
//! and the estimate cannot be wrong by more than half the round-trip
//! time — the classic NTP error bound. Over several round trips the
//! **minimum-RTT sample** wins: queueing can only inflate a round trip,
//! so the tightest one carries the least-contaminated midpoint and the
//! smallest uncertainty bound.
//!
//! The uncertainty is surfaced, never hidden: [`ClockAlignment`] carries
//! `uncertainty_nanos = rtt/2` of its winning sample, and the
//! attribution layer reports the worst per-node uncertainty next to
//! every cross-process breakdown so a reader knows how much of a
//! microsecond-scale stage could be alignment error rather than work.

use ac_sim::wire_struct;

/// One echo round trip's raw timestamps, all in nanoseconds: `t0`/`t1`
/// on the collector's clock, `t_node` on the echoed node's clock.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClockSample {
    /// Collector clock when the request left.
    pub t0_nanos: u64,
    /// Node clock when it answered.
    pub node_nanos: u64,
    /// Collector clock when the response arrived.
    pub t1_nanos: u64,
}

impl ClockSample {
    /// Round-trip time on the collector's clock (clamped non-negative).
    pub fn rtt_nanos(&self) -> u64 {
        self.t1_nanos.saturating_sub(self.t0_nanos)
    }

    /// Midpoint offset estimate: `collector − node` in nanoseconds.
    pub fn offset_nanos(&self) -> i64 {
        let mid = (i128::from(self.t0_nanos) + i128::from(self.t1_nanos)) / 2;
        let off = mid - i128::from(self.node_nanos);
        i64::try_from(off).unwrap_or(if off > 0 { i64::MAX } else { i64::MIN })
    }
}

/// A node's clock mapped into the collector's timeline:
/// `collector_nanos = node_nanos + offset_nanos`, correct to within
/// `± uncertainty_nanos`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClockAlignment {
    /// The node this alignment maps.
    pub node: u32,
    /// Offset to add to the node's timestamps (may be negative: the
    /// node's epoch can be *later* than the collector's).
    pub offset_nanos: i64,
    /// NTP error bound of the winning sample: half its round trip.
    pub uncertainty_nanos: u64,
    /// Round-trip time of the winning (minimum-RTT) sample.
    pub rtt_nanos: u64,
    /// How many round trips the estimate was chosen from.
    pub samples: u32,
}

impl ClockAlignment {
    /// The identity alignment (single-process runs: every recorder
    /// already shares the collector's epoch, offset 0, no uncertainty).
    pub fn identity(node: u32) -> ClockAlignment {
        ClockAlignment {
            node,
            offset_nanos: 0,
            uncertainty_nanos: 0,
            rtt_nanos: 0,
            samples: 0,
        }
    }

    /// Estimate the alignment for `node` from echo samples: the
    /// minimum-RTT round trip supplies the offset and the `rtt/2`
    /// uncertainty bound. Returns `None` when `samples` is empty.
    pub fn estimate(node: u32, samples: &[ClockSample]) -> Option<ClockAlignment> {
        let best = samples.iter().min_by_key(|s| s.rtt_nanos())?;
        Some(ClockAlignment {
            node,
            offset_nanos: best.offset_nanos(),
            uncertainty_nanos: best.rtt_nanos() / 2,
            rtt_nanos: best.rtt_nanos(),
            samples: samples.len() as u32,
        })
    }

    /// Map a node-clock timestamp into the collector's timeline,
    /// saturating at the `u64` range ends (a negative collector time can
    /// only arise from timestamps predating the collector's epoch by
    /// more than the offset error; clamping to 0 keeps the monotone
    /// clamp downstream exact).
    pub fn apply(&self, node_nanos: u64) -> u64 {
        let shifted = i128::from(node_nanos) + i128::from(self.offset_nanos);
        u64::try_from(shifted).unwrap_or(if shifted < 0 { 0 } else { u64::MAX })
    }
}

wire_struct!(ClockAlignment {
    node,
    offset_nanos,
    uncertainty_nanos,
    rtt_nanos,
    samples
});

#[cfg(test)]
mod tests {
    use super::*;
    use ac_sim::Wire;

    /// Build the echo samples a node with true offset `off` (collector −
    /// node) would produce, with per-sample one-way delays.
    fn samples_with_offset(off: i64, delays: &[(u64, u64)]) -> Vec<ClockSample> {
        let mut t = 100_000_000u64; // collector clock cursor
        delays
            .iter()
            .map(|&(up, down)| {
                let t0 = t;
                let node_at = (i128::from(t0 + up) - i128::from(off)) as u64;
                let t1 = t0 + up + down;
                t = t1 + 10_000;
                ClockSample {
                    t0_nanos: t0,
                    node_nanos: node_at,
                    t1_nanos: t1,
                }
            })
            .collect()
    }

    #[test]
    fn symmetric_paths_recover_the_offset_exactly() {
        for off in [-5_000_000i64, 0, 12_345_678] {
            let s = samples_with_offset(off, &[(700, 700)]);
            let a = ClockAlignment::estimate(3, &s).unwrap();
            assert_eq!(a.offset_nanos, off);
            assert_eq!(a.uncertainty_nanos, 700);
            assert_eq!(a.rtt_nanos, 1_400);
        }
    }

    #[test]
    fn min_rtt_sample_wins_and_bounds_the_error() {
        let off = 250_000i64;
        // One tight symmetric trip among noisy asymmetric ones.
        let s = samples_with_offset(
            off,
            &[(9_000, 1_000), (400, 400), (200, 7_000), (3_000, 3_000)],
        );
        let a = ClockAlignment::estimate(0, &s).unwrap();
        assert_eq!(a.rtt_nanos, 800, "tightest round trip selected");
        assert_eq!(a.samples, 4);
        let err = (a.offset_nanos - off).unsigned_abs();
        assert!(
            err <= a.uncertainty_nanos,
            "error {err} exceeds reported uncertainty {}",
            a.uncertainty_nanos
        );
    }

    #[test]
    fn apply_maps_and_saturates() {
        let a = ClockAlignment {
            node: 1,
            offset_nanos: -500,
            uncertainty_nanos: 10,
            rtt_nanos: 20,
            samples: 1,
        };
        assert_eq!(a.apply(1_500), 1_000);
        assert_eq!(a.apply(100), 0, "pre-epoch clamps to zero");
        let b = ClockAlignment {
            offset_nanos: 500,
            ..a
        };
        assert_eq!(b.apply(u64::MAX - 100), u64::MAX, "saturates high");
        assert_eq!(ClockAlignment::identity(7).apply(42), 42);
    }

    #[test]
    fn no_samples_no_estimate() {
        assert!(ClockAlignment::estimate(0, &[]).is_none());
    }

    #[test]
    fn wire_round_trip() {
        let a = ClockAlignment {
            node: 9,
            offset_nanos: -123_456,
            uncertainty_nanos: 77,
            rtt_nanos: 154,
            samples: 16,
        };
        assert_eq!(ClockAlignment::from_wire(&a.to_wire()).unwrap(), a);
    }
}
