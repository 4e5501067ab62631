//! One episode: a fresh cluster, one call into the service, verification
//! of everything it returned, and the raw readings the metrics are
//! computed from.
//!
//! The service is driven only through its public functions
//! (`ServiceConfig`, `run_service_faulted`, `FaultSpec`) and read only
//! through `ServiceOutcome`'s public fields.

use std::time::{Duration, Instant};

use ac_cluster::{run_service_faulted, ServiceConfig, ServiceOutcome, Stage, TxnEvent};
use ac_commit::problem::COMMIT;

use crate::run::Options;
use crate::spans::Recorder;
use crate::workloads::{Mode, WorkloadSpec, CLIENTS};
use crate::{alloc, host};

/// What the simulator says a nice execution of the workload's protocol
/// costs, in the paper's currency.
#[derive(Copy, Clone, Debug)]
pub struct Reference {
    /// Messages of one nice execution among the workload's participants.
    pub sim_msgs: u64,
    /// Message delays of that execution.
    pub delays: u64,
}

impl Reference {
    /// Run one simulated nice execution of `spec`'s protocol.
    pub fn of(spec: &WorkloadSpec) -> Reference {
        let metrics = spec
            .kind
            .run(&ac_commit::Scenario::nice(
                spec.participants,
                spec.instance_resilience(),
            ))
            .metrics();
        Reference {
            sim_msgs: metrics.messages as u64,
            delays: metrics
                .delays
                .expect("a nice execution decides at every process"),
        }
    }
}

/// The service's own instruments, copied out of a `ServiceOutcome`.
#[derive(Clone, Debug)]
pub struct ServiceReadings {
    /// `(count, total nanoseconds)` per seam meter, `Stage::ALL` order.
    pub stage: [(u64, u64); Stage::COUNT],
    /// WAL force operations across all nodes.
    pub wal_forces: u64,
    /// Prepare records staged on the `Begin` critical path.
    pub wal_prepare_forces: u64,
    /// Node-loop wakeups that found nothing to do.
    pub spurious_wakeups: u64,
    /// `Begin` re-sends.
    pub retries: u64,
    /// Expired bounded reply waits.
    pub reply_timeouts: u64,
    /// Early envelopes dropped at a full pre-open buffer.
    pub orphaned_envelopes: u64,
    /// Attribution shares (per cent): channel, lock, wal, protocol,
    /// transport.
    pub share_pct: [f64; 5],
    /// Share of decided transactions with a reconstructed timeline.
    pub coverage_pct: f64,
    /// The service's own choice of the delay unit `U`, microseconds.
    pub unit_us: f64,
}

/// Everything one episode measured.
#[derive(Clone, Debug)]
pub struct Episode {
    /// Load mode of the episode.
    pub mode: Mode,
    /// Transactions the closed loop offered.
    pub offered: u64,
    /// Transactions that reached a decision at every participant.
    pub decided: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Offered transactions that were decided unanimously in an episode
    /// that passed every check (0 if any check failed).
    pub unfailed: u64,
    /// Raw `decided_at − submitted_at` of the decided transactions of
    /// each slice (see [`slice_ranges`]; slices in submission order),
    /// nanoseconds, ascending within a slice.
    pub slice_latencies_ns: Vec<Vec<u64>>,
    /// Commits per second of each slice (slices in decision order).
    pub slice_tps: Vec<f64>,
    /// The load phase (first submit → last reply), as the service
    /// reports it.
    pub elapsed: Duration,
    /// Wall time of the whole `run_service_faulted` call.
    pub wall: Duration,
    /// Process CPU time consumed across the call, nanoseconds.
    pub cpu_ns: u64,
    /// Protocol messages that crossed node boundaries.
    pub wire_messages: u64,
    /// Whether the allocation counter was armed across the call.
    pub armed: bool,
    /// `(allocations, bytes)` counted across the call (0 unless armed).
    pub alloc: (u64, u64),
    /// The service's instruments.
    pub service: ServiceReadings,
    /// Failed output checks (empty = the episode verified).
    pub failures: Vec<String>,
}

impl Episode {
    /// Everything outside the load phase: listener bind and dial, thread
    /// spawn, shutdown and join, the post-run audit and attribution fold.
    pub fn setup(&self) -> Duration {
        self.wall.saturating_sub(self.elapsed)
    }
}

/// Parts an episode's transactions are cut into, in time order.
const PARTS: usize = 8;
/// Leading parts left out of every timing: a fresh cluster's first
/// transactions run in a regime of their own (on `paxos_channel` the
/// first fifth of a light episode commits in half the time of the rest,
/// on `paxos_tcp` the first eighth in three quarters), and a windowed
/// episode starts by filling its window.
const WARMUP_PARTS: usize = 2;

/// Index ranges of the `slices` slices of `n` time-ordered transactions:
/// the first `WARMUP_PARTS / PARTS` of them belong to no slice, the rest
/// is cut into `slices` runs of equal length (the last takes the
/// remainder). Fewer than `PARTS` transactions per slice make one slice
/// of everything.
pub fn slice_ranges(n: usize, slices: usize) -> Vec<std::ops::Range<usize>> {
    if slices == 0 || n < PARTS * slices {
        return std::iter::once(0..n).collect();
    }
    let start = n * WARMUP_PARTS / PARTS;
    let len = (n - start) / slices;
    (0..slices)
        .map(|i| {
            let from = start + i * len;
            from..if i + 1 == slices { n } else { from + len }
        })
        .collect()
}

/// Raw commit latencies per slice, from the per-transaction events —
/// **not** from `ServiceOutcome::latency`, whose log buckets are ~5 %
/// wide.
pub fn slice_latencies_ns(events: &[TxnEvent], slices: usize) -> Vec<Vec<u64>> {
    let mut decided: Vec<(Duration, u64)> = events
        .iter()
        .filter_map(|e| {
            let latency = e.decided_at?.saturating_sub(e.submitted_at);
            Some((e.submitted_at, latency.as_nanos() as u64))
        })
        .collect();
    decided.sort_unstable();
    slice_ranges(decided.len(), slices)
        .into_iter()
        .map(|range| {
            let mut v: Vec<u64> = decided[range].iter().map(|d| d.1).collect();
            v.sort_unstable();
            v
        })
        .collect()
}

/// Commits per second per slice: the commits among a slice's decisions
/// over the time from the decision before the slice to its last one (for
/// a slice that starts the episode, from the first submission).
pub fn slice_tps(events: &[TxnEvent], slices: usize) -> Vec<f64> {
    let mut decided: Vec<(Duration, bool)> = events
        .iter()
        .filter_map(|e| Some((e.decided_at?, e.committed == Some(true))))
        .collect();
    decided.sort_unstable();
    let first_submit = events.iter().map(|e| e.submitted_at).min();
    slice_ranges(decided.len(), slices)
        .into_iter()
        .filter(|range| !range.is_empty())
        .map(|range| {
            let from = match range.start {
                0 => first_submit.unwrap_or_default(),
                i => decided[i - 1].0,
            };
            let commits = decided[range.clone()].iter().filter(|d| d.1).count();
            let span = decided[range.end - 1].0.saturating_sub(from);
            commits as f64 / span.as_secs_f64()
        })
        .collect()
}

/// Check everything the service returned for one episode. Returns the
/// failed checks.
pub fn verify(
    spec: &WorkloadSpec,
    mode: Mode,
    cfg: &ServiceConfig,
    out: &ServiceOutcome,
    reference: Reference,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    check(
        out.is_safe(),
        format!("safety audit: {:?}", out.violations.first()),
    );
    check(out.stalled == 0, format!("{} stalled", out.stalled));
    let expected = cfg.clients * cfg.txns_per_client;
    check(
        out.offered == expected && out.txns == expected,
        format!(
            "offered {} / decided {} of {expected}",
            out.offered, out.txns
        ),
    );
    check(
        out.committed + out.aborted == out.txns,
        "committed + aborted != decided".to_string(),
    );

    // Serializability: replaying each node's committed writes in its
    // apply order must rebuild the live shard. With 2^20 keys per shard
    // only the written keys are compared, plus the shard totals.
    let rebuilt = out.replay();
    let mut mismatches = 0usize;
    for (p, (live, replayed)) in out.shards.iter().zip(&rebuilt).enumerate() {
        if live.total() != replayed.total() || live.locked() != 0 {
            mismatches += 1;
        }
        for rec in out.node_logs[p].iter().filter(|r| r.decision == COMMIT) {
            for key in rec.txn.writes.keys().filter(|k| k.shard == p) {
                if live.read(key.k) != replayed.read(key.k) {
                    mismatches += 1;
                }
            }
        }
    }
    check(
        mismatches == 0,
        format!("replay differs from the live shards in {mismatches} place(s)"),
    );

    if mode == Mode::Light {
        // One transaction in flight per client: the live message count
        // is the simulator's, within 1 % (plus the workload's allowance
        // for a fallback path, see `WorkloadSpec::wire_excess`).
        let want = (reference.sim_msgs * out.txns as u64) as f64;
        let got = out.wire_messages as f64;
        check(
            (0.99 * want..=(1.0 + spec.wire_excess) * want).contains(&got),
            format!(
                "{got} wire messages for {} transactions, simulator says {want}",
                out.txns
            ),
        );
    }
    if spec.durable {
        check(
            out.wal_forces > 0,
            "durable run without a WAL force".to_string(),
        );
    } else {
        check(
            out.wal_forces == 0 && out.wal_prepare_forces == 0,
            format!("{} WAL forces on a non-durable run", out.wal_forces),
        );
    }
    failures
}

fn readings(cfg: &ServiceConfig, out: &ServiceOutcome) -> ServiceReadings {
    let mut stage = [(0, 0); Stage::COUNT];
    for (slot, s) in stage.iter_mut().zip(Stage::ALL) {
        *slot = out.stage_meters.get(s);
    }
    let mut share_pct = [0.0; 5];
    for (i, s) in share_pct.iter_mut().enumerate() {
        *s = out.attribution.share_pct(i);
    }
    ServiceReadings {
        stage,
        wal_forces: out.wal_forces as u64,
        wal_prepare_forces: out.wal_prepare_forces as u64,
        spurious_wakeups: out.spurious_wakeups as u64,
        retries: out.retries as u64,
        reply_timeouts: out.reply_timeouts as u64,
        orphaned_envelopes: out.orphaned_envelopes as u64,
        share_pct,
        coverage_pct: out.attribution.coverage_pct(),
        unit_us: cfg.unit.as_secs_f64() * 1e6,
    }
}

/// SplitMix64 finaliser: decorrelates the per-episode seeds derived from
/// the run's base seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run and verify one episode. `index` numbers the episode within the
/// run: it picks the seed (`splitmix64(opts.seed ^ index)`) and is the
/// trace id of the episode's spans. `armed` counts allocations across the
/// service call.
pub fn run_episode(
    spec: &WorkloadSpec,
    opts: &Options,
    mode: Mode,
    index: u64,
    armed: bool,
    reference: Reference,
    rec: &mut Recorder,
) -> Episode {
    rec.enter("episode", index);

    rec.enter("configure", index);
    let cfg = spec.config(mode, splitmix64(opts.seed ^ index), opts.quick);
    let faults = spec.faults();
    debug_assert_eq!(cfg.clients, CLIENTS);
    rec.exit();

    rec.enter("run_service", index);
    alloc::arm(armed);
    let alloc0 = alloc::snapshot();
    let cpu0 = host::process_cpu_ns();
    let t0 = Instant::now();
    let out = run_service_faulted(&cfg, &faults);
    let wall = t0.elapsed();
    let cpu_ns = host::process_cpu_ns() - cpu0;
    let alloc1 = alloc::snapshot();
    alloc::arm(false);
    rec.exit();

    rec.enter("verify", index);
    let failures = verify(spec, mode, &cfg, &out, reference);
    rec.exit();

    rec.enter("stats", index);
    let slices = spec.slices();
    let episode = Episode {
        mode,
        offered: out.offered as u64,
        decided: out.txns as u64,
        committed: out.committed as u64,
        unfailed: if failures.is_empty() {
            out.txns as u64
        } else {
            0
        },
        slice_latencies_ns: slice_latencies_ns(&out.txn_events, slices),
        slice_tps: slice_tps(&out.txn_events, slices),
        elapsed: out.elapsed,
        wall,
        cpu_ns,
        wire_messages: out.wire_messages as u64,
        armed,
        alloc: (alloc1.0 - alloc0.0, alloc1.1 - alloc0.1),
        service: readings(&cfg, &out),
        failures,
    };
    drop(out);
    rec.exit();

    rec.exit();
    episode
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use ac_cluster::LatencyHistogram;

    fn event(id: u64, submitted_ns: u64, decided_ns: Option<u64>) -> TxnEvent {
        TxnEvent {
            id,
            client: 0,
            participants: 2,
            submitted_at: Duration::from_nanos(submitted_ns),
            decided_at: decided_ns.map(Duration::from_nanos),
            committed: decided_ns.map(|_| true),
            retries: 0,
            first_protocol_at: None,
            votes_held_at: None,
            journaled_at: None,
        }
    }

    /// Events and a histogram of the same three commits disagree: the
    /// percentile follows the events.
    #[test]
    fn percentiles_come_from_txn_events_not_the_histogram() {
        // Latencies 5.30 ms and 5.31 ms sit inside one histogram bucket.
        let events = [
            event(1, 1_000, Some(5_301_000)),
            event(2, 2_000, Some(5_312_000)),
            event(3, 3_000, Some(5_303_000)),
            event(4, 4_000, None), // undecided: contributes no sample
        ];
        let slices = slice_latencies_ns(&events, 6);
        assert_eq!(slices.len(), 1, "too few transactions to cut");
        let raw = &slices[0];
        assert_eq!(*raw, vec![5_300_000, 5_300_000, 5_310_000]);
        assert_eq!(percentile(raw, 50.0), 5_300_000);
        assert_eq!(percentile(raw, 95.0), 5_310_000);
        // What `ServiceOutcome::latency` would hold for the same commits:
        // one bucket holds all three, so its median is not theirs.
        let mut latency = LatencyHistogram::new();
        for &ns in raw {
            latency.record(ns);
        }
        assert_ne!(latency.p50(), percentile(raw, 50.0));
    }

    #[test]
    fn slices_drop_the_warm_up_and_cover_the_rest_once() {
        // 96 transactions, 6 slices: the first 24 are warm-up, then 12 each.
        let ranges = slice_ranges(96, 6);
        assert_eq!(ranges.len(), 6);
        assert_eq!(ranges[0], 24..36);
        assert_eq!(ranges[5], 84..96);
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        // The last slice takes the remainder.
        assert_eq!(slice_ranges(100, 6).last(), Some(&(85..100)));
        // One slice still drops the warm-up; too few transactions do not.
        assert_eq!(slice_ranges(200, 1), vec![50..200]);
        assert_eq!(slice_ranges(7, 1), vec![0..7]);
        assert_eq!(slice_ranges(40, 6), vec![0..40]);

        // 96 transactions submitted 1 µs apart, decided 10 µs later, every
        // fourth aborted; events arrive out of order.
        let mut events: Vec<TxnEvent> = (0..96u64)
            .map(|i| {
                let mut e = event(i, i * 1_000, Some(i * 1_000 + 10_000 + i));
                e.committed = Some(i % 4 != 0);
                e
            })
            .collect();
        events.reverse();
        let latencies = slice_latencies_ns(&events, 6);
        assert_eq!(latencies.len(), 6);
        assert_eq!(
            latencies[0],
            (24..36).map(|i| 10_000 + i).collect::<Vec<u64>>()
        );
        let tps = slice_tps(&events, 6);
        assert_eq!(tps.len(), 6);
        // 9 commits among 12 decisions, 1.001 µs apart.
        let want = 9.0 / (12.0 * 1.001e-6);
        assert!(tps.iter().all(|t| (t / want - 1.0).abs() < 1e-9), "{tps:?}");
    }

    #[test]
    fn episode_seeds_differ_per_index_and_repeat_per_seed() {
        assert_eq!(splitmix64(42 ^ 3), splitmix64(42 ^ 3));
        assert_ne!(splitmix64(42), splitmix64(42 ^ 1));
        assert_ne!(splitmix64(0), 0);
    }
}
