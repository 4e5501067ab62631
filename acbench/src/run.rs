//! One run of one workload: interleaved pairs of short, fresh-cluster
//! episodes (a light one, then a windowed one, so both modes sample the
//! whole run), and — in a traced run — probe repetitions between them.

use std::time::{Duration, Instant};

use crate::episode::{run_episode, Episode, Reference};
use crate::host;
use crate::metrics::{end_to_end, latency_us, service_layer, Value};
use crate::probes::ProbeSet;
use crate::spans::Recorder;
use crate::stats::pooled_ratio;
use crate::workloads::{Mode, WorkloadSpec, CLIENTS};

/// Pairs of episodes per second of `--seconds` in a plain run: 42 pairs
/// in the 55 s `BENCHMARK.json` asks for. The frozen transaction counts
/// make a pair last 1.0–1.35 s on the box they were tuned on while the
/// host leaves it alone, and up to 2 s while it does not; the deadline
/// then cuts the run short.
const PAIRS_PER_SECOND: f64 = 42.0 / 55.0;
/// A traced run spends half of its time in probes: 16 pairs in 55 s.
const TRACED_PAIRS_PER_SECOND: f64 = 16.0 / 55.0;
/// Repetitions of every probe per second of a traced run: 60 in 55 s.
const PROBE_REPS_PER_SECOND: f64 = 60.0 / 55.0;
/// Length of one probe repetition.
const PROBE_REP: Duration = Duration::from_millis(20);
/// Pairs of a `--quick` run.
const QUICK_PAIRS: usize = 2;

/// How to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Base seed: episode `i` uses `splitmix64(seed ^ i)`.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a plain one.
    pub trace: bool,
    /// Tiny smoke-test sizes; the numbers mean nothing.
    pub quick: bool,
}

/// What a run measured.
pub struct Outcome {
    /// End-to-end values (plain run) or per-layer values (traced run).
    pub values: Vec<Value>,
    /// Transactions offered over all episodes.
    pub attempted: u64,
    /// Offered transactions not unanimously decided in a verified episode.
    pub failed: u64,
    /// Failed output checks, prefixed with their episode.
    pub failures: Vec<String>,
    /// Pairs of episodes completed.
    pub pairs: usize,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Per cent of the machine's CPU time the hypervisor stole meanwhile.
    pub steal_pct: f64,
    /// Wall time spent in light and in windowed episodes.
    pub mode_wall: [Duration; 2],
    /// The spans of a traced run (empty otherwise).
    pub recorder: Recorder,
}

impl Outcome {
    /// Whether every output check passed and no transaction failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

fn target_pairs(opts: &Options) -> usize {
    if opts.quick {
        return QUICK_PAIRS;
    }
    let rate = if opts.trace {
        TRACED_PAIRS_PER_SECOND
    } else {
        PAIRS_PER_SECOND
    };
    ((opts.seconds * rate).round() as usize).max(2)
}

/// Run `spec` once.
pub fn run(spec: &WorkloadSpec, opts: &Options) -> Outcome {
    // Only the timer-driven workloads leave the CPU idle; see
    // `host::KeepAwake` for what that does to them on a shared VM.
    let keep_awake = spec.timer_driven.then(host::KeepAwake::start).flatten();
    if spec.timer_driven && keep_awake.is_none() {
        eprintln!("acbench: SCHED_IDLE refused, no keep-awake thread; timings will be noisier");
    }
    let started = Instant::now();
    let steal0 = host::steal_ticks();
    let budget = Duration::from_secs_f64(opts.seconds);
    let reference = Reference::of(spec);
    let mut rec = Recorder::new(opts.trace);
    let mut probes = opts.trace.then(|| ProbeSet::new(spec, reference.sim_msgs));
    let pairs = target_pairs(opts);
    let (probe_reps, probe_rep) = if opts.quick {
        (2, Duration::from_micros(500))
    } else {
        (
            (opts.seconds * PROBE_REPS_PER_SECOND).round().max(10.0) as usize,
            PROBE_REP,
        )
    };

    let mut light: Vec<Episode> = Vec::new();
    let mut windowed: Vec<Episode> = Vec::new();
    let mut rounds_done = 0usize;
    let mut slowest_pair = Duration::ZERO;

    for pair in 0..pairs {
        // The deadline only bites on a box slower than the one the
        // counts were frozen on; two pairs always run.
        if pair >= 2 && started.elapsed() + slowest_pair > budget {
            break;
        }
        let pair_started = Instant::now();
        for mode in [Mode::Light, Mode::Windowed] {
            let index = 2 * pair as u64 + u64::from(mode == Mode::Windowed);
            // A traced run arms the counting allocator on the light
            // episode of every other pair; the unarmed ones are the
            // baseline `trace.overhead_pct` compares against.
            let armed = opts.trace && mode == Mode::Light && pair % 2 == 0;
            let episode = run_episode(spec, opts, mode, index, armed, reference, &mut rec);
            match mode {
                Mode::Light => light.push(episode),
                Mode::Windowed => windowed.push(episode),
            }
            if let Some(p) = probes.as_mut() {
                // Spread the probe rounds evenly over the 2·pairs gaps
                // between episodes.
                let due = (index as usize + 1) * probe_reps / (2 * pairs);
                while rounds_done < due {
                    p.run_round(probe_rep, 1_000_000 + rounds_done as u64, &mut rec);
                    rounds_done += 1;
                }
            }
        }
        slowest_pair = slowest_pair.max(pair_started.elapsed());
    }

    let mut failures = Vec::new();
    for e in light.iter().chain(&windowed) {
        for f in &e.failures {
            failures.push(format!("{} episode: {f}", e.mode.name()));
        }
    }
    let all = || light.iter().chain(&windowed);
    let attempted: u64 = all().map(|e| e.offered).sum();
    let unfailed: u64 = all().map(|e| e.unfailed).sum();

    let steal_pct = host::steal_pct_since(steal0);
    let values = match &probes {
        None => end_to_end(reference, &light, &windowed),
        Some(p) => {
            let mut v = p.values();
            v.extend(service_layer(&light, &windowed));
            v.extend(process_layer(&light, &rec));
            v.push(Value::new("host.steal_pct", "%", steal_pct, 0));
            v.push(Value::new(
                "host.keep_awake",
                "count",
                f64::from(u8::from(keep_awake.is_some())),
                0,
            ));
            v
        }
    };
    Outcome {
        values,
        attempted,
        failed: attempted - unfailed,
        failures,
        pairs: windowed.len(),
        wall: started.elapsed(),
        steal_pct,
        mode_wall: [&light, &windowed].map(|eps| eps.iter().map(|e| e.wall).sum()),
        recorder: rec,
    }
}

/// The process / host / trace values of a traced run.
fn process_layer(light: &[Episode], rec: &Recorder) -> Vec<Value> {
    let armed = || light.iter().filter(|e| e.armed);
    let armed_txns: u64 = armed().map(|e| e.decided).sum();
    let mut out = vec![
        Value::new(
            "alloc.count_per_txn",
            "count",
            pooled_ratio(armed().map(|e| (e.alloc.0, e.decided))),
            armed_txns,
        ),
        Value::new(
            "alloc.bytes_per_txn",
            "bytes",
            pooled_ratio(armed().map(|e| (e.alloc.1, e.decided))),
            armed_txns,
        ),
        Value::new("proc.peak_rss_mb", "MiB", host::peak_rss_mb(), 0),
        Value::new("host.cores", "count", host::cores() as f64, 0),
        Value::new("load.clients", "count", CLIENTS as f64, 0),
    ];
    let on = latency_us(armed(), 50.0);
    let off = latency_us(light.iter().filter(|e| !e.armed), 50.0);
    let overhead = if off > 0.0 && on > 0.0 {
        100.0 * (on - off) / off
    } else {
        0.0
    };
    out.push(Value::new(
        "trace.overhead_pct",
        "%",
        overhead,
        light.len() as u64,
    ));
    out.push(Value::new(
        "trace.episode_coverage_pct",
        "%",
        rec.min_child_coverage_pct("episode"),
        light.len() as u64 * 2,
    ));
    for (name, ms) in rec.self_ms_by_name() {
        out.push(Value::new(format!("span.{name}_self_ms"), "ms", ms, 0));
    }
    out
}
