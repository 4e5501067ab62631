//! What the benchmark reads from the process and the machine: CPU time,
//! peak memory, core count, and a fixed calibration loop whose spread
//! says how much the *machine* moved during a run.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, the only platform the benchmark runs on) and the call
    // writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system) consumed so far by every thread of this
/// process, exited ones included — minus what the [`KeepAwake`] thread
/// burnt — in nanoseconds. This is the quantity `utime + stime` of
/// `/proc/self/stat` reports, read from the scheduler's nanosecond
/// accounting instead of 10 ms ticks: a windowed episode burns 0.3–1.5 s
/// of CPU, so a tick is 1–3 % of the reading.
pub fn process_cpu_ns() -> u64 {
    // Read the spinner's share first: it only grows, so reading it
    // early can only under-subtract by the few microseconds in between.
    let keep_awake = KEEP_AWAKE_CPU_NS.load(Ordering::Relaxed);
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID).saturating_sub(keep_awake)
}

/// CPU time of the keep-awake thread, published by that thread itself.
/// Relaxed: a statistic, it publishes no other data.
static KEEP_AWAKE_CPU_NS: AtomicU64 = AtomicU64::new(0);

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// `SCHED_IDLE` on Linux: runs only when nothing else wants the CPU and
/// is preempted the moment anything else wakes.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// A `SCHED_IDLE` thread that spins whenever the service leaves the
/// pinned CPU idle, so the vCPU never halts.
///
/// Why: the timer-driven workloads idle most of the time. A halted vCPU
/// is descheduled by the host; what runs there meanwhile evicts the
/// service's cache lines, and how long the host takes to bring the vCPU
/// back decides how many timers fire together. CPU per commit on
/// `inbac_skewed` read 21.9 to 34.0 µs across back-to-back runs without
/// the spinner and 26.7 to 34.5 µs with it, and commit latency lost its
/// timer-lag tail. The service's threads preempt an idle-class thread on
/// wake-up, so the spinner costs them a context switch where they would
/// otherwise pay an idle exit. Its CPU time is subtracted from
/// [`process_cpu_ns`]. What it hides is exactly that idle exit and the
/// timer lag that follows it, which a deployed service pays: the
/// `service.timer_lag_*_us` readings are taken with the CPU kept awake.
///
/// It runs only for the workloads that idle by design. The message-driven
/// ones keep the CPU busy themselves, and there an always-busy vCPU only
/// invites the host to deschedule it: interleaved A/B runs of
/// `paxos_channel` completed 16 of 20 pairs in their 28 s with the
/// spinner and 19 without, with `commit_p95_us` spread 31 % against 8 %.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Start the spinner on the calling thread's CPU mask. `None` when
    /// the kernel refuses `SCHED_IDLE` (a spinner at normal priority
    /// would take half the CPU, so none runs).
    pub fn start() -> Option<KeepAwake> {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<bool>();
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let param = SchedParam { sched_priority: 0 };
                // SAFETY: `param` is a valid `sched_param`; pid 0 names
                // the calling thread.
                let ok = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                let _ = ready_tx.send(ok);
                if !ok {
                    return;
                }
                let mut x = 1u64;
                let mut accounted = cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
                // Relaxed: the flag publishes no other data.
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..16_384 {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    }
                    black_box(x);
                    // Add what this thread burnt since the last round;
                    // the total outlives the thread, as the process
                    // clock it is subtracted from does.
                    let now = cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
                    KEEP_AWAKE_CPU_NS.fetch_add(now - accounted, Ordering::Relaxed);
                    accounted = now;
                }
            })
        };
        let mut keep = KeepAwake {
            stop,
            handle: Some(handle),
        };
        if ready_rx.recv() == Ok(true) {
            Some(keep)
        } else {
            keep.join();
            None
        }
    }

    fn join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            // The spinner cannot panic; nothing to report.
            let _ = h.join();
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.join();
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// Restrict the calling thread — and every thread it spawns afterwards —
/// to **one** CPU, the highest-numbered one it is allowed on. Returns the
/// CPU, or `None` when the kernel refuses (the run then proceeds
/// unpinned and says so).
///
/// Why: on the 2-vCPU shared VMs this benchmark is refereed on, the two
/// vCPUs together get about one host CPU. A loop that runs alone on one
/// vCPU repeats within 3 %; the same loop halves its speed, second by
/// second, whenever the other vCPU is busy too, and a cross-vCPU wake-up
/// costs 10-50 µs depending on whether the host had descheduled the idle
/// vCPU. Unpinned, `paxos_channel`'s median commit latency read 42 to
/// 138 µs across back-to-back runs of the same binary; pinned, 37.3 to
/// 40.0 µs. The price: four node threads, two clients and the TCP
/// readers take turns on one CPU, so parallel speed-up, cross-core
/// hand-off and contention between them cannot show (on a box whose
/// second vCPU adds no capacity there was little to show), and on the
/// CPU-bound workloads `windowed_tps` is close to `1 / cpu_us_per_commit`.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `bytes` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of exactly `bytes` bytes.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// Peak resident set size (`VmHWM` of `/proc/self/status`) in MiB; 0 when
/// the file cannot be read.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` clock ticks summed over every CPU since boot, from the
/// first line of `/proc/stat`; `None` when it cannot be read. The share
/// of steal between two readings is how much of the machine the
/// hypervisor gave to somebody else meanwhile.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Per cent of the machine's CPU time stolen since `since`.
pub fn steal_pct_since(since: Option<(u64, u64)>) -> f64 {
    match (since, steal_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// CPUs this process may run on: 1 once [`pin_to_one_cpu`] succeeded.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const CALIB_TABLE: usize = 1 << 16;
const CALIB_STEPS: usize = 200_000;

/// The calibration loop: a fixed xorshift hash driving a dependent walk
/// over a 256 KiB table. Its work never changes, so its time does only
/// when the machine does.
pub struct Calibration {
    table: Vec<u32>,
}

impl Calibration {
    /// Build the table (deterministic contents).
    pub fn new() -> Calibration {
        let mut x = 0x9E37_79B9u32;
        let table = (0..CALIB_TABLE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Calibration { table }
    }

    /// One sample: nanoseconds per step of the walk.
    pub fn sample(&self) -> f64 {
        let t0 = Instant::now();
        let mut i = 1u32;
        let mut acc = 0u32;
        for _ in 0..CALIB_STEPS {
            let v = self.table[i as usize % CALIB_TABLE];
            acc = acc.wrapping_add(v);
            i = (i ^ v).wrapping_mul(0x9E37_79B1).rotate_left(7);
        }
        black_box(acc);
        t0.elapsed().as_nanos() as f64 / CALIB_STEPS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let calib = Calibration::new();
        let ns = calib.sample();
        assert!(ns > 0.0);
        assert!(process_cpu_ns() > before);
        assert!(peak_rss_mb() > 0.0);
        let (steal, total) = steal_ticks().expect("/proc/stat is readable");
        assert!(steal <= total);
        assert!((0.0..=100.0).contains(&steal_pct_since(Some((0, 0)))));
        assert!(cores() >= 1);
    }
}
