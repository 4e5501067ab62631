//! The allocation budget of a commit (ISSUE-19), as a test: how often and
//! how much the whole service — clients, nodes, post-run audit — asks the
//! allocator for per committed transaction, on the two shapes the
//! benchmark referees. A per-transaction `Vec` or map node creeping back
//! onto the commit path moves these counts by whole units; the budgets sit
//! about a quarter above what the layout measures.
//!
//! One `#[test]` only: the counter is process-wide, and `cargo test` runs
//! the tests of one file on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ac_cluster::{run_service_faulted, FaultSpec, ServiceConfig};
use ac_commit::protocols::ProtocolKind;
use ac_txn::workload::Workload;

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, counting requests while armed.
struct Counting;

fn note(size: usize) {
    // Relaxed: statistics, publishing no other data.
    if ARMED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; `note` touches two
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` per committed transaction across one
/// `run_service_faulted` call.
fn per_commit(cfg: &ServiceConfig, faults: &FaultSpec) -> (f64, f64) {
    let (count0, bytes0) = (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ARMED.store(true, Ordering::Relaxed);
    let out = run_service_faulted(cfg, faults);
    ARMED.store(false, Ordering::Relaxed);
    let count = COUNT.load(Ordering::Relaxed) - count0;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
    assert!(out.is_safe(), "{:?}", out.violations);
    assert_eq!(out.stalled, 0);
    let expected = cfg.clients * cfg.txns_per_client;
    assert!(
        out.committed * 100 >= expected * 98,
        "{} of {expected} committed: not the run the budget is about",
        out.committed
    );
    let commits = out.committed as f64;
    (count as f64 / commits, bytes as f64 / commits)
}

#[test]
fn a_commit_stays_inside_its_allocation_budget() {
    let base = |kind, span| {
        ServiceConfig::new(4, 1, kind)
            .clients(2)
            .workload(Workload::Uniform { span })
            .keys_per_shard(1 << 20)
            .park_retries(0)
    };
    let paxos = base(ProtocolKind::PaxosCommit, 2)
        .max_outstanding(32)
        .txns_per_client(4000);
    let two_pc = base(ProtocolKind::TwoPc, 4)
        .max_outstanding(64)
        .txns_per_client(2000);
    let volatile = FaultSpec::none(4);
    let durable = FaultSpec {
        durable: true,
        ..FaultSpec::none(4)
    };

    // Warm-up: thread-spawn machinery, lazily initialised runtime state.
    run_service_faulted(&paxos.clone().txns_per_client(200), &volatile);

    // (workload, config, faults, allocation budget, byte budget); the
    // layout measures 3.1 / 2 880 and 4.3 / 5 520, the commit before it
    // 18.0 / 4 230 and 20.0 / 7 470.
    let runs = [
        ("PaxosCommit, span 2", &paxos, &volatile, 4.0, 3600.0),
        ("durable 2PC, span 4", &two_pc, &durable, 5.5, 7000.0),
    ];
    // Measure and print everything before judging anything.
    let measured = runs.map(|(name, cfg, faults, count_budget, byte_budget)| {
        let (count, bytes) = per_commit(cfg, faults);
        println!("{name}: {count:.2} allocations, {bytes:.0} bytes per commit");
        (name, count, bytes, count_budget, byte_budget)
    });
    for (name, count, bytes, count_budget, byte_budget) in measured {
        assert!(
            count <= count_budget,
            "{name}: {count:.2} allocations per commit, budget {count_budget}"
        );
        assert!(
            bytes <= byte_budget,
            "{name}: {bytes:.0} bytes per commit, budget {byte_budget}"
        );
    }
}
