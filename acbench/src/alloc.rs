//! A counting `#[global_allocator]` wrapper around the system allocator.
//!
//! Disarmed (the default, and the only state `acbench run` with
//! `--trace 0` ever sees) every allocation pays one relaxed load and one
//! predictable not-taken branch. Armed — only around the light episodes
//! of a traced run — each allocation also bumps two relaxed counters in a
//! cache-line-sized shard chosen per thread, so the service's node and
//! client threads do not contend on one line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard {
    count: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // array-repeat initializer only
const EMPTY: Shard = Shard {
    count: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static COUNTERS: [Shard; SHARDS] = [EMPTY; SHARDS];
static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers a TLS dtor.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The wrapper installed as the process's global allocator.
pub struct Counting;

impl Counting {
    #[inline]
    fn note(size: usize) {
        // Relaxed: the flag and the counters are statistics; they publish
        // no other data.
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        // `try_with` fails only while a thread is being torn down; such
        // an allocation is counted on shard 0.
        let shard = MY_SHARD
            .try_with(|s| {
                if s.get() == usize::MAX {
                    s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
                }
                s.get()
            })
            .unwrap_or(0);
        COUNTERS[shard].count.fetch_add(1, Ordering::Relaxed);
        COUNTERS[shard]
            .bytes
            .fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s own guarantees carry over; `note` only touches
// atomics and a destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Start or stop counting.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far while armed, summed
/// over every shard. Callers diff two snapshots.
pub fn snapshot() -> (u64, u64) {
    COUNTERS.iter().fold((0, 0), |(c, b), s| {
        (
            c + s.count.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Serialises the tests that arm the allocator against the test that
/// needs it disarmed (`cargo test` runs tests on parallel threads).
#[cfg(test)]
pub static TEST_ARM_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn churn() -> usize {
        let boxes: Vec<Box<[u8; 256]>> = (0..100).map(|_| Box::new([0u8; 256])).collect();
        std::hint::black_box(&boxes).len()
    }

    #[test]
    fn disarmed_counts_nothing_and_armed_counts_every_allocation() {
        let _guard = TEST_ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arm(false);
        let before = snapshot();
        assert_eq!(churn(), 100);
        assert_eq!(snapshot(), before, "the disarmed path must report zero");

        arm(true);
        let before = snapshot();
        assert_eq!(churn(), 100);
        arm(false);
        let after = snapshot();
        // 100 boxes plus the vector holding them; other test threads may
        // add more, never less.
        assert!(after.0 - before.0 >= 101, "armed path missed allocations");
        assert!(after.1 - before.1 >= 100 * 256);
    }
}
