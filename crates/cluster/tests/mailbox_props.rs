//! Property-based coverage for the batched mailbox the live service rides
//! on (ISSUE-4 satellite): batched drain preserves per-sender FIFO order,
//! and `send_batch` is observationally equivalent to a sequence of
//! `send`s — same delivered messages, same per-sender order — under
//! concurrent producers (and *identical total order* for one producer).
//! On one thread the mailbox is a `VecDeque`: any script of sends, batch
//! sends and bounded drains moves the same messages in the same order,
//! however the bursts straddle the mailbox's internal blocks.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError};
use proptest::prelude::*;

/// Tagged message: (sender id, per-sender sequence number).
type Msg = (usize, u32);

/// Drive `senders.len()` producer threads; producer `p` sends its
/// sequence `0..counts[p]` split into `chunks[p]`-sized `send_batch`
/// bursts (chunk size 1 uses plain `send`). The consumer drains with
/// `recv_batch_deadline` using `max` messages per lock. Returns the
/// delivered stream.
fn pump(counts: &[u32], chunks: &[u32], max: usize) -> Vec<Msg> {
    let (tx, rx) = unbounded::<Msg>();
    let handles: Vec<_> = counts
        .iter()
        .zip(chunks)
        .enumerate()
        .map(|(p, (&count, &chunk))| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let chunk = chunk.max(1);
                let mut seq = 0u32;
                while seq < count {
                    let hi = (seq + chunk).min(count);
                    if chunk == 1 {
                        tx.send((p, seq)).unwrap();
                    } else {
                        tx.send_batch((seq..hi).map(|s| (p, s))).unwrap();
                    }
                    seq = hi;
                }
            })
        })
        .collect();
    drop(tx);
    let mut got = Vec::new();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let deadline = Instant::now() + Duration::from_secs(5);
        match rx.recv_batch_deadline(&mut buf, max.max(1), deadline) {
            Ok(_) => got.extend(buf.iter().copied()),
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => panic!("producers stalled"),
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    got
}

/// Per-sender subsequences of `stream`.
fn per_sender(stream: &[Msg], senders: usize) -> Vec<Vec<u32>> {
    let mut seqs = vec![Vec::new(); senders];
    for &(p, s) in stream {
        seqs[p].push(s);
    }
    seqs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent producers with arbitrary batch sizes: every message is
    /// delivered exactly once and each sender's stream arrives in FIFO
    /// order, no matter how the consumer batches its drains.
    #[test]
    fn batched_drain_preserves_per_sender_fifo(
        counts in proptest::collection::vec(0u32..120, 2..5),
        chunks in proptest::collection::vec(1u32..17, 2..5),
        max in 1usize..64,
    ) {
        let senders = counts.len().min(chunks.len());
        let counts = &counts[..senders];
        let chunks = &chunks[..senders];
        let got = pump(counts, chunks, max);
        prop_assert_eq!(got.len() as u64, counts.iter().map(|&c| c as u64).sum::<u64>());
        for (p, seq) in per_sender(&got, senders).into_iter().enumerate() {
            let expect: Vec<u32> = (0..counts[p]).collect();
            prop_assert_eq!(seq, expect, "sender {} out of order", p);
        }
    }

    /// One producer: `send_batch` in any chunking delivers the *identical
    /// total order* a sequence of plain `send`s delivers.
    #[test]
    fn send_batch_equals_sequence_of_sends_for_one_producer(
        count in 0u32..300,
        chunk in 1u32..33,
        max in 1usize..64,
    ) {
        let batched = pump(&[count], &[chunk], max);
        let plain = pump(&[count], &[1], max);
        prop_assert_eq!(batched, plain);
    }

    /// Mixed strategies across concurrent senders (one batching, one
    /// sending singly) deliver the same per-sender streams: batching is
    /// invisible up to inter-sender interleaving.
    #[test]
    fn batching_strategy_is_observationally_equivalent_under_concurrency(
        count_a in 1u32..150,
        count_b in 1u32..150,
        chunk in 2u32..25,
    ) {
        let mixed = pump(&[count_a, count_b], &[chunk, 1], 32);
        let all_plain = pump(&[count_a, count_b], &[1, 1], 32);
        prop_assert_eq!(
            per_sender(&mixed, 2),
            per_sender(&all_plain, 2),
            "per-sender streams must not depend on the batching strategy"
        );
    }

    /// One thread against a `VecDeque` model: single sends and bursts of
    /// up to three mailbox blocks, drained `max` at a time (a deadline
    /// already behind, so never parked), move the same messages in the
    /// same order, and the queued count agrees after every step.
    #[test]
    fn bursts_across_blocks_drain_like_a_vecdeque(
        script in proptest::collection::vec((0u8..3, 1usize..200), 1..40),
    ) {
        let (tx, rx) = unbounded::<u32>();
        let mut model = VecDeque::new();
        let (mut next, mut buf) = (0u32, Vec::new());
        let past = Instant::now();
        for (step, &(what, n)) in script.iter().enumerate() {
            match what {
                0 => {
                    tx.send(next).unwrap();
                    model.push_back(next);
                    next += 1;
                }
                1 => {
                    let burst = next..next + n as u32;
                    prop_assert_eq!(tx.send_batch(burst.clone()).unwrap(), n);
                    model.extend(burst);
                    next += n as u32;
                }
                _ => {
                    buf.clear();
                    let want = n.min(model.len());
                    let got = match rx.recv_batch_deadline(&mut buf, n, past) {
                        Ok(k) => k,
                        Err(RecvTimeoutError::Timeout) => 0,
                        Err(RecvTimeoutError::Disconnected) => unreachable!("a sender lives"),
                    };
                    let expect: Vec<u32> = model.drain(..want).collect();
                    prop_assert_eq!(got, want, "count at step {}", step);
                    prop_assert_eq!(&buf, &expect, "order at step {}", step);
                }
            }
            prop_assert_eq!(rx.len(), model.len(), "queued at step {}", step);
        }
        buf.clear();
        prop_assert_eq!(rx.try_drain(&mut buf, usize::MAX), model.len());
        prop_assert_eq!(buf, Vec::from(model));
    }
}
