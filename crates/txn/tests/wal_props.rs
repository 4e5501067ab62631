//! Property-based coverage for write-ahead-log recovery (ISSUE-5
//! satellite): replay is idempotent (replaying any prefix twice yields the
//! identical shard) and order-insensitive per transaction (a transaction's
//! prepare/decision pair recovers the same state wherever the records sit
//! in the log, and however often they are duplicated).

use std::sync::Arc;

use ac_txn::wal::{Wal, WalRecord};
use ac_txn::{Key, Shard, Transaction, WriteOp};
use proptest::prelude::*;

const SHARD: usize = 0;
const KEYS: u64 = 8;

/// Build a deterministic little transaction universe from a seed: txn `i`
/// writes 1–2 keys of shard 0 with values derived from the seed.
fn txn_universe(seed: u64, count: usize) -> Vec<Arc<Transaction>> {
    (0..count)
        .map(|i| {
            let s = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            let mut t = Transaction::new(i as u64 + 1);
            t.writes
                .insert(Key::new(SHARD, s % KEYS), WriteOp::Put((s % 100) as i64));
            if s.is_multiple_of(3) {
                t.writes.insert(
                    Key::new(SHARD, (s / 7) % KEYS),
                    WriteOp::Add((s % 13) as i64 - 6),
                );
            }
            Arc::new(t)
        })
        .collect()
}

/// Interpret a script of small integers as a WAL over the universe: even
/// opcodes log a prepare, odd opcodes log a decision. Vote and decision
/// value are functions of the transaction id — a shard votes once and a
/// protocol decides once, so every duplicated record is a *genuine copy*
/// (which is what a replayed log can contain). Records may duplicate and
/// interleave arbitrarily — exactly what replay must tolerate.
fn wal_from_script(txns: &[Arc<Transaction>], script: &[(u8, u8)]) -> Wal {
    let mut wal = Wal::new();
    for &(which, op) in script {
        let txn = &txns[which as usize % txns.len()];
        if op.is_multiple_of(2) {
            wal.log_prepare(Arc::clone(txn), 0, !txn.id.is_multiple_of(3));
        } else {
            wal.log_decide(txn.id, u64::from(!txn.id.is_multiple_of(2)));
        }
    }
    wal
}

fn shards_equal(a: &Shard, b: &Shard) -> bool {
    if a.locked() != b.locked() {
        return false;
    }
    (0..KEYS).all(|k| a.read(k) == b.read(k))
}

proptest! {
    #[test]
    fn replaying_any_prefix_twice_is_identical(
        seed in any::<u64>(),
        script in proptest::collection::vec((0u8..6, 0u8..4), 1..40),
        cut in any::<u64>(),
    ) {
        let txns = txn_universe(seed, 6);
        let wal = wal_from_script(&txns, &script);
        let baseline = wal.replay(SHARD);

        // Prepend a replayed prefix of the log: `prefix ++ log` must
        // recover the identical shard (locks and values), because the
        // prefix's records are all duplicated by the full log.
        let k = (cut as usize) % (wal.len() + 1);
        let mut doubled = Wal::new();
        for rec in &wal.records()[..k] {
            doubled.append(rec.clone());
        }
        for rec in wal.records() {
            doubled.append(rec.clone());
        }
        let re = doubled.replay(SHARD);
        prop_assert!(
            shards_equal(&baseline.shard, &re.shard),
            "prefix of {k} records changed the recovered shard"
        );
        prop_assert_eq!(baseline.decided.len(), re.decided.len());
        prop_assert_eq!(baseline.in_flight.len(), re.in_flight.len());
    }

    #[test]
    fn replay_is_order_insensitive_per_txn(
        seed in any::<u64>(),
        script in proptest::collection::vec((0u8..6, 0u8..4), 2..40),
        swap_at in any::<u64>(),
    ) {
        // Swapping a transaction's own prepare/decision records (adjacent
        // or not, the dedup pass sees the same first-of-each-kind) must
        // not change the recovered locks/values as long as the relative
        // decision order *between different transactions* is preserved.
        let txns = txn_universe(seed, 6);
        let wal = wal_from_script(&txns, &script);
        let baseline = wal.replay(SHARD);

        let mut records: Vec<WalRecord> = wal.records().to_vec();
        let i = (swap_at as usize) % records.len().saturating_sub(1).max(1);
        if records
            .get(i + 1)
            .is_some_and(|next| records[i].txn_id() == next.txn_id())
        {
            records.swap(i, i + 1);
        }
        let mut swapped = Wal::new();
        for rec in records {
            swapped.append(rec);
        }
        let re = swapped.replay(SHARD);
        prop_assert!(
            shards_equal(&baseline.shard, &re.shard),
            "swapping a txn's own records at {i} changed the recovered shard"
        );
    }

    #[test]
    fn crash_at_any_batch_boundary_keeps_every_acknowledged_txn(
        seed in any::<u64>(),
        script in proptest::collection::vec((0u8..6, 0u8..4), 1..60),
        batch in 1usize..16,
        cut in any::<u64>(),
    ) {
        // Group commit (ISSUE-9): the node stages records and forces once
        // per batch, and a crash loses exactly the unforced tail. Model
        // the crash as a cut at an arbitrary *batch boundary*: the
        // surviving log is the first k forced batches. The survivor must
        // (a) replay identically to a per-record log of the same records
        // — batching is invisible to recovery — and (b) keep every
        // acknowledged transaction: a decision record in a forced batch
        // (the precondition for the client reply to have left the node)
        // recovers as decided, and locks are exactly the in-flight
        // yes-votes' write sets.
        let txns = txn_universe(seed, 6);
        let all: Vec<WalRecord> = wal_from_script(&txns, &script).records().to_vec();
        let batches: Vec<&[WalRecord]> = all.chunks(batch).collect();
        let k = (cut as usize) % (batches.len() + 1);

        let mut grouped = Wal::new();
        for chunk in &batches[..k] {
            let mut staged = chunk.to_vec();
            grouped.force_batch(&mut staged);
        }
        prop_assert_eq!(grouped.forces() as usize, k, "one force per batch");

        let mut per_record = Wal::new();
        for rec in &all[..(k * batch).min(all.len())] {
            per_record.append(rec.clone());
        }
        prop_assert_eq!(per_record.len(), grouped.len());

        let (a, b) = (grouped.replay(SHARD), per_record.replay(SHARD));
        prop_assert!(
            shards_equal(&a.shard, &b.shard),
            "group commit changed the recovered shard at batch cut {k}"
        );
        prop_assert_eq!(a.decided.len(), b.decided.len());
        prop_assert_eq!(a.in_flight.len(), b.in_flight.len());

        // (b) acknowledged = a decision record survived the crash (and its
        // prepare, which the service always forces no later than the
        // decision of the same txn, is in the prefix too).
        let surviving = grouped.records();
        let acknowledged: std::collections::BTreeSet<u64> = surviving
            .iter()
            .filter(|r| matches!(r, WalRecord::Decide { .. }))
            .map(WalRecord::txn_id)
            .filter(|id| {
                surviving
                    .iter()
                    .any(|r| matches!(r, WalRecord::Prepare { .. }) && r.txn_id() == *id)
            })
            .collect();
        let decided: std::collections::BTreeSet<u64> =
            a.decided.iter().map(|d| d.txn.id).collect();
        prop_assert_eq!(&decided, &acknowledged, "an acknowledged txn was lost");

        // Locks exact: only in-flight yes-votes hold locks.
        let expected: usize = {
            let mut keys = std::collections::BTreeSet::new();
            for p in a.in_flight.iter().filter(|p| p.vote) {
                for key in p.txn.writes.keys() {
                    keys.insert(key.k);
                }
            }
            keys.len()
        };
        prop_assert_eq!(a.shard.locked(), expected);
    }

    #[test]
    fn in_flight_yes_votes_hold_exactly_their_locks(
        seed in any::<u64>(),
        script in proptest::collection::vec((0u8..6, 0u8..4), 1..40),
    ) {
        let txns = txn_universe(seed, 6);
        let wal = wal_from_script(&txns, &script);
        let rec = wal.replay(SHARD);
        // Every lock held after recovery must belong to an in-flight
        // yes-vote; decided transactions never leave locks behind.
        let expected: usize = {
            let mut keys = std::collections::BTreeSet::new();
            for p in rec.in_flight.iter().filter(|p| p.vote) {
                for key in p.txn.writes.keys() {
                    keys.insert(key.k);
                }
            }
            keys.len()
        };
        prop_assert_eq!(rec.shard.locked(), expected);
    }
}
