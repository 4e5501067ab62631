//! Model tests for the per-transaction data layout (ISSUE-19): the flat
//! read/write maps against the `BTreeMap` they replaced, the hash-indexed
//! shard against the three-`BTreeMap` shard it replaced, and the workload
//! streams against digests taken on the parent commit. The old structures
//! live here, as test-only models, and nowhere in the library.

use std::collections::BTreeMap;
use std::hash::Hasher;

use ac_sim::wire::MAX_WIRE_ELEMS;
use ac_sim::{Wire, WireError};
use ac_txn::txn::FlatMap;
use ac_txn::workload::{Workload, WorkloadConfig};
use ac_txn::{Key, Shard, Transaction, TxnId, Version, WriteOp};
use proptest::prelude::*;

/// A small key space, so sequences revisit keys and shards.
fn key(raw: u8) -> Key {
    Key::new((raw / 4 % 3) as usize, u64::from(raw % 4))
}

fn op(raw: u8, v: i64) -> WriteOp {
    if raw.is_multiple_of(2) {
        WriteOp::Put(v)
    } else {
        WriteOp::Add(v)
    }
}

/// The bytes `pairs` have on the wire when written in the given order —
/// canonical or not.
fn hand_encoded(pairs: &[(Key, WriteOp)]) -> Vec<u8> {
    let mut buf = Vec::new();
    (pairs.len() as u32).encode(&mut buf);
    for (k, w) in pairs {
        k.encode(&mut buf);
        w.encode(&mut buf);
    }
    buf
}

proptest! {
    /// Flat map ≡ `BTreeMap<Key, V>` under arbitrary insert sequences.
    #[test]
    fn flat_map_is_a_btree_map_under_any_insert_sequence(
        script in proptest::collection::vec((any::<u8>(), -50i64..50), 0..40),
    ) {
        let mut model: BTreeMap<Key, WriteOp> = BTreeMap::new();
        let mut flat: FlatMap<WriteOp> = FlatMap::new();
        for &(raw, v) in &script {
            let (k, w) = (key(raw), op(raw, v));
            prop_assert_eq!(flat.insert(k, w), model.insert(k, w), "replaced value");
            prop_assert_eq!(flat.len(), model.len());
            prop_assert_eq!(flat.is_empty(), model.is_empty());
        }
        prop_assert!(flat.iter().eq(model.iter()), "iter order");
        prop_assert!((&flat).into_iter().eq(&model), "&map iteration");
        prop_assert!(flat.keys().eq(model.keys()), "keys order");
        prop_assert!(flat.values().eq(model.values()), "values order");
        for raw in 0..=255u8 {
            prop_assert_eq!(flat.get(&key(raw)), model.get(&key(raw)));
        }
        let collected: FlatMap<WriteOp> =
            script.iter().map(|&(raw, v)| (key(raw), op(raw, v))).collect();
        prop_assert_eq!(&collected, &flat, "FromIterator");
        prop_assert_eq!(format!("{flat:?}"), format!("{model:?}"));
        let canonical: Vec<(Key, WriteOp)> = model.into_iter().collect();
        prop_assert_eq!(flat.to_wire(), hand_encoded(&canonical), "encoded bytes");
    }

    /// Whatever order and however often the pairs arrive on the wire, the
    /// decoded map is the one collecting them into a `BTreeMap` gave: sorted,
    /// the last duplicate kept. It re-encodes canonically, and canonical
    /// bytes survive a round trip unchanged.
    #[test]
    fn decode_canonicalises_any_pair_list(
        script in proptest::collection::vec((any::<u8>(), -50i64..50), 0..24),
        id in any::<u64>(),
    ) {
        let pairs: Vec<(Key, WriteOp)> =
            script.iter().map(|&(raw, v)| (key(raw), op(raw, v))).collect();
        let model: BTreeMap<Key, WriteOp> = pairs.iter().copied().collect();
        let canonical: Vec<(Key, WriteOp)> = model.iter().map(|(k, w)| (*k, *w)).collect();

        let decoded = FlatMap::<WriteOp>::from_wire(&hand_encoded(&pairs));
        prop_assert!(decoded.is_ok(), "valid bytes refused: {decoded:?}");
        let decoded = decoded.unwrap();
        prop_assert!(decoded.iter().eq(model.iter()), "decoded {decoded:?}, model {model:?}");
        prop_assert_eq!(decoded.to_wire(), hand_encoded(&canonical));
        let again = FlatMap::<WriteOp>::from_wire(&hand_encoded(&canonical)).unwrap();
        prop_assert_eq!(again.to_wire(), hand_encoded(&canonical));

        // The same inside a whole transaction body, reads included.
        let reads: Vec<(Key, u64)> = script.iter().map(|&(raw, v)| (key(raw), v as u64)).collect();
        let mut body = id.to_wire();
        reads.encode(&mut body);
        body.extend(hand_encoded(&pairs));
        let txn = Transaction::from_wire(&body).unwrap();
        let read_model: BTreeMap<Key, u64> = reads.into_iter().collect();
        prop_assert_eq!(txn.id, id);
        prop_assert!(txn.reads.iter().eq(read_model.iter()));
        prop_assert!(txn.writes.iter().eq(model.iter()));
        let reencoded = txn.to_wire();
        prop_assert_eq!(Transaction::from_wire(&reencoded).unwrap().to_wire(), reencoded);
    }
}

#[test]
fn decode_refuses_an_absurd_length_and_survives_a_lying_one() {
    let mut s = &(MAX_WIRE_ELEMS + 1).to_wire()[..];
    assert!(matches!(
        FlatMap::<u64>::decode(&mut s),
        Err(WireError::Invalid(_))
    ));
    // A length prefix the input cannot back: one pair follows, a million
    // are claimed.
    let mut bytes = MAX_WIRE_ELEMS.to_wire();
    Key::new(0, 1).encode(&mut bytes);
    7u64.encode(&mut bytes);
    assert_eq!(FlatMap::<u64>::from_wire(&bytes), Err(WireError::Truncated));
    assert_eq!(
        FlatMap::<u64>::from_wire(&0u32.to_wire()),
        Ok(FlatMap::new())
    );
}

/// The shard as it was before the hash-indexed layout: ordered maps.
/// Same code, comments dropped.
#[derive(Default)]
struct BTreeShard {
    id: usize,
    cells: BTreeMap<u64, Version>,
    locks: BTreeMap<u64, TxnId>,
}

impl BTreeShard {
    fn read(&self, k: u64) -> Version {
        self.cells.get(&k).copied().unwrap_or_default()
    }

    fn prepare(&mut self, txn: &Transaction) -> bool {
        let my = |key: &Key| key.shard == self.id;
        for (key, seen) in txn.reads.iter().filter(|(k, _)| my(k)) {
            if self.read(key.k).version != *seen {
                return false;
            }
        }
        for key in txn.writes.keys().filter(|k| my(k)) {
            if let Some(owner) = self.locks.get(&key.k) {
                if *owner != txn.id {
                    return false;
                }
            }
        }
        for key in txn.writes.keys().filter(|k| my(k)) {
            self.locks.insert(key.k, txn.id);
        }
        true
    }

    fn finish(&mut self, txn: &Transaction, commit: bool) {
        let my = |key: &Key| key.shard == self.id;
        for (key, op) in txn.writes.iter().filter(|(k, _)| my(k)) {
            if self.locks.get(&key.k) == Some(&txn.id) {
                self.locks.remove(&key.k);
                if commit {
                    let cell = self.cells.entry(key.k).or_default();
                    match op {
                        WriteOp::Put(v) => cell.value = *v,
                        WriteOp::Add(d) => cell.value += *d,
                    }
                    cell.version += 1;
                }
            }
        }
    }

    fn relock(&mut self, txn: &Transaction) {
        for key in txn.writes.keys().filter(|k| k.shard == self.id) {
            self.locks.insert(key.k, txn.id);
        }
    }

    fn foreign_lock_owner(&self, txn: &Transaction) -> Option<TxnId> {
        txn.writes
            .keys()
            .filter(|k| k.shard == self.id)
            .find_map(|k| self.locks.get(&k.k).copied().filter(|&o| o != txn.id))
    }
}

const SHARD_KEYS: u64 = 8;
const SHARD_TXNS: usize = 6;

/// Transaction `i` of a seeded universe: one to three writes and up to two
/// versioned reads over eight keys, most on shard 0, some foreign.
fn shard_universe(seed: u64) -> Vec<Transaction> {
    (0..SHARD_TXNS as u64)
        .map(|i| {
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            let mut next = move |m: u64| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 33) % m
            };
            let mut t = Transaction::new(i + 1);
            for _ in 0..=next(3) {
                let key = Key::new(usize::from(next(5) == 0), next(SHARD_KEYS));
                let v = next(40) as i64 - 20;
                t = if next(2) == 0 {
                    t.with_write(key, v)
                } else {
                    t.with_add(key, v)
                };
            }
            for _ in 0..next(3) {
                t = t.with_read(Key::new(0, next(SHARD_KEYS)), next(3));
            }
            t
        })
        .collect()
}

proptest! {
    /// Hash-indexed shard ≡ three-`BTreeMap` shard under arbitrary
    /// interleavings of prepare / finish / relock / foreign_lock_owner:
    /// conflicts, re-prepares, foreign keys, stale reads, stolen locks.
    #[test]
    fn shard_is_the_btree_shard_under_any_interleaving(
        seed in any::<u64>(),
        script in proptest::collection::vec((0usize..SHARD_TXNS, 0u8..6), 1..60),
    ) {
        let txns = shard_universe(seed);
        let mut model = BTreeShard::default();
        let mut shard = Shard::new(0);
        for (step, &(which, what)) in script.iter().enumerate() {
            let t = &txns[which];
            match what {
                0 | 1 => prop_assert_eq!(shard.prepare(t), model.prepare(t), "vote at step {step}"),
                2 => {
                    shard.finish(t, true);
                    model.finish(t, true);
                }
                3 => {
                    shard.finish(t, false);
                    model.finish(t, false);
                }
                4 => {
                    shard.relock(t);
                    model.relock(t);
                }
                _ => {}
            }
            for t in &txns {
                prop_assert_eq!(shard.foreign_lock_owner(t), model.foreign_lock_owner(t));
            }
            for k in 0..SHARD_KEYS {
                prop_assert_eq!(shard.read(k), model.read(k), "key {k} at step {step}");
            }
            prop_assert_eq!(shard.locked(), model.locks.len(), "locked() at step {step}");
            prop_assert_eq!(shard.total(), model.cells.values().map(|v| v.value).sum::<i64>());
        }
        // A clone is a second shard, not a view of the first.
        let frozen = shard.clone();
        for t in &txns {
            shard.relock(t);
            shard.finish(t, true);
        }
        for k in 0..SHARD_KEYS {
            prop_assert_eq!(frozen.read(k), model.read(k));
        }
        prop_assert_eq!(frozen.locked(), model.locks.len());
    }
}

/// Digest of the first 1 000 transactions of a seed-7 stream over four
/// shards of 2²⁰ keys, as they encode.
fn stream_digest(workload: Workload) -> u64 {
    let mut gen = WorkloadConfig {
        shards: 4,
        keys_per_shard: 1 << 20,
        workload,
        seed: 7,
    }
    .generator();
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    let mut buf = Vec::new();
    for _ in 0..1000 {
        buf.clear();
        gen.next_txn().encode(&mut buf);
        hasher.write(&buf);
    }
    hasher.finish()
}

/// The same seed yields the same transactions, byte for byte, as on the
/// commit before ISSUE-19 (digests computed there with this function):
/// neither the generator's scratch buffer nor the flat maps moved one RNG
/// draw or one encoded byte.
#[test]
fn workload_streams_are_pinned_to_the_parent_commit() {
    let pinned = [
        (Workload::Uniform { span: 2 }, 0x5583_ea06_ace2_87dc_u64),
        (Workload::Uniform { span: 4 }, 0x55dd_3aec_5d93_a7a6),
        (
            Workload::Skewed {
                span: 2,
                theta: 0.8,
            },
            0xf3e0_9dd0_4d8a_d8fe,
        ),
        (Workload::Transfer { amount: 10 }, 0xebb9_d9b6_49a5_02f1),
    ];
    for (workload, digest) in pinned {
        let got = stream_digest(workload.clone());
        assert_eq!(got, digest, "{workload:?} drifted: {got:#018x}");
    }
}
