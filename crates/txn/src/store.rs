//! Per-shard versioned store with optimistic validation.
//!
//! This is the "local faith of the transaction" of the paper's §1.1: a
//! shard votes **yes** iff the transaction executed correctly locally —
//! here, iff its reads are still current and none of its write targets is
//! locked by a concurrent prepared transaction. A yes-vote takes write
//! locks (the shard is then *prepared* and must hold them until the commit
//! protocol decides), exactly the structure 2PC/INBAC assume.
//!
//! Cells and locks are two hash-indexed tables ([`ac_sim::Slab`]: dense
//! storage behind a SplitMix64 open-addressing index — the table the node
//! already resolves its instances with). A prepare or finish touches each
//! key of the transaction a constant number of times, whatever the shard
//! holds. Nothing here has an order any more: [`Shard::total`] is a sum
//! and `Debug` prints in hash order. The tables grow by doubling; they are
//! never pre-sized.
//!
//! The shard reads no clock. How long a transaction holds its locks is
//! the node's to meter: it already reads the instants a hold starts and
//! ends at.

use ac_sim::Slab;

use crate::txn::{Key, Transaction, TxnId, WriteOp};

/// A versioned cell.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Version {
    /// Current value.
    pub value: i64,
    /// Monotone version counter, bumped on every committed write.
    pub version: u64,
}

/// One shard of the database, owned by one process.
#[derive(Clone, Debug, Default)]
pub struct Shard {
    /// Owning process id.
    pub id: usize,
    cells: Slab<Version>,
    /// Write locks held by prepared transactions: key -> owner txn.
    locks: Slab<TxnId>,
}

impl Shard {
    /// An empty shard owned by process `id`.
    pub fn new(id: usize) -> Shard {
        Shard {
            id,
            ..Shard::default()
        }
    }

    /// Current version of `k` (default zero-version for absent keys).
    pub fn read(&self, k: u64) -> Version {
        self.cells.get(k).copied().unwrap_or_default()
    }

    /// Validate `txn` and, if valid, take its write locks (prepare).
    /// Returns the shard's vote.
    pub fn prepare(&mut self, txn: &Transaction) -> bool {
        let my = |key: &Key| key.shard == self.id;
        // Read validation: versions unchanged.
        for (key, seen) in txn.reads.iter().filter(|(k, _)| my(k)) {
            if self.read(key.k).version != *seen {
                return false;
            }
        }
        // Lock check: no conflicting prepared writer (wound-free: just vote
        // no, the commit protocol aborts).
        if self.foreign_lock_owner(txn).is_some() {
            return false;
        }
        // Every lock is free or already ours: take them.
        self.relock(txn);
        true
    }

    /// Apply the decision of the commit protocol for a prepared `txn`.
    pub fn finish(&mut self, txn: &Transaction, commit: bool) {
        let my = |key: &Key| key.shard == self.id;
        for (key, op) in txn.writes.iter().filter(|(k, _)| my(k)) {
            if self.locks.get(key.k) == Some(&txn.id) {
                self.locks.remove(key.k);
                if commit {
                    let cell = self.cells.get_or_insert_with(key.k, Version::default);
                    match op {
                        WriteOp::Put(v) => cell.value = *v,
                        WriteOp::Add(d) => cell.value += *d,
                    }
                    cell.version += 1;
                }
            }
        }
    }

    /// Re-take `txn`'s write locks **without validation** (recovery path).
    ///
    /// Used when replaying a write-ahead log: the vote was already cast in
    /// the original execution, so re-validating reads against the recovered
    /// state would be wrong (a concurrent commit may have legitimately
    /// advanced a read version *after* this transaction validated).
    /// Idempotent — re-locking keys this transaction already owns is a
    /// no-op.
    ///
    /// Relocking **overwrites** conflicting locks, which is only sound
    /// when no concurrent transaction can hold one — i.e. at startup
    /// replay, before any live traffic. A caller relocking mid-stream
    /// (a logless node re-applying a recovered commit while new
    /// transactions prepare against the same shard) must first check
    /// [`Shard::foreign_lock_owner`] and wait until it returns `None`,
    /// or a live prepared transaction's lock would be silently stolen
    /// and its writes dropped at [`Shard::finish`].
    pub fn relock(&mut self, txn: &Transaction) {
        let my = |key: &Key| key.shard == self.id;
        for key in txn.writes.keys().filter(|k| my(k)) {
            *self.locks.get_or_insert_with(key.k, || txn.id) = txn.id;
        }
    }

    /// The owner of the first of `txn`'s write locks (on this shard) held
    /// by a *different* transaction, if any. `None` means every lock
    /// `txn` needs is free or already its own, so [`Shard::relock`] is
    /// safe even against live traffic.
    pub fn foreign_lock_owner(&self, txn: &Transaction) -> Option<TxnId> {
        txn.writes
            .keys()
            .filter(|k| k.shard == self.id)
            .find_map(|k| self.locks.get(k.k).copied().filter(|&o| o != txn.id))
    }

    /// Number of currently held locks (diagnostics).
    pub fn locked(&self) -> usize {
        self.locks.len()
    }

    /// Sum of all values in this shard (used by the bank example to check
    /// conservation).
    pub fn total(&self) -> i64 {
        self.cells.values().map(|v| v.value).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn_writing(id: TxnId, shard: usize, k: u64, v: i64) -> Transaction {
        Transaction::new(id).with_write(Key::new(shard, k), v)
    }

    #[test]
    fn commit_bumps_version_and_value() {
        let mut s = Shard::new(0);
        let t = txn_writing(1, 0, 7, 42);
        assert!(s.prepare(&t));
        assert_eq!(s.locked(), 1);
        s.finish(&t, true);
        assert_eq!(
            s.read(7),
            Version {
                value: 42,
                version: 1
            }
        );
        assert_eq!(s.locked(), 0);
    }

    #[test]
    fn abort_releases_locks_without_effect() {
        let mut s = Shard::new(0);
        let t = txn_writing(1, 0, 7, 42);
        assert!(s.prepare(&t));
        s.finish(&t, false);
        assert_eq!(s.read(7), Version::default());
        assert_eq!(s.locked(), 0);
    }

    #[test]
    fn stale_read_votes_no() {
        let mut s = Shard::new(0);
        let w = txn_writing(1, 0, 3, 5);
        assert!(s.prepare(&w));
        s.finish(&w, true);
        // A transaction that read version 0 of key 3 is now stale.
        let stale = Transaction::new(2).with_read(Key::new(0, 3), 0);
        let mut s2 = s.clone();
        assert!(!s2.prepare(&stale));
        // Reading the current version is fine.
        let fresh = Transaction::new(3).with_read(Key::new(0, 3), 1);
        assert!(s.prepare(&fresh));
    }

    #[test]
    fn write_write_conflict_votes_no() {
        let mut s = Shard::new(0);
        let a = txn_writing(1, 0, 9, 1);
        let b = txn_writing(2, 0, 9, 2);
        assert!(s.prepare(&a));
        assert!(!s.prepare(&b), "b must be refused while a holds the lock");
        s.finish(&a, true);
        assert!(s.prepare(&b), "lock released after finish");
    }

    #[test]
    fn foreign_lock_owner_reports_live_conflicts_only() {
        let mut s = Shard::new(0);
        let a = txn_writing(1, 0, 9, 1);
        let b = txn_writing(2, 0, 9, 2);
        assert_eq!(
            s.foreign_lock_owner(&a),
            None,
            "free locks conflict with nobody"
        );
        assert!(s.prepare(&a));
        assert_eq!(s.foreign_lock_owner(&a), None, "own locks are not foreign");
        assert_eq!(s.foreign_lock_owner(&b), Some(1), "a's lock blocks b");
        s.finish(&a, true);
        assert_eq!(s.foreign_lock_owner(&b), None, "released after finish");
        // Keys on other shards never conflict here.
        let elsewhere = txn_writing(3, 5, 9, 7);
        assert!(s.prepare(&b));
        assert_eq!(s.foreign_lock_owner(&elsewhere), None);
    }

    #[test]
    fn foreign_keys_are_ignored() {
        let mut s = Shard::new(0);
        let t = txn_writing(1, 5, 0, 9); // shard 5, not ours
        assert!(s.prepare(&t));
        assert_eq!(s.locked(), 0);
        s.finish(&t, true);
        assert_eq!(s.total(), 0);
    }
}
