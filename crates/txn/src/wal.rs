//! Per-shard write-ahead log: prepare/decision records with
//! replay-idempotent recovery.
//!
//! The live service (`ac-cluster`) logs every shard-local prepare (the
//! vote, with the full transaction body) and every applied decision to this
//! log *before* the effect leaves the node, so a crashed node can rebuild
//! its exact audited state: committed values, still-held write locks of
//! in-flight (prepared, undecided) transactions, and the decision list in
//! apply order. "To Vote Before Decide" motivates exactly this cost as a
//! first-class metric of a commit protocol; here the log is an in-process
//! structure that survives the node's crash (the node keeps it outside the
//! volatile state a crash drops), which models durable storage without
//! touching the filesystem.
//!
//! Replay is **idempotent and order-insensitive per transaction**: records
//! are first deduplicated (first prepare and first decision of a
//! transaction win; a protocol decides at most once, so duplicates can only
//! be replayed copies of the same record), then decisions are applied in
//! decision-log order. Replaying any prefix of the log twice therefore
//! yields the identical shard — the property the recovery path relies on
//! and `crates/txn/tests/wal_props.rs` proptests.

use std::collections::BTreeMap;
use std::sync::Arc;

use ac_commit::problem::COMMIT;

use crate::store::Shard;
use crate::txn::{Transaction, TxnId};

/// One durable record of a shard's write-ahead log.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// The shard validated `txn` and voted `vote`; a yes-vote implies its
    /// write locks are held from this point until a decision is applied.
    Prepare {
        /// The full transaction body (needed to re-take locks and re-apply
        /// writes on recovery).
        txn: Arc<Transaction>,
        /// The submitting client (so a recovered node can re-route its
        /// decision report).
        client: usize,
        /// The shard's local vote.
        vote: bool,
    },
    /// The commit protocol's decision for `txn` was applied locally.
    Decide {
        /// The decided transaction.
        txn: TxnId,
        /// The decided value (`ac_commit::problem::COMMIT` = commit).
        value: u64,
    },
}

impl WalRecord {
    /// The transaction this record belongs to.
    pub fn txn_id(&self) -> TxnId {
        match self {
            WalRecord::Prepare { txn, .. } => txn.id,
            WalRecord::Decide { txn, .. } => *txn,
        }
    }
}

/// A prepared-but-undecided transaction surfaced by recovery: the node must
/// re-join its still-running commit-protocol instance.
#[derive(Clone, Debug)]
pub struct PreparedTxn {
    /// The transaction body.
    pub txn: Arc<Transaction>,
    /// The submitting client.
    pub client: usize,
    /// The logged local vote (recovery must **not** re-validate — the vote
    /// was cast and possibly acted on by peers).
    pub vote: bool,
}

/// A decided transaction surfaced by recovery, in local apply order.
#[derive(Clone, Debug)]
pub struct DecidedTxn {
    /// The transaction body.
    pub txn: Arc<Transaction>,
    /// The submitting client.
    pub client: usize,
    /// The logged local vote.
    pub vote: bool,
    /// The decided value.
    pub value: u64,
}

/// The state a crashed shard recovers to.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// The rebuilt shard: committed effects applied in decision-log order,
    /// write locks of in-flight yes-votes re-taken.
    pub shard: Shard,
    /// Decided transactions in apply order (the node's audited decision
    /// log).
    pub decided: Vec<DecidedTxn>,
    /// Prepared, undecided transactions in prepare order.
    pub in_flight: Vec<PreparedTxn>,
}

/// A shard's write-ahead log.
#[derive(Clone, Debug, Default)]
pub struct Wal {
    records: Vec<WalRecord>,
    /// Records the typed appenders and [`Wal::force_batch`] wrote. The
    /// log reads no clock: the node times its force step around
    /// [`Wal::force_batch`].
    appends: u64,
    /// Durability points. A typed single-record append
    /// (`log_prepare`/`log_decide`) is one append and one force;
    /// [`Wal::force_batch`] amortizes one force over many appends — the
    /// group-commit win the saturation harness gates on.
    forces: u64,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Wal {
        Wal::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append a raw record (tests and conversions; the service uses the
    /// typed appenders below).
    pub fn append(&mut self, rec: WalRecord) {
        self.records.push(rec);
    }

    /// Log a prepare: `txn` validated locally with verdict `vote`.
    pub fn log_prepare(&mut self, txn: Arc<Transaction>, client: usize, vote: bool) {
        self.log_one(WalRecord::Prepare { txn, client, vote });
    }

    /// Log an applied decision.
    pub fn log_decide(&mut self, txn: TxnId, value: u64) {
        self.log_one(WalRecord::Decide { txn, value });
    }

    /// A typed single-record append is its own durability point.
    fn log_one(&mut self, rec: WalRecord) {
        self.records.push(rec);
        self.appends += 1;
        self.forces += 1;
    }

    /// Group commit: append every staged record and force **once**. The
    /// batch is drained (the caller's staging buffer comes back empty,
    /// ready for reuse); an empty batch is a no-op — no force is charged
    /// for a durability point that wrote nothing.
    pub fn force_batch(&mut self, batch: &mut Vec<WalRecord>) {
        if batch.is_empty() {
            return;
        }
        self.appends += batch.len() as u64;
        self.records.append(batch);
        self.forces += 1;
    }

    /// Records appended through the typed appenders and
    /// [`Wal::force_batch`] (raw [`Wal::append`] is not counted).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Durability points the log saw. `forces < appends` is the
    /// group-commit signature; the per-record appenders keep the two
    /// counters equal.
    pub fn forces(&self) -> u64 {
        self.forces
    }

    /// The raw record sequence.
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Rebuild the shard state this log describes (see the module docs for
    /// the idempotence guarantees).
    pub fn replay(&self, shard_id: usize) -> Recovery {
        // Pass 1: deduplicate. First prepare and first decision per
        // transaction win; decision order is the order decisions first
        // appear in the log (the local apply order).
        let mut prepares: BTreeMap<TxnId, (Arc<Transaction>, usize, bool)> = BTreeMap::new();
        let mut prepare_order: Vec<TxnId> = Vec::new();
        let mut decisions: BTreeMap<TxnId, u64> = BTreeMap::new();
        let mut decide_order: Vec<TxnId> = Vec::new();
        for rec in &self.records {
            match rec {
                WalRecord::Prepare { txn, client, vote } => {
                    prepares.entry(txn.id).or_insert_with(|| {
                        prepare_order.push(txn.id);
                        (Arc::clone(txn), *client, *vote)
                    });
                }
                WalRecord::Decide { txn, value } => {
                    decisions.entry(*txn).or_insert_with(|| {
                        decide_order.push(*txn);
                        *value
                    });
                }
            }
        }

        // Pass 2: apply decisions in apply order, then re-take the locks of
        // in-flight yes-votes. A decision without a local prepare record is
        // unreplayable (no transaction body) and cannot be produced by the
        // service, which always logs the prepare first; it is skipped.
        let mut shard = Shard::new(shard_id);
        let mut decided = Vec::with_capacity(decide_order.len());
        for id in decide_order {
            let Some((txn, client, vote)) = prepares.get(&id) else {
                continue;
            };
            let value = decisions[&id];
            if value == COMMIT {
                shard.relock(txn);
            }
            shard.finish(txn, value == COMMIT);
            decided.push(DecidedTxn {
                txn: Arc::clone(txn),
                client: *client,
                vote: *vote,
                value,
            });
        }
        let mut in_flight = Vec::new();
        for id in prepare_order {
            if decisions.contains_key(&id) {
                continue;
            }
            let (txn, client, vote) = &prepares[&id];
            if *vote {
                shard.relock(txn);
            }
            in_flight.push(PreparedTxn {
                txn: Arc::clone(txn),
                client: *client,
                vote: *vote,
            });
        }
        Recovery {
            shard,
            decided,
            in_flight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Key;

    fn write_txn(id: TxnId, shard: usize, k: u64, v: i64) -> Arc<Transaction> {
        Arc::new(Transaction::new(id).with_write(Key::new(shard, k), v))
    }

    #[test]
    fn commit_replays_to_the_applied_state() {
        let mut wal = Wal::new();
        let t = write_txn(7, 0, 3, 42);
        wal.log_prepare(Arc::clone(&t), 0, true);
        wal.log_decide(7, COMMIT);
        let rec = wal.replay(0);
        assert_eq!(rec.shard.read(3).value, 42);
        assert_eq!(rec.shard.read(3).version, 1);
        assert_eq!(rec.shard.locked(), 0);
        assert_eq!(rec.decided.len(), 1);
        assert!(rec.in_flight.is_empty());
    }

    #[test]
    fn crash_between_prepare_and_decision_recovers_locks() {
        // The satellite's unit case: a node crashes after voting yes but
        // before any decision arrives. Recovery must re-hold the write
        // locks (the shard is still *prepared*) and surface the
        // transaction as in-flight.
        let mut wal = Wal::new();
        let t = write_txn(9, 0, 5, 1);
        wal.log_prepare(Arc::clone(&t), 2, true);
        let rec = wal.replay(0);
        assert_eq!(rec.shard.locked(), 1, "prepared locks must be re-held");
        assert_eq!(rec.shard.read(5).version, 0, "nothing committed yet");
        assert_eq!(rec.in_flight.len(), 1);
        assert_eq!(rec.in_flight[0].client, 2);
        assert!(rec.in_flight[0].vote);
        // Completing the recovery with the decision reaches the exact state
        // a crash-free node would have.
        let mut wal2 = wal.clone();
        wal2.log_decide(9, COMMIT);
        let done = wal2.replay(0);
        assert_eq!(done.shard.read(5).value, 1);
        assert_eq!(done.shard.locked(), 0);
    }

    #[test]
    fn no_vote_prepare_holds_no_locks() {
        let mut wal = Wal::new();
        wal.log_prepare(write_txn(1, 0, 2, 9), 0, false);
        let rec = wal.replay(0);
        assert_eq!(rec.shard.locked(), 0);
        assert_eq!(rec.in_flight.len(), 1);
        assert!(!rec.in_flight[0].vote);
    }

    #[test]
    fn duplicate_records_replay_once() {
        let mut wal = Wal::new();
        let t = Arc::new(
            Transaction::new(4)
                .with_add(Key::new(0, 1), 10)
                .with_add(Key::new(1, 1), -10),
        );
        for _ in 0..3 {
            wal.log_prepare(Arc::clone(&t), 1, true);
            wal.log_decide(4, COMMIT);
        }
        let rec = wal.replay(0);
        // Add(10) applied exactly once despite three logged copies.
        assert_eq!(rec.shard.read(1).value, 10);
        assert_eq!(rec.shard.read(1).version, 1);
        assert_eq!(rec.decided.len(), 1);
    }

    #[test]
    fn typed_appends_are_counted() {
        let mut wal = Wal::new();
        assert_eq!((wal.appends(), wal.forces()), (0, 0));
        wal.log_prepare(write_txn(1, 0, 2, 9), 0, true);
        wal.log_decide(1, COMMIT);
        assert_eq!((wal.appends(), wal.forces()), (2, 2));
        // Raw `append` (tests/conversions) is not counted.
        wal.append(WalRecord::Decide { txn: 2, value: 0 });
        assert_eq!(wal.appends(), 2);
    }

    #[test]
    fn force_batch_amortizes_one_force_over_many_appends() {
        let mut wal = Wal::new();
        let mut batch = Vec::new();
        for i in 0..8u64 {
            let t = write_txn(i + 1, 0, i, i as i64);
            batch.push(WalRecord::Prepare {
                txn: t,
                client: 0,
                vote: true,
            });
        }
        wal.force_batch(&mut batch);
        assert!(batch.is_empty(), "the staging buffer is drained");
        assert_eq!(wal.appends(), 8, "every record appended");
        assert_eq!(wal.forces(), 1, "one durability point");
        assert_eq!(wal.len(), 8);
        // An empty batch charges nothing.
        wal.force_batch(&mut batch);
        assert_eq!(wal.forces(), 1);
        // Per-record appenders keep forces == appends.
        wal.log_decide(1, COMMIT);
        assert_eq!((wal.appends(), wal.forces()), (9, 2));
    }

    #[test]
    fn force_batch_replays_identically_to_per_record_appends() {
        let t1 = write_txn(1, 0, 2, 10);
        let t2 = write_txn(2, 0, 5, 20);
        let mut per_record = Wal::new();
        per_record.log_prepare(Arc::clone(&t1), 0, true);
        per_record.log_prepare(Arc::clone(&t2), 1, true);
        per_record.log_decide(1, COMMIT);

        let mut grouped = Wal::new();
        let mut batch = vec![
            WalRecord::Prepare {
                txn: t1,
                client: 0,
                vote: true,
            },
            WalRecord::Prepare {
                txn: t2,
                client: 1,
                vote: true,
            },
            WalRecord::Decide {
                txn: 1,
                value: COMMIT,
            },
        ];
        grouped.force_batch(&mut batch);

        let (a, b) = (per_record.replay(0), grouped.replay(0));
        assert_eq!(a.shard.read(2), b.shard.read(2));
        assert_eq!(a.shard.locked(), b.shard.locked());
        assert_eq!(a.decided.len(), b.decided.len());
        assert_eq!(a.in_flight.len(), b.in_flight.len());
    }

    #[test]
    fn abort_decision_releases_without_effect() {
        let mut wal = Wal::new();
        let t = write_txn(5, 0, 8, 77);
        wal.log_prepare(t, 0, true);
        wal.log_decide(5, 0);
        let rec = wal.replay(0);
        assert_eq!(rec.shard.read(8).version, 0);
        assert_eq!(rec.shard.locked(), 0);
        assert_eq!(rec.decided[0].value, 0);
    }
}
