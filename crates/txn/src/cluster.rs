//! The distributed database cluster: shards + a pluggable commit protocol.
//!
//! Every transaction runs the full cycle of the paper's §1.1: local
//! execution/validation at each shard (producing the votes), one run of the
//! chosen atomic-commit protocol over all `n` processes (processes whose
//! shard is untouched vote 1), and application of the decision. Latency is
//! measured in message delays — the paper's currency — and aggregated per
//! workload.

use ac_commit::protocols::ProtocolKind;
use ac_commit::Scenario;

use crate::store::Shard;
use crate::txn::Transaction;

/// Aggregated outcome of a workload run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Transactions that committed.
    pub committed: usize,
    /// Transactions that aborted.
    pub aborted: usize,
    /// Total commit-protocol latency, in message delays, across txns.
    pub total_delays: u64,
    /// Total messages exchanged by the commit protocol (the paper's
    /// arrival-before-decision count).
    pub total_messages: u64,
}

impl CommitStats {
    /// Total transactions executed.
    pub fn transactions(&self) -> usize {
        self.committed + self.aborted
    }

    /// Fraction of transactions that committed (0 if none ran).
    pub fn commit_ratio(&self) -> f64 {
        if self.transactions() == 0 {
            0.0
        } else {
            self.committed as f64 / self.transactions() as f64
        }
    }

    /// Mean commit-protocol latency per transaction, in message delays.
    pub fn avg_delays(&self) -> f64 {
        if self.transactions() == 0 {
            0.0
        } else {
            self.total_delays as f64 / self.transactions() as f64
        }
    }

    /// Mean commit-protocol messages per transaction.
    pub fn avg_messages(&self) -> f64 {
        if self.transactions() == 0 {
            0.0
        } else {
            self.total_messages as f64 / self.transactions() as f64
        }
    }
}

/// A cluster of `n` processes, each owning one shard, committing through a
/// chosen protocol.
pub struct Cluster {
    shards: Vec<Shard>,
    f: usize,
    kind: ProtocolKind,
    stats: CommitStats,
}

impl Cluster {
    /// A cluster of `n` single-shard processes tolerating `f` crashes,
    /// committing through `kind`.
    pub fn new(n: usize, f: usize, kind: ProtocolKind) -> Cluster {
        assert!(n >= 2 && f >= 1 && f < n);
        Cluster {
            shards: (0..n).map(Shard::new).collect(),
            f,
            kind,
            stats: CommitStats::default(),
        }
    }

    /// Number of processes (= shards).
    pub fn n(&self) -> usize {
        self.shards.len()
    }

    /// The commit protocol in use.
    pub fn protocol(&self) -> ProtocolKind {
        self.kind
    }

    /// Shard `i`'s store.
    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// Statistics aggregated over every executed transaction.
    pub fn stats(&self) -> &CommitStats {
        &self.stats
    }

    /// Execute one transaction end-to-end (failure-free commit round):
    /// a batch of one. Returns whether it committed.
    pub fn execute(&mut self, txn: &Transaction) -> bool {
        self.execute_concurrent(std::slice::from_ref(txn))[0]
    }

    /// Execute a batch; returns the stats snapshot after the batch.
    pub fn execute_all(&mut self, txns: &[Transaction]) -> CommitStats {
        for t in txns {
            self.execute(t);
        }
        self.stats.clone()
    }

    /// Pipelined execution: every transaction of the batch *prepares*
    /// before any commit round runs, so overlapping write sets within a
    /// batch conflict and vote no — the concurrency pattern that makes
    /// skewed workloads abort (Helios's cross-datacenter conflicts, §1).
    /// Returns per-transaction outcomes.
    pub fn execute_concurrent(&mut self, txns: &[Transaction]) -> Vec<bool> {
        let n = self.n();
        let votes_per_txn: Vec<Vec<bool>> = txns
            .iter()
            .map(|txn| {
                (0..n)
                    .map(|p| {
                        if txn.touches(p) {
                            self.shards[p].prepare(txn)
                        } else {
                            true
                        }
                    })
                    .collect()
            })
            .collect();
        txns.iter()
            .zip(votes_per_txn)
            .map(|(txn, votes)| {
                let sc = Scenario::nice(n, self.f).votes(&votes);
                let out = self.kind.run(&sc);
                let decided = out.decided_values();
                assert_eq!(decided.len(), 1, "{}: split decision", self.kind.name());
                let commit = decided[0] == 1;
                for shard in &mut self.shards {
                    shard.finish(txn, commit);
                }
                let m = out.metrics();
                if commit {
                    self.stats.committed += 1;
                } else {
                    self.stats.aborted += 1;
                }
                self.stats.total_delays += m.delays.unwrap_or(0);
                self.stats.total_messages += m.messages as u64;
                commit
            })
            .collect()
    }

    /// Run `txns` in pipelined batches of `batch` transactions.
    pub fn execute_batched(&mut self, txns: &[Transaction], batch: usize) -> CommitStats {
        assert!(batch >= 1);
        for chunk in txns.chunks(batch) {
            self.execute_concurrent(chunk);
        }
        self.stats.clone()
    }

    /// Total value across all shards (conservation checks).
    pub fn total_value(&self) -> i64 {
        self.shards.iter().map(|s| s.total()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Key;
    use crate::workload::{Workload, WorkloadConfig};

    fn transfer(id: u64, from: (usize, u64), to: (usize, u64), amount: i64) -> Transaction {
        Transaction::new(id)
            .with_add(Key::new(from.0, from.1), -amount)
            .with_add(Key::new(to.0, to.1), amount)
    }

    #[test]
    fn single_transaction_commits_through_inbac() {
        let mut c = Cluster::new(4, 1, ProtocolKind::Inbac);
        assert!(c.execute(&transfer(1, (0, 0), (2, 0), 10)));
        assert_eq!(c.shard(0).read(0).value, -10);
        assert_eq!(c.shard(2).read(0).value, 10);
        assert_eq!(c.total_value(), 0);
    }

    #[test]
    fn conflicting_second_writer_aborts() {
        let mut c = Cluster::new(3, 1, ProtocolKind::TwoPc);
        let a = transfer(1, (0, 5), (1, 5), 7);
        assert!(c.execute(&a));
        // Re-running the same reads at old versions must abort.
        let stale = Transaction::new(2).with_read(Key::new(0, 5), 0);
        assert!(!c.execute(&stale));
        let s = c.execute_all(&[]);
        assert_eq!((s.committed, s.aborted), (1, 1));
    }

    #[test]
    fn all_protocols_agree_on_workload_outcomes() {
        // The same deterministic workload must commit/abort identically
        // under every protocol (decisions depend on votes, not transport).
        let cfg = WorkloadConfig {
            shards: 4,
            keys_per_shard: 8,
            workload: Workload::Skewed {
                span: 2,
                theta: 0.9,
            },
            seed: 11,
        };
        let txns = cfg.generator().take_txns(40);
        let mut outcomes: Vec<Vec<bool>> = Vec::new();
        for kind in [
            ProtocolKind::Inbac,
            ProtocolKind::TwoPc,
            ProtocolKind::PaxosCommit,
            ProtocolKind::Nbac1,
        ] {
            let mut c = Cluster::new(4, 1, kind);
            outcomes.push(txns.iter().map(|t| c.execute(t)).collect());
        }
        for pair in outcomes.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn stats_accumulate_latency_in_delays() {
        let mut c = Cluster::new(4, 1, ProtocolKind::Inbac);
        c.execute(&transfer(1, (0, 0), (1, 0), 1));
        c.execute(&transfer(2, (2, 0), (3, 0), 1));
        let s = c.execute_all(&[]);
        assert_eq!(s.transactions(), 2);
        // INBAC: 2 delays, 2fn = 8 messages per round.
        assert_eq!(s.total_delays, 4);
        assert_eq!(s.total_messages, 16);
        assert!((s.avg_delays() - 2.0).abs() < f64::EPSILON);
    }
}
