//! # ac-txn — a sharded transactional key-value substrate
//!
//! The paper motivates atomic commit with distributed database systems
//! (Sinfonia, Percolator, Spanner, Clock-SI, Yesquel, Helios — §1): each
//! node executes its part of a transaction and *votes*; a commit protocol
//! decides. This crate provides that surrounding system so the protocol
//! library can be exercised on realistic workloads:
//!
//! * [`store`] — a versioned, hash-indexed key-value store per shard with
//!   optimistic-concurrency validation (each shard votes "yes" iff the
//!   transaction's read-set is still current and its write locks are free);
//! * [`txn`] — transactions (read/write sets over sharded keys, each one
//!   sorted flat run of pairs);
//! * [`workload`] — deterministic workload generators: uniform, skewed
//!   (Zipf-like without external deps), Helios-style cross-datacenter
//!   conflict patterns;
//! * [`cluster`] — glues shards to any [`ac_commit::CommitProtocol`]: one
//!   simulated commit round per transaction, with latency (in message
//!   delays) and abort accounting;
//! * [`wal`] — a per-shard write-ahead log (prepare/decision records) with
//!   replay-idempotent recovery, the durability substrate of the live
//!   service's crash/restart path (`ac-chaos`).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cluster;
pub mod store;
pub mod txn;
pub mod wal;
pub mod workload;

pub use cluster::{Cluster, CommitStats};
pub use store::{Shard, Version};
pub use txn::{FlatMap, Key, Transaction, TxnId, WriteOp};
pub use wal::{DecidedTxn, PreparedTxn, Recovery, Wal, WalRecord};
pub use workload::{ArrivalSchedule, Workload, WorkloadConfig};
