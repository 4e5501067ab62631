//! # ac-cluster — the live in-process transaction service
//!
//! `ac-txn::Cluster` pushes transactions one-at-a-time through the
//! discrete-event simulator and reports latency in *message delays*. This
//! crate answers the paper's question — how fast can a distributed
//! transaction commit? — the way systems papers do: **many concurrent
//! commits over real links**, measured in wall-clock throughput and
//! tail latency.
//!
//! * [`service`] — `n` long-lived nodes on host threads (one per core,
//!   never more than there are nodes), each owning one [`ac_txn::Shard`]
//!   plus an [`ac_runtime::NodeLoop`] demultiplexer running many
//!   concurrent protocol instances (messages travel as `(TxnId, Msg)`
//!   envelopes through host-owned mailboxes or loopback TCP, scoped to
//!   each transaction's participant shards), and a closed-loop load
//!   generator of `c` clients riding the same hosts (every serving thread
//!   runs the same `host` loop) driving `ac-txn` workloads end-to-end:
//!   prepare/vote at the shards, one live protocol run per transaction
//!   (any [`ac_commit::protocols::ProtocolKind`]), apply/release, with a
//!   post-run safety audit. Since ISSUE-5 the service is also the
//!   fault-injection substrate: [`run_service_faulted`] accepts a
//!   [`FaultSpec`] (an [`ac_net::FaultPlan`], the simulator's fault
//!   schedule: crashes with restarts, and drop and delay rules deciding
//!   each envelope's [`ac_net::Fate`]), nodes write-ahead-log prepares/decisions
//!   to [`ac_txn::Wal`] and recover from it on restart, and clients use
//!   bounded, retrying reply waits instead of blocking on dead nodes.
//!
//! Latency reporting uses `ac-obs`: the log-bucketed
//! [`LatencyHistogram`] (p50/p90/p99/p99.9/max, re-exported here for
//! compatibility) that [`ac_obs::sojourn_times`] folds a run's decided
//! transactions into, the per-stage meters every node and client
//! carries, and the per-txn flight recorder every node carries (see
//! [`ServiceOutcome::attribution`](service::ServiceOutcome)).

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod client;
pub mod codec;
mod host;
mod node;
pub mod proc;
pub mod service;
pub mod spec;
pub mod transport;

pub use ac_obs::{
    Attribution, LatencyHistogram, ObsMeters, Stage, TxnTimeline, ATTRIBUTION_STAGES,
};
pub use ac_sim::inline::{self, InlineVec};
pub use codec::{AnyFrame, FrameDecoder, MAX_FRAME};
pub use service::{
    participants_of, run_service, run_service_faulted, Done, FaultSpec, NodeRecord, ServiceConfig,
    ServiceOutcome, ToNode, TransportKind, TxnEvent, ORPHAN_CAP, SLOWEST_KEPT,
};
pub use spec::ClusterSpec;
pub use transport::{mailboxes, Bell, Mailbox, Mailboxes, TcpNode, TcpTransport, Transport};
