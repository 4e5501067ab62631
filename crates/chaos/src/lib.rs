//! # ac-chaos — deterministic fault injection and recovery measurement
//!
//! The paper's subject is how fast commit can go *while tolerating `f`
//! failures*; this crate makes the failure modes measurable in wall-clock
//! on the live service (`ac-cluster`), the way "Distributed Transactions:
//! Dissecting the Nightmare" argues commit protocols actually
//! differentiate:
//!
//! * [`plan`] — the shared fault vocabulary: a seeded [`ChaosPlan`]
//!   (crash/restart schedules, symmetric/asymmetric partitions, i.i.d.
//!   loss, extra latency) written in virtual delay units, convertible
//!   to/from the simulator's [`ac_net::FaultPlan`] so one schedule drives
//!   both worlds;
//! * [`proxy`] — [`FaultProxy`], the [`ac_cluster::NetPolicy`] wrapping
//!   every per-peer mailbox with a deterministic per-envelope fate
//!   (deliver / drop / delay);
//! * [`run`] — [`run_chaos`], a composition of two steps any host can
//!   take apart: serve the service under the plan's fault specification
//!   ([`ChaosPlan::spec`]: WAL durability on, crash windows scheduled, the
//!   proxy on every envelope), then bucket the per-transaction timelines
//!   into [`FaultStats`] ([`ChaosConfig::fault_stats`]): availability and
//!   committed-ops/s during the fault vs after the heal, blocked
//!   transactions and time-to-unblock. The harness's chaos section takes
//!   the two steps through its cell runner.
//!
//! The headline result this layer shows live: 2PC *blocks* on a
//! coordinator crash (stalled transactions until restart + recovery) while
//! Paxos-Commit's and INBAC's f-tolerant paths keep deciding — and keep
//! **committing** the transactions whose participants stayed up.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod plan;
pub mod proxy;
pub mod run;

pub use plan::{ChaosPlan, CrashSpec, DelaySpec, LossSpec, PartitionSpec};
pub use proxy::FaultProxy;
pub use run::{run_chaos, ChaosConfig, ChaosOutcome, FaultStats};
