//! # ac-chaos — availability under failure on the live service
//!
//! The paper's subject is how fast commit can go *while tolerating `f`
//! failures*; this crate makes the failure modes measurable in wall-clock
//! on the live service (`ac-cluster`), the way "Distributed Transactions:
//! Dissecting the Nightmare" argues commit protocols actually
//! differentiate. Its faults are the simulator's own schedule, an
//! [`ac_net::FaultPlan`] in virtual ticks: crashes with restarts,
//! partitions and lossy windows as drop rules, slow links and processes
//! as delay rules — so a plan a proof builds runs live unchanged.
//!
//! [`run`] — [`run_chaos`] is a composition of two steps any host can
//! take apart: serve the service under the plan ([`ChaosConfig::spec`]:
//! WAL durability on, so a crashed node recovers from its log), then
//! bucket the per-transaction timelines into [`FaultStats`]
//! ([`ChaosConfig::fault_stats`]): availability and committed-ops/s
//! during the fault vs after the heal, blocked transactions and
//! time-to-unblock. The harness's chaos section takes the two steps
//! through its cell runner.
//!
//! The headline result this layer shows live: 2PC *blocks* on a
//! coordinator crash (stalled transactions until restart + recovery) while
//! Paxos-Commit's and INBAC's f-tolerant paths keep deciding — and keep
//! **committing** the transactions whose participants stayed up.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod run;

pub use run::{run_chaos, ChaosConfig, ChaosOutcome, FaultStats};
