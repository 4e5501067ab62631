//! # ac-consensus — indulgent uniform consensus
//!
//! The paper's protocols 1NBAC, 0NBAC, INBAC and (2n−2+f)NBAC use a
//! consensus module as a black box (Definition 5): *termination* (every
//! correct process eventually decides), *agreement* (no two processes decide
//! differently — uniform, i.e. including processes that later crash) and
//! *validity* (every decision was proposed). The module must terminate in a
//! **network-failure system** (eventually synchronous), which by FLP rules
//! out deterministic asynchronous solutions and motivates an indulgent
//! algorithm: safe always, live once the system stabilizes and a majority of
//! processes is correct — the same assumption the paper makes in Appendix B.
//!
//! We implement single-decree Paxos with a rotating coordinator:
//!
//! * ballot `b` (numbered from 1) is owned by process `(b−1) mod n`;
//! * a proposer that owns the current ballot runs the classic two phases
//!   (`Prepare`/`Promise`, `Accept`/`Accepted`) over all `n` processes and
//!   broadcasts `Decide` on a majority of accepts;
//! * every process arms a per-ballot timeout that grows linearly; on
//!   expiry it advances to the next ballot — after GST the first correct
//!   proposer-owned ballot decides;
//! * decided processes answer any `Prepare`/`Accept` with `Decide`, so
//!   stragglers catch up without retransmission machinery.
//!
//! The paper stresses that INBAC's correctness "does not rely on a
//! particular algorithm"; this crate is behind the [`ConsensusHost`]
//! seam precisely so another implementation can be dropped in.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod flooding;
pub mod paxos;

pub use flooding::{FloodMsg, FloodSet};
pub use paxos::{ConsensusHost, CtxHost, Paxos, PaxosMsg, CONS_TAG_BASE};
