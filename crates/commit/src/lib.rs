//! # ac-commit — atomic commit protocols and their complexity
//!
//! The core library of this reproduction of Guerraoui & Wang, *How Fast can
//! a Distributed Transaction Commit?* (PODS 2017). It contains:
//!
//! * [`problem`] — the NBAC problem (Definition 1), votes/decisions, and the
//!   [`problem::CommitProtocol`] construction interface all
//!   protocols implement;
//! * [`taxonomy`] — the 27 robustness cells of Table 1 with their tight
//!   delay/message lower bounds (Theorems 1, 2 and 5) and the
//!   delay-vs-message trade-off classification;
//! * [`protocols`] — executable automata for every protocol in the paper:
//!   the new **INBAC** (§5, Appendix A) plus 1NBAC, 0NBAC, aNBAC, both
//!   avNBAC variants, (n−1+f)NBAC, (2n−2)NBAC, (2n−2+f)NBAC, and the
//!   baselines 2PC, 3PC, PaxosCommit and Faster PaxosCommit;
//! * [`checker`] — verifies agreement/validity/termination of recorded
//!   executions against the guarantees of a protocol's cell;
//! * [`explorer`] — exhaustive small-model exploration of vote vectors ×
//!   crash schedules;
//! * [`runner`] — convenience entry points building a simulated world for a
//!   protocol and scenario.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod checker;
pub mod explorer;
pub mod lower_bounds;
pub mod problem;
pub mod protocols;
pub mod runner;
pub mod taxonomy;

pub use checker::{check, CheckReport, Violation};
pub use problem::{CommitProtocol, Vote};
pub use runner::{run, run_nice, Scenario};
pub use taxonomy::{Bounds, Cell, PropSet};
