//! # ac-net — the simulated distributed database network
//!
//! Implements the two system models of the paper (§2.2):
//!
//! * a **crash-failure system** (synchronous): every message transmission
//!   delay is at most the known bound `U`; processes may crash;
//! * a **network-failure system** (eventually synchronous): message delays
//!   may exceed `U` (arbitrarily, but finitely) until some global
//!   stabilization time, after which they are bounded by `U` again.
//!
//! Channels never lose, duplicate, corrupt or invent messages; every message
//! sent is eventually received (§2.1), *unless* the destination has crashed
//! (a crashed process performs no further steps, so delivery to it is moot).
//!
//! [`World`] is the discrete-event interpreter tying `ac-sim` automata to a
//! [`DelayModel`] and a [`FaultPlan`] (the fault schedule the live service
//! reads too), recording decisions, per-message
//! wire records and optional traces, from which [`Metrics`] computes the
//! paper's two complexity measures.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod delay;
pub mod fault;
pub mod metrics;
pub mod world;

pub use delay::{DelayModel, FixedDelay, GstDelay, JitterDelay};
pub use fault::{Crash, DelayRule, DropRule, Fate, FaultPlan};
pub use metrics::{ExecutionClass, Metrics, MsgRecord};
pub use world::{Outcome, World, WorldConfig};
