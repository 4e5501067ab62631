//! # ac-obs — always-on, allocation-free observability
//!
//! The paper's central claim — protocol delay bounds dominate commit
//! latency ("How Fast can a Distributed Transaction Commit?", PODS 2017)
//! — is a claim about *where the microseconds go*. This crate is the
//! measurement layer that turns the claim into data:
//!
//! * [`histogram`] — the dependency-free log-bucketed
//!   [`LatencyHistogram`] (p50/p90/p99/p99.9/max), shared by every layer
//!   that reports a latency distribution;
//! * [`stage`] — the per-thread instruments: a fixed-slot atomic
//!   [`ObsMeters`] registry, one `(count, nanos)` meter per [`Stage`]
//!   (what a live `--metrics` endpoint reads), and the bounded per-node
//!   [`FlightRecorder`] of `(txn, stage, timestamp)` lifecycle events;
//! * [`attribution`] — the per-transaction telescoping decomposition of
//!   end-to-end latency into channel / lock / WAL / protocol / transport
//!   stages, exact by construction (stages sum to the measured latency
//!   per transaction, so shares sum to 100 %), read off one
//!   [`FlightIndex`] — a slot per transaction, by arithmetic for the ids a
//!   [`SlotBox`] holds — whose one [`Walk`] of a transaction also gives
//!   its cross-participant [`Lifecycle`] stamps;
//! * [`export`] — the cross-process story: a compact `Wire`-encoded
//!   [`ObsExport`] of one process's recorder state, the collector-side
//!   [`ClusterDump`] file format, and [`Attribution::from_exports`];
//! * [`clock`] — NTP-style clock alignment ([`ClockAlignment`]) mapping
//!   each process's monotonic timestamps into the collector's timeline,
//!   with explicit per-node uncertainty bounds;
//! * [`net`] — transport-layer meters ([`NetMeters`]): per-peer
//!   bytes/frames/reconnect/dial-failure counters plus inbound decode
//!   accounting, Prometheus-renderable and embedded in every export.
//!
//! Everything here is passive: recording never blocks, never allocates
//! on the hot path after setup, and never wakes a thread — the service's
//! zero-spurious-wakeup and counter-exact perf invariants hold with the
//! instruments on, which is why they are always on.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod attribution;
pub mod clock;
pub mod export;
pub mod histogram;
pub mod net;
pub mod stage;

pub use attribution::{Attribution, FlightIndex, Lifecycle, SlotBox, TxnTimeline, Walk};
pub use clock::{ClockAlignment, ClockSample};
pub use export::{
    goodput_tps, max_uncertainty_nanos, sojourn_times, ClusterDump, DumpTxn, ObsExport, RunStats,
    DUMP_MAGIC,
};
pub use histogram::LatencyHistogram;
pub use net::{NetMeters, NetSnapshot, PeerNet};
pub use stage::{
    FlightEvent, FlightRecorder, FlightStage, NodeObs, ObsMeters, Stage, ATTRIBUTION_STAGES,
    FLIGHT_CAP,
};
