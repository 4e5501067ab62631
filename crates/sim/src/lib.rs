//! # ac-sim — deterministic discrete-event simulation kernel
//!
//! This crate provides the execution model of Guerraoui & Wang
//! (PODS 2017, *How Fast can a Distributed Transaction Commit?*):
//!
//! * `n` processes executing **instantaneous local steps**;
//! * reliable point-to-point channels (no loss, duplication, corruption);
//! * **timers** local to each process;
//! * at equal timestamps, **message deliveries are handled before timer
//!   timeouts** (the paper's Appendix A, remark (b));
//! * time is virtual: one *message-delay unit* `U` is [`time::U`] ticks.
//!
//! Protocol automata implement the [`Automaton`] trait and interact with the
//! world exclusively through [`Ctx`], which buffers [`Action`]s. The actual
//! event loop, delay assignment and fault injection live in the `ac-net`
//! crate; this crate is runtime-agnostic so the same automata also run on
//! real threads (`ac-runtime`).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod automaton;
pub mod event;
pub mod inline;
pub mod slab;
pub mod time;
pub mod trace;
pub mod wire;

pub use automaton::{Action, Automaton, Ctx};
pub use event::{Event, EventClass, EventKey, EventQueue, ScheduledEvent};
pub use inline::{InlineVec, SmallVec};
pub use slab::Slab;
pub use time::{Time, U};
pub use trace::{render_timeline, TimelineRow, TraceEntry, TraceKind};
pub use wire::{Wire, WireError};

/// Identifier of a process. Internally processes are `0..n`; the paper's
/// `P1..Pn` correspond to ids `0..n-1` (display helpers add 1).
pub type ProcessId = usize;
