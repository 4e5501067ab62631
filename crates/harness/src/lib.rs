//! # ac-harness — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Experiment | Paper artifact | Entry point |
//! |---|---|---|
//! | `table1` | Table 1 — 27-cell complexity taxonomy + matching protocols | [`experiments::table1`] |
//! | `table2` | Table 2 — delay-optimal protocols | [`experiments::table2`] |
//! | `table3` | Table 3 — message-optimal protocols | [`experiments::table3`] |
//! | `table4` | Table 4 — indulgent AC vs synchronous NBAC | [`experiments::table4`] |
//! | `table5` | Table 5 — INBAC vs 2PC vs PaxosCommit (sweep) | [`experiments::table5`] |
//! | `fig1`   | Figure 1 — INBAC state transitions at 2U | [`experiments::fig1`] |
//! | `ablations` | §5.2 fast abort, consensus engagement, ack bundling | [`experiments::ablations`] |
//! | `exhaustive` | (cross-cutting) parallel small-model soundness sweep | [`experiments::exhaustive`] |
//! | `bench` | (cross-cutting) bench baseline: the simulator numbers | [`experiments::baseline`] → [`experiments::simulator_section`] |
//! | `load` | (cross-cutting) + the live-service sweep and its per-stage latency attribution | … + [`experiments::service_section`], [`experiments::attribution_section`] |
//! | `chaos` | (cross-cutting) + availability under failure | … + [`experiments::chaos_section`] |
//! | `saturate` | (cross-cutting) + open-loop saturation curves with knees | … + [`experiments::saturation_section`] |
//! | `proc` | (cross-cutting) `load`'s sections with a `"proc"` attribution row per protocol, and one `"proc"` saturation curve: the same cells served by real `ac-node` / `ac-client` processes | … on [`cell::Host::Proc`] ([`procrun::ProcHost`]) |
//! | `perf` | (cross-cutting) re-measure simulator + service, diff a committed baseline | [`perf::perf_compare`] |
//!
//! Each experiment returns a [`report::Report`] that renders as aligned
//! text (what `repro` prints and EXPERIMENTS.md records) and serializes to
//! JSON for downstream tooling. Explorer-backed experiments take a `jobs`
//! worker-thread count (the `repro` binary's `--jobs` flag). The
//! cross-cutting rows all write one document, the
//! [`report::BenchBaseline`] snapshot (`BENCH_baseline.json`, validated by
//! `repro bench-check` in CI): one function per section, composed by
//! [`experiments::baseline`] from the subcommand → sections table
//! [`experiments::baseline_sections`]; a section a subcommand does not
//! measure is `null`. Every live run of the four live sections (service,
//! chaos, attribution, saturation) and of `perf`'s live gates is one
//! [`cell::run_cell`] call, and every row is read off the [`cell::Cell`]
//! it returns, whichever of the three hosts served it.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cell;
pub mod experiments;
pub mod perf;
pub mod procrun;
pub mod report;

pub use report::{Report, Table};
