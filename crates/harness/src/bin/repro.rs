//! `repro` — regenerate the paper's tables and figures, and write, check
//! and diff the bench baseline.
//!
//! ```text
//! repro [--json] [--jobs N] [table1|table2|table3|table4|table5|fig1|ablations|exhaustive|all]
//! repro bench|load|chaos|saturate [--quick] [--json] [--jobs N] [--out PATH] \
//!       [--transport channel|tcp] [--before PATH]
//! repro proc [--quick] [--json] [--jobs N] [--out PATH] [--before PATH] \
//!       [--dump-dir DIR] [--metrics PORT]
//! repro bench-check <path>
//! repro trace [<path>]
//! repro perf --against <path> [--quick] [--json] [--jobs N] [--out PATH]
//! ```
//!
//! With no argument, runs `all`. `--json` emits machine-readable reports
//! instead of aligned text; `--jobs N` sets the worker-thread count of the
//! explorer-backed targets (default 1, sequential). Every subcommand exits
//! 1 if a paper-vs-measured comparison, safety audit or gate fails, and 2
//! on a usage error.
//!
//! The baseline-writing subcommands all write **one document** (`--out`,
//! default `BENCH_baseline.json`): the simulator numbers (`protocols`,
//! `explorer`) plus the live sections the subcommand measures, every
//! other section `null` (`ac_harness::experiments::baseline_sections` is
//! this table in code):
//!
//! | subcommand | live sections measured | what the sweep is |
//! |---|---|---|
//! | `bench` | — | Table-5 nice executions + explorer wall-clock |
//! | `load` | `service`, `attribution` | closed-loop protocol × workload × concurrency sweep; per-stage latency attribution of every Table-5 protocol on both transports, slowest timelines embedded |
//! | `chaos` | + `chaos` | {2PC, Paxos-Commit, INBAC, D1CC} × {crash-coordinator, crash-participant, partition-heal, lossy-10} through `ac-chaos`, safety audit on every faulted run |
//! | `saturate` | + `saturation` | open-loop Poisson arrivals stepped ×1 → ×16, the write-ahead log on wherever the host has one, knee detection with the knee's stage shares |
//! | `proc` | `service`, `attribution`, `saturation` | `load`'s sweeps with the `proc` host added: a `"proc"` attribution entry per Table-5 protocol next to its `"channel"` and `"tcp"` ones, and one `"proc"` saturation curve — the same cells, served by real `ac-node`/`ac-client` processes over loopback TCP, exports collected through the cross-process tracing path |
//!
//! Three hosts serve a live cell — `channel` and `tcp` in this process,
//! `proc` as spawned processes — and every row of every live section
//! (`service`, `chaos`, `attribution`, `saturation`) and of `perf`'s live
//! gates is read off the one record a run leaves
//! (`ac_harness::cell::Cell`) by the same code, whoever served it. A host
//! that cannot measure a field says so in the field: a `"proc"` step's
//! `wal_forces` and `forces_per_txn` are 0 (an `ac-node` has no log), and
//! its `safety_violations` is 0 because a process that finds one exits
//! non-zero and fails the sweep. The `proc` host injects no fault, so
//! the `chaos` section runs in process.
//!
//! Flags of those subcommands: `--quick` shrinks the sweeps for CI smoke
//! jobs; `--transport tcp` routes the service, chaos and saturation sweeps
//! through the real-socket transport (length-prefixed wire codec over
//! loopback TCP) instead of in-process channels, and the sections record
//! which transport measured them; `--before PATH` embeds a **before/after
//! pair**: `PATH` is the same sweep measured at the parent commit on the
//! same box, and every latency, throughput and stage-share metric both
//! files carry is paired in the `pair` section — how a claimed speed-up
//! lands in the committed baseline with the stage that moved. `proc`
//! writes one binary cluster dump per run under `--dump-dir` (default
//! `.`), and `--metrics PORT` additionally serves and scrapes node 0's
//! Prometheus endpoint mid-run (a gated check).
//!
//! The readers: `bench-check <path>` validates a written baseline (one
//! schema; each non-`null` section against its rules) and lists the
//! sections it found; `trace [<path>]` renders the slowest-transaction
//! timelines embedded in a baseline's `attribution` section (default path
//! `BENCH_baseline.json`) through the same renderer the simulator's traces
//! use — when `<path>` is a binary cluster dump written by `ac-client
//! --obs-out` / `repro proc`, the attribution is recomputed from the
//! per-process exports on the spot and rendered the same way; `perf
//! --against <path>` re-measures the simulator and service sections and
//! diffs them against a committed baseline: counter-exact regressions
//! (message counts, commit rates, safety/stall counters, explorer
//! soundness, the two live gates, a committed baseline the validator
//! rejects) fail the run, wall-clock drift only warns; the
//! machine-readable comparison is written to `--out` (default
//! `PERF_comparison.json`).

#![deny(unsafe_code)]

use std::path::{Path, PathBuf};

use ac_harness::cell::{Cell, Host};
use ac_harness::experiments;
use ac_harness::procrun::ProcHost;
use ac_harness::report::{AttributionEntry, BeforeAfter, BenchBaseline};
use ac_harness::Report;

fn run_one(id: &str, jobs: usize) -> Option<Vec<Report>> {
    Some(match id {
        "table1" => vec![experiments::table1(6, 2)],
        "table2" => vec![experiments::table2()],
        "table3" => vec![experiments::table3()],
        "table4" => vec![experiments::table4(6, 2)],
        "table5" => vec![experiments::table5(&[4, 6, 8, 10], &[1, 2, 3])],
        "fig1" => vec![experiments::fig1()],
        "ablations" => vec![experiments::ablations()],
        "exhaustive" => vec![experiments::exhaustive(jobs)],
        "all" => experiments::all(jobs),
        _ => return None,
    })
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: repro [--json] [--jobs N] [table1|table2|table3|table4|table5|fig1|ablations|exhaustive|all]\n\
         \x20      repro bench|load|chaos|saturate [--quick] [--json] [--jobs N] [--out PATH] \
         [--transport channel|tcp] [--before PATH]\n\
         \x20      repro proc [--quick] [--json] [--jobs N] [--out PATH] [--before PATH] [--dump-dir DIR] [--metrics PORT]\n\
         \x20      repro bench-check <path>\n\
         \x20      repro trace [<path>]\n\
         \x20      repro perf --against <path> [--quick] [--json] [--jobs N] [--out PATH]"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn read_text(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())))
}

/// The value following `flag`, parsed; a missing or malformed one is a
/// usage error.
fn flag_value<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> T {
    args.next().as_deref().and_then(parse).unwrap_or_else(|| {
        eprintln!("{flag} requires {what}");
        usage_exit()
    })
}

/// Print `reports`, write the artifact (`(path, JSON text, what it is)`)
/// if the subcommand has one, and exit 1 with `failure` unless every
/// comparison of every report matched.
fn emit(json: bool, reports: &[Report], artifact: Option<(&Path, String, String)>, failure: &str) {
    for r in reports {
        println!("{}", if json { r.to_json() } else { r.render() });
    }
    if let Some((out, text, what)) = artifact {
        if let Err(e) = std::fs::write(out, text + "\n") {
            fail(format!("cannot write {}: {e}", out.display()));
        }
        eprintln!("wrote {} ({what})", out.display());
    }
    if !reports.iter().all(Report::all_matched) {
        fail(failure);
    }
}

/// Render the slowest-transaction timelines of one `attribution` entry —
/// where every microsecond of the worst commits went, one line per
/// lifecycle step, in the same format the simulator's protocol traces
/// print.
fn render_entry(e: &AttributionEntry) {
    println!(
        "## {} over {} — slowest {} of {} txns \
         (coverage {:.0}%, e2e p50 {:.2} ms)",
        e.protocol,
        e.transport,
        e.slowest.len(),
        e.txns,
        e.coverage_pct,
        e.e2e_p50_micros / 1e3,
    );
    for s in &e.slowest {
        let ms = s.e2e_micros / 1e3;
        println!("\ntxn {:#x}: {ms:.2} ms end-to-end", s.txn);
        let rows: Vec<ac_sim::TimelineRow> = s
            .steps
            .iter()
            .map(|step| {
                let at = format!("{:.2}ms", step.at_micros / 1e3);
                ac_sim::TimelineRow::new(at, &step.actor, &step.label)
            })
            .collect();
        print!("{}", ac_sim::render_timeline(&rows));
    }
    println!();
}

/// The `attribution` entries `repro trace` renders from the file at
/// `path`: the embedded ones of a baseline, or — for a raw cluster dump
/// (written by `ac-client --obs-out` / `repro proc`) — the one entry
/// `repro proc` would embed, recomputed from the per-process exports the
/// dump carries, after a per-node clock-alignment summary.
fn trace_entries(path: &str) -> Vec<AttributionEntry> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    if bytes.starts_with(&ac_obs::DUMP_MAGIC) {
        let dump = ac_obs::ClusterDump::from_bytes(&bytes)
            .unwrap_or_else(|e| fail(format!("{path}: not a valid cluster dump: {e:?}")));
        println!(
            "# {path}: cluster dump of {} over {} at n={}, f={}",
            dump.protocol, dump.host, dump.n, dump.f
        );
        for al in &dump.alignments {
            println!(
                "node {}: clock offset {:+.3} ms \u{b1} {:.0} \u{b5}s \
                 (min RTT {:.0} \u{b5}s over {} echoes)",
                al.node,
                al.offset_nanos as f64 / 1e6,
                al.uncertainty_nanos as f64 / 1e3,
                al.rtt_nanos as f64 / 1e3,
                al.samples,
            );
        }
        let cell = Cell::of_dump(&dump);
        return vec![AttributionEntry::new(&dump.protocol, &dump.host, &cell)];
    }
    read_baseline(path)
        .attribution
        .map_or_else(Vec::new, |a| a.entries)
}

/// Exit 1, naming every problem of the file at `path`.
fn refuse(path: &str, problems: Vec<String>) -> ! {
    let lines: Vec<String> = problems.iter().map(|p| format!("{path}: {p}")).collect();
    fail(lines.join("\n"))
}

/// The baseline in the file at `path`; a file that does not read back as
/// one is refused with every problem it has.
fn read_baseline(path: &str) -> BenchBaseline {
    BenchBaseline::from_json(&read_text(Path::new(path))).unwrap_or_else(|p| refuse(path, p))
}

fn main() {
    let mut json = false;
    let mut jobs = 1usize;
    let mut quick = false;
    let mut transport = ac_cluster::TransportKind::Channel;
    let mut out: Option<PathBuf> = None;
    let mut against: Option<PathBuf> = None;
    let mut before: Option<PathBuf> = None;
    let mut dump_dir = PathBuf::from(".");
    let mut metrics_port: Option<u16> = None;
    let mut targets: Vec<String> = Vec::new();
    let path = |v: &str| Some(PathBuf::from(v));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--quick" => quick = true,
            "--dump-dir" => dump_dir = flag_value(&mut args, &arg, "a path", path),
            "--out" => out = Some(flag_value(&mut args, &arg, "a path", path)),
            "--against" => against = Some(flag_value(&mut args, &arg, "a path", path)),
            "--before" => before = Some(flag_value(&mut args, &arg, "a path", path)),
            "--metrics" => {
                metrics_port = Some(flag_value(&mut args, &arg, "a port number", |v| {
                    v.parse().ok()
                }))
            }
            "--jobs" => {
                jobs = flag_value(&mut args, &arg, "a positive integer", |v| {
                    v.parse().ok().filter(|&n| n > 0)
                })
            }
            "--transport" => {
                transport = flag_value(
                    &mut args,
                    &arg,
                    "`channel` or `tcp`",
                    ac_cluster::TransportKind::parse,
                )
            }
            _ if arg.starts_with("--") => {
                eprintln!("unknown flag `{arg}`");
                usage_exit();
            }
            _ => targets.push(arg),
        }
    }
    // One target; only `bench-check` and `trace` take a second positional
    // (the file they read).
    let (id, file) = match targets.as_slice() {
        [] => ("all", None),
        [id] => (id.as_str(), None),
        [id, file] if matches!(id.as_str(), "bench-check" | "trace") => {
            (id.as_str(), Some(file.as_str()))
        }
        [_, surplus, ..] => {
            eprintln!("unexpected argument `{surplus}`");
            usage_exit();
        }
    };

    match id {
        // `perf --against <path>`: re-measure, diff, gate.
        "perf" => {
            let Some(against) = against else {
                eprintln!("perf requires --against <baseline path>");
                usage_exit();
            };
            let (report, comparison) =
                ac_harness::perf::perf_compare(quick, jobs, &read_text(&against))
                    .unwrap_or_else(|e| fail(e));
            let out = out.unwrap_or_else(|| PathBuf::from("PERF_comparison.json"));
            let what = format!(
                "{} checks, {} failed",
                comparison.checks.len(),
                comparison.failed
            );
            emit(
                json,
                &[report],
                Some((&out, comparison.to_json(), what)),
                &format!("counter-exact perf regression vs {}", against.display()),
            );
        }
        // `bench-check <path>`: validate a written baseline.
        "bench-check" => {
            let Some(file) = file else {
                eprintln!("bench-check requires the path of a baseline file");
                usage_exit();
            };
            let sections = read_baseline(file).validate();
            let sections = sections.unwrap_or_else(|p| refuse(file, p));
            println!(
                "{file}: valid bench baseline (all seven Table-5 protocols present, \
                 clean explorer; live sections: {sections:?})"
            );
        }
        // `trace [<path>]`: render embedded (or recomputed) timelines.
        "trace" => {
            let file = file.unwrap_or("BENCH_baseline.json");
            let entries = trace_entries(file);
            if entries.is_empty() {
                fail(format!(
                    "{file}: no attribution section (written by `repro load` / \
                     `chaos` / `saturate` / `proc`) — nothing to trace"
                ));
            }
            entries.iter().for_each(render_entry);
        }
        // Anything without a row in the subcommand table is a paper table
        // or figure.
        _ if experiments::baseline_sections(id).is_none() => {
            let Some(reports) = run_one(id, jobs) else {
                eprintln!("unknown experiment `{id}`");
                usage_exit();
            };
            let failure = "some paper-vs-measured comparisons did not match";
            emit(json, &reports, None, failure);
        }
        // The baseline writers: measure the subcommand's sections on the
        // host it names, pair them with `--before`, print, write.
        _ => {
            let procs;
            let host = if id == "proc" {
                procs = ProcHost::new(dump_dir, metrics_port).unwrap_or_else(|e| fail(e));
                Host::Proc(&procs)
            } else {
                Host::of(transport)
            };
            let (report, mut baseline) = experiments::baseline(id, quick, jobs, host)
                .unwrap_or_else(|e| fail(format!("{id} sweep failed: {e}")));
            if let Some(before) = before {
                let label = before.display().to_string();
                let parsed = read_baseline(&label);
                baseline.pair = Some(BeforeAfter::between(&label, &parsed, &baseline));
            }
            let out = out.unwrap_or_else(|| PathBuf::from("BENCH_baseline.json"));
            let what = format!("schema v{}", baseline.schema_version);
            emit(
                json,
                &[report],
                Some((&out, baseline.to_json(), what)),
                "some comparisons or safety audits did not pass",
            );
        }
    }
}
