//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--json] [--jobs N] [--out PATH] [--quick] [--transport channel|tcp] [--before PATH] \
//!       [table1|table2|table3|table4|table5|fig1|ablations|exhaustive|bench|load|chaos|saturate|all]
//! repro proc [--quick] [--json] [--jobs N] [--out PATH] [--dump-dir DIR] [--metrics PORT]
//! repro bench-check <path>
//! repro trace [<path>]
//! repro perf --against <path> [--quick] [--json] [--jobs N] [--out PATH]
//! ```
//!
//! With no argument, runs everything. `--json` emits machine-readable
//! reports instead of aligned text. `--jobs N` sets the worker-thread count
//! of the explorer-backed targets (`exhaustive`, `bench`, `load`, `chaos`,
//! `all`); the default is 1 (sequential). `bench` additionally writes the
//! machine-readable schema-v1 baseline to `--out` (default
//! `BENCH_baseline.json`); `load` runs the live `ac-cluster` service sweep
//! (protocol × workload × concurrency, `--quick` shrinks it for smoke
//! jobs) and writes the schema-v2 baseline including the `service`
//! section; `--transport tcp` routes the `load`/`chaos` sweeps through
//! the real-socket transport (length-prefixed wire codec over loopback
//! TCP) instead of in-process channels, and the baseline records which
//! transport measured it; `chaos` additionally runs the availability-under-failure sweep
//! ({2PC, Paxos-Commit, INBAC, D1CC} × {crash-coordinator, crash-participant,
//! partition-heal, lossy-10} through `ac-chaos`, with safety audits on
//! every faulted run) and writes the schema-v3 baseline including the
//! `chaos` section; `saturate` additionally runs the open-loop saturation
//! sweep (Poisson arrivals stepped ×1 → ×16 with durability + group
//! commit on, goodput over the trimmed steady-state window, per-curve
//! knee detection with the knee's per-stage attribution) and writes the
//! schema-v5 baseline including the `saturation` section — `--quick`
//! shrinks it to one 2PC curve for CI's saturate-smoke job (which runs it
//! over tcp); since schema v4 the `load`/`chaos` baselines also
//! carry the per-stage latency **attribution** section (every Table-5
//! protocol on both transports, stage shares telescoping to end-to-end
//! latency) with the slowest-transaction timelines embedded;
//! `proc` runs the **multi-process** sweep: real `ac-node`/`ac-client`
//! processes over loopback TCP, every node's observability export
//! collected through the cross-process tracing path (clock alignment via
//! echo round trips, `ObsPull`/`ObsDump` control frames, one binary
//! cluster dump per run under `--dump-dir`, default `.`), attribution
//! emitted as extra `"proc"` entries on the schema-v5 baseline plus an
//! open-loop 2PC saturation curve; `--metrics PORT` additionally serves
//! and scrapes node 0's Prometheus endpoint mid-run (a gated check);
//! `trace [<path>]` renders those embedded straggler timelines (default
//! path `BENCH_baseline.json`) through the same renderer the simulator's
//! traces use — when `<path>` is a binary cluster dump written by
//! `ac-client --obs-out` / `repro proc`, the attribution is recomputed
//! from the per-process exports on the spot and rendered the same way;
//! `bench-check <path>` validates a previously written
//! baseline of any schema version — CI's bench-smoke, load-smoke,
//! chaos-smoke and trace-smoke jobs run these. `perf --against <path>` re-measures the
//! live sweep and diffs it against a committed baseline: counter-exact
//! regressions (message counts, commit rates, safety/stall counters,
//! explorer soundness, a dirty committed chaos section) fail the run,
//! wall-clock drift only warns; the machine-readable comparison is written
//! to `--out` (default `PERF_comparison.json`) — CI's perf-smoke job runs
//! this. `--before PATH` (on `bench`/`load`/`chaos`/`saturate`) embeds a
//! **before/after pair** in the written baseline: `PATH` is the same
//! sweep measured at the parent commit on the same box, and every
//! latency, throughput and stage-share metric both files carry is paired
//! in the `pair` section — how a claimed speed-up lands in the committed
//! baseline with the stage that moved.

use std::path::PathBuf;

use ac_harness::experiments;
use ac_harness::report::BenchBaseline;
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

/// Render a binary cluster dump: the per-node clock-alignment summary,
/// then the slowest-transaction timelines of the attribution recomputed
/// from the dump's per-process exports.
fn trace_dump(path: &str, dump: &ac_obs::ClusterDump) {
    let a = dump.attribution(5);
    println!(
        "## {} over proc — {}: slowest {} of {} txns \
         (n={}, f={}, coverage {:.0}%, e2e p50 {:.2} ms)",
        dump.protocol,
        path,
        a.slowest.len(),
        a.total,
        dump.n,
        dump.f,
        a.coverage_pct(),
        a.e2e.p50() as f64 / 1e6,
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
    for tl in &a.slowest {
        println!(
            "\ntxn {:#x}: {:.2} ms end-to-end (anchor node {})",
            tl.txn,
            tl.e2e_nanos() as f64 / 1e6,
            tl.anchor,
        );
        let rows: Vec<ac_sim::TimelineRow> = tl
            .steps()
            .into_iter()
            .map(|(at_nanos, actor, label)| {
                ac_sim::TimelineRow::new(format!("{:.2}ms", at_nanos as f64 / 1e6), actor, label)
            })
            .collect();
        print!("{}", ac_sim::render_timeline(&rows));
    }
    println!();
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: repro [--json] [--jobs N] [--out PATH] [--quick] [--transport channel|tcp] \
         [--before PATH] [table1|table2|table3|table4|table5|fig1|ablations|exhaustive|bench|load|chaos|saturate|all]\n\
         \x20      repro proc [--quick] [--json] [--jobs N] [--out PATH] [--dump-dir DIR] [--metrics PORT]\n\
         \x20      repro bench-check <path>\n\
         \x20      repro trace [<path>]\n\
         \x20      repro perf --against <path> [--quick] [--json] [--jobs N] [--out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mut jobs = 1usize;
    let mut quick = false;
    let mut transport = ac_cluster::TransportKind::Channel;
    let mut out: Option<PathBuf> = None;
    let mut against: Option<PathBuf> = None;
    let mut before: Option<PathBuf> = None;
    let mut dump_dir = PathBuf::from(".");
    let mut metrics_port: Option<u16> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {}
            "--quick" => quick = true,
            "--dump-dir" => {
                let Some(p) = it.next() else {
                    eprintln!("--dump-dir requires a path");
                    usage_exit();
                };
                dump_dir = PathBuf::from(p);
            }
            "--metrics" => {
                let Some(p) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--metrics requires a port number");
                    usage_exit();
                };
                metrics_port = Some(p);
            }
            "--jobs" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) else {
                    eprintln!("--jobs requires a positive integer");
                    usage_exit();
                };
                jobs = n;
            }
            "--out" => {
                let Some(p) = it.next() else {
                    eprintln!("--out requires a path");
                    usage_exit();
                };
                out = Some(PathBuf::from(p));
            }
            "--transport" => {
                let Some(t) = it
                    .next()
                    .as_deref()
                    .and_then(ac_cluster::TransportKind::parse)
                else {
                    eprintln!("--transport requires `channel` or `tcp`");
                    usage_exit();
                };
                transport = t;
            }
            "--against" => {
                let Some(p) = it.next() else {
                    eprintln!("--against requires a path");
                    usage_exit();
                };
                against = Some(PathBuf::from(p));
            }
            "--before" => {
                let Some(p) = it.next() else {
                    eprintln!("--before requires a path");
                    usage_exit();
                };
                before = Some(PathBuf::from(p));
            }
            _ if arg.starts_with("--") => {
                eprintln!("unknown flag `{arg}`");
                usage_exit();
            }
            _ => targets.push(arg),
        }
    }
    let id = targets.first().map(|s| s.as_str()).unwrap_or("all");

    // `perf --against <path>`: re-measure, diff, gate.
    if id == "perf" {
        let Some(against) = against else {
            eprintln!("perf requires --against <baseline path>");
            usage_exit();
        };
        let text = match std::fs::read_to_string(&against) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", against.display());
                std::process::exit(1);
            }
        };
        let (report, comparison, _) = match ac_harness::perf::perf_compare(quick, jobs, &text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        };
        if json {
            println!("{}", report.to_json());
        } else {
            println!("{}", report.render());
        }
        let out = out.unwrap_or_else(|| PathBuf::from("PERF_comparison.json"));
        if let Err(e) = comparison.write(&out) {
            eprintln!("cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} ({} checks, {} failed)",
            out.display(),
            comparison.checks.len(),
            comparison.failed
        );
        if !comparison.passed() {
            eprintln!("counter-exact perf regression vs {}", against.display());
            std::process::exit(1);
        }
        return;
    }
    let out = out.unwrap_or_else(|| PathBuf::from("BENCH_baseline.json"));

    // `proc`: the multi-process sweep — spawn real node/client processes,
    // collect their exports, emit the schema-v5 baseline with "proc"
    // attribution entries and the open-loop proc saturation curve.
    if id == "proc" {
        let opts = ac_harness::procrun::ProcOptions {
            quick,
            dump_dir,
            metrics_port,
        };
        let (report, baseline) = match ac_harness::procrun::proc_baseline(quick, jobs, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("proc sweep failed: {e}");
                std::process::exit(1);
            }
        };
        if json {
            println!("{}", report.to_json());
        } else {
            println!("{}", report.render());
        }
        if let Err(e) = baseline.write(&out) {
            eprintln!("cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} (schema v{})",
            out.display(),
            baseline.schema_version
        );
        if !report.all_matched() {
            eprintln!("some comparisons or safety audits did not pass");
            std::process::exit(1);
        }
        return;
    }

    // `bench-check <path>`: validate a written baseline and exit.
    if id == "bench-check" {
        let Some(path) = targets.get(1) else {
            eprintln!("bench-check requires the path of a baseline file");
            usage_exit();
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match BenchBaseline::validate_json(&text) {
            Ok(()) => {
                println!(
                    "{path}: valid bench baseline (all seven Table-5 protocols present; \
                     schema v1-v5 with clean service/chaos/attribution/saturation sections)"
                );
                return;
            }
            Err(problems) => {
                for p in problems {
                    eprintln!("{path}: {p}");
                }
                std::process::exit(1);
            }
        }
    }

    // `trace [<path>]`: render the slowest-transaction timelines embedded
    // in a schema-v4 baseline's attribution section — where every
    // microsecond of the worst commits went, one line per lifecycle step,
    // in the same format the simulator's protocol traces print.
    if id == "trace" {
        let default_path = "BENCH_baseline.json".to_string();
        let path = targets.get(1).unwrap_or(&default_path);
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        // A raw cluster dump (written by `ac-client --obs-out` / `repro
        // proc`) renders directly: recompute the clock-aligned
        // attribution from the per-process exports it carries.
        if bytes.starts_with(&ac_obs::DUMP_MAGIC) {
            let dump = match ac_obs::ClusterDump::from_bytes(&bytes) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{path}: not a valid cluster dump: {e:?}");
                    std::process::exit(1);
                }
            };
            trace_dump(path, &dump);
            return;
        }
        let text = match String::from_utf8(bytes) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: neither a cluster dump nor UTF-8 JSON: {e}");
                std::process::exit(1);
            }
        };
        let v: serde_json::Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{path}: not valid JSON: {e:?}");
                std::process::exit(1);
            }
        };
        let empty = Vec::new();
        let entries = v["attribution"]["entries"].as_array().unwrap_or(&empty);
        if entries.is_empty() {
            eprintln!(
                "{path}: no attribution section (schema v4, written by \
                 `repro load` / `repro chaos`) — nothing to trace"
            );
            std::process::exit(1);
        }
        for e in entries {
            let protocol = e["protocol"].as_str().unwrap_or("?");
            let transport = e["transport"].as_str().unwrap_or("?");
            let slowest = e["slowest"].as_array().unwrap_or(&empty);
            println!(
                "## {protocol} over {transport} — slowest {} of {} txns \
                 (coverage {:.0}%, e2e p50 {:.2} ms)",
                slowest.len(),
                e["txns"].as_u64().unwrap_or(0),
                e["coverage_pct"].as_f64().unwrap_or(0.0),
                e["e2e_p50_micros"].as_f64().unwrap_or(0.0) / 1e3,
            );
            for s in slowest {
                println!(
                    "\ntxn {:#x}: {:.2} ms end-to-end",
                    s["txn"].as_u64().unwrap_or(0),
                    s["e2e_micros"].as_f64().unwrap_or(0.0) / 1e3,
                );
                let rows: Vec<ac_sim::TimelineRow> = s["steps"]
                    .as_array()
                    .unwrap_or(&empty)
                    .iter()
                    .map(|step| {
                        ac_sim::TimelineRow::new(
                            format!("{:.2}ms", step["at_micros"].as_f64().unwrap_or(0.0) / 1e3),
                            step["actor"].as_str().unwrap_or("?"),
                            step["label"].as_str().unwrap_or("?"),
                        )
                    })
                    .collect();
                print!("{}", ac_sim::render_timeline(&rows));
            }
            println!();
        }
        return;
    }

    // `bench`: measure, print, and write the machine-readable baseline.
    // `load`: additionally run the live service sweep (schema v2).
    // `chaos`: additionally run the availability-under-failure sweep
    // (schema v3).
    if id == "bench" || id == "load" || id == "chaos" || id == "saturate" {
        let (report, mut baseline) = match id {
            "bench" => experiments::bench_baseline(jobs),
            "load" => experiments::load_baseline(quick, jobs, transport),
            "chaos" => experiments::chaos_baseline(quick, jobs, transport),
            _ => experiments::saturate_baseline(quick, jobs, transport),
        };
        if let Some(path) = before {
            let parsed = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| serde_json::from_str(&t).map_err(|e| format!("{e:?}")));
            match parsed {
                Ok(v) => {
                    baseline.pair = Some(ac_harness::report::BeforeAfter::between(
                        &path.display().to_string(),
                        &v,
                        &baseline,
                    ));
                }
                Err(e) => {
                    eprintln!("cannot use --before {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if json {
            println!("{}", report.to_json());
        } else {
            println!("{}", report.render());
        }
        if let Err(e) = baseline.write(&out) {
            eprintln!("cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} (schema v{})",
            out.display(),
            baseline.schema_version
        );
        if !report.all_matched() {
            eprintln!("some comparisons or safety audits did not pass");
            std::process::exit(1);
        }
        return;
    }

    let Some(reports) = run_one(id, jobs) else {
        eprintln!(
            "unknown experiment `{id}`; expected one of \
             table1 table2 table3 table4 table5 fig1 ablations exhaustive bench load chaos \
             saturate trace perf all"
        );
        std::process::exit(2);
    };

    let mut failed = false;
    for r in &reports {
        if json {
            println!("{}", r.to_json());
        } else {
            println!("{}", r.render());
        }
        failed |= !r.all_matched();
    }
    if failed {
        eprintln!("some paper-vs-measured comparisons did not match");
        std::process::exit(1);
    }
}
