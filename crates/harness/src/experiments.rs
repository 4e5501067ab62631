//! The experiments: one function per paper table/figure, plus the
//! cross-cutting entries that are not a single paper artifact:
//! [`exhaustive`] (the parallel small-model soundness sweep) and
//! [`baseline`] (the machine-readable performance seed point, composed
//! from one function per section of the document).

use std::time::{Duration, Instant};

use ac_cluster::{FaultSpec, ServiceConfig};
use ac_commit::explorer::{explore_jobs, ExplorerConfig};
use ac_commit::protocols::{InbacUnbundledAck, ProtocolKind};
use ac_commit::taxonomy::{Cell, PropSet};
use ac_commit::{check, Scenario};
use ac_net::{Crash, DelayRule, FaultPlan};
use ac_sim::{Time, TraceKind, U};
use ac_txn::Workload;

use crate::cell::{run_judged_cell, Cell as Record, Host};
use crate::report::{
    AttributionBaseline, BenchBaseline, ChaosBaseline, ChaosEntry, ExplorerBaseline,
    ProtocolBaseline, Report, SaturationBaseline, SaturationStep, ServiceBaseline, ServiceEntry,
    Table, SCHEMA_VERSION,
};

/// Symbolic message bound of a Table-1 cell (mirrors
/// `Cell::bounds`, in formula form).
fn msg_symbol(cell: Cell) -> &'static str {
    if cell.cf == PropSet::AVT && cell.nf.has_agreement() {
        "2n-2+f"
    } else if cell.nf.has_validity() {
        "2n-2"
    } else if cell.cf.has_validity() {
        "n-1+f"
    } else {
        "0"
    }
}

fn delay_symbol(cell: Cell) -> &'static str {
    if cell.cf == PropSet::AVT && cell.nf.has_agreement() {
        "2"
    } else {
        "1"
    }
}

/// Measured `(delays, messages)` of a nice execution.
fn measure(kind: ProtocolKind, n: usize, f: usize) -> (u64, u64) {
    let out = kind.run(&Scenario::nice(n, f));
    let m = out.metrics();
    let d = m.delays.unwrap_or_else(|| {
        panic!(
            "{}: nice execution did not complete (n={n}, f={f})",
            kind.name()
        )
    });
    (d, m.messages as u64)
}

/// The seven locally-maximal cells and their matching protocols, as listed
/// in Tables 2 and 3 (0NBAC and avNBAC appear on both axes).
fn matching_protocols() -> Vec<(ProtocolKind, &'static str)> {
    vec![
        (ProtocolKind::AvNbacDelayOpt, "delay"),
        (ProtocolKind::Nbac0, "both"),
        (ProtocolKind::Nbac1, "delay"),
        (ProtocolKind::Inbac, "delay"),
        (ProtocolKind::ANbac, "message"),
        (ProtocolKind::ChainNbac, "message"),
        (ProtocolKind::AvNbacMsgOpt, "message"),
        (ProtocolKind::Nbac2n2, "message"),
        (ProtocolKind::Nbac2n2f, "message"),
    ]
}

/// **Table 1** — the 27-cell complexity taxonomy, with each locally-maximal
/// cell's matching protocol measured against its bound.
pub fn table1(n: usize, f: usize) -> Report {
    let mut r = Report::new("table1");

    // The grid exactly as laid out in the paper: rows = NF, columns = CF.
    let mut grid = Table::new(
        "Table 1: tight d/m bounds per robustness cell (rows: NF guarantees, cols: CF guarantees)",
        &["NF\\CF", "∅", "A", "V", "T", "AV", "AT", "VT", "AVT"],
    );
    for nf in PropSet::all() {
        let mut row = vec![nf.to_string()];
        for cf in PropSet::all() {
            let cell = Cell::new(cf, nf);
            if cell.is_canonical() {
                row.push(format!("{}/{}", delay_symbol(cell), msg_symbol(cell)));
            } else {
                row.push(String::new());
            }
        }
        grid.row(row);
    }
    r.table(grid);

    // Instantiated bounds and trade-off classification.
    let mut inst = Table::new(
        format!(
            "Table 1 instantiated at n={n}, f={f} (+ Theorem 5's 2fn for delay-optimal protocols)"
        ),
        &["cell", "d", "m", "m@d-opt", "trade-off?"],
    );
    let mut tradeoffs = 0;
    for cell in Cell::all() {
        let b = cell.bounds(n, f);
        let t = cell.has_tradeoff(n, f);
        tradeoffs += t as usize;
        inst.row(vec![
            format!("{cell:?}"),
            b.delays.to_string(),
            b.messages.to_string(),
            b.messages_at_optimal_delay.to_string(),
            if t { "yes" } else { "no" }.into(),
        ]);
    }
    r.table(inst);
    r.note(format!(
        "{tradeoffs}/27 cells cannot achieve both optima at once (paper: 18)"
    ));
    let _ = r.compare(tradeoffs == 18);

    // Matching protocols vs their bounds.
    let mut verify = Table::new(
        format!("matching protocols, nice executions at n={n}, f={f}"),
        &[
            "protocol",
            "cell",
            "optimal in",
            "bound",
            "measured",
            "match",
        ],
    );
    for (kind, axis) in matching_protocols() {
        let cell = kind.cell();
        let b = cell.bounds(n, f);
        let (d, m) = measure(kind, n, f);
        // Delay-optimal protocols also meet the message optimum *given*
        // that delay (Theorem 5 for the 2-delay group).
        let (bound, ok) = match axis {
            "delay" => (
                format!("d={}, m@d={}", b.delays, b.messages_at_optimal_delay),
                d == b.delays && m == b.messages_at_optimal_delay,
            ),
            "message" => (format!("m={}", b.messages), m == b.messages),
            _ => (
                format!("d={}, m={}", b.delays, b.messages),
                d == b.delays && m == b.messages,
            ),
        };
        let verdict = r.compare(ok).to_string();
        verify.row(vec![
            kind.name().into(),
            format!("{cell:?}"),
            axis.into(),
            bound,
            format!("d={d}, m={m}"),
            verdict,
        ]);
    }
    r.table(verify);
    r
}

/// One coordinate of a nice execution's `(delays, messages)`: [`delays`]
/// or [`messages`].
type Coordinate = fn((u64, u64)) -> u64;

/// The delays of a nice execution's `(delays, messages)`.
fn delays((d, _): (u64, u64)) -> u64 {
    d
}

/// The messages of a nice execution's `(delays, messages)`.
fn messages((_, m): (u64, u64)) -> u64 {
    m
}

/// **Tables 2 and 3** — protocols optimal in one measure: each of
/// `protocols` at four `(n, f)` points, its cell's bound on the measure
/// `coordinate` picks (column letter `symbol`) against the measured nice
/// execution.
fn optimal_protocols(
    id: &str,
    title: &str,
    (symbol, coordinate): (&str, Coordinate),
    protocols: &[ProtocolKind],
) -> Report {
    let mut r = Report::new(id);
    let (bound, measured) = (format!("bound {symbol}"), format!("measured {symbol}"));
    let header = ["cell", "protocol", "n", "f", &bound, &measured, "match"];
    let mut t = Table::new(title, &header);
    for &kind in protocols {
        for (n, f) in [(3, 1), (5, 2), (7, 3), (8, 7)] {
            let b = kind.cell().bounds(n, f);
            let bound = coordinate((b.delays, b.messages));
            let measured = coordinate(measure(kind, n, f));
            let verdict = r.compare(measured == bound).to_string();
            t.row(vec![
                format!("{:?}", kind.cell()),
                kind.name().into(),
                n.to_string(),
                f.to_string(),
                bound.to_string(),
                measured.to_string(),
                verdict,
            ]);
        }
    }
    r.table(t);
    r
}

/// **Table 2** — delay-optimal protocols.
pub fn table2() -> Report {
    optimal_protocols(
        "table2",
        "Table 2: delay-optimal protocols (bound / measured delays in nice executions)",
        ("d", delays),
        &[
            ProtocolKind::AvNbacDelayOpt,
            ProtocolKind::Nbac0,
            ProtocolKind::Nbac1,
            ProtocolKind::Inbac,
        ],
    )
}

/// **Table 3** — message-optimal protocols.
pub fn table3() -> Report {
    optimal_protocols(
        "table3",
        "Table 3: message-optimal protocols (bound / measured messages in nice executions)",
        ("m", messages),
        &[
            ProtocolKind::Nbac0,
            ProtocolKind::ANbac,
            ProtocolKind::ChainNbac,
            ProtocolKind::AvNbacMsgOpt,
            ProtocolKind::Nbac2n2,
            ProtocolKind::Nbac2n2f,
        ],
    )
}

/// **Table 4** — complexity of indulgent atomic commit and synchronous NBAC
/// with `f` crashes.
///
/// One row per bound: problem, metric, the paper column (`{}` standing
/// for the bound), the bound at `(n, f)`, the protocol that meets it, the
/// resilience it runs at and the coordinate compared. The `2n − 2 + f`
/// messages bound is met by (2n−2+f)NBAC, while INBAC trades messages
/// (`2fn`) for optimal delay; Dwork–Skeen's classic `2n − 2` is the
/// chain's `f = n − 1` specialization.
pub fn table4(n: usize, f: usize) -> Report {
    use ProtocolKind as K;
    #[rustfmt::skip]
    let rows: [(&str, &str, &str, usize, K, usize, Coordinate); 6] = [
        ("indulgent AC", "#delays", "{}", 2, K::Inbac, f, delays),
        ("indulgent AC", "#messages", "2n-2+f = {} (f>=2)", 2 * n - 2 + f, K::Nbac2n2f, f, messages),
        ("indulgent AC", "#messages @ 2 delays", "2fn = {}", 2 * f * n, K::Inbac, f, messages),
        ("sync NBAC", "#delays", "{}", 1, K::Nbac1, f, delays),
        ("sync NBAC", "#messages", "n-1+f = {}", n - 1 + f, K::ChainNbac, f, messages),
        ("sync NBAC (f=n-1)", "#messages", "2n-2 = {} [Dwork-Skeen]", 2 * n - 2, K::ChainNbac,
         n - 1, messages),
    ];
    let mut r = Report::new("table4");
    let mut t = Table::new(
        format!("Table 4 at n={n}, f={f}: indulgent atomic commit vs synchronous NBAC"),
        &["problem", "metric", "paper", "measured (protocol)", "match"],
    );
    for (problem, metric, paper, bound, kind, resilience, coordinate) in rows {
        let measured = coordinate(measure(kind, n, resilience));
        let verdict = r.compare(measured == bound as u64).to_string();
        t.row(vec![
            problem.into(),
            metric.into(),
            paper.replace("{}", &bound.to_string()),
            format!("{measured} ({})", kind.name()),
            verdict,
        ]);
    }
    r.table(t);
    r
}

/// **Table 5** — the protocol comparison sweep.
pub fn table5(ns: &[usize], fs: &[usize]) -> Report {
    let mut r = Report::new("table5");
    let protos = ProtocolKind::table5();
    let mut t = Table::new(
        "Table 5: measured nice-execution complexity (d = delays, m = messages)",
        &[
            "n",
            "f",
            "protocol",
            "formula (d, m)",
            "measured (d, m)",
            "match",
        ],
    );
    for &n in ns {
        for &f in fs {
            if f >= n {
                continue;
            }
            for kind in protos {
                let (fd, fm) = kind.nice_complexity_formula(n as u64, f as u64);
                let (d, m) = measure(kind, n, f);
                let verdict = r.compare((d, m) == (fd, fm)).to_string();
                t.row(vec![
                    n.to_string(),
                    f.to_string(),
                    kind.name().into(),
                    format!("({fd}, {fm})"),
                    format!("({d}, {m})"),
                    verdict,
                ]);
            }
        }
    }
    r.table(t);
    r.note(
        "(n-1+f)NBAC delays: the paper's Table 5 reports 2f+n-1 under its \
         spontaneous-start normalization; end-to-end from propose the protocol \
         takes n+2f delays (chain n-1+f plus nooping f+1). 3PC (not in Table 5) \
         measures 4 delays / 4n-4 messages.",
    );
    // Crossover analysis the paper highlights in §1.3 / §6.2.
    if let (Some(&n), true) = (ns.iter().find(|&&n| n >= 3), fs.contains(&1)) {
        let (_, m_inbac) = measure(ProtocolKind::Inbac, n, 1);
        let (_, m_2pc) = measure(ProtocolKind::TwoPc, n, 1);
        let ok = m_inbac == 2 * n as u64 && m_2pc == 2 * n as u64 - 2;
        let _ = r.compare(ok);
        r.note(format!(
            "f=1, n={n}: INBAC uses {m_inbac} (=2n) messages vs 2PC's {m_2pc} (=2n-2) \
             while also being non-blocking — the paper's \"almost as efficient as 2PC\"."
        ));
    }
    for &n in ns {
        for &f in fs.iter().filter(|&&f| f >= 2 && f < n && n >= 3) {
            let (d_pc, m_pc) = measure(ProtocolKind::PaxosCommit, n, f);
            let (d_in, m_in) = measure(ProtocolKind::Inbac, n, f);
            let ok = m_pc < m_in && d_in < d_pc;
            let _ = r.compare(ok);
            r.note(format!(
                "f={f}, n={n}: PaxosCommit wins messages ({m_pc} < {m_in}) while INBAC \
                 wins delays ({d_in} < {d_pc}) — the time/message trade-off of §6.2."
            ));
        }
    }
    r
}

/// **Figure 1** — drive INBAC through each branch of its state transition
/// at time 2U and report the branch taken (observed via protocol traces).
pub fn fig1() -> Report {
    let mut r = Report::new("fig1");
    let mut t = Table::new(
        "Figure 1: INBAC state transition at 2U — branch per scenario",
        &["scenario", "watched", "branch observed", "decision", "NBAC"],
    );

    struct Case {
        name: &'static str,
        scenario: Scenario,
        watched: usize,
        expect: &'static str,
    }
    let n = 4;
    let cases = vec![
        Case {
            name: "nice execution",
            scenario: Scenario::nice(n, 2).traced(),
            watched: 3,
            expect: "decide AND",
        },
        Case {
            name: "failure-free abort (P2 votes 0)",
            scenario: Scenario::nice(n, 2).vote_no(1).traced(),
            watched: 3,
            expect: "decide AND",
        },
        Case {
            name: "one ack delayed -> cons-propose AND",
            // f=2: P4 misses P1's ack but has P2's complete one.
            scenario: Scenario::nice(n, 2).traced().rule(DelayRule::link(
                0,
                3,
                Time::units(1),
                Time::units(2),
                6 * U,
            )),
            watched: 3,
            expect: "cons-propose 1",
        },
        Case {
            name: "vote missing in acks -> cons-propose 0",
            // Delay P4's vote to both primaries: their acks are incomplete,
            // so P3 sees acks but not all votes.
            scenario: Scenario::nice(n, 2)
                .traced()
                .rule(DelayRule::link(3, 0, Time::ZERO, Time::units(1), 6 * U))
                .rule(DelayRule::link(3, 1, Time::ZERO, Time::units(1), 6 * U)),
            watched: 2,
            expect: "cons-propose 0",
        },
        Case {
            name: "no ack at all -> HELP",
            // f=1: the only primary's ack to P4 is delayed.
            scenario: Scenario::nice(n, 1).traced().rule(DelayRule::link(
                0,
                3,
                Time::units(1),
                Time::units(2),
                6 * U,
            )),
            watched: 3,
            expect: "HELP",
        },
    ];

    for case in cases {
        let out = case.scenario.run::<ac_commit::protocols::Inbac>();
        let notes: Vec<&str> = out
            .trace
            .iter()
            .filter_map(|e| match &e.kind {
                TraceKind::Note { at, text } if *at == case.watched => Some(text.as_str()),
                _ => None,
            })
            .collect();
        // The first exit whose trace note the watched process wrote.
        let exits = ["decide", "HELP", "cons-propose 1", "cons-propose 0"];
        let found = exits
            .into_iter()
            .find(|x| notes.iter().any(|s| s.contains(x)));
        let branch = match found {
            Some("decide") => "decide AND",
            found => found.unwrap_or("?"),
        };
        let decision = out
            .decision_of(case.watched)
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".into());
        let nbac_ok = check(&out, &case.scenario.votes, ProtocolKind::Inbac.cell()).ok();
        let _ = r.compare(branch == case.expect && nbac_ok);
        t.row(vec![
            case.name.into(),
            format!("P{}", case.watched + 1),
            branch.into(),
            decision,
            if nbac_ok { "ok" } else { "VIOLATED" }.into(),
        ]);
    }
    r.table(t);
    r.note("branches correspond to Figure 1's four exits after 2U: decide AND(n votes); cons-propose AND; cons-propose 0; ask for more acks (HELP).");
    r
}

/// **Ablations** — design choices the paper calls out.
pub fn ablations() -> Report {
    let mut r = Report::new("ablations");

    // A. §5.2 vote-0 fast path.
    let mut a = Table::new(
        "ablation A: vote-0 fast path (failure-free execution, one 0-vote, n=5 f=2)",
        &["variant", "last decision", "0-voter decision"],
    );
    for kind in [ProtocolKind::Inbac, ProtocolKind::InbacFastAbort] {
        let sc = Scenario::nice(5, 2).vote_no(3);
        let out = kind.run(&sc);
        let last = out.metrics().delays.unwrap();
        let zero_at = out.decisions[3].unwrap().0;
        a.row(vec![
            kind.name().into(),
            format!("{last} delays"),
            format!("{zero_at}"),
        ]);
    }
    r.table(a);
    let _ = r.compare(true);

    // B. Lemma 6's bundled acknowledgements.
    let mut b = Table::new(
        "ablation B: bundled vs per-vote acknowledgements (nice executions)",
        &["n", "f", "INBAC (2fn)", "unbundled", "blow-up"],
    );
    for (n, f) in [(4usize, 1usize), (5, 2), (8, 3)] {
        let (_, bundled) = measure(ProtocolKind::Inbac, n, f);
        let out = Scenario::nice(n, f).run::<InbacUnbundledAck>();
        let unbundled = out.metrics().messages as u64;
        b.row(vec![
            n.to_string(),
            f.to_string(),
            bundled.to_string(),
            unbundled.to_string(),
            format!("{:.1}x", unbundled as f64 / bundled as f64),
        ]);
        let _ = r.compare(unbundled > bundled);
    }
    r.table(b);

    // C. Consensus engagement: INBAC only pays for consensus when the
    // network misbehaves.
    let mut c = Table::new(
        "ablation C: consensus engagement under pre-GST chaos (n=5, f=2, 30 seeds)",
        &["protocol", "runs engaging consensus", "NBAC violations"],
    );
    for kind in [ProtocolKind::Inbac, ProtocolKind::FasterPaxosCommit] {
        let mut engaged = 0;
        let mut violations = 0;
        let seeds = 30u64;
        for seed in 0..seeds {
            let sc = Scenario::nice(5, 2)
                .chaos(ac_commit::runner::Chaos {
                    gst_units: 6,
                    max_units: 4,
                    seed,
                })
                .horizon(1200);
            let out = kind.run(&sc);
            let (_, nice_m) = kind.nice_complexity_formula(5, 2);
            if out.metrics().messages_total as u64 > nice_m {
                engaged += 1;
            }
            if !check(&out, &sc.votes, kind.cell()).ok() {
                violations += 1;
            }
        }
        let _ = r.compare(violations == 0);
        c.row(vec![
            kind.name().into(),
            format!("{engaged}/{seeds}"),
            violations.to_string(),
        ]);
    }
    r.table(c);
    r.note(
        "INBAC's 2U deadline is tight, so any pre-GST delay pushes it into its \
         consensus fallback (extra messages, NBAC still intact). Faster \
         PaxosCommit absorbs the same chaos without extra traffic until its \
         ~8U recovery timeout because its fast path already is a consensus \
         ballot — the message premium (2fn+2n-2f-2 vs 2fn) is paid upfront in \
         every execution instead.",
    );
    r
}

/// **Exhaustive** — the parallel small-model soundness sweep. Not a paper
/// table: for every protocol in the suite, enumerate all vote vectors ×
/// single-crash schedules on the protocol's own time grid (at `n = 3,
/// f = 1`) and check the guarantees of its Table-1 cell, fanning the runs
/// out over `jobs` worker threads.
pub fn exhaustive(jobs: usize) -> Report {
    let mut r = Report::new("exhaustive");
    let mut t = Table::new(
        format!("Exhaustive sweep at n=3, f=1 over {jobs} worker thread(s)"),
        &["protocol", "executions", "counterexamples", "wall ms", "ok"],
    );
    for kind in ProtocolKind::all() {
        let (d, _) = kind.nice_complexity_formula(3, 1);
        let cfg = ExplorerConfig {
            n: 3,
            f: 1,
            crash_times: (0..=d + 2).collect(),
            partial_sends: vec![1, 2],
            max_crashes: 1,
            horizon_units: 500,
        };
        let t0 = Instant::now();
        let report = explore_jobs(kind, &cfg, jobs);
        let wall = t0.elapsed();
        let verdict = r.compare(report.ok()).to_string();
        t.row(vec![
            kind.name().into(),
            report.executions.to_string(),
            report.counterexamples.len().to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            verdict,
        ]);
    }
    r.table(t);
    r.note(
        "each protocol's crash grid extends 2U past its own nice-execution \
         schedule; 'ok' means every execution of the space satisfied the \
         protocol's declared Table-1 cell.",
    );
    r
}

/// Mean wall-clock of one nice execution of `kind`, in microseconds.
fn nice_run_micros(kind: ProtocolKind, n: usize, f: usize) -> f64 {
    let sc = Scenario::nice(n, f);
    for _ in 0..3 {
        let _ = kind.run(&sc); // warmup
    }
    const ITERS: u32 = 20;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(kind.run(std::hint::black_box(&sc)));
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(ITERS)
}

/// The `(n, f)` the per-protocol baseline is measured at (Table 5's
/// mid-size column).
pub const BASELINE_GRID: (usize, usize) = (6, 2);

/// The exploration space timed by the baseline: INBAC at `n = 5, f = 2`
/// with up to two crash victims on a 0..4U grid — ~34k executions, large
/// enough that worker threads amortize pool overhead (the single-crash
/// spaces of the tier-1 tests finish in milliseconds and would only time
/// thread spawning).
pub fn baseline_explorer_config() -> ExplorerConfig {
    ExplorerConfig {
        n: 5,
        f: 2,
        crash_times: (0..=4).collect(),
        partial_sends: vec![1],
        max_crashes: 2,
        horizon_units: 500,
    }
}

/// The sections each baseline-measuring `repro` subcommand measures on
/// top of the always-present simulator numbers, in measurement order
/// (`None`: not such a subcommand). `perf` writes no baseline but
/// re-measures what it diffs ([`crate::perf::perf_compare`]).
pub fn baseline_sections(subcommand: &str) -> Option<&'static [&'static str]> {
    Some(match subcommand {
        "bench" => &[],
        "perf" => &["service"],
        "load" => &["service", "attribution"],
        "chaos" => &["service", "attribution", "chaos"],
        "saturate" => &["service", "attribution", "chaos", "saturation"],
        "proc" => &["service", "attribution", "saturation"],
        _ => return None,
    })
}

/// **Baseline** — measure the sections `subcommand` emits
/// ([`baseline_sections`]), producing both a human-readable [`Report`] and
/// the machine-readable [`BenchBaseline`] written to
/// `BENCH_baseline.json`, unmeasured sections `null`.
///
/// `quick` shrinks the live sweeps for CI smoke jobs; `jobs` feeds the
/// explorer leg (the service spawns its own `n + c` threads per run
/// regardless); `host` is who serves the sweep: what `--transport`
/// selects, or the `proc` host for `repro proc`. Every section runs its
/// cells on hosts through [`run_judged_cell`], and a row that fails is
/// kept beside its run. The saturation sweep runs on `host`; the
/// attribution sweep always covers both in-process hosts and
/// adds `host` if it is neither; the closed-loop and chaos sweeps run on
/// `host` if it is in-process, over channels otherwise (the `proc` host
/// injects no fault). `Err` if `subcommand` has no row in the table or a
/// `proc` cluster failed.
pub fn baseline(
    subcommand: &str,
    quick: bool,
    jobs: usize,
    host: Host,
) -> Result<(Report, BenchBaseline), String> {
    let sections = baseline_sections(subcommand)
        .ok_or_else(|| format!("`{subcommand}` measures no baseline"))?;
    let mut r = Report::new(subcommand);
    let (protocols, explorer) = simulator_section(&mut r, jobs);
    let mut b = BenchBaseline {
        schema_version: SCHEMA_VERSION,
        jobs,
        protocols,
        explorer,
        service: None,
        chaos: None,
        attribution: None,
        saturation: None,
        pair: None,
    };
    let mut attribution_hosts = vec![Host::Channel, Host::Tcp];
    let in_process = match host {
        Host::Proc(_) => {
            attribution_hosts.push(host);
            Host::Channel
        }
        in_process => in_process,
    };
    for section in sections {
        match *section {
            "service" => b.service = Some(service_section(&mut r, quick, in_process)?),
            "attribution" => {
                b.attribution = Some(attribution_section(&mut r, quick, &attribution_hosts)?)
            }
            "chaos" => b.chaos = Some(chaos_section(&mut r, quick, in_process)?),
            "saturation" => b.saturation = Some(saturation_section(&mut r, quick, host)?),
            other => unreachable!("no section function for `{other}`"),
        }
    }
    if let Host::Proc(procs) = host {
        procs.scrape_check(&mut r);
    }
    Ok((r, b))
}

/// **Simulator section** — the per-protocol nice-execution numbers and
/// the explorer's sequential-vs-parallel wall-clock (`protocols` and
/// `explorer`, present in every baseline).
pub fn simulator_section(r: &mut Report, jobs: usize) -> (Vec<ProtocolBaseline>, ExplorerBaseline) {
    let (n, f) = BASELINE_GRID;

    let mut pt = Table::new(
        format!("Per-protocol nice-execution baseline at n={n}, f={f}"),
        &["protocol", "d", "m", "formula (d, m)", "match", "µs/run"],
    );
    let mut protocols = Vec::new();
    for kind in ProtocolKind::table5() {
        let (fd, fm) = kind.nice_complexity_formula(n as u64, f as u64);
        let (d, m) = measure(kind, n, f);
        let micros = nice_run_micros(kind, n, f);
        let matches = (d, m) == (fd, fm);
        let verdict = r.compare(matches).to_string();
        pt.row(vec![
            kind.name().into(),
            d.to_string(),
            m.to_string(),
            format!("({fd}, {fm})"),
            verdict,
            format!("{micros:.1}"),
        ]);
        protocols.push(ProtocolBaseline {
            protocol: kind.name().into(),
            n,
            f,
            delays: d,
            messages: m,
            formula_delays: fd,
            formula_messages: fm,
            matches_formula: matches,
            nice_run_micros: micros,
        });
    }
    r.table(pt);

    let cfg = baseline_explorer_config();
    // One untimed warmup so the sequential leg is not measured cold while
    // the parallel leg runs warm — that would bias `speedup` upward.
    let _ = explore_jobs(ProtocolKind::Inbac, &cfg, 1);
    let t0 = Instant::now();
    let seq = explore_jobs(ProtocolKind::Inbac, &cfg, 1);
    let sequential_millis = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let par = explore_jobs(ProtocolKind::Inbac, &cfg, jobs);
    let parallel_millis = t0.elapsed().as_secs_f64() * 1e3;
    let _ = r.compare(seq == par); // parallel must be byte-identical
    let _ = r.compare(seq.ok());
    let speedup = sequential_millis / parallel_millis.max(1e-9);

    let mut et = Table::new(
        format!(
            "Explorer wall-clock: INBAC n={} f={}, {} executions",
            cfg.n, cfg.f, seq.executions
        ),
        &["engine", "wall ms", "counterexamples"],
    );
    et.row(vec![
        "sequential".into(),
        format!("{sequential_millis:.1}"),
        seq.counterexamples.len().to_string(),
    ]);
    et.row(vec![
        format!("parallel (jobs={jobs})"),
        format!("{parallel_millis:.1}"),
        par.counterexamples.len().to_string(),
    ]);
    r.table(et);
    r.note(format!(
        "speedup {speedup:.2}x with {jobs} worker thread(s); parallel report \
         is byte-identical to sequential."
    ));

    let explorer = ExplorerBaseline {
        protocol: ProtocolKind::Inbac.name().into(),
        n: cfg.n,
        f: cfg.f,
        executions: seq.executions,
        counterexamples: seq.counterexamples.len(),
        sequential_millis,
        parallel_millis,
        jobs,
        speedup,
    };
    (protocols, explorer)
}

/// The `(n, f)` grid and delay-unit length of the live-service sweep.
pub const SERVICE_GRID: (usize, usize) = (4, 1);
/// Wall-clock length of one virtual delay unit in the live-service sweep.
pub const SERVICE_UNIT: std::time::Duration = std::time::Duration::from_millis(5);

/// **Service section** — the live `ac-cluster` transaction service
/// measured under closed-loop load on `host`: protocol × workload ×
/// concurrency sweep with wall-clock throughput and sojourn percentiles
/// (p50/p90/p99/p99.9). The safety gate is a clean audit, zero orphaned
/// envelopes included — over any transport, a healthy run never overflows
/// an instance's pre-open buffer — and no stalled client.
pub fn service_section(r: &mut Report, quick: bool, host: Host) -> Result<ServiceBaseline, String> {
    use crate::report::service_protocols;

    let (n, f) = SERVICE_GRID;
    let workloads: [(&str, Workload); 2] = [
        ("uniform", Workload::Uniform { span: 2 }),
        (
            "skewed",
            Workload::Skewed {
                span: 2,
                theta: 0.9,
            },
        ),
    ];
    let client_levels: &[usize] = if quick { &[2, 8] } else { &[2, 8, 16] };
    let txns_per_client = if quick { 15 } else { 40 };

    let mut t = Table::new(
        format!(
            "Live service sweep at n={n}, f={f}, unit={}ms ({} txns/client, closed loop, {} transport)",
            SERVICE_UNIT.as_millis(),
            txns_per_client,
            host.name()
        ),
        &SERVICE_COLUMNS,
    );
    let mut entries = Vec::new();
    for kind in service_protocols() {
        for (wname, workload) in &workloads {
            for &clients in client_levels {
                let cfg = ServiceConfig::new(n, f, kind)
                    .clients(clients)
                    .txns_per_client(txns_per_client)
                    .workload(workload.clone())
                    .unit(SERVICE_UNIT)
                    .keys_per_shard(32)
                    .seed(7)
                    .transport(host.transport());
                let faults = FaultSpec::none(n);
                let (_, e, row) = judged(r, &t.header, host, &cfg, &faults, |cell| {
                    service_row(kind, wname, clients, cell)
                })?;
                t.row(row);
                entries.push(e);
            }
        }
    }
    r.table(t);
    r.note(
        "latency is wall-clock submit -> the client knows the outcome (the \
         first decision where the protocol's Table-1 cell has agreement in \
         both failure models, the last elsewhere). Every protocol \
         of this sweep acts on message arrival: 2PC's coordinator closes \
         its vote round on the last vote (or first No) and INBAC decides \
         on its last acknowledgement, their 1U/2U timers only bounding \
         the wait for a message that never comes - so the columns compare \
         hops, fan-out and message counts (the paper's time/message \
         trade-off), not the configured U; a p50 near k*U now means a \
         round timed out. 'safe' requires a clean \
         post-run audit: agreed decisions, no commit without n yes-votes, \
         no lock left held, no stalled client. 'fold ns/txn' is the \
         wall-clock of the post-run fold (audit, per-transaction stamps, \
         attribution) per served transaction: a cost the run pays after \
         its load phase.",
    );

    Ok(ServiceBaseline {
        n,
        f,
        transport: host.name().into(),
        unit_micros: SERVICE_UNIT.as_micros() as u64,
        entries,
    })
}

/// The columns of the service table.
pub(crate) const SERVICE_COLUMNS: [&str; 13] = [
    "protocol",
    "workload",
    "clients",
    "txns",
    "commit%",
    "tput t/s",
    "p50 ms",
    "p90 ms",
    "p99 ms",
    "p99.9 ms",
    "max ms",
    "fold ns/txn",
    "safe",
];

/// A post-run fold cost per transaction as a table cell: `-` on a host
/// that runs no fold.
fn fold_cell(ns_per_txn: Option<f64>) -> String {
    ns_per_txn.map_or("-".into(), |ns| format!("{ns:.0}"))
}

/// A closed-loop cell's entry, its row of the service table (verdict
/// aside) and whether the row passes: the entry's rules.
pub(crate) fn service_row(
    kind: ProtocolKind,
    workload: &str,
    clients: usize,
    cell: &Record,
) -> (ServiceEntry, Vec<String>, bool) {
    let e = ServiceEntry::new(kind.name(), workload, clients, cell);
    let ms = |us: f64| format!("{:.2}", us / 1e3);
    let row = vec![
        e.protocol.clone(),
        e.workload.clone(),
        clients.to_string(),
        e.txns.to_string(),
        commit_pct(e.committed, e.txns),
        format!("{:.0}", e.throughput_tps),
        ms(e.p50_micros),
        ms(e.p90_micros),
        ms(e.p99_micros),
        ms(e.p999_micros),
        ms(e.max_micros),
        fold_cell(e.fold_ns_per_txn),
    ];
    let ok = e.problems().is_empty();
    (e, row, ok)
}

/// Serve one cell of a section through [`run_judged_cell`]: `judge` reads
/// its record into the section's entry and row (verdict aside) and says
/// whether the row passes. The verdict is recorded in `r` and closes the
/// row, and a row that fails is kept beside its run, under the table's
/// `header`. Returns the record, the entry and the row.
pub(crate) fn judged<E>(
    r: &mut Report,
    header: &[String],
    host: Host,
    cfg: &ServiceConfig,
    faults: &FaultSpec,
    judge: impl FnOnce(&Record) -> (E, Vec<String>, bool),
) -> Result<(Record, E, Vec<String>), String> {
    let mut judged = None;
    let cell = run_judged_cell(host, cfg, faults, |cell| {
        let (entry, mut row, ok) = judge(cell);
        row.push(r.compare(ok).into());
        let failed = (!ok).then(|| [header, &row].map(|r| r.join(" | ")).join("\n"));
        judged = Some((entry, row));
        failed
    })?;
    let (entry, row) = judged.expect("every run is judged");
    Ok((cell, entry, row))
}

/// `committed` of `txns` as a whole percentage, the way the service and
/// chaos tables print it.
fn commit_pct(committed: usize, txns: usize) -> String {
    format!("{:.0}%", 100.0 * committed as f64 / txns.max(1) as f64)
}

/// Transactions each of an attribution cell's two clients submits,
/// in-process and multi-process alike. A message-driven protocol commits
/// in well under 100 µs and its stages are near-ties, so which one
/// dominates is only stable — and `e2e_p999` only defined — over a
/// thousand transactions; the chain protocol spends 20 ms per transaction,
/// 99.8 % of it in `protocol`, and keeps the small sample.
pub fn attribution_txns_per_client(kind: ProtocolKind, quick: bool) -> usize {
    match kind {
        ProtocolKind::ChainNbac if quick => 8,
        ProtocolKind::ChainNbac => 15,
        _ => 500,
    }
}

/// **Attribution section** — every Table-5 protocol on each of `hosts`
/// (both in-process ones at least, regardless of the other sweeps'
/// `--transport`), each run through the flight recorder's telescoping
/// per-stage decomposition, slowest timelines embedded. Fixed light load
/// per cell, the same shape, seed and load on every host — the point is
/// where the microseconds go, not how many transactions fit — so a
/// `"proc"` row is comparable run-for-run with its in-process tcp row —
/// sockets on both sides — and is gated on agreeing with it
/// ([`crate::report::dominant_agrees`]).
pub fn attribution_section(
    r: &mut Report,
    quick: bool,
    hosts: &[Host],
) -> Result<AttributionBaseline, String> {
    use crate::report::{dominant_agrees, dominant_stage, AttributionEntry};

    let (n, f) = SERVICE_GRID;
    let mut at = Table::new(
        format!(
            "Latency attribution at n={n}, f={f}, unit={}ms (share of end-to-end time per stage)",
            SERVICE_UNIT.as_millis()
        ),
        &[
            "protocol",
            "host",
            "cover%",
            "channel%",
            "lock%",
            "wal%",
            "protocol%",
            "transport%",
            "Σ%",
            "e2e p50 ms",
            "fold ns/txn",
            "clock ±µs",
            "dominant",
            "ok",
        ],
    );
    let mut entries: Vec<AttributionEntry> = Vec::new();
    for kind in ProtocolKind::table5() {
        for &host in hosts {
            let cfg = ServiceConfig::new(n, f, kind)
                .clients(2)
                .txns_per_client(attribution_txns_per_client(kind, quick))
                .workload(Workload::Uniform { span: 2 })
                .unit(SERVICE_UNIT)
                .keys_per_shard(32)
                .seed(11)
                .transport(host.transport());
            // The acceptance gate: a clean run whose reconstructed stage
            // shares telescope to the measured end-to-end latency — and,
            // across the process boundary, blame the stage the in-process
            // tcp run of this protocol blames: sockets on both sides.
            let faults = FaultSpec::none(n);
            let (_, entry, row) = judged(r, &at.header, host, &cfg, &faults, |cell| {
                let a = &cell.attribution;
                let entry = AttributionEntry::new(kind.name(), host.name(), cell);
                let same = |e: &&AttributionEntry| e.protocol == entry.protocol;
                let tcp = entries.iter().filter(same).find(|e| e.transport == "tcp");
                let agrees = !matches!(host, Host::Proc(_))
                    || tcp.is_some_and(|tcp| dominant_agrees(&entry.stages, &tcp.stages));
                let clean = cell.audit_findings == 0 && cell.stats.stalled == 0;
                let ok = clean && agrees && entry.problems().is_empty();
                let mut row = vec![
                    kind.name().into(),
                    host.name().into(),
                    format!("{:.0}%", a.coverage_pct()),
                ];
                row.extend((0..5).map(|i| format!("{:.1}", a.share_pct(i))));
                row.push(format!("{:.1}", a.share_sum_pct()));
                row.push(format!("{:.2}", a.e2e.p50() as f64 / 1e6));
                row.push(fold_cell(entry.fold_ns_per_txn));
                let clock = cell.alignment_max_uncertainty_micros;
                row.push(clock.map_or("-".into(), |us| format!("{us:.0}")));
                row.push(dominant_stage(&entry.stages));
                (entry, row, ok)
            })?;
            at.row(row);
            entries.push(entry);
        }
    }
    r.table(at);
    r.note(
        "attribution anchors each transaction at the latest participant \
         to decide by the time its client knew the outcome and telescopes submit -> dispatch -> locks-held -> \
         WAL-forced -> decided(node) -> decided(client); the five stage \
         shares sum to 100% of measured end-to-end latency by \
         construction. `protocol%` is the commit protocol's own critical-\
         path residency: vote/decision hand-offs for the protocols that \
         act on message arrival (all of Table 5 but the chain since \
         ISSUE-14), the unit grid itself for (n-1+f)NBAC, whose rounds are \
         clocked by design. `repro trace` renders the embedded \
         slowest-transaction timelines.",
    );
    if hosts.iter().any(|h| matches!(h, Host::Proc(_))) {
        r.note(
            "each proc row is a real 4-process cluster: every node's flight \
             recorder lives behind its own monotonic clock, exports travel as \
             ObsDump control frames, and the collector re-stamps them through \
             the per-node min-RTT clock alignment before merging. `clock ±µs` \
             is the worst per-node alignment uncertainty; stage telescoping \
             survives the merge exactly because alignment shifts whole \
             exports, never individual events. `ok` additionally requires the \
             in-process tcp run of the same seed/config (sockets on both \
             sides) to agree on the dominant stage — outright, or with the \
             `channel` stage set aside (client dispatch crosses a process \
             boundary only in the proc run; the runs must still agree on \
             where the time goes once the transaction reaches the \
             cluster).",
        );
    }
    Ok(AttributionBaseline {
        n,
        f,
        unit_micros: SERVICE_UNIT.as_micros() as u64,
        entries,
    })
}

/// The `(n, f)` grid of the chaos sweep (same cluster shape as the live
/// sweep, but span-3 transactions so 1 in 4 draws avoids any given node —
/// the source of availability while that node is down).
pub const CHAOS_GRID: (usize, usize) = (4, 1);

/// Build the chaos service configuration: paced span-3 load with bounded,
/// retrying reply waits (`quick` shrinks the stream for CI smoke jobs).
fn chaos_service(kind: ProtocolKind, quick: bool) -> ServiceConfig {
    let (n, f) = CHAOS_GRID;
    ServiceConfig::new(n, f, kind)
        .clients(if quick { 3 } else { 4 })
        .txns_per_client(if quick { 14 } else { 24 })
        .workload(Workload::Uniform { span: 3 })
        .unit(SERVICE_UNIT)
        .keys_per_shard(64)
        .seed(23)
        .pacing(Duration::from_millis(if quick { 8 } else { 7 }))
        .reply_timeout(Duration::from_millis(60))
        .park_retries(1)
        .txn_deadline(Duration::from_secs(8))
}

/// The fault window of every chaos scenario, in virtual units: faults
/// switch on at 10 U and heal at 50 U (50 ms → 250 ms at the 5 ms unit).
pub const CHAOS_WINDOW_UNITS: (u64, u64) = (10, 50);

/// Build the fault plan of one named scenario (see
/// [`crate::report::chaos_scenario_names`]).
fn chaos_plan(scenario: &str, n: usize) -> FaultPlan {
    let (from, until) = CHAOS_WINDOW_UNITS;
    let window = (Time::units(from), Time::units(until));
    let crash = Crash::at(window.0).restart(window.1);
    match scenario {
        // Node n−1 is the highest shard, hence 2PC's coordinator for every
        // transaction touching it; for the symmetric protocols it is just
        // another participant.
        "crash-coordinator" => FaultPlan::none(n).with_crash(n - 1, crash),
        "crash-participant" => FaultPlan::none(n).with_crash(1, crash),
        "partition-heal" => {
            FaultPlan::none(n).partition(&(0..n / 2).collect::<Vec<_>>(), window, true)
        }
        "lossy-10" => FaultPlan::none(n).lossy(window, 100, 5),
        other => panic!("unknown chaos scenario {other}"),
    }
}

/// **Chaos section** — the availability-under-failure sweep on `host`:
/// {2PC, Paxos-Commit, INBAC, D1CC} × {crash-coordinator,
/// crash-participant, partition-heal, lossy-10}, each cell the plan's
/// fault specification ([`ac_chaos::ChaosConfig::spec`]) served through
/// [`run_judged_cell`], its timelines bucketed against the fault window
/// ([`ac_chaos::ChaosConfig::fault_stats`]), its row gated by
/// [`ChaosEntry::problems`]; a row that fails is kept beside its run.
///
/// The wall-clock face of the paper's trade-off, asserted as comparisons:
/// the f-tolerant protocols (Paxos-Commit, INBAC, logless D1CC) keep
/// **committing** through a single crash (availability > 0 inside the
/// fault window), while 2PC reports blocked transactions under a crashed
/// coordinator that only resolve after the restart.
///
/// Either in-process host serves (`repro chaos --transport tcp`): the
/// fault plan decides envelope fates *before* the transport sees them,
/// so the same crash/partition/lossy plans run unchanged over sockets.
/// The `proc` host injects no fault: its cells are `Err`.
pub fn chaos_section(r: &mut Report, quick: bool, host: Host) -> Result<ChaosBaseline, String> {
    use crate::report::{chaos_scenario_names, service_protocols};
    use ac_chaos::ChaosConfig;

    let (n, f) = CHAOS_GRID;
    let mut t = Table::new(
        format!(
            "Chaos sweep at n={n}, f={f}, unit={}ms: fault window [{}U, {}U)",
            SERVICE_UNIT.as_millis(),
            CHAOS_WINDOW_UNITS.0,
            CHAOS_WINDOW_UNITS.1
        ),
        &[
            "protocol",
            "scenario",
            "txns",
            "commit%",
            "avail%",
            "commit@fault",
            "ops@fault",
            "ops@heal",
            "blocked",
            "recovery ms",
            "ok",
        ],
    );
    let mut entries = Vec::new();
    for kind in service_protocols() {
        for scenario in chaos_scenario_names() {
            let chaos = ChaosConfig {
                service: chaos_service(kind, quick).transport(host.transport()),
                plan: chaos_plan(scenario, n),
            };
            let faults = chaos.spec();
            let (_, e, row) = judged(r, &t.header, host, &chaos.service, &faults, |cell| {
                let run = Duration::from_nanos(cell.stats.elapsed_nanos);
                let stats = chaos.fault_stats(&cell.txn_events, run);
                let e = ChaosEntry::new(kind, scenario, cell, &stats);
                let row = vec![
                    e.protocol.clone(),
                    e.scenario.clone(),
                    e.txns.to_string(),
                    commit_pct(e.committed, e.txns),
                    format!("{:.0}%", e.availability_pct),
                    e.committed_during_fault.to_string(),
                    format!("{:.0}", e.ops_during_fault),
                    format!("{:.0}", e.ops_after_heal),
                    e.blocked.to_string(),
                    format!("{:.1}", e.recovery_ms),
                ];
                let ok = e.problems().is_empty();
                (e, row, ok)
            })?;
            t.row(row);
            entries.push(e);
        }
    }
    r.table(t);
    r.note(
        "avail% = share of txns submitted inside the fault window whose \
         outcome the client learned before the heal (from the first Done \
         where the protocol's Table-1 cell has agreement in both failure \
         models, from the last elsewhere); commit@fault = txns committed \
         inside the window (span-3 txns avoiding the crashed node — the \
         f-tolerant availability the paper's §6.2 promises); blocked = \
         txns whose outcome the client learned only after its bounded \
         reply waits would park them (2PC under a crashed coordinator), \
         all of which must resolve after \
         restart + WAL recovery — recovery ms is the worst heal-to-decision \
         gap. Safety audits (agreement, no lost locks, sequential replay) \
         run on every faulted execution; the agreement audit follows the \
         protocol's Table-1 cell, so a cell without network-failure \
         agreement (D1CC) tolerates split deciders under partition-heal \
         and lossy-10 — the documented price of logless one-delay commit.",
    );

    Ok(ChaosBaseline {
        n,
        f,
        transport: host.name().into(),
        unit_micros: SERVICE_UNIT.as_micros() as u64,
        fault_from_units: CHAOS_WINDOW_UNITS.0,
        fault_until_units: CHAOS_WINDOW_UNITS.1,
        entries,
    })
}

/// Per-client in-flight window of the saturation sweep: beyond it an
/// open-loop arrival is shed, not queued — the overload valve that keeps
/// sojourn times finite past the knee.
pub const SATURATION_MAX_OUTSTANDING: usize = 32;

/// Per-client Poisson arrival rate of the saturation sweep's ×1 step,
/// transactions/second. Chosen so the ×1 step idles well below capacity
/// (λ × p50 ≪ 1 in-flight per client) and the ×16 step is far past it.
pub const SATURATION_BASE_RATE: f64 = 25.0;

/// The columns of the saturation table.
pub(crate) const SATURATION_COLUMNS: [&str; 14] = [
    "protocol",
    "n",
    "clients",
    "x",
    "offered t/s",
    "goodput t/s",
    "commit%",
    "shed",
    "p50 ms",
    "p99 ms",
    "p99.9 ms",
    "forces/txn",
    "wire/txn",
    "ok",
];

/// Step `step` of a saturation curve, offered `mult` ×
/// [`SATURATION_BASE_RATE`] per client: its entry, its row of the
/// saturation table (verdict aside) and whether the row passes: the
/// step's rules and a reconstructed timeline.
pub(crate) fn saturation_row(
    kind: ProtocolKind,
    n: usize,
    clients: usize,
    step: usize,
    mult: usize,
    cell: &Record,
) -> (SaturationStep, Vec<String>, bool) {
    let rate = SATURATION_BASE_RATE * mult as f64;
    let s = SaturationStep::new(step, rate, clients, cell);
    let ms = |us: f64| format!("{:.2}", us / 1e3);
    let served = (s.committed + s.aborted).max(1);
    let row = vec![
        kind.name().into(),
        n.to_string(),
        clients.to_string(),
        format!("x{mult}"),
        format!("{:.0}", s.offered_tps),
        format!("{:.0}", s.goodput_tps),
        format!("{:.0}%", 100.0 * s.committed as f64 / served as f64),
        s.shed.to_string(),
        ms(s.p50_sojourn_micros),
        ms(s.p99_sojourn_micros),
        ms(s.p999_sojourn_micros),
        format!("{:.2}", s.forces_per_txn),
        format!("{:.1}", s.wire_per_txn),
    ];
    let ok = cell.attribution.covered > 0 && s.problems().is_empty();
    (s, row, ok)
}

/// **Saturation section** — the open-loop offered-vs-goodput sweep:
/// Poisson arrivals stepped ×1 → ×16 over each (protocol, n, clients)
/// cell, durability on where the host has a log, goodput measured over
/// the trimmed steady-state window, per-curve knee detection and the
/// per-stage attribution of the knee step. Forces per transaction is a
/// reported column: a node forces what a turn's drain found, and at these
/// offered rates a drain finds about one transaction's records.
///
/// The full sweep runs every Table-5 protocol at (n=4, c=16) plus 2PC scale cells at
/// (n=8, c=32) and (n=16, c=128); `--quick` shrinks it to one 2PC curve
/// (the CI smoke runs that over tcp), and so does the `proc` host, where
/// every node of every step is a process to spawn.
pub fn saturation_section(
    r: &mut Report,
    quick: bool,
    host: Host,
) -> Result<SaturationBaseline, String> {
    use crate::report::{dominant_stage, SaturationCurve};

    // (protocol, n, clients) cells; every cell sweeps the same rate
    // multipliers so curves are comparable.
    let cells: Vec<(ProtocolKind, usize, usize)> = if quick || matches!(host, Host::Proc(_)) {
        vec![(ProtocolKind::TwoPc, 4, 8)]
    } else {
        let mut c: Vec<_> = ProtocolKind::table5()
            .into_iter()
            .map(|k| (k, 4, 16))
            .collect();
        c.push((ProtocolKind::TwoPc, 8, 32));
        c.push((ProtocolKind::TwoPc, 16, 128));
        c
    };
    // The shape of a curve: the multipliers of `SATURATION_BASE_RATE` it
    // steps through, and how long each step offers load.
    let (mults, duration): (&[usize], _) = if quick {
        (&[1, 4, 16], std::time::Duration::from_millis(400))
    } else {
        (&[1, 2, 4, 8, 16], std::time::Duration::from_millis(1000))
    };

    let mut t = Table::new(
        format!(
            "Open-loop saturation sweep, f=1, unit={}ms, window={} \
             (Poisson arrivals, {}, {} host)",
            SERVICE_UNIT.as_millis(),
            SATURATION_MAX_OUTSTANDING,
            if host.durable() { "durable" } else { "no log" },
            host.name()
        ),
        &SATURATION_COLUMNS,
    );
    let mut kt = Table::new(
        "Detected knees (first step with <10% goodput gain while p99 doubles)",
        &[
            "protocol",
            "n",
            "clients",
            "knee x",
            "detected",
            "offered t/s",
            "goodput t/s",
            "p99 ms",
            "dominant stage",
        ],
    );
    let mut curves = Vec::new();
    for (kind, n, clients) in cells {
        // The WAL on wherever the host has a log.
        let faults = FaultSpec {
            durable: host.durable(),
            ..FaultSpec::none(n)
        };
        let mut run = Vec::new();
        for (step, &mult) in mults.iter().enumerate() {
            // Poisson arrivals at `rate`/client for roughly `duration`,
            // shedding at a full window.
            let rate = SATURATION_BASE_RATE * mult as f64;
            let txns = ((rate * duration.as_secs_f64()).ceil() as usize).max(4);
            let cfg = ServiceConfig::new(n, 1, kind)
                .clients(clients)
                .txns_per_client(txns)
                .workload(Workload::Uniform { span: 2 })
                .unit(SERVICE_UNIT)
                .keys_per_shard(64)
                .seed(31)
                .arrival_rate(rate)
                .max_outstanding(SATURATION_MAX_OUTSTANDING)
                .transport(host.transport());
            let (cell, entry, row) = judged(r, &t.header, host, &cfg, &faults, |cell| {
                saturation_row(kind, n, clients, step, mult, cell)
            })?;
            t.row(row);
            run.push((entry, cell));
        }
        let curve = SaturationCurve::new(kind.name(), host.name(), n, clients, run);
        let knee = &curve.knee;
        // The knee row gates the curve: its steps, and a knee whose stage
        // shares telescope.
        let verdict = r.compare(curve.problems().is_empty());
        kt.row(vec![
            kind.name().into(),
            n.to_string(),
            clients.to_string(),
            format!("x{}", mults[knee.step]),
            if knee.detected {
                "yes"
            } else {
                "no (last step)"
            }
            .into(),
            format!("{:.0}", knee.offered_tps),
            format!("{:.0}", knee.goodput_tps),
            format!("{:.2}", knee.p99_sojourn_micros / 1e3),
            format!("{} [{verdict}]", dominant_stage(&knee.stage_shares)),
        ]);
        curves.push(curve);
    }
    r.table(t);
    r.table(kt);
    r.note(
        "open loop: each client dispatches txns on a Poisson schedule \
         regardless of completions (closed loops cannot saturate — their \
         offered load collapses to clients/latency). Sojourn = scheduled \
         arrival -> all decisions, so queueing counts. goodput = committed \
         txns/s over the trimmed steady-state window (first/last 10% \
         excluded); shed arrivals (in-flight window full) are offered load \
         the system refused. forces/txn is WAL force operations per served \
         txn: one force covers what a loop turn's drain staged; a host \
         without a log reports 0 forces. Every figure is read off the same \
         run record by the same code, whoever served the run.",
    );

    Ok(SaturationBaseline {
        f: 1,
        unit_micros: SERVICE_UNIT.as_micros() as u64,
        curves,
    })
}

/// All experiments with default parameters; explorer-backed entries run
/// over `jobs` worker threads.
pub fn all(jobs: usize) -> Vec<Report> {
    vec![
        table1(6, 2),
        table2(),
        table3(),
        table4(6, 2),
        table5(&[4, 6, 8, 10], &[1, 2, 3]),
        fig1(),
        ablations(),
        exhaustive(jobs),
    ]
}

/// The live-service sweep tests each spawn `n + clients` real threads and
/// measure wall-clock behavior (availability windows, knee shapes);
/// running them concurrently starves each other's timers on small boxes.
/// Every such test takes this lock so the test harness's default
/// parallelism never overlaps two sweeps.
#[cfg(test)]
pub(crate) fn live_sweep_lock() -> std::sync::MutexGuard<'static, ()> {
    static LIVE_SWEEP: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LIVE_SWEEP.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let r = table1(6, 2);
        assert!(r.all_matched(), "{}", r.render());
    }

    #[test]
    fn table2_matches_paper() {
        let r = table2();
        assert!(r.all_matched(), "{}", r.render());
    }

    #[test]
    fn table3_matches_paper() {
        let r = table3();
        assert!(r.all_matched(), "{}", r.render());
    }

    #[test]
    fn table4_matches_paper() {
        let r = table4(6, 2);
        assert!(r.all_matched(), "{}", r.render());
    }

    #[test]
    fn table5_matches_formulas() {
        let r = table5(&[4, 6], &[1, 2]);
        assert!(r.all_matched(), "{}", r.render());
    }

    #[test]
    fn fig1_branches_all_reachable() {
        let r = fig1();
        assert!(r.all_matched(), "{}", r.render());
    }

    #[test]
    fn ablations_hold() {
        let r = ablations();
        assert!(r.all_matched(), "{}", r.render());
    }

    #[test]
    fn exhaustive_sweep_is_clean_in_parallel() {
        let r = exhaustive(2);
        assert!(r.all_matched(), "{}", r.render());
    }

    /// What `repro bench` writes: the simulator numbers, every live
    /// section `null`, and the simulator's two timings: each Table-5
    /// protocol's nice run, and the explorer at the `--jobs` it was given
    /// against one worker.
    #[test]
    fn bench_baseline_validates_and_covers_table5() {
        let (r, baseline) = baseline("bench", false, 2, Host::Channel).unwrap();
        assert!(r.all_matched(), "{}", r.render());
        assert_eq!(
            BenchBaseline::validate_json(&baseline.to_json()),
            Ok(vec![])
        );
        assert_eq!(baseline.explorer.jobs, 2);
        let timed: Vec<&str> = baseline
            .protocols
            .iter()
            .filter(|p| p.nice_run_micros > 0.0)
            .map(|p| p.protocol.as_str())
            .collect();
        assert_eq!(timed, crate::report::table5_protocol_names());
    }

    #[test]
    fn each_subcommand_measures_the_sections_it_always_has() {
        let all = ["service", "attribution", "chaos", "saturation"];
        for (subcommand, sections) in [
            ("bench", &all[..0]),
            ("perf", &all[..1]),
            ("load", &all[..2]),
            ("chaos", &all[..3]),
            ("saturate", &all[..]),
            ("proc", &["service", "attribution", "saturation"]),
        ] {
            assert_eq!(baseline_sections(subcommand), Some(sections));
        }
        assert_eq!(baseline_sections("table1"), None);
        assert!(baseline("table1", true, 1, Host::Channel).is_err());
    }

    /// The composition `repro saturate --quick` runs: every section
    /// measured once, appended to one report, emitted as one document the
    /// validator accepts with all four live sections found.
    #[test]
    fn saturate_quick_composes_every_section_into_one_valid_document() {
        let _serial = live_sweep_lock();
        let (r, baseline) = baseline("saturate", true, 2, Host::Channel).unwrap();
        assert_eq!(r.id, "saturate");
        assert_eq!(r.tables.len(), 7, "2 simulator + 1 + 1 + 1 + 2 saturation");
        assert_eq!(
            BenchBaseline::validate_json(&baseline.to_json()),
            Ok(BenchBaseline::SECTIONS.to_vec()),
            "{}",
            r.render()
        );
    }

    #[test]
    fn chaos_section_quick_shows_the_blocking_contrast() {
        let _serial = live_sweep_lock();
        let mut r = Report::new("chaos");
        let chaos = chaos_section(&mut r, true, Host::Channel).unwrap();
        assert!(r.all_matched(), "{}", r.render());
        assert_eq!(chaos.entries.len(), 16, "4 protocols x 4 scenarios");
        // The acceptance contrast, re-checked on the emitted numbers:
        // Paxos-Commit and logless D1CC commit through a participant
        // crash, 2PC blocks under a crashed coordinator.
        let find = |p: &str, s: &str| {
            chaos
                .entries
                .iter()
                .find(|e| e.protocol == p && e.scenario == s)
                .unwrap()
        };
        assert!(find("PaxosCommit", "crash-participant").committed_during_fault > 0);
        assert!(find("D1CC", "crash-participant").committed_during_fault > 0);
        assert!(find("2PC", "crash-coordinator").blocked > 0);
        assert!(chaos.entries.iter().all(|e| e.safety_violations == 0));
        assert!(chaos.entries.iter().all(|e| e.stalled == 0));
    }

    #[test]
    fn saturation_section_quick_is_durable_audited_and_reports_forces_per_txn() {
        let _serial = live_sweep_lock();
        let mut r = Report::new("saturate");
        let sat = saturation_section(&mut r, true, Host::Channel).unwrap();
        assert!(r.all_matched(), "{}", r.render());
        assert_eq!(sat.curves.len(), 1, "quick sweeps one 2PC curve");
        let c = &sat.curves[0];
        assert_eq!(c.protocol, "2PC");
        assert_eq!(c.steps.len(), 3);
        assert!(c.knee.step < c.steps.len());
        assert!(
            (c.knee.share_sum_pct - 100.0).abs() <= 5.0,
            "knee shares must telescope, got {}",
            c.knee.share_sum_pct
        );
        assert!(r.render().contains("forces/txn"), "a reported column");
        for s in &c.steps {
            assert!(s.wal_forces > 0, "durable runs force the WAL: {s:?}");
            assert_eq!(s.safety_violations, 0);
            assert!(s.goodput_tps <= s.offered_tps * 1.10, "{s:?}");
        }
    }

    #[test]
    fn service_section_quick_is_safe_and_carries_the_tail_percentile() {
        let _serial = live_sweep_lock();
        let mut r = Report::new("load");
        let service = service_section(&mut r, true, Host::Channel).unwrap();
        assert!(r.all_matched(), "{}", r.render());
        // The p99.9 satellite: every fresh service entry carries the tail
        // percentile, ordered sanely against p99 and max.
        for e in &service.entries {
            assert!(
                e.p99_micros <= e.p999_micros && e.p999_micros <= e.max_micros,
                "{e:?}"
            );
        }
    }

    #[test]
    fn attribution_section_quick_covers_table5_on_both_transports() {
        let _serial = live_sweep_lock();
        let mut r = Report::new("load");
        let attr = attribution_section(&mut r, true, &[Host::Channel, Host::Tcp]).unwrap();
        assert!(r.all_matched(), "{}", r.render());
        // The attribution tentpole: all seven Table-5 protocols on both
        // transports, each with positive coverage and telescoping shares.
        assert_eq!(attr.entries.len(), 14, "7 protocols x 2 transports");
        for e in &attr.entries {
            assert!(
                e.coverage_pct > 0.0,
                "{}/{} uncovered",
                e.protocol,
                e.transport
            );
            assert!(
                (e.share_sum_pct - 100.0).abs() <= 5.0,
                "{}/{} shares sum to {}",
                e.protocol,
                e.transport,
                e.share_sum_pct
            );
            assert!(!e.slowest.is_empty(), "slowest timelines embedded");
        }
    }
}
