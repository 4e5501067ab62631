//! The multi-process sweep behind `repro proc`: spawn real `ac-node` /
//! `ac-client` processes over loopback TCP, collect every node's
//! observability export through the cross-process tracing path (echo
//! round trips for clock alignment, `ObsPull`/`ObsDump` control frames,
//! a binary [`ClusterDump`] per run), and fold the results into the
//! bench baseline as `"proc"`-transport attribution entries plus an
//! open-loop saturation curve.
//!
//! The point of this sweep is *fidelity*, not scale: the same protocols
//! the in-process attribution sweep measures, but with each node's
//! flight recorder living in its own process behind its own monotonic
//! clock — so the collected attribution only telescopes if the export
//! encoding, the clock-offset estimation and the cross-process merge all
//! hold up. The acceptance gate compares where the time went against the
//! in-process channel run of the same seed and configuration: both must
//! agree on the dominant stage.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ac_cluster::{ClusterSpec, LatencyHistogram};
use ac_commit::protocols::ProtocolKind;
use ac_obs::{max_uncertainty_nanos, ClusterDump, Stage};
use ac_txn::Workload;

use crate::experiments::{
    attribution_txns_per_client, saturation_steps, SATURATION_BASE_RATE,
    SATURATION_MAX_OUTSTANDING, SERVICE_GRID, SERVICE_UNIT,
};
use crate::report::{
    dominant_stage, telescopes, AttributionEntry, AttributionStageEntry, BenchBaseline,
    SaturationBaseline, SaturationCurve, SaturationStep,
};
use crate::{Report, Table};

/// Slowest-transaction timelines kept per attribution (mirrors the
/// in-process sweep's retention).
const SLOWEST_KEPT: usize = 5;

/// Hard deadline for one spawned cluster run (same figure the
/// `proc_smoke` integration test uses).
const RUN_DEADLINE: Duration = Duration::from_secs(120);

/// Locate a sibling binary of the running `repro` executable (cargo
/// puts every workspace binary in the same target directory).
fn bin_path(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate repro binary: {e}"))?;
    let dir = me
        .parent()
        .ok_or_else(|| "repro binary has no parent directory".to_string())?;
    let path = dir.join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found next to repro ({}); build the cluster binaries first \
             (`cargo build --release -p ac-cluster`)",
            name,
            path.display()
        ))
    }
}

/// Reserve `k` distinct loopback ports by binding ephemeral listeners,
/// then releasing them. The window between release and the node's own
/// bind is small and CI-safe (same approach as the proc smoke test).
fn free_ports(k: usize) -> Result<Vec<u16>, String> {
    let listeners: Vec<TcpListener> = (0..k)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind: {e}")))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.port())
                .map_err(|e| format!("cannot read port: {e}"))
        })
        .collect()
}

/// The cluster spec of one proc attribution cell: the *same* shape,
/// seed and load as the in-process attribution sweep, so the dominant
/// stage is comparable run-for-run.
fn attribution_spec(kind: ProtocolKind, quick: bool, ports: &[u16]) -> ClusterSpec {
    let (n, f) = SERVICE_GRID;
    assert_eq!(ports.len(), n);
    ClusterSpec {
        kind,
        f,
        unit: SERVICE_UNIT,
        keys_per_shard: 32,
        clients: 2,
        txns_per_client: attribution_txns_per_client(kind, quick),
        workload: Workload::Uniform { span: 2 },
        seed: 11,
        arrival_rate: None,
        max_outstanding: None,
        nodes: ports
            .iter()
            .map(|&p| SocketAddr::from(([127, 0, 0, 1], p)))
            .collect(),
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

struct RunArtifacts {
    dump: ClusterDump,
    /// The mid-run Prometheus scrape body, when one succeeded.
    scrape: Option<String>,
}

/// Spawn the spec'd cluster as real processes, wait for it to finish,
/// and read back the client's `--obs-out` dump. When `metrics_port` is
/// set, node 0 gets `--metrics` and a scraper thread polls the endpoint
/// while the run is live.
fn run_cluster(
    spec: &ClusterSpec,
    tag: &str,
    dump_dir: &Path,
    metrics_port: Option<u16>,
) -> Result<RunArtifacts, String> {
    let node_bin = bin_path("ac-node")?;
    let client_bin = bin_path("ac-client")?;
    std::fs::create_dir_all(dump_dir)
        .map_err(|e| format!("cannot create {}: {e}", dump_dir.display()))?;
    let spec_path = dump_dir.join(format!("proc-{tag}.spec"));
    let dump_path = dump_dir.join(format!("proc-{tag}.dump"));
    std::fs::write(&spec_path, spec.render())
        .map_err(|e| format!("cannot write {}: {e}", spec_path.display()))?;

    let mut nodes: Vec<Child> = Vec::new();
    let spawn_err = |what: &str, e: std::io::Error| format!("cannot spawn {what}: {e}");
    for id in 0..spec.n() {
        let mut cmd = Command::new(&node_bin);
        cmd.arg("--spec")
            .arg(&spec_path)
            .arg("--id")
            .arg(id.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if id == 0 {
            if let Some(port) = metrics_port {
                cmd.arg("--metrics").arg(port.to_string());
            }
        }
        nodes.push(cmd.spawn().map_err(|e| spawn_err("ac-node", e))?);
    }
    let client = Command::new(&client_bin)
        .arg("--spec")
        .arg(&spec_path)
        .arg("--obs-out")
        .arg(&dump_path)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| spawn_err("ac-client", e))?;

    // Scrape node 0's metrics endpoint while the run is in flight.
    let scraper = metrics_port.map(|port| {
        let addr = spec.metrics_addr(0, port);
        std::thread::spawn(move || scrape_prometheus(addr, Duration::from_secs(10)))
    });

    let mut procs: Vec<(&str, Child)> = vec![("ac-client", client)];
    for (i, n) in nodes.into_iter().enumerate() {
        procs.push(if i == 0 {
            ("ac-node 0", n)
        } else {
            ("ac-node", n)
        });
    }
    let deadline = Instant::now() + RUN_DEADLINE;
    let mut failures = Vec::new();
    for (what, mut child) in procs {
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    if !status.success() {
                        failures.push(format!("{what} exited with {status}"));
                    }
                    break;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    failures.push(format!("{what} missed the {RUN_DEADLINE:?} deadline"));
                    break;
                }
                Err(e) => {
                    failures.push(format!("cannot wait for {what}: {e}"));
                    break;
                }
            }
        }
    }
    let scrape = scraper.and_then(|h| h.join().ok()).flatten();
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    let bytes = std::fs::read(&dump_path)
        .map_err(|e| format!("cannot read {}: {e}", dump_path.display()))?;
    let dump = ClusterDump::from_bytes(&bytes)
        .map_err(|e| format!("{} is not a valid cluster dump: {e:?}", dump_path.display()))?;
    Ok(RunArtifacts { dump, scrape })
}

/// Poll a Prometheus endpoint until a non-empty exposition arrives or
/// the deadline passes. Plain HTTP/1.0 over a raw socket — the endpoint
/// answers any request with the full exposition.
fn scrape_prometheus(addr: SocketAddr, deadline: Duration) -> Option<String> {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if let Ok(mut s) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
            if s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").is_ok() {
                let mut text = String::new();
                if s.read_to_string(&mut text).is_ok() {
                    if let Some((_, body)) = text.split_once("\r\n\r\n") {
                        if body.contains("ac_") {
                            return Some(body.to_string());
                        }
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

/// Percentile scaffold over the dump's client-side transaction record.
fn sojourn_hist(dump: &ClusterDump) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for t in &dump.txns {
        h.record(t.decided_nanos.saturating_sub(t.submitted_nanos));
    }
    h
}

/// Meter-derived WAL force count: prepare forces plus decide journal
/// appends across every node export (the dump carries no WAL subsystem
/// counters of its own).
fn wal_forces_of(dump: &ClusterDump) -> usize {
    dump.exports
        .iter()
        .flat_map(|e| {
            [Stage::WalForce as usize, Stage::WalJournal as usize]
                .into_iter()
                .filter_map(|i| e.meters.get(i).map(|&(count, _)| count as usize))
        })
        .sum()
}

/// Node-to-node frames sent across every node export — the wire-message
/// figure of a real-socket run (client control traffic is counted by the
/// client's transport, not here).
fn wire_frames_of(dump: &ClusterDump) -> u64 {
    dump.exports.iter().map(|e| e.net.frames_out()).sum()
}

/// Goodput over the trimmed steady-state window of the dump's decided
/// transactions: first/last 10 % of the observed span excluded, like the
/// in-process saturation sweep.
fn trimmed_goodput_tps(dump: &ClusterDump) -> f64 {
    let first = dump.txns.iter().map(|t| t.submitted_nanos).min();
    let last = dump.txns.iter().map(|t| t.decided_nanos).max();
    let (Some(first), Some(last)) = (first, last) else {
        return 0.0;
    };
    let span = last.saturating_sub(first);
    if span == 0 {
        return 0.0;
    }
    let lo = first + span / 10;
    let hi = last - span / 10;
    let committed_in_window = dump
        .txns
        .iter()
        .filter(|t| t.committed && t.decided_nanos >= lo && t.decided_nanos <= hi)
        .count();
    committed_in_window as f64 / ((hi - lo) as f64 / 1e9)
}

/// **Proc baseline** — the multi-process sweep (`repro proc`): every
/// Table-5 protocol served by real `ac-node`/`ac-client` processes over
/// loopback TCP, attribution computed from the collected per-process
/// exports (clock-aligned), plus an open-loop 2PC saturation curve.
/// Emitted on top of the sections `repro load` measures
/// ([`crate::experiments::baseline_sections`]): the attribution section
/// gains `"proc"` entries riding along the required channel × tcp grid.
///
/// The spec and dump files of every run are written to `dump_dir`. When
/// `metrics_port` is set, node 0 of the spawned clusters serves Prometheus
/// text on that port and the harness scrapes it mid-run, until one scrape
/// has landed (the scrape is a gated check).
pub fn proc_baseline(
    quick: bool,
    jobs: usize,
    dump_dir: &Path,
    metrics_port: Option<u16>,
) -> Result<(Report, BenchBaseline), String> {
    // Fail fast with a buildable message before burning time on the
    // in-process sections.
    bin_path("ac-node")?;
    bin_path("ac-client")?;

    let channel = ac_cluster::TransportKind::Channel;
    let (mut r, mut baseline) = crate::experiments::baseline("proc", quick, jobs, channel)
        .expect("`proc` has a row in the subcommand table");
    let attribution = baseline
        .attribution
        .as_mut()
        .expect("`proc` measures `load`'s sections");
    let (n, f) = SERVICE_GRID;

    let mut at = Table::new(
        format!(
            "Multi-process latency attribution at n={n}, f={f}, unit={}ms \
             (per-process exports, clock-aligned; vs in-process channel run)",
            SERVICE_UNIT.as_millis()
        ),
        &[
            "protocol",
            "cover%",
            "channel%",
            "lock%",
            "wal%",
            "protocol%",
            "transport%",
            "Σ%",
            "e2e p50 ms",
            "clock ±µs",
            "dominant",
            "ok",
        ],
    );
    let mut scrape: Option<String> = None;
    let mut proc_entries = Vec::new();
    for kind in ProtocolKind::table5() {
        let ports = free_ports(n)?;
        let spec = attribution_spec(kind, quick, &ports);
        let tag = sanitize(kind.name());
        // Scrape once — keep trying on later clusters until one lands.
        let port = metrics_port.filter(|_| scrape.is_none());
        let art = run_cluster(&spec, &tag, dump_dir, port)?;
        scrape = scrape.or(art.scrape);
        let dump = art.dump;
        let a = dump.attribution(SLOWEST_KEPT);
        let align_us = max_uncertainty_nanos(&dump.alignments) as f64 / 1e3;
        let entry = AttributionEntry::new(kind.name(), "proc", &a, Some(align_us));
        let dominant = dominant_stage(&entry.stages);
        // The cross-run agreement gate: the in-process channel entry of
        // the same protocol/seed/config must blame the same stage. The
        // `channel` stage (client submit -> node dispatch) is the one
        // seam the transport swap itself replaces — over real sockets
        // it carries a fixed per-txn cost that in-process channels
        // don't, so for the timer-free sub-millisecond protocols it can
        // legitimately outgrow everything else in the proc run while
        // the decomposition stays exact. When the overall dominants
        // differ, agreement therefore falls back to the dominant stage
        // *with `channel` set aside*: where does the time go once the
        // transaction has reached the cluster. A protocol that waits
        // for its clock dominates `protocol` outright in both runs, so
        // the fallback never weakens the headline claim.
        let channel_stages = attribution
            .entries
            .iter()
            .find(|e| e.protocol == kind.name() && e.transport == "channel")
            .map_or(&[][..], |e| &e.stages);
        let sans_dispatch = |stages: &[AttributionStageEntry]| {
            dominant_stage(stages.iter().filter(|s| s.stage != "channel"))
        };
        let dominant_agrees = dominant == dominant_stage(channel_stages)
            || sans_dispatch(&entry.stages) == sans_dispatch(channel_stages);
        let ok = dump.exports.len() == n
            && dump.alignments.len() == n
            && dump.stats.stalled == 0
            && telescopes(&a)
            && dominant_agrees;
        let verdict = r.compare(ok).to_string();
        let mut row = vec![kind.name().to_string(), format!("{:.0}%", a.coverage_pct())];
        row.extend((0..5).map(|i| format!("{:.1}", a.share_pct(i))));
        row.push(format!("{:.1}", a.share_sum_pct()));
        row.push(format!("{:.2}", a.e2e.p50() as f64 / 1e6));
        row.push(format!("{align_us:.0}"));
        row.push(dominant.clone());
        row.push(verdict);
        at.row(row);
        proc_entries.push(entry);
    }
    r.table(at);
    r.note(
        "each row is a real 4-process cluster: every node's flight \
         recorder lives behind its own monotonic clock, exports travel as \
         ObsDump control frames, and the collector re-stamps them through \
         the per-node min-RTT clock alignment before merging. `clock ±µs` \
         is the worst per-node alignment uncertainty; stage telescoping \
         survives the merge exactly because alignment shifts whole \
         exports, never individual events. `ok` additionally requires the \
         in-process channel run of the same seed/config to agree on the \
         dominant stage — outright, or with the `channel` stage set \
         aside (client dispatch is the seam the transport swap itself \
         replaces, so for the timer-free fast-path protocols it \
         legitimately dominates over real sockets; the runs must still \
         agree on where the time goes once the transaction reaches the \
         cluster).",
    );
    attribution.entries.extend(proc_entries);

    // The open-loop face: a 2PC saturation curve over real processes
    // (arrival_rate/max_outstanding ride in the spec file).
    let (mults, duration) = saturation_steps(quick);
    let clients = 8usize;
    let mut st = Table::new(
        format!(
            "Multi-process open-loop saturation (2PC, n={n}, f={f}, \
             unit={}ms, window={})",
            SERVICE_UNIT.as_millis(),
            SATURATION_MAX_OUTSTANDING
        ),
        &[
            "x",
            "offered t/s",
            "goodput t/s",
            "shed",
            "commit",
            "p50 ms",
            "p99 ms",
            "frames/txn",
            "ok",
        ],
    );
    let mut steps = Vec::new();
    let mut attributions = Vec::new();
    for (i, &mult) in mults.iter().enumerate() {
        let rate = SATURATION_BASE_RATE * mult as f64;
        let ports = free_ports(n)?;
        let mut spec = attribution_spec(ProtocolKind::TwoPc, quick, &ports);
        spec.clients = clients;
        spec.seed = 31;
        spec.keys_per_shard = 64;
        spec.txns_per_client = ((rate * duration.as_secs_f64()).ceil() as usize).max(4);
        spec.arrival_rate = Some(rate);
        spec.max_outstanding = Some(SATURATION_MAX_OUTSTANDING);
        let port = metrics_port.filter(|_| scrape.is_none());
        let art = run_cluster(&spec, &format!("sat-x{mult}"), dump_dir, port)?;
        scrape = scrape.or(art.scrape);
        let dump = art.dump;
        let a = dump.attribution(SLOWEST_KEPT);
        let hist = sojourn_hist(&dump);
        let goodput = trimmed_goodput_tps(&dump);
        let txns = (dump.stats.committed + dump.stats.aborted) as usize;
        let wal_forces = wal_forces_of(&dump);
        let us = |v: u64| v as f64 / 1e3;
        let ok = dump.stats.stalled == 0 && a.covered > 0;
        let verdict = r.compare(ok).to_string();
        st.row(vec![
            format!("x{mult}"),
            format!("{:.0}", rate * clients as f64),
            format!("{goodput:.0}"),
            dump.stats.shed.to_string(),
            dump.stats.committed.to_string(),
            format!("{:.2}", hist.p50() as f64 / 1e6),
            format!("{:.2}", hist.p99() as f64 / 1e6),
            format!("{:.1}", wire_frames_of(&dump) as f64 / txns.max(1) as f64),
            verdict,
        ]);
        steps.push(SaturationStep {
            step: i,
            arrival_rate_per_client: rate,
            offered_tps: rate * clients as f64,
            offered: dump.stats.offered as usize,
            shed: dump.stats.shed as usize,
            committed: dump.stats.committed as usize,
            aborted: dump.stats.aborted as usize,
            stalled: dump.stats.stalled as usize,
            goodput_tps: goodput,
            p50_sojourn_micros: us(hist.p50()),
            p99_sojourn_micros: us(hist.p99()),
            p999_sojourn_micros: us(hist.p999()),
            wal_forces,
            forces_per_txn: wal_forces as f64 / txns.max(1) as f64,
            wire_per_txn: wire_frames_of(&dump) as f64 / txns.max(1) as f64,
            safety_violations: 0,
        });
        attributions.push(a);
    }
    let curve = SaturationCurve::new(
        ProtocolKind::TwoPc.name(),
        "proc",
        n,
        clients,
        steps,
        &attributions,
    );
    let knee = &curve.knee;
    let verdict = r.compare(telescopes(&attributions[knee.step]));
    r.note(format!(
        "saturation knee at x{} ({}): offered {:.0} t/s, goodput {:.0} t/s, \
         dominant stage {} [{}]",
        mults[knee.step],
        if knee.detected {
            "detected"
        } else {
            "last step"
        },
        knee.offered_tps,
        knee.goodput_tps,
        dominant_stage(&knee.stage_shares),
        verdict,
    ));
    r.table(st);
    r.note(
        "open-loop over real processes: the spec file carries \
         arrival_rate/max_outstanding, the clients shed at a full window, \
         and every figure here is recomputed from the collected dump — \
         sojourn percentiles from the client-side transaction record, \
         goodput over the trimmed steady-state window, frames/txn from \
         the per-peer transport counters in each node's export.",
    );
    baseline.saturation = Some(SaturationBaseline {
        f,
        unit_micros: SERVICE_UNIT.as_micros() as u64,
        curves: vec![curve],
    });

    // The mid-run scrape is part of the acceptance surface: a live
    // multi-process cluster must expose both stage meters and transport
    // counters while serving.
    if metrics_port.is_some() {
        let scraped = |metric: &str| scrape.as_deref().is_some_and(|body| body.contains(metric));
        let (got_stage, got_net) = (scraped("ac_stage_count"), scraped("ac_net_bytes_out_total"));
        let verdict = r.compare(got_stage && got_net).to_string();
        r.note(format!(
            "mid-run Prometheus scrape of node 0: stage meters {}, transport \
             counters {} [{verdict}]",
            if got_stage { "present" } else { "MISSING" },
            if got_net { "present" } else { "MISSING" },
        ));
        if let Some(body) = &scrape {
            let sample: Vec<&str> = body
                .lines()
                .filter(|l| l.starts_with("ac_"))
                .take(12)
                .collect();
            r.note(format!("scrape sample:\n{}", sample.join("\n")));
        }
    }
    Ok((r, baseline))
}
