//! The `proc` host of [`crate::cell::run_cell`]: spawn real `ac-node` /
//! `ac-client` processes over loopback TCP for one service configuration,
//! wait for them, scrape node 0's Prometheus endpoint while they serve,
//! and read back the binary [`ClusterDump`] the client collected through
//! the cross-process tracing path (echo round trips for clock alignment,
//! `ObsPull`/`ObsDump` control frames). Nothing here folds a dump into a
//! number: a multi-process run becomes a [`crate::cell::Cell`] by the code
//! that folds an in-process one.
//!
//! The exit statuses are the run's audit. `ac-client` exits non-zero on a
//! stalled or split transaction, `ac-node` on a lock still held or an
//! orphaned envelope, so `ProcHost::run` only ever returns the dump of a
//! cluster that was clean — the same findings `service::aggregate` reports
//! as violations in-process.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use ac_cluster::{ClusterSpec, ServiceConfig};
use ac_obs::ClusterDump;

use crate::Report;

/// Hard deadline for one spawned cluster run (same figure the
/// `proc_smoke` integration test uses).
const RUN_DEADLINE: Duration = Duration::from_secs(120);

/// Locate a sibling binary of the running `repro` executable (cargo
/// puts every workspace binary in the same target directory).
fn bin_path(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate repro binary: {e}"))?;
    let path = me.with_file_name(name);
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

/// Reserve `k` distinct loopback addresses by binding ephemeral
/// listeners, then releasing them. The window between release and the
/// node's own bind is small and CI-safe (same approach as the proc smoke
/// test).
fn free_addrs(k: usize) -> Result<Vec<SocketAddr>, String> {
    let reserve = || -> std::io::Result<Vec<SocketAddr>> {
        let held: Vec<TcpListener> = (0..k)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()?;
        held.iter().map(TcpListener::local_addr).collect()
    };
    reserve().map_err(|e| format!("cannot reserve {k} loopback ports: {e}"))
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Spawned processes that are killed and reaped if they are dropped
/// before they exited — so no return path of [`ProcHost::run`], early or
/// not, leaves an `ac-node` serving or a zombie behind.
struct Children(Vec<(String, Child)>);

impl Children {
    fn spawn(&mut self, what: String, cmd: &mut Command) -> Result<(), String> {
        let child = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {what}: {e}"))?;
        self.0.push((what, child));
        Ok(())
    }
}

impl Drop for Children {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            // Both are no-ops on a child that was already waited for.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Wait for `child` to exit with success before `deadline`.
fn wait_clean(what: &str, child: &mut Child, deadline: Instant) -> Result<(), String> {
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("{what} exited with {status}")),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Ok(None) => return Err(format!("{what} missed the {RUN_DEADLINE:?} deadline")),
            Err(e) => return Err(format!("cannot wait for {what}: {e}")),
        }
    }
}

/// Where the `proc` host finds its binaries and leaves its files, and
/// what it scraped (`repro proc`'s `--dump-dir` and `--metrics`).
pub struct ProcHost {
    node_bin: PathBuf,
    client_bin: PathBuf,
    dump_dir: PathBuf,
    metrics_port: Option<u16>,
    /// The first mid-run Prometheus scrape body that landed.
    scrape: OnceLock<String>,
}

impl ProcHost {
    /// A host that writes each run's spec and dump file under `dump_dir`.
    /// With `metrics_port`, node 0 of a spawned cluster serves Prometheus
    /// text on that port and the host scrapes it mid-run, cluster after
    /// cluster until one scrape has landed (a gated check of the sweep).
    /// Fails — with a buildable message, before any sweep has burnt time
    /// — if the cluster binaries are not next to `repro`.
    pub fn new(dump_dir: PathBuf, metrics_port: Option<u16>) -> Result<ProcHost, String> {
        Ok(ProcHost {
            node_bin: bin_path("ac-node")?,
            client_bin: bin_path("ac-client")?,
            dump_dir,
            metrics_port,
            scrape: OnceLock::new(),
        })
    }

    /// Serve `cfg` by a cluster of real processes — `cfg.n` × `ac-node`
    /// plus one `ac-client` on free loopback ports — wait for it, and read
    /// back the client's `--obs-out` dump. `Err` if the spec file cannot
    /// express `cfg`, or a process cannot be spawned, misses the deadline
    /// or exits non-zero (the run's audit, see the module docs).
    pub(crate) fn run(&self, cfg: &ServiceConfig) -> Result<ClusterDump, String> {
        let spec = ClusterSpec::new(cfg.clone(), free_addrs(cfg.n)?)?;
        let mut tag = sanitize(cfg.kind.name());
        if let Some(rate) = cfg.arrival_rate {
            tag = format!("{tag}-r{}", sanitize(&rate.to_string()));
        }
        std::fs::create_dir_all(&self.dump_dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dump_dir.display()))?;
        let spec_path = self.dump_dir.join(format!("proc-{tag}.spec"));
        let dump_path = self.dump_dir.join(format!("proc-{tag}.dump"));
        std::fs::write(&spec_path, spec.render())
            .map_err(|e| format!("cannot write {}: {e}", spec_path.display()))?;

        // Scrape once — keep trying on later clusters until one lands.
        let metrics_port = self.metrics_port.filter(|_| self.scrape.get().is_none());
        let mut procs = Children(Vec::new());
        let mut client = Command::new(&self.client_bin);
        client.arg("--spec").arg(&spec_path);
        client.arg("--obs-out").arg(&dump_path);
        for id in 0..spec.n() {
            let mut node = Command::new(&self.node_bin);
            node.arg("--spec").arg(&spec_path);
            node.arg("--id").arg(id.to_string());
            if let (0, Some(port)) = (id, metrics_port) {
                node.arg("--metrics").arg(port.to_string());
            }
            procs.spawn(format!("ac-node {id}"), &mut node)?;
        }
        procs.spawn("ac-client".into(), &mut client)?;

        // Scrape node 0's metrics endpoint while the run is in flight.
        let scraper = metrics_port.map(|port| {
            let addr = spec.metrics_addr(0, port);
            std::thread::spawn(move || scrape_prometheus(addr, Duration::from_secs(10)))
        });

        // The client first: nodes serve until its `Shutdown`. After a
        // failure nobody is waited for — dropping `procs` ends the rest.
        let deadline = Instant::now() + RUN_DEADLINE;
        let exited = (procs.0.iter_mut().rev())
            .try_for_each(|(what, child)| wait_clean(what, child, deadline));
        if let Some(body) = scraper.and_then(|h| h.join().ok()).flatten() {
            let _ = self.scrape.set(body);
        }
        exited?;
        let bytes = std::fs::read(&dump_path)
            .map_err(|e| format!("cannot read {}: {e}", dump_path.display()))?;
        let dump = ClusterDump::from_bytes(&bytes)
            .map_err(|e| format!("{} is not a valid cluster dump: {e:?}", dump_path.display()))?;
        if dump.exports.len() != cfg.n || dump.alignments.len() != cfg.n {
            return Err(format!(
                "{}: {} export(s) and {} clock alignment(s) from {} nodes",
                dump_path.display(),
                dump.exports.len(),
                dump.alignments.len(),
                cfg.n
            ));
        }
        Ok(dump)
    }

    /// The mid-run scrape is part of the acceptance surface: a live
    /// multi-process cluster must expose both stage meters and transport
    /// counters while serving. A no-op without a `--metrics` port.
    pub(crate) fn scrape_check(&self, r: &mut Report) {
        if self.metrics_port.is_none() {
            return;
        }
        let scrape = self.scrape.get();
        let scraped = |metric: &str| scrape.is_some_and(|body| body.contains(metric));
        let (got_stage, got_net) = (scraped("ac_stage_count"), scraped("ac_net_bytes_out_total"));
        let verdict = r.compare(got_stage && got_net).to_string();
        r.note(format!(
            "mid-run Prometheus scrape of node 0: stage meters {}, transport \
             counters {} [{verdict}]",
            if got_stage { "present" } else { "MISSING" },
            if got_net { "present" } else { "MISSING" },
        ));
        if let Some(body) = scrape {
            let sample: Vec<&str> = body
                .lines()
                .filter(|l| l.starts_with("ac_"))
                .take(12)
                .collect();
            r.note(format!("scrape sample:\n{}", sample.join("\n")));
        }
    }
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
