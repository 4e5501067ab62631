//! `ac-node --spec FILE --id N [--metrics PORT]` — one node of a real
//! loopback cluster.
//!
//! Binds the address the spec assigns to node `N`, serves protocol and
//! client traffic over TCP until the client sends `Shutdown`, then
//! prints one audit line:
//!
//! ```text
//! node 2 audit total=0 locked=0 decided=50 orphaned=0
//! ```
//!
//! Exits nonzero if a lock is still held or an early envelope was
//! dropped — the node's half of the post-run audit, as `ac-client` exits
//! nonzero on a stalled or split transaction: a cluster whose every
//! process exited 0 is an audited-clean run.
//!
//! With `--metrics PORT` the node also listens on PORT — on the same
//! host/address family the spec binds the node itself to — and answers
//! every connection with a Prometheus text exposition of its live stage
//! meters (`ac_stage_count` / `ac_stage_nanos_total`) and transport
//! counters (`ac_net_*`), all labelled `node="N"`, so `curl` or a
//! scraper can watch where the node's time and bytes go while the run
//! is in flight.

#![deny(unsafe_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::process::exit;
use std::sync::Arc;

use ac_cluster::spec::ClusterSpec;
use ac_obs::{NetMeters, ObsMeters};

fn usage() -> ! {
    eprintln!("usage: ac-node --spec FILE --id N [--metrics PORT]");
    exit(2)
}

/// Serve the meter registries as Prometheus text on `addr`, one
/// short-lived connection at a time. Runs until the process exits — the
/// node's audit line, not this endpoint, is the run's final word.
fn serve_metrics(addr: SocketAddr, id: usize, meters: Arc<ObsMeters>, net: Arc<NetMeters>) {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ac-node: cannot bind metrics address {addr}: {e}");
            exit(2);
        }
    };
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            // Drain whatever request line arrived; the response is the
            // same regardless (there is only one resource to GET).
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let labels = format!("node=\"{id}\"");
            let body = format!(
                "{}{}",
                meters.render_prometheus(&labels),
                net.render_prometheus(&labels)
            );
            let resp = format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(resp.as_bytes());
        }
    });
}

fn main() {
    let mut spec_path = None;
    let mut id = None;
    let mut metrics_port: Option<u16> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => spec_path = Some(args.next().unwrap_or_else(|| usage())),
            "--id" => {
                id = Some(
                    args.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--metrics" => {
                metrics_port = Some(
                    args.next()
                        .and_then(|v| v.parse::<u16>().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let (spec_path, id) = match (spec_path, id) {
        (Some(s), Some(i)) => (s, i),
        _ => usage(),
    };
    let text = match std::fs::read_to_string(&spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ac-node: cannot read {spec_path}: {e}");
            exit(2);
        }
    };
    let spec = match ClusterSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ac-node: bad spec {spec_path}: {e}");
            exit(2);
        }
    };
    if id >= spec.n() {
        eprintln!(
            "ac-node: --id {id} out of range (spec has {} nodes)",
            spec.n()
        );
        exit(2);
    }
    let shared = metrics_port.map(|port| {
        let meters = Arc::new(ObsMeters::new());
        let net = Arc::new(NetMeters::new(spec.n()));
        serve_metrics(
            spec.metrics_addr(id, port),
            id,
            Arc::clone(&meters),
            Arc::clone(&net),
        );
        (meters, net)
    });
    let (meters, net) = match shared {
        Some((m, n)) => (Some(m), Some(n)),
        None => (None, None),
    };
    let summary = ac_cluster::proc::run_node(&spec, id, meters, net);
    println!("{}", summary.render());
    if summary.locked != 0 || summary.orphaned != 0 {
        exit(1);
    }
}
