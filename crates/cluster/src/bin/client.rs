//! `ac-client --spec FILE [--obs-out PATH]` — the load-driving side of a
//! real loopback cluster.
//!
//! Runs the spec's client workload against the `ac-node` processes
//! listed in the spec, collects every node's observability export (echo
//! round trips for clock alignment, then an `ObsPull`), shuts the nodes
//! down, and prints one audit line:
//!
//! ```text
//! client audit txns=50 committed=47 aborted=3 stalled=0 retries=0 split=0
//! ```
//!
//! With `--obs-out PATH` the collected cluster dump (per-node flight
//! recorders, meters, transport counters, clock alignments, and the
//! client-side transaction record) is written to PATH in the binary
//! dump format `repro trace` and `repro proc` consume.
//!
//! Exits nonzero if any transaction stalled or observed a split
//! decision — both violate the service's safety/liveness contract on a
//! healthy cluster.

#![deny(unsafe_code)]

use std::process::exit;

use ac_cluster::spec::ClusterSpec;

fn usage() -> ! {
    eprintln!("usage: ac-client --spec FILE [--obs-out PATH]");
    exit(2)
}

fn main() {
    let mut spec_path = None;
    let mut obs_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => spec_path = Some(args.next().unwrap_or_else(|| usage())),
            "--obs-out" => obs_out = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let spec_path = spec_path.unwrap_or_else(|| usage());
    let text = match std::fs::read_to_string(&spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ac-client: cannot read {spec_path}: {e}");
            exit(2);
        }
    };
    let spec = match ClusterSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ac-client: bad spec {spec_path}: {e}");
            exit(2);
        }
    };
    let (summary, dump) = ac_cluster::proc::run_client(&spec);
    if let Some(path) = obs_out {
        if dump.exports.len() < spec.n() {
            eprintln!(
                "ac-client: collected {}/{} node exports (unreachable nodes degrade coverage)",
                dump.exports.len(),
                spec.n()
            );
        }
        if let Err(e) = std::fs::write(&path, dump.to_bytes()) {
            eprintln!("ac-client: cannot write {path}: {e}");
            exit(2);
        }
    }
    println!("{}", summary.render());
    if summary.stalled > 0 || summary.split > 0 {
        exit(1);
    }
}
