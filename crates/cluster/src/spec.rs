//! The cluster-spec file shared by the `ac-node` and `ac-client`
//! binaries: which protocol, how many nodes at which addresses, and the
//! workload the clients drive.
//!
//! The format is deliberately flat — one `key = value` per line, `#`
//! comments, node addresses as indexed entries:
//!
//! ```text
//! # 4-node transfer cluster over loopback
//! protocol = 2PC
//! f = 1
//! unit_ms = 5
//! keys_per_shard = 64
//! clients = 2
//! txns_per_client = 25
//! workload = transfer:5
//! seed = 1
//! node 0 = 127.0.0.1:7100
//! node 1 = 127.0.0.1:7101
//! node 2 = 127.0.0.1:7102
//! node 3 = 127.0.0.1:7103
//! ```
//!
//! `n` is the number of `node I = addr` lines. Workload spellings:
//! `uniform:SPAN`, `skewed:SPAN:THETA`, `transfer:AMOUNT`.

use std::net::SocketAddr;
use std::time::Duration;

use ac_commit::protocols::ProtocolKind;
use ac_txn::workload::Workload;

use crate::service::{ServiceConfig, TransportKind};

/// A parsed cluster-spec file (see the module docs for the format).
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// The commit protocol serving the cluster.
    pub kind: ProtocolKind,
    /// Crash-resilience parameter.
    pub f: usize,
    /// Wall-clock length of one virtual delay unit.
    pub unit: Duration,
    /// Keys per shard.
    pub keys_per_shard: u64,
    /// Closed-loop client threads the `ac-client` process runs.
    pub clients: usize,
    /// Transactions per client.
    pub txns_per_client: usize,
    /// Workload shape.
    pub workload: Workload,
    /// Base seed.
    pub seed: u64,
    /// Open-loop arrival rate in txns/s per client (`None` = closed
    /// loop). Spelled `arrival_rate = 25.0` in the file.
    pub arrival_rate: Option<f64>,
    /// In-flight cap per client when open-loop (`None` = the service
    /// default). Spelled `max_outstanding = 64` in the file.
    pub max_outstanding: Option<usize>,
    /// One listen address per node, indexed by node id.
    pub nodes: Vec<SocketAddr>,
}

impl ClusterSpec {
    /// Parse a spec file's contents. Returns a human-readable error
    /// naming the offending line.
    pub fn parse(text: &str) -> Result<ClusterSpec, String> {
        let mut kind = None;
        let mut f = 1usize;
        let mut unit = Duration::from_millis(5);
        let mut keys_per_shard = 64u64;
        let mut clients = 1usize;
        let mut txns_per_client = 25usize;
        let mut workload = Workload::Uniform { span: 2 };
        let mut seed = 1u64;
        let mut arrival_rate = None;
        let mut max_outstanding = None;
        let mut nodes: Vec<(usize, SocketAddr)> = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: `{raw}`", lineno + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err("expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "protocol" => {
                    kind = Some(
                        ProtocolKind::all()
                            .into_iter()
                            .find(|k| k.name() == value)
                            .ok_or_else(|| err("unknown protocol"))?,
                    );
                }
                "f" => f = value.parse().map_err(|_| err("bad f"))?,
                "unit_ms" => {
                    unit = Duration::from_millis(value.parse().map_err(|_| err("bad unit_ms"))?)
                }
                "keys_per_shard" => {
                    let keys = value.parse().ok().filter(|&k: &u64| k > 0);
                    keys_per_shard = keys.ok_or_else(|| err("keys_per_shard must be at least 1"))?
                }
                "clients" => clients = value.parse().map_err(|_| err("bad clients"))?,
                "txns_per_client" => {
                    txns_per_client = value.parse().map_err(|_| err("bad txns_per_client"))?
                }
                "workload" => {
                    workload = parse_workload(value).ok_or_else(|| err("bad workload"))?
                }
                "seed" => seed = value.parse().map_err(|_| err("bad seed"))?,
                "arrival_rate" => {
                    let rate = value.parse().ok();
                    let rate = rate.filter(|&r: &f64| r.is_finite() && r > 0.0);
                    arrival_rate =
                        Some(rate.ok_or_else(|| err("arrival_rate must be positive and finite"))?)
                }
                "max_outstanding" => {
                    let window = value.parse().ok().filter(|&m: &usize| m > 0);
                    max_outstanding =
                        Some(window.ok_or_else(|| err("max_outstanding must be at least 1"))?)
                }
                _ if key.starts_with("node") => {
                    let id: usize = key
                        .strip_prefix("node")
                        .unwrap()
                        .trim()
                        .parse()
                        .map_err(|_| err("bad node index"))?;
                    let addr: SocketAddr = value.parse().map_err(|_| err("bad node address"))?;
                    nodes.push((id, addr));
                }
                _ => return Err(err("unknown key")),
            }
        }

        let kind = kind.ok_or("spec is missing `protocol`")?;
        nodes.sort_by_key(|&(id, _)| id);
        if nodes.is_empty() {
            return Err("spec has no `node I = addr` lines".into());
        }
        for (i, &(id, _)) in nodes.iter().enumerate() {
            if id != i {
                return Err(format!("node ids must be 0..n contiguous, found {id}"));
            }
        }
        let nodes: Vec<SocketAddr> = nodes.into_iter().map(|(_, a)| a).collect();
        if nodes.len() < 2 {
            return Err("a cluster needs at least 2 nodes".into());
        }
        if f == 0 || f >= nodes.len() {
            return Err(format!("f must satisfy 1 <= f < n, got f={f}"));
        }
        Ok(ClusterSpec {
            kind,
            f,
            unit,
            keys_per_shard,
            clients,
            txns_per_client,
            workload,
            seed,
            arrival_rate,
            max_outstanding,
            nodes,
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Where node `id`'s `--metrics` endpoint should listen: the same
    /// address family (and host) the spec binds the node itself to, not
    /// a hard-coded `127.0.0.1` — an `[::1]` or non-loopback spec gets a
    /// matching metrics listener.
    pub fn metrics_addr(&self, id: usize, port: u16) -> SocketAddr {
        SocketAddr::new(self.nodes[id].ip(), port)
    }

    /// The equivalent [`ServiceConfig`] (transport = TCP), used by the
    /// client process's closed loop.
    pub fn service_config(&self) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(self.n(), self.f, self.kind)
            .unit(self.unit)
            .clients(self.clients)
            .txns_per_client(self.txns_per_client)
            .workload(self.workload.clone())
            .keys_per_shard(self.keys_per_shard)
            .seed(self.seed)
            .transport(TransportKind::Tcp);
        if let Some(rate) = self.arrival_rate {
            cfg = cfg.arrival_rate(rate);
        }
        if let Some(m) = self.max_outstanding {
            cfg = cfg.max_outstanding(m);
        }
        cfg
    }

    /// Render back to the file format (used by tests and by `repro` when
    /// it materializes a spec for spawned processes).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "protocol = {}", self.kind.name());
        let _ = writeln!(out, "f = {}", self.f);
        let _ = writeln!(out, "unit_ms = {}", self.unit.as_millis());
        let _ = writeln!(out, "keys_per_shard = {}", self.keys_per_shard);
        let _ = writeln!(out, "clients = {}", self.clients);
        let _ = writeln!(out, "txns_per_client = {}", self.txns_per_client);
        let _ = writeln!(out, "workload = {}", render_workload(&self.workload));
        let _ = writeln!(out, "seed = {}", self.seed);
        if let Some(rate) = self.arrival_rate {
            let _ = writeln!(out, "arrival_rate = {rate}");
        }
        if let Some(m) = self.max_outstanding {
            let _ = writeln!(out, "max_outstanding = {m}");
        }
        for (i, a) in self.nodes.iter().enumerate() {
            let _ = writeln!(out, "node {i} = {a}");
        }
        out
    }
}

fn parse_workload(s: &str) -> Option<Workload> {
    let mut parts = s.split(':');
    let shape = parts.next()?;
    match shape {
        "uniform" => Some(Workload::Uniform {
            span: parts.next()?.parse().ok()?,
        }),
        "skewed" => Some(Workload::Skewed {
            span: parts.next()?.parse().ok()?,
            theta: parts.next()?.parse().ok()?,
        }),
        "transfer" => Some(Workload::Transfer {
            amount: parts.next()?.parse().ok()?,
        }),
        _ => None,
    }
}

fn render_workload(w: &Workload) -> String {
    match w {
        Workload::Uniform { span } => format!("uniform:{span}"),
        Workload::Skewed { span, theta } => format!("skewed:{span}:{theta}"),
        Workload::Transfer { amount } => format!("transfer:{amount}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spec_round_trips_through_render_and_parse() {
        let text = "\
# comment
protocol = PaxosCommit
f = 1
unit_ms = 7
keys_per_shard = 32
clients = 3
txns_per_client = 9
workload = transfer:5
seed = 42
node 1 = 127.0.0.1:7101
node 0 = 127.0.0.1:7100
";
        let spec = ClusterSpec::parse(text).expect("parse");
        assert_eq!(spec.n(), 2);
        assert_eq!(spec.kind.name(), "PaxosCommit");
        assert_eq!(spec.unit, Duration::from_millis(7));
        assert_eq!(spec.nodes[1].port(), 7101);
        let again = ClusterSpec::parse(&spec.render()).expect("reparse");
        assert_eq!(again.render(), spec.render());
    }

    #[test]
    fn open_loop_keys_and_metrics_addr_follow_the_spec() {
        let text = "\
protocol = 2PC
arrival_rate = 12.5
max_outstanding = 8
node 0 = [::1]:7100
node 1 = [::1]:7101
";
        let spec = ClusterSpec::parse(text).expect("parse");
        assert_eq!(spec.arrival_rate, Some(12.5));
        assert_eq!(spec.max_outstanding, Some(8));
        // The metrics endpoint inherits the node's address family.
        let m = spec.metrics_addr(1, 9100);
        assert!(m.is_ipv6());
        assert_eq!(m.port(), 9100);
        let again = ClusterSpec::parse(&spec.render()).expect("reparse");
        assert_eq!(again.render(), spec.render());
        assert_eq!(again.arrival_rate, Some(12.5));
    }

    #[test]
    fn bad_specs_name_the_problem() {
        assert!(ClusterSpec::parse("").unwrap_err().contains("protocol"));
        assert!(ClusterSpec::parse("protocol = 2PC\n")
            .unwrap_err()
            .contains("node"));
        let gap = "protocol = 2PC\nnode 0 = 127.0.0.1:1\nnode 2 = 127.0.0.1:2\n";
        assert!(ClusterSpec::parse(gap).unwrap_err().contains("contiguous"));
        let bad = "protocol = warp-drive\nnode 0 = 127.0.0.1:1\nnode 1 = 127.0.0.1:2\n";
        assert!(ClusterSpec::parse(bad).unwrap_err().contains("protocol"));
        // Values that would panic a worker thread once the cluster runs:
        // a window no submission fits in, an arrival schedule with no
        // rate, an empty key range to draw from.
        for line in [
            "max_outstanding = 0",
            "arrival_rate = 0",
            "arrival_rate = -2.5",
            "arrival_rate = NaN",
            "arrival_rate = inf",
            "keys_per_shard = 0",
        ] {
            let text =
                format!("protocol = 2PC\n{line}\nnode 0 = 127.0.0.1:1\nnode 1 = 127.0.0.1:2\n");
            let key = line.split(' ').next().unwrap();
            let e = ClusterSpec::parse(&text).expect_err(line);
            assert!(e.contains(key) && e.contains("line 2"), "{line}: {e}");
        }
    }
}
