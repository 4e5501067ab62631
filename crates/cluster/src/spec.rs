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

use crate::service::{ServiceConfig, TransportKind, DEFAULT_MAX_OUTSTANDING};

/// A cluster-spec file (see the module docs for the format): the service
/// the cluster runs, and where its nodes listen.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// What the `ac-node` processes serve and the `ac-client` process
    /// drives — always over TCP, `n` being the number of `nodes`. Only
    /// what the file has a key for can differ from [`ServiceConfig::new`].
    pub service: ServiceConfig,
    /// One listen address per node, indexed by node id.
    pub nodes: Vec<SocketAddr>,
}

impl ClusterSpec {
    /// The spec that runs `service` on `nodes`. A configuration the file
    /// format cannot express — pacing, a reply timeout, park threshold or
    /// deadline of its own, a transport other than TCP, an `n` that is
    /// not the address count, a unit that is not whole milliseconds — is
    /// an error: the processes read the file, so what it cannot say they
    /// would silently not do.
    pub fn new(service: ServiceConfig, nodes: Vec<SocketAddr>) -> Result<ClusterSpec, String> {
        let spec = ClusterSpec { service, nodes };
        let read_back = ClusterSpec::parse(&spec.render())?.service;
        if read_back != spec.service {
            return Err(format!(
                "the spec file cannot express this service configuration: \
                 {:?} would be read back as {read_back:?}",
                spec.service
            ));
        }
        Ok(spec)
    }

    /// Parse a spec file's contents. Returns a human-readable error
    /// naming the offending line.
    pub fn parse(text: &str) -> Result<ClusterSpec, String> {
        let mut kind = None;
        let mut cfg = ServiceConfig::new(0, 1, ProtocolKind::TwoPc)
            .clients(1)
            .transport(TransportKind::Tcp);
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
                "f" => cfg.f = value.parse().map_err(|_| err("bad f"))?,
                // A zero unit would make every round's failure-detector
                // timer due at once.
                "unit_ms" => {
                    let ms = value.parse().ok().filter(|&ms: &u64| ms > 0);
                    let ms = ms.ok_or_else(|| err("unit_ms must be at least 1"))?;
                    cfg.unit = Duration::from_millis(ms)
                }
                "keys_per_shard" => {
                    let keys = value.parse().ok().filter(|&k: &u64| k > 0);
                    cfg.keys_per_shard =
                        keys.ok_or_else(|| err("keys_per_shard must be at least 1"))?
                }
                "clients" => {
                    let clients = value.parse().ok().filter(|&c: &usize| c > 0);
                    cfg.clients = clients.ok_or_else(|| err("clients must be at least 1"))?
                }
                "txns_per_client" => {
                    cfg.txns_per_client = value.parse().map_err(|_| err("bad txns_per_client"))?
                }
                "workload" => {
                    cfg.workload = parse_workload(value).ok_or_else(|| err("bad workload"))?
                }
                "seed" => cfg.seed = value.parse().map_err(|_| err("bad seed"))?,
                "arrival_rate" => {
                    let rate = value.parse().ok();
                    let rate = rate.filter(|&r: &f64| r.is_finite() && r > 0.0);
                    cfg.arrival_rate =
                        Some(rate.ok_or_else(|| err("arrival_rate must be positive and finite"))?)
                }
                "max_outstanding" => {
                    let window = value.parse().ok().filter(|&m: &usize| m > 0);
                    cfg.max_outstanding =
                        window.ok_or_else(|| err("max_outstanding must be at least 1"))?
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

        cfg.kind = kind.ok_or("spec is missing `protocol`")?;
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
        cfg.n = nodes.len();
        if cfg.f == 0 || cfg.f >= cfg.n {
            return Err(format!("f must satisfy 1 <= f < n, got f={}", cfg.f));
        }
        Ok(ClusterSpec {
            service: cfg,
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

    /// Render back to the file format (used by tests and by `repro` when
    /// it materializes a spec for spawned processes). The open-loop keys
    /// appear only where they say something: `arrival_rate` when set,
    /// `max_outstanding` when it is not the default window.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let cfg = &self.service;
        let mut out = String::new();
        let _ = writeln!(out, "protocol = {}", cfg.kind.name());
        let _ = writeln!(out, "f = {}", cfg.f);
        let _ = writeln!(out, "unit_ms = {}", cfg.unit.as_millis());
        let _ = writeln!(out, "keys_per_shard = {}", cfg.keys_per_shard);
        let _ = writeln!(out, "clients = {}", cfg.clients);
        let _ = writeln!(out, "txns_per_client = {}", cfg.txns_per_client);
        let _ = writeln!(out, "workload = {}", render_workload(&cfg.workload));
        let _ = writeln!(out, "seed = {}", cfg.seed);
        if let Some(rate) = cfg.arrival_rate {
            let _ = writeln!(out, "arrival_rate = {rate}");
        }
        if cfg.max_outstanding != DEFAULT_MAX_OUTSTANDING {
            let _ = writeln!(out, "max_outstanding = {}", cfg.max_outstanding);
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
        assert_eq!(spec.service.kind.name(), "PaxosCommit");
        assert_eq!(spec.service.unit, Duration::from_millis(7));
        assert_eq!((spec.service.n, spec.service.clients), (2, 3));
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
        assert_eq!(spec.service.arrival_rate, Some(12.5));
        assert_eq!(spec.service.max_outstanding, 8);
        // The metrics endpoint inherits the node's address family.
        let m = spec.metrics_addr(1, 9100);
        assert!(m.is_ipv6());
        assert_eq!(m.port(), 9100);
        let again = ClusterSpec::parse(&spec.render()).expect("reparse");
        assert_eq!(again.render(), spec.render());
        assert_eq!(again.service.arrival_rate, Some(12.5));
    }

    /// A spec is a `ServiceConfig` plus addresses: what `new` accepts, the
    /// file says in full — the processes that read it run `cfg` itself.
    #[test]
    fn a_service_config_survives_the_file_or_is_refused() {
        let nodes = |n: u16| -> Vec<SocketAddr> {
            (0..n)
                .map(|i| SocketAddr::from(([127, 0, 0, 1], 7100 + i)))
                .collect()
        };
        let closed = ServiceConfig::new(4, 1, ProtocolKind::Inbac)
            .clients(2)
            .txns_per_client(500)
            .workload(Workload::Skewed {
                span: 2,
                theta: 0.9,
            })
            .unit(Duration::from_millis(5))
            .keys_per_shard(32)
            .seed(11)
            .transport(TransportKind::Tcp);
        let open = closed
            .clone()
            .arrival_rate(400.0)
            .max_outstanding(32)
            .workload(Workload::Uniform { span: 2 });
        for cfg in [closed.clone(), open] {
            let spec = ClusterSpec::new(cfg.clone(), nodes(4)).expect("expressible");
            let read = ClusterSpec::parse(&spec.render()).expect("parse");
            assert_eq!(read.service, cfg);
            assert_eq!(read.nodes, spec.nodes);
        }
        for cfg in [
            closed.clone().pacing(Duration::from_millis(7)),
            closed.clone().reply_timeout(Duration::from_millis(60)),
            closed.clone().transport(TransportKind::Channel),
            closed.clone().unit(Duration::from_micros(2500)),
        ] {
            let e = ClusterSpec::new(cfg, nodes(4)).expect_err("inexpressible");
            assert!(e.contains("cannot express"), "{e}");
        }
        // Not one address per node; a value the parser itself refuses.
        assert!(ClusterSpec::new(closed.clone(), nodes(3)).is_err());
        let e = ClusterSpec::new(closed.clients(0), nodes(4)).unwrap_err();
        assert!(e.contains("clients must be at least 1"), "{e}");
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
        // rate, an empty key range to draw from, no client to serve, a
        // delay unit of no length.
        for line in [
            "clients = 0",
            "unit_ms = 0",
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
