//! The four workloads, the two of them the referee runs, and the two
//! load modes.
//!
//! Every episode is a fresh four-node cluster (`n = 4`, `f = 1`) driven
//! by a **closed loop of exactly two client threads** — callers that each
//! wait for a reply, one per core of the box the numbers were frozen on.
//! The transaction counts below are frozen: changing them changes what
//! every metric means (ramp-up share of a windowed episode, samples per
//! light percentile), so they are tuned once, here, and nowhere else.

use ac_cluster::{FaultSpec, ServiceConfig, TransportKind};
use ac_commit::protocols::ProtocolKind;
use ac_txn::workload::Workload;

/// Nodes (= shards) of every episode's cluster.
pub const NODES: usize = 4;
/// Crash-resilience parameter handed to the protocol.
pub const RESILIENCE: usize = 1;
/// Closed-loop client threads generating the load.
pub const CLIENTS: usize = 2;
/// Keys per shard: large enough that uniform streams never conflict.
pub const KEYS_PER_SHARD: u64 = 1 << 20;

/// How the two clients load the service in one episode.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// One transaction in flight per client (the service's default
    /// submit gate): unloaded commit latency.
    Light,
    /// Each client keeps the workload's window `W` in flight: capacity
    /// and CPU cost. Latency here is `2W / throughput` by Little's law,
    /// so it is reported per layer only.
    Windowed,
}

impl Mode {
    /// Lower-case name used in spans and reports.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Light => "light",
            Mode::Windowed => "windowed",
        }
    }
}

/// One benchmark workload: protocol, transport, transaction shape, WAL,
/// and the frozen episode sizes.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// The commit protocol serving the cluster.
    pub kind: ProtocolKind,
    /// Node-to-node transport.
    pub transport: TransportKind,
    /// Transaction shape drawn by both clients.
    pub shape: Workload,
    /// Participants of every transaction (the shape's span).
    pub participants: usize,
    /// Whether nodes write-ahead-log prepares and decisions.
    pub durable: bool,
    /// Whether the protocol waits for timers on the nice path, so the
    /// service leaves the CPU idle most of the time (the harness then
    /// runs its keep-awake thread).
    pub timer_driven: bool,
    /// Share by which a light episode's wire messages may exceed the
    /// simulator's count and still verify: 1 % everywhere but on INBAC,
    /// where a host stall longer than `U` sends the transactions in
    /// flight down the consensus fallback (10 more messages each) and
    /// they are still correct commits.
    pub wire_excess: f64,
    /// Transactions per client in a light episode.
    pub light_txns: usize,
    /// Per-client in-flight window `W` of a windowed episode.
    pub window: usize,
    /// Transactions per client in a windowed episode.
    pub windowed_txns: usize,
}

/// Transaction counts of a `--quick` episode (smoke tests only: the
/// numbers such a run prints mean nothing).
const QUICK_LIGHT_TXNS: usize = 20;
const QUICK_WINDOWED_TXNS: usize = 200;

impl WorkloadSpec {
    /// The service configuration of one episode. `unit` is deliberately
    /// left at the service's own choice, so a later change that derives
    /// `U` from measured round trips shows on the timer workloads
    /// without editing the benchmark.
    pub fn config(&self, mode: Mode, seed: u64, quick: bool) -> ServiceConfig {
        let cfg = ServiceConfig::new(NODES, RESILIENCE, self.kind)
            .clients(CLIENTS)
            .workload(self.shape.clone())
            .keys_per_shard(KEYS_PER_SHARD)
            .transport(self.transport)
            .seed(seed);
        match mode {
            Mode::Light => cfg.txns_per_client(if quick {
                QUICK_LIGHT_TXNS
            } else {
                self.light_txns
            }),
            // With `park_retries = 0` the closed-loop submit gate is
            // open whenever fewer than `max_outstanding` are in flight.
            Mode::Windowed => cfg
                .park_retries(0)
                .max_outstanding(self.window)
                .txns_per_client(if quick {
                    QUICK_WINDOWED_TXNS
                } else {
                    self.windowed_txns
                }),
        }
    }

    /// The fault specification: failure-free, durable or not.
    pub fn faults(&self) -> FaultSpec {
        FaultSpec {
            durable: self.durable,
            ..FaultSpec::none(NODES)
        }
    }

    /// Slices an episode's timings are computed over (see
    /// `episode::slice_ranges`). The host slows the VM for a tenth of a
    /// second to minutes at a time, so a message-driven episode is cut
    /// into six slices of 40-100 ms and each is a reading of its own. A
    /// timer-driven episode is one slice: its latency is `k·U` and its
    /// throughput `2W / k·U` whatever the CPU's speed, and a slice of a
    /// dozen timer periods would measure where in a period it was cut.
    pub fn slices(&self) -> usize {
        if self.timer_driven {
            1
        } else {
            6
        }
    }

    /// The protocol's resilience for this workload's participant count,
    /// capped the way the service caps it per instance.
    pub fn instance_resilience(&self) -> usize {
        RESILIENCE.min(self.participants - 1)
    }
}

/// The workloads `BENCHMARK.json` lists, in its order. The referee's
/// time (3420 s for 4 + 22 runs per workload and two builds) buys about
/// 110 s of measuring per seed, and the host slows the VM by half for
/// minutes at a time: two workloads of 55 s repeat where four of 26 s
/// did not. These two between them run every layer that has a metric
/// (PaxosCommit and 2PC, sockets and channels, the codec, timers, the
/// WAL); `paxos_channel` and `inbac_skewed` stay runnable by name.
pub const REFEREED: [&str; 2] = ["paxos_tcp", "twopc_wal_wide"];

/// The refereed workloads.
pub fn refereed() -> Vec<WorkloadSpec> {
    all()
        .into_iter()
        .filter(|w| REFEREED.contains(&w.name))
        .collect()
}

/// The four workloads the issue defined.
pub fn all() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "paxos_channel",
            why: "Message-driven PaxosCommit over in-process channels: mailbox hand-off, runtime demux, automaton and obs only; no timer, codec, socket, WAL or conflict.",
            kind: ProtocolKind::PaxosCommit,
            transport: TransportKind::Channel,
            shape: Workload::Uniform { span: 2 },
            participants: 2,
            durable: false,
            timer_driven: false,
            wire_excess: 0.01,
            light_txns: 5000,
            window: 32,
            windowed_txns: 40_000,
        },
        WorkloadSpec {
            name: "paxos_tcp",
            why: "Message-driven PaxosCommit over loopback TCP: no timer, WAL or conflict on the path, so every microsecond is mailbox hand-off, runtime, automaton, obs, codec and sockets; CPU-bound when windowed.",
            kind: ProtocolKind::PaxosCommit,
            transport: TransportKind::Tcp,
            shape: Workload::Uniform { span: 2 },
            participants: 2,
            durable: false,
            timer_driven: false,
            wire_excess: 0.01,
            light_txns: 2000,
            window: 32,
            windowed_txns: 12_000,
        },
        WorkloadSpec {
            name: "twopc_wal_wide",
            why: "Timer-driven 2PC over channels on all four shards with a write-ahead log: widest fan-out, 8 log records per transaction, no codec or socket; window-bound: WAL shows in CPU/commit, U in every timing.",
            kind: ProtocolKind::TwoPc,
            transport: TransportKind::Channel,
            shape: Workload::Uniform { span: 4 },
            participants: 4,
            durable: true,
            timer_driven: true,
            wire_excess: 0.01,
            light_txns: 100,
            // Window-bound (2W / (U + e), a quarter of one CPU), not
            // CPU-bound: 2PC aborts a transaction whose votes miss the
            // 1*U timer, and a backlog that saturates one CPU is about U
            // long (commit ratio 0.75-0.89 at W = 512, 0.999+ here). A
            // WAL or group-commit change shows in `cpu_us_per_commit`.
            window: 64,
            windowed_txns: 6000,
        },
        WorkloadSpec {
            name: "inbac_skewed",
            why: "The paper's INBAC under Zipf-skewed keys: lock conflicts become no-votes and aborts, so commit_ratio and the abort path are measured here and nowhere else.",
            kind: ProtocolKind::Inbac,
            transport: TransportKind::Channel,
            shape: Workload::Skewed {
                span: 2,
                theta: 0.8,
            },
            participants: 2,
            durable: false,
            timer_driven: true,
            wire_excess: 1.0,
            light_txns: 80,
            window: 128,
            windowed_txns: 5000,
        },
    ]
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<WorkloadSpec> {
    all().into_iter().find(|w| w.name == name)
}
