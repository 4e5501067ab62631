//! The live transaction service: `n` long-lived nodes, each owning a
//! [`Shard`] and an [`ac_runtime::NodeLoop`] demultiplexer running many
//! concurrent commit-protocol instances, plus a closed-loop load
//! generator of `c` clients, all run by one loop on host threads
//! (`host.rs`): one per core on either transport, never more than there
//! are nodes, the clients riding the hosts of the nodes. This module
//! holds the configuration, the message alphabet, the in-process runner
//! (`serve`) and the post-run audit; the node itself is the step-wise
//! `Node` of `node.rs` (one transaction table with an explicit
//! per-transaction phase, five steps per turn — its module docs carry the
//! phase diagram and the step table), and the client is `client.rs`.
//!
//! ## Lifecycle of one transaction
//!
//! 1. A client draws a transaction from its workload generator, stamps it
//!    with a globally unique id and sends `Begin` to **every participant**
//!    — the shards the transaction touches (all `n` nodes only when it
//!    touches fewer than two shards). The commit-protocol instance runs
//!    over exactly those `k` participants with resilience
//!    `min(f, k−1)`; envelopes carry global node ids, translated to
//!    instance-local ranks at the demux boundary.
//! 2. Each participant validates/prepares its shard (taking write locks),
//!    logs the prepare to its write-ahead log (when durability is on) and
//!    opens a protocol instance keyed by the transaction id on its
//!    `NodeLoop`. Protocol traffic travels node-to-node as
//!    `(TxnId, A::Msg)` envelopes.
//! 3. When a participant's instance decides, the node applies the decision
//!    to its shard (install writes + release locks on commit, release on
//!    abort), logs it, and reports `Done` to the submitting client.
//! 4. The client reports the outcome on the first `Done` where the
//!    protocol's Table-1 cell has agreement in both failure models, on the
//!    last one elsewhere ([`TxnEvent::decided_at`]). Once every
//!    participant has answered it records the transaction
//!    ([`ServiceOutcome::decided`]) and owes each participant an `End` so
//!    it can garbage-collect the instance; the `End` rides the client's
//!    next `Begin` to that participant.
//!
//! Envelopes for instances a node has not opened yet are buffered in the
//! transaction's table entry (phase *early*: a peer's vote can outrun the
//! client's `Begin`); envelopes for ended instances are dropped. Decisions, votes and apply order are logged per node so the
//! caller can audit safety after the run ([`ServiceOutcome::violations`]).
//!
//! ## Failure injection, crash/restart and recovery (since ISSUE-5)
//!
//! [`run_service_faulted`] augments the failure-free service with a
//! [`FaultSpec`]:
//!
//! * its [`ac_net::FaultPlan`], the simulator's fault schedule, is read
//!   once per node-to-node envelope at flush time
//!   ([`ac_net::FaultPlan::fate`], at the instant scaled into ticks by
//!   [`ac_sim::Time::from_wall`]) and may **drop** or **delay** it: a
//!   partition, a lossy window, a proof's slow process or link;
//! * a node's [`ac_net::Crash`] crashes it at `at` scaled back to wall
//!   clock ([`ac_sim::Time::to_wall`]; a partial crash is a whole one live):
//!   the node replaces its entire volatile state (demux instances,
//!   timers, the transaction table, the in-memory shard) with a fresh
//!   value and its `drain` step discards all traffic until the restart
//!   offset, when it **recovers from its write-ahead log**
//!   ([`ac_txn::Wal`]): committed state and the decision log are rebuilt,
//!   locks of in-flight prepared transactions are re-taken, their protocol
//!   instances are re-opened (fresh automata with the *logged* vote — no
//!   re-validation), decision reports are re-sent, and a `StatusQ` round
//!   asks peers for decisions reached while the node was down. The
//!   restart instant is the crash's `up`.
//!
//! Clients never block forever on a dead node: every reply wait is bounded
//! by [`ServiceConfig::reply_timeout`], after which the client re-sends
//! `Begin` (nodes deduplicate by transaction id; a duplicate `Begin` for an
//! undecided instance triggers a cooperative-termination `StatusQ`
//! broadcast, and for a decided one re-sends `Done`). After
//! [`ServiceConfig::park_retries`] retries the client *parks* the
//! transaction — it keeps retrying in the background while the closed loop
//! moves on — and abandons it only at [`ServiceConfig::txn_deadline`],
//! counting it stalled. This is the service-level termination path:
//! f-tolerant protocols (Paxos-Commit, INBAC) decide through crashes on
//! their own, while 2PC's blocked participants are released by the
//! coordinator's restart + the client's retry, or by a `StatusA` carrying a
//! decision the coordinator reached before a partition cut them off.
//!
//! ## The hot path (batched since ISSUE-4)
//!
//! Both loops are **drain-then-dispatch**: a node's host parks on the
//! *exact* next deadline of its members (live timer, delayed-envelope
//! release, scheduled crash or restart; or indefinitely when idle — an
//! idle host performs zero wakeups, see
//! [`ServiceOutcome::spurious_wakeups`]); a node's `drain` step then takes
//! its whole inbound backlog without waiting — what its mailbox holds,
//! under one lock, in process; over TCP one read per connection of the
//! node's **own** sockets that the host's one readiness wait found ready,
//! no thread between the socket and the loop — `dispatch` runs every
//! envelope through one slab probe of the transaction table, `apply` and
//! `force` stage and force the write-ahead log records, and only then
//! `flush` writes the outputs — one `send_batch` per peer node and per
//! client. Self-sends short-circuit through an in-memory queue and never
//! touch a link. Clients stage and flush the same way (see
//! `Client::turn`).

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ac_commit::problem::COMMIT;
use ac_commit::protocols::{PerRank, ProtocolKind};
use ac_commit::CommitProtocol;
use ac_net::FaultPlan;
use ac_sim::ProcessId;
use ac_txn::workload::Workload;
use ac_txn::{Shard, Transaction, TxnId, Wal};

use ac_obs::{
    Attribution, ClockAlignment, ClusterDump, DumpTxn, FlightEvent, FlightIndex, NetSnapshot,
    NodeObs, ObsExport, ObsMeters, RunStats, SlotBox, Stage,
};

use crate::client::{nanos, Client, ClientFold, ClientRecord, ClientReturn, Verdict};
use crate::host::{deal, gather, host, hosts_for, HostReturn};
use crate::node::{Clock, Node, NodeCounts, NodeEnv, NodeReturn, Replies};
use crate::transport::{
    mailboxes, Bell, ClientLink, Link, NodeHooks, SocketLink, TcpTransport, Transport,
};

/// How many of the slowest reconstructed transaction timelines a run's
/// [`Attribution`] keeps (the p99.9-straggler material `repro trace`
/// renders), whichever host served the run.
pub const SLOWEST_KEPT: usize = 5;

/// [`ServiceConfig::max_outstanding`] unless configured — also what a
/// cluster-spec file without the key means.
pub(crate) const DEFAULT_MAX_OUTSTANDING: usize = 16;

/// Upper bound on protocol envelopes buffered per not-yet-opened
/// instance (envelopes that outran their `Begin`). Any protocol round
/// sends at most a handful of envelopes per peer, so a full buffer means
/// something pathological; overflow is dropped and counted in
/// [`ServiceOutcome::orphaned_envelopes`].
pub const ORPHAN_CAP: usize = 128;

/// The shards participating in `txn`'s commit — its protocol group. A
/// transaction touching fewer than two shards falls back to the whole
/// cluster (protocols need `n ≥ 2`). Sorted ascending; a participant's
/// instance-local rank is its index here.
pub fn participants_of(txn: &Transaction, n: usize) -> Vec<usize> {
    parts_of(txn, n).to_vec()
}

/// [`participants_of`] as each holder of the transaction (the client, every
/// participant's route) derives it: once, in one pass over the sorted
/// keys, into inline storage.
pub(crate) fn parts_of(txn: &Transaction, n: usize) -> PerRank<usize> {
    let parts: PerRank<usize> = txn.shard_iter().filter(|&p| p < n).collect();
    if parts.len() >= 2 {
        parts
    } else {
        (0..n).collect()
    }
}

/// The complete fault configuration of one service run.
#[derive(Debug)]
pub struct FaultSpec {
    /// The fault schedule, in ticks (`U` = 1000) at the run's unit: crashes
    /// with their restarts, and the drop and delay rules each node-to-node
    /// envelope's fate is read off at flush time. Client↔node traffic is
    /// not subject to it (the client is the measurement harness, not a
    /// distributed component).
    pub plan: FaultPlan,
    /// Force write-ahead logging even without a crash schedule (crash
    /// schedules always enable it — recovery needs the log).
    pub durable: bool,
}

impl FaultSpec {
    /// No faults, no durability — the failure-free fast path.
    pub fn none(n: usize) -> FaultSpec {
        FaultSpec {
            plan: FaultPlan::none(n),
            durable: false,
        }
    }
}

/// Which transport carries everything a node receives — node-to-node
/// envelopes, the clients' `Begin`/`End` and teardown's `Shutdown` (see
/// [`crate::transport`]). Decision replies (node→client) are posts to
/// the clients' mailboxes when the whole service runs in one process; the
/// `ac-node` / `ac-client` binaries put them on TCP too.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process mailboxes on host threads (the fast/test path).
    Channel,
    /// Real TCP sockets on loopback, framed by [`crate::codec`].
    Tcp,
}

impl TransportKind {
    /// Parse a CLI spelling (`channel` | `tcp`).
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s {
            "channel" => Some(TransportKind::Channel),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Channel => "channel",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// Configuration of one live service run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Number of nodes (= processes = shards).
    pub n: usize,
    /// Crash-resilience parameter handed to the protocol (capped at
    /// `k − 1` for a `k`-participant instance).
    pub f: usize,
    /// The commit protocol serving the cluster.
    pub kind: ProtocolKind,
    /// Wall-clock duration of one virtual delay unit `U` (protocol timers
    /// are scaled by this). It bounds how long a round waits for a
    /// message that may never come, so it must comfortably exceed
    /// channel latency — a round that times out with its messages still
    /// in flight degrades into the protocol's fallback path — but it
    /// does not pace a failure-free run: rounds close when their
    /// collection is complete.
    pub unit: Duration,
    /// Number of closed-loop clients (the concurrency level).
    pub clients: usize,
    /// Transactions each client submits.
    pub txns_per_client: usize,
    /// Workload shape drawn by every client (distinct per-client seeds).
    pub workload: Workload,
    /// Keys per shard.
    pub keys_per_shard: u64,
    /// Base seed; each client derives its own stream from it.
    pub seed: u64,
    /// Total per-transaction patience: a transaction unresolved this long
    /// after submission is abandoned and counted stalled (a liveness
    /// alarm, not a latency figure).
    pub txn_deadline: Duration,
    /// Bounded reply wait: a client that has not collected all participant
    /// decisions within this window re-sends `Begin` (counted in
    /// [`ServiceOutcome::retries`], never a panic or an unbounded block —
    /// the ISSUE-5 fix for the silent client-stall hazard).
    pub reply_timeout: Duration,
    /// Retries after which the transaction is *parked*: the client keeps
    /// retrying it in the background but unblocks its closed loop and
    /// submits the next transaction (how availability stays measurable
    /// while 2PC blocks on a crashed coordinator).
    pub park_retries: u32,
    /// The per-client window: submission blocks, and an open-loop arrival
    /// is shed, while this many transactions (parked or active) wait for
    /// their outcome to be reported. A reported transaction leaves the
    /// window but stays open until every participant has answered; at most
    /// this many wait that way, so a client has at most twice the window
    /// open.
    pub max_outstanding: usize,
    /// Minimum gap between submissions (`None` = pure closed loop). Chaos
    /// runs pace the load so the stream is still flowing when the fault
    /// window opens.
    pub pacing: Option<Duration>,
    /// Open-loop load generation: mean Poisson arrival rate **per
    /// client** (transactions/second). `None` = closed loop. When set,
    /// each client dispatches transactions on an exponential
    /// inter-arrival schedule *regardless of completions*; an arrival
    /// finding [`ServiceConfig::max_outstanding`] transactions already
    /// in flight is **shed** (counted, never submitted) instead of
    /// back-pressuring the schedule, and latency is measured from the
    /// *scheduled* arrival instant — sojourn time (queue wait + commit),
    /// the quantity an offered-vs-goodput saturation curve needs.
    pub arrival_rate: Option<f64>,
    /// Which transport carries node-to-node envelopes.
    pub transport: TransportKind,
}

impl ServiceConfig {
    /// A sensible default service: `unit` 5 ms, 4 clients × 25 uniform
    /// two-shard transactions, 64 keys per shard, 1 s bounded reply waits,
    /// 10 s stall alarm.
    pub fn new(n: usize, f: usize, kind: ProtocolKind) -> ServiceConfig {
        ServiceConfig {
            n,
            f,
            kind,
            unit: Duration::from_millis(5),
            clients: 4,
            txns_per_client: 25,
            workload: Workload::Uniform { span: 2 },
            keys_per_shard: 64,
            seed: 1,
            txn_deadline: Duration::from_secs(10),
            reply_timeout: Duration::from_secs(1),
            park_retries: 3,
            max_outstanding: DEFAULT_MAX_OUTSTANDING,
            pacing: None,
            arrival_rate: None,
            transport: TransportKind::Channel,
        }
    }

    /// Set the client count (builder style).
    pub fn clients(mut self, c: usize) -> ServiceConfig {
        self.clients = c;
        self
    }

    /// Set the per-client transaction count (builder style).
    pub fn txns_per_client(mut self, t: usize) -> ServiceConfig {
        self.txns_per_client = t;
        self
    }

    /// Set the workload shape (builder style).
    pub fn workload(mut self, w: Workload) -> ServiceConfig {
        self.workload = w;
        self
    }

    /// Set the wall-clock length of one delay unit (builder style).
    pub fn unit(mut self, unit: Duration) -> ServiceConfig {
        self.unit = unit;
        self
    }

    /// Set the base seed (builder style).
    pub fn seed(mut self, seed: u64) -> ServiceConfig {
        self.seed = seed;
        self
    }

    /// Set the keys-per-shard count (builder style).
    pub fn keys_per_shard(mut self, k: u64) -> ServiceConfig {
        self.keys_per_shard = k;
        self
    }

    /// Set the bounded reply wait (builder style).
    pub fn reply_timeout(mut self, t: Duration) -> ServiceConfig {
        self.reply_timeout = t;
        self
    }

    /// Set the park threshold (builder style).
    pub fn park_retries(mut self, r: u32) -> ServiceConfig {
        self.park_retries = r;
        self
    }

    /// Set the per-transaction abandonment deadline (builder style).
    pub fn txn_deadline(mut self, d: Duration) -> ServiceConfig {
        self.txn_deadline = d;
        self
    }

    /// Set the submission pacing gap (builder style).
    pub fn pacing(mut self, p: Duration) -> ServiceConfig {
        self.pacing = Some(p);
        self
    }

    /// Switch the clients to open-loop Poisson arrivals at `rate`
    /// transactions/second per client (builder style).
    pub fn arrival_rate(mut self, rate: f64) -> ServiceConfig {
        self.arrival_rate = Some(rate);
        self
    }

    /// Cap the per-client in-flight window (builder style).
    pub fn max_outstanding(mut self, m: usize) -> ServiceConfig {
        self.max_outstanding = m;
        self
    }

    /// Set the node-to-node transport (builder style).
    pub fn transport(mut self, t: TransportKind) -> ServiceConfig {
        self.transport = t;
        self
    }

    /// The workload seed client `client` draws from (exposed so tests can
    /// regenerate the exact transaction stream a client submitted).
    pub fn client_seed(&self, client: usize) -> u64 {
        self.seed
            .wrapping_add((client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The globally unique id of client `client`'s `i`-th transaction:
    /// a [`SlotBox`] of `clients × txns_per_client` slots holds it.
    pub fn txn_id(client: usize, i: usize) -> TxnId {
        SlotBox::txn_id(client, i)
    }
}

/// One entry of a node's apply log: the transaction, this node's vote, and
/// the decided outcome, in the order decisions were applied to the shard.
/// A recovered node rebuilds this log from its write-ahead log.
#[derive(Clone, Debug)]
pub struct NodeRecord {
    /// `txn.id`, inline: the audit reads it for every record.
    pub id: TxnId,
    /// The transaction.
    pub txn: Arc<Transaction>,
    /// The submitting client.
    pub client: usize,
    /// This node's vote (its shard's local validation verdict).
    pub vote: bool,
    /// The decided value (1 = commit).
    pub decision: u64,
}

/// One transaction's timeline as the client observed it, relative to the
/// service epoch — the raw material of availability-under-failure metrics
/// (`ac-chaos` buckets these against the fault window).
#[derive(Clone, Debug)]
pub struct TxnEvent {
    /// The transaction id.
    pub id: TxnId,
    /// The submitting client.
    pub client: usize,
    /// Number of participant shards.
    pub participants: usize,
    /// First submission, relative to the service epoch.
    pub submitted_at: Duration,
    /// When the client knew the outcome: its first participant decision
    /// where the protocol's cell always agrees, its last elsewhere (`None`
    /// = abandoned at its deadline, reported or not). Other participants
    /// may still be deciding, so [`TxnEvent::journaled_at`] may come after
    /// it.
    pub decided_at: Option<Duration>,
    /// The outcome the client reported (`None` = abandoned).
    pub committed: Option<bool>,
    /// `Begin` re-sends this transaction needed, reported or not, until
    /// every participant answered.
    pub retries: u32,
    /// Earliest `Begin` dispatch at any participant — the first protocol
    /// event (from the flight recorder; `None` when its events were lost
    /// to ring wrap-around).
    pub first_protocol_at: Option<Duration>,
    /// Latest participant lock acquisition: every vote cast, all write
    /// locks of yes-votes held.
    pub votes_held_at: Option<Duration>,
    /// Latest participant decision apply (the decision is journaled at
    /// every participant from this point).
    pub journaled_at: Option<Duration>,
}

impl TxnEvent {
    /// The transaction as a run's record of a reported and settled one
    /// (`None` when it was abandoned).
    pub(crate) fn decided(&self) -> Option<DumpTxn> {
        let (decided, committed) = (self.decided_at?, self.committed?);
        Some(DumpTxn {
            id: self.id,
            submitted_nanos: nanos(self.submitted_at),
            decided_nanos: nanos(decided),
            committed,
        })
    }
}

/// Aggregated result of a [`run_service`] run.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// The protocol that served the run.
    pub kind: ProtocolKind,
    /// Closed-loop clients.
    pub clients: usize,
    /// Transactions fully served (all participant decisions reached the
    /// client).
    pub txns: usize,
    /// Transactions that committed.
    pub committed: usize,
    /// Transactions that aborted.
    pub aborted: usize,
    /// Transactions abandoned at their deadline (unresolved at run end).
    pub stalled: usize,
    /// Transactions the load schedule *offered*: submissions plus sheds.
    /// Equals the submitted count in closed-loop mode; in open-loop mode
    /// it is the arrival schedule's length, the numerator of offered
    /// load.
    pub offered: usize,
    /// Open-loop arrivals shed because the client's bounded in-flight
    /// window ([`ServiceConfig::max_outstanding`]) was full — overload
    /// the service refused rather than queued unboundedly. Always 0 in
    /// closed-loop mode.
    pub shed: usize,
    /// Wall-clock of the whole load phase (first submit → last reply).
    pub elapsed: Duration,
    /// Protocol messages that crossed node boundaries (including recovery
    /// `StatusQ`/`StatusA` traffic).
    pub wire_messages: usize,
    /// Envelopes the fault policy dropped.
    pub dropped_messages: usize,
    /// Envelopes the fault policy held back before delivery.
    pub delayed_messages: usize,
    /// `Begin` re-sends across all clients (0 in a healthy run; bounded
    /// reply waits make a dead node cost retries, not a hang).
    pub retries: usize,
    /// Bounded reply waits that expired (retries + abandonments).
    pub reply_timeouts: usize,
    /// Host threads that ran the nodes, and the clients beside them —
    /// every serving thread of the run: `min(cores, n)` on either
    /// transport (cores this process may run on), or the `hosts` a test
    /// asked for.
    pub node_threads: usize,
    /// Host wakeups that moved nothing in any of the host's nodes or
    /// clients (0 = every wakeup did useful work; idle hosts park
    /// indefinitely).
    pub spurious_wakeups: usize,
    /// Prepare records staged for the write-ahead log on the `Begin`
    /// critical path, across all nodes (the records a pre-group-commit
    /// node forced one by one; group commit folds them into the per-batch
    /// force counted in [`ServiceOutcome::wal_forces`]). Zero when the
    /// run has no WAL (healthy, non-durable) — and zero **even with a
    /// WAL** for a logless protocol ([`ProtocolKind::logless`]), which
    /// journals the prepare lazily alongside the decision because the
    /// outcome is reconstructible from the votes replicated to its
    /// peers.
    pub wal_prepare_forces: usize,
    /// WAL **force operations** (durability points) across all nodes.
    /// Group commit amortizes one force over every record staged during
    /// a drain batch, so under batched load this is far below the record
    /// count — `wal_forces / txns < 1` is the gated group-commit win
    /// (per-record forcing puts it at ≥ 2: one prepare + one decide per
    /// participant). Read off the merged [`Stage::WalForce`] meter. Zero
    /// when the run has no WAL.
    pub wal_forces: usize,
    /// Early protocol envelopes (arrived before their `Begin`) dropped
    /// because an instance's bounded pre-open buffer was full. 0 in any
    /// healthy run — the buffer holds [`ORPHAN_CAP`] envelopes and no
    /// protocol in the suite sends nearly that many per instance, so a
    /// non-zero count means envelopes outran their `Begin` pathologically
    /// (a reordering transport or a flood from a confused peer).
    pub orphaned_envelopes: usize,
    /// Final shard states.
    pub shards: Vec<Shard>,
    /// Each node's apply log, in its local apply order.
    pub node_logs: Vec<Vec<NodeRecord>>,
    /// Per-transaction timelines, grouped by client, each client's in the
    /// order it reported them or abandoned them at their deadline.
    pub txn_events: Vec<TxnEvent>,
    /// The client-side record of every fully decided transaction, in the
    /// form a multi-process run's [`ac_obs::ClusterDump`] carries it.
    pub decided: Vec<DumpTxn>,
    /// Each node's flight record, indexed by node id, on the service
    /// epoch's clock (unordered where the ring wrapped) — what
    /// [`ServiceOutcome::attribution`] was computed from.
    pub flight: Vec<Vec<FlightEvent>>,
    /// Per-stage seam meters (count, total nanos), merged across every
    /// node and client.
    pub stage_meters: ObsMeters,
    /// Per-transaction latency attribution: the five-stage telescoping
    /// decomposition of every covered commit (see [`ac_obs::Attribution`]).
    pub attribution: Attribution,
    /// Safety violations found by the post-run audit (empty = safe).
    pub violations: Vec<String>,
}

impl ServiceOutcome {
    /// The run-level counters in the form a multi-process run's
    /// [`ac_obs::ClusterDump`] carries them.
    pub fn run_stats(&self) -> RunStats {
        RunStats {
            offered: self.offered as u64,
            shed: self.shed as u64,
            committed: self.committed as u64,
            aborted: self.aborted as u64,
            stalled: self.stalled as u64,
            elapsed_nanos: nanos(self.elapsed),
        }
    }

    /// The run as a multi-process collector would have gathered it of
    /// `cfg`'s cluster — the form `repro trace` reads: the client-side
    /// list, the counters, each node's flight record as that node's export
    /// (node 0's carrying the run's merged meters and lost-event count),
    /// and clocks already aligned, since every recorder shared one epoch.
    pub fn cluster_dump(&self, cfg: &ServiceConfig) -> ClusterDump {
        let meters: Vec<_> = Stage::ALL
            .iter()
            .map(|&s| self.stage_meters.get(s))
            .collect();
        let nodes = 0..self.flight.len() as u32;
        let export = |(node, flight): (u32, &Vec<FlightEvent>)| {
            let first = node == 0;
            ObsExport {
                node,
                dropped_events: if first {
                    self.attribution.dropped_events
                } else {
                    0
                },
                meters: if first { meters.clone() } else { Vec::new() },
                flight: flight.clone(),
                net: NetSnapshot::default(),
            }
        };
        ClusterDump {
            protocol: self.kind.name().into(),
            n: cfg.n as u32,
            f: cfg.f as u32,
            unit_micros: cfg.unit.as_micros() as u64,
            txns: self.decided.clone(),
            alignments: nodes.clone().map(ClockAlignment::identity).collect(),
            exports: nodes.zip(&self.flight).map(export).collect(),
            stats: self.run_stats(),
        }
    }

    /// Keep the run as evidence: its [`ServiceOutcome::cluster_dump`] as
    /// `dir/<stem>.dump` (what `repro trace` renders) and its violations,
    /// one a line, as `dir/<stem>.violations`, where every character of
    /// `stem` but an ASCII letter, digit or `-` becomes `_`. `dir` is
    /// created if need be. Returns the dump's path.
    pub fn keep(&self, cfg: &ServiceConfig, dir: &Path, stem: &str) -> std::io::Result<PathBuf> {
        let safe = |c: char| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '-' => c,
            _ => '_',
        };
        let stem: String = stem.chars().map(safe).collect();
        std::fs::create_dir_all(dir)?;
        let dump = dir.join(format!("{stem}.dump"));
        std::fs::write(&dump, self.cluster_dump(cfg).to_bytes())?;
        let mut violations = self.violations.join("\n");
        violations.push('\n');
        std::fs::write(dir.join(format!("{stem}.violations")), violations)?;
        Ok(dump)
    }

    /// Whether the post-run safety audit found nothing.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }

    /// Sum of all values across all shards (conservation checks: a
    /// Transfer workload must keep this at zero).
    pub fn total_value(&self) -> i64 {
        self.shards.iter().map(|s| s.total()).sum()
    }

    /// Replay each node's committed transactions **sequentially** against a
    /// fresh shard, in the node's apply order, and return the rebuilt
    /// shards. Serializability smoke test: the rebuilt shards must equal
    /// [`ServiceOutcome::shards`] — the concurrent run is equivalent to
    /// some sequential execution (per shard, its own apply order).
    pub fn replay(&self) -> Vec<Shard> {
        self.node_logs
            .iter()
            .enumerate()
            .map(|(p, log)| {
                let mut shard = Shard::new(p);
                for rec in log.iter().filter(|r| r.decision == COMMIT) {
                    // Writes only: read validation was the live run's job;
                    // replay re-applies the committed effects in order.
                    let mut w = Transaction::new(rec.txn.id);
                    w.writes = rec.txn.writes.clone();
                    let vote = shard.prepare(&w);
                    debug_assert!(vote, "sequential write-only replay cannot conflict");
                    shard.finish(&w, true);
                }
                shard
            })
            .collect()
    }
}

/// Everything a node can receive: client control traffic, protocol
/// envelopes `(TxnId, from, msg)`, and service-level recovery traffic.
/// Public because it is the [`crate::transport::Transport`] alphabet —
/// every variant is wire-encodable via [`crate::codec`].
#[derive(Debug)]
pub enum ToNode<M> {
    /// A client submits (or re-submits) a transaction to a participant.
    Begin {
        /// The transaction body.
        txn: Arc<Transaction>,
        /// The submitting client.
        client: usize,
        /// `true` on a re-send after an expired reply wait. A logless
        /// node that has **no record** of a retried transaction must not
        /// validate and vote afresh: its original vote may have died
        /// with a crash, and a contradictory re-vote could split the
        /// decision against peers that already assembled the original —
        /// it recovers the outcome from its peers instead
        /// (ask-before-revote, see the `Begin` handler).
        retry: bool,
    },
    /// A protocol envelope between two participants of an instance.
    Net {
        /// The instance (= transaction) id.
        txn: TxnId,
        /// The sending node (global id, translated to an instance rank
        /// at the demux boundary).
        from: ProcessId,
        /// The protocol message.
        msg: M,
    },
    /// Cooperative termination: "has `txn` decided at your node?" Sent by a
    /// recovered node for its in-flight transactions and by any node whose
    /// open instance is the target of a client retry.
    StatusQ {
        /// The queried transaction.
        txn: TxnId,
        /// The asking node.
        from: ProcessId,
    },
    /// The answer: a decision this node applied (protocol agreement makes
    /// adopting it safe).
    StatusA {
        /// The decided transaction.
        txn: TxnId,
        /// The decided value (1 = commit).
        value: u64,
    },
    /// The submitting client saw every participant decision — this
    /// node's included, so no `End` reaches an undecided participant; the
    /// instance can be garbage-collected. It does not leave when the last
    /// `Done` arrives: it waits at the client and rides, right ahead of
    /// it, the client's next `Begin` to this node. It leaves without one
    /// only when [`ServiceConfig::max_outstanding`] `End`s wait for the
    /// node at a client's write point, and at the client's exit.
    End {
        /// The finished transaction.
        txn: TxnId,
    },
    /// A collector asks for this node's observability export (flight
    /// recorder, meters, transport counters). A multi-process node
    /// answers with one `ObsDump` frame; the in-process service, whose
    /// recorders are already local, ignores the request.
    ObsPull {
        /// The requesting collector's client id (the `ObsDump` goes back
        /// down the connection that said `Hello` with it).
        client: usize,
    },
    /// Tear the node down (end of run).
    Shutdown,
}

/// A node's decision report to the submitting client.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Done {
    /// The decided transaction.
    pub txn: TxnId,
    /// The reporting participant.
    pub node: ProcessId,
    /// The decided value (1 = commit).
    pub decision: u64,
}

/// Run the configured service end-to-end, failure-free, and audit it.
pub fn run_service(cfg: &ServiceConfig) -> ServiceOutcome {
    run_service_faulted(cfg, &FaultSpec::none(cfg.n))
}

/// Run the configured service under a fault specification (see the module
/// docs' "Failure injection" section). Dispatches on `cfg.kind` to the
/// generic engine — any protocol of the suite can serve.
pub fn run_service_faulted(cfg: &ServiceConfig, spec: &FaultSpec) -> ServiceOutcome {
    run_hosted(cfg, spec, hosts_for(cfg.n))
}

/// [`run_service_faulted`] with the nodes, and the clients beside them,
/// dealt onto `hosts` host threads, on either transport.
pub(crate) fn run_hosted(cfg: &ServiceConfig, spec: &FaultSpec, hosts: usize) -> ServiceOutcome {
    ac_commit::with_protocol!(cfg.kind, P => serve::<P>(cfg, spec, hosts))
}

fn serve<P>(cfg: &ServiceConfig, spec: &FaultSpec, hosts: usize) -> ServiceOutcome
where
    P: CommitProtocol + Send + 'static,
    P::Msg: ac_sim::Wire + Send + 'static,
{
    assert!(cfg.n >= 2 && cfg.f >= 1 && cfg.f < cfg.n, "invalid (n, f)");
    assert!(cfg.clients >= 1);
    assert_eq!(spec.plan.n(), cfg.n, "one crash slot per node");
    let n = cfg.n;

    // Placement: node `p` runs on host `p mod h` and client `c` on host
    // `c mod h`, after that host's nodes each round. Every node and client
    // has a mailbox that rings its host's bell. Over channels the nodes
    // post to each other's mailboxes, and the clients to theirs. In TCP
    // mode each node owns a loopback listener and its own sockets (no
    // thread in between): one connection per pair of nodes, dialed by the
    // lower id, read and written by both, co-hosted pairs included — a
    // host's one wait covers every member's sockets, so a write to a
    // co-hosted peer wakes no thread. Clients dial the listener addresses,
    // and so does teardown's `Shutdown`. Either way decision replies
    // (node→client) are posts to the clients' mailboxes: the clients are
    // the measurement harness. The `ac-node`/`ac-client` binaries put
    // those on TCP too.
    let h = hosts.clamp(1, n);
    let bells: Vec<Arc<Bell>> = (0..h).map(|_| Bell::new()).collect();
    let (nodes, clients) = (mailboxes(n, &bells), mailboxes::<Done>(cfg.clients, &bells));
    let mut addrs = Vec::<std::net::SocketAddr>::new();
    let links: Vec<Link<P::Msg>> = match cfg.transport {
        TransportKind::Channel => (0..n).map(|me| Link::Mailbox(me, nodes.clone())).collect(),
        TransportKind::Tcp => {
            let bind = |_| SocketLink::bind("127.0.0.1:0", NodeHooks::default());
            let bound: std::io::Result<Vec<_>> = (0..n).map(bind).collect();
            let bound = bound.expect("bind loopback listeners");
            addrs.extend(bound.iter().map(|l| l.addr().expect("listener address")));
            // Ascending: every lower id has dialed by the time a node looks.
            let mesh = |(me, mut link): (usize, SocketLink<_>)| {
                link.mesh(me, addrs.clone());
                Link::Sockets(link)
            };
            bound.into_iter().enumerate().map(mesh).collect()
        }
    };
    let make_transport = || -> Box<dyn Transport<P::Msg>> {
        match cfg.transport {
            TransportKind::Channel => Box::new(nodes.clone()),
            TransportKind::Tcp => Box::new(TcpTransport::new(addrs.clone())),
        }
    };

    // Nodes and clients stamp against one epoch. The nodes share the plan
    // only if it has a link rule: else their flush reads no fate at all.
    let epoch = Instant::now();
    let faults = spec.plan.has_links().then(|| Arc::new(spec.plan.clone()));
    let crashed = spec.plan.crashes.iter().any(Option::is_some);
    let envs: Vec<_> = links
        .into_iter()
        .enumerate()
        .map(|(me, link)| NodeEnv::<P> {
            me,
            n,
            f: cfg.f,
            unit: cfg.unit,
            clock: Clock::monotonic(epoch),
            link,
            replies: Replies::Mailbox(clients.clone()),
            faults: faults.clone(),
            crash: spec.plan.crash_of(me),
            // Each node owns its log. A scheduled crash resets the
            // node's memory, not the log, which its restart replays.
            wal: (spec.durable || crashed).then(Wal::new),
            logless: cfg.kind.logless(),
            obs: NodeObs::new(),
        })
        .collect();
    let link = |c| ClientLink::InProcess(make_transport(), Arc::clone(&clients[c]));
    // A client's return comes back here as it exits, so the load phase
    // ends at the last client's last reply.
    let (exits, exited) = mpsc::channel::<ClientReturn>();
    let handles: Vec<_> = (deal(envs, h).into_iter().zip(bells).enumerate())
        .map(|(i, (envs, bell))| {
            let links: Vec<_> = (i..cfg.clients).step_by(h).map(|c| (c, link(c))).collect();
            let (cfg, exits) = (cfg.clone(), exits.clone());
            std::thread::spawn(move || {
                // A host builds what it runs: nodes and clients built on
                // the calling thread left the post-run fold slower.
                let clients = (links.into_iter())
                    .map(|(c, link)| Client::new(c, &cfg, epoch, link))
                    .collect();
                let nodes = envs.into_iter().map(Node::new).collect();
                host(Some(&bell), nodes, clients, |ret| {
                    let _ = exits.send(ret);
                })
            })
        })
        .collect();
    drop(exits);

    let mut client_returns: Vec<ClientReturn> = (0..cfg.clients)
        .map(|_| exited.recv().expect("a host panicked"))
        .collect();
    let elapsed = epoch.elapsed();
    client_returns.sort_unstable_by_key(|ret| ret.client);

    // Teardown travels like everything else: a post that rings each
    // host's bell, or over TCP a frame on a fresh connection, the way
    // `proc::run_client` ends a cluster.
    let mut teardown = make_transport();
    for p in 0..n {
        teardown.send(p, ToNode::Shutdown);
    }
    let host_returns: Vec<HostReturn> = handles
        .into_iter()
        .map(|h| h.join().expect("host thread panicked"))
        .collect();
    aggregate(cfg, client_returns, host_returns, elapsed)
}

/// What the nodes' logs say of one transaction, folded into its slot of
/// the post-run table as the logs are read.
#[derive(Copy, Clone, Debug, Default)]
struct Logged {
    /// Participants that logged a decision.
    nodes: u32,
    /// The first logged decision.
    decision: u64,
    /// A participant logged a no-vote.
    missing_yes: bool,
    /// A participant logged a decision other than the first.
    split: bool,
}

impl Logged {
    /// Fold one node's record of the transaction in.
    fn add(&mut self, rec: &NodeRecord) {
        if self.nodes == 0 {
            self.decision = rec.decision;
        }
        self.nodes += 1;
        self.missing_yes |= !rec.vote;
        self.split |= rec.decision != self.decision;
    }
}

/// The audit of one client record, read with the `verdict` it was counted
/// by, against what the nodes logged of its transaction: agreement (one
/// decision, at the client and in every participant's log) and validity
/// (no commit without every yes-vote).
fn audit(rec: &ClientRecord, verdict: Verdict, logged: Option<&Logged>, out: &mut Vec<String>) {
    let id = rec.id;
    let decision = match verdict {
        Verdict::Stalled => return,
        Verdict::Split(vals) => return out.push(format!("txn {id}: split decision {vals:?}")),
        Verdict::Decided(decision) => decision,
    };
    let Some(logged) = logged.filter(|l| l.nodes > 0) else {
        return out.push(format!("txn {id}: no node logged it"));
    };
    // One decision slot per participant, sized by the client.
    let k = rec.decisions.len();
    if logged.nodes as usize != k {
        out.push(format!(
            "txn {id}: {} of {k} participants logged a decision",
            logged.nodes
        ));
    }
    if logged.split || logged.decision != decision {
        out.push(format!("txn {id}: node logs disagree with client view"));
    }
    if decision == COMMIT && logged.missing_yes {
        out.push(format!("txn {id}: committed despite a missing yes-vote"));
    }
}

/// The audit of shard `p` after the run: it holds no lock.
fn audit_locks(p: usize, shard: &Shard, out: &mut Vec<String>) {
    if shard.locked() != 0 {
        out.push(format!(
            "shard {p}: {} lock(s) still held after the run",
            shard.locked()
        ));
    }
}

/// The post-run table: a slot per transaction, holding what every node's
/// flight ring (read where it lies) and log (as it is read) say of it.
/// Every id the service names is a slot of `slots` (see
/// [`ServiceConfig::txn_id`]), so no id is probed for.
fn table(slots: SlotBox, nodes: &[NodeReturn]) -> FlightIndex<Logged> {
    let events = nodes.iter().map(|r| r.obs.flight.events().len()).sum();
    let mut table = FlightIndex::<Logged>::with_slots(slots, events);
    for r in nodes {
        table.add(r.obs.flight.events().iter().copied());
        for rec in &r.log {
            table.tag_mut(rec.id).add(rec);
        }
    }
    table
}

/// Merge per-host results and audit safety: `host_returns` ran the nodes
/// (dealt by [`deal`]) and the clients beside them.
fn aggregate(
    cfg: &ServiceConfig,
    client_returns: Vec<ClientReturn>,
    host_returns: Vec<HostReturn>,
    elapsed: Duration,
) -> ServiceOutcome {
    let node_threads = host_returns.len();
    let spurious_wakeups = host_returns.iter().map(|h| h.spurious_wakeups).sum();
    let node_returns: Vec<NodeReturn> = gather(host_returns.into_iter().map(|h| h.nodes).collect());
    let mut reply_timeouts = 0;
    let mut violations = Vec::new();
    let mut txn_events = Vec::new();
    // Each node's lifetime counts, summed over the nodes.
    let total = |count: fn(&NodeCounts) -> usize| -> usize {
        node_returns.iter().map(|r| count(&r.counts)).sum()
    };
    let wire_messages = total(|c| c.wire_messages);
    let dropped_messages = total(|c| c.dropped_messages);
    let delayed_messages = total(|c| c.delayed_messages);
    let orphaned_envelopes = total(|c| c.orphaned_envelopes);
    let wal_prepare_forces = total(|c| c.wal_prepare_forces);

    // Merge the observability bundles: the meters fold exactly.
    let stage_meters = ObsMeters::new();
    let mut dropped_events = 0u64;
    for r in &node_returns {
        stage_meters.merge(&r.obs.meters);
        dropped_events += r.obs.flight.dropped();
    }
    let slots = SlotBox::new(cfg.clients, cfg.txns_per_client);
    let table = table(slots, &node_returns);

    // The client-side fold counts, and the audit holds each counted record
    // against its slot. Then one walk of each transaction's chain stamps
    // its event where it lies and, if it was decided, times its
    // attribution. The first client's events become the run's where they
    // lie, and the others are appended to them, inside the room the first
    // client kept for them.
    let mut fold = ClientFold::new(cfg.clients * cfg.txns_per_client);
    let mut attribution = Attribution {
        dropped_events,
        ..Attribution::default()
    };
    for mut cr in client_returns {
        stage_meters.merge(&cr.meters);
        reply_timeouts += cr.reply_timeouts;
        fold.add(&cr, |rec, verdict| {
            audit(rec, verdict, table.tag(rec.id), &mut violations)
        });
        for ev in &mut cr.events {
            let decided = ev.decided();
            let walk = table.walk(ev.id, decided.map(|d| d.decided_nanos));
            let l = walk.lifecycle;
            ev.first_protocol_at = l.first_protocol_nanos.map(Duration::from_nanos);
            ev.votes_held_at = l.votes_held_nanos.map(Duration::from_nanos);
            ev.journaled_at = l.journaled_nanos.map(Duration::from_nanos);
            if let Some(d) = decided {
                attribution.add(d.span(), &walk, SLOWEST_KEPT);
            }
        }
        if txn_events.is_empty() {
            txn_events = cr.events;
        } else {
            txn_events.append(&mut cr.events);
        }
    }

    let (mut shards, mut node_logs, mut flight) = (Vec::new(), Vec::new(), Vec::new());
    for (p, r) in node_returns.into_iter().enumerate() {
        audit_locks(p, &r.shard, &mut violations);
        shards.push(r.shard);
        node_logs.push(r.log);
        flight.push(r.obs.flight.into_events());
    }

    let ClientFold {
        stats,
        split,
        retries,
        decided,
    } = fold;
    ServiceOutcome {
        kind: cfg.kind,
        clients: cfg.clients,
        txns: (stats.committed + stats.aborted) as usize + split,
        committed: stats.committed as usize,
        aborted: stats.aborted as usize,
        stalled: stats.stalled as usize,
        offered: stats.offered as usize,
        shed: stats.shed as usize,
        elapsed,
        wire_messages,
        dropped_messages,
        delayed_messages,
        retries,
        reply_timeouts,
        node_threads,
        spurious_wakeups,
        orphaned_envelopes,
        wal_prepare_forces,
        wal_forces: stage_meters.get(Stage::WalForce).0 as usize,
        shards,
        node_logs,
        txn_events,
        decided,
        flight,
        stage_meters,
        attribution,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_net::Crash;
    use ac_sim::Time;

    fn quick(kind: ProtocolKind) -> ServiceConfig {
        ServiceConfig::new(4, 1, kind)
            .clients(2)
            .txns_per_client(5)
            .unit(Duration::from_millis(10))
    }

    #[test]
    fn inbac_serves_uniform_load_safely() {
        let out = run_service(&quick(ProtocolKind::Inbac));
        assert_eq!(out.stalled, 0);
        assert_eq!(out.txns, 10);
        assert!(out.is_safe(), "{:?}", out.violations);
        assert!(out.committed + out.aborted == 10);
        assert_eq!(ac_obs::sojourn_times(&out.decided).count(), 10);
        assert!(out.wire_messages > 0);
        assert_eq!(out.retries, 0, "healthy runs never need Begin retries");
        assert_eq!(out.reply_timeouts, 0);
    }

    #[test]
    fn two_pc_transfer_load_conserves_value() {
        let cfg = quick(ProtocolKind::TwoPc).workload(Workload::Transfer { amount: 7 });
        let out = run_service(&cfg);
        assert_eq!(out.stalled, 0);
        assert!(out.is_safe(), "{:?}", out.violations);
        assert_eq!(out.total_value(), 0);
        assert!(out.committed > 0, "transfers should mostly commit");
    }

    #[test]
    fn replay_reproduces_shard_state() {
        let cfg = quick(ProtocolKind::PaxosCommit).clients(3);
        let out = run_service(&cfg);
        assert!(out.is_safe(), "{:?}", out.violations);
        let rebuilt = out.replay();
        for (live, replayed) in out.shards.iter().zip(&rebuilt) {
            assert_eq!(live.total(), replayed.total());
            for k in 0..cfg.keys_per_shard {
                assert_eq!(live.read(k), replayed.read(k), "shard {} key {k}", live.id);
            }
        }
    }

    #[test]
    fn participants_scope_to_touched_shards_with_whole_cluster_fallback() {
        use ac_txn::Key;
        let t = Transaction::new(1)
            .with_write(Key::new(2, 0), 5)
            .with_write(Key::new(0, 1), 6);
        assert_eq!(participants_of(&t, 4), vec![0, 2]);
        let single = Transaction::new(2).with_write(Key::new(1, 0), 5);
        assert_eq!(participants_of(&single, 4), vec![0, 1, 2, 3]);
        let empty = Transaction::new(3);
        assert_eq!(participants_of(&empty, 3), vec![0, 1, 2]);
        // Reads count, shards the cluster does not have do not, and a
        // span above the inline capacity spills and stays sorted.
        let mixed = Transaction::new(4)
            .with_write(Key::new(3, 0), 1)
            .with_read(Key::new(1, 9), 0)
            .with_read(Key::new(3, 2), 0)
            .with_write(Key::new(7, 7), 2);
        assert_eq!(participants_of(&mixed, 4), vec![1, 3]);
        let wide = (0..6).fold(Transaction::new(5), |t, s| t.with_write(Key::new(s, 0), 1));
        let parts = parts_of(&wide, 16);
        assert!(parts.spilled());
        assert_eq!(parts[..], [0, 1, 2, 3, 4, 5]);
        assert!(parts_of(&single, 16).spilled(), "whole-cluster fallback");
    }

    #[test]
    fn txn_events_cover_every_transaction_with_timestamps() {
        let out = run_service(&quick(ProtocolKind::TwoPc));
        assert_eq!(out.txn_events.len(), 10);
        for ev in &out.txn_events {
            assert!(ev.decided_at.is_some(), "txn {} unresolved", ev.id);
            assert!(ev.decided_at.unwrap() >= ev.submitted_at);
            assert_eq!(ev.retries, 0);
            assert!(ev.participants >= 2);
        }
        // Grouped by client, each client's in the order it decided them.
        for w in out.txn_events.windows(2) {
            let key = |e: &TxnEvent| (e.client, e.decided_at);
            assert!(key(&w[0]) <= key(&w[1]), "{} before {}", w[0].id, w[1].id);
        }
    }

    /// The audit over node logs (one per node) and client records, as
    /// `aggregate` runs it: the table, each record's rules with the
    /// verdict it was counted by, then each shard's lock rule.
    fn audited(
        logs: Vec<Vec<(TxnId, bool, u64)>>,
        records: &[(TxnId, &[Option<u64>])],
    ) -> Vec<String> {
        let nodes: Vec<NodeReturn> = (logs.into_iter().enumerate())
            .map(|(p, log)| NodeReturn {
                shard: Shard::new(p),
                log: (log.into_iter())
                    .map(|(id, vote, decision)| NodeRecord {
                        id,
                        txn: Arc::new(Transaction::new(id)),
                        client: 0,
                        vote,
                        decision,
                    })
                    .collect(),
                counts: NodeCounts::default(),
                open_instances: 0,
                obs: NodeObs::new(),
            })
            .collect();
        let table = table(SlotBox::new(1, 8), &nodes);
        let mut out = Vec::new();
        for &(id, decisions) in records {
            let rec = ClientRecord {
                id,
                decisions: decisions.iter().copied().collect(),
            };
            audit(&rec, rec.verdict(), table.tag(id), &mut out);
        }
        for (p, r) in nodes.iter().enumerate() {
            audit_locks(p, &r.shard, &mut out);
        }
        out
    }

    /// Every rule of the audit fires, worded as the run reports it, for a
    /// transaction of the slot box and for one outside it alike.
    #[test]
    fn every_audit_rule_fires() {
        const C: u64 = COMMIT;
        const A: u64 = 1 - COMMIT;
        for id in [ServiceConfig::txn_id(0, 3), 7] {
            let yes = |d| (id, true, d);
            let both = [Some(C), Some(C)];
            let clean = audited(vec![vec![yes(C)], vec![yes(C)]], &[(id, &both)]);
            assert_eq!(clean, Vec::<String>::new());
            let stalled = audited(vec![vec![yes(C)], vec![]], &[(id, &[Some(C), None])]);
            assert_eq!(
                stalled,
                Vec::<String>::new(),
                "a stalled record is not audited"
            );

            let split = audited(
                vec![vec![yes(C)], vec![yes(A)]],
                &[(id, &[Some(C), Some(A)])],
            );
            assert_eq!(split, [format!("txn {id}: split decision [0, 1]")]);
            let unlogged = audited(vec![vec![], vec![]], &[(id, &both)]);
            assert_eq!(unlogged, [format!("txn {id}: no node logged it")]);
            let partial = audited(vec![vec![yes(C)], vec![]], &[(id, &both)]);
            assert_eq!(
                partial,
                [format!("txn {id}: 1 of 2 participants logged a decision")]
            );
            let disagree = format!("txn {id}: node logs disagree with client view");
            let other = audited(vec![vec![yes(A)], vec![yes(A)]], &[(id, &both)]);
            assert_eq!(
                other,
                std::slice::from_ref(&disagree),
                "logs agree on another decision"
            );
            let split_logs = audited(vec![vec![yes(C)], vec![yes(A)]], &[(id, &both)]);
            assert_eq!(
                split_logs,
                [disagree],
                "logs split, the first as the client"
            );
            let no_vote = audited(vec![vec![yes(C)], vec![(id, false, C)]], &[(id, &both)]);
            assert_eq!(
                no_vote,
                [format!("txn {id}: committed despite a missing yes-vote")]
            );
            let aborted = audited(
                vec![vec![yes(A)], vec![(id, false, A)]],
                &[(id, &[Some(A); 2])],
            );
            assert_eq!(aborted, Vec::<String>::new(), "a no-vote may abort");
        }

        let mut shard = Shard::new(0);
        let w = Transaction::new(1).with_write(ac_txn::Key::new(0, 5), 1);
        assert!(shard.prepare(&w));
        let mut leaked = Vec::new();
        audit_locks(0, &shard, &mut leaked);
        assert_eq!(leaked, ["shard 0: 1 lock(s) still held after the run"]);
    }

    /// The service's fold — an explicit slot box, each node's ring read in
    /// place, the audit in the same table, one walk per transaction —
    /// equals `Attribution::compute` and an index with no slots at all
    /// over the flattened rings, on a windowed TCP run and a durable
    /// channel run.
    #[test]
    fn the_slot_table_folds_like_the_generic_index() {
        let windowed = |kind| {
            quick(kind)
                .clients(2)
                .txns_per_client(300)
                .max_outstanding(16)
                .park_retries(0)
                .keys_per_shard(1 << 16)
                .workload(Workload::Uniform { span: 2 })
        };
        let tcp = windowed(ProtocolKind::PaxosCommit).transport(TransportKind::Tcp);
        let durable = FaultSpec {
            durable: true,
            ..FaultSpec::none(4)
        };
        let runs = [
            (tcp, FaultSpec::none(4)),
            (windowed(ProtocolKind::TwoPc), durable),
        ];
        let shape = |h: &ac_obs::LatencyHistogram| (h.count(), h.sum(), h.max(), h.p50(), h.p99());
        for (cfg, spec) in runs {
            let out = run_service_faulted(&cfg, &spec);
            assert!(out.is_safe(), "{:?}", out.violations);
            assert_eq!(out.flight.len(), cfg.n);
            for (p, ring) in out.flight.iter().enumerate() {
                assert!(ring.iter().all(|e| e.node as usize == p), "node {p}'s ring");
            }
            let flat = out.flight.concat();
            let spans: Vec<_> = out.decided.iter().map(DumpTxn::span).collect();
            let got = &out.attribution;
            assert!(got.covered > 0 && got.covered == got.total);

            let mut stray = FlightIndex::<()>::with_slots(SlotBox::default(), flat.len());
            stray.add(flat.iter().copied());
            let mut generic = Attribution::default();
            for &span in &spans {
                generic.add(span, &stray.walk(span.0, Some(span.2)), SLOWEST_KEPT);
            }
            let compute = Attribution::compute(&spans, &flat, SLOWEST_KEPT, 0);
            for want in [&generic, &compute] {
                assert_eq!((got.covered, got.total), (want.covered, want.total));
                assert_eq!(shape(&got.e2e), shape(&want.e2e));
                for i in 0..5 {
                    assert_eq!(shape(&got.stages[i]), shape(&want.stages[i]), "stage {i}");
                }
                assert_eq!(got.slowest, want.slowest);
            }

            let derived = FlightIndex::new(&flat);
            for ev in &out.txn_events {
                for index in [&stray, &derived] {
                    let l = index.lifecycle(ev.id);
                    let at = |n: Option<u64>| n.map(Duration::from_nanos);
                    assert_eq!(
                        ev.first_protocol_at,
                        at(l.first_protocol_nanos),
                        "{}",
                        ev.id
                    );
                    assert_eq!(ev.votes_held_at, at(l.votes_held_nanos), "{}", ev.id);
                    assert_eq!(ev.journaled_at, at(l.journaled_nanos), "{}", ev.id);
                }
            }
        }
    }

    /// The closed-loop gate reads the clock once per turn: the window a
    /// client opens on its first turn is submitted at one instant, and no
    /// transaction is decided before it was submitted.
    #[test]
    fn a_client_submits_its_first_window_at_one_instant() {
        let w = 16;
        let cfg = quick(ProtocolKind::PaxosCommit)
            .clients(1)
            .txns_per_client(4 * w)
            .park_retries(0)
            .max_outstanding(w);
        let out = run_service(&cfg);
        assert!(out.is_safe(), "{:?}", out.violations);
        assert_eq!(out.txn_events.len(), 4 * w);
        let submitted_at = |i| {
            let id = ServiceConfig::txn_id(0, i);
            let ev = out.txn_events.iter().find(|e| e.id == id);
            ev.expect("an event per transaction").submitted_at
        };
        let window: Vec<_> = (0..w).map(submitted_at).collect();
        assert!(window.iter().all(|&s| s == window[0]), "{window:?}");
        for ev in &out.txn_events {
            let decided = ev.decided_at.expect("decided");
            assert!(decided >= ev.submitted_at, "txn {}", ev.id);
        }
    }

    /// The tentpole's end-to-end check at unit scale: a healthy run must
    /// attribute (nearly) every transaction, the five stage shares must
    /// telescope to ~100 % of end-to-end p50, every timeline must end
    /// where its client knew the outcome, the lifecycle stamps must be
    /// filled and ordered, and the seam meters must have seen the load.
    #[test]
    fn attribution_telescopes_and_lifecycle_stamps_fill_on_a_live_run() {
        attribution_telescopes_on(ProtocolKind::PaxosCommit);
    }

    /// The same on a protocol whose client waits for every `Done`.
    #[test]
    fn attribution_telescopes_and_lifecycle_stamps_fill_on_a_live_d1cc_run() {
        attribution_telescopes_on(ProtocolKind::D1cc);
    }

    fn attribution_telescopes_on(kind: ProtocolKind) {
        let out = run_service(&quick(kind));
        assert!(out.is_safe(), "{:?}", out.violations);
        let a = &out.attribution;
        assert_eq!(a.total, 10);
        assert_eq!(a.covered, 10, "every decided txn must reconstruct");
        assert_eq!(a.dropped_events, 0);
        assert!(
            (a.share_sum_pct() - 100.0).abs() < 1e-6,
            "stage shares must telescope to 100%, got {}",
            a.share_sum_pct()
        );
        assert_eq!(a.e2e.count(), 10);
        assert!(!a.slowest.is_empty() && a.slowest.len() <= SLOWEST_KEPT);
        assert!(a.slowest[0].e2e_nanos() >= a.slowest[a.slowest.len() - 1].e2e_nanos());
        // No WAL in a healthy run: the wal stage carries zero time.
        assert_eq!(a.stages[2].sum(), 0);
        // Every covered timeline, kept: each anchors at a participant that
        // decided by the client's stamp, so none is clamped past it.
        let spans: Vec<_> = out.decided.iter().map(DumpTxn::span).collect();
        let every = Attribution::compute(&spans, &out.flight.concat(), spans.len(), 0);
        assert_eq!(every.slowest.len(), a.covered);
        for tl in &every.slowest {
            let ev = out.txn_events.iter().find(|e| e.id == tl.txn);
            let ev = ev.expect("an event per timeline");
            let waited = ev.decided_at.expect("decided") - ev.submitted_at;
            assert_eq!(tl.e2e_nanos(), nanos(waited), "txn {}", tl.txn);
        }
        for ev in &out.txn_events {
            let first = ev.first_protocol_at.expect("dispatch stamp");
            let held = ev.votes_held_at.expect("votes-held stamp");
            let journaled = ev.journaled_at.expect("journal stamp");
            assert!(ev.submitted_at <= first, "txn {}", ev.id);
            assert!(first <= held && held <= journaled, "txn {}", ev.id);
        }
        // The seam meters saw the run: every Begin timed a lock acquire,
        // every client wait was metered, decisions flushed.
        assert!(out.stage_meters.get(Stage::LockAcquire).0 > 0);
        assert!(out.stage_meters.get(Stage::ClientQueueWait).0 > 0);
        assert!(out.stage_meters.get(Stage::Flush).0 > 0);
        assert_eq!(out.stage_meters.get(Stage::WalForce).0, 0, "no WAL here");
        assert!(out.stage_meters.get(Stage::DrainGap).0 > 0);
    }

    /// The node meters every write-lock hold it releases: in a durable,
    /// failure-free run with conflicts, `LockHold` counts exactly the
    /// node-log records that voted yes on a transaction writing to that
    /// node's shard — no-votes and read-only participants hold nothing.
    #[test]
    fn lock_hold_counts_each_logged_yes_vote_that_wrote_there() {
        let cfg = quick(ProtocolKind::TwoPc)
            .clients(3)
            .txns_per_client(40)
            .keys_per_shard(8);
        let spec = FaultSpec {
            durable: true,
            ..FaultSpec::none(cfg.n)
        };
        let out = run_service_faulted(&cfg, &spec);
        assert!(out.is_safe(), "{:?}", out.violations);
        assert_eq!(out.stalled, 0);
        let wrote_there =
            |p: usize| move |r: &&NodeRecord| r.txn.writes.keys().any(|k| k.shard == p);
        let held: usize = (out.node_logs.iter().enumerate())
            .map(|(p, log)| log.iter().filter(|r| r.vote).filter(wrote_there(p)).count())
            .sum();
        assert!(
            held > 0 && out.aborted > 0,
            "the run must both hold and conflict"
        );
        let (holds, nanos) = out.stage_meters.get(Stage::LockHold);
        assert_eq!(holds, held as u64);
        assert!(nanos > 0);
    }

    /// Every shard's final state is what replaying its log sequentially
    /// rebuilds.
    fn assert_replays(out: &ServiceOutcome, keys: u64, what: &str) {
        for (live, replayed) in out.shards.iter().zip(out.replay()) {
            for k in 0..keys {
                assert_eq!(
                    live.read(k),
                    replayed.read(k),
                    "{what}: shard {} key {k}",
                    live.id
                );
            }
        }
    }

    /// In-process nodes share one host thread per core this process may
    /// run on (one under a single-CPU pin), never more than there are
    /// nodes, on either transport, and the clients ride those hosts: a
    /// run spends `hosts_for(n)` serving threads in all.
    #[test]
    fn socket_linked_nodes_run_on_one_host_thread_per_core() {
        let cfg = quick(ProtocolKind::PaxosCommit);
        for transport in [TransportKind::Tcp, TransportKind::Channel] {
            let out = run_service(&cfg.clone().transport(transport));
            assert!(out.is_safe(), "{transport:?}: {:?}", out.violations);
            assert_eq!(out.node_threads, hosts_for(cfg.n), "{transport:?}");
        }
    }

    /// The channel service with its nodes and clients dealt onto two
    /// hosts, so that every hop between the hosts is a post that rings a
    /// parked host's bell: every record is there, the audit is clean, the
    /// shards replay from their logs, a light PaxosCommit transaction
    /// costs its four wire messages, and no host wakes without work.
    #[test]
    fn the_channel_service_serves_on_two_hosts_without_a_spurious_wakeup() {
        let n = 4;
        let cfg = ServiceConfig::new(n, 1, ProtocolKind::PaxosCommit)
            .clients(2)
            .txns_per_client(200)
            .workload(Workload::Uniform { span: 2 })
            .keys_per_shard(1 << 20)
            .unit(Duration::from_millis(50))
            .seed(5);
        let out = run_hosted(&cfg, &FaultSpec::none(n), 2);
        assert_eq!(out.node_threads, 2);
        assert!(out.is_safe(), "{:?}", out.violations);
        assert_eq!((out.txns, out.stalled, out.retries), (400, 0, 0));
        assert_eq!(out.txn_events.len(), 400);
        assert_eq!(out.decided.len(), 400);
        let logged: usize = out.node_logs.iter().map(Vec::len).sum();
        assert_eq!(logged, 2 * 400, "a record per participant");
        assert_replays(&out, 64, "two hosts");
        assert_eq!(out.wire_messages, 4 * out.txns);
        assert_eq!(out.spurious_wakeups, 0);
    }

    /// The tcp service with its nodes dealt onto 1, 2 and `n` hosts: every
    /// grouping gives a clean audit, shards that replay from their logs,
    /// and a light PaxosCommit transaction's four wire messages — a
    /// co-hosted peer is written to like any other.
    #[test]
    fn the_tcp_service_serves_alike_on_one_two_and_n_hosts() {
        let n = 4;
        let cfg = ServiceConfig::new(n, 1, ProtocolKind::PaxosCommit)
            .clients(2)
            .txns_per_client(100)
            .workload(Workload::Uniform { span: 2 })
            .keys_per_shard(1 << 20)
            .unit(Duration::from_millis(50))
            .seed(7)
            .transport(TransportKind::Tcp);
        for hosts in [1, 2, n] {
            let out = run_hosted(&cfg, &FaultSpec::none(n), hosts);
            assert_eq!(out.node_threads, hosts);
            assert!(out.is_safe(), "{hosts} hosts: {:?}", out.violations);
            assert_eq!((out.txns, out.stalled, out.retries), (200, 0, 0));
            assert_replays(&out, 64, &format!("{hosts} hosts"));
            assert_eq!(out.wire_messages, 4 * out.txns, "{hosts} hosts");
        }
    }

    /// The clients of a tcp cluster on one host run on that host's thread,
    /// light, windowed and open-loop alike: one thread serves the run, the
    /// audit is clean, the shards replay, nothing stalls, and each
    /// decided transaction costs its four wire messages.
    #[test]
    fn hosted_clients_serve_light_windowed_and_open_loop_loads_on_one_thread() {
        let n = 4;
        let light = ServiceConfig::new(n, 1, ProtocolKind::PaxosCommit)
            .clients(2)
            .txns_per_client(300)
            .workload(Workload::Uniform { span: 2 })
            .keys_per_shard(1 << 20)
            .unit(Duration::from_millis(50))
            .seed(11)
            .transport(TransportKind::Tcp);
        let windowed = light.clone().park_retries(0).max_outstanding(32);
        let open = light.clone().arrival_rate(5_000.0);
        for (load, cfg) in [("light", light), ("windowed", windowed), ("open", open)] {
            let out = run_hosted(&cfg, &FaultSpec::none(n), 1);
            assert_eq!(out.node_threads, 1, "{load}");
            assert!(out.is_safe(), "{load}: {:?}", out.violations);
            assert_eq!((out.stalled, out.retries), (0, 0), "{load}");
            assert_eq!(out.offered, 2 * 300, "{load}");
            assert_eq!(out.txns + out.shed, out.offered, "{load}");
            assert_eq!(out.wire_messages, 4 * out.txns, "{load}");
            assert_replays(&out, 64, load);
        }
    }

    /// A crash window on one member of a four-member host that runs the
    /// clients too: the member goes dark — it dispatches nothing inside
    /// the window — while the host keeps serving its peers, a client's
    /// reply timeout wakes the host and retries, the member restarts from
    /// its log, and shuts down with the others; the audit is clean,
    /// nothing stalls and every shard replays.
    #[test]
    fn a_member_of_a_shared_host_crashes_recovers_from_its_log_and_shuts_down() {
        let n = 4;
        let cfg = ServiceConfig::new(n, 1, ProtocolKind::PaxosCommit)
            .clients(3)
            .txns_per_client(14)
            .workload(Workload::Uniform { span: 3 })
            .unit(Duration::from_millis(5))
            .keys_per_shard(64)
            .seed(23)
            .pacing(Duration::from_millis(8))
            .reply_timeout(Duration::from_millis(60))
            .park_retries(1)
            .txn_deadline(Duration::from_secs(6))
            .transport(TransportKind::Tcp);
        let (down, up) = (Duration::from_millis(50), Duration::from_millis(250));
        let at = |d| Time::from_wall(d, cfg.unit);
        let crash = Crash::at(at(down)).restart(at(up));
        let spec = FaultSpec {
            plan: FaultPlan::none(n).with_crash(1, crash),
            durable: false,
        };
        let out = run_hosted(&cfg, &spec, 1);
        assert_eq!(out.node_threads, 1);
        assert!(out.is_safe(), "{:?}", out.violations);
        assert_eq!(out.stalled, 0);
        assert!(out.retries > 0, "the dark member cost its clients retries");
        let dispatched: Vec<_> = out.flight[1]
            .iter()
            .filter(|e| e.stage == ac_obs::FlightStage::Dispatch)
            .map(|e| Duration::from_nanos(e.at_nanos))
            .collect();
        let dark = down + Duration::from_millis(1)..up;
        assert!(
            dispatched.iter().all(|at| !dark.contains(at)),
            "dispatched while dark"
        );
        assert!(
            dispatched.iter().any(|at| *at >= up),
            "never served after the restart"
        );
        assert!(
            dispatched.iter().any(|at| *at < down),
            "never served before the crash"
        );
        assert_replays(&out, cfg.keys_per_shard, "crash");
    }
}
