//! The live transaction service: `n` long-lived node threads, each owning a
//! [`Shard`] and a [`NodeLoop`] demultiplexer running many concurrent
//! commit-protocol instances, plus a closed-loop load generator of `c`
//! client threads.
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
//!    [`NodeLoop`]. Protocol traffic travels node-to-node as
//!    `(TxnId, A::Msg)` envelopes.
//! 3. When a participant's instance decides, the node applies the decision
//!    to its shard (install writes + release locks on commit, release on
//!    abort), logs it, and reports `Done` to the submitting client.
//! 4. The client measures wall-clock latency submit → all `k` decisions,
//!    then broadcasts `End` so participants can garbage-collect the
//!    instance.
//!
//! Envelopes for instances a node has not opened yet are buffered (a peer's
//! vote can outrun the client's `Begin`); envelopes for ended instances are
//! dropped. Decisions, votes and apply order are logged per node so the
//! caller can audit safety after the run ([`ServiceOutcome::violations`]).
//!
//! ## Failure injection, crash/restart and recovery (since ISSUE-5)
//!
//! [`run_service_faulted`] augments the failure-free service with a
//! [`FaultSpec`]:
//!
//! * a [`NetPolicy`] is consulted for every node-to-node envelope at flush
//!   time and may **drop** or **delay** it (`ac-chaos` implements seeded
//!   plans: partitions, loss, extra latency);
//! * a per-node [`CrashWindow`] crashes the node at a wall-clock offset:
//!   the thread discards its entire volatile state (demux instances,
//!   timers, metadata, the in-memory shard) and ignores all traffic until
//!   the restart offset, when it **recovers from its write-ahead log**
//!   ([`ac_txn::Wal`]): committed state and the decision log are rebuilt,
//!   locks of in-flight prepared transactions are re-taken, their protocol
//!   instances are re-opened (fresh automata with the *logged* vote — no
//!   re-validation), decision reports are re-sent, and a `StatusQ` round
//!   asks peers for decisions reached while the node was down.
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
//! Both loops are **drain-then-dispatch**: a node blocks on the *exact*
//! next deadline (live timer, delayed-envelope release or scheduled crash;
//! or indefinitely when idle — an idle node performs zero wakeups, see
//! [`ServiceOutcome::spurious_wakeups`]), drains its whole inbound backlog
//! in one lock acquisition (`recv_batch_timeout`), dispatches every
//! envelope through the slab-indexed demultiplexer, and only then flushes
//! the outputs — one `send_batch` per peer node and per client. Self-sends
//! short-circuit through an in-memory queue and never touch a channel.
//! Clients stage and flush the same way (see `client_main`).

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ac_commit::problem::COMMIT;
use ac_commit::protocols::ProtocolKind;
use ac_commit::CommitProtocol;
use ac_runtime::{NodeEvent, NodeLoop, Slab, UnitClock};
use ac_sim::ProcessId;
use ac_txn::workload::{ArrivalSchedule, Workload, WorkloadConfig};
use ac_txn::{Shard, Transaction, TxnId, Wal, WalRecord};
use crossbeam::channel::{unbounded, Receiver, RecvError, RecvTimeoutError, Sender};

use ac_obs::{
    lifecycles, Attribution, FlightEvent, FlightStage, LatencyHistogram, NodeObs, ObsExport,
    ObsMeters, Stage, StageHistograms,
};

use crate::inline::InlineVec;
use crate::transport::{ChannelTransport, Outbox, TcpNode, TcpTransport, Transport};

/// Upper bound on envelopes drained per node-loop iteration. Bounds the
/// latency a long backlog can add to timer firing while still amortizing
/// the channel lock across many messages.
const NODE_BATCH: usize = 256;

/// Upper bound on decision replies a client drains per iteration.
const CLIENT_BATCH: usize = 64;

/// How many of the slowest reconstructed transaction timelines the run's
/// [`Attribution`] keeps (the p99.9-straggler material `repro trace`
/// renders).
const SLOWEST_KEPT: usize = 5;

/// Open instances at a node from which a staged WAL batch waits for
/// company when no [`ServiceConfig::wal_flush_interval`] is configured
/// (PostgreSQL's `commit_siblings`). Below it a drain batch already
/// carries every record there is to group, and a hold would only add
/// latency: an unloaded commit stays a few hand-offs. From it on, the
/// records of that many transactions arrive spread over many drain
/// batches, and a node forces at most once per
/// `unit / `[`GROUP_COMMIT_UNIT_SHARE`].
///
/// What the window buys with the in-memory [`Wal`] is not CPU (a force
/// is a `Vec` append) but a clock: since ISSUE-14 no round timer paces a
/// failure-free 2PC/3PC/1NBAC/INBAC commit, so a durable node under a
/// deep window of in-flight transactions would run as fast as the CPU
/// of the minute lets it, and its throughput would read the host, not
/// the service. With the window a loaded durable node is paced at
/// `in flight / (k · window + ε)`, as a log device with a fixed force
/// time would pace it (ROADMAP item 1a).
pub const GROUP_COMMIT_SIBLINGS: usize = 32;

/// The load-adaptive group-commit window is `unit / 5`: short enough
/// that a vote held once at the participant and a decision held once at
/// the coordinator still leave most of the `1·U` a round timer allows a
/// message, long enough that a loaded node idles between forces.
pub const GROUP_COMMIT_UNIT_SHARE: u32 = 5;

/// The group-commit cap in force at a node with `open` instances: the
/// configured interval, else the load-adaptive window.
fn group_commit_cap(configured: Option<Duration>, unit: Duration, open: usize) -> Option<Duration> {
    configured.or_else(|| (open >= GROUP_COMMIT_SIBLINGS).then(|| unit / GROUP_COMMIT_UNIT_SHARE))
}

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
    let parts: Vec<usize> = txn.shards().into_iter().filter(|&p| p < n).collect();
    if parts.len() >= 2 {
        parts
    } else {
        (0..n).collect()
    }
}

/// What the fault layer decides about one node-to-node envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Put it on the wire now.
    Deliver,
    /// Lose it (partition, lossy link).
    Drop,
    /// Deliver it after an extra delay.
    Delay(Duration),
}

/// A fault-injection policy consulted for every node-to-node envelope.
///
/// `seq` is a per-`(from, to)` monotone counter, so a seeded policy can be
/// deterministic without interior mutability (`ac-chaos::FaultProxy` hashes
/// `(seed, from, to, seq)`); `elapsed` is wall time since the service
/// epoch. Client↔node control traffic is *not* subject to the policy (the
/// client is the measurement harness, not a distributed component).
pub trait NetPolicy: Send + Sync {
    /// Decide the fate of one envelope from `from` to `to`.
    fn fate(&self, from: ProcessId, to: ProcessId, elapsed: Duration, seq: u64) -> Fate;
}

/// A scheduled crash (and optional restart) of one node, as wall-clock
/// offsets from the service epoch.
#[derive(Clone, Copy, Debug)]
pub struct CrashWindow {
    /// When the node dies: volatile state dropped, all traffic ignored.
    pub down_after: Duration,
    /// When the node restarts and recovers from its write-ahead log
    /// (`None` = never; it stays dead for the rest of the run).
    pub up_after: Option<Duration>,
}

/// The complete fault configuration of one service run.
pub struct FaultSpec {
    /// Message-level fault policy (drop/delay), if any.
    pub policy: Option<Arc<dyn NetPolicy>>,
    /// Per-node crash schedule.
    pub crashes: Vec<Option<CrashWindow>>,
    /// Force write-ahead logging even without a crash schedule (crash
    /// schedules always enable it — recovery needs the log).
    pub durable: bool,
}

impl FaultSpec {
    /// No faults, no durability — the failure-free fast path.
    pub fn none(n: usize) -> FaultSpec {
        FaultSpec {
            policy: None,
            crashes: vec![None; n],
            durable: false,
        }
    }

    /// Whether any node has a crash scheduled.
    pub fn any_crash(&self) -> bool {
        self.crashes.iter().any(|c| c.is_some())
    }
}

/// Which transport carries node-to-node envelopes (see
/// [`crate::transport`]). Client↔node control traffic stays in-process
/// either way when the whole service runs in one process; the `ac-node`
/// / `ac-client` binaries put it on TCP too.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process crossbeam channels (the fast/test path).
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
#[derive(Clone, Debug)]
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
    /// Number of closed-loop client threads (the concurrency level).
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
    /// Upper bound on simultaneously outstanding (parked + active)
    /// transactions per client; reaching it blocks submission.
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
    /// Time-based cap on WAL group commit: a node holds its staged
    /// record batch (and the envelopes/replies that depend on it) for at
    /// most this long before forcing, letting one force absorb appends
    /// across *several* drain batches. `None` (the default) = the
    /// load-adaptive window: force once per drain batch that staged
    /// records — no added latency — until [`GROUP_COMMIT_SIBLINGS`]
    /// instances are open at the node, and from there on at most once
    /// per `unit / `[`GROUP_COMMIT_UNIT_SHARE`]. A zero interval never
    /// holds.
    pub wal_flush_interval: Option<Duration>,
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
            max_outstanding: 16,
            pacing: None,
            arrival_rate: None,
            wal_flush_interval: None,
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

    /// Set the time-based group-commit cap (builder style).
    pub fn wal_flush_interval(mut self, iv: Duration) -> ServiceConfig {
        self.wal_flush_interval = Some(iv);
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

    /// The globally unique id of client `client`'s `i`-th transaction.
    pub fn txn_id(client: usize, i: usize) -> TxnId {
        ((client as u64 + 1) << 32) | (i as u64 + 1)
    }
}

/// One entry of a node's apply log: the transaction, this node's vote, and
/// the decided outcome, in the order decisions were applied to the shard.
/// A recovered node rebuilds this log from its write-ahead log.
#[derive(Clone, Debug)]
pub struct NodeRecord {
    /// The transaction.
    pub txn: Arc<Transaction>,
    /// The submitting client.
    pub client: usize,
    /// This node's vote (its shard's local validation verdict).
    pub vote: bool,
    /// The decided value (1 = commit).
    pub decision: u64,
}

/// Outcome of one client transaction as the client observed it.
#[derive(Clone, Debug)]
pub(crate) struct ClientRecord {
    pub(crate) txn: Arc<Transaction>,
    /// Decision reported by each participant, in participant-rank order
    /// (None = never arrived before abandonment).
    pub(crate) decisions: Vec<Option<u64>>,
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
    /// When the client held all participant decisions (`None` =
    /// abandoned/stalled).
    pub decided_at: Option<Duration>,
    /// The agreed outcome (`None` = never fully decided at the client).
    pub committed: Option<bool>,
    /// `Begin` re-sends this transaction needed.
    pub retries: u32,
    /// Earliest `Begin` dispatch at any participant — the first protocol
    /// event (from the flight recorder; `None` when the transaction was
    /// unsampled or its events were lost to ring wrap-around).
    pub first_protocol_at: Option<Duration>,
    /// Latest participant lock acquisition: every vote cast, all write
    /// locks of yes-votes held.
    pub votes_held_at: Option<Duration>,
    /// Latest participant decision apply (the decision is journaled at
    /// every participant from this point).
    pub journaled_at: Option<Duration>,
}

/// Aggregated result of a [`run_service`] run.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// The protocol that served the run.
    pub kind: ProtocolKind,
    /// Closed-loop client threads.
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
    /// Per-transaction wall-clock latency (submit → all decisions).
    pub latency: LatencyHistogram,
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
    /// Node-loop wakeups that found neither a message nor a due timer
    /// (0 = every wakeup did useful work; idle nodes park indefinitely).
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
    /// participant). Zero when the run has no WAL.
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
    /// Per-transaction timelines, grouped by client, submission order.
    pub txn_events: Vec<TxnEvent>,
    /// Per-stage seam meters (count, total nanos), merged across every
    /// node and client thread.
    pub stage_meters: ObsMeters,
    /// Per-stage seam latency histograms, merged across every thread
    /// (merge ≡ recording the concatenation).
    pub stage_hists: StageHistograms,
    /// Per-transaction latency attribution: the five-stage telescoping
    /// decomposition of every covered commit (see [`ac_obs::Attribution`]).
    pub attribution: Attribution,
    /// Safety violations found by the post-run audit (empty = safe).
    pub violations: Vec<String>,
}

impl ServiceOutcome {
    /// Committed transactions per second of the load phase.
    ///
    /// Divides by the **full** wall time, ramp-up and drain included —
    /// fine for comparing closed-loop runs of identical shape, but it
    /// flatters nothing and understates steady-state rates. Saturation
    /// curves use [`ServiceOutcome::goodput_tps`] instead.
    pub fn throughput_tps(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Committed transactions per second over the **trimmed
    /// steady-state window**: commits whose decision landed in the
    /// middle 80 % of the run (first and last 10 % of wall time
    /// excluded), divided by that window's length. This removes the
    /// measurement-window bias of [`ServiceOutcome::throughput_tps`] —
    /// ramp-up (clients starting) and drain (stragglers completing after
    /// the schedule ends) no longer dilute the rate — so open-loop
    /// offered-vs-goodput curves compare like for like across load
    /// steps.
    pub fn goodput_tps(&self) -> f64 {
        let total = self.elapsed;
        let lo = total.mul_f64(0.1);
        let hi = total.mul_f64(0.9);
        let window = (hi - lo).as_secs_f64();
        if window <= 0.0 {
            return self.throughput_tps();
        }
        let in_window = self
            .txn_events
            .iter()
            .filter(|e| e.committed == Some(true))
            .filter_map(|e| e.decided_at)
            .filter(|&d| d >= lo && d < hi)
            .count();
        in_window as f64 / window
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
    /// The submitting client saw every participant decision; the
    /// instance can be garbage-collected.
    End {
        /// The finished transaction.
        txn: TxnId,
    },
    /// A collector asks for this node's observability export (flight
    /// recorder, stage histograms, meters, transport counters). The
    /// node answers through the `NodeEnv::obs_pull` channel; hosts
    /// without that channel (the in-process service, whose recorders
    /// are already local) ignore the request.
    ObsPull {
        /// The requesting collector's client id (routes the `ObsDump`
        /// back down that client's registered connection).
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

/// Per-open-transaction node state: body, routing and the local vote.
struct TxnMeta {
    txn: Arc<Transaction>,
    client: usize,
    vote: bool,
    /// Participant shards, ascending; protocol rank = index here.
    parts: Vec<usize>,
    /// This node's rank within `parts`.
    my_rank: usize,
}

/// An envelope held back by a [`Fate::Delay`] verdict, released at `due`.
struct DelayedEnv<M> {
    due: Instant,
    seq: u64,
    to: ProcessId,
    env: ToNode<M>,
}

impl<M> PartialEq for DelayedEnv<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for DelayedEnv<M> {}
impl<M> PartialOrd for DelayedEnv<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for DelayedEnv<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on `due`.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

pub(crate) struct NodeReturn {
    pub(crate) shard: Shard,
    pub(crate) log: Vec<NodeRecord>,
    /// Wakeups that found neither a message nor a due timer.
    pub(crate) spurious_wakeups: usize,
    pub(crate) dropped_messages: usize,
    pub(crate) delayed_messages: usize,
    pub(crate) orphaned_envelopes: usize,
    /// Transactions still open at exit: begun here and never `End`ed.
    #[cfg(test)]
    pub(crate) open_instances: usize,
    /// Prepare records staged on the Begin critical path (the records a
    /// pre-group-commit node forced one by one).
    pub(crate) wal_prepare_forces: usize,
    /// WAL force operations this node issued (one per non-empty staged
    /// batch).
    pub(crate) wal_forces: usize,
    /// The thread's observability bundle (meters, stage histograms,
    /// flight recorder), merged by [`aggregate`].
    pub(crate) obs: NodeObs,
}

pub(crate) struct ClientReturn {
    pub(crate) records: Vec<ClientRecord>,
    pub(crate) events: Vec<TxnEvent>,
    pub(crate) latency: LatencyHistogram,
    pub(crate) stalled: usize,
    pub(crate) retries: usize,
    pub(crate) reply_timeouts: usize,
    /// Arrivals the schedule offered (submissions + sheds).
    pub(crate) offered: usize,
    /// Open-loop arrivals shed at a full in-flight window.
    pub(crate) shed: usize,
    /// Client-side observability (the `ClientQueueWait` seam and the
    /// client transport's share of `TcpWrite`).
    pub(crate) obs: NodeObs,
}

/// Run the configured service end-to-end, failure-free, and audit it.
pub fn run_service(cfg: &ServiceConfig) -> ServiceOutcome {
    run_service_faulted(cfg, &FaultSpec::none(cfg.n))
}

/// Dispatch on a [`ProtocolKind`] to monomorphized code: `$p` is bound
/// to the protocol type inside `$body`. Shared by the in-process engine
/// and the `ac-node`/`ac-client` process drivers.
macro_rules! with_protocol {
    ($kind:expr, $p:ident => $body:expr) => {{
        use ac_commit::protocols::*;
        match $kind {
            ProtocolKind::Inbac => {
                type $p = Inbac;
                $body
            }
            ProtocolKind::InbacFastAbort => {
                type $p = InbacFastAbort;
                $body
            }
            ProtocolKind::Nbac1 => {
                type $p = Nbac1;
                $body
            }
            ProtocolKind::D1cc => {
                type $p = D1cc;
                $body
            }
            ProtocolKind::Nbac0 => {
                type $p = Nbac0;
                $body
            }
            ProtocolKind::ANbac => {
                type $p = ANbac;
                $body
            }
            ProtocolKind::AvNbacDelayOpt => {
                type $p = AvNbacDelayOpt;
                $body
            }
            ProtocolKind::AvNbacMsgOpt => {
                type $p = AvNbacMsgOpt;
                $body
            }
            ProtocolKind::ChainNbac => {
                type $p = ChainNbac;
                $body
            }
            ProtocolKind::Nbac2n2 => {
                type $p = Nbac2n2;
                $body
            }
            ProtocolKind::Nbac2n2f => {
                type $p = Nbac2n2f;
                $body
            }
            ProtocolKind::TwoPc => {
                type $p = TwoPc;
                $body
            }
            ProtocolKind::ThreePc => {
                type $p = ThreePc;
                $body
            }
            ProtocolKind::PaxosCommit => {
                type $p = PaxosCommit;
                $body
            }
            ProtocolKind::FasterPaxosCommit => {
                type $p = FasterPaxosCommit;
                $body
            }
        }
    }};
}
pub(crate) use with_protocol;

/// Run the configured service under a fault specification (see the module
/// docs' "Failure injection" section). Dispatches on `cfg.kind` to the
/// generic engine — any protocol of the suite can serve.
pub fn run_service_faulted(cfg: &ServiceConfig, spec: &FaultSpec) -> ServiceOutcome {
    with_protocol!(cfg.kind, P => serve::<P>(cfg, spec))
}

/// Everything one node thread needs (bundled so crash/restart state rides
/// along without a dozen loose parameters).
pub(crate) struct NodeEnv<P: CommitProtocol> {
    pub(crate) me: ProcessId,
    pub(crate) n: usize,
    pub(crate) f: usize,
    pub(crate) unit: Duration,
    pub(crate) epoch: Instant,
    pub(crate) rx: Receiver<ToNode<P::Msg>>,
    /// The node-to-node seam: everything the flush step emits goes
    /// through here ([`ChannelTransport`] or [`TcpTransport`]).
    pub(crate) transport: Box<dyn Transport<P::Msg>>,
    pub(crate) done_txs: Vec<Sender<Done>>,
    pub(crate) wire: Arc<AtomicUsize>,
    pub(crate) policy: Option<Arc<dyn NetPolicy>>,
    pub(crate) window: Option<CrashWindow>,
    pub(crate) wal: Option<Arc<Mutex<Wal>>>,
    /// Time-based group-commit cap (see
    /// [`ServiceConfig::wal_flush_interval`]).
    pub(crate) wal_flush_interval: Option<Duration>,
    /// Logless protocol ([`ProtocolKind::logless`]): skip the Begin-path
    /// Prepare force and journal the prepare alongside the decision
    /// instead — the decision is reconstructible from peer votes, so
    /// nothing needs to be durable before the vote leaves the node.
    pub(crate) logless: bool,
    /// The thread's observability bundle. Multi-process hosts pass
    /// [`NodeObs::with_meters`] so a live `--metrics` endpoint can read
    /// the shared registry; the in-process service uses a private one.
    pub(crate) obs: NodeObs,
    /// Where an [`ToNode::ObsPull`] answer goes: `(client, export)` —
    /// the multi-process host forwards it as an `ObsDump` frame down the
    /// requesting client's connection. `None` (the in-process service)
    /// makes `ObsPull` a no-op.
    pub(crate) obs_pull: Option<Sender<(usize, ObsExport)>>,
}

fn serve<P>(cfg: &ServiceConfig, spec: &FaultSpec) -> ServiceOutcome
where
    P: CommitProtocol + Send + 'static,
    P::Msg: ac_sim::Wire + Send + 'static,
{
    assert!(cfg.n >= 2 && cfg.f >= 1 && cfg.f < cfg.n, "invalid (n, f)");
    assert!(cfg.clients >= 1);
    assert_eq!(spec.crashes.len(), cfg.n, "one crash slot per node");
    let n = cfg.n;

    // Node inboxes (nodes and clients all hold senders) and per-client
    // reply channels.
    let node_ch: Vec<_> = (0..n).map(|_| unbounded::<ToNode<P::Msg>>()).collect();
    let (node_txs, node_rxs): (Vec<_>, Vec<_>) = node_ch.into_iter().unzip();
    let client_ch: Vec<_> = (0..cfg.clients).map(|_| unbounded::<Done>()).collect();
    let (done_txs, done_rxs): (Vec<_>, Vec<_>) = client_ch.into_iter().unzip();
    let wire = Arc::new(AtomicUsize::new(0));

    // In TCP mode each node gets a loopback listener whose reader
    // threads feed its ordinary inbox channel; senders dial the listener
    // addresses. Decision replies (node→client) and `Shutdown` stay on
    // in-process channels: the clients are the measurement harness, and
    // teardown must reach a node even if its sockets are wedged. The
    // `ac-node`/`ac-client` binaries put those on TCP too.
    let tcp_nodes: Vec<TcpNode> = match cfg.transport {
        TransportKind::Channel => Vec::new(),
        TransportKind::Tcp => (0..n)
            .map(|me| {
                TcpNode::bind("127.0.0.1:0", node_txs[me].clone(), None)
                    .expect("bind loopback listener")
            })
            .collect(),
    };
    let addrs: Vec<std::net::SocketAddr> = tcp_nodes.iter().map(|t| t.addr()).collect();
    let make_transport = |_who: &str| -> Box<dyn Transport<P::Msg>> {
        match cfg.transport {
            TransportKind::Channel => Box::new(ChannelTransport::new(node_txs.clone())),
            TransportKind::Tcp => Box::new(TcpTransport::new(addrs.clone())),
        }
    };

    // Write-ahead logs live *outside* the node threads — the in-process
    // stand-in for durable storage that survives a crash.
    let durable = spec.durable || spec.any_crash();
    let wals: Vec<Option<Arc<Mutex<Wal>>>> = (0..n)
        .map(|_| durable.then(|| Arc::new(Mutex::new(Wal::new()))))
        .collect();

    let epoch = Instant::now();
    let node_handles: Vec<_> = node_rxs
        .into_iter()
        .enumerate()
        .map(|(me, rx)| {
            let env = NodeEnv::<P> {
                me,
                n,
                f: cfg.f,
                unit: cfg.unit,
                epoch,
                rx,
                transport: make_transport("node"),
                done_txs: done_txs.clone(),
                wire: Arc::clone(&wire),
                policy: spec.policy.clone(),
                window: spec.crashes[me],
                wal: wals[me].clone(),
                wal_flush_interval: cfg.wal_flush_interval,
                logless: cfg.kind.logless(),
                obs: NodeObs::new(),
                obs_pull: None,
            };
            std::thread::spawn(move || node_main::<P>(env))
        })
        .collect();

    let client_handles: Vec<_> = done_rxs
        .into_iter()
        .enumerate()
        .map(|(client, rx)| {
            let transport = make_transport("client");
            let cfg = cfg.clone();
            std::thread::spawn(move || client_main::<P>(client, &cfg, epoch, transport, rx))
        })
        .collect();

    let client_returns: Vec<ClientReturn> = client_handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    let elapsed = epoch.elapsed();

    for tx in &node_txs {
        let _ = tx.send(ToNode::Shutdown);
    }
    drop(node_txs);
    let node_returns: Vec<NodeReturn> = node_handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect();
    for t in tcp_nodes {
        t.shutdown();
    }

    aggregate(cfg, client_returns, node_returns, elapsed, &wire)
}

/// The submitting client encoded in a [`TxnId`] (inverse of
/// [`ServiceConfig::txn_id`]).
fn txn_client(id: TxnId) -> usize {
    ((id >> 32) as usize).saturating_sub(1)
}

/// The per-client sequence number encoded in a [`TxnId`].
fn txn_seq(id: TxnId) -> u64 {
    id & 0xFFFF_FFFF
}

/// Apply every buffered decision to the shard, the staged WAL batch, the
/// node log and the per-client reply batches. Called once per node-loop
/// iteration, and additionally before an `End` garbage-collects a
/// transaction's metadata (a decision and its `End` can land in the same
/// drained batch).
///
/// Durability rides on group commit: records are **staged** into
/// `wal_batch` here and forced once per drain batch in the flush step —
/// before any `Done` staged here can leave the node — so the
/// durability-before-reply invariant is unchanged while the force cost
/// is amortized.
///
/// A logless commit for a crash-recovered transaction (no local
/// yes-vote, so no locks held) must re-take its write locks before the
/// writes can apply — but only when they are **free**. A different live
/// transaction may have prepared (voted yes, taken a lock) at this node
/// since the restart; overwriting its lock would make its own later
/// `finish` silently skip its writes — a lost update diverging the live
/// shard from the sequential replay. Such commits wait in `deferred`
/// until the owner decides and releases the lock (every protocol in the
/// suite terminates by timeout, so it does) and are re-examined on every
/// call. Startup WAL replay is the only place an unconditional
/// [`Shard::relock`] is sound: it runs before any live traffic.
#[allow(clippy::too_many_arguments)]
fn apply_decisions(
    decided: &mut Vec<(TxnId, u64)>,
    deferred: &mut Vec<(TxnId, u64)>,
    meta: &Slab<TxnMeta>,
    shard: &mut Shard,
    log: &mut Vec<NodeRecord>,
    done_out: &mut [Vec<Done>],
    me: ProcessId,
    wal_batch: Option<&mut Vec<WalRecord>>,
    decided_map: &mut HashMap<TxnId, u64>,
    logless: bool,
    obs: &mut NodeObs,
    epoch: Instant,
) {
    let mut wal_batch = wal_batch;
    // Deferred decisions are re-examined ahead of the new batch: the
    // lock owner that blocked them may have finished since.
    if !deferred.is_empty() {
        deferred.extend(decided.drain(..));
        std::mem::swap(decided, deferred);
    }
    loop {
        let mut progress = false;
        let mut blocked: Vec<(TxnId, u64)> = Vec::new();
        for (txn_id, value) in decided.drain(..) {
            if decided_map.contains_key(&txn_id) {
                continue; // duplicate (e.g. StatusA raced the protocol decide)
            }
            let Some(m) = meta.get(txn_id) else {
                continue;
            };
            let commit = value == COMMIT;
            // Logless vote reconstruction: a commit proves every
            // participant voted yes (commit validity), so journal yes even
            // if this node re-joined the transaction voteless after a
            // crash — the protocol decided on the pre-crash yes its peers
            // hold.
            let vote = if logless { m.vote || commit } else { m.vote };
            if logless && commit && !m.vote {
                // The pre-crash yes-vote's locks died with the crash and
                // the re-joined transaction holds none. Re-take them only
                // if no live transaction owns one (see the fn docs).
                if shard.foreign_lock_owner(&m.txn).is_some() {
                    blocked.push((txn_id, value));
                    continue;
                }
                shard.relock(&m.txn);
            }
            shard.finish(&m.txn, commit);
            if let Some(batch) = wal_batch.as_deref_mut() {
                let t0 = Instant::now();
                if logless {
                    // The deferred prepare record: staged together with
                    // the decision, after the outcome is known — a journal
                    // entry, not a critical-path force.
                    batch.push(WalRecord::Prepare {
                        txn: Arc::clone(&m.txn),
                        client: m.client,
                        vote,
                    });
                }
                batch.push(WalRecord::Decide { txn: txn_id, value });
                obs.record(Stage::WalJournal, t0.elapsed());
            }
            obs.flight.record(
                txn_id,
                me as u32,
                FlightStage::Decided,
                Instant::now().saturating_duration_since(epoch),
            );
            decided_map.insert(txn_id, value);
            log.push(NodeRecord {
                txn: Arc::clone(&m.txn),
                client: m.client,
                vote,
                decision: value,
            });
            if let Some(buf) = done_out.get_mut(m.client) {
                buf.push(Done {
                    txn: txn_id,
                    node: me,
                    decision: value,
                });
            }
            progress = true;
        }
        // An apply in this pass may have released the very lock a
        // blocked decision waits on — retry until quiescent.
        if blocked.is_empty() || !progress {
            *deferred = blocked;
            break;
        }
        *decided = blocked;
    }
}

/// One node thread: shard owner + instance demultiplexer, batched
/// drain-then-dispatch, with fault-policy flush and crash/restart (see the
/// module docs).
pub(crate) fn node_main<P>(env: NodeEnv<P>) -> NodeReturn
where
    P: CommitProtocol,
    P::Msg: Send + 'static,
{
    let NodeEnv {
        me,
        n,
        f,
        unit,
        epoch,
        rx,
        mut transport,
        done_txs,
        wire,
        policy,
        window,
        wal,
        wal_flush_interval,
        logless,
        mut obs,
        obs_pull,
    } = env;
    let mut node: NodeLoop<P> = NodeLoop::new(me, n, UnitClock::new(unit));
    let mut shard = Shard::new(me);
    // txn -> (body, client, vote, participant routing); live while open.
    let mut meta: Slab<TxnMeta> = Slab::new();
    // Envelopes that outran their Begin (first few inline, no allocation);
    // senders recorded as global node ids, translated on drain.
    let mut pending: Slab<InlineVec<(ProcessId, P::Msg)>> = Slab::new();
    // Per-client Begin watermark: the highest per-client sequence number
    // this node has opened. Each client's control stream is FIFO (one
    // channel sender per client), so a protocol envelope whose seq is at
    // or below the watermark and whose instance is not open belongs to an
    // *ended* (or crash-lost) transaction — a late straggler to drop; the
    // recovery path resolves crash-lost ones via client retries.
    let mut begun: Vec<u64> = vec![0; done_txs.len()];
    let mut log: Vec<NodeRecord> = Vec::new();
    let mut decided: Vec<(TxnId, u64)> = Vec::new();
    // Logless recovered commits waiting for a live lock owner to finish
    // before they can relock and apply (see `apply_decisions`).
    let mut deferred: Vec<(TxnId, u64)> = Vec::new();
    // Decisions applied and not yet End-ed: answers StatusQ, deduplicates
    // retried Begins, survives into the recovery path via the WAL.
    let mut decided_map: HashMap<TxnId, u64> = HashMap::new();
    // Reused batch buffers: inbound drain, per-peer outbound envelopes,
    // per-client decision replies, and the self-delivery queue.
    let mut inbox: Vec<ToNode<P::Msg>> = Vec::with_capacity(NODE_BATCH);
    let mut outbox: Outbox<P::Msg> = Outbox::new(n);
    // Envelopes the fault policy has cleared for the wire (judged
    // `Deliver`, or delay-released), waiting for the flush point.
    let mut cleared: Outbox<P::Msg> = Outbox::new(n);
    let mut done_out: Vec<Vec<Done>> = (0..done_txs.len()).map(|_| Vec::new()).collect();
    let mut selfq: VecDeque<(TxnId, P::Msg)> = VecDeque::new();
    // Envelopes held back by Fate::Delay, released at their due instant.
    let mut delayed: BinaryHeap<DelayedEnv<P::Msg>> = BinaryHeap::new();
    // Per-destination envelope counters feeding the policy's seeded RNG.
    let mut net_seq: Vec<u64> = vec![0; n];
    let mut spurious_wakeups = 0usize;
    let mut dropped_messages = 0usize;
    let mut delayed_messages = 0usize;
    let mut orphaned_envelopes = 0usize;
    let mut wal_prepare_forces = 0usize;
    let mut wal_forces = 0usize;
    // Group-commit staging: records accumulated across this iteration's
    // dispatch (Begin prepares and applied decisions), forced into the
    // shared WAL **once** at the top of the flush step — before any
    // envelope or reply that depends on them can leave the node. The
    // buffer is node-thread state, i.e. *volatile*: a crash loses the
    // unforced tail, which by construction only ever covers transactions
    // whose votes/replies were never sent (= unacknowledged).
    let mut wal_batch: Vec<WalRecord> = Vec::new();
    // Prepare txn ids staged in `wal_batch`, stamped `WalForced` when the
    // batch actually forces.
    let mut wal_stamp: Vec<TxnId> = Vec::new();
    // Last durability point, for the optional time-based flush cap.
    let mut last_force = Instant::now();
    let mut crashed = false;
    let mut skip_wait = false;
    let mut shutdown = false;

    // Route one NodeLoop effect: remote sends are *staged* into the
    // per-peer outbox (flushed once per iteration as a batch, through the
    // fault policy), self-sends go through the in-memory queue without
    // touching any channel, and decisions are buffered and applied after
    // the engine call returns. `Send.to` is an instance-local *rank*,
    // translated to a global node id through the transaction's metadata.
    macro_rules! sink {
        () => {
            |ev: NodeEvent<P::Msg>| match ev {
                NodeEvent::Send { instance, to, msg } => {
                    let Some(m) = meta.get(instance) else { return };
                    let Some(&global) = m.parts.get(to) else {
                        return;
                    };
                    if global == me {
                        selfq.push_back((instance, msg));
                    } else {
                        outbox.stage(
                            global,
                            ToNode::Net {
                                txn: instance,
                                from: me,
                                msg,
                            },
                        );
                    }
                }
                NodeEvent::Decided { instance, value } => decided.push((instance, value)),
            }
        };
    }

    while !shutdown {
        // 0. Scheduled crash: drop all volatile state, go dark until the
        //    restart offset, then recover from the write-ahead log.
        if let Some(w) = window {
            if !crashed && Instant::now() >= epoch + w.down_after {
                crashed = true;
                node.reset();
                meta = Slab::new();
                pending = Slab::new();
                decided.clear();
                deferred.clear();
                decided_map.clear();
                selfq.clear();
                delayed.clear();
                outbox = Outbox::new(n);
                cleared = Outbox::new(n);
                for b in done_out.iter_mut() {
                    b.clear();
                }
                log.clear();
                shard = Shard::new(me);
                begun.iter_mut().for_each(|w| *w = 0);
                // The staged-but-unforced WAL tail is node-thread memory
                // and dies with the crash: exactly the records whose
                // dependent envelopes/replies never left the node, so
                // only unacknowledged transactions are lost.
                wal_batch.clear();
                wal_stamp.clear();

                // Dead window: every envelope sent to a dead node is lost.
                let up_at = w.up_after.map(|u| epoch + u);
                'dead: loop {
                    inbox.clear();
                    let got = match up_at {
                        Some(t) => {
                            let left = t.saturating_duration_since(Instant::now());
                            if left.is_zero() {
                                break 'dead;
                            }
                            match rx.recv_batch_timeout(&mut inbox, NODE_BATCH, left) {
                                Ok(k) => k,
                                Err(RecvTimeoutError::Timeout) => 0,
                                Err(RecvTimeoutError::Disconnected) => {
                                    shutdown = true;
                                    break 'dead;
                                }
                            }
                        }
                        None => match rx.recv_batch(&mut inbox, NODE_BATCH) {
                            Ok(k) => k,
                            Err(RecvError) => {
                                shutdown = true;
                                break 'dead;
                            }
                        },
                    };
                    if got > 0 && inbox.drain(..).any(|e| matches!(e, ToNode::Shutdown)) {
                        shutdown = true;
                        break 'dead;
                    }
                }
                if shutdown {
                    break;
                }
                // Discard whatever piled up while dead (it was addressed to
                // a dead node), then recover.
                inbox.clear();
                while rx.try_drain(&mut inbox, NODE_BATCH) > 0 {
                    if inbox.drain(..).any(|e| matches!(e, ToNode::Shutdown)) {
                        shutdown = true;
                    }
                }
                if shutdown {
                    break;
                }
                if let Some(wal) = &wal {
                    let rec = wal.lock().expect("wal poisoned").replay(me);
                    shard = rec.shard;
                    let now = Instant::now();
                    for d in &rec.decided {
                        decided_map.insert(d.txn.id, d.value);
                        if let Some(w) = begun.get_mut(d.client) {
                            *w = (*w).max(txn_seq(d.txn.id));
                        }
                        log.push(NodeRecord {
                            txn: Arc::clone(&d.txn),
                            client: d.client,
                            vote: d.vote,
                            decision: d.value,
                        });
                        // Re-report: the pre-crash Done may never have been
                        // flushed (clients deduplicate).
                        if let Some(buf) = done_out.get_mut(d.client) {
                            buf.push(Done {
                                txn: d.txn.id,
                                node: me,
                                decision: d.value,
                            });
                        }
                    }
                    for p in rec.in_flight {
                        let parts = participants_of(&p.txn, n);
                        let Some(my_rank) = parts.iter().position(|&q| q == me) else {
                            continue;
                        };
                        let k = parts.len();
                        let f_eff = f.min(k - 1);
                        if let Some(w) = begun.get_mut(p.client) {
                            *w = (*w).max(txn_seq(p.txn.id));
                        }
                        let id = p.txn.id;
                        // Ask peers whether the instance decided while we
                        // were down; re-join it either way with the
                        // *logged* vote (never re-validated — peers may
                        // have acted on it).
                        for &q in parts.iter().filter(|&&q| q != me) {
                            outbox.stage(q, ToNode::StatusQ { txn: id, from: me });
                        }
                        meta.insert(
                            id,
                            TxnMeta {
                                txn: p.txn,
                                client: p.client,
                                vote: p.vote,
                                parts,
                                my_rank,
                            },
                        );
                        node.open_as(
                            id,
                            P::new(my_rank, k, f_eff, p.vote),
                            my_rank,
                            k,
                            now,
                            &mut sink!(),
                        );
                    }
                }
                skip_wait = true; // flush recovery traffic immediately
            }
        }

        // 1. Drain: park until the exact next deadline — earliest pending
        //    timer, delayed-envelope release or scheduled crash; or
        //    indefinitely when none is pending (an inbound envelope or
        //    Shutdown wakes us) — then take the whole backlog in one lock
        //    acquisition.
        inbox.clear();
        let mut wake_at: Option<Instant> = node.next_due();
        if let Some(d) = delayed.peek() {
            wake_at = Some(wake_at.map_or(d.due, |w| w.min(d.due)));
        }
        // A held-back staged WAL batch must force (and release the flush
        // it gates) no later than the time cap.
        if let Some(iv) = group_commit_cap(wal_flush_interval, unit, meta.len()) {
            if !wal_batch.is_empty() {
                let at = last_force + iv;
                wake_at = Some(wake_at.map_or(at, |x| x.min(at)));
            }
        }
        if let Some(w) = window {
            if !crashed {
                let at = epoch + w.down_after;
                wake_at = Some(wake_at.map_or(at, |x| x.min(at)));
            }
        }
        let got = if skip_wait {
            skip_wait = false;
            rx.try_drain(&mut inbox, NODE_BATCH)
        } else {
            match wake_at {
                Some(due) => {
                    let wait = due.saturating_duration_since(Instant::now());
                    match rx.recv_batch_timeout(&mut inbox, NODE_BATCH, wait) {
                        Ok(k) => k,
                        Err(RecvTimeoutError::Timeout) => 0,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                None => match rx.recv_batch(&mut inbox, NODE_BATCH) {
                    Ok(k) => k,
                    Err(RecvError) => break,
                },
            }
        };

        // 2. Dispatch every envelope through the demultiplexer. One clock
        //    read serves the whole batch: dispatch takes microseconds
        //    against multi-millisecond virtual-time units, and timers set
        //    "in the past" fire in step 3 anyway.
        let now = Instant::now();
        for env in inbox.drain(..) {
            match env {
                ToNode::Begin { txn, client, retry } => {
                    let id = txn.id;
                    debug_assert_eq!(txn_client(id), client, "TxnId encoding drifted");
                    if let Some(m) = meta.get(id) {
                        // A client retry of a live instance. Decided: just
                        // re-report. Undecided: cooperative termination —
                        // ask the other participants whether they decided
                        // (a partition may have eaten the outcome; for 2PC
                        // this is the only way a blocked participant ever
                        // learns a decision the coordinator reached).
                        match decided_map.get(&id) {
                            Some(&v) => {
                                if let Some(buf) = done_out.get_mut(client) {
                                    buf.push(Done {
                                        txn: id,
                                        node: me,
                                        decision: v,
                                    });
                                }
                            }
                            None => {
                                for &q in m.parts.iter().filter(|&&q| q != me) {
                                    outbox.stage(q, ToNode::StatusQ { txn: id, from: me });
                                }
                            }
                        }
                    } else if let Some(&v) = decided_map.get(&id) {
                        // Decided before a crash, recovered from the WAL.
                        if let Some(buf) = done_out.get_mut(client) {
                            buf.push(Done {
                                txn: id,
                                node: me,
                                decision: v,
                            });
                        }
                    } else {
                        let parts = participants_of(&txn, n);
                        let Some(my_rank) = parts.iter().position(|&q| q == me) else {
                            continue; // not a participant: not ours to vote on
                        };
                        if logless && retry {
                            // Ask-before-revote (the Cornus recovery
                            // rule). A *retried* Begin with no local
                            // record means this node either crashed
                            // after voting — the logless vote was
                            // volatile and is gone — or was down when
                            // the original Begin arrived. Either way,
                            // validating afresh could broadcast a vote
                            // contradicting a pre-crash yes that peers
                            // already assembled into a commit: a split
                            // decision. So the node never re-votes. It
                            // re-joins the transaction voteless and
                            // with no protocol instance, asks the
                            // peers, and adopts whatever decision the
                            // surviving vote vectors produced
                            // (`StatusA`). Peers missing this node's
                            // vote timeout-abort on their own, so some
                            // peer always has an answer for a later
                            // retry round.
                            if let Some(w) = begun.get_mut(client) {
                                *w = (*w).max(txn_seq(id));
                            }
                            for &q in parts.iter().filter(|&&q| q != me) {
                                outbox.stage(q, ToNode::StatusQ { txn: id, from: me });
                            }
                            meta.insert(
                                id,
                                TxnMeta {
                                    txn,
                                    client,
                                    vote: false,
                                    parts,
                                    my_rank,
                                },
                            );
                            continue;
                        }
                        obs.flight.record(
                            id,
                            me as u32,
                            FlightStage::Dispatch,
                            now.saturating_duration_since(epoch),
                        );
                        let vote = if txn.touches(me) {
                            let t0 = Instant::now();
                            let v = shard.prepare(&txn);
                            obs.record(Stage::LockAcquire, t0.elapsed());
                            v
                        } else {
                            true
                        };
                        obs.flight.record(
                            id,
                            me as u32,
                            FlightStage::LockAcquired,
                            Instant::now().saturating_duration_since(epoch),
                        );
                        // The classic commit-latency tax: the vote must be
                        // durable before it can influence a decision.
                        // Group commit keeps the invariant but moves the
                        // cost: the prepare is *staged* here and forced —
                        // together with everything else this drain batch
                        // staged — at the top of the flush step, strictly
                        // before the vote envelope leaves the node. A
                        // logless protocol replicates the vote to its
                        // peers instead and skips even the staging — the
                        // prepare is journaled later, alongside the
                        // decision, off the critical path.
                        if !logless && wal.is_some() {
                            wal_batch.push(WalRecord::Prepare {
                                txn: Arc::clone(&txn),
                                client,
                                vote,
                            });
                            wal_stamp.push(id);
                            wal_prepare_forces += 1;
                        }
                        if let Some(w) = begun.get_mut(client) {
                            *w = (*w).max(txn_seq(id));
                        }
                        let k = parts.len();
                        let f_eff = f.min(k - 1);
                        let parts_c = parts.clone();
                        meta.insert(
                            id,
                            TxnMeta {
                                txn,
                                client,
                                vote,
                                parts,
                                my_rank,
                            },
                        );
                        node.open_as(
                            id,
                            P::new(my_rank, k, f_eff, vote),
                            my_rank,
                            k,
                            now,
                            &mut sink!(),
                        );
                        if let Some(early) = pending.remove(id) {
                            for (from_global, msg) in early {
                                if let Some(rk) = parts_c.iter().position(|&q| q == from_global) {
                                    let _ = node.deliver(id, rk, msg, now, &mut sink!());
                                }
                            }
                        }
                    }
                }
                ToNode::Net { txn, from, msg } => {
                    // Translate the sender's global id to its instance
                    // rank; `offer` then resolves the instance in one slab
                    // probe. A miss with metadata present means the
                    // instance already concluded locally (e.g. a StatusA
                    // adoption closed it) — the straggler is moot. Without
                    // metadata it is either early (seq above the client's
                    // watermark: buffer it) or ended (drop it).
                    let rank = meta
                        .get(txn)
                        .and_then(|m| m.parts.iter().position(|&q| q == from));
                    match rank {
                        Some(rk) => {
                            let _ = node.offer(txn, rk, msg, now, &mut sink!());
                        }
                        None if !meta.contains(txn) => {
                            let early =
                                begun.get(txn_client(txn)).is_none_or(|&w| txn_seq(txn) > w);
                            if early {
                                match pending.get_mut(txn) {
                                    Some(buf) if buf.len() >= ORPHAN_CAP => {
                                        // Bounded pre-open buffering: a
                                        // flood of envelopes outrunning
                                        // their Begin must not grow
                                        // memory without limit.
                                        orphaned_envelopes += 1;
                                    }
                                    Some(buf) => buf.push((from, msg)),
                                    None => {
                                        let mut buf = InlineVec::new();
                                        buf.push((from, msg));
                                        pending.insert(txn, buf);
                                    }
                                }
                            }
                        }
                        None => {} // sender is not a participant: drop
                    }
                }
                ToNode::StatusQ { txn, from } => {
                    if let Some(&v) = decided_map.get(&txn) {
                        if from < n && from != me {
                            outbox.stage(from, ToNode::StatusA { txn, value: v });
                        }
                    }
                    // Undecided or unknown: stay silent; the querier keeps
                    // its own protocol instance (or its client's retries)
                    // as the fallback.
                }
                ToNode::StatusA { txn, value } => {
                    // Adopt a peer's decision for an open, undecided
                    // instance — or for a voteless recovered transaction
                    // that deliberately has no instance at all (the
                    // logless ask-before-revote path). Agreement makes
                    // adoption safe; closing the automaton (when one
                    // exists) keeps it from deciding a second time later.
                    if meta.contains(txn)
                        && !decided_map.contains_key(&txn)
                        && !decided.iter().any(|&(t, _)| t == txn)
                        && !deferred.iter().any(|&(t, _)| t == txn)
                    {
                        node.close(txn);
                        decided.push((txn, value));
                    }
                }
                ToNode::End { txn } => {
                    // A decision for `txn` computed earlier in this same
                    // drained batch is still buffered — apply it before
                    // dropping the metadata, or the shard would keep its
                    // write locks forever.
                    if !decided.is_empty() {
                        apply_decisions(
                            &mut decided,
                            &mut deferred,
                            &meta,
                            &mut shard,
                            &mut log,
                            &mut done_out,
                            me,
                            wal.is_some().then_some(&mut wal_batch),
                            &mut decided_map,
                            logless,
                            &mut obs,
                            epoch,
                        );
                    }
                    node.close(txn);
                    meta.remove(txn);
                    pending.remove(txn);
                    decided_map.remove(&txn);
                }
                ToNode::ObsPull { client } => {
                    // Snapshot what the thread has recorded so far. The
                    // bulk fold-ins below (lock residency, timer lag,
                    // socket-write time) land at node exit, so a mid-run
                    // pull sees the flight recorder and histograms — all
                    // attribution needs — with meters still accruing.
                    if let Some(tx) = &obs_pull {
                        let export = ObsExport::snapshot(me as u32, &obs, None);
                        let _ = tx.send((client, export));
                    }
                }
                ToNode::Shutdown => shutdown = true,
            }
        }
        if got > 0 {
            // Backlog residency: how long the drained batch sat between
            // leaving the inbox and finishing protocol dispatch.
            obs.record(Stage::DrainGap, now.elapsed());
        }

        // 3. Self-deliveries and due timers, to quiescence: a delivery can
        //    set a timer already due, a fired timer can self-send. Timers
        //    fire **one at a time** with the self-queue drained between
        //    fires: a starved thread can owe a protocol both its 1U and 2U
        //    timers at once, and the 2U handler must see the self-sends
        //    the 1U handler produced (per-process causality — the split
        //    INBAC decisions of ISSUE-5's chaos bring-up came from firing
        //    them back to back).
        let mut fired_any = false;
        loop {
            let now = Instant::now();
            while let Some((txn, msg)) = selfq.pop_front() {
                // A miss means the instance ended mid-batch; the message
                // is then moot (the old dropped-late-envelope semantics).
                let rank = meta.get(txn).map(|m| m.my_rank);
                if let Some(rk) = rank {
                    let _ = node.deliver(txn, rk, msg, now, &mut sink!());
                }
            }
            if node.fire_next(now, &mut sink!()) {
                fired_any = true;
            } else if selfq.is_empty() {
                break;
            }
        }

        // 4. Apply buffered decisions outside the engine borrow and stage
        //    the per-client replies.
        apply_decisions(
            &mut decided,
            &mut deferred,
            &meta,
            &mut shard,
            &mut log,
            &mut done_out,
            me,
            wal.is_some().then_some(&mut wal_batch),
            &mut decided_map,
            logless,
            &mut obs,
            epoch,
        );

        // 5. Flush. Delay-released envelopes are staged first (already
        //    judged by the policy — they bypass it; their dependent
        //    records were forced the iteration that staged them), then
        //    the group-commit WAL force, then this iteration's envelopes
        //    pass through the fault policy, then the single write point:
        //    one send_batch (one lock or socket write, at most one
        //    wakeup) per destination with traffic.
        let flush_now = Instant::now();
        let mut forced = 0usize;
        while delayed.peek().is_some_and(|d| d.due <= flush_now) {
            let d = delayed.pop().expect("peeked");
            cleared.stage(d.to, d.env);
        }

        // 5a. Group commit: everything this iteration staged — Begin-path
        //     prepares and applied decisions — becomes durable in **one**
        //     force, strictly before any envelope or client reply that
        //     depends on it leaves the node. The time cap (configured, or
        //     the load-adaptive window, see `group_commit_cap`) holds the
        //     force (and the flush it gates) back so a single force
        //     can absorb several drain batches; a held batch is volatile,
        //     so nothing staged may escape until it forces. Shutdown
        //     always forces: the post-run audit reads the WAL.
        let hold = group_commit_cap(wal_flush_interval, unit, meta.len())
            .is_some_and(|iv| !wal_batch.is_empty() && !shutdown && last_force.elapsed() < iv);
        if !wal_batch.is_empty() && !hold {
            if let Some(wal) = &wal {
                let t0 = Instant::now();
                wal.lock()
                    .expect("wal poisoned")
                    .force_batch(&mut wal_batch);
                obs.record(Stage::WalForce, t0.elapsed());
                let at = Instant::now().saturating_duration_since(epoch);
                for id in wal_stamp.drain(..) {
                    obs.flight.record(id, me as u32, FlightStage::WalForced, at);
                }
                wal_forces += 1;
                forced = 1;
                last_force = Instant::now();
            } else {
                // No WAL to force into (cleared on a crash-less path
                // only when durability is off, where nothing stages).
                wal_batch.clear();
                wal_stamp.clear();
            }
        }
        if hold {
            // Everything staged this iteration waits on the capped force;
            // only the already-durable delayed releases go out.
            let released = cleared.flush(&mut *transport);
            if released > 0 {
                wire.fetch_add(released, Ordering::Relaxed);
                obs.record(Stage::Flush, flush_now.elapsed());
            }
            let crash_pending =
                window.is_some_and(|w| !crashed && Instant::now() >= epoch + w.down_after);
            if got == 0 && !fired_any && released == 0 && !shutdown && !crash_pending {
                spurious_wakeups += 1;
            }
            continue;
        }
        if let Some(pol) = &policy {
            let elapsed = flush_now.saturating_duration_since(epoch);
            for (to, env) in outbox.drain() {
                let seq = net_seq[to];
                net_seq[to] += 1;
                match pol.fate(me, to, elapsed, seq) {
                    Fate::Deliver => cleared.stage(to, env),
                    Fate::Drop => dropped_messages += 1,
                    Fate::Delay(d) => {
                        delayed_messages += 1;
                        delayed.push(DelayedEnv {
                            due: flush_now + d,
                            seq,
                            to,
                            env,
                        });
                    }
                }
            }
        }
        let on_wire = outbox.flush(&mut *transport) + cleared.flush(&mut *transport);
        wire.fetch_add(on_wire, Ordering::Relaxed);
        let mut flushed = on_wire;
        for (client, batch) in done_out.iter_mut().enumerate() {
            if !batch.is_empty() {
                flushed += batch.len();
                let _ = done_txs[client].send_batch(batch.drain(..));
            }
        }
        if flushed > 0 {
            obs.record(Stage::Flush, flush_now.elapsed());
        }

        // 6. Accounting: a wakeup that moved nothing — no inbound batch,
        //    no fired timer, no WAL force, no outbound flush (the
        //    recovery iteration flushes StatusQ/Done batches with
        //    got == 0, which is real work) — was spurious, unless it woke
        //    us for a scheduled crash the next loop top handles.
        let crash_pending =
            window.is_some_and(|w| !crashed && Instant::now() >= epoch + w.down_after);
        if got == 0 && !fired_any && flushed == 0 && forced == 0 && !shutdown && !crash_pending {
            spurious_wakeups += 1;
        }
    }
    // A node that dies without restarting still answers the audit with its
    // durable state: what the WAL can rebuild *is* its state. In-flight
    // yes-vote locks are durably recorded (a future restart would re-hold
    // them) but are *released* in this final report: those transactions
    // are already counted as stalled at the client, and the audit's
    // lock-leak check is about resolved transactions, not ones a
    // never-recovering node took to its grave.
    if crashed && log.is_empty() && meta.is_empty() {
        if let Some(wal) = &wal {
            let rec = wal.lock().expect("wal poisoned").replay(me);
            if shard.locked() == 0 && shard.total() == 0 && log.is_empty() {
                shard = rec.shard;
                for p in &rec.in_flight {
                    shard.finish(&p.txn, false);
                }
                log = rec
                    .decided
                    .iter()
                    .map(|d| NodeRecord {
                        txn: Arc::clone(&d.txn),
                        client: d.client,
                        vote: d.vote,
                        decision: d.value,
                    })
                    .collect();
            }
        }
    }
    // Fold in the self-metered layers: lock residency from the shard,
    // timer lag from the demux loop, socket-write time from the
    // transport. These are bulk counters (no per-op histogram).
    let (holds, hold_nanos) = shard.lock_hold_stats();
    obs.meters.add_many(Stage::LockHold, holds, hold_nanos);
    let (fires, lag_nanos) = node.timer_stats();
    obs.meters.add_many(Stage::TimerFire, fires, lag_nanos);
    let (writes, write_nanos) = transport.io_stats();
    obs.meters.add_many(Stage::TcpWrite, writes, write_nanos);
    NodeReturn {
        shard,
        log,
        spurious_wakeups,
        dropped_messages,
        delayed_messages,
        orphaned_envelopes,
        #[cfg(test)]
        open_instances: meta.len(),
        wal_prepare_forces,
        wal_forces,
        obs,
    }
}

/// One outstanding transaction at a client.
struct PendingTxn {
    txn: Arc<Transaction>,
    parts: Vec<usize>,
    decisions: Vec<Option<u64>>,
    got: usize,
    t0: Instant,
    retries: u32,
    next_retry: Instant,
    deadline: Instant,
}

/// Stage `txn`'s `Begin` for every participant.
fn stage_begins<M>(outbox: &mut Outbox<M>, p: &PendingTxn, client: usize, retry: bool) {
    for &q in &p.parts {
        outbox.stage(
            q,
            ToNode::Begin {
                txn: Arc::clone(&p.txn),
                client,
                retry,
            },
        );
    }
}

/// One closed-loop client: submit, await all participant decisions with
/// bounded, retrying waits, record, repeat. Unresolved transactions are
/// parked (background retries) so a dead node blocks one transaction, not
/// the whole load stream; abandonment at `txn_deadline` is the last resort
/// and counts as a stall.
///
/// Egress follows the node loop's rule: `Begin`s, `End`s and retries are
/// *staged* per destination and leave through one flush per loop turn,
/// immediately before the client parks on its reply channel — so an
/// `End` and the next `Begin` to the same node share one socket write.
pub(crate) fn client_main<P>(
    client: usize,
    cfg: &ServiceConfig,
    epoch: Instant,
    mut transport: Box<dyn Transport<P::Msg>>,
    rx: Receiver<Done>,
) -> ClientReturn
where
    P: CommitProtocol,
    P::Msg: Send + 'static,
{
    let mut gen = WorkloadConfig {
        shards: cfg.n,
        keys_per_shard: cfg.keys_per_shard,
        workload: cfg.workload.clone(),
        seed: cfg.client_seed(client),
    }
    .generator();

    let total = cfg.txns_per_client;
    let mut submitted = 0usize;
    let mut outstanding: Vec<PendingTxn> = Vec::new();
    let mut records = Vec::with_capacity(total);
    let mut events: Vec<TxnEvent> = Vec::with_capacity(total);
    let mut latency = LatencyHistogram::new();
    let mut stalled = 0usize;
    let mut retries = 0usize;
    let mut reply_timeouts = 0usize;
    let mut dbuf: Vec<Done> = Vec::with_capacity(CLIENT_BATCH);
    let mut next_allowed = Instant::now();
    let mut obs = NodeObs::new();
    let mut outbox: Outbox<P::Msg> = Outbox::new(cfg.n);
    // A fresh outstanding transaction, its Begins staged.
    let submit = |t: Transaction, t0: Instant, outbox: &mut Outbox<P::Msg>| {
        let txn = Arc::new(t);
        let parts = participants_of(&txn, cfg.n);
        let now = Instant::now();
        let p = PendingTxn {
            decisions: vec![None; parts.len()],
            txn,
            parts,
            got: 0,
            t0,
            retries: 0,
            next_retry: now + cfg.reply_timeout,
            deadline: now + cfg.txn_deadline,
        };
        stage_begins(outbox, &p, client, false);
        p
    };

    // Open loop: arrivals fire on a Poisson schedule regardless of
    // completions; a full in-flight window sheds the arrival instead of
    // back-pressuring the schedule. The arrival stream gets its own seed
    // stream so it never aliases the workload draw.
    let mut arrivals = cfg
        .arrival_rate
        .map(|rate| ArrivalSchedule::new(rate, cfg.client_seed(client) ^ 0x5eed_a221));
    let mut offered = 0usize;
    let mut shed = 0usize;
    let mut next_arrival = Instant::now()
        + arrivals
            .as_mut()
            .map_or(Duration::ZERO, ArrivalSchedule::next_gap);

    loop {
        if let Some(sched) = arrivals.as_mut() {
            // Dispatch every arrival whose scheduled instant has passed.
            // Sojourn time is measured from the *scheduled* arrival, so
            // dispatch lag and queueing count against the system.
            while offered < total && Instant::now() >= next_arrival {
                let scheduled = next_arrival;
                next_arrival += sched.next_gap();
                let mut t = gen.next_txn();
                t.id = ServiceConfig::txn_id(client, offered);
                offered += 1;
                if outstanding.len() >= cfg.max_outstanding {
                    shed += 1;
                    continue;
                }
                outstanding.push(submit(t, scheduled, &mut outbox));
                submitted += 1;
            }
            if offered == total && outstanding.is_empty() {
                break;
            }
        } else {
            // Submit while the closed loop is open: every outstanding
            // transaction is parked, there is room, and pacing allows it.
            loop {
                let now = Instant::now();
                let gate_open = submitted < total
                    && outstanding.len() < cfg.max_outstanding
                    && outstanding.iter().all(|p| p.retries >= cfg.park_retries);
                if !gate_open || now < next_allowed {
                    break;
                }
                let mut t = gen.next_txn();
                t.id = ServiceConfig::txn_id(client, submitted);
                outstanding.push(submit(t, now, &mut outbox));
                submitted += 1;
                if let Some(p) = cfg.pacing {
                    next_allowed = now + p;
                }
            }
            if submitted == total && outstanding.is_empty() {
                break;
            }
        }

        // Park on the earliest deadline among: any outstanding retry or
        // abandonment, and whatever gates the next submission — the
        // arrival schedule (open loop) or the pacing gate (closed loop,
        // only when it is what blocks submission).
        let mut due: Option<Instant> = outstanding
            .iter()
            .map(|p| p.next_retry.min(p.deadline))
            .min();
        if arrivals.is_some() {
            if offered < total {
                due = Some(due.map_or(next_arrival, |d| d.min(next_arrival)));
            }
        } else {
            let submit_blocked_on_time = submitted < total
                && outstanding.len() < cfg.max_outstanding
                && outstanding.iter().all(|p| p.retries >= cfg.park_retries);
            if submit_blocked_on_time {
                due = Some(due.map_or(next_allowed, |d| d.min(next_allowed)));
            }
        }
        // The turn's single write point: everything staged since the last
        // park — the fold-in's Ends, the expiry pass's retried Begins,
        // this turn's fresh Begins — leaves now, one batch per node.
        outbox.flush(&mut *transport);
        let wait = due
            .expect("the loop only continues with work pending")
            .saturating_duration_since(Instant::now());
        let t0 = Instant::now();
        match rx.recv_batch_timeout(&mut dbuf, CLIENT_BATCH, wait) {
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {}
        }
        obs.record(Stage::ClientQueueWait, t0.elapsed());

        // Fold in replies (duplicates from retries/recovery are ignored).
        for d in dbuf.drain(..) {
            let Some(i) = outstanding.iter().position(|p| p.txn.id == d.txn) else {
                continue; // straggler of a completed or abandoned txn
            };
            let p = &mut outstanding[i];
            if let Some(slot) = p.parts.iter().position(|&q| q == d.node) {
                if p.decisions[slot].is_none() {
                    p.decisions[slot] = Some(d.decision);
                    p.got += 1;
                }
            }
            if p.got == p.parts.len() {
                let p = outstanding.swap_remove(i);
                let lat = p.t0.elapsed();
                latency.record_duration(lat);
                let committed = p.decisions[0] == Some(COMMIT);
                events.push(TxnEvent {
                    id: p.txn.id,
                    client,
                    participants: p.parts.len(),
                    submitted_at: p.t0.saturating_duration_since(epoch),
                    decided_at: Some(p.t0.saturating_duration_since(epoch) + lat),
                    committed: Some(committed),
                    retries: p.retries,
                    // Filled by `aggregate` from the merged flight events.
                    first_protocol_at: None,
                    votes_held_at: None,
                    journaled_at: None,
                });
                for &q in &p.parts {
                    outbox.stage(q, ToNode::End { txn: p.txn.id });
                }
                records.push(ClientRecord {
                    txn: p.txn,
                    decisions: p.decisions,
                });
            }
        }

        // Expired waits: re-send Begin (bounded, counted) or abandon at
        // the hard deadline.
        let now = Instant::now();
        let mut i = 0;
        while i < outstanding.len() {
            if now >= outstanding[i].deadline {
                let p = outstanding.swap_remove(i);
                stalled += 1;
                reply_timeouts += 1;
                events.push(TxnEvent {
                    id: p.txn.id,
                    client,
                    participants: p.parts.len(),
                    submitted_at: p.t0.saturating_duration_since(epoch),
                    decided_at: None,
                    committed: None,
                    retries: p.retries,
                    first_protocol_at: None,
                    votes_held_at: None,
                    journaled_at: None,
                });
                records.push(ClientRecord {
                    txn: p.txn,
                    decisions: p.decisions,
                });
                continue;
            }
            if now >= outstanding[i].next_retry {
                let p = &mut outstanding[i];
                reply_timeouts += 1;
                retries += 1;
                p.retries += 1;
                p.next_retry = now + cfg.reply_timeout;
                stage_begins(&mut outbox, p, client, true);
            }
            i += 1;
        }
    }
    // The loop breaks right after the fold-in staged the last Ends.
    outbox.flush(&mut *transport);
    // The client's half of the socket path (zero over channels).
    let (writes, write_nanos) = transport.io_stats();
    obs.meters.add_many(Stage::TcpWrite, writes, write_nanos);
    ClientReturn {
        records,
        events,
        latency,
        stalled,
        retries,
        reply_timeouts,
        offered: if arrivals.is_some() {
            offered
        } else {
            submitted
        },
        shed,
        obs,
    }
}

/// Merge per-thread results and audit safety.
fn aggregate(
    cfg: &ServiceConfig,
    client_returns: Vec<ClientReturn>,
    node_returns: Vec<NodeReturn>,
    elapsed: Duration,
    wire: &AtomicUsize,
) -> ServiceOutcome {
    let mut latency = LatencyHistogram::new();
    let mut stalled = 0;
    let mut retries = 0;
    let mut reply_timeouts = 0;
    let mut txns = 0;
    let mut committed = 0;
    let mut aborted = 0;
    let mut violations = Vec::new();
    let mut txn_events = Vec::new();
    let spurious_wakeups = node_returns.iter().map(|r| r.spurious_wakeups).sum();
    let dropped_messages = node_returns.iter().map(|r| r.dropped_messages).sum();
    let delayed_messages = node_returns.iter().map(|r| r.delayed_messages).sum();
    let orphaned_envelopes = node_returns.iter().map(|r| r.orphaned_envelopes).sum();
    let wal_prepare_forces = node_returns.iter().map(|r| r.wal_prepare_forces).sum();
    let wal_forces = node_returns.iter().map(|r| r.wal_forces).sum();
    let mut offered = 0;
    let mut shed = 0;

    // Merge the observability bundles: meters and histograms fold exactly
    // (merge ≡ recording the concatenation); flight events concatenate
    // into one cross-node record.
    let stage_meters = ObsMeters::new();
    let mut stage_hists = StageHistograms::new();
    let mut flight: Vec<FlightEvent> = Vec::new();
    let mut dropped_events = 0u64;
    for r in &node_returns {
        stage_meters.merge(&r.obs.meters);
        stage_hists.merge(&r.obs.hists);
        dropped_events += r.obs.flight.dropped();
        flight.extend_from_slice(r.obs.flight.events());
    }

    // Cross-node view: txn -> (votes, decisions) as logged by each node.
    let mut by_txn: HashMap<TxnId, (Vec<bool>, Vec<u64>)> = HashMap::new();
    for ret in &node_returns {
        for rec in &ret.log {
            let e = by_txn.entry(rec.txn.id).or_default();
            e.0.push(rec.vote);
            e.1.push(rec.decision);
        }
    }

    for cr in client_returns {
        latency.merge(&cr.latency);
        stage_meters.merge(&cr.obs.meters);
        stage_hists.merge(&cr.obs.hists);
        stalled += cr.stalled;
        retries += cr.retries;
        reply_timeouts += cr.reply_timeouts;
        offered += cr.offered;
        shed += cr.shed;
        txn_events.extend(cr.events);
        for rec in &cr.records {
            let full = rec.decisions.iter().all(|d| d.is_some());
            if !full {
                continue; // counted in `stalled`
            }
            // One decision slot per participant, sized by the client.
            let k = rec.decisions.len();
            txns += 1;
            let mut vals: Vec<u64> = rec.decisions.iter().flatten().copied().collect();
            vals.sort_unstable();
            vals.dedup();
            if vals.len() != 1 {
                violations.push(format!("txn {}: split decision {vals:?}", rec.txn.id));
                continue;
            }
            let commit = vals[0] == COMMIT;
            if commit {
                committed += 1;
            } else {
                aborted += 1;
            }
            match by_txn.get(&rec.txn.id) {
                Some((votes, decisions)) => {
                    if votes.len() != k {
                        violations.push(format!(
                            "txn {}: {} of {} participants logged a decision",
                            rec.txn.id,
                            votes.len(),
                            k
                        ));
                    }
                    if decisions.iter().any(|&d| d != vals[0]) {
                        violations.push(format!(
                            "txn {}: node logs disagree with client view",
                            rec.txn.id
                        ));
                    }
                    if commit && votes.iter().any(|&v| !v) {
                        violations.push(format!(
                            "txn {}: committed despite a missing yes-vote",
                            rec.txn.id
                        ));
                    }
                }
                None => violations.push(format!("txn {}: no node logged it", rec.txn.id)),
            }
        }
    }
    for (p, ret) in node_returns.iter().enumerate() {
        if ret.shard.locked() != 0 {
            violations.push(format!(
                "shard {p}: {} lock(s) still held after the run",
                ret.shard.locked()
            ));
        }
    }

    let (shards, node_logs): (Vec<Shard>, Vec<Vec<NodeRecord>>) =
        node_returns.into_iter().map(|r| (r.shard, r.log)).unzip();

    // Per-txn lifecycle stamps and the five-stage attribution, from the
    // merged flight record plus the clients' submit/reply endpoints.
    let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    let lcs = lifecycles(&flight);
    for ev in &mut txn_events {
        if let Some(l) = lcs.get(&ev.id) {
            ev.first_protocol_at = l.first_protocol_nanos.map(Duration::from_nanos);
            ev.votes_held_at = l.votes_held_nanos.map(Duration::from_nanos);
            ev.journaled_at = l.journaled_nanos.map(Duration::from_nanos);
        }
    }
    let decided_list: Vec<(u64, u64, u64)> = txn_events
        .iter()
        .filter_map(|e| {
            e.decided_at
                .map(|d| (e.id, nanos(e.submitted_at), nanos(d)))
        })
        .collect();
    let attribution = Attribution::compute(&decided_list, &flight, SLOWEST_KEPT, dropped_events);

    ServiceOutcome {
        kind: cfg.kind,
        clients: cfg.clients,
        txns,
        committed,
        aborted,
        stalled,
        offered,
        shed,
        elapsed,
        latency,
        wire_messages: wire.load(Ordering::Relaxed),
        dropped_messages,
        delayed_messages,
        retries,
        reply_timeouts,
        spurious_wakeups,
        orphaned_envelopes,
        wal_prepare_forces,
        wal_forces,
        shards,
        node_logs,
        txn_events,
        stage_meters,
        stage_hists,
        attribution,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: ProtocolKind) -> ServiceConfig {
        ServiceConfig::new(4, 1, kind)
            .clients(2)
            .txns_per_client(5)
            .unit(Duration::from_millis(10))
    }

    fn bare_env<P: CommitProtocol>(
        me: ProcessId,
        n: usize,
        rx: Receiver<ToNode<P::Msg>>,
        txs: Vec<Sender<ToNode<P::Msg>>>,
        done_txs: Vec<Sender<Done>>,
        wire: Arc<AtomicUsize>,
    ) -> NodeEnv<P>
    where
        P::Msg: Send + 'static,
    {
        NodeEnv {
            me,
            n,
            f: 1,
            unit: Duration::from_millis(5),
            epoch: Instant::now(),
            rx,
            transport: Box::new(ChannelTransport::new(txs)),
            done_txs,
            wire,
            policy: None,
            window: None,
            wal: None,
            wal_flush_interval: None,
            logless: false,
            obs: NodeObs::new(),
            obs_pull: None,
        }
    }

    #[test]
    fn group_commit_cap_is_the_configured_interval_or_the_load_adaptive_window() {
        let unit = Duration::from_millis(5);
        let ms = Duration::from_millis;
        // No interval configured: no cap below the sibling threshold, a
        // fifth of the unit from it on.
        assert_eq!(group_commit_cap(None, unit, 0), None);
        assert_eq!(
            group_commit_cap(None, unit, GROUP_COMMIT_SIBLINGS - 1),
            None
        );
        assert_eq!(
            group_commit_cap(None, unit, GROUP_COMMIT_SIBLINGS),
            Some(ms(1))
        );
        // A configured interval rules at any load; zero never holds
        // (`elapsed < 0` is false), which switches the window off.
        assert_eq!(group_commit_cap(Some(ms(2)), unit, 0), Some(ms(2)));
        assert_eq!(group_commit_cap(Some(ms(2)), unit, 1000), Some(ms(2)));
        assert_eq!(
            group_commit_cap(Some(Duration::ZERO), unit, 1000),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn inbac_serves_uniform_load_safely() {
        let out = run_service(&quick(ProtocolKind::Inbac));
        assert_eq!(out.stalled, 0);
        assert_eq!(out.txns, 10);
        assert!(out.is_safe(), "{:?}", out.violations);
        assert!(out.committed + out.aborted == 10);
        assert_eq!(out.latency.count(), 10);
        assert!(out.wire_messages > 0);
        assert_eq!(out.retries, 0, "healthy runs never need Begin retries");
        assert_eq!(out.reply_timeouts, 0);
    }

    /// A decision and the `End` that garbage-collects its transaction can
    /// land in the **same drained batch**. The decision must still be
    /// applied — logged, reported, shard finished — before the metadata
    /// goes away.
    #[test]
    fn decision_and_end_in_one_drained_batch_still_applies_the_decision() {
        /// Minimal commit protocol deciding COMMIT on the first message.
        struct DecideOnMsg;
        impl ac_sim::Automaton for DecideOnMsg {
            type Msg = ();
            fn on_start(&mut self, _: &mut ac_sim::Ctx<()>) {}
            fn on_message(&mut self, _: ProcessId, _: (), ctx: &mut ac_sim::Ctx<()>) {
                ctx.decide(COMMIT);
            }
            fn on_timer(&mut self, _: u32, _: &mut ac_sim::Ctx<()>) {}
        }
        impl CommitProtocol for DecideOnMsg {
            const NAME: &'static str = "decide-on-msg";
            fn new(_: ProcessId, _: usize, _: usize, _: bool) -> Self {
                DecideOnMsg
            }
        }

        let (tx0, rx0) = unbounded::<ToNode<()>>();
        let (tx1, _rx1) = unbounded::<ToNode<()>>(); // peer inbox, kept alive
        let (done_tx, done_rx) = unbounded::<Done>();
        let wire = Arc::new(AtomicUsize::new(0));
        let handle = {
            let txs = vec![tx0.clone(), tx1];
            let env = bare_env::<DecideOnMsg>(0, 2, rx0, txs, vec![done_tx], wire);
            std::thread::spawn(move || node_main::<DecideOnMsg>(env))
        };

        let id = ServiceConfig::txn_id(0, 0);
        assert!(tx0
            .send(ToNode::Begin {
                txn: Arc::new(Transaction::new(id)),
                client: 0,
                retry: false,
            })
            .is_ok());
        std::thread::sleep(Duration::from_millis(20)); // Begin processed alone
                                                       // The deciding message and the End arrive in one drained batch.
        assert!(tx0
            .send_batch([
                ToNode::Net {
                    txn: id,
                    from: 1,
                    msg: (),
                },
                ToNode::End { txn: id },
            ])
            .is_ok());
        let done = done_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the batched decision must still reach the client");
        assert_eq!(done.txn, id);
        assert_eq!(done.decision, COMMIT);
        assert!(tx0.send(ToNode::Shutdown).is_ok());
        let ret = handle.join().expect("node thread panicked");
        assert_eq!(ret.log.len(), 1, "decision must be logged");
        assert_eq!(ret.log[0].decision, COMMIT);
        assert_eq!(ret.shard.locked(), 0, "no lock may leak");
    }

    /// A crash-recovered logless commit re-joined voteless holds no write
    /// locks; if a **live** transaction prepared on one of its keys since
    /// the restart, re-taking the lock unconditionally would let the live
    /// owner's later `finish` silently skip its writes — a lost update.
    /// The commit must instead wait in `deferred` until the lock is free,
    /// then apply.
    #[test]
    fn recovered_logless_commit_defers_instead_of_stealing_live_locks() {
        use ac_txn::{Key, Version};

        let mut shard = Shard::new(0);
        let mut meta: Slab<TxnMeta> = Slab::new();

        // Live txn B prepared here: voted yes, holds the lock on key 7.
        let b_id = ServiceConfig::txn_id(0, 2);
        let txn_b = Arc::new(Transaction::new(b_id).with_write(Key::new(0, 7), 5));
        assert!(shard.prepare(&txn_b));
        meta.insert(
            b_id,
            TxnMeta {
                txn: Arc::clone(&txn_b),
                client: 0,
                vote: true,
                parts: vec![0],
                my_rank: 0,
            },
        );

        // Txn A re-joined voteless after a crash (pre-crash yes-vote's
        // locks died with the process); the protocol decided Commit on
        // the yes its peers still hold.
        let a_id = ServiceConfig::txn_id(0, 1);
        let txn_a = Arc::new(Transaction::new(a_id).with_write(Key::new(0, 7), 9));
        meta.insert(
            a_id,
            TxnMeta {
                txn: Arc::clone(&txn_a),
                client: 0,
                vote: false,
                parts: vec![0],
                my_rank: 0,
            },
        );

        let mut decided = vec![(a_id, COMMIT)];
        let mut deferred = Vec::new();
        let mut log = Vec::new();
        let mut done_out: Vec<Vec<Done>> = vec![Vec::new()];
        let mut decided_map = HashMap::new();
        let mut obs = NodeObs::new();
        let epoch = Instant::now();
        apply_decisions(
            &mut decided,
            &mut deferred,
            &meta,
            &mut shard,
            &mut log,
            &mut done_out,
            0,
            None,
            &mut decided_map,
            true,
            &mut obs,
            epoch,
        );
        assert_eq!(deferred, vec![(a_id, COMMIT)], "A must wait on B's lock");
        assert!(log.is_empty(), "a deferred commit is not logged yet");
        assert_eq!(shard.read(7), Version::default(), "no write applied yet");

        // B's own decision lands: it applies and releases the lock, and
        // the same call drains the deferred A behind it.
        decided.push((b_id, COMMIT));
        apply_decisions(
            &mut decided,
            &mut deferred,
            &meta,
            &mut shard,
            &mut log,
            &mut done_out,
            0,
            None,
            &mut decided_map,
            true,
            &mut obs,
            epoch,
        );
        assert!(deferred.is_empty(), "the freed lock unblocks A");
        assert_eq!(
            log.iter().map(|r| r.txn.id).collect::<Vec<_>>(),
            vec![b_id, a_id],
            "apply order: the live owner first, the recovered commit after"
        );
        assert_eq!(
            shard.read(7),
            Version {
                value: 9,
                version: 2
            },
            "both writes applied — neither update lost"
        );
        assert_eq!(shard.locked(), 0, "no lock may leak");
    }

    /// ISSUE-4 satellite: an idle service must perform **zero** spurious
    /// wakeups — no housekeeping ticks, no idle polls. Four node threads
    /// are left with no clients and no traffic for 50 ms; every node must
    /// park the whole time.
    #[test]
    fn idle_nodes_perform_zero_spurious_wakeups_over_50ms() {
        use ac_commit::protocols::PaxosCommit;
        type P = PaxosCommit;
        let n = 4;
        let node_ch: Vec<_> = (0..n)
            .map(|_| unbounded::<ToNode<<P as ac_sim::Automaton>::Msg>>())
            .collect();
        let (node_txs, node_rxs): (Vec<_>, Vec<_>) = node_ch.into_iter().unzip();
        let wire = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = node_rxs
            .into_iter()
            .enumerate()
            .map(|(me, rx)| {
                let txs = node_txs.clone();
                let wire = Arc::clone(&wire);
                let env = bare_env::<P>(me, n, rx, txs, Vec::new(), wire);
                std::thread::spawn(move || node_main::<P>(env))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        for tx in &node_txs {
            let _ = tx.send(ToNode::Shutdown);
        }
        drop(node_txs);
        let total: usize = handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked").spurious_wakeups)
            .sum();
        assert_eq!(total, 0, "idle nodes woke without work to do");
    }

    /// Every staged `End` leaves the client — including the ones the last
    /// loop turn stages right before the loop breaks — so a windowed run
    /// leaves no instance open at any node. (Over channels the clients'
    /// final flush is FIFO-ahead of the `Shutdown` sent after they return,
    /// so the check is exact.)
    #[test]
    fn windowed_clients_end_every_instance_they_began() {
        use ac_commit::protocols::PaxosCommit;
        type P = PaxosCommit;
        let n = 4;
        let cfg = ServiceConfig::new(n, 1, ProtocolKind::PaxosCommit)
            .clients(1)
            .txns_per_client(300)
            .park_retries(0)
            .max_outstanding(32);
        let node_ch: Vec<_> = (0..n)
            .map(|_| unbounded::<ToNode<<P as ac_sim::Automaton>::Msg>>())
            .collect();
        let (node_txs, node_rxs): (Vec<_>, Vec<_>) = node_ch.into_iter().unzip();
        let (done_tx, done_rx) = unbounded::<Done>();
        let wire = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = node_rxs
            .into_iter()
            .enumerate()
            .map(|(me, rx)| {
                let env = bare_env::<P>(
                    me,
                    n,
                    rx,
                    node_txs.clone(),
                    vec![done_tx.clone()],
                    Arc::clone(&wire),
                );
                std::thread::spawn(move || node_main::<P>(env))
            })
            .collect();
        let transport = Box::new(ChannelTransport::new(node_txs.clone()));
        let ret = client_main::<P>(0, &cfg, Instant::now(), transport, done_rx);
        assert_eq!((ret.records.len(), ret.stalled, ret.retries), (300, 0, 0));
        for tx in &node_txs {
            let _ = tx.send(ToNode::Shutdown);
        }
        let nodes: Vec<NodeReturn> = handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        let decided: usize = nodes.iter().map(|r| r.log.len()).sum();
        assert_eq!(decided, 2 * 300, "two participants per transaction");
        for (p, r) in nodes.iter().enumerate() {
            assert_eq!(r.open_instances, 0, "node {p} was never told to end some");
        }
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
    }

    /// The tentpole's end-to-end check at unit scale: a healthy run must
    /// attribute (nearly) every transaction, the five stage shares must
    /// telescope to ~100 % of end-to-end p50, the lifecycle stamps must
    /// be filled and ordered, and the seam meters must have seen the
    /// load.
    #[test]
    fn attribution_telescopes_and_lifecycle_stamps_fill_on_a_live_run() {
        let out = run_service(&quick(ProtocolKind::PaxosCommit));
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
        assert!(out.stage_hists.get(Stage::DrainGap).count() > 0);
    }
}
