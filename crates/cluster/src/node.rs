//! One node of the live service: shard owner + instance demultiplexer, as
//! an explicit state machine.
//!
//! A [`Node`] owns its host-provided environment ([`NodeEnv`]), the
//! protocol engine ([`NodeLoop`]) and **one** table of transactions keyed
//! by [`TxnId`]. A transaction's node-side state is its table entry
//! ([`Txn`]): either *early* — protocol envelopes that outran the
//! client's `Begin`, buffered — or *begun*, carrying the routing data
//! ([`Route`]) and an explicit [`Phase`]:
//!
//! ```text
//!            Net (seq above the client's Begin watermark)
//!   (absent) ───────────────────────────────────────────► Early
//!      │ Begin                                              │ Begin
//!      ├──────────────────────────┬─────────────────────────┘
//!      │ logless ∧ retried        │ otherwise: validate, vote, open
//!      ▼                          ▼
//!   Voteless ──┐                Open ◄── WAL recovery (in-flight, logged vote)
//!      │       │ decision: the     │
//!      │       │ instance's, or    │ a logless commit, no local yes-vote,
//!      │       │ a peer's StatusA  │ a live transaction owns one of its locks
//!      │       ▼                   ▼
//!      │    Decided(v) ◄──────── Deferred      (retried whenever an apply
//!      │       ▲    the owner released          releases a lock)
//!      │       │
//!      │       └── WAL recovery (decided before the crash)
//!      ▼
//!   End removes the entry from any phase (the decision still queued in the
//!   same drained batch is applied first). It may arrive any number of
//!   turns after the decision: it rides the client's next `Begin` to this
//!   node, so a decided instance stays open, its timers armed, until then.
//! ```
//!
//! | input     | Early        | Open             | Voteless  | Deferred  | Decided   |
//! |-----------|--------------|------------------|-----------|-----------|-----------|
//! | `Begin`   | vote, → Open | ask peers        | ask peers | ask peers | re-report |
//! | `Net`     | buffer       | to the automaton | drop      | moot      | moot      |
//! | `StatusQ` | silent       | silent           | silent    | silent    | answer    |
//! | `StatusA` | ignore       | adopt            | adopt     | ignore    | ignore    |
//! | `End`     | remove       | remove           | remove    | remove    | remove    |
//!
//! (*moot*: offered to the automaton if one still runs, which has decided
//! or was never opened — nothing the node does changes.)
//!
//! A turn ([`Node::turn`]) takes what is ready and never blocks: five
//! `&mut self` steps, each the single seam of its obs stamp. The park
//! between turns belongs to the node's host ([`crate::host`]), which may
//! run several nodes, and clients beside them, on one thread.
//!
//! | step       | reads → writes                                             | obs stamp                         | attaches            |
//! |------------|------------------------------------------------------------|-----------------------------------|---------------------|
//! | `drain`    | [`Link`] → `inbox` without waiting (what the node's mailbox holds, or one read per connection of its own sockets the host's wait found ready — peers' and clients' alike) | — | crash check, dark window, WAL recovery |
//! | `dispatch` | `inbox` → table, engine, `decided`, outbox; self-sends and due timers to quiescence | `DrainGap`, `LockAcquire`, `TimerFire`, flight `Dispatch`/`LockAcquired` | — |
//! | `apply`    | `decided` → shard, `log`, staged `Done`s, then staged WAL records, a pass at a time | `LockHold`, `WalJournal`, flight `Decided` (per pass) | lock-steal guard (Deferred) |
//! | `force`    | staged WAL records → WAL (one force per turn that staged any) | `WalForce`, flight `WalForced` | durability-before-reply |
//! | `flush`    | outbox → fault plan → the same [`Link`] (one post to each peer's mailbox, or one write to each peer down the connection that peer is read from); `Done`s → [`Replies`] (one post to each client's mailbox, or one write down the connection it said `Hello` on) | `Flush`, `TcpWrite` (per socket write, the link's) | envelope fates ([`FaultPlan::fate`]) |

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ac_commit::problem::COMMIT;
use ac_commit::protocols::PerRank;
use ac_commit::CommitProtocol;
use ac_net::{Crash, Fate, FaultPlan};
use ac_obs::{FlightStage, NetMeters, NodeObs, ObsExport, Stage};
use ac_runtime::{NodeEvent, NodeLoop, Slab, UnitClock};
use ac_sim::{InlineVec, ProcessId, Time, Wire};
use ac_txn::{DecidedTxn, Shard, Transaction, TxnId, Wal, WalRecord};

use crate::client::nanos;
use crate::codec::AnyFrame;
use crate::service::{parts_of, Done, NodeRecord, ToNode, ORPHAN_CAP};
use crate::transport::{Link, Mailboxes, Outbox, PollFd, Sockets};

/// Upper bound on envelopes drained per node-loop iteration. Bounds the
/// latency a long backlog can add to timer firing while still amortizing
/// the mailbox lock (or the readiness wait) across many messages.
const NODE_BATCH: usize = 256;

/// The submitting client encoded in a [`TxnId`] (inverse of
/// [`ServiceConfig::txn_id`](crate::service::ServiceConfig::txn_id)).
fn txn_client(id: TxnId) -> usize {
    ((id >> 32) as usize).saturating_sub(1)
}

/// The per-client sequence number encoded in a [`TxnId`].
fn txn_seq(id: TxnId) -> u64 {
    id & 0xFFFF_FFFF
}

/// A node's audited decision log as its write-ahead log recovers it.
fn node_records(decided: &[DecidedTxn]) -> Vec<NodeRecord> {
    let record = |d: &DecidedTxn| NodeRecord {
        id: d.txn.id,
        txn: Arc::clone(&d.txn),
        client: d.client,
        vote: d.vote,
        decision: d.value,
    };
    decided.iter().map(record).collect()
}

/// What a node counts over its lifetime (a crash does not reset it),
/// summed over the nodes by `service::aggregate`.
#[derive(Default)]
pub(crate) struct NodeCounts {
    /// Protocol envelopes this node handed its link to another node
    /// (self-sends and client replies are not wire messages).
    pub(crate) wire_messages: usize,
    pub(crate) dropped_messages: usize,
    pub(crate) delayed_messages: usize,
    pub(crate) orphaned_envelopes: usize,
    /// Prepare records staged on the Begin critical path (the records a
    /// pre-group-commit node forced one by one).
    pub(crate) wal_prepare_forces: usize,
}

pub(crate) struct NodeReturn {
    pub(crate) shard: Shard,
    pub(crate) log: Vec<NodeRecord>,
    pub(crate) counts: NodeCounts,
    /// Transactions still in the table at exit: never `End`ed.
    #[cfg(test)]
    pub(crate) open_instances: usize,
    /// The thread's observability bundle (meters, flight recorder),
    /// merged by `service::aggregate`.
    pub(crate) obs: NodeObs,
}

/// Where a node sends what it owes a client — decision reports at the
/// `flush` step, the answer to an `ObsPull`: the outbound seam with exactly
/// two sinks. A reply is written by the loop that decided, down the road
/// the request took.
pub(crate) enum Replies {
    /// The in-process service: every client's mailbox. `ObsPull` is a
    /// no-op (the host already holds every recorder).
    Mailbox(Mailboxes<Done>),
    /// A multi-process node: [`Link::reply`], down the connection the
    /// client said `Hello` on, which the node's own sockets
    /// ([`NodeEnv::link`]) hold. `clients` counts the ids replies are
    /// staged for; `net` is stamped into an `ObsPull` answer.
    Connection { clients: usize, net: Arc<NetMeters> },
}

impl Replies {
    /// How many client ids the node stages replies for.
    fn clients(&self) -> usize {
        match self {
            Replies::Mailbox(clients) => clients.len(),
            Replies::Connection { clients, .. } => *clients,
        }
    }
}

/// Where a node's every reading comes from, and the host's epoch that its
/// flight stamps, crash instants and fault-plan times count from. Both
/// hosts read the monotonic clock; `node::tests` substitute a stepping
/// one that counts its readings.
pub(crate) struct Clock {
    epoch: Instant,
    read: fn() -> Instant,
}

impl Clock {
    /// The monotonic clock, counting from `epoch`: the instant the host's
    /// other stamps (the clients', the echo responder's) count from too.
    pub(crate) fn monotonic(epoch: Instant) -> Clock {
        Clock {
            epoch,
            read: Instant::now,
        }
    }

    /// One reading.
    fn now(&self) -> Instant {
        (self.read)()
    }

    /// How far `at` lies past the epoch (zero before it).
    fn since_epoch(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.epoch)
    }

    /// The instant `offset` past the epoch.
    fn at(&self, offset: Duration) -> Instant {
        self.epoch + offset
    }
}

/// Everything a host hands one node: identity, its clock, its link to the
/// other nodes, reply path, fault schedule, its log and instruments. It
/// shares its link, its reply path, the fault plan it only reads and a
/// multi-process node's live meters with its host; the rest it owns.
pub(crate) struct NodeEnv<P: CommitProtocol> {
    pub(crate) me: ProcessId,
    pub(crate) n: usize,
    pub(crate) f: usize,
    pub(crate) unit: Duration,
    pub(crate) clock: Clock,
    /// The node-to-node seam, both ways: what the drain step takes from
    /// and where the flush step writes (mailboxes, or the node's own
    /// sockets — which also carry its clients' requests and, in a
    /// multi-process cluster, their replies).
    pub(crate) link: Link<P::Msg>,
    /// The node-to-client seam (see [`Replies`]).
    pub(crate) replies: Replies,
    /// The run's fault plan, `None` when it has no link rule: the flush
    /// reads each envelope's fate off it.
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// The node's own crash (and restart), if the plan schedules one.
    pub(crate) crash: Option<Crash>,
    /// The write-ahead log, `None` on a node without one. A scheduled crash
    /// loses the node's memory, not its environment, so the log outlives
    /// it and `recover` replays it.
    pub(crate) wal: Option<Wal>,
    /// Logless protocol (`ProtocolKind::logless`): skip the Begin-path
    /// Prepare force and journal the prepare alongside the decision
    /// instead — the decision is reconstructible from peer votes, so
    /// nothing needs to be durable before the vote leaves the node.
    pub(crate) logless: bool,
    /// The thread's observability bundle. Multi-process hosts pass
    /// [`NodeObs::with_meters`] so a live `--metrics` endpoint can read
    /// the shared registry; the in-process service uses a private one.
    pub(crate) obs: NodeObs,
}

/// Routing data of a transaction begun at this node: body, client, the
/// local vote and the participant group.
struct Route {
    txn: Arc<Transaction>,
    client: usize,
    vote: bool,
    /// Participant shards, ascending; protocol rank = index here.
    /// Derived once, when the route is built.
    parts: PerRank<usize>,
    /// This node's rank within `parts`.
    my_rank: usize,
    /// When this node's shard took the transaction's write locks: the
    /// `LockAcquired` reading, or the recovery reading of a relocked
    /// in-flight yes-vote. `None` while it holds none.
    locked_at: Option<Instant>,
}

/// Whether `vote` on `txn` holds write locks at shard `me`: a yes on a
/// transaction that writes there.
fn holds_locks(txn: &Transaction, vote: bool, me: ProcessId) -> bool {
    vote && txn.writes.keys().any(|k| k.shard == me)
}

/// Where a begun transaction's commit stands at this node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Its protocol instance runs on the engine.
    Open,
    /// Re-joined without a vote and without an instance (the logless
    /// ask-before-revote rule, see [`Node::begin`]); waits for a peer's
    /// `StatusA`.
    Voteless,
    /// Commit known, but a live transaction owns one of its write locks
    /// (see [`Node::apply_one`]); its decision stays queued in `decided`.
    Deferred,
    /// Applied to the shard, logged and reported; awaits `End`. Answers
    /// `StatusQ`, deduplicates retried `Begin`s, and is what WAL recovery
    /// rebuilds for a transaction decided before a crash.
    Decided(u64),
}

/// One entry of the node's transaction table.
enum Txn<M> {
    /// Envelopes that outran their `Begin` (first few inline, no
    /// allocation); senders recorded as global node ids.
    Early(InlineVec<(ProcessId, M)>),
    /// Begun here: by a client's `Begin` or by WAL recovery.
    Begun(Route, Phase),
}

/// Everything a crash loses: the node's memory. Replaced wholesale by
/// [`Node::crash`]; what survives lives in the WAL.
struct Volatile<M> {
    me: ProcessId,
    n: usize,
    shard: Shard,
    txns: Slab<Txn<M>>,
    /// Per-client Begin watermark: the highest per-client sequence number
    /// this node has begun. Each client's control stream is FIFO (one
    /// sender per client, posting or writing in order), so a protocol
    /// envelope whose seq is at or below the watermark and whose
    /// transaction is not in the table belongs to an *ended* (or
    /// crash-lost) transaction — a late straggler to drop; the recovery
    /// path resolves crash-lost ones via client retries.
    begun: Vec<u64>,
    log: Vec<NodeRecord>,
    /// Decisions waiting for [`Node::apply`]: the engine's, adopted
    /// `StatusA`s, and (re-queued after every call) the deferred commits.
    decided: Vec<(TxnId, u64)>,
    outbox: Outbox<M>,
    /// Envelopes the fault plan has cleared for the wire (judged
    /// `Deliver`, or delay-released), waiting for the flush point.
    cleared: Outbox<M>,
    done_out: Vec<Vec<Done>>,
    /// Self-sends short-circuit through here and never touch the link.
    selfq: VecDeque<(TxnId, M)>,
    /// Envelopes held back by `Fate::Delay`, keyed `(due, seq, to)`:
    /// released in due order, per-destination FIFO among equals.
    delayed: BTreeMap<(Instant, u64, ProcessId), ToNode<M>>,
    /// Group-commit staging: records accumulated across dispatch and
    /// apply (Begin prepares and applied decisions), forced into the
    /// node's WAL **once** by [`Node::force`] — before any envelope or
    /// reply that depends on them can leave the node. Empty between
    /// turns: the turn that staged a record forces it.
    wal_batch: Vec<WalRecord>,
    /// Prepare txn ids staged in `wal_batch`, stamped `WalForced` when the
    /// batch actually forces.
    wal_stamp: Vec<TxnId>,
}

impl<M> Volatile<M> {
    fn new(me: ProcessId, n: usize, clients: usize) -> Volatile<M> {
        Volatile {
            me,
            n,
            shard: Shard::new(me),
            txns: Slab::new(),
            begun: vec![0; clients],
            log: Vec::new(),
            decided: Vec::new(),
            outbox: Outbox::new(n),
            cleared: Outbox::new(n),
            done_out: (0..clients).map(|_| Vec::new()).collect(),
            selfq: VecDeque::new(),
            delayed: BTreeMap::new(),
            wal_batch: Vec::new(),
            wal_stamp: Vec::new(),
        }
    }

    /// `txn`'s routing data; `None` when this node is not a participant
    /// (not ours to vote on).
    fn route_of(&self, txn: Arc<Transaction>, client: usize, vote: bool) -> Option<Route> {
        let parts = parts_of(&txn, self.n);
        let my_rank = parts.iter().position(|&q| q == self.me)?;
        Some(Route {
            txn,
            client,
            vote,
            parts,
            my_rank,
            locked_at: None,
        })
    }

    /// Enter a transaction into the table as begun, advancing its
    /// client's watermark; returns the envelopes that outran it.
    fn enter(&mut self, route: Route, phase: Phase) -> InlineVec<(ProcessId, M)> {
        let id = route.txn.id;
        if let Some(w) = self.begun.get_mut(route.client) {
            *w = (*w).max(txn_seq(id));
        }
        let entry = Txn::Begun(route, phase);
        match self.txns.get_mut(id) {
            Some(slot) => match std::mem::replace(slot, entry) {
                Txn::Early(buf) => buf,
                Txn::Begun(..) => unreachable!("txn {id} begun twice"),
            },
            None => {
                self.txns.insert(id, entry);
                InlineVec::new()
            }
        }
    }

    /// Cooperative termination: ask `id`'s other participants whether they
    /// decided it.
    fn ask_peers(&mut self, id: TxnId) {
        let Some(Txn::Begun(route, _)) = self.txns.get(id) else {
            return;
        };
        for &q in route.parts.iter().filter(|&&q| q != self.me) {
            let from = self.me;
            self.outbox.stage(q, ToNode::StatusQ { txn: id, from });
        }
    }

    /// Stage a decision report for `client`.
    fn report(&mut self, client: usize, txn: TxnId, decision: u64) {
        if let Some(buf) = self.done_out.get_mut(client) {
            let node = self.me;
            buf.push(Done {
                txn,
                node,
                decision,
            });
        }
    }

    /// Route one engine effect: remote sends are *staged* into the
    /// per-peer outbox (flushed once per step as a batch, through the
    /// fault policy), self-sends go through the in-memory queue, and
    /// decisions are queued for [`Node::apply`]. `Send.to` is an
    /// instance-local *rank*, translated to a global node id through the
    /// transaction's route.
    fn emit(&mut self, ev: NodeEvent<M>) {
        match ev {
            NodeEvent::Send { instance, to, msg } => {
                let Some(Txn::Begun(route, _)) = self.txns.get(instance) else {
                    return;
                };
                let Some(&global) = route.parts.get(to) else {
                    return;
                };
                if global == self.me {
                    self.selfq.push_back((instance, msg));
                } else {
                    let (txn, from) = (instance, self.me);
                    self.outbox.stage(global, ToNode::Net { txn, from, msg });
                }
            }
            NodeEvent::Decided { instance, value } => self.decided.push((instance, value)),
        }
    }
}

/// Whether the node is running or inside its crash window.
enum Power {
    /// Running; crashes at the instant, if one is (still) scheduled.
    Up { crash_at: Option<Instant> },
    /// Crashed: every envelope but `Shutdown` is lost until the restart
    /// instant (`None` = it stays dead for the rest of the run).
    Dark { up_at: Option<Instant> },
}

/// One node of the live service (see the module docs).
pub(crate) struct Node<P: CommitProtocol> {
    env: NodeEnv<P>,
    engine: NodeLoop<P>,
    vol: Volatile<P::Msg>,
    power: Power,
    /// The drained batch `dispatch` consumes (reused buffer).
    inbox: Vec<ToNode<P::Msg>>,
    /// Where each write-lock hold the current apply pass released started
    /// (reused buffer): closed at the reading that ends the pass.
    released: Vec<Instant>,
    /// Per-destination envelope counters feeding the plan's drop lottery.
    net_seq: Vec<u64>,
    shutdown: bool,
    counts: NodeCounts,
}

impl<P> Node<P>
where
    P: CommitProtocol,
    P::Msg: Wire + Send + 'static,
{
    pub(crate) fn new(mut env: NodeEnv<P>) -> Node<P> {
        env.link.meter(&env.obs.meters);
        Node {
            engine: NodeLoop::new(env.me, env.n, UnitClock::new(env.unit)),
            vol: Volatile::new(env.me, env.n, env.replies.clients()),
            power: Power::Up {
                crash_at: env.crash.map(|c| env.clock.at(c.at.to_wall(env.unit))),
            },
            inbox: Vec::with_capacity(NODE_BATCH),
            released: Vec::new(),
            net_seq: vec![0; env.n],
            shutdown: false,
            counts: NodeCounts::default(),
            env,
        }
    }

    /// Whether the node still serves: no `Shutdown` has reached it.
    pub(crate) fn serving(&self) -> bool {
        !self.shutdown
    }

    /// The sockets its host's wait covers for the node: none in process,
    /// and none once it has shut down.
    pub(crate) fn sockets(&self) -> Option<&Sockets> {
        self.env.link.sockets().filter(|_| !self.shutdown)
    }

    /// When the node next needs a turn if nothing arrives: its earliest
    /// pending timer, delayed-envelope release or scheduled crash while up,
    /// its restart instant while dark, and the epoch — at once — while
    /// envelopes wait in its mailbox or beyond a batch a read decoded.
    /// `None`: only an arrival (or never, once it has shut down).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        if self.shutdown {
            return None;
        }
        if self.env.link.pending() {
            return Some(self.env.clock.at(Duration::ZERO));
        }
        match self.power {
            Power::Dark { up_at } => up_at,
            Power::Up { crash_at } => {
                let due = self.vol.delayed.keys().next().map(|k| k.0);
                [self.engine.next_due(), due, crash_at]
                    .into_iter()
                    .flatten()
                    .min()
            }
        }
    }

    /// One reading of the node's clock.
    pub(crate) fn now(&self) -> Instant {
        self.env.clock.now()
    }

    /// Whether a turn would find anything, read at `now`: a slot of
    /// `ready` (the node's slots of its host's wait) is ready, or its
    /// deadline has come — a post waiting in its mailbox among them.
    pub(crate) fn due(&self, ready: &[PollFd], now: Instant) -> bool {
        !self.shutdown
            && (ready.iter().any(PollFd::is_ready) || self.deadline().is_some_and(|at| at <= now))
    }

    /// One turn, which never blocks: take what is ready, dispatch, apply,
    /// force, flush. `ready` is the node's slots of its host's wait (empty
    /// in process). Returns whether the turn moved anything — an envelope
    /// in or out, a socket read, a timer, a force, a crash or a restart.
    pub(crate) fn turn(&mut self, ready: &[PollFd]) -> bool {
        let drained = self.drain(ready);
        let fired = self.dispatch();
        self.apply();
        let forced = self.force();
        let flushed = self.flush(forced);
        drained || fired || forced.is_some() || flushed > 0
    }

    fn crash_due(&self) -> bool {
        matches!(self.power, Power::Up { crash_at: Some(at) } if self.env.clock.now() >= at)
    }

    fn stamp(&mut self, txn: TxnId, stage: FlightStage, at: Instant) {
        let (me, at) = (self.env.me as u32, self.env.clock.since_epoch(at));
        self.env.obs.flight.record(txn, me, stage, at);
    }

    /// Step 1. Take the scheduled crash if it is due, then what is ready
    /// without waiting: up to [`NODE_BATCH`] envelopes of its mailbox, or,
    /// on sockets, one read per connection the host's wait found ready,
    /// then up to as many of what they decoded. A dark node discards what
    /// it took and restarts once its restart instant has passed. Returns
    /// whether anything moved.
    fn drain(&mut self, ready: &[PollFd]) -> bool {
        let crashed = self.crash_due();
        if crashed {
            self.crash();
        }
        let read = self.env.link.take(ready, &mut self.inbox, NODE_BATCH);
        let moved = crashed || read || !self.inbox.is_empty();
        let Power::Dark { up_at } = self.power else {
            return moved;
        };
        // Dark: every envelope sent to a dead node is lost.
        self.shutdown |= self.inbox.drain(..).any(|e| matches!(e, ToNode::Shutdown));
        let restart = !self.shutdown && up_at.is_some_and(|at| self.env.clock.now() >= at);
        if restart {
            // The restart instant. Recover; this turn's flush sends the
            // recovery traffic at once.
            self.recover();
        }
        moved || restart
    }

    /// The scheduled crash: drop all volatile state and go dark. It is
    /// taken at `drain`, before a turn takes anything, where the staged WAL
    /// tail is empty by construction (the turn that staged a record forced
    /// it), so the log a restart replays covers everything that ever left
    /// the node.
    fn crash(&mut self) {
        debug_assert!(self.vol.wal_batch.is_empty(), "a crash inside a turn");
        let up = self.env.crash.and_then(|c| c.up);
        self.power = Power::Dark {
            up_at: up.map(|u| self.env.clock.at(u.to_wall(self.env.unit))),
        };
        self.engine.reset();
        self.vol = Volatile::new(self.env.me, self.env.n, self.env.replies.clients());
    }

    /// Restart: rebuild from the write-ahead log what it can rebuild.
    /// This is the only place an unconditional [`Shard::relock`] (inside
    /// `replay`) is sound: it runs before any live traffic.
    fn recover(&mut self) {
        self.power = Power::Up { crash_at: None };
        let Some(wal) = &self.env.wal else { return };
        let rec = wal.replay(self.env.me);
        self.vol.shard = rec.shard;
        self.vol.log = node_records(&rec.decided);
        for d in rec.decided {
            // Re-report: the pre-crash Done may never have been flushed
            // (clients deduplicate).
            self.vol.report(d.client, d.txn.id, d.value);
            if let Some(route) = self.vol.route_of(d.txn, d.client, d.vote) {
                self.vol.enter(route, Phase::Decided(d.value));
            }
        }
        let now = self.env.clock.now();
        for p in rec.in_flight {
            // Re-join the instance with the *logged* vote (never
            // re-validated — peers may have acted on it), and ask the
            // peers whether it decided while we were down. The replay
            // re-took a yes-vote's locks: its hold starts over now.
            let id = p.txn.id;
            if let Some(mut route) = self.vol.route_of(p.txn, p.client, p.vote) {
                route.locked_at = holds_locks(&route.txn, route.vote, self.env.me).then_some(now);
                self.open(route, now);
                self.vol.ask_peers(id);
            }
        }
    }

    /// Step 2. Dispatch every drained envelope, then run self-deliveries
    /// and due timers to quiescence. Returns whether a timer fired.
    fn dispatch(&mut self) -> bool {
        // One clock read serves the whole batch: dispatch takes
        // microseconds against multi-millisecond virtual-time units, and
        // timers set "in the past" fire below anyway.
        let mut now = self.env.clock.now();
        let mut inbox = std::mem::take(&mut self.inbox);
        let got = !inbox.is_empty();
        for env in inbox.drain(..) {
            self.handle(env, now);
        }
        self.inbox = inbox;
        if got {
            // Backlog residency: how long the drained batch sat between
            // leaving the inbox and finishing protocol dispatch.
            let dispatched = self.env.clock.now();
            self.env.obs.record(Stage::DrainGap, dispatched - now);
            now = dispatched;
        }

        // A delivery can set a timer already due, a fired timer can
        // self-send. Timers fire **one at a time** with the self-queue
        // drained between fires: a starved thread can owe a protocol both
        // its 1U and 2U timers at once, and the 2U handler must see the
        // self-sends the 1U handler produced (per-process causality — the
        // split INBAC decisions of ISSUE-5's chaos bring-up came from
        // firing them back to back).
        let mut fired = false;
        loop {
            while let Some((txn, msg)) = self.vol.selfq.pop_front() {
                // A miss means the transaction ended mid-batch; the
                // message is then moot.
                if let Some(Txn::Begun(route, _)) = self.vol.txns.get(txn) {
                    let rank = route.my_rank;
                    let sink = &mut |ev| self.vol.emit(ev);
                    let _ = self.engine.deliver(txn, rank, msg, now, sink);
                }
            }
            if let Some(lag) = self.engine.fire_next(now, &mut |ev| self.vol.emit(ev)) {
                self.env.obs.record(Stage::TimerFire, lag);
                fired = true;
            } else if self.vol.selfq.is_empty() {
                return fired;
            }
            now = self.env.clock.now();
        }
    }

    fn handle(&mut self, env: ToNode<P::Msg>, now: Instant) {
        match env {
            ToNode::Begin { txn, client, retry } => self.begin(txn, client, retry, now),
            ToNode::Net { txn, from, msg } => self.net(txn, from, msg, now),
            ToNode::StatusQ { txn, from } => {
                // Undecided or unknown: stay silent; the querier keeps its
                // own protocol instance (or its client's retries) as the
                // fallback.
                if let Some(Txn::Begun(_, Phase::Decided(value))) = self.vol.txns.get(txn) {
                    if from < self.env.n && from != self.env.me {
                        let value = *value;
                        self.vol.outbox.stage(from, ToNode::StatusA { txn, value });
                    }
                }
            }
            ToNode::StatusA { txn, value } => {
                // Adopt a peer's decision for an open, undecided instance —
                // or for a voteless transaction that deliberately has no
                // instance at all. Agreement makes adoption safe; closing
                // the automaton (when one exists) keeps it from deciding a
                // second time later.
                if let Some(Txn::Begun(_, Phase::Open | Phase::Voteless)) = self.vol.txns.get(txn) {
                    self.engine.close(txn);
                    self.vol.decided.push((txn, value));
                }
            }
            ToNode::End { txn } => {
                // A decision for `txn` computed earlier in this same
                // drained batch is still queued — apply it before dropping
                // the entry, or the shard would keep its write locks
                // forever.
                self.apply();
                self.engine.close(txn);
                self.vol.txns.remove(txn);
            }
            ToNode::ObsPull { client } => {
                // Snapshot what the thread has recorded so far: the flight
                // recorder — all attribution needs — and every seam meter
                // as of this turn, each added where it was observed. One
                // `ObsDump` frame down the collector's connection.
                if let Replies::Connection { net, .. } = &self.env.replies {
                    let (me, net) = (self.env.me as u32, net.snapshot());
                    let export = Box::new(ObsExport::snapshot(me, &self.env.obs, Some(net)));
                    let dump = AnyFrame::ObsDump { node: me, export };
                    self.env.link.reply(client, [dump]);
                }
            }
            ToNode::Shutdown => self.shutdown = true,
        }
    }

    /// A client submits (or re-submits) `txn`.
    fn begin(&mut self, txn: Arc<Transaction>, client: usize, retry: bool, now: Instant) {
        let (id, me) = (txn.id, self.env.me);
        debug_assert_eq!(txn_client(id), client, "TxnId encoding drifted");
        match self.vol.txns.get(id) {
            // A client retry of a decided transaction (possibly decided
            // before a crash and recovered from the WAL): re-report.
            Some(Txn::Begun(_, Phase::Decided(value))) => {
                let value = *value;
                return self.vol.report(client, id, value);
            }
            // Undecided: cooperative termination — ask the other
            // participants whether they decided (a partition may have
            // eaten the outcome; for 2PC this is the only way a blocked
            // participant ever learns a decision the coordinator reached).
            Some(Txn::Begun(..)) => return self.vol.ask_peers(id),
            Some(Txn::Early(_)) | None => {}
        }
        let Some(mut route) = self.vol.route_of(txn, client, false) else {
            return;
        };
        if self.env.logless && retry {
            // Ask-before-revote (the Cornus recovery rule). A *retried*
            // Begin with no local record means this node either crashed
            // after voting — the logless vote was volatile and is gone —
            // or was down when the original Begin arrived. Either way,
            // validating afresh could broadcast a vote contradicting a
            // pre-crash yes that peers already assembled into a commit: a
            // split decision. So the node never re-votes. It re-joins the
            // transaction voteless and with no protocol instance, asks
            // the peers, and adopts whatever decision the surviving vote
            // vectors produced (`StatusA`). Peers missing this node's vote
            // timeout-abort on their own, so some peer always has an
            // answer for a later retry round.
            self.vol.enter(route, Phase::Voteless);
            return self.vol.ask_peers(id);
        }
        let t0 = self.env.clock.now();
        let mut prepared = t0;
        if route.txn.touches(me) {
            route.vote = self.vol.shard.prepare(&route.txn);
            if !route.vote && !self.vol.decided.is_empty() {
                // A decision this batch already delivered may release
                // the lock the vote ran into: apply it first, as a node
                // that had read it a turn earlier would have.
                self.apply();
                route.vote = self.vol.shard.prepare(&route.txn);
            }
            prepared = self.env.clock.now();
            self.env.obs.record(Stage::LockAcquire, prepared - t0);
        } else {
            route.vote = true;
        }
        route.locked_at = holds_locks(&route.txn, route.vote, me).then_some(prepared);
        // Dispatch is stamped at the reading the lock stage starts from,
        // not at the batch's first: the envelopes dispatched ahead of this
        // one in the batch are `channel` time, not `lock` time.
        self.stamp(id, FlightStage::Dispatch, t0);
        self.stamp(id, FlightStage::LockAcquired, prepared);
        // The classic commit-latency tax: the vote must be durable before
        // it can influence a decision. Group commit keeps the invariant
        // but moves the cost: the prepare is *staged* here and forced —
        // together with everything else this turn staged — by the force
        // step, strictly before the vote envelope leaves the node. A
        // logless protocol replicates the vote to its peers instead and
        // skips even the staging — the prepare is journaled later,
        // alongside the decision, off the critical path.
        if !self.env.logless && self.env.wal.is_some() {
            self.vol.wal_batch.push(WalRecord::Prepare {
                txn: Arc::clone(&route.txn),
                client,
                vote: route.vote,
            });
            self.vol.wal_stamp.push(id);
            self.counts.wal_prepare_forces += 1;
        }
        self.open(route, now);
    }

    /// Enter `route`'s transaction as open, start its protocol instance
    /// and hand it the envelopes that outran it. Serves a fresh `Begin`
    /// and the WAL recovery of an in-flight transaction alike.
    fn open(&mut self, route: Route, now: Instant) {
        let (id, rank, k) = (route.txn.id, route.my_rank, route.parts.len());
        let automaton = P::new(rank, k, self.env.f.min(k - 1), route.vote);
        let early = self.vol.enter(route, Phase::Open);
        let sink = &mut |ev| self.vol.emit(ev);
        self.engine.open_as(id, automaton, rank, k, now, sink);
        for (from, msg) in early {
            self.net(id, from, msg, now);
        }
    }

    /// A protocol envelope from node `from`.
    fn net(&mut self, txn: TxnId, from: ProcessId, msg: P::Msg, now: Instant) {
        match self.vol.txns.get_mut(txn) {
            Some(Txn::Begun(route, _)) => {
                // Translate the sender's global id to its instance rank
                // (not a participant: drop). A miss in the engine means
                // the instance already concluded locally (a StatusA
                // adoption closed it) or never existed (voteless) — the
                // envelope is moot.
                if let Some(rank) = route.parts.iter().position(|&q| q == from) {
                    let sink = &mut |ev| self.vol.emit(ev);
                    let _ = self.engine.offer(txn, rank, msg, now, sink);
                }
            }
            // Bounded pre-open buffering: a flood of envelopes outrunning
            // their Begin must not grow memory without limit.
            Some(Txn::Early(buf)) if buf.len() >= ORPHAN_CAP => self.counts.orphaned_envelopes += 1,
            Some(Txn::Early(buf)) => buf.push((from, msg)),
            // Unknown: early when its seq is above the client's
            // watermark (buffer it), else ended (drop it).
            None => {
                let watermark = self.vol.begun.get(txn_client(txn));
                if watermark.is_none_or(|&w| txn_seq(txn) > w) {
                    let mut buf = InlineVec::new();
                    buf.push((from, msg));
                    self.vol.txns.insert(txn, Txn::Early(buf));
                }
            }
        }
    }

    /// Step 3. Apply every queued decision to the shard, the staged WAL
    /// batch, the node log and the per-client reply batches. Also runs
    /// before an `End` drops a transaction's entry (a decision and its
    /// `End` can land in the same drained batch).
    ///
    /// Durability rides on group commit: records are **staged** here and
    /// forced by the next step — before any `Done` staged here can leave
    /// the node — so the durability-before-reply invariant holds while the
    /// force cost is amortized.
    ///
    /// Each pass over the queue finishes its decisions first and journals
    /// them after ([`Node::close_pass`]), so the clock is read once or
    /// twice per pass, never per decision.
    fn apply(&mut self) {
        while !self.vol.decided.is_empty() {
            // `apply_one` re-queues a deferred commit behind this pass.
            let pass = self.vol.decided.len();
            let logged = self.vol.log.len();
            for i in 0..pass {
                let (id, value) = self.vol.decided[i];
                self.apply_one(id, value);
            }
            self.vol.decided.drain(..pass);
            // Every decision left was moot or deferred.
            if self.vol.log.len() == logged {
                break;
            }
            self.close_pass(logged);
            // An apply in this pass may have released the very lock a
            // deferred commit waits on — retry until quiescent.
        }
    }

    /// End an apply pass, whose decisions are the node log's records from
    /// `logged` on. One reading closes every write-lock hold the pass
    /// released. With a WAL, the pass's records are then staged in apply
    /// order — a logless protocol's deferred `Prepare` right before its
    /// `Decide`, a journal entry rather than a critical-path force — and a
    /// second reading ends the pass's one `WalJournal` sample. The last
    /// reading stamps every decision of the pass `Decided`.
    fn close_pass(&mut self, logged: usize) {
        let finished = self.env.clock.now();
        for since in self.released.drain(..) {
            self.env.obs.record(Stage::LockHold, finished - since);
        }
        let applied = &self.vol.log[logged..];
        let mut decided = finished;
        if self.env.wal.is_some() {
            let batch = &mut self.vol.wal_batch;
            for r in applied {
                if self.env.logless {
                    let (txn, client, vote) = (Arc::clone(&r.txn), r.client, r.vote);
                    batch.push(WalRecord::Prepare { txn, client, vote });
                }
                let (txn, value) = (r.id, r.decision);
                batch.push(WalRecord::Decide { txn, value });
            }
            decided = self.env.clock.now();
            let took = nanos(decided - finished);
            let meters = &self.env.obs.meters;
            meters.add_many(Stage::WalJournal, applied.len() as u64, took);
        }
        let me = self.env.me as u32;
        let at = self.env.clock.since_epoch(decided);
        let flight = &mut self.env.obs.flight;
        for r in applied {
            flight.record(r.id, me, FlightStage::Decided, at);
        }
    }

    /// Apply one decision — shard, node log, staged `Done` — reading no
    /// clock: its lock hold and its journal wait for the end of the pass.
    ///
    /// A logless commit for a crash-recovered transaction (no local
    /// yes-vote, so no locks held) must re-take its write locks before the
    /// writes can apply — but only when they are **free**. A different
    /// live transaction may have prepared (voted yes, taken a lock) at
    /// this node since the restart; overwriting its lock would make its
    /// own later `finish` silently skip its writes — a lost update
    /// diverging the live shard from the sequential replay. Such a commit
    /// is [`Phase::Deferred`] until the owner decides and releases the
    /// lock (every protocol in the suite terminates by timeout, so it
    /// does): it stays queued and is re-examined ahead of every later
    /// batch.
    fn apply_one(&mut self, id: TxnId, value: u64) {
        let Some(Txn::Begun(route, phase)) = self.vol.txns.get_mut(id) else {
            return; // ended
        };
        if let Phase::Decided(_) = phase {
            return; // duplicate (e.g. StatusA raced the protocol decide)
        }
        let logless = self.env.logless;
        let commit = value == COMMIT;
        // Logless vote reconstruction: a commit proves every participant
        // voted yes (commit validity), so journal yes even if this node
        // re-joined the transaction voteless after a crash — the protocol
        // decided on the pre-crash yes its peers hold.
        let rejoined = logless && commit && !route.vote;
        let vote = route.vote || rejoined;
        if rejoined {
            // The pre-crash yes-vote's locks died with the crash and the
            // re-joined transaction holds none.
            if self.vol.shard.foreign_lock_owner(&route.txn).is_some() {
                *phase = Phase::Deferred;
                self.vol.decided.push((id, value));
                return;
            }
            self.vol.shard.relock(&route.txn);
        }
        *phase = Phase::Decided(value);
        self.vol.shard.finish(&route.txn, commit);
        // The hold `finish` released ends at the pass's reading. A
        // rejoin's relock was released in the same breath: a hold of no
        // length.
        if let Some(since) = route.locked_at {
            self.released.push(since);
        } else if holds_locks(&route.txn, rejoined, self.env.me) {
            self.env.obs.record(Stage::LockHold, Duration::ZERO);
        }
        let (txn, client) = (Arc::clone(&route.txn), route.client);
        self.vol.log.push(NodeRecord {
            id,
            txn,
            client,
            vote,
            decision: value,
        });
        self.vol.report(client, id, value);
    }

    /// Step 4. Group commit: everything this turn staged — Begin-path
    /// prepares and applied decisions — becomes durable in **one** force,
    /// strictly before any envelope or client reply that depends on it
    /// leaves the node. The batch is whatever `drain` found: a slower
    /// force or a busier CPU means a deeper backlog and a larger batch,
    /// and nobody waits for company. Afterwards nothing is staged.
    /// Returns the reading it ended at, if it forced.
    fn force(&mut self) -> Option<Instant> {
        let staged = !self.vol.wal_batch.is_empty();
        let wal = self.env.wal.as_mut().filter(|_| staged)?;
        let t0 = self.env.clock.now();
        wal.force_batch(&mut self.vol.wal_batch);
        let forced = self.env.clock.now();
        self.env.obs.record(Stage::WalForce, forced - t0);
        let me = self.env.me as u32;
        let at = self.env.clock.since_epoch(forced);
        for id in self.vol.wal_stamp.drain(..) {
            let stage = FlightStage::WalForced;
            self.env.obs.flight.record(id, me, stage, at);
        }
        Some(forced)
    }

    /// Step 5. The single write point: one `send_batch` (one post or
    /// socket write, at most one wakeup) per destination with traffic,
    /// peer node and client alike — over sockets, each down the connection
    /// that destination's own traffic arrives on.
    /// Delay-released envelopes go first (already judged by the plan —
    /// they bypass it; their dependent records were forced the turn that
    /// staged them), then this turn's envelopes take their fates from the
    /// fault plan. Durability-before-reply is the order of [`Node::step`]:
    /// `force` ran and left nothing staged. `forced` is the reading a
    /// force that just ran ended at: only bookkeeping lies between it and
    /// this step, so the step starts from it. Returns how many envelopes
    /// and replies left the node.
    fn flush(&mut self, forced: Option<Instant>) -> usize {
        let now = forced.unwrap_or_else(|| self.env.clock.now());
        let vol = &mut self.vol;
        debug_assert!(vol.wal_batch.is_empty(), "flush before force");
        while let Some(first) = vol.delayed.first_entry().filter(|e| e.key().0 <= now) {
            let ((_, _, to), env) = first.remove_entry();
            vol.cleared.stage(to, env);
        }
        let link = &mut self.env.link;
        if let Some(plan) = &self.env.faults {
            let unit = self.env.unit;
            let at = Time::from_wall(self.env.clock.since_epoch(now), unit);
            for (to, env) in vol.outbox.drain() {
                let seq = self.net_seq[to];
                self.net_seq[to] += 1;
                match plan.fate(self.env.me, to, at, seq) {
                    Fate::Deliver => vol.cleared.stage(to, env),
                    Fate::Drop => self.counts.dropped_messages += 1,
                    Fate::Delay(d) => {
                        self.counts.delayed_messages += 1;
                        vol.delayed
                            .insert((now + Time(d).to_wall(unit), seq, to), env);
                    }
                }
            }
        }
        let mut flushed = vol.outbox.flush(|to, batch| link.send_batch(to, batch));
        flushed += vol.cleared.flush(|to, batch| link.send_batch(to, batch));
        self.counts.wire_messages += flushed;
        for (client, batch) in vol.done_out.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            flushed += batch.len();
            match &self.env.replies {
                Replies::Mailbox(clients) => clients[client].post(batch),
                // A client that is gone costs its reports, not the node.
                Replies::Connection { .. } => {
                    link.reply(client, batch.drain(..).map(AnyFrame::Done));
                }
            }
        }
        if flushed > 0 {
            let took = self.env.clock.now() - now;
            self.env.obs.record(Stage::Flush, took);
        }
        flushed
    }

    /// The node's report at exit.
    pub(crate) fn finish(mut self) -> NodeReturn {
        // A node that dies without restarting still answers the audit with
        // its durable state: what the WAL can rebuild *is* its state.
        // In-flight yes-vote locks are durably recorded (a future restart
        // would re-hold them) but are *released* in this final report:
        // those transactions are already counted as stalled at the client,
        // and the audit's lock-leak check is about resolved transactions,
        // not ones a never-recovering node took to its grave. Each such
        // release ends a hold the crash left open; the node kept no
        // instant for it, so the hold counts with no length.
        if let (Power::Dark { .. }, Some(wal)) = (&self.power, &self.env.wal) {
            let me = self.env.me;
            let rec = wal.replay(me);
            self.vol.shard = rec.shard;
            for p in &rec.in_flight {
                self.vol.shard.finish(&p.txn, false);
                if holds_locks(&p.txn, p.vote, me) {
                    self.env.obs.record(Stage::LockHold, Duration::ZERO);
                }
            }
            self.vol.log = node_records(&rec.decided);
        }
        NodeReturn {
            shard: self.vol.shard,
            log: self.vol.log,
            counts: self.counts,
            #[cfg(test)]
            open_instances: self.vol.txns.len(),
            obs: self.env.obs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::host::host;
    use crate::service::ServiceConfig;
    use crate::transport::{
        mailboxes, Bell, ClientLink, Mailbox, NodeHooks, Readiness, SocketLink, TcpTransport,
        Transport,
    };
    use ac_commit::protocols::{PaxosCommit, ProtocolKind};
    use ac_txn::{Key, Version};
    use std::cell::Cell;
    use std::sync::mpsc::channel;

    /// How far apart two readings of the test clock lie.
    const STEP: Duration = Duration::from_micros(1);

    thread_local! {
        static ORIGIN: Instant = Instant::now();
        static READINGS: Cell<u32> = const { Cell::new(0) };
    }

    /// The test clock's reading: one [`STEP`] past the previous one on this
    /// thread, counted.
    fn stepping() -> Instant {
        let n = READINGS.with(|r| {
            r.set(r.get() + 1);
            r.get()
        });
        ORIGIN.with(|&o| o + STEP * n)
    }

    /// How often this thread has read the test clock.
    fn readings() -> u32 {
        READINGS.with(Cell::get)
    }

    /// A clock that reads [`stepping`], counting from its origin.
    fn test_clock() -> Clock {
        Clock {
            epoch: ORIGIN.with(|&o| o),
            read: stepping,
        }
    }

    /// Node `me` of the nodes whose mailboxes are `nodes`, replying to
    /// `clients`' mailboxes.
    fn bare_env<P: CommitProtocol>(
        me: ProcessId,
        nodes: Mailboxes<ToNode<P::Msg>>,
        clients: Mailboxes<Done>,
    ) -> NodeEnv<P>
    where
        P::Msg: Wire + Send + 'static,
    {
        NodeEnv {
            me,
            n: nodes.len(),
            f: 1,
            unit: Duration::from_millis(5),
            clock: Clock::monotonic(Instant::now()),
            link: Link::Mailbox(me, nodes),
            replies: Replies::Mailbox(clients),
            faults: None,
            crash: None,
            wal: None,
            logless: false,
            obs: NodeObs::new(),
        }
    }

    /// Minimal commit protocol: announces itself to its peers on start and
    /// decides COMMIT on the first message.
    struct DecideOnMsg;
    impl ac_sim::Automaton for DecideOnMsg {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut ac_sim::Ctx<()>) {
            ctx.broadcast_others(());
        }
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

    /// Node 0 of a two-node, one-client cluster on the test clock, driven
    /// by calling its steps; node 1's mailbox and the client's are where
    /// its flushes land.
    struct Rig {
        node: Node<DecideOnMsg>,
        nodes: Mailboxes<ToNode<()>>,
        done: Arc<Mailbox<Done>>,
    }

    fn rig(logless: bool, wal: Option<Wal>) -> Rig {
        let bell = [Bell::new()];
        let (nodes, clients) = (mailboxes(2, &bell), mailboxes(1, &bell));
        let mut env = bare_env::<DecideOnMsg>(0, nodes.clone(), clients.clone());
        env.clock = test_clock();
        env.logless = logless;
        env.wal = wal;
        let node = Node::new(env);
        Rig {
            node,
            nodes,
            done: Arc::clone(&clients[0]),
        }
    }

    impl Rig {
        /// Post `envs` to the node as one batch.
        fn post(&self, envs: impl IntoIterator<Item = ToNode<()>>) {
            self.nodes[0].post(&mut envs.into_iter().collect());
        }

        /// Node 1's mailbox: where the node's envelopes land.
        fn peer(&self) -> &Mailbox<ToNode<()>> {
            &self.nodes[1]
        }

        /// Hand the node `envs` as one drained batch and run the turn's
        /// remaining steps. Returns what left the node, one letter each:
        /// `N`et, Status`Q`, Status`A` to the peer, then `D`one to the
        /// client.
        fn turn(&mut self, envs: impl IntoIterator<Item = ToNode<()>>) -> String {
            self.node.inbox.extend(envs);
            self.node.dispatch();
            self.node.apply();
            let forced = self.node.force();
            self.node.flush(forced);
            let mut buf = Vec::new();
            self.peer().take(&mut buf, usize::MAX);
            let mut out: String = buf
                .iter()
                .map(|e| match e {
                    ToNode::Net { .. } => 'N',
                    ToNode::StatusQ { .. } => 'Q',
                    ToNode::StatusA { .. } => 'A',
                    _ => '?',
                })
                .collect();
            let mut dones = Vec::new();
            out.extend((0..self.done.take(&mut dones, usize::MAX)).map(|_| 'D'));
            out
        }

        /// The node's write-ahead log.
        fn wal(&self) -> &Wal {
            self.node.env.wal.as_ref().expect("a durable node")
        }

        fn phase(&self, id: TxnId) -> &'static str {
            match self.node.vol.txns.get(id) {
                None => "absent",
                Some(Txn::Early(_)) => "early",
                Some(Txn::Begun(_, Phase::Open)) => "open",
                Some(Txn::Begun(_, Phase::Voteless)) => "voteless",
                Some(Txn::Begun(_, Phase::Deferred)) => "deferred",
                Some(Txn::Begun(_, Phase::Decided(_))) => "decided",
            }
        }
    }

    /// A lone node's host short of the turn: the drain of what the test
    /// posted, or waits on the node's own sockets and drains until it took
    /// something — for at most a patient while (the test wrote its frames
    /// before). Returns how many envelopes the drain took.
    fn drained<P>(node: &mut Node<P>) -> usize
    where
        P: CommitProtocol,
        P::Msg: Wire + Send + 'static,
    {
        let patience = Instant::now() + Duration::from_secs(5);
        let mut wait = Readiness::default();
        while node.inbox.is_empty() {
            let Some(link) = node.sockets() else {
                node.drain(&[]);
                break;
            };
            if !wait.wait(None, [Some(link)], Some(patience)) {
                break;
            }
            node.drain(wait.of(0));
        }
        node.inbox.len()
    }

    /// Client 0's `i`-th transaction, writing `value` to key 7 of shard 0.
    fn write7(i: usize, value: i64) -> Arc<Transaction> {
        let id = ServiceConfig::txn_id(0, i);
        Arc::new(Transaction::new(id).with_write(Key::new(0, 7), value))
    }

    /// Client 0's first `k` transactions, each writing a key of shard 0 of
    /// its own.
    fn distinct(k: usize) -> Vec<Arc<Transaction>> {
        let txn =
            |i| Transaction::new(ServiceConfig::txn_id(0, i)).with_write(Key::new(0, i as u64), 1);
        (0..k).map(|i| Arc::new(txn(i))).collect()
    }

    fn begin(txn: &Arc<Transaction>, retry: bool) -> ToNode<()> {
        ToNode::Begin {
            txn: Arc::clone(txn),
            client: 0,
            retry,
        }
    }

    fn net(txn: TxnId) -> ToNode<()> {
        ToNode::Net {
            txn,
            from: 1,
            msg: (),
        }
    }

    /// However many instances are open, a step forces the prepares it
    /// staged and its votes leave in that step's flush — the batch is what
    /// the drain found, and nothing waits for company.
    #[test]
    fn a_loaded_node_forces_what_a_step_staged_and_its_votes_leave_in_that_step() {
        let mut r = rig(false, Some(Wal::new()));
        let per_step = 64;
        let mut votes = Vec::new();
        for step in 0..2 {
            let begins = (0..per_step).map(|i| begin(&write7(step * per_step + i, 5), false));
            r.post(begins);
            assert!(r.node.turn(&[]));
            assert_eq!(
                (r.wal().len(), r.node.vol.wal_batch.len()),
                ((step + 1) * per_step, 0),
                "step {step}: every staged prepare forced in the step that staged it"
            );
            assert_eq!(
                r.peer().take(&mut votes, usize::MAX),
                per_step,
                "step {step}: the votes left in that step's flush"
            );
        }
        assert_eq!(r.node.engine.open_instances(), 2 * per_step);
        let (forces, _) = r.node.env.obs.meters.get(Stage::WalForce);
        assert_eq!(forces, 2, "one force per step");
    }

    /// A decision and the `End` that garbage-collects its transaction can
    /// land in the **same drained batch**. The decision must still be
    /// applied — logged, reported, shard finished — before the entry goes
    /// away.
    #[test]
    fn decision_and_end_in_one_drained_batch_still_applies_the_decision() {
        let mut r = rig(false, None);
        let txn = write7(0, 5);
        assert_eq!(r.turn([begin(&txn, false)]), "N", "Begin processed alone");
        assert_eq!(r.node.vol.shard.locked(), 1);
        // The deciding message and the End arrive in one drained batch.
        let out = r.turn([net(txn.id), ToNode::End { txn: txn.id }]);
        assert_eq!(out, "D", "the batched decision must still reach the client");
        assert_eq!(r.phase(txn.id), "absent");
        assert_eq!(r.node.vol.log.len(), 1, "decision must be logged");
        assert_eq!(r.node.vol.log[0].decision, COMMIT);
        assert_eq!(r.node.vol.shard.locked(), 0, "no lock may leak");
    }

    /// The decision that releases a lock and the next `Begin` on that key
    /// can land in the **same drained batch** (a co-hosted coordinator's
    /// decision and the client's next request read in one pass). The
    /// decision comes first in the batch, so the `Begin` must vote as if it
    /// had been applied: yes, not a conflict with a lock already let go.
    #[test]
    fn a_begin_behind_the_decision_that_frees_its_lock_votes_yes() {
        let mut r = rig(false, None);
        let (first, next) = (write7(0, 5), write7(1, 6));
        assert_eq!(r.turn([begin(&first, false)]), "N");
        assert_eq!(r.turn([net(first.id), begin(&next, false)]), "ND");
        assert_eq!(r.node.vol.log.len(), 1, "the first is decided");
        let voted = |r: &Rig, id| match r.node.vol.txns.get(id) {
            Some(Txn::Begun(route, Phase::Open)) => route.vote,
            _ => panic!("txn {id} is not open"),
        };
        assert!(
            voted(&r, next.id),
            "the next Begin voted against a freed lock"
        );
        assert_eq!(r.node.vol.shard.locked(), 1, "the next holds the key");
    }

    /// A crash-recovered logless commit re-joined voteless holds no write
    /// locks; if a **live** transaction prepared on one of its keys since
    /// the restart, re-taking the lock unconditionally would let the live
    /// owner's later `finish` silently skip its writes — a lost update.
    /// The commit must instead wait, deferred, until the lock is free,
    /// then apply.
    #[test]
    fn recovered_logless_commit_defers_instead_of_stealing_live_locks() {
        let mut r = rig(true, None);
        // Live txn B prepared here: voted yes, holds the lock on key 7.
        let b = write7(2, 5);
        r.turn([begin(&b, false)]);
        // Txn A re-joins voteless after a crash (its pre-crash yes-vote's
        // locks died with the process); a peer reports the Commit decided
        // on the yes the peers still hold.
        let a = write7(1, 9);
        let (txn, value) = (a.id, COMMIT);
        let out = r.turn([begin(&a, true), ToNode::StatusA { txn, value }]);
        assert_eq!(out, "Q", "A asks its peers and reports nothing yet");
        assert_eq!(r.phase(a.id), "deferred", "A must wait on B's lock");
        assert!(r.node.vol.log.is_empty(), "a deferred commit is not logged");
        assert_eq!(r.node.vol.shard.read(7), Version::default());

        // B's own decision lands: it applies and releases the lock, and
        // the same apply drains the deferred A behind it.
        assert_eq!(r.turn([net(b.id)]), "DD");
        assert_eq!((r.phase(a.id), r.phase(b.id)), ("decided", "decided"));
        assert_eq!(
            r.node.vol.log.iter().map(|l| l.txn.id).collect::<Vec<_>>(),
            vec![b.id, a.id],
            "apply order: the live owner first, the recovered commit after"
        );
        let both = Version {
            value: 9,
            version: 2,
        };
        assert_eq!(r.node.vol.shard.read(7), both, "neither update lost");
        assert_eq!(r.node.vol.shard.locked(), 0, "no lock may leak");
        assert!(r.node.vol.decided.is_empty());
    }

    /// Every input on every phase (and on an unknown id): the phase it
    /// leaves the transaction in and what it made the node send.
    #[test]
    fn each_input_on_each_phase_moves_and_stages_what_the_table_says() {
        let t = write7(1, 9);
        let id = t.id;
        type Input = fn(&Arc<Transaction>) -> ToNode<()>;
        let inputs: [(&str, Input); 6] = [
            ("Begin", |t| begin(t, false)),
            ("Begin(retry)", |t| begin(t, true)),
            ("Net", |t| net(t.id)),
            ("StatusQ", |t| ToNode::StatusQ { txn: t.id, from: 1 }),
            ("StatusA", |t| ToNode::StatusA {
                txn: t.id,
                value: COMMIT,
            }),
            ("End", |t| ToNode::End { txn: t.id }),
        ];
        // Rows in `inputs` order: (phase after, what left the node).
        #[rustfmt::skip]
        let table: [(&str, [(&str, &str); 6]); 6] = [
            ("absent", [("open", "N"), ("voteless", "Q"), ("early", ""),
                        ("absent", ""), ("absent", ""), ("absent", "")]),
            // The buffered envelope is the deciding one: Begin opens the
            // instance and hands it over.
            ("early", [("decided", "ND"), ("voteless", "Q"), ("early", ""),
                       ("early", ""), ("early", ""), ("absent", "")]),
            ("open", [("open", "Q"), ("open", "Q"), ("decided", "D"),
                      ("open", ""), ("decided", "D"), ("absent", "")]),
            ("voteless", [("voteless", "Q"), ("voteless", "Q"), ("voteless", ""),
                          ("voteless", ""), ("decided", "D"), ("absent", "")]),
            ("deferred", [("deferred", "Q"), ("deferred", "Q"), ("deferred", ""),
                          ("deferred", ""), ("deferred", ""), ("absent", "")]),
            ("decided", [("decided", "D"), ("decided", "D"), ("decided", ""),
                         ("decided", "A"), ("decided", ""), ("absent", "")]),
        ];
        for (phase, row) in table {
            for ((name, input), (after, sent)) in inputs.iter().zip(row) {
                // A logless node, so the voteless and deferred phases exist.
                let mut r = rig(true, None);
                let (txn, value) = (id, COMMIT);
                match phase {
                    "absent" => String::new(),
                    "early" => r.turn([net(id)]),
                    "open" => r.turn([begin(&t, false)]),
                    "voteless" => r.turn([begin(&t, true)]),
                    "deferred" => r.turn([
                        begin(&write7(2, 5), false),
                        begin(&t, true),
                        ToNode::StatusA { txn, value },
                    ]),
                    _ => r.turn([begin(&t, false), net(id)]),
                };
                assert_eq!(r.phase(id), phase, "setting up {phase}");
                let out = r.turn([input(&t)]);
                assert_eq!(
                    (r.phase(id), out.as_str()),
                    (after, sent),
                    "{name} on {phase}"
                );
            }
        }
        // An early buffer holds ORPHAN_CAP envelopes; the next one counts.
        let mut r = rig(false, None);
        r.turn((0..=ORPHAN_CAP).map(|_| net(id)));
        assert_eq!(
            (r.phase(id), r.node.counts.orphaned_envelopes),
            ("early", 1)
        );
    }

    /// The crash point between `apply` and `force`: the vote, the decision
    /// record and the `Done` are all staged, none has left the node. A
    /// node dropped there leaves no trace of the transaction — not on the
    /// wire, not at the client, not in the WAL a successor recovers from.
    #[test]
    fn a_crash_before_force_leaves_no_trace_of_the_transaction() {
        let mut r = rig(false, Some(Wal::new()));
        let txn = write7(0, 5);
        r.post([begin(&txn, false), net(txn.id)]);
        assert_eq!(drained(&mut r.node), 2);
        r.node.dispatch();
        r.node.apply();
        assert_eq!(r.phase(txn.id), "decided");
        assert_eq!(r.node.vol.wal_batch.len(), 2, "prepare + decide staged");
        // The log is all that outlives the node.
        let wal = r.node.env.wal.take().expect("a durable node");
        let Rig { node, nodes, done } = r;
        drop(node);
        assert!(!nodes[1].pending() && !done.pending(), "nothing escaped");
        assert!(wal.is_empty(), "nothing was forced");

        let mut successor = rig(false, Some(wal));
        successor.node.recover();
        assert_eq!(successor.phase(txn.id), "absent");
        assert!(successor.node.vol.log.is_empty());
        assert_eq!(successor.node.vol.shard.locked(), 0);
        assert_eq!(successor.turn([]), "", "recovery has nothing to resend");
    }

    /// The next crash point, between `force` and `flush` (a participant
    /// that crashes after its yes is durable): the forced records survive
    /// although nothing reached the peer or the client. A successor
    /// rebuilds the transaction as decided from the log alone, holds no
    /// lock for it, and answers a retried `Begin` with the logged decision.
    #[test]
    fn a_crash_after_force_before_flush_recovers_the_logged_decision() {
        let mut r = rig(false, Some(Wal::new()));
        let txn = write7(0, 5);
        r.post([begin(&txn, false), net(txn.id)]);
        assert_eq!(drained(&mut r.node), 2);
        r.node.dispatch();
        r.node.apply();
        assert!(r.node.force().is_some());
        let wal = r.node.env.wal.take().expect("a durable node");
        let Rig { node, nodes, done } = r;
        drop(node);
        assert!(!nodes[1].pending() && !done.pending(), "nothing escaped");
        assert_eq!(wal.len(), 2, "prepare + decide survive");

        let mut successor = rig(false, Some(wal));
        successor.node.recover();
        assert_eq!(successor.phase(txn.id), "decided");
        let logged = |r: &Rig| {
            r.node
                .vol
                .log
                .iter()
                .map(|l| l.decision)
                .collect::<Vec<_>>()
        };
        assert_eq!(logged(&successor), vec![COMMIT]);
        assert_eq!(successor.node.vol.shard.locked(), 0);
        let committed = Version {
            value: 5,
            version: 1,
        };
        assert_eq!(successor.node.vol.shard.read(7), committed);
        assert_eq!(successor.turn([]), "D", "the report the crash swallowed");
        assert_eq!(successor.turn([begin(&txn, true)]), "D", "and again, asked");
        assert_eq!(logged(&successor), vec![COMMIT], "decided once");
    }

    /// In one drained batch of `Begin`s, each `Dispatch` is stamped at the
    /// reading its lock stage starts from — never before the previous
    /// `Begin`'s locks were held — so the envelopes ahead of it in the
    /// batch count as `channel`, not `lock`.
    #[test]
    fn a_begin_deep_in_a_batch_is_dispatched_after_the_begins_ahead_of_it() {
        let mut r = rig(false, None);
        let txns = distinct(8);
        r.turn(txns.iter().map(|t| begin(t, false)));
        let at = |txn: TxnId, stage| {
            let events = r.node.env.obs.flight.events();
            let ev = events.iter().find(|e| e.txn == txn && e.stage == stage);
            ev.expect("stamped").at_nanos
        };
        for pair in txns.windows(2) {
            let held = at(pair[0].id, FlightStage::LockAcquired);
            let dispatched = at(pair[1].id, FlightStage::Dispatch);
            assert!(
                dispatched >= held,
                "txn {} dispatched before its predecessor locked",
                pair[1].id
            );
            assert!(at(pair[1].id, FlightStage::LockAcquired) >= dispatched);
        }
    }

    /// Decisions applied in one pass share its readings: one closes their
    /// lock holds, one ends their journal and stamps them `Decided`. The
    /// WAL still holds, in order, the records one decision at a time staged
    /// — a logless node's deferred `Prepare` right before its `Decide`.
    #[test]
    fn the_decisions_of_one_apply_pass_share_its_readings() {
        for (logless, order) in [(false, "P0 P1 P2 D0 D1 D2"), (true, "P0 D0 P1 D1 P2 D2")] {
            let mut r = rig(logless, Some(Wal::new()));
            let txns = distinct(3);
            let begins = txns.iter().map(|t| begin(t, false));
            let decides = txns.iter().map(|t| net(t.id));
            assert_eq!(r.turn(begins.chain(decides)), "NNNDDD");

            let index = |id: TxnId| txns.iter().position(|t| t.id == id).expect("ours");
            let journaled: Vec<_> = (r.wal().records().iter())
                .map(|rec| match rec {
                    WalRecord::Prepare { txn, .. } => format!("P{}", index(txn.id)),
                    WalRecord::Decide { txn, .. } => format!("D{}", index(*txn)),
                })
                .collect();
            assert_eq!(journaled.join(" "), order, "logless: {logless}");

            let obs = &r.node.env.obs;
            let at = |stage| {
                let events = obs.flight.events().iter();
                events.filter(move |e| e.stage == stage).map(|e| e.at_nanos)
            };
            let decided: Vec<_> = at(FlightStage::Decided).collect();
            assert_eq!(decided.len(), 3);
            assert!(decided.iter().all(|&d| d == decided[0]), "{decided:?}");
            assert!(at(FlightStage::LockAcquired).all(|l| l < decided[0]));
            assert_eq!(obs.meters.get(Stage::WalJournal).0, 3, "one per decision");
            assert_eq!(obs.meters.get(Stage::LockHold).0, 3);
        }
    }

    /// The reading budget of a turn: `k` `Begin`s and the messages that
    /// decide them read the clock twice per `Begin` (its lock stage) and a
    /// fixed number of times besides — the batch start and the dispatch
    /// end, the apply pass's one reading (two with a log), the force's two
    /// and the flush's end (and, with no force to start from, its start).
    /// One reading more per transaction or per decision fails it.
    #[test]
    fn a_turn_reads_the_clock_twice_per_begin_plus_seven_or_five_without_a_log() {
        for k in [1, 8, 64] {
            for (durable, fixed) in [(true, 7), (false, 5)] {
                let mut r = rig(false, durable.then(Wal::new));
                let txns = distinct(k);
                let begins = txns.iter().map(|t| begin(t, false));
                let decides = txns.iter().map(|t| net(t.id));
                let before = readings();
                assert_eq!(
                    r.turn(begins.chain(decides)),
                    "N".repeat(k) + &"D".repeat(k)
                );
                let read = readings() - before;
                assert_eq!(read as usize, fixed + 2 * k, "k = {k}, durable: {durable}");
            }
        }
    }

    /// `(count, nanos)` of the `LockHold` meter a node reports at exit.
    fn holds_at_exit(node: Node<DecideOnMsg>) -> (u64, u64) {
        node.finish().obs.meters.get(Stage::LockHold)
    }

    /// Recovery path one, a WAL-replayed in-flight yes-vote: the replay
    /// re-takes its locks and its hold restarts at recovery; the decision
    /// that releases them closes it. A transaction decided before the
    /// crash was counted then, and its replay adds no second hold.
    #[test]
    fn a_replayed_in_flight_yes_vote_holds_from_recovery_to_its_decision() {
        let mut r = rig(false, Some(Wal::new()));
        let (a, b) = (write7(0, 5), write7(1, 6));
        assert_eq!(r.turn([begin(&a, false), net(a.id)]), "ND");
        assert_eq!(r.turn([begin(&b, false)]), "N");
        // a held from its `LockAcquired` reading across the dispatch-end
        // reading to its pass's first.
        let step = nanos(STEP);
        let held = |r: &Rig| r.node.env.obs.meters.get(Stage::LockHold);
        assert_eq!(held(&r), (1, 2 * step), "a released, b still held");
        r.node.crash();
        r.node.recover();
        assert_eq!((r.phase(a.id), r.phase(b.id)), ("decided", "open"));
        assert_eq!(r.node.vol.shard.locked(), 1, "b's lock re-taken");
        assert_eq!(held(&r).0, 1, "replay closes no hold");
        r.turn([net(b.id)]);
        assert_eq!(r.node.vol.shard.locked(), 0);
        // b held from the recovery reading across its deciding turn's batch
        // start and dispatch end to its pass's first reading.
        assert_eq!(holds_at_exit(r.node), (2, (2 + 3) * step));
    }

    /// Recovery path two, a logless rejoin: the commit a voteless
    /// transaction adopts re-takes its locks and releases them at once —
    /// one hold, of no length.
    #[test]
    fn a_logless_rejoin_relock_is_one_hold_of_no_length() {
        let mut r = rig(true, None);
        let a = write7(1, 9);
        let (txn, value) = (a.id, COMMIT);
        r.turn([begin(&a, true), ToNode::StatusA { txn, value }]);
        assert_eq!(r.phase(a.id), "decided");
        assert_eq!(r.node.vol.shard.read(7).value, 9);
        assert_eq!(holds_at_exit(r.node), (1, 0));
    }

    /// Recovery path three, a node dark for good: its final report
    /// releases the in-flight yes-vote's locks the log re-takes, which
    /// ends the hold the crash left open. The node kept no instant for it.
    #[test]
    fn a_dark_nodes_final_report_closes_its_in_flight_holds() {
        let mut r = rig(false, Some(Wal::new()));
        let b = write7(0, 6);
        assert_eq!(r.turn([begin(&b, false)]), "N");
        r.node.crash();
        assert!(matches!(r.node.power, Power::Dark { up_at: None }));
        let ret = r.node.finish();
        assert_eq!(ret.shard.locked(), 0, "released in the final report");
        assert_eq!(ret.obs.meters.get(Stage::LockHold), (1, 0));
    }

    /// Node `me` of two, hosted on its own sockets.
    fn socket_env(me: ProcessId, link: SocketLink<()>) -> NodeEnv<DecideOnMsg> {
        socket_node(me, 2, link, mailboxes(0, &[]))
    }

    /// Node `me` of `n` socket-linked nodes, replying to `clients`'
    /// mailboxes.
    fn socket_node<P: CommitProtocol>(
        me: ProcessId,
        n: usize,
        link: SocketLink<P::Msg>,
        clients: Mailboxes<Done>,
    ) -> NodeEnv<P>
    where
        P::Msg: Wire + Send + 'static,
    {
        NodeEnv {
            link: Link::Sockets(link),
            ..bare_env::<P>(me, mailboxes(n, &[Bell::new()]), clients)
        }
    }

    fn bound() -> (SocketLink<()>, std::net::SocketAddr) {
        let link = SocketLink::bind("127.0.0.1:0", NodeHooks::default()).expect("bind");
        let addr = link.addr().expect("listener address");
        (link, addr)
    }

    /// One frame off `stream`, or `None` if nothing has arrived.
    fn arrived(stream: &mut std::net::TcpStream) -> Option<AnyFrame<()>> {
        use std::io::Read;
        let wait = Some(Duration::from_millis(50));
        stream.set_read_timeout(wait).expect("read timeout");
        let mut chunk = [0u8; 256];
        match stream.read(&mut chunk) {
            Ok(n) => {
                let mut dec = crate::codec::FrameDecoder::new();
                dec.feed(&chunk[..n]);
                dec.next_frame().expect("well-formed frame")
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
            Err(e) => panic!("read: {e}"),
        }
    }

    /// A socket-hosted node — what an `ac-node` process runs — answers down
    /// the connection its client said `Hello` on, and only after the force
    /// its reply depends on: until `flush`, which follows `force`, neither
    /// the vote envelope nor the `Done` leaves.
    #[test]
    fn a_socket_hosted_node_answers_down_the_hello_connection_once_the_force_lets_go() {
        use crate::codec::write_frame;
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};

        let (mut link, me) = bound();
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind the peer");
        link.mesh(0, vec![me, peer.local_addr().expect("peer address")]);
        let (mut from_node, _) = peer.accept().expect("the node dialed its peer");
        let greeting = arrived(&mut from_node).expect("an introduction");
        assert!(
            matches!(greeting, AnyFrame::Peer { node: 0 }),
            "{greeting:?}"
        );
        let mut node = Node::new(NodeEnv {
            replies: Replies::Connection {
                clients: 1,
                net: Arc::new(NetMeters::new(2)),
            },
            wal: Some(Wal::new()),
            ..socket_env(0, link)
        });
        let logged = |node: &Node<DecideOnMsg>| node.env.wal.as_ref().map_or(0, Wal::len);

        let mut client = TcpStream::connect(me).expect("connect");
        let txn = write7(0, 5);
        let mut bytes = Vec::new();
        write_frame::<()>(&AnyFrame::Hello { client: 0 }, &mut bytes);
        write_frame(&AnyFrame::Node(begin(&txn, false)), &mut bytes);
        write_frame(&AnyFrame::Node(net(txn.id)), &mut bytes);
        client.write_all(&bytes).expect("write");
        assert_eq!(drained(&mut node), 2, "Hello is the link's, not the node's");
        node.dispatch();
        node.apply();

        assert!(arrived(&mut from_node).is_none(), "a vote outran its force");
        assert!(arrived(&mut client).is_none(), "a reply outran its force");
        assert_eq!(logged(&node), 0, "staged, not yet forced");

        let forced = node.force();
        assert!(forced.is_some());
        assert_eq!(logged(&node), 2, "prepare + decide");
        assert!(arrived(&mut from_node).is_none(), "only flush writes");
        assert!(arrived(&mut client).is_none(), "only flush writes");
        assert_eq!(node.flush(forced), 2, "the vote envelope and the Done");
        let reply = arrived(&mut client).expect("a reply down the Hello connection");
        let done = Done {
            txn: txn.id,
            node: 0,
            decision: COMMIT,
        };
        assert!(matches!(reply, AnyFrame::Done(d) if d == done), "{reply:?}");
        let vote = arrived(&mut from_node).expect("the vote envelope");
        let from_me =
            |env: &ToNode<()>| matches!(env, ToNode::Net { txn: t, from: 0, .. } if *t == txn.id);
        assert!(
            matches!(&vote, AnyFrame::Node(env) if from_me(env)),
            "{vote:?}"
        );
    }

    /// [`DecideOnMsg`] with a timer due at once: a fire every open.
    struct TickThenDecide;
    impl ac_sim::Automaton for TickThenDecide {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut ac_sim::Ctx<()>) {
            ctx.broadcast_others(());
            ctx.set_timer(ctx.now(), 0);
        }
        fn on_message(&mut self, _: ProcessId, _: (), ctx: &mut ac_sim::Ctx<()>) {
            ctx.decide(COMMIT);
        }
        fn on_timer(&mut self, _: u32, _: &mut ac_sim::Ctx<()>) {}
    }
    impl CommitProtocol for TickThenDecide {
        const NAME: &'static str = "tick-then-decide";
        fn new(_: ProcessId, _: usize, _: usize, _: bool) -> Self {
            TickThenDecide
        }
    }

    /// Every seam meter is added where it is observed: an `ObsPull`
    /// answered mid-run, long before `finish`, already carries the node's
    /// write-lock hold, its timer fire and its socket writes.
    #[test]
    fn a_mid_run_obs_pull_carries_the_hold_the_timer_fire_and_the_socket_writes() {
        use crate::codec::{write_frame, FrameDecoder};
        use std::io::{Read, Write};
        use std::net::{TcpListener, TcpStream};

        let (mut link, me) = bound();
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind the peer");
        link.mesh(0, vec![me, peer.local_addr().expect("peer address")]);
        let _from_node = peer.accept().expect("the node dialed its peer");
        let mut node = Node::new(NodeEnv {
            replies: Replies::Connection {
                clients: 1,
                net: Arc::new(NetMeters::new(2)),
            },
            ..socket_node::<TickThenDecide>(0, 2, link, mailboxes(0, &[]))
        });
        let turn = |node: &mut Node<TickThenDecide>, frames: &[AnyFrame<()>]| {
            let mut client = TcpStream::connect(me).expect("connect");
            let mut bytes = Vec::new();
            frames.iter().for_each(|f| write_frame(f, &mut bytes));
            client.write_all(&bytes).expect("write");
            drained(node);
            node.dispatch();
            node.apply();
            node.flush(None);
            client
        };

        let txn = write7(0, 5);
        let hello = AnyFrame::Hello { client: 0 };
        let (begin, decide) = (
            AnyFrame::Node(begin(&txn, false)),
            AnyFrame::Node(net(txn.id)),
        );
        let _client = turn(&mut node, &[hello, begin, decide]);
        let pull = AnyFrame::Node(ToNode::ObsPull { client: 1 });
        let mut collector = turn(&mut node, &[AnyFrame::Hello { client: 1 }, pull]);

        let mut dec = FrameDecoder::new();
        let mut chunk = vec![0u8; 1 << 16];
        let export = loop {
            let n = collector.read(&mut chunk).expect("the ObsDump");
            assert!(n > 0, "the node closed the collector's connection");
            dec.feed(&chunk[..n]);
            if let Some(frame) = dec.next_frame::<()>().expect("well-formed frame") {
                match frame {
                    AnyFrame::ObsDump { export, .. } => break export,
                    other => panic!("{other:?}"),
                }
            }
        };
        let count = |stage: Stage| export.meters[stage as usize].0;
        assert_eq!(count(Stage::LockHold), 1, "the yes-vote's released hold");
        assert_eq!(count(Stage::TimerFire), 1, "the timer due at open");
        assert!(
            count(Stage::TcpWrite) >= 2,
            "the vote envelope and the Done"
        );
    }

    /// Two socket-hosted nodes and one connection between them: the lower
    /// id dialed it while joining, a request goes up it and the answer
    /// comes back down it — nobody dials or accepts again.
    #[test]
    fn two_socket_hosted_nodes_ask_and_answer_over_one_connection() {
        let ((low, low_addr), (high, high_addr)) = (bound(), bound());
        let (mut links, nodes) = (vec![low, high], vec![low_addr, high_addr]);
        for (me, link) in links.iter_mut().enumerate() {
            link.mesh(me, nodes.clone());
        }
        let mut high = Node::new(socket_env(1, links.pop().expect("two links")));
        let mut low = Node::new(socket_env(0, links.pop().expect("two links")));
        let connections = |node: &Node<DecideOnMsg>| match &node.env.link {
            Link::Sockets(link) => link.connections(),
            Link::Mailbox(..) => unreachable!("socket-hosted"),
        };
        assert_eq!((connections(&low), connections(&high)), (1, 1));

        // The request: the lower node begins and announces itself.
        let txn = write7(0, 5);
        low.inbox.push(begin(&txn, false));
        low.dispatch();
        assert_eq!(low.flush(None), 1);
        assert_eq!(
            drained(&mut high),
            1,
            "read off the one accepted connection"
        );
        // The answer: begun in turn, the higher node announces itself and,
        // handed the envelope that outran its Begin, decides.
        high.inbox.push(begin(&txn, false));
        high.dispatch();
        high.apply();
        assert_eq!(high.flush(None), 1);
        assert_eq!(drained(&mut low), 1, "read off the connection it wrote on");
        low.dispatch();
        low.apply();
        let decided = |node: &Node<DecideOnMsg>| node.vol.log.iter().map(|l| l.decision).collect();
        assert_eq!(
            (decided(&low), decided(&high)),
            (vec![COMMIT], vec![COMMIT])
        );

        // A last look at both listeners, in one wait: nothing was waiting
        // to be accepted.
        let soon = Some(Instant::now() + Duration::from_millis(50));
        let mut wait = Readiness::default();
        assert!(!wait.wait(None, [low.sockets(), high.sockets()], soon));
        assert_eq!((connections(&low), connections(&high)), (1, 1));
    }

    /// ISSUE-4 satellite: an idle service must perform **zero** spurious
    /// wakeups — no housekeeping ticks, no idle polls. Four in-process
    /// nodes, each its host's one member, are left with no clients and no
    /// traffic for 50 ms; every host must park the whole time, and the
    /// `Shutdown` posted to it then must reach it through its bell.
    #[test]
    fn idle_nodes_perform_zero_spurious_wakeups_over_50ms() {
        type P = PaxosCommit;
        let n = 4;
        let bells: Vec<_> = (0..n).map(|_| Bell::new()).collect();
        let nodes = mailboxes(n, &bells);
        let handles: Vec<_> = (bells.into_iter().enumerate())
            .map(|(me, bell)| {
                let env = bare_env::<P>(me, nodes.clone(), mailboxes(0, &[]));
                std::thread::spawn(move || {
                    host(Some(&bell), vec![Node::new(env)], Vec::new(), drop)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        for p in 0..n {
            nodes[p].post(&mut vec![ToNode::Shutdown]);
        }
        let total: usize = handles
            .into_iter()
            .map(|h| h.join().expect("host thread panicked").spurious_wakeups)
            .sum();
        assert_eq!(total, 0, "idle nodes woke without work to do");
    }

    /// The same for four socket-linked nodes on one host: its one wait
    /// covers every member's listener and connections, and an idle cluster
    /// leaves it parked for the whole 50 ms. Teardown's connections and
    /// `Shutdown` frames move something in a member at every wake. With two
    /// co-hosted clients that wait behind a pacing gate between their
    /// transactions, the host parks until a gate opens, so every wake
    /// still moves something.
    #[test]
    fn an_idle_four_member_host_performs_zero_spurious_wakeups_over_50ms() {
        type P = PaxosCommit;
        type M = <P as ac_sim::Automaton>::Msg;
        let n = 4;
        let paced = ServiceConfig::new(n, 1, ProtocolKind::PaxosCommit)
            .clients(2)
            .txns_per_client(5)
            .pacing(Duration::from_millis(10));
        for clients in [0, paced.clients] {
            let mut links = Vec::new();
            let mut addrs = Vec::new();
            for _ in 0..n {
                let link =
                    SocketLink::<M>::bind("127.0.0.1:0", NodeHooks::default()).expect("bind");
                addrs.push(link.addr().expect("listener address"));
                links.push(link);
            }
            let bell = Bell::new();
            let inboxes = mailboxes(clients, &[Arc::clone(&bell)]);
            let members: Vec<_> = links
                .into_iter()
                .enumerate()
                .map(|(me, mut link)| {
                    link.mesh(me, addrs.clone());
                    Node::new(socket_node::<P>(me, n, link, inboxes.clone()))
                })
                .collect();
            let epoch = Instant::now();
            let guests: Vec<Client<M>> = (0..clients)
                .map(|c| {
                    let nodes = Box::new(TcpTransport::new(addrs.clone()));
                    let link = ClientLink::InProcess(nodes, Arc::clone(&inboxes[c]));
                    Client::new(c, &paced, epoch, link)
                })
                .collect();
            let (exits, exited) = channel();
            let hosted = std::thread::spawn(move || {
                host(Some(&bell), members, guests, |ret| {
                    let _ = exits.send(ret);
                })
            });
            std::thread::sleep(Duration::from_millis(50));
            for _ in 0..clients {
                let ret = exited.recv().expect("a client returns");
                assert_eq!((ret.records.len(), ret.stalled, ret.retries), (5, 0, 0));
            }
            let mut teardown = TcpTransport::new(addrs);
            for p in 0..n {
                Transport::<M>::send(&mut teardown, p, ToNode::Shutdown);
            }
            let ret = hosted.join().expect("host thread panicked");
            assert_eq!(ret.nodes.len(), n);
            assert_eq!(
                ret.spurious_wakeups, 0,
                "a host with {clients} clients woke without work"
            );
        }
    }

    /// A host with no node, as `ac-client` runs one: two paced clients
    /// that dial four one-member socket hosts and read their reports off
    /// the connections they dialed. Its one wait covers both clients'
    /// connections and hands each its own slots, so every wake moves
    /// something in the client it woke for, and every transaction comes
    /// back without a retry.
    #[test]
    fn a_node_less_host_serves_two_dialing_clients_without_a_spurious_wakeup() {
        type P = PaxosCommit;
        type M = <P as ac_sim::Automaton>::Msg;
        let n = 4;
        let paced = ServiceConfig::new(n, 1, ProtocolKind::PaxosCommit)
            .clients(2)
            .txns_per_client(5)
            .pacing(Duration::from_millis(10));
        let bound: Vec<_> = (0..n)
            .map(|_| SocketLink::<M>::bind("127.0.0.1:0", NodeHooks::default()).expect("bind"))
            .collect();
        let addrs: Vec<_> = bound.iter().map(|l| l.addr().expect("address")).collect();
        let node_hosts: Vec<_> = (bound.into_iter().enumerate())
            .map(|(me, mut link)| {
                link.mesh(me, addrs.clone());
                let replies = Replies::Connection {
                    clients: paced.clients,
                    net: Arc::new(NetMeters::new(n)),
                };
                let env = NodeEnv {
                    replies,
                    ..socket_node::<P>(me, n, link, mailboxes(0, &[]))
                };
                let bell = Bell::new();
                std::thread::spawn(move || {
                    host(Some(&bell), vec![Node::new(env)], Vec::new(), drop)
                })
            })
            .collect();
        let epoch = Instant::now();
        let clients = (0..paced.clients)
            .map(|c| Client::new(c, &paced, epoch, ClientLink::dialing(c, addrs.clone())))
            .collect();
        let mut exits = Vec::new();
        let hosted = host::<P>(None, Vec::new(), clients, |ret| exits.push(ret));
        assert_eq!(exits.len(), paced.clients);
        for ret in &exits {
            let c = ret.client;
            assert_eq!(
                (ret.records.len(), ret.stalled, ret.retries),
                (5, 0, 0),
                "client {c}"
            );
        }
        assert!(hosted.nodes.is_empty());
        assert_eq!(
            hosted.spurious_wakeups, 0,
            "the client host woke without work"
        );

        let mut teardown = TcpTransport::new(addrs);
        for p in 0..n {
            Transport::<M>::send(&mut teardown, p, ToNode::Shutdown);
        }
        for h in node_hosts {
            assert_eq!(h.join().expect("host thread panicked").nodes.len(), 1);
        }
    }

    /// Every `End` leaves the client — including the ones still waiting
    /// for a `Begin` to ride when the loop breaks — so a windowed run
    /// leaves no instance open at any node. (In process the clients' final
    /// flush is posted ahead of the `Shutdown` posted after they return,
    /// so the check is exact.)
    #[test]
    fn windowed_clients_end_every_instance_they_began() {
        type P = PaxosCommit;
        let n = 4;
        let cfg = ServiceConfig::new(n, 1, ProtocolKind::PaxosCommit)
            .clients(1)
            .txns_per_client(300)
            .park_retries(0)
            .max_outstanding(32);
        let bells: Vec<_> = (0..=n).map(|_| Bell::new()).collect();
        let nodes = mailboxes(n, &bells[..n]);
        let clients = mailboxes(1, &bells[n..]);
        let handles: Vec<_> = (bells[..n].iter().cloned().enumerate())
            .map(|(me, bell)| {
                let env = bare_env::<P>(me, nodes.clone(), clients.clone());
                std::thread::spawn(move || {
                    host(Some(&bell), vec![Node::new(env)], Vec::new(), drop)
                })
            })
            .collect();
        let link = ClientLink::InProcess(Box::new(nodes.clone()), Arc::clone(&clients[0]));
        let client = Client::new(0, &cfg, Instant::now(), link);
        let mut ret = None;
        host::<P>(Some(&bells[n]), Vec::new(), vec![client], |r| ret = Some(r));
        let ret = ret.expect("the client exited");
        assert_eq!((ret.records.len(), ret.stalled, ret.retries), (300, 0, 0));
        for p in 0..n {
            nodes[p].post(&mut vec![ToNode::Shutdown]);
        }
        let nodes: Vec<NodeReturn> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("host thread panicked").nodes)
            .collect();
        let decided: usize = nodes.iter().map(|r| r.log.len()).sum();
        assert_eq!(decided, 2 * 300, "two participants per transaction");
        for (p, r) in nodes.iter().enumerate() {
            assert_eq!(r.open_instances, 0, "node {p} was never told to end some");
        }
    }
}
