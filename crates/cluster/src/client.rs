//! The load generator's client: submit, learn each outcome with bounded,
//! retrying waits, record, repeat. Where the protocol's Table-1 cell has
//! agreement in both failure models
//! ([`ac_commit::taxonomy::Cell::always_agrees`]), a participant's `Done`
//! is every participant's outcome: every participant persists its decision
//! before it answers, and none can decide otherwise. So the client
//! *reports* the transaction on its first `Done` there, on its last one
//! elsewhere, and frees its window slot. It *settles* the transaction,
//! building its [`ClientRecord`], only once every participant has answered
//! or the deadline passed, so the audit still reads every participant's
//! decision.
//!
//! A [`Client`] is split the way a node is: [`Client::turn`] takes what
//! is ready on its `ClientLink` — its mailbox in the in-process service,
//! its slots of its host's readiness wait over the connections it dialed
//! in a multi-process cluster — folds it in, re-sends or abandons what
//! expired, submits and flushes once, and never blocks;
//! [`Client::deadline`] says when it next needs a turn. The park between
//! turns belongs to its host (`host.rs`), the one loop that runs nodes
//! and clients alike: in process the clients ride the node hosts and are
//! turned after the nodes in every round, and `ac-client`'s one host
//! waits on every client's connections at once.
//! [`ClientRecord::verdict`] is the one reading of what a client saw of a
//! transaction, and [`ClientFold`] the one fold of what a run's clients
//! return, whichever host ran them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ac_commit::problem::COMMIT;
use ac_commit::protocols::PerRank;
use ac_obs::{ObsMeters, RunStats, Stage};
use ac_sim::Wire;
use ac_txn::workload::{ArrivalSchedule, WorkloadConfig, WorkloadGen};
use ac_txn::{Transaction, TxnId};

use crate::service::{parts_of, Done, ServiceConfig, ToNode, TxnEvent};
use crate::transport::{ClientLink, Outbox, PollFd, Sockets};

/// Upper bound on decision replies a client drains per iteration.
const CLIENT_BATCH: usize = 64;

/// Outcome of one client transaction as the client observed it.
#[derive(Clone, Debug)]
pub(crate) struct ClientRecord {
    pub(crate) id: TxnId,
    /// Decision reported by each participant, in participant-rank order
    /// (None = never arrived before abandonment).
    pub(crate) decisions: PerRank<Option<u64>>,
}

/// What a [`ClientRecord`] says of its transaction.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Abandoned at its deadline with a participant's decision missing.
    Stalled,
    /// Participants reported different decisions (sorted, distinct) — an
    /// atomic-commitment violation.
    Split(Vec<u64>),
    /// Every participant reported this decision.
    Decided(u64),
}

impl ClientRecord {
    /// Classify the record: the one client-side verdict the in-process
    /// audit and the multi-process client summary both count by.
    pub(crate) fn verdict(&self) -> Verdict {
        if self.decisions.iter().any(|d| d.is_none()) {
            return Verdict::Stalled;
        }
        let mut seen = self.decisions.iter().flatten().copied();
        let first = seen.next();
        match first.filter(|&d| seen.all(|other| other == d)) {
            Some(decision) => Verdict::Decided(decision),
            None => {
                let mut vals: Vec<u64> = self.decisions.iter().flatten().copied().collect();
                vals.sort_unstable();
                vals.dedup();
                Verdict::Split(vals)
            }
        }
    }
}

pub(crate) struct ClientReturn {
    /// The client's id.
    pub(crate) client: usize,
    pub(crate) records: Vec<ClientRecord>,
    pub(crate) events: Vec<TxnEvent>,
    pub(crate) stalled: usize,
    pub(crate) retries: usize,
    pub(crate) reply_timeouts: usize,
    /// Arrivals the schedule offered (submissions + sheds).
    pub(crate) offered: usize,
    /// Open-loop arrivals shed at a full in-flight window.
    pub(crate) shed: usize,
    /// Client-side seam meters (`ClientQueueWait` and the client
    /// transport's share of `TcpWrite`).
    pub(crate) meters: ObsMeters,
}

/// `d` in whole nanoseconds, saturating.
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What a run's clients saw, folded: the in-process audit
/// (`service::aggregate`) and the multi-process client (`proc::run_client`)
/// count by this one pass.
#[derive(Default)]
pub(crate) struct ClientFold {
    /// Offered, shed, committed, aborted and stalled, summed over the
    /// clients folded in so far; `elapsed_nanos` is the host's to stamp.
    pub(crate) stats: RunStats,
    /// Transactions whose participants reported different decisions.
    pub(crate) split: usize,
    /// `Begin` re-sends.
    pub(crate) retries: usize,
}

impl ClientFold {
    /// Fold one client's return in; `audit` sees each of its records with
    /// the verdict it was counted by.
    pub(crate) fn add(&mut self, cr: &ClientReturn, mut audit: impl FnMut(&ClientRecord, Verdict)) {
        self.stats.offered += cr.offered as u64;
        self.stats.shed += cr.shed as u64;
        self.stats.stalled += cr.stalled as u64;
        self.retries += cr.retries;
        for rec in &cr.records {
            let verdict = rec.verdict();
            match verdict {
                Verdict::Stalled => {} // counted by the client, in `stalled`
                Verdict::Split(_) => self.split += 1,
                Verdict::Decided(COMMIT) => self.stats.committed += 1,
                Verdict::Decided(_) => self.stats.aborted += 1,
            }
            audit(rec, verdict);
        }
    }
}

/// One outstanding transaction at a client.
struct PendingTxn {
    /// `txn.id`, inline: every reply is matched against every outstanding
    /// entry.
    id: TxnId,
    txn: Arc<Transaction>,
    /// Participant shards, derived once at submission.
    parts: PerRank<usize>,
    decisions: PerRank<Option<u64>>,
    got: usize,
    t0: Instant,
    retries: u32,
    next_retry: Instant,
    deadline: Instant,
    /// Its event's index in the client's `events` once the client has
    /// reported its outcome; `None` while it waits for a `Done` to report.
    reported: Option<usize>,
}

impl PendingTxn {
    /// Whether the closed loop waits for it: it is neither reported nor
    /// parked (retried `park_retries` times, so the loop stopped waiting).
    fn waited_for(&self, park_retries: u32) -> bool {
        self.reported.is_none() && self.retries < park_retries
    }

    /// Its timeline as `client` observed it; `decided` is its latency and
    /// outcome, `None` for an abandoned transaction.
    fn event(&self, client: usize, epoch: Instant, decided: Option<(Duration, bool)>) -> TxnEvent {
        let submitted_at = self.t0.saturating_duration_since(epoch);
        TxnEvent {
            id: self.id,
            client,
            participants: self.parts.len(),
            submitted_at,
            decided_at: decided.map(|(lat, _)| submitted_at + lat),
            committed: decided.map(|(_, committed)| committed),
            retries: self.retries,
            // Filled by `aggregate` from the merged flight events.
            first_protocol_at: None,
            votes_held_at: None,
            journaled_at: None,
        }
    }
}

/// Stage the `End`s waiting for node `to` — every one of them, provided at
/// least `at_least` wait. The one place a client stages an `End`: ahead of
/// its next `Begin` to that node (`at_least` 0), at a turn's write point
/// once `max_outstanding` wait, and at exit (0).
fn stage_ends<M>(outbox: &mut Outbox<M>, ends: &mut [Vec<TxnId>], to: usize, at_least: usize) {
    if ends[to].len() >= at_least {
        for txn in ends[to].drain(..) {
            outbox.stage(to, ToNode::End { txn });
        }
    }
}

/// Stage `txn`'s `Begin` for every participant, each right behind the
/// `End`s waiting for that node.
fn stage_begins<M>(
    outbox: &mut Outbox<M>,
    ends: &mut [Vec<TxnId>],
    p: &PendingTxn,
    client: usize,
    retry: bool,
) {
    for &q in &p.parts {
        stage_ends(outbox, ends, q, 0);
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

/// One client of the load generator: submit, learn each outcome with
/// bounded, retrying waits, record, repeat. Unresolved transactions are
/// parked (background retries) so a dead node blocks one transaction, not
/// the whole load stream; abandonment at `txn_deadline` is the last resort
/// and counts as a stall. [`Client::turn`] never blocks: the park between
/// turns belongs to the host that runs the client (see the module docs).
///
/// A transaction is *reported* — its event stamped with the outcome, its
/// window slot freed, the closed loop unblocked — on the first `Done` when
/// the protocol's cell always agrees and fewer than `max_outstanding`
/// reported transactions wait to settle, else on its last `Done`. It stays
/// outstanding, retrying, until it *settles*: every participant answered
/// (its record is built, its `End`s queued) or its deadline passed (a
/// stall, reported or not). The gate admits a submission while fewer than
/// `max_outstanding` transactions are unreported, so at most twice that
/// many are open at the nodes.
///
/// Egress follows the node's rule: `Begin`s and retries are *staged* per
/// destination and leave through one flush per turn, its last step. A
/// finished transaction's `End`s wait, per participant, for the client's
/// next `Begin` to that node and are staged right ahead of it, so an `End`
/// never costs a write of its own. They leave without one only once
/// `max_outstanding` wait for a node at a turn's write point, and at exit.
pub(crate) struct Client<M> {
    client: usize,
    cfg: ServiceConfig,
    epoch: Instant,
    link: ClientLink<M>,
    gen: WorkloadGen,
    /// The first `Done` is the outcome wherever the cell always agrees.
    first_done_reports: bool,
    /// Open loop: arrivals fire on a Poisson schedule regardless of
    /// completions, and a full in-flight window sheds the arrival instead
    /// of back-pressuring the schedule.
    arrivals: Option<ArrivalSchedule>,
    next_arrival: Instant,
    /// Closed loop: the pacing gate.
    next_allowed: Instant,
    submitted: usize,
    /// Submissions plus open-loop sheds.
    offered: usize,
    shed: usize,
    outstanding: Vec<PendingTxn>,
    /// Outstanding transactions not yet reported: they hold the window.
    unreported: usize,
    /// Outstanding transactions the closed loop waits for
    /// ([`PendingTxn::waited_for`]).
    unparked: usize,
    records: Vec<ClientRecord>,
    events: Vec<TxnEvent>,
    stalled: usize,
    retries: usize,
    reply_timeouts: usize,
    /// Replies taken off the link, folded in by the next turn.
    replies: Vec<Done>,
    /// Meters only: a client stamps no flight event.
    meters: ObsMeters,
    outbox: Outbox<M>,
    /// Per node, the finished transactions whose `End`s wait there.
    ends: Vec<Vec<TxnId>>,
    /// The reading after the last flush: the next turn meters the gap.
    flushed_at: Option<Instant>,
    /// The exit flush has left: the client wants no more turns.
    exited: bool,
}

impl<M: Wire + Send + 'static> Client<M> {
    /// Client `client` of `cfg`'s load, stamping against `epoch`, writing
    /// to and reading replies off `link`.
    pub(crate) fn new(
        client: usize,
        cfg: &ServiceConfig,
        epoch: Instant,
        link: ClientLink<M>,
    ) -> Client<M> {
        let gen = WorkloadConfig {
            shards: cfg.n,
            keys_per_shard: cfg.keys_per_shard,
            workload: cfg.workload.clone(),
            seed: cfg.client_seed(client),
        }
        .generator();
        // The arrival stream gets its own seed stream so it never aliases
        // the workload draw.
        let mut arrivals = cfg
            .arrival_rate
            .map(|rate| ArrivalSchedule::new(rate, cfg.client_seed(client) ^ 0x5eed_a221));
        let now = Instant::now();
        let first_gap = arrivals
            .as_mut()
            .map_or(Duration::ZERO, ArrivalSchedule::next_gap);
        let total = cfg.txns_per_client;
        // The first client keeps room for every client's events: the
        // in-process run appends the others' onto its vector, which so
        // never moves, wherever the allocator put the vectors.
        let events = if client == 0 {
            cfg.clients * total
        } else {
            total
        };
        Client {
            client,
            cfg: cfg.clone(),
            epoch,
            link,
            gen,
            first_done_reports: cfg.kind.cell().always_agrees(),
            arrivals,
            next_arrival: now + first_gap,
            next_allowed: now,
            submitted: 0,
            offered: 0,
            shed: 0,
            outstanding: Vec::new(),
            unreported: 0,
            unparked: 0,
            records: Vec::with_capacity(total),
            events: Vec::with_capacity(events),
            stalled: 0,
            retries: 0,
            reply_timeouts: 0,
            replies: Vec::with_capacity(CLIENT_BATCH),
            meters: ObsMeters::new(),
            outbox: Outbox::new(cfg.n),
            ends: vec![Vec::new(); cfg.n],
            flushed_at: None,
            exited: false,
        }
    }

    /// When the client next needs a turn: at once while replies wait in
    /// its mailbox or on its link, or once it has nothing left but its
    /// exit flush, else the
    /// earliest outstanding retry or abandonment and whatever gates the
    /// next submission — the arrival schedule (open loop) or the pacing
    /// gate (closed loop, only when it is what blocks submission). `None`
    /// once it has exited.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        if self.exited {
            return None;
        }
        if self.finished() || self.link.pending() {
            return Some(self.epoch);
        }
        let gate = match self.arrivals {
            Some(_) => (self.offered < self.cfg.txns_per_client).then_some(self.next_arrival),
            None => self.gate_open().then_some(self.next_allowed),
        };
        let waits = self
            .outstanding
            .iter()
            .map(|p| p.next_retry.min(p.deadline));
        waits.chain(gate).min()
    }

    /// Whether its exit flush has left: it wants no more turns.
    pub(crate) fn exited(&self) -> bool {
        self.exited
    }

    /// The sockets its host's wait covers for the client: the connections
    /// it dialed (none in process).
    pub(crate) fn sockets(&self) -> Option<&Sockets> {
        self.link.sockets()
    }

    /// Whether a turn would find anything, read at `now`: a slot of
    /// `ready` (its slots of its host's wait) is ready or its deadline has
    /// come.
    pub(crate) fn due(&self, ready: &[PollFd], now: Instant) -> bool {
        ready.iter().any(PollFd::is_ready) || self.deadline().is_some_and(|at| at <= now)
    }

    /// One turn, which never blocks, at the reading `now`: take what is
    /// ready on the link (its mailbox, or `ready`, the client's slots of
    /// its host's wait), fold it in, re-send or abandon what
    /// expired, submit what the closed loop, pacing or the arrival
    /// schedule admits, and flush once — the exit flush, with every
    /// waiting `End`, once nothing is left to submit or learn. Returns
    /// whether the turn moved anything: a socket read, a reply, an expiry,
    /// a submission or the exit.
    pub(crate) fn turn(&mut self, now: Instant, ready: &[PollFd]) -> bool {
        debug_assert!(!self.exited, "a turn after the exit flush");
        let park_retries = self.cfg.park_retries;
        debug_assert_eq!(
            self.unparked,
            self.outstanding
                .iter()
                .filter(|p| p.waited_for(park_retries))
                .count()
        );
        debug_assert_eq!(
            self.unreported,
            (self.outstanding.iter())
                .filter(|p| p.reported.is_none())
                .count()
        );
        debug_assert!(self.outstanding.len() - self.unreported <= self.cfg.max_outstanding);
        if let Some(at) = self.flushed_at.take() {
            self.meters.add(
                Stage::ClientQueueWait,
                nanos(now.saturating_duration_since(at)),
            );
        }
        let room = CLIENT_BATCH.saturating_sub(self.replies.len());
        let read = self.link.take(ready, &mut self.replies, room);
        let folded = read || !self.replies.is_empty();
        self.fold(now);
        let expired = self.expire(now);
        let submitted = self.submit(now);
        self.exited = self.finished();

        // The turn's single write point: everything staged this turn — the
        // expiry pass's retried Begins and the fresh ones, each behind the
        // Ends waiting for its node, and the Ends of any node
        // `max_outstanding` of them wait for (all of them at exit) —
        // leaves now, one batch per node.
        let at_least = if self.exited {
            0
        } else {
            self.cfg.max_outstanding
        };
        for to in 0..self.cfg.n {
            stage_ends(&mut self.outbox, &mut self.ends, to, at_least);
        }
        debug_assert!(self.ends.iter().all(|e| e.len() < self.cfg.max_outstanding));
        let link = &mut self.link;
        self.outbox.flush(|to, batch| link.send_batch(to, batch));
        self.flushed_at = Some(Instant::now());
        folded || expired || submitted || self.exited
    }

    /// Whether everything was offered and nothing is outstanding.
    fn finished(&self) -> bool {
        self.offered == self.cfg.txns_per_client && self.outstanding.is_empty()
    }

    /// The closed loop is open: it waits for no transaction and the window
    /// has room. (Pacing gates on top of it.)
    fn gate_open(&self) -> bool {
        self.submitted < self.cfg.txns_per_client
            && self.unreported < self.cfg.max_outstanding
            && self.unparked == 0
    }

    /// Fold the taken replies in, each stamped with `now` (duplicates from
    /// retries or recovery are ignored).
    fn fold(&mut self, now: Instant) {
        let park_retries = self.cfg.park_retries;
        for d in self.replies.drain(..) {
            let Some(i) = self.outstanding.iter().position(|p| p.id == d.txn) else {
                continue; // straggler of a settled txn
            };
            let reported = self.outstanding.len() - self.unreported;
            let p = &mut self.outstanding[i];
            let Some(slot) = p.parts.iter().position(|&q| q == d.node) else {
                continue;
            };
            if p.decisions[slot].is_some() {
                continue;
            }
            p.decisions[slot] = Some(d.decision);
            p.got += 1;
            let settled = p.got == p.parts.len();
            let first = self.first_done_reports && reported < self.cfg.max_outstanding;
            if p.reported.is_none() && (settled || first) {
                self.unparked -= usize::from(p.waited_for(park_retries));
                self.unreported -= 1;
                p.reported = Some(self.events.len());
                let lat = now.saturating_duration_since(p.t0);
                let ev = p.event(self.client, self.epoch, Some((lat, d.decision == COMMIT)));
                self.events.push(ev);
            }
            if settled {
                let p = self.outstanding.swap_remove(i);
                let at = p.reported.expect("reported by its last Done at the latest");
                self.events[at].retries = p.retries;
                for &q in &p.parts {
                    self.ends[q].push(p.id);
                }
                self.records.push(ClientRecord {
                    id: p.id,
                    decisions: p.decisions,
                });
            }
        }
    }

    /// Expired waits: re-send `Begin` (bounded, counted) or abandon at the
    /// hard deadline — reported or not, an abandoned transaction's event
    /// reads as abandoned. Returns whether any wait expired.
    fn expire(&mut self, now: Instant) -> bool {
        let park_retries = self.cfg.park_retries;
        let before = self.reply_timeouts;
        let mut i = 0;
        while i < self.outstanding.len() {
            if now >= self.outstanding[i].deadline {
                let p = self.outstanding.swap_remove(i);
                self.unparked -= usize::from(p.waited_for(park_retries));
                self.unreported -= usize::from(p.reported.is_none());
                self.stalled += 1;
                self.reply_timeouts += 1;
                let ev = p.event(self.client, self.epoch, None);
                match p.reported {
                    Some(at) => self.events[at] = ev,
                    None => self.events.push(ev),
                }
                self.records.push(ClientRecord {
                    id: p.id,
                    decisions: p.decisions,
                });
                continue;
            }
            if now >= self.outstanding[i].next_retry {
                let p = &mut self.outstanding[i];
                self.reply_timeouts += 1;
                self.retries += 1;
                p.retries += 1;
                self.unparked -= usize::from(p.reported.is_none() && p.retries == park_retries);
                p.next_retry = now + self.cfg.reply_timeout;
                stage_begins(&mut self.outbox, &mut self.ends, p, self.client, true);
            }
            i += 1;
        }
        self.reply_timeouts > before
    }

    /// Submit what may leave at `now`: in the open loop every arrival
    /// whose scheduled instant has passed (sojourn time is measured from
    /// the *scheduled* arrival, so dispatch lag and queueing count against
    /// the system; a full window sheds it), in the closed loop while the
    /// loop is open and pacing allows it. One reading stamps every
    /// submission of the turn: only bookkeeping lies between one and the
    /// next. Returns whether anything was offered.
    fn submit(&mut self, now: Instant) -> bool {
        let total = self.cfg.txns_per_client;
        let mut any = false;
        if self.arrivals.is_some() {
            while self.offered < total && now >= self.next_arrival {
                let scheduled = self.next_arrival;
                let sched = self.arrivals.as_mut().expect("the open loop");
                self.next_arrival += sched.next_gap();
                // A shed arrival still draws its transaction.
                let t = self.draw(self.offered);
                self.offered += 1;
                any = true;
                if self.unreported >= self.cfg.max_outstanding {
                    self.shed += 1;
                    continue;
                }
                self.open(t, scheduled, now);
            }
        } else {
            while now >= self.next_allowed && self.gate_open() {
                let t = self.draw(self.submitted);
                self.open(t, now, now);
                self.offered += 1;
                any = true;
                if let Some(p) = self.cfg.pacing {
                    self.next_allowed = now + p;
                }
            }
        }
        any
    }

    /// The client's `i`-th transaction off its workload stream.
    fn draw(&mut self, i: usize) -> Transaction {
        let mut t = self.gen.next_txn();
        t.id = ServiceConfig::txn_id(self.client, i);
        t
    }

    /// Open transaction `t`, its `Begin`s staged: submitted at `t0`, its
    /// waits counted from `now`, the reading that let it in.
    fn open(&mut self, t: Transaction, t0: Instant, now: Instant) {
        let txn = Arc::new(t);
        let parts = parts_of(&txn, self.cfg.n);
        let p = PendingTxn {
            decisions: PerRank::from_elem(None, parts.len()),
            id: txn.id,
            txn,
            parts,
            got: 0,
            t0,
            retries: 0,
            next_retry: now + self.cfg.reply_timeout,
            deadline: now + self.cfg.txn_deadline,
            reported: None,
        };
        stage_begins(&mut self.outbox, &mut self.ends, &p, self.client, false);
        self.unparked += usize::from(p.waited_for(self.cfg.park_retries));
        self.unreported += 1;
        self.outstanding.push(p);
        self.submitted += 1;
    }

    /// What the client returns once it has exited.
    pub(crate) fn finish(self) -> ClientReturn {
        debug_assert!(self.exited, "finished before its exit flush");
        // The client's half of the socket path (zero in a channel run).
        let (writes, write_nanos) = self.link.io_stats();
        self.meters.add_many(Stage::TcpWrite, writes, write_nanos);
        ClientReturn {
            client: self.client,
            records: self.records,
            events: self.events,
            stalled: self.stalled,
            retries: self.retries,
            reply_timeouts: self.reply_timeouts,
            offered: self.offered,
            shed: self.shed,
            meters: self.meters,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use ac_commit::protocols::{D1cc, PaxosCommit, ProtocolKind};
    use ac_commit::CommitProtocol;
    use ac_txn::workload::Workload;
    use std::sync::mpsc::{channel, Sender};

    use super::*;
    use crate::host::host;
    use crate::transport::{Bell, Mailbox, Transport};

    /// Client 0 of `cfg` writing to `nodes`, run to its exit on a
    /// one-client host on this thread; `nodes` answers into the mailbox it
    /// is handed.
    fn hosted<P>(
        cfg: &ServiceConfig,
        nodes: impl FnOnce(Arc<Mailbox<Done>>) -> Box<dyn Transport<P::Msg>>,
    ) -> ClientReturn
    where
        P: CommitProtocol,
        P::Msg: Wire + Send + 'static,
    {
        let bell = Bell::new();
        let inbox = Mailbox::new(&bell);
        let link = ClientLink::InProcess(nodes(Arc::clone(&inbox)), inbox);
        let mut ret = None;
        let client = Client::new(0, cfg, Instant::now(), link);
        host::<P>(Some(&bell), Vec::new(), vec![client], |r| ret = Some(r));
        ret.expect("the client exited")
    }

    /// One envelope of a client write, as its node reads it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Sent {
        Begin(TxnId),
        End(TxnId),
    }

    /// The nodes, played by the transport itself: each batch is recorded
    /// as one write to its node, and each `Begin` is answered at once with
    /// that participant's commit `Done` — no node thread, no clock.
    struct Answering {
        writes: Sender<(usize, Vec<Sent>)>,
        replies: Arc<Mailbox<Done>>,
    }

    impl<M: Send> Transport<M> for Answering {
        fn send_batch(&mut self, to: usize, batch: &mut Vec<ToNode<M>>) {
            let write = batch.drain(..).map(|env| match env {
                ToNode::Begin { txn, .. } => {
                    let done = Done {
                        txn: txn.id,
                        node: to,
                        decision: COMMIT,
                    };
                    self.replies.post(&mut vec![done]);
                    Sent::Begin(txn.id)
                }
                ToNode::End { txn } => Sent::End(txn),
                _ => unreachable!("a client sends only Begin and End"),
            });
            let write = write.collect();
            self.writes.send((to, write)).expect("the test holds it");
        }
    }

    /// Client 0's writes under `cfg`, in order, against [`Answering`]
    /// nodes.
    fn writes_of(cfg: &ServiceConfig) -> Vec<(usize, Vec<Sent>)> {
        let (writes, written) = channel();
        let ret = hosted::<PaxosCommit>(cfg, |replies| Box::new(Answering { writes, replies }));
        let all = (cfg.txns_per_client, 0, 0);
        assert_eq!((ret.records.len(), ret.stalled, ret.retries), all);
        std::iter::from_fn(|| written.try_recv().ok()).collect()
    }

    /// The rule an `End` travels by, read off the writes alone: (a) a
    /// write that carries an `End` carries a `Begin` too, unless it is a
    /// cap flush (at least `max_outstanding` `End`s) or part of the exit
    /// flush (after the last `Begin`, one write per node); (b) each
    /// transaction's `End` reaches each of its participants exactly once,
    /// after every write that drew one of its `Done`s, on the first write
    /// to that node since then that carries a `Begin` — unless a cap flush
    /// took it first; (c) no `End` follows a `Begin` in a write. Returns
    /// the cap flushes seen. (d), the bound on what waits while the client
    /// parks, is the `debug_assert!` in front of its write point.
    ///
    /// (b) reads "since then" as "in a later flush": it holds because the
    /// nodes answer at once and no window here outruns the replies one
    /// turn folds in (`CLIENT_BATCH`).
    fn check_the_end_rule(cfg: &ServiceConfig, writes: &[(usize, Vec<Sent>)]) -> usize {
        let is_begin = |s: &Sent| matches!(s, Sent::Begin(_));
        let last_begin = writes.iter().rposition(|(_, w)| w.iter().any(is_begin));
        let last_begin = last_begin.expect("the client submitted");
        let (mut cap_flushes, mut exit_flush) = (0, Vec::new());
        // Per transaction: where its Begins went, and the last write of one.
        let mut begun: HashMap<TxnId, (Vec<usize>, usize)> = HashMap::new();
        let mut ended: HashMap<TxnId, Vec<usize>> = HashMap::new();
        // Per node: the last write to it that carried a Begin.
        let mut begun_at = vec![0; cfg.n];
        for (i, (to, write)) in writes.iter().enumerate() {
            let ends = write.iter().take_while(|s| !is_begin(s)).count();
            assert!(
                write[ends..].iter().all(is_begin),
                "(c) write {i}: {write:?}"
            );
            if ends > 0 && ends == write.len() {
                if i < last_begin {
                    assert!(ends >= cfg.max_outstanding, "(a) write {i}: {write:?}");
                    cap_flushes += 1;
                } else {
                    assert!(!exit_flush.contains(to), "(a) exit writes node {to} twice");
                    exit_flush.push(*to);
                }
            }
            for s in write {
                match *s {
                    Sent::Begin(id) => {
                        let (parts, last) = begun.entry(id).or_default();
                        parts.push(*to);
                        *last = i;
                    }
                    Sent::End(id) => {
                        let (parts, last) = &begun[&id];
                        let rode_the_next = begun_at[*to] <= *last;
                        assert!(parts.contains(to) && *last < i, "(b) End {id} to {to}");
                        assert!(rode_the_next, "(b) End {id} missed a Begin to {to}");
                        ended.entry(id).or_default().push(*to);
                    }
                }
            }
            if ends < write.len() {
                begun_at[*to] = i;
            }
        }
        assert_eq!(begun.len(), cfg.txns_per_client);
        for (id, (parts, _)) in &begun {
            let mut to = ended.remove(id).unwrap_or_default();
            to.sort_unstable();
            assert_eq!(&to, parts, "(b) the Ends of {id}");
        }
        cap_flushes
    }

    fn cluster(span: usize) -> ServiceConfig {
        ServiceConfig::new(4, 1, ProtocolKind::PaxosCommit)
            .clients(1)
            .txns_per_client(300)
            .workload(Workload::Uniform { span })
            .keys_per_shard(1 << 20)
    }

    #[test]
    fn no_end_travels_alone_but_in_a_cap_or_the_exit_flush() {
        let light = cluster(2);
        check_the_end_rule(&light, &writes_of(&light));
        let windowed = light.park_retries(0).max_outstanding(32);
        check_the_end_rule(&windowed, &writes_of(&windowed));
        // One transaction in flight leaves at most one `End` waiting per
        // node, and a window of 32 rarely leaves 32: a window of 2 makes
        // the cap flushes happen.
        let capped = windowed.max_outstanding(2);
        assert!(check_the_end_rule(&capped, &writes_of(&capped)) > 0);
    }

    /// With every node a participant of every transaction, each write is
    /// what the client staged before `End`s waited: the `End` of the
    /// transaction the last turn finished, then the next `Begin` — and
    /// the last `End` at exit.
    #[test]
    fn spanning_every_node_changes_no_write() {
        let cfg = cluster(4);
        let writes = writes_of(&cfg);
        assert_eq!(check_the_end_rule(&cfg, &writes), 0);
        let id = |i| ServiceConfig::txn_id(0, i);
        let total = cfg.txns_per_client;
        for q in 0..cfg.n {
            let to_q: Vec<&Vec<Sent>> = writes
                .iter()
                .filter(|(to, _)| *to == q)
                .map(|(_, w)| w)
                .collect();
            let mut staged: Vec<Vec<Sent>> = (0..total)
                .map(|i| match i {
                    0 => vec![Sent::Begin(id(0))],
                    _ => vec![Sent::End(id(i - 1)), Sent::Begin(id(i))],
                })
                .collect();
            staged.push(vec![Sent::End(id(total - 1))]);
            assert_eq!(to_q, staged.iter().collect::<Vec<_>>(), "node {q}");
        }
    }

    /// What passed the client's link, in order: a write to a node, or a
    /// participant's `Done` sent back to the client.
    #[derive(Debug)]
    enum Seen {
        Write(usize, Vec<Sent>),
        Done(TxnId, usize),
    }

    /// Nodes that answer each `Begin` at once, as [`Answering`] does, but
    /// for the highest-ranked participant: its `Done` waits for the
    /// client's next write. A client that waits for every participant
    /// therefore has nothing to write until a retry; one that reports on
    /// the first `Done` submits the next transaction in the write that
    /// releases the last `Done` of the one before.
    struct Holding {
        n: usize,
        seen: Sender<Seen>,
        replies: Arc<Mailbox<Done>>,
        held: Vec<Done>,
    }

    impl Holding {
        fn answer(&self, done: Done) {
            let seen = Seen::Done(done.txn, done.node);
            self.seen.send(seen).expect("the test holds it");
            self.replies.post(&mut vec![done]);
        }
    }

    impl<M: Send> Transport<M> for Holding {
        fn send_batch(&mut self, to: usize, batch: &mut Vec<ToNode<M>>) {
            let (mut write, mut answers) = (Vec::new(), Vec::new());
            for env in batch.drain(..) {
                match env {
                    ToNode::Begin { txn, .. } => {
                        write.push(Sent::Begin(txn.id));
                        let last = *parts_of(&txn, self.n).last().expect("a participant");
                        let done = Done {
                            txn: txn.id,
                            node: to,
                            decision: COMMIT,
                        };
                        answers.push((done, to == last));
                    }
                    ToNode::End { txn } => write.push(Sent::End(txn)),
                    _ => unreachable!("a client sends only Begin and End"),
                }
            }
            self.seen
                .send(Seen::Write(to, write))
                .expect("the test holds it");
            for done in std::mem::take(&mut self.held) {
                self.answer(done);
            }
            for (done, hold) in answers {
                if hold {
                    self.held.push(done);
                } else {
                    self.answer(done);
                }
            }
        }
    }

    /// What passed client 0's link in a run under `cfg` against
    /// [`Holding`] nodes, in which every transaction settles committed.
    fn timeline_of<P>(cfg: &ServiceConfig) -> Vec<Seen>
    where
        P: CommitProtocol,
        P::Msg: ac_sim::Wire + Send + 'static,
    {
        let (seen, timeline) = channel();
        let nodes = |replies| -> Box<dyn Transport<P::Msg>> {
            Box::new(Holding {
                n: cfg.n,
                seen,
                replies,
                held: Vec::new(),
            })
        };
        let ret = hosted::<P>(cfg, nodes);
        let total = cfg.txns_per_client;
        assert_eq!((ret.records.len(), ret.stalled), (total, 0), "records");
        assert!(ret
            .records
            .iter()
            .all(|r| r.verdict() == Verdict::Decided(COMMIT)));
        std::iter::from_fn(|| timeline.try_recv().ok()).collect()
    }

    /// Per transaction `i` of a run whose transactions span every node:
    /// where on `timeline` its first `Begin` was written, and where its
    /// last participant's first `Done` was sent; and the most transactions
    /// begun and not fully answered when a write leaves. Checks on the way
    /// that no `End` reaches a node before that node's `Done`.
    fn begins_and_last_dones(
        cfg: &ServiceConfig,
        timeline: &[Seen],
    ) -> (Vec<(usize, usize)>, usize) {
        let total = cfg.txns_per_client;
        let slot = |id: TxnId| (0..total).find(|&i| ServiceConfig::txn_id(0, i) == id);
        let mut begun = vec![None; total];
        let mut answered: Vec<Vec<usize>> = vec![Vec::new(); total];
        let mut last_done = vec![None; total];
        let mut most_open = 0;
        for (at, seen) in timeline.iter().enumerate() {
            match seen {
                Seen::Write(to, write) => {
                    for s in write {
                        match *s {
                            Sent::Begin(id) => {
                                let i = slot(id).expect("a client-0 id");
                                begun[i].get_or_insert(at);
                            }
                            Sent::End(id) => {
                                let i = slot(id).expect("a client-0 id");
                                assert!(answered[i].contains(to), "End {id} reached {to} first");
                            }
                        }
                    }
                    let open = (0..total)
                        .filter(|&i| begun[i].is_some() && last_done[i].is_none())
                        .count();
                    most_open = most_open.max(open);
                }
                Seen::Done(id, node) => {
                    let i = slot(*id).expect("a client-0 id");
                    if !answered[i].contains(node) {
                        answered[i].push(*node);
                    }
                    if answered[i].len() == cfg.n {
                        last_done[i].get_or_insert(at);
                    }
                }
            }
        }
        let at = |v: Vec<Option<usize>>| v.into_iter().map(|a| a.expect("seen"));
        (at(begun).zip(at(last_done)).collect(), most_open)
    }

    /// The report rule at the client, read off its link: where the cell
    /// always agrees, the next transaction leaves before the last `Done` of
    /// the one before arrives, and a window refills past itself (up to
    /// twice its size open at once, at most its size reported and
    /// unsettled — that bound is the `debug_assert!` at the top of the
    /// client's loop, which the window drives to equality). Where the
    /// cell can split (D1CC), the client waits for every `Done`. No `End`
    /// reaches a node before that node's `Done`, and every transaction
    /// settles with its record.
    #[test]
    fn the_first_done_reports_only_where_the_cell_always_agrees() {
        let light = cluster(4)
            .txns_per_client(40)
            .reply_timeout(Duration::from_millis(2));
        let (order, most_open) = begins_and_last_dones(&light, &timeline_of::<PaxosCommit>(&light));
        for (i, pair) in order.windows(2).enumerate() {
            let ((_, last_done), (next_begun, _)) = (pair[0], pair[1]);
            assert!(next_begun < last_done, "txn {} waited for txn {i}", i + 1);
        }
        assert_eq!(most_open, 2, "one reported, one fresh");

        let w = 3;
        let windowed = light.clone().park_retries(0).max_outstanding(w);
        let timeline = timeline_of::<PaxosCommit>(&windowed);
        let (_, most_open) = begins_and_last_dones(&windowed, &timeline);
        assert!(w < most_open && most_open <= 2 * w, "{most_open} open");

        let d1cc = ServiceConfig {
            kind: ProtocolKind::D1cc,
            ..light
        };
        let (order, most_open) = begins_and_last_dones(&d1cc, &timeline_of::<D1cc>(&d1cc));
        for (i, pair) in order.windows(2).enumerate() {
            let ((_, last_done), (next_begun, _)) = (pair[0], pair[1]);
            assert!(
                next_begun > last_done,
                "txn {} left before txn {i} settled",
                i + 1
            );
        }
        assert_eq!(most_open, 1);
    }

    #[test]
    fn a_record_reads_as_stalled_or_split_or_decided() {
        let verdict = |decisions: &[Option<u64>]| {
            let record = ClientRecord {
                id: 1,
                decisions: decisions.iter().copied().collect(),
            };
            record.verdict()
        };
        assert_eq!(verdict(&[Some(1), Some(1)]), Verdict::Decided(1));
        assert_eq!(verdict(&[Some(0), Some(0), Some(0)]), Verdict::Decided(0));
        assert_eq!(verdict(&[Some(1), None]), Verdict::Stalled);
        // A missing decision outranks a disagreement among the others.
        assert_eq!(verdict(&[Some(1), Some(0), None]), Verdict::Stalled);
        let split = Verdict::Split(vec![0, 1]);
        assert_eq!(verdict(&[Some(1), Some(0), Some(1)]), split);
    }
}
