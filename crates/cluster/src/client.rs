//! The load generator's client loop (`client_main`): submit, await all
//! participant decisions with bounded, retrying waits, record, repeat.
//! The loop writes to and parks on one `ClientLink` — a transport and its
//! per-client reply channel in the in-process service, the connections it
//! dialed in a multi-process cluster — so a decision report wakes exactly
//! the thread that folds it in. [`ClientRecord::verdict`] is the one
//! reading of what a client saw of a transaction, and [`ClientFold`] the
//! one fold of what a run's clients return, whichever host ran them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ac_commit::problem::COMMIT;
use ac_commit::protocols::PerRank;
use ac_commit::CommitProtocol;
use ac_obs::{DumpTxn, FlightRecorder, NodeObs, RunStats, Stage};
use ac_txn::workload::{ArrivalSchedule, WorkloadConfig};
use ac_txn::{Transaction, TxnId};

use crate::service::{parts_of, Done, ServiceConfig, ToNode, TxnEvent};
use crate::transport::{ClientLink, Outbox};

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
    pub(crate) records: Vec<ClientRecord>,
    pub(crate) events: Vec<TxnEvent>,
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

/// `d` in whole nanoseconds, saturating.
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What a run's clients saw, folded: the in-process audit
/// (`service::aggregate`) and the multi-process client (`proc::run_client`)
/// count by this one pass.
pub(crate) struct ClientFold {
    /// Offered, shed, committed, aborted and stalled, summed over the
    /// clients folded in so far; `elapsed_nanos` is the host's to stamp.
    pub(crate) stats: RunStats,
    /// Transactions whose participants reported different decisions.
    pub(crate) split: usize,
    /// `Begin` re-sends.
    pub(crate) retries: usize,
    /// Every fully decided transaction, grouped by client, decision order.
    pub(crate) decided: Vec<DumpTxn>,
}

impl ClientFold {
    /// An empty fold with room for the `txns` transactions a run's
    /// clients submit at most.
    pub(crate) fn new(txns: usize) -> ClientFold {
        ClientFold {
            stats: RunStats::default(),
            split: 0,
            retries: 0,
            decided: Vec::with_capacity(txns),
        }
    }

    /// Fold one client's return in; `audit` sees each of its records with
    /// the verdict it was counted by.
    pub(crate) fn add(&mut self, cr: &ClientReturn, mut audit: impl FnMut(&ClientRecord, Verdict)) {
        self.stats.offered += cr.offered as u64;
        self.stats.shed += cr.shed as u64;
        self.stats.stalled += cr.stalled as u64;
        self.retries += cr.retries;
        self.decided
            .extend(cr.events.iter().filter_map(TxnEvent::decided));
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

/// One closed-loop client: submit, await all participant decisions with
/// bounded, retrying waits, record, repeat. Unresolved transactions are
/// parked (background retries) so a dead node blocks one transaction, not
/// the whole load stream; abandonment at `txn_deadline` is the last resort
/// and counts as a stall.
///
/// Egress follows the node loop's rule: `Begin`s and retries are *staged*
/// per destination and leave through one flush per loop turn, immediately
/// before the client parks on its link. A finished transaction's `End`s
/// wait, per participant, for the client's next `Begin` to that node and
/// are staged right ahead of it, so an `End` never costs a write of its
/// own. They leave without one only once `max_outstanding` wait for a node
/// at a turn's write point, and at exit.
pub(crate) fn client_main<P>(
    client: usize,
    cfg: &ServiceConfig,
    epoch: Instant,
    mut link: ClientLink<P::Msg>,
) -> ClientReturn
where
    P: CommitProtocol,
    P::Msg: ac_sim::Wire + Send + 'static,
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
    let mut stalled = 0usize;
    let mut retries = 0usize;
    let mut reply_timeouts = 0usize;
    let mut dbuf: Vec<Done> = Vec::with_capacity(CLIENT_BATCH);
    let mut next_allowed = Instant::now();
    // Meters and histograms only: a client stamps no flight event, so it
    // gets no ring to stamp them into.
    let mut obs = NodeObs {
        flight: FlightRecorder::new(0, 1),
        meters: Default::default(),
        hists: Default::default(),
    };
    let mut outbox: Outbox<P::Msg> = Outbox::new(cfg.n);
    // Per node, the finished transactions whose `End`s wait there.
    let mut ends: Vec<Vec<TxnId>> = vec![Vec::new(); cfg.n];
    // A fresh outstanding transaction, its Begins staged: submitted at
    // `t0`, its waits counted from `now`, the reading that let it in.
    let submit = |t: Transaction,
                  t0: Instant,
                  now: Instant,
                  outbox: &mut Outbox<P::Msg>,
                  ends: &mut [Vec<TxnId>]| {
        let txn = Arc::new(t);
        let parts = parts_of(&txn, cfg.n);
        let p = PendingTxn {
            decisions: PerRank::from_elem(None, parts.len()),
            id: txn.id,
            txn,
            parts,
            got: 0,
            t0,
            retries: 0,
            next_retry: now + cfg.reply_timeout,
            deadline: now + cfg.txn_deadline,
        };
        stage_begins(outbox, ends, &p, client, false);
        p
    };
    // Parked: retried often enough that the closed loop stops waiting for
    // it. `unparked` counts the outstanding transactions that are not.
    let parked = |p: &PendingTxn| p.retries >= cfg.park_retries;
    let mut unparked = 0usize;
    // The closed loop is open: every outstanding transaction is parked
    // and there is room. (Pacing gates on top of it.)
    let gate_open = |submitted: usize, outstanding: usize, unparked: usize| {
        submitted < total && outstanding < cfg.max_outstanding && unparked == 0
    };
    // `p`'s timeline as the client observed it; `decided` is its latency
    // and outcome, `None` for an abandoned transaction.
    let event = |p: &PendingTxn, decided: Option<(Duration, bool)>| {
        let submitted_at = p.t0.saturating_duration_since(epoch);
        TxnEvent {
            id: p.id,
            client,
            participants: p.parts.len(),
            submitted_at,
            decided_at: decided.map(|(lat, _)| submitted_at + lat),
            committed: decided.map(|(_, committed)| committed),
            retries: p.retries,
            // Filled by `aggregate` from the merged flight events.
            first_protocol_at: None,
            votes_held_at: None,
            journaled_at: None,
        }
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
        debug_assert_eq!(unparked, outstanding.iter().filter(|p| !parked(p)).count());
        if let Some(sched) = arrivals.as_mut() {
            // Dispatch every arrival whose scheduled instant has passed.
            // Sojourn time is measured from the *scheduled* arrival, so
            // dispatch lag and queueing count against the system.
            while offered < total {
                let now = Instant::now();
                if now < next_arrival {
                    break;
                }
                let scheduled = next_arrival;
                next_arrival += sched.next_gap();
                let mut t = gen.next_txn();
                t.id = ServiceConfig::txn_id(client, offered);
                offered += 1;
                if outstanding.len() >= cfg.max_outstanding {
                    shed += 1;
                    continue;
                }
                let p = submit(t, scheduled, now, &mut outbox, &mut ends);
                unparked += usize::from(!parked(&p));
                outstanding.push(p);
                submitted += 1;
            }
            if offered == total && outstanding.is_empty() {
                break;
            }
        } else {
            // Submit while the closed loop is open and pacing allows it.
            // One reading stamps every submission of the turn: only
            // bookkeeping lies between one and the next.
            if gate_open(submitted, outstanding.len(), unparked) {
                let now = Instant::now();
                while now >= next_allowed && gate_open(submitted, outstanding.len(), unparked) {
                    let mut t = gen.next_txn();
                    t.id = ServiceConfig::txn_id(client, submitted);
                    let p = submit(t, now, now, &mut outbox, &mut ends);
                    unparked += usize::from(!parked(&p));
                    outstanding.push(p);
                    submitted += 1;
                    if let Some(p) = cfg.pacing {
                        next_allowed = now + p;
                    }
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
        } else if gate_open(submitted, outstanding.len(), unparked) {
            due = Some(due.map_or(next_allowed, |d| d.min(next_allowed)));
        }
        // The turn's single write point: everything staged since the last
        // park — the expiry pass's retried Begins and this turn's fresh
        // ones, each behind the Ends waiting for its node, and the Ends
        // of any node `max_outstanding` of them wait for — leaves now,
        // one batch per node.
        for to in 0..cfg.n {
            stage_ends(&mut outbox, &mut ends, to, cfg.max_outstanding);
        }
        debug_assert!(ends.iter().all(|e| e.len() < cfg.max_outstanding));
        outbox.flush(|to, batch| link.send_batch(to, batch));
        let due = due.expect("the loop only continues with work pending");
        let t0 = Instant::now();
        link.recv(&mut dbuf, CLIENT_BATCH, due);
        // One reading stamps the whole received batch: only bookkeeping
        // lies between it and each reply's fold-in, or the expiry pass.
        let now = Instant::now();
        obs.record(Stage::ClientQueueWait, now - t0);

        // Fold in replies (duplicates from retries/recovery are ignored).
        for d in dbuf.drain(..) {
            let Some(i) = outstanding.iter().position(|p| p.id == d.txn) else {
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
                unparked -= usize::from(!parked(&p));
                let lat = now.saturating_duration_since(p.t0);
                let committed = p.decisions[0] == Some(COMMIT);
                events.push(event(&p, Some((lat, committed))));
                for &q in &p.parts {
                    ends[q].push(p.id);
                }
                records.push(ClientRecord {
                    id: p.id,
                    decisions: p.decisions,
                });
            }
        }

        // Expired waits: re-send Begin (bounded, counted) or abandon at
        // the hard deadline.
        let mut i = 0;
        while i < outstanding.len() {
            if now >= outstanding[i].deadline {
                let p = outstanding.swap_remove(i);
                unparked -= usize::from(!parked(&p));
                stalled += 1;
                reply_timeouts += 1;
                events.push(event(&p, None));
                records.push(ClientRecord {
                    id: p.id,
                    decisions: p.decisions,
                });
                continue;
            }
            if now >= outstanding[i].next_retry {
                let p = &mut outstanding[i];
                reply_timeouts += 1;
                retries += 1;
                p.retries += 1;
                unparked -= usize::from(p.retries == cfg.park_retries);
                p.next_retry = now + cfg.reply_timeout;
                stage_begins(&mut outbox, &mut ends, p, client, true);
            }
            i += 1;
        }
    }
    // No Begin is left for the last Ends to ride: every one leaves now.
    for to in 0..cfg.n {
        stage_ends(&mut outbox, &mut ends, to, 0);
    }
    outbox.flush(|to, batch| link.send_batch(to, batch));
    // The client's half of the socket path (zero over channels).
    let (writes, write_nanos) = link.io_stats();
    obs.meters.add_many(Stage::TcpWrite, writes, write_nanos);
    ClientReturn {
        records,
        events,
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

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use ac_commit::protocols::{PaxosCommit, ProtocolKind};
    use ac_txn::workload::Workload;
    use crossbeam::channel::{unbounded, Sender};

    use super::*;
    use crate::transport::Transport;

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
        replies: Sender<Done>,
    }

    impl<M: Send> Transport<M> for Answering {
        fn send(&mut self, to: usize, env: ToNode<M>) {
            self.send_batch(to, &mut vec![env]);
        }

        fn send_batch(&mut self, to: usize, batch: &mut Vec<ToNode<M>>) {
            let write = batch.drain(..).map(|env| match env {
                ToNode::Begin { txn, .. } => {
                    let done = Done {
                        txn: txn.id,
                        node: to,
                        decision: COMMIT,
                    };
                    self.replies.send(done).expect("the client is parked on it");
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
        let (writes, written) = unbounded();
        let (replies, rx) = unbounded();
        let link = ClientLink::InProcess(Box::new(Answering { writes, replies }), rx);
        let ret = client_main::<PaxosCommit>(0, cfg, Instant::now(), link);
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
