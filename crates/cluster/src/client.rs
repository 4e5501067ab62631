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
use ac_obs::{DumpTxn, FlightRecorder, LatencyHistogram, NodeObs, RunStats, Stage};
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
    /// Every fully decided transaction, grouped by client, decision order.
    pub(crate) decided: Vec<DumpTxn>,
}

impl ClientFold {
    /// Fold one client's return in; `audit` sees each of its records with
    /// the verdict it was counted by.
    pub(crate) fn add(&mut self, cr: &ClientReturn, mut audit: impl FnMut(&ClientRecord, Verdict)) {
        self.stats.offered += cr.offered as u64;
        self.stats.shed += cr.shed as u64;
        self.stats.stalled += cr.stalled as u64;
        self.retries += cr.retries;
        for e in &cr.events {
            if let (Some(decided), Some(committed)) = (e.decided_at, e.committed) {
                self.decided.push(DumpTxn {
                    id: e.id,
                    submitted_nanos: nanos(e.submitted_at),
                    decided_nanos: nanos(decided),
                    committed,
                });
            }
        }
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
/// immediately before the client parks on its link — so an
/// `End` and the next `Begin` to the same node share one socket write.
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
    let mut latency = LatencyHistogram::new();
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
    // A fresh outstanding transaction, its Begins staged.
    let submit = |t: Transaction, t0: Instant, outbox: &mut Outbox<P::Msg>| {
        let txn = Arc::new(t);
        let parts = parts_of(&txn, cfg.n);
        let now = Instant::now();
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
        stage_begins(outbox, &p, client, false);
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
                let p = submit(t, scheduled, &mut outbox);
                unparked += usize::from(!parked(&p));
                outstanding.push(p);
                submitted += 1;
            }
            if offered == total && outstanding.is_empty() {
                break;
            }
        } else {
            // Submit while the closed loop is open and pacing allows it.
            loop {
                let now = Instant::now();
                if !gate_open(submitted, outstanding.len(), unparked) || now < next_allowed {
                    break;
                }
                let mut t = gen.next_txn();
                t.id = ServiceConfig::txn_id(client, submitted);
                let p = submit(t, now, &mut outbox);
                unparked += usize::from(!parked(&p));
                outstanding.push(p);
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
        } else if gate_open(submitted, outstanding.len(), unparked) {
            due = Some(due.map_or(next_allowed, |d| d.min(next_allowed)));
        }
        // The turn's single write point: everything staged since the last
        // park — the fold-in's Ends, the expiry pass's retried Begins,
        // this turn's fresh Begins — leaves now, one batch per node.
        outbox.flush(|to, batch| link.send_batch(to, batch));
        let due = due.expect("the loop only continues with work pending");
        let t0 = Instant::now();
        link.recv(&mut dbuf, CLIENT_BATCH, due);
        obs.record(Stage::ClientQueueWait, t0.elapsed());

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
                let lat = p.t0.elapsed();
                latency.record_duration(lat);
                let committed = p.decisions[0] == Some(COMMIT);
                events.push(event(&p, Some((lat, committed))));
                for &q in &p.parts {
                    outbox.stage(q, ToNode::End { txn: p.id });
                }
                records.push(ClientRecord {
                    id: p.id,
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
                stage_begins(&mut outbox, p, client, true);
            }
            i += 1;
        }
    }
    // The loop breaks right after the fold-in staged the last Ends.
    outbox.flush(|to, batch| link.send_batch(to, batch));
    // The client's half of the socket path (zero over channels).
    let (writes, write_nanos) = link.io_stats();
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

#[cfg(test)]
mod tests {
    use super::*;

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
