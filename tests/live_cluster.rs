//! Correctness of the live `ac-cluster` transaction service (ISSUE-3
//! satellites): conservation under concurrent Transfer load, the
//! serializability smoke test (sequential replay of each node's commit log
//! reproduces its final shard state), and live-vs-simulator agreement for
//! every Table-5 protocol.
//!
//! Since ISSUE-4 the service's only transport is the **batched** hot path
//! (segmented mailboxes, `send_batch`/`recv_batch_deadline`, slab demux),
//! so every test here exercises it; `batched_path_stays_safe_under_
//! concurrency_for_every_table5_protocol` additionally drives each
//! Table-5 protocol with enough concurrent clients that multi-envelope
//! drains, wakeup coalescing and early-envelope buffering all occur.

use std::time::Duration;

use ac_cluster::{run_service, run_service_faulted, FaultSpec, ServiceConfig, TransportKind};
use ac_commit::protocols::ProtocolKind;
use ac_net::{DelayRule, FaultPlan};
use ac_obs::{goodput_tps, sojourn_times, Stage};
use ac_sim::{Time, U};
use ac_txn::workload::{Workload, WorkloadConfig};
use ac_txn::Cluster;

mod support;
use support::audited;

fn base(kind: ProtocolKind) -> ServiceConfig {
    ServiceConfig::new(4, 1, kind).unit(Duration::from_millis(10))
}

#[test]
fn transfer_load_conserves_total_value() {
    let cfg = base(ProtocolKind::Inbac)
        .clients(4)
        .txns_per_client(10)
        .workload(Workload::Transfer { amount: 5 })
        .keys_per_shard(8); // few keys -> real write-write conflicts
    let out = run_service(&cfg);
    audited("transfer_load", &cfg, &out, |s| s == 0);
    assert_eq!(out.txns, 40);
    assert_eq!(
        out.total_value(),
        0,
        "concurrent transfers must conserve money"
    );
    assert!(out.committed > 0, "some transfers must get through");
    assert_eq!(sojourn_times(&out.decided()).count() as usize, out.txns);
}

#[test]
fn committed_log_replays_to_the_final_shard_state() {
    // Uniform writes (blind Puts) make replay order-sensitive, so this
    // exercises the strongest form of the check: each shard's final state
    // must equal a *sequential* replay of its own commit log.
    let cfg = base(ProtocolKind::TwoPc)
        .clients(4)
        .txns_per_client(10)
        .workload(Workload::Skewed {
            span: 2,
            theta: 0.9,
        })
        .keys_per_shard(4); // tiny key space -> write-write conflicts
    let out = run_service(&cfg);
    audited("committed_log_replays", &cfg, &out, |s| s == 0);
    // Aborts are overwhelmingly likely here but depend on thread
    // interleaving, so they are not asserted — the replay equality below
    // is the property under test and holds with or without them.
    let rebuilt = out.replay();
    for (live, replayed) in out.shards.iter().zip(&rebuilt) {
        for k in 0..cfg.keys_per_shard {
            assert_eq!(
                live.read(k),
                replayed.read(k),
                "shard {} key {k}: live state is not serializable",
                live.id
            );
        }
    }
}

/// The batched hot path under real concurrency, for every Table-5
/// protocol: 4 closed-loop clients on a tiny key space force overlapping
/// instances (batch drains, out-of-order envelopes, early-envelope
/// buffers) — the run must stay stall-free and safety-audit clean, and
/// each shard's final state must replay sequentially from its commit log.
#[test]
fn batched_path_stays_safe_under_concurrency_for_every_table5_protocol() {
    for kind in ProtocolKind::table5() {
        let cfg = base(kind)
            .clients(4)
            .txns_per_client(8)
            .keys_per_shard(4) // tiny key space -> conflicts + aborts
            .seed(29);
        let out = run_service(&cfg);
        audited(&format!("batched_path_{}", kind.name()), &cfg, &out, |s| {
            s == 0
        });
        assert_eq!(out.txns, 32, "{}", kind.name());
        let rebuilt = out.replay();
        for (live, replayed) in out.shards.iter().zip(&rebuilt) {
            for k in 0..cfg.keys_per_shard {
                assert_eq!(
                    live.read(k),
                    replayed.read(k),
                    "{}: shard {} key {k} not serializable over the batched path",
                    kind.name(),
                    live.id
                );
            }
        }
    }
}

/// Failure-free live runs must decide commit exactly when the simulator's
/// nice execution does — for every Table-5 protocol. One closed-loop
/// client keeps the run sequential, so the simulator-backed
/// `ac_txn::Cluster` executing the same transaction stream is the exact
/// reference for both decisions and final shard state. Commit-protocol
/// instances are scoped to each transaction's participants (ISSUE-5), so
/// decisions are collected from whichever participants logged them; the
/// simulator runs all `n` processes with free yes-votes for untouched
/// shards, which cannot change the AND of the votes — outcomes must agree.
#[test]
fn live_decisions_match_the_simulator_for_every_table5_protocol() {
    for kind in ProtocolKind::table5() {
        check_live_matches_sim(kind, TransportKind::Channel);
    }
}

/// The same agreement with every envelope on real sockets (ISSUE-6): the
/// wire codec and the TCP transport must be decision-invisible. The four
/// headline protocols cover the coordinator-based (2PC), consensus-based
/// (PaxosCommit), paper-main (INBAC) and logless one-phase (D1CC)
/// families.
#[test]
fn live_decisions_match_the_simulator_over_tcp() {
    for kind in [
        ProtocolKind::TwoPc,
        ProtocolKind::PaxosCommit,
        ProtocolKind::Inbac,
        ProtocolKind::D1cc,
    ] {
        check_live_matches_sim(kind, TransportKind::Tcp);
    }
}

/// The logless claim, counter-verified (ISSUE-7 satellite): a healthy
/// durable D1CC run performs **zero** Prepare-record WAL forces on the
/// Begin critical path — the vote is replicated to peers instead and the
/// prepare is journaled lazily alongside the decision — while 2PC under
/// the identical durable configuration forces one Prepare per opened
/// instance. The audit (which cross-checks every commit against the
/// journaled votes) must stay clean either way.
#[test]
fn d1cc_forces_no_critical_path_wal_writes() {
    let durable = FaultSpec {
        plan: FaultPlan::none(4),
        durable: true,
    };
    let cfg = |kind| base(kind).clients(3).txns_per_client(8).seed(17);

    let d1cc = run_service_faulted(&cfg(ProtocolKind::D1cc), &durable);
    audited("d1cc_durable", &cfg(ProtocolKind::D1cc), &d1cc, |s| s == 0);
    assert!(d1cc.committed > 0, "some transactions must commit");
    assert_eq!(
        d1cc.wal_prepare_forces, 0,
        "logless D1CC must never force a Prepare record on the critical path"
    );

    let two_pc = run_service_faulted(&cfg(ProtocolKind::TwoPc), &durable);
    audited("two_pc_durable", &cfg(ProtocolKind::TwoPc), &two_pc, |_| {
        true
    });
    assert!(
        two_pc.wal_prepare_forces > 0,
        "the logging baseline must pay the Prepare force D1CC avoids"
    );
}

/// Commit at message speed (ISSUE-14): a round timer bounds the wait for
/// a message that may never come; it does not pace a round whose messages
/// all came. With a deliberately huge `U` and one sequential client, the
/// four protocols whose timers guard complete-able collections commit
/// every transaction in a small fraction of **one** unit — 2PC and INBAC
/// used to take `2·U`, 3PC `4·U` — and no protocol timer ever fires: each
/// instance is decided, reported and closed long before its first
/// deadline.
#[test]
fn complete_collections_commit_at_message_speed_and_fire_no_timer() {
    let unit = Duration::from_millis(50);
    for kind in [
        ProtocolKind::TwoPc,
        ProtocolKind::ThreePc,
        ProtocolKind::Nbac1,
        ProtocolKind::Inbac,
    ] {
        let cfg = base(kind)
            .unit(unit)
            .clients(1)
            .txns_per_client(20)
            .workload(Workload::Uniform { span: 2 })
            .seed(41);
        let out = run_service(&cfg);
        audited(&format!("message_speed_{}", kind.name()), &cfg, &out, |s| {
            s == 0
        });
        assert_eq!(out.committed, 20, "{}: every txn commits", kind.name());
        let slowest = Duration::from_nanos(sojourn_times(&out.decided()).max());
        assert!(
            slowest < unit / 4,
            "{}: slowest commit took {slowest:?}, not a fraction of U = {unit:?}",
            kind.name()
        );
        assert_eq!(
            out.stage_meters.get(Stage::TimerFire).0,
            0,
            "{}: a protocol timer fired in a failure-free run",
            kind.name()
        );
    }
}

/// Holds every envelope travelling from a lower to a higher node id
/// `delay` ticks — with two-shard transactions, exactly the participant's
/// vote to its coordinator (the highest-ranked participant) — and nothing
/// else.
fn hold_votes(n: usize, delay: u64) -> FaultPlan {
    let upward =
        |a| (a + 1..n).map(move |b| DelayRule::link(a, b, Time::ZERO, Time(u64::MAX), delay));
    (0..n)
        .flat_map(upward)
        .fold(FaultPlan::none(n), FaultPlan::with_rule)
}

/// ... and the timer is still the failure detector: a vote held back
/// longer than `U` makes the 2PC coordinator abort when its collect timer
/// fires at `1·U` — not earlier (nothing completed the round) and not
/// when the vote finally shows up at `3·U`.
#[test]
fn two_pc_still_aborts_at_one_unit_when_a_vote_is_late() {
    let unit = Duration::from_millis(50);
    let cfg = base(ProtocolKind::TwoPc)
        .unit(unit)
        .clients(1)
        .txns_per_client(5)
        .workload(Workload::Uniform { span: 2 })
        .seed(41);
    let spec = FaultSpec {
        plan: hold_votes(cfg.n, 3 * U),
        durable: false,
    };
    let out = run_service_faulted(&cfg, &spec);
    audited("late_vote", &cfg, &out, |s| s == 0);
    assert_eq!(out.aborted, 5, "a missing vote at U aborts");
    assert_eq!(out.delayed_messages, 5, "one held vote per transaction");
    let sojourn = sojourn_times(&out.decided());
    let (fastest, slowest) = (
        Duration::from_nanos(sojourn.min()),
        Duration::from_nanos(sojourn.max()),
    );
    assert!(
        fastest >= unit && slowest < 2 * unit,
        "aborts must land at about 1·U = {unit:?}, got {fastest:?}..{slowest:?}"
    );
    assert_eq!(
        out.stage_meters.get(Stage::TimerFire).0,
        5,
        "exactly the coordinator's collect timer fires, once per transaction"
    );
}

fn check_live_matches_sim(kind: ProtocolKind, transport: TransportKind) {
    {
        let cfg = base(kind)
            .clients(1)
            .txns_per_client(4)
            .workload(Workload::Uniform { span: 2 })
            // Generous unit: on a loaded single-core box a node thread
            // delayed past U can push an indulgent protocol onto its
            // consensus path, which is safe but may decide differently
            // from the simulator's nice execution this test pins.
            .unit(Duration::from_millis(50))
            .keys_per_shard(16)
            .seed(13)
            .transport(transport);
        let out = run_service(&cfg);
        let label = format!("live_matches_sim_{}_{}", kind.name(), transport.name());
        audited(&label, &cfg, &out, |s| s == 0);

        // Reconstruct exactly the stream client 0 submitted.
        let mut gen = WorkloadConfig {
            shards: cfg.n,
            keys_per_shard: cfg.keys_per_shard,
            workload: cfg.workload.clone(),
            seed: cfg.client_seed(0),
        }
        .generator();
        let mut txns = gen.take_txns(cfg.txns_per_client);
        for (i, t) in txns.iter_mut().enumerate() {
            t.id = ServiceConfig::txn_id(0, i);
        }

        // The simulator reference: same protocol, same txns, in order.
        let mut sim = Cluster::new(cfg.n, cfg.f, kind);
        let sim_outcomes: Vec<bool> = txns.iter().map(|t| sim.execute(t)).collect();

        // Live decisions in submission order, each read from its
        // participants' logs (agreement is separately audited, so any
        // participant's record is the decision).
        let live_outcomes: Vec<bool> = txns
            .iter()
            .map(|t| {
                out.node_logs
                    .iter()
                    .flatten()
                    .find(|rec| rec.txn.id == t.id)
                    .unwrap_or_else(|| panic!("{}: txn {} never logged", kind.name(), t.id))
                    .decision
                    == 1
            })
            .collect();
        assert_eq!(
            live_outcomes,
            sim_outcomes,
            "{}: live decisions diverge from the simulator's nice executions",
            kind.name()
        );

        // Final shard states agree cell-by-cell.
        for p in 0..cfg.n {
            for k in 0..cfg.keys_per_shard {
                assert_eq!(
                    out.shards[p].read(k),
                    sim.shard(p).read(k),
                    "{}: shard {p} key {k} diverged",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn every_protocol_kind_can_serve_live_traffic() {
    // Beyond Table 5: the whole suite multiplexes correctly (2 clients,
    // modest load, safety audited).
    for kind in [
        ProtocolKind::Nbac0,
        ProtocolKind::InbacFastAbort,
        ProtocolKind::ThreePc,
        ProtocolKind::FasterPaxosCommit,
    ] {
        let cfg = base(kind).clients(2).txns_per_client(4);
        let out = run_service(&cfg);
        audited(&format!("every_kind_{}", kind.name()), &cfg, &out, |s| {
            s == 0
        });
        assert_eq!(out.txns, 8, "{}", kind.name());
        // 0NBAC's yes-votes are implicit. One closed-loop client overlaps
        // no two transactions, so every vote is yes — and a failure-free
        // all-yes run puts zero protocol messages on the wire.
        if kind == ProtocolKind::Nbac0 {
            let nice_cfg = cfg.clients(1);
            let nice = run_service(&nice_cfg);
            audited("every_kind_0NBAC_nice", &nice_cfg, &nice, |s| s == 0);
            assert_eq!(nice.committed, 4);
            assert_eq!(nice.wire_messages, 0, "0NBAC is silent in nice runs");
        }
    }
}

/// The open-loop load generator (ISSUE-9): arrivals follow the Poisson
/// schedule regardless of completions. At a comfortable rate with a roomy
/// window nothing sheds and the whole schedule is offered and served; at a
/// saturating rate with a window of 1 the generator must *keep offering on
/// schedule* and shed the excess instead of slowing down (the closed-loop
/// failure mode that hides the knee).
#[test]
fn open_loop_offers_the_full_schedule_and_sheds_only_at_a_full_window() {
    let cfg = base(ProtocolKind::PaxosCommit)
        .clients(2)
        .txns_per_client(10)
        .unit(Duration::from_millis(5))
        .arrival_rate(200.0)
        .max_outstanding(16);
    let out = run_service(&cfg);
    audited("open_loop_roomy", &cfg, &out, |s| s == 0);
    assert_eq!(out.offered, 20, "the schedule is offered in full");
    assert_eq!(out.shed, 0, "a roomy window sheds nothing");
    assert_eq!(out.txns, 20);
    assert!(
        goodput_tps(&out.run_stats(), &out.decided()) > 0.0,
        "trimmed steady-state goodput must be measurable"
    );

    let cfg = base(ProtocolKind::PaxosCommit)
        .clients(2)
        .txns_per_client(50)
        .unit(Duration::from_millis(5))
        .arrival_rate(5_000.0)
        .max_outstanding(1);
    let out = run_service(&cfg);
    // Submitted txns still all resolve.
    audited("open_loop_overload", &cfg, &out, |s| s == 0);
    assert_eq!(out.offered, 100, "overload must not slow the schedule down");
    assert!(out.shed > 0, "a window of 1 under x25 overload must shed");
    assert_eq!(
        out.txns + out.shed,
        out.offered,
        "every arrival is either submitted or counted shed"
    );
}

/// Group commit is work-conserving: a durable node forces what a loop
/// turn staged before that turn's flush, at every load. Under a deep
/// closed-loop window no commit waits for a clock — the median stays far
/// below a fifth of the unit (the hold a loaded node once kept),
/// everything commits and no protocol timer fires — and the forces still
/// batch, because a busy node's drain finds a backlog: fewer forces
/// cluster-wide than transactions, though each transaction stages 8
/// records.
#[test]
fn a_deep_window_batches_a_durable_nodes_forces_without_holding_a_commit() {
    let unit = Duration::from_millis(50);
    let durable = FaultSpec {
        durable: true,
        ..FaultSpec::none(4)
    };
    let cfg = base(ProtocolKind::TwoPc)
        .unit(unit)
        .workload(Workload::Uniform { span: 4 })
        .keys_per_shard(1 << 20)
        // No two of this seed's 800 transactions share a key, so none can
        // abort on a conflict however far one client runs ahead.
        .seed(47)
        .clients(2)
        .txns_per_client(400)
        .park_retries(0)
        .max_outstanding(64);
    let deep = run_service_faulted(&cfg, &durable);
    audited("deep_window_durable", &cfg, &deep, |s| s == 0);
    assert_eq!(deep.committed, 800, "no vote may miss its round timer");
    assert_eq!(deep.stage_meters.get(Stage::TimerFire).0, 0);
    let median = Duration::from_nanos(sojourn_times(&deep.decided()).p50());
    assert!(
        median < unit / 5,
        "a commit under a deep window waited for something: median {median:?}"
    );
    assert!(
        deep.wal_forces < deep.txns,
        "{} forces for {} transactions: a loaded node's drain no longer batches",
        deep.wal_forces,
        deep.txns
    );
}
