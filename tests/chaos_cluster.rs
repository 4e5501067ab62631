//! ISSUE-5 tentpole end-to-end coverage: live fault injection, crash +
//! WAL recovery, cooperative termination, and sim-vs-live agreement under
//! the *same* crash schedule.
//!
//! The scenarios mirror the paper's §6.2 story measured in wall-clock:
//! Paxos-Commit and INBAC keep deciding (and keep committing transactions
//! whose participants stayed up) through a participant crash, while 2PC's
//! transactions coordinated by the crashed node block until it restarts,
//! recovers from its write-ahead log and aborts them.

use std::time::Duration;

use ac_chaos::{run_chaos, ChaosConfig, ChaosPlan};
use ac_cluster::{
    participants_of, run_service_faulted, CrashWindow, Fate, FaultSpec, NetPolicy, ServiceConfig,
    TransportKind,
};
use ac_commit::protocols::ProtocolKind;
use ac_commit::Scenario;
use ac_net::{Crash, FaultPlan};
use ac_txn::workload::{Workload, WorkloadConfig};

mod support;
use support::audited;

/// A chaos-tuned service: span-3 transactions on 4 shards (so 1 in 4 draws
/// avoids any given node), paced submission, bounded retrying waits.
fn chaos_cfg(kind: ProtocolKind) -> ServiceConfig {
    ServiceConfig::new(4, 1, kind)
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
}

/// Crash window in units: [10, 50) = [50 ms, 250 ms) at unit 5 ms.
const DOWN: u64 = 10;
const UP: u64 = 50;

#[test]
fn paxos_commit_keeps_committing_through_a_participant_crash() {
    let cfg = ChaosConfig {
        service: chaos_cfg(ProtocolKind::PaxosCommit),
        plan: ChaosPlan::none(4).crash(1, DOWN, Some(UP)),
    };
    let out = run_chaos(&cfg);
    // Everything must resolve after the restart.
    audited(
        "paxos_commit_participant_crash",
        &cfg.service,
        &out.service,
        |s| s == 0,
    );
    assert!(
        out.stats.committed_during_fault > 0,
        "availability during the fault window must be > 0: {:?}",
        out.stats
    );
    assert!(out.stats.unresolved == 0);
    // Serializability still holds across the crash/recovery.
    let rebuilt = out.service.replay();
    for (live, replayed) in out.service.shards.iter().zip(&rebuilt) {
        for k in 0..cfg.service.keys_per_shard {
            assert_eq!(live.read(k), replayed.read(k), "shard {} key {k}", live.id);
        }
    }
}

#[test]
fn two_pc_blocks_on_coordinator_crash_until_restart_unblocks_it() {
    // Node 3 is the highest shard, hence the 2PC coordinator of every
    // transaction that touches it (ranks are ascending shard ids).
    let cfg = ChaosConfig {
        service: chaos_cfg(ProtocolKind::TwoPc),
        plan: ChaosPlan::none(4).crash(3, DOWN, Some(UP)),
    };
    let out = run_chaos(&cfg);
    // Restart + retry must eventually unblock every blocked txn.
    audited(
        "two_pc_coordinator_crash",
        &cfg.service,
        &out.service,
        |s| s == 0,
    );
    assert!(
        out.stats.blocked > 0,
        "2PC must report blocked txns under a crashed coordinator: {:?}",
        out.stats
    );
    assert!(
        out.stats.time_to_unblock > Duration::ZERO,
        "blocked txns resolve only after the restart: {:?}",
        out.stats
    );
    assert!(
        out.service.retries > 0,
        "unblocking rides on client retries"
    );
}

#[test]
fn inbac_decides_through_a_participant_crash_and_recovers() {
    let cfg = ChaosConfig {
        service: chaos_cfg(ProtocolKind::Inbac),
        plan: ChaosPlan::none(4).crash(1, DOWN, Some(UP)),
    };
    let out = run_chaos(&cfg);
    audited("inbac_participant_crash", &cfg.service, &out.service, |s| {
        s == 0
    });
    assert!(
        out.stats.committed_during_fault > 0,
        "INBAC's f-tolerant path keeps committing: {:?}",
        out.stats
    );
}

/// Forty paced transactions per client keep submitting past the heal at
/// `UP` (fourteen all end inside the window once no client waits for a
/// cut-off participant), so `committed_after_heal` counts throughput that
/// came back, not transactions that were blocked.
#[test]
fn partition_heals_and_every_transaction_resolves() {
    for kind in [ProtocolKind::PaxosCommit, ProtocolKind::TwoPc] {
        let cfg = ChaosConfig {
            service: chaos_cfg(kind).txns_per_client(40),
            plan: ChaosPlan::none(4).partition(vec![0, 1], DOWN, UP, true),
        };
        let out = run_chaos(&cfg);
        // Post-heal retries must resolve.
        let label = format!("partition_heals_{}", kind.name());
        audited(&label, &cfg.service, &out.service, |s| s == 0);
        assert!(
            out.stats.committed_after_heal > 0,
            "{}: the service must recover throughput after the heal: {:?}",
            kind.name(),
            out.stats
        );
        assert!(
            out.service.dropped_messages > 0,
            "{}: the partition must actually cut traffic",
            kind.name()
        );
    }
}

#[test]
fn lossy_links_degrade_but_never_corrupt() {
    let cfg = ChaosConfig {
        service: chaos_cfg(ProtocolKind::PaxosCommit),
        plan: ChaosPlan::none(4).lossy(0, 10_000, 100).seed(5),
    };
    let out = run_chaos(&cfg);
    audited("lossy_links", &cfg.service, &out.service, |s| s == 0);
    assert!(out.service.committed > 0);
    assert!(out.service.dropped_messages > 0, "10% loss must bite");
}

/// Same crash schedule, same protocol, same decisions — across **three**
/// execution modes: a crash schedule expressed once as an
/// `ac_net::FaultPlan` drives the simulator directly and, converted
/// through `ChaosPlan::from_fault_plan`, the live cluster over in-process
/// channels *and* over the real-socket TCP transport. Span-`n`
/// transactions make the live participant set the whole cluster, so
/// instance ranks coincide with the simulator's process ids. Survivor
/// decisions and final shard state must be identical in all three modes
/// (for 2PC, PaxosCommit, INBAC and D1CC alike).
#[test]
fn sim_and_live_agree_under_the_same_crash_schedule() {
    let n = 4;
    let sim_plan = FaultPlan::none(n).with_crash(1, Crash::initially());
    let chaos_plan = ChaosPlan::from_fault_plan(&sim_plan);
    // The conversion must round-trip (crash-only schedules are exactly
    // representable in both vocabularies).
    assert_eq!(
        chaos_plan.to_fault_plan().unwrap().crashed_ids(),
        sim_plan.crashed_ids()
    );

    for kind in [
        ProtocolKind::Inbac,
        ProtocolKind::PaxosCommit,
        ProtocolKind::TwoPc,
        // Logless: the initially-dead node's vote is never replicated, so
        // every survivor times out to Abort at f+1 — same [0] decision,
        // reached without a single critical-path WAL force.
        ProtocolKind::D1cc,
    ] {
        // Survivor decision maps and final totals per transport, compared
        // at the end: the wire must not change any outcome.
        type Mode = (&'static str, Vec<(u64, u64)>, i64);
        let mut modes: Vec<Mode> = Vec::new();
        for transport in [TransportKind::Channel, TransportKind::Tcp] {
            let service = ServiceConfig::new(n, 1, kind)
                .clients(1)
                .txns_per_client(2)
                .workload(Workload::Uniform { span: n })
                .unit(Duration::from_millis(10))
                .keys_per_shard(32)
                .seed(41)
                .reply_timeout(Duration::from_millis(150))
                .park_retries(1)
                .txn_deadline(Duration::from_millis(800))
                .transport(transport);
            let cfg = ChaosConfig {
                service: service.clone(),
                plan: chaos_plan.clone(),
            };
            let out = run_chaos(&cfg);
            let label = format!("{}/{}", kind.name(), transport.name());
            // Node 1 is dead for the whole run and never restarts, so every
            // transaction misses one decision and is abandoned at its
            // deadline — the *survivors'* decisions are what must agree.
            let kept = format!("sim_and_live_{label}");
            audited(&kept, &service, &out.service, |s| s == 2);

            // Reconstruct the submitted stream and run the simulator under
            // the *original* FaultPlan with the survivors' actual votes.
            let mut gen = WorkloadConfig {
                shards: n,
                keys_per_shard: service.keys_per_shard,
                workload: service.workload.clone(),
                seed: service.client_seed(0),
            }
            .generator();
            let mut txns = gen.take_txns(service.txns_per_client);
            for (i, t) in txns.iter_mut().enumerate() {
                t.id = ServiceConfig::txn_id(0, i);
            }

            let mut decided: Vec<(u64, u64)> = Vec::new();
            for t in &txns {
                assert_eq!(participants_of(t, n).len(), n, "span-n txn covers all");
                // All survivors voted yes (sequential aborts leave no locks),
                // the dead node proposes nothing: the paper's validity says
                // the decision must be 0 in every such execution.
                let sc = Scenario::nice(n, 1)
                    .votes(&vec![true; n])
                    .crash(1, sim_plan.crash_of(1).unwrap());
                let sim_out = kind.run(&sc);
                let sim_vals = sim_out.decided_values();
                assert_eq!(sim_vals, vec![0], "{label}: simulator decision");

                // Every live survivor that logged the txn decided the same
                // value the simulator's processes did.
                let mut live_decisions = Vec::new();
                for (node, log) in out.service.node_logs.iter().enumerate() {
                    if let Some(rec) = log.iter().find(|r| r.txn.id == t.id) {
                        assert_ne!(node, 1, "the dead node cannot have logged anything");
                        live_decisions.push(rec.decision);
                    }
                }
                assert!(
                    !live_decisions.is_empty(),
                    "{label}: survivors must decide txn {}",
                    t.id
                );
                assert!(
                    live_decisions.iter().all(|&d| d == sim_vals[0]),
                    "{label}: live survivors decided {live_decisions:?}, sim decided {:?}",
                    sim_vals
                );
                decided.push((t.id, live_decisions[0]));
            }

            // No effects anywhere: everything aborted in both worlds.
            assert_eq!(out.service.total_value(), 0);
            for shard in &out.service.shards {
                assert_eq!(shard.locked(), 0, "{label}: aborts must release locks");
            }
            modes.push((transport.name(), decided, out.service.total_value()));
        }
        // Channel and TCP agree with each other (and, transitively, with
        // the simulator checked above) on every survivor decision and on
        // the final shard state.
        let (base_name, base_decisions, base_total) = &modes[0];
        for (name, decisions, total) in &modes[1..] {
            assert_eq!(
                decisions,
                base_decisions,
                "{}: survivor decisions diverged between {base_name} and {name}",
                kind.name()
            );
            assert_eq!(total, base_total, "{}: final state diverged", kind.name());
        }
    }
}

/// The chaos contrast the Table-1 cells predict under a participant crash.
/// Both keep **committing** (transactions avoiding the dead shard decide;
/// ones touching it abort instead of blocking). But Paxos-Commit's cell,
/// (AVT, AVT), has agreement in both failure models, so its client takes
/// the survivors' outcome from the first `Done`; D1CC's, (AVT, VT), may
/// split under a network failure, so its client waits for every
/// participant — the crashed one included, until it restarts. So
/// Paxos-Commit's in-window availability is higher. Wall-clock fault
/// windows make single runs noisy (one in-window transaction swings
/// availability by several points when the test suite contends for
/// cores), so both protocols run the same three seeded schedules and the
/// comparison is on means; the committed `BENCH_baseline.json` chaos
/// section carries the gate-checked cells.
#[test]
fn paxos_commit_reports_through_a_crash_more_available_than_d1cc() {
    const SEEDS: [u64; 3] = [23, 24, 25];
    let run = |kind: ProtocolKind, seed: u64| {
        let cfg = ChaosConfig {
            service: chaos_cfg(kind).seed(seed),
            plan: ChaosPlan::none(4).crash(1, DOWN, Some(UP)),
        };
        let out = run_chaos(&cfg);
        let label = kind.name();
        let kept = format!("reports_through_a_crash_{label}");
        audited(&kept, &cfg.service, &out.service, |s| s == 0);
        assert_eq!(out.stats.unresolved, 0, "{label} seed {seed}");
        out
    };
    let sweep = |kind: ProtocolKind| -> (u64, f64, ac_chaos::ChaosOutcome) {
        let mut outs: Vec<_> = SEEDS.iter().map(|&s| run(kind, s)).collect();
        let committed: u64 = outs
            .iter()
            .map(|o| o.stats.committed_during_fault as u64)
            .sum();
        let mean_avail =
            outs.iter().map(|o| o.stats.availability_pct).sum::<f64>() / SEEDS.len() as f64;
        (committed, mean_avail, outs.pop().expect("non-empty"))
    };
    let (d1cc_committed, d1cc_avail, d1cc) = sweep(ProtocolKind::D1cc);
    let (pc_committed, pc_avail, _) = sweep(ProtocolKind::PaxosCommit);
    assert!(
        d1cc_committed > 0,
        "D1CC: commits must proceed through the crash in at least one \
         seeded schedule"
    );
    assert!(
        pc_committed > 0,
        "PaxosCommit: commits must proceed through the crash in at least \
         one seeded schedule"
    );
    assert_eq!(
        d1cc.service.wal_prepare_forces, 0,
        "even the chaos run (durable WAL, crash recovery) must not force \
         a D1CC Prepare on the critical path"
    );
    assert!(
        pc_avail > d1cc_avail,
        "Paxos-Commit mean in-window availability ({pc_avail:.1}%) is not \
         above D1CC's ({d1cc_avail:.1}%) over seeds {SEEDS:?}"
    );
    // Serializability holds across the crash/recovery.
    let rebuilt = d1cc.service.replay();
    for (live, replayed) in d1cc.service.shards.iter().zip(&rebuilt) {
        for k in 0..64 {
            assert_eq!(live.read(k), replayed.read(k), "shard {} key {k}", live.id);
        }
    }
}

/// Logless crash recovery (ISSUE-7 satellite): a D1CC node that crashes
/// after applying decisions rebuilds its audit log from the jointly
/// journaled Prepare+Decide records, and transactions in flight at the
/// crash — which left **nothing** in its WAL — are reconstructed from
/// peers under the ask-before-revote rule: the client's retried `Begin`
/// re-joins the transaction **voteless**, the node asks its peers with
/// `StatusQ` (never re-validating, so a contradictory re-vote can't
/// split the decision), and decided peers answer `StatusA` with the
/// outcome. The cross-node audit (every commit backed by `n` yes-votes,
/// no split decisions, no lock leaks) must come out clean with zero
/// critical-path forces.
#[test]
fn d1cc_restart_reconstructs_decisions_from_peer_votes() {
    let service = chaos_cfg(ProtocolKind::D1cc).txns_per_client(16);
    let cfg = ChaosConfig {
        service,
        // Crash late enough that node 2 decided a batch before dying.
        plan: ChaosPlan::none(4).crash(2, 30, Some(60)),
    };
    let out = run_chaos(&cfg);
    // Peer votes must resolve everything.
    audited("d1cc_restart", &cfg.service, &out.service, |s| s == 0);
    assert_eq!(
        out.service.wal_prepare_forces, 0,
        "recovery must not reintroduce critical-path Prepare forces"
    );
    assert!(
        !out.service.node_logs[2].is_empty(),
        "node 2's pre-crash decisions must survive via the joint journal"
    );
    // The recovered node's final shard state still replays sequentially
    // from its (journal-rebuilt + post-restart) commit log.
    let rebuilt = out.service.replay();
    for k in 0..cfg.service.keys_per_shard {
        assert_eq!(
            out.service.shards[2].read(k),
            rebuilt[2].read(k),
            "key {k} diverged across logless crash recovery"
        );
    }
}

/// Holds every envelope to node 1 for a while, and delivers the rest.
struct SlowTowardsNodeOne(Duration);

impl NetPolicy for SlowTowardsNodeOne {
    fn fate(&self, _from: usize, to: usize, _elapsed: Duration, _seq: u64) -> Fate {
        if to == 1 {
            Fate::Delay(self.0)
        } else {
            Fate::Deliver
        }
    }
}

/// The lost-volatile-vote case of the ask-before-revote rule, forced. D1CC
/// node 1 votes yes and its vote reaches its peers, which commit; the
/// peers' votes and decision to node 1 are held 30 ms, and node 1 crashes
/// at 10 ms, before learning anything — its logless vote dies with it.
/// The client's retried `Begin` reaches the restarted node with no record
/// of the transaction: it re-joins voteless, asks its peers, and adopts
/// their commit (`StatusA`), so the client hears one outcome from all four.
#[test]
fn a_logless_restart_asks_its_peers_instead_of_voting_again() {
    let cfg = ServiceConfig::new(4, 1, ProtocolKind::D1cc)
        .clients(1)
        .txns_per_client(1)
        .workload(Workload::Uniform { span: 4 })
        .unit(Duration::from_millis(50))
        .reply_timeout(Duration::from_millis(150))
        .park_retries(4)
        .txn_deadline(Duration::from_secs(3));
    let mut spec = FaultSpec::none(4);
    spec.policy = Some(std::sync::Arc::new(SlowTowardsNodeOne(
        Duration::from_millis(30),
    )));
    spec.crashes[1] = Some(CrashWindow {
        down_after: Duration::from_millis(10),
        up_after: Some(Duration::from_millis(60)),
    });
    let out = run_service_faulted(&cfg, &spec);
    audited("logless_restart_asks", &cfg, &out, |s| s == 0);
    let ev = &out.txn_events[0];
    assert_eq!(ev.committed, Some(true), "the peers committed");
    assert!(ev.retries > 0, "node 1 answered only a retry");
}

/// A node that crashes and **never restarts** must still leave a clean
/// audit: its durable (WAL-rebuilt) state answers for it, transactions it
/// took to its grave are counted stalled — not as lock leaks — and the
/// f-tolerant survivors decide everything else.
#[test]
fn crash_without_restart_keeps_the_audit_clean() {
    let cfg = ChaosConfig {
        service: chaos_cfg(ProtocolKind::PaxosCommit)
            .txns_per_client(10)
            .txn_deadline(Duration::from_millis(1200)),
        plan: ChaosPlan::none(4).crash(1, DOWN, None),
    };
    let out = run_chaos(&cfg);
    // A dead-forever node must not fail the audit, and the txns waiting on
    // it are abandoned, not hung.
    audited("crash_without_restart", &cfg.service, &out.service, |s| {
        s > 0
    });
    assert!(
        out.service.committed > 0,
        "txns avoiding the dead shard keep committing"
    );
}

/// WAL recovery carries decisions across the crash: a run where the
/// crashed node had already applied decisions must surface them again in
/// its post-restart audit log (rebuilt from the WAL, not from lost
/// memory), keeping the cross-node audit complete.
#[test]
fn recovered_node_rebuilds_its_decision_log_from_the_wal() {
    let service = chaos_cfg(ProtocolKind::PaxosCommit).txns_per_client(16);
    let cfg = ChaosConfig {
        service,
        // Crash late enough that node 2 decided a batch before dying.
        plan: ChaosPlan::none(4).crash(2, 30, Some(60)),
    };
    let out = run_chaos(&cfg);
    audited("recovered_node_wal", &cfg.service, &out.service, |s| s == 0);
    assert!(
        !out.service.node_logs[2].is_empty(),
        "node 2's audit log must survive the crash via the WAL"
    );
    // And it still replays sequentially to the final shard state.
    let rebuilt = out.service.replay();
    for k in 0..cfg.service.keys_per_shard {
        assert_eq!(
            out.service.shards[2].read(k),
            rebuilt[2].read(k),
            "key {k} diverged across crash recovery"
        );
    }
}

/// A retried `Begin` is staged by the client's expiry pass and must leave
/// in that same turn's flush, before the client parks again — not one
/// reply wait later. Node 1 is dead for the first 50 ms, so it misses the
/// transaction's `Begin`; the survivors abort on the missing vote. With
/// 100 ms reply waits the client's first retry (t ≈ 100 ms) re-opens the
/// instance at the restarted node and the second (t ≈ 200 ms) triggers
/// the `StatusQ` round that hands it the decision. A retry that left a
/// park late would need a third and resolve a reply wait later.
#[test]
fn retried_begins_leave_in_the_turn_that_staged_them() {
    let cfg = ServiceConfig::new(4, 1, ProtocolKind::TwoPc)
        .clients(1)
        .txns_per_client(1)
        .workload(Workload::Uniform { span: 4 })
        .reply_timeout(Duration::from_millis(100))
        .park_retries(8)
        .txn_deadline(Duration::from_secs(3));
    let mut spec = FaultSpec::none(4);
    spec.crashes[1] = Some(CrashWindow {
        down_after: Duration::ZERO,
        up_after: Some(Duration::from_millis(50)),
    });
    let out = run_service_faulted(&cfg, &spec);
    audited("retried_begins", &cfg, &out, |s| s == 0);
    let ev = &out.txn_events[0];
    assert_eq!(ev.committed, Some(false), "node 1 never voted in time");
    assert_eq!(ev.retries, 2, "re-open, then cooperative termination");
    let decided = ev.decided_at.expect("resolved");
    assert!(
        decided < Duration::from_millis(290),
        "resolved {decided:?} after submission: a retry left late"
    );
}

/// The run_service_faulted surface also works without any chaos plan —
/// durability alone must not change outcomes.
#[test]
fn durable_failure_free_run_matches_the_default_path() {
    let cfg = ServiceConfig::new(4, 1, ProtocolKind::Inbac)
        .clients(2)
        .txns_per_client(6)
        .unit(Duration::from_millis(10));
    let spec = FaultSpec {
        policy: None,
        crashes: vec![None; 4],
        durable: true,
    };
    let out = run_service_faulted(&cfg, &spec);
    audited("durable_failure_free", &cfg, &out, |s| s == 0);
    assert_eq!(out.txns, 12);
    assert_eq!(out.retries, 0);
}
