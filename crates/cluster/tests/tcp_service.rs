//! The in-process service over the real-socket transport (ISSUE-6
//! tentpole): `run_service` with `TransportKind::Tcp` sends every
//! node-to-node and client-to-node envelope through the length-prefixed
//! wire codec and loopback TCP, and must deliver the same contract the
//! channel transport does — clean audit, no stalls, no split decisions,
//! zero orphaned envelopes, conserved transfers.

use std::time::Duration;

use ac_cluster::{
    run_service, run_service_faulted, FaultSpec, ServiceConfig, Stage, TransportKind,
};
use ac_commit::protocols::ProtocolKind;
use ac_net::{DelayRule, FaultPlan};
use ac_sim::{Time, U};
use ac_txn::workload::Workload;

fn tcp_config(kind: ProtocolKind) -> ServiceConfig {
    ServiceConfig::new(4, 1, kind)
        .clients(3)
        .txns_per_client(20)
        .workload(Workload::Transfer { amount: 5 })
        .seed(7)
        .transport(TransportKind::Tcp)
}

#[test]
fn two_pc_transfer_load_conserves_value_over_tcp() {
    let out = run_service(&tcp_config(ProtocolKind::TwoPc));
    assert!(out.is_safe(), "audit violations: {:?}", out.violations);
    assert_eq!(out.stalled, 0, "stalled transactions over TCP");
    assert_eq!(out.orphaned_envelopes, 0, "orphaned envelopes over TCP");
    assert_eq!(out.txns, 3 * 20);
    let total: i64 = out.shards.iter().map(|s| s.total()).sum();
    assert_eq!(total, 0, "transfers must conserve value");
}

#[test]
fn paxos_commit_and_inbac_serve_load_over_tcp() {
    for kind in [ProtocolKind::PaxosCommit, ProtocolKind::Inbac] {
        let out = run_service(&tcp_config(kind));
        assert!(
            out.is_safe(),
            "{kind:?}: audit violations: {:?}",
            out.violations
        );
        assert_eq!(out.stalled, 0, "{kind:?}: stalled transactions over TCP");
        assert_eq!(out.orphaned_envelopes, 0, "{kind:?}: orphaned envelopes");
        assert_eq!(out.txns, 3 * 20, "{kind:?}: lost transactions");
    }
}

/// With one closed-loop client the load is serial, so commit/abort
/// decisions are a pure function of the seeded workload — they must be
/// identical whether envelopes ride channels or sockets. (Concurrent
/// clients race for locks, so their decisions legitimately vary with
/// timing; the conflict-free slice is where transports must agree
/// exactly.)
#[test]
fn channel_and_tcp_reach_identical_decisions() {
    for kind in [ProtocolKind::TwoPc, ProtocolKind::PaxosCommit] {
        // A generous `U`: 2PC aborts a transaction whose votes miss the
        // 1·U timer, and the sibling tests of this binary load the same
        // cores — a stall must not read as a transport difference.
        let serial = tcp_config(kind)
            .clients(1)
            .unit(std::time::Duration::from_millis(25));
        let over_channel = run_service(&serial.clone().transport(TransportKind::Channel));
        let over_tcp = run_service(&serial);
        assert!(over_channel.is_safe() && over_tcp.is_safe());
        let key = |o: &ac_cluster::ServiceOutcome| {
            let mut decisions: Vec<(u64, bool)> = o
                .txn_events
                .iter()
                .filter_map(|e| e.committed.map(|c| (e.id, c)))
                .collect();
            decisions.sort_unstable();
            decisions
        };
        assert_eq!(
            key(&over_channel),
            key(&over_tcp),
            "{kind:?}: decisions diverged between channel and TCP"
        );
    }
}

/// The egress rule over real sockets: clients stage `Begin`/`End` per node
/// and flush once per loop turn, nodes flush once per drain, so a
/// windowed run coalesces many envelopes into each `write_all` — clients
/// and nodes together stay below two socket writes per transaction
/// (per-envelope client sends alone cost four). Coalescing must not cost
/// anything else: no retry, no orphaned envelope, nothing stalled.
#[test]
fn windowed_paxos_commit_coalesces_socket_writes_on_both_ends() {
    let cfg = ServiceConfig::new(4, 1, ProtocolKind::PaxosCommit)
        .clients(2)
        .txns_per_client(2000)
        .workload(Workload::Uniform { span: 2 })
        .keys_per_shard(1 << 20)
        .seed(7)
        .transport(TransportKind::Tcp)
        .park_retries(0)
        .max_outstanding(32);
    let out = run_service(&cfg);
    assert!(out.is_safe(), "audit violations: {:?}", out.violations);
    assert_eq!(out.txns, 2 * 2000);
    assert_eq!(out.stalled, 0);
    assert_eq!(out.retries, 0);
    assert_eq!(out.orphaned_envelopes, 0);
    let (writes, _) = out.stage_meters.get(ac_cluster::Stage::TcpWrite);
    let per_txn = writes as f64 / out.txns as f64;
    assert!(
        per_txn < 2.0,
        "{writes} socket writes for {} transactions = {per_txn:.2} per txn",
        out.txns
    );
}

/// A node reads its own sockets: parked in the readiness wait with no
/// deadline it wakes for frames only — never for an accepted connection,
/// half a frame or a `Hello` — so a message-driven run over TCP, light or
/// windowed, counts no spurious wakeup and loses nothing.
#[test]
fn paxos_commit_over_tcp_wakes_a_node_for_frames_only() {
    let light = ServiceConfig::new(4, 1, ProtocolKind::PaxosCommit)
        .unit(Duration::from_millis(1))
        .clients(2)
        .txns_per_client(2000)
        .workload(Workload::Uniform { span: 2 })
        .keys_per_shard(1 << 20)
        .seed(7)
        .transport(TransportKind::Tcp);
    let windowed = light.clone().park_retries(0).max_outstanding(32);
    for (load, cfg) in [("light", light), ("windowed", windowed)] {
        let out = run_service(&cfg);
        assert!(
            out.is_safe(),
            "{load}: audit violations: {:?}",
            out.violations
        );
        assert_eq!(out.txns, 2 * 2000, "{load}: lost transactions");
        assert_eq!(
            (out.stalled, out.retries, out.orphaned_envelopes),
            (0, 0, 0),
            "{load}: stalled / retried / orphaned"
        );
        assert_eq!(out.spurious_wakeups, 0, "{load}: a wake moved nothing");
    }
}

/// Holds every envelope travelling from a lower to a higher node id
/// `delay` ticks — with two-shard transactions, exactly the participant's
/// vote to its coordinator — and nothing else.
fn hold_votes(n: usize, delay: u64) -> FaultPlan {
    let upward =
        |a| (a + 1..n).map(move |b| DelayRule::link(a, b, Time::ZERO, Time(u64::MAX), delay));
    (0..n)
        .flat_map(upward)
        .fold(FaultPlan::none(n), FaultPlan::with_rule)
}

/// The failure detector keeps its clock while the node is parked on
/// sockets: a vote held `3·U` makes the 2PC coordinator abort when its
/// collect timer fires at `1·U` — the readiness wait ends on the exact
/// deadline, not on the next frame. The TCP twin of
/// `tests/live_cluster.rs::two_pc_still_aborts_at_one_unit_when_a_vote_is_late`.
#[test]
fn two_pc_over_tcp_still_aborts_at_one_unit_when_a_vote_is_late() {
    let unit = Duration::from_millis(50);
    let cfg = ServiceConfig::new(4, 1, ProtocolKind::TwoPc)
        .unit(unit)
        .clients(1)
        .txns_per_client(5)
        .workload(Workload::Uniform { span: 2 })
        .seed(41)
        .transport(TransportKind::Tcp);
    let spec = FaultSpec {
        plan: hold_votes(cfg.n, 3 * U),
        durable: false,
    };
    let out = run_service_faulted(&cfg, &spec);
    assert_eq!(out.stalled, 0);
    assert!(out.is_safe(), "{:?}", out.violations);
    assert_eq!(out.aborted, 5, "a missing vote at U aborts");
    assert_eq!(out.delayed_messages, 5, "one held vote per transaction");
    let sojourn = ac_obs::sojourn_times(&out.decided);
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
