//! Sub-`U` schedules for the four protocols whose round timers are failure
//! detectors rather than triggers (2PC, 3PC, 1NBAC, INBAC).
//!
//! The exhaustive explorer delivers every message after exactly `U`, so
//! the last message of a round and the round's timer always coincide and
//! "act when the collection is complete" is indistinguishable from "act
//! when the timer fires". This sweep takes the coincidence away: at
//! `n = 3, f = 1` it enumerates every vote vector × every subset of the
//! six directed links made fast (`U/2`) × the failure-free schedule and
//! every single crash on the half-unit grid (full stop and partial
//! broadcasts), so rounds close early on some processes and on the timer
//! on others, and crashes land between an early action and the timer that
//! used to perform it. Every execution is synchronous (all delays `≤ U`)
//! and is checked against the protocol's Table-1 cell; failure-free
//! executions must additionally decide what the all-`U` run decides and
//! put exactly the protocol's failure-free message total on the wire — a
//! round that acted early and then again on its timer would broadcast
//! twice.

use ac_commit::checker::check;
use ac_commit::protocols::ProtocolKind;
use ac_commit::runner::Scenario;
use ac_net::{Crash, DelayRule};
use ac_sim::{Time, U};

const N: usize = 3;
const F: usize = 1;

/// The protocols under test.
const KINDS: [ProtocolKind; 4] = [
    ProtocolKind::TwoPc,
    ProtocolKind::ThreePc,
    ProtocolKind::Nbac1,
    ProtocolKind::Inbac,
];

/// Wire messages of a whole failure-free execution (to quiescence, so
/// 1NBAC's `[D]` relay round counts), whatever the link speeds.
fn failure_free_wire_total(kind: ProtocolKind, all_yes: bool) -> usize {
    match kind {
        ProtocolKind::TwoPc => 2 * N - 2,
        // Votes, then PreCommit/AckPc/DoCommit — or one DoAbort round.
        ProtocolKind::ThreePc if all_yes => 4 * N - 4,
        ProtocolKind::ThreePc => 2 * N - 2,
        ProtocolKind::Nbac1 => 2 * (N * N - N),
        ProtocolKind::Inbac => 2 * F * N,
        other => unreachable!("{} is not swept here", other.name()),
    }
}

fn directed_links() -> Vec<(usize, usize)> {
    (0..N)
        .flat_map(|a| (0..N).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect()
}

/// `votes` with the links selected by `fast_mask` taking `U/2` for the
/// whole run and every other link exactly `U`.
fn scenario(votes: &[bool], links: &[(usize, usize)], fast_mask: u32) -> Scenario {
    let mut sc = Scenario::nice(N, F).votes(votes).horizon(400);
    for (i, &(from, to)) in links.iter().enumerate() {
        if fast_mask & (1 << i) != 0 {
            sc = sc.rule(DelayRule::link(from, to, Time::ZERO, Time(u64::MAX), U / 2));
        }
    }
    sc
}

/// Single crashes on the half-unit grid `0, U/2, .., span·U`: a full stop
/// and partial broadcasts of one and two sends at each instant.
fn crash_options(span_units: u64) -> Vec<(usize, Crash)> {
    let mut opts = Vec::new();
    for victim in 0..N {
        for half in 0..=2 * span_units {
            let at = Time(half * (U / 2));
            opts.push((victim, Crash::at(at)));
            for k in [1, 2] {
                opts.push((victim, Crash::partial(at, k)));
            }
        }
    }
    opts
}

/// Sweep `kind`, whose failure-free flow spans `flow_units` units (crashes
/// are injected up to one unit past it); returns the execution count.
fn sweep(kind: ProtocolKind, flow_units: u64) -> usize {
    let links = directed_links();
    let crashes = crash_options(flow_units + 1);
    let mut executions = 0;
    for vote_mask in 0..(1u32 << N) {
        let votes: Vec<bool> = (0..N).map(|p| vote_mask & (1 << p) != 0).collect();
        let on_grid = kind.run(&scenario(&votes, &links, 0));
        for fast_mask in 0..(1u32 << links.len()) {
            let ctx = |what: &str| {
                format!(
                    "{} votes={votes:?} fast-links={fast_mask:06b} {what}",
                    kind.name()
                )
            };
            let sc = scenario(&votes, &links, fast_mask);

            let out = kind.run(&sc);
            executions += 1;
            check(&out, &votes, kind.cell()).assert_ok(&ctx("failure-free"));
            assert_eq!(
                out.decided_values(),
                on_grid.decided_values(),
                "{}: decision differs from the all-U run",
                ctx("failure-free")
            );
            assert_eq!(
                out.records.len(),
                failure_free_wire_total(kind, votes.iter().all(|&v| v)),
                "{}: wrong wire-message total (a round closed twice?)",
                ctx("failure-free")
            );

            for &(victim, crash) in &crashes {
                let out = kind.run(&sc.clone().crash(victim, crash));
                executions += 1;
                check(&out, &votes, kind.cell())
                    .assert_ok(&ctx(&format!("P{} {crash:?}", victim + 1)));
            }
        }
    }
    executions
}

#[test]
fn two_pc_holds_its_cell_off_the_unit_grid() {
    assert_eq!(sweep(ProtocolKind::TwoPc, 2), 8 * 64 * (1 + 3 * 7 * 3));
}

#[test]
fn three_pc_holds_its_cell_off_the_unit_grid() {
    assert_eq!(sweep(ProtocolKind::ThreePc, 4), 8 * 64 * (1 + 3 * 11 * 3));
}

#[test]
fn nbac1_holds_its_cell_off_the_unit_grid() {
    assert_eq!(sweep(ProtocolKind::Nbac1, 2), 8 * 64 * (1 + 3 * 7 * 3));
}

#[test]
fn inbac_holds_its_cell_off_the_unit_grid() {
    assert_eq!(sweep(ProtocolKind::Inbac, 2), 8 * 64 * (1 + 3 * 7 * 3));
}

/// The point of the exercise, stated on the simulator: with every link
/// fast, all four protocols decide in `k` half-units — `k` message
/// hand-offs — instead of `k` timer periods.
#[test]
fn fast_links_commit_at_message_speed() {
    let links = directed_links();
    let all_fast = (1u32 << links.len()) - 1;
    for kind in KINDS {
        let (delays, _) = kind.nice_complexity_formula(N as u64, F as u64);
        let out = kind.run(&scenario(&[true; N], &links, all_fast));
        assert_eq!(out.decided_values(), vec![1], "{}", kind.name());
        assert_eq!(
            out.metrics().last_decision,
            Some(Time(delays * (U / 2))),
            "{}: {delays} hand-offs of U/2 each",
            kind.name()
        );
    }
}
