//! The flight index against the folds it replaced (ISSUE-25): on random
//! event streams — any order, duplicate stamps, missing points, one to six
//! nodes per transaction, decided transactions no event names, ids a
//! service encodes per client mixed with ids scattered over the space —
//! the index-based [`Attribution`] and [`FlightIndex::lifecycle`] equal
//! the nested-map fold and the `lifecycles` map `ac-obs` ran before,
//! whether an id finds its slot by arithmetic or by probe.

use std::collections::HashMap;

use ac_obs::{
    Attribution, FlightEvent, FlightIndex, FlightStage, LatencyHistogram, Lifecycle, SlotBox,
    TxnTimeline,
};
use proptest::prelude::*;

const STAGES: [FlightStage; 4] = [
    FlightStage::Dispatch,
    FlightStage::LockAcquired,
    FlightStage::WalForced,
    FlightStage::Decided,
];

#[derive(Copy, Clone, Default)]
struct NodePoints {
    dispatch: Option<u64>,
    lock: Option<u64>,
    wal: Option<u64>,
    decided: Option<u64>,
}

/// `Attribution::compute` as it was before the index: a `HashMap` of
/// per-node `HashMap`s. Its slowest list is sorted once, at the end, in
/// the (e2e desc, txn asc) order ISSUE-25 fixed.
/// Its anchor is the latest decider not after the client's stamp, else the
/// earliest decider.
fn reference(decided: &[(u64, u64, u64)], flight: &[FlightEvent], keep: usize) -> Attribution {
    let mut points: HashMap<u64, HashMap<u32, NodePoints>> = HashMap::new();
    for ev in flight {
        let p = points
            .entry(ev.txn)
            .or_default()
            .entry(ev.node)
            .or_default();
        let at = ev.at_nanos;
        match ev.stage {
            FlightStage::Dispatch => p.dispatch = Some(p.dispatch.map_or(at, |c| c.min(at))),
            FlightStage::LockAcquired => p.lock = Some(p.lock.map_or(at, |c| c.min(at))),
            FlightStage::WalForced => p.wal = Some(p.wal.map_or(at, |c| c.min(at))),
            FlightStage::Decided => p.decided = Some(p.decided.map_or(at, |c| c.max(at))),
        }
    }
    let mut out = Attribution::default();
    for &(txn, submitted, decided_client) in decided {
        out.total += 1;
        let Some(nodes) = points.get(&txn) else {
            continue;
        };
        let deciders = || nodes.iter().filter(|(_, p)| p.decided.is_some());
        let by_client = deciders()
            .filter(|(_, p)| p.decided <= Some(decided_client))
            .max_by_key(|(&node, p)| (p.decided, node));
        let earliest = || deciders().min_by_key(|(&node, p)| (p.decided, node));
        let Some((&anchor, a)) = by_client.or_else(earliest) else {
            continue;
        };
        let (Some(dispatch), Some(lock), Some(decided_node)) = (a.dispatch, a.lock, a.decided)
        else {
            continue;
        };
        let p1 = dispatch.max(submitted);
        let p2 = lock.max(p1);
        let p3 = a.wal.map(|w| w.max(p2));
        let p4 = decided_node.max(p3.unwrap_or(p2));
        let tl = TxnTimeline {
            txn,
            anchor,
            submitted_nanos: submitted,
            dispatch_nanos: p1,
            lock_nanos: p2,
            wal_nanos: p3,
            decided_node_nanos: p4,
            decided_client_nanos: decided_client.max(p4),
        };
        out.covered += 1;
        out.e2e.record(tl.e2e_nanos());
        for (h, v) in out.stages.iter_mut().zip(tl.stage_nanos()) {
            h.record(v);
        }
        out.slowest.push(tl);
    }
    out.slowest
        .sort_by(|a, b| b.e2e_nanos().cmp(&a.e2e_nanos()).then(a.txn.cmp(&b.txn)));
    out.slowest.truncate(keep);
    out
}

/// `ac_obs::lifecycles` as it was before the index.
fn reference_lifecycles(flight: &[FlightEvent]) -> HashMap<u64, Lifecycle> {
    let mut out: HashMap<u64, Lifecycle> = HashMap::new();
    for ev in flight {
        let l = out.entry(ev.txn).or_default();
        let at = ev.at_nanos;
        match ev.stage {
            FlightStage::Dispatch => {
                l.first_protocol_nanos = Some(l.first_protocol_nanos.map_or(at, |c| c.min(at)));
            }
            FlightStage::LockAcquired => {
                l.votes_held_nanos = Some(l.votes_held_nanos.unwrap_or(0).max(at));
            }
            FlightStage::Decided => {
                l.journaled_nanos = Some(l.journaled_nanos.unwrap_or(0).max(at));
            }
            FlightStage::WalForced => {}
        }
    }
    out
}

/// Count, sum, max, p50 and p99 of `h`.
fn shape(h: &LatencyHistogram) -> (u64, u128, u64, u64, u64) {
    (h.count(), h.sum(), h.max(), h.p50(), h.p99())
}

/// Transaction `i`'s id: client-encoded as a service names it (client
/// `i % 3`'s `i / 3`-th, the ids a slot box holds) where bit `i % 64` of
/// `encoded` is set, else sparse — nothing may assume ids are dense.
fn txn_id(encoded: u64, i: usize) -> u64 {
    if encoded >> (i % 64) & 1 == 1 {
        SlotBox::txn_id(i % 3, i / 3)
    } else {
        (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Deterministic Fisher–Yates from `seed` (xorshift64).
fn shuffle<T>(v: &mut [T], mut seed: u64) {
    seed |= 1;
    for i in (1..v.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        v.swap(i, (seed % (i as u64 + 1)) as usize);
    }
}

/// One transaction's stamps: `k` nodes (1..=6), each stamping at least
/// one random point, then up to 24 more stamps on random nodes of its `k`
/// — duplicates and missing points alike.
fn txn_events() -> impl Strategy<Value = Vec<(u32, u8, u64)>> {
    (1u32..=6).prop_flat_map(|k| {
        (
            proptest::collection::vec((0u8..4, 0u64..5_000), 6),
            proptest::collection::vec((0..k, 0u8..4, 0u64..5_000), 0..24),
        )
            .prop_map(move |(firsts, more)| {
                let firsts = firsts.into_iter().zip(0..k).map(|((s, at), n)| (n, s, at));
                firsts.chain(more).collect()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_index_folds_exactly_like_the_nested_maps(
        txns in proptest::collection::vec(txn_events(), 0..24),
        // Per transaction: decided at the client?, submit, e2e in coarse
        // steps (ties between transactions are common; the client's stamp
        // falls before, among and after the nodes' decisions).
        client in proptest::collection::vec((0u8..4, 0u64..2_000, 0u64..8), 30),
        unstamped in 0usize..6,
        keep in 0usize..6,
        order in any::<u64>(),
        encoded in any::<u64>(),
    ) {
        let mut flight: Vec<FlightEvent> = txns
            .iter()
            .enumerate()
            .flat_map(|(i, evs)| {
                evs.iter().map(move |&(node, s, at)| FlightEvent {
                    txn: txn_id(encoded, i),
                    node,
                    stage: STAGES[s as usize],
                    at_nanos: at,
                })
            })
            .collect();
        // A third of the streams keep each transaction's stamps together
        // (the one-entry cache's case); the rest arrive in any order.
        if !order.is_multiple_of(3) {
            shuffle(&mut flight, order);
        }
        // Decided: three quarters of the stamped transactions, and
        // `unstamped` transactions no event names.
        let mut decided: Vec<(u64, u64, u64)> = (0..txns.len() + unstamped)
            .filter(|&i| i >= txns.len() || client[i].0 != 0)
            .map(|i| {
                let (_, submitted, steps) = client[i];
                (txn_id(encoded, i), submitted, submitted + steps * 700)
            })
            .collect();
        shuffle(&mut decided, order.rotate_left(17));

        let got = Attribution::compute(&decided, &flight, keep, 3);
        let want = reference(&decided, &flight, keep);
        prop_assert_eq!((got.covered, got.total), (want.covered, want.total));
        prop_assert_eq!(got.dropped_events, 3);
        prop_assert_eq!(&got.slowest, &want.slowest);
        prop_assert_eq!(shape(&got.e2e), shape(&want.e2e));
        for i in 0..5 {
            prop_assert_eq!(shape(&got.stages[i]), shape(&want.stages[i]), "stage {}", i);
        }

        let index = FlightIndex::new(&flight);
        let lifecycles = reference_lifecycles(&flight);
        for i in 0..txns.len() + unstamped {
            let id = txn_id(encoded, i);
            let want = lifecycles.get(&id).copied().unwrap_or_default();
            prop_assert_eq!(index.lifecycle(id), want, "txn {}", i);
        }
    }
}
