//! Wire-codec property battery (ISSUE-6 satellite).
//!
//! Coverage map — every one of the 15 [`ProtocolKind`]s resolves to one
//! of the twelve message alphabets (plus the embedded [`PaxosMsg`]):
//!
//! | kinds | alphabet |
//! |---|---|
//! | INBAC, INBAC+fast-abort, INBAC/unbundled | `InbacMsg` |
//! | 1NBAC | `Nbac1Msg` |
//! | D1CC | `D1ccMsg` |
//! | 0NBAC | `Nbac0Msg` |
//! | aNBAC | `ANbacMsg` |
//! | avNBAC(delay), avNBAC(msg) | `AvMsg` |
//! | (n-1+f)NBAC | `ChainMsg` |
//! | (2n-2)NBAC | `B2n2Msg` |
//! | (2n-2+f)NBAC | `C2n2fMsg` |
//! | 2PC | `TwoPcMsg` |
//! | 3PC | `ThreePcMsg` |
//! | PaxosCommit, FasterPaxosCommit | `PcMsg` |
//!
//! Properties: every message and every control envelope round-trips
//! byte-exactly (the types mostly lack `PartialEq`, so equality is
//! checked on re-encoded bytes); the frame decoder yields the same
//! frames whether fed one byte at a time or all frames concatenated;
//! truncated tails park cleanly; arbitrary garbage never panics — the
//! decoder either resynchronizes via the length prefix or poisons the
//! stream and stays poisoned.

use std::sync::Arc;

use ac_cluster::{AnyFrame, Done, FrameDecoder, ToNode};
use ac_commit::protocols::anbac::ANbacMsg;
use ac_commit::protocols::avnbac::AvMsg;
use ac_commit::protocols::chain_nbac::ChainMsg;
use ac_commit::protocols::d1cc::D1ccMsg;
use ac_commit::protocols::inbac::InbacMsg;
use ac_commit::protocols::nbac0::Nbac0Msg;
use ac_commit::protocols::nbac1::Nbac1Msg;
use ac_commit::protocols::nbac_2n2::B2n2Msg;
use ac_commit::protocols::nbac_2n2f::C2n2fMsg;
use ac_commit::protocols::paxos_commit::PcMsg;
use ac_commit::protocols::three_pc::ThreePcMsg;
use ac_commit::protocols::two_pc::TwoPcMsg;
use ac_consensus::PaxosMsg;
use ac_sim::Wire;
use ac_txn::{Key, Transaction, WriteOp};
use proptest::prelude::*;

/// SplitMix64 — a tiny deterministic generator so each proptest case's
/// `seed` fans out into arbitrarily many field values.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }
    fn votes(&mut self) -> Vec<(usize, bool)> {
        (0..self.below(6))
            .map(|_| (self.below(64) as usize, self.flag()))
            .collect()
    }
}

fn paxos(r: &mut Rng) -> PaxosMsg {
    match r.below(5) {
        0 => PaxosMsg::Prepare { bal: r.next() },
        1 => PaxosMsg::Promise {
            bal: r.next(),
            accepted: if r.flag() {
                Some((r.next(), r.next()))
            } else {
                None
            },
        },
        2 => PaxosMsg::Accept {
            bal: r.next(),
            val: r.next(),
        },
        3 => PaxosMsg::Accepted {
            bal: r.next(),
            val: r.next(),
        },
        _ => PaxosMsg::Decide { val: r.next() },
    }
}

fn inbac(r: &mut Rng) -> InbacMsg {
    match r.below(6) {
        0 => InbacMsg::V(r.flag()),
        1 => InbacMsg::C(r.votes()),
        2 => InbacMsg::Help,
        3 => InbacMsg::Helped(r.votes()),
        4 => InbacMsg::Abort0,
        _ => InbacMsg::Cons(paxos(r)),
    }
}

fn anbac(r: &mut Rng) -> ANbacMsg {
    match r.below(5) {
        0 => ANbacMsg::Chain(r.flag()),
        1 => ANbacMsg::V0,
        2 => ANbacMsg::B0,
        3 => ANbacMsg::AckV,
        _ => ANbacMsg::AckB,
    }
}

fn avmsg(r: &mut Rng) -> AvMsg {
    if r.flag() {
        AvMsg::V(r.flag())
    } else {
        AvMsg::B(r.flag())
    }
}

fn nbac0(r: &mut Rng) -> Nbac0Msg {
    match r.below(4) {
        0 => Nbac0Msg::V0,
        1 => Nbac0Msg::B0,
        2 => Nbac0Msg::Ack,
        _ => Nbac0Msg::Cons(paxos(r)),
    }
}

fn nbac1(r: &mut Rng) -> Nbac1Msg {
    match r.below(3) {
        0 => Nbac1Msg::V(r.flag()),
        1 => Nbac1Msg::D(r.flag()),
        _ => Nbac1Msg::Cons(paxos(r)),
    }
}

fn d1cc(r: &mut Rng) -> D1ccMsg {
    if r.flag() {
        D1ccMsg::V(r.flag())
    } else {
        D1ccMsg::D(r.flag())
    }
}

fn b2n2(r: &mut Rng) -> B2n2Msg {
    if r.flag() {
        B2n2Msg::V(r.flag())
    } else {
        B2n2Msg::B(r.flag())
    }
}

fn c2n2f(r: &mut Rng) -> C2n2fMsg {
    match r.below(6) {
        0 => C2n2fMsg::V(r.flag()),
        1 => C2n2fMsg::B(r.flag()),
        2 => C2n2fMsg::Z(r.flag()),
        3 => C2n2fMsg::Help,
        4 => C2n2fMsg::Helped(r.flag()),
        _ => C2n2fMsg::Cons(paxos(r)),
    }
}

fn pcmsg(r: &mut Rng) -> PcMsg {
    match r.below(7) {
        0 => PcMsg::Vote2a {
            rm: r.below(64) as usize,
            vote: r.flag(),
        },
        1 => PcMsg::Bundle0 {
            vals: r.votes().into_iter().collect(),
        },
        2 => PcMsg::Prepare { bal: r.next() },
        3 => PcMsg::Promise {
            bal: r.next(),
            accepted: (0..r.below(5))
                .map(|_| (r.below(64) as usize, r.next(), r.flag()))
                .collect(),
        },
        4 => PcMsg::Accept {
            bal: r.next(),
            vals: r.votes(),
        },
        5 => PcMsg::Accepted { bal: r.next() },
        _ => PcMsg::Outcome { commit: r.flag() },
    }
}

fn three_pc(r: &mut Rng) -> ThreePcMsg {
    match r.below(6) {
        0 => ThreePcMsg::V(r.flag()),
        1 => ThreePcMsg::PreCommit,
        2 => ThreePcMsg::AckPc,
        3 => ThreePcMsg::DoCommit,
        4 => ThreePcMsg::DoAbort,
        _ => ThreePcMsg::States(r.next() as u8),
    }
}

fn two_pc(r: &mut Rng) -> TwoPcMsg {
    if r.flag() {
        TwoPcMsg::V(r.flag())
    } else {
        TwoPcMsg::D(r.flag())
    }
}

fn txn(r: &mut Rng) -> Transaction {
    let mut t = Transaction::new(r.next());
    for _ in 0..r.below(5) {
        let key = Key::new(r.below(8) as usize, r.below(64));
        t.reads.insert(key, r.next());
    }
    for _ in 0..r.below(5) {
        let key = Key::new(r.below(8) as usize, r.below(64));
        let op = if r.flag() {
            WriteOp::Put(r.next() as i64)
        } else {
            WriteOp::Add(r.next() as i64)
        };
        t.writes.insert(key, op);
    }
    t
}

/// A random control envelope carrying `msg` when the variant has a
/// protocol payload.
fn envelope<M>(r: &mut Rng, msg: M) -> ToNode<M> {
    match r.below(6) {
        0 => ToNode::Begin {
            txn: Arc::new(txn(r)),
            client: r.below(32) as usize,
            retry: r.flag(),
        },
        1 => ToNode::Net {
            txn: r.next(),
            from: r.below(64) as usize,
            msg,
        },
        2 => ToNode::StatusQ {
            txn: r.next(),
            from: r.below(64) as usize,
        },
        3 => ToNode::StatusA {
            txn: r.next(),
            value: r.next(),
        },
        4 => ToNode::End { txn: r.next() },
        _ => ToNode::Shutdown,
    }
}

/// Byte-exact round trip: decode must invert encode, and re-encoding the
/// decoded value must reproduce the original bytes (the types mostly
/// lack `PartialEq`).
fn roundtrip<T: Wire>(v: &T) -> Result<(), String> {
    let bytes = v.to_wire();
    let back = T::from_wire(&bytes);
    prop_assert!(back.is_ok(), "decode failed on valid bytes");
    prop_assert_eq!(back.unwrap().to_wire(), bytes, "re-encode diverged");
    Ok(())
}

/// `frames` → bytes → decoder (fed in `step`-byte slices) → frames →
/// bytes; both byte streams must be identical and nothing may be left
/// pending.
fn frames_roundtrip<M: Wire>(frames: &[AnyFrame<M>], step: usize) -> Result<(), String> {
    let mut bytes = Vec::new();
    for f in frames {
        ac_cluster::codec::write_frame(f, &mut bytes);
    }
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    for chunk in bytes.chunks(step.max(1)) {
        dec.feed(chunk);
        loop {
            match dec.next_frame::<M>() {
                Ok(Some(f)) => {
                    ac_cluster::codec::write_frame(&f, &mut out);
                }
                Ok(None) => break,
                Err(e) => prop_assert!(false, "decode error on valid stream: {e}"),
            }
        }
    }
    prop_assert_eq!(out, bytes, "frame stream did not round-trip");
    prop_assert_eq!(dec.pending(), 0, "bytes left pending after full feed");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every protocol alphabet round-trips byte-exactly — this is the
    /// codec contract the TCP transport rides on for all 15 kinds.
    #[test]
    fn every_protocol_message_round_trips(seed in any::<u64>()) {
        let r = &mut Rng(seed);
        for _ in 0..8 {
            roundtrip(&paxos(r))?;
            roundtrip(&inbac(r))?;
            roundtrip(&anbac(r))?;
            roundtrip(&avmsg(r))?;
            roundtrip(&ChainMsg(r.flag()))?;
            roundtrip(&nbac0(r))?;
            roundtrip(&nbac1(r))?;
            roundtrip(&d1cc(r))?;
            roundtrip(&b2n2(r))?;
            roundtrip(&c2n2f(r))?;
            roundtrip(&pcmsg(r))?;
            roundtrip(&three_pc(r))?;
            roundtrip(&two_pc(r))?;
            roundtrip(&txn(r))?;
        }
    }

    /// Every control envelope (Begin with a full transaction body, Net,
    /// StatusQ/StatusA, End, Shutdown) plus the client-side Done frame and
    /// both introductions (a client's Hello, a node's Peer) survive framing — whether the decoder is fed byte by byte
    /// or everything concatenated at once.
    #[test]
    fn control_frames_round_trip_under_any_fragmentation(
        seed in any::<u64>(),
        step in 1usize..48,
    ) {
        let r = &mut Rng(seed);
        let mut frames: Vec<AnyFrame<InbacMsg>> = Vec::new();
        for _ in 0..6 {
            frames.push(match r.below(4) {
                0 => {
                    let msg = inbac(r);
                    AnyFrame::Node(envelope(r, msg))
                }
                1 => AnyFrame::Done(Done {
                    txn: r.next(),
                    node: r.below(64) as usize,
                    decision: r.next(),
                }),
                2 => AnyFrame::Hello { client: r.below(64) as usize },
                // Any id frames; which ids a link accepts is the link's call.
                _ => AnyFrame::Peer { node: r.next() as usize },
            });
        }
        frames_roundtrip(&frames, step)?;      // fragmented
        frames_roundtrip(&frames, 1)?;         // one byte at a time
        frames_roundtrip(&frames, usize::MAX)?; // all at once
    }

    /// The D1CC alphabet through the full framing battery (ISSUE-7
    /// satellite): its envelopes survive arbitrary fragmentation, a
    /// truncated final frame parks cleanly and completes when the tail
    /// arrives, and garbage decoded *as* `D1ccMsg` errors without
    /// panicking (its two one-byte-tag variants make almost all random
    /// payloads invalid).
    #[test]
    fn d1cc_frames_survive_fragmentation_and_truncation(
        seed in any::<u64>(),
        step in 1usize..48,
    ) {
        let r = &mut Rng(seed);
        let mut frames: Vec<AnyFrame<D1ccMsg>> = Vec::new();
        for _ in 0..6 {
            let msg = d1cc(r);
            frames.push(AnyFrame::Node(envelope(r, msg)));
        }
        frames_roundtrip(&frames, step)?;
        frames_roundtrip(&frames, 1)?;

        // Truncation parks, completion resumes.
        let mut bytes = Vec::new();
        ac_cluster::codec::write_frame(&frames[0], &mut bytes);
        let complete_len = bytes.len();
        ac_cluster::codec::write_frame(
            &AnyFrame::Node(ToNode::Net { txn: r.next(), from: 2, msg: d1cc(r) }),
            &mut bytes,
        );
        let cut = complete_len + (r.below((bytes.len() - complete_len) as u64) as usize);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes[..cut]);
        prop_assert!(matches!(dec.next_frame::<D1ccMsg>(), Ok(Some(_))), "complete frame lost");
        prop_assert!(matches!(dec.next_frame::<D1ccMsg>(), Ok(None)), "truncated frame must park");
        dec.feed(&bytes[cut..]);
        prop_assert!(matches!(dec.next_frame::<D1ccMsg>(), Ok(Some(_))), "parked frame never completed");
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Garbage fed to a decoder read as the D1CC alphabet never panics —
    /// resynchronize or poison, nothing else.
    #[test]
    fn d1cc_garbage_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
        step in 1usize..64,
    ) {
        let mut dec = FrameDecoder::new();
        for chunk in garbage.chunks(step) {
            dec.feed(chunk);
            for _ in 0..garbage.len() + 4 {
                match dec.next_frame::<D1ccMsg>() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        if dec.is_poisoned() {
                            break;
                        }
                    }
                }
            }
        }
    }

    /// A truncated final frame parks cleanly: all complete frames come
    /// out, the tail stays pending, no error, no panic.
    #[test]
    fn truncated_tail_parks_cleanly(seed in any::<u64>()) {
        let r = &mut Rng(seed);
        let mut bytes = Vec::new();
        let msg = two_pc(r);
        let whole: ToNode<TwoPcMsg> = envelope(r, msg);
        ac_cluster::codec::write_frame(&AnyFrame::Node(whole), &mut bytes);
        let complete_len = bytes.len();
        let tail: ToNode<TwoPcMsg> = ToNode::Net { txn: r.next(), from: 3, msg: two_pc(r) };
        ac_cluster::codec::write_frame(&AnyFrame::Node(tail), &mut bytes);
        let cut = complete_len + (r.below((bytes.len() - complete_len) as u64) as usize);

        let mut dec = FrameDecoder::new();
        dec.feed(&bytes[..cut]);
        prop_assert!(matches!(dec.next_frame::<TwoPcMsg>(), Ok(Some(_))), "complete frame lost");
        prop_assert!(matches!(dec.next_frame::<TwoPcMsg>(), Ok(None)), "truncated frame must park");
        prop_assert_eq!(dec.pending(), cut - complete_len);
        // Feeding the rest completes the parked frame.
        dec.feed(&bytes[cut..]);
        prop_assert!(matches!(dec.next_frame::<TwoPcMsg>(), Ok(Some(_))), "parked frame never completed");
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Arbitrary garbage never panics the decoder: it either
    /// resynchronizes via the length prefix (bounded errors, then
    /// silence) or poisons the stream and stays poisoned.
    #[test]
    fn random_garbage_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
        step in 1usize..64,
    ) {
        let mut dec = FrameDecoder::new();
        for chunk in garbage.chunks(step) {
            dec.feed(chunk);
            for _ in 0..garbage.len() + 4 {
                match dec.next_frame::<TwoPcMsg>() {
                    Ok(Some(_)) => {} // garbage can spell a valid frame; fine
                    Ok(None) => break,
                    Err(_) => {
                        if dec.is_poisoned() {
                            break;
                        }
                    }
                }
            }
        }
        if dec.is_poisoned() {
            // Poisoning is sticky: even a pristine frame is refused.
            let mut good = Vec::new();
            let f: AnyFrame<TwoPcMsg> = AnyFrame::Hello { client: 1 };
            ac_cluster::codec::write_frame(&f, &mut good);
            dec.feed(&good);
            prop_assert!(dec.next_frame::<TwoPcMsg>().is_err(), "poisoned decoder resumed");
        }
    }
}
