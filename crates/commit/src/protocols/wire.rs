//! [`Wire`](ac_sim::Wire) layouts of every protocol's message alphabet.
//!
//! One module declares all twelve `Msg` layouts, one [`wire_enum!`] or
//! [`wire_struct!`] table each, so the tag assignments live side by side
//! and each table yields both the encoder and the decoder; the format
//! rules are in [`ac_sim::wire`]. Each enum encodes as a leading tag byte
//! followed by the variant's fields in the listed order; the tags are
//! part of the wire contract and must never be renumbered (append-only).

use ac_sim::{wire_enum, wire_struct};

use super::anbac::ANbacMsg;
use super::avnbac::AvMsg;
use super::chain_nbac::ChainMsg;
use super::d1cc::D1ccMsg;
use super::inbac::InbacMsg;
use super::nbac0::Nbac0Msg;
use super::nbac1::Nbac1Msg;
use super::nbac_2n2::B2n2Msg;
use super::nbac_2n2f::C2n2fMsg;
use super::paxos_commit::PcMsg;
use super::three_pc::ThreePcMsg;
use super::two_pc::TwoPcMsg;

wire_enum!(InbacMsg {
    0 => V(vote),
    1 => C(votes),
    2 => Help,
    3 => Helped(votes),
    4 => Abort0,
    5 => Cons(m),
});

wire_enum!(ANbacMsg { 0 => Chain(v), 1 => V0, 2 => B0, 3 => AckV, 4 => AckB });

wire_enum!(AvMsg { 0 => V(v), 1 => B(v) });

wire_struct!(ChainMsg(v));

wire_enum!(D1ccMsg { 0 => V(v), 1 => D(v) });

wire_enum!(Nbac0Msg { 0 => V0, 1 => B0, 2 => Ack, 3 => Cons(m) });

wire_enum!(Nbac1Msg { 0 => V(v), 1 => D(v), 2 => Cons(m) });

wire_enum!(B2n2Msg { 0 => V(v), 1 => B(v) });

wire_enum!(C2n2fMsg {
    0 => V(v),
    1 => B(v),
    2 => Z(v),
    3 => Help,
    4 => Helped(v),
    5 => Cons(m),
});

wire_enum!(PcMsg {
    0 => Vote2a { rm, vote },
    1 => Bundle0 { vals },
    2 => Prepare { bal },
    3 => Promise { bal, accepted },
    4 => Accept { bal, vals },
    5 => Accepted { bal },
    6 => Outcome { commit },
});

wire_enum!(ThreePcMsg {
    0 => V(v),
    1 => PreCommit,
    2 => AckPc,
    3 => DoCommit,
    4 => DoAbort,
    5 => States(mask),
});

wire_enum!(TwoPcMsg { 0 => V(v), 1 => D(v) });
