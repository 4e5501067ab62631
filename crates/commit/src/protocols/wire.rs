//! [`Wire`] encodings for every protocol's message alphabet.
//!
//! One module implements the codec for all twelve `Msg` types so the tag
//! assignments live side by side; the format rules are in
//! [`ac_sim::wire`]. Each enum encodes as a leading tag byte followed by
//! the variant's fields; the tags are part of the wire contract and must
//! never be renumbered (append-only).

use ac_consensus::PaxosMsg;
use ac_sim::{Wire, WireError};

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

impl Wire for InbacMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            InbacMsg::V(v) => {
                buf.push(0);
                v.encode(buf);
            }
            InbacMsg::C(set) => {
                buf.push(1);
                set.encode(buf);
            }
            InbacMsg::Help => buf.push(2),
            InbacMsg::Helped(set) => {
                buf.push(3);
                set.encode(buf);
            }
            InbacMsg::Abort0 => buf.push(4),
            InbacMsg::Cons(m) => {
                buf.push(5);
                m.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(InbacMsg::V(bool::decode(buf)?)),
            1 => Ok(InbacMsg::C(Vec::decode(buf)?)),
            2 => Ok(InbacMsg::Help),
            3 => Ok(InbacMsg::Helped(Vec::decode(buf)?)),
            4 => Ok(InbacMsg::Abort0),
            5 => Ok(InbacMsg::Cons(PaxosMsg::decode(buf)?)),
            _ => Err(WireError::Invalid("InbacMsg tag")),
        }
    }
}

impl Wire for ANbacMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ANbacMsg::Chain(v) => {
                buf.push(0);
                v.encode(buf);
            }
            ANbacMsg::V0 => buf.push(1),
            ANbacMsg::B0 => buf.push(2),
            ANbacMsg::AckV => buf.push(3),
            ANbacMsg::AckB => buf.push(4),
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(ANbacMsg::Chain(bool::decode(buf)?)),
            1 => Ok(ANbacMsg::V0),
            2 => Ok(ANbacMsg::B0),
            3 => Ok(ANbacMsg::AckV),
            4 => Ok(ANbacMsg::AckB),
            _ => Err(WireError::Invalid("ANbacMsg tag")),
        }
    }
}

impl Wire for AvMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            AvMsg::V(v) => {
                buf.push(0);
                v.encode(buf);
            }
            AvMsg::B(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(AvMsg::V(bool::decode(buf)?)),
            1 => Ok(AvMsg::B(bool::decode(buf)?)),
            _ => Err(WireError::Invalid("AvMsg tag")),
        }
    }
}

impl Wire for ChainMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ChainMsg(bool::decode(buf)?))
    }
}

impl Wire for D1ccMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            D1ccMsg::V(v) => {
                buf.push(0);
                v.encode(buf);
            }
            D1ccMsg::D(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(D1ccMsg::V(bool::decode(buf)?)),
            1 => Ok(D1ccMsg::D(bool::decode(buf)?)),
            _ => Err(WireError::Invalid("D1ccMsg tag")),
        }
    }
}

impl Wire for Nbac0Msg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Nbac0Msg::V0 => buf.push(0),
            Nbac0Msg::B0 => buf.push(1),
            Nbac0Msg::Ack => buf.push(2),
            Nbac0Msg::Cons(m) => {
                buf.push(3);
                m.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(Nbac0Msg::V0),
            1 => Ok(Nbac0Msg::B0),
            2 => Ok(Nbac0Msg::Ack),
            3 => Ok(Nbac0Msg::Cons(PaxosMsg::decode(buf)?)),
            _ => Err(WireError::Invalid("Nbac0Msg tag")),
        }
    }
}

impl Wire for Nbac1Msg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Nbac1Msg::V(v) => {
                buf.push(0);
                v.encode(buf);
            }
            Nbac1Msg::D(v) => {
                buf.push(1);
                v.encode(buf);
            }
            Nbac1Msg::Cons(m) => {
                buf.push(2);
                m.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(Nbac1Msg::V(bool::decode(buf)?)),
            1 => Ok(Nbac1Msg::D(bool::decode(buf)?)),
            2 => Ok(Nbac1Msg::Cons(PaxosMsg::decode(buf)?)),
            _ => Err(WireError::Invalid("Nbac1Msg tag")),
        }
    }
}

impl Wire for B2n2Msg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            B2n2Msg::V(v) => {
                buf.push(0);
                v.encode(buf);
            }
            B2n2Msg::B(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(B2n2Msg::V(bool::decode(buf)?)),
            1 => Ok(B2n2Msg::B(bool::decode(buf)?)),
            _ => Err(WireError::Invalid("B2n2Msg tag")),
        }
    }
}

impl Wire for C2n2fMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            C2n2fMsg::V(v) => {
                buf.push(0);
                v.encode(buf);
            }
            C2n2fMsg::B(v) => {
                buf.push(1);
                v.encode(buf);
            }
            C2n2fMsg::Z(v) => {
                buf.push(2);
                v.encode(buf);
            }
            C2n2fMsg::Help => buf.push(3),
            C2n2fMsg::Helped(v) => {
                buf.push(4);
                v.encode(buf);
            }
            C2n2fMsg::Cons(m) => {
                buf.push(5);
                m.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(C2n2fMsg::V(bool::decode(buf)?)),
            1 => Ok(C2n2fMsg::B(bool::decode(buf)?)),
            2 => Ok(C2n2fMsg::Z(bool::decode(buf)?)),
            3 => Ok(C2n2fMsg::Help),
            4 => Ok(C2n2fMsg::Helped(bool::decode(buf)?)),
            5 => Ok(C2n2fMsg::Cons(PaxosMsg::decode(buf)?)),
            _ => Err(WireError::Invalid("C2n2fMsg tag")),
        }
    }
}

impl Wire for PcMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PcMsg::Vote2a { rm, vote } => {
                buf.push(0);
                rm.encode(buf);
                vote.encode(buf);
            }
            PcMsg::Bundle0 { vals } => {
                buf.push(1);
                vals.encode(buf);
            }
            PcMsg::Prepare { bal } => {
                buf.push(2);
                bal.encode(buf);
            }
            PcMsg::Promise { bal, accepted } => {
                buf.push(3);
                bal.encode(buf);
                accepted.encode(buf);
            }
            PcMsg::Accept { bal, vals } => {
                buf.push(4);
                bal.encode(buf);
                vals.encode(buf);
            }
            PcMsg::Accepted { bal } => {
                buf.push(5);
                bal.encode(buf);
            }
            PcMsg::Outcome { commit } => {
                buf.push(6);
                commit.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(PcMsg::Vote2a {
                rm: usize::decode(buf)?,
                vote: bool::decode(buf)?,
            }),
            1 => Ok(PcMsg::Bundle0 {
                vals: Wire::decode(buf)?,
            }),
            2 => Ok(PcMsg::Prepare {
                bal: u64::decode(buf)?,
            }),
            3 => Ok(PcMsg::Promise {
                bal: u64::decode(buf)?,
                accepted: Vec::decode(buf)?,
            }),
            4 => Ok(PcMsg::Accept {
                bal: u64::decode(buf)?,
                vals: Vec::decode(buf)?,
            }),
            5 => Ok(PcMsg::Accepted {
                bal: u64::decode(buf)?,
            }),
            6 => Ok(PcMsg::Outcome {
                commit: bool::decode(buf)?,
            }),
            _ => Err(WireError::Invalid("PcMsg tag")),
        }
    }
}

impl Wire for ThreePcMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ThreePcMsg::V(v) => {
                buf.push(0);
                v.encode(buf);
            }
            ThreePcMsg::PreCommit => buf.push(1),
            ThreePcMsg::AckPc => buf.push(2),
            ThreePcMsg::DoCommit => buf.push(3),
            ThreePcMsg::DoAbort => buf.push(4),
            ThreePcMsg::States(mask) => {
                buf.push(5);
                mask.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(ThreePcMsg::V(bool::decode(buf)?)),
            1 => Ok(ThreePcMsg::PreCommit),
            2 => Ok(ThreePcMsg::AckPc),
            3 => Ok(ThreePcMsg::DoCommit),
            4 => Ok(ThreePcMsg::DoAbort),
            5 => Ok(ThreePcMsg::States(u8::decode(buf)?)),
            _ => Err(WireError::Invalid("ThreePcMsg tag")),
        }
    }
}

impl Wire for TwoPcMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TwoPcMsg::V(v) => {
                buf.push(0);
                v.encode(buf);
            }
            TwoPcMsg::D(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(TwoPcMsg::V(bool::decode(buf)?)),
            1 => Ok(TwoPcMsg::D(bool::decode(buf)?)),
            _ => Err(WireError::Invalid("TwoPcMsg tag")),
        }
    }
}
