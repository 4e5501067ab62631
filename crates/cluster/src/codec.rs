//! Length-prefixed framing for service envelopes crossing a socket.
//!
//! ## Frame format
//!
//! ```text
//! ┌────────────┬──────────────────────────────┐
//! │ len: u32 LE│ body (len bytes)             │
//! └────────────┴──────────────────────────────┘
//! body = tag: u8, then the variant's fields in ac_sim::wire encoding:
//!   0  Begin    txn: Transaction, client: u64, retry: bool
//!   1  Net      txn: u64, from: u64, msg: M
//!   2  StatusQ  txn: u64, from: u64
//!   3  StatusA  txn: u64, value: u64
//!   4  End      txn: u64
//!   5  Shutdown (no fields)
//!   6  Done     txn: u64, node: u64, decision: u64
//!   7  Hello    client: u64
//!   8  ObsPull  client: u64
//!   9  EchoReq  seq: u32, t0_nanos: u64
//!  10  EchoResp seq: u32, t0_nanos: u64, node: u32, node_nanos: u64
//!  11  ObsDump  node: u32, export: ObsExport
//!  12  Peer     node: u64
//! ```
//!
//! One tag space covers both directions: tags 0–5 and 8 are the node
//! inbox alphabet ([`crate::service::ToNode`], including the
//! WAL-recovery `StatusQ`/`StatusA` traffic and the observability
//! collector's `ObsPull`), tag 6 is the node→client decision report and
//! tags 7 and 12 are what the dialing end says first on a connection — a
//! client its id (`Hello`), a node its own (`Peer`) — so the accepting
//! node can answer that client, or write to that peer, down the same
//! connection. Tags 9–11 are the cross-process tracing frames: a
//! collector's clock-echo round trip (answered at the node's socket
//! read point in `drain`, ahead of the dispatch of the batch the read
//! belongs to, so the echo waits behind at most one loop turn and not
//! the backlog) and the node's observability export
//! answering an `ObsPull`. A receiver ignores frames that make no sense
//! for its role.
//!
//! ## Decoding partial reads
//!
//! [`FrameDecoder`] accumulates arbitrary byte chunks (1-byte feeds,
//! frames split across reads, several frames per read) and yields
//! complete frames. It never panics on garbage: an implausible length
//! prefix (> [`MAX_FRAME`]) poisons the stream (the frame boundary is
//! unknowable, so the connection must be dropped), while a well-framed
//! but malformed body is reported as an error and the decoder
//! **resynchronizes at the next length prefix** — the length field is
//! what makes resync possible.

use std::sync::Arc;

use ac_obs::ObsExport;
use ac_sim::{Wire, WireError};
use ac_txn::Transaction;

use crate::service::{Done, ToNode};

/// Sanity cap on one frame's body length. No envelope in the suite comes
/// near this; a longer prefix is treated as stream corruption.
pub const MAX_FRAME: usize = 1 << 24;

/// Anything that can arrive on a service socket: a node-inbox envelope,
/// a decision report, the dialing end's introduction, or the
/// cross-process tracing traffic (clock echoes and observability dumps).
#[derive(Debug)]
pub enum AnyFrame<M> {
    /// A node-inbox envelope (tags 0–5, 8).
    Node(ToNode<M>),
    /// A node→client decision report (tag 6).
    Done(Done),
    /// A client announcing its id on a fresh connection (tag 7).
    Hello {
        /// The client id.
        client: usize,
    },
    /// A node announcing its id on a connection it dialed to another node
    /// (tag 12): the pair's one connection, written from both ends.
    Peer {
        /// The dialing node.
        node: usize,
    },
    /// A collector's clock-echo probe (tag 9), answered inline at the
    /// receiving node's socket read point.
    EchoReq {
        /// Collector-chosen sequence number, echoed back verbatim.
        seq: u32,
        /// Collector clock at send, nanoseconds past its epoch (echoed
        /// back verbatim so the collector needs no request table).
        t0_nanos: u64,
    },
    /// The node's echo answer (tag 10).
    EchoResp {
        /// The probe's sequence number.
        seq: u32,
        /// The probe's send stamp, echoed.
        t0_nanos: u64,
        /// The answering node.
        node: u32,
        /// Node clock at answer, nanoseconds past *its* epoch — the
        /// `t_node` of the NTP-style offset estimate.
        node_nanos: u64,
    },
    /// A node's observability export answering an `ObsPull` (tag 11).
    ObsDump {
        /// The exporting node.
        node: u32,
        /// The export payload — boxed: it is cold and several times the
        /// size of anything else here, and a frame is moved by value from
        /// the decoder to the inbox, so every frame would pay for it.
        export: Box<ObsExport>,
    },
}

/// Append the frame (length prefix + body) to `out`.
pub fn write_frame<M: Wire>(frame: &AnyFrame<M>, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]); // length, patched below
    match frame {
        AnyFrame::Node(env) => match env {
            ToNode::Begin { txn, client, retry } => {
                out.push(0);
                txn.encode(out);
                client.encode(out);
                retry.encode(out);
            }
            ToNode::Net { txn, from, msg } => {
                out.push(1);
                txn.encode(out);
                from.encode(out);
                msg.encode(out);
            }
            ToNode::StatusQ { txn, from } => {
                out.push(2);
                txn.encode(out);
                from.encode(out);
            }
            ToNode::StatusA { txn, value } => {
                out.push(3);
                txn.encode(out);
                value.encode(out);
            }
            ToNode::End { txn } => {
                out.push(4);
                txn.encode(out);
            }
            ToNode::Shutdown => out.push(5),
            ToNode::ObsPull { client } => {
                out.push(8);
                client.encode(out);
            }
        },
        AnyFrame::Done(d) => {
            out.push(6);
            d.txn.encode(out);
            d.node.encode(out);
            d.decision.encode(out);
        }
        AnyFrame::Hello { client } => {
            out.push(7);
            client.encode(out);
        }
        AnyFrame::Peer { node } => {
            out.push(12);
            node.encode(out);
        }
        AnyFrame::EchoReq { seq, t0_nanos } => {
            out.push(9);
            seq.encode(out);
            t0_nanos.encode(out);
        }
        AnyFrame::EchoResp {
            seq,
            t0_nanos,
            node,
            node_nanos,
        } => {
            out.push(10);
            seq.encode(out);
            t0_nanos.encode(out);
            node.encode(out);
            node_nanos.encode(out);
        }
        AnyFrame::ObsDump { node, export } => {
            out.push(11);
            node.encode(out);
            export.encode(out);
        }
    }
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decode one frame body (everything after the length prefix).
///
/// Forced inline, with [`FrameDecoder::next_frame`]: the frame is returned
/// by value through both, and each out-of-line layer copies it once more
/// per frame. Boxing `ObsDump`'s payload took `AnyFrame<PcMsg>` from 152 to
/// 56 bytes and the cost of a lost inline from 27 ns to 7 ns per frame
/// (26 → 33 ns decoding PaxosCommit's envelopes without the attributes),
/// which is still a quarter of the decode.
#[inline(always)]
pub fn decode_body<M: Wire>(mut body: &[u8]) -> Result<AnyFrame<M>, WireError> {
    let buf = &mut body;
    let frame = match u8::decode(buf)? {
        0 => AnyFrame::Node(ToNode::Begin {
            txn: Arc::new(Transaction::decode(buf)?),
            client: usize::decode(buf)?,
            retry: bool::decode(buf)?,
        }),
        1 => AnyFrame::Node(ToNode::Net {
            txn: u64::decode(buf)?,
            from: usize::decode(buf)?,
            msg: M::decode(buf)?,
        }),
        2 => AnyFrame::Node(ToNode::StatusQ {
            txn: u64::decode(buf)?,
            from: usize::decode(buf)?,
        }),
        3 => AnyFrame::Node(ToNode::StatusA {
            txn: u64::decode(buf)?,
            value: u64::decode(buf)?,
        }),
        4 => AnyFrame::Node(ToNode::End {
            txn: u64::decode(buf)?,
        }),
        5 => AnyFrame::Node(ToNode::Shutdown),
        6 => AnyFrame::Done(Done {
            txn: u64::decode(buf)?,
            node: usize::decode(buf)?,
            decision: u64::decode(buf)?,
        }),
        7 => AnyFrame::Hello {
            client: usize::decode(buf)?,
        },
        8 => AnyFrame::Node(ToNode::ObsPull {
            client: usize::decode(buf)?,
        }),
        9 => AnyFrame::EchoReq {
            seq: u32::decode(buf)?,
            t0_nanos: u64::decode(buf)?,
        },
        10 => AnyFrame::EchoResp {
            seq: u32::decode(buf)?,
            t0_nanos: u64::decode(buf)?,
            node: u32::decode(buf)?,
            node_nanos: u64::decode(buf)?,
        },
        11 => AnyFrame::ObsDump {
            node: u32::decode(buf)?,
            export: Box::new(ObsExport::decode(buf)?),
        },
        12 => AnyFrame::Peer {
            node: usize::decode(buf)?,
        },
        _ => return Err(WireError::Invalid("frame tag")),
    };
    if !buf.is_empty() {
        return Err(WireError::Invalid("trailing bytes in frame body"));
    }
    Ok(frame)
}

/// Incremental frame decoder over an arbitrary chunking of the byte
/// stream (see the module docs for the error model).
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    pos: usize,
    /// Set when a length prefix was implausible: the frame boundary is
    /// lost, so every subsequent call errors until the stream is dropped.
    poisoned: bool,
}

impl FrameDecoder {
    /// A decoder with no buffered bytes.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Feed a chunk of received bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        // Compact before growing, so a long-lived connection's buffer
        // stays proportional to one frame, not to total traffic.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Try to extract the next complete frame. `Ok(None)` means more
    /// bytes are needed; `Err` either reports a malformed body (the
    /// decoder has already skipped it and can continue) or a poisoned
    /// stream (every further call errors).
    ///
    /// Forced inline for the reason given at [`decode_body`].
    #[inline(always)]
    pub fn next_frame<M: Wire>(&mut self) -> Result<Option<AnyFrame<M>>, WireError> {
        if self.poisoned {
            return Err(WireError::Invalid("frame stream poisoned"));
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            self.poisoned = true;
            return Err(WireError::Invalid("frame length over sanity cap"));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = &avail[4..4 + len];
        let result = decode_body::<M>(body);
        // Consume the frame whether or not the body parsed: the length
        // prefix fixes the boundary, so a bad body costs one frame, not
        // the connection.
        self.pos += 4 + len;
        result.map(Some)
    }

    /// Bytes buffered but not yet consumed (diagnostics/tests).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream is poisoned (frame boundary lost; the
    /// connection should be dropped).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(env: ToNode<u64>) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&AnyFrame::Node(env), &mut out);
        out
    }

    #[test]
    fn one_byte_feeds_reassemble_the_frame() {
        let bytes = frame(ToNode::Net {
            txn: 7,
            from: 2,
            msg: 99,
        });
        let mut dec = FrameDecoder::new();
        for (i, b) in bytes.iter().enumerate() {
            dec.feed(&[*b]);
            let got = dec.next_frame::<u64>().unwrap();
            if i + 1 < bytes.len() {
                assert!(got.is_none(), "frame complete too early at byte {i}");
            } else {
                match got {
                    Some(AnyFrame::Node(ToNode::Net { txn, from, msg })) => {
                        assert_eq!((txn, from, msg), (7, 2, 99));
                    }
                    other => panic!("wrong frame: {other:?}"),
                }
            }
        }
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn concatenated_frames_all_come_out() {
        let mut bytes = frame(ToNode::End { txn: 1 });
        bytes.extend(frame(ToNode::End { txn: 2 }));
        bytes.extend(frame(ToNode::Shutdown));
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        for want in [1u64, 2] {
            match dec.next_frame::<u64>().unwrap() {
                Some(AnyFrame::Node(ToNode::End { txn })) => assert_eq!(txn, want),
                other => panic!("wrong frame: {other:?}"),
            }
        }
        assert!(matches!(
            dec.next_frame::<u64>().unwrap(),
            Some(AnyFrame::Node(ToNode::Shutdown))
        ));
        assert!(dec.next_frame::<u64>().unwrap().is_none());
    }

    #[test]
    fn bad_body_is_skipped_and_the_stream_resynchronizes() {
        let mut bytes = vec![1, 0, 0, 0, 0xFF]; // len 1, unknown tag
        bytes.extend(frame(ToNode::End { txn: 3 }));
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(dec.next_frame::<u64>().is_err());
        assert!(matches!(
            dec.next_frame::<u64>().unwrap(),
            Some(AnyFrame::Node(ToNode::End { txn: 3 }))
        ));
    }

    #[test]
    fn implausible_length_poisons_the_stream() {
        let mut dec = FrameDecoder::new();
        dec.feed(&u32::MAX.to_le_bytes());
        assert!(dec.next_frame::<u64>().is_err());
        assert!(dec.next_frame::<u64>().is_err(), "stays poisoned");
    }

    #[test]
    fn introductions_round_trip_with_the_tags_the_table_gives_them() {
        let mut bytes = Vec::new();
        write_frame::<u64>(&AnyFrame::Hello { client: 5 }, &mut bytes);
        write_frame::<u64>(&AnyFrame::Peer { node: 3 }, &mut bytes);
        assert_eq!((bytes[4], bytes[bytes.len() / 2 + 4]), (7, 12));
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let hello = dec.next_frame::<u64>().unwrap();
        assert!(matches!(hello, Some(AnyFrame::Hello { client: 5 })));
        let peer = dec.next_frame::<u64>().unwrap();
        assert!(matches!(peer, Some(AnyFrame::Peer { node: 3 })));
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn tracing_frames_round_trip() {
        let mut bytes = frame(ToNode::ObsPull { client: 3 });
        let mut echo_req = Vec::new();
        write_frame::<u64>(
            &AnyFrame::EchoReq {
                seq: 7,
                t0_nanos: 1_234,
            },
            &mut echo_req,
        );
        bytes.extend(echo_req);
        let mut echo_resp = Vec::new();
        write_frame::<u64>(
            &AnyFrame::EchoResp {
                seq: 7,
                t0_nanos: 1_234,
                node: 2,
                node_nanos: 999,
            },
            &mut echo_resp,
        );
        bytes.extend(echo_resp);
        let mut dump = Vec::new();
        write_frame::<u64>(
            &AnyFrame::ObsDump {
                node: 2,
                export: Box::new(ac_obs::ObsExport::snapshot(
                    2,
                    &ac_obs::NodeObs::new(),
                    None,
                )),
            },
            &mut dump,
        );
        bytes.extend(dump);

        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(matches!(
            dec.next_frame::<u64>().unwrap(),
            Some(AnyFrame::Node(ToNode::ObsPull { client: 3 }))
        ));
        assert!(matches!(
            dec.next_frame::<u64>().unwrap(),
            Some(AnyFrame::EchoReq {
                seq: 7,
                t0_nanos: 1_234
            })
        ));
        assert!(matches!(
            dec.next_frame::<u64>().unwrap(),
            Some(AnyFrame::EchoResp {
                seq: 7,
                t0_nanos: 1_234,
                node: 2,
                node_nanos: 999
            })
        ));
        match dec.next_frame::<u64>().unwrap() {
            Some(AnyFrame::ObsDump { node: 2, export }) => {
                assert_eq!(export.node, 2);
                assert_eq!(export.meters.len(), ac_obs::Stage::COUNT);
            }
            other => panic!("wrong frame: {other:?}"),
        }
        assert_eq!(dec.pending(), 0);
    }
}
