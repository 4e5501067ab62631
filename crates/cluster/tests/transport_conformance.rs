//! Transport-conformance battery (ISSUE-6 satellite): the same property
//! suite runs against BOTH ways an envelope reaches a node — the
//! in-process mailbox link ([`mailboxes`] posting to a [`Mailbox`] whose
//! drainer parks on its host's [`Bell`]) and the real-socket
//! [`TcpTransport`] into a [`TcpNode`] — so the fast path and the wire
//! path are held to one contract:
//!
//! * per-sender FIFO under concurrent producers,
//! * `send_batch` observationally equivalent to a sequence of `send`s,
//! * no loss and no duplication on a clean link — and when the peer drops
//!   every connection mid-stream, loss but still neither duplication nor
//!   reordering (a failed write is never sent again),
//! * delivery resumes after the peer drops every connection (the
//!   mailbox link treats the bounce as a no-op and must be unaffected),
//! * one `send_batch` is one inbox hand-off: its envelopes become visible
//!   to the receiving loop together and in order, and a stream cut
//!   mid-frame still delivers every whole frame ahead of the cut,
//! * a post to a parked host's mailbox — teardown's `Shutdown` among
//!   them — rings its bell and ends the park,
//! * the transport-layer meters tell the truth: a severed-then-healed
//!   link records exactly one reconnect, and the bytes/frames counters
//!   on both sides match the frame log.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ac_cluster::codec::{write_frame, AnyFrame};
use ac_cluster::transport::NodeHooks;
use ac_cluster::{mailboxes, Bell, Mailbox, TcpNode, TcpTransport, ToNode, Transport};
use ac_obs::NetMeters;
use crossbeam::channel::{unbounded, Receiver};
use proptest::prelude::*;

/// Test messages are plain `u64`s; an envelope is tagged with its
/// producer in `from` and its per-producer sequence number in `msg`.
type M = u64;

/// Where a node's envelopes land: a mailbox, drained the way its host
/// drains it, or the channel a [`TcpNode`] forwards into.
enum Inbox {
    Mailbox(Arc<Mailbox<ToNode<M>>>),
    Tcp(Receiver<ToNode<M>>),
}

impl Inbox {
    /// Wait until something is there or `until` passes (`None` = for
    /// ever), then take up to `max` into `buf`. Returns how many moved; 0
    /// means `until` passed.
    fn recv(&self, buf: &mut Vec<ToNode<M>>, max: usize, until: Option<Instant>) -> usize {
        match (self, until) {
            (Inbox::Mailbox(inbox), _) => inbox.recv(buf, max, until),
            // Timed out, or every sender gone: nothing moved.
            (Inbox::Tcp(rx), Some(end)) => rx.recv_batch_deadline(buf, max, end).unwrap_or(0),
            (Inbox::Tcp(rx), None) => rx.recv_batch(buf, max).expect("sender alive"),
        }
    }
}

/// One transport under test: a cluster of `n` inboxes, a factory for
/// fresh sender-side endpoints, and a link-bounce hook.
struct Rig {
    name: &'static str,
    rxs: Vec<Inbox>,
    make: Box<dyn Fn() -> Box<dyn Transport<M>> + Send + Sync>,
    bounce: Box<dyn Fn()>,
    // Keeps the TCP listeners (and their reader threads) alive; their
    // Drop tears everything down at the end of the test.
    _nodes: Arc<Vec<TcpNode>>,
}

/// `n` mailboxes, each drained by a host of its own.
fn mailbox_rig(n: usize) -> Rig {
    let bells: Vec<_> = (0..n).map(|_| Bell::new()).collect();
    let nodes = mailboxes(n, &bells);
    Rig {
        name: "mailbox",
        rxs: (0..n)
            .map(|p| Inbox::Mailbox(Arc::clone(&nodes[p])))
            .collect(),
        make: Box::new(move || Box::new(nodes.clone())),
        bounce: Box::new(|| {}),
        _nodes: Arc::new(Vec::new()),
    }
}

fn tcp_rig(n: usize) -> Rig {
    let mut rxs = Vec::new();
    let mut nodes = Vec::new();
    for _ in 0..n {
        let (tx, rx) = unbounded::<ToNode<M>>();
        let node = TcpNode::bind("127.0.0.1:0", tx, None).expect("bind loopback");
        rxs.push(Inbox::Tcp(rx));
        nodes.push(node);
    }
    let addrs: Vec<_> = nodes.iter().map(|t| t.addr()).collect();
    let nodes = Arc::new(nodes);
    let bounce_nodes = Arc::clone(&nodes);
    Rig {
        name: "tcp",
        rxs,
        make: Box::new(move || Box::new(TcpTransport::new(addrs.clone()))),
        bounce: Box::new(move || {
            for t in bounce_nodes.iter() {
                t.drop_connections();
            }
        }),
        _nodes: nodes,
    }
}

fn rigs(n: usize) -> Vec<Rig> {
    vec![mailbox_rig(n), tcp_rig(n)]
}

/// Drain inbox `rx` until `want` protocol envelopes arrived or the
/// deadline passes; returns the `(txn, from, msg)` transcript in
/// delivery order.
fn drain(rx: &Inbox, want: usize, deadline: Duration) -> Vec<(u64, usize, u64)> {
    let end = Instant::now() + deadline;
    let mut got = Vec::new();
    let mut buf = Vec::new();
    while got.len() < want {
        buf.clear();
        if rx.recv(&mut buf, 64, Some(end)) == 0 {
            break;
        }
        for env in buf.drain(..) {
            if let ToNode::Net { txn, from, msg } = env {
                got.push((txn, from, msg));
            }
        }
    }
    got
}

/// `counts[p]` envelopes from each of `counts.len()` concurrent
/// producers (each with its own endpoint), all to node 0, batched in
/// `chunk`-sized `send_batch` calls (`chunk == 1` uses plain `send`).
/// With `bounce_after`, node 0 drops every connection once that many
/// envelopes arrived; the transcript is then whatever still got through.
fn pump(
    rig: &Rig,
    counts: &[u32],
    chunk: u32,
    bounce_after: Option<usize>,
) -> Vec<(u64, usize, u64)> {
    let total: usize = counts.iter().map(|&c| c as usize).sum();
    let handles: Vec<_> = counts
        .iter()
        .enumerate()
        .map(|(p, &count)| {
            let mut t = (rig.make)();
            std::thread::spawn(move || {
                let mut seq = 0u32;
                while seq < count {
                    let hi = (seq + chunk.max(1)).min(count);
                    if chunk <= 1 {
                        t.send(0, net(p, seq));
                        seq += 1;
                    } else {
                        let mut batch: Vec<_> = (seq..hi).map(|s| net(p, s)).collect();
                        t.send_batch(0, &mut batch);
                        seq = hi;
                    }
                }
            })
        })
        .collect();
    let Some(bounce_after) = bounce_after else {
        let got = drain(&rig.rxs[0], total, Duration::from_secs(20));
        for h in handles {
            h.join().unwrap();
        }
        return got;
    };
    let mut got = drain(
        &rig.rxs[0],
        bounce_after.min(total),
        Duration::from_secs(20),
    );
    (rig.bounce)();
    for h in handles {
        h.join().unwrap();
    }
    // Every write has returned: what was not lost is in flight at most.
    got.extend(drain(
        &rig.rxs[0],
        total - got.len(),
        Duration::from_millis(200),
    ));
    got
}

fn net(p: usize, seq: u32) -> ToNode<M> {
    ToNode::Net {
        txn: p as u64 + 1,
        from: p,
        msg: seq as u64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent producers, arbitrary batching: every envelope arrives
    /// exactly once (no loss, no duplication on a clean link) and each
    /// producer's stream is delivered in FIFO order, on both transports.
    /// When the receiver drops every connection mid-pump, envelopes may be
    /// lost — never delivered twice, never out of order.
    #[test]
    fn per_sender_fifo_no_loss_no_dup_under_concurrent_producers(
        counts in proptest::collection::vec(0u32..60, 2..4),
        chunk in 1u32..9,
        bounce in 0usize..120,
    ) {
        // Half the cases bounce, after up to 59 arrivals.
        let bounce_after = (bounce < 60).then_some(bounce);
        for rig in rigs(1) {
            let got = pump(&rig, &counts, chunk, bounce_after);
            let clean = bounce_after.is_none() || rig.name == "mailbox";
            let total: usize = counts.iter().map(|&c| c as usize).sum();
            prop_assert!(got.len() <= total, "{}: duplicated envelopes", rig.name);
            prop_assert!(!clean || got.len() == total, "{}: lost envelopes", rig.name);
            for (p, &count) in counts.iter().enumerate() {
                let stream: Vec<u64> = got.iter().filter(|e| e.1 == p).map(|e| e.2).collect();
                let in_order = stream.windows(2).all(|w| w[0] < w[1]);
                prop_assert!(in_order, "{}: producer {} out of FIFO: {:?}", rig.name, p, stream);
                prop_assert!(stream.iter().all(|&s| s < count as u64));
            }
        }
    }

    /// One producer: `send_batch` in any chunking delivers the identical
    /// total order a sequence of plain `send`s delivers, on both
    /// transports.
    #[test]
    fn send_batch_equals_sequence_of_sends(
        count in 0u32..120,
        chunk in 2u32..17,
    ) {
        for rig in rigs(1) {
            let batched = pump(&rig, &[count], chunk, None);
            let plain = pump(&rig, &[count], 1, None);
            prop_assert_eq!(&batched, &plain, "{}: batching changed the transcript", rig.name);
        }
    }
}

/// Egress coalescing meets ingress batching: the `k` envelopes of one
/// `send_batch` are posted under one lock, or travel as one segment and
/// are handed to the inbox under one lock, so the receiving loop's first
/// take sees all `k`, in order — never a prefix (one wake-up per post or
/// read, not per envelope).
#[test]
fn one_send_batch_arrives_in_order_as_one_inbox_batch() {
    for rig in rigs(1) {
        let mut t = (rig.make)();
        let mut next = 0u32;
        // Round 0 also pays the TCP rig's first-contact dial.
        for k in [1u32, 2, 7, 32, 32, 5] {
            let mut batch: Vec<_> = (next..next + k).map(|s| net(0, s)).collect();
            t.send_batch(0, &mut batch);
            let mut got = Vec::new();
            rig.rxs[0].recv(&mut got, usize::MAX, None);
            let seqs: Vec<u64> = got
                .iter()
                .map(|env| match env {
                    ToNode::Net { msg, .. } => *msg,
                    other => panic!("{}: unexpected envelope {other:?}", rig.name),
                })
                .collect();
            let expect: Vec<u64> = (next..next + k).map(u64::from).collect();
            assert_eq!(
                seqs, expect,
                "{}: batch of {k} split or reordered",
                rig.name
            );
            next += k;
        }
    }
}

/// A stream cut mid-frame after `j` whole frames delivers exactly those
/// `j`: the reader hands over what it decoded before it sees the EOF.
#[test]
fn stream_cut_mid_frame_still_delivers_the_whole_frames_before_it() {
    use std::io::Write as _;
    let (tx, rx) = unbounded::<ToNode<M>>();
    let node = TcpNode::bind("127.0.0.1:0", tx, None).expect("bind loopback");
    let rx = Inbox::Tcp(rx);
    for j in [0u32, 1, 9] {
        let mut bytes = Vec::new();
        for s in 0..j {
            write_frame(&AnyFrame::Node(net(0, s)), &mut bytes);
        }
        let whole = bytes.len();
        write_frame(&AnyFrame::Node(net(0, j)), &mut bytes);
        bytes.truncate(whole + (bytes.len() - whole) / 2);
        let mut stream = std::net::TcpStream::connect(node.addr()).expect("connect");
        stream.write_all(&bytes).expect("write");
        drop(stream);
        let got = drain(&rx, j as usize + 1, Duration::from_millis(300));
        let expect: Vec<_> = (0..j as u64).map(|s| (1, 0, s)).collect();
        assert_eq!(got, expect, "cut after {j} whole frames");
    }
}

/// A host parked on its mailbox with nothing due — teardown's case: the
/// clients have exited and the nodes wait for their `Shutdown` — stays
/// parked until a post rings its bell, and the post ends the park at
/// once. Posts to a host that is not parked ring nothing and are taken
/// by its next look, in order.
#[test]
fn a_shutdown_reaches_a_parked_host_through_its_bell() {
    let rig = mailbox_rig(1);
    let Inbox::Mailbox(inbox) = &rig.rxs[0] else {
        unreachable!("a mailbox rig")
    };
    for round in 0..3 {
        let parked = {
            let inbox = Arc::clone(inbox);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                inbox.recv(&mut got, usize::MAX, None);
                (got, Instant::now())
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        let posted = Instant::now();
        (rig.make)().send(0, ToNode::Shutdown);
        let (got, woke) = parked.join().expect("the parked host");
        assert!(
            matches!(got[..], [ToNode::Shutdown]),
            "round {round}: {got:?}"
        );
        assert!(woke >= posted, "round {round}: woke before the post");
    }
    // Nobody parked: the posts wait, whole and in order, for the next look.
    let mut t = (rig.make)();
    t.send_batch(0, &mut (0..3).map(|s| net(0, s)).collect());
    t.send(0, ToNode::Shutdown);
    let mut got = Vec::new();
    assert_eq!(
        rig.rxs[0].recv(&mut got, usize::MAX, Some(Instant::now())),
        4
    );
    assert!(matches!(got[3], ToNode::Shutdown));
    assert_eq!(drain(&rig.rxs[0], 1, Duration::from_millis(20)), vec![]);
}

/// After the receiver drops every live connection mid-stream, a sender
/// endpoint must re-establish the link and later envelopes must arrive.
/// (In-flight envelopes may be lost — that is the crash fault model —
/// but the link must heal.) The mailbox rig's bounce is a no-op and the
/// same probe must trivially succeed.
#[test]
fn delivery_resumes_after_peer_reconnect() {
    for rig in rigs(1) {
        let mut t = (rig.make)();
        t.send(0, net(0, 0));
        let before = drain(&rig.rxs[0], 1, Duration::from_secs(10));
        assert_eq!(before.len(), 1, "{}: pre-bounce envelope lost", rig.name);

        (rig.bounce)();

        // Probe with fresh sequence numbers until one lands: the first
        // few writes may die on the severed connection before the
        // transport notices and redials.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut probe = 1u32;
        let mut after = Vec::new();
        while after.is_empty() {
            assert!(
                Instant::now() < deadline,
                "{}: no delivery within 20s of the bounce",
                rig.name
            );
            t.send(0, net(0, probe));
            probe += 1;
            after = drain(&rig.rxs[0], 1, Duration::from_millis(100));
        }
        // The healed link keeps its FIFO contract.
        let mut last = after.last().unwrap().2;
        let more = drain(&rig.rxs[0], usize::MAX, Duration::from_millis(200));
        for e in more {
            assert!(e.2 > last, "{}: post-bounce stream out of order", rig.name);
            last = e.2;
        }
    }
}

/// Every `Net` sequence number `stream` delivers until its end.
fn sequence_numbers(stream: &mut std::net::TcpStream) -> Vec<u64> {
    use std::io::Read as _;
    let mut dec = ac_cluster::FrameDecoder::new();
    let (mut chunk, mut seqs) = (vec![0u8; 64 * 1024], Vec::new());
    while let Ok(n @ 1..) = stream.read(&mut chunk) {
        dec.feed(&chunk[..n]);
        while let Ok(Some(frame)) = dec.next_frame::<M>() {
            if let AnyFrame::Node(ToNode::Net { msg, .. }) = frame {
                seqs.push(msg);
            }
        }
    }
    seqs
}

/// Delivery is at most once even when a write fails part way: the batch
/// here is larger than the socket buffers, so the kernel has taken its
/// head when the receiver cuts the connection, and what was taken may
/// have been delivered. The transport drops the rest — it cannot know
/// where the cut fell — and the next send redials and carries only itself.
#[test]
fn a_batch_whose_write_failed_part_way_is_never_sent_again() {
    use std::io::Read as _;
    const BATCH: u32 = 400_000;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let sender = std::thread::spawn(move || {
        let mut t = TcpTransport::new(vec![addr]);
        let mut batch: Vec<ToNode<M>> = (0..BATCH).map(|s| net(0, s)).collect();
        t.send_batch(0, &mut batch);
        t.send(0, net(0, BATCH));
    });
    let (mut cut, _) = listener.accept().expect("first contact");
    cut.read_exact(&mut [0u8; 4096])
        .expect("the head of the batch");
    drop(cut);
    let (mut redialed, _) = listener.accept().expect("the next send redials");
    // Read to the end of the stream: the sender hangs up when it is done.
    assert_eq!(sequence_numbers(&mut redialed), vec![u64::from(BATCH)]);
    sender.join().expect("sender");
}

/// A metered single-node TCP rig: ingress meters on the node's reader
/// threads.
fn metered_tcp_rig() -> (Inbox, TcpNode, Arc<NetMeters>) {
    let (tx, rx) = unbounded::<ToNode<M>>();
    let ingress = Arc::new(NetMeters::new(1));
    let hooks = NodeHooks {
        net: Some(Arc::clone(&ingress)),
        ..NodeHooks::default()
    };
    let node = TcpNode::bind("127.0.0.1:0", tx, Some(hooks)).expect("bind loopback");
    (Inbox::Tcp(rx), node, ingress)
}

/// A fresh egress-metered sender endpoint to `node`.
fn metered_sender(node: &TcpNode) -> (TcpTransport, Arc<NetMeters>) {
    let egress = Arc::new(NetMeters::new(1));
    let t = TcpTransport::new(vec![node.addr()]).with_net(Arc::clone(&egress));
    (t, egress)
}

/// The per-peer reconnect counter is exact: a link severed once and
/// healed once records exactly one reconnect (first contact is not a
/// reconnect), and a clean loopback dial never counts a dial failure.
#[test]
fn severed_then_healed_link_records_exactly_one_reconnect() {
    let (rx, node, _ingress) = metered_tcp_rig();
    let (mut t, egress) = metered_sender(&node);

    t.send(0, net(0, 0));
    assert_eq!(drain(&rx, 1, Duration::from_secs(10)).len(), 1);
    let before = egress.snapshot();
    assert_eq!(
        before.peers[0].reconnects, 0,
        "first contact counted as reconnect"
    );

    node.drop_connections();

    // Probe until delivery resumes: the first post-bounce writes may die
    // on the severed stream before the transport notices and redials.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut probe = 1u32;
    let mut after = Vec::new();
    while after.is_empty() {
        assert!(
            Instant::now() < deadline,
            "no delivery within 20s of the bounce"
        );
        t.send(0, net(0, probe));
        probe += 1;
        after = drain(&rx, 1, Duration::from_millis(100));
    }

    let s = egress.snapshot();
    assert_eq!(
        s.peers[0].reconnects, 1,
        "one sever + one heal must be one reconnect"
    );
    assert_eq!(
        s.peers[0].dial_failures, 0,
        "listener stayed up: no dial may fail"
    );

    // Steady traffic on the healed link adds no further reconnects.
    for seq in probe..probe + 8 {
        t.send(0, net(0, seq));
    }
    drain(&rx, 8, Duration::from_secs(10));
    assert_eq!(egress.snapshot().peers[0].reconnects, 1);
}

/// The bytes/frames counters on both sides match the frame log: egress
/// counts exactly the encoded frames handed to the OS, ingress counts
/// exactly the bytes and frames read back out, and on a clean link the
/// two agree with each other and with an independent re-encoding of the
/// transcript. The outbox high-water mark records the deepest batch.
#[test]
fn byte_and_frame_counters_match_the_frame_log_on_both_sides() {
    let (rx, node, ingress) = metered_tcp_rig();
    let (mut t, egress) = metered_sender(&node);

    // A known transcript: 5 plain sends and batches of 2, 3 and 7. The
    // `net` helper is deterministic in `seq`, so the frame log can be
    // re-encoded independently afterwards.
    let mut seq = 0u32;
    for _ in 0..5 {
        t.send(0, net(0, seq));
        seq += 1;
    }
    for size in [2u32, 3, 7] {
        let mut batch: Vec<ToNode<M>> = (seq..seq + size).map(|s| net(0, s)).collect();
        seq += size;
        t.send_batch(0, &mut batch);
    }
    let total = seq as usize;

    let got = drain(&rx, total, Duration::from_secs(20));
    assert_eq!(got.len(), total, "clean link lost envelopes");

    // The frame log, re-encoded independently of the transport.
    let mut expect = Vec::new();
    for s in 0..seq {
        write_frame(&AnyFrame::Node(net(0, s)), &mut expect);
    }

    let out = egress.snapshot();
    let inn = ingress.snapshot();
    assert_eq!(out.peers[0].frames_out, total as u64, "egress frame count");
    assert_eq!(
        out.peers[0].bytes_out,
        expect.len() as u64,
        "egress byte count"
    );
    assert_eq!(inn.frames_in, total as u64, "ingress frame count");
    assert_eq!(inn.bytes_in, expect.len() as u64, "ingress byte count");
    assert_eq!(
        out.peers[0].outbox_hiwater, 7,
        "deepest batch is the high-water mark"
    );
    assert_eq!(
        (inn.decode_errors, inn.resyncs),
        (0, 0),
        "clean link decoded cleanly"
    );
    assert_eq!(
        (out.peers[0].reconnects, out.peers[0].dial_failures),
        (0, 0)
    );
}
