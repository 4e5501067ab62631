//! Multi-process cluster drivers: the code behind the `ac-node` and
//! `ac-client` binaries.
//!
//! A real cluster is `n` `ac-node` processes plus one `ac-client`
//! process, all reading the same [`ClusterSpec`] file. Every hop is TCP:
//!
//! * node→node protocol traffic uses [`TcpTransport`] exactly as the
//!   in-process TCP mode does;
//! * client→node control traffic (`Begin`/`End`, final `Shutdown`) uses
//!   a [`TcpTransport`] whose post-connect hook first sends a `Hello`
//!   frame naming the client and spawns a reader for the reverse
//!   direction;
//! * node→client `Done` reports travel back down the client's own
//!   connection: the node's socket read point records the write half
//!   under the `Hello`'d client id, and a per-client forwarder thread
//!   frames the `Done`s the node loop emits.
//!
//! The node and client loops themselves are the same `node::Node` and
//! `client::client_main` the in-process service runs — processes differ
//! from threads only below the transport seam. The node thread reads its
//! own sockets (`transport::SocketIngress` behind `NodeEnv::rx`): an
//! `ac-node` process runs the node thread, one `Done` forwarder per
//! client and the `ObsDump` forwarder — no accept or reader thread.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ac_commit::problem::COMMIT;
use ac_commit::CommitProtocol;
use ac_obs::{
    ClockAlignment, ClockSample, ClusterDump, DumpTxn, NetMeters, NodeObs, ObsExport, ObsMeters,
    RunStats,
};
use ac_sim::Wire;
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::client::client_main;
use crate::codec::{write_frame, AnyFrame, FrameDecoder};
use crate::node::{Node, NodeEnv};
use crate::service::{with_protocol, Done, ToNode};
use crate::spec::ClusterSpec;
use crate::transport::{
    decode_chunk, ClientRegistry, EchoResponder, Inbox, NodeHooks, OnConnect, ReadOutcome,
    SocketIngress, TcpTransport, Transport, READ_CHUNK,
};

/// Echo round trips per node for the clock-offset estimate (min-RTT
/// selection wants several candidates; 16 keeps the collection phase
/// under a millisecond per node on loopback).
const ECHO_ROUNDS: u32 = 16;

/// Upper bound on `Done` reports a forwarder frames into one socket write.
const DONE_BATCH: usize = 256;

/// The client id the run-end collector `Hello`s with: one past the real
/// clients, so its connection gets a registry slot (for `ObsDump`
/// routing) but no `Done` forwarder traffic.
fn collector_id(spec: &ClusterSpec) -> usize {
    spec.clients
}

/// What a node process reports when it exits (printed as the audit line
/// the multi-process smoke test parses).
#[derive(Clone, Debug)]
pub struct NodeSummary {
    /// This node's id.
    pub me: usize,
    /// Final sum of the shard's values (a transfer workload must keep
    /// the sum *across nodes* at zero).
    pub total: i64,
    /// Write locks still held at exit (must be 0).
    pub locked: usize,
    /// Decisions this node applied and logged.
    pub decided: usize,
    /// Early envelopes dropped by the bounded pre-open buffer (must be 0).
    pub orphaned: usize,
}

impl NodeSummary {
    /// The parseable audit line.
    pub fn render(&self) -> String {
        format!(
            "node {} audit total={} locked={} decided={} orphaned={}",
            self.me, self.total, self.locked, self.decided, self.orphaned
        )
    }
}

/// What the client process reports when it exits.
#[derive(Clone, Debug)]
pub struct ClientSummary {
    /// Transactions fully served (all participant decisions arrived).
    pub txns: usize,
    /// Committed transactions.
    pub committed: usize,
    /// Aborted transactions.
    pub aborted: usize,
    /// Transactions abandoned at their deadline (must be 0).
    pub stalled: usize,
    /// `Begin` re-sends across all clients.
    pub retries: usize,
    /// Transactions whose participants reported different decisions
    /// (must be 0 — atomic commitment).
    pub split: usize,
}

impl ClientSummary {
    /// The parseable audit line.
    pub fn render(&self) -> String {
        format!(
            "client audit txns={} committed={} aborted={} stalled={} retries={} split={}",
            self.txns, self.committed, self.aborted, self.stalled, self.retries, self.split
        )
    }
}

/// Run node `me` of the spec'd cluster until a `Shutdown` frame arrives.
/// `meters`, when given, is the shared stage-meter registry the node
/// thread records into, and `net` the shared transport counters — the
/// `ac-node --metrics` endpoint reads both live. Pass `None` to let the
/// node keep private ones (they still ride along in its `ObsDump`
/// export).
pub fn run_node(
    spec: &ClusterSpec,
    me: usize,
    meters: Option<Arc<ObsMeters>>,
    net: Option<Arc<NetMeters>>,
) -> NodeSummary {
    assert!(
        me < spec.n(),
        "node id {me} out of range (n = {})",
        spec.n()
    );
    with_protocol!(spec.kind, P => run_node_p::<P>(spec, me, meters, net))
}

fn run_node_p<P>(
    spec: &ClusterSpec,
    me: usize,
    meters: Option<Arc<ObsMeters>>,
    net: Option<Arc<NetMeters>>,
) -> NodeSummary
where
    P: CommitProtocol + Send + 'static,
    P::Msg: Wire + Send + 'static,
{
    // The process epoch: every flight-event and echo stamp this process
    // produces counts from here — established *before* the listener so
    // an echo can never observe a pre-epoch instant.
    let epoch = Instant::now();
    let net = net.unwrap_or_else(|| Arc::new(NetMeters::new(spec.n())));
    let registry: ClientRegistry = Arc::new(Mutex::new(HashMap::new()));
    let hooks = NodeHooks {
        clients: Some(Arc::clone(&registry)),
        net: Some(Arc::clone(&net)),
        echo: Some(EchoResponder {
            node: me as u32,
            epoch,
        }),
    };
    let ingress = SocketIngress::bind(spec.nodes[me], hooks)
        .unwrap_or_else(|e| panic!("node {me}: cannot bind {}: {e}", spec.nodes[me]));

    // One Done-forwarder per client: drains the node loop's reply channel
    // and frames each report down the client's registered connection.
    let mut done_txs: Vec<Sender<Done>> = Vec::new();
    let mut forwarders = Vec::new();
    for c in 0..spec.clients {
        let (dtx, drx) = unbounded::<Done>();
        done_txs.push(dtx);
        let reg = Arc::clone(&registry);
        forwarders.push(std::thread::spawn(move || done_forwarder(c, drx, reg)));
    }
    // The ObsPull answer path: node loop snapshots → this forwarder
    // stamps in the live transport counters and frames the `ObsDump`
    // down the requesting collector's registered connection.
    let (obs_tx, obs_rx) = unbounded::<(usize, ObsExport)>();
    let obs_fwd = {
        let reg = Arc::clone(&registry);
        let net = Arc::clone(&net);
        std::thread::spawn(move || obs_forwarder(obs_rx, reg, net))
    };

    let env = NodeEnv::<P> {
        me,
        n: spec.n(),
        f: spec.f,
        unit: spec.unit,
        epoch,
        rx: Inbox::Socket(ingress),
        transport: Box::new(TcpTransport::new(spec.nodes.clone()).with_net(Arc::clone(&net))),
        done_txs,
        wire: Arc::new(AtomicUsize::new(0)),
        policy: None,
        window: None,
        wal: None,
        wal_flush_interval: None,
        logless: spec.kind.logless(),
        obs: match meters {
            Some(m) => NodeObs::with_meters(m),
            None => NodeObs::new(),
        },
        obs_pull: Some(obs_tx),
    };
    let ret = Node::new(env).run();
    // The node dropped its Done and ObsPull senders on return; the
    // forwarders drain what is left and exit.
    for h in forwarders {
        let _ = h.join();
    }
    let _ = obs_fwd.join();
    NodeSummary {
        me,
        total: ret.shard.total(),
        locked: ret.shard.locked(),
        decided: ret.log.len(),
        orphaned: ret.counts.orphaned_envelopes,
    }
}

/// Client `client`'s registered connection. The `Hello` that registers it
/// travels the same stream as the traffic that made a node answer, so the
/// entry normally exists already; wait briefly in case the frames raced.
fn registered_stream(reg: &ClientRegistry, client: usize) -> Option<TcpStream> {
    for _attempt in 0..250 {
        let stream = reg
            .lock()
            .expect("registry poisoned")
            .get(&client)
            .and_then(|s| s.try_clone().ok());
        if stream.is_some() {
            return stream;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

/// Frame `ObsDump` answers down the requesting collector's registered
/// connection, stamping the live transport counters into each export on
/// the way (the node loop snapshots only its own thread-local state).
fn obs_forwarder(rx: Receiver<(usize, ObsExport)>, reg: ClientRegistry, net: Arc<NetMeters>) {
    let mut buf = Vec::new();
    while let Ok((client, mut export)) = rx.recv() {
        export.net = net.snapshot();
        if let Some(mut s) = registered_stream(&reg, client) {
            buf.clear();
            write_frame::<()>(
                &AnyFrame::ObsDump {
                    node: export.node,
                    export: Box::new(export),
                },
                &mut buf,
            );
            let _ = s.write_all(&buf);
        }
    }
}

/// Frame `Done` reports down client `client`'s registered connection:
/// everything the node loop queued since the last write goes out as one
/// segment, down a stream looked up once and kept until a write fails (a
/// reconnecting client re-registers; the next report looks it up afresh).
/// A client that never registers (or whose connection broke) costs the
/// reports, not the node — exactly a lossy link in the fault model.
fn done_forwarder(client: usize, rx: Receiver<Done>, reg: ClientRegistry) {
    let mut backlog: Vec<Done> = Vec::new();
    let mut buf = Vec::new();
    let mut stream: Option<TcpStream> = None;
    while rx.recv_batch(&mut backlog, DONE_BATCH).is_ok() {
        if stream.is_none() {
            stream = registered_stream(&reg, client);
        }
        let Some(s) = &mut stream else { continue };
        buf.clear();
        for d in &backlog {
            write_frame::<()>(&AnyFrame::Done(*d), &mut buf);
        }
        if s.write_all(&buf).is_ok() {
            backlog.clear();
        } else {
            stream = None;
        }
    }
}

/// One client connection's read loop: forward the `Done`s (nodes send a
/// client nothing else), one reply-channel hand-off per socket read —
/// one lock and at most one wake-up of the client loop per read, not per
/// frame. What a read decoded is handed over before the socket is looked
/// at again, so `Done`s that arrived whole ahead of an EOF or a poisoned
/// stream still reach the client.
fn done_reader<M: Wire>(mut stream: TcpStream, out: Sender<Done>) {
    let mut dec = FrameDecoder::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut batch: Vec<Done> = Vec::new();
    loop {
        let n = match ReadOutcome::of(stream.read(&mut chunk)) {
            ReadOutcome::Data(n) => n,
            ReadOutcome::Retry => continue,
            ReadOutcome::Closed => return,
        };
        let open = decode_chunk::<M>(&mut dec, &chunk[..n], None, |frame| {
            if let AnyFrame::Done(d) = frame {
                batch.push(d);
            }
            ControlFlow::Continue(())
        });
        // Receiver gone: drop the connection.
        let delivered = batch.is_empty() || out.send_batch(batch.drain(..)).is_ok();
        if !(open && delivered) {
            return;
        }
    }
}

/// Everything the run-end collector gathered from the live cluster:
/// per-process exports, the clock alignment estimated for each node, and
/// the client-side transaction record the attribution anchors on.
#[derive(Clone, Debug)]
pub struct ClusterObs {
    /// Every transaction the clients saw fully decided.
    pub txns: Vec<DumpTxn>,
    /// One clock alignment per node the collector could reach.
    pub alignments: Vec<ClockAlignment>,
    /// One export per node the collector could reach.
    pub exports: Vec<ObsExport>,
    /// Run-wide throughput counters.
    pub stats: RunStats,
}

impl ClusterObs {
    /// Package the collection as a portable dump file body.
    pub fn into_dump(self, spec: &ClusterSpec) -> ClusterDump {
        ClusterDump {
            protocol: spec.kind.name().to_string(),
            n: spec.n() as u32,
            f: spec.f as u32,
            unit_micros: u64::try_from(spec.unit.as_micros()).unwrap_or(u64::MAX),
            txns: self.txns,
            alignments: self.alignments,
            exports: self.exports,
            stats: self.stats,
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Run the spec'd client workload end-to-end, collect every node's
/// observability export (with clock alignment), then shut the nodes
/// down.
pub fn run_client(spec: &ClusterSpec) -> (ClientSummary, ClusterObs) {
    with_protocol!(spec.kind, P => run_client_p::<P>(spec))
}

fn run_client_p<P>(spec: &ClusterSpec) -> (ClientSummary, ClusterObs)
where
    P: CommitProtocol + Send + 'static,
    P::Msg: Wire + Send + 'static,
{
    let cfg = spec.service_config();
    let epoch = Instant::now();
    let handles: Vec<_> = (0..spec.clients)
        .map(|c| {
            let (dtx, drx) = unbounded::<Done>();
            // On every (re)connect to a node: say hello so Done frames
            // can route back, then read them off the same stream.
            let hook: OnConnect = Arc::new(move |_to, stream: &TcpStream| {
                let mut hello = Vec::new();
                write_frame::<()>(&AnyFrame::Hello { client: c }, &mut hello);
                if let Ok(mut w) = stream.try_clone() {
                    let _ = w.write_all(&hello);
                }
                if let Ok(r) = stream.try_clone() {
                    let dtx = dtx.clone();
                    std::thread::spawn(move || done_reader::<P::Msg>(r, dtx));
                }
            });
            let transport = TcpTransport::new(spec.nodes.clone()).on_connect(hook);
            let cfg = cfg.clone();
            std::thread::spawn(move || client_main::<P>(c, &cfg, epoch, Box::new(transport), drx))
        })
        .collect();

    let mut summary = ClientSummary {
        txns: 0,
        committed: 0,
        aborted: 0,
        stalled: 0,
        retries: 0,
        split: 0,
    };
    let mut txns: Vec<DumpTxn> = Vec::new();
    let mut offered = 0u64;
    let mut shed = 0u64;
    for h in handles {
        let ret = h.join().expect("client thread panicked");
        summary.stalled += ret.stalled;
        summary.retries += ret.retries;
        offered += ret.offered as u64;
        shed += ret.shed as u64;
        for e in &ret.events {
            if let (Some(decided), Some(committed)) = (e.decided_at, e.committed) {
                txns.push(DumpTxn {
                    id: e.id,
                    submitted_nanos: nanos(e.submitted_at),
                    decided_nanos: nanos(decided),
                    committed,
                });
            }
        }
        for rec in &ret.records {
            if rec.decisions.iter().any(|d| d.is_none()) {
                continue; // counted in `stalled`
            }
            let mut vals: Vec<u64> = rec.decisions.iter().flatten().copied().collect();
            vals.sort_unstable();
            vals.dedup();
            if vals.len() != 1 {
                summary.split += 1;
                continue;
            }
            summary.txns += 1;
            if vals[0] == COMMIT {
                summary.committed += 1;
            } else {
                summary.aborted += 1;
            }
        }
    }

    // Collect before teardown: align each node's clock with echo round
    // trips, then pull its export. A node that cannot be reached (or
    // wedged past the read timeout) degrades coverage rather than
    // hanging the run.
    let cid = collector_id(spec);
    let mut alignments = Vec::new();
    let mut exports = Vec::new();
    for p in 0..spec.n() {
        if let Some((align, export)) = collect_node(spec.nodes[p], p as u32, cid, epoch) {
            alignments.push(align);
            exports.push(export);
        }
    }
    let stats = RunStats {
        offered,
        shed,
        committed: summary.committed as u64,
        aborted: summary.aborted as u64,
        stalled: summary.stalled as u64,
        elapsed_nanos: nanos(epoch.elapsed()),
    };

    // The run is over: tear the nodes down over the wire.
    let mut shut = TcpTransport::new(spec.nodes.clone());
    for p in 0..spec.n() {
        Transport::<P::Msg>::send(&mut shut, p, ToNode::Shutdown);
    }
    (
        summary,
        ClusterObs {
            txns,
            alignments,
            exports,
            stats,
        },
    )
}

/// One node's collection pass: connect, `Hello` as the collector,
/// [`ECHO_ROUNDS`] echo round trips for the clock-offset estimate, then
/// an `ObsPull` answered by an `ObsDump` on the same stream. All frames
/// here are `M = ()` — the control-plane tags carry no protocol payload.
fn collect_node(
    addr: std::net::SocketAddr,
    node: u32,
    cid: usize,
    epoch: Instant,
) -> Option<(ClockAlignment, ObsExport)> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).ok()?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    let mut w = stream.try_clone().ok()?;
    let mut r = stream;
    let mut buf = Vec::new();
    write_frame::<()>(&AnyFrame::Hello { client: cid }, &mut buf);
    w.write_all(&buf).ok()?;

    let mut dec = FrameDecoder::new();
    let mut chunk = vec![0u8; 64 * 1024];
    // Pull the next frame off the stream, skipping anything unexpected
    // (e.g. a straggling echo answer after a lost round).
    let mut next = |want_dump: bool, want_seq: u32| -> Option<AnyFrame<()>> {
        loop {
            match dec.next_frame::<()>() {
                Ok(Some(f)) => match &f {
                    AnyFrame::EchoResp { seq, .. } if !want_dump && *seq == want_seq => {
                        return Some(f)
                    }
                    AnyFrame::ObsDump { .. } if want_dump => return Some(f),
                    _ => {}
                },
                Ok(None) => {
                    let n = r.read(&mut chunk).ok()?;
                    if n == 0 {
                        return None;
                    }
                    dec.feed(&chunk[..n]);
                }
                Err(_) => {
                    if dec.is_poisoned() {
                        return None;
                    }
                }
            }
        }
    };

    let mut samples = Vec::new();
    for seq in 0..ECHO_ROUNDS {
        let t0_nanos = nanos(epoch.elapsed());
        buf.clear();
        write_frame::<()>(&AnyFrame::EchoReq { seq, t0_nanos }, &mut buf);
        w.write_all(&buf).ok()?;
        let Some(AnyFrame::EchoResp {
            t0_nanos,
            node_nanos,
            ..
        }) = next(false, seq)
        else {
            return None;
        };
        samples.push(ClockSample {
            t0_nanos,
            node_nanos,
            t1_nanos: nanos(epoch.elapsed()),
        });
    }
    let align = ClockAlignment::estimate(node, &samples)?;

    buf.clear();
    write_frame::<()>(&AnyFrame::Node(ToNode::ObsPull { client: cid }), &mut buf);
    w.write_all(&buf).ok()?;
    let Some(AnyFrame::ObsDump { export, .. }) = next(true, 0) else {
        return None;
    };
    Some((align, *export))
}
