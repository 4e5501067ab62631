//! Multi-process cluster drivers: the code behind the `ac-node` and
//! `ac-client` binaries.
//!
//! A real cluster is `n` `ac-node` processes plus one `ac-client`
//! process, all reading the same [`ClusterSpec`] file. Every hop is TCP:
//!
//! * node→node protocol traffic travels exactly as in the in-process TCP
//!   mode: one connection per pair of nodes, dialed at start-up by the
//!   lower id (which says `Peer`), read and written by both ends;
//! * client→node control traffic (`Begin`/`End`) goes down connections
//!   each client dials, saying `Hello` with its id first;
//! * node→client `Done` reports take the road the request took: the
//!   node's `flush` step writes them down the connection the client said
//!   `Hello` on, and the client reads them off the connections it dialed;
//!   the final `Shutdown` rides a write-only [`TcpTransport`].
//!
//! * the start barrier (one echo per node before the load) and the
//!   run-end collector (echo rounds for the clock alignment, then each
//!   node's export) are control exchanges (`transport::Control`): the
//!   same `Sockets` that carry the load dial, write and read them, so
//!   this module names no stream, decoder or frame writer.
//!
//! Both processes serve with the one loop the in-process service runs,
//! `host::host`, over the same `node::Node` and `client::Client` —
//! processes differ from threads only below the transport seam, and every
//! hop, replies included, costs one wake-up of the thread that acts on
//! it. A serving `ac-node` is **one thread**, the one-member host (the
//! node reads its own sockets and writes its own replies; `--metrics`
//! adds the endpoint's); `ac-client` is **one thread** too, its main
//! thread hosting every client, one readiness wait over all their
//! connections.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ac_commit::CommitProtocol;
use ac_obs::{
    ClockAlignment, ClockSample, ClusterDump, NetMeters, NodeObs, ObsExport, ObsMeters, RunStats,
};
use ac_sim::Wire;

use crate::client::{nanos, Client, ClientFold};
use crate::codec::AnyFrame;
use crate::host::host;
use crate::node::{Clock, Node, NodeEnv, Replies};
use crate::service::ToNode;
use crate::spec::ClusterSpec;
use crate::transport::{
    ClientLink, Control, EchoResponder, Link, NodeHooks, SocketLink, TcpTransport, Transport,
    INITIAL_ATTEMPTS,
};

/// Echo round trips per node for the clock-offset estimate (min-RTT
/// selection wants several candidates; 16 keeps the collection phase
/// under a millisecond per node on loopback).
const ECHO_ROUNDS: u32 = 16;

/// How long the start barrier and the collector wait for one answer. A
/// node that wedges fails the answer it owes at this bound, rather than
/// hanging the run.
const ANSWER_PATIENCE: Duration = Duration::from_secs(10);

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
#[derive(Clone, Debug, Default)]
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
    ac_commit::with_protocol!(spec.service.kind, P => run_node_p::<P>(spec, me, meters, net))
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
    // produces counts from here (the node's clock and the echo responder
    // share it, or the clock alignment would not hold) — established
    // *before* the listener so an echo can never observe a pre-epoch
    // instant.
    let epoch = Instant::now();
    let net = net.unwrap_or_else(|| Arc::new(NetMeters::new(spec.n())));
    let hooks = NodeHooks {
        net: Some(Arc::clone(&net)),
        echo: Some(EchoResponder {
            node: me as u32,
            epoch,
        }),
    };
    let mut link = SocketLink::bind(spec.nodes[me], hooks)
        .unwrap_or_else(|e| panic!("node {me}: cannot bind {}: {e}", spec.nodes[me]));
    link.mesh(me, spec.nodes.clone());

    let cfg = &spec.service;
    let env = NodeEnv::<P> {
        me,
        n: spec.n(),
        f: cfg.f,
        unit: cfg.unit,
        clock: Clock::monotonic(epoch),
        link: Link::Sockets(link),
        replies: Replies::Connection {
            clients: cfg.clients,
            net,
        },
        faults: None,
        crash: None,
        wal: None,
        logless: cfg.kind.logless(),
        obs: meters.map_or_else(NodeObs::new, NodeObs::with_meters),
    };
    let ret = host(None, vec![Node::new(env)], Vec::new(), drop)
        .nodes
        .pop();
    let ret = ret.expect("one member");
    NodeSummary {
        me,
        total: ret.shard.total(),
        locked: ret.shard.locked(),
        decided: ret.log.len(),
        orphaned: ret.counts.orphaned_envelopes,
    }
}

/// Run the spec'd client workload end-to-end, collect every node's
/// observability export (with clock alignment), then shut the nodes
/// down. The dump holds what the collector gathered: one export and one
/// clock alignment per node it could reach, and the client-side record of
/// every fully decided transaction, which the attribution anchors on.
pub fn run_client(spec: &ClusterSpec) -> (ClientSummary, ClusterDump) {
    ac_commit::with_protocol!(spec.service.kind, P => run_client_p::<P>(spec))
}

fn run_client_p<P>(spec: &ClusterSpec) -> (ClientSummary, ClusterDump)
where
    P: CommitProtocol + Send + 'static,
    P::Msg: Wire + Send + 'static,
{
    let cfg = &spec.service;
    // The load starts once the cluster is up: one echo round trip per
    // node, with first-contact patience, before the epoch is stamped or a
    // `Begin` can leave. A node answers an echo in its `drain` step, so
    // the answer proves its loop runs, not just that its port is bound. A
    // node that never answers is left to the run's own bounded waits.
    for &addr in &spec.nodes {
        let _ = Control::dial(addr, INITIAL_ATTEMPTS, None)
            .and_then(|mut control| echo(&mut control, 0, Instant::now()));
    }
    // Every client runs on this thread: one host, one wait over all their
    // connections. A client dials a node on its first write there, with
    // first-contact patience, and that dial holds every client on the
    // thread. The barrier above is why that is enough: a node that
    // answered its echo accepts at the first attempt. A node that never
    // answered costs each client's first dial there its full patience,
    // one client after another.
    let epoch = Instant::now();
    let clients = (0..cfg.clients)
        .map(|c| Client::new(c, cfg, epoch, ClientLink::dialing(c, spec.nodes.clone())))
        .collect();
    let mut fold = ClientFold::new(cfg.clients * cfg.txns_per_client);
    host::<P>(None, Vec::new(), clients, |ret| fold.add(&ret, |_, _| {}));
    // The load phase ends here, as the in-process service's does: what
    // follows is collection, not serving.
    let stats = RunStats {
        elapsed_nanos: nanos(epoch.elapsed()),
        ..fold.stats
    };

    // Collect before teardown: align each node's clock with echo round
    // trips, then pull its export. A node that cannot be reached (or
    // wedged past the read timeout) degrades coverage rather than
    // hanging the run. The collector says `Hello` one past the real
    // clients, so its `ObsDump` finds its connection and no `Done` does.
    let cid = cfg.clients;
    let mut alignments = Vec::new();
    let mut exports = Vec::new();
    for p in 0..spec.n() {
        if let Some((align, export)) = collect_node(spec.nodes[p], p as u32, cid, epoch) {
            alignments.push(align);
            exports.push(export);
        }
    }

    // The run is over: tear the nodes down over the wire.
    let mut shut = TcpTransport::new(spec.nodes.clone());
    for p in 0..spec.n() {
        Transport::<P::Msg>::send(&mut shut, p, ToNode::Shutdown);
    }
    let summary = ClientSummary {
        txns: (stats.committed + stats.aborted) as usize,
        committed: stats.committed as usize,
        aborted: stats.aborted as usize,
        stalled: stats.stalled as usize,
        retries: fold.retries,
        split: fold.split,
    };
    let dump = ClusterDump {
        protocol: cfg.kind.name().to_string(),
        n: spec.n() as u32,
        f: cfg.f as u32,
        unit_micros: u64::try_from(cfg.unit.as_micros()).unwrap_or(u64::MAX),
        txns: fold.decided,
        alignments,
        exports,
        stats,
    };
    (summary, dump)
}

/// One echo round trip over `control`, stamped on `epoch`'s timeline.
fn echo(control: &mut Control, seq: u32, epoch: Instant) -> Option<ClockSample> {
    let t0_nanos = nanos(epoch.elapsed());
    let request = AnyFrame::EchoReq { seq, t0_nanos };
    let node_nanos = control.ask(request, ANSWER_PATIENCE, |frame| match frame {
        AnyFrame::EchoResp {
            seq: answered,
            node_nanos,
            ..
        } if answered == seq => Some(node_nanos),
        _ => None,
    })?;
    Some(ClockSample {
        t0_nanos,
        node_nanos,
        t1_nanos: nanos(epoch.elapsed()),
    })
}

/// One node's collection pass: connect at the first attempt, `Hello` as
/// the collector, [`ECHO_ROUNDS`] echo round trips for the clock-offset
/// estimate, then an `ObsPull` answered by an `ObsDump` on the same
/// connection.
fn collect_node(
    addr: SocketAddr,
    node: u32,
    cid: usize,
    epoch: Instant,
) -> Option<(ClockAlignment, ObsExport)> {
    let mut control = Control::dial(addr, 1, Some(AnyFrame::Hello { client: cid }))?;
    let samples: Vec<ClockSample> = (0..ECHO_ROUNDS)
        .map(|seq| echo(&mut control, seq, epoch))
        .collect::<Option<_>>()?;
    let align = ClockAlignment::estimate(node, &samples)?;
    let pull = AnyFrame::Node(ToNode::ObsPull { client: cid });
    let export = control.ask(pull, ANSWER_PATIENCE, |frame| match frame {
        AnyFrame::ObsDump { export, .. } => Some(export),
        _ => None,
    })?;
    Some((align, *export))
}
