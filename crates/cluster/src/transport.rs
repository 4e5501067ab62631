//! The node-to-node transport seam and its two implementations.
//!
//! Both loops of [`crate::service`] — the node's `flush` step and
//! `client_main` — stage outbound envelopes per destination in an `Outbox` and hand each
//! destination's batch to a [`Transport`] at one flush point per loop
//! turn: nothing writes a socket except a flush, and a flush writes each
//! destination once. Everything above the seam — fault policy, delay
//! heap, wire counters, batching — is transport-agnostic; everything
//! below is how bytes (or in-process values) actually move:
//!
//! * [`ChannelTransport`] — the original fast path: one unbounded
//!   crossbeam channel per node, `send_batch` is one lock acquisition.
//! * [`TcpTransport`] — a per-peer TCP connection manager: envelopes are
//!   framed by [`crate::codec`] and written to a lazily-established
//!   socket, with reconnect-on-failure. Its receiving counterpart is
//!   [`TcpNode`]: a listener whose per-connection reader threads decode
//!   frames and forward them into the node's ordinary inbox channel —
//!   every frame one socket `read` delivered in **one** inbox hand-off
//!   (`read_frames`) — so the node loop itself never knows which
//!   transport fed it.
//!
//! ## Reconnect state machine (per peer)
//!
//! ```text
//!            connect ok                   write error
//! Unconnected ────────────► Connected ─────────────────┐
//!     ▲  │ connect fails        ▲                      │
//!     │  ▼                      │ reconnect ok         ▼
//!   Backoff (500 ms) ◄────────── ─────────────── Reconnecting
//!                                 reconnect fails: envelope dropped,
//!                                 peer enters Backoff
//! ```
//!
//! The *first* connection attempt to a peer retries for several seconds
//! (multi-process clusters start their nodes concurrently); once a peer
//! has been reached, a failed send performs exactly one reconnect
//! attempt and otherwise **drops the envelope** — a down peer behaves
//! like a crashed process, which is precisely the fault domain the
//! protocols are built for.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ac_obs::NetMeters;
use ac_sim::{ProcessId, Wire};
use crossbeam::channel::Sender;

use crate::codec::{write_frame, AnyFrame, FrameDecoder};
use crate::service::ToNode;

/// How long a peer stays in backoff after a failed (re)connect before
/// the next send attempts again.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(500);
/// First-contact patience: attempts × gap ≈ 3 s, covering the startup
/// skew of a multi-process cluster.
const INITIAL_ATTEMPTS: u32 = 30;
const INITIAL_GAP: Duration = Duration::from_millis(100);
/// Reader-thread receive buffer.
const READ_CHUNK: usize = 64 * 1024;

/// Where a node's outbound envelopes go. Implementations must preserve
/// per-sender FIFO order on a healthy link and must never block
/// indefinitely; delivery is at-most-once (loss on a broken link is the
/// crash fault domain, duplication is never allowed).
pub trait Transport<M>: Send {
    /// Send one envelope to node `to`.
    fn send(&mut self, to: ProcessId, env: ToNode<M>);

    /// Send a batch to node `to`, equivalent to sending each envelope in
    /// order (implementations may amortize: one lock, one syscall).
    fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>) {
        for env in batch.drain(..) {
            self.send(to, env);
        }
    }

    /// `(writes, total nanoseconds)` this transport spent handing bytes
    /// to the OS. The TCP transport times every socket `write_all`; the
    /// channel transport is a lock handoff and reports zero (observability
    /// — the `tcp_write` seam meter).
    fn io_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// The in-process transport: envelopes move over unbounded crossbeam
/// channels, exactly as the service always worked.
pub struct ChannelTransport<M> {
    txs: Vec<Sender<ToNode<M>>>,
}

impl<M> ChannelTransport<M> {
    /// A transport over the given per-node inbox senders.
    pub fn new(txs: Vec<Sender<ToNode<M>>>) -> ChannelTransport<M> {
        ChannelTransport { txs }
    }
}

impl<M: Send> Transport<M> for ChannelTransport<M> {
    fn send(&mut self, to: ProcessId, env: ToNode<M>) {
        let _ = self.txs[to].send(env);
    }

    fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>) {
        let _ = self.txs[to].send_batch(batch.drain(..));
    }
}

/// Per-destination staging of outbound envelopes: what a loop turn
/// produces for node `to` accumulates in `to`'s batch until the turn's
/// single flush point — one lock or one socket write per destination per
/// turn. Staging order is delivery order per destination, so the
/// [`Transport`] contract's per-sender FIFO carries through.
pub(crate) struct Outbox<M> {
    staged: Vec<Vec<ToNode<M>>>,
}

impl<M> Outbox<M> {
    /// An empty outbox for destinations `0..n`.
    pub(crate) fn new(n: usize) -> Outbox<M> {
        Outbox {
            staged: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Stage `env` behind everything already staged for `to`.
    pub(crate) fn stage(&mut self, to: ProcessId, env: ToNode<M>) {
        self.staged[to].push(env);
    }

    /// Take every staged envelope, destinations ascending, staging order
    /// within a destination (the fault policy judges them one by one).
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (ProcessId, ToNode<M>)> + '_ {
        self.staged
            .iter_mut()
            .enumerate()
            .flat_map(|(to, batch)| batch.drain(..).map(move |env| (to, env)))
    }

    /// The flush point: one `send_batch` per destination with traffic.
    /// Returns how many envelopes were handed to the transport.
    pub(crate) fn flush(&mut self, transport: &mut dyn Transport<M>) -> usize {
        let mut sent = 0;
        for (to, batch) in self.staged.iter_mut().enumerate() {
            if !batch.is_empty() {
                sent += batch.len();
                transport.send_batch(to, batch);
            }
        }
        sent
    }
}

/// Called with `(peer, stream)` after every successful (re)connect,
/// before any envelope is written. Multi-process clients use it to send
/// their `Hello` handshake and spawn the `Done`-frame reader.
pub type OnConnect = Arc<dyn Fn(ProcessId, &TcpStream) + Send + Sync>;

enum PeerState {
    /// Never reached yet: first contact gets the long retry loop.
    Fresh,
    Connected(TcpStream),
    /// Unreachable; do not retry before the stored instant.
    Backoff(Instant),
    /// Was reachable before; next send makes one reconnect attempt.
    Lost,
}

/// The socket transport: one lazily-connected TCP stream per peer,
/// frames encoded by [`crate::codec`], reconnect-on-failure (see the
/// module docs for the state machine).
pub struct TcpTransport {
    peers: Vec<SocketAddr>,
    state: Vec<PeerState>,
    scratch: Vec<u8>,
    /// Frames currently encoded into `scratch` (egress frame metering).
    scratch_frames: u64,
    on_connect: Option<OnConnect>,
    /// Per-peer socket counters (bytes/frames out, reconnects, dial
    /// failures, outbox high-water), shared with the process's metrics
    /// endpoint and its observability export. `None` meters nothing.
    net: Option<Arc<NetMeters>>,
    /// Socket-write self-metering: `write_all` calls and their summed
    /// duration (connection establishment is deliberately excluded — a
    /// first-contact dial retries for seconds and is not write time).
    io_writes: u64,
    io_nanos: u64,
}

impl TcpTransport {
    /// A transport that will dial `peers[to]` for destination `to`.
    pub fn new(peers: Vec<SocketAddr>) -> TcpTransport {
        let state = peers.iter().map(|_| PeerState::Fresh).collect();
        TcpTransport {
            peers,
            state,
            scratch: Vec::new(),
            scratch_frames: 0,
            on_connect: None,
            net: None,
            io_writes: 0,
            io_nanos: 0,
        }
    }

    /// Install a post-connect hook (builder style).
    pub fn on_connect(mut self, hook: OnConnect) -> TcpTransport {
        self.on_connect = Some(hook);
        self
    }

    /// Record egress into `meters` (builder style). The meters' peer
    /// table should match this transport's peer count.
    pub fn with_net(mut self, meters: Arc<NetMeters>) -> TcpTransport {
        self.net = Some(meters);
        self
    }

    fn dial(&self, to: ProcessId, attempts: u32) -> Option<TcpStream> {
        for i in 0..attempts {
            if let Ok(s) = TcpStream::connect(self.peers[to]) {
                let _ = s.set_nodelay(true);
                if let Some(hook) = &self.on_connect {
                    hook(to, &s);
                }
                return Some(s);
            }
            if i + 1 < attempts {
                std::thread::sleep(INITIAL_GAP);
            }
        }
        None
    }

    /// The connected stream for `to`, establishing it if the state
    /// machine allows an attempt now.
    fn conn(&mut self, to: ProcessId) -> Option<&mut TcpStream> {
        let (attempts, was_reached) = match &self.state[to] {
            PeerState::Connected(_) => {
                // Reborrow dance: checked above, return below.
                match &mut self.state[to] {
                    PeerState::Connected(s) => return Some(s),
                    _ => unreachable!(),
                }
            }
            PeerState::Fresh => (INITIAL_ATTEMPTS, false),
            // Lost/Backoff both mean the peer was reached before: a
            // successful dial from here is a *reconnect* (first contact
            // from Fresh is not).
            PeerState::Lost => (1, true),
            PeerState::Backoff(until) => {
                if Instant::now() < *until {
                    return None;
                }
                (1, true)
            }
        };
        match self.dial(to, attempts) {
            Some(s) => {
                if was_reached {
                    if let Some(net) = &self.net {
                        net.reconnected(to);
                    }
                }
                self.state[to] = PeerState::Connected(s);
                match &mut self.state[to] {
                    PeerState::Connected(s) => Some(s),
                    _ => unreachable!(),
                }
            }
            None => {
                if let Some(net) = &self.net {
                    net.dial_failed(to);
                }
                self.state[to] = PeerState::Backoff(Instant::now() + RECONNECT_BACKOFF);
                None
            }
        }
    }

    /// Write the scratch buffer to `to`, with one reconnect-and-retry on
    /// a write error. Returns whether the bytes were handed to the OS.
    fn flush_scratch(&mut self, to: ProcessId) -> bool {
        let scratch = std::mem::take(&mut self.scratch);
        let frames = std::mem::take(&mut self.scratch_frames);
        let mut sent = false;
        for _ in 0..2 {
            let Some(s) = self.conn(to) else { break };
            let t0 = Instant::now();
            let ok = s.write_all(&scratch).is_ok();
            self.io_writes += 1;
            self.io_nanos = self
                .io_nanos
                .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if ok {
                sent = true;
                break;
            }
            // Broken pipe: drop the stream, allow one immediate retry.
            self.state[to] = PeerState::Lost;
        }
        if sent {
            if let Some(net) = &self.net {
                net.sent(to, frames, scratch.len() as u64);
            }
        }
        self.scratch = scratch;
        sent
    }
}

impl<M: Wire + Send> Transport<M> for TcpTransport {
    fn send(&mut self, to: ProcessId, env: ToNode<M>) {
        self.scratch.clear();
        write_frame(&AnyFrame::Node(env), &mut self.scratch);
        self.scratch_frames = 1;
        if let Some(net) = &self.net {
            net.outbox_depth(to, 1);
        }
        self.flush_scratch(to);
    }

    fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>) {
        self.scratch.clear();
        self.scratch_frames = batch.len() as u64;
        if let Some(net) = &self.net {
            net.outbox_depth(to, self.scratch_frames);
        }
        for env in batch.drain(..) {
            write_frame(&AnyFrame::Node(env), &mut self.scratch);
        }
        self.flush_scratch(to);
    }

    fn io_stats(&self) -> (u64, u64) {
        (self.io_writes, self.io_nanos)
    }
}

/// Write halves of client connections, keyed by client id — populated by
/// [`TcpNode`] when a `Hello` frame arrives, read by the `Done`
/// forwarders of a multi-process node.
pub type ClientRegistry = Arc<Mutex<HashMap<usize, TcpStream>>>;

/// Identity and epoch a node's reader threads use to answer clock-echo
/// probes inline: the response is written straight back from the reader
/// thread, off the node loop, so an echo round trip measures the
/// network path and not the inbox backlog.
#[derive(Clone)]
pub struct EchoResponder {
    /// The answering node's id.
    pub node: u32,
    /// The process's run epoch: echo stamps are `epoch.elapsed()`.
    pub epoch: Instant,
}

/// Optional per-connection behaviors of a [`TcpNode`]'s reader threads:
/// the client registry (multi-process `Done` routing), ingress meters,
/// and the clock-echo responder.
#[derive(Clone, Default)]
pub struct NodeHooks {
    /// Populated with the write half of every connection that `Hello`s.
    pub clients: Option<ClientRegistry>,
    /// Ingress counters (bytes/frames in, decode errors, resyncs).
    pub net: Option<Arc<NetMeters>>,
    /// When set, `EchoReq` frames are answered inline.
    pub echo: Option<EchoResponder>,
}

/// The receiving side of the TCP transport: a listener plus per-connection
/// reader threads that decode frames and forward node-inbox envelopes
/// into an ordinary crossbeam channel. The node loop stays byte-blind.
pub struct TcpNode {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl TcpNode {
    /// Bind `addr` and start forwarding decoded envelopes into `inbox`.
    /// `clients`, when given, is populated with the write half of every
    /// connection that announces itself with a `Hello` frame.
    pub fn bind<M, A>(
        addr: A,
        inbox: Sender<ToNode<M>>,
        clients: Option<ClientRegistry>,
    ) -> std::io::Result<TcpNode>
    where
        M: Wire + Send + 'static,
        A: ToSocketAddrs,
    {
        TcpNode::bind_with(
            addr,
            inbox,
            NodeHooks {
                clients,
                ..NodeHooks::default()
            },
        )
    }

    /// [`TcpNode::bind`] with the full hook set: client registry,
    /// ingress meters, and the clock-echo responder.
    pub fn bind_with<M, A>(
        addr: A,
        inbox: Sender<ToNode<M>>,
        hooks: NodeHooks,
    ) -> std::io::Result<TcpNode>
    where
        M: Wire + Send + 'static,
        A: ToSocketAddrs,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let readers = Arc::clone(&readers);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    conns
                        .lock()
                        .expect("conn list poisoned")
                        .push(stream.try_clone().expect("stream clone"));
                    let inbox = inbox.clone();
                    let hooks = hooks.clone();
                    let reader = std::thread::spawn(move || {
                        read_loop::<M>(stream, inbox, hooks);
                    });
                    readers.lock().expect("reader list poisoned").push(reader);
                }
            })
        };

        Ok(TcpNode {
            addr,
            stop,
            accept_handle: Some(accept_handle),
            conns,
            readers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Forcibly close every accepted connection while keeping the
    /// listener alive — the "link bounce" the conformance suite uses to
    /// exercise sender reconnects.
    pub fn drop_connections(&self) {
        let mut conns = self.conns.lock().expect("conn list poisoned");
        for c in conns.drain(..) {
            let _ = c.shutdown(Shutdown::Both);
        }
    }

    /// Stop accepting, close every connection, join all threads.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.drop_connections();
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let readers = std::mem::take(&mut *self.readers.lock().expect("reader list poisoned"));
        for h in readers {
            let _ = h.join();
        }
    }
}

impl Drop for TcpNode {
    fn drop(&mut self) {
        if self.accept_handle.is_some() {
            self.teardown();
        }
    }
}

/// One connection's read loop, shared by the node-side readers and the
/// multi-process client's `Done` readers: every complete frame a socket
/// `read` delivered is decoded and offered to `route`, and the items it
/// returned go to `out` with **one** `send_batch` — one lock and at most
/// one wake-up of the receiving loop per read, not per frame. They are
/// handed over before the socket is looked at again, so frames that
/// arrived whole ahead of EOF, a read error, a poisoned stream or a
/// `route` break (drop the connection) are still delivered. A malformed
/// body skips that frame only; a poisoned stream (frame boundary lost)
/// ends the loop — the peer reconnects with a fresh one.
pub(crate) fn read_frames<M: Wire, T>(
    mut stream: &TcpStream,
    out: &Sender<T>,
    net: Option<&NetMeters>,
    mut route: impl FnMut(AnyFrame<M>) -> ControlFlow<(), Option<T>>,
) {
    let mut dec = FrameDecoder::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut batch: Vec<T> = Vec::new();
    let mut open = true;
    while open {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        if let Some(net) = net {
            net.received(n as u64);
        }
        dec.feed(&chunk[..n]);
        while open {
            match dec.next_frame::<M>() {
                Ok(Some(frame)) => {
                    if let Some(net) = net {
                        net.frame_in();
                    }
                    match route(frame) {
                        ControlFlow::Continue(item) => batch.extend(item),
                        ControlFlow::Break(()) => open = false,
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    open = !dec.is_poisoned();
                    if let Some(net) = net {
                        if open {
                            net.decode_error();
                        } else {
                            net.resync();
                        }
                    }
                }
            }
        }
        // Receiver gone: drop the connection.
        open &= batch.is_empty() || out.send_batch(batch.drain(..)).is_ok();
    }
}

/// A node-side connection: protocol and control envelopes go to the inbox,
/// `Hello` registers the write half, `EchoReq` is answered inline.
fn read_loop<M: Wire + Send + 'static>(
    stream: TcpStream,
    inbox: Sender<ToNode<M>>,
    hooks: NodeHooks,
) {
    let mut echo_buf = Vec::new();
    read_frames::<M, _>(&stream, &inbox, hooks.net.as_deref(), |frame| {
        match frame {
            AnyFrame::Node(env) => return ControlFlow::Continue(Some(env)),
            AnyFrame::Hello { client } => {
                if let (Some(reg), Ok(half)) = (&hooks.clients, stream.try_clone()) {
                    reg.lock().expect("registry poisoned").insert(client, half);
                }
            }
            AnyFrame::EchoReq { seq, t0_nanos } => {
                // Answer inline from the reader thread: the round trip
                // then measures the network path, not the node loop's
                // inbox backlog.
                if let Some(echo) = &hooks.echo {
                    let node_nanos =
                        u64::try_from(echo.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    echo_buf.clear();
                    write_frame::<M>(
                        &AnyFrame::EchoResp {
                            seq,
                            t0_nanos,
                            node: echo.node,
                            node_nanos,
                        },
                        &mut echo_buf,
                    );
                    if (&stream).write_all(&echo_buf).is_err() {
                        return ControlFlow::Break(());
                    }
                }
            }
            // Not node-bound frames: a node never receives these.
            AnyFrame::Done(_) | AnyFrame::EchoResp { .. } | AnyFrame::ObsDump { .. } => {}
        }
        ControlFlow::Continue(None)
    });
}
