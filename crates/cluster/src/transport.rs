//! The node-to-node transport seam, its two implementations, the ingress
//! a node waits on, and the road a reply takes back.
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
//!   socket, with reconnect-on-failure.
//!
//! ## Ingress: a thread reads its own sockets
//!
//! A node's `drain` step waits on an `Inbox` with exactly two sources:
//! the crossbeam `Receiver` the channel transport feeds, or a
//! `SocketIngress` — the node's listener, its accepted connections and
//! one [`FrameDecoder`] per connection. The ingress offers one call,
//! "move up to `max` envelopes into `buf`, waiting until a deadline or
//! for ever", made of **one readiness wait** (`ppoll(2)`: its `timespec`
//! keeps the loop's exact-deadline parking), then **one `read` per ready
//! connection**, every complete frame decoded, and pending connections
//! accepted. `Hello` registration, the inline `EchoReq` answer and the
//! ingress meters happen at that read point. A wake that only accepted a
//! connection or completed no node-bound frame waits again — the node
//! never sees it — and `EINTR` is "look at the deadline, wait again". A
//! TCP hop therefore costs one wake-up of the thread that dispatches the
//! envelope; no thread sits between the socket and the node loop, and
//! everything above `drain` stays byte-blind.
//!
//! The wait-then-read pass is one piece of code (`Sockets::poll`) with
//! two users: the node's `SocketIngress`, and the `ReplyIngress` a
//! multi-process client reads its decision reports through.
//!
//! ## Replies: down the connection that asked
//!
//! A client of a multi-process cluster says `Hello` on every connection
//! its [`TcpTransport`] dials, and the node's ingress remembers which
//! connection said it. `SocketIngress::reply` frames what the node's
//! `flush` step owes that client into one blocking `write_all` down that
//! connection — the rule `TcpTransport` follows for node-to-node
//! envelopes: a failed write forgets the connection and drops the batch,
//! a client with no live `Hello`'d connection costs the reports, not the
//! node. On the other end `client_main` waits on a `ReplyInbox` with
//! exactly two sources: the `Receiver<Done>` of the in-process service,
//! or a `ReplyIngress` over the read halves of the connections its own
//! transport dialed (handed over at the dial, which happens in the
//! client's own flush). A reply therefore costs one wake-up too — of the
//! client thread that folds it in.
//!
//! [`TcpNode`] is the *same ingress hosted on one thread* that forwards
//! each wait's batch into a crossbeam channel with one `send_batch`, for
//! callers that want a `Receiver` (the conformance suite, the benchmark
//! probes); it has no reply path. The service hosts ([`crate::service`],
//! [`crate::proc`]) do not use it.
//!
//! The readiness wait is the workspace's only foreign call and is
//! declared for Linux, the only platform CI builds; there is no second
//! implementation for other platforms.
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

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ac_obs::NetMeters;
use ac_sim::{ProcessId, Wire};
use crossbeam::channel::{unbounded, Receiver, RecvError, RecvTimeoutError, Sender};

use crate::codec::{write_frame, AnyFrame, FrameDecoder};
use crate::service::{Done, ToNode};

/// How long a peer stays in backoff after a failed (re)connect before
/// the next send attempts again.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(500);
/// First-contact patience: attempts × gap ≈ 3 s, covering the startup
/// skew of a multi-process cluster.
pub(crate) const INITIAL_ATTEMPTS: u32 = 30;
const INITIAL_GAP: Duration = Duration::from_millis(100);
/// Receive buffer of one socket `read`.
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

/// Connect to `addr`, trying up to `attempts` times [`INITIAL_GAP`] apart
/// ([`INITIAL_ATTEMPTS`] is first-contact patience, 1 a reconnect).
pub(crate) fn connect(addr: SocketAddr, attempts: u32) -> Option<TcpStream> {
    for i in 0..attempts {
        if let Ok(s) = TcpStream::connect(addr) {
            let _ = s.set_nodelay(true);
            return Some(s);
        }
        if i + 1 < attempts {
            std::thread::sleep(INITIAL_GAP);
        }
    }
    None
}

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
    /// A multi-process client's handshake: the `Hello` frame it says on
    /// every (re)connect, before any envelope is written, and where that
    /// connection's read half goes (see [`TcpTransport::hello`]).
    handshake: Option<(Vec<u8>, mpsc::Sender<TcpStream>)>,
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
            handshake: None,
            net: None,
            io_writes: 0,
            io_nanos: 0,
        }
    }

    /// Make this the transport of multi-process client `client`: every
    /// (re)connect says `Hello` first, so the node can route replies back
    /// down that connection, and hands its read half to the returned
    /// ingress — from inside the client's own flush, so it is adopted
    /// before the wait that follows the dial.
    pub(crate) fn hello(mut self, client: usize) -> (TcpTransport, ReplyIngress) {
        let (halves, dialed) = mpsc::channel();
        let mut frame = Vec::new();
        write_frame::<()>(&AnyFrame::Hello { client }, &mut frame);
        self.handshake = Some((frame, halves));
        let ingress = ReplyIngress {
            socks: Sockets::new(None),
            dialed,
            ready: VecDeque::new(),
        };
        (self, ingress)
    }

    /// Record egress into `meters` (builder style). The meters' peer
    /// table should match this transport's peer count.
    pub fn with_net(mut self, meters: Arc<NetMeters>) -> TcpTransport {
        self.net = Some(meters);
        self
    }

    fn dial(&self, to: ProcessId, attempts: u32) -> Option<TcpStream> {
        let s = connect(self.peers[to], attempts)?;
        if let Some((hello, halves)) = &self.handshake {
            let mut half = &s;
            let _ = half.write_all(hello);
            if let Ok(half) = s.try_clone() {
                let _ = halves.send(half);
            }
        }
        Some(s)
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

/// Identity and epoch a node answers clock-echo probes with. The
/// response is written straight back at the socket read point, ahead of
/// the dispatch of the batch the read belongs to, so an echo waits behind
/// at most one loop turn — not behind the backlog.
#[derive(Clone)]
pub struct EchoResponder {
    /// The answering node's id.
    pub node: u32,
    /// The process's run epoch: echo stamps are `epoch.elapsed()`.
    pub epoch: Instant,
}

/// Optional behaviors of a node's socket read point: ingress meters and
/// the clock-echo responder.
#[derive(Clone, Default)]
pub struct NodeHooks {
    /// Ingress counters (bytes/frames in, decode errors, resyncs).
    pub net: Option<Arc<NetMeters>>,
    /// When set, `EchoReq` frames are answered inline.
    pub echo: Option<EchoResponder>,
}

/// What one socket `read` returned, as a loop that owns the connection
/// must treat it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// That many bytes arrived.
    Data(usize),
    /// Nothing was transferred and nothing is wrong: a signal interrupted
    /// the call (`std`'s `read` does not retry `EINTR`), or a non-blocking
    /// descriptor had nothing. The connection stays.
    Retry,
    /// End of stream or a real error: the connection is gone.
    Closed,
}

impl ReadOutcome {
    pub(crate) fn of(result: std::io::Result<usize>) -> ReadOutcome {
        match result {
            Ok(0) => ReadOutcome::Closed,
            Ok(n) => ReadOutcome::Data(n),
            Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {
                ReadOutcome::Retry
            }
            Err(_) => ReadOutcome::Closed,
        }
    }
}

/// Feed one read's bytes to `dec` and hand every frame they complete to
/// `sink`, metering into `net`. A malformed body skips that frame only.
/// Returns `false` when the stream must be dropped — the frame boundary
/// is lost (poisoned), or `sink` broke — with every frame ahead of that
/// point already handed over.
pub(crate) fn decode_chunk<M: Wire>(
    dec: &mut FrameDecoder,
    chunk: &[u8],
    net: Option<&NetMeters>,
    mut sink: impl FnMut(AnyFrame<M>) -> ControlFlow<()>,
) -> bool {
    if let Some(net) = net {
        net.received(chunk.len() as u64);
    }
    dec.feed(chunk);
    loop {
        match dec.next_frame::<M>() {
            Ok(Some(frame)) => {
                if let Some(net) = net {
                    net.frame_in();
                }
                if sink(frame).is_break() {
                    return false;
                }
            }
            Ok(None) => return true,
            Err(_) => {
                let poisoned = dec.is_poisoned();
                if let Some(net) = net {
                    if poisoned {
                        net.resync();
                    } else {
                        net.decode_error();
                    }
                }
                if poisoned {
                    return false;
                }
            }
        }
    }
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `POLLIN` on Linux.
const POLLIN: c_short = 0x001;

/// Block until a descriptor of `fds` is readable, hung up or in error
/// (`revents` says which), `timeout` elapses (`None` = for ever, returns
/// `Ok(0)`), or a signal arrives (`ErrorKind::Interrupted`). The timeout
/// is a `timespec`: a wait of 300 µs takes 300 µs, where `poll(2)`'s
/// milliseconds would make it 0 or 1 000.
#[allow(unsafe_code)]
fn wait_readable(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    /// `struct timespec` on Linux (both fields `long`).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
    let ts = timeout.map(|d| Timespec {
        tv_sec: c_long::try_from(d.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(d.subsec_nanos()),
    });
    let ts_ptr = ts.as_ref().map_or(std::ptr::null(), std::ptr::from_ref);
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
    // `pollfd`s and `nfds` is its length, so the kernel reads `fd`/`events`
    // and writes `revents` inside it and nowhere else; `ts` lives on this
    // frame past the call, and a null timeout / signal mask mean "no
    // timeout" / "leave the mask alone". The slice and `ts` must outlive
    // the call, and do: nothing is retained once it returns. A descriptor
    // in `fds` that was closed meanwhile is reported (`POLLNVAL`), not
    // dereferenced.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            ts_ptr,
            std::ptr::null(),
        )
    };
    usize::try_from(rc).map_err(|_| std::io::Error::last_os_error())
}

/// One connection read by the thread that waits on it: the socket, its
/// frame boundary state and, at a node, who said `Hello` on it.
struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    client: Option<usize>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            dec: FrameDecoder::new(),
            client: None,
        }
    }
}

/// The sockets one thread reads, and the one way they are read: the
/// wait-then-read pass under a node's [`SocketIngress`] and a
/// multi-process client's [`ReplyIngress`] alike.
struct Sockets {
    /// Accepted from, non-blocking (a client has none: it dials).
    listener: Option<TcpListener>,
    /// In the order they were accepted (or dialed).
    conns: Vec<Conn>,
    /// The readiness set of the wait in progress: the listener's slot,
    /// then `conns` in order (rebuilt per wait, allocation reused).
    fds: Vec<PollFd>,
    chunk: Vec<u8>,
}

impl Sockets {
    fn new(listener: Option<TcpListener>) -> Sockets {
        Sockets {
            listener,
            conns: Vec::new(),
            fds: Vec::new(),
            chunk: vec![0u8; READ_CHUNK],
        }
    }

    /// One readiness wait over the listener and every connection, then
    /// one `read` per ready connection — every frame it completed handed
    /// to `route` with the connection's stream and `Hello` slot — then
    /// every pending connection accepted. A connection at end of stream,
    /// in error, past a lost frame boundary or whose `route` broke is
    /// forgotten. Returns `false` when `until` passed with nothing ready.
    fn poll<M: Wire>(
        &mut self,
        until: Option<Instant>,
        net: Option<&NetMeters>,
        mut route: impl FnMut(&TcpStream, &mut Option<usize>, AnyFrame<M>) -> ControlFlow<()>,
    ) -> bool {
        let watch = |fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let listener = self.listener.as_ref();
        // The kernel skips a negative descriptor: no listener, an idle slot.
        let accepting = listener.map_or(-1, AsRawFd::as_raw_fd);
        let reading = self.conns.iter().map(|c| c.stream.as_raw_fd());
        let watched = std::iter::once(accepting).chain(reading);
        self.fds.clear();
        self.fds.extend(watched.map(watch));
        loop {
            let wait = until.map(|u| u.saturating_duration_since(Instant::now()));
            match wait_readable(&mut self.fds, wait) {
                Ok(0) => return false,
                Ok(_) => break,
                // A signal is neither a timeout nor a dead socket: wait
                // again for what is left of the deadline.
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("ppoll on {} descriptors: {e}", self.fds.len()),
            }
        }

        let mut polled = self.fds[1..].iter();
        self.conns.retain_mut(|conn| {
            let fd = polled.next().expect("one pollfd per connection");
            if fd.revents == 0 {
                return true;
            }
            let mut half = &conn.stream;
            match ReadOutcome::of(half.read(&mut self.chunk)) {
                ReadOutcome::Data(n) => {
                    decode_chunk(&mut conn.dec, &self.chunk[..n], net, |frame| {
                        route(&conn.stream, &mut conn.client, frame)
                    })
                }
                ReadOutcome::Retry => true,
                ReadOutcome::Closed => false,
            }
        });

        if self.fds[0].revents != 0 {
            // Not in this wait's set: first looked at by the next one.
            while let Some(Ok((stream, _))) = listener.map(TcpListener::accept) {
                let _ = stream.set_nodelay(true);
                self.conns.push(Conn::new(stream));
            }
        }
        true
    }
}

/// Move up to `max` of the items a wait decoded into `buf`.
fn take<T>(ready: &mut VecDeque<T>, buf: &mut Vec<T>, max: usize) -> usize {
    let k = ready.len().min(max);
    buf.extend(ready.drain(..k));
    k
}

/// The receiving side of the TCP transport, waited on by the thread that
/// dispatches what it delivers (see the module docs): a listener, its
/// accepted connections, one decoder per connection, and the envelopes
/// decoded but not yet taken.
pub(crate) struct SocketIngress<M> {
    hooks: NodeHooks,
    socks: Sockets,
    /// Node-bound envelopes in arrival order — per connection, stream
    /// order. What a wait decoded beyond the caller's `max` stays here
    /// and is served before any socket is touched again.
    ready: VecDeque<ToNode<M>>,
    /// Frames the ingress writes itself: an echo answer, a reply.
    out: Vec<u8>,
}

impl<M: Wire> SocketIngress<M> {
    /// Listen on `addr`.
    pub(crate) fn bind<A: ToSocketAddrs>(
        addr: A,
        hooks: NodeHooks,
    ) -> std::io::Result<SocketIngress<M>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(SocketIngress {
            hooks,
            socks: Sockets::new(Some(listener)),
            ready: VecDeque::new(),
            out: Vec::new(),
        })
    }

    /// The bound address (useful with port 0).
    pub(crate) fn addr(&self) -> std::io::Result<SocketAddr> {
        let listener = self.socks.listener.as_ref().expect("bound in `bind`");
        listener.local_addr()
    }

    /// Move up to `max` envelopes into `buf` (appended), waiting until
    /// at least one is there or `until` passes (`None` = for ever).
    /// Returns how many moved; 0 means the deadline passed. A deadline
    /// already behind still takes what is ready without blocking.
    pub(crate) fn recv(
        &mut self,
        buf: &mut Vec<ToNode<M>>,
        max: usize,
        until: Option<Instant>,
    ) -> usize {
        while self.ready.is_empty() {
            if !self.poll(until) {
                return 0;
            }
        }
        take(&mut self.ready, buf, max)
    }

    /// One wait-then-read pass, every frame it completed routed. Returns
    /// `false` when `until` passed with nothing ready.
    fn poll(&mut self, until: Option<Instant>) -> bool {
        let net = self.hooks.net.as_deref();
        self.socks.poll(until, net, |stream, client, frame| {
            route(
                frame,
                stream,
                client,
                &self.hooks,
                &mut self.out,
                &mut self.ready,
            )
        })
    }

    /// Frame `frames` into one blocking `write_all` down the newest
    /// connection that said `Hello` as `client`. `false` means they were
    /// dropped: no live connection announced that id, or the write failed
    /// — which forgets the connection (the client redials and says
    /// `Hello` again).
    pub(crate) fn reply(
        &mut self,
        client: usize,
        frames: impl IntoIterator<Item = AnyFrame<M>>,
    ) -> bool {
        let conns = &mut self.socks.conns;
        let Some(i) = conns.iter().rposition(|c| c.client == Some(client)) else {
            return false;
        };
        self.out.clear();
        for frame in frames {
            write_frame(&frame, &mut self.out);
        }
        let mut half = &conns[i].stream;
        let sent = half.write_all(&self.out).is_ok();
        if !sent {
            conns.remove(i);
        }
        sent
    }
}

/// Route one frame a node's connection delivered: protocol and control
/// envelopes queue for the node, `Hello` names the connection's client,
/// `EchoReq` is answered inline (a failed write drops the connection).
fn route<M: Wire>(
    frame: AnyFrame<M>,
    mut stream: &TcpStream,
    client: &mut Option<usize>,
    hooks: &NodeHooks,
    out: &mut Vec<u8>,
    ready: &mut VecDeque<ToNode<M>>,
) -> ControlFlow<()> {
    match frame {
        AnyFrame::Node(env) => ready.push_back(env),
        AnyFrame::Hello { client: id } => *client = Some(id),
        AnyFrame::EchoReq { seq, t0_nanos } => {
            if let Some(echo) = &hooks.echo {
                let elapsed = echo.epoch.elapsed().as_nanos();
                out.clear();
                write_frame::<M>(
                    &AnyFrame::EchoResp {
                        seq,
                        t0_nanos,
                        node: echo.node,
                        node_nanos: u64::try_from(elapsed).unwrap_or(u64::MAX),
                    },
                    out,
                );
                if stream.write_all(out).is_err() {
                    return ControlFlow::Break(());
                }
            }
        }
        // Not node-bound frames: a node never receives these.
        AnyFrame::Done(_) | AnyFrame::EchoResp { .. } | AnyFrame::ObsDump { .. } => {}
    }
    ControlFlow::Continue(())
}

/// Where a node's `drain` step gets its envelopes: the seam with exactly
/// two sources.
pub(crate) enum Inbox<M> {
    /// The in-process channel [`ChannelTransport`] sends into.
    Channel(Receiver<ToNode<M>>),
    /// The node's own sockets ([`TcpTransport`] dials them).
    Socket(SocketIngress<M>),
}

impl<M: Wire> Inbox<M> {
    /// Move up to `max` envelopes into `buf` (appended), waiting until at
    /// least one is there or `until` passes (`None` = for ever); `Ok(0)`
    /// means the deadline passed. A deadline already behind still takes
    /// what is there without blocking. An error means every sender of a
    /// channel inbox is gone: nothing can arrive any more.
    pub(crate) fn recv(
        &mut self,
        buf: &mut Vec<ToNode<M>>,
        max: usize,
        until: Option<Instant>,
    ) -> Result<usize, RecvError> {
        match (self, until) {
            (Inbox::Channel(rx), Some(due)) => {
                let wait = due.saturating_duration_since(Instant::now());
                match rx.recv_batch_timeout(buf, max, wait) {
                    Ok(k) => Ok(k),
                    Err(RecvTimeoutError::Timeout) => Ok(0),
                    Err(RecvTimeoutError::Disconnected) => Err(RecvError),
                }
            }
            (Inbox::Channel(rx), None) => rx.recv_batch(buf, max),
            (Inbox::Socket(ingress), until) => Ok(ingress.recv(buf, max, until)),
        }
    }

    /// [`SocketIngress::reply`]: the road back to a client whose requests
    /// arrive through this inbox. Nobody says `Hello` on a channel, so a
    /// channel inbox drops every reply.
    pub(crate) fn reply(
        &mut self,
        client: usize,
        frames: impl IntoIterator<Item = AnyFrame<M>>,
    ) -> bool {
        match self {
            Inbox::Channel(_) => false,
            Inbox::Socket(ingress) => ingress.reply(client, frames),
        }
    }
}

/// The receiving side of a multi-process client: the read halves of the
/// connections its own transport dialed ([`TcpTransport::hello`]), read
/// by the client thread itself (see the module docs).
pub(crate) struct ReplyIngress {
    socks: Sockets,
    /// Read halves of connections dialed since the last wait.
    dialed: mpsc::Receiver<TcpStream>,
    /// Reports decoded but not yet taken.
    ready: VecDeque<Done>,
}

impl ReplyIngress {
    /// Move up to `max` reports into `buf` (appended), waiting until at
    /// least one is there or `until` passes; 0 means it passed. Nodes
    /// send a client nothing else that it folds in; a read half at end of
    /// stream is forgotten (the transport's next write redials).
    pub(crate) fn recv(&mut self, buf: &mut Vec<Done>, max: usize, until: Instant) -> usize {
        let dialed = self.dialed.try_iter();
        self.socks.conns.extend(dialed.map(Conn::new));
        while self.ready.is_empty() {
            let polled = self.socks.poll::<()>(Some(until), None, |_, _, frame| {
                if let AnyFrame::Done(d) = frame {
                    self.ready.push_back(d);
                }
                ControlFlow::Continue(())
            });
            if !polled {
                return 0;
            }
        }
        take(&mut self.ready, buf, max)
    }
}

/// Where `client_main` waits for decision reports: the seam with exactly
/// two sources.
pub(crate) enum ReplyInbox {
    /// The in-process service's per-client reply channel.
    Channel(Receiver<Done>),
    /// The connections the client's own transport dialed.
    Socket(ReplyIngress),
}

impl ReplyInbox {
    /// Move up to `max` reports into `buf` (appended), waiting until at
    /// least one is there or `until` passes. Returns how many moved.
    pub(crate) fn recv(&mut self, buf: &mut Vec<Done>, max: usize, until: Instant) -> usize {
        match self {
            ReplyInbox::Channel(rx) => {
                let wait = until.saturating_duration_since(Instant::now());
                rx.recv_batch_timeout(buf, max, wait).unwrap_or(0)
            }
            ReplyInbox::Socket(ingress) => ingress.recv(buf, max, until),
        }
    }
}

/// What a [`TcpNode`] asks of its host thread.
enum Ctl {
    /// Forget every connection, then acknowledge.
    DropConnections(Sender<()>),
    Stop,
}

/// The socket ingress hosted on a thread of its own, forwarding what
/// each wait decoded into an ordinary crossbeam channel with one
/// `send_batch` — for a receiving loop that wants a `Receiver` rather
/// than the ingress itself.
pub struct TcpNode {
    addr: SocketAddr,
    ctl: Sender<Ctl>,
    host: Option<std::thread::JoinHandle<()>>,
}

impl TcpNode {
    /// Bind `addr` and start forwarding decoded envelopes into `inbox`,
    /// with `hooks` (ingress meters, clock-echo responder) when given.
    pub fn bind<M, A>(
        addr: A,
        inbox: Sender<ToNode<M>>,
        hooks: Option<NodeHooks>,
    ) -> std::io::Result<TcpNode>
    where
        M: Wire + Send + 'static,
        A: ToSocketAddrs,
    {
        let mut ingress = SocketIngress::<M>::bind(addr, hooks.unwrap_or_default())?;
        let addr = ingress.addr()?;
        let (ctl, asked) = unbounded::<Ctl>();
        let host = std::thread::spawn(move || {
            let mut batch = Vec::new();
            loop {
                ingress.poll(None);
                while let Ok(ctl) = asked.try_recv() {
                    match ctl {
                        Ctl::DropConnections(done) => {
                            // The listener and what is decoded stay.
                            ingress.socks.conns.clear();
                            let _ = done.send(());
                        }
                        Ctl::Stop => return,
                    }
                }
                // Receiver gone: nobody is left to read for.
                if take(&mut ingress.ready, &mut batch, usize::MAX) > 0
                    && inbox.send_batch(batch.drain(..)).is_err()
                {
                    return;
                }
            }
        });
        Ok(TcpNode {
            addr,
            ctl,
            host: Some(host),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Hand `ctl` to the host thread and wake its readiness wait with a
    /// throwaway connection.
    fn ask(&self, ctl: Ctl) {
        let _ = self.ctl.send(ctl);
        let _ = TcpStream::connect(self.addr);
    }

    /// Forcibly close every accepted connection while keeping the
    /// listener alive — the "link bounce" the conformance suite uses to
    /// exercise sender reconnects. Returns once they are closed.
    pub fn drop_connections(&self) {
        let (done, closed) = unbounded();
        self.ask(Ctl::DropConnections(done));
        // An error means the host thread is gone, and its sockets with it.
        let _ = closed.recv();
    }

    /// Stop accepting, close every connection, join the host thread.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        if let Some(host) = self.host.take() {
            self.ask(Ctl::Stop);
            let _ = host.join();
        }
    }
}

impl Drop for TcpNode {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    //! The ingress, the reply path and the client's reply source alone:
    //! real loopback sockets, no node, no thread.

    use super::*;

    type M = u64;

    fn ingress() -> (SocketIngress<M>, SocketAddr) {
        let ingress =
            SocketIngress::bind("127.0.0.1:0", NodeHooks::default()).expect("bind loopback");
        let addr = ingress.addr().expect("listener address");
        (ingress, addr)
    }

    fn net(p: usize, seq: u64) -> ToNode<M> {
        ToNode::Net {
            txn: p as u64 + 1,
            from: p,
            msg: seq,
        }
    }

    fn frames(p: usize, seqs: std::ops::Range<u64>) -> Vec<u8> {
        let mut bytes = Vec::new();
        for s in seqs {
            write_frame(&AnyFrame::Node(net(p, s)), &mut bytes);
        }
        bytes
    }

    /// `(from, msg)` of every envelope, in delivery order.
    fn transcript(buf: &[ToNode<M>]) -> Vec<(usize, u64)> {
        buf.iter()
            .map(|env| match env {
                ToNode::Net { from, msg, .. } => (*from, *msg),
                other => panic!("unexpected envelope {other:?}"),
            })
            .collect()
    }

    fn within(wait: Duration) -> Option<Instant> {
        Some(Instant::now() + wait)
    }

    const SOON: Duration = Duration::from_millis(100);
    const PATIENT: Duration = Duration::from_secs(10);

    #[test]
    fn a_read_result_is_data_or_try_again_or_closed() {
        let of = ReadOutcome::of;
        assert_eq!(of(Ok(7)), ReadOutcome::Data(7));
        // A signal without `SA_RESTART`, or an empty non-blocking
        // descriptor: the stream is healthy.
        assert_eq!(of(Err(ErrorKind::Interrupted.into())), ReadOutcome::Retry);
        assert_eq!(of(Err(ErrorKind::WouldBlock.into())), ReadOutcome::Retry);
        assert_eq!(of(Ok(0)), ReadOutcome::Closed);
        assert_eq!(
            of(Err(ErrorKind::ConnectionReset.into())),
            ReadOutcome::Closed
        );
    }

    /// The property the gain rests on: what five senders wrote before
    /// the wait comes out of **one** receive call — which also accepts
    /// the five connections, a wake that is not handed to the caller —
    /// in stream order per connection.
    #[test]
    fn one_receive_call_returns_what_five_connections_sent() {
        let (mut ingress, addr) = ingress();
        let mut senders: Vec<TcpTransport> =
            (0..5).map(|_| TcpTransport::new(vec![addr])).collect();
        for (p, t) in senders.iter_mut().enumerate() {
            let mut batch: Vec<_> = (0..7).map(|s| net(p, s)).collect();
            t.send_batch(0, &mut batch);
        }
        let mut buf = Vec::new();
        let got = ingress.recv(&mut buf, usize::MAX, within(PATIENT));
        assert_eq!(got, 5 * 7, "one wake must take every ready connection");
        let seen = transcript(&buf);
        for p in 0..5 {
            let stream: Vec<u64> = seen.iter().filter(|e| e.0 == p).map(|e| e.1).collect();
            assert_eq!(stream, (0..7).collect::<Vec<_>>(), "connection {p}");
        }
    }

    /// Half a frame completes nothing — the wake it causes is not handed
    /// to the caller — and the whole frame is delivered once.
    #[test]
    fn a_frame_split_across_two_writes_is_delivered_once_after_the_second() {
        let (mut ingress, addr) = ingress();
        let bytes = frames(0, 0..1);
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut buf = Vec::new();

        stream.write_all(head).expect("write head");
        let t0 = Instant::now();
        assert_eq!(ingress.recv(&mut buf, usize::MAX, within(SOON)), 0);
        assert!(t0.elapsed() >= SOON, "an incomplete frame ended the wait");

        stream.write_all(tail).expect("write tail");
        assert_eq!(ingress.recv(&mut buf, usize::MAX, within(PATIENT)), 1);
        assert_eq!(transcript(&buf), vec![(0, 0)]);
        assert_eq!(ingress.recv(&mut buf, usize::MAX, within(SOON)), 0);
    }

    /// What a read decoded beyond `max` is served by the next call ahead
    /// of anything newer, without a socket being touched: bytes written
    /// in between are still in the kernel when the surplus comes out.
    #[test]
    fn surplus_beyond_max_is_served_first_and_in_order() {
        let (mut ingress, addr) = ingress();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&frames(0, 0..10)).expect("write");
        let mut buf = Vec::new();
        assert_eq!(ingress.recv(&mut buf, 4, within(PATIENT)), 4);
        stream.write_all(&frames(0, 10..13)).expect("write");
        assert_eq!(
            ingress.recv(&mut buf, usize::MAX, within(PATIENT)),
            6,
            "the surplus only: no read happened"
        );
        assert_eq!(ingress.recv(&mut buf, usize::MAX, within(PATIENT)), 3);
        let expect: Vec<_> = (0..13).map(|s| (0, s)).collect();
        assert_eq!(transcript(&buf), expect);
    }

    /// The deadline is exact: a 300 µs wait takes 300 µs, not the 0 or
    /// 1 000 µs a millisecond timeout would round it to.
    #[test]
    fn a_sub_millisecond_wait_is_neither_cut_short_nor_rounded_up() {
        let (mut ingress, addr) = ingress();
        // One accepted, idle connection, so the wait covers a socket.
        let _idle = TcpStream::connect(addr).expect("connect");
        let mut buf = Vec::new();
        assert_eq!(ingress.recv(&mut buf, usize::MAX, within(SOON)), 0);
        assert_eq!(ingress.socks.conns.len(), 1);

        let wait = Duration::from_micros(300);
        let mut fastest = Duration::MAX;
        for _ in 0..20 {
            let t0 = Instant::now();
            assert_eq!(ingress.recv(&mut buf, usize::MAX, Some(t0 + wait)), 0);
            let took = t0.elapsed();
            assert!(took >= wait, "returned after {took:?}");
            fastest = fastest.min(took);
        }
        // The scheduler may delay any one return; not all twenty.
        assert!(
            fastest < Duration::from_millis(1),
            "fastest of 20 waits took {fastest:?}"
        );
    }

    /// A peer that closes mid-frame after `j` whole frames yields exactly
    /// those `j`, and the connection is forgotten.
    #[test]
    fn a_stream_cut_mid_frame_yields_the_whole_frames_and_is_forgotten() {
        let (mut ingress, addr) = ingress();
        for j in [0u64, 1, 9] {
            let mut bytes = frames(0, 0..j);
            let half = frames(0, j..j + 1);
            bytes.extend_from_slice(&half[..half.len() / 2]);
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&bytes).expect("write");
            drop(stream);
            let mut buf = Vec::new();
            while ingress.recv(&mut buf, usize::MAX, within(SOON)) > 0 {}
            let expect: Vec<_> = (0..j).map(|s| (0, s)).collect();
            assert_eq!(transcript(&buf), expect, "cut after {j} whole frames");
            assert!(ingress.socks.conns.is_empty(), "closed connection kept");
        }
    }

    fn done(txn: u64) -> Done {
        Done {
            txn,
            node: 0,
            decision: 1,
        }
    }

    fn done_frames(txns: std::ops::Range<u64>) -> Vec<u8> {
        let mut bytes = Vec::new();
        for t in txns {
            write_frame::<M>(&AnyFrame::Done(done(t)), &mut bytes);
        }
        bytes
    }

    fn reports(txns: std::ops::Range<u64>) -> impl Iterator<Item = AnyFrame<M>> {
        txns.map(|t| AnyFrame::Done(done(t)))
    }

    /// A connection that said `Hello` as `client`, taken in by `ingress`
    /// (the marker envelope behind the `Hello` is what ends the wait).
    fn hello(ingress: &mut SocketIngress<M>, addr: SocketAddr, client: usize) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut bytes = Vec::new();
        write_frame::<M>(&AnyFrame::Hello { client }, &mut bytes);
        bytes.extend(frames(client, 0..1));
        stream.write_all(&bytes).expect("write");
        let mut buf = Vec::new();
        assert_eq!(ingress.recv(&mut buf, usize::MAX, within(PATIENT)), 1);
        stream
    }

    /// One blocking read: what the peer's last write put on the wire.
    fn segment(stream: &mut TcpStream) -> Vec<u8> {
        let mut got = vec![0u8; READ_CHUNK];
        let n = stream.read(&mut got).expect("read");
        got.truncate(n);
        got
    }

    /// Whether nothing at all has reached `stream`.
    fn silent(stream: &TcpStream) -> bool {
        stream.set_nonblocking(true).expect("non-blocking");
        let mut half = stream;
        let got = half.read(&mut [0u8; 16]);
        stream.set_nonblocking(false).expect("blocking");
        matches!(got, Err(e) if e.kind() == ErrorKind::WouldBlock)
    }

    /// A reply call is one write: the connection that said `Hello` reads
    /// exactly the frames of each call, in order, one segment per call.
    #[test]
    fn a_hello_connection_reads_each_reply_call_as_one_segment_in_order() {
        let (mut ingress, addr) = ingress();
        let mut client = hello(&mut ingress, addr, 7);
        let bystander = hello(&mut ingress, addr, 8);
        for txns in [0..3, 3..4, 4..9] {
            assert!(ingress.reply(7, reports(txns.clone())));
            assert_eq!(segment(&mut client), done_frames(txns));
        }
        assert!(silent(&bystander), "a reply reached another client");
    }

    /// The newest connection to say `Hello` with an id is where that id's
    /// replies go (a client that redialed is reading the new one).
    #[test]
    fn a_second_hello_for_the_same_id_re_routes_the_replies() {
        let (mut ingress, addr) = ingress();
        let mut first = hello(&mut ingress, addr, 7);
        assert!(ingress.reply(7, reports(0..1)));
        assert_eq!(segment(&mut first), done_frames(0..1));
        let mut second = hello(&mut ingress, addr, 7);
        assert!(ingress.reply(7, reports(1..3)));
        assert_eq!(segment(&mut second), done_frames(1..3));
        assert!(silent(&first), "the replaced connection was written");
    }

    /// A reply nobody can receive is dropped, and the caller is told: an
    /// id no connection announced, a connection that closed since, and any
    /// reply through a channel inbox.
    #[test]
    fn a_reply_to_an_unknown_or_closed_client_is_dropped_and_says_so() {
        let (mut ingress, addr) = ingress();
        assert!(!ingress.reply(3, reports(0..1)), "nobody said Hello yet");
        let client = hello(&mut ingress, addr, 3);
        assert!(!ingress.reply(4, reports(0..1)), "nobody said Hello as 4");
        assert!(ingress.reply(3, reports(0..1)));
        drop(client);
        // The end of stream is read, and the connection forgotten, by the
        // next wait.
        let mut buf = Vec::new();
        assert_eq!(ingress.recv(&mut buf, usize::MAX, within(SOON)), 0);
        assert!(ingress.socks.conns.is_empty(), "closed connection kept");
        assert!(!ingress.reply(3, reports(1..2)), "its Hello went with it");

        let (_tx, rx) = unbounded::<ToNode<M>>();
        assert!(!Inbox::Channel(rx).reply(3, reports(0..1)));
    }

    /// A multi-process client's end: its reply ingress, its transport
    /// connected to a listener the test holds, and the accepted stream —
    /// on which its `Hello` arrived ahead of everything else.
    fn dialed(client: usize) -> (ReplyIngress, TcpTransport, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        let (mut transport, replies) = TcpTransport::new(vec![addr]).hello(client);
        transport.send(0, net(client, 0));
        let (mut node_end, _) = listener.accept().expect("accept");
        let mut said = Vec::new();
        write_frame::<M>(&AnyFrame::Hello { client }, &mut said);
        let mut got = vec![0u8; said.len()];
        node_end.read_exact(&mut got).expect("read the handshake");
        assert_eq!(got, said, "Hello must be the first frame on the wire");
        (replies, transport, node_end)
    }

    /// The client-side source, same shape as the node's: half a `Done`
    /// completes nothing, the whole one is delivered once, and a read half
    /// at end of stream is forgotten.
    #[test]
    fn a_done_split_across_two_writes_reaches_the_client_once_after_the_second() {
        let (mut replies, _transport, mut node_end) = dialed(5);
        let bytes = done_frames(0..1);
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        let mut buf = Vec::new();

        node_end.write_all(head).expect("write head");
        let t0 = Instant::now();
        assert_eq!(replies.recv(&mut buf, usize::MAX, t0 + SOON), 0);
        assert!(t0.elapsed() >= SOON, "an incomplete frame ended the wait");

        node_end.write_all(tail).expect("write tail");
        let patient = Instant::now() + PATIENT;
        assert_eq!(replies.recv(&mut buf, usize::MAX, patient), 1);
        assert_eq!(buf, vec![done(0)]);

        drop(node_end);
        assert_eq!(replies.recv(&mut buf, usize::MAX, Instant::now() + SOON), 0);
        assert!(replies.socks.conns.is_empty(), "closed read half kept");
    }

    /// The arrival schedule parks on this wait: 300 µs must take 300 µs on
    /// the client's end as well.
    #[test]
    fn a_sub_millisecond_reply_wait_is_neither_cut_short_nor_rounded_up() {
        let (mut replies, _transport, _node_end) = dialed(5);
        let mut buf = Vec::new();
        let wait = Duration::from_micros(300);
        let mut fastest = Duration::MAX;
        for _ in 0..20 {
            let t0 = Instant::now();
            assert_eq!(replies.recv(&mut buf, usize::MAX, t0 + wait), 0);
            let took = t0.elapsed();
            assert!(took >= wait, "returned after {took:?}");
            fastest = fastest.min(took);
        }
        assert_eq!(replies.socks.conns.len(), 1, "the wait covered a socket");
        assert!(
            fastest < Duration::from_millis(1),
            "fastest of 20 waits took {fastest:?}"
        );
    }
}
