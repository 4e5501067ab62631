//! How envelopes move between the threads of a cluster: the send seam, its
//! two implementations, and the one owner of every socket a thread has.
//!
//! Both turns of [`crate::service`] — the node's `flush` step and the
//! client's — stage outbound envelopes per destination in an `Outbox`
//! and hand each destination's batch over at one flush point per
//! turn: nothing writes a socket except a flush, and a flush writes each
//! destination once. Everything above that point — fault policy, delay
//! heap, wire counters, batching — is transport-agnostic; below it bytes
//! (or in-process values) move one of two ways:
//!
//! * into host-owned mailboxes ([`Mailbox`]: one per in-process node and
//!   client, a post is one lock acquisition), or
//! * over TCP, framed by [`crate::codec`], through `Sockets`.
//!
//! ## Mailboxes: one lock per post, one byte per park
//!
//! Every in-process node and client has a [`Mailbox`] — a
//! `Mutex<VecDeque>` — that knows the host draining it by that host's
//! [`Bell`], a `UnixStream` pair whose hearing end is one slot of the
//! host's readiness wait. A post appends its batch under the lock and
//! writes one byte to the bell only if the host is still armed for the
//! park it was armed for when the batch landed: the host arms it before
//! it reads its participants' deadlines (a mailbox that holds something
//! makes its owner due at once) and disarms it after its wait, taking the
//! byte. A post either lands before a deadline reads its mailbox, or
//! finds the bell armed; so nothing posted is left waiting,
//! and a post to a host that is running — every post between co-hosted
//! nodes and clients — is a push with no syscall and no wake-up. A hop
//! between two hosts costs a post and at most one byte per park. Nobody
//! says `Hello` to a mailbox, so node→client replies of the in-process
//! service are posts to the client's mailbox on either transport;
//! [`Mailboxes`] is the [`Transport`] of the in-process channel run,
//! teardown's `Shutdown` included.
//!
//! ## `Sockets`: one owner per socket, one socket per pair
//!
//! `Sockets` holds every connection one node or client has — dialed or
//! accepted — and is the only code that dials, accepts, reads or writes
//! one. **`watch`** adds its listener and every connection to a readiness
//! set, and **`read`** is the pass after the wait (`ppoll(2)`: its
//! `timespec` keeps exact-deadline parking): one `read` per connection the
//! wait found ready, every complete frame decoded and handed on, then
//! every pending connection accepted. A host thread makes **one** wait
//! over its bell and the sockets of every node and dialing client it runs
//! (`Readiness`) and hands each its slots; only a node joining the mesh,
//! [`TcpNode`]'s forwarder and a control exchange wait on one link
//! alone, through a `Readiness` of their own. `EINTR` is "look at the
//! deadline, wait again". **`send`** frames a batch into one blocking `write_all` down
//! the connection to its destination. A hop therefore costs at most one
//! wake-up — of the host thread that acts on the envelope, none when that
//! host is already running — and no thread sits between a socket and a
//! loop.
//!
//! A connection records who is on its far end: the dialing end knows, and
//! says so first — a client `Hello{client}`, a node `Peer{node}` — and the
//! accepting end notes it at the read point (an id out of range forgets
//! the connection). Everything then travels **down the connection that
//! asked**: a node writes a client's decision reports down the newest
//! connection that said `Hello` with its id, and writes to peer `p` on the
//! connection it reads `p` from. At start-up (`SocketLink::mesh`) a node
//! dials every higher id with first-contact patience and waits as long for
//! every lower id's `Peer`, so a failure-free cluster of `n` has
//! `n·(n − 1)/2` node-to-node connections, each carrying data both ways —
//! an answer has something to piggy-back its acknowledgement on. After a
//! loss either end may redial; a sender keeps to its oldest live
//! connection to a peer, so per-sender FIFO holds even while two exist.
//!
//! Four users share it: the node's `Link` (mailbox | sockets: `take`,
//! `pending`, `send_batch`, `reply`), the client's `ClientLink` (the same
//! shape; over sockets it says `Hello` on what it dials and reads its
//! reports off the same connections), the public write-only
//! [`TcpTransport`] (no listener, never polls: in-process clients of a
//! tcp run, teardown, probes), and `Control`, the control exchange of a
//! multi-process run's start barrier and run-end collector: one dialed
//! connection, one frame written, the answer waited for through a
//! `Readiness` of its own up to a deadline. So the collector, too, owns
//! no socket of its own, and nothing outside this module dials, reads or
//! writes one. [`TcpNode`] is a
//! node's socket link *hosted on one thread* that forwards each wait's
//! batch into a crossbeam channel, for callers that want a `Receiver` (the
//! conformance suite, the benchmark probes); the service hosts
//! ([`crate::service`], [`crate::proc`]) do not use it.
//!
//! The readiness wait is the workspace's only foreign call and is
//! declared for Linux, the only platform CI builds.
//!
//! ## Dialing a peer (per peer, whoever dials)
//!
//! ```text
//!         dial ok (30 × 100 ms)           write fails / end of stream:
//!  Fresh ───────────────────────► Reached  connection forgotten, batch
//!    │ every attempt fails         │   ▲   dropped; the next write finds
//!    ▼                             │   │   none and dials once
//!  Backoff (500 ms) ◄──────────────┘   │
//!    │    that one dial fails          │
//!    └─────────────────────────────────┘
//!         next write after the backoff dials once: ok
//! ```
//!
//! First contact retries for seconds (a multi-process cluster starts its
//! nodes concurrently); a peer's `Peer` arriving on an accepted connection
//! counts as reaching it. A failed write never retries in place — frames
//! ahead of the failure point may have been delivered, and the contract is
//! at-most-once — so a down peer costs the batch, exactly like a crashed
//! process: the fault domain the protocols are built for.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ac_obs::{NetMeters, ObsMeters, Stage};
use ac_sim::{ProcessId, Wire};
use crossbeam::channel::{unbounded, Sender};

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
/// Client ids a `Hello` may announce: an id is the high half of a
/// [`TxnId`](ac_txn::TxnId), less one.
const CLIENT_IDS: usize = u32::MAX as usize;

/// Where a sender's outbound envelopes go. Implementations must preserve
/// per-sender FIFO order on a healthy link and must never block
/// indefinitely; delivery is at-most-once (loss on a broken link is the
/// crash fault domain, duplication is never allowed).
pub trait Transport<M>: Send {
    /// Send one envelope to node `to`: a batch of one.
    fn send(&mut self, to: ProcessId, env: ToNode<M>) {
        self.send_batch(to, &mut vec![env]);
    }

    /// Send a batch to node `to`, equivalent to sending each envelope in
    /// order (implementations amortize: one lock, one syscall).
    fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>);

    /// From now on add each socket `write_all` to `meters`'
    /// [`Stage::TcpWrite`] as it returns: the meters of the node or
    /// client that writes. A post to a mailbox writes no socket, and the
    /// default meters nothing.
    fn meter(&mut self, _meters: &Arc<ObsMeters>) {}
}

/// A host's bell: a connected `UnixStream` pair whose hearing end joins
/// the host's readiness wait, so that a post to any mailbox the host
/// drains can end its park. The host arms the bell before it reads its
/// participants' deadlines and disarms it after its wait; in between, the
/// first post that finds it armed disarms it and writes one byte, which
/// the host's disarm reads. So a park costs at most one byte, and a post
/// to a running host — a co-hosted peer's above all — costs no syscall.
pub struct Bell {
    ring: UnixStream,
    hear: UnixStream,
    /// Twice the host's parks so far, plus one from arm to disarm (the
    /// host is parked or about to park).
    state: AtomicU64,
}

impl Bell {
    /// A bell for one host.
    pub fn new() -> Arc<Bell> {
        let (ring, hear) = UnixStream::pair().expect("a Unix socket pair for a host's bell");
        let state = AtomicU64::new(0);
        Arc::new(Bell { ring, hear, state })
    }

    /// The host is about to read its deadlines and park: from now on a
    /// post rings. Every post a deadline misses sees the bell armed.
    pub(crate) fn arm(&self) {
        // The next park, armed. A disarmed bell is one no post changes.
        let was = self.state.fetch_add(3, Ordering::SeqCst);
        debug_assert_eq!(was & 1, 0, "a bell armed twice");
    }

    /// A post's half: ring if the host is still armed for the park that
    /// `seen` (read under the mailbox's lock, after the push) was armed
    /// for. A post whose park is over rings nothing: its batch was taken.
    fn ring(&self, seen: u64) {
        let take = |s| {
            self.state
                .compare_exchange(s, s - 1, Ordering::SeqCst, Ordering::SeqCst)
        };
        if seen & 1 == 1 && take(seen).is_ok() {
            let _ = (&self.ring).write_all(&[1]);
        }
    }

    /// The host's wait is over: disarm, and take the byte of a post that
    /// disarmed the bell first (a write it is about to make, if need be).
    fn disarm(&self) {
        if self.state.fetch_and(!1, Ordering::SeqCst) & 1 == 0 {
            let _ = (&self.hear).read_exact(&mut [0]);
        }
    }
}

/// One in-process participant's inbox, node or client: a queue under a
/// lock, and the bell of the host that drains it. A post is one lock
/// acquisition, and a ring only where that host is parked.
pub struct Mailbox<T> {
    queue: Mutex<VecDeque<T>>,
    bell: Arc<Bell>,
}

impl<T> Mailbox<T> {
    /// An empty mailbox drained by the host that `bell` wakes.
    pub fn new(bell: &Arc<Bell>) -> Arc<Mailbox<T>> {
        let (queue, bell) = (Mutex::default(), Arc::clone(bell));
        Arc::new(Mailbox { queue, bell })
    }

    /// The queue, locked. A poisoned lock is taken as it stands: a post
    /// or a take leaves the queue whole.
    fn queue(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `batch`, in order and under one lock — its drainer takes
    /// all of it or none — then ring the drainer's bell if it is still
    /// armed for the park it was armed for when the batch landed. A ring
    /// that only read the bell now could find the host armed for its next
    /// park, with the batch already taken, and wake it for nothing; a ring
    /// under the lock would keep the host it wakes waiting on the lock.
    pub fn post(&self, batch: &mut Vec<T>) {
        let seen = {
            let mut queue = self.queue();
            queue.extend(batch.drain(..));
            self.bell.state.load(Ordering::SeqCst)
        };
        self.bell.ring(seen);
    }

    /// Move up to `max` of what waits into `buf` (appended), oldest
    /// first, without waiting. Returns how many moved.
    pub fn take(&self, buf: &mut Vec<T>, max: usize) -> usize {
        take(&mut self.queue(), buf, max)
    }

    /// Whether anything waits: its host must not park on it.
    pub fn pending(&self) -> bool {
        !self.queue().is_empty()
    }

    /// Wait, as a host whose one participant this mailbox is, until
    /// something waits or `until` passes (`None` = for ever), then
    /// [`Mailbox::take`]. Returns how many moved; 0 means `until` passed.
    pub fn recv(&self, buf: &mut Vec<T>, max: usize, until: Option<Instant>) -> usize {
        let mut wait = Readiness::default();
        loop {
            self.bell.arm();
            let now = self.pending().then(Instant::now);
            wait.wait(Some(&self.bell), [], now.or(until));
            let k = self.take(buf, max);
            if k > 0 || until.is_some_and(|u| Instant::now() >= u) {
                return k;
            }
        }
    }
}

/// Every in-process node's mailbox, or every client's, by id: what the
/// service's in-process senders post to — one post per destination and
/// flush.
pub type Mailboxes<T> = Arc<[Arc<Mailbox<T>>]>;

/// `count` empty mailboxes, id `i`'s drained by the host that
/// `bells[i mod bells.len()]` wakes.
pub fn mailboxes<T>(count: usize, bells: &[Arc<Bell>]) -> Mailboxes<T> {
    bells.iter().cycle().take(count).map(Mailbox::new).collect()
}

impl<M: Send> Transport<M> for Mailboxes<ToNode<M>> {
    fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>) {
        self[to].post(batch);
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
    /// Returns how many envelopes were handed over.
    pub(crate) fn flush(
        &mut self,
        mut send_batch: impl FnMut(ProcessId, &mut Vec<ToNode<M>>),
    ) -> usize {
        let mut sent = 0;
        for (to, batch) in self.staged.iter_mut().enumerate() {
            if !batch.is_empty() {
                sent += batch.len();
                send_batch(to, batch);
            }
        }
        sent
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

/// Optional behaviors of a node's sockets: transport meters and the
/// clock-echo responder.
#[derive(Clone, Default)]
pub struct NodeHooks {
    /// Socket counters: bytes/frames in, decode errors, resyncs — and,
    /// per peer the node writes to, bytes/frames out, reconnects, dial
    /// failures, outbox high-water.
    pub net: Option<Arc<NetMeters>>,
    /// When set, `EchoReq` frames are answered inline.
    pub echo: Option<EchoResponder>,
}

/// What one socket `read` returned, as a loop that owns the connection
/// must treat it.
#[derive(Debug, PartialEq, Eq)]
enum ReadOutcome {
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
    fn of(result: std::io::Result<usize>) -> ReadOutcome {
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
fn decode_chunk<M: Wire>(
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

/// `struct pollfd` of `poll(2)`: one descriptor's slot of a readiness
/// wait.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// The slot that waits for `fd` to turn readable.
    fn watching(fd: c_int) -> PollFd {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the wait found the descriptor readable, hung up or in
    /// error.
    pub(crate) fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

/// `POLLIN` on Linux.
const POLLIN: c_short = 0x001;

/// One readiness wait over `fds`: `false` when `until` passed with
/// nothing ready (`None` = wait for ever). A signal is neither a timeout
/// nor a dead socket: the wait resumes for what is left of the deadline.
fn wait(fds: &mut [PollFd], until: Option<Instant>) -> bool {
    loop {
        let timeout = until.map(|u| u.saturating_duration_since(Instant::now()));
        match wait_readable(fds, timeout) {
            Ok(ready) => return ready > 0,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("ppoll on {} descriptors: {e}", fds.len()),
        }
    }
}

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

/// Who is on the far end of a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Far {
    /// The client that said `Hello` with this id.
    Client(usize),
    /// A node: the one dialed, or the one that said `Peer` with this id.
    Peer(ProcessId),
}

/// How dialing a peer stands (see the module docs for the diagram).
/// Whether it is connected right now is whether a connection to it lives.
enum PeerState {
    /// Never reached yet: first contact gets the long retry loop.
    Fresh,
    /// Reached before: a write that finds no connection dials once.
    Reached,
    /// Unreachable; do not dial before the stored instant.
    Backoff(Instant),
}

/// One connection: the socket, its frame boundary state and, once known,
/// who is on its far end.
struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    far: Option<Far>,
}

/// Every socket one thread has, and the only code that dials, accepts,
/// reads or writes one (see the module docs). Nothing of it is visible
/// outside this module but its name.
pub(crate) struct Sockets {
    /// Accepted from, non-blocking (only a node has one).
    listener: Option<TcpListener>,
    /// In the order they were accepted or dialed.
    conns: Vec<Conn>,
    chunk: Vec<u8>,
    /// Where each peer listens and how dialing it stands.
    peers: Vec<(SocketAddr, PeerState)>,
    /// What this end says first on every connection it dials.
    greeting: Vec<u8>,
    /// The frames of the write in progress.
    out: Vec<u8>,
    net: Option<Arc<NetMeters>>,
    /// Where each `write_all` of `send` is metered ([`Stage::TcpWrite`]);
    /// connection establishment is not write time (a first-contact dial
    /// retries for seconds).
    meters: Option<Arc<ObsMeters>>,
}

impl Sockets {
    /// Sockets that dial `peers[to]` for destination `to`, saying
    /// `greeting` (if any) first.
    fn new(peers: Vec<SocketAddr>, greeting: Option<AnyFrame<()>>) -> Sockets {
        let mut socks = Sockets {
            listener: None,
            conns: Vec::new(),
            chunk: vec![0u8; READ_CHUNK],
            peers: Vec::new(),
            greeting: Vec::new(),
            out: Vec::new(),
            net: None,
            meters: None,
        };
        socks.dials(peers, greeting);
        socks
    }

    /// Sockets that accept on `addr` (and dial nobody yet).
    fn listen<A: ToSocketAddrs>(addr: A, net: Option<Arc<NetMeters>>) -> std::io::Result<Sockets> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Sockets {
            listener: Some(listener),
            net,
            ..Sockets::new(Vec::new(), None)
        })
    }

    /// Connect to `addr`, trying up to `attempts` times [`INITIAL_GAP`]
    /// apart ([`INITIAL_ATTEMPTS`] is first-contact patience, 1 a
    /// reconnect): the one dial.
    fn connect(addr: SocketAddr, attempts: u32) -> Option<TcpStream> {
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

    fn dials(&mut self, peers: Vec<SocketAddr>, greeting: Option<AnyFrame<()>>) {
        self.peers = peers.into_iter().map(|a| (a, PeerState::Fresh)).collect();
        self.greeting.clear();
        if let Some(frame) = greeting {
            write_frame(&frame, &mut self.greeting);
        }
    }

    /// Append this end's slots to a readiness set: the listener's (an
    /// idle slot without one), then every connection's, in order.
    fn watch(&self, fds: &mut Vec<PollFd>) {
        // The kernel skips a negative descriptor: no listener, an idle slot.
        let accepting = self.listener.as_ref().map_or(-1, AsRawFd::as_raw_fd);
        let reading = self.conns.iter().map(|c| c.stream.as_raw_fd());
        let slots = std::iter::once(accepting).chain(reading);
        fds.extend(slots.map(PollFd::watching));
    }

    /// The read pass over `ready`, this end's slots of a wait that has
    /// returned ([`Sockets::watch`]'s order): one `read` per ready
    /// connection — `Hello` / `Peer` noted on the connection, every other
    /// frame it completed handed to `route`, and what `route` wrote into
    /// its answer buffer written back in one `write_all` — then every
    /// pending connection accepted. A connection at end of stream, in
    /// error, past a lost frame boundary, announcing an id out of range or
    /// not taking its answer is forgotten. Returns whether any slot was
    /// ready: bytes, an end of stream or a connection moved.
    fn read<M: Wire>(
        &mut self,
        ready: &[PollFd],
        mut route: impl FnMut(AnyFrame<M>, &mut Vec<u8>),
    ) -> bool {
        let Some((accept, polled)) = ready.split_first() else {
            return false;
        };
        let (chunk, out, peers) = (&mut self.chunk, &mut self.out, &mut self.peers);
        let net = self.net.as_deref();
        let mut polled = polled.iter();
        let mut touched = false;
        self.conns.retain_mut(|conn| {
            // A connection the wait did not watch is looked at next time.
            if !polled.next().is_some_and(PollFd::is_ready) {
                return true;
            }
            touched = true;
            let Conn { stream, dec, far } = conn;
            let mut stream = &*stream;
            let n = match ReadOutcome::of(stream.read(chunk)) {
                ReadOutcome::Data(n) => n,
                ReadOutcome::Retry => return true,
                ReadOutcome::Closed => return false,
            };
            out.clear();
            let whole = decode_chunk(dec, &chunk[..n], net, |frame| {
                let said = match frame {
                    AnyFrame::Hello { client } => {
                        (client < CLIENT_IDS).then_some(Far::Client(client))
                    }
                    AnyFrame::Peer { node } => (node < peers.len()).then_some(Far::Peer(node)),
                    frame => {
                        route(frame, out);
                        return ControlFlow::Continue(());
                    }
                };
                match (said, net) {
                    (Some(Far::Peer(p)), _) => peers[p].1 = PeerState::Reached,
                    (None, Some(net)) => net.decode_error(),
                    _ => {}
                }
                *far = said;
                // An id out of range: refused, not indexed.
                said.map_or(ControlFlow::Break(()), |_| ControlFlow::Continue(()))
            });
            whole && (out.is_empty() || stream.write_all(out).is_ok())
        });

        if accept.is_ready() {
            touched = true;
            // Not in this wait's set: first looked at by the next one.
            let listener = self.listener.as_ref();
            while let Some(Ok((stream, _))) = listener.map(TcpListener::accept) {
                let _ = stream.set_nodelay(true);
                self.conns.push(Conn {
                    stream,
                    dec: FrameDecoder::new(),
                    far: None,
                });
            }
        }
        touched
    }

    /// The connection to write `to` on. A client's is the newest that
    /// said `Hello` with its id (a client that redialed reads the new
    /// one); a peer's is the oldest that lives — a sender never switches
    /// while it does, so its frames stay in order — and, when none does,
    /// one dialed now if the peer's state allows an attempt.
    fn conn_to(&mut self, to: Far) -> Option<usize> {
        let is_to = |c: &Conn| c.far == Some(to);
        let p = match to {
            Far::Client(_) => return self.conns.iter().rposition(is_to),
            Far::Peer(p) => p,
        };
        if let Some(i) = self.conns.iter().position(is_to) {
            return Some(i);
        }
        let attempts = match self.peers[p].1 {
            PeerState::Fresh => INITIAL_ATTEMPTS,
            PeerState::Backoff(until) if Instant::now() < until => return None,
            PeerState::Reached | PeerState::Backoff(_) => 1,
        };
        self.dial(p, attempts)
    }

    /// Dial peer `p` within `attempts` tries and say this end's greeting
    /// first: the new connection's index, or `None` with the peer in
    /// backoff. A peer reached once, or given up on once, is metered as a
    /// *reconnect* (first contact is not).
    fn dial(&mut self, p: ProcessId, attempts: u32) -> Option<usize> {
        let (addr, state) = &mut self.peers[p];
        let reached = !matches!(state, PeerState::Fresh);
        let Some(stream) = Sockets::connect(*addr, attempts) else {
            *state = PeerState::Backoff(Instant::now() + RECONNECT_BACKOFF);
            if let Some(net) = &self.net {
                net.dial_failed(p);
            }
            return None;
        };
        *state = PeerState::Reached;
        if let (true, Some(net)) = (reached, &self.net) {
            net.reconnected(p);
        }
        let _ = (&stream).write_all(&self.greeting);
        self.conns.push(Conn {
            stream,
            dec: FrameDecoder::new(),
            far: Some(Far::Peer(p)),
        });
        Some(self.conns.len() - 1)
    }

    /// Frame `frames` into one blocking `write_all` down the connection
    /// to `to`. `false` means they were dropped: no connection (an id no
    /// live connection announced, a peer in backoff or refusing the dial),
    /// or the write failed — which forgets the connection and sends
    /// nothing again: frames ahead of the failure may have arrived. The
    /// next write to that peer redials; a client redials itself.
    fn send<M: Wire>(&mut self, to: Far, frames: impl IntoIterator<Item = AnyFrame<M>>) -> bool {
        self.out.clear();
        let mut count = 0;
        for frame in frames {
            write_frame(&frame, &mut self.out);
            count += 1;
        }
        if let Some((net, p)) = self.peer_meters(to) {
            net.outbox_depth(p, count);
        }
        let Some(i) = self.conn_to(to) else {
            return false;
        };
        let t0 = Instant::now();
        let sent = (&self.conns[i].stream).write_all(&self.out).is_ok();
        if let Some(meters) = &self.meters {
            meters.add(Stage::TcpWrite, t0.elapsed().as_nanos() as u64);
        }
        if !sent {
            self.conns.remove(i);
        } else if let Some((net, p)) = self.peer_meters(to) {
            net.sent(p, count, self.out.len() as u64);
        }
        sent
    }

    /// The per-peer egress counters a write to `to` is metered into.
    fn peer_meters(&self, to: Far) -> Option<(&NetMeters, ProcessId)> {
        match (to, &self.net) {
            (Far::Peer(p), Some(net)) => Some((net, p)),
            _ => None,
        }
    }
}

/// Move up to `max` of the items a wait decoded into `buf`.
fn take<T>(ready: &mut VecDeque<T>, buf: &mut Vec<T>, max: usize) -> usize {
    let k = ready.len().min(max);
    buf.extend(ready.drain(..k));
    k
}

/// Where a node's read pass puts one frame: protocol and control
/// envelopes queue for the node, an `EchoReq` is answered inline, and what
/// a node never receives is ignored.
fn route<M: Wire>(
    echo: &Option<EchoResponder>,
    ready: &mut VecDeque<ToNode<M>>,
    frame: AnyFrame<M>,
    answer: &mut Vec<u8>,
) {
    match frame {
        AnyFrame::Node(env) => ready.push_back(env),
        AnyFrame::EchoReq { seq, t0_nanos } => {
            if let Some(echo) = echo {
                let resp = AnyFrame::EchoResp {
                    seq,
                    t0_nanos,
                    node: echo.node,
                    node_nanos: echo.epoch.elapsed().as_nanos() as u64,
                };
                write_frame::<M>(&resp, answer);
            }
        }
        _ => {}
    }
}

/// The one readiness wait of a host thread: its bell and every slot of
/// every participant's sockets in one `ppoll(2)`, each participant's
/// slots kept apart so that its read pass ([`SocketLink::take`],
/// [`ClientLink::take`]) reads what the wait found ready and waits for
/// nothing.
#[derive(Default)]
pub(crate) struct Readiness {
    /// The set of the last wait: the bell's slot, if any, then
    /// participant after participant (allocation reused).
    fds: Vec<PollFd>,
    /// Where each participant's slots start in `fds`, then where the last
    /// ends.
    starts: Vec<usize>,
}

impl Readiness {
    /// Wait until `bell` (armed by the caller) rings, a slot of `socks`
    /// is ready or `until` passes (`None` = for ever), then disarm the
    /// bell; a participant given as `None` watches nothing. With no
    /// socket to look at, a deadline already behind makes no syscall.
    /// `false` when `until` passed with nothing ready.
    pub(crate) fn wait<'a>(
        &mut self,
        bell: Option<&Bell>,
        socks: impl IntoIterator<Item = Option<&'a Sockets>>,
        until: Option<Instant>,
    ) -> bool {
        self.fds.clear();
        self.starts.clear();
        let rung = bell.map(|b| PollFd::watching(b.hear.as_raw_fd()));
        self.fds.extend(rung);
        for socks in socks {
            self.starts.push(self.fds.len());
            if let Some(socks) = socks {
                socks.watch(&mut self.fds);
            }
        }
        self.starts.push(self.fds.len());
        let socketless = self.fds.len() == usize::from(bell.is_some());
        let due = socketless && until.is_some_and(|u| u <= Instant::now());
        let woke = !due && wait(&mut self.fds, until);
        if let Some(bell) = bell {
            bell.disarm();
        }
        woke
    }

    /// Participant `i`'s slots of the last wait (none for one it did not
    /// cover).
    pub(crate) fn of(&self, i: usize) -> &[PollFd] {
        match self.starts.get(i..i + 2) {
            Some(&[from, to]) => &self.fds[from..to],
            _ => &[],
        }
    }
}

/// A node's end of the TCP transport, waited on and written by the thread
/// that dispatches what it delivers (see the module docs): its
/// [`Sockets`] and the envelopes decoded but not yet taken.
pub(crate) struct SocketLink<M> {
    socks: Sockets,
    echo: Option<EchoResponder>,
    /// Node-bound envelopes in arrival order — per connection, stream
    /// order. What a wait decoded beyond the caller's `max` stays here
    /// and is served before any socket is touched again.
    ready: VecDeque<ToNode<M>>,
}

impl<M: Wire> SocketLink<M> {
    /// Listen on `addr`.
    pub(crate) fn bind<A: ToSocketAddrs>(addr: A, hooks: NodeHooks) -> std::io::Result<Self> {
        Ok(SocketLink {
            socks: Sockets::listen(addr, hooks.net)?,
            echo: hooks.echo,
            ready: VecDeque::new(),
        })
    }

    /// The bound address (useful with port 0).
    pub(crate) fn addr(&self) -> std::io::Result<SocketAddr> {
        let listener = self.socks.listener.as_ref().expect("bound in `bind`");
        listener.local_addr()
    }

    /// Join the cluster as node `me` of `nodes`: dial every higher id,
    /// saying `Peer`, then take what arrives until every lower id has said
    /// its own — each with first-contact patience. One connection per pair
    /// results; a peer that missed its turn is dialed by the first write
    /// that wants it.
    pub(crate) fn mesh(&mut self, me: ProcessId, nodes: Vec<SocketAddr>) {
        self.socks.dials(nodes, Some(AnyFrame::Peer { node: me }));
        for p in me + 1..self.socks.peers.len() {
            self.socks.conn_to(Far::Peer(p));
        }
        let patience = Instant::now() + INITIAL_ATTEMPTS * INITIAL_GAP;
        let mut wait = Readiness::default();
        let met = |s: &Sockets, p| s.conns.iter().any(|c| c.far == Some(Far::Peer(p)));
        while !(0..me).all(|p| met(&self.socks, p)) && self.poll(&mut wait, Some(patience)) {}
    }

    /// Take without waiting: the read pass over `ready`, this link's
    /// slots of its host's wait — unless envelopes a previous pass decoded
    /// still wait, which are served before any socket is touched again —
    /// then up to `max` of the decoded envelopes into `buf` (appended).
    /// Returns whether a slot was ready (see [`Sockets::read`]).
    pub(crate) fn take(&mut self, ready: &[PollFd], buf: &mut Vec<ToNode<M>>, max: usize) -> bool {
        let touched = self.ready.is_empty() && self.read(ready);
        take(&mut self.ready, buf, max);
        touched
    }

    /// One wait of this link alone, through `wait`, then its read pass.
    /// `false` when `until` passed with nothing ready.
    fn poll(&mut self, wait: &mut Readiness, until: Option<Instant>) -> bool {
        let woke = wait.wait(None, [Some(&self.socks)], until);
        if woke {
            self.read(wait.of(0));
        }
        woke
    }

    /// The read pass over `ready` (see [`SocketLink::take`]).
    fn read(&mut self, ready: &[PollFd]) -> bool {
        let (echo, queue) = (&self.echo, &mut self.ready);
        self.socks
            .read(ready, |frame, answer| route(echo, queue, frame, answer))
    }

    /// How many connections the link holds, dialed and accepted.
    #[cfg(test)]
    pub(crate) fn connections(&self) -> usize {
        self.socks.conns.len()
    }

    /// One write to peer `to`, down the pair's connection.
    pub(crate) fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>) {
        let frames = batch.drain(..).map(AnyFrame::Node);
        self.socks.send(Far::Peer(to), frames);
    }
}

/// What ties a node to the rest of the cluster — where its `drain` step
/// gets envelopes and its `flush` step puts them: the seam with exactly
/// two arms.
pub(crate) enum Link<M> {
    /// In process: node `.0`'s place among every node's mailbox (`.1`).
    /// Its host drains its own, and it posts to the others.
    Mailbox(ProcessId, Mailboxes<ToNode<M>>),
    /// The node's own sockets.
    Sockets(SocketLink<M>),
}

impl<M: Wire + Send> Link<M> {
    /// Take what is ready without waiting: up to `max` of what waits in
    /// the node's mailbox, or [`SocketLink::take`] over `ready`, this
    /// link's slots of its host's wait, into `buf` (appended). Returns
    /// whether anything moved or a slot was ready.
    pub(crate) fn take(&mut self, ready: &[PollFd], buf: &mut Vec<ToNode<M>>, max: usize) -> bool {
        match self {
            Link::Mailbox(me, nodes) => nodes[*me].take(buf, max) > 0,
            Link::Sockets(link) => link.take(ready, buf, max),
        }
    }

    /// The sockets a host's wait covers for this link (none in process).
    pub(crate) fn sockets(&self) -> Option<&Sockets> {
        match self {
            Link::Mailbox(..) => None,
            Link::Sockets(link) => Some(&link.socks),
        }
    }

    /// Whether envelopes wait beyond what was taken — in the mailbox, or
    /// decoded by a read but beyond a batch: the host must not park on
    /// them.
    pub(crate) fn pending(&self) -> bool {
        match self {
            Link::Mailbox(me, nodes) => nodes[*me].pending(),
            Link::Sockets(link) => !link.ready.is_empty(),
        }
    }

    /// Hand `batch` to node `to`: one post, or one socket write.
    pub(crate) fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>) {
        match self {
            Link::Mailbox(_, nodes) => nodes[to].post(batch),
            Link::Sockets(link) => link.send_batch(to, batch),
        }
    }

    /// One write to `client`, down the connection it said `Hello` on: the
    /// road back to a client whose requests arrive through this link.
    /// `false` means the frames were dropped. Nobody says `Hello` to a
    /// mailbox, so a mailbox link drops every reply.
    pub(crate) fn reply(
        &mut self,
        client: usize,
        frames: impl IntoIterator<Item = AnyFrame<M>>,
    ) -> bool {
        match self {
            Link::Mailbox(..) => false,
            Link::Sockets(link) => link.socks.send(Far::Client(client), frames),
        }
    }

    /// Meter the link's socket writes into `meters` (see
    /// [`Transport::meter`]).
    pub(crate) fn meter(&mut self, meters: &Arc<ObsMeters>) {
        if let Link::Sockets(link) = self {
            link.socks.meters = Some(Arc::clone(meters));
        }
    }
}

/// What ties a client to the nodes — where its flush puts `Begin`s and
/// `End`s and where its turn takes decision reports: the seam with exactly
/// two arms, shaped like [`Link`].
pub(crate) enum ClientLink<M> {
    /// In process: a write-only transport out (the nodes' mailboxes, or
    /// sockets to a tcp cluster), the client's own mailbox in.
    InProcess(Box<dyn Transport<M>>, Arc<Mailbox<Done>>),
    /// A multi-process client: sockets that say `Hello` on every
    /// connection they dial, and the reports read off them but not yet
    /// taken.
    Sockets(Sockets, VecDeque<Done>),
}

impl<M: Wire> ClientLink<M> {
    /// The link of multi-process client `client` to the nodes at `nodes`.
    pub(crate) fn dialing(client: usize, nodes: Vec<SocketAddr>) -> ClientLink<M> {
        let socks = Sockets::new(nodes, Some(AnyFrame::Hello { client }));
        ClientLink::Sockets(socks, VecDeque::new())
    }

    /// Take without waiting: what the mailbox holds, or the read pass over
    /// `ready`, this link's slots of its host's wait — unless reports a
    /// previous pass decoded still wait — then up to `max` of the decoded
    /// reports, into `buf` (appended). Nodes send a client nothing else
    /// that it folds in; a connection at end of stream is forgotten (the
    /// next write to that node redials). Returns whether a report moved or
    /// a slot was ready (see [`Sockets::read`]).
    pub(crate) fn take(&mut self, ready: &[PollFd], buf: &mut Vec<Done>, max: usize) -> bool {
        match self {
            ClientLink::InProcess(_, inbox) => inbox.take(buf, max) > 0,
            ClientLink::Sockets(socks, queue) => {
                let touched = queue.is_empty()
                    && socks.read::<M>(ready, |frame, _| {
                        if let AnyFrame::Done(d) = frame {
                            queue.push_back(d);
                        }
                    });
                take(queue, buf, max);
                touched
            }
        }
    }

    /// Whether reports are queued that [`ClientLink::take`] would move:
    /// the host must not park on them.
    pub(crate) fn pending(&self) -> bool {
        match self {
            ClientLink::InProcess(_, inbox) => inbox.pending(),
            ClientLink::Sockets(_, queue) => !queue.is_empty(),
        }
    }

    /// The sockets a host's wait covers for this link (none in process).
    pub(crate) fn sockets(&self) -> Option<&Sockets> {
        match self {
            ClientLink::InProcess(..) => None,
            ClientLink::Sockets(socks, _) => Some(socks),
        }
    }

    /// Hand `batch` to node `to`.
    pub(crate) fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>) {
        match self {
            ClientLink::InProcess(transport, _) => transport.send_batch(to, batch),
            ClientLink::Sockets(socks, _) => {
                socks.send(Far::Peer(to), batch.drain(..).map(AnyFrame::Node));
            }
        }
    }

    /// Meter the link's socket writes into `meters` (see
    /// [`Transport::meter`]).
    pub(crate) fn meter(&mut self, meters: &Arc<ObsMeters>) {
        match self {
            ClientLink::InProcess(transport, _) => transport.meter(meters),
            ClientLink::Sockets(socks, _) => socks.meters = Some(Arc::clone(meters)),
        }
    }
}

/// The write-only socket transport: `Sockets` with no listener that
/// never polls — one lazily dialed connection per peer, nothing said
/// first, nothing read. For senders that are answered some other way (an
/// in-process client, teardown, a probe).
pub struct TcpTransport(Sockets);

impl TcpTransport {
    /// A transport that will dial `peers[to]` for destination `to`.
    pub fn new(peers: Vec<SocketAddr>) -> TcpTransport {
        TcpTransport(Sockets::new(peers, None))
    }

    /// Record egress into `meters` (builder style). The meters' peer
    /// table should match this transport's peer count.
    pub fn with_net(mut self, meters: Arc<NetMeters>) -> TcpTransport {
        self.0.net = Some(meters);
        self
    }
}

impl<M: Wire + Send> Transport<M> for TcpTransport {
    fn send_batch(&mut self, to: ProcessId, batch: &mut Vec<ToNode<M>>) {
        let frames = batch.drain(..).map(AnyFrame::Node);
        self.0.send(Far::Peer(to), frames);
    }

    fn meter(&mut self, meters: &Arc<ObsMeters>) {
        self.0.meters = Some(Arc::clone(meters));
    }
}

/// A control exchange with one node, beside the serving path: the start
/// barrier's and the run-end collector's (`crate::proc`). Its `Sockets`
/// dial the node and say `Hello` first if asked; each [`Control::ask`]
/// writes one frame and waits through a [`Readiness`] of its own for the
/// answer. Every frame here is `M = ()`: the control tags carry no
/// protocol payload.
pub(crate) struct Control(Sockets);

impl Control {
    /// Dial the node at `addr` within `attempts` tries, saying `greeting`
    /// first when given.
    pub(crate) fn dial(
        addr: SocketAddr,
        attempts: u32,
        greeting: Option<AnyFrame<()>>,
    ) -> Option<Control> {
        let mut socks = Sockets::new(vec![addr], greeting);
        socks.dial(0, attempts).map(|_| Control(socks))
    }

    /// Write `frame`, then wait for the first frame `want` accepts,
    /// skipping anything else (a straggling echo answer after a lost
    /// round), up to `patience`. The exchange is lockstep, so what arrives
    /// behind the accepted frame in the same read is dropped. `None` when
    /// the write failed, the connection closed or `patience` ran out.
    pub(crate) fn ask<T>(
        &mut self,
        frame: AnyFrame<()>,
        patience: Duration,
        mut want: impl FnMut(AnyFrame<()>) -> Option<T>,
    ) -> Option<T> {
        let (socks, mut wait, mut found) = (&mut self.0, Readiness::default(), None);
        let until = Some(Instant::now() + patience);
        let mut open = socks.send(Far::Peer(0), [frame]);
        while open && found.is_none() && wait.wait(None, [Some(&*socks)], until) {
            socks.read::<()>(wait.of(0), |frame, _| {
                found = found.take().or_else(|| want(frame));
            });
            open = !socks.conns.is_empty();
        }
        found
    }
}

/// What a [`TcpNode`] asks of its host thread.
enum Ctl {
    /// Forget every connection, then acknowledge.
    DropConnections(Sender<()>),
    Stop,
}

/// A node's socket link hosted on a thread of its own, forwarding what
/// each wait decoded into an ordinary crossbeam channel with one
/// `send_batch` — for a receiving loop that wants a `Receiver` rather
/// than the link itself.
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
        let mut link = SocketLink::<M>::bind(addr, hooks.unwrap_or_default())?;
        let addr = link.addr()?;
        let (ctl, asked) = unbounded::<Ctl>();
        let host = std::thread::spawn(move || {
            let (mut batch, mut wait) = (Vec::new(), Readiness::default());
            loop {
                link.poll(&mut wait, None);
                while let Ok(ctl) = asked.try_recv() {
                    match ctl {
                        Ctl::DropConnections(done) => {
                            // The listener and what is decoded stay.
                            link.socks.conns.clear();
                            let _ = done.send(());
                        }
                        Ctl::Stop => return,
                    }
                }
                // Receiver gone: nobody is left to read for.
                if take(&mut link.ready, &mut batch, usize::MAX) > 0
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
        let _ = Sockets::connect(self.addr, 1);
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
}

impl Drop for TcpNode {
    /// Stop accepting, close every connection, join the host thread.
    fn drop(&mut self) {
        if let Some(host) = self.host.take() {
            self.ask(Ctl::Stop);
            let _ = host.join();
        }
    }
}

#[cfg(test)]
mod tests {
    //! A node's socket link and a multi-process client's alone, each
    //! waited on through a host's `Readiness`: real loopback sockets, no
    //! node, no thread.

    use super::*;

    type M = u64;

    impl SocketLink<M> {
        /// [`Link::reply`] on this link alone.
        fn reply(&mut self, client: usize, frames: impl IntoIterator<Item = AnyFrame<M>>) -> bool {
            self.socks.send(Far::Client(client), frames)
        }

        /// A lone member's host short of the node: wait on the link's
        /// sockets until a read pass decoded something or `until` passes
        /// (`None` = for ever), then take up to `max` into `buf`. Returns
        /// how many moved; 0 means the deadline passed.
        fn recv(&mut self, buf: &mut Vec<ToNode<M>>, max: usize, until: Option<Instant>) -> usize {
            let mut wait = Readiness::default();
            while self.ready.is_empty() {
                if !wait.wait(None, [Some(&self.socks)], until) {
                    return 0;
                }
                self.read(wait.of(0));
            }
            let before = buf.len();
            self.take(&[], buf, max);
            buf.len() - before
        }
    }

    impl ClientLink<M> {
        /// A lone dialing client's host short of the client: wait on the
        /// link's sockets and take what the read pass decoded, until a
        /// report moved or `until` passed, taking up to `max` into `buf`.
        /// Returns how many moved; 0 means the deadline passed.
        fn recv(&mut self, buf: &mut Vec<Done>, max: usize, until: Instant) -> usize {
            let (before, mut wait) = (buf.len(), Readiness::default());
            while buf.len() == before && wait.wait(None, [self.sockets()], Some(until)) {
                self.take(wait.of(0), buf, max);
            }
            buf.len() - before
        }
    }

    fn link() -> (SocketLink<M>, SocketAddr) {
        let net = Some(Arc::new(NetMeters::new(2)));
        let hooks = NodeHooks { net, echo: None };
        let link = SocketLink::bind("127.0.0.1:0", hooks).expect("bind loopback");
        let addr = link.addr().expect("listener address");
        (link, addr)
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

    /// What `link` receives within `wait`, as a [`transcript`].
    fn received(link: &mut SocketLink<M>, wait: Duration) -> Vec<(usize, u64)> {
        let mut buf = Vec::new();
        link.recv(&mut buf, usize::MAX, within(wait));
        transcript(&buf)
    }

    fn within(wait: Duration) -> Option<Instant> {
        Some(Instant::now() + wait)
    }

    const SOON: Duration = Duration::from_millis(100);
    const PATIENT: Duration = Duration::from_secs(10);

    /// A ring counts only for the park its post read the bell in: once
    /// that park is over (the host disarmed, took the batch and armed
    /// again), the ring writes nothing; a ring for the current park writes
    /// the park's one byte, and a second post of the same park no other.
    #[test]
    fn a_ring_for_a_park_that_is_over_writes_nothing() {
        let bell = Bell::new();
        bell.hear
            .set_nonblocking(true)
            .expect("a non-blocking bell");
        let heard = || (&bell.hear).read(&mut [0]).is_ok();
        bell.arm();
        let late = bell.state.load(Ordering::SeqCst);
        bell.disarm();
        bell.arm();
        bell.ring(late);
        assert!(!heard(), "a ring for a park that is over wrote a byte");
        let now = bell.state.load(Ordering::SeqCst);
        bell.ring(now);
        bell.ring(now);
        assert!(heard(), "the park's ring wrote no byte");
        assert!(!heard(), "one byte per park");
    }

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
        let (mut link, addr) = link();
        let mut senders: Vec<TcpTransport> =
            (0..5).map(|_| TcpTransport::new(vec![addr])).collect();
        for (p, t) in senders.iter_mut().enumerate() {
            let mut batch: Vec<_> = (0..7).map(|s| net(p, s)).collect();
            t.send_batch(0, &mut batch);
        }
        let seen = received(&mut link, PATIENT);
        assert_eq!(seen.len(), 5 * 7, "one wake must take every connection");
        for p in 0..5 {
            let stream: Vec<u64> = seen.iter().filter(|e| e.0 == p).map(|e| e.1).collect();
            assert_eq!(stream, (0..7).collect::<Vec<_>>(), "connection {p}");
        }
    }

    /// Half a frame completes nothing — the wake it causes is not handed
    /// to the caller — and the whole frame is delivered once.
    #[test]
    fn a_frame_split_across_two_writes_is_delivered_once_after_the_second() {
        let (mut link, addr) = link();
        let bytes = frames(0, 0..1);
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        let mut stream = TcpStream::connect(addr).expect("connect");

        stream.write_all(head).expect("write head");
        let t0 = Instant::now();
        assert_eq!(received(&mut link, SOON), vec![]);
        assert!(t0.elapsed() >= SOON, "an incomplete frame ended the wait");

        stream.write_all(tail).expect("write tail");
        assert_eq!(received(&mut link, PATIENT), vec![(0, 0)]);
        assert_eq!(received(&mut link, SOON), vec![]);
    }

    /// What a read decoded beyond `max` is served by the next call ahead
    /// of anything newer, without a socket being touched: bytes written
    /// in between are still in the kernel when the surplus comes out.
    #[test]
    fn surplus_beyond_max_is_served_first_and_in_order() {
        let (mut link, addr) = link();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&frames(0, 0..10)).expect("write");
        let mut buf = Vec::new();
        assert_eq!(link.recv(&mut buf, 4, within(PATIENT)), 4);
        stream.write_all(&frames(0, 10..13)).expect("write");
        assert_eq!(
            link.recv(&mut buf, usize::MAX, within(PATIENT)),
            6,
            "the surplus only: no read happened"
        );
        assert_eq!(link.recv(&mut buf, usize::MAX, within(PATIENT)), 3);
        let expect: Vec<_> = (0..13).map(|s| (0, s)).collect();
        assert_eq!(transcript(&buf), expect);
    }

    /// The fastest of 20 waits of 300 µs through `wait`: none may be cut
    /// short, and not all twenty may be rounded up to the 1 000 µs a
    /// millisecond timeout would make of them.
    fn assert_exact_deadline(mut wait: impl FnMut(Instant) -> usize) {
        let patience = Duration::from_micros(300);
        let mut fastest = Duration::MAX;
        for _ in 0..20 {
            let t0 = Instant::now();
            assert_eq!(wait(t0 + patience), 0);
            let took = t0.elapsed();
            assert!(took >= patience, "returned after {took:?}");
            fastest = fastest.min(took);
        }
        // The scheduler may delay any one return; not all twenty.
        assert!(
            fastest < Duration::from_millis(1),
            "fastest of 20 waits took {fastest:?}"
        );
    }

    #[test]
    fn a_sub_millisecond_wait_is_neither_cut_short_nor_rounded_up() {
        let (mut link, addr) = link();
        // One accepted, idle connection, so the wait covers a socket.
        let _idle = TcpStream::connect(addr).expect("connect");
        assert_eq!(received(&mut link, SOON), vec![]);
        assert_eq!(link.socks.conns.len(), 1);
        let mut buf = Vec::new();
        assert_exact_deadline(|until| link.recv(&mut buf, usize::MAX, Some(until)));
    }

    /// A peer that closes mid-frame after `j` whole frames yields exactly
    /// those `j`, and the connection is forgotten.
    #[test]
    fn a_stream_cut_mid_frame_yields_the_whole_frames_and_is_forgotten() {
        let (mut link, addr) = link();
        for j in [0u64, 1, 9] {
            let mut bytes = frames(0, 0..j);
            let half = frames(0, j..j + 1);
            bytes.extend_from_slice(&half[..half.len() / 2]);
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&bytes).expect("write");
            drop(stream);
            let mut buf = Vec::new();
            while link.recv(&mut buf, usize::MAX, within(SOON)) > 0 {}
            let expect: Vec<_> = (0..j).map(|s| (0, s)).collect();
            assert_eq!(transcript(&buf), expect, "cut after {j} whole frames");
            assert!(link.socks.conns.is_empty(), "closed connection kept");
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

    /// A connection to `addr` that introduces itself with `first` (a
    /// `Hello` or a `Peer`) and a marker envelope behind it.
    fn introduce(addr: SocketAddr, first: AnyFrame<M>) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut bytes = Vec::new();
        write_frame(&first, &mut bytes);
        bytes.extend(frames(9, 0..1));
        stream.write_all(&bytes).expect("write");
        stream
    }

    /// [`introduce`], taken in by `link` (the marker ends the wait).
    fn introduced(link: &mut SocketLink<M>, addr: SocketAddr, first: AnyFrame<M>) -> TcpStream {
        let stream = introduce(addr, first);
        assert_eq!(received(link, PATIENT), vec![(9, 0)]);
        stream
    }

    fn hello(link: &mut SocketLink<M>, addr: SocketAddr, client: usize) -> TcpStream {
        introduced(link, addr, AnyFrame::Hello { client })
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
        let (mut link, addr) = link();
        let mut client = hello(&mut link, addr, 7);
        let bystander = hello(&mut link, addr, 8);
        for txns in [0..3, 3..4, 4..9] {
            assert!(link.reply(7, reports(txns.clone())));
            assert_eq!(segment(&mut client), done_frames(txns));
        }
        assert!(silent(&bystander), "a reply reached another client");
    }

    /// The newest connection to say `Hello` with an id is where that id's
    /// replies go (a client that redialed is reading the new one).
    #[test]
    fn a_second_hello_for_the_same_id_re_routes_the_replies() {
        let (mut link, addr) = link();
        let mut first = hello(&mut link, addr, 7);
        assert!(link.reply(7, reports(0..1)));
        assert_eq!(segment(&mut first), done_frames(0..1));
        let mut second = hello(&mut link, addr, 7);
        assert!(link.reply(7, reports(1..3)));
        assert_eq!(segment(&mut second), done_frames(1..3));
        assert!(silent(&first), "the replaced connection was written");
    }

    /// A reply nobody can receive is dropped, and the caller is told: an
    /// id no connection announced, a connection that closed since, and any
    /// reply through a mailbox link.
    #[test]
    fn a_reply_to_an_unknown_or_closed_client_is_dropped_and_says_so() {
        let (mut link, addr) = link();
        assert!(!link.reply(3, reports(0..1)), "nobody said Hello yet");
        let client = hello(&mut link, addr, 3);
        assert!(!link.reply(4, reports(0..1)), "nobody said Hello as 4");
        assert!(link.reply(3, reports(0..1)));
        drop(client);
        // The end of stream is read, and the connection forgotten, by the
        // next wait.
        assert_eq!(received(&mut link, SOON), vec![]);
        assert!(link.socks.conns.is_empty(), "closed connection kept");
        assert!(!link.reply(3, reports(1..2)), "its Hello went with it");

        let mut in_process = Link::<M>::Mailbox(0, mailboxes(0, &[]));
        assert!(!in_process.reply(3, reports(0..1)));
    }

    /// An introduction whose id the link could not have handed out — a
    /// `Peer` beyond the cluster, a `Hello` beyond what a transaction id
    /// encodes — is refused where it is read: counted, the connection
    /// forgotten with whatever followed on it, nothing indexed by it.
    #[test]
    fn an_introduction_with_an_id_out_of_range_forgets_the_connection() {
        let (mut link, addr) = link();
        link.mesh(0, vec![addr]);
        let refused = [
            AnyFrame::Peer { node: 1 },
            AnyFrame::Peer { node: usize::MAX },
            AnyFrame::Hello { client: CLIENT_IDS },
        ];
        for (i, first) in refused.into_iter().enumerate() {
            let _stream = introduce(addr, first);
            assert_eq!(received(&mut link, SOON), vec![], "served a refused peer");
            assert!(link.socks.conns.is_empty(), "refused connection kept");
            let errors = link.socks.net.as_ref().expect("metered").snapshot();
            assert_eq!(errors.decode_errors, i as u64 + 1);
        }
    }

    /// Two nodes, one connection: the lower id dials and says `Peer`, the
    /// higher finds it while joining, and each writes to the other on it.
    #[test]
    fn a_pair_of_nodes_shares_the_one_connection_the_lower_id_dialed() {
        let ((mut low, low_addr), (mut high, high_addr)) = (link(), link());
        let nodes = vec![low_addr, high_addr];
        low.mesh(0, nodes.clone());
        high.mesh(1, nodes);
        for round in 0..3 {
            low.send_batch(1, &mut vec![net(0, round)]);
            assert_eq!(received(&mut high, PATIENT), vec![(0, round)]);
            high.send_batch(0, &mut vec![net(1, round)]);
            assert_eq!(received(&mut low, PATIENT), vec![(1, round)]);
        }
        // Nothing is left to accept at either end, and neither dialed again.
        assert_eq!(received(&mut low, SOON), vec![]);
        assert_eq!(received(&mut high, SOON), vec![]);
        assert_eq!((low.socks.conns.len(), high.socks.conns.len()), (1, 1));
        let egress = high.socks.net.as_ref().expect("metered").snapshot();
        assert_eq!(
            egress.peers[0].frames_out, 3,
            "answers are metered per peer"
        );
        assert_eq!(egress.peers[0].reconnects, 0);
    }

    /// After a loss both ends may redial, and for a while two connections
    /// join a pair. A sender keeps to the oldest that lives — switching
    /// could overtake its own frames — and moves on only when that one is
    /// gone; a failed write drops its batch and the next one redials.
    #[test]
    fn a_sender_keeps_to_its_oldest_live_connection_to_a_peer() {
        let (mut high, addr) = link();
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind the peer");
        // Joining waits for the lower id's `Peer`: have it there already.
        let mut first = introduce(addr, AnyFrame::Peer { node: 0 });
        high.mesh(1, vec![peer.local_addr().expect("peer address"), addr]);
        assert_eq!(received(&mut high, PATIENT), vec![(9, 0)]);
        let mut second = introduced(&mut high, addr, AnyFrame::Peer { node: 0 });
        high.send_batch(0, &mut vec![net(1, 0)]);
        assert_eq!(segment(&mut first), frames(1, 0..1));
        assert!(silent(&second), "switched while the older one lived");

        drop(first);
        assert_eq!(received(&mut high, SOON), vec![], "the end of stream");
        high.send_batch(0, &mut vec![net(1, 1)]);
        assert_eq!(segment(&mut second), frames(1, 1..2));

        // With none left the next write dials — once, as a reconnect.
        drop(second);
        assert_eq!(received(&mut high, SOON), vec![]);
        high.send_batch(0, &mut vec![net(1, 2)]);
        let (mut redialed, _) = peer.accept().expect("the node dialed its peer");
        let mut said = Vec::new();
        write_frame::<M>(&AnyFrame::Peer { node: 1 }, &mut said);
        said.extend(frames(1, 2..3));
        let mut got = vec![0u8; said.len()];
        redialed.read_exact(&mut got).expect("read");
        assert_eq!(got, said, "Peer must be the first frame on the wire");
        let egress = high.socks.net.as_ref().expect("metered").snapshot();
        assert_eq!(egress.peers[0].reconnects, 1);
    }

    /// A multi-process client's link connected to a listener the test
    /// holds, and the accepted stream — on which its `Hello` arrived ahead
    /// of everything else.
    fn dialed(client: usize) -> (ClientLink<M>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        let mut link = ClientLink::dialing(client, vec![addr]);
        link.send_batch(0, &mut vec![net(client, 0)]);
        let (mut node_end, _) = listener.accept().expect("accept");
        let mut said = Vec::new();
        write_frame::<M>(&AnyFrame::Hello { client }, &mut said);
        let mut got = vec![0u8; said.len()];
        node_end.read_exact(&mut got).expect("read the handshake");
        assert_eq!(got, said, "Hello must be the first frame on the wire");
        (link, node_end)
    }

    /// The client's end, same shape as the node's: half a `Done` completes
    /// nothing, the whole one is delivered once — read off the connection
    /// the request was written on — and a connection at end of stream is
    /// forgotten.
    #[test]
    fn a_done_split_across_two_writes_reaches_the_client_once_after_the_second() {
        let (mut link, mut node_end) = dialed(5);
        let bytes = done_frames(0..1);
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        let mut buf = Vec::new();

        node_end.write_all(head).expect("write head");
        let t0 = Instant::now();
        assert_eq!(link.recv(&mut buf, usize::MAX, t0 + SOON), 0);
        assert!(t0.elapsed() >= SOON, "an incomplete frame ended the wait");

        node_end.write_all(tail).expect("write tail");
        let patient = Instant::now() + PATIENT;
        assert_eq!(link.recv(&mut buf, usize::MAX, patient), 1);
        assert_eq!(buf, vec![done(0)]);

        drop(node_end);
        assert_eq!(link.recv(&mut buf, usize::MAX, Instant::now() + SOON), 0);
        let ClientLink::Sockets(socks, _) = link else {
            unreachable!("built by `dialing`")
        };
        assert!(socks.conns.is_empty(), "closed connection kept");
    }

    /// The arrival schedule parks on this wait: 300 µs must take 300 µs on
    /// the client's end as well.
    #[test]
    fn a_sub_millisecond_reply_wait_is_neither_cut_short_nor_rounded_up() {
        let (mut link, _node_end) = dialed(5);
        let mut buf = Vec::new();
        assert_exact_deadline(|until| link.recv(&mut buf, usize::MAX, until));
    }
}
