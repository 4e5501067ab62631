//! Per-layer probes: each layer measured from outside, by timing calls
//! into its public API.
//!
//! A probe repetition runs its operation in batches for at least the
//! repetition's duration and yields time per operation. Repetitions are
//! interleaved between the episodes of a traced run, and the reported
//! value is the favourable tail across them (`stats::favourable`) — the
//! same interference-rejecting estimator the end-to-end timings use.
//! Probes run on the calling thread; the two hand-off probes park a partner
//! thread that echoes.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ac_cluster::codec::write_frame;
use ac_cluster::{AnyFrame, Attribution, FrameDecoder, TcpNode, TcpTransport, ToNode, Transport};
use ac_commit::problem::COMMIT;
use ac_commit::protocols::{Inbac, PaxosCommit, ProtocolKind, TwoPc};
use ac_commit::{CommitProtocol, Scenario};
use ac_obs::{FlightEvent, FlightRecorder, FlightStage, NodeObs, Stage};
use ac_runtime::{NodeEvent, NodeLoop, Slab, UnitClock};
use ac_sim::Wire;
use ac_txn::workload::{Workload, WorkloadConfig};
use ac_txn::{Key, Shard, Transaction, Wal, WalRecord};
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::host::Calibration;
use crate::metrics::Value;
use crate::spans::Recorder;
use crate::stats::{favourable, percentile_f64, Better};
use crate::workloads::{WorkloadSpec, KEYS_PER_SHARD, NODES};

/// A timed probe: `run(min)` measures for at least `min` and returns the
/// value of one repetition in the probe's unit.
struct Probe {
    name: &'static str,
    unit: &'static str,
    better: Better,
    /// Span name of the probe's batch (`probe.<layer>`).
    span: &'static str,
    run: Box<dyn FnMut(Duration) -> f64>,
    samples: Vec<f64>,
}

/// Run `batch` (which performs `ops` operations) until `min` has passed;
/// nanoseconds per operation.
fn ns_per_op(min: Duration, ops: u64, mut batch: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut done = 0u64;
    loop {
        batch();
        done += ops;
        let spent = t0.elapsed();
        if spent >= min {
            return spent.as_nanos() as f64 / done as f64;
        }
    }
}

fn probe(
    name: &'static str,
    unit: &'static str,
    span: &'static str,
    run: impl FnMut(Duration) -> f64 + 'static,
) -> Probe {
    Probe {
        name,
        unit,
        better: Better::Lower,
        span,
        run: Box::new(run),
        samples: Vec::new(),
    }
}

/// `k` node loops in one thread, driving one protocol instance from
/// `open` through `deliver`/`fire_next` to a decision at every rank, then
/// `close` — the runtime's share of a transaction, without threads,
/// channels or wall-clock waiting (timers fire at their virtual due
/// instants).
struct InstanceCycle<P: CommitProtocol> {
    nodes: Vec<NodeLoop<P>>,
    queue: VecDeque<(usize, usize, P::Msg)>,
    resilience: usize,
    unit: Duration,
    epoch: Instant,
    next_id: u64,
}

impl<P: CommitProtocol> InstanceCycle<P> {
    fn new(k: usize, resilience: usize) -> InstanceCycle<P> {
        let unit = Duration::from_millis(5);
        InstanceCycle {
            nodes: (0..k)
                .map(|r| NodeLoop::new(r, k, UnitClock::new(unit)))
                .collect(),
            queue: VecDeque::new(),
            resilience,
            unit,
            epoch: Instant::now(),
            next_id: 1,
        }
    }

    /// Run one instance to a unanimous commit. When `wire` is given,
    /// every message that crosses ranks is cloned into it.
    fn cycle(&mut self, mut wire: Option<&mut Vec<P::Msg>>) {
        let k = self.nodes.len();
        let id = self.next_id;
        self.next_id += 1;
        // Each instance gets a later epoch, so timers left behind by
        // earlier instances surface first and are discarded, as they are
        // in the live node loop where wall time moves on.
        self.epoch += self.unit * 64;
        let mut now = self.epoch;
        let mut decided = 0usize;
        let queue = &mut self.queue;
        macro_rules! sink {
            ($from:expr) => {
                &mut |ev: NodeEvent<P::Msg>| match ev {
                    NodeEvent::Send { to, msg, .. } => queue.push_back((to, $from, msg)),
                    NodeEvent::Decided { value, .. } => {
                        assert_eq!(value, COMMIT, "an all-yes nice instance aborted");
                        decided += 1;
                    }
                }
            };
        }
        for (r, node) in self.nodes.iter_mut().enumerate() {
            node.fire_due(now, sink!(r)); // discards stale timers only
            node.open_as(id, P::new(r, k, self.resilience, true), r, k, now, sink!(r));
        }
        loop {
            while let Some((to, from, msg)) = queue.pop_front() {
                if to != from {
                    if let Some(w) = wire.as_deref_mut() {
                        w.push(msg.clone());
                    }
                }
                self.nodes[to].deliver(id, from, msg, now, sink!(to));
            }
            if decided == k {
                break;
            }
            let (r, due) = self
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(r, n)| n.next_due().map(|d| (r, d)))
                .min_by_key(|&(_, d)| d)
                .expect("undecided instance with no message and no timer");
            now = now.max(due);
            self.nodes[r].fire_next(now, sink!(r));
        }
        for node in &mut self.nodes {
            node.close(id);
        }
    }
}

/// The service's transaction-id shape: (client, sequence) packed.
fn txn_id(i: u64) -> u64 {
    ((i % 2 + 1) << 32) | (i / 2 + 1)
}

fn generator(shape: Workload) -> ac_txn::workload::WorkloadGen {
    WorkloadConfig {
        shards: NODES,
        keys_per_shard: KEYS_PER_SHARD,
        workload: shape,
        seed: 0xACBE_0001,
    }
    .generator()
}

/// A partner thread that echoes every envelope it receives; dropping the
/// handle sends `Shutdown` to its inbox and joins it.
struct Echo<M> {
    inbox: Sender<ToNode<M>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl<M> Drop for Echo<M> {
    fn drop(&mut self) {
        let _ = self.inbox.send(ToNode::Shutdown);
        if let Some(h) = self.handle.take() {
            // A panicking echo thread already failed the probe loudly.
            let _ = h.join();
        }
    }
}

type Envelope<P> = ToNode<<P as ac_sim::Automaton>::Msg>;

/// Ping-pong over two in-process channels; one-way microseconds.
fn channel_handoff<P>() -> impl FnMut(Duration) -> f64
where
    P: CommitProtocol + 'static,
    P::Msg: Send + 'static,
{
    let (to_echo, echo_rx) = unbounded::<Envelope<P>>();
    let (to_main, main_rx) = unbounded::<Envelope<P>>();
    let handle = std::thread::spawn(move || {
        while let Ok(env) = echo_rx.recv() {
            if matches!(env, ToNode::Shutdown) || to_main.send(env).is_err() {
                break;
            }
        }
    });
    let echo = Echo {
        inbox: to_echo,
        handle: Some(handle),
    };
    move |min| {
        let mut i = 0u64;
        ns_per_op(min, 2, || {
            i += 1;
            echo.inbox
                .send(ToNode::End { txn: i })
                .expect("echo thread gone");
            black_box(main_rx.recv().expect("echo thread gone"));
        }) / 1e3
    }
}

/// A loopback listener feeding an inbox channel.
fn listener<P>() -> (TcpNode, Sender<Envelope<P>>, Receiver<Envelope<P>>)
where
    P: CommitProtocol + 'static,
    P::Msg: Wire + Send + 'static,
{
    let (tx, rx) = unbounded::<Envelope<P>>();
    let node = TcpNode::bind("127.0.0.1:0", tx.clone(), None).expect("bind loopback listener");
    (node, tx, rx)
}

/// Ping-pong over two loopback TCP connections (`TcpTransport` →
/// `TcpNode` → inbox, each way); one-way microseconds.
fn tcp_handoff<P>() -> impl FnMut(Duration) -> f64
where
    P: CommitProtocol + 'static,
    P::Msg: Wire + Send + 'static,
{
    let (main_node, _main_tx, main_rx) = listener::<P>();
    let (echo_node, echo_tx, echo_rx) = listener::<P>();
    let mut to_echo = TcpTransport::new(vec![echo_node.addr()]);
    let main_addr = main_node.addr();
    let handle = std::thread::spawn(move || {
        let mut to_main = TcpTransport::new(vec![main_addr]);
        while let Ok(env) = echo_rx.recv() {
            if matches!(env, ToNode::Shutdown) {
                break;
            }
            Transport::<P::Msg>::send(&mut to_main, 0, env);
        }
    });
    let echo = Echo {
        inbox: echo_tx,
        handle: Some(handle),
    };
    move |min| {
        let _keep = (&echo, &main_node, &echo_node);
        let mut i = 0u64;
        ns_per_op(min, 2, || {
            i += 1;
            Transport::<P::Msg>::send(&mut to_echo, 0, ToNode::End { txn: i });
            black_box(main_rx.recv().expect("tcp echo lost"));
        }) / 1e3
    }
}

/// One-way stream of protocol envelopes through `TcpTransport` →
/// `TcpNode`; frames per second.
fn tcp_stream<P>(sample: P::Msg) -> impl FnMut(Duration) -> f64
where
    P: CommitProtocol + 'static,
    P::Msg: Wire + Send + 'static,
{
    const BATCH: usize = 64;
    let (node, _tx, rx) = listener::<P>();
    let mut transport = TcpTransport::new(vec![node.addr()]);
    let mut batch: Vec<Envelope<P>> = Vec::with_capacity(BATCH);
    let mut inbox: Vec<Envelope<P>> = Vec::with_capacity(BATCH);
    move |min| {
        let _keep = &node;
        let ns = ns_per_op(min, BATCH as u64, || {
            batch.extend((0..BATCH as u64).map(|i| ToNode::Net {
                txn: txn_id(i),
                from: 1,
                msg: sample.clone(),
            }));
            transport.send_batch(0, &mut batch);
            let mut got = 0;
            while got < BATCH {
                inbox.clear();
                got += rx
                    .recv_batch(&mut inbox, BATCH)
                    .expect("tcp stream listener gone");
            }
        });
        1e9 / ns
    }
}

fn frame_len<M: Wire>(frame: &AnyFrame<M>) -> usize {
    let mut buf = Vec::new();
    write_frame(frame, &mut buf);
    buf.len()
}

/// Every probe of a run, their repetitions and the exact counts.
pub struct ProbeSet {
    probes: Vec<Probe>,
    exact: Vec<Value>,
    calib: Calibration,
    calib_samples: Vec<f64>,
}

impl ProbeSet {
    /// Build the probes for `spec`'s protocol and transaction shape.
    pub fn new(spec: &WorkloadSpec, sim_msgs: u64) -> ProbeSet {
        match spec.kind {
            ProtocolKind::PaxosCommit => ProbeSet::build::<PaxosCommit>(spec, sim_msgs),
            ProtocolKind::TwoPc => ProbeSet::build::<TwoPc>(spec, sim_msgs),
            ProtocolKind::Inbac => ProbeSet::build::<Inbac>(spec, sim_msgs),
            other => panic!("no workload uses {}", other.name()),
        }
    }

    fn build<P>(spec: &WorkloadSpec, sim_msgs: u64) -> ProbeSet
    where
        P: CommitProtocol + 'static,
        P::Msg: Wire + Send + 'static,
    {
        let k = spec.participants;
        let f = spec.instance_resilience();
        let kind = spec.kind;

        // One untimed instance yields the protocol's real messages: a
        // sample envelope for the codec and transport probes and the
        // bytes one transaction puts on a socket.
        let mut cycle = InstanceCycle::<P>::new(k, f);
        let mut wire_msgs: Vec<P::Msg> = Vec::new();
        cycle.cycle(Some(&mut wire_msgs));
        assert_eq!(
            wire_msgs.len() as u64,
            sim_msgs,
            "the runtime cycle and the simulator disagree on the message count"
        );
        let sample = wire_msgs[0].clone();
        let sample_txn = Arc::new(generator(spec.shape.clone()).next_txn());
        let net_frame = |msg: P::Msg| -> AnyFrame<P::Msg> {
            AnyFrame::Node(ToNode::Net {
                txn: txn_id(7),
                from: 1,
                msg,
            })
        };
        let begin_frame: AnyFrame<P::Msg> = AnyFrame::Node(ToNode::Begin {
            txn: Arc::clone(&sample_txn),
            client: 1,
            retry: false,
        });
        let end_frame: AnyFrame<P::Msg> = AnyFrame::Node(ToNode::End { txn: txn_id(7) });
        // Clients put `Begin` and `End` on the transport too, one each
        // per participant; decision replies stay in process.
        let tcp_bytes_per_txn = wire_msgs
            .iter()
            .map(|m| frame_len(&net_frame(m.clone())))
            .sum::<usize>()
            + k * (frame_len(&begin_frame) + frame_len(&end_frame));
        // The exact (untimed) counts the workload's protocol fixes.
        let exact_bytes =
            |name: &'static str, bytes: usize| Value::new(name, "bytes", bytes as f64, 0);
        let exact = vec![
            Value::new("commit.sim_msgs", "count", sim_msgs as f64, 0),
            exact_bytes("codec.frame_bytes", frame_len(&net_frame(sample.clone()))),
            exact_bytes("codec.begin_frame_bytes", frame_len(&begin_frame)),
            exact_bytes("transport.tcp_bytes_per_txn", tcp_bytes_per_txn),
        ];

        let mut probes = Vec::new();

        probes.push(probe(
            "commit.nice_run_ns",
            "ns",
            "probe.commit",
            move |min| {
                let scenario = Scenario::nice(k, f);
                ns_per_op(min, 8, || {
                    for _ in 0..8 {
                        black_box(kind.run(black_box(&scenario)));
                    }
                })
            },
        ));

        probes.push(probe(
            "runtime.instance_cycle_ns",
            "ns",
            "probe.runtime",
            move |min| {
                ns_per_op(min, 16, || {
                    for _ in 0..16 {
                        cycle.cycle(None);
                    }
                })
            },
        ));

        const LIVE: u64 = 1000;
        let mut slab: Slab<u64> = Slab::new();
        for i in 0..LIVE {
            slab.insert(txn_id(i), i);
        }
        let mut op = 0u64;
        probes.push(probe(
            "runtime.slab_cycle_ns",
            "ns",
            "probe.runtime",
            move |min| {
                ns_per_op(min, 1024, || {
                    for _ in 0..1024 {
                        // Look one instance up, retire it, open a fresh
                        // one: an envelope, an `End` and a `Begin`.
                        let id = txn_id(op % LIVE);
                        black_box(slab.get(id));
                        slab.remove(id);
                        slab.insert(id, op);
                        op += 1;
                    }
                })
            },
        ));

        // Transactions writing one key of shard 0 each.
        let single_key: Vec<Transaction> = (0..1024u64)
            .map(|i| {
                let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % KEYS_PER_SHARD;
                Transaction::new(txn_id(i)).with_write(Key::new(0, k), i as i64)
            })
            .collect();
        let txns = single_key.clone();
        let mut shard = Shard::new(0);
        probes.push(probe(
            "txn.shard_commit_ns",
            "ns",
            "probe.txn",
            move |min| {
                ns_per_op(min, txns.len() as u64, || {
                    for t in &txns {
                        assert!(shard.prepare(t));
                        shard.finish(t, true);
                    }
                })
            },
        ));

        let mut held = Shard::new(0);
        let owner = Transaction::new(txn_id(5000)).with_write(Key::new(0, 42), 1);
        assert!(held.prepare(&owner));
        let loser = Transaction::new(txn_id(5001)).with_write(Key::new(0, 42), 2);
        probes.push(probe(
            "txn.shard_conflict_ns",
            "ns",
            "probe.txn",
            move |min| {
                ns_per_op(min, 1024, || {
                    for _ in 0..1024 {
                        assert!(!held.prepare(black_box(&loser)));
                        held.finish(&loser, false);
                    }
                })
            },
        ));

        for (name, shape) in [
            ("txn.gen_uniform_ns", Workload::Uniform { span: 2 }),
            (
                "txn.gen_skewed_ns",
                Workload::Skewed {
                    span: 2,
                    theta: 0.8,
                },
            ),
        ] {
            let mut gen = generator(shape);
            probes.push(probe(name, "ns", "probe.txn", move |min| {
                ns_per_op(min, 256, || {
                    for _ in 0..256 {
                        black_box(gen.next_txn());
                    }
                })
            }));
        }

        // WAL: stage a prepare and a decide per transaction, as a node
        // does, and force per record or per 64 records.
        for (name, batch_len) in [("txn.wal_force1_ns", 1usize), ("txn.wal_force64_ns", 64)] {
            let bodies: Vec<Arc<Transaction>> = single_key.iter().cloned().map(Arc::new).collect();
            let mut wal = Wal::new();
            let mut batch: Vec<WalRecord> = Vec::with_capacity(batch_len);
            probes.push(probe(name, "ns", "probe.wal", move |min| {
                let per_txn = ns_per_op(min, bodies.len() as u64, || {
                    if wal.len() > (1 << 18) {
                        wal = Wal::new();
                    }
                    for body in &bodies {
                        for rec in [
                            WalRecord::Prepare {
                                txn: Arc::clone(body),
                                client: 0,
                                vote: true,
                            },
                            WalRecord::Decide {
                                txn: body.id,
                                value: COMMIT,
                            },
                        ] {
                            batch.push(rec);
                            if batch.len() == batch_len {
                                wal.force_batch(&mut batch);
                            }
                        }
                    }
                });
                per_txn / 2.0 // two records per transaction
            }));
        }

        let mut log = Wal::new();
        for t in &single_key {
            log.log_prepare(Arc::new(t.clone()), 0, true);
            log.log_decide(t.id, COMMIT);
        }
        probes.push(probe("txn.wal_replay_ns", "ns", "probe.wal", move |min| {
            ns_per_op(min, log.len() as u64, || {
                black_box(log.replay(0));
            })
        }));

        let frame = net_frame(sample.clone());
        let mut buf: Vec<u8> = Vec::with_capacity(256);
        probes.push(probe("codec.encode_ns", "ns", "probe.codec", move |min| {
            ns_per_op(min, 256, || {
                for _ in 0..256 {
                    buf.clear();
                    write_frame(black_box(&frame), &mut buf);
                    black_box(&buf);
                }
            })
        }));

        let mut bytes = Vec::new();
        write_frame(&net_frame(sample.clone()), &mut bytes);
        let mut decoder = FrameDecoder::new();
        probes.push(probe("codec.decode_ns", "ns", "probe.codec", move |min| {
            ns_per_op(min, 256, || {
                for _ in 0..256 {
                    decoder.feed(black_box(&bytes));
                    let frame = decoder
                        .next_frame::<P::Msg>()
                        .expect("a frame the codec wrote must decode");
                    black_box(frame.expect("a whole frame was fed"));
                }
            })
        }));

        let (tx, rx) = unbounded::<Envelope<P>>();
        let mut inbox: Vec<Envelope<P>> = Vec::with_capacity(64);
        probes.push(probe(
            "transport.channel_send_ns",
            "ns",
            "probe.transport",
            move |min| {
                ns_per_op(min, 32, || {
                    for i in 0..32 {
                        tx.send(ToNode::End { txn: i }).expect("receiver is alive");
                    }
                    inbox.clear();
                    rx.recv_batch(&mut inbox, 64).expect("sender is alive");
                    black_box(&inbox);
                })
            },
        ));
        probes.push(probe(
            "transport.channel_handoff_us",
            "us",
            "probe.transport",
            channel_handoff::<P>(),
        ));
        probes.push(probe(
            "transport.tcp_handoff_us",
            "us",
            "probe.transport",
            tcp_handoff::<P>(),
        ));
        probes.push(Probe {
            better: Better::Higher,
            ..probe(
                "transport.tcp_frames_per_s",
                "1/s",
                "probe.transport",
                tcp_stream::<P>(sample),
            )
        });

        let mut obs = NodeObs::new();
        probes.push(probe("obs.record_ns", "ns", "probe.obs", move |min| {
            ns_per_op(min, 1024, || {
                for i in 0..1024u64 {
                    obs.record(Stage::Flush, black_box(Duration::from_nanos(500 + i)));
                }
            })
        }));
        let mut flight = FlightRecorder::default();
        probes.push(probe(
            "obs.flight_record_ns",
            "ns",
            "probe.obs",
            move |min| {
                ns_per_op(min, 1024, || {
                    for i in 0..1024u64 {
                        flight.record(
                            txn_id(i),
                            1,
                            FlightStage::Dispatch,
                            black_box(Duration::from_nanos(i)),
                        );
                    }
                })
            },
        ));

        // 10 000 decided two-participant transactions with complete
        // flight records: what the post-run fold digests.
        const FOLD: u64 = 10_000;
        let decided: Vec<(u64, u64, u64)> = (0..FOLD)
            .map(|i| (txn_id(i), i * 1000, i * 1000 + 100_000))
            .collect();
        let stages = [
            (FlightStage::Dispatch, 10_000),
            (FlightStage::LockAcquired, 11_000),
            (FlightStage::Decided, 90_000),
        ];
        let events: Vec<FlightEvent> = (0..FOLD)
            .flat_map(|i| {
                (0..2u32).flat_map(move |node| {
                    stages.map(|(stage, offset)| FlightEvent {
                        txn: txn_id(i),
                        node,
                        stage,
                        at_nanos: i * 1000 + offset + u64::from(node),
                    })
                })
            })
            .collect();
        probes.push(probe(
            "obs.attribution_ms_per_10k",
            "ms",
            "probe.obs",
            move |min| {
                ns_per_op(min, 1, || {
                    let a = Attribution::compute(&decided, &events, 5, 0);
                    assert_eq!(a.covered, FOLD as usize);
                    black_box(a);
                }) / 1e6
            },
        ));

        ProbeSet {
            probes,
            exact,
            calib: Calibration::new(),
            calib_samples: Vec::new(),
        }
    }

    /// Run one repetition of every probe, each for at least `min`, one
    /// `probe.<layer>` span per layer's batch.
    pub fn run_round(&mut self, min: Duration, trace: u64, rec: &mut Recorder) {
        let mut open: Option<&'static str> = None;
        for p in &mut self.probes {
            if open != Some(p.span) {
                if open.is_some() {
                    rec.exit();
                }
                rec.enter(p.span, trace);
                open = Some(p.span);
            }
            p.samples.push((p.run)(min));
        }
        if open.is_some() {
            rec.exit();
        }
        rec.enter("probe.host", trace);
        self.calib_samples.push(self.calib.sample());
        rec.exit();
    }

    /// The per-layer values: favourable tail of each probe's
    /// repetitions, the exact counts, and the calibration spread.
    pub fn values(&self) -> Vec<Value> {
        let mut out: Vec<Value> = self
            .probes
            .iter()
            .filter(|p| !p.samples.is_empty())
            .map(|p| {
                Value::new(
                    p.name,
                    p.unit,
                    favourable(&p.samples, p.better),
                    p.samples.len() as u64,
                )
            })
            .collect();
        out.extend(self.exact.iter().cloned());
        if !self.calib_samples.is_empty() {
            let n = self.calib_samples.len() as u64;
            for (name, q) in [("host.calib_ns_p10", 10.0), ("host.calib_ns_p90", 90.0)] {
                out.push(Value::new(
                    name,
                    "ns",
                    percentile_f64(&self.calib_samples, q),
                    n,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::Reference;
    use crate::workloads;

    /// The runtime cycle must reproduce the simulator's message count for
    /// every workload's protocol, and every probe must yield a positive
    /// finite value.
    #[test]
    fn every_probe_measures_something_on_every_workload() {
        for spec in workloads::all() {
            let reference = Reference::of(&spec);
            let mut set = ProbeSet::new(&spec, reference.sim_msgs);
            let mut rec = Recorder::new(true);
            set.run_round(Duration::from_micros(200), 0, &mut rec);
            let values = set.values();
            for v in &values {
                assert!(
                    v.value.is_finite() && v.value > 0.0,
                    "{}: {} = {}",
                    spec.name,
                    v.name,
                    v.value
                );
            }
            let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
            assert_eq!(
                names,
                [
                    "probe.commit",
                    "probe.runtime",
                    "probe.txn",
                    "probe.wal",
                    "probe.codec",
                    "probe.transport",
                    "probe.obs",
                    "probe.host"
                ]
            );
        }
    }
}
