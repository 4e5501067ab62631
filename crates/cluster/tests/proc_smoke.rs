//! Multi-process smoke tests: a real cluster of four `ac-node` OS
//! processes plus one `ac-client` process on loopback, driven over TCP end
//! to end. The tests parse each process's audit line and check the global
//! contract: value conserved across shards, no locks left, no orphaned
//! envelopes, no stalls, no split decisions — also when a node, the one
//! that dials or the one that is dialed, comes up after the client — read
//! the seam meters of the cluster dump the client collected, and count the
//! threads and the sockets each process serves with.

use std::collections::{HashMap, HashSet};
use std::io::Read as _;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ac_obs::{ClusterDump, FlightStage, Stage};

const N: usize = 4;
const CLIENTS: usize = 2;

/// Reserve `n` loopback ports by binding port 0 and dropping the
/// listeners. A race with another process re-grabbing the port is
/// possible but vanishingly rare; the spawn below fails loudly if so.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

/// Threads of process `pid` right now (0 once it is gone).
fn threads_of(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/task")).map_or(0, |tasks| tasks.count())
}

/// Socket descriptors process `pid` holds right now: its listener and
/// every connection it dialed or accepted (an `ac-node` is started with
/// no socket among its standard streams).
fn sockets_of(pid: u32) -> usize {
    let Ok(fds) = std::fs::read_dir(format!("/proc/{pid}/fd")) else {
        return 0;
    };
    let target = |fd: std::io::Result<std::fs::DirEntry>| std::fs::read_link(fd.ok()?.path()).ok();
    let is_socket = |to: &std::path::PathBuf| to.to_string_lossy().starts_with("socket:");
    fds.filter_map(target).filter(is_socket).count()
}

/// The exited `child`'s stdout; panics unless it succeeded.
fn output_of(child: &mut Child, what: &str) -> String {
    let status = child.wait().expect("wait");
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut out)
        .expect("read stdout");
    assert!(status.success(), "{what} exited with {status}: {out}");
    out
}

/// Parse `key=value` pairs from an audit line tail.
fn fields(line: &str) -> HashMap<String, i64> {
    line.split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .map(|(k, v)| (k.to_string(), v.parse().expect("numeric audit field")))
        .collect()
}

/// What one cluster run printed, the dump its client collected, and the
/// most threads any `ac-node` /
/// the `ac-client`, and the most sockets each `ac-node`, was seen with
/// while the client was running.
struct Run {
    client: HashMap<String, i64>,
    nodes: Vec<HashMap<String, i64>>,
    dump: ClusterDump,
    node_threads: usize,
    client_threads: usize,
    node_sockets: Vec<usize>,
}

/// Boot the cluster `spec` describes (node addresses appended here) —
/// `ac-node` number `late.0` only `late.1` after `ac-client` — and wait
/// for every process, killing the lot at a deadline so a wedged process
/// fails the test instead of hanging the suite.
fn run_cluster(tag: &str, spec: &str, late: (usize, Duration)) -> Run {
    let mut spec = spec.to_string();
    for (i, p) in free_ports(N).iter().enumerate() {
        spec.push_str(&format!("node {i} = 127.0.0.1:{p}\n"));
    }
    let spec_path =
        std::env::temp_dir().join(format!("ac-proc-smoke-{tag}-{}.spec", std::process::id()));
    std::fs::write(&spec_path, spec).expect("write spec");
    let dump_path = spec_path.with_extension("dump");
    let node = |i: usize| {
        Command::new(env!("CARGO_BIN_EXE_ac-node"))
            .arg("--spec")
            .arg(&spec_path)
            .arg("--id")
            .arg(i.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn ac-node")
    };

    let on_time = (0..N).filter(|&i| i != late.0);
    let mut nodes: Vec<(usize, Child)> = on_time.map(|i| (i, node(i))).collect();
    let mut client = Command::new(env!("CARGO_BIN_EXE_ac-client"))
        .arg("--spec")
        .arg(&spec_path)
        .arg("--obs-out")
        .arg(&dump_path)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ac-client");
    let started = Instant::now();
    let (mut node_threads, mut client_threads) = (0, 0);
    let mut node_sockets = vec![0; N];
    while client.try_wait().expect("try_wait").is_none() {
        if nodes.len() < N && started.elapsed() >= late.1 {
            nodes.push((late.0, node(late.0)));
        }
        client_threads = client_threads.max(threads_of(client.id()));
        for (i, n) in &nodes {
            node_threads = node_threads.max(threads_of(n.id()));
            node_sockets[*i] = node_sockets[*i].max(sockets_of(n.id()));
        }
        if started.elapsed() > Duration::from_secs(120) {
            for child in nodes.iter_mut().map(|n| &mut n.1).chain([&mut client]) {
                let _ = child.kill();
            }
            panic!("the cluster did not finish before the deadline");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let client_out = output_of(&mut client, "ac-client");
    nodes.sort_by_key(|n| n.0);
    let node_outs: Vec<String> = nodes
        .iter_mut()
        .map(|(i, n)| output_of(n, &format!("ac-node {i}")))
        .collect();
    let _ = std::fs::remove_file(&spec_path);
    let dump = std::fs::read(&dump_path).expect("ac-client wrote its dump");
    let _ = std::fs::remove_file(&dump_path);

    let audit = |out: &str, prefix: &str| {
        let line = out.lines().find(|l| l.starts_with(prefix));
        fields(line.unwrap_or_else(|| panic!("no `{prefix}` line in: {out}")))
    };
    Run {
        client: audit(&client_out, "client audit"),
        nodes: (0..N)
            .map(|i| audit(&node_outs[i], &format!("node {i} audit")))
            .collect(),
        dump: ClusterDump::from_bytes(&dump).expect("a valid cluster dump"),
        node_threads,
        client_threads,
        node_sockets,
    }
}

#[test]
fn four_process_cluster_serves_a_transfer_workload() {
    const TXNS: usize = 15;
    let spec = format!(
        "protocol = 2PC\nf = 1\nunit_ms = 5\nkeys_per_shard = 64\n\
         clients = {CLIENTS}\ntxns_per_client = {TXNS}\n\
         workload = transfer:5\nseed = 11\n"
    );
    let run = run_cluster("transfer", &spec, (N - 1, Duration::ZERO));

    // Client contract: every transaction decided, atomically.
    let c = &run.client;
    assert_eq!(c["stalled"], 0, "stalled transactions: {c:?}");
    assert_eq!(c["split"], 0, "split decisions: {c:?}");
    assert_eq!(c["txns"], (CLIENTS * TXNS) as i64, "transactions lost");
    assert_eq!(c["committed"] + c["aborted"], c["txns"], "{c:?}");

    // Node contract: transfers conserve value across the cluster, all
    // locks released, nothing orphaned.
    for (i, f) in run.nodes.iter().enumerate() {
        assert_eq!(f["locked"], 0, "node {i} left locks held: {f:?}");
        assert_eq!(f["orphaned"], 0, "node {i} orphaned envelopes: {f:?}");
    }
    let grand_total: i64 = run.nodes.iter().map(|f| f["total"]).sum();
    assert_eq!(grand_total, 0, "transfer workload must conserve value");

    // Every seam meter is added where it is observed, so the export each
    // node answered the collector with already holds it: every node wrote
    // to a socket, and every node that voted yes on a committed transfer
    // (each participant of one: both write there) released a lock hold.
    assert!(c["committed"] > 0, "nothing committed: {c:?}");
    let dump = &run.dump;
    assert_eq!(dump.exports.len(), N, "one export per node");
    let committed: HashSet<u64> = dump
        .txns
        .iter()
        .filter(|t| t.committed)
        .map(|t| t.id)
        .collect();
    for e in &dump.exports {
        let count = |stage: Stage| e.meters[stage as usize].0;
        assert!(
            count(Stage::TcpWrite) > 0,
            "node {}: {:?}",
            e.node,
            e.meters
        );
        let voted = |f: &&ac_obs::FlightEvent| f.stage == FlightStage::LockAcquired;
        if e.flight
            .iter()
            .filter(voted)
            .any(|f| committed.contains(&f.txn))
        {
            assert!(
                count(Stage::LockHold) > 0,
                "node {}: {:?}",
                e.node,
                e.meters
            );
        }
    }
}

/// The load starts when the cluster is up, not when `ac-client` is: with
/// one node 300 ms late, a client that let `Begin`s leave at once would
/// sit in that node's first-contact dial while D1CC's other participant
/// timed out to Abort and the late node, handed both votes on arrival,
/// committed — a split. The late node is the highest id (every pair it
/// is in dials it, and waits) or the lowest (it dials every pair it is
/// in, and is waited for). And while the load runs, an `ac-node` is one
/// thread and so is `ac-client`, whose main thread runs every client; a node
/// holds its listener, one connection per other node — `n·(n − 1)/2`
/// across the cluster, each seen from both ends — and one per client.
#[test]
fn a_node_that_comes_up_late_delays_the_load_instead_of_splitting_it() {
    const TXNS: usize = 400;
    let spec = format!(
        "protocol = D1CC\nf = 1\nunit_ms = 5\nkeys_per_shard = 32\n\
         clients = {CLIENTS}\ntxns_per_client = {TXNS}\n\
         workload = uniform:2\nseed = 11\n"
    );
    for late in [N - 1, 0] {
        let tag = format!("late-node-{late}");
        let run = run_cluster(&tag, &spec, (late, Duration::from_millis(300)));
        let c = &run.client;
        assert_eq!(
            (c["split"], c["stalled"]),
            (0, 0),
            "node {late} late: {c:?}"
        );
        assert_eq!(c["txns"], (CLIENTS * TXNS) as i64, "transactions lost");

        assert_eq!(run.node_threads, 1, "a serving ac-node is its node loop");
        assert_eq!(run.client_threads, 1, "main runs every client");
        let per_node = 1 + (N - 1) + CLIENTS;
        assert_eq!(
            run.node_sockets,
            vec![per_node; N],
            "node {late} late: a listener, {} peers, {CLIENTS} clients each",
            N - 1
        );
    }
}

/// (n−1+f)NBAC runs its rounds on timers, and a node adds each fire to its
/// meters as it fires: the dump of a multi-process run — what a `proc`
/// cell's `timer_fires` sums — shows fires at every node that served a
/// transaction.
#[test]
fn a_timer_driven_cluster_dumps_its_timer_fires() {
    const TXNS: usize = 10;
    let spec = format!(
        "protocol = (n-1+f)NBAC\nf = 1\nunit_ms = 5\nkeys_per_shard = 32\n\
         clients = {CLIENTS}\ntxns_per_client = {TXNS}\n\
         workload = uniform:2\nseed = 11\n"
    );
    let run = run_cluster("chain", &spec, (N - 1, Duration::ZERO));
    let c = &run.client;
    assert_eq!((c["split"], c["stalled"]), (0, 0), "{c:?}");
    assert_eq!(c["txns"], (CLIENTS * TXNS) as i64, "transactions lost");
    let fires = |e: &ac_obs::ObsExport| e.meters[Stage::TimerFire as usize].0;
    assert!(run.dump.exports.iter().map(fires).sum::<u64>() > 0);
    for e in &run.dump.exports {
        let served = e.flight.iter().any(|f| f.stage == FlightStage::Dispatch);
        assert!(!served || fires(e) > 0, "node {}: {:?}", e.node, e.meters);
    }
}
