//! A live 4-shard bank serving 8 concurrent clients over INBAC.
//!
//! ```sh
//! cargo run --release --example live_cluster
//! ```
//!
//! Unlike `bank_transfers` (which meters single transactions in the
//! discrete-event simulator), this drives the `ac-cluster` **live
//! service**: 4 long-lived node threads each own a shard and multiplex
//! many concurrent INBAC instances over real channels, while 8 closed-loop
//! client threads submit two-shard debit/credit transactions. Wall-clock
//! throughput, the latency histogram and the post-run safety audit are
//! printed at the end.

use std::time::Duration;

use ac_cluster::{run_service, ServiceConfig};
use ac_commit::protocols::ProtocolKind;
use ac_txn::Workload;

fn main() {
    let cfg = ServiceConfig::new(4, 1, ProtocolKind::Inbac)
        .clients(8)
        .txns_per_client(25)
        .workload(Workload::Transfer { amount: 25 })
        .unit(Duration::from_millis(5))
        .keys_per_shard(32)
        .seed(2017);

    println!(
        "live cluster: n={} f={} protocol={} clients={} ({} txns each, closed loop)\n",
        cfg.n,
        cfg.f,
        cfg.kind.name(),
        cfg.clients,
        cfg.txns_per_client
    );
    let out = run_service(&cfg);

    println!(
        "served {} txns in {:.0} ms: {} committed, {} aborted ({} stalled)",
        out.txns,
        out.elapsed.as_secs_f64() * 1e3,
        out.committed,
        out.aborted,
        out.stalled
    );
    println!(
        "throughput: {:.0} committed txns/s ({} protocol messages on the wire)",
        out.run_stats().throughput_tps(),
        out.wire_messages
    );
    println!(
        "latency: {}",
        ac_obs::sojourn_times(&out.decided()).summary_millis()
    );
    println!(
        "safety audit: {}",
        if out.is_safe() {
            "clean".to_string()
        } else {
            format!("VIOLATIONS: {:?}", out.violations)
        }
    );
    println!(
        "conservation: total balance across shards = {} (must be 0)",
        out.total_value()
    );

    // The serializability smoke test from the integration suite, live.
    let rebuilt = out.replay();
    let serializable =
        out.shards.iter().zip(&rebuilt).all(|(live, replayed)| {
            (0..cfg.keys_per_shard).all(|k| live.read(k) == replayed.read(k))
        });
    println!(
        "sequential replay of each node's commit log reproduces its shard: {}",
        if serializable { "yes" } else { "NO" }
    );
    assert!(out.is_safe() && out.total_value() == 0 && serializable);
}
