//! Smoke tests over whole `--quick` runs, and the consistency of
//! `BENCHMARK.json` with what the binary emits.

use std::collections::BTreeSet;

use crate::metrics::{Value, END_TO_END};
use crate::run::{run, Options, Outcome};
use crate::{alloc, report, workloads, DEFAULT_SECONDS};

fn quick(spec: &workloads::WorkloadSpec, trace: bool) -> Outcome {
    // A traced run arms the counting allocator: keep it apart from the
    // test that needs it disarmed.
    let _guard = alloc::TEST_ARM_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let opts = Options {
        seed: 7,
        seconds: 5.0,
        trace,
        quick: true,
    };
    run(spec, &opts)
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn value<'a>(values: &'a [Value], name: &str) -> &'a Value {
    values
        .iter()
        .find(|v| v.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn quick_run_emits_every_end_to_end_metric_once() {
    for spec in workloads::all() {
        let out = quick(&spec, false);
        assert!(out.correct(), "{}: {:?}", spec.name, out.failures);
        assert!(out.attempted >= 1 && out.failed == 0);
        let names: Vec<&str> = out.values.iter().map(|v| v.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}", spec.name);
        for (v, def) in out.values.iter().zip(&END_TO_END) {
            assert!(well_formed(&v.name));
            assert_eq!(v.unit, def.unit);
            assert!(!v.unit.is_empty());
            assert!(
                v.value.is_finite() && v.value > 0.0,
                "{}: {} = {} (end-to-end metrics are never 0)",
                spec.name,
                v.name,
                v.value
            );
        }
        // The last line is one JSON object with exactly the four keys.
        let line = report::result_line(&out);
        let parsed = serde_json::from_str(&line).expect("result line is JSON");
        assert_eq!(parsed.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(
            parsed.get("attempted").and_then(|v| v.as_u64()),
            Some(out.attempted)
        );
        assert_eq!(parsed.get("failed").and_then(|v| v.as_u64()), Some(0));
        let metrics = parsed.get("metrics").expect("metrics key");
        for def in &END_TO_END {
            let m = metrics.get(def.name).expect("metric in the result line");
            assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
            assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some(def.unit));
        }
        // The simulator's counts are what the issue froze.
        let delays = value(&out.values, "commit_delays").value;
        let msgs = value(&out.values, "wire_msgs_per_txn").value;
        let (want_delays, want_msgs) = match spec.name {
            "paxos_channel" | "paxos_tcp" => (3.0, 4.0),
            "twopc_wal_wide" => (2.0, 6.0),
            _ => (2.0, 4.0),
        };
        assert_eq!(delays, want_delays, "{}", spec.name);
        assert!((msgs - want_msgs).abs() <= 0.1 * want_msgs, "{}", spec.name);
    }
}

#[test]
fn quick_traced_run_emits_the_declared_per_layer_metrics() {
    let manifest =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let declared: BTreeSet<(String, String)> = manifest
        .get("per_layer")
        .and_then(|v| v.as_array())
        .expect("per_layer list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            assert!(matches!(field("better").as_str(), "lower" | "higher"));
            (field("name"), field("unit"))
        })
        .collect();
    assert!(declared.len() <= 128);

    for spec in workloads::all() {
        let out = quick(&spec, true);
        assert!(out.correct(), "{}: {:?}", spec.name, out.failures);
        let emitted: BTreeSet<(String, String)> = out
            .values
            .iter()
            .map(|v| (v.name.clone(), v.unit.to_string()))
            .collect();
        assert_eq!(emitted.len(), out.values.len(), "a name repeats");
        assert!(out.values.iter().all(|v| well_formed(&v.name)));
        assert!(out.values.iter().all(|v| v.value.is_finite()));
        assert_eq!(emitted, declared, "{}", spec.name);

        // The five attribution shares telescope to the whole.
        let shares: f64 = ["channel", "lock", "wal", "protocol", "transport"]
            .iter()
            .map(|s| value(&out.values, &format!("service.share_{s}_pct")).value)
            .sum();
        assert!((shares - 100.0).abs() <= 5.0, "{}: {shares}", spec.name);

        // Predicted zeros: no WAL off the durable workload, no socket
        // write off the TCP workload.
        let forces = value(&out.values, "service.wal_forces_per_txn").value;
        assert_eq!(forces > 0.0, spec.durable, "{}", spec.name);
        let tcp = value(&out.values, "service.stage_ns_per_txn.tcp_write").value;
        assert_eq!(tcp > 0.0, spec.name == "paxos_tcp", "{}", spec.name);

        // Armed light episodes counted their allocations.
        assert!(value(&out.values, "alloc.count_per_txn").value > 0.0);

        // Spans: every episode has its four children, and they account
        // for nearly all of it.
        let spans = out.recorder.spans();
        let episodes: Vec<_> = spans.iter().filter(|s| s.name == "episode").collect();
        assert_eq!(episodes.len(), 2 * out.pairs);
        for e in &episodes {
            let children: Vec<&str> = spans
                .iter()
                .filter(|s| s.parent == Some(e.id))
                .map(|s| s.name)
                .collect();
            assert_eq!(children, ["configure", "run_service", "verify", "stats"]);
            assert!(spans
                .iter()
                .filter(|s| s.parent == Some(e.id))
                .all(|s| s.trace == e.trace));
        }
        assert!(value(&out.values, "trace.episode_coverage_pct").value >= 95.0);
    }
}

#[test]
fn manifest_matches_the_binary() {
    let manifest =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let list = |key: &str| {
        manifest
            .get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{key} list"))
            .clone()
    };
    let text =
        |v: &serde_json::Value, k: &str| v.get(k).and_then(|x| x.as_str()).expect(k).to_string();

    let specs = workloads::refereed();
    assert_eq!(specs.len(), workloads::REFEREED.len());
    let declared = list("workloads");
    assert_eq!(declared.len(), specs.len());
    for (d, spec) in declared.iter().zip(&specs) {
        assert_eq!(text(d, "name"), spec.name);
        assert_eq!(text(d, "why"), spec.why);
        assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
    }

    let declared = list("end_to_end");
    assert_eq!(declared.len(), END_TO_END.len());
    for (d, def) in declared.iter().zip(&END_TO_END) {
        assert_eq!(text(d, "name"), def.name);
        assert_eq!(text(d, "unit"), def.unit);
        assert_eq!(text(d, "better"), def.better.name());
        assert_eq!(d.get("bound").and_then(|v| v.as_f64()), Some(def.bound));
    }

    assert_eq!(
        manifest.get("run_seconds").and_then(|v| v.as_f64()),
        Some(DEFAULT_SECONDS)
    );
    let paths: Vec<String> = list("paths")
        .iter()
        .map(|p| p.as_str().expect("path").to_string())
        .collect();
    assert_eq!(paths, ["acbench"]);
}

/// The `[profile.release]` section of a manifest, trimmed.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[test]
fn release_profile_is_the_repository_s() {
    // A package outside the workspace does not inherit the root's
    // profile, so it carries a copy; the service must be measured as
    // the repository builds it.
    let ours = release_profile(include_str!("../Cargo.toml"));
    let root = release_profile(include_str!("../../Cargo.toml"));
    assert!(!root.is_empty());
    assert_eq!(ours, root);
}
