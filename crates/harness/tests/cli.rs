//! The `repro` command line, driven as a process: argument checking and
//! the `bench-check` verdicts, including on the repository's committed
//! baseline.

use std::path::Path;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the repro binary runs")
}

fn committed_baseline() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json")
}

#[test]
fn a_surplus_target_is_a_usage_error() {
    let out = repro(&["table2", "table3"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unexpected argument `table3`"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the rejection"
    );
    // A second positional is a path for `bench-check` and `trace` only —
    // and never a third.
    let out = repro(&["bench-check", "a.json", "b.json"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bench_check_accepts_the_committed_baseline_and_lists_its_sections() {
    let path = committed_baseline();
    let out = repro(&["bench-check", path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(r#"live sections: ["service", "chaos", "attribution", "saturation"]"#),
        "{stdout}"
    );
}

#[test]
fn bench_check_refuses_any_other_schema_version_by_name() {
    let text = std::fs::read_to_string(committed_baseline()).unwrap();
    let old = text.replacen("\"schema_version\": 5", "\"schema_version\": 4", 1);
    assert_ne!(old, text, "the committed baseline carries schema_version 5");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("schema_v4.json");
    std::fs::write(&path, old).unwrap();
    let out = repro(&["bench-check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("schema_version must be 5, got Number(4.0)"),
        "{stderr}"
    );
}
