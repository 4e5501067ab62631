//! Golden reports: the rendered text and the `--json` form of Tables 1–5,
//! Figure 1 and the ablations, byte for byte, against the files under
//! `tests/golden/`. Every one of these reports is a deterministic function
//! of the simulator, so a refactor of the harness that changes a title, a
//! column, a row's order or a verdict shows here, even where every
//! paper-vs-measured comparison still matches.
//!
//! On a mismatch the report as rendered now is written next to the test
//! binary's scratch directory (`CARGO_TARGET_TMPDIR/golden/`) so it can be
//! diffed against the pinned file.

use std::path::Path;

use ac_harness::{experiments, Report};

/// The reports `repro` prints for these targets, with its default
/// parameters.
fn reports() -> Vec<Report> {
    vec![
        experiments::table1(6, 2),
        experiments::table2(),
        experiments::table3(),
        experiments::table4(6, 2),
        experiments::table5(&[4, 6, 8, 10], &[1, 2, 3]),
        experiments::fig1(),
        experiments::ablations(),
    ]
}

/// `actual` must equal the pinned `tests/golden/<name>`.
fn pinned(name: &str, actual: &str) -> Result<(), String> {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let expected = std::fs::read_to_string(golden.join(name)).unwrap_or_default();
    if expected == actual {
        return Ok(());
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let _ = std::fs::create_dir_all(&out);
    let _ = std::fs::write(out.join(name), actual);
    Err(format!(
        "{name} differs from tests/golden/{name}; it renders as {}",
        out.join(name).display()
    ))
}

#[test]
fn every_paper_report_renders_as_pinned() {
    let mut failures = Vec::new();
    for r in reports() {
        for (ext, text) in [("txt", r.render()), ("json", r.to_json())] {
            if let Err(e) = pinned(&format!("{}.{ext}", r.id), &text) {
                failures.push(e);
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
