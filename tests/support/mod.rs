//! What the live-cluster test binaries share: a failed audit leaves the
//! run behind as evidence before the test fails.

use std::path::{Path, PathBuf};

use ac_cluster::{ServiceConfig, ServiceOutcome};

/// Fail unless `out`'s safety audit is clean and `stalled` accepts its
/// stalled count. On failure the run is first kept under
/// `target/ac-failures/`: its cluster dump as `<label>-<seed>.dump`, which
/// `repro trace` renders, and its violations, one a line, beside it as
/// `<label>-<seed>.violations`.
#[track_caller]
pub fn audited(
    label: &str,
    cfg: &ServiceConfig,
    out: &ServiceOutcome,
    stalled: impl FnOnce(usize) -> bool,
) {
    if out.is_safe() && stalled(out.stalled) {
        return;
    }
    let kept = match keep(label, cfg, out) {
        Ok(dump) => format!("run kept as {}", dump.display()),
        Err(e) => format!("run not kept: {e}"),
    };
    panic!(
        "{label} (seed {}): {} stalled, audit violations {:?}; {kept}",
        cfg.seed, out.stalled, out.violations
    );
}

/// Write the run's dump and violations; returns the dump's path.
fn keep(label: &str, cfg: &ServiceConfig, out: &ServiceOutcome) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/ac-failures");
    std::fs::create_dir_all(&dir)?;
    let safe = |c: char| if c.is_ascii_alphanumeric() { c } else { '_' };
    let stem = format!(
        "{}-{}",
        label.chars().map(safe).collect::<String>(),
        cfg.seed
    );
    let dump = dir.join(format!("{stem}.dump"));
    std::fs::write(&dump, out.cluster_dump(cfg).to_bytes())?;
    let mut violations = out.violations.join("\n");
    violations.push('\n');
    std::fs::write(dir.join(format!("{stem}.violations")), violations)?;
    Ok(dump)
}
