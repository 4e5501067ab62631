//! What the live-cluster test binaries share: a failed audit leaves the
//! run behind as evidence before the test fails.

use std::path::Path;

use ac_cluster::{ServiceConfig, ServiceOutcome};

/// Fail unless `out`'s safety audit is clean and `stalled` accepts its
/// stalled count. On failure the run is first kept under
/// `target/ac-failures/` ([`ServiceOutcome::keep`]): its cluster dump as
/// `<label>-<seed>.dump`, which `repro trace` renders, and its violations,
/// one a line, beside it as `<label>-<seed>.violations`.
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
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/ac-failures");
    let kept = match out.keep(cfg, &dir, &format!("{label}-{}", cfg.seed)) {
        Ok(dump) => format!("run kept as {}", dump.display()),
        Err(e) => format!("run not kept: {e}"),
    };
    panic!(
        "{label} (seed {}): {} stalled, audit violations {:?}; {kept}",
        cfg.seed, out.stalled, out.violations
    );
}
