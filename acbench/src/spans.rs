//! The harness's own in-memory span recorder.
//!
//! A span is recorded around every call the benchmark makes into a
//! layer: name, start, end, the span that caused it, and the trace it
//! belongs to (one id per episode; probe batches between episodes get
//! their own). Spans stay in memory and are written out when the run
//! ends. Spans *inside* the service are a later change: from out here
//! `run_service` is one opaque span.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the span in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The trace (episode) the span belongs to.
    pub trace: u64,
    /// What was called.
    pub name: &'static str,
    /// Nanoseconds past the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds past the recorder's epoch (`start_ns` while open).
    pub end_ns: u64,
}

/// Records spans while `enabled`; every method is a no-op otherwise, so
/// `acbench run --trace 0` executes the same code with the recorder off.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder, on or off.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, trace: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            trace,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, the nanoseconds its direct children cover.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        child_ns
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the part its direct children cover, summed by name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let child_ns = self.child_ns();
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The smallest share (per cent) of any `name` span that its direct
    /// children cover; 100 when there is no such span.
    pub fn min_child_coverage_pct(&self, name: &str) -> f64 {
        let child_ns = self.child_ns();
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > s.start_ns)
            .map(|s| 100.0 * child_ns[s.id] as f64 / (s.end_ns - s.start_ns) as f64)
            .fold(100.0, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.enter("episode", 7);
        rec.enter("run_service", 7);
        std::thread::sleep(std::time::Duration::from_millis(5));
        rec.exit();
        rec.enter("verify", 7);
        rec.exit();
        rec.exit();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.trace == 7 && s.end_ns >= s.start_ns));
        let own = rec.self_ms_by_name();
        let total_ms = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e6;
        assert!(own["run_service"] >= 5.0);
        assert!(own["episode"] <= total_ms - own["run_service"]);
        assert!(rec.min_child_coverage_pct("episode") > 90.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        rec.enter("episode", 1);
        rec.exit();
        assert!(rec.spans().is_empty());
        assert_eq!(rec.min_child_coverage_pct("episode"), 100.0);
    }
}
