//! What a run prints and writes: a table for people, one JSON line for
//! the referee, and the span file of a traced run.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::metrics::Value;
use crate::run::Outcome;
use crate::spans::Span;
use crate::workloads::WorkloadSpec;

/// A JSON number: Rust's shortest round-trip rendering, with non-finite
/// values (which JSON cannot carry) written as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
fn metrics_json(values: &[Value]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.name,
                num(v.value),
                v.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-line result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(out: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics_json(&out.values)
    )
}

/// The table for people: every value with its unit and sample count.
pub fn table(spec: &WorkloadSpec, out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# {}: {}", spec.name, spec.why);
    let _ = writeln!(
        s,
        "# {} pair(s) of episodes in {:.1} s ({:.1} s light, {:.1} s windowed, \
         {:.1} % of the machine stolen), {} transactions offered, {} failed",
        out.pairs,
        out.wall.as_secs_f64(),
        out.mode_wall[0].as_secs_f64(),
        out.mode_wall[1].as_secs_f64(),
        out.steal_pct,
        out.attempted,
        out.failed
    );
    for v in &out.values {
        let _ = writeln!(
            s,
            "{:<44} {:>16.4} {:<6} n={}",
            v.name, v.value, v.unit, v.samples
        );
    }
    for f in &out.failures {
        let _ = writeln!(s, "FAILED CHECK: {f}");
    }
    s
}

fn span_json(s: &Span) -> String {
    format!(
        "{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
        s.id,
        s.parent.map_or("null".to_string(), |p| p.to_string()),
        s.trace,
        s.name,
        s.start_ns,
        s.end_ns
    )
}

/// Write the spans and per-layer values of a traced run to
/// `target/acbench/trace-<workload>.json` under the working directory.
pub fn write_trace(workload: &str, seed: u64, out: &Outcome) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target").join("acbench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    let spans: Vec<String> = out.recorder.spans().iter().map(span_json).collect();
    let body = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"metrics\": {},\n\"spans\": [\n{}\n]}}\n",
        metrics_json(&out.values),
        spans.join(",\n")
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_digits_and_stay_valid_json() {
        assert_eq!(num(1.2034), "1.2034");
        assert_eq!(num(0.000123456789), "0.000123456789");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "0");
        let line = metrics_json(&[Value::new("a.b", "us", 1.5, 3)]);
        assert_eq!(line, "{\"a.b\": {\"value\": 1.5, \"unit\": \"us\"}}");
        assert!(serde_json::from_str(&line).is_ok());
    }
}
