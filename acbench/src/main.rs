//! `acbench` — an episodic, interference-rejecting benchmark of the live
//! atomic-commit service. See `README.md` beside this package.
//!
//! ```text
//! acbench run       --workload W --seed N --seconds S --trace 0|1 [--quick]
//! acbench selfcheck [--sets 2] [--runs 5]
//! ```

mod alloc;
mod episode;
mod host;
mod metrics;
mod probes;
mod report;
mod run;
mod selfcheck;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Measuring time of one run unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 55.0;

const USAGE: &str = "usage:
  acbench run --workload W --seed N --seconds S --trace 0|1 [--quick]
  acbench selfcheck [--sets 2] [--runs 5]
workloads: paxos_channel paxos_tcp twopc_wal_wide inbac_skewed";

/// `--flag value` pairs after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn run_command(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("missing --workload")?;
    let spec = workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad value for --trace: {other}")),
    };
    let opts = run::Options {
        seed,
        seconds,
        trace,
        quick: args.has("--quick"),
    };
    let out = run::run(&spec, &opts);
    print!("{}", report::table(&spec, &out));
    if trace {
        let path = report::write_trace(spec.name, seed, &out)
            .map_err(|e| format!("cannot write the span file: {e}"))?;
        println!("# spans written to {}", path.display());
    }
    println!("{}", report::result_line(&out));
    Ok(out.correct())
}

fn selfcheck_command(args: &Args) -> Result<bool, String> {
    let sets: usize = args.parsed("--sets", 2)?;
    let runs: usize = args.parsed("--runs", 5)?;
    if sets < 2 || runs < 1 {
        return Err("selfcheck needs --sets >= 2 and --runs >= 1".to_string());
    }
    let report = selfcheck::selfcheck(&workloads::refereed(), sets, runs, DEFAULT_SECONDS);
    print!("{}", report.table);
    Ok(report.passed)
}

fn main() -> ExitCode {
    // Before any thread is spawned: every thread inherits the mask.
    if host::pin_to_one_cpu().is_none() {
        eprintln!("acbench: could not pin to one CPU; timings will be noisier");
    }
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let result = match command.as_str() {
        "run" => run_command(&args),
        "selfcheck" => selfcheck_command(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("acbench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
