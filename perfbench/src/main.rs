//! The repository benchmark. One command runs one seeded workload against
//! the public APIs of the RAQO crates, checks every plan it emits, and
//! prints its metrics by name with units; the last line of standard output
//! is a JSON object `{correct, attempted, failed, metrics}`.
//!
//! ```text
//! perfbench --workload <wire-tenants|bushy-joins|brute-grid> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload through the benchmark's span wrappers and reports per-layer
//! metrics instead. See README.md for the workloads and every metric.

mod check;
mod inproc;
mod layers;
mod report;
mod stats;
mod wire;

use report::{Metrics, Outcome};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["wire-tenants", "bushy-joins", "brute-grid"];

/// How long a run keeps setting up from scratch, at least `MIN_SETUPS`
/// times, once before and once after the window; `setup_s` is the median
/// of all of them. One set-up takes milliseconds while host speed drifts
/// over seconds, so the set-ups are spread over two spans a window apart.
pub const SETUP_SPAN: Duration = Duration::from_secs(2);
pub const MIN_SETUPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <wire-tenants|bushy-joins|brute-grid> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// When the process started, as near as the benchmark can tell.
pub fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Sets up from scratch again and again for `SETUP_SPAN` (at least
/// `MIN_SETUPS` times), appends the time each took to `times` and returns
/// the last set-up. `setup` gets the number of set-ups before it. The
/// run's first set-up is timed from process start; tearing down a set-up
/// is not timed.
pub fn repeat_setup<T>(
    times: &mut Vec<f64>,
    mut setup: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> T {
    let began = Instant::now();
    let mut n = 0;
    loop {
        let t = if times.is_empty() {
            process_start()
        } else {
            Instant::now()
        };
        let s = setup(times.len());
        times.push(t.elapsed().as_secs_f64());
        n += 1;
        if n >= MIN_SETUPS && began.elapsed() >= SETUP_SPAN {
            return s;
        }
        teardown(s);
    }
}

/// Scratch directory for checkpoint files, inside the benchmark's own
/// directory and removed at the end of the run.
pub fn run_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".run")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("create the run directory");
    dir
}

/// First line of a command's output, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Build and host facts recorded with every report. `steal0` is the
/// machine's (steal, total) CPU ticks when the run started.
fn facts(args: &Args, steal0: (u64, u64)) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let steal1 = stats::steal_ticks();
    let steal_pct = (steal1.0 - steal0.0) as f64 * 100.0 / (steal1.1 - steal0.1).max(1) as f64;
    let kernel = if raqo_cost::simd_active() {
        "avx2"
    } else {
        "scalar"
    };
    format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \
         \"git_rev\": \"{}\", \"simd_feature\": true, \"simd_active\": {}, \"cost_kernel\": \"{kernel}\", \
         \"nproc\": {nproc}, \"rustc\": \"{}\", \"host_steal_pct\": {steal_pct:.2}}}",
        args.workload,
        u8::from(args.trace),
        args.seed,
        args.seconds,
        command_line("git", &["rev-parse", "HEAD"]),
        raqo_cost::simd_active(),
        command_line("rustc", &["--version"]),
    )
}

fn main() {
    process_start();
    let steal0 = stats::steal_ticks();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut metrics = Metrics::default();
    let mut outcome = Outcome::default();
    if args.workload == "wire-tenants" {
        wire::run(&args, &mut metrics, &mut outcome);
    } else {
        inproc::run(&args, &mut metrics, &mut outcome);
    }
    let spec = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    report::print(spec, &metrics, outcome, &facts(&args, steal0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse("--workload brute-grid --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("brute-grid", 7, 3, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload brute-grid --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload brute-grid --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload brute-grid --seed 1 --seconds 1").is_err());
        assert!(parse("--workload brute-grid --seed x --seconds 1 --trace 0").is_err());
    }
}
