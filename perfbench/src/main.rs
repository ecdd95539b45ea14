//! The repository benchmark: three workloads driven through the public
//! functions of every layer, reported as one JSON line.
//!
//! ```text
//! perfbench --workload <paper-repair|fleet-ingest|live-repair>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line carries the end-to-end metrics, measured
//! with no instrumentation attached. With `--trace 1` the run measures the
//! workload twice — first untraced, then with spans timed around every
//! layer call and the fleet metric bundle attached — and the last line
//! carries the per-layer metrics plus `obs.overhead_pct`, the end-to-end
//! difference between the two halves. A line before it (`"info"`) records
//! the host's core count, the seed, the workload's size and every sample
//! count. See `README.md` for what each metric means and which end-to-end
//! number each layer metric should move.

mod calibrate;
mod fleet_ingest;
mod live_repair;
mod paper_repair;
mod report;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ocasta::Ttkv;
use report::Report;
use stats::us;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// How a workload is measured: its seed and its time budget.
pub struct Plan {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Measurement budget (the minimum sample counts may run past it).
    pub budget: Duration,
}

impl Plan {
    /// Deadline for a measurement loop starting now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + self.budget
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <paper-repair|fleet-ingest|live-repair> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    let result = match args.workload.as_str() {
        "paper-repair" => paper_repair::run(args.seed, seconds, args.trace),
        "fleet-ingest" => fleet_ingest::run(args.seed, seconds, args.trace),
        "live-repair" => live_repair::run(args.seed, seconds, args.trace),
        other => Err(format!(
            "unknown workload `{other}` (paper-repair, fleet-ingest, live-repair)"
        )),
    };
    match result {
        Ok(report) if !report.missing_end_to_end().is_empty() => {
            eprintln!(
                "perfbench: end-to-end metrics not measured: {:?}",
                report.missing_end_to_end()
            );
            ExitCode::from(1)
        }
        Ok(mut report) => {
            report.info_number("nproc", stats::nproc() as f64);
            report.info_number("seed", args.seed as f64);
            report.info_text("workload", &args.workload);
            report.info_text("mode", if args.trace { "traced" } else { "untraced" });
            println!("{}", report.info_json());
            println!("{}", report.result_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(1)
        }
    }
}

/// Splits the budget of a traced run: the first half runs untraced (the
/// reference for `obs.overhead_pct`), the second half traced.
pub fn traced_halves(seed: u64, seconds: Duration) -> (Plan, Plan) {
    let half = seconds / 2;
    (
        Plan { seed, budget: half },
        Plan {
            seed,
            budget: seconds - half,
        },
    )
}

/// What a workload run returns: its report, or why it could not run.
pub type Outcome = Result<Report, String>;

/// v2 segment size of `store`.
pub fn segment_bytes(store: &Ttkv) -> u64 {
    let mut bytes = Vec::new();
    store
        .save(&mut bytes)
        .expect("saving to memory cannot fail");
    bytes.len() as u64
}

/// Times `Ttkv::save` and `Ttkv::load` of `store` through memory:
/// `(save_us, load_us, bytes, loaded == store)`.
pub fn save_and_load(store: &Ttkv) -> (f64, f64, usize, bool) {
    let started = Instant::now();
    let mut bytes = Vec::new();
    store
        .save(&mut bytes)
        .expect("saving to memory cannot fail");
    let saved = Instant::now();
    let loaded = Ttkv::load(bytes.as_slice());
    let load_us = us(saved.elapsed());
    let same = loaded.as_ref().is_ok_and(|l| l == store);
    (us(saved - started), load_us, bytes.len(), same)
}
