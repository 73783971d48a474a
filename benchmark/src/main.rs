//! The repo's benchmark: five workloads over the serving path and the
//! view-change path, end-to-end metrics from an untraced run, per-layer
//! metrics from a traced one, correctness checked inside every run.
//!
//! ```text
//! vs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! vs-benchmark all [--seed n] [--smoke]        every workload untraced, then traced, as tables
//! vs-benchmark selfcheck [--seed n] [--smoke]  two untraced sets must agree within the bounds
//! vs-benchmark manifest                        BENCHMARK.json as generated from the metric tables
//! vs-benchmark lint <BENCHMARK.json>           structural check of a manifest
//! ```
//!
//! See `README.md` in this directory for what each metric means.

mod churn;
mod common;
mod fleet;
mod member;
mod metrics;
mod micro;
mod sim_order;
mod suite;

use std::time::Duration;

use metrics::{Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// Set-ups per run; `setup_s` and the formation episodes of the steady
/// workloads are medians over them. The simulator's set-ups take
/// milliseconds, so it does more of them.
pub const SETUPS: usize = 9;
pub const SIM_SETUPS: usize = 25;

/// A single run must end well inside the driver's 180 s limit.
const RUN_CAP: Duration = Duration::from_secs(170);

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// 1 s windows and a tenth of the fixed work: a quick local run, never
    /// used for recorded numbers.
    pub smoke: bool,
}

impl Args {
    fn parse(flags: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: RUN_SECONDS,
            trace: false,
            smoke: false,
        };
        let mut it = flags.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} wants a value"));
            let number = |v: &String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag} wants a number, got {v:?}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = number(value()?)?,
                "--seconds" => args.seconds = number(value()?)?.clamp(1, 60),
                "--trace" => args.trace = number(value()?)? != 0,
                "--smoke" => args.smoke = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if args.smoke {
            args.seconds = 1;
        }
        Ok(args)
    }
}

pub fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "socket_flood_small" | "socket_flood_large" | "socket_paced" => fleet::run(args),
        "sim_total_order" => sim_order::run(args),
        "sim_churn" => churn::run(args),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {:?}",
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        )),
    }
}

/// The contract mode: one workload, one JSON line, exit 0 iff it ran and
/// every correctness check passed.
fn single(flags: &[String]) -> i32 {
    let args = match Args::parse(flags) {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!(
                "usage: vs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return 2;
        }
        Err(e) => {
            eprintln!("vs-benchmark: {e}");
            return 2;
        }
    };
    // Non-zero exit instead of a hang: children are killed, nothing is
    // printed on stdout.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_CAP);
        eprintln!("vs-benchmark: run exceeded {RUN_CAP:?}, giving up");
        fleet::kill_all_children();
        std::process::exit(3);
    });
    match run_workload(&args) {
        Ok(outcome) => {
            for p in &outcome.problems {
                eprintln!("vs-benchmark: {}: {p}", args.workload);
            }
            let defs = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{}", outcome.to_json(defs));
            i32::from(!outcome.correct)
        }
        Err(e) => {
            eprintln!("vs-benchmark: {}: {e}", args.workload);
            fleet::kill_all_children();
            1
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("node") => fleet::node_main(&argv[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            0
        }
        Some("lint") => suite::lint(argv.get(1).map(String::as_str)),
        Some("all") => suite::all(&argv[1..]),
        Some("selfcheck") => suite::selfcheck(&argv[1..]),
        _ => single(&argv),
    };
    std::process::exit(code);
}
