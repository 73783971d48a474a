//! The multi-run commands: `all` (every metric of every workload as
//! tables), `selfcheck` (two sets of runs must agree within the
//! benchmark's own bounds) and `lint` (structural check of a manifest).
//!
//! Every run is a fresh process of this executable in contract mode, so
//! peak memory and CPU are per run, exactly as the driver sees them.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use vs_obs::json::{self, Value};

use crate::common::median_f64;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;

/// One parsed result line.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn run_once(workload: &str, seed: u64, trace: bool, base: &Args) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &base.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit());
    if base.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line"))?;
    let doc = json::parse(line).map_err(|e| format!("{workload}: result line is not JSON: {e}"))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload}: no {key}"))
    };
    let mut metrics = BTreeMap::new();
    let defs = if trace { PER_LAYER } else { END_TO_END };
    for def in defs {
        let v = doc
            .get("metrics")
            .and_then(|m| m.get(def.name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload}: metric {} missing", def.name))?;
        metrics.insert(def.name.to_string(), v);
    }
    let correct = doc.get("correct").and_then(Value::as_bool).unwrap_or(false);
    if !output.status.success() && correct {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    Ok(RunResult {
        correct,
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

fn print_table(title: &str, defs: &[MetricDef], runs: &[(&str, RunResult)]) {
    println!("\n{title}");
    print!("{:<40} {:>6}", "metric", "unit");
    for (name, _) in runs {
        print!(" {name:>20}");
    }
    println!();
    for def in defs {
        print!("{:<40} {:>6}", def.name, def.unit);
        for (_, r) in runs {
            print!(" {:>20.3}", r.metrics[def.name]);
        }
        println!();
    }
    for (label, pick) in [
        (
            "ops_attempted",
            (|r: &RunResult| r.attempted) as fn(&RunResult) -> f64,
        ),
        ("ops_failed", |r| r.failed),
        ("undelivered_ratio", |r| r.failed / r.attempted.max(1.0)),
    ] {
        print!(
            "{label:<40} {:>6}",
            if label == "undelivered_ratio" {
                "ratio"
            } else {
                "count"
            }
        );
        for (_, r) in runs {
            print!(" {:>20.3}", pick(r));
        }
        println!();
    }
}

fn sweep(base: &Args, trace: bool) -> Result<Vec<(&'static str, RunResult)>, String> {
    WORKLOADS
        .iter()
        .map(|(name, _)| {
            eprintln!("running {name} (trace {})", u8::from(trace));
            run_once(name, base.seed, trace, base).map(|r| (*name, r))
        })
        .collect()
}

/// `all`: the five workloads untraced, then traced; non-zero if any run's
/// correctness check failed.
pub fn all(flags: &[String]) -> i32 {
    let result = Args::parse(flags).and_then(|base| {
        let untraced = sweep(&base, false)?;
        print_table("end-to-end metrics (untraced runs)", END_TO_END, &untraced);
        let traced = sweep(&base, true)?;
        print_table("per-layer metrics (traced runs)", PER_LAYER, &traced);
        Ok(untraced.iter().chain(&traced).all(|(_, r)| r.correct))
    });
    match result {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("vs-benchmark: a correctness check failed");
            1
        }
        Err(e) => {
            eprintln!("vs-benchmark: {e}");
            1
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's bad
/// direction (negative when `b` is better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let base = a.abs().max(1e-12);
    if def.better == "lower" {
        (b - a) / base
    } else {
        (a - b) / base
    }
}

/// The runs of workload number `w` in a set of sweeps, one per seed.
fn column<'a>(set: &'a [Vec<(&'static str, RunResult)>], w: usize) -> Vec<&'a RunResult> {
    set.iter().map(|sweep| &sweep[w].1).collect()
}

/// Seeds per set of `selfcheck` runs; a set's value is the median over them.
const SELFCHECK_SEEDS: u64 = 3;

/// `selfcheck`: two sets of untraced runs back to back, each over the same
/// [`SELFCHECK_SEEDS`] seeds, must agree within every metric's own bound
/// (median against median, as the driver compares); the simulator
/// workloads must repeat their virtual-time numbers exactly for a seed and
/// change them for another.
pub fn selfcheck(flags: &[String]) -> i32 {
    let result = Args::parse(flags).and_then(|base| {
        let set = || -> Result<Vec<_>, String> {
            (0..SELFCHECK_SEEDS)
                .map(|k| {
                    sweep(
                        &Args {
                            seed: base.seed + k,
                            ..base.clone()
                        },
                        false,
                    )
                })
                .collect()
        };
        let (first, second) = (set()?, set()?);
        let mut failures = Vec::new();
        for (w, (name, _)) in WORKLOADS.iter().enumerate() {
            let (a, b) = (column(&first, w), column(&second, w));
            if !a.iter().chain(&b).all(|r| r.correct) {
                failures.push(format!("{name}: a correctness check failed"));
            }
            for def in END_TO_END {
                let median = |runs: &[&RunResult]| {
                    median_f64(&mut runs.iter().map(|r| r.metrics[def.name]).collect::<Vec<_>>())
                };
                let (x, y) = (median(&a), median(&b));
                let gap = worsening(def, x, y).max(worsening(def, y, x));
                println!(
                    "{name:<20} {:<22} {x:>14.3} {y:>14.3}  {:>6.2}% of {:>4.0}%",
                    def.name,
                    gap * 100.0,
                    def.bound * 100.0
                );
                // A smoke run measures too little for the bounds to mean
                // anything; it still checks correctness and repeatability.
                if gap > def.bound && !base.smoke {
                    failures.push(format!(
                        "{name}: {} differs by {:.1}% > {:.0}%",
                        def.name,
                        gap * 100.0,
                        def.bound * 100.0
                    ));
                }
            }
            if name.starts_with("sim_") {
                // Virtual-time metrics are functions of the seed alone.
                const VIRTUAL: [&str; 4] = [
                    "delivery_p50_us",
                    "delivery_p90_us",
                    "stable_p50_us",
                    "view_install_p50_us",
                ];
                let counts = |r: &RunResult| (r.attempted, VIRTUAL.map(|m| r.metrics[m]));
                if a.iter().zip(&b).any(|(x, y)| counts(x) != counts(y)) {
                    failures.push(format!("{name}: same seed, different counts"));
                }
                if counts(a[0]) == counts(a[1]) {
                    failures.push(format!("{name}: another seed gave identical counts"));
                }
            }
        }
        Ok(failures)
    });
    match result {
        Ok(failures) if failures.is_empty() => {
            println!("selfcheck: ok");
            0
        }
        Ok(failures) => {
            failures.iter().for_each(|f| eprintln!("selfcheck: {f}"));
            1
        }
        Err(e) => {
            eprintln!("vs-benchmark: {e}");
            1
        }
    }
}

/// `lint <path>`: the manifest's structure — 2 to 8 workloads, at most 16
/// end-to-end and 128 per-layer metrics, well-formed unique names, a unit
/// on every metric, a bound of at most 0.25 on every end-to-end metric,
/// and `setup_s` among them.
pub fn lint(path: Option<&str>) -> i32 {
    let check = || -> Result<(), String> {
        let path = path.ok_or("usage: vs-benchmark lint <BENCHMARK.json>")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let list = |key: &str, min: usize, max: usize| -> Result<&[Value], String> {
            let items = doc
                .get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("{key}: not a list"))?;
            if items.len() < min || items.len() > max {
                return Err(format!(
                    "{key}: {} entries, want {min}..={max}",
                    items.len()
                ));
            }
            Ok(items)
        };
        let mut seen = std::collections::BTreeSet::new();
        let mut name_of = |item: &Value, key: &str| -> Result<String, String> {
            let name = item
                .get("name")
                .and_then(Value::as_str)
                .ok_or(format!("{key}: entry without a name"))?;
            let ok = !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !ok {
                return Err(format!("{key}: bad name {name:?}"));
            }
            if !seen.insert(name.to_string()) {
                return Err(format!("{key}: name {name:?} used twice"));
            }
            Ok(name.to_string())
        };
        for w in list("workloads", 2, 8)? {
            let name = name_of(w, "workloads")?;
            let why = w.get("why").and_then(Value::as_str).unwrap_or("");
            if why.is_empty() || why.len() > 200 || why.contains('\n') {
                return Err(format!(
                    "workload {name}: needs a one-line why of at most 200 characters"
                ));
            }
        }
        let mut has_setup = false;
        for (key, max, bounded) in [("end_to_end", 16, true), ("per_layer", 128, false)] {
            for m in list(key, 1, max)? {
                let name = name_of(m, key)?;
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                let unit_ok = !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
                if !unit_ok {
                    return Err(format!("{name}: bad unit {unit:?}"));
                }
                if !matches!(
                    m.get("better").and_then(Value::as_str),
                    Some("lower" | "higher")
                ) {
                    return Err(format!("{name}: better must be lower or higher"));
                }
                let bound = m.get("bound").and_then(Value::as_f64);
                match (bounded, bound) {
                    (true, Some(b)) if b > 0.0 && b <= 0.25 => {}
                    (false, None) => {}
                    _ => return Err(format!("{name}: bound {bound:?} not allowed here")),
                }
                has_setup |= bounded && name == "setup_s" && unit == "s";
            }
        }
        if !has_setup {
            return Err("end_to_end: no setup_s in seconds".into());
        }
        match doc.get("run_seconds").and_then(Value::as_f64) {
            Some(s) if (1.0..=60.0).contains(&s) && s.fract() == 0.0 => Ok(()),
            other => Err(format!("run_seconds: {other:?}")),
        }
    };
    match check() {
        Ok(()) => {
            println!("lint: ok");
            0
        }
        Err(e) => {
            eprintln!("lint: {e}");
            1
        }
    }
}
