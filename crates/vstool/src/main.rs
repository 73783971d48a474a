//! `vstool` — debugging CLI for the view-synchrony stack.
//!
//! Subcommands (see `DEBUGGING.md` for the intended workflow):
//!
//! - `trace <journal.json> [filters…]` — query an exported trace journal;
//! - `metrics-diff <a> <b>` — diff two metrics snapshots;
//! - `bench-gate <baseline> <fresh>` — fail on benchmark regressions;
//! - `record --seed N --out <log.vsl>` — record the canonical sweep;
//! - `replay <log.vsl>` — re-execute a recorded scenario and verify it;
//! - `shrink --class <c> --seed N` — minimise a failing fault script;
//! - `explore` — bounded model checking of the flush scenario
//!   ([`view_synchrony::explore`]): enumerate schedules, stop at the
//!   first property violation, minimise and serialise it;
//! - `probe <addr> <request…>` — one live-introspection request against a
//!   running process started with `--introspect`;
//! - `top <addr>` — refreshing dashboard over the same protocol;
//! - `slo <addr>…` — scrape several live endpoints, merge their metrics
//!   into fleet delivery/stability SLOs and flag anomalies.
//!
//! Exit codes: 0 success, 1 the inspected artifact is bad (gate failed,
//! replay diverged, shrink found nothing, explore's verdict contradicts
//! the expectation), 2 usage error.

use std::process::ExitCode;
use std::time::Duration;

use view_synchrony::explore::{explore_flush, ExploreOpts};
use view_synchrony::scenario::{
    run_flush_scenario, run_gcs_sweep, run_mutation_case, sweep_script, FlushMode, FlushOpts,
    MutationClass, RunMode,
};
use view_synchrony::shrink::shrink_script;
use vs_net::{FaultScript, ProcessId, ScheduleLog};
use vstool::{
    bench_gate, causal_slice_of, filter_events, metrics_diff, MetricsDoc, TraceFilter,
    DEFAULT_US_TOLERANCE,
};

const USAGE: &str = "\
vstool — debugging CLI for the view-synchrony stack

USAGE:
  vstool trace <journal.json> [--process P] [--kind NAME] [--after P:C]
               [--before P:C] [--last N] [--slice P] [--window N]
  vstool metrics-diff <a.json|stdout.txt> <b.json|stdout.txt>
  vstool bench-gate <baseline.json> <fresh.json|stdout.txt> [--tolerance FRAC]
                    [--update]
  vstool record --seed N --out <log.vsl>
  vstool replay <log.vsl> [--seed N] [--scenario sweep|flush] [--mutate]
  vstool shrink --class <duplicate-view-install|causal-cut|invalid-structure|
                         partition-drop> --seed N [--script <file>] [--out <file>]
  vstool explore [--procs N] [--ops N] [--mutate] [--max-schedules N]
                 [--depth N] [--window LO:HI] [--no-dpor] [--report <file>]
                 [--out-dir <dir>] [--expect-violation]
  vstool probe <addr> <request…>
  vstool top <addr> [--interval MS] [--iterations N] [--once]
  vstool slo <addr>… [--out <report.json>] [--storm-rate VIEWS_PER_SEC]
             [--stall-ms MS] [--straggler-frac F] [--fail-on-anomaly]

`trace` filters compose conjunctively; --after/--before cut on vector-clock
components (`P:C` keeps events whose clock for process P is >=C / <=C).
`--slice P` prints the causal slice ending at P's last event instead of a
flat listing. Metrics inputs may be BENCH_*.json files or captured stdout
containing `METRICS {...}` lines (last line wins). `bench-gate --update`
rewrites <baseline.json> from the fresh run instead of gating against it.
`replay --scenario flush` re-executes the explorer's flush scenario instead
of the sweep (use --mutate for witnesses recorded with the seeded mutation
on). `explore` enumerates flush-scenario schedules (window in µs of virtual
time, depth = max forced choice points), writes a coverage report, and on a
violation serialises witness.vsl / minimal.vsl into --out-dir; exit is 0 on
a clean space, 1 on a violation — inverted by --expect-violation.
`probe`/`top` talk to a process started with `--introspect <addr>` (any
exp_* binary, the threaded_live example, or a ThreadedNet embedding):
probe sends one request (ping | metrics [prom] | trace tail N | spans |
views | health | critical) and prints the reply; top polls
metrics/views/health and renders counter rates, latency quantiles and
per-process views, deriving rates from the target's own `time.now_us`
clock (virtual or wall). With --iterations N top exits after N frames;
--once renders a single frame and exits without polling (scriptable).
`slo` scrapes metrics + critical paths from every listed endpoint, merges
histograms bucket-wise into fleet p50/p99/p999 delivery and stability
SLOs, and flags view-change storms, stability stalls and straggler
processes; --out writes a JSON report bench-gate accepts as a baseline or
fresh input, and --fail-on-anomaly turns any flag into exit 1.";

fn fail(msg: String) -> ExitCode {
    eprintln!("vstool: {msg}");
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Removes a boolean `--flag` from `args`, reporting whether it was there.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Pulls the value following a `--flag` out of `args`, removing both.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let v = args.remove(i + 1);
            args.remove(i);
            Ok(Some(v))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

fn parse_u64(what: &str, s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("{what}: expected an integer, got {s:?}"))
}

fn parse_cut(s: &str) -> Result<(u64, u64), String> {
    let (p, c) = s
        .split_once(':')
        .ok_or_else(|| format!("clock cut {s:?}: expected P:C"))?;
    Ok((parse_u64("cut process", p)?, parse_u64("cut count", c)?))
}

fn cmd_trace(mut args: Vec<String>) -> Result<ExitCode, String> {
    let mut filter = TraceFilter::default();
    if let Some(p) = take_opt(&mut args, "--process")? {
        filter.process = Some(parse_u64("--process", &p)?);
    }
    filter.kind = take_opt(&mut args, "--kind")?;
    if let Some(cut) = take_opt(&mut args, "--after")? {
        filter.clock_ge.push(parse_cut(&cut)?);
    }
    if let Some(cut) = take_opt(&mut args, "--before")? {
        filter.clock_le.push(parse_cut(&cut)?);
    }
    if let Some(n) = take_opt(&mut args, "--last")? {
        filter.last = Some(parse_u64("--last", &n)? as usize);
    }
    let slice = take_opt(&mut args, "--slice")?;
    let window = match take_opt(&mut args, "--window")? {
        Some(w) => parse_u64("--window", &w)? as usize,
        None => 32,
    };
    let [path] = args.as_slice() else {
        return Err("trace: expected exactly one journal file".into());
    };
    let events = vs_obs::events_from_json(&read(path)?)
        .map_err(|e| format!("{path}: {e}"))?;
    if let Some(p) = slice {
        let p = parse_u64("--slice", &p)?;
        let events = filter_events(&events, &filter);
        match causal_slice_of(&events, p, window) {
            Some(slice) => {
                println!("causal slice ({window} events) ending at p{p}:");
                println!("{}", vs_obs::render_slice(&slice, 2));
            }
            None => println!("(no events for process {p} after filtering)"),
        }
        return Ok(ExitCode::SUCCESS);
    }
    let kept = filter_events(&events, &filter);
    if kept.is_empty() {
        println!("(no events matched; {} in journal)", events.len());
    } else {
        println!("{}", vs_obs::render_slice(&kept, 0));
        println!("({} of {} events)", kept.len(), events.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_metrics_diff(args: Vec<String>) -> Result<ExitCode, String> {
    let [a, b] = args.as_slice() else {
        return Err("metrics-diff: expected exactly two files".into());
    };
    let da = MetricsDoc::parse(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
    let db = MetricsDoc::parse(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
    print!("{}", metrics_diff(&da, &db));
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench_gate(mut args: Vec<String>) -> Result<ExitCode, String> {
    let tolerance = match take_opt(&mut args, "--tolerance")? {
        Some(t) => t
            .parse::<f64>()
            .map_err(|_| format!("--tolerance: expected a fraction, got {t:?}"))?,
        None => DEFAULT_US_TOLERANCE,
    };
    let update = take_flag(&mut args, "--update");
    let [baseline, fresh] = args.as_slice() else {
        return Err("bench-gate: expected <baseline> <fresh>".into());
    };
    if update {
        // Regenerate the committed baseline from the fresh run: validate
        // it parses, then write the exact snapshot JSON bench-gate reads.
        let text = read(fresh)?;
        let doc = MetricsDoc::parse(&text).map_err(|e| format!("{fresh}: {e}"))?;
        let raw = MetricsDoc::extract_json(&text).trim();
        std::fs::write(baseline, format!("{raw}\n"))
            .map_err(|e| format!("{baseline}: {e}"))?;
        println!(
            "bench-gate UPDATE: {} rewritten from {} ({} counters, {} histograms)",
            baseline,
            fresh,
            doc.counters.len(),
            doc.histograms.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let db = MetricsDoc::parse(&read(baseline)?).map_err(|e| format!("{baseline}: {e}"))?;
    let df = MetricsDoc::parse(&read(fresh)?).map_err(|e| format!("{fresh}: {e}"))?;
    let report = bench_gate(&db, &df, tolerance);
    for n in &report.notes {
        println!("note: {n}");
    }
    if report.passed() {
        println!(
            "bench-gate PASS: {} within baseline {} ({} counters, {} histograms)",
            fresh,
            baseline,
            db.counters.len(),
            db.histograms.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &report.failures {
            println!("REGRESSION: {f}");
        }
        println!("bench-gate FAIL: {} regression(s) vs {}", report.failures.len(), baseline);
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_record(mut args: Vec<String>) -> Result<ExitCode, String> {
    let seed = parse_u64(
        "--seed",
        &take_opt(&mut args, "--seed")?.ok_or("record: --seed is required")?,
    )?;
    let out = take_opt(&mut args, "--out")?.ok_or("record: --out is required")?;
    if !args.is_empty() {
        return Err(format!("record: unexpected arguments {args:?}"));
    }
    let run = run_gcs_sweep(seed, RunMode::Record);
    let log = run.log.expect("record mode keeps the log");
    std::fs::write(&out, log.to_bytes()).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "recorded sweep seed {seed}: {} decisions, schedule digest 0x{:016x}",
        log.len(),
        log.digest()
    );
    println!(
        "journal digest 0x{:016x}, metrics digest 0x{:016x}",
        run.journal_digest, run.metrics_digest
    );
    println!("schedule log written to {out}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(mut args: Vec<String>) -> Result<ExitCode, String> {
    let seed_override = take_opt(&mut args, "--seed")?;
    let scenario = take_opt(&mut args, "--scenario")?.unwrap_or_else(|| "sweep".into());
    let mutate = take_flag(&mut args, "--mutate");
    let [path] = args.as_slice() else {
        return Err("replay: expected exactly one log file".into());
    };
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let log = ScheduleLog::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let seed = match seed_override {
        Some(s) => parse_u64("--seed", &s)?,
        None => log.seed(),
    };
    println!(
        "replaying {scenario} seed {seed}: {} decisions{}, schedule digest 0x{:016x}",
        log.len(),
        if log.sequential() { " (sequential)" } else { "" },
        log.digest()
    );
    let run = match scenario.as_str() {
        "sweep" => {
            if mutate {
                return Err("replay: --mutate only applies to --scenario flush".into());
            }
            run_gcs_sweep(seed, RunMode::Replay(log))
        }
        "flush" => {
            let opts = FlushOpts {
                broken_stability_cut: mutate,
                ..FlushOpts::default()
            };
            run_flush_scenario(opts, FlushMode::Replay(log))
        }
        other => return Err(format!("replay: unknown scenario {other:?} (sweep|flush)")),
    };
    println!(
        "journal digest 0x{:016x}, metrics digest 0x{:016x}",
        run.journal_digest, run.metrics_digest
    );
    if view_synchrony::explore::is_violating(&run) {
        println!("run violated properties:");
        for line in view_synchrony::explore::report_of(&run).lines() {
            println!("  {line}");
        }
    }
    match run.replay {
        Ok(()) => {
            println!("replay OK: every decision matched the log");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            println!("replay FAILED: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_shrink(mut args: Vec<String>) -> Result<ExitCode, String> {
    let class_name =
        take_opt(&mut args, "--class")?.ok_or("shrink: --class is required")?;
    let class = MutationClass::from_name(&class_name).ok_or_else(|| {
        format!(
            "shrink: unknown class {class_name:?} (expected one of {})",
            MutationClass::all().map(|c| c.name()).join(", ")
        )
    })?;
    let seed = parse_u64(
        "--seed",
        &take_opt(&mut args, "--seed")?.ok_or("shrink: --seed is required")?,
    )?;
    let out = take_opt(&mut args, "--out")?;
    let script = match take_opt(&mut args, "--script")? {
        Some(path) => FaultScript::parse(&read(&path)?).map_err(|e| format!("{path}: {e}"))?,
        None => {
            // The case scenario spawns four processes, ids 0..4.
            let pids: Vec<ProcessId> = (0..4u64).map(ProcessId::from_raw).collect();
            sweep_script(seed, &pids)
        }
    };
    if !args.is_empty() {
        return Err(format!("shrink: unexpected arguments {args:?}"));
    }
    println!(
        "shrinking a {}-op script against oracle {} (seed {seed})",
        script.len(),
        class.name()
    );
    let result = shrink_script(&script, |candidate| {
        run_mutation_case(class, seed, candidate, RunMode::Normal)
    });
    let Some(r) = result else {
        println!("the initial script does not trip the {} oracle — nothing to shrink", class.name());
        return Ok(ExitCode::FAILURE);
    };
    println!(
        "minimal script after {} probes ({} ops removed, {} times shrunk):",
        r.probes, r.removed_ops, r.shrunk_times
    );
    if r.script.is_empty() {
        println!("  (empty — the violation needs no faults at all)");
    } else {
        for line in r.script.to_text().lines() {
            println!("  {line}");
        }
    }
    println!("\nwitness of the minimal run:\n{}", r.witness.report);
    if let Some(path) = out {
        std::fs::write(&path, r.script.to_text()).map_err(|e| format!("{path}: {e}"))?;
        println!("minimal script written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_explore(mut args: Vec<String>) -> Result<ExitCode, String> {
    let mut opts = ExploreOpts::default();
    if let Some(p) = take_opt(&mut args, "--procs")? {
        opts.flush.procs = parse_u64("--procs", &p)? as usize;
    }
    if let Some(o) = take_opt(&mut args, "--ops")? {
        opts.flush.ops = parse_u64("--ops", &o)? as usize;
    }
    opts.flush.broken_stability_cut = take_flag(&mut args, "--mutate");
    if let Some(n) = take_opt(&mut args, "--max-schedules")? {
        opts.max_schedules = parse_u64("--max-schedules", &n)? as usize;
    }
    if let Some(d) = take_opt(&mut args, "--depth")? {
        opts.max_branch_points = parse_u64("--depth", &d)? as usize;
    }
    if let Some(w) = take_opt(&mut args, "--window")? {
        let (lo, hi) = w
            .split_once(':')
            .ok_or_else(|| format!("--window {w:?}: expected LO:HI in µs"))?;
        opts.window_us = (parse_u64("--window lo", lo)?, parse_u64("--window hi", hi)?);
    }
    if take_flag(&mut args, "--no-dpor") {
        opts.dpor = false;
    }
    let report_path = take_opt(&mut args, "--report")?;
    let out_dir = take_opt(&mut args, "--out-dir")?;
    let expect_violation = take_flag(&mut args, "--expect-violation");
    if !args.is_empty() {
        return Err(format!("explore: unexpected arguments {args:?}"));
    }
    if !(2..=4).contains(&opts.flush.procs) {
        return Err(format!(
            "explore: --procs {} out of the model-checked range 2..=4",
            opts.flush.procs
        ));
    }

    println!(
        "exploring flush scenario: n={} ops={} window={}..{}µs depth<={} budget={} dpor={} mutation={}",
        opts.flush.procs,
        opts.flush.ops,
        opts.window_us.0,
        opts.window_us.1,
        opts.max_branch_points,
        opts.max_schedules,
        if opts.dpor { "on" } else { "off" },
        if opts.flush.broken_stability_cut { "broken-stability-cut" } else { "none" },
    );
    let result = explore_flush(&opts);
    let summary = result.summary();
    print!("{summary}");
    if let Some(path) = report_path {
        std::fs::write(&path, &summary).map_err(|e| format!("{path}: {e}"))?;
        println!("coverage report written to {path}");
    }
    if let Some(v) = &result.violation {
        if let Some(dir) = out_dir {
            std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
            let witness = format!("{dir}/witness.vsl");
            let minimal = format!("{dir}/minimal.vsl");
            std::fs::write(&witness, v.witness.to_bytes())
                .map_err(|e| format!("{witness}: {e}"))?;
            std::fs::write(&minimal, v.minimized.to_bytes())
                .map_err(|e| format!("{minimal}: {e}"))?;
            println!("witness schedule written to {witness}");
            println!("minimal schedule written to {minimal} (replay with --scenario flush --mutate)");
        }
    }
    let ok = match (expect_violation, result.violation.is_some()) {
        (false, false) | (true, true) => true,
        (false, true) => false,
        (true, false) => {
            println!("expected a violation, but the explored space is clean");
            false
        }
    };
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_probe(args: Vec<String>) -> Result<ExitCode, String> {
    let [addr, request @ ..] = args.as_slice() else {
        return Err("probe: expected <addr> <request…>".into());
    };
    if request.is_empty() {
        return Err("probe: expected a request after the address".into());
    }
    match vstool::live::probe(addr, &request.join(" ")) {
        Ok(reply) => {
            println!("{reply}");
            Ok(ExitCode::SUCCESS)
        }
        Err(msg) => {
            eprintln!("probe: {msg}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_top(mut args: Vec<String>) -> Result<ExitCode, String> {
    use std::io::IsTerminal;
    let interval = match take_opt(&mut args, "--interval")? {
        Some(ms) => Duration::from_millis(parse_u64("--interval", &ms)?),
        None => Duration::from_millis(1000),
    };
    let once = take_flag(&mut args, "--once");
    let iterations = match take_opt(&mut args, "--iterations")? {
        Some(_) if once => return Err("top: --once and --iterations conflict".into()),
        Some(n) => Some(parse_u64("--iterations", &n)?),
        None if once => Some(1),
        None => None,
    };
    let [addr] = args.as_slice() else {
        return Err("top: expected exactly one server address".into());
    };
    let mut client = vstool::live::ProbeClient::connect(addr)
        .map_err(|e| format!("top: {e}"))?;
    // A one-shot frame is for capture, never for a screen: don't clear.
    let clear = !once && std::io::stdout().is_terminal();
    let mut prev: Option<vstool::live::TopSnapshot> = None;
    let mut frame = 0u64;
    loop {
        let mut ask = |req: &str| client.request(req).map_err(|e| format!("top: {req}: {e}"));
        let (metrics, views, health) = (ask("metrics")?, ask("views")?, ask("health")?);
        let cur = vstool::live::TopSnapshot::parse(&metrics, &views, &health)
            .map_err(|e| format!("top: {e}"))?;
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        println!("vstool top — {addr} (frame {frame})");
        print!("{}", vstool::live::render_dashboard(prev.as_ref(), &cur));
        prev = Some(cur);
        frame += 1;
        if let Some(n) = iterations {
            if frame >= n {
                return Ok(ExitCode::SUCCESS);
            }
        }
        std::thread::sleep(interval);
    }
}

fn cmd_slo(mut args: Vec<String>) -> Result<ExitCode, String> {
    use vstool::slo;
    let mut thresholds = slo::SloThresholds::default();
    if let Some(r) = take_opt(&mut args, "--storm-rate")? {
        thresholds.storm_views_per_sec = r
            .parse()
            .map_err(|_| format!("--storm-rate: expected a number, got {r:?}"))?;
    }
    if let Some(ms) = take_opt(&mut args, "--stall-ms")? {
        thresholds.stall_us = parse_u64("--stall-ms", &ms)? * 1000;
    }
    if let Some(f) = take_opt(&mut args, "--straggler-frac")? {
        thresholds.straggler_fraction = f
            .parse()
            .map_err(|_| format!("--straggler-frac: expected a fraction, got {f:?}"))?;
    }
    let out = take_opt(&mut args, "--out")?;
    let fail_on_anomaly = take_flag(&mut args, "--fail-on-anomaly");
    if args.is_empty() {
        return Err("slo: expected at least one endpoint address".into());
    }
    let mut snaps = Vec::new();
    for addr in &args {
        match slo::scrape(addr) {
            Ok(s) => snaps.push(s),
            Err(e) => eprintln!("slo: skipping {addr}: {e}"),
        }
    }
    if snaps.is_empty() {
        return Err("slo: no endpoint could be scraped".into());
    }
    let report = slo::merge(&snaps, &thresholds);
    print!("{}", report.render());
    if let Some(path) = out {
        std::fs::write(&path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("SLO report written to {path}");
    }
    if fail_on_anomaly && !report.anomalies.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "trace" => cmd_trace(args),
        "metrics-diff" => cmd_metrics_diff(args),
        "bench-gate" => cmd_bench_gate(args),
        "record" => cmd_record(args),
        "replay" => cmd_replay(args),
        "shrink" => cmd_shrink(args),
        "explore" => cmd_explore(args),
        "probe" => cmd_probe(args),
        "top" => cmd_top(args),
        "slo" => cmd_slo(args),
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => fail(msg),
    }
}
