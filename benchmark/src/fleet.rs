//! The socket workloads: three OS processes, one `SocketNet` node each,
//! one view-synchronous group over loopback TCP.
//!
//! The driver process re-executes itself as the nodes (`vs-benchmark node
//! ...`) and talks to them over stdio: `NODE`/`PEERS` wire the fleet,
//! `FORMED`/`SERVING` report the formation, `WINDOW` publishes the
//! measured window on the shared UNIX clock, `DONE`/`REPORT`/`END` collect
//! the results, `QUIT` ends a node. Everything crosses the host's loopback
//! interface; no real link is measured.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vs_evs::BufPool;
use vs_gcs::GcsConfig;
use vs_membership::DetectorConfig;
use vs_net::socket::SocketNet;
use vs_net::{ProcessId, SimDuration};

use crate::common::{cpu_us, median_f64, peak_rss_kb, quantile, unix_ns, Report};
use crate::member::{Clock, Control, Load, Member, Spec, Work};
use crate::metrics::{
    check_deliveries, copy_member_trace, copy_program_metrics, set_latencies, set_membership,
    set_trace_overhead, ObsDelta, Outcome, PER_LAYER,
};
use crate::{Args, SETUPS};

const NODES: usize = 3;
const WINDOW: u64 = 16;
/// Load runs this long before the measured window opens.
const WARMUP: Duration = Duration::from_secs(1);
const SMOKE_WARMUP: Duration = Duration::from_millis(300);
/// A fleet that cannot form a full view in this long is broken, not slow.
const FORM_TIMEOUT: Duration = Duration::from_secs(30);
/// How long after the window closes every multicast must be stable.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(15);

/// The failure detector's silence threshold for the wall-clock fleets. The
/// stack's default (35 ms) is tuned for the simulator; on a shared 2-core
/// host a node thread can lose the processor for longer than that, and a
/// false suspicion turns a steady-state run into a view-change run. This
/// is a deployment setting; nothing else of `GcsConfig` is changed.
const SUSPECT_AFTER: SimDuration = SimDuration::from_millis(500);

fn spec_for(workload: &str, seed: u64) -> Option<Spec> {
    let (load, payload) = match workload {
        "socket_flood_small" => (Load::Closed { window: WINDOW }, 96),
        "socket_flood_large" => (Load::Closed { window: WINDOW }, 16 * 1024),
        "socket_paced" => (
            Load::Paced {
                period_ns: 1_000_000,
            },
            96,
        ),
        _ => return None,
    };
    Some(Spec {
        group: NODES,
        load,
        work: Work::Timed,
        clock: Clock::Wall,
        payload,
        config: GcsConfig {
            detector: DetectorConfig {
                suspect_after: SUSPECT_AFTER,
                ..DetectorConfig::default()
            },
            ..GcsConfig::default()
        },
        seed,
        record: false,
        announce: true,
    })
}

// ---------------------------------------------------------------------
// node process
// ---------------------------------------------------------------------

/// What the node's main thread does at an instant of the shared clock.
enum Step {
    WindowOpens,
    /// A boundary between two [`CPU_SLICE_NS`] slices of the window.
    CpuMark,
    TraceOn,
    WindowCloses,
}

/// Body of `vs-benchmark node <idx> <workload> <seed>`. Exits when told to,
/// when its stdin closes (the driver died), or when nothing was asked of
/// it for two minutes.
pub fn node_main(argv: &[String]) -> i32 {
    let parsed = (|| {
        let idx: u64 = argv.first()?.parse().ok()?;
        let seed: u64 = argv.get(2)?.parse().ok()?;
        Some((idx, spec_for(argv.get(1)?, seed)?, seed))
    })();
    let Some((idx, spec, seed)) = parsed else {
        eprintln!("usage: vs-benchmark node <idx> <socket workload> <seed>");
        return 2;
    };
    let mut net: SocketNet<Member> = match SocketNet::new(seed.wrapping_add(idx)) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("node {idx}: cannot bind: {e}");
            return 1;
        }
    };
    let obs = net.obs().clone();
    println!("NODE {idx} {}", net.local_addr());

    let (tx, commands) = channel::<String>();
    std::thread::spawn(move || {
        for line in std::io::stdin().lock().lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let ctl = Control::new();
    let mut plan: Vec<(u64, Step)> = Vec::new();
    let mut pool_open = BufPool::global().stats();
    let mut rep = Report::default();
    let mut obs_before = None;
    let mut obs_after = None;
    loop {
        let wait = match plan.first() {
            Some((at, _)) => Duration::from_nanos(at.saturating_sub(unix_ns())),
            None => Duration::from_secs(120),
        };
        let line = match commands.recv_timeout(wait) {
            Ok(line) => line,
            Err(RecvTimeoutError::Timeout) if !plan.is_empty() => {
                match plan.remove(0).1 {
                    Step::WindowOpens => pool_open = BufPool::global().stats(),
                    Step::CpuMark => rep.push("cpu_mark_us", cpu_us()),
                    Step::TraceOn => {
                        obs_before = Some(obs.metrics_snapshot());
                        ctl.trace_on.store(true, Ordering::SeqCst);
                    }
                    Step::WindowCloses => {
                        let pool = BufPool::global().stats();
                        rep.add("pool_hits", (pool.hits - pool_open.hits) as f64);
                        rep.add("pool_misses", (pool.misses - pool_open.misses) as f64);
                        obs_after = Some(obs.metrics_snapshot());
                        // Before the report is rendered: the program's
                        // peak, not the harness's.
                        rep.push("peak_rss_kb", peak_rss_kb());
                    }
                }
                continue;
            }
            // Idle for too long, or the driver is gone.
            Err(_) => return 1,
        };
        let mut words = line.split_whitespace();
        match words.next() {
            Some("PEERS") => {
                for (j, addr) in words.enumerate() {
                    if j as u64 != idx {
                        match addr.parse() {
                            Ok(addr) => net.add_peer(ProcessId::from_raw(j as u64), addr),
                            Err(_) => return 2,
                        }
                    }
                }
                let me = ProcessId::from_raw(idx);
                let mut member = Member::new(me, spec.clone(), ctl.clone());
                member.set_obs(obs.clone());
                net.spawn_as(me, member);
            }
            Some("WINDOW") => {
                let mut at = || {
                    words
                        .next()
                        .and_then(|w| w.parse::<u64>().ok())
                        .unwrap_or(u64::MAX)
                };
                let (t0, t1, tm) = (at(), at(), at());
                ctl.t0_ns.store(t0, Ordering::SeqCst);
                ctl.t1_ns.store(t1, Ordering::SeqCst);
                plan.push((t0, Step::WindowOpens));
                plan.extend(
                    (t0..=t1)
                        .step_by(CPU_SLICE_NS as usize)
                        .map(|at| (at, Step::CpuMark)),
                );
                if tm != u64::MAX {
                    plan.push((tm, Step::TraceOn));
                }
                plan.push((t1, Step::WindowCloses));
                plan.sort_by_key(|(at, _)| *at);
            }
            Some("REPORT") => {
                // The member publishes at its next callback; its endpoint
                // ticks every 10 ms.
                ctl.collect.store(true, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(5);
                while ctl.reports.lock().expect("report lock").is_empty()
                    && Instant::now() < deadline
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                if let Some(member) = ctl.reports.lock().expect("report lock").pop() {
                    rep.delivered = member.delivered.clone();
                    rep.window = member.window;
                    rep.merge(&member);
                }
                if let (Some(before), Some(after)) = (obs_before.take(), obs_after.take()) {
                    // This node's share of the program-side per-layer
                    // numbers.
                    let mut own = Outcome::default();
                    copy_program_metrics(&mut own, &ObsDelta { before, after });
                    for (name, v) in &own.values {
                        rep.add(&format!("obs.{name}"), *v);
                    }
                }
                print!("{}", rep.to_lines());
                println!("END");
            }
            Some("QUIT") => {
                net.shutdown();
                return 0;
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// driver process
// ---------------------------------------------------------------------

/// Every live node process, so a failing or timed-out driver can kill them
/// all: no orphaned nodes, no leftover listeners.
static CHILDREN: Mutex<Vec<Arc<Mutex<Child>>>> = Mutex::new(Vec::new());

pub fn kill_all_children() {
    for child in CHILDREN.lock().expect("child registry").drain(..) {
        let mut child = child.lock().expect("child lock");
        let _ = child.kill();
        let _ = child.wait();
    }
}

struct Node {
    child: Arc<Mutex<Child>>,
    stdin: ChildStdin,
    lines: Receiver<String>,
}

struct Fleet {
    nodes: Vec<Node>,
}

impl Fleet {
    /// Spawns the node processes and wires them to each other. Returns the
    /// fleet and the instant (shared clock) the peer lists went out.
    fn spawn(args: &Args) -> Result<(Fleet, u64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let mut fleet = Fleet { nodes: Vec::new() };
        for idx in 0..NODES {
            let mut child = Command::new(&exe)
                .args([
                    "node",
                    &idx.to_string(),
                    &args.workload,
                    &args.seed.to_string(),
                ])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn node {idx}: {e}"))?;
            let stdin = child.stdin.take().expect("piped stdin");
            let stdout = child.stdout.take().expect("piped stdout");
            let (tx, lines) = channel();
            std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            });
            let child = Arc::new(Mutex::new(child));
            CHILDREN.lock().expect("child registry").push(child.clone());
            fleet.nodes.push(Node {
                child,
                stdin,
                lines,
            });
        }
        let deadline = Instant::now() + FORM_TIMEOUT;
        let mut addrs = Vec::new();
        for idx in 0..NODES {
            let rest = fleet.expect(idx, "NODE", deadline)?;
            addrs.push(
                rest.split_whitespace()
                    .nth(1)
                    .unwrap_or_default()
                    .to_string(),
            );
        }
        let sent = unix_ns();
        fleet.send_all(&format!("PEERS {}", addrs.join(" ")))?;
        Ok((fleet, sent))
    }

    fn send_all(&mut self, line: &str) -> Result<(), String> {
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            writeln!(node.stdin, "{line}")
                .and_then(|()| node.stdin.flush())
                .map_err(|e| format!("node {idx} stdin: {e}"))?;
        }
        Ok(())
    }

    /// The rest of node `idx`'s next line that starts with `tag`.
    fn expect(&mut self, idx: usize, tag: &str, deadline: Instant) -> Result<String, String> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.nodes[idx].lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix(tag) {
                        return Ok(rest.trim().to_string());
                    }
                    if let Some(why) = line.strip_prefix("BROKEN") {
                        return Err(format!("node {idx}:{why}"));
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("node {idx}: no {tag} in time"))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("node {idx} exited before {tag}"))
                }
            }
        }
    }

    /// The latest of the instants the nodes report under `tag`.
    fn latest(&mut self, tag: &str, deadline: Instant) -> Result<u64, String> {
        let mut latest = 0;
        for idx in 0..NODES {
            let at: u64 = self
                .expect(idx, tag, deadline)?
                .parse()
                .map_err(|_| format!("node {idx}: malformed {tag}"))?;
            latest = latest.max(at);
        }
        Ok(latest)
    }

    fn report(&mut self, idx: usize, deadline: Instant) -> Result<Report, String> {
        let mut rep = Report::default();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.nodes[idx].lines.recv_timeout(left) {
                Ok(line) if line == "END" => return Ok(rep),
                Ok(line) => rep.absorb_line(&line)?,
                Err(_) => return Err(format!("node {idx}: report cut short")),
            }
        }
    }

    /// Asks every node to leave and waits for it; stragglers are killed by
    /// the drop that follows.
    fn quit(mut self) -> Result<(), String> {
        self.send_all("QUIT")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        for (idx, node) in self.nodes.iter().enumerate() {
            loop {
                let status = node.child.lock().expect("child lock").try_wait();
                match status {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => return Err(format!("node {idx} failed: {status}")),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2))
                    }
                    _ => return Err(format!("node {idx} did not exit")),
                }
            }
        }
        Ok(())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let mut registry = CHILDREN.lock().expect("child registry");
        for node in &self.nodes {
            let mut child = node.child.lock().expect("child lock");
            let _ = child.kill();
            let _ = child.wait();
            registry.retain(|c| !Arc::ptr_eq(c, &node.child));
        }
    }
}

/// The window is cut into slices this long for `cpu_us_per_msg`.
const CPU_SLICE_NS: u64 = 500_000_000;

/// Processor time per delivery: the median, over the window's
/// [`CPU_SLICE_NS`] slices, of the fleet's CPU in the slice ÷ its deliveries
/// in the slice. A median over slices for the reason given at
/// [`sustained_rate`]: lock-step phases deliver little and still poll.
fn cpu_us_per_msg(members: &[Report], delivered_at_ns: &[u64], t0: u64) -> f64 {
    let slices = members
        .iter()
        .map(|m| {
            m.samples
                .get("cpu_mark_us")
                .map_or(0, |marks| marks.len().saturating_sub(1))
        })
        .min()
        .unwrap_or(0);
    let mut delivered = vec![0u64; slices];
    for at in delivered_at_ns {
        if let Some(n) = delivered.get_mut((at.saturating_sub(t0) / CPU_SLICE_NS) as usize) {
            *n += 1;
        }
    }
    let mut per_msg: Vec<f64> = (0..slices)
        .map(|i| {
            let cpu: u64 = members
                .iter()
                .map(|m| m.samples["cpu_mark_us"][i + 1] - m.samples["cpu_mark_us"][i])
                .sum();
            cpu as f64 / delivered[i].max(1) as f64
        })
        .collect();
    median_f64(&mut per_msg)
}

/// Slices the window's deliveries cut into for the sustained rate.
const RATE_CHUNKS: usize = 200;

/// The rate the fleet sustains: the in-window deliveries, ordered by the
/// instant they happened, are cut into [`RATE_CHUNKS`] slices of equal
/// count, and the median of the slices' rates (count ÷ duration) is taken.
///
/// The closed loops are bistable on this stack — acks ride on data, so when
/// every member has its window full at once the group falls into lock-step
/// with the 10 ms heartbeat tick until jitter breaks it — and the share of
/// a run spent locked varies from run to run by far more than any bound
/// could absorb. The median slice says what the group delivers while it
/// flows; the second value is the share of the window spent in slices at
/// under half that rate, and both it and the plain mean are reported per
/// layer so a change in the stall behaviour still shows.
fn sustained_rate(delivered_at_ns: &mut [u64]) -> (f64, f64) {
    delivered_at_ns.sort_unstable();
    let size = (delivered_at_ns.len() / RATE_CHUNKS).max(2);
    let slices: Vec<(f64, f64)> = delivered_at_ns
        .chunks(size)
        .zip(delivered_at_ns.chunks(size).skip(1))
        .map(|(this, next)| {
            let span = (next[0] - this[0]).max(1) as f64 / 1e9;
            (this.len() as f64 / span, span)
        })
        .collect();
    let mut rates: Vec<f64> = slices.iter().map(|s| s.0).collect();
    let median = median_f64(&mut rates);
    let total: f64 = slices.iter().map(|s| s.1).sum();
    let stalled: f64 = slices
        .iter()
        .filter(|s| s.0 < median / 2.0)
        .map(|s| s.1)
        .sum();
    (median, stalled / total.max(1e-9))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Set the fleet up several times: `setup_s` and the formation episodes
    // are medians; only the last fleet goes on to be measured.
    let mut setup_s = Vec::new();
    let mut install_ns = Vec::new();
    let mut settle_ns = Vec::new();
    let mut measured = None;
    for k in 0..SETUPS {
        let started = Instant::now();
        let deadline = started + FORM_TIMEOUT;
        let (mut fleet, wired_at) = Fleet::spawn(args)?;
        let formed = fleet.latest("FORMED", deadline)?;
        setup_s.push(started.elapsed().as_secs_f64());
        let serving = fleet.latest("SERVING", deadline)?;
        install_ns.push(formed.saturating_sub(wired_at));
        settle_ns.push(serving.saturating_sub(wired_at));
        if k + 1 < SETUPS {
            fleet.quit()?;
        } else {
            measured = Some(fleet);
        }
    }
    let mut fleet = measured.expect("SETUPS >= 1");

    let warmup = if args.smoke { SMOKE_WARMUP } else { WARMUP };
    let t0 = unix_ns() + warmup.as_nanos() as u64;
    let t1 = t0 + args.seconds * 1_000_000_000;
    let tm = if args.trace {
        t0 + (t1 - t0) / 2
    } else {
        u64::MAX
    };
    fleet.send_all(&format!("WINDOW {t0} {t1} {tm}"))?;
    let deadline = Instant::now() + warmup + Duration::from_secs(args.seconds) + DRAIN_TIMEOUT;
    for idx in 0..NODES {
        fleet.expect(idx, "DONE", deadline)?;
    }
    fleet.send_all("REPORT")?;
    let mut members = Vec::new();
    for idx in 0..NODES {
        members.push(fleet.report(idx, deadline)?);
    }
    fleet.quit()?;

    let mut out = Outcome::default();
    let (attempted, failed) = check_deliveries(&members, &mut out);
    out.attempted = attempted;
    out.failed = failed;
    out.correct = failed == 0 && out.problems.is_empty();

    let mut all = Report::default();
    for m in &members {
        all.merge(m);
    }
    let mut delivered_at = all.take_samples("delivered_at_ns");
    let cpu_per_msg = cpu_us_per_msg(&members, &delivered_at, t0);
    let (sustained, stall_share) = sustained_rate(&mut delivered_at);
    set_latencies(
        &mut out,
        args.trace,
        &mut all.take_samples("delivery_ns"),
        &mut all.take_samples("stable_ns"),
    );
    if args.trace {
        out.set("cpu_us_per_msg", cpu_per_msg);
        let rss = all.take_samples("peak_rss_kb");
        out.set(
            "peak_rss_mb",
            rss.iter().copied().max().unwrap_or(0) as f64 / 1024.0,
        );
        let deliveries = all.sum("delivered_untraced") + all.sum("delivered_traced");
        out.set("harness.mean_msgs_per_s", deliveries / args.seconds as f64);
        out.set("harness.stall_share_pct", 100.0 * stall_share);
        set_trace_overhead(
            &mut out,
            all.sum("delivered_untraced"),
            (tm - t0) as f64,
            all.sum("delivered_traced"),
            (t1 - tm) as f64,
        );
        // The nodes' shares of the program-side numbers: counts add up,
        // everything else (means, medians, ratios) is averaged.
        for def in PER_LAYER {
            let key = format!("obs.{}", def.name);
            if let Some(total) = all.sums.get(&key) {
                let share = if def.unit == "count" {
                    1.0
                } else {
                    NODES as f64
                };
                out.set(def.name, total / share);
            }
        }
        copy_member_trace(&mut out, &all, (t1 - tm) as f64);
        let leases = all.sum("pool_hits") + all.sum("pool_misses");
        out.set(
            "evs.pool_hit_pct",
            100.0 * all.sum("pool_hits") / leases.max(1.0),
        );
        let mut lag = all.take_samples("lag_ns");
        out.set(
            "harness.generator_lag_p99_us",
            quantile(&mut lag, 0.99) / 1_000.0,
        );
        crate::micro::net_socket_layer(&mut out);
        crate::micro::codec_layer(&mut out);
        crate::micro::evs_pool_layer(&mut out);
        crate::micro::gcs_layers(&mut out);
        crate::micro::obs_layer(&mut out);
    } else {
        out.set("msgs_per_s", sustained);
        set_membership(&mut out, &mut setup_s, &mut install_ns, &mut settle_ns);
    }
    Ok(out)
}
