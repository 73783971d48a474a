//! `sim_total_order`: five members under the in-process simulator, total
//! order, closed loop, a fixed number of multicasts per member.
//!
//! No socket, frame or codec runs; sequencer, order buffers, ack tracking
//! and stability do all the work on one thread, so wall time is CPU time
//! and every count repeats exactly for a seed. The link model is
//! `SimConfig::default()` (uniform 0.5–2 ms one-way, no loss): latencies
//! are virtual time and reflect that injected delay, not a network.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vs_gcs::ordering::OrderingMode;
use vs_gcs::GcsConfig;
use vs_net::{ProcessId, Sim, SimConfig, SimDuration};

use crate::common::{cpu_us, peak_rss_kb, Report};
use crate::member::{Clock, Control, Load, Member, Spec, Work};
use crate::metrics::{
    check_deliveries, copy_member_trace, copy_program_metrics, set_latencies, set_membership,
    set_trace_overhead, ObsDelta, Outcome,
};
use crate::{Args, SIM_SETUPS};

const GROUP: usize = 5;
const WINDOW: u64 = 16;
const PAYLOAD: usize = 96;
const WARM: u64 = 200;
/// Measured multicasts per member per requested second: sized so that the
/// measured phase takes about `--seconds` of wall clock on the 2-core box
/// the baseline was taken on. Fixed work, so counts repeat exactly.
const MCASTS_PER_MEMBER_PER_SECOND: u64 = 4_000;
/// Virtual time the set-up may take before the run is declared broken.
const FORM_LIMIT: SimDuration = SimDuration::from_secs(30);

struct Group {
    sim: Sim<Member>,
    ctl: Arc<Control>,
}

/// Builds the group and runs it until the full view is installed, every
/// member serves, and the warm-up multicasts are stable everywhere.
fn set_up(seed: u64, count: u64) -> Result<Group, String> {
    let ctl = Control::new();
    let spec = Spec {
        group: GROUP,
        load: Load::Closed { window: WINDOW },
        work: Work::Fixed { warm: WARM, count },
        clock: Clock::Virtual,
        payload: PAYLOAD,
        config: GcsConfig {
            ordering: OrderingMode::Total,
            ..GcsConfig::default()
        },
        seed,
        record: true,
        announce: false,
    };
    let mut sim: Sim<Member> = Sim::new(seed, SimConfig::default());
    let obs = sim.obs().clone();
    for _ in 0..GROUP {
        let site = sim.alloc_site();
        let (spec, ctl, obs) = (spec.clone(), ctl.clone(), obs.clone());
        sim.spawn_with(site, move |pid| {
            let mut m = Member::new(pid, spec, ctl);
            m.set_obs(obs);
            m
        });
    }
    let limit = sim.now() + FORM_LIMIT;
    let warmed = |sim: &Sim<Member>| {
        (0..GROUP as u64).all(|p| {
            sim.actor(ProcessId::from_raw(p))
                .is_some_and(|m| m.quiescent_at(WARM))
        })
    };
    while !warmed(&sim) {
        if sim.now() >= limit {
            return Err(format!(
                "group of {GROUP} did not form and warm up within {FORM_LIMIT:?} virtual"
            ));
        }
        sim.run_for(SimDuration::from_millis(10));
    }
    Ok(Group { sim, ctl })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let scale = if args.smoke { 10 } else { 1 };
    let count = (MCASTS_PER_MEMBER_PER_SECOND * args.seconds / scale).max(WINDOW * 4);
    let cap = Instant::now() + Duration::from_secs(args.seconds * 6 + 60);

    let mut setup_s = Vec::new();
    let mut install_ns = Vec::new();
    let mut settle_ns = Vec::new();
    let mut group = None;
    for k in (0..SIM_SETUPS as u64).rev() {
        // The discarded set-ups form under other seeds, so the formation
        // samples are distinct episodes; the measured group uses `--seed`.
        let t = Instant::now();
        let g = set_up(args.seed.wrapping_add(k * 7919), count)?;
        setup_s.push(t.elapsed().as_secs_f64());
        // Formation starts at virtual instant 0.
        install_ns.push(g.ctl.formed_last_ns.load(Ordering::SeqCst));
        settle_ns.push(g.ctl.serving_last_ns.load(Ordering::SeqCst));
        group = Some(g);
    }
    let Group { mut sim, ctl } = group.expect("SIM_SETUPS >= 1");

    // The measured phase: release the fixed work and step until every
    // member published. A traced run turns tracing on at half the work.
    let total_deliveries = count * (GROUP * (GROUP - 1)) as u64;
    let obs = sim.obs().clone();
    let mut traced_from: Option<(Instant, vs_obs::MetricsRegistry)> = None;
    ctl.go.store(true, Ordering::SeqCst);
    let cpu0 = cpu_us();
    let started = Instant::now();
    while ctl.done.load(Ordering::SeqCst) < GROUP as u64 {
        for _ in 0..256 {
            if sim.step().is_none() {
                return Err("simulator ran out of events before the work was done".into());
            }
        }
        if args.trace
            && traced_from.is_none()
            && ctl.flagged_deliveries.load(Ordering::Relaxed) >= total_deliveries / 2
        {
            traced_from = Some((Instant::now(), obs.metrics_snapshot()));
            ctl.trace_on.store(true, Ordering::SeqCst);
        }
        if Instant::now() > cap {
            return Err("sim_total_order exceeded its wall-clock cap".into());
        }
    }
    let wall = started.elapsed();
    let cpu = cpu_us() - cpu0;
    let after = obs.metrics_snapshot();
    ctl.collect.store(true, Ordering::SeqCst);
    sim.run_for(SimDuration::from_millis(200));

    // Correctness, outside the timed region: the recorded outputs against
    // Properties 2.1-2.3, then the harness's own delivery accounting.
    let mut out = Outcome::default();
    let outputs = sim.drain_outputs();
    match vs_gcs::checker::check(&outputs) {
        Ok(stats) => {
            if stats.deliveries < total_deliveries as usize {
                out.problem(format!(
                    "checker saw {} deliveries, expected at least {total_deliveries}",
                    stats.deliveries
                ));
            }
        }
        Err(violations) => {
            for v in violations.iter().take(5) {
                out.problem(format!("vs_gcs::checker: {v}"));
            }
        }
    }
    let checker_clean = out.problems.is_empty();
    let mut members: Vec<Report> = std::mem::take(&mut *ctl.reports.lock().expect("report lock"));
    members.sort_by_key(|m| m.id);
    if members.len() != GROUP {
        return Err(format!("{} of {GROUP} members reported", members.len()));
    }
    let (attempted, mut failed) = check_deliveries(&members, &mut out);
    if !checker_clean {
        failed = attempted;
    }
    out.attempted = attempted;
    out.failed = failed;
    out.correct = failed == 0 && out.problems.is_empty();

    let mut fleet = Report::default();
    for m in &members {
        fleet.merge(m);
    }
    let deliveries = fleet.sum("delivered_untraced") + fleet.sum("delivered_traced");
    set_latencies(
        &mut out,
        args.trace,
        &mut fleet.take_samples("delivery_ns"),
        &mut fleet.take_samples("stable_ns"),
    );
    if args.trace {
        let Some((traced_at, before)) = traced_from else {
            return Err("traced phase never started".into());
        };
        let untraced_secs = traced_at.duration_since(started).as_secs_f64();
        let traced_secs = (wall.as_secs_f64() - untraced_secs).max(1e-9);
        set_trace_overhead(
            &mut out,
            fleet.sum("delivered_untraced"),
            untraced_secs,
            fleet.sum("delivered_traced"),
            traced_secs,
        );
        out.set("cpu_us_per_msg", cpu as f64 / deliveries.max(1.0));
        // Before the micro-drives: the workload's peak, not theirs.
        out.set("peak_rss_mb", peak_rss_kb() as f64 / 1024.0);
        copy_program_metrics(&mut out, &ObsDelta { before, after });
        copy_member_trace(&mut out, &fleet, traced_secs * 1e9);
        crate::micro::gcs_layers(&mut out);
        crate::micro::sim_layer(&mut out);
        crate::micro::obs_layer(&mut out);
    } else {
        out.set("msgs_per_s", deliveries / wall.as_secs_f64());
        set_membership(&mut out, &mut setup_s, &mut install_ns, &mut settle_ns);
    }
    Ok(out)
}
