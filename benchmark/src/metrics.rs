//! The benchmark's metric tables — the one place a metric's name, unit,
//! direction and bound are declared (`BENCHMARK.json` is generated from
//! them, `check.sh` diffs the two) — and the run [`Outcome`].

use std::collections::BTreeMap;

use vs_obs::{Histogram, MetricsRegistry};

use crate::common::{median_f64, quantile, Report};

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees; reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("msgs_per_s", "1/s", "higher", 0.25),
    e2e("delivery_p50_us", "us", "lower", 0.25),
    e2e("delivery_p90_us", "us", "lower", 0.25),
    e2e("stable_p50_us", "us", "lower", 0.25),
    e2e("view_install_p50_us", "us", "lower", 0.10),
    e2e("view_install_p90_us", "us", "lower", 0.10),
    e2e("settle_p50_us", "us", "lower", 0.10),
];

/// Single-layer numbers; reported by every traced run, 0 where the
/// workload does not run the layer.
pub const PER_LAYER: &[MetricDef] = &[
    // vs-net socket loop
    layer("net.socket.pingpong_hop_us_p50", "us", "lower"),
    layer("net.socket.pingpong_hop_us_p99", "us", "lower"),
    layer("net.threaded.pingpong_hop_us_p50", "us", "lower"),
    layer("net.link_delay_us_p50", "us", "lower"),
    layer("net.tx_batch_frames_mean", "frames", "higher"),
    layer("net.rx_batch_msgs_mean", "msgs", "higher"),
    layer("net.dropped_backpressure", "count", "lower"),
    layer("net.sent_per_mcast", "1/mcast", "lower"),
    // vs-net wire codec
    layer("codec.encode_ns_per_msg", "ns", "lower"),
    layer("codec.decode_ns_per_msg", "ns", "lower"),
    layer("codec.bytes_per_msg", "B", "lower"),
    layer("codec.mix.app_pct", "%", "higher"),
    layer("codec.mix.heartbeat_pct", "%", "lower"),
    layer("codec.mix.order_pct", "%", "lower"),
    layer("codec.app96_encode_ns", "ns", "lower"),
    layer("codec.app16k_encode_ns", "ns", "lower"),
    layer("codec.app16k_decode_ns", "ns", "lower"),
    layer("codec.heartbeat_decode_ns", "ns", "lower"),
    // vs-net simulator
    layer("net.sim.events_per_s", "1/s", "higher"),
    // vs-evs codec and pool
    layer("evs.bufpool_lease_ns", "ns", "lower"),
    layer("evs.bufpool_contended_ns", "ns", "lower"),
    layer("evs.pool_hit_pct", "%", "higher"),
    layer("evs.writer_payload96_ns", "ns", "lower"),
    // vs-gcs endpoint
    layer("gcs.mcast_ns_mean", "ns", "lower"),
    layer("gcs.on_message_ns_mean", "ns", "lower"),
    layer("gcs.on_timer_ns_mean", "ns", "lower"),
    layer("gcs.busy_share", "%", "lower"),
    layer("gcs.busy_share_max", "%", "lower"),
    layer("gcs.piggybacked_acks_per_mcast", "1/mcast", "lower"),
    layer("gcs.stability_advances_per_mcast", "1/mcast", "lower"),
    layer("gcs.retransmissions", "count", "lower"),
    layer("gcs.nacks_sent", "count", "lower"),
    // vs-gcs stability, ordering, flush
    layer("gcs.acktracker_on_receive_ns", "ns", "lower"),
    layer("gcs.acktracker_stable_frontier_n3_ns", "ns", "lower"),
    layer("gcs.acktracker_stable_frontier_n9_ns", "ns", "lower"),
    layer("gcs.order_fifo_insert_ns", "ns", "lower"),
    layer("gcs.order_causal_insert_ns", "ns", "lower"),
    layer("gcs.order_total_insert_ns", "ns", "lower"),
    layer("gcs.flush_deliveries_n8_ns", "ns", "lower"),
    layer("gcs.order_msgs_per_mcast", "1/mcast", "lower"),
    layer("gcs.flush_rounds", "count", "lower"),
    layer("gcs.flush_deliveries", "count", "lower"),
    // vs-membership
    layer("membership.view_changes", "count", "lower"),
    layer("membership.agreements_abandoned", "count", "lower"),
    layer("membership.view_change_latency_us_p50", "us", "lower"),
    layer("fd.suspicions_raised", "count", "lower"),
    layer("fd.heartbeats_suppressed", "count", "higher"),
    // vs-evs e-views and state
    layer("evs.eview_compose_n16_ns", "ns", "lower"),
    layer("evs.annotation_encode_n16_ns", "ns", "lower"),
    layer("evs.classify_ns", "ns", "lower"),
    layer("evs.eview_changes_applied", "count", "lower"),
    layer("evs.merge_requests", "count", "lower"),
    layer("apps.transfer_bytes_mean", "B", "lower"),
    // vs-obs
    layer("obs.inc_ns", "ns", "lower"),
    layer("obs.observe_ns", "ns", "lower"),
    layer("obs.record_ns", "ns", "lower"),
    layer("stage.encode_us_p50", "us", "lower"),
    layer("stage.wire_us_p50", "us", "lower"),
    layer("stage.order_hold_us_p50", "us", "lower"),
    layer("stage.stability_hold_us_p50", "us", "lower"),
    layer("stage.delivery_total_us_p50", "us", "lower"),
    layer("stage.stable_us_p50", "us", "lower"),
    layer("latency.orphaned", "count", "lower"),
    // harness: the end-to-end numbers that are too unsteady to carry a bound
    layer("delivery_p99_us", "us", "lower"),
    layer("stable_p90_us", "us", "lower"),
    layer("stable_p99_us", "us", "lower"),
    layer("cpu_us_per_msg", "us", "lower"),
    layer("peak_rss_mb", "MB", "lower"),
    layer("harness.generator_lag_p99_us", "us", "lower"),
    layer("harness.trace_overhead_pct", "%", "lower"),
    layer("harness.mean_msgs_per_s", "1/s", "higher"),
    layer("harness.stall_share_pct", "%", "lower"),
];

/// One workload: its name and why it exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "socket_flood_small",
        "3 processes, loopback TCP, closed loop of 96 B: per-message cost of socket loop, frame and codec dominates",
    ),
    (
        "socket_flood_large",
        "same fleet with 16 KiB payloads: bytes, copies and frame reassembly dominate, so an extra copy shows here",
    ),
    (
        "socket_paced",
        "same fleet, open loop at 1000/s per member: nothing queues, latency is wake-up plus ack cadence",
    ),
    (
        "sim_total_order",
        "5 members in the simulator, total order, fixed work: sequencer and stability only; socket changes must not move it",
    ),
    (
        "sim_churn",
        "8 KV group objects under a seeded partition/heal/crash/recover script: view agreement, flush, e-views, merging",
    ),
];

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Why the run is incorrect, for stderr.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// The result line: every metric of `defs`, 0 where the run set none.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, v, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The latency metrics, from raw samples in nanoseconds. The medians and
/// the delivery 90th percentile carry a bound (untraced runs). The 99th
/// percentiles follow whatever else runs on the host, and under the closed
/// loops a tenth of the multicasts — sometimes more, sometimes fewer —
/// waits for the 10 ms heartbeat to become stable, which puts the stable
/// 90th percentile on a cliff; those three are reported per layer (traced
/// runs) and carry none.
pub fn set_latencies(
    out: &mut Outcome,
    traced: bool,
    delivery_ns: &mut [u64],
    stable_ns: &mut [u64],
) {
    let us = |samples: &mut [u64], q: f64| quantile(samples, q) / 1_000.0;
    if traced {
        out.set("delivery_p99_us", us(delivery_ns, 0.99));
        out.set("stable_p90_us", us(stable_ns, 0.90));
        out.set("stable_p99_us", us(stable_ns, 0.99));
    } else {
        out.set("delivery_p50_us", us(delivery_ns, 0.50));
        out.set("delivery_p90_us", us(delivery_ns, 0.90));
        out.set("stable_p50_us", us(stable_ns, 0.50));
    }
}

/// `setup_s` and the membership-change metrics of an untraced run, from
/// the set-up times (seconds) and the episodes' raw samples (nanoseconds).
pub fn set_membership(
    out: &mut Outcome,
    setup_s: &mut [f64],
    install_ns: &mut [u64],
    settle_ns: &mut [u64],
) {
    out.set("setup_s", median_f64(setup_s));
    out.set("view_install_p50_us", quantile(install_ns, 0.50) / 1_000.0);
    out.set("view_install_p90_us", quantile(install_ns, 0.90) / 1_000.0);
    out.set("settle_p50_us", quantile(settle_ns, 0.50) / 1_000.0);
}

/// `harness.trace_overhead_pct`: how much slower deliveries came in the
/// traced phase than in the untraced one.
pub fn set_trace_overhead(
    out: &mut Outcome,
    untraced: f64,
    untraced_secs: f64,
    traced: f64,
    traced_secs: f64,
) {
    let untraced_rate = untraced / untraced_secs.max(1e-9);
    let traced_rate = traced / traced_secs.max(1e-9);
    out.set(
        "harness.trace_overhead_pct",
        100.0 * (1.0 - traced_rate / untraced_rate.max(1e-9)),
    );
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, d.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// What the program's own registry recorded between two snapshots.
pub struct ObsDelta {
    pub before: MetricsRegistry,
    pub after: MetricsRegistry,
}

impl ObsDelta {
    pub fn counter(&self, name: &str) -> f64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name)) as f64
    }

    /// The histogram of the observations made between the snapshots.
    fn hist(&self, name: &str) -> Option<Histogram> {
        let after = self.after.histogram(name)?;
        let Some(before) = self.before.histogram(name) else {
            return Some(after.clone());
        };
        let counts: Vec<u64> = after
            .bucket_counts()
            .iter()
            .zip(before.bucket_counts())
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        Histogram::from_parts(
            after.bounds(),
            &counts,
            after.sum().saturating_sub(before.sum()),
            after.min().unwrap_or(0),
            after.max().unwrap_or(0),
        )
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.hist(name).and_then(|h| h.mean()).unwrap_or(0.0)
    }

    /// Bucket-interpolated median: a program-side number, copied as is.
    pub fn p50(&self, name: &str) -> f64 {
        self.hist(name).and_then(|h| h.quantile(0.5)).unwrap_or(0.0)
    }
}

/// The per-layer numbers every workload copies from the program's registry.
pub fn copy_program_metrics(out: &mut Outcome, d: &ObsDelta) {
    let mcasts = d.counter("gcs.mcasts").max(1.0);
    out.set("net.link_delay_us_p50", d.p50("net.link_delay_us"));
    out.set("net.tx_batch_frames_mean", d.mean("net.tx_batch_frames"));
    out.set("net.rx_batch_msgs_mean", d.mean("net.rx_batch_msgs"));
    out.set(
        "net.dropped_backpressure",
        d.counter("net.dropped_backpressure"),
    );
    out.set("net.sent_per_mcast", d.counter("net.sent") / mcasts);
    out.set(
        "gcs.piggybacked_acks_per_mcast",
        d.counter("gcs.piggybacked_acks") / mcasts,
    );
    out.set(
        "gcs.stability_advances_per_mcast",
        d.counter("gcs.stability_advances") / mcasts,
    );
    out.set("gcs.retransmissions", d.counter("gcs.retransmissions"));
    out.set("gcs.nacks_sent", d.counter("gcs.nacks_sent"));
    out.set("gcs.flush_rounds", d.counter("gcs.flush_rounds"));
    out.set("gcs.flush_deliveries", d.counter("gcs.flush_deliveries"));
    out.set(
        "membership.view_changes",
        d.counter("membership.views_installed"),
    );
    out.set(
        "membership.agreements_abandoned",
        d.counter("membership.agreements_abandoned"),
    );
    out.set(
        "membership.view_change_latency_us_p50",
        d.p50("membership.view_change_latency_us"),
    );
    out.set("fd.suspicions_raised", d.counter("fd.suspicions_raised"));
    out.set(
        "fd.heartbeats_suppressed",
        d.counter("fd.heartbeats_suppressed"),
    );
    out.set(
        "evs.eview_changes_applied",
        d.counter("evs.eview_changes_applied"),
    );
    out.set("evs.merge_requests", d.counter("evs.merge_requests"));
    for (name, hist) in [
        ("stage.encode_us_p50", "stage.encode_us"),
        ("stage.wire_us_p50", "stage.wire_us"),
        ("stage.order_hold_us_p50", "stage.order_hold_us"),
        ("stage.stability_hold_us_p50", "stage.stability_hold_us"),
        ("stage.delivery_total_us_p50", "stage.delivery_total_us"),
        ("stage.stable_us_p50", "stage.stable_us"),
    ] {
        out.set(name, d.p50(hist));
    }
    out.set("latency.orphaned", d.counter("latency.orphaned"));
}

/// The per-layer numbers the traced [`Member`](crate::member::Member)s
/// measured around their calls into the endpoint and the codec. `phase_ns`
/// is the length of the traced phase (wall clock).
pub fn copy_member_trace(out: &mut Outcome, fleet: &Report, phase_ns: f64) {
    let per = |sum: &str, calls: &str| fleet.sum(sum) / fleet.sum(calls).max(1.0);
    out.set("gcs.mcast_ns_mean", per("tr.mcast_ns", "tr.mcast_calls"));
    out.set(
        "gcs.on_message_ns_mean",
        per("tr.on_message_ns", "tr.on_message_calls"),
    );
    out.set(
        "gcs.on_timer_ns_mean",
        per("tr.on_timer_ns", "tr.on_timer_calls"),
    );
    let busy = fleet.samples.get("busy_ns").cloned().unwrap_or_default();
    let share = |ns: f64| 100.0 * ns / phase_ns.max(1.0);
    out.set("gcs.busy_share", share(crate::common::mean(&busy)));
    out.set(
        "gcs.busy_share_max",
        share(busy.iter().copied().max().unwrap_or(0) as f64),
    );
    out.set(
        "gcs.order_msgs_per_mcast",
        per("tr.inbound_order", "tr.mcast_calls"),
    );
    out.set(
        "codec.encode_ns_per_msg",
        per("tr.encode_ns", "tr.codec_samples"),
    );
    out.set(
        "codec.decode_ns_per_msg",
        per("tr.decode_ns", "tr.codec_samples"),
    );
    out.set(
        "codec.bytes_per_msg",
        per("tr.encoded_bytes", "tr.codec_samples"),
    );
    // The mix is a property of the wire, so it is only reported where the
    // codec runs (the sampler's count is 0 on the simulator).
    if fleet.sum("tr.codec_samples") > 0.0 {
        let pct = |part: &str| 100.0 * fleet.sum(part) / fleet.sum("tr.inbound").max(1.0);
        out.set("codec.mix.app_pct", pct("tr.inbound_app"));
        out.set("codec.mix.heartbeat_pct", pct("tr.inbound_heartbeat"));
        out.set("codec.mix.order_pct", pct("tr.inbound_order"));
    }
}

/// The in-run delivery check shared by the GCS workloads: every member
/// must have delivered every other member's declared in-window range,
/// gap-free and in FIFO order, with intact payloads, in one view.
///
/// Returns `(attempted, failed)` in multicasts; any structural violation
/// fails every multicast of the run.
pub fn check_deliveries(members: &[Report], out: &mut Outcome) -> (u64, u64) {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut broken = false;
    for (s, sender) in members.iter().enumerate() {
        let Some((first, last)) = sender.window else {
            out.problem(format!("member {s} multicast nothing inside the window"));
            broken = true;
            continue;
        };
        let expected = last - first + 1;
        attempted += expected;
        let mut worst_missing = 0;
        for (r, receiver) in members.iter().enumerate() {
            if r == s {
                continue;
            }
            let got = receiver
                .delivered
                .get(&(s as u64))
                .copied()
                .unwrap_or_default();
            worst_missing = worst_missing.max(expected.saturating_sub(got.count));
            if got.count > 0 && (got.first != first || got.last != last || got.out_of_order > 0) {
                out.problem(format!(
                    "member {r} delivered {got:?} of member {s}'s window {first}..={last}"
                ));
                broken = true;
            }
            if got.count > expected {
                out.problem(format!(
                    "member {r} delivered {} > {expected} of member {s}",
                    got.count
                ));
                broken = true;
            }
        }
        failed += worst_missing;
    }
    for (i, m) in members.iter().enumerate() {
        if m.sum("bad_payloads") > 0.0 {
            out.problem(format!(
                "member {i} saw {} corrupt payloads",
                m.sum("bad_payloads")
            ));
            broken = true;
        }
        if m.sum("view_changes_after_formation") > 0.0 {
            out.problem(format!("member {i} saw a view change after formation"));
            broken = true;
        }
    }
    if failed > 0 {
        out.problem(format!(
            "{failed} of {attempted} multicasts missed a member"
        ));
    }
    if broken {
        failed = attempted;
    }
    (attempted, failed)
}
