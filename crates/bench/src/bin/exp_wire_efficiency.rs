//! W1 — wire efficiency of the data plane.
//!
//! Runs one workload — group formation, a multicast load, a partition, a
//! heal — across group size × load and reports what reaches the wire:
//! `net.sent`, `gcs.retransmissions`, and `gcs.stability_advances`
//! (piggybacked ack deltas, NACK-driven selective retransmission,
//! heartbeat suppression). The runs are aggregated into
//! `BENCH_wire_efficiency.json`. The plane this one replaced (full-vector
//! heartbeats every tick, blanket retransmit on lagging acks) is gone from
//! the code; its column of the comparison is frozen in EXPERIMENTS.md §W1.

use vs_bench::Table;
use vs_evs::{BufPool, PoolStats};
use vs_gcs::{GcsConfig, GcsEndpoint};
use vs_net::{NetStats, ProcessId, Sim, SimDuration};
use vs_obs::MetricsRegistry;

struct Run {
    stats: NetStats,
    metrics: MetricsRegistry,
    /// Codec-buffer pool activity attributable to this run alone.
    pool_hits: u64,
    pool_misses: u64,
}

fn workload(n: usize, load: u64) -> Run {
    let label = &format!("optimized_n{n}_l{load}");
    let mut sim: Sim<GcsEndpoint<String>> =
        Sim::new(n as u64 * 1000 + load, vs_bench::sim_config());
    let mut pids: Vec<ProcessId> = Vec::new();
    for _ in 0..n {
        let site = sim.alloc_site();
        pids.push(sim.spawn_with(site, |p| GcsEndpoint::new(p, GcsConfig::default())));
    }
    let all = pids.clone();
    let obs = sim.obs().clone();
    for &p in &pids {
        sim.invoke(p, |e, _| {
            e.set_contacts(all.iter().copied());
            e.set_obs(obs.clone());
        });
    }
    vs_bench::observe_run("exp_wire_efficiency", &format!("{label}_n{n}_l{load}"), &mut sim);
    sim.run_for(SimDuration::from_millis(700));
    assert_eq!(
        sim.actor(pids[0]).map(|e| e.view().len()).unwrap_or(0),
        n,
        "group formed"
    );
    // Steady-state multicast load.
    for i in 0..load {
        let p = pids[(i as usize) % n];
        sim.invoke(p, |e, ctx| e.mcast(format!("m{i}"), ctx));
        sim.run_for(SimDuration::from_millis(15));
    }
    // Partition + heal: the membership traffic is part of the bill.
    sim.partition(&[pids[..n / 2].to_vec(), pids[n / 2..].to_vec()]);
    sim.run_for(SimDuration::from_secs(1));
    sim.heal();
    sim.run_for(SimDuration::from_secs(3));
    assert_eq!(
        sim.actor(pids[0]).map(|e| e.view().len()).unwrap_or(0),
        n,
        "group re-merged after heal"
    );
    vs_bench::assert_monitor_clean("exp_wire_efficiency", sim.obs());
    vs_bench::save_run_artifacts("exp_wire_efficiency", label, &mut sim);
    // Codec pass: push this run's wire-frame count through the pooled
    // writer, the way the socket transport's hot path frames every
    // message. Before the `BufPool`, each frame allocated a fresh
    // buffer; now only the misses do — the delta is the allocations the
    // pool absorbed for exactly this traffic volume.
    let before = BufPool::global().stats();
    for seq in 0..sim.stats().sent {
        let mut w = vs_evs::Writer::with_capacity(64);
        w.u64(seq);
        w.bytes(b"stand-in for one encoded wire frame");
        let _ = w.finish();
    }
    let after = BufPool::global().stats();
    Run {
        stats: *sim.stats(),
        metrics: sim.obs().metrics_snapshot(),
        pool_hits: after.hits - before.hits,
        pool_misses: after.misses - before.misses,
    }
}

fn main() {
    vs_bench::init_observability();
    println!("W1 — wire efficiency of the data plane");
    let mut table = Table::new(&[
        "n",
        "load",
        "net.sent",
        "retransmissions",
        "stability advances",
        "codec allocs",
    ]);
    let mut agg = MetricsRegistry::new();
    let mut pool_total = PoolStats::default();
    for &n in &[4usize, 8, 16] {
        for &load in &[10u64, 50] {
            let run = workload(n, load);
            agg.absorb(&run.metrics);
            pool_total.hits += run.pool_hits;
            pool_total.misses += run.pool_misses;
            table.row(&[
                &n,
                &load,
                &run.stats.sent,
                &run.metrics.counter("gcs.retransmissions"),
                &run.metrics.counter("gcs.stability_advances"),
                &format!("{}→{}", run.pool_hits + run.pool_misses, run.pool_misses),
            ]);
        }
    }
    table.print(
        "per row: form, load multicasts, partition, heal; \
         codec allocs = frame encodes → buffer allocations after pooling",
    );
    println!(
        "\ncodec buffer pool over all runs: {} leases, {} hits, {} allocations \
         ({}% hit rate — before the pool, every lease allocated)",
        pool_total.hits + pool_total.misses,
        pool_total.hits,
        pool_total.misses,
        pool_total.hit_rate_pct(),
    );
    agg.set_gauge("pool.hits", pool_total.hits as i64);
    agg.set_gauge("pool.misses", pool_total.misses as i64);
    agg.set_gauge("pool.hit_rate_pct", pool_total.hit_rate_pct() as i64);
    println!(
        "\nthe data plane folds acks into data (piggyback deltas), repairs losses\n\
         by NACK, and suppresses heartbeats towards peers that recently received\n\
         any traffic; the stability cut rides existing messages, and a member\n\
         with nothing to send acks the origin alone, at once (EXPERIMENTS.md W1\n\
         keeps the replaced plane's numbers)."
    );
    let bench_path = vs_bench::artifact_path("BENCH_wire_efficiency.json");
    vs_bench::write_bench_json(&bench_path, "exp_wire_efficiency", &agg)
        .expect("write BENCH_wire_efficiency.json");
    println!("bench snapshot written to {bench_path}");
    vs_bench::print_metrics_snapshot("exp_wire_efficiency", &agg);
}
