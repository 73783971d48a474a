//! E8 — "[enriched view synchrony] can be implemented efficiently" (§6).
//!
//! Micro-benchmarks of every data-path operation the enriched layer adds
//! on top of plain view synchrony, plus the underlying primitives for
//! scale context:
//!
//! * e-view composition from flush annotations (the per-view-change cost);
//! * annotation encode/decode (the per-flush wire cost);
//! * `classify_enriched` (the per-settling cost);
//! * merge-operation application;
//! * flush-delivery computation (plain view synchrony's own view-change
//!   cost, for comparison);
//! * acknowledgement tracking and causal/total order buffers (per-message
//!   costs);
//! * one endpoint tick over a backlog of unstable receipts (what the actor
//!   is deaf for every 10 ms under load).
//!
//! Uses a small self-contained harness (median-of-samples timing, one JSON
//! line per benchmark on stdout) instead of Criterion so the workspace
//! builds without crates.io access. Run with `cargo bench -p vs-bench`.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use vs_evs::{classify_enriched, EView, MergeOp, SubviewId, SvSetId};
use vs_gcs::{
    flush_deliveries, AckTracker, FlushPayload, GcsConfig, GcsEndpoint, Provenance, View, ViewId,
    ViewMsg,
};
use vs_net::{
    Actor, DelayModel, LinkConfig, ProcessId, Sim, SimConfig, SimDuration, SimTime, TimerKind,
};
use vs_obs::json::Obj;

const SAMPLES: usize = 15;

/// Prints one JSON result line from per-iteration samples.
fn report(name: &str, mut per_iter_ns: Vec<u64>, iters_per_sample: u64) {
    per_iter_ns.sort_unstable();
    println!(
        "{}",
        Obj::new()
            .str("bench", name)
            .u64("median_ns", per_iter_ns[per_iter_ns.len() / 2])
            .u64("min_ns", per_iter_ns[0])
            .u64("max_ns", per_iter_ns[per_iter_ns.len() - 1])
            .u64("iters_per_sample", iters_per_sample)
            .finish()
    );
}

/// Times `f` over several sampled batches and prints a JSON result line.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    // Warm up and size the batch so one sample takes ~1ms.
    let mut iters_per_sample = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters_per_sample {
            black_box(f());
        }
        if t.elapsed().as_micros() >= 1_000 || iters_per_sample >= 1 << 20 {
            break;
        }
        iters_per_sample *= 2;
    }
    let per_iter_ns: Vec<u64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            (t.elapsed().as_nanos() as u64) / iters_per_sample
        })
        .collect();
    report(name, per_iter_ns, iters_per_sample);
}

fn pid(n: u64) -> ProcessId {
    ProcessId::from_raw(n)
}

fn vid(epoch: u64, coord: u64) -> ViewId {
    ViewId { epoch, coordinator: pid(coord) }
}

/// Builds the provenance bundle of `n` singletons merging into one view.
fn singleton_provenance(n: u64) -> (View, Vec<Provenance>) {
    let view = View::new(vid(1, 0), (0..n).map(pid).collect());
    let provenance = (0..n)
        .map(|i| Provenance {
            member: pid(i),
            prev_view: vid(0, i),
            annotation: EView::initial(pid(i)).encode_annotation(),
        })
        .collect();
    (view, provenance)
}

/// Builds a fully merged e-view of `n` members.
fn merged_eview(n: u64) -> EView {
    let (view, provenance) = singleton_provenance(n);
    let mut ev = EView::compose(view, &provenance);
    let sets: Vec<SvSetId> = ev.svsets().map(|(id, _)| id).collect();
    ev.apply_svset_merge(&sets, SvSetId::Merged { view: ev.view().id(), seq: 1 })
        .expect("merge sv-sets");
    let svs: Vec<SubviewId> = ev.subviews().map(|(id, _)| id).collect();
    ev.apply_subview_merge(&svs, SubviewId::Merged { view: ev.view().id(), seq: 2 })
        .expect("merge subviews");
    ev
}

fn bench_eview_compose() {
    for n in [4u64, 16, 64] {
        let (view, provenance) = singleton_provenance(n);
        bench(&format!("eview_compose/{n}"), || {
            EView::compose(view.clone(), &provenance)
        });
    }
}

fn bench_annotation_codec() {
    for n in [4u64, 16, 64] {
        let ev = merged_eview(n);
        bench(&format!("annotation_codec/encode/{n}"), || {
            ev.encode_annotation()
        });
        // Decode cost is measured through compose of one lineage.
        let view = View::new(vid(2, 0), (0..n).map(pid).collect());
        let ann = ev.encode_annotation();
        let provenance: Vec<Provenance> = (0..n)
            .map(|i| Provenance {
                member: pid(i),
                prev_view: ev.view().id(),
                annotation: ann.clone(),
            })
            .collect();
        bench(&format!("annotation_codec/decode_compose/{n}"), || {
            EView::compose(view.clone(), &provenance)
        });
    }
}

fn bench_classification() {
    for n in [4u64, 16, 64] {
        // Worst-ish case: all singletons (no capable subview, sv-set scan).
        let (view, provenance) = singleton_provenance(n);
        let ev = EView::compose(view, &provenance);
        let universe = n as usize;
        bench(&format!("classify_enriched/{n}"), || {
            classify_enriched(&ev, |m: &BTreeSet<ProcessId>| 2 * m.len() > universe)
        });
    }
}

fn bench_merge_ops() {
    for n in [4u64, 16, 64] {
        let (view, provenance) = singleton_provenance(n);
        let template = EView::compose(view, &provenance);
        let sets: Vec<SvSetId> = template.svsets().map(|(id, _)| id).collect();
        bench(&format!("merge_op_apply/svset_merge/{n}"), || {
            let mut ev = template.clone();
            ev.apply_svset_merge(&sets, SvSetId::Merged { view: ev.view().id(), seq: 1 })
                .expect("merge");
            ev
        });
    }
    // The MergeOp enum itself is trivial; benchmark its clone for context.
    let op = MergeOp::SvSets(
        (0..16)
            .map(|i| SvSetId::Merged { view: vid(1, 0), seq: i })
            .collect(),
    );
    bench("merge_op_clone", || op.clone());
}

fn bench_flush_deliveries() {
    for msgs in [100u64, 1_000] {
        let v = vid(3, 0);
        let unstable: Vec<ViewMsg<u64>> = (1..=msgs)
            .map(|s| ViewMsg::new(v, pid(s % 4), s, s))
            .collect();
        let replies: Vec<(ProcessId, ViewId, FlushPayload<u64>)> = (0..4u64)
            .map(|i| {
                (
                    pid(i),
                    v,
                    FlushPayload { unstable: unstable.clone(), annotation: Bytes::new() },
                )
            })
            .collect();
        let delivered = BTreeSet::new();
        bench(&format!("flush_deliveries/{msgs}"), || {
            flush_deliveries(v, &delivered, &replies)
        });
    }
}

fn bench_ack_tracking() {
    bench("ack_tracker_1000_in_order", || {
        let mut t = AckTracker::new();
        for s in 1..=1_000u64 {
            t.on_receive(pid(1), s);
        }
        t.ack_vector().clone()
    });
    let mut t = AckTracker::new();
    for s in 1..=100u64 {
        t.on_receive(pid(9), s);
    }
    for m in 1..8u64 {
        t.on_peer_acks(pid(m), [(pid(9), 50 + m)]);
    }
    let members: Vec<ProcessId> = (0..8).map(pid).collect();
    bench("stable_frontier_8_members", || {
        t.stable_frontier(pid(0), pid(9), members.iter().copied())
    });
}

fn bench_order_buffers() {
    use vs_gcs::ordering::{OrderBuffer, OrderingMode};
    let v = vid(1, 0);
    bench("fifo_buffer_1000", || {
        let mut buf: OrderBuffer<u64> = OrderBuffer::new(OrderingMode::Fifo);
        let mut delivered = 0;
        for s in 1..=1_000u64 {
            delivered += buf.insert(ViewMsg::new(v, pid(1), s, s)).len();
        }
        delivered
    });
    bench("total_buffer_1000", || {
        let mut buf: OrderBuffer<u64> = OrderBuffer::new(OrderingMode::Total);
        let mut delivered = 0;
        for s in 1..=1_000u64 {
            let msg = ViewMsg::new(v, pid(1), s, s);
            let id = msg.id;
            delivered += buf.insert(msg).len();
            delivered += buf.on_order(s, id).len();
        }
        delivered
    });
}

/// One tick of an endpoint that holds 2 500 receipts from 3 senders, none
/// of them stable yet (no ack has had the time to come back), so the
/// pruning step can drop nothing of what it holds. A tick consumes the
/// state it is timed on, so every sample builds its own group.
fn bench_on_tick() {
    const SENDERS: usize = 3;
    const RECEIPTS: usize = 2_500;
    /// The endpoint's periodic tick (`TICK` in `vs_gcs::endpoint`).
    const TICK: TimerKind = TimerKind(1);
    let hop = SimDuration::from_millis(3);
    let per_tick_ns = (0..SAMPLES)
        .map(|_| {
            let link = LinkConfig { delay: DelayModel::Constant(hop), loss: 0.0 };
            let mut sim: Sim<GcsEndpoint<u64>> =
                Sim::new(1, SimConfig { link, ..SimConfig::default() });
            let mut pids = Vec::new();
            for _ in 0..=SENDERS {
                let site = sim.alloc_site();
                pids.push(sim.spawn_with(site, |p| GcsEndpoint::new(p, GcsConfig::default())));
            }
            let all = pids.clone();
            for &p in &pids {
                sim.invoke(p, |e, _| e.set_contacts(all.iter().copied()));
            }
            sim.run_until(SimTime::from_micros(701_000));
            assert_eq!(sim.actor(pids[0]).expect("alive").view().len(), SENDERS + 1);
            for i in 0..RECEIPTS {
                sim.invoke(pids[1 + i % SENDERS], |e, ctx| e.mcast(i as u64, ctx));
            }
            // One hop: everything has arrived, and no ack for it can have.
            sim.run_for(hop + SimDuration::from_micros(500));
            sim.invoke(pids[0], |e, ctx| {
                // The endpoint ignores which timer fired; any id will do.
                let id = ctx.set_timer(SimDuration::from_secs(3_600), TimerKind(u32::MAX));
                let t = Instant::now();
                e.on_timer(id, TICK, ctx);
                t.elapsed().as_nanos() as u64
            })
            .expect("alive")
        })
        .collect();
    report(&format!("on_tick/{RECEIPTS}_unstable_from_{SENDERS}"), per_tick_ns, 1);
}

fn main() {
    bench_eview_compose();
    bench_annotation_codec();
    bench_classification();
    bench_merge_ops();
    bench_flush_deliveries();
    bench_ack_tracking();
    bench_order_buffers();
    bench_on_tick();
}
