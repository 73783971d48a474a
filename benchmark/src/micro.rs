//! Micro-drives: each layer's public functions timed on their own, from
//! the harness, so a change in an end-to-end number can be pinned on (or
//! cleared from) a layer. A traced run executes the drives of the layers
//! its workload actually runs through and leaves the others at 0.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use vs_evs::{classify_enriched, BufPool, EView, SubviewId, SvSetId, Writer};
use vs_gcs::ordering::{OrderBuffer, OrderingMode};
use vs_gcs::{
    flush_deliveries, AckTracker, FlushPayload, Piggyback, Provenance, View, ViewId, ViewMsg, Wire,
};
use vs_net::socket::SocketNet;
use vs_net::threaded::ThreadedNet;
use vs_net::{Actor, Context, ProcessId, Sim, SimConfig, WireCodec};
use vs_obs::{EventKind, Obs};

use crate::common::quantile;
use crate::metrics::Outcome;

/// Median over five batches of the mean nanoseconds one call of `f` takes.
fn ns_per_op<R>(iters: u64, mut f: impl FnMut() -> R) -> f64 {
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    crate::common::median_f64(&mut batches)
}

fn pid(n: u64) -> ProcessId {
    ProcessId::from_raw(n)
}

fn vid(epoch: u64, coord: u64) -> ViewId {
    ViewId {
        epoch,
        coordinator: pid(coord),
    }
}

/// Bounces one counter back and forth; stamps every receipt when asked to.
struct Echo {
    stamps: Option<Arc<Mutex<Vec<Instant>>>>,
}

impl Actor for Echo {
    type Msg = u64;
    type Output = ();

    fn on_message(&mut self, from: ProcessId, left: u64, ctx: &mut Context<'_, u64, ()>) {
        if let Some(stamps) = &self.stamps {
            stamps.lock().expect("stamp lock").push(Instant::now());
        }
        if left > 0 {
            ctx.send(from, left - 1);
        }
    }
}

/// Hop times (ns) of one value bouncing between two nodes, the first few
/// hops (connection set-up, cold caches) dropped.
fn hops_of(stamps: &Mutex<Vec<Instant>>, hops: usize) -> Vec<u64> {
    let deadline = Instant::now() + Duration::from_secs(20);
    while stamps.lock().expect("stamp lock").len() <= hops && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let stamps = stamps.lock().expect("stamp lock");
    stamps
        .windows(2)
        .skip(10)
        .map(|w| w[1].duration_since(w[0]).as_nanos() as u64)
        .collect()
}

/// `vs-net` socket loop: one `u64` in flight between two `SocketNet`
/// nodes over loopback TCP, and the same over `ThreadedNet` as the floor.
pub fn net_socket_layer(out: &mut Outcome) {
    const HOPS: usize = 400;
    let stamps = Arc::new(Mutex::new(Vec::with_capacity(HOPS + 1)));
    let echo = || Echo {
        stamps: Some(stamps.clone()),
    };
    if let (Ok(mut a), Ok(mut b)) = (SocketNet::<Echo>::new(1), SocketNet::<Echo>::new(2)) {
        let pa = a.spawn(echo());
        let pb = b.spawn_as(pid(1), echo());
        a.add_peer(pb, b.local_addr());
        b.add_peer(pa, a.local_addr());
        a.post(pa, pb, HOPS as u64);
        let mut hops = hops_of(&stamps, HOPS);
        out.set(
            "net.socket.pingpong_hop_us_p50",
            quantile(&mut hops, 0.50) / 1_000.0,
        );
        out.set(
            "net.socket.pingpong_hop_us_p99",
            quantile(&mut hops, 0.99) / 1_000.0,
        );
        a.shutdown();
        b.shutdown();
    }
    stamps.lock().expect("stamp lock").clear();
    let mut net: ThreadedNet<Echo> = ThreadedNet::new(3);
    let pa = net.spawn(echo());
    let pb = net.spawn(echo());
    net.post(pa, pb, HOPS as u64);
    let mut hops = hops_of(&stamps, HOPS);
    out.set(
        "net.threaded.pingpong_hop_us_p50",
        quantile(&mut hops, 0.50) / 1_000.0,
    );
    net.shutdown();
}

/// `vs-net` wire codec on the message shapes the socket workloads send.
pub fn codec_layer(out: &mut Outcome) {
    let view = vid(3, 0);
    let app = |len: usize| -> Wire<Bytes> {
        let pb = Piggyback {
            view,
            acks: vec![(pid(1), 40), (pid(2), 41)],
            sent_upto: 44,
        };
        Wire::App(
            ViewMsg::new(view, pid(0), 44, Bytes::from(vec![7u8; len])),
            Some(pb),
        )
    };
    let heartbeat: Wire<Bytes> = Wire::Heartbeat {
        view,
        acks: (0..3).map(|p| (pid(p), 40 + p)).collect::<BTreeMap<_, _>>(),
        sent_upto: 44,
    };
    let mut buf = Vec::with_capacity(32 * 1024);
    let mut encode = |msg: &Wire<Bytes>, iters: u64| {
        ns_per_op(iters, || {
            buf.clear();
            msg.encode_into(&mut buf);
            buf.len()
        })
    };
    let (small, large) = (app(96), app(16 * 1024));
    out.set("codec.app96_encode_ns", encode(&small, 20_000));
    out.set("codec.app16k_encode_ns", encode(&large, 5_000));
    let decode = |msg: &Wire<Bytes>, iters: u64| {
        let bytes = msg.encode_vec();
        ns_per_op(iters, || Wire::<Bytes>::decode_all(&bytes).is_ok())
    };
    out.set("codec.app16k_decode_ns", decode(&large, 5_000));
    out.set("codec.heartbeat_decode_ns", decode(&heartbeat, 20_000));
}

/// `vs-net` simulator: bare event rate, five echo actors, no protocol.
pub fn sim_layer(out: &mut Outcome) {
    let mut sim: Sim<Echo> = Sim::new(11, SimConfig::default());
    let pids: Vec<ProcessId> = (0..5).map(|_| sim.spawn(Echo { stamps: None })).collect();
    for (i, &p) in pids.iter().enumerate() {
        sim.post(p, pids[(i + 1) % pids.len()], 20_000);
    }
    let t = Instant::now();
    let mut events = 0u64;
    while sim.step().is_some() {
        events += 1;
    }
    out.set(
        "net.sim.events_per_s",
        events as f64 / t.elapsed().as_secs_f64(),
    );
}

/// `vs-evs` codec writer and buffer pool.
pub fn evs_pool_layer(out: &mut Outcome) {
    let pool = BufPool::new();
    pool.give_back(Vec::with_capacity(128));
    out.set(
        "evs.bufpool_lease_ns",
        ns_per_op(50_000, || {
            let buf = pool.lease(96);
            pool.give_back(buf);
        }),
    );
    // Two threads leasing from one pool: this thread's cost per lease
    // while the other hammers the same lock.
    let shared = Arc::new(BufPool::new());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let rival = {
        let (shared, stop) = (shared.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let buf = shared.lease(96);
                shared.give_back(buf);
            }
        })
    };
    out.set(
        "evs.bufpool_contended_ns",
        ns_per_op(50_000, || {
            let buf = shared.lease(96);
            shared.give_back(buf);
        }),
    );
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    rival.join().expect("rival thread");
    let filler = [9u8; 71];
    out.set(
        "evs.writer_payload96_ns",
        ns_per_op(50_000, || {
            let mut w = Writer::with_capacity(96);
            w.u64(1);
            w.u64(2);
            w.u8(1);
            w.bytes(&filler);
            w.finish()
        }),
    );
}

/// `vs-gcs` stability, ordering and flush primitives.
pub fn gcs_layers(out: &mut Outcome) {
    out.set(
        "gcs.acktracker_on_receive_ns",
        ns_per_op(200, || {
            let mut t = AckTracker::new();
            for s in 1..=1_000u64 {
                t.on_receive(pid(1), s);
            }
            t
        }) / 1_000.0,
    );
    for (name, n) in [
        ("gcs.acktracker_stable_frontier_n3_ns", 3u64),
        ("gcs.acktracker_stable_frontier_n9_ns", 9),
    ] {
        let mut t = AckTracker::new();
        for s in 1..=100u64 {
            t.on_receive(pid(0), s);
        }
        for m in 1..n {
            t.on_peer_acks(pid(m), [(pid(0), 50 + m)]);
        }
        let members: Vec<ProcessId> = (0..n).map(pid).collect();
        out.set(
            name,
            ns_per_op(50_000, || {
                t.stable_frontier(pid(0), pid(0), members.iter().copied())
            }),
        );
    }
    let view = vid(1, 0);
    for (name, mode) in [
        ("gcs.order_fifo_insert_ns", OrderingMode::Fifo),
        ("gcs.order_causal_insert_ns", OrderingMode::Causal),
        ("gcs.order_total_insert_ns", OrderingMode::Total),
    ] {
        let per_thousand = ns_per_op(200, || {
            let mut buf: OrderBuffer<u64> = OrderBuffer::new(mode);
            let mut delivered = 0;
            for s in 1..=1_000u64 {
                let mut msg = ViewMsg::new(view, pid(1), s, s);
                msg.vc = buf.make_clock(pid(1), s);
                let id = msg.id;
                delivered += buf.insert(msg).len();
                delivered += buf.on_order(s, id).len();
            }
            delivered
        });
        out.set(name, per_thousand / 1_000.0);
    }
}

/// `vs-gcs` flush: the synchronised closure of eight members' replies.
pub fn gcs_flush_layer(out: &mut Outcome) {
    let view = vid(3, 0);
    let unstable: Vec<ViewMsg<u64>> = (1..=64u64)
        .map(|s| ViewMsg::new(view, pid(s % 8), s, s))
        .collect();
    let replies: Vec<(ProcessId, ViewId, FlushPayload<u64>)> = (0..8)
        .map(|i| {
            (
                pid(i),
                view,
                FlushPayload {
                    unstable: unstable.clone(),
                    annotation: Bytes::new(),
                },
            )
        })
        .collect();
    let delivered = BTreeSet::new();
    out.set(
        "gcs.flush_deliveries_n8_ns",
        ns_per_op(2_000, || flush_deliveries(view, &delivered, &replies)),
    );
}

/// `vs-evs` e-view composition, annotation codec and classification.
pub fn evs_view_layer(out: &mut Outcome) {
    const N: u64 = 16;
    let view = View::new(vid(1, 0), (0..N).map(pid).collect());
    let provenance: Vec<Provenance> = (0..N)
        .map(|i| Provenance {
            member: pid(i),
            prev_view: vid(0, i),
            annotation: EView::initial(pid(i)).encode_annotation(),
        })
        .collect();
    out.set(
        "evs.eview_compose_n16_ns",
        ns_per_op(2_000, || EView::compose(view.clone(), &provenance)),
    );
    let singletons = EView::compose(view, &provenance);
    let mut merged = singletons.clone();
    let sets: Vec<SvSetId> = merged.svsets().map(|(id, _)| id).collect();
    merged
        .apply_svset_merge(
            &sets,
            SvSetId::Merged {
                view: merged.view().id(),
                seq: 1,
            },
        )
        .expect("merge sv-sets");
    let subviews: Vec<SubviewId> = merged.subviews().map(|(id, _)| id).collect();
    merged
        .apply_subview_merge(
            &subviews,
            SubviewId::Merged {
                view: merged.view().id(),
                seq: 2,
            },
        )
        .expect("merge subviews");
    out.set(
        "evs.annotation_encode_n16_ns",
        ns_per_op(5_000, || merged.encode_annotation()),
    );
    out.set(
        "evs.classify_ns",
        ns_per_op(5_000, || {
            classify_enriched(&singletons, |m: &BTreeSet<ProcessId>| {
                2 * m.len() > N as usize
            })
        }),
    );
}

/// `vs-obs`: what one counter bump, one histogram sample and one journal
/// record cost the layers that call them on the hot path.
pub fn obs_layer(out: &mut Outcome) {
    let obs = Obs::new();
    out.set(
        "obs.inc_ns",
        ns_per_op(100_000, || obs.inc("bench.counter")),
    );
    let mut v = 0u64;
    out.set(
        "obs.observe_ns",
        ns_per_op(100_000, || {
            v = (v + 37) % 5_000;
            obs.observe("bench.histogram_us", v)
        }),
    );
    let mut at = 0u64;
    out.set(
        "obs.record_ns",
        ns_per_op(100_000, || {
            at += 1;
            obs.record(0, at, EventKind::TimerFire { kind: 1 })
        }),
    );
}
