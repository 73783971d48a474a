//! Counter parity across the three transports.
//!
//! The protocol layers are sans-I/O state machines, so the *same* code
//! records metrics whether the deterministic simulator, the threaded
//! transport, or the socket transport drives it — the transports
//! themselves must then agree on the `net.*` vocabulary, or dashboards
//! and `vstool top` would read differently depending on the backend.
//! This test runs one small scenario (form a group of three, multicast a
//! little) on all three backends and diffs the counter and histogram
//! *name sets*: a core vocabulary must appear everywhere, and any
//! difference must be a metric that is legitimately timing-,
//! fault-, or transport-dependent (it only exists once first
//! incremented or observed).

use std::collections::BTreeSet;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use view_synchrony::evs::{EvsConfig, EvsEndpoint, EvsEvent, EvsMsg};
use view_synchrony::gcs::Wire;
use view_synchrony::net::socket::SocketNet;
use view_synchrony::net::threaded::ThreadedNet;
use view_synchrony::net::{
    Actor, Context, ProcessId, Sim, SimConfig, SimDuration, TimerId, TimerKind, Topology,
};
use view_synchrony::obs::Obs;

const N: u64 = 3;

/// Counters that must exist on both backends after the scenario.
/// `gcs.acks_sent` is core although `gcs.` is timing-dependent below: every
/// node multicasts once and then only listens, so what it receives after
/// that has no multicast to ride and is acknowledged by the ack timer, on
/// whichever host runs it.
const CORE: &[&str] = &[
    "net.sent",
    "net.delivered",
    "net.timers_fired",
    "gcs.mcasts",
    "gcs.delivered",
    "gcs.acks_sent",
    "gcs.views_installed",
    "membership.view_changes_started",
    "membership.views_installed",
];

/// Stage histograms the latency-attribution plane must register on both
/// backends: every delivery passes the same stamp sites regardless of
/// transport. `stage.stable_us` is *not* core — it only exists once a
/// sender's stability frontier advances, which the threaded run's settle
/// window does not guarantee.
const CORE_STAGE_HISTS: &[&str] = &[
    "stage.encode_us",
    "stage.wire_us",
    "stage.order_hold_us",
    "stage.stability_hold_us",
    "stage.delivery_total_us",
    "stage.evs_gate_us",
];

/// Name prefixes whose presence legitimately differs between backends:
/// they count faults that the scenario does not inject (`net.dropped_*`)
/// or wire-level opportunities that depend on real scheduling (`fd.*`
/// suppression, piggybacking, retransmission and flush bookkeeping, and
/// the `latency.*` eviction/orphan accounting). `evs.*` used to be
/// allowlisted too, but both of its scenario counters
/// (`evs.eviews_composed`, `evs.gated_dropped`) are recorded on every
/// view change on either backend, so it now holds to exact parity.
const TIMING_DEPENDENT: &[&str] = &["net.dropped_", "fd.", "gcs.", "latency."];

/// Histogram names allowed to exist on only one backend: stability
/// frontiers (sender-side `stage.stable_us`) and span phases depend on
/// which timers actually fired before the snapshot; `net.link_delay_us`
/// needs at least one remote delivery; and the batching histograms
/// (`net.tx_batch_frames`, `net.rx_batch_msgs`) are observations the
/// socket transport alone can make — the other backends have no frames.
const TIMING_DEPENDENT_HISTS: &[&str] =
    &["stage.stable_us", "span.", "membership.", "net.link_delay_us", "net.tx_batch", "net.rx_batch"];

/// Counter and histogram name sets of one run.
type NameSets = (BTreeSet<String>, BTreeSet<String>);

fn name_sets(metrics: &view_synchrony::obs::MetricsRegistry) -> NameSets {
    (
        metrics.counters().map(|(name, _)| name.to_string()).collect(),
        metrics.histograms().map(|(name, _)| name.to_string()).collect(),
    )
}

fn sim_counters() -> NameSets {
    let config = SimConfig { monitor: true, ..SimConfig::default() };
    let mut sim: Sim<EvsEndpoint<String>> = Sim::new(11, config);
    let mut pids = Vec::new();
    for _ in 0..N {
        let site = sim.alloc_site();
        pids.push(sim.spawn_with(site, |p| EvsEndpoint::new(p, EvsConfig::default())));
    }
    let all = pids.clone();
    let obs = sim.obs().clone();
    for &p in &pids {
        sim.invoke(p, |e, _| {
            e.set_contacts(all.iter().copied());
            e.set_obs(obs.clone());
        });
    }
    sim.run_for(SimDuration::from_millis(700));
    assert_eq!(
        sim.actor(pids[0]).map(|e| e.view().len()).unwrap_or(0),
        N as usize,
        "sim group formed"
    );
    for i in 0..4u64 {
        sim.invoke(pids[(i % N) as usize], |e, ctx| e.mcast(format!("m{i}"), ctx));
        sim.run_for(SimDuration::from_millis(50));
    }
    sim.run_for(SimDuration::from_millis(500));
    name_sets(&sim.obs().metrics_snapshot())
}

/// Threaded-side actor: once the full view is installed, multicasts one
/// application message (there is no external `invoke` on the threaded
/// transport — actors drive themselves).
struct Node {
    ep: EvsEndpoint<String>,
    sent: bool,
}

impl Node {
    fn maybe_mcast(&mut self, ctx: &mut Context<'_, Wire<EvsMsg<String>>, EvsEvent<String>>) {
        if !self.sent && self.ep.view().len() == N as usize {
            self.sent = true;
            self.ep.mcast("hello".to_string(), ctx);
        }
    }
}

impl Actor for Node {
    type Msg = Wire<EvsMsg<String>>;
    type Output = EvsEvent<String>;
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.ep.on_start(ctx);
    }
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        self.ep.on_message(from, msg, ctx);
        self.maybe_mcast(ctx);
    }
    fn on_timer(
        &mut self,
        t: TimerId,
        k: TimerKind,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        self.ep.on_timer(t, k, ctx);
        self.maybe_mcast(ctx);
    }
}

fn threaded_counters() -> NameSets {
    let mut net: ThreadedNet<Node> = ThreadedNet::new(11);
    net.obs().enable_monitor();
    for i in 0..N {
        let pid = ProcessId::from_raw(i);
        let mut ep = EvsEndpoint::new(pid, EvsConfig::default());
        ep.set_contacts((0..N).map(ProcessId::from_raw));
        ep.set_obs(net.obs().clone());
        net.spawn(Node { ep, sent: false });
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut formed: BTreeSet<ProcessId> = BTreeSet::new();
    while formed.len() < N as usize {
        assert!(Instant::now() < deadline, "threaded group failed to form");
        for (p, ev) in net.poll_outputs() {
            if let EvsEvent::ViewChange { eview } = ev {
                if eview.view().len() == N as usize {
                    formed.insert(p);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Each node multicasts once on its own once the view is full; give
    // the deliveries (and some heartbeat traffic) time to land.
    std::thread::sleep(Duration::from_millis(400));
    let names = name_sets(&net.obs().metrics_snapshot());
    net.shutdown();
    names
}

/// Socket-side fleet: three `SocketNet`s in one process, sharing one
/// observability handle and one topology, wired to each other over real
/// loopback TCP. Same self-driving [`Node`] actor as the threaded run.
fn socket_counters() -> NameSets {
    let obs = Obs::new();
    obs.enable_monitor();
    let topology = Arc::new(RwLock::new(Topology::new()));
    let mut nets: Vec<SocketNet<Node>> = (0..N)
        .map(|i| SocketNet::with_shared(11 + i, obs.clone(), Arc::clone(&topology)).expect("bind"))
        .collect();
    let addrs: Vec<_> = nets.iter().map(|n| n.local_addr()).collect();
    for (i, net) in nets.iter().enumerate() {
        for (j, &addr) in addrs.iter().enumerate() {
            if i != j {
                net.add_peer(ProcessId::from_raw(j as u64), addr);
            }
        }
    }
    for (i, net) in nets.iter_mut().enumerate() {
        let pid = ProcessId::from_raw(i as u64);
        let mut ep = EvsEndpoint::new(pid, EvsConfig::default());
        ep.set_contacts((0..N).map(ProcessId::from_raw));
        ep.set_obs(obs.clone());
        net.spawn_as(pid, Node { ep, sent: false });
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut formed: BTreeSet<ProcessId> = BTreeSet::new();
    while formed.len() < N as usize {
        assert!(Instant::now() < deadline, "socket group failed to form");
        for net in &nets {
            for (p, ev) in net.poll_outputs() {
                if let EvsEvent::ViewChange { eview } = ev {
                    if eview.view().len() == N as usize {
                        formed.insert(p);
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(400));
    let names = name_sets(&obs.metrics_snapshot());
    for net in nets {
        net.shutdown();
    }
    names
}

#[test]
fn all_backends_speak_the_same_counter_vocabulary() {
    let runs = [
        ("sim", sim_counters()),
        ("threaded", threaded_counters()),
        ("socket", socket_counters()),
    ];

    for (backend, (counters, hists)) in &runs {
        for &name in CORE {
            assert!(counters.contains(name), "{backend} run is missing core counter {name}");
        }
        // The latency-attribution stages are part of the shared
        // vocabulary: a dashboard or `vstool slo` scrape must find the
        // same stage histograms no matter which transport drives the
        // stack.
        for &name in CORE_STAGE_HISTS {
            assert!(hists.contains(name), "{backend} run is missing stage histogram {name}");
        }
    }

    for pair in runs.windows(2) {
        let (a_name, (a, a_hists)) = &pair[0];
        let (b_name, (b, b_hists)) = &pair[1];
        let stray: Vec<&String> = a
            .symmetric_difference(b)
            .filter(|name| !TIMING_DEPENDENT.iter().any(|p| name.starts_with(p)))
            .collect();
        assert!(
            stray.is_empty(),
            "counters on only one of {a_name}/{b_name} without a documented reason: \
             {stray:?}\n{a_name}: {a:?}\n{b_name}: {b:?}"
        );
        let stray_hists: Vec<&String> = a_hists
            .symmetric_difference(b_hists)
            .filter(|name| !TIMING_DEPENDENT_HISTS.iter().any(|p| name.starts_with(p)))
            .collect();
        assert!(
            stray_hists.is_empty(),
            "histograms on only one of {a_name}/{b_name} without a documented reason: \
             {stray_hists:?}\n{a_name}: {a_hists:?}\n{b_name}: {b_hists:?}"
        );
    }
}
