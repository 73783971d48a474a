//! Latency attribution under journal pressure.
//!
//! The stage-stamp tracker (`vs_obs::latency`) is a bounded FIFO: under
//! load, a message's submit stamp can be evicted while the message is
//! still in flight. These tests pin the contract for that race — a
//! delivery whose submit stamp is gone must be *flagged* (the
//! `latency.orphaned` counter), never turned into a fabricated histogram
//! sample — and the arithmetic identity that makes the per-stage
//! breakdown trustworthy: encode + wire + order hold + stability hold
//! sums to exactly the end-to-end delivery total when no sample was
//! orphaned or flush-caught-up.

use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use view_synchrony::gcs::{GcsConfig, GcsEndpoint, GcsEvent, Wire};
use view_synchrony::net::socket::SocketNet;
use view_synchrony::net::{
    Actor, Context, ProcessId, Sim, SimConfig, SimDuration, TimerId, TimerKind, Topology,
};
use view_synchrony::obs::latency::{
    EVICTED_COUNTER, FLUSH_CATCHUP_COUNTER, ORPHANED_COUNTER, PARTITION_STAGES,
    STAGE_DELIVERY_TOTAL,
};
use view_synchrony::obs::Obs;

const N: usize = 3;

/// Forms a group of three uniform endpoints and returns the sim.
fn formed_group(seed: u64) -> (Sim<GcsEndpoint<String>>, Vec<view_synchrony::net::ProcessId>) {
    let config = SimConfig { monitor: true, ..SimConfig::default() };
    let mut sim: Sim<GcsEndpoint<String>> = Sim::new(seed, config);
    let mut pids = Vec::new();
    for _ in 0..N {
        let site = sim.alloc_site();
        pids.push(sim.spawn_with(site, |p| {
            GcsEndpoint::new(p, GcsConfig { uniform: true, ..GcsConfig::default() })
        }));
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
    assert_eq!(sim.actor(pids[0]).map(|e| e.view().len()), Some(N), "group formed");
    (sim, pids)
}

#[test]
fn evicted_stamps_orphan_deliveries_instead_of_fabricating_samples() {
    let (mut sim, pids) = formed_group(77);
    // Shrink the tracker far below the burst size, so submit stamps of
    // still-in-flight messages are evicted before their deliveries land.
    sim.obs().with(|st| st.latency.set_capacity(&mut st.metrics, 2));

    // A burst of 12 multicasts with no time for deliveries in between:
    // ten of the twelve submit stamps must be evicted immediately.
    for i in 0..12u64 {
        sim.invoke(pids[0], |e, ctx| e.mcast(format!("burst{i}"), ctx));
    }
    sim.run_for(SimDuration::from_secs(2));
    let run_us = sim.now().as_micros();

    let snap = sim.obs().metrics_snapshot();
    assert!(snap.counter(EVICTED_COUNTER) >= 10, "the burst overflowed the tracker");
    assert!(snap.counter(ORPHANED_COUNTER) > 0, "deliveries of evicted stamps are flagged");

    // Every recorded sample is bounded by the run itself: an orphaned
    // delivery never became a bogus huge (or any) latency sample.
    let h = snap.histogram(STAGE_DELIVERY_TOTAL).expect("surviving stamps still measure");
    assert!(h.count() > 0, "the stamps that survived produced samples");
    assert!(
        h.max().unwrap() <= run_us,
        "sample {}µs exceeds the {}µs run — fabricated from a missing stamp",
        h.max().unwrap(),
        run_us
    );
    // Orphans are skipped, not guessed: fewer total-latency samples than
    // deliveries, by exactly the orphan count (flush catchups still
    // record a total, so they sit on the measured side).
    assert_eq!(
        h.count() + snap.counter(ORPHANED_COUNTER),
        snap.counter("gcs.delivered"),
        "every delivery is either measured or orphaned"
    );
}

#[test]
fn stage_sums_partition_the_delivery_total_exactly() {
    let (mut sim, pids) = formed_group(78);
    for i in 0..10u64 {
        sim.invoke(pids[(i as usize) % N], |e, ctx| e.mcast(format!("m{i}"), ctx));
        sim.run_for(SimDuration::from_millis(40));
    }
    sim.run_for(SimDuration::from_secs(1));

    let snap = sim.obs().metrics_snapshot();
    assert_eq!(snap.counter(ORPHANED_COUNTER), 0);
    assert_eq!(snap.counter(FLUSH_CATCHUP_COUNTER), 0);
    let total = snap.histogram(STAGE_DELIVERY_TOTAL).expect("deliveries measured");
    assert_eq!(total.count() as usize, 10 * N, "every member measured every message");
    let parts: u64 = PARTITION_STAGES
        .iter()
        .map(|s| snap.histogram(s).map_or(0, |h| h.sum()))
        .sum();
    // Not "within 5%" — the identity is arithmetic when nothing was
    // orphaned: each sample's stages telescope to its total.
    assert_eq!(parts, total.sum(), "stage sums must telescope to the end-to-end total");
}

/// Self-driving sender for the socket fleet: once the full view is
/// installed, multicasts `to_send` messages, one per activation (there
/// is no external `invoke` on a live transport).
struct Sender {
    ep: GcsEndpoint<String>,
    to_send: u64,
}

impl Sender {
    fn drive(&mut self, ctx: &mut Context<'_, Wire<String>, GcsEvent<String>>) {
        if self.ep.view().len() == N && self.to_send > 0 && !self.ep.is_blocked() {
            self.to_send -= 1;
            let tag = self.to_send;
            self.ep.mcast(format!("m{tag}"), ctx);
        }
    }
}

impl Actor for Sender {
    type Msg = Wire<String>;
    type Output = GcsEvent<String>;
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
        self.drive(ctx);
    }
    fn on_timer(
        &mut self,
        t: TimerId,
        k: TimerKind,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        self.ep.on_timer(t, k, ctx);
        self.drive(ctx);
    }
}

/// The telescoping identity must survive the socket transport: stamps
/// are taken on the shared unix-epoch clock the transport threads into
/// every `ctx.now()`, so the per-stage deltas of a message that crossed
/// a real TCP connection still partition its end-to-end total exactly.
#[test]
fn stage_sums_telescope_on_the_socket_backend() {
    const PER_NODE: u64 = 4;
    let obs = Obs::new();
    let topology = Arc::new(RwLock::new(Topology::new()));
    let mut nets: Vec<SocketNet<Sender>> = (0..N as u64)
        .map(|i| SocketNet::with_shared(80 + i, obs.clone(), Arc::clone(&topology)).expect("bind"))
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
        let mut ep = GcsEndpoint::new(pid, GcsConfig { uniform: true, ..GcsConfig::default() });
        ep.set_contacts((0..N as u64).map(ProcessId::from_raw));
        ep.set_obs(obs.clone());
        net.spawn_as(pid, Sender { ep, to_send: PER_NODE });
    }

    // Every multicast is delivered at every member.
    let expected = N as u64 * PER_NODE * N as u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if obs.metrics_snapshot().counter("gcs.delivered") >= expected {
            break;
        }
        assert!(Instant::now() < deadline, "socket fleet never delivered the full load");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Let the last deliveries' stage samples land before snapshotting.
    std::thread::sleep(Duration::from_millis(100));

    let snap = obs.metrics_snapshot();
    assert_eq!(snap.counter(ORPHANED_COUNTER), 0);
    assert_eq!(snap.counter(FLUSH_CATCHUP_COUNTER), 0);
    let total = snap.histogram(STAGE_DELIVERY_TOTAL).expect("deliveries measured");
    assert_eq!(total.count(), expected, "every member measured every message");
    let parts: u64 = PARTITION_STAGES
        .iter()
        .map(|s| snap.histogram(s).map_or(0, |h| h.sum()))
        .sum();
    assert_eq!(
        parts,
        total.sum(),
        "stage sums must telescope to the end-to-end total over real sockets"
    );
    for net in nets {
        net.shutdown();
    }
}
