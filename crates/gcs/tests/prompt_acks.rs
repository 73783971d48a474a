//! Event-driven stability: a receipt that moves a receive frontier is
//! acknowledged to its origin as soon as the inbox drains, so a sender
//! learns that its messages are stable at network speed and not at the
//! speed of the 10 ms tick.

use std::time::{Duration, Instant};

use vs_gcs::{GcsConfig, GcsEndpoint, GcsEvent, Wire};
use vs_net::threaded::ThreadedNet;
use vs_net::{
    Actor, Context, DelayModel, LinkConfig, ProcessId, Sim, SimConfig, SimDuration, SimTime,
    TimerId, TimerKind,
};

type E = GcsEndpoint<String>;

/// The longest a message spends on a link of [`group`].
const MAX_DELAY: SimDuration = SimDuration::from_micros(2_000);
/// [`group`] stops this long before the group's next tick: every member
/// is spawned at instant zero and re-arms its tick every 10 ms, so the
/// whole group ticks on one grid.
const NEXT_TICK_IN: SimDuration = SimDuration::from_millis(9);

/// Forms a group of `n` over links of at most `max_delay`, all members
/// recording into the simulator's [`vs_obs::Obs`], and stops 1 ms after
/// a tick, [`NEXT_TICK_IN`] before the next.
fn group(seed: u64, n: usize, max_delay: SimDuration) -> (Sim<E>, Vec<ProcessId>) {
    let link = LinkConfig {
        delay: DelayModel::Uniform(SimDuration::from_micros(max_delay.as_micros() / 4), max_delay),
        loss: 0.0,
    };
    let mut sim: Sim<E> = Sim::new(seed, SimConfig { link, ..SimConfig::default() });
    let mut pids = Vec::new();
    for _ in 0..n {
        let site = sim.alloc_site();
        pids.push(sim.spawn_with(site, |p| E::new(p, GcsConfig::default())));
    }
    let (all, obs) = (pids.clone(), sim.obs().clone());
    for &p in &pids {
        sim.invoke(p, |e, _| {
            e.set_contacts(all.iter().copied());
            e.set_obs(obs.clone());
        });
    }
    sim.run_until(SimTime::from_micros(701_000));
    for &p in &pids {
        assert_eq!(sim.actor(p).unwrap().view().len(), n, "group formed");
    }
    (sim, pids)
}

/// Steps the simulator until `p`'s own stability cut reaches `seq`, and
/// returns how long that took.
fn time_until_stable(sim: &mut Sim<E>, p: ProcessId, seq: u64) -> SimDuration {
    let start = sim.now();
    while sim.actor(p).unwrap().stability_cut(p) < seq {
        sim.step().expect("the tick keeps the queue non-empty");
    }
    sim.now().saturating_since(start)
}

/// (a) Every member multicasts a full window and goes silent, so no ack
/// can ride a later multicast. Each burst is stable at its sender after
/// one hop out and one hop back; on the 10 ms tick it took 9–12 ms.
#[test]
fn a_full_window_does_not_wait_for_the_tick() {
    const WINDOW: u64 = 16;
    for n in [3, 5] {
        let (mut sim, pids) = group(21, n, MAX_DELAY);
        for &p in &pids {
            for i in 0..WINDOW {
                sim.invoke(p, |e, ctx| e.mcast(format!("{p}-{i}"), ctx));
            }
        }
        let bound = MAX_DELAY.saturating_mul(2) + SimDuration::from_millis(1);
        for &p in &pids {
            let took = time_until_stable(&mut sim, p, WINDOW);
            assert!(took <= bound, "n={n}: {p}'s burst was stable after {took:?}, bound {bound:?}");
        }
    }
}

/// (b) One multicast into an idle group costs its (n−1) copies and (n−1)
/// acks, then nothing until the next tick: the acks are heartbeats, and a
/// heartbeat arms no ack timer.
#[test]
fn acks_are_not_acked() {
    for n in [3, 5] {
        let (mut sim, pids) = group(22, n, MAX_DELAY);
        let peers = n as u64 - 1;
        let before = *sim.stats();
        sim.invoke(pids[0], |e, ctx| e.mcast("one".to_string(), ctx));
        // Up to the instant before the next tick.
        sim.run_until(SimTime::from_micros(701_000 + NEXT_TICK_IN.as_micros() - 1));
        let after = *sim.stats();
        assert_eq!(sim.actor(pids[0]).unwrap().stability_cut(pids[0]), 1);
        assert_eq!(sim.obs().counter("gcs.acks_sent"), peers, "n={n}: one ack per receiver");
        assert_eq!(after.sent - before.sent, 2 * peers, "n={n}: the copies and their acks");
        assert_eq!(
            after.timers_fired - before.timers_fired,
            peers,
            "n={n}: one ack timer per receiver, none at the origin"
        );
    }
}

/// (d) A retransmission that fills a gap moves the frontier over the
/// whole run it completes, and that is acknowledged at once too.
#[test]
fn a_gap_filled_by_retransmission_is_acked_without_the_tick() {
    // Out, NACK, retransmission, ack: four hops must fit before the tick.
    let max_delay = SimDuration::from_micros(500);
    let (mut sim, pids) = group(23, 3, max_delay);
    let (origin, victim) = (pids[0], pids[1]);
    sim.topology_mut().sever_link(origin, victim);
    sim.invoke(origin, |e, ctx| e.mcast("lost on one link".to_string(), ctx));
    sim.topology_mut().restore_link(origin, victim);
    sim.invoke(origin, |e, ctx| e.mcast("shows the gap".to_string(), ctx));
    let took = time_until_stable(&mut sim, origin, 2);
    let bound = max_delay.saturating_mul(4);
    assert!(bound < NEXT_TICK_IN);
    assert!(took <= bound, "both messages stable at the origin after {took:?}, bound {bound:?}");
    assert_eq!(sim.obs().counter("gcs.retransmissions"), 1);
}

/// A group member on the threaded transport that multicasts a burst in
/// one activation when told to.
struct Node(E);

const BURST: u64 = 32;

impl Actor for Node {
    type Msg = Wire<String>;
    type Output = GcsEvent<String>;
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.0.on_start(ctx);
    }
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        if matches!(&msg, Wire::Direct(cmd) if cmd == "burst") {
            for i in 0..BURST {
                self.0.mcast(format!("b{i}"), ctx);
            }
        } else {
            self.0.on_message(from, msg, ctx);
        }
    }
    fn on_timer(&mut self, t: TimerId, k: TimerKind, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.0.on_timer(t, k, ctx);
    }
}

/// (c) One activation's sends reach each receiver as one inbox batch, and
/// the live host looks at timers only between batches: a burst of k frames
/// from one origin is acknowledged once per receiver, not k times.
#[test]
fn one_ack_per_origin_per_batch() {
    const N: u64 = 3;
    let mut net: ThreadedNet<Node> = ThreadedNet::new(24);
    let obs = net.obs().clone();
    for i in 0..N {
        let mut ep = E::new(ProcessId::from_raw(i), GcsConfig::default());
        ep.set_contacts((0..N).map(ProcessId::from_raw));
        ep.set_obs(obs.clone());
        net.spawn(Node(ep));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut formed = 0;
    while formed < N {
        assert!(Instant::now() < deadline, "group failed to form");
        for (_, ev) in net.wait_outputs(1, Duration::from_millis(10)) {
            if matches!(ev, GcsEvent::ViewChange { view, .. } if view.len() == N as usize) {
                formed += 1;
            }
        }
    }
    assert_eq!(obs.counter("gcs.acks_sent"), 0, "nothing to acknowledge yet");
    let origin = ProcessId::from_raw(0);
    net.post(origin, origin, Wire::Direct("burst".to_string()));
    let stable = || {
        let snap = obs.metrics_snapshot();
        snap.histogram("stage.stable_us").map_or(0, |h| h.count())
    };
    while stable() < BURST {
        assert!(Instant::now() < deadline, "burst never became stable");
        std::thread::sleep(Duration::from_millis(1));
    }
    // A tick that falls due with the ack timer speaks first and leaves it
    // nothing to say, so a receiver may send no ack — never more than one.
    let acks = obs.counter("gcs.acks_sent");
    assert!(acks < N, "{BURST} frames in one batch cost {acks} acks from {} receivers", N - 1);
    net.shutdown();
}
