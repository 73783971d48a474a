//! View changes on positive evidence: an endpoint beacons as it starts,
//! answers a sender it has just begun to trust, and starts agreement
//! without the debounce when the trusted set holds every process it knows
//! of. Formation then costs hops, not ticks; wherever the set could still
//! grow, the debounce keeps §5's one view change per merge.

use std::collections::BTreeMap;

use vs_gcs::{GcsConfig, GcsEndpoint, GcsEvent, View, Wire};
use vs_net::{ProcessId, Sim, SimConfig, SimDuration, SimTime};

type E = GcsEndpoint<String>;

fn pid(n: u64) -> ProcessId {
    ProcessId::from_raw(n)
}

/// Spawns endpoints `0..n` that know `0..contacts` from the start, so their
/// start-up beacons go out. Pids at or past `n` never start.
fn spawn(seed: u64, n: u64, contacts: u64) -> Sim<E> {
    let mut sim: Sim<E> = Sim::new(seed, SimConfig::default());
    let obs = sim.obs().clone();
    for _ in 0..n {
        let site = sim.alloc_site();
        sim.spawn_with(site, |p| {
            let mut e = E::new(p, GcsConfig::default());
            e.set_contacts((0..contacts).map(pid));
            e.set_obs(obs.clone());
            e
        });
    }
    sim
}

/// The views `p` installed, with when.
fn views_of(sim: &Sim<E>, p: ProcessId) -> Vec<(SimTime, View)> {
    sim.outputs()
        .iter()
        .filter(|(_, q, _)| *q == p)
        .filter_map(|(t, _, ev)| match ev {
            GcsEvent::ViewChange { view, .. } => Some((*t, view.clone())),
            _ => None,
        })
        .collect()
}

/// (i) Three endpoints that know each other install the full view a few
/// hops after they start; on the tick and the debounce this took ~50 ms.
#[test]
fn formation_takes_hops_not_ticks() {
    const BOUND: SimTime = SimTime::from_micros(15_000);
    for seed in 1..=5 {
        let mut sim = spawn(seed, 3, 3);
        sim.run_for(SimDuration::from_millis(500));
        let full = sim.actor(pid(0)).unwrap().view().clone();
        for p in (0..3).map(pid) {
            let views = views_of(&sim, p);
            assert_eq!(views.len(), 2, "seed {seed}: {p} installed {views:?}");
            assert_eq!(views[0].1.len(), 1, "seed {seed}: {p} starts alone");
            let (at, view) = &views[1];
            assert_eq!(view.id(), full.id(), "seed {seed}: {p} joined the common view");
            assert_eq!(view.len(), 3, "seed {seed}: {view}");
            assert!(*at <= BOUND, "seed {seed}: {p} installed the full view at {at:?}");
        }
    }
}

/// (ii) A contact that never starts stays unknown-but-expected: the set
/// the others trust could still grow, so they debounce as before.
#[test]
fn a_silent_contact_keeps_the_debounce() {
    let debounce = GcsConfig::default().estimator.debounce;
    let mut sim = spawn(6, 3, 4);
    sim.run_for(SimDuration::from_millis(500));
    for p in (0..3).map(pid) {
        let views = views_of(&sim, p);
        let (at, view) = views.last().expect("a view");
        assert_eq!(view.len(), 3, "{p} formed without the silent contact: {view}");
        assert!(
            *at >= SimTime::ZERO + debounce,
            "{p} installed at {at:?}, before the {debounce:?} debounce could elapse"
        );
    }
}

/// (iii) Partitions of 3 and 2 heal into one view with one view change per
/// process, not one per newly reachable member (§5).
#[test]
fn a_heal_is_one_view_change_per_process() {
    let mut sim = spawn(7, 5, 5);
    let (left, right): (Vec<_>, Vec<_>) = (0..5).map(pid).partition(|p| p.raw() < 3);
    sim.partition(&[left.clone(), right.clone()]);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.actor(left[0]).unwrap().view().len(), 3);
    assert_eq!(sim.actor(right[0]).unwrap().view().len(), 2);
    sim.drain_outputs();
    sim.heal();
    sim.run_for(SimDuration::from_secs(1));
    let merged = sim.actor(pid(0)).unwrap().view().clone();
    assert_eq!(merged.len(), 5, "merged: {merged}");
    for p in (0..5).map(pid) {
        let views = views_of(&sim, p);
        assert_eq!(views.len(), 1, "{p} installed {views:?}");
        assert_eq!(views[0].1.id(), merged.id());
    }
}

/// (iv) A goodbye from a stranger is not answered, while a heartbeat from
/// the same stranger is.
#[test]
fn a_goodbye_gets_no_beacon_back() {
    // Two endpoints that know nobody: neither beacons on its own.
    for goodbye in [true, false] {
        let mut sim = spawn(8, 2, 0);
        let (a, b) = (pid(0), pid(1));
        let msg = if goodbye {
            Wire::Goodbye
        } else {
            let view = sim.actor(b).unwrap().view().id();
            Wire::Heartbeat { view, acks: BTreeMap::new(), sent_upto: 0 }
        };
        sim.post(b, a, msg);
        // Up to the instant before the first tick.
        sim.run_until(SimTime::from_micros(9_999));
        let sent = sim.stats().sent;
        if goodbye {
            assert_eq!(sent, 1, "only the goodbye itself");
        } else {
            assert!(sent >= 2, "the heartbeat is answered");
        }
    }
}
