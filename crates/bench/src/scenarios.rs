//! Group builders shared by the experiment binaries.
//!
//! Every builder wires each endpoint's protocol layers into the
//! simulator's own [`vs_obs::Obs`] handle, so a finished run carries one
//! unified metrics registry and trace journal (reachable via
//! [`vs_net::Sim::obs`]) spanning transport, membership, group
//! communication and the enriched layer. The online invariant monitor is
//! enabled on every builder — drivers should end their run with
//! [`crate::assert_monitor_clean`].

use vs_apps::{ObjectConfig, ReplicatedFile, ReplicatedFileApp};
use vs_evs::{EvsConfig, EvsEndpoint};
use vs_net::{ProcessId, Sim, SimDuration};

/// Spawns `n` enriched endpoints that know about each other and lets the
/// group form. Returns the simulator and the process ids.
pub fn evs_group(seed: u64, n: usize) -> (Sim<EvsEndpoint<String>>, Vec<ProcessId>) {
    let mut sim: Sim<EvsEndpoint<String>> = Sim::new(seed, crate::sim_config());
    let mut pids = Vec::new();
    for _ in 0..n {
        let site = sim.alloc_site();
        pids.push(sim.spawn_with(site, |pid| EvsEndpoint::new(pid, EvsConfig::default())));
    }
    let obs = sim.obs().clone();
    wire_contacts(&mut sim, &pids, move |e: &mut EvsEndpoint<String>, all| {
        e.set_contacts(all.iter().copied());
        e.set_obs(obs.clone());
    });
    sim.run_for(SimDuration::from_millis(600));
    (sim, pids)
}

/// Spawns a quorum-replicated-file group of `n` (universe `n`).
pub fn file_group(seed: u64, n: usize, config: ObjectConfig) -> (Sim<ReplicatedFile>, Vec<ProcessId>) {
    let mut sim: Sim<ReplicatedFile> = Sim::new(seed, crate::sim_config());
    let mut pids = Vec::new();
    for _ in 0..n {
        let site = sim.alloc_site();
        pids.push(sim.spawn_with(site, |pid| {
            ReplicatedFile::new(pid, ReplicatedFileApp::new(), config)
        }));
    }
    let obs = sim.obs().clone();
    wire_contacts(&mut sim, &pids, move |o: &mut ReplicatedFile, all| {
        o.set_contacts(all.iter().copied());
        o.set_obs(obs.clone());
    });
    sim.run_for(SimDuration::from_secs(2));
    (sim, pids)
}

fn wire_contacts<A, F>(sim: &mut Sim<A>, pids: &[ProcessId], mut f: F)
where
    A: vs_net::Actor,
    F: FnMut(&mut A, &[ProcessId]),
{
    let all = pids.to_vec();
    for &p in pids {
        sim.invoke(p, |a, _| f(a, &all));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evs_group_forms_one_view() {
        let (sim, pids) = evs_group(1, 4);
        let v = sim.actor(pids[0]).unwrap().view().clone();
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn file_group_reaches_normal() {
        let (sim, pids) = file_group(2, 3, ObjectConfig { universe: 3, ..ObjectConfig::default() });
        assert!(pids
            .iter()
            .all(|&p| sim.actor(p).unwrap().mode() == vs_evs::Mode::Normal));
    }
}
