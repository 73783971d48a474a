//! `sim_churn`: eight replicated KV group objects under a seeded script of
//! partitions, heals, crashes and recoveries — the paper's actual subject.
//!
//! Failure detector, view agreement, flush, e-view composition,
//! classification, structure merges, state transfer and state merging do
//! the work; the other four workloads contain no view change after their
//! formation. Virtual time under `SimConfig::default()` (uniform 0.5–2 ms
//! one-way delay, no loss): every latency here reflects that injected
//! delay and the protocol's timers, not a network.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use vs_apps::{GroupObject, KvCmd, KvStoreApp, ObjEvent, ObjectConfig, ReplicatedApp};
use vs_evs::state::StateObject;
use vs_evs::{Mode, ViewId};
use vs_net::{ProcessId, Sim, SimConfig, SimDuration, SimTime, SiteId};

use crate::common::{cpu_us, peak_rss_kb, Gen};
use crate::metrics::{copy_program_metrics, set_latencies, set_membership, ObsDelta, Outcome};
use crate::{Args, SIM_SETUPS};

const GROUP: usize = 8;
const KEYS_PER_SITE: u64 = 32;
const KEYS: u64 = GROUP as u64 * KEYS_PER_SITE;
const UPDATE_EVERY: SimDuration = SimDuration::from_millis(5);
/// Virtual time the group gets to form before the script starts.
const FORMATION: SimDuration = SimDuration::from_secs(2);
/// Virtual time between scripted operations: four times what the slowest
/// episode (view change, structure merges, state reconciliation) takes on
/// the baseline, so every episode finishes before the next operation.
const OP_GAP: SimDuration = SimDuration::from_millis(300);
/// Virtual time the group runs on after the last write.
const DRAIN: SimDuration = SimDuration::from_millis(500);
/// Each operation fires up to this long after its slot starts (seeded):
/// every replica ticks on the same 10 ms grid, and faults that always fell
/// on the grid would make every detection take exactly the same time.
const OP_JITTER_US: u64 = 10_000;
/// Scripted operations per requested second of measuring: sized so that
/// the timed pass takes about half of `--seconds` on the baseline box (the
/// validation pass re-runs it under the invariant monitor). 200 at 10 s.
const OPS_PER_SECOND: u64 = 20;

/// Counts the snapshot bytes the state machinery moves (transfers and
/// merges), measured around the calls into the application.
#[derive(Debug, Default)]
struct StateTraffic {
    snapshots: AtomicU64,
    bytes: AtomicU64,
}

/// `KvStoreApp`, with two additions the harness needs: every applied
/// update echoes its tag so a delivery can be matched to its submission,
/// and snapshot traffic is counted.
#[derive(Debug)]
struct TaggedKv {
    kv: KvStoreApp,
    traffic: Arc<StateTraffic>,
}

impl TaggedKv {
    fn count(&self, snapshot: &Bytes) {
        self.traffic.snapshots.fetch_add(1, Ordering::Relaxed);
        self.traffic
            .bytes
            .fetch_add(snapshot.len() as u64, Ordering::Relaxed);
    }
}

impl StateObject for TaggedKv {
    fn snapshot(&self) -> Bytes {
        self.kv.snapshot()
    }
    fn install(&mut self, snapshot: &Bytes) {
        self.count(snapshot);
        self.kv.install(snapshot);
    }
    fn merge(&mut self, others: &[Bytes]) {
        others.iter().for_each(|s| self.count(s));
        self.kv.merge(others);
    }
    fn digest(&self) -> u64 {
        self.kv.digest()
    }
}

impl ReplicatedApp for TaggedKv {
    fn capable(&self, members: &BTreeSet<ProcessId>, universe: usize) -> bool {
        self.kv.capable(members, universe)
    }
    fn apply_update(&mut self, from: ProcessId, update: &[u8]) -> Option<Bytes> {
        self.kv.apply_update(from, update);
        // The value of every generated `Put` is its 8-byte tag.
        Some(Bytes::copy_from_slice(
            &update[update.len().saturating_sub(8)..],
        ))
    }
    fn starts_authoritative(&self) -> bool {
        self.kv.starts_authoritative()
    }
}

type Replica = GroupObject<TaggedKv>;

fn key_name(key: u64) -> String {
    format!("k{key:03}")
}

/// A scripted operation, in terms of sites: the process at a site changes
/// with every recovery.
#[derive(Debug, Clone)]
enum Op {
    Partition(Vec<Vec<usize>>),
    Heal,
    Crash(usize),
    Recover(usize),
}

/// What the script does next; the seed decides to whom.
#[derive(Clone, Copy)]
enum Step {
    /// Split the live sites into two halves.
    Halves,
    /// Split them into three thirds.
    Thirds,
    /// Cut two sites off from the rest.
    Minority,
    Heal,
    Crash,
    Recover,
}

/// One turn of the script. The kinds of operation and the sizes of the
/// partitions are fixed, so every seed does the same amount of membership
/// work; the seed picks the sites. Includes a partition that replaces
/// another, a crash inside a partition and a recovery into one.
const CYCLE: [Step; 13] = [
    Step::Halves,
    Step::Heal,
    Step::Crash,
    Step::Thirds,
    Step::Heal,
    Step::Recover,
    Step::Minority,
    Step::Halves,
    Step::Heal,
    Step::Halves,
    Step::Crash,
    Step::Recover,
    Step::Heal,
];

/// The fault script: `ops` operations off [`CYCLE`], then whatever repairs
/// it takes to end healed with every site up. A pure function of the seed.
fn script(seed: u64, ops: u64) -> Vec<Op> {
    let mut gen = Gen::new(seed, 0xc4u64);
    let mut up = [true; GROUP];
    let mut partitioned = false;
    let mut out = Vec::new();
    for step in CYCLE.iter().cycle().take(ops as usize) {
        let mut live: Vec<usize> = (0..GROUP).filter(|&s| up[s]).collect();
        gen.shuffle(&mut live);
        let cut = |sizes: &[usize]| {
            let mut rest = live.as_slice();
            let mut groups = Vec::new();
            for &n in sizes {
                let (head, tail) = rest.split_at(n);
                groups.push(head.to_vec());
                rest = tail;
            }
            groups.push(rest.to_vec());
            Op::Partition(groups)
        };
        let n = live.len();
        out.push(match step {
            Step::Halves => cut(&[n / 2]),
            Step::Thirds => cut(&[n / 3, n / 3]),
            Step::Minority => cut(&[2]),
            Step::Heal => Op::Heal,
            Step::Crash => {
                up[live[0]] = false;
                Op::Crash(live[0])
            }
            Step::Recover => {
                let site = (0..GROUP)
                    .find(|&s| !up[s])
                    .expect("the cycle crashes before it recovers");
                up[site] = true;
                Op::Recover(site)
            }
        });
        partitioned = match step {
            Step::Halves | Step::Thirds | Step::Minority => true,
            Step::Heal => false,
            Step::Crash | Step::Recover => partitioned,
        };
    }
    if partitioned {
        out.push(Op::Heal);
    }
    out.extend((0..GROUP).filter(|&s| !up[s]).map(Op::Recover));
    out
}

/// One scripted operation as applied: when, whether it was a repair, and
/// the components (of live processes) it changed.
struct Episode {
    at: SimTime,
    repair: bool,
    changed: Vec<Vec<ProcessId>>,
}

struct Group {
    sim: Sim<Replica>,
    /// The live process at each site.
    at_site: Vec<Option<ProcessId>>,
    sites: Vec<SiteId>,
    roster: Rc<RefCell<Vec<ProcessId>>>,
    traffic: Arc<StateTraffic>,
}

fn set_up(seed: u64, monitor: bool) -> Result<Group, String> {
    let config = ObjectConfig {
        universe: GROUP,
        ..ObjectConfig::default()
    };
    let traffic = Arc::new(StateTraffic::default());
    let mut sim: Sim<Replica> = Sim::new(
        seed,
        SimConfig {
            monitor,
            ..SimConfig::default()
        },
    );
    let obs = sim.obs().clone();
    let roster = Rc::new(RefCell::new(Vec::new()));
    let replica = {
        let (traffic, roster) = (traffic.clone(), roster.clone());
        move |pid: ProcessId| {
            let app = TaggedKv {
                kv: KvStoreApp::new(),
                traffic: traffic.clone(),
            };
            let mut r = Replica::new(pid, app, config);
            r.set_obs(obs.clone());
            r.set_contacts(roster.borrow().iter().copied());
            r
        }
    };
    let mut sites = Vec::new();
    let mut at_site = Vec::new();
    for _ in 0..GROUP {
        let site = sim.alloc_site();
        sites.push(site);
        let pid = sim.spawn_with(site, &replica);
        roster.borrow_mut().push(pid);
        at_site.push(Some(pid));
    }
    let everyone = roster.borrow().clone();
    for &p in &everyone {
        sim.invoke(p, |r, _| r.set_contacts(everyone.iter().copied()));
    }
    sim.set_recovery_factory(move |pid, _site| replica(pid));
    sim.run_for(FORMATION);
    let group = Group {
        sim,
        at_site,
        sites,
        roster,
        traffic,
    };
    if !group.settled() {
        return Err(format!(
            "{GROUP} replicas did not form one NORMAL view within {FORMATION:?} virtual"
        ));
    }
    Ok(group)
}

impl Group {
    fn live(&self) -> Vec<ProcessId> {
        self.at_site.iter().flatten().copied().collect()
    }

    /// Every live replica in NORMAL mode in one view of all of them.
    fn settled(&self) -> bool {
        let live = self.live();
        let views: BTreeSet<ViewId> = live
            .iter()
            .filter_map(|&p| self.sim.actor(p))
            .filter(|r| r.mode() == Mode::Normal && r.evs().view().len() == live.len())
            .map(|r| r.evs().view().id())
            .collect();
        views.len() == 1
            && live
                .iter()
                .all(|&p| self.sim.actor(p).is_some_and(|r| r.mode() == Mode::Normal))
    }

    /// The live processes grouped by mutual reachability.
    fn components(&self) -> Vec<Vec<ProcessId>> {
        let mut comps: Vec<Vec<ProcessId>> = Vec::new();
        for p in self.live() {
            match comps
                .iter_mut()
                .find(|c| self.sim.topology().reachable(c[0], p))
            {
                Some(c) => c.push(p),
                None => comps.push(vec![p]),
            }
        }
        comps
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Partition(groups) => {
                let groups: Vec<Vec<ProcessId>> = groups
                    .iter()
                    .map(|g| g.iter().filter_map(|&s| self.at_site[s]).collect())
                    .collect();
                self.sim.partition(&groups);
            }
            Op::Heal => self.sim.heal(),
            Op::Crash(site) => {
                if let Some(pid) = self.at_site[*site].take() {
                    self.sim.crash(pid);
                }
            }
            Op::Recover(site) => {
                let pid = self.sim.recover(self.sites[*site]);
                self.roster.borrow_mut().push(pid);
                self.at_site[*site] = Some(pid);
            }
        }
    }
}

/// What one pass over the script produced, before any timing is attached.
struct Pass {
    group: Group,
    episodes: Vec<Episode>,
    /// Tag → (submit instant, writer, remote replicas in the writer's view).
    submits: BTreeMap<u64, (SimTime, ProcessId, usize)>,
    /// Key → tags of the accepted writes to it.
    writes: BTreeMap<u64, Vec<u64>>,
    rejected: u64,
    end: SimTime,
}

/// Runs the script: rotating writers submit one update every 5 ms of
/// virtual time, operations fire every [`OP_GAP`], and the run ends one
/// gap after the last repair.
fn run_script(mut group: Group, seed: u64, ops: &[Op], cap: Instant) -> Result<Pass, String> {
    let mut gen = Gen::new(seed, 0x6b76);
    let mut episodes = Vec::new();
    let mut submits = BTreeMap::new();
    let mut writes: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut rejected = 0;
    let mut tag = 0u64;
    let mut turn = 0usize;
    let mut next_update = group.sim.now() + UPDATE_EVERY;
    let mut before = group.components();
    let mut slot = group.sim.now() + OP_GAP;
    for op in ops.iter().map(Some).chain([None]) {
        let op_at = slot + SimDuration::from_micros(gen.below(OP_JITTER_US));
        while next_update < op_at {
            group.sim.run_until(next_update);
            // Rotate over the sites that are up. Each site writes its own
            // slice of the key space, and (below) a writer blocked by a
            // view change sits its turn out: without either restriction
            // about one seed in forty ends with replicas disagreeing on a
            // key (README, "Findings"), and a benchmark has to run on
            // inputs on which no operation fails.
            let up: Vec<usize> = (0..GROUP).filter(|&s| group.at_site[s].is_some()).collect();
            let site = up[turn % up.len()];
            let writer = group.at_site[site].expect("site is up");
            turn += 1;
            tag += 1;
            let key = site as u64 * KEYS_PER_SITE + gen.below(KEYS_PER_SITE);
            let cmd = KvCmd::Put {
                key: key_name(key),
                value: tag.to_be_bytes().to_vec(),
            };
            let accepted = group.sim.invoke(writer, |r, ctx| {
                let remote = r.evs().view().len() - 1;
                if r.evs().is_blocked() {
                    return None;
                }
                let accepted = r.mode() == Mode::Normal;
                r.submit_update(KvStoreApp::encode_cmd(&cmd), ctx);
                accepted.then_some(remote)
            });
            match accepted.flatten() {
                Some(remote) => {
                    submits.insert(tag, (next_update, writer, remote));
                    writes.entry(key).or_default().push(tag);
                }
                None => rejected += 1,
            }
            next_update += UPDATE_EVERY;
            if Instant::now() > cap {
                return Err("sim_churn exceeded its wall-clock cap".into());
            }
        }
        group.sim.run_until(op_at);
        let Some(op) = op else { break };
        group.apply(op);
        let after = group.components();
        let changed = after
            .iter()
            .filter(|c| !before.contains(c))
            .cloned()
            .collect();
        episodes.push(Episode {
            at: op_at,
            repair: matches!(op, Op::Heal | Op::Recover(_)),
            changed,
        });
        before = after;
        slot += OP_GAP;
    }
    let end = group.sim.now();
    // No more writes: let the last updates reach every replica before the
    // states are compared.
    group.sim.run_for(DRAIN);
    Ok(Pass {
        group,
        episodes,
        submits,
        writes,
        rejected,
        end,
    })
}

/// Everything the analysis reads off the recorded outputs.
#[derive(Default)]
struct Analysis {
    delivery_ns: Vec<u64>,
    stable_ns: Vec<u64>,
    install_ns: Vec<u64>,
    settle_ns: Vec<u64>,
    remote_applies: u64,
    unsettled_episodes: u64,
}

fn ns(from: SimTime, to: SimTime) -> u64 {
    to.saturating_since(from).as_micros() * 1_000
}

fn analyse(pass: &Pass, outputs: &[(SimTime, ProcessId, ObjEvent)]) -> Analysis {
    let mut a = Analysis::default();
    let mut installs: BTreeMap<ProcessId, Vec<(SimTime, ViewId, usize)>> = BTreeMap::new();
    let mut modes: BTreeMap<ProcessId, Vec<(SimTime, Mode)>> = BTreeMap::new();
    // Tag → (remote applies so far, instant of the latest).
    let mut applied: BTreeMap<u64, (usize, SimTime)> = BTreeMap::new();
    for (at, p, ev) in outputs {
        match ev {
            ObjEvent::ViewInstalled { view, members, .. } => {
                installs.entry(*p).or_default().push((*at, *view, *members));
            }
            ObjEvent::Mode { mode, .. } => modes.entry(*p).or_default().push((*at, *mode)),
            ObjEvent::Applied {
                from,
                response: Some(tag),
            } if from != p => {
                let Ok(tag) = <[u8; 8]>::try_from(tag.as_ref()).map(u64::from_be_bytes) else {
                    continue;
                };
                if let Some((submitted, _, _)) = pass.submits.get(&tag) {
                    a.remote_applies += 1;
                    a.delivery_ns.push(ns(*submitted, *at));
                    let seen = applied.entry(tag).or_insert((0, *at));
                    *seen = (seen.0 + 1, *at);
                }
            }
            _ => {}
        }
    }
    // Stable: the update reached every replica that shared the writer's
    // view when it was submitted (the stability cut itself is not exposed
    // through a group object).
    for (tag, (submitted, _, remote)) in &pass.submits {
        if let Some((n, last)) = applied.get(tag) {
            if *remote > 0 && n == remote {
                a.stable_ns.push(ns(*submitted, *last));
            }
        }
    }
    // A replica is in NORMAL mode at `t` if its latest transition up to
    // and including `t` says so (every replica starts in NORMAL).
    let normal_from = |p: ProcessId, t: SimTime, limit: SimTime| -> Option<SimTime> {
        let timeline = modes.get(&p).map(Vec::as_slice).unwrap_or(&[]);
        let at_t = timeline
            .iter()
            .take_while(|(at, _)| *at <= t)
            .last()
            .map_or(Mode::Normal, |m| m.1);
        if at_t == Mode::Normal {
            return Some(t);
        }
        timeline
            .iter()
            .find(|(at, m)| *at > t && *at < limit && *m == Mode::Normal)
            .map(|(at, _)| *at)
    };
    for (i, ep) in pass.episodes.iter().enumerate() {
        let limit = pass.episodes.get(i + 1).map_or(pass.end, |next| next.at);
        for comp in &ep.changed {
            // The resulting view: the first one, installed after the
            // operation by every process of the component, that has
            // exactly the component's size.
            let in_window = |p: ProcessId| {
                installs
                    .get(&p)
                    .into_iter()
                    .flatten()
                    .filter(move |(at, _, n)| *at >= ep.at && *at < limit && *n == comp.len())
            };
            let resulting = in_window(comp[0]).find_map(|(_, view, _)| {
                let at: Option<Vec<SimTime>> = comp
                    .iter()
                    .map(|&p| {
                        in_window(p)
                            .find(|(_, v, _)| v == view)
                            .map(|(at, _, _)| *at)
                    })
                    .collect();
                at
            });
            let Some(installed_at) = resulting else {
                a.unsettled_episodes += 1;
                continue;
            };
            let last_install = installed_at.iter().copied().max().unwrap_or(ep.at);
            a.install_ns.push(ns(ep.at, last_install));
            if ep.repair {
                let settled: Option<Vec<SimTime>> = comp
                    .iter()
                    .zip(&installed_at)
                    .map(|(&p, &at)| normal_from(p, at, limit))
                    .collect();
                match settled {
                    Some(times) => a
                        .settle_ns
                        .push(ns(ep.at, times.into_iter().max().unwrap_or(ep.at))),
                    None => a.unsettled_episodes += 1,
                }
            }
        }
    }
    a
}

/// The final-state check: one view, NORMAL everywhere, one KV state, and
/// every key holding the value of some accepted write to it.
fn check_final_state(pass: &Pass, out: &mut Outcome) {
    let group = &pass.group;
    if !group.settled() {
        out.problem("replicas did not end in one NORMAL view".into());
    }
    let live = group.live();
    // The state a client can read. (The replicas' own digests also cover
    // their last-writer-wins stamps, which differ between replicas after
    // churn even where every key reads the same everywhere.)
    let visible: BTreeSet<Vec<Option<Vec<u8>>>> = live
        .iter()
        .filter_map(|&p| group.sim.actor(p))
        .map(|r| {
            (0..KEYS)
                .map(|k| r.app().kv.get(&key_name(k)).map(<[u8]>::to_vec))
                .collect()
        })
        .collect();
    if visible.len() != 1 {
        out.problem(format!(
            "replicas ended in {} different KV states",
            visible.len()
        ));
    }
    let Some(reference) = live.first().and_then(|&p| group.sim.actor(p)) else {
        out.problem("no live replica at the end".into());
        return;
    };
    for (key, tags) in &pass.writes {
        let value = reference.app().kv.get(&key_name(*key));
        let holds = value
            .and_then(|v| <[u8; 8]>::try_from(v).ok())
            .map(u64::from_be_bytes)
            .is_some_and(|tag| tags.contains(&tag));
        if !holds {
            out.problem(format!(
                "key {} does not hold an accepted write",
                key_name(*key)
            ));
        }
    }
}

/// The digest the timed pass and the validation pass must share.
fn fingerprint(pass: &Pass, a: &Analysis) -> (u64, u64, usize, u64, usize) {
    let digest = pass
        .group
        .live()
        .first()
        .and_then(|&p| pass.group.sim.actor(p))
        .map_or(0, |r| r.app().digest());
    (
        a.remote_applies,
        pass.rejected,
        pass.submits.len(),
        digest,
        a.install_ns.len(),
    )
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let scale = if args.smoke { 10 } else { 1 };
    let ops = script(args.seed, (OPS_PER_SECOND * args.seconds / scale).max(8));
    let cap = Instant::now() + Duration::from_secs(args.seconds * 6 + 60);

    let mut setup_s = Vec::new();
    let mut group = None;
    for k in (0..SIM_SETUPS as u64).rev() {
        let t = Instant::now();
        group = Some(set_up(args.seed.wrapping_add(k * 7919), false)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let group = group.expect("SIM_SETUPS >= 1");

    // The timed pass: monitor off.
    let obs = group.sim.obs().clone();
    let before = obs.metrics_snapshot();
    let cpu0 = cpu_us();
    let started = Instant::now();
    let mut pass = run_script(group, args.seed, &ops, cap)?;
    let wall = started.elapsed();
    let cpu = cpu_us() - cpu0;
    let after = obs.metrics_snapshot();

    // Validation, outside the timed region: the recorded outputs, the
    // final state, then the same script again under the online invariant
    // monitor (Properties 2.1-2.3 and 6.1-6.3), which must also reproduce
    // the timed pass's counts exactly.
    let mut out = Outcome::default();
    let outputs = pass.group.sim.drain_outputs();
    let a = analyse(&pass, &outputs);
    check_final_state(&pass, &mut out);
    if a.unsettled_episodes > 0 {
        out.problem(format!(
            "{} scripted episodes never settled",
            a.unsettled_episodes
        ));
    }
    let mut monitored = run_script(set_up(args.seed, true)?, args.seed, &ops, cap)?;
    for report in monitored.group.sim.obs().monitor_reports().iter().take(3) {
        out.problem(format!("invariant monitor: {}", report.format()));
    }
    let monitored_outputs = monitored.group.sim.drain_outputs();
    if fingerprint(&monitored, &analyse(&monitored, &monitored_outputs)) != fingerprint(&pass, &a) {
        out.problem("the monitored pass did not reproduce the timed pass".into());
    }
    out.attempted = pass.submits.len() as u64;
    out.correct = out.problems.is_empty();
    out.failed = if out.correct { 0 } else { out.attempted };

    let Analysis {
        mut delivery_ns,
        mut stable_ns,
        mut install_ns,
        mut settle_ns,
        remote_applies,
        ..
    } = a;
    set_latencies(&mut out, args.trace, &mut delivery_ns, &mut stable_ns);
    if args.trace {
        out.set(
            "cpu_us_per_msg",
            cpu as f64 / (remote_applies as f64).max(1.0),
        );
        // Before the micro-drives: the workload's peak, not theirs.
        out.set("peak_rss_mb", peak_rss_kb() as f64 / 1024.0);
        copy_program_metrics(&mut out, &ObsDelta { before, after });
        let traffic = &pass.group.traffic;
        let snapshots = traffic.snapshots.load(Ordering::Relaxed).max(1);
        out.set(
            "apps.transfer_bytes_mean",
            traffic.bytes.load(Ordering::Relaxed) as f64 / snapshots as f64,
        );
        crate::micro::gcs_layers(&mut out);
        crate::micro::gcs_flush_layer(&mut out);
        crate::micro::evs_view_layer(&mut out);
        crate::micro::sim_layer(&mut out);
        crate::micro::obs_layer(&mut out);
    } else {
        out.set("msgs_per_s", remote_applies as f64 / wall.as_secs_f64());
        set_membership(&mut out, &mut setup_s, &mut install_ns, &mut settle_ns);
    }
    Ok(out)
}
