//! The live actor host: the one driver under both live transports.
//!
//! # Design
//!
//! The decision this module owns is **who hosts actors outside the
//! simulator, and on which clock**. A [`LiveNet`] is one *node*: every
//! spawned [`Actor`] gets a thread of its own (inbox, timers, [`Context`]
//! dispatch), and one router thread takes each activation's whole send
//! list, checks the shared [`Topology`], and puts the messages for each
//! local actor into its inbox as *one* event that the actor thread
//! processes in a single run. Every send is counted once:
//! `net.sent == net.delivered + Σ net.dropped_*`.
//!
//! A destination with no local inbox goes to the node's [`Uplink`], the
//! only thing the two live transports differ in.
//! [`threaded`](crate::threaded) has none, so such a send is
//! `net.dropped_unroutable`; [`socket`](crate::socket) frames it onto a
//! TCP connection, and its reader threads put inbound frames into the same
//! inboxes through the same `deliver_batches`.
//!
//! **Clock**: every context observes `ctx.now()` as microseconds since the
//! UNIX epoch, so cooperating OS processes on one host share a clock and
//! the latency tracker's cross-process `stage.wire_us` deltas stay
//! meaningful. A timer of one simulated microsecond takes one real one.
//!
//! Record/replay is refused — see [`LiveNet::enable_record`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::net::SocketAddr;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use vs_obs::{DropReason, EventKind, Obs, ObsState};

use crate::actor::{Actor, Context, TimerId, TimerKind};
use crate::id::{ProcessId, SiteId};
use crate::rng::DetRng;
use crate::schedule::RecordUnsupported;
use crate::storage::Storage;
use crate::time::SimTime;
use crate::topology::Topology;

/// Microseconds since the UNIX epoch — the live transports' shared clock.
/// Separate processes on one host derive `ctx.now()` from this same
/// source, which is what keeps cross-process stage deltas meaningful.
pub(crate) fn unix_now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

pub(crate) enum ProcEvent<M> {
    /// A batch of inbound messages, processed in one activation sweep.
    Batch(Vec<(ProcessId, M)>),
    Stop,
}

enum RouterEvent<M> {
    /// One actor activation's whole send list, and who sent it.
    Sends(ProcessId, Vec<(ProcessId, M)>),
    Route(ProcessId, SocketAddr),
    Shutdown,
}

/// Inbox of every local actor: written by `spawn_as`, read by the router
/// (local routes) and by an uplink's receive half (inbound frames).
pub(crate) type Inboxes<M> = BTreeMap<ProcessId, Sender<ProcEvent<M>>>;
/// Messages grouped per destination actor, awaiting `deliver_batches`.
pub(crate) type Batches<M> = BTreeMap<ProcessId, Vec<(ProcessId, M)>>;

/// What a node's handle, its router and its uplink's receive half share.
pub(crate) struct Hub<M> {
    pub(crate) obs: Obs,
    pub(crate) topology: Arc<RwLock<Topology>>,
    pub(crate) inboxes: RwLock<Inboxes<M>>,
}

/// Where a node's router sends what no local actor takes.
/// [`NoUplink`](crate::threaded::NoUplink) keeps the provided methods,
/// [`TcpUplink`](crate::socket::TcpUplink) replaces them.
pub trait Uplink<M>: Send + 'static {
    /// What a node with this uplink calls itself (`threaded`, `socket`).
    const NAME: &'static str;
    /// What the handle keeps of the uplink's receive half until shutdown.
    type Ingress: Send;

    /// Learns where the remote process `pid` lives.
    fn add_route(&mut self, _pid: ProcessId, _addr: SocketAddr) {}
    /// Queues `msg`, stamped `at_us`, towards `to`. False if there is no
    /// route (the router then counts it `net.dropped_unroutable`).
    fn forward(&mut self, from: ProcessId, to: ProcessId, at_us: u64, msg: &M, obs: &Obs) -> bool;
    /// Pushes out what `forward` queued; runs once per router pass. Returns
    /// when the router must run its next pass even if nothing is sent by
    /// then: `None` while nothing is left queued.
    fn flush(&mut self, _obs: &Obs) -> Option<Instant> {
        None
    }
    /// Stops the receive half, joining its threads.
    fn close(_ingress: Self::Ingress) {}
}

/// A running node: local actors on their own threads, one router thread,
/// and an [`Uplink`] — [`ThreadedNet`](crate::threaded::ThreadedNet) and
/// [`SocketNet`](crate::socket::SocketNet) are this type.
///
/// Dropping the handle without calling [`LiveNet::shutdown`] detaches the
/// worker threads; prefer an explicit shutdown.
pub struct LiveNet<A: Actor, U: Uplink<A::Msg>> {
    hub: Arc<Hub<A::Msg>>,
    router_tx: Sender<RouterEvent<A::Msg>>,
    outputs_rx: Receiver<(ProcessId, A::Output)>,
    outputs_tx: Sender<(ProcessId, A::Output)>,
    procs: Vec<JoinHandle<()>>,
    router: JoinHandle<()>,
    pub(crate) ingress: U::Ingress,
    next_pid: u64,
    seed: u64,
}

impl<A, U> LiveNet<A, U>
where
    A: Actor + Send,
    A::Msg: Send,
    A::Output: Send,
    U: Uplink<A::Msg>,
{
    /// Starts the router thread of a node that has no actors yet.
    pub(crate) fn start(seed: u64, hub: Arc<Hub<A::Msg>>, uplink: U, ingress: U::Ingress) -> Self {
        let (router_tx, router_rx) = channel();
        let (outputs_tx, outputs_rx) = channel();
        let h = Arc::clone(&hub);
        let router = std::thread::spawn(move || router_loop(router_rx, h, uplink));
        LiveNet {
            hub,
            router_tx,
            outputs_rx,
            outputs_tx,
            procs: Vec::new(),
            router,
            ingress,
            next_pid: 0,
            seed,
        }
    }

    pub(crate) fn add_route(&self, pid: ProcessId, addr: SocketAddr) {
        let _ = self.router_tx.send(RouterEvent::Route(pid, addr));
    }

    /// The observability handle shared by the transport threads and all
    /// local processes.
    pub fn obs(&self) -> &Obs {
        &self.hub.obs
    }

    /// The topology handle, for sharing with other in-process nodes.
    pub fn topology_handle(&self) -> Arc<RwLock<Topology>> {
        Arc::clone(&self.hub.topology)
    }

    /// Always refuses, naming this backend: schedule recording is a
    /// simulator-only facility, for the reason [`RecordUnsupported`] gives.
    /// Run the same actors under [`Sim`](crate::Sim) with
    /// [`SimConfig::record`](crate::SimConfig::record) to get a replayable
    /// [`ScheduleLog`](crate::ScheduleLog).
    pub fn enable_record(&mut self) -> Result<(), RecordUnsupported> {
        Err(RecordUnsupported::for_backend(U::NAME))
    }

    /// Spawns an actor on its own thread under the next free local
    /// process id.
    pub fn spawn(&mut self, actor: A) -> ProcessId {
        self.spawn_as(ProcessId::from_raw(self.next_pid), actor)
    }

    /// Spawns with the process id visible to the constructor — the
    /// mirror of [`Sim::spawn_with`](crate::Sim::spawn_with).
    pub fn spawn_with(&mut self, f: impl FnOnce(ProcessId) -> A) -> ProcessId {
        let pid = ProcessId::from_raw(self.next_pid);
        self.spawn_as(pid, f(pid))
    }

    /// Spawns an actor under an explicit process id — how cooperating OS
    /// processes claim their fleet-wide identities.
    pub fn spawn_as(&mut self, pid: ProcessId, actor: A) -> ProcessId {
        self.next_pid = self.next_pid.max(pid.raw() + 1);
        let (inbox_tx, inbox_rx) = channel::<ProcEvent<A::Msg>>();
        self.hub.inboxes.write().expect("inbox lock").insert(pid, inbox_tx);
        let router_tx = self.router_tx.clone();
        let outputs_tx = self.outputs_tx.clone();
        let rng = DetRng::seed_from(self.seed ^ pid.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let obs = self.hub.obs.clone();
        let handle = std::thread::spawn(move || {
            run_process(pid, actor, inbox_rx, router_tx, outputs_tx, rng, obs);
        });
        self.procs.push(handle);
        pid
    }

    /// Injects a message attributed to `from`.
    pub fn post(&self, from: ProcessId, to: ProcessId, msg: A::Msg) {
        let _ = self.router_tx.send(RouterEvent::Sends(from, vec![(to, msg)]));
    }

    /// Splits the network (asynchronously with respect to in-flight
    /// traffic). Reaches every node sharing this topology handle.
    pub fn partition(&self, groups: &[Vec<ProcessId>]) {
        self.hub.topology.write().expect("topology lock").partition(groups);
    }

    /// Reunifies the network.
    pub fn heal(&self) {
        self.hub.topology.write().expect("topology lock").heal();
    }

    /// Crashes a local process: its thread stops handling events.
    pub fn crash(&mut self, pid: ProcessId) {
        if let Some(inbox) = self.hub.inboxes.read().expect("inbox lock").get(&pid) {
            let _ = inbox.send(ProcEvent::Stop);
        }
    }

    /// Outputs recorded so far without blocking.
    pub fn poll_outputs(&self) -> Vec<(ProcessId, A::Output)> {
        self.outputs_rx.try_iter().collect()
    }

    /// Blocks until `n` outputs have been produced or `timeout` elapses;
    /// returns whatever was collected.
    pub fn wait_outputs(&self, n: usize, timeout: Duration) -> Vec<(ProcessId, A::Output)> {
        let deadline = Instant::now() + timeout;
        let mut out = Vec::new();
        while out.len() < n {
            match self.outputs_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(o) => out.push(o),
                Err(_) => break,
            }
        }
        out
    }

    /// Stops every local process, the router and the uplink, joining all
    /// their threads (and, for a socket node, closing all sockets).
    pub fn shutdown(self) {
        for inbox in self.hub.inboxes.read().expect("inbox lock").values() {
            let _ = inbox.send(ProcEvent::Stop);
        }
        let _ = self.router_tx.send(RouterEvent::Shutdown);
        U::close(self.ingress);
        for handle in self.procs {
            let _ = handle.join();
        }
        let _ = self.router.join();
    }
}

impl<A: Actor, U: Uplink<A::Msg>> std::fmt::Debug for LiveNet<A, U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveNet")
            .field("backend", &U::NAME)
            .field("processes", &self.procs.len())
            .finish()
    }
}

/// One process' wall-clock timers: a deadline heap plus the ids still
/// armed. Cancelling removes only the id, so cancelling a fired or unknown
/// timer leaves nothing behind; an unarmed heap entry is skipped when due.
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<Reverse<(Instant, TimerId, TimerKind)>>,
    armed: BTreeSet<TimerId>,
}

impl Timers {
    fn arm(&mut self, at: Instant, id: TimerId, kind: TimerKind) {
        self.heap.push(Reverse((at, id, kind)));
        self.armed.insert(id);
    }

    fn cancel(&mut self, id: TimerId) {
        self.armed.remove(&id);
    }

    /// Takes the next armed timer that is due at `now`.
    fn pop_due(&mut self, now: Instant) -> Option<(TimerId, TimerKind)> {
        while let Some(&Reverse((at, id, kind))) = self.heap.peek() {
            if at > now {
                break;
            }
            self.heap.pop();
            if self.armed.remove(&id) {
                return Some((id, kind));
            }
        }
        None
    }
}

/// The actor worker loop: the clock handed to every [`Context`] is the
/// shared UNIX-epoch clock, and inbound messages arrive in batches that
/// one wakeup processes end-to-end. Timers are examined only between inbox
/// batches, so even a zero-delay timer set while a batch is being handled
/// fires after the batch's last message.
fn run_process<A: Actor>(
    pid: ProcessId,
    mut actor: A,
    inbox: Receiver<ProcEvent<A::Msg>>,
    router: Sender<RouterEvent<A::Msg>>,
    outputs: Sender<(ProcessId, A::Output)>,
    mut rng: DetRng,
    obs: Obs,
) {
    let site = SiteId::from_raw(pid.raw() as u32);
    let mut storage = Storage::new();
    let mut next_timer: u64 = 0;
    let mut timers = Timers::default();

    macro_rules! with_ctx {
        (|$a:ident, $ctx:ident| $body:expr) => {{
            let now = SimTime::from_micros(unix_now_us());
            let mut ctx = Context::new(pid, site, now, &mut storage, &mut rng, &mut next_timer);
            let ($a, $ctx) = (&mut actor, &mut ctx);
            $body;
            let sends = std::mem::take(&mut ctx.sends);
            let set = std::mem::take(&mut ctx.timers_set);
            let cancel = std::mem::take(&mut ctx.timers_cancelled);
            let outs = std::mem::take(&mut ctx.outputs);
            drop(ctx);
            if !sends.is_empty() {
                // The whole activation's send list travels as one router
                // event; an uplink coalesces same-destination frames into
                // one buffer flush.
                let _ = router.send(RouterEvent::Sends(pid, sends));
            }
            for (after, kind, id) in set {
                timers.arm(Instant::now() + Duration::from_micros(after.as_micros()), id, kind);
            }
            for id in cancel {
                timers.cancel(id);
            }
            for o in outs {
                let _ = outputs.send((pid, o));
            }
        }};
    }

    with_ctx!(|a, ctx| a.on_start(ctx));

    loop {
        // Fire due timers first.
        let now = Instant::now();
        while let Some((tid, kind)) = timers.pop_due(now) {
            let at_us = unix_now_us();
            obs.with(|o| {
                o.metrics.set_gauge("time.now_us", at_us as i64);
                o.metrics.inc("net.timers_fired");
                o.journal.record(pid.raw(), at_us, EventKind::TimerFire { kind: kind.0 });
            });
            with_ctx!(|a, ctx| a.on_timer(tid, kind, ctx));
        }
        let wait = timers
            .heap
            .peek()
            .map(|Reverse((at, _, _))| at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match inbox.recv_timeout(wait) {
            Ok(ProcEvent::Batch(batch)) => {
                // One wakeup handles the whole batch: the endpoint state
                // is locked into this thread once, not once per message.
                for (from, msg) in batch {
                    with_ctx!(|a, ctx| a.on_message(from, msg, ctx));
                }
            }
            Ok(ProcEvent::Stop) => return,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The router thread: routes local traffic straight into the actor
/// inboxes and hands the rest to the uplink. It sleeps on the command
/// channel, with a deadline only while the uplink asks for one (unflushed
/// bytes, a reconnect pending).
fn router_loop<M, U: Uplink<M>>(rx: Receiver<RouterEvent<M>>, hub: Arc<Hub<M>>, mut uplink: U) {
    let mut batches: Batches<M> = BTreeMap::new();
    let mut retry_at: Option<Instant> = None;

    loop {
        let mut cmd = match retry_at {
            None => match rx.recv() {
                Ok(ev) => Some(ev),
                Err(_) => return,
            },
            Some(at) => match rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
                Ok(ev) => Some(ev),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return,
            },
        };
        let mut shutdown = false;
        // 1. Drain every queued command, then deliver each local
        //    destination's batch as one inbox event.
        {
            let inboxes = hub.inboxes.read().expect("inbox lock");
            while let Some(ev) = cmd {
                match ev {
                    RouterEvent::Route(pid, addr) => uplink.add_route(pid, addr),
                    RouterEvent::Sends(from, sends) => {
                        route_sends(from, sends, &hub, &inboxes, &mut uplink, &mut batches);
                    }
                    RouterEvent::Shutdown => shutdown = true,
                }
                cmd = rx.try_recv().ok();
            }
            deliver_batches(&hub.obs, &inboxes, &mut batches);
        }
        // 2. Let the uplink flush what this pass queued.
        retry_at = uplink.flush(&hub.obs);
        // Wall time feeds the same gauge the simulator's poll hook
        // publishes from virtual time, so live rate math is
        // backend-agnostic.
        hub.obs.with(|o| o.metrics.set_gauge("time.now_us", unix_now_us() as i64));
        if shutdown {
            return;
        }
    }
}

/// Routes one activation's send list: local destinations join the pass's
/// delivery batches; the rest is the uplink's.
fn route_sends<M, U: Uplink<M>>(
    from: ProcessId,
    sends: Vec<(ProcessId, M)>,
    hub: &Hub<M>,
    inboxes: &Inboxes<M>,
    uplink: &mut U,
    batches: &mut Batches<M>,
) {
    let obs = &hub.obs;
    let at_us = unix_now_us();
    for (to, msg) in sends {
        let reachable = hub.topology.read().expect("topology lock").reachable(from, to);
        obs.with(|o| {
            o.metrics.inc("net.sent");
            o.journal
                .record(from.raw(), at_us, EventKind::MsgSend { from: from.raw(), to: to.raw() });
            if !reachable {
                o.metrics.inc("net.dropped_partition");
                journal_drop(o, from.raw(), to.raw(), at_us, DropReason::Partition);
            }
        });
        if !reachable {
            continue;
        }
        if inboxes.contains_key(&to) {
            batches.entry(to).or_default().push((from, msg));
        } else if !uplink.forward(from, to, at_us, &msg, obs) {
            obs.with(|o| o.metrics.inc("net.dropped_unroutable"));
        }
    }
}

/// Journals one dropped message, under its sender.
fn journal_drop(o: &mut ObsState, from: u64, to: u64, at_us: u64, reason: DropReason) {
    o.journal.record(from, at_us, EventKind::MsgDrop { from, to, reason });
}

/// Hands each destination's accumulated batch to its actor thread as one
/// event, with one observability-lock acquisition per batch.
pub(crate) fn deliver_batches<M>(obs: &Obs, inboxes: &Inboxes<M>, batches: &mut Batches<M>) {
    let at_us = unix_now_us();
    for (&to, batch) in batches.iter_mut() {
        if batch.is_empty() {
            continue;
        }
        let n = batch.len() as u64;
        let Some(inbox) = inboxes.get(&to) else {
            batch.clear();
            continue;
        };
        let senders: Vec<u64> = batch.iter().map(|(f, _)| f.raw()).collect();
        let delivered = inbox.send(ProcEvent::Batch(std::mem::take(batch))).is_ok();
        obs.with(|o| {
            o.metrics.observe("net.rx_batch_msgs", n);
            if delivered {
                o.metrics.add("net.delivered", n);
                for from in senders {
                    // Merge the sender's journal clock where it is local
                    // (same Obs); remote clocks live in the remote
                    // process' journal and stay there.
                    let stamp = o.journal.clock_of(from);
                    o.journal.merge_clock(to.raw(), &stamp);
                    o.journal
                        .record(to.raw(), at_us, EventKind::MsgDeliver { from, to: to.raw() });
                }
            } else {
                o.metrics.add("net.dropped_crashed", n);
                for from in senders {
                    journal_drop(o, from, to.raw(), at_us, DropReason::Crashed);
                }
            }
        });
    }
    batches.retain(|_, b| b.capacity() > 0 && b.len() < 1024); // keep warm, bounded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::SocketNet;
    use crate::threaded::ThreadedNet;
    use crate::time::SimDuration;

    // Every scenario below is generic over the uplink and runs on both live
    // kinds, through the host's own verbs.

    struct Echo;
    impl Actor for Echo {
        type Msg = u32;
        type Output = (ProcessId, u32);
        fn on_message(
            &mut self,
            from: ProcessId,
            msg: u32,
            ctx: &mut Context<'_, u32, (ProcessId, u32)>,
        ) {
            ctx.output((from, msg));
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    #[test]
    fn messages_round_trip_between_actor_threads() {
        fn scenario<U: Uplink<u32>>(mut net: LiveNet<Echo, U>) {
            let kind = U::NAME;
            let a = net.spawn_with(|_| Echo);
            let b = net.spawn_with(|_| Echo);
            net.post(a, b, 3);
            let outs = net.wait_outputs(4, Duration::from_secs(10));
            assert_eq!(outs.len(), 4, "{kind}: 3,2,1,0 bounce between a and b");
            let snap = net.obs().metrics_snapshot();
            assert!(snap.histogram("net.rx_batch_msgs").is_some(), "{kind}: batches are measured");
            net.shutdown();
        }
        scenario(ThreadedNet::new(42));
        scenario(SocketNet::new(42).unwrap());
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        fn scenario<U: Uplink<u32>>(mut net: LiveNet<Echo, U>) {
            let kind = U::NAME;
            let a = net.spawn_with(|_| Echo);
            let b = net.spawn_with(|_| Echo);
            net.partition(&[vec![a], vec![b]]);
            net.post(a, b, 0);
            let outs = net.wait_outputs(usize::MAX, Duration::from_millis(300));
            assert!(outs.is_empty(), "{kind}: partitioned message must not arrive");
            net.heal();
            net.post(a, b, 0);
            assert_eq!(net.wait_outputs(1, Duration::from_secs(10)).len(), 1, "{kind}");
            net.shutdown();
        }
        scenario(ThreadedNet::new(43));
        scenario(SocketNet::new(43).unwrap());
    }

    #[test]
    fn crash_silences_a_process() {
        fn scenario<U: Uplink<u32>>(mut net: LiveNet<Echo, U>) {
            let a = net.spawn_with(|_| Echo);
            let b = net.spawn_with(|_| Echo);
            net.crash(b);
            std::thread::sleep(Duration::from_millis(100));
            net.post(a, b, 5);
            let outs = net.wait_outputs(usize::MAX, Duration::from_millis(300));
            assert!(outs.is_empty(), "{}", U::NAME);
            net.shutdown();
        }
        scenario(ThreadedNet::new(44));
        scenario(SocketNet::new(44).unwrap());
    }

    struct Tick;
    impl Actor for Tick {
        type Msg = ();
        type Output = &'static str;
        fn on_start(&mut self, ctx: &mut Context<'_, (), &'static str>) {
            ctx.set_timer(SimDuration::from_millis(20), TimerKind(0));
        }
        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, (), &'static str>) {}
        fn on_timer(
            &mut self,
            _t: TimerId,
            _k: TimerKind,
            ctx: &mut Context<'_, (), &'static str>,
        ) {
            ctx.output("tick");
        }
    }

    #[test]
    fn wall_clock_timers_fire() {
        fn scenario<U: Uplink<()>>(mut net: LiveNet<Tick, U>) {
            net.spawn_with(|_| Tick);
            assert_eq!(net.wait_outputs(1, Duration::from_secs(10)).len(), 1, "{}", U::NAME);
            net.shutdown();
        }
        scenario(ThreadedNet::new(45));
        scenario(SocketNet::new(45).unwrap());
    }

    /// The refusal carries each live backend's name through the shared
    /// error type.
    #[test]
    fn enable_record_refuses_with_backend_name() {
        fn scenario<U: Uplink<u32>>(mut net: LiveNet<Echo, U>, name: &str) {
            let err = net.enable_record().unwrap_err();
            assert_eq!(err.backend(), name);
            assert!(err.to_string().contains(&format!("{name} transport")));
            net.shutdown();
        }
        scenario(ThreadedNet::new(47), "threaded");
        scenario(SocketNet::new(47).unwrap(), "socket");
    }

    /// Every send is accounted for exactly once: delivered, or dropped for
    /// a named reason. The run has an unknown destination, a partition and
    /// a crashed process; nothing replies, so the counters settle.
    #[test]
    fn every_send_is_delivered_or_dropped_for_a_reason() {
        struct Sink;
        impl Actor for Sink {
            type Msg = u32;
            type Output = u32;
            fn on_message(&mut self, _: ProcessId, msg: u32, ctx: &mut Context<'_, u32, u32>) {
                ctx.output(msg);
            }
        }
        fn scenario<U: Uplink<u32>>(mut net: LiveNet<Sink, U>) {
            let kind = U::NAME;
            let a = net.spawn_with(|_| Sink);
            let b = net.spawn_with(|_| Sink);
            let c = net.spawn_with(|_| Sink);
            let obs = net.obs().clone();
            net.post(a, b, 1);
            assert_eq!(net.wait_outputs(1, Duration::from_secs(10)), vec![(b, 1)], "{kind}");
            // Partition and crash take effect at once, not in order with the
            // posts, so each step waits for its counter.
            let deadline = Instant::now() + Duration::from_secs(10);
            let wait_for = |counter: &str| {
                while obs.counter(counter) == 0 {
                    assert!(Instant::now() < deadline, "{kind}: {counter} must be counted");
                    std::thread::yield_now();
                }
            };
            net.post(a, ProcessId::from_raw(99), 2);
            wait_for("net.dropped_unroutable");
            net.partition(&[vec![a], vec![b, c]]);
            net.post(a, b, 3);
            wait_for("net.dropped_partition");
            net.heal();
            net.crash(c);
            let mut posted = 3;
            while obs.counter("net.dropped_crashed") == 0 {
                assert!(Instant::now() < deadline, "{kind}: c's thread must stop");
                net.post(a, c, 4);
                posted += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            let accounted = |snap: &vs_obs::MetricsRegistry| {
                let dropped: u64 = snap
                    .counters()
                    .filter(|(name, _)| name.starts_with("net.dropped_"))
                    .map(|(_, n)| n)
                    .sum();
                snap.counter("net.delivered") + dropped
            };
            let mut snap = obs.metrics_snapshot();
            while snap.counter("net.sent") < posted || snap.counter("net.sent") != accounted(&snap) {
                assert!(
                    Instant::now() < deadline,
                    "{kind}: {posted} posted, {} sent, {} accounted for",
                    snap.counter("net.sent"),
                    accounted(&snap)
                );
                std::thread::yield_now();
                snap = obs.metrics_snapshot();
            }
            assert_eq!(snap.counter("net.sent"), posted, "{kind}");
            assert_eq!(snap.counter("net.dropped_unroutable"), 1, "{kind}");
            assert_eq!(snap.counter("net.dropped_partition"), 1, "{kind}");
            net.shutdown();
        }
        scenario(ThreadedNet::new(46));
        scenario(SocketNet::new(46).unwrap());
    }

    /// A zero-delay timer set while handling the first message of a batch
    /// fires after the batch's last message, and before the next event.
    #[test]
    fn timers_are_examined_only_between_inbox_batches() {
        struct Deferring;
        impl Actor for Deferring {
            type Msg = u32;
            type Output = u32;
            fn on_message(&mut self, _: ProcessId, msg: u32, ctx: &mut Context<'_, u32, u32>) {
                if msg == 0 {
                    ctx.set_timer(SimDuration::ZERO, TimerKind(0));
                }
                ctx.output(msg);
            }
            fn on_timer(&mut self, _: TimerId, _: TimerKind, ctx: &mut Context<'_, u32, u32>) {
                ctx.output(u32::MAX);
            }
        }
        let (pid, peer) = (ProcessId::from_raw(0), ProcessId::from_raw(1));
        let (inbox_tx, inbox_rx) = channel();
        let (router_tx, _router_rx) = channel();
        let (outputs_tx, outputs_rx) = channel();
        inbox_tx.send(ProcEvent::Batch((0..4).map(|i| (peer, i)).collect())).unwrap();
        inbox_tx.send(ProcEvent::Batch(vec![(peer, 4)])).unwrap();
        inbox_tx.send(ProcEvent::Stop).unwrap();
        run_process(pid, Deferring, inbox_rx, router_tx, outputs_tx, DetRng::seed_from(0), Obs::new());
        let outs: Vec<u32> = outputs_rx.try_iter().map(|(_, o)| o).collect();
        assert_eq!(outs, vec![0, 1, 2, 3, u32::MAX, 4]);
    }

    /// Cancelling a timer that already fired, or never existed, must not
    /// leave a record behind (it used to stay in a list that every later
    /// timer fire scanned).
    #[test]
    fn cancelling_fired_timers_leaves_no_bookkeeping() {
        let mut timers = Timers::default();
        let now = Instant::now();
        for i in 0..10_000 {
            timers.arm(now, TimerId(i), TimerKind(0));
            assert_eq!(timers.pop_due(now), Some((TimerId(i), TimerKind(0))));
            timers.cancel(TimerId(i));
            timers.cancel(TimerId(1_000_000 + i));
        }
        assert!(timers.armed.is_empty() && timers.heap.is_empty());
        // A timer cancelled in time does not fire; the ones after it do.
        timers.arm(now, TimerId(10_000), TimerKind(1));
        timers.arm(now, TimerId(10_001), TimerKind(2));
        timers.cancel(TimerId(10_000));
        assert_eq!(timers.pop_due(now), Some((TimerId(10_001), TimerKind(2))));
        assert_eq!(timers.pop_due(now), None);
        assert!(timers.armed.is_empty() && timers.heap.is_empty());
    }
}
