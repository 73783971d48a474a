//! Real socket transport: framed TCP between OS processes.
//!
//! Drives the same [`Actor`] state machines as the simulator and the
//! threaded in-process transport, but over actual sockets, so separate
//! OS processes (or separate nodes in one process, for tests) exchange
//! protocol traffic through the kernel's network stack. Nothing in
//! `vs-membership`, `vs-gcs` or `vs-evs` changes: the only new demand is
//! that the message type crosses the wire, expressed as the
//! [`WireCodec`] bound.
//!
//! # Design
//!
//! One [`SocketNet`] is one *node*: a TCP listener with a blocking
//! acceptor thread, one blocking reader thread per inbound connection, a
//! set of local actor threads, and one send thread that owns every
//! outbound connection. There is no epoll dependency and no polling: a
//! reader sleeps in `read` and the kernel wakes it when bytes arrive, so
//! receive latency follows the link and not a timer. The send thread
//! sleeps on its command channel; it uses a timed wait only while some
//! peer has unflushed bytes (full kernel buffer) or a reconnect pending,
//! so an idle node makes no periodic wake-ups.
//!
//! **Send batching**: each actor activation hands its whole send list to
//! the send thread in one message; the send thread encodes frames for
//! the same destination back-to-back into one per-peer pending buffer and
//! flushes it with a single `write` per pass (a writev-style coalesce —
//! the buffer is retained and reused between flushes, so steady state
//! allocates nothing). The `net.tx_batch_frames` histogram records how
//! many frames each flush coalesced. A peer that stops draining is shed
//! at `PENDING_CAP`: its backlog is dropped *with the connection*, so the
//! next frame opens a fresh stream on a frame boundary.
//!
//! **Receive batching**: a reader `read`s straight into its connection's
//! reassembly buffer, parses every complete frame the read produced,
//! groups them by destination actor, and puts each group into the actor's
//! inbox as *one* event that the actor thread processes in a single run —
//! mirroring the simulator fast path's same-instant batching.
//! `net.rx_batch_msgs` records the batch sizes. A reader that takes
//! `RX_BACKLOG_FRAMES` frames or `RX_BACKLOG_BYTES` off its connection in
//! one go found a backlog — the peer sends faster than this node drains —
//! and lets the connection fill for `RX_COALESCE` before it reads again
//! (interrupt moderation: event driven while unloaded, coalescing while
//! saturated). Every thread wake-up costs tens of microseconds on a
//! virtual CPU, and that cost follows the host's load; without the wait a
//! saturated group's throughput is a chain of such wake-ups and varies
//! with the host from one run to the next. An unloaded connection never
//! takes the wait.
//!
//! **Clock**: every context observes `ctx.now()` as microseconds since
//! the UNIX epoch, so cooperating processes on one host share a clock
//! and the latency tracker's cross-process `stage.wire_us` deltas stay
//! meaningful (frames carry their send instant; `net.link_delay_us` is
//! measured receiver-side from it).
//!
//! Record/replay is refused, exactly like the threaded transport — see
//! [`SocketNet::enable_record`].
//!
//! # Frame format
//!
//! `[u32 len][u64 from][u64 to][u64 sent_unix_us][payload]`, all
//! big-endian; `len` covers everything after itself; the payload is the
//! message's [`WireCodec`] encoding.
//!
//! # Example
//!
//! ```
//! use vs_net::socket::SocketNet;
//! use vs_net::{Actor, Context, ProcessId};
//!
//! struct Echo;
//! impl Actor for Echo {
//!     type Msg = u32;
//!     type Output = u32;
//!     fn on_message(&mut self, _f: ProcessId, m: u32, ctx: &mut Context<'_, u32, u32>) {
//!         ctx.output(m);
//!     }
//! }
//!
//! let mut a = SocketNet::new(1).unwrap();
//! let mut b = SocketNet::new(2).unwrap();
//! let pa = a.spawn(Echo);
//! let pb = b.spawn_as(ProcessId::from_raw(1), Echo);
//! a.add_peer(pb, b.local_addr());
//! b.add_peer(pa, a.local_addr());
//! a.post(pa, pb, 7); // crosses a real TCP connection
//! let outs = b.wait_outputs(1, std::time::Duration::from_secs(10));
//! assert_eq!(outs, vec![(pb, 7)]);
//! a.shutdown();
//! b.shutdown();
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use vs_obs::{DropReason, EventKind, Obs};

use crate::actor::{Actor, Context, TimerId, TimerKind};
use crate::id::{ProcessId, SiteId};
use crate::rng::DetRng;
use crate::schedule::RecordUnsupported;
use crate::storage::Storage;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::wire::{WireCodec, WireReader};

/// Frame header bytes after the length prefix: from + to + sent stamp.
const FRAME_HEADER: usize = 24;
/// Upper bound on one frame's `len` field; larger values mean a corrupt
/// or hostile stream and close the connection.
const MAX_FRAME: u32 = 64 * 1024 * 1024;
/// Per-peer cap on unflushed outbound bytes; beyond it the whole backlog
/// is dropped with its connection (the protocol layers repair through
/// retransmission).
const PENDING_CAP: usize = 8 * 1024 * 1024;
/// How soon the send thread retries a flush the kernel buffer refused.
const FLUSH_RETRY: Duration = Duration::from_micros(500);
/// A reader that takes at least this many frames, or this many bytes, in one
/// go found a backlog: the peer sends faster than this node takes frames
/// off the connection.
const RX_BACKLOG_FRAMES: usize = 4;
const RX_BACKLOG_BYTES: usize = 32 * 1024;
/// How long a reader that found a backlog lets its connection fill before
/// it reads again. An unloaded connection never waits.
const RX_COALESCE: Duration = Duration::from_micros(400);
/// Minimum spacing between connection attempts to one unreachable peer.
const CONNECT_RETRY: Duration = Duration::from_millis(100);
/// Cap on one blocking connect attempt from the send thread.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Microseconds since the UNIX epoch — the socket backend's shared clock.
/// Separate processes on one host derive `ctx.now()` from this same
/// source, which is what keeps cross-process stage deltas meaningful.
fn unix_now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

enum ProcEvent<M> {
    /// A batch of inbound messages, processed in one activation sweep.
    Batch(Vec<(ProcessId, M)>),
    Crash,
    Shutdown,
}

enum IoEvent<M> {
    /// One actor activation's whole send list.
    Sends {
        from: ProcessId,
        sends: Vec<(ProcessId, M)>,
    },
    Peer {
        pid: ProcessId,
        addr: SocketAddr,
    },
    Shutdown,
}

/// Inbox of every local actor: written by `spawn_as`, read by the send
/// thread (local routes) and by every reader thread (inbound frames).
type Inboxes<M> = BTreeMap<ProcessId, Sender<ProcEvent<M>>>;
/// Messages grouped per destination actor, awaiting `deliver_batches`.
type Batches<M> = BTreeMap<ProcessId, Vec<(ProcessId, M)>>;

/// Reassembly buffer of one inbound connection: the socket is read
/// straight into it and complete frames are handed out in place.
/// `buf[start..end]` is what has arrived and is not parsed yet.
struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    fn new() -> Self {
        FrameBuf { buf: vec![0; 64 * 1024], start: 0, end: 0 }
    }

    /// One `read` from `src` into the free tail (never empty, so `Ok(0)`
    /// means end of stream). Compacts only once the parsed prefix passes
    /// half the buffer, and doubles the buffer when the tail runs short
    /// (a frame larger than the buffer is pending).
    fn read_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start > self.buf.len() / 2 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < self.buf.len() / 4 {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Whether the last read ran into the end of the buffer.
    fn is_full(&self) -> bool {
        self.end == self.buf.len()
    }

    /// The next complete frame (everything after its `len`), or `None`
    /// until more bytes arrive. A `len` outside `FRAME_HEADER..=MAX_FRAME`
    /// is `InvalidData`: the stream is corrupt or hostile.
    fn next_frame(&mut self) -> std::io::Result<Option<&[u8]>> {
        let avail = self.end - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.start..self.start + 4].try_into().expect("4 bytes");
        let len = u32::from_be_bytes(len_bytes);
        if len < FRAME_HEADER as u32 || len > MAX_FRAME {
            return Err(ErrorKind::InvalidData.into());
        }
        if avail < 4 + len as usize {
            return Ok(None);
        }
        let at = self.start + 4;
        self.start = at + len as usize;
        Ok(Some(&self.buf[at..self.start]))
    }
}

/// The outgoing connection to one peer, with the coalescing send buffer.
struct OutConn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Encoded frames awaiting flush; retained (not reallocated) between
    /// flushes — this is the writev-style batch buffer.
    pending: Vec<u8>,
    /// Bytes of `pending` already written (partial-write resume point).
    woff: usize,
    /// Frames coalesced since the last flush attempt.
    frames: u64,
    next_connect: Instant,
}

impl OutConn {
    fn new(addr: SocketAddr) -> Self {
        OutConn {
            addr,
            stream: None,
            pending: Vec::new(),
            woff: 0,
            frames: 0,
            next_connect: Instant::now(),
        }
    }

    /// Drops everything queued and the connection with it: `woff` may sit
    /// inside a partially written frame, so only a fresh stream restarts
    /// the peer's parser on a frame boundary.
    fn shed(&mut self) {
        *self = OutConn { next_connect: self.next_connect, ..OutConn::new(self.addr) };
    }

    /// When the send thread must look at this peer again even if no
    /// command arrives: never while nothing is unflushed, else at the
    /// flush retry (connected, kernel buffer full) or the next connect.
    fn retry_at(&self, now: Instant) -> Option<Instant> {
        if self.pending.is_empty() {
            None
        } else if self.stream.is_some() {
            Some(now + FLUSH_RETRY)
        } else {
            Some(self.next_connect)
        }
    }
}

/// Per-process handle: inbox sender plus the worker thread.
type ProcHandle<M> = (Sender<ProcEvent<M>>, JoinHandle<()>);

/// A running socket-backed node: local actors, an acceptor with one
/// reader thread per inbound connection, and one send thread that owns
/// every outbound connection.
///
/// Dropping the handle without calling [`SocketNet::shutdown`] detaches
/// the worker threads; prefer an explicit shutdown.
pub struct SocketNet<A: Actor> {
    topology: Arc<RwLock<Topology>>,
    obs: Obs,
    local_addr: SocketAddr,
    io_tx: Sender<IoEvent<A::Msg>>,
    outputs_rx: Receiver<(ProcessId, A::Output)>,
    outputs_tx: Sender<(ProcessId, A::Output)>,
    procs: BTreeMap<ProcessId, ProcHandle<A::Msg>>,
    inboxes: Arc<RwLock<Inboxes<A::Msg>>>,
    io: Option<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    /// Tells the acceptor that the connection waking it is the last.
    stop: Arc<AtomicBool>,
    next_pid: u64,
    seed: u64,
}

impl<A> SocketNet<A>
where
    A: Actor + Send,
    A::Msg: WireCodec + Send,
    A::Output: Send,
{
    /// Binds a listener on an OS-assigned loopback port and starts the
    /// acceptor and send threads. `seed` feeds each local process'
    /// deterministic RNG stream (scheduling and the network remain
    /// nondeterministic).
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind.
    pub fn new(seed: u64) -> std::io::Result<Self> {
        Self::bind(seed, "127.0.0.1:0", Obs::new(), Arc::new(RwLock::new(Topology::new())))
    }

    /// Like [`new`](Self::new) but sharing an observability handle and a
    /// topology with other nodes — how an in-process fleet of
    /// `SocketNet`s forms one observable group (tests, the loopback
    /// smoke scenario). Separate OS processes each keep their own.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind.
    pub fn with_shared(
        seed: u64,
        obs: Obs,
        topology: Arc<RwLock<Topology>>,
    ) -> std::io::Result<Self> {
        Self::bind(seed, "127.0.0.1:0", obs, topology)
    }

    /// Binds on an explicit address (e.g. `"0.0.0.0:7400"`).
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind.
    pub fn bind(
        seed: u64,
        addr: &str,
        obs: Obs,
        topology: Arc<RwLock<Topology>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (io_tx, io_rx) = channel::<IoEvent<A::Msg>>();
        let (outputs_tx, outputs_rx) = channel();
        let inboxes = Arc::new(RwLock::new(Inboxes::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (o, t, i) = (obs.clone(), Arc::clone(&topology), Arc::clone(&inboxes));
        let io = std::thread::spawn(move || send_loop(io_rx, o, t, i));
        let (o, t, i, st) = (obs.clone(), Arc::clone(&topology), Arc::clone(&inboxes), Arc::clone(&stop));
        let acceptor = std::thread::spawn(move || accept_loop(listener, st, o, t, i));
        Ok(SocketNet {
            topology,
            obs,
            local_addr,
            io_tx,
            outputs_rx,
            outputs_tx,
            procs: BTreeMap::new(),
            inboxes,
            io: Some(io),
            acceptor: Some(acceptor),
            stop,
            next_pid: 0,
            seed,
        })
    }

    /// The address the listener is bound to (connect peers here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The observability handle shared by the transport threads and all
    /// local processes.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The topology handle, for sharing with other in-process nodes.
    pub fn topology_handle(&self) -> Arc<RwLock<Topology>> {
        Arc::clone(&self.topology)
    }

    /// Always refuses: schedule recording is a simulator-only facility.
    ///
    /// The socket transport's nondeterminism (thread interleavings,
    /// wall-clock timers, TCP readiness and kernel buffering) is owned
    /// by the OS — there is no decision stream to capture, so a
    /// "recording" here could never be replayed. Run the same actors
    /// under [`Sim`](crate::Sim) with
    /// [`SimConfig::record`](crate::SimConfig::record) to get a
    /// replayable [`ScheduleLog`](crate::ScheduleLog). The error type is
    /// shared with
    /// [`ThreadedNet::enable_record`](crate::threaded::ThreadedNet::enable_record)
    /// so tooling reports both live backends' refusals uniformly.
    pub fn enable_record(&mut self) -> Result<(), RecordUnsupported> {
        Err(RecordUnsupported::for_backend("socket"))
    }

    /// Declares where a remote process lives. Frames to processes with
    /// no local actor and no peer route are counted as
    /// `net.dropped_unroutable`.
    pub fn add_peer(&self, pid: ProcessId, addr: SocketAddr) {
        let _ = self.io_tx.send(IoEvent::Peer { pid, addr });
    }

    /// Spawns an actor on its own thread under the next free local
    /// process id.
    pub fn spawn(&mut self, actor: A) -> ProcessId {
        let pid = ProcessId::from_raw(self.next_pid);
        self.spawn_as(pid, actor)
    }

    /// Spawns with the process id visible to the constructor — the
    /// mirror of [`Sim::spawn_with`](crate::Sim::spawn_with).
    pub fn spawn_with(&mut self, f: impl FnOnce(ProcessId) -> A) -> ProcessId {
        let pid = ProcessId::from_raw(self.next_pid);
        let actor = f(pid);
        self.spawn_as(pid, actor)
    }

    /// Spawns an actor under an explicit process id — how cooperating OS
    /// processes claim their fleet-wide identities.
    pub fn spawn_as(&mut self, pid: ProcessId, actor: A) -> ProcessId {
        self.next_pid = self.next_pid.max(pid.raw() + 1);
        let site = SiteId::from_raw(pid.raw() as u32);
        let (inbox_tx, inbox_rx) = channel::<ProcEvent<A::Msg>>();
        self.inboxes.write().expect("inbox lock").insert(pid, inbox_tx.clone());
        let io_tx = self.io_tx.clone();
        let outputs_tx = self.outputs_tx.clone();
        let seed = self.seed ^ pid.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let obs = self.obs.clone();
        let handle = std::thread::spawn(move || {
            run_process(pid, site, actor, inbox_rx, io_tx, outputs_tx, seed, obs);
        });
        self.procs.insert(pid, (inbox_tx, handle));
        pid
    }

    /// Injects a message attributed to `from`.
    pub fn post(&self, from: ProcessId, to: ProcessId, msg: A::Msg) {
        let _ = self.io_tx.send(IoEvent::Sends { from, sends: vec![(to, msg)] });
    }

    /// Splits the network (asynchronously with respect to in-flight
    /// traffic). Only meaningful for nodes sharing a topology handle.
    pub fn partition(&self, groups: &[Vec<ProcessId>]) {
        self.topology.write().expect("topology lock").partition(groups);
    }

    /// Reunifies the network.
    pub fn heal(&self) {
        self.topology.write().expect("topology lock").heal();
    }

    /// Crashes a local process: its thread stops handling events.
    pub fn crash(&mut self, pid: ProcessId) {
        if let Some((inbox, _)) = self.procs.get(&pid) {
            let _ = inbox.send(ProcEvent::Crash);
        }
    }

    /// Outputs recorded so far without blocking.
    pub fn poll_outputs(&self) -> Vec<(ProcessId, A::Output)> {
        let mut out = Vec::new();
        while let Ok(o) = self.outputs_rx.try_recv() {
            out.push(o);
        }
        out
    }

    /// Blocks until `n` outputs have been produced or `timeout` elapses;
    /// returns whatever was collected.
    pub fn wait_outputs(&self, n: usize, timeout: Duration) -> Vec<(ProcessId, A::Output)> {
        let deadline = Instant::now() + timeout;
        let mut out = Vec::new();
        while out.len() < n {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.outputs_rx.recv_timeout(deadline - now) {
                Ok(o) => out.push(o),
                Err(_) => break,
            }
        }
        out
    }

    /// Stops every local process and every transport thread, joining all
    /// of them and closing all sockets.
    pub fn shutdown(mut self) {
        for (_, (inbox, _)) in self.procs.iter() {
            let _ = inbox.send(ProcEvent::Shutdown);
        }
        let _ = self.io_tx.send(IoEvent::Shutdown);
        // The acceptor sleeps in `accept`: raise the flag, then wake it
        // with a connection to its own listener.
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() });
        }
        let woken = TcpStream::connect_timeout(&wake, CONNECT_TIMEOUT).is_ok();
        for (_, (_, handle)) in std::mem::take(&mut self.procs) {
            let _ = handle.join();
        }
        if let Some(io) = self.io.take() {
            let _ = io.join();
        }
        if let Some(acceptor) = self.acceptor.take().filter(|_| woken) {
            let _ = acceptor.join();
        }
    }
}

impl<A: Actor> std::fmt::Debug for SocketNet<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketNet")
            .field("local_addr", &self.local_addr)
            .field("processes", &self.procs.len())
            .finish()
    }
}

/// The actor worker loop: identical contract to the threaded transport's,
/// except that (a) the clock handed to every [`Context`] is the shared
/// UNIX-epoch clock, and (b) inbound messages arrive in batches that one
/// wakeup processes end-to-end.
#[allow(clippy::too_many_arguments)]
fn run_process<A>(
    pid: ProcessId,
    site: SiteId,
    mut actor: A,
    inbox: Receiver<ProcEvent<A::Msg>>,
    io: Sender<IoEvent<A::Msg>>,
    outputs: Sender<(ProcessId, A::Output)>,
    seed: u64,
    obs: Obs,
) where
    A: Actor,
{
    let mut storage = Storage::new();
    let mut rng = DetRng::seed_from(seed);
    let mut next_timer: u64 = 0;
    let mut timers: BinaryHeap<Reverse<(Instant, u64, TimerKind)>> = BinaryHeap::new();
    let mut cancelled: Vec<TimerId> = Vec::new();

    macro_rules! with_ctx {
        ($body:expr) => {{
            // Every process in the fleet — including remote OS processes —
            // derives `ctx.now()` from the same UNIX-epoch clock, so
            // cross-process stage deltas in `vs_obs::latency` are
            // meaningful (the socket analogue of the threaded router's
            // shared epoch).
            let now = SimTime::from_micros(unix_now_us());
            let mut ctx = Context::new(pid, site, now, &mut storage, &mut rng, &mut next_timer);
            #[allow(clippy::redundant_closure_call)]
            ($body)(&mut actor, &mut ctx);
            let sends = std::mem::take(&mut ctx.sends);
            let set = std::mem::take(&mut ctx.timers_set);
            let cancel = std::mem::take(&mut ctx.timers_cancelled);
            let outs = std::mem::take(&mut ctx.outputs);
            drop(ctx);
            if !sends.is_empty() {
                // The whole activation's send list travels as one I/O
                // event; the send thread coalesces same-destination frames
                // into one buffer flush.
                let _ = io.send(IoEvent::Sends { from: pid, sends });
            }
            for (after, kind, id) in set {
                let at = Instant::now() + Duration::from_micros(after.as_micros());
                timers.push(Reverse((at, id.0, kind)));
            }
            cancelled.extend(cancel);
            for o in outs {
                let _ = outputs.send((pid, o));
            }
        }};
    }

    with_ctx!(|a: &mut A, ctx: &mut Context<'_, A::Msg, A::Output>| a.on_start(ctx));

    loop {
        // Fire due timers first.
        let now = Instant::now();
        while let Some(Reverse((at, id, kind))) = timers.peek().copied() {
            if at > now {
                break;
            }
            timers.pop();
            let tid = TimerId(id);
            if let Some(i) = cancelled.iter().position(|c| *c == tid) {
                cancelled.swap_remove(i);
                continue;
            }
            let at_us = unix_now_us();
            obs.with(|o| {
                o.metrics.set_gauge("time.now_us", at_us as i64);
                o.metrics.inc("net.timers_fired");
                o.journal.record(pid.raw(), at_us, EventKind::TimerFire { kind: kind.0 });
            });
            with_ctx!(|a: &mut A, ctx: &mut Context<'_, A::Msg, A::Output>| {
                a.on_timer(tid, kind, ctx)
            });
        }
        let wait = timers
            .peek()
            .map(|Reverse((at, _, _))| at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match inbox.recv_timeout(wait) {
            Ok(ProcEvent::Batch(batch)) => {
                // One wakeup handles the whole batch: the endpoint state
                // is locked into this thread once, not once per message.
                for (from, msg) in batch {
                    with_ctx!(|a: &mut A, ctx: &mut Context<'_, A::Msg, A::Output>| {
                        a.on_message(from, msg, ctx)
                    });
                }
            }
            Ok(ProcEvent::Crash) | Ok(ProcEvent::Shutdown) => return,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The send thread: owns every outbound connection, routes local traffic
/// straight into the actor inboxes and batches remote traffic per
/// destination. It sleeps on the command channel, with a deadline only
/// while some peer has unflushed bytes or a reconnect pending.
fn send_loop<M: WireCodec>(
    rx: Receiver<IoEvent<M>>,
    obs: Obs,
    topology: Arc<RwLock<Topology>>,
    inboxes: Arc<RwLock<Inboxes<M>>>,
) {
    let mut peers: BTreeMap<ProcessId, OutConn> = BTreeMap::new();
    let mut batches: Batches<M> = BTreeMap::new();

    loop {
        let now = Instant::now();
        let mut cmd = match peers.values().filter_map(|out| out.retry_at(now)).min() {
            None => match rx.recv() {
                Ok(ev) => Some(ev),
                Err(_) => return,
            },
            Some(at) => match rx.recv_timeout(at.saturating_duration_since(now)) {
                Ok(ev) => Some(ev),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return,
            },
        };
        let mut shutdown = false;
        // 1. Drain every queued command, then deliver each local
        //    destination's batch as one inbox event.
        {
            let inboxes = inboxes.read().expect("inbox lock");
            while let Some(ev) = cmd {
                match ev {
                    IoEvent::Peer { pid, addr } => {
                        peers.entry(pid).or_insert_with(|| OutConn::new(addr));
                    }
                    IoEvent::Sends { from, sends } => {
                        handle_sends(from, sends, &obs, &topology, &inboxes, &mut peers, &mut batches);
                    }
                    IoEvent::Shutdown => shutdown = true,
                }
                cmd = rx.try_recv().ok();
            }
            deliver_batches(&obs, &inboxes, &mut batches);
        }
        // 2. Flush per-peer pending buffers: one write per destination.
        for out in peers.values_mut() {
            flush_out(out, &obs);
        }
        obs.with(|o| o.metrics.set_gauge("time.now_us", unix_now_us() as i64));
        if shutdown {
            return;
        }
    }
}

/// The acceptor thread: sleeps in `accept` and gives every inbound
/// connection a reader thread of its own. On shutdown it closes each
/// connection (which ends its reader's `read`), joins the readers and
/// drops the listener.
fn accept_loop<M: WireCodec + Send + 'static>(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    obs: Obs,
    topology: Arc<RwLock<Topology>>,
    inboxes: Arc<RwLock<Inboxes<M>>>,
) {
    let mut readers: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, closer)) = conn.and_then(|s| Ok((s.try_clone()?, s))) else {
            std::thread::sleep(Duration::from_millis(1)); // e.g. out of descriptors
            continue;
        };
        readers.retain(|(_, reader)| !reader.is_finished());
        let (o, t, i) = (obs.clone(), Arc::clone(&topology), Arc::clone(&inboxes));
        readers.push((closer, std::thread::spawn(move || read_loop(stream, o, t, i))));
    }
    for (closer, reader) in readers {
        let _ = closer.shutdown(Shutdown::Both);
        let _ = reader.join();
    }
}

/// One inbound connection's reader thread: sleeps in `read`, and after
/// every read delivers the complete frames it produced, one batch per
/// destination actor; once it has drained a backlog it waits
/// `RX_COALESCE` before the next read. Once the connection is closed or corrupt it shuts
/// the socket down (the acceptor still holds a handle on it) and returns.
fn read_loop<M: WireCodec>(
    mut stream: TcpStream,
    obs: Obs,
    topology: Arc<RwLock<Topology>>,
    inboxes: Arc<RwLock<Inboxes<M>>>,
) {
    let mut frames = FrameBuf::new();
    let mut batches: Batches<M> = BTreeMap::new();
    // Frames and bytes taken since this reader last slept (in `read`, or
    // over `RX_COALESCE`).
    let (mut taken_frames, mut taken_bytes) = (0, 0);
    loop {
        taken_bytes += match frames.read_from(&mut stream) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        {
            let inboxes = inboxes.read().expect("inbox lock");
            let intact = parse_frames(&mut frames, &obs, &topology, &inboxes, &mut batches);
            taken_frames += batches.values().map(Vec::len).sum::<usize>();
            deliver_batches(&obs, &inboxes, &mut batches);
            if !intact {
                break;
            }
        }
        if frames.is_full() {
            continue; // the kernel holds more: take that first
        }
        if taken_frames >= RX_BACKLOG_FRAMES || taken_bytes >= RX_BACKLOG_BYTES {
            // Saturated: drain the connection in fewer, larger batches, at
            // a rate set by this wait and not by how fast the host wakes
            // threads up.
            std::thread::sleep(RX_COALESCE);
        }
        (taken_frames, taken_bytes) = (0, 0);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Routes one activation's send list: local destinations join the pass's
/// delivery batches; remote destinations get frames appended to their
/// peer's coalescing buffer.
fn handle_sends<M: WireCodec>(
    from: ProcessId,
    sends: Vec<(ProcessId, M)>,
    obs: &Obs,
    topology: &Arc<RwLock<Topology>>,
    inboxes: &Inboxes<M>,
    peers: &mut BTreeMap<ProcessId, OutConn>,
    batches: &mut Batches<M>,
) {
    let at_us = unix_now_us();
    for (to, msg) in sends {
        let reachable = topology.read().expect("topology lock").reachable(from, to);
        obs.with(|o| {
            o.metrics.inc("net.sent");
            o.journal
                .record(from.raw(), at_us, EventKind::MsgSend { from: from.raw(), to: to.raw() });
            if !reachable {
                o.metrics.inc("net.dropped_partition");
                o.journal.record(
                    from.raw(),
                    at_us,
                    EventKind::MsgDrop {
                        from: from.raw(),
                        to: to.raw(),
                        reason: DropReason::Partition,
                    },
                );
            }
        });
        if !reachable {
            continue;
        }
        if inboxes.contains_key(&to) {
            batches.entry(to).or_default().push((from, msg));
        } else if let Some(out) = peers.get_mut(&to) {
            if out.pending.len() - out.woff > PENDING_CAP {
                // Backpressure: the peer is not draining; shed the whole
                // backlog and let the protocol's repair path recover.
                out.shed();
                obs.with(|o| o.metrics.inc("net.dropped_backpressure"));
            }
            encode_frame(&mut out.pending, from, to, at_us, &msg);
            out.frames += 1;
        } else {
            obs.with(|o| o.metrics.inc("net.dropped_unroutable"));
        }
    }
}

/// Appends one `[len][from][to][sent_us][payload]` frame to `buf`.
fn encode_frame<M: WireCodec>(buf: &mut Vec<u8>, from: ProcessId, to: ProcessId, at_us: u64, msg: &M) {
    let len_at = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    buf.extend_from_slice(&from.raw().to_be_bytes());
    buf.extend_from_slice(&to.raw().to_be_bytes());
    buf.extend_from_slice(&at_us.to_be_bytes());
    msg.encode_into(buf);
    let len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
}

/// Files every complete frame in `frames` into `batches`. Returns false
/// if the stream is corrupt (the connection is then dropped).
fn parse_frames<M: WireCodec>(
    frames: &mut FrameBuf,
    obs: &Obs,
    topology: &Arc<RwLock<Topology>>,
    inboxes: &Inboxes<M>,
    batches: &mut Batches<M>,
) -> bool {
    loop {
        let frame = match frames.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return true,
            Err(_) => {
                obs.with(|o| o.metrics.inc("net.decode_errors"));
                return false;
            }
        };
        let mut r = WireReader::new(frame);
        let (from, to, sent_us) = match (r.u64(), r.u64(), r.u64()) {
            (Ok(f), Ok(t), Ok(s)) => (ProcessId::from_raw(f), ProcessId::from_raw(t), s),
            _ => {
                obs.with(|o| o.metrics.inc("net.decode_errors"));
                return false;
            }
        };
        let msg = match M::decode_from(&mut r) {
            Ok(m) => m,
            Err(_) => {
                obs.with(|o| o.metrics.inc("net.decode_errors"));
                continue; // skip the frame, keep the stream
            }
        };
        if !inboxes.contains_key(&to) {
            obs.with(|o| o.metrics.inc("net.dropped_unroutable"));
            continue;
        }
        if !topology.read().expect("topology lock").reachable(from, to) {
            obs.with(|o| o.metrics.inc("net.dropped_partition"));
            continue;
        }
        // Real one-way wire time, measurable because sender and receiver
        // share the UNIX-epoch clock (same host or synchronized hosts).
        let delay = unix_now_us().saturating_sub(sent_us);
        obs.with(|o| o.metrics.observe("net.link_delay_us", delay));
        batches.entry(to).or_default().push((from, msg));
    }
}

/// Hands each destination's accumulated batch to its actor thread as one
/// event, with one observability-lock acquisition per batch.
fn deliver_batches<M>(obs: &Obs, inboxes: &Inboxes<M>, batches: &mut Batches<M>) {
    let at_us = unix_now_us();
    for (&to, batch) in batches.iter_mut() {
        if batch.is_empty() {
            continue;
        }
        let n = batch.len() as u64;
        let inbox = match inboxes.get(&to) {
            Some(i) => i,
            None => {
                batch.clear();
                continue;
            }
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
                    o.journal.record(
                        from,
                        at_us,
                        EventKind::MsgDrop { from, to: to.raw(), reason: DropReason::Crashed },
                    );
                }
            }
        });
    }
    batches.retain(|_, b| b.capacity() > 0 && b.len() < 1024); // keep warm, bounded
}

/// Connects (rate-limited) and writes as much of the pending buffer as
/// the socket accepts: the whole coalesced batch goes out in one write
/// when the kernel buffer allows.
fn flush_out(out: &mut OutConn, obs: &Obs) {
    if out.pending.is_empty() {
        return; // a completed flush leaves `pending` empty and `woff` 0
    }
    if out.stream.is_none() {
        let now = Instant::now();
        if now < out.next_connect {
            return;
        }
        out.next_connect = now + CONNECT_RETRY;
        match TcpStream::connect_timeout(&out.addr, CONNECT_TIMEOUT) {
            Ok(s) => {
                let _ = s.set_nonblocking(true);
                let _ = s.set_nodelay(true);
                out.stream = Some(s);
            }
            Err(_) => {
                // Unreachable peer: shed the batch, protocols repair.
                obs.with(|o| o.metrics.inc("net.dropped_unreachable"));
                out.shed();
                return;
            }
        }
    }
    if out.frames > 0 {
        obs.with(|o| o.metrics.observe("net.tx_batch_frames", out.frames));
        out.frames = 0;
    }
    let stream = out.stream.as_mut().expect("stream connected");
    loop {
        match stream.write(&out.pending[out.woff..]) {
            Ok(0) => break,
            Ok(n) => {
                out.woff += n;
                if out.woff == out.pending.len() {
                    // Fully flushed: retain the allocation for the next
                    // batch — this buffer is the send path's pool.
                    out.pending.clear();
                    out.woff = 0;
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                // Broken connection: drop it and reconnect on the next
                // flush; unwritten frames are shed (repair recovers).
                obs.with(|o| o.metrics.inc("net.dropped_unreachable"));
                out.shed();
                break;
            }
        }
    }
    if out.woff > 512 * 1024 {
        out.pending.drain(..out.woff);
        out.woff = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

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

    /// Two nodes, two OS sockets, full round trips.
    #[test]
    fn messages_round_trip_over_real_tcp() {
        let mut a: SocketNet<Echo> = SocketNet::new(42).unwrap();
        let mut b: SocketNet<Echo> = SocketNet::new(43).unwrap();
        let pa = a.spawn(Echo);
        let pb = b.spawn_as(ProcessId::from_raw(1), Echo);
        a.add_peer(pb, b.local_addr());
        b.add_peer(pa, a.local_addr());
        a.post(pa, pb, 3);
        // 3 delivered at b, 2 at a, 1 at b, 0 at a — two per node.
        let outs_b = b.wait_outputs(2, Duration::from_secs(10));
        let outs_a = a.wait_outputs(2, Duration::from_secs(10));
        assert_eq!(outs_b.len(), 2, "b sees 3 and 1");
        assert_eq!(outs_a.len(), 2, "a sees 2 and 0");
        // A batch is counted after it is handed over, so the outputs can
        // be seen a moment before the count.
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.obs().counter("net.delivered") < 2 {
            assert!(Instant::now() < deadline, "deliveries must be counted");
            std::thread::sleep(Duration::from_millis(1));
        }
        a.shutdown();
        b.shutdown();
    }

    /// Local destinations short-circuit the sockets but still batch.
    #[test]
    fn local_delivery_needs_no_peer_route() {
        let mut net: SocketNet<Echo> = SocketNet::new(44).unwrap();
        let a = net.spawn(Echo);
        let b = net.spawn(Echo);
        net.post(a, b, 2);
        let outs = net.wait_outputs(3, Duration::from_secs(10));
        assert_eq!(outs.len(), 3, "2,1,0 bounce locally");
        let snap = net.obs().metrics_snapshot();
        assert!(snap.histogram("net.rx_batch_msgs").is_some(), "batches are measured");
        net.shutdown();
    }

    /// A shared topology partitions an in-process fleet.
    #[test]
    fn partition_blocks_and_heal_restores() {
        let mut a: SocketNet<Echo> = SocketNet::new(45).unwrap();
        let mut b: SocketNet<Echo> =
            SocketNet::with_shared(46, a.obs().clone(), a.topology_handle()).unwrap();
        let pa = a.spawn(Echo);
        let pb = b.spawn_as(ProcessId::from_raw(1), Echo);
        a.add_peer(pb, b.local_addr());
        b.add_peer(pa, a.local_addr());
        a.partition(&[vec![pa], vec![pb]]);
        a.post(pa, pb, 0);
        let outs = b.wait_outputs(1, Duration::from_millis(300));
        assert!(outs.is_empty(), "partitioned message must not arrive");
        a.heal();
        a.post(pa, pb, 0);
        let outs = b.wait_outputs(1, Duration::from_secs(10));
        assert_eq!(outs.len(), 1);
        a.shutdown();
        b.shutdown();
    }

    /// The refusal carries the socket backend's name through the shared
    /// error type.
    #[test]
    fn enable_record_refuses_with_backend_name() {
        let mut net: SocketNet<Echo> = SocketNet::new(47).unwrap();
        let err = net.enable_record().unwrap_err();
        assert_eq!(err.backend(), "socket");
        assert!(err.to_string().contains("socket transport"));
        net.shutdown();
    }

    /// Crashed processes silently drop traffic, like the other backends.
    #[test]
    fn crash_silences_a_process() {
        let mut net: SocketNet<Echo> = SocketNet::new(48).unwrap();
        let a = net.spawn(Echo);
        let b = net.spawn(Echo);
        net.crash(b);
        std::thread::sleep(Duration::from_millis(100));
        net.post(a, b, 5);
        let outs = net.wait_outputs(1, Duration::from_millis(300));
        assert!(outs.is_empty());
        net.shutdown();
    }

    /// Unroutable destinations are shed and counted, not buffered forever.
    #[test]
    fn unroutable_sends_are_counted() {
        let net: SocketNet<Echo> = {
            let mut n = SocketNet::new(49).unwrap();
            let a = n.spawn(Echo);
            n.post(a, ProcessId::from_raw(99), 1);
            n
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while net.obs().counter("net.dropped_unroutable") == 0 {
            assert!(Instant::now() < deadline, "drop must be counted");
            std::thread::sleep(Duration::from_millis(5));
        }
        net.shutdown();
    }

    fn pid(raw: u64) -> ProcessId {
        ProcessId::from_raw(raw)
    }

    /// Feeds `bytes` to the buffer the way a socket would (`&[u8]` is a
    /// `Read`): the splitter's pure push side.
    fn push(frames: &mut FrameBuf, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            frames.read_from(&mut bytes).expect("reading a slice cannot fail");
        }
    }

    /// Decodes the payload of every frame that is complete so far.
    fn drain(frames: &mut FrameBuf, out: &mut Vec<Bytes>) {
        while let Some(frame) = frames.next_frame().expect("valid len") {
            let mut r = WireReader::new(&frame[FRAME_HEADER..]);
            out.push(Bytes::decode_from(&mut r).expect("payload"));
        }
    }

    /// A small message, a 16 KiB one and an empty (heartbeat-sized) one,
    /// split at every byte of the stream, through one long-lived buffer so
    /// frames start at many offsets and compaction runs.
    #[test]
    fn frame_buf_yields_the_same_messages_at_every_split() {
        let msgs = [
            Bytes::from(vec![0xA5; 96]),
            (0..16 * 1024).map(|i| i as u8).collect::<Bytes>(),
            Bytes::new(),
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            encode_frame(&mut stream, pid(1), pid(2), 7, m);
        }
        let mut frames = FrameBuf::new();
        for cut in 0..=stream.len() {
            let mut got = Vec::new();
            push(&mut frames, &stream[..cut]);
            drain(&mut frames, &mut got);
            push(&mut frames, &stream[cut..]);
            drain(&mut frames, &mut got);
            assert_eq!(got, msgs, "split at byte {cut}");
        }
        // A frame larger than the buffer arrives in pieces: the buffer grows.
        let big = Bytes::from(vec![7u8; 300 * 1024]);
        stream.clear();
        encode_frame(&mut stream, pid(1), pid(2), 7, &big);
        let mut got = Vec::new();
        for piece in stream.chunks(7001) {
            push(&mut frames, piece);
            drain(&mut frames, &mut got);
        }
        assert_eq!(got, [big]);
    }

    /// Sinks payloads, reporting each one's length.
    struct Sink;
    impl Actor for Sink {
        type Msg = Bytes;
        type Output = usize;
        fn on_message(&mut self, _from: ProcessId, msg: Bytes, ctx: &mut Context<'_, Bytes, usize>) {
            ctx.output(msg.len());
        }
    }

    /// A `len` below the header size or above `MAX_FRAME` is refused by the
    /// splitter, and the node closes the connection it came in on.
    #[test]
    fn bad_frame_len_closes_the_connection() {
        for len in [FRAME_HEADER as u32 - 1, MAX_FRAME + 1] {
            let mut frames = FrameBuf::new();
            push(&mut frames, &len.to_be_bytes());
            assert!(frames.next_frame().is_err(), "len {len}");

            let mut net: SocketNet<Sink> = SocketNet::new(50).unwrap();
            net.spawn(Sink);
            let mut raw = TcpStream::connect(net.local_addr()).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            raw.write_all(&len.to_be_bytes()).unwrap();
            assert!(matches!(raw.read(&mut [0u8; 1]), Ok(0)), "len {len}: connection closed");
            assert_eq!(net.obs().counter("net.decode_errors"), 1);
            net.shutdown();
        }
    }

    /// A backlog shed at `PENDING_CAP` in the middle of a partially written
    /// frame must not leave the peer parsing payload bytes as a length. A
    /// reaches B through a relay that starts out stalled (connections queue
    /// in the kernel, nothing is read).
    #[test]
    fn backpressure_shed_resyncs_on_a_frame_boundary() {
        let mut a: SocketNet<Sink> = SocketNet::new(60).unwrap();
        let mut b: SocketNet<Sink> =
            SocketNet::with_shared(61, a.obs().clone(), a.topology_handle()).unwrap();
        let pa = a.spawn(Sink);
        let pb = b.spawn_as(pid(1), Sink);
        let relay = TcpListener::bind("127.0.0.1:0").unwrap();
        let relay_addr = relay.local_addr().unwrap();
        a.add_peer(pb, relay_addr);

        // 1 MiB at a time, each batch flushed before the next is posted, so
        // the backlog can pass PENDING_CAP only behind a partial write: the
        // kernel's loopback buffers are full and `woff` sits inside a frame.
        // As a length, payload bytes read 0xFFFFFFFF > MAX_FRAME.
        let chunk = Bytes::from(vec![0xFF; 64 * 1024]);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut posted = 0;
        while a.obs().counter("net.dropped_backpressure") == 0 {
            for _ in 0..16 {
                a.post(pa, pb, chunk.clone());
            }
            posted += 16;
            while a.obs().counter("net.sent") < posted {
                assert!(Instant::now() < deadline, "the send thread must keep up");
                std::thread::yield_now();
            }
            assert!(posted < 16 * 64, "the stalled relay must overflow PENDING_CAP");
        }

        // Un-stall: every connection queued at the relay, and every later
        // one, is copied byte for byte into a connection of its own to B.
        let done = Arc::new(AtomicBool::new(false));
        let (relay_done, b_addr) = (Arc::clone(&done), b.local_addr());
        let relay_thread = std::thread::spawn(move || {
            let mut copies = Vec::new();
            for conn in relay.incoming() {
                if relay_done.load(Ordering::SeqCst) {
                    break;
                }
                let (mut from_a, mut to_b) = (conn.unwrap(), TcpStream::connect(b_addr).unwrap());
                copies.push(std::thread::spawn(move || {
                    let _ = std::io::copy(&mut from_a, &mut to_b);
                }));
            }
            for copy in copies {
                copy.join().unwrap();
            }
        });
        let marker = Bytes::from_static(b"end");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            a.post(pa, pb, marker.clone());
            let outs = b.wait_outputs(64, Duration::from_millis(50));
            if outs.iter().any(|(_, len)| *len == marker.len()) {
                break;
            }
            assert!(Instant::now() < deadline, "messages after the shed must arrive");
        }
        assert_eq!(a.obs().counter("net.decode_errors"), 0, "B never lost the frame boundary");

        a.shutdown(); // closes A's connections, which ends the copies
        done.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(relay_addr).unwrap());
        relay_thread.join().unwrap();
        b.shutdown();
    }

    /// Every read of a stream written eight frames at a time finds a
    /// backlog, so consecutive batches are at least `RX_COALESCE` apart
    /// however closely the writes follow each other; the unloaded case is
    /// `idle_ping_pong_hop_follows_the_link_not_a_timer`.
    #[test]
    fn a_backlogged_connection_is_drained_in_coalesced_batches() {
        let mut net: SocketNet<Sink> = SocketNet::new(57).unwrap();
        let p = net.spawn(Sink);
        let mut chunk = Vec::new();
        for _ in 0..2 * RX_BACKLOG_FRAMES {
            encode_frame(&mut chunk, pid(9), p, unix_now_us(), &Bytes::from_static(b"x"));
        }
        let mut raw = TcpStream::connect(net.local_addr()).unwrap();
        let started = Instant::now();
        for _ in 0..300 {
            raw.write_all(&chunk).unwrap();
            std::thread::sleep(RX_COALESCE / 8);
        }
        let sent = 300 * 2 * RX_BACKLOG_FRAMES;
        assert_eq!(net.wait_outputs(sent, Duration::from_secs(30)).len(), sent);
        let elapsed = started.elapsed();
        let snap = net.obs().metrics_snapshot();
        let batches = snap.histogram("net.rx_batch_msgs").expect("batches are measured").count();
        assert!(
            RX_COALESCE * (batches as u32 - 1) <= elapsed,
            "{batches} batches in {elapsed:?}"
        );
        net.shutdown();
    }

    /// Holds a token, so the test can see the actor — and with it the actor
    /// thread — gone.
    struct Holder(#[allow(dead_code)] Arc<()>);
    impl Actor for Holder {
        type Msg = u32;
        type Output = u32;
        fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Context<'_, u32, u32>) {
            ctx.output(msg);
        }
    }

    /// `shutdown` returns with the actor gone, the listener port refusing
    /// connections, and both an inbound and an outbound connection closed.
    #[test]
    fn shutdown_joins_every_thread_and_closes_every_socket() {
        let token = Arc::new(());
        let mut net: SocketNet<Holder> = SocketNet::new(51).unwrap();
        let p = net.spawn(Holder(Arc::clone(&token)));
        let addr = net.local_addr();
        // Outbound: a raw listener stands in for a peer.
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        net.add_peer(pid(9), peer.local_addr().unwrap());
        net.post(p, pid(9), 1);
        let (mut outbound, _) = peer.accept().unwrap();
        // Inbound: a raw connection whose reader thread has provably started.
        let mut inbound = TcpStream::connect(addr).unwrap();
        let mut frame = Vec::new();
        encode_frame(&mut frame, pid(9), p, unix_now_us(), &5u32);
        inbound.write_all(&frame).unwrap();
        assert_eq!(net.wait_outputs(1, Duration::from_secs(10)), vec![(p, 5)]);

        net.shutdown();

        assert_eq!(Arc::strong_count(&token), 1, "the actor thread is gone");
        assert!(TcpStream::connect(addr).is_err(), "the listener is closed");
        let mut rest = Vec::new();
        for stream in [&mut inbound, &mut outbound] {
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            stream.read_to_end(&mut rest).expect("the node closed its end");
        }
    }

    /// A node whose neighbour went away without `shutdown`, and which also
    /// routes to an address nobody listens on, keeps serving a third node.
    #[test]
    fn a_vanished_neighbour_does_not_stall_the_others() {
        let mut a: SocketNet<Echo> = SocketNet::new(52).unwrap();
        let mut b: SocketNet<Echo> = SocketNet::new(53).unwrap();
        let mut c: SocketNet<Echo> = SocketNet::new(54).unwrap();
        let pa = a.spawn(Echo);
        let pb = b.spawn_as(pid(1), Echo);
        let pc = c.spawn_as(pid(2), Echo);
        a.add_peer(pb, b.local_addr());
        b.add_peer(pa, a.local_addr());
        b.add_peer(pc, c.local_addr());
        c.add_peer(pb, b.local_addr());
        a.post(pa, pb, 0);
        assert_eq!(b.wait_outputs(1, Duration::from_secs(10)), vec![(pb, (pa, 0))]);
        drop(a);
        let nobody = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        b.add_peer(pid(9), nobody);
        b.post(pb, pid(9), 1);
        b.post(pb, pc, 5);
        assert_eq!(c.wait_outputs(3, Duration::from_secs(10)).len(), 3, "c sees 5, 3, 1");
        assert_eq!(b.wait_outputs(3, Duration::from_secs(10)).len(), 3, "b sees 4, 2, 0");
        assert_eq!(b.obs().counter("net.dropped_unreachable"), 1, "the refused connect is counted");
        b.shutdown();
        c.shutdown();
    }

    /// Bounces a countdown, reporting the UNIX-clock instant of each arrival.
    struct Bounce;
    impl Actor for Bounce {
        type Msg = u32;
        type Output = u64;
        fn on_message(&mut self, from: ProcessId, msg: u32, ctx: &mut Context<'_, u32, u64>) {
            ctx.output(ctx.now().as_micros());
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    /// Loose regression guard on the receive wake-up: the median hop of an
    /// idle 200-round ping-pong was ~590 µs under the 500 µs park and is
    /// ~15 µs with blocking readers; 250 µs leaves >10x slack both ways.
    #[test]
    fn idle_ping_pong_hop_follows_the_link_not_a_timer() {
        let mut a: SocketNet<Bounce> = SocketNet::new(55).unwrap();
        let mut b: SocketNet<Bounce> = SocketNet::new(56).unwrap();
        let pa = a.spawn(Bounce);
        let pb = b.spawn_as(pid(1), Bounce);
        a.add_peer(pb, b.local_addr());
        b.add_peer(pa, a.local_addr());
        a.post(pa, pb, 399);
        let mut at: Vec<u64> = Vec::new();
        for net in [&a, &b] {
            at.extend(net.wait_outputs(200, Duration::from_secs(30)).into_iter().map(|(_, t)| t));
        }
        assert_eq!(at.len(), 400, "200 rounds complete");
        at.sort_unstable();
        let mut hops: Vec<u64> = at.windows(2).map(|w| w[1] - w[0]).collect();
        hops.sort_unstable();
        let median = hops[hops.len() / 2];
        assert!(median < 250, "median hop {median} us");
        a.shutdown();
        b.shutdown();
    }
}
