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
//! A [`SocketNet`] is the [`live`](crate::live) actor host with a TCP
//! uplink. What is decided here is how frames leave and enter the node:
//! the router (the "send thread") owns every outbound connection, and a
//! blocking acceptor thread gives every inbound connection a blocking
//! reader thread. There is no epoll dependency and no polling: a reader
//! sleeps in `read` and the kernel wakes it when bytes arrive, so receive
//! latency follows the link and not a timer. The send thread uses a timed
//! wait only while some peer has unflushed bytes (full kernel buffer) or a
//! reconnect pending, so an idle node makes no periodic wake-ups.
//!
//! **Send batching**: the send thread encodes frames for the same
//! destination back-to-back into one per-peer pending buffer and flushes
//! it with a single `write` per pass (a writev-style coalesce — the buffer
//! is retained and reused between flushes, so steady state allocates
//! nothing). The `net.tx_batch_frames` histogram records how many frames
//! each flush coalesced. A peer that stops draining is shed at
//! `PENDING_CAP`: its backlog is dropped *with the connection*, so the
//! next frame opens a fresh stream on a frame boundary.
//!
//! **Receive batching**: a reader `read`s straight into its connection's
//! reassembly buffer, parses every complete frame the read produced and
//! hands them to the host's inboxes, one batch per destination actor
//! (`net.rx_batch_msgs` records the batch sizes). Frames carry their send
//! instant, so `net.link_delay_us` is measured receiver-side. A reader
//! that takes `RX_BACKLOG_FRAMES` frames or `RX_BACKLOG_BYTES` off its
//! connection in one go found a backlog — the peer sends faster than this
//! node drains — and lets the connection fill for `RX_COALESCE` before it
//! reads again (interrupt moderation: event driven while unloaded,
//! coalescing while saturated). Every thread wake-up costs tens of
//! microseconds on a virtual CPU, and that cost follows the host's load;
//! without the wait a saturated group's throughput is a chain of such
//! wake-ups and varies with the host from one run to the next. An
//! unloaded connection never takes the wait.
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

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vs_obs::Obs;

use crate::actor::Actor;
use crate::id::ProcessId;
use crate::live::{deliver_batches, unix_now_us, Batches, Hub, Inboxes, LiveNet, Uplink};
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

/// The TCP uplink's router half: every outbound connection, keyed by the
/// remote process it leads to.
#[derive(Default)]
pub struct TcpUplink {
    peers: BTreeMap<ProcessId, OutConn>,
}

/// The TCP uplink's receive half as the handle sees it: the listener's
/// address and the acceptor thread, which owns the reader threads.
pub struct TcpIngress {
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    /// Tells the acceptor that the connection waking it is the last.
    stop: Arc<AtomicBool>,
}

/// A running socket-backed node: a [`LiveNet`] with a [`TcpUplink`].
pub type SocketNet<A> = LiveNet<A, TcpUplink>;

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
        let hub = Arc::new(Hub { obs, topology, inboxes: RwLock::default() });
        let stop = Arc::new(AtomicBool::new(false));
        let (h, st) = (Arc::clone(&hub), Arc::clone(&stop));
        let acceptor = std::thread::spawn(move || accept_loop(listener, st, h));
        let ingress = TcpIngress { local_addr, acceptor, stop };
        Ok(LiveNet::start(seed, hub, TcpUplink::default(), ingress))
    }

    /// The address the listener is bound to (connect peers here).
    pub fn local_addr(&self) -> SocketAddr {
        self.ingress.local_addr
    }

    /// Declares where a remote process lives. Frames to processes with
    /// no local actor and no peer route are counted as
    /// `net.dropped_unroutable`.
    pub fn add_peer(&self, pid: ProcessId, addr: SocketAddr) {
        self.add_route(pid, addr);
    }
}

impl<M: WireCodec> Uplink<M> for TcpUplink {
    const NAME: &'static str = "socket";
    type Ingress = TcpIngress;

    fn add_route(&mut self, pid: ProcessId, addr: SocketAddr) {
        self.peers.entry(pid).or_insert_with(|| OutConn::new(addr));
    }

    /// Appends a frame to the peer's coalescing buffer.
    fn forward(&mut self, from: ProcessId, to: ProcessId, at_us: u64, msg: &M, obs: &Obs) -> bool {
        let Some(out) = self.peers.get_mut(&to) else {
            return false;
        };
        if out.pending.len() - out.woff > PENDING_CAP {
            // Backpressure: the peer is not draining; shed the whole
            // backlog and let the protocol's repair path recover.
            out.shed();
            obs.with(|o| o.metrics.inc("net.dropped_backpressure"));
        }
        encode_frame(&mut out.pending, from, to, at_us, msg);
        out.frames += 1;
        true
    }

    /// Flushes per-peer pending buffers: one write per destination.
    fn flush(&mut self, obs: &Obs) -> Option<Instant> {
        for out in self.peers.values_mut() {
            flush_out(out, obs);
        }
        let now = Instant::now();
        self.peers.values().filter_map(|out| out.retry_at(now)).min()
    }

    fn close(ingress: TcpIngress) {
        // The acceptor sleeps in `accept`: raise the flag, then wake it
        // with a connection to its own listener.
        ingress.stop.store(true, Ordering::SeqCst);
        let mut wake = ingress.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() });
        }
        if TcpStream::connect_timeout(&wake, CONNECT_TIMEOUT).is_ok() {
            let _ = ingress.acceptor.join();
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
    hub: Arc<Hub<M>>,
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
        let h = Arc::clone(&hub);
        readers.push((closer, std::thread::spawn(move || read_loop(stream, h))));
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
fn read_loop<M: WireCodec>(mut stream: TcpStream, hub: Arc<Hub<M>>) {
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
            let inboxes = hub.inboxes.read().expect("inbox lock");
            let intact = parse_frames(&mut frames, &hub, &inboxes, &mut batches);
            taken_frames += batches.values().map(Vec::len).sum::<usize>();
            deliver_batches(&hub.obs, &inboxes, &mut batches);
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
    hub: &Hub<M>,
    inboxes: &Inboxes<M>,
    batches: &mut Batches<M>,
) -> bool {
    let obs = &hub.obs;
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
        if !hub.topology.read().expect("topology lock").reachable(from, to) {
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
    use crate::actor::Context;
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
