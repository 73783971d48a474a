//! The group member every GCS workload runs: a [`GcsEndpoint`] wrapped in
//! the load generator, the sample recorder and (in the traced phase) the
//! timers around the calls into the endpoint and the wire codec.
//!
//! The load is generated inline in the member's own actor callbacks — no
//! client threads or connections beyond the group's own links.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use vs_evs::Writer;
use vs_gcs::{GcsConfig, GcsEndpoint, GcsEvent, Wire};
use vs_net::{Actor, Context, ProcessId, SimDuration, TimerId, TimerKind, WireCodec};

use crate::common::{unix_ns, DeliveredRange, Gen, Report};

/// The member's own pacing timer; the endpoint ignores kinds it does not
/// know (its tick is kind 1).
const PACE: TimerKind = TimerKind(7001);
/// Submit stamp, sequence number, in-window flag, filler length prefix.
const HEADER: usize = 8 + 8 + 1 + 8;
/// One inbound message in this many is timed through the codec.
const CODEC_SAMPLE_EVERY: u64 = 64;

/// Room reserved up front for a node process's sample vectors (a 60 s
/// window at the baseline's rate fits). Address space only, pages are
/// touched as samples arrive; without it the vectors double by copying
/// inside the window and `peak_rss_mb` jumps with whichever doubling the
/// run's count happens to cross.
const WALL_SAMPLES: usize = 1 << 21;

/// How a member offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Keep `window` multicasts outstanding against the own stability cut.
    Closed { window: u64 },
    /// Multicast on a schedule fixed in advance, whatever the group does:
    /// gaps drawn by the seeded generator, uniform between half and one and
    /// a half times `period_ns`. A message is timed from the instant it was
    /// due, not from when it left. (A strictly periodic schedule would pin
    /// each run to one phase between the members' send instants and the
    /// I/O threads' park cycles, and measure that phase.)
    Paced { period_ns: u64 },
}

/// What bounds the measured messages.
#[derive(Debug, Clone, Copy)]
pub enum Work {
    /// Messages submitted inside the window published in [`Control`].
    Timed,
    /// `warm` unmeasured messages, then — once released — `count` measured.
    Fixed { warm: u64, count: u64 },
}

/// Which clock stamps the samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The shared UNIX clock (socket fleets).
    Wall,
    /// The simulator's virtual clock.
    Virtual,
}

/// Everything a member needs to know about the run.
#[derive(Debug, Clone)]
pub struct Spec {
    pub group: usize,
    pub load: Load,
    pub work: Work,
    pub clock: Clock,
    pub payload: usize,
    pub config: GcsConfig,
    pub seed: u64,
    /// Forward endpoint events as actor outputs (for the offline checker).
    pub record: bool,
    /// Print `FORMED`/`SERVING`/`DONE` lines (node processes).
    pub announce: bool,
}

/// State shared between the members of one process and whatever drives
/// them (the node's main thread, or the simulator loop).
#[derive(Debug)]
pub struct Control {
    /// Measured window in clock nanoseconds (`u64::MAX` until published).
    pub t0_ns: AtomicU64,
    pub t1_ns: AtomicU64,
    /// [`Work::Fixed`]: the measured messages may go.
    pub go: AtomicBool,
    /// The traced phase is on.
    pub trace_on: AtomicBool,
    /// When the last member so far installed the full view / first held a
    /// delivery from every other member.
    pub formed_last_ns: AtomicU64,
    pub serving_last_ns: AtomicU64,
    /// In-window remote deliveries so far, all members of this process.
    pub flagged_deliveries: AtomicU64,
    pub done: AtomicU64,
    /// Every member is done: publish the reports.
    pub collect: AtomicBool,
    pub reports: Mutex<Vec<Report>>,
}

impl Control {
    pub fn new() -> Arc<Control> {
        Arc::new(Control {
            t0_ns: AtomicU64::new(u64::MAX),
            t1_ns: AtomicU64::new(u64::MAX),
            go: AtomicBool::new(false),
            trace_on: AtomicBool::new(false),
            formed_last_ns: AtomicU64::new(0),
            serving_last_ns: AtomicU64::new(0),
            flagged_deliveries: AtomicU64::new(0),
            done: AtomicU64::new(0),
            collect: AtomicBool::new(false),
            reports: Mutex::new(Vec::new()),
        })
    }
}

/// The filler bytes of `sender`'s payloads: every member can rebuild them
/// from the seed, which is what lets receivers verify payload integrity.
fn filler(seed: u64, sender: u64, payload: usize) -> Vec<u8> {
    Gen::new(seed, 0x5eed_0000 + sender).bytes(payload.saturating_sub(HEADER))
}

/// Traced-phase accumulators.
#[derive(Debug, Default)]
struct Trace {
    mcast_ns: u64,
    mcast_calls: u64,
    on_message_ns: u64,
    on_message_calls: u64,
    on_timer_ns: u64,
    on_timer_calls: u64,
    inbound: u64,
    inbound_app: u64,
    inbound_heartbeat: u64,
    inbound_order: u64,
    codec_samples: u64,
    encode_ns: u64,
    decode_ns: u64,
    encoded_bytes: u64,
    scratch: Vec<u8>,
}

pub struct Member {
    me: ProcessId,
    ep: GcsEndpoint<Bytes>,
    spec: Spec,
    ctl: Arc<Control>,
    fillers: Vec<Vec<u8>>,
    /// Draws the paced schedule's gaps.
    schedule: Gen,
    seq: u64,
    stable: u64,
    /// Submit stamp and in-window flag of own messages `stable+1..=seq`.
    inflight: VecDeque<(u64, bool)>,
    own_window: Option<(u64, u64)>,
    formed: bool,
    serving: bool,
    done: bool,
    published: bool,
    next_due_ns: u64,
    last_from: BTreeMap<u64, u64>,
    delivered: BTreeMap<u64, DeliveredRange>,
    delivered_untraced: u64,
    delivered_traced: u64,
    view_changes_after_formation: u64,
    bad_payloads: u64,
    delivery_ns: Vec<u64>,
    /// Wall-clock fleets: when each in-window delivery happened.
    delivered_at_ns: Vec<u64>,
    stable_ns: Vec<u64>,
    lag_ns: Vec<u64>,
    tr: Trace,
}

type Ctx<'a> = Context<'a, Wire<Bytes>, GcsEvent<()>>;

impl Member {
    pub fn new(me: ProcessId, spec: Spec, ctl: Arc<Control>) -> Member {
        let mut ep = GcsEndpoint::new(me, spec.config);
        ep.set_contacts((0..spec.group as u64).map(ProcessId::from_raw));
        let spec_seed = spec.seed;
        let cap = match spec.clock {
            Clock::Wall => WALL_SAMPLES,
            Clock::Virtual => 0,
        };
        let fillers = (0..spec.group as u64)
            .map(|s| filler(spec.seed, s, spec.payload))
            .collect();
        Member {
            me,
            ep,
            spec,
            ctl,
            fillers,
            schedule: Gen::new(spec_seed, 0x9ace_0000 + me.raw()),
            seq: 0,
            stable: 0,
            inflight: VecDeque::new(),
            own_window: None,
            formed: false,
            serving: false,
            done: false,
            published: false,
            next_due_ns: 0,
            last_from: BTreeMap::new(),
            delivered: BTreeMap::new(),
            delivered_untraced: 0,
            delivered_traced: 0,
            view_changes_after_formation: 0,
            bad_payloads: 0,
            delivery_ns: Vec::with_capacity(cap),
            delivered_at_ns: Vec::with_capacity(cap),
            stable_ns: Vec::with_capacity(cap),
            lag_ns: Vec::new(),
            tr: Trace::default(),
        }
    }

    /// Routes the endpoint's counters into the transport's registry.
    pub fn set_obs(&mut self, obs: vs_obs::Obs) {
        self.ep.set_obs(obs);
    }

    /// Formed, serving, exactly `sent` multicasts out and all of them stable.
    pub fn quiescent_at(&self, sent: u64) -> bool {
        self.serving && self.seq == sent && self.stable == sent
    }

    fn now_ns(&self, ctx: &Ctx<'_>) -> u64 {
        match self.spec.clock {
            Clock::Wall => unix_ns(),
            Clock::Virtual => ctx.now().as_micros() * 1_000,
        }
    }

    fn tracing(&self) -> bool {
        self.ctl.trace_on.load(Ordering::Relaxed)
    }

    fn handle(&mut self, events: Vec<GcsEvent<Bytes>>, ctx: &mut Ctx<'_>) {
        let now = self.now_ns(ctx);
        for ev in events {
            match &ev {
                GcsEvent::ViewChange { view, .. } => self.on_view(view.len(), now, ctx),
                GcsEvent::Deliver {
                    sender,
                    seq,
                    payload,
                    ..
                } if *sender != ctx.me() => {
                    self.on_remote_delivery(sender.raw(), *seq, payload, now);
                }
                _ => {}
            }
            if self.spec.record {
                ctx.output(strip_payload(ev));
            }
        }
        self.after_callback(now, ctx);
    }

    fn on_view(&mut self, members: usize, now: u64, ctx: &mut Ctx<'_>) {
        if self.formed {
            self.view_changes_after_formation += 1;
            if self.spec.announce {
                println!("BROKEN view of {members} installed after formation");
            }
        } else if members == self.spec.group {
            self.formed = true;
            self.ctl.formed_last_ns.fetch_max(now, Ordering::SeqCst);
            if self.spec.announce {
                println!("FORMED {now}");
            }
            if let Load::Paced { period_ns } = self.spec.load {
                self.next_due_ns = now + period_ns;
                ctx.set_timer(SimDuration::from_micros(period_ns / 1_000), PACE);
            }
        }
    }

    fn on_remote_delivery(&mut self, sender: u64, seq: u64, payload: &Bytes, now: u64) {
        let Some((submit, stamped_seq, flagged)) = self.verify(sender, payload) else {
            self.bad_payloads += 1;
            return;
        };
        if stamped_seq != seq {
            self.bad_payloads += 1;
        }
        let in_order = self
            .last_from
            .insert(sender, seq)
            .is_none_or(|prev| seq == prev + 1);
        if !self.serving && self.last_from.len() + 1 == self.spec.group {
            self.serving = true;
            self.ctl.serving_last_ns.fetch_max(now, Ordering::SeqCst);
            if self.spec.announce {
                println!("SERVING {now}");
            }
        }
        if !flagged {
            return;
        }
        let d = self.delivered.entry(sender).or_insert(DeliveredRange {
            first: seq,
            ..DeliveredRange::default()
        });
        d.last = seq;
        d.count += 1;
        if !in_order {
            d.out_of_order += 1;
        }
        self.delivery_ns.push(now.saturating_sub(submit));
        if self.spec.clock == Clock::Wall {
            self.delivered_at_ns.push(now);
        }
        self.ctl.flagged_deliveries.fetch_add(1, Ordering::Relaxed);
        if self.tracing() {
            self.delivered_traced += 1;
        } else {
            self.delivered_untraced += 1;
        }
    }

    /// Checks a delivered payload byte for byte against what `sender` must
    /// have built; returns its submit stamp, sequence number and flag.
    fn verify(&self, sender: u64, payload: &[u8]) -> Option<(u64, u64, bool)> {
        let filler = self.fillers.get(sender as usize)?;
        if payload.len() != HEADER + filler.len() || &payload[HEADER..] != filler.as_slice() {
            return None;
        }
        let word = |at: usize| u64::from_be_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
        Some((word(0), word(8), payload[16] == 1))
    }

    /// Runs after every callback: stamps newly stable own messages, offers
    /// more load, says when the own work is done, and — once the driver
    /// collects, which it does after every member is done — publishes the
    /// report. Deliveries from slower peers keep being recorded until then.
    fn after_callback(&mut self, now: u64, ctx: &mut Ctx<'_>) {
        if self.done {
            if !self.published && self.ctl.collect.load(Ordering::SeqCst) {
                self.publish();
            }
            return;
        }
        if !self.formed {
            return;
        }
        let cut = self.ep.stability_cut(ctx.me()).min(self.seq);
        while self.stable < cut {
            self.stable += 1;
            if let Some((submit, true)) = self.inflight.pop_front() {
                self.stable_ns.push(now.saturating_sub(submit));
            }
        }
        if let Load::Closed { window } = self.spec.load {
            while self.seq - self.stable < window && self.may_send(now) {
                self.mcast(now, ctx);
            }
        }
        if self.finished(now) && self.stable == self.seq {
            self.done = true;
            self.ctl.done.fetch_add(1, Ordering::SeqCst);
            if self.spec.announce {
                println!("DONE");
            }
        }
    }

    fn may_send(&self, now: u64) -> bool {
        match self.spec.work {
            Work::Timed => now < self.ctl.t1_ns.load(Ordering::Relaxed),
            Work::Fixed { warm, count } => {
                self.seq < warm || (self.ctl.go.load(Ordering::Relaxed) && self.seq < warm + count)
            }
        }
    }

    fn finished(&self, now: u64) -> bool {
        match self.spec.work {
            Work::Timed => now >= self.ctl.t1_ns.load(Ordering::Relaxed),
            Work::Fixed { warm, count } => self.seq == warm + count,
        }
    }

    fn mcast(&mut self, submit: u64, ctx: &mut Ctx<'_>) {
        self.seq += 1;
        let flagged = match self.spec.work {
            Work::Timed => submit >= self.ctl.t0_ns.load(Ordering::Relaxed),
            Work::Fixed { warm, .. } => self.seq > warm,
        };
        if flagged {
            let first = self.own_window.map_or(self.seq, |(f, _)| f);
            self.own_window = Some((first, self.seq));
        }
        self.inflight.push_back((submit, flagged));
        let mut w = Writer::with_capacity(self.spec.payload);
        w.u64(submit);
        w.u64(self.seq);
        w.u8(u8::from(flagged));
        w.bytes(&self.fillers[ctx.me().raw() as usize]);
        let payload = w.finish();
        let traced = self.tracing();
        let t = traced.then(Instant::now);
        // The scoped events are this mcast's `Sent` and the synchronous
        // local `Deliver`; only the recorder wants them.
        let ((), own) = ctx.scoped::<GcsEvent<Bytes>, _>(|sub| self.ep.mcast(payload, sub));
        if let Some(t) = t {
            self.tr.mcast_ns += t.elapsed().as_nanos() as u64;
            self.tr.mcast_calls += 1;
        }
        if self.spec.record {
            for ev in own {
                ctx.output(strip_payload(ev));
            }
        }
    }

    /// The open-loop generator: sends everything that fell due, however
    /// late this timer fired, and records how late.
    fn pace(&mut self, ctx: &mut Ctx<'_>) {
        let Load::Paced { period_ns } = self.spec.load else {
            return;
        };
        let now = self.now_ns(ctx);
        while self.next_due_ns <= now && self.may_send(self.next_due_ns) && !self.done {
            let due = self.next_due_ns;
            if due >= self.ctl.t0_ns.load(Ordering::Relaxed) {
                self.lag_ns.push(now - due);
            }
            self.mcast(due, ctx);
            self.next_due_ns += period_ns / 2 + self.schedule.below(period_ns);
        }
        if !self.done {
            let wait = self.next_due_ns.saturating_sub(self.now_ns(ctx));
            ctx.set_timer(SimDuration::from_micros(wait / 1_000), PACE);
        }
    }

    fn publish(&mut self) {
        self.published = true;
        let mut rep = Report {
            id: self.me.raw(),
            ..Report::default()
        };
        rep.samples
            .insert("delivery_ns".into(), std::mem::take(&mut self.delivery_ns));
        rep.samples.insert(
            "delivered_at_ns".into(),
            std::mem::take(&mut self.delivered_at_ns),
        );
        rep.samples
            .insert("stable_ns".into(), std::mem::take(&mut self.stable_ns));
        rep.samples
            .insert("lag_ns".into(), std::mem::take(&mut self.lag_ns));
        rep.delivered = std::mem::take(&mut self.delivered);
        rep.window = self.own_window;
        rep.add("delivered_untraced", self.delivered_untraced as f64);
        rep.add("delivered_traced", self.delivered_traced as f64);
        rep.add(
            "view_changes_after_formation",
            self.view_changes_after_formation as f64,
        );
        rep.add("bad_payloads", self.bad_payloads as f64);
        let tr = &self.tr;
        for (name, v) in [
            ("tr.mcast_ns", tr.mcast_ns),
            ("tr.mcast_calls", tr.mcast_calls),
            ("tr.on_message_ns", tr.on_message_ns),
            ("tr.on_message_calls", tr.on_message_calls),
            ("tr.on_timer_ns", tr.on_timer_ns),
            ("tr.on_timer_calls", tr.on_timer_calls),
            ("tr.inbound", tr.inbound),
            ("tr.inbound_app", tr.inbound_app),
            ("tr.inbound_heartbeat", tr.inbound_heartbeat),
            ("tr.inbound_order", tr.inbound_order),
            ("tr.codec_samples", tr.codec_samples),
            ("tr.encode_ns", tr.encode_ns),
            ("tr.decode_ns", tr.decode_ns),
            ("tr.encoded_bytes", tr.encoded_bytes),
        ] {
            rep.add(name, v as f64);
        }
        // Time this member spent inside the endpoint during the traced
        // phase; the driver divides by the phase's length.
        rep.push("busy_ns", tr.mcast_ns + tr.on_message_ns + tr.on_timer_ns);
        self.ctl.reports.lock().expect("report lock").push(rep);
    }

    /// Traced phase only: classifies the inbound message and times one in
    /// [`CODEC_SAMPLE_EVERY`] through `encode_into` / `decode_all`.
    fn trace_inbound(&mut self, msg: &Wire<Bytes>) {
        let tr = &mut self.tr;
        tr.inbound += 1;
        match msg {
            Wire::App(..) => tr.inbound_app += 1,
            Wire::Heartbeat { .. } => tr.inbound_heartbeat += 1,
            Wire::Order { .. } => tr.inbound_order += 1,
            _ => {}
        }
        if self.spec.clock == Clock::Wall && tr.inbound.is_multiple_of(CODEC_SAMPLE_EVERY) {
            tr.scratch.clear();
            let t = Instant::now();
            msg.encode_into(&mut tr.scratch);
            tr.encode_ns += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let back = Wire::<Bytes>::decode_all(&tr.scratch);
            tr.decode_ns += t.elapsed().as_nanos() as u64;
            std::hint::black_box(&back);
            tr.encoded_bytes += tr.scratch.len() as u64;
            tr.codec_samples += 1;
        }
    }
}

/// The checker needs views, sends and delivery identities, not payloads.
fn strip_payload(ev: GcsEvent<Bytes>) -> GcsEvent<()> {
    match ev {
        GcsEvent::ViewChange { view, provenance } => GcsEvent::ViewChange { view, provenance },
        GcsEvent::Sent { view, seq } => GcsEvent::Sent { view, seq },
        GcsEvent::Deliver {
            view, sender, seq, ..
        } => GcsEvent::Deliver {
            view,
            sender,
            seq,
            payload: (),
        },
        GcsEvent::DeliverDirect { from, .. } => GcsEvent::DeliverDirect { from, payload: () },
        GcsEvent::Blocked => GcsEvent::Blocked,
        GcsEvent::FlushAbandoned => GcsEvent::FlushAbandoned,
    }
}

impl Actor for Member {
    type Msg = Wire<Bytes>;
    type Output = GcsEvent<()>;

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let ((), evs) = ctx.scoped(|sub| self.ep.on_start(sub));
        self.handle(evs, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Wire<Bytes>, ctx: &mut Ctx<'_>) {
        let traced = self.tracing();
        if traced {
            self.trace_inbound(&msg);
        }
        let t = traced.then(Instant::now);
        let ((), evs) = ctx.scoped(|sub| self.ep.on_message(from, msg, sub));
        if let Some(t) = t {
            self.tr.on_message_ns += t.elapsed().as_nanos() as u64;
            self.tr.on_message_calls += 1;
        }
        self.handle(evs, ctx);
    }

    fn on_timer(&mut self, timer: TimerId, kind: TimerKind, ctx: &mut Ctx<'_>) {
        if kind == PACE {
            self.pace(ctx);
            let now = self.now_ns(ctx);
            self.after_callback(now, ctx);
            return;
        }
        let t = self.tracing().then(Instant::now);
        let ((), evs) = ctx.scoped(|sub| self.ep.on_timer(timer, kind, sub));
        if let Some(t) = t {
            self.tr.on_timer_ns += t.elapsed().as_nanos() as u64;
            self.tr.on_timer_calls += 1;
        }
        self.handle(evs, ctx);
    }
}
