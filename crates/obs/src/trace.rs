//! The structured trace journal.
//!
//! Every layer of the stack appends [`TraceEvent`]s — virtual-time-stamped,
//! globally sequenced, vector-clock-stamped, one bounded ring buffer per
//! process — so that when a safety checker flags a violation the *causal
//! slice* of protocol activity leading to it can be printed instead of a
//! bare violation enum. Events are plain data (`serde`-serializable) and
//! render to JSON through [`crate::json`].
//!
//! The journal also hosts the optional online [`Monitor`]
//! ([`Journal::enable_monitor`]): because every layer records through
//! [`Journal::record`], feeding the monitor there gives it the complete
//! stream in exactly the order the system produced it.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::clock::VClock;
use crate::json::{Arr, Obj};
use crate::monitor::{Monitor, MonitorReport};

/// Why a message never reached its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// Sender and receiver were in different partition components.
    Partition,
    /// The probabilistic loss model discarded it.
    Loss,
    /// The destination process had crashed.
    Crashed,
}

/// Which merge primitive of §6 of the paper an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MergeKind {
    /// `SubviewMerge` — merging subviews within a subview-set.
    Subview,
    /// `SVSetMerge` — merging whole subview-sets.
    SvSet,
}

/// One structured protocol event.
///
/// Process and view identifiers are raw `u64`s so this crate sits below
/// `vs-net` in the dependency order; the typed wrappers live upstream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A message was accepted for transmission.
    MsgSend {
        /// Sending process.
        from: u64,
        /// Destination process.
        to: u64,
    },
    /// A message was handed to the receiving actor.
    MsgDeliver {
        /// Sending process.
        from: u64,
        /// Destination process.
        to: u64,
    },
    /// A message was destroyed in transit.
    MsgDrop {
        /// Sending process.
        from: u64,
        /// Destination process.
        to: u64,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A timer fired at its owner.
    TimerFire {
        /// The owner's timer kind discriminant.
        kind: u32,
    },
    /// The failure detector started suspecting a peer.
    SuspicionRaised {
        /// The suspected process.
        suspect: u64,
    },
    /// A previously suspected peer was heard from again.
    SuspicionCleared {
        /// The no-longer-suspected process.
        suspect: u64,
    },
    /// View agreement began working towards a new view.
    ViewChangeStart {
        /// Epoch of the proposed view.
        epoch: u64,
    },
    /// A view was installed at this process.
    ViewInstall {
        /// Epoch of the installed view.
        epoch: u64,
        /// Number of members in the installed view.
        members: u32,
    },
    /// A flush round made progress during a view change.
    FlushRound {
        /// Epoch being flushed into.
        epoch: u64,
        /// Messages still awaiting stabilization when the round ran.
        pending: u32,
    },
    /// The message-stability frontier advanced.
    StabilityAdvance {
        /// New stable frontier (sequence number).
        frontier: u64,
    },
    /// An enriched view (e-view) change was applied.
    EViewApply {
        /// Epoch of the underlying view.
        epoch: u64,
        /// Number of subviews after the change.
        subviews: u32,
        /// Number of subview-sets after the change.
        svsets: u32,
    },
    /// A merge primitive was issued.
    MergeIssue {
        /// Which primitive.
        kind: MergeKind,
    },
    /// A previously issued merge primitive completed in an e-view change.
    MergeComplete {
        /// Which primitive.
        kind: MergeKind,
    },
    /// The GCS made a view current for delivery bookkeeping (recorded
    /// *after* the closing flush deliveries of the previous view, unlike
    /// [`EventKind::ViewInstall`] which marks membership agreement).
    GroupView {
        /// Epoch of the view.
        epoch: u64,
        /// Coordinator component of the view id.
        coord: u64,
        /// Number of members.
        members: u32,
    },
    /// A view-synchronous multicast was accepted at its sender.
    McastSent {
        /// Epoch of the send view.
        epoch: u64,
        /// Coordinator of the send view.
        coord: u64,
        /// Sender-local sequence number in that view.
        seq: u64,
    },
    /// A view-synchronous multicast was delivered to the layer above.
    McastDeliver {
        /// Epoch of the send view.
        epoch: u64,
        /// Coordinator of the send view.
        coord: u64,
        /// Original sender.
        sender: u64,
        /// Sender-local sequence number.
        seq: u64,
    },
    /// The enriched layer delivered an application message (after the
    /// Property 6.2 causal-cut gate).
    EvsDeliver {
        /// Epoch of the delivery view.
        epoch: u64,
        /// Coordinator of the delivery view.
        coord: u64,
        /// Original sender.
        sender: u64,
        /// Sender-local sequence number.
        seq: u64,
        /// E-view sequence the message was sent under.
        eview_seq: u64,
    },
    /// A sequenced e-view operation was applied (EVS 6.1 total order).
    EViewOp {
        /// Epoch of the underlying view.
        epoch: u64,
        /// Coordinator of the underlying view.
        coord: u64,
        /// Position in the view's e-view operation order (1-based).
        seq: u64,
        /// Deterministic digest of the operation.
        digest: u64,
    },
    /// Snapshot of the enriched structure's partition arithmetic, recorded
    /// after composition and after every applied operation (EVS 6.3).
    EViewStructure {
        /// Epoch of the underlying view.
        epoch: u64,
        /// Coordinator of the underlying view.
        coord: u64,
        /// Distinct members of the view.
        members: u32,
        /// Membership slots summed over all subviews.
        member_slots: u32,
        /// Distinct subviews.
        subviews: u32,
        /// Subview slots summed over all sv-sets.
        svset_slots: u32,
    },
    /// An escape hatch for layer-specific events not worth a variant.
    Custom {
        /// A short static label.
        label: &'static str,
        /// A free-form value.
        value: u64,
    },
}

impl EventKind {
    /// A short stable name for the event kind (used in JSON and reports).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::MsgSend { .. } => "msg_send",
            EventKind::MsgDeliver { .. } => "msg_deliver",
            EventKind::MsgDrop { .. } => "msg_drop",
            EventKind::TimerFire { .. } => "timer_fire",
            EventKind::SuspicionRaised { .. } => "suspicion_raised",
            EventKind::SuspicionCleared { .. } => "suspicion_cleared",
            EventKind::ViewChangeStart { .. } => "view_change_start",
            EventKind::ViewInstall { .. } => "view_install",
            EventKind::FlushRound { .. } => "flush_round",
            EventKind::StabilityAdvance { .. } => "stability_advance",
            EventKind::EViewApply { .. } => "eview_apply",
            EventKind::MergeIssue { .. } => "merge_issue",
            EventKind::MergeComplete { .. } => "merge_complete",
            EventKind::GroupView { .. } => "group_view",
            EventKind::McastSent { .. } => "mcast_sent",
            EventKind::McastDeliver { .. } => "mcast_deliver",
            EventKind::EvsDeliver { .. } => "evs_deliver",
            EventKind::EViewOp { .. } => "eview_op",
            EventKind::EViewStructure { .. } => "eview_structure",
            EventKind::Custom { label, .. } => label,
        }
    }

    /// Renders the variant's fields as a JSON object (no name).
    pub fn detail_json(&self) -> String {
        match *self {
            EventKind::MsgSend { from, to } | EventKind::MsgDeliver { from, to } => {
                Obj::new().u64("from", from).u64("to", to).finish()
            }
            EventKind::MsgDrop { from, to, reason } => Obj::new()
                .u64("from", from)
                .u64("to", to)
                .str("reason", &format!("{reason:?}"))
                .finish(),
            EventKind::TimerFire { kind } => Obj::new().u64("kind", kind as u64).finish(),
            EventKind::SuspicionRaised { suspect } | EventKind::SuspicionCleared { suspect } => {
                Obj::new().u64("suspect", suspect).finish()
            }
            EventKind::ViewChangeStart { epoch } => Obj::new().u64("epoch", epoch).finish(),
            EventKind::ViewInstall { epoch, members } => Obj::new()
                .u64("epoch", epoch)
                .u64("members", members as u64)
                .finish(),
            EventKind::FlushRound { epoch, pending } => Obj::new()
                .u64("epoch", epoch)
                .u64("pending", pending as u64)
                .finish(),
            EventKind::StabilityAdvance { frontier } => {
                Obj::new().u64("frontier", frontier).finish()
            }
            EventKind::EViewApply {
                epoch,
                subviews,
                svsets,
            } => Obj::new()
                .u64("epoch", epoch)
                .u64("subviews", subviews as u64)
                .u64("svsets", svsets as u64)
                .finish(),
            EventKind::MergeIssue { kind } | EventKind::MergeComplete { kind } => {
                Obj::new().str("kind", &format!("{kind:?}")).finish()
            }
            EventKind::GroupView { epoch, coord, members } => Obj::new()
                .u64("epoch", epoch)
                .u64("coord", coord)
                .u64("members", members as u64)
                .finish(),
            EventKind::McastSent { epoch, coord, seq } => Obj::new()
                .u64("epoch", epoch)
                .u64("coord", coord)
                .u64("seq", seq)
                .finish(),
            EventKind::McastDeliver { epoch, coord, sender, seq } => Obj::new()
                .u64("epoch", epoch)
                .u64("coord", coord)
                .u64("sender", sender)
                .u64("seq", seq)
                .finish(),
            EventKind::EvsDeliver { epoch, coord, sender, seq, eview_seq } => Obj::new()
                .u64("epoch", epoch)
                .u64("coord", coord)
                .u64("sender", sender)
                .u64("seq", seq)
                .u64("eview_seq", eview_seq)
                .finish(),
            EventKind::EViewOp { epoch, coord, seq, digest } => Obj::new()
                .u64("epoch", epoch)
                .u64("coord", coord)
                .u64("seq", seq)
                .u64("digest", digest)
                .finish(),
            EventKind::EViewStructure {
                epoch,
                coord,
                members,
                member_slots,
                subviews,
                svset_slots,
            } => Obj::new()
                .u64("epoch", epoch)
                .u64("coord", coord)
                .u64("members", members as u64)
                .u64("member_slots", member_slots as u64)
                .u64("subviews", subviews as u64)
                .u64("svset_slots", svset_slots as u64)
                .finish(),
            EventKind::Custom { value, .. } => Obj::new().u64("value", value).finish(),
        }
    }
}

/// One journal entry: what happened, where, at what virtual time, and
/// after which causal past.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Global sequence number (total order across all processes).
    pub seq: u64,
    /// Virtual time of the event, in microseconds.
    pub at_us: u64,
    /// Raw identifier of the process the event happened at.
    pub process: u64,
    /// The recording process's vector clock *including this event* (its
    /// own component counts the event itself).
    pub clock: VClock,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Renders the event as a JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("seq", self.seq)
            .u64("at_us", self.at_us)
            .u64("process", self.process)
            .raw("clock", &self.clock.to_json())
            .str("event", self.kind.name())
            .raw("detail", &self.kind.detail_json())
            .finish()
    }

    /// Whether `self` is in `other`'s causal past (or is `other` itself):
    /// true iff `other`'s clock has seen `self`'s own component.
    pub fn causally_precedes(&self, other: &TraceEvent) -> bool {
        other.clock.get(self.process) >= self.clock.get(self.process)
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>10}us seq={:>6} p{}] {:<18} {:?}",
            self.at_us,
            self.seq,
            self.process,
            self.kind.name(),
            self.kind
        )
    }
}

/// Per-process bounded ring buffers of [`TraceEvent`]s.
///
/// # Eviction
///
/// Appends are O(1); when a process's ring is full ([`Journal::capacity`]
/// entries) the **oldest entry of that ring** is evicted and counted in
/// [`Journal::evicted`], so memory stays bounded over arbitrarily long
/// runs while the *trailing* window — the part a violation report needs —
/// is always intact. Consequences callers can rely on:
///
/// - each ring always holds a **contiguous suffix** of the events recorded
///   at its process — eviction never opens a gap in the middle, so
///   [`Journal::tail`] can never silently return a gap-spanning window;
/// - global `seq` and the per-process vector-clock component remain
///   **strictly monotone** across eviction (they are assigned at record
///   time and never reused);
/// - cross-process analyses ([`crate::global`]) treat an evicted prefix as
///   "already emitted": a retained event may causally depend on evicted
///   ones, but never on a *retained-but-missorted* one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Journal {
    capacity_per_process: usize,
    rings: BTreeMap<u64, VecDeque<TraceEvent>>,
    clocks: BTreeMap<u64, VClock>,
    next_seq: u64,
    evicted: u64,
    last_at_us: u64,
    monitor: Option<Monitor>,
}

/// Trailing-window length of the causal slice attached to monitor reports.
const MONITOR_SLICE_WINDOW: usize = 32;

/// Default ring capacity per process.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 512;

impl Default for Journal {
    fn default() -> Self {
        Journal::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// A journal keeping the last `capacity_per_process` events per process.
    pub fn with_capacity(capacity_per_process: usize) -> Self {
        Journal {
            capacity_per_process: capacity_per_process.max(1),
            rings: BTreeMap::new(),
            clocks: BTreeMap::new(),
            next_seq: 0,
            evicted: 0,
            last_at_us: 0,
            monitor: None,
        }
    }

    /// Ring capacity per process.
    pub fn capacity(&self) -> usize {
        self.capacity_per_process
    }

    /// Appends an event for `process` at virtual time `at_us`.
    ///
    /// The journal is monotone in time by construction: timestamps are
    /// clamped to the latest one seen, so even racy wall-clock readers
    /// (the threaded transport) cannot make recorded time run backwards.
    /// The simulator's virtual clock is already non-decreasing, so there
    /// the clamp never fires.
    ///
    /// Recording ticks `process`'s vector clock and stamps the event with
    /// it; if the online monitor is enabled the event is fed through it,
    /// and a violation captures the event's causal slice on the spot.
    pub fn record(&mut self, process: u64, at_us: u64, kind: EventKind) {
        let at_us = at_us.max(self.last_at_us);
        self.last_at_us = at_us;
        let seq = self.next_seq;
        self.next_seq += 1;
        let clock = self.clocks.entry(process).or_default();
        clock.tick(process);
        let ring = self.rings.entry(process).or_default();
        // The event (and its vector clock) is built once, in the ring; the
        // monitor reads it there. A full ring overwrites its evicted slot in
        // place, reusing the slot's clock buffer, so steady-state recording
        // allocates nothing.
        if ring.len() == self.capacity_per_process {
            let mut slot = ring.pop_front().expect("a full ring is non-empty");
            slot.seq = seq;
            slot.at_us = at_us;
            slot.clock.clone_from(clock);
            slot.kind = kind;
            ring.push_back(slot);
            self.evicted += 1;
        } else {
            ring.push_back(TraceEvent {
                seq,
                at_us,
                process,
                clock: clock.clone(),
                kind,
            });
        }
        if let Some(mut monitor) = self.monitor.take() {
            let event = ring.back().expect("just pushed");
            if let Some(violation) = monitor.observe(event) {
                let event = event.clone();
                let cone = crate::global::causal_cone(&self.all(), &event);
                let skip = cone.len().saturating_sub(MONITOR_SLICE_WINDOW);
                monitor.push_report(MonitorReport {
                    violation,
                    event,
                    slice: cone.into_iter().skip(skip).collect(),
                });
            }
            self.monitor = Some(monitor);
        }
    }

    /// The current vector clock of `process` (its last event's stamp).
    ///
    /// Transports capture this right after recording a send and carry it
    /// as message metadata; see [`Journal::merge_clock`].
    pub fn clock_of(&self, process: u64) -> VClock {
        self.clocks.get(&process).cloned().unwrap_or_default()
    }

    /// Merges a piggybacked `stamp` into `process`'s clock — call at
    /// message delivery, *before* recording the delivery event, so the
    /// delivery's own stamp dominates the send's.
    pub fn merge_clock(&mut self, process: u64, stamp: &VClock) {
        self.clocks.entry(process).or_default().merge(stamp);
    }

    /// Switches on the online invariant monitor; subsequent events stream
    /// through it. Idempotent.
    pub fn enable_monitor(&mut self) {
        if self.monitor.is_none() {
            self.monitor = Some(Monitor::new());
        }
    }

    /// Whether the online monitor is running.
    pub fn monitor_enabled(&self) -> bool {
        self.monitor.is_some()
    }

    /// Violations the online monitor has flagged (empty when disabled).
    pub fn monitor_reports(&self) -> &[MonitorReport] {
        self.monitor.as_ref().map(Monitor::reports).unwrap_or(&[])
    }

    /// Total number of events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Number of events evicted from full rings.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Events currently retained for `process`, oldest first.
    pub fn events_for(&self, process: u64) -> impl Iterator<Item = &TraceEvent> {
        self.rings.get(&process).into_iter().flatten()
    }

    /// The last `n` retained events for `process`, oldest first.
    pub fn tail(&self, process: u64, n: usize) -> Vec<TraceEvent> {
        let ring = match self.rings.get(&process) {
            Some(r) => r,
            None => return Vec::new(),
        };
        ring.iter().skip(ring.len().saturating_sub(n)).cloned().collect()
    }

    /// All retained events across every process, in global `seq` order.
    pub fn all(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self.rings.values().flatten().cloned().collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Processes with at least one retained event.
    pub fn processes(&self) -> impl Iterator<Item = u64> + '_ {
        self.rings.keys().copied()
    }

    /// A human-readable rendering of the last `n` events at `process`, for
    /// violation reports. The window is always a contiguous suffix of the
    /// process's recorded events (see the eviction notes on [`Journal`]).
    pub fn format_tail(&self, process: u64, n: usize) -> String {
        let tail = self.tail(process, n);
        if tail.is_empty() {
            return format!("  (no trace events retained for process {process})");
        }
        render_slice(&tail, 2)
    }

    /// The causal slice anchored at `process`'s most recent event: the
    /// anchor's cross-process predecessor cone restricted to retained
    /// events, in deterministic causal order, truncated to the trailing
    /// `window` entries. Empty when the process has no retained events.
    pub fn causal_slice(&self, process: u64, window: usize) -> Vec<TraceEvent> {
        let anchor = match self.rings.get(&process).and_then(VecDeque::back) {
            Some(a) => a.clone(),
            None => return Vec::new(),
        };
        let cone = crate::global::causal_cone(&self.all(), &anchor);
        let skip = cone.len().saturating_sub(window);
        cone.into_iter().skip(skip).collect()
    }

    /// A human-readable rendering of [`Journal::causal_slice`], for
    /// violation reports.
    pub fn format_causal_slice(&self, process: u64, window: usize) -> String {
        let slice = self.causal_slice(process, window);
        if slice.is_empty() {
            return format!("  (no trace events retained for process {process})");
        }
        render_slice(&slice, 2)
    }

    /// Renders the retained journal as a JSON array (global `seq` order).
    pub fn to_json(&self) -> String {
        let mut arr = Arr::new();
        for ev in self.all() {
            arr = arr.raw(&ev.to_json());
        }
        arr.finish()
    }

    /// A stable FNV-1a digest over the retained journal's JSON rendering:
    /// two journals with equal digests retained the same events with the
    /// same stamps. This is what record/replay equality checks compare.
    pub fn digest(&self) -> u64 {
        crate::clock::fnv1a(self.to_json().as_bytes())
    }
}

/// Renders a slice of events one per line at `indent` spaces, no trailing
/// newline. This is the **single** slice renderer shared by
/// [`Journal::format_causal_slice`], [`Journal::format_tail`], the monitor
/// report formatter and the `vstool trace` CLI, so every causal slice a
/// user sees looks the same.
pub fn render_slice(events: &[TraceEvent], indent: usize) -> String {
    let pad = " ".repeat(indent);
    if events.is_empty() {
        return format!("{pad}(no events retained)");
    }
    let mut out = String::new();
    for ev in events {
        out.push_str(&format!("{pad}{ev}\n"));
    }
    out.pop();
    out
}

/// Renders violations together with the causal slice ending at each
/// implicated process, pulled from `journal`. Each item pairs a rendered
/// violation description with the raw ids of the processes it implicates.
/// The protocol checkers (`vs_gcs::checker::report_with_trace`,
/// `vs_evs::checker::report_with_trace`) delegate here so checker reports
/// and `vstool trace` output share one formatting path.
pub fn render_violation_report<I>(violations: I, journal: &Journal, window: usize) -> String
where
    I: IntoIterator<Item = (String, Vec<u64>)>,
{
    let mut out = String::new();
    for (i, (desc, procs)) in violations.into_iter().enumerate() {
        out.push_str(&format!("violation {}: {desc}\n", i + 1));
        for p in procs {
            out.push_str(&format!("  causal slice ({window} events) ending at p{p}:\n"));
            let slice = journal.causal_slice(p, window);
            if slice.is_empty() {
                out.push_str(&format!("    (no trace events retained for process {p})\n"));
            } else {
                out.push_str(&render_slice(&slice, 4));
                out.push('\n');
            }
        }
    }
    if out.ends_with('\n') {
        out.pop();
    }
    out
}

/// Parses a journal JSON document (the output of [`Journal::to_json`])
/// back into its events, in the order the array lists them.
///
/// Labels of [`EventKind::Custom`] events are interned with `Box::leak`
/// (the variant stores a `&'static str`); importing is meant for tools
/// inspecting a finite set of documents, where the leak is bounded by the
/// set of distinct labels.
pub fn events_from_json(doc: &str) -> Result<Vec<TraceEvent>, String> {
    let v = crate::json::parse(doc).map_err(|e| e.to_string())?;
    let arr = v.as_arr().ok_or("expected a JSON array of trace events")?;
    arr.iter().map(event_from_value).collect()
}

fn event_from_value(v: &crate::json::Value) -> Result<TraceEvent, String> {
    use crate::json::Value;
    let field = |key: &str| -> Result<&Value, String> {
        v.get(key).ok_or_else(|| format!("event missing field `{key}`"))
    };
    let num = |key: &str| -> Result<u64, String> {
        field(key)?
            .as_f64()
            .map(|f| f as u64)
            .ok_or_else(|| format!("event field `{key}` is not a number"))
    };
    let seq = num("seq")?;
    let at_us = num("at_us")?;
    let process = num("process")?;
    let mut clock = VClock::new();
    match field("clock")? {
        Value::Obj(fields) => {
            for (k, c) in fields {
                let p: u64 = k.parse().map_err(|_| format!("bad clock key `{k}`"))?;
                let n = c.as_f64().ok_or("bad clock component")? as u64;
                clock.set(p, n);
            }
        }
        _ => return Err("event field `clock` is not an object".into()),
    }
    let name = field("event")?
        .as_str()
        .ok_or("event field `event` is not a string")?;
    let detail = field("detail")?;
    let kind = kind_from_parts(name, detail)?;
    Ok(TraceEvent { seq, at_us, process, clock, kind })
}

fn kind_from_parts(name: &str, detail: &crate::json::Value) -> Result<EventKind, String> {
    let num = |key: &str| -> Result<u64, String> {
        detail
            .get(key)
            .and_then(crate::json::Value::as_f64)
            .map(|f| f as u64)
            .ok_or_else(|| format!("`{name}` detail missing numeric `{key}`"))
    };
    let drop_reason = || -> Result<DropReason, String> {
        match detail.get("reason").and_then(crate::json::Value::as_str) {
            Some("Partition") => Ok(DropReason::Partition),
            Some("Loss") => Ok(DropReason::Loss),
            Some("Crashed") => Ok(DropReason::Crashed),
            other => Err(format!("unknown drop reason {other:?}")),
        }
    };
    let merge_kind = || -> Result<MergeKind, String> {
        match detail.get("kind").and_then(crate::json::Value::as_str) {
            Some("Subview") => Ok(MergeKind::Subview),
            Some("SvSet") => Ok(MergeKind::SvSet),
            other => Err(format!("unknown merge kind {other:?}")),
        }
    };
    Ok(match name {
        "msg_send" => EventKind::MsgSend { from: num("from")?, to: num("to")? },
        "msg_deliver" => EventKind::MsgDeliver { from: num("from")?, to: num("to")? },
        "msg_drop" => EventKind::MsgDrop {
            from: num("from")?,
            to: num("to")?,
            reason: drop_reason()?,
        },
        "timer_fire" => EventKind::TimerFire { kind: num("kind")? as u32 },
        "suspicion_raised" => EventKind::SuspicionRaised { suspect: num("suspect")? },
        "suspicion_cleared" => EventKind::SuspicionCleared { suspect: num("suspect")? },
        "view_change_start" => EventKind::ViewChangeStart { epoch: num("epoch")? },
        "view_install" => EventKind::ViewInstall {
            epoch: num("epoch")?,
            members: num("members")? as u32,
        },
        "flush_round" => EventKind::FlushRound {
            epoch: num("epoch")?,
            pending: num("pending")? as u32,
        },
        "stability_advance" => EventKind::StabilityAdvance { frontier: num("frontier")? },
        "eview_apply" => EventKind::EViewApply {
            epoch: num("epoch")?,
            subviews: num("subviews")? as u32,
            svsets: num("svsets")? as u32,
        },
        "merge_issue" => EventKind::MergeIssue { kind: merge_kind()? },
        "merge_complete" => EventKind::MergeComplete { kind: merge_kind()? },
        "group_view" => EventKind::GroupView {
            epoch: num("epoch")?,
            coord: num("coord")?,
            members: num("members")? as u32,
        },
        "mcast_sent" => EventKind::McastSent {
            epoch: num("epoch")?,
            coord: num("coord")?,
            seq: num("seq")?,
        },
        "mcast_deliver" => EventKind::McastDeliver {
            epoch: num("epoch")?,
            coord: num("coord")?,
            sender: num("sender")?,
            seq: num("seq")?,
        },
        "evs_deliver" => EventKind::EvsDeliver {
            epoch: num("epoch")?,
            coord: num("coord")?,
            sender: num("sender")?,
            seq: num("seq")?,
            eview_seq: num("eview_seq")?,
        },
        "eview_op" => EventKind::EViewOp {
            epoch: num("epoch")?,
            coord: num("coord")?,
            seq: num("seq")?,
            digest: num("digest")?,
        },
        "eview_structure" => EventKind::EViewStructure {
            epoch: num("epoch")?,
            coord: num("coord")?,
            members: num("members")? as u32,
            member_slots: num("member_slots")? as u32,
            subviews: num("subviews")? as u32,
            svset_slots: num("svset_slots")? as u32,
        },
        custom => EventKind::Custom {
            label: Box::leak(custom.to_string().into_boxed_str()),
            value: num("value").unwrap_or(0),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_assigns_global_sequence() {
        let mut j = Journal::default();
        j.record(1, 10, EventKind::TimerFire { kind: 0 });
        j.record(2, 10, EventKind::TimerFire { kind: 0 });
        j.record(1, 20, EventKind::TimerFire { kind: 1 });
        let all = j.all();
        assert_eq!(all.len(), 3);
        assert_eq!(
            all.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(j.recorded(), 3);
    }

    #[test]
    fn ring_evicts_oldest_per_process() {
        // The second input runs the monitor, which must see each new event
        // in the reused slot, not what the slot held before.
        for monitored in [false, true] {
            let mut j = Journal::with_capacity(3);
            if monitored {
                j.enable_monitor();
            }
            for i in 0..5 {
                j.record(7, i * 10, EventKind::StabilityAdvance { frontier: i });
            }
            let tail: Vec<u64> = j
                .events_for(7)
                .map(|e| match e.kind {
                    EventKind::StabilityAdvance { frontier } => frontier,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(tail, vec![2, 3, 4]);
            assert_eq!(j.evicted(), 2);
            assert_eq!(j.recorded(), 5);

            // Reuse two more slots with a wider clock and another kind; the
            // second install of one view is a monitor violation.
            let mut stamp = VClock::new();
            for p in 1..=4 {
                stamp.set(p, 10 * p);
            }
            j.merge_clock(7, &stamp);
            let view = EventKind::GroupView { epoch: 2, coord: 7, members: 1 };
            j.record(7, 60, view.clone());
            j.record(7, 70, view.clone());
            let newest = TraceEvent {
                seq: 6,
                at_us: 70,
                process: 7,
                clock: j.clock_of(7),
                kind: view,
            };
            assert_eq!(newest.clock.components().count(), 5);
            assert_eq!(newest.clock.get(7), 7);
            assert_eq!(j.events_for(7).last(), Some(&newest));
            assert_eq!(j.evicted(), 4);
            let seqs: Vec<u64> = j.tail(7, 5).iter().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![4, 5, 6]);
            let reports = j.monitor_reports();
            if monitored {
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].event, newest);
                assert_eq!(reports[0].slice.last(), Some(&newest));
            } else {
                assert!(reports.is_empty());
            }
        }
    }

    #[test]
    fn tail_returns_last_n_oldest_first() {
        let mut j = Journal::default();
        for i in 0..10 {
            j.record(1, i, EventKind::TimerFire { kind: i as u32 });
        }
        let tail = j.tail(1, 3);
        assert_eq!(
            tail.iter().map(|e| e.at_us).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert!(j.tail(99, 3).is_empty());
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let mut j = Journal::default();
        j.record(
            1,
            5,
            EventKind::MsgDrop {
                from: 1,
                to: 2,
                reason: DropReason::Partition,
            },
        );
        let json = j.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"event\":\"msg_drop\""));
        assert!(json.contains("\"reason\":\"Partition\""));
    }

    #[test]
    fn format_tail_mentions_every_event() {
        let mut j = Journal::default();
        j.record(3, 1, EventKind::ViewChangeStart { epoch: 9 });
        j.record(3, 2, EventKind::ViewInstall { epoch: 9, members: 4 });
        let text = j.format_tail(3, 8);
        assert!(text.contains("view_change_start"));
        assert!(text.contains("view_install"));
        assert!(j.format_tail(8, 4).contains("no trace events"));
    }

    #[test]
    fn eviction_at_default_capacity_is_oldest_first() {
        let mut j = Journal::default();
        let n = DEFAULT_JOURNAL_CAPACITY as u64;
        for i in 0..n + 5 {
            j.record(1, i, EventKind::StabilityAdvance { frontier: i });
        }
        assert_eq!(j.evicted(), 5);
        let retained: Vec<_> = j.events_for(1).collect();
        assert_eq!(retained.len(), DEFAULT_JOURNAL_CAPACITY);
        // Oldest-first: the five dropped entries are exactly frontiers 0–4.
        assert!(matches!(
            retained[0].kind,
            EventKind::StabilityAdvance { frontier: 5 }
        ));
        assert!(matches!(
            retained.last().unwrap().kind,
            EventKind::StabilityAdvance { frontier } if frontier == n + 4
        ));
    }

    #[test]
    fn seq_and_clock_stay_strictly_monotone_across_eviction() {
        let mut j = Journal::with_capacity(4);
        for i in 0..20 {
            j.record(2, i, EventKind::TimerFire { kind: 0 });
            j.record(3, i, EventKind::TimerFire { kind: 1 });
        }
        for p in [2u64, 3] {
            let events: Vec<_> = j.events_for(p).collect();
            for w in events.windows(2) {
                assert!(w[1].seq > w[0].seq, "global seq strictly monotone");
                assert!(
                    w[1].clock.get(p) == w[0].clock.get(p) + 1,
                    "own clock component is dense within a process"
                );
            }
        }
        // Components keep counting from where eviction left off: the 20th
        // event of p2 carries component 20 even though only 4 are retained.
        assert_eq!(j.events_for(2).last().unwrap().clock.get(2), 20);
    }

    #[test]
    fn tail_never_spans_a_gap() {
        let mut j = Journal::with_capacity(6);
        for i in 0..50 {
            j.record(9, i, EventKind::StabilityAdvance { frontier: i });
        }
        // Ask for more than is retained: the answer is the full contiguous
        // retained suffix, never a window with holes.
        let tail = j.tail(9, 100);
        assert_eq!(tail.len(), 6);
        for w in tail.windows(2) {
            assert_eq!(
                w[1].clock.get(9),
                w[0].clock.get(9) + 1,
                "retained window is contiguous"
            );
        }
        assert!(matches!(
            tail[0].kind,
            EventKind::StabilityAdvance { frontier: 44 }
        ));
    }

    #[test]
    fn record_stamps_events_with_ticking_clocks() {
        let mut j = Journal::default();
        j.record(1, 0, EventKind::TimerFire { kind: 0 });
        let stamp = j.clock_of(1);
        assert_eq!(stamp.get(1), 1);
        j.merge_clock(2, &stamp);
        j.record(2, 1, EventKind::MsgDeliver { from: 1, to: 2 });
        let deliver = j.events_for(2).next().unwrap();
        assert_eq!(deliver.clock.get(1), 1, "sender's component piggybacked");
        assert_eq!(deliver.clock.get(2), 1, "own component ticked");
        let send = j.events_for(1).next().unwrap().clone();
        assert!(send.causally_precedes(deliver));
        assert!(!deliver.causally_precedes(&send));
    }

    #[test]
    fn embedded_monitor_reports_with_causal_slice() {
        let mut j = Journal::default();
        j.enable_monitor();
        assert!(j.monitor_enabled());
        j.record(1, 0, EventKind::GroupView { epoch: 1, coord: 1, members: 2 });
        let stamp = j.clock_of(1);
        j.merge_clock(2, &stamp);
        // p2 delivers a message nobody sent: VS 2.3 ghost.
        j.record(
            2,
            5,
            EventKind::McastDeliver { epoch: 1, coord: 1, sender: 1, seq: 1 },
        );
        let reports = j.monitor_reports();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].violation.to_string().contains("VS 2.3"));
        let slice = &reports[0].slice;
        assert!(!slice.is_empty());
        assert_eq!(slice.last().unwrap().process, 2, "anchor comes last");
        assert!(
            slice.iter().any(|e| e.process == 1),
            "cross-process predecessor included"
        );
    }

    #[test]
    fn render_slice_is_the_single_formatting_path() {
        let mut j = Journal::default();
        j.record(3, 1, EventKind::ViewChangeStart { epoch: 9 });
        j.record(3, 2, EventKind::ViewInstall { epoch: 9, members: 4 });
        let slice = j.causal_slice(3, 8);
        let rendered = render_slice(&slice, 2);
        assert_eq!(rendered, j.format_causal_slice(3, 8));
        // Indent is the only difference between call sites.
        let deeper = render_slice(&slice, 4);
        assert_eq!(
            deeper.lines().map(|l| l.trim_start()).collect::<Vec<_>>(),
            rendered.lines().map(|l| l.trim_start()).collect::<Vec<_>>()
        );
        assert!(deeper.lines().all(|l| l.starts_with("    ")));
        assert_eq!(render_slice(&[], 4), "    (no events retained)");
    }

    #[test]
    fn violation_report_prints_slices_per_process() {
        let mut j = Journal::default();
        j.record(1, 1, EventKind::ViewInstall { epoch: 1, members: 2 });
        j.record(2, 2, EventKind::ViewInstall { epoch: 1, members: 2 });
        let report = render_violation_report(
            vec![
                ("something broke".to_string(), vec![1, 2]),
                ("elsewhere".to_string(), vec![99]),
            ],
            &j,
            8,
        );
        assert!(report.contains("violation 1: something broke"));
        assert!(report.contains("causal slice (8 events) ending at p1:"));
        assert!(report.contains("causal slice (8 events) ending at p2:"));
        assert!(report.contains("violation 2: elsewhere"));
        assert!(report.contains("(no trace events retained for process 99)"));
        assert!(report.contains("view_install"));
    }

    #[test]
    fn journal_json_round_trips_through_events_from_json() {
        let mut j = Journal::default();
        j.record(1, 10, EventKind::MsgSend { from: 1, to: 2 });
        let stamp = j.clock_of(1);
        j.merge_clock(2, &stamp);
        j.record(2, 20, EventKind::MsgDeliver { from: 1, to: 2 });
        j.record(
            2,
            25,
            EventKind::MsgDrop { from: 2, to: 1, reason: DropReason::Loss },
        );
        j.record(1, 30, EventKind::EViewStructure {
            epoch: 3,
            coord: 1,
            members: 4,
            member_slots: 4,
            subviews: 2,
            svset_slots: 2,
        });
        j.record(1, 40, EventKind::MergeIssue { kind: MergeKind::SvSet });
        j.record(1, 50, EventKind::Custom { label: "checkpoint", value: 7 });
        let events = events_from_json(&j.to_json()).expect("parses");
        assert_eq!(events, j.all(), "parsed events match the originals exactly");
    }

    #[test]
    fn events_from_json_rejects_malformed_documents() {
        assert!(events_from_json("{}").is_err(), "not an array");
        assert!(events_from_json("[{\"seq\":1}]").is_err(), "missing fields");
        let doc = r#"[{"seq":0,"at_us":1,"process":1,"clock":{"x":1},"event":"heal","detail":{}}]"#;
        assert!(events_from_json(doc).is_err(), "bad clock key");
    }

    #[test]
    fn journal_digest_tracks_content() {
        let mut a = Journal::default();
        let mut b = Journal::default();
        for j in [&mut a, &mut b] {
            j.record(1, 5, EventKind::TimerFire { kind: 1 });
            j.record(2, 6, EventKind::TimerFire { kind: 2 });
        }
        assert_eq!(a.digest(), b.digest());
        b.record(2, 7, EventKind::TimerFire { kind: 3 });
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn journals_without_monitor_report_nothing() {
        let mut j = Journal::default();
        j.record(
            2,
            5,
            EventKind::McastDeliver { epoch: 1, coord: 1, sender: 1, seq: 1 },
        );
        assert!(!j.monitor_enabled());
        assert!(j.monitor_reports().is_empty());
    }
}
