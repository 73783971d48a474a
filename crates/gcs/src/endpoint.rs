//! The view-synchronous group-communication endpoint.
//!
//! [`GcsEndpoint`] is one process' complete group-communication stack: the
//! heartbeat failure detector, the membership estimator, the view-agreement
//! machine, the reliable multicast with acknowledgement-based stability and
//! loss recovery, the optional ordering layer, and the flush logic that
//! welds them into view synchrony.
//!
//! Life of a multicast: the application calls [`GcsEndpoint::mcast`]; the
//! message is tagged with the current view and a per-view sequence number,
//! delivered locally, and sent to every other view member, carrying the
//! sender's own ack news. A receiver whose receive frontier the copy moves
//! arms a zero-delay timer; hosts look at timers only once the inbox batch
//! in hand is done, so by then either a multicast of the receiver's own
//! has carried the new frontier to everyone, or the timer tells it to the
//! origin alone, in a one-entry heartbeat. The origin's stability cut thus
//! follows one hop out and one hop back; the 10 ms tick still sends the
//! full ack vector to everyone (third parties prune and, under uniform
//! delivery, release by it) and prunes what has become stable. Losses are
//! repaired by receiver-driven negative acknowledgements, with a backed-off
//! sender-side resend as the fallback. When the membership changes, the
//! agreement protocol blocks multicasting, collects every member's unstable
//! messages, and the commit delivers the common closure *before* the new
//! view is announced — Properties 2.1–2.3 of the paper.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use vs_membership::{
    AgreementAction, AgreementConfig, AgreementMachine, AgreementMsg, DetectorConfig,
    EstimatorConfig, FailureDetector, MembershipEstimator, View, ViewId,
};
use vs_net::{Actor, Context, ProcessId, SimDuration, SimTime, TimerId, TimerKind};
use vs_obs::{EventKind, Obs, SpanId, StampKey};

use crate::events::{GcsEvent, Provenance};
use crate::flush::{flush_deliveries, FlushPayload};
use crate::message::{MsgId, ViewMsg};
use crate::ordering::{OrderBuffer, OrderingMode};
use crate::stability::AckTracker;

/// Timer kind of the endpoint's periodic tick.
const TICK: TimerKind = TimerKind(1);
/// Timer kind of the zero-delay acknowledgement timer (see
/// [`GcsEndpoint::arm_ack`]).
const ACK: TimerKind = TimerKind(2);

/// The latency-attribution identity of a view message: view id + message
/// id, unique across the fleet (see [`vs_obs::latency`]).
fn stamp_key<M>(msg: &ViewMsg<M>) -> StampKey {
    StampKey {
        epoch: msg.view.epoch,
        coord: msg.view.coordinator.raw(),
        sender: msg.id.sender.raw(),
        seq: msg.id.seq,
    }
}

/// Backoff floor/ceiling of the receiver-side NACK retry path.
const NACK_RETRY: SimDuration = SimDuration::from_millis(25);
const NACK_RETRY_CAP: SimDuration = SimDuration::from_millis(200);
/// Hold-off before the *first* NACK of a freshly noticed tail gap: long
/// enough for an in-flight original overtaken by its announcement to land.
const TAIL_NACK_GRACE: SimDuration = SimDuration::from_millis(5);
/// Grace before the sender-side fallback resends to a lagging peer, and
/// the ceiling its per-peer backoff doubles up to.
const RESEND_GRACE: SimDuration = SimDuration::from_millis(45);
const RESEND_CAP: SimDuration = SimDuration::from_millis(250);

/// Configuration of a [`GcsEndpoint`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GcsConfig {
    /// Failure-detector tuning.
    pub detector: DetectorConfig,
    /// Membership-estimator tuning.
    pub estimator: EstimatorConfig,
    /// View-agreement tuning.
    pub agreement: AgreementConfig,
    /// Intra-view delivery order.
    pub ordering: OrderingMode,
    /// Uniform delivery (Schiper & Sandoz, the paper's ref \[10\]): hold
    /// each message until it is *stable* (received by every view member)
    /// before delivering, so that no process — not even one about to be
    /// excluded — delivers a message the others might miss. Trades latency
    /// (one extra acknowledgement round) for the uniformity guarantee.
    pub uniform: bool,
    /// **Seeded mutation** for the bounded model checker's regression
    /// suite: computes every stability cut with
    /// [`AckTracker::stable_frontier_broken_max_merge`] (any member's
    /// receipt counts as stability) instead of the correct min-merge.
    /// Unstable messages then get pruned from retransmission buffers and
    /// flush payloads, so a member that missed a multicast can install
    /// the next view without it — an Agreement (Property 2.1) violation
    /// that random seed sweeps never hit but `vstool explore` finds.
    /// Off by default; never enable outside the explorer's mutation
    /// testing.
    pub broken_stability_cut: bool,
}

/// Acknowledgement state folded into a data or agreement message, so
/// stability information rides the traffic that is flowing anyway and
/// dedicated acknowledgements (heartbeats) are only needed by a member
/// that has nothing to send.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Piggyback {
    /// View the frontiers belong to (sequence numbers restart per view).
    pub view: ViewId,
    /// Ack-frontier entries, delta-encoded against the sender's last
    /// advertised cut. Values are absolute and monotone, so a lost or
    /// reordered delta leaves the receiver conservative, never wrong;
    /// full-vector heartbeats heal any residual staleness.
    pub acks: Vec<(ProcessId, u64)>,
    /// The sender's highest multicast sequence number in `view` — lets the
    /// receiver detect tail loss (messages it does not know exist).
    pub sent_upto: u64,
}

/// Wire messages exchanged between endpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Wire<M> {
    /// Liveness beacon carrying acknowledgements for the sender's current
    /// view: its whole vector on the periodic tick, or just the addressee's
    /// own entry when it acknowledges a receipt between ticks. Entries are
    /// absolute and merged monotonically, so the two mix freely.
    Heartbeat {
        /// The sender's current view.
        view: ViewId,
        /// Contiguous receive frontiers at the sender, per origin: all of
        /// them, or the addressee's alone.
        acks: BTreeMap<ProcessId, u64>,
        /// The sender's highest multicast sequence number in `view`, for
        /// tail-loss detection by the receiver.
        sent_upto: u64,
    },
    /// An application multicast (original transmission or retransmission),
    /// with the sender's piggybacked acknowledgement state.
    App(ViewMsg<M>, Option<Piggyback>),
    /// Request to resend the sender's own messages with these sequence
    /// numbers (gap repair).
    Nack {
        /// View the gap was observed in.
        view: ViewId,
        /// Missing sequence numbers of the addressee's messages.
        missing: Vec<u64>,
    },
    /// Sequencer decision under total ordering: message `id` is the
    /// `idx`-th delivery of view `view`.
    Order {
        /// View this decision belongs to.
        view: ViewId,
        /// Global delivery index (from 1).
        idx: u64,
        /// The message assigned to that index.
        id: MsgId,
    },
    /// View-agreement traffic, with the sender's piggybacked
    /// acknowledgement state (flush messages carry acks too).
    Agreement(AgreementMsg<FlushPayload<M>>, Option<Piggyback>),
    /// A point-to-point payload outside the view-synchronous multicast
    /// stream (no ordering, agreement or uniqueness guarantees). Used for
    /// bulk state transfer, which the paper explicitly wants *outside* the
    /// synchronised path (§5).
    Direct(M),
    /// Graceful leave notification: the sender is exiting the group.
    Goodbye,
}

/// One process' view-synchronous group-communication stack. Implements
/// [`Actor`]; drive it with [`vs_net::Sim`] or [`vs_net::threaded`].
///
/// Outputs a stream of [`GcsEvent`]s.
#[derive(Debug)]
pub struct GcsEndpoint<M> {
    me: ProcessId,
    config: GcsConfig,
    fd: FailureDetector,
    estimator: MembershipEstimator,
    agreement: AgreementMachine<FlushPayload<M>>,
    contacts: BTreeSet<ProcessId>,
    annotation: Bytes,
    view: View,
    my_seq: u64,
    sent: BTreeMap<u64, ViewMsg<M>>,
    /// Messages of the installed view not yet known stable, per sender and
    /// sequence number: what a flush must carry. One map per sender, so the
    /// tick drops a sender's stable prefix without visiting the rest.
    received: BTreeMap<ProcessId, BTreeMap<u64, ViewMsg<M>>>,
    delivered: BTreeSet<MsgId>,
    acks: AckTracker,
    order_buf: OrderBuffer<M>,
    next_order_idx: u64,
    pending_out: Vec<M>,
    stash: Vec<ViewMsg<M>>,
    /// Uniform mode: messages ready for delivery but not yet stable.
    held_for_stability: Vec<ViewMsg<M>>,
    left: bool,
    obs: Obs,
    /// Per-sender stable frontier last observed, for edge-triggered
    /// `StabilityAdvance` trace events.
    stab_floor: BTreeMap<ProcessId, u64>,
    /// Ack frontiers last advertised to the view (via piggyback or
    /// heartbeat) — the base of the delta encoding.
    advertised: BTreeMap<ProcessId, u64>,
    /// Per origin: the receive frontier last acknowledged to it directly
    /// by the [`ACK`] timer.
    acked: BTreeMap<ProcessId, u64>,
    /// Whether an [`ACK`] timer is pending (at most one is).
    ack_armed: bool,
    /// Per-sender retry throttle of the receiver-side tail-NACK path.
    nack_backoff: BTreeMap<ProcessId, NackState>,
    /// Per-peer grace/backoff state of the sender-side fallback
    /// retransmission (timer-driven, scoped to the lagging peer).
    resend_state: BTreeMap<ProcessId, ResendState>,
    /// View members whose heartbeats announce a *different* view id, and
    /// when the divergence was first seen. Same-membership views with
    /// different ids never differ in the estimator's eyes, so a persistent
    /// divergence must force a re-agreement or the group wedges.
    diverged: BTreeMap<ProcessId, SimTime>,
    /// Open `flush` span of the in-flight view change (child of the
    /// agreement machine's `view_change` root).
    span_flush: Option<SpanId>,
}

/// Retry throttle of the tail-NACK path towards one sender.
#[derive(Debug, Clone, Copy)]
struct NackState {
    /// Lowest sequence number missing when the last NACK went out; a gap
    /// that moves resets the backoff (progress is being made).
    oldest: u64,
    /// Earliest instant the next NACK to this sender may be sent.
    next_allowed: SimTime,
    /// Current retry delay (doubles up to [`NACK_RETRY_CAP`]).
    delay: SimDuration,
}

/// Sender-side fallback retransmission state towards one lagging peer.
#[derive(Debug, Clone, Copy)]
struct ResendState {
    /// The peer's ack frontier for our messages when last observed; an
    /// advance re-arms the grace period instead of retransmitting.
    frontier: u64,
    /// Earliest instant a fallback resend to this peer may fire.
    next_retry: SimTime,
    /// Current retry delay (doubles up to [`RESEND_CAP`]).
    delay: SimDuration,
}

type Ctx<'a, M> = Context<'a, Wire<M>, GcsEvent<M>>;

impl<M: Clone + std::fmt::Debug + 'static> GcsEndpoint<M> {
    /// Creates the endpoint for process `me`. The process starts alone in
    /// its initial singleton view and discovers peers through `contacts`
    /// (see [`set_contacts`](Self::set_contacts)).
    pub fn new(me: ProcessId, config: GcsConfig) -> Self {
        GcsEndpoint {
            me,
            config,
            fd: FailureDetector::new(me, config.detector),
            estimator: MembershipEstimator::new(
                std::iter::once(me).collect(),
                config.estimator,
            ),
            agreement: AgreementMachine::new(me, config.agreement),
            contacts: BTreeSet::new(),
            annotation: Bytes::new(),
            view: View::initial(me),
            my_seq: 0,
            sent: BTreeMap::new(),
            received: BTreeMap::new(),
            delivered: BTreeSet::new(),
            acks: AckTracker::new(),
            order_buf: OrderBuffer::new(config.ordering),
            next_order_idx: 1,
            pending_out: Vec::new(),
            stash: Vec::new(),
            held_for_stability: Vec::new(),
            left: false,
            obs: Obs::new(),
            stab_floor: BTreeMap::new(),
            advertised: BTreeMap::new(),
            acked: BTreeMap::new(),
            ack_armed: false,
            nack_backoff: BTreeMap::new(),
            resend_state: BTreeMap::new(),
            diverged: BTreeMap::new(),
            span_flush: None,
        }
    }

    /// Routes this endpoint's metrics and trace events (and those of the
    /// agreement machine it drives) into a shared observability handle.
    /// Experiments pass a clone of the simulator's [`Obs`] so the transport
    /// and protocol layers write one journal.
    pub fn set_obs(&mut self, obs: Obs) {
        self.agreement.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The observability handle this endpoint records into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Sets the processes this endpoint heartbeats towards even before they
    /// share a view — the discovery seed. In a deployment this would be a
    /// name service; experiments pass every process of the universe.
    pub fn set_contacts(&mut self, contacts: impl IntoIterator<Item = ProcessId>) {
        self.contacts = contacts.into_iter().filter(|&p| p != self.me).collect();
    }

    /// Sets the opaque annotation attached to this process' flush payloads.
    /// `vs-evs` stores the serialized subview structure here.
    pub fn set_annotation(&mut self, annotation: Bytes) {
        self.annotation = annotation;
    }

    /// The currently installed view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Whether multicasts are currently blocked by an in-flight view change.
    pub fn is_blocked(&self) -> bool {
        self.agreement.is_engaged()
    }

    /// Whether this endpoint has left the group.
    pub fn has_left(&self) -> bool {
        self.left
    }

    /// The `view_change` root span of the most recently installed view.
    /// The enriched layer parents its `eview` reconstruction span on it.
    pub fn last_view_span(&self) -> Option<SpanId> {
        self.agreement.last_view_span()
    }

    /// Multicasts `payload` to the current view (including the local
    /// process). If a view change is in progress the message is queued and
    /// multicast in the next view — it will be delivered in exactly one
    /// view either way (Property 2.2).
    pub fn mcast(&mut self, payload: M, ctx: &mut Ctx<'_, M>) {
        if self.left {
            return;
        }
        if self.is_blocked() {
            self.pending_out.push(payload);
            return;
        }
        self.do_mcast(payload, ctx);
    }

    /// Sends `payload` point-to-point to `to`, outside the view-synchronous
    /// stream: no view tagging, no flush, no agreement. The receiver sees a
    /// [`GcsEvent::DeliverDirect`]. Intended for bulk data (state-transfer
    /// chunks) that must not block view installations (§5 of the paper).
    pub fn send_direct(&mut self, to: ProcessId, payload: M, ctx: &mut Ctx<'_, M>) {
        if !self.left {
            self.post(to, Wire::Direct(payload), ctx);
        }
    }

    /// Leaves the group: notifies the current view and goes silent. Peers
    /// exclude this process through the normal view-change path.
    pub fn leave(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.left {
            return;
        }
        self.left = true;
        let peers: Vec<ProcessId> = self.view.members().iter().copied().filter(|&p| p != self.me).collect();
        ctx.send_all(peers, Wire::Goodbye);
    }

    /// The stability cut this endpoint currently observes for `sender`'s
    /// messages in the installed view: the highest sequence number known to
    /// be received by *every* view member. Messages past the cut are not
    /// stable and must survive in retransmission buffers and flush unions.
    pub fn stability_cut(&self, sender: ProcessId) -> u64 {
        self.stability_frontier_for(sender, self.view.members().iter().copied())
    }

    /// Every stability decision funnels through here: the correct
    /// min-merge cut, or — with
    /// [`GcsConfig::broken_stability_cut`] set — the seeded broken
    /// max-merge the model-checking regression suite hunts for.
    fn stability_frontier_for(
        &self,
        sender: ProcessId,
        members: impl IntoIterator<Item = ProcessId>,
    ) -> u64 {
        if self.config.broken_stability_cut {
            self.acks
                .stable_frontier_broken_max_merge(self.me, sender, members)
        } else {
            self.acks.stable_frontier(self.me, sender, members)
        }
    }

    /// Sends `msg` to `to`, recording the outbound traffic with the
    /// failure detector so it doubles as liveness evidence (heartbeat
    /// suppression feeds off this).
    fn post(&mut self, to: ProcessId, msg: Wire<M>, ctx: &mut Ctx<'_, M>) {
        self.fd.note_sent(to, ctx.now());
        ctx.send(to, msg);
    }

    /// Builds the piggyback for an outgoing message: the ack entries that
    /// advanced since the last advertised cut (`full` sends the whole
    /// vector instead — used on rare agreement traffic, where starving
    /// other peers of a delta until the next heartbeat is not worth the
    /// bookkeeping).
    fn make_piggyback(&mut self, full: bool) -> Piggyback {
        let current = self.acks.ack_vector();
        let delta: Vec<(ProcessId, u64)> = current
            .iter()
            .filter(|&(p, &k)| self.advertised.get(p).copied().unwrap_or(0) < k)
            .map(|(&p, &k)| (p, k))
            .collect();
        if !delta.is_empty() {
            self.obs.add("gcs.piggybacked_acks", delta.len() as u64);
        }
        let acks = if full {
            current.iter().map(|(&p, &k)| (p, k)).collect()
        } else {
            delta
        };
        self.advertised = current;
        Piggyback {
            view: self.view.id(),
            acks,
            sent_upto: self.my_seq,
        }
    }

    /// Merges a piggyback received from `from`, if it speaks of the
    /// installed view.
    fn absorb_piggyback(&mut self, from: ProcessId, pb: Piggyback, ctx: &mut Ctx<'_, M>) {
        if pb.view == self.view.id() && self.view.contains(from) {
            self.absorb_acks(from, pb.acks, pb.sent_upto, ctx);
        }
    }

    /// Merges ack entries heard from view member `from` (piggybacked or in
    /// a heartbeat): advances the peer's ack frontiers (monotone merge),
    /// notes the new cut of this endpoint's own messages if they moved it,
    /// releases newly stable messages, and checks the peer's send frontier
    /// for tail loss.
    fn absorb_acks(
        &mut self,
        from: ProcessId,
        acks: impl IntoIterator<Item = (ProcessId, u64)>,
        sent_upto: u64,
        ctx: &mut Ctx<'_, M>,
    ) {
        let before = self.acks.peer_frontier(from, self.me);
        self.acks.on_peer_acks(from, acks);
        if self.acks.peer_frontier(from, self.me) > before {
            // Only the cut of this endpoint's own messages is followed per
            // ack: it is the one a sender waits on. The others' cuts only
            // drive pruning and are noted by the tick.
            let cut = self.stability_cut(self.me);
            self.note_stability(self.me, cut, ctx.now());
        }
        self.release_stable(ctx);
        self.maybe_nack_tail(from, sent_upto, ctx);
    }

    /// Edge-triggered record of `sender`'s stability cut reaching `cut`:
    /// counts and journals the advance, and stamps this endpoint's own
    /// messages stable (only the sender stamps: the latency tracker is
    /// fleet-shared, and one stable sample per message is the meaningful
    /// figure).
    fn note_stability(&mut self, sender: ProcessId, cut: u64, now: SimTime) {
        if cut <= self.stab_floor.get(&sender).copied().unwrap_or(0) {
            return;
        }
        self.stab_floor.insert(sender, cut);
        let vid = self.view.id();
        let (me, now_us) = (self.me, now.as_micros());
        self.obs.with(|st| {
            st.metrics.inc("gcs.stability_advances");
            if sender == me {
                st.latency.on_stable(
                    &mut st.metrics,
                    vid.epoch,
                    vid.coordinator.raw(),
                    sender.raw(),
                    cut,
                    now_us,
                );
            }
            st.journal
                .record(me.raw(), now_us, EventKind::StabilityAdvance { frontier: cut });
        });
    }

    /// What `origin` has been told of this endpoint's receive frontier for
    /// its messages: the larger of the last broadcast advert and the last
    /// direct acknowledgement.
    fn told(&self, origin: ProcessId) -> u64 {
        let of = |m: &BTreeMap<ProcessId, u64>| m.get(&origin).copied().unwrap_or(0);
        of(&self.advertised).max(of(&self.acked))
    }

    /// Arms the zero-delay [`ACK`] timer if this endpoint's receive
    /// frontier for `origin` is news to it. A host looks at timers only
    /// between inbox batches, so the timer fires once the batch is done and
    /// the application has reacted: a multicast sent in reaction carries the
    /// acks itself and leaves the timer nothing to say.
    fn arm_ack(&mut self, origin: ProcessId, ctx: &mut Ctx<'_, M>) {
        if !self.ack_armed
            && origin != self.me
            && self.acks.received_frontier(origin) > self.told(origin)
        {
            self.ack_armed = true;
            ctx.set_timer(SimDuration::ZERO, ACK);
        }
    }

    /// The [`ACK`] timer fired: every view member whose frontier is still
    /// news is told it, and only it. Silent while blocked: the flush
    /// carries the unstable messages themselves.
    fn on_ack_timer(&mut self, ctx: &mut Ctx<'_, M>) {
        self.ack_armed = false;
        if self.is_blocked() {
            return;
        }
        let peers: Vec<ProcessId> = self
            .view
            .members()
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect();
        for p in peers {
            let frontier = self.acks.received_frontier(p);
            if frontier > self.told(p) {
                self.acked.insert(p, frontier);
                self.obs.inc("gcs.acks_sent");
                let ack = self.heartbeat(BTreeMap::from([(p, frontier)]));
                self.post(p, ack, ctx);
            }
        }
    }

    /// Receiver-driven repair: `from` claims to have multicast up to
    /// `sent_upto` in the current view; NACK whatever of that range is
    /// missing here, with a per-sender doubling backoff so a dead path is
    /// not flooded. Progress (the oldest missing seq moving) resets the
    /// backoff.
    fn maybe_nack_tail(&mut self, from: ProcessId, sent_upto: u64, ctx: &mut Ctx<'_, M>) {
        let frontier = self.acks.received_frontier(from);
        let missing: Vec<u64> = ((frontier + 1)..=sent_upto)
            .filter(|&s| !self.acks.has_received(from, s))
            .collect();
        let Some(&oldest) = missing.first() else {
            self.nack_backoff.remove(&from);
            return;
        };
        // A tail gap is speculative, unlike an out-of-order gap: the
        // announcement (a heartbeat or piggyback sent just after the data)
        // routinely overtakes the data message itself in flight. Hold the
        // first NACK for one grace window; if the gap is real it is still
        // there at the announcer's next beacon, and only then do we NACK
        // and start backing off.
        let now = ctx.now();
        match self.nack_backoff.get_mut(&from) {
            Some(st) if st.oldest == oldest && now < st.next_allowed => return,
            Some(st) if st.oldest == oldest => {
                st.delay = st.delay.saturating_mul(2).min(NACK_RETRY_CAP);
                st.next_allowed = now + st.delay;
            }
            _ => {
                self.nack_backoff.insert(
                    from,
                    NackState { oldest, next_allowed: now + TAIL_NACK_GRACE, delay: NACK_RETRY },
                );
                return;
            }
        }
        self.obs.inc("gcs.nacks_sent");
        let view = self.view.id();
        self.post(from, Wire::Nack { view, missing }, ctx);
    }

    /// Sender-side fallback: if a view member's ack frontier for our
    /// messages has not moved for [`RESEND_GRACE`], resend it the unacked
    /// suffix — to that peer only, with per-peer doubling backoff. The
    /// NACK path is the fast repair; this catches the pathological case
    /// where both the announcement and the NACK were lost.
    fn retransmit_lagging(&mut self, now: SimTime, ctx: &mut Ctx<'_, M>) {
        if self.my_seq == 0 || self.sent.is_empty() {
            self.resend_state.clear();
            return;
        }
        let peers: Vec<ProcessId> = self
            .view
            .members()
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect();
        for p in peers {
            let frontier = self.acks.peer_frontier(p, self.me);
            if frontier >= self.my_seq {
                self.resend_state.remove(&p);
                continue;
            }
            if self.fd.suspects(p, now) {
                // Unreachable, not lagging: it is about to be excluded by a
                // view change, or will tail-NACK the gap when it reconnects
                // and hears our send frontier again.
                continue;
            }
            let st = self.resend_state.entry(p).or_insert(ResendState {
                frontier,
                next_retry: now + RESEND_GRACE,
                delay: RESEND_GRACE,
            });
            if frontier > st.frontier {
                // The peer is catching up (acks or NACK repair in flight):
                // re-arm the grace period instead of resending.
                *st = ResendState { frontier, next_retry: now + RESEND_GRACE, delay: RESEND_GRACE };
                continue;
            }
            if now < st.next_retry {
                continue;
            }
            st.delay = st.delay.saturating_mul(2).min(RESEND_CAP);
            st.next_retry = now + st.delay;
            let resend: Vec<ViewMsg<M>> = self
                .sent
                .range((frontier + 1)..)
                .map(|(_, m)| m.clone())
                .collect();
            self.obs.add("gcs.retransmissions", resend.len() as u64);
            for m in resend {
                self.post(p, Wire::App(m, None), ctx);
            }
        }
    }

    fn do_mcast(&mut self, payload: M, ctx: &mut Ctx<'_, M>) {
        self.my_seq += 1;
        let mut msg = ViewMsg::new(self.view.id(), self.me, self.my_seq, payload);
        msg.vc = self.order_buf.make_clock(self.me, self.my_seq);
        self.sent.insert(self.my_seq, msg.clone());
        let vid = self.view.id();
        let key = stamp_key(&msg);
        let now_us = ctx.now().as_micros();
        self.obs.with(|st| {
            st.metrics.inc("gcs.mcasts");
            // Stage stamps: the submit anchors the lineage; the transport
            // hand-off happens in this same callback, so the encode stage
            // closes at the same instant.
            st.latency.on_submit(&mut st.metrics, key, now_us);
            st.latency.on_encoded(&mut st.metrics, key, now_us);
            st.journal.record(
                self.me.raw(),
                now_us,
                EventKind::McastSent {
                    epoch: vid.epoch,
                    coord: vid.coordinator.raw(),
                    seq: self.my_seq,
                },
            );
        });
        ctx.output(GcsEvent::Sent {
            view: self.view.id(),
            seq: self.my_seq,
        });
        let peers: Vec<ProcessId> = self
            .view
            .members()
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect();
        // The multicast carries the delta-encoded stability state: acks
        // ride the data while it flows; the ack timer speaks only for a
        // member with nothing to send.
        let pb = self.make_piggyback(false);
        for &p in &peers {
            self.post(p, Wire::App(msg.clone(), Some(pb.clone())), ctx);
        }
        self.offer(msg, ctx);
    }

    /// Common receive path for local and remote application messages.
    fn offer(&mut self, msg: ViewMsg<M>, ctx: &mut Ctx<'_, M>) {
        if msg.view != self.view.id() {
            return; // a different view's message: Uniqueness forbids delivery
        }
        let held = self.received.get(&msg.id.sender);
        if held.is_some_and(|m| m.contains_key(&msg.id.seq)) || self.delivered.contains(&msg.id) {
            return; // duplicate (Integrity)
        }
        let gaps = self.acks.on_receive(msg.id.sender, msg.id.seq);
        if !gaps.is_empty() && msg.id.sender != self.me {
            self.obs.inc("gcs.nacks_sent");
            let nack = Wire::Nack {
                view: self.view.id(),
                missing: gaps,
            };
            self.post(msg.id.sender, nack, ctx);
        }
        self.received
            .entry(msg.id.sender)
            .or_default()
            .insert(msg.id.seq, msg.clone());
        self.arm_ack(msg.id.sender, ctx);
        // First acceptance at this endpoint closes the wire stage (the
        // sender's own offer closes it at zero).
        let key = stamp_key(&msg);
        let me = self.me.raw();
        let now_us = ctx.now().as_micros();
        self.obs
            .with(|st| st.latency.on_receive(&mut st.metrics, key, me, now_us));
        // Total order: the view leader sequences every fresh message.
        if self.config.ordering == OrderingMode::Total && self.view.leader() == self.me {
            let idx = self.next_order_idx;
            self.next_order_idx += 1;
            let peers: Vec<ProcessId> = self
                .view
                .members()
                .iter()
                .copied()
                .filter(|&p| p != self.me)
                .collect();
            let order = Wire::Order {
                view: self.view.id(),
                idx,
                id: msg.id,
            };
            for &p in &peers {
                self.post(p, order.clone(), ctx);
            }
            let id = msg.id;
            let mut ready = self.order_buf.insert(msg);
            ready.extend(self.order_buf.on_order(idx, id));
            for m in ready {
                self.deliver(m, ctx);
            }
            return;
        }
        let ready = self.order_buf.insert(msg);
        for m in ready {
            self.deliver(m, ctx);
        }
    }

    fn deliver(&mut self, msg: ViewMsg<M>, ctx: &mut Ctx<'_, M>) {
        // The ordering buffer released the message: the order-hold stage
        // ends here; whatever follows is the uniform stability hold.
        let key = stamp_key(&msg);
        let me = self.me.raw();
        let now_us = ctx.now().as_micros();
        self.obs
            .with(|st| st.latency.on_order_release(&mut st.metrics, key, me, now_us));
        if self.config.uniform {
            // Uniform delivery: hold until the message is stable. (The
            // flush protocol delivers whatever is still held at a view
            // change — by then its delivery is agreed among all
            // survivors, which is the uniformity condition.)
            let members: Vec<ProcessId> = self.view.members().iter().copied().collect();
            let frontier = self.stability_frontier_for(msg.id.sender, members.iter().copied());
            if msg.id.seq > frontier {
                self.held_for_stability.push(msg);
                return;
            }
        }
        self.deliver_now(msg, ctx);
    }

    fn deliver_now(&mut self, msg: ViewMsg<M>, ctx: &mut Ctx<'_, M>) {
        if !self.delivered.insert(msg.id) {
            return;
        }
        let key = stamp_key(&msg);
        self.obs.with(|st| {
            st.metrics.inc("gcs.delivered");
            st.latency
                .on_deliver(&mut st.metrics, key, self.me.raw(), ctx.now().as_micros());
            st.journal.record(
                self.me.raw(),
                ctx.now().as_micros(),
                EventKind::McastDeliver {
                    epoch: msg.view.epoch,
                    coord: msg.view.coordinator.raw(),
                    sender: msg.id.sender.raw(),
                    seq: msg.id.seq,
                },
            );
        });
        ctx.output(GcsEvent::Deliver {
            view: msg.view,
            sender: msg.id.sender,
            seq: msg.id.seq,
            payload: msg.payload,
        });
    }

    /// Uniform mode: release held messages that have become stable.
    fn release_stable(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.held_for_stability.is_empty() {
            return;
        }
        let members: Vec<ProcessId> = self.view.members().iter().copied().collect();
        let held = std::mem::take(&mut self.held_for_stability);
        for msg in held {
            let frontier = self.stability_frontier_for(msg.id.sender, members.iter().copied());
            if msg.id.seq <= frontier {
                self.deliver_now(msg, ctx);
            } else {
                self.held_for_stability.push(msg);
            }
        }
    }

    fn heartbeat_targets(&self) -> BTreeSet<ProcessId> {
        self.contacts
            .iter()
            .copied()
            .chain(self.view.members().iter().copied())
            .chain(self.fd.known())
            .filter(|&p| p != self.me)
            .collect()
    }

    /// A heartbeat of the installed view carrying `acks`.
    fn heartbeat(&self, acks: BTreeMap<ProcessId, u64>) -> Wire<M> {
        Wire::Heartbeat {
            view: self.view.id(),
            acks,
            sent_upto: self.my_seq,
        }
    }

    /// Liveness beacon + the full-vector stability round, to every
    /// heartbeat target that needs one.
    fn send_heartbeats(&mut self, now: SimTime, ctx: &mut Ctx<'_, M>) {
        // A peer that recently received any traffic from us — data with
        // piggybacked acks, agreement messages, a direct ack or an earlier
        // beacon — already holds fresh liveness evidence, so its beacon is
        // suppressed; full-vector heartbeats remain the way third parties
        // learn a frontier nobody multicast after, and heal piggyback
        // deltas and direct acks lost in flight.
        // A beacon carrying *news* (the ack vector moved since it was last
        // advertised) is never suppressed: receivers' acks are what advance
        // the stability cut — and what uniform delivery waits on — so fresh
        // acks must not idle out a beacon period.
        let acks = self.acks.ack_vector();
        let fresh_acks = acks != self.advertised;
        let needed: Vec<ProcessId> = self
            .heartbeat_targets()
            .into_iter()
            .filter(|&p| {
                if fresh_acks || self.fd.should_heartbeat(p, now) {
                    true
                } else {
                    self.obs.inc("fd.heartbeats_suppressed");
                    false
                }
            })
            .collect();
        if !needed.is_empty() {
            self.advertised = acks.clone();
            let hb = self.heartbeat(acks);
            for p in needed {
                self.post(p, hb.clone(), ctx);
            }
        }
    }

    /// Membership estimation: feeds the trusted set to the estimator and
    /// starts an agreement if this endpoint coordinates the change. Runs on
    /// every tick, and at once when a message makes its sender newly
    /// trusted.
    fn estimate_membership(&mut self, now: SimTime, ctx: &mut Ctx<'_, M>) {
        self.fd.poll_transitions(now, &self.obs);
        let trusted = self.fd.trusted(now);
        // Views with identical membership but different ids look settled to
        // the estimator, so a persistent id divergence (a member beaconing
        // another view past the debounce window) must force a re-agreement
        // from whoever coordinates the trusted set — otherwise the group
        // wedges in incompatible views it can never reconcile.
        let debounce = self.config.estimator.debounce;
        let first_diverged = self.diverged.values().min().copied();
        let stuck = !self.agreement.is_engaged()
            && !self.estimator.is_in_progress()
            && trusted.iter().next() == Some(&self.me)
            && first_diverged.is_some_and(|since| now.saturating_since(since) >= debounce);
        if stuck {
            self.diverged.clear();
            self.agreement.note_detection(first_diverged.unwrap_or(now));
            self.estimator.agreement_started();
            let actions = self.agreement.start(trusted.clone(), now);
            self.process_agreement(actions, ctx);
            return;
        }
        // Every process this endpoint knows of is trusted: the candidate
        // cannot grow, so the estimator need not wait for it to settle.
        let complete = self.heartbeat_targets().is_subset(&trusted);
        if let Some(candidate) = self.estimator.observe(trusted, complete, now) {
            // Anchor the `detect` span of the coming lineage at the first
            // evidence — the instant the trusted set left the installed
            // view — also at non-coordinators, whose engagement only starts
            // at Prepare.
            self.agreement
                .note_detection(self.estimator.diverged_since().unwrap_or(now));
            if candidate.iter().next() == Some(&self.me) {
                self.estimator.agreement_started();
                let actions = self.agreement.start(candidate, now);
                self.process_agreement(actions, ctx);
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, M>) {
        let now = ctx.now();
        // 1. Heartbeats.
        self.send_heartbeats(now, ctx);
        // 2. Membership estimation.
        self.estimate_membership(now, ctx);
        // 3. Agreement timeouts.
        let actions = self.agreement.on_tick(now);
        self.process_agreement(actions, ctx);
        // 4. Stability pruning: messages everyone has can never matter to a
        //    flush again. Each view member's cut is computed once, and its
        //    stable prefix is split off: the cost is what is dropped, not
        //    what is kept.
        let members: Vec<ProcessId> = self.view.members().iter().copied().collect();
        for &s in &members {
            let cut = self.stability_frontier_for(s, members.iter().copied());
            self.note_stability(s, cut, now);
            if let Some(held) = self.received.get_mut(&s) {
                *held = held.split_off(&(cut + 1));
            }
            if s == self.me {
                self.sent = self.sent.split_off(&(cut + 1));
            }
        }
        // 5. Fallback retransmission towards peers whose acks stalled —
        //    scoped to the lagging peer and its unacked suffix only.
        if !self.agreement.is_engaged() {
            self.retransmit_lagging(now, ctx);
        }
        // 6. Re-arm.
        ctx.set_timer(self.config.detector.heartbeat_every, TICK);
    }

    fn process_agreement(
        &mut self,
        actions: Vec<AgreementAction<FlushPayload<M>>>,
        ctx: &mut Ctx<'_, M>,
    ) {
        let mut work = actions;
        while !work.is_empty() {
            let mut next = Vec::new();
            for action in work {
                match action {
                    AgreementAction::Send(to, msg) => {
                        // Flush/agreement traffic carries acks too (full
                        // vector: these messages are rare and per-peer).
                        let pb = self.make_piggyback(true);
                        self.post(to, Wire::Agreement(msg, Some(pb)), ctx);
                    }
                    AgreementAction::NeedPayload { proposal } => {
                        if !self.estimator.is_in_progress() {
                            self.estimator.agreement_started();
                        }
                        ctx.output(GcsEvent::Blocked);
                        if self.span_flush.is_none() {
                            self.span_flush = Some(self.obs.span_start(
                                self.me.raw(),
                                ctx.now().as_micros(),
                                "flush",
                                self.agreement.current_view_span(),
                                proposal.epoch,
                            ));
                        }
                        // In flush order already: by sender, then sequence.
                        let unstable: Vec<ViewMsg<M>> =
                            self.received.values().flat_map(BTreeMap::values).cloned().collect();
                        self.obs.with(|st| {
                            st.metrics.inc("gcs.flush_rounds");
                            st.journal.record(
                                self.me.raw(),
                                ctx.now().as_micros(),
                                EventKind::FlushRound {
                                    epoch: proposal.epoch,
                                    pending: unstable.len() as u32,
                                },
                            );
                        });
                        let payload = FlushPayload {
                            unstable,
                            annotation: self.annotation.clone(),
                        };
                        next.extend(self.agreement.provide_payload(proposal, payload));
                    }
                    AgreementAction::Install { view, replies } => {
                        self.install(view, replies, ctx);
                    }
                    AgreementAction::Abandoned => {
                        self.estimator.agreement_failed();
                        if let Some(f) = self.span_flush.take() {
                            self.obs.span_end(f, ctx.now().as_micros());
                        }
                        ctx.output(GcsEvent::FlushAbandoned);
                        // Replay messages that arrived during the aborted
                        // flush: the view did not change, they are live.
                        for msg in std::mem::take(&mut self.stash) {
                            self.offer(msg, ctx);
                        }
                        for payload in std::mem::take(&mut self.pending_out) {
                            self.do_mcast(payload, ctx);
                        }
                    }
                }
            }
            work = next;
        }
    }

    fn install(
        &mut self,
        view: View,
        replies: Vec<(ProcessId, ViewId, FlushPayload<M>)>,
        ctx: &mut Ctx<'_, M>,
    ) {
        // Synchronised deliveries of the old view, before anything else.
        let prev = self.view.id();
        let now_us = ctx.now().as_micros();
        let epoch = view.id().epoch;
        // The agreement machine already closed detect/agree and handed us
        // the lineage root; flush covers the synchronised deliveries, and a
        // commit that skipped the local block phase still gets a
        // zero-length flush so every install has a complete breakdown.
        let root = self.agreement.last_view_span();
        let flush = self.span_flush.take().unwrap_or_else(|| {
            self.obs
                .span_start(self.me.raw(), now_us, "flush", root, epoch)
        });
        let deliveries = flush_deliveries(prev, &self.delivered, &replies);
        self.obs.with(|st| {
            st.metrics.inc("gcs.views_installed");
            st.metrics.add("gcs.flush_deliveries", deliveries.len() as u64);
        });
        for msg in deliveries {
            self.deliver_now(msg, ctx);
        }
        self.obs.span_retag_epoch(flush, epoch);
        self.obs.span_end(flush, now_us);
        let inst = self.obs.span_start(self.me.raw(), now_us, "install", root, epoch);
        // Reset per-view multicast state.
        self.view = view.clone();
        self.my_seq = 0;
        self.sent.clear();
        self.received.clear();
        self.delivered.clear();
        self.acks = AckTracker::new();
        self.order_buf = OrderBuffer::new(self.config.ordering);
        self.next_order_idx = 1;
        self.stash.clear();
        self.held_for_stability.clear();
        self.stab_floor.clear();
        self.advertised.clear();
        self.acked.clear();
        self.nack_backoff.clear();
        self.resend_state.clear();
        self.diverged.clear();
        self.estimator.view_installed(view.members().clone());
        let provenance: Vec<Provenance> = replies
            .iter()
            .map(|(p, vid, payload)| Provenance {
                member: *p,
                prev_view: *vid,
                annotation: payload.annotation.clone(),
            })
            .collect();
        // The group-level view event is recorded *after* the flush
        // deliveries above, so the monitor's delivery-set freeze for the
        // old view observes the complete synchronised closure.
        self.obs.with(|st| {
            st.journal.record(
                self.me.raw(),
                now_us,
                EventKind::GroupView {
                    epoch,
                    coord: view.id().coordinator.raw(),
                    members: view.len() as u32,
                },
            );
        });
        self.obs.span_end(inst, now_us);
        if let Some(r) = root {
            self.obs.span_end(r, now_us);
        }
        ctx.output(GcsEvent::ViewChange { view, provenance });
        // Multicasts queued during the block phase go out in the new view.
        for payload in std::mem::take(&mut self.pending_out) {
            self.do_mcast(payload, ctx);
        }
    }
}

impl<M: Clone + std::fmt::Debug + 'static> Actor for GcsEndpoint<M> {
    type Msg = Wire<M>;
    type Output = GcsEvent<M>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        ctx.output(GcsEvent::ViewChange {
            view: self.view.clone(),
            provenance: vec![Provenance {
                member: self.me,
                prev_view: self.view.id(),
                annotation: Bytes::new(),
            }],
        });
        // Beacon at once rather than on the first tick: whoever hears it
        // trusts this process one hop from now.
        self.send_heartbeats(ctx.now(), ctx);
        ctx.set_timer(self.config.detector.heartbeat_every, TICK);
    }

    fn on_message(&mut self, from: ProcessId, msg: Wire<M>, ctx: &mut Ctx<'_, M>) {
        if self.left {
            return;
        }
        // A sender that has just become trusted is positive evidence of a
        // membership change: it gets one beacon back, so it trusts this
        // process a hop later instead of a tick later, and the estimator
        // looks at once. A goodbye is evidence of the opposite.
        let newly_trusted = self.fd.heard_from(from, ctx.now()) && !matches!(msg, Wire::Goodbye);
        match msg {
            Wire::Heartbeat { view, acks, sent_upto } => {
                if self.view.contains(from) {
                    // A view member beaconing a different view id has moved
                    // on without us (or we without it): note when the
                    // divergence started so the tick can force a merge if
                    // it persists (see `estimate_membership`).
                    if view == self.view.id() {
                        self.diverged.remove(&from);
                    } else {
                        self.diverged.entry(from).or_insert(ctx.now());
                    }
                }
                if view == self.view.id() && self.view.contains(from) {
                    self.absorb_acks(from, acks, sent_upto, ctx);
                }
            }
            Wire::App(msg, pb) => {
                if let Some(pb) = pb {
                    self.absorb_piggyback(from, pb, ctx);
                }
                if self.is_blocked() {
                    // Received mid-flush: its fate is decided by the flush
                    // union; keep it aside in case the flush is abandoned.
                    if msg.view == self.view.id() {
                        self.stash.push(msg);
                    }
                } else {
                    self.offer(msg, ctx);
                }
            }
            Wire::Nack { view, missing } => {
                if view == self.view.id() {
                    for seq in missing {
                        if let Some(m) = self.sent.get(&seq) {
                            self.obs.inc("gcs.retransmissions");
                            let m = m.clone();
                            self.post(from, Wire::App(m, None), ctx);
                        }
                    }
                }
            }
            Wire::Order { view, idx, id } => {
                if view == self.view.id() {
                    let ready = self.order_buf.on_order(idx, id);
                    for m in ready {
                        self.deliver(m, ctx);
                    }
                }
            }
            Wire::Agreement(am, pb) => {
                if let Some(pb) = pb {
                    self.absorb_piggyback(from, pb, ctx);
                }
                let now = ctx.now();
                let actions = self.agreement.handle(from, am, now);
                self.process_agreement(actions, ctx);
            }
            Wire::Direct(payload) => {
                ctx.output(GcsEvent::DeliverDirect { from, payload });
            }
            Wire::Goodbye => {
                self.fd.forget(from);
            }
        }
        if newly_trusted {
            let hb = self.heartbeat(self.acks.ack_vector());
            self.post(from, hb, ctx);
            self.estimate_membership(ctx.now(), ctx);
        }
    }

    fn on_timer(&mut self, _timer: TimerId, kind: TimerKind, ctx: &mut Ctx<'_, M>) {
        if self.left {
            return;
        }
        match kind {
            TICK => self.on_tick(ctx),
            ACK => self.on_ack_timer(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_net::{Sim, SimConfig, SimDuration};

    type E = GcsEndpoint<String>;

    /// Spawns `n` endpoints that all know about each other and lets the
    /// group form.
    fn group(seed: u64, n: usize) -> (Sim<E>, Vec<ProcessId>) {
        let mut sim: Sim<E> = Sim::new(seed, SimConfig::default());
        let mut pids = Vec::new();
        for _ in 0..n {
            let site = sim.alloc_site();
            let pid = sim.spawn_with(site, |pid| E::new(pid, GcsConfig::default()));
            pids.push(pid);
        }
        let all = pids.clone();
        for &p in &pids {
            sim.invoke(p, |e, _| e.set_contacts(all.iter().copied()));
        }
        sim.run_for(SimDuration::from_millis(500));
        (sim, pids)
    }

    fn latest_view(sim: &Sim<E>, p: ProcessId) -> View {
        sim.actor(p).unwrap().view().clone()
    }

    #[test]
    fn singletons_merge_into_one_view() {
        let (sim, pids) = group(1, 4);
        let v0 = latest_view(&sim, pids[0]);
        assert_eq!(v0.len(), 4, "all four merged: {v0}");
        for &p in &pids[1..] {
            assert_eq!(latest_view(&sim, p).id(), v0.id(), "same view everywhere");
        }
    }

    #[test]
    fn multicast_reaches_every_member_exactly_once() {
        let (mut sim, pids) = group(2, 3);
        sim.drain_outputs();
        sim.invoke(pids[1], |e, ctx| e.mcast("hello".to_string(), ctx));
        sim.run_for(SimDuration::from_millis(200));
        let deliveries: Vec<(ProcessId, ProcessId, u64)> = sim
            .outputs()
            .iter()
            .filter_map(|(_, p, ev)| ev.as_delivery().map(|(_, s, q)| (*p, s, q)))
            .collect();
        assert_eq!(deliveries.len(), 3, "one delivery per member");
        assert!(deliveries.iter().all(|(_, s, _)| *s == pids[1]));
        let receivers: BTreeSet<ProcessId> = deliveries.iter().map(|(p, _, _)| *p).collect();
        assert_eq!(receivers.len(), 3);
    }

    #[test]
    fn crash_shrinks_the_view() {
        let (mut sim, pids) = group(3, 3);
        sim.crash(pids[2]);
        sim.run_for(SimDuration::from_millis(500));
        let v = latest_view(&sim, pids[0]);
        assert_eq!(v.len(), 2, "crashed member excluded: {v}");
        assert!(!v.contains(pids[2]));
        assert_eq!(latest_view(&sim, pids[1]).id(), v.id());
    }

    #[test]
    fn partition_makes_concurrent_views_and_heal_merges_them() {
        let (mut sim, pids) = group(4, 4);
        sim.partition(&[vec![pids[0], pids[1]], vec![pids[2], pids[3]]]);
        sim.run_for(SimDuration::from_millis(500));
        let va = latest_view(&sim, pids[0]);
        let vb = latest_view(&sim, pids[2]);
        assert_eq!(va.len(), 2);
        assert_eq!(vb.len(), 2);
        assert_ne!(va.id(), vb.id(), "concurrent views in concurrent partitions");
        sim.heal();
        sim.run_for(SimDuration::from_millis(700));
        let v = latest_view(&sim, pids[0]);
        assert_eq!(v.len(), 4, "merged back: {v}");
        for &p in &pids[1..] {
            assert_eq!(latest_view(&sim, p).id(), v.id());
        }
    }

    #[test]
    fn message_sent_during_flush_is_not_lost_if_queued() {
        let (mut sim, pids) = group(5, 3);
        // Trigger a view change and immediately multicast: the message is
        // queued and goes out in the new view.
        sim.crash(pids[2]);
        sim.run_for(SimDuration::from_millis(40));
        sim.drain_outputs();
        sim.invoke(pids[0], |e, ctx| e.mcast("late".to_string(), ctx));
        sim.run_for(SimDuration::from_millis(800));
        let deliveries: Vec<ProcessId> = sim
            .outputs()
            .iter()
            .filter_map(|(_, p, ev)| ev.as_delivery().map(|_| *p))
            .collect();
        assert_eq!(deliveries.len(), 2, "delivered at both survivors");
    }

    #[test]
    fn graceful_leave_shrinks_the_view_quickly() {
        let (mut sim, pids) = group(6, 3);
        sim.invoke(pids[1], |e, ctx| e.leave(ctx));
        sim.run_for(SimDuration::from_millis(500));
        let v = latest_view(&sim, pids[0]);
        assert_eq!(v.len(), 2);
        assert!(!v.contains(pids[1]));
        assert!(sim.actor(pids[1]).unwrap().has_left());
    }

    #[test]
    fn lossy_links_do_not_break_delivery() {
        let mut config = SimConfig::default();
        config.link.loss = 0.2;
        let mut sim: Sim<E> = Sim::new(7, config);
        let mut pids = Vec::new();
        for _ in 0..3 {
            let site = sim.alloc_site();
            pids.push(sim.spawn_with(site, |pid| E::new(pid, GcsConfig::default())));
        }
        let all = pids.clone();
        for &p in &pids {
            sim.invoke(p, |e, _| e.set_contacts(all.iter().copied()));
        }
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(latest_view(&sim, pids[0]).len(), 3);
        sim.drain_outputs();
        for i in 0..5 {
            sim.invoke(pids[0], |e, ctx| e.mcast(format!("m{i}"), ctx));
        }
        sim.run_for(SimDuration::from_secs(2));
        // Count deliveries at the non-sender members; retransmission must
        // repair the 20% loss.
        let mut per_member: BTreeMap<ProcessId, usize> = BTreeMap::new();
        for (_, p, ev) in sim.outputs() {
            if ev.as_delivery().is_some() {
                *per_member.entry(*p).or_insert(0) += 1;
            }
        }
        // A view change caused by loss-induced false suspicion may dissolve
        // the group temporarily, but messages multicast in a view every
        // member stayed in must arrive everywhere.
        for (&p, &n) in &per_member {
            assert!(n >= 1, "{p} delivered nothing");
        }
        assert_eq!(
            per_member.get(&pids[0]).copied().unwrap_or(0),
            5,
            "sender delivers its own multicasts"
        );
    }

    #[test]
    fn sequence_numbers_restart_per_view() {
        let (mut sim, pids) = group(8, 3);
        sim.invoke(pids[0], |e, ctx| e.mcast("a".into(), ctx));
        sim.run_for(SimDuration::from_millis(100));
        sim.crash(pids[2]);
        sim.run_for(SimDuration::from_millis(500));
        sim.drain_outputs();
        sim.invoke(pids[0], |e, ctx| e.mcast("b".into(), ctx));
        sim.run_for(SimDuration::from_millis(100));
        let seqs: Vec<u64> = sim
            .outputs()
            .iter()
            .filter_map(|(_, _, ev)| ev.as_delivery().map(|(_, _, s)| s))
            .collect();
        assert!(seqs.iter().all(|&s| s == 1), "fresh view, fresh seq: {seqs:?}");
    }

    #[test]
    fn uniform_delivery_waits_for_stability() {
        let mut sim: Sim<E> = Sim::new(20, SimConfig::default());
        let mut pids = Vec::new();
        for _ in 0..3 {
            let site = sim.alloc_site();
            pids.push(sim.spawn_with(site, |pid| {
                E::new(pid, GcsConfig { uniform: true, ..GcsConfig::default() })
            }));
        }
        let all = pids.clone();
        for &p in &pids {
            sim.invoke(p, |e, _| e.set_contacts(all.iter().copied()));
        }
        sim.run_for(SimDuration::from_millis(500));
        sim.drain_outputs();
        sim.invoke(pids[0], |e, ctx| e.mcast("uniform".to_string(), ctx));
        // Delivery needs receipt everywhere plus an acknowledgement round
        // (piggybacked on ~10ms heartbeats); within 2ms nobody delivers.
        sim.run_for(SimDuration::from_millis(2));
        let early = sim
            .outputs()
            .iter()
            .filter(|(_, _, ev)| ev.as_delivery().is_some())
            .count();
        assert_eq!(early, 0, "no delivery before stability");
        sim.run_for(SimDuration::from_millis(300));
        let total = sim
            .outputs()
            .iter()
            .filter(|(_, _, ev)| ev.as_delivery().is_some())
            .count();
        assert_eq!(total, 3, "all deliver once stable");
    }

    #[test]
    fn uniform_delivery_is_all_or_nothing_across_a_crash() {
        // The uniformity guarantee: if ANY process delivered a message in
        // view v, every survivor of v delivers it too — even though the
        // sender crashes right after multicasting.
        for seed in 0..6 {
            let mut sim: Sim<E> = Sim::new(30 + seed, SimConfig::default());
            let mut pids = Vec::new();
            for _ in 0..4 {
                let site = sim.alloc_site();
                pids.push(sim.spawn_with(site, |pid| {
                    E::new(pid, GcsConfig { uniform: true, ..GcsConfig::default() })
                }));
            }
            let all = pids.clone();
            for &p in &pids {
                sim.invoke(p, |e, _| e.set_contacts(all.iter().copied()));
            }
            sim.run_for(SimDuration::from_millis(500));
            sim.drain_outputs();
            sim.invoke(pids[3], |e, ctx| e.mcast("last words".to_string(), ctx));
            // Crash the sender at a seed-dependent instant inside the
            // stabilisation window.
            sim.run_for(SimDuration::from_micros(500 + seed * 3_000));
            sim.crash(pids[3]);
            sim.run_for(SimDuration::from_secs(1));
            let deliverers: BTreeSet<ProcessId> = sim
                .outputs()
                .iter()
                .filter(|(_, _, ev)| ev.as_delivery().is_some())
                .map(|(_, p, _)| *p)
                .collect();
            let survivors: BTreeSet<ProcessId> = pids[..3].iter().copied().collect();
            assert!(
                deliverers.is_empty() || deliverers.is_superset(&survivors),
                "seed {seed}: uniformity violated — only {deliverers:?} delivered"
            );
        }
    }

    #[test]
    fn shared_obs_collects_protocol_metrics_and_traces() {
        let mut sim: Sim<E> = Sim::new(11, SimConfig::default());
        let obs = sim.obs().clone();
        let mut pids = Vec::new();
        for _ in 0..3 {
            let site = sim.alloc_site();
            pids.push(sim.spawn_with(site, |pid| E::new(pid, GcsConfig::default())));
        }
        let all = pids.clone();
        for &p in &pids {
            let (obs, all) = (obs.clone(), all.clone());
            sim.invoke(p, move |e, _| {
                e.set_contacts(all.iter().copied());
                e.set_obs(obs);
            });
        }
        sim.run_for(SimDuration::from_millis(500));
        sim.invoke(pids[0], |e, ctx| e.mcast("traced".to_string(), ctx));
        sim.run_for(SimDuration::from_millis(100));
        sim.crash(pids[2]);
        sim.run_for(SimDuration::from_millis(500));

        // Transport and protocol layers wrote into one registry.
        assert!(obs.counter("net.sent") > 0, "transport counters");
        assert_eq!(obs.counter("gcs.mcasts"), 1);
        assert!(obs.counter("gcs.delivered") >= 3);
        assert!(obs.counter("gcs.views_installed") >= 2, "merge + exclusion");
        assert!(obs.counter("membership.views_installed") >= 2);
        assert!(obs.counter("fd.suspicions_raised") >= 1, "crash suspected");
        assert!(obs.counter("gcs.flush_rounds") >= 1);
        let snap = obs.metrics_snapshot();
        assert!(
            snap.histogram("membership.view_change_latency_us")
                .map(|h| h.count() > 0)
                .unwrap_or(false),
            "view-change latency histogram populated"
        );
        // The journal holds protocol events for the survivors (the dense
        // transport events share the ring, so scan its full depth).
        let names: Vec<&'static str> = obs
            .tail(pids[0].raw(), vs_obs::DEFAULT_JOURNAL_CAPACITY)
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert!(names.contains(&"view_install"), "{names:?}");
        assert!(names.contains(&"view_change_start"), "{names:?}");
    }

    #[test]
    fn stash_replayed_after_an_abandoned_flush_is_acked_at_once() {
        let (mut sim, pids) = group(12, 3);
        let (origin, me) = (pids[0], pids[1]);
        let view = latest_view(&sim, me).id();
        // A copy that arrived mid-flush waits in the stash; the coordinator
        // goes silent and the flush is abandoned.
        sim.invoke(me, |e, ctx| {
            e.stash.push(ViewMsg::new(view, origin, 1, "mid-flush".to_string()));
            e.process_agreement(vec![AgreementAction::Abandoned], ctx);
            assert!(e.ack_armed, "the replayed receipt moved a frontier");
        });
        let sent = sim.stats().sent;
        // The ack timer is an event of this same instant.
        sim.run_until(sim.now());
        let e = sim.actor(me).unwrap();
        assert!(!e.ack_armed);
        assert_eq!(e.obs().counter("gcs.acks_sent"), 1);
        assert_eq!(sim.stats().sent, sent + 1, "one ack, to the origin only");
    }

    #[test]
    fn blocked_state_is_reported() {
        let (mut sim, pids) = group(9, 3);
        sim.drain_outputs();
        sim.crash(pids[2]);
        sim.run_for(SimDuration::from_millis(500));
        let blocked = sim
            .outputs()
            .iter()
            .any(|(_, _, ev)| matches!(ev, GcsEvent::Blocked));
        assert!(blocked, "view change must pass through the blocked phase");
    }
}
