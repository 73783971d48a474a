//! Per-message latency attribution: stage stamps over a multicast's life.
//!
//! A multicast's end-to-end delivery latency is the sum of distinct holds
//! the stack imposes — encoding, the wire, the causal/total-order buffer,
//! the uniform-delivery stability hold — but a single end-to-end histogram
//! cannot say *where* a microsecond went. The [`LatencyTracker`] keeps a
//! bounded table of in-flight stamps keyed by message identity
//! ([`StampKey`]: view epoch + coordinator + sender + sequence number) and
//! turns lifecycle callbacks from the GCS endpoint into per-stage
//! histograms:
//!
//! | histogram                  | interval                                    |
//! |----------------------------|---------------------------------------------|
//! | `stage.encode_us`          | submit → transport hand-off at the sender    |
//! | `stage.wire_us`            | submit → first receipt at this endpoint      |
//! | `stage.order_hold_us`      | receipt → released by the ordering buffer    |
//! | `stage.stability_hold_us`  | order release → delivered (uniform hold)     |
//! | `stage.delivery_total_us`  | submit → delivered (end to end)              |
//! | `stage.stable_us`          | submit → stable at the sender (acked by all) |
//! | `stage.evs_gate_us`        | GCS delivery → EVS causal-cut gate release   |
//!
//! For every fully stamped delivery the first four stages *partition* the
//! total by construction: `encode + wire + order_hold + stability_hold ==
//! delivery_total` exactly, so a breakdown always sums to the end-to-end
//! figure (`exp_uniform_latency` asserts this within 5%).
//!
//! The table is bounded: once [`LatencyTracker::capacity`] submits are in
//! flight the oldest entry is evicted (counted by `latency.stamps_evicted`).
//! A delivery whose submit stamp was already evicted can no longer be
//! attributed — it increments `latency.orphaned` and records **no**
//! histogram sample, so an evicted stamp can never manufacture a bogus
//! huge latency. Deliveries forced by the view-change flush for messages
//! this endpoint never received directly carry only a total
//! (`latency.flush_catchup` counts them).
//!
//! [`critical_paths`] is the companion view over the span tree: for every
//! installed view it attributes the view change's cost to its slowest
//! phase, so a fleet collector can spot the straggler stage.

use std::collections::{BTreeMap, VecDeque};

use crate::json::{Arr, Obj};
use crate::metrics::MetricsRegistry;
use crate::span::SpanLog;

/// Histogram: submit → transport hand-off at the sender.
pub const STAGE_ENCODE: &str = "stage.encode_us";
/// Histogram: submit → first receipt at a given endpoint.
pub const STAGE_WIRE: &str = "stage.wire_us";
/// Histogram: receipt → release by the causal/total ordering buffer.
pub const STAGE_ORDER_HOLD: &str = "stage.order_hold_us";
/// Histogram: order release → delivery (the uniform stability hold; zero
/// for regular delivery).
pub const STAGE_STABILITY_HOLD: &str = "stage.stability_hold_us";
/// Histogram: submit → delivery, end to end.
pub const STAGE_DELIVERY_TOTAL: &str = "stage.delivery_total_us";
/// Histogram: submit → stable at the sender (received by every member).
pub const STAGE_STABLE: &str = "stage.stable_us";
/// Histogram: GCS delivery → EVS causal-cut gate release (zero when the
/// message was not gated).
pub const STAGE_EVS_GATE: &str = "stage.evs_gate_us";

/// Counter: submit stamps evicted from the full tracker.
pub const EVICTED_COUNTER: &str = "latency.stamps_evicted";
/// Counter: deliveries whose submit stamp was already evicted (no
/// histogram sample is recorded for them).
pub const ORPHANED_COUNTER: &str = "latency.orphaned";
/// Counter: flush-forced deliveries of messages this endpoint never
/// received directly (only `stage.delivery_total_us` is recorded).
pub const FLUSH_CATCHUP_COUNTER: &str = "latency.flush_catchup";

/// The per-delivery stage histograms that partition
/// [`STAGE_DELIVERY_TOTAL`], in pipeline order.
pub const PARTITION_STAGES: &[&str] =
    &[STAGE_ENCODE, STAGE_WIRE, STAGE_ORDER_HOLD, STAGE_STABILITY_HOLD];

/// Default number of in-flight submit stamps retained.
pub const DEFAULT_STAMP_CAPACITY: usize = 8_192;

/// Fleet-unique identity of one multicast: the view it was sent in plus
/// the sender's per-view sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StampKey {
    /// Epoch of the view the message was multicast in.
    pub epoch: u64,
    /// Coordinator of that view (epochs are unique per coordinator).
    pub coord: u64,
    /// Raw id of the sending process.
    pub sender: u64,
    /// The sender's per-view sequence number.
    pub seq: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct ReceiverStamps {
    recv_us: Option<u64>,
    release_us: Option<u64>,
}

#[derive(Debug, Clone)]
struct MsgStamps {
    submit_us: u64,
    stable: bool,
    receivers: BTreeMap<u64, ReceiverStamps>,
}

/// A bounded table of in-flight stage stamps shared (via
/// [`crate::ObsState`]) by every process of a run, so the submit stamp a
/// sender wrote is visible to the receiver that computes the wire stage.
#[derive(Debug, Clone)]
pub struct LatencyTracker {
    capacity: usize,
    /// Submit order, oldest first — the eviction queue.
    order: VecDeque<StampKey>,
    stamps: BTreeMap<StampKey, MsgStamps>,
}

impl Default for LatencyTracker {
    fn default() -> Self {
        LatencyTracker::with_capacity(DEFAULT_STAMP_CAPACITY)
    }
}

impl LatencyTracker {
    /// A tracker retaining at most `capacity` in-flight submit stamps.
    pub fn with_capacity(capacity: usize) -> Self {
        LatencyTracker {
            capacity: capacity.max(1),
            order: VecDeque::new(),
            stamps: BTreeMap::new(),
        }
    }

    /// Maximum number of in-flight submit stamps retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Shrinks (or grows) the retention bound; excess oldest entries are
    /// evicted immediately and counted in `latency.stamps_evicted`.
    pub fn set_capacity(&mut self, metrics: &mut MetricsRegistry, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.order.len() > self.capacity {
            self.evict_oldest(metrics);
        }
    }

    /// Number of in-flight submit stamps currently tracked.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether no submit stamp is tracked.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    fn evict_oldest(&mut self, metrics: &mut MetricsRegistry) {
        if let Some(oldest) = self.order.pop_front() {
            self.stamps.remove(&oldest);
            metrics.inc(EVICTED_COUNTER);
        }
    }

    /// The sender submitted a multicast at `now_us`. Starts the stamp
    /// lineage; evicts the oldest entry (flagged) when the table is full.
    pub fn on_submit(&mut self, metrics: &mut MetricsRegistry, key: StampKey, now_us: u64) {
        if self.stamps.contains_key(&key) {
            return; // first submit wins
        }
        if self.order.len() >= self.capacity {
            self.evict_oldest(metrics);
        }
        self.order.push_back(key);
        self.stamps.insert(
            key,
            MsgStamps { submit_us: now_us, stable: false, receivers: BTreeMap::new() },
        );
    }

    /// The sender handed the message to the transport at `now_us`.
    pub fn on_encoded(&mut self, metrics: &mut MetricsRegistry, key: StampKey, now_us: u64) {
        if let Some(e) = self.stamps.get(&key) {
            metrics.observe(STAGE_ENCODE, now_us.saturating_sub(e.submit_us));
        }
    }

    /// Endpoint `receiver` accepted the message (post-dedup) at `now_us`.
    /// Records the wire stage. A receipt whose submit stamp was evicted is
    /// left unstamped; the eventual delivery flags it as orphaned.
    pub fn on_receive(
        &mut self,
        metrics: &mut MetricsRegistry,
        key: StampKey,
        receiver: u64,
        now_us: u64,
    ) {
        if let Some(e) = self.stamps.get_mut(&key) {
            let r = e.receivers.entry(receiver).or_default();
            if r.recv_us.is_none() {
                r.recv_us = Some(now_us);
                metrics.observe(STAGE_WIRE, now_us.saturating_sub(e.submit_us));
            }
        }
    }

    /// The ordering buffer released the message to `receiver` at `now_us`.
    pub fn on_order_release(
        &mut self,
        metrics: &mut MetricsRegistry,
        key: StampKey,
        receiver: u64,
        now_us: u64,
    ) {
        if let Some(e) = self.stamps.get_mut(&key) {
            let r = e.receivers.entry(receiver).or_default();
            if let (Some(recv), None) = (r.recv_us, r.release_us) {
                r.release_us = Some(now_us);
                metrics.observe(STAGE_ORDER_HOLD, now_us.saturating_sub(recv));
            }
        }
    }

    /// Endpoint `receiver` delivered the message to the application at
    /// `now_us`. Completes the per-delivery breakdown; orphaned and
    /// flush-catchup deliveries are flagged instead of mis-stamped.
    pub fn on_deliver(
        &mut self,
        metrics: &mut MetricsRegistry,
        key: StampKey,
        receiver: u64,
        now_us: u64,
    ) {
        let Some(e) = self.stamps.get_mut(&key) else {
            // The submit stamp is gone (bounded-table eviction): there is
            // no base to subtract from, so record the fact, not a number.
            metrics.inc(ORPHANED_COUNTER);
            return;
        };
        let r = e.receivers.entry(receiver).or_default();
        match (r.recv_us, r.release_us) {
            (Some(_), Some(release)) => {
                metrics.observe(STAGE_STABILITY_HOLD, now_us.saturating_sub(release));
            }
            (Some(recv), None) => {
                // Flush forced the delivery before the ordering buffer
                // released it: attribute the whole hold to ordering.
                r.release_us = Some(now_us);
                metrics.observe(STAGE_ORDER_HOLD, now_us.saturating_sub(recv));
                metrics.observe(STAGE_STABILITY_HOLD, 0);
            }
            (None, _) => {
                // Delivered out of a peer's flush payload without ever
                // being received here: only the total is attributable.
                metrics.inc(FLUSH_CATCHUP_COUNTER);
                metrics.observe(STAGE_DELIVERY_TOTAL, now_us.saturating_sub(e.submit_us));
                return;
            }
        }
        metrics.observe(STAGE_DELIVERY_TOTAL, now_us.saturating_sub(e.submit_us));
    }

    /// The sender's stability frontier for `(epoch, coord, sender)` reached
    /// `upto_seq` at `now_us`: every tracked message at or below it becomes
    /// stable (first advance wins per message). Call this at the sending
    /// process only, so a fleet-shared tracker records one sample per
    /// message.
    pub fn on_stable(
        &mut self,
        metrics: &mut MetricsRegistry,
        epoch: u64,
        coord: u64,
        sender: u64,
        upto_seq: u64,
        now_us: u64,
    ) {
        let lo = StampKey { epoch, coord, sender, seq: 0 };
        let hi = StampKey { epoch, coord, sender, seq: upto_seq };
        // Frontiers only grow and every call covers a whole prefix, so the
        // stable entries of a sender are a prefix too: walk down from the
        // frontier and stop at the first one an earlier call stamped.
        for (_, e) in self.stamps.range_mut(lo..=hi).rev() {
            if e.stable {
                break;
            }
            e.stable = true;
            metrics.observe(STAGE_STABLE, now_us.saturating_sub(e.submit_us));
        }
    }
}

/// One installed view's cost attributed to its slowest phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Raw id of the process that installed the view.
    pub process: u64,
    /// Epoch of the installed view.
    pub epoch: u64,
    /// Whole view-change lineage duration, microseconds.
    pub total_us: u64,
    /// Name of the slowest child phase (`detect`, `agree`, `flush`,
    /// `install` or `eview`).
    pub stage: &'static str,
    /// Duration of that phase, microseconds.
    pub stage_us: u64,
}

impl CriticalPath {
    /// Fraction of the lineage spent in the slowest phase (`0.0` when the
    /// lineage had zero length).
    pub fn fraction(&self) -> f64 {
        if self.total_us == 0 {
            0.0
        } else {
            self.stage_us as f64 / self.total_us as f64
        }
    }

    /// Renders the critical path as a JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("process", self.process)
            .u64("epoch", self.epoch)
            .u64("total_us", self.total_us)
            .str("stage", self.stage)
            .u64("stage_us", self.stage_us)
            .f64("fraction", self.fraction())
            .finish()
    }
}

/// Extracts the critical path of every *closed* `view_change` root in the
/// span log: which phase (detect/agree/flush/install/eview) dominated each
/// installed view's cost. Oldest lineage first.
pub fn critical_paths(spans: &SpanLog) -> Vec<CriticalPath> {
    let mut out = Vec::new();
    for root in spans
        .spans()
        .filter(|s| s.name == "view_change" && s.end_us.is_some())
    {
        let mut slowest: Option<(&'static str, u64)> = None;
        for child in spans.spans().filter(|s| s.parent == Some(root.id)) {
            let Some(d) = child.duration_us() else { continue };
            if slowest.map(|(_, best)| d > best).unwrap_or(true) {
                slowest = Some((child.name, d));
            }
        }
        let Some((stage, stage_us)) = slowest else { continue };
        out.push(CriticalPath {
            process: root.process,
            epoch: root.epoch,
            total_us: root.duration_us().unwrap_or(0),
            stage,
            stage_us,
        });
    }
    out
}

/// [`critical_paths`] rendered as a JSON array, oldest lineage first.
pub fn critical_paths_json(spans: &SpanLog) -> String {
    let mut arr = Arr::new();
    for cp in critical_paths(spans) {
        arr = arr.raw(&cp.to_json());
    }
    arr.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seq: u64) -> StampKey {
        StampKey { epoch: 1, coord: 0, sender: 3, seq }
    }

    #[test]
    fn full_lineage_partitions_the_total() {
        let mut t = LatencyTracker::default();
        let mut m = MetricsRegistry::new();
        t.on_submit(&mut m, key(1), 1_000);
        t.on_encoded(&mut m, key(1), 1_000);
        t.on_receive(&mut m, key(1), 7, 2_500);
        t.on_order_release(&mut m, key(1), 7, 4_000);
        t.on_deliver(&mut m, key(1), 7, 9_000);
        let stage_sum: u64 = PARTITION_STAGES
            .iter()
            .map(|s| m.histogram(s).map(|h| h.sum()).unwrap_or(0))
            .sum();
        assert_eq!(m.histogram(STAGE_ENCODE).unwrap().sum(), 0);
        assert_eq!(m.histogram(STAGE_WIRE).unwrap().sum(), 1_500);
        assert_eq!(m.histogram(STAGE_ORDER_HOLD).unwrap().sum(), 1_500);
        assert_eq!(m.histogram(STAGE_STABILITY_HOLD).unwrap().sum(), 5_000);
        assert_eq!(m.histogram(STAGE_DELIVERY_TOTAL).unwrap().sum(), 8_000);
        assert_eq!(stage_sum, 8_000, "stages partition the total exactly");
        assert_eq!(m.counter(ORPHANED_COUNTER), 0);
    }

    #[test]
    fn second_receiver_gets_its_own_breakdown() {
        let mut t = LatencyTracker::default();
        let mut m = MetricsRegistry::new();
        t.on_submit(&mut m, key(1), 0);
        for r in [4u64, 5] {
            t.on_receive(&mut m, key(1), r, 100 * r);
            t.on_order_release(&mut m, key(1), r, 100 * r);
            t.on_deliver(&mut m, key(1), r, 100 * r + 50);
        }
        assert_eq!(m.histogram(STAGE_WIRE).unwrap().count(), 2);
        assert_eq!(m.histogram(STAGE_DELIVERY_TOTAL).unwrap().count(), 2);
        assert_eq!(m.histogram(STAGE_DELIVERY_TOTAL).unwrap().max(), Some(550));
    }

    #[test]
    fn eviction_is_flagged_and_orphans_never_fabricate_samples() {
        let mut t = LatencyTracker::with_capacity(2);
        let mut m = MetricsRegistry::new();
        t.on_submit(&mut m, key(1), 10);
        t.on_submit(&mut m, key(2), 20);
        t.on_submit(&mut m, key(3), 30); // evicts key(1)
        assert_eq!(m.counter(EVICTED_COUNTER), 1);
        // key(1) delivers long after its submit stamp was evicted: the
        // delivery is flagged, and no histogram picks up a bogus value.
        t.on_receive(&mut m, key(1), 9, 1_000_000);
        t.on_order_release(&mut m, key(1), 9, 1_000_000);
        t.on_deliver(&mut m, key(1), 9, 1_000_000);
        assert_eq!(m.counter(ORPHANED_COUNTER), 1);
        assert!(m.histogram(STAGE_DELIVERY_TOTAL).is_none());
        assert!(m.histogram(STAGE_WIRE).is_none());
        // A surviving stamp still attributes normally and stays bounded.
        t.on_receive(&mut m, key(2), 9, 25);
        t.on_order_release(&mut m, key(2), 9, 25);
        t.on_deliver(&mut m, key(2), 9, 40);
        let h = m.histogram(STAGE_DELIVERY_TOTAL).unwrap();
        assert_eq!((h.count(), h.max()), (1, Some(20)));
    }

    #[test]
    fn flush_catchup_records_total_only() {
        let mut t = LatencyTracker::default();
        let mut m = MetricsRegistry::new();
        t.on_submit(&mut m, key(1), 100);
        // Delivered straight out of a flush payload, never received here.
        t.on_deliver(&mut m, key(1), 8, 600);
        assert_eq!(m.counter(FLUSH_CATCHUP_COUNTER), 1);
        assert_eq!(m.histogram(STAGE_DELIVERY_TOTAL).unwrap().sum(), 500);
        assert!(m.histogram(STAGE_WIRE).is_none());
    }

    #[test]
    fn flush_forced_delivery_attributes_hold_to_ordering() {
        let mut t = LatencyTracker::default();
        let mut m = MetricsRegistry::new();
        t.on_submit(&mut m, key(1), 0);
        t.on_receive(&mut m, key(1), 2, 10);
        // Flush delivers before the ordering buffer released it.
        t.on_deliver(&mut m, key(1), 2, 110);
        assert_eq!(m.histogram(STAGE_ORDER_HOLD).unwrap().sum(), 100);
        assert_eq!(m.histogram(STAGE_STABILITY_HOLD).unwrap().sum(), 0);
        assert_eq!(m.histogram(STAGE_DELIVERY_TOTAL).unwrap().sum(), 110);
    }

    #[test]
    fn stability_advances_stamp_each_message_once() {
        let mut t = LatencyTracker::default();
        let mut m = MetricsRegistry::new();
        for seq in 1..=3 {
            t.on_submit(&mut m, key(seq), seq * 10);
        }
        t.on_stable(&mut m, 1, 0, 3, 2, 100);
        let h = m.histogram(STAGE_STABLE).unwrap();
        assert_eq!((h.count(), h.sum()), (2, 90 + 80));
        // Re-advancing over the same range adds nothing; extending it
        // stamps only the newly covered message.
        t.on_stable(&mut m, 1, 0, 3, 3, 200);
        let h = m.histogram(STAGE_STABLE).unwrap();
        assert_eq!((h.count(), h.sum()), (3, 90 + 80 + 170));
        // Other senders' messages are untouched.
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn capacity_shrink_evicts_and_counts() {
        let mut t = LatencyTracker::with_capacity(4);
        let mut m = MetricsRegistry::new();
        for seq in 1..=4 {
            t.on_submit(&mut m, key(seq), seq);
        }
        t.set_capacity(&mut m, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(m.counter(EVICTED_COUNTER), 3);
    }

    #[test]
    fn critical_path_names_the_slowest_phase() {
        let mut log = SpanLog::default();
        let root = log.start(2, 0, "view_change", None, 5);
        let d = log.start(2, 0, "detect", Some(root), 5);
        log.end(d, 10);
        let a = log.start(2, 10, "agree", Some(root), 5);
        log.end(a, 90);
        let f = log.start(2, 90, "flush", Some(root), 5);
        log.end(f, 100);
        log.end(root, 100);
        // A still-open lineage is skipped entirely.
        log.start(3, 0, "view_change", None, 6);
        let cps = critical_paths(&log);
        assert_eq!(cps.len(), 1);
        assert_eq!(cps[0].stage, "agree");
        assert_eq!(cps[0].stage_us, 80);
        assert_eq!(cps[0].total_us, 100);
        assert!((cps[0].fraction() - 0.8).abs() < 1e-9);
        let json = critical_paths_json(&log);
        assert!(json.contains("\"stage\":\"agree\""));
    }
}
