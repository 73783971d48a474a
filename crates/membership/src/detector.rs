//! Heartbeat failure detection.
//!
//! In an asynchronous system "the inability to communicate with a certain
//! process cannot be attributed to its real cause" (paper §1, citing FLP
//! [7]). A failure detector therefore cannot be accurate; it can only be
//! *complete* (eventually notice silence). [`FailureDetector`] is the
//! classic heartbeat scheme: every process periodically pings its contacts;
//! a contact silent for longer than the suspicion timeout is suspected.
//! False suspicions are expected and harmless — the membership and flush
//! layers above convert them into (possibly spurious) view changes, which
//! the application model of the paper is designed to absorb.

use std::collections::{BTreeMap, BTreeSet};

use vs_net::{ProcessId, SimDuration, SimTime};
use vs_obs::{EventKind, Obs};

/// Tuning parameters of the failure detector.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// How often a process sends heartbeats.
    pub heartbeat_every: SimDuration,
    /// Silence threshold after which a contact is suspected.
    pub suspect_after: SimDuration,
    /// Outbound-traffic window within which a dedicated heartbeat to a
    /// peer is redundant: any message this process sent to the peer (data,
    /// acks, agreement traffic — or a previous heartbeat) already serves
    /// as its liveness evidence, since the peer's detector counts every
    /// received message. Must stay well under `suspect_after` so the
    /// worst-case inter-beacon gap keeps a detection margin.
    pub suppress_within: SimDuration,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            heartbeat_every: SimDuration::from_millis(10),
            suspect_after: SimDuration::from_millis(35),
            suppress_within: SimDuration::from_millis(18),
        }
    }
}

/// Tracks the last time each contact was heard from and derives the set of
/// currently trusted (unsuspected) contacts.
///
/// # Example
///
/// ```
/// use vs_membership::{DetectorConfig, FailureDetector};
/// use vs_net::{ProcessId, SimDuration, SimTime};
///
/// let me = ProcessId::from_raw(0);
/// let peer = ProcessId::from_raw(1);
/// let mut fd = FailureDetector::new(me, DetectorConfig::default());
/// fd.heard_from(peer, SimTime::ZERO);
/// assert!(fd.trusted(SimTime::ZERO + SimDuration::from_millis(10)).contains(&peer));
/// assert!(!fd.trusted(SimTime::ZERO + SimDuration::from_millis(100)).contains(&peer));
/// ```
#[derive(Debug, Clone)]
pub struct FailureDetector {
    me: ProcessId,
    config: DetectorConfig,
    last_heard: BTreeMap<ProcessId, SimTime>,
    /// Last instant *any* message went out towards each peer, heartbeats
    /// included — the basis for [`should_heartbeat`](Self::should_heartbeat).
    last_sent: BTreeMap<ProcessId, SimTime>,
    /// Suspicion set as of the last [`poll_transitions`](Self::poll_transitions)
    /// call, for edge-triggered trace events.
    last_suspected: BTreeSet<ProcessId>,
}

impl FailureDetector {
    /// Creates a detector for process `me`.
    pub fn new(me: ProcessId, config: DetectorConfig) -> Self {
        FailureDetector {
            me,
            config,
            last_heard: BTreeMap::new(),
            last_sent: BTreeMap::new(),
            last_suspected: BTreeSet::new(),
        }
    }

    /// The configured parameters.
    pub fn config(&self) -> DetectorConfig {
        self.config
    }

    /// Records evidence of life from `p` at instant `now`. Any message
    /// counts, not only explicit heartbeats. Returns whether `p` has just
    /// become trusted: it was never heard from, or silent for at least the
    /// suspicion timeout. That is *positive* evidence of a membership
    /// change, which the caller may act on at once.
    pub fn heard_from(&mut self, p: ProcessId, now: SimTime) -> bool {
        if p == self.me {
            return false;
        }
        let newly = !self.last_heard.contains_key(&p) || self.suspects(p, now);
        let entry = self.last_heard.entry(p).or_insert(now);
        if *entry < now {
            *entry = now;
        }
        newly
    }

    /// Records that a message (of any kind) was sent to `p` at `now`. The
    /// peer's detector treats every received message as liveness evidence,
    /// so this send doubles as a heartbeat.
    pub fn note_sent(&mut self, p: ProcessId, now: SimTime) {
        if p == self.me {
            return;
        }
        let entry = self.last_sent.entry(p).or_insert(now);
        if *entry < now {
            *entry = now;
        }
    }

    /// Whether a dedicated heartbeat towards `p` is still needed at `now`:
    /// `false` while recent outbound traffic (per
    /// [`DetectorConfig::suppress_within`]) already carries the liveness
    /// signal. A peer never sent to always warrants a beacon.
    pub fn should_heartbeat(&self, p: ProcessId, now: SimTime) -> bool {
        match self.last_sent.get(&p) {
            Some(&t) => now.saturating_since(t) >= self.config.suppress_within,
            None => true,
        }
    }

    /// Forgets a process entirely (it left, or its partition is stale).
    pub fn forget(&mut self, p: ProcessId) {
        self.last_heard.remove(&p);
        self.last_sent.remove(&p);
    }

    /// The set of processes currently trusted at `now`: every contact heard
    /// from within the suspicion timeout, plus `me` (a process always trusts
    /// itself).
    pub fn trusted(&self, now: SimTime) -> BTreeSet<ProcessId> {
        let mut out: BTreeSet<ProcessId> = self
            .last_heard
            .iter()
            .filter(|(_, &t)| now.saturating_since(t) < self.config.suspect_after)
            .map(|(&p, _)| p)
            .collect();
        out.insert(self.me);
        out
    }

    /// Whether `p` is currently suspected (known but silent too long).
    /// Unknown processes are not "suspected" — they are simply unknown.
    pub fn suspects(&self, p: ProcessId, now: SimTime) -> bool {
        match self.last_heard.get(&p) {
            Some(&t) => now.saturating_since(t) >= self.config.suspect_after,
            None => false,
        }
    }

    /// Every process this detector has ever heard from (alive or not).
    pub fn known(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.last_heard.keys().copied()
    }

    /// The set of known processes suspected at `now`.
    pub fn suspected(&self, now: SimTime) -> BTreeSet<ProcessId> {
        self.last_heard
            .iter()
            .filter(|(_, &t)| now.saturating_since(t) >= self.config.suspect_after)
            .map(|(&p, _)| p)
            .collect()
    }

    /// Edge-triggered suspicion tracking: compares the suspicion set at
    /// `now` with the one seen at the previous poll and records a
    /// [`EventKind::SuspicionRaised`] / [`EventKind::SuspicionCleared`]
    /// trace event (plus the `fd.suspicions_raised` / `fd.suspicions_cleared`
    /// counters) for each transition. Suspicion itself stays a derived,
    /// lazily-computed property; this only observes its changes. Call it
    /// once per tick.
    pub fn poll_transitions(&mut self, now: SimTime, obs: &Obs) {
        let suspected = self.suspected(now);
        if suspected == self.last_suspected {
            return;
        }
        let at_us = now.as_micros();
        let me = self.me.raw();
        obs.with(|s| {
            for &p in suspected.difference(&self.last_suspected) {
                s.metrics.inc("fd.suspicions_raised");
                s.journal
                    .record(me, at_us, EventKind::SuspicionRaised { suspect: p.raw() });
            }
            for &p in self.last_suspected.difference(&suspected) {
                s.metrics.inc("fd.suspicions_cleared");
                s.journal
                    .record(me, at_us, EventKind::SuspicionCleared { suspect: p.raw() });
            }
        });
        self.last_suspected = suspected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            heartbeat_every: SimDuration::from_millis(10),
            suspect_after: SimDuration::from_millis(30),
            suppress_within: SimDuration::from_millis(15),
        }
    }

    #[test]
    fn fresh_detector_trusts_only_itself() {
        let fd = FailureDetector::new(pid(0), cfg());
        let t = fd.trusted(SimTime::ZERO);
        assert_eq!(t.into_iter().collect::<Vec<_>>(), vec![pid(0)]);
    }

    #[test]
    fn heard_from_reports_who_just_became_trusted() {
        let mut fd = FailureDetector::new(pid(0), cfg());
        assert!(fd.heard_from(pid(1), SimTime::from_micros(0)), "never heard before");
        assert!(!fd.heard_from(pid(1), SimTime::from_micros(10_000)), "heard 10 ms ago");
        assert!(fd.heard_from(pid(1), SimTime::from_micros(40_000)), "silent >= suspect_after");
        assert!(!fd.heard_from(pid(0), SimTime::from_micros(40_000)), "self");
    }

    #[test]
    fn recent_contact_is_trusted_then_suspected() {
        let mut fd = FailureDetector::new(pid(0), cfg());
        fd.heard_from(pid(1), SimTime::from_micros(0));
        assert!(fd.trusted(SimTime::from_micros(29_000)).contains(&pid(1)));
        assert!(!fd.trusted(SimTime::from_micros(30_000)).contains(&pid(1)));
        assert!(fd.suspects(pid(1), SimTime::from_micros(30_000)));
    }

    #[test]
    fn new_evidence_refreshes_trust() {
        let mut fd = FailureDetector::new(pid(0), cfg());
        fd.heard_from(pid(1), SimTime::from_micros(0));
        fd.heard_from(pid(1), SimTime::from_micros(25_000));
        assert!(fd.trusted(SimTime::from_micros(50_000)).contains(&pid(1)));
    }

    #[test]
    fn stale_evidence_does_not_regress_the_clock() {
        let mut fd = FailureDetector::new(pid(0), cfg());
        fd.heard_from(pid(1), SimTime::from_micros(20_000));
        fd.heard_from(pid(1), SimTime::from_micros(5_000)); // out-of-order arrival
        assert!(fd.trusted(SimTime::from_micros(45_000)).contains(&pid(1)));
    }

    #[test]
    fn self_evidence_is_ignored_but_self_is_always_trusted() {
        let mut fd = FailureDetector::new(pid(0), cfg());
        fd.heard_from(pid(0), SimTime::ZERO);
        assert_eq!(fd.known().count(), 0);
        assert!(fd.trusted(SimTime::from_micros(1_000_000)).contains(&pid(0)));
    }

    #[test]
    fn unknown_processes_are_not_suspected() {
        let fd = FailureDetector::new(pid(0), cfg());
        assert!(!fd.suspects(pid(7), SimTime::from_micros(1_000_000)));
    }

    #[test]
    fn poll_transitions_records_raise_and_clear_once() {
        let obs = Obs::new();
        let mut fd = FailureDetector::new(pid(0), cfg());
        fd.heard_from(pid(1), SimTime::ZERO);
        fd.poll_transitions(SimTime::from_micros(10_000), &obs);
        assert_eq!(obs.counter("fd.suspicions_raised"), 0);
        // Silence past the threshold: raised exactly once across two polls.
        fd.poll_transitions(SimTime::from_micros(40_000), &obs);
        fd.poll_transitions(SimTime::from_micros(50_000), &obs);
        assert_eq!(obs.counter("fd.suspicions_raised"), 1);
        assert_eq!(obs.counter("fd.suspicions_cleared"), 0);
        // Fresh evidence clears it.
        fd.heard_from(pid(1), SimTime::from_micros(60_000));
        fd.poll_transitions(SimTime::from_micros(61_000), &obs);
        assert_eq!(obs.counter("fd.suspicions_cleared"), 1);
        let events: Vec<String> = obs
            .tail(0, 8)
            .iter()
            .map(|e| e.kind.name().to_string())
            .collect();
        assert_eq!(events, vec!["suspicion_raised", "suspicion_cleared"]);
    }

    #[test]
    fn recent_sends_suppress_heartbeats_until_the_window_expires() {
        let mut fd = FailureDetector::new(pid(0), cfg());
        assert!(fd.should_heartbeat(pid(1), SimTime::ZERO), "unknown peer: beacon");
        fd.note_sent(pid(1), SimTime::from_micros(0));
        assert!(!fd.should_heartbeat(pid(1), SimTime::from_micros(10_000)));
        assert!(fd.should_heartbeat(pid(1), SimTime::from_micros(15_000)));
        // Any later send — data or another heartbeat — re-arms the window.
        fd.note_sent(pid(1), SimTime::from_micros(20_000));
        assert!(!fd.should_heartbeat(pid(1), SimTime::from_micros(30_000)));
    }

    #[test]
    fn sends_to_self_and_stale_sends_are_ignored() {
        let mut fd = FailureDetector::new(pid(0), cfg());
        fd.note_sent(pid(0), SimTime::from_micros(1_000));
        assert!(fd.should_heartbeat(pid(0), SimTime::from_micros(1_000)));
        fd.note_sent(pid(1), SimTime::from_micros(20_000));
        fd.note_sent(pid(1), SimTime::from_micros(5_000)); // out-of-order
        assert!(!fd.should_heartbeat(pid(1), SimTime::from_micros(30_000)));
    }

    #[test]
    fn forget_removes_knowledge() {
        let mut fd = FailureDetector::new(pid(0), cfg());
        fd.heard_from(pid(1), SimTime::ZERO);
        fd.forget(pid(1));
        assert_eq!(fd.known().count(), 0);
        assert!(!fd.trusted(SimTime::ZERO).contains(&pid(1)));
    }
}
