//! View-change triggering: at once on complete evidence, debounced
//! otherwise.
//!
//! The failure detector's trusted set flickers: a merge is noticed one
//! heartbeat at a time, a partition is noticed contact by contact. Starting
//! a view agreement on every flicker would produce exactly the "inordinate
//! number of view change events" the paper criticises in §5. The
//! [`MembershipEstimator`] therefore requires the *desired* membership
//! (trusted set) to differ from the installed view and stay **stable** for a
//! debounce period before it emits a trigger. One healed partition then
//! yields one merge trigger containing every newly reachable process — the
//! "single view change is all that is really required" behaviour of §5.
//!
//! The debounce waits for the candidate to stop growing. When the trusted
//! set already holds every process the caller knows of, it *cannot* grow,
//! so waiting buys nothing: such a **complete** observation triggers at
//! once. Formation and a healed partition whose every member is heard from
//! again take that path; a suspicion (absence is the evidence), a partial
//! merge, or a crashed process that is still known keeps the debounce.

use std::collections::BTreeSet;

use vs_net::{ProcessId, SimDuration, SimTime};

/// Tuning of the estimator.
#[derive(Debug, Clone, Copy)]
pub struct EstimatorConfig {
    /// How long the desired membership must remain unchanged (and different
    /// from the installed view) before a trigger fires.
    pub debounce: SimDuration,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            debounce: SimDuration::from_millis(25),
        }
    }
}

/// Turns a stream of trusted-set observations into view-change triggers.
///
/// Call [`observe`](MembershipEstimator::observe) on every failure-detector
/// refresh; it returns `Some(candidate)` when a view change towards
/// `candidate` should be proposed.
#[derive(Debug, Clone)]
pub struct MembershipEstimator {
    config: EstimatorConfig,
    installed: BTreeSet<ProcessId>,
    pending: Option<(BTreeSet<ProcessId>, SimTime)>,
    /// When the trusted set first left the installed view, in the current
    /// divergence: the first evidence of the coming view change.
    diverged_since: Option<SimTime>,
    /// While an agreement is in flight we hold further triggers.
    in_progress: bool,
}

impl MembershipEstimator {
    /// Creates an estimator that considers `installed` the current view
    /// membership.
    pub fn new(installed: BTreeSet<ProcessId>, config: EstimatorConfig) -> Self {
        MembershipEstimator {
            config,
            installed,
            pending: None,
            diverged_since: None,
            in_progress: false,
        }
    }

    /// Records that a view with the given membership was installed;
    /// re-arms the estimator.
    pub fn view_installed(&mut self, members: BTreeSet<ProcessId>) {
        self.installed = members;
        self.pending = None;
        self.diverged_since = None;
        self.in_progress = false;
    }

    /// Marks an agreement as started; triggers are suppressed until either
    /// [`view_installed`](Self::view_installed) or
    /// [`agreement_failed`](Self::agreement_failed).
    pub fn agreement_started(&mut self) {
        self.in_progress = true;
        self.pending = None;
        self.diverged_since = None;
    }

    /// Marks the in-flight agreement as abandoned (e.g. its coordinator
    /// crashed); the estimator resumes triggering.
    pub fn agreement_failed(&mut self) {
        self.in_progress = false;
        self.pending = None;
    }

    /// Whether an agreement is currently suppressing triggers.
    pub fn is_in_progress(&self) -> bool {
        self.in_progress
    }

    /// When the trusted set first differed from the installed view, if it
    /// differs now: where the `detect` phase of the coming view change
    /// starts. Cleared once an agreement starts or the sets agree again.
    pub fn diverged_since(&self) -> Option<SimTime> {
        self.diverged_since
    }

    /// Feeds the current trusted set. Returns a candidate membership when a
    /// view change should be proposed now. `complete` says that `trusted`
    /// holds every process the caller knows of, so the candidate cannot
    /// grow: it is returned at once, without the debounce.
    pub fn observe(
        &mut self,
        trusted: BTreeSet<ProcessId>,
        complete: bool,
        now: SimTime,
    ) -> Option<BTreeSet<ProcessId>> {
        if self.in_progress {
            return None;
        }
        if trusted == self.installed {
            self.pending = None;
            self.diverged_since = None;
            return None;
        }
        self.diverged_since.get_or_insert(now);
        if complete {
            self.pending = None;
            return Some(trusted);
        }
        match &self.pending {
            Some((candidate, since)) if *candidate == trusted => {
                if now.saturating_since(*since) >= self.config.debounce {
                    self.pending = None;
                    Some(trusted)
                } else {
                    None
                }
            }
            _ => {
                self.pending = Some((trusted, now));
                None
            }
        }
    }

    /// The membership of the currently installed view, as known here.
    pub fn installed(&self) -> &BTreeSet<ProcessId> {
        &self.installed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn set(ids: &[u64]) -> BTreeSet<ProcessId> {
        ids.iter().map(|&n| pid(n)).collect()
    }

    fn est(installed: &[u64]) -> MembershipEstimator {
        MembershipEstimator::new(
            set(installed),
            EstimatorConfig {
                debounce: SimDuration::from_millis(20),
            },
        )
    }

    #[test]
    fn matching_membership_never_triggers() {
        let mut e = est(&[0, 1]);
        for t in 0..10 {
            assert_eq!(e.observe(set(&[0, 1]), false, SimTime::from_micros(t * 10_000)), None);
        }
    }

    #[test]
    fn stable_difference_triggers_after_debounce() {
        let mut e = est(&[0, 1]);
        assert_eq!(e.observe(set(&[0]), false, SimTime::from_micros(0)), None);
        assert_eq!(e.observe(set(&[0]), false, SimTime::from_micros(10_000)), None);
        assert_eq!(
            e.observe(set(&[0]), false, SimTime::from_micros(20_000)),
            Some(set(&[0])),
            "20ms of stability reaches the debounce threshold"
        );
    }

    #[test]
    fn flickering_membership_restarts_the_clock() {
        let mut e = est(&[0, 1]);
        assert_eq!(e.observe(set(&[0]), false, SimTime::from_micros(0)), None);
        assert_eq!(e.observe(set(&[0, 2]), false, SimTime::from_micros(15_000)), None);
        // The earlier 15ms of stability towards {0} does not count.
        assert_eq!(e.observe(set(&[0, 2]), false, SimTime::from_micros(30_000)), None);
        assert_eq!(
            e.observe(set(&[0, 2]), false, SimTime::from_micros(35_000)),
            Some(set(&[0, 2]))
        );
    }

    #[test]
    fn returning_to_installed_cancels_the_pending_trigger() {
        let mut e = est(&[0, 1]);
        assert_eq!(e.observe(set(&[0]), false, SimTime::from_micros(0)), None);
        assert_eq!(e.observe(set(&[0, 1]), false, SimTime::from_micros(10_000)), None);
        // A fresh divergence must debounce from scratch.
        assert_eq!(e.observe(set(&[0]), false, SimTime::from_micros(20_000)), None);
        assert_eq!(e.observe(set(&[0]), false, SimTime::from_micros(39_000)), None);
        assert_eq!(e.observe(set(&[0]), false, SimTime::from_micros(40_000)), Some(set(&[0])));
    }

    #[test]
    fn in_progress_agreement_suppresses_triggers() {
        let mut e = est(&[0, 1]);
        e.agreement_started();
        assert!(e.is_in_progress());
        for t in 0..10 {
            assert_eq!(e.observe(set(&[0]), false, SimTime::from_micros(t * 20_000)), None);
        }
        e.agreement_failed();
        assert_eq!(e.observe(set(&[0]), false, SimTime::from_micros(300_000)), None);
        assert_eq!(
            e.observe(set(&[0]), false, SimTime::from_micros(320_000)),
            Some(set(&[0]))
        );
    }

    #[test]
    fn view_installed_rearms_with_new_membership() {
        let mut e = est(&[0, 1]);
        e.agreement_started();
        e.view_installed(set(&[0]));
        assert!(!e.is_in_progress());
        assert_eq!(e.installed(), &set(&[0]));
        assert_eq!(e.observe(set(&[0]), false, SimTime::from_micros(999_000)), None);
    }

    #[test]
    fn merge_surfaces_all_new_processes_in_one_trigger() {
        let mut e = est(&[0, 1]);
        // After a heal, the trusted set jumps by several processes at once.
        assert_eq!(e.observe(set(&[0, 1, 2, 3, 4]), false, SimTime::from_micros(0)), None);
        assert_eq!(
            e.observe(set(&[0, 1, 2, 3, 4]), false, SimTime::from_micros(20_000)),
            Some(set(&[0, 1, 2, 3, 4])),
            "one trigger with every newly reachable process, per paper §5"
        );
    }

    #[test]
    fn a_complete_set_triggers_without_the_debounce() {
        let mut e = est(&[0]);
        assert_eq!(
            e.observe(set(&[0, 1, 2]), true, SimTime::from_micros(1_000)),
            Some(set(&[0, 1, 2]))
        );
        assert_eq!(e.diverged_since(), Some(SimTime::from_micros(1_000)));
    }

    #[test]
    fn a_complete_set_waits_for_the_agreement_in_progress() {
        let mut e = est(&[0]);
        e.agreement_started();
        assert_eq!(e.observe(set(&[0, 1]), true, SimTime::from_micros(1_000)), None);
        e.agreement_failed();
        assert_eq!(
            e.observe(set(&[0, 1]), true, SimTime::from_micros(2_000)),
            Some(set(&[0, 1]))
        );
    }

    #[test]
    fn a_complete_set_equal_to_the_view_does_nothing() {
        let mut e = est(&[0, 1]);
        assert_eq!(e.observe(set(&[0, 1]), true, SimTime::from_micros(1_000)), None);
        assert_eq!(e.diverged_since(), None);
    }

    #[test]
    fn a_complete_set_clears_the_pending_candidate() {
        let mut e = est(&[0]);
        assert_eq!(e.observe(set(&[0, 1]), false, SimTime::from_micros(0)), None);
        assert_eq!(
            e.observe(set(&[0, 1, 2]), true, SimTime::from_micros(5_000)),
            Some(set(&[0, 1, 2]))
        );
        assert_eq!(e.diverged_since(), Some(SimTime::ZERO), "detect starts at the first evidence");
        // The debounced candidate is gone: seeing it again starts afresh.
        assert_eq!(e.observe(set(&[0, 1]), false, SimTime::from_micros(20_000)), None);
        assert_eq!(e.observe(set(&[0, 1]), false, SimTime::from_micros(39_000)), None);
        assert_eq!(
            e.observe(set(&[0, 1]), false, SimTime::from_micros(40_000)),
            Some(set(&[0, 1]))
        );
    }
}
