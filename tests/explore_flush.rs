//! Bounded model-checking regressions: `view_synchrony::explore` over
//! the flush scenario.
//!
//! Three claims are pinned here:
//!
//! 1. **The flush protocol is correct in the explored space** —
//!    exhaustively enumerating every schedule of the 3-process flush
//!    scenario's race window (a multicast delivery racing a partition)
//!    finds zero violations, and the coverage counters are stable, so
//!    any future protocol change that alters the explored state space
//!    shows up as a counter diff even when it stays correct.
//! 2. **The explorer earns its keep** — with the seeded stability-cut
//!    mutation ([`GcsConfig::broken_stability_cut`]) enabled, the
//!    20-seed random sweep still passes (the bug hides in a
//!    few-millisecond race no random schedule hits), but exploration
//!    finds it within a handful of schedules, minimizes the choice plan,
//!    and the committed `.vsl` fixture reproduces it bit-identically.
//! 3. **Explored schedules are real schedules** — a violating witness
//!    serializes, parses and replays through the plain replay path (no
//!    oracle installed) to the same digests.

use view_synchrony::explore::{
    explore_flush, is_violating, run_flush_plan, ExploreOpts,
};
use view_synchrony::gcs::GcsConfig;
use view_synchrony::net::ScheduleLog;
use view_synchrony::scenario::{
    run_flush_scenario, run_gcs_sweep_with, FlushMode, FlushOpts, RunMode,
};

const FIXTURE: &[u8] = include_bytes!("fixtures/flush-broken-stability.vsl");

fn mutated() -> ExploreOpts {
    ExploreOpts {
        flush: FlushOpts {
            broken_stability_cut: true,
            ..FlushOpts::default()
        },
        ..ExploreOpts::default()
    }
}

/// Satellite 1: the explored space of the correct protocol is clean,
/// and its size is pinned. The race window holds five same-instant
/// events: the deliveries to p1 and p2 (D1, D2), the partition that cuts
/// p1 off (P), and the zero-delay ack timer each delivery arms at its
/// receiver (A1 after D1, A2 after D2). A delivery the partition beats is
/// dropped and arms nothing, so the full space is the 20 orders of all
/// five with D1 first among {D1, A1, P} and D2 before A2 (5!/(3·2)), plus
/// the 6 orders of {P, D1, D2, A2} with P before D1 and D2 before A2
/// (4!/(2·2)): 26 interleavings. The partition depends on everything and
/// the two receivers' events commute, so what distinguishes two orders to
/// the sleep sets is where P falls in each receiver's chain: 3 × 3 = 9
/// placements at least, which they cover in 14 runs, pruning 5 siblings.
/// End-state digests are interleaving-sensitive (the journal records event
/// order, and the order of A1 and A2 decides in which order their acks
/// reach p0 three milliseconds later), so the full space ends in more
/// states (15) than it has classes, and the no-reduction count
/// upper-bounds the reduced one (8) — both far below the run count,
/// because schedules that only reorder independent events converge.
#[test]
fn exhaustive_exploration_of_the_flush_race_is_clean_and_stable() {
    let reduced = explore_flush(&ExploreOpts::default());
    assert!(reduced.violation.is_none(), "{}", reduced.summary());
    let s = reduced.stats;
    assert!(!s.budget_exhausted, "{}", reduced.summary());
    assert_eq!(s.schedules, 14, "{}", reduced.summary());
    assert_eq!(s.distinct_states, 8, "{}", reduced.summary());
    assert_eq!(s.max_choice_points, 4, "{}", reduced.summary());
    assert_eq!(s.pruned_sleep, 5, "{}", reduced.summary());
    assert_eq!(s.rng_draws, 0, "the flush scenario must stay draw-free");

    let full = explore_flush(&ExploreOpts {
        dpor: false,
        ..ExploreOpts::default()
    });
    assert!(full.violation.is_none(), "{}", full.summary());
    assert_eq!(full.stats.schedules, 26, "{}", full.summary());
    assert_eq!(full.stats.distinct_states, 15, "{}", full.summary());
}

/// Satellite 2, first half: the seeded mutation survives the same
/// 20-seed random sweep that gates the correct protocol. Sweep
/// partitions outlive the failure detector's patience, so a process
/// that misses a multicast is voted out before it can co-install a view
/// with the deliverers — the broken stability cut never becomes
/// observable on those schedules.
#[test]
fn random_seed_sweeps_miss_the_seeded_mutation() {
    let config = GcsConfig {
        broken_stability_cut: true,
        ..GcsConfig::default()
    };
    for seed in 0..20 {
        let run = run_gcs_sweep_with(seed, RunMode::Normal, config);
        assert!(
            run.monitor_reports.is_empty() && run.violations.is_empty(),
            "seed {seed} unexpectedly caught the mutation: {:?} {:?}",
            run.monitor_reports,
            run.violations
        );
    }
}

/// Satellite 2, second half: exploration catches what the sweep missed,
/// on a non-default schedule, and delta-debugs the plan to a 1-minimal
/// reproduction.
#[test]
fn exploration_finds_minimizes_and_reproduces_the_seeded_mutation() {
    let opts = mutated();
    let result = explore_flush(&opts);
    let v = result.violation.as_ref().expect("explore finds the mutation");
    assert!(
        v.report.contains("VS 2.1"),
        "the violation is an Agreement mismatch: {}",
        v.report
    );
    assert!(
        !v.minimized_plan.is_empty(),
        "the default schedule is clean, so the minimal plan must force something"
    );
    assert!(v.minimized_plan.len() <= v.plan.len());

    // The minimal plan reproduces standalone (no sleep set, no DFS
    // context) — this is what a developer re-runs from the CLI.
    let rerun = run_flush_plan(&opts, &v.minimized_plan);
    assert!(is_violating(&rerun), "minimal plan reproduces the violation");

    // …while the default schedule of the *same mutated build* is clean:
    // the bug is schedule-dependent, which is the whole point.
    let default_run = run_flush_plan(&opts, &[]);
    assert!(
        !is_violating(&default_run),
        "the mutation must hide on the default schedule"
    );
}

/// The committed fixture is the explorer's own minimized output — both
/// byte-identical to what a fresh exploration produces (full pipeline
/// determinism) and replayable through the oracle-free replay path to
/// the same Agreement violation.
#[test]
fn committed_fixture_matches_a_fresh_exploration_and_replays_to_the_violation() {
    let result = explore_flush(&mutated());
    let v = result.violation.as_ref().expect("explore finds the mutation");
    assert_eq!(
        v.minimized.to_bytes(),
        FIXTURE,
        "tests/fixtures/flush-broken-stability.vsl is stale — regenerate with \
         `vstool explore --mutate --out-dir tests/fixtures` and rename minimal.vsl"
    );

    let log = ScheduleLog::from_bytes(FIXTURE).expect("fixture parses");
    assert!(log.sequential(), "explorer witnesses are sequential logs");
    let run = run_flush_scenario(
        FlushOpts {
            broken_stability_cut: true,
            ..FlushOpts::default()
        },
        FlushMode::Replay(log),
    );
    run.replay.as_ref().expect("fixture replays bit-identically");
    assert!(is_violating(&run), "fixture reproduces the violation");
    assert!(
        run.monitor_reports
            .iter()
            .any(|r| r.format().contains("VS 2.1")),
        "the reproduced violation is the Agreement mismatch"
    );
}

/// The explorer refuses scenarios beyond its bounded scope: n is capped
/// at 4 processes.
#[test]
#[should_panic(expected = "bounded at n <= 4")]
fn exploration_is_bounded_at_four_processes() {
    let opts = ExploreOpts {
        flush: FlushOpts {
            procs: 5,
            ..FlushOpts::default()
        },
        ..ExploreOpts::default()
    };
    let _ = explore_flush(&opts);
}
