//! The journal's hot path allocates nothing once it is warm: updating a
//! metric that already exists, and recording into a full ring.
//!
//! A counting global allocator tallies allocations per thread (the test
//! harness runs tests on several), so each measurement sees only its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vs_obs::{EventKind, Journal, MetricsRegistry, VClock};

thread_local! {
    // `const`: no lazy initialisation, so the allocator can touch it
    // without allocating itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: both methods forward their arguments unchanged to `System`, so
// its guarantees are this allocator's. The provided `alloc_zeroed` and
// `realloc` go through `alloc`, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn updating_an_existing_metric_does_not_allocate() {
    const BOUNDS: &[u64] = &[10, 100];
    let mut m = MetricsRegistry::new();
    m.inc("net.sent");
    m.set_gauge("gcs.view_size", 3);
    m.observe("net.link_delay_us", 250);
    m.observe_with_bounds("net.rx_batch_msgs", BOUNDS, 4);

    assert_eq!(allocations(|| m.inc("net.sent")), 0, "inc");
    assert_eq!(allocations(|| m.add("net.sent", 5)), 0, "add");
    assert_eq!(
        allocations(|| m.observe("net.link_delay_us", 900)),
        0,
        "observe"
    );
    assert_eq!(
        allocations(|| m.observe_with_bounds("net.rx_batch_msgs", BOUNDS, 7)),
        0,
        "observe_with_bounds"
    );
    assert_eq!(
        allocations(|| m.set_gauge("gcs.view_size", 4)),
        0,
        "set_gauge"
    );
    assert_eq!(m.counter("net.sent"), 7);
    assert_eq!(m.gauge("gcs.view_size"), Some(4));
    assert_eq!(m.histogram("net.link_delay_us").unwrap().count(), 2);
    assert_eq!(m.histogram("net.rx_batch_msgs").unwrap().count(), 2);
}

#[test]
fn recording_into_a_full_ring_does_not_allocate() {
    const CAPACITY: usize = 8;
    // Under churn every recovery mints a pid, and a clock keeps one
    // component per pid it has heard of: up to 39 in a 10 s `sim_churn`.
    let mut stamp = VClock::new();
    for p in 0..40 {
        stamp.set(p, p + 1);
    }
    let mut j = Journal::with_capacity(CAPACITY);
    assert!(!j.monitor_enabled());
    j.merge_clock(1, &stamp);
    for at in 0..CAPACITY as u64 {
        j.record(1, at, EventKind::TimerFire { kind: 0 });
    }
    assert_eq!(j.evicted(), 0);

    for at in 100..110 {
        let n = allocations(|| {
            j.record(
                1,
                at,
                EventKind::McastDeliver {
                    epoch: 3,
                    coord: 1,
                    sender: 2,
                    seq: at,
                },
            )
        });
        assert_eq!(n, 0, "record at {at}");
    }
    assert_eq!(j.evicted(), 10);
    let newest = j.events_for(1).last().unwrap();
    assert_eq!(newest.clock.components().count(), 40);
    assert_eq!(newest.clock, j.clock_of(1));
}
