//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Everything is plain data behind string names so any layer of the stack
//! can record without compile-time coupling. Registries are cheap to
//! snapshot and render themselves to JSON through [`crate::json`].

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::json::{Arr, Obj};

/// Default latency bucket upper bounds, in microseconds of virtual time.
///
/// The last implicit bucket is `+Inf`; these cover the simulator's
/// sub-millisecond link delays up to multi-second convergence times.
pub const DEFAULT_LATENCY_BUCKETS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

/// A fixed-bucket histogram with count/sum/min/max, in the spirit of a
/// Prometheus histogram but for virtual-time latencies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Upper bound (inclusive) of each bucket; an implicit `+Inf` bucket
    /// follows the last bound.
    bounds: Vec<u64>,
    /// One slot per bound plus the overflow bucket.
    counts: Vec<u64>,
    /// Total number of observations.
    count: u64,
    /// Sum of all observed values.
    sum: u64,
    /// Smallest observation (meaningless while `count == 0`).
    min: u64,
    /// Largest observation.
    max: u64,
}

impl Histogram {
    /// An empty histogram over the given bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// An empty histogram over [`DEFAULT_LATENCY_BUCKETS_US`].
    pub fn latency() -> Self {
        Histogram::with_bounds(DEFAULT_LATENCY_BUCKETS_US)
    }

    /// Reassembles a histogram from previously exported parts (the fields
    /// [`Histogram::to_json`] emits), so a scraper can reconstruct remote
    /// histograms and merge them with [`MetricsRegistry::absorb`] without
    /// hard-coding any bucket layout. Returns `None` when the parts are
    /// inconsistent: bounds not strictly increasing, a count vector that
    /// does not have exactly one slot per bound plus overflow, or bucket
    /// counts that do not sum to `count`.
    pub fn from_parts(bounds: &[u64], bucket_counts: &[u64], sum: u64, min: u64, max: u64) -> Option<Self> {
        if bounds.is_empty()
            || !bounds.windows(2).all(|w| w[0] < w[1])
            || bucket_counts.len() != bounds.len() + 1
        {
            return None;
        }
        let count: u64 = bucket_counts.iter().sum();
        Some(Histogram {
            bounds: bounds.to_vec(),
            counts: bucket_counts.to_vec(),
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max: if count == 0 { 0 } else { max },
        })
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or `None` while empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest observation, or `None` while empty.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation, or `None` while empty.
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Bucket upper bounds (the `+Inf` bucket is implicit).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts, overflow bucket last. Sums to [`Histogram::count`].
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`) from bucket
    /// boundaries, or `None` while empty. Observations past the last bound
    /// report `u64::MAX`.
    pub fn quantile_le(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// The bucket-interpolated `q`-quantile (`0.0 ..= 1.0`), or `None`
    /// while empty.
    ///
    /// The rank is located in its bucket and the value interpolated
    /// linearly across the bucket's span. Bucket edges are clamped to the
    /// *observed* min/max, so a histogram whose observations all fall in a
    /// single bucket (or in the `+Inf` overflow bucket, which has no upper
    /// bound of its own) interpolates between `min` and `max` instead of
    /// inventing values outside the observed range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if before + c >= rank {
                // Bucket `i` covers ranks before+1 ..= before+c. Its span
                // is (previous bound, this bound], clamped to what was
                // actually observed.
                let upper = match self.bounds.get(i) {
                    Some(&b) => b.min(self.max),
                    None => self.max,
                };
                let lower = if i == 0 {
                    self.min.min(upper)
                } else {
                    self.bounds[i - 1].clamp(self.min, upper)
                };
                let frac = (rank - before) as f64 / c as f64;
                let v = lower as f64 + frac * (upper - lower) as f64;
                return Some(v.clamp(self.min as f64, self.max as f64));
            }
            before += c;
        }
        Some(self.max as f64)
    }

    /// Renders the histogram as a JSON object.
    pub fn to_json(&self) -> String {
        let mut bounds = Arr::new();
        for &b in &self.bounds {
            bounds = bounds.u64(b);
        }
        let mut counts = Arr::new();
        for &c in &self.counts {
            counts = counts.u64(c);
        }
        let mut obj = Obj::new()
            .u64("count", self.count)
            .u64("sum", self.sum)
            .raw("bounds_us", &bounds.finish())
            .raw("bucket_counts", &counts.finish());
        if let (Some(min), Some(max), Some(mean)) = (self.min(), self.max(), self.mean()) {
            obj = obj.u64("min", min).u64("max", max).f64("mean", mean);
            if let (Some(p50), Some(p99), Some(p999)) =
                (self.quantile(0.5), self.quantile(0.99), self.quantile(0.999))
            {
                obj = obj.f64("p50", p50).f64("p99", p99).f64("p999", p999);
            }
        }
        obj.finish()
    }
}

/// A named collection of counters, gauges and histograms.
///
/// Names are dotted paths (`net.sent`, `gcs.flush.rounds`); creation is
/// implicit on first touch so instrumentation sites stay one-liners. Only
/// that first touch copies the name into a `String`; updating an existing
/// metric looks it up and allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to counter `name`.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records `value` into histogram `name`, creating it with the default
    /// latency buckets on first use.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.observe_or_create(name, value, Histogram::latency);
    }

    /// Records `value` into histogram `name`, creating it with the given
    /// bucket bounds on first use.
    pub fn observe_with_bounds(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.observe_or_create(name, value, || Histogram::with_bounds(bounds));
    }

    fn observe_or_create(&mut self, name: &str, value: u64, create: impl FnOnce() -> Histogram) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = create();
                h.observe(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Registers `histogram` under `name` wholesale, merging bucket-wise
    /// into an existing entry with matching bounds (the same rule as
    /// [`MetricsRegistry::absorb`]). Scrapers use this to rebuild a
    /// registry from exported parts.
    pub fn insert_histogram(&mut self, name: &str, histogram: Histogram) {
        match self.histograms.get_mut(name) {
            Some(mine) if mine.bounds == histogram.bounds => {
                for (c, o) in mine.counts.iter_mut().zip(&histogram.counts) {
                    *c += o;
                }
                mine.count += histogram.count;
                mine.sum = mine.sum.saturating_add(histogram.sum);
                mine.min = mine.min.min(histogram.min);
                mine.max = mine.max.max(histogram.max);
            }
            _ => {
                self.histograms.insert(name.to_string(), histogram);
            }
        }
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another registry into this one (counters add, gauges take the
    /// other's value, histogram buckets add when bounds match).
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) if mine.bounds == h.bounds => {
                    for (c, o) in mine.counts.iter_mut().zip(&h.counts) {
                        *c += o;
                    }
                    mine.count += h.count;
                    mine.sum = mine.sum.saturating_add(h.sum);
                    mine.min = mine.min.min(h.min);
                    mine.max = mine.max.max(h.max);
                }
                _ => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Resets every metric (counters/gauges cleared, histograms emptied).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// Renders the whole registry as a JSON object with `counters`,
    /// `gauges` and `histograms` sections.
    pub fn to_json(&self) -> String {
        let mut counters = Obj::new();
        for (k, v) in self.counters() {
            counters = counters.u64(k, v);
        }
        let mut gauges = Obj::new();
        for (k, v) in self.gauges() {
            gauges = gauges.i64(k, v);
        }
        let mut histograms = Obj::new();
        for (k, h) in self.histograms() {
            histograms = histograms.raw(k, &h.to_json());
        }
        Obj::new()
            .raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("histograms", &histograms.finish())
            .finish()
    }

    /// A stable FNV-1a digest over the registry's JSON rendering: equal
    /// digests mean identical counters, gauges and histograms. Paired with
    /// [`Journal::digest`](crate::Journal::digest) to prove record→replay
    /// bit-equality.
    pub fn digest(&self) -> u64 {
        crate::clock::fnv1a(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.inc("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let mut h = Histogram::with_bounds(&[10, 100]);
        for v in [1, 10, 11, 100, 101, 5_000] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 2, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(5_000));
    }

    #[test]
    fn quantile_upper_bounds() {
        let mut h = Histogram::with_bounds(&[10, 100, 1000]);
        for _ in 0..98 {
            h.observe(5);
        }
        h.observe(50);
        h.observe(500);
        assert_eq!(h.quantile_le(0.5), Some(10));
        assert_eq!(h.quantile_le(0.99), Some(100));
        assert_eq!(h.quantile_le(1.0), Some(1000));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::with_bounds(&[10, 100]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile_le(0.5), None);
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        // Bucket spans: (..=10], (10..=100], (100..=1000]. Put 10
        // observations in the middle bucket: rank r interpolates to
        // 10 + (r/10) * 90 exactly.
        let mut h = Histogram::with_bounds(&[10, 100, 1000]);
        for _ in 0..10 {
            h.observe(55);
        }
        // All mass sits in one bucket, so edges clamp to observed
        // min == max == 55 and every quantile is exactly 55.
        assert_eq!(h.quantile(0.5), Some(55.0));
        assert_eq!(h.quantile(0.999), Some(55.0));
        // Spread the observed range and the interpolation works across
        // the clamped span [20, 90]: rank 5 of 10 -> 20 + 0.5 * 70.
        let mut h = Histogram::with_bounds(&[10, 100, 1000]);
        h.observe(20);
        for _ in 0..8 {
            h.observe(50);
        }
        h.observe(90);
        assert_eq!(h.quantile(0.5), Some(20.0 + 0.5 * 70.0));
        assert_eq!(h.quantile(0.0), Some(20.0 + 0.1 * 70.0), "rank floors at 1");
        assert_eq!(h.quantile(1.0), Some(90.0));
    }

    #[test]
    fn quantile_interpolates_across_buckets_with_hand_computed_fixture() {
        // 90 observations in (..=10], 9 in (10..=100], 1 in (100..=1000].
        let mut h = Histogram::with_bounds(&[10, 100, 1000]);
        for _ in 0..90 {
            h.observe(4);
        }
        for _ in 0..9 {
            h.observe(60);
        }
        h.observe(700);
        // p50: rank 50 of 90 in the first bucket, clamped lower edge is
        // the observed min 4, upper edge is bound 10: 4 + (50/90)*6.
        let expect_p50 = 4.0 + (50.0 / 90.0) * 6.0;
        assert!((h.quantile(0.5).unwrap() - expect_p50).abs() < 1e-9);
        // p99: rank 99 is the 9th of 9 in (10..=100]: 10 + (9/9)*90 = 100.
        assert_eq!(h.quantile(0.99), Some(100.0));
        // p999: rank 100 is the single overflow-adjacent observation in
        // (100..=1000], upper edge clamped to the observed max 700.
        assert_eq!(h.quantile(0.999), Some(100.0 + 1.0 * 600.0));
    }

    #[test]
    fn overflow_bucket_quantiles_clamp_to_observed_max() {
        // Everything past the last bound lands in the +Inf bucket, which
        // has no bound of its own: interpolation must stay within the
        // observed range instead of reporting u64::MAX.
        let mut h = Histogram::with_bounds(&[10]);
        h.observe(5_000);
        h.observe(9_000);
        assert_eq!(h.quantile_le(0.99), Some(u64::MAX), "le variant saturates");
        // Lower edge clamps from bound 10 up to min 5000; rank 2 of 2
        // interpolates to the upper edge, the observed max.
        assert_eq!(h.quantile(1.0), Some(9_000.0));
        assert_eq!(h.quantile(0.5), Some(5_000.0 + 0.5 * 4_000.0));
        // A single observation collapses the span entirely.
        let mut h = Histogram::with_bounds(&[10]);
        h.observe(42);
        assert_eq!(h.quantile(0.5), Some(42.0));
        assert_eq!(h.quantile(0.999), Some(42.0));
    }

    #[test]
    fn from_parts_round_trips_and_rejects_inconsistency() {
        let mut h = Histogram::with_bounds(&[10, 100]);
        for v in [4, 40, 400] {
            h.observe(v);
        }
        let back = Histogram::from_parts(
            h.bounds(),
            h.bucket_counts(),
            h.sum(),
            h.min().unwrap(),
            h.max().unwrap(),
        )
        .expect("consistent parts");
        assert_eq!(back, h);
        assert_eq!(Histogram::from_parts(&[], &[1], 0, 0, 0), None);
        assert_eq!(Histogram::from_parts(&[10, 5], &[0, 0, 0], 0, 0, 0), None);
        assert_eq!(Histogram::from_parts(&[10], &[1], 0, 0, 0), None, "missing overflow slot");
        // Empty parts normalise min/max so a later merge stays correct.
        let empty = Histogram::from_parts(&[10], &[0, 0], 0, 7, 3).unwrap();
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
    }

    #[test]
    fn insert_histogram_merges_matching_bounds() {
        let mut m = MetricsRegistry::new();
        let mut a = Histogram::with_bounds(&[10, 100]);
        a.observe(5);
        let mut b = Histogram::with_bounds(&[10, 100]);
        b.observe(50);
        m.insert_histogram("h", a);
        m.insert_histogram("h", b);
        let h = m.histogram("h").unwrap();
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (2, 55, Some(5), Some(50)));
        // Mismatched bounds replace rather than corrupt.
        let other = Histogram::with_bounds(&[7]);
        m.insert_histogram("h", other.clone());
        assert_eq!(m.histogram("h"), Some(&other));
    }

    #[test]
    fn absorb_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add("c", 1);
        b.add("c", 2);
        a.observe("h", 5);
        b.observe("h", 7);
        a.absorb(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h").unwrap().sum(), 12);
    }

    #[test]
    fn json_snapshot_is_wellformed_and_sorted() {
        let mut m = MetricsRegistry::new();
        m.add("b.two", 2);
        m.add("a.one", 1);
        m.set_gauge("g", -3);
        m.observe_with_bounds("lat", &[10, 20], 15);
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        let a = json.find("a.one").unwrap();
        let b = json.find("b.two").unwrap();
        assert!(a < b, "counters must render sorted");
        assert!(json.contains("\"gauges\":{\"g\":-3}"));
        assert!(json.contains("\"bounds_us\":[10,20]"));
    }
}
