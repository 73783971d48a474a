//! Per-process vector clocks stamped onto every trace event.
//!
//! The paper's guarantees are *causal* statements — "delivered in the same
//! view", "before the next e-view change" — so the journal needs more than
//! wall or virtual time to order events across processes. Each process
//! carries a [`VClock`]; the journal ticks the recording process's own
//! component on every append, and the transports merge the sender's clock
//! into the receiver's at delivery (the stamp piggybacks on message
//! metadata). The resulting invariant: event `f` at process `p` causally
//! precedes event `e` iff `e.clock[p] >= f.clock[p]` — because `f`'s own
//! component counts `f` itself, and components only flow forward along
//! messages.
//!
//! A clock holds one component per process id it has ever heard of, and
//! recovery mints a fresh id, so under churn a clock outgrows any one view
//! (up to 39 components in a 10 s `sim_churn` run). It is cloned into every
//! trace event and every simulated message, so it is stored as one sorted
//! vector: a clone is a single copy, and [`Clone::clone_from`] into a
//! journal slot that already holds a clock copies without allocating.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::json::Obj;

/// A sparse vector clock: absent components are zero.
#[derive(Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VClock {
    /// The non-zero components as `(process, count)`, sorted by process.
    entries: Vec<(u64, u64)>,
}

impl Clone for VClock {
    fn clone(&self) -> Self {
        VClock {
            entries: self.entries.clone(),
        }
    }

    /// Copies into the existing buffer. It grows to exactly `source`'s
    /// length when too small (`Vec::clone_from` would double it), so a
    /// reused journal slot holds no more than a fresh clone would.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clear();
        self.entries.reserve_exact(source.entries.len());
        self.entries.extend_from_slice(&source.entries);
    }
}

impl fmt::Debug for VClock {
    /// Renders as a map, `VClock { entries: {1: 2, 5: 1} }`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entries<'a>(&'a [(u64, u64)]);
        impl fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(p, c)| (p, c)))
                    .finish()
            }
        }
        f.debug_struct("VClock")
            .field("entries", &Entries(&self.entries))
            .finish()
    }
}

impl VClock {
    /// The all-zero clock.
    pub fn new() -> Self {
        VClock::default()
    }

    fn find(&self, process: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&process, |&(p, _)| p)
    }

    /// The component for `process` (zero when absent).
    pub fn get(&self, process: u64) -> u64 {
        self.find(process).map_or(0, |i| self.entries[i].1)
    }

    /// Increments `process`'s own component, returning the new value.
    pub fn tick(&mut self, process: u64) -> u64 {
        match self.find(process) {
            Ok(i) => {
                self.entries[i].1 += 1;
                self.entries[i].1
            }
            Err(i) => {
                self.entries.insert(i, (process, 1));
                1
            }
        }
    }

    /// Sets `process`'s component directly (zero removes it), keeping the
    /// sparse representation canonical. Used when reconstructing clocks
    /// from serialized form; protocol code should only [`VClock::tick`]
    /// and [`VClock::merge`].
    pub fn set(&mut self, process: u64, count: u64) {
        match (self.find(process), count) {
            (Ok(i), 0) => {
                self.entries.remove(i);
            }
            (Ok(i), _) => self.entries[i].1 = count,
            (Err(_), 0) => {}
            (Err(i), _) => self.entries.insert(i, (process, count)),
        }
    }

    /// Componentwise maximum with `other` (message receipt).
    ///
    /// Linear in both lengths: the vector grows by the components only
    /// `other` has, then one pass from the back moves every entry to its
    /// final slot, so nothing is shifted twice.
    pub fn merge(&mut self, other: &VClock) {
        let theirs = &other.entries;
        let mut i = 0;
        let mut missing = 0;
        for &(q, _) in theirs {
            while i < self.entries.len() && self.entries[i].0 < q {
                i += 1;
            }
            if i == self.entries.len() || self.entries[i].0 != q {
                missing += 1;
            }
        }
        let mine = &mut self.entries;
        let mut i = mine.len();
        let mut k = i + missing;
        mine.resize(k, (0, 0));
        let mut j = theirs.len();
        while j > 0 {
            let (q, c) = theirs[j - 1];
            k -= 1;
            if i > 0 && mine[i - 1].0 >= q {
                i -= 1;
                mine[k] = mine[i];
                if mine[k].0 == q {
                    mine[k].1 = mine[k].1.max(c);
                    j -= 1;
                }
            } else {
                mine[k] = (q, c);
                j -= 1;
            }
        }
    }

    /// Whether `self >= other` componentwise (everything `other` has seen,
    /// `self` has seen too).
    pub fn dominates(&self, other: &VClock) -> bool {
        let mine = &self.entries;
        let mut i = 0;
        other.entries.iter().all(|&(q, c)| {
            while i < mine.len() && mine[i].0 < q {
                i += 1;
            }
            i < mine.len() && mine[i].0 == q && mine[i].1 >= c
        })
    }

    /// Strict happens-before: `self < other` in the componentwise order.
    pub fn happened_before(&self, other: &VClock) -> bool {
        other.dominates(self) && self != other
    }

    /// Neither clock dominates the other.
    pub fn concurrent(&self, other: &VClock) -> bool {
        !self.dominates(other) && !other.dominates(self)
    }

    /// Whether no component has ever ticked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates non-zero components as `(process, count)`, ascending.
    pub fn components(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Renders the clock as a JSON object keyed by process id.
    pub fn to_json(&self) -> String {
        let mut obj = Obj::new();
        for &(p, c) in &self.entries {
            obj = obj.u64(&p.to_string(), c);
        }
        obj.finish()
    }
}

/// FNV-1a over `bytes`: the journal's cheap deterministic digest, used to
/// compare "the same operation" across processes without shipping payloads.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_and_get_track_own_component() {
        let mut c = VClock::new();
        assert_eq!(c.get(3), 0);
        assert_eq!(c.tick(3), 1);
        assert_eq!(c.tick(3), 2);
        assert_eq!(c.get(3), 2);
        assert_eq!(c.get(4), 0);
    }

    #[test]
    fn merge_takes_componentwise_max() {
        let mut a = VClock::new();
        a.tick(1);
        a.tick(1);
        let mut b = VClock::new();
        b.tick(1);
        b.tick(2);
        a.merge(&b);
        assert_eq!(a.get(1), 2);
        assert_eq!(a.get(2), 1);
    }

    #[test]
    fn happens_before_is_strict_and_concurrency_is_symmetric() {
        let mut a = VClock::new();
        a.tick(1);
        let mut b = a.clone();
        b.tick(2);
        assert!(a.happened_before(&b));
        assert!(!b.happened_before(&a));
        assert!(!a.happened_before(&a));

        let mut c = VClock::new();
        c.tick(3);
        assert!(b.concurrent(&c));
        assert!(c.concurrent(&b));
    }

    #[test]
    fn json_lists_components_sorted() {
        let mut c = VClock::new();
        c.tick(10);
        c.tick(2);
        assert_eq!(c.to_json(), r#"{"2":1,"10":1}"#);
        assert_eq!(VClock::new().to_json(), "{}");
    }

    /// The clock as it was before it became a sorted vector: the reference
    /// every observer of [`VClock`] is checked against.
    #[derive(Clone, Default, PartialEq)]
    struct Model(std::collections::BTreeMap<u64, u64>);

    impl Model {
        fn get(&self, p: u64) -> u64 {
            self.0.get(&p).copied().unwrap_or(0)
        }
        fn tick(&mut self, p: u64) -> u64 {
            let c = self.0.entry(p).or_insert(0);
            *c += 1;
            *c
        }
        fn set(&mut self, p: u64, c: u64) {
            if c == 0 {
                self.0.remove(&p);
            } else {
                self.0.insert(p, c);
            }
        }
        fn merge(&mut self, other: &Model) {
            for (&p, &c) in &other.0 {
                let slot = self.0.entry(p).or_insert(0);
                *slot = (*slot).max(c);
            }
        }
        fn dominates(&self, other: &Model) -> bool {
            other.0.iter().all(|(&p, &c)| self.get(p) >= c)
        }
        fn to_json(&self) -> String {
            let mut obj = Obj::new();
            for (&p, &c) in &self.0 {
                obj = obj.u64(&p.to_string(), c);
            }
            obj.finish()
        }
    }

    /// Clocks a step may touch; merges go between any two of them.
    const CLOCKS: usize = 3;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn sorted_vector_clock_agrees_with_the_map_model(
            steps in proptest::collection::vec((0u8..3, 0..CLOCKS, 0..CLOCKS, 0u64..64, 0u64..4), 1..200)
        ) {
            let mut clocks = vec![VClock::new(); CLOCKS];
            let mut models = vec![Model::default(); CLOCKS];
            for (op, a, b, p, c) in steps {
                match op {
                    0 => assert_eq!(clocks[a].tick(p), models[a].tick(p)),
                    1 => {
                        clocks[a].set(p, c);
                        models[a].set(p, c);
                    }
                    _ => {
                        let (theirs, their_model) = (clocks[b].clone(), models[b].clone());
                        clocks[a].merge(&theirs);
                        models[a].merge(&their_model);
                    }
                }
                for (x, (clock, model)) in clocks.iter().zip(&models).enumerate() {
                    for q in 0..64 {
                        assert_eq!(clock.get(q), model.get(q));
                    }
                    let model_components: Vec<(u64, u64)> =
                        model.0.iter().map(|(&p, &c)| (p, c)).collect();
                    assert_eq!(clock.components().collect::<Vec<_>>(), model_components);
                    assert_eq!(clock.is_empty(), model.0.is_empty());
                    assert_eq!(clock.to_json(), model.to_json());
                    assert_eq!(format!("{clock:?}"), format!("VClock {{ entries: {:?} }}", model.0));
                    for (y, (other, other_model)) in clocks.iter().zip(&models).enumerate() {
                        let dominates = model.dominates(other_model);
                        let dominated = other_model.dominates(model);
                        assert_eq!(clock.dominates(other), dominates, "{x} >= {y}");
                        assert_eq!(clock.happened_before(other), dominated && model != other_model);
                        assert_eq!(clock.concurrent(other), !dominates && !dominated);
                        assert_eq!(clock == other, model == other_model);
                    }
                }
            }
        }
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"view"), fnv1a(b"view"));
    }
}
