//! Byte-budgeted LRU caching for the engine's memoized state.
//!
//! The engine memoizes two expensive artifacts: r-skyband candidate
//! sets (per `(k, region, scoring)`) and transformed datasets (per
//! generalized scoring). Both used to live in plain `HashMap`s bounded
//! by *entry count* with arbitrary eviction — fine until one entry is
//! a thousand times larger than another. [`ByteLru`] replaces that
//! with a real cache policy:
//!
//! * **byte-budget accounting** — each entry carries its payload size
//!   (the `CandidateSet` / transformed-dataset bytes, not an entry
//!   count), and the cache holds entries until their *total* bytes
//!   exceed the budget;
//! * **LRU eviction** — entries are stamped on insert and on every
//!   hit; eviction removes the least-recently-used entry first (an
//!   `O(entries)` min-scan per eviction, deliberately simple — the
//!   byte budget keeps entry counts small, and a scan has no unsafe
//!   intrusive-list bookkeeping to get wrong);
//! * **oversized entries are not cached** — a single payload larger
//!   than the whole budget would only evict everything else and then
//!   get evicted itself, so it is returned to the caller uncached.
//!
//! The cache is deliberately *not* internally synchronized: the engine
//! wraps it in the same `Mutex` it already used, keeping lock behavior
//! identical to the previous implementation.
//!
//! Cross-region *superset reuse* (an r-skyband cached for `R' ⊇ R` is
//! a valid superset filter for `R`) lives in the engine, not here —
//! the cache only exposes the non-touching [`ByteLru::scan`] iterator
//! that the probe is built on.

use std::collections::HashMap;
use std::hash::Hash;

/// One cached payload with its size and recency stamp.
#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    bytes: usize,
    stamp: u64,
}

/// A byte-budgeted LRU map. See the [module docs](self) for the
/// policy.
#[derive(Debug)]
pub struct ByteLru<K, V> {
    map: HashMap<K, Slot<V>>,
    budget: usize,
    used: usize,
    tick: u64,
    evictions: usize,
}

impl<K: Eq + Hash + Clone, V> ByteLru<K, V> {
    /// An empty cache holding at most `budget` payload bytes.
    pub fn new(budget: usize) -> Self {
        Self {
            map: HashMap::new(),
            budget,
            used: 0,
            tick: 0,
            evictions: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Payload bytes currently held.
    pub fn bytes_used(&self) -> usize {
        self.used
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Total evictions over the cache's lifetime.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Looks up `key`, marking the entry most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.stamp = tick;
            &slot.value
        })
    }

    /// Looks up `key` without touching recency (a batch's concurrent
    /// lookups leave recency to its in-order commit).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|slot| &slot.value)
    }

    /// Marks `key` most-recently-used without returning it (used when
    /// a superset entry serves a containment probe).
    pub fn touch(&mut self, key: &K) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.map.get_mut(key) {
            slot.stamp = tick;
        }
    }

    /// Iterates `(key, value)` pairs without touching recency — the
    /// substrate of the engine's superset-containment probe.
    pub fn scan(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, slot)| (k, &slot.value))
    }

    /// Inserts `key → value` accounted at `bytes`, evicting
    /// least-recently-used entries until the budget holds again.
    /// Returns how many entries were evicted. Payloads larger than the
    /// whole budget are not cached (returns 0; nothing is disturbed).
    pub fn insert(&mut self, key: K, value: V, bytes: usize) -> usize {
        if bytes > self.budget {
            return 0;
        }
        self.tick += 1;
        let slot = Slot {
            value,
            bytes,
            stamp: self.tick,
        };
        if let Some(old) = self.map.insert(key, slot) {
            self.used -= old.bytes;
        }
        self.used += bytes;
        self.evict_over_budget()
    }

    /// Drops every entry, keeping the budget, the recency clock and
    /// the lifetime eviction counter (cleared entries are *not*
    /// evictions — they were invalidated, not displaced).
    pub fn clear(&mut self) {
        self.map.clear();
        self.used = 0;
    }

    /// Removes and returns every entry as `(key, value, bytes)`,
    /// ordered least-recently-used first, leaving the cache empty
    /// (budget, clock and eviction counter intact). Re-inserting a
    /// subset in the returned order reproduces the original relative
    /// recency — this is the engine's dataset-mutation hook: entries
    /// are drained, re-validated, re-keyed under the new epoch, and
    /// put back without disturbing LRU order.
    pub fn take_entries(&mut self) -> Vec<(K, V, usize)> {
        let mut slots: Vec<(K, Slot<V>)> = self.map.drain().collect();
        self.used = 0;
        slots.sort_by_key(|(_, slot)| slot.stamp);
        slots
            .into_iter()
            .map(|(k, slot)| (k, slot.value, slot.bytes))
            .collect()
    }

    /// Re-sizes the byte budget in place, evicting LRU entries if the
    /// new budget is smaller than the bytes currently held (growing is
    /// free and disturbs nothing). Returns how many entries were
    /// evicted. This is what lets a registry *share* one budget across
    /// many engines: each engine's slice can shrink or grow as
    /// datasets load and unload, without discarding a still-valid
    /// cache wholesale.
    pub fn set_budget(&mut self, budget: usize) -> usize {
        self.budget = budget;
        self.evict_over_budget()
    }

    /// Evicts least-recently-used entries until `used ≤ budget`;
    /// returns the number evicted.
    fn evict_over_budget(&mut self) -> usize {
        let mut evicted = 0;
        while self.used > self.budget {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.stamp)
                .map(|(k, _)| k.clone())
                // utk-lint: allow(panic) -- invariant: used > budget implies the map is non-empty
                .expect("over-budget cache cannot be empty");
            // utk-lint: allow(panic) -- invariant: victim key was just drawn from this map
            let slot = self.map.remove(&victim).expect("victim exists");
            self.used -= slot.bytes;
            self.evictions += 1;
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_first() {
        let mut cache: ByteLru<&str, u32> = ByteLru::new(30);
        cache.insert("a", 1, 10);
        cache.insert("b", 2, 10);
        cache.insert("c", 3, 10);
        assert_eq!(cache.len(), 3);
        // Touch "a" so "b" becomes the LRU victim.
        assert_eq!(cache.get(&"a"), Some(&1));
        let evicted = cache.insert("d", 4, 10);
        assert_eq!(evicted, 1);
        assert!(cache.get(&"b").is_none(), "LRU entry must go first");
        assert_eq!(cache.get(&"a"), Some(&1));
        assert_eq!(cache.get(&"c"), Some(&3));
        assert_eq!(cache.get(&"d"), Some(&4));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn byte_budget_not_entry_count_bounds_the_cache() {
        let mut cache: ByteLru<u32, u32> = ByteLru::new(100);
        for i in 0..10 {
            cache.insert(i, i, 5); // 50 bytes total: all fit
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.bytes_used(), 50);
        // One big entry forces several small ones out.
        let evicted = cache.insert(99, 99, 80);
        assert!(evicted >= 3, "evicted {evicted}");
        assert!(cache.bytes_used() <= 100);
        assert_eq!(cache.get(&99), Some(&99));
    }

    #[test]
    fn oversized_payloads_are_not_cached() {
        let mut cache: ByteLru<u32, u32> = ByteLru::new(10);
        cache.insert(1, 1, 4);
        assert_eq!(cache.insert(2, 2, 11), 0);
        assert!(cache.get(&2).is_none());
        assert_eq!(cache.get(&1), Some(&1), "existing entries undisturbed");
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn reinsert_replaces_accounting() {
        let mut cache: ByteLru<&str, u32> = ByteLru::new(20);
        cache.insert("a", 1, 8);
        cache.insert("a", 2, 12);
        assert_eq!(cache.bytes_used(), 12);
        assert_eq!(cache.get(&"a"), Some(&2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn scan_does_not_touch_recency() {
        let mut cache: ByteLru<&str, u32> = ByteLru::new(20);
        cache.insert("old", 1, 10);
        cache.insert("new", 2, 10);
        // Scanning "old" must not rescue it from eviction.
        let seen: Vec<&str> = cache.scan().map(|(k, _)| *k).collect();
        assert_eq!(seen.len(), 2);
        cache.insert("next", 3, 10);
        assert!(cache.get(&"old").is_none());
    }

    #[test]
    fn set_budget_shrinks_by_evicting_lru_and_grows_for_free() {
        let mut cache: ByteLru<&str, u32> = ByteLru::new(30);
        cache.insert("a", 1, 10);
        cache.insert("b", 2, 10);
        cache.insert("c", 3, 10);
        // Touch "a": "b" is now the LRU victim when the budget halves.
        assert_eq!(cache.get(&"a"), Some(&1));
        let evicted = cache.set_budget(20);
        assert_eq!(evicted, 1);
        assert_eq!(cache.budget(), 20);
        assert!(cache.get(&"b").is_none());
        assert_eq!(cache.bytes_used(), 20);
        // Growing evicts nothing and keeps entries resident.
        assert_eq!(cache.set_budget(100), 0);
        assert_eq!(cache.get(&"a"), Some(&1));
        assert_eq!(cache.get(&"c"), Some(&3));
        // New headroom is usable immediately.
        assert_eq!(cache.insert("d", 4, 60), 0);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn take_entries_orders_lru_first_and_preserves_recency_on_reinsert() {
        let mut cache: ByteLru<&str, u32> = ByteLru::new(100);
        cache.insert("a", 1, 10);
        cache.insert("b", 2, 10);
        cache.insert("c", 3, 10);
        assert_eq!(cache.get(&"a"), Some(&1)); // "b" is now LRU
        let drained = cache.take_entries();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes_used(), 0);
        let keys: Vec<&str> = drained.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(keys, vec!["b", "c", "a"]);
        // Re-inserting in drain order reproduces the recency: after
        // shrinking, "b" (the old LRU) is evicted first again.
        for (k, v, bytes) in drained {
            cache.insert(k, v, bytes);
        }
        cache.set_budget(20);
        assert!(cache.get(&"b").is_none());
        assert_eq!(cache.get(&"a"), Some(&1));
        assert_eq!(cache.get(&"c"), Some(&3));
    }

    #[test]
    fn clear_drops_entries_but_not_counters() {
        let mut cache: ByteLru<&str, u32> = ByteLru::new(10);
        cache.insert("a", 1, 6);
        cache.insert("b", 2, 6); // evicts "a"
        assert_eq!(cache.evictions(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes_used(), 0);
        assert_eq!(cache.budget(), 10);
        assert_eq!(cache.evictions(), 1, "clear is not an eviction");
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let mut cache: ByteLru<u32, u32> = ByteLru::new(0);
        assert_eq!(cache.insert(1, 1, 1), 0);
        assert!(cache.is_empty());
        // Zero-byte payloads do fit a zero budget (degenerate but
        // consistent).
        cache.insert(2, 2, 0);
        assert_eq!(cache.get(&2), Some(&2));
    }
}
