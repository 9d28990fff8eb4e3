//! The bounded least-recently-used map behind both of the engine's
//! in-memory caches: the compile service's artifact tier (L1) and the
//! session's prepared-statement cache.

use crate::supervise::lock_recover;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

/// Counters of one [`Lru`], read with [`Lru::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LruStats {
    /// Lookups that found their key.
    pub(crate) hits: u64,
    /// Lookups that did not (every lookup, when `capacity == 0`).
    pub(crate) misses: u64,
    /// Entries displaced to respect the capacity bound.
    pub(crate) evictions: u64,
    /// Entries currently resident.
    pub(crate) entries: usize,
}

struct Inner<K, V> {
    /// Each value with the tick of its last use.
    map: HashMap<K, (V, u64)>,
    tick: u64,
    stats: LruStats,
}

/// A bounded LRU shared between threads. `capacity == 0` is a
/// pass-through: nothing is retained and every lookup is a counted
/// miss. A full map evicts the entry whose last use is oldest.
pub(crate) struct Lru<K, V> {
    inner: Mutex<Inner<K, V>>,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: LruStats::default(),
            }),
            capacity,
        }
    }

    /// The value under `key` (any borrowed form of the key type), marked
    /// as just used; counts a hit or a miss.
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let inner = &mut *lock_recover(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.map.get_mut(key).map(|(value, used)| {
            *used = tick;
            value.clone()
        });
        match found {
            Some(_) => inner.stats.hits += 1,
            None => inner.stats.misses += 1,
        }
        found
    }

    /// Inserts `value` under `key` unless the key is resident already:
    /// of two threads that missed on one key and both insert, the first
    /// writer wins. Returns whether this insert won. A pass-through
    /// retains nothing and has no race to lose, so it returns `true`.
    pub(crate) fn insert(&self, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return true;
        }
        let inner = &mut *lock_recover(&self.inner);
        inner.tick += 1;
        if inner.map.contains_key(&key) {
            return false;
        }
        if inner.map.len() >= self.capacity {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                inner.map.remove(&victim);
                inner.stats.evictions += 1;
            }
        }
        inner.map.insert(key, (value, inner.tick));
        true
    }

    pub(crate) fn stats(&self) -> LruStats {
        let inner = lock_recover(&self.inner);
        LruStats {
            entries: inner.map.len(),
            ..inner.stats
        }
    }

    /// Sum of `weigh` over the resident values.
    pub(crate) fn total(&self, weigh: impl Fn(&V) -> usize) -> usize {
        let inner = lock_recover(&self.inner);
        inner.map.values().map(|(value, _)| weigh(value)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(hits: u64, misses: u64, evictions: u64, entries: usize) -> LruStats {
        LruStats {
            hits,
            misses,
            evictions,
            entries,
        }
    }

    #[test]
    fn zero_capacity_is_a_pass_through_that_counts_misses() {
        let lru = Lru::new(0);
        assert!(lru.insert("a", 1), "a pass-through has no race to lose");
        assert!(lru.insert("a", 2));
        assert_eq!(lru.get(&"a"), None);
        assert_eq!(lru.get(&"a"), None);
        assert_eq!(lru.stats(), stats(0, 2, 0, 0));
        assert_eq!(lru.total(|v| *v), 0);
    }

    #[test]
    fn the_entry_used_longest_ago_is_evicted() {
        let lru = Lru::new(2);
        assert!(lru.insert("a", 1));
        assert!(lru.insert("b", 2));
        // Using `a` makes `b` the oldest.
        assert_eq!(lru.get(&"a"), Some(1));
        assert!(lru.insert("c", 3));
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.get(&"a"), Some(1));
        assert_eq!(lru.get(&"c"), Some(3));
        // Now `a` is older than `c`.
        assert!(lru.insert("d", 4));
        assert_eq!(lru.get(&"a"), None);
        assert_eq!(lru.get(&"c"), Some(3));
        assert_eq!(lru.stats(), stats(4, 2, 2, 2));
        assert_eq!(lru.total(|v| *v), 3 + 4);
    }

    #[test]
    fn the_first_writer_wins_an_insert_race() {
        let lru = Lru::new(4);
        assert!(lru.insert("k", 1));
        assert!(!lru.insert("k", 2), "the second writer must lose");
        assert_eq!(lru.get(&"k"), Some(1));
        assert_eq!(lru.stats(), stats(1, 0, 0, 1));
    }

    #[test]
    fn a_losing_insert_neither_evicts_nor_refreshes() {
        let lru = Lru::new(2);
        assert!(lru.insert("a", 1));
        assert!(lru.insert("b", 2));
        // A full map, and a key that is resident: nothing is displaced,
        // and `a` stays the oldest entry.
        assert!(!lru.insert("a", 9));
        assert!(lru.insert("c", 3));
        assert_eq!(lru.get(&"a"), None);
        assert_eq!(lru.get(&"b"), Some(2));
        assert_eq!(lru.stats(), stats(1, 1, 1, 2));
    }

    /// `total` runs its closure under the lock, so a panic there
    /// poisons it: a supervised panic must still leave the cache usable.
    #[test]
    fn a_panic_under_the_lock_leaves_the_cache_usable() {
        let lru = Lru::new(2);
        assert!(lru.insert("a", 1));
        let died = crate::supervise::supervise(|| {
            lru.total(|_| std::panic::resume_unwind(Box::new("weigh died")))
        });
        assert_eq!(died, Err("weigh died".to_string()));
        assert!(lru.inner.is_poisoned());
        assert_eq!(lru.get(&"a"), Some(1));
        assert!(lru.insert("b", 2));
        assert_eq!(lru.stats(), stats(1, 0, 0, 2));
        assert_eq!(lru.total(|v| *v), 1 + 2);
    }
}
