//! A small, exact LRU cache.
//!
//! Every engine cache is one of these: completeness verdicts keyed by
//! `(canonical query, TCS epoch)`, evaluation answers keyed by
//! `(canonical query, data epoch)`, compiled plans keyed by canonical
//! query, `analyze state` and `why` replies keyed by epoch pair.
//! Capacities are small (hundreds to thousands of entries), so eviction
//! does a linear minimum-stamp scan — O(capacity), branch-free, and with
//! no linked-list bookkeeping to get wrong. At the capacities the server
//! uses, the scan is far cheaper than the reasoning whose result it
//! caches.

use std::collections::HashMap;
use std::hash::Hash;

/// An exact least-recently-used cache with a fixed capacity.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `cap` entries (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, stamp)| {
            *stamp = tick;
            v.clone()
        })
    }

    /// Inserts `key → value`, evicting the least recently used entry if
    /// the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (value, self.tick));
    }

    /// Iterates the cached entries (unspecified order) without touching
    /// recency — the `plans` introspection request walks this.
    pub fn entries(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, (v, _))| (k, v))
    }

    /// The number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry (e.g. on an epoch bump, where stale keys can
    /// never be queried again and would only occupy capacity).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(1)); // refresh "a"; "b" is now LRU
        c.insert("c", 3);
        let mut keys: Vec<&str> = c.entries().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["a", "c"]);
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("a", 10);
        c.insert("b", 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(10));
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        c.insert(1, 1);
        c.insert(2, 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }
}
