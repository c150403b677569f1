//! The redesigned storage API behind [`crate::Study`] sessions.
//!
//! A [`Study`](crate::Study) no longer owns a concrete cache: it talks
//! to an [`ArtifactStore`] — any shareable, thread-safe map from
//! content keys ([`CacheKey`]) to artifact values. Two implementations
//! ship with the workspace:
//!
//! * [`MemoryStore`] — an in-process map; entries die with the process.
//! * [`DiskStore`](crate::DiskStore) — a content-addressed on-disk
//!   store with a versioned binary envelope, integrity checksums,
//!   corrupt-entry quarantine, and atomic write-then-rename, so a
//!   process restart loses nothing (see [`crate::disk`]).
//!
//! Because keys are content-derived (stable hashes of every
//! result-determining knob plus the dependency closure) and every
//! producer is bit-identical at any thread count, **any** store is
//! sound to share between sessions, processes, and machines: a stored
//! value is *the* value. A store can therefore never change a result —
//! only skip recomputing it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cache::CacheKey;
use crate::value::ArtifactValue;

/// Counters describing a store's population and traffic.
///
/// All counters are cumulative over the store's lifetime (in-memory
/// stores: since construction; disk stores: since open).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreStats {
    /// Entries currently resident in the fastest layer (memory).
    pub entries: usize,
    /// Entries currently persisted on disk (0 for pure-memory stores).
    pub disk_entries: usize,
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups answered by decoding a persisted entry.
    pub disk_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values accepted by [`ArtifactStore::put`] (excludes re-puts of
    /// already-present keys).
    pub writes: u64,
    /// Entries dropped via [`ArtifactStore::evict`].
    pub evictions: u64,
    /// Persisted entries rejected (bad envelope, checksum mismatch,
    /// undecodable payload) and moved to quarantine.
    pub quarantined: u64,
}

/// A shareable content-keyed artifact store.
///
/// Implementations must be safe to call from many threads at once and
/// must give **first-write-wins** semantics: when two producers race on
/// one key, every later reader sees a single canonical `Arc`.
///
/// The contract that makes any store correct by construction: keys are
/// content hashes over every result-determining knob, and producers are
/// deterministic, so two values stored under one key are equal. A store
/// may therefore drop (evict) or deduplicate entries freely — it can
/// only ever cost recomputation, never correctness.
pub trait ArtifactStore: Send + Sync + std::fmt::Debug {
    /// Looks up a value by key.
    fn get(&self, key: CacheKey) -> Option<Arc<ArtifactValue>>;

    /// Stores a value under `key`, returning the canonical entry (the
    /// first value stored wins, so concurrent producers converge on
    /// one allocation).
    fn put(&self, key: CacheKey, value: Arc<ArtifactValue>) -> Arc<ArtifactValue>;

    /// Whether the store currently holds `key` (without counting as a
    /// hit or miss).
    fn contains(&self, key: CacheKey) -> bool;

    /// Drops the entry under `key`, returning whether one existed.
    fn evict(&self, key: CacheKey) -> bool;

    /// Population and traffic counters.
    fn stats(&self) -> StoreStats;

    /// Number of artifacts resident in the fastest layer.
    fn len(&self) -> usize {
        self.stats().entries
    }

    /// `true` when nothing is resident in the fastest layer.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The in-memory [`ArtifactStore`]: a mutex-guarded map, entries die
/// with the process.
///
/// Sessions built via [`crate::Study::new`] use one implicitly.
#[derive(Debug, Default)]
pub struct MemoryStore {
    entries: Mutex<HashMap<u64, Arc<ArtifactValue>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ArtifactStore for MemoryStore {
    fn get(&self, key: CacheKey) -> Option<Arc<ArtifactValue>> {
        let found = self
            .entries
            .lock()
            .expect("memory store lock poisoned")
            .get(&key.0)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn put(&self, key: CacheKey, value: Arc<ArtifactValue>) -> Arc<ArtifactValue> {
        let mut entries = self.entries.lock().expect("memory store lock poisoned");
        match entries.entry(key.0) {
            std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                e.insert(value).clone()
            }
        }
    }

    fn contains(&self, key: CacheKey) -> bool {
        self.entries
            .lock()
            .expect("memory store lock poisoned")
            .contains_key(&key.0)
    }

    fn evict(&self, key: CacheKey) -> bool {
        let existed = self
            .entries
            .lock()
            .expect("memory store lock poisoned")
            .remove(&key.0)
            .is_some();
        if existed {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        existed
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self
                .entries
                .lock()
                .expect("memory store lock poisoned")
                .len(),
            disk_entries: 0,
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: 0,
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_core::experiments::Table2;

    fn value() -> Arc<ArtifactValue> {
        Arc::new(ArtifactValue::Table2(Table2 {
            rows: vec![(16, 1.0, 2.0)],
        }))
    }

    #[test]
    fn memory_store_round_trip_and_stats() {
        let store = MemoryStore::new();
        let key = CacheKey(42);
        assert!(store.get(key).is_none());
        assert!(!store.contains(key));

        let canonical = store.put(key, value());
        assert!(store.contains(key));
        assert_eq!(store.get(key).as_deref(), Some(&*canonical));
        assert_eq!(store.len(), 1);

        // First write wins: a second put returns the canonical Arc.
        let second = store.put(key, value());
        assert!(Arc::ptr_eq(&canonical, &second));

        assert!(store.evict(key));
        assert!(!store.evict(key));
        assert!(store.is_empty());

        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.quarantined, 0);
    }
}
