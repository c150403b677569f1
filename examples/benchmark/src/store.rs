//! `TimedStore`: an [`ArtifactStore`] that records each call into the
//! store layer as a `bench.store_get` / `bench.store_put` span, so a
//! traced run shows how often the layer was called and how long it was
//! busy without a span inside the program.

use std::sync::Arc;

use mpvar_study::{ArtifactStore, ArtifactValue, CacheKey, StoreStats};
use mpvar_trace::SpanGuard;

/// Span around one `ArtifactStore::get`.
pub const SPAN_GET: &str = "bench.store_get";
/// Span around one `ArtifactStore::put`.
pub const SPAN_PUT: &str = "bench.store_put";

/// Wraps a store; every other behaviour is the inner store's.
#[derive(Debug)]
pub struct TimedStore {
    inner: Arc<dyn ArtifactStore>,
}

impl TimedStore {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn ArtifactStore>) -> Self {
        Self { inner }
    }
}

/// `inner` wrapped in a [`TimedStore`] for a traced execution; an
/// untraced one uses the store as the program would.
pub fn timed_if(traced: bool, inner: Arc<dyn ArtifactStore>) -> Arc<dyn ArtifactStore> {
    if traced {
        Arc::new(TimedStore::new(inner))
    } else {
        inner
    }
}

fn span(name: &'static str) -> SpanGuard {
    if mpvar_trace::enabled() {
        SpanGuard::enter(name, Vec::new())
    } else {
        SpanGuard::disabled()
    }
}

impl ArtifactStore for TimedStore {
    fn get(&self, key: CacheKey) -> Option<Arc<ArtifactValue>> {
        let _span = span(SPAN_GET);
        self.inner.get(key)
    }

    fn put(&self, key: CacheKey, value: Arc<ArtifactValue>) -> Arc<ArtifactValue> {
        let _span = span(SPAN_PUT);
        self.inner.put(key, value)
    }

    fn contains(&self, key: CacheKey) -> bool {
        self.inner.contains(key)
    }

    fn evict(&self, key: CacheKey) -> bool {
        self.inner.evict(key)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_core::experiments::Table2;
    use mpvar_study::DiskStore;

    fn value(rows: usize) -> Arc<ArtifactValue> {
        Arc::new(ArtifactValue::Table2(Table2 {
            rows: (0..rows)
                .map(|i| (16 << i, i as f64, 2.0 * i as f64))
                .collect(),
        }))
    }

    /// Runs one scripted get/put sequence and returns every answer plus
    /// the final stats.
    fn script(store: &dyn ArtifactStore) -> (Vec<Option<ArtifactValue>>, StoreStats) {
        let get = |key| store.get(CacheKey(key)).map(|v| (*v).clone());
        let put = |key, rows| Some((*store.put(CacheKey(key), value(rows))).clone());
        let answers = vec![
            get(1),
            put(1, 2),
            put(1, 3),
            get(1),
            put(2, 1),
            get(3),
            get(2),
        ];
        (answers, store.stats())
    }

    fn root(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!(
            "mpvar-benchmark-store-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn timed_store_answers_like_a_bare_disk_store() {
        let (bare_root, timed_root) = (root("bare"), root("timed"));
        let bare = DiskStore::open(&bare_root).expect("open bare store");
        let timed = TimedStore::new(Arc::new(
            DiskStore::open(&timed_root).expect("open timed store"),
        ));
        assert_eq!(script(&bare), script(&timed));

        // A reopened store answers from disk: same again.
        let bare = DiskStore::open(&bare_root).expect("reopen bare store");
        let timed = TimedStore::new(Arc::new(
            DiskStore::open(&timed_root).expect("reopen timed store"),
        ));
        let (bare_answers, bare_stats) = script(&bare);
        let (timed_answers, timed_stats) = script(&timed);
        assert_eq!(bare_answers, timed_answers);
        assert_eq!(bare_stats, timed_stats);
        assert_eq!(timed_stats.disk_hits, 1);
        let _ = std::fs::remove_dir_all(bare_root);
        let _ = std::fs::remove_dir_all(timed_root);
    }
}
