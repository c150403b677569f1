//! Content-addressed on-disk [`ArtifactStore`].
//!
//! Layout under the store root:
//!
//! ```text
//! root/
//!   entries/<16-hex-key>.art   committed artifact envelopes
//!   tmp/                       in-progress writes (wiped on open)
//!   quarantine/                envelopes that failed validation
//! ```
//!
//! Every entry is a self-validating binary envelope:
//!
//! ```text
//! magic    [u8; 8]  = b"MPVARART"
//! format   u32 le   = ENVELOPE_VERSION
//! codec    u32 le   = codec::CODEC_VERSION of the payload
//! key      u64 le   = the CacheKey the entry claims to hold
//! len      u64 le   = payload byte count
//! checksum u64 le   = FNV-1a over the payload
//! payload  [u8; len]
//! ```
//!
//! Durability discipline: an envelope is staged in `tmp/`, flushed, and
//! atomically renamed into `entries/` — readers either see a complete
//! committed envelope or nothing. A crash mid-write leaves only `tmp/`
//! litter (deleted on the next [`DiskStore::open`]). If corruption does
//! reach `entries/` (torn sector, bit rot, truncation), validation
//! fails closed: the entry is moved to `quarantine/` for post-mortem,
//! the lookup reports a miss, and the artifact is recomputed — which
//! re-writes a good envelope, healing the store.
//!
//! A decoded-entry memory layer fronts the disk so repeated `get`s in
//! one process cost a map lookup, and `put` keeps the canonical-`Arc`
//! (first-write-wins) contract of [`ArtifactStore`].

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mpvar_trace::{counter_add, names};

use crate::cache::{fnv1a, CacheKey};
use crate::codec::{self, CODEC_VERSION};
use crate::store::{ArtifactStore, StoreStats};
use crate::value::ArtifactValue;

/// Magic prefix of every committed envelope.
pub(crate) const ENVELOPE_MAGIC: [u8; 8] = *b"MPVARART";

/// Version of the envelope framing itself (independent of the payload
/// codec version, which has its own field).
pub(crate) const ENVELOPE_VERSION: u32 = 1;

const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8;

/// A fault to inject into the **next** durable write, for crash-safety
/// tests. One-shot: consumed by the write it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The process "dies" mid-write: only the first `keep_bytes` bytes
    /// of the envelope reach the **final** path, simulating a torn
    /// write that bypassed the rename discipline (torn sector / bit
    /// rot). Validation must quarantine the remnant.
    TornWrite {
        /// Bytes of the envelope that survive.
        keep_bytes: usize,
    },
    /// The process dies after staging the full envelope in `tmp/` but
    /// before the atomic rename: the entry must simply not exist, and
    /// the next [`DiskStore::open`] must clean the litter.
    CrashBeforeRename,
}

/// The content-addressed on-disk [`ArtifactStore`].
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    memory: Mutex<HashMap<u64, Arc<ArtifactValue>>>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    quarantined: AtomicU64,
    tmp_counter: AtomicU64,
    fault: Mutex<Option<WriteFault>>,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// Deletes any `tmp/` leftovers from writes interrupted by a crash;
    /// committed entries are untouched (they are validated lazily, on
    /// first lookup).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] creating the directory layout or clearing
    /// `tmp/`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskStore> {
        let root = root.into();
        fs::create_dir_all(root.join("entries"))?;
        fs::create_dir_all(root.join("tmp"))?;
        fs::create_dir_all(root.join("quarantine"))?;
        for leftover in fs::read_dir(root.join("tmp"))? {
            let path = leftover?.path();
            if path.is_file() {
                fs::remove_file(&path)?;
            }
        }
        Ok(DiskStore {
            root,
            memory: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
            fault: Mutex::new(None),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Arms a one-shot [`WriteFault`] for the next durable write.
    /// Test-only by intent; a production caller never needs it.
    pub fn inject_write_fault(&self, fault: WriteFault) {
        *self.fault.lock().expect("fault lock poisoned") = Some(fault);
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.root
            .join("entries")
            .join(format!("{:016x}.art", key.0))
    }

    /// Number of committed envelopes currently in `entries/`.
    pub fn disk_entries(&self) -> usize {
        fs::read_dir(self.root.join("entries"))
            .map(|dir| dir.filter_map(Result::ok).count())
            .unwrap_or(0)
    }

    fn encode_envelope(key: CacheKey, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&ENVELOPE_MAGIC);
        out.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
        out.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        out.extend_from_slice(&key.0.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Validates an envelope read back from disk and decodes its
    /// payload. Any failure is a reason to quarantine.
    fn decode_envelope(key: CacheKey, bytes: &[u8]) -> Result<ArtifactValue, String> {
        if bytes.len() < HEADER_LEN {
            return Err(format!("envelope truncated to {} bytes", bytes.len()));
        }
        let (header, payload) = bytes.split_at(HEADER_LEN);
        if header[..8] != ENVELOPE_MAGIC {
            return Err("bad magic".to_string());
        }
        let field = |at: usize| -> u64 {
            u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"))
        };
        let format = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if format != ENVELOPE_VERSION {
            return Err(format!("envelope version {format} != {ENVELOPE_VERSION}"));
        }
        let codec_version = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        if codec_version != CODEC_VERSION {
            return Err(format!("codec version {codec_version} != {CODEC_VERSION}"));
        }
        if field(16) != key.0 {
            return Err(format!(
                "entry claims key {:016x}, expected {:016x}",
                field(16),
                key.0
            ));
        }
        if field(24) != payload.len() as u64 {
            return Err(format!(
                "payload length {} != recorded {}",
                payload.len(),
                field(24)
            ));
        }
        if field(32) != fnv1a(payload) {
            return Err("payload checksum mismatch".to_string());
        }
        codec::decode_value(payload).map_err(|e| e.to_string())
    }

    /// Moves a failed entry into `quarantine/` and bumps the counters.
    fn quarantine(&self, key: CacheKey, reason: &str) {
        let from = self.entry_path(key);
        let nonce = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let to = self
            .root
            .join("quarantine")
            .join(format!("{:016x}.{nonce}.art", key.0));
        // Best-effort: if the rename itself fails the entry stays in
        // place and will fail validation again next lookup.
        if fs::rename(&from, &to).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            counter_add(names::STORE_QUARANTINED, 1);
            let _ = fs::write(to.with_extension("reason"), reason);
        }
    }

    /// Stages the envelope in `tmp/` and atomically renames it into
    /// `entries/`. Honors an armed [`WriteFault`].
    fn write_entry(&self, key: CacheKey, value: &ArtifactValue) {
        let final_path = self.entry_path(key);
        if final_path.exists() {
            return;
        }
        let envelope = Self::encode_envelope(key, &codec::encode_value(value));
        let fault = self.fault.lock().expect("fault lock poisoned").take();
        match fault {
            Some(WriteFault::TornWrite { keep_bytes }) => {
                let kept = &envelope[..keep_bytes.min(envelope.len())];
                let _ = fs::write(&final_path, kept);
                return;
            }
            Some(WriteFault::CrashBeforeRename) => {
                let nonce = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
                let tmp = self
                    .root
                    .join("tmp")
                    .join(format!("{:016x}.{nonce}.art", key.0));
                let _ = fs::write(&tmp, &envelope);
                return;
            }
            None => {}
        }
        let nonce = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .root
            .join("tmp")
            .join(format!("{:016x}.{nonce}.art", key.0));
        let committed = (|| -> io::Result<()> {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&envelope)?;
            file.sync_all()?;
            drop(file);
            fs::rename(&tmp, &final_path)
        })();
        match committed {
            Ok(()) => {
                counter_add(names::STORE_DISK_WRITES, 1);
            }
            Err(_) => {
                // Disk full / permission lost: the store degrades to
                // memory-only for this entry rather than failing the
                // analysis.
                let _ = fs::remove_file(&tmp);
            }
        }
    }

    /// Reads, validates, and decodes a committed entry; quarantines on
    /// any failure.
    fn load_entry(&self, key: CacheKey) -> Option<ArtifactValue> {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => return None,
        };
        match Self::decode_envelope(key, &bytes) {
            Ok(value) => Some(value),
            Err(reason) => {
                self.quarantine(key, &reason);
                None
            }
        }
    }
}

impl ArtifactStore for DiskStore {
    fn get(&self, key: CacheKey) -> Option<Arc<ArtifactValue>> {
        if let Some(found) = self
            .memory
            .lock()
            .expect("disk store lock poisoned")
            .get(&key.0)
            .cloned()
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(found);
        }
        match self.load_entry(key) {
            Some(value) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                counter_add(names::STORE_DISK_HITS, 1);
                let mut memory = self.memory.lock().expect("disk store lock poisoned");
                Some(
                    memory
                        .entry(key.0)
                        .or_insert_with(|| Arc::new(value))
                        .clone(),
                )
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, key: CacheKey, value: Arc<ArtifactValue>) -> Arc<ArtifactValue> {
        let canonical = {
            let mut memory = self.memory.lock().expect("disk store lock poisoned");
            match memory.entry(key.0) {
                std::collections::hash_map::Entry::Occupied(e) => return e.get().clone(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    self.writes.fetch_add(1, Ordering::Relaxed);
                    e.insert(value).clone()
                }
            }
        };
        self.write_entry(key, &canonical);
        canonical
    }

    fn contains(&self, key: CacheKey) -> bool {
        self.memory
            .lock()
            .expect("disk store lock poisoned")
            .contains_key(&key.0)
            || self.entry_path(key).exists()
    }

    fn evict(&self, key: CacheKey) -> bool {
        let in_memory = self
            .memory
            .lock()
            .expect("disk store lock poisoned")
            .remove(&key.0)
            .is_some();
        let on_disk = fs::remove_file(self.entry_path(key)).is_ok();
        let existed = in_memory || on_disk;
        if existed {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        existed
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.memory.lock().expect("disk store lock poisoned").len(),
            disk_entries: self.disk_entries(),
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_core::experiments::Table2;

    fn value() -> Arc<ArtifactValue> {
        Arc::new(ArtifactValue::Table2(Table2 {
            rows: vec![(16, 1.0, 2.0), (64, 3.0, 4.0)],
        }))
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("mpvar-disk-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn survives_reopen() {
        let root = temp_root("reopen");
        let key = CacheKey(7);
        {
            let store = DiskStore::open(&root).expect("open");
            store.put(key, value());
            assert_eq!(store.stats().disk_entries, 1);
        }
        let store = DiskStore::open(&root).expect("reopen");
        assert!(store.contains(key));
        let loaded = store.get(key).expect("disk-warm hit");
        assert_eq!(*loaded, *value());
        let stats = store.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.hits, 0);
        // Second get is answered from the memory layer.
        store.get(key).expect("memory hit");
        assert_eq!(store.stats().hits, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_rewritable() {
        let root = temp_root("corrupt");
        let key = CacheKey(9);
        let store = DiskStore::open(&root).expect("open");
        store.put(key, value());
        let path = store.entry_path(key);
        let mut bytes = fs::read(&path).expect("entry bytes");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).expect("corrupt in place");

        let reopened = DiskStore::open(&root).expect("reopen");
        assert!(reopened.get(key).is_none(), "corruption reads as a miss");
        let stats = reopened.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.disk_entries, 0);
        assert!(
            fs::read_dir(root.join("quarantine"))
                .expect("quarantine dir")
                .filter_map(Result::ok)
                .any(|e| e.path().extension().is_some_and(|x| x == "art")),
            "failed envelope parked in quarantine/"
        );

        // A recompute heals the store.
        reopened.put(key, value());
        assert_eq!(reopened.get(key).as_deref(), Some(&*value()));
        assert_eq!(reopened.stats().disk_entries, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_key_claim_is_rejected() {
        let root = temp_root("wrongkey");
        let store = DiskStore::open(&root).expect("open");
        store.put(CacheKey(1), value());
        // Copy entry 1's envelope to key 2's address: content-addressed
        // validation must reject the imposter.
        fs::copy(store.entry_path(CacheKey(1)), store.entry_path(CacheKey(2)))
            .expect("plant imposter");
        assert!(store.get(CacheKey(2)).is_none());
        assert_eq!(store.stats().quarantined, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_write_fault_is_contained() {
        let root = temp_root("torn");
        let key = CacheKey(3);
        {
            let store = DiskStore::open(&root).expect("open");
            store.inject_write_fault(WriteFault::TornWrite { keep_bytes: 21 });
            store.put(key, value());
            // The torn envelope is on disk; the memory layer still
            // serves this process.
            assert!(store.get(key).is_some());
        }
        let store = DiskStore::open(&root).expect("reopen");
        assert!(store.get(key).is_none(), "partial entry rejected");
        assert_eq!(store.stats().quarantined, 1);
        store.put(key, value());
        assert_eq!(store.get(key).as_deref(), Some(&*value()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn crash_before_rename_leaves_no_entry_and_open_cleans_tmp() {
        let root = temp_root("crash");
        let key = CacheKey(5);
        {
            let store = DiskStore::open(&root).expect("open");
            store.inject_write_fault(WriteFault::CrashBeforeRename);
            store.put(key, value());
            assert_eq!(store.disk_entries(), 0);
            assert_eq!(
                fs::read_dir(root.join("tmp")).expect("tmp").count(),
                1,
                "staged file left behind by the 'crash'"
            );
        }
        let store = DiskStore::open(&root).expect("reopen");
        assert_eq!(
            fs::read_dir(root.join("tmp")).expect("tmp").count(),
            0,
            "open() clears staging litter"
        );
        assert!(store.get(key).is_none());
        assert_eq!(store.stats().quarantined, 0, "nothing to quarantine");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn evict_removes_both_layers() {
        let root = temp_root("evict");
        let key = CacheKey(11);
        let store = DiskStore::open(&root).expect("open");
        store.put(key, value());
        assert!(store.evict(key));
        assert!(!store.contains(key));
        assert!(!store.evict(key));
        assert_eq!(store.stats().evictions, 1);
        let _ = fs::remove_dir_all(&root);
    }
}
