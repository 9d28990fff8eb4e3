//! Persistent, content-addressed artifact store: the disk tier (L2)
//! below the in-memory LRU code cache (L1).
//!
//! The in-memory cache dies with the process, so a fleet re-pays every
//! cold compile after every deploy. This store keeps *unlinked*
//! [`CodeArtifact`]s on disk, keyed by the structural IR hash of the
//! module plus the back-end/ISA/config fingerprint — the same key the
//! LRU uses, so a warm restart (fresh process, populated directory)
//! skips parse/plan/codegen for every previously seen query shape and
//! pays only the link/unwind-registration step.
//!
//! # On-disk format
//!
//! One file per artifact, `qca-<keyhash>-<modulehash>.qca`:
//!
//! ```text
//! magic   b"QCAS"
//! version u32 LE            (STORE_FORMAT_VERSION)
//! key     module_hash u64, config u64, backend str, isa str
//! payload len u64, fnv1a-64 checksum u64, bytes
//! ```
//!
//! Strings are length-prefixed (u64 LE). The payload is
//! [`CodeArtifact::serialize`] output ([`NativeArtifact`]'s unlinked
//! image plus compile stats).
//!
//! # Failure policy
//!
//! The store **never** fails a compile:
//!
//! * writes go to a process/sequence-unique temp file in the same
//!   directory and are published with an atomic `rename`, so readers
//!   (including other processes sharing the directory) can never
//!   observe a torn file;
//! * loads verify magic, version, the full key, and the payload
//!   checksum; any mismatch counts as a *corrupt rejection*, the file
//!   is removed best-effort, and the caller recompiles through the
//!   normal path (the fallback chain and fault counters already model
//!   this);
//! * an unwritable or uncreatable directory degrades the store to
//!   pass-through: loads count misses, stores are no-ops, and no error
//!   reaches the query path.

use parking_lot::Mutex;
use qc_backend::{CodeArtifact, NativeArtifact};
use qc_ir::fnv1a_64;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MAGIC: [u8; 4] = *b"QCAS";

/// Version of the artifact-file envelope; bumped on incompatible
/// changes so stale files are rejected (and cleaned up) instead of
/// misparsed.
const STORE_FORMAT_VERSION: u32 = 1;

/// Identity of a reusable piece of machine code: what must match for a
/// stored artifact to be valid for a compile request. Mirrors the
/// in-memory cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Structural IR hash of the module (`qc_ir::module_structural_hash`).
    pub module_hash: u64,
    /// Back-end name (`Backend::name`).
    pub backend: &'static str,
    /// Target ISA name (`Isa::name`).
    pub isa: &'static str,
    /// Back-end configuration fingerprint (`Backend::config_fingerprint`).
    pub config: u64,
}

impl ArtifactKey {
    /// Hash of the non-module key fields, used in the file name so two
    /// back-ends compiling the same module never share a file.
    fn key_hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.backend.len() + self.isa.len() + 16);
        bytes.extend_from_slice(&(self.backend.len() as u64).to_le_bytes());
        bytes.extend_from_slice(self.backend.as_bytes());
        bytes.extend_from_slice(&(self.isa.len() as u64).to_le_bytes());
        bytes.extend_from_slice(self.isa.as_bytes());
        bytes.extend_from_slice(&self.config.to_le_bytes());
        fnv1a_64(&bytes)
    }

    /// File name of this key's artifact within the store directory.
    fn file_name(&self) -> String {
        format!("qca-{:016x}-{:016x}.qca", self.key_hash(), self.module_hash)
    }
}

/// Configuration of an [`ArtifactStore`].
#[derive(Debug, Clone)]
pub struct ArtifactStoreConfig {
    /// Directory holding the artifact files (created if missing). All
    /// schedulers/services of a fleet node point at the same directory.
    pub dir: PathBuf,
    /// Size budget for the directory; a write that takes it past the
    /// budget evicts the least-recently-modified artifacts. `None`
    /// disables eviction.
    pub max_bytes: Option<u64>,
}

impl ArtifactStoreConfig {
    /// Store under `dir` with no size budget.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        ArtifactStoreConfig {
            dir: dir.into(),
            max_bytes: None,
        }
    }

    /// Sets the directory size budget.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }
}

/// Counter snapshot of an [`ArtifactStore`], taken with
/// [`ArtifactStore::counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactStoreCounters {
    /// Loads that returned a verified artifact.
    pub hits: u64,
    /// Loads that found no (usable) file, including loads against a
    /// disabled store.
    pub misses: u64,
    /// Artifacts written (published via rename).
    pub writes: u64,
    /// Files rejected by magic/version/key/checksum verification and
    /// removed.
    pub corrupt_rejected: u64,
    /// Files evicted to respect the size budget.
    pub evictions: u64,
    /// Directory scans made for the size budget: one when the first
    /// write needs the directory's size, then one per write that takes
    /// the running total past the budget.
    pub budget_scans: u64,
}

/// Disk-backed content-addressed artifact store. See the module docs.
pub struct ArtifactStore {
    dir: PathBuf,
    max_bytes: Option<u64>,
    /// Why the store is pass-through, when it is.
    disabled: Option<String>,
    /// Bytes of artifact files believed to be in the directory: `None`
    /// until the first budgeted write scans it, then the last scan's
    /// result plus every file this store has published since. The lock
    /// also serializes eviction scans within this process.
    dir_bytes: Mutex<Option<u64>>,
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    evictions: AtomicU64,
    budget_scans: AtomicU64,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ArtifactStore({}, {:?})",
            self.dir.display(),
            self.counters()
        )
    }
}

impl ArtifactStore {
    /// Opens (creating if needed) the store at `config.dir`.
    ///
    /// Never fails: when the directory cannot be created or is not
    /// writable, the store opens in pass-through mode — loads miss,
    /// stores no-op — and [`ArtifactStore::disabled_reason`] says why.
    pub fn open(config: ArtifactStoreConfig) -> ArtifactStore {
        let disabled = Self::probe(&config.dir).err();
        ArtifactStore {
            dir: config.dir,
            max_bytes: config.max_bytes,
            disabled,
            dir_bytes: Mutex::new(None),
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            budget_scans: AtomicU64::new(0),
        }
    }

    /// Creates the directory and proves it writable with a probe file.
    fn probe(dir: &Path) -> Result<(), String> {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let probe = dir.join(format!(".qc-probe-{}", std::process::id()));
        fs::write(&probe, b"probe").map_err(|e| format!("{} not writable: {e}", dir.display()))?;
        let _ = fs::remove_file(&probe);
        Ok(())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether the store persists anything (false in pass-through mode).
    pub fn is_enabled(&self) -> bool {
        self.disabled.is_none()
    }

    /// Why the store degraded to pass-through, if it did.
    pub fn disabled_reason(&self) -> Option<&str> {
        self.disabled.as_deref()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> ArtifactStoreCounters {
        ArtifactStoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt_rejected: self.corrupt.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            budget_scans: self.budget_scans.load(Ordering::Relaxed),
        }
    }

    /// Loads and verifies the artifact stored under `key`, or `None`
    /// on a miss. A file failing verification is counted, removed
    /// best-effort, and reported as a miss — the caller recompiles.
    pub fn load(&self, key: &ArtifactKey) -> Option<Arc<dyn CodeArtifact>> {
        if self.disabled.is_some() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let path = self.dir.join(key.file_name());
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_file(&bytes, Some(key)) {
            Ok(artifact) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::new(artifact))
            }
            Err(_) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists `artifact` under `key` (atomic temp-file + rename),
    /// then enforces the size budget. No-ops — silently, by design —
    /// when the store is pass-through or the artifact kind does not
    /// serialize (e.g. interpreter bytecode).
    pub fn store(&self, key: &ArtifactKey, artifact: &dyn CodeArtifact) {
        if self.disabled.is_some() {
            return;
        }
        let Some(payload) = artifact.serialize() else {
            return;
        };
        let bytes = encode_file(key, &payload);
        let tmp = self.dir.join(format!(
            ".qca-tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::write(&tmp, &bytes).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        let path = self.dir.join(key.file_name());
        if fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.enforce_budget(bytes.len() as u64);
    }

    /// Accounts for a just-published file of `published` bytes and,
    /// when that takes the directory past the budget, evicts
    /// least-recently-modified artifacts until it fits.
    ///
    /// The directory is listed only when the running total says the
    /// budget is crossed (and once to seed the total), not per write;
    /// each listing resets the total to what is really there. The total
    /// over-counts a file published over its own old version and one a
    /// corrupt load removed, which costs a scan that finds nothing to
    /// evict, and does not see other processes' writes until this
    /// store's own cross the budget. Within-process scans are
    /// serialized; across processes eviction is racy but safe (a
    /// vanished file is just a future miss).
    fn enforce_budget(&self, published: u64) {
        let Some(budget) = self.max_bytes else { return };
        let mut dir_bytes = self.dir_bytes.lock();
        // Kept if the listing below fails, so the next write tries again.
        *dir_bytes = dir_bytes.map(|known| known.saturating_add(published));
        if dir_bytes.is_some_and(|total| total <= budget) {
            return;
        }
        self.budget_scans.fetch_add(1, Ordering::Relaxed);
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(PathBuf, u64, std::time::SystemTime)> = entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "qca"))
            .filter_map(|e| {
                let md = e.metadata().ok()?;
                Some((e.path(), md.len(), md.modified().ok()?))
            })
            .collect();
        let mut total: u64 = files.iter().map(|f| f.1).sum();
        files.sort_by_key(|f| f.2);
        for (path, len, _) in files {
            if total <= budget {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        *dir_bytes = Some(total);
    }

    /// Offline integrity scan: parses and checksums every artifact file
    /// in the directory, returning `(intact, corrupt)` counts without
    /// mutating anything. Used by tests and the warm-restart harness to
    /// prove concurrent writers never publish torn files.
    pub fn fsck(&self) -> (usize, usize) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return (0, 0);
        };
        let (mut intact, mut corrupt) = (0, 0);
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|x| x != "qca") {
                continue;
            }
            match fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| decode_file(&bytes, None))
            {
                Ok(_) => intact += 1,
                Err(_) => corrupt += 1,
            }
        }
        (intact, corrupt)
    }
}

/// Builds one artifact file: envelope (magic, version, key) + checksummed
/// payload.
fn encode_file(key: &ArtifactKey, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 64);
    let push_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
    let push_str = |out: &mut Vec<u8>, s: &str| {
        push_u64(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    };
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    push_u64(&mut out, key.module_hash);
    push_u64(&mut out, key.config);
    push_str(&mut out, key.backend);
    push_str(&mut out, key.isa);
    push_u64(&mut out, payload.len() as u64);
    push_u64(&mut out, fnv1a_64(payload));
    out.extend_from_slice(payload);
    out
}

/// Verifies and decodes one artifact file. With `expect_key`, the
/// embedded key must match exactly (a file-name hash collision or a
/// renamed file is treated as corrupt rather than served).
fn decode_file(bytes: &[u8], expect_key: Option<&ArtifactKey>) -> Result<NativeArtifact, String> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Result<&[u8], String> {
        let end = at
            .checked_add(n)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| "truncated".to_string())?;
        let s = &bytes[*at..end];
        *at = end;
        Ok(s)
    };
    let take_u64 = |at: &mut usize| -> Result<u64, String> {
        Ok(u64::from_le_bytes(take(at, 8)?.try_into().expect("8")))
    };
    if take(&mut at, 4)? != MAGIC {
        return Err("bad magic".into());
    }
    let version = u32::from_le_bytes(take(&mut at, 4)?.try_into().expect("4"));
    if version != STORE_FORMAT_VERSION {
        return Err(format!("unsupported store version {version}"));
    }
    let module_hash = take_u64(&mut at)?;
    let config = take_u64(&mut at)?;
    let backend_len = take_u64(&mut at)? as usize;
    let backend = String::from_utf8(take(&mut at, backend_len)?.to_vec())
        .map_err(|_| "non-UTF-8 backend name".to_string())?;
    let isa_len = take_u64(&mut at)? as usize;
    let isa = String::from_utf8(take(&mut at, isa_len)?.to_vec())
        .map_err(|_| "non-UTF-8 ISA name".to_string())?;
    if let Some(key) = expect_key {
        if module_hash != key.module_hash
            || config != key.config
            || backend != key.backend
            || isa != key.isa
        {
            return Err("key mismatch".into());
        }
    }
    let payload_len = usize::try_from(take_u64(&mut at)?).map_err(|_| "oversized".to_string())?;
    let checksum = take_u64(&mut at)?;
    let payload = take(&mut at, payload_len)?;
    if at != bytes.len() {
        return Err("trailing bytes".into());
    }
    if fnv1a_64(payload) != checksum {
        return Err("checksum mismatch".into());
    }
    NativeArtifact::deserialize(payload).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_backend::CompileStats;
    use qc_target::{ImageBuilder, Isa, Tx64Assembler};

    fn unique_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qc-store-unit-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_artifact() -> NativeArtifact {
        let mut asm = Tx64Assembler::new();
        asm.ret();
        let (code, relocs) = asm.finish();
        let mut ib = ImageBuilder::new(Isa::Tx64);
        ib.add_function("f", code, relocs);
        NativeArtifact::new(ib, CompileStats::default())
    }

    fn key(h: u64) -> ArtifactKey {
        ArtifactKey {
            module_hash: h,
            backend: "TestBackend",
            isa: "TX64",
            config: 7,
        }
    }

    #[test]
    fn store_then_load_roundtrip() {
        let store = ArtifactStore::open(ArtifactStoreConfig::at(unique_dir("roundtrip")));
        assert!(store.is_enabled());
        assert!(store.load(&key(1)).is_none());
        store.store(&key(1), &sample_artifact());
        let got = store.load(&key(1)).expect("hit after store");
        got.instantiate().expect("instantiate");
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.writes), (1, 1, 1));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn key_mismatch_is_rejected() {
        let dir = unique_dir("keymismatch");
        let store = ArtifactStore::open(ArtifactStoreConfig::at(dir.clone()));
        store.store(&key(1), &sample_artifact());
        // Rename the file onto a different key's slot: the embedded key
        // no longer matches and the load must reject it.
        let from = dir.join(key(1).file_name());
        let to = dir.join(key(2).file_name());
        fs::rename(from, to).expect("rename");
        assert!(store.load(&key(2)).is_none());
        assert_eq!(store.counters().corrupt_rejected, 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn unwritable_dir_degrades_to_passthrough() {
        // A plain file in place of the directory: create_dir_all fails.
        let path = std::env::temp_dir().join(format!("qc-store-file-{}", std::process::id()));
        fs::write(&path, b"not a directory").expect("file");
        let store = ArtifactStore::open(ArtifactStoreConfig::at(path.clone()));
        assert!(!store.is_enabled());
        assert!(store.disabled_reason().is_some());
        store.store(&key(1), &sample_artifact());
        assert!(store.load(&key(1)).is_none());
        let c = store.counters();
        assert_eq!((c.misses, c.writes), (1, 0));
        let _ = fs::remove_file(&path);
    }
}
