//! Persistent, content-addressed artifact store: the disk tier (L2)
//! below the in-memory LRU code cache (L1), and the statement records
//! that let a restart skip IR generation.
//!
//! The in-memory caches die with the process, so a fleet re-pays every
//! cold compile after every deploy. This store keeps two kinds of
//! record on disk:
//!
//! * **artifacts**: *unlinked* [`CodeArtifact`]s keyed by the
//!   structural IR hash of the module plus the back-end/ISA/config
//!   fingerprint — the same key the LRU uses;
//! * **statement records**: for one prepared statement, the structural
//!   hashes of the modules its IR produced, keyed by the canonical plan
//!   text, a fingerprint of the schemas the plan reads and the front
//!   end's version stamp ([`StatementKey`]).
//!
//! A warm restart (fresh process, populated directory) therefore still
//! plans each previously seen statement — execution needs the physical
//! plan — but finds its module hashes in a statement record, so it
//! generates no IR and hashes nothing; each module is a disk hit that
//! pays a record read, deserialisation and the link/unwind-registration
//! step. Only a module that misses both tiers makes the statement
//! generate its IR (see [`crate::PreparedQuery`]).
//!
//! # On-disk format
//!
//! Append-only segments. A store that writes creates one segment of its
//! own, `qcs-<pid>-<seq>.qcs`, on its first write (`create_new`; a name
//! already taken moves on to the next process-wide sequence number),
//! and appends every record to it in one `write_all`:
//!
//! ```text
//! artifact:  magic b"QCAS", version u32 LE (STORE_FORMAT_VERSION),
//!            key: module_hash u64, config u64, backend str, isa str,
//!            payload len u64, fnv1a-64 checksum u64, payload bytes
//! statement: magic b"QCSR", version u32 LE,
//!            key: text hash u64, schemas u64, stamp u64,
//!            payload len u64, fnv1a-64 checksum u64, payload bytes
//! ```
//!
//! Strings are length-prefixed (u64 LE) and at most 64 bytes long
//! (`MAX_NAME`). An artifact's payload is [`CodeArtifact::serialize`]
//! output ([`NativeArtifact`]'s unlinked image plus compile stats). A
//! statement record's payload is the canonical plan text
//! (length-prefixed) followed by one u64 module hash per pipeline; the
//! header carries only the text's FNV-1a hash, so every header fits one
//! [`HEADER_MAX`] read, and a load compares the text in full.
//!
//! Loads go through an in-memory index from a record's key to segment,
//! offset and length. One scan builds it, reading only record headers,
//! one positioned read each: segments oldest-first by modification
//! time, a later record for a key replacing an earlier one. A key the
//! index does not hold — artifact or statement alike — makes the store
//! list the directory again and scan only what is new — segments it has
//! not seen and the tails of known segments that grew — so a live store
//! sees what other stores and processes append. A hit reads its record
//! with one positioned read.
//!
//! # Failure policy
//!
//! The store **never** fails a compile or a prepare:
//!
//! * each segment has one writer and nothing is synced, so a crash can
//!   leave a segment ending in a half-written record or in garbage. A
//!   scan stops at the first header that does not parse; a record whose
//!   header parses but which the segment's end cuts short is indexed as
//!   it is, so loading it rejects it like any other damage;
//! * loads verify magic, version, the full key, and the payload
//!   checksum; a mismatch or a short record counts as a *rejection*
//!   (`corrupt_rejected` for an artifact, `statement_rejected` for a
//!   statement record), the record leaves the index, and the caller
//!   takes the path it would take without the store: an artifact is
//!   recompiled through the normal path (the fallback chain and fault
//!   counters already model this), whose write supersedes the damaged
//!   record; a statement generates its IR and writes a fresh record
//!   after its first successful compile;
//! * an unwritable or uncreatable directory degrades the store to
//!   pass-through: artifact loads count misses, stores are no-ops, no
//!   statement record is read or written, and no error reaches the
//!   query path.
//!
//! # Size budget
//!
//! With a budget the store keeps a running total of the directory's
//! segment bytes: one scan seeds it on the first write, and every
//! record appended adds to it. A write that takes the total past the
//! budget scans again and evicts whole segments, least recently
//! modified first and this store's own segment last, until the
//! directory fits; the next write after its own segment went starts a
//! new one. A statement whose record went keeps working: the next
//! process generates its IR and writes the record again.

use crate::supervise::lock_recover;
use qc_backend::{CodeArtifact, NativeArtifact};
use qc_ir::fnv1a_64;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::ffi::OsString;
use std::fs::{self, File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{ErrorKind, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const MAGIC: [u8; 4] = *b"QCAS";

/// Magic of a statement record. A reader that predates statement
/// records stops its scan at the first one, as at any header it cannot
/// parse, and never misparses it.
const STATEMENT_MAGIC: [u8; 4] = *b"QCSR";

/// Version of the record envelope; bumped on incompatible changes so
/// stale records are rejected instead of misparsed.
const STORE_FORMAT_VERSION: u32 = 2;

/// File extension of a segment.
const SEGMENT_EXTENSION: &str = "qcs";

/// Longest back-end or ISA name a record carries, so that one read of
/// [`HEADER_MAX`] bytes always holds a whole header. A key with a longer
/// name is not persisted.
const MAX_NAME: usize = 64;

/// Bytes of the longest record header, an artifact's: magic, version,
/// module hash, config, two length-prefixed names, payload length and
/// checksum. A statement record's header (magic, version, three u64
/// key fields, payload length and checksum) is shorter.
const HEADER_MAX: usize = 4 + 4 + 8 + 8 + 2 * (8 + MAX_NAME) + 8 + 8;

/// Sequence number of the next segment this process creates.
static SEGMENT_SEQ: AtomicU64 = AtomicU64::new(0);

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
    fn slot(&self) -> Slot {
        Slot::Artifact(
            key_hash(self.backend, self.isa, self.config),
            self.module_hash,
        )
    }
}

/// Identity of a statement record: what must match for the module
/// hashes it holds to be the ones the front end would produce for a
/// plan. The store compares every field, the text in full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatementKey<'a> {
    /// Canonical plan text (`PlanNode::canonical_text`).
    pub text: &'a str,
    /// Fingerprint of the schemas of the tables the plan reads.
    pub schemas: u64,
    /// Front-end version stamp ([`crate::FRONTEND_STAMP`] when the
    /// engine writes or looks up a record).
    pub stamp: u64,
}

impl StatementKey<'_> {
    fn slot(&self) -> Slot {
        Slot::Statement(fnv1a_64(self.text.as_bytes()), self.schemas, self.stamp)
    }
}

/// Index slot of a record's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    /// An artifact: the hash of its key's non-module fields, so two
    /// back-ends compiling the same module never share a slot, and the
    /// module hash.
    Artifact(u64, u64),
    /// A statement record: text hash, schema fingerprint and stamp.
    Statement(u64, u64, u64),
}

fn key_hash(backend: &str, isa: &str, config: u64) -> u64 {
    let mut h = DefaultHasher::new();
    (backend, isa, config).hash(&mut h);
    h.finish()
}

/// Configuration of an [`ArtifactStore`].
#[derive(Debug, Clone)]
pub struct ArtifactStoreConfig {
    /// Directory holding the segment files (created if missing). All
    /// schedulers/services of a fleet node point at the same directory.
    pub dir: PathBuf,
    /// Size budget for the directory; a write that takes it past the
    /// budget evicts the least-recently-modified segments. `None`
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
/// [`ArtifactStore::counters`]. Statement records have counters of
/// their own, so `hits`, `misses`, `writes` and `corrupt_rejected`
/// count artifact traffic alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactStoreCounters {
    /// Loads that returned a verified artifact.
    pub hits: u64,
    /// Loads that found no (usable) record, including loads against a
    /// disabled store.
    pub misses: u64,
    /// Artifact records appended.
    pub writes: u64,
    /// Artifact records rejected by magic/version/key/checksum
    /// verification or cut short by the end of their segment.
    pub corrupt_rejected: u64,
    /// Artifact records held by the segments evicted to respect the
    /// size budget.
    pub evictions: u64,
    /// Directory scans made for the size budget: one when the first
    /// write needs the directory's size, then one per write that takes
    /// the running total past the budget.
    pub budget_scans: u64,
    /// Statement-record lookups that returned verified module hashes.
    pub statement_hits: u64,
    /// Statement-record lookups that found no usable record.
    pub statement_misses: u64,
    /// Statement records appended.
    pub statement_writes: u64,
    /// Statement records rejected by verification or cut short by the
    /// end of their segment (each also counts as a statement miss).
    pub statement_rejected: u64,
}

/// What [`ArtifactStore::fsck`] found in a store directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Intact artifact records.
    pub artifacts: usize,
    /// Intact statement records.
    pub statements: usize,
    /// Records that fail verification and whose key no later intact
    /// record carries, plus one per segment tail that does not parse as
    /// a header.
    pub corrupt: usize,
    /// Records that fail verification but whose key a later intact
    /// record carries: a recompile already replaced them.
    pub superseded: usize,
}

/// Disk-backed content-addressed artifact store. See the module docs.
pub struct ArtifactStore {
    dir: PathBuf,
    max_bytes: Option<u64>,
    /// Why the store is pass-through, when it is.
    disabled: Option<String>,
    /// The record index, this store's own segment and the budget's
    /// running total. The lock also serializes appends and eviction
    /// within this store.
    index: Mutex<Index>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    evictions: AtomicU64,
    budget_scans: AtomicU64,
    statement_hits: AtomicU64,
    statement_misses: AtomicU64,
    statement_writes: AtomicU64,
    statement_rejected: AtomicU64,
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
            index: Mutex::new(Index::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            budget_scans: AtomicU64::new(0),
            statement_hits: AtomicU64::new(0),
            statement_misses: AtomicU64::new(0),
            statement_writes: AtomicU64::new(0),
            statement_rejected: AtomicU64::new(0),
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
            statement_hits: self.statement_hits.load(Ordering::Relaxed),
            statement_misses: self.statement_misses.load(Ordering::Relaxed),
            statement_writes: self.statement_writes.load(Ordering::Relaxed),
            statement_rejected: self.statement_rejected.load(Ordering::Relaxed),
        }
    }

    /// Loads and verifies the artifact stored under `key`, or `None`
    /// on a miss. A record failing verification is counted, dropped
    /// from the index, and reported as a miss — the caller recompiles.
    pub fn load(&self, key: &ArtifactKey) -> Option<Arc<dyn CodeArtifact>> {
        let fetched = self.fetch(key.slot(), |record| decode_artifact(record, key));
        match fetched {
            Some(Ok(artifact)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::new(artifact));
            }
            Some(Err(())) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Loads and verifies the module hashes of the statement record
    /// stored under `key`, or `None` on a miss. A record failing
    /// verification — the text compared in full — is counted, dropped
    /// from the index, and reported as a miss. A pass-through store
    /// reads no record and counts nothing.
    pub fn load_statement(&self, key: &StatementKey<'_>) -> Option<Vec<u64>> {
        if self.disabled.is_some() {
            return None;
        }
        match self.fetch(key.slot(), |record| decode_statement(record, key)) {
            Some(Ok(hashes)) => {
                self.statement_hits.fetch_add(1, Ordering::Relaxed);
                return Some(hashes);
            }
            Some(Err(())) => {
                self.statement_rejected.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        self.statement_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Reads the record indexed under `slot` and decodes it with
    /// `decode`: `None` when the index holds none (after listing the
    /// directory again), `Some(Err)` when it fails verification, which
    /// also drops it from the index.
    fn fetch<T>(
        &self,
        slot: Slot,
        decode: impl FnOnce(&[u8]) -> Result<T, &'static str>,
    ) -> Option<Result<T, ()>> {
        if self.disabled.is_some() {
            return None;
        }
        let (file, loc) = lock_recover(&self.index).find(&self.dir, slot)?;
        let mut record = vec![0u8; loc.len];
        let decoded = file
            .read_exact_at(&mut record, loc.offset)
            .map_err(|_| "unreadable")
            .and_then(|()| decode(&record));
        Some(decoded.map_err(|_| lock_recover(&self.index).forget(slot, loc)))
    }

    /// Appends `artifact` under `key` to this store's segment, then
    /// enforces the size budget. No-ops — silently, by design — when
    /// the store is pass-through, a name in the key is longer than 64
    /// bytes (`MAX_NAME`), or the artifact kind does not serialize
    /// (e.g. interpreter bytecode).
    pub fn store(&self, key: &ArtifactKey, artifact: &dyn CodeArtifact) {
        if self.disabled.is_some() || key.backend.len() > MAX_NAME || key.isa.len() > MAX_NAME {
            return;
        }
        let Some(payload) = artifact.serialize() else {
            return;
        };
        if self.append(key.slot(), &encode_artifact(key, &payload)) {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends a statement record holding `module_hashes` under `key`
    /// to this store's segment, then enforces the size budget. No-ops
    /// when the store is pass-through.
    pub fn store_statement(&self, key: &StatementKey<'_>, module_hashes: &[u64]) {
        if self.disabled.is_some() {
            return;
        }
        if self.append(key.slot(), &encode_statement(key, module_hashes)) {
            self.statement_writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends `record` under `slot` and enforces the size budget;
    /// whether the record reached the segment.
    fn append(&self, slot: Slot, record: &[u8]) -> bool {
        let mut index = lock_recover(&self.index);
        if index.append(&self.dir, slot, record).is_none() {
            return false;
        }
        self.enforce_budget(&mut index, record.len() as u64);
        true
    }

    /// Accounts for a just-appended record of `appended` bytes and,
    /// when that takes the directory past the budget, evicts
    /// least-recently-modified segments until it fits.
    ///
    /// The directory is scanned only when the running total says the
    /// budget is crossed (and once to seed the total), not per write;
    /// each scan resets the total to what is really there. The total
    /// does not see other processes' writes until this store's own
    /// cross the budget; across processes eviction is racy but safe (a
    /// vanished segment is a future miss).
    fn enforce_budget(&self, index: &mut Index, appended: u64) {
        let Some(budget) = self.max_bytes else { return };
        index.dir_bytes = index.dir_bytes.map(|known| known.saturating_add(appended));
        if index.dir_bytes.is_some_and(|total| total <= budget) {
            return;
        }
        self.budget_scans.fetch_add(1, Ordering::Relaxed);
        // Index every segment first, so an eviction knows its records.
        index.refresh(&self.dir);
        let mut by_age: Vec<_> = index
            .segments
            .iter()
            .filter_map(|(&id, segment)| {
                let meta = segment.file.metadata().ok()?;
                Some((
                    index.active == Some(id),
                    meta.modified().ok()?,
                    id,
                    meta.len(),
                ))
            })
            .collect();
        by_age.sort_unstable();
        let mut total: u64 = by_age.iter().map(|s| s.3).sum();
        for (_, _, id, len) in by_age {
            if total <= budget {
                break;
            }
            let Some(segment) = index.segments.get(&id) else {
                continue;
            };
            if fs::remove_file(self.dir.join(&segment.name)).is_ok() {
                total = total.saturating_sub(len);
                self.evictions.fetch_add(segment.records, Ordering::Relaxed);
                index.drop_segment(id);
            }
        }
        index.dir_bytes = Some(total);
    }

    /// Offline integrity scan: parses and checksums every record of
    /// every segment in the directory, without mutating anything.
    /// Segments are read oldest-first by modification time, as a scan
    /// indexes them, so a damaged record whose key a later intact record
    /// carries counts as superseded, not corrupt. A segment's damaged
    /// tail counts as one record: a record its end cuts short is judged
    /// like any damaged record, and bytes that do not parse as a header
    /// are corrupt. Used by tests and the warm-restart harness to prove
    /// concurrent writers never publish torn records.
    pub fn fsck(&self) -> FsckReport {
        let mut report = FsckReport::default();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return report;
        };
        let mut segments: Vec<_> = entries
            .flatten()
            .filter(|e| {
                Path::new(&e.file_name())
                    .extension()
                    .is_some_and(|x| x == SEGMENT_EXTENSION)
            })
            .filter_map(|e| {
                let file = File::open(e.path()).ok()?;
                let meta = file.metadata().ok()?;
                Some((meta.modified().ok()?, e.file_name(), meta.len(), file))
            })
            .collect();
        segments.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        // Damaged records by key, until an intact one supersedes them.
        let mut damaged: HashMap<Slot, usize> = HashMap::new();
        for (_, _, len, file) in segments {
            let mut torn = false;
            let stop = walk(&file, 0, len, |offset, slot, end| {
                let verified = end <= len && {
                    let mut record = vec![0u8; (end - offset) as usize];
                    file.read_exact_at(&mut record, offset).is_ok() && verify(&record).is_ok()
                };
                torn |= end > len;
                if !verified {
                    *damaged.entry(slot).or_default() += 1;
                    return;
                }
                report.superseded += damaged.remove(&slot).unwrap_or(0);
                match slot {
                    Slot::Artifact(..) => report.artifacts += 1,
                    Slot::Statement(..) => report.statements += 1,
                }
            });
            if stop < len && !torn {
                report.corrupt += 1;
            }
        }
        report.corrupt += damaged.values().sum::<usize>();
        report
    }
}

/// Where a record lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    segment: u64,
    offset: u64,
    len: usize,
}

/// A segment file the index knows.
struct Segment {
    name: OsString,
    file: Arc<File>,
    /// Offset past the last complete record indexed.
    scanned: u64,
    /// The file's length when last scanned or appended to; a segment
    /// that has not grown since holds nothing new.
    len: u64,
    /// Complete artifact records indexed in it.
    records: u64,
}

/// What a store knows of its directory.
#[derive(Default)]
struct Index {
    /// Whether the directory has been listed yet.
    listed: bool,
    /// Known segments by id; ids grow in the order segments were first
    /// seen.
    segments: HashMap<u64, Segment>,
    /// Segment ids by file name.
    ids: HashMap<OsString, u64>,
    next_id: u64,
    records: HashMap<Slot, Loc>,
    /// This store's own segment, which `store` appends to.
    active: Option<u64>,
    /// Segment bytes believed to be in the directory: `None` until the
    /// first budgeted write scans it, then the last scan's result plus
    /// every record this store has appended since.
    dir_bytes: Option<u64>,
}

impl Index {
    /// The segment file and location of `slot`'s record, listing the
    /// directory again first when the index does not hold it (or has
    /// never listed).
    fn find(&mut self, dir: &Path, slot: Slot) -> Option<(Arc<File>, Loc)> {
        let loc = match self.records.get(&slot) {
            Some(&loc) if self.listed => loc,
            _ => {
                self.refresh(dir);
                *self.records.get(&slot)?
            }
        };
        let file = Arc::clone(&self.segments.get(&loc.segment)?.file);
        Some((file, loc))
    }

    /// Drops `slot`'s record from the index if it is still `loc`.
    fn forget(&mut self, slot: Slot, loc: Loc) {
        if self.records.get(&slot) == Some(&loc) {
            self.records.remove(&slot);
        }
    }

    /// Lists the directory and indexes what is new: the tails of known
    /// segments that grew, then segments not seen before, oldest-first
    /// by modification time. Segments that left the directory leave the
    /// index.
    fn refresh(&mut self, dir: &Path) {
        self.listed = true;
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        let listed: HashSet<OsString> = entries
            .flatten()
            .map(|e| e.file_name())
            .filter(|n| {
                Path::new(n)
                    .extension()
                    .is_some_and(|x| x == SEGMENT_EXTENSION)
            })
            .collect();
        let gone: Vec<u64> = self
            .ids
            .iter()
            .filter(|(name, _)| !listed.contains(*name))
            .map(|(_, &id)| id)
            .collect();
        for id in gone {
            self.drop_segment(id);
        }
        let grown: Vec<u64> = self
            .segments
            .iter()
            .filter(|(&id, segment)| {
                self.active != Some(id)
                    && segment
                        .file
                        .metadata()
                        .is_ok_and(|m| m.len() != segment.len)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in grown {
            self.scan(id);
        }
        let mut fresh: Vec<_> = listed
            .into_iter()
            .filter(|name| !self.ids.contains_key(name))
            .filter_map(|name| {
                let file = File::open(dir.join(&name)).ok()?;
                let modified = file.metadata().ok()?.modified().ok()?;
                Some((modified, name, file))
            })
            .collect();
        fresh.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for (_, name, file) in fresh {
            let id = self.add_segment(name, file);
            self.scan(id);
        }
    }

    /// Indexes the records of segment `id` past the last complete one.
    fn scan(&mut self, id: u64) {
        let Some(segment) = self.segments.get_mut(&id) else {
            return;
        };
        let Ok(len) = segment.file.metadata().map(|m| m.len()) else {
            return;
        };
        let records = &mut self.records;
        let mut complete = 0;
        segment.scanned = walk(&segment.file, segment.scanned, len, |offset, slot, end| {
            let loc = Loc {
                segment: id,
                offset,
                len: (end.min(len) - offset) as usize,
            };
            records.insert(slot, loc);
            complete += u64::from(end <= len && matches!(slot, Slot::Artifact(..)));
        });
        segment.records += complete;
        segment.len = len;
    }

    /// Appends `record` to this store's segment, creating the segment
    /// on the first write. `None` if the segment cannot be created or
    /// the write fails; what reached the file then is a torn tail that
    /// scans stop at, and the next write starts a new segment.
    fn append(&mut self, dir: &Path, slot: Slot, record: &[u8]) -> Option<()> {
        let id = match self.active {
            Some(id) => id,
            None => self.create_segment(dir)?,
        };
        let segment = self.segments.get_mut(&id)?;
        if (&*segment.file).write_all(record).is_err() {
            self.active = None;
            return None;
        }
        let loc = Loc {
            segment: id,
            offset: segment.len,
            len: record.len(),
        };
        segment.len += record.len() as u64;
        segment.scanned = segment.len;
        segment.records += u64::from(matches!(slot, Slot::Artifact(..)));
        self.records.insert(slot, loc);
        Some(())
    }

    fn create_segment(&mut self, dir: &Path) -> Option<u64> {
        // The directory's older records go into the index before this
        // store's own, so that its own are the later ones.
        if !self.listed {
            self.refresh(dir);
        }
        loop {
            let seq = SEGMENT_SEQ.fetch_add(1, Ordering::Relaxed);
            // Zero-padded, so that one process's segments sort by name
            // in creation order when their modification times tie.
            let name = format!("qcs-{}-{seq:06}.{SEGMENT_EXTENSION}", std::process::id());
            let opened = OpenOptions::new()
                .read(true)
                .append(true)
                .create_new(true)
                .open(dir.join(&name));
            match opened {
                Ok(file) => {
                    let id = self.add_segment(name.into(), file);
                    self.active = Some(id);
                    return Some(id);
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {}
                Err(_) => return None,
            }
        }
    }

    fn add_segment(&mut self, name: OsString, file: File) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.ids.insert(name.clone(), id);
        let segment = Segment {
            name,
            file: Arc::new(file),
            scanned: 0,
            len: 0,
            records: 0,
        };
        self.segments.insert(id, segment);
        id
    }

    fn drop_segment(&mut self, id: u64) {
        if let Some(segment) = self.segments.remove(&id) {
            self.ids.remove(&segment.name);
        }
        self.records.retain(|_, loc| loc.segment != id);
        if self.active == Some(id) {
            self.active = None;
        }
    }
}

/// Walks the records of `file` from `offset` up to `len`, one
/// positioned header read each, calling `visit(offset, slot, end)` for
/// every record whose header parses; `end` exceeds `len` for a record
/// the segment's end cuts short, which ends the walk, as does a header
/// that does not parse. Returns the offset past the last complete
/// record.
fn walk(file: &File, mut offset: u64, len: u64, mut visit: impl FnMut(u64, Slot, u64)) -> u64 {
    let mut buf = [0u8; HEADER_MAX];
    while offset < len {
        let want = (len - offset).min(HEADER_MAX as u64) as usize;
        if file.read_exact_at(&mut buf[..want], offset).is_err() {
            break;
        }
        let Ok(header) = parse_header(&buf[..want]) else {
            break;
        };
        let end = offset
            .saturating_add(header.len as u64)
            .saturating_add(header.payload_len);
        visit(offset, header.key.slot(), end);
        if end > len {
            break;
        }
        offset = end;
    }
    offset
}

/// A record's header: its key, and its payload's length and checksum.
struct Header<'a> {
    key: HeaderKey<'a>,
    payload_len: u64,
    checksum: u64,
    /// Bytes from the record's start to its payload.
    len: usize,
}

/// The key a record's header names, by record kind.
enum HeaderKey<'a> {
    Artifact {
        module_hash: u64,
        config: u64,
        backend: &'a str,
        isa: &'a str,
    },
    Statement {
        text_hash: u64,
        schemas: u64,
        stamp: u64,
    },
}

impl HeaderKey<'_> {
    fn slot(&self) -> Slot {
        match *self {
            HeaderKey::Artifact {
                module_hash,
                config,
                backend,
                isa,
            } => Slot::Artifact(key_hash(backend, isa, config), module_hash),
            HeaderKey::Statement {
                text_hash,
                schemas,
                stamp,
            } => Slot::Statement(text_hash, schemas, stamp),
        }
    }
}

/// Reads a record's fields front to back.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        let field = self
            .at
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.at..end))
            .ok_or("truncated")?;
        self.at += n;
        Ok(field)
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        let mut le = [0u8; 8];
        le.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(le))
    }

    fn name(&mut self) -> Result<&'a str, &'static str> {
        let len = self.u64()?;
        if len > MAX_NAME as u64 {
            return Err("name too long");
        }
        std::str::from_utf8(self.take(len as usize)?).map_err(|_| "non-UTF-8 name")
    }
}

/// Parses the header at the front of `bytes`, which may go on past it.
fn parse_header(bytes: &[u8]) -> Result<Header<'_>, &'static str> {
    let mut cursor = Cursor { bytes, at: 0 };
    let magic = cursor.take(4)?;
    if magic != MAGIC && magic != STATEMENT_MAGIC {
        return Err("bad magic");
    }
    let mut version = [0u8; 4];
    version.copy_from_slice(cursor.take(4)?);
    if u32::from_le_bytes(version) != STORE_FORMAT_VERSION {
        return Err("unsupported store version");
    }
    let key = if magic == MAGIC {
        HeaderKey::Artifact {
            module_hash: cursor.u64()?,
            config: cursor.u64()?,
            backend: cursor.name()?,
            isa: cursor.name()?,
        }
    } else {
        HeaderKey::Statement {
            text_hash: cursor.u64()?,
            schemas: cursor.u64()?,
            stamp: cursor.u64()?,
        }
    };
    let payload_len = cursor.u64()?;
    let checksum = cursor.u64()?;
    Ok(Header {
        key,
        payload_len,
        checksum,
        len: cursor.at,
    })
}

/// Builds one record: `magic`, version, the key fields `key` writes,
/// then the checksummed payload.
fn encode(magic: [u8; 4], key: impl FnOnce(&mut Vec<u8>), payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_MAX + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    key(&mut out);
    push_u64(&mut out, payload.len() as u64);
    push_u64(&mut out, fnv1a_64(payload));
    out.extend_from_slice(payload);
    out
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn encode_artifact(key: &ArtifactKey, payload: &[u8]) -> Vec<u8> {
    let fields = |out: &mut Vec<u8>| {
        push_u64(out, key.module_hash);
        push_u64(out, key.config);
        push_str(out, key.backend);
        push_str(out, key.isa);
    };
    encode(MAGIC, fields, payload)
}

fn encode_statement(key: &StatementKey<'_>, module_hashes: &[u64]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + key.text.len() + 8 * module_hashes.len());
    push_str(&mut payload, key.text);
    for &hash in module_hashes {
        push_u64(&mut payload, hash);
    }
    let fields = |out: &mut Vec<u8>| {
        push_u64(out, fnv1a_64(key.text.as_bytes()));
        push_u64(out, key.schemas);
        push_u64(out, key.stamp);
    };
    encode(STATEMENT_MAGIC, fields, &payload)
}

/// Parses a record that must fill `bytes` exactly and verifies its
/// payload's length and checksum.
fn open_record(bytes: &[u8]) -> Result<(HeaderKey<'_>, &[u8]), &'static str> {
    let header = parse_header(bytes)?;
    let payload = bytes.get(header.len..).ok_or("truncated")?;
    if payload.len() as u64 != header.payload_len {
        return Err("payload length mismatch");
    }
    if fnv1a_64(payload) != header.checksum {
        return Err("checksum mismatch");
    }
    Ok((header.key, payload))
}

/// Verifies and decodes one artifact record, which must fill `bytes`
/// exactly and carry exactly `expect` (an index slot collision or an
/// overwritten key is treated as corrupt rather than served).
fn decode_artifact(bytes: &[u8], expect: &ArtifactKey) -> Result<NativeArtifact, &'static str> {
    let (key, payload) = open_record(bytes)?;
    let HeaderKey::Artifact {
        module_hash,
        config,
        backend,
        isa,
    } = key
    else {
        return Err("not an artifact record");
    };
    if module_hash != expect.module_hash
        || config != expect.config
        || backend != expect.backend
        || isa != expect.isa
    {
        return Err("key mismatch");
    }
    NativeArtifact::deserialize(payload).map_err(|_| "undecodable payload")
}

/// Verifies and decodes one statement record, which must fill `bytes`
/// exactly and carry exactly `expect`, the plan text compared in full.
fn decode_statement(bytes: &[u8], expect: &StatementKey<'_>) -> Result<Vec<u64>, &'static str> {
    let (key, payload) = open_record(bytes)?;
    if key.slot() != expect.slot() {
        return Err("key mismatch");
    }
    let (text, hashes) = statement_payload(payload)?;
    if text != expect.text {
        return Err("plan text mismatch");
    }
    Ok(hashes.collect())
}

/// Splits a statement record's payload into its plan text and module
/// hashes.
fn statement_payload(
    payload: &[u8],
) -> Result<(&str, impl Iterator<Item = u64> + '_), &'static str> {
    let mut cursor = Cursor {
        bytes: payload,
        at: 0,
    };
    let len = usize::try_from(cursor.u64()?).map_err(|_| "truncated")?;
    let text = std::str::from_utf8(cursor.take(len)?).map_err(|_| "non-UTF-8 plan text")?;
    let hashes = &payload[cursor.at..];
    if !hashes.len().is_multiple_of(8) {
        return Err("ragged module hashes");
    }
    let hashes = hashes
        .chunks_exact(8)
        .map(|h| u64::from_le_bytes(h.try_into().expect("eight bytes")));
    Ok((text, hashes))
}

/// Verifies one record of either kind, which must fill `bytes` exactly.
fn verify(bytes: &[u8]) -> Result<(), &'static str> {
    let (key, payload) = open_record(bytes)?;
    match key {
        HeaderKey::Artifact { .. } => NativeArtifact::deserialize(payload)
            .map(drop)
            .map_err(|_| "undecodable payload"),
        HeaderKey::Statement { .. } => statement_payload(payload).map(drop),
    }
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

    fn segments(dir: &Path) -> Vec<PathBuf> {
        fs::read_dir(dir)
            .expect("store dir")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == SEGMENT_EXTENSION))
            .collect()
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
        assert!(store.load(&key(1)).is_some(), "indexed by its own write");
        // Overwrite the record's embedded module hash (after magic and
        // version) once the index points at it: the embedded key no
        // longer matches and the load must reject it.
        let [segment] = segments(&dir).try_into().expect("one segment");
        let file = OpenOptions::new().write(true).open(segment).expect("open");
        file.write_all_at(&2u64.to_le_bytes(), 8)
            .expect("overwrite");
        assert!(store.load(&key(1)).is_none());
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
