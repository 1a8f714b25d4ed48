//! Content-addressed result cache.
//!
//! Objects live under `<root>/objects/<hh>/<hex>.mco`, where `hex` is the
//! full cache-key digest and `hh` its first byte — the usual two-level
//! fan-out so a directory never accumulates tens of thousands of entries.
//! Each object file is self-verifying:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"MCSO"
//! 4       4     format version (u32 LE, currently 1)
//! 8       4     object kind (u32 LE, caller-defined namespace)
//! 12      8     payload length (u64 LE)
//! 20      32    SHA-256 of the payload
//! 52      …     payload
//! ```
//!
//! A corrupt object is indistinguishable from a miss to callers: `get`
//! verifies the checksum, and on failure counts `store.cache.corrupt`,
//! deletes the file, and reports `None` so the value is recomputed and
//! rewritten. The cache therefore never *returns* damaged bytes, which is
//! what lets the experiment pipeline trust cached curves bit-for-bit.
//!
//! A process-global handle ([`configure`] / [`active`] / [`deactivate`])
//! mirrors the `mcast-obs` registry pattern: the experiment `RunConfig`
//! stays `Copy` and the measurement layer opts into caching only when the
//! CLI passed `--cache-dir`.

use crate::atomic::write_atomic;
use crate::error::StoreError;
use crate::hash::{sha256, Key};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, RwLock};

/// Magic bytes of a cache object file.
pub const OBJECT_MAGIC: [u8; 4] = *b"MCSO";
/// Current cache object format version. Part of every cache key via
/// [`crate::hash::KeyBuilder`] users, and checked on read.
pub const OBJECT_VERSION: u32 = 1;
/// Object header length in bytes.
pub const OBJECT_HEADER_LEN: usize = 52;

/// Caller-defined object namespaces (stored in the header, so a key
/// collision across kinds can never alias payloads silently).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectKind {
    /// A measured curve: per-x `RunningStats` triples.
    Curve,
    /// A rendered figure report (JSON `Report`).
    Report,
}

impl ObjectKind {
    /// Stable on-disk tag.
    pub fn tag(self) -> u32 {
        match self {
            ObjectKind::Curve => 1,
            ObjectKind::Report => 2,
        }
    }

    /// Human-readable name for `mcs cache ls`.
    pub fn name(self) -> &'static str {
        match self {
            ObjectKind::Curve => "curve",
            ObjectKind::Report => "report",
        }
    }

    fn from_tag(tag: u32) -> Option<Self> {
        match tag {
            1 => Some(ObjectKind::Curve),
            2 => Some(ObjectKind::Report),
            _ => None,
        }
    }
}

/// One entry from [`DiskCache::ls`].
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// Hex cache key (file stem).
    pub key: String,
    /// Object kind name (`"curve"`, `"report"`, or `"?"` for foreign tags).
    pub kind: &'static str,
    /// Payload size in bytes.
    pub payload_len: u64,
}

/// Outcome of [`DiskCache::verify_all`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Objects whose checksums matched.
    pub ok: usize,
    /// Objects that failed verification (and were left in place).
    pub corrupt: usize,
}

/// A content-addressed object store rooted at one directory.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
}

impl DiskCache {
    /// Open (creating if needed) a cache rooted at `root`.
    pub fn open(root: &Path) -> Result<Self, StoreError> {
        fs::create_dir_all(root.join("objects")).map_err(|e| StoreError::io(root, e))?;
        Ok(Self {
            root: root.to_path_buf(),
        })
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory holding measurement checkpoints (managed by
    /// [`crate::checkpoint`]).
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.root.join("checkpoints")
    }

    fn object_path(&self, key: &Key) -> PathBuf {
        let hex = key.hex();
        self.root
            .join("objects")
            .join(&hex[..2])
            .join(format!("{hex}.mco"))
    }

    /// Fetch an object. Returns `None` on miss, wrong kind, or corruption
    /// (corrupt files are deleted so the slot is rewritten cleanly).
    pub fn get(&self, key: &Key, kind: ObjectKind) -> Option<Vec<u8>> {
        let path = self.object_path(key);
        let data = match fs::read(&path) {
            Ok(d) => d,
            Err(_) => {
                mcast_obs::counter("store.cache.miss").add(1);
                return None;
            }
        };
        match decode_object(&data, Some(kind)) {
            Ok(payload) => {
                mcast_obs::counter("store.cache.hit").add(1);
                Some(payload)
            }
            Err(_) => {
                mcast_obs::counter("store.cache.corrupt").add(1);
                mcast_obs::counter("store.cache.miss").add(1);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Store an object (atomically).
    pub fn put(&self, key: &Key, kind: ObjectKind, payload: &[u8]) -> Result<(), StoreError> {
        let bytes = encode_object(kind, payload);
        write_atomic(&self.object_path(key), &bytes)?;
        mcast_obs::counter("store.cache.write").add(1);
        Ok(())
    }

    /// Whether an object file exists (no verification).
    pub fn contains(&self, key: &Key) -> bool {
        self.object_path(key).exists()
    }

    fn object_files(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let objects = self.root.join("objects");
        let shards = match fs::read_dir(&objects) {
            Ok(s) => s,
            Err(_) => return out,
        };
        for shard in shards.flatten() {
            if let Ok(files) = fs::read_dir(shard.path()) {
                for f in files.flatten() {
                    let p = f.path();
                    if p.extension().is_some_and(|e| e == "mco") {
                        out.push(p);
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// List every object in the cache (sorted by key).
    pub fn ls(&self) -> Vec<CacheEntry> {
        self.object_files()
            .into_iter()
            .filter_map(|p| {
                let key = p.file_stem()?.to_str()?.to_string();
                let data = fs::read(&p).ok()?;
                if data.len() < OBJECT_HEADER_LEN {
                    return None;
                }
                let tag = u32::from_le_bytes(data[8..12].try_into().ok()?);
                let payload_len = u64::from_le_bytes(data[12..20].try_into().ok()?);
                Some(CacheEntry {
                    key,
                    kind: ObjectKind::from_tag(tag).map_or("?", ObjectKind::name),
                    payload_len,
                })
            })
            .collect()
    }

    /// Re-verify every object's checksum.
    pub fn verify_all(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for p in self.object_files() {
            let ok = fs::read(&p)
                .ok()
                .is_some_and(|d| decode_object(&d, None).is_ok());
            if ok {
                report.ok += 1;
            } else {
                report.corrupt += 1;
            }
        }
        report
    }

    /// Compute what [`DiskCache::gc`] would delete, without deleting
    /// anything: corrupt objects, stale temp files, and checkpoints
    /// whose final object already landed. This is the audit surface for
    /// `mcs cache gc --dry-run` — an operator inspecting a cache shared
    /// by a running `mcs serve` daemon can see exactly which files a gc
    /// would touch (with sizes and ages) before committing to it.
    pub fn gc_plan(&self) -> Vec<GcCandidate> {
        let mut plan = Vec::new();
        for p in self.object_files() {
            let corrupt = fs::read(&p)
                .map(|d| decode_object(&d, None).is_err())
                .unwrap_or(true);
            if corrupt {
                plan.push(GcCandidate::new(p, GcReason::CorruptObject));
            }
        }
        // Temp litter from killed writers, anywhere under the root.
        for p in collect_matching(&self.root, &|name| name.ends_with(".tmp")) {
            plan.push(GcCandidate::new(p, GcReason::TempLitter));
        }
        // Checkpoints are only useful until their final object lands; a
        // checkpoint whose curve/report was completed is unreachable.
        if let Ok(ckpts) = fs::read_dir(self.checkpoint_dir()) {
            for f in ckpts.flatten() {
                let p = f.path();
                let stale = p
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(Key::from_hex)
                    .is_some_and(|key| self.contains(&key));
                if stale {
                    plan.push(GcCandidate::new(p, GcReason::StaleCheckpoint));
                }
            }
        }
        plan.sort_by(|a, b| a.path.cmp(&b.path));
        plan
    }

    /// Remove corrupt objects, stale temp files, and stale checkpoints
    /// (exactly the [`DiskCache::gc_plan`] set). Returns the number of
    /// files deleted.
    pub fn gc(&self) -> usize {
        self.gc_plan()
            .iter()
            .filter(|c| fs::remove_file(&c.path).is_ok())
            .count()
    }
}

/// Why [`DiskCache::gc`] would remove a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcReason {
    /// An object file whose frame or checksum no longer verifies.
    CorruptObject,
    /// A `.tmp` file left behind by a killed atomic writer.
    TempLitter,
    /// A checkpoint whose final object already landed in the cache.
    StaleCheckpoint,
}

impl GcReason {
    /// Short name for listings.
    pub fn name(self) -> &'static str {
        match self {
            GcReason::CorruptObject => "corrupt-object",
            GcReason::TempLitter => "temp-litter",
            GcReason::StaleCheckpoint => "stale-checkpoint",
        }
    }
}

/// One file a gc would delete; see [`DiskCache::gc_plan`].
#[derive(Clone, Debug)]
pub struct GcCandidate {
    /// Absolute path of the doomed file.
    pub path: PathBuf,
    /// Hex key stem, when the file name carries one.
    pub key: Option<String>,
    /// Why it would be removed.
    pub reason: GcReason,
    /// File size in bytes (0 if unreadable).
    pub bytes: u64,
    /// Seconds since last modification, when the filesystem says.
    pub age_secs: Option<u64>,
}

impl GcCandidate {
    fn new(path: PathBuf, reason: GcReason) -> Self {
        let meta = fs::metadata(&path).ok();
        let bytes = meta.as_ref().map_or(0, |m| m.len());
        let age_secs = meta
            .and_then(|m| m.modified().ok())
            .and_then(|t| t.elapsed().ok())
            .map(|d| d.as_secs());
        let key = path
            .file_stem()
            .and_then(|s| s.to_str())
            .filter(|hex| Key::from_hex(hex).is_some())
            .map(str::to_string);
        Self {
            path,
            key,
            reason,
            bytes,
            age_secs,
        }
    }
}

fn collect_matching(dir: &Path, pred: &dyn Fn(&str) -> bool) -> Vec<PathBuf> {
    let mut found = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                found.extend(collect_matching(&p, pred));
            } else if p.file_name().and_then(|n| n.to_str()).is_some_and(pred) {
                found.push(p);
            }
        }
    }
    found
}

/// Frame a payload as a self-verifying object file.
pub fn encode_object(kind: ObjectKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(OBJECT_HEADER_LEN + payload.len());
    out.extend_from_slice(&OBJECT_MAGIC);
    out.extend_from_slice(&OBJECT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.tag().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&sha256(payload).0);
    out.extend_from_slice(payload);
    out
}

/// Unframe and verify an object file; `expected_kind` of `None` accepts
/// any known kind (used by `verify`/`gc`).
pub fn decode_object(
    data: &[u8],
    expected_kind: Option<ObjectKind>,
) -> Result<Vec<u8>, StoreError> {
    if data.len() < OBJECT_HEADER_LEN {
        return Err(StoreError::Truncated {
            expected: OBJECT_HEADER_LEN,
            found: data.len(),
        });
    }
    let mut found = [0u8; 4];
    found.copy_from_slice(&data[0..4]);
    if found != OBJECT_MAGIC {
        return Err(StoreError::BadMagic {
            found,
            expected: OBJECT_MAGIC,
        });
    }
    let version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if version != OBJECT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: OBJECT_VERSION,
        });
    }
    let tag = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    match (ObjectKind::from_tag(tag), expected_kind) {
        (None, _) => return Err(StoreError::HeaderCorrupt),
        (Some(k), Some(want)) if k != want => return Err(StoreError::HeaderCorrupt),
        _ => {}
    }
    let payload_len = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes")) as usize;
    let expected_total = OBJECT_HEADER_LEN + payload_len;
    if data.len() != expected_total {
        return Err(StoreError::Truncated {
            expected: expected_total,
            found: data.len(),
        });
    }
    let payload = &data[OBJECT_HEADER_LEN..];
    if sha256(payload).0 != data[20..52] {
        return Err(StoreError::PayloadCorrupt);
    }
    Ok(payload.to_vec())
}

/// The process-global cache binding produced by [`configure`].
#[derive(Debug)]
pub struct CacheHandle {
    /// The open cache.
    pub cache: DiskCache,
    /// Whether `--resume` was passed: measurement loops may load partial
    /// checkpoints and continue from them.
    pub resume: bool,
}

fn global() -> &'static RwLock<Option<Arc<CacheHandle>>> {
    static GLOBAL: OnceLock<RwLock<Option<Arc<CacheHandle>>>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(None))
}

/// Bind the process-global cache to `root`. `resume` enables checkpoint
/// loading in measurement loops.
pub fn configure(root: &Path, resume: bool) -> Result<(), StoreError> {
    let handle = Arc::new(CacheHandle {
        cache: DiskCache::open(root)?,
        resume,
    });
    *global().write().expect("store cache lock") = Some(handle);
    Ok(())
}

/// Unbind the process-global cache (tests; end of a CLI run).
pub fn deactivate() {
    *global().write().expect("store cache lock") = None;
}

/// The currently configured cache, if any.
pub fn active() -> Option<Arc<CacheHandle>> {
    global().read().expect("store cache lock").clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::KeyBuilder;

    fn temp_root(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("mcast-store-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn key(n: u64) -> Key {
        KeyBuilder::new("test").u64("n", n).finish()
    }

    #[test]
    fn put_get_round_trip() {
        let root = temp_root("roundtrip");
        let cache = DiskCache::open(&root).unwrap();
        let k = key(1);
        assert!(cache.get(&k, ObjectKind::Curve).is_none());
        cache.put(&k, ObjectKind::Curve, b"payload bytes").unwrap();
        assert_eq!(
            cache.get(&k, ObjectKind::Curve).unwrap(),
            b"payload bytes".to_vec()
        );
        // Kind mismatch is a miss, not a panic.
        assert!(cache.get(&k, ObjectKind::Report).is_none());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_object_reads_as_miss_and_is_removed() {
        let root = temp_root("corrupt");
        let cache = DiskCache::open(&root).unwrap();
        let k = key(2);
        cache.put(&k, ObjectKind::Report, b"hello").unwrap();
        let path = cache.object_path(&k);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.get(&k, ObjectKind::Report).is_none());
        assert!(!path.exists(), "corrupt object should be deleted");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn ls_verify_gc() {
        let root = temp_root("lsgc");
        let cache = DiskCache::open(&root).unwrap();
        cache.put(&key(10), ObjectKind::Curve, b"aaaa").unwrap();
        cache.put(&key(11), ObjectKind::Report, b"bb").unwrap();
        let ls = cache.ls();
        assert_eq!(ls.len(), 2);
        assert!(ls.iter().any(|e| e.kind == "curve" && e.payload_len == 4));
        assert_eq!(cache.verify_all(), VerifyReport { ok: 2, corrupt: 0 });

        // Corrupt one object in place; verify flags it, gc removes it.
        let p = cache.object_path(&key(10));
        let mut bytes = fs::read(&p).unwrap();
        bytes[OBJECT_HEADER_LEN] ^= 0x01;
        fs::write(&p, &bytes).unwrap();
        assert_eq!(cache.verify_all(), VerifyReport { ok: 1, corrupt: 1 });
        // Plant temp litter and a stale checkpoint for the surviving key.
        fs::write(root.join("objects").join("x.tmp"), b"junk").unwrap();
        let ckpt_dir = cache.checkpoint_dir();
        fs::create_dir_all(&ckpt_dir).unwrap();
        fs::write(ckpt_dir.join(format!("{}.ckpt", key(11).hex())), b"old").unwrap();
        // The dry-run plan names all three candidates (with reasons and
        // sizes) without touching anything.
        let plan = cache.gc_plan();
        assert_eq!(plan.len(), 3);
        let reasons: Vec<GcReason> = plan.iter().map(|c| c.reason).collect();
        assert!(reasons.contains(&GcReason::CorruptObject));
        assert!(reasons.contains(&GcReason::TempLitter));
        assert!(reasons.contains(&GcReason::StaleCheckpoint));
        for c in &plan {
            assert!(c.bytes > 0, "{:?} should report its size", c.path);
            assert!(c.path.exists(), "gc_plan must not delete");
        }
        let stale = plan
            .iter()
            .find(|c| c.reason == GcReason::StaleCheckpoint)
            .unwrap();
        assert_eq!(stale.key.as_deref(), Some(key(11).hex().as_str()));
        assert_eq!(cache.verify_all(), VerifyReport { ok: 1, corrupt: 1 });

        let removed = cache.gc();
        assert_eq!(removed, 3, "corrupt object + temp file + stale checkpoint");
        assert_eq!(cache.verify_all(), VerifyReport { ok: 1, corrupt: 0 });
        assert!(cache.gc_plan().is_empty(), "clean cache has an empty plan");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn object_frame_rejects_tampering() {
        let framed = encode_object(ObjectKind::Curve, b"data");
        assert_eq!(
            decode_object(&framed, Some(ObjectKind::Curve)).unwrap(),
            b"data"
        );
        assert!(matches!(
            decode_object(&framed[..10], None),
            Err(StoreError::Truncated { .. })
        ));
        let mut bad_magic = framed.clone();
        bad_magic[0] = b'Z';
        assert!(matches!(
            decode_object(&bad_magic, None),
            Err(StoreError::BadMagic { .. })
        ));
        let mut bad_version = framed.clone();
        bad_version[4] = 9;
        assert!(matches!(
            decode_object(&bad_version, None),
            Err(StoreError::UnsupportedVersion { .. })
        ));
        let mut bad_kind = framed.clone();
        bad_kind[8] = 77;
        assert!(matches!(
            decode_object(&bad_kind, None),
            Err(StoreError::HeaderCorrupt)
        ));
        let mut bad_payload = framed.clone();
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 0x20;
        assert!(matches!(
            decode_object(&bad_payload, None),
            Err(StoreError::PayloadCorrupt)
        ));
    }

    #[test]
    fn global_handle_configure_and_deactivate() {
        // Serialised against other global-state tests by using a unique
        // root and restoring the empty state afterwards.
        let root = temp_root("global");
        configure(&root, true).unwrap();
        let h = active().expect("configured");
        assert!(h.resume);
        assert_eq!(h.cache.root(), root.as_path());
        deactivate();
        assert!(active().is_none());
        fs::remove_dir_all(&root).unwrap();
    }
}
