//! Periodic checkpointing of partial measurement state.
//!
//! Long measures dedupe their Monte-Carlo source draws into *groups*
//! (one BFS per distinct source node) and merge per-index statistics in
//! ascending index order. That merge discipline is what makes results
//! independent of thread count — and it is also what makes group-level
//! checkpointing sufficient for *bit-identical* resume: a group's
//! statistics depend only on its own per-index RNG streams, so a
//! checkpoint that stores **only fully-measured groups** can be merged
//! with freshly-measured remaining groups in index order and the result
//! is indistinguishable from an uninterrupted run. No RNG positions need
//! to be persisted; incomplete groups simply restart their streams from
//! the derived per-index seeds.
//!
//! File layout (`<cache>/checkpoints/<keyhex>.ckpt`):
//!
//! ```text
//! header (44 bytes):
//!   0   4   magic b"MCSC"
//!   4   4   version (u32 LE, currently 1)
//!   8   32  cache key the checkpoint belongs to
//!   40  4   number of x-axis points per index (u32 LE)
//! then zero or more frames, each:
//!   0   8   payload length (u64 LE)
//!   8   32  SHA-256 of the payload
//!   40  …   payload (one fully-measured group, see GroupRecord)
//! ```
//!
//! Frames are appended and flushed one group at a time. A kill can tear
//! at most the final frame; [`open`] tolerates a torn tail by truncating
//! to the last intact frame before handing back an appender. Floats are
//! stored as IEEE-754 bit patterns so restored accumulators are
//! bit-exact.

use crate::error::StoreError;
use crate::hash::{sha256, Key};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic bytes of a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"MCSC";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;
/// Header length in bytes.
const HEADER_LEN: usize = 44;
/// Frame prefix length (payload length + checksum).
const FRAME_PREFIX: usize = 40;

/// Raw accumulator state for one source index: per-x `(count, mean, m2)`
/// triples, exactly what `RunningStats::to_parts` yields.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexStats {
    /// Source index within the measurement plan.
    pub index: u64,
    /// Per-x accumulator parts, one per x-axis point.
    pub stats: Vec<(u64, f64, f64)>,
}

/// One fully-measured dedup group: the per-index statistics of every
/// plan index that shares the group's source node.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupRecord {
    /// Statistics for each index in the group.
    pub entries: Vec<IndexStats>,
}

/// Path of the checkpoint for `key` under checkpoint directory `dir`.
pub fn checkpoint_path(dir: &Path, key: &Key) -> PathBuf {
    dir.join(format!("{}.ckpt", key.hex()))
}

fn encode_record(record: &GroupRecord, xs_len: u32) -> Vec<u8> {
    let per_entry = 8 + xs_len as usize * 24;
    let mut payload = Vec::with_capacity(4 + record.entries.len() * per_entry);
    payload.extend_from_slice(&(record.entries.len() as u32).to_le_bytes());
    for entry in &record.entries {
        assert_eq!(
            entry.stats.len(),
            xs_len as usize,
            "group entry has wrong x-axis length"
        );
        payload.extend_from_slice(&entry.index.to_le_bytes());
        for &(count, mean, m2) in &entry.stats {
            payload.extend_from_slice(&count.to_le_bytes());
            payload.extend_from_slice(&mean.to_bits().to_le_bytes());
            payload.extend_from_slice(&m2.to_bits().to_le_bytes());
        }
    }
    payload
}

fn decode_record(payload: &[u8], xs_len: u32) -> Option<GroupRecord> {
    let n = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
    let per_entry = 8 + xs_len as usize * 24;
    if payload.len() != 4 + n * per_entry {
        return None;
    }
    let mut entries = Vec::with_capacity(n);
    let mut at = 4;
    for _ in 0..n {
        let index = u64::from_le_bytes(payload[at..at + 8].try_into().ok()?);
        at += 8;
        let mut stats = Vec::with_capacity(xs_len as usize);
        for _ in 0..xs_len {
            let count = u64::from_le_bytes(payload[at..at + 8].try_into().ok()?);
            let mean = f64::from_bits(u64::from_le_bytes(
                payload[at + 8..at + 16].try_into().ok()?,
            ));
            let m2 = f64::from_bits(u64::from_le_bytes(
                payload[at + 16..at + 24].try_into().ok()?,
            ));
            at += 24;
            stats.push((count, mean, m2));
        }
        entries.push(IndexStats { index, stats });
    }
    Some(GroupRecord { entries })
}

fn encode_header(key: &Key, xs_len: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&CHECKPOINT_MAGIC);
    h[4..8].copy_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    h[8..40].copy_from_slice(&key.0 .0);
    h[40..44].copy_from_slice(&xs_len.to_le_bytes());
    h
}

/// Parse an existing checkpoint body. Returns the records of every
/// intact frame plus the byte length of the valid prefix; `None` when the
/// header does not match `(key, xs_len)` at the current version.
fn parse(data: &[u8], key: &Key, xs_len: u32) -> Option<(Vec<GroupRecord>, usize)> {
    if data.len() < HEADER_LEN || data[..HEADER_LEN] != encode_header(key, xs_len) {
        return None;
    }
    let mut records = Vec::new();
    let mut at = HEADER_LEN;
    while data.len() - at >= FRAME_PREFIX {
        let len = u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes")) as usize;
        let Some(end) = at
            .checked_add(FRAME_PREFIX)
            .and_then(|s| s.checked_add(len))
        else {
            break;
        };
        if end > data.len() {
            break; // torn tail
        }
        let payload = &data[at + FRAME_PREFIX..end];
        if sha256(payload).0 != data[at + 8..at + FRAME_PREFIX] {
            break; // torn or corrupt tail — everything after is suspect
        }
        let Some(record) = decode_record(payload, xs_len) else {
            break;
        };
        records.push(record);
        at = end;
    }
    Some((records, at))
}

/// An open checkpoint the measurement loop appends groups to.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: fs::File,
    path: PathBuf,
    xs_len: u32,
}

impl CheckpointWriter {
    /// Append one fully-measured group and flush it to the OS, so a
    /// subsequent process kill cannot lose it.
    pub fn append(&mut self, record: &GroupRecord) -> Result<(), StoreError> {
        let payload = encode_record(record, self.xs_len);
        let mut frame = Vec::with_capacity(FRAME_PREFIX + payload.len());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&sha256(&payload).0);
        frame.extend_from_slice(&payload);
        self.file
            .write_all(&frame)
            .and_then(|()| self.file.flush())
            .map_err(|e| StoreError::io(&self.path, e))?;
        mcast_obs::counter("store.checkpoint.group").add(1);
        Ok(())
    }
}

/// Open the checkpoint for `key`, recovering any prior progress.
///
/// * No file (or an incompatible/foreign one) → a fresh checkpoint is
///   created and no records are returned.
/// * A compatible file → every intact frame is returned; a torn tail
///   (from a mid-append kill) is truncated away before the appender is
///   handed back, so new frames always follow a valid one.
pub fn open(
    dir: &Path,
    key: &Key,
    xs_len: u32,
) -> Result<(CheckpointWriter, Vec<GroupRecord>), StoreError> {
    fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
    let path = checkpoint_path(dir, key);
    let parsed = fs::read(&path)
        .ok()
        .and_then(|data| parse(&data, key, xs_len).map(|(r, valid)| (r, valid, data)));
    let records = match parsed {
        Some((records, valid_len, data)) => {
            if valid_len < data.len() {
                // Torn tail: rewrite the valid prefix atomically so the
                // append handle starts at a frame boundary.
                crate::atomic::write_atomic(&path, &data[..valid_len])?;
            }
            mcast_obs::counter("store.checkpoint.resumed_group").add(records.len() as u64);
            records
        }
        None => {
            crate::atomic::write_atomic(&path, &encode_header(key, xs_len))?;
            Vec::new()
        }
    };
    let file = fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .map_err(|e| StoreError::io(&path, e))?;
    Ok((CheckpointWriter { file, path, xs_len }, records))
}

/// Delete the checkpoint for `key` (after its final artifact landed).
pub fn remove(dir: &Path, key: &Key) {
    let _ = fs::remove_file(checkpoint_path(dir, key));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::KeyBuilder;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mcast-store-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn key() -> Key {
        KeyBuilder::new("ckpt-test").u64("n", 1).finish()
    }

    fn group(base: u64, xs: u32) -> GroupRecord {
        GroupRecord {
            entries: (0..2)
                .map(|i| IndexStats {
                    index: base + i,
                    stats: (0..xs)
                        .map(|x| (x as u64 + 1, 0.5 * (base + x as u64) as f64, 0.25))
                        .collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn append_reopen_round_trip() {
        let dir = temp_dir("roundtrip");
        let k = key();
        let (mut w, existing) = open(&dir, &k, 3).unwrap();
        assert!(existing.is_empty());
        w.append(&group(0, 3)).unwrap();
        w.append(&group(10, 3)).unwrap();
        drop(w);
        let (_w, records) = open(&dir, &k, 3).unwrap();
        assert_eq!(records, vec![group(0, 3), group(10, 3)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = temp_dir("torn");
        let k = key();
        let (mut w, _) = open(&dir, &k, 2).unwrap();
        w.append(&group(0, 2)).unwrap();
        w.append(&group(5, 2)).unwrap();
        drop(w);
        let path = checkpoint_path(&dir, &k);
        // Simulate a kill mid-append: chop the final frame in half.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 17]).unwrap();
        let (mut w, records) = open(&dir, &k, 2).unwrap();
        assert_eq!(records, vec![group(0, 2)], "torn frame dropped");
        // The appender continues from the valid boundary.
        w.append(&group(7, 2)).unwrap();
        drop(w);
        let (_w, records) = open(&dir, &k, 2).unwrap();
        assert_eq!(records, vec![group(0, 2), group(7, 2)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incompatible_header_starts_fresh() {
        let dir = temp_dir("incompat");
        let k = key();
        let (mut w, _) = open(&dir, &k, 2).unwrap();
        w.append(&group(0, 2)).unwrap();
        drop(w);
        // Same key, different x-axis length → prior progress discarded.
        let (_w, records) = open(&dir, &k, 5).unwrap();
        assert!(records.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn float_bits_survive_exactly() {
        let dir = temp_dir("bits");
        let k = key();
        let tricky = GroupRecord {
            entries: vec![IndexStats {
                index: 3,
                stats: vec![(7, f64::from_bits(0x3ff0_0000_0000_0001), -0.0)],
            }],
        };
        let (mut w, _) = open(&dir, &k, 1).unwrap();
        w.append(&tricky).unwrap();
        drop(w);
        let (_w, records) = open(&dir, &k, 1).unwrap();
        let (count, mean, m2) = records[0].entries[0].stats[0];
        assert_eq!(count, 7);
        assert_eq!(mean.to_bits(), 0x3ff0_0000_0000_0001);
        assert_eq!(m2.to_bits(), (-0.0f64).to_bits());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_deletes_file() {
        let dir = temp_dir("remove");
        let k = key();
        let (_w, _) = open(&dir, &k, 1).unwrap();
        assert!(checkpoint_path(&dir, &k).exists());
        remove(&dir, &k);
        assert!(!checkpoint_path(&dir, &k).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
