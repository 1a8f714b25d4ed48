//! Atomic file writes: temp file + rename.
//!
//! Every artifact the workspace persists — result CSV/JSON/SVG files,
//! cache objects, packed topologies — goes through [`write_atomic`], so a
//! run killed mid-write never leaves a truncated file at the destination
//! path. The temp file lives in the destination's directory (rename is
//! only atomic within a filesystem) and carries a pid + sequence suffix
//! so concurrent writers never collide.

use crate::error::StoreError;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide temp-name sequence (two threads writing the same
/// destination must not share a temp file).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` atomically: the destination either keeps its
/// old contents or holds the complete new contents, never a prefix.
///
/// Creates parent directories as needed. On any error the temp file is
/// removed (best effort) and the destination is untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    write_atomic_with(path, |w| {
        w.write_all(bytes).map_err(|e| StoreError::io(path, e))
    })
}

/// [`write_atomic`] for producers that *stream* their contents instead of
/// materialising them: `emit` writes the complete new contents to the
/// buffered temp-file writer, and the rename happens only after `emit`
/// succeeds and the buffer is flushed. This is how multi-hundred-MiB
/// packed topologies reach disk without ever existing as one byte vector
/// in RAM. Same atomicity contract as [`write_atomic`]: on any error
/// (including one returned by `emit`) the temp file is removed (best
/// effort) and the destination is untouched.
pub fn write_atomic_with<F>(path: &Path, emit: F) -> Result<(), StoreError>
where
    F: FnOnce(&mut dyn std::io::Write) -> Result<(), StoreError>,
{
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            StoreError::io(
                path,
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name"),
            )
        })?
        .to_owned();
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp_name = std::ffi::OsString::from(format!(".{}-", std::process::id()));
    tmp_name.push(&file_name);
    tmp_name.push(format!(".{seq}.tmp"));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };
    let result = (|| {
        let f = fs::File::create(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
        let mut w = std::io::BufWriter::new(f);
        emit(&mut w)?;
        let mut f = w
            .into_inner()
            .map_err(|e| StoreError::io(&tmp, e.into_error()))?;
        f.flush().map_err(|e| StoreError::io(&tmp, e))?;
        fs::rename(&tmp, path).map_err(|e| StoreError::io(path, e))
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// [`write_atomic`] for text content.
pub fn write_atomic_str(path: &Path, text: &str) -> Result<(), StoreError> {
    write_atomic(path, text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("mcast-store-atomic-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn writes_and_overwrites() {
        let d = temp_dir("basic");
        let p = d.join("a/b/out.txt");
        write_atomic_str(&p, "first").unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "first");
        write_atomic_str(&p, "second").unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "second");
        // No temp litter left behind.
        let entries: Vec<_> = fs::read_dir(p.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries.len(), 1, "{entries:?}");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn failure_leaves_destination_untouched() {
        let d = temp_dir("fail");
        let p = d.join("out.txt");
        write_atomic_str(&p, "good").unwrap();
        // Writing "through" a file as if it were a directory must fail …
        let bad = p.join("child.txt");
        assert!(write_atomic_str(&bad, "x").is_err());
        // … and the original survives.
        assert_eq!(fs::read_to_string(&p).unwrap(), "good");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn streamed_writer_cleans_up_on_emit_error() {
        let d = temp_dir("stream");
        let p = d.join("out.bin");
        write_atomic_str(&p, "keep").unwrap();
        // An emit failure after partial output must leave the original
        // contents and no temp litter.
        let err = write_atomic_with(&p, |w| {
            w.write_all(b"partial")
                .map_err(|e| StoreError::io(Path::new("x"), e))?;
            Err(StoreError::HeaderCorrupt)
        });
        assert!(matches!(err, Err(StoreError::HeaderCorrupt)));
        assert_eq!(fs::read_to_string(&p).unwrap(), "keep");
        let entries: Vec<_> = fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries.len(), 1, "{entries:?}");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn rootless_relative_path_errors_cleanly() {
        // A path with no file name is an input error, not a panic.
        let err = write_atomic_str(Path::new("/"), "x").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
    }
}
