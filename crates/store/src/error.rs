//! Error type for store operations.

use std::fmt;
use std::path::PathBuf;

/// Errors produced by the artifact store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// What the file claimed to be.
        found: [u8; 4],
        /// What this reader expected.
        expected: [u8; 4],
    },
    /// The format version is newer (or older) than this reader supports.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The header checksum does not match its contents.
    HeaderCorrupt,
    /// The payload checksum does not match, or its size disagrees with
    /// the header.
    PayloadCorrupt,
    /// The file ends before the header or payload does.
    Truncated {
        /// Bytes expected (at least).
        expected: usize,
        /// Bytes present.
        found: usize,
    },
    /// The payload decoded cleanly but violates a topology invariant
    /// (unsorted adjacency, asymmetric edge, id out of range, …).
    InvalidTopology(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "io error on `{}`: {source}", path.display()),
            Self::BadMagic { found, expected } => write!(
                f,
                "bad magic {:02x?} (expected {:02x?} — not a store file?)",
                found, expected
            ),
            Self::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (reader supports {supported})"
                )
            }
            Self::HeaderCorrupt => write!(f, "header checksum mismatch"),
            Self::PayloadCorrupt => write!(f, "payload checksum or size mismatch"),
            Self::Truncated { expected, found } => {
                write!(
                    f,
                    "file truncated: need at least {expected} bytes, have {found}"
                )
            }
            Self::InvalidTopology(reason) => write!(f, "invalid topology payload: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    /// Wrap an I/O error with the path it occurred on.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        Self::Io {
            path: path.into(),
            source,
        }
    }

    /// Whether this error means "the bytes are damaged" (as opposed to
    /// an I/O failure or a version/feature mismatch).
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            Self::HeaderCorrupt
                | Self::PayloadCorrupt
                | Self::Truncated { .. }
                | Self::BadMagic { .. }
                | Self::InvalidTopology(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StoreError::BadMagic {
            found: *b"XXXX",
            expected: *b"MCTB",
        };
        assert!(e.to_string().contains("bad magic"));
        assert!(StoreError::HeaderCorrupt.to_string().contains("header"));
        assert!(StoreError::Truncated {
            expected: 96,
            found: 3
        }
        .to_string()
        .contains("96"));
        let io = StoreError::io("/nope", std::io::Error::other("x"));
        assert!(io.to_string().contains("/nope"));
        assert!(std::error::Error::source(&io).is_some());
    }

    #[test]
    fn corruption_classification() {
        assert!(StoreError::HeaderCorrupt.is_corruption());
        assert!(StoreError::PayloadCorrupt.is_corruption());
        assert!(StoreError::InvalidTopology("x".into()).is_corruption());
        assert!(!StoreError::UnsupportedVersion {
            found: 9,
            supported: 1
        }
        .is_corruption());
        assert!(!StoreError::io("/", std::io::Error::other("x")).is_corruption());
    }
}
