use std::fmt;
use std::io;

/// Error type for the checkpoint store.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Filesystem failure (open, write, sync, rename).
    Io(io::Error),
    /// A read ran past the end of the available bytes — the classic torn
    /// write. Carries what was being decoded so corruption reports are
    /// actionable.
    Truncated {
        /// What the reader was decoding.
        context: &'static str,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not the one this build writes and
    /// reads ([`crate::FORMAT_VERSION`]).
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A section's payload does not match its recorded CRC32.
    CrcMismatch {
        /// Section name.
        section: String,
    },
    /// A required section is absent from the checkpoint file.
    MissingSection {
        /// Section name.
        name: String,
    },
    /// Structurally invalid content (bad enum tag, trailing bytes, value a
    /// constructor refused).
    Corrupt {
        /// What went wrong.
        detail: String,
    },
    /// Checkpoint keys must be strictly increasing within a store.
    NonMonotoneKey {
        /// The key being saved.
        key: u64,
        /// The largest key already committed.
        last: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            StoreError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated checkpoint while reading {context}: needed {needed} bytes, {available} available"
            ),
            StoreError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint format version {found}")
            }
            StoreError::CrcMismatch { section } => {
                write!(f, "CRC mismatch in checkpoint section `{section}`")
            }
            StoreError::MissingSection { name } => {
                write!(f, "checkpoint is missing section `{name}`")
            }
            StoreError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
            StoreError::NonMonotoneKey { key, last } => write!(
                f,
                "checkpoint key {key} is not greater than the last committed key {last}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}
