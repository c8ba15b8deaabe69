//! Error type for the provenance store.

use std::error::Error;
use std::fmt;
use std::io;

/// Errors raised by the provenance store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// A stored frame failed its CRC check.
    ChecksumMismatch,
    /// A stored frame could not be decoded.
    Corrupt(String),
    /// The store directory does not exist or is not a directory.
    InvalidDirectory(String),
    /// A query referenced a sequence number that does not exist.
    UnknownSequence(u64),
    /// An appended record's provenance nests this many levels deep, past
    /// [`MAX_PROVENANCE_DEPTH`](crate::record::MAX_PROVENANCE_DEPTH): the
    /// store does not write what its decoder would refuse to read.
    TooDeep(usize),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {}", e),
            StoreError::ChecksumMismatch => write!(f, "record checksum mismatch"),
            StoreError::Corrupt(what) => write!(f, "corrupt record: {}", what),
            StoreError::InvalidDirectory(path) => {
                write!(f, "invalid store directory: {}", path)
            }
            StoreError::UnknownSequence(seq) => write!(f, "unknown sequence number {}", seq),
            StoreError::TooDeep(depth) => write!(
                f,
                "provenance nests {} levels deep, past the limit of {}",
                depth,
                crate::record::MAX_PROVENANCE_DEPTH
            ),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        assert_eq!(
            StoreError::ChecksumMismatch.to_string(),
            "record checksum mismatch"
        );
        assert!(StoreError::Corrupt("bad tag".into())
            .to_string()
            .contains("bad tag"));
        assert!(StoreError::UnknownSequence(9).to_string().contains('9'));
        assert!(StoreError::InvalidDirectory("/nope".into())
            .to_string()
            .contains("/nope"));
        assert!(StoreError::TooDeep(300).to_string().contains("300"));
    }

    #[test]
    fn io_errors_are_wrapped_with_source() {
        let err: StoreError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(err.to_string().contains("gone"));
        assert!(err.source().is_some());
        assert!(StoreError::ChecksumMismatch.source().is_none());
    }
}
