//! The crate's typed error surface.
//!
//! Durability makes fallibility real: once a table carries a write-ahead
//! log, inserts and merges can fail on I/O and recovery can fail on a
//! corrupt log. Every public mutator and recovery entry point returns
//! [`Result`] with this [`Error`], one method per operation, in memory
//! or durable (on the zero-I/O path the write mutators never fail).

use std::path::PathBuf;

/// Alias for `std::result::Result<T, hyrise_core::Error>`.
pub type Result<T> = std::result::Result<T, Error>;

/// Everything that can go wrong in a table operation.
///
/// Marked `#[non_exhaustive]`: future PRs (network front-end, replication)
/// will add variants without a breaking change.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An I/O operation on the WAL, the checkpoint manifest or a merged
    /// column file failed.
    Io {
        /// What the engine was doing (e.g. `"append wal record"`).
        context: &'static str,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A persisted file failed validation during recovery: a CRC mismatch
    /// on a non-final record, an impossible length or count field, or a
    /// gap in the replayed row space of a sealed segment.
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// Byte offset of the bad record (0 when the whole file is bad).
        offset: u64,
        /// Human-readable description of the failed check.
        detail: String,
    },
    /// Recovery found the directory's files mutually inconsistent (e.g. a
    /// sealed segment that does not start where the checkpoint or the
    /// previous segment ends).
    Recovery {
        /// Human-readable description.
        detail: String,
    },
    /// A builder was given an invalid configuration.
    Config {
        /// Human-readable description.
        detail: String,
    },
}

impl Error {
    /// Shorthand for an [`Error::Io`].
    pub(crate) fn io(context: &'static str, source: std::io::Error) -> Self {
        Error::Io { context, source }
    }

    /// Shorthand for an [`Error::Corrupt`].
    pub(crate) fn corrupt(
        file: impl Into<PathBuf>,
        offset: u64,
        detail: impl Into<String>,
    ) -> Self {
        Error::Corrupt {
            file: file.into(),
            offset,
            detail: detail.into(),
        }
    }

    /// Shorthand for an [`Error::Recovery`].
    pub(crate) fn recovery(detail: impl Into<String>) -> Self {
        Error::Recovery {
            detail: detail.into(),
        }
    }

    /// Shorthand for an [`Error::Config`].
    pub(crate) fn config(detail: impl Into<String>) -> Self {
        Error::Config {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io { context, source } => {
                write!(f, "i/o error while trying to {context}: {source}")
            }
            Error::Corrupt {
                file,
                offset,
                detail,
            } => write!(
                f,
                "corrupt file {} at byte {offset}: {detail}",
                file.display()
            ),
            Error::Recovery { detail } => write!(f, "recovery failed: {detail}"),
            Error::Config { detail } => write!(f, "invalid configuration: {detail}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::io("append wal record", std::io::Error::other("disk on fire"));
        let s = e.to_string();
        assert!(s.contains("append wal record"));
        assert!(s.contains("disk on fire"));
        assert!(std::error::Error::source(&e).is_some());

        let c = Error::corrupt("/tmp/seg-0.wal", 42, "crc mismatch");
        let s = c.to_string();
        assert!(s.contains("seg-0.wal"));
        assert!(s.contains("42"));
        assert!(s.contains("crc mismatch"));
        assert!(std::error::Error::source(&c).is_none());

        assert!(Error::recovery("x").to_string().contains("x"));
        assert!(Error::config("y").to_string().contains("y"));
    }
}
