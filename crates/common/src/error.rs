//! Engine-wide error and result types.

use crate::ids::{Lsn, ObjectId, PageId, TxnId};
use crate::Timestamp;
use std::fmt;

/// The engine-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// What kind of media damage a [`Error::Corruption`] describes.
///
/// The kind drives the recovery policy: a [`CorruptionKind::LogBlock`] that
/// restart reads truncates the log there (same semantics as discarding
/// unflushed records) — a damaged checkpoint record included, after which
/// the previous checkpoint governs — while one below restart's start stays
/// for a later reader to meet; a [`CorruptionKind::PageChecksum`] or
/// [`CorruptionKind::TornPage`] triggers page salvage from the per-page log
/// chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// A log record frame failed its CRC-32C, or its length prefix was
    /// structurally impossible.
    LogBlock,
    /// A page image failed its checksum with a *consistent* trailer — the
    /// whole image is suspect (bit rot, misdirected write).
    PageChecksum,
    /// A page image failed its checksum and the trailer disagrees with the
    /// header pageLSN — the classic torn 8 KiB write (only part of the page
    /// reached the media).
    TornPage,
    /// A logical/structural invariant was violated (bad slot directory,
    /// impossible record shape, catalog inconsistency) — the bytes may be
    /// intact but their meaning is not.
    Structure,
}

impl fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CorruptionKind::LogBlock => "log-block",
            CorruptionKind::PageChecksum => "page-checksum",
            CorruptionKind::TornPage => "torn-page",
            CorruptionKind::Structure => "structure",
        };
        f.write_str(s)
    }
}

/// Every failure the engine can surface.
///
/// The variants are deliberately specific: callers (the TPC-C driver, the
/// snapshot machinery, tests) dispatch on them — e.g. a driver retries on
/// [`Error::Deadlock`] but aborts the run on [`Error::Corruption`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A row or key was not found where one was required.
    KeyNotFound,
    /// An insert collided with an existing key in a unique index.
    DuplicateKey,
    /// A record did not fit in a page and could not be split further
    /// (e.g. a single row larger than a page).
    RecordTooLarge { size: usize, max: usize },
    /// The named table does not exist in the catalog.
    TableNotFound(String),
    /// An object id present in a reference was missing from the catalog.
    ObjectNotFound(ObjectId),
    /// The transaction was chosen as a deadlock victim and rolled back.
    Deadlock(TxnId),
    /// A lock could not be acquired within the configured timeout.
    LockTimeout(TxnId),
    /// The transaction has already been aborted; no further work is allowed.
    TxnAborted(TxnId),
    /// The transaction handle was used after commit/rollback.
    TxnFinished(TxnId),
    /// An as-of time fell outside the configured retention period, or the
    /// log needed for undo has been truncated.
    RetentionExceeded {
        /// Requested point in time.
        requested: Timestamp,
        /// Earliest recoverable point.
        earliest: Timestamp,
    },
    /// A log record needed for undo/redo has been truncated away.
    LogTruncated(Lsn),
    /// A write was attempted against a read-only database (e.g. a snapshot).
    ReadOnly,
    /// Media or structural damage was detected (checksum mismatch, torn
    /// write, impossible structure). `kind` selects the degraded-mode
    /// policy; `lsn`/`pid` locate the damage when known.
    Corruption {
        /// What failed — see [`CorruptionKind`] for the policy each implies.
        kind: CorruptionKind,
        /// Log position of the damaged frame, when the damage is in the log.
        lsn: Option<Lsn>,
        /// Page id of the damaged page, when the damage is in the data file.
        pid: Option<PageId>,
        /// Human-readable description.
        detail: String,
    },
    /// A page id was out of the database's range or otherwise invalid.
    InvalidPage(PageId),
    /// An argument or configuration value was rejected.
    InvalidArg(String),
    /// The underlying (real or simulated) storage failed.
    Io(String),
    /// The requested snapshot does not exist or was dropped.
    SnapshotNotFound(String),
    /// A restore/repair found the live table's schema incompatible with the
    /// snapshot's (the schema drifted since the split point). Refusing is
    /// the only safe move: copying rows across would silently mis-shape them.
    SchemaDrift {
        /// The table being restored into.
        table: String,
        /// Columns in the snapshot's schema.
        snapshot_columns: usize,
        /// Columns in the live schema.
        live_columns: usize,
        /// What drifted (column count, type, key shape).
        detail: String,
    },
    /// Catch-all for internal invariant violations; always a bug.
    Internal(String),
}

impl Error {
    /// Structural corruption with no media location — the migration-friendly
    /// constructor used by logical integrity checks (bad slot directory,
    /// impossible record shape, catalog inconsistency).
    #[inline]
    pub fn corruption(detail: impl Into<String>) -> Error {
        Error::Corruption {
            kind: CorruptionKind::Structure,
            lsn: None,
            pid: None,
            detail: detail.into(),
        }
    }

    /// A log frame failed its CRC or length check at `lsn`.
    #[inline]
    pub fn log_corruption(lsn: Lsn, detail: impl Into<String>) -> Error {
        Error::Corruption {
            kind: CorruptionKind::LogBlock,
            lsn: Some(lsn),
            pid: None,
            detail: detail.into(),
        }
    }

    /// A page image failed its checksum/torn-write check.
    #[inline]
    pub fn page_corruption(kind: CorruptionKind, pid: PageId, detail: impl Into<String>) -> Error {
        Error::Corruption {
            kind,
            lsn: None,
            pid: Some(pid),
            detail: detail.into(),
        }
    }

    /// The [`CorruptionKind`] if this is a corruption error.
    #[inline]
    pub fn corruption_kind(&self) -> Option<CorruptionKind> {
        match self {
            Error::Corruption { kind, .. } => Some(*kind),
            _ => None,
        }
    }

    /// True for failures worth a bounded retry (the device may answer on the
    /// next attempt): transient I/O errors, but never corruption — re-reading
    /// a checksum-bad page returns the same bad bytes.
    #[inline]
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::Io(_))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::KeyNotFound => write!(f, "key not found"),
            Error::DuplicateKey => write!(f, "duplicate key"),
            Error::RecordTooLarge { size, max } => {
                write!(
                    f,
                    "record of {size} bytes exceeds page capacity of {max} bytes"
                )
            }
            Error::TableNotFound(name) => write!(f, "table '{name}' not found"),
            Error::ObjectNotFound(id) => write!(f, "object {id} not found in catalog"),
            Error::Deadlock(t) => write!(f, "transaction {t} was chosen as deadlock victim"),
            Error::LockTimeout(t) => write!(f, "transaction {t} timed out waiting for a lock"),
            Error::TxnAborted(t) => write!(f, "transaction {t} is aborted"),
            Error::TxnFinished(t) => write!(f, "transaction {t} has already finished"),
            Error::RetentionExceeded {
                requested,
                earliest,
            } => write!(
                f,
                "requested time {requested} is outside the retention period (earliest {earliest})"
            ),
            Error::LogTruncated(lsn) => {
                write!(f, "log record at {lsn} has been truncated away")
            }
            Error::ReadOnly => write!(f, "database is read-only"),
            Error::Corruption {
                kind,
                lsn,
                pid,
                detail,
            } => {
                write!(f, "corruption detected [{kind}")?;
                if let Some(lsn) = lsn {
                    write!(f, " at {lsn}")?;
                }
                if let Some(pid) = pid {
                    write!(f, " on {pid}")?;
                }
                write!(f, "]: {detail}")
            }
            Error::InvalidPage(p) => write!(f, "invalid page id {p}"),
            Error::InvalidArg(msg) => write!(f, "invalid argument: {msg}"),
            Error::Io(msg) => write!(f, "i/o error: {msg}"),
            Error::SnapshotNotFound(name) => write!(f, "snapshot '{name}' not found"),
            Error::SchemaDrift {
                table,
                snapshot_columns,
                live_columns,
                detail,
            } => write!(
                f,
                "schema of table '{table}' drifted since the snapshot \
                 (snapshot {snapshot_columns} columns, live {live_columns}): {detail}"
            ),
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::RetentionExceeded {
            requested: Timestamp::from_micros(1_000_000),
            earliest: Timestamp::from_micros(2_000_000),
        };
        let s = e.to_string();
        assert!(s.contains("retention"));
        assert!(Error::Deadlock(TxnId(3)).to_string().contains("T3"));
        assert!(Error::TableNotFound("orders".into())
            .to_string()
            .contains("orders"));
    }

    #[test]
    fn corruption_display_carries_kind_and_location() {
        let e = Error::log_corruption(Lsn(4096), "crc mismatch");
        let s = e.to_string();
        assert!(s.contains("log-block"), "{s}");
        assert!(s.contains("crc mismatch"), "{s}");
        assert_eq!(e.corruption_kind(), Some(CorruptionKind::LogBlock));
        let e = Error::page_corruption(CorruptionKind::TornPage, PageId(7), "trailer mismatch");
        assert!(e.to_string().contains("torn-page"));
        assert_eq!(e.corruption_kind(), Some(CorruptionKind::TornPage));
        assert!(Error::corruption("bad slot dir")
            .to_string()
            .contains("structure"));
        assert!(!Error::corruption("x").is_transient());
        assert!(Error::Io("eio".into()).is_transient());
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
    }
}
