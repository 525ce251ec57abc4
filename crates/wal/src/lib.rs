//! The ARIES-style write-ahead log, with the paper's extensions.
//!
//! The transaction log already contains most of the information needed to
//! produce prior versions of data (§4); this crate adds the paper's §4.2
//! extensions so that *page-oriented physical undo* works from the current
//! state arbitrarily far back:
//!
//! 1. every page modification carries a `prev_page_lsn`, back-linking the
//!    complete modification history of each page (§4.1-B),
//! 2. **preformat** records splice the chain across page deallocation /
//!    re-allocation and preserve the previous page image (§4.2-1, Fig. 2),
//! 3. **compensation log records carry undo information** (§4.2-2) — in this
//!    implementation every CLR is an ordinary page modification with full
//!    before/after data, plus the `undo_next` pointer,
//! 4. B-Tree structure modifications log the *deleted* rows with their full
//!    undo information (§4.2-3),
//! 5. optional **full page images** every Nth modification, chained via
//!    `prev_fpi_lsn`, let undo skip over log regions (§6.1).
//!
//! [`LogManager`] provides append/flush/random-read/scan with I/O accounting
//! (random log reads during undo are the paper's Fig. 11 metric), a
//! checkpoint directory, retention-based truncation (§4.3) and the
//! wall-clock → SplitLSN search used by as-of snapshot creation (§5.1).
//! The write path is group-committed: batched appends
//! ([`LogManager::append_batch`]), clock stamping under the writer mutex
//! ([`LogManager::append_stamped`]) and a leader/follower flush coalescer
//! with record-boundary-precise accounting (see the [`logmgr`] module docs
//! for the commit-path diagram). Both append a transaction's records onto
//! its [`TxnChain`], which the log alone moves.

pub mod logmgr;
pub mod record;
pub mod split;

pub use logmgr::{CheckpointInfo, LogConfig, LogManager, RecordRef, SegmentSummary, TxnChain};
pub use record::{
    CheckpointBody, DptEntry, LogPayload, LogPayloadView, LogRecord, LogRecordHeader, Payload,
    PayloadKind, RecordFlags, TxnTableEntry, RECORD_HEADER_BYTES, REC_FLAG_CLR, REC_FLAG_HEAP,
    REC_FLAG_SYSTEM,
};
pub use split::find_split_lsn;
