//! Shared foundation types for the `rewind` engine.
//!
//! This crate hosts everything that every other layer of the system needs but
//! that does not itself contain any storage-engine logic:
//!
//! * strongly-typed identifiers ([`Lsn`], [`PageId`], [`TxnId`], [`ObjectId`]),
//! * the engine-wide [`Error`]/[`Result`] types,
//! * the simulated wall clock ([`SimClock`]) that gives the engine a
//!   deterministic time axis (commit and checkpoint records are stamped with
//!   it, and as-of snapshot creation maps wall-clock time back to an LSN),
//! * device models ([`MediaModel`]) and I/O accounting ([`IoStats`]) used to
//!   reproduce the paper's SSD-vs-SAS experiments on arbitrary hardware,
//! * small binary codec helpers shared by the log and row formats.

pub mod clock;
pub mod codec;
pub mod crc;
pub mod error;
pub mod ids;
pub mod media;
pub mod stripe;
pub mod testalloc;

pub use clock::{SimClock, Timestamp};
pub use crc::{crc32c, crc32c_append};
pub use error::{CorruptionKind, Error, Result};
pub use ids::{Lsn, ObjectId, PageId, SlotId, TxnId};
pub use media::{IoSnapshot, IoStats, MediaModel};
pub use stripe::{thread_stripe, StripedCounters, COUNTER_STRIPES};
