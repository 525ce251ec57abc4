//! Database snapshots, all **as-of** (log-rewound).
//!
//! This crate implements paper §5. An [`AsOfSnapshot`] is a read-only,
//! transactionally consistent replica of the database at an arbitrary past
//! time within the retention period:
//!
//! 1. **Creation** (§5.1): the requested wall-clock time is translated into
//!    a SplitLSN (checkpoint stamps narrow the region, commit stamps pin the
//!    record), then a checkpoint makes every page change ≤ SplitLSN durable
//!    in the primary file, so the snapshot can always read the primary file
//!    and roll *backward*.
//! 2. **Recovery** (§5.2): analysis runs from the checkpoint preceding the
//!    SplitLSN; no page reads are needed for redo — it only *reacquires the
//!    row locks* of transactions in flight at the SplitLSN. Logical undo of
//!    those transactions runs in the background (a merged descending-LSN
//!    sweep, so structure-modification ordering is honoured), writing fixed
//!    pages to the side file and releasing each transaction's locks as it
//!    completes.
//! 3. **Page access** (§5.3): side-file hit → serve; miss → read the primary
//!    file, `PreparePageAsOf(page, SplitLSN)`, cache in the side file,
//!    serve. Access methods, catalog and allocation maps all work unchanged
//!    through [`SnapshotStore`] — the snapshot looks like a regular
//!    read-only database.
//!
//! The paper's *regular* snapshot (§2.2) is the case `as-of now`: a split at
//! the current time, read through the same §5.3 path, so later primary
//! modifications are rolled back from the log like any others. There is one
//! snapshot kind.

pub mod asof;
pub mod stats;
pub mod store;

pub use asof::AsOfSnapshot;
pub use stats::SnapshotStats;
pub use store::{SnapshotMutator, SnapshotStore};
