//! `rewind-repair`: log-driven application error recovery (flashback).
//!
//! The paper's §1 motivating failure is an *application* error — a bad
//! batch job, an accidental `DELETE` — and its §1 remedy is to query an
//! as-of snapshot and reconcile. `restore_table_from_snapshot` does that
//! at table granularity, which clobbers every change made *after* the
//! error. This crate is the selective-undo generalization: revert exactly
//! the rows a chosen set of transactions wrote, keep everything else.
//!
//! The pipeline:
//!
//! 1. **Log harvest** ([`harvest`]): a forward pass from the segment where
//!    the targets begin (found from the log's segment summaries), plus one
//!    backward chain walk for every chain that began below it, collects the
//!    target transactions' record chains, the `(table, key)` set they
//!    touched, and every later committed writer of those keys.
//! 2. **As-of witness**: an [`AsOfSnapshot`]-backed `SnapshotDb` is
//!    mounted at the LSN *just before the earliest target record*
//!    (`Database::create_snapshot_at_lsn`) and serves the pre-images —
//!    prior versions are produced only for the touched pages, the paper's
//!    core economy.
//! 3. **Logical diff + compensation plan** ([`plan`]): witness vs. live,
//!    per key, yields typed compensation DML (re-insert / delete /
//!    restore-update). Keys also written by a later committed non-target
//!    transaction are flagged **conflicted** and resolved by policy:
//!    skip, overwrite, or report-only.
//! 4. **Apply** ([`engine`]): the plan executes as one regular logged
//!    transaction through the live DML path — locked, index-maintained,
//!    undoable, and visible to every subsequent as-of query.
//!
//! ```no_run
//! use rewind_core::{Database, DbConfig};
//! use rewind_repair::{flashback, ConflictPolicy, RepairConfig, RepairTarget};
//! # fn demo(db: &Database, bad_txn: rewind_common::TxnId) -> rewind_common::Result<()> {
//! let report = flashback(
//!     db,
//!     &RepairTarget::Txns([bad_txn].into()),
//!     &RepairConfig { policy: ConflictPolicy::Skip },
//! )?;
//! println!("reverted {} rows, {} conflicts skipped",
//!          report.applied, report.skipped_conflicts.len());
//! # Ok(()) }
//! ```
//!
//! [`AsOfSnapshot`]: rewind_core::Database::create_snapshot_asof

pub mod engine;
pub mod harvest;
pub mod plan;

pub use engine::{
    flashback, plan_flashback, ConflictPolicy, ConflictReport, RepairConfig, RepairReport,
};
pub use harvest::{
    harvest as harvest_log, refresh_conflicts, ConflictInfo, Harvest, RepairTarget, TargetTxn,
};
pub use plan::{KeyRepair, RepairAction, RepairPlan, UnsupportedNote};

use rewind_access::Row;
use rewind_common::Result;
use rewind_core::{Database, SnapshotDb};

/// One divergent key of a whole-table diff.
#[derive(Clone, Debug, PartialEq)]
pub struct TableDiff {
    /// The diverging key's values.
    pub key: Row,
    /// The row in the snapshot (`None` = absent there).
    pub snapshot: Option<Row>,
    /// The row in the live database (`None` = absent there).
    pub live: Option<Row>,
}

/// Whole-table logical diff between a snapshot and the live database:
/// every key whose row differs (present on one side only, or with
/// different values). Empty exactly when the table's content is identical
/// on both sides.
pub fn diff_table(db: &Database, snap: &SnapshotDb, table: &str) -> Result<Vec<TableDiff>> {
    use std::collections::BTreeMap;
    let snap_info = snap.table(table)?;
    let live_info = db.table_info(table)?;
    let mut by_key: BTreeMap<Vec<u8>, (Option<Row>, Option<Row>)> = BTreeMap::new();
    for row in snap.scan_all(&snap_info)? {
        let k = snap_info.key_bytes(&row)?;
        by_key.entry(k).or_default().0 = Some(row);
    }
    let txn = db.begin();
    let live_rows = db.scan_all(&txn, table);
    db.commit(txn)?;
    for row in live_rows? {
        let k = live_info.key_bytes(&row)?;
        by_key.entry(k).or_default().1 = Some(row);
    }
    let mut out = Vec::new();
    for (_, (s, l)) in by_key {
        if s != l {
            let Some(row) = s.as_ref().or(l.as_ref()) else {
                continue; // both None would have compared equal
            };
            let key = live_info
                .schema
                .key_values(row)?
                .into_iter()
                .cloned()
                .collect();
            out.push(TableDiff {
                key,
                snapshot: s,
                live: l,
            });
        }
    }
    Ok(out)
}
