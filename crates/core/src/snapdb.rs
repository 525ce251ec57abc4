//! Querying an as-of snapshot — and recovering data from it.
//!
//! [`SnapshotDb`] gives an as-of snapshot the same query surface as the live
//! database (paper §5: "presented to the user as a transactionally
//! consistent read-only database that supports arbitrary queries"). All
//! reads run through the snapshot's page-access protocol, so prior versions
//! are produced only for the data actually touched. Primary-page reads go
//! through the (sharded) buffer manager with a shared latch, so concurrent
//! as-of queries scale with live traffic instead of serializing behind a
//! global page-table lock.
//!
//! Reads gate on the locks reacquired for transactions in flight at the
//! SplitLSN (§5.2): a point read blocks on its row's lock, a multi-row read
//! on every lock under its object — a row such a transaction *deleted* is
//! not among the rows the read found, so the keys found say nothing — until
//! the background undo releases them, then retries.
//!
//! The kind of read decides how it reaches the primary's buffer pool, not a
//! setting. Every multi-row read (`scan_all`, `scan_prefix`,
//! `scan_between`; tree or heap) runs in one scan partition per operation:
//! a full tree scan first prepares its leaves through the one prefetch
//! ([`SnapshotDb::prefetch_table`]'s body) inside it, and the walk itself —
//! internal pages, a bounded range, a heap chain — reads through a store
//! carrying the same partition, so one operation disturbs at most one
//! budget of the live pool. Point reads (`get`, `get_value_bytes`, `table`)
//! and index lookups (`scan_index_prefix`, point reads of the base table)
//! are the snapshot's working set and never partition.
//!
//! [`restore_table_from_snapshot`] implements the paper's §1 recovery
//! workflow: read the dropped/damaged table's schema from the snapshot
//! catalog, recreate it in the live database, and `INSERT … SELECT` the
//! rows across.

use crate::catalog::{self, SysTrees, TableInfo, TableKind};
use crate::database::Database;
use parking_lot::RwLock;
use rewind_access::keys::{encode_key, prefix_upper_bound};
use rewind_access::value::decode_row;
use rewind_access::{Row, Value};
use rewind_buffer::ScanPartition;
use rewind_common::{Error, Lsn, ObjectId, Result, Timestamp};
use rewind_recovery::AccessKind;
use rewind_snapshot::AsOfSnapshot;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

/// A queryable handle over an as-of (or regular) snapshot.
#[derive(Clone)]
pub struct SnapshotDb {
    snap: Arc<AsOfSnapshot>,
    sys: SysTrees,
    cache: Arc<RwLock<HashMap<String, Arc<TableInfo>>>>,
    /// Pool frames each multi-row read's scan partition may hold (0 = an
    /// eighth of the pool, sized by `BufferPool::scan_partition`).
    scan_budget: usize,
}

impl SnapshotDb {
    /// Wrap an [`AsOfSnapshot`], resolving its (as-of) catalog roots.
    pub fn open(snap: Arc<AsOfSnapshot>) -> Result<SnapshotDb> {
        let sys = SysTrees::load(&snap.store())?;
        Ok(SnapshotDb {
            snap,
            sys,
            cache: Arc::new(RwLock::new(HashMap::new())),
            scan_budget: 0,
        })
    }

    /// Return a handle whose multi-row reads run in scan partitions of
    /// `budget` pool frames (ROADMAP perf item (h); 0, the default, is an
    /// eighth of the pool). The pool floors it at two frames and caps it at
    /// half the pool.
    pub fn with_scan_budget(mut self, budget: usize) -> SnapshotDb {
        self.scan_budget = budget;
        self
    }

    /// Prepare every leaf page of `table` into the side file, returning the
    /// number of pages newly prepared. The structural walk that discovers
    /// the leaves prepares the internal pages; the leaves — the bulk of any
    /// real table — then prepare in one [`AsOfSnapshot::prepare_pages`]
    /// run. All of it reads through one pin-limited scan partition, so a
    /// table larger than the buffer pool cannot evict the live working set.
    /// Subsequent reads of those pages are zero-copy side-file hits.
    pub fn prefetch_table(&self, table: &TableInfo) -> Result<u64> {
        if table.kind != TableKind::Tree {
            return Ok(0);
        }
        self.prefetch_table_in(table, &self.snap.scan_partition(self.scan_budget))
    }

    fn prefetch_table_in(&self, table: &TableInfo, part: &ScanPartition) -> Result<u64> {
        // Discovery reads internal pages — part of the cold stream, so it
        // runs inside the partition too.
        let store = self.snap.store_partitioned(part);
        let leaves = table.tree()?.unread_leaf_pages(&store)?;
        if leaves.len() < 2 {
            return Ok(0);
        }
        self.snap.prepare_pages(&leaves, part)
    }

    /// Resolve an object id against a snapshot's own catalog (used by the
    /// background undo's resolver — no gating, since undo *is* the party
    /// the gates wait for).
    pub(crate) fn resolve_on(snap: &AsOfSnapshot, obj: ObjectId) -> Result<AccessKind> {
        let store = snap.store();
        catalog::resolve_access(&store, &SysTrees::load(&store)?, obj)
    }

    /// The underlying snapshot.
    pub fn raw(&self) -> &Arc<AsOfSnapshot> {
        &self.snap
    }

    /// Snapshot name.
    pub fn name(&self) -> &str {
        &self.snap.name
    }

    /// The wall-clock time this snapshot represents.
    pub fn as_of(&self) -> Timestamp {
        self.snap.as_of
    }

    /// The SplitLSN.
    pub fn split_lsn(&self) -> Lsn {
        self.snap.split_lsn
    }

    /// Instrumentation counters (pages prepared, records undone, …).
    pub fn stats(&self) -> rewind_snapshot::stats::SnapshotStatsView {
        self.snap.stats()
    }

    /// Pages currently cached in the side file.
    pub fn side_pages(&self) -> usize {
        self.snap.side_pages()
    }

    /// Per-page prepare-gate entries currently live (bounded by in-flight
    /// preparations; 0 when quiescent — the gate-leak regression guard).
    pub fn prepare_gate_entries(&self) -> usize {
        self.snap.prepare_gate_entries()
    }

    /// Whether background undo has completed.
    pub fn undo_complete(&self) -> bool {
        self.snap.undo_complete()
    }

    /// Block until background undo completes; the error it died with, if
    /// it did.
    pub fn wait_undo_complete(&self) -> Result<()> {
        self.snap.wait_undo_complete()
    }

    /// The one gated read (§5.2). `read` fetches, `gate` blocks on whatever
    /// reacquired locks cover what was fetched and says whether it had to
    /// wait. The result stands only if nothing waited *and* the undo epoch
    /// did not move across the two: undo can restore a row and drop its
    /// lock between the read and the gate, and then the gate alone would
    /// pass a pre-undo row (see [`AsOfSnapshot::undo_epoch`]). A dead undo
    /// thread surfaces here as its typed error.
    fn gated<T>(
        &self,
        mut read: impl FnMut() -> Result<T>,
        mut gate: impl FnMut(&T) -> Result<bool>,
    ) -> Result<T> {
        loop {
            let epoch = self.snap.undo_epoch()?;
            let out = read()?;
            if !gate(&out)? && self.snap.undo_epoch()? == epoch {
                return Ok(out);
            }
        }
    }

    // ---- metadata (the §1 workflow starts here) ------------------------------

    /// Look up a table *as of the snapshot time*. This is how a user
    /// confirms a dropped table existed at the chosen time (§1).
    pub fn table(&self, name: &str) -> Result<Arc<TableInfo>> {
        if let Some(info) = self.cache.read().get(name) {
            return Ok(info.clone());
        }
        let store = self.snap.store();
        let found = self.gated(
            || catalog::read_table_by_name(&store, &self.sys, name),
            |found| match found {
                // An in-flight DDL transaction at the split may still own
                // the catalog row.
                Some(info) => self
                    .snap
                    .gate_row(ObjectId::SYS_TABLES, &catalog::table_key(info.id)),
                // Absence is only trustworthy once no in-flight DDL locks
                // remain on the catalog.
                None => self.snap.gate_object(ObjectId::SYS_TABLES),
            },
        )?;
        let info = Arc::new(found.ok_or_else(|| Error::TableNotFound(name.to_string()))?);
        self.cache.write().insert(name.to_string(), info.clone());
        Ok(info)
    }

    /// All tables as of the snapshot time.
    pub fn list_tables(&self) -> Result<Vec<TableInfo>> {
        let store = self.snap.store();
        self.gated(
            || catalog::list_tables(&store, &self.sys),
            |_| self.snap.gate_object(ObjectId::SYS_TABLES),
        )
    }

    // ---- queries ----------------------------------------------------------------

    /// Point lookup as of the snapshot time.
    pub fn get(&self, table: &TableInfo, key: &[Value]) -> Result<Option<Row>> {
        let refs: Vec<&Value> = key.iter().collect();
        self.get_value_bytes(table, &encode_key(&refs)?)?
            .map(|v| decode_row(&v))
            .transpose()
    }

    /// Point lookup by already-encoded key bytes, returning the stored row
    /// bytes. The repair engine diffs witness against live at the byte
    /// level, so decoding is skipped (and unnecessary key decoding — the
    /// log only yields encoded keys — is avoided entirely).
    pub fn get_value_bytes(&self, table: &TableInfo, key_bytes: &[u8]) -> Result<Option<Vec<u8>>> {
        let store = self.snap.store();
        let tree = table.tree()?;
        self.gated(
            || tree.get(&store, key_bytes),
            |_| self.snap.gate_row(table.id, key_bytes),
        )
    }

    /// The one multi-row read: one scan partition for the whole operation.
    /// A full tree scan prepares its leaves ahead inside it — a bounded
    /// scan does not, since its working set is its range and preparing
    /// beyond it would break the touched-pages-only economy — and the walk
    /// reads through a store carrying it. Gated on the object.
    fn scan_gated(
        &self,
        table: &TableInfo,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
    ) -> Result<Vec<Row>> {
        let full = matches!((lo, hi), (Bound::Unbounded, Bound::Unbounded));
        let part = self.snap.scan_partition(self.scan_budget);
        if full && table.kind == TableKind::Tree {
            self.prefetch_table_in(table, &part)?;
        }
        let store = self.snap.store_partitioned(&part);
        self.gated(
            || {
                let mut rows = Vec::new();
                let mut push = |v: &[u8]| {
                    rows.push(decode_row(v)?);
                    Ok(true)
                };
                match table.kind {
                    // A heap chain names each next page on the one before,
                    // so it has nothing to prefetch and no key to bound.
                    TableKind::Heap if full => table.heap()?.scan(&store, |_, v| push(v))?,
                    _ => table.tree()?.scan(&store, lo, hi, |_, v| push(v))?,
                }
                Ok(rows)
            },
            |_| self.snap.gate_object(table.id),
        )
    }

    /// Rows whose key starts with `prefix`, as of the snapshot time.
    pub fn scan_prefix(&self, table: &TableInfo, prefix: &[Value]) -> Result<Vec<Row>> {
        let refs: Vec<&Value> = prefix.iter().collect();
        if refs.is_empty() {
            return self.scan_all(table);
        }
        let lo = encode_key(&refs)?;
        let hi = prefix_upper_bound(&lo);
        self.scan_gated(table, Bound::Included(&lo), Bound::Excluded(&hi))
    }

    /// Rows with `lo <= key <= hi` (values for a prefix of the key).
    pub fn scan_between(&self, table: &TableInfo, lo: &[Value], hi: &[Value]) -> Result<Vec<Row>> {
        let lo_refs: Vec<&Value> = lo.iter().collect();
        let hi_refs: Vec<&Value> = hi.iter().collect();
        let lo_b = encode_key(&lo_refs)?;
        let hi_b = prefix_upper_bound(&encode_key(&hi_refs)?);
        self.scan_gated(table, Bound::Included(&lo_b), Bound::Excluded(&hi_b))
    }

    /// Every row of the table as of the snapshot time.
    pub fn scan_all(&self, table: &TableInfo) -> Result<Vec<Row>> {
        self.scan_gated(table, Bound::Unbounded, Bound::Unbounded)
    }

    /// Row count as of the snapshot time.
    pub fn count(&self, table: &TableInfo) -> Result<usize> {
        Ok(self.scan_all(table)?.len())
    }

    /// Rows matched through a secondary index (as of the snapshot time) by
    /// prefix of the indexed columns — exercises rewinding of index pages.
    pub fn scan_index_prefix(
        &self,
        table: &TableInfo,
        index: &str,
        prefix: &[Value],
        limit: usize,
    ) -> Result<Vec<Row>> {
        let idx = table.index(index)?;
        let refs: Vec<&Value> = prefix.iter().collect();
        let lo = encode_key(&refs)?;
        let hi = prefix_upper_bound(&lo);
        // Index lookups resolve to point reads of the base table — the
        // snapshot's working set, not a cold stream — so they deliberately
        // stay off the scan partition.
        let store = self.snap.store();
        let tree = table.tree()?;
        self.gated(
            || {
                let mut pks: Vec<Vec<u8>> = Vec::new();
                idx.tree().scan(
                    &store,
                    Bound::Included(&lo),
                    Bound::Excluded(&hi),
                    |_, pk| {
                        pks.push(pk.to_vec());
                        Ok(pks.len() < limit)
                    },
                )?;
                let mut rows = Vec::with_capacity(pks.len());
                for pk in &pks {
                    if let Some(v) = tree.get(&store, pk)? {
                        rows.push(decode_row(&v)?);
                    }
                }
                Ok(rows)
            },
            |_| self.snap.gate_object(table.id),
        )
    }
}

/// Check that a live table's schema still matches the snapshot's before
/// rows are copied across. A drifted schema (columns added/dropped, a type
/// changed, the key re-shaped) would let `INSERT … SELECT` write mis-shaped
/// rows; refuse with a typed error instead.
fn check_restore_schema(snap_info: &TableInfo, live: &TableInfo) -> Result<()> {
    let drift = |detail: String| Error::SchemaDrift {
        table: live.name.clone(),
        snapshot_columns: snap_info.schema.columns.len(),
        live_columns: live.schema.columns.len(),
        detail,
    };
    if live.kind != snap_info.kind {
        return Err(drift(format!(
            "table kind changed ({:?} -> {:?})",
            snap_info.kind, live.kind
        )));
    }
    if live.schema.columns.len() != snap_info.schema.columns.len() {
        return Err(drift("column count changed".into()));
    }
    for (a, b) in snap_info.schema.columns.iter().zip(&live.schema.columns) {
        if a.ty != b.ty {
            return Err(drift(format!(
                "column '{}' changed type ({:?} -> {:?})",
                a.name, a.ty, b.ty
            )));
        }
        if a.name != b.name {
            return Err(drift(format!(
                "column '{}' renamed to '{}'",
                a.name, b.name
            )));
        }
    }
    if live.schema.key != snap_info.schema.key {
        return Err(drift("primary key shape changed".into()));
    }
    // Anything the specific checks above miss: full structural equality is
    // the actual requirement (it is also what the repair planner demands).
    if live.schema != snap_info.schema {
        return Err(drift("schema drifted".into()));
    }
    Ok(())
}

/// The paper's §1 recovery flow: extract `src_table` from the snapshot and
/// materialize it in the live database as `dest_name` (schema, rows, and
/// secondary indexes). Returns the number of rows copied.
///
/// When `dest_name` already exists (restoring *into a live table*), the live
/// schema must still match the snapshot's — a drifted schema fails with
/// [`Error::SchemaDrift`] before any row is written. Matching-schema
/// restores reconcile row-by-row: missing keys are inserted, diverged rows
/// are updated, identical rows are left alone.
pub fn restore_table_from_snapshot(
    db: &Database,
    snap: &SnapshotDb,
    src_table: &str,
    dest_name: &str,
) -> Result<usize> {
    let info = snap.table(src_table)?;
    let rows = snap.scan_all(&info)?;
    let live = match db.table(dest_name) {
        Ok(live) => Some(live),
        Err(Error::TableNotFound(_)) => None,
        Err(e) => return Err(e),
    };
    db.with_txn(|txn| match live {
        Some(live) => {
            check_restore_schema(&info, &live)?;
            if live.kind != TableKind::Tree {
                return Err(Error::InvalidArg(
                    "restoring into a live heap table is not supported; \
                     restore into a fresh name instead"
                        .into(),
                ));
            }
            let mut copied = 0usize;
            for row in &rows {
                let key: Vec<Value> = info.schema.key_values(row)?.into_iter().cloned().collect();
                match db.get_for_update(txn, dest_name, &key)? {
                    Some(existing) if &existing == row => {}
                    Some(_) => {
                        db.update(txn, dest_name, row)?;
                        copied += 1;
                    }
                    None => {
                        db.insert(txn, dest_name, row)?;
                        copied += 1;
                    }
                }
            }
            Ok(copied)
        }
        None => {
            match info.kind {
                TableKind::Tree => db.create_table(txn, dest_name, info.schema.clone())?,
                TableKind::Heap => db.create_heap_table(txn, dest_name, info.schema.clone())?,
            };
            for row in &rows {
                db.insert(txn, dest_name, row)?;
            }
            for idx in &info.indexes {
                let col_names: Vec<&str> = idx
                    .cols
                    .iter()
                    .map(|&c| info.schema.columns[c].name.as_str())
                    .collect();
                db.create_index(txn, dest_name, &idx.name, &col_names)?;
            }
            Ok(rows.len())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Column, DataType, DbConfig, Schema};
    use std::sync::mpsc;

    fn row(id: u64, n: u64) -> Row {
        vec![Value::U64(id), Value::U64(n)]
    }

    /// A database with row 1 = 100 committed and one transaction — in flight
    /// at the returned time, and for ever after — that has done `loser_op` to
    /// it; with an as-of snapshot of that time whose undo has not been
    /// started.
    fn snapshot_with_pending_undo(
        loser_op: impl FnOnce(&Database, &crate::Txn) -> Result<()>,
    ) -> (Database, Arc<AsOfSnapshot>, SnapshotDb) {
        let db = Database::create(DbConfig {
            checkpoint_interval_bytes: 0,
            ..DbConfig::default()
        })
        .unwrap();
        db.with_txn(|txn| {
            let schema = Schema::new(
                vec![
                    Column::new("id", DataType::U64),
                    Column::new("n", DataType::U64),
                ],
                &["id"],
            )?;
            db.create_table(txn, "t", schema)?;
            db.insert(txn, "t", &row(1, 100))?;
            db.insert(txn, "t", &row(2, 200))
        })
        .unwrap();
        db.clock().advance_secs(1);
        let loser = db.begin();
        loser_op(&db, &loser).unwrap();
        std::mem::forget(loser);
        // A later commit puts the loser's write below the split.
        db.with_txn(|txn| db.update(txn, "t", &row(2, 201)))
            .unwrap();
        db.clock().advance_secs(1);
        let at = db.clock().now();
        db.clock().advance_secs(1);
        let snap = AsOfSnapshot::create("pending", db.parts(), at).unwrap();
        assert_eq!(snap.creation.loser_count, 1);
        let sdb = SnapshotDb::open(snap.clone()).unwrap();
        (db, snap, sdb)
    }

    /// ROADMAP item 0, deterministically. The reader is parked right after
    /// its read — it has the loser's 999 in hand — while undo restores the
    /// row, releases the lock and finishes. Its gate then finds nothing to
    /// wait for; only the moved epoch says the 999 is stale. (With the epoch
    /// comparison taken out of `gated` this returns 999, which is what every
    /// gated read did before there was an epoch.)
    #[test]
    fn a_read_that_straddles_undo_is_repeated() {
        let (_db, snap, sdb) =
            snapshot_with_pending_undo(|db, txn| db.update(txn, "t", &row(1, 999)));
        let table = sdb.table("t").unwrap();
        let tree = table.tree().unwrap();
        let key = encode_key(&[&Value::U64(1)]).unwrap();

        let (read_done, wait_read) = mpsc::channel();
        let (undo_done, wait_undo) = mpsc::channel::<()>();
        let (found, reads) = std::thread::scope(|s| {
            let (sdb, tree, table, key) = (&sdb, &tree, &table, &key);
            let reader = s.spawn(move || {
                let store = sdb.snap.store();
                let mut reads = 0;
                let found = sdb.gated(
                    || {
                        let found = tree.get(&store, key)?;
                        reads += 1;
                        if reads == 1 {
                            read_done.send(found.clone()).unwrap();
                            wait_undo.recv().unwrap();
                        }
                        Ok(found)
                    },
                    |_| sdb.snap.gate_row(table.id, key),
                );
                (found, reads)
            });
            let first = wait_read.recv().unwrap().unwrap();
            assert_eq!(decode_row(&first).unwrap(), row(1, 999), "a pre-undo read");
            snap.run_undo(&|obj| SnapshotDb::resolve_on(&snap, obj))
                .unwrap();
            assert!(snap.undo_complete());
            undo_done.send(()).unwrap();
            reader.join().unwrap()
        });
        assert_eq!(decode_row(&found.unwrap().unwrap()).unwrap(), row(1, 100));
        assert_eq!(reads, 2, "read once more, and only once");
        assert_eq!(
            sdb.get(&table, &[Value::U64(2)]).unwrap(),
            Some(row(2, 201))
        );
    }

    /// ROADMAP G6: a row a loser *deleted* is not among the rows a scan
    /// finds, so gating the keys found let the scan through without it. A
    /// multi-row read gates on the object: it blocks while the loser holds
    /// anything under the table and, once undo has put the row back, reads
    /// it. (Gating the keys found, this returned row 2 alone, at once.)
    #[test]
    fn a_scan_waits_for_the_row_a_loser_deleted() {
        let (_db, snap, sdb) =
            snapshot_with_pending_undo(|db, txn| db.delete(txn, "t", &[Value::U64(1)]));
        let table = sdb.table("t").unwrap();

        let (scanned, wait_scan) = mpsc::channel();
        std::thread::scope(|s| {
            let (sdb, table) = (&sdb, &table);
            s.spawn(move || scanned.send(sdb.scan_all(table)).unwrap());
            let early = wait_scan.recv_timeout(std::time::Duration::from_millis(200));
            assert!(
                early.is_err(),
                "the scan returned {early:?} with undo pending"
            );
            snap.run_undo(&|obj| SnapshotDb::resolve_on(&snap, obj))
                .unwrap();
            assert_eq!(
                wait_scan.recv().unwrap().unwrap(),
                vec![row(1, 100), row(2, 201)]
            );
        });
        assert_eq!(sdb.list_tables().unwrap().len(), 1);
    }

    /// ROADMAP G3: an undo thread that dies hands its error to everyone who
    /// would otherwise wait for it — `wait_undo_complete` and a reader
    /// blocked on a loser's lock — instead of leaving them parked.
    #[test]
    fn a_failed_undo_reaches_waiters_and_gated_readers_as_its_error() {
        let (_db, snap, sdb) =
            snapshot_with_pending_undo(|db, txn| db.update(txn, "t", &row(1, 999)));
        let table = sdb.table("t").unwrap();
        let boom = Error::Internal("resolver failed".into());

        std::thread::scope(|s| {
            let waiter = s.spawn(|| sdb.wait_undo_complete());
            let reader = s.spawn(|| sdb.get(&table, &[Value::U64(1)]));
            let undo = snap.run_undo(&|_| Err(boom.clone()));
            assert_eq!(undo, Err(boom.clone()));
            assert_eq!(waiter.join().unwrap(), Err(boom.clone()));
            assert_eq!(reader.join().unwrap(), Err(boom.clone()));
        });
        assert!(!sdb.undo_complete());
        // Not only those already waiting: whoever comes later is told too.
        assert_eq!(sdb.wait_undo_complete(), Err(boom.clone()));
        assert_eq!(sdb.scan_all(&table), Err(boom));
    }
}
