//! # rewind
//!
//! A from-scratch Rust reproduction of *Transaction Log Based Application
//! Error Recovery and Point In-Time Query* (Talius, Dhamankar, Dumitrache,
//! Kodavalla — PVLDB 5(12), 2012).
//!
//! `rewind` is an embedded, ARIES-style transactional storage engine whose
//! transaction log can run *backwards*: within a configured retention
//! period, the database can be queried **as of any wall-clock time in the
//! past**. Prior page versions are produced lazily — only for the pages a
//! query actually touches — via page-oriented physical undo
//! (`PreparePageAsOf`), so recovering from a fat-fingered `DROP TABLE`
//! costs time proportional to the data recovered, not to database size.
//!
//! ```
//! use rewind::{Database, DbConfig, Schema, Column, DataType, Value};
//! use rewind::restore_table_from_snapshot;
//!
//! let db = Database::create(DbConfig::default()).unwrap();
//! db.with_txn(|txn| {
//!     db.create_table(txn, "t", Schema::new(
//!         vec![Column::new("id", DataType::U64), Column::new("v", DataType::Str)],
//!         &["id"])?)?;
//!     db.insert(txn, "t", &[Value::U64(1), Value::str("precious")])
//! }).unwrap();
//! db.clock().advance_secs(60);
//! db.checkpoint().unwrap();
//! let before = db.clock().now();
//! db.clock().advance_secs(60);
//!
//! // the user error
//! db.with_txn(|txn| db.drop_table(txn, "t")).unwrap();
//!
//! // rewind: snapshot the past, reconcile into the present
//! let snap = db.create_snapshot_asof("oops", before).unwrap();
//! let n = restore_table_from_snapshot(&db, &snap, "t", "t_recovered").unwrap();
//! assert_eq!(n, 1);
//! ```
//!
//! The workspace crates compose bottom-up: [`pagestore`] (slotted pages,
//! allocation maps, file managers, the snapshot side file), [`wal`] (the
//! extended ARIES log), [`buffer`], [`txn_crate`] (2PL + latches),
//! [`access`] (B-Trees, heaps, allocator, codecs), [`recovery`]
//! (checkpoints, restart, `PreparePageAsOf`), [`snapshot`] (as-of
//! snapshots, by time or by LSN; a snapshot of "now" is one of them),
//! `core` (the [`Database`] facade), [`backup`] (the restore baseline) and
//! [`tpcc`] (the paper's workload).

pub use rewind_core::*;

/// Log-driven application error recovery: flashback targeted transactions.
pub use rewind_repair as repair;

/// The paper's workload (TPC-C-like schema, transactions, driver).
pub use rewind_tpcc as tpcc;

/// Traditional backup/restore baseline and the §6.4 path picker.
pub use rewind_backup as backup;

/// Access methods: B-Trees, heaps, allocator, codecs.
pub use rewind_access as access;
/// The buffer pool.
pub use rewind_buffer as buffer;
/// Shared ids, errors, clock and media models.
pub use rewind_common as common;
/// Pages, allocation maps, file managers, the side file.
pub use rewind_pagestore as pagestore;
/// Checkpoints, restart recovery, `PreparePageAsOf`.
pub use rewind_recovery as recovery;
/// As-of snapshots.
pub use rewind_snapshot as snapshot;
/// Transactions, locks and latches.
pub use rewind_txn as txn_crate;
/// The extended write-ahead log.
pub use rewind_wal as wal;
