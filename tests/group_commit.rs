//! Commit-path regressions at the engine level: a failing checkpoint must
//! never fail a transaction whose commit record is already durable, commit
//! and checkpoint stamps must stay monotone in LSN order under concurrency,
//! batched DML must roll back and crash-recover exactly like row-at-a-time
//! DML, and concurrent commits must coalesce onto fewer physical flushes.

use rewind::common::{Error, IoStats, Lsn, PageId, Result, SimClock, Timestamp};
use rewind::pagestore::{FileManager, MemFileManager, Page};
use rewind::wal::{LogConfig, LogPayloadView};
use rewind::{Column, DataType, Database, DbConfig, Row, Schema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", DataType::U64),
            Column::new("v", DataType::Str),
        ],
        &["id"],
    )
    .unwrap()
}

fn row(id: u64) -> Row {
    vec![Value::U64(id), Value::str(&format!("row-{id}"))]
}

// ---- bug 2: commit is infallible once the flush succeeded ------------------

/// A file manager that forwards to an in-memory backend but fails page
/// writes on demand — enough to make `BufferPool::flush_all` (and therefore
/// checkpoints) fail.
struct FailingFm {
    inner: MemFileManager,
    fail_writes: AtomicBool,
}

impl FailingFm {
    fn new() -> Self {
        FailingFm {
            inner: MemFileManager::new(),
            fail_writes: AtomicBool::new(false),
        }
    }
}

impl FileManager for FailingFm {
    fn read_page(&self, pid: PageId) -> Result<Page> {
        self.inner.read_page(pid)
    }

    fn read_page_seq(&self, pid: PageId) -> Result<Page> {
        self.inner.read_page_seq(pid)
    }

    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        if self.fail_writes.load(Ordering::Acquire) {
            return Err(Error::Io("injected write failure".into()));
        }
        self.inner.write_page(pid, page)
    }

    fn write_page_seq(&self, pid: PageId, page: &Page) -> Result<()> {
        if self.fail_writes.load(Ordering::Acquire) {
            return Err(Error::Io("injected write failure".into()));
        }
        self.inner.write_page_seq(pid, page)
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn grow_to(&self, count: u64) -> Result<()> {
        self.inner.grow_to(count)
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn io_stats(&self) -> &Arc<IoStats> {
        self.inner.io_stats()
    }
}

/// Regression: `Database::commit` used to run `maybe_checkpoint()` on the
/// commit path and propagate its error, reporting `Err` for a transaction
/// that was already durably committed. A checkpoint failure must now be
/// deferred, every such commit must return `Ok`, and the data must survive.
#[test]
fn failing_checkpoint_does_not_fail_a_durable_commit() {
    let fm = Arc::new(FailingFm::new());
    let db = Database::create_on(
        fm.clone(),
        DbConfig {
            // Tiny interval so nearly every commit tries to checkpoint.
            checkpoint_interval_bytes: 4096,
            ..DbConfig::default()
        },
        SimClock::new(),
    )
    .unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        Ok(())
    })
    .unwrap();

    // Break page writes: checkpoints now fail, commits must not.
    fm.fail_writes.store(true, Ordering::Release);
    for i in 0..64 {
        let r = db.with_txn(|txn| db.insert(txn, "t", &row(i)));
        assert!(r.is_ok(), "durable commit {i} reported as failed: {r:?}");
    }
    db.quiesce_checkpoints();
    let errs = db.take_background_errors();
    assert!(
        !errs.is_empty(),
        "the checkpoint failures must surface through the background channel"
    );
    assert!(errs
        .iter()
        .all(|(what, _)| what == "post-commit checkpoint"));

    // Every committed row is present, and the engine recovers fully once
    // the device heals.
    fm.fail_writes.store(false, Ordering::Release);
    let rows = db.with_txn(|txn| db.scan_all(txn, "t")).unwrap();
    assert_eq!(rows.len(), 64);
    db.checkpoint().unwrap();
    db.quiesce_checkpoints();
    assert!(db.take_background_errors().is_empty());
}

// ---- bug 3: stamps are monotone in LSN order under concurrency -------------

/// Checkpoint Begin/End used to be stamped *outside* the commit sequencer,
/// so a checkpoint racing commits could log a timestamp older than the last
/// indexed commit — breaking the binary-search invariant SplitLSN relies
/// on. Stamps are now issued under the log writer mutex: scanning the whole
/// log must find commit/checkpoint stamps nondecreasing in LSN order.
#[test]
fn commit_and_checkpoint_stamps_monotone_under_races() {
    let db = Arc::new(
        Database::create(DbConfig {
            checkpoint_interval_bytes: 0, // manual checkpoints only
            ..DbConfig::default()
        })
        .unwrap(),
    );
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        Ok(())
    })
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let committers: Vec<_> = (0..2u64)
        .map(|t| {
            let db = db.clone();
            thread::spawn(move || {
                for i in 0..150u64 {
                    db.clock().advance_micros(3);
                    db.with_txn(|txn| db.insert(txn, "t", &row(t * 10_000 + i)))
                        .unwrap();
                }
            })
        })
        .collect();
    let checkpointer = {
        let db = db.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                db.clock().advance_micros(7);
                db.checkpoint().unwrap();
            }
        })
    };
    for c in committers {
        c.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    checkpointer.join().unwrap();

    // Every stamped record, in LSN order, must carry a nondecreasing stamp.
    let mut last = Timestamp::ZERO;
    let mut stamped = 0u64;
    db.log()
        .scan_views(Lsn::FIRST, Lsn::MAX, |h, view| {
            let at = match view {
                LogPayloadView::Commit { at } => Some(*at),
                LogPayloadView::CheckpointBegin { at } => Some(*at),
                _ => None,
            };
            if let Some(at) = at {
                assert!(
                    at >= last,
                    "stamp regressed at {}: {at:?} < {last:?}",
                    h.lsn
                );
                last = at;
                stamped += 1;
            }
            Ok(true)
        })
        .unwrap();
    assert!(
        stamped > 300,
        "expected commits + checkpoints, saw {stamped}"
    );

    // The checkpoint directory stays binary-searchable on both keys.
    let dir = db.log().checkpoints();
    assert!(dir.windows(2).all(|w| w[0].end_lsn < w[1].end_lsn));
    assert!(dir.windows(2).all(|w| w[0].at <= w[1].at));
}

// ---- batched DML: rollback and crash recovery ------------------------------

/// `insert_rows` on a heap table frames whole pages of inserts as one
/// batched log append. The batch-chained records must behave exactly like
/// row-at-a-time appends: rollback walks the chain backwards through the
/// batch, and crash recovery redoes it.
#[test]
fn batched_heap_inserts_roll_back_and_crash_recover() {
    let db = Database::create(DbConfig::default()).unwrap();
    db.with_txn(|txn| {
        db.create_heap_table(txn, "h", schema())?;
        db.create_table(txn, "t", schema())?;
        Ok(())
    })
    .unwrap();

    // Rollback: a batched multi-page insert disappears completely.
    let rows: Vec<Row> = (0..400).map(row).collect();
    let txn = db.begin();
    db.insert_rows(&txn, "h", &rows).unwrap();
    db.rollback(txn).unwrap();
    assert_eq!(db.with_txn(|t| db.scan_all(t, "h")).unwrap().len(), 0);

    // Commit both a heap batch and a tree batch, then crash.
    db.with_txn(|txn| {
        db.insert_rows(txn, "h", &rows)?;
        db.insert_rows(txn, "t", &rows)?;
        Ok(())
    })
    .unwrap();
    let db = Database::recover(db.simulate_crash()).unwrap();
    let heap_rows = db.with_txn(|t| db.scan_all(t, "h")).unwrap();
    let tree_rows = db.with_txn(|t| db.scan_all(t, "t")).unwrap();
    assert_eq!(
        heap_rows, rows,
        "heap batch must survive the crash in order"
    );
    assert_eq!(tree_rows, rows, "tree batch must survive the crash");
}

// ---- group commit through Database::commit ---------------------------------

/// With a modeled device sync latency, concurrent `Database::commit`s
/// coalesce onto fewer physical flushes than commits, while every commit
/// remains durable and visible.
#[test]
fn concurrent_database_commits_coalesce_flushes() {
    let db = Arc::new(
        Database::create(DbConfig {
            checkpoint_interval_bytes: 0,
            log: LogConfig {
                flush_delay_us: 50,
                ..LogConfig::default()
            },
            ..DbConfig::default()
        })
        .unwrap(),
    );
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        Ok(())
    })
    .unwrap();

    let threads = 4u64;
    let per_thread = 40u64;
    let s0 = db.log_io();
    let logged0 = db.log().total_bytes();
    let samples0 = db.obs().commit_latency().count;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = db.clone();
            thread::spawn(move || {
                for i in 0..per_thread {
                    db.with_txn(|txn| db.insert(txn, "t", &row(t * 1_000 + i)))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let commits = threads * per_thread;
    let io = db.log_io().delta(s0);
    let flushes = io.log_flushes;
    assert!(flushes > 0);
    assert!(
        flushes < commits,
        "no coalescing: {flushes} flushes for {commits} commits"
    );
    // Coalescing leaves the accounting exact: one latency sample per
    // durable commit, and — the last commit record being the last record
    // in the log — every byte logged charged once, to somebody's flush.
    assert_eq!(db.obs().commit_latency().count - samples0, commits);
    assert_eq!(io.log_bytes_written, db.log().total_bytes() - logged0);
    assert_eq!(
        db.with_txn(|t| db.scan_all(t, "t")).unwrap().len() as u64,
        commits
    );
    // Nothing committed is left volatile.
    assert_eq!(db.log().flushed_lsn(), db.log().tail_lsn());
}
