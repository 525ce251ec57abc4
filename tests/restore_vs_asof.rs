//! Equivalence of the two time-travel mechanisms: for any point in time,
//! the traditional restore-and-roll-forward baseline and the as-of snapshot
//! must produce identical data. (This is what makes Figs. 7/8 an
//! apples-to-apples comparison.)

use rewind::backup::{restore_to_point_in_time, take_full_backup, FullBackup};
use rewind::common::IoStats;
use rewind::pagestore::{FaultInjector, FileManager, MemFileManager, Page};
use rewind::tpcc::{create_schema, load_initial, run_mixed, DriverConfig, TpccScale};
use rewind::wal::LogConfig;
use rewind::{
    Column, DataType, Database, DbConfig, Error, PageId, Result, Row, Schema, SimClock, Value,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

#[test]
fn restore_and_asof_agree_at_every_mark() -> Result<()> {
    let scale = TpccScale::tiny();
    let db = Arc::new(Database::create(DbConfig::default())?);
    create_schema(&db)?;
    load_initial(&db, &scale)?;
    let backup = take_full_backup(&db)?;

    let mut marks = Vec::new();
    for seed in 0..3u64 {
        run_mixed(
            &db,
            &scale,
            &DriverConfig {
                threads: 2,
                txns_per_thread: 40,
                us_per_txn: 250_000,
                seed,
                rollback_pct: 5,
            },
        )?;
        db.checkpoint()?;
        marks.push(db.clock().now());
        db.clock().advance_secs(1);
    }

    for (i, &t) in marks.iter().enumerate() {
        // Path A: as-of snapshot.
        let name = format!("mark{i}");
        let snap = db.create_snapshot_asof(&name, t)?;

        // Path B: restore the backup and roll forward to the same t.
        let (restored, report) = restore_to_point_in_time(
            &backup,
            db.log(),
            t,
            DbConfig::default(),
            SimClock::starting_at(t),
        )?;
        assert!(report.records_replayed > 0);

        for table in [
            "warehouse",
            "district",
            "customer",
            "orders",
            "order_line",
            "new_order",
            "stock",
        ] {
            let info = snap.table(table)?;
            let a = sorted(snap.scan_all(&info)?);
            let b = sorted(restored.with_txn(|txn| restored.scan_all(txn, table))?);
            assert_eq!(a.len(), b.len(), "{table} row count at mark {i}");
            assert_eq!(a, b, "{table} contents at mark {i}");
        }
        snap.wait_undo_complete().unwrap();
        db.drop_snapshot(&name)?;
    }
    Ok(())
}

#[test]
fn restore_includes_inflight_undo() -> Result<()> {
    let db = Arc::new(Database::create(DbConfig::default())?);
    let scale = TpccScale::tiny();
    create_schema(&db)?;
    load_initial(&db, &scale)?;
    let backup = take_full_backup(&db)?;
    db.clock().advance_secs(5);

    // leave a transaction in flight spanning the restore target
    let inflight = db.begin();
    let w = db
        .get_for_update(&inflight, "warehouse", &[Value::U64(1)])?
        .unwrap();
    db.update(
        &inflight,
        "warehouse",
        &[w[0].clone(), w[1].clone(), w[2].clone(), Value::F64(-1.0)],
    )?;
    db.clock().advance_secs(5);
    db.with_txn(|txn| {
        let d = db
            .get_for_update(txn, "district", &[Value::U64(1), Value::U64(1)])?
            .unwrap();
        let mut d2 = d.clone();
        d2[4] = Value::F64(123.0);
        db.update(txn, "district", &d2)
    })?;
    let t = db.clock().now();
    db.clock().advance_secs(5);

    let (restored, report) = restore_to_point_in_time(
        &backup,
        db.log(),
        t,
        DbConfig::default(),
        SimClock::starting_at(t),
    )?;
    assert_eq!(report.losers_undone, 1, "the in-flight txn must be undone");
    let wrow = restored
        .with_txn(|txn| restored.get(txn, "warehouse", &[Value::U64(1)]))?
        .unwrap();
    assert_ne!(
        wrow[3],
        Value::F64(-1.0),
        "uncommitted update must not survive restore"
    );
    let drow = restored
        .with_txn(|txn| restored.get(txn, "district", &[Value::U64(1), Value::U64(1)]))?
        .unwrap();
    assert_eq!(
        drow[4],
        Value::F64(123.0),
        "committed update must survive restore"
    );
    db.rollback(inflight)?;
    Ok(())
}

/// A time whose log retention truncated away. As-of creation refuses it
/// whether or not the truncated log is archived: the archive is out of
/// retention. Restore replays the archive when there is one; without it
/// the time is gone, and restore refuses it too rather than return the
/// backup image as if nothing had committed since the backup.
#[test]
fn restore_into_truncated_history_needs_the_archive() -> Result<()> {
    for archive_on_truncate in [false, true] {
        let config = DbConfig {
            checkpoint_interval_bytes: 0,
            log: LogConfig {
                archive_on_truncate,
                ..LogConfig::default()
            },
            ..DbConfig::default()
        };
        let db = Database::create(config.clone())?;
        let schema = Schema::new(
            vec![
                Column::new("id", DataType::U64),
                Column::new("v", DataType::Str),
            ],
            &["id"],
        )?;
        db.with_txn(|txn| {
            db.create_table(txn, "t", schema.clone())?;
            db.create_table(txn, "pad", schema)
        })?;
        let backup = take_full_backup(&db)?;
        db.clock().advance_secs(1);
        db.with_txn(|txn| db.insert(txn, "t", &[Value::U64(1), Value::str("at t")]))?;
        let t = db.clock().now();
        let after_t = db.log().tail_lsn();
        db.clock().advance_secs(1);
        // 4 MiB of padding, so that truncation passes whole segments.
        let filler = "x".repeat(1000);
        for chunk in 0..64u64 {
            db.with_txn(|txn| {
                for id in chunk * 64..(chunk + 1) * 64 {
                    db.insert(txn, "pad", &[Value::U64(id), Value::str(&filler)])?;
                }
                Ok(())
            })?;
        }
        db.checkpoint()?;
        db.clock().advance_secs(60);
        db.checkpoint()?;
        db.set_undo_interval(Duration::from_secs(10))?;
        db.enforce_retention();
        let case = format!("archive_on_truncate = {archive_on_truncate}");
        assert!(db.log().truncation_point() >= after_t, "{case}");

        match db.create_snapshot_asof("at_t", t) {
            Err(Error::RetentionExceeded { .. }) => {}
            other => panic!("{case}: as-of gave {:?}", other.map(|_| ())),
        }
        let restored =
            restore_to_point_in_time(&backup, db.log(), t, config, SimClock::starting_at(t));
        if archive_on_truncate {
            let (restored, _) = restored?;
            let rows = restored.with_txn(|txn| restored.scan_all(txn, "t"))?;
            assert_eq!(rows.len(), 1, "{case}: the commit at t is restored");
        } else {
            match restored {
                Err(Error::RetentionExceeded { .. }) => {}
                other => panic!("{case}: restore gave {:?}", other.map(|(_, r)| r)),
            }
        }
    }
    Ok(())
}

fn two_column_schema() -> Result<Schema> {
    Schema::new(
        vec![
            Column::new("id", DataType::U64),
            Column::new("v", DataType::Str),
        ],
        &["id"],
    )
}

/// A restore target after everything the live database committed, with
/// the restored database's own clock there.
fn restore_now(db: &Database, backup: &FullBackup, config: DbConfig) -> Result<Database> {
    let t = db.clock().now();
    let (restored, _) =
        restore_to_point_in_time(backup, db.log(), t, config, SimClock::starting_at(t))?;
    Ok(restored)
}

/// A file that parks every batched write (one flush chunk) while `hold` is
/// set, raising `held` and counting the parked batch until the flag clears.
#[derive(Default)]
struct HoldFm {
    inner: MemFileManager,
    hold: AtomicBool,
    held: AtomicBool,
    held_batches: AtomicU64,
}

impl FileManager for HoldFm {
    fn read_page(&self, pid: PageId) -> Result<Page> {
        self.inner.read_page(pid)
    }
    fn read_page_seq(&self, pid: PageId) -> Result<Page> {
        self.inner.read_page_seq(pid)
    }
    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        self.inner.write_page(pid, page)
    }
    fn write_pages(&self, batch: &[(PageId, Page)]) -> Vec<Result<()>> {
        if self.hold.load(Ordering::Acquire) {
            self.held_batches.fetch_add(1, Ordering::AcqRel);
            self.held.store(true, Ordering::Release);
            while self.hold.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
        self.inner.write_pages(batch)
    }
    fn write_page_seq(&self, pid: PageId, page: &Page) -> Result<()> {
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

/// The backup's flush has cloned a page and its write is held when a
/// writer commits an update to that page. The copy then holds the page
/// without the update, and the log holds the commit: a restore to a time
/// after it must replay it.
#[test]
fn a_commit_beside_the_backup_flush_is_restored() -> Result<()> {
    let fm = Arc::new(HoldFm::default());
    let config = DbConfig {
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    };
    let db = Database::create_on(fm.clone(), config.clone(), SimClock::new())?;
    db.with_txn(|txn| {
        db.create_table(txn, "t", two_column_schema()?)?;
        for id in 0..50u64 {
            db.insert(txn, "t", &[Value::U64(id), Value::str("before")])?;
        }
        Ok(())
    })?;
    fm.hold.store(true, Ordering::Release);
    let backup = std::thread::scope(|s| {
        let backup = s.spawn(|| take_full_backup(&db));
        while !fm.held.load(Ordering::Acquire) && !backup.is_finished() {
            std::thread::yield_now();
        }
        let update = db.with_txn(|txn| db.update(txn, "t", &[Value::U64(7), Value::str("beside")]));
        fm.hold.store(false, Ordering::Release);
        update.and(backup.join().expect("backup thread"))
    })?;
    assert_eq!(
        fm.held_batches.load(Ordering::Acquire),
        1,
        "the flush cloned every page it wrote before the update ran"
    );
    db.clock().advance_secs(1);
    let restored = restore_now(&db, &backup, config)?;
    let row = restored.with_txn(|txn| restored.get(txn, "t", &[Value::U64(7)]))?;
    assert_eq!(row, Some(vec![Value::U64(7), Value::str("beside")]));
    assert_eq!(
        sorted(restored.with_txn(|txn| restored.scan_all(txn, "t"))?),
        sorted(db.with_txn(|txn| db.scan_all(txn, "t"))?)
    );
    Ok(())
}

/// Backups taken 20 ms apart while two writers update rows: once the
/// writers stop, every backup restores to the live table, row for row.
#[test]
fn backups_beside_two_writers_restore_the_live_table() -> Result<()> {
    const ROWS: u64 = 400;
    let db = Database::create(DbConfig::default())?;
    let pad = "p".repeat(250);
    db.with_txn(|txn| {
        db.create_table(txn, "t", two_column_schema()?)?;
        for id in 0..ROWS {
            db.insert(txn, "t", &[Value::U64(id), Value::str(&pad)])?;
        }
        Ok(())
    })?;
    let stop = AtomicBool::new(false);
    let backups = std::thread::scope(|s| -> Result<Vec<FullBackup>> {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let (db, stop, pad) = (&db, &stop, &pad);
                s.spawn(move || -> Result<()> {
                    // Each writer owns the rows of its parity: no waits.
                    let mut n = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        n += 1;
                        let id = (n * 7919) % (ROWS / 2) * 2 + w;
                        let v = Value::Str(format!("{w}-{n}-{pad}"));
                        db.with_txn(|txn| db.update(txn, "t", &[Value::U64(id), v]))?;
                    }
                    Ok(())
                })
            })
            .collect();
        let mut backups = Vec::new();
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(20));
            backups.push(take_full_backup(&db)?);
        }
        stop.store(true, Ordering::Release);
        for w in writers {
            w.join().expect("writer thread")?;
        }
        Ok(backups)
    })?;
    let live = sorted(db.with_txn(|txn| db.scan_all(txn, "t"))?);
    let config = DbConfig {
        buffer_pages: 256,
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    };
    for (i, backup) in backups.iter().enumerate() {
        let restored = restore_now(&db, backup, config.clone())?;
        let rows = sorted(restored.with_txn(|txn| restored.scan_all(txn, "t"))?);
        let differ = rows.iter().zip(&live).filter(|(a, b)| a != b).count();
        assert_eq!(rows.len(), live.len(), "backup {i}: row count");
        assert_eq!(
            differ, 0,
            "backup {i}: rows that differ from the live table"
        );
    }
    Ok(())
}

/// The restored database keeps its log up to the restore point, so an
/// as-of query between the backup and that point answers on it exactly as
/// on the live database.
#[test]
fn the_restored_database_answers_asof_before_its_restore_point() -> Result<()> {
    let db = Database::create(DbConfig::default())?;
    db.with_txn(|txn| {
        db.create_table(txn, "t", two_column_schema()?)?;
        for id in (0..20u64).chain(100..103) {
            db.insert(txn, "t", &[Value::U64(id), Value::str("v0")])?;
        }
        Ok(())
    })?;
    let backup = take_full_backup(&db)?;
    let mut marks = Vec::new();
    for round in 1..=3u64 {
        db.clock().advance_secs(1);
        db.with_txn(|txn| {
            for id in (round..20).step_by(round as usize + 1) {
                let v = Value::Str(format!("v{round}"));
                db.update(txn, "t", &[Value::U64(id), v])?;
            }
            db.delete(txn, "t", &[Value::U64(99 + round)]).map(|_| ())
        })?;
        marks.push(db.clock().now());
    }
    let (mid, t) = (marks[0], marks[2]);
    // A commit after the restore point: the restored log is cut before it.
    db.clock().advance_secs(5);
    db.with_txn(|txn| db.update(txn, "t", &[Value::U64(0), Value::str("later")]))?;
    let (restored, _) = restore_to_point_in_time(
        &backup,
        db.log(),
        t,
        DbConfig::default(),
        SimClock::starting_at(t),
    )?;
    let asof = |db: &Database| -> Result<Vec<Row>> {
        let snap = db.create_snapshot_asof("mid", mid)?;
        let info = snap.table("t")?;
        let rows = snap.scan_all(&info)?;
        snap.wait_undo_complete()?;
        db.drop_snapshot("mid")?;
        Ok(sorted(rows))
    };
    let expected = asof(&db)?;
    assert_eq!(asof(&restored)?, expected);
    let now = sorted(restored.with_txn(|txn| restored.scan_all(txn, "t"))?);
    assert_ne!(
        now, expected,
        "the history between differs from the restore point"
    );

    // The restored log stamps by the restored clock, not by the live log's
    // later commits: a commit on it is as-of visible at its own now.
    restored.with_txn(|txn| restored.update(txn, "t", &[Value::U64(0), Value::str("ours")]))?;
    let snap = restored.create_snapshot_asof("now", restored.clock().now())?;
    let row = snap.get(&*snap.table("t")?, &[Value::U64(0)])?;
    assert_eq!(row, Some(vec![Value::U64(0), Value::str("ours")]));
    snap.wait_undo_complete()?;
    Ok(())
}

/// A backup whose checkpoint retention truncated away is refused unless
/// the truncated log is archived: without it the log no longer holds what
/// restart must read from the backup's checkpoint on.
#[test]
fn a_backup_older_than_the_retained_log_needs_the_archive() -> Result<()> {
    for archive_on_truncate in [false, true] {
        let config = DbConfig {
            checkpoint_interval_bytes: 0,
            log: LogConfig {
                archive_on_truncate,
                ..LogConfig::default()
            },
            ..DbConfig::default()
        };
        let db = Database::create(config.clone())?;
        db.with_txn(|txn| {
            db.create_table(txn, "pad", two_column_schema()?)
                .map(|_| ())
        })?;
        let backup = take_full_backup(&db)?;
        let backup_tail = db.log().tail_lsn();
        // 4 MiB of padding, so that truncation passes whole segments.
        let filler = "x".repeat(1000);
        for chunk in 0..64u64 {
            db.with_txn(|txn| {
                for id in chunk * 64..(chunk + 1) * 64 {
                    db.insert(txn, "pad", &[Value::U64(id), Value::str(&filler)])?;
                }
                Ok(())
            })?;
        }
        db.checkpoint()?;
        db.clock().advance_secs(60);
        db.checkpoint()?;
        db.set_undo_interval(Duration::from_secs(10))?;
        db.enforce_retention();
        let case = format!("archive_on_truncate = {archive_on_truncate}");
        assert!(db.log().truncation_point() >= backup_tail, "{case}");
        match restore_now(&db, &backup, config) {
            Ok(restored) if archive_on_truncate => {
                let rows = restored.with_txn(|txn| restored.scan_all(txn, "pad"))?;
                assert_eq!(rows.len(), 64 * 64, "{case}");
            }
            Err(Error::RetentionExceeded { .. }) if !archive_on_truncate => {}
            other => panic!("{case}: restore gave {:?}", other.map(|_| ())),
        }
    }
    Ok(())
}

/// Backup copies pages through `FileManager`, so a database on a
/// fault-injecting backend with no fault armed backs up and restores to
/// the same rows as one on the in-memory backend.
#[test]
fn a_backup_of_any_backend_restores_the_same_rows() -> Result<()> {
    let config = DbConfig {
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    };
    let run = |db: Database| -> Result<Vec<Row>> {
        db.with_txn(|txn| {
            db.create_table(txn, "t", two_column_schema()?)?;
            for id in 0..100u64 {
                db.insert(txn, "t", &[Value::U64(id), Value::str("v0")])?;
            }
            Ok(())
        })?;
        let backup = take_full_backup(&db)?;
        db.with_txn(|txn| {
            for id in (0..100u64).step_by(3) {
                db.update(txn, "t", &[Value::U64(id), Value::str("v1")])?;
            }
            Ok(())
        })?;
        db.clock().advance_secs(1);
        let restored = restore_now(&db, &backup, config.clone())?;
        let rows = sorted(restored.with_txn(|txn| restored.scan_all(txn, "t"))?);
        assert_eq!(rows, sorted(db.with_txn(|txn| db.scan_all(txn, "t"))?));
        Ok(rows)
    };
    let mem = run(Database::create(config.clone())?)?;
    let injected = Arc::new(FaultInjector::new(7));
    let faulty = run(Database::create_on(
        injected,
        config.clone(),
        SimClock::new(),
    )?)?;
    assert_eq!(mem.len(), 100);
    assert_eq!(faulty, mem);
    Ok(())
}
