//! Equivalence of the two time-travel mechanisms: for any point in time,
//! the traditional restore-and-roll-forward baseline and the as-of snapshot
//! must produce identical data. (This is what makes Figs. 7/8 an
//! apples-to-apples comparison.)

use rewind::backup::{restore_to_point_in_time, take_full_backup};
use rewind::tpcc::{create_schema, load_initial, run_mixed, DriverConfig, TpccScale};
use rewind::wal::LogConfig;
use rewind::{Column, DataType, Database, DbConfig, Error, Result, Row, Schema, SimClock, Value};
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
