//! Durability of configuration and catalog state across crashes, and
//! snapshot lifecycle management.

use rewind_core::{Column, DataType, Database, DbConfig, Error, Schema, Value};
use std::time::Duration;

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

#[test]
fn undo_interval_survives_crash() {
    let db = Database::create(DbConfig::default()).unwrap();
    db.set_undo_interval(Duration::from_secs(7200)).unwrap();
    assert_eq!(db.undo_interval(), Duration::from_secs(7200));
    db.checkpoint().unwrap();

    let artifacts = db.simulate_crash();
    let db = Database::recover(artifacts).unwrap();
    assert_eq!(
        db.undo_interval(),
        Duration::from_secs(7200),
        "SET UNDO_INTERVAL is logged on the boot page and must survive restart"
    );
}

#[test]
fn catalog_cache_invalidation_across_ddl() {
    let db = Database::create(DbConfig::default()).unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        Ok(())
    })
    .unwrap();
    let before = db.table("t").unwrap();
    assert!(before.indexes.is_empty());
    db.with_txn(|txn| {
        db.create_index(txn, "t", "by_v", &["v"])?;
        Ok(())
    })
    .unwrap();
    let after = db.table("t").unwrap();
    assert_eq!(after.indexes.len(), 1, "cache must see the new index");

    // drop + recreate with a different schema: cache must not serve stale info
    db.with_txn(|txn| db.drop_table(txn, "t")).unwrap();
    db.with_txn(|txn| {
        db.create_table(
            txn,
            "t",
            Schema::new(
                vec![
                    Column::new("id", DataType::U64),
                    Column::new("a", DataType::I64),
                    Column::new("b", DataType::I64),
                ],
                &["id"],
            )?,
        )?;
        Ok(())
    })
    .unwrap();
    let fresh = db.table("t").unwrap();
    assert_eq!(fresh.schema.columns.len(), 3);
    assert!(fresh.indexes.is_empty());
}

#[test]
fn snapshot_lifecycle_management() {
    let db = Database::create(DbConfig::default()).unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        db.insert(txn, "t", &[Value::U64(1), Value::str("x")])
    })
    .unwrap();
    db.clock().advance_secs(1);
    db.checkpoint().unwrap();
    let t = db.clock().now();

    let s1 = db.create_snapshot_asof("snap", t).unwrap();
    // duplicate name refused
    assert!(matches!(
        db.create_snapshot_asof("snap", t),
        Err(Error::InvalidArg(_))
    ));
    // retrievable by name; both handles see the same state
    let s2 = db.snapshot("snap").unwrap();
    let info = s2.table("t").unwrap();
    assert_eq!(s2.count(&info).unwrap(), 1);
    assert_eq!(s1.split_lsn(), s2.split_lsn());

    s1.wait_undo_complete().unwrap();
    db.drop_snapshot("snap").unwrap();
    assert!(matches!(
        db.snapshot("snap"),
        Err(Error::SnapshotNotFound(_))
    ));
    assert!(matches!(
        db.drop_snapshot("snap"),
        Err(Error::SnapshotNotFound(_))
    ));
    // the name is reusable
    let s3 = db.create_snapshot_asof("snap", t).unwrap();
    s3.wait_undo_complete().unwrap();
    db.drop_snapshot("snap").unwrap();
}

#[test]
fn two_snapshots_at_different_times_coexist() {
    let db = Database::create(DbConfig::default()).unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        db.insert(txn, "t", &[Value::U64(1), Value::str("v1")])
    })
    .unwrap();
    db.clock().advance_secs(1);
    db.checkpoint().unwrap();
    let t1 = db.clock().now();
    db.clock().advance_secs(1);

    db.with_txn(|txn| db.update(txn, "t", &[Value::U64(1), Value::str("v2")]))
        .unwrap();
    db.clock().advance_secs(1);
    db.checkpoint().unwrap();
    let t2 = db.clock().now();
    db.clock().advance_secs(1);

    db.with_txn(|txn| db.update(txn, "t", &[Value::U64(1), Value::str("v3")]))
        .unwrap();

    let s1 = db.create_snapshot_asof("at1", t1).unwrap();
    let s2 = db.create_snapshot_asof("at2", t2).unwrap();
    let i1 = s1.table("t").unwrap();
    let i2 = s2.table("t").unwrap();
    assert_eq!(
        s1.get(&i1, &[Value::U64(1)]).unwrap().unwrap()[1],
        Value::str("v1")
    );
    assert_eq!(
        s2.get(&i2, &[Value::U64(1)]).unwrap().unwrap()[1],
        Value::str("v2")
    );
    db.with_txn(|txn| {
        assert_eq!(
            db.get(txn, "t", &[Value::U64(1)])?.unwrap()[1],
            Value::str("v3")
        );
        Ok(())
    })
    .unwrap();
    s1.wait_undo_complete().unwrap();
    s2.wait_undo_complete().unwrap();
    db.drop_snapshot("at1").unwrap();
    db.drop_snapshot("at2").unwrap();
}

#[test]
fn open_snapshot_pins_the_log_against_retention() {
    let db = Database::create(DbConfig {
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    })
    .unwrap();
    db.set_undo_interval(Duration::from_secs(10)).unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        for i in 0..200u64 {
            db.insert(txn, "t", &[Value::U64(i), Value::str("keep")])?;
        }
        Ok(())
    })
    .unwrap();
    db.clock().advance_secs(1);
    db.checkpoint().unwrap();
    let t = db.clock().now();
    let snap = db.create_snapshot_asof("pin", t).unwrap();

    // hours of churn + retention enforcement, far past the undo interval.
    // The volume matters: truncation works at whole-segment (1 MiB)
    // granularity, so the churn must span many segments.
    for round in 0..25u64 {
        db.with_txn(|txn| {
            for i in 0..200u64 {
                db.update(
                    txn,
                    "t",
                    &[
                        Value::U64(i),
                        Value::Str(format!("{round}-{}", "x".repeat(900))),
                    ],
                )?;
            }
            Ok(())
        })
        .unwrap();
        db.clock().advance_secs(60);
        db.checkpoint().unwrap();
        db.enforce_retention();
    }

    // churn must have outrun retention while the snapshot stayed usable
    let st = db.stats().unwrap();
    assert!(
        st.log_retained_bytes == st.log_bytes,
        "pin must block truncation entirely"
    );

    // the snapshot must still be fully usable: its log region was pinned
    let info = snap.table("t").unwrap();
    assert_eq!(snap.count(&info).unwrap(), 200);
    assert_eq!(
        snap.get(&info, &[Value::U64(3)]).unwrap().unwrap()[1],
        Value::str("keep")
    );
    snap.wait_undo_complete().unwrap();
    db.drop_snapshot("pin").unwrap();

    // once dropped, retention may reclaim: a new snapshot at `t` now fails
    db.clock().advance_secs(60);
    db.checkpoint().unwrap();
    db.enforce_retention();
    match db.create_snapshot_asof("gone", t) {
        Err(Error::RetentionExceeded { .. }) => {}
        other => panic!(
            "expected RetentionExceeded, got {:?}",
            other.map(|s| s.name().to_string())
        ),
    }
}
