//! The consistency checker itself, exercised across the engine's lifecycle:
//! fresh databases, post-DML, post-DDL, post-rollback, post-crash, and —
//! crucially — *as of the past* through snapshots.

use rewind_core::{Column, DataType, Database, DbConfig, Schema, Value};

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", DataType::U64),
            Column::new("grp", DataType::U64),
            Column::new("v", DataType::Str),
        ],
        &["id"],
    )
    .unwrap()
}

fn build() -> Database {
    let db = Database::create(DbConfig {
        buffer_pages: 512,
        ..DbConfig::default()
    })
    .unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        db.create_index(txn, "t", "by_grp", &["grp"])?;
        db.create_heap_table(
            txn,
            "h",
            Schema::new(vec![Column::new("k", DataType::U64)], &["k"])?,
        )?;
        for i in 0..400u64 {
            db.insert(
                txn,
                "t",
                &[Value::U64(i), Value::U64(i % 7), Value::str("x")],
            )?;
            if i % 3 == 0 {
                db.insert(txn, "h", &[Value::U64(i)])?;
            }
        }
        Ok(())
    })
    .unwrap();
    db
}

#[test]
fn clean_database_checks_out() {
    let db = build();
    let report = db.check_consistency().unwrap();
    assert_eq!(report.tables, 2);
    assert_eq!(report.indexes, 1);
    assert_eq!(report.rows, 400 + 134);
    assert!(report.reachable_pages > 10);
}

#[test]
fn survives_churn_rollback_and_ddl() {
    let db = build();
    // churn with splits
    db.with_txn(|txn| {
        for i in 400..1500u64 {
            db.insert(
                txn,
                "t",
                &[
                    Value::U64(i),
                    Value::U64(i % 7),
                    Value::Str("y".repeat(100)),
                ],
            )?;
        }
        for i in (0..400u64).step_by(2) {
            db.delete(txn, "t", &[Value::U64(i)])?;
        }
        Ok(())
    })
    .unwrap();
    db.check_consistency().unwrap();

    // a big rollback
    let txn = db.begin();
    for i in 2000..2600u64 {
        db.insert(
            &txn,
            "t",
            &[Value::U64(i), Value::U64(0), Value::str("doomed")],
        )
        .unwrap();
    }
    db.rollback(txn).unwrap();
    db.check_consistency().unwrap();

    // DDL: drop the index, truncate, drop a table
    db.with_txn(|txn| db.drop_index(txn, "t", "by_grp"))
        .unwrap();
    db.check_consistency().unwrap();
    db.with_txn(|txn| db.truncate_table(txn, "t")).unwrap();
    db.check_consistency().unwrap();
    db.with_txn(|txn| db.drop_table(txn, "h")).unwrap();
    let report = db.check_consistency().unwrap();
    assert_eq!(report.tables, 1);
    assert_eq!(report.rows, 0);
}

#[test]
fn holds_across_crash_recovery() {
    let db = build();
    let loser = db.begin();
    for i in 5000..5400u64 {
        db.insert(
            &loser,
            "t",
            &[Value::U64(i), Value::U64(1), Value::str("gone")],
        )
        .unwrap();
    }
    std::mem::forget(loser);
    let db = Database::recover(db.simulate_crash()).unwrap();
    let report = db.check_consistency().unwrap();
    assert_eq!(report.rows, 400 + 134);
}

#[test]
fn holds_as_of_the_past() {
    let db = build();
    db.clock().advance_secs(5);
    db.checkpoint().unwrap();
    let t = db.clock().now();
    db.clock().advance_secs(5);
    // future churn incl. structure changes and a drop
    db.with_txn(|txn| {
        for i in 400..1200u64 {
            db.insert(
                txn,
                "t",
                &[
                    Value::U64(i),
                    Value::U64(i % 7),
                    Value::Str("z".repeat(200)),
                ],
            )?;
        }
        db.drop_table(txn, "h")?;
        Ok(())
    })
    .unwrap();
    db.check_consistency().unwrap();

    // the rewound database must be a well-formed database, including the
    // dropped heap and the index state as of `t`
    let snap = db.create_snapshot_asof("past", t).unwrap();
    snap.wait_undo_complete().unwrap();
    let report = snap.check_consistency().unwrap();
    assert_eq!(report.tables, 2, "dropped table visible as-of");
    assert_eq!(report.rows, 400 + 134);
    assert_eq!(report.indexes, 1);
    db.drop_snapshot("past").unwrap();
}
