//! End-to-end engine tests: DDL, DML, transactions, rollback, crash
//! recovery, as-of snapshots, dropped-table recovery, retention.

use rewind_core::{
    restore_table_from_snapshot, Column, CrashArtifacts, DataType, Database, DbConfig, Error,
    Schema, Timestamp, Value,
};
use std::time::Duration;

fn small_config() -> DbConfig {
    DbConfig {
        buffer_pages: 256,
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    }
}

fn items_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", DataType::U64),
            Column::new("name", DataType::Str),
            Column::new("qty", DataType::I64),
        ],
        &["id"],
    )
    .unwrap()
}

fn item(id: u64, name: &str, qty: i64) -> Vec<Value> {
    vec![Value::U64(id), Value::str(name), Value::I64(qty)]
}

fn setup_items(db: &Database, n: u64) {
    db.with_txn(|txn| {
        db.create_table(txn, "items", items_schema())?;
        Ok(())
    })
    .unwrap();
    db.with_txn(|txn| {
        for i in 0..n {
            db.insert(txn, "items", &item(i, &format!("item-{i}"), i as i64 * 10))?;
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn basic_crud_roundtrip() {
    let db = Database::create(small_config()).unwrap();
    setup_items(&db, 100);

    db.with_txn(|txn| {
        let row = db.get(txn, "items", &[Value::U64(42)])?.unwrap();
        assert_eq!(row, item(42, "item-42", 420));
        db.update(txn, "items", &item(42, "renamed", -1))?;
        db.delete(txn, "items", &[Value::U64(43)])?;
        Ok(())
    })
    .unwrap();

    db.with_txn(|txn| {
        assert_eq!(
            db.get(txn, "items", &[Value::U64(42)])?.unwrap(),
            item(42, "renamed", -1)
        );
        assert_eq!(db.get(txn, "items", &[Value::U64(43)])?, None);
        let rows = db.scan_between(txn, "items", &[Value::U64(40)], &[Value::U64(45)])?;
        assert_eq!(rows.len(), 5); // 40,41,42,44,45
        Ok(())
    })
    .unwrap();
    assert_eq!(db.count_approx("items").unwrap(), 99);
}

#[test]
fn duplicate_and_missing_are_reported() {
    let db = Database::create(small_config()).unwrap();
    setup_items(&db, 5);
    let txn = db.begin();
    assert!(matches!(
        db.insert(&txn, "items", &item(3, "dup", 0)),
        Err(Error::DuplicateKey)
    ));
    db.rollback(txn).unwrap();
    let txn = db.begin();
    assert!(matches!(
        db.delete(&txn, "items", &[Value::U64(99)]),
        Err(Error::KeyNotFound)
    ));
    assert!(matches!(
        db.get(&txn, "missing", &[Value::U64(1)]),
        Err(Error::TableNotFound(_))
    ));
    db.rollback(txn).unwrap();
}

#[test]
fn a_pool_below_four_frames_is_a_typed_error() {
    let config = |buffer_pages| DbConfig {
        buffer_pages,
        ..small_config()
    };
    assert!(matches!(
        Database::create(config(3)),
        Err(Error::InvalidArg(_))
    ));
    let db = Database::create(config(4)).unwrap();
    setup_items(&db, 5);
    let artifacts = db.simulate_crash();
    let reopen = |buffer_pages| CrashArtifacts {
        fm: artifacts.fm.clone(),
        log: artifacts.log.clone(),
        clock: artifacts.clock.clone(),
        config: config(buffer_pages),
        checkpoint_bound: artifacts.checkpoint_bound,
    };
    assert!(matches!(
        Database::recover(reopen(3)),
        Err(Error::InvalidArg(_))
    ));
    let db = Database::recover(reopen(4)).unwrap();
    let txn = db.begin();
    assert_eq!(
        db.get(&txn, "items", &[Value::U64(4)]).unwrap(),
        Some(item(4, "item-4", 40))
    );
    db.rollback(txn).unwrap();
}

#[test]
fn secondary_index_scans() {
    let db = Database::create(small_config()).unwrap();
    db.with_txn(|txn| {
        db.create_table(
            txn,
            "orders",
            Schema::new(
                vec![
                    Column::new("o_id", DataType::U64),
                    Column::new("c_id", DataType::U64),
                    Column::new("amount", DataType::I64),
                ],
                &["o_id"],
            )
            .unwrap(),
        )?;
        for i in 0..200u64 {
            db.insert(
                txn,
                "orders",
                &[Value::U64(i), Value::U64(i % 10), Value::I64(i as i64)],
            )?;
        }
        db.create_index(txn, "orders", "by_customer", &["c_id"])?;
        Ok(())
    })
    .unwrap();

    db.with_txn(|txn| {
        let rows = db.scan_index_prefix(txn, "orders", "by_customer", &[Value::U64(7)], 1000)?;
        assert_eq!(rows.len(), 20);
        assert!(rows.iter().all(|r| r[1] == Value::U64(7)));
        // most recent (largest o_id) order of customer 7
        let last = db.last_by_index_prefix(txn, "orders", "by_customer", &[Value::U64(7)])?;
        assert_eq!(last.unwrap()[0], Value::U64(197));
        // index maintenance on update
        db.update(
            txn,
            "orders",
            &[Value::U64(197), Value::U64(3), Value::I64(0)],
        )?;
        let last = db.last_by_index_prefix(txn, "orders", "by_customer", &[Value::U64(7)])?;
        assert_eq!(last.unwrap()[0], Value::U64(187));
        Ok(())
    })
    .unwrap();
}

#[test]
fn rollback_restores_everything() {
    let db = Database::create(small_config()).unwrap();
    setup_items(&db, 50);
    let before = db.with_txn(|txn| db.scan_all(txn, "items")).unwrap();

    let txn = db.begin();
    for i in 0..50u64 {
        db.update(&txn, "items", &item(i, "SCRIBBLE", 0)).unwrap();
    }
    for i in 50..500u64 {
        db.insert(&txn, "items", &item(i, &format!("new-{i}"), 1))
            .unwrap(); // forces splits
    }
    for i in (0..50u64).step_by(3) {
        db.delete(&txn, "items", &[Value::U64(i)]).unwrap();
    }
    db.rollback(txn).unwrap();

    let after = db.with_txn(|txn| db.scan_all(txn, "items")).unwrap();
    assert_eq!(before, after, "rollback must restore the exact pre-image");
}

/// `undo_sweep` is the one undo walk; `rollback_chain` is its one-chain
/// case. Two interleaved losers — one of whose chains jumps over completed
/// page splits through their closing CLRs — undone by ONE merged sweep must
/// leave the same table, having written the same number of CLRs, as the
/// same two losers rolled back one after the other on a twin engine.
#[test]
fn merged_undo_sweep_matches_independent_rollback_chains() {
    use rewind_common::{Lsn, ObjectId, TxnId};
    use rewind_core::Txn;
    use rewind_recovery::rollback::undo_record_view;
    use rewind_recovery::{rollback_chain, undo_sweep};

    // Committed base, then two losers whose records interleave in the log.
    let build = || -> (Database, Txn, Txn) {
        let db = Database::create(small_config()).unwrap();
        setup_items(&db, 60);
        let (l1, l2) = (db.begin(), db.begin());
        for round in 0..10u64 {
            for i in 0..40 {
                let id = 1_000 + round * 40 + i; // enough to split leaves
                db.insert(&l1, "items", &item(id, &format!("l1-{id}"), 1))
                    .unwrap();
            }
            for i in 0..3 {
                let id = round * 6 + i;
                db.update(&l2, "items", &item(id, "L2-SCRIBBLE", -1))
                    .unwrap();
            }
            db.delete(&l2, "items", &[Value::U64(round * 6 + 3)])
                .unwrap();
            db.insert(&l2, "items", &item(5_000 + round, "l2-new", 2))
                .unwrap();
        }
        (db, l1, l2)
    };
    let clrs_in = |db: &Database, from: Lsn| -> u64 {
        let mut n = 0;
        db.log()
            .scan_views(from, db.log().tail_lsn(), |header, _| {
                n += u64::from(header.is_clr());
                Ok(true)
            })
            .unwrap();
        n
    };
    let finish = |db: &Database, l1: Txn, l2: Txn| {
        // Both chains now end in CLRs, so the real rollback only closes the
        // transactions (markers, lock release).
        db.rollback(l1).unwrap();
        db.rollback(l2).unwrap();
        db.check_consistency().unwrap();
        db.with_txn(|txn| db.scan_all(txn, "items")).unwrap()
    };

    // Engine A: one merged sweep over both chains.
    let (a, a1, a2) = build();
    assert!(
        clrs_in(&a, Lsn::FIRST) > 0,
        "the workload must leave SMO-closing CLRs for the sweep to jump over"
    );
    let a_from = a.log().tail_lsn();
    let resolver = |obj: ObjectId| a.resolve_access_uncached(obj);
    let mut done: Vec<TxnId> = Vec::new();
    let undone_a = undo_sweep(
        [(a1.last_lsn(), a1.id()), (a2.last_lsn(), a2.id())],
        |lsn| a.log().get_record_ref(lsn),
        |txn, header, view| {
            let owner = if txn == a1.id() { &a1 } else { &a2 };
            undo_record_view(&a.store(owner), header, view, &resolver)
        },
        |txn| done.push(txn),
    )
    .unwrap();
    let clrs_a = clrs_in(&a, a_from);
    done.sort();
    assert_eq!(done, vec![a1.id(), a2.id()], "each chain ends exactly once");
    let rows_a = finish(&a, a1, a2);

    // Engine B (same workload): two independent one-chain rollbacks.
    let (b, b1, b2) = build();
    let b_from = b.log().tail_lsn();
    let resolver = |obj: ObjectId| b.resolve_access_uncached(obj);
    let undone_b = rollback_chain(&b.store(&b2), b.log(), b2.last_lsn(), &resolver).unwrap()
        + rollback_chain(&b.store(&b1), b.log(), b1.last_lsn(), &resolver).unwrap();
    let clrs_b = clrs_in(&b, b_from);
    let rows_b = finish(&b, b1, b2);

    assert_eq!(undone_a, undone_b, "records undone");
    assert_eq!(clrs_a, clrs_b, "CLRs written");
    assert_eq!(rows_a, rows_b, "logical table contents");
    assert_eq!(rows_a.len(), 60, "both losers fully backed out");
}

#[test]
fn rollback_of_ddl_undoes_catalog_and_allocation() {
    let db = Database::create(small_config()).unwrap();
    let pages_before = db.stats().unwrap().allocated_pages;

    let txn = db.begin();
    db.create_table(&txn, "temp", items_schema()).unwrap();
    db.insert(&txn, "temp", &item(1, "x", 1)).unwrap();
    db.rollback(txn).unwrap();

    assert!(matches!(db.table("temp"), Err(Error::TableNotFound(_))));
    assert_eq!(
        db.stats().unwrap().allocated_pages,
        pages_before,
        "root page freed"
    );
    // name reusable afterwards
    db.with_txn(|txn| {
        db.create_table(txn, "temp", items_schema())?;
        Ok(())
    })
    .unwrap();
}

#[test]
fn crash_recovery_preserves_committed_and_discards_uncommitted() {
    let db = Database::create(small_config()).unwrap();
    setup_items(&db, 200);
    db.checkpoint().unwrap();

    // committed after the checkpoint
    db.with_txn(|txn| {
        db.update(txn, "items", &item(7, "committed", 777))?;
        Ok(())
    })
    .unwrap();

    // in flight at crash time
    let loser = db.begin();
    db.update(&loser, "items", &item(8, "uncommitted", 888))
        .unwrap();
    for i in 1000..1400u64 {
        db.insert(&loser, "items", &item(i, "phantom", 0)).unwrap();
    }
    std::mem::forget(loser); // vanish without commit/rollback: crash owns it

    let artifacts = db.simulate_crash();
    let db = Database::recover(artifacts).unwrap();

    db.with_txn(|txn| {
        assert_eq!(
            db.get(txn, "items", &[Value::U64(7)])?.unwrap(),
            item(7, "committed", 777)
        );
        assert_eq!(
            db.get(txn, "items", &[Value::U64(8)])?.unwrap(),
            item(8, "item-8", 80)
        );
        assert_eq!(db.get(txn, "items", &[Value::U64(1100)])?, None);
        Ok(())
    })
    .unwrap();
    assert_eq!(db.count_approx("items").unwrap(), 200);

    // the recovered database keeps working
    db.with_txn(|txn| {
        db.insert(txn, "items", &item(9999, "post-recovery", 1))?;
        Ok(())
    })
    .unwrap();
}

#[test]
fn repeated_crashes_converge() {
    let mut db = Database::create(small_config()).unwrap();
    setup_items(&db, 50);
    for round in 0..3 {
        let txn = db.begin();
        for i in 0..50u64 {
            db.update(
                &txn,
                "items",
                &item(i, &format!("round-{round}"), round as i64),
            )
            .unwrap();
        }
        std::mem::forget(txn);
        let artifacts = db.simulate_crash();
        db = Database::recover(artifacts).unwrap();
        db.with_txn(|txn| {
            assert_eq!(
                db.get(txn, "items", &[Value::U64(0)])?.unwrap(),
                item(0, "item-0", 0)
            );
            Ok(())
        })
        .unwrap();
    }
    assert_eq!(db.count_approx("items").unwrap(), 50);
}

#[test]
fn asof_snapshot_sees_the_past() {
    let db = Database::create(small_config()).unwrap();
    setup_items(&db, 100);
    db.clock().advance_secs(10);
    db.checkpoint().unwrap();

    // t1: original state
    let t1 = db.clock().now();
    db.clock().advance_secs(10);

    db.with_txn(|txn| {
        for i in 0..100u64 {
            db.update(txn, "items", &item(i, "overwritten", -(i as i64)))?;
        }
        for i in 100..150u64 {
            db.insert(txn, "items", &item(i, "late", 0))?;
        }
        db.delete(txn, "items", &[Value::U64(5)])?;
        Ok(())
    })
    .unwrap();
    db.clock().advance_secs(10);

    let snap = db.create_snapshot_asof("past", t1).unwrap();
    snap.wait_undo_complete().unwrap();
    let info = snap.table("items").unwrap();
    assert_eq!(
        snap.count(&info).unwrap(),
        100,
        "as-of sees pre-insert row count"
    );
    let row = snap.get(&info, &[Value::U64(42)]).unwrap().unwrap();
    assert_eq!(row, item(42, "item-42", 420), "as-of sees the old values");
    assert!(snap.get(&info, &[Value::U64(120)]).unwrap().is_none());
    assert!(
        snap.get(&info, &[Value::U64(5)]).unwrap().is_some(),
        "deleted row visible as-of"
    );

    // live database unaffected
    db.with_txn(|txn| {
        assert_eq!(
            db.get(txn, "items", &[Value::U64(42)])?.unwrap(),
            item(42, "overwritten", -42)
        );
        Ok(())
    })
    .unwrap();

    // lazy preparation: only touched pages entered the side file
    assert!(snap.side_pages() > 0);
    let stats = snap.stats();
    assert!(stats.pages_prepared > 0);
    db.drop_snapshot("past").unwrap();
}

#[test]
fn snapshot_gates_on_inflight_transaction() {
    let db = Database::create(small_config()).unwrap();
    setup_items(&db, 20);
    db.clock().advance_secs(5);

    // leave a transaction in flight across the split point
    let inflight = db.begin();
    db.update(&inflight, "items", &item(3, "dirty", -3))
        .unwrap();
    db.clock().advance_secs(5);
    // a committed marker after the in-flight update, so the split lands
    // between them
    db.with_txn(|txn| {
        db.insert(txn, "items", &item(900, "marker", 1))?;
        Ok(())
    })
    .unwrap();
    let t = db.clock().now();
    db.clock().advance_secs(5);

    let snap = db.create_snapshot_asof("gated", t).unwrap();
    // the snapshot must NOT show the uncommitted update, even though it was
    // logged before the split
    let info = snap.table("items").unwrap();
    let row = snap.get(&info, &[Value::U64(3)]).unwrap().unwrap();
    assert_eq!(
        row,
        item(3, "item-3", 30),
        "uncommitted change invisible as-of"
    );
    assert_eq!(
        snap.get(&info, &[Value::U64(900)]).unwrap().unwrap(),
        item(900, "marker", 1)
    );
    snap.wait_undo_complete().unwrap();

    db.rollback(inflight).unwrap();
    db.drop_snapshot("gated").unwrap();
}

#[test]
fn dropped_table_recovered_from_snapshot() {
    let db = Database::create(small_config()).unwrap();
    setup_items(&db, 300);
    db.with_txn(|txn| {
        db.create_index(txn, "items", "by_name", &["name"])?;
        Ok(())
    })
    .unwrap();
    db.clock().advance_secs(30);
    db.checkpoint().unwrap();
    let before_drop = db.clock().now();
    db.clock().advance_secs(30);

    // the user error: DROP TABLE
    db.with_txn(|txn| {
        db.drop_table(txn, "items")?;
        Ok(())
    })
    .unwrap();
    assert!(matches!(db.table("items"), Err(Error::TableNotFound(_))));

    // generate unrelated churn afterwards, re-allocating freed pages so the
    // preformat chain (§4.2-1) is actually exercised
    db.with_txn(|txn| {
        db.create_table(txn, "noise", items_schema())?;
        for i in 0..400u64 {
            db.insert(txn, "noise", &item(i, &format!("noise-{i}"), 0))?;
        }
        Ok(())
    })
    .unwrap();
    db.clock().advance_secs(30);

    // §1 workflow: snapshot as of a time when the table existed, inspect
    // metadata, reconcile.
    let snap = db.create_snapshot_asof("before_drop", before_drop).unwrap();
    let listed = snap.list_tables().unwrap();
    assert!(
        listed.iter().any(|t| t.name == "items"),
        "metadata visible as-of"
    );
    let n = restore_table_from_snapshot(&db, &snap, "items", "items_recovered").unwrap();
    assert_eq!(n, 300);

    db.with_txn(|txn| {
        let row = db.get(txn, "items_recovered", &[Value::U64(123)])?.unwrap();
        assert_eq!(row, item(123, "item-123", 1230));
        let by_name = db.scan_index_prefix(
            txn,
            "items_recovered",
            "by_name",
            &[Value::str("item-7")],
            10,
        )?;
        assert_eq!(by_name.len(), 1);
        Ok(())
    })
    .unwrap();
    db.drop_snapshot("before_drop").unwrap();
}

#[test]
fn snapshot_of_now_is_stable_under_writes() {
    let db = Database::create(small_config()).unwrap();
    setup_items(&db, 50);
    let snap = db.create_snapshot_asof("stable", db.clock().now()).unwrap();
    snap.wait_undo_complete().unwrap();

    db.with_txn(|txn| {
        for i in 0..50u64 {
            db.update(txn, "items", &item(i, "mutated", 0))?;
        }
        Ok(())
    })
    .unwrap();

    let info = snap.table("items").unwrap();
    let row = snap.get(&info, &[Value::U64(10)]).unwrap().unwrap();
    assert_eq!(
        row,
        item(10, "item-10", 100),
        "a snapshot of now is unaffected by later writes"
    );
    // The later writes are rolled back from the log as the page is read.
    let stats = snap.stats();
    assert!(
        stats.records_undone > 0,
        "reading past later writes must undo their log records"
    );
    db.drop_snapshot("stable").unwrap();
}

#[test]
fn retention_is_enforced() {
    let db = Database::create(DbConfig {
        checkpoint_interval_bytes: 0,
        ..small_config()
    })
    .unwrap();
    db.set_undo_interval(Duration::from_secs(60)).unwrap();
    setup_items(&db, 10);

    // hours of churn, checkpointing as we go
    for hour in 0..40u64 {
        db.with_txn(|txn| {
            for i in 0..10u64 {
                db.update(txn, "items", &item(i, &format!("h{hour}"), hour as i64))?;
            }
            // pad the log so segments can be dropped (segment = 1 MiB)
            db.create_table(txn, &format!("pad_{hour}"), items_schema())?;
            for i in 0..400u64 {
                db.insert(txn, &format!("pad_{hour}"), &item(i, &"x".repeat(200), 0))?;
            }
            Ok(())
        })
        .unwrap();
        db.clock().advance_secs(120);
        db.checkpoint().unwrap();
        db.enforce_retention();
    }
    let stats = db.stats().unwrap();
    assert!(
        stats.log_retained_bytes < stats.log_bytes,
        "old log must have been truncated: retained {} of {}",
        stats.log_retained_bytes,
        stats.log_bytes
    );

    // a time way out of retention errors cleanly
    match db.create_snapshot_asof("too_old", Timestamp::from_secs(60)) {
        Err(Error::RetentionExceeded { .. }) => {}
        other => panic!("expected RetentionExceeded, got {:?}", other.map(|_| ())),
    }
    // a recent time still works
    let recent = db.clock().now().minus_micros(30_000_000);
    let snap = db.create_snapshot_asof("recent", recent).unwrap();
    snap.wait_undo_complete().unwrap();
    db.drop_snapshot("recent").unwrap();
}

#[test]
fn concurrent_transfers_conserve_total() {
    let db = std::sync::Arc::new(Database::create(small_config()).unwrap());
    db.with_txn(|txn| {
        db.create_table(
            txn,
            "accounts",
            Schema::new(
                vec![
                    Column::new("id", DataType::U64),
                    Column::new("balance", DataType::I64),
                ],
                &["id"],
            )
            .unwrap(),
        )?;
        for i in 0..16u64 {
            db.insert(txn, "accounts", &[Value::U64(i), Value::I64(1000)])?;
        }
        Ok(())
    })
    .unwrap();

    std::thread::scope(|s| {
        for t in 0..8u64 {
            let db = db.clone();
            s.spawn(move || {
                let mut state = t + 1;
                let mut rng = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> 33
                };
                let mut done = 0;
                while done < 50 {
                    let a = rng() % 16;
                    let b = rng() % 16;
                    if a == b {
                        continue;
                    }
                    let txn = db.begin();
                    let res = (|| {
                        let ra = db
                            .get_for_update(&txn, "accounts", &[Value::U64(a)])?
                            .unwrap();
                        let rb = db
                            .get_for_update(&txn, "accounts", &[Value::U64(b)])?
                            .unwrap();
                        let amt = (rng() % 100) as i64;
                        db.update(
                            &txn,
                            "accounts",
                            &[Value::U64(a), Value::I64(ra[1].as_i64()? - amt)],
                        )?;
                        db.update(
                            &txn,
                            "accounts",
                            &[Value::U64(b), Value::I64(rb[1].as_i64()? + amt)],
                        )?;
                        Ok(())
                    })();
                    match res {
                        Ok(()) => {
                            db.commit(txn).unwrap();
                            done += 1;
                        }
                        Err(Error::Deadlock(_)) | Err(Error::LockTimeout(_)) => {
                            db.rollback(txn).unwrap();
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });

    let rows = db.with_txn(|txn| db.scan_all(txn, "accounts")).unwrap();
    let total: i64 = rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!(total, 16_000, "money is conserved under concurrency");
}

#[test]
fn fpi_interval_changes_nothing_semantically() {
    for fpi in [0u32, 4] {
        let db = Database::create(DbConfig {
            fpi_interval: fpi,
            ..small_config()
        })
        .unwrap();
        setup_items(&db, 150);
        db.clock().advance_secs(5);
        db.checkpoint().unwrap();
        let t = db.clock().now();
        db.clock().advance_secs(5);
        db.with_txn(|txn| {
            for round in 0..10 {
                for i in 0..150u64 {
                    db.update(txn, "items", &item(i, &format!("r{round}"), round))?;
                }
            }
            Ok(())
        })
        .unwrap();

        let snap = db.create_snapshot_asof("t", t).unwrap();
        snap.wait_undo_complete().unwrap();
        let info = snap.table("items").unwrap();
        let row = snap.get(&info, &[Value::U64(77)]).unwrap().unwrap();
        assert_eq!(row, item(77, "item-77", 770), "fpi={fpi}");
        if fpi > 0 {
            assert!(
                snap.stats().fpi_restores > 0,
                "skip optimization must engage"
            );
        }
        db.drop_snapshot("t").unwrap();
    }
}

#[test]
fn drop_index_and_recover_it_asof() {
    let db = Database::create(small_config()).unwrap();
    setup_items(&db, 80);
    db.with_txn(|txn| {
        db.create_index(txn, "items", "by_name", &["name"])?;
        Ok(())
    })
    .unwrap();
    db.clock().advance_secs(5);
    db.checkpoint().unwrap();
    let t = db.clock().now();
    db.clock().advance_secs(5);

    db.with_txn(|txn| db.drop_index(txn, "items", "by_name"))
        .unwrap();
    let info = db.table("items").unwrap();
    assert!(info.indexes.is_empty());
    // index-backed queries now fail on the live db
    let txn = db.begin();
    assert!(db
        .scan_index_prefix(&txn, "items", "by_name", &[Value::str("item-5")], 10)
        .is_err());
    db.rollback(txn).unwrap();
    // writes still maintain the (now index-less) table
    db.with_txn(|txn| db.insert(txn, "items", &item(500, "late", 1)))
        .unwrap();

    // as-of the earlier time, the index exists and answers queries
    let snap = db.create_snapshot_asof("with_index", t).unwrap();
    let sinfo = snap.table("items").unwrap();
    assert_eq!(sinfo.indexes.len(), 1);
    let rows = snap
        .scan_index_prefix(&sinfo, "by_name", &[Value::str("item-42")], 10)
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0], item(42, "item-42", 420));
    snap.wait_undo_complete().unwrap();
    db.drop_snapshot("with_index").unwrap();
}

#[test]
fn truncate_table_and_recover_it_asof() {
    let db = Database::create(small_config()).unwrap();
    setup_items(&db, 120);
    db.clock().advance_secs(5);
    db.checkpoint().unwrap();
    let t = db.clock().now();
    db.clock().advance_secs(5);

    db.with_txn(|txn| {
        db.truncate_table(txn, "items")?;
        Ok(())
    })
    .unwrap();
    assert_eq!(db.count_approx("items").unwrap(), 0);

    let snap = db.create_snapshot_asof("pre_truncate", t).unwrap();
    snap.wait_undo_complete().unwrap();
    let info = snap.table("items").unwrap();
    assert_eq!(
        snap.count(&info).unwrap(),
        120,
        "truncated data visible as-of"
    );
    db.drop_snapshot("pre_truncate").unwrap();
}
