//! The flashback engine end-to-end: a TPC-C-shaped "erroneous batch job"
//! is surgically reverted while all later work survives, verified against
//! an oracle run that never executed the bad batch; plus conflict policies
//! and repair idempotency on a focused schema.

use rewind::repair::{
    diff_table, flashback, harvest_log, ConflictPolicy, RepairConfig, RepairTarget,
};
use rewind::tpcc::{self, bad_credit_batch, create_schema, load_initial, NewOrderLine, TpccScale};
use rewind::{Column, DataType, Database, DbConfig, Schema, SimClock, Timestamp, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

fn scale() -> TpccScale {
    TpccScale {
        warehouses: 2,
        districts_per_warehouse: 2,
        customers_per_district: 8,
        items: 40,
        initial_orders_per_district: 4,
    }
}

fn mk_db() -> Arc<Database> {
    // Separate clocks, identical start: both runs see the same timestamps
    // as long as the test advances them in lockstep.
    let clock = SimClock::starting_at(Timestamp::from_secs(1_000));
    Arc::new(Database::create_with_clock(DbConfig::default(), clock).unwrap())
}

/// A deterministic slab of TPC-C work. `w_id` confines it to one
/// warehouse so pre- and post-error work can be kept disjoint from the
/// damaged rows.
fn run_work(db: &Arc<Database>, w_id: u64, rounds: u64) {
    let sc = scale();
    for i in 0..rounds {
        let d_id = 1 + i % sc.districts_per_warehouse;
        let c_id = 1 + i % sc.customers_per_district;
        db.with_txn(|txn| {
            tpcc::new_order(
                db,
                txn,
                w_id,
                d_id,
                c_id,
                &[
                    NewOrderLine {
                        item_id: 1 + i % sc.items,
                        supply_w_id: w_id,
                        quantity: 3,
                    },
                    NewOrderLine {
                        item_id: 1 + (i * 7 + 3) % sc.items,
                        supply_w_id: w_id,
                        quantity: 1,
                    },
                ],
            )
            .map(|_| ())
        })
        .unwrap();
        db.with_txn(|txn| {
            tpcc::payment(
                db,
                txn,
                w_id,
                d_id,
                tpcc::txns::CustomerSelector::ById(c_id),
                7.25 + i as f64,
            )
        })
        .unwrap();
        db.clock().advance_secs(1);
    }
}

const TABLES: &[&str] = &[
    "warehouse",
    "district",
    "customer",
    "item",
    "stock",
    "orders",
    "new_order",
    "order_line",
    "history",
];

fn all_rows(db: &Arc<Database>, table: &str) -> Vec<rewind::Row> {
    let txn = db.begin();
    let rows = db.scan_all(&txn, table).unwrap();
    db.commit(txn).unwrap();
    rows
}

#[test]
fn erroneous_batch_flashback_matches_oracle() {
    let db = mk_db();
    let oracle = mk_db();
    for d in [&db, &oracle] {
        create_schema(d).unwrap();
        load_initial(d, &scale()).unwrap();
    }

    // Business as usual on both runs.
    run_work(&db, 1, 6);
    run_work(&oracle, 1, 6);
    db.checkpoint().unwrap();
    oracle.checkpoint().unwrap();

    // The erroneous batch job — only the real run executes it. The oracle's
    // clock advances identically so later commit stamps stay in lockstep.
    let bad_txn = {
        let txn = db.begin();
        let damaged = bad_credit_batch(&db, &txn, 1).unwrap();
        assert_eq!(
            damaged,
            scale().districts_per_warehouse * scale().customers_per_district
        );
        let id = txn.id();
        db.commit(txn).unwrap();
        id
    };
    db.clock().advance_secs(5);
    oracle.clock().advance_secs(5);
    let damaged_at = db.clock().now();
    db.clock().advance_secs(5);
    oracle.clock().advance_secs(5);

    // Later work that must survive: confined to warehouse 2, disjoint from
    // every damaged row.
    run_work(&db, 2, 6);
    run_work(&oracle, 2, 6);

    // Flash the batch back.
    let report = flashback(
        &db,
        &RepairTarget::Txns(BTreeSet::from([bad_txn])),
        &RepairConfig {
            policy: ConflictPolicy::Skip,
        },
    )
    .unwrap();
    assert_eq!(
        report.applied as u64,
        scale().districts_per_warehouse * scale().customers_per_district,
        "every damaged customer is restored"
    );
    assert!(
        report.skipped_conflicts.is_empty(),
        "no later writer overlaps"
    );
    assert!(
        report.unsupported.is_empty(),
        "the batch touched only B-Trees"
    );
    assert!(
        report.repair_txn.is_some(),
        "the repair ran as one transaction"
    );

    // Oracle equality: the repaired run is row-for-row the run on which the
    // batch never happened.
    for table in TABLES {
        assert_eq!(
            all_rows(&db, table),
            all_rows(&oracle, table),
            "table {table} diverged from the oracle"
        );
    }

    // The repair is an ordinary transaction: an as-of query *between* the
    // error and the repair still sees the damage; the present does not.
    db.clock().advance_secs(2);
    let snap = db.create_snapshot_asof("mid-damage", damaged_at).unwrap();
    let cust = snap.table("customer").unwrap();
    let damaged_row = snap
        .get(&cust, &[Value::U64(1), Value::U64(1), Value::U64(1)])
        .unwrap()
        .unwrap();
    assert_eq!(damaged_row[9], Value::str("PROMO-APPLIED"));
    assert_eq!(damaged_row[5], Value::F64(0.0));
    db.drop_snapshot("mid-damage").unwrap();

    let txn = db.begin();
    let live_row = db
        .get(
            &txn,
            "customer",
            &[Value::U64(1), Value::U64(1), Value::U64(1)],
        )
        .unwrap()
        .unwrap();
    db.commit(txn).unwrap();
    assert_ne!(live_row[9], Value::str("PROMO-APPLIED"));
}

fn small_table(db: &Database) {
    db.with_txn(|txn| {
        db.create_table(
            txn,
            "t",
            Schema::new(
                vec![
                    Column::new("id", DataType::U64),
                    Column::new("v", DataType::Str),
                ],
                &["id"],
            )?,
        )?;
        for i in 1..=10u64 {
            db.insert(txn, "t", &[Value::U64(i), Value::str(&format!("v{i}"))])?;
        }
        Ok(())
    })
    .unwrap();
}

fn get_t(db: &Database, id: u64) -> Option<rewind::Row> {
    let txn = db.begin();
    let r = db.get(&txn, "t", &[Value::U64(id)]).unwrap();
    db.commit(txn).unwrap();
    r
}

#[test]
fn conflict_policies_skip_then_overwrite() {
    let db = mk_db();
    small_table(&db);
    db.clock().advance_secs(10);

    // The bad transaction: updates 1..=5, deletes 6, inserts 11.
    let bad_txn = {
        let txn = db.begin();
        for i in 1..=5u64 {
            db.update(&txn, "t", &[Value::U64(i), Value::str("bad")])
                .unwrap();
        }
        db.delete(&txn, "t", &[Value::U64(6)]).unwrap();
        db.insert(&txn, "t", &[Value::U64(11), Value::str("bad-new")])
            .unwrap();
        let id = txn.id();
        db.commit(txn).unwrap();
        id
    };
    db.clock().advance_secs(10);

    // A later, legitimate transaction overwrites key 2 and adds key 12.
    let later_txn = {
        let txn = db.begin();
        db.update(&txn, "t", &[Value::U64(2), Value::str("later")])
            .unwrap();
        db.insert(&txn, "t", &[Value::U64(12), Value::str("later-new")])
            .unwrap();
        let id = txn.id();
        db.commit(txn).unwrap();
        id
    };
    db.clock().advance_secs(10);

    // Skip policy: everything but the conflicted key reverts.
    let report = flashback(
        &db,
        &RepairTarget::Txns(BTreeSet::from([bad_txn])),
        &RepairConfig {
            policy: ConflictPolicy::Skip,
        },
    )
    .unwrap();
    // 4 restore-updates (1,3,4,5) + 1 reinsert (6) + 1 delete (11).
    assert_eq!(report.applied, 6);
    assert_eq!(report.skipped_conflicts.len(), 1, "key 2 is conflicted");
    let skipped = &report.skipped_conflicts[0];
    assert_eq!(skipped.entry.key, vec![Value::U64(2)]);
    assert_eq!(skipped.later.unwrap().txn, later_txn);

    for i in [1u64, 3, 4, 5] {
        assert_eq!(get_t(&db, i).unwrap()[1], Value::str(&format!("v{i}")));
    }
    assert_eq!(
        get_t(&db, 2).unwrap()[1],
        Value::str("later"),
        "conflict kept"
    );
    assert_eq!(get_t(&db, 6).unwrap()[1], Value::str("v6"), "delete undone");
    assert!(get_t(&db, 11).is_none(), "bad insert removed");
    assert_eq!(
        get_t(&db, 12).unwrap()[1],
        Value::str("later-new"),
        "later insert kept"
    );

    // Overwrite policy on the same target: only the conflicted key is left
    // to restore, and it is restored.
    db.clock().advance_secs(10);
    let report = flashback(
        &db,
        &RepairTarget::Txns(BTreeSet::from([bad_txn])),
        &RepairConfig {
            policy: ConflictPolicy::Overwrite,
        },
    )
    .unwrap();
    assert_eq!(report.applied, 1);
    assert_eq!(report.overwritten_conflicts, 1);
    assert_eq!(get_t(&db, 2).unwrap()[1], Value::str("v2"));

    // Idempotency: a third run finds nothing to do.
    db.clock().advance_secs(10);
    let report = flashback(
        &db,
        &RepairTarget::Txns(BTreeSet::from([bad_txn])),
        &RepairConfig::default(),
    )
    .unwrap();
    assert_eq!(report.applied, 0);
    assert!(report.skipped_conflicts.is_empty());
    assert!(report.repair_txn.is_none());
}

#[test]
fn report_only_plans_without_touching_anything() {
    let db = mk_db();
    small_table(&db);
    db.clock().advance_secs(5);
    let bad_txn = {
        let txn = db.begin();
        db.update(&txn, "t", &[Value::U64(1), Value::str("bad")])
            .unwrap();
        let id = txn.id();
        db.commit(txn).unwrap();
        id
    };
    db.clock().advance_secs(5);

    let report =
        rewind::repair::plan_flashback(&db, &RepairTarget::Txns(BTreeSet::from([bad_txn])))
            .unwrap();
    assert_eq!(report.applied, 0);
    assert_eq!(report.plan.actionable(), 1);
    assert!(report.repair_txn.is_none());
    assert_eq!(
        get_t(&db, 1).unwrap()[1],
        Value::str("bad"),
        "dry run changed nothing"
    );
}

#[test]
fn time_window_targets_every_commit_in_the_window() {
    let db = mk_db();
    small_table(&db);
    db.clock().advance_secs(100);

    let from = db.clock().now();
    db.clock().advance_secs(1);
    db.with_txn(|txn| db.update(txn, "t", &[Value::U64(1), Value::str("bad1")]))
        .unwrap();
    db.clock().advance_secs(1);
    db.with_txn(|txn| db.update(txn, "t", &[Value::U64(2), Value::str("bad2")]))
        .unwrap();
    db.clock().advance_secs(1);
    let to = db.clock().now();

    db.clock().advance_secs(50);
    db.with_txn(|txn| db.update(txn, "t", &[Value::U64(3), Value::str("after")]))
        .unwrap();

    let report = flashback(
        &db,
        &RepairTarget::TimeWindow { from, to },
        &RepairConfig::default(),
    )
    .unwrap();
    assert_eq!(report.targets.len(), 2, "both window commits are targets");
    assert_eq!(report.applied, 2);
    assert_eq!(get_t(&db, 1).unwrap()[1], Value::str("v1"));
    assert_eq!(get_t(&db, 2).unwrap()[1], Value::str("v2"));
    assert_eq!(
        get_t(&db, 3).unwrap()[1],
        Value::str("after"),
        "outside the window"
    );
}

#[test]
fn flashback_rejects_unknown_and_inflight_targets() {
    let db = mk_db();
    small_table(&db);
    let err = flashback(
        &db,
        &RepairTarget::Txns(BTreeSet::from([rewind::TxnId(99_999)])),
        &RepairConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, rewind::Error::InvalidArg(_)), "got {err:?}");

    // An in-flight transaction cannot be flashed back.
    let txn = db.begin();
    db.update(&txn, "t", &[Value::U64(1), Value::str("wip")])
        .unwrap();
    let id = txn.id();
    let err = flashback(
        &db,
        &RepairTarget::Txns(BTreeSet::from([id])),
        &RepairConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, rewind::Error::InvalidArg(_)), "got {err:?}");
    db.rollback(txn).unwrap();
}

#[test]
fn repair_transaction_is_itself_flashbackable() {
    // The compensation is a regular logged transaction — so it can itself
    // be reverted, bringing the damage back. (Nobody said flashback had to
    // be used wisely.)
    let db = mk_db();
    small_table(&db);
    db.clock().advance_secs(5);
    let bad_txn = {
        let txn = db.begin();
        db.update(&txn, "t", &[Value::U64(1), Value::str("bad")])
            .unwrap();
        let id = txn.id();
        db.commit(txn).unwrap();
        id
    };
    db.clock().advance_secs(5);
    let report = flashback(
        &db,
        &RepairTarget::Txns(BTreeSet::from([bad_txn])),
        &RepairConfig::default(),
    )
    .unwrap();
    let repair_txn = report.repair_txn.unwrap();
    assert_eq!(get_t(&db, 1).unwrap()[1], Value::str("v1"));

    db.clock().advance_secs(5);
    let report = flashback(
        &db,
        &RepairTarget::Txns(BTreeSet::from([repair_txn])),
        &RepairConfig::default(),
    )
    .unwrap();
    assert_eq!(report.applied, 1);
    assert_eq!(
        get_t(&db, 1).unwrap()[1],
        Value::str("bad"),
        "the repair was undone"
    );
}

#[test]
fn commits_between_harvest_and_apply_become_conflicts() {
    // The harvest→plan race, simulated deterministically: a transaction
    // that commits *after* the harvest pass but before apply must still be
    // treated as a later writer (refresh_conflicts closes the window the
    // engine runs through on every flashback).
    use rewind::repair::{harvest_log, refresh_conflicts};
    let db = mk_db();
    small_table(&db);
    db.clock().advance_secs(5);
    let bad_txn = {
        let txn = db.begin();
        db.update(&txn, "t", &[Value::U64(1), Value::str("bad")])
            .unwrap();
        let id = txn.id();
        db.commit(txn).unwrap();
        id
    };
    db.clock().advance_secs(5);

    let mut harvest =
        harvest_log(db.log(), &RepairTarget::Txns(BTreeSet::from([bad_txn]))).unwrap();
    assert!(harvest.conflicts.is_empty());

    // The racing commit lands after the harvest pass finished.
    let racer = {
        let txn = db.begin();
        db.update(&txn, "t", &[Value::U64(1), Value::str("racer")])
            .unwrap();
        let id = txn.id();
        db.commit(txn).unwrap();
        id
    };

    refresh_conflicts(db.log(), &mut harvest).unwrap();
    let conflict = harvest
        .conflicts
        .values()
        .next()
        .expect("the racing commit is now a conflict");
    assert_eq!(conflict.txn, racer);

    // And end-to-end: flashback under Skip preserves the racer's write.
    db.clock().advance_secs(5);
    let report = flashback(
        &db,
        &RepairTarget::Txns(BTreeSet::from([bad_txn])),
        &RepairConfig::default(),
    )
    .unwrap();
    assert_eq!(report.applied, 0);
    assert_eq!(report.skipped_conflicts.len(), 1);
    assert_eq!(get_t(&db, 1).unwrap()[1], Value::str("racer"));
}

#[test]
fn diff_table_is_empty_without_changes() {
    let db = mk_db();
    small_table(&db);
    db.clock().advance_secs(60);
    db.checkpoint().unwrap();
    let before = db.clock().now();
    db.clock().advance_secs(60);
    let snap = db.create_snapshot_asof("quiet", before).unwrap();
    assert!(diff_table(&db, &snap, "t").unwrap().is_empty());
    db.drop_snapshot("quiet").unwrap();
}

/// A table of padded rows, for log volume that touches no repaired key.
fn fill_table(db: &Database) {
    db.with_txn(|txn| {
        db.create_table(
            txn,
            "fill",
            Schema::new(
                vec![
                    Column::new("id", DataType::U64),
                    Column::new("pad", DataType::Str),
                ],
                &["id"],
            )?,
        )
    })
    .unwrap();
}

/// Commit padded rows into `fill`, one per transaction, until the log has
/// grown by `bytes`.
fn fill(db: &Database, bytes: u64) {
    let pad = "p".repeat(2_000);
    let from = db.log().tail_lsn().0;
    let mut id = from; // unique across calls: the log only grows
    while db.log().tail_lsn().0 - from < bytes {
        db.with_txn(|txn| db.insert(txn, "fill", &[Value::U64(id), Value::str(&pad)]))
            .unwrap();
        id += 1;
    }
}

#[test]
fn a_writer_that_began_below_the_scan_start_is_still_a_conflict() {
    // Y writes key 1; more than a log segment (1 MiB) of other commits
    // follows; X begins and writes key 2; Y commits; X writes key 1 and
    // commits. X's harvest starts at X's segment, above Y's write. Y
    // committed after the split, so the witness rolls Y back: only the
    // backward walk that completes Y's chain reports key 1 as conflicted,
    // and without it Skip would restore key 1 over Y's committed write.
    let db = mk_db();
    small_table(&db);
    fill_table(&db);
    let y = db.begin();
    let y_id = y.id();
    db.update(&y, "t", &[Value::U64(1), Value::str("y")])
        .unwrap();
    let below = db.log().tail_lsn();
    fill(&db, (1 << 20) + (1 << 18));
    let x = db.begin();
    let x_id = x.id();
    db.update(&x, "t", &[Value::U64(2), Value::str("x")])
        .unwrap();
    db.commit(y).unwrap();
    db.update(&x, "t", &[Value::U64(1), Value::str("y+x")])
        .unwrap();
    db.commit(x).unwrap();
    db.clock().advance_secs(5);

    let target = RepairTarget::Txns(BTreeSet::from([x_id]));
    assert!(
        db.log().first_segment_where(|s| s.max_txn >= x_id) > below,
        "the harvest starts above Y's write"
    );
    let harvest = harvest_log(db.log(), &target).unwrap();
    let by: Vec<_> = harvest.conflicts.values().map(|c| c.txn).collect();
    assert_eq!(by, vec![y_id], "key 1 is conflicted by Y");

    let report = flashback(
        &db,
        &target,
        &RepairConfig {
            policy: ConflictPolicy::Skip,
        },
    )
    .unwrap();
    assert_eq!(report.applied, 1, "key 2 reverts");
    assert_eq!(report.skipped_conflicts.len(), 1);
    assert_eq!(report.skipped_conflicts[0].entry.key, vec![Value::U64(1)]);
    assert_eq!(get_t(&db, 2).unwrap()[1], Value::str("v2"));
    assert_eq!(
        get_t(&db, 1).unwrap()[1],
        Value::str("y+x"),
        "Y's committed write survives"
    );
}

#[test]
fn harvest_reads_from_the_targets_segment_not_the_truncation_point() {
    // Count gate: harvesting the newest of many committed transactions
    // reads the log from the segment the target begins in, so the bytes
    // scanned are at most (tail - split) plus one segment, however much
    // older log is retained. No checkpoint daemon: nothing else scans.
    let clock = SimClock::starting_at(Timestamp::from_secs(1_000));
    let config = DbConfig {
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    };
    let db = Database::create_with_clock(config, clock).unwrap();
    small_table(&db);
    fill_table(&db);
    fill(&db, 4 << 20);
    let bad = {
        let txn = db.begin();
        db.update(&txn, "t", &[Value::U64(3), Value::str("bad")])
            .unwrap();
        let id = txn.id();
        db.commit(txn).unwrap();
        id
    };
    fill(&db, 64 << 10);

    let log = db.log();
    let before = log.io_stats().snapshot();
    let harvest = harvest_log(log, &RepairTarget::Txns(BTreeSet::from([bad]))).unwrap();
    let scanned = log.io_stats().snapshot().delta(before).log_bytes_scanned;
    let bound = (log.tail_lsn().0 - harvest.split_lsn.0) + (1 << 20);
    assert!(
        scanned <= bound,
        "harvest scanned {scanned} B; bound {bound} B"
    );
    assert!(
        log.retained_bytes() > bound,
        "a whole-log scan ({} B) would break the bound",
        log.retained_bytes()
    );
}
