//! Property tests for the flashback engine: a quiet database diffs empty
//! against its own past, and repair is idempotent — flashing the same
//! target back twice never finds more work the second time, under
//! arbitrary interleavings of target and bystander writes.

use proptest::prelude::*;
use rewind_core::{Column, DataType, Database, DbConfig, Schema, SimClock, Timestamp, Value};
use rewind_repair::{diff_table, flashback, ConflictPolicy, RepairConfig, RepairTarget};
use std::collections::BTreeSet;

fn db_with_table(rows: &[(u64, u64)]) -> Database {
    let clock = SimClock::starting_at(Timestamp::from_secs(1_000));
    let db = Database::create_with_clock(DbConfig::default(), clock).unwrap();
    // Duplicate keys in the generated vector: the last value wins, as a
    // sequence of upserts would have it.
    let dedup: std::collections::BTreeMap<u64, u64> = rows.iter().copied().collect();
    db.with_txn(|txn| {
        db.create_table(
            txn,
            "t",
            Schema::new(
                vec![
                    Column::new("id", DataType::U64),
                    Column::new("v", DataType::U64),
                ],
                &["id"],
            )?,
        )?;
        for (&k, &v) in &dedup {
            db.insert(txn, "t", &[Value::U64(k), Value::U64(v)])?;
        }
        Ok(())
    })
    .unwrap();
    db
}

fn table_rows(db: &Database) -> Vec<Vec<Value>> {
    let txn = db.begin();
    let rows = db.scan_all(&txn, "t").unwrap();
    db.commit(txn).unwrap();
    rows
}

fn has_key(db: &Database, k: u64) -> bool {
    let txn = db.begin();
    let r = db.get(&txn, "t", &[Value::U64(k)]).unwrap();
    db.commit(txn).unwrap();
    r.is_some()
}

/// Apply a batch of (key, value) intents in one transaction, choosing
/// insert/update/delete by row presence so the sequence always applies.
/// `value == 0` means delete (when present). Returns the txn id, or `None`
/// when every intent was a no-op — an unlogged transaction leaves no
/// commit record and is (correctly) not a flashback target.
fn apply_batch(db: &Database, ops: &[(u64, u64)]) -> Option<rewind_common::TxnId> {
    let txn = db.begin();
    for &(k, v) in ops {
        let present = db
            .get_for_update(&txn, "t", &[Value::U64(k)])
            .unwrap()
            .is_some();
        match (present, v) {
            (true, 0) => db.delete(&txn, "t", &[Value::U64(k)]).unwrap(),
            (true, v) => db
                .update(&txn, "t", &[Value::U64(k), Value::U64(v)])
                .unwrap(),
            (false, 0) => {}
            (false, v) => db
                .insert(&txn, "t", &[Value::U64(k), Value::U64(v)])
                .unwrap(),
        }
    }
    let id = txn.id();
    let logged = txn.last_lsn().is_valid();
    db.commit(txn).unwrap();
    logged.then_some(id)
}

fn key_strategy() -> impl Strategy<Value = u64> {
    1u64..12
}

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((key_strategy(), 0u64..5), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn diff_against_unchanged_past_is_empty(rows in ops_strategy(10)) {
        let rows: Vec<(u64, u64)> =
            rows.into_iter().filter(|&(_, v)| v != 0).collect();
        let db = db_with_table(&rows);
        db.clock().advance_secs(60);
        db.checkpoint().unwrap();
        let before = db.clock().now();
        db.clock().advance_secs(60);
        let snap = db.create_snapshot_asof("p", before).unwrap();
        prop_assert!(diff_table(&db, &snap, "t").unwrap().is_empty());
        db.drop_snapshot("p").unwrap();
    }

    #[test]
    fn repair_then_repair_is_idempotent(
        initial in ops_strategy(8),
        bad in ops_strategy(8),
        later in ops_strategy(6),
    ) {
        let initial: Vec<(u64, u64)> =
            initial.into_iter().filter(|&(_, v)| v != 0).collect();
        let db = db_with_table(&initial);
        db.clock().advance_secs(10);

        let Some(bad_txn) = apply_batch(&db, &bad) else { return Ok(()); };
        db.clock().advance_secs(10);
        let _later_txn = apply_batch(&db, &later);
        db.clock().advance_secs(10);

        let target = RepairTarget::Txns(BTreeSet::from([bad_txn]));
        let cfg = RepairConfig { policy: ConflictPolicy::Skip };
        let first = flashback(&db, &target, &cfg).unwrap();
        let after_first = table_rows(&db);

        db.clock().advance_secs(10);
        let second = flashback(&db, &target, &cfg).unwrap();
        let after_second = table_rows(&db);

        // Idempotent: the second run changes nothing and applies nothing.
        prop_assert_eq!(second.applied, 0, "first={:?}", first.applied);
        prop_assert_eq!(after_first, after_second);
        // Both runs agree on which keys stay conflicted.
        prop_assert_eq!(
            first.skipped_conflicts.len(),
            second.skipped_conflicts.len()
        );
    }

    #[test]
    fn flashback_restores_untouched_keys_exactly(
        initial in ops_strategy(8),
        bad in ops_strategy(8),
    ) {
        // With no later writers at all, flashback must restore the table to
        // exactly its pre-batch content.
        let initial: Vec<(u64, u64)> =
            initial.into_iter().filter(|&(_, v)| v != 0).collect();
        let db = db_with_table(&initial);
        db.clock().advance_secs(10);
        let pre = table_rows(&db);

        let Some(bad_txn) = apply_batch(&db, &bad) else { return Ok(()); };
        db.clock().advance_secs(10);

        let report = flashback(
            &db,
            &RepairTarget::Txns(BTreeSet::from([bad_txn])),
            &RepairConfig::default(),
        ).unwrap();
        prop_assert!(report.skipped_conflicts.is_empty());
        prop_assert_eq!(pre, table_rows(&db));
        // Sanity on the helper: keys the batch never touched are untouched.
        for k in 1u64..12 {
            if !bad.iter().any(|&(bk, _)| bk == k) {
                let expect = initial.iter().rev().find(|&&(ik, _)| ik == k);
                prop_assert_eq!(has_key(&db, k), expect.is_some());
            }
        }
    }
}
