//! Property-based tests over the public API: arbitrary operation programs
//! against a model, with an as-of checkpoint in the middle that must be
//! reconstructible afterwards.

use proptest::prelude::*;
use rewind::{Column, DataType, Database, DbConfig, Row, Schema, Timestamp, Value};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Put(u8, u16),
    Delete(u8),
    Get(u8),
    Commit,
    RollbackBurst(Vec<(u8, u16)>),
    Tick(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Put(k, v)),
        any::<u8>().prop_map(Op::Delete),
        any::<u8>().prop_map(Op::Get),
        Just(Op::Commit),
        proptest::collection::vec((any::<u8>(), any::<u16>()), 1..5).prop_map(Op::RollbackBurst),
        (1u16..2000).prop_map(Op::Tick),
    ]
}

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("k", DataType::U64),
            Column::new("v", DataType::U64),
        ],
        &["k"],
    )
    .unwrap()
}

fn row(k: u8, v: u16) -> Row {
    vec![Value::U64(k as u64), Value::U64(v as u64)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Random committed programs match a BTreeMap model, rolled-back bursts
    /// leave no trace, and the state at a marked mid-point is exactly
    /// reproducible through an as-of snapshot.
    #[test]
    fn engine_matches_model_and_history(ops in proptest::collection::vec(op_strategy(), 20..120)) {
        let db = Database::create(DbConfig {
            buffer_pages: 128,
            checkpoint_interval_bytes: 64 << 10,
            ..DbConfig::default()
        }).unwrap();
        db.with_txn(|txn| { db.create_table(txn, "t", schema())?; Ok(()) }).unwrap();
        let mut model: BTreeMap<u8, u16> = BTreeMap::new();

        // first half
        let mid = ops.len() / 2;
        let mut mark: Option<(Timestamp, BTreeMap<u8, u16>)> = None;
        for (i, op) in ops.iter().enumerate() {
            apply(&db, &mut model, op);
            if i == mid {
                db.clock().advance_secs(1);
                db.checkpoint().unwrap();
                mark = Some((db.clock().now(), model.clone()));
                db.clock().advance_secs(1);
            }
        }

        // final state equals the model
        let rows = db.with_txn(|txn| db.scan_all(txn, "t")).unwrap();
        let got: BTreeMap<u8, u16> = rows
            .into_iter()
            .map(|r| (r[0].as_u64().unwrap() as u8, r[1].as_u64().unwrap() as u16))
            .collect();
        prop_assert_eq!(&got, &model);

        // the marked instant is reconstructible
        if let Some((t, expect)) = mark {
            let snap = db.create_snapshot_asof("mid", t).unwrap();
            let info = snap.table("t").unwrap();
            let rows = snap.scan_all(&info).unwrap();
            let got: BTreeMap<u8, u16> = rows
                .into_iter()
                .map(|r| (r[0].as_u64().unwrap() as u8, r[1].as_u64().unwrap() as u16))
                .collect();
            snap.wait_undo_complete().unwrap();
            db.drop_snapshot("mid").unwrap();
            prop_assert_eq!(&got, &expect);
        }
    }
}

fn apply(db: &Database, model: &mut BTreeMap<u8, u16>, op: &Op) {
    match op {
        Op::Put(k, v) => {
            db.with_txn(|txn| {
                if model.contains_key(k) {
                    db.update(txn, "t", &row(*k, *v))?;
                } else {
                    db.insert(txn, "t", &row(*k, *v))?;
                }
                Ok(())
            })
            .unwrap();
            model.insert(*k, *v);
        }
        Op::Delete(k) => {
            if model.remove(k).is_some() {
                db.with_txn(|txn| db.delete(txn, "t", &[Value::U64(*k as u64)]))
                    .unwrap();
            }
        }
        Op::Get(k) => {
            let got = db
                .with_txn(|txn| db.get(txn, "t", &[Value::U64(*k as u64)]))
                .unwrap();
            assert_eq!(
                got.map(|r| r[1].as_u64().unwrap() as u16),
                model.get(k).copied()
            );
        }
        Op::Commit => {
            db.clock().advance_micros(1000);
        }
        Op::RollbackBurst(puts) => {
            let txn = db.begin();
            for (k, v) in puts {
                // upsert-ish: try insert, else update
                if db.insert(&txn, "t", &row(*k, *v)).is_err() {
                    db.update(&txn, "t", &row(*k, *v)).unwrap();
                }
            }
            db.rollback(txn).unwrap();
        }
        Op::Tick(ms) => {
            db.clock().advance_micros(*ms as u64 * 1000);
        }
    }
}
