//! The as-of oracle test: drive a randomized workload with clock advances,
//! capture the exact table state at marked times, and verify afterwards
//! that an as-of snapshot at each mark reproduces that state exactly —
//! through full scans, point reads and secondary-index reads.
//!
//! This is the strongest end-to-end check of the paper's mechanism: every
//! marked instant must be reconstructible from the current state plus the
//! log alone.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rewind::{Column, DataType, Database, DbConfig, Row, Schema, Timestamp, Value};
use std::collections::BTreeMap;

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", DataType::U64),
            Column::new("grp", DataType::U64),
            Column::new("payload", DataType::Str),
        ],
        &["id"],
    )
    .unwrap()
}

fn run_oracle(fpi_interval: u32, seed: u64) {
    let db = Database::create(DbConfig {
        fpi_interval,
        buffer_pages: 512,
        checkpoint_interval_bytes: 1 << 20,
        ..DbConfig::default()
    })
    .unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        db.create_index(txn, "t", "by_grp", &["grp"])?;
        Ok(())
    })
    .unwrap();

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model: BTreeMap<u64, Row> = BTreeMap::new();
    let mut marks: Vec<(Timestamp, BTreeMap<u64, Row>)> = Vec::new();
    // the pre-DDL instant, for the genesis probe below
    db.clock().advance_secs(1);
    let genesis_time = db.clock().now();
    db.clock().advance_secs(1);
    db.with_txn(|txn| {
        db.insert(
            txn,
            "t",
            &[Value::U64(9999), Value::U64(0), Value::str("g")],
        )
    })
    .unwrap();
    db.with_txn(|txn| db.delete(txn, "t", &[Value::U64(9999)]))
        .unwrap();

    for round in 0..8 {
        // one "era": a burst of random committed transactions
        for _ in 0..20 {
            let ops = rng.gen_range(1..8);
            db.with_txn(|txn| {
                for _ in 0..ops {
                    let id = rng.gen_range(0..200u64);
                    let grp = rng.gen_range(0..10u64);
                    let row = vec![
                        Value::U64(id),
                        Value::U64(grp),
                        Value::Str(format!("r{round}-{}", rng.gen_range(0..1_000_000u64))),
                    ];
                    match rng.gen_range(0..10) {
                        0..=4 => {
                            if model.contains_key(&id) {
                                db.update(txn, "t", &row)?;
                            } else {
                                db.insert(txn, "t", &row)?;
                            }
                            model.insert(id, row);
                        }
                        5..=6 => {
                            if model.remove(&id).is_some() {
                                db.delete(txn, "t", &[Value::U64(id)])?;
                            }
                        }
                        _ => {
                            let got = db.get(txn, "t", &[Value::U64(id)])?;
                            assert_eq!(got.as_ref(), model.get(&id), "live read diverged");
                        }
                    }
                }
                Ok(())
            })
            .unwrap();
            db.clock().advance_millis_like(rng.gen_range(100..2000));
        }
        // some uncommitted noise that must never be visible as-of
        let noise = db.begin();
        for _ in 0..5 {
            let id = 500 + rng.gen_range(0..50u64);
            let _ = db.insert(
                &noise,
                "t",
                &[Value::U64(id), Value::U64(0), Value::str("noise")],
            );
        }
        db.rollback(noise).unwrap();

        db.clock().advance_secs(5);
        db.checkpoint().unwrap();
        marks.push((db.clock().now(), model.clone()));
        db.clock().advance_secs(5);
    }

    // Verify every era, newest to oldest (deeper rewinds each time).
    for (i, (t, expect)) in marks.iter().enumerate().rev() {
        let name = format!("era{i}");
        let snap = db.create_snapshot_asof(&name, *t).unwrap();
        let info = snap.table("t").unwrap();

        // full scan equality
        let rows = snap.scan_all(&info).unwrap();
        let got: BTreeMap<u64, Row> = rows
            .into_iter()
            .map(|r| (r[0].as_u64().unwrap(), r))
            .collect();
        assert_eq!(&got, expect, "era {i} (fpi={fpi_interval}) scan mismatch");

        // point reads, present and absent
        for id in (0..200u64).step_by(17) {
            let got = snap.get(&info, &[Value::U64(id)]).unwrap();
            assert_eq!(got.as_ref(), expect.get(&id), "era {i} get({id})");
        }

        // secondary index consistency as-of
        for grp in 0..10u64 {
            let via_index = snap
                .scan_index_prefix(&info, "by_grp", &[Value::U64(grp)], 10_000)
                .unwrap();
            let expect_grp: Vec<&Row> = expect
                .values()
                .filter(|r| r[1] == Value::U64(grp))
                .collect();
            assert_eq!(via_index.len(), expect_grp.len(), "era {i} index grp {grp}");
        }

        snap.wait_undo_complete().unwrap();
        db.drop_snapshot(&name).unwrap();
    }

    // Deepest rewind: at `genesis_time` the table existed but was empty —
    // every row ever inserted must unwind away, including the page churn
    // from the insert+delete right after it.
    let genesis = db.create_snapshot_asof("genesis", genesis_time).unwrap();
    let info = genesis.table("t").unwrap();
    assert_eq!(
        genesis.count(&info).unwrap(),
        0,
        "table must be empty at genesis"
    );
    db.drop_snapshot("genesis").unwrap();
}

trait ClockExt {
    fn advance_millis_like(&self, ms: u64);
}

impl ClockExt for rewind::SimClock {
    fn advance_millis_like(&self, ms: u64) {
        self.advance_micros(ms * 1000);
    }
}

#[test]
fn asof_oracle_without_fpi() {
    run_oracle(0, 0xA11CE);
}

#[test]
fn asof_oracle_with_fpi() {
    run_oracle(8, 0xB0B);
}

#[test]
fn asof_oracle_second_seed() {
    run_oracle(0, 77);
}
