//! Golden log: the byte-identity gate for the log format.
//!
//! A fixed, single-threaded script on a simulated clock writes a log; the
//! test pins an FNV-1a 64 hash of every retained log byte (each frame's
//! length prefix, CRC and body, from the truncation point to the tail), the
//! number of those bytes, and the number of records of each payload kind.
//! A change to the record encoder, the frame format, or the sequence of
//! records the engine logs for the same work moves one of the constants.
//!
//! The script reaches all eighteen payload kinds through the public API,
//! among them:
//! - `Reformat` (`truncate_table`) and `RestoreImage` (rolling that truncate
//!   back);
//! - `Preformat` (a dropped table's pages reallocated to a new one);
//! - `BootWrite` (`set_undo_interval`);
//! - `FullPageImage` (`fpi_interval > 0`);
//! - `SetNextPage` / `SetPrevPage` (leaf splits), each split closed by an
//!   `SmoEnd`;
//! - `CheckpointBegin` / `CheckpointEnd` (one manual checkpoint, taken with
//!   one transaction active so the ATT is not empty).
//!
//! No kind is out of the API's reach, so every count below is nonzero;
//! `crates/wal/src/record.rs`'s every-kind round-trip covers the encoder
//! field by field besides.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rewind::common::crc32c;
use rewind::wal::PayloadKind;
use rewind::{Column, DataType, Database, DbConfig, Schema, SimClock, Value};
use std::collections::BTreeMap;
use std::time::Duration;

/// FNV-1a 64 of every retained log byte.
const GOLDEN_FNV: u64 = 18_225_305_645_905_926_254;
/// Number of retained log bytes.
const GOLDEN_BYTES: u64 = 2_472_449;
/// Records per payload kind, in tag order (`PayloadKind as u8` 1..=18).
const GOLDEN_COUNTS: [(PayloadKind, u64); 18] = [
    (PayloadKind::Commit, 17),
    (PayloadKind::Abort, 2),
    (PayloadKind::End, 2),
    (PayloadKind::Format, 29),
    (PayloadKind::Preformat, 7),
    (PayloadKind::Reformat, 5),
    (PayloadKind::InsertRecord, 1358),
    (PayloadKind::DeleteRecord, 452),
    (PayloadKind::UpdateRecord, 110),
    (PayloadKind::SetNextPage, 17),
    (PayloadKind::SetPrevPage, 2),
    (PayloadKind::AllocSet, 62),
    (PayloadKind::BootWrite, 13),
    (PayloadKind::FullPageImage, 239),
    (PayloadKind::CheckpointBegin, 2),
    (PayloadKind::CheckpointEnd, 2),
    (PayloadKind::RestoreImage, 1),
    (PayloadKind::SmoEnd, 17),
];

struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

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

fn row(id: u64, rng: &mut SmallRng) -> Vec<Value> {
    let len = rng.gen_range(40..160);
    let v: String = (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect();
    vec![Value::U64(id), Value::Str(v)]
}

/// The fixed script. Every step advances the simulated clock by a fixed
/// amount, so commit and checkpoint stamps are part of the golden bytes.
fn run_script() -> Database {
    let mut rng = SmallRng::seed_from_u64(0x601D);
    let db = Database::create_with_clock(
        DbConfig {
            fpi_interval: 8,
            checkpoint_interval_bytes: 0,
            ..DbConfig::default()
        },
        SimClock::new(),
    )
    .unwrap();
    let tick = || {
        db.clock().advance_micros(1_000);
    };
    db.set_undo_interval(Duration::from_secs(3_600)).unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        db.create_table(txn, "doomed", schema())?;
        db.create_heap_table(txn, "h", schema())?;
        Ok(())
    })
    .unwrap();
    tick();

    // Inserts big enough to split leaves several times.
    for batch in 0..8u64 {
        db.with_txn(|txn| {
            for i in 0..40 {
                let id = batch * 40 + i;
                db.insert(txn, "t", &row(id, &mut rng))?;
                if i % 4 == 0 {
                    db.insert(txn, "h", &row(id, &mut rng))?;
                    db.insert(txn, "doomed", &row(id, &mut rng))?;
                }
            }
            Ok(())
        })
        .unwrap();
        tick();
    }

    // A multi-row heap insert, then updates and deletes.
    db.with_txn(|txn| {
        let rows: Vec<Vec<Value>> = (1_000..1_060).map(|id| row(id, &mut rng)).collect();
        db.insert_rows(txn, "h", &rows)
    })
    .unwrap();
    tick();
    db.with_txn(|txn| {
        for id in (0..320u64).step_by(3) {
            db.update(txn, "t", &row(id, &mut rng))?;
        }
        for id in (1..320u64).step_by(7) {
            db.delete(txn, "t", &[Value::U64(id)])?;
        }
        Ok(())
    })
    .unwrap();
    tick();

    // A rolled-back transaction: CLRs for tree inserts, updates and
    // deletes and for a heap insert.
    let loser = db.begin();
    for id in 400..430u64 {
        db.insert(&loser, "t", &row(id, &mut rng)).unwrap();
    }
    db.update(&loser, "t", &row(0, &mut rng)).unwrap();
    db.delete(&loser, "t", &[Value::U64(3)]).unwrap();
    db.insert(&loser, "h", &row(999, &mut rng)).unwrap();
    db.rollback(loser).unwrap();
    tick();

    // One checkpoint with one transaction in flight.
    let open = db.begin();
    db.insert(&open, "t", &row(500, &mut rng)).unwrap();
    db.checkpoint().unwrap();
    db.commit(open).unwrap();
    tick();

    // Truncate rolled back (Reformat, then its RestoreImage CLR), then
    // committed.
    let undone = db.begin();
    db.truncate_table(&undone, "t").unwrap();
    db.rollback(undone).unwrap();
    tick();
    db.with_txn(|txn| db.truncate_table(txn, "t")).unwrap();
    tick();

    // Free pages, then reallocate them to a new table (Preformat).
    db.with_txn(|txn| db.drop_table(txn, "doomed")).unwrap();
    tick();
    db.with_txn(|txn| {
        db.create_table(txn, "reborn", schema())?;
        for id in 0..200u64 {
            db.insert(txn, "reborn", &row(id, &mut rng))?;
        }
        Ok(())
    })
    .unwrap();
    tick();
    db
}

#[test]
fn golden_log_bytes_and_kind_counts() {
    let db = run_script();
    let log = db.log();
    let (from, to) = (log.truncation_point(), log.tail_lsn());
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    let mut counts: BTreeMap<u8, u64> = BTreeMap::new();
    let mut cursor = from;
    log.scan_refs(from, to, |rec| {
        assert_eq!(rec.lsn(), cursor, "frames are contiguous");
        let body = rec.body();
        fnv.eat(&(body.len() as u32).to_le_bytes());
        fnv.eat(&crc32c(body).to_le_bytes());
        fnv.eat(body);
        *counts.entry(rec.header()?.kind as u8).or_default() += 1;
        cursor = rewind::common::Lsn(rec.lsn().0 + rec.frame_len());
        Ok(true)
    })
    .unwrap();
    assert_eq!(cursor, to, "the scan reached the tail");
    assert_eq!(to.bytes_since(from), GOLDEN_BYTES, "retained log bytes");
    let counts: Vec<(PayloadKind, u64)> = GOLDEN_COUNTS
        .iter()
        .map(|&(kind, _)| (kind, counts.get(&(kind as u8)).copied().unwrap_or(0)))
        .collect();
    assert_eq!(
        (fnv.0, counts.as_slice()),
        (GOLDEN_FNV, &GOLDEN_COUNTS[..]),
        "log bytes moved: {} bytes retained",
        to.bytes_since(from)
    );
}
