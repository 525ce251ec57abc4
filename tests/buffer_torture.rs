//! Buffer-pool concurrency torture: live readers + an as-of reader mix vs.
//! a page writer vs. an evictor vs. `drop_cache` crash simulation, all on
//! one pool.
//!
//! Invariants checked:
//! * **no torn FrameView access** — a latched frame always holds exactly
//!   the requested page (or the zeroed on-disk image of a never-written
//!   one), never another page and never a half-replaced image;
//! * **no lost pins** — when all accessors have finished, no frame is
//!   pinned;
//! * **recLSN sanity** — while a frame is dirty its recLSN never passes its
//!   pageLSN (also debug-asserted on every exclusive access inside the
//!   pool), and the dirty-page table only ever reports LSNs the writer has
//!   actually issued;
//! * **split-consistent as-of reads** — an as-of scan racing live writes,
//!   eviction churn and crash simulation either completes with exactly the
//!   pre-update image or fails cleanly; it never returns mixed-epoch rows.

use rewind::{Column, DataType, Database, DbConfig, Row, Schema, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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
fn pool_torture_live_asof_writer_evictor_crash() {
    const ROWS: u64 = 300;
    let db = Database::create(DbConfig {
        buffer_pages: 64, // small pool: eviction churn is constant
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    })
    .unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        for i in 0..ROWS {
            db.insert(txn, "t", &[Value::U64(i), Value::str("v0")])?;
        }
        Ok(())
    })
    .unwrap();
    db.clock().advance_secs(5);
    db.checkpoint().unwrap();
    let t0 = db.clock().now();
    db.clock().advance_secs(5);
    // Post-split updates: every as-of read below must unwind these.
    db.with_txn(|txn| {
        for i in 0..ROWS {
            db.update(txn, "t", &[Value::U64(i), Value::str("v1")])?;
        }
        Ok(())
    })
    .unwrap();

    let snap = db.create_snapshot_asof("torture", t0).unwrap();
    snap.wait_undo_complete().unwrap();
    let table = snap.table("t").unwrap();
    let expect: Vec<Row> = (0..ROWS)
        .map(|i| vec![Value::U64(i), Value::str("v0")])
        .collect();

    let pool = db.parts().pool.clone();
    let data_pages = db.parts().pool.file_manager().page_count().max(1);
    let stop = Arc::new(AtomicBool::new(false));
    // Scratch-page LSNs start far above anything the engine issued, so the
    // dirty-page-table check below can tell the two apart.
    let max_lsn_issued = Arc::new(AtomicU64::new(1_000_000));

    std::thread::scope(|s| {
        // Live readers: hammer the table's page range through the pool.
        for t in 0..2u64 {
            let pool = pool.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let pid = rewind_common::PageId(1 + (t * 7 + round) % data_pages);
                    pool.with_page(pid, |p| {
                        assert!(
                            p.page_id() == pid || p.page_id() == rewind_common::PageId(0),
                            "torn frame: asked {pid:?}, latched {:?}",
                            p.page_id()
                        );
                        Ok(())
                    })
                    .unwrap();
                    round += 1;
                }
            });
        }
        // As-of readers: every scan must be the exact pre-update image.
        for _ in 0..2 {
            let snap = snap.clone();
            let table = table.clone();
            let expect = expect.clone();
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let mut rows = snap.scan_all(&table).unwrap();
                    rows.sort_by_key(|r| r[0].as_u64().unwrap());
                    assert_eq!(rows, expect, "as-of scan saw a mixed-epoch image");
                }
            });
        }
        // Writer: dirties a scratch page range (pool-level, no engine
        // structures), with strictly increasing LSNs.
        {
            let pool = pool.clone();
            let stop = stop.clone();
            let max_lsn = max_lsn_issued.clone();
            s.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let pid = rewind_common::PageId(20_000 + n % 48);
                    let lsn = max_lsn.fetch_add(1, Ordering::Relaxed) + 1;
                    pool.with_page_mut(pid, |v| {
                        v.page_mut().set_page_lsn(rewind_common::Lsn(lsn));
                        v.mark_dirty(rewind_common::Lsn(lsn));
                        Ok(())
                    })
                    .unwrap();
                    n += 1;
                }
            });
        }
        // Evictor: flushes and inspects the dirty-page table.
        {
            let pool = pool.clone();
            let stop = stop.clone();
            let max_lsn = max_lsn_issued.clone();
            s.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if n.is_multiple_of(5) {
                        pool.flush_all().unwrap();
                    } else {
                        pool.flush_page(rewind_common::PageId(20_000 + n % 48))
                            .unwrap();
                    }
                    for e in pool.dirty_page_table() {
                        assert!(
                            !e.rec_lsn.is_valid()
                                || e.rec_lsn.0 <= max_lsn.load(Ordering::Relaxed) + 1,
                            "dirty-page table reports an LSN nobody issued"
                        );
                    }
                    n += 1;
                }
            });
        }
        // Crash simulator: volatile state vanishes, repeatedly.
        {
            let pool = pool.clone();
            let stop = stop.clone();
            s.spawn(move || {
                for _ in 0..40 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    pool.drop_cache();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(600));
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(pool.pinned_frames(), 0, "lost pins after the torture");
    // One more full as-of pass on the quiescent pool.
    let mut rows = snap.scan_all(&table).unwrap();
    rows.sort_by_key(|r| r[0].as_u64().unwrap());
    assert_eq!(rows, expect);
    assert_eq!(snap.raw().prepare_gate_entries(), 0, "gate table leaked");
    db.drop_snapshot("torture").unwrap();
}
