//! Proof that warm snapshot reads are zero-copy.
//!
//! The side file stores immutable `Arc`-shared [`PageImage`]s; a warm §5.3
//! hit is an `Arc` clone served borrowed to the query closure. A counting
//! global allocator verifies the claim the hard way: re-reading prepared
//! pages performs **zero page-sized allocations** — no 8 KiB page is ever
//! cloned on the warm path. (The pre-image side file cloned 8 KiB per hit,
//! under the shard lock.)

use rewind::access::store::Store;
use rewind::common::testalloc::{thread_allocations, thread_large_allocations, CountingAllocator};
use rewind::{Column, DataType, Database, DbConfig, Schema, Value};

// The shared counting allocator: every allocation counted per thread,
// page-sized (>= 8 KiB) ones tracked separately — any 8 KiB page clone
// lands in the large-allocation counter.
#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn counts() -> (u64, u64) {
    (thread_allocations(), thread_large_allocations())
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

#[test]
fn warm_side_file_hits_allocate_no_pages() {
    let db = Database::create(DbConfig::default()).unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        Ok(())
    })
    .unwrap();
    // Enough rows for a multi-page tree, in several transactions so pages
    // carry real history.
    let pad = "x".repeat(64);
    for chunk in 0..8u64 {
        db.with_txn(|txn| {
            for i in 0..250 {
                let id = chunk * 250 + i;
                db.insert(
                    txn,
                    "t",
                    &[Value::U64(id), Value::Str(format!("v{id}-{pad}"))],
                )?;
            }
            Ok(())
        })
        .unwrap();
    }
    db.clock().advance_secs(5);
    db.checkpoint().unwrap();
    let t0 = db.clock().now();
    db.clock().advance_secs(5);
    // Post-split updates so preparation has genuine undo work.
    db.with_txn(|txn| {
        for i in (0..2000u64).step_by(17) {
            db.update(
                txn,
                "t",
                &[Value::U64(i), Value::Str(format!("w{i}-{pad}"))],
            )?;
        }
        Ok(())
    })
    .unwrap();

    let snap = db.create_snapshot_asof("zc", t0).unwrap();
    snap.wait_undo_complete().unwrap();
    // Cold pass: prepare every page of the table (the §5.3 miss path; this
    // side allocates — once per page, into the shared image).
    let table = snap.table("t").unwrap();
    let rows = snap.scan_all(&table).unwrap();
    assert_eq!(rows.len(), 2000);

    let warm: Vec<_> = snap.raw().side_page_ids();
    assert!(warm.len() > 10, "need a real warm set, got {}", warm.len());
    let store = snap.raw().store();
    let hits0 = snap.stats().side_hits;

    // Warm-up pass (thread-locals, lazy statics — one-time costs).
    for &pid in &warm {
        store
            .with_page(pid, |p| {
                assert!(p.page_lsn().is_valid() || p.page_lsn().0 == 0);
                Ok(())
            })
            .unwrap();
    }

    // Measured pass: every access is a warm side-file hit; not one page
    // clone — in fact not one allocation of any size.
    let (alloc0, palloc0) = counts();
    for _ in 0..3 {
        for &pid in &warm {
            store
                .with_page(pid, |p| Ok(std::hint::black_box(p.page_lsn())))
                .unwrap();
        }
    }
    let (alloc1, palloc1) = counts();
    assert_eq!(
        palloc1 - palloc0,
        0,
        "warm side-file hits must not clone pages ({} page-sized allocations over {} hits)",
        palloc1 - palloc0,
        3 * warm.len()
    );
    assert_eq!(
        alloc1 - alloc0,
        0,
        "warm side-file hits must not allocate at all ({} allocations over {} hits)",
        alloc1 - alloc0,
        3 * warm.len()
    );
    let hits1 = snap.stats().side_hits;
    assert!(
        hits1 - hits0 >= 4 * warm.len() as u64,
        "accesses were not warm hits: {} over {} pages",
        hits1 - hits0,
        warm.len()
    );
    db.drop_snapshot("zc").unwrap();
}

#[test]
fn warm_hits_share_one_image_allocation() {
    let db = Database::create(DbConfig::default()).unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        Ok(())
    })
    .unwrap();
    db.with_txn(|txn| {
        for i in 0..500u64 {
            db.insert(txn, "t", &[Value::U64(i), Value::Str(format!("v{i}"))])?;
        }
        Ok(())
    })
    .unwrap();
    db.clock().advance_secs(2);
    db.checkpoint().unwrap();
    let t0 = db.clock().now();
    db.clock().advance_secs(1);

    let snap = db.create_snapshot_asof("share", t0).unwrap();
    snap.wait_undo_complete().unwrap();
    let table = snap.table("t").unwrap();
    let _ = snap.scan_all(&table).unwrap();

    let store = snap.raw().store();
    for pid in snap.raw().side_page_ids() {
        // Two reads of the same warm page return the same allocation, and
        // holding one keeps its epoch even if undo overwrites the entry.
        let a = store.read_page(pid).unwrap();
        let b = store.read_page(pid).unwrap();
        assert!(a.same_as(&b), "hits share one allocation");
    }
    db.drop_snapshot("share").unwrap();
}
