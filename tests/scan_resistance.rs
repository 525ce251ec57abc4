//! Scan resistance for bulk as-of preparation (ROADMAP item (h)).
//!
//! §5.3 step (b) streams cold snapshot reads through the shared buffer
//! pool. Before this PR, a bulk as-of preparation over a table larger than
//! the pool marched the clock hand over every frame and evicted the live
//! working set. Bulk preparation now runs inside a pin-limited
//! `ScanPartition`: the deterministic test below proves the damage bound
//! (live misses after a scan 3x the pool ≤ the partition budget plus
//! discovery overhead), and the torture test races live readers, two bulk
//! as-of scans and `drop_cache` to show the partitioned path keeps the
//! PR 4 invariants: split-consistent scans, no lost pins, exact values.

use rewind::{Column, DataType, Database, DbConfig, PageId, Schema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Insert `rows` rows with ~64-byte payloads (≈ 80 rows per leaf).
fn fill(db: &Database, table: &str, rows: u64, tag: &str) {
    let pad = "x".repeat(64);
    for chunk in (0..rows).collect::<Vec<_>>().chunks(500) {
        db.with_txn(|txn| {
            for &i in chunk {
                db.insert(
                    txn,
                    table,
                    &[Value::U64(i), Value::Str(format!("{tag}{i}-{pad}"))],
                )?;
            }
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn bulk_asof_scan_larger_than_pool_spares_live_working_set() {
    const POOL: usize = 128;
    const BUDGET: usize = 8;
    let db = Database::create(DbConfig {
        buffer_pages: POOL,
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    })
    .unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "hot", schema())?;
        db.create_table(txn, "big", schema())?;
        Ok(())
    })
    .unwrap();
    fill(&db, "hot", 3_000, "h"); // ~40 leaves: the live working set
    fill(&db, "big", 16_000, "b"); // ~200 leaves: larger than the pool
    db.clock().advance_secs(5);
    db.checkpoint().unwrap();
    let t0 = db.clock().now();
    db.clock().advance_secs(5);

    let read_hot = || {
        db.with_txn(|txn| {
            for i in (0..3_000u64).step_by(3) {
                let row = db.get(txn, "hot", &[Value::U64(i)])?.expect("hot row");
                assert_eq!(row[0], Value::U64(i));
            }
            Ok(())
        })
        .unwrap()
    };

    // Make the hot working set resident, then verify it really is: a
    // second pass over it misses (almost) nothing.
    read_hot();
    let s0 = db.pool_stats();
    read_hot();
    let warm_misses = db.pool_stats().delta(s0).misses;
    assert!(
        warm_misses <= 2,
        "working set not resident before the scan: {warm_misses} misses"
    );

    // Bulk as-of preparation of the whole big table — more pages than the
    // pool holds — through a BUDGET-frame scan partition.
    let snap = db
        .create_snapshot_asof("scanres", t0)
        .unwrap()
        .with_scan_budget(BUDGET);
    snap.wait_undo_complete().unwrap();
    let big = snap.table("big").unwrap();
    let s1 = db.pool_stats();
    let prepared = snap.prefetch_table(&big).unwrap();
    assert!(
        prepared > POOL as u64,
        "scan must exceed the pool to prove anything: {prepared} pages"
    );
    let scan_io = db.pool_stats().delta(s1);
    assert!(
        scan_io.misses + scan_io.hits >= prepared,
        "every prepared page takes §5.3 step (b) through the pool"
    );

    // The live working set must still be (almost entirely) resident: the
    // scan may have claimed its budget from the pool, plus the handful of
    // frames the serial leaf-discovery walk (internal pages, snapshot
    // catalog) touched outside the partition.
    let s2 = db.pool_stats();
    read_hot();
    let after = db.pool_stats().delta(s2);
    let slack = 16; // discovery reads: big's internals + snapshot catalog
    assert!(
        (after.misses as usize) <= BUDGET + slack,
        "bulk as-of scan trashed the live working set: {} misses (budget {BUDGET} + slack {slack})",
        after.misses
    );

    // And the scan was not crippled by the bound: every big row is served,
    // warm, from the side file.
    let rows = snap.scan_all(&big).unwrap();
    assert_eq!(rows.len(), 16_000);
    db.drop_snapshot("scanres").unwrap();

    // Device-op arithmetic of the same budgeted stream: a cold serial
    // preparation of a contiguous page range costs one miss and one page
    // read per page, issued 16 pages to the vectored device op.
    let snap = db.create_snapshot_asof("cold", t0).unwrap();
    snap.wait_undo_complete().unwrap();
    let pages = db.parts().pool.file_manager().page_count();
    let pids: Vec<PageId> = (1..pages).map(PageId).collect();
    assert!(pids.len() > POOL);
    db.parts().pool.drop_cache();
    let (io0, s0) = (db.data_io(), db.pool_stats());
    let part = snap.raw().scan_partition(0);
    let prepared = snap.raw().prepare_pages(&pids, &part).unwrap();
    let (io, pool) = (db.data_io().delta(io0), db.pool_stats().delta(s0));
    let n = pids.len() as u64;
    assert_eq!((prepared, pool.misses, io.page_reads), (n, n, n));
    assert_eq!(io.vectored_read_ops, n.div_ceil(16));
    db.drop_snapshot("cold").unwrap();
}

/// A *serial* cold multi-row read must run in a scan partition at every
/// `DbConfig::asof_scan_budget` — a configured one, and 0, the default,
/// which is an eighth of the pool. (Regressions: the partition originally
/// engaged only when leaf preparation ran on several threads, so the serial
/// scan path silently bypassed a configured budget; and until every
/// multi-row read partitioned, budget 0 meant no partition at all, so a
/// default engine's serial scans evicted the hot set.)
#[test]
fn serial_scan_with_configured_budget_engages_partition() {
    const POOL: usize = 128;
    // (DbConfig::asof_scan_budget, the partition it sizes)
    for (configured, budget) in [(8, 8), (0, POOL / 8)] {
        serial_scans_stay_within(POOL, configured, budget);
    }
}

fn serial_scans_stay_within(pool: usize, configured: usize, budget: usize) {
    let db = Database::create(DbConfig {
        buffer_pages: pool,
        asof_scan_budget: configured,
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    })
    .unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "hot", schema())?;
        db.create_table(txn, "big", schema())?;
        db.create_heap_table(txn, "bigheap", schema())?;
        Ok(())
    })
    .unwrap();
    fill(&db, "hot", 3_000, "h");
    fill(&db, "big", 16_000, "b");
    fill(&db, "bigheap", 16_000, "p");
    db.clock().advance_secs(5);
    db.checkpoint().unwrap();
    let t0 = db.clock().now();
    db.clock().advance_secs(5);

    let read_hot = || {
        db.with_txn(|txn| {
            for i in (0..3_000u64).step_by(3) {
                db.get(txn, "hot", &[Value::U64(i)])?.expect("hot row");
            }
            Ok(())
        })
        .unwrap()
    };
    read_hot();
    read_hot();
    let slack = 16; // discovery reads: big's internals + snapshot catalog

    // A *bounded* range scan covering most of the (cold) table first: it
    // takes no prefetch, and the partition must bound it all the same.
    let snap = db.create_snapshot_asof("serial", t0).unwrap();
    snap.wait_undo_complete().unwrap();
    let big = snap.table("big").unwrap();
    let rows = snap
        .scan_between(&big, &[Value::U64(100)], &[Value::U64(15_000)])
        .unwrap();
    assert_eq!(rows.len(), 14_901);
    assert!(snap.side_pages() > pool, "range scan exceeded the pool");
    let s = db.pool_stats();
    read_hot();
    let after = db.pool_stats().delta(s);
    assert!(
        (after.misses as usize) <= budget + slack,
        "bounded range scan at asof_scan_budget {configured} trashed the live working set: {} misses",
        after.misses
    );

    // Plain scan_all — no explicit prefetch, default (serial) workers.
    let rows = snap.scan_all(&big).unwrap();
    assert_eq!(rows.len(), 16_000);
    let s = db.pool_stats();
    read_hot();
    let after = db.pool_stats().delta(s);
    assert!(
        (after.misses as usize) <= budget + slack,
        "serial scan at asof_scan_budget {configured} trashed the live working set: {} misses",
        after.misses
    );

    // Heap tables have no leaves to prefetch — the partition must bound
    // their cold chain walk the same way (regression: only Tree tables
    // were partitioned at first).
    read_hot();
    let heap = snap.table("bigheap").unwrap();
    let rows = snap.scan_all(&heap).unwrap();
    assert_eq!(rows.len(), 16_000);
    let s = db.pool_stats();
    read_hot();
    let after = db.pool_stats().delta(s);
    assert!(
        (after.misses as usize) <= budget + slack,
        "serial heap scan at asof_scan_budget {configured} trashed the live working set: {} misses",
        after.misses
    );
    db.drop_snapshot("serial").unwrap();
}

/// Live readers vs. two bulk as-of preparations vs. `drop_cache`: the
/// partitioned read path must honour every pool invariant under fire —
/// no lost pins, no torn values, and the as-of result split-consistent
/// (pre-update epoch exactly, no matter how the crash simulation races
/// the §5.3 step (b) reads).
#[test]
fn partitioned_prepare_races_drop_cache_split_consistently() {
    const POOL: usize = 96;
    let db = Arc::new(
        Database::create(DbConfig {
            buffer_pages: POOL,
            checkpoint_interval_bytes: 0,
            ..DbConfig::default()
        })
        .unwrap(),
    );
    db.with_txn(|txn| {
        db.create_table(txn, "hot", schema())?;
        db.create_table(txn, "big", schema())?;
        Ok(())
    })
    .unwrap();
    fill(&db, "hot", 1_500, "h");
    fill(&db, "big", 10_000, "e0-");
    db.clock().advance_secs(5);
    db.checkpoint().unwrap();
    let t0 = db.clock().now();
    db.clock().advance_secs(5);
    // Epoch 1: rewrite a slice of big *after* the split; as-of readers must
    // never see these.
    db.with_txn(|txn| {
        let pad = "x".repeat(64);
        for i in (0..10_000u64).step_by(7) {
            db.update(
                txn,
                "big",
                &[Value::U64(i), Value::Str(format!("e1-{i}-{pad}"))],
            )?;
        }
        Ok(())
    })
    .unwrap();
    // Everything durable: drop_cache below only discards clean state, so
    // live readers keep seeing exact values throughout.
    db.checkpoint().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Live readers hammering the hot working set, verifying values.
        for t in 0..2 {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut i = 17 * t;
                while !stop.load(Ordering::Relaxed) {
                    i = (i + 13) % 1_500;
                    db.with_txn(|txn| {
                        let row = db.get(txn, "hot", &[Value::U64(i)])?.expect("hot row");
                        match &row[1] {
                            Value::Str(v) => assert!(
                                v.starts_with(&format!("h{i}-")),
                                "torn live value for {i}: {v}"
                            ),
                            other => panic!("bad value {other:?}"),
                        }
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
        // Crash simulation racing everything.
        {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    db.parts().pool.drop_cache();
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        }
        // Two successive bulk as-of preparations (fresh snapshot each, so
        // both really stream cold pages through their partitions).
        for round in 0..2 {
            let name = format!("torture{round}");
            let snap = db
                .create_snapshot_asof(&name, t0)
                .unwrap()
                .with_scan_budget(6);
            snap.wait_undo_complete().unwrap();
            let big = snap.table("big").unwrap();
            let prepared = snap.prefetch_table(&big).unwrap();
            assert!(prepared > POOL as u64, "round {round}: {prepared} pages");
            // Split consistency: every row is epoch 0, byte-exact.
            let rows = snap.scan_all(&big).unwrap();
            assert_eq!(rows.len(), 10_000);
            for row in &rows {
                let id = match row[0] {
                    Value::U64(id) => id,
                    ref other => panic!("bad key {other:?}"),
                };
                match &row[1] {
                    Value::Str(v) => assert!(
                        v.starts_with(&format!("e0-{id}-")),
                        "as-of scan saw post-split epoch for {id}: {v}"
                    ),
                    other => panic!("bad value {other:?}"),
                }
            }
            db.drop_snapshot(&name).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(db.parts().pool.pinned_frames(), 0, "no lost pins");
}
