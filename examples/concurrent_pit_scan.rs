//! A large point-in-time scan running beside live traffic — without
//! trashing the live cache.
//!
//! The classic failure mode of "just run analytics on a snapshot": the
//! as-of scan is colder than anything else in the system, and §5.3 step (b)
//! reads every one of its pages through the shared buffer pool. A table
//! larger than the pool would evict the entire live working set, and the
//! OLTP side would spend the next minutes faulting it back in.
//!
//! Bulk as-of preparation therefore runs inside a **pin-limited scan
//! partition** (`DbConfig::asof_scan_budget` / ROADMAP item (h)): the scan
//! reuses its own bounded ring of frames, the live working set stays
//! resident, and the prepared pages land in the snapshot's side file as
//! immutable `Arc`-shared images — so re-reading them afterwards copies
//! nothing at all.
//!
//! ```text
//! cargo run --release --example concurrent_pit_scan
//! ```

use rewind::{Column, DataType, Database, DbConfig, Result, Schema, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const POOL_PAGES: usize = 256;
const HOT_ROWS: u64 = 6_000; // ~75 leaves: the OLTP working set
const BIG_ROWS: u64 = 40_000; // ~500 leaves: twice the pool
const SCAN_BUDGET: usize = 16; // frames the analytics scan may occupy

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

fn fill(db: &Database, table: &str, rows: u64, tag: &str) -> Result<()> {
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
        })?;
    }
    Ok(())
}

fn main() -> Result<()> {
    let db = Arc::new(Database::create(DbConfig {
        buffer_pages: POOL_PAGES,
        asof_scan_budget: SCAN_BUDGET,
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    })?);
    db.with_txn(|txn| {
        db.create_table(txn, "accounts", schema())?;
        db.create_table(txn, "events", schema())?;
        Ok(())
    })?;
    println!("loading {HOT_ROWS} hot rows + {BIG_ROWS} history rows…");
    fill(&db, "accounts", HOT_ROWS, "acct")?;
    fill(&db, "events", BIG_ROWS, "ev")?;
    db.clock().advance_secs(60);
    db.checkpoint()?;
    let t0 = db.clock().now();
    db.clock().advance_secs(60);

    // Live traffic: point reads over the accounts working set.
    let hot_pass = |label: &str| -> Result<f64> {
        let s0 = db.pool_stats();
        db.with_txn(|txn| {
            for i in (0..HOT_ROWS).step_by(2) {
                db.get(txn, "accounts", &[Value::U64(i)])?
                    .expect("account row");
            }
            Ok(())
        })?;
        let d = db.pool_stats().delta(s0);
        let rate = d.hits as f64 / (d.hits + d.misses).max(1) as f64;
        println!(
            "  {label:<34} hit rate {:6.2}%  ({} misses)",
            rate * 100.0,
            d.misses
        );
        Ok(rate)
    };

    println!("\nwarming the live working set:");
    hot_pass("initial fill")?;
    let before = hot_pass("steady state")?;

    // The analytics side mounts a snapshot as of t0 and scans ALL of
    // `events` — twice the size of the buffer pool — while the OLTP side
    // keeps reading.
    println!(
        "\nmounting snapshot as of t0; scanning {BIG_ROWS} history rows \
         (≥2x pool), budget {SCAN_BUDGET} frames…"
    );
    let snap = db.create_snapshot_asof("analytics", t0)?;
    snap.wait_undo_complete()?;
    let events = snap.table("events")?;

    let stop = Arc::new(AtomicBool::new(false));
    let live_reads = Arc::new(AtomicU64::new(0));
    let (prepared, scanned) = std::thread::scope(|s| -> Result<(u64, usize)> {
        // concurrent OLTP traffic for the duration of the scan
        let live = {
            let db = db.clone();
            let stop = stop.clone();
            let live_reads = live_reads.clone();
            s.spawn(move || -> Result<()> {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i = (i + 7) % HOT_ROWS;
                    db.with_txn(|txn| {
                        db.get(txn, "accounts", &[Value::U64(i)])?.expect("row");
                        Ok(())
                    })?;
                    live_reads.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            })
        };
        let prepared = snap.prefetch_table(&events)?;
        let rows = snap.scan_all(&events)?;
        stop.store(true, Ordering::Relaxed);
        live.join().expect("live reader panicked")?;
        Ok((prepared, rows.len()))
    })?;
    println!(
        "  scan complete: {prepared} pages prepared, {scanned} rows as of t0, \
         {} live reads ran beside it",
        live_reads.load(Ordering::Relaxed)
    );
    println!(
        "  side file: {} pages ({} KiB of immutable shared images)",
        snap.side_pages(),
        snap.raw().side_page_ids().len() * 8
    );

    println!("\nlive working set after the scan:");
    let after = hot_pass("post-scan")?;

    // Warm analytics re-read: every page is an Arc-shared side-file hit.
    let h0 = snap.stats().side_hits;
    let rows = snap.scan_all(&events)?;
    println!(
        "\nwarm re-scan of the snapshot: {} rows, {} side-file hits, 0 page copies",
        rows.len(),
        snap.stats().side_hits - h0
    );

    println!(
        "\nlive hit rate {:.2}% -> {:.2}% across a {}-page as-of scan \
         (pool {} frames, scan budget {} frames)",
        before * 100.0,
        after * 100.0,
        prepared,
        POOL_PAGES,
        SCAN_BUDGET
    );
    if after < before - 0.05 {
        println!("WARN: live hit rate dropped more than 5 points");
    } else {
        println!("OK: the live cache survived the bulk point-in-time scan");
    }
    db.drop_snapshot("analytics")?;
    Ok(())
}
