//! Point-in-time analytics (§6.2's experiment as an application): run the
//! TPC-C workload, then ask the same StockLevel question *as of* several
//! moments in the past and watch the cost grow with the rewind distance —
//! while staying proportional to the data touched, never to database size.
//!
//! ```text
//! cargo run --release --example point_in_time_query
//! ```

use rewind::tpcc::{
    create_schema, load_initial, run_mixed, stock_level_asof, DriverConfig, TpccScale,
};
use rewind::{Database, DbConfig, Result};
use std::sync::Arc;

fn main() -> Result<()> {
    let db = Arc::new(Database::create(DbConfig {
        fpi_interval: 16, // §6.1: full page image every 16th modification
        ..DbConfig::default()
    })?);
    let scale = TpccScale::default();
    create_schema(&db)?;
    load_initial(&db, &scale)?;

    // Generate six simulated minutes of history, checkpointing per minute.
    println!("running workload…");
    let mut marks = Vec::new();
    for minute in 0..6 {
        let cfg = DriverConfig {
            threads: 2,
            txns_per_thread: 300,
            us_per_txn: 100_000, // 600 txns ≈ 1 simulated minute
            seed: minute as u64,
            rollback_pct: 1,
        };
        run_mixed(&db, &scale, &cfg)?;
        db.checkpoint()?;
        marks.push(db.clock().now());
    }
    let now = db.clock().now();
    println!("history spans {} simulated seconds\n", now.as_secs_f64());

    println!(
        "{:>9} | {:>10} | {:>9} | {:>14} | {:>13} | {:>9}",
        "min back", "low stock", "real ms", "pages prepared", "records undone", "undo IOs"
    );
    println!("{}", "-".repeat(80));
    for (i, &t) in marks.iter().enumerate() {
        let mins_back = (now.micros_since(t)) / 60_000_000;
        let name = format!("pitq_{i}");
        let log0 = db.log_io();
        let snap = db.create_snapshot_asof(&name, t)?;
        #[allow(clippy::disallowed_methods)] // demo prints real elapsed time
        let t0 = std::time::Instant::now();
        let low = stock_level_asof(&snap, 1, 1, 15)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = snap.stats();
        let undo_ios = db.log_io().delta(log0).log_read_ios;
        println!(
            "{:>9} | {:>10} | {:>9.2} | {:>14} | {:>13} | {:>9}",
            mins_back, low, ms, stats.pages_prepared, stats.records_undone, undo_ios
        );
        snap.wait_undo_complete()?;
        db.drop_snapshot(&name)?;
    }

    println!(
        "\nNote: further back ⇒ more modifications to undo on each touched page\n\
         (the paper's Fig. 11), but the page count stays tied to the query."
    );
    Ok(())
}
