//! Retention management and the backup interplay (§4.3 and §6.4).
//!
//! Shows `SET UNDO_INTERVAL`, log truncation, the clean error when a
//! requested time falls outside retention, the traditional restore baseline,
//! and the §6.4 picker that chooses between "rewind from now" and "restore
//! and roll forward".
//!
//! ```text
//! cargo run --release --example retention_and_backup
//! ```

use rewind::backup::{
    choose_access_path, restore_to_point_in_time, take_full_backup, PathChoice, PathEstimate,
};
use rewind::common::MediaModel;
use rewind::tpcc::{create_schema, load_initial, run_mixed, DriverConfig, TpccScale};
use rewind::wal::LogConfig;
use rewind::{Database, DbConfig, Error, Result, SimClock, Value};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<()> {
    // archive_on_truncate keeps truncated log as "log backups" so old
    // backups remain restorable even past the undo interval
    let db = Arc::new(Database::create(DbConfig {
        log: LogConfig {
            archive_on_truncate: true,
            ..LogConfig::default()
        },
        ..DbConfig::default()
    })?);
    let scale = TpccScale::tiny();
    create_schema(&db)?;
    load_initial(&db, &scale)?;

    // ALTER DATABASE … SET UNDO_INTERVAL = 10 MINUTES (§4.3)
    db.set_undo_interval(Duration::from_secs(600))?;
    println!("undo interval: {:?}", db.undo_interval());

    // A full backup before the churn (the traditional safety net).
    let backup = take_full_backup(&db)?;
    println!(
        "full backup: {} MiB at {}",
        backup.bytes >> 20,
        backup.taken_at
    );

    // 30 simulated minutes of workload; retention keeps ~10.
    for _ in 0..30 {
        run_mixed(
            &db,
            &scale,
            &DriverConfig {
                threads: 2,
                txns_per_thread: 50,
                us_per_txn: 600_000,
                ..Default::default()
            },
        )?;
        db.checkpoint()?;
        db.enforce_retention();
    }
    let stats = db.stats()?;
    println!(
        "log: {} MiB written, {} MiB retained after truncation",
        stats.log_bytes >> 20,
        stats.log_retained_bytes >> 20
    );

    // Inside retention: as-of works.
    let recent = db.clock().now().minus_micros(5 * 60_000_000);
    let snap = db.create_snapshot_asof("recent", recent)?;
    let w = snap.table("warehouse")?;
    println!(
        "as-of {} works: warehouse count = {}",
        recent,
        snap.count(&w)?
    );
    snap.wait_undo_complete()?;
    db.drop_snapshot("recent")?;

    // Outside retention: a clean error — and the backup still covers it.
    let ancient = backup.taken_at.plus_micros(1_000_000);
    match db.create_snapshot_asof("ancient", ancient) {
        Err(Error::RetentionExceeded {
            requested,
            earliest,
        }) => {
            println!("as-of {requested} refused: earliest retained is {earliest}");
        }
        other => println!("unexpected: {:?}", other.map(|_| ())),
    }
    let (restored, report) = restore_to_point_in_time(
        &backup,
        db.log(),
        db.clock().now(),
        DbConfig::default(),
        SimClock::starting_at(db.clock().now()),
    )?;
    let rows = restored.with_txn(|txn| restored.get(txn, "warehouse", &[Value::U64(1)]))?;
    println!(
        "restore baseline still reaches it: warehouse 1 = {:?} ({} records replayed)",
        rows.map(|r| r[1].clone()),
        report.records_replayed
    );

    // §6.4: the generalized picker.
    println!("\n§6.4 picker (SAS media): pages touched → chosen path");
    let sas = MediaModel::sas_hdd();
    for pages in [10u64, 1_000, 100_000, 5_000_000] {
        let est = PathEstimate {
            pages_accessed: pages,
            undo_records_per_page: 200,
            log_miss_ratio: 0.8,
            db_bytes: 40 << 30,
            replay_bytes: 4 << 30,
            analysis_bytes: 64 << 20,
        };
        let pick = match choose_access_path(&est, &sas, &sas) {
            PathChoice::AsOfQuery => "as-of query (rewind)",
            PathChoice::RestoreRollForward => "restore + roll forward",
        };
        println!("  {pages:>9} pages → {pick}");
    }
    Ok(())
}
