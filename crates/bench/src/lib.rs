//! Experiment harness regenerating the paper's evaluation (§6).
//!
//! Each `fig*`/`sec*` function reproduces one figure or experiment from the
//! paper and returns structured rows; the `figures` binary prints them as
//! tables. Media behaviour (SSD vs 10K-SAS) is *modeled*: every experiment
//! measures the I/O counts the engine actually performed (random page
//! reads, undo log I/Os, sequential bytes) and costs them through
//! [`MediaModel`]s — exactly the terms the paper's hardware exposes.
//! Measured CPU time is reported alongside.

use rewind_backup::{restore_to_point_in_time, take_full_backup};
use rewind_common::{IoSnapshot, MediaModel, Timestamp};
use rewind_core::{Database, DbConfig, Result, SimClock};
use rewind_tpcc::{
    create_schema, load_initial, run_mixed, stock_level_asof, DriverConfig, TpccScale,
};
use std::sync::Arc;
use std::time::Instant;

/// Experiment sizing: `quick` keeps `cargo bench` and smoke runs fast;
/// `full` is for regenerating the published tables.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// TPC-C scale.
    pub scale: TpccScale,
    /// Driver threads.
    pub threads: usize,
    /// Committed transactions per simulated minute of workload.
    pub txns_per_minute: u64,
    /// Simulated minutes of history to generate.
    pub history_minutes: u64,
}

impl Effort {
    /// Small: seconds of runtime.
    pub fn quick() -> Effort {
        Effort {
            scale: TpccScale::default(),
            threads: 2,
            txns_per_minute: 600,
            history_minutes: 4,
        }
    }

    /// The default for regenerating tables (tens of seconds).
    pub fn full() -> Effort {
        Effort {
            scale: TpccScale {
                warehouses: 4,
                districts_per_warehouse: 10,
                customers_per_district: 60,
                items: 1000,
                initial_orders_per_district: 40,
            },
            threads: 4,
            txns_per_minute: 3000,
            history_minutes: 16,
        }
    }
}

/// Media pairs used throughout §6: the whole database (data + log) on one
/// class of device.
pub fn ssd() -> MediaModel {
    MediaModel::ssd()
}

/// See [`ssd`].
pub fn sas() -> MediaModel {
    MediaModel::sas_hdd()
}

fn build_db(fpi_interval: u32, checkpoint_bytes: u64, effort: &Effort) -> Result<Arc<Database>> {
    build_db_with_log(
        fpi_interval,
        checkpoint_bytes,
        effort,
        rewind_wal::LogConfig::default(),
    )
}

fn build_db_with_log(
    fpi_interval: u32,
    checkpoint_bytes: u64,
    effort: &Effort,
    log: rewind_wal::LogConfig,
) -> Result<Arc<Database>> {
    let db = Arc::new(Database::create_with_clock(
        DbConfig {
            buffer_pages: 4096,
            fpi_interval,
            checkpoint_interval_bytes: checkpoint_bytes,
            log,
            ..DbConfig::default()
        },
        SimClock::new(),
    )?);
    create_schema(&db)?;
    load_initial(&db, &effort.scale)?;
    Ok(db)
}

fn driver_cfg(effort: &Effort, minutes: u64) -> DriverConfig {
    let total = effort.txns_per_minute * minutes;
    DriverConfig {
        threads: effort.threads,
        txns_per_thread: total / effort.threads as u64,
        // spread the simulated minutes across the committed transactions
        us_per_txn: minutes * 60_000_000 / total.max(1),
        seed: 7,
        rollback_pct: 1,
    }
}

// ---- Figures 5 & 6: logging overhead vs FPI interval N ------------------------

/// One row of Figs. 5/6.
#[derive(Clone, Copy, Debug)]
pub struct LoggingOverheadRow {
    /// FPI interval N (0 = additional logging disabled).
    pub fpi_interval: u32,
    /// Measured throughput, transactions per real second.
    pub tps_real: f64,
    /// tpmC against the simulated clock.
    pub tpm_c: f64,
    /// Total log bytes produced.
    pub log_bytes: u64,
    /// Log bytes relative to N=0.
    pub space_ratio: f64,
}

/// Figs. 5/6: run the identical workload at several FPI intervals and
/// report throughput and log-space usage. `checkpoints` toggles the paper's
/// two settings (no checkpoints vs a 30 s-style recovery interval).
pub fn fig5_fig6(effort: &Effort, checkpoints: bool) -> Result<Vec<LoggingOverheadRow>> {
    let intervals = [0u32, 256, 64, 16, 4];
    let mut rows = Vec::new();
    let mut baseline_bytes = 0u64;
    for &n in &intervals {
        let ck = if checkpoints { 4 << 20 } else { 0 };
        let db = build_db(n, ck, effort)?;
        let log0 = db.log().io_stats().snapshot().log_bytes_written;
        let cfg = driver_cfg(effort, effort.history_minutes.min(4));
        let t0 = Instant::now();
        let stats = run_mixed(&db, &effort.scale, &cfg)?;
        let real = t0.elapsed().as_secs_f64();
        db.parts().pool.flush_all()?;
        db.log().flush_to(db.log().tail_lsn());
        let log_bytes = db.log().io_stats().snapshot().log_bytes_written - log0;
        if n == 0 {
            baseline_bytes = log_bytes;
        }
        rows.push(LoggingOverheadRow {
            fpi_interval: n,
            tps_real: stats.committed() as f64 / real,
            tpm_c: stats.tpm_c(),
            log_bytes,
            space_ratio: log_bytes as f64 / baseline_bytes.max(1) as f64,
        });
    }
    Ok(rows)
}

// ---- Figures 7-11: as-of query vs restore, by rewind distance -----------------

/// One row of Figs. 7-11 (one rewind distance).
#[derive(Clone, Copy, Debug)]
pub struct AsofVsRestoreRow {
    /// How far back the query targets, in simulated minutes.
    pub minutes_back: u64,
    /// Snapshot creation: modeled µs on SSD / SAS, and measured µs.
    pub create_us_ssd: u64,
    /// See above.
    pub create_us_sas: u64,
    /// Measured (CPU) creation time.
    pub create_us_real: u64,
    /// As-of StockLevel query: modeled µs on SSD / SAS, measured µs.
    pub query_us_ssd: u64,
    /// See above.
    pub query_us_sas: u64,
    /// Measured (CPU) query time.
    pub query_us_real: u64,
    /// Full restore + replay to the same point: modeled µs.
    pub restore_us_ssd: u64,
    /// See above.
    pub restore_us_sas: u64,
    /// Undo log I/Os performed by the query (Fig. 11's estimate).
    pub undo_log_ios: u64,
    /// Pages prepared for the query.
    pub pages_prepared: u64,
    /// Log records undone for the query.
    pub records_undone: u64,
}

/// Shared state for the Figs. 7-11 sweep.
pub struct AsofExperiment {
    /// The database after `history_minutes` of workload.
    pub db: Arc<Database>,
    /// Full backup taken before the workload (the restore baseline's input).
    pub backup: rewind_backup::FullBackup,
    /// Time at the start of the workload.
    pub start: Timestamp,
    /// Time at the end of the workload.
    pub end: Timestamp,
}

/// Build the history: load, back up, then run `history_minutes` of
/// workload with periodic checkpoints.
pub fn prepare_asof_experiment(effort: &Effort, fpi_interval: u32) -> Result<AsofExperiment> {
    let db = build_db(fpi_interval, 4 << 20, effort)?;
    let backup = take_full_backup(&db)?;
    let start = db.clock().now();
    for _ in 0..effort.history_minutes {
        let cfg = driver_cfg(effort, 1);
        run_mixed(&db, &effort.scale, &cfg)?;
        db.checkpoint()?;
    }
    let end = db.clock().now();
    Ok(AsofExperiment {
        db,
        backup,
        start,
        end,
    })
}

/// Run the Figs. 7-11 sweep over rewind distances.
pub fn fig7_to_fig11(exp: &AsofExperiment, distances_min: &[u64]) -> Result<Vec<AsofVsRestoreRow>> {
    let mut rows = Vec::new();
    for (i, &mins) in distances_min.iter().enumerate() {
        let target = exp.end.minus_micros(mins * 60_000_000);
        if target < exp.start {
            continue;
        }
        let name = format!("fig7_{i}");

        // --- as-of snapshot creation ---
        let log0 = exp.db.log_io();
        let data0 = exp.db.data_io();
        let t0 = Instant::now();
        let snap = exp.db.create_snapshot_asof(&name, target)?;
        snap.wait_undo_complete()?;
        let create_real = t0.elapsed().as_micros() as u64;
        let create_log = exp.db.log_io().delta(log0);
        let create_data = exp.db.data_io().delta(data0);

        // --- the as-of query (paper: stock level on a fixed district) ---
        let log1 = exp.db.log_io();
        let data1 = exp.db.data_io();
        let stats1 = snap.stats();
        let t1 = Instant::now();
        let low = stock_level_asof(&snap, 1, 1, 15)?;
        let query_real = t1.elapsed().as_micros() as u64;
        let query_log = exp.db.log_io().delta(log1);
        let query_data = exp.db.data_io().delta(data1);
        let stats2 = snap.stats();
        let _ = low;

        // --- the restore baseline to the same point ---
        let (_restored, report) = restore_to_point_in_time(
            &exp.backup,
            exp.db.log(),
            target,
            DbConfig::default(),
            SimClock::starting_at(exp.end),
        )?;

        let undo_log_ios = query_log.log_read_ios;
        rows.push(AsofVsRestoreRow {
            minutes_back: mins,
            create_us_ssd: combined(create_data, create_log, &ssd()),
            create_us_sas: combined(create_data, create_log, &sas()),
            create_us_real: create_real,
            query_us_ssd: combined(query_data, query_log, &ssd()),
            query_us_sas: combined(query_data, query_log, &sas()),
            query_us_real: query_real,
            restore_us_ssd: report.modeled_micros(&ssd(), &ssd()),
            restore_us_sas: report.modeled_micros(&sas(), &sas()),
            undo_log_ios,
            pages_prepared: stats2.pages_prepared - stats1.pages_prepared,
            records_undone: stats2.records_undone - stats1.records_undone,
        });
        exp.db.drop_snapshot(&name)?;
    }
    Ok(rows)
}

fn combined(data: IoSnapshot, log: IoSnapshot, media: &MediaModel) -> u64 {
    data.modeled_micros(media, media) + log.modeled_micros(media, media)
}

// ---- §6.3: concurrent as-of queries --------------------------------------------

/// Results of the §6.3 experiment.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrentRow {
    /// tpmC with no snapshot activity.
    pub tpm_baseline: f64,
    /// tpmC while as-of snapshots + queries loop concurrently.
    pub tpm_with_asof: f64,
    /// As-of snapshot creations performed.
    pub snapshots_created: u64,
    /// Mean creation time (measured µs).
    pub avg_create_us: u64,
    /// Mean as-of StockLevel time (measured µs).
    pub avg_query_us: u64,
}

/// §6.3: run the TPC-C mix, then run it again with a concurrent thread
/// repeatedly creating a 5-minutes-back snapshot and querying it.
pub fn sec63_concurrent(effort: &Effort) -> Result<ConcurrentRow> {
    // Baseline run.
    let exp = prepare_asof_experiment(effort, 16)?;
    let base_cfg = driver_cfg(effort, 2);
    let base = run_mixed(&exp.db, &effort.scale, &base_cfg)?;

    // Concurrent run: workload + as-of loop.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let db2 = exp.db.clone();
    let stop2 = stop.clone();
    let asof_thread = std::thread::spawn(move || -> Result<(u64, u64, u64)> {
        let mut created = 0u64;
        let mut create_us = 0u64;
        let mut query_us = 0u64;
        let mut i = 0;
        while !stop2.load(std::sync::atomic::Ordering::Acquire) {
            let t = db2.clock().now().minus_micros(5 * 60_000_000);
            let name = format!("conc_{i}");
            i += 1;
            let t0 = Instant::now();
            let snap = match db2.create_snapshot_asof(&name, t) {
                Ok(s) => s,
                Err(rewind_core::Error::RetentionExceeded { .. }) => continue,
                Err(e) => return Err(e),
            };
            create_us += t0.elapsed().as_micros() as u64;
            let t1 = Instant::now();
            let _ = stock_level_asof(&snap, 1, 1, 15)?;
            query_us += t1.elapsed().as_micros() as u64;
            snap.wait_undo_complete()?;
            db2.drop_snapshot(&name)?;
            created += 1;
        }
        Ok((created, create_us, query_us))
    });

    let conc = run_mixed(&exp.db, &effort.scale, &base_cfg)?;
    stop.store(true, std::sync::atomic::Ordering::Release);
    let (created, create_us, query_us) = asof_thread.join().expect("asof thread panicked")?;

    Ok(ConcurrentRow {
        tpm_baseline: base.new_orders as f64 / (base.real_elapsed_us as f64 / 60e6),
        tpm_with_asof: conc.new_orders as f64 / (conc.real_elapsed_us as f64 / 60e6),
        snapshots_created: created,
        avg_create_us: create_us.checked_div(created).unwrap_or(0),
        avg_query_us: query_us.checked_div(created).unwrap_or(0),
    })
}

// ---- §6.4: crossover between as-of query and restore ----------------------------

/// One row of the §6.4 crossover table.
#[derive(Clone, Copy, Debug)]
pub struct CrossoverRow {
    /// Districts the as-of query touches (scales pages accessed).
    pub districts_queried: u64,
    /// Pages prepared by the as-of path.
    pub pages_prepared: u64,
    /// Modeled as-of total (create + query) on SAS, µs.
    pub asof_us_sas: u64,
    /// Modeled restore total on SAS, µs.
    pub restore_us_sas: u64,
    /// What the §6.4 picker chooses.
    pub choice: rewind_backup::PathChoice,
}

/// §6.4: sweep the amount of data accessed until restore wins.
pub fn sec64_crossover(exp: &AsofExperiment, sweep: &[u64]) -> Result<Vec<CrossoverRow>> {
    let mut rows = Vec::new();
    let target = exp.end.minus_micros(60_000_000).max(exp.start);
    for (i, &districts) in sweep.iter().enumerate() {
        let name = format!("xover_{i}");
        let log0 = exp.db.log_io();
        let data0 = exp.db.data_io();
        let snap = exp.db.create_snapshot_asof(&name, target)?;
        let s0 = snap.stats();
        // touch `districts` districts across warehouses
        let mut d = 0u64;
        'outer: for w in 1.. {
            for dd in 1..=10u64 {
                if d >= districts {
                    break 'outer;
                }
                let _ = stock_level_asof(&snap, (w - 1) % 4 + 1, dd, 15);
                d += 1;
            }
        }
        let s1 = snap.stats();
        let log1 = exp.db.log_io().delta(log0);
        let data1 = exp.db.data_io().delta(data0);
        let asof_us = combined(data1, log1, &sas());
        let (_restored, report) = restore_to_point_in_time(
            &exp.backup,
            exp.db.log(),
            target,
            DbConfig::default(),
            SimClock::starting_at(exp.end),
        )?;
        let restore_us = report.modeled_micros(&sas(), &sas());
        let est = rewind_backup::PathEstimate {
            pages_accessed: s1.pages_prepared - s0.pages_prepared,
            undo_records_per_page: ((s1.records_undone - s0.records_undone)
                / (s1.pages_prepared - s0.pages_prepared).max(1))
            .max(1),
            log_miss_ratio: 1.0,
            db_bytes: exp.backup.bytes,
            replay_bytes: report.replay_bytes,
            analysis_bytes: 0,
        };
        rows.push(CrossoverRow {
            districts_queried: districts,
            pages_prepared: s1.pages_prepared - s0.pages_prepared,
            asof_us_sas: asof_us,
            restore_us_sas: restore_us,
            choice: rewind_backup::choose_access_path(&est, &sas(), &sas()),
        });
        exp.db.drop_snapshot(&name)?;
    }
    Ok(rows)
}

// ---- ablations -------------------------------------------------------------------

/// FPI-skip ablation row: same rewind, with and without full page images.
#[derive(Clone, Copy, Debug)]
pub struct FpiAblationRow {
    /// FPI interval N.
    pub fpi_interval: u32,
    /// Records undone by the query's page preparations.
    pub records_undone: u64,
    /// Undo log I/Os.
    pub undo_log_ios: u64,
    /// Measured query µs.
    pub query_us_real: u64,
}

/// Ablation: §6.1's skip optimization on vs off, for a deep rewind.
pub fn ablation_fpi(effort: &Effort) -> Result<Vec<FpiAblationRow>> {
    let mut rows = Vec::new();
    for n in [0u32, 16] {
        let exp = prepare_asof_experiment(effort, n)?;
        let target = exp.start.plus_micros(30_000_000); // deep: near the beginning
        let snap = exp.db.create_snapshot_asof("fpi_ab", target)?;
        let log0 = exp.db.log_io();
        let s0 = snap.stats();
        let t0 = Instant::now();
        let _ = stock_level_asof(&snap, 1, 1, 15)?;
        let query_us_real = t0.elapsed().as_micros() as u64;
        let s1 = snap.stats();
        rows.push(FpiAblationRow {
            fpi_interval: n,
            records_undone: s1.records_undone - s0.records_undone,
            undo_log_ios: exp.db.log_io().delta(log0).log_read_ios,
            query_us_real,
        });
        exp.db.drop_snapshot("fpi_ab")?;
    }
    Ok(rows)
}

/// COW-snapshot ablation row (§7.1's comparison).
#[derive(Clone, Copy, Debug)]
pub struct CowAblationRow {
    /// Whether a regular COW snapshot was open during the run.
    pub cow_snapshot_open: bool,
    /// Committed transactions per real second.
    pub tps_real: f64,
    /// Side-file bytes produced by copy-on-write.
    pub cow_bytes: u64,
    /// Log bytes produced.
    pub log_bytes: u64,
}

/// Log-cache ablation row: the same deep as-of query with different log
/// read-cache sizes.
#[derive(Clone, Copy, Debug)]
pub struct CacheAblationRow {
    /// Log cache capacity in 64 KiB blocks.
    pub cache_blocks: usize,
    /// Undo log I/Os (cache misses) for the query.
    pub undo_log_ios: u64,
    /// Log cache hits for the query.
    pub cache_hits: u64,
    /// Modeled query time on SAS (stalls dominate).
    pub query_us_sas: u64,
}

/// Ablation: §6.2's point that "storing transaction log on low latency media
/// is important ... the system has stalls on transaction log reads" — here
/// expressed as log-cache capacity vs undo stalls for the same deep query.
pub fn ablation_log_cache(effort: &Effort) -> Result<Vec<CacheAblationRow>> {
    let mut rows = Vec::new();
    for blocks in [2usize, 16, 256] {
        let log_cfg = rewind_wal::LogConfig {
            cache_blocks: blocks,
            hot_tail_bytes: 128 * 1024,
            ..rewind_wal::LogConfig::default()
        };
        let db = build_db_with_log(16, 4 << 20, effort, log_cfg)?;
        let start = db.clock().now();
        // Single-threaded, fixed seed: the three runs produce identical
        // logs, so the undo-I/O counts are directly comparable.
        let cfg = DriverConfig {
            threads: 1,
            txns_per_thread: effort.txns_per_minute.min(1500),
            us_per_txn: 60_000_000 / effort.txns_per_minute.min(1500),
            seed: 99,
            rollback_pct: 1,
        };
        for _ in 0..effort.history_minutes.min(6) {
            run_mixed(&db, &effort.scale, &cfg)?;
            db.checkpoint()?;
        }
        let target = start.plus_micros(30_000_000);
        let snap = db.create_snapshot_asof("cache_ab", target)?;
        snap.wait_undo_complete()?;
        let log0 = db.log_io();
        let data0 = db.data_io();
        let _ = stock_level_asof(&snap, 1, 1, 15)?;
        let dlog = db.log_io().delta(log0);
        let ddata = db.data_io().delta(data0);
        rows.push(CacheAblationRow {
            cache_blocks: blocks,
            undo_log_ios: dlog.log_read_ios,
            cache_hits: dlog.log_cache_hits,
            query_us_sas: combined(ddata, dlog, &sas()),
        });
        db.drop_snapshot("cache_ab")?;
    }
    Ok(rows)
}

/// Ablation: overhead of a live copy-on-write snapshot vs the log-only
/// scheme (related work §7.1: "the overhead introduced by additional
/// logging is significantly less than copy-on-write snapshots").
pub fn ablation_cow(effort: &Effort) -> Result<Vec<CowAblationRow>> {
    let mut rows = Vec::new();
    for cow in [false, true] {
        let db = build_db(16, 4 << 20, effort)?;
        let snap = if cow {
            Some(db.create_snapshot("cow_ab")?)
        } else {
            None
        };
        let log0 = db.log().io_stats().snapshot().log_bytes_written;
        let cfg = driver_cfg(effort, 2);
        let t0 = Instant::now();
        let stats = run_mixed(&db, &effort.scale, &cfg)?;
        let real = t0.elapsed().as_secs_f64();
        rows.push(CowAblationRow {
            cow_snapshot_open: cow,
            tps_real: stats.committed() as f64 / real,
            cow_bytes: snap
                .as_ref()
                .map(|s| s.side_pages() as u64 * 8192)
                .unwrap_or(0),
            log_bytes: db.log().io_stats().snapshot().log_bytes_written - log0,
        });
        if cow {
            db.drop_snapshot("cow_ab")?;
        }
    }
    Ok(rows)
}
