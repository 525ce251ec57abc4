//! Traditional backup/restore — the baseline the paper measures against.
//!
//! §6.2 compares as-of queries with "the amount of time needed to restore a
//! database backup and replaying transaction logs as this is the cost we are
//! trying to eliminate": a full restore costs *database-size* sequential
//! I/O plus log replay, regardless of how little data is wanted, while the
//! as-of snapshot costs are proportional to the data touched.
//!
//! A backup is what restart already reads: a full checkpoint, then a
//! sequential copy of every page through the [`FileManager`] trait, so any
//! backend can be backed up. A restore is restart over it:
//! [`Database::recover`] runs over a copy of the pages and a fork of the
//! live log cut at the target time, seeding its analysis from the backup's
//! own checkpoint. That checkpoint's begin precedes every page write the
//! copy can lack, so nothing committed beside the backup is lost, and the
//! restored database keeps its log (and with it its as-of history) up to
//! the cut.
//!
//! §6.4 observes the flip side: with enough data accessed or enough
//! modifications to undo, restore wins; a generalized system picks the
//! faster path per request. [`choose_access_path`] implements that picker
//! over the same cost model.

use rewind_common::{Error, Lsn, MediaModel, Result, SimClock, Timestamp};
use rewind_core::{CrashArtifacts, Database, DbConfig};
use rewind_pagestore::{FileManager, MemFileManager, PAGE_SIZE};
use rewind_wal::{find_split_lsn, LogManager};
use std::sync::Arc;

/// A full database backup: a page copy taken after a checkpoint, and the
/// log positions restart needs to read it.
pub struct FullBackup {
    /// Wall-clock time of the backup, read after the copy: every commit
    /// the copy can hold is stamped at or before it.
    pub taken_at: Timestamp,
    /// Bytes in the backup image.
    pub bytes: u64,
    /// End of the checkpoint the backup took: restore's restart seeds its
    /// analysis from it.
    checkpoint_lsn: Lsn,
    /// The log's flushed LSN after the copy: no copied page carries a
    /// pageLSN at or past it, so a restore's log reaches at least here.
    end_lsn: Lsn,
    image: MemFileManager,
}

/// What a restore did; feeds the cost model.
#[derive(Clone, Copy, Debug, Default)]
pub struct RestoreReport {
    /// Bytes copied back from the backup image (sequential read + write).
    pub restore_bytes: u64,
    /// Log bytes restart scanned, from the backup's checkpoint to the cut.
    pub replay_bytes: u64,
    /// Page operations restart redid.
    pub records_replayed: u64,
    /// Transactions in flight at the cut, undone by restart.
    pub losers_undone: u64,
    /// Log bytes after the split that a real system would need to examine /
    /// initialize ("initialization for the unused portion of transaction
    /// log", §6.2).
    pub unused_log_bytes: u64,
}

impl RestoreReport {
    /// Modeled end-to-end restore time on the given media (data files on
    /// `data`, backup image and log on `log_media`), in microseconds.
    pub fn modeled_micros(&self, data: &MediaModel, log_media: &MediaModel) -> u64 {
        log_media.seq_read_time_us(self.restore_bytes)          // read backup
            + data.seq_write_time_us(self.restore_bytes)        // write db files
            + log_media.seq_read_time_us(self.replay_bytes)     // replay
            + log_media.seq_read_time_us(self.unused_log_bytes) // init unused log
    }
}

/// Take a full backup of `db`: a full checkpoint (it flushes every dirty
/// page and logs the dirty-page table), then a sequential copy of every
/// page, accounted on the database's I/O counters. Writers keep running.
pub fn take_full_backup(db: &Database) -> Result<FullBackup> {
    let checkpoint_lsn = db.checkpoint()?;
    let image = MemFileManager::copy_of(db.parts().pool.file_manager().as_ref())?;
    // The end first, then the time: a commit below the end is stamped at
    // or before `taken_at`.
    let end_lsn = db.log().flushed_lsn();
    Ok(FullBackup {
        taken_at: db.clock().now(),
        bytes: image.page_count() * PAGE_SIZE as u64,
        checkpoint_lsn,
        end_lsn,
        image,
    })
}

/// Restore `backup` and roll the copy forward to wall-clock time `t` using
/// the primary's log (the traditional point-in-time restore sequence from
/// paper §1). Returns the restored, queryable database plus a cost report.
///
/// The restored log is `log` forked after the split for `t`, or after the
/// backup's end when that is later: no commit lies between the two, since
/// stamps are monotone in LSN and the backup's time was read after its end.
/// Fails with [`Error::RetentionExceeded`] when the backup's checkpoint is
/// no longer in the log (truncated, not archived).
pub fn restore_to_point_in_time(
    backup: &FullBackup,
    log: &Arc<LogManager>,
    t: Timestamp,
    config: DbConfig,
    clock: SimClock,
) -> Result<(Database, RestoreReport)> {
    if t < backup.taken_at {
        return Err(Error::InvalidArg(format!(
            "restore target {t} precedes the backup ({})",
            backup.taken_at
        )));
    }
    let split = find_split_lsn(log, t)?;
    let split_end = Lsn(split.0 + log.get_record_deep(split)?.frame_len());
    let fork = Arc::new(log.fork(split_end.max(backup.end_lsn)));
    let held = fork.checkpoint_before(backup.checkpoint_lsn);
    if held.map(|c| c.end_lsn) != Some(backup.checkpoint_lsn) {
        return Err(Error::RetentionExceeded {
            requested: backup.taken_at,
            earliest: log.earliest_retained_time().unwrap_or(t),
        });
    }
    let db = Database::recover(CrashArtifacts {
        fm: Arc::new(MemFileManager::copy_of(&backup.image)?),
        log: fork.clone(),
        clock,
        config,
        checkpoint_bound: backup.checkpoint_lsn,
    })?;
    let restart = db.last_recovery().unwrap_or_default();
    let report = RestoreReport {
        restore_bytes: backup.bytes,
        replay_bytes: fork.io_stats().snapshot().log_bytes_scanned,
        records_replayed: restart.records_redone,
        losers_undone: restart.losers,
        unused_log_bytes: log.tail_lsn().bytes_since(split),
    };
    Ok((db, report))
}

/// Which mechanism answers a point-in-time request fastest (§6.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathChoice {
    /// Create an as-of snapshot and query it (cost ∝ data touched).
    AsOfQuery,
    /// Restore the latest backup and roll forward (cost ∝ database size).
    RestoreRollForward,
}

/// Inputs to the §6.4 picker.
#[derive(Clone, Copy, Debug)]
pub struct PathEstimate {
    /// Pages the query will touch.
    pub pages_accessed: u64,
    /// Average log records to undo per touched page (grows with time
    /// distance).
    pub undo_records_per_page: u64,
    /// Fraction of undo log reads that miss the log cache (0..=1).
    pub log_miss_ratio: f64,
    /// Database size in bytes (restore must copy all of it).
    pub db_bytes: u64,
    /// Log bytes between the backup and the target time (replay cost).
    pub replay_bytes: u64,
    /// Log bytes the as-of snapshot creation must scan (analysis).
    pub analysis_bytes: u64,
}

/// Modeled as-of cost in microseconds.
pub fn estimate_asof_micros(e: &PathEstimate, data: &MediaModel, log: &MediaModel) -> u64 {
    let undo_ios =
        (e.pages_accessed as f64 * e.undo_records_per_page as f64 * e.log_miss_ratio) as u64;
    log.seq_read_time_us(e.analysis_bytes)
        + data.random_read_time_us(e.pages_accessed)
        + log.random_read_time_us(undo_ios)
}

/// Modeled restore cost in microseconds.
pub fn estimate_restore_micros(e: &PathEstimate, data: &MediaModel, log: &MediaModel) -> u64 {
    log.seq_read_time_us(e.db_bytes)
        + data.seq_write_time_us(e.db_bytes)
        + log.seq_read_time_us(e.replay_bytes)
}

/// Pick the faster mechanism under the model (§6.4's generalized system).
pub fn choose_access_path(e: &PathEstimate, data: &MediaModel, log: &MediaModel) -> PathChoice {
    if estimate_asof_micros(e, data, log) <= estimate_restore_micros(e, data, log) {
        PathChoice::AsOfQuery
    } else {
        PathChoice::RestoreRollForward
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_crossover_moves_with_pages_accessed() {
        let data = MediaModel::ssd();
        let log = MediaModel::sas_hdd();
        let base = PathEstimate {
            pages_accessed: 10,
            undo_records_per_page: 100,
            log_miss_ratio: 0.5,
            db_bytes: 40 << 30,
            replay_bytes: 10 << 30,
            analysis_bytes: 64 << 20,
        };
        assert_eq!(
            choose_access_path(&base, &data, &log),
            PathChoice::AsOfQuery
        );
        // touching (nearly) the whole database flips the choice
        let big = PathEstimate {
            pages_accessed: 100_000_000,
            ..base
        };
        assert_eq!(
            choose_access_path(&big, &data, &log),
            PathChoice::RestoreRollForward
        );
    }

    #[test]
    fn restore_cost_is_size_dominated() {
        let e = PathEstimate {
            pages_accessed: 1,
            undo_records_per_page: 1,
            log_miss_ratio: 1.0,
            db_bytes: 40 << 30,
            replay_bytes: 0,
            analysis_bytes: 0,
        };
        let sas = MediaModel::sas_hdd();
        let t = estimate_restore_micros(&e, &sas, &sas);
        // 40 GiB at 100 MiB/s read + write ≈ 2 × 410 s
        assert!(t > 600_000_000, "t={t}");
    }
}
