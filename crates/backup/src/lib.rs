//! Traditional backup/restore — the baseline the paper measures against.
//!
//! §6.2 compares as-of queries with "the amount of time needed to restore a
//! database backup and replaying transaction logs as this is the cost we are
//! trying to eliminate": a full restore costs *database-size* sequential
//! I/O plus log replay, regardless of how little data is wanted, while the
//! as-of snapshot costs are proportional to the data touched.
//!
//! §6.4 observes the flip side: with enough data accessed or enough
//! modifications to undo, restore wins; a generalized system picks the
//! faster path per request. [`choose_access_path`] implements that picker
//! over the same cost model.

use rewind_common::{Error, Lsn, MediaModel, Result, SimClock, Timestamp};
use rewind_core::{Database, DbConfig};
use rewind_pagestore::{FileManager, MemFileManager, Page, PAGE_SIZE};
use rewind_wal::{find_split_lsn, LogManager};
use std::sync::Arc;

/// A full database backup: a page-image copy plus the log position it was
/// taken at.
pub struct FullBackup {
    /// Wall-clock time of the backup.
    pub taken_at: Timestamp,
    /// Log position: restore replays the log from here.
    pub backup_lsn: Lsn,
    /// Bytes in the backup image.
    pub bytes: u64,
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
}

/// What a restore did; feeds the cost model.
#[derive(Clone, Copy, Debug, Default)]
pub struct RestoreReport {
    /// Bytes copied back from the backup image (sequential read + write).
    pub restore_bytes: u64,
    /// Log bytes replayed from `backup_lsn` to the split point.
    pub replay_bytes: u64,
    /// Records applied during replay.
    pub records_replayed: u64,
    /// In-flight transactions undone at the split point.
    pub losers_undone: usize,
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

/// Take a full backup of `db` (sequential copy of every page, accounted on
/// the database's I/O counters).
pub fn take_full_backup(db: &Database) -> Result<FullBackup> {
    let fm = db
        .mem_file()
        .ok_or_else(|| Error::InvalidArg("backup requires the in-memory file backend".into()))?;
    // Make the file consistent up to "now" (same flush snapshot creation
    // uses), then snapshot the pages.
    db.parts().pool.flush_all()?;
    let backup_lsn = db.log().tail_lsn();
    let pages = fm.clone_contents();
    let bytes = pages.len() as u64 * PAGE_SIZE as u64;
    fm.io_stats().add_seq_data_bytes(bytes);
    Ok(FullBackup {
        taken_at: db.clock().now(),
        backup_lsn,
        bytes,
        pages,
    })
}

/// Restore `backup` and roll the copy forward to wall-clock time `t` using
/// the primary's log (the traditional point-in-time restore sequence from
/// paper §1). Returns the restored, queryable database plus a cost report.
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
    let mut report = RestoreReport::default();

    // 1. Restore the image (sequential copy).
    let fm = Arc::new(MemFileManager::new());
    fm.replace_contents(backup.pages.clone());
    report.restore_bytes = backup.bytes;
    fm.io_stats().add_seq_data_bytes(backup.bytes);

    // 2. Replay the log forward from the backup position to the split.
    let io0 = log.io_stats().snapshot();
    let scan_to = Lsn(split.0 + 1);
    log.scan_refs(backup.backup_lsn, scan_to, |rec| {
        let (header, view) = rec.view()?;
        if header.is_page_op() && header.page.is_valid() {
            let mut page = fm.read_page(header.page)?;
            if page.page_lsn() < header.lsn {
                view.redo(&mut page, header.page, header.lsn)?;
                fm.write_page(header.page, &page)?;
                report.records_replayed += 1;
            }
        }
        Ok(true)
    })?;
    report.replay_bytes = log.io_stats().snapshot().delta(io0).log_bytes_scanned;
    report.unused_log_bytes = log.tail_lsn().bytes_since(split);

    // 3. Undo transactions in flight at the split (logical undo applied
    //    directly to the restored pages — the copy has its own lifetime, so
    //    no compensation logging is needed).
    let analysis = rewind_recovery::analyze(log, split)?;
    report.losers_undone = analysis.losers.len();
    if !analysis.losers.is_empty() {
        undo_losers_on_restored(&fm, log, &analysis)?;
    }

    // 4. Open it.
    let restored_log = Arc::new(LogManager::new(config.log.clone()));
    let db = Database::open_existing(fm, restored_log, clock, config)?;
    Ok((db, report))
}

/// Undo in-flight transactions directly on restored pages, in a merged
/// descending-LSN sweep (same discipline as snapshot recovery).
fn undo_losers_on_restored(
    fm: &Arc<MemFileManager>,
    log: &Arc<LogManager>,
    analysis: &rewind_recovery::AnalysisResult,
) -> Result<()> {
    use rewind_access::store::{ModKind, Store};
    use rewind_common::{ObjectId, PageId};
    use rewind_pagestore::PageType;
    use rewind_wal::LogPayloadView;

    /// A no-log store over the restored file (the restore copy is
    /// freestanding; compensations need no durability).
    struct RestoreStore<'a> {
        fm: &'a Arc<MemFileManager>,
    }

    impl Store for RestoreStore<'_> {
        fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> Result<R>) -> Result<R> {
            let p = self.fm.read_page(pid)?;
            f(&p)
        }

        fn modify_flagged(
            &self,
            pid: PageId,
            payload: LogPayloadView<'_>,
            _kind: ModKind,
            _extra: u8,
        ) -> Result<Lsn> {
            let mut p = self.fm.read_page(pid)?;
            payload.precheck(&p)?;
            let lsn = p.page_lsn();
            payload.redo(&mut p, pid, lsn)?;
            self.fm.write_page(pid, &p)?;
            Ok(lsn)
        }

        fn allocate(
            &self,
            object: ObjectId,
            ty: PageType,
            level: u16,
            next: PageId,
            prev: PageId,
            _kind: ModKind,
        ) -> Result<PageId> {
            let pid = PageId(self.fm.page_count().max(1) + (1 << 20));
            let mut p = Page::formatted(pid, object, ty);
            p.set_level(level);
            p.set_next_page(next);
            p.set_prev_page(prev);
            self.fm.write_page(pid, &p)?;
            Ok(pid)
        }

        fn free_page(&self, _pid: PageId, _kind: ModKind) -> Result<()> {
            Err(Error::Internal("restore undo never deallocates".into()))
        }

        fn with_object_latch<R>(
            &self,
            _object: ObjectId,
            _exclusive: bool,
            f: impl FnOnce() -> Result<R>,
        ) -> Result<R> {
            f() // restore undo is single-threaded
        }

        fn end_smo(&self, _undo_next: Lsn) -> Result<()> {
            Ok(())
        }

        fn txn_last_lsn(&self) -> Lsn {
            Lsn::NULL
        }

        fn writable(&self) -> bool {
            true
        }
    }

    let store = RestoreStore { fm };
    let sys = rewind_core::catalog::SysTrees::load(&store)?;
    let resolver = |obj| rewind_core::catalog::resolve_access(&store, &sys, obj);

    rewind_recovery::undo_sweep(
        analysis.losers.iter().map(|l| (l.last_lsn, l.id)),
        |lsn| log.get_record_deep(lsn),
        |_, header, view| {
            rewind_recovery::rollback::undo_record_view(&store, header, view, &resolver)
        },
        |_| {},
    )?;
    Ok(())
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
