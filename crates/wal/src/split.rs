//! SplitLSN search: translate a wall-clock time into an LSN (paper §5.1).
//!
//! "The initial step of as-of snapshot creation translates the specified
//! wall-clock time into the SplitLSN by scanning the transaction log of the
//! primary database. The SplitLSN search is optimized to first narrow down
//! the transaction log region using checkpoint log records which store
//! wall-clock time and then by using transaction commit log records to find
//! the actual SplitLSN."
//!
//! One search serves both ways back in time: as-of snapshot creation and
//! point-in-time restore. It reads every segment the log holds, the archive
//! included; whether a split below the truncation point may be used is the
//! caller's policy. As-of creation refuses it; restore forks the log just
//! past the split ([`LogManager::fork`]) and runs restart over the fork, so
//! a split in the archive is as good as any other.

use crate::logmgr::LogManager;
use rewind_common::{Error, Lsn, Result, Timestamp};

/// Find the SplitLSN for wall-clock time `t`: the last commit or checkpoint
/// record stamped at or before `t`.
///
/// The snapshot will contain exactly the records with `lsn <= split`:
/// every transaction that committed at or before `t` is included, and
/// transactions still in flight at `t` are undone by snapshot recovery.
/// Records after the split are "the future" from the snapshot's point of
/// view. The scan starts at the newest checkpoint taken by `t`, floored at
/// the oldest held record, and decodes only the time stamps.
///
/// Returns [`Error::RetentionExceeded`] when no held record is stamped by
/// `t` and older history is gone; `Lsn::FIRST` when `t` predates a log that
/// is whole.
pub fn find_split_lsn(log: &LogManager, t: Timestamp) -> Result<Lsn> {
    let floor = log.earliest_available_lsn();
    let start = log
        .checkpoint_before_time(t)
        .map_or(floor, |c| c.begin_lsn.max(floor));
    let (mut split, mut later) = (None, None);
    log.scan_refs(start, Lsn::MAX, |rec| {
        match rec.view()?.1.time_stamp() {
            Some(at) if at <= t => split = Some(rec.lsn()),
            Some(at) => {
                // Stamps are time-ordered: nothing later can be by `t`.
                later = Some(at);
                return Ok(false);
            }
            None => {}
        }
        Ok(true)
    })?;
    match split {
        Some(lsn) => Ok(lsn),
        None if floor == Lsn::FIRST => Ok(Lsn::FIRST),
        None => Err(Error::RetentionExceeded {
            requested: t,
            earliest: later.unwrap_or(Timestamp::ZERO),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logmgr::LogConfig;
    use crate::record::{LogPayloadView, LogRecord};
    use rewind_common::{ObjectId, PageId, TxnId};
    use rewind_pagestore::page::PAGE_SIZE;

    type Rec = LogRecord<&'static [u8], &'static [u8; PAGE_SIZE]>;

    fn commit_rec(txn: u64, at: Timestamp) -> Rec {
        LogRecord {
            lsn: Lsn::NULL,
            txn: TxnId(txn),
            prev_lsn: Lsn::NULL,
            page: PageId::INVALID,
            prev_page_lsn: Lsn::NULL,
            object: ObjectId::NONE,
            undo_next: Lsn::NULL,
            flags: 0,
            payload: LogPayloadView::Commit { at },
        }
    }

    fn data_rec(txn: u64) -> Rec {
        LogRecord {
            lsn: Lsn::NULL,
            txn: TxnId(txn),
            prev_lsn: Lsn::NULL,
            page: PageId(1),
            prev_page_lsn: Lsn::NULL,
            object: ObjectId(1),
            undo_next: Lsn::NULL,
            flags: 0,
            payload: LogPayloadView::InsertRecord {
                slot: 0,
                bytes: &[0; 32],
            },
        }
    }

    /// Build a log with commits at seconds 1..=n, returning commit LSNs.
    fn build(n: u64) -> (LogManager, Vec<(Lsn, Timestamp)>) {
        let log = LogManager::new(LogConfig::default());
        let mut commits = Vec::new();
        for i in 1..=n {
            log.append(&data_rec(i));
            log.append(&data_rec(i));
            let at = Timestamp::from_secs(i);
            let l = log.append(&commit_rec(i, at));
            commits.push((l, at));
            if i % 10 == 0 {
                // checkpoints land between commits (at +0.5 s)
                let cat = Timestamp::from_millis(i * 1000 + 500);
                let begin = log.append(&checkpoint_begin(cat));
                log.append(&checkpoint_end(begin, cat));
            }
        }
        (log, commits)
    }

    fn checkpoint_begin(at: Timestamp) -> Rec {
        LogRecord {
            payload: LogPayloadView::CheckpointBegin { at },
            ..commit_rec(0, at)
        }
    }

    fn checkpoint_end(begin_lsn: Lsn, at: Timestamp) -> Rec {
        LogRecord {
            payload: LogPayloadView::CheckpointEnd {
                at,
                begin_lsn,
                // An empty ATT and DPT: two zero counts.
                tables: &[0; 8],
            },
            ..commit_rec(0, at)
        }
    }

    /// Oracle: linear scan of the whole log.
    fn oracle_split(log: &LogManager, t: Timestamp) -> Lsn {
        let mut split = Lsn::FIRST;
        log.scan_refs(log.truncation_point(), Lsn::MAX, |rec| {
            let (header, view) = rec.view()?;
            if view.time_stamp().is_some_and(|at| at <= t) {
                split = header.lsn;
            }
            Ok(true)
        })
        .unwrap();
        split
    }

    #[test]
    fn finds_exact_commit_boundaries() {
        let (log, commits) = build(50);
        for &(lsn, at) in &commits {
            // exactly at the commit time: that commit is included
            assert_eq!(find_split_lsn(&log, at).unwrap(), lsn, "at {at}");
            // shortly after (before any checkpoint stamp): still that commit
            assert_eq!(find_split_lsn(&log, at.plus_micros(400_000)).unwrap(), lsn);
        }
    }

    #[test]
    fn matches_linear_oracle_at_random_times() {
        let (log, _) = build(80);
        for us in [
            0u64, 1, 999_999, 1_000_000, 7_300_000, 33_500_000, 80_000_000, 99_000_000,
        ] {
            let t = Timestamp::from_micros(us);
            assert_eq!(
                find_split_lsn(&log, t).unwrap(),
                oracle_split(&log, t),
                "t={t}"
            );
        }
    }

    /// Regression: a search whose stamp is the requested time and whose
    /// last stamped record by then is a `CheckpointEnd` used to skip it —
    /// `time_stamp()` answered for commits and checkpoint-begins only — stop
    /// at the next, later commit with nothing found, and report a retained
    /// time as out of retention. The checkpoint stays in the directory
    /// across a crash that two later checkpoints precede.
    #[test]
    fn split_search_started_on_a_checkpoint_end_finds_it() {
        let log = LogManager::new(LogConfig::default());
        let pad = LogRecord {
            payload: LogPayloadView::InsertRecord {
                slot: 0,
                bytes: &[0; 4096],
            },
            ..data_rec(1)
        };
        log.append(&commit_rec(1, Timestamp::from_secs(1)));
        for _ in 0..20 {
            log.append(&pad);
        }
        let begin = log.append(&checkpoint_begin(Timestamp::from_secs(2)));
        for _ in 0..20 {
            log.append(&pad);
        }
        let t = Timestamp::from_secs(3);
        let end = log.append(&checkpoint_end(begin, t));
        log.append(&commit_rec(2, Timestamp::from_secs(4)));
        for secs in [5, 6] {
            let at = Timestamp::from_secs(secs);
            let begin = log.append(&checkpoint_begin(at));
            log.append(&checkpoint_end(begin, at));
        }
        log.flush_to(log.tail_lsn());
        log.discard_unflushed();
        assert_eq!(log.checkpoint_before_time(t).map(|c| c.end_lsn), Some(end));

        assert_eq!(find_split_lsn(&log, t), Ok(end));
    }

    #[test]
    fn before_first_commit_yields_log_start() {
        let (log, _) = build(5);
        assert_eq!(
            find_split_lsn(&log, Timestamp::from_micros(1)).unwrap(),
            Lsn::FIRST
        );
    }

    #[test]
    fn future_time_yields_last_commit() {
        let (log, commits) = build(5);
        let last = commits.last().unwrap().0;
        let split = find_split_lsn(&log, Timestamp::from_secs(1000)).unwrap();
        // Could be the last commit or a later checkpoint-begin stamp; either
        // way it must be >= the last commit.
        assert!(split >= last);
    }

    #[test]
    fn truncated_history_is_retention_error() {
        let (log, commits) = build(200);
        log.flush_to(log.tail_lsn());
        // need enough log volume for segment-granular truncation; pad it
        for _ in 0..4000 {
            log.append(&data_rec(999));
        }
        log.flush_to(log.tail_lsn());
        let mid = commits[100].0;
        log.truncate_before(mid);
        if log.truncation_point() > Lsn::FIRST {
            match find_split_lsn(&log, Timestamp::from_secs(1)) {
                Err(Error::RetentionExceeded { .. }) => {}
                other => panic!("expected RetentionExceeded, got {other:?}"),
            }
            // recent times still work
            assert!(find_split_lsn(&log, Timestamp::from_secs(199)).is_ok());
        }
    }
}
