//! Fuzzy checkpoints.
//!
//! Checkpoints bound crash-recovery work and — because their records carry a
//! wall-clock stamp — anchor the SplitLSN search (§5.1) and the retention
//! arithmetic (§4.3). A checkpoint logs a begin marker, flushes dirty pages
//! (all of them, or — the background cadence's incremental form — those
//! first dirtied before a bound), captures the active-transaction table
//! (open chains only, see `TxnManager::active_table`) and the dirty-page
//! table, logs the end record and forces the log.

use rewind_buffer::BufferPool;
use rewind_common::{Lsn, Result, SimClock, Timestamp, TxnId};
use rewind_txn::TxnManager;
use rewind_wal::{CheckpointBody, LogManager, LogPayloadView, LogRecord};

/// Take a checkpoint, reading `clock` for the marker stamps; returns the
/// end record's LSN.
///
/// Both markers are stamped through `LogManager::append_stamped` — i.e.
/// under the same sequencer (the log writer mutex) as commit records — so a
/// checkpoint begun while commits race can never push a timestamp older
/// than the last stamped commit into the log or the checkpoint directory,
/// which would break the binary-search invariant SplitLSN and
/// `checkpoint_before_time` rely on.
///
/// Dirty pages are flushed (like SQL Server's recovery-interval
/// checkpoints), which is what keeps both crash recovery and as-of snapshot
/// creation "bound by the amount of log scanned" (§6.2) rather than by
/// accumulated dirty state.
pub fn take_checkpoint(
    log: &LogManager,
    txns: &TxnManager,
    pool: &BufferPool,
    clock: &SimClock,
) -> Result<Lsn> {
    checkpoint_impl(log, txns, pool, clock, Lsn::MAX)
}

/// Take a *fuzzy incremental* checkpoint: flush only pages first dirtied
/// before `flush_before`, then capture the (now recLSN-bounded) dirty-page
/// table. Crash redo after this checkpoint starts at min recLSN
/// `>= flush_before`, so the background checkpoint cadence — which calls
/// this with `tail - checkpoint_interval_bytes` — keeps restart time
/// proportional to the interval rather than to total log size, without
/// ever stalling commits behind a full `flush_all`.
pub fn take_checkpoint_incremental(
    log: &LogManager,
    txns: &TxnManager,
    pool: &BufferPool,
    clock: &SimClock,
    flush_before: Lsn,
) -> Result<Lsn> {
    checkpoint_impl(log, txns, pool, clock, flush_before)
}

fn checkpoint_impl(
    log: &LogManager,
    txns: &TxnManager,
    pool: &BufferPool,
    clock: &SimClock,
    flush_before: Lsn,
) -> Result<Lsn> {
    let obs = log.obs().clone();
    let started = obs.now_us();
    let mut begin = LogRecord::marker(
        TxnId::NONE,
        LogPayloadView::CheckpointBegin {
            at: Timestamp::ZERO,
        },
    );
    let begin_lsn = log.append_stamped(None, &mut begin, &|| clock.now()).start;
    obs.record(rewind_obs::EventKind::CheckpointBegin, begin_lsn.0, 0, 0);
    if flush_before == Lsn::MAX {
        pool.flush_all()?;
    } else {
        pool.flush_older_than(flush_before)?;
    }
    let tables = CheckpointBody {
        att: txns.active_table(),
        dpt: pool.dirty_page_table(),
    }
    .encode();
    let mut end = LogRecord::marker(
        TxnId::NONE,
        LogPayloadView::CheckpointEnd {
            at: Timestamp::ZERO,
            begin_lsn,
            tables: &tables,
        },
    );
    let end = log.append_stamped(None, &mut end, &|| clock.now());
    log.flush_up_to(end.end);
    obs.record(
        rewind_obs::EventKind::CheckpointEnd,
        end.start.0,
        0,
        obs.now_us().saturating_sub(started),
    );
    Ok(end.start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_buffer::BufferPool;
    use rewind_pagestore::MemFileManager;
    use rewind_wal::LogConfig;
    use std::sync::Arc;

    #[test]
    fn checkpoint_registers_in_directory_and_captures_tables() {
        let fm = Arc::new(MemFileManager::new());
        let log = Arc::new(LogManager::new(LogConfig::default()));
        let pool = BufferPool::new(fm, log.clone(), 8);
        let txns = TxnManager::new();
        let t = txns.begin();
        let abort = LogRecord::marker(t.id, LogPayloadView::Abort);
        let logged = log.append_batch(&t.chain, &mut [abort]).start;

        // dirty a page
        pool.with_page_mut(rewind_common::PageId(3), |v| {
            v.page_mut().set_page_lsn(Lsn(100));
            v.mark_dirty(Lsn(100));
            Ok(())
        })
        .unwrap();

        let clock = SimClock::starting_at(Timestamp::from_secs(42));
        let end = take_checkpoint(&log, &txns, &pool, &clock).unwrap();
        let info = log.checkpoint_before(Lsn::MAX).unwrap();
        assert_eq!(info.end_lsn, end);
        assert_eq!(info.at, Timestamp::from_secs(42));
        assert!(log.flushed_lsn() > end);

        let rec = log.get_record_ref(end).unwrap();
        match rec.view().unwrap().1 {
            LogPayloadView::CheckpointEnd { tables, .. } => {
                let body = CheckpointBody::decode(tables).unwrap();
                assert_eq!(body.att.len(), 1);
                assert_eq!(body.att[0].txn, t.id);
                assert_eq!(body.att[0].last_lsn, logged);
                // the checkpoint flushed the dirty page
                assert!(body.dpt.is_empty());
            }
            other => panic!("unexpected payload {other:?}"),
        }
        assert!(pool.dirty_page_table().is_empty());
    }

    #[test]
    fn incremental_checkpoint_flushes_only_old_dirt() {
        let fm = Arc::new(MemFileManager::new());
        let log = Arc::new(LogManager::new(LogConfig::default()));
        let pool = BufferPool::new(fm, log.clone(), 8);
        let txns = TxnManager::new();
        for (pid, lsn) in [(3u64, 100u64), (4, 900)] {
            pool.with_page_mut(rewind_common::PageId(pid), |v| {
                v.page_mut().set_page_lsn(Lsn(lsn));
                v.mark_dirty(Lsn(lsn));
                Ok(())
            })
            .unwrap();
        }
        let clock = SimClock::starting_at(Timestamp::from_secs(1));
        let end = take_checkpoint_incremental(&log, &txns, &pool, &clock, Lsn(500)).unwrap();
        // Page 3 (recLSN 100 < 500) was flushed; page 4 stays dirty and is
        // captured in the checkpoint's DPT, bounding redo to recLSN >= 500.
        let rec = log.get_record_ref(end).unwrap();
        match rec.view().unwrap().1 {
            LogPayloadView::CheckpointEnd { tables, .. } => {
                let body = CheckpointBody::decode(tables).unwrap();
                assert_eq!(body.dpt.len(), 1);
                assert_eq!(body.dpt[0].page, rewind_common::PageId(4));
                assert_eq!(body.dpt[0].rec_lsn, Lsn(900));
            }
            other => panic!("unexpected payload {other:?}"),
        }
        assert_eq!(pool.dirty_page_table().len(), 1);
    }
}
