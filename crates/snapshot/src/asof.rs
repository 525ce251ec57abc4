//! As-of snapshot creation and recovery (paper §5.1–5.2), and the one bulk
//! preparation entry point.
//!
//! There are two entry points, by wall-clock time ([`AsOfSnapshot::create`])
//! and by exact LSN ([`AsOfSnapshot::create_at_lsn`]), and one build behind
//! them. A snapshot of the current state is the case `t = now`: the same
//! split search, analysis and lazy preparation, with no writer held off.
//!
//! A snapshot prepares a page only when something reads it (§5.3). Many
//! pages at once — a table prefetch — go through
//! [`AsOfSnapshot::prepare_pages`], one serial loop of `PreparePageAsOf`
//! calls inside a caller-owned [`ScanPartition`], so one operation's
//! discovery, preparation and straggler reads share one frame budget.
//! [`AsOfSnapshot::scan_partition`] hands the sizing to the pool's one
//! budget rule; nothing in this crate computes a budget.

use crate::stats::SnapshotStatsView;
use crate::store::{SnapInner, SnapshotMutator, SnapshotStore};
use parking_lot::{Condvar, Mutex};
use rewind_buffer::ScanPartition;
use rewind_common::{Error, Lsn, ObjectId, PageId, Result, Timestamp};
use rewind_obs::EventKind;
use rewind_recovery::rollback::undo_record_view;
use rewind_recovery::{analyze, undo_sweep, AccessKind, EngineParts, LoserTxn};
use rewind_txn::{LockManager, LockMode, ObjectLatches};
use rewind_wal::find_split_lsn;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Facts recorded at snapshot creation (reported by benchmarks).
#[derive(Clone, Copy, Debug)]
pub struct CreationInfo {
    /// The SplitLSN the wall-clock time resolved to.
    pub split_lsn: Lsn,
    /// Where the analysis scan started (checkpoint begin before the split).
    pub analysis_start: Lsn,
    /// Log bytes scanned by analysis (creation cost is bounded by this,
    /// §6.2: "the cost of database snapshot creation depends on the amount
    /// of log scanned").
    pub analysis_bytes: u64,
    /// Transactions found in flight at the split.
    pub loser_count: usize,
    /// Row/table locks reacquired for them.
    pub locks_reacquired: usize,
}

/// A read-only database as of a point in time in the past.
pub struct AsOfSnapshot {
    /// Snapshot name (as in `CREATE DATABASE ... AS SNAPSHOT OF ...`).
    pub name: String,
    /// The wall-clock time requested.
    pub as_of: Timestamp,
    /// The SplitLSN: the snapshot contains exactly the records ≤ this LSN.
    pub split_lsn: Lsn,
    /// Creation facts.
    pub creation: CreationInfo,
    inner: Arc<SnapInner>,
    latches: ObjectLatches,
    /// Reacquired locks of in-flight transactions; queries gate on these.
    pub locks: Arc<LockManager>,
    losers: Vec<LoserTxn>,
    undo_done: AtomicBool,
    /// Moves each time a loser's rows are all restored — *before* that
    /// loser's locks go — and once more when undo ends. See
    /// [`AsOfSnapshot::undo_epoch`].
    undo_epoch: AtomicU64,
    /// Completion latch: `None` while undo runs, then its outcome.
    undo_signal: (Mutex<Option<Result<()>>>, Condvar),
}

impl AsOfSnapshot {
    /// Create an as-of snapshot of the database behind `parts` at wall-clock
    /// time `t` (paper §5.1).
    pub fn create(name: &str, parts: &EngineParts, t: Timestamp) -> Result<Arc<AsOfSnapshot>> {
        let split = find_split_lsn(&parts.log, t)?;
        Self::build(name, parts, t, split)
    }

    /// Create an as-of snapshot split at an **exact LSN** rather than a
    /// wall-clock time. This is the repair engine's witness: flashback wants
    /// the state *just before a particular transaction's first log record*,
    /// a point that no commit timestamp addresses. `t` labels the snapshot
    /// for retention errors and reporting; correctness depends only on
    /// `split`.
    pub fn create_at_lsn(
        name: &str,
        parts: &EngineParts,
        t: Timestamp,
        split: Lsn,
    ) -> Result<Arc<AsOfSnapshot>> {
        Self::build(name, parts, t, split)
    }

    fn build(
        name: &str,
        parts: &EngineParts,
        t: Timestamp,
        split: Lsn,
    ) -> Result<Arc<AsOfSnapshot>> {
        // Retention (§4.3): the log from the split on must be retained,
        // not merely archived.
        if split < parts.log.truncation_point() {
            return Err(retention_of(&parts.log, t)(Error::LogTruncated(split)));
        }
        // Creation checkpoint (§5.1): every page change ≤ split becomes
        // durable in the primary file, so the snapshot can always read the
        // primary file and roll backward.
        parts.pool.flush_all()?;
        // The split is a record *boundary*: everything strictly before it
        // must be durable; the record at the split is not part of the
        // snapshot.
        parts.log.flush_up_to(split);

        let io0 = parts.log.io_stats().snapshot();
        let analysis = analyze(&parts.log, split).map_err(retention_of(&parts.log, t))?;
        let analysis_bytes = parts.log.io_stats().snapshot().delta(io0).log_bytes_scanned;

        // Lock reacquisition (§5.2): "the redo pass reacquires the locks
        // that were held by the transactions that were in-flight as of the
        // SplitLSN". No pages are read.
        let locks = Arc::new(LockManager::new(Duration::from_secs(30)));
        let mut reacquired = 0usize;
        for loser in &analysis.losers {
            for (key, mode) in &loser.locks {
                locks.force_grant(loser.id, key, *mode);
                reacquired += 1;
            }
        }

        let inner = Arc::new(SnapInner::new(parts.pool.clone(), parts.log.clone(), split));
        let snap = Arc::new(AsOfSnapshot {
            name: name.to_string(),
            as_of: t,
            split_lsn: split,
            creation: CreationInfo {
                split_lsn: split,
                analysis_start: analysis.scan_start,
                analysis_bytes,
                loser_count: analysis.losers.len(),
                locks_reacquired: reacquired,
            },
            inner,
            latches: ObjectLatches::new(),
            locks,
            losers: analysis.losers,
            undo_done: AtomicBool::new(false),
            undo_epoch: AtomicU64::new(0),
            undo_signal: (Mutex::new(None), Condvar::new()),
        });
        if snap.losers.is_empty() {
            snap.mark_undo_done(Ok(()));
        }
        Ok(snap)
    }

    /// The read-only store queries use (the snapshot "appears like a regular
    /// read-only database", §2.2).
    pub fn store(&self) -> SnapshotStore<'_> {
        SnapshotStore {
            inner: &self.inner,
            latches: &self.latches,
            scan: None,
        }
    }

    /// A store whose cold §5.3 step (b) reads run inside `part` — what a
    /// multi-row read walks with, so the pages it did not prefetch through
    /// [`AsOfSnapshot::prepare_pages`] (internal pages, a bounded range, a
    /// heap chain that names each next page on the one before) stay inside
    /// the same budget.
    pub fn store_partitioned<'a>(&'a self, part: &'a ScanPartition) -> SnapshotStore<'a> {
        SnapshotStore {
            inner: &self.inner,
            latches: &self.latches,
            scan: Some(part),
        }
    }

    /// A pin-limited scan partition over the primary's pool for one
    /// operation, sized by [`rewind_buffer::BufferPool::scan_partition`]
    /// (`budget` 0 = an eighth of the pool).
    pub fn scan_partition(&self, budget: usize) -> ScanPartition {
        self.inner.pool.scan_partition(budget)
    }

    fn mutator(&self) -> SnapshotMutator<'_> {
        SnapshotMutator {
            inner: &self.inner,
            latches: &self.latches,
        }
    }

    /// Run the logical-undo phase of snapshot recovery (§5.2), backing out
    /// every transaction in flight at the SplitLSN. Runs as a merged
    /// descending-LSN sweep across all losers so structure-modification
    /// ordering is honoured; each transaction's reacquired locks are
    /// released as it completes. Normally run in the background via
    /// [`AsOfSnapshot::spawn_undo`]; queries are admitted concurrently.
    ///
    /// The outcome — success or the error undo died with — is published
    /// through the completion latch, so [`AsOfSnapshot::wait_undo_complete`]
    /// and gated readers see it whoever called this.
    pub fn run_undo(&self, resolver: &dyn Fn(ObjectId) -> Result<AccessKind>) -> Result<u64> {
        if self.undo_done.load(Ordering::Acquire) {
            return Ok(0);
        }
        let mutator = self.mutator();
        let processed = undo_sweep(
            self.losers.iter().map(|l| (l.last_lsn, l.id)),
            |lsn| self.inner.log.get_record_ref(lsn),
            |_, header, view| undo_record_view(&mutator, header, view, resolver),
            // Transaction fully undone. Move the epoch first, then release
            // its reacquired locks: a reader that finds the locks gone is
            // then certain to find the epoch moved.
            |txn| {
                self.undo_epoch.fetch_add(1, Ordering::SeqCst);
                self.locks.release_all(txn)
            },
        );
        self.mark_undo_done(processed.as_ref().map(|_| ()).map_err(Error::clone));
        processed
    }

    /// Spawn [`AsOfSnapshot::run_undo`] on a background thread, opening the
    /// snapshot for queries immediately (the paper's trade-off in §6.2).
    pub fn spawn_undo(
        self: &Arc<Self>,
        resolver: Box<dyn Fn(ObjectId) -> Result<AccessKind> + Send>,
    ) -> std::thread::JoinHandle<Result<u64>> {
        let snap = self.clone();
        std::thread::spawn(move || snap.run_undo(&*resolver))
    }

    /// Publish undo's outcome through the completion latch. A failed undo
    /// leaves rows it never restored, so on failure the losers' remaining
    /// locks go too — after the latch is set: a reader parked on one wakes,
    /// samples [`AsOfSnapshot::undo_epoch`] and gets the error, not a lock
    /// timeout.
    fn mark_undo_done(&self, outcome: Result<()>) {
        let failed = outcome.is_err();
        self.undo_epoch.fetch_add(1, Ordering::SeqCst);
        self.undo_done.store(!failed, Ordering::Release);
        let (lock, cv) = &self.undo_signal;
        *lock.lock() = Some(outcome);
        cv.notify_all();
        if failed {
            for loser in &self.losers {
                self.locks.release_all(loser.id);
            }
        }
    }

    /// Whether background undo has finished successfully.
    pub fn undo_complete(&self) -> bool {
        self.undo_done.load(Ordering::Acquire)
    }

    /// Block until background undo finishes; the error it died with, if it
    /// did.
    pub fn wait_undo_complete(&self) -> Result<()> {
        let (lock, cv) = &self.undo_signal;
        let mut outcome = lock.lock();
        loop {
            if let Some(result) = &*outcome {
                return result.clone();
            }
            cv.wait(&mut outcome);
        }
    }

    /// The undo epoch — or the error background undo died with.
    ///
    /// The row gates below answer "is this row locked *now*", which is not
    /// "was what I just read already restored": undo can restore a row and
    /// release its lock between a reader's read and its gate check. So a
    /// gated read samples the epoch before reading and again after gating,
    /// and reads again when it moved. The epoch moves after a loser's last
    /// row is restored and before its locks are released, so a read that
    /// saw a pre-undo row and then found the lock gone finds the epoch
    /// moved as well.
    pub fn undo_epoch(&self) -> Result<u64> {
        if !self.undo_complete() {
            if let Some(Err(e)) = &*self.undo_signal.0.lock() {
                return Err(e.clone());
            }
        }
        Ok(self.undo_epoch.load(Ordering::SeqCst))
    }

    /// Gate a row read against the reacquired locks of in-flight
    /// transactions: blocks until the row's lock is compatible with a read.
    /// Returns `true` if the caller should re-read (it may have observed
    /// pre-undo data).
    pub fn gate_row(&self, object: ObjectId, key: &[u8]) -> Result<bool> {
        if self.undo_done.load(Ordering::Acquire) {
            return Ok(false);
        }
        let lk = rewind_txn::LockKey::row(object, key);
        let tk = rewind_txn::LockKey::table(object);
        let blocked =
            self.locks.would_block(&lk, LockMode::S) || self.locks.would_block(&tk, LockMode::IS);
        if blocked {
            self.locks.wait_until_free(&lk, LockMode::S)?;
            self.locks.wait_until_free(&tk, LockMode::IS)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Gate on every lock under `object`, table or row: the one gate of a
    /// multi-row read (scans, listings) and of a point read that found
    /// *nothing* — a row an in-flight transaction deleted is not in the
    /// result, so there is no key to gate on.
    pub fn gate_object(&self, object: ObjectId) -> Result<bool> {
        if self.undo_done.load(Ordering::Acquire) {
            return Ok(false);
        }
        self.locks.wait_until_object_free(object)
    }

    /// Prepare `pids` in order, **scan-resistantly** (ROADMAP item (h)):
    /// the whole run reads through `part`, so its cold §5.3 step (b) reads
    /// reuse a bounded ring of pool frames instead of marching the clock
    /// over the live working set. The partition is the caller's so that one
    /// budget covers a whole operation — leaf discovery, this preparation
    /// and the scan's own straggler reads. Pages already resident in the
    /// side file are hits and cost nothing.
    ///
    /// The pages go in chunks of the pool's I/O batch size, and each
    /// chunk's cold primaries are vector-read up front: one `read_pages`
    /// device op per contiguous run per chunk. Records one scan batch.
    ///
    /// Returns the number of pages newly prepared (side-file misses).
    pub fn prepare_pages(&self, pids: &[PageId], part: &ScanPartition) -> Result<u64> {
        let inner = &self.inner;
        let started = inner.obs.now_us();
        let mut prepared = 0u64;
        for run in pids.chunks(inner.pool.io_batch_pages()) {
            // Only side-file misses can reach step (b), and
            // `stage_read_run` skips pool-resident pids (those would have
            // been hits), so this stages exactly the pages the loop below
            // would read one by one.
            let wanted: Vec<PageId> = run
                .iter()
                .copied()
                .filter(|&pid| inner.side.get(pid).is_none())
                .collect();
            let mut staged = inner.pool.stage_read_run(&wanted);
            for &pid in run {
                let pre = staged
                    .iter()
                    .position(|(p, _)| *p == pid)
                    .map(|i| staged.remove(i).1);
                let (_, fresh) = inner.fetch_traced(pid, Some(part), pre)?;
                prepared += u64::from(fresh);
            }
        }
        let dur = inner.obs.now_us().saturating_sub(started);
        inner.obs.scan_batch_us(dur);
        inner
            .obs
            .record(EventKind::ScanBatch, 0, pids.len() as u64, dur);
        Ok(prepared)
    }

    /// Number of page versions currently held by the side file.
    pub fn side_pages(&self) -> usize {
        self.inner.side.len()
    }

    /// Page ids currently held by the side file (diagnostics: the warm set
    /// a zero-copy hit test or benchmark can replay).
    pub fn side_page_ids(&self) -> Vec<PageId> {
        self.inner.side.page_ids()
    }

    /// Per-page prepare-gate entries currently live. Bounded by the number
    /// of preparations in flight *right now* — a quiescent snapshot reports
    /// 0 no matter how many pages it has prepared (the gate-leak
    /// regression guard).
    pub fn prepare_gate_entries(&self) -> usize {
        self.inner.gate_entries()
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> SnapshotStatsView {
        self.inner.stats.snapshot()
    }

    /// The earliest LSN this snapshot still needs (log truncation must not
    /// pass it while the snapshot is open).
    pub fn min_needed_lsn(&self) -> Lsn {
        self.creation.analysis_start
    }
}

fn retention_of<'a>(log: &'a rewind_wal::LogManager, t: Timestamp) -> impl Fn(Error) -> Error + 'a {
    move |e| match e {
        Error::LogTruncated(_) => Error::RetentionExceeded {
            requested: t,
            earliest: log.earliest_retained_time().unwrap_or(Timestamp::ZERO),
        },
        other => other,
    }
}
