//! Batched I/O: contiguous-run coalescing and background writeback.
//!
//! Every media access goes through the one [`FileManager`] trait. Its scalar
//! `read_page`/`write_page` are one call and — under a modeled device — one
//! device round trip each, which is faithful to the paper's cost model but
//! leaves batch-shaped work (cold as-of scan prefetch, fuzzy-checkpoint
//! flushes) paying one modeled seek per page even when the pages are
//! physically contiguous. The trait's two batch entry points fix that:
//!
//! * [`FileManager::read_pages`] — read a batch of pages, returning one
//!   `Result` per page. Backends coalesce maximal *contiguous ascending
//!   runs* of page ids into one device op each (counted in
//!   [`IoStats::add_vectored_read_ops`](rewind_common::IoStats::add_vectored_read_ops)).
//! * [`FileManager::write_pages`] — write a batch, again with per-page
//!   results and per-run device ops
//!   ([`IoStats::add_batched_write_ops`](rewind_common::IoStats::add_batched_write_ops)).
//!
//! Both have provided bodies (the scalar loop, counting no vectored op), so
//! a minimal backend implements only the scalar methods.
//!
//! # Why the modeled stall is charged per batch
//!
//! A spinning disk pays one seek + rotation to reach a run and then streams
//! it; an NVMe device amortizes one submission/completion round trip over
//! the whole vectored request. Charging the modeled device latency (see
//! `MemFileManager::set_device_delay_us`, the page-side analogue of
//! `LogConfig::flush_delay_us`) once per contiguous run — not once per page
//! — is what makes batching *observable* in modeled time while leaving the
//! per-page transfer accounting untouched: `page_reads`/`page_writes` are
//! still incremented once per page, checksums are still verified per page,
//! and every per-page failure is reported in that page's slot of the result
//! vector (a fault inside a batch fails only that page, never the batch).
//! Only the *device-op* count changes, which is exactly the quantity the
//! `vectored_read_ops`/`batched_write_ops` counters expose and
//! `tests/scan_resistance.rs` gates on.
//!
//! # Why background writeback errors defer
//!
//! [`WritebackPool`] runs batched writes on background threads so fuzzy
//! checkpoints stop serializing the checkpointer (and stealing commit-path
//! time) on per-page `write_page` calls. A background thread has no caller
//! to return an error to at the moment the device fails, so failures are
//! *deferred*: workers retry transient errors with the same bounded backoff
//! as the foreground path (counting
//! [`IoStats::add_io_retry`](rewind_common::IoStats::add_io_retry) per
//! failed attempt), and whatever still fails is parked until the flushing
//! caller calls [`WritebackPool::drain`] — the same "hold it until someone
//! can observe it" contract as `Database::take_background_errors`. The
//! flusher then leaves failed pages dirty, so no acknowledged state is ever
//! lost: a deferred write error degrades checkpoint progress, never
//! durability.
//!
//! Shutdown is deterministic: dropping the pool signals the workers, lets
//! them finish *already queued* batches, and joins them — after `drop`
//! returns no background write can land, which is what crash simulation
//! (`Database::simulate_crash`) relies on to capture a stable media image.

use crate::file::FileManager;
use crate::page::Page;
use parking_lot::{Condvar, Mutex};
use rewind_common::{Error, PageId, Result};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Split `items` into maximal runs whose page ids ascend by exactly one —
/// the unit a backend turns into a single device op.
pub fn contiguous_runs_by<T>(items: &[T], pid_of: impl Fn(&T) -> PageId) -> Vec<&[T]> {
    let mut runs = Vec::new();
    if items.is_empty() {
        return runs;
    }
    let mut start = 0;
    for i in 1..items.len() {
        if pid_of(&items[i]).0 != pid_of(&items[i - 1]).0.wrapping_add(1) {
            runs.push(&items[start..i]);
            start = i;
        }
    }
    runs.push(&items[start..]);
    runs
}

/// [`contiguous_runs_by`] specialized to a plain page-id slice.
pub fn contiguous_runs(pids: &[PageId]) -> Vec<&[PageId]> {
    contiguous_runs_by(pids, |p| *p)
}

/// Bounded retry for transiently-failing background writes, mirroring the
/// buffer pool's foreground `with_io_retry` loop (same attempt bound, same
/// `add_io_retry` accounting per failed transient attempt).
const MAX_WRITE_RETRIES: u32 = 8;

#[derive(Default)]
struct WbState {
    queue: VecDeque<Vec<(PageId, Page)>>,
    /// Batches popped from the queue but not yet written back.
    in_flight: usize,
    /// Pages whose background write landed since the last [`WritebackPool::drain`].
    succeeded: Vec<PageId>,
    /// Pages whose background write failed permanently since the last drain.
    failed: Vec<(PageId, Error)>,
    shutdown: bool,
}

struct WbShared {
    backend: Arc<dyn FileManager>,
    state: Mutex<WbState>,
    /// Workers wait here for queued batches (or shutdown).
    work_cv: Condvar,
    /// Submitters (queue full) and drainers wait here for progress.
    done_cv: Condvar,
    /// Queue bound, in batches; `submit` blocks when it is reached so a
    /// fast flusher cannot buffer unbounded dirty-page copies.
    capacity: usize,
}

/// A background writeback thread pool over a [`FileManager`].
///
/// `submit` enqueues a batch of dirty-page copies (blocking when the
/// bounded queue is full), workers drain the queue through
/// [`FileManager::write_pages`], and `drain` waits for quiescence and hands
/// back which pages landed and which failed — see the module docs for why
/// errors defer. Dropping the pool finishes queued work and joins the
/// workers deterministically.
pub struct WritebackPool {
    shared: Arc<WbShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WritebackPool {
    /// Start `workers` background writers over `backend` with a queue bound
    /// of `queue_batches` batches. Both bounds are clamped to at least 1.
    pub fn new(
        backend: Arc<dyn FileManager>,
        workers: usize,
        queue_batches: usize,
    ) -> WritebackPool {
        let shared = Arc::new(WbShared {
            backend,
            state: Mutex::new(WbState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            capacity: queue_batches.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WritebackPool { shared, workers }
    }

    /// Enqueue one batch of page copies for background writeback. Blocks
    /// while the queue is at capacity (backpressure). If the pool is already
    /// shutting down the batch is written synchronously instead, so no
    /// submitted work is ever silently dropped.
    pub fn submit(&self, batch: Vec<(PageId, Page)>) {
        if batch.is_empty() {
            return;
        }
        let shutdown = {
            let mut st = self.shared.state.lock();
            while st.queue.len() >= self.shared.capacity && !st.shutdown {
                self.shared.done_cv.wait(&mut st);
            }
            if !st.shutdown {
                st.queue.push_back(batch);
                self.shared.work_cv.notify_one();
                return;
            }
            true
        };
        if shutdown {
            let outcomes = write_batch_with_retry(&*self.shared.backend, &batch);
            let mut st = self.shared.state.lock();
            record_outcomes(&mut st, outcomes);
            self.shared.done_cv.notify_all();
        }
    }

    /// Wait until every submitted batch has been written back, then return
    /// `(succeeded, failed)` page outcomes accumulated since the previous
    /// drain. Callers clear dirty bits only for `succeeded` pages and leave
    /// `failed` ones dirty for a later flush.
    pub fn drain(&self) -> (Vec<PageId>, Vec<(PageId, Error)>) {
        let mut st = self.shared.state.lock();
        while !st.queue.is_empty() || st.in_flight > 0 {
            self.shared.done_cv.wait(&mut st);
        }
        (
            std::mem::take(&mut st.succeeded),
            std::mem::take(&mut st.failed),
        )
    }
}

impl Drop for WritebackPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
            self.shared.done_cv.notify_all();
        }
        // Workers finish batches already queued, then exit; joining them
        // here is what makes "no background write after drop" deterministic.
        for h in std::mem::take(&mut self.workers) {
            let _ = h.join();
        }
    }
}

fn record_outcomes(st: &mut WbState, outcomes: Vec<(PageId, Result<()>)>) {
    for (pid, res) in outcomes {
        match res {
            Ok(()) => st.succeeded.push(pid),
            Err(e) => st.failed.push((pid, e)),
        }
    }
}

fn worker_loop(shared: &WbShared) {
    loop {
        let batch = {
            let mut st = shared.state.lock();
            loop {
                if let Some(b) = st.queue.pop_front() {
                    st.in_flight += 1;
                    // A queue slot freed: unblock a backpressured submitter.
                    shared.done_cv.notify_all();
                    break b;
                }
                if st.shutdown {
                    return;
                }
                shared.work_cv.wait(&mut st);
            }
        };
        let outcomes = write_batch_with_retry(&*shared.backend, &batch);
        let mut st = shared.state.lock();
        record_outcomes(&mut st, outcomes);
        st.in_flight -= 1;
        shared.done_cv.notify_all();
    }
}

fn write_batch_with_retry(
    backend: &dyn FileManager,
    batch: &[(PageId, Page)],
) -> Vec<(PageId, Result<()>)> {
    let first = backend.write_pages(batch);
    let mut out = Vec::with_capacity(batch.len());
    for ((pid, page), mut res) in batch.iter().zip(first) {
        let mut attempt = 0u32;
        while let Err(e) = &res {
            if !e.is_transient() || attempt >= MAX_WRITE_RETRIES {
                break;
            }
            attempt += 1;
            backend.io_stats().add_io_retry();
            std::thread::sleep(std::time::Duration::from_micros(10u64 << attempt.min(6)));
            // Retries are scalar: one already-failed page, one device op.
            res = backend.write_page(*pid, page);
        }
        out.push((*pid, res));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::MemFileManager;
    use crate::page::PageType;
    use crate::FaultInjector;
    use rewind_common::{Lsn, ObjectId};

    fn sample_page(pid: PageId) -> Page {
        let mut p = Page::formatted(pid, ObjectId(7), PageType::Heap);
        p.set_page_lsn(Lsn(4096));
        p.insert_record(0, b"batched").unwrap();
        p
    }

    #[test]
    fn runs_split_on_gaps() {
        let pids: Vec<PageId> = [1u64, 2, 3, 7, 8, 10].into_iter().map(PageId).collect();
        let runs = contiguous_runs(&pids);
        let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![3, 2, 1]);
        assert_eq!(runs[0][0], PageId(1));
        assert_eq!(runs[2][0], PageId(10));
        assert!(contiguous_runs(&[]).is_empty());
        assert_eq!(contiguous_runs(&[PageId(5)]).len(), 1);
    }

    #[test]
    fn vectored_read_coalesces_runs_and_keeps_per_page_accounting() {
        let fm = MemFileManager::new();
        for pid in [1u64, 2, 3, 7, 8] {
            fm.write_page(PageId(pid), &sample_page(PageId(pid)))
                .unwrap();
        }
        let before = fm.io_stats().snapshot();
        let pids: Vec<PageId> = [1u64, 2, 3, 7, 8].into_iter().map(PageId).collect();
        let got = fm.read_pages(&pids);
        assert_eq!(got.len(), 5);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().page_id(), pids[i]);
        }
        let d = fm.io_stats().snapshot().delta(before);
        assert_eq!(d.page_reads, 5, "per-page reads unchanged");
        assert_eq!(d.vectored_read_ops, 2, "two contiguous runs, two ops");
    }

    #[test]
    fn batched_write_coalesces_and_reads_back() {
        let fm = MemFileManager::new();
        let batch: Vec<(PageId, Page)> = [4u64, 5, 6, 9]
            .into_iter()
            .map(|p| (PageId(p), sample_page(PageId(p))))
            .collect();
        let before = fm.io_stats().snapshot();
        assert!(fm.write_pages(&batch).into_iter().all(|r| r.is_ok()));
        let d = fm.io_stats().snapshot().delta(before);
        assert_eq!(d.page_writes, 4);
        assert_eq!(d.batched_write_ops, 2);
        assert_eq!(
            fm.read_page(PageId(6)).unwrap().record(0).unwrap(),
            b"batched"
        );
    }

    /// A backend that implements only the scalar surface and inherits the
    /// provided batch entry points.
    struct ScalarOnly(MemFileManager);

    impl FileManager for ScalarOnly {
        fn read_page(&self, pid: PageId) -> Result<Page> {
            self.0.read_page(pid)
        }
        fn read_page_seq(&self, pid: PageId) -> Result<Page> {
            self.0.read_page_seq(pid)
        }
        fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
            self.0.write_page(pid, page)
        }
        fn write_page_seq(&self, pid: PageId, page: &Page) -> Result<()> {
            self.0.write_page_seq(pid, page)
        }
        fn page_count(&self) -> u64 {
            self.0.page_count()
        }
        fn grow_to(&self, count: u64) -> Result<()> {
            self.0.grow_to(count)
        }
        fn sync(&self) -> Result<()> {
            self.0.sync()
        }
        fn io_stats(&self) -> &Arc<rewind_common::IoStats> {
            self.0.io_stats()
        }
    }

    #[test]
    fn provided_batch_methods_are_the_scalar_loop() {
        let fm = ScalarOnly(MemFileManager::new());
        let batch: Vec<(PageId, Page)> = [4u64, 5, 6, 9]
            .into_iter()
            .map(|p| (PageId(p), sample_page(PageId(p))))
            .collect();
        assert!(fm.write_pages(&batch).into_iter().all(|r| r.is_ok()));
        let pids: Vec<PageId> = batch.iter().map(|(p, _)| *p).collect();
        let got = fm.read_pages(&pids);
        for (r, pid) in got.iter().zip(&pids) {
            assert_eq!(r.as_ref().unwrap().page_id(), *pid);
        }
        let s = fm.io_stats().snapshot();
        assert_eq!((s.page_writes, s.page_reads), (4, 4), "per-page accounting");
        assert_eq!(
            (s.batched_write_ops, s.vectored_read_ops),
            (0, 0),
            "only a backend's own batch entry points count device-op runs"
        );
    }

    #[test]
    fn mid_batch_fault_fails_only_that_page() {
        let fi = FaultInjector::new(11);
        for pid in 1u64..=4 {
            fi.write_page(PageId(pid), &sample_page(PageId(pid)))
                .unwrap();
        }
        fi.arm_eio_reads(1);
        let pids: Vec<PageId> = (1u64..=4).map(PageId).collect();
        let got = fi.read_pages(&pids);
        assert!(got[0].is_err(), "first token hits the first page");
        assert!(got[0].as_ref().err().unwrap().is_transient());
        assert!(got[1..].iter().all(|r| r.is_ok()), "rest of batch survives");
    }

    #[test]
    fn writeback_pool_lands_batches_and_drains_clean() {
        let fm: Arc<dyn FileManager> = Arc::new(MemFileManager::new());
        let pool = WritebackPool::new(Arc::clone(&fm), 2, 4);
        for base in [10u64, 20, 30] {
            let batch: Vec<(PageId, Page)> = (base..base + 3)
                .map(|p| (PageId(p), sample_page(PageId(p))))
                .collect();
            pool.submit(batch);
        }
        let (ok, failed) = pool.drain();
        assert_eq!(ok.len(), 9);
        assert!(failed.is_empty());
        assert_eq!(fm.io_stats().snapshot().page_writes, 9);
        assert!(fm.read_page(PageId(31)).unwrap().record(0).is_ok());
        // A second drain with no new work returns empty immediately.
        let (ok2, failed2) = pool.drain();
        assert!(ok2.is_empty() && failed2.is_empty());
    }

    #[test]
    fn writeback_retries_transient_and_defers_nothing_on_recovery() {
        let fi = Arc::new(FaultInjector::new(5));
        let backend: Arc<dyn FileManager> = fi.clone();
        let pool = WritebackPool::new(backend, 1, 4);
        fi.arm_eio_writes(2);
        pool.submit(vec![(PageId(3), sample_page(PageId(3)))]);
        let (ok, failed) = pool.drain();
        assert_eq!(ok, vec![PageId(3)], "bounded retry rides out the EIOs");
        assert!(failed.is_empty());
        assert_eq!(fi.io_stats().snapshot().io_retries, 2);
    }

    #[test]
    fn drop_joins_workers_after_finishing_queued_work() {
        let fm = Arc::new(MemFileManager::new());
        let backend: Arc<dyn FileManager> = fm.clone();
        {
            let pool = WritebackPool::new(backend, 1, 8);
            for pid in 1u64..=16 {
                pool.submit(vec![(PageId(pid), sample_page(PageId(pid)))]);
            }
            // No drain: drop must finish the queue before returning.
        }
        assert_eq!(fm.io_stats().snapshot().page_writes, 16);
        let after = fm.io_stats().snapshot().page_writes;
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            fm.io_stats().snapshot().page_writes,
            after,
            "no background write lands after drop returns"
        );
    }
}
