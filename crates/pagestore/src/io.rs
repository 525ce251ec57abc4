//! Batched I/O: contiguous-run coalescing.
//!
//! Every media access goes through the one [`FileManager`](crate::FileManager) trait. Its scalar
//! `read_page`/`write_page` are one call and — under a modeled device — one
//! device round trip each, which is faithful to the paper's cost model but
//! leaves batch-shaped work (cold as-of scan prefetch, the buffer pool's
//! flush chunks) paying one modeled seek per page even when the pages are
//! physically contiguous. The trait's two batch entry points fix that:
//!
//! * [`FileManager::read_pages`](crate::FileManager::read_pages) — read a batch of pages, returning one
//!   `Result` per page. Backends coalesce maximal *contiguous ascending
//!   runs* of page ids into one device op each (counted in
//!   [`IoStats::add_vectored_read_ops`](rewind_common::IoStats::add_vectored_read_ops)).
//! * [`FileManager::write_pages`](crate::FileManager::write_pages) — write a batch, again with per-page
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

use rewind_common::PageId;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{FileManager, MemFileManager};
    use crate::page::{Page, PageType};
    use crate::FaultInjector;
    use rewind_common::{Lsn, ObjectId, Result};
    use std::sync::Arc;

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
}
