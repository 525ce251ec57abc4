//! File managers: random page I/O with accounting.
//!
//! The buffer manager sits on top of a [`FileManager`] — the one media
//! trait: scalar page reads and writes, plus the batch entry points
//! `read_pages`/`write_pages` whose provided bodies are the scalar loop (see
//! the [`crate::io`] module docs for the batching cost model). Two
//! implementations are provided: [`MemFileManager`] (the default for tests and benchmarks —
//! all I/O is counted in an [`IoStats`] and costed through a
//! [`rewind_common::MediaModel`], so media behaviour is modeled rather than
//! endured) and [`DiskFileManager`] (real files, for durability-oriented
//! integration tests).
//!
//! # Media hardening: checksum + torn-write trailer
//!
//! Both implementations stamp every outgoing page image twice — first the
//! torn-write trailer (the low 32 bits of the pageLSN mirrored into the
//! page's last 4 bytes), then the CRC-32C checksum covering the whole image
//! including that trailer — and verify the checksum on every incoming read.
//! A mismatch is classified by the trailer (see [`Page::verify_checksum`]):
//! trailer disagreeing with the header pageLSN means a torn multi-sector
//! write ([`rewind_common::CorruptionKind::TornPage`]); a consistent trailer
//! means whole-image damage
//! ([`rewind_common::CorruptionKind::PageChecksum`]). Either way the read
//! fails with a typed error and the detection is counted in
//! [`IoStats::add_corruption_detected`] — the buffer pool above decides
//! whether to salvage the page from its per-page log chain. For
//! deterministic fault injection against either backend, wrap it in
//! [`crate::FaultInjector`].

use crate::io::{contiguous_runs, contiguous_runs_by};
use crate::page::{Page, PAGE_SIZE};
use parking_lot::RwLock;
use rewind_common::{Error, IoStats, PageId, Result};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Random page I/O against a database file.
pub trait FileManager: Send + Sync {
    /// Read page `pid`. Reading a page that was never written returns an
    /// all-zero page. Counted as one random page read.
    fn read_page(&self, pid: PageId) -> Result<Page>;

    /// Read page `pid` as part of a large sequential pass (backup, restore).
    /// Counted as sequential bytes, not a random I/O.
    fn read_page_seq(&self, pid: PageId) -> Result<Page>;

    /// Read every page in `pids`, returning one result per requested page,
    /// in order. A failed page occupies only its own slot; the rest of the
    /// batch still succeeds (partial-batch results).
    ///
    /// The provided body is the plain scalar loop and counts no vectored
    /// op; the real backends override it to coalesce each contiguous run
    /// into one device op. Per-page accounting (`page_reads`, corruption
    /// detection, fault-token consumption) is identical either way, so
    /// callers may mix scalar and batch calls without skewing any gated
    /// counter.
    fn read_pages(&self, pids: &[PageId]) -> Vec<Result<Page>> {
        pids.iter().map(|&pid| self.read_page(pid)).collect()
    }

    /// Write page `pid`. Counted as one random page write.
    fn write_page(&self, pid: PageId, page: &Page) -> Result<()>;

    /// Write every `(page id, page)` pair in `batch`, returning one result
    /// per page, in order. Like [`FileManager::read_pages`], failures are
    /// per-page and the provided body is the scalar loop.
    fn write_pages(&self, batch: &[(PageId, Page)]) -> Vec<Result<()>> {
        batch
            .iter()
            .map(|(pid, page)| self.write_page(*pid, page))
            .collect()
    }

    /// Write page `pid` as part of a large sequential pass (restore).
    fn write_page_seq(&self, pid: PageId, page: &Page) -> Result<()>;

    /// Number of pages the file currently holds (high-water mark).
    fn page_count(&self) -> u64;

    /// Extend the file to hold at least `count` pages of zeroes.
    fn grow_to(&self, count: u64) -> Result<()>;

    /// Durably flush outstanding writes.
    fn sync(&self) -> Result<()>;

    /// The I/O accounting shared by this file.
    fn io_stats(&self) -> &Arc<IoStats>;
}

/// An in-memory "file": a vector of page images.
///
/// This is the primary backend for benchmarks: it is fast and deterministic,
/// and all media behaviour is modeled through the attached [`IoStats`].
pub struct MemFileManager {
    pages: RwLock<Vec<Option<Box<[u8; PAGE_SIZE]>>>>,
    stats: Arc<IoStats>,
    /// Endured (not just modeled) per-device-op latency in microseconds —
    /// the page-side analogue of `LogConfig::flush_delay_us`. Zero (the
    /// default) sleeps nowhere. When set, each random device op — one
    /// scalar `read_page`/`write_page`, or one *contiguous run* of a
    /// vectored batch — stalls exactly once, which is what makes batching
    /// visible in wall-clock benches without touching any counter.
    device_delay_us: AtomicU64,
}

impl MemFileManager {
    /// An empty in-memory file with fresh I/O counters.
    pub fn new() -> Self {
        Self::with_stats(Arc::new(IoStats::new()))
    }

    /// An empty in-memory file sharing the given counters.
    pub fn with_stats(stats: Arc<IoStats>) -> Self {
        MemFileManager {
            pages: RwLock::new(Vec::new()),
            stats,
            device_delay_us: AtomicU64::new(0),
        }
    }

    /// Set the endured per-device-op latency (see the field docs). Benches
    /// use this to make the one-stall-per-batch model measurable.
    pub fn set_device_delay_us(&self, us: u64) {
        self.device_delay_us.store(us, Ordering::Relaxed);
    }

    /// One device round trip: sleep the configured delay, if any.
    fn device_stall(&self) {
        let us = self.device_delay_us.load(Ordering::Relaxed);
        if us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }

    /// The one accounting funnel for reads: random reads count one page
    /// read, sequential reads count page-sized sequential bytes; both then
    /// share `read_impl`. Every trait entry point (scalar and vectored)
    /// routes through here.
    fn read_counted(&self, pid: PageId, seq: bool) -> Result<Page> {
        if seq {
            self.stats.add_seq_data_bytes(PAGE_SIZE as u64);
        } else {
            self.stats.add_page_reads(1);
        }
        self.read_impl(pid)
    }

    /// Write-side accounting funnel, mirror of [`MemFileManager::read_counted`].
    fn write_counted(&self, pid: PageId, page: &Page, seq: bool) -> Result<()> {
        if seq {
            self.stats.add_seq_data_bytes(PAGE_SIZE as u64);
        } else {
            self.stats.add_page_writes(1);
        }
        self.write_impl(pid, page)
    }

    fn read_impl(&self, pid: PageId) -> Result<Page> {
        if !pid.is_valid() {
            return Err(Error::InvalidPage(pid));
        }
        let pages = self.pages.read();
        let page = match pages.get(pid.0 as usize) {
            Some(Some(img)) => {
                let p = Page::from_image(&img[..])?;
                if let Err(e) = p.verify_checksum() {
                    self.stats.add_corruption_detected();
                    return Err(e);
                }
                p
            }
            _ => Page::zeroed(),
        };
        Ok(page)
    }

    fn write_impl(&self, pid: PageId, page: &Page) -> Result<()> {
        if !pid.is_valid() {
            return Err(Error::InvalidPage(pid));
        }
        let mut stamped = page.clone();
        stamped.stamp_trailer();
        stamped.stamp_checksum();
        let mut pages = self.pages.write();
        let idx = pid.0 as usize;
        if pages.len() <= idx {
            pages.resize_with(idx + 1, || None);
        }
        pages[idx] = Some(Box::new(*stamped.image()));
        Ok(())
    }

    /// A page-by-page copy of `src` with fresh counters: every page is
    /// read with `read_page_seq` and written with `write_page_seq`, so both
    /// files count the copy as sequential bytes. A page that reads back all
    /// zero (never written) stays unwritten, and the copy holds as many
    /// pages as `src` did when the copy began. Backup copies a live file
    /// this way, whatever its backend, and restore copies the backup.
    pub fn copy_of(src: &dyn FileManager) -> Result<MemFileManager> {
        let copy = MemFileManager::new();
        let count = src.page_count();
        copy.grow_to(count)?;
        for pid in (0..count).map(PageId) {
            let page = src.read_page_seq(pid)?;
            if page.image().iter().any(|&b| b != 0) {
                copy.write_page_seq(pid, &page)?;
            }
        }
        Ok(copy)
    }

    /// Fault-injection hook: the raw stored image of `pid`, if one was ever
    /// written. Bypasses checksum verification and all accounting.
    pub fn raw_image(&self, pid: PageId) -> Option<Box<[u8; PAGE_SIZE]>> {
        self.pages.read().get(pid.0 as usize).cloned().flatten()
    }

    /// Fault-injection hook: overwrite the raw stored image of `pid` without
    /// re-stamping trailer or checksum — this is how [`crate::FaultInjector`]
    /// plants damaged images "at rest".
    pub fn store_raw(&self, pid: PageId, img: Box<[u8; PAGE_SIZE]>) {
        let mut pages = self.pages.write();
        let idx = pid.0 as usize;
        if pages.len() <= idx {
            pages.resize_with(idx + 1, || None);
        }
        pages[idx] = Some(img);
    }
}

impl Default for MemFileManager {
    fn default() -> Self {
        Self::new()
    }
}

impl FileManager for MemFileManager {
    fn read_page(&self, pid: PageId) -> Result<Page> {
        self.device_stall();
        self.read_counted(pid, false)
    }

    fn read_page_seq(&self, pid: PageId) -> Result<Page> {
        // Sequential passes model bandwidth, not seeks: no per-op stall.
        self.read_counted(pid, true)
    }

    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        self.device_stall();
        self.write_counted(pid, page, false)
    }

    fn write_page_seq(&self, pid: PageId, page: &Page) -> Result<()> {
        self.write_counted(pid, page, true)
    }

    fn page_count(&self) -> u64 {
        self.pages.read().len() as u64
    }

    fn grow_to(&self, count: u64) -> Result<()> {
        let mut pages = self.pages.write();
        if pages.len() < count as usize {
            pages.resize_with(count as usize, || None);
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }

    fn io_stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn read_pages(&self, pids: &[PageId]) -> Vec<Result<Page>> {
        let mut out = Vec::with_capacity(pids.len());
        for run in contiguous_runs(pids) {
            // One device op per contiguous run: one vectored-op count, one
            // modeled stall — then per-page accounting exactly as scalar.
            self.stats.add_vectored_read_ops(1);
            self.device_stall();
            for &pid in run {
                out.push(self.read_counted(pid, false));
            }
        }
        out
    }

    fn write_pages(&self, batch: &[(PageId, Page)]) -> Vec<Result<()>> {
        let mut out = Vec::with_capacity(batch.len());
        for run in contiguous_runs_by(batch, |(pid, _)| *pid) {
            self.stats.add_batched_write_ops(1);
            self.device_stall();
            for (pid, page) in run {
                out.push(self.write_counted(*pid, page, false));
            }
        }
        out
    }
}

/// A real on-disk database file.
pub struct DiskFileManager {
    file: File,
    page_count: AtomicU64,
    stats: Arc<IoStats>,
}

impl DiskFileManager {
    /// Open (or create) the database file at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(DiskFileManager {
            file,
            page_count: AtomicU64::new(len / PAGE_SIZE as u64),
            stats: Arc::new(IoStats::new()),
        })
    }

    /// Parse one page image and verify its checksum, counting a detection
    /// on mismatch — shared by the scalar and vectored read paths.
    fn parse_verified(&self, buf: &[u8]) -> Result<Page> {
        let p = Page::from_image(buf)?;
        if let Err(e) = p.verify_checksum() {
            self.stats.add_corruption_detected();
            return Err(e);
        }
        Ok(p)
    }

    /// Read page-aligned bytes at `off`, tolerating EOF (the unread tail
    /// stays zeroed, matching never-written-pages-read-back-zeroed).
    fn read_raw_at(&self, mut buf: &mut [u8], mut off: u64) -> Result<()> {
        while !buf.is_empty() {
            match self.file.read_at(buf, off) {
                Ok(0) => break,
                Ok(n) => {
                    buf = &mut buf[n..];
                    off += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn read_impl(&self, pid: PageId) -> Result<Page> {
        if !pid.is_valid() {
            return Err(Error::InvalidPage(pid));
        }
        let mut buf = [0u8; PAGE_SIZE];
        if pid.0 < self.page_count.load(Ordering::Acquire) {
            self.read_raw_at(&mut buf, pid.0 * PAGE_SIZE as u64)?;
        }
        self.parse_verified(&buf)
    }

    fn write_impl(&self, pid: PageId, page: &Page) -> Result<()> {
        if !pid.is_valid() {
            return Err(Error::InvalidPage(pid));
        }
        let mut stamped = page.clone();
        stamped.stamp_trailer();
        stamped.stamp_checksum();
        self.file
            .write_all_at(&stamped.image()[..], pid.0 * PAGE_SIZE as u64)?;
        self.page_count.fetch_max(pid.0 + 1, Ordering::AcqRel);
        Ok(())
    }

    /// Accounting funnel for reads; see `MemFileManager::read_counted`.
    fn read_counted(&self, pid: PageId, seq: bool) -> Result<Page> {
        if seq {
            self.stats.add_seq_data_bytes(PAGE_SIZE as u64);
        } else {
            self.stats.add_page_reads(1);
        }
        self.read_impl(pid)
    }

    /// Accounting funnel for writes; see `MemFileManager::write_counted`.
    fn write_counted(&self, pid: PageId, page: &Page, seq: bool) -> Result<()> {
        if seq {
            self.stats.add_seq_data_bytes(PAGE_SIZE as u64);
        } else {
            self.stats.add_page_writes(1);
        }
        self.write_impl(pid, page)
    }
}

impl FileManager for DiskFileManager {
    fn read_page(&self, pid: PageId) -> Result<Page> {
        self.read_counted(pid, false)
    }

    fn read_page_seq(&self, pid: PageId) -> Result<Page> {
        self.read_counted(pid, true)
    }

    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        self.write_counted(pid, page, false)
    }

    fn write_page_seq(&self, pid: PageId, page: &Page) -> Result<()> {
        self.write_counted(pid, page, true)
    }

    fn page_count(&self) -> u64 {
        self.page_count.load(Ordering::Acquire)
    }

    fn grow_to(&self, count: u64) -> Result<()> {
        let cur = self.page_count.load(Ordering::Acquire);
        if count > cur {
            self.file.set_len(count * PAGE_SIZE as u64)?;
            self.page_count.fetch_max(count, Ordering::AcqRel);
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn io_stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn read_pages(&self, pids: &[PageId]) -> Vec<Result<Page>> {
        let mut out = Vec::with_capacity(pids.len());
        for run in contiguous_runs(pids) {
            if run.iter().any(|p| !p.is_valid()) {
                // Invalid ids have no device offset; take the scalar path so
                // each page gets its own typed error.
                for &pid in run {
                    out.push(self.read_counted(pid, false));
                }
                continue;
            }
            self.stats.add_vectored_read_ops(1);
            // One pread for the whole run; the tail past EOF stays zeroed,
            // exactly like a scalar read of a never-written page.
            let mut buf = vec![0u8; run.len() * PAGE_SIZE];
            let bulk = if run[0].0 < self.page_count.load(Ordering::Acquire) {
                self.read_raw_at(&mut buf, run[0].0 * PAGE_SIZE as u64)
            } else {
                Ok(())
            };
            match bulk {
                Ok(()) => {
                    for (i, _) in run.iter().enumerate() {
                        self.stats.add_page_reads(1);
                        out.push(self.parse_verified(&buf[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]));
                    }
                }
                Err(_) => {
                    // The bulk pread failed as a unit; retry page-by-page so
                    // errors (and any salvageable pages) stay per-page.
                    for &pid in run {
                        out.push(self.read_counted(pid, false));
                    }
                }
            }
        }
        out
    }

    fn write_pages(&self, batch: &[(PageId, Page)]) -> Vec<Result<()>> {
        let mut out = Vec::with_capacity(batch.len());
        for run in contiguous_runs_by(batch, |(pid, _)| *pid) {
            let first = run[0].0;
            if !first.is_valid() {
                for (pid, page) in run {
                    out.push(self.write_counted(*pid, page, false));
                }
                continue;
            }
            self.stats.add_batched_write_ops(1);
            let mut buf = vec![0u8; run.len() * PAGE_SIZE];
            for (i, (_, page)) in run.iter().enumerate() {
                let mut stamped = page.clone();
                stamped.stamp_trailer();
                stamped.stamp_checksum();
                buf[i * PAGE_SIZE..(i + 1) * PAGE_SIZE].copy_from_slice(&stamped.image()[..]);
            }
            match self.file.write_all_at(&buf, first.0 * PAGE_SIZE as u64) {
                Ok(()) => {
                    self.page_count
                        .fetch_max(first.0 + run.len() as u64, Ordering::AcqRel);
                    for _ in run {
                        self.stats.add_page_writes(1);
                        out.push(Ok(()));
                    }
                }
                Err(_) => {
                    for (pid, page) in run {
                        out.push(self.write_counted(*pid, page, false));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;
    use rewind_common::ObjectId;

    fn roundtrip(fm: &dyn FileManager) {
        let mut p = Page::formatted(PageId(3), ObjectId(7), PageType::Heap);
        p.insert_record(0, b"persisted").unwrap();
        fm.write_page(PageId(3), &p).unwrap();
        let q = fm.read_page(PageId(3)).unwrap();
        assert_eq!(q.record(0).unwrap(), b"persisted");
        assert_eq!(q.page_id(), PageId(3));
        // never-written page reads back zeroed
        let z = fm.read_page(PageId(1)).unwrap();
        assert_eq!(z.page_lsn(), rewind_common::Lsn::NULL);
        assert!(fm.page_count() >= 4);
    }

    #[test]
    fn mem_roundtrip_and_stats() {
        let fm = MemFileManager::new();
        roundtrip(&fm);
        let s = fm.io_stats().snapshot();
        assert_eq!(s.page_writes, 1);
        assert_eq!(s.page_reads, 2);
        fm.read_page_seq(PageId(3)).unwrap();
        let s2 = fm.io_stats().snapshot();
        assert_eq!(s2.page_reads, 2, "seq read must not count as random");
        assert_eq!(s2.seq_data_bytes, PAGE_SIZE as u64);
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rewind-fm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.db");
        let _ = std::fs::remove_file(&path);
        {
            let fm = DiskFileManager::open(&path).unwrap();
            roundtrip(&fm);
            fm.sync().unwrap();
        }
        // reopen and verify persistence
        let fm = DiskFileManager::open(&path).unwrap();
        let q = fm.read_page(PageId(3)).unwrap();
        assert_eq!(q.record(0).unwrap(), b"persisted");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn grow_and_invalid() {
        let fm = MemFileManager::new();
        fm.grow_to(10).unwrap();
        assert_eq!(fm.page_count(), 10);
        fm.grow_to(5).unwrap();
        assert_eq!(fm.page_count(), 10, "grow_to never shrinks");
        assert!(fm.read_page(PageId::INVALID).is_err());
        assert!(fm.write_page(PageId::INVALID, &Page::zeroed()).is_err());
    }

    #[test]
    fn copy_of_is_a_sequential_copy_that_later_writes_do_not_reach() {
        let fm = MemFileManager::new();
        let p = Page::formatted(PageId(2), ObjectId(1), PageType::Heap);
        fm.write_page(PageId(2), &p).unwrap();
        fm.grow_to(5).unwrap();
        let io0 = fm.io_stats().snapshot();
        let copy = MemFileManager::copy_of(&fm).unwrap();
        let read = fm.io_stats().snapshot().delta(io0);
        assert_eq!(read.seq_data_bytes, 5 * PAGE_SIZE as u64, "every page read");
        assert_eq!(read.page_reads, 0, "as sequential bytes, not random reads");
        let written = copy.io_stats().snapshot();
        assert_eq!(
            written.seq_data_bytes, PAGE_SIZE as u64,
            "one page held data"
        );
        assert_eq!(copy.page_count(), 5);
        assert!(
            copy.raw_image(PageId(3)).is_none(),
            "a zero page stays unwritten"
        );

        let p2 = Page::formatted(PageId(2), ObjectId(9), PageType::Heap);
        fm.write_page(PageId(2), &p2).unwrap();
        assert_eq!(fm.read_page(PageId(2)).unwrap().object_id(), ObjectId(9));
        assert_eq!(copy.read_page(PageId(2)).unwrap().object_id(), ObjectId(1));
    }
}
