//! Deterministic media-fault injection.
//!
//! [`FaultInjector`] wraps a [`MemFileManager`] and implements
//! [`FileManager`], so a whole database can be built on top of it
//! (`Database::create_on`) and subjected to the fault classes the media
//! hardening defends against:
//!
//! * **bit flip at rest** ([`FaultInjector::flip_bit`]) — one bit of a stored
//!   page image is inverted; the next read fails its CRC-32C with a
//!   consistent trailer and classifies as
//!   [`CorruptionKind::PageChecksum`](rewind_common::CorruptionKind).
//! * **torn write** ([`FaultInjector::arm_torn_write`]) — the next write to a
//!   chosen page persists only a prefix ending on a 512 B sector boundary;
//!   the old suffix (including the old trailer) survives, so the next read
//!   classifies as [`CorruptionKind::TornPage`](rewind_common::CorruptionKind).
//! * **short read / lost sectors** ([`FaultInjector::zero_tail`]) — the tail
//!   of a stored image from a sector boundary onward reads back as zeroes,
//!   as if the device returned fewer bytes than asked.
//! * **transient EIO** ([`FaultInjector::arm_eio_reads`] /
//!   [`FaultInjector::arm_eio_writes`]) — the next *n* random page reads or
//!   writes fail with [`Error::Io`]; the device "recovers" once the tokens
//!   are spent, so bounded retry in the layers above succeeds.
//!
//! All randomized choices (which bit, which sector boundary) come from a
//! seeded xorshift generator, so a run is a pure function of its seed — the
//! property the corruption-torture suite and its CI gate rely on.

use crate::file::{FileManager, MemFileManager};
use crate::page::{Page, PAGE_SIZE, TRAILER_SIZE};
use crate::HEADER_SIZE;
use parking_lot::Mutex;
use rewind_common::{Error, IoStats, PageId, Result};
use std::sync::Arc;

/// Device sector size: torn writes and short reads happen on these
/// boundaries, matching the atomic-write granularity of real disks.
pub const SECTOR_SIZE: usize = 512;

const SECTORS_PER_PAGE: usize = PAGE_SIZE / SECTOR_SIZE;

/// A seeded xorshift64 generator — deterministic, dependency-free.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        // xorshift has a fixed point at 0; displace any seed through a
        // splitmix-style constant so every seed (including 0) is usable.
        XorShift(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform-ish value in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Default)]
struct FaultPlan {
    /// Next write to this page persists only a prefix of `cut` bytes.
    torn_write: Option<(PageId, usize)>,
    /// Fail this many upcoming random page reads with a transient EIO.
    eio_reads: u64,
    /// Fail this many upcoming random page writes with a transient EIO.
    eio_writes: u64,
}

/// A [`FileManager`] that injects deterministic, seed-driven media faults
/// into an in-memory backing file. See the module docs for the fault
/// classes.
pub struct FaultInjector {
    inner: MemFileManager,
    rng: Mutex<XorShift>,
    plan: Mutex<FaultPlan>,
}

impl FaultInjector {
    /// A fresh in-memory file behind a fault injector seeded with `seed`.
    pub fn new(seed: u64) -> FaultInjector {
        Self::with_stats(seed, Arc::new(IoStats::new()))
    }

    /// As [`FaultInjector::new`], sharing the given I/O counters.
    pub fn with_stats(seed: u64, stats: Arc<IoStats>) -> FaultInjector {
        FaultInjector {
            inner: MemFileManager::with_stats(stats),
            rng: Mutex::new(XorShift::new(seed)),
            plan: Mutex::new(FaultPlan::default()),
        }
    }

    /// Invert one seed-chosen bit of `pid`'s stored image, inside the page
    /// body so the next read deterministically classifies as
    /// `PageChecksum` (header and trailer stay intact). Returns `false` if
    /// the page was never written.
    pub fn flip_bit(&self, pid: PageId) -> bool {
        let Some(mut img) = self.inner.raw_image(pid) else {
            return false;
        };
        let mut rng = self.rng.lock();
        let body = PAGE_SIZE - HEADER_SIZE - TRAILER_SIZE;
        let byte = HEADER_SIZE + rng.below(body);
        let bit = rng.below(8);
        img[byte] ^= 1 << bit;
        self.inner.store_raw(pid, img);
        true
    }

    /// Zero `pid`'s stored image from a seed-chosen sector boundary onward,
    /// as if a short read lost the tail sectors. The trailer is always in
    /// the zeroed region, so the next read classifies as `TornPage`.
    /// Returns `false` if the page was never written.
    pub fn zero_tail(&self, pid: PageId) -> bool {
        let Some(mut img) = self.inner.raw_image(pid) else {
            return false;
        };
        let cut = (1 + self.rng.lock().below(SECTORS_PER_PAGE - 1)) * SECTOR_SIZE;
        img[cut..].fill(0);
        self.inner.store_raw(pid, img);
        true
    }

    /// Arm a torn write: the next write to `pid` persists only a seed-chosen
    /// prefix (at least one sector, never the whole page); the previous
    /// image's suffix survives underneath.
    pub fn arm_torn_write(&self, pid: PageId) {
        let cut = (1 + self.rng.lock().below(SECTORS_PER_PAGE - 1)) * SECTOR_SIZE;
        self.plan.lock().torn_write = Some((pid, cut));
    }

    /// Fail the next `n` random page reads with a transient [`Error::Io`].
    pub fn arm_eio_reads(&self, n: u64) {
        self.plan.lock().eio_reads = n;
    }

    /// Fail the next `n` random page writes with a transient [`Error::Io`].
    pub fn arm_eio_writes(&self, n: u64) {
        self.plan.lock().eio_writes = n;
    }

    /// The wrapped in-memory file, for tests that need direct access.
    pub fn inner(&self) -> &MemFileManager {
        &self.inner
    }

    fn take_eio_read(&self) -> bool {
        let mut plan = self.plan.lock();
        if plan.eio_reads > 0 {
            plan.eio_reads -= 1;
            true
        } else {
            false
        }
    }

    fn take_eio_write(&self) -> bool {
        let mut plan = self.plan.lock();
        if plan.eio_writes > 0 {
            plan.eio_writes -= 1;
            true
        } else {
            false
        }
    }

    fn take_torn(&self, pid: PageId) -> Option<usize> {
        let mut plan = self.plan.lock();
        match plan.torn_write {
            Some((p, cut)) if p == pid => {
                plan.torn_write = None;
                Some(cut)
            }
            _ => None,
        }
    }

    /// The one fault gate for random reads: consume an EIO token (failing
    /// *before* any accounting, so an injected EIO never counts as a page
    /// read) or delegate. Scalar `read_page` and each page of a vectored
    /// batch route through identical token consumption.
    fn read_faulted(&self, pid: PageId) -> Option<Error> {
        if self.take_eio_read() {
            Some(Error::Io(format!("injected transient read error on {pid}")))
        } else {
            None
        }
    }

    /// The one fault gate for random writes: an EIO token fails the write
    /// outright; an armed tear persists only a sector prefix. Returns
    /// `None` when the write should pass through clean.
    fn write_faulted(&self, pid: PageId, page: &Page) -> Option<Result<()>> {
        if self.take_eio_write() {
            return Some(Err(Error::Io(format!(
                "injected transient write error on {pid}"
            ))));
        }
        if let Some(cut) = self.take_torn(pid) {
            // Persist only the prefix of the fully stamped new image; the
            // old suffix (or zeroes for a virgin page) survives underneath —
            // exactly what a power cut mid-write leaves behind.
            let mut stamped = page.clone();
            stamped.stamp_trailer();
            stamped.stamp_checksum();
            let mut img = self
                .inner
                .raw_image(pid)
                .unwrap_or_else(|| Box::new([0u8; PAGE_SIZE]));
            img[..cut].copy_from_slice(&stamped.image()[..cut]);
            self.inner.io_stats().add_page_writes(1);
            self.inner.store_raw(pid, img);
            return Some(Ok(()));
        }
        None
    }
}

impl FileManager for FaultInjector {
    fn read_page(&self, pid: PageId) -> Result<Page> {
        if let Some(e) = self.read_faulted(pid) {
            return Err(e);
        }
        self.inner.read_page(pid)
    }

    fn read_page_seq(&self, pid: PageId) -> Result<Page> {
        self.inner.read_page_seq(pid)
    }

    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        if let Some(res) = self.write_faulted(pid, page) {
            return res;
        }
        self.inner.write_page(pid, page)
    }

    fn write_page_seq(&self, pid: PageId, page: &Page) -> Result<()> {
        self.inner.write_page_seq(pid, page)
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn grow_to(&self, count: u64) -> Result<()> {
        self.inner.grow_to(count)
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn io_stats(&self) -> &Arc<IoStats> {
        self.inner.io_stats()
    }

    fn read_pages(&self, pids: &[PageId]) -> Vec<Result<Page>> {
        // Consume fault tokens page by page, exactly as N scalar reads
        // would, and hand the maximal clean segments to the inner backend
        // so run coalescing (and vectored-op accounting) survives fault
        // injection. A faulted page fails only its own slot.
        let mut out: Vec<Result<Page>> = Vec::with_capacity(pids.len());
        let mut seg_start = 0;
        for (i, &pid) in pids.iter().enumerate() {
            if let Some(e) = self.read_faulted(pid) {
                if seg_start < i {
                    out.extend(self.inner.read_pages(&pids[seg_start..i]));
                }
                out.push(Err(e));
                seg_start = i + 1;
            }
        }
        if seg_start < pids.len() {
            out.extend(self.inner.read_pages(&pids[seg_start..]));
        }
        out
    }

    fn write_pages(&self, batch: &[(PageId, Page)]) -> Vec<Result<()>> {
        let mut out: Vec<Result<()>> = Vec::with_capacity(batch.len());
        let mut seg_start = 0;
        for (i, (pid, page)) in batch.iter().enumerate() {
            if let Some(res) = self.write_faulted(*pid, page) {
                if seg_start < i {
                    out.extend(self.inner.write_pages(&batch[seg_start..i]));
                }
                out.push(res);
                seg_start = i + 1;
            }
        }
        if seg_start < batch.len() {
            out.extend(self.inner.write_pages(&batch[seg_start..]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;
    use rewind_common::{CorruptionKind, Lsn, ObjectId};

    impl FaultInjector {
        /// XOR byte `offset` of `pid`'s stored image with `xor` — precise,
        /// caller-controlled damage. Returns `false` if the page was never
        /// written or `offset` is out of range.
        fn corrupt_at_rest(&self, pid: PageId, offset: usize, xor: u8) -> bool {
            if offset >= PAGE_SIZE || xor == 0 {
                return false;
            }
            let Some(mut img) = self.inner.raw_image(pid) else {
                return false;
            };
            img[offset] ^= xor;
            self.inner.store_raw(pid, img);
            true
        }
    }

    fn sample_page(pid: PageId) -> Page {
        let mut p = Page::formatted(pid, ObjectId(7), PageType::Heap);
        p.set_page_lsn(Lsn(4096));
        p.insert_record(0, b"fault fodder").unwrap();
        p
    }

    #[test]
    fn clean_passthrough_matches_mem() {
        let fi = FaultInjector::new(42);
        let p = sample_page(PageId(3));
        fi.write_page(PageId(3), &p).unwrap();
        let q = fi.read_page(PageId(3)).unwrap();
        assert_eq!(q.record(0).unwrap(), b"fault fodder");
        let s = fi.io_stats().snapshot();
        assert_eq!((s.page_writes, s.page_reads), (1, 1));
        assert_eq!(s.corruptions_detected, 0);
    }

    #[test]
    fn bit_flip_reads_back_as_page_checksum() {
        let fi = FaultInjector::new(1);
        fi.write_page(PageId(2), &sample_page(PageId(2))).unwrap();
        assert!(fi.flip_bit(PageId(2)));
        let err = fi.read_page(PageId(2)).unwrap_err();
        assert_eq!(err.corruption_kind(), Some(CorruptionKind::PageChecksum));
        assert_eq!(fi.io_stats().snapshot().corruptions_detected, 1);
        assert!(!fi.flip_bit(PageId(9)), "virgin page has nothing to flip");
    }

    #[test]
    fn torn_write_reads_back_as_torn_page() {
        let fi = FaultInjector::new(7);
        let pid = PageId(4);
        let mut old = sample_page(pid);
        fi.write_page(pid, &old).unwrap();
        // New version with a different pageLSN; tear the write.
        old.set_page_lsn(Lsn(8192));
        old.insert_record(1, b"second version").unwrap();
        fi.arm_torn_write(pid);
        fi.write_page(pid, &old).unwrap();
        let err = fi.read_page(pid).unwrap_err();
        assert_eq!(err.corruption_kind(), Some(CorruptionKind::TornPage));
        // The armed tear is one-shot: a clean rewrite heals the page.
        fi.write_page(pid, &old).unwrap();
        assert!(fi.read_page(pid).is_ok());
    }

    #[test]
    fn zero_tail_reads_back_as_torn_page() {
        let fi = FaultInjector::new(3);
        fi.write_page(PageId(5), &sample_page(PageId(5))).unwrap();
        assert!(fi.zero_tail(PageId(5)));
        let err = fi.read_page(PageId(5)).unwrap_err();
        assert_eq!(err.corruption_kind(), Some(CorruptionKind::TornPage));
    }

    #[test]
    fn transient_eio_is_bounded_and_typed() {
        let fi = FaultInjector::new(9);
        fi.write_page(PageId(6), &sample_page(PageId(6))).unwrap();
        fi.arm_eio_reads(2);
        for _ in 0..2 {
            let err = fi.read_page(PageId(6)).unwrap_err();
            assert!(err.is_transient(), "injected EIO must be retryable: {err}");
        }
        assert!(fi.read_page(PageId(6)).is_ok(), "device recovers after n");
        fi.arm_eio_writes(1);
        assert!(fi.write_page(PageId(6), &sample_page(PageId(6))).is_err());
        assert!(fi.write_page(PageId(6), &sample_page(PageId(6))).is_ok());
    }

    #[test]
    fn same_seed_same_faults() {
        let image = |seed| {
            let fi = FaultInjector::new(seed);
            fi.write_page(PageId(1), &sample_page(PageId(1))).unwrap();
            fi.flip_bit(PageId(1));
            fi.zero_tail(PageId(1));
            fi.inner().raw_image(PageId(1)).unwrap()
        };
        assert_eq!(image(123), image(123), "same seed must damage same bytes");
        assert_ne!(image(123), image(124), "different seed, different damage");
    }

    #[test]
    fn corrupt_at_rest_is_precise() {
        let fi = FaultInjector::new(0);
        fi.write_page(PageId(2), &sample_page(PageId(2))).unwrap();
        assert!(!fi.corrupt_at_rest(PageId(2), PAGE_SIZE, 0xFF), "oob");
        assert!(!fi.corrupt_at_rest(PageId(2), 100, 0), "no-op xor");
        assert!(fi.corrupt_at_rest(PageId(2), HEADER_SIZE + 1, 0x01));
        assert!(fi.read_page(PageId(2)).is_err());
        // Undo the damage: the page verifies again.
        assert!(fi.corrupt_at_rest(PageId(2), HEADER_SIZE + 1, 0x01));
        assert!(fi.read_page(PageId(2)).is_ok());
    }
}
