//! The snapshot page-access protocol and its two [`Store`] personalities.
//!
//! `SnapInner::fetch` is the paper's §5.3 protocol verbatim:
//!
//! > a. If the page exists in the sparse file, return that page.
//! > b. Else, read the page from the primary database.
//! > c. Once the read I/O completes …, call PreparePageAsOf(page, SplitLSN)
//! >    to undo the page as of the split LSN.
//! > d. Write the prepared page to the sparse file.
//!
//! Prior versions are therefore produced **only for pages that are actually
//! accessed** — the property the whole paper is built around (§3).
//!
//! [`SnapshotStore`] exposes this read-only (queries); [`SnapshotMutator`]
//! additionally lets snapshot recovery's logical undo modify side-file pages
//! *without logging* — the snapshot is a throwaway replica, as in SQL Server
//! where undo writes go to the sparse file (§5.2).
//!
//! Step (b) reads the primary **through the buffer manager** with a shared
//! latch (paper §2.1 — every page access, live or as-of, goes through the
//! buffer pool). The pool's page-table lock is taken shared and dropped
//! before the frame latch, so an as-of reader never blocks behind a live
//! writer's exclusive latch on another page; a resident page costs a
//! shared table probe plus an atomic pin. The image
//! obtained may be *newer* than the durable version (live writers keep
//! modifying), which is fine: `PreparePageAsOf` walks the per-page chain
//! backward from whatever `pageLSN` the image carries.
//!
//! # Zero-copy reads
//!
//! Every page this store serves is a [`PageImage`] — an immutable,
//! `Arc`-shared allocation. A **warm hit copies nothing**: the side file
//! hands back an `Arc` clone and the query closure borrows straight from
//! it. A **cold miss copies exactly once**: step (b) borrows the primary
//! frame through a [`rewind_buffer::PageReadGuard`] (shared latch, no
//! owned clone), and the single 8 KiB copy is the one *into* the private
//! page that `PreparePageAsOf` rewinds — which is then frozen into the
//! image the side file stores and every subsequent reader shares. Because
//! stored images are immutable and overwrites swap the `Arc`, an in-flight
//! reader keeps the exact version it fetched while background undo fixes
//! pages up underneath it (epoch stability — the split-consistency
//! invariant).
//!
//! Every multi-row as-of read — its prefetch through
//! `AsOfSnapshot::prepare_pages` and the walk of a [`SnapshotStore`] that
//! carries the same partition — passes one [`rewind_buffer::ScanPartition`]
//! down to step (b), so a cold as-of stream larger than the pool reuses its
//! own bounded frame budget instead of evicting the live working set
//! (ROADMAP item (h)). Point reads carry none.
//!
//! Concurrent first-preparations of the same page are serialized by
//! **per-page gates in one table**. A gate entry lives only while a
//! preparation is in flight: the preparer removes it once the page is in
//! the side file (or on error), so the gate table is bounded by the number
//! of concurrently-preparing pages, not by every page a snapshot ever
//! touched. The table's lock is held for one map operation at a time, and
//! a preparation does tens of log reads, so one lock does not serialize
//! preparers.

use parking_lot::Mutex;
use rewind_access::store::{ModKind, Store};
use rewind_buffer::{BufferPool, ScanPartition};
use rewind_common::{Error, Lsn, ObjectId, PageId, Result};
use rewind_obs::{EventKind, Obs};
use rewind_pagestore::{Page, PageImage, PageType, SideFile};
use rewind_recovery::prepare_page_as_of;
use rewind_txn::ObjectLatches;
use rewind_wal::{LogManager, LogPayloadView};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::stats::SnapshotStats;

/// Per-page first-preparation gates, one table under one lock, held for
/// one map operation per page preparation. Entries exist only while a
/// preparation is in flight (leak-free by construction).
#[derive(Default)]
struct PrepareGates {
    table: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
}

impl PrepareGates {
    /// Get (or create) the gate for `pid`.
    fn enter(&self, pid: u64) -> Arc<Mutex<()>> {
        self.table.lock().entry(pid).or_default().clone()
    }

    /// Remove `pid`'s gate if it is still the one this caller entered
    /// (idempotent: a later entrant may have re-created the entry).
    fn leave(&self, pid: u64, gate: &Arc<Mutex<()>>) {
        // tidy: lock-order(snapshot_page_gate < snapshot_gate_table) -- the
        // per-page gate stays held while its table entry is retired; `enter`
        // never takes a gate under the table lock.
        let mut map = self.table.lock();
        if map.get(&pid).is_some_and(|cur| Arc::ptr_eq(cur, gate)) {
            map.remove(&pid);
        }
    }

    /// Whether `gate` is still the table's entry for `pid`. A waiter that
    /// acquires a gate *after* its owner retired it (success or error) must
    /// re-enter through the table, or it would run concurrently with a
    /// later entrant's fresh gate.
    fn is_current(&self, pid: u64, gate: &Arc<Mutex<()>>) -> bool {
        self.table
            .lock()
            .get(&pid)
            .is_some_and(|cur| Arc::ptr_eq(cur, gate))
    }

    /// Gate entries currently live (bounded by in-flight preparations).
    fn entries(&self) -> usize {
        self.table.lock().len()
    }
}

/// Shared snapshot state: the side file, the primary's buffer pool and log,
/// and the SplitLSN.
pub struct SnapInner {
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) log: Arc<LogManager>,
    pub(crate) split: Lsn,
    pub(crate) side: SideFile,
    preparing: PrepareGates,
    pub(crate) stats: SnapshotStats,
    /// The engine's observability handle, shared from the log manager.
    pub(crate) obs: Arc<Obs>,
    phantom_next: AtomicU64,
}

impl SnapInner {
    pub(crate) fn new(pool: Arc<BufferPool>, log: Arc<LogManager>, split: Lsn) -> Self {
        let phantom_base = pool.file_manager().page_count().max(1) + (1 << 20);
        SnapInner {
            pool,
            obs: log.obs().clone(),
            log,
            split,
            side: SideFile::new(),
            preparing: PrepareGates::default(),
            stats: SnapshotStats::default(),
            phantom_next: AtomicU64::new(phantom_base),
        }
    }

    /// The §5.3 read protocol: a shared immutable image of `pid` as of the
    /// SplitLSN. Warm hits are an `Arc` clone — zero page bytes copied.
    pub(crate) fn fetch_image(&self, pid: PageId) -> Result<PageImage> {
        Ok(self.fetch_traced(pid, None, None)?.0)
    }

    /// Gate entries currently live (regression guard: bounded by in-flight
    /// preparations, never by pages touched).
    pub(crate) fn gate_entries(&self) -> usize {
        self.preparing.entries()
    }

    /// [`SnapInner::fetch_image`], plus whether this call prepared the
    /// page (`false` when the side file served it). A bulk read passes a
    /// [`ScanPartition`] so cold step (b) reads stay inside a bounded frame
    /// budget of the shared pool. `staged` is an optional pre-fetched
    /// primary read for `pid` — one slot of a vectored `read_pages` batch
    /// issued by `AsOfSnapshot::prepare_pages` — consumed only if this call
    /// reaches step (b) itself (side miss, gate won); otherwise it is
    /// dropped, exactly like the pool's own staged misses.
    pub(crate) fn fetch_traced(
        &self,
        pid: PageId,
        scan: Option<&ScanPartition>,
        staged: Option<Result<Page>>,
    ) -> Result<(PageImage, bool)> {
        let mut staged = staged;
        if let Some(img) = self.side.get(pid) {
            self.stats.side_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((img, false));
        }
        // Serialize concurrent first-preparations of the same page; the
        // gate entry is removed again on every exit path (including
        // errors), so a waiter that wakes up holding a retired gate loops
        // back through the table rather than racing a fresh entrant.
        loop {
            let gate = self.preparing.enter(pid.0);
            let guard = gate.lock();
            if !self.preparing.is_current(pid.0, &gate) {
                drop(guard);
                continue;
            }
            let result = self.prepare_gated(pid, scan, staged.take());
            // Retire the table entry *before* releasing the gate mutex: a
            // waiter woken by the unlock must observe `is_current == false`
            // and loop back through the table. Releasing first would open a
            // window where the waiter passes `is_current`, a fresh entrant
            // creates a new gate, and two threads prepare the same pid
            // concurrently.
            self.preparing.leave(pid.0, &gate);
            drop(guard);
            return result;
        }
    }

    /// The miss path of the §5.3 protocol, run under `pid`'s prepare gate.
    /// `staged` carries an optional vectored pre-read of the primary page.
    fn prepare_gated(
        &self,
        pid: PageId,
        scan: Option<&ScanPartition>,
        staged: Option<Result<Page>>,
    ) -> Result<(PageImage, bool)> {
        if let Some(img) = self.side.get(pid) {
            self.stats.side_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((img, false));
        }
        let prepare_started = self.obs.now_us();
        self.obs
            .record(EventKind::AsOfPrepareStart, self.split.0, pid.0, 0);
        // Step (b): borrow the primary frame through the buffer manager,
        // shared latch (the image may be newer than durable; the walk below
        // rolls it back from whatever pageLSN it carries). The copy out of
        // the borrowed view into the preparer's private page is the single
        // 8 KiB copy a cold miss pays; the latch is released before the
        // backward log walk so no frame latch is ever held across log I/O.
        let mut page = {
            let primary = self.pool.read_page_staged_in(pid, scan, staged)?;
            Page::clone(&primary)
        };
        let st = prepare_page_as_of(&self.log, &mut page, pid, self.split)?;
        self.stats.pages_prepared.fetch_add(1, Ordering::Relaxed);
        // Adjacent to the `pages_prepared` increment so the histogram
        // count equals the prepared-page count exactly.
        let dur = self.obs.now_us().saturating_sub(prepare_started);
        self.obs.asof_prepare_us(dur);
        self.obs
            .record(EventKind::AsOfPrepareDone, self.split.0, pid.0, dur);
        self.stats
            .records_undone
            .fetch_add(st.records_undone, Ordering::Relaxed);
        self.stats
            .fpi_chain_reads
            .fetch_add(st.fpi_chain_reads, Ordering::Relaxed);
        if st.fpi_restored {
            self.stats.fpi_restores.fetch_add(1, Ordering::Relaxed);
        }
        // Freeze the prepared page into an immutable image (step (d)):
        // ownership moves into the Arc, no further copy. Every later reader
        // of this page shares this allocation.
        let img = PageImage::new(page);
        self.side.put_image(pid, img.clone());
        Ok((img, true))
    }

    /// Write a page fixed up by logical undo back to the side file (§5.2:
    /// "this modified page is then written back to the side file"). Takes
    /// the page by value: it is frozen into a fresh immutable image without
    /// copying; readers holding the previous image keep their epoch.
    pub(crate) fn put_owned(&self, pid: PageId, page: Page) {
        self.side.put_image(pid, PageImage::new(page));
    }

    /// Allocate a phantom page id for undo-side splits. Phantom pages exist
    /// only in the side file, beyond the primary's page range; queries reach
    /// them only through tree pointers written by the undo pass.
    pub(crate) fn phantom_page(&self) -> PageId {
        PageId(self.phantom_next.fetch_add(1, Ordering::AcqRel))
    }
}

/// Read-only [`Store`] over a snapshot: what queries use.
///
/// A store may carry a [`ScanPartition`]: §5.3 step (b) reads for pages it
/// prepares then stay inside the partition's bounded frame budget. Every
/// multi-row read walks through such a store, so what its prefetch did not
/// prepare (internal pages, a bounded range, a heap chain whose next
/// pointer lives on the page being read) stays scan-resistant too.
pub struct SnapshotStore<'a> {
    pub(crate) inner: &'a SnapInner,
    pub(crate) latches: &'a ObjectLatches,
    pub(crate) scan: Option<&'a ScanPartition>,
}

impl SnapshotStore<'_> {
    /// Zero-copy read: the prepared immutable image of `pid`. Holding it
    /// costs no pool latch, so callers may keep it as long as they like
    /// (epoch-stable even under background undo). Cold preparations honour
    /// the store's scan partition, if any.
    pub fn read_page(&self, pid: PageId) -> Result<PageImage> {
        Ok(self.inner.fetch_traced(pid, self.scan, None)?.0)
    }
}

impl Store for SnapshotStore<'_> {
    fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> Result<R>) -> Result<R> {
        // Borrow straight from the shared image: zero copies on warm hits.
        let image = self.read_page(pid)?;
        f(&image)
    }

    fn modify_flagged(
        &self,
        _pid: PageId,
        _payload: LogPayloadView<'_>,
        _kind: ModKind,
        _extra: u8,
    ) -> Result<Lsn> {
        Err(Error::ReadOnly)
    }

    fn allocate(
        &self,
        _object: ObjectId,
        _ty: PageType,
        _level: u16,
        _next: PageId,
        _prev: PageId,
        _kind: ModKind,
    ) -> Result<PageId> {
        Err(Error::ReadOnly)
    }

    fn free_page(&self, _pid: PageId, _kind: ModKind) -> Result<()> {
        Err(Error::ReadOnly)
    }

    fn with_object_latch<R>(
        &self,
        object: ObjectId,
        _exclusive: bool,
        f: impl FnOnce() -> Result<R>,
    ) -> Result<R> {
        // queries always take the latch shared; writes are rejected anyway
        self.latches.with_latch(object, false, f)
    }

    fn end_smo(&self, _undo_next: Lsn) -> Result<()> {
        Err(Error::ReadOnly)
    }

    fn txn_last_lsn(&self) -> Lsn {
        Lsn::NULL
    }

    fn writable(&self) -> bool {
        false
    }
}

/// The write-capable [`Store`] used exclusively by snapshot recovery's
/// background logical undo (§5.2). Modifications apply straight to side-file
/// pages without logging; the page LSN is left at its prepared value.
pub struct SnapshotMutator<'a> {
    pub(crate) inner: &'a SnapInner,
    pub(crate) latches: &'a ObjectLatches,
}

impl Store for SnapshotMutator<'_> {
    fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> Result<R>) -> Result<R> {
        let image = self.inner.fetch_image(pid)?;
        f(&image)
    }

    fn modify_flagged(
        &self,
        pid: PageId,
        payload: LogPayloadView<'_>,
        _kind: ModKind,
        _extra: u8,
    ) -> Result<Lsn> {
        // Copy-on-write at page granularity: derive a private copy, apply
        // the undo, freeze it into a fresh image. Readers that already hold
        // the old image keep their epoch; the swap is atomic per page.
        let mut page = self.inner.fetch_image(pid)?.to_page();
        payload.precheck(&page)?;
        let keep_lsn = page.page_lsn();
        payload.redo(&mut page, pid, keep_lsn)?;
        self.inner.put_owned(pid, page);
        self.inner
            .stats
            .undo_records
            .fetch_add(1, Ordering::Relaxed);
        Ok(keep_lsn)
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
        let pid = self.inner.phantom_page();
        let mut p = Page::formatted(pid, object, ty);
        p.set_level(level);
        p.set_next_page(next);
        p.set_prev_page(prev);
        p.set_page_lsn(self.inner.split);
        self.inner.put_owned(pid, p);
        Ok(pid)
    }

    fn free_page(&self, _pid: PageId, _kind: ModKind) -> Result<()> {
        Err(Error::Internal(
            "snapshot undo never deallocates pages".into(),
        ))
    }

    fn with_object_latch<R>(
        &self,
        object: ObjectId,
        _exclusive: bool,
        f: impl FnOnce() -> Result<R>,
    ) -> Result<R> {
        // the undo pass always mutates: exclusive
        self.latches.with_latch(object, true, f)
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
