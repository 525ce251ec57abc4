//! The [`Store`] abstraction: how access methods touch pages.
//!
//! Three implementations exist in the system:
//!
//! * the **live engine** (in `rewind-core`): pages come from the buffer
//!   pool; `modify` appends a log record (building the per-page and
//!   per-transaction chains), applies it, marks the frame dirty, and
//!   maintains the FPI cadence (§6.1);
//! * the **as-of snapshot** (in `rewind-snapshot`): pages come from the side
//!   file or from the primary — read through the buffer manager with a
//!   shared latch — followed by `PreparePageAsOf` (§5.3); `modify` is
//!   rejected — snapshots are read-only databases;
//! * the **snapshot mutator** (also `rewind-snapshot`): the backdoor used by
//!   snapshot recovery's logical undo (§5.2) — modifications are applied
//!   directly to side-file pages *without logging*, because the snapshot is
//!   a throwaway replica.
//!
//! A mock in-memory implementation ([`MemStore`]) lives here for unit
//! testing the access methods in isolation.

use rewind_common::{Error, Lsn, ObjectId, PageId, Result};
use rewind_pagestore::{Page, PageType};
use rewind_wal::LogPayloadView;

/// How a modification relates to transactions and recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModKind {
    /// A regular user-transaction modification.
    User,
    /// Part of a structure modification (nested top action): flagged as a
    /// system record; skipped by logical undo once the SMO completes.
    Smo,
    /// A compensation record written during rollback; `undo_next` points at
    /// the next record of the transaction to undo.
    Clr {
        /// Next record to undo after this compensation.
        undo_next: Lsn,
    },
}

/// Page access + logged modification, as seen by the access methods.
///
/// Latching contract: `with_page` holds at most a **shared** page latch for
/// the duration of `f` and releases it before returning; `modify` takes the
/// page latch **exclusively**. Implementations must guarantee `f` sees a
/// consistent image of exactly the requested page (the sharded buffer pool
/// revalidates the frame after latching and retries if crash simulation
/// invalidated it). Closures must not re-enter the store for the same page
/// — latches are not re-entrant.
pub trait Store {
    /// Run `f` with a (latched) immutable view of page `pid`.
    fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> Result<R>) -> Result<R>;

    /// Apply the logged modification `payload` to page `pid`.
    fn modify(&self, pid: PageId, payload: LogPayloadView<'_>, kind: ModKind) -> Result<Lsn> {
        self.modify_flagged(pid, payload, kind, 0)
    }

    /// [`Store::modify`] with extra record flags (e.g.
    /// [`rewind_wal::REC_FLAG_HEAP`] so lock reacquisition can classify the
    /// row without reading the page).
    fn modify_flagged(
        &self,
        pid: PageId,
        payload: LogPayloadView<'_>,
        kind: ModKind,
        extra_flags: u8,
    ) -> Result<Lsn>;

    /// Apply several logged row modifications to page `pid` as one batch.
    ///
    /// On logging stores the whole batch is framed into the WAL under a
    /// single writer-mutex acquisition (group commit's append half) with the
    /// per-transaction and per-page chains threaded through the batch in
    /// order. Payloads must be valid *in sequence* against the evolving page
    /// (e.g. heap appends at consecutive slots); this is the caller's
    /// contract, checked only as each payload is applied. Returns the
    /// assigned LSNs in order. The default implementation simply loops
    /// [`Store::modify_flagged`].
    fn modify_batch(
        &self,
        pid: PageId,
        payloads: &[LogPayloadView<'_>],
        kind: ModKind,
        extra_flags: u8,
    ) -> Result<Vec<Lsn>> {
        payloads
            .iter()
            .map(|p| self.modify_flagged(pid, *p, kind, extra_flags))
            .collect()
    }

    /// Allocate and format a fresh page. `kind` attributes the allocation's
    /// log records: [`ModKind::Smo`] inside structure modifications (not
    /// individually rolled back), [`ModKind::User`] for directly compensable
    /// allocations (CREATE TABLE roots).
    fn allocate(
        &self,
        object: ObjectId,
        ty: PageType,
        level: u16,
        next: PageId,
        prev: PageId,
        kind: ModKind,
    ) -> Result<PageId>;

    /// Deallocate page `pid` (clears the allocation bit; page content is
    /// deliberately left in place — the paper's undo machinery depends on
    /// it, §4.2-1).
    fn free_page(&self, pid: PageId, kind: ModKind) -> Result<()>;

    /// Run `f` holding the structure latch of `object` (shared for reads,
    /// exclusive for anything that may change the tree shape). Access
    /// methods call this around whole operations; page latches alone do not
    /// protect multi-page structure changes. Re-entry on the same object is
    /// not allowed.
    fn with_object_latch<R>(
        &self,
        object: ObjectId,
        exclusive: bool,
        f: impl FnOnce() -> Result<R>,
    ) -> Result<R>;

    /// Close out a nested top action: log an `SmoEnd` CLR whose `undo_next`
    /// is `undo_next`, so rollback jumps over the completed SMO. No-op on
    /// stores that do not log.
    fn end_smo(&self, undo_next: Lsn) -> Result<()>;

    /// The current transaction's most recent LSN (the `undo_next` target for
    /// [`Store::end_smo`]). Null on stores that do not log.
    fn txn_last_lsn(&self) -> Lsn;

    /// Whether this store accepts modifications.
    fn writable(&self) -> bool;
}

/// A trivial in-memory store for unit-testing access methods: pages live in
/// a vector, "logging" just applies payloads with a fake monotonically
/// increasing LSN. No WAL, no buffer pool.
pub struct MemStore {
    pages: parking_lot::RwLock<Vec<Page>>,
    next_lsn: std::sync::atomic::AtomicU64,
}

impl MemStore {
    /// A store with `n` zeroed pages.
    pub fn new(n: usize) -> Self {
        MemStore {
            pages: parking_lot::RwLock::new((0..n).map(|_| Page::zeroed()).collect()),
            next_lsn: std::sync::atomic::AtomicU64::new(Lsn::FIRST.0),
        }
    }

    fn next_lsn(&self) -> Lsn {
        Lsn(self
            .next_lsn
            .fetch_add(64, std::sync::atomic::Ordering::Relaxed))
    }
}

impl Store for MemStore {
    fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> Result<R>) -> Result<R> {
        let pages = self.pages.read();
        let p = pages.get(pid.0 as usize).ok_or(Error::InvalidPage(pid))?;
        f(p)
    }

    fn modify_flagged(
        &self,
        pid: PageId,
        payload: LogPayloadView<'_>,
        _kind: ModKind,
        _extra_flags: u8,
    ) -> Result<Lsn> {
        let lsn = self.next_lsn();
        let mut pages = self.pages.write();
        let p = pages
            .get_mut(pid.0 as usize)
            .ok_or(Error::InvalidPage(pid))?;
        payload.precheck(p)?;
        payload.redo(p, pid, lsn)?;
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
        let mut pages = self.pages.write();
        // naive: first Free page, else grow
        let idx = pages
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, p)| p.page_type() == PageType::Free)
            .map(|(i, _)| i)
            .unwrap_or_else(|| {
                pages.push(Page::zeroed());
                pages.len() - 1
            });
        let pid = PageId(idx as u64);
        let p = &mut pages[idx];
        p.format(pid, object, ty);
        p.set_level(level);
        p.set_next_page(next);
        p.set_prev_page(prev);
        Ok(pid)
    }

    fn free_page(&self, pid: PageId, _kind: ModKind) -> Result<()> {
        let mut pages = self.pages.write();
        let p = pages
            .get_mut(pid.0 as usize)
            .ok_or(Error::InvalidPage(pid))?;
        p.format(pid, ObjectId::NONE, PageType::Free);
        Ok(())
    }

    fn with_object_latch<R>(
        &self,
        _object: ObjectId,
        _exclusive: bool,
        f: impl FnOnce() -> Result<R>,
    ) -> Result<R> {
        f()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_modify_applies_payloads() {
        let s = MemStore::new(4);
        let pid = s
            .allocate(
                ObjectId(1),
                PageType::BTreeLeaf,
                0,
                PageId::INVALID,
                PageId::INVALID,
                ModKind::User,
            )
            .unwrap();
        s.modify(
            pid,
            LogPayloadView::InsertRecord {
                slot: 0,
                bytes: b"x",
            },
            ModKind::User,
        )
        .unwrap();
        s.with_page(pid, |p| {
            assert_eq!(p.record(0).unwrap(), b"x");
            assert!(p.page_lsn().is_valid());
            Ok(())
        })
        .unwrap();
        s.free_page(pid, ModKind::User).unwrap();
        s.with_page(pid, |p| {
            assert_eq!(p.page_type(), PageType::Free);
            Ok(())
        })
        .unwrap();
    }
}
