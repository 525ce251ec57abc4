//! [`EngineStore`] — the live engine's [`Store`] implementation.
//!
//! This is the write path described in paper §2.1: fetch the page through
//! the buffer manager, latch it exclusively, generate a log record (chained
//! per-transaction via `prev_lsn` and per-page via `prevPageLSN`), apply the
//! change, mark the frame dirty. On top of that sit the paper's extensions:
//!
//! * the **FPI cadence** (§6.1): "we optionally emit preformat log records
//!   containing the complete image of the data page after every Nth
//!   modification to the page" — implemented as `FullPageImage` records
//!   chained via `prevFpiLSN`.
//!
//! A modification takes no engine-wide lock before the frame latch: a
//! snapshot, including one of "now", is an as-of snapshot (§5), which
//! needs only the log and the pages, never a quiesced writer.

use crate::rollback;
use parking_lot::Mutex;
use rewind_access::store::{ModKind, Store};
use rewind_buffer::BufferPool;
use rewind_common::{Error, Lsn, ObjectId, PageId, Result};
use rewind_pagestore::{Page, PageType};
use rewind_txn::{ObjectLatches, TxnShared};
use rewind_wal::{LogManager, LogPayloadView, LogRecord, REC_FLAG_CLR, REC_FLAG_SYSTEM};
use std::sync::Arc;

/// Everything the live `Store` needs, shared across transactions.
pub struct EngineParts {
    /// The buffer pool.
    pub pool: Arc<BufferPool>,
    /// The write-ahead log.
    pub log: Arc<LogManager>,
    /// Per-object structure latches.
    pub latches: Arc<ObjectLatches>,
    /// Serializes page allocation.
    pub alloc_lock: Mutex<()>,
    /// Full-page-image interval N (0 = disabled), paper §6.1.
    pub fpi_interval: u32,
}

impl EngineParts {
    /// The engine's observability handle. The log manager owns it (see
    /// `LogConfig::obs`); everything reached through `EngineParts` shares
    /// that one instance.
    pub fn obs(&self) -> &Arc<rewind_obs::Obs> {
        self.log.obs()
    }
}

/// The live-engine store: [`EngineParts`] bound to one transaction.
pub struct EngineStore<'a> {
    /// Shared engine state.
    pub parts: &'a EngineParts,
    /// The transaction this store logs on behalf of.
    pub txn: &'a TxnShared,
}

impl<'a> EngineStore<'a> {
    /// Bind `parts` to `txn`.
    pub fn new(parts: &'a EngineParts, txn: &'a TxnShared) -> Self {
        EngineStore { parts, txn }
    }
}

/// `ModKind` → (record flags, `undo_next`).
fn mod_flags(kind: ModKind) -> (u8, Lsn) {
    match kind {
        ModKind::User => (0, Lsn::NULL),
        ModKind::Smo => (REC_FLAG_SYSTEM, Lsn::NULL),
        ModKind::Clr { undo_next } => (REC_FLAG_CLR, undo_next),
    }
}

/// The object a record is attributed to: Format/Reformat carry their own
/// id (the page header's is stale or not yet written); everything else
/// uses the page's.
fn record_object(payload: &LogPayloadView<'_>, page: &Page) -> ObjectId {
    match payload {
        LogPayloadView::Format { object, .. } | LogPayloadView::Reformat { object, .. } => *object,
        _ => page.object_id(),
    }
}

/// FPI cadence (§6.1): emit one `FullPageImage` record of the page's
/// current state. FPIs are outside any transaction chain — they carry no
/// logical change, only a faster path backwards.
fn emit_fpi(
    parts: &EngineParts,
    v: &mut rewind_buffer::FrameView<'_>,
    pid: PageId,
    object: ObjectId,
) -> Result<()> {
    v.reset_fpi_counter();
    // A copy: the record must not borrow the page it is about to redo onto.
    let image = Box::new(*v.page().image());
    let fpi_rec = LogRecord {
        lsn: Lsn::NULL,
        txn: rewind_common::TxnId::NONE,
        prev_lsn: Lsn::NULL,
        page: pid,
        prev_page_lsn: v.page().page_lsn(),
        object,
        undo_next: Lsn::NULL,
        flags: REC_FLAG_SYSTEM,
        payload: LogPayloadView::FullPageImage {
            prev_fpi_lsn: v.page().last_fpi_lsn(),
            image: &image,
        },
    };
    let fpi_lsn = parts.log.append(&fpi_rec);
    fpi_rec.payload.redo(v.page_mut(), pid, fpi_lsn)
}

impl Store for EngineStore<'_> {
    fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> Result<R>) -> Result<R> {
        self.parts.pool.with_page(pid, f)
    }

    fn modify_flagged(
        &self,
        pid: PageId,
        payload: LogPayloadView<'_>,
        kind: ModKind,
        extra_flags: u8,
    ) -> Result<Lsn> {
        let parts = self.parts;
        parts.pool.with_page_mut(pid, |v| {
            payload.precheck(v.page())?;
            let (flags, undo_next) = mod_flags(kind);
            let object = record_object(&payload, v.page());
            let mut rec = LogRecord {
                lsn: Lsn::NULL,
                txn: self.txn.id,
                prev_lsn: Lsn::NULL,
                page: pid,
                prev_page_lsn: v.page().page_lsn(),
                object,
                undo_next,
                flags: flags | extra_flags,
                payload,
            };
            let lsn = parts
                .log
                .append_batch(&self.txn.chain, std::slice::from_mut(&mut rec))
                .start;
            rec.payload.redo(v.page_mut(), pid, lsn)?;
            v.mark_dirty(lsn);

            if parts.fpi_interval > 0
                && !matches!(rec.payload, LogPayloadView::FullPageImage { .. })
                && v.bump_fpi_counter() >= parts.fpi_interval
            {
                emit_fpi(parts, v, pid, object)?;
            }
            Ok(lsn)
        })
    }

    fn modify_batch(
        &self,
        pid: PageId,
        payloads: &[LogPayloadView<'_>],
        kind: ModKind,
        extra_flags: u8,
    ) -> Result<Vec<Lsn>> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        let parts = self.parts;
        parts.pool.with_page_mut(pid, |v| {
            // Validate the WHOLE batch before logging a single byte: replay
            // the payloads against a scratch copy of the page. The
            // single-record path prechecks before appending; the batch path
            // must not weaken that guarantee — a record logged but never
            // applied would redo (and fail) again at crash recovery.
            {
                let mut scratch = v.page().clone();
                for (i, payload) in payloads.iter().enumerate() {
                    payload.precheck(&scratch)?;
                    payload
                        .redo(&mut scratch, pid, Lsn(u64::MAX))
                        .map_err(|e| {
                            Error::Internal(format!("batch payload {i} not applicable: {e}"))
                        })?;
                }
            }
            let (flags, undo_next) = mod_flags(kind);
            let n = payloads.len();
            let mut recs: Vec<_> = payloads
                .iter()
                .map(|&payload| LogRecord {
                    lsn: Lsn::NULL,
                    txn: self.txn.id,
                    // `append_batch` chains every record onto the
                    // transaction; the first chains to the page's current
                    // head and the rest through the batch.
                    prev_lsn: Lsn::NULL,
                    page: pid,
                    prev_page_lsn: v.page().page_lsn(),
                    object: record_object(&payload, v.page()),
                    undo_next,
                    flags: flags | extra_flags,
                    payload,
                })
                .collect();
            // ONE writer-mutex acquisition for the whole batch.
            parts.log.append_batch(&self.txn.chain, &mut recs);
            let mut lsns = Vec::with_capacity(n);
            for rec in &recs {
                rec.payload.redo(v.page_mut(), pid, rec.lsn)?;
                lsns.push(rec.lsn);
            }
            // rec_lsn (if the frame was clean) is the first record's LSN.
            v.mark_dirty(lsns[0]);

            // FPI cadence (§6.1): the batch counts as n modifications but
            // emits at most one image — of the final state.
            if parts.fpi_interval > 0 {
                let mut due = false;
                for _ in 0..n {
                    due |= v.bump_fpi_counter() >= parts.fpi_interval;
                }
                if due {
                    let object = v.page().object_id();
                    emit_fpi(parts, v, pid, object)?;
                }
            }
            Ok(lsns)
        })
    }

    fn allocate(
        &self,
        object: ObjectId,
        ty: PageType,
        level: u16,
        next: PageId,
        prev: PageId,
        kind: ModKind,
    ) -> Result<PageId> {
        let _alloc = self.parts.alloc_lock.lock();
        rewind_access::allocator::allocate_page(self, object, ty, level, next, prev, kind)
    }

    fn free_page(&self, pid: PageId, kind: ModKind) -> Result<()> {
        let _alloc = self.parts.alloc_lock.lock();
        rewind_access::allocator::free_page(self, pid, kind)
    }

    fn with_object_latch<R>(
        &self,
        object: ObjectId,
        exclusive: bool,
        f: impl FnOnce() -> Result<R>,
    ) -> Result<R> {
        self.parts.latches.with_latch(object, exclusive, f)
    }

    fn end_smo(&self, undo_next: Lsn) -> Result<()> {
        let rec = LogRecord {
            undo_next,
            flags: REC_FLAG_CLR | REC_FLAG_SYSTEM,
            ..LogRecord::marker(self.txn.id, LogPayloadView::SmoEnd)
        };
        self.parts.log.append_batch(&self.txn.chain, &mut [rec]);
        Ok(())
    }

    fn txn_last_lsn(&self) -> Lsn {
        self.txn.chain.last_lsn()
    }

    fn writable(&self) -> bool {
        true
    }
}

impl EngineStore<'_> {
    /// Roll this store's transaction back from its current last LSN,
    /// resolving objects through `resolver`. Releases no locks — the caller
    /// owns lock lifetime.
    pub fn rollback(
        &self,
        resolver: &dyn Fn(ObjectId) -> Result<rollback::AccessKind>,
    ) -> Result<u64> {
        rollback::rollback_chain(self, &self.parts.log, self.txn.chain.last_lsn(), resolver)
    }
}
