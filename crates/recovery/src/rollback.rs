//! Transaction rollback with compensation log records.
//!
//! Walks a transaction's backward chain (`prev_lsn`), logically undoing
//! B-Tree row changes (the row may have been moved by later structure
//! modifications, so it is located by key — the reason the paper rejects
//! blanket transaction-oriented undo for *as-of* queries in §4.1 applies in
//! reverse here) and physically undoing everything whose location is
//! stable: heap rows (RID-stable by design), allocation bits, boot-page
//! bytes, sibling pointers and partial structure modifications.
//!
//! Every compensation is logged as a CLR carrying full undo information —
//! the paper's §4.2-2 extension — so `PreparePageAsOf` can walk straight
//! through rollbacks. Completed SMOs are skipped via their closing CLR's
//! `undo_next`.

use rewind_access::store::{ModKind, Store};
use rewind_access::{BTree, Heap};
use rewind_common::{Error, Lsn, ObjectId, Result, TxnId};
use rewind_wal::{LogManager, LogPayloadView, LogRecordHeader, RecordRef, REC_FLAG_SYSTEM};
use std::collections::BinaryHeap;

/// How an object stores rows — resolved from the catalog during rollback.
#[derive(Clone, Copy, Debug)]
pub enum AccessKind {
    /// Rows live in a clustered B-Tree.
    Tree(BTree),
    /// Rows live in a heap.
    Heap(Heap),
}

/// Undo one record from its header and borrowed payload view, logging
/// CLR(s). Returns `Ok(())` even when the logical target no longer exists
/// (idempotent crash-resume). Payloads come straight from the log segment,
/// and the CLRs written borrow from them.
///
/// Public so each [`undo_sweep`] caller can bind it to its own store.
pub fn undo_record_view<S: Store>(
    s: &S,
    header: &LogRecordHeader,
    payload: &LogPayloadView<'_>,
    resolver: &dyn Fn(ObjectId) -> Result<AccessKind>,
) -> Result<()> {
    let undo_next = header.prev_lsn;
    // Physical compensation applies to: partial SMO records, and payload
    // types whose location is intrinsically stable.
    let physical = header.flags & REC_FLAG_SYSTEM != 0
        || matches!(
            payload,
            LogPayloadView::AllocSet { .. }
                | LogPayloadView::BootWrite { .. }
                | LogPayloadView::SetNextPage { .. }
                | LogPayloadView::SetPrevPage { .. }
                | LogPayloadView::RestoreImage { .. }
                | LogPayloadView::Format { .. }
                | LogPayloadView::Preformat { .. }
                | LogPayloadView::Reformat { .. }
                | LogPayloadView::FullPageImage { .. }
        );
    if physical {
        match payload {
            LogPayloadView::Format { .. } | LogPayloadView::Preformat { .. } => {
                // Forward effect is erased/nil; once the allocation bit is
                // compensated the page is free again. Nothing to log.
                return Ok(());
            }
            LogPayloadView::Reformat { prev_image, .. } => {
                // Restore the pre-reformat image (partial root split).
                let current = s.with_page(header.page, |p| Ok(Box::new(*p.image())))?;
                s.modify(
                    header.page,
                    LogPayloadView::RestoreImage {
                        old: &current,
                        new: prev_image,
                    },
                    ModKind::Clr { undo_next },
                )?;
                return Ok(());
            }
            LogPayloadView::FullPageImage { .. } => return Ok(()),
            payload => {
                if let Some(comp) = payload.compensation() {
                    s.modify(header.page, comp, ModKind::Clr { undo_next })?;
                }
                return Ok(());
            }
        }
    }
    // Logical compensation for user row changes.
    match *payload {
        LogPayloadView::InsertRecord { slot, bytes } => match resolver(header.object)? {
            AccessKind::Tree(t) => {
                let (key, _) = rewind_access::btree::decode_leaf(bytes);
                t.rollback_insert(s, key, undo_next)?;
            }
            AccessKind::Heap(h) => {
                // Heap insert: tombstone the slot (RIDs are stable).
                let rid = rewind_access::heap::Rid {
                    page: header.page,
                    slot,
                };
                let _ = h;
                s.modify_flagged(
                    rid.page,
                    LogPayloadView::UpdateRecord {
                        slot: rid.slot,
                        old: bytes,
                        new: &[],
                    },
                    ModKind::Clr { undo_next },
                    rewind_wal::REC_FLAG_HEAP,
                )?;
            }
        },
        LogPayloadView::DeleteRecord { old, .. } => match resolver(header.object)? {
            AccessKind::Tree(t) => t.rollback_delete(s, old, undo_next)?,
            AccessKind::Heap(_) => {
                return Err(Error::Internal("heap deletes are logged as updates".into()));
            }
        },
        LogPayloadView::UpdateRecord { slot, old, .. } => match resolver(header.object)? {
            AccessKind::Tree(t) => t.rollback_update(s, old, undo_next)?,
            AccessKind::Heap(_) => {
                // Restore the previous row bytes in place (covers tombstone
                // deletes and in-place updates alike).
                let new_now =
                    s.with_page(header.page, |p| Ok(p.record(slot as usize)?.to_vec()))?;
                s.modify_flagged(
                    header.page,
                    LogPayloadView::UpdateRecord {
                        slot,
                        old: &new_now,
                        new: old,
                    },
                    ModKind::Clr { undo_next },
                    rewind_wal::REC_FLAG_HEAP,
                )?;
            }
        },
        LogPayloadView::Commit { .. } => {
            return Err(Error::Internal(
                "cannot roll back a committed transaction".into(),
            ));
        }
        // Markers carry no state.
        LogPayloadView::Abort | LogPayloadView::End => {}
        ref other => {
            return Err(Error::Internal(format!(
                "unexpected payload in rollback: {other:?}"
            )));
        }
    }
    Ok(())
}

/// The one undo walk: a merged descending-LSN sweep over the backward
/// chains starting at `heads` (each a transaction's most recent LSN; null
/// heads are skipped). Merging by LSN across transactions is what keeps
/// structure-modification ordering honoured when several losers touched the
/// same tree.
///
/// `read` fetches a record ([`LogManager::get_record_ref`]). CLRs jump via
/// `undo_next` (so completed structure modifications and
/// already-compensated work are skipped) after a header-only decode —
/// their payloads are never
/// materialized; every other record is handed to `undo` as its header and
/// borrowed payload view, which the caller binds to the transaction's
/// store through [`undo_record_view`]. `chain_done` fires when a
/// transaction's chain is exhausted. Returns the number of records undone.
pub fn undo_sweep(
    heads: impl IntoIterator<Item = (Lsn, TxnId)>,
    read: impl Fn(Lsn) -> Result<RecordRef>,
    mut undo: impl FnMut(TxnId, &LogRecordHeader, &LogPayloadView<'_>) -> Result<()>,
    mut chain_done: impl FnMut(TxnId),
) -> Result<u64> {
    let mut heap: BinaryHeap<(Lsn, TxnId)> =
        heads.into_iter().filter(|(l, _)| l.is_valid()).collect();
    let mut undone = 0u64;
    while let Some((lsn, txn)) = heap.pop() {
        let rec = read(lsn)?;
        let header = rec.header()?;
        let next = if header.is_clr() {
            header.undo_next
        } else {
            let (_, view) = rec.view()?;
            undo(txn, &header, &view)?;
            undone += 1;
            header.prev_lsn
        };
        if next.is_valid() {
            heap.push((next, txn));
        } else {
            chain_done(txn);
        }
    }
    Ok(undone)
}

/// Roll back one transaction chain starting at `from` (its most recent
/// LSN), logging a CLR per undone record: the one-transaction case of
/// [`undo_sweep`]. Returns the number of records undone.
pub fn rollback_chain<S: Store>(
    s: &S,
    log: &LogManager,
    from: Lsn,
    resolver: &dyn Fn(ObjectId) -> Result<AccessKind>,
) -> Result<u64> {
    undo_sweep(
        [(from, TxnId::NONE)],
        |lsn| log.get_record_ref(lsn),
        |_, header, view| undo_record_view(s, header, view, resolver),
        |_| {},
    )
}
