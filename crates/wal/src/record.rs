//! Log record format: header, payloads, serialization, and redo/undo
//! application.
//!
//! Payloads are *physiological*: they name a slot on a page and carry both
//! redo and undo byte images. That makes every record independently
//! undoable, which is the property the paper's page-oriented undo relies on
//! (§4.1-B) — including CLRs and the delete half of structure modifications
//! (§4.2).

use rewind_common::codec::{ByteReader, ByteWriter};
use rewind_common::{Error, Lsn, ObjectId, PageId, Result, Timestamp, TxnId};
use rewind_pagestore::page::{Page, PageType, PAGE_SIZE};

/// Record flag: this record is a compensation log record written during
/// rollback; `undo_next` points at the next record of the transaction to
/// undo.
pub const REC_FLAG_CLR: u8 = 0b0000_0001;
/// Record flag: this record belongs to a system transaction (structure
/// modification); system transactions commit immediately and are never
/// logically undone.
pub const REC_FLAG_SYSTEM: u8 = 0b0000_0010;
/// Record flag: this record modifies a heap page (rows addressed by RID).
/// Lets lock reacquisition (§5.2) choose the right lock key without reading
/// the page or the catalog.
pub const REC_FLAG_HEAP: u8 = 0b0000_0100;

/// Alias for the raw flags byte on a record.
pub type RecordFlags = u8;

/// An entry of the active-transaction table in a checkpoint record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnTableEntry {
    /// The transaction id.
    pub txn: TxnId,
    /// LSN of the transaction's first record.
    pub first_lsn: Lsn,
    /// LSN of the transaction's most recent record.
    pub last_lsn: Lsn,
}

/// An entry of the dirty-page table in a checkpoint record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DptEntry {
    /// The dirty page.
    pub page: PageId,
    /// Earliest LSN whose effects may not be on disk for this page.
    pub rec_lsn: Lsn,
}

/// Body of a checkpoint-end record.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CheckpointBody {
    /// Wall-clock time at which the checkpoint was taken.
    pub at: Timestamp,
    /// LSN of the matching checkpoint-begin record.
    pub begin_lsn: Lsn,
    /// Active transactions at checkpoint time.
    pub att: Vec<TxnTableEntry>,
    /// Dirty pages at checkpoint time.
    pub dpt: Vec<DptEntry>,
}

/// The operation described by a log record.
///
/// Page-modifying payloads implement [`LogPayload::redo`] (apply forward,
/// stamping the page LSN) and [`LogPayload::undo`] (apply the exact reverse
/// to the page contents; LSN bookkeeping is the caller's job, see
/// `PreparePageAsOf`). [`LogPayload::compensation`] produces the payload a
/// CLR would carry to logically undo this record.
#[derive(Clone, Debug, PartialEq)]
pub enum LogPayload {
    /// Transaction committed at the given wall-clock time. SplitLSN search
    /// (§5.1) keys off these stamps.
    Commit {
        /// Commit wall-clock time.
        at: Timestamp,
    },
    /// Transaction rollback has begun.
    Abort,
    /// Transaction is fully finished (rolled back or post-commit cleanup).
    End,
    /// (Re)format a page as a fresh, empty page of `ty` for `object`.
    /// Marks the beginning of a per-page chain (Fig. 1). Undoing it erases
    /// the page back to the unallocated state; if the page had a previous
    /// incarnation, the immediately preceding `Preformat` record restores it.
    Format {
        /// Owning object.
        object: ObjectId,
        /// New page type.
        ty: PageType,
        /// B-Tree level (0 for leaves/heaps).
        level: u16,
        /// Right sibling to link, or invalid.
        next: PageId,
        /// Left sibling to link, or invalid.
        prev: PageId,
    },
    /// The paper's preformat record (§4.2-1, Fig. 2): logged when a page is
    /// *re*-allocated, carrying the previous content of the page so the old
    /// chain both stays reachable and can be restored.
    Preformat {
        /// Full image of the page's previous incarnation.
        prev_image: Box<[u8; PAGE_SIZE]>,
    },
    /// Reformat a page that had live content (e.g. the root during a root
    /// split, or table truncation), carrying the old image as undo info.
    Reformat {
        /// Owning object after the reformat.
        object: ObjectId,
        /// New page type.
        ty: PageType,
        /// New B-Tree level.
        level: u16,
        /// Full previous image (undo information).
        prev_image: Box<[u8; PAGE_SIZE]>,
    },
    /// Insert `bytes` as a new record at `slot`.
    InsertRecord {
        /// Target slot index.
        slot: u16,
        /// Record bytes.
        bytes: Vec<u8>,
    },
    /// Delete the record at `slot`. `old` is the undo information — present
    /// even when this delete is half of a structure-modification move
    /// (§4.2-3) or inside a CLR (§4.2-2).
    DeleteRecord {
        /// Target slot index.
        slot: u16,
        /// The deleted record bytes (undo information).
        old: Vec<u8>,
    },
    /// Replace the record at `slot` with `new`; `old` is the undo info.
    UpdateRecord {
        /// Target slot index.
        slot: u16,
        /// Previous record bytes (undo information).
        old: Vec<u8>,
        /// New record bytes.
        new: Vec<u8>,
    },
    /// Change the page's right-sibling pointer.
    SetNextPage {
        /// Previous value (undo information).
        old: PageId,
        /// New value.
        new: PageId,
    },
    /// Change the page's left-sibling pointer.
    SetPrevPage {
        /// Previous value (undo information).
        old: PageId,
        /// New value.
        new: PageId,
    },
    /// Change one two-bit entry on an allocation-map page. Allocation state
    /// is unwound by the same mechanism as data (§3).
    AllocSet {
        /// Bit-pair index within the map page.
        index: u32,
        /// Previous packed state (undo information).
        old: u8,
        /// New packed state.
        new: u8,
    },
    /// Overwrite bytes in the body of the boot page.
    BootWrite {
        /// Offset within the page body.
        offset: u16,
        /// Previous bytes (undo information).
        old: Vec<u8>,
        /// New bytes.
        new: Vec<u8>,
    },
    /// Periodic full page image (§6.1): lets `PreparePageAsOf` skip from the
    /// page header straight to the first image after the target LSN instead
    /// of undoing every modification in between. Images chain backwards via
    /// `prev_fpi_lsn`.
    FullPageImage {
        /// Previous FPI for this page, or null.
        prev_fpi_lsn: Lsn,
        /// The page image. Its `pageLSN`/`lastFpiLSN` header fields are
        /// patched to this record's LSN when applied.
        image: Box<[u8; PAGE_SIZE]>,
    },
    /// Replace the whole page image, carrying both directions as full
    /// images. Used only by compensation records that must undo a
    /// `Reformat` (rollback of a partial root split) — the paper's rule that
    /// CLRs carry undo information (§4.2-2) makes even this CLR physically
    /// undoable by `PreparePageAsOf`.
    RestoreImage {
        /// Image before this record (undo information).
        old: Box<[u8; PAGE_SIZE]>,
        /// Image after this record.
        new: Box<[u8; PAGE_SIZE]>,
    },
    /// Checkpoint begin marker, stamped with wall-clock time (used to narrow
    /// the SplitLSN search, §5.1).
    CheckpointBegin {
        /// Wall-clock time.
        at: Timestamp,
    },
    /// Checkpoint end: the fuzzy-checkpoint tables.
    CheckpointEnd(CheckpointBody),
}

impl LogPayload {
    /// The payload's kind tag (also its serialized tag byte) — read off the
    /// view, so the variant-to-kind table exists once.
    pub fn kind(&self) -> PayloadKind {
        self.as_view()
            .map_or(PayloadKind::CheckpointEnd, |v| v.kind())
    }

    /// Whether this payload modifies a page (and therefore participates in
    /// per-page chains).
    pub fn is_page_op(&self) -> bool {
        self.kind().is_page_op()
    }

    /// Overwrite the wall-clock stamp carried by commit/checkpoint payloads;
    /// a no-op for every other kind. `LogManager::append_stamped` uses this
    /// to assign the stamp *under the writer mutex*, so stamps are monotone
    /// in LSN order — the invariant the SplitLSN binary search (§5.1) and
    /// the checkpoint directory rely on.
    pub fn set_stamp(&mut self, at: Timestamp) {
        match self {
            LogPayload::Commit { at: a } | LogPayload::CheckpointBegin { at: a } => *a = at,
            LogPayload::CheckpointEnd(body) => body.at = at,
            _ => {}
        }
    }

    /// Borrow this payload as a zero-copy view, or `None` for
    /// [`LogPayload::CheckpointEnd`] (whose view form wraps raw bytes).
    /// Views carry the single implementation of redo/undo/compensation.
    pub fn as_view(&self) -> Option<LogPayloadView<'_>> {
        Some(match self {
            LogPayload::Commit { at } => LogPayloadView::Commit { at: *at },
            LogPayload::Abort => LogPayloadView::Abort,
            LogPayload::End => LogPayloadView::End,
            LogPayload::Format {
                object,
                ty,
                level,
                next,
                prev,
            } => LogPayloadView::Format {
                object: *object,
                ty: *ty,
                level: *level,
                next: *next,
                prev: *prev,
            },
            LogPayload::Preformat { prev_image } => LogPayloadView::Preformat { prev_image },
            LogPayload::Reformat {
                object,
                ty,
                level,
                prev_image,
            } => LogPayloadView::Reformat {
                object: *object,
                ty: *ty,
                level: *level,
                prev_image,
            },
            LogPayload::InsertRecord { slot, bytes } => {
                LogPayloadView::InsertRecord { slot: *slot, bytes }
            }
            LogPayload::DeleteRecord { slot, old } => {
                LogPayloadView::DeleteRecord { slot: *slot, old }
            }
            LogPayload::UpdateRecord { slot, old, new } => LogPayloadView::UpdateRecord {
                slot: *slot,
                old,
                new,
            },
            LogPayload::SetNextPage { old, new } => LogPayloadView::SetNextPage {
                old: *old,
                new: *new,
            },
            LogPayload::SetPrevPage { old, new } => LogPayloadView::SetPrevPage {
                old: *old,
                new: *new,
            },
            LogPayload::AllocSet { index, old, new } => LogPayloadView::AllocSet {
                index: *index,
                old: *old,
                new: *new,
            },
            LogPayload::BootWrite { offset, old, new } => LogPayloadView::BootWrite {
                offset: *offset,
                old,
                new,
            },
            LogPayload::FullPageImage {
                prev_fpi_lsn,
                image,
            } => LogPayloadView::FullPageImage {
                prev_fpi_lsn: *prev_fpi_lsn,
                image,
            },
            LogPayload::RestoreImage { old, new } => LogPayloadView::RestoreImage { old, new },
            LogPayload::CheckpointBegin { at } => LogPayloadView::CheckpointBegin { at: *at },
            LogPayload::CheckpointEnd(_) => return None,
        })
    }

    /// Apply the forward (redo) effect to `page` and stamp its pageLSN.
    ///
    /// Callers must have established that the record applies (ARIES redo
    /// compares `page.page_lsn() < lsn`; normal forward processing always
    /// applies).
    pub fn redo(&self, page: &mut Page, page_id: PageId, lsn: Lsn) -> Result<()> {
        match self.as_view() {
            Some(v) => v.redo(page, page_id, lsn),
            None => Err(Error::Internal(format!(
                "redo of non-page payload {self:?}"
            ))),
        }
    }

    /// Validate that the forward effect would apply cleanly to `page`,
    /// *without* modifying anything. Stores call this before appending the
    /// record so the log never contains a record whose apply failed.
    pub fn precheck(&self, page: &Page) -> Result<()> {
        match self {
            LogPayload::InsertRecord { slot, bytes } => {
                let n = page.slot_count() as usize;
                if *slot as usize > n {
                    return Err(Error::Internal(format!(
                        "insert at slot {slot} past end ({n})"
                    )));
                }
                if !page.can_insert(bytes.len()) {
                    return Err(Error::RecordTooLarge {
                        size: bytes.len(),
                        max: page.free_space(),
                    });
                }
            }
            LogPayload::DeleteRecord { slot, .. } if *slot >= page.slot_count() => {
                return Err(Error::Internal(format!("delete of missing slot {slot}")));
            }
            LogPayload::UpdateRecord { slot, new, .. } => {
                if *slot >= page.slot_count() {
                    return Err(Error::Internal(format!("update of missing slot {slot}")));
                }
                let old_len = page.record(*slot as usize)?.len();
                if new.len() > old_len && new.len() - old_len > page.free_space() {
                    return Err(Error::RecordTooLarge {
                        size: new.len(),
                        max: old_len + page.free_space(),
                    });
                }
            }
            LogPayload::AllocSet { index, .. }
                if *index as usize >= rewind_pagestore::alloc::MAP_CAPACITY =>
            {
                return Err(Error::Internal(format!("alloc index {index} out of range")));
            }
            LogPayload::BootWrite { offset, new, .. }
                if *offset as usize + new.len() > page.body().len() =>
            {
                return Err(Error::Internal("boot write out of range".into()));
            }
            _ => {}
        }
        Ok(())
    }

    /// Apply the reverse effect to `page` contents.
    ///
    /// This is the physical-undo step of `PreparePageAsOf` (paper Fig. 3):
    /// the caller walks the per-page chain and manages the final pageLSN.
    pub fn undo(&self, page: &mut Page, page_id: PageId) -> Result<()> {
        match self.as_view() {
            Some(v) => v.undo(page, page_id),
            None => Err(Error::Internal(format!(
                "undo of non-page payload {self:?}"
            ))),
        }
    }

    /// The payload a compensation log record carries to logically undo this
    /// record during rollback, or `None` if the record is not logically
    /// undoable (txn markers, checkpoints, FPIs, preformats).
    pub fn compensation(&self) -> Option<LogPayload> {
        self.as_view()?.compensation()
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u8(self.kind() as u8);
        match self {
            LogPayload::Commit { at } => w.put_u64(at.as_micros()),
            LogPayload::Abort | LogPayload::End => {}
            LogPayload::Format {
                object,
                ty,
                level,
                next,
                prev,
            } => {
                w.put_u64(object.0);
                w.put_u16(*ty as u16);
                w.put_u16(*level);
                w.put_u64(next.0);
                w.put_u64(prev.0);
            }
            LogPayload::Preformat { prev_image } => w.put_raw(&prev_image[..]),
            LogPayload::Reformat {
                object,
                ty,
                level,
                prev_image,
            } => {
                w.put_u64(object.0);
                w.put_u16(*ty as u16);
                w.put_u16(*level);
                w.put_raw(&prev_image[..]);
            }
            LogPayload::InsertRecord { slot, bytes } => {
                w.put_u16(*slot);
                w.put_bytes(bytes);
            }
            LogPayload::DeleteRecord { slot, old } => {
                w.put_u16(*slot);
                w.put_bytes(old);
            }
            LogPayload::UpdateRecord { slot, old, new } => {
                w.put_u16(*slot);
                w.put_bytes(old);
                w.put_bytes(new);
            }
            LogPayload::SetNextPage { old, new } | LogPayload::SetPrevPage { old, new } => {
                w.put_u64(old.0);
                w.put_u64(new.0);
            }
            LogPayload::AllocSet { index, old, new } => {
                w.put_u32(*index);
                w.put_u8(*old);
                w.put_u8(*new);
            }
            LogPayload::BootWrite { offset, old, new } => {
                w.put_u16(*offset);
                w.put_bytes(old);
                w.put_bytes(new);
            }
            LogPayload::FullPageImage {
                prev_fpi_lsn,
                image,
            } => {
                w.put_u64(prev_fpi_lsn.0);
                w.put_raw(&image[..]);
            }
            LogPayload::RestoreImage { old, new } => {
                w.put_raw(&old[..]);
                w.put_raw(&new[..]);
            }
            LogPayload::CheckpointBegin { at } => w.put_u64(at.as_micros()),
            LogPayload::CheckpointEnd(body) => {
                w.put_u64(body.at.as_micros());
                w.put_u64(body.begin_lsn.0);
                w.put_u32(body.att.len() as u32);
                for e in &body.att {
                    w.put_u64(e.txn.0);
                    w.put_u64(e.first_lsn.0);
                    w.put_u64(e.last_lsn.0);
                }
                w.put_u32(body.dpt.len() as u32);
                for e in &body.dpt {
                    w.put_u64(e.page.0);
                    w.put_u64(e.rec_lsn.0);
                }
            }
        }
    }
}

fn decode_checkpoint_body(r: &mut ByteReader<'_>) -> Result<CheckpointBody> {
    let at = Timestamp::from_micros(r.get_u64()?);
    let begin_lsn = Lsn(r.get_u64()?);
    let natt = r.get_u32()? as usize;
    let mut att = Vec::with_capacity(natt.min(r.remaining() / 24));
    for _ in 0..natt {
        att.push(TxnTableEntry {
            txn: TxnId(r.get_u64()?),
            first_lsn: Lsn(r.get_u64()?),
            last_lsn: Lsn(r.get_u64()?),
        });
    }
    let ndpt = r.get_u32()? as usize;
    let mut dpt = Vec::with_capacity(ndpt.min(r.remaining() / 16));
    for _ in 0..ndpt {
        dpt.push(DptEntry {
            page: PageId(r.get_u64()?),
            rec_lsn: Lsn(r.get_u64()?),
        });
    }
    Ok(CheckpointBody {
        at,
        begin_lsn,
        att,
        dpt,
    })
}

fn read_image_ref<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8; PAGE_SIZE]> {
    let raw = r.get_raw(PAGE_SIZE)?;
    raw.try_into()
        .map_err(|_| Error::log_corruption(Lsn(0), "page image shorter than PAGE_SIZE"))
}

/// The kind of operation a log record carries, decodable from the record's
/// fixed-offset tag byte without touching the payload body. Discriminants
/// match the serialized payload tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PayloadKind {
    /// [`LogPayload::Commit`].
    Commit = 1,
    /// [`LogPayload::Abort`].
    Abort = 2,
    /// [`LogPayload::End`].
    End = 3,
    /// [`LogPayload::Format`].
    Format = 4,
    /// [`LogPayload::Preformat`].
    Preformat = 5,
    /// [`LogPayload::Reformat`].
    Reformat = 6,
    /// [`LogPayload::InsertRecord`].
    InsertRecord = 7,
    /// [`LogPayload::DeleteRecord`].
    DeleteRecord = 8,
    /// [`LogPayload::UpdateRecord`].
    UpdateRecord = 9,
    /// [`LogPayload::SetNextPage`].
    SetNextPage = 10,
    /// [`LogPayload::SetPrevPage`].
    SetPrevPage = 11,
    /// [`LogPayload::AllocSet`].
    AllocSet = 12,
    /// [`LogPayload::BootWrite`].
    BootWrite = 13,
    /// [`LogPayload::FullPageImage`].
    FullPageImage = 14,
    /// [`LogPayload::CheckpointBegin`].
    CheckpointBegin = 15,
    /// [`LogPayload::CheckpointEnd`].
    CheckpointEnd = 16,
    /// [`LogPayload::RestoreImage`].
    RestoreImage = 17,
}

impl PayloadKind {
    /// Decode a serialized payload tag.
    pub fn from_tag(tag: u8) -> Result<PayloadKind> {
        Ok(match tag {
            1 => PayloadKind::Commit,
            2 => PayloadKind::Abort,
            3 => PayloadKind::End,
            4 => PayloadKind::Format,
            5 => PayloadKind::Preformat,
            6 => PayloadKind::Reformat,
            7 => PayloadKind::InsertRecord,
            8 => PayloadKind::DeleteRecord,
            9 => PayloadKind::UpdateRecord,
            10 => PayloadKind::SetNextPage,
            11 => PayloadKind::SetPrevPage,
            12 => PayloadKind::AllocSet,
            13 => PayloadKind::BootWrite,
            14 => PayloadKind::FullPageImage,
            15 => PayloadKind::CheckpointBegin,
            16 => PayloadKind::CheckpointEnd,
            17 => PayloadKind::RestoreImage,
            other => {
                return Err(Error::corruption(format!(
                    "unknown log payload tag {other}"
                )))
            }
        })
    }

    /// Whether records of this kind modify a page (and therefore participate
    /// in per-page chains).
    pub fn is_page_op(self) -> bool {
        !matches!(
            self,
            PayloadKind::Commit
                | PayloadKind::Abort
                | PayloadKind::End
                | PayloadKind::CheckpointBegin
                | PayloadKind::CheckpointEnd
        )
    }
}

/// A borrowed, allocation-free decode of a log-record payload. The single
/// implementation of redo/undo/compensation lives here; the owned
/// [`LogPayload`] delegates through [`LogPayload::as_view`].
///
/// Byte payloads (`bytes`/`old`/`new`) and page images borrow straight from
/// the log segment the record was read from, so a chain walk that undoes a
/// record never copies its payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LogPayloadView<'a> {
    /// See [`LogPayload::Commit`].
    Commit {
        /// Commit wall-clock time.
        at: Timestamp,
    },
    /// See [`LogPayload::Abort`].
    Abort,
    /// See [`LogPayload::End`].
    End,
    /// See [`LogPayload::Format`].
    Format {
        /// Owning object.
        object: ObjectId,
        /// New page type.
        ty: PageType,
        /// B-Tree level.
        level: u16,
        /// Right sibling.
        next: PageId,
        /// Left sibling.
        prev: PageId,
    },
    /// See [`LogPayload::Preformat`].
    Preformat {
        /// Borrowed image of the page's previous incarnation.
        prev_image: &'a [u8; PAGE_SIZE],
    },
    /// See [`LogPayload::Reformat`].
    Reformat {
        /// Owning object after the reformat.
        object: ObjectId,
        /// New page type.
        ty: PageType,
        /// New B-Tree level.
        level: u16,
        /// Borrowed previous image (undo information).
        prev_image: &'a [u8; PAGE_SIZE],
    },
    /// See [`LogPayload::InsertRecord`].
    InsertRecord {
        /// Target slot index.
        slot: u16,
        /// Borrowed record bytes.
        bytes: &'a [u8],
    },
    /// See [`LogPayload::DeleteRecord`].
    DeleteRecord {
        /// Target slot index.
        slot: u16,
        /// Borrowed deleted-record bytes (undo information).
        old: &'a [u8],
    },
    /// See [`LogPayload::UpdateRecord`].
    UpdateRecord {
        /// Target slot index.
        slot: u16,
        /// Borrowed previous bytes (undo information).
        old: &'a [u8],
        /// Borrowed new bytes.
        new: &'a [u8],
    },
    /// See [`LogPayload::SetNextPage`].
    SetNextPage {
        /// Previous value.
        old: PageId,
        /// New value.
        new: PageId,
    },
    /// See [`LogPayload::SetPrevPage`].
    SetPrevPage {
        /// Previous value.
        old: PageId,
        /// New value.
        new: PageId,
    },
    /// See [`LogPayload::AllocSet`].
    AllocSet {
        /// Bit-pair index within the map page.
        index: u32,
        /// Previous packed state.
        old: u8,
        /// New packed state.
        new: u8,
    },
    /// See [`LogPayload::BootWrite`].
    BootWrite {
        /// Offset within the page body.
        offset: u16,
        /// Borrowed previous bytes.
        old: &'a [u8],
        /// Borrowed new bytes.
        new: &'a [u8],
    },
    /// See [`LogPayload::FullPageImage`].
    FullPageImage {
        /// Previous FPI for this page, or null.
        prev_fpi_lsn: Lsn,
        /// Borrowed page image.
        image: &'a [u8; PAGE_SIZE],
    },
    /// See [`LogPayload::RestoreImage`].
    RestoreImage {
        /// Borrowed image before this record.
        old: &'a [u8; PAGE_SIZE],
        /// Borrowed image after this record.
        new: &'a [u8; PAGE_SIZE],
    },
    /// See [`LogPayload::CheckpointBegin`].
    CheckpointBegin {
        /// Wall-clock time.
        at: Timestamp,
    },
    /// See [`LogPayload::CheckpointEnd`]. The fuzzy-checkpoint tables stay
    /// serialized; [`LogPayloadView::to_owned_payload`] parses them.
    CheckpointEnd {
        /// The serialized checkpoint body.
        raw: &'a [u8],
    },
}

impl<'a> LogPayloadView<'a> {
    /// Decode a payload view from the payload portion of a record body
    /// (everything after the fixed header). Borrows byte payloads and page
    /// images from `bytes`; allocates nothing. The only parser of payload
    /// bodies: the owned decode materializes from this view.
    pub fn decode(bytes: &'a [u8]) -> Result<LogPayloadView<'a>> {
        let mut r = ByteReader::new(bytes);
        let view = match PayloadKind::from_tag(r.get_u8()?)? {
            PayloadKind::Commit => LogPayloadView::Commit {
                at: Timestamp::from_micros(r.get_u64()?),
            },
            PayloadKind::Abort => LogPayloadView::Abort,
            PayloadKind::End => LogPayloadView::End,
            PayloadKind::Format => LogPayloadView::Format {
                object: ObjectId(r.get_u64()?),
                ty: PageType::from_u16(r.get_u16()?)?,
                level: r.get_u16()?,
                next: PageId(r.get_u64()?),
                prev: PageId(r.get_u64()?),
            },
            PayloadKind::Preformat => LogPayloadView::Preformat {
                prev_image: read_image_ref(&mut r)?,
            },
            PayloadKind::Reformat => LogPayloadView::Reformat {
                object: ObjectId(r.get_u64()?),
                ty: PageType::from_u16(r.get_u16()?)?,
                level: r.get_u16()?,
                prev_image: read_image_ref(&mut r)?,
            },
            PayloadKind::InsertRecord => LogPayloadView::InsertRecord {
                slot: r.get_u16()?,
                bytes: r.get_bytes()?,
            },
            PayloadKind::DeleteRecord => LogPayloadView::DeleteRecord {
                slot: r.get_u16()?,
                old: r.get_bytes()?,
            },
            PayloadKind::UpdateRecord => LogPayloadView::UpdateRecord {
                slot: r.get_u16()?,
                old: r.get_bytes()?,
                new: r.get_bytes()?,
            },
            PayloadKind::SetNextPage => LogPayloadView::SetNextPage {
                old: PageId(r.get_u64()?),
                new: PageId(r.get_u64()?),
            },
            PayloadKind::SetPrevPage => LogPayloadView::SetPrevPage {
                old: PageId(r.get_u64()?),
                new: PageId(r.get_u64()?),
            },
            PayloadKind::AllocSet => LogPayloadView::AllocSet {
                index: r.get_u32()?,
                old: r.get_u8()?,
                new: r.get_u8()?,
            },
            PayloadKind::BootWrite => LogPayloadView::BootWrite {
                offset: r.get_u16()?,
                old: r.get_bytes()?,
                new: r.get_bytes()?,
            },
            PayloadKind::FullPageImage => LogPayloadView::FullPageImage {
                prev_fpi_lsn: Lsn(r.get_u64()?),
                image: read_image_ref(&mut r)?,
            },
            PayloadKind::RestoreImage => LogPayloadView::RestoreImage {
                old: read_image_ref(&mut r)?,
                new: read_image_ref(&mut r)?,
            },
            PayloadKind::CheckpointBegin => LogPayloadView::CheckpointBegin {
                at: Timestamp::from_micros(r.get_u64()?),
            },
            PayloadKind::CheckpointEnd => {
                // Keep the tables serialized; consume everything.
                let raw = r.get_raw(r.remaining())?;
                LogPayloadView::CheckpointEnd { raw }
            }
        };
        if !r.is_exhausted() {
            return Err(Error::corruption(format!(
                "{} trailing bytes after log payload",
                r.remaining()
            )));
        }
        Ok(view)
    }

    /// The payload's kind tag.
    pub fn kind(&self) -> PayloadKind {
        match self {
            LogPayloadView::Commit { .. } => PayloadKind::Commit,
            LogPayloadView::Abort => PayloadKind::Abort,
            LogPayloadView::End => PayloadKind::End,
            LogPayloadView::Format { .. } => PayloadKind::Format,
            LogPayloadView::Preformat { .. } => PayloadKind::Preformat,
            LogPayloadView::Reformat { .. } => PayloadKind::Reformat,
            LogPayloadView::InsertRecord { .. } => PayloadKind::InsertRecord,
            LogPayloadView::DeleteRecord { .. } => PayloadKind::DeleteRecord,
            LogPayloadView::UpdateRecord { .. } => PayloadKind::UpdateRecord,
            LogPayloadView::SetNextPage { .. } => PayloadKind::SetNextPage,
            LogPayloadView::SetPrevPage { .. } => PayloadKind::SetPrevPage,
            LogPayloadView::AllocSet { .. } => PayloadKind::AllocSet,
            LogPayloadView::BootWrite { .. } => PayloadKind::BootWrite,
            LogPayloadView::FullPageImage { .. } => PayloadKind::FullPageImage,
            LogPayloadView::RestoreImage { .. } => PayloadKind::RestoreImage,
            LogPayloadView::CheckpointBegin { .. } => PayloadKind::CheckpointBegin,
            LogPayloadView::CheckpointEnd { .. } => PayloadKind::CheckpointEnd,
        }
    }

    /// Whether this payload modifies a page.
    pub fn is_page_op(&self) -> bool {
        self.kind().is_page_op()
    }

    /// The wall-clock stamp of a commit, checkpoint-begin or checkpoint-end
    /// record: every kind the log's time index keys (`LogInner::push_time`),
    /// so the SplitLSN search can read the stamp of whatever record the
    /// index starts it on.
    pub fn time_stamp(&self) -> Option<Timestamp> {
        match self {
            LogPayloadView::Commit { at } | LogPayloadView::CheckpointBegin { at } => Some(*at),
            // The stamp leads the serialized body.
            LogPayloadView::CheckpointEnd { raw } => ByteReader::new(raw)
                .get_u64()
                .ok()
                .map(Timestamp::from_micros),
            _ => None,
        }
    }

    /// Materialize an owned [`LogPayload`] (the only step that copies).
    pub fn to_owned_payload(&self) -> Result<LogPayload> {
        Ok(match *self {
            LogPayloadView::Commit { at } => LogPayload::Commit { at },
            LogPayloadView::Abort => LogPayload::Abort,
            LogPayloadView::End => LogPayload::End,
            LogPayloadView::Format {
                object,
                ty,
                level,
                next,
                prev,
            } => LogPayload::Format {
                object,
                ty,
                level,
                next,
                prev,
            },
            LogPayloadView::Preformat { prev_image } => LogPayload::Preformat {
                prev_image: Box::new(*prev_image),
            },
            LogPayloadView::Reformat {
                object,
                ty,
                level,
                prev_image,
            } => LogPayload::Reformat {
                object,
                ty,
                level,
                prev_image: Box::new(*prev_image),
            },
            LogPayloadView::InsertRecord { slot, bytes } => LogPayload::InsertRecord {
                slot,
                bytes: bytes.to_vec(),
            },
            LogPayloadView::DeleteRecord { slot, old } => LogPayload::DeleteRecord {
                slot,
                old: old.to_vec(),
            },
            LogPayloadView::UpdateRecord { slot, old, new } => LogPayload::UpdateRecord {
                slot,
                old: old.to_vec(),
                new: new.to_vec(),
            },
            LogPayloadView::SetNextPage { old, new } => LogPayload::SetNextPage { old, new },
            LogPayloadView::SetPrevPage { old, new } => LogPayload::SetPrevPage { old, new },
            LogPayloadView::AllocSet { index, old, new } => {
                LogPayload::AllocSet { index, old, new }
            }
            LogPayloadView::BootWrite { offset, old, new } => LogPayload::BootWrite {
                offset,
                old: old.to_vec(),
                new: new.to_vec(),
            },
            LogPayloadView::FullPageImage {
                prev_fpi_lsn,
                image,
            } => LogPayload::FullPageImage {
                prev_fpi_lsn,
                image: Box::new(*image),
            },
            LogPayloadView::RestoreImage { old, new } => LogPayload::RestoreImage {
                old: Box::new(*old),
                new: Box::new(*new),
            },
            LogPayloadView::CheckpointBegin { at } => LogPayload::CheckpointBegin { at },
            LogPayloadView::CheckpointEnd { raw } => {
                let mut r = ByteReader::new(raw);
                let body = decode_checkpoint_body(&mut r)?;
                if !r.is_exhausted() {
                    return Err(Error::corruption(format!(
                        "{} trailing bytes after checkpoint body",
                        r.remaining()
                    )));
                }
                LogPayload::CheckpointEnd(body)
            }
        })
    }

    /// Apply the forward (redo) effect to `page` and stamp its pageLSN,
    /// straight from the borrowed payload.
    pub fn redo(&self, page: &mut Page, page_id: PageId, lsn: Lsn) -> Result<()> {
        match *self {
            LogPayloadView::Format {
                object,
                ty,
                level,
                next,
                prev,
            } => {
                page.format(page_id, object, ty);
                page.set_level(level);
                page.set_next_page(next);
                page.set_prev_page(prev);
            }
            LogPayloadView::Preformat { .. } => {
                // The preformat record *stores* the previous content; its
                // forward effect is nil (the page is about to be formatted).
            }
            LogPayloadView::Reformat {
                object, ty, level, ..
            } => {
                page.format(page_id, object, ty);
                page.set_level(level);
            }
            LogPayloadView::InsertRecord { slot, bytes } => {
                page.insert_record(slot as usize, bytes)?;
            }
            LogPayloadView::DeleteRecord { slot, .. } => {
                page.remove_record(slot as usize)?;
            }
            LogPayloadView::UpdateRecord { slot, new, .. } => {
                page.replace_record(slot as usize, new)?;
            }
            LogPayloadView::SetNextPage { new, .. } => page.set_next_page(new),
            LogPayloadView::SetPrevPage { new, .. } => page.set_prev_page(new),
            LogPayloadView::AllocSet { index, new, .. } => {
                rewind_pagestore::alloc::set_state(
                    page,
                    index as usize,
                    rewind_pagestore::alloc::PageState::from_bits(new),
                )?;
            }
            LogPayloadView::BootWrite { offset, new, .. } => {
                let off = offset as usize;
                page.body_mut()[off..off + new.len()].copy_from_slice(new);
            }
            LogPayloadView::FullPageImage { image, .. } => {
                page.restore_image(image);
                page.set_last_fpi_lsn(lsn);
            }
            LogPayloadView::RestoreImage { new, .. } => {
                page.restore_image(new);
            }
            _ => {
                return Err(Error::Internal(format!(
                    "redo of non-page payload {self:?}"
                )));
            }
        }
        page.set_page_lsn(lsn);
        Ok(())
    }

    /// Apply the reverse effect to `page` contents, straight from the
    /// borrowed payload. See [`LogPayload::undo`].
    pub fn undo(&self, page: &mut Page, page_id: PageId) -> Result<()> {
        match *self {
            LogPayloadView::Format { .. } => {
                // Back to "unallocated": erase. If a previous incarnation
                // existed, the preceding Preformat/Reformat image restores it
                // as the chain walk continues.
                page.format(page_id, ObjectId::NONE, PageType::Free);
            }
            LogPayloadView::Reformat { prev_image, .. } => {
                page.restore_image(prev_image);
            }
            LogPayloadView::Preformat { prev_image } => {
                page.restore_image(prev_image);
            }
            LogPayloadView::InsertRecord { slot, .. } => {
                page.remove_record(slot as usize)?;
            }
            LogPayloadView::DeleteRecord { slot, old } => {
                page.insert_record(slot as usize, old)?;
            }
            LogPayloadView::UpdateRecord { slot, old, .. } => {
                page.replace_record(slot as usize, old)?;
            }
            LogPayloadView::SetNextPage { old, .. } => page.set_next_page(old),
            LogPayloadView::SetPrevPage { old, .. } => page.set_prev_page(old),
            LogPayloadView::AllocSet { index, old, .. } => {
                rewind_pagestore::alloc::set_state(
                    page,
                    index as usize,
                    rewind_pagestore::alloc::PageState::from_bits(old),
                )?;
            }
            LogPayloadView::BootWrite { offset, old, .. } => {
                let off = offset as usize;
                page.body_mut()[off..off + old.len()].copy_from_slice(old);
            }
            LogPayloadView::FullPageImage { prev_fpi_lsn, .. } => {
                // Content was identical before and after; only the FPI-chain
                // anchor moves back.
                page.set_last_fpi_lsn(prev_fpi_lsn);
            }
            LogPayloadView::RestoreImage { old, .. } => {
                page.restore_image(old);
            }
            _ => {
                return Err(Error::Internal(format!(
                    "undo of non-page payload {self:?}"
                )));
            }
        }
        Ok(())
    }

    /// The owned payload a compensation log record carries to logically undo
    /// this record, or `None` if it is not logically undoable.
    pub fn compensation(&self) -> Option<LogPayload> {
        match *self {
            LogPayloadView::InsertRecord { slot, bytes } => Some(LogPayload::DeleteRecord {
                slot,
                old: bytes.to_vec(),
            }),
            LogPayloadView::DeleteRecord { slot, old } => Some(LogPayload::InsertRecord {
                slot,
                bytes: old.to_vec(),
            }),
            LogPayloadView::UpdateRecord { slot, old, new } => Some(LogPayload::UpdateRecord {
                slot,
                old: new.to_vec(),
                new: old.to_vec(),
            }),
            LogPayloadView::SetNextPage { old, new } => {
                Some(LogPayload::SetNextPage { old: new, new: old })
            }
            LogPayloadView::SetPrevPage { old, new } => {
                Some(LogPayload::SetPrevPage { old: new, new: old })
            }
            LogPayloadView::AllocSet { index, old, new } => Some(LogPayload::AllocSet {
                index,
                old: new,
                new: old,
            }),
            LogPayloadView::BootWrite { offset, old, new } => Some(LogPayload::BootWrite {
                offset,
                old: new.to_vec(),
                new: old.to_vec(),
            }),
            LogPayloadView::RestoreImage { old, new } => Some(LogPayload::RestoreImage {
                old: Box::new(*new),
                new: Box::new(*old),
            }),
            _ => None,
        }
    }
}

/// A complete log record: header plus payload.
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord {
    /// The record's LSN (its byte offset in the log stream). Assigned at
    /// append time; not serialized.
    pub lsn: Lsn,
    /// Owning transaction, or [`TxnId::NONE`] for system records.
    pub txn: TxnId,
    /// Previous record of the same transaction (rollback chain).
    pub prev_lsn: Lsn,
    /// Page modified by this record, or invalid for pure-transaction records.
    pub page: PageId,
    /// Previous record that modified the same page — the paper's per-page
    /// chain (§4.1-B).
    pub prev_page_lsn: Lsn,
    /// Object owning the modified page (lets snapshot recovery reacquire row
    /// locks without reading pages, §5.2).
    pub object: ObjectId,
    /// For CLRs: the next record of the transaction to undo.
    pub undo_next: Lsn,
    /// Record flags ([`REC_FLAG_CLR`], [`REC_FLAG_SYSTEM`]).
    pub flags: RecordFlags,
    /// The operation.
    pub payload: LogPayload,
}

/// Size of the fixed record header in a serialized body: six `u64` link and
/// id fields plus the flags byte. The payload (tag byte first) follows.
pub const RECORD_HEADER_BYTES: usize = 49;

/// The fixed-offset fields of a log record, decodable without touching the
/// payload body. This is everything a backward chain walk (per-page
/// `prev_page_lsn`, per-transaction `prev_lsn`, CLR `undo_next`) needs to
/// navigate, so header-only walks skip payload decoding entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogRecordHeader {
    /// The record's LSN (byte offset in the log stream).
    pub lsn: Lsn,
    /// Owning transaction, or [`TxnId::NONE`] for system records.
    pub txn: TxnId,
    /// Previous record of the same transaction (rollback chain).
    pub prev_lsn: Lsn,
    /// Page modified by this record, or invalid.
    pub page: PageId,
    /// Previous record that modified the same page (per-page chain).
    pub prev_page_lsn: Lsn,
    /// Object owning the modified page.
    pub object: ObjectId,
    /// For CLRs: the next record of the transaction to undo.
    pub undo_next: Lsn,
    /// Record flags.
    pub flags: RecordFlags,
    /// Kind of the payload that follows the header.
    pub kind: PayloadKind,
}

impl LogRecordHeader {
    /// Whether this record is a compensation log record.
    pub fn is_clr(&self) -> bool {
        self.flags & REC_FLAG_CLR != 0
    }

    /// Whether this record belongs to a system transaction.
    pub fn is_system(&self) -> bool {
        self.flags & REC_FLAG_SYSTEM != 0
    }

    /// Whether the payload modifies a page.
    pub fn is_page_op(&self) -> bool {
        self.kind.is_page_op()
    }
}

impl LogRecord {
    /// Whether this record is a compensation log record.
    pub fn is_clr(&self) -> bool {
        self.flags & REC_FLAG_CLR != 0
    }

    /// Whether this record belongs to a system (structure-modification)
    /// transaction.
    pub fn is_system(&self) -> bool {
        self.flags & REC_FLAG_SYSTEM != 0
    }

    /// This record's fixed-offset header fields.
    pub fn header(&self) -> LogRecordHeader {
        LogRecordHeader {
            lsn: self.lsn,
            txn: self.txn,
            prev_lsn: self.prev_lsn,
            page: self.page,
            prev_page_lsn: self.prev_page_lsn,
            object: self.object,
            undo_next: self.undo_next,
            flags: self.flags,
            kind: self.payload.kind(),
        }
    }

    /// Serialize the record body (everything but the LSN, which is implicit
    /// in the record's position).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Serialize the record body by appending to `out`, allocating nothing
    /// when `out` has capacity. The log manager's append path reuses one
    /// scratch buffer across appends through this.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::from_vec(std::mem::take(out));
        w.put_u64(self.txn.0);
        w.put_u64(self.prev_lsn.0);
        w.put_u64(self.page.0);
        w.put_u64(self.prev_page_lsn.0);
        w.put_u64(self.object.0);
        w.put_u64(self.undo_next.0);
        w.put_u8(self.flags);
        self.payload.encode_into(&mut w);
        *out = w.into_bytes();
    }

    /// Decode only the fixed header fields of a record body — no payload
    /// walk, no allocation. `lsn` is the offset the body was read from.
    pub fn decode_header(lsn: Lsn, bytes: &[u8]) -> Result<LogRecordHeader> {
        if bytes.len() < RECORD_HEADER_BYTES + 1 {
            return Err(Error::corruption(format!(
                "log record at {lsn} too short for header ({} bytes)",
                bytes.len()
            )));
        }
        use rewind_common::codec::read_u64_at;
        Ok(LogRecordHeader {
            lsn,
            txn: TxnId(read_u64_at(bytes, 0)),
            prev_lsn: Lsn(read_u64_at(bytes, 8)),
            page: PageId(read_u64_at(bytes, 16)),
            prev_page_lsn: Lsn(read_u64_at(bytes, 24)),
            object: ObjectId(read_u64_at(bytes, 32)),
            undo_next: Lsn(read_u64_at(bytes, 40)),
            flags: bytes[48],
            kind: PayloadKind::from_tag(bytes[RECORD_HEADER_BYTES])?,
        })
    }

    /// Decode the header plus a borrowed payload view — the allocation-free
    /// counterpart of [`LogRecord::decode`].
    pub fn decode_view(lsn: Lsn, bytes: &[u8]) -> Result<(LogRecordHeader, LogPayloadView<'_>)> {
        let header = Self::decode_header(lsn, bytes)?;
        let view = LogPayloadView::decode(&bytes[RECORD_HEADER_BYTES..]).map_err(|e| match e {
            Error::Corruption {
                kind,
                lsn: at,
                pid,
                detail,
            } => Error::Corruption {
                kind,
                lsn: Some(at.unwrap_or(lsn)),
                pid,
                detail: format!("{detail} at {lsn}"),
            },
            other => other,
        })?;
        Ok((header, view))
    }

    /// Deserialize a record body; `lsn` is the offset it was read from.
    pub fn decode(lsn: Lsn, bytes: &[u8]) -> Result<LogRecord> {
        let (header, view) = Self::decode_view(lsn, bytes)?;
        Ok(LogRecord {
            lsn,
            txn: header.txn,
            prev_lsn: header.prev_lsn,
            page: header.page,
            prev_page_lsn: header.prev_page_lsn,
            object: header.object,
            undo_next: header.undo_next,
            flags: header.flags,
            payload: view.to_owned_payload()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(fill: u8) -> Box<[u8; PAGE_SIZE]> {
        Box::new([fill; PAGE_SIZE])
    }

    fn all_payloads() -> Vec<LogPayload> {
        vec![
            LogPayload::Commit {
                at: Timestamp::from_secs(9),
            },
            LogPayload::Abort,
            LogPayload::End,
            LogPayload::Format {
                object: ObjectId(4),
                ty: PageType::BTreeLeaf,
                level: 0,
                next: PageId(9),
                prev: PageId::INVALID,
            },
            LogPayload::Preformat { prev_image: img(3) },
            LogPayload::Reformat {
                object: ObjectId(4),
                ty: PageType::BTreeInternal,
                level: 1,
                prev_image: img(7),
            },
            LogPayload::InsertRecord {
                slot: 2,
                bytes: b"rec".to_vec(),
            },
            LogPayload::DeleteRecord {
                slot: 0,
                old: b"gone".to_vec(),
            },
            LogPayload::UpdateRecord {
                slot: 1,
                old: b"a".to_vec(),
                new: b"bb".to_vec(),
            },
            LogPayload::SetNextPage {
                old: PageId(1),
                new: PageId(2),
            },
            LogPayload::SetPrevPage {
                old: PageId::INVALID,
                new: PageId(3),
            },
            LogPayload::AllocSet {
                index: 77,
                old: 0b10,
                new: 0b11,
            },
            LogPayload::BootWrite {
                offset: 16,
                old: vec![0; 8],
                new: vec![1; 8],
            },
            LogPayload::FullPageImage {
                prev_fpi_lsn: Lsn(5),
                image: img(9),
            },
            LogPayload::RestoreImage {
                old: img(1),
                new: img(2),
            },
            LogPayload::CheckpointBegin {
                at: Timestamp::from_secs(1),
            },
            LogPayload::CheckpointEnd(CheckpointBody {
                at: Timestamp::from_secs(2),
                begin_lsn: Lsn(8),
                att: vec![TxnTableEntry {
                    txn: TxnId(5),
                    first_lsn: Lsn(10),
                    last_lsn: Lsn(99),
                }],
                dpt: vec![DptEntry {
                    page: PageId(3),
                    rec_lsn: Lsn(40),
                }],
            }),
        ]
    }

    #[test]
    fn serialization_roundtrip_every_payload() {
        for payload in all_payloads() {
            let rec = LogRecord {
                lsn: Lsn(64),
                txn: TxnId(7),
                prev_lsn: Lsn(32),
                page: PageId(5),
                prev_page_lsn: Lsn(16),
                object: ObjectId(12),
                undo_next: Lsn(8),
                flags: REC_FLAG_CLR,
                payload: payload.clone(),
            };
            let bytes = rec.encode();
            let back = LogRecord::decode(Lsn(64), &bytes).unwrap();
            assert_eq!(back, rec, "payload {payload:?}");
        }
    }

    #[test]
    fn header_and_view_decode_agree_with_owned_for_every_payload() {
        for payload in all_payloads() {
            let rec = LogRecord {
                lsn: Lsn(64),
                txn: TxnId(7),
                prev_lsn: Lsn(32),
                page: PageId(5),
                prev_page_lsn: Lsn(16),
                object: ObjectId(12),
                undo_next: Lsn(8),
                flags: REC_FLAG_CLR,
                payload: payload.clone(),
            };
            let bytes = rec.encode();
            // header-only decode sees exactly the owned record's header
            let header = LogRecord::decode_header(Lsn(64), &bytes).unwrap();
            assert_eq!(header, rec.header(), "payload {payload:?}");
            assert_eq!(header.kind, payload.kind());
            assert!(header.is_clr());
            // borrowed view materializes back to the identical owned payload
            let (header2, view) = LogRecord::decode_view(Lsn(64), &bytes).unwrap();
            assert_eq!(header2, header);
            assert_eq!(view.kind(), payload.kind());
            assert_eq!(
                view.to_owned_payload().unwrap(),
                payload,
                "payload {payload:?}"
            );
            // the owned payload's as_view matches the decoded view
            if let Some(owned_view) = payload.as_view() {
                assert_eq!(owned_view, view, "payload {payload:?}");
            } else {
                assert_eq!(payload.kind(), PayloadKind::CheckpointEnd);
            }
        }
    }

    #[test]
    fn view_redo_undo_match_owned_for_row_ops() {
        let pid = PageId(5);
        let mut base = Page::formatted(pid, ObjectId(4), PageType::BTreeLeaf);
        base.insert_record(0, b"alpha").unwrap();
        base.insert_record(1, b"omega").unwrap();
        base.set_page_lsn(Lsn(100));
        let cases = vec![
            LogPayload::InsertRecord {
                slot: 1,
                bytes: b"middle".to_vec(),
            },
            LogPayload::DeleteRecord {
                slot: 0,
                old: b"alpha".to_vec(),
            },
            LogPayload::UpdateRecord {
                slot: 1,
                old: b"omega".to_vec(),
                new: b"OMEGA!".to_vec(),
            },
        ];
        for payload in cases {
            let bytes = LogRecord {
                lsn: Lsn::NULL,
                txn: TxnId(1),
                prev_lsn: Lsn::NULL,
                page: pid,
                prev_page_lsn: Lsn(100),
                object: ObjectId(4),
                undo_next: Lsn::NULL,
                flags: 0,
                payload: payload.clone(),
            }
            .encode();
            let (_, view) = LogRecord::decode_view(Lsn(200), &bytes).unwrap();
            // redo via the borrowed view == redo via the owned payload
            let mut via_view = base.clone();
            let mut via_owned = base.clone();
            view.redo(&mut via_view, pid, Lsn(200)).unwrap();
            payload.redo(&mut via_owned, pid, Lsn(200)).unwrap();
            assert_eq!(
                via_view.image()[..],
                via_owned.image()[..],
                "redo {payload:?}"
            );
            // and the view's undo restores the logical base state
            view.undo(&mut via_view, pid).unwrap();
            let a: Vec<_> = base.records().collect();
            let b: Vec<_> = via_view.records().collect();
            assert_eq!(a, b, "undo {payload:?}");
        }
    }

    #[test]
    fn decode_rejects_truncation_and_junk() {
        let rec = LogRecord {
            lsn: Lsn(8),
            txn: TxnId(1),
            prev_lsn: Lsn::NULL,
            page: PageId(2),
            prev_page_lsn: Lsn::NULL,
            object: ObjectId(1),
            undo_next: Lsn::NULL,
            flags: 0,
            payload: LogPayload::InsertRecord {
                slot: 0,
                bytes: b"xy".to_vec(),
            },
        };
        let bytes = rec.encode();
        assert!(LogRecord::decode(Lsn(8), &bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(LogRecord::decode(Lsn(8), &extended).is_err());
        let mut junk = bytes;
        junk[49] = 200; // payload tag byte
        assert!(LogRecord::decode(Lsn(8), &junk).is_err());
    }

    #[test]
    fn redo_then_undo_is_identity_for_row_ops() {
        use rewind_pagestore::page::Page;
        let pid = PageId(5);
        let mut base = Page::formatted(pid, ObjectId(4), PageType::BTreeLeaf);
        base.insert_record(0, b"alpha").unwrap();
        base.insert_record(1, b"omega").unwrap();
        base.set_page_lsn(Lsn(100));

        let cases = vec![
            LogPayload::InsertRecord {
                slot: 1,
                bytes: b"middle".to_vec(),
            },
            LogPayload::DeleteRecord {
                slot: 0,
                old: b"alpha".to_vec(),
            },
            LogPayload::UpdateRecord {
                slot: 1,
                old: b"omega".to_vec(),
                new: b"OMEGA!".to_vec(),
            },
            LogPayload::SetNextPage {
                old: PageId::INVALID,
                new: PageId(9),
            },
            LogPayload::SetPrevPage {
                old: PageId::INVALID,
                new: PageId(4),
            },
        ];
        for payload in cases {
            let mut p = base.clone();
            payload.redo(&mut p, pid, Lsn(200)).unwrap();
            assert_eq!(p.page_lsn(), Lsn(200));
            payload.undo(&mut p, pid).unwrap();
            p.set_page_lsn(Lsn(100));
            // logical equality: same records in same order + same links
            let a: Vec<_> = base.records().collect();
            let b: Vec<_> = p.records().collect();
            assert_eq!(a, b, "payload {payload:?}");
            assert_eq!(p.next_page(), base.next_page());
            assert_eq!(p.prev_page(), base.prev_page());
        }
    }

    #[test]
    fn fpi_redo_restores_image_and_anchors_chain() {
        let pid = PageId(3);
        let mut p = Page::formatted(pid, ObjectId(2), PageType::Heap);
        p.insert_record(0, b"row").unwrap();
        p.set_page_lsn(Lsn(50));
        let payload = LogPayload::FullPageImage {
            prev_fpi_lsn: Lsn(20),
            image: Box::new(*p.image()),
        };

        let mut q = Page::zeroed();
        payload.redo(&mut q, pid, Lsn(70)).unwrap();
        assert_eq!(q.record(0).unwrap(), b"row");
        assert_eq!(q.page_lsn(), Lsn(70));
        assert_eq!(q.last_fpi_lsn(), Lsn(70));

        payload.undo(&mut q, pid).unwrap();
        assert_eq!(q.last_fpi_lsn(), Lsn(20), "undo moves FPI anchor back");
        assert_eq!(
            q.record(0).unwrap(),
            b"row",
            "content untouched by FPI undo"
        );
    }

    #[test]
    fn preformat_undo_restores_previous_incarnation() {
        let pid = PageId(11);
        let mut old_page = Page::formatted(pid, ObjectId(3), PageType::BTreeLeaf);
        old_page.insert_record(0, b"precious-old-data").unwrap();
        old_page.set_page_lsn(Lsn(40));

        let pre = LogPayload::Preformat {
            prev_image: Box::new(*old_page.image()),
        };
        let fmt = LogPayload::Format {
            object: ObjectId(9),
            ty: PageType::Heap,
            level: 0,
            next: PageId::INVALID,
            prev: PageId::INVALID,
        };

        // forward: preformat (nil) then format
        let mut p = old_page.clone();
        pre.redo(&mut p, pid, Lsn(100)).unwrap();
        fmt.redo(&mut p, pid, Lsn(110)).unwrap();
        assert_eq!(p.page_type(), PageType::Heap);
        assert_eq!(p.slot_count(), 0);

        // backward: undo format (erase), then undo preformat (restore image)
        fmt.undo(&mut p, pid).unwrap();
        assert_eq!(p.page_type(), PageType::Free);
        pre.undo(&mut p, pid).unwrap();
        assert_eq!(p.record(0).unwrap(), b"precious-old-data");
        assert_eq!(
            p.page_lsn(),
            Lsn(40),
            "previous incarnation's pageLSN restored"
        );
    }

    #[test]
    fn compensation_payloads_invert() {
        let pid = PageId(5);
        let mut base = Page::formatted(pid, ObjectId(4), PageType::BTreeLeaf);
        base.insert_record(0, b"row0").unwrap();
        let cases = vec![
            LogPayload::InsertRecord {
                slot: 1,
                bytes: b"x".to_vec(),
            },
            LogPayload::DeleteRecord {
                slot: 0,
                old: b"row0".to_vec(),
            },
            LogPayload::UpdateRecord {
                slot: 0,
                old: b"row0".to_vec(),
                new: b"ROW0".to_vec(),
            },
            LogPayload::AllocSet {
                index: 3,
                old: 0,
                new: 3,
            },
        ];
        for payload in cases {
            let comp = payload.compensation().expect("undoable");
            if matches!(payload, LogPayload::AllocSet { .. }) {
                continue; // needs a map page; inversion checked structurally below
            }
            let mut p = base.clone();
            payload.redo(&mut p, pid, Lsn(10)).unwrap();
            comp.redo(&mut p, pid, Lsn(20)).unwrap();
            let a: Vec<_> = base.records().collect();
            let b: Vec<_> = p.records().collect();
            assert_eq!(a, b, "compensation of {payload:?}");
        }
        // structural inversion for AllocSet
        match (LogPayload::AllocSet {
            index: 3,
            old: 0,
            new: 3,
        })
        .compensation()
        .unwrap()
        {
            LogPayload::AllocSet { index, old, new } => {
                assert_eq!((index, old, new), (3, 3, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(LogPayload::Commit {
            at: Timestamp::ZERO
        }
        .compensation()
        .is_none());
        assert!(LogPayload::Preformat { prev_image: img(0) }
            .compensation()
            .is_none());
    }

    #[test]
    fn page_op_classification() {
        assert!(!LogPayload::Commit {
            at: Timestamp::ZERO
        }
        .is_page_op());
        assert!(!LogPayload::CheckpointEnd(CheckpointBody::default()).is_page_op());
        assert!(LogPayload::InsertRecord {
            slot: 0,
            bytes: vec![]
        }
        .is_page_op());
        assert!(LogPayload::Preformat { prev_image: img(0) }.is_page_op());
    }
}
