//! Log record format: header, payloads, serialization, and redo/undo
//! application.
//!
//! Payloads are *physiological*: they name a slot on a page and carry both
//! redo and undo byte images. That makes every record independently
//! undoable, which is the property the paper's page-oriented undo relies on
//! (§4.1-B) — including CLRs and the delete half of structure modifications
//! (§4.2).
//!
//! # One payload type, two instantiations
//!
//! The eighteen payload kinds are defined once, by [`Payload`], generic over
//! where its byte payloads (`B`) and page images (`I`) live. `kind`,
//! `precheck`, `redo`, `undo`, `compensation` and the encoder are written
//! once for every instantiation, and [`LogPayloadView::decode`] is the one
//! parser. The engine builds and reads only [`LogPayloadView`], which
//! borrows: records are built from bytes the caller already holds, and a
//! decoded record borrows straight from the log segment it was read from,
//! so neither appending nor a chain walk copies a payload.
//!
//! [`LogPayload`], the owning instantiation, exists for callers outside the
//! engine that build a record from values they own and append it; nothing
//! in the engine names it.

use rewind_common::codec::{ByteReader, ByteWriter};
use rewind_common::{Error, Lsn, ObjectId, PageId, Result, Timestamp, TxnId};
use rewind_pagestore::page::{Page, PageType, PAGE_SIZE};
use std::ops::Deref;

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

/// The fuzzy-checkpoint tables of a checkpoint-end record: the one owned
/// part of the format. [`Payload::CheckpointEnd`] carries them serialized
/// (`tables`); [`CheckpointBody::encode`] writes that form and
/// [`CheckpointBody::decode`] parses it.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CheckpointBody {
    /// Active transactions at checkpoint time.
    pub att: Vec<TxnTableEntry>,
    /// Dirty pages at checkpoint time.
    pub dpt: Vec<DptEntry>,
}

impl CheckpointBody {
    /// Serialize the tables: a `u32` count and the entries of each.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.att.len() as u32);
        for e in &self.att {
            w.put_u64(e.txn.0);
            w.put_u64(e.first_lsn.0);
            w.put_u64(e.last_lsn.0);
        }
        w.put_u32(self.dpt.len() as u32);
        for e in &self.dpt {
            w.put_u64(e.page.0);
            w.put_u64(e.rec_lsn.0);
        }
        w.into_bytes()
    }

    /// Parse the serialized tables of a checkpoint-end record.
    pub fn decode(tables: &[u8]) -> Result<CheckpointBody> {
        let mut r = ByteReader::new(tables);
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
        if !r.is_exhausted() {
            return Err(Error::corruption(format!(
                "{} trailing bytes after checkpoint body",
                r.remaining()
            )));
        }
        Ok(CheckpointBody { att, dpt })
    }
}

/// The operation described by a log record: the one definition of the
/// payload kinds, generic over byte storage `B` and page-image storage `I`
/// (see the module docs for the two instantiations).
///
/// Page-modifying payloads implement [`Payload::redo`] (apply forward,
/// stamping the page LSN) and [`Payload::undo`] (apply the exact reverse to
/// the page contents; LSN bookkeeping is the caller's job, see
/// `PreparePageAsOf`). [`Payload::compensation`] produces the payload a CLR
/// would carry to logically undo this record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Payload<B, I> {
    /// Transaction committed at the given wall-clock time. SplitLSN search
    /// (§5.1) keys off these stamps.
    Commit {
        /// Commit wall-clock time.
        at: Timestamp,
    },
    /// Transaction rollback has begun.
    Abort,
    /// Transaction is fully finished (rolled back, or undone by restart).
    /// Closes the transaction's chain: every reader takes `End` to mean the
    /// transaction is over.
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
        prev_image: I,
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
        prev_image: I,
    },
    /// Insert `bytes` as a new record at `slot`.
    InsertRecord {
        /// Target slot index.
        slot: u16,
        /// Record bytes.
        bytes: B,
    },
    /// Delete the record at `slot`. `old` is the undo information — present
    /// even when this delete is half of a structure-modification move
    /// (§4.2-3) or inside a CLR (§4.2-2).
    DeleteRecord {
        /// Target slot index.
        slot: u16,
        /// The deleted record bytes (undo information).
        old: B,
    },
    /// Replace the record at `slot` with `new`; `old` is the undo info.
    UpdateRecord {
        /// Target slot index.
        slot: u16,
        /// Previous record bytes (undo information).
        old: B,
        /// New record bytes.
        new: B,
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
        old: B,
        /// New bytes.
        new: B,
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
        image: I,
    },
    /// Replace the whole page image, carrying both directions as full
    /// images. Used only by compensation records that must undo a
    /// `Reformat` (rollback of a partial root split) — the paper's rule that
    /// CLRs carry undo information (§4.2-2) makes even this CLR physically
    /// undoable by `PreparePageAsOf`.
    RestoreImage {
        /// Image before this record (undo information).
        old: I,
        /// Image after this record.
        new: I,
    },
    /// Closes a structure modification inside a transaction (ARIES'
    /// nested-top-action dummy CLR, §4.2-3). Logged with
    /// `REC_FLAG_CLR | REC_FLAG_SYSTEM` and `undo_next` pointing at the
    /// transaction's last record before the modification, so undo jumps
    /// over the completed split. The transaction goes on.
    SmoEnd,
    /// Checkpoint begin marker, stamped with wall-clock time (used to narrow
    /// the SplitLSN search, §5.1).
    CheckpointBegin {
        /// Wall-clock time.
        at: Timestamp,
    },
    /// Checkpoint end: the stamp, the matching begin record, and the
    /// fuzzy-checkpoint tables.
    CheckpointEnd {
        /// Wall-clock time at which the checkpoint was taken.
        at: Timestamp,
        /// LSN of the matching checkpoint-begin record.
        begin_lsn: Lsn,
        /// The serialized ATT and DPT; [`CheckpointBody::decode`] parses
        /// them.
        tables: B,
    },
}

/// The borrowed payload: what the engine builds, appends and decodes. Byte
/// payloads and page images borrow from the caller or from the log segment
/// the record was read from.
pub type LogPayloadView<'a> = Payload<&'a [u8], &'a [u8; PAGE_SIZE]>;

/// The owning payload, for callers outside the engine that build a record
/// from values they own and append it.
pub type LogPayload = Payload<Vec<u8>, Box<[u8; PAGE_SIZE]>>;

fn read_image_ref<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8; PAGE_SIZE]> {
    let raw = r.get_raw(PAGE_SIZE)?;
    raw.try_into()
        .map_err(|_| Error::log_corruption(Lsn(0), "page image shorter than PAGE_SIZE"))
}

impl<'a> LogPayloadView<'a> {
    /// Decode a payload from the payload portion of a record body
    /// (everything after the fixed header). Borrows byte payloads and page
    /// images from `bytes`; allocates nothing. The only parser of payload
    /// bodies.
    pub fn decode(bytes: &'a [u8]) -> Result<LogPayloadView<'a>> {
        let mut r = ByteReader::new(bytes);
        let view = match PayloadKind::from_tag(r.get_u8()?)? {
            PayloadKind::Commit => Payload::Commit {
                at: Timestamp::from_micros(r.get_u64()?),
            },
            PayloadKind::Abort => Payload::Abort,
            PayloadKind::End => Payload::End,
            PayloadKind::SmoEnd => Payload::SmoEnd,
            PayloadKind::Format => Payload::Format {
                object: ObjectId(r.get_u64()?),
                ty: PageType::from_u16(r.get_u16()?)?,
                level: r.get_u16()?,
                next: PageId(r.get_u64()?),
                prev: PageId(r.get_u64()?),
            },
            PayloadKind::Preformat => Payload::Preformat {
                prev_image: read_image_ref(&mut r)?,
            },
            PayloadKind::Reformat => Payload::Reformat {
                object: ObjectId(r.get_u64()?),
                ty: PageType::from_u16(r.get_u16()?)?,
                level: r.get_u16()?,
                prev_image: read_image_ref(&mut r)?,
            },
            PayloadKind::InsertRecord => Payload::InsertRecord {
                slot: r.get_u16()?,
                bytes: r.get_bytes()?,
            },
            PayloadKind::DeleteRecord => Payload::DeleteRecord {
                slot: r.get_u16()?,
                old: r.get_bytes()?,
            },
            PayloadKind::UpdateRecord => Payload::UpdateRecord {
                slot: r.get_u16()?,
                old: r.get_bytes()?,
                new: r.get_bytes()?,
            },
            PayloadKind::SetNextPage => Payload::SetNextPage {
                old: PageId(r.get_u64()?),
                new: PageId(r.get_u64()?),
            },
            PayloadKind::SetPrevPage => Payload::SetPrevPage {
                old: PageId(r.get_u64()?),
                new: PageId(r.get_u64()?),
            },
            PayloadKind::AllocSet => Payload::AllocSet {
                index: r.get_u32()?,
                old: r.get_u8()?,
                new: r.get_u8()?,
            },
            PayloadKind::BootWrite => Payload::BootWrite {
                offset: r.get_u16()?,
                old: r.get_bytes()?,
                new: r.get_bytes()?,
            },
            PayloadKind::FullPageImage => Payload::FullPageImage {
                prev_fpi_lsn: Lsn(r.get_u64()?),
                image: read_image_ref(&mut r)?,
            },
            PayloadKind::RestoreImage => Payload::RestoreImage {
                old: read_image_ref(&mut r)?,
                new: read_image_ref(&mut r)?,
            },
            PayloadKind::CheckpointBegin => Payload::CheckpointBegin {
                at: Timestamp::from_micros(r.get_u64()?),
            },
            PayloadKind::CheckpointEnd => Payload::CheckpointEnd {
                at: Timestamp::from_micros(r.get_u64()?),
                begin_lsn: Lsn(r.get_u64()?),
                // The tables stay serialized; consume everything.
                tables: r.get_raw(r.remaining())?,
            },
        };
        if !r.is_exhausted() {
            return Err(Error::corruption(format!(
                "{} trailing bytes after log payload",
                r.remaining()
            )));
        }
        Ok(view)
    }
}

impl<B, I> Payload<B, I>
where
    B: Deref<Target = [u8]>,
    I: Deref<Target = [u8; PAGE_SIZE]>,
{
    /// The payload's kind tag (also its serialized tag byte).
    pub fn kind(&self) -> PayloadKind {
        match self {
            Payload::Commit { .. } => PayloadKind::Commit,
            Payload::Abort => PayloadKind::Abort,
            Payload::End => PayloadKind::End,
            Payload::Format { .. } => PayloadKind::Format,
            Payload::Preformat { .. } => PayloadKind::Preformat,
            Payload::Reformat { .. } => PayloadKind::Reformat,
            Payload::InsertRecord { .. } => PayloadKind::InsertRecord,
            Payload::DeleteRecord { .. } => PayloadKind::DeleteRecord,
            Payload::UpdateRecord { .. } => PayloadKind::UpdateRecord,
            Payload::SetNextPage { .. } => PayloadKind::SetNextPage,
            Payload::SetPrevPage { .. } => PayloadKind::SetPrevPage,
            Payload::AllocSet { .. } => PayloadKind::AllocSet,
            Payload::BootWrite { .. } => PayloadKind::BootWrite,
            Payload::FullPageImage { .. } => PayloadKind::FullPageImage,
            Payload::RestoreImage { .. } => PayloadKind::RestoreImage,
            Payload::CheckpointBegin { .. } => PayloadKind::CheckpointBegin,
            Payload::CheckpointEnd { .. } => PayloadKind::CheckpointEnd,
            Payload::SmoEnd => PayloadKind::SmoEnd,
        }
    }

    /// The wall-clock stamp of a commit, checkpoint-begin or checkpoint-end
    /// record: every kind the SplitLSN search (§5.1) reads a time from, and
    /// whose stamp the log keeps monotone in LSN order.
    pub fn time_stamp(&self) -> Option<Timestamp> {
        match self {
            Payload::Commit { at }
            | Payload::CheckpointBegin { at }
            | Payload::CheckpointEnd { at, .. } => Some(*at),
            _ => None,
        }
    }

    /// Overwrite the stamp [`Payload::time_stamp`] reads; a no-op for every
    /// other kind. `LogManager::append_stamped` uses this to assign the
    /// stamp *under the writer mutex*, so stamps are monotone in LSN order —
    /// the invariant the SplitLSN binary search (§5.1) and the checkpoint
    /// directory rely on.
    pub fn set_stamp(&mut self, stamp: Timestamp) {
        if let Payload::Commit { at }
        | Payload::CheckpointBegin { at }
        | Payload::CheckpointEnd { at, .. } = self
        {
            *at = stamp;
        }
    }

    /// Validate that the forward effect would apply cleanly to `page`,
    /// *without* modifying anything. Stores call this before appending the
    /// record so the log never contains a record whose apply failed.
    pub fn precheck(&self, page: &Page) -> Result<()> {
        match self {
            Payload::InsertRecord { slot, bytes } => {
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
            Payload::DeleteRecord { slot, .. } if *slot >= page.slot_count() => {
                return Err(Error::Internal(format!("delete of missing slot {slot}")));
            }
            Payload::UpdateRecord { slot, new, .. } => {
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
            Payload::AllocSet { index, .. }
                if *index as usize >= rewind_pagestore::alloc::MAP_CAPACITY =>
            {
                return Err(Error::Internal(format!("alloc index {index} out of range")));
            }
            Payload::BootWrite { offset, new, .. }
                if *offset as usize + new.len() > page.body().len() =>
            {
                return Err(Error::Internal("boot write out of range".into()));
            }
            _ => {}
        }
        Ok(())
    }

    /// Apply the forward (redo) effect to `page` and stamp its pageLSN.
    ///
    /// Callers must have established that the record applies (ARIES redo
    /// compares `page.page_lsn() < lsn`; normal forward processing always
    /// applies).
    pub fn redo(&self, page: &mut Page, page_id: PageId, lsn: Lsn) -> Result<()> {
        match self {
            Payload::Format {
                object,
                ty,
                level,
                next,
                prev,
            } => {
                page.format(page_id, *object, *ty);
                page.set_level(*level);
                page.set_next_page(*next);
                page.set_prev_page(*prev);
            }
            Payload::Preformat { .. } => {
                // The preformat record *stores* the previous content; its
                // forward effect is nil (the page is about to be formatted).
            }
            Payload::Reformat {
                object, ty, level, ..
            } => {
                page.format(page_id, *object, *ty);
                page.set_level(*level);
            }
            Payload::InsertRecord { slot, bytes } => {
                page.insert_record(*slot as usize, bytes)?;
            }
            Payload::DeleteRecord { slot, .. } => {
                page.remove_record(*slot as usize)?;
            }
            Payload::UpdateRecord { slot, new, .. } => {
                page.replace_record(*slot as usize, new)?;
            }
            Payload::SetNextPage { new, .. } => page.set_next_page(*new),
            Payload::SetPrevPage { new, .. } => page.set_prev_page(*new),
            Payload::AllocSet { index, new, .. } => {
                rewind_pagestore::alloc::set_state(
                    page,
                    *index as usize,
                    rewind_pagestore::alloc::PageState::from_bits(*new),
                )?;
            }
            Payload::BootWrite { offset, new, .. } => {
                let off = *offset as usize;
                page.body_mut()[off..off + new.len()].copy_from_slice(new);
            }
            Payload::FullPageImage { image, .. } => {
                page.restore_image(image);
                page.set_last_fpi_lsn(lsn);
            }
            Payload::RestoreImage { new, .. } => {
                page.restore_image(new);
            }
            _ => {
                return Err(Error::Internal(format!(
                    "redo of non-page payload {:?}",
                    self.kind()
                )));
            }
        }
        page.set_page_lsn(lsn);
        Ok(())
    }

    /// Apply the reverse effect to `page` contents.
    ///
    /// This is the physical-undo step of `PreparePageAsOf` (paper Fig. 3):
    /// the caller walks the per-page chain and manages the final pageLSN.
    pub fn undo(&self, page: &mut Page, page_id: PageId) -> Result<()> {
        match self {
            Payload::Format { .. } => {
                // Back to "unallocated": erase. If a previous incarnation
                // existed, the preceding Preformat/Reformat image restores it
                // as the chain walk continues.
                page.format(page_id, ObjectId::NONE, PageType::Free);
            }
            Payload::Reformat { prev_image, .. } | Payload::Preformat { prev_image } => {
                page.restore_image(prev_image);
            }
            Payload::InsertRecord { slot, .. } => {
                page.remove_record(*slot as usize)?;
            }
            Payload::DeleteRecord { slot, old } => {
                page.insert_record(*slot as usize, old)?;
            }
            Payload::UpdateRecord { slot, old, .. } => {
                page.replace_record(*slot as usize, old)?;
            }
            Payload::SetNextPage { old, .. } => page.set_next_page(*old),
            Payload::SetPrevPage { old, .. } => page.set_prev_page(*old),
            Payload::AllocSet { index, old, .. } => {
                rewind_pagestore::alloc::set_state(
                    page,
                    *index as usize,
                    rewind_pagestore::alloc::PageState::from_bits(*old),
                )?;
            }
            Payload::BootWrite { offset, old, .. } => {
                let off = *offset as usize;
                page.body_mut()[off..off + old.len()].copy_from_slice(old);
            }
            Payload::FullPageImage { prev_fpi_lsn, .. } => {
                // Content was identical before and after; only the FPI-chain
                // anchor moves back.
                page.set_last_fpi_lsn(*prev_fpi_lsn);
            }
            Payload::RestoreImage { old, .. } => {
                page.restore_image(old);
            }
            _ => {
                return Err(Error::Internal(format!(
                    "undo of non-page payload {:?}",
                    self.kind()
                )));
            }
        }
        Ok(())
    }

    /// The payload a compensation log record carries to logically undo this
    /// record during rollback — this one's fields, swapped, borrowed from
    /// `self` — or `None` if the record is not logically undoable (txn
    /// markers, checkpoints, FPIs, (pre/re)formats).
    pub fn compensation(&self) -> Option<LogPayloadView<'_>> {
        Some(match self {
            Payload::InsertRecord { slot, bytes } => Payload::DeleteRecord {
                slot: *slot,
                old: bytes,
            },
            Payload::DeleteRecord { slot, old } => Payload::InsertRecord {
                slot: *slot,
                bytes: old,
            },
            Payload::UpdateRecord { slot, old, new } => Payload::UpdateRecord {
                slot: *slot,
                old: new,
                new: old,
            },
            Payload::SetNextPage { old, new } => Payload::SetNextPage {
                old: *new,
                new: *old,
            },
            Payload::SetPrevPage { old, new } => Payload::SetPrevPage {
                old: *new,
                new: *old,
            },
            Payload::AllocSet { index, old, new } => Payload::AllocSet {
                index: *index,
                old: *new,
                new: *old,
            },
            Payload::BootWrite { offset, old, new } => Payload::BootWrite {
                offset: *offset,
                old: new,
                new: old,
            },
            Payload::RestoreImage { old, new } => Payload::RestoreImage { old: new, new: old },
            _ => return None,
        })
    }

    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u8(self.kind() as u8);
        match self {
            Payload::Commit { at } | Payload::CheckpointBegin { at } => w.put_u64(at.as_micros()),
            Payload::Abort | Payload::End | Payload::SmoEnd => {}
            Payload::Format {
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
            Payload::Preformat { prev_image } => w.put_raw(&prev_image[..]),
            Payload::Reformat {
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
            Payload::InsertRecord { slot, bytes: b } | Payload::DeleteRecord { slot, old: b } => {
                w.put_u16(*slot);
                w.put_bytes(b);
            }
            Payload::UpdateRecord { slot: at, old, new }
            | Payload::BootWrite {
                offset: at,
                old,
                new,
            } => {
                w.put_u16(*at);
                w.put_bytes(old);
                w.put_bytes(new);
            }
            Payload::SetNextPage { old, new } | Payload::SetPrevPage { old, new } => {
                w.put_u64(old.0);
                w.put_u64(new.0);
            }
            Payload::AllocSet { index, old, new } => {
                w.put_u32(*index);
                w.put_u8(*old);
                w.put_u8(*new);
            }
            Payload::FullPageImage {
                prev_fpi_lsn,
                image,
            } => {
                w.put_u64(prev_fpi_lsn.0);
                w.put_raw(&image[..]);
            }
            Payload::RestoreImage { old, new } => {
                w.put_raw(&old[..]);
                w.put_raw(&new[..]);
            }
            Payload::CheckpointEnd {
                at,
                begin_lsn,
                tables,
            } => {
                w.put_u64(at.as_micros());
                w.put_u64(begin_lsn.0);
                w.put_raw(tables);
            }
        }
    }
}

/// The kind of operation a log record carries, decodable from the record's
/// fixed-offset tag byte without touching the payload body. Discriminants
/// match the serialized payload tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PayloadKind {
    /// [`Payload::Commit`].
    Commit = 1,
    /// [`Payload::Abort`].
    Abort = 2,
    /// [`Payload::End`].
    End = 3,
    /// [`Payload::Format`].
    Format = 4,
    /// [`Payload::Preformat`].
    Preformat = 5,
    /// [`Payload::Reformat`].
    Reformat = 6,
    /// [`Payload::InsertRecord`].
    InsertRecord = 7,
    /// [`Payload::DeleteRecord`].
    DeleteRecord = 8,
    /// [`Payload::UpdateRecord`].
    UpdateRecord = 9,
    /// [`Payload::SetNextPage`].
    SetNextPage = 10,
    /// [`Payload::SetPrevPage`].
    SetPrevPage = 11,
    /// [`Payload::AllocSet`].
    AllocSet = 12,
    /// [`Payload::BootWrite`].
    BootWrite = 13,
    /// [`Payload::FullPageImage`].
    FullPageImage = 14,
    /// [`Payload::CheckpointBegin`].
    CheckpointBegin = 15,
    /// [`Payload::CheckpointEnd`].
    CheckpointEnd = 16,
    /// [`Payload::RestoreImage`].
    RestoreImage = 17,
    /// [`Payload::SmoEnd`].
    SmoEnd = 18,
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
            18 => PayloadKind::SmoEnd,
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
                | PayloadKind::SmoEnd
                | PayloadKind::CheckpointBegin
                | PayloadKind::CheckpointEnd
        )
    }
}

/// A complete log record: header plus payload, over the payload's storage
/// parameters. The engine builds `LogRecord<&[u8], &[u8; PAGE_SIZE]>`
/// (payload a [`LogPayloadView`]); reads decode to a [`LogRecordHeader`]
/// plus a view instead of a record.
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord<B, I> {
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
    pub payload: Payload<B, I>,
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

impl<B, I> LogRecord<B, I> {
    /// A record of `txn` that touches no page — a commit, abort, end or
    /// checkpoint marker — with every link null: a chained append sets
    /// `prev_lsn` (see `LogManager::append_batch`).
    pub fn marker(txn: TxnId, payload: Payload<B, I>) -> LogRecord<B, I> {
        LogRecord {
            lsn: Lsn::NULL,
            txn,
            prev_lsn: Lsn::NULL,
            page: PageId::INVALID,
            prev_page_lsn: Lsn::NULL,
            object: ObjectId::NONE,
            undo_next: Lsn::NULL,
            flags: 0,
            payload,
        }
    }
}

impl<B, I> LogRecord<B, I>
where
    B: Deref<Target = [u8]>,
    I: Deref<Target = [u8; PAGE_SIZE]>,
{
    /// Serialize the record body (everything but the LSN, which is implicit
    /// in the record's position) by appending to `out`, allocating nothing
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
}

impl<'a> LogRecord<&'a [u8], &'a [u8; PAGE_SIZE]> {
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

    /// Decode the header plus a borrowed payload view — the one record
    /// decode; nothing is copied.
    pub fn decode_view(lsn: Lsn, bytes: &'a [u8]) -> Result<(LogRecordHeader, LogPayloadView<'a>)> {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    static IMG: [[u8; PAGE_SIZE]; 5] = [
        [3; PAGE_SIZE],
        [7; PAGE_SIZE],
        [9; PAGE_SIZE],
        [1; PAGE_SIZE],
        [2; PAGE_SIZE],
    ];

    fn body() -> CheckpointBody {
        CheckpointBody {
            att: vec![TxnTableEntry {
                txn: TxnId(5),
                first_lsn: Lsn(10),
                last_lsn: Lsn(99),
            }],
            dpt: vec![DptEntry {
                page: PageId(3),
                rec_lsn: Lsn(40),
            }],
        }
    }

    /// One payload of every kind, borrowing `imgs` and `tables`.
    fn all_payloads<'a>(
        imgs: &'a [[u8; PAGE_SIZE]; 5],
        tables: &'a [u8],
    ) -> Vec<LogPayloadView<'a>> {
        vec![
            Payload::Commit {
                at: Timestamp::from_secs(9),
            },
            Payload::Abort,
            Payload::End,
            Payload::SmoEnd,
            Payload::Format {
                object: ObjectId(4),
                ty: PageType::BTreeLeaf,
                level: 0,
                next: PageId(9),
                prev: PageId::INVALID,
            },
            Payload::Preformat {
                prev_image: &imgs[0],
            },
            Payload::Reformat {
                object: ObjectId(4),
                ty: PageType::BTreeInternal,
                level: 1,
                prev_image: &imgs[1],
            },
            Payload::InsertRecord {
                slot: 2,
                bytes: b"rec",
            },
            Payload::DeleteRecord {
                slot: 0,
                old: b"gone",
            },
            Payload::UpdateRecord {
                slot: 1,
                old: b"a",
                new: b"bb",
            },
            Payload::SetNextPage {
                old: PageId(1),
                new: PageId(2),
            },
            Payload::SetPrevPage {
                old: PageId::INVALID,
                new: PageId(3),
            },
            Payload::AllocSet {
                index: 77,
                old: 0b10,
                new: 0b11,
            },
            Payload::BootWrite {
                offset: 16,
                old: &[0; 8],
                new: &[1; 8],
            },
            Payload::FullPageImage {
                prev_fpi_lsn: Lsn(5),
                image: &imgs[2],
            },
            Payload::RestoreImage {
                old: &imgs[3],
                new: &imgs[4],
            },
            Payload::CheckpointBegin {
                at: Timestamp::from_secs(1),
            },
            Payload::CheckpointEnd {
                at: Timestamp::from_secs(2),
                begin_lsn: Lsn(8),
                tables,
            },
        ]
    }

    fn record<B, I>(page: PageId, payload: Payload<B, I>) -> LogRecord<B, I> {
        LogRecord {
            lsn: Lsn(64),
            txn: TxnId(7),
            prev_lsn: Lsn(32),
            page,
            prev_page_lsn: Lsn(16),
            object: ObjectId(12),
            undo_next: Lsn(8),
            flags: REC_FLAG_CLR,
            payload,
        }
    }

    fn encode<B, I>(rec: &LogRecord<B, I>) -> Vec<u8>
    where
        B: Deref<Target = [u8]>,
        I: Deref<Target = [u8; PAGE_SIZE]>,
    {
        let mut out = Vec::new();
        rec.encode_into(&mut out);
        out
    }

    #[test]
    fn serialization_roundtrip_every_payload() {
        let tables = body().encode();
        let payloads = all_payloads(&IMG, &tables);
        let mut tags: Vec<u8> = payloads.iter().map(|p| p.kind() as u8).collect();
        tags.sort_unstable();
        assert_eq!(tags, (1..=18).collect::<Vec<u8>>(), "every kind once");
        for payload in payloads {
            let bytes = encode(&record(PageId(5), payload));
            let (_, back) = LogRecord::decode_view(Lsn(64), &bytes).unwrap();
            assert_eq!(back, payload);
            // The bytes are the same however the payload is stored.
            assert_eq!(encode(&record(PageId(5), back)), bytes);
        }
    }

    #[test]
    fn checkpoint_tables_roundtrip_and_reject_trailing_bytes() {
        let tables = body().encode();
        assert_eq!(CheckpointBody::decode(&tables).unwrap(), body());
        let mut long = tables.clone();
        long.push(0);
        assert!(CheckpointBody::decode(&long).is_err());
        assert!(CheckpointBody::decode(&tables[..tables.len() - 1]).is_err());
    }

    #[test]
    fn owned_and_borrowed_payloads_encode_identically() {
        let owned = record(
            PageId(9),
            LogPayload::UpdateRecord {
                slot: 3,
                old: vec![0xAB; 100],
                new: vec![0xCD; 100],
            },
        );
        let view = record(
            PageId(9),
            LogPayloadView::UpdateRecord {
                slot: 3,
                old: &[0xAB; 100],
                new: &[0xCD; 100],
            },
        );
        assert_eq!(encode(&owned), encode(&view));
        let image = Box::new(IMG[0]);
        let owned = LogPayload::RestoreImage {
            old: image.clone(),
            new: image,
        };
        let swapped = owned.compensation().unwrap();
        assert_eq!(
            swapped,
            Payload::RestoreImage {
                old: &IMG[0],
                new: &IMG[0]
            }
        );
    }

    #[test]
    fn header_and_view_decode_agree_with_owned_for_every_payload() {
        let tables = body().encode();
        for payload in all_payloads(&IMG, &tables) {
            let rec = record(PageId(5), payload);
            let bytes = encode(&rec);
            // header-only decode sees exactly the encoded record's header
            let header = LogRecord::decode_header(Lsn(64), &bytes).unwrap();
            assert_eq!(
                (header.lsn, header.txn, header.prev_lsn, header.page),
                (rec.lsn, rec.txn, rec.prev_lsn, rec.page)
            );
            assert_eq!(
                (
                    header.prev_page_lsn,
                    header.object,
                    header.undo_next,
                    header.flags
                ),
                (rec.prev_page_lsn, rec.object, rec.undo_next, rec.flags)
            );
            assert_eq!(header.kind, payload.kind());
            assert!(header.is_clr());
            // the full decode agrees with the header-only one
            let (header2, view) = LogRecord::decode_view(Lsn(64), &bytes).unwrap();
            assert_eq!(header2, header);
            assert_eq!(view, payload);
            if let Payload::CheckpointEnd { tables, .. } = view {
                assert_eq!(CheckpointBody::decode(tables).unwrap(), body());
            }
        }
    }

    fn row_page(pid: PageId) -> Page {
        let mut base = Page::formatted(pid, ObjectId(4), PageType::BTreeLeaf);
        base.insert_record(0, b"alpha").unwrap();
        base.insert_record(1, b"omega").unwrap();
        base.set_page_lsn(Lsn(100));
        base
    }

    #[test]
    fn view_redo_undo_match_owned_for_row_ops() {
        let pid = PageId(5);
        let base = row_page(pid);
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
            let bytes = encode(&record(pid, payload.clone()));
            let (_, view) = LogRecord::decode_view(Lsn(200), &bytes).unwrap();
            // redo of the decoded view == redo of the owned payload
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
        let bytes = encode(&record(
            PageId(2),
            LogPayloadView::InsertRecord {
                slot: 0,
                bytes: b"xy",
            },
        ));
        assert!(LogRecord::decode_view(Lsn(8), &bytes).is_ok());
        assert!(LogRecord::decode_view(Lsn(8), &bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(LogRecord::decode_view(Lsn(8), &extended).is_err());
        let mut junk = bytes;
        junk[49] = 200; // payload tag byte
        assert!(LogRecord::decode_view(Lsn(8), &junk).is_err());
        // A checkpoint end too short for its stamp and begin LSN.
        let mut short = encode(&record(PageId::INVALID, LogPayloadView::Abort));
        short[RECORD_HEADER_BYTES] = PayloadKind::CheckpointEnd as u8;
        short.extend_from_slice(&[0; 15]);
        assert!(LogRecord::decode_view(Lsn(8), &short).is_err());
    }

    #[test]
    fn redo_then_undo_is_identity_for_row_ops() {
        let pid = PageId(5);
        let base = row_page(pid);
        let cases: Vec<LogPayloadView<'_>> = vec![
            Payload::InsertRecord {
                slot: 1,
                bytes: b"middle",
            },
            Payload::DeleteRecord {
                slot: 0,
                old: b"alpha",
            },
            Payload::UpdateRecord {
                slot: 1,
                old: b"omega",
                new: b"OMEGA!",
            },
            Payload::SetNextPage {
                old: PageId::INVALID,
                new: PageId(9),
            },
            Payload::SetPrevPage {
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
        let payload = LogPayloadView::FullPageImage {
            prev_fpi_lsn: Lsn(20),
            image: p.image(),
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

        let pre = LogPayloadView::Preformat {
            prev_image: old_page.image(),
        };
        let fmt = LogPayloadView::Format {
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
        let cases: Vec<LogPayloadView<'_>> = vec![
            Payload::InsertRecord {
                slot: 1,
                bytes: b"x",
            },
            Payload::DeleteRecord {
                slot: 0,
                old: b"row0",
            },
            Payload::UpdateRecord {
                slot: 0,
                old: b"row0",
                new: b"ROW0",
            },
        ];
        for payload in cases {
            let comp = payload.compensation().expect("undoable");
            let mut p = base.clone();
            payload.redo(&mut p, pid, Lsn(10)).unwrap();
            comp.redo(&mut p, pid, Lsn(20)).unwrap();
            let a: Vec<_> = base.records().collect();
            let b: Vec<_> = p.records().collect();
            assert_eq!(a, b, "compensation of {payload:?}");
        }
        // structural inversion for the kinds that need a special page
        let alloc = LogPayloadView::AllocSet {
            index: 3,
            old: 0,
            new: 3,
        };
        assert_eq!(
            alloc.compensation(),
            Some(Payload::AllocSet {
                index: 3,
                old: 3,
                new: 0
            })
        );
        let boot = LogPayloadView::BootWrite {
            offset: 4,
            old: b"ab",
            new: b"cd",
        };
        assert_eq!(
            boot.compensation(),
            Some(LogPayloadView::BootWrite {
                offset: 4,
                old: b"cd",
                new: b"ab"
            })
        );
        let tables = body().encode();
        let undoable: Vec<PayloadKind> = all_payloads(&IMG, &tables)
            .iter()
            .filter(|p| p.compensation().is_some())
            .map(|p| p.kind())
            .collect();
        assert_eq!(
            undoable,
            [
                PayloadKind::InsertRecord,
                PayloadKind::DeleteRecord,
                PayloadKind::UpdateRecord,
                PayloadKind::SetNextPage,
                PayloadKind::SetPrevPage,
                PayloadKind::AllocSet,
                PayloadKind::BootWrite,
                PayloadKind::RestoreImage,
            ]
        );
    }

    #[test]
    fn page_op_classification() {
        let tables = body().encode();
        let page_ops: Vec<PayloadKind> = all_payloads(&IMG, &tables)
            .iter()
            .map(|p| p.kind())
            .filter(|k| k.is_page_op())
            .collect();
        assert_eq!(page_ops.len(), 12);
        for kind in [
            PayloadKind::Commit,
            PayloadKind::Abort,
            PayloadKind::End,
            PayloadKind::SmoEnd,
            PayloadKind::CheckpointBegin,
            PayloadKind::CheckpointEnd,
        ] {
            assert!(!kind.is_page_op(), "{kind:?}");
        }
    }
}
