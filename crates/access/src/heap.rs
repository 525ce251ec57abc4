//! Heap tables: unordered rows addressed by RID `(page, slot)`.
//!
//! The paper stresses that its mechanism "works seamlessly with all of these
//! data structures" (B-Trees, heaps, …) because everything is logged at the
//! data-page level (§7.2). The heap exercises that claim: TPC-C's HISTORY
//! table lives in one.
//!
//! Layout: pages are singly chained via `next_page`; the *first* page's
//! `prev_page` field caches the current tail so appends are O(1). Slots are
//! append-only; deletion tombstones a slot (zero-length record) so RIDs stay
//! stable — which is also what makes rollback of heap operations purely
//! physical.

use crate::store::{ModKind, Store};
use rewind_common::{Error, ObjectId, PageId, Result};
use rewind_pagestore::PageType;
use rewind_wal::LogPayloadView;

/// Row identifier: page + slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// The page holding the row.
    pub page: PageId,
    /// The slot within the page.
    pub slot: u16,
}

/// A handle to one heap: its owning object and first page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heap {
    /// Catalog object this heap belongs to.
    pub object: ObjectId,
    /// The heap's first page (never changes).
    pub first: PageId,
}

impl Heap {
    /// Create a new empty heap for `object`.
    pub fn create<S: Store>(s: &S, object: ObjectId) -> Result<Heap> {
        let first = s.allocate(
            object,
            PageType::Heap,
            0,
            PageId::INVALID,
            PageId::INVALID,
            ModKind::User,
        )?;
        Ok(Heap { object, first })
    }

    fn tail<S: Store>(&self, s: &S) -> Result<PageId> {
        s.with_page(self.first, |p| {
            let t = p.prev_page();
            Ok(if t.is_valid() { t } else { self.first })
        })
    }

    /// Append a row; returns its RID.
    pub fn insert<S: Store>(&self, s: &S, row: &[u8]) -> Result<Rid> {
        s.with_object_latch(self.object, true, || self.insert_inner(s, row))
    }

    /// Append many rows in one call; returns their RIDs in order.
    ///
    /// Rows landing on the same tail page are framed into the log as ONE
    /// batched append (`Store::modify_batch`): slots are append-only, so a
    /// whole run of inserts is known up front — the group-commit fast path
    /// for multi-row DML. Falls back to growing the heap between batches
    /// exactly like single inserts.
    pub fn insert_many<S: Store>(&self, s: &S, rows: &[&[u8]]) -> Result<Vec<Rid>> {
        for row in rows {
            Self::check_row(row)?;
        }
        s.with_object_latch(self.object, true, || {
            let mut out = Vec::with_capacity(rows.len());
            let mut rest = rows;
            while !rest.is_empty() {
                let tail = self.tail(s)?;
                let (base_slot, mut free) =
                    s.with_page(tail, |p| Ok((p.slot_count(), p.free_space())))?;
                // Greedily take the prefix of rows that fits on this page.
                let mut n = 0usize;
                while n < rest.len() {
                    let need = rest[n].len() + rewind_pagestore::page::SLOT_ENTRY_SIZE;
                    if free < need {
                        break;
                    }
                    free -= need;
                    n += 1;
                }
                if n == 0 {
                    self.grow_tail(s, tail)?;
                    continue;
                }
                let payloads: Vec<LogPayloadView<'_>> = rest[..n]
                    .iter()
                    .enumerate()
                    .map(|(i, row)| LogPayloadView::InsertRecord {
                        slot: base_slot + i as u16,
                        bytes: row,
                    })
                    .collect();
                s.modify_batch(tail, &payloads, ModKind::User, rewind_wal::REC_FLAG_HEAP)?;
                out.extend((0..n).map(|i| Rid {
                    page: tail,
                    slot: base_slot + i as u16,
                }));
                rest = &rest[n..];
            }
            Ok(out)
        })
    }

    fn check_row(row: &[u8]) -> Result<()> {
        if row.is_empty() {
            return Err(Error::InvalidArg(
                "empty heap rows are reserved for tombstones".into(),
            ));
        }
        if row.len() > crate::btree::MAX_ENTRY {
            return Err(Error::RecordTooLarge {
                size: row.len(),
                max: crate::btree::MAX_ENTRY,
            });
        }
        Ok(())
    }

    fn insert_inner<S: Store>(&self, s: &S, row: &[u8]) -> Result<Rid> {
        Self::check_row(row)?;
        loop {
            let tail = self.tail(s)?;
            let slot = s.with_page(tail, |p| {
                Ok(if p.can_insert(row.len()) {
                    Some(p.slot_count())
                } else {
                    None
                })
            })?;
            if let Some(slot) = slot {
                s.modify_flagged(
                    tail,
                    LogPayloadView::InsertRecord { slot, bytes: row },
                    ModKind::User,
                    rewind_wal::REC_FLAG_HEAP,
                )?;
                return Ok(Rid { page: tail, slot });
            }
            self.grow_tail(s, tail)?;
        }
    }

    /// Chain a fresh page behind `tail` (a structure modification).
    fn grow_tail<S: Store>(&self, s: &S, tail: PageId) -> Result<()> {
        let anchor = s.txn_last_lsn();
        let q = s.allocate(
            self.object,
            PageType::Heap,
            0,
            PageId::INVALID,
            PageId::INVALID,
            ModKind::Smo,
        )?;
        s.modify(
            tail,
            LogPayloadView::SetNextPage {
                old: PageId::INVALID,
                new: q,
            },
            ModKind::Smo,
        )?;
        let old_tail_hint = s.with_page(self.first, |p| Ok(p.prev_page()))?;
        s.modify(
            self.first,
            LogPayloadView::SetPrevPage {
                old: old_tail_hint,
                new: q,
            },
            ModKind::Smo,
        )?;
        s.end_smo(anchor)
    }

    /// Read the row at `rid`; `None` if it was deleted (tombstoned).
    pub fn get<S: Store>(&self, s: &S, rid: Rid) -> Result<Option<Vec<u8>>> {
        s.with_object_latch(self.object, false, || self.get_inner(s, rid))
    }

    fn get_inner<S: Store>(&self, s: &S, rid: Rid) -> Result<Option<Vec<u8>>> {
        s.with_page(rid.page, |p| {
            if p.object_id() != self.object || p.try_page_type()? != PageType::Heap {
                return Err(Error::corruption(format!(
                    "RID {rid:?} not in heap {:?}",
                    self.object
                )));
            }
            if rid.slot >= p.slot_count() {
                return Ok(None);
            }
            let rec = p.record(rid.slot as usize)?;
            Ok(if rec.is_empty() {
                None
            } else {
                Some(rec.to_vec())
            })
        })
    }

    /// Delete the row at `rid` (tombstone). Returns the old row.
    pub fn delete<S: Store>(&self, s: &S, rid: Rid) -> Result<Vec<u8>> {
        self.delete_mode(s, rid, ModKind::User)
    }

    /// Delete with an explicit [`ModKind`].
    pub fn delete_mode<S: Store>(&self, s: &S, rid: Rid, kind: ModKind) -> Result<Vec<u8>> {
        s.with_object_latch(self.object, true, || {
            let old = self.get_inner(s, rid)?.ok_or(Error::KeyNotFound)?;
            s.modify_flagged(
                rid.page,
                LogPayloadView::UpdateRecord {
                    slot: rid.slot,
                    old: &old,
                    new: &[],
                },
                kind,
                rewind_wal::REC_FLAG_HEAP,
            )?;
            Ok(old)
        })
    }

    /// Overwrite the row at `rid`.
    pub fn update<S: Store>(&self, s: &S, rid: Rid, row: &[u8]) -> Result<()> {
        if row.is_empty() {
            return Err(Error::InvalidArg(
                "empty heap rows are reserved for tombstones".into(),
            ));
        }
        s.with_object_latch(self.object, true, || self.update_inner(s, rid, row))
    }

    fn update_inner<S: Store>(&self, s: &S, rid: Rid, row: &[u8]) -> Result<()> {
        let old = self.get_inner(s, rid)?.ok_or(Error::KeyNotFound)?;
        // May fail with RecordTooLarge if the page is packed; heap updates
        // are same-size in practice (fixed-ish rows). Surface the error.
        s.modify_flagged(
            rid.page,
            LogPayloadView::UpdateRecord {
                slot: rid.slot,
                old: &old,
                new: row,
            },
            ModKind::User,
            rewind_wal::REC_FLAG_HEAP,
        )?;
        Ok(())
    }

    /// Scan all live rows in RID order.
    pub fn scan<S: Store>(&self, s: &S, f: impl FnMut(Rid, &[u8]) -> Result<bool>) -> Result<()> {
        s.with_object_latch(self.object, false, || self.scan_inner(s, f))
    }

    fn scan_inner<S: Store>(
        &self,
        s: &S,
        mut f: impl FnMut(Rid, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        let mut cur = self.first;
        while cur.is_valid() {
            let (rows, next) = s.with_page(cur, |p| {
                let mut rows = Vec::new();
                for i in 0..p.slot_count() as usize {
                    let rec = p.record(i)?;
                    if !rec.is_empty() {
                        rows.push((i as u16, rec.to_vec()));
                    }
                }
                Ok((rows, p.next_page()))
            })?;
            for (slot, row) in rows {
                if !f(Rid { page: cur, slot }, &row)? {
                    return Ok(());
                }
            }
            cur = next;
        }
        Ok(())
    }

    /// All pages of the heap, in chain order.
    pub fn collect_pages<S: Store>(&self, s: &S) -> Result<Vec<PageId>> {
        let mut out = Vec::new();
        let mut cur = self.first;
        while cur.is_valid() {
            out.push(cur);
            cur = s.with_page(cur, |p| Ok(p.next_page()))?;
        }
        Ok(out)
    }

    /// Number of live rows.
    pub fn count<S: Store>(&self, s: &S) -> Result<usize> {
        let mut n = 0;
        self.scan(s, |_, _| {
            n += 1;
            Ok(true)
        })?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn setup() -> (MemStore, Heap) {
        let s = MemStore::new(2);
        let h = Heap::create(&s, ObjectId(9)).unwrap();
        (s, h)
    }

    #[test]
    fn insert_get_delete() {
        let (s, h) = setup();
        let r1 = h.insert(&s, b"alpha").unwrap();
        let r2 = h.insert(&s, b"beta").unwrap();
        assert_eq!(h.get(&s, r1).unwrap().unwrap(), b"alpha");
        assert_eq!(h.get(&s, r2).unwrap().unwrap(), b"beta");
        let old = h.delete(&s, r1).unwrap();
        assert_eq!(old, b"alpha");
        assert_eq!(h.get(&s, r1).unwrap(), None);
        assert!(matches!(h.delete(&s, r1), Err(Error::KeyNotFound)));
        // RIDs stay stable after deletion
        assert_eq!(h.get(&s, r2).unwrap().unwrap(), b"beta");
        assert_eq!(h.count(&s).unwrap(), 1);
    }

    #[test]
    fn grows_across_pages_with_o1_appends() {
        let (s, h) = setup();
        let row = vec![9u8; 1000];
        let mut rids = Vec::new();
        for _ in 0..100 {
            rids.push(h.insert(&s, &row).unwrap());
        }
        let pages = h.collect_pages(&s).unwrap();
        assert!(pages.len() > 10, "expected ~14 pages, got {}", pages.len());
        for rid in &rids {
            assert_eq!(h.get(&s, *rid).unwrap().unwrap(), row);
        }
        assert_eq!(h.count(&s).unwrap(), 100);
        // tail hint points at the last page
        let tail = h.tail(&s).unwrap();
        assert_eq!(tail, *pages.last().unwrap());
    }

    #[test]
    fn scan_skips_tombstones_in_rid_order() {
        let (s, h) = setup();
        let mut rids = Vec::new();
        for i in 0..30u64 {
            rids.push(h.insert(&s, format!("row{i}").as_bytes()).unwrap());
        }
        for rid in rids.iter().step_by(3) {
            h.delete(&s, *rid).unwrap();
        }
        let mut seen = Vec::new();
        h.scan(&s, |rid, row| {
            seen.push((rid, row.to_vec()));
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen.len(), 20);
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted, "scan must be in RID order");
    }

    #[test]
    fn update_roundtrip() {
        let (s, h) = setup();
        let rid = h.insert(&s, b"before").unwrap();
        h.update(&s, rid, b"after!").unwrap();
        assert_eq!(h.get(&s, rid).unwrap().unwrap(), b"after!");
        assert!(h.update(&s, rid, b"").is_err());
        assert!(h.insert(&s, b"").is_err());
    }

    #[test]
    fn foreign_rid_rejected() {
        let s = MemStore::new(2);
        let h1 = Heap::create(&s, ObjectId(1)).unwrap();
        let h2 = Heap::create(&s, ObjectId(2)).unwrap();
        let rid = h1.insert(&s, b"mine").unwrap();
        assert!(h2.get(&s, rid).is_err());
    }
}
