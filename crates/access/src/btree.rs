//! The B-Tree index manager.
//!
//! Clustered B+-trees over memcomparable byte keys. Leaf records are
//! `[u16 klen | key | value]`; internal records are `[u16 klen | key |
//! u64 child]`, with slot 0 of every internal page holding the empty
//! "minus infinity" key. Leaves are doubly linked for range scans in both
//! directions.
//!
//! **The root page id never changes**: a root split moves the root's
//! contents into two fresh children and reformats the root in place, so the
//! catalog can hold a permanent root pointer.
//!
//! Inserts split *preventively* on the way down (a node is split before
//! descending into it if it could not absorb a maximal entry), which keeps
//! every split local to one parent/child pair. Each split is logged as a
//! nested top action: all moves carry undo information — including the
//! deletes from the old page, the paper's §4.2-3 extension — and a closing
//! `SmoEnd` CLR makes rollback skip the completed split.
//!
//! All *read* paths take any [`Store`], which is what makes the same code
//! serve the live database and as-of snapshots (paper §5.3).

use crate::store::{ModKind, Store};
use rewind_common::codec::{read_u16_at, read_u64_at};
use rewind_common::{Error, Lsn, ObjectId, PageId, Result};
use rewind_pagestore::{Page, PageType};
use rewind_wal::LogPayloadView;
use std::ops::Bound;

/// Largest key accepted by the tree.
pub const MAX_KEY: usize = 512;
/// Largest leaf entry (key + value + header) accepted by the tree; pages are
/// preventively split when they cannot absorb one more maximal entry.
pub const MAX_ENTRY: usize = 2048;

const SEP_ENTRY: usize = 2 + MAX_KEY + 8 + 4;

/// A handle to one B-Tree: its owning object and (permanent) root page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BTree {
    /// Catalog object this tree belongs to.
    pub object: ObjectId,
    /// The tree's root page (never changes).
    pub root: PageId,
}

// ---- record codecs ---------------------------------------------------------

/// Build a leaf record from `key` and `value`.
pub fn leaf_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(2 + key.len() + value.len());
    rec.extend_from_slice(&(key.len() as u16).to_le_bytes());
    rec.extend_from_slice(key);
    rec.extend_from_slice(value);
    rec
}

/// Split a leaf record into `(key, value)`.
pub fn decode_leaf(rec: &[u8]) -> (&[u8], &[u8]) {
    let klen = read_u16_at(rec, 0) as usize;
    (&rec[2..2 + klen], &rec[2 + klen..])
}

fn internal_record(key: &[u8], child: PageId) -> Vec<u8> {
    let mut rec = Vec::with_capacity(2 + key.len() + 8);
    rec.extend_from_slice(&(key.len() as u16).to_le_bytes());
    rec.extend_from_slice(key);
    rec.extend_from_slice(&child.0.to_le_bytes());
    rec
}

fn decode_internal(rec: &[u8]) -> (&[u8], PageId) {
    let klen = read_u16_at(rec, 0) as usize;
    let key = &rec[2..2 + klen];
    let child = read_u64_at(rec, 2 + klen);
    (key, PageId(child))
}

fn record_key(page: &Page, slot: usize) -> Result<&[u8]> {
    let rec = page.record(slot)?;
    let klen = read_u16_at(rec, 0) as usize;
    Ok(&rec[2..2 + klen])
}

// ---- page probes (run under a latch) ---------------------------------------

/// Position of `key` in a leaf: `Ok(slot)` if present, `Err(slot)` giving
/// the insert position otherwise.
fn leaf_search(page: &Page, key: &[u8]) -> Result<std::result::Result<usize, usize>> {
    let n = page.slot_count() as usize;
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if record_key(page, mid)? < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo < n && record_key(page, lo)? == key {
        Ok(Ok(lo))
    } else {
        Ok(Err(lo))
    }
}

/// The child to descend into for `key`: the rightmost slot whose key is
/// `<= key` (slot 0's empty key is `<=` everything).
fn internal_search(page: &Page, key: &[u8]) -> Result<(usize, PageId)> {
    let n = page.slot_count() as usize;
    if n == 0 {
        return Err(Error::corruption(format!(
            "empty internal page {:?}",
            page.page_id()
        )));
    }
    let mut lo = 1usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if record_key(page, mid)? <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let slot = lo - 1;
    let (_, child) = decode_internal(page.record(slot)?);
    Ok((slot, child))
}

struct NodeProbe {
    ty: PageType,
    child: PageId,
    needs_split: bool,
}

fn probe_node(page: &Page, key: &[u8], leaf_need: usize) -> Result<NodeProbe> {
    let ty = page.try_page_type()?;
    match ty {
        PageType::BTreeLeaf => Ok(NodeProbe {
            ty,
            child: PageId::INVALID,
            needs_split: !page.can_insert(leaf_need),
        }),
        PageType::BTreeInternal => {
            let (_, child) = internal_search(page, key)?;
            Ok(NodeProbe {
                ty,
                child,
                needs_split: !page.can_insert(SEP_ENTRY),
            })
        }
        other => Err(Error::corruption(format!(
            "page {:?} is not a B-Tree page (type {other:?})",
            page.page_id()
        ))),
    }
}

// ---- public operations ------------------------------------------------------

impl BTree {
    /// Create a new empty tree for `object`; allocates and returns the root.
    pub fn create<S: Store>(s: &S, object: ObjectId) -> Result<BTree> {
        let root = s.allocate(
            object,
            PageType::BTreeLeaf,
            0,
            PageId::INVALID,
            PageId::INVALID,
            ModKind::User,
        )?;
        Ok(BTree { object, root })
    }

    /// Point lookup: the value stored under `key`, if any.
    pub fn get<S: Store>(&self, s: &S, key: &[u8]) -> Result<Option<Vec<u8>>> {
        s.with_object_latch(self.object, false, || self.get_inner(s, key))
    }

    fn get_inner<S: Store>(&self, s: &S, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut cur = self.root;
        loop {
            enum Step {
                Descend(PageId),
                Found(Vec<u8>),
                Missing,
            }
            let step = s.with_page(cur, |p| match p.try_page_type()? {
                PageType::BTreeInternal => Ok(Step::Descend(internal_search(p, key)?.1)),
                PageType::BTreeLeaf => match leaf_search(p, key)? {
                    Ok(slot) => {
                        let (_, v) = decode_leaf(p.record(slot)?);
                        Ok(Step::Found(v.to_vec()))
                    }
                    Err(_) => Ok(Step::Missing),
                },
                other => Err(Error::corruption(format!("unexpected page type {other:?}"))),
            })?;
            match step {
                Step::Descend(c) => cur = c,
                Step::Found(v) => return Ok(Some(v)),
                Step::Missing => return Ok(None),
            }
        }
    }

    /// Insert `key -> value`. Fails with [`Error::DuplicateKey`] if present.
    pub fn insert<S: Store>(&self, s: &S, key: &[u8], value: &[u8]) -> Result<()> {
        self.insert_mode(s, key, value, ModKind::User, false)
    }

    /// Insert or overwrite `key -> value`.
    pub fn upsert<S: Store>(&self, s: &S, key: &[u8], value: &[u8]) -> Result<()> {
        self.insert_mode(s, key, value, ModKind::User, true)
    }

    /// Insert with an explicit [`ModKind`] for the final row operation
    /// (rollback passes `Clr`); `upsert` tolerates an existing key.
    pub fn insert_mode<S: Store>(
        &self,
        s: &S,
        key: &[u8],
        value: &[u8],
        kind: ModKind,
        upsert: bool,
    ) -> Result<()> {
        s.with_object_latch(self.object, true, || {
            self.insert_inner(s, key, value, kind, upsert)
        })
    }

    fn insert_inner<S: Store>(
        &self,
        s: &S,
        key: &[u8],
        value: &[u8],
        kind: ModKind,
        upsert: bool,
    ) -> Result<()> {
        check_key(key)?;
        let rec = leaf_record(key, value);
        if rec.len() > MAX_ENTRY {
            return Err(Error::RecordTooLarge {
                size: rec.len(),
                max: MAX_ENTRY,
            });
        }
        let need = rec.len();
        loop {
            // ensure the root can absorb either a leaf entry or a separator
            let root_probe = s.with_page(self.root, |p| probe_node(p, key, need))?;
            if root_probe.needs_split {
                self.split_root(s)?;
                continue;
            }
            let mut parent;
            let mut cur = self.root;
            let mut probe = root_probe;
            loop {
                if probe.ty == PageType::BTreeLeaf {
                    // room is guaranteed by preventive splitting
                    let pos = s.with_page(cur, |p| leaf_search(p, key))?;
                    match pos {
                        Ok(slot) => {
                            if !upsert {
                                return Err(Error::DuplicateKey);
                            }
                            let old = s.with_page(cur, |p| Ok(p.record(slot)?.to_vec()))?;
                            s.modify(
                                cur,
                                LogPayloadView::UpdateRecord {
                                    slot: slot as u16,
                                    old: &old,
                                    new: &rec,
                                },
                                kind,
                            )?;
                        }
                        Err(slot) => {
                            s.modify(
                                cur,
                                LogPayloadView::InsertRecord {
                                    slot: slot as u16,
                                    bytes: &rec,
                                },
                                kind,
                            )?;
                        }
                    }
                    return Ok(());
                }
                parent = cur;
                let child = probe.child;
                let child_probe = s.with_page(child, |p| probe_node(p, key, need))?;
                if child_probe.needs_split {
                    self.split_child(s, parent, child)?;
                    // re-probe the parent: the separator may redirect us
                    probe = s.with_page(parent, |p| probe_node(p, key, need))?;
                    continue;
                }
                cur = child;
                probe = child_probe;
            }
        }
    }

    /// Delete `key`. Fails with [`Error::KeyNotFound`] if absent.
    pub fn delete<S: Store>(&self, s: &S, key: &[u8]) -> Result<()> {
        self.delete_mode(s, key, ModKind::User)?
            .then_some(())
            .ok_or(Error::KeyNotFound)
    }

    /// Delete with an explicit [`ModKind`]; returns whether the key existed.
    pub fn delete_mode<S: Store>(&self, s: &S, key: &[u8], kind: ModKind) -> Result<bool> {
        s.with_object_latch(self.object, true, || self.delete_inner(s, key, kind))
    }

    fn delete_inner<S: Store>(&self, s: &S, key: &[u8], kind: ModKind) -> Result<bool> {
        let leaf = self.descend_to_leaf(s, key)?;
        let found = s.with_page(leaf, |p| {
            Ok(match leaf_search(p, key)? {
                Ok(slot) => Some((slot, p.record(slot)?.to_vec())),
                Err(_) => None,
            })
        })?;
        match found {
            Some((slot, old)) => {
                s.modify(
                    leaf,
                    LogPayloadView::DeleteRecord {
                        slot: slot as u16,
                        old: &old,
                    },
                    kind,
                )?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Replace the value under `key`. Fails with [`Error::KeyNotFound`] if
    /// absent. Falls back to delete+insert when the new value no longer fits
    /// in place.
    pub fn update<S: Store>(&self, s: &S, key: &[u8], value: &[u8]) -> Result<()> {
        s.with_object_latch(self.object, true, || self.update_inner(s, key, value))
    }

    fn update_inner<S: Store>(&self, s: &S, key: &[u8], value: &[u8]) -> Result<()> {
        check_key(key)?;
        let rec = leaf_record(key, value);
        if rec.len() > MAX_ENTRY {
            return Err(Error::RecordTooLarge {
                size: rec.len(),
                max: MAX_ENTRY,
            });
        }
        let leaf = self.descend_to_leaf(s, key)?;
        let found = s.with_page(leaf, |p| {
            Ok(match leaf_search(p, key)? {
                Ok(slot) => {
                    let old = p.record(slot)?.to_vec();
                    let fits = rec.len() <= old.len() + p.free_space();
                    Some((slot, old, fits))
                }
                Err(_) => None,
            })
        })?;
        match found {
            None => Err(Error::KeyNotFound),
            Some((slot, old, true)) => {
                s.modify(
                    leaf,
                    LogPayloadView::UpdateRecord {
                        slot: slot as u16,
                        old: &old,
                        new: &rec,
                    },
                    ModKind::User,
                )?;
                Ok(())
            }
            Some((slot, old, false)) => {
                s.modify(
                    leaf,
                    LogPayloadView::DeleteRecord {
                        slot: slot as u16,
                        old: &old,
                    },
                    ModKind::User,
                )?;
                let (_, v) = decode_leaf(&rec);
                self.insert_inner(s, key, v, ModKind::User, false)
            }
        }
    }

    /// Range scan: invoke `f(key, value)` for entries in the given bounds,
    /// ascending, until exhausted or `f` returns `false`.
    ///
    /// Latches are never held across `f`: each leaf's qualifying entries are
    /// copied out first, so `f` may block (snapshot row gates) or re-enter
    /// the store.
    pub fn scan<S: Store>(
        &self,
        s: &S,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        f: impl FnMut(&[u8], &[u8]) -> Result<bool>,
    ) -> Result<()> {
        s.with_object_latch(self.object, false, || self.scan_inner(s, lo, hi, f))
    }

    fn scan_inner<S: Store>(
        &self,
        s: &S,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> Result<bool>,
    ) -> Result<()> {
        let start_key: &[u8] = match lo {
            Bound::Included(k) | Bound::Excluded(k) => k,
            Bound::Unbounded => &[],
        };
        let mut leaf = self.descend_to_leaf(s, start_key)?;
        loop {
            let (entries, next) = s.with_page(leaf, |p| {
                let mut out = Vec::new();
                for i in 0..p.slot_count() as usize {
                    let (k, v) = decode_leaf(p.record(i)?);
                    if !above_lo(k, &lo) {
                        continue;
                    }
                    if !below_hi(k, &hi) {
                        return Ok((out, PageId::INVALID));
                    }
                    out.push((k.to_vec(), v.to_vec()));
                }
                Ok((out, p.next_page()))
            })?;
            for (k, v) in entries {
                if !f(&k, &v)? {
                    return Ok(());
                }
            }
            if !next.is_valid() {
                return Ok(());
            }
            leaf = next;
        }
    }

    /// Range scan, descending from `hi` down to `lo`.
    pub fn scan_desc<S: Store>(
        &self,
        s: &S,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        f: impl FnMut(&[u8], &[u8]) -> Result<bool>,
    ) -> Result<()> {
        s.with_object_latch(self.object, false, || self.scan_desc_inner(s, lo, hi, f))
    }

    fn scan_desc_inner<S: Store>(
        &self,
        s: &S,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> Result<bool>,
    ) -> Result<()> {
        // Descend towards the upper bound.
        let probe_key: Vec<u8> = match hi {
            Bound::Included(k) | Bound::Excluded(k) => k.to_vec(),
            Bound::Unbounded => vec![0xFF; MAX_KEY],
        };
        let mut leaf = self.descend_to_leaf(s, &probe_key)?;
        loop {
            let (mut entries, prev) = s.with_page(leaf, |p| {
                let mut out = Vec::new();
                for i in 0..p.slot_count() as usize {
                    let (k, v) = decode_leaf(p.record(i)?);
                    if above_lo(k, &lo) && below_hi(k, &hi) {
                        out.push((k.to_vec(), v.to_vec()));
                    }
                }
                Ok((out, p.prev_page()))
            })?;
            entries.reverse();
            let had_any = !entries.is_empty();
            for (k, v) in entries {
                if !f(&k, &v)? {
                    return Ok(());
                }
            }
            if !prev.is_valid() {
                return Ok(());
            }
            // Stop once a page produced nothing and we're below the range.
            let below = s.with_page(leaf, |p| {
                Ok(p.slot_count() > 0 && !above_lo(record_key(p, 0)?, &lo))
            })?;
            if !had_any && below {
                return Ok(());
            }
            leaf = prev;
        }
    }

    fn descend_to_leaf<S: Store>(&self, s: &S, key: &[u8]) -> Result<PageId> {
        let mut cur = self.root;
        loop {
            let next = s.with_page(cur, |p| match p.try_page_type()? {
                PageType::BTreeInternal => Ok(Some(internal_search(p, key)?.1)),
                PageType::BTreeLeaf => Ok(None),
                other => Err(Error::corruption(format!(
                    "page {:?}: unexpected type {other:?} in tree {:?}",
                    p.page_id(),
                    self.object
                ))),
            })?;
            match next {
                Some(c) => cur = c,
                None => return Ok(cur),
            }
        }
    }

    // ---- splits (nested top actions) ---------------------------------------

    /// Pick a byte-balanced split index in `[1, n-1]`.
    fn split_index(sizes: &[usize]) -> usize {
        let total: usize = sizes.iter().sum();
        let mut acc = 0;
        for (i, sz) in sizes.iter().enumerate() {
            acc += sz;
            if acc * 2 >= total && i + 1 < sizes.len() {
                return i + 1;
            }
        }
        sizes.len().saturating_sub(1).max(1)
    }

    fn split_child<S: Store>(&self, s: &S, parent: PageId, child: PageId) -> Result<()> {
        let anchor = s.txn_last_lsn();
        let (records, ty, level, old_next) = s.with_page(child, |p| {
            let recs: Vec<Vec<u8>> = p.records().map(|r| r.to_vec()).collect();
            Ok((recs, p.try_page_type()?, p.level(), p.next_page()))
        })?;
        let n = records.len();
        if n < 2 {
            return Err(Error::Internal(format!(
                "cannot split page {child:?} with {n} records"
            )));
        }
        let sizes: Vec<usize> = records.iter().map(|r| r.len()).collect();
        let idx = Self::split_index(&sizes);

        // Separator and the records that move right.
        let (sep, right_records): (Vec<u8>, Vec<Vec<u8>>) = match ty {
            PageType::BTreeLeaf => {
                let (k, _) = decode_leaf(&records[idx]);
                (k.to_vec(), records[idx..].to_vec())
            }
            PageType::BTreeInternal => {
                let (k, c) = decode_internal(&records[idx]);
                let mut right = vec![internal_record(&[], c)];
                right.extend(records[idx + 1..].iter().cloned());
                (k.to_vec(), right)
            }
            other => return Err(Error::corruption(format!("split of {other:?} page"))),
        };

        let q = s.allocate(self.object, ty, level, old_next, child, ModKind::Smo)?;
        for (i, rec) in right_records.iter().enumerate() {
            s.modify(
                q,
                LogPayloadView::InsertRecord {
                    slot: i as u16,
                    bytes: rec,
                },
                ModKind::Smo,
            )?;
        }
        // delete moved records from the old page, highest slot first
        // (each delete logs the full old record: the paper's §4.2-3 rule)
        for j in (idx..n).rev() {
            s.modify(
                child,
                LogPayloadView::DeleteRecord {
                    slot: j as u16,
                    old: &records[j],
                },
                ModKind::Smo,
            )?;
        }
        if ty == PageType::BTreeLeaf {
            s.modify(
                child,
                LogPayloadView::SetNextPage {
                    old: old_next,
                    new: q,
                },
                ModKind::Smo,
            )?;
            if old_next.is_valid() {
                s.modify(
                    old_next,
                    LogPayloadView::SetPrevPage { old: child, new: q },
                    ModKind::Smo,
                )?;
            }
        }
        // hook the separator into the parent (room guaranteed by preventive
        // splitting)
        let pos = s.with_page(parent, |p| {
            let n = p.slot_count() as usize;
            let mut lo = 1usize;
            let mut hi = n;
            while lo < hi {
                let mid = (lo + hi) / 2;
                if record_key(p, mid)? <= sep.as_slice() {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            Ok(lo)
        })?;
        s.modify(
            parent,
            LogPayloadView::InsertRecord {
                slot: pos as u16,
                bytes: &internal_record(&sep, q),
            },
            ModKind::Smo,
        )?;
        s.end_smo(anchor)
    }

    /// Split the root in place: move its contents into two new children and
    /// reformat the root as an internal page one level up.
    fn split_root<S: Store>(&self, s: &S) -> Result<()> {
        let anchor = s.txn_last_lsn();
        let (records, ty, level, image) = s.with_page(self.root, |p| {
            let recs: Vec<Vec<u8>> = p.records().map(|r| r.to_vec()).collect();
            Ok((recs, p.try_page_type()?, p.level(), Box::new(*p.image())))
        })?;
        let n = records.len();
        if n < 2 {
            return Err(Error::Internal(format!(
                "cannot split root with {n} records"
            )));
        }
        let sizes: Vec<usize> = records.iter().map(|r| r.len()).collect();
        let idx = Self::split_index(&sizes);

        let (sep, left_records, right_records): (Vec<u8>, Vec<Vec<u8>>, Vec<Vec<u8>>) = match ty {
            PageType::BTreeLeaf => {
                let (k, _) = decode_leaf(&records[idx]);
                (k.to_vec(), records[..idx].to_vec(), records[idx..].to_vec())
            }
            PageType::BTreeInternal => {
                let (k, c) = decode_internal(&records[idx]);
                let mut right = vec![internal_record(&[], c)];
                right.extend(records[idx + 1..].iter().cloned());
                (k.to_vec(), records[..idx].to_vec(), right)
            }
            other => return Err(Error::corruption(format!("split of {other:?} root"))),
        };

        let left = s.allocate(
            self.object,
            ty,
            level,
            PageId::INVALID,
            PageId::INVALID,
            ModKind::Smo,
        )?;
        let right = s.allocate(self.object, ty, level, PageId::INVALID, left, ModKind::Smo)?;
        if ty == PageType::BTreeLeaf {
            s.modify(
                left,
                LogPayloadView::SetNextPage {
                    old: PageId::INVALID,
                    new: right,
                },
                ModKind::Smo,
            )?;
        }
        for (i, rec) in left_records.iter().enumerate() {
            s.modify(
                left,
                LogPayloadView::InsertRecord {
                    slot: i as u16,
                    bytes: rec,
                },
                ModKind::Smo,
            )?;
        }
        for (i, rec) in right_records.iter().enumerate() {
            s.modify(
                right,
                LogPayloadView::InsertRecord {
                    slot: i as u16,
                    bytes: rec,
                },
                ModKind::Smo,
            )?;
        }
        s.modify(
            self.root,
            LogPayloadView::Reformat {
                object: self.object,
                ty: PageType::BTreeInternal,
                level: level + 1,
                prev_image: &image,
            },
            ModKind::Smo,
        )?;
        s.modify(
            self.root,
            LogPayloadView::InsertRecord {
                slot: 0,
                bytes: &internal_record(&[], left),
            },
            ModKind::Smo,
        )?;
        s.modify(
            self.root,
            LogPayloadView::InsertRecord {
                slot: 1,
                bytes: &internal_record(&sep, right),
            },
            ModKind::Smo,
        )?;
        s.end_smo(anchor)
    }

    // ---- rollback helpers (logical undo, §4.1-A avoided via per-record CLRs)

    /// Logically undo an insert: delete `key` wherever it now lives, logging
    /// a CLR whose `undo_next` is `undo_next`. Missing keys are tolerated
    /// (idempotent crash-resume).
    pub fn rollback_insert<S: Store>(&self, s: &S, key: &[u8], undo_next: Lsn) -> Result<bool> {
        self.delete_mode(s, key, ModKind::Clr { undo_next })
    }

    /// Logically undo a delete: re-insert the logged record (splits allowed),
    /// final insert logged as a CLR.
    pub fn rollback_delete<S: Store>(&self, s: &S, old_rec: &[u8], undo_next: Lsn) -> Result<()> {
        let (key, value) = decode_leaf(old_rec);
        self.insert_mode(s, key, value, ModKind::Clr { undo_next }, true)
    }

    /// Logically undo an update: restore the logged old record under its
    /// key, upserting as needed.
    pub fn rollback_update<S: Store>(&self, s: &S, old_rec: &[u8], undo_next: Lsn) -> Result<()> {
        let (key, value) = decode_leaf(old_rec);
        self.insert_mode(s, key, value, ModKind::Clr { undo_next }, true)
    }

    // ---- diagnostics ---------------------------------------------------------

    /// Every page id reachable in this tree (root first). Used by DROP TABLE
    /// to deallocate, and by tests.
    pub fn collect_pages<S: Store>(&self, s: &S) -> Result<Vec<PageId>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            out.push(pid);
            s.with_page(pid, |p| {
                if p.try_page_type()? == PageType::BTreeInternal {
                    for i in 0..p.slot_count() as usize {
                        let (_, child) = decode_internal(p.record(i)?);
                        stack.push(child);
                    }
                }
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// Page ids of every leaf, discovered by reading **internal pages
    /// only** — the leaves themselves are listed from their parents' child
    /// pointers and never fetched. Against a snapshot store this walk
    /// prepares the (few) internal pages, and leaves the (many) leaves to
    /// one batched preparation that vector-reads their primary pages
    /// (`AsOfSnapshot::prepare_pages`).
    pub fn unread_leaf_pages<S: Store>(&self, s: &S) -> Result<Vec<PageId>> {
        let mut leaves = Vec::new();
        let mut internals = vec![self.root];
        while let Some(pid) = internals.pop() {
            s.with_page(pid, |p| {
                // A root that is itself a leaf has no unread leaves.
                if p.try_page_type()? == PageType::BTreeInternal {
                    for i in 0..p.slot_count() as usize {
                        let (_, child) = decode_internal(p.record(i)?);
                        if p.level() == 1 {
                            leaves.push(child);
                        } else {
                            internals.push(child);
                        }
                    }
                }
                Ok(())
            })?;
        }
        Ok(leaves)
    }

    /// Structural integrity check: key ordering within and across leaves,
    /// separator correctness, sibling links, level consistency. Returns the
    /// number of leaf entries.
    pub fn verify<S: Store>(&self, s: &S) -> Result<usize> {
        let mut count = 0usize;
        let mut last: Option<Vec<u8>> = None;
        self.scan_inner(s, Bound::Unbounded, Bound::Unbounded, |k, _| {
            if let Some(prev) = &last {
                if prev.as_slice() >= k {
                    return Err(Error::corruption(format!(
                        "keys out of order in tree {:?}",
                        self.object
                    )));
                }
            }
            last = Some(k.to_vec());
            count += 1;
            Ok(true)
        })?;
        self.verify_node(s, self.root, &[], None)?;
        Ok(count)
    }

    fn verify_node<S: Store>(
        &self,
        s: &S,
        pid: PageId,
        lower: &[u8],
        upper: Option<&[u8]>,
    ) -> Result<u16> {
        enum Node {
            Leaf(u16),
            Internal(u16, Vec<(Vec<u8>, PageId)>),
        }
        let node = s.with_page(pid, |p| {
            if p.object_id() != self.object {
                return Err(Error::corruption(format!(
                    "page {pid:?} owned by {:?}, expected {:?}",
                    p.object_id(),
                    self.object
                )));
            }
            match p.try_page_type()? {
                PageType::BTreeLeaf => {
                    for i in 0..p.slot_count() as usize {
                        let k = record_key(p, i)?;
                        if k < lower || upper.is_some_and(|u| k >= u) {
                            return Err(Error::corruption(format!(
                                "leaf {pid:?} slot {i} key outside separator bounds"
                            )));
                        }
                    }
                    Ok(Node::Leaf(p.level()))
                }
                PageType::BTreeInternal => {
                    let mut kids = Vec::new();
                    for i in 0..p.slot_count() as usize {
                        let (k, c) = decode_internal(p.record(i)?);
                        kids.push((k.to_vec(), c));
                    }
                    Ok(Node::Internal(p.level(), kids))
                }
                other => Err(Error::corruption(format!("bad page type {other:?}"))),
            }
        })?;
        match node {
            Node::Leaf(level) => {
                if level != 0 {
                    return Err(Error::corruption(format!("leaf {pid:?} at level {level}")));
                }
                Ok(0)
            }
            Node::Internal(level, kids) => {
                if kids.is_empty() || !kids[0].0.is_empty() {
                    return Err(Error::corruption(format!(
                        "internal {pid:?} slot 0 must hold the -inf key"
                    )));
                }
                for w in kids.windows(2) {
                    if !w[0].0.is_empty() && w[0].0 >= w[1].0 {
                        return Err(Error::corruption(format!(
                            "internal {pid:?} separators out of order"
                        )));
                    }
                }
                for (i, (k, child)) in kids.iter().enumerate() {
                    let lo = if i == 0 { lower } else { k.as_slice() };
                    let hi = kids.get(i + 1).map(|(k2, _)| k2.as_slice()).or(upper);
                    let child_level = self.verify_node(s, *child, lo, hi)?;
                    if child_level + 1 != level {
                        return Err(Error::corruption(format!(
                            "level mismatch under {pid:?}: child {child_level}, parent {level}"
                        )));
                    }
                }
                Ok(level)
            }
        }
    }
}

fn check_key(key: &[u8]) -> Result<()> {
    if key.is_empty() {
        return Err(Error::InvalidArg("empty B-Tree key".into()));
    }
    if key.len() > MAX_KEY {
        return Err(Error::RecordTooLarge {
            size: key.len(),
            max: MAX_KEY,
        });
    }
    Ok(())
}

fn above_lo(k: &[u8], lo: &Bound<&[u8]>) -> bool {
    match lo {
        Bound::Included(b) => k >= *b,
        Bound::Excluded(b) => k > *b,
        Bound::Unbounded => true,
    }
}

fn below_hi(k: &[u8], hi: &Bound<&[u8]>) -> bool {
    match hi {
        Bound::Included(b) => k <= *b,
        Bound::Excluded(b) => k < *b,
        Bound::Unbounded => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use std::collections::BTreeMap;
    use std::ops::Bound::*;

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    fn setup() -> (MemStore, BTree) {
        let s = MemStore::new(2);
        let t = BTree::create(&s, ObjectId(7)).unwrap();
        (s, t)
    }

    #[test]
    fn insert_get_delete_small() {
        let (s, t) = setup();
        for i in [5u64, 1, 9, 3, 7] {
            t.insert(&s, &key(i), format!("v{i}").as_bytes()).unwrap();
        }
        assert_eq!(t.get(&s, &key(3)).unwrap().unwrap(), b"v3");
        assert_eq!(t.get(&s, &key(4)).unwrap(), None);
        assert!(matches!(
            t.insert(&s, &key(3), b"dup"),
            Err(Error::DuplicateKey)
        ));
        t.delete(&s, &key(3)).unwrap();
        assert_eq!(t.get(&s, &key(3)).unwrap(), None);
        assert!(matches!(t.delete(&s, &key(3)), Err(Error::KeyNotFound)));
        assert_eq!(t.verify(&s).unwrap(), 4);
    }

    #[test]
    fn update_in_place_and_relocating() {
        let (s, t) = setup();
        t.insert(&s, &key(1), b"short").unwrap();
        t.update(&s, &key(1), b"SHORT").unwrap();
        assert_eq!(t.get(&s, &key(1)).unwrap().unwrap(), b"SHORT");
        let big = vec![7u8; 1500];
        t.update(&s, &key(1), &big).unwrap();
        assert_eq!(t.get(&s, &key(1)).unwrap().unwrap(), big);
        assert!(matches!(
            t.update(&s, &key(2), b"x"),
            Err(Error::KeyNotFound)
        ));
    }

    #[test]
    fn many_inserts_force_splits_and_stay_sorted() {
        let (s, t) = setup();
        let n = 5000u64;
        // insert in a scrambled order
        let mut order: Vec<u64> = (0..n).collect();
        let mut state = 0x12345678u64;
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        for &i in &order {
            t.insert(&s, &key(i), format!("value-{i:08}").as_bytes())
                .unwrap();
        }
        assert_eq!(t.verify(&s).unwrap(), n as usize);
        for i in (0..n).step_by(97) {
            assert_eq!(
                t.get(&s, &key(i)).unwrap().unwrap(),
                format!("value-{i:08}").as_bytes()
            );
        }
        // tree actually grew
        let pages = t.collect_pages(&s).unwrap();
        assert!(pages.len() > 10, "expected many pages, got {}", pages.len());
        // root unchanged
        assert!(pages.contains(&t.root));
    }

    #[test]
    fn scan_bounds_ascending_and_descending() {
        let (s, t) = setup();
        for i in 0..500u64 {
            t.insert(&s, &key(i * 2), &key(i * 2)).unwrap(); // even keys only
        }
        let mut got = Vec::new();
        t.scan(
            &s,
            Included(&key(100)[..]),
            Excluded(&key(120)[..]),
            |k, _| {
                got.push(u64::from_be_bytes(k.try_into().unwrap()));
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(got, vec![100, 102, 104, 106, 108, 110, 112, 114, 116, 118]);

        let mut desc = Vec::new();
        t.scan_desc(
            &s,
            Included(&key(100)[..]),
            Included(&key(110)[..]),
            |k, _| {
                desc.push(u64::from_be_bytes(k.try_into().unwrap()));
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(desc, vec![110, 108, 106, 104, 102, 100]);

        // early termination
        let mut first = None;
        t.scan(&s, Unbounded, Unbounded, |k, _| {
            first = Some(k.to_vec());
            Ok(false)
        })
        .unwrap();
        assert_eq!(first.unwrap(), key(0));

        // empty range
        let mut none = 0;
        t.scan(
            &s,
            Excluded(&key(100)[..]),
            Excluded(&key(102)[..]),
            |_, _| {
                none += 1;
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(none, 0);
    }

    #[test]
    fn matches_btreemap_model_under_random_ops() {
        let (s, t) = setup();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut state = 99u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..4000 {
            let k = key(rng() % 700);
            let op = rng() % 10;
            if op < 5 {
                let v = format!("v{}", rng() % 1000).into_bytes();
                match t.insert(&s, &k, &v) {
                    Ok(()) => {
                        assert!(model.insert(k.clone(), v).is_none());
                    }
                    Err(Error::DuplicateKey) => {
                        assert!(model.contains_key(&k));
                    }
                    Err(e) => panic!("{e}"),
                }
            } else if op < 7 {
                match t.delete(&s, &k) {
                    Ok(()) => {
                        assert!(model.remove(&k).is_some());
                    }
                    Err(Error::KeyNotFound) => assert!(!model.contains_key(&k)),
                    Err(e) => panic!("{e}"),
                }
            } else if op < 8 {
                let v = vec![b'u'; (rng() % 600) as usize];
                match t.update(&s, &k, &v) {
                    Ok(()) => {
                        assert!(model.insert(k.clone(), v).is_some());
                    }
                    Err(Error::KeyNotFound) => assert!(!model.contains_key(&k)),
                    Err(e) => panic!("{e}"),
                }
            } else {
                assert_eq!(t.get(&s, &k).unwrap(), model.get(&k).cloned(), "get {k:?}");
            }
        }
        assert_eq!(t.verify(&s).unwrap(), model.len());
        // full scan equality
        let mut scanned = Vec::new();
        t.scan(&s, Unbounded, Unbounded, |k, v| {
            scanned.push((k.to_vec(), v.to_vec()));
            Ok(true)
        })
        .unwrap();
        let expect: Vec<_> = model.into_iter().collect();
        assert_eq!(scanned, expect);
    }

    #[test]
    fn upsert_overwrites() {
        let (s, t) = setup();
        t.upsert(&s, &key(1), b"a").unwrap();
        t.upsert(&s, &key(1), b"b").unwrap();
        assert_eq!(t.get(&s, &key(1)).unwrap().unwrap(), b"b");
    }

    #[test]
    fn rollback_helpers_invert_operations() {
        let (s, t) = setup();
        for i in 0..100u64 {
            t.insert(&s, &key(i), b"base").unwrap();
        }
        // undo an insert
        t.insert(&s, &key(500), b"new").unwrap();
        assert!(t.rollback_insert(&s, &key(500), Lsn(1)).unwrap());
        assert_eq!(t.get(&s, &key(500)).unwrap(), None);
        // undo of a missing key is tolerated
        assert!(!t.rollback_insert(&s, &key(500), Lsn(1)).unwrap());
        // undo a delete
        let rec = leaf_record(&key(7), b"base");
        t.delete(&s, &key(7)).unwrap();
        t.rollback_delete(&s, &rec, Lsn(1)).unwrap();
        assert_eq!(t.get(&s, &key(7)).unwrap().unwrap(), b"base");
        // undo an update
        let rec = leaf_record(&key(8), b"base");
        t.update(&s, &key(8), b"changed").unwrap();
        t.rollback_update(&s, &rec, Lsn(1)).unwrap();
        assert_eq!(t.get(&s, &key(8)).unwrap().unwrap(), b"base");
        assert_eq!(t.verify(&s).unwrap(), 100);
    }

    #[test]
    fn key_limits_enforced() {
        let (s, t) = setup();
        assert!(t.insert(&s, &[], b"v").is_err());
        assert!(t.insert(&s, &vec![1u8; MAX_KEY + 1], b"v").is_err());
        assert!(t.insert(&s, &key(1), &vec![0u8; MAX_ENTRY]).is_err());
        // max-size entries work and force splits
        for i in 0..40u64 {
            t.insert(&s, &key(i), &vec![b'x'; MAX_ENTRY - 100]).unwrap();
        }
        assert_eq!(t.verify(&s).unwrap(), 40);
    }

    #[test]
    fn large_keys_and_values_split_correctly() {
        let (s, t) = setup();
        for i in 0..200u64 {
            let mut k = vec![b'k'; 200];
            k.extend_from_slice(&key(i));
            t.insert(&s, &k, &vec![b'v'; 500]).unwrap();
        }
        assert_eq!(t.verify(&s).unwrap(), 200);
    }
}
