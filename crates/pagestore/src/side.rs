//! The snapshot side file — our substitute for NTFS sparse files.
//!
//! SQL Server database snapshots store page versions in NTFS sparse files
//! (paper §2.2): a page-addressed store that holds only the pages that have
//! been pushed to it, and answers "do you have page X?" cheaply. Regular
//! snapshots fill it via copy-on-write from the primary; as-of snapshots use
//! it as a cache of pages already unwound to the SplitLSN (§5.3) and as the
//! destination for pages fixed up by background logical undo (§5.2).
//!
//! [`SideFile`] reproduces those semantics with a **sharded** store of
//! immutable [`PageImage`]s: the map is split into pid-hashed shards, each
//! behind its own `RwLock`, so concurrent snapshot readers never block
//! behind a writer (a preparer's `put`, undo's fix-up, or a COW push)
//! landing on an unrelated shard. Within a shard, reads are shared; only a
//! `put` takes the shard exclusively.
//!
//! # Zero-copy hits and the copy-on-write epoch invariant
//!
//! A [`SideFile::get`] is an `Arc` clone — **no page bytes move** on a hit,
//! and the shard lock is held only for the map probe. Stored images are
//! immutable; overwriting an entry (undo's fix-up path) *replaces* the
//! `Arc`, so a reader that fetched the old image keeps exactly the version
//! it fetched — an in-flight scan never observes a torn or mixed-epoch
//! page, which is the PR 4 split-consistency invariant carried down to the
//! byte level.
//!
//! **No shard lock is ever held across an 8 KiB copy.** The borrowing
//! copy-on-write push ([`SideFile::put_if_absent`]) clones the caller's
//! page into a fresh image *before* taking the shard lock; the owning path
//! ([`SideFile::put_image`]) never copies at all. (The pre-image `SideFile`
//! copied 8 KiB under the shard lock on both `get` and `put`, serializing
//! every same-shard reader behind the memcpy.)

use crate::image::PageImage;
use crate::page::Page;
use parking_lot::RwLock;
use rewind_common::PageId;
use std::collections::HashMap;

/// Number of shards (power of two so the pick is a mask).
const SIDE_SHARDS: usize = 16;

/// A page-addressed sparse store of immutable page-version images.
pub struct SideFile {
    shards: Vec<RwLock<HashMap<u64, PageImage>>>,
}

impl Default for SideFile {
    fn default() -> Self {
        SideFile {
            shards: (0..SIDE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }
}

impl SideFile {
    /// An empty side file.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn shard(&self, pid: u64) -> &RwLock<HashMap<u64, PageImage>> {
        &self.shards[rewind_common::shard_index(pid, SIDE_SHARDS)]
    }

    /// Fetch the stored version of `pid`, if any. An `Arc` clone: zero page
    /// bytes copied, shard lock held only for the probe.
    pub fn get(&self, pid: PageId) -> Option<PageImage> {
        self.shard(pid.0).read().get(&pid.0).cloned()
    }

    /// Store (or overwrite) the version of `pid` from an owned image — the
    /// zero-copy install path. Readers holding the previous image keep it
    /// (epoch stability); new readers see `image`.
    pub fn put_image(&self, pid: PageId, image: PageImage) {
        self.shard(pid.0).write().insert(pid.0, image);
    }

    /// Store the version of `pid` only if none is present yet. Returns
    /// whether the page was stored. This is the copy-on-write primitive:
    /// only the *first* post-snapshot modification pushes the old image.
    ///
    /// The copy is made outside the shard lock; a cheap shared-mode probe
    /// first skips the copy entirely when a version is already present (the
    /// common case — every modification after the first).
    pub fn put_if_absent(&self, pid: PageId, page: &Page) -> bool {
        if self.shard(pid.0).read().contains_key(&pid.0) {
            return false;
        }
        let image = PageImage::new(page.clone());
        let mut shard = self.shard(pid.0).write();
        if let std::collections::hash_map::Entry::Vacant(e) = shard.entry(pid.0) {
            e.insert(image);
            true
        } else {
            false
        }
    }

    /// Number of page versions stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the side file is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Page ids currently stored (diagnostics, tests).
    pub fn page_ids(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().map(|&k| PageId(k)).collect::<Vec<_>>())
            .collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for SideFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SideFile")
            .field("pages", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;
    use rewind_common::{Lsn, ObjectId};

    fn image(pid: u64, lsn: u64) -> PageImage {
        let mut p = Page::formatted(PageId(pid), ObjectId(2), PageType::Heap);
        p.set_page_lsn(Lsn(lsn));
        PageImage::new(p)
    }

    #[test]
    fn put_get_contains() {
        let sf = SideFile::new();
        assert!(sf.is_empty());
        assert!(sf.get(PageId(5)).is_none());

        sf.put_image(PageId(5), image(5, 44));
        let q = sf.get(PageId(5)).unwrap();
        assert_eq!(q.page_lsn(), Lsn(44));
        assert_eq!(sf.len(), 1);
        assert!(!sf.is_empty());
    }

    #[test]
    fn get_is_shared_not_copied() {
        let sf = SideFile::new();
        sf.put_image(PageId(4), image(4, 1));
        let a = sf.get(PageId(4)).unwrap();
        let b = sf.get(PageId(4)).unwrap();
        assert!(a.same_as(&b), "hits share one allocation");
    }

    #[test]
    fn overwrite_preserves_in_flight_readers_epoch() {
        let sf = SideFile::new();
        sf.put_image(PageId(9), image(9, 10));
        let held = sf.get(PageId(9)).unwrap();
        // undo fix-up overwrites the stored entry...
        sf.put_image(PageId(9), image(9, 20));
        // ...but the in-flight reader keeps the version it fetched
        assert_eq!(held.page_lsn(), Lsn(10));
        assert_eq!(sf.get(PageId(9)).unwrap().page_lsn(), Lsn(20));
        assert!(!held.same_as(&sf.get(PageId(9)).unwrap()));
    }

    #[test]
    fn cow_put_if_absent_keeps_first_version() {
        let sf = SideFile::new();
        assert!(sf.put_if_absent(PageId(9), &image(9, 10)));
        assert!(!sf.put_if_absent(PageId(9), &image(9, 20)));
        assert_eq!(sf.get(PageId(9)).unwrap().page_lsn(), Lsn(10));
        // but an explicit put (undo fix-up path) does overwrite
        sf.put_image(PageId(9), image(9, 20));
        assert_eq!(sf.get(PageId(9)).unwrap().page_lsn(), Lsn(20));
    }

    #[test]
    fn page_ids_sorted() {
        let sf = SideFile::new();
        for pid in [7u64, 3, 5] {
            sf.put_image(PageId(pid), image(pid, 1));
        }
        assert_eq!(sf.page_ids(), vec![PageId(3), PageId(5), PageId(7)]);
    }

    #[test]
    fn many_pages_spread_across_shards() {
        let sf = SideFile::new();
        for pid in 1..=200u64 {
            sf.put_image(PageId(pid), image(pid, 1));
        }
        assert_eq!(sf.len(), 200);
        assert_eq!(sf.page_ids().len(), 200);
        for pid in 1..=200u64 {
            assert!(sf.get(PageId(pid)).is_some());
        }
    }
}
