//! The snapshot side file — our substitute for NTFS sparse files.
//!
//! SQL Server database snapshots store page versions in NTFS sparse files
//! (paper §2.2): a page-addressed store that holds only the pages that have
//! been pushed to it, and answers "do you have page X?" cheaply. As-of
//! snapshots use it as a cache of pages already unwound to the SplitLSN
//! (§5.3) and as the destination for pages fixed up by background logical
//! undo (§5.2).
//!
//! [`SideFile`] reproduces those semantics with one map of immutable
//! [`PageImage`]s behind one `RwLock`. Reads are shared; only a put (a
//! preparer's install or undo's fix-up) takes the lock exclusively, and
//! only for a map insert.
//!
//! # Zero-copy hits and the epoch invariant
//!
//! A [`SideFile::get`] is an `Arc` clone — **no page bytes move** on a hit,
//! and the side-file lock is held only for the map probe. Stored images are
//! immutable; overwriting an entry (undo's fix-up path) *replaces* the
//! `Arc`, so a reader that fetched the old image keeps exactly the version
//! it fetched — an in-flight scan never observes a torn or mixed-epoch
//! page, which is the PR 4 split-consistency invariant carried down to the
//! byte level.
//!
//! **The side-file lock is never held across an 8 KiB copy.** The one
//! install path, [`SideFile::put_image`], takes an owned image and never
//! copies at all.

use crate::image::PageImage;
use parking_lot::RwLock;
use rewind_common::PageId;
use std::collections::HashMap;

/// A page-addressed sparse store of immutable page-version images.
#[derive(Default)]
pub struct SideFile {
    map: RwLock<HashMap<u64, PageImage>>,
}

impl SideFile {
    /// An empty side file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch the stored version of `pid`, if any. An `Arc` clone: zero page
    /// bytes copied, lock held only for the probe.
    pub fn get(&self, pid: PageId) -> Option<PageImage> {
        self.map.read().get(&pid.0).cloned()
    }

    /// Store (or overwrite) the version of `pid` from an owned image — the
    /// zero-copy install path. Readers holding the previous image keep it
    /// (epoch stability); new readers see `image`.
    pub fn put_image(&self, pid: PageId, image: PageImage) {
        self.map.write().insert(pid.0, image);
    }

    /// Number of page versions stored.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the side file is empty.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Page ids currently stored (diagnostics, tests).
    pub fn page_ids(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self.map.read().keys().map(|&k| PageId(k)).collect();
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
    use crate::page::{Page, PageType};
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
    fn page_ids_sorted() {
        let sf = SideFile::new();
        for pid in [7u64, 3, 5] {
            sf.put_image(PageId(pid), image(pid, 1));
        }
        assert_eq!(sf.page_ids(), vec![PageId(3), PageId(5), PageId(7)]);
    }

    #[test]
    fn many_pages_all_read_back() {
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
