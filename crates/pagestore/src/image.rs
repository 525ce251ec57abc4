//! [`PageImage`] — an immutable, `Arc`-shared page image.
//!
//! The snapshot read path serves the same prepared page version to many
//! concurrent readers (paper §5.3: once a page has been unwound to the
//! SplitLSN it is cached in the side file and every later access is a hit).
//! Cloning an 8 KiB [`Page`] per hit made the side file scale its *locking*
//! but not its *bytes*; a `PageImage` is the fix: one heap allocation,
//! shared by reference count, **immutable by construction** — the type
//! exposes no `&mut Page` access, so an image can be handed to any number
//! of readers without copies or latches.
//!
//! Invariants:
//!
//! * **Image immutability** — the wrapped `Page` is never modified after
//!   construction. Code that needs to derive a new version clones the
//!   underlying page ([`PageImage::to_page`]) and wraps the result in a
//!   *new* image (copy-on-write at page granularity).
//! * **Epoch stability** — because overwriting a side-file entry swaps the
//!   `Arc` rather than editing bytes, a reader holding an image keeps
//!   exactly the version it fetched, even while background logical undo
//!   replaces the stored entry (the split-consistency property the
//!   concurrency torture suite checks).
//!
//! `PageImage` lives here, next to [`Page`], rather than in `rewind-common`:
//! the page format is pagestore's, and `rewind-common` sits below it in the
//! crate graph (it hosts the generic striped-counter helper instead).

use crate::page::Page;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted page image. Cheap to clone (an `Arc`
/// bump); dereferences to [`Page`] for all read accessors.
#[derive(Clone, Debug)]
pub struct PageImage(Arc<Page>);

impl PageImage {
    /// Freeze `page` into an immutable shared image. Takes ownership — no
    /// copy is made; the page's allocation becomes the shared one.
    pub fn new(page: Page) -> PageImage {
        PageImage(Arc::new(page))
    }

    /// A mutable private copy of the image (one 8 KiB copy). This is the
    /// only way "out" of immutability: derive, then freeze the result into
    /// a new image.
    pub fn to_page(&self) -> Page {
        (*self.0).clone()
    }

    /// Whether two images are the same allocation (same version, not merely
    /// equal bytes).
    pub fn same_as(&self, other: &PageImage) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl From<Page> for PageImage {
    fn from(page: Page) -> PageImage {
        PageImage::new(page)
    }
}

impl Deref for PageImage {
    type Target = Page;

    #[inline]
    fn deref(&self) -> &Page {
        &self.0
    }
}

impl AsRef<Page> for PageImage {
    #[inline]
    fn as_ref(&self) -> &Page {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;
    use rewind_common::{Lsn, ObjectId, PageId};

    #[test]
    fn image_shares_without_copying() {
        let mut p = Page::formatted(PageId(3), ObjectId(1), PageType::Heap);
        p.set_page_lsn(Lsn(9));
        let img = PageImage::new(p);
        let also = img.clone();
        assert!(img.same_as(&also));
        assert_eq!(also.page_lsn(), Lsn(9));
        assert_eq!(img.page_id(), PageId(3));
    }

    #[test]
    fn to_page_is_a_private_copy() {
        let img = PageImage::new(Page::formatted(PageId(1), ObjectId(1), PageType::Heap));
        let mut copy = img.to_page();
        copy.set_page_lsn(Lsn(77));
        // the shared image is untouched
        assert_eq!(img.page_lsn(), Lsn::NULL);
        let derived = PageImage::new(copy);
        assert!(!derived.same_as(&img));
        assert_eq!(derived.page_lsn(), Lsn(77));
    }
}
