//! The 8 KiB slotted data page.
//!
//! Layout:
//!
//! ```text
//! +--------------------------------------------------------------+ 0
//! | header (64 bytes): pageLSN, lastFpiLSN, id, object, type,    |
//! |                    ..., checksum (CRC-32C)                   |
//! +--------------------------------------------------------------+ 64
//! | record data, growing upward                                  |
//! |                     ...free space...                         |
//! | slot directory (4 bytes per slot), growing downward          |
//! +--------------------------------------------------------------+ 8188
//! | torn-write trailer (4 bytes): low 32 bits of pageLSN         |
//! +--------------------------------------------------------------+ 8192
//! ```
//!
//! The header carries the two LSN fields the paper's undo machinery needs:
//! `pageLSN` — the LSN of the last record that modified the page (§2.1), the
//! entry point of the per-page backward chain — and `lastFpiLSN` — the LSN of
//! the most recent full-page-image record, the entry point of the FPI chain
//! used by the §6.1 skip optimization.
//!
//! Slot operations are *physiological*: log records say "insert these bytes
//! at slot 3", and redo/undo reproduce logically identical pages even though
//! physical byte placement may differ after compaction.

use rewind_common::codec::{read_u16_at, read_u64_at, write_u16_at, write_u32_at, write_u64_at};
use rewind_common::{crc32c_append, CorruptionKind, Error, Lsn, ObjectId, PageId, Result};

/// Size of every database page in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Size of the fixed page header in bytes.
pub const HEADER_SIZE: usize = 64;
/// Bytes of the torn-write trailer at the very end of the page: a mirror of
/// the low 32 bits of the header's pageLSN. Header and trailer sit in
/// different 512 B sectors, so a torn 8 KiB write (only a prefix of sectors
/// reaching the media) makes them disagree — the InnoDB FIL-trailer idea.
pub const TRAILER_SIZE: usize = 4;
/// Bytes consumed by one slot-directory entry (offset + length).
pub const SLOT_ENTRY_SIZE: usize = 4;
/// Largest record payload a page can hold (one record, one slot entry).
pub const MAX_RECORD_SIZE: usize = PAGE_SIZE - HEADER_SIZE - TRAILER_SIZE - SLOT_ENTRY_SIZE;

// Header field offsets.
const OFF_PAGE_LSN: usize = 0;
const OFF_LAST_FPI_LSN: usize = 8;
const OFF_PAGE_ID: usize = 16;
const OFF_OBJECT_ID: usize = 24;
const OFF_PAGE_TYPE: usize = 32;
const OFF_FLAGS: usize = 34;
const OFF_SLOT_COUNT: usize = 36;
const OFF_FREE_PTR: usize = 38;
const OFF_NEXT_PAGE: usize = 40;
const OFF_PREV_PAGE: usize = 48;
const OFF_LEVEL: usize = 56;
const OFF_GARBAGE: usize = 58;
const OFF_CHECKSUM: usize = 60;
/// Offset of the torn-write trailer (the last 4 bytes of the page).
const OFF_TRAILER: usize = PAGE_SIZE - TRAILER_SIZE;

/// What kind of data a page holds. Stored in the header; determines how the
/// record area is interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum PageType {
    /// Never formatted, or deallocated content left in place.
    Free = 0,
    /// The boot page (page 0): database-wide metadata.
    Boot = 1,
    /// Allocation map: 2 bits per covered page in the record area.
    AllocMap = 2,
    /// B-Tree leaf: slots hold key/value records in key order.
    BTreeLeaf = 3,
    /// B-Tree internal node: slots hold separator-key/child records.
    BTreeInternal = 4,
    /// Heap page: slots hold rows in arrival order.
    Heap = 5,
}

impl PageType {
    /// Decode from the on-page representation.
    pub fn from_u16(v: u16) -> Result<PageType> {
        Ok(match v {
            0 => PageType::Free,
            1 => PageType::Boot,
            2 => PageType::AllocMap,
            3 => PageType::BTreeLeaf,
            4 => PageType::BTreeInternal,
            5 => PageType::Heap,
            other => return Err(Error::corruption(format!("unknown page type {other}"))),
        })
    }
}

/// An in-memory 8 KiB page image.
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            buf: Box::new(*self.buf),
        }
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.page_id())
            .field("type", &self.page_type())
            .field("lsn", &self.page_lsn())
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl Page {
    /// An all-zero page (header reads as `Free`, null LSNs).
    pub fn zeroed() -> Page {
        Page {
            buf: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// A freshly formatted page of the given type, with an empty record area.
    pub fn formatted(id: PageId, object: ObjectId, ty: PageType) -> Page {
        let mut p = Page::zeroed();
        p.format(id, object, ty);
        p
    }

    /// Reset this page to a freshly formatted state (everything zeroed, then
    /// identity fields set). This is what applying a `Format` log record does.
    pub fn format(&mut self, id: PageId, object: ObjectId, ty: PageType) {
        self.buf.fill(0);
        write_u64_at(&mut self.buf[..], OFF_PAGE_ID, id.0);
        write_u64_at(&mut self.buf[..], OFF_OBJECT_ID, object.0);
        write_u16_at(&mut self.buf[..], OFF_PAGE_TYPE, ty as u16);
        write_u16_at(&mut self.buf[..], OFF_FREE_PTR, HEADER_SIZE as u16);
        write_u64_at(&mut self.buf[..], OFF_NEXT_PAGE, PageId::INVALID.0);
        write_u64_at(&mut self.buf[..], OFF_PREV_PAGE, PageId::INVALID.0);
    }

    /// Construct from a raw image (e.g. read from a file or a log record).
    pub fn from_image(image: &[u8]) -> Result<Page> {
        if image.len() != PAGE_SIZE {
            return Err(Error::corruption(format!(
                "page image of {} bytes",
                image.len()
            )));
        }
        let mut p = Page::zeroed();
        p.buf.copy_from_slice(image);
        Ok(p)
    }

    /// The full raw image of the page.
    #[inline]
    pub fn image(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    /// Replace the entire page with `image` (preformat undo, FPI restore).
    pub fn restore_image(&mut self, image: &[u8; PAGE_SIZE]) {
        self.buf.copy_from_slice(image);
    }

    // ---- header accessors ------------------------------------------------

    /// LSN of the last log record that modified this page.
    #[inline]
    pub fn page_lsn(&self) -> Lsn {
        Lsn(read_u64_at(&self.buf[..], OFF_PAGE_LSN))
    }

    /// Set the pageLSN (done by every logged modification).
    #[inline]
    pub fn set_page_lsn(&mut self, lsn: Lsn) {
        write_u64_at(&mut self.buf[..], OFF_PAGE_LSN, lsn.0);
    }

    /// LSN of the most recent full-page-image record for this page, or null.
    #[inline]
    pub fn last_fpi_lsn(&self) -> Lsn {
        Lsn(read_u64_at(&self.buf[..], OFF_LAST_FPI_LSN))
    }

    /// Set the FPI-chain anchor.
    #[inline]
    pub fn set_last_fpi_lsn(&mut self, lsn: Lsn) {
        write_u64_at(&mut self.buf[..], OFF_LAST_FPI_LSN, lsn.0);
    }

    /// The page's own id, for integrity checking.
    #[inline]
    pub fn page_id(&self) -> PageId {
        PageId(read_u64_at(&self.buf[..], OFF_PAGE_ID))
    }

    /// The catalog object owning this page.
    #[inline]
    pub fn object_id(&self) -> ObjectId {
        ObjectId(read_u64_at(&self.buf[..], OFF_OBJECT_ID))
    }

    /// The page type.
    pub fn page_type(&self) -> PageType {
        PageType::from_u16(read_u16_at(&self.buf[..], OFF_PAGE_TYPE)).unwrap_or(PageType::Free)
    }

    /// The page type, failing on corrupt values.
    pub fn try_page_type(&self) -> Result<PageType> {
        PageType::from_u16(read_u16_at(&self.buf[..], OFF_PAGE_TYPE))
    }

    /// Right sibling in a chain (B-Tree leaves), or [`PageId::INVALID`].
    #[inline]
    pub fn next_page(&self) -> PageId {
        PageId(read_u64_at(&self.buf[..], OFF_NEXT_PAGE))
    }

    /// Set the right sibling.
    #[inline]
    pub fn set_next_page(&mut self, p: PageId) {
        write_u64_at(&mut self.buf[..], OFF_NEXT_PAGE, p.0);
    }

    /// Left sibling in a chain, or [`PageId::INVALID`].
    #[inline]
    pub fn prev_page(&self) -> PageId {
        PageId(read_u64_at(&self.buf[..], OFF_PREV_PAGE))
    }

    /// Set the left sibling.
    #[inline]
    pub fn set_prev_page(&mut self, p: PageId) {
        write_u64_at(&mut self.buf[..], OFF_PREV_PAGE, p.0);
    }

    /// B-Tree level (0 = leaf).
    #[inline]
    pub fn level(&self) -> u16 {
        read_u16_at(&self.buf[..], OFF_LEVEL)
    }

    /// Set the B-Tree level.
    #[inline]
    pub fn set_level(&mut self, l: u16) {
        write_u16_at(&mut self.buf[..], OFF_LEVEL, l);
    }

    /// Number of record slots on the page.
    #[inline]
    pub fn slot_count(&self) -> u16 {
        read_u16_at(&self.buf[..], OFF_SLOT_COUNT)
    }

    fn set_slot_count(&mut self, n: u16) {
        write_u16_at(&mut self.buf[..], OFF_SLOT_COUNT, n);
    }

    fn free_ptr(&self) -> usize {
        read_u16_at(&self.buf[..], OFF_FREE_PTR) as usize
    }

    fn set_free_ptr(&mut self, p: usize) {
        write_u16_at(&mut self.buf[..], OFF_FREE_PTR, p as u16);
    }

    fn garbage(&self) -> usize {
        read_u16_at(&self.buf[..], OFF_GARBAGE) as usize
    }

    fn set_garbage(&mut self, g: usize) {
        write_u16_at(&mut self.buf[..], OFF_GARBAGE, g as u16);
    }

    /// Page flags (reserved for future use).
    #[inline]
    pub fn flags(&self) -> u16 {
        read_u16_at(&self.buf[..], OFF_FLAGS)
    }

    // ---- checksums & torn-write trailer ------------------------------------

    /// Compute the page checksum: CRC-32C over the image with the checksum
    /// field zeroed (the trailer IS covered — a stale trailer is a checksum
    /// mismatch, which the torn-write classifier then inspects).
    pub fn compute_checksum(&self) -> u32 {
        let c = crc32c_append(0, &self.buf[..OFF_CHECKSUM]);
        let c = crc32c_append(c, &[0u8; 4]);
        crc32c_append(c, &self.buf[OFF_CHECKSUM + 4..])
    }

    /// Stamp the checksum field (done by file managers before writing,
    /// after [`Page::stamp_trailer`] so the checksum covers the trailer).
    pub fn stamp_checksum(&mut self) {
        let c = self.compute_checksum();
        write_u32_at(&mut self.buf[..], OFF_CHECKSUM, c);
    }

    /// Stamp the torn-write trailer: mirror the low 32 bits of the
    /// header's pageLSN into the last 4 bytes of the page.
    pub fn stamp_trailer(&mut self) {
        let low = self.page_lsn().0 as u32;
        write_u32_at(&mut self.buf[..], OFF_TRAILER, low);
    }

    /// Whether the trailer agrees with the header pageLSN. On a
    /// checksum-failing page this is the torn-write discriminator: a
    /// consistent trailer means the whole image is suspect (bit rot); an
    /// inconsistent one means only part of the write reached the media.
    pub fn trailer_consistent(&self) -> bool {
        rewind_common::codec::read_u32_at(&self.buf[..], OFF_TRAILER) == self.page_lsn().0 as u32
    }

    /// Verify the checksum field; all-zero pages (never written) pass.
    /// A mismatch is classified via the trailer as
    /// [`CorruptionKind::TornPage`] or [`CorruptionKind::PageChecksum`].
    pub fn verify_checksum(&self) -> Result<()> {
        let stored = rewind_common::codec::read_u32_at(&self.buf[..], OFF_CHECKSUM);
        if stored == 0 && self.buf.iter().all(|&b| b == 0) {
            return Ok(());
        }
        let actual = self.compute_checksum();
        if stored != actual {
            let (kind, what) = if self.trailer_consistent() {
                (CorruptionKind::PageChecksum, "checksum mismatch")
            } else {
                (
                    CorruptionKind::TornPage,
                    "torn write (trailer/pageLSN mismatch)",
                )
            };
            return Err(Error::page_corruption(
                kind,
                self.page_id(),
                format!(
                    "{what} on {:?}: stored {stored:#x}, computed {actual:#x}",
                    self.page_id()
                ),
            ));
        }
        Ok(())
    }

    // ---- slotted record area ----------------------------------------------

    // The slot directory grows downward from the trailer, not the page end.
    fn slot_dir_start(&self) -> usize {
        OFF_TRAILER - SLOT_ENTRY_SIZE * self.slot_count() as usize
    }

    fn slot_entry_off(&self, idx: usize) -> usize {
        OFF_TRAILER - SLOT_ENTRY_SIZE * (idx + 1)
    }

    fn slot_entry(&self, idx: usize) -> (usize, usize) {
        let off = self.slot_entry_off(idx);
        (
            read_u16_at(&self.buf[..], off) as usize,
            read_u16_at(&self.buf[..], off + 2) as usize,
        )
    }

    fn set_slot_entry(&mut self, idx: usize, data_off: usize, len: usize) {
        let off = self.slot_entry_off(idx);
        write_u16_at(&mut self.buf[..], off, data_off as u16);
        write_u16_at(&mut self.buf[..], off + 2, len as u16);
    }

    /// Contiguous free bytes between the record area and the slot directory.
    pub fn contiguous_free(&self) -> usize {
        self.slot_dir_start().saturating_sub(self.free_ptr())
    }

    /// Total reclaimable free bytes (contiguous + garbage from deletions).
    pub fn free_space(&self) -> usize {
        self.contiguous_free() + self.garbage()
    }

    /// Whether a record of `len` bytes can be inserted (possibly after
    /// compaction).
    pub fn can_insert(&self, len: usize) -> bool {
        len <= MAX_RECORD_SIZE && self.free_space() >= len + SLOT_ENTRY_SIZE
    }

    /// Read the record in slot `idx`.
    pub fn record(&self, idx: usize) -> Result<&[u8]> {
        if idx >= self.slot_count() as usize {
            return Err(Error::corruption(format!(
                "slot {idx} out of range on {:?} ({} slots)",
                self.page_id(),
                self.slot_count()
            )));
        }
        let (off, len) = self.slot_entry(idx);
        if off < HEADER_SIZE || off + len > OFF_TRAILER {
            return Err(Error::corruption(format!("slot {idx} points outside page")));
        }
        Ok(&self.buf[off..off + len])
    }

    /// Rewrite the record area keeping only live records, eliminating
    /// garbage. Slot order is preserved.
    fn compact(&mut self) {
        let n = self.slot_count() as usize;
        let mut records: Vec<(usize, Vec<u8>)> = Vec::with_capacity(n);
        for i in 0..n {
            let (off, len) = self.slot_entry(i);
            records.push((i, self.buf[off..off + len].to_vec()));
        }
        let mut ptr = HEADER_SIZE;
        for (i, rec) in records {
            self.buf[ptr..ptr + rec.len()].copy_from_slice(&rec);
            self.set_slot_entry(i, ptr, rec.len());
            ptr += rec.len();
        }
        self.set_free_ptr(ptr);
        self.set_garbage(0);
    }

    /// Insert `rec` as a new slot at index `idx`, shifting later slots up.
    ///
    /// `idx` may equal the current slot count (append). Fails with
    /// [`Error::RecordTooLarge`] when the record cannot fit even after
    /// compaction.
    pub fn insert_record(&mut self, idx: usize, rec: &[u8]) -> Result<()> {
        let n = self.slot_count() as usize;
        if idx > n {
            return Err(Error::Internal(format!(
                "insert at slot {idx} past end ({n} slots)"
            )));
        }
        if !self.can_insert(rec.len()) {
            return Err(Error::RecordTooLarge {
                size: rec.len(),
                max: self.free_space().saturating_sub(SLOT_ENTRY_SIZE),
            });
        }
        if self.contiguous_free() < rec.len() + SLOT_ENTRY_SIZE {
            self.compact();
        }
        // Grow directory by one and shift entries for slots >= idx.
        // Directory grows downward, so "shifting up" means moving the tail
        // entries (idx..n) one entry lower in memory.
        self.set_slot_count((n + 1) as u16);
        for i in (idx..n).rev() {
            let (o, l) = self.slot_entry(i);
            self.set_slot_entry(i + 1, o, l);
        }
        let ptr = self.free_ptr();
        self.buf[ptr..ptr + rec.len()].copy_from_slice(rec);
        self.set_slot_entry(idx, ptr, rec.len());
        self.set_free_ptr(ptr + rec.len());
        Ok(())
    }

    /// Delete slot `idx`, shifting later slots down. Returns the old record.
    pub fn delete_record(&mut self, idx: usize) -> Result<Vec<u8>> {
        let old = self.record(idx)?.to_vec();
        self.remove_record(idx)?;
        Ok(old)
    }

    /// Delete slot `idx` without materializing the old record — the
    /// allocation-free variant redo/undo chain walks use (the log record
    /// already carries the undo bytes).
    pub fn remove_record(&mut self, idx: usize) -> Result<()> {
        let n = self.slot_count() as usize;
        self.record(idx)?;
        let (_, len) = self.slot_entry(idx);
        for i in idx + 1..n {
            let (o, l) = self.slot_entry(i);
            self.set_slot_entry(i - 1, o, l);
        }
        self.set_slot_count((n - 1) as u16);
        self.set_garbage(self.garbage() + len);
        Ok(())
    }

    /// Replace the record in slot `idx` with `rec`. Returns the old record.
    pub fn update_record(&mut self, idx: usize, rec: &[u8]) -> Result<Vec<u8>> {
        let old = self.record(idx)?.to_vec();
        self.replace_record(idx, rec)?;
        Ok(old)
    }

    /// Replace the record in slot `idx` with `rec` without materializing the
    /// old record — the allocation-free variant redo/undo chain walks use.
    pub fn replace_record(&mut self, idx: usize, rec: &[u8]) -> Result<()> {
        self.record(idx)?;
        let (off, len) = self.slot_entry(idx);
        if rec.len() == len {
            self.buf[off..off + len].copy_from_slice(rec);
            return Ok(());
        }
        if rec.len() < len {
            self.buf[off..off + rec.len()].copy_from_slice(rec);
            self.set_slot_entry(idx, off, rec.len());
            self.set_garbage(self.garbage() + (len - rec.len()));
            return Ok(());
        }
        // Grows: free old space, place at end (compacting if needed).
        let needed = rec.len();
        if self.contiguous_free() + self.garbage() + len < needed {
            return Err(Error::RecordTooLarge {
                size: needed,
                max: self.free_space() + len,
            });
        }
        // Mark old space garbage first so compaction reclaims it.
        self.set_slot_entry(idx, HEADER_SIZE, 0);
        self.set_garbage(self.garbage() + len);
        if self.contiguous_free() < needed {
            self.compact();
        }
        let ptr = self.free_ptr();
        self.buf[ptr..ptr + needed].copy_from_slice(rec);
        self.set_slot_entry(idx, ptr, needed);
        self.set_free_ptr(ptr + needed);
        Ok(())
    }

    /// Iterate over all records in slot order.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.slot_count() as usize).map(move |i| {
            let (off, len) = self.slot_entry(i);
            &self.buf[off..off + len]
        })
    }

    /// Direct access to the record area of non-slotted pages (allocation
    /// maps, boot page). Ends before the torn-write trailer so map/boot
    /// data can never clobber (or be clobbered by) the trailer stamp.
    pub fn body(&self) -> &[u8] {
        &self.buf[HEADER_SIZE..OFF_TRAILER]
    }

    /// Mutable access to the record area of non-slotted pages.
    pub fn body_mut(&mut self) -> &mut [u8] {
        &mut self.buf[HEADER_SIZE..OFF_TRAILER]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Page {
        /// Set page flags.
        fn set_flags(&mut self, f: u16) {
            write_u16_at(&mut self.buf[..], OFF_FLAGS, f);
        }
    }

    fn page() -> Page {
        Page::formatted(PageId(9), ObjectId(5), PageType::BTreeLeaf)
    }

    #[test]
    fn format_sets_identity() {
        let p = page();
        assert_eq!(p.page_id(), PageId(9));
        assert_eq!(p.object_id(), ObjectId(5));
        assert_eq!(p.page_type(), PageType::BTreeLeaf);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.page_lsn(), Lsn::NULL);
        assert_eq!(p.next_page(), PageId::INVALID);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_SIZE - TRAILER_SIZE);
    }

    #[test]
    fn insert_read_delete_roundtrip() {
        let mut p = page();
        p.insert_record(0, b"bbb").unwrap();
        p.insert_record(0, b"aaaa").unwrap();
        p.insert_record(2, b"c").unwrap();
        assert_eq!(p.record(0).unwrap(), b"aaaa");
        assert_eq!(p.record(1).unwrap(), b"bbb");
        assert_eq!(p.record(2).unwrap(), b"c");
        let old = p.delete_record(1).unwrap();
        assert_eq!(old, b"bbb");
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.record(1).unwrap(), b"c");
    }

    #[test]
    fn update_in_place_shrink_grow() {
        let mut p = page();
        p.insert_record(0, b"hello").unwrap();
        p.insert_record(1, b"world").unwrap();
        assert_eq!(p.update_record(0, b"HELLO").unwrap(), b"hello");
        assert_eq!(p.record(0).unwrap(), b"HELLO");
        assert_eq!(p.update_record(0, b"hi").unwrap(), b"HELLO");
        assert_eq!(p.record(0).unwrap(), b"hi");
        assert_eq!(p.update_record(0, b"a-much-longer-record").unwrap(), b"hi");
        assert_eq!(p.record(0).unwrap(), b"a-much-longer-record");
        assert_eq!(p.record(1).unwrap(), b"world");
    }

    #[test]
    fn fills_up_and_compacts() {
        let mut p = page();
        let rec = vec![7u8; 100];
        let mut n = 0;
        while p.can_insert(rec.len()) {
            p.insert_record(n, &rec).unwrap();
            n += 1;
        }
        assert!(n >= 75, "expected ~78 records, got {n}");
        assert!(p.insert_record(0, &rec).is_err());
        // Delete every other record, then a larger record must still fit via
        // compaction.
        let mut i = 0;
        while i < p.slot_count() as usize {
            p.delete_record(i).unwrap();
            i += 1; // skip one (records shifted down)
        }
        let big = vec![9u8; 3000];
        assert!(p.can_insert(big.len()));
        p.insert_record(0, &big).unwrap();
        assert_eq!(p.record(0).unwrap(), &big[..]);
    }

    #[test]
    fn record_too_large_reported() {
        let mut p = page();
        let huge = vec![0u8; PAGE_SIZE];
        match p.insert_record(0, &huge) {
            Err(Error::RecordTooLarge { .. }) => {}
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn image_restore_roundtrip() {
        let mut p = page();
        p.insert_record(0, b"data").unwrap();
        p.set_page_lsn(Lsn(777));
        let img = *p.image();
        let mut q = Page::zeroed();
        q.restore_image(&img);
        assert_eq!(q.record(0).unwrap(), b"data");
        assert_eq!(q.page_lsn(), Lsn(777));
        assert_eq!(q.page_id(), PageId(9));
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut p = page();
        p.insert_record(0, b"payload").unwrap();
        p.stamp_checksum();
        p.verify_checksum().unwrap();
        // flip a byte in the record area
        let mut img = *p.image();
        img[HEADER_SIZE + 2] ^= 0xFF;
        let q = Page::from_image(&img).unwrap();
        assert!(q.verify_checksum().is_err());
        // all-zero page passes (never written)
        Page::zeroed().verify_checksum().unwrap();
    }

    #[test]
    fn header_fields_roundtrip() {
        let mut p = page();
        p.set_page_lsn(Lsn(123));
        p.set_last_fpi_lsn(Lsn(99));
        p.set_next_page(PageId(4));
        p.set_prev_page(PageId(3));
        p.set_level(2);
        p.set_flags(0xA5);
        assert_eq!(p.page_lsn(), Lsn(123));
        assert_eq!(p.last_fpi_lsn(), Lsn(99));
        assert_eq!(p.next_page(), PageId(4));
        assert_eq!(p.prev_page(), PageId(3));
        assert_eq!(p.level(), 2);
        assert_eq!(p.flags(), 0xA5);
    }

    #[test]
    fn page_type_decode_rejects_junk() {
        assert!(PageType::from_u16(77).is_err());
        assert_eq!(PageType::from_u16(3).unwrap(), PageType::BTreeLeaf);
    }
}
