//! Pages and page storage for the `rewind` engine.
//!
//! This crate owns the on-"disk" representation layer:
//!
//! * [`Page`] — the 8 KiB slotted page, with the header fields the paper's
//!   mechanism relies on: `pageLSN` (§2.1) and `lastFpiLSN` (the full-page-
//!   image chain anchor, §6.1),
//! * [`alloc`] — the allocation-map page layout with *allocated* and
//!   *ever-allocated* bits (the latter lets first allocations skip preformat
//!   logging, §4.2),
//! * [`FileManager`] — the one media trait: random page I/O with accounting,
//!   scalar (`read_page`/`write_page`) and batched (`read_pages`/
//!   `write_pages`, one device op per contiguous run), with in-memory and
//!   on-disk implementations; the background [`WritebackPool`] writes
//!   batches through it (see the [`io`] module docs for the batching cost
//!   model),
//! * [`PageImage`] — an immutable, `Arc`-shared page image: the zero-copy
//!   currency of the snapshot read path,
//! * [`SideFile`] — the NTFS-sparse-file substitute backing database
//!   snapshots (§2.2, §5.3), one locked map of [`PageImage`]s.

pub mod alloc;
pub mod fault;
pub mod file;
pub mod image;
pub mod io;
pub mod page;
pub mod side;

pub use fault::FaultInjector;
pub use file::{DiskFileManager, FileManager, MemFileManager};
pub use image::PageImage;
pub use io::{contiguous_runs, contiguous_runs_by, WritebackPool};
pub use page::{Page, PageType, HEADER_SIZE, PAGE_SIZE};
pub use side::SideFile;

// The shared counting allocator's "large allocation" threshold is sized to
// the page: every 8 KiB page clone must land in its large-alloc counter.
// tidy: allow(no-panic) -- a const item: a false assertion fails the build, never a run
const _: () = assert!(PAGE_SIZE == rewind_common::testalloc::LARGE_ALLOC_MIN);
