//! A counting global allocator for zero-copy / zero-alloc proofs.
//!
//! Several proofs in this workspace assert allocation behaviour the hard
//! way — "a warm side-file hit allocates nothing", "a header-only chain
//! walk allocates nothing per record", "clones-per-hit is exactly 0" — by
//! registering a counting allocator as the binary's `#[global_allocator]`
//! and reading counter deltas around the measured section. The counting
//! logic lives here exactly once so the proofs can never drift apart in
//! what they measure.
//!
//! The type is inert unless a binary opts in:
//!
//! ```ignore
//! use rewind_common::testalloc::{thread_allocations, CountingAllocator};
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator;
//! ```
//!
//! # Counted per thread
//!
//! `cargo test` runs the tests of one binary on parallel threads, so a
//! process-global counter read around a measured section also counts
//! whatever a sibling test allocates meanwhile. The proofs therefore read
//! [`thread_allocations`] / [`thread_large_allocations`]: `const`-initialised
//! `thread_local!` cells bumped from `alloc`/`realloc` — no allocation, no
//! lock, no destructor — which see only the calling thread. Callers
//! measure deltas, so absolute values never matter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations at or above this size count as "large" — sized to the
/// engine's 8 KiB page, so every page clone lands in
/// [`thread_large_allocations`]. (`rewind-pagestore` asserts at compile time that
/// its `PAGE_SIZE` matches.)
pub const LARGE_ALLOC_MIN: usize = 8192;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_LARGE_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation of `size` bytes against the calling thread.
/// `try_with`: an allocation made while the
/// thread's locals are being torn down is simply not counted.
fn count(size: usize) {
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    if size >= LARGE_ALLOC_MIN {
        let _ = THREAD_LARGE_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    }
}

/// Forwards to the system allocator, counting every allocation (and
/// page-sized ones separately). Frees are not counted — the proofs are
/// about allocation pressure, and `realloc` counts as one allocation.
pub struct CountingAllocator;

// SAFETY: pure pass-through to `System` plus counting that neither allocates
// nor locks — every GlobalAlloc contract obligation is discharged by the
// system allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: delegates to `System.alloc` with the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: delegates to `System.dealloc`; `ptr`/`layout` come from `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: delegates to `System.realloc` with the caller's arguments unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by the calling thread (meaningful as deltas).
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Allocations of [`LARGE_ALLOC_MIN`] bytes or more made by the calling
/// thread — page clones, in this engine (meaningful as deltas).
pub fn thread_large_allocations() -> u64 {
    THREAD_LARGE_ALLOCATIONS.with(Cell::get)
}
