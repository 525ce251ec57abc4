// Fixture: private global allocators.
// Expected: exactly 3 `one-allocator` findings (lines 10, 20, 27) when
// linted anywhere outside crates/common; none inside it.

use std::alloc::{self, Layout, System};

struct Counting;

// SAFETY: pass-through to `System`.
unsafe impl alloc::GlobalAlloc for Counting {
    // SAFETY: delegates with the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }
    // SAFETY: delegates with the caller's arguments unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
unsafe impl<T: Sync> std::alloc::GlobalAlloc for Wrapper<T> {}

// A bound, a mention in a string, and "alloc::GlobalAlloc for X" in a comment
// are not implementations.
fn takes<A: alloc::GlobalAlloc>(_a: &A) -> &'static str {
    "unsafe impl alloc::GlobalAlloc for Nobody"
}
#[cfg(test)] mod tests { unsafe impl alloc::GlobalAlloc /* yes, here too */ for super::Hidden {} }
