//! The benchmark's global allocator: [`bt_serve::CountingAlloc`] while
//! counting is switched on (the traced serve run), the plain system
//! allocator otherwise, so untraced runs pay one relaxed load per
//! allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use bt_serve::CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Switches allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Delegates to [`CountingAlloc`] or [`System`] per the process switch.
#[derive(Debug, Default)]
pub struct SwitchAlloc;

// SAFETY: every call delegates verbatim to `CountingAlloc` (which itself
// delegates to `System`) or to `System`. Both route to the same system
// allocator, so a block allocated under one setting of the switch may be
// freed or reallocated under the other.
unsafe impl GlobalAlloc for SwitchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}
