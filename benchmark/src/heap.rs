//! Peak heap accounting: the system allocator, counting the live bytes
//! of large allocations.
//!
//! Only blocks of at least [`LARGE`] bytes are counted. They hold nearly
//! all of the memory (machine memory, trace buffers, record batches,
//! cache tables) and are allocated rarely, so the shared counters are
//! touched rarely; counting every small allocation made the two-thread
//! `regen` workload measurably slower and noisier through contention on
//! them. The peak can be reset to the current live size, so
//! `peak_heap_mb` covers the timed iterations and not the set-up before
//! them. Unlike the kernel's resident-set high-water mark, which moves
//! with page reuse and file readahead from run to run, this count
//! repeats exactly for a deterministic single-threaded workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Smallest allocation that is counted.
pub const LARGE: usize = 64 << 10;

/// The counting allocator; installed as the global allocator in
/// `main.rs`.
pub struct Counting;

// Statistics only: these publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    if size >= LARGE {
        let now = LIVE.fetch_add(size, Relaxed) + size;
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrank(size: usize) {
    if size >= LARGE {
        LIVE.fetch_sub(size, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the counters
// are plain atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Restarts the high-water mark at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Most counted bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}
