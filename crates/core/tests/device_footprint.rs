//! The heap a fresh paper-geometry device holds, counted by a global
//! allocator: what the device costs before it holds anything must not
//! scale with its capacity. Per segment, the mapping tables' reverse table
//! and the migration engine's endpoint index allocate nothing at build time
//! (each grows to the highest DSN it is handed), and the allocator keeps
//! each rank's free FIFO as runs (one for a fresh rank), so the fixed cost
//! is per rank and per structure: the allocator's bitmaps (one bit a
//! segment, 24 KiB) and the SMC are the largest. A regression fails here by
//! count, not by stopwatch.
//!
//! One test in its own binary, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use dtl_core::{DtlConfig, DtlDevice};

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// [`System`], counting the bytes it holds out.
struct Counting;

// SAFETY: every method forwards its caller's arguments unchanged to the
// same method of `System`, so `System`'s contract is the caller's; the
// counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`'s, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_fresh_paper_device_holds_under_128_kib_of_heap() {
    let config = DtlConfig::paper();
    // The Figure 12 node: 4 channels x 8 ranks of 12 GiB in 2 MiB segments.
    let segs_per_rank = (12 << 30) / config.segment_bytes;
    assert_eq!(segs_per_rank, 6144);
    let before = LIVE.load(Ordering::Relaxed);
    let device = DtlDevice::with_analytic_geometry(config, 4, 8, segs_per_rank);
    let grown = LIVE.load(Ordering::Relaxed) - before;
    device.check_invariants().unwrap();
    // 73 232 bytes; 269 840 while the endpoint index held a byte a segment.
    assert!(grown < 128 << 10, "a fresh paper device holds {grown} bytes of heap");
}
