//! The heap allocations one `vm_campaign` host replay makes, counted by a
//! global allocator. A fleet host serves no accesses: every event is an
//! admission, a release with the power-down it lets through, a drain's
//! completion or a capacity wake, so what the replay allocates per event
//! is dtl-core's AU lifecycle cost, and it bounds how many nodes a
//! rack-scale run can step. The host is host 0 of the paper fleet at seed
//! 1 over the two weeks of `results/golden/vm_campaign_fleet.json`, run
//! through `run_campaign` itself with one host and one job, so the count
//! is of the real replay path and also covers the few hundred allocations
//! of the schedule's synthesis, the device's construction and the report.
//!
//! The budget sits between what the replay makes now (a released AU's
//! table is the next carve's, a carve's AU-id list is sized once) and what
//! it made when every carve allocated one table per AU; both numbers are
//! written beside it. A regression fails here by count, not by stopwatch.
//!
//! One test in its own binary, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dtl_sim::{run_campaign, Heartbeat, VmCampaignConfig};

/// Allocations (zeroed ones included) made through [`Counting`].
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Reallocations made through [`Counting`].
static REALLOCS: AtomicU64 = AtomicU64::new(0);

/// [`System`], counting the calls that ask it for memory.
struct Counting;

// SAFETY: every method forwards its caller's arguments unchanged to the
// same method of `System`, so `System`'s contract is the caller's; the
// counters are statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`'s, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and reallocations so far.
fn counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), REALLOCS.load(Ordering::Relaxed))
}

#[test]
fn a_fleet_host_replay_stays_inside_its_allocation_budget() {
    let cfg =
        VmCampaignConfig { hosts: 1, duration_min: 14 * 24 * 60, ..VmCampaignConfig::paper(1) };
    let heartbeat = Heartbeat::disabled();

    let before = counts();
    let (fleet, _) = run_campaign(&cfg, 1, None, &heartbeat).unwrap();
    let (allocs, reallocs) = (counts().0 - before.0, counts().1 - before.1);

    let events = fleet.events_processed;
    // The replay the counts are of: the golden's host 0.
    assert_eq!((events, fleet.vms_placed, fleet.segments_drained), (14_473, 7_315, 40_316));
    // 57 058 allocations (3.94 an event) and 11 362 reallocations; 102 150
    // (7.06 an event) and 14 583 while every carve allocated one table per
    // AU and grew its AU-id list one AU at a time.
    assert!(
        allocs < 64_000,
        "one fleet host replay made {allocs} allocations over {events} events"
    );
    assert!(reallocs < 12_500, "one fleet host replay made {reallocs} reallocations");
}
