//! The heap a rack-scale simulation holds per memory node, counted by a
//! global allocator. A pool run builds many devices in one process, so the
//! bytes each node holds before it serves anything bound how many nodes one
//! run can hold. Three set-ups are counted in turn, each as the growth of
//! the live heap across its construction:
//!
//! * a 4-device paper `MemoryPool` (4 channels x 8 ranks x 6 144 segments a
//!   device), fresh;
//! * one paper `fabric_load` cell: 8 paper devices behind a dual-switch
//!   `CxlFabric`, 4 hosts registered and their 8 one-AU VMs admitted;
//! * one `vm_campaign` host device (paper parameters, 512 MiB segments),
//!   its host registered.
//!
//! Each budget sits between what the set-up holds now and what it held
//! while the migration engine's endpoint index was allocated at a byte a
//! segment in `MigrationEngine::new`; both numbers are written beside it. A
//! regression fails here by count, not by stopwatch.
//!
//! One test in its own binary, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use dtl_core::{DtlDevice, HostId};
use dtl_dram::Picos;
use dtl_fabric::CxlFabric;
use dtl_pool::{MemoryPool, PoolConfig};
use dtl_sim::{FabricRunConfig, VmCampaignConfig};

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

/// The live heap `build`'s result holds, in bytes.
fn held_by<T>(build: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.load(Ordering::Relaxed);
    let built = build();
    (built, LIVE.load(Ordering::Relaxed) - before)
}

#[test]
fn rack_scale_set_ups_hold_their_heap_budgets() {
    // A 4-device paper pool, fresh.
    let (pool, grown) = held_by(|| MemoryPool::analytic(PoolConfig::paper(4)).unwrap());
    drop(pool);
    // 306 664 bytes; 1 093 096 with the index allocated up front.
    assert!(grown < 512 << 10, "a fresh 4-device paper pool holds {grown} bytes of heap");

    // One paper fabric_load cell, built as `run_fabric_cell` builds it.
    let cell = FabricRunConfig::paper(1);
    let (pool, grown) = held_by(|| {
        let pool_cfg = cell.pool_config();
        let fabric = CxlFabric::new(cell.topology(), pool_cfg.link, pool_cfg.retry).unwrap();
        let mut pool = MemoryPool::analytic_with_interconnect(pool_cfg, Box::new(fabric)).unwrap();
        for h in 0..cell.hosts {
            pool.register_host(HostId(h)).unwrap();
        }
        let au = pool.config().dtl.au_bytes;
        for _ in 0..cell.vms_per_host {
            for h in 0..cell.hosts {
                pool.alloc_vm(HostId(h), au, Picos::ZERO).unwrap();
            }
        }
        pool
    });
    assert_eq!(pool.vms(), 8);
    drop(pool);
    // 755 856 bytes; 2 328 720 with the index allocated up front.
    assert!(grown < 1 << 20, "a paper fabric_load cell holds {grown} bytes of heap");

    // One vm_campaign host device, built as its campaign builds it.
    let campaign = VmCampaignConfig::paper(1);
    let geo = campaign.geometry();
    let (dev, grown) = held_by(|| {
        let mut dev = DtlDevice::with_analytic_geometry(
            campaign.dtl_config(),
            geo.channels,
            geo.ranks_per_channel,
            geo.segs_per_rank,
        );
        dev.register_host(HostId(0)).unwrap();
        dev
    });
    drop(dev);
    // 49 328 bytes; 50 096 with the index allocated up front (its 768
    // segments of 512 MiB cost little either way).
    assert!(grown < 49_664, "a vm_campaign host device holds {grown} bytes of heap");
}
