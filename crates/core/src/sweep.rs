//! The device sweep's per-segment pass, and the memo that lets a sweep skip
//! it when nothing it reads has changed.
//!
//! The pass proves four things: the mapping tables are consistent (a walk
//! of the forward tables and of the reverse table, which reaches only as
//! far as the highest DSN ever mapped), the allocator tiles every rank (a
//! walk of each rank's free runs and bitmap words), a rank the backend
//! holds in MPSM maps nothing (MPSM loses data), and every other rank's
//! mapped segments are allocated (those two read each rank's stride of the
//! reverse table, one step a segment, up to the table's end: a fresh
//! device's first pass reads none). Its verdict is a function of
//! the tables, the allocator and the set of ranks in MPSM, and of nothing
//! else. Both structures carry a generation that every `&mut self` entry
//! point moves, so (tables generation, allocator generation, exact MPSM
//! set) names that input exactly: when it equals the key of the last sweep
//! that passed as a whole, the pass would find what it found then —
//! nothing.

use std::cell::Cell;

use dtl_dram::PowerState;

use crate::addr::SegmentLocation;
use crate::alloc::SegmentAllocator;
use crate::backend::MemoryBackend;
use crate::error::DtlError;
use crate::tables::MappingTables;

/// Everything the per-segment pass's verdict depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SweepKey {
    tables: u64,
    alloc: u64,
    /// Bit `channel * ranks_per_channel + rank` set: the backend holds that
    /// rank in MPSM.
    mpsm: u128,
}

impl SweepKey {
    /// The key of the current state, or `None` for a geometry with more
    /// ranks than the bitset has bits: such a device sweeps in full.
    fn of<B: MemoryBackend>(
        backend: &B,
        tables: &MappingTables,
        alloc: &SegmentAllocator,
    ) -> Option<SweepKey> {
        let geo = alloc.geometry();
        let ranks = u64::from(geo.channels) * u64::from(geo.ranks_per_channel);
        if ranks > u64::from(u128::BITS) {
            return None;
        }
        let mut mpsm = 0u128;
        for channel in 0..geo.channels {
            for rank in 0..geo.ranks_per_channel {
                if backend.rank_state(channel, rank) == PowerState::Mpsm {
                    mpsm |= 1 << (channel * geo.ranks_per_channel + rank);
                }
            }
        }
        Some(SweepKey { tables: tables.generation(), alloc: alloc.generation(), mpsm })
    }
}

#[cfg(test)]
thread_local! {
    /// Per-segment passes [`CleanSweep::check`] has run on this thread, not
    /// counting the ones debug builds run behind a remembered key.
    pub(crate) static FULL_PASSES: Cell<u64> = const { Cell::new(0) };
}

/// The key of the device's last sweep that passed as a whole.
#[derive(Debug, Default)]
pub(crate) struct CleanSweep(Cell<Option<SweepKey>>);

impl CleanSweep {
    /// Runs the per-segment pass unless the state it reads is the one the
    /// last clean sweep saw, then `rest` — the checks that run on every
    /// call — and records the key only if both passed.
    ///
    /// In debug builds a skipped pass runs anyway, and a violation it finds
    /// panics: the memo hid it, so the generations are not exact.
    ///
    /// # Errors
    ///
    /// The pass's first violation, else `rest`'s.
    pub(crate) fn check<B: MemoryBackend>(
        &self,
        backend: &B,
        tables: &MappingTables,
        alloc: &SegmentAllocator,
        rest: impl FnOnce() -> Result<(), DtlError>,
    ) -> Result<(), DtlError> {
        let key = SweepKey::of(backend, tables, alloc);
        if key.is_some() && key == self.0.get() {
            #[cfg(debug_assertions)]
            if let Err(e) = per_segment(backend, tables, alloc) {
                panic!("the sweep memo skipped a violation: {e}");
            }
        } else {
            #[cfg(test)]
            FULL_PASSES.with(|n| n.set(n.get() + 1));
            per_segment(backend, tables, alloc)?;
        }
        rest()?;
        self.0.set(key);
        Ok(())
    }

    /// Forgets the last clean sweep, so the next one runs in full.
    pub(crate) fn forget(&self) {
        self.0.set(None);
    }
}

/// The per-segment pass: both structures' own consistency, then one read
/// of every rank's stride of the reverse table.
fn per_segment<B: MemoryBackend>(
    backend: &B,
    tables: &MappingTables,
    alloc: &SegmentAllocator,
) -> Result<(), DtlError> {
    tables.check_consistency()?;
    alloc.check_consistency()?;
    let geo = alloc.geometry();
    for channel in 0..geo.channels {
        for rank in 0..geo.ranks_per_channel {
            let mut mapped = tables.mapped_in_rank(channel, rank);
            if backend.rank_state(channel, rank) == PowerState::Mpsm {
                // MPSM loses data: the rank must map nothing.
                if let Some((within, hsn)) = mapped.next() {
                    let loc = SegmentLocation { channel, rank, within };
                    let dsn = geo.dsn(loc);
                    return Err(DtlError::Internal {
                        reason: format!("live segment {dsn} ({hsn}) in MPSM rank {loc:?}"),
                    });
                }
            } else if let Some(within) =
                alloc.first_unallocated(channel, rank, mapped.map(|(within, _)| within))
            {
                let dsn = geo.dsn(SegmentLocation { channel, rank, within });
                return Err(DtlError::Internal {
                    reason: format!("mapped segment {dsn} not marked allocated"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{HostId, SegmentGeometry};
    use crate::backend::AnalyticBackend;
    use crate::config::DtlConfig;
    use crate::device::DtlDevice;
    use crate::tables::SLOTS_READ;
    use dtl_dram::Picos;

    fn key(channels: u32, ranks_per_channel: u32) -> Option<SweepKey> {
        let geo = SegmentGeometry { channels, ranks_per_channel, segs_per_rank: 4 };
        let backend = AnalyticBackend::new(geo, 4096, dtl_dram::PowerParams::ddr4_128gb_dimm());
        SweepKey::of(&backend, &MappingTables::new(4, geo), &SegmentAllocator::new(geo))
    }

    #[test]
    fn a_geometry_past_the_bitset_is_never_remembered() {
        assert!(key(2, 64).is_some());
        assert_eq!(key(2, 65), None);
    }

    // --- the sweep's work, counted ----------------------------------------

    fn full_passes() -> u64 {
        FULL_PASSES.with(Cell::get)
    }

    fn slots_read_by(sweep: impl FnOnce()) -> u64 {
        SLOTS_READ.with(|n| n.set(0));
        sweep();
        SLOTS_READ.with(Cell::get)
    }

    #[test]
    fn a_second_sweep_of_an_unchanged_device_runs_no_full_pass() {
        let cfg = DtlConfig::tiny();
        let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
        dev.register_host(HostId(0)).unwrap();
        dev.alloc_vm(HostId(0), cfg.au_bytes, Picos::ZERO).unwrap();
        let before = full_passes();
        dev.check_invariants().unwrap();
        assert_eq!(full_passes(), before + 1, "the first sweep runs the pass");
        dev.check_invariants().unwrap();
        dev.check_invariants().unwrap();
        assert_eq!(full_passes(), before + 1, "an unchanged device is not swept again");
        dev.alloc_vm(HostId(0), cfg.au_bytes, Picos::from_us(1)).unwrap();
        dev.check_invariants().unwrap();
        assert_eq!(full_passes(), before + 2, "a changed one is");
    }

    #[test]
    fn a_fresh_paper_device_s_first_sweep_reads_no_reverse_slot() {
        let cfg = DtlConfig::paper();
        // The Figure 12 node: 4 channels x 8 ranks of 12 GiB in 2 MiB segments.
        let mut dev = DtlDevice::with_analytic_geometry(cfg, 4, 8, 6144);
        assert_eq!(slots_read_by(|| dev.check_invariants().unwrap()), 0);
        dev.register_host(HostId(0)).unwrap();
        dev.alloc_vm(HostId(0), cfg.au_bytes, Picos::ZERO).unwrap();
        assert_eq!(cfg.segments_per_au(), 1024);
        // Without the bound the pass reads every rank's whole stride:
        // 196 608 slots.
        let read = slots_read_by(|| dev.check_invariants().unwrap());
        assert!((1..=1024).contains(&read), "one AU's sweep read {read} slots");
    }
}
