//! The device sweep's per-segment pass, and the memo that lets a sweep skip
//! it when nothing it reads has changed.
//!
//! The pass proves four things, each a walk over every segment or slot:
//! the mapping tables are consistent, the allocator tiles every rank, a
//! rank the backend holds in MPSM maps nothing (MPSM loses data), and every
//! other rank's mapped segments are allocated. Its verdict is a function of
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
    use crate::addr::SegmentGeometry;
    use crate::backend::AnalyticBackend;

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
}
