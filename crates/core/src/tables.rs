//! The DTL's mapping metadata (paper §3.2, §4.2): host base address table,
//! per-host AU tables, the segment mapping table (HSN→DSN) and the reverse
//! mapping table (DSN→HSN).
//!
//! In hardware the first two levels live in on-chip SRAM and the segment
//! mapping table in reserved DRAM; the functional simulator keeps them all
//! in memory and the latency model charges the appropriate access costs.

use serde::{Deserialize, Serialize};

use crate::addr::{AuId, Dsn, HostId, Hsn, SegmentGeometry, SegmentLocation};
use crate::error::DtlError;

/// One allocation unit's segment mapping: AU offset → DSN.
type AuTable = Vec<Dsn>;

/// One host's AU base address table, indexed by [`AuId`] (`None` = the id
/// is not in use). The device hands AU ids out densely, so the vector is
/// never longer than the AUs the device can hold.
type HostTable = Vec<Option<AuTable>>;

/// All mapping state of the device, laid out flat as the paper sizes it
/// (Table 5): the forward walk is two index operations, and the reverse
/// mapping table has exactly one entry per device segment.
///
/// Ids are bounded by the device: a DSN at or past the geometry's segment
/// count, or an AU id at or past the AUs the device can hold, is reported
/// as [`DtlError::Internal`] by every mutating call and as "unmapped" by
/// every lookup — no table ever grows past the device to reach one.
///
/// # Examples
///
/// ```
/// use dtl_core::{AuId, Dsn, HostId, Hsn, MappingTables, SegmentGeometry};
///
/// let geo = SegmentGeometry { channels: 2, ranks_per_channel: 2, segs_per_rank: 4 };
/// let mut t = MappingTables::new(4, geo);
/// t.register_host(HostId(0));
/// t.create_au(HostId(0), AuId(0), vec![Dsn(0), Dsn(1), Dsn(2), Dsn(3)])?;
/// let hsn = Hsn { host: HostId(0), au: AuId(0), au_offset: 2 };
/// assert_eq!(t.translate(hsn), Some(Dsn(2)));
/// assert_eq!(t.reverse(Dsn(2)), Some(hsn));
/// # Ok::<(), dtl_core::DtlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingTables {
    segments_per_au: u64,
    geo: SegmentGeometry,
    /// Host base address table, indexed by [`HostId`] (`None` =
    /// unregistered).
    hosts: Vec<Option<HostTable>>,
    /// Reverse mapping table, indexed by DSN: `Hsn::pack() + 1` of the
    /// owner, 0 for an unmapped segment. Reaches only as far as the highest
    /// DSN ever written (at most `geo.total_segments()` entries); every
    /// segment past its end is unmapped. Building a device therefore
    /// allocates nothing per segment here — even a zeroed allocation of the
    /// full table measurably slowed repeated device construction.
    reverse: Vec<u64>,
    /// Non-zero entries of `reverse`, kept in step by every mutation.
    mapped: u64,
    /// Moves once at the top of every `&mut self` entry point, so an
    /// unchanged value means unchanged tables (see
    /// [`MappingTables::generation`]).
    generation: u64,
}

#[cfg(test)]
thread_local! {
    /// Reverse-table slots [`MappingTables::mapped_in_rank`] has read on
    /// this thread: the sweep's work, counted rather than timed.
    pub(crate) static SLOTS_READ: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Decodes one reverse-table entry.
#[inline]
fn owner(entry: u64) -> Option<Hsn> {
    entry.checked_sub(1).map(Hsn::unpack)
}

impl MappingTables {
    /// Builds empty tables for AUs of `segments_per_au` segments on a
    /// device of geometry `geo`.
    ///
    /// # Panics
    ///
    /// Panics if `segments_per_au` is zero or exceeds the 2²⁰ offsets an
    /// [`Hsn`] key can hold, or if the device holds 2²⁸ AUs or more, or
    /// more segments than can be indexed
    /// ([`crate::DtlConfig::validate_geometry`] reports the same limits as
    /// an error).
    pub fn new(segments_per_au: u64, geo: SegmentGeometry) -> Self {
        assert!(segments_per_au > 0, "an AU must hold at least one segment");
        assert!(
            segments_per_au <= 1 << Hsn::OFFSET_BITS,
            "an AU of {segments_per_au} segments overflows the AU offset field"
        );
        assert!(
            usize::try_from(geo.total_segments()).is_ok(),
            "the device's segments do not fit a table index"
        );
        let max_aus = geo.total_segments() / segments_per_au;
        // Strictly below: the largest packed key plus one must not wrap.
        assert!(max_aus < 1 << Hsn::AU_BITS, "{max_aus} AUs overflow the AU id field");
        MappingTables {
            segments_per_au,
            geo,
            hosts: Vec::new(),
            reverse: Vec::new(),
            mapped: 0,
            generation: 0,
        }
    }

    /// A counter that every `&mut self` entry point moves once, before it
    /// looks at its arguments — failed calls included. Equal values read
    /// from the same tables mean nothing was changed in between, which is
    /// what lets the device sweep skip re-proving them. Private helpers run
    /// only inside those entry points and do not move it again.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn bump(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// Registers a host (idempotent).
    pub fn register_host(&mut self, host: HostId) {
        self.bump();
        let i = usize::from(host.0);
        if i >= self.hosts.len() {
            self.hosts.resize(i + 1, None);
        }
        self.hosts[i].get_or_insert_with(Vec::new);
    }

    fn host(&self, host: HostId) -> Option<&HostTable> {
        self.hosts.get(usize::from(host.0))?.as_ref()
    }

    fn host_mut(&mut self, host: HostId) -> Option<&mut HostTable> {
        self.hosts.get_mut(usize::from(host.0))?.as_mut()
    }

    /// Whether a host is registered.
    pub fn has_host(&self, host: HostId) -> bool {
        self.host(host).is_some()
    }

    /// Number of AUs currently mapped for `host` (0 if unknown).
    pub fn au_count(&self, host: HostId) -> usize {
        self.host(host).map_or(0, |aus| aus.iter().flatten().count())
    }

    /// The reverse-table entry of `dsn`, extending the table to reach it, or
    /// [`DtlError::Internal`] for a DSN beyond the device.
    fn entry_mut(&mut self, dsn: Dsn) -> Result<&mut u64, DtlError> {
        let segments = self.geo.total_segments();
        if dsn.0 >= segments {
            return Err(DtlError::Internal {
                reason: format!("{dsn} beyond the device's {segments} segments"),
            });
        }
        let i = dsn.0 as usize;
        if i >= self.reverse.len() {
            self.reverse.resize(i + 1, 0);
        }
        Ok(&mut self.reverse[i])
    }

    /// Installs a new AU for `host` backed by exactly `segments_per_au`
    /// DSNs.
    ///
    /// # Errors
    ///
    /// * [`DtlError::UnknownHost`] if the host is unregistered;
    /// * [`DtlError::Internal`] if the DSN count is wrong, the AU already
    ///   exists or its id is beyond the AUs the device can hold, or a DSN
    ///   is already mapped, listed twice, or beyond the device.
    pub fn create_au(&mut self, host: HostId, au: AuId, dsns: Vec<Dsn>) -> Result<(), DtlError> {
        self.bump();
        if dsns.len() as u64 != self.segments_per_au {
            return Err(DtlError::Internal {
                reason: format!("AU needs {} segments, got {}", self.segments_per_au, dsns.len()),
            });
        }
        for (off, d) in dsns.iter().enumerate() {
            if *self.entry_mut(*d)? != 0 {
                return Err(DtlError::Internal {
                    reason: format!("DSN {d} already mapped (offset {off})"),
                });
            }
        }
        // AU ids a host may use: as many as the device can hold AUs.
        let max_aus = self.geo.total_segments() / self.segments_per_au;
        let aus = self.host_mut(host).ok_or(DtlError::UnknownHost(host))?;
        if u64::from(au.0) >= max_aus {
            return Err(DtlError::Internal {
                reason: format!("{au} beyond the {max_aus} AUs the device can hold"),
            });
        }
        let slot = au.0 as usize;
        if aus.get(slot).is_some_and(Option::is_some) {
            return Err(DtlError::Internal { reason: format!("{host} already has {au}") });
        }
        for (off, d) in dsns.iter().enumerate() {
            let entry = &mut self.reverse[d.0 as usize];
            if *entry != 0 {
                // Free a moment ago, so this AU wrote it: the DSN is listed
                // twice. Take back what was written and refuse.
                for written in &dsns[..off] {
                    self.reverse[written.0 as usize] = 0;
                }
                return Err(DtlError::Internal {
                    reason: format!("DSN {d} listed twice (offset {off})"),
                });
            }
            *entry = Hsn { host, au, au_offset: off as u32 }.pack() + 1;
        }
        self.mapped += self.segments_per_au;
        let aus = self.host_mut(host).expect("checked above");
        if slot >= aus.len() {
            aus.resize(slot + 1, None);
        }
        aus[slot] = Some(dsns);
        Ok(())
    }

    /// Removes an AU, returning the DSNs it occupied.
    ///
    /// # Errors
    ///
    /// [`DtlError::UnknownHost`] / [`DtlError::UnknownAu`] when absent.
    pub fn remove_au(&mut self, host: HostId, au: AuId) -> Result<Vec<Dsn>, DtlError> {
        self.bump();
        let aus = self.host_mut(host).ok_or(DtlError::UnknownHost(host))?;
        let table = aus
            .get_mut(au.0 as usize)
            .and_then(Option::take)
            .ok_or(DtlError::UnknownAu { host, au })?;
        for d in &table {
            self.reverse[d.0 as usize] = 0;
        }
        self.mapped -= table.len() as u64;
        Ok(table)
    }

    /// The full three-level walk: HSN → DSN.
    pub fn translate(&self, hsn: Hsn) -> Option<Dsn> {
        self.host(hsn.host)?.get(hsn.au.0 as usize)?.as_ref()?.get(hsn.au_offset as usize).copied()
    }

    /// The reverse walk: DSN → HSN (None for unallocated segments and for
    /// DSNs beyond the device).
    pub fn reverse(&self, dsn: Dsn) -> Option<Hsn> {
        owner(*self.reverse.get(usize::try_from(dsn.0).ok()?)?)
    }

    /// Points `hsn` at a new DSN (after migration). Returns the old DSN.
    ///
    /// # Errors
    ///
    /// * [`DtlError::UnknownHost`] / [`DtlError::UnknownAu`] /
    ///   [`DtlError::Internal`] when the HSN is not currently mapped, or the
    ///   destination is occupied by another HSN or beyond the device.
    pub fn remap(&mut self, hsn: Hsn, new_dsn: Dsn) -> Result<Dsn, DtlError> {
        self.bump();
        if let Some(owner) = owner(*self.entry_mut(new_dsn)?) {
            if owner != hsn {
                return Err(DtlError::Internal {
                    reason: format!("remap target {new_dsn} already owned by {owner}"),
                });
            }
        }
        let aus = self.host_mut(hsn.host).ok_or(DtlError::UnknownHost(hsn.host))?;
        let table = aus
            .get_mut(hsn.au.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(DtlError::UnknownAu { host: hsn.host, au: hsn.au })?;
        let slot = table.get_mut(hsn.au_offset as usize).ok_or_else(|| DtlError::Internal {
            reason: format!("AU offset {} out of range", hsn.au_offset),
        })?;
        let old = std::mem::replace(slot, new_dsn);
        self.reverse[old.0 as usize] = 0;
        self.reverse[new_dsn.0 as usize] = hsn.pack() + 1;
        Ok(old)
    }

    /// Swaps the contents of two device segments in the mapping: whatever
    /// HSNs pointed at `a` and `b` now point at the other. Either side may
    /// be unallocated. Returns the HSNs that were affected.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] if either DSN is beyond the device, or a
    /// mapped HSN's forward entry is inconsistent with the reverse table
    /// (indicates a bug).
    pub fn swap(&mut self, a: Dsn, b: Dsn) -> Result<(Option<Hsn>, Option<Hsn>), DtlError> {
        self.bump();
        let ea = *self.entry_mut(a)?;
        let eb = *self.entry_mut(b)?;
        let (ha, hb) = (owner(ea), owner(eb));
        if a == b {
            return Ok((ha, ha));
        }
        if let Some(h) = ha {
            self.point(h, b)?;
        }
        if let Some(h) = hb {
            self.point(h, a)?;
        }
        // point() fixed forward; the reverse entries simply change places.
        self.reverse[a.0 as usize] = eb;
        self.reverse[b.0 as usize] = ea;
        Ok((ha, hb))
    }

    /// Updates only the forward table (internal helper for `swap`).
    fn point(&mut self, hsn: Hsn, dsn: Dsn) -> Result<(), DtlError> {
        let table = self
            .host_mut(hsn.host)
            .and_then(|aus| aus.get_mut(hsn.au.0 as usize)?.as_mut())
            .ok_or_else(|| DtlError::Internal {
                reason: format!("dangling reverse entry {hsn}"),
            })?;
        let slot = table.get_mut(hsn.au_offset as usize).ok_or_else(|| DtlError::Internal {
            reason: format!("AU offset {} out of range", hsn.au_offset),
        })?;
        *slot = dsn;
        Ok(())
    }

    /// Deliberately points the lowest-DSN mapped entry's forward slot at a
    /// different DSN **without updating the reverse table** — the exact
    /// shape of a missed-invalidation mapping bug. A mutation hook for
    /// checker self-tests; never called by production code. Returns the
    /// corrupted HSN, or `None` when nothing is mapped.
    #[doc(hidden)]
    pub fn corrupt_first_forward_slot(&mut self) -> Option<Hsn> {
        self.bump();
        let (dsn, hsn) = self.iter_mapped().next()?;
        // A neighbour inside the table, so later updates of the slot stay in range.
        let len = self.reverse.len() as u64;
        let other = Some(dsn.0 ^ 1).filter(|d| *d < len).or_else(|| dsn.0.checked_sub(1))?;
        self.point(hsn, Dsn(other)).ok()?;
        Some(hsn)
    }

    /// Iterates over all mapped (DSN, HSN) pairs in ascending DSN order.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (Dsn, Hsn)> + '_ {
        self.reverse.iter().enumerate().filter_map(|(i, e)| Some((Dsn(i as u64), owner(*e)?)))
    }

    /// The mapped segments of one rank as (within-rank slot, owner) pairs,
    /// ascending: a strided read of the rank's own reverse-table entries,
    /// not a filter over the whole device. The read stops at the reverse
    /// table's end, past which nothing is mapped: a rank wholly past it
    /// costs nothing, so a fresh device's ranks read no entry at all.
    /// Empty for a rank outside the geometry.
    pub(crate) fn mapped_in_rank(
        &self,
        channel: u32,
        rank: u32,
    ) -> impl Iterator<Item = (u64, Hsn)> + '_ {
        let geo = self.geo;
        let in_range = channel < geo.channels && rank < geo.ranks_per_channel;
        let slots = if in_range {
            // Slot `within` is DSN `base + within * channels`, so the slots
            // inside the table are the first ⌈(len − base) / channels⌉.
            let base = geo.dsn(SegmentLocation { channel, rank, within: 0 }).0;
            let inside = (self.reverse.len() as u64).saturating_sub(base);
            geo.segs_per_rank.min(inside.div_ceil(u64::from(geo.channels)))
        } else {
            0
        };
        (0..slots).filter_map(move |within| {
            #[cfg(test)]
            SLOTS_READ.with(|n| n.set(n.get() + 1));
            let dsn = geo.dsn(SegmentLocation { channel, rank, within });
            Some((within, owner(*self.reverse.get(dsn.0 as usize)?)?))
        })
    }

    /// Number of mapped segments.
    pub fn mapped_segments(&self) -> u64 {
        self.mapped
    }

    /// Verifies forward/reverse consistency: one linear walk of every
    /// forward table, one of the reverse table; returns the number of
    /// mapped segments.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] describing the first inconsistency found: a
    /// forward slot whose reverse entry names another owner (or none, or
    /// lies beyond the device), or a reverse table holding more entries than
    /// the forward tables have slots, or either disagreeing with the
    /// maintained mapped count. Distinct slots that all read back from the
    /// reverse table occupy distinct entries, so equal counts make the two
    /// directions exact inverses.
    pub fn check_consistency(&self) -> Result<u64, DtlError> {
        let mut forward_count = 0u64;
        for (host, aus) in self.hosts.iter().enumerate() {
            let Some(aus) = aus else { continue };
            for (au, table) in aus.iter().enumerate() {
                let Some(table) = table else { continue };
                let base = Hsn { host: HostId(host as u16), au: AuId(au as u32), au_offset: 0 };
                for (off, dsn) in table.iter().enumerate() {
                    let hsn = Hsn { au_offset: off as u32, ..base };
                    if self.reverse.get(dsn.0 as usize) != Some(&(hsn.pack() + 1)) {
                        return Err(DtlError::Internal {
                            reason: format!(
                                "forward {hsn}->{dsn} but reverse says {:?}",
                                self.reverse(*dsn)
                            ),
                        });
                    }
                }
                forward_count += table.len() as u64;
            }
        }
        let reverse_count = self.reverse.iter().filter(|entry| **entry != 0).count() as u64;
        if reverse_count != self.mapped {
            return Err(DtlError::Internal {
                reason: format!(
                    "reverse holds {reverse_count} entries, mapped count is {}",
                    self.mapped
                ),
            });
        }
        if forward_count != reverse_count {
            return Err(DtlError::Internal {
                reason: format!("forward maps {forward_count} segments, reverse {reverse_count}"),
            });
        }
        Ok(forward_count)
    }
}

#[cfg(test)]
impl MappingTables {
    /// The maintained mapped count, for the device sweep's self-tests to
    /// corrupt.
    pub(crate) fn mapped_count_for_test(&mut self) -> &mut u64 {
        self.bump();
        &mut self.mapped
    }

    /// Where an AU's forward table is stored, to tell a reused buffer
    /// from a new one.
    pub(crate) fn au_table_ptr(&self, host: HostId, au: AuId) -> Option<*const Dsn> {
        Some(self.host(host)?.get(au.0 as usize)?.as_ref()?.as_ptr())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;

    /// 2 channels x 4 ranks x 16 slots = 128 segments, 32 AUs of 4.
    const GEO: SegmentGeometry =
        SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 };

    fn tables() -> MappingTables {
        let mut t = MappingTables::new(4, GEO);
        t.register_host(HostId(0));
        t.register_host(HostId(1));
        t.create_au(HostId(0), AuId(0), vec![Dsn(0), Dsn(1), Dsn(2), Dsn(3)]).unwrap();
        t.create_au(HostId(1), AuId(0), vec![Dsn(10), Dsn(11), Dsn(12), Dsn(13)]).unwrap();
        t
    }

    fn hsn(host: u16, au: u32, off: u32) -> Hsn {
        Hsn { host: HostId(host), au: AuId(au), au_offset: off }
    }

    #[test]
    fn translate_and_reverse_agree() {
        let t = tables();
        assert_eq!(t.translate(hsn(0, 0, 2)), Some(Dsn(2)));
        assert_eq!(t.reverse(Dsn(2)), Some(hsn(0, 0, 2)));
        assert_eq!(t.translate(hsn(0, 1, 0)), None);
        assert_eq!(t.reverse(Dsn(99)), None);
        t.check_consistency().unwrap();
        assert_eq!(t.mapped_segments(), 8);
    }

    #[test]
    fn create_au_validations() {
        let mut t = tables();
        // Wrong segment count.
        assert!(t.create_au(HostId(0), AuId(1), vec![Dsn(20)]).is_err());
        // Duplicate AU.
        assert!(t.create_au(HostId(0), AuId(0), vec![Dsn(20), Dsn(21), Dsn(22), Dsn(23)]).is_err());
        // DSN already mapped.
        assert!(t.create_au(HostId(0), AuId(1), vec![Dsn(10), Dsn(21), Dsn(22), Dsn(23)]).is_err());
        // Unknown host.
        assert!(t.create_au(HostId(9), AuId(0), vec![Dsn(20), Dsn(21), Dsn(22), Dsn(23)]).is_err());
    }

    #[test]
    fn remove_au_returns_segments() {
        let mut t = tables();
        let dsns = t.remove_au(HostId(0), AuId(0)).unwrap();
        assert_eq!(dsns, vec![Dsn(0), Dsn(1), Dsn(2), Dsn(3)]);
        assert_eq!(t.translate(hsn(0, 0, 0)), None);
        assert_eq!(t.reverse(Dsn(0)), None);
        assert!(t.remove_au(HostId(0), AuId(0)).is_err(), "double remove");
        t.check_consistency().unwrap();
    }

    #[test]
    fn remap_moves_a_segment() {
        let mut t = tables();
        let old = t.remap(hsn(0, 0, 1), Dsn(50)).unwrap();
        assert_eq!(old, Dsn(1));
        assert_eq!(t.translate(hsn(0, 0, 1)), Some(Dsn(50)));
        assert_eq!(t.reverse(Dsn(50)), Some(hsn(0, 0, 1)));
        assert_eq!(t.reverse(Dsn(1)), None);
        t.check_consistency().unwrap();
    }

    #[test]
    fn remap_to_occupied_target_rejected() {
        let mut t = tables();
        assert!(t.remap(hsn(0, 0, 1), Dsn(10)).is_err(), "owned by host 1");
    }

    #[test]
    fn swap_two_live_segments() {
        let mut t = tables();
        let (a, b) = t.swap(Dsn(0), Dsn(10)).unwrap();
        assert_eq!(a, Some(hsn(0, 0, 0)));
        assert_eq!(b, Some(hsn(1, 0, 0)));
        assert_eq!(t.translate(hsn(0, 0, 0)), Some(Dsn(10)));
        assert_eq!(t.translate(hsn(1, 0, 0)), Some(Dsn(0)));
        t.check_consistency().unwrap();
    }

    #[test]
    fn swap_live_with_free() {
        let mut t = tables();
        let (a, b) = t.swap(Dsn(0), Dsn(77)).unwrap();
        assert_eq!(a, Some(hsn(0, 0, 0)));
        assert_eq!(b, None);
        assert_eq!(t.translate(hsn(0, 0, 0)), Some(Dsn(77)));
        assert_eq!(t.reverse(Dsn(0)), None);
        t.check_consistency().unwrap();
    }

    #[test]
    fn swap_with_self_is_identity() {
        let mut t = tables();
        t.swap(Dsn(0), Dsn(0)).unwrap();
        assert_eq!(t.translate(hsn(0, 0, 0)), Some(Dsn(0)));
        t.check_consistency().unwrap();
    }

    #[test]
    fn swap_two_free_segments_is_noop() {
        let mut t = tables();
        let (a, b) = t.swap(Dsn(70), Dsn(71)).unwrap();
        assert_eq!((a, b), (None, None));
        t.check_consistency().unwrap();
    }

    #[test]
    fn ids_beyond_the_device_are_errors_not_growth() {
        let mut t = tables();
        let internal = |r: Result<(), DtlError>| matches!(r, Err(DtlError::Internal { .. }));
        // 128 segments, 32 AUs: DSN 128 and AU 32 are the first ones out.
        let far = vec![Dsn(20), Dsn(21), Dsn(22), Dsn(u64::MAX)];
        assert!(internal(t.create_au(HostId(0), AuId(1), far)));
        let edge = vec![Dsn(20), Dsn(21), Dsn(22), Dsn(128)];
        assert!(internal(t.create_au(HostId(0), AuId(1), edge)));
        let fits = || vec![Dsn(20), Dsn(21), Dsn(22), Dsn(127)];
        assert!(internal(t.create_au(HostId(0), AuId(32), fits())));
        assert!(internal(t.create_au(HostId(0), AuId(u32::MAX), fits())));
        assert!(internal(t.remap(hsn(0, 0, 1), Dsn(128)).map(drop)));
        assert!(internal(t.swap(Dsn(0), Dsn(128)).map(drop)));
        assert!(internal(t.swap(Dsn(1 << 40), Dsn(0)).map(drop)));
        // Lookups just miss.
        assert_eq!(t.reverse(Dsn(128)), None);
        assert_eq!(t.reverse(Dsn(u64::MAX)), None);
        assert_eq!(t.translate(hsn(0, u32::MAX, 0)), None);
        assert!(matches!(t.remove_au(HostId(0), AuId(u32::MAX)), Err(DtlError::UnknownAu { .. })));
        // Nothing above took effect, and the table never outgrew the device.
        assert_eq!(t.mapped_segments(), 8);
        assert!(t.reverse.len() <= 128);
        t.check_consistency().unwrap();
        t.create_au(HostId(0), AuId(31), fits()).unwrap();
        assert_eq!(t.reverse.len(), 128);
        t.check_consistency().unwrap();
    }

    #[test]
    fn a_dsn_listed_twice_is_refused_whole() {
        let mut t = tables();
        let err = t.create_au(HostId(0), AuId(1), vec![Dsn(20), Dsn(21), Dsn(20), Dsn(23)]);
        assert!(matches!(err, Err(DtlError::Internal { .. })));
        for d in 20..24 {
            assert_eq!(t.reverse(Dsn(d)), None, "nothing of the refused AU stays");
        }
        assert_eq!(t.mapped_segments(), 8);
        assert_eq!(t.au_count(HostId(0)), 1);
        t.check_consistency().unwrap();
    }

    #[test]
    fn iter_mapped_ascends_and_mapped_in_rank_reads_the_rank_stride() {
        let mut t = tables();
        t.remap(hsn(1, 0, 2), Dsn(100)).unwrap();
        t.swap(Dsn(0), Dsn(77)).unwrap();
        let all: Vec<(Dsn, Hsn)> = t.iter_mapped().collect();
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "ascending DSNs");
        assert_eq!(all.len() as u64, t.mapped_segments());
        let mut seen = 0;
        for channel in 0..GEO.channels + 1 {
            for rank in 0..GEO.ranks_per_channel + 1 {
                let expected: Vec<(u64, Hsn)> = all
                    .iter()
                    .map(|(d, h)| (GEO.location(*d), *h))
                    .filter(|(loc, _)| loc.channel == channel && loc.rank == rank)
                    .map(|(loc, h)| (loc.within, h))
                    .collect();
                let got: Vec<(u64, Hsn)> = t.mapped_in_rank(channel, rank).collect();
                assert_eq!(got, expected, "ch{channel}/rk{rank}");
                seen += got.len();
            }
        }
        assert_eq!(seen, all.len(), "every mapped segment is in exactly one rank");
    }

    #[test]
    fn mapped_in_rank_stops_at_the_reverse_table_s_end() {
        let mut t = tables();
        // The table ends at dsn 71 (channel 1, rank 2, slot 3): mid-stride.
        t.remap(hsn(1, 0, 1), Dsn(71)).unwrap();
        assert_eq!(t.reverse.len(), 72);
        let read = |t: &MappingTables, channel, rank| {
            SLOTS_READ.with(|n| n.set(0));
            let got: Vec<u64> = t.mapped_in_rank(channel, rank).map(|(w, _)| w).collect();
            (got, SLOTS_READ.with(std::cell::Cell::get))
        };
        // Rank 0 lies wholly inside the table: its whole stride. Rank 2
        // reads up to dsn 71 on channel 1 (dsn 70 on channel 0), rank 3
        // nothing.
        assert_eq!(read(&t, 0, 0), (vec![0, 1, 5, 6], 16));
        assert_eq!(read(&t, 1, 0), (vec![0, 1, 6], 16));
        assert_eq!(read(&t, 1, 2), (vec![3], 4));
        assert_eq!(read(&t, 0, 2), (vec![], 4));
        assert_eq!(read(&t, 1, 3), (vec![], 0));
        // A fresh table reads no slot at all.
        let fresh = MappingTables::new(4, GEO);
        for (channel, rank) in [(0, 0), (1, 0), (1, 3)] {
            assert_eq!(read(&fresh, channel, rank), (vec![], 0));
        }
    }

    // --- check_consistency has teeth: one hand mutation per violation ----

    fn violation(t: &MappingTables) -> String {
        match t.check_consistency() {
            Err(DtlError::Internal { reason }) => reason,
            other => panic!("expected a violation, got {other:?}"),
        }
    }

    #[test]
    fn sweep_catches_a_forward_slot_diverging_from_reverse() {
        let mut t = tables();
        let corrupted = t.corrupt_first_forward_slot().unwrap();
        assert_eq!(corrupted, hsn(0, 0, 0));
        assert!(violation(&t).contains("forward host0/au0/0->dsn1 but reverse says"));
    }

    #[test]
    fn sweep_catches_a_forward_slot_pointing_past_the_table() {
        let mut t = tables();
        t.hosts[0].as_mut().unwrap()[0].as_mut().unwrap()[3] = Dsn(5000);
        assert!(violation(&t).contains("forward host0/au0/3->dsn5000 but reverse says None"));
    }

    #[test]
    fn sweep_catches_mapped_count_drift() {
        let mut t = tables();
        t.mapped += 1;
        assert!(violation(&t).contains("reverse holds 8 entries, mapped count is 9"));
    }

    #[test]
    fn sweep_catches_a_stray_reverse_entry() {
        let mut t = tables();
        // A reverse entry no forward slot owns, with the count "kept in
        // step": only the forward/reverse totals can tell.
        t.reverse[5] = hsn(0, 0, 0).pack() + 1;
        t.mapped += 1;
        assert!(violation(&t).contains("forward maps 8 segments, reverse 9"));
    }

    #[test]
    fn sweep_catches_a_lost_reverse_entry() {
        let mut t = tables();
        t.reverse[2] = 0;
        assert!(violation(&t).contains("forward host0/au0/2->dsn2 but reverse says None"));
    }

    // --- lockstep with the structure this one replaced -------------------

    /// The predecessor of [`MappingTables`], kept as the model the
    /// differential test holds it to: nested hash maps with no notion of a
    /// device, so no id is ever out of range for it.
    #[derive(Debug, Clone, Default)]
    struct ReferenceTables {
        segments_per_au: u64,
        hosts: HashMap<HostId, HashMap<AuId, Vec<Dsn>>>,
        reverse: HashMap<Dsn, Hsn>,
    }

    impl ReferenceTables {
        fn register_host(&mut self, host: HostId) {
            self.hosts.entry(host).or_default();
        }

        fn create_au(&mut self, host: HostId, au: AuId, dsns: Vec<Dsn>) -> Result<(), DtlError> {
            let internal = |reason: &str| Err(DtlError::Internal { reason: reason.into() });
            if dsns.len() as u64 != self.segments_per_au {
                return internal("wrong segment count");
            }
            if dsns.iter().any(|d| self.reverse.contains_key(d)) {
                return internal("DSN already mapped");
            }
            let aus = self.hosts.get_mut(&host).ok_or(DtlError::UnknownHost(host))?;
            if aus.contains_key(&au) {
                return internal("AU exists");
            }
            for (off, d) in dsns.iter().enumerate() {
                self.reverse.insert(*d, Hsn { host, au, au_offset: off as u32 });
            }
            aus.insert(au, dsns);
            Ok(())
        }

        fn remove_au(&mut self, host: HostId, au: AuId) -> Result<Vec<Dsn>, DtlError> {
            let aus = self.hosts.get_mut(&host).ok_or(DtlError::UnknownHost(host))?;
            let table = aus.remove(&au).ok_or(DtlError::UnknownAu { host, au })?;
            for d in &table {
                self.reverse.remove(d);
            }
            Ok(table)
        }

        fn translate(&self, hsn: Hsn) -> Option<Dsn> {
            self.hosts.get(&hsn.host)?.get(&hsn.au)?.get(hsn.au_offset as usize).copied()
        }

        fn reverse(&self, dsn: Dsn) -> Option<Hsn> {
            self.reverse.get(&dsn).copied()
        }

        fn remap(&mut self, hsn: Hsn, new_dsn: Dsn) -> Result<Dsn, DtlError> {
            if self.reverse.get(&new_dsn).is_some_and(|owner| *owner != hsn) {
                return Err(DtlError::Internal { reason: "remap target owned".into() });
            }
            let aus = self.hosts.get_mut(&hsn.host).ok_or(DtlError::UnknownHost(hsn.host))?;
            let table =
                aus.get_mut(&hsn.au).ok_or(DtlError::UnknownAu { host: hsn.host, au: hsn.au })?;
            let slot = table
                .get_mut(hsn.au_offset as usize)
                .ok_or_else(|| DtlError::Internal { reason: "AU offset out of range".into() })?;
            let old = std::mem::replace(slot, new_dsn);
            self.reverse.remove(&old);
            self.reverse.insert(new_dsn, hsn);
            Ok(old)
        }

        fn swap(&mut self, a: Dsn, b: Dsn) -> Result<(Option<Hsn>, Option<Hsn>), DtlError> {
            let (ha, hb) = (self.reverse(a), self.reverse(b));
            if a == b {
                return Ok((ha, ha));
            }
            self.reverse.remove(&a);
            self.reverse.remove(&b);
            for (h, to) in [(ha, b), (hb, a)] {
                if let Some(h) = h {
                    let aus = self.hosts.get_mut(&h.host).expect("reverse entry has a host");
                    aus.get_mut(&h.au).expect("and an AU")[h.au_offset as usize] = to;
                    self.reverse.insert(to, h);
                }
            }
            Ok((ha, hb))
        }

        fn check_consistency(&self) -> Result<u64, DtlError> {
            for (dsn, hsn) in &self.reverse {
                if self.translate(*hsn) != Some(*dsn) {
                    return Err(DtlError::Internal { reason: format!("reverse {dsn}->{hsn}") });
                }
            }
            let forward: usize = self.hosts.values().flat_map(HashMap::values).map(Vec::len).sum();
            if forward != self.reverse.len() {
                return Err(DtlError::Internal { reason: "forward/reverse counts".into() });
            }
            Ok(forward as u64)
        }
    }

    /// 2 x 2 x 8 = 32 segments, 8 AUs of 4: small enough that random ops
    /// collide with mapped DSNs, live AUs and the device's edge all the time.
    const PROP_GEO: SegmentGeometry =
        SegmentGeometry { channels: 2, ranks_per_channel: 2, segs_per_rank: 8 };
    const PROP_SEGMENTS: u64 = 32;
    const PROP_AUS: u32 = 8;

    #[derive(Debug, Clone)]
    enum Op {
        Register {
            host: u16,
        },
        /// `picks` index the currently free DSNs (a create that can
        /// succeed) or, when `raw`, are the DSNs themselves — mapped,
        /// repeated and out-of-range ones included.
        Create {
            host: u16,
            au: u32,
            picks: Vec<u64>,
            raw: bool,
        },
        Remove {
            host: u16,
            au: u32,
        },
        Remap {
            host: u16,
            au: u32,
            off: u32,
            dsn: u64,
        },
        Swap {
            a: u64,
            b: u64,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // One past every edge: unregistered host 3, AU ids 8..10, offset 4,
        // DSNs 32..36.
        let host = || 0u16..4;
        let au = || 0..PROP_AUS + 2;
        let dsn = || 0..PROP_SEGMENTS + 4;
        let picks = prop_oneof![
            8 => prop::collection::vec(dsn(), 4),
            1 => prop::collection::vec(dsn(), 3..6),
        ];
        prop_oneof![
            1 => (0u16..3).prop_map(|host| Op::Register { host }),
            5 => (host(), au(), picks, any::<bool>())
                .prop_map(|(host, au, picks, raw)| Op::Create { host, au, picks, raw }),
            3 => (host(), au()).prop_map(|(host, au)| Op::Remove { host, au }),
            4 => (host(), au(), 0u32..5, dsn())
                .prop_map(|(host, au, off, dsn)| Op::Remap { host, au, off, dsn }),
            4 => (dsn(), dsn()).prop_map(|(a, b)| Op::Swap { a, b }),
        ]
    }

    /// Ok values exactly, errors by variant (and payload, except the
    /// free-text reason of `Internal`).
    fn shape<T>(r: Result<T, DtlError>) -> Result<T, String> {
        r.map_err(|e| match e {
            DtlError::Internal { .. } => "Internal".into(),
            other => other.to_string(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense tables and the hash-map reference, fed the same
        /// operations, return the same values and the same error variants
        /// and answer every probe alike after every step. The one designed
        /// difference: an id beyond the device, or a DSN listed twice,
        /// which the reference would accept, is `Internal` here and changes
        /// nothing. A step that leaves the generation where it was leaves
        /// the tables exactly as they were.
        #[test]
        fn lockstep_with_the_hash_map_reference(
            steps in prop::collection::vec(op_strategy(), 1..80),
        ) {
            let mut dense = MappingTables::new(4, PROP_GEO);
            let mut model = ReferenceTables { segments_per_au: 4, ..Default::default() };
            dense.register_host(HostId(0));
            model.register_host(HostId(0));
            let beyond = |d: &Dsn| d.0 >= PROP_SEGMENTS;
            for op in steps {
                let (before, generation) = (dense.clone(), dense.generation());
                match op {
                    Op::Register { host } => {
                        dense.register_host(HostId(host));
                        model.register_host(HostId(host));
                    }
                    Op::Create { host, au, picks, raw } => {
                        let mut free: Vec<Dsn> =
                            (0..PROP_SEGMENTS).map(Dsn).filter(|d| model.reverse(*d).is_none()).collect();
                        let dsns: Vec<Dsn> = if raw || free.len() < picks.len() {
                            picks.iter().copied().map(Dsn).collect()
                        } else {
                            picks.iter().map(|p| free.remove(*p as usize % free.len())).collect()
                        };
                        let (host, au) = (HostId(host), AuId(au));
                        let twice = (1..dsns.len()).any(|i| dsns[..i].contains(&dsns[i]));
                        let mut trial = model.clone();
                        let expected = if dsns.iter().any(beyond) {
                            // Caught with the DSN checks, before the host lookup.
                            Err(DtlError::Internal { reason: String::new() })
                        } else {
                            trial.create_au(host, au, dsns.clone())
                        };
                        let refused = expected.is_ok() && (au.0 >= PROP_AUS || twice);
                        let got = dense.create_au(host, au, dsns);
                        if refused {
                            prop_assert_eq!(shape(got), Err("Internal".into()));
                        } else {
                            prop_assert_eq!(shape(got), shape(expected.clone()));
                            if expected.is_ok() {
                                model = trial;
                            }
                        }
                    }
                    Op::Remove { host, au } => {
                        let (host, au) = (HostId(host), AuId(au));
                        prop_assert_eq!(shape(dense.remove_au(host, au)), shape(model.remove_au(host, au)));
                    }
                    Op::Remap { host, au, off, dsn } => {
                        let hsn = Hsn { host: HostId(host), au: AuId(au), au_offset: off };
                        let got = shape(dense.remap(hsn, Dsn(dsn)));
                        if beyond(&Dsn(dsn)) {
                            prop_assert_eq!(got, Err("Internal".into()));
                        } else {
                            prop_assert_eq!(got, shape(model.remap(hsn, Dsn(dsn))));
                        }
                    }
                    Op::Swap { a, b } => {
                        let got = shape(dense.swap(Dsn(a), Dsn(b)));
                        if beyond(&Dsn(a)) || beyond(&Dsn(b)) {
                            prop_assert_eq!(got, Err("Internal".into()));
                        } else {
                            prop_assert_eq!(got, shape(model.swap(Dsn(a), Dsn(b))));
                        }
                    }
                }
                if dense.generation() == generation {
                    prop_assert_eq!(&dense, &before, "changed without a new generation");
                }
                prop_assert_eq!(shape(dense.check_consistency()), shape(model.check_consistency()));
                prop_assert_eq!(dense.mapped_segments(), model.reverse.len() as u64);
                let mut expected: Vec<(Dsn, Hsn)> = model.reverse.iter().map(|(d, h)| (*d, *h)).collect();
                expected.sort();
                prop_assert_eq!(dense.iter_mapped().collect::<Vec<_>>(), expected);
                for dsn in (0..PROP_SEGMENTS + 4).map(Dsn) {
                    prop_assert_eq!(dense.reverse(dsn), model.reverse(dsn), "{}", dsn);
                }
                for host in (0..4).map(HostId) {
                    prop_assert_eq!(dense.has_host(host), model.hosts.contains_key(&host));
                    prop_assert_eq!(dense.au_count(host), model.hosts.get(&host).map_or(0, HashMap::len));
                    for au in (0..PROP_AUS + 2).map(AuId) {
                        for au_offset in 0..5 {
                            let hsn = Hsn { host, au, au_offset };
                            prop_assert_eq!(dense.translate(hsn), model.translate(hsn), "{}", hsn);
                        }
                    }
                }
            }
        }
    }
}
