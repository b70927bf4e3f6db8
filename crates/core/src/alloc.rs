//! Segment allocation (paper §4.3 "Balancing Segment Allocation").
//!
//! Every allocation unit takes an equal number of segments from each
//! channel, so a VM always sees the full channel-level parallelism of the
//! device. Within a channel, the *most utilized* active rank's free queue
//! has priority, which packs data into few ranks and keeps the rest
//! drainable for power-down.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::addr::{Dsn, SegmentGeometry, SegmentLocation};
use crate::error::DtlError;

#[cfg(test)]
thread_local! {
    /// Most-utilized-rank choices AU allocation has made on this thread:
    /// its work, counted rather than timed.
    pub(crate) static RANK_CHOICES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One rank's slots: every slot in `0..segs_per_rank` is either in a run of
/// `free` or has its bit set in `allocated`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct RankSlots {
    /// Free slots in hand-out order, as runs `(start, len)` of the
    /// consecutive slots `start..start + len`. A FIFO on purpose: which slot
    /// an allocation pops and where a freed one queues decide the DSNs an AU
    /// gets, so the order is behaviour. Runs make it cost what it holds in
    /// pieces, not in slots: a fresh rank is one run, and a freed slot that
    /// follows the tail run's last one extends it.
    free: VecDeque<(u32, u32)>,
    /// Slots in `free`: the sum of its run lengths.
    free_count: u64,
    /// Allocated slots, one bit each (bit `w % 64` of word `w / 64`). Only
    /// membership and ascending iteration are ever asked of it, so any set
    /// would do; a bitmap answers both at memory speed.
    allocated: Vec<u64>,
    /// Set bits in `allocated`.
    allocated_count: u64,
    /// Available for allocation: `false` while powered down.
    active: bool,
}

/// The bitmap words that slots `start..end` touch, each with the mask of
/// those slots' bits in it.
fn word_masks(start: u64, end: u64) -> impl Iterator<Item = (usize, u64)> {
    (start / 64..end.div_ceil(64)).map(move |w| {
        let lo = start.max(w * 64) - w * 64;
        let hi = end.min(w * 64 + 64) - w * 64;
        (w as usize, (u64::MAX >> (64 - hi)) & (u64::MAX << lo))
    })
}

impl RankSlots {
    fn is_allocated(&self, within: u64) -> bool {
        self.allocated
            .get((within / 64) as usize)
            .is_some_and(|word| word >> (within % 64) & 1 == 1)
    }

    /// Marks slots `start..end` (just taken off `free`) allocated.
    fn mark(&mut self, start: u64, end: u64) {
        for (w, mask) in word_masks(start, end) {
            self.allocated[w] |= mask;
        }
        self.allocated_count += end - start;
    }

    /// Takes up to `max` slots off the head run of `free` and marks them
    /// allocated: the first slot and how many, or `None` if `free` is empty.
    fn pop_front(&mut self, max: u64) -> Option<(u64, u64)> {
        let (start, len) = *self.free.front()?;
        // At most `len`, so it fits a run's `u32`.
        let taken = u64::from(len).min(max) as u32;
        if taken == len {
            self.free.pop_front();
        } else {
            self.free[0] = (start + taken, len - taken);
        }
        let (start, taken) = (u64::from(start), u64::from(taken));
        self.free_count -= taken;
        self.mark(start, start + taken);
        Some((start, taken))
    }

    /// Queues a slot at the back of `free`.
    fn push_back(&mut self, within: u64) {
        // `SegmentAllocator::new` bounds a rank's slots by `u32::MAX`.
        let within = within as u32;
        match self.free.back_mut() {
            Some((start, len)) if *start + *len == within => *len += 1,
            _ => self.free.push_back((within, 1)),
        }
        self.free_count += 1;
    }

    /// Moves one specific slot from `free` to allocated, splitting the run
    /// that holds it; `false` if it is not queued there.
    fn take(&mut self, within: u64) -> bool {
        let holds = |&(start, len): &(u32, u32)| {
            (u64::from(start)..u64::from(start) + u64::from(len)).contains(&within)
        };
        let Some(i) = self.free.iter().position(holds) else {
            return false;
        };
        let (start, len) = self.free[i];
        let slot = within as u32; // inside a run, so below `u32::MAX`
        let (before, after) = (slot - start, start + len - slot - 1);
        match (before, after) {
            (0, 0) => {
                self.free.remove(i);
            }
            (0, _) => self.free[i] = (slot + 1, after),
            (_, 0) => self.free[i] = (start, before),
            _ => {
                self.free[i] = (start, before);
                self.free.insert(i + 1, (slot + 1, after));
            }
        }
        self.free_count -= 1;
        self.mark(within, within + 1);
        true
    }

    /// Moves an allocated slot to the back of `free`; `false` if it was not
    /// allocated.
    fn release(&mut self, within: u64) -> bool {
        if !self.is_allocated(within) {
            return false;
        }
        self.allocated[(within / 64) as usize] &= !(1 << (within % 64));
        self.allocated_count -= 1;
        self.push_back(within);
        true
    }
}

/// Free/allocated segment bookkeeping per (channel, rank).
///
/// # Examples
///
/// ```
/// use dtl_core::{SegmentAllocator, SegmentGeometry};
///
/// let geo = SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 };
/// let mut alloc = SegmentAllocator::new(geo);
/// let mut aus = Vec::new();
/// let n = alloc.allocate_aus(8, 1, &mut aus)?; // 4 segments per channel
/// assert_eq!((n, aus[0].len()), (1, 8));
/// assert_eq!(alloc.free_active_total(), 120);
/// alloc.free_segments(&aus[0])?;
/// # Ok::<(), dtl_core::DtlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentAllocator {
    geo: SegmentGeometry,
    /// Channel-major: rank `r` of channel `c` is `ranks[c * ranks_per_channel + r]`.
    ranks: Vec<RankSlots>,
    /// Moves once at the top of every `&mut self` entry point, so an
    /// unchanged value means an unchanged allocator (see
    /// [`SegmentAllocator::generation`]).
    generation: u64,
}

impl SegmentAllocator {
    /// A fully free allocator with all ranks active.
    ///
    /// # Panics
    ///
    /// Panics if a rank holds 2³² segments or more, which a free run's
    /// `u32` slots cannot name ([`crate::DtlConfig::validate_geometry`]
    /// reports the same limit as an error).
    pub fn new(geo: SegmentGeometry) -> Self {
        let size = geo.segs_per_rank;
        let Ok(slots) = u32::try_from(size) else {
            panic!("{}", rank_too_large(size));
        };
        let words = size.div_ceil(64) as usize;
        let ranks = (0..u64::from(geo.channels) * u64::from(geo.ranks_per_channel))
            .map(|_| RankSlots {
                free: if slots == 0 { VecDeque::new() } else { VecDeque::from([(0, slots)]) },
                free_count: size,
                allocated: vec![0; words],
                allocated_count: 0,
                active: true,
            })
            .collect();
        SegmentAllocator { geo, ranks, generation: 0 }
    }

    /// A counter that every `&mut self` entry point moves once, before it
    /// looks at its arguments — failed calls and no-ops included. Equal
    /// values read from the same allocator mean nothing was changed in
    /// between, which is what lets the device sweep skip re-proving it.
    /// Private helpers run only inside those entry points and do not move
    /// it again.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn bump(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// The segment geometry.
    pub fn geometry(&self) -> SegmentGeometry {
        self.geo
    }

    /// Index of a rank in `ranks`.
    ///
    /// # Panics
    ///
    /// Panics for a rank outside the geometry, which would otherwise alias
    /// another rank's slots.
    fn index(&self, channel: u32, rank: u32) -> usize {
        assert!(
            channel < self.geo.channels && rank < self.geo.ranks_per_channel,
            "rank ch{channel}/rk{rank} outside the allocator's geometry"
        );
        channel as usize * self.geo.ranks_per_channel as usize + rank as usize
    }

    fn rank(&self, channel: u32, rank: u32) -> &RankSlots {
        &self.ranks[self.index(channel, rank)]
    }

    fn rank_mut(&mut self, channel: u32, rank: u32) -> &mut RankSlots {
        let i = self.index(channel, rank);
        &mut self.ranks[i]
    }

    /// Marks a rank available/unavailable for allocation (power-down state).
    pub(crate) fn set_rank_active(&mut self, channel: u32, rank: u32, active: bool) {
        self.bump();
        self.rank_mut(channel, rank).active = active;
    }

    /// Whether a rank is available for allocation.
    pub fn is_rank_active(&self, channel: u32, rank: u32) -> bool {
        self.rank(channel, rank).active
    }

    /// Allocated segment count in a rank.
    pub fn allocated_in_rank(&self, channel: u32, rank: u32) -> u64 {
        self.rank(channel, rank).allocated_count
    }

    /// Free segment count in a rank.
    pub fn free_in_rank(&self, channel: u32, rank: u32) -> u64 {
        self.rank(channel, rank).free_count
    }

    /// Free segments in the *active* ranks of a channel.
    pub fn free_in_channel_active(&self, channel: u32) -> u64 {
        (0..self.geo.ranks_per_channel)
            .filter(|r| self.is_rank_active(channel, *r))
            .map(|r| self.free_in_rank(channel, r))
            .sum()
    }

    /// Total free segments over all active ranks.
    pub fn free_active_total(&self) -> u64 {
        (0..self.geo.channels).map(|c| self.free_in_channel_active(c)).sum()
    }

    /// Iterates the allocated within-rank slots of a rank (ascending).
    pub fn allocated_slots(&self, channel: u32, rank: u32) -> impl Iterator<Item = u64> + '_ {
        self.rank(channel, rank).allocated.iter().enumerate().flat_map(|(i, word)| {
            let mut rest = *word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = u64::from(rest.trailing_zeros());
                    rest &= rest - 1;
                    i as u64 * 64 + bit
                })
            })
        })
    }

    /// The active rank with the fewest allocated segments in a channel
    /// (the power-down victim choice of §3.3), optionally excluding ranks.
    pub fn least_allocated_active_rank(&self, channel: u32, exclude: &[u32]) -> Option<u32> {
        (0..self.geo.ranks_per_channel)
            .filter(|r| self.is_rank_active(channel, *r) && !exclude.contains(r))
            .min_by_key(|r| (self.allocated_in_rank(channel, *r), *r))
    }

    /// Allocates as many AUs of `segments_per_au` segments as every channel
    /// can supply, up to `max_aus`, in one pass, and returns how many, `n`:
    /// the carved AUs are the last `n` entries of `out`, in carve order.
    /// Buffers already there are reused, resized to `segments_per_au`
    /// whatever they held; `out` grows only by the buffers it lacks, and
    /// its entries below the last `n` are left alone. Entries already in
    /// `out` are overwritten, not appended to: a caller that keeps the AUs
    /// it carved moves them out of `out` before the next carve.
    ///
    /// Each AU takes an equal share from every channel, the most-utilized
    /// active rank with free space first, and its DSNs are ordered so
    /// consecutive AU offsets rotate channels. Each channel chooses that rank once and takes its
    /// share of every AU from it, a free run at a time, choosing again
    /// only when the rank runs out: the rank only gets fuller, so it stays
    /// the choice. The DSNs and their order are those of `n` carves of one
    /// AU (asking for none carves none).
    ///
    /// # Errors
    ///
    /// * [`DtlError::OutOfCapacity`] if any channel's active ranks cannot
    ///   supply its share of one AU (the caller should wake a rank group
    ///   and retry); nothing is taken and `out` is untouched;
    /// * [`DtlError::Internal`] if `segments_per_au` does not divide over
    ///   the channels ([`crate::DtlConfig::validate_geometry`] rules that
    ///   out for a device).
    pub fn allocate_aus(
        &mut self,
        segments_per_au: u64,
        max_aus: u64,
        out: &mut Vec<Vec<Dsn>>,
    ) -> Result<usize, DtlError> {
        self.bump();
        let channels = u64::from(self.geo.channels);
        if channels == 0 || !segments_per_au.is_multiple_of(channels) {
            return Err(DtlError::Internal {
                reason: format!(
                    "an AU of {segments_per_au} segments cannot balance over {channels} channels"
                ),
            });
        }
        let per_channel = segments_per_au / channels;
        // Feasibility before mutating anything: the AUs whose share every
        // channel's active ranks hold (a division only for a channel short
        // of the AUs asked, so one AU with room to spare divides nothing).
        let mut n = max_aus;
        for c in 0..self.geo.channels {
            let free = self.free_in_channel_active(c);
            if free < n.saturating_mul(per_channel) {
                n = free / per_channel;
            }
        }
        if n == 0 && max_aus > 0 {
            return Err(DtlError::OutOfCapacity {
                requested: segments_per_au, // in segments
                free: self.free_active_total(),
            });
        }
        let (geo, stride) = (self.geo, channels as usize);
        if out.len() < n as usize {
            out.resize_with(n as usize, Vec::new);
        }
        let first = out.len() - n as usize;
        let aus = &mut out[first..];
        for dsns in aus.iter_mut() {
            dsns.resize(segments_per_au as usize, Dsn(0));
        }
        for c in 0..geo.channels {
            // Interleave: AU offset k lives on channel k % C, so the channel
            // fills every C-th offset from `c`, `room` more in this AU.
            let (mut au, mut offset, mut room) = (0, c as usize, per_channel);
            let mut left = n * per_channel;
            while left > 0 {
                let rank =
                    self.most_utilized_active_rank_with_free(c).expect("feasibility checked above");
                let slots = self.rank_mut(c, rank);
                while left > 0 {
                    let Some((within, run)) = slots.pop_front(left) else {
                        break;
                    };
                    // The next slot of a rank is the DSN C further on.
                    let mut dsn = geo.dsn(SegmentLocation { channel: c, rank, within }).0;
                    let mut rest = run;
                    while rest > 0 {
                        let k = rest.min(room);
                        let dsns = &mut aus[au];
                        for j in 0..k as usize {
                            dsns[offset + j * stride] = Dsn(dsn + j as u64 * channels);
                        }
                        dsn += k * channels;
                        (rest, room, offset) = (rest - k, room - k, offset + k as usize * stride);
                        if room == 0 {
                            (au, offset, room) = (au + 1, c as usize, per_channel);
                        }
                    }
                    left -= run;
                }
            }
        }
        Ok(n as usize)
    }

    fn most_utilized_active_rank_with_free(&self, channel: u32) -> Option<u32> {
        #[cfg(test)]
        RANK_CHOICES.with(|n| n.set(n.get() + 1));
        (0..self.geo.ranks_per_channel)
            .filter(|r| self.is_rank_active(channel, *r) && self.free_in_rank(channel, *r) > 0)
            .max_by_key(|r| (self.allocated_in_rank(channel, *r), u32::MAX - *r))
    }

    /// Returns segments to the free pool.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] if a segment was not allocated (which
    /// includes every DSN beyond the device).
    pub fn free_segments(&mut self, dsns: &[Dsn]) -> Result<(), DtlError> {
        self.bump();
        let segments = self.geo.total_segments();
        for d in dsns {
            let loc = (d.0 < segments).then(|| self.geo.location(*d));
            let freed =
                loc.is_some_and(|loc| self.rank_mut(loc.channel, loc.rank).release(loc.within));
            if !freed {
                return Err(DtlError::Internal {
                    reason: format!("freeing unallocated segment {d}"),
                });
            }
        }
        Ok(())
    }

    /// Reserves one *specific* free slot (hotness-copy destinations must
    /// be claimed at planning time or a concurrent drain could take them).
    /// Returns `false` if the slot is not currently free.
    pub fn reserve_slot(&mut self, loc: SegmentLocation) -> bool {
        self.bump();
        self.rank_mut(loc.channel, loc.rank).take(loc.within)
    }

    /// Takes up to `max` free slots from a specific rank, the next ones its
    /// FIFO hands out, as far as they run consecutively: the first and how
    /// many, so the slots are `first.within..first.within + n`. Returns
    /// `None` when the rank is full or `max` is zero.
    pub fn take_free_run_in_rank(
        &mut self,
        channel: u32,
        rank: u32,
        max: u64,
    ) -> Option<(SegmentLocation, u64)> {
        self.bump();
        if max == 0 {
            return None;
        }
        let (within, n) = self.rank_mut(channel, rank).pop_front(max)?;
        Some((SegmentLocation { channel, rank, within }, n))
    }

    /// Records that a live segment moved from `src` to `dst` (dst must have
    /// been taken via [`SegmentAllocator::take_free_run_in_rank`]); `src`
    /// becomes free.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] if `src` was not allocated.
    pub fn complete_move(&mut self, src: SegmentLocation) -> Result<(), DtlError> {
        self.bump();
        if !self.rank_mut(src.channel, src.rank).release(src.within) {
            return Err(DtlError::Internal {
                reason: format!("move source {src:?} not allocated"),
            });
        }
        Ok(())
    }

    /// Records a hotness swap between two slots where exactly one side may
    /// be free: allocation status is exchanged.
    pub fn swap_status(&mut self, a: SegmentLocation, b: SegmentLocation) {
        self.bump();
        let a_alloc = self.is_allocated(a);
        let b_alloc = self.is_allocated(b);
        if a_alloc == b_alloc {
            return; // both live or both free: status unchanged
        }
        let (live, free) = if a_alloc { (a, b) } else { (b, a) };
        let taken = self.rank_mut(free.channel, free.rank).take(free.within);
        debug_assert!(taken, "{free:?} is neither allocated nor free");
        if taken {
            self.rank_mut(live.channel, live.rank).release(live.within);
        }
    }

    /// Whether a slot is currently allocated.
    pub fn is_allocated(&self, loc: SegmentLocation) -> bool {
        self.rank(loc.channel, loc.rank).is_allocated(loc.within)
    }

    /// The first of `slots` that is not allocated in the given rank, if any
    /// (the device sweep's "mapped implies allocated", one bit test a slot).
    pub(crate) fn first_unallocated(
        &self,
        channel: u32,
        rank: u32,
        mut slots: impl Iterator<Item = u64>,
    ) -> Option<u64> {
        let rank = self.rank(channel, rank);
        slots.find(|within| !rank.is_allocated(*within))
    }

    /// Verifies that free + allocated exactly tile every rank, in one pass
    /// over each rank's bitmap and free runs: each run claims its slots a
    /// bitmap word at a time in a single scratch bitmap reused across ranks,
    /// which starts as the rank's allocated bits. O(runs + bitmap words) a
    /// rank, not O(slots).
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] describing the first inconsistency: an
    /// allocated count that is not its bitmap's population count, free +
    /// allocated not adding up to the rank, a free count that is not its
    /// runs' total, an empty run, a free slot outside the rank, a slot both
    /// free and allocated, a slot queued free twice, or an allocated bit
    /// outside the rank.
    pub fn check_consistency(&self) -> Result<(), DtlError> {
        let size = self.geo.segs_per_rank;
        let ranks = self.geo.ranks_per_channel.max(1) as usize;
        let mut claimed = vec![0u64; size.div_ceil(64) as usize];
        for (i, slots) in self.ranks.iter().enumerate() {
            let fail = |what: String| {
                Err(DtlError::Internal {
                    reason: format!("ch{}/rk{}: {what}", i / ranks, i % ranks),
                })
            };
            let popcount: u64 = slots.allocated.iter().map(|w| u64::from(w.count_ones())).sum();
            if popcount != slots.allocated_count {
                return fail(format!(
                    "allocated count {} but {popcount} bits set",
                    slots.allocated_count
                ));
            }
            let f: u64 = slots.free.iter().map(|&(_, len)| u64::from(len)).sum();
            let a = slots.allocated_count;
            if f + a != size {
                return fail(format!("{f} free + {a} allocated != rank size"));
            }
            if f != slots.free_count {
                return fail(format!("free count {} but the runs hold {f}", slots.free_count));
            }
            claimed.copy_from_slice(&slots.allocated);
            for (n, &(start, len)) in slots.free.iter().enumerate() {
                let (start, end) = (u64::from(start), u64::from(start) + u64::from(len));
                if start == end {
                    return fail(format!("free run {n} is empty"));
                }
                if end > size {
                    return fail(format!("free slot {} outside the rank", start.max(size)));
                }
                for (w, mask) in word_masks(start, end) {
                    let clash = claimed[w] & mask;
                    if clash != 0 {
                        let slot = w as u64 * 64 + u64::from(clash.trailing_zeros());
                        return if slots.is_allocated(slot) {
                            fail(format!("slot {slot} in both free and allocated"))
                        } else {
                            fail(format!("slot {slot} queued free twice"))
                        };
                    }
                    claimed[w] |= mask;
                }
            }
            // Runs inside the rank, disjoint from each other and from the
            // allocated bits, holding `size - a` slots: they tile it unless
            // an allocated bit lies past the end.
            let last = slots.allocated.last().copied().unwrap_or(0);
            if !size.is_multiple_of(64) && last >> (size % 64) != 0 {
                return fail("allocated bit outside the rank".into());
            }
        }
        Ok(())
    }
}

/// What [`SegmentAllocator::new`] panics with and
/// [`crate::DtlConfig::validate_geometry`] reports for a rank of `size`
/// segments.
pub(crate) fn rank_too_large(size: u64) -> String {
    format!("a rank of {size} segments overflows the 32-bit slots of the allocator's free runs")
}

#[cfg(test)]
impl SegmentAllocator {
    /// One rank's free runs and allocated count, for the device sweep's
    /// self-tests to corrupt.
    pub(crate) fn corrupt_for_test(
        &mut self,
        channel: u32,
        rank: u32,
    ) -> (&mut VecDeque<(u32, u32)>, &mut u64) {
        self.bump();
        let slots = self.rank_mut(channel, rank);
        (&mut slots.free, &mut slots.allocated_count)
    }

    /// One AU carved by [`SegmentAllocator::allocate_aus`] into a buffer
    /// of its own.
    pub(crate) fn allocate_one_au(&mut self, segments_per_au: u64) -> Result<Vec<Dsn>, DtlError> {
        let mut out = Vec::new();
        self.allocate_aus(segments_per_au, 1, &mut out)?;
        Ok(out.pop().expect("one AU asked, one carved"))
    }

    /// How many runs a rank's free FIFO is kept in.
    fn free_runs(&self, channel: u32, rank: u32) -> usize {
        self.rank(channel, rank).free.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    fn geo() -> SegmentGeometry {
        // 2 channels, 4 ranks, 16 segments per rank = 128 segments.
        SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 }
    }

    #[test]
    fn fresh_allocator_is_all_free() {
        let a = SegmentAllocator::new(geo());
        assert_eq!(a.free_active_total(), 128);
        assert_eq!(a.allocated_in_rank(0, 0), 0);
        a.check_consistency().unwrap();
    }

    #[test]
    fn au_allocation_balances_channels_and_packs_ranks() {
        let mut a = SegmentAllocator::new(geo());
        let dsns = a.allocate_one_au(8).unwrap();
        assert_eq!(dsns.len(), 8);
        // Equal share per channel.
        let g = geo();
        let per_ch = dsns.iter().map(|d| g.location(*d).channel).fold([0u32; 2], |mut acc, c| {
            acc[c as usize] += 1;
            acc
        });
        assert_eq!(per_ch, [4, 4]);
        // Consecutive offsets rotate channels (DTL channel interleaving).
        for (k, d) in dsns.iter().enumerate() {
            assert_eq!(g.location(*d).channel, (k % 2) as u32);
        }
        // Packing: everything in one rank per channel.
        for d in &dsns {
            assert_eq!(g.location(*d).rank, g.location(dsns[0]).rank);
        }
        a.check_consistency().unwrap();
    }

    #[test]
    fn allocation_prefers_most_utilized_rank() {
        let mut a = SegmentAllocator::new(geo());
        let first = a.allocate_one_au(8).unwrap();
        let second = a.allocate_one_au(8).unwrap();
        let g = geo();
        // Both AUs should land in the same (most utilized) rank per channel.
        assert_eq!(g.location(first[0]).rank, g.location(second[0]).rank);
    }

    #[test]
    fn allocation_spills_to_next_rank_when_full() {
        let mut a = SegmentAllocator::new(geo());
        // Each rank holds 16; fill the first rank pair (2ch x 16 = 32 segs
        // = 4 AUs of 8).
        let mut all = Vec::new();
        for _ in 0..4 {
            all.extend(a.allocate_one_au(8).unwrap());
        }
        let g = geo();
        let first_rank = g.location(all[0]).rank;
        let next = a.allocate_one_au(8).unwrap();
        assert_ne!(g.location(next[0]).rank, first_rank, "must spill to a new rank");
        a.check_consistency().unwrap();
    }

    #[test]
    fn inactive_ranks_are_skipped() {
        let mut a = SegmentAllocator::new(geo());
        let g = geo();
        let probe = a.allocate_one_au(8).unwrap();
        let preferred = g.location(probe[0]).rank;
        a.free_segments(&probe).unwrap();
        for c in 0..2 {
            a.set_rank_active(c, preferred, false);
        }
        let dsns = a.allocate_one_au(8).unwrap();
        for d in &dsns {
            assert_ne!(g.location(*d).rank, preferred);
        }
    }

    #[test]
    fn out_of_capacity_when_active_ranks_full() {
        let mut a = SegmentAllocator::new(geo());
        // Deactivate all but rank 0 in both channels: capacity = 32 segs.
        for c in 0..2 {
            for r in 1..4 {
                a.set_rank_active(c, r, false);
            }
        }
        for _ in 0..4 {
            a.allocate_one_au(8).unwrap();
        }
        let err = a.allocate_one_au(8);
        assert!(matches!(err, Err(DtlError::OutOfCapacity { .. })));
        a.check_consistency().unwrap();
    }

    #[test]
    fn free_and_reallocate() {
        let mut a = SegmentAllocator::new(geo());
        let dsns = a.allocate_one_au(8).unwrap();
        a.free_segments(&dsns).unwrap();
        assert_eq!(a.free_active_total(), 128);
        assert!(a.free_segments(&dsns).is_err(), "double free rejected");
        a.check_consistency().unwrap();
    }

    #[test]
    fn take_free_and_complete_move() {
        let mut a = SegmentAllocator::new(geo());
        let dsns = a.allocate_one_au(8).unwrap();
        let g = geo();
        let src = g.location(dsns[0]);
        let (dst, n) = a.take_free_run_in_rank(src.channel, (src.rank + 1) % 4, 1).unwrap();
        assert_eq!(n, 1);
        assert!(a.is_allocated(dst));
        a.complete_move(src).unwrap();
        assert!(!a.is_allocated(src));
        a.check_consistency().unwrap();
    }

    #[test]
    fn swap_status_exchanges_one_live_one_free() {
        let mut a = SegmentAllocator::new(geo());
        let dsns = a.allocate_one_au(8).unwrap();
        let g = geo();
        let live = g.location(dsns[0]);
        let free = SegmentLocation { channel: live.channel, rank: 3, within: 5 };
        assert!(!a.is_allocated(free));
        a.swap_status(live, free);
        assert!(!a.is_allocated(live));
        assert!(a.is_allocated(free));
        a.check_consistency().unwrap();
    }

    #[test]
    fn swap_status_noop_when_both_live() {
        let mut a = SegmentAllocator::new(geo());
        let dsns = a.allocate_one_au(8).unwrap();
        let g = geo();
        let x = g.location(dsns[0]);
        let y = g.location(dsns[2]);
        a.swap_status(x, y);
        assert!(a.is_allocated(x) && a.is_allocated(y));
        a.check_consistency().unwrap();
    }

    #[test]
    fn free_list_exhaustion_and_recovery() {
        let mut a = SegmentAllocator::new(geo());
        // 128 segments total = 16 AUs of 8; drain the free lists completely.
        let mut aus = Vec::new();
        for _ in 0..16 {
            aus.push(a.allocate_one_au(8).unwrap());
        }
        assert_eq!(a.free_active_total(), 0);
        a.check_consistency().unwrap();
        // The 17th must fail without mutating anything, reporting the
        // requested size and the (zero) free pool.
        match a.allocate_one_au(8) {
            Err(DtlError::OutOfCapacity { requested, free }) => {
                assert_eq!(requested, 8);
                assert_eq!(free, 0);
            }
            other => panic!("expected OutOfCapacity, got {other:?}"),
        }
        a.check_consistency().unwrap();
        // take_free_run_in_rank is the other allocation path; it must also
        // report exhaustion (None) on every rank.
        for c in 0..2 {
            for r in 0..4 {
                assert!(a.take_free_run_in_rank(c, r, 1).is_none());
            }
        }
        // Freeing one AU restores exactly its capacity and allocation works
        // again — exhaustion must not corrupt the free lists.
        a.free_segments(&aus.pop().unwrap()).unwrap();
        assert_eq!(a.free_active_total(), 8);
        let again = a.allocate_one_au(8).unwrap();
        assert_eq!(again.len(), 8);
        assert_eq!(a.free_active_total(), 0);
        a.check_consistency().unwrap();
    }

    #[test]
    fn partial_channel_exhaustion_fails_whole_au() {
        let mut a = SegmentAllocator::new(geo());
        // Deactivate every rank of channel 1 except one, then fill it:
        // channel 0 still has plenty, but AU allocation takes an equal share
        // per channel, so the AU must fail as a unit with nothing mutated.
        for r in 1..4 {
            a.set_rank_active(1, r, false);
        }
        for _ in 0..4 {
            a.allocate_one_au(8).unwrap(); // 4 segs/channel each: ch1 rank full
        }
        assert_eq!(a.free_in_channel_active(1), 0);
        let before_ch0 = a.free_in_channel_active(0);
        assert!(matches!(a.allocate_one_au(8), Err(DtlError::OutOfCapacity { .. })));
        assert_eq!(a.free_in_channel_active(0), before_ch0, "failed alloc must not leak");
        a.check_consistency().unwrap();
    }

    #[test]
    fn least_allocated_victim_selection() {
        let mut a = SegmentAllocator::new(geo());
        let _ = a.allocate_one_au(8).unwrap();
        let g = geo();
        // The preferred rank now has 4 allocated per channel; victim must be
        // a different (empty) rank.
        let packed = g.location(a.allocate_one_au(8).unwrap()[0]).rank;
        let victim = a.least_allocated_active_rank(0, &[]).unwrap();
        assert_ne!(victim, packed);
        assert_eq!(a.allocated_in_rank(0, victim), 0);
        // Excluding it picks another.
        let v2 = a.least_allocated_active_rank(0, &[victim]).unwrap();
        assert_ne!(v2, victim);
    }

    #[test]
    fn unbalanced_au_is_an_error_not_an_index_panic() {
        let mut a = SegmentAllocator::new(geo());
        // 5 segments over 2 channels used to index past a channel's share.
        assert!(matches!(a.allocate_one_au(5), Err(DtlError::Internal { .. })));
        assert_eq!(a.free_active_total(), 128, "nothing was taken");
        a.check_consistency().unwrap();
    }

    #[test]
    fn ids_beyond_the_device_are_errors_or_misses() {
        let mut a = SegmentAllocator::new(geo());
        let dsns = a.allocate_one_au(8).unwrap();
        for far in [Dsn(128), Dsn(u64::MAX)] {
            assert!(matches!(a.free_segments(&[far]), Err(DtlError::Internal { .. })));
        }
        let past = SegmentLocation { channel: 0, rank: 0, within: 16 };
        assert!(!a.is_allocated(past));
        assert!(!a.reserve_slot(past));
        assert!(matches!(a.complete_move(past), Err(DtlError::Internal { .. })));
        // Bits 16..64 of the one-word bitmap are padding: still not slots.
        assert!(!a.is_allocated(SegmentLocation { within: 63, ..past }));
        a.free_segments(&dsns).unwrap();
        a.check_consistency().unwrap();
    }

    #[test]
    #[should_panic(expected = "outside the allocator's geometry")]
    fn a_rank_outside_the_geometry_panics_instead_of_aliasing() {
        // Rank 4 of channel 0 would otherwise land on rank 0 of channel 1.
        SegmentAllocator::new(geo()).allocated_in_rank(0, 4);
    }

    #[test]
    #[should_panic(
        expected = "a rank of 4294967296 segments overflows the 32-bit slots of the allocator's free runs"
    )]
    fn a_rank_of_2_pow_32_segments_panics_before_allocating() {
        SegmentAllocator::new(SegmentGeometry {
            channels: 1,
            ranks_per_channel: 1,
            segs_per_rank: 1 << 32,
        });
    }

    /// The free FIFO costs what it holds in runs: one a rank when fresh,
    /// and a freed AU's slots, which queue in ascending order per rank,
    /// extend a run instead of adding one a slot.
    #[test]
    fn a_paper_rank_holds_one_run_fresh_and_two_after_an_au_comes_back() {
        let g = SegmentGeometry { channels: 4, ranks_per_channel: 8, segs_per_rank: 6144 };
        let mut a = SegmentAllocator::new(g);
        let runs = |a: &SegmentAllocator| {
            (0..4).flat_map(|c| (0..8).map(move |r| a.free_runs(c, r))).collect::<Vec<_>>()
        };
        assert!(runs(&a).iter().all(|n| *n == 1));
        let au = a.allocate_one_au(1024).unwrap();
        a.free_segments(&au).unwrap();
        assert!(runs(&a).iter().all(|n| *n <= 2), "{:?}", runs(&a));
        assert_eq!(a.free_runs(0, 0), 2, "256..6144, then 0..256");
        a.check_consistency().unwrap();
    }

    /// Rank choices made on this thread while `f` runs.
    fn rank_choices<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = RANK_CHOICES.with(std::cell::Cell::get);
        let out = f();
        (out, RANK_CHOICES.with(std::cell::Cell::get) - before)
    }

    /// AU allocation's work, counted: a channel chooses its rank once per
    /// rank it takes from, not once per AU. On a fresh paper device 64 AUs
    /// of 1 024 segments take 16 384 a channel, 2⅔ ranks: three choices a
    /// channel, twelve in all, where one choice per channel and AU made
    /// 256. With every other AU back, ranks 0 and 1 queue twelve 256-slot
    /// runs each; 32 AUs take all of both and 2 048 fresh slots of rank 2,
    /// still three choices a channel, and the same DSNs as one call an AU.
    #[test]
    fn a_carve_chooses_a_rank_once_per_rank_it_takes_from() {
        let g = SegmentGeometry { channels: 4, ranks_per_channel: 8, segs_per_rank: 6144 };
        let mut a = SegmentAllocator::new(g);
        let mut aus = Vec::new();
        let (n, choices) = rank_choices(|| a.allocate_aus(1024, 64, &mut aus).unwrap());
        assert_eq!((n, aus.len(), choices), (64, 64, 12));
        for au in aus.iter().step_by(2).rev() {
            a.free_segments(au).unwrap();
        }
        assert_eq!((a.free_runs(0, 0), a.free_runs(0, 1)), (12, 12));
        let mut one_by_one = a.clone();
        let mut again = Vec::new();
        let (_, choices) = rank_choices(|| a.allocate_aus(1024, 32, &mut again).unwrap());
        assert_eq!(choices, 12);
        let (expected, choices) = rank_choices(|| {
            (0..32).map(|_| one_by_one.allocate_one_au(1024).unwrap()).collect::<Vec<_>>()
        });
        assert_eq!(choices, 128, "one choice per channel and AU");
        assert_eq!(again, expected);
        a.check_consistency().unwrap();
    }

    /// The AUs the active ranks hold, never more; none held is a refusal
    /// that takes nothing, none asked an empty answer.
    #[test]
    fn allocate_aus_carves_what_every_channel_holds() {
        let mut a = SegmentAllocator::new(geo());
        // Channel 1 keeps one rank: 16 segments, four AUs' share.
        for r in 1..4 {
            a.set_rank_active(1, r, false);
        }
        let mut aus = Vec::new();
        assert_eq!(a.allocate_aus(8, 0, &mut aus), Ok(0));
        assert!(aus.is_empty());
        assert_eq!(a.allocate_aus(8, 6, &mut aus), Ok(4));
        assert_eq!(aus.len(), 4);
        assert!(aus.iter().all(|au| au.len() == 8));
        let free = a.free_active_total();
        let refused = a.allocate_aus(8, 6, &mut aus);
        assert_eq!(refused, Err(DtlError::OutOfCapacity { requested: 8, free }));
        assert_eq!(a.free_active_total(), free, "a refusal takes nothing");
        assert_eq!(aus.len(), 4, "nor gives a buffer");
        a.check_consistency().unwrap();
    }

    /// A carve writes into the buffers it is given, whatever they held, and
    /// allocates only the ones it lacks: the same DSNs as a carve into
    /// nothing, the spares below the carve left alone.
    #[test]
    fn a_carve_reuses_the_buffers_it_is_given() {
        let mut a = SegmentAllocator::new(geo());
        let mut fresh = Vec::new();
        a.clone().allocate_aus(8, 5, &mut fresh).unwrap();
        let mut spares = vec![vec![Dsn(7); 3], vec![Dsn(9); 12], Vec::with_capacity(8)];
        let kept = spares[0].as_ptr();
        let reused = [spares[1].as_ptr(), spares[2].as_ptr()];
        assert_eq!(a.allocate_aus(8, 2, &mut spares), Ok(2));
        assert_eq!((spares[0].as_ptr(), &spares[0]), (kept, &vec![Dsn(7); 3]));
        assert_eq!([spares[1].as_ptr(), spares[2].as_ptr()], reused);
        assert_eq!(spares[1..], fresh[..2]);
        // Short of buffers: the one there is reused, two are added.
        let mut short = vec![vec![Dsn(5); 8]];
        let reused = short[0].as_ptr();
        assert_eq!(a.allocate_aus(8, 3, &mut short), Ok(3));
        assert_eq!((short.len(), short[0].as_ptr()), (3, reused));
        assert_eq!(short[..], fresh[2..]);
        a.check_consistency().unwrap();
    }

    #[test]
    fn allocated_slots_ascend_across_bitmap_words() {
        let g = SegmentGeometry { channels: 1, ranks_per_channel: 1, segs_per_rank: 200 };
        let mut a = SegmentAllocator::new(g);
        let wanted = [0u64, 1, 63, 64, 65, 127, 128, 199];
        for within in wanted {
            assert!(a.reserve_slot(SegmentLocation { channel: 0, rank: 0, within }));
        }
        assert_eq!(a.allocated_slots(0, 0).collect::<Vec<_>>(), wanted);
        assert_eq!(a.allocated_in_rank(0, 0), 8);
        a.check_consistency().unwrap();
    }

    impl RankSlots {
        /// `free` expanded: its slots in hand-out order.
        fn free_slots(&self) -> impl Iterator<Item = u64> + '_ {
            self.free
                .iter()
                .flat_map(|&(start, len)| u64::from(start)..u64::from(start) + u64::from(len))
        }
    }

    // --- check_consistency has teeth: one hand mutation per violation ----

    /// An allocator with rank (0, 0) holding allocated slots 0..4 and the
    /// one free run 4..16, and what its sweep says after `corrupt` had a go
    /// at it.
    fn violation(corrupt: impl FnOnce(&mut RankSlots)) -> String {
        violation_in(geo(), corrupt)
    }

    /// [`violation`] on a geometry of its own: rank (0, 0) holds allocated
    /// slots 0..4 and one free run from 4 to the rank's end.
    fn violation_in(geo: SegmentGeometry, corrupt: impl FnOnce(&mut RankSlots)) -> String {
        let mut a = SegmentAllocator::new(geo);
        a.allocate_one_au(8).unwrap();
        a.check_consistency().unwrap();
        assert_eq!(a.ranks[0].free, [(4, geo.segs_per_rank as u32 - 4)]);
        corrupt(&mut a.ranks[0]);
        match a.check_consistency() {
            Err(DtlError::Internal { reason }) => reason,
            Ok(()) => panic!("the sweep missed the corruption"),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sweep_catches_a_slot_both_free_and_allocated() {
        let reason = violation(|rank| rank.free[0].0 = 2);
        assert_eq!(reason, "ch0/rk0: slot 2 in both free and allocated");
    }

    #[test]
    fn sweep_catches_a_duplicate_in_the_free_fifo() {
        let reason = violation(|rank| {
            rank.free[0] = (4, 11);
            rank.free.push_back((4, 1));
        });
        assert_eq!(reason, "ch0/rk0: slot 4 queued free twice");
    }

    #[test]
    fn sweep_catches_a_free_slot_outside_the_rank() {
        let reason = violation(|rank| rank.free[0] = (16, 12));
        assert_eq!(reason, "ch0/rk0: free slot 16 outside the rank");
    }

    #[test]
    fn sweep_catches_a_run_crossing_the_end_of_the_rank() {
        let reason = violation(|rank| rank.free[0] = (5, 12));
        assert_eq!(reason, "ch0/rk0: free slot 16 outside the rank");
    }

    #[test]
    fn sweep_catches_an_empty_run() {
        let reason = violation(|rank| rank.free.push_back((9, 0)));
        assert_eq!(reason, "ch0/rk0: free run 1 is empty");
    }

    #[test]
    fn sweep_catches_a_free_count_that_is_not_the_runs_total() {
        let reason = violation(|rank| rank.free_count -= 1);
        assert_eq!(reason, "ch0/rk0: free count 11 but the runs hold 12");
    }

    /// 200 slots a rank: four bitmap words, the last one partial.
    const WIDE: SegmentGeometry =
        SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 200 };

    #[test]
    fn sweep_catches_runs_that_overlap_across_a_word_boundary() {
        // 4..67 runs past the word boundary at 64 into the run 66..199.
        let reason = violation_in(WIDE, |rank| {
            rank.free[0] = (4, 63);
            rank.free.push_back((66, 133));
        });
        assert_eq!(reason, "ch0/rk0: slot 66 queued free twice");
    }

    #[test]
    fn sweep_catches_a_run_whose_last_word_overlaps_an_allocated_bit() {
        // Slot 150 allocated leaves runs 4..150 and 151..200; stretch the
        // first over it (its last slot, in its last word) and shorten the
        // second to keep the total.
        let reason = violation_in(WIDE, |rank| {
            assert!(rank.take(150));
            assert_eq!(rank.free, [(4, 146), (151, 49)]);
            rank.free[0].1 += 1;
            rank.free[1] = (152, 48);
        });
        assert_eq!(reason, "ch0/rk0: slot 150 in both free and allocated");
    }

    #[test]
    fn sweep_catches_a_count_that_is_not_the_popcount() {
        let reason = violation(|rank| rank.allocated_count += 1);
        assert_eq!(reason, "ch0/rk0: allocated count 5 but 4 bits set");
        let reason = violation(|rank| rank.allocated[0] &= !1);
        assert_eq!(reason, "ch0/rk0: allocated count 4 but 3 bits set");
    }

    #[test]
    fn sweep_catches_a_slot_neither_free_nor_allocated() {
        let reason = violation(|rank| rank.free[0].1 -= 1);
        assert_eq!(reason, "ch0/rk0: 11 free + 4 allocated != rank size");
    }

    #[test]
    fn sweep_catches_an_allocated_bit_outside_the_rank() {
        // Counts kept "consistent": bit 16 stands in for the lost slot 4.
        let reason = violation(|rank| {
            rank.free[0] = (5, 11);
            rank.free_count -= 1;
            rank.allocated[0] |= 1 << 16;
            rank.allocated_count += 1;
        });
        assert_eq!(reason, "ch0/rk0: allocated bit outside the rank");
    }

    #[test]
    fn sweep_names_the_rank_it_found_the_violation_in() {
        let mut a = SegmentAllocator::new(geo());
        let i = a.index(1, 2);
        a.ranks[i].allocated_count = 3;
        let Err(DtlError::Internal { reason }) = a.check_consistency() else {
            panic!("the sweep missed the corruption");
        };
        assert!(reason.starts_with("ch1/rk2: "), "{reason}");
    }

    // --- lockstep with the structure this one replaced -------------------

    /// The predecessor of [`SegmentAllocator`], kept as the model the
    /// differential test holds it to: the free FIFO is a `VecDeque` of
    /// slots, the allocated set is a `BTreeSet` per rank and `allocate_au`
    /// picks a rank anew and pops one slot for every segment.
    #[derive(Debug, Clone)]
    struct ReferenceAllocator {
        geo: SegmentGeometry,
        free: Vec<Vec<VecDeque<u64>>>,
        allocated: Vec<Vec<BTreeSet<u64>>>,
        active: Vec<Vec<bool>>,
    }

    impl ReferenceAllocator {
        fn new(geo: SegmentGeometry) -> Self {
            fn per_rank<T: Clone>(geo: SegmentGeometry, v: T) -> Vec<Vec<T>> {
                vec![vec![v; geo.ranks_per_channel as usize]; geo.channels as usize]
            }
            ReferenceAllocator {
                geo,
                free: per_rank(geo, (0..geo.segs_per_rank).collect()),
                allocated: per_rank(geo, BTreeSet::new()),
                active: per_rank(geo, true),
            }
        }

        fn free_in_channel_active(&self, c: usize) -> u64 {
            (0..self.geo.ranks_per_channel as usize)
                .filter(|r| self.active[c][*r])
                .map(|r| self.free[c][r].len() as u64)
                .sum()
        }

        fn free_active_total(&self) -> u64 {
            (0..self.geo.channels as usize).map(|c| self.free_in_channel_active(c)).sum()
        }

        fn least_allocated_active_rank(&self, c: usize, exclude: &[u32]) -> Option<u32> {
            (0..self.geo.ranks_per_channel)
                .filter(|r| self.active[c][*r as usize] && !exclude.contains(r))
                .min_by_key(|r| (self.allocated[c][*r as usize].len(), *r))
        }

        fn allocate_au(&mut self, segments_per_au: u64) -> Result<Vec<Dsn>, DtlError> {
            let channels = u64::from(self.geo.channels);
            let per_channel = segments_per_au / channels;
            for c in 0..self.geo.channels as usize {
                if self.free_in_channel_active(c) < per_channel {
                    return Err(DtlError::OutOfCapacity {
                        requested: segments_per_au,
                        free: self.free_active_total(),
                    });
                }
            }
            let mut per_channel_slots = Vec::new();
            for c in 0..self.geo.channels {
                let mut slots = Vec::new();
                while (slots.len() as u64) < per_channel {
                    let rank = (0..self.geo.ranks_per_channel)
                        .filter(|r| {
                            self.active[c as usize][*r as usize]
                                && !self.free[c as usize][*r as usize].is_empty()
                        })
                        .max_by_key(|r| {
                            (self.allocated[c as usize][*r as usize].len(), u32::MAX - *r)
                        })
                        .expect("feasibility checked above");
                    let within = self.free[c as usize][rank as usize].pop_front().unwrap();
                    self.allocated[c as usize][rank as usize].insert(within);
                    slots.push(SegmentLocation { channel: c, rank, within });
                }
                per_channel_slots.push(slots);
            }
            Ok((0..segments_per_au)
                .map(|k| {
                    self.geo
                        .dsn(per_channel_slots[(k % channels) as usize][(k / channels) as usize])
                })
                .collect())
        }

        /// `allocate_au` up to `max` times, until it first fails: the first
        /// refusal is the answer, a later one ends the list.
        fn allocate_aus(&mut self, segments: u64, max: u64) -> Result<Vec<Vec<Dsn>>, DtlError> {
            let mut aus = Vec::new();
            for _ in 0..max {
                match self.allocate_au(segments) {
                    Ok(au) => aus.push(au),
                    Err(e) if aus.is_empty() => return Err(e),
                    Err(_) => break,
                }
            }
            Ok(aus)
        }

        fn free_segments(&mut self, dsns: &[Dsn]) -> Result<(), DtlError> {
            for d in dsns {
                self.complete_move(self.geo.location(*d))?;
            }
            Ok(())
        }

        fn reserve_slot(&mut self, loc: SegmentLocation) -> bool {
            let fq = &mut self.free[loc.channel as usize][loc.rank as usize];
            let Some(pos) = fq.iter().position(|w| *w == loc.within) else {
                return false;
            };
            fq.remove(pos);
            self.allocated[loc.channel as usize][loc.rank as usize].insert(loc.within);
            true
        }

        fn take_free_in_rank(&mut self, channel: u32, rank: u32) -> Option<SegmentLocation> {
            let within = self.free[channel as usize][rank as usize].pop_front()?;
            self.allocated[channel as usize][rank as usize].insert(within);
            Some(SegmentLocation { channel, rank, within })
        }

        fn complete_move(&mut self, src: SegmentLocation) -> Result<(), DtlError> {
            if !self.allocated[src.channel as usize][src.rank as usize].remove(&src.within) {
                return Err(DtlError::Internal { reason: "not allocated".into() });
            }
            self.free[src.channel as usize][src.rank as usize].push_back(src.within);
            Ok(())
        }

        fn is_allocated(&self, loc: SegmentLocation) -> bool {
            self.allocated[loc.channel as usize][loc.rank as usize].contains(&loc.within)
        }

        fn swap_status(&mut self, a: SegmentLocation, b: SegmentLocation) {
            let (a_alloc, b_alloc) = (self.is_allocated(a), self.is_allocated(b));
            if a_alloc == b_alloc {
                return;
            }
            let (live, free) = if a_alloc { (a, b) } else { (b, a) };
            self.complete_move(live).expect("live is allocated");
            assert!(self.reserve_slot(free), "in-range slots are allocated or free");
        }

        fn check_consistency(&self) -> Result<(), DtlError> {
            for c in 0..self.geo.channels as usize {
                for r in 0..self.geo.ranks_per_channel as usize {
                    let mut seen = self.allocated[c][r].clone();
                    let distinct = self.free[c][r].iter().all(|w| seen.insert(*w));
                    if !distinct || seen.len() as u64 != self.geo.segs_per_rank {
                        return Err(DtlError::Internal { reason: format!("ch{c}/rk{r}") });
                    }
                }
            }
            Ok(())
        }
    }

    /// 2 x 3 x 8 = 48 segments: a few AUs fill it, so spills, exhaustion and
    /// inactive ranks all come up.
    const PROP_GEO: SegmentGeometry =
        SegmentGeometry { channels: 2, ranks_per_channel: 3, segs_per_rank: 8 };

    #[derive(Debug, Clone)]
    enum Op {
        AllocateAu {
            segments: u64,
        },
        /// Up to `max` AUs in one call, `max` 0 included, carved into the
        /// spare stack.
        AllocateAus {
            segments: u64,
            max: u64,
        },
        /// Frees the `i`-th AU handed out and still held (whatever moves
        /// and swaps did to its slots since), and puts its buffer, stale
        /// DSNs and all, on the spare stack.
        FreeAu {
            i: usize,
        },
        /// Puts a buffer of `len` stale DSNs on the spare stack: longer,
        /// shorter or as long as the AUs carved into it.
        Spare {
            len: usize,
        },
        /// Frees one DSN outright: free ones (double free) and ones past
        /// the device included.
        FreeOne {
            dsn: u64,
        },
        /// Up to `max` consecutive slots, `max` 0 included.
        TakeFreeRun {
            channel: u32,
            rank: u32,
            max: u64,
        },
        /// `within` runs two past the rank.
        Reserve {
            loc: SegmentLocation,
        },
        CompleteMove {
            loc: SegmentLocation,
        },
        SwapStatus {
            a: SegmentLocation,
            b: SegmentLocation,
        },
        SetActive {
            channel: u32,
            rank: u32,
            active: bool,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let rank = || (0..PROP_GEO.channels, 0..PROP_GEO.ranks_per_channel);
        let loc = |slots: u64| {
            (rank(), 0..slots).prop_map(|((channel, rank), within)| SegmentLocation {
                channel,
                rank,
                within,
            })
        };
        let (inside, past) = (PROP_GEO.segs_per_rank, PROP_GEO.segs_per_rank + 2);
        prop_oneof![
            6 => (1u64..5).prop_map(|n| Op::AllocateAu { segments: 2 * n }),
            4 => (1u64..5, 0u64..6).prop_map(|(n, max)| Op::AllocateAus { segments: 2 * n, max }),
            4 => (0usize..8).prop_map(|i| Op::FreeAu { i }),
            2 => (0usize..12).prop_map(|len| Op::Spare { len }),
            2 => (0..PROP_GEO.total_segments() + 4).prop_map(|dsn| Op::FreeOne { dsn }),
            5 => (rank(), 0u64..6)
                .prop_map(|((channel, rank), max)| Op::TakeFreeRun { channel, rank, max }),
            3 => loc(past).prop_map(|loc| Op::Reserve { loc }),
            3 => loc(past).prop_map(|loc| Op::CompleteMove { loc }),
            3 => (loc(inside), loc(inside)).prop_map(|(a, b)| Op::SwapStatus { a, b }),
            2 => (rank(), any::<bool>())
                .prop_map(|((channel, rank), active)| Op::SetActive { channel, rank, active }),
        ]
    }

    /// Ok values exactly, errors by variant and payload except the
    /// free-text reason of `Internal`.
    fn shape<T>(r: Result<T, DtlError>) -> Result<T, String> {
        r.map_err(|e| match e {
            DtlError::Internal { .. } => "Internal".into(),
            other => other.to_string(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run-and-bitmap allocator and the slot-and-`BTreeSet`
        /// reference, fed the same operations, hand out the same DSNs in the
        /// same order, fail alike, and agree on every query — each rank's
        /// free FIFO, expanded from its runs, element for element — after
        /// every step. The one designed difference: a DSN beyond the
        /// device is `Internal` here, where the reference would not survive
        /// decomposing it. A step that leaves the generation where it was
        /// leaves the allocator exactly as it was. Multi-AU carves go into
        /// a spare stack of freed AUs' buffers and stale ones of any
        /// length, which must change nothing but the buffers they reuse.
        #[test]
        fn lockstep_with_the_btreeset_reference(
            steps in prop::collection::vec(op_strategy(), 1..100),
        ) {
            let mut dense = SegmentAllocator::new(PROP_GEO);
            let mut model = ReferenceAllocator::new(PROP_GEO);
            let mut held: Vec<Vec<Dsn>> = Vec::new();
            let mut spares: Vec<Vec<Dsn>> = Vec::new();
            for op in steps {
                let (before, generation) = (dense.clone(), dense.generation());
                match op {
                    Op::AllocateAu { segments } => {
                        let got = dense.allocate_one_au(segments);
                        prop_assert_eq!(shape(got.clone()), shape(model.allocate_au(segments)));
                        held.extend(got);
                    }
                    Op::AllocateAus { segments, max } => {
                        let untouched = spares.clone();
                        let got = dense.allocate_aus(segments, max, &mut spares);
                        let carved = got.clone().map(|n| spares[spares.len() - n..].to_vec());
                        prop_assert_eq!(shape(carved), shape(model.allocate_aus(segments, max)));
                        let n = got.unwrap_or(0);
                        let kept = untouched.len().min(spares.len() - n);
                        prop_assert_eq!(&spares[..kept], &untouched[..kept], "a spare below the carve");
                        held.extend(spares.drain(spares.len() - n..));
                    }
                    Op::FreeAu { i } => {
                        if !held.is_empty() {
                            let au = held.remove(i % held.len());
                            prop_assert_eq!(
                                shape(dense.free_segments(&au)),
                                shape(model.free_segments(&au))
                            );
                            spares.push(au);
                        }
                    }
                    Op::Spare { len } => spares.push(vec![Dsn(u64::MAX); len]),
                    Op::FreeOne { dsn } => {
                        let got = shape(dense.free_segments(&[Dsn(dsn)]));
                        if dsn >= PROP_GEO.total_segments() {
                            prop_assert_eq!(got, Err("Internal".into()));
                        } else {
                            prop_assert_eq!(got, shape(model.free_segments(&[Dsn(dsn)])));
                        }
                    }
                    Op::TakeFreeRun { channel, rank, max } => {
                        // The run is the head of the FIFO: the model hands
                        // out the same slots one at a time.
                        match dense.take_free_run_in_rank(channel, rank, max) {
                            Some((first, n)) => {
                                prop_assert!((1..=max).contains(&n));
                                for within in first.within..first.within + n {
                                    let loc = SegmentLocation { channel, rank, within };
                                    prop_assert_eq!(model.take_free_in_rank(channel, rank), Some(loc));
                                }
                            }
                            None => prop_assert!(
                                max == 0 || model.take_free_in_rank(channel, rank).is_none()
                            ),
                        }
                    }
                    Op::Reserve { loc } => {
                        prop_assert_eq!(dense.reserve_slot(loc), model.reserve_slot(loc));
                    }
                    Op::CompleteMove { loc } => {
                        prop_assert_eq!(shape(dense.complete_move(loc)), shape(model.complete_move(loc)));
                    }
                    Op::SwapStatus { a, b } => {
                        dense.swap_status(a, b);
                        model.swap_status(a, b);
                    }
                    Op::SetActive { channel, rank, active } => {
                        dense.set_rank_active(channel, rank, active);
                        model.active[channel as usize][rank as usize] = active;
                    }
                }
                if dense.generation() == generation {
                    prop_assert_eq!(&dense, &before, "changed without a new generation");
                }
                prop_assert_eq!(shape(dense.check_consistency()), shape(model.check_consistency()));
                prop_assert_eq!(dense.free_active_total(), model.free_active_total());
                for c in 0..PROP_GEO.channels {
                    let ci = c as usize;
                    prop_assert_eq!(dense.free_in_channel_active(c), model.free_in_channel_active(ci));
                    for exclude in [&[][..], &[0], &[1, 2]] {
                        prop_assert_eq!(
                            dense.least_allocated_active_rank(c, exclude),
                            model.least_allocated_active_rank(ci, exclude)
                        );
                    }
                    for r in 0..PROP_GEO.ranks_per_channel {
                        let ri = r as usize;
                        prop_assert_eq!(
                            dense.rank(c, r).free_slots().collect::<VecDeque<_>>(),
                            model.free[ci][ri].clone(),
                            "ch{} rk{}", c, r
                        );
                        prop_assert_eq!(
                            dense.allocated_slots(c, r).collect::<Vec<_>>(),
                            model.allocated[ci][ri].iter().copied().collect::<Vec<_>>()
                        );
                        prop_assert_eq!(dense.allocated_in_rank(c, r), model.allocated[ci][ri].len() as u64);
                        prop_assert_eq!(dense.free_in_rank(c, r), model.free[ci][ri].len() as u64);
                        prop_assert_eq!(dense.is_rank_active(c, r), model.active[ci][ri]);
                        for within in 0..PROP_GEO.segs_per_rank + 2 {
                            let loc = SegmentLocation { channel: c, rank: r, within };
                            prop_assert_eq!(dense.is_allocated(loc), model.is_allocated(loc));
                        }
                    }
                }
            }
        }
    }
}
