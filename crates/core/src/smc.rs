//! The two-level segment mapping cache (SMC) — the paper's TLB-like
//! structure that keeps HSN→DSN translations close to the datapath
//! (§3.2, Table 3): a 64-entry fully-associative L1 and a 1024-entry
//! 4-way set-associative L2, both LRU.
//!
//! The hardware L1 compares all its tags in one cycle; the model gets the
//! same O(1) from an exact key → slot hash index beside the entry array
//! ([`L1Index`]). Only the replacement decision still walks the entries,
//! and it runs on an L1 miss only.

use serde::{Deserialize, Serialize};

use crate::addr::{AuId, Dsn, HostId, Hsn};

#[cfg(test)]
thread_local! {
    /// L1 slots [`SegmentMappingCache::invalidate_au`] has scanned on this
    /// thread: a release's SMC work, counted rather than timed.
    pub(crate) static L1_SLOTS_SCANNED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Where a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SmcOutcome {
    /// Hit in the L1 SMC (1 controller cycle).
    L1Hit,
    /// Hit in the L2 SMC (7 controller cycles).
    L2Hit,
    /// Missed both levels; the three-level table walk is needed.
    Miss,
}

/// Hit/miss counters of both levels.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmcStats {
    /// Lookups that hit L1.
    pub l1_hits: u64,
    /// Lookups that missed L1.
    pub l1_misses: u64,
    /// L1 misses that hit L2.
    pub l2_hits: u64,
    /// L1 misses that also missed L2.
    pub l2_misses: u64,
}

impl SmcStats {
    /// L1 miss ratio over all lookups (the paper measures 14.7 %).
    pub fn l1_miss_ratio(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_misses as f64 / total as f64
        }
    }

    /// L2 miss ratio over L1 misses (the paper measures 15.4 %).
    pub fn l2_miss_ratio(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: u64,
    dsn: Dsn,
    lru: u64,
    valid: bool,
}

const INVALID: Entry = Entry { key: 0, dsn: Dsn(0), lru: 0, valid: false };

/// Exact key → slot index over the *valid* L1 entries: open addressing
/// with linear probing at a load factor of at most 1/4, backward-shift
/// deletion (no tombstones, so a probe always ends at the first empty
/// bucket). A bucket holds `slot + 1`, 0 when empty; the key itself stays
/// in the entry, so the two can never disagree about it.
///
/// Invariant, kept by [`SegmentMappingCache`]: a slot is indexed exactly
/// while its entry is valid, and no two valid entries share a key.
#[derive(Debug, Clone)]
struct L1Index {
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl L1Index {
    fn new(l1_entries: usize) -> Self {
        assert!(u32::try_from(l1_entries).is_ok_and(|n| n < u32::MAX / 4), "L1 SMC too large");
        let buckets = (4 * l1_entries).next_power_of_two();
        L1Index { buckets: vec![0; buckets], shift: 64 - buckets.trailing_zeros() }
    }

    /// Home bucket of `key`. Packed HSNs differ mostly in their low
    /// (AU offset) bits; the Fibonacci multiplier spreads those over the
    /// top bits the shift keeps.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    #[inline]
    fn next(&self, bucket: usize) -> usize {
        (bucket + 1) & (self.buckets.len() - 1)
    }

    /// `(bucket, slot)` of the valid entry holding `key`.
    #[inline]
    fn probe(&self, key: u64, l1: &[Entry]) -> Option<(usize, usize)> {
        let mut b = self.home(key);
        loop {
            let slot = self.buckets[b].checked_sub(1)? as usize;
            if l1[slot].key == key {
                return Some((b, slot));
            }
            b = self.next(b);
        }
    }

    /// The slot of the valid entry holding `key`.
    #[inline]
    fn find(&self, key: u64, l1: &[Entry]) -> Option<usize> {
        self.probe(key, l1).map(|(_, slot)| slot)
    }

    /// Indexes `slot` under `key`, which must not be indexed yet.
    fn insert(&mut self, key: u64, slot: usize) {
        let mut b = self.home(key);
        while self.buckets[b] != 0 {
            b = self.next(b);
        }
        self.buckets[b] = slot as u32 + 1;
    }

    /// Drops `key` from the index and returns the slot it was in; the
    /// entries of `l1` must still hold the keys they were indexed under.
    /// Later entries of the probe run move back into the hole unless that
    /// would put them before their home bucket.
    fn remove(&mut self, key: u64, l1: &[Entry]) -> Option<usize> {
        let (mut hole, slot) = self.probe(key, l1)?;
        let mask = self.buckets.len() - 1;
        let mut b = hole;
        loop {
            b = self.next(b);
            let Some(moved) = self.buckets[b].checked_sub(1) else { break };
            let home = self.home(l1[moved as usize].key);
            // Cyclic distances back from `b`: the entry may move iff its
            // home is not inside (hole, b].
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.buckets[hole] = moved + 1;
                hole = b;
            }
        }
        self.buckets[hole] = 0;
        Some(slot)
    }
}

/// The two-level segment mapping cache.
///
/// # Examples
///
/// ```
/// use dtl_core::{Dsn, Hsn, HostId, AuId, SegmentMappingCache, SmcOutcome};
///
/// let mut smc = SegmentMappingCache::new(4, 16, 4);
/// let hsn = Hsn { host: HostId(0), au: AuId(0), au_offset: 7 };
/// assert_eq!(smc.lookup(hsn), (SmcOutcome::Miss, None));
/// smc.fill(hsn, Dsn(42));
/// assert_eq!(smc.lookup(hsn), (SmcOutcome::L1Hit, Some(Dsn(42))));
/// ```
#[derive(Debug, Clone)]
pub struct SegmentMappingCache {
    l1: Vec<Entry>,
    l1_index: L1Index,
    l2: Vec<Entry>,
    l2_sets: usize,
    l2_ways: usize,
    /// Valid entries over both levels: at 0 an invalidation has nothing
    /// to find and returns at once.
    valid: usize,
    tick: u64,
    stats: SmcStats,
}

impl SegmentMappingCache {
    /// Builds an empty SMC.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero, `l2_entries` is not divisible by
    /// `l2_ways`, or the L2 set count is not a power of two.
    pub fn new(l1_entries: usize, l2_entries: usize, l2_ways: usize) -> Self {
        assert!(l1_entries > 0 && l2_entries > 0 && l2_ways > 0, "SMC sizes must be non-zero");
        assert_eq!(l2_entries % l2_ways, 0, "L2 entries must divide into ways");
        let l2_sets = l2_entries / l2_ways;
        assert!(l2_sets.is_power_of_two(), "L2 set count must be a power of two");
        SegmentMappingCache {
            l1: vec![INVALID; l1_entries],
            l1_index: L1Index::new(l1_entries),
            l2: vec![INVALID; l2_entries],
            l2_sets,
            l2_ways,
            valid: 0,
            tick: 0,
            stats: SmcStats::default(),
        }
    }

    /// Builds the paper's SMC: 64-entry L1, 1024-entry 4-way L2.
    pub fn paper() -> Self {
        SegmentMappingCache::new(64, 1024, 4)
    }

    /// Statistics so far.
    pub fn stats(&self) -> SmcStats {
        self.stats
    }

    fn l2_set_range(&self, key: u64) -> std::ops::Range<usize> {
        let set = (key as usize) & (self.l2_sets - 1);
        let start = set * self.l2_ways;
        start..start + self.l2_ways
    }

    /// Looks up `hsn`; on an L2 hit the entry is promoted into L1.
    pub fn lookup(&mut self, hsn: Hsn) -> (SmcOutcome, Option<Dsn>) {
        let key = hsn.pack();
        self.tick += 1;
        let tick = self.tick;
        // L1: fully associative, one probe of the index.
        if let Some(slot) = self.l1_index.find(key, &self.l1) {
            let e = &mut self.l1[slot];
            e.lru = tick;
            self.stats.l1_hits += 1;
            return (SmcOutcome::L1Hit, Some(e.dsn));
        }
        self.stats.l1_misses += 1;
        // L2.
        let range = self.l2_set_range(key);
        let mut found: Option<Dsn> = None;
        for e in &mut self.l2[range] {
            if e.valid && e.key == key {
                e.lru = tick;
                found = Some(e.dsn);
                break;
            }
        }
        if let Some(dsn) = found {
            self.stats.l2_hits += 1;
            self.insert_l1(key, dsn);
            (SmcOutcome::L2Hit, Some(dsn))
        } else {
            self.stats.l2_misses += 1;
            (SmcOutcome::Miss, None)
        }
    }

    /// Installs a translation after a table walk (fills both levels).
    pub fn fill(&mut self, hsn: Hsn, dsn: Dsn) {
        let key = hsn.pack();
        self.tick += 1;
        self.insert_l1(key, dsn);
        self.insert_l2(key, dsn);
    }

    /// Invalidates an HSN in both levels (called on remap); returns whether
    /// any entry was present.
    pub fn invalidate(&mut self, hsn: Hsn) -> bool {
        if self.valid == 0 {
            return false;
        }
        let key = hsn.pack();
        let mut any = false;
        if let Some(slot) = self.l1_index.remove(key, &self.l1) {
            self.l1[slot].valid = false;
            self.valid -= 1;
            any = true;
        }
        // A key only ever lives in its own L2 set (where `insert_l2` put it).
        let range = self.l2_set_range(key);
        for e in &mut self.l2[range] {
            if e.valid && e.key == key {
                e.valid = false;
                self.valid -= 1;
                any = true;
            }
        }
        any
    }

    /// Invalidates offsets `0..n` of one AU in both levels (called when the
    /// AU is released), leaving exactly the entries that `n` calls of
    /// [`SegmentMappingCache::invalidate`] would; returns whether any entry
    /// was present. One pass over L1 and over each L2 set those offsets
    /// map to, instead of `n` index probes and `n` set scans; none at all
    /// while the cache holds no valid entry (a device that has served no
    /// access).
    pub fn invalidate_au(&mut self, host: HostId, au: AuId, n: u32) -> bool {
        if self.valid == 0 {
            return false;
        }
        #[cfg(test)]
        L1_SLOTS_SCANNED.with(|c| c.set(c.get() + self.l1.len() as u64));
        let base = Hsn { host, au, au_offset: 0 }.pack();
        // A key is one of the AU's first `n` offsets iff it lies `< n` above
        // the AU's offset 0 (offsets are the low bits, `n` fits their field).
        let hit = |e: &Entry| e.valid && e.key.wrapping_sub(base) < u64::from(n);
        let mut any = false;
        for slot in 0..self.l1.len() {
            if hit(&self.l1[slot]) {
                self.l1_index.remove(self.l1[slot].key, &self.l1);
                self.l1[slot].valid = false;
                self.valid -= 1;
                any = true;
            }
        }
        // Consecutive keys fill consecutive sets, wrapping after the last.
        for i in 0..u64::from(n).min(self.l2_sets as u64) {
            let range = self.l2_set_range(base + i);
            for e in &mut self.l2[range] {
                if hit(e) {
                    e.valid = false;
                    self.valid -= 1;
                    any = true;
                }
            }
        }
        any
    }

    fn insert_l1(&mut self, key: u64, dsn: Dsn) {
        let tick = self.tick;
        if let Some(slot) = self.l1_index.find(key, &self.l1) {
            let e = &mut self.l1[slot];
            e.dsn = dsn;
            e.lru = tick;
            return;
        }
        // The lowest-index invalid slot, else the least recently used. A
        // scan, but one that runs only when L1 missed.
        let (victim, _) = self
            .l1
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.lru + 1 } else { 0 })
            .expect("l1 non-empty");
        if self.l1[victim].valid {
            self.l1_index.remove(self.l1[victim].key, &self.l1);
        } else {
            self.valid += 1;
        }
        self.l1[victim] = Entry { key, dsn, lru: tick, valid: true };
        self.l1_index.insert(key, victim);
    }

    fn insert_l2(&mut self, key: u64, dsn: Dsn) {
        let tick = self.tick;
        let range = self.l2_set_range(key);
        let set = &mut self.l2[range];
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.key == key) {
            e.dsn = dsn;
            e.lru = tick;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru + 1 } else { 0 })
            .expect("set non-empty");
        if !victim.valid {
            self.valid += 1;
        }
        *victim = Entry { key, dsn, lru: tick, valid: true };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AuId, HostId};
    use proptest::prelude::*;

    fn hsn(off: u32) -> Hsn {
        Hsn { host: HostId(0), au: AuId(0), au_offset: off }
    }

    #[test]
    fn miss_fill_hit_cycle() {
        let mut smc = SegmentMappingCache::new(2, 8, 2);
        assert_eq!(smc.lookup(hsn(1)), (SmcOutcome::Miss, None));
        smc.fill(hsn(1), Dsn(10));
        assert_eq!(smc.lookup(hsn(1)), (SmcOutcome::L1Hit, Some(Dsn(10))));
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut smc = SegmentMappingCache::new(2, 64, 4);
        for i in 0..8 {
            smc.fill(hsn(i), Dsn(u64::from(i)));
        }
        // hsn(0) long evicted from the 2-entry L1, still in L2.
        let (outcome, dsn) = smc.lookup(hsn(0));
        assert_eq!(outcome, SmcOutcome::L2Hit);
        assert_eq!(dsn, Some(Dsn(0)));
        // And the L2 hit promoted it to L1.
        assert_eq!(smc.lookup(hsn(0)).0, SmcOutcome::L1Hit);
    }

    #[test]
    fn invalidate_removes_from_both_levels() {
        let mut smc = SegmentMappingCache::new(2, 8, 2);
        smc.fill(hsn(1), Dsn(10));
        assert!(smc.invalidate(hsn(1)));
        assert_eq!(smc.lookup(hsn(1)), (SmcOutcome::Miss, None));
        assert!(!smc.invalidate(hsn(1)), "second invalidate finds nothing");
    }

    #[test]
    fn invalidate_leaves_every_other_key_valid() {
        // A 1-entry L1, so the lookups below are answered by the L2.
        let mut smc = SegmentMappingCache::new(1, 16, 2);
        let sets = 8u32;
        // Two keys per set: offsets `s` and `s + sets` share L2 set `s`.
        for off in 0..2 * sets {
            smc.fill(hsn(off), Dsn(u64::from(off)));
        }
        assert!(smc.invalidate(hsn(3)));
        for off in (0..2 * sets).filter(|&o| o != 3) {
            assert_eq!(smc.lookup(hsn(off)).1, Some(Dsn(u64::from(off))), "offset {off}");
        }
        assert_eq!(smc.lookup(hsn(3)), (SmcOutcome::Miss, None));
    }

    #[test]
    fn invalidate_misses_at_both_levels_wherever_the_entry_lived() {
        let mut smc = SegmentMappingCache::new(2, 64, 4);
        // L1-resident: the most recent fill.
        smc.fill(hsn(100), Dsn(100));
        assert!(smc.invalidate(hsn(100)));
        assert_eq!(smc.lookup(hsn(100)), (SmcOutcome::Miss, None));
        // L2-only: evicted from the 2-entry L1 by later fills.
        for i in 0..8 {
            smc.fill(hsn(i), Dsn(u64::from(i)));
        }
        assert!(smc.invalidate(hsn(0)));
        assert_eq!(smc.lookup(hsn(0)), (SmcOutcome::Miss, None));
        // Promoted: an L2 hit copied it back into L1, so both levels hold it.
        assert_eq!(smc.lookup(hsn(1)).0, SmcOutcome::L2Hit);
        assert!(smc.invalidate(hsn(1)));
        assert_eq!(smc.lookup(hsn(1)), (SmcOutcome::Miss, None));
        assert!(!smc.invalidate(hsn(1)), "nothing left at either level");
    }

    #[test]
    fn invalidate_au_takes_its_offsets_and_nothing_else() {
        // 4 L2 sets: the AU's six offsets wrap round them.
        let mut smc = SegmentMappingCache::new(2, 16, 4);
        let other = |off| Hsn { host: HostId(0), au: AuId(1), au_offset: off };
        for off in 0..7 {
            smc.fill(hsn(off), Dsn(u64::from(off)));
            smc.fill(other(off), Dsn(100 + u64::from(off)));
        }
        assert!(smc.invalidate_au(HostId(0), AuId(0), 6));
        for off in 0..6 {
            assert_eq!(smc.lookup(hsn(off)), (SmcOutcome::Miss, None), "offset {off}");
        }
        assert_eq!(smc.lookup(hsn(6)).1, Some(Dsn(6)), "past the AU's length");
        for off in 0..7 {
            assert_eq!(smc.lookup(other(off)).1, Some(Dsn(100 + u64::from(off))));
        }
        assert!(!smc.invalidate_au(HostId(0), AuId(0), 6), "nothing left");
        assert!(!smc.invalidate_au(HostId(0), AuId(2), 7), "never filled");
    }

    #[test]
    fn refill_updates_translation() {
        let mut smc = SegmentMappingCache::new(4, 8, 2);
        smc.fill(hsn(1), Dsn(10));
        smc.fill(hsn(1), Dsn(20)); // remap
        assert_eq!(smc.lookup(hsn(1)).1, Some(Dsn(20)));
    }

    #[test]
    fn stats_track_ratios() {
        let mut smc = SegmentMappingCache::new(2, 8, 2);
        smc.lookup(hsn(1)); // miss
        smc.fill(hsn(1), Dsn(1));
        smc.lookup(hsn(1)); // L1 hit
        let s = smc.stats();
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l2_misses, 1);
        assert!((s.l1_miss_ratio() - 0.5).abs() < 1e-12);
        assert!((s.l2_miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_hosts_do_not_collide() {
        let mut smc = SegmentMappingCache::paper();
        let a = Hsn { host: HostId(1), au: AuId(0), au_offset: 0 };
        let b = Hsn { host: HostId(2), au: AuId(0), au_offset: 0 };
        smc.fill(a, Dsn(1));
        smc.fill(b, Dsn(2));
        assert_eq!(smc.lookup(a).1, Some(Dsn(1)));
        assert_eq!(smc.lookup(b).1, Some(Dsn(2)));
    }

    #[test]
    fn lru_prefers_invalid_ways() {
        let mut smc = SegmentMappingCache::new(1, 4, 4);
        // All four L2 entries map to the single set.
        for i in 0..4 {
            smc.fill(hsn(i), Dsn(u64::from(i)));
        }
        // All four must be resident (invalid ways were used first).
        for i in 0..4 {
            assert_ne!(smc.lookup(hsn(i)).0, SmcOutcome::Miss, "offset {i}");
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_ways_panics() {
        let _ = SegmentMappingCache::new(4, 10, 4);
    }

    // --- the L1 index on its own -----------------------------------------

    impl SegmentMappingCache {
        /// The index holds exactly the valid L1 entries, each reachable
        /// from its key, and the kept count is the valid entries of both
        /// levels.
        fn check_index(&self) {
            let indexed = self.l1_index.buckets.iter().filter(|b| **b != 0).count();
            assert_eq!(indexed, self.l1.iter().filter(|e| e.valid).count(), "indexed vs valid");
            let valid = self.l1.iter().chain(&self.l2).filter(|e| e.valid).count();
            assert_eq!(self.valid, valid, "kept valid count");
            for (slot, e) in self.l1.iter().enumerate().filter(|(_, e)| e.valid) {
                assert_eq!(self.l1_index.find(e.key, &self.l1), Some(slot), "key {:#x}", e.key);
            }
        }
    }

    /// `n` keys whose home is `bucket` in an index sized for `l1_entries`.
    fn keys_homed_at(l1_entries: usize, bucket: usize, n: usize) -> Vec<u64> {
        let index = L1Index::new(l1_entries);
        (0..u64::MAX).filter(|k| index.home(*k) == bucket).take(n).collect()
    }

    #[test]
    fn removing_mid_run_keeps_the_rest_of_the_run_reachable() {
        // 16 buckets. Slots 0, 1, 3 hold keys homed at the last bucket,
        // slot 2 one homed at bucket 0: a run over buckets 15, 0, 1, 2.
        let mut index = L1Index::new(4);
        let wrap = keys_homed_at(4, 15, 3);
        let keys = [wrap[0], wrap[1], keys_homed_at(4, 0, 1)[0], wrap[2]];
        let l1: Vec<Entry> =
            keys.iter().map(|&key| Entry { key, dsn: Dsn(0), lru: 0, valid: true }).collect();
        for (slot, &key) in keys.iter().enumerate() {
            index.insert(key, slot);
        }
        assert_eq!(index.buckets, [2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        // Take out the head of the run: everything behind it moves back one
        // bucket, across the wrap; the key homed at 0 lands on its home.
        assert_eq!(index.remove(keys[0], &l1), Some(0));
        assert_eq!(index.buckets, [3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]);
        // Take out the new head: the key homed at 0 may not move before its
        // home, the one behind it jumps over it into the hole.
        assert_eq!(index.remove(keys[1], &l1), Some(1));
        assert_eq!(index.buckets, [3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4]);
        for (slot, &key) in keys.iter().enumerate() {
            let kept = (slot >= 2).then_some(slot);
            assert_eq!(index.find(key, &l1), kept);
        }
        assert_eq!(index.remove(keys[0], &l1), None, "already gone");
    }

    #[test]
    fn index_is_sized_at_four_buckets_an_entry() {
        for (entries, buckets) in [(1, 4), (2, 8), (3, 16), (8, 32), (64, 256)] {
            assert_eq!(L1Index::new(entries).buckets.len(), buckets);
        }
    }

    // --- lockstep with the structure this one replaced -------------------

    /// The predecessor of [`SegmentMappingCache`]: the same two arrays and
    /// rules, every L1 operation a linear scan of the entry array.
    #[derive(Debug, Clone)]
    struct ReferenceSmc {
        l1: Vec<Entry>,
        l2: Vec<Entry>,
        l2_sets: usize,
        l2_ways: usize,
        tick: u64,
        stats: SmcStats,
    }

    impl ReferenceSmc {
        fn new(l1_entries: usize, l2_entries: usize, l2_ways: usize) -> Self {
            ReferenceSmc {
                l1: vec![INVALID; l1_entries],
                l2: vec![INVALID; l2_entries],
                l2_sets: l2_entries / l2_ways,
                l2_ways,
                tick: 0,
                stats: SmcStats::default(),
            }
        }

        fn l2_set_range(&self, key: u64) -> std::ops::Range<usize> {
            let set = (key as usize) & (self.l2_sets - 1);
            let start = set * self.l2_ways;
            start..start + self.l2_ways
        }

        fn lookup(&mut self, hsn: Hsn) -> (SmcOutcome, Option<Dsn>) {
            let key = hsn.pack();
            self.tick += 1;
            let tick = self.tick;
            if let Some(e) = self.l1.iter_mut().find(|e| e.valid && e.key == key) {
                e.lru = tick;
                self.stats.l1_hits += 1;
                return (SmcOutcome::L1Hit, Some(e.dsn));
            }
            self.stats.l1_misses += 1;
            let range = self.l2_set_range(key);
            let mut found: Option<Dsn> = None;
            for e in &mut self.l2[range] {
                if e.valid && e.key == key {
                    e.lru = tick;
                    found = Some(e.dsn);
                    break;
                }
            }
            if let Some(dsn) = found {
                self.stats.l2_hits += 1;
                self.insert_l1(key, dsn);
                (SmcOutcome::L2Hit, Some(dsn))
            } else {
                self.stats.l2_misses += 1;
                (SmcOutcome::Miss, None)
            }
        }

        fn fill(&mut self, hsn: Hsn, dsn: Dsn) {
            let key = hsn.pack();
            self.tick += 1;
            self.insert_l1(key, dsn);
            self.insert_l2(key, dsn);
        }

        fn invalidate(&mut self, hsn: Hsn) -> bool {
            let key = hsn.pack();
            let mut any = false;
            let range = self.l2_set_range(key);
            for e in self.l1.iter_mut().chain(&mut self.l2[range]) {
                if e.valid && e.key == key {
                    e.valid = false;
                    any = true;
                }
            }
            any
        }

        fn insert_l1(&mut self, key: u64, dsn: Dsn) {
            let tick = self.tick;
            Self::insert(&mut self.l1, key, dsn, tick);
        }

        fn insert_l2(&mut self, key: u64, dsn: Dsn) {
            let tick = self.tick;
            let range = self.l2_set_range(key);
            Self::insert(&mut self.l2[range], key, dsn, tick);
        }

        fn insert(set: &mut [Entry], key: u64, dsn: Dsn, tick: u64) {
            if let Some(e) = set.iter_mut().find(|e| e.valid && e.key == key) {
                e.dsn = dsn;
                e.lru = tick;
                return;
            }
            let victim = set
                .iter_mut()
                .min_by_key(|e| if e.valid { e.lru + 1 } else { 0 })
                .expect("set non-empty");
            *victim = Entry { key, dsn, lru: tick, valid: true };
        }
    }

    /// (L1 entries, L2 entries, L2 ways): L2s small enough that a key is
    /// evicted from its set while still L1-resident, so `invalidate` meets
    /// L1-only, L2-only, both-level and absent keys.
    const PROP_SIZES: [(usize, usize, usize); 4] = [(1, 8, 2), (2, 8, 2), (8, 32, 4), (64, 128, 4)];

    /// Key `i` of a size's universe. About three keys per L1 entry: the
    /// L1 is always under eviction pressure and its index, at most a
    /// quarter full, still sees probe runs several buckets long.
    fn prop_key(i: u32) -> Hsn {
        Hsn { host: HostId((i % 2) as u16), au: AuId((i / 2) % 3), au_offset: i / 6 }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Lookup(u32),
        /// Also the refill of a resident key with a new DSN.
        Fill(u32, u64),
        Invalidate(u32),
        /// Host, AU (the universe uses three per host) and offset count,
        /// reduced to a little past the universe's widest AU.
        InvalidateAu(u16, u32, u32),
        /// Releases every AU of the universe, which empties the cache, then
        /// the given host's AU again: the release that finds nothing.
        Empty(u16, u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let key = || any::<u32>();
        prop_oneof![
            4 => key().prop_map(Op::Lookup),
            4 => (key(), 0u64..1 << 40).prop_map(|(k, d)| Op::Fill(k, d)),
            2 => key().prop_map(Op::Invalidate),
            1 => (0u16..2, 0u32..4, key()).prop_map(|(h, a, n)| Op::InvalidateAu(h, a, n)),
            1 => (0u16..2, 0u32..4).prop_map(|(h, a)| Op::Empty(h, a)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The indexed SMC and the linear-scan reference, fed the same
        /// operations, return the same outcomes and hold the same entries
        /// in the same slots with the same LRU stamps after every step.
        #[test]
        fn lockstep_with_the_linear_scan_reference(
            size in 0usize..PROP_SIZES.len(),
            steps in prop::collection::vec(op_strategy(), 1..600),
        ) {
            let (l1, l2, ways) = PROP_SIZES[size];
            let universe = 3 * l1 as u32 + 5;
            let mut fast = SegmentMappingCache::new(l1, l2, ways);
            let mut model = ReferenceSmc::new(l1, l2, ways);
            for op in steps {
                match op {
                    Op::Lookup(k) => {
                        let hsn = prop_key(k % universe);
                        prop_assert_eq!(fast.lookup(hsn), model.lookup(hsn), "lookup {}", hsn);
                    }
                    Op::Fill(k, dsn) => {
                        let hsn = prop_key(k % universe);
                        fast.fill(hsn, Dsn(dsn));
                        model.fill(hsn, Dsn(dsn));
                    }
                    Op::Invalidate(k) => {
                        let hsn = prop_key(k % universe);
                        prop_assert_eq!(fast.invalidate(hsn), model.invalidate(hsn), "invalidate {}", hsn);
                    }
                    Op::InvalidateAu(host, au, n) => {
                        let (host, au, n) = (HostId(host), AuId(au), n % (universe / 6 + 3));
                        let per_key = (0..n).fold(false, |any, au_offset| {
                            model.invalidate(Hsn { host, au, au_offset }) | any
                        });
                        prop_assert_eq!(fast.invalidate_au(host, au, n), per_key, "{} {} x{}", host, au, n);
                    }
                    Op::Empty(again_host, again_au) => {
                        // Every key of the universe has an offset below this.
                        let n = universe / 6 + 1;
                        for (host, au) in (0..2).flat_map(|h| (0..3).map(move |a| (HostId(h), AuId(a)))) {
                            let per_key = (0..n).fold(false, |any, au_offset| {
                                model.invalidate(Hsn { host, au, au_offset }) | any
                            });
                            prop_assert_eq!(fast.invalidate_au(host, au, n), per_key, "{} {}", host, au);
                        }
                        prop_assert_eq!(fast.valid, 0, "the universe released");
                        let (host, au) = (HostId(again_host), AuId(again_au));
                        prop_assert!(!fast.invalidate_au(host, au, n), "an empty cache finds nothing");
                        prop_assert!(!fast.invalidate(Hsn { host, au, au_offset: 0 }));
                    }
                }
                prop_assert_eq!(fast.stats(), model.stats);
                prop_assert_eq!(&fast.l1, &model.l1);
                prop_assert_eq!(&fast.l2, &model.l2);
                fast.check_index();
            }
        }
    }
}
