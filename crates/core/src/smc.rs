//! The two-level segment mapping cache (SMC) — the paper's TLB-like
//! structure that keeps HSN→DSN translations close to the datapath
//! (§3.2, Table 3): a 64-entry fully-associative L1 and a 1024-entry
//! 4-way set-associative L2, both LRU.

use serde::{Deserialize, Serialize};

use crate::addr::{Dsn, Hsn};

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

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    dsn: Dsn,
    lru: u64,
    valid: bool,
}

const INVALID: Entry = Entry { key: 0, dsn: Dsn(0), lru: 0, valid: false };

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
    l2: Vec<Entry>,
    l2_sets: usize,
    l2_ways: usize,
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
            l2: vec![INVALID; l2_entries],
            l2_sets,
            l2_ways,
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
        // L1: fully associative scan.
        if let Some(e) = self.l1.iter_mut().find(|e| e.valid && e.key == key) {
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
        let key = hsn.pack();
        let mut any = false;
        // A key only ever lives in its own L2 set (where `insert_l2` put it).
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
        if let Some(e) = self.l1.iter_mut().find(|e| e.valid && e.key == key) {
            e.dsn = dsn;
            e.lru = tick;
            return;
        }
        let victim = self
            .l1
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru + 1 } else { 0 })
            .expect("l1 non-empty");
        *victim = Entry { key, dsn, lru: tick, valid: true };
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
        *victim = Entry { key, dsn, lru: tick, valid: true };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AuId, HostId};

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
}
