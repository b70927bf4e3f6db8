//! Mixing several workload traces into one shared-device stream.
//!
//! Each workload instance receives a disjoint, segment-aligned base offset
//! in a flat "host" address space; records are merged by instruction count,
//! which models the applications progressing at the same instruction rate
//! on separate cores (the paper's "mixed trace" methodology, §5.2).

use serde::{Deserialize, Serialize};

use crate::workload::{TraceGen, TraceRecord, WorkloadSpec, SEGMENT_BYTES};

/// A record in a mixed stream, tagged with the originating instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MixedRecord {
    /// Global instruction count (max over per-app icounts at merge).
    pub icount: u64,
    /// Address in the flat mixed address space.
    pub addr: u64,
    /// Writeback vs demand read.
    pub is_write: bool,
    /// Index of the instance that produced the record.
    pub instance: u32,
}

/// Merges multiple [`TraceGen`]s into one instruction-ordered stream over
/// disjoint address regions.
///
/// # Examples
///
/// ```
/// use dtl_trace::{Mixer, WorkloadKind};
///
/// let specs: Vec<_> = [WorkloadKind::WebSearch, WorkloadKind::DataCaching]
///     .iter()
///     .map(|k| k.spec().scaled(256))
///     .collect();
/// let mut mix = Mixer::new(&specs, 7);
/// let r = mix.next_record();
/// assert!(r.instance < 2);
/// ```
#[derive(Debug, Clone)]
pub struct Mixer {
    gens: Vec<TraceGen>,
    bases: Vec<u64>,
    /// Lookahead: generator `i`'s next [`RING`] records, oldest unread at
    /// `rings[i * RING + pos[i]]`. A generator is only ever run for a whole
    /// ring at a time, in one loop: merging record by record would make
    /// each generator call wait for the previous record's `ln()` to decide
    /// whose turn it is, and that chain, not the arithmetic, is what a
    /// merged record costs.
    ///
    /// Running ahead cannot be observed: every generator owns its RNG, the
    /// mixer never hands one out or drifts its hot set, and the placement
    /// queries below read only what [`TraceGen::new`] fixed.
    rings: Vec<TraceRecord>,
    pos: Vec<usize>,
    /// `icount` of each generator's oldest unread record: all the merge
    /// looks at.
    head_icount: Vec<u64>,
}

/// Records generated ahead per instance. Small enough that building a
/// mixer stays a few microseconds, large enough to amortise the refill.
const RING: usize = 32;

impl Mixer {
    /// Builds a mixer over `specs`, seeding instance `i` with `seed + i`.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn new(specs: &[WorkloadSpec], seed: u64) -> Self {
        assert!(!specs.is_empty(), "mixer needs at least one workload");
        let mut gens = Vec::with_capacity(specs.len());
        let mut bases = Vec::with_capacity(specs.len());
        let mut base = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            bases.push(base);
            // Segment-aligned disjoint regions.
            base += spec.working_set_bytes.next_multiple_of(SEGMENT_BYTES);
            gens.push(TraceGen::new(*spec, seed.wrapping_add(i as u64)));
        }
        let blank = TraceRecord { icount: 0, addr: 0, is_write: false };
        let mut mix = Mixer {
            rings: vec![blank; gens.len() * RING],
            pos: vec![0; gens.len()],
            head_icount: vec![0; gens.len()],
            gens,
            bases,
        };
        for i in 0..mix.gens.len() {
            mix.refill(i);
        }
        mix
    }

    /// Generates instance `i`'s next [`RING`] records over its (fully
    /// read) ring.
    fn refill(&mut self, i: usize) {
        let gen = &mut self.gens[i];
        let ring = &mut self.rings[i * RING..(i + 1) * RING];
        for slot in ring.iter_mut() {
            *slot = gen.next_record();
        }
        self.pos[i] = 0;
        self.head_icount[i] = ring[0].icount;
    }

    /// Total flat address-space size spanned by all instances.
    pub fn address_space_bytes(&self) -> u64 {
        let last = self.gens.len() - 1;
        self.bases[last] + self.gens[last].spec().working_set_bytes.next_multiple_of(SEGMENT_BYTES)
    }

    /// Base offset of instance `i`.
    pub fn base_of(&self, i: u32) -> u64 {
        self.bases[i as usize]
    }

    /// Number of instances in the mix.
    pub fn instances(&self) -> u32 {
        self.gens.len() as u32
    }

    /// Whether the flat-space segment `seg` is hot in its owner's placement.
    pub fn is_hot_segment(&self, seg: u64) -> bool {
        let addr = seg * SEGMENT_BYTES;
        match self.instance_of(addr) {
            Some(i) => {
                let local = (addr - self.bases[i as usize]) / SEGMENT_BYTES;
                self.gens[i as usize].is_hot_segment(local)
            }
            None => false,
        }
    }

    /// Which instance owns flat address `addr`, if any.
    pub fn instance_of(&self, addr: u64) -> Option<u32> {
        for (i, gen) in self.gens.iter().enumerate() {
            let b = self.bases[i];
            if addr >= b && addr < b + gen.spec().working_set_bytes {
                return Some(i as u32);
            }
        }
        None
    }

    /// Next record in global instruction order.
    pub fn next_record(&mut self) -> MixedRecord {
        // Lowest icount, lowest instance on a tie.
        let (i, _) = self
            .head_icount
            .iter()
            .enumerate()
            .min_by_key(|(_, icount)| **icount)
            .expect("a mixer has at least one instance");
        let head = self.rings[i * RING + self.pos[i]];
        self.pos[i] += 1;
        if self.pos[i] == RING {
            self.refill(i);
        } else {
            self.head_icount[i] = self.rings[i * RING + self.pos[i]].icount;
        }
        MixedRecord {
            icount: head.icount,
            addr: self.bases[i] + head.addr,
            is_write: head.is_write,
            instance: i as u32,
        }
    }

    /// Collects `n` records.
    pub fn take_records(&mut self, n: usize) -> Vec<MixedRecord> {
        (0..n).map(|_| self.next_record()).collect()
    }
}

impl Iterator for Mixer {
    type Item = MixedRecord;

    fn next(&mut self) -> Option<MixedRecord> {
        Some(self.next_record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stride::StrideHistogram;
    use crate::workload::WorkloadKind;
    use proptest::prelude::*;

    fn specs(n: usize) -> Vec<WorkloadSpec> {
        WorkloadKind::TRACED.iter().take(n).map(|k| k.spec().scaled(256)).collect()
    }

    #[test]
    fn regions_are_disjoint() {
        let mix = Mixer::new(&specs(4), 1);
        for i in 0..4u32 {
            let b = mix.base_of(i);
            assert_eq!(b % SEGMENT_BYTES, 0, "segment aligned");
            if i > 0 {
                assert!(b > mix.base_of(i - 1));
            }
        }
    }

    #[test]
    fn records_map_back_to_their_instance() {
        let mut mix = Mixer::new(&specs(4), 2);
        for r in mix.take_records(5000) {
            let owner = mix.instance_of(r.addr);
            assert_eq!(owner, Some(r.instance));
        }
    }

    #[test]
    fn icount_nondecreasing() {
        let mut mix = Mixer::new(&specs(3), 3);
        let recs = mix.take_records(5000);
        assert!(recs.windows(2).all(|w| w[0].icount <= w[1].icount));
    }

    #[test]
    fn all_instances_contribute() {
        let mut mix = Mixer::new(&specs(8), 4);
        let recs = mix.take_records(20_000);
        for i in 0..8u32 {
            assert!(recs.iter().any(|r| r.instance == i), "instance {i} silent");
        }
    }

    #[test]
    fn mixing_widens_strides_like_figure_9() {
        // Standalone media-streaming has narrow strides; an 8-app mix must
        // be dominated by >=4MB strides (paper: 89.3%).
        let spec = WorkloadKind::MediaStreaming.spec().scaled(256);
        let mut solo_h = StrideHistogram::new();
        let mut solo = crate::workload::TraceGen::new(spec, 5);
        for _ in 0..30_000 {
            solo_h.observe(solo.next_record().addr);
        }
        let mut mix_h = StrideHistogram::new();
        let mut mix = Mixer::new(&specs(8), 5);
        for _ in 0..30_000 {
            mix_h.observe(mix.next_record().addr);
        }
        assert!(
            mix_h.fraction_at_least_4m() > 0.8,
            "mixed >=4MB fraction {}",
            mix_h.fraction_at_least_4m()
        );
        assert!(
            mix_h.fraction_at_least_4m() > solo_h.fraction_at_least_4m(),
            "mixing must widen strides"
        );
    }

    #[test]
    fn hot_segment_lookup_in_flat_space() {
        let mix = Mixer::new(&specs(2), 6);
        let total_segs = mix.address_space_bytes() / SEGMENT_BYTES;
        let hot = (0..total_segs).filter(|&s| mix.is_hot_segment(s)).count();
        assert!(hot > 0, "some segments must be hot");
        assert!((hot as u64) < total_segs, "not all segments hot");
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_mix_panics() {
        let _ = Mixer::new(&[], 0);
    }

    // --- lockstep with the merge this one replaced ------------------------

    /// The predecessor of the ring merge, verbatim: one lookahead record
    /// per generator, and the generator that produced a merged record runs
    /// again before the next one is chosen.
    struct ReferenceMixer {
        gens: Vec<TraceGen>,
        bases: Vec<u64>,
        heads: Vec<TraceRecord>,
    }

    impl ReferenceMixer {
        fn new(specs: &[WorkloadSpec], seed: u64) -> Self {
            let mut gens = Vec::new();
            let mut bases = Vec::new();
            let mut base = 0u64;
            for (i, spec) in specs.iter().enumerate() {
                bases.push(base);
                base += spec.working_set_bytes.next_multiple_of(SEGMENT_BYTES);
                gens.push(TraceGen::new(*spec, seed.wrapping_add(i as u64)));
            }
            let heads = gens.iter_mut().map(TraceGen::next_record).collect();
            ReferenceMixer { gens, bases, heads }
        }

        fn next_record(&mut self) -> MixedRecord {
            let (i, _) = self
                .heads
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.icount)
                .expect("heads is non-empty");
            let head = self.heads[i];
            self.heads[i] = self.gens[i].next_record();
            MixedRecord {
                icount: head.icount,
                addr: self.bases[i] + head.addr,
                is_write: head.is_write,
                instance: i as u32,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The ring merge and the one-head reference emit the same stream,
        /// record for record, for every instance count — through several
        /// refills of every ring, through ties (`dense`: every instance at
        /// a MAPKI of 900, so gaps of a single instruction and heads that
        /// tie constantly, which must go to the lowest instance), and from
        /// a clone taken at any ring position.
        #[test]
        fn lockstep_with_the_one_head_reference(
            n in 1usize..=8,
            seed in any::<u64>(),
            dense in any::<bool>(),
            clone_at in 0usize..200,
        ) {
            let mut specs = specs(n);
            if dense {
                specs.iter_mut().for_each(|s| s.mapki = 900.0);
            }
            let mut fast = Mixer::new(&specs, seed);
            let mut model = ReferenceMixer::new(&specs, seed);
            let mut copy: Option<Mixer> = None;
            let mut emitted = vec![0usize; n];
            let mut ties = 0;
            let mut last: Option<MixedRecord> = None;
            for step in 0..6000 {
                if step == clone_at {
                    copy = Some(fast.clone());
                }
                let expected = model.next_record();
                prop_assert_eq!(fast.next_record(), expected, "step {}", step);
                if let Some(copy) = copy.as_mut() {
                    prop_assert_eq!(copy.next_record(), expected, "clone, step {}", step);
                }
                emitted[expected.instance as usize] += 1;
                ties += usize::from(last.is_some_and(|l| {
                    l.icount == expected.icount && l.instance != expected.instance
                }));
                last = Some(expected);
            }
            prop_assert!(emitted.iter().all(|e| *e >= 3 * RING), "refills: {:?}", emitted);
            prop_assert!(!dense || n == 1 || ties > 100, "only {} ties", ties);
        }
    }
}
