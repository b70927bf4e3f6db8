//! Property tests: under arbitrary seeded sequences of remaps and swaps,
//! the mapping tables stay a bijection, and the SMC-cached translator
//! agrees with the tables on every HPA → DPA → HPA round trip (the cache
//! is a transparent accelerator, never a second source of truth).

use std::collections::{HashMap, HashSet};

use dtl_core::{
    AuId, Dsn, DtlConfig, HostId, HostPhysAddr, Hsn, MappingTables, SegmentGeometry, Translator,
};
use dtl_dram::Picos;
use proptest::prelude::*;

const SEGS_PER_AU: u64 = 8;
const AUS: u32 = 4;
const DSN_SPACE: u64 = 96; // > AUS * SEGS_PER_AU: leaves free DSNs to remap into

/// Builds tables with `AUS` AUs for one host, mapped to the low DSNs.
fn seed_tables() -> (MappingTables, HashMap<Hsn, Dsn>) {
    let host = HostId(0);
    let geo = SegmentGeometry { channels: 1, ranks_per_channel: 1, segs_per_rank: DSN_SPACE };
    let mut tables = MappingTables::new(SEGS_PER_AU, geo);
    tables.register_host(host);
    let mut model = HashMap::new();
    for au in 0..AUS {
        let dsns: Vec<Dsn> =
            (0..SEGS_PER_AU).map(|k| Dsn(u64::from(au) * SEGS_PER_AU + k)).collect();
        for (k, d) in dsns.iter().enumerate() {
            model.insert(Hsn { host, au: AuId(au), au_offset: k as u32 }, *d);
        }
        tables.create_au(host, AuId(au), dsns).expect("seed AU");
    }
    (tables, model)
}

/// One mutation step over the tables, mirrored into the flat model.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Remap the `i`-th mapped HSN to the `j`-th currently-free DSN.
    Remap { i: u8, j: u8 },
    /// Swap two DSNs (mapped or free — any combination is legal).
    Swap { a: u8, b: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(i, j)| Step::Remap { i, j }),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Swap { a, b }),
    ]
}

fn apply(step: Step, tables: &mut MappingTables, model: &mut HashMap<Hsn, Dsn>) {
    match step {
        Step::Remap { i, j } => {
            let mut mapped: Vec<Hsn> = model.keys().copied().collect();
            mapped.sort();
            let hsn = mapped[usize::from(i) % mapped.len()];
            let used: HashSet<Dsn> = model.values().copied().collect();
            let free: Vec<Dsn> = (0..DSN_SPACE).map(Dsn).filter(|d| !used.contains(d)).collect();
            let dst = free[usize::from(j) % free.len()];
            let old = tables.remap(hsn, dst).expect("remap to free DSN");
            assert_eq!(old, model.insert(hsn, dst).expect("hsn was mapped"));
        }
        Step::Swap { a, b } => {
            let (a, b) = (Dsn(u64::from(a) % DSN_SPACE), Dsn(u64::from(b) % DSN_SPACE));
            let (ha, hb) = tables.swap(a, b).expect("swap any two DSNs");
            assert_eq!(ha, model.iter().find(|(_, d)| **d == a).map(|(h, _)| *h));
            assert_eq!(hb, model.iter().find(|(_, d)| **d == b).map(|(h, _)| *h));
            if let Some(h) = ha {
                model.insert(h, b);
            }
            if let Some(h) = hb {
                model.insert(h, a);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any remap/swap sequence preserves bijectivity: forward and reverse
    /// stay exact inverses, and the table agrees with an independently
    /// maintained flat model.
    #[test]
    fn remap_swap_sequences_preserve_bijectivity(
        steps in proptest::collection::vec(step_strategy(), 0..48),
    ) {
        let (mut tables, mut model) = seed_tables();
        for step in steps {
            apply(step, &mut tables, &mut model);
            tables.check_consistency().expect("tables stay consistent");
        }
        // Exact agreement with the model, both directions.
        prop_assert_eq!(tables.mapped_segments(), model.len() as u64);
        let mut seen_dsns = HashSet::new();
        for (hsn, dsn) in &model {
            prop_assert_eq!(tables.translate(*hsn), Some(*dsn));
            prop_assert_eq!(tables.reverse(*dsn), Some(*hsn));
            prop_assert!(seen_dsns.insert(*dsn), "two HSNs share {}", dsn);
        }
    }

    /// HPA → DPA → HPA round trip through the cached translator: for any
    /// access pattern interleaved with remaps (each followed by the SMC
    /// invalidation the device performs), the translator's DSN matches the
    /// tables, and the reverse walk recovers the original HSN.
    #[test]
    fn hpa_dpa_roundtrip_through_smc(
        accesses in proptest::collection::vec((0u32..AUS, 0u64..SEGS_PER_AU, 0u64..4096), 1..64),
        remaps in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..12),
    ) {
        let cfg = DtlConfig::tiny();
        let (mut tables, mut model) = seed_tables();
        let mut translator = Translator::new(&cfg);
        let host = HostId(0);
        let mut remaps = remaps.into_iter();
        for (k, (au, seg, byte)) in accesses.into_iter().enumerate() {
            // Interleave a remap (plus the SMC invalidation the device
            // pairs with it) every other access.
            if k % 2 == 0 {
                if let Some((i, j)) = remaps.next() {
                    apply(Step::Remap { i, j }, &mut tables, &mut model);
                    let mut mapped: Vec<Hsn> = model.keys().copied().collect();
                    mapped.sort();
                    translator.invalidate(mapped[usize::from(i) % mapped.len()]);
                }
            }
            let hpa = HostPhysAddr::new(
                u64::from(au) * cfg.au_bytes + seg * cfg.segment_bytes + byte % cfg.segment_bytes,
            );
            let t = translator
                .translate(host, hpa, &tables, Picos::from_ns(50))
                .expect("every seeded HPA is mapped");
            // Forward agreement with the uncached tables...
            prop_assert_eq!(Some(t.dsn), tables.translate(t.hsn));
            prop_assert_eq!(t.offset, byte % cfg.segment_bytes);
            // ...and the reverse walk recovers the HSN, whose fields
            // reconstruct the original HPA's segment base.
            let back = tables.reverse(t.dsn).expect("reverse of a mapped DSN");
            prop_assert_eq!(back, t.hsn);
            let rebuilt = u64::from(back.au.0) * cfg.au_bytes
                + u64::from(back.au_offset) * cfg.segment_bytes;
            prop_assert_eq!(rebuilt, hpa.as_u64() - t.offset);
        }
    }
}
