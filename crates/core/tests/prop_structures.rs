//! Property tests on the DTL's individual structures: the segment mapping
//! cache against a reference model, the allocator's partition invariant,
//! and mapping-table forward/reverse consistency under random churn.

use std::collections::HashMap;

use dtl_core::{
    AuId, Dsn, HostId, Hsn, MappingTables, SegmentAllocator, SegmentGeometry, SegmentMappingCache,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The SMC always returns the most recently filled translation, or a
    /// miss — never a stale or wrong DSN.
    #[test]
    fn smc_agrees_with_reference(ops in prop::collection::vec(
        (0u32..64, 0u64..1024, any::<bool>()), 1..300
    )) {
        let mut smc = SegmentMappingCache::new(4, 32, 4);
        let mut reference: HashMap<u32, u64> = HashMap::new();
        for (off, dsn, is_fill) in ops {
            let hsn = Hsn { host: HostId(0), au: AuId(0), au_offset: off };
            if is_fill {
                smc.fill(hsn, Dsn(dsn));
                reference.insert(off, dsn);
            } else {
                let (_, got) = smc.lookup(hsn);
                if let Some(d) = got {
                    prop_assert_eq!(
                        Some(&d.0),
                        reference.get(&off),
                        "SMC returned a translation never filled or stale"
                    );
                }
            }
        }
    }

    /// Invalidation removes exactly the requested key.
    #[test]
    fn smc_invalidate_is_precise(keys in prop::collection::vec(0u32..32, 2..40)) {
        let mut smc = SegmentMappingCache::new(8, 32, 4);
        for k in &keys {
            smc.fill(Hsn { host: HostId(0), au: AuId(0), au_offset: *k }, Dsn(u64::from(*k)));
        }
        let victim = keys[0];
        smc.invalidate(Hsn { host: HostId(0), au: AuId(0), au_offset: victim });
        let (_, got) = smc.lookup(Hsn { host: HostId(0), au: AuId(0), au_offset: victim });
        prop_assert_eq!(got, None);
        // Any other key still present must map to its own value.
        for k in &keys[1..] {
            if *k == victim { continue; }
            let (_, got) = smc.lookup(Hsn { host: HostId(0), au: AuId(0), au_offset: *k });
            if let Some(d) = got {
                prop_assert_eq!(d, Dsn(u64::from(*k)));
            }
        }
    }

    /// Allocator: free + allocated always tile every rank, across random
    /// allocate / free cycles.
    #[test]
    fn allocator_partition_invariant(ops in prop::collection::vec(any::<bool>(), 1..120)) {
        let geo = SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 16 };
        let mut alloc = SegmentAllocator::new(geo);
        let mut live: Vec<Vec<Dsn>> = Vec::new();
        let mut got: Vec<Vec<Dsn>> = Vec::new();
        for do_alloc in ops {
            if do_alloc {
                if alloc.allocate_aus(8, 1, &mut got).is_ok() {
                    assert_eq!(got.iter().map(Vec::len).collect::<Vec<_>>(), [8]);
                    live.append(&mut got);
                }
            } else if let Some(dsns) = live.pop() {
                alloc.free_segments(&dsns).unwrap();
            }
            alloc.check_consistency().unwrap();
            // Channel balance: every live AU has 4 segments per channel.
            for au in &live {
                let mut per = [0u32; 2];
                for d in au {
                    per[geo.location(*d).channel as usize] += 1;
                }
                prop_assert_eq!(per[0], per[1]);
            }
        }
    }

    /// Mapping tables stay forward/reverse consistent under random
    /// create / remove / remap / swap churn.
    #[test]
    fn tables_consistency_under_churn(ops in prop::collection::vec(
        (0u8..4, 0u64..64, 0u64..64), 1..200
    )) {
        // Room for every id the churn below can reach: 200 ops mint at most
        // 200 AU ids and DSNs below 1000 + 4 * 200.
        let geo = SegmentGeometry { channels: 1, ranks_per_channel: 1, segs_per_rank: 2048 };
        let mut t = MappingTables::new(4, geo);
        t.register_host(HostId(0));
        let mut next_au = 0u32;
        let mut live_aus: Vec<AuId> = Vec::new();
        let mut free_dsn = 0u64;
        for (kind, x, y) in ops {
            match kind {
                0 => {
                    // Create an AU over four fresh DSNs.
                    let au = AuId(next_au);
                    next_au += 1;
                    let dsns: Vec<Dsn> = (0..4).map(|i| Dsn(1000 + free_dsn + i)).collect();
                    free_dsn += 4;
                    t.create_au(HostId(0), au, dsns).unwrap();
                    live_aus.push(au);
                }
                1 => {
                    if let Some(au) = live_aus.pop() {
                        t.remove_au(HostId(0), au).unwrap();
                    }
                }
                2 => {
                    // Remap a random live HSN to a fresh DSN.
                    if let Some(au) = live_aus.first() {
                        let hsn = Hsn { host: HostId(0), au: *au, au_offset: (x % 4) as u32 };
                        let fresh = Dsn(1000 + free_dsn);
                        free_dsn += 1;
                        t.remap(hsn, fresh).unwrap();
                    }
                }
                _ => {
                    // Swap two arbitrary DSNs in the used range.
                    let a = Dsn(1000 + (x % free_dsn.max(1)));
                    let b = Dsn(1000 + (y % free_dsn.max(1)));
                    t.swap(a, b).unwrap();
                }
            }
            t.check_consistency().unwrap();
        }
    }
}
